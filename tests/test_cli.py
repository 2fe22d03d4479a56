"""Scenario runner: presets, config validation, artifacts, exit contract."""

import copy
import csv
import json
import math
import os
import subprocess
import sys

import pytest

from hagedorn import gridsolver
from hagedorn.cli import PRESETS, load_config, main, run_scenario, validate_config

MINI_ORACLE = {
    "times": {"start": 0.0, "stop": 1.0, "count": 5},
    "alphas": [[0], [1]],
    "oracle": {
        "enabled": True,
        "times": [0.25],
        "grid": {"lo": -12.0, "hi": 12.0, "count": 512},
        "dt": 1e-3,
        "grid_tol": 1e-4,
    },
}


def mini_config():
    raw = copy.deepcopy(PRESETS["swanson-fig1"])
    raw["name"] = "mini"
    raw.update(copy.deepcopy(MINI_ORACLE))
    return raw


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


# -- validation -----------------------------------------------------------------


def test_presets_validate_clean():
    for name, raw in PRESETS.items():
        assert validate_config(raw) == [], name


def test_validate_flags_nonsymmetric_hamiltonian():
    raw = copy.deepcopy(PRESETS["hermitian-sanity"])
    raw["hamiltonian"]["matrix"] = [[1.0, 0.3], [0.2, 1.0]]
    codes = [d.code for d in validate_config(raw)]
    assert "NonSymmetricH" in codes


def test_validate_flags_bad_time_grid():
    raw = copy.deepcopy(PRESETS["hermitian-sanity"])
    raw["times"] = {"start": 1.0, "stop": 0.0, "count": 10}
    codes = [d.code for d in validate_config(raw)]
    assert "BadTimeGrid" in codes


def test_validate_command_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(PRESETS["hermitian-sanity"]))
    assert main(["validate", str(good)]) == 0
    assert "ok" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    raw = copy.deepcopy(PRESETS["hermitian-sanity"])
    raw["times"] = {"start": 1.0, "stop": 0.0, "count": 10}
    bad.write_text(json.dumps(raw))
    assert main(["validate", str(bad)]) == 1
    assert "BadTimeGrid" in capsys.readouterr().out

    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_run_rejects_broken_config(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"name": "x"}')
    assert main(["run", str(broken)]) == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("key", ["times", "dt", "grid_tol"])
@pytest.mark.parametrize("value", [math.inf, True])
def test_run_rejects_bad_oracle_numbers(tmp_path, capsys, key, value):
    # the file holds `Infinity` or `true`, as a hand-written config would
    raw = mini_config()
    raw["oracle"][key] = [value] if key == "times" else value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "BadOracle" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha", [[1.7], [True], [40]])
def test_run_rejects_bad_alpha(tmp_path, capsys, alpha):
    # truncating 1.7 or true to an int, or failing on |α| = 40 only after
    # trajectory.csv is written, would both hide the bad entry
    raw = copy.deepcopy(PRESETS["hermitian-sanity"])
    raw["alphas"] = [alpha]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "BadAlpha" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


STANDARD_FRAME_2D = [[[0.0, 1.0], 0.0], [0.0, [0.0, 1.0]], [1.0, 0.0], [0.0, 1.0]]
IDENTITY_2 = [[1.0, 0.0], [0.0, 1.0]]

# (id, base config, path to the value, value, diagnostic code); "mini" is
# mini_config(), anything else a preset.  Each value reaches the runner only
# if the parse lets it through: a truncated count, an accepted NaN or bool, or
# a failure inside propagate would all leave an output directory behind.
REJECTIONS = [
    ("times-stop-inf", "hermitian-sanity", ("times", "stop"), math.inf, "BadTimeGrid"),
    ("times-list-inf", "hermitian-sanity", ("times",), [0.0, 1.0, math.inf], "BadTimeGrid"),
    ("times-list-bool", "hermitian-sanity", ("times",), [0, True, 2], "BadTimeGrid"),
    ("times-count-fraction", "hermitian-sanity", ("times", "count"), 5.7, "BadTimeGrid"),
    ("times-count-string", "hermitian-sanity", ("times", "count"), "5", "BadTimeGrid"),
    ("center-nan", "hermitian-sanity", ("center",), [math.nan, 0.0], "BadCenter"),
    ("matrix-nan", "hermitian-sanity", ("hamiltonian", "matrix"), [[math.nan, 0.0], [0.0, 1.0]],
     "BadHamiltonian"),
    ("eps-overflows-float", "hermitian-sanity", ("eps",), 10**400, "BadEps"),
    ("grid-lo-inf", "mini", ("oracle", "grid", "lo"), -math.inf, "BadOracle"),
    ("grid-count-fraction", "mini", ("oracle", "grid", "count"), 512.9, "BadOracle"),
    ("oracle-enabled-string", "mini", ("oracle", "enabled"), "no", "BadOracle"),
    # only a missing or null oracle block means "no block"
    ("oracle-false", "hermitian-sanity", ("oracle",), False, "BadOracle"),
    ("oracle-zero", "hermitian-sanity", ("oracle",), 0, "BadOracle"),
    ("oracle-empty-list", "hermitian-sanity", ("oracle",), [], "BadOracle"),
    ("oracle-empty-string", "hermitian-sanity", ("oracle",), "", "BadOracle"),
    ("omega0-bool", "horizon", ("swanson", "omega0"), True, "BadSwanson"),
    ("omega0-string", "horizon", ("swanson", "omega0"), "1.0", "BadSwanson"),
    ("metric-bools", "squeezed-metric", ("initial", "metric"), [[True, False], [False, True]],
     "BadFrame"),
    # a 2-mode frame under a 1-mode H
    ("frame-n-differs", "hermitian-sanity", ("initial",), {"entries": STANDARD_FRAME_2D},
     "BadFrame"),
    ("unknown-tol-frame", "hermitian-sanity", ("tol_frame",), 1e-10, "BadConfig"),
    ("unknown-ode-tol", "hermitian-sanity", ("ode_tol",), 1e-10, "BadConfig"),
    ("unknown-output-dir", "hermitian-sanity", ("output_dir",), "elsewhere", "BadConfig"),
    ("unknown-oracle-key", "mini", ("oracle", "step"), 1e-3, "BadConfig"),
    # unknown keys inside nested blocks
    ("unknown-times-key", "hermitian-sanity", ("times", "step"), 0.1, "BadConfig"),
    ("unknown-hamiltonian-key", "hermitian-sanity", ("hamiltonian", "times"), [0.0, 1.0],
     "BadConfig"),
    ("unknown-sampled-key", "hermitian-sanity", ("hamiltonian",),
     {"type": "sampled", "times": [0.0, 1.0], "matrices": [IDENTITY_2, IDENTITY_2],
      "coefficients": [IDENTITY_2]}, "BadConfig"),
    ("unknown-swanson-key", "horizon", ("swanson", "gamma"), 0.1, "BadConfig"),
    ("unknown-initial-key", "squeezed-metric", ("initial", "metrics"), IDENTITY_2, "BadConfig"),
    ("unknown-grid-key", "mini", ("oracle", "grid", "points"), 512, "BadConfig"),
    # a metric and entries at once: neither may silently win
    ("initial-metric-and-entries", "squeezed-metric", ("initial", "entries"),
     [[[1.0, 0.0]], [[0.0, -1.0]]], "BadFrame"),
    # sample times out of order are a fault of the block, not an asymmetric H
    ("sampled-times-decreasing", "hermitian-sanity", ("hamiltonian",),
     {"type": "sampled", "times": [1.0, 0.0], "matrices": [IDENTITY_2, IDENTITY_2]},
     "BadHamiltonian"),
    # the Swanson closed forms hold for a packet centred at the origin only
    ("swanson-displaced", "swanson-fig1", ("center",), [0.4, 0.6], "SwansonMismatch"),
]


def test_run_rejects_alpha_whose_table_is_too_large(tmp_path, capsys):
    # |α| = 32 is within the cap, but its recursion table would take 690 MB;
    # (16, 0, …, 0) has a small recursion table, but its ladder table over
    # |k| ≤ 16 in 8 modes would take 30M entries
    for alpha in [[8, 8, 8, 8], [16] + [0] * 7]:
        n = len(alpha)
        raw = copy.deepcopy(PRESETS["hermitian-sanity"])
        raw["hamiltonian"]["matrix"] = [[float(i == j) for j in range(2 * n)] for i in range(2 * n)]
        raw["center"] = [0.0] * (2 * n)
        raw["alphas"] = [alpha]
        bad = tmp_path / f"bad{n}.json"
        bad.write_text(json.dumps(raw))
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "BadAlpha" in printed_codes(capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


def rejected_config(base, path, value):
    raw = mini_config() if base == "mini" else copy.deepcopy(PRESETS[base])
    block = raw
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    return raw


def printed_codes(text):
    return {line.split(":", 1)[0] for line in text.splitlines() if line}


@pytest.mark.parametrize(
    "base, path, value, code", [case[1:] for case in REJECTIONS], ids=[c[0] for c in REJECTIONS]
)
def test_run_rejects_malformed_values(tmp_path, capsys, base, path, value, code):
    # the file holds `Infinity`, `NaN`, `true` or a string, as a hand-written
    # config would
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rejected_config(base, path, value)))
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert code in printed_codes(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "base, path, value, code", [case[1:] for case in REJECTIONS], ids=[c[0] for c in REJECTIONS]
)
def test_validate_and_run_report_the_same_codes(tmp_path, capsys, base, path, value, code):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rejected_config(base, path, value)))
    assert main(["validate", str(bad)]) == 1
    validated = printed_codes(capsys.readouterr().out)
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert printed_codes(capsys.readouterr().err) == validated
    assert code in validated


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
def test_run_rejects_unreadable_config(tmp_path, capsys, content):
    # a missing file, invalid JSON, and a non-object merged over a preset
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    assert main(["run", str(path), "--preset", "hermitian-sanity", "--out", str(out)]) == 2
    assert "BadConfig" in printed_codes(capsys.readouterr().err)
    assert not out.exists()


def test_run_has_no_ode_tol_flag(tmp_path, capsys):
    # the flow's tolerance is fixed; argparse rejects the flag with exit 2
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "hermitian-sanity", "--ode-tol", "1e-8", "--out", str(out)])
    assert exc.value.code == 2
    assert "--ode-tol" in capsys.readouterr().err
    assert not out.exists()


def test_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


# -- preset runs ------------------------------------------------------------------


def test_hermitian_sanity_preset(tmp_path):
    out = tmp_path / "herm"
    assert main(["run", "--preset", "hermitian-sanity", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["name"] == "hermitian-sanity"
    assert all(c["passed"] for c in manifest["checks"])
    # only tolerances the run applies: the flow and the frame checks use fixed
    # ones, and no grid oracle runs, so there is no grid_tol
    assert manifest["tolerances"] == {}
    for name in ("trajectory.csv", "coefficients_0.csv", "coefficients_2.csv"):
        assert (out / name).exists()
    rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 101
    assert max(abs(float(r["norm_predicted"]) - 1.0) for r in rows) < 1e-8


def test_hermitian_check_reads_every_knot(tmp_path):
    # Im H sits only on the middle knot, between the two output times: H is
    # not real, the norm leaves 1, and no hermitian_norms check applies
    raw = copy.deepcopy(PRESETS["hermitian-sanity"])
    skew = [[1.0, [0.0, -0.5]], [[0.0, -0.5], 1.0]]
    raw["hamiltonian"] = {
        "type": "sampled", "times": [0.0, 0.5, 1.0], "matrices": [IDENTITY_2, skew, IDENTITY_2]
    }
    raw["times"] = [0.0, 1.0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert {c["name"] for c in read_manifest(out)["checks"]} == {"symplectic_defect"}
    assert abs(float(read_csv(out / "trajectory.csv")[-1]["norm_predicted"]) - 1.0) > 1e-3


def test_horizon_preset(tmp_path):
    out = tmp_path / "hor"
    assert main(["run", "--preset", "horizon", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    expected = math.acos(-0.25) / (2 * math.sqrt(1.25))
    assert abs(manifest["horizon"]["detected"] - expected) < 1e-6
    assert manifest["horizon"]["expected"] is True
    # the trajectory is truncated at the breakdown, not padded or crashed
    assert manifest["times"]["count"] < manifest["times"]["requested"]
    rows = read_csv(out / "trajectory.csv")
    assert float(rows[-1]["t"]) < expected


def test_squeezed_metric_preset(tmp_path):
    out = tmp_path / "sq"
    assert main(["run", "--preset", "squeezed-metric", "--out", str(out)]) == 0
    assert all(c["passed"] for c in read_manifest(out)["checks"])


def test_swanson_fig1_without_oracle(tmp_path):
    out = tmp_path / "fig1"
    assert main(["run", "--preset", "swanson-fig1", "--no-oracle", "--out", str(out)]) == 0
    rows = read_csv(out / "norms.csv")
    assert len(rows) == 600  # 200 times, three orders
    assert {r["k"] for r in rows} == {"0", "1", "2"}
    worst = max(
        abs(float(r["norm_closed_form"]) - float(r["norm_general_pipeline"])) for r in rows
    )
    assert worst < 1e-8
    assert all(r["norm_grid_oracle"] == "" for r in rows)
    for k in (0, 1, 2):
        assert (out / f"coefficients_{k}.csv").exists()


# -- oracle runs and the exit contract ----------------------------------------------


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini")
    cfg = out / "mini.json"
    cfg.write_text(json.dumps(mini_config()))
    status = main(["run", str(cfg), "--out", str(out / "run")])
    return status, out / "run", cfg


def test_oracle_norm_check_fails_honestly(mini_run):
    # the grid oracle is an independent computation: its norms must agree
    # with the coefficient-route prediction as well as its shapes do, and a
    # disagreement must show as a failed check and a nonzero exit status
    status, out, _ = mini_run
    assert status == 0
    checks = {c["name"]: c["passed"] for c in read_manifest(out)["checks"]}
    assert checks["oracle_fidelity"] is True
    assert checks["oracle_norms"] is True
    assert checks["closed_form_norms"] is True


def test_oracle_report_contents(mini_run):
    _, out, _ = mini_run
    with open(out / "oracle.json") as fh:
        report = json.load(fh)
    assert len(report["cases"]) == 2
    assert report["grid_tol"] == read_manifest(out)["tolerances"]["grid_tol"] == 1e-4
    for case in report["cases"]:
        assert case["t"] == 0.25
        assert case["fidelity"] >= 1 - 1e-5
        assert case["richardson_error"] < 1e-4
        for key in ("outside_x", "outside_p"):
            assert math.isfinite(case[key]) and 0 <= case[key] <= 1


def test_displaced_swanson_passes_the_oracle_without_closed_forms(tmp_path, capsys):
    # a swanson block with a nonzero centre is rejected; the same scenario
    # given by its matrix alone runs, and both routes of every excited state
    # agree with the grid
    raw = copy.deepcopy(PRESETS["swanson-fig1"])
    raw["center"] = [0.4, 0.6]
    raw["times"] = {"start": 0.0, "stop": 1.0, "count": 5}
    raw["oracle"]["times"] = [0.25, 0.5]
    cfg = tmp_path / "displaced.json"
    cfg.write_text(json.dumps(raw))
    assert main(["validate", str(cfg)]) == 1
    assert printed_codes(capsys.readouterr().out) == {"SwansonMismatch"}
    del raw["swanson"]
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    checks = {c["name"]: c["passed"] for c in read_manifest(out)["checks"]}
    assert checks == {"symplectic_defect": True, "oracle_fidelity": True, "oracle_norms": True}


def test_grid_tol_reported_only_where_the_oracle_runs(tmp_path, capsys):
    cfg = tmp_path / "mini.json"
    cfg.write_text(json.dumps(mini_config()))
    assert load_config(mini_config()).oracle.grid_tol == 1e-4
    out = tmp_path / "off"
    assert main(["run", str(cfg), "--no-oracle", "--out", str(out)]) == 0
    assert read_manifest(out)["tolerances"] == {}
    assert not (out / "oracle.json").exists()
    # a malformed tolerance is still rejected when the oracle is off
    raw = mini_config()
    raw["oracle"]["grid_tol"] = -1.0
    cfg.write_text(json.dumps(raw))
    bad = tmp_path / "bad"
    assert main(["run", str(cfg), "--no-oracle", "--out", str(bad)]) == 2
    assert "BadOracle" in capsys.readouterr().err
    assert not bad.exists()
    # the config key is the one way to set it; argparse rejects the flag
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "swanson-fig1", "--grid-tol", "1e-5", "--out", str(bad)])
    assert exc.value.code == 2
    assert "--grid-tol" in capsys.readouterr().err
    assert not bad.exists()


def test_oracle_column_patched_into_norm_curve(mini_run):
    _, out, _ = mini_run
    with open(out / "oracle.json") as fh:
        cases = {c["k"]: c for c in json.load(fh)["cases"]}
    rows = read_csv(out / "norms.csv")
    patched = [r for r in rows if r["norm_grid_oracle"] != ""]
    assert {float(r["t"]) for r in patched} == {0.25}
    for row in patched:
        case = cases[int(row["k"])]
        assert float(row["norm_grid_oracle"]) == pytest.approx(case["norm_grid"], abs=0)


def test_oracle_failure_keeps_the_earlier_cases(tmp_path, monkeypatch):
    # with no halvings, a grid_tol between the per-unit estimates at t = 0.25
    # and t = 0.5 stops the march at 0.5; the 0.25 case keeps its numbers
    monkeypatch.setattr(gridsolver, "MAX_HALVINGS", 0)
    raw = mini_config()
    raw["alphas"] = [[0]]
    raw["oracle"].update(times=[0.25, 0.5], grid={"lo": -12.0, "hi": 12.0, "count": 128}, dt=1e-2)
    raw["oracle"]["grid_tol"] = 1.0
    run_scenario(load_config(raw), tmp_path / "free")
    free = json.loads((tmp_path / "free" / "oracle.json").read_text())["cases"]
    per_unit = [case["richardson_error"] / case["t"] for case in free]
    assert per_unit[0] < per_unit[1]
    raw["oracle"]["grid_tol"] = math.sqrt(per_unit[0] * per_unit[1])
    assert run_scenario(load_config(raw), tmp_path / "out") == 1
    first, second = json.loads((tmp_path / "out" / "oracle.json").read_text())["cases"]
    assert first == free[0]
    assert second["t"] == 0.5 and "error" in second and "norm_grid" not in second
    checks = {c["name"]: c for c in read_manifest(tmp_path / "out")["checks"]}
    assert checks["oracle_fidelity"]["passed"] is False
    assert "1 case(s) failed to converge" in checks["oracle_fidelity"]["detail"]


def test_identical_configs_give_identical_bytes(mini_run, tmp_path):
    _, first, cfg = mini_run
    second = tmp_path / "again"
    main(["run", str(cfg), "--out", str(second)])
    names = json.loads((first / "manifest.json").read_text())["artifacts"]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_unexpected_positivity_loss_is_reported_not_raised(tmp_path):
    raw = copy.deepcopy(PRESETS["horizon"])
    del raw["expect_horizon"]
    config = load_config(raw)
    status = run_scenario(config, tmp_path / "out")
    assert status == 1
    manifest = read_manifest(tmp_path / "out")
    positivity = [c for c in manifest["checks"] if c["name"] == "positivity"]
    assert len(positivity) == 1 and positivity[0]["passed"] is False


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("HAGEDORN_OUT_DIR", str(target))
    assert main(["run", "--preset", "squeezed-metric"]) == 0
    assert (target / "manifest.json").exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hagedorn.cli", "presets", "list"],
        capture_output=True,
        text=True,
        # the child sees the package wherever this process found it
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert "swanson-fig1" in proc.stdout
