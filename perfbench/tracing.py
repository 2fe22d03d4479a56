"""Spans and counters around the calls into each hagedorn layer.

`Tracer.install()` rebinds module and class attributes of the package to
wrappers; `Tracer.uninstall()` puts the originals back.  A wrapper records a
span [name, start, end, parent, tag] while the tracer is active, passes the
result and any exception through unchanged, and adds solver counts taken
from the wrapped call's return value.  Nothing under src/ is edited, so only
calls that go through a rebound attribute are seen: a call from inside a
module to its own function is seen when that module's attribute is rebound.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from pathlib import Path

from hagedorn import cli, gridsolver, polynomials, propagation, swanson, symplectic, wavepackets


def _ode_counts(counts, result, args, kwargs):
    counts["propagation.ode.nfev"] += result.nfev
    counts["propagation.ode.steps"] += len(result.t) - 1


def _states(counts, result, args, kwargs):
    counts["propagation.states"] += len(result)


def _terms(counts, result, args, kwargs):
    counts["polynomials.terms"] += len(result.coeffs)


def _grid_points(counts, result, args, kwargs):
    counts["wavepackets.grid_points"] += result.size


def _halvings(counts, result, args, kwargs):
    counts["gridsolver.halvings"] += result.halvings


def _cn_step(counts, result, args, kwargs):
    # Computed, not measured: one Crank–Nicolson step streams the N×N LU
    # factors in lu_solve and the N×N explicit matrix in the matvec before it.
    counts["gridsolver.cn_steps"] += 1
    counts["gridsolver.bytes_computed"] += 2 * args[0][0].nbytes


def _artifact_bytes(counts, result, args, kwargs):
    out_dir = Path(args[1])
    counts["cli.artifact_bytes"] += sum(p.stat().st_size for p in out_dir.iterdir())


def _coefficients_tag(args, kwargs):
    state, alpha = args[0], args[1]
    return f"n{state.Z.n}_a{sum(alpha)}"


# (owner, attribute, span name, result hook, tag function)
TIMED = [
    (cli, "run_scenario", "cli.run_scenario", _artifact_bytes, None),
    (cli, "propagate", "propagation.propagate", _states, None),
    (propagation, "propagate", "propagation.propagate", _states, None),
    (propagation, "solve_ivp", "propagation.ode", _ode_counts, None),
    (propagation, "positivity_horizon", "propagation.positivity_horizon", None, None),
    (propagation, "normalise_frame", "symplectic.normalise_frame", None, None),
    (cli, "hagedorn_coefficients", "propagation.hagedorn_coefficients", None, _coefficients_tag),
    (propagation, "hagedorn_coefficients", "propagation.hagedorn_coefficients", None,
     _coefficients_tag),
    (cli, "evolved_state_on_grid", "propagation.evolved_state_on_grid", None, None),
    (propagation, "evolved_state_on_grid", "propagation.evolved_state_on_grid", None, None),
    (propagation, "poly_recursion", "polynomials.poly_recursion", _terms, None),
    (wavepackets, "poly_recursion", "polynomials.poly_recursion", _terms, None),
    (polynomials.MultiPoly, "compose_linear", "polynomials.compose_linear", None, None),
    (polynomials.MultiPoly, "evaluate", "polynomials.evaluate", None, None),
    (propagation, "eval_ground", "wavepackets.eval_ground", _grid_points, None),
    (wavepackets, "eval_ground", "wavepackets.eval_ground", _grid_points, None),
    (cli, "ds_norm", "swanson.ds_norm", None, None),
    (cli, "discretize_hamiltonian", "gridsolver.discretize_hamiltonian", None, None),
    (cli, "propagate_grid", "gridsolver.propagate_grid", _halvings, None),
    (gridsolver, "lu_factor", "gridsolver.lu_factor", None, None),
    (gridsolver, "lu_solve", "gridsolver.lu_solve", _cn_step, None),
]

# called thousands of times per propagation: counted, not timed
COUNTED = [
    (module, "omega", "symplectic.omega")
    for module in (symplectic, propagation, swanson, wavepackets)
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self.counts: dict = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list = []
        self._active = False

    @contextlib.contextmanager
    def active(self):
        self._active = True
        try:
            yield
        finally:
            self._active = False

    def install(self) -> "Tracer":
        for owner, attr, name, hook, tag in TIMED:
            self._rebind(owner, attr, self._timed(getattr(owner, attr), name, hook, tag))
        for owner, attr, name in COUNTED:
            self._rebind(owner, attr, self._counted(getattr(owner, attr), name))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._active:
                tracer.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, name, hook, tag):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tag(args, kwargs) if tag else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counts, result, args, kwargs)
            return result

        return wrapper

    def summary(self) -> dict:
        """{name: {"calls", "s", "self_s"}}; self time excludes wrapped children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def tagged(self, name: str) -> dict:
        """{tag: (calls, seconds)} for the spans of one name."""
        out: dict = {}
        for span_name, start, end, _, tag in self.spans:
            if span_name == name:
                calls, total = out.get(tag, (0, 0.0))
                out[tag] = (calls + 1, total + end - start)
        return out
