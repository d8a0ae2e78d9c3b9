"""Spans around the calls into each sdnop module, recorded from outside.

The library has no instrumentation of its own, so the tracer swaps each
public function listed in ``WRAPPED`` for a timing wrapper at the place
where its caller looks it up (``sdnop.solver.newton_matrix_element`` is
the name ``inner_minimize`` resolves, ``numpy.linalg.eigh`` the one
``spectral.eig_sym`` resolves) and restores the originals afterwards.
For the same reason the workloads call sdnop through module attributes
(``solver.alm_solve``), never through names bound at import time.

Each span keeps its name, layer, parent span and a note read from the
call's result.  A layer's self time is its spans' duration minus the
time covered by their child spans.  Spans stay in memory; ``dump``
writes them out when the benchmark ends.
"""

import importlib
import json
from contextlib import contextmanager
from time import perf_counter


def _note_inner(tracer, args, out, exc):
    stats = out[1] if exc is None else getattr(exc, "stats", None)
    if stats is None:
        return (0, 0)
    return (stats.shifted_steps, stats.steepest_steps)


def _note_grad(tracer, args, out, exc):
    tracer.last_grad_x = args[1]


def _note_value(tracer, args, out, exc):
    # inner_minimize evaluates the value at a point whose gradient it has
    # just computed (the start, or a full step taken on gradient
    # contraction) or at an Armijo trial point that has no gradient yet.
    # Only the second kind is a line-search trial.
    return args[1] is not tracer.last_grad_x


def _note_reduced_dim(tracer, args, out, exc):
    return None if exc is not None else int(out[1].shape[1])


def _note_converged(tracer, args, out, exc):
    return exc is None and bool(out[2])


# (module where the caller looks the name up, attribute, layer, note)
WRAPPED = (
    ("numpy.linalg", "eigh", "spectral", None),
    ("numpy.linalg", "eigvalsh", "spectral", None),
    ("sdnop.problem", "moreau_env", "nuclear", None),
    ("sdnop.problem", "grad_moreau_env", "nuclear", None),
    ("sdnop.problem", "prox_divided_diff", "nuclear", None),
    ("sdnop.problem", "nuclear_norm", "nuclear", None),
    ("sdnop.diagnostics", "subdiff_partition", "nuclear", None),
    ("sdnop.problem", "project_psd", "psd_cone", None),
    ("sdnop.problem", "proj_bsub_element", "psd_cone", None),
    ("sdnop.nuclear", "project_psd", "psd_cone", None),
    ("sdnop.nuclear", "soft_pair_table", "kernels", None),
    ("sdnop.psd_cone", "psd_pair_table", "kernels", None),
    ("sdnop.solver", "newton_matrix_element", "problem", None),
    ("sdnop.solver", "aug_lagrangian_value", "problem", _note_value),
    ("sdnop.solver", "aug_lagrangian_grad", "problem", _note_grad),
    ("sdnop.solver", "multiplier_maps", "problem", None),
    ("sdnop.solver", "kkt_residual", "problem", None),
    ("sdnop.diagnostics", "kkt_residual", "problem", None),
    ("sdnop.diagnostics", "hess_xx_lagrangian", "problem", None),
    ("sdnop.generator", "kkt_residual", "problem", None),
    ("sdnop.problem", "kkt_residual", "problem", None),
    ("sdnop.solver", "alm_solve", "solver", None),
    ("sdnop.diagnostics", "alm_solve", "solver", None),
    ("sdnop.solver", "inner_minimize", "solver", _note_inner),
    ("sdnop.solver", "_newton_direction", "solver", None),
    ("sdnop.diagnostics", "nondegeneracy_check", "diagnostics", None),
    ("sdnop.diagnostics", "strong_sosc_check", "diagnostics", None),
    ("sdnop.diagnostics", "sosc_reduced_matrix", "diagnostics",
     _note_reduced_dim),
    ("sdnop.diagnostics", "rate_sweep", "diagnostics", None),
    ("sdnop.diagnostics", "_sweep_one", "diagnostics", _note_converged),
    ("sdnop.generator", "sosc_reduced_matrix", "diagnostics",
     _note_reduced_dim),
    ("sdnop.generator", "nondegeneracy_check", "diagnostics", None),
    ("sdnop.generator", "generate_instance", "generator", None),
)

class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "note")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.note = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.last_grad_x = None

    def _open(self, name, layer):
        span = Span(name, layer, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, layer="bench"):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, layer, note):
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span)
                if note is not None:
                    span.note = note(self, args, None, exc)
                raise
            self._close(span)
            if note is not None:
                span.note = note(self, args, out, None)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Swap every function in WRAPPED for its traced wrapper."""
        saved = []
        try:
            for modname, attr, layer, note in WRAPPED:
                module = importlib.import_module(modname)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr,
                        self._wrap(fn, f"{layer}.{attr}", layer, note))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self, path):
        rows = [[s.name, s.parent, s.start, s.end] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "parent", "start", "end"],
                       "spans": rows}, fh)


# ----------------------------------------------------------------------------
# reductions over a finished pass
# ----------------------------------------------------------------------------

def count(spans, *names):
    return sum(1 for s in spans if s.name in names)


def _inclusive(spans, *names):
    """Time inside the named spans, counting nested repeats once."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


def self_times(spans):
    """Per-layer duration minus the time covered by child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    out = {}
    for s, c in zip(spans, child):
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - c
    return out


def signature(spans):
    """The exact counts a repeated pass over the same inputs must repeat."""
    sig = {}
    for s in spans:
        sig[s.name, s.note] = sig.get((s.name, s.note), 0) + 1
    return sig


def op_times(spans):
    return [s.duration for s in spans if s.name == "bench.op"]


def generator_metrics(spans):
    """Generator self time and construction attempts per generated instance."""
    gens = count(spans, "generator.generate_instance")
    if gens == 0:
        return {"generator.self_s": 0.0, "generator.attempts": 0.0}
    attempts = sum(
        1 for s in spans
        if s.name == "diagnostics.sosc_reduced_matrix" and s.parent >= 0
        and spans[s.parent].name == "generator.generate_instance")
    return {"generator.self_s": self_times(spans).get("generator", 0.0) / gens,
            "generator.attempts": attempts / gens}


def layer_metrics(spans, ops):
    """Per-operation counts and times of every layer except the generator."""
    selfs = self_times(spans)
    per = 1.0 / ops
    op_total = sum(op_times(spans))
    newton = count(spans, "solver._newton_direction")
    eigh = count(spans, "spectral.eigh", "spectral.eigvalsh")
    trials = sum(1 for s in spans
                 if s.name == "problem.aug_lagrangian_value" and s.note)
    inner = [s.note for s in spans if s.name == "solver.inner_minimize"]
    points = [s for s in spans if s.name == "diagnostics._sweep_one"]
    dims = [s.note for s in spans
            if s.name == "diagnostics.sosc_reduced_matrix"
            and s.note is not None]
    nuclear = ("nuclear.moreau_env", "nuclear.grad_moreau_env",
               "nuclear.prox_divided_diff", "nuclear.nuclear_norm",
               "nuclear.subdiff_partition")
    psd = ("psd_cone.project_psd", "psd_cone.proj_bsub_element")
    kernels = ("kernels.soft_pair_table", "kernels.psd_pair_table")
    al_eval = ("problem.aug_lagrangian_value", "problem.aug_lagrangian_grad")
    return {
        "spectral.eigh_calls": eigh * per,
        "spectral.eigh_s": selfs.get("spectral", 0.0) * per,
        "spectral.eigh_per_newton_step": eigh / newton if newton else 0.0,
        "nuclear.calls": count(spans, *nuclear) * per,
        "nuclear.self_s": selfs.get("nuclear", 0.0) * per,
        "psd_cone.calls": count(spans, *psd) * per,
        "psd_cone.self_s": selfs.get("psd_cone", 0.0) * per,
        "kernels.calls": count(spans, *kernels) * per,
        "kernels.self_s": selfs.get("kernels", 0.0) * per,
        "kernels.share_pct":
            100.0 * selfs.get("kernels", 0.0) / op_total if op_total else 0.0,
        "problem.newton_matrix_calls":
            count(spans, "problem.newton_matrix_element") * per,
        "problem.newton_matrix_s":
            _inclusive(spans, "problem.newton_matrix_element") * per,
        "problem.al_eval_calls": count(spans, *al_eval) * per,
        "problem.al_eval_s": _inclusive(spans, *al_eval) * per,
        "problem.kkt_residual_s":
            _inclusive(spans, "problem.kkt_residual") * per,
        "problem.self_s": selfs.get("problem", 0.0) * per,
        "solver.outer_iterations": len(inner) * per,
        "solver.newton_steps": newton * per,
        "solver.line_search_trials": trials * per,
        "solver.trials_per_newton_step": trials / newton if newton else 0.0,
        "solver.shifted_steps": sum(n[0] for n in inner) * per,
        "solver.steepest_steps": sum(n[1] for n in inner) * per,
        "solver.newton_direction_s":
            _inclusive(spans, "solver._newton_direction") * per,
        "solver.self_s": selfs.get("solver", 0.0) * per,
        "diagnostics.sosc_s": _inclusive(
            spans, "diagnostics.strong_sosc_check",
            "diagnostics.sosc_reduced_matrix") * per,
        "diagnostics.reduced_dim": sum(dims) / len(dims) if dims else 0.0,
        "diagnostics.nondegeneracy_s":
            _inclusive(spans, "diagnostics.nondegeneracy_check") * per,
        "diagnostics.sweep_point_s":
            sum(s.duration for s in points) * per,
        "diagnostics.failed_point_s":
            sum(s.duration for s in points if not s.note) * per,
        "diagnostics.self_s": selfs.get("diagnostics", 0.0) * per,
    }
