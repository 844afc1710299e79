"""Outside-in tracing of ``bargmann_lab``: spans around its public functions.

Nothing under ``src/`` is changed.  :meth:`Tracer.install` replaces each
public function of each package module by a timing wrapper at every binding
in the package (``suites`` and ``cli`` import many functions by name, so
patching the defining module alone would miss their calls), plus a few
public methods.  The per-node ``phasecore`` functions are only counted:
a span around each of their ~10^6 calls would dominate the run.

A span is ``(name, start, end, parent, op)``; spans stay in memory and are
written out by :meth:`Tracer.write_spans` when the run ends.  Self time is a
span's duration minus the durations of its direct child spans.  The tracing
overhead is estimated from the tracer's own cost: the spans and counted
calls of the run times what one wrapper adds to a call (``wrapper_costs``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "gaussalg", "phasecore", "bargmann", "hermite", "ncho",
    "ellipse", "toeplitz", "suites", "cli",
)

# Per-node scalar evaluations: counted under phasecore.scalar_calls, not spanned.
SCALAR = {"phasecore.phi_phase", "phasecore.weight_Phi", "phasecore.kernel_Psi"}

# Public methods spanned in addition to module-level functions, as
# (module, class, method, span name).
METHODS = (
    ("gaussalg", "ComplexPoly", "__mul__", "gaussalg.poly_mul"),
    ("hermite", "HermiteSystem", "hermite_phi", "hermite.hermite_phi"),
    ("hermite", "HermiteSystem", "rodrigues_phi", "hermite.rodrigues_phi"),
    ("hermite", "HermiteSystem", "monomial_basis", "hermite.monomial_basis"),
    ("hermite", "HermiteSystem", "eigen_residual", "hermite.eigen_residual"),
    ("hermite", "HermiteSystem", "gram_matrix", "hermite.gram_matrix"),
)

GRID_BUILDERS = frozenset(
    ("bargmann.line_grid", "bargmann.plane_grid", "bargmann.hphi_grid", "bargmann.polar_grid")
)
KERNELS = frozenset(
    (
        "bargmann.inner_product_HPhi", "bargmann.projector_apply",
        "bargmann.adjoint_quad", "bargmann.transform_quad",
    )
)
# Every call of these performs exactly one weighted sum over a grid.
QUAD_SUMS = KERNELS | {"toeplitz.toeplitz_matrix_quad", "toeplitz.symbol_convolve"}

SUITES = ("all", "gaussint", "hermite", "transform", "ncho", "ellipse", "bridge", "toeplitz")


def _grid_nodes(grid) -> int:
    return len(grid.weights)


class Tracer:
    """Span and count recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []  # frames [span index, name, child seconds]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op = -1
        self.spanned: set = set()  # names of every installed span wrapper
        self._last_grid_nodes = 0
        self._hooks = self._counting_hooks()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding in the package."""
        for short in MODULES:
            mod = importlib.import_module(f"bargmann_lab.{short}")
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for attr in names:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in SCALAR:
                    wrapper = self._counted(name, fn)
                else:
                    wrapper = self._spanned(name, fn)
                _rebind(fn, wrapper)
        for short, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"bargmann_lab.{short}"), cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._spanned(name, fn))
        # hermgauss is numpy's: count it at the package's binding and at the
        # attribute ``hermite`` looks up through ``np.polynomial.hermite``.
        import numpy.polynomial.hermite as nph

        original = nph.hermgauss
        wrapper = self._counted("bargmann.hermgauss", original)
        _rebind(original, wrapper)
        nph.hermgauss = wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts[name] += 0  # listed in the table even if never called

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter
        hook = self._hooks.get(name)
        self.spanned.add(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [idx, name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                spans[idx] = (name, t0, t1, parent[0] if parent else -1, self.op)
                calls[name] += 1
                self_s[name] += dur - frame[2]
                total_s[name] += dur
            if hook is not None:
                hook(parent[1] if parent else None, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- counters attached to spans ------------------------------------------

    def _counting_hooks(self) -> dict:
        def grid_built(parent, args, kwargs, grid):
            if parent in GRID_BUILDERS:  # hphi_grid -> plane_grid is one grid
                return
            nodes = _grid_nodes(grid)
            self.counts["bargmann.grids_built"] += 1
            self.counts["bargmann.nodes"] += nodes
            self._last_grid_nodes = nodes

        def toeplitz_quad(parent, args, kwargs, result):
            grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
            nodes = _grid_nodes(grid) if grid is not None else self._last_grid_nodes
            self.counts["toeplitz.nodes"] += nodes

        hooks = {name: grid_built for name in GRID_BUILDERS}
        hooks["toeplitz.toeplitz_matrix_quad"] = toeplitz_quad
        return hooks

    # -- results ------------------------------------------------------------

    def table(self) -> dict[str, float]:
        """Every per-function and per-module figure, by metric name."""
        out: dict[str, float] = {}
        modules: defaultdict = defaultdict(lambda: [0, 0.0])
        for name in sorted(self.spanned):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.total_s"] = self.total_s[name]
            mod = name.split(".")[0]
            modules[mod][0] += self.calls[name]
            modules[mod][1] += self.self_s[name]
        for short in MODULES:
            calls, self_s = modules.get(short, (0, 0.0))
            out[f"{short}.calls"] = calls
            out[f"{short}.self_s"] = self_s
        for name in SCALAR:
            out[f"{name}.calls"] = self.counts[name]
        out["phasecore.scalar_calls"] = sum(self.counts[n] for n in SCALAR)
        out["bargmann.hermgauss_calls"] = self.counts["bargmann.hermgauss"]
        for key in ("bargmann.grids_built", "bargmann.nodes", "toeplitz.nodes"):
            out[key] = self.counts[key]
        out["bargmann.grid_build_s"] = sum(self.self_s[n] for n in GRID_BUILDERS)
        out["bargmann.kernel_s"] = sum(self.self_s[n] for n in KERNELS)
        sums = sum(self.calls[n] for n in QUAD_SUMS)
        out["bargmann.quad_sums"] = sums
        built = self.counts["bargmann.grids_built"]
        out["bargmann.grid_reuse"] = sums / built if built else 0.0
        for suite in SUITES:
            out[f"suites.{suite}.total_s"] = self.total_s[f"suites.suite_{suite}"]
        out["trace.spans"] = len(self.spans)
        counted = sum(self.counts[n] for n in SCALAR) + self.counts["bargmann.hermgauss"]
        span_cost, count_cost = wrapper_costs()
        out["trace.overhead_s"] = len(self.spans) * span_cost + counted * count_cost
        return out

    def write_spans(self, path) -> None:
        """Write ``name,start,end,parent,op`` rows, gzip-compressed CSV."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{op}\n")


def wrapper_costs(calls: int = 10000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one span wrapper and one counting wrapper add to a call.

    Each is the least, over ``repeats``, of the time of ``calls`` wrapped
    calls of a no-op function minus that of ``calls`` bare calls, per call.
    A throwaway ``Tracer`` holds what the wrappers record.
    """

    def noop():
        return None

    probe = Tracer()
    spanned = probe._spanned("probe.span", noop)
    counted = probe._counted("probe.count", noop)

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best / calls

    bare = per_call(noop)
    return max(per_call(spanned) - bare, 0.0), max(per_call(counted) - bare, 0.0)


def _rebind(original, replacement) -> None:
    """Replace ``original`` at every module-level binding in the package."""
    for mod in list(sys.modules.values()):
        mod_name = getattr(mod, "__name__", "")
        if mod_name != "bargmann_lab" and not mod_name.startswith("bargmann_lab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
