"""Plane and polar grids kept as their axes.

Their nodes and outer shells are formed chunk by chunk from per-axis
arrays; here they are checked, bit for bit, against the whole-grid formulas
the grids were once built with, and the shells against their definition on
every grid of the certification battery.  Grids made from their nodes,
``QuadGrid(nodes, weights)``, hold them as before.
"""

import math
import tracemalloc

import numpy as np
import pytest

from bargmann_lab import bargmann, suites
from bargmann_lab.bargmann import (
    QuadGrid,
    hphi_grid,
    line_grid,
    plane_grid,
    polar_grid,
    transform,
)
from bargmann_lab.ellipse import derived_constants, psi_n
from bargmann_lab.gaussalg import DomainError
from bargmann_lab.hermite import HermiteSystem
from bargmann_lab.phasecore import PhaseParams, canonical_A

GENERAL = PhaseParams(canonical_A(3.0, 1 + 2j), 3.0, 1 + 2j, 0.5)


def _real_exponent(z):
    x, y = z.real, z.imag
    return -0.5 * x * x + 0.25 * x * y - 0.25 * y * y + 0.5 * x - 0.25 * y


def _complex_exponent(z):
    x, y = z.real, z.imag
    real = -0.8 * x * x + 0.3 * x * y - 0.4 * y * y + 0.2 * x
    return real + 1j * (0.9 * x * y + 0.5 * x * x - 0.3 * y * y + 0.7 * y)


_U3 = transform(GENERAL, HermiteSystem(GENERAL).hermite_phi(3))


def _eager_plane(exponent, n):
    """Nodes and weights of ``plane_grid(exponent, n)`` over the whole grid
    at once, from the meshgrid of its axes."""
    samples = bargmann._samples(exponent)
    M, L, _ = bargmann._fit_quad_2d([v.real for v in samples])
    evals, evecs = np.linalg.eigh(M)
    center = np.linalg.solve(2.0 * M, -L)
    t, ew = bargmann._hermite_rule(n)
    s1, s2 = 1.0 / math.sqrt(-evals[0]), 1.0 / math.sqrt(-evals[1])
    scale, dirs = (s1, s2), evecs
    M_im = bargmann._fit_quad_2d([v.imag for v in samples])[0]
    if M_im.any():
        frame = evecs * [s1, s2]
        scale, dirs = (1.0, 1.0), frame @ np.linalg.eigh(frame.T @ M_im @ frame)[1]
    t1, t2 = np.meshgrid(t * scale[0], t * scale[1], indexing="ij")
    x = (center[0] + t1 * dirs[0, 0]) + t2 * dirs[0, 1]
    y = (center[1] + t1 * dirs[1, 0]) + t2 * dirs[1, 1]
    return (x + 1j * y).reshape(-1), (np.outer(ew, ew) * (s1 * s2)).reshape(-1)


def _eager_polar(r_max, split, n_r=400, n_theta=128):
    """Nodes and weights of ``polar_grid`` from the meshgrid of its axes."""
    t, w = bargmann._legendre_rule(n_r)
    breaks = [0.0, r_max] if split is None else [0.0, split, r_max]
    r = np.concatenate([(b - a) / 2.0 * t + (b + a) / 2.0 for a, b in zip(breaks, breaks[1:])])
    wr = np.concatenate([(b - a) / 2.0 * w for a, b in zip(breaks, breaks[1:])]) * r
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    nodes = (rr * np.cos(tt) + 1j * (rr * np.sin(tt))).reshape(-1)
    return nodes, np.repeat(wr * (2.0 * math.pi / n_theta), n_theta)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _defined_shell(nodes):
    r = np.abs(nodes - nodes.mean())
    return r >= 0.95 * r.max()


CASES = {
    "plane, real exponent": (
        lambda: plane_grid(_real_exponent),
        lambda: _eager_plane(_real_exponent, 160),
    ),
    "plane, complex exponent": (
        lambda: plane_grid(_complex_exponent, n=97),
        lambda: _eager_plane(_complex_exponent, 97),
    ),
    "plane, transform pair": (
        lambda: hphi_grid(GENERAL, _U3, _U3),
        lambda: _eager_plane(lambda z: bargmann._pair_exponent(GENERAL, _U3, _U3, z), 160),
    ),
    "polar, split": (lambda: polar_grid(7.5, split_at=2.5), lambda: _eager_polar(7.5, 2.5)),
    "polar, no split": (lambda: polar_grid(9.0), lambda: _eager_polar(9.0, None)),
}


def _unformed(grid):
    """Whether none of the grid's whole-grid arrays has been formed."""
    return not {"nodes", "weights", "shell"} & set(vars(grid))


@pytest.mark.parametrize("build,eager", CASES.values(), ids=CASES)
def test_tensor_grids_form_the_nodes_of_the_whole_grid_formulas_bit_for_bit(build, eager):
    grid = build()
    nodes, weights = eager()
    assert _unformed(grid)  # nothing per node until asked for
    assert _same_bits(grid.weights, weights)
    assert "nodes" not in vars(grid)  # the weights are formed on their own
    assert _same_bits(grid.nodes, nodes)
    assert _same_bits(grid.shell, _defined_shell(nodes))
    # and chunk by chunk, as the sums form them, across rows cut by a chunk
    for part, z, w, on in grid.chunks():
        assert _same_bits(z, nodes[part])
        assert _same_bits(w, weights[part])
        assert _same_bits(on, grid.shell[part])


@pytest.mark.parametrize("build", [
    *(build for build, _ in CASES.values()),
    lambda: line_grid(lambda x: -x * x, 300),
    lambda: QuadGrid(np.linspace(-3, 3, 20_000) * (1 + 0.5j), np.full(20_000, 1e-3)),
], ids=[*CASES, "line", "hand-built"])
def test_chunks_cover_the_nodes_in_order_bit_for_bit(build):
    grid = build()
    parts = []
    for part, z, w, on in grid.chunks():
        assert part.stop - part.start <= bargmann._CHUNK
        assert _same_bits(z, grid.nodes[part])
        assert _same_bits(w, grid.weights[part])
        assert _same_bits(on, grid.shell[part])
        parts.append(part)
    starts = [0, *(part.stop for part in parts)]
    assert [part.start for part in parts] == starts[:-1]
    assert starts[-1] == grid.size == grid.weights.size


def _recording_grids(monkeypatch) -> list:
    """The grids built from now on, in order."""
    grids = []
    of = QuadGrid._of.__func__

    def recording(cls, *form, **options):
        grids.append(of(cls, *form, **options))
        return grids[-1]

    monkeypatch.setattr(QuadGrid, "_of", classmethod(recording))
    return grids


def test_shells_are_their_definition_on_every_grid_of_the_battery(monkeypatch):
    grids = _recording_grids(monkeypatch)
    assert all(c["pass"] for c in suites.suite_all())
    plane = [g.steps is not None for g in grids]
    polar = [g.join is np.multiply for g in grids]
    assert (sum(plane), sum(polar)) == (133, 6)
    assert len(grids) - 139 > 0  # the line grids
    for grid in grids:
        assert np.array_equal(grid.shell, _defined_shell(grid.nodes))


def test_per_axis_factors_are_the_exponential_on_every_node(monkeypatch):
    # the kernels hand _fitted_factors, unchecked, the exponent they fitted
    # its grid to: on every grid of the five transform suites and an
    # ellipse Gram, a_i b_j is e^E node by node, to
    # 1e-13 relative times 1 + |E| (each side rounds an exponent of size |E|;
    # E reaches about 620 in magnitude on these grids) and to 1e-13 of the
    # grid's largest e^E
    calls = []
    fitted = bargmann._fitted_factors

    def recording(grid, exponent):
        calls.append((grid, exponent, fitted(grid, exponent)))
        return calls[-1][2]

    monkeypatch.setattr(bargmann, "_fitted_factors", recording)
    for B, C, h in suites.HERMITE_PARAM_SETS:
        suites.suite_transform(B, C, h)
    suites.ellipse_gram(2.0, 1.0, 7)
    assert len(calls) == 131
    for grid, exponent, (a, b) in calls:
        E = np.atleast_2d(exponent(grid.nodes))  # the projector's: one row per point
        want = np.exp(E)
        pairs = zip(np.atleast_2d(a), np.atleast_2d(b))
        got = np.array([bargmann._outer(np.multiply, *ab, 0, grid.size) for ab in pairs])
        error = np.abs(got - want)
        assert (error <= 1e-13 * (1 + np.abs(E)) * np.abs(want)).all()
        assert (error <= 1e-13 * np.abs(want).max(axis=-1, keepdims=True)).all()


def _built(build):
    """A grid from ``build()`` and the peak of the memory its build traced."""
    build()  # the first build of a size fills the Gauss rule cache
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [
    lambda: polar_grid(9.0, split_at=3.0),
    lambda: plane_grid(_complex_exponent),
], ids=["polar", "plane"])
def test_grids_allocate_nothing_per_node(build):
    grid, peak = _built(build)
    # one bool per node is the smallest array with one entry per node
    assert peak < grid.size, peak
    assert _unformed(grid)


def test_a_line_grid_allocates_nothing_per_node_but_its_one_axis():
    # its one axis is its nodes; beside it, less than one byte more per node
    (small, low), (large, high) = (_built(lambda: line_grid(lambda x: -x * x, n)) for n in (100, 700))
    assert high - low - (large.first.nbytes - small.first.nbytes) < large.size - small.size
    assert _unformed(large)


def test_sums_leave_the_whole_grid_arrays_unformed(monkeypatch):
    p = PhaseParams.classic()
    fs = [psi_n(derived_constants(2.0, 1.0), k) for k in range(8)]
    grids = _recording_grids(monkeypatch)
    bargmann.gram_HPhi(p, fs)
    grid = plane_grid(_complex_exponent)
    bargmann._quad_block(grid, lambda z: [np.exp(-abs(z) ** 2)], lambda z: [1.0])
    assert len(grids) == 2 and all(map(_unformed, grids))


def test_a_node_sum_holds_few_chunk_arrays_at_once():
    # the exponential factor and the weights multiply the rows in place, and
    # a chunk's moduli are freed before the next chunk's rows are formed: a
    # 7 x 7 Gram block peaks under 3 complex arrays of 7 rows by one chunk
    # (2.66; 3.31 when each product was a new array)
    fs = [psi_n(derived_constants(2.0, 0.0), k) for k in range(7)]
    p = PhaseParams.classic()
    grid = hphi_grid(p, fs[0], fs[0])
    bargmann.gram_HPhi(p, fs)  # the first sum of a size fills the Gauss rule cache
    tracemalloc.start()
    try:
        bargmann._pair_block(p, fs, fs, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(fs) * bargmann._CHUNK * 16, peak


@pytest.mark.parametrize("build", [
    lambda: plane_grid(_complex_exponent),
    lambda: polar_grid(9.0, split_at=3.0),
], ids=["plane", "polar"])
def test_sums_on_a_tensor_grid_are_the_sums_on_its_nodes_bit_for_bit(build):
    grid = build()
    copy = QuadGrid(grid.nodes, grid.weights)

    def rows(z):
        return [np.exp(-abs(z) ** 2), z * np.exp(-0.8 * abs(z) ** 2)]

    def cols(z):
        return [1.5, np.exp(-0.2 * abs(z) ** 2 + 0.5j * z.real)]

    def one(z):
        return [1.0]

    for got, want in (
        (bargmann._quad_block(grid, rows, one), bargmann._quad_block(copy, rows, one)),
        (bargmann._quad_block(grid, rows, cols), bargmann._quad_block(copy, rows, cols)),
        (bargmann._quad_block(grid, rows, None), bargmann._quad_block(copy, rows, None)),
    ):
        assert _same_bits(got, want)


def test_hand_built_grids_hold_copies_of_their_nodes():
    nodes = np.array([0.0, 1.0, -2.0, 3.5, 0.25])
    weights = np.array([1.0, 2.0, 0.5, 1.0, 0.75])
    grid = QuadGrid(nodes, weights)
    nodes[0], weights[0] = 9.0, 9.0
    assert grid.nodes.tolist() == [0.0, 1.0, -2.0, 3.5, 0.25]
    assert grid.weights.tolist() == [1.0, 2.0, 0.5, 1.0, 0.75]
    assert grid.shell.tolist() == _defined_shell(grid.nodes).tolist() == [
        False, False, False, True, False,
    ]
    assert grid.steps is None and grid.join is np.add
    for arr in (grid.nodes, grid.weights, grid.shell):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        grid.weights = weights
    with pytest.raises(DomainError, match="equal length"):
        QuadGrid(nodes, weights[:3])
    with pytest.raises(DomainError, match="positive"):
        QuadGrid(nodes, -weights)
    # a hand-built grid's sums are the plain per-node sums
    got = bargmann._quad_block(grid, lambda x: [np.exp(-8 * x * x)], lambda x: [1.0])[0, 0]
    want = sum(w * math.exp(-8 * x * x) for x, w in zip(grid.nodes.tolist(), grid.weights.tolist()))
    assert got == pytest.approx(want, rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_largest_hermite_rule_builds_warning_free():
    n = bargmann._HERMITE_MAX
    t, w = bargmann._hermite_rule(n)
    assert t.size == w.size == n and np.isfinite(w).all() and (w > 0).all()
    # it integrates e^{-t^2} and t^2 e^{-t^2} to round-off
    e = np.exp(-t * t)
    assert (w * e).sum() == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert (w * e * t * t).sum() == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build", [
    lambda n: bargmann._hermite_rule(n),
    lambda n: line_grid(lambda x: -x * x, n=n),
    lambda n: plane_grid(lambda z: -abs(z) ** 2, n=n),
], ids=["rule", "line", "plane"])
def test_a_hermite_rule_above_the_bound_is_a_domain_error_naming_n(build):
    for n in (bargmann._HERMITE_MAX + 1, 780):
        with pytest.raises(DomainError, match=f"^n = {n} exceeds"):
            build(n)
