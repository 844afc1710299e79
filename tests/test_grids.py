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


@pytest.mark.parametrize("build,eager", CASES.values(), ids=CASES)
def test_tensor_grids_form_the_nodes_of_the_whole_grid_formulas_bit_for_bit(build, eager):
    grid = build()
    nodes, weights = eager()
    assert "_arrays" not in vars(grid)  # nothing per node until asked for
    assert _same_bits(grid.weights, weights)
    assert _same_bits(grid.nodes, nodes)
    assert _same_bits(grid.shell, _defined_shell(nodes))
    # and chunk by chunk, as the sums form them, across rows cut by a chunk
    for start in range(0, nodes.size, bargmann._CHUNK):
        stop = min(start + bargmann._CHUNK, nodes.size)
        z, on = grid._chunk(start, stop)
        assert _same_bits(z, nodes[start:stop])
        assert _same_bits(on, grid.shell[start:stop])


def test_shells_are_their_definition_on_every_grid_of_the_battery(monkeypatch):
    grids = []
    tensor = QuadGrid._tensor.__func__

    def recording(cls, *args):
        grids.append(tensor(cls, *args))
        return grids[-1]

    monkeypatch.setattr(QuadGrid, "_tensor", classmethod(recording))
    assert all(c["pass"] for c in suites.suite_all())
    kinds = [type(g.axes).__name__ for g in grids]
    assert (kinds.count("PlaneAxes"), kinds.count("PolarAxes")) == (133, 6)
    for grid in grids:
        assert np.array_equal(grid.shell, _defined_shell(grid.nodes))


@pytest.mark.parametrize("build", [
    lambda: polar_grid(9.0, split_at=3.0),
    lambda: plane_grid(_complex_exponent),
], ids=["polar", "plane"])
def test_grids_allocate_nothing_per_node_but_their_weights(build):
    build()  # the first build of a size fills the Gauss rule cache
    tracemalloc.start()
    try:
        grid = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one bool per node is the smallest array with one entry per node
    assert peak - grid.weights.nbytes < grid.weights.size


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

    for got, want in (
        (bargmann._quad_block(grid, rows), bargmann._quad_block(copy, rows)),
        (bargmann._quad_block(grid, rows, cols), bargmann._quad_block(copy, rows, cols)),
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
    assert grid.axes is None
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
    got = bargmann._quad_block(grid, lambda x: [np.exp(-8 * x * x)])[0]
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
