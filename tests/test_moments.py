"""Own-grid plane sums by per-axis moments, against the node sums they replace.

On a grid it fits itself, each of ``inner_product_HPhi``, ``adjoint_quad``
and ``projector_apply`` sums a polynomial of degree at most 6 in the axis
coordinates t by per-axis moments (``bargmann._moment_sum``).  The
expansion of the integrand in t is algebra of its own, not the exact
route's, so it is checked here against the node sum of ``_quad_block`` on
the same grid: to 1e-13 of the value for the inner product and the adjoint,
and to 1e-13 of the sum's absolute mass for the projector, whose sums
cancel to about 1e-3 of their mass at (3, 1+2i, 0.5), so that round-off of
the mass is all either route can promise there.  Where the per-axis bounds
do not certify the truncation check, or a moment is not finite, the call is
the node sum with the same per-axis factors (``bargmann._plane_sum``): no
plane sum exponentiates node by node, and the battery's own-grid sums form
no node.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from bargmann_lab import bargmann, cli, suites
from bargmann_lab.bargmann import (
    TruncationError,
    adjoint_quad,
    hphi_grid,
    inner_product_HPhi,
    plane_grid,
    projector_apply,
    transform,
)
from bargmann_lab.hermite import HermiteSystem
from bargmann_lab.phasecore import PhaseParams, canonical_A
from exponent_reference import (
    adjoint_form,
    pair_node_sum,
    projector_exponent,
    projector_forms,
    row,
)

SETS = [PhaseParams(canonical_A(B, C), B, C, h) for B, C, h in suites.HERMITE_PARAM_SETS]
GENERAL = SETS[1]  # (3, 1+2i, 0.5)
TOL = 1e-13


def _projector_grid(p, U, points):
    """The grid ``projector_apply(p, U, points)`` fits, and its column form."""
    at_zero, columns = projector_forms(p, U, points)
    return plane_grid(at_zero), columns


def _projector_node_sums(grid, U, exponents):
    def cols(zs):
        return [np.exp(e(zs)) for e in exponents]

    return bargmann._quad_block(grid, lambda zs: [U.hermite_sum(zs)], cols)[0]


def _mass(grid, integrand):
    """``sum_n w_n |integrand(z_n)|`` over the grid's nodes."""
    return float(np.sum(grid.weights * np.abs(integrand(grid.nodes))))


@seed(21)
@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from(SETS), draw=st.integers(0, 2**32 - 1))
def test_moment_sums_are_the_node_sums_on_the_same_grid(p, draw):
    rng = random.Random(draw)
    f, g = suites._random_line_function(rng), suites._random_line_function(rng)  # degree <= 3
    U, V = transform(p, f), transform(p, g)

    # the weighted inner product, on the grid fitted to the pair
    exponent = bargmann._pair_exponent(p, U, V)
    grid = hphi_grid(p, U, V)
    assert bargmann._moment_sum(grid, bargmann._fitted_factors(grid, exponent), U, V) is not None
    node = pair_node_sum(p, U, V, grid)
    assert abs(inner_product_HPhi(p, U, V) - node) <= TOL * abs(node)

    # the adjoint at a point of the line, on the grid fitted to its exponent
    x = rng.uniform(-2, 2)
    exponent = adjoint_form(p, U, x)
    grid = plane_grid(exponent)
    factors = bargmann._fitted_factors(grid, exponent)
    node = p.C_phi * p.h ** (-0.75) * bargmann._quad_block(
        grid, lambda z: [U.hermite_sum(z)], lambda z: [1.0], factors
    )[0, 0]
    assert bargmann._moment_sum(grid, factors, U) is not None
    assert abs(adjoint_quad(p, U, x) - node) <= TOL * abs(node)

    # the projector at four points, on the grid fitted to its exponent at 0
    points = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(4)]
    grid, columns = _projector_grid(p, U, points)
    exponents = [projector_exponent(p, U, z) for z in points]
    nodes = _projector_node_sums(grid, U, exponents)
    for i, (e, got, node) in enumerate(zip(exponents, projector_apply(p, U, points), nodes)):
        factors = bargmann._fitted_factors(grid, row(columns, i))
        assert bargmann._moment_sum(grid, factors, U) is not None
        mass = _mass(grid, lambda zs: U.hermite_sum(zs) * np.exp(e(zs)))
        assert abs(got - p.C_Phi / p.h * node) <= TOL * p.C_Phi / p.h * mass


def _plane_node_sums(monkeypatch) -> list:
    """The ``factors`` of every ``_quad_block`` call on a plane grid from
    now on, in order."""
    calls = []
    quad_block = bargmann._quad_block

    def recording(grid, rows, cols, factors=None):
        if grid.steps is not None:
            calls.append(factors)
        return quad_block(grid, rows, cols, factors)

    monkeypatch.setattr(bargmann, "_quad_block", recording)
    return calls


def _coarse(monkeypatch):
    """Every plane grid the package fits from here on has 8 nodes per axis."""
    plane = bargmann.plane_grid
    monkeypatch.setattr(bargmann, "plane_grid", lambda exponent, n=160: plane(exponent, 8))


def test_an_uncertified_sum_raises_the_node_sums_truncation_error(monkeypatch):
    # at 8 nodes per axis the node sums leak through the shell: the bounds
    # must not certify them, and each public call raises the node sum's error
    p = GENERAL
    hs = HermiteSystem(p)
    U, V = transform(p, hs.hermite_phi(2)), transform(p, hs.hermite_phi(1))
    z = 0.2 + 0.1j
    adjoint, (at_zero, columns) = adjoint_form(p, U, 0.3), projector_forms(p, U, [z])
    _coarse(monkeypatch)

    exponent = bargmann._pair_exponent(p, U, V)
    grid = hphi_grid(p, U, V)
    assert grid.weights.size == 64
    assert bargmann._moment_sum(grid, bargmann._fitted_factors(grid, exponent), U, V) is None
    with pytest.raises(TruncationError) as node:
        pair_node_sum(p, U, V, grid)
    with pytest.raises(TruncationError) as public:
        inner_product_HPhi(p, U, V)
    assert str(public.value) == str(node.value)

    grid = bargmann.plane_grid(adjoint)
    factors = bargmann._fitted_factors(grid, adjoint)
    assert bargmann._moment_sum(grid, factors, U) is None
    with pytest.raises(TruncationError) as node:
        bargmann._quad_block(grid, lambda z: [U.hermite_sum(z)], lambda z: [1.0], factors)
    with pytest.raises(TruncationError) as public:
        adjoint_quad(p, U, 0.3)
    assert str(public.value) == str(node.value)

    grid = bargmann.plane_grid(at_zero)
    factors = bargmann._fitted_factors(grid, row(columns, 0))
    assert bargmann._moment_sum(grid, factors, U) is None
    with pytest.raises(TruncationError) as node:
        bargmann._quad_block(grid, lambda z: [U.hermite_sum(z)], lambda z: [1.0], factors)
    with pytest.raises(TruncationError) as public:
        projector_apply(p, U, [z])
    assert str(public.value) == str(node.value)


def test_a_moment_that_is_not_finite_falls_back_to_the_node_sum(monkeypatch):
    p = GENERAL
    hs = HermiteSystem(p)
    U = transform(p, hs.hermite_phi(2))
    far, near = 40.0, 0.1
    with np.errstate(over="ignore", invalid="ignore"):  # far out, a factor overflows
        grid, columns = _projector_grid(p, U, [far, near])
    a, b = bargmann._fitted_factors(grid, row(columns, 1))
    for f in (U, transform(p, hs.hermite_phi(0))):
        assert bargmann._moment_sum(grid, (a, b), f) is not None
        for bad in (np.inf, np.nan):
            a_bad = a.copy()
            a_bad[3] = bad
            assert bargmann._moment_sum(grid, (a_bad, b), f) is None
            assert bargmann._moment_sum(grid, (a, b * bad), f) is None
        # every factor and moment finite, but the sum and its total mass
        # overflow while the shell bound does not: only the finiteness of the
        # sum keeps it from being certified
        assert bargmann._moment_sum(grid, (a * 1e156, b * 1e156), f) is None

    # far out, the per-axis factors of the projector's column overflow: that
    # point alone is summed over the nodes, with those factors, the other by
    # its moments
    calls = _plane_node_sums(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = bargmann._fitted_factors(grid, row(columns, 0))
        assert not np.isfinite(a).all()
        got = projector_apply(p, U, [far, near])
        [(a_got, b_got)] = calls
        assert a_got.tobytes() == a.tobytes() and b_got.tobytes() == b.tobytes()
        want = bargmann._quad_block(grid, lambda z: [U.hermite_sum(z)], lambda z: [1.0], (a, b))
    assert repr(got[0]) == repr(p.C_Phi / p.h * complex(want[0, 0]))
    assert repr(got[1]) == repr(projector_apply(p, U, [near])[0])
    assert len(calls) == 2  # the reference's, and no more


def test_high_degree_and_foreign_functions_take_the_node_sum():
    # above degree 6, or for a U that only has the projector's duck type
    p = GENERAL
    hs = HermiteSystem(p)
    U0 = transform(p, hs.hermite_phi(0))
    grid, columns = _projector_grid(p, U0, [0.1])
    factors = bargmann._fitted_factors(grid, row(columns, 0))
    U, V = transform(p, hs.hermite_phi(3)), transform(p, hs.hermite_phi(4))
    assert bargmann._moment_sum(grid, factors, U) is not None
    assert bargmann._moment_sum(grid, factors, U, transform(p, hs.hermite_phi(3))) is not None
    assert bargmann._moment_sum(grid, factors, U, V) is None
    assert bargmann._moment_sum(grid, factors, transform(p, hs.hermite_phi(7))) is None
    conj = SimpleNamespace(hermite_sum=np.conjugate, c2=0j, c1=0j)
    assert bargmann._moment_sum(grid, factors, conj) is None


def test_every_plane_node_sum_takes_per_axis_factors(monkeypatch):
    # the node sums of the three kernels and of gram_HPhi: above degree 6,
    # for the projector's duck-typed U, and where coarse grids leave the
    # moments uncertified
    p = GENERAL
    hs = HermiteSystem(p)
    U7, U2, U1 = (transform(p, hs.hermite_phi(k)) for k in (7, 2, 1))
    conj = SimpleNamespace(hermite_sum=np.conjugate, c2=0j, c1=0j)
    calls = _plane_node_sums(monkeypatch)
    projector_apply(p, conj, [0.9 + 0.4j])
    projector_apply(p, U7, [0.3 + 0.2j, -1.1 + 0.7j])
    adjoint_quad(p, U7, 0.3)
    inner_product_HPhi(p, U7, U1)
    bargmann.gram_HPhi(p, [transform(p, hs.hermite_phi(k)) for k in (6, 7)])
    assert len(calls) == 6
    _coarse(monkeypatch)
    for kernel in (
        lambda: projector_apply(p, U2, [0.2 + 0.1j]),
        lambda: adjoint_quad(p, U2, 0.3),
        lambda: inner_product_HPhi(p, U2, U1),
    ):
        with pytest.raises(TruncationError):
            kernel()
    assert len(calls) == 9
    assert all(factors is not None for factors in calls)


def test_the_battery_own_grid_sums_stay_on_moments(monkeypatch, tmp_path):
    calls = _plane_node_sums(monkeypatch)
    for B, C, h in suites.HERMITE_PARAM_SETS:
        assert all(check["pass"] for check in suites.suite_transform(B, C, h, 2026))
    assert cli.main(["transform", "--format", "json", "-o", str(tmp_path / "t.json")]) == 0
    assert calls == []
