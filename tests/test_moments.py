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
the node sum.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from bargmann_lab import bargmann, suites
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
from bargmann_lab.phasecore import PhaseParams, canonical_A, kernel_Psi, phi_phase, weight_Phi

SETS = [PhaseParams(canonical_A(B, C), B, C, h) for B, C, h in suites.HERMITE_PARAM_SETS]
GENERAL = SETS[1]  # (3, 1+2i, 0.5)
TOL = 1e-13


def _adjoint_exponent(p, U, x):
    def exponent(z):
        phase = -1j * phi_phase(p, z, x).conjugate() / p.h
        return phase + U.c2 * z * z + U.c1 * z - 2.0 * weight_Phi(p, z) / p.h

    return exponent


def _projector_exponent(p, U, z):
    def exponent(zs):
        weighted = U.c2 * zs * zs + U.c1 * zs - 2.0 * weight_Phi(p, zs) / p.h
        return weighted + 2.0 * kernel_Psi(p, z, zs.conjugate()) / p.h

    return exponent


def _projector_grid(p, U):
    return plane_grid(_projector_exponent(p, U, 0j))


def _projector_factors(grid, exponent):
    axes = grid.axes
    return bargmann._axis_factors(
        exponent(axes.along1), exponent(axes.along2), exponent(axes.center)
    )


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
    rng = np.random.default_rng(draw)
    f, g = suites._random_line_function(rng), suites._random_line_function(rng)  # degree <= 3
    U, V = transform(p, f), transform(p, g)

    # the weighted inner product, on the grid fitted to the pair
    exponent = functools.partial(bargmann._pair_exponent, p, U, V)
    grid = hphi_grid(p, U, V)
    assert bargmann._moment_sum(grid, bargmann._fitted_factors(grid, exponent), U, V) is not None
    node = bargmann._pair_block(p, [U], [V], grid)[0, 0]
    assert abs(inner_product_HPhi(p, U, V) - node) <= TOL * abs(node)

    # the adjoint at a point of the line, on the grid fitted to its exponent
    x = rng.uniform(-2, 2)
    exponent = _adjoint_exponent(p, U, x)
    grid = plane_grid(exponent)
    assert bargmann._moment_sum(grid, bargmann._fitted_factors(grid, exponent), U) is not None
    node = p.C_phi * p.h ** (-0.75) * bargmann._quad_block(
        grid, lambda z: [U.hermite_sum(z)], lambda z: [1.0], exponent
    )[0, 0]
    assert abs(adjoint_quad(p, U, x) - node) <= TOL * abs(node)

    # the projector at four points, on the grid fitted to its exponent at 0
    points = [complex(*rng.uniform(-1.5, 1.5, size=2)) for _ in range(4)]
    exponents = [_projector_exponent(p, U, z) for z in points]
    grid = _projector_grid(p, U)
    nodes = _projector_node_sums(grid, U, exponents)
    for z, e, got, node in zip(points, exponents, projector_apply(p, U, points), nodes):
        assert bargmann._moment_sum(grid, _projector_factors(grid, e), U) is not None
        mass = _mass(grid, lambda zs: U.hermite_sum(zs) * np.exp(e(zs)))
        assert abs(got - p.C_Phi / p.h * node) <= TOL * p.C_Phi / p.h * mass


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
    _coarse(monkeypatch)

    exponent = functools.partial(bargmann._pair_exponent, p, U, V)
    grid = hphi_grid(p, U, V)
    assert grid.weights.size == 64
    assert bargmann._moment_sum(grid, bargmann._fitted_factors(grid, exponent), U, V) is None
    with pytest.raises(TruncationError) as node:
        bargmann._pair_block(p, [U], [V], grid)
    with pytest.raises(TruncationError) as public:
        inner_product_HPhi(p, U, V)
    assert str(public.value) == str(node.value)

    exponent = _adjoint_exponent(p, U, 0.3)
    grid = bargmann.plane_grid(exponent)
    assert bargmann._moment_sum(grid, bargmann._fitted_factors(grid, exponent), U) is None
    with pytest.raises(TruncationError) as node:
        bargmann._quad_block(grid, lambda z: [U.hermite_sum(z)], lambda z: [1.0], exponent)
    with pytest.raises(TruncationError) as public:
        adjoint_quad(p, U, 0.3)
    assert str(public.value) == str(node.value)

    z = 0.2 + 0.1j
    grid = bargmann.plane_grid(_projector_exponent(p, U, 0j))
    exponent = _projector_exponent(p, U, z)
    assert bargmann._moment_sum(grid, _projector_factors(grid, exponent), U) is None
    with pytest.raises(TruncationError) as node:
        _projector_node_sums(grid, U, [exponent])
    with pytest.raises(TruncationError) as public:
        projector_apply(p, U, [z])
    assert str(public.value) == str(node.value)


def test_a_moment_that_is_not_finite_falls_back_to_the_node_sum(monkeypatch):
    p = GENERAL
    hs = HermiteSystem(p)
    U = transform(p, hs.hermite_phi(2))
    grid = _projector_grid(p, U)
    a, b = _projector_factors(grid, _projector_exponent(p, U, 0.1))
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
    # point alone is summed over the nodes, the other by its moments
    blocks = []
    quad_block = bargmann._quad_block

    def recording(grid, rows, cols, exponent=None):
        blocks.append(len(cols(grid.nodes[:1])))
        return quad_block(grid, rows, cols, exponent)

    monkeypatch.setattr(bargmann, "_quad_block", recording)
    far, near = 40.0, 0.1
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = _projector_factors(grid, _projector_exponent(p, U, far))
        assert not np.isfinite(a).all()
        got = projector_apply(p, U, [far, near])
        want = _projector_node_sums(grid, U, [_projector_exponent(p, U, far)])[0]
    assert blocks == [1, 1]  # the projector's one node sum, then the reference's
    assert repr(got[0]) == repr(p.C_Phi / p.h * complex(want))
    assert repr(got[1]) == repr(projector_apply(p, U, [near])[0])
    assert blocks == [1, 1]


def test_high_degree_and_foreign_functions_take_the_node_sum():
    # above degree 6, or for a U that only has the projector's duck type
    p = GENERAL
    hs = HermiteSystem(p)
    U0 = transform(p, hs.hermite_phi(0))
    grid = _projector_grid(p, U0)
    factors = _projector_factors(grid, _projector_exponent(p, U0, 0.1))
    U, V = transform(p, hs.hermite_phi(3)), transform(p, hs.hermite_phi(4))
    assert bargmann._moment_sum(grid, factors, U) is not None
    assert bargmann._moment_sum(grid, factors, U, transform(p, hs.hermite_phi(3))) is not None
    assert bargmann._moment_sum(grid, factors, U, V) is None
    assert bargmann._moment_sum(grid, factors, transform(p, hs.hermite_phi(7))) is None
    conj = SimpleNamespace(hermite_sum=np.conjugate, c2=0j, c1=0j)
    assert bargmann._moment_sum(grid, factors, conj) is None
