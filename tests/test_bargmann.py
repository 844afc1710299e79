"""Integral transform to the weighted holomorphic space and back.

The closed-form transform is validated against its own quadrature route
(independent code path over adapted Gauss-Hermite grids), the adjoint
inverts it pointwise, and the reproducing projector fixes transformed
functions while moving anti-holomorphic impostors.
"""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from bargmann_lab import bargmann, cli, suites, toeplitz
from bargmann_lab.bargmann import (
    Quadratic,
    adjoint_quad,
    gram_HPhi,
    grid_values,
    hphi_grid,
    inner_product_HPhi,
    line_grid,
    plane_grid,
    polar_grid,
    projector_apply,
    transform,
    transform_quad,
)
from bargmann_lab.ellipse import derived_constants, psi0, psi_n
from bargmann_lab.gaussalg import ComplexPoly, DomainError, HermiteGauss, HoloGauss, inner_product_line
from bargmann_lab.hermite import HermiteSystem
from bargmann_lab.phasecore import PhaseParams, canonical_A, kernel_Psi, phi_phase, weight_Phi
from bargmann_lab.toeplitz import RadialSymbol, toeplitz_matrix_quad
from exponent_reference import (
    adjoint_exponent,
    adjoint_form,
    pair_node_sum,
    projector_exponent,
    projector_forms,
    quadratic_parts,
)
from moment_reference import gaussian_moment

CLASSIC = PhaseParams(0.5j, -1j, 1j, 1.0)
GENERAL = PhaseParams(canonical_A(3.0, 1 + 2j), 3.0, 1 + 2j, 0.5)

REL_CLOSED_VS_QUAD = 1e-8
TOL_PLANE = 1e-6


def _random_line_function(rng):
    deg = int(rng.integers(0, 4))
    coeffs = tuple(complex(*rng.normal(size=2)) for _ in range(deg + 1))
    g2 = complex(-0.4 - rng.uniform(0, 1.2), 0.5 * rng.normal())
    g1 = 0.5 * complex(*rng.normal(size=2))
    return HermiteGauss.from_poly(ComplexPoly(coeffs), g2, g1)


def test_transform_ground_state_is_constant():
    # the matched Gaussian maps to the degree-zero basis element
    for p in (CLASSIC, GENERAL):
        hs = HermiteSystem(p)
        U = transform(p, hs.hermite_phi(0))
        V = hs.monomial_basis(0)
        assert len(U.poly.coeffs) == 1
        assert U.c2 == 0 and U.c1 == 0
        assert abs(U.poly.coeffs[0] - V.poly.coeffs[0]) <= 1e-14


def test_transform_of_zero_is_zero():
    z = HermiteGauss.from_poly(ComplexPoly((0j,)), -0.5 + 0j)
    assert transform(CLASSIC, z).is_zero


def test_transform_closed_form_vs_quadrature():
    rng = np.random.default_rng(21)
    for p in (CLASSIC, GENERAL):
        f = _random_line_function(rng)
        U = transform(p, f)
        for _ in range(10):
            z = complex(*rng.normal(scale=1.0, size=2))
            closed = U(z)
            quadr = transform_quad(p, f, z)
            assert abs(closed - quadr) <= REL_CLOSED_VS_QUAD * max(abs(closed), 1e-6)


def _circle(p, d, k=8):
    # |varphi_d|^2 e^{-2 Phi/h} peaks near |Bz|^2 = 2 h Im C (d + 1)
    r = math.sqrt(2 * p.h * p.C.imag * (d + 1)) / abs(p.B)
    return [cmath.rect(r, 2 * math.pi * (j + 0.25) / k) for j in range(k)]


def _circle_rel_dev(U, V, points):
    return max(abs(U(z) - V(z)) for z in points) / max(abs(V(z)) for z in points)


@pytest.mark.parametrize("d", [32, 40, 63])
@pytest.mark.parametrize("B,C,h", suites.HERMITE_PARAM_SETS)
def test_transform_of_phi_is_the_normalized_monomial_at_high_degree(B, C, h, d):
    hs = HermiteSystem.from_bch(B, C, h)
    p = hs.params
    U, V = transform(p, hs.hermite_phi(d)), hs.monomial_basis(d)
    assert _circle_rel_dev(U, V, _circle(p, d)) <= 1e-13


@pytest.mark.parametrize("d", [40, 64])
@pytest.mark.parametrize("B,C,h", suites.HERMITE_PARAM_SETS)
def test_transform_matches_its_quadrature_at_high_degree(B, C, h, d):
    hs = HermiteSystem.from_bch(B, C, h)
    p, f = hs.params, hs.hermite_phi(d)
    U = transform(p, f)
    points = _circle(p, d)
    dev = max(abs(U(z) - transform_quad(p, f, z)) for z in points)
    assert dev <= 1e-12 * max(abs(U(z)) for z in points)


def test_transform_matches_the_moment_reference_off_the_matched_gaussian():
    # random inputs with a linear exponent, against T f computed term by
    # term from monomial moments (completing the square in the x-integral)
    rng = np.random.default_rng(41)
    for p in (CLASSIC, GENERAL):
        for _ in range(5):
            deg = int(rng.integers(0, 6))
            poly = ComplexPoly(tuple(complex(*rng.normal(size=2)) for _ in range(deg + 1)))
            g2 = complex(-0.4 - rng.uniform(0, 1.2), 0.5 * rng.normal())
            g1 = 0.5 * complex(*rng.normal(size=2))
            U = transform(p, HermiteGauss.from_poly(poly, g2, g1))
            for z in (0.3 - 0.2j, -1.1 + 0.4j):
                a2 = g2 + 1j * p.C / (2 * p.h)
                a1 = g1 + 1j * p.B * z / p.h
                want = sum(c * gaussian_moment(a2, a1, k) for k, c in enumerate(poly.coeffs))
                want *= p.C_phi * p.h ** -0.75 * cmath.exp(1j * p.A * z * z / (2 * p.h))
                assert abs(U(z) - want) <= 1e-12 * abs(want)


def test_adjoint_inverts_transform_pointwise():
    for p in (CLASSIC, GENERAL):
        hs = HermiteSystem(p)
        f = hs.hermite_phi(0)
        U = transform(p, f)
        got = adjoint_quad(p, U, 0.3)
        assert abs(got - f(0.3)) <= 1e-6


def test_adjoint_of_constant_is_matched_gaussian():
    # pulling back the degree-zero basis element lands on
    # (Im C / pi h)^{1/4} exp(-i conj(C) x^2 / 2h)
    for p in (CLASSIC, GENERAL):
        hs = HermiteSystem(p)
        V = hs.monomial_basis(0)
        want = hs.hermite_phi(0)
        for x in (-0.8, 0.0, 0.3, 1.1):
            assert abs(adjoint_quad(p, V, x) - want(x)) <= 1e-6


def test_plane_inner_products_orthonormal():
    hs = HermiteSystem(CLASSIC)
    v0, v1, v2 = (hs.monomial_basis(n) for n in range(3))
    assert abs(inner_product_HPhi(CLASSIC, v0, v0) - 1) <= TOL_PLANE
    assert abs(inner_product_HPhi(CLASSIC, v1, v2)) <= TOL_PLANE


def test_plane_norm_of_ellipse_ground_state():
    # (alpha, beta) = (2, 0) ground state has squared norm 5 pi / 2
    p = derived_constants(2.0, 0.0)
    f = psi0(p)
    got = inner_product_HPhi(CLASSIC, f, f)
    assert abs(got - 5 * math.pi / 2) <= 1e-4 * (5 * math.pi / 2)


def test_unitarity_on_random_pairs():
    rng = np.random.default_rng(33)
    for p in (CLASSIC, GENERAL):
        worst = 0.0
        for _ in range(20):
            f, g = _random_line_function(rng), _random_line_function(rng)
            lhs = inner_product_HPhi(p, transform(p, f), transform(p, g))
            rhs = inner_product_line(f, g)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= TOL_PLANE


def test_projector_reproduces_basis_element():
    hs = HermiteSystem(CLASSIC)
    v2 = hs.monomial_basis(2)
    z = 0.4 - 0.2j
    assert abs(projector_apply(CLASSIC, v2, [z])[0] - v2(z)) <= 1e-6


def test_projector_reproduces_transformed_functions():
    rng = np.random.default_rng(55)
    for p in (CLASSIC, GENERAL):
        U = transform(p, _random_line_function(rng))
        for _ in range(10):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            assert abs(projector_apply(p, U, [z])[0] - U(z)) <= TOL_PLANE


def test_projector_moves_antiholomorphic_function():
    # z -> conj(z) is not in the holomorphic range; the projector must not fix it
    conj = SimpleNamespace(hermite_sum=np.conjugate, c2=0j, c1=0j)
    z = 0.9 + 0.4j
    residual = abs(projector_apply(CLASSIC, conj, [z])[0] - z.conjugate())
    assert residual > 0.1


def test_array_path_matches_per_node_reference(monkeypatch):
    # the array integrands, summed by _quad_block as the kernels' node sums
    # are, against a plain loop over scalar phasecore calls, on small grids
    # fitted to the adjoint's and the projector's exponents
    p = GENERAL
    U = transform(p, HermiteSystem(p).hermite_phi(2))
    x, z = 0.3, 0.4 - 0.2j

    def ref_sum(grid, term):
        nodes, weights = grid.nodes.tolist(), grid.weights.tolist()
        return sum(w * term(zeta) for zeta, w in zip(nodes, weights))

    def adjoint_term(zeta):
        return U(zeta) * cmath.exp(
            -1j * phi_phase(p, zeta, x).conjugate() / p.h - 2 * weight_Phi(p, zeta) / p.h
        )

    def projector_term(zeta):
        return U(zeta) * cmath.exp(
            2 * kernel_Psi(p, z, zeta.conjugate()) / p.h - 2 * weight_Phi(p, zeta) / p.h
        )

    def rows(zs):
        return [U.hermite_sum(zs)]

    exponent = adjoint_form(p, U, x)
    grid = plane_grid(exponent, n=24)
    factors = bargmann._fitted_factors(grid, exponent)
    got = p.C_phi * p.h ** (-0.75) * bargmann._quad_block(grid, rows, lambda zs: [1.0], factors)
    want = p.C_phi * p.h ** (-0.75) * ref_sum(grid, adjoint_term)
    assert got[0, 0] == pytest.approx(want, rel=1e-12)

    # several points on one grid, each with its own per-axis factors: each
    # is the sum of its own per-node reference
    points = [z, -1.1 + 0.7j, 0.05j, 1.4 - 1.3j]
    at_zero, columns = projector_forms(p, U, points)
    grid = plane_grid(at_zero, n=24)
    a, b = bargmann._fitted_factors(grid, columns)
    for z, factors in zip(points, zip(a, b)):
        got = p.C_Phi / p.h * bargmann._quad_block(grid, rows, lambda zs: [1.0], factors)[0, 0]
        want = p.C_Phi / p.h * ref_sum(grid, projector_term)
        assert got == pytest.approx(want, rel=1e-12)
    per_node = [U(zeta) for zeta in grid.nodes.tolist()]
    np.testing.assert_allclose(grid_values(U, grid), per_node, rtol=1e-12, atol=0)

    sym = RadialSymbol.gaussian(0.5)
    polar = polar_grid(9.0, n_r=40, n_theta=16)
    monkeypatch.setattr(toeplitz, "default_toeplitz_grid", lambda sym, max_index: polar)

    def varphi(k, zeta):  # classic normalized monomial
        return zeta**k / math.sqrt(math.pi * 2.0 ** (k + 1) * math.factorial(k))

    for m, n in ((0, 0), (2, 2), (1, 3)):
        want = ref_sum(polar, lambda zeta: sym.c(abs(zeta) ** 2) * varphi(m, zeta)
                       * varphi(n, zeta).conjugate() * math.exp(-abs(zeta) ** 2 / 2))
        got = toeplitz_matrix_quad(sym, m, n)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-3)


def test_quad_block_matches_per_node_reference():
    # 25,600 nodes (as many as a 160 x 160 plane grid): twelve full chunks and
    # 1,024 more.  Spread uniformly over a disk of radius 6, so that the mass
    # of the Gaussian integrands sits in every chunk and a chunk boundary that
    # dropped or doubled a node would show; it is negligible on the rim
    rng = np.random.default_rng(7)
    n = 25_600
    nodes = 6 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * math.pi * rng.uniform(size=n))
    # one axis of nodes; the shell is the rim, |z| >= 0.95 * 6
    grid = bargmann.QuadGrid(nodes, -np.zeros(1, complex), rng.uniform(0.5, 1.5, size=n),
                             np.ones(1), 1.0, 0j, 5.7)
    assert grid.nodes.size // bargmann._CHUNK == 12
    assert grid.nodes.size % bargmann._CHUNK == 1024
    rows = [
        lambda z: np.exp(-2 * abs(z) ** 2),
        lambda z: (1 + z.real**2) * np.exp(-1.5 * abs(z) ** 2 + 1j * z.imag),
    ]
    cols = [
        lambda z: 2.5,  # a number stands for a constant function
        lambda z: np.exp(-0.2 * abs(z) ** 2 - 0.5j * z.real),
        lambda z: (2 - 1j * z.imag) * np.exp(-0.1 * abs(z) ** 2),
    ]
    nodes, weights = grid.nodes.tolist(), grid.weights.tolist()

    def reference(term):
        return sum(w * term(z) for z, w in zip(nodes, weights))

    got = bargmann._quad_block(grid, lambda z: [r(z) for r in rows], lambda z: [1.0])[:, 0]
    want = [reference(r) for r in rows]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    got = bargmann._quad_block(grid, lambda z: [r(z) for r in rows], lambda z: [c(z) for c in cols])
    want = [[reference(lambda z: r(z) * c(z)) for c in cols] for r in rows]
    assert got.shape == (2, 3)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_projector_points_are_independent_sums():
    # each point's sum is the same, bit for bit, whichever points share a
    # call; at degree 7 every point is a node sum, with its own per-axis factors
    p = GENERAL
    U = transform(p, HermiteSystem(p).hermite_phi(7))
    assert len(U.coeffs) - 1 > bargmann._MOMENT_DEGREE
    points = [0.3 - 0.1j, -1.2 + 0.4j, 0.7j, 1.5 + 1.1j]
    together = projector_apply(p, U, points)
    for i, z in enumerate(points):
        assert repr(together[i]) == repr(projector_apply(p, U, [z])[0])
    assert projector_apply(p, U, []) == []


def _per_node_sum(grid, term):
    # one plain sum over the grid's nodes and weights, scalar arithmetic throughout
    return sum(w * term(z) for z, w in zip(grid.nodes.tolist(), grid.weights.tolist()))


def test_plane_grid_axes_cancel_an_imaginary_cross_term():
    # -0.8 x^2 + 0.3 x y - 0.4 y^2 + 0.2 x + i (0.5 x^2 + 0.9 x y - 0.5 y^2 + 0.7 y)
    exponent = Quadratic(0.125 + 0.175j, 0.45, -0.325 - 0.325j, -0.25, -0.6)
    n = 24
    grid = plane_grid(exponent, n=n)
    t = bargmann._gauss_rule("hermite", n)[0]
    zc = grid.center
    l1, l2 = grid.steps
    assert abs((grid.first[-1] - zc) / t[-1] - l1) <= 1e-14
    assert abs(grid.second[-1] / t[-1] - l2) <= 1e-14
    cross = exponent(zc + l1 + l2) - exponent(zc + l1) - exponent(zc + l2) + exponent(zc)
    assert abs(cross) <= 1e-14
    # node i n + j is zc + t_i l1 + t_j l2
    i, j = 5, 17
    assert abs(grid.nodes[i * n + j] - (zc + t[i] * l1 + t[j] * l2)) <= 1e-13

    def poly(z):
        return 1 + z * z - 0.5j * z

    factors = bargmann._fitted_factors(grid, exponent)
    got = bargmann._quad_block(grid, lambda z: [poly(z)], lambda z: [1.0], factors)[0, 0]
    want = _per_node_sum(grid, lambda z: poly(z) * cmath.exp(exponent(z)))
    assert got == pytest.approx(want, rel=1e-12)


def test_inner_product_of_functions_with_different_exponents_factors_per_axis():
    rng = np.random.default_rng(91)
    p = GENERAL
    U = transform(p, _random_line_function(rng))
    V = transform(p, _random_line_function(rng))
    assert U.c2 != V.c2
    grid = hphi_grid(p, U, V)
    assert quadratic_parts(bargmann._pair_exponent(p, U, V))[2].any()  # the axes turn

    def term(z):
        pair = U.c2 * z * z + U.c1 * z + (V.c2 * z * z + V.c1 * z).conjugate()
        weight = cmath.exp(pair - 2 * weight_Phi(p, z) / p.h)
        return complex(U.hermite_sum(z)) * complex(V.hermite_sum(z)).conjugate() * weight

    want = _per_node_sum(grid, term)
    assert inner_product_HPhi(p, U, V) == pytest.approx(want, rel=1e-12)


def test_adjoint_on_its_own_grid_matches_per_node_reference():
    p = GENERAL
    U = transform(p, HermiteSystem(p).hermite_phi(2))
    x = 0.4
    exponent = adjoint_exponent(p, U, x)
    grid = plane_grid(adjoint_form(p, U, x))
    want = _per_node_sum(grid, lambda z: complex(U.hermite_sum(z)) * cmath.exp(exponent(z)))
    want *= p.C_phi * p.h ** (-0.75)
    assert adjoint_quad(p, U, x) == pytest.approx(want, rel=1e-12)


def test_projector_on_its_own_grid_matches_per_node_reference():
    p = GENERAL
    U = transform(p, HermiteSystem(p).hermite_phi(3))
    points = [0.3 - 0.1j, -1.2 + 0.4j, 0.7j, 1.5 + 1.1j]
    grid = plane_grid(projector_forms(p, U, points)[0])
    together = projector_apply(p, U, points)
    for z, got in zip(points, together):
        exponent = projector_exponent(p, U, z)
        want = _per_node_sum(
            grid, lambda zeta: complex(U.hermite_sum(zeta)) * cmath.exp(exponent(zeta))
        )
        assert got == pytest.approx(p.C_Phi / p.h * want, rel=1e-12)
        assert got == pytest.approx(U(z), rel=1e-10)
    # each point's sum is the same, bit for bit, whichever points share a call
    for i, z in enumerate(points):
        assert repr(together[i]) == repr(projector_apply(p, U, [z])[0])
    assert projector_apply(p, U, []) == []


def test_gram_HPhi_needs_one_exponent():
    p = derived_constants(2.0, 1.0)
    with pytest.raises(DomainError, match="one exponent"):
        gram_HPhi(CLASSIC, [psi0(p), HermiteSystem(CLASSIC).monomial_basis(1)])
    # one exponent on two bases is a family of mixed bases
    u = psi0(p)
    with pytest.raises(DomainError, match="one exponent"):
        gram_HPhi(CLASSIC, [u, HoloGauss(u.coeffs, u.c2, u.c1, u.y0, 0.3, u.rho2)])


def test_gram_HPhi_entries_are_the_inner_products_bit_for_bit():
    # the psi_k share one basis: one recurrence pass per chunk yields every
    # row, each entry its pair's node sum, which is the inner product above
    # degree 6
    p = derived_constants(2.0, 1.0)
    fs = [psi_n(p, k) for k in range(10)]
    G = gram_HPhi(CLASSIC, fs)
    grid = hphi_grid(CLASSIC, fs[0], fs[0])
    for j in range(len(fs)):
        for k in range(j, len(fs)):
            pair = complex(pair_node_sum(CLASSIC, fs[j], fs[k], grid))
            assert repr(G[j][k]) == repr(pair)
            if j + k > bargmann._MOMENT_DEGREE:
                assert repr(inner_product_HPhi(CLASSIC, fs[j], fs[k])) == repr(pair)


def test_quadrature_gram_conjugates_its_rows_for_its_columns():
    # one evaluation of each phi_n per chunk, for its row and its column
    hs = HermiteSystem(GENERAL)
    phis = [hs.hermite_phi(n) for n in range(12)]
    grid = line_grid(Quadratic(-1 / phis[0].s ** 2, 0j))
    want = bargmann._quad_block(
        grid, lambda x: [f(x) for f in phis], lambda x: np.conj([f(x) for f in phis])
    )
    got = hs.gram_matrix(12, method="quadrature")
    assert got.tobytes() == want.tobytes()


def test_grid_arrays_are_read_only():
    grid = polar_grid(2.0, n_r=4, n_theta=4)
    assert grid.nodes.dtype == complex and grid.weights.dtype == float
    plane = plane_grid(Quadratic(0.125, 0j, -0.125, 0j, -1.0), n=8)  # -|z|^2 + 0.5i x y
    for arr in (grid.nodes, grid.weights, grid.first, grid.second, grid.w1, grid.w2,
                plane.first, plane.second, plane.w1):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_rule_arrays_are_read_only():
    for family in ("hermite", "legendre"):
        rule = bargmann._gauss_rule(family, 8)
        assert all(a is b for a, b in zip(rule, bargmann._gauss_rule(family, 8)))
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 0


@pytest.fixture
def fresh_rules():
    """An empty Gauss rule cache, emptied again after the test."""
    bargmann._gauss_rule.cache_clear()
    yield
    bargmann._gauss_rule.cache_clear()


def test_grids_of_one_size_share_one_rule_build(monkeypatch, fresh_rules):
    builds = []

    def counting(family, builder):
        def build(n):
            builds.append((family, n))
            return builder(n)

        return build

    monkeypatch.setattr(bargmann, "_hermite_rule", counting("hermite", bargmann._hermite_rule))
    monkeypatch.setattr(bargmann, "_legendre_rule", counting("legendre", bargmann._legendre_rule))
    line_grid(Quadratic(-1.0, 0j), n=24)
    plane_grid(Quadratic(0j, 0j, m=-1.0), n=24)
    plane_grid(Quadratic(0.5, 0.5, 0.5, 0.5, -2.0), n=24)  # -x^2 - 3 y^2 + x
    polar_grid(2.0, n_r=24, n_theta=4)
    polar_grid(3.0, n_r=24, n_theta=8, split_at=1.0)
    assert builds == [("hermite", 24), ("legendre", 24)]


def _reference_plane_grid(exponent, n):
    # the grid built from its fit and the uncached rule directly
    zc, (l1, l2), det = bargmann._plane_axes(exponent)
    t, ew = bargmann._hermite_rule(n)
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    x = (zc.real + t1 * l1.real) + t2 * l2.real
    y = (zc.imag + t1 * l1.imag) + t2 * l2.imag
    return (x + 1j * y).reshape(-1), (np.outer(ew, ew) * det).reshape(-1)


def _reference_polar_grid(r_max, split, n_r, n_theta):
    t, w = bargmann._legendre_rule(n_r)
    breaks = [0.0, split, r_max]
    r = np.concatenate([(b - a) / 2.0 * t + (b + a) / 2.0 for a, b in zip(breaks, breaks[1:])])
    wr = np.concatenate([(b - a) / 2.0 * w for a, b in zip(breaks, breaks[1:])]) * r
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    nodes = (rr * np.cos(tt) + 1j * (rr * np.sin(tt))).reshape(-1)
    return nodes, np.repeat(wr * (2.0 * math.pi / n_theta), n_theta)


def test_cached_rules_give_the_grids_of_a_fresh_build():
    # dyadic coefficients: the grids read M and L exactly
    t, ew = bargmann._hermite_rule(40)
    scale = 1.0 / math.sqrt(0.5)
    want_line = (0.25 + scale * t, ew * scale)
    # -0.5 x^2 + 0.25 x y - 0.25 y^2 + 0.5 x - 0.25 y
    a, b = -0.0625 - 0.0625j, 0.25 + 0.125j
    plane_exponent = Quadratic(a, b, a, b, -0.375)
    want_plane = _reference_plane_grid(plane_exponent, 40)
    want_polar = _reference_polar_grid(5.0, 1.5, 30, 8)

    for _ in range(2):  # the first build may fill the cache, the second reads it
        grids = (
            (line_grid(Quadratic(-0.5, 0.25), n=40), want_line),
            (plane_grid(plane_exponent, n=40), want_plane),
            (polar_grid(5.0, n_r=30, n_theta=8, split_at=1.5), want_polar),
        )
        for grid, (nodes, weights) in grids:
            assert np.array_equal(grid.nodes, nodes)
            assert np.array_equal(grid.weights, weights)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build,name", [
    (lambda: line_grid(Quadratic(-1.0, 0j), n=0), "n"),
    (lambda: plane_grid(Quadratic(0j, 0j, m=-1.0), n=0), "n"),
    (lambda: polar_grid(2.0, n_r=0), "n_r"),
    (lambda: polar_grid(2.0, n_theta=0), "n_theta"),
    (lambda: polar_grid(math.inf), "r_max"),
    (lambda: line_grid(Quadratic(-1.0, 0j), n=701), "n"),
    (lambda: plane_grid(Quadratic(0j, 0j, m=-1.0), n=701), "n"),
])
def test_grid_builders_reject_bad_sizes_by_name(build, name):
    with pytest.raises(DomainError, match=f"^{name} = "):
        build()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_line_grid_reads_its_quadratic_coefficient_beside_any_constant():
    # a constant of 1e17 leaves the grid as it is without one, bit for bit
    # (values of size 1e17 at three points lost the x^2 coefficient: no grid)
    grid = line_grid(Quadratic(-0.5, 0j, c=1e17))
    assert grid.scale == line_grid(Quadratic(-0.5, 0j)).scale == 1 / math.sqrt(0.5)
    assert grid.scale == pytest.approx(math.sqrt(2), rel=2**-52)
    # at B = 1e10 the constant i A z^2/2h of transform_quad's exponent is
    # 2.5e19 z^2: the oracle still sums (to NaN here, since the real-line
    # integrand cancels from e^{2.5e19 z^2}; its check then fails)
    p = PhaseParams(canonical_A(1e10, 1 + 2j), 1e10, 1 + 2j, 0.5)
    value = transform_quad(p, HermiteSystem(p).hermite_phi(0), 0.3 + 0.2j)
    assert isinstance(value, complex)


def test_transform_oracle_keeps_a_nan_deviation(monkeypatch, tmp_path, capsys):
    # a NaN quadrature value must fail the check, not vanish in a running max
    monkeypatch.setattr(suites, "transform_quad", lambda *args, **kwargs: math.nan)
    checks = {c["name"]: c for c in suites.suite_transform(3.0, 1 + 2j, 0.5, 2026)}
    oracle = checks["transform_closed_vs_quad"]
    assert math.isnan(oracle["measured"]) and not oracle["pass"]
    out = tmp_path / "t.json"
    assert cli.main(["transform", "--format", "json", "-o", str(out)]) == 2
    assert "closed_vs_quad" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", suites.ROT_THETAS)
@pytest.mark.parametrize("rho", suites.ROT_RHOS)
def test_double_exponential_rule_matches_scipy_quad(rho, theta):
    # the rot_gauss integrands of suite_gaussint, each part on the line
    c = rho * rho * cmath.exp(2j * theta)
    size = abs(cmath.sqrt(math.pi / c))
    for part in (np.real, np.imag):
        value, error = bargmann._adaptive_quad(
            lambda t: part(np.exp(-c * t * t)), -math.inf, math.inf
        )
        want, _ = quad(lambda t: float(part(cmath.exp(-c * t * t))), -np.inf, np.inf,
                       epsabs=1e-13, epsrel=1e-12, limit=400)
        assert abs(value - want) <= 1e-11 * size
        assert error <= 1e-12 * abs(value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f,a,b,want", [
    (np.exp, 0.0, 1.0, math.e - 1.0),                   # tanh-sinh
    (lambda x: np.exp(-x), 2.0, math.inf, math.exp(-2.0)),  # exp-sinh
])
def test_double_exponential_rule_on_interval_and_half_line(f, a, b, want):
    value, error = bargmann._adaptive_quad(f, a, b)
    assert value == pytest.approx(want, rel=1e-14)
    assert error <= 1e-12 * value


_SUBNORMAL_ROWS = np.geomspace(1e-320, 1e-309, 64).reshape(-1, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f,moment", [
    (lambda x: _SUBNORMAL_ROWS * np.exp(-x), 1.0),
    (lambda x: _SUBNORMAL_ROWS * np.exp(-x) * x**3.3, math.gamma(4.3)),
])
def test_double_exponential_rule_on_subnormal_rows(f, moment):
    # 64 rows between 1e-320 and 1e-309 converge together, each to within
    # the smallest normal float
    tiny = np.finfo(float).tiny
    value, error = bargmann._adaptive_quad(f, 0.0, math.inf)
    assert (error <= tiny).all()
    assert (abs(value - moment * _SUBNORMAL_ROWS.ravel()) <= tiny).all()
