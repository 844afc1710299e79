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
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from bargmann_lab import bargmann, cli, suites
from bargmann_lab.bargmann import (
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
from bargmann_lab.ellipse import derived_constants, psi0
from bargmann_lab.gaussalg import ComplexPoly, DomainError, PolyGauss, inner_product_line
from bargmann_lab.hermite import HermiteSystem
from bargmann_lab.phasecore import PhaseParams, canonical_A, kernel_Psi, phi_phase, weight_Phi
from bargmann_lab.toeplitz import RadialSymbol, toeplitz_matrix_quad

CLASSIC = PhaseParams(0.5j, -1j, 1j, 1.0)
GENERAL = PhaseParams(canonical_A(3.0, 1 + 2j), 3.0, 1 + 2j, 0.5)

REL_CLOSED_VS_QUAD = 1e-8
TOL_PLANE = 1e-6


def _random_polygauss(rng):
    deg = int(rng.integers(0, 4))
    coeffs = tuple(complex(*rng.normal(size=2)) for _ in range(deg + 1))
    g2 = complex(-0.4 - rng.uniform(0, 1.2), 0.5 * rng.normal())
    g1 = 0.5 * complex(*rng.normal(size=2))
    return PolyGauss(ComplexPoly(coeffs), g2, g1)


def test_transform_ground_state_is_constant():
    # the matched Gaussian maps to the degree-zero basis element
    for p in (CLASSIC, GENERAL):
        hs = HermiteSystem(p)
        U = transform(p, hs.hermite_phi(0))
        V = hs.monomial_basis(0)
        assert U.poly.degree == 0
        assert U.c2 == 0 and U.c1 == 0
        assert abs(U.poly.coeffs[0] - V.poly.coeffs[0]) <= 1e-14


def test_transform_of_zero_is_zero():
    z = PolyGauss(ComplexPoly((0j,)), -0.5 + 0j, 0j)
    assert transform(CLASSIC, z).is_zero


def test_transform_closed_form_vs_quadrature():
    rng = np.random.default_rng(21)
    for p in (CLASSIC, GENERAL):
        f = _random_polygauss(rng)
        U = transform(p, f)
        for _ in range(10):
            z = complex(*rng.normal(scale=1.0, size=2))
            closed = U(z)
            quadr = transform_quad(p, f, z)
            assert abs(closed - quadr) <= REL_CLOSED_VS_QUAD * max(abs(closed), 1e-6)


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
            f, g = _random_polygauss(rng), _random_polygauss(rng)
            lhs = inner_product_HPhi(p, transform(p, f), transform(p, g))
            rhs = inner_product_line(f, g)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= TOL_PLANE


def test_projector_reproduces_basis_element():
    hs = HermiteSystem(CLASSIC)
    v2 = hs.monomial_basis(2)
    grid = hphi_grid(CLASSIC, v2, v2)
    z = 0.4 - 0.2j
    assert abs(projector_apply(CLASSIC, v2, [z], grid)[0] - v2(z)) <= 1e-6


def test_projector_reproduces_transformed_functions():
    rng = np.random.default_rng(55)
    for p in (CLASSIC, GENERAL):
        U = transform(p, _random_polygauss(rng))
        grid = hphi_grid(p, U, U)
        for _ in range(10):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            assert abs(projector_apply(p, U, [z], grid)[0] - U(z)) <= TOL_PLANE


def test_projector_moves_antiholomorphic_function():
    # z -> conj(z) is not in the holomorphic range; the projector must not fix it
    hs = HermiteSystem(CLASSIC)
    v1 = hs.monomial_basis(1)
    grid = hphi_grid(CLASSIC, v1, v1)
    conj = SimpleNamespace(poly=np.conjugate, c2=0j, c1=0j)
    z = 0.9 + 0.4j
    residual = abs(projector_apply(CLASSIC, conj, [z], grid)[0] - z.conjugate())
    assert residual > 0.1


def test_array_path_matches_per_node_reference():
    # the array integrands against a plain loop over scalar phasecore calls
    p = GENERAL
    U = transform(p, HermiteSystem(p).hermite_phi(2))
    grid = hphi_grid(p, U, U, n=24)
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

    want = p.C_phi * p.h ** (-0.75) * ref_sum(grid, adjoint_term)
    assert adjoint_quad(p, U, x, grid=grid) == pytest.approx(want, rel=1e-12)
    want = p.C_Phi / p.h * ref_sum(grid, projector_term)
    got = projector_apply(p, U, [z], grid)[0]
    assert got == pytest.approx(want, rel=1e-12)

    # several points in one call: each is the sum of its own per-node reference
    points = [z, -1.1 + 0.7j, 0.05j, 1.4 - 1.3j]
    for z, got in zip(points, projector_apply(p, U, points, grid)):
        want = p.C_Phi / p.h * ref_sum(grid, projector_term)
        assert got == pytest.approx(want, rel=1e-12)
    per_node = [U(zeta) for zeta in grid.nodes.tolist()]
    np.testing.assert_allclose(grid_values(U, grid), per_node, rtol=1e-12, atol=0)

    sym = RadialSymbol.gaussian(0.5)
    polar = polar_grid(9.0, n_r=40, n_theta=16)

    def varphi(k, zeta):  # classic normalized monomial
        return zeta**k / math.sqrt(math.pi * 2.0 ** (k + 1) * math.factorial(k))

    for m, n in ((0, 0), (2, 2), (1, 3)):
        want = ref_sum(polar, lambda zeta: sym.c(abs(zeta) ** 2) * varphi(m, zeta)
                       * varphi(n, zeta).conjugate() * math.exp(-abs(zeta) ** 2 / 2))
        got = toeplitz_matrix_quad(sym, m, n, grid=polar)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-3)


def test_gram_HPhi_needs_one_exponent():
    p = derived_constants(2.0, 1.0)
    with pytest.raises(DomainError, match="one exponent"):
        gram_HPhi(CLASSIC, [psi0(p), HermiteSystem(CLASSIC).monomial_basis(1)])


def test_grid_arrays_are_read_only():
    grid = polar_grid(2.0, n_r=4, n_theta=4)
    assert grid.nodes.dtype == complex and grid.weights.dtype == float
    for arr in (grid.nodes, grid.weights):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_rule_and_shell_arrays_are_read_only():
    grid = polar_grid(2.0, n_r=4, n_theta=4)
    assert grid.shell.dtype == bool and grid.shell.shape == grid.nodes.shape
    arrays = [grid.shell, *bargmann._gauss_rule("hermite", 8), *bargmann._gauss_rule("legendre", 8)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_grids_of_one_size_share_one_hermgauss_call(monkeypatch):
    calls = []

    def counting_hermgauss(n):
        calls.append(n)
        return hermgauss(n)

    monkeypatch.setattr(bargmann, "_RULES", {})
    monkeypatch.setattr(bargmann, "hermgauss", counting_hermgauss)
    line_grid(lambda x: -x * x, n=24)
    plane_grid(lambda z: -abs(z) ** 2, n=24)
    plane_grid(lambda z: -(z.real**2) - 3.0 * z.imag**2 + z.real, n=24)
    assert calls == [24]


def _openblas_thread_count():
    threads = bargmann._OPENBLAS_THREADS
    if threads is None:
        pytest.skip("numpy's linear algebra does not link OpenBLAS")
    return threads[0]


def test_serial_blas_runs_one_thread_and_restores_the_count():
    get = _openblas_thread_count()
    before = get()
    with bargmann._serial_blas():
        assert get() == 1
    assert get() == before
    with pytest.raises(RuntimeError):
        with bargmann._serial_blas():
            raise RuntimeError
    assert get() == before


def test_gauss_rules_are_computed_on_one_thread_with_numpys_values(monkeypatch):
    get = _openblas_thread_count()
    seen = []

    def recording_leggauss(n):
        seen.append(get())
        return leggauss(n)

    monkeypatch.setattr(bargmann, "_RULES", {})
    monkeypatch.setattr(bargmann, "leggauss", recording_leggauss)
    t, w = bargmann._gauss_rule("legendre", 400)
    assert seen == [1]
    t_ref, w_ref = leggauss(400)
    assert t.tobytes() == t_ref.tobytes() and w.tobytes() == w_ref.tobytes()


def _reference_plane_grid(M, L, n):
    # the grid built from numpy's rule directly, as before the rule cache
    evals, evecs = np.linalg.eigh(M)
    center = np.linalg.solve(2.0 * M, -L)
    t, w = hermgauss(n)
    ew = w * np.exp(t * t)
    s1, s2 = 1.0 / math.sqrt(-evals[0]), 1.0 / math.sqrt(-evals[1])
    t1, t2 = np.meshgrid(t * s1, t * s2, indexing="ij")
    xy = (
        center[None, None, :]
        + t1[..., None] * evecs[:, 0][None, None, :]
        + t2[..., None] * evecs[:, 1][None, None, :]
    ).reshape(-1, 2)
    return xy[:, 0] + 1j * xy[:, 1], (np.outer(ew, ew) * (s1 * s2)).reshape(-1)


def _reference_polar_grid(r_max, split, n_r, n_theta):
    t, w = leggauss(n_r)
    breaks = [0.0, split, r_max]
    r = np.concatenate([(b - a) / 2.0 * t + (b + a) / 2.0 for a, b in zip(breaks, breaks[1:])])
    wr = np.concatenate([(b - a) / 2.0 * w for a, b in zip(breaks, breaks[1:])]) * r
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    nodes = (rr * np.cos(tt) + 1j * (rr * np.sin(tt))).reshape(-1)
    return nodes, np.repeat(wr * (2.0 * math.pi / n_theta), n_theta)


def test_cached_rules_give_the_grids_of_a_fresh_build():
    # dyadic coefficients: the exponent fits recover M and L exactly
    t, w = hermgauss(40)
    scale = 1.0 / math.sqrt(0.5)
    want_line = (0.25 + scale * t, w * np.exp(t * t) * scale)
    M = np.array([[-0.5, 0.125], [0.125, -0.25]])
    L = np.array([0.5, -0.25])
    want_plane = _reference_plane_grid(M, L, 40)
    want_polar = _reference_polar_grid(5.0, 1.5, 30, 8)

    def plane_exponent(z):
        x, y = z.real, z.imag
        return -0.5 * x * x + 0.25 * x * y - 0.25 * y * y + 0.5 * x - 0.25 * y

    for _ in range(2):  # the first build may fill the cache, the second reads it
        grids = (
            (line_grid(lambda x: -0.5 * x * x + 0.25 * x, n=40), want_line),
            (plane_grid(plane_exponent, n=40), want_plane),
            (polar_grid(5.0, n_r=30, n_theta=8, split_at=1.5), want_polar),
        )
        for grid, (nodes, weights) in grids:
            assert np.array_equal(grid.nodes, nodes)
            assert np.array_equal(grid.weights, weights)


def test_transform_oracle_keeps_a_nan_deviation(monkeypatch, tmp_path, capsys):
    # a NaN quadrature value must fail the check, not vanish in a running max
    monkeypatch.setattr(suites, "transform_quad", lambda *args, **kwargs: math.nan)
    checks = {c["name"]: c for c in suites.suite_transform(3.0, 1 + 2j, 0.5, 1, 1)}
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
            lambda t: part(np.exp(-c * t * t)), -math.inf, math.inf, 1e-12
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
    value, error = bargmann._adaptive_quad(f, a, b, 1e-12)
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
    value, error = bargmann._adaptive_quad(f, 0.0, math.inf, 1e-12)
    assert (error <= tiny).all()
    assert (abs(value - moment * _SUBNORMAL_ROWS.ravel()) <= tiny).all()
