"""Elliptic-disk family: constants, two generation routes, eigen-relations.

The holomorphic family psi_n is generated both by the iterated-derivative
formula and by the raising ladder; the real-line family Psi_n must be a
scalar multiple of the matching generalized Hermite function (collinearity),
and its operator H is certified through residuals against the closed
eigenvalue ladder.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import Polynomial

from bargmann_lab.bargmann import _MOMENT_DEGREE, hphi_grid, inner_product_HPhi
from bargmann_lab.ellipse import (
    DegenerateEllipseError,
    EllipseParams,
    Psi_n,
    Psi_n_ladder,
    apply_ladder,
    bridge_params,
    derived_constants,
    ellipse_trace,
    ladder_diffops,
    psi0,
    psi_n,
    psi_n_ladder,
    zeta_inverse,
    zeta_map,
)
from bargmann_lab.gaussalg import (
    DEGREE_CAP,
    DegreeCapError,
    DiffOp,
    DomainError,
    HermiteGauss,
    apply_diffop,
    inner_product_line,
    norm_line,
    relative_residual,
)
from bargmann_lab.hermite import HermiteSystem
from bargmann_lab.phasecore import PhaseParams
from bargmann_lab.suites import ELLIPSE_SETS, TOL_IDENTITY, ellipse_eigen_checks, ellipse_gram
from exponent_reference import pair_node_sum

CLASSIC = PhaseParams(0.5j, -1j, 1j, 1.0)
SETS = [(2.0, 0.0), (2.0, 1.0), (0.5, 3.0)]


# ---------------------------------------------------------------- constants


def test_reference_constants_axis_aligned():
    p = derived_constants(2.0, 0.0)
    assert p.a == pytest.approx(0.6, rel=1e-15)
    assert p.lam == pytest.approx(8 / 15, rel=1e-14)
    assert p.lam_over_a == pytest.approx(8 / 9, rel=1e-14)
    assert p.C_ab == pytest.approx(1 / 3, rel=1e-14)
    assert p.A_ab == pytest.approx(math.pi**0.25 * math.sqrt(5), rel=1e-14)


def test_reference_constants_tilted():
    p = derived_constants(1.0, 1.0)
    assert p.a == pytest.approx((1 + 2j) / 3, rel=1e-14)
    assert abs(p.a) == pytest.approx(math.sqrt(5) / 3, rel=1e-14)


def test_degenerate_circle_rejected():
    with pytest.raises(DegenerateEllipseError):
        derived_constants(1.0, 0.0)


def test_constant_identities_random_parameters():
    rng = np.random.default_rng(41)
    count = 0
    while count < 100:
        alpha = rng.uniform(0.2, 4.0)
        beta = rng.uniform(-3.0, 3.0)
        if abs(alpha - 1) < 1e-3 and abs(beta) < 1e-3:
            continue
        p = derived_constants(float(alpha), float(beta))
        count += 1
        assert 0 < abs(p.a) < 1
        assert abs(p.a + 2 * p.lam - 1 / p.a.conjugate()) <= 1e-12
        # lambda/a is a positive real with an explicit rational value
        loa = p.lam / p.a
        assert abs(loa.imag) <= 1e-12 * abs(loa)
        want = 2 * alpha**2 / ((alpha**2 + beta**2 - 1) ** 2 + 4 * beta**2)
        assert loa.real == pytest.approx(want, rel=1e-12)
        assert abs(cmath.phase(p.A_ab)) < math.pi / 4
        # eigenvalue bookkeeping: lambda / (a |C_ab|^2) = 2 alpha^2/(1+beta^2)
        lhs = (p.lam / (p.a * abs(p.C_ab) ** 2)).real
        assert lhs == pytest.approx(2 * alpha**2 / (1 + beta**2), rel=1e-12)


# ------------------------------------------------------- holomorphic family


def test_psi0_is_bare_gaussian():
    p = derived_constants(2.0, 0.0)
    f = psi0(p)
    assert f.coeffs == (1,) and f.poly.coeffs == (1,)
    assert abs(f.c2 - (-p.a / 4)) <= 1e-15
    assert f.c1 == 0


def test_psi1_explicit():
    p = derived_constants(2.0, 0.0)
    f = psi_n(p, 1)
    assert abs(f.poly.coeffs[1] - p.lam) <= 1e-14
    assert abs(f.poly.coeffs[0]) <= 1e-14


def test_lowering_annihilates_psi0():
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        out = apply_ladder(p, "lambda", psi0(p))
        assert out.is_zero or max(abs(c) for c in out.poly.coeffs) <= 1e-15


def test_generation_routes_agree():
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        for n in range(9):
            a = psi_n(p, n)
            b = psi_n_ladder(p, n)
            scale = max(abs(c) for c in a.poly.coeffs)
            dev = max(abs(x - y) for x, y in zip(a.poly.coeffs, b.poly.coeffs))
            assert dev <= 1e-12 * scale


@pytest.mark.parametrize("d", [32, 40, 64])
@pytest.mark.parametrize("alpha,beta", [*ELLIPSE_SETS, (1.3, 0.62)])
def test_psi_routes_agree_pointwise_at_high_degree(alpha, beta, d):
    # the closed form against d banded ladder steps, on the circle where
    # |psi_d|^2 e^{-|z|^2/2} carries its weight
    p = derived_constants(alpha, beta)
    a, b = psi_n(p, d), psi_n_ladder(p, d)
    z = math.sqrt(2 * (d + 1)) * np.exp(2j * math.pi * (np.arange(8) + 0.25) / 8)
    assert np.max(np.abs(b(z) - a(z))) <= TOL_IDENTITY * np.max(np.abs(a(z)))


def test_ladder_commutator_on_psi3():
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        f = psi_n(p, 3)
        comm = apply_ladder(p, "lambda", apply_ladder(p, "lambda_star", f))
        back = apply_ladder(p, "lambda_star", apply_ladder(p, "lambda", f))
        want = p.lam_over_a
        scale = max(abs(c) for c in f.poly.coeffs)
        for k, c in enumerate(f.poly.coeffs):
            got = comm.poly.coeffs[k] - back.poly.coeffs[k]
            assert abs(got - want * c) <= 1e-12 * max(scale, 1.0)


def test_psi_norms_match_closed_form_by_plane_quadrature():
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        base = p.norm_psi0_sq
        assert base == pytest.approx((alpha**2 + beta**2 + 1) * math.pi / alpha, rel=1e-13)
        got0 = inner_product_HPhi(CLASSIC, psi0(p), psi0(p))
        assert abs(got0 - base) <= 1e-4 * base
        for n in range(1, 7):
            f = psi_n(p, n)
            want = math.factorial(n) * p.lam_over_a**n * base
            got = inner_product_HPhi(CLASSIC, f, f)
            assert abs(got - want) <= 1e-4 * want


def test_psi_cross_terms_vanish_by_plane_quadrature():
    p = derived_constants(2.0, 1.0)
    for m in range(5):
        for n in range(m + 1, 6):
            got = inner_product_HPhi(CLASSIC, psi_n(p, m), psi_n(p, n))
            norm = math.sqrt(
                (math.factorial(m) * p.lam_over_a**m)
                * (math.factorial(n) * p.lam_over_a**n)
            ) * p.norm_psi0_sq
            assert abs(got) <= 1e-5 * norm


# ---------------------------------------------------------- real-line family


def test_Psi0_axis_aligned_explicit():
    p = derived_constants(2.0, 0.0)
    f = Psi_n(p, 0)
    assert abs(f.coeffs[0] - math.pi**0.25 * math.sqrt(5)) <= 1e-13
    assert abs(f.gamma2 - (-2.0)) <= 1e-14
    assert f.gamma1 == 0


# the three reference sets and four more from the benchmark's range
# alpha in [0.3, 3], beta in [-3, 3]
BASIS_SETS = [*ELLIPSE_SETS, (0.3, -3.0), (3.0, 3.0), (1.2, -0.4), (0.7, 2.2)]


@pytest.mark.parametrize("alpha,beta", BASIS_SETS)
def test_Psi_n_are_on_the_bridged_phi_basis(alpha, beta):
    # both routes build Psi_n on Psi_0's Gaussian, which is the bridged
    # phi_0's (gamma2, s) bit for bit, so their inner products are diagonal
    p = derived_constants(alpha, beta)
    hs = HermiteSystem(bridge_params(p))
    for n in (0, 1, 5, 12, 64):
        phi = hs.hermite_phi(n)
        for f in (Psi_n(p, n), Psi_n_ladder(p, n)):
            assert isinstance(f, HermiteGauss)
            assert repr((f.gamma2, f.s)) == repr((phi.gamma2, phi.s))


def _monomial_rodrigues(p, n):
    # Psi_n by the monomial route on a numpy Polynomial: n-fold d/dx of the
    # wide Gaussian, (q e^{-gap x^2})' = (q' - 2 gap x q) e^{-gap x^2}
    q, x = Polynomial([1.0]), Polynomial([0, 1])
    for _ in range(n):
        q = q.deriv() - 2 * p.eigen_gap * x * q
    q, g2 = q * (p.A_ab * (-p.C_ab) ** n), -p.w_exponent / 2
    return lambda t: q(t) * cmath.exp(g2 * t * t)


@pytest.mark.parametrize("alpha,beta", ELLIPSE_SETS)
def test_Psi_n_is_the_monomial_rodrigues_formula_pointwise(alpha, beta):
    p = derived_constants(alpha, beta)
    for n in range(13):
        f, ref = Psi_n(p, n), _monomial_rodrigues(p, n)
        x = f.s * np.linspace(-math.sqrt(2 * n + 1) - 3, math.sqrt(2 * n + 1) + 3, 41)
        want = np.array([ref(t) for t in x])
        assert np.max(np.abs(f(x) - want)) <= 1e-12 * np.max(np.abs(want)), n


@pytest.mark.parametrize("build", [
    Psi_n, Psi_n_ladder, psi_n, psi_n_ladder,
    lambda p, n: HermiteSystem(bridge_params(p)).monomial_basis(n),
], ids=["Psi_n", "Psi_n_ladder", "psi_n", "psi_n_ladder", "monomial_basis"])
def test_Psi_n_index_is_capped(build):
    p = derived_constants(2.0, 1.0)
    with pytest.raises(DegreeCapError):
        build(p, DEGREE_CAP + 1)
    with pytest.raises(DomainError):
        build(p, -1)


def test_Psi_generation_routes_agree():
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        for n in range(9):
            a = Psi_n(p, n)
            b = Psi_n_ladder(p, n)
            scale = max(abs(c) for c in a.coeffs)
            dev = max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs))
            assert dev <= 1e-12 * scale


def test_Psi_orthogonal_exact():
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        fams = [Psi_n(p, n) for n in range(13)]
        diags = [inner_product_line(f, f).real for f in fams]
        assert all(d > 0 for d in diags)
        for m in range(13):
            for n in range(m + 1, 13):
                off = abs(inner_product_line(fams[m], fams[n]))
                assert off <= 1e-10 * math.sqrt(diags[m] * diags[n])


def test_operator_identity_and_eigen_residuals():
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        P, Ps, H = ladder_diffops(p)
        shift = DiffOp({(0, 0): alpha**2 / (1 + beta**2)}, h=1.0)
        assert H.max_coeff_diff(Ps.compose(P).add(shift)) <= 1e-12
        for n in range(11):
            f = Psi_n(p, n)
            mu = p.eigen_gap * (2 * n + 1)
            defect = apply_diffop(H, f).add(f.scale(-mu))
            assert norm_line(defect) / norm_line(f) <= 1e-10


def test_axis_aligned_case_is_scaled_oscillator():
    # (2, 0) collapses to -d^2/dx^2 + 16 x^2 with eigenvalues 4(2n+1)
    p = derived_constants(2.0, 0.0)
    _, _, H = ladder_diffops(p)
    assert H.max_coeff_diff(DiffOp({(0, 2): 1.0, (2, 0): 16.0}, h=1.0)) <= 1e-12
    for n in range(5):
        assert p.eigen_gap * (2 * n + 1) == pytest.approx(4 * (2 * n + 1), rel=1e-14)


# ---------------------------------------------------------------- the bridge


def test_bridge_reference_values():
    assert bridge_params(derived_constants(2.0, 0.0)).C == pytest.approx(4j)
    assert bridge_params(derived_constants(1.0, 1.0)).C == pytest.approx((3 + 1j) / 2)


def test_bridge_collinearity():
    # Psi_n and the bridged system's phi_n span the same line: Cauchy-Schwarz
    # holds with equality, relative to the product of norms, to 1e-10
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        hs = HermiteSystem(bridge_params(p))
        for n in range(11):
            f, g = Psi_n(p, n), hs.hermite_phi(n)
            cross = abs(inner_product_line(f, g)) ** 2
            full = inner_product_line(f, f).real * inner_product_line(g, g).real
            assert abs(cross - full) <= 1e-10 * full


def test_bridge_eigenvalues_consistent():
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        bp = bridge_params(p)
        assert bp.C.imag == pytest.approx(alpha**2 / (1 + beta**2), rel=1e-13)
        hs = HermiteSystem(bp)
        for n in range(6):
            assert hs.eigenvalue(n) == pytest.approx(p.eigen_gap * (2 * n + 1), rel=1e-12)


# ------------------------------------------------------------------ geometry


def test_zeta_map_reference_points():
    p = derived_constants(2.0, 0.0)
    assert zeta_map(p, 1.0 + 0j) == 2.0
    assert zeta_map(p, 0j) == 0


def test_zeta_roundtrip():
    rng = np.random.default_rng(47)
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        for _ in range(20):
            z = complex(*rng.normal(scale=1.5, size=2))
            assert abs(zeta_inverse(p, zeta_map(p, z)) - z) <= 1e-12


def test_ground_state_weight_identity():
    # |psi0(z)|^2 e^{-|z|^2/2} equals e^{-|zeta|^2/(alpha^2+beta^2+1)} everywhere
    rng = np.random.default_rng(53)
    for alpha, beta in SETS:
        p = derived_constants(alpha, beta)
        f = psi0(p)
        denom = alpha**2 + beta**2 + 1
        for _ in range(50):
            z = complex(*rng.normal(scale=1.3, size=2))
            lhs = abs(f(z)) ** 2 * math.exp(-abs(z) ** 2 / 2)
            rhs = math.exp(-abs(zeta_map(p, z)) ** 2 / denom)
            assert abs(lhs - rhs) <= 1e-12


def _trace_columns(p, rho, samples):
    """The whole trace as two float arrays, its batches joined."""
    batches = list(ellipse_trace(p, rho, samples))
    assert all(x.dtype == xi.dtype == np.float64 for x, xi in batches)
    return tuple(map(np.concatenate, zip(*batches)))


def test_trace_lies_on_level_set():
    p = derived_constants(2.0, 1.0)
    x, xi = _trace_columns(p, 1.7, samples=64)
    assert x.size == xi.size == 64
    for x_k, xi_k in zip(x.tolist(), xi.tolist()):
        assert abs(abs(zeta_map(p, complex(x_k, -xi_k))) - 1.7) <= 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trace_where_x_overflows_at_beta_zero_keeps_xi():
    # x = rho cos(theta)/alpha overflows at theta = 0 and pi; beta x is 0
    # there in real arithmetic, so xi = -rho sin(theta) (0 * inf would be NaN)
    x, xi = _trace_columns(derived_constants(0.5, 0.0), 1e308, 8)
    assert np.isinf(x[[0, 4]]).all() and np.isfinite(np.delete(x, [0, 4])).all()
    theta = 2 * np.pi * np.arange(8) / 8
    assert xi.tolist() == (-(1e308 * np.sin(theta))).tolist()


@pytest.mark.parametrize("alpha,beta", [*ELLIPSE_SETS, (1.0, 1e-8), (0.999999, 0.0)])
@pytest.mark.parametrize("rho", [0.37, 1.0, 5e3])
def test_trace_is_accurate_at_each_sample_angle(alpha, beta, rho):
    # against 40-digit x* = rho cos(theta)/alpha and xi* = -(rho sin(theta)
    # + beta x*) at the float theta = 2 pi k/samples the trace samples:
    # bounds pinned before measuring, relative to |x*| and to the sizes of
    # xi*'s two terms (the trace formed through complex products lost every
    # digit of x near theta = pi/2)
    samples = 4096
    x, xi = (c.tolist() for c in _trace_columns(derived_constants(alpha, beta), rho, samples))
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for k in range(0, samples, 3):
            theta = mpmath.mpf(2 * math.pi * k / samples)
            x_star = rho * mpmath.cos(theta) / alpha
            rho_sin = rho * mpmath.sin(theta)
            xi_star = -(rho_sin + beta * x_star)
            assert abs(x[k] - x_star) <= 4 * eps * abs(x_star), k
            assert abs(xi[k] - xi_star) <= 4 * eps * (abs(rho_sin) + abs(beta * x_star)), k


def _assert_own_grid_inner_product(pc, U, V, g, mass):
    """``inner_product_HPhi(pc, U, V)`` against g, its node sum on the
    gram's grid (the same grid: the functions share one exponent).  Above
    degree 6 it is the same node sum, bit for bit; below, a sum of per-axis
    moments, equal to round-off of the entry's mass, which Cauchy-Schwarz
    bounds by ``sqrt(G_mm G_kk)``."""
    own = inner_product_HPhi(pc, U, V)
    if len(U.coeffs) + len(V.coeffs) - 2 > _MOMENT_DEGREE:
        assert repr(own) == repr(g)
    else:
        assert abs(own - g) <= 1e-13 * mass


def test_ellipse_gram_diagonal_is_the_direct_evaluation():
    G, _, _ = ellipse_gram(2.0, 1.0, 3)
    p = derived_constants(2.0, 1.0)
    pc = PhaseParams.classic()
    psis = [psi_n(p, k) for k in range(3)]
    grid = hphi_grid(pc, psis[0], psis[0])  # the psi_k share one exponent, so one grid
    for m in range(3):
        for n in range(m, 3):
            g = complex(pair_node_sum(pc, psis[m], psis[n], grid))
            assert repr(G[m][n]) == repr(g)
            mass = math.sqrt(G[m][m].real * G[n][n].real)
            _assert_own_grid_inner_product(pc, psis[m], psis[n], g, mass)
            assert repr(G[n][m]) == repr(g if m == n else complex(g.real, 0.0 - g.imag))


@pytest.mark.parametrize("alpha,beta", ELLIPSE_SETS)
def test_ellipse_gram_is_the_per_pair_inner_product(alpha, beta):
    # one shared grid and exponential factor give every entry bit for bit
    n = 7
    G, diag, dev = ellipse_gram(alpha, beta, n)
    p = derived_constants(alpha, beta)
    pc = PhaseParams.classic()
    psis = [psi_n(p, k) for k in range(n)]
    grid = hphi_grid(pc, psis[0], psis[0])
    want_dev = 0.0
    for m in range(n):
        for k in range(m, n):
            g = complex(pair_node_sum(pc, psis[m], psis[k], grid))
            assert repr(G[m][k]) == repr(g)
            assert repr(G[k][m]) == repr(g if m == k else complex(g.real, 0.0 - g.imag))
            mass = math.sqrt(G[m][m].real * G[k][k].real)
            _assert_own_grid_inner_product(pc, psis[m], psis[k], g, mass)
            closed = diag[k] if m == k else 0.0
            want_dev = max(want_dev, abs(g - closed) / math.sqrt(diag[m] * diag[k]))
    assert repr(dev) == repr(want_dev)


@pytest.mark.parametrize("alpha,beta", ELLIPSE_SETS)
def test_H_residual_checks_are_the_single_function_residuals(alpha, beta):
    # H_ab is applied once to the block of Psi_0..Psi_40; each entry is the
    # residual of its member alone, to round-off
    p = derived_constants(alpha, beta)
    _, _, H = ladder_diffops(p)
    entries, _ = ellipse_eigen_checks(p, 41, "H_residual")
    for e in entries:
        want = relative_residual(H, Psi_n(p, e["n"]), e["eigenvalue"])
        assert abs(e["residual"] - want) <= 1e-14 * want, e["n"]
