"""Exact Gaussian algebra: integrals, line inner products, operators.

Closed forms are cross-checked against adaptive quadrature (scipy), dense
trapezoid sums, 200-node Gauss-Hermite oracles and the monomial moment
reference of ``moment_reference``; algebraic identities are exercised with
hypothesis on bounded random inputs.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, seed, strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial.hermite import hermval
from scipy.integrate import quad

from bargmann_lab import gaussalg
from bargmann_lab.gaussalg import (
    DEGREE_CAP,
    ComplexPoly,
    DegreeCapError,
    DiffOp,
    DomainError,
    HermiteGauss,
    HoloGauss,
    apply_diffop,
    gauss_integral,
    inner_product_line,
    norm_line,
    _overlaps,
    _residual_ratio,
    _worst,
    coeff_deviation,
)
from bargmann_lab.bargmann import transform
from bargmann_lab.hermite import HermiteSystem
from bargmann_lab.phasecore import PhaseParams
from moment_reference import gaussian_moment, inner_reference

SQRT_PI = math.sqrt(math.pi)

REL_QUAD = 1e-8
REL_MOMENT = 1e-9
REL_LINE = 1e-9
TOL_EXACT = 1e-12


# ----------------------------------------------------------------- integrals


def test_gauss_integral_real_axis():
    assert gauss_integral(1.0, 0.0) == pytest.approx(SQRT_PI, rel=1e-15)
    assert gauss_integral(2.0, 0.0) == pytest.approx(SQRT_PI / 2, rel=1e-15)


def test_gauss_integral_rotated():
    # rotating the coefficient by e^{2i*theta} divides the value by e^{i*theta}
    want = SQRT_PI * cmath.exp(-0.7j)
    assert abs(gauss_integral(1.0, 0.7) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("theta", [-0.7, 0.0, 0.7])
def test_gauss_integral_vs_adaptive_quadrature(rho, theta):
    c = rho * rho * cmath.exp(2j * theta)
    re = quad(lambda t: math.exp(-c.real * t * t) * math.cos(c.imag * t * t),
              -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13)[0]
    im = quad(lambda t: -math.exp(-c.real * t * t) * math.sin(c.imag * t * t),
              -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13)[0]
    got = gauss_integral(rho, theta)
    assert abs(got - complex(re, im)) <= REL_QUAD * abs(got)


def test_gauss_integral_domain():
    with pytest.raises(DomainError):
        gauss_integral(0.0, 0.0)
    with pytest.raises(DomainError):
        gauss_integral(1.0, math.pi / 4)


# ------------------------------------------- the monomial moment reference


def test_gaussian_moment_pure_gaussian():
    assert gaussian_moment(-1.0 + 0j, 0j, 0) == pytest.approx(SQRT_PI, rel=1e-15)
    assert gaussian_moment(-1.0 + 0j, 0j, 2) == pytest.approx(SQRT_PI / 2, rel=1e-15)
    # odd moments of a centered Gaussian vanish identically
    assert gaussian_moment(-1.0 + 0j, 0j, 3) == 0


def test_gaussian_moment_complex_shifted():
    # adaptive-quadrature oracle for gamma2=-1+0.3i, gamma1=0.5-0.2i, k=3
    oracle = 0.6811052478111367 + 0.20815497728661264j
    got = gaussian_moment(-1 + 0.3j, 0.5 - 0.2j, 3)
    assert abs(got - oracle) <= REL_MOMENT * abs(oracle)


@pytest.mark.parametrize("k", range(9))
def test_gaussian_moment_vs_quadrature_all_orders(k):
    g2, g1 = -1 + 0.3j, 0.5 - 0.2j

    def integrand(t):
        return t**k * cmath.exp(g2 * t * t + g1 * t)

    re = quad(lambda t: integrand(t).real, -np.inf, np.inf, epsabs=1e-13)[0]
    im = quad(lambda t: integrand(t).imag, -np.inf, np.inf, epsabs=1e-13)[0]
    got = gaussian_moment(g2, g1, k)
    assert abs(got - complex(re, im)) <= REL_QUAD * max(abs(got), 1e-3)


# ------------------------------------------------------------ inner products


def _line(coeffs, g2, g1=0j):
    """``poly(x) exp(g2 x^2 + g1 x)`` in Hermite coefficients on its own Gaussian."""
    poly = ComplexPoly(tuple(map(complex, coeffs)))
    return HermiteGauss.from_poly(poly, complex(g2), complex(g1))


def _ground_state():
    # unit-norm Gaussian exp(-x^2/2) / pi^{1/4}
    return _line((math.pi ** -0.25,), -0.5)


def test_ground_state_normalized():
    f = _ground_state()
    assert abs(inner_product_line(f, f) - 1) <= 1e-14


def test_inner_product_zero_absorbs():
    f = _ground_state()
    z = _line((0j,), -0.5)
    assert inner_product_line(f, z) == 0
    assert inner_product_line(z, f) == 0


def test_inner_product_vs_gauss_hermite_oracle():
    # fixed pair; oracle below is a 200-node Gauss-Hermite evaluation
    f = _line((0.3 + 0.2j, 1.1 - 0.4j, 0.25j), -0.8 + 0.3j, 0.2 - 0.1j)
    g = _line((1.0 + 0j, -0.6j), -0.5 - 0.2j, -0.3 + 0.4j)
    oracle = 0.24948108103044242 + 0.550323687209984j
    got = inner_product_line(f, g)
    assert abs(got - oracle) <= REL_LINE * abs(oracle)


def test_nonintegrable_exponent_rejected_at_construction():
    with pytest.raises(DomainError):
        _line((1.0,), 0.25)


coeff = st.complex_numbers(min_magnitude=0, max_magnitude=3, allow_nan=False,
                           allow_infinity=False)


def _pg(c0, c1, g2im, g1):
    return _line((c0, c1), complex(-0.7, g2im), g1)


@seed(1)
@given(c0=coeff, c1=coeff, a=coeff, b=coeff, g=st.floats(-0.5, 0.5))
def test_inner_product_sesquilinear(c0, c1, a, b, g):
    # combinations stay inside a fixed-exponent slice (add requires it)
    f1 = _pg(c0, c1, g, 0.1j)
    f2 = _pg(c1, c0, g, 0.1j)
    w = _pg(1.0, 0.3j, 0.0, 0.1)
    lhs = inner_product_line(f1.scale(a).add(f2.scale(b)), w)
    rhs = a * inner_product_line(f1, w) + b * inner_product_line(f2, w)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale
    # antilinear in the second slot
    lhs2 = inner_product_line(w, f1.scale(a))
    rhs2 = a.conjugate() * inner_product_line(w, f1)
    assert abs(lhs2 - rhs2) <= 1e-12 * max(abs(lhs2), 1.0)


@seed(1)
@given(c0=coeff, c1=coeff, g=st.floats(-0.5, 0.5))
def test_inner_product_conjugate_symmetry(c0, c1, g):
    f = _pg(c0, c1, g, 0.2 - 0.1j)
    w = _pg(1.0 + 0.5j, c1, -g, 0.3j)
    assert abs(inner_product_line(f, w) - inner_product_line(w, f).conjugate()) <= 1e-12


def test_norm_line_matches_self_inner_product():
    f = _line((0.7 - 0.1j, 0.4j, 1.2), -0.9 + 0.2j, 0.3 - 0.2j)
    assert norm_line(f) == pytest.approx(
        math.sqrt(inner_product_line(f, f).real), rel=1e-13)


def _random_coeffs(rng, n):
    return tuple(complex(re, im) for re, im in zip(rng.normal(size=n), rng.normal(size=n)))


def _random_pair(rng, max_len, g1):
    """Two random monomial forms (poly, gamma2, gamma1), degree < max_len."""
    return [
        (
            ComplexPoly.from_coeffs(_random_coeffs(rng, int(rng.integers(1, max_len + 1)))),
            complex(-rng.uniform(0.2, 1.0), rng.uniform(-1, 1)),
            complex(*rng.uniform(-0.5, 0.5, size=2)) if g1 else 0j,
        )
        for _ in range(2)
    ]


def _assert_matches_moment_reference(rng, g1):
    for _ in range(300):
        pair = _random_pair(rng, 6, g1)
        f, g = (HermiteGauss.from_poly(*m) for m in pair)
        got, want = inner_product_line(f, g), inner_reference(*pair)
        assert abs(got - want) <= 1e-13 * norm_line(f) * norm_line(g)


def test_inner_product_close_without_linear_exponent():
    _assert_matches_moment_reference(np.random.default_rng(3), g1=False)


def test_inner_product_close_with_linear_exponent():
    _assert_matches_moment_reference(np.random.default_rng(5), g1=True)


@pytest.mark.parametrize("bad", [math.nan, complex(math.inf, 0.0)])
@pytest.mark.parametrize("other", [(1.0,), (0.5, -0.2j, 1.0)])
def test_non_finite_coefficient_gives_non_finite_inner_product(bad, other):
    # the bad coefficient sits at an odd index, past the end of (1.0,)
    f = _line((1.0 + 0j, complex(bad)), -0.5)
    g = _line(other, -0.5)
    assert not cmath.isfinite(inner_product_line(f, g))
    assert not cmath.isfinite(inner_product_line(g, f))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_inner_product_keeps_non_finite_against_zero_coefficients(bad, at):
    # the bad coefficient meets zero coefficients and vanishing overlaps of
    # the other factor: 0 * inf is NaN, so no term may be skipped
    a = [0.5 + 1j, -0.25j, 2.0 + 0j, 1.5 - 0.5j, 0.75 + 0j]
    a[at] = complex(bad, 1.0)
    f = HermiteGauss(a, -0.5 + 0j, 1.0)
    for b in [(0j, 1 + 1j, 0j, -2j), (1 - 1j, 0j, 0.5j, 0j, 3.0 + 0j), (0j, 0j, 1.0), (2j,)]:
        for g in (HermiteGauss(b, -0.5 + 0j, 1.0), HermiteGauss(b, -0.8 + 0.3j, 0.7, 0.2j)):
            assert not cmath.isfinite(inner_product_line(f, g))
            assert not cmath.isfinite(inner_product_line(g, f))


@pytest.mark.parametrize("j,k", [(40, 40), (64, 64)])
def test_mismatched_overlaps_match_a_dense_trapezoid(j, k):
    # phi_j and phi_k of two Hermite systems: different Gaussians, so the
    # overlap recurrence; the trapezoid rule is spectrally accurate here
    f = HermiteSystem.from_bch(-1j, 1j, 1.0).hermite_phi(j)
    g = HermiteSystem.from_bch(1.3, 0.4 + 0.9j, 0.8).hermite_phi(k)
    x, dx = np.linspace(-30.0, 30.0, 400_001), 60.0 / 400_000
    values = f(x) * np.conj(g(x))
    want = complex(math.fsum(values.real), math.fsum(values.imag)) * dx
    got = inner_product_line(f, g)
    assert abs(got - want) <= 1e-11 * norm_line(f) * norm_line(g)


# -------------------------------------------------------------------- DiffOp


def test_diffop_identity_fixes_everything():
    ident = DiffOp({(0, 0): 1.0 + 0j}, h=1.0)
    f = _line((0.3, 1.0 - 2j), -0.6 + 0.1j, 0.2j)
    g = apply_diffop(ident, f)
    assert (g.gamma2, g.gamma1, g.s) == (f.gamma2, f.gamma1, f.s)
    assert all(abs(a - b) <= TOL_EXACT for a, b in zip(g.coeffs, f.coeffs))


def test_diffop_hD_on_gaussian():
    # hD = -ih d/dx sends exp(-x^2/2) to i x exp(-x^2/2) at h = 1
    f = _line((1.0,), -0.5)
    g = apply_diffop(DiffOp({(0, 1): 1.0 + 0j}, h=1.0), f)
    assert g.gamma2 == f.gamma2
    assert coeff_deviation(_line((0j, 1j), -0.5), g) <= TOL_EXACT


def test_diffop_compose_associative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        ops = []
        for _k in range(3):
            terms = {}
            for _t in range(3):
                key = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                terms[key] = complex(*rng.normal(size=2))
            ops.append(DiffOp(terms, h=1.0))
        a, b, c = ops
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.max_coeff_diff(right) <= 1e-12


def test_residual_ratio_is_inf_only_where_it_cannot_be_evaluated():
    f = _line((1.0,), -0.5)

    def raising(err):
        def apply(g):
            raise err
        return apply

    assert _residual_ratio(norm_line, raising(DegreeCapError("cap")), f, 1.0) == math.inf
    assert _residual_ratio(norm_line, raising(ValueError("-inf + inf in fsum")), f, 1.0) == math.inf
    with pytest.raises(DomainError, match="not integrable"):
        _residual_ratio(norm_line, raising(DomainError("not integrable")), f, 1.0)


@pytest.mark.parametrize("f", [
    _line((1.0 + 0j, 0.5j), -0.5, 0.3j),
    HermiteGauss((1.0 + 0j, 0.5j), -0.5 + 0j, 1.0),
], ids=["with_gamma1", "HermiteGauss"])
def test_residual_ratio_of_nan_coefficients_is_inf(f):
    # norm(f) is finite, apply(f) has NaN coefficients: the NaN ratio that
    # a sum and max(nan, 0.0) let through must read as unevaluable
    assert math.isfinite(norm_line(f))
    assert _residual_ratio(norm_line, lambda g: g.scale(math.nan), f, 1.0) == math.inf


# ------------------------------------------------------------- HermiteGauss


X = Polynomial([0, 1])  # the monomial x (or z) of the numpy references


def _from_numpy(poly: Polynomial, g2, g1=0j) -> HermiteGauss:
    return HermiteGauss.from_poly(ComplexPoly(tuple(map(complex, poly.coef))), g2, g1)


def _apply_diffop_reference(op, poly, g2, g1):
    """The monomial route on a numpy ``Polynomial``: ``hD (p e^g) = -ih (p' +
    (2 g2 x + g1) p) e^g`` per step, then ``x**j``."""
    hd_powers = [poly]
    acc = Polynomial([0j])
    for (j, k), c in sorted(op.terms.items()):
        while len(hd_powers) <= k:
            p = hd_powers[-1]
            hd_powers.append(-1j * op.h * (p.deriv() + (2 * g2 * X + g1) * p))
        acc = acc + c * X**j * hd_powers[k]
    return acc


def test_hermite_form_values_and_monomial_form_agree():
    # the three-term recurrence at points, against Horner on the monomial form
    rng = np.random.default_rng(23)
    x = np.linspace(-3.0, 3.0, 25)
    g2, g1 = complex(-0.5 / 0.8**2, 0.3), 0.2 - 0.1j
    for n in (1, 2, 5, 12):
        poly = Polynomial(_random_coeffs(rng, n))
        f = _from_numpy(poly, g2, g1)
        want = np.array([poly(t) * cmath.exp(g2 * t * t + g1 * t) for t in x])
        assert np.max(np.abs(f(x) - want)) <= 1e-12 * np.max(np.abs(want))
        assert f(0.7) == pytest.approx(poly(0.7) * cmath.exp(g2 * 0.49 + g1 * 0.7), rel=1e-12)


def test_hermite_form_inner_product_is_the_moment_route():
    # the diagonal sum on a shared own Gaussian against the moment reference
    rng = np.random.default_rng(29)
    g2 = complex(-0.5 / 0.8**2, 0.3)
    for la, lb in ((1, 1), (3, 5), (8, 8)):
        p, q = (ComplexPoly.from_coeffs(_random_coeffs(rng, n)) for n in (la, lb))
        f, g = HermiteGauss.from_poly(p, g2), HermiteGauss.from_poly(q, g2)
        want = inner_reference((p, g2, 0j), (q, g2, 0j))
        assert abs(inner_product_line(f, g) - want) <= 1e-12 * norm_line(f) * norm_line(g)
        assert norm_line(f) == pytest.approx(math.sqrt(inner_product_line(f, f).real), rel=1e-13)


def test_hermite_form_operators_are_the_monomial_operators():
    rng = np.random.default_rng(31)
    op = DiffOp({(0, 2): 0.5, (2, 0): 1.5 - 0.5j, (1, 1): 0.25j, (0, 0): 2.0, (3, 1): 0.1}, h=0.7)
    g2 = complex(-0.5 / 0.8**2, 0.3)
    for n in (1, 4, 9):
        for g1 in (0j, 0.4 - 0.2j):
            poly = Polynomial(_random_coeffs(rng, n))
            f = _from_numpy(poly, g2, g1)
            got = apply_diffop(op, f)
            want = _from_numpy(_apply_diffop_reference(op, poly, g2, g1), g2, g1)
            assert (got.gamma2, got.gamma1, got.s) == (f.gamma2, f.gamma1, f.s)
            assert coeff_deviation(want, got) <= 1e-12


def test_hermite_form_images_pass_the_cap_but_their_monomial_form_does_not():
    f = HermiteGauss((0j,) * DEGREE_CAP + (1.0 + 0j,), -0.5 + 0j, 1.0)
    g = apply_diffop(DiffOp({(2, 0): 1.0}, h=1.0), f)  # index 66: transient
    assert len(g.coeffs) == DEGREE_CAP + 3
    assert norm_line(g) > 0
    U = transform(PhaseParams.classic(), g)  # Hermite coefficients: no cap
    assert len(U.coeffs) == DEGREE_CAP + 3 and np.isfinite(U(0.3 - 0.2j))
    with pytest.raises(DegreeCapError):
        U.poly  # its monomial form


def test_hermite_form_off_its_own_basis_takes_the_overlap_recurrence():
    rng = np.random.default_rng(37)
    p, q = (ComplexPoly.from_coeffs(_random_coeffs(rng, n)) for n in (4, 3))
    f = HermiteGauss.from_poly(p, complex(-0.5 / 0.8**2, 0.3))
    g = HermiteGauss.from_poly(q, complex(-0.5 / 0.6**2, 0.3))
    want = inner_reference((p, f.gamma2, 0j), (q, g.gamma2, 0j))
    assert abs(inner_product_line(f, g) - want) <= 1e-13 * norm_line(f) * norm_line(g)
    total = f.add(g.scale(0.0)).add(f)
    assert isinstance(total, HermiteGauss) and total.coeffs == tuple(2 * c for c in f.coeffs)
    with pytest.raises(DomainError):
        f.add(g)  # different exponents and scales do not add


@pytest.mark.parametrize("alpha,beta", [(2.0, 0.0), (2.0, 1.0), (0.5, 3.0)])
def test_overlap_recurrence_is_the_diagonal_sum_on_bridge_pairs(alpha, beta):
    # the bridge check's pairs share their own Gaussian (diagonal sums); the
    # overlap recurrence on the same pairs must give the same values
    from bargmann_lab import ellipse

    p = ellipse.derived_constants(alpha, beta)
    hs = HermiteSystem(ellipse.bridge_params(p))
    for d in (0, 3, 8, 40):
        big, phi = ellipse.Psi_n(p, d), hs.hermite_phi(d)
        M = _overlaps(big.gamma2 + phi.gamma2.conjugate(), 0j, big.s, phi.s, d + 1, d + 1)
        via_M = sum(
            a * M[j][k] * b.conjugate()
            for j, a in enumerate(big.coeffs)
            for k, b in enumerate(phi.coeffs)
        )
        ip = inner_product_line(big, phi)
        assert abs(ip - via_M) <= 1e-12 * norm_line(big) * norm_line(phi)


# ---------------------------------------------------------------- HoloGauss


def test_holo_differentiate_square():
    # p_2(z/sqrt(2)) = z^2/sqrt(2) on the monomials (rho2 = 0)
    f = HoloGauss((0j, 0j, math.sqrt(2)), y1=1 / math.sqrt(2))
    df = f.ladder(1.0, 0.0)
    np.testing.assert_allclose(df.poly.coeffs, (0, 2), rtol=0, atol=1e-15)


def test_holo_ladder_annihilates_matching_gaussian():
    # (d/dz + cz) applied to exp(-c z^2 / 2) vanishes identically
    c = 0.3 + 0.1j
    for y0, y1, rho2 in ((0j, 1 + 0j, 0j), (0.4 - 0.2j, 0.7 + 0.5j, 1.3 - 0.6j)):
        out = HoloGauss((1.0 + 0j,), -c / 2, 0j, y0, y1, rho2).ladder(1.0, c)
        assert out.is_zero or all(abs(a) <= TOL_EXACT for a in out.coeffs)


def test_holo_basis_must_depend_on_z():
    with pytest.raises(DomainError, match="y1 = 0"):
        HoloGauss((1.0,), y1=0)


@pytest.mark.parametrize("y0,y1,rho2", [
    (0j, 1 + 0j, 0j), (0j, 0.6 - 0.8j, 1 + 0j), (0.4 - 0.2j, 0.7 + 0.5j, 1.3 - 0.6j),
])
def test_holo_ladder_is_the_monomial_operator(y0, y1, rho2):
    # d f' + m z f on Hermite coefficients against the numpy monomial route,
    # (P e^{c2 z^2 + c1 z})' = (P' + (2 c2 z + c1) P) e^{...}, at points
    rng = np.random.default_rng(43)
    c2, c1, d, m = 0.1 - 0.2j, 0.3 + 0.1j, 0.8 + 0.3j, -0.4 + 0.9j
    z = np.array([0.3 - 0.2j, -1.1 + 0.4j, 0.9 + 1.2j])
    for n in (1, 4, 9):
        f = HoloGauss(_random_coeffs(rng, n), c2, c1, y0, y1, rho2)
        P = Polynomial(f.poly.coeffs)
        want = d * (P.deriv() + (2 * c2 * X + c1) * P) + m * X * P
        got = f.ladder(d, m).hermite_sum(z)
        assert np.max(np.abs(got - want(z))) <= 1e-12 * np.max(np.abs(want(z)))


@pytest.mark.parametrize("y0,y1,rho2", [
    (0j, 0.6 - 0.8j, 0j), (0j, 0.6 - 0.8j, 1 + 0j), (0.4 - 0.2j, 0.7 + 0.5j, 1.3 - 0.6j),
])
def test_holo_hermite_sum_is_numpys_series(y0, y1, rho2):
    # p_k(y) = rho^k H_k(y/rho) / sqrt(2^k k!), numpy's physicists' Hermite
    # series at y/rho; at rho2 = 0 the monomials (sqrt(2) y)^k / sqrt(k!).
    # The monomial form .poly, by Horner, agrees too.
    rng = np.random.default_rng(47)
    z = np.linspace(-2.0, 2.0, 9) + 0.5j
    y, gauss = y0 + y1 * z, np.exp(0.2j * z * z - 0.1 * z)
    rho = cmath.sqrt(rho2)
    for n in (1, 2, 7):
        a = _random_coeffs(rng, n)
        f = HoloGauss(a, 0.2j, -0.1, y0, y1, rho2)
        if rho2:
            c = [ak * rho**k / math.sqrt(2**k * math.factorial(k)) for k, ak in enumerate(a)]
            want = hermval(y / rho, c) * gauss
        else:
            c = [ak * math.sqrt(2**k / math.factorial(k)) for k, ak in enumerate(a)]
            want = Polynomial(c)(y) * gauss
        assert np.max(np.abs(f(z) - want)) <= 1e-12 * np.max(np.abs(want))
        assert f(complex(z[3])) == pytest.approx(want[3], rel=1e-12)
        horner = Polynomial(f.poly.coeffs)(z) * gauss
        assert np.max(np.abs(horner - want)) <= 1e-12 * np.max(np.abs(want))


# ------------------------------------------------------------ deviation maxima


@pytest.mark.parametrize("devs", [
    [math.nan, 0.1, 0.2], [0.1, math.nan, 0.2], [0.1, 0.2, math.nan],
], ids=["first", "middle", "last"])
def test_worst_keeps_a_nan_anywhere(devs):
    # Python's max keeps a NaN only when it comes first
    assert math.isnan(_worst(devs))
    assert math.isnan(_worst(iter(devs)))


def test_worst_of_no_deviations_is_zero():
    assert _worst([]) == 0.0
    assert _worst(x for x in ()) == 0.0


def test_worst_is_the_maximum_without_nan():
    assert _worst([0.1, 3.0, 2.0]) == 3.0
    assert _worst([0.1, math.inf]) == math.inf


def test_coeff_deviation_keeps_a_nan_coefficient():
    u = ComplexPoly.from_coeffs([1.0, 2.0, 3.0])
    v = ComplexPoly.from_coeffs([1.0, complex(math.nan, 0.0), 3.0])
    assert math.isnan(coeff_deviation(u, v))
    assert math.isnan(coeff_deviation(v, u))
    assert math.isnan(coeff_deviation(u, v, collinear=True))


def test_max_coeff_diff_keeps_a_nan_coefficient():
    a = DiffOp({(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0}, h=1.0)
    b = DiffOp({(0, 0): 1.0, (1, 0): complex(math.nan, 0.0), (0, 1): 3.0}, h=1.0)
    assert math.isnan(a.max_coeff_diff(b))
    assert math.isnan(b.max_coeff_diff(a))


def _hermite_gauss_at(f, x):
    """``f(x)`` by the scalar three-term recurrence in Python complex arithmetic."""
    y = x / f.s
    prev, cur, acc = 0j, 1 + 0j, f.coeffs[0]
    for k, a in enumerate(f.coeffs[1:], 1):
        prev, cur = cur, math.sqrt(2 / k) * y * cur - math.sqrt((k - 1) / k) * prev
        acc += a * cur
    return acc * cmath.exp(f.gamma2 * x * x + f.gamma1 * x)


def test_hermite_gauss_is_evaluated_at_complex_points():
    # the function is entire: a complex x enters the polynomial as well as
    # the exponential, for arrays and for Python scalars alike
    hs = HermiteSystem(PhaseParams.classic())
    shifted = HermiteGauss.from_poly(ComplexPoly((0.5, -1j, 2.0)), -0.6 + 0.2j, 0.3 - 0.4j)
    points = [0.3 + 0.4j, -1.1 + 0.2j, 0.7 - 0.9j, 1.5 + 0j]
    for f in (hs.hermite_phi(1), hs.hermite_phi(4), shifted):
        want = [_hermite_gauss_at(f, x) for x in points]
        np.testing.assert_allclose(f(np.array(points)), want, rtol=1e-13, atol=0)
        for x, w in zip(points, want):
            assert complex(f(x)) == pytest.approx(w, rel=1e-13)
    assert complex(hs.hermite_phi(1)(0.3 + 0.4j)) == pytest.approx(0.3974 - 0.3803j, abs=1e-4)


def _hermite_sum_every_term(coeffs, y, rho2):
    """sum_k coeffs[k] p_k(y) by the three-term recurrence, every term added
    in the order of k, zero coefficients too."""
    prev, cur = 0.0, 1.0
    acc = coeffs[0] * cur
    for k, a in enumerate(coeffs[1:], 1):
        prev, cur = cur, math.sqrt(2 / k) * y * cur - prev * (rho2 * math.sqrt((k - 1) / k))
        acc = acc + a * cur
    return acc


@pytest.mark.parametrize("rho2", [0j, 1 + 0j, 1.3 - 0.6j])
def test_one_pass_of_a_family_gives_each_members_hermite_sum(rho2):
    # members of several lengths, with zero coefficients inside and in front
    # (psi_n is one coefficient after n zeros), and a constant
    rng = np.random.default_rng(53)
    z = rng.normal(size=500) * 2 + 1j * rng.normal(size=500) * 2
    family = [list(_random_coeffs(rng, n)) for n in (1, 3, 8, 20)]
    family[2][3] = family[2][5] = 0j
    family += [(0j,) * 12 + (0.7 - 0.2j,), (0j,) * 4 + (1.5j,)]
    fs = [HoloGauss(a, 0.1j, 0.2, 0.4 - 0.2j, 0.7 + 0.5j, rho2) for a in family]
    A = gaussalg._stacked([f.coeffs for f in fs])
    got = gaussalg._hermite_sums(A, 0.4 - 0.2j + (0.7 + 0.5j) * z, rho2)
    assert got.shape == (len(fs), z.size)
    for g, f in zip(got, fs):  # a one-term sum is a number: its row is that number
        assert np.array_equal(g, np.broadcast_to(f.hermite_sum(z), z.shape))
        assert np.all(g == _hermite_sum_every_term(f.coeffs, f.y0 + f.y1 * z, rho2))
