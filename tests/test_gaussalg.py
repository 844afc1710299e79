"""Exact Gaussian algebra: integrals, moments, line inner products, operators.

Closed forms are cross-checked against adaptive quadrature (scipy) and
200-node Gauss-Hermite oracles; algebraic identities are exercised with
hypothesis on bounded random inputs.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, seed, strategies as st
from scipy.integrate import quad

from bargmann_lab.gaussalg import (
    DEGREE_CAP,
    ComplexPoly,
    DegreeCapError,
    DiffOp,
    DomainError,
    HermiteGauss,
    HoloGauss,
    PolyGauss,
    apply_diffop,
    gauss_integral,
    gaussian_moment,
    holo_differentiate,
    holo_multiply_z,
    holo_scale,
    holo_add,
    inner_product_line,
    norm_line,
    _convolve,
    _residual_ratio,
    _moments,
    _worst,
    coeff_deviation,
)

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


# ------------------------------------------------------------------- moments


def test_gaussian_moment_pure_gaussian():
    assert gaussian_moment(-1.0, 0.0, 0) == pytest.approx(SQRT_PI, rel=1e-15)
    assert gaussian_moment(-1.0, 0.0, 2) == pytest.approx(SQRT_PI / 2, rel=1e-15)
    # odd moments of a centered Gaussian vanish identically
    assert gaussian_moment(-1.0, 0.0, 3) == 0


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


def test_gaussian_moment_rejects_nonintegrable():
    with pytest.raises(DomainError):
        gaussian_moment(0.5, 0.0, 2)


# ------------------------------------------------------------ inner products


def _ground_state():
    # unit-norm Gaussian exp(-x^2/2) / pi^{1/4}
    return PolyGauss(ComplexPoly((math.pi ** -0.25,)), -0.5 + 0j, 0j)


def test_ground_state_normalized():
    f = _ground_state()
    assert abs(inner_product_line(f, f) - 1) <= 1e-14


def test_inner_product_zero_absorbs():
    f = _ground_state()
    z = PolyGauss(ComplexPoly((0j,)), -0.5 + 0j, 0j)
    assert inner_product_line(f, z) == 0
    assert inner_product_line(z, f) == 0


def test_inner_product_vs_gauss_hermite_oracle():
    # fixed pair; oracle below is a 200-node Gauss-Hermite evaluation
    f = PolyGauss(ComplexPoly((0.3 + 0.2j, 1.1 - 0.4j, 0.25j)), -0.8 + 0.3j, 0.2 - 0.1j)
    g = PolyGauss(ComplexPoly((1.0 + 0j, -0.6j)), -0.5 - 0.2j, -0.3 + 0.4j)
    oracle = 0.24948108103044242 + 0.550323687209984j
    got = inner_product_line(f, g)
    assert abs(got - oracle) <= REL_LINE * abs(oracle)


def test_nonintegrable_exponent_rejected_at_construction():
    with pytest.raises(DomainError):
        PolyGauss(ComplexPoly((1.0 + 0j,)), 0.25 + 0j, 0j)


coeff = st.complex_numbers(min_magnitude=0, max_magnitude=3, allow_nan=False,
                           allow_infinity=False)


def _pg(c0, c1, g2im, g1):
    return PolyGauss(ComplexPoly((c0, c1)), complex(-0.7, g2im), g1)


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


@seed(1)
@given(c0=coeff, c1=coeff, g=st.floats(-0.4, 0.4))
def test_conjugation_involution(c0, c1, g):
    f = _pg(c0, c1, g, 0.2 - 0.3j)
    back = f.conj().conj()
    assert back.gamma2 == f.gamma2 and back.gamma1 == f.gamma1
    assert all(abs(a - b) <= TOL_EXACT for a, b in zip(back.poly.coeffs, f.poly.coeffs))


def test_norm_line_matches_self_inner_product():
    f = PolyGauss(ComplexPoly((0.7 - 0.1j, 0.4j, 1.2)), -0.9 + 0.2j, 0.3 - 0.2j)
    assert norm_line(f) == pytest.approx(
        math.sqrt(inner_product_line(f, f).real), rel=1e-13)


# ------------------------------------- bulk kernel against per-term reference


def _convolve_reference(a, b):
    """The per-term convolution: one fsum per part over each anti-diagonal."""
    la, lb = len(a), len(b)
    out = []
    for k in range(la + lb - 1):
        re, im = [], []
        for i in range(max(0, k - lb + 1), min(k + 1, la)):
            ai, bj = a[i], b[k - i]
            re += [ai.real * bj.real, -ai.imag * bj.imag]
            im += [ai.real * bj.imag, ai.imag * bj.real]
        out.append(complex(math.fsum(re), math.fsum(im)))
    return out


def _inner_reference(f, g):
    """Per-term moment expansion: every binomial term in one fsum."""
    gc = g.conj()
    g2, g1 = f.gamma2 + gc.gamma2, f.gamma1 + gc.gamma1
    prod = _convolve_reference(f.poly.coeffs, gc.poly.coeffs)
    even = [cmath.sqrt(math.pi / -g2)]
    for m in range(1, (len(prod) - 1) // 2 + 1):
        even.append(even[-1] * (2 * m - 1) / (-2 * g2))
    shift = -g1 / (2 * g2)
    re, im = [], []
    for k, ck in enumerate(prod):
        if ck == 0:
            continue
        for j in range(0, k + 1, 2):
            t = ck * (math.comb(k, j) * shift ** (k - j) * even[j // 2])
            re.append(t.real)
            im.append(t.imag)
    return cmath.exp(-g1 * g1 / (4 * g2)) * complex(math.fsum(re), math.fsum(im))


def _random_coeffs(rng, n, spread=False):
    mag = 10.0 ** rng.uniform(-5, 15, size=n) if spread else np.ones(n)
    return tuple(
        complex(re, im) for re, im in zip(mag * rng.normal(size=n), mag * rng.normal(size=n))
    )


@pytest.mark.parametrize("spread", [False, True])
def test_convolve_bit_identical_to_per_term_reference(spread):
    rng = np.random.default_rng(7)
    shapes = [(1, 1), (1, 9), (9, 1), (2, 17), (17, 2), (12, 12), (41, 30)]
    shapes += [tuple(int(v) for v in rng.integers(1, 42, size=2)) for _ in range(200)]
    for la, lb in shapes:
        a = _random_coeffs(rng, la, spread)
        b = _random_coeffs(rng, lb, spread)
        want = _convolve_reference(a, b)
        assert _convolve(a, b) == want
        assert _convolve(a, b, 2) == want[::2]


_SIGNED_ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


def _parity_coeffs(rng, n, parity, spread=False):
    """Random coefficients at indices of one parity, signed zeros elsewhere."""
    c = _random_coeffs(rng, n, spread)
    return tuple(
        x if i % 2 == parity else _SIGNED_ZEROS[int(rng.integers(4))]
        for i, x in enumerate(c)
    )


@pytest.mark.parametrize("spread", [False, True])
def test_convolve_parity_split_bit_identical_to_reference(spread):
    # definite and opposite parity (halves skipped), lengths 1 and 2, and
    # dense factors; repr also tells signed zeros apart
    rng = np.random.default_rng(17)
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 9), (2, 17), (41, 41)]
    shapes += [tuple(int(v) for v in rng.integers(1, 42, size=2)) for _ in range(100)]
    for la, lb in shapes:
        for pa, pb in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            a = _parity_coeffs(rng, la, pa, spread)
            b = _parity_coeffs(rng, lb, pb, spread)
            dense = _random_coeffs(rng, lb, spread)
            assert repr(_convolve(a, b, 2)) == repr(_convolve_reference(a, b)[::2])
            assert repr(_convolve(a, dense, 2)) == repr(_convolve_reference(a, dense)[::2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_convolve_keeps_non_finite_against_an_all_zero_half(bad, at):
    # the half holding the bad coefficient faces exact zeros: 0 * inf is NaN,
    # so that half must not be skipped
    a = [0.5 + 1j, -0.25j, 2.0 + 0j, 1.5 - 0.5j, 0.75 + 0j]
    a[at] = complex(bad, 1.0)
    a = tuple(a)
    for b in [(0j, 1 + 1j, 0j, -2j), (1 - 1j, 0j, 0.5j, 0j, 3.0 + 0j), (0j, 0j), (0j,), (2j,)]:
        for x, y in [(a, b), (b, a)]:
            assert repr(_convolve(x, y, 2)) == repr(_convolve_reference(x, y)[::2])


def _apply_diffop_reference(op, f):
    """The object-based apply_diffop: ComplexPoly arithmetic per step and term."""
    if f.is_zero:
        return f
    hd_powers = [f.poly]

    def hd_power(k):
        while len(hd_powers) <= k:
            p = hd_powers[-1]
            hd_powers.append(
                (
                    p.derivative()
                    + p.shift_up().scale(2 * f.gamma2)
                    + p.scale(f.gamma1)
                ).scale(-1j * op.h)
            )
        return hd_powers[k]

    acc = ComplexPoly.zero()
    for (j, k), c in sorted(op.terms.items()):
        acc = acc + hd_power(k).shift_up(j).scale(c)
    return PolyGauss(acc, f.gamma2, f.gamma1)


def _outcome(fn, op, f):
    try:
        g = fn(op, f)
    except DegreeCapError as exc:
        return f"DegreeCapError: {exc}"
    return repr((g.poly.coeffs, g.gamma2, g.gamma1))


def test_apply_diffop_bit_identical_to_object_reference():
    rng = np.random.default_rng(19)
    caps = 0
    for trial in range(1200):
        n = int(rng.integers(1, DEGREE_CAP + 2))
        coeffs = (
            _parity_coeffs(rng, n, int(rng.integers(2)), spread=bool(trial % 2))
            if trial % 3
            else _random_coeffs(rng, n, spread=bool(trial % 2))
        )
        g1 = 0j if trial % 4 < 2 else complex(*rng.uniform(-1, 1, size=2))
        f = PolyGauss(
            ComplexPoly.from_coeffs(coeffs), complex(-rng.uniform(0.1, 2), rng.uniform(-2, 2)), g1
        )
        terms = {
            (int(rng.integers(4)), int(rng.integers(4))): complex(*rng.normal(size=2))
            for _ in range(int(rng.integers(1, 6)))
        }
        op = DiffOp(terms, float(10 ** rng.uniform(-2, 1)))
        want = _outcome(_apply_diffop_reference, op, f)
        assert _outcome(apply_diffop, op, f) == want
        caps += want.startswith("DegreeCapError")
    assert caps >= 50


def _random_pg(rng, n, g1):
    return PolyGauss(
        ComplexPoly.from_coeffs(_random_coeffs(rng, n)),
        complex(-rng.uniform(0.2, 1.0), rng.uniform(-1, 1)),
        g1,
    )


def test_inner_product_bit_identical_without_linear_exponent():
    rng = np.random.default_rng(3)
    for _ in range(300):
        la, lb = (int(v) for v in rng.integers(1, 30, size=2))
        f, g = _random_pg(rng, la, 0j), _random_pg(rng, lb, 0j)
        assert inner_product_line(f, g) == _inner_reference(f, g)


def test_inner_product_close_with_linear_exponent():
    rng = np.random.default_rng(5)
    for _ in range(300):
        la, lb = (int(v) for v in rng.integers(1, 12, size=2))
        f = _random_pg(rng, la, complex(*rng.uniform(-0.5, 0.5, size=2)))
        g = _random_pg(rng, lb, complex(*rng.uniform(-0.5, 0.5, size=2)))
        got, want = inner_product_line(f, g), _inner_reference(f, g)
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("bad", [math.nan, complex(math.inf, 0.0)])
@pytest.mark.parametrize("other", [(1.0,), (0.5, -0.2j, 1.0)])
def test_non_finite_coefficient_gives_non_finite_inner_product(bad, other):
    # the bad coefficient sits at an odd power, whose moment vanishes
    f = PolyGauss(ComplexPoly((1.0 + 0j, complex(bad))), -0.5 + 0j)
    g = PolyGauss(ComplexPoly(tuple(map(complex, other))), -0.5 + 0j)
    assert not cmath.isfinite(inner_product_line(f, g))
    assert not cmath.isfinite(inner_product_line(g, f))


@pytest.mark.parametrize("g1", [0j, 0.4 - 0.3j])
def test_gaussian_moment_agrees_with_moments(g1):
    g2 = -0.8 + 0.25j
    m = _moments(g2, g1, 12)
    prefac = cmath.exp(-g1 * g1 / (4 * g2))
    assert [gaussian_moment(g2, g1, k) for k in range(13)] == [prefac * v for v in m]
    if g1 == 0:
        assert m[1::2] == [0j] * 6


# -------------------------------------------------------------------- DiffOp


def test_diffop_identity_fixes_everything():
    ident = DiffOp({(0, 0): 1.0 + 0j}, h=1.0)
    f = PolyGauss(ComplexPoly((0.3, 1.0 - 2j)), -0.6 + 0.1j, 0.2j)
    g = apply_diffop(ident, f)
    assert g.gamma2 == f.gamma2 and g.gamma1 == f.gamma1
    assert all(abs(a - b) <= TOL_EXACT for a, b in zip(g.poly.coeffs, f.poly.coeffs))


def test_diffop_hD_on_gaussian():
    # hD = -ih d/dx sends exp(-x^2/2) to i x exp(-x^2/2) at h = 1
    f = PolyGauss(ComplexPoly((1.0 + 0j,)), -0.5 + 0j, 0j)
    g = apply_diffop(DiffOp({(0, 1): 1.0 + 0j}, h=1.0), f)
    assert g.gamma2 == f.gamma2
    assert abs(g.poly.coeffs[0]) <= TOL_EXACT
    assert abs(g.poly.coeffs[1] - 1j) <= TOL_EXACT


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
    f = PolyGauss(ComplexPoly((1.0 + 0j,)), -0.5 + 0j, 0j)

    def raising(err):
        def apply(g):
            raise err
        return apply

    assert _residual_ratio(norm_line, raising(DegreeCapError("cap")), f, 1.0) == math.inf
    assert _residual_ratio(norm_line, raising(ValueError("-inf + inf in fsum")), f, 1.0) == math.inf
    with pytest.raises(DomainError, match="not integrable"):
        _residual_ratio(norm_line, raising(DomainError("not integrable")), f, 1.0)


@pytest.mark.parametrize("f", [
    PolyGauss(ComplexPoly((1.0 + 0j, 0.5j)), -0.5 + 0j, 0j),
    HermiteGauss((1.0 + 0j, 0.5j), -0.5 + 0j, 1.0),
], ids=["PolyGauss", "HermiteGauss"])
def test_residual_ratio_of_nan_coefficients_is_inf(f):
    # norm(f) is finite, apply(f) has NaN coefficients: the NaN ratio that
    # fsum and max(nan, 0.0) let through must read as unevaluable
    assert math.isfinite(norm_line(f))
    assert _residual_ratio(norm_line, lambda g: g.scale(math.nan), f, 1.0) == math.inf


# ------------------------------------------------------------- HermiteGauss


def _hermite_form(rng, n, s=0.8, chirp=0.3):
    """A random HermiteGauss on its own Gaussian, exp(-x^2/(2 s^2) + i chirp x^2)."""
    return HermiteGauss(_random_coeffs(rng, n), complex(-0.5 / s**2, chirp), s)


def test_hermite_form_values_and_monomial_form_agree():
    # the three-term recurrence at points, against Horner on the monomial form
    rng = np.random.default_rng(23)
    x = np.linspace(-3.0, 3.0, 25)
    for n in (1, 2, 5, 12):
        f = _hermite_form(rng, n)
        mono = PolyGauss(f.poly, f.gamma2)
        want = np.array([mono(t) for t in x])
        assert np.max(np.abs(f(x) - want)) <= 1e-12 * np.max(np.abs(want))
        assert f(0.7) == pytest.approx(mono(0.7), rel=1e-12)


def test_hermite_form_inner_product_is_the_moment_route():
    # the diagonal sum against the closed-form moments of the monomial forms
    rng = np.random.default_rng(29)
    for la, lb in ((1, 1), (3, 5), (8, 8)):
        f, g = _hermite_form(rng, la), _hermite_form(rng, lb)
        want = inner_product_line(PolyGauss(f.poly, f.gamma2), PolyGauss(g.poly, g.gamma2))
        assert abs(inner_product_line(f, g) - want) <= 1e-12 * norm_line(f) * norm_line(g)
        assert norm_line(f) == pytest.approx(math.sqrt(inner_product_line(f, f).real), rel=1e-13)


def test_hermite_form_operators_are_the_monomial_operators():
    rng = np.random.default_rng(31)
    op = DiffOp({(0, 2): 0.5, (2, 0): 1.5 - 0.5j, (1, 1): 0.25j, (0, 0): 2.0, (3, 1): 0.1}, h=0.7)
    for n in (1, 4, 9):
        f = _hermite_form(rng, n)
        got = apply_diffop(op, f)
        want = apply_diffop(op, PolyGauss(f.poly, f.gamma2))
        assert isinstance(got, HermiteGauss) and (got.gamma2, got.s) == (f.gamma2, f.s)
        assert coeff_deviation(want.poly, got.poly) <= 1e-12


def test_hermite_form_images_pass_the_cap_but_their_monomial_form_does_not():
    f = HermiteGauss((0j,) * DEGREE_CAP + (1.0 + 0j,), -0.5 + 0j, 1.0)
    g = apply_diffop(DiffOp({(2, 0): 1.0}, h=1.0), f)  # index 66: transient
    assert len(g.coeffs) == DEGREE_CAP + 3
    assert norm_line(g) > 0
    with pytest.raises(DegreeCapError):
        g.poly


def test_hermite_form_off_its_own_basis_goes_monomial():
    rng = np.random.default_rng(37)
    f, g = _hermite_form(rng, 4), _hermite_form(rng, 3, s=0.6)
    monos = [PolyGauss(h.poly, h.gamma2) for h in (f, g)]
    assert inner_product_line(f, g) == inner_product_line(*monos)
    total = f.add(g.scale(0.0)).add(f)
    assert isinstance(total, HermiteGauss) and total.coeffs == tuple(2 * c for c in f.coeffs)
    with pytest.raises(DomainError):
        f.add(g)  # different exponents do not add in either form


@pytest.mark.parametrize("alpha,beta", [(2.0, 0.0), (2.0, 1.0), (0.5, 3.0)])
def test_mixed_pairs_equal_the_calls_on_the_monomial_form(alpha, beta):
    # the bridge check's calls, diagonal sums (Psi_n and phi share their
    # Gaussian), against the same calls with phi's monomial PolyGauss, a mixed
    # pair, which goes through the moment route
    from bargmann_lab import bargmann, ellipse, hermite

    p = ellipse.derived_constants(alpha, beta)
    hs = hermite.HermiteSystem(ellipse.bridge_params(p))
    for d in (0, 3, 8):
        big = ellipse.Psi_n(p, d)
        phi = hs.hermite_phi(d)
        mono = PolyGauss(phi.poly, phi.gamma2)
        ip = inner_product_line(big, phi)
        assert ip == pytest.approx(inner_product_line(big, mono), rel=1e-12)
        assert inner_product_line(phi, big) == pytest.approx(inner_product_line(mono, big), rel=1e-12)
        assert norm_line(phi) == pytest.approx(norm_line(mono), rel=1e-12)
        c = ip / inner_product_line(phi, phi)
        got, want = big.add(phi.scale(c)), big.add(mono.scale(c))
        assert coeff_deviation(want.poly, got.poly) <= 1e-12
        assert norm_line(big.add(phi.scale(-c))) == pytest.approx(
            norm_line(big.add(mono.scale(-c))), rel=1e-12, abs=1e-12 * norm_line(big))
        U, V = bargmann.transform(hs.params, phi), bargmann.transform(hs.params, mono)
        assert (U.c2, U.c1) == (V.c2, V.c1)
        assert coeff_deviation(V.poly, U.poly) <= 1e-12


# ---------------------------------------------------------------- HoloGauss


def test_holo_differentiate_square():
    f = HoloGauss(ComplexPoly((0j, 0j, 1.0 + 0j)), 0j, 0j)  # z^2
    df = holo_differentiate(f)
    assert df.poly.coeffs == (0j, 2.0 + 0j)


def test_holo_ladder_annihilates_matching_gaussian():
    # (d/dz + cz) applied to exp(-c z^2 / 2) vanishes identically
    c = 0.3 + 0.1j
    f = HoloGauss(ComplexPoly((1.0 + 0j,)), -c / 2, 0j)
    out = holo_add(holo_differentiate(f), holo_scale(holo_multiply_z(f), c))
    assert out.is_zero or all(abs(a) <= TOL_EXACT for a in out.poly.coeffs)


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
