"""The banded kernel and the chains built on it, bit for bit against the
term-by-term algorithm and against chains of single functions.

The references here are written out in full: ``_apply_reference`` is the
term-by-term algorithm with its own real sqrt(2k) column, and each
reference chain steps on :class:`HermiteGauss` / :class:`HoloGauss` values,
one object per step.  A first-order line operator ``c01 hD + c10 x`` steps
as one fused band (``_fused_band``): its L and R coefficients formed once
per chain from hD's and x's, then one ``_band_reference`` per step.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from bargmann_lab.ellipse import (
    Psi0,
    Psi_n,
    Psi_n_ladder,
    apply_ladder,
    derived_constants,
    ladder_diffops,
    psi0,
    psi_family_ladder,
    psi_n_ladder,
)
from bargmann_lab.gaussalg import DiffOp, HermiteBlock, HermiteGauss, HoloGauss, apply_diffop
from bargmann_lab.hermite import HermiteSystem
from bargmann_lab.phasecore import PhaseParams, canonical_A
from bargmann_lab.suites import ELLIPSE_SETS

INDICES = (0, 1, 17, 40, 64)
PHASE_SETS = [
    (-1j, 1j, 1.0),
    (3.0, 1 + 2j, 0.5),
    (-0.7 + 0.2j, 0.3 + 0.8j, 1.0),
    (1e-3 + 2e-3j, 5 + 0.1j, 30.0),
]


def _band_reference(A, lo, hi):
    """``lo L + hi R`` on a block: its own sqrt(2k) column, both products
    formed here."""
    rt = np.sqrt(2.0 * np.arange(len(A) + 1)).reshape(-1, 1)
    out = np.zeros((len(A) + 1, A.shape[1]), complex)
    out[1:] = hi * (rt[1:] * A)
    out[:-2] += lo * (rt[1:-1] * A[1:])
    return out


def _apply_reference(op, f):
    """The coefficient array of ``op f`` for a block f, term by term: the
    powers of hD by iterated bands, then x**j by j bands, summed in sorted
    order."""
    s, minus_ih = f.s, -1j * op.h
    lo, hi, diag = minus_ih * (1 / s + f.gamma2 * s), minus_ih * f.gamma2 * s, minus_ih * f.gamma1
    terms = sorted(op.terms.items())
    powers = [f.coeffs]
    acc = np.zeros(
        (len(f.coeffs) + max((j + k for (j, k), _ in terms), default=0), f.coeffs.shape[1]), complex
    )
    with np.errstate(all="ignore"):
        for (j, k), c in terms:
            while len(powers) <= k:
                p = powers[-1]
                powers.append(_band_reference(p, lo, hi))
                if diag:
                    powers[-1][:-1] += diag * p
            term = powers[k]
            for _ in range(j):
                term = _band_reference(term, s / 2, s / 2)
            acc[: len(term)] += c * term
    return acc


def _assert_same_bits(got, want):
    """Same shape and, entry by entry, the same float64 bits in the real and
    the imaginary part (a NaN matches a NaN)."""
    got, want = np.asarray(got, complex), np.asarray(want, complex)
    assert got.shape == want.shape
    for a, b in ((got.real, want.real), (got.imag, want.imag)):
        nan = np.isnan(a)
        assert np.array_equal(nan, np.isnan(b))
        assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


# ------------------------------------------------------------- the kernel


def _random_op(rng, order, h):
    terms = {
        (j, k): complex(*rng.normal(size=2))
        for j in range(order + 1)
        for k in range(order + 1 - j)
        if rng.random() < 0.7
    }
    return DiffOp(terms, h)


def _random_ops(seed):
    rng = np.random.default_rng(seed)
    h = float(rng.uniform(0.2, 3.0))
    ops = [_random_op(rng, order, h) for order in (0, 1, 2, 3, 3)]
    a, b = _random_op(rng, 1, h), _random_op(rng, 2, h)
    ops += [a.compose(b), b.compose(a), a.add(b), a.compose(a).add(b.scale(0.5j))]
    return [op for op in ops if op.order <= 3]


def _random_block(rng, K, m, gamma1):
    A = rng.normal(size=(K, m)) + 1j * rng.normal(size=(K, m))
    gamma2 = complex(-rng.uniform(0.1, 2.0), rng.normal())
    return HermiteBlock(A, gamma2, float(rng.uniform(0.3, 3.0)), gamma1)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("gamma1", [0j, 0.4 - 1.3j])
def test_apply_diffop_is_the_term_by_term_algorithm_bit_for_bit(seed, gamma1):
    rng = np.random.default_rng(seed)
    for op in _random_ops(seed):
        for K, m in ((1, 1), (2, 3), (7, 1), (30, 4)):
            f = _random_block(rng, K, m, gamma1)
            got = apply_diffop(op, f)
            assert (got.gamma2, got.s, got.gamma1) == (f.gamma2, f.s, f.gamma1)
            _assert_same_bits(got.coeffs, _apply_reference(op, f))


@pytest.mark.parametrize(
    "bad", [math.inf, math.nan, complex(math.inf, math.nan), complex(1.0, -math.inf)]
)
def test_a_non_finite_column_stays_in_its_column(bad):
    rng = np.random.default_rng(11)
    ops = _random_ops(11)
    f = _random_block(rng, 9, 4, 0.3 + 0.2j)
    dirty = f.coeffs.copy()
    dirty[3, 1] = bad
    g = HermiteBlock(dirty, f.gamma2, f.s, f.gamma1)
    for op in ops:
        got = apply_diffop(op, g).coeffs
        _assert_same_bits(got, _apply_reference(op, g))
        clean = apply_diffop(op, f).coeffs
        _assert_same_bits(np.delete(got, 1, axis=1), np.delete(clean, 1, axis=1))


def test_a_zero_function_maps_to_itself():
    op = DiffOp({(0, 1): 1.0, (1, 0): 2.0}, 1.0)
    zero = HermiteBlock(np.array([[-0.0 + 0j]]), -0.5, 1.0)
    assert apply_diffop(op, zero) is zero


# ------------------------------------------------------------- the chains


def _fused_band(op, f):
    """``(lo, hi)`` of a first-order operator ``c01 hD + c10 x`` on the
    exponent and scale of f (no linear exponent, so no diagonal): hD's band
    times c01 plus x's band ``(s/2)(L + R)`` times c10."""
    assert f.gamma1 == 0 and op.order == 1 and set(op.terms) <= {(0, 1), (1, 0)}
    s, minus_ih = f.s, -1j * op.h
    c01, c10 = op.terms.get((0, 1), 0j), op.terms.get((1, 0), 0j)
    lo = c01 * (minus_ih * (1 / s + f.gamma2 * s)) + c10 * (s / 2)
    hi = c01 * (minus_ih * f.gamma2 * s) + c10 * (s / 2)
    return lo, hi


def _fused_step(f, lo, hi):
    """``lo L + hi R`` applied to a HermiteGauss: a new HermiteGauss."""
    a = np.array(f.coeffs).reshape(-1, 1)
    with np.errstate(all="ignore"):
        out = _band_reference(a, lo, hi)
    return HermiteGauss(out[:, 0].tolist(), f.gamma2, f.s, f.gamma1)


def _rodrigues_reference(op, core, s, n, amp, gamma2):
    """``amp e^{(gamma2 - core) x^2} op^n e^{core x^2}``, one HermiteGauss per
    step of op's fused band."""
    f = HermiteGauss((1.0,), core, s)
    lo, hi = _fused_band(op, f)
    for _ in range(n):
        f = _fused_step(f, lo, hi)
    return HermiteGauss(f.scale(amp).coeffs, gamma2, f.s)


def _holo_ladder_reference(f, d, m):
    """``d f' + m z f`` for a HoloGauss (see ``HoloGauss.ladder``)."""
    zc = 2 * d * f.c2 + m
    lo = d * f.y1 + zc * f.rho2 / (2 * f.y1)
    diag = d * f.c1 - zc * f.y0 / f.y1
    a = np.array(f.coeffs).reshape(-1, 1)
    with np.errstate(all="ignore"):
        out = _band_reference(a, lo, zc / (2 * f.y1))
        if diag:
            out[:-1] += diag * a
    return HoloGauss(out[:, 0].tolist(), f.c2, f.c1, f.y0, f.y1, f.rho2)


@pytest.mark.parametrize("B,C,h", PHASE_SETS)
def test_rodrigues_chains_are_chains_of_functions_bit_for_bit(B, C, h):
    hs = HermiteSystem(PhaseParams(canonical_A(B, C), B, C, h))
    for n in INDICES:
        phi0 = hs.hermite_phi(0)
        amp = (
            (C.imag / (math.pi * h)) ** 0.25
            / math.sqrt(math.factorial(n))
            * (-1 / math.sqrt(2 * h * C.imag)) ** n
        )
        want = _rodrigues_reference(DiffOp.hD(h), -C.imag / h, phi0.s, n, amp, phi0.gamma2)
        got = hs.rodrigues_phi(n)
        assert (got.gamma2, got.s) == (want.gamma2, want.s)
        _assert_same_bits(got.coeffs, want.coeffs)


@pytest.mark.parametrize("alpha,beta", ELLIPSE_SETS)
def test_ellipse_chains_are_chains_of_functions_bit_for_bit(alpha, beta):
    p = derived_constants(alpha, beta)
    base = Psi0(p)
    _, Pstar, _ = ladder_diffops(p)
    for n in INDICES:
        amp = p.A_ab * (-p.C_ab) ** n
        want = _rodrigues_reference(DiffOp.d_dx(1.0), -p.eigen_gap, base.s, n, amp, base.gamma2)
        _assert_same_bits(Psi_n(p, n).coeffs, want.coeffs)

        f, (lo, hi) = base, _fused_band(Pstar, base)
        for _ in range(n):
            f = _fused_step(f, lo, hi)
        want = f.scale(p.C_ab**n)
        got = Psi_n_ladder(p, n)
        assert (got.gamma2, got.s) == (want.gamma2, want.s)
        _assert_same_bits(got.coeffs, want.coeffs)

        u = psi0(p)
        for _ in range(n):
            u = _holo_ladder_reference(u, 1.0, (p.a + 2 * p.lam) / 2)
        _assert_same_bits(psi_n_ladder(p, n).coeffs, u.coeffs)


@pytest.mark.parametrize("alpha,beta", ELLIPSE_SETS)
def test_the_psi_ladder_chain_steps_on_arrays_as_on_functions_bit_for_bit(alpha, beta):
    # the chain steps on coefficient columns; each member, and each ladder
    # applied to it, is what one HoloGauss per step gives
    p = derived_constants(alpha, beta)
    n = max(INDICES) + 1
    u = psi0(p)
    for k, got in enumerate(psi_family_ladder(p, n)):
        assert (got.c2, got.c1, got.y0, got.y1, got.rho2) == (u.c2, u.c1, u.y0, u.y1, u.rho2)
        _assert_same_bits(got.coeffs, u.coeffs)
        if k in INDICES:
            _assert_same_bits(psi_n_ladder(p, k).coeffs, u.coeffs)
            for which, d, m in (
                ("lambda", 1 / p.a, 0.5),
                ("lambda_star", 1.0, (p.a + 2 * p.lam) / 2),
            ):
                want = _holo_ladder_reference(u, d, m)
                _assert_same_bits(apply_ladder(p, which, got).coeffs, want.coeffs)
        u = _holo_ladder_reference(u, 1.0, (p.a + 2 * p.lam) / 2)


# ------------------------------------------------- accuracy against 50 digits
#
# In exact arithmetic each line chain lands on one coefficient: P*_ab has
# no L part on Psi_0's own Gaussian, and hD and d/dx none on the Rodrigues
# cores e^{-x^2/s^2} at their scale s.  So phi_n = (-i)^n (Im C/pi h)^{1/4}
# eta_n, which hermite_phi builds in closed form, and Psi_n = A_ab
# (C_ab/s)^n sqrt(2^n n!) eta_n with s = sqrt((1 + beta^2)/alpha^2), on both
# routes.  The references take the same double parameters, in 50 digits;
# the error is the largest coefficient deviation relative to the one
# coefficient of the reference, and grows with the chain length.

ACCURACY_INDICES = (16, 32, 64)
EPS = np.finfo(float).eps


def _relative_error(coeffs, n, ref):
    worst = max(abs(mp.mpc(c) - (ref if k == n else 0)) for k, c in enumerate(coeffs))
    assert len(coeffs) == n + 1
    return float(worst / abs(ref))


def _phi_amplitude(C, h):
    """(Im C/pi h)^{1/4}, in the working precision."""
    return (mp.mpf(C.imag) / (mp.pi * mp.mpf(h))) ** mp.mpf(0.25)


@pytest.mark.parametrize("B,C,h", PHASE_SETS)
def test_phi_chains_are_within_round_off_of_the_50_digit_coefficient(B, C, h):
    hs = HermiteSystem(PhaseParams(canonical_A(B, C), B, C, h))
    with mp.workdps(50):
        amp = _phi_amplitude(C, h)
        for n in ACCURACY_INDICES:
            ref = (-1j) ** n * amp
            f = hs.rodrigues_phi(n)
            assert _relative_error(f.coeffs, n, ref) <= 1e-14 * n


@pytest.mark.parametrize("B,C,h", PHASE_SETS)
def test_phi_in_closed_form_is_within_2_eps_of_the_50_digit_coefficient(B, C, h):
    # one rounded amplitude times an exact power of -i, at every index
    hs = HermiteSystem(PhaseParams(canonical_A(B, C), B, C, h))
    with mp.workdps(50):
        amp = _phi_amplitude(C, h)
        for n in range(65):
            assert _relative_error(hs.hermite_phi(n).coeffs, n, (-1j) ** n * amp) <= 2 * EPS


@pytest.mark.parametrize("alpha,beta", ELLIPSE_SETS)
def test_Psi_chains_are_within_round_off_of_the_50_digit_coefficient(alpha, beta):
    p = derived_constants(alpha, beta)
    with mp.workdps(50):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        conj_a = mp.mpc(a * a + b * b - 1, -2 * b) / (a * a + b * b + 1)
        C_ab = (1 - conj_a) / (2 * conj_a)
        A_ab = mp.pi ** mp.mpf(0.25) * mp.sqrt((a * a + b * b + 1) / mp.mpc(1, -b))
        s = mp.sqrt((1 + b * b) / (a * a))
        for n in ACCURACY_INDICES:
            ref = A_ab * (C_ab / s) ** n * mp.sqrt(2**n * mp.factorial(n))
            for f in (Psi_n(p, n), Psi_n_ladder(p, n)):
                assert _relative_error(f.coeffs, n, ref) <= 1e-14 * n
