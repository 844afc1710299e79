"""Two-component oscillator in the commutative regime."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from bargmann_lab import ncho
from bargmann_lab.gaussalg import (
    ComplexPoly,
    DiffOp,
    DomainError,
    HermiteGauss,
    _residual_ratio,
    apply_diffop,
)
from bargmann_lab.hermite import HermiteSystem
from bargmann_lab.ncho import (
    NchoParams,
    VecFun2,
    apply_Q,
    block_ops,
    combined_gram,
    eigenfunction_vec,
    eigenvalue,
    hermite_bridge,
    nu,
    spectrum_check,
    vec_inner,
    vec_norm,
)

from bargmann_lab.suites import NCHO_ALPHAS, NCHO_PLANCKS, TOL_ALGEBRA

SQRT3 = math.sqrt(3.0)


def test_params_require_elliptic_regime():
    with pytest.raises(DomainError):
        NchoParams(1.0, 1.0)
    with pytest.raises(DomainError):
        NchoParams(0.5, 1.0)


def test_nu_reference_values():
    assert nu(NchoParams(2.0, 1.0), +1) == pytest.approx((1 + 1j * SQRT3) / 2)
    got = nu(NchoParams(math.sqrt(2.0), 1.0), -1)
    assert got == pytest.approx((-1 + 1j) / math.sqrt(2.0))


@pytest.mark.parametrize("alpha", [1.1, 3.0, 10.0])
def test_nu_on_unit_circle_upper_half(alpha):
    for sign in (+1, -1):
        v = nu(NchoParams(alpha, 1.0), sign)
        assert abs(abs(v) - 1) <= 1e-14
        assert v.imag > 0


def test_ground_eigenvector_explicit():
    # upper component is (1/sqrt2) (sqrt3/(2 pi))^{1/4} e^{-sqrt3 x^2/4 - i x^2/4}
    F = eigenfunction_vec(NchoParams(2.0, 1.0), +1, 0)
    assert abs(F.upper.coeffs[0] - (SQRT3 / (2 * math.pi)) ** 0.25 / math.sqrt(2)) <= 1e-14
    assert abs(F.upper.gamma2 - (-SQRT3 / 4 - 0.25j)) <= 1e-14
    # lower component sits at exactly +i times the upper
    assert F.lower.coeffs[0] / F.upper.coeffs[0] == 1j


def test_eigenvectors_normalized():
    p = NchoParams(1.5, 0.5)
    for sign in (+1, -1):
        for n in range(6):
            assert abs(vec_norm(eigenfunction_vec(p, sign, n)) - 1) <= 1e-10


def test_cross_sign_orthogonality():
    p = NchoParams(2.0, 1.0)
    for m in range(7):
        for n in range(7):
            ip = vec_inner(
                eigenfunction_vec(p, +1, m), eigenfunction_vec(p, -1, n)
            )
            assert ip == 0  # the (1, i) / (1, -i) pairing kills it outright


def test_same_sign_orthogonality():
    p = NchoParams(2.0, 1.0)
    ip = vec_inner(eigenfunction_vec(p, +1, 2), eigenfunction_vec(p, +1, 3))
    assert abs(ip) <= 1e-10


def test_apply_Q_scales_ground_state():
    p = NchoParams(2.0, 1.0)
    F = eigenfunction_vec(p, +1, 0)
    G = apply_Q(p, F)
    want = F.scale(SQRT3 / 2)
    for a, b in (
        (G.upper.coeffs, want.upper.coeffs),
        (G.lower.coeffs, want.lower.coeffs),
    ):
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12


def test_apply_Q_zero():
    p = NchoParams(2.0, 1.0)
    z = HermiteGauss.from_poly(ComplexPoly((0j,)), -0.5 + 0j, 0j)
    G = apply_Q(p, VecFun2(z, z))
    assert G.upper.is_zero and G.lower.is_zero


def test_apply_Q_matches_operator_matrix_oracle():
    # independent route: scalar blocks assembled directly as operators,
    # Q = [[S, -T], [T, S]] with S = (alpha/2)((hD)^2 + x^2), T = i x hD + h/2
    p = NchoParams(2.0, 1.0)
    S = DiffOp({(0, 2): p.alpha / 2, (2, 0): p.alpha / 2}, h=p.h)
    T = DiffOp({(1, 1): 1j, (0, 0): p.h / 2}, h=p.h)
    f = HermiteGauss.from_poly(ComplexPoly((0.7 + 0.2j, -0.3j, 1.1)), -0.6 + 0.1j, 0.2 - 0.1j)
    zero = HermiteGauss.from_poly(ComplexPoly((0j,)), f.gamma2, f.gamma1)
    G = apply_Q(p, VecFun2(f, zero))
    up = apply_diffop(S, f)
    lo = apply_diffop(T, f)
    devs = [
        max(abs(x - y) for x, y in zip(G.upper.coeffs, up.coeffs)),
        max(abs(x - y) for x, y in zip(G.lower.coeffs, lo.coeffs)),
    ]
    assert max(devs) <= 1e-12


def test_conjugated_action_stays_block_diagonal():
    # pushing (f, i f)/sqrt2 through Q must stay on the (1, i) line and act
    # there as the + block operator
    rng = np.random.default_rng(29)
    p = NchoParams(1.5, 1.0)
    Hplus = block_ops(p, +1)
    for _ in range(5):
        f = HermiteGauss.from_poly(
            ComplexPoly(tuple(complex(*rng.normal(size=2)) for _ in range(3))),
            complex(-0.5 - rng.uniform(0, 0.8), 0.3 * rng.normal()),
            0.2 * complex(*rng.normal(size=2)),
        )
        G = apply_Q(p, VecFun2(f.scale(1 / math.sqrt(2)), f.scale(1j / math.sqrt(2))))
        scale = max(abs(c) for c in G.upper.coeffs)
        off = max(
            abs(lo - 1j * up)
            for up, lo in zip(G.upper.coeffs, G.lower.coeffs)
        )
        assert off <= 1e-12 * max(scale, 1.0)
        want = apply_diffop(Hplus, f).scale(1 / math.sqrt(2))
        dev = max(abs(x - y) for x, y in zip(G.upper.coeffs, want.coeffs))
        assert dev <= 1e-12 * max(scale, 1.0)


def test_block_operator_equals_bridged_system():
    for alpha, h in ((1.5, 1.0), (2.0, 0.5), (5.0, 1.0)):
        p = NchoParams(alpha, h)
        for sign in (+1, -1):
            hs = hermite_bridge(p, sign)
            assert block_ops(p, sign).max_coeff_diff(hs.ladder_ops()[2]) <= 1e-12


def test_spectrum_values_and_residuals():
    p = NchoParams(2.0, 1.0)
    rows = spectrum_check(p, 4)
    by_key = {(r["sign"], r["n"]): r for r in rows}
    assert by_key[("+", 0)]["lambda"] == pytest.approx(SQRT3 / 2, rel=1e-14)
    assert by_key[("+", 1)]["lambda"] == pytest.approx(3 * SQRT3 / 2, rel=1e-14)
    assert by_key[("+", 1)]["lambda"] == by_key[("-", 1)]["lambda"]  # multiplicity 2
    assert all(r["residual"] <= 1e-10 for r in rows)
    lams = [by_key[("+", n)]["lambda"] for n in range(4)]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_spectrum_scaled_parameters():
    p = NchoParams(5.0, 0.5)
    gap = math.sqrt(24.0) / 4
    for n in range(5):
        assert eigenvalue(p, n) == pytest.approx(gap * (2 * n + 1), rel=1e-14)


def test_combined_gram_identity():
    p = NchoParams(2.0, 1.0)
    vecs = [
        eigenfunction_vec(p, sign, n) for sign in (+1, -1) for n in range(9)
    ]
    worst = 0.0
    for i, F in enumerate(vecs):
        for j, G in enumerate(vecs):
            val = vec_inner(F, G)
            worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    assert worst <= 1e-10


@pytest.mark.parametrize("alpha", NCHO_ALPHAS)
@pytest.mark.parametrize("h", NCHO_PLANCKS)
def test_spectrum_certifies_to_degree_64(alpha, h):
    # Q Phi_63 reaches index 65: a transient image, not capped
    rows = spectrum_check(NchoParams(alpha, h), 64)
    assert {r["sign"] for r in rows} == {"+", "-"} and len(rows) == 128
    assert all(r["residual"] <= TOL_ALGEBRA for r in rows)


def _vec_residual(p, F, lam):
    """||Q F - lam F|| / ||F|| on both components of F (a VecFun2, or one of
    blocks with one lam per column): the reference for spectrum_check."""
    return _residual_ratio(vec_norm, lambda G: apply_Q(p, G), F, lam)


def _single_residuals(p, N):
    """The residual of each Phi_{alpha,sign,n} alone, by (n, sign)."""
    return {
        (tag, n): _vec_residual(p, eigenfunction_vec(p, sign, n), eigenvalue(p, n))
        for n in range(N)
        for sign, tag in ((+1, "+"), (-1, "-"))
    }


@pytest.mark.parametrize("alpha,h", [(1.5, 1.0), (5.0, 0.5)])
def test_spectrum_residuals_are_the_single_function_residuals(alpha, h):
    # the spectrum applies Q once per sign to all members; each entry is
    # the residual of its member alone, to round-off
    p = NchoParams(alpha, h)
    single = _single_residuals(p, 41)
    rows = spectrum_check(p, 41)
    assert len(rows) == 82 and {r["sign"] for r in rows} == {"+", "-"}
    for r in rows:
        want = single[(r["sign"], r["n"])]
        assert abs(r["residual"] - want) <= 1e-14 * want, (r["sign"], r["n"])


@seed(28)
@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(1.0, 6.0, exclude_min=True),
    h=st.floats(-3.0, 3.0).map(lambda e: 10.0**e) | st.sampled_from([1e-200, 1e300]),
    N=st.sampled_from([1, 2, 11, 41, 64]),
)
def test_spectrum_check_is_the_two_component_residual_bit_for_bit(alpha, h, N):
    # the residual from the upper component alone is the one of Q applied
    # to both components, to the last bit, inf entries included
    p = NchoParams(alpha, h)
    lams = [eigenvalue(p, n) for n in range(N)]
    rows = spectrum_check(p, N)
    for sign, tag in ((+1, "+"), (-1, "-")):
        want = _vec_residual(p, ncho._eigen_block(p, sign, N), lams)
        got = [r["residual"] for r in rows if r["sign"] == tag]
        assert np.array(got).tobytes() == np.array(want).tobytes(), (sign, got, want)


def test_nan_member_is_inf_in_its_own_entry_only(monkeypatch):
    p = NchoParams(2.0, 1.0)
    want = _single_residuals(p, 9)
    phi_block = HermiteSystem.phi_block

    def nan_at_5(self, N):
        return phi_block(self, N).scale([math.nan if n == 5 else 1.0 for n in range(N)])

    monkeypatch.setattr(HermiteSystem, "phi_block", nan_at_5)
    for r in spectrum_check(p, 9):
        single = want[(r["sign"], r["n"])]
        if r["n"] == 5:
            assert r["residual"] == math.inf
        else:
            assert abs(r["residual"] - single) <= 1e-14 * single


@pytest.mark.parametrize("alpha,h", [(1.5, 1.0), (2.0, 1e-200)])
def test_combined_gram_is_the_per_pair_vec_inner(alpha, h):
    p = NchoParams(alpha, h)
    n = 12
    G, dev = combined_gram(p, n)
    vecs = [eigenfunction_vec(p, sign, k) for k in range(n) for sign in (+1, -1)]
    for i, F in enumerate(vecs):
        for j, H in enumerate(vecs):
            assert abs(G[i][j] - vec_inner(F, H)) <= 1e-14, (i, j)
    assert dev <= 1e-14
