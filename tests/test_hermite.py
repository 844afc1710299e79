"""Generalized Hermite systems: ladder construction, spectra, orthonormality.

Every identity here has two independent routes: the ladder recursion versus
the Rodrigues formula for the functions themselves, exact coefficient sums
versus adapted quadrature for the Gram matrices, and closed-form eigenvalues
versus applying the differential operator and measuring the defect.
"""

import cmath
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from bargmann_lab.bargmann import inner_product_HPhi
from bargmann_lab.gaussalg import (
    ComplexPoly,
    DegreeCapError,
    DiffOp,
    HermiteGauss,
    apply_diffop,
    inner_product_line,
    norm_line,
)
from bargmann_lab.hermite import HermiteSystem, gram_deviation
from bargmann_lab.phasecore import PhaseParams, canonical_A
from bargmann_lab.suites import (
    HERMITE_PARAM_SETS,
    TOL_ALGEBRA,
    TOL_GRAM_QUAD,
    hermite_eigen_checks,
)

TOL_EXACT_GRAM = 1e-10
TOL_QUAD_GRAM = 1e-6
TOL_LADDER = 1e-10

# (B, C, h) triples used throughout; first is the classic configuration
PARAM_SETS = [
    (-1j, 1j, 1.0),
    (3.0, 1 + 2j, 0.5),
    (2.0, 0.5 + 1j, 1.0),
    (-0.7 + 0.2j, 0.3 + 0.8j, 1.0),
]


def _system(B, C, h):
    return HermiteSystem.from_bch(B, C, h)


# ------------------------------------------------------------ the functions


def test_ground_state_shape():
    """phi_0 is the matched Gaussian with the normalizing fourth root."""
    for B, C, h in PARAM_SETS:
        f = _system(B, C, h).hermite_phi(0)
        C = complex(C)
        assert len(f.coeffs) == 1
        assert abs(f.gamma2 - (-1j * C.conjugate() / (2 * h))) <= 1e-15
        assert f.gamma1 == 0
        assert abs(f.coeffs[0] - (C.imag / (math.pi * h)) ** 0.25) <= 1e-15


def test_ground_state_classic_is_unit_gaussian():
    f = _system(-1j, 1j, 1.0).hermite_phi(0)
    assert abs(f.coeffs[0] - math.pi**-0.25) <= 1e-15
    assert f.gamma2 == -0.5 + 0j


def test_rodrigues_route_equals_ladder_route():
    """Two generation schemes for phi_n agree coefficient-wise to 1e-12."""
    for B, C, h in PARAM_SETS:
        hs = _system(B, C, h)
        for n in range(16):
            a = hs.hermite_phi(n)
            b = hs.rodrigues_phi(n)
            scale = max(abs(c) for c in a.coeffs)
            dev = max(
                abs(x - y) for x, y in zip(a.coeffs, b.coeffs)
            )
            assert dev <= 1e-12 * scale


def _monomial_ladder(hs, N):
    """phi_0..phi_{N-1} by the ladder in monomial form: the polynomial parts
    of phi_m = -(hD + Cx) phi_{m-1} / sqrt(2 m h Im C) on e^{gamma2 x^2}, with
    hD (p e^{gamma2 x^2}) = -ih (p' + 2 gamma2 x p) e^{gamma2 x^2}, on numpy
    ``Polynomial``s."""
    p = hs.params
    g2 = -1j * p.C.conjugate() / (2 * p.h)
    x = Polynomial([0, 1])
    poly = Polynomial([(p.C.imag / (math.pi * p.h)) ** 0.25 + 0j])
    out = [poly]
    for m in range(1, N):
        hd = -1j * p.h * (poly.deriv() + 2 * g2 * x * poly)
        poly = (hd + p.C * x * poly) * (-1 / math.sqrt(m * 2 * p.h * p.C.imag))
        out.append(poly)
    return [lambda t, q=q: q(t) * cmath.exp(g2 * t * t) for q in out]


@pytest.mark.parametrize("B,C,h", HERMITE_PARAM_SETS)
def test_hermite_form_matches_the_monomial_ladder_pointwise(B, C, h):
    hs = _system(B, C, h)
    x = math.sqrt(h / complex(C).imag) * np.linspace(-6.0, 6.0, 41)
    for n, mono in enumerate(_monomial_ladder(hs, 13)):
        phi = hs.hermite_phi(n)
        want = np.array([mono(t) for t in x])
        assert np.max(np.abs(phi(x) - want)) <= 1e-12 * np.max(np.abs(want))
        rod = hs.rodrigues_phi(n)
        assert norm_line(phi.add(rod.scale(-1))) <= 1e-12 * norm_line(phi)


@pytest.mark.parametrize("B,C,h", HERMITE_PARAM_SETS)
def test_monomial_basis_is_the_normalized_monomial(B, C, h):
    # one coefficient on p_n(y1 z), rho2 = 0, against amp (B z/sqrt(2 h Im C))^n / sqrt(n!)
    hs = _system(B, C, h)
    p = hs.params
    s = 2 * p.h * p.C.imag
    amp = abs(p.B) / math.sqrt(math.pi * s)
    for n in range(65):
        r = math.sqrt(s * (n + 1)) / abs(p.B)  # where varphi_n carries its weight
        for z in (r * cmath.exp(0.7j), 0.3 - 0.4j):
            want = amp * (p.B * z / math.sqrt(s)) ** n / math.sqrt(math.factorial(n))
            assert abs(hs.monomial_basis(n)(z) - want) <= 1e-13 * abs(want), (n, z)


@pytest.mark.parametrize("B,C,h", HERMITE_PARAM_SETS)
def test_degree_64_certifies(B, C, h):
    # every index the CLI takes: residuals, exact Gram and the quadrature
    # oracle (values by the three-term recurrence) at unchanged tolerances
    hs = _system(B, C, h)
    assert all(hs.eigen_residual(n) <= TOL_ALGEBRA for n in range(64))
    assert gram_deviation(hs.gram_matrix(64)) <= TOL_ALGEBRA
    assert gram_deviation(hs.gram_matrix(64, method="quadrature")) <= TOL_GRAM_QUAD
    phi, rod = hs.hermite_phi(63), hs.rodrigues_phi(63)
    assert norm_line(phi.add(rod.scale(-1))) <= TOL_ALGEBRA


@pytest.mark.parametrize("h", [1e-200, 1e300])
def test_residual_is_evaluated_at_extreme_h(h):
    # coefficients and norms stay in float range: the residual is round-off
    # times the eigenvalue, not inf from an overflowed norm
    hs = _system(-1j, 1j, h)
    for n in range(8):
        assert hs.eigen_residual(n) <= 1e-13 * hs.eigenvalue(n)


def test_degree_cap_enforced():
    with pytest.raises(DegreeCapError):
        _system(-1j, 1j, 1.0).hermite_phi(65)


# ------------------------------------------------------------------ ladders


def test_classic_ladder_operators_have_textbook_form():
    """At (B, C, h) = (-i, i, h): P = h d/dx + x, P* = -h d/dx + x,
    H = (hD)^2 + x^2, in the (x-power, hD-power) term encoding where
    d/dx = (i/h) hD."""
    P, Ps, H = _system(-1j, 1j, 1.0).ladder_ops()
    assert P.max_coeff_diff(DiffOp({(0, 1): 1j, (1, 0): 1.0}, h=1.0)) == 0
    assert Ps.max_coeff_diff(DiffOp({(0, 1): -1j, (1, 0): 1.0}, h=1.0)) == 0
    assert H.max_coeff_diff(DiffOp({(0, 2): 1.0, (2, 0): 1.0}, h=1.0)) == 0


def test_lowering_kills_ground_state():
    # exact zero when the operator coefficients are representable (classic
    # and half-integer cases); otherwise dead to one ulp
    for B, C, h in PARAM_SETS[:2]:
        hs = _system(B, C, h)
        P, _, _ = hs.ladder_ops()
        assert apply_diffop(P, hs.hermite_phi(0)).is_zero
    for B, C, h in PARAM_SETS[2:]:
        hs = _system(B, C, h)
        P, _, _ = hs.ladder_ops()
        out = apply_diffop(P, hs.hermite_phi(0))
        assert out.is_zero or max(abs(c) for c in out.coeffs) <= 1e-15


def test_raising_steps_up_with_known_coefficient():
    """P* phi_n = (sqrt((n+1) 2h Im C) / B) phi_{n+1}, coefficient-wise."""
    for B, C, h in PARAM_SETS:
        hs = _system(B, C, h)
        _, Ps, _ = hs.ladder_ops()
        B, C = complex(B), complex(C)
        for n in range(8):
            lifted = apply_diffop(Ps, hs.hermite_phi(n))
            target = hs.hermite_phi(n + 1).scale(
                math.sqrt((n + 1) * 2 * h * C.imag) / B
            )
            scale = max(abs(c) for c in target.coeffs)
            dev = max(
                abs(x - y)
                for x, y in zip(lifted.coeffs, target.coeffs)
            )
            assert dev <= TOL_LADDER * scale


def test_ladder_commutator_is_scalar():
    """P P* - P* P = 2 h Im C / |B|^2 times the identity, as operators."""
    for B, C, h in PARAM_SETS:
        P, Ps, _ = _system(B, C, h).ladder_ops()
        B, C = complex(B), complex(C)
        comm = P.compose(Ps).add(Ps.compose(P).scale(-1))
        want = DiffOp({(0, 0): 2 * h * C.imag / abs(B) ** 2}, h=h)
        assert comm.max_coeff_diff(want) <= 1e-12


def test_adjoint_pair_under_line_inner_product():
    """(P f, g) = (f, P* g) for generic integrable functions."""
    rng = np.random.default_rng(17)
    for B, C, h in PARAM_SETS:
        P, Ps, _ = _system(B, C, h).ladder_ops()
        for _ in range(5):
            f = HermiteGauss.from_poly(
                ComplexPoly(tuple(complex(*rng.normal(size=2)) for _ in range(3))),
                complex(-0.5 - rng.uniform(0, 1), 0.4 * rng.normal()),
                0.3 * complex(*rng.normal(size=2)),
            )
            g = HermiteGauss.from_poly(
                ComplexPoly(tuple(complex(*rng.normal(size=2)) for _ in range(2))),
                complex(-0.6 - rng.uniform(0, 1), 0.4 * rng.normal()),
                0.3 * complex(*rng.normal(size=2)),
            )
            lhs = inner_product_line(apply_diffop(P, f), g)
            rhs = inner_product_line(f, apply_diffop(Ps, g))
            assert abs(lhs - rhs) <= TOL_LADDER * max(1.0, abs(lhs))


# ------------------------------------------------------------------ spectra


def test_eigenvalues_classic():
    hs = _system(-1j, 1j, 1.0)
    assert hs.eigenvalue(3) == pytest.approx(7.0, rel=1e-14)
    hs2 = _system(-1j, 1j, 0.25)
    assert hs2.eigenvalue(3) == pytest.approx(7.0 * 0.25, rel=1e-14)


def test_eigenvalue_general_parameters():
    # h Im C / |B|^2 * (2n+1) at (3, 1+2i, 1): gap is 2/9
    hs = _system(3.0, 1 + 2j, 1.0)
    assert hs.eigenvalue(0) == pytest.approx(2 / 9, rel=1e-14)


@pytest.mark.parametrize("B,C,h", PARAM_SETS)
def test_eigen_residuals_small(B, C, h):
    hs = _system(B, C, h)
    for n in range(13):
        assert hs.eigen_residual(n) <= 1e-10


def test_eigen_residual_classic_n3():
    assert _system(-1j, 1j, 1.0).eigen_residual(3) <= 1e-10


# ----------------------------------------------------------------- the Gram


def test_gram_trivial():
    G = _system(-1j, 1j, 1.0).gram_matrix(1)
    assert G.shape == (1, 1)
    assert abs(G[0, 0] - 1) <= 1e-14


def _gram_deviation_per_entry(G, diag=None):
    # the deviation entry by entry, in Python scalars
    rows = np.asarray(G).tolist()
    d = [1.0] * len(rows) if diag is None else diag
    devs = [
        abs(g - (d[k] if j == k else 0.0)) / math.sqrt(d[j] * d[k])
        for j, row in enumerate(rows)
        for k, g in enumerate(row)
    ]
    return math.nan if any(map(math.isnan, devs)) else max(devs)


def test_gram_deviation_is_the_per_entry_deviation_bit_for_bit():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(1, 13))
        noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        G = np.eye(n) + noise * 10.0 ** rng.integers(-16, 1, size=(n, n))
        diag = None
        if trial % 2:
            diag = (10.0 ** rng.uniform(-3, 3, size=n)).tolist()
            G = G * np.sqrt(np.outer(diag, diag))
        if trial % 5 == 3:
            G[rng.integers(n), rng.integers(n)] = complex(math.nan, 1.0)
        if trial % 7 == 4:
            G[rng.integers(n), rng.integers(n)] = complex(math.inf, -math.inf)
        for matrix in (G, G.tolist()):
            assert repr(gram_deviation(matrix, diag)) == repr(_gram_deviation_per_entry(G, diag)), trial


@pytest.mark.parametrize("B,C,h", PARAM_SETS)
def test_gram_exact_is_identity(B, C, h):
    G = _system(B, C, h).gram_matrix(12, method="exact")
    assert gram_deviation(G) <= TOL_EXACT_GRAM


def test_exact_gram_diagonal_is_the_direct_evaluation():
    # repr tells signed zeros apart: the lower triangle is the conjugate with
    # 0.0 - imag, and the diagonal is the value computed, not its conjugate
    hs = _system(3.0, 1 + 2j, 0.5)
    G = hs.gram_matrix(6, method="exact")
    phis = [hs.hermite_phi(n) for n in range(6)]
    for m in range(6):
        for n in range(m, 6):
            v = inner_product_line(phis[m], phis[n])
            assert repr(complex(G[m, n])) == repr(v)
            assert repr(complex(G[n, m])) == repr(
                v if m == n else complex(v.real, 0.0 - v.imag)
            )


def test_gram_quadrature_route_agrees():
    for B, C, h in PARAM_SETS[:2]:
        G = _system(B, C, h).gram_matrix(10, method="quadrature")
        assert gram_deviation(G) <= TOL_QUAD_GRAM


def test_transformed_basis_gram_by_plane_quadrature():
    """The monomial-side basis is orthonormal under the weighted plane
    product; the basis shares one exponent, so every pair sums on the one
    grid its exponent fits."""
    p = PhaseParams(canonical_A(-1j, 1j), -1j, 1j, 1.0)
    hs = HermiteSystem(p)
    basis = [hs.monomial_basis(n) for n in range(11)]
    worst = 0.0
    for m in range(11):
        for n in range(m, 11):
            val = inner_product_HPhi(p, basis[m], basis[n])
            worst = max(worst, abs(val - (1.0 if m == n else 0.0)))
    assert worst <= TOL_QUAD_GRAM


# ------------------------------------------------------------- completeness


def test_truncated_expansion_converges_monotonically():
    """Partial sums of |(f, phi_n)|^2 increase to ||f||^2; the defect at
    N = 40 is far below 1e-4 for a mildly detuned Gaussian envelope."""
    rng = np.random.default_rng(7)
    eps = 0.1
    for B, C, h in PARAM_SETS[:2]:
        hs = _system(B, C, h)
        g2 = -1j * complex(C).conjugate() / (2 * h) * (1 + eps)
        f = HermiteGauss.from_poly(
            ComplexPoly(tuple(complex(*rng.normal(size=2)) for _ in range(3))),
            g2,
            0.1 - 0.05j,
        )
        total = norm_line(f) ** 2
        running = 0.0
        defects = []
        for n in range(41):
            running += abs(inner_product_line(f, hs.hermite_phi(n))) ** 2
            defects.append(total - running)
        assert all(b <= a + 1e-15 for a, b in zip(defects, defects[1:]))
        assert abs(defects[-1]) < 1e-4


@pytest.mark.parametrize("B,C,h", PARAM_SETS)
def test_eigen_residual_checks_are_the_single_function_residuals(B, C, h):
    # H is applied once to the block of phi_0..phi_40; each entry is the
    # residual of its member alone, to round-off
    hs = _system(B, C, h)
    entries, _ = hermite_eigen_checks(hs, 41)
    for e in entries:
        want = hs.eigen_residual(e["n"])
        assert abs(e["residual"] - want) <= 1e-14 * want, e["n"]


def test_nan_member_eigen_residual_is_inf_in_its_own_entry_only(monkeypatch):
    hs = _system(3.0, 1 + 2j, 0.5)
    want = [hs.eigen_residual(n) for n in range(9)]
    phi = HermiteSystem.hermite_phi

    def nan_at_4(self, n):
        return phi(self, n).scale(math.nan) if n == 4 else phi(self, n)

    monkeypatch.setattr(HermiteSystem, "hermite_phi", nan_at_4)
    entries, _ = hermite_eigen_checks(hs, 9)
    got = [e["residual"] for e in entries]
    assert got[4] == math.inf
    assert all(abs(g - w) <= 1e-14 * w for n, (g, w) in enumerate(zip(got, want)) if n != 4)
