"""The Gauss-Hermite and Gauss-Legendre rules that every grid rests on.

The package builds them by Newton's method on their three-term recurrences.
They are checked here against closed-form moments, against numpy's rules
(computed by an eigenvalue solve), and against a 40-digit Newton reference
in ``decimal`` at the node counts the package uses.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from bargmann_lab import bargmann

HERMITE_SIZES = [1, 2, 3, 8, 24, 40, 160, 200]
LEGENDRE_SIZES = [1, 2, 3, 8, 30, 400]
PI = Decimal("3.141592653589793238462643383279502884197")


def _rule(family, n):
    """Nodes and weights of the weight function itself (e^{-t^2} for Hermite)."""
    if family == "hermite":
        t, ew = bargmann._hermite_rule(n)
        return t, ew * np.exp(-t * t)
    return bargmann._legendre_rule(n)


def _moment(family, k, s):
    """``int (t/s)^k w(t) dt`` in closed form."""
    if k % 2:
        return 0.0
    if family == "legendre":
        return 2.0 / ((k + 1) * s**k)
    m = math.sqrt(math.pi)  # Gamma((j + 1)/2) / s^j, by Gamma(a + 1) = a Gamma(a)
    for j in range(0, k, 2):
        m *= (j + 1) / (2.0 * s * s)
    return m


@pytest.mark.parametrize(
    "family,n",
    [("hermite", n) for n in HERMITE_SIZES] + [("legendre", n) for n in LEGENDRE_SIZES],
)
def test_rules_are_exact_on_every_degree_below_2n(family, n):
    t, w = _rule(family, n)
    s = max(1.0, float(np.abs(t).max()))  # scaled so that no power overflows
    tol = 1e-12 if family == "legendre" else 1e-13
    for k in range(2 * n):
        terms = w * (t / s) ** k
        assert abs(terms.sum() - _moment(family, k, s)) <= tol * np.abs(terms).sum(), k


@pytest.mark.parametrize(
    "family,n",
    [("hermite", n) for n in HERMITE_SIZES] + [("legendre", n) for n in LEGENDRE_SIZES],
)
def test_rules_are_exactly_symmetric_and_their_weights_sum_to_the_mass(family, n):
    t, w = _rule(family, n)
    assert t.shape == w.shape == (n,)
    assert (np.diff(t) > 0).all() and (w > 0).all()
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert t[n // 2] == 0.0 and not np.signbit(t[n // 2])
    mass = math.sqrt(math.pi) if family == "hermite" else 2.0
    assert math.fsum(w) == pytest.approx(mass, rel=4e-15)


@pytest.mark.parametrize("n", HERMITE_SIZES)
def test_hermite_rule_matches_numpys(n):
    t, ew = bargmann._hermite_rule(n)
    t_ref, w_ref = hermgauss(n)
    assert np.abs(t - t_ref).max() <= 4e-16 * max(1.0, np.abs(t_ref).max())
    assert np.abs(ew / (w_ref * np.exp(t_ref * t_ref)) - 1.0).max() <= 3e-13


@pytest.mark.parametrize("n", LEGENDRE_SIZES)
def test_legendre_rule_matches_numpys(n):
    t, w = bargmann._legendre_rule(n)
    t_ref, w_ref = leggauss(n)
    assert np.abs(t - t_ref).max() <= 2.3e-16
    # numpy's own end weights at n = 400 are off by 5.7e-10 (see the decimal test)
    assert np.abs(w / w_ref - 1.0).max() <= 1e-9


def _decimal_hermite(n, x):
    """(node, weight times e^{x^2}) of the n-point Hermite rule, by 40-digit
    Newton on psi_n from the float node x."""
    x = Decimal(x)
    for _ in range(4):
        prev = (-x * x / 2).exp() / PI.sqrt().sqrt()
        psi = Decimal(2).sqrt() * x * prev
        for k in range(1, n):
            prev, psi = psi, (Decimal(2) / (k + 1)).sqrt() * x * psi - (Decimal(k) / (k + 1)).sqrt() * prev
        dpsi = (2 * Decimal(n)).sqrt() * prev - x * psi
        x -= psi / dpsi
    return x, 2 / (dpsi * dpsi)


def _decimal_legendre(n, x):
    """(node, weight) of the n-point Legendre rule, by 40-digit Newton on
    P_n from the float node x."""
    x = Decimal(x)
    for _ in range(4):
        prev, p = Decimal(1), x
        for k in range(1, n):
            prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
        dp = n * (prev - x * p) / (1 - x * x)
        x -= p / dp
    return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("family,n,weight_tol", [("hermite", 160, 5e-14), ("legendre", 400, 5e-12)])
def test_end_and_middle_nodes_match_a_40_digit_newton_reference(family, n, weight_tol):
    t, w = bargmann._hermite_rule(n) if family == "hermite" else bargmann._legendre_rule(n)
    reference = _decimal_hermite if family == "hermite" else _decimal_legendre
    with localcontext() as ctx:
        ctx.prec = 40
        for i in (n - 1, n // 2):  # the largest node and the smallest positive one
            x, weight = reference(n, t[i])
            assert abs(Decimal(t[i]) - x) <= 4 * Decimal(math.ulp(t[i])), i
            assert abs(Decimal(w[i]) / weight - 1) <= Decimal(weight_tol), i


def test_rules_build_without_an_eigenvalue_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigenvalue solve")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    monkeypatch.setattr(bargmann, "_RULES", {})
    for family, n in (("hermite", 160), ("hermite", 200), ("legendre", 400)):
        t, w = bargmann._gauss_rule(family, n)
        assert t.shape == w.shape == (n,)
