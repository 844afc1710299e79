"""Monomial moment reference: the low-degree cross-check of the package's
Hermite-coefficient routes (the overlap recurrence and the transform).

A line function in monomial form is a triple ``(poly, gamma2, gamma1)`` for
``poly(x) exp(gamma2 x^2 + gamma1 x)``.  Its inner products reduce to the
Gaussian moments below, term by term; the cancellation between terms makes
this a reference for low degrees only.
"""

import cmath
import math


def gaussian_moment(g2: complex, g1: complex, k: int) -> complex:
    """``int x^k exp(g2 x^2 + g1 x) dx`` over the line, Re(g2) < 0.

    With ``x = t + shift``, ``shift = -g1/(2 g2)``, the centered moments are
    ``E_{2m} = E_{2m-2} (2m - 1)/(-2 g2)``, ``E_0 = sqrt(pi/-g2)`` (odd ones
    vanish), and the binomial theorem restores the shift.
    """
    shift, even, total = -g1 / (2 * g2), cmath.sqrt(math.pi / -g2), 0j
    for j in range(0, k + 1, 2):
        total += math.comb(k, j) * shift ** (k - j) * even
        even *= (j + 1) / (-2 * g2)
    return cmath.exp(-g1 * g1 / (4 * g2)) * total


def inner_reference(f, g) -> complex:
    """``int f conj(g) dx`` of two monomial forms; on the real line conj(g)
    has conjugated coefficients and exponents."""
    (p, a2, a1), (q, b2, b1) = f, g
    g2, g1 = a2 + b2.conjugate(), a1 + b1.conjugate()
    return sum(
        a * b.conjugate() * gaussian_moment(g2, g1, j + k)
        for j, a in enumerate(p.coeffs)
        for k, b in enumerate(q.coeffs)
    )
