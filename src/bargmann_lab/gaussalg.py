"""Exact algebra of complex polynomial-times-Gaussian functions.

Everything downstream (transforms, Hermite systems, oscillator spectra,
localization eigenvalues) is built on two function classes, both in Hermite
coefficients, with one evaluation (``_hermite_sum``, the three-term
recurrence) and one banded map (``_band``):

* ``HermiteGauss`` -- ``x -> sum_k a_k eta_k(x/s) exp(gamma2*x**2 + gamma1*x)``
  on the line (``HermiteGauss.from_poly`` converts a polynomial times a
  Gaussian),
* ``HoloGauss``    -- ``z -> sum_k a_k p_k(y0 + y1 z) exp(c2*z**2 + c1*z)`` on
  the plane, with ``p_k = rho^k eta_k(y/rho)``,

and differential operators (``DiffOp``) acting on the line class as banded
maps.  Inner products on the line are diagonal coefficient sums on a shared
own Gaussian, and otherwise sums over the Franck-Condon overlap recurrence
(``_overlaps``), so orthogonality and eigen-relations are certified to
round-off, not quadrature accuracy.

The coefficient algebra runs on numpy blocks (``HermiteBlock``): a family on
one ``(gamma2, s, gamma1)``, one function per column.  ``_band`` and
``apply_diffop`` map all columns at once, ``norm_line`` and the eigen-residual
ratio give one value per column, and a Gram matrix takes one matrix of
overlaps per pair of exponents and two ``np.einsum`` contractions.  A single
``HermiteGauss`` goes the same way as a one-column block.  A first-order
operator is one tridiagonal map ``lo L + hi R + diag`` (:func:`_line_band`,
:func:`_holo_band`), and every ladder and Rodrigues chain steps it on plain
coefficient arrays (:func:`_chain`), building a ``HermiteGauss`` or
``HoloGauss`` only for the members it hands out.  Products are
elementwise or ``np.einsum`` (default ``optimize=False``), never BLAS, so no
BLAS thread runs and every value is the same from run to run.  A column's
values do not depend on the other columns, except that a Gram entry's sum
may round differently in another block shape.

All values are immutable; all functions are pure.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Hard cap on the index of a stored family (the CLI's ``--n`` limit) and on
#: the degree of a monomial form (``ComplexPoly``, ``HoloGauss.poly``).
#: Coefficient lists are not capped: the image of a ``HermiteGauss`` under
#: an operator, or its transform, may pass it.
DEGREE_CAP = 64

_COEFF_TOL = 1e-12  # relative tolerance for "same exponent" checks


class DomainError(ValueError):
    """Mathematically invalid input (non-integrable exponent, bad parameter)."""


class DegreeCapError(DomainError):
    """A polynomial operation tried to exceed :data:`DEGREE_CAP`."""


def _worst(devs: Iterable[float] | np.ndarray) -> float:
    """The largest of some deviations (an iterable or a 1D array): NaN if any
    is (Python's ``max`` keeps only a first NaN), 0.0 if there are none."""
    return float(np.max(devs if isinstance(devs, np.ndarray) else list(devs), initial=0.0))


def _hermitian(G: np.ndarray) -> np.ndarray:
    """The Hermitian matrix whose upper triangle and diagonal are those of
    the square array G.  The lower triangle conjugates the upper with ``0.0
    - imag``, so an exactly cancelled entry stays ``+0.0``, as evaluating it
    directly gives."""
    H = np.array(G, dtype=complex)
    j, k = np.tril_indices(len(H), -1)
    H.real[j, k] = H.real[k, j]
    H.imag[j, k] = 0.0 - H.imag[k, j]
    return H


# ---------------------------------------------------------------------------
# ComplexPoly
# ---------------------------------------------------------------------------


def _trim(out: list[complex]) -> list[complex]:
    """Strip exactly-zero leading (highest-degree) coefficients in place."""
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if not out:
        out.append(0j)
    return out


def _fit(out: list[complex]) -> list[complex]:
    """:func:`_trim`, then enforce :data:`DEGREE_CAP`."""
    if len(_trim(out)) - 1 > DEGREE_CAP:
        raise DegreeCapError(f"degree {len(out) - 1} exceeds cap {DEGREE_CAP}")
    return out


@dataclass(frozen=True)
class ComplexPoly:
    """Polynomial with complex coefficients, stored degree-ascending: the
    monomial form that :meth:`HermiteGauss.from_poly` converts and that
    :attr:`HoloGauss.poly` renders.

    The zero polynomial is ``(0j,)``.  Otherwise the leading (last)
    coefficient is nonzero.  Construct via :meth:`from_coeffs` for trimming
    and the :data:`DEGREE_CAP` check; the raw constructor trusts its input.
    """

    coeffs: tuple[complex, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[complex]) -> "ComplexPoly":
        return ComplexPoly(tuple(_fit(list(map(complex, coeffs)))))

    def __mul__(self, other: "ComplexPoly") -> "ComplexPoly":
        return ComplexPoly.from_coeffs(np.convolve(self.coeffs, other.coeffs).tolist())


def coeff_deviation(u, v, collinear: bool = False) -> float:
    """Max coefficient deviation of v from u, relative to u's largest coefficient.

    ``u`` and ``v`` are two :class:`ComplexPoly`, or two :class:`HermiteGauss`
    or two :class:`HoloGauss` on one basis.  With ``collinear`` v is first
    rescaled to agree with u at that largest coefficient, so only the
    directions of the two are compared.
    """
    n = max(len(u.coeffs), len(v.coeffs))
    a = u.coeffs + (0j,) * (n - len(u.coeffs))
    b = v.coeffs + (0j,) * (n - len(v.coeffs))
    try:  # a modulus above the largest float is an infinite deviation
        k = max(range(n), key=lambda i: abs(a[i]))
        ratio = 1.0
        if collinear:  # no ratio takes a zero onto a nonzero: NaN fails the check
            ratio = a[k] / b[k] if b[k] else math.nan
        return _worst(abs(x - ratio * y) for x, y in zip(a, b)) / max(abs(a[k]), 1e-300)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# HermiteGauss / HoloGauss
# ---------------------------------------------------------------------------


_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class HermiteGauss:
    """``x -> sum_k coeffs[k] eta_k(x/s) exp(gamma2*x**2 + gamma1*x)`` on the line.

    ``eta_k = H_k / sqrt(2**k k!)`` (``eta_0 = 1``) are orthogonal for the
    weight ``e^{-u^2}``, with squared norm ``sqrt(pi)``; ``x`` and ``d/dx`` act
    as bidiagonal maps.  Functions on one ``(gamma2, gamma1, s)`` add
    coefficient-wise.  On the weight's own Gaussian, ``Re(gamma2) = -1/(2
    s**2)`` with ``gamma1 = 0``, two functions have the inner product ``s
    sqrt(pi) sum_k a_k conj(b_k)``.

    ``Re(gamma2) < 0`` is enforced (square-integrability), except for the
    identically-zero function, which is accepted with any exponent.
    """

    coeffs: tuple[complex, ...]
    gamma2: complex
    s: float
    gamma1: complex = 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(_trim(list(map(complex, self.coeffs)))))
        if not self.is_zero and not self.gamma2.real < 0:
            raise DomainError(f"Re(gamma2) = {self.gamma2.real} must be negative")

    @staticmethod
    def from_poly(poly: ComplexPoly, gamma2: complex, gamma1: complex = 0j) -> "HermiteGauss":
        """``poly(x) exp(gamma2 x^2 + gamma1 x)`` on its own Gaussian, ``s = 1/sqrt(-2
        Re gamma2)``: Horner with ``x = (s/2)(L + R)`` (:func:`_band`).  A
        monomial has non-negative Hermite coefficients, so nothing cancels."""
        gamma2 = complex(gamma2)
        s = 1 / math.sqrt(-2 * gamma2.real) if gamma2.real < 0 else 1.0
        acc = np.zeros((1, 1), complex)
        with np.errstate(all="ignore"):
            for c in reversed(poly.coeffs):
                acc = _band(acc, s / 2, s / 2)
                acc[0] += c
        return HermiteGauss(acc[:, 0].tolist(), gamma2, s, complex(gamma1))

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def hermite_sum(self, x):
        """``sum_k coeffs[k] eta_k(x/s)`` at x (a number or an array, real or
        complex): :func:`_hermite_sum` at ``y = x/s``, ``rho2 = 1``."""
        return _hermite_sum(self.coeffs, np.asarray(x) / self.s, 1.0)

    def __call__(self, x):
        """Value at x (a number or an array, real or complex: the function
        is entire)."""
        exponent = self.gamma2 * np.square(x)
        if self.gamma1:
            exponent = exponent + self.gamma1 * np.asarray(x)
        return self.hermite_sum(x) * np.exp(exponent)

    def block(self) -> "HermiteBlock":
        """The function as a one-column :class:`HermiteBlock`."""
        return HermiteBlock(np.array(self.coeffs).reshape(-1, 1), self.gamma2, self.s, self.gamma1)

    def scale(self, c: complex) -> "HermiteGauss":
        return self.block().scale(c).column(0)

    def add(self, other: "HermiteGauss") -> "HermiteGauss":
        """Coefficient-wise sum of two functions on one ``(gamma2, gamma1, s)``;
        DomainError otherwise, unless one of them is zero."""
        if other.is_zero or self.is_zero:
            return self if other.is_zero else other
        return self.block().add(other.block()).column(0)


@dataclass(frozen=True, eq=False)
class HermiteBlock:
    """Functions on one ``(gamma2, s, gamma1)``, one per column of the K x m
    complex array ``coeffs``: column j is ``x -> sum_k coeffs[k, j]
    eta_k(x/s) exp(gamma2*x**2 + gamma1*x)``.

    :func:`apply_diffop`, :func:`norm_line` and the eigen-residual ratio act
    on all columns at once; :meth:`HermiteGauss.block` is the one-column
    case.  Columns are not trimmed: a shorter member is padded with zeros.
    """

    coeffs: np.ndarray
    gamma2: complex
    s: float
    gamma1: complex = 0j

    @staticmethod
    def stack(fs: Sequence[HermiteGauss]) -> "HermiteBlock":
        """The functions fs, which share one ``(gamma2, s, gamma1)``, as the
        columns of one block; DomainError otherwise, or if fs is empty."""
        if not len(fs):
            raise DomainError("a block needs one function or more: fs is empty")
        f = fs[0]
        if not _one_basis(fs):
            raise DomainError("a block needs functions with one exponent and scale")
        return HermiteBlock(_stacked([f.coeffs for f in fs]), f.gamma2, f.s, f.gamma1)

    @property
    def is_zero(self) -> bool:
        """One row of zeros: every column is the zero function."""
        return len(self.coeffs) == 1 and not np.count_nonzero(self.coeffs)

    def column(self, j: int) -> HermiteGauss:
        return HermiteGauss(self.coeffs[:, j].tolist(), self.gamma2, self.s, self.gamma1)

    @np.errstate(all="ignore")
    def scale(self, c) -> "HermiteBlock":
        """Every column times c: a number, or one number per column."""
        return HermiteBlock(self.coeffs * np.asarray(c), self.gamma2, self.s, self.gamma1)

    def add(self, other: "HermiteBlock") -> "HermiteBlock":
        """Column-wise sum of two blocks on one ``(gamma2, gamma1, s)`` with one
        number of columns; DomainError otherwise."""
        if (self.gamma2, self.gamma1, self.s) != (other.gamma2, other.gamma1, other.s):
            raise DomainError("cannot add HermiteGauss with different exponents or scales")
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        out = b.copy()
        with np.errstate(all="ignore"):
            out[: len(a)] += a
        return HermiteBlock(out, self.gamma2, self.s, self.gamma1)


def _stacked(cs) -> np.ndarray:
    """The coefficient sequences cs as the columns of one K x m array, a
    shorter column padded with zeros."""
    A = np.zeros((max(map(len, cs)), len(cs)), complex)
    for j, c in enumerate(cs):
        A[: len(c), j] = c
    return A


def _one_basis(fs) -> bool:
    """All of the functions or blocks fs on one ``(gamma2, s, gamma1)``."""
    return len({(f.gamma2, f.s, f.gamma1) for f in fs}) == 1


def _shares_weight(f, g) -> bool:
    """Two functions or blocks both on one ``(gamma2, s)``, the weight's own
    Gaussian, with no linear exponent."""
    same = (f.gamma2, f.s, f.gamma1, g.gamma1) == (g.gamma2, g.s, 0, 0)
    return same and _close(2 * f.gamma2.real * f.s * f.s, -1.0)


@dataclass(frozen=True)
class HoloGauss:
    """Entire function ``z -> sum_k coeffs[k] p_k(y0 + y1 z) exp(c2 z^2 + c1 z)``.

    ``p_k = rho^k eta_k(y/rho)`` with ``rho^2 = rho2`` (:func:`_hermite_sum`):
    ``rho2 = 1`` gives the ``eta_k`` of :class:`HermiteGauss`, ``rho2 = 0``
    the monomials ``(sqrt(2) y)^k / sqrt(k!)``.  In this basis ``d/dz`` and
    ``z`` are bidiagonal maps (:meth:`ladder`); :attr:`poly` renders the
    polynomial part in monomials of z.

    Membership in the weighted Bargmann space with weight ``exp(-|z|**2/2h)``
    requires ``|c2| < 1/(4h)``; this is *not* enforced at construction (the
    algebra is useful on the whole class).
    """

    coeffs: tuple[complex, ...]
    c2: complex = 0j
    c1: complex = 0j
    y0: complex = 0j
    y1: complex = 1 + 0j
    rho2: complex = 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(_trim(list(map(complex, self.coeffs)))))
        for name in ("y0", "y1", "rho2"):  # complex, so y0 + y1 z is, on any z
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.y1 == 0:
            raise DomainError("y1 = 0: the basis p_k(y0 + y1 z) does not depend on z")

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def hermite_sum(self, z):
        """``sum_k coeffs[k] p_k(y0 + y1 z)`` at z (a number or an array)."""
        return _hermite_sum(self.coeffs, self.y0 + self.y1 * z, self.rho2)

    def __call__(self, z):
        """Value at ``z``; ``z`` may also be a numpy array of points."""
        return self.hermite_sum(z) * np.exp(self.c2 * z * z + self.c1 * z)

    @property
    def poly(self) -> ComplexPoly:
        """The polynomial part in monomials of z (capped at :data:`DEGREE_CAP`;
        at high degree its coefficients cancel where the Hermite sum does not,
        so only rendering reads it): the recurrence of :func:`_hermite_sum`
        run on coefficient lists in z, where ``y = y0 + y1 z`` is affine."""
        y0, y1 = self.y0, self.y1
        prev, cur, acc = [0j], [1 + 0j], [self.coeffs[0]]  # p_{k-1}, p_k, partial sum
        for k, a in enumerate(self.coeffs[1:], 1):
            r, q = math.sqrt(2 / k), self.rho2 * math.sqrt((k - 1) / k)
            y_cur = [y0 * u + y1 * v for u, v in zip(cur + [0j], [0j] + cur)]
            prev, cur = cur, [r * u - q * v for u, v in zip(y_cur, prev + [0j, 0j])]
            acc = [x + a * c for x, c in zip(acc + [0j], cur)]
        return ComplexPoly.from_coeffs(acc)

    def ladder(self, d: complex, m: complex) -> "HoloGauss":
        """``d f' + m z f``, exact, on the same exponent and basis: one step
        of :func:`_chain` on the map of :func:`_holo_band`."""
        out = _chain(np.array(self.coeffs), [_holo_band(self, d, m)])[-1]
        return self.on_basis(out.tolist())

    def on_basis(self, coeffs: Sequence[complex]) -> "HoloGauss":
        """The function with ``coeffs`` on this one's exponent and basis."""
        return HoloGauss(coeffs, self.c2, self.c1, self.y0, self.y1, self.rho2)


def _hermite_sum(coeffs: Sequence[complex], y, rho2: complex):
    """``sum_k coeffs[k] p_k(y)`` at y (a number or an array), where ``p_k =
    rho^k eta_k(y/rho)``, ``rho^2 = rho2``, by the three-term recurrence

        p_{k+1} = sqrt(2/(k+1)) y p_k - rho2 sqrt(k/(k+1)) p_{k-1},  p_0 = 1.

    The line's ``eta_k(x/s)`` are ``y = x/s``, ``rho2 = 1``.  With one
    coefficient the sum is a number, which broadcasts against y.  A zero
    coefficient adds no term (its ``0 p_k`` is a zero, or NaN where ``p_k``
    has overflowed), as in :func:`_hermite_sums`.  The updates run in place
    where they can: on a plane grid every array allocated costs a few
    hundred kilobytes."""
    prev, cur = 0.0, 1.0
    acc = coeffs[0] * cur
    for k, a in enumerate(coeffs[1:], 1):
        nxt = math.sqrt(2 / k) * y
        nxt *= cur
        prev *= rho2 * math.sqrt((k - 1) / k)
        nxt -= prev
        prev, cur = cur, nxt
        if a:
            acc += a * cur
    return acc


def _hermite_sums(A: np.ndarray, y, rho2: complex) -> np.ndarray:
    """:func:`_hermite_sum` of each column of the K x m coefficient array A
    at y, as the m rows of one array, on one pass of the recurrence: each
    ``p_k`` is added only to the rows whose coefficient k is nonzero, so
    every row is its column's :func:`_hermite_sum`, bit for bit.  (The
    single sum keeps its own loop: for a number y, the loop over the rows
    would double its time.)"""
    prev, cur = 0.0, 1.0
    sums = np.empty((A.shape[1],) + np.shape(y), complex)
    sums.T[...] = A[0] * cur
    for k in range(1, len(A)):
        nxt = math.sqrt(2 / k) * y
        nxt *= cur
        prev *= rho2 * math.sqrt((k - 1) / k)
        nxt -= prev
        prev, cur = cur, nxt
        for j in np.flatnonzero(A[k]):
            sums[j] += A[k, j] * cur
    return sums


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= _COEFF_TOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Closed-form Gaussian integrals
# ---------------------------------------------------------------------------


def gauss_integral(rho: float, theta: float) -> complex:
    """Integral of ``exp(-rho**2 * e^{2i*theta} * t**2)`` over the real line.

    Equals ``sqrt(pi) / (rho * e^{i*theta})`` for ``rho > 0`` and
    ``|2*theta| < pi/2`` (rotating the contour keeps the integrand decaying).

    Raises
    ------
    DomainError
        If ``rho <= 0`` or ``|2*theta| >= pi/2``.
    """
    if not rho > 0:
        raise DomainError(f"rho = {rho} must be positive")
    if not abs(2 * theta) < math.pi / 2:
        raise DomainError(f"|2*theta| = {abs(2 * theta)} must be < pi/2")
    return math.sqrt(math.pi) / (rho * cmath.exp(1j * theta))


def _overlaps(
    g: complex, g1: complex, s1: float, s2: float, J: int, K: int
) -> list[list[complex]]:
    """``M[j][k] = int eta_j(x/s1) eta_k(x/s2) exp(g x^2 + g1 x) dx`` for
    ``j < J``, ``k < K``: the Franck-Condon overlap recurrence (Sharp &
    Rosenstock, J. Chem. Phys. 41, 3453 (1964)).

    ``M_00 = sqrt(pi/-g) e^{-g1^2/4g}``.  Integrating ``x eta_j eta_k e^{...}``
    by parts gives

        sqrt(j+1) M_{j+1,k} = c1 M_jk + A1 sqrt(j) M_{j-1,k} + D sqrt(k) M_{j,k-1},

    ``c_i = -g1/(sqrt(2) s_i g)``, ``A_i = -(1 + 1/(s_i^2 g))``, ``D =
    -1/(s1 s2 g)``, and row 0 by the mirror recurrence along k (``c2``,
    ``A2``).  On a shared own Gaussian with ``g1 = 0``, ``A_i = c_i = 0``:
    M is diagonal.
    """
    if not g.real < 0:
        raise DomainError(f"combined exponent Re = {g.real} not integrable")
    rt = [math.sqrt(k) for k in range(max(J, K))]
    D = -1 / (s1 * s2 * g)
    (c1, A1), (c2, A2) = ((-g1 / (math.sqrt(2) * s * g), -(1 + 1 / (s * s * g))) for s in (s1, s2))
    row, before = [cmath.sqrt(math.pi / -g) * cmath.exp(-g1 * g1 / (4 * g))], 0j
    for k in range(1, K):
        row.append((c2 * row[-1] + A2 * rt[k - 1] * before) / rt[k])
        before = row[-2]
    M, before = [row], [0j] * K
    for j in range(1, J):
        row, a, r = M[-1], A1 * rt[j - 1], rt[j]
        diag = [0j] + row[:-1]  # M_{j-1,k-1}
        M.append([(c1 * m + a * b + D * q * d) / r for m, b, q, d in zip(row, before, rt, diag)])
        before = row
    return M


def _gram(fs: Sequence[HermiteBlock], gs: Sequence[HermiteBlock]) -> np.ndarray:
    """``G[j, k] = sum_c <column j of fs[c], column k of gs[c]>``: the Gram
    matrix of vector functions with components c, every ``fs[c]`` on one
    ``(gamma2, s, gamma1)`` and every ``gs[c]`` on another (DomainError
    otherwise).

    One matrix of weights serves every entry: on a shared own Gaussian the
    diagonal ``s sqrt(pi)`` (a coefficient past a shorter block still
    enters, so a non-finite one is not dropped), otherwise the overlaps of
    :func:`_overlaps` under the combined exponent ``f.gamma2 +
    conj(g.gamma2)``, ``f.gamma1 + conj(g.gamma1)``, contracted first with
    the coefficients of fs, then with the conjugated coefficients of gs.
    """
    f, g = fs[0], gs[0]
    if not (_one_basis(fs) and _one_basis(gs)):
        raise DomainError("Gram components need one exponent and scale per side")
    shared = _shares_weight(f, g)
    ka, kb = (max(len(x.coeffs) for x in xs) for xs in (fs, gs))
    if shared:
        ka = kb = max(ka, kb)
    A = np.stack([_padded(x.coeffs, ka) for x in fs])
    B = np.stack([_padded(x.coeffs, kb) for x in gs])
    with np.errstate(all="ignore"):
        if shared:
            return f.s * _SQRT_PI * np.einsum("caj,cak->jk", A, B.conj())
        M = _overlaps(
            f.gamma2 + g.gamma2.conjugate(), f.gamma1 + g.gamma1.conjugate(),
            f.s, g.s, A.shape[1], B.shape[1],
        )
        return np.einsum("cjb,cbk->jk", np.einsum("caj,ab->cjb", A, np.array(M)), B.conj())


def inner_product_line(f: HermiteGauss, g: HermiteGauss) -> complex:
    """L2(R) inner product ``int f(x) * conj(g(x)) dx``, exact: the 1 x 1
    :func:`_gram` of the two functions (0 if either is zero).

    Raises
    ------
    DomainError
        If the combined exponent is not integrable
        (``Re(f.gamma2 + conj(g.gamma2)) >= 0``).
    """
    if f.is_zero or g.is_zero:
        return 0j
    return complex(_gram([f.block()], [g.block()])[0, 0])


def norm_line(f):
    """L2(R) norm, exact, of a :class:`HermiteGauss`, or one per column of a
    :class:`HermiteBlock` (a float array).  On the function's own Gaussian
    it is ``math.hypot`` of the coefficients' moduli, which neither
    overflows nor underflows; otherwise the square root of the diagonal of
    :func:`_gram`."""
    if isinstance(f, HermiteGauss):
        return 0.0 if f.is_zero else float(_norms(f.block())[0])
    return _norms(f)


def _norms(f: HermiteBlock) -> np.ndarray:
    """:func:`norm_line` of each column of a block."""
    if _shares_weight(f, f):
        root = math.sqrt(f.s * _SQRT_PI)
        return np.array([root * math.hypot(*col) for col in np.abs(f.coeffs).T.tolist()])
    return np.sqrt(np.maximum(np.diag(_gram([f], [f])).real, 0.0))


# ---------------------------------------------------------------------------
# Differential operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffOp:
    """Finite sum ``sum coeff * x**j * (hD)**k`` with ``hD = -i*h*d/dx``.

    ``terms`` maps ``(j, k)`` to the coefficient; a term acts as
    ``f -> coeff * x**j * (hD)**k f`` (differentiate first, then multiply).
    The named operators of the artifact all have ``j + k <= 2``, but
    composition is supported for arbitrary orders (needed to verify
    operator identities like ``H = P*P + const``).  The terms in the order
    :func:`apply_diffop` sums them (``sorted_terms``) and the largest ``j +
    k`` (``order``, 0 for no terms) are fixed at construction.
    """

    terms: Mapping[tuple[int, int], complex]
    h: float
    sorted_terms: tuple = field(init=False, repr=False, compare=False)
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise DomainError(f"h = {self.h} must be positive")
        clean = {}
        for (j, k), c in self.terms.items():
            if j < 0 or k < 0:
                raise DomainError(f"negative exponent in term {(j, k)}")
            if c != 0:
                clean[(int(j), int(k))] = complex(c)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "sorted_terms", tuple(sorted(clean.items())))
        object.__setattr__(self, "order", max((j + k for j, k in clean), default=0))

    @staticmethod
    def hD(h: float) -> "DiffOp":
        return DiffOp({(0, 1): 1.0}, h)

    @staticmethod
    def d_dx(h: float) -> "DiffOp":
        """Plain d/dx = (i/h) * hD."""
        return DiffOp({(0, 1): 1j / h}, h)

    def scale(self, c: complex) -> "DiffOp":
        return DiffOp({jk: c * v for jk, v in self.terms.items()}, self.h)

    def add(self, other: "DiffOp") -> "DiffOp":
        self._check_h(other)
        out = dict(self.terms)
        for jk, v in other.terms.items():
            out[jk] = out.get(jk, 0j) + v
        return DiffOp(out, self.h)

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self o other (self applied after other).

        Normal-ordering uses
        ``(hD)^k x^j = sum_m C(k,m) j!/(j-m)! (-i h)^m x^{j-m} (hD)^{k-m}``.
        """
        self._check_h(other)
        out: dict[tuple[int, int], complex] = {}
        for (j1, k1), c1 in self.terms.items():
            for (j2, k2), c2 in other.terms.items():
                # reorder (hD)^{k1} x^{j2} into normal form
                for m in range(0, min(k1, j2) + 1):
                    coeff = (
                        c1
                        * c2
                        * math.comb(k1, m)
                        * math.perm(j2, m)
                        * (-1j * self.h) ** m
                    )
                    jk = (j1 + j2 - m, k1 + k2 - m)
                    out[jk] = out.get(jk, 0j) + coeff
        return DiffOp(out, self.h)

    def max_coeff_diff(self, other: "DiffOp") -> float:
        """Largest coefficient deviation between two operators."""
        self._check_h(other)
        keys = set(self.terms) | set(other.terms)
        return _worst(abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) for k in keys)

    def _check_h(self, other: "DiffOp") -> None:
        if self.h != other.h:
            raise DomainError(f"mismatched h: {self.h} != {other.h}")


def _padded(A: np.ndarray, rows: int) -> np.ndarray:
    """A block's coefficient array with zero rows appended up to ``rows``."""
    out = np.zeros((rows, A.shape[1]), complex)
    out[: len(A)] = A
    return out


def _sqrt_2k(n: int) -> np.ndarray:
    """The read-only column ``sqrt(2k)``, k = 0..n-1: the head of one table
    per power-of-two length (:func:`_sqrt_2k_table`)."""
    return _sqrt_2k_table(1 << (n - 1).bit_length())[:n]


@functools.cache
def _sqrt_2k_table(n: int) -> np.ndarray:
    """The read-only column ``sqrt(2k)``, k = 0..n-1, stored as the complex
    numbers a real column would be cast to in a product with a complex
    block, so the product takes no cast."""
    rt = np.sqrt(2.0 * np.arange(n)).astype(complex).reshape(-1, 1)
    rt.setflags(write=False)
    return rt


def _band(A: np.ndarray, lo: complex, hi: complex) -> np.ndarray:
    """``lo L + hi R`` on a K x m block of Hermite coefficients, one function
    per column (K + 1 rows out), where ``L eta_k = sqrt(2k) eta_{k-1}`` and
    ``R eta_k = sqrt(2(k+1)) eta_{k+1}``."""
    rt = _sqrt_2k(len(A) + 1)
    out = np.zeros((len(A) + 1, A.shape[1]), complex)
    np.multiply(hi, rt[1:] * A, out=out[1:])
    out[:-2] += lo * (rt[1:-1] * A[1:])
    return out


def apply_diffop(op: DiffOp, f):
    """Apply a :class:`DiffOp` exactly to a :class:`HermiteGauss` or to every
    column of a :class:`HermiteBlock`; the exponent and scale are preserved,
    and the zero function (``is_zero``) is returned as it is.

    Each term is ``(hD)^k`` applied by iterated steps, then ``x**j``; the
    terms are summed in sorted order.  Both are bidiagonal maps
    (:func:`_band`): ``x = (s/2)(L + R)`` and ``hD = -i h ((1/s + gamma2 s) L +
    gamma2 s R + gamma1)``, the last term on the diagonal.
    """
    if f.is_zero:
        return f
    if isinstance(f, HermiteGauss):
        return _apply_block(op, f.block()).column(0)
    return _apply_block(op, f)


@np.errstate(all="ignore")
def _apply_block(op: DiffOp, f: HermiteBlock) -> HermiteBlock:
    """:func:`apply_diffop` on a block."""
    A, s, minus_ih = f.coeffs, f.s, -1j * op.h
    lo, hi, diag = minus_ih * (1 / s + f.gamma2 * s), minus_ih * f.gamma2 * s, minus_ih * f.gamma1
    acc = np.zeros((len(A) + op.order, A.shape[1]), complex)
    powers = [A]  # powers[k]: (hD)^k f
    for (j, k), c in op.sorted_terms:
        while len(powers) <= k:
            p = _band(powers[-1], lo, hi)
            if diag:
                p[:-1] += diag * powers[-1]
            powers.append(p)
        term = powers[k]
        for _ in range(j):
            term = _band(term, s / 2, s / 2)
        acc[: len(term)] += c * term
    return HermiteBlock(acc, f.gamma2, f.s, f.gamma1)


def _check_index(n: int) -> None:
    """The index of a stored family: ``0 <= n <= DEGREE_CAP``."""
    if n < 0:
        raise DomainError("index must be >= 0")
    if n > DEGREE_CAP:
        raise DegreeCapError(f"index {n} exceeds cap {DEGREE_CAP}")


def _line_band(op: DiffOp, gamma2: complex, s: float) -> tuple:
    """``(lo, hi, diag)`` of a first-order operator ``c01 hD + c10 x`` on the
    exponent ``gamma2 x^2`` and the scale s: the map ``lo L + hi R + diag`` of
    :func:`_chain`, with hD and x banded as in :func:`apply_diffop` (no
    linear exponent, so no diagonal)."""
    c01, c10, minus_ih = op.terms.get((0, 1), 0j), op.terms.get((1, 0), 0j), -1j * op.h
    lo = c01 * (minus_ih * (1 / s + gamma2 * s)) + c10 * (s / 2)
    return lo, c01 * (minus_ih * gamma2 * s) + c10 * (s / 2), 0j


def _holo_band(f: HoloGauss, d: complex, m: complex) -> tuple:
    """``(lo, hi, diag)`` of ``d f' + m z f`` on f's exponent and basis.

    ``f' = (P' + (2 c2 z + c1) P) e^{c2 z^2 + c1 z}``.  In the ``p_k``,
    ``d/dy = L`` and ``y = (rho2/2) L + R/2`` (:func:`_band`); with ``P' =
    y1 dP/dy`` and ``z = (y - y0)/y1`` the map is one band plus a diagonal.
    """
    zc = 2 * d * f.c2 + m  # the coefficient of z P
    lo = d * f.y1 + zc * f.rho2 / (2 * f.y1)
    return lo, zc / (2 * f.y1), d * f.c1 - zc * f.y0 / f.y1


@np.errstate(all="ignore")
def _chain(a: np.ndarray, bands: Sequence[tuple]) -> list:
    """``a, M_1 a, M_2 M_1 a, ...`` for the maps ``M_k = lo L + hi R + diag``
    of ``bands[k - 1] = (lo, hi, diag)`` (L and R as in :func:`_band`) on a 1D
    array of Hermite coefficients, each image trimmed as a
    :class:`HermiteGauss` or :class:`HoloGauss` is (:func:`_trim`).  A
    step keeps :func:`_band`'s products, ``hi (sqrt(2k) a)``, and its order
    of additions: the R part, then the L part, then the diagonal."""
    rt = _sqrt_2k(len(a) + len(bands) + 1)[:, 0]
    out = [a]
    for lo, hi, diag in bands:
        K = len(a)
        b = np.zeros(K + 1, complex)
        np.multiply(hi, rt[1 : K + 1] * a, out=b[1:])
        b[:-2] += lo * (rt[1:K] * a[1:])
        if diag:
            b[:-1] += diag * a
        k = len(b)
        while k > 1 and not b[k - 1]:
            k -= 1
        a = b[:k]
        out.append(a)
    return out


@np.errstate(all="ignore")
def _reattach(a: np.ndarray, amp: complex, like: HermiteGauss) -> HermiteGauss:
    """``amp f`` for f with the coefficients a, on the exponent and scale of
    ``like``: a Rodrigues or ladder member with its amplitude, on the
    exponent of its family."""
    return HermiteGauss((a * amp).tolist(), like.gamma2, like.s)


def _residual_ratio(norm, apply, f, mu):
    """``norm(apply(f) - mu f) / norm(f)``, or ``inf`` (which must not certify)
    where that cannot be evaluated: ``norm(f)`` is zero (past the float64
    cancellation floor), ``apply(f)`` exceeds :data:`DEGREE_CAP`, an exact
    sum meets non-finite terms, or the ratio is not finite (a NaN or an
    overflow among the values).  Other DomainErrors propagate.

    For a block f (columns of :class:`HermiteBlock`) ``mu`` holds one value
    per column and the result is a list of one ratio per column: a column
    that cannot be evaluated reads inf in its own entry, and an error raised
    for the whole block reads inf in every entry."""
    try:
        denom = norm(f)
        num = norm(apply(f).add(f.scale(-np.asarray(mu))))
    except (ValueError, OverflowError) as e:
        if isinstance(e, DomainError) and not isinstance(e, DegreeCapError):
            raise
        num, denom = math.inf, 1.0
    num, denom, _ = np.broadcast_arrays(num, denom, mu)
    with np.errstate(all="ignore"):
        ratio = np.where(denom != 0, num / denom, math.inf)
    return np.where(np.isfinite(ratio), ratio, math.inf).tolist()


def relative_residual(op: DiffOp, f, mu):
    """Eigen-residual ||op f - mu f|| / ||f||, exact, or ``inf`` where it
    cannot be evaluated (see :func:`_residual_ratio`); for a
    :class:`HermiteBlock` and one mu per column, a list of one per column."""
    return _residual_ratio(norm_line, lambda g: apply_diffop(op, g), f, mu)
