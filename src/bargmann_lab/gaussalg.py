"""Exact algebra of complex polynomial-times-Gaussian functions.

Everything downstream (transforms, Hermite systems, oscillator spectra,
localization eigenvalues) is built on three closed classes:

* ``ComplexPoly``    -- polynomials with complex coefficients,
* ``PolyGauss``      -- ``x -> poly(x) * exp(gamma2*x**2 + gamma1*x)`` on the line,
* ``HoloGauss``      -- ``z -> poly(z) * exp(c2*z**2 + c1*z)`` on the plane,

together with first/second-order differential operators (``DiffOp``) acting
exactly on ``PolyGauss``.  Inner products on the line reduce to the closed-form
moments of a complex Gaussian (``gaussian_moment``), so orthogonality and
eigen-relations can be certified to round-off rather than quadrature accuracy.
Quadrature enters only as an independent oracle in the test suite.

All values are immutable; all functions are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

#: Hard cap on stored polynomial degree.  High enough for every certified
#: index range (n <= 20 eigenfunctions, Gram blocks to n = 15, products of
#: those), low enough to catch runaway recursions immediately.
DEGREE_CAP = 64

_COEFF_TOL = 1e-12  # relative tolerance for "same exponent" checks


class DomainError(ValueError):
    """Mathematically invalid input (non-integrable exponent, bad parameter)."""


class DegreeCapError(DomainError):
    """A polynomial operation tried to exceed :data:`DEGREE_CAP`."""


def _worst(devs: Iterable[float]) -> float:
    """The largest of some deviations: NaN if any is (Python's ``max`` keeps
    only a first NaN), 0.0 if there are none."""
    return float(np.max(list(devs), initial=0.0))


def _hermitian(entry: Callable[[int, int], complex], n: int) -> list[list[complex]]:
    """The n x n Hermitian matrix whose upper triangle and diagonal are
    ``entry(j, k)``, j <= k.  The lower triangle conjugates the upper with
    ``0.0 - imag``, so an exactly cancelled entry stays ``+0.0``, as
    evaluating it directly gives."""
    G = [[0j] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            g = entry(j, k)
            G[k][j] = complex(g.real, 0.0 - g.imag)
            G[j][k] = g
    return G


# ---------------------------------------------------------------------------
# ComplexPoly
# ---------------------------------------------------------------------------


def _fit(out: list[complex]) -> list[complex]:
    """Strip exactly-zero leading (highest-degree) coefficients in place, then
    enforce :data:`DEGREE_CAP`."""
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if not out:
        out.append(0j)
    if len(out) - 1 > DEGREE_CAP:
        raise DegreeCapError(f"degree {len(out) - 1} exceeds cap {DEGREE_CAP}")
    return out


@dataclass(frozen=True)
class ComplexPoly:
    """Polynomial with complex coefficients, stored degree-ascending.

    The zero polynomial is ``(0j,)``.  Otherwise the leading (last)
    coefficient is nonzero and ``degree == len(coeffs) - 1``.

    Construct via :meth:`from_coeffs` for automatic trimming; the raw
    constructor trusts its input.
    """

    coeffs: tuple[complex, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[complex]) -> "ComplexPoly":
        return ComplexPoly(tuple(_fit(list(map(complex, coeffs)))))

    @staticmethod
    def zero() -> "ComplexPoly":
        return ComplexPoly((0j,))

    @staticmethod
    def one() -> "ComplexPoly":
        return ComplexPoly((1 + 0j,))

    @staticmethod
    def monomial(n: int, coeff: complex = 1.0) -> "ComplexPoly":
        if n > DEGREE_CAP:
            raise DegreeCapError(f"degree {n} exceeds cap {DEGREE_CAP}")
        return ComplexPoly.from_coeffs((0j,) * n + (complex(coeff),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, x: complex) -> complex:
        """Horner evaluation; ``x`` may also be a numpy array of points."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0j,) * (n - len(self.coeffs))
        b = other.coeffs + (0j,) * (n - len(other.coeffs))
        return ComplexPoly.from_coeffs(x + y for x, y in zip(a, b))

    def __sub__(self, other: "ComplexPoly") -> "ComplexPoly":
        return self + other.scale(-1)

    def scale(self, c: complex) -> "ComplexPoly":
        if c == 0:
            return ComplexPoly.zero()
        return ComplexPoly.from_coeffs(c * a for a in self.coeffs)

    def __mul__(self, other: "ComplexPoly") -> "ComplexPoly":
        return ComplexPoly.from_coeffs(_convolve(self.coeffs, other.coeffs))

    def shift_up(self, n: int = 1) -> "ComplexPoly":
        """Multiply by ``x**n``."""
        if self.is_zero:
            return self
        return ComplexPoly.from_coeffs((0j,) * n + self.coeffs)

    def derivative(self) -> "ComplexPoly":
        if len(self.coeffs) == 1:
            return ComplexPoly.zero()
        return ComplexPoly.from_coeffs(
            k * c for k, c in enumerate(self.coeffs) if k > 0
        )

    def conjugate(self) -> "ComplexPoly":
        """Coefficient-wise conjugate; equals conj(p(x)) for real x."""
        return ComplexPoly(tuple(c.conjugate() for c in self.coeffs))

    def compose_affine(self, b0: complex, b1: complex) -> "ComplexPoly":
        """Return ``p(b0 + b1*x)`` (Horner in the affine argument)."""
        acc = ComplexPoly.zero()
        lin = ComplexPoly.from_coeffs((b0, b1))
        for c in reversed(self.coeffs):
            acc = acc * lin + ComplexPoly((complex(c),))
        return acc


def _cross_products(
    a: tuple[complex, ...], b: tuple[complex, ...]
) -> tuple[list[float], list[float], list[float], list[float]]:
    """The real cross-product tables ``re*re``, ``-im*im``, ``re*im`` and
    ``im*re`` of ``a[i] * b[l]``, in row-major ``(i, l)`` order."""
    ar = [x.real for x in a]
    ai = [x.imag for x in a]
    nai = [-x for x in ai]
    br = [y.real for y in b]
    bi = [y.imag for y in b]
    return (
        [x * y for x in ar for y in br],
        [x * y for x in nai for y in bi],
        [x * y for x in ar for y in bi],
        [x * y for x in ai for y in br],
    )


def _vanishes(x: tuple[complex, ...], y: tuple[complex, ...]) -> bool:
    """Every product ``x[i] * y[l]`` is a signed zero."""
    return not any(x) and all(map(cmath.isfinite, y))


def _convolve(
    a: tuple[complex, ...], b: tuple[complex, ...], step: int = 1
) -> list[complex]:
    """Coefficient convolution with compensated (exact) accumulation.

    Returns the anti-diagonal sums ``k = 0, step, 2*step, ...`` of the
    product table ``a[i] * b[l]`` (``step`` is 1 or 2).  Each is a correctly
    rounded sum (one ``math.fsum`` per real and imaginary part) of the
    rounded real cross products; this keeps high-degree cancellation
    (Hermite-type alternating signs) at the rounding error of the individual
    products.  ``fsum`` does not depend on the order of its terms, so the
    products are formed in bulk in row-major ``(i, l)`` order, where
    anti-diagonal ``k`` is a strided slice with stride ``len(b) - 1`` (a
    single entry when ``len(b) == 1``).

    With ``step == 2`` the factors are split by index parity: anti-diagonal
    ``2K`` is anti-diagonal ``K`` of the even-index half ``a[0::2] * b[0::2]``
    plus anti-diagonal ``K - 1`` of the odd-index half, summed together, so
    the odd anti-diagonals are never formed.  A half whose products are all
    signed zeros (one factor all zero, the other all finite) is skipped:
    ``fsum`` ignores signed zeros and gives ``+0.0`` for no terms, so the
    result is unchanged.  On a polynomial of definite parity (every ``phi_n``
    and its images under the operators) this drops one half or both.
    """
    fsum = math.fsum
    if step == 1:
        la, lb = len(a), len(b)
        rr, ii, ri, ir = _cross_products(a, b)
        d = lb - 1
        out: list[complex] = []
        for k in range(la + d):
            lo = max(0, k - d)
            hi = min(k + 1, la)
            s = slice(lo * d + k, (hi - 1) * d + k + 1, d or 1)
            out.append(complex(fsum(rr[s] + ii[s]), fsum(ri[s] + ir[s])))
        return out
    n = (len(a) + len(b)) // 2  # anti-diagonals 0, 2, ..., len(a) + len(b) - 2
    halves = []  # per kept half: the real and imaginary terms of each 2K
    for shift, x, y in ((0, a[0::2], b[0::2]), (1, a[1::2], b[1::2])):
        if not (x and y) or _vanishes(x, y) or _vanishes(y, x):
            continue
        lx = len(x)
        rr, ii, ri, ir = _cross_products(x, y)
        d = len(y) - 1
        re: list[list[float]] = [[]] * shift
        im: list[list[float]] = [[]] * shift
        for k in range(lx + d):
            lo = max(0, k - d)
            hi = min(k + 1, lx)
            s = slice(lo * d + k, (hi - 1) * d + k + 1, d or 1)
            re.append(rr[s] + ii[s])
            im.append(ri[s] + ir[s])
        halves.append((re + [[]] * (n - len(re)), im + [[]] * (n - len(im))))
    if not halves:
        return [0j] * n
    re, im = halves[0]
    if len(halves) == 2:
        re = [u + v for u, v in zip(re, halves[1][0])]
        im = [u + v for u, v in zip(im, halves[1][1])]
    return [complex(fsum(r), fsum(i)) for r, i in zip(re, im)]


def coeff_deviation(u: ComplexPoly, v: ComplexPoly, collinear: bool = False) -> float:
    """Max coefficient deviation of v from u, relative to u's largest coefficient.

    With ``collinear`` v is first rescaled to agree with u at that largest
    coefficient, so only the directions of the two polynomials are compared.
    """
    n = max(len(u.coeffs), len(v.coeffs))
    a = u.coeffs + (0j,) * (n - len(u.coeffs))
    b = v.coeffs + (0j,) * (n - len(v.coeffs))
    k = max(range(n), key=lambda i: abs(a[i]))
    ratio = a[k] / b[k] if collinear else 1.0
    return _worst(abs(x - ratio * y) for x, y in zip(a, b)) / max(abs(a[k]), 1e-300)


# ---------------------------------------------------------------------------
# PolyGauss / HoloGauss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyGauss:
    """``x -> poly(x) * exp(gamma2*x**2 + gamma1*x)`` on the real line.

    ``Re(gamma2) < 0`` is enforced (square-integrability), except for the
    identically-zero function, which is accepted with any exponent.
    """

    poly: ComplexPoly
    gamma2: complex
    gamma1: complex = 0j

    def __post_init__(self) -> None:
        if not self.poly.is_zero and not self.gamma2.real < 0:
            raise DomainError(
                f"Re(gamma2) = {self.gamma2.real} must be negative"
            )

    def __call__(self, x: float) -> complex:
        return self.poly(x) * cmath.exp(self.gamma2 * x * x + self.gamma1 * x)

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def scale(self, c: complex) -> "PolyGauss":
        return PolyGauss(self.poly.scale(c), self.gamma2, self.gamma1)

    def add(self, other: "PolyGauss") -> "PolyGauss":
        """Sum of two functions *with the same exponent* (else DomainError)."""
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if not (
            _close(self.gamma2, other.gamma2) and _close(self.gamma1, other.gamma1)
        ):
            raise DomainError("cannot add PolyGauss with different exponents")
        return PolyGauss(self.poly + other.poly, self.gamma2, self.gamma1)

    def conj(self) -> "PolyGauss":
        """The function ``x -> conj(self(x))`` for real x, as a PolyGauss."""
        return PolyGauss(
            self.poly.conjugate(),
            self.gamma2.conjugate(),
            self.gamma1.conjugate(),
        )


@dataclass(frozen=True)
class HoloGauss:
    """Entire function ``z -> poly(z) * exp(c2*z**2 + c1*z)``.

    Membership in the weighted Bargmann space with weight ``exp(-|z|**2/2h)``
    requires ``|c2| < 1/(4h)``; this is *not* enforced at construction (the
    algebra is useful on the whole class).
    """

    poly: ComplexPoly
    c2: complex = 0j
    c1: complex = 0j

    def __call__(self, z: complex) -> complex:
        """Value at ``z``; ``z`` may also be a numpy array of points."""
        exp = np.exp if isinstance(z, np.ndarray) else cmath.exp
        return self.poly(z) * exp(self.c2 * z * z + self.c1 * z)

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= _COEFF_TOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Holomorphic algebra (exact operations on HoloGauss)
# ---------------------------------------------------------------------------


def holo_differentiate(f: HoloGauss) -> HoloGauss:
    """d/dz, exact: (p e^{c2 z^2+c1 z})' = (p' + (2 c2 z + c1) p) e^{...}."""
    p = f.poly.derivative() + (f.poly.shift_up().scale(2 * f.c2) + f.poly.scale(f.c1))
    return HoloGauss(p, f.c2, f.c1)


def holo_multiply_z(f: HoloGauss) -> HoloGauss:
    return HoloGauss(f.poly.shift_up(), f.c2, f.c1)


def holo_scale(f: HoloGauss, c: complex) -> HoloGauss:
    return HoloGauss(f.poly.scale(c), f.c2, f.c1)


def holo_add(f: HoloGauss, g: HoloGauss) -> HoloGauss:
    if g.is_zero:
        return f
    if f.is_zero:
        return g
    if not (_close(f.c2, g.c2) and _close(f.c1, g.c1)):
        raise DomainError("cannot add HoloGauss with different exponents")
    return HoloGauss(f.poly + g.poly, f.c2, f.c1)


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


def gaussian_moment(gamma2: complex, gamma1: complex, k: int) -> complex:
    """Closed form of ``integral of x**k * exp(gamma2 x**2 + gamma1 x) dx`` on R.

    Completing the square shifts to centered moments
    ``E_{2m} = Gamma(m + 1/2) * (-gamma2)**(-m-1/2)`` (odd ones vanish), then
    the binomial theorem restores the shift (see :func:`_moments`).
    Requires ``Re(gamma2) < 0``.
    """
    if not gamma2.real < 0:
        raise DomainError(f"Re(gamma2) = {gamma2.real} must be negative")
    if k < 0:
        raise DomainError("moment order must be >= 0")
    prefac = cmath.exp(-gamma1 * gamma1 / (4 * gamma2))
    return prefac * _moments(gamma2, gamma1, k)[k]


def _centered_even_moments(gamma2: complex, k: int) -> list[complex]:
    """``[E_0, E_2, ..., E_{2m}]`` with ``E_{2m} = int t^{2m} e^{gamma2 t^2} dt``."""
    e = [cmath.sqrt(math.pi / -gamma2)]
    for m in range(1, k // 2 + 1):
        e.append(e[-1] * (2 * m - 1) / (-2 * gamma2))
    return e


def _moments(gamma2: complex, gamma1: complex, K: int) -> list[complex]:
    """``[M_0, ..., M_K]``: the moments of :func:`gaussian_moment` without
    their common prefactor ``exp(-gamma1**2 / (4 gamma2))``.

    With ``x = t + shift``, ``shift = -gamma1 / (2 gamma2)``,
    ``M_k = sum_{j even} C(k,j) shift**(k-j) E_j``, one correctly rounded
    sum per k.  With no linear exponent ``M_k`` is ``E_k``: zero for odd k.
    """
    even = _centered_even_moments(gamma2, K)
    if gamma1 == 0:
        out = [0j] * (K + 1)
        out[::2] = even
        return out
    shift = -gamma1 / (2 * gamma2)
    out = []
    for k in range(K + 1):
        terms = [
            math.comb(k, j) * shift ** (k - j) * even[j // 2]
            for j in range(0, k + 1, 2)
        ]
        out.append(
            complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        )
    return out


def reduced_moment_polys(gamma2: complex, max_k: int) -> list[ComplexPoly]:
    """Polynomials ``Q_k(u)`` with ``int x^k e^{gamma2 x^2 + u x} dx = e^{-u^2/(4 gamma2)} Q_k(u)``.

    Used by the transform's closed-form path, where the linear exponent ``u``
    is itself an affine function of the output variable.  From the same
    completion of the square as :func:`gaussian_moment`:

        Q_k(u) = sum_{j even, j<=k} C(k,j) * E_j * (-u/(2 gamma2))**(k-j).
    """
    if not gamma2.real < 0:
        raise DomainError(f"Re(gamma2) = {gamma2.real} must be negative")
    even = _centered_even_moments(gamma2, max_k)
    s = -1 / (2 * gamma2)  # shift = s*u
    out = []
    for k in range(max_k + 1):
        coeffs = [0j] * (k + 1)
        for j in range(0, k + 1, 2):
            coeffs[k - j] = math.comb(k, j) * even[j // 2] * s ** (k - j)
        out.append(ComplexPoly.from_coeffs(coeffs))
    return out


def inner_product_line(f: PolyGauss, g: PolyGauss) -> complex:
    """L2(R) inner product ``int f(x) * conj(g(x)) dx``, exact.

    Conjugating ``g`` on the real line is coefficient-wise.  The value is
    one correctly rounded sum of ``prod_k * M_k`` over the coefficients of
    the polynomial product (:func:`_convolve`) and the moments of the
    combined exponent (:func:`_moments`).  Conjugate-symmetric and
    sesquilinear by construction.

    Raises
    ------
    DomainError
        If the combined exponent is not integrable
        (``Re(f.gamma2 + conj(g.gamma2)) >= 0``).
    """
    if f.is_zero or g.is_zero:
        return 0j
    gc = g.conj()
    g2 = f.gamma2 + gc.gamma2
    g1 = f.gamma1 + gc.gamma1
    if not g2.real < 0:
        raise DomainError(
            f"combined exponent Re = {g2.real} not integrable"
        )
    a, b = f.poly.coeffs, gc.poly.coeffs
    # With no linear exponent the odd moments vanish, so only the even
    # anti-diagonals are formed -- unless one factor is a constant, which
    # would confine a non-finite coefficient to a single anti-diagonal.
    step = 2 if g1 == 0 and min(len(a), len(b)) > 1 else 1
    prod = _convolve(a, b, step)  # no cap: transient value
    moments = _moments(g2, g1, len(a) + len(b) - 2)[::step]
    # a vanishing coefficient adds nothing, even against an overflowed moment
    terms = [c * m for c, m in zip(prod, moments) if c != 0]
    prefac = cmath.exp(-g1 * g1 / (4 * g2))
    return prefac * complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )


def norm_line(f: PolyGauss) -> float:
    """L2(R) norm, exact (square root of the self inner product)."""
    return math.sqrt(max(inner_product_line(f, f).real, 0.0))


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
    operator identities like ``H = P*P + const``).
    """

    terms: Mapping[tuple[int, int], complex]
    h: float

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

    @staticmethod
    def identity(h: float) -> "DiffOp":
        return DiffOp({(0, 0): 1.0}, h)

    @staticmethod
    def x_mult(h: float) -> "DiffOp":
        return DiffOp({(1, 0): 1.0}, h)

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


def _added(x: list[complex], y: list[complex]) -> list[complex]:
    """``ComplexPoly.__add__`` on coefficient lists."""
    n = max(len(x), len(y))
    return _fit([u + v for u, v in zip(x + [0j] * (n - len(x)), y + [0j] * (n - len(y)))])


def _scaled(x: list[complex], c: complex) -> list[complex]:
    """``ComplexPoly.scale`` on a coefficient list."""
    return [0j] if c == 0 else _fit([c * u for u in x])


def _shifted(x: list[complex], j: int) -> list[complex]:
    """``ComplexPoly.shift_up`` on a coefficient list."""
    return x if len(x) == 1 and x[0] == 0 else _fit([0j] * j + x)


def apply_diffop(op: DiffOp, f: PolyGauss) -> PolyGauss:
    """Apply a :class:`DiffOp` exactly; the exponent is preserved.

    ``hD (p e^g) = -i h (p' + g' p) e^g`` with ``g' = 2 gamma2 x + gamma1``,
    iterated per term, then shifted by ``x**j`` and summed in sorted term
    order.  The work is done on coefficient lists, with the float operations,
    trims and :class:`DegreeCapError` of the equivalent :class:`ComplexPoly`
    expression ``(p.derivative() + p.shift_up().scale(2 gamma2) +
    p.scale(gamma1)).scale(-i h)``, and one polynomial is built at the end.
    """
    if f.is_zero:
        return f
    g2, g1, minus_ih = 2 * f.gamma2, f.gamma1, -1j * op.h
    hd_powers = [list(f.poly.coeffs)]  # hd_powers[k]: polynomial part of (hD)^k f

    def hd_power(k: int) -> list[complex]:
        while len(hd_powers) <= k:
            p = hd_powers[-1]
            d = _fit([i * p[i] for i in range(1, len(p))]) if len(p) > 1 else [0j]
            s = _added(d, _scaled(_shifted(p, 1), g2))
            hd_powers.append(_scaled(_added(s, _scaled(p, g1)), minus_ih))
        return hd_powers[k]

    acc = [0j]
    for (j, k), c in sorted(op.terms.items()):
        acc = _added(acc, _scaled(_shifted(hd_power(k), j), c))
    return PolyGauss(ComplexPoly(tuple(acc)), f.gamma2, f.gamma1)


def _residual_ratio(norm, apply, f, mu: complex) -> float:
    """``norm(apply(f) - mu f) / norm(f)``, or ``inf`` (which must not certify)
    where that cannot be evaluated: ``norm(f)`` is zero (past the float64
    cancellation floor), ``apply(f)`` exceeds :data:`DEGREE_CAP`, or an exact
    sum meets non-finite terms (``fsum`` raises).  Other DomainErrors propagate."""
    try:
        denom = norm(f)
        return norm(apply(f).add(f.scale(-mu))) / denom if denom else math.inf
    except (ValueError, OverflowError) as e:
        if isinstance(e, DomainError) and not isinstance(e, DegreeCapError):
            raise
        return math.inf


def relative_residual(op: DiffOp, f: PolyGauss, mu: complex) -> float:
    """Eigen-residual ||op f - mu f|| / ||f||, exact, or ``inf`` where it
    cannot be evaluated (see :func:`_residual_ratio`)."""
    return _residual_ratio(norm_line, lambda g: apply_diffop(op, g), f, mu)
