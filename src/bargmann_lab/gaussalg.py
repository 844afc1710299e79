"""Exact algebra of complex polynomial-times-Gaussian functions.

Everything downstream (transforms, Hermite systems, oscillator spectra,
localization eigenvalues) is built on three closed classes:

* ``ComplexPoly``    -- polynomials with complex coefficients,
* ``PolyGauss``      -- ``x -> poly(x) * exp(gamma2*x**2 + gamma1*x)`` on the line,
* ``HoloGauss``      -- ``z -> poly(z) * exp(c2*z**2 + c1*z)`` on the plane,

with ``HermiteGauss``, a line function in Hermite coefficients on its own
Gaussian, and differential operators (``DiffOp``) acting exactly on both line
forms.  Inner products on the line reduce to closed-form Gaussian moments
(``gaussian_moment``) or to diagonal Hermite-coefficient sums, so orthogonality
and eigen-relations are certified to round-off, not quadrature accuracy.

All values are immutable; all functions are pure.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

#: Hard cap on a stored polynomial degree and on the index of a stored family
#: (the CLI's ``--n`` limit).  Transient values are not capped: the image of a
#: ``HermiteGauss`` under an operator, and a product inside an inner product.
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
    real cross products (``re*re`` and ``-im*im``, then ``re*im`` and
    ``im*re``) are formed in bulk in row-major ``(i, l)`` order, where
    anti-diagonal ``k`` is a strided slice with stride ``len(b) - 1`` (a
    single entry when ``len(b) == 1``).
    """
    fsum = math.fsum
    ar, ai = [x.real for x in a], [x.imag for x in a]
    br, bi = [y.real for y in b], [y.imag for y in b]
    la, d = len(a), len(b) - 1
    diagonals = [
        slice(max(0, k - d) * d + k, (min(k + 1, la) - 1) * d + k + 1, d or 1)
        for k in range(0, la + d, step)
    ]
    p, q = [x * y for x in ar for y in br], [-x * y for x in ai for y in bi]
    re = [fsum(p[s] + q[s]) for s in diagonals]
    del p, q  # the real part's tables go before the imaginary part's are built
    p, q = [x * y for x in ar for y in bi], [x * y for x in ai for y in br]
    return [complex(r, fsum(p[s] + q[s])) for r, s in zip(re, diagonals)]


def coeff_deviation(u, v, collinear: bool = False) -> float:
    """Max coefficient deviation of v from u, relative to u's largest coefficient.

    ``u`` and ``v`` are two :class:`ComplexPoly`, or two :class:`HermiteGauss`
    on one basis.  With ``collinear`` v is first rescaled to agree with u at
    that largest coefficient, so only the directions of the two are compared.
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

    def add(self, other) -> "PolyGauss":
        """Sum of two functions *with the same exponent* (else DomainError);
        a ``HermiteGauss`` summand enters in its monomial form."""
        other = _monomial(other)
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


_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class HermiteGauss:
    """``x -> sum_k coeffs[k] eta_k(x/s) exp(gamma2*x**2)`` on the real line.

    ``eta_k = H_k / sqrt(2**k k!)`` (``eta_0 = 1``) are orthogonal for the
    weight ``e^{-u^2}``, with squared norm ``sqrt(pi)``; ``x`` and ``d/dx`` act
    as bidiagonal maps.  On the weight's own Gaussian, ``Re(gamma2) = -1/(2
    s**2)``, functions sharing ``(gamma2, s)`` add coefficient-wise and have the
    inner product ``s sqrt(pi) sum_k a_k conj(b_k)``; other uses read ``poly``.
    """

    coeffs: tuple[complex, ...]
    gamma2: complex
    s: float
    gamma1 = 0j  # a class constant, not a field

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(_trim(list(map(complex, self.coeffs)))))
        if not self.is_zero and not self.gamma2.real < 0:
            raise DomainError(f"Re(gamma2) = {self.gamma2.real} must be negative")

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @functools.cached_property
    def poly(self) -> ComplexPoly:
        """The polynomial part in monomials (eta_k by the three-term recurrence)."""
        out, prev, cur = [0j] * len(self.coeffs), [0.0], [1.0]
        for k, a in enumerate(self.coeffs):
            if k:
                r, q = math.sqrt(2 / k), math.sqrt((k - 1) / k)
                prev, cur = cur, [r * c - q * b for c, b in zip([0.0] + cur, prev + [0.0, 0.0])]
            out = [o + a * c for o, c in zip(out, cur)] + out[len(cur):]
        inv, r = 1 / self.s, 1.0
        for j, c in enumerate(out):
            out[j], r = complex(c.real * r, c.imag * r), r * inv
        return ComplexPoly.from_coeffs(out)

    def __call__(self, x):
        """Value at x (a number or an array), by the three-term recurrence."""
        u = np.asarray(x, dtype=float) / self.s
        prev, cur = np.zeros_like(u), np.ones_like(u)
        acc = self.coeffs[0] * cur
        for k, a in enumerate(self.coeffs[1:], 1):
            prev, cur = cur, math.sqrt(2 / k) * u * cur - math.sqrt((k - 1) / k) * prev
            acc = acc + a * cur
        return acc * np.exp(self.gamma2 * np.square(x))

    def scale(self, c: complex) -> "HermiteGauss":
        return HermiteGauss(_scaled(list(self.coeffs), c), self.gamma2, self.s)

    def add(self, other):
        """Sum with another line function; see the class docstring."""
        if other.is_zero or self.is_zero:
            return self if other.is_zero else other
        if not self._shares_weight(other):
            return _monomial(self).add(other)
        return HermiteGauss(_added(list(self.coeffs), list(other.coeffs)), self.gamma2, self.s)

    def _shares_weight(self, other) -> bool:
        """Both on one ``(gamma2, s)``, the weight's own Gaussian."""
        same = isinstance(other, HermiteGauss) and (self.gamma2, self.s) == (other.gamma2, other.s)
        return same and _close(2 * self.gamma2.real * self.s * self.s, -1.0)


def _monomial(f):
    """A line function as a :class:`PolyGauss`."""
    return PolyGauss(f.poly, f.gamma2) if isinstance(f, HermiteGauss) else f


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


def inner_product_line(f, g) -> complex:
    """L2(R) inner product ``int f(x) * conj(g(x)) dx``, exact.

    Conjugating ``g`` on the real line is coefficient-wise.  The value is
    one correctly rounded sum of ``prod_k * M_k`` over the coefficients of
    the polynomial product (:func:`_convolve`) and the moments of the
    combined exponent (:func:`_moments`).  Conjugate-symmetric and
    sesquilinear by construction.

    Two :class:`HermiteGauss` sharing their own Gaussian take the diagonal
    sum instead; any other factor enters in its monomial form.

    Raises
    ------
    DomainError
        If the combined exponent is not integrable
        (``Re(f.gamma2 + conj(g.gamma2)) >= 0``).
    """
    if f.is_zero or g.is_zero:
        return 0j
    if isinstance(f, HermiteGauss) and f._shares_weight(g):
        return f.s * _SQRT_PI * sum(a * b.conjugate() for a, b in zip(f.coeffs, g.coeffs))
    f = _monomial(f)
    gc = _monomial(g).conj()
    g2 = f.gamma2 + gc.gamma2
    g1 = f.gamma1 + gc.gamma1
    if not g2.real < 0:
        raise DomainError(
            f"combined exponent Re = {g2.real} not integrable"
        )
    a, b = f.poly.coeffs, gc.poly.coeffs
    # With no linear exponent the odd moments vanish, so only the even
    # anti-diagonals are summed -- unless one factor is a constant, which
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


def norm_line(f) -> float:
    """L2(R) norm, exact; for a :class:`HermiteGauss` on its own Gaussian, by
    ``math.hypot`` of the coefficients, which neither overflows nor underflows."""
    if isinstance(f, HermiteGauss) and f._shares_weight(f):
        return math.sqrt(f.s * _SQRT_PI) * math.hypot(*map(abs, f.coeffs))
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
    """``ComplexPoly.__add__`` on coefficient lists, without the cap."""
    n = max(len(x), len(y))
    return _trim([u + v for u, v in zip(x + [0j] * (n - len(x)), y + [0j] * (n - len(y)))])


def _scaled(x: list[complex], c: complex) -> list[complex]:
    """``ComplexPoly.scale`` on a coefficient list, without the cap."""
    return [0j] if c == 0 else _trim([c * u for u in x])


def _shifted(x: list[complex], j: int) -> list[complex]:
    """``ComplexPoly.shift_up`` on a coefficient list."""
    return x if len(x) == 1 and x[0] == 0 else _fit([0j] * j + x)


def _band(a: list[complex], lo: complex, hi: complex) -> list[complex]:
    """``lo L + hi R`` on Hermite coefficients, where ``L eta_k =
    sqrt(2k) eta_{k-1}`` and ``R eta_k = sqrt(2(k+1)) eta_{k+1}``."""
    rt = [math.sqrt(2 * k) for k in range(1, len(a) + 1)]
    up = [0j] + [hi * (r * c) for r, c in zip(rt, a)]
    down = [lo * (r * c) for r, c in zip(rt, a[1:])] + [0j, 0j]
    return [u + d for u, d in zip(up, down)]


def apply_diffop(op: DiffOp, f):
    """Apply a :class:`DiffOp` exactly; the exponent is preserved.

    Each term is ``(hD)^k`` applied by iterated steps, then ``x**j``; the
    terms are summed in sorted order.  On a :class:`HermiteGauss` both are
    bidiagonal maps (:func:`_band`): ``x = (s/2)(L + R)`` and ``hD = -i h
    ((1/s + gamma2 s) L + gamma2 s R)``.  On a :class:`PolyGauss`, ``hD (p
    e^g) = -i h (p' + g' p) e^g`` with ``g' = 2 gamma2 x + gamma1``, with the
    float operations, trims and :class:`DegreeCapError` of the equivalent
    :class:`ComplexPoly` expression ``(p.derivative() +
    p.shift_up().scale(2 gamma2) + p.scale(gamma1)).scale(-i h)``.
    """
    if f.is_zero:
        return f
    if isinstance(f, HermiteGauss):
        s, g2, powers = f.s, f.gamma2, [list(f.coeffs)]  # powers[k]: (hD)^k f
        hd = functools.partial(_band, lo=-1j * op.h * (1 / s + g2 * s), hi=-1j * op.h * g2 * s)

        def times_x(p: list[complex], j: int) -> list[complex]:
            for _ in range(j):
                p = _band(p, s / 2, s / 2)
            return p
    else:
        g2, g1, minus_ih = 2 * f.gamma2, f.gamma1, -1j * op.h
        powers = [list(f.poly.coeffs)]

        def hd(p: list[complex]) -> list[complex]:
            d = _fit([i * p[i] for i in range(1, len(p))]) if len(p) > 1 else [0j]
            return _scaled(_added(_added(d, _scaled(_shifted(p, 1), g2)), _scaled(p, g1)), minus_ih)

        times_x = _shifted
    acc = [0j]
    for (j, k), c in sorted(op.terms.items()):
        while len(powers) <= k:
            powers.append(hd(powers[-1]))
        acc = _added(acc, _scaled(times_x(powers[k], j), c))
    if isinstance(f, HermiteGauss):
        return HermiteGauss(acc, f.gamma2, f.s)
    return PolyGauss(ComplexPoly(tuple(acc)), f.gamma2, f.gamma1)


def _check_index(n: int) -> None:
    """The index of a stored family: ``0 <= n <= DEGREE_CAP``."""
    if n < 0:
        raise DomainError("index must be >= 0")
    if n > DEGREE_CAP:
        raise DegreeCapError(f"index {n} exceeds cap {DEGREE_CAP}")


def _rodrigues(op: DiffOp, n: int, core: complex, amp: complex, gamma2: complex, s: float):
    """The Rodrigues formula ``amp e^{(gamma2 - core) x^2} op^n e^{core x^2}``,
    a :class:`HermiteGauss` on the scale ``s`` (``op`` as a banded map)."""
    f = HermiteGauss((1.0,), core, s)
    for _ in range(n):
        f = apply_diffop(op, f)
    return HermiteGauss(f.scale(amp).coeffs, gamma2, s)


def _residual_ratio(norm, apply, f, mu: complex) -> float:
    """``norm(apply(f) - mu f) / norm(f)``, or ``inf`` (which must not certify)
    where that cannot be evaluated: ``norm(f)`` is zero (past the float64
    cancellation floor), ``apply(f)`` exceeds :data:`DEGREE_CAP`, an exact
    sum meets non-finite terms (``fsum`` raises), or the ratio is not finite
    (a NaN or an overflow among the values).  Other DomainErrors propagate."""
    try:
        denom = norm(f)
        ratio = norm(apply(f).add(f.scale(-mu))) / denom if denom else math.inf
    except (ValueError, OverflowError) as e:
        if isinstance(e, DomainError) and not isinstance(e, DegreeCapError):
            raise
        return math.inf
    return ratio if math.isfinite(ratio) else math.inf


def relative_residual(op: DiffOp, f, mu: complex) -> float:
    """Eigen-residual ||op f - mu f|| / ||f||, exact, or ``inf`` where it
    cannot be evaluated (see :func:`_residual_ratio`)."""
    return _residual_ratio(norm_line, lambda g: apply_diffop(op, g), f, mu)
