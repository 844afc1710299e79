"""The transform, its adjoint, the projector kernel, and quadrature oracles.

The transform

    T f(z) = C_phi * h**(-3/4) * integral exp(i phi(z,x)/h) f(x) dx

maps ``HermiteGauss`` functions on the line to ``HoloGauss`` functions on the
plane in closed form (the Gaussian integral of each Hermite polynomial is a
scaled Hermite polynomial of the output variable).  The adjoint and the
projector are kept quadrature-only on purpose: they are the *independent*
route against which the closed forms are certified.

A quadrature grid is the tensor product of two axes: node ``i m + j`` (float
on the line, complex x+iy on the plane) joins ``first[i]`` and ``second[j]``,
by a sum on plane grids, as ``r_i e^{i theta_j}`` on polar grids, and as
``first[i]`` alone on one-axis grids, and its positive weight is ``w1[i]
w2[j] scale``.  Every quadrature sum of the package is a block of
``_quad_block``: the sums ``sum_n w_n r_j(z_n) c_k(z_n)`` of row functions
against column functions, evaluated on chunks of nodes, each with its own
truncation check.  Every integrand is one expression on a chunk of nodes:
the exponent forms (:class:`Quadratic`) and ``HoloGauss.hermite_sum``
accept arrays, and the exponents of all factors are summed before a single
``np.exp``, because a factor alone can overflow where the product is
negligible.  The rows and columns are Hermite sums.  Every plane kernel
sums on the grid fitted to the exponent E of its integrand's exponential
factor ``e^E`` (below), where E has no cross term between the two axes, so
``e^E = a_i b_j`` is evaluated once per axis, 2n calls of ``exp`` instead
of n^2 (sum factorization; Orszag, J. Comput. Phys. 37, 70 (1980)), and
handed to ``_quad_block`` as that pair.  The projector fits its grid to
its column exponent at 0, whose every point then factors per axis too; the
Toeplitz blocks on a polar grid are radial sums times angular sums.  A
plane sum of degree at most 6 runs on per-axis moments, forming no node,
where they certify its truncation check (:func:`_moment_sum`).

Gauss rules are built by Newton's method on their three-term recurrences,
from asymptotic starts (Glaser, Liu & Rokhlin, SIAM J. Sci. Comput. 29, 1420
(2007); Hale & Townsend, ibid. 35, A652 (2013)), with no eigenvalue solve,
and once per process: ``_gauss_rule`` caches them by family and node count,
so the hundreds of grids of a certification battery share a handful of
builds.  Nothing per node is built with a grid: each chunk of a sum forms
its nodes, weights and outer truncation shell from the axes by one
broadcast, so no whole-grid array is built unless it is asked for
(:class:`QuadGrid`).

The one-dimensional oracles on intervals and half-lines (the rotated
Gaussian integral, the radial eigenvalues) go through ``_adaptive_quad``, a
double-exponential rule on node arrays, so that importing the package loads
no scipy module.

Planar grids are tensor Gauss-Hermite grids fitted to the whole complex
quadratic exponent E of the integrand (weight plus the Gaussian factors of
the integrand itself, including the induced center shift).  The real part
fixes the center and the scales: fitting the weight alone looks sufficient
but loses every digit on near-degenerate inputs whose own Gaussian factor is
much wider or narrower than the weight, while fitting the total makes
polynomial-times-Gaussian integrands exact up to the oscillatory phase, which
the node count then resolves spectrally.  The imaginary part fixes the
rotation of the axes within that frame: on the axes that diagonalize it, E
is a sum of one quadratic per axis.  The phase, the weight and the kernel are
quadratic polynomials, so each kernel builds E from coefficients, as a
:class:`Quadratic` (``-2 Phi/h`` is :func:`_weight`), and a grid reads both
quadratic forms from them: E is never sampled, so a large constant term
costs the quadratic coefficients no digits.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .gaussalg import DomainError, HermiteGauss, HoloGauss, _hermite_sums, _hermitian, _stacked
from .phasecore import PhaseParams

__all__ = [
    "QuadGrid",
    "Quadratic",
    "TruncationError",
    "line_grid",
    "plane_grid",
    "hphi_grid",
    "polar_grid",
    "transform",
    "transform_quad",
    "adjoint_quad",
    "projector_apply",
    "inner_product_HPhi",
    "gram_HPhi",
    "grid_values",
]

#: Heuristic bound on the admissible outer-shell contribution, relative to
#: the total absolute mass of the quadrature sum.
TRUNCATION_TOL = 1e-9


class TruncationError(RuntimeError):
    """The grid does not extend far enough for the requested integrand."""


#: The outer shell of a grid: the nodes whose distance from its centre is at
#: least this fraction of the largest (:class:`QuadGrid`).
_SHELL = 0.95


class QuadGrid:
    """Quadrature nodes and positive weights, kept as the tensor product of
    two axes.

    Node ``i m + j`` (m = ``second.size``) is ``join(first[i], second[j])``
    and its weight ``w1[i] w2[j] scale``.  A plane grid (:func:`plane_grid`)
    joins ``first[i] + second[j]``, a polar grid (:func:`polar_grid`) ``r_i
    e^{i theta_j}``, and a line grid (:func:`line_grid`) has one node per
    entry of ``first`` (``second`` is ``[-0.0]``, ``w2`` is ``[1.0]``).
    Nodes are float on the line and complex x+iy on the plane; weights are
    float.  A plane grid's node ``i m + j`` is also ``center + t_i l_1 + t_j
    l_2``, with t the Hermite rule's nodes and ``steps`` the pair (l_1,
    l_2); ``steps`` is None on other grids.  Every array the grid holds is
    read-only.

    The outer shell, on which the truncation check of every sum looks for
    mass, is the nodes with ``|node - center| >= reach``.  A line grid
    centres it on its nodes' mean, with ``reach`` 0.95 of their largest
    distance from it; a plane grid on its centre, with 0.95 of the distance
    to its farthest corner; a polar grid on the origin, with 0.95 of its
    largest radius.

    Nothing per node is built with a grid: each chunk of a sum forms its
    nodes, weights and shell from the axes by broadcasting (:meth:`chunks`),
    and the whole-grid ``nodes``, ``weights`` and ``shell`` are formed on
    first access, the weights on their own.
    """

    def __init__(self, first, second, w1, w2, scale, center, reach, join=np.add, steps=None):
        # the smallest weight is w1.min() w2.min() scale: rounding is monotone
        if not (w1.size * w2.size and w1.min() * w2.min() * scale > 0):
            raise DomainError("a grid needs one node or more, with positive weights")
        for a in (first, second, w1, w2):
            _read_only(a)
        self.__dict__.update(
            first=first, second=second, w1=w1, w2=w2, scale=scale,
            center=center, reach=reach, join=join, steps=steps,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"a QuadGrid is read-only: cannot set {name!r}")

    @property
    def size(self) -> int:
        return self.first.size * self.second.size

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return _read_only(self._nodes(0, self.size))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return _read_only(self._weights(0, self.size))

    @functools.cached_property
    def shell(self) -> np.ndarray:
        return _read_only(np.abs(self.nodes - self.center) >= self.reach)

    def _nodes(self, start: int, size: int) -> np.ndarray:
        return _outer(self.join, self.first, self.second, start, size)

    def _weights(self, start: int, size: int) -> np.ndarray:
        w = _outer(np.multiply, self.w1, self.w2, start, size)
        w *= self.scale
        return w

    def chunks(self):
        """Yield ``(part, nodes, weights, shell)`` for consecutive slices
        ``part`` of at most :data:`_CHUNK` nodes: the nodes in ``part``,
        their weights and their shell mask, formed from the axes."""
        for start in range(0, self.size, _CHUNK):
            size = min(_CHUNK, self.size - start)
            z = self._nodes(start, size)
            on = np.abs(z - self.center) >= self.reach
            yield slice(start, start + size), z, self._weights(start, size), on


def _read_only(a):
    """``a`` made read-only if it is a numpy array; returns ``a``."""
    if isinstance(a, np.ndarray):
        a.flags.writeable = False
    return a


def _outer(join, u: np.ndarray, v: np.ndarray, start: int, size: int) -> np.ndarray:
    """``join(u_i, v_j)`` at entries ``start .. start + size - 1`` of the
    tensor product whose entry ``i m + j`` (m = ``v.size``) is on row i: the
    whole rows that hold them, by one broadcast, then the slice."""
    row = start // v.size
    offset = start - row * v.size
    rows = join.outer(u[row : -(-(start + size) // v.size)], v)
    return rows.reshape(-1)[offset : offset + size]


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------

_RULES: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}


def _gauss_rule(family: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights) of the n-point Gauss rule of ``family``,
    ``"hermite"`` or ``"legendre"`` (on [-1, 1]), built on first use and
    served from a per-process cache.  The Hermite weights come times
    e^{t^2}: ``sum w_i f(t_i)`` integrates ``e^{-t^2} poly(t)`` over the line.
    """
    key = (family, n)
    rule = _RULES.get(key)
    if rule is None:
        t, w = (_hermite_rule if family == "hermite" else _legendre_rule)(n)
        t.flags.writeable = False
        w.flags.writeable = False
        rule = _RULES[key] = (t, w)
    return rule


def _newton_rule(n: int, starts: np.ndarray, step: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of an n-point rule symmetric about 0, by
    Newton's method from ``starts`` (the positive nodes, largest first) and,
    for odd n, from 0, where the odd polynomial stays exactly 0.  ``step(x)``
    returns the Newton step and the weight at x.  After a step below 1e-12
    the next is below round-off, so the weights are taken where it lands.
    """
    x = np.append(starts, [0.0] * (n % 2))
    for _ in range(10):
        dx = step(x)[0]
        x = x - dx
        if np.abs(dx).max(initial=0.0) <= 1e-12:
            w, m = step(x)[1], n // 2
            return np.concatenate((-x[:m], x[::-1])), np.concatenate((w[:m], w[::-1]))
    raise ArithmeticError(f"Newton's method did not converge on the {n}-point rule")


#: The largest Gauss-Hermite rule :func:`_hermite_rule` builds.  Its
#: recurrence starts from psi_0 at the nodes, about 4e-296 at the largest
#: node of 700; from 730 nodes that is subnormal, the outer weights lose
#: their digits, and from about 770 Newton's method fails.
_HERMITE_MAX = 700


def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton on the orthonormal Hermite function psi_n, which never
    overflows (nor underflows, for n up to :data:`_HERMITE_MAX`, above which
    it is a DomainError), from the WKB starts ``sqrt(2n+1) cos phi``, ``phi -
    sin phi cos phi = pi (k - 1/4)/(n + 1/2)``; the weights times e^{t^2} are
    ``2/psi_n'^2``."""
    if n > _HERMITE_MAX:
        raise DomainError(f"n = {n} exceeds {_HERMITE_MAX}, the largest Gauss-Hermite rule")
    c = math.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5)
    phi = np.cbrt(1.5 * c)  # phi - sin phi cos phi = 2 phi^3/3 + O(phi^5)
    for _ in range(8):
        phi = phi - (phi - np.sin(phi) * np.cos(phi) - c) / (2.0 * np.sin(phi) ** 2)

    def step(t):
        prev, psi = 0.0, np.exp(-0.5 * t * t) * math.pi**-0.25
        for k in range(n):
            prev, psi = psi, math.sqrt(2.0 / (k + 1)) * t * psi - math.sqrt(k / (k + 1)) * prev
        dpsi = math.sqrt(2.0 * n) * prev - t * psi
        return psi / dpsi, 2.0 / (dpsi * dpsi)

    return _newton_rule(n, math.sqrt(2.0 * n + 1) * np.cos(phi), step)


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton on P_n from Tricomi's starts; the weights are ``2/((1 - x^2)
    P_n'^2)``, with 1 - x^2 as (1 - x)(1 + x)."""
    theta = math.pi * (4.0 * np.arange(1, n // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    shrink = 1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)

    def step(x):
        prev, p = 0.0, 1.0
        for k in range(n):
            prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (prev - x * p) / one_minus_x2
        return p / dp, 2.0 / (one_minus_x2 * dp * dp)

    return _newton_rule(n, shrink * np.cos(theta), step)


#: The double-exponential rules below are trapezoid sums over |t| <= 4.
#: Past that, a finite interval's weights are below e^{-85} of their peak
#: and an infinite end's nodes lie beyond e^{42} (or within e^{-42} of a).
_DE_T_MAX = 4.0
#: Step halvings before the rule gives up: 8 * 2**12 + 1 nodes at the last.
_DE_LEVELS = 12


def _de_map(a: float, b: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x(t) and Jacobians x'(t) of the double-exponential map of
    t in (-inf, inf) onto [a, b], with u = (pi/2) sinh t.

    Sinh-sinh ``x = sinh u`` when a = -inf and b = inf, exp-sinh
    ``x = a + e^u`` when only b = inf, and tanh-sinh otherwise.  A tanh-sinh
    node is its nearer end moved in by ``(b - a)/2 (1 - tanh|u|)``, which is
    computed as ``(b - a) q/(1 + q)`` with ``q = e^{-2|u|}``: near a = 0 the
    nodes keep their relative accuracy.  Nodes whose step underflows to 0
    (on intervals shorter than about 1e-286) are dropped, so none lands on 0.
    """
    u = 0.5 * math.pi * np.sinh(t)
    du = 0.5 * math.pi * np.cosh(t)
    if math.isinf(a):
        return np.sinh(u), np.cosh(u) * du
    if math.isinf(b):
        e = np.exp(u)
        return a + e, e * du
    half = 0.5 * (b - a)
    q = np.exp(-2.0 * np.abs(u))
    step = half * (2.0 * q / (1.0 + q))
    on = step > 0
    x = np.where(t < 0, a + step, b - step)
    return x[on], (half * du * (4.0 * q / (1.0 + q) ** 2))[on]


def _adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, epsrel: float
) -> tuple[np.ndarray, np.ndarray]:
    """(integral of f over [a, b], error estimate) by a double-exponential rule.

    The rules are Takahasi & Mori's (Publ. RIMS 9, 721 (1974)), mapped by
    :func:`_de_map`: tanh-sinh on a finite [a, b], exp-sinh on [a, inf),
    sinh-sinh on (-inf, inf).  ``f`` takes a node array and returns real
    values on it, or a stack of such rows (one per integrand, integrated
    together); it is called once per level, on the nodes that level adds.
    The step starts at 1 and halves until two successive levels agree in
    every row to ``epsrel`` times the integral of |f|, and the error
    estimate is their difference.  The test is relative only, so a small
    integral is resolved to its own digits, and one that cancels to 0 is
    resolved to the digits of its parts.  The one absolute floor is the
    smallest normal float (about 2.2e-308): below it every sum is rounded
    to a fixed quantum, two levels need not agree bit for bit, and a row
    is resolved to that float, not to its own digits.  The estimate is
    ``inf`` when no two levels agree or as soon as a sum is not finite;
    ``f``'s overflow and invalid-value warnings are silenced because a
    non-finite sum reports them.
    """
    h, total, mass, previous = 1.0, 0.0, 0.0, math.nan
    floor = np.finfo(float).tiny
    t = np.arange(-_DE_T_MAX, _DE_T_MAX + h / 2, h)
    for _ in range(_DE_LEVELS + 1):
        x, dx = _de_map(a, b, t)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = f(x) * dx
            total = total + terms.sum(axis=-1)
            mass = mass + abs(terms).sum(axis=-1)
        value = h * total
        if not np.isfinite(value).all():
            break
        error = abs(value - previous)
        if (error <= np.maximum(epsrel * h * mass, floor)).all():
            return value, error
        previous = value
        h /= 2
        t = np.arange(-_DE_T_MAX + h, _DE_T_MAX, 2 * h)
    return value, np.full(np.shape(value), math.inf)


def _check_count(name: str, value: int) -> None:
    """A node count below 1 is a DomainError that names it."""
    if not value >= 1:
        raise DomainError(f"{name} = {value} must be >= 1")


class Quadratic(NamedTuple):
    """The quadratic exponent ``E(z) = q2 z^2 + q1 z + conj(r2 z^2 + r1 z) +
    m |z|^2 + c`` of an integrand, as its coefficients: a holomorphic part,
    an antiholomorphic part, a real multiple of |z|^2 and a constant.  A
    coefficient may be a column, one row per function (the projector's
    points); E is then a column at a point.  Calling the form evaluates E on
    a point or an array, float on the line or complex x+iy on the plane."""

    q2: complex
    q1: complex
    r2: complex = 0
    r1: complex = 0
    m: float = 0.0
    c: complex = 0

    def __call__(self, z):
        zz, z2 = z * z, z.real * z.real + z.imag * z.imag
        anti = (self.r2 * zz + self.r1 * z).conjugate()
        return self.q2 * zz + self.q1 * z + anti + self.m * z2 + self.c


def line_grid(exponent: Quadratic, n: int = 200) -> QuadGrid:
    """Gauss-Hermite grid adapted to the quadratic exponent of the integrand.

    The grid reads the real part of ``exponent`` on the line from its
    coefficients, ``Re(q2 + r2) + m`` of x^2 and ``Re(q1 + r1)`` of x, and
    then integrates ``poly * exp(exponent)`` essentially exactly.
    """
    _check_count("n", n)
    m2 = (exponent.q2 + exponent.r2).real + exponent.m
    m1 = (exponent.q1 + exponent.r1).real
    if not m2 < 0:
        raise DomainError(f"integrand does not decay: quadratic coeff {m2}")
    center = -m1 / (2.0 * m2)
    scale = 1.0 / math.sqrt(-m2)
    t, w = _gauss_rule("hermite", n)
    x = scale * t
    x += center
    mean = x.mean()  # the nodes ascend: the farthest from it is an end
    reach = _SHELL * np.abs(x[[0, -1]] - mean).max()
    return QuadGrid(x, -np.zeros(1), w, np.ones(1), scale, mean, reach)


def plane_grid(exponent: Quadratic, n: int = 160) -> QuadGrid:
    """Tensor Gauss-Hermite grid over the plane, fitted to the complex
    quadratic ``exponent`` of the integrand.  Its coefficients give, with
    ``a = q2 + r2``, ``b = q1 + r1`` and ``d = q2 - r2``, the real part's
    quadratic form ``M_re = [[m + Re a, -Im a], [-Im a, m - Re a]]`` and
    linear part ``(Re b, -Im b)`` in (x, y), and the imaginary part's
    quadratic form ``M_im = [[Im d, Re d], [Re d, -Im d]]``.

    With ``-M_re = V Lambda V^T`` (negative definite), centered on its
    maximum zc, the axes are ``L = V Lambda^{-1/2} O``, where O diagonalizes
    M_im in the frame ``V Lambda^{-1/2}``: nodes ``zc + t_i l_1 + t_j l_2``
    and weights ``|det L| ew_i ew_j``.  Polynomial-times-Gaussian integrands
    are integrated to round-off and oscillatory phases converge spectrally
    in ``n``, and on these axes the exponent has no cross term, so ``e^E``
    factors per axis (:func:`_fitted_factors`).  A real exponent gives O = 1.
    """
    _check_count("n", n)
    q2, q1, r2, r1, m, _ = exponent
    a, b, d = q2 + r2, q1 + r1, q2 - r2
    M = np.array([[m + a.real, -a.imag], [-a.imag, m - a.real]], dtype=float)
    L = np.array([b.real, -b.imag], dtype=float)
    evals, evecs = np.linalg.eigh(M)
    if not (evals < 0).all():
        raise DomainError(
            f"integrand does not decay in all directions: eigenvalues {evals}"
        )
    center = np.linalg.solve(2.0 * M, -L)
    t, ew = _gauss_rule("hermite", n)
    s1 = 1.0 / math.sqrt(-evals[0])
    s2 = 1.0 / math.sqrt(-evals[1])
    scale, dirs = (s1, s2), evecs
    M_im = np.array([[d.imag, d.real], [d.real, -d.imag]], dtype=float)
    if M_im.any():
        if not np.isfinite(M_im).all():
            raise DomainError(
                f"integrand does not decay in all directions: phase {M_im.tolist()}"
            )
        frame = evecs * [s1, s2]
        scale, dirs = (1.0, 1.0), frame @ np.linalg.eigh(frame.T @ M_im @ frame)[1]
    t1, t2 = t * scale[0], t * scale[1]
    first = (center[0] + t1 * dirs[0, 0]) + 1j * (center[1] + t1 * dirs[1, 0])
    second = t2 * dirs[0, 1] + 1j * (t2 * dirs[1, 1])
    zc = complex(*center)
    reach = _SHELL * np.abs(np.add.outer(first[[0, -1]], second[[0, -1]]) - zc).max()
    steps = tuple(complex(*dirs[:, k]) * scale[k] for k in (0, 1))
    return QuadGrid(first, second, ew, ew, s1 * s2, zc, reach, steps=steps)


def hphi_grid(p: PhaseParams, U: HoloGauss, V: HoloGauss, n: int = 160) -> QuadGrid:
    """Grid for the weighted inner product of U and V (fitted to their pair
    exponent)."""
    return plane_grid(_pair_exponent(p, U, V), n)


def _weight(p: PhaseParams) -> tuple[complex, float]:
    """``(k, m)`` with ``-2 Phi(z)/h = k z^2 + conj(k z^2) + m |z|^2``
    (:func:`~bargmann_lab.phasecore.weight_Phi`): ``k = (B^2/(4 Im C) +
    A/(2i))/h`` and ``m = -|B|^2/(2 h Im C)``."""
    return (p.B * p.B / (4 * p.C.imag) + p.A / 2j) / p.h, -abs(p.B) ** 2 / (2 * p.C.imag) / p.h


def _pair_exponent(p: PhaseParams, U: HoloGauss, V: HoloGauss) -> Quadratic:
    """The exponent of ``U conj(V) e^{-2 Phi/h}``: ``c2 z^2 + c1 z`` of U,
    plus the conjugate of V's, minus ``2 Phi/h``."""
    k, m = _weight(p)
    return Quadratic(U.c2 + k, U.c1, V.c2 + k, V.c1, m)


def polar_grid(
    r_max: float,
    n_r: int = 400,
    n_theta: int = 128,
    split_at: float | None = None,
) -> QuadGrid:
    """Truncated polar grid: Gauss-Legendre radially, trapezoid in angle.

    The uniform angular rule integrates e^{i k theta} exactly to zero for
    0 < |k| < n_theta, which is what makes radial-symbol matrices exactly
    diagonal at quadrature level.  ``split_at`` places a radial panel break
    on a known discontinuity (e.g. an indicator boundary).
    """
    if not 0 < r_max < math.inf:
        raise DomainError(f"r_max = {r_max} must be positive and finite")
    _check_count("n_r", n_r)
    _check_count("n_theta", n_theta)
    breaks = [0.0]
    if split_at is not None and 0.0 < split_at < r_max:
        breaks.append(float(split_at))
    breaks.append(float(r_max))
    t, w = _gauss_rule("legendre", n_r)
    rs, rw = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        rs.append((b - a) / 2.0 * t + (b + a) / 2.0)
        rw.append((b - a) / 2.0 * w)
    r = np.concatenate(rs)
    wr = np.concatenate(rw) * r  # Jacobian r dr dtheta
    theta = _angles(n_theta)
    radial = wr * (2.0 * math.pi / n_theta)
    turns = np.cos(theta) + 1j * np.sin(theta)
    return QuadGrid(
        r, turns, radial, np.ones(n_theta), 1.0, 0.0, _SHELL * r.max(), join=np.multiply
    )


def _angles(n_theta: int) -> np.ndarray:
    """The angles ``2 pi l/n_theta`` of a polar grid's ``n_theta`` turns."""
    return 2.0 * math.pi * np.arange(n_theta) / n_theta


# ---------------------------------------------------------------------------
# Quadrature evaluation
# ---------------------------------------------------------------------------


def grid_values(fn: Callable[[np.ndarray], np.ndarray], grid: QuadGrid) -> np.ndarray:
    """Values of ``fn`` (a ``HoloGauss``, say) on the node array, in one call."""
    return np.asarray(fn(grid.nodes), dtype=complex)


def _check_truncation(total_mass, shell_mass) -> None:
    """Raise ``TruncationError`` if, for any of the quadrature sums, the
    absolute mass on the outer node shell exceeds ``TRUNCATION_TOL`` of the
    total absolute mass.  Takes one sum's masses or equal-shape arrays of
    them, one entry per sum.
    """
    total = np.asarray(total_mass, dtype=float)
    shell = np.asarray(shell_mass, dtype=float)
    bad = np.flatnonzero(shell > TRUNCATION_TOL * np.maximum(total, 1e-300))
    if bad.size:
        estimate, mass = shell.flat[bad[0]], total.flat[bad[0]]
        raise TruncationError(
            f"outer-shell contribution {estimate:.3e} exceeds "
            f"{TRUNCATION_TOL:.1e} of total mass {mass:.3e}; "
            "enlarge the grid"
        )


#: Nodes per chunk of :meth:`QuadGrid.chunks`, one pass of :func:`_quad_block`.
#: Bounds its node-by-function work arrays (about 1 MB each at 7 functions)
#: whatever the grid size: one array over all 102,400 nodes of a default
#: polar grid costs tens of MB of peak memory, and a chunk's temporaries are
#: reused from the allocator's cache.
_CHUNK = 8192


@np.errstate(over="ignore", invalid="ignore")  # a sum not finite fails the check it reaches
def _quad_block(grid: QuadGrid, rows, cols, factors=None) -> np.ndarray:
    """The quadrature sums ``sum_n w_n r_j(z_n) c_k(z_n)`` as a J x K array.

    ``rows`` and ``cols`` map a chunk of nodes (at most :data:`_CHUNK`) to
    the values of their J (or K) functions on it: a fresh complex array with
    one row per function (not copied), or a list with an array or a number per
    function (a one-term Hermite sum is a number).  ``cols`` is None for the
    conjugates of the rows' values, evaluated once per chunk for both; a plain
    sum passes the one column ``lambda z: [1.0]`` and reads entry ``[0, 0]``.
    ``factors``, if given, is the per-axis pair ``(a, b)`` of a factor
    ``e^E = a_i b_j`` of every row, on a plane grid fitted to E
    (:func:`_fitted_factors`).  The chunk's nodes, weights and shell mask
    and the factors ``a_i b_j`` are formed chunk by chunk from the grid's
    axes (:meth:`QuadGrid.chunks`); no array spans all nodes.

    Each sum is checked for truncation as if it stood alone: its total and
    outer-shell masses are the same sums of ``|w r_j| |c_k|``, over all
    nodes and over the grid's shell.  The products run in ``np.einsum``,
    numpy's own loops: no BLAS thread, and each sum is the same, bit for
    bit, whichever other sums run with it.  The plane kernels' sums come
    here only where :func:`_moment_sum` does not certify them.
    """
    sums = total = shell = 0.0
    for part, z, w, on in grid.chunks():
        r = _on_chunk(rows, z)
        c = np.conj(r) if cols is None else _on_chunk(cols, z)
        if factors is not None:
            r *= _outer(np.multiply, *factors, part.start, z.size)
        np.multiply(w, r, out=r)
        sums = sums + np.einsum("jn,kn->jk", r, c)
        r = np.abs(r)
        c = np.abs(c)
        total = total + np.einsum("jn,kn->jk", r, c)
        shell = shell + np.einsum("jn,kn->jk", r[:, on], c[:, on])
        del r, c, w  # the next chunk's rows take their memory
    _check_truncation(total, shell)
    return sums


def _on_chunk(functions, z: np.ndarray) -> np.ndarray:
    """The values ``functions(z)`` as a complex array, one row per function."""
    values = functions(z)
    if isinstance(values, np.ndarray) and values.dtype == complex:
        return values  # fresh: _quad_block may overwrite it
    return np.array(np.broadcast_arrays(z, *values)[1:], dtype=complex).reshape(-1, z.size)


def _fitted_factors(grid: QuadGrid, exponent: Quadratic):
    """Per-axis factors ``(a, b)`` with ``a_i b_j = e^E`` at node ``zc + t_i
    l_1 + t_j l_2`` of a plane grid fitted to the exponent E, which has no
    cross term on its axes: E along the two axes through the center zc, less
    E at zc.  Each exponent is summed before its one ``np.exp``; b is shifted
    so that its largest modulus is 1, so no factor exceeds the largest
    product.  ``exponent``'s coefficients may be columns, one row per
    function (E at zc then a column)."""
    zc = grid.center
    e2 = exponent(zc + grid.second) - exponent(zc)
    shift = e2.real.max(axis=-1, keepdims=True)
    return np.exp(exponent(grid.first) + shift), np.exp(e2 - shift)


#: The highest degree in (t_1, t_2) of a sum by per-axis moments.
_MOMENT_DEGREE = 6


def _t_poly(f: HoloGauss, grid: QuadGrid) -> np.ndarray:
    """``f.hermite_sum(zc + t_1 l_1 + t_2 l_2)`` as coefficients ``R[m, l]`` of
    ``t_1^m t_2^l`` on a plane grid: ``R_ml = c_{m+l} C(m + l, m) l_1^m
    l_2^l``, with ``c_k`` those of ``HoloGauss.poly`` on the basis shifted to
    ``w = z - zc``."""
    c = HoloGauss(f.coeffs, 0, 0, f.y0 + f.y1 * grid.center, f.y1, f.rho2).poly.coeffs
    m, l = np.indices((len(c), len(c)))
    l1, l2 = grid.steps
    binomials = np.frompyfunc(math.comb, 2, 1)(m + l, m).astype(float)
    return np.append(c, 0)[np.minimum(m + l, len(c))] * binomials * l1**m * l2**l


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two polynomials in (t_1, t_2) as coefficient arrays."""
    out = np.zeros(np.add(a.shape, b.shape) - 1, complex)
    for (m, l), c in np.ndenumerate(a):
        out[m : m + b.shape[0], l : l + b.shape[1]] += c * b
    return out


def _moment_sum(grid: QuadGrid, factors, U, V: HoloGauss | None = None):
    """``sum_ij w_ij a_i b_j R(t_i, t_j)``, ``(a, b) = factors``, on a plane
    grid (``w_ij = |det L| ew_i ew_j``, node ``zc + t_i l_1 + t_j l_2``) for
    R = ``U.hermite_sum`` (times ``conj V.hermite_sum``), as ``|det L| sum_ml
    R_ml A_m B_l``, ``A_m = sum_i ew_i a_i t_i^m`` (B likewise); None if U is
    not a ``HoloGauss``, R's degree exceeds :data:`_MOMENT_DEGREE`, a moment
    or the sum is not finite, or the truncation check is not certified.  A
    shell node has ``max(|t_i|, |t_j|) >= c = reach/(|l_1| + |l_2|)`` (less a
    round-off margin).  With ``P_m = sum_i |ew_i a_i| |t_i|^m``, ``Pc_m`` its
    part at ``|t_i| >= c`` and ``S_m = sum_i |ew_i a_i| t_i^m`` (Q, Qc, T of
    b), the shell mass is at most ``sum |R_ml| (Pc_m Q_l + P_m Qc_l)`` and
    the total mass at least ``|sum R_ml S_m T_l|``: certified where the
    first is at most ``TRUNCATION_TOL`` of the second."""
    fs = (U,) if V is None else (U, V)
    if not isinstance(U, HoloGauss) or sum(len(f.coeffs) - 1 for f in fs) > _MOMENT_DEGREE:
        return None
    (l1, l2), (t, ew) = grid.steps, _gauss_rule("hermite", grid.first.size)
    c = (grid.reach - 1e-14 * (abs(grid.center) + grid.reach)) / (abs(l1) + abs(l2))

    def moments(f):
        return np.einsum("mi,i->m", powers, ew * f), np.einsum("kmi,i->km", bounds, abs(ew * f))

    with np.errstate(over="ignore", invalid="ignore"):  # not finite: the node sum reports it
        R = _t_poly(U, grid) if V is None else _times(_t_poly(U, grid), _t_poly(V, grid).conj())
        powers = t ** np.arange(R.shape[0])[:, None]
        bounds = np.stack([powers, np.abs(powers), np.abs(powers) * (np.abs(t) >= c)])
        (A, (S, P, Pc)), (B, (T, Q, Qc)) = map(moments, factors)
        shell = np.einsum("ml,m,l->", abs(R), Pc, Q) + np.einsum("ml,m,l->", abs(R), P, Qc)
        total = abs(np.einsum("ml,m,l->", R, S, T))
        value = abs((l1.conjugate() * l2).imag) * np.einsum("ml,m,l->", R, A, B)
    finite = np.isfinite(np.concatenate([A, B, P, Q, [value, shell]])).all()
    return value if finite and shell <= TRUNCATION_TOL * total else None


# ---------------------------------------------------------------------------
# The transform and its certified companions
# ---------------------------------------------------------------------------


def transform(p: PhaseParams, f: HermiteGauss) -> HoloGauss:
    """Closed form of T f for a line function in Hermite coefficients.

    With ``f = sum_k a_k eta_k(x/s) e^{gamma2 x^2 + gamma1 x}``,

        T f(z) = C_phi h^{-3/4} e^{iAz^2/2h}
                 * sum_k a_k integral eta_k(x/s) exp(g2 x^2 + u(z) x) dx,
        g2 = gamma2 + iC/(2h),      u(z) = gamma1 + iBz/h,

    and each integral is the Gaussian integral of a Hermite polynomial
    (Gradshteyn & Ryzhik 7.374), ``sqrt(pi/-g2) e^{-u^2/(4 g2)} p_k(y)`` with
    ``y = -u/(2 g2 s)``, ``p_k = rho^k eta_k(y/rho)`` and ``rho^2 = 1 + 1/(g2
    s^2)``.  Since y is affine in z, the result is the ``HoloGauss`` on the
    basis ``p_k(y0 + y1 z)`` (``rho2 = rho^2``) with the coefficients ``a_k``
    times ``C_phi h^{-3/4} sqrt(pi/-g2) exp(-gamma1^2/(4 g2))``, and

        c2 = iA/(2h) + B^2/(4 h^2 g2),    c1 = -i B gamma1 / (2 h g2).
    """
    if f.is_zero:
        return HoloGauss((0j,))
    g2 = f.gamma2 + 1j * p.C / (2 * p.h)
    if not g2.real < 0:
        raise DomainError(
            f"x-integral diverges: Re(gamma2 + iC/2h) = {g2.real}"
        )
    y0 = -f.gamma1 / (2 * g2 * f.s)  # y = y0 + y1 z
    y1 = -1j * p.B / (2 * p.h * g2 * f.s)
    rho2 = 1 + 1 / (g2 * f.s * f.s)
    const = (
        p.C_phi
        * p.h ** (-0.75)
        * cmath.sqrt(math.pi / -g2)
        * cmath.exp(-f.gamma1 * f.gamma1 / (4 * g2))
    )
    c2 = 1j * p.A / (2 * p.h) + p.B / (2 * p.h) * p.B / (2 * p.h * g2)  # no h*h: it may underflow
    c1 = -1j * p.B * f.gamma1 / (2 * p.h * g2)
    return HoloGauss([const * a for a in f.coeffs], c2, c1, y0, y1, rho2)


def transform_quad(p: PhaseParams, f: HermiteGauss, z: complex) -> complex:
    """Quadrature route for T f(z): the oracle for :func:`transform`, on the
    line grid fitted to the real part of the integrand's exponent ``i
    phi(z, x)/h + gamma2 x^2 + gamma1 x``, with f's Hermite sum by its
    three-term recurrence times ``e^E`` per node."""
    if f.is_zero:
        return 0j
    exponent = Quadratic(
        1j * p.C / (2 * p.h) + f.gamma2, 1j * p.B * z / p.h + f.gamma1,
        c=1j * p.A * z * z / (2 * p.h),
    )
    total = _quad_block(
        line_grid(exponent), lambda x: [f.hermite_sum(x) * np.exp(exponent(x))], lambda x: [1.0]
    )[0, 0]
    return p.C_phi * p.h ** (-0.75) * complex(total)


def adjoint_quad(p: PhaseParams, U: HoloGauss, x: float) -> complex:
    """T* U(x) by 2D quadrature over the plane.

    Kept quadrature-only by design: it is the independent route that certifies
    the closed-form transform (T* T = identity on the line class).  The sum
    runs on the plane grid fitted to its whole exponent, where the
    exponential factors per axis, by :func:`_moment_sum` where it certifies
    the sum.
    """
    if U.is_zero:
        return 0j
    k, m = _weight(p)  # the phase -i conj(phi(z, x))/h is conj(i phi(z, x)/h)
    exponent = Quadratic(
        U.c2 + k, U.c1, 1j * p.A / (2 * p.h) + k, 1j * p.B * x / p.h, m,
        (1j * p.C * x * x / (2 * p.h)).conjugate(),
    )
    grid = plane_grid(exponent)
    factors = _fitted_factors(grid, exponent)
    total = _moment_sum(grid, factors, U)
    if total is None:
        total = _quad_block(grid, lambda z: [U.hermite_sum(z)], lambda z: [1.0], factors)[0, 0]
    return p.C_phi * p.h ** (-0.75) * complex(total)


def projector_apply(p: PhaseParams, U: HoloGauss, points: Sequence[complex]) -> list[complex]:
    """Projector (C_Phi/h) integral e^{2 Psi(z, conj zeta)/h} U(zeta) e^{-2 Phi/h}
    at each of ``points``; reproduces U(z) for U in the weighted holomorphic
    class the grid resolves.  Only ``U.hermite_sum``, ``U.c2`` and ``U.c1`` are
    read, unless U is a ``HoloGauss``.

    The sums run on the plane grid fitted to the column exponent at z = 0,
    ``c2 zeta^2 + c1 zeta - 2 Phi/h + 2 Psi(z, conj zeta)/h``.  The conj
    zeta^2 terms of ``2 Psi/h`` and ``-2 Phi/h`` cancel, so every point's
    column exponent is that grid's quadratic plus ``conj(-m conj(z) zeta)``
    and ``-k z^2`` (:func:`_weight`), with no cross term: each column factors
    per axis, summed by :func:`_moment_sum` where it certifies the sum.  The
    other points are one 1 x P block of :func:`_quad_block`: ``U.hermite_sum``
    against one column per point, whose exponent is summed before its one
    ``np.exp`` per node.  Each point is its own sum, with its own truncation
    check.
    """
    k, m = _weight(p)
    zs = np.array(points, dtype=complex).reshape(-1, 1)
    exponent = Quadratic(U.c2 + k, U.c1, 0, -m * zs.conjugate(), m, -k * zs * zs)
    grid = plane_grid(Quadratic(U.c2 + k, U.c1, m=m))
    a, b = _fitted_factors(grid, exponent)
    sums = [_moment_sum(grid, factors, U) for factors in zip(a, b)]
    rest = [i for i, v in enumerate(sums) if v is None]

    def cols(zeta):
        return np.exp(exponent(zeta)[rest])

    node = iter(_quad_block(grid, lambda zeta: [U.hermite_sum(zeta)], cols)[0] if rest else ())
    return [p.C_Phi / p.h * complex(next(node) if v is None else v) for v in sums]


def _pair_block(p: PhaseParams, fs, gs, grid: QuadGrid) -> np.ndarray:
    """``[sum w f_j conj(g_k) e^{pair exponent}]`` for functions fs sharing
    one exponent and basis and gs sharing another, on a grid fitted to the
    pair exponent: each side is stacked into one coefficient array once, its
    Hermite sums are one recurrence pass per chunk (:func:`_hermite_sums`),
    the rows the fs, the columns the conjugated gs (the rows' own, when gs
    is fs), and the pair exponent's per-axis factors are what
    :func:`_quad_block` multiplies in."""
    (f, A), (g, B) = ((us[0], _stacked([u.coeffs for u in us])) for us in (fs, gs))
    return _quad_block(
        grid,
        lambda zs: _hermite_sums(A, f.y0 + f.y1 * zs, f.rho2),
        None if gs is fs else lambda zs: np.conj(_hermite_sums(B, g.y0 + g.y1 * zs, g.rho2)),
        _fitted_factors(grid, _pair_exponent(p, f, g)),
    )


def inner_product_HPhi(p: PhaseParams, U: HoloGauss, V: HoloGauss) -> complex:
    """Weighted inner product integral U conj(V) e^{-2 Phi/h} over the plane.

    Membership of the pair in the weighted space is enforced by the grid fit:
    a combined exponent that fails to decay in some direction raises
    ``DomainError`` (for the classic weight this is exactly the
    ``|c2| < 1/(4h)`` growth-class bound on each factor).  The sum runs on
    :func:`hphi_grid`, where the exponential factors per axis, by
    :func:`_moment_sum` where it certifies it.
    """
    if U.is_zero or V.is_zero:
        return 0j
    grid = hphi_grid(p, U, V)
    total = _moment_sum(grid, _fitted_factors(grid, _pair_exponent(p, U, V)), U, V)
    if total is None:
        total = _pair_block(p, [U], [V], grid)[0, 0]
    return complex(total)


def gram_HPhi(p: PhaseParams, fs: Sequence[HoloGauss]) -> list[list[complex]]:
    """Gram matrix ``[inner_product_HPhi(p, fs[j], fs[k])]`` of one function
    or more sharing one exponent ``(c2, c1)`` and one basis ``(y0, y1,
    rho2)``, else ``DomainError``.

    All pairs then share the grid and the exponential factor: the matrix is
    one K x K block of :func:`_quad_block`, each entry the node sum of its
    pair on that grid, which :func:`inner_product_HPhi` gives bit for bit
    above degree 6 and to round-off below, where the moments serve it; each
    Hermite sum is evaluated once per chunk, for its row and its column.  The
    lower triangle mirrors the upper (see
    :func:`~bargmann_lab.gaussalg._hermitian`).
    """
    if not len(fs):
        raise DomainError("gram_HPhi needs one function or more: fs is empty")
    U = fs[0]
    if len({(f.c2, f.c1, f.y0, f.y1, f.rho2) for f in fs}) > 1:
        raise DomainError("gram_HPhi needs functions with one exponent and one basis")
    return _hermitian(_pair_block(p, fs, fs, hphi_grid(p, U, U))).tolist()
