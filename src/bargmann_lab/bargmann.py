"""The transform, its adjoint, the projector kernel, and quadrature oracles.

The transform

    T f(z) = C_phi * h**(-3/4) * integral exp(i phi(z,x)/h) f(x) dx

maps ``HermiteGauss`` functions on the line to ``HoloGauss`` functions on the
plane in closed form (the Gaussian integral of each Hermite polynomial is a
scaled Hermite polynomial of the output variable).  The adjoint and the
projector are kept quadrature-only on purpose: they are the *independent*
route against which the closed forms are certified.

A quadrature grid holds two read-only arrays: ``nodes`` (float on the line,
complex x+iy on the plane) and positive float ``weights``.  Every quadrature
sum of the package is a block of ``_quad_block``: the sums ``sum_n w_n
r_j(z_n) c_k(z_n)`` of row functions against column functions, evaluated
on chunks of nodes, each with its own truncation check.  Every integrand is
one expression on a chunk of the node array: the ``phasecore`` functions and
``HoloGauss.hermite_sum`` accept arrays, and the exponents of all factors are
summed before a single ``np.exp``, because a factor alone can overflow where
the product is negligible.  The rows and columns are Hermite sums; the
exponential factor ``e^E`` of the integrand is handed to ``_quad_block`` as
its exponent.  Every grid is a tensor product, and on a plane grid fitted to
E (below) the exponent has no cross term between the two axes, so ``e^E =
a_i b_j`` is evaluated once per axis, 2n calls of ``exp`` instead of n^2
(sum factorization; Orszag, J. Comput. Phys. 37, 70 (1980)).  On any other
grid it is evaluated per node.  The projector fits its own grid to its
column exponent, whose every point then factors per axis too; the Toeplitz
blocks on a polar grid are radial sums times angular sums.

Gauss rules are built by Newton's method on their three-term recurrences,
from asymptotic starts (Glaser, Liu & Rokhlin, SIAM J. Sci. Comput. 29, 1420
(2007); Hale & Townsend, ibid. 35, A652 (2013)), with no eigenvalue solve,
and once per process: ``_gauss_rule`` caches them by family and node count,
so the hundreds of grids of a certification battery share a handful of
builds.  A plane or polar grid keeps its weights and its per-axis arrays
only: each chunk of a sum forms its nodes and its outer truncation shell
from the axes, by broadcasting, so no array of the grid's nodes is built
unless it is asked for (:class:`QuadGrid`).

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
is a sum of one quadratic per axis.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .gaussalg import DomainError, HermiteGauss, HoloGauss, _family_sums, _hermitian
from .phasecore import PhaseParams, phi_phase, kernel_Psi, weight_Phi

__all__ = [
    "QuadGrid",
    "PlaneAxes",
    "PolarAxes",
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


class PlaneAxes(NamedTuple):
    """How a plane grid was fitted: its exponent's values at
    :data:`_FIT_POINTS`, its center zc, and its nodes along each axis through
    zc, ``zc + t_i l_1`` and ``zc + t_j l_2``.  Node ``i n + j`` of the grid
    is ``zc + t_i l_1 + t_j l_2``."""

    samples: tuple[complex, ...]
    center: complex
    along1: np.ndarray
    along2: np.ndarray


class PolarAxes(NamedTuple):
    """A polar grid's radii ``r``, the weight of each node at each radius,
    and the angles ``theta``.  Node ``k n_theta + l`` of the grid is ``r_k
    e^{i theta_l}``."""

    r: np.ndarray
    weights: np.ndarray
    theta: np.ndarray


#: The outer shell of a grid: the nodes whose distance from its centre is at
#: least this fraction of the largest (:class:`QuadGrid`).
_SHELL = 0.95


class QuadGrid:
    """Quadrature nodes and positive weights, as read-only arrays.

    ``nodes`` is float for 1D grids and complex x+iy for planar grids;
    ``weights`` is float.  ``axes`` records how a plane or polar grid's
    tensor product was built (its arrays are read-only too), and is None on
    other grids.  ``shell`` is the read-only boolean mask of the outer node
    shell, ``|node - mean| >= 0.95 max``, on which the truncation check of
    every sum looks for mass.

    A grid made from its nodes, ``QuadGrid(nodes, weights)``, holds copies
    of them and its shell.  A plane or polar grid (:func:`plane_grid`,
    :func:`polar_grid`) holds its weights and its per-axis arrays only: each
    chunk of a sum forms its nodes and shell from the axes, by broadcasting
    (:meth:`_chunk`), and ``nodes`` and ``shell`` are formed over the whole
    grid on first access.  On these grids the mean is known exactly, the
    plane grid's center or the origin, and the largest distance from it
    lies at a corner of the plane grid and on the outer radius of the polar
    grid, whose shell is the nodes at its outer radii.
    """

    def __init__(self, nodes, weights, axes: PlaneAxes | PolarAxes | None = None):
        nodes = np.array(nodes)
        weights = np.array(weights, dtype=float)
        if nodes.shape != weights.shape:
            raise DomainError("nodes and weights must have equal length")
        if not (weights > 0).all():
            raise DomainError("weights must be positive")
        r = np.abs(nodes - nodes.mean())
        _read_only(nodes, weights, *(axes or ()))
        self.__dict__.update(
            weights=weights, axes=axes, _rows=None,
            _arrays=_read_only(nodes, r >= _SHELL * r.max()),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"a QuadGrid is read-only: cannot set {name!r}")

    @classmethod
    def _tensor(cls, weights: np.ndarray, axes, width: int, rows) -> "QuadGrid":
        """A plane or polar grid of nodes ``i width + j``: ``rows(span)``
        gives the nodes and shell mask of the rows i in the slice ``span``,
        each as a (rows, width) array."""
        if not weights.min() > 0:
            raise DomainError("weights must be positive")
        grid = cls.__new__(cls)
        _read_only(weights, *axes)
        grid.__dict__.update(weights=weights, axes=axes, _rows=(width, rows))
        return grid

    @property
    def nodes(self) -> np.ndarray:
        return self._arrays[0]

    @property
    def shell(self) -> np.ndarray:
        return self._arrays[1]

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, shell) of a tensor grid, formed on first access."""
        return _read_only(*self._chunk(0, self.weights.size))

    def _chunk(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The nodes ``start .. stop - 1`` and their shell mask."""
        if self._rows is None:
            nodes, shell = self._arrays
            return nodes[start:stop], shell[start:stop]
        width, rows = self._rows
        span, part = _row_span(start, stop - start, width)
        z, on = rows(span)
        return _flat(z, part), _flat(on, part)


def _read_only(*arrays):
    """The numpy arrays among ``arrays`` made read-only; returns ``arrays``."""
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return arrays


def _row_span(start: int, size: int, width: int) -> tuple[slice, slice]:
    """Entries ``start .. start + size - 1`` of a tensor product whose entry
    ``i width + j`` is on row i: the rows that hold them, and their slice of
    those rows laid end to end (:func:`_flat`)."""
    first = start // width
    offset = start - first * width
    return slice(first, -(-(start + size) // width)), slice(offset, offset + size)


def _flat(rows: np.ndarray, part: slice) -> np.ndarray:
    """The entries ``part`` of the last two axes of ``rows``, end to end."""
    *lead, m, n = rows.shape
    return rows.reshape(*lead, m * n)[..., part]


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


def _fit_quad_1d(fn: Callable[[float], float]) -> tuple[float, float, float]:
    """Exact (c, m1, m2) with fn(x) = c + m1*x + m2*x**2 for quadratic fn."""
    c = fn(0.0)
    fp, fm = fn(1.0), fn(-1.0)
    return c, (fp - fm) / 2.0, (fp + fm) / 2.0 - c


def line_grid(real_exponent: Callable[[float], float], n: int = 200) -> QuadGrid:
    """Gauss-Hermite grid adapted to a (quadratic) real exponent profile.

    ``real_exponent`` must be the quadratic ``x -> Re`` of the total integrand
    exponent; the grid then integrates ``poly * exp(exponent)`` essentially
    exactly.
    """
    _check_count("n", n)
    _, m1, m2 = _fit_quad_1d(real_exponent)
    if not m2 < 0:
        raise DomainError(f"integrand does not decay: quadratic coeff {m2}")
    center = -m1 / (2.0 * m2)
    scale = 1.0 / math.sqrt(-m2)
    t, w = _gauss_rule("hermite", n)
    return QuadGrid(center + scale * t, w * scale)


#: The points at which a plane grid samples its exponent (:func:`_fit_quad_2d`).
_FIT_POINTS = (0j, 1 + 0j, -1 + 0j, 1j, -1j, 1 + 1j)


def _samples(exponent: Callable[[complex], complex]) -> tuple[complex, ...]:
    """The exponent at :data:`_FIT_POINTS`, each point a Python complex."""
    return tuple(complex(exponent(z)) for z in _FIT_POINTS)


def _fit_quad_2d(samples: Sequence[float]):
    """Exact quadratic-form fit f(x+iy) = c + L.v + v.M.v from the real
    values of f at :data:`_FIT_POINTS`, returned as (M, L, c)."""
    c, f10, fm10, f01, f0m1, f11 = samples
    m11 = (f10 + fm10) / 2.0 - c
    m22 = (f01 + f0m1) / 2.0 - c
    l1 = (f10 - fm10) / 2.0
    l2 = (f01 - f0m1) / 2.0
    m12 = (f11 - c - l1 - l2 - m11 - m22) / 2.0
    M = np.array([[m11, m12], [m12, m22]], dtype=float)
    L = np.array([l1, l2], dtype=float)
    return M, L, c


def plane_grid(exponent: Callable[[complex], complex], n: int = 160) -> QuadGrid:
    """Tensor Gauss-Hermite grid over the plane, fitted to the complex
    quadratic ``exponent`` of the integrand.

    With ``-M_re = V Lambda V^T`` the (negative-definite) quadratic form of
    the real part, centered on its maximum zc, the axes are ``L = V
    Lambda^{-1/2} O``, where O diagonalizes the imaginary quadratic form in
    the frame ``V Lambda^{-1/2}``: nodes ``zc + t_i l_1 + t_j l_2`` and
    weights ``|det L| ew_i ew_j``.  Polynomial-times-Gaussian integrands are
    integrated to round-off and oscillatory phases converge spectrally in
    ``n``, and on these axes the exponent has no cross term, so ``e^E``
    factors per axis (:class:`PlaneAxes`).  A real exponent gives O = 1.
    """
    _check_count("n", n)
    samples = _samples(exponent)
    M, L, _ = _fit_quad_2d([v.real for v in samples])
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
    M_im = _fit_quad_2d([v.imag for v in samples])[0]
    if M_im.any():
        if not np.isfinite(M_im).all():
            raise DomainError(
                f"integrand does not decay in all directions: phase {M_im.tolist()}"
            )
        frame = evecs * [s1, s2]
        scale, dirs = (1.0, 1.0), frame @ np.linalg.eigh(frame.T @ M_im @ frame)[1]
    t1, t2 = t * scale[0], t * scale[1]
    x1, y1 = center[0] + t1 * dirs[0, 0], center[1] + t1 * dirs[1, 0]
    dx, dy = t2 * dirs[0, 1], t2 * dirs[1, 1]
    zc = complex(*center)

    def nodes(i):  # x + iy as 1j y + x: the same bits, without a buffered cast
        z = 1j * (y1[i, None] + dy)
        z += x1[i, None] + dx
        return z

    reach = _SHELL * np.abs(nodes([0, -1])[:, [0, -1]] - zc).max()

    def rows(span):
        z = nodes(span)
        return z, np.abs(z - zc) >= reach

    ww = np.einsum("i,j->ij", ew, ew)  # np.outer would take a 128 KB buffer as well
    ww *= s1 * s2
    axes = PlaneAxes(samples, zc, x1 + 1j * y1, (center[0] + dx) + 1j * (center[1] + dy))
    return QuadGrid._tensor(ww.reshape(-1), axes, n, rows)


def hphi_grid(p: PhaseParams, U: HoloGauss, V: HoloGauss, n: int = 160) -> QuadGrid:
    """Grid for the weighted inner product of U and V (fitted to their pair
    exponent)."""
    return plane_grid(lambda z: _pair_exponent(p, U, V, z), n)


def _pair_exponent(p: PhaseParams, U: HoloGauss, V: HoloGauss, z):
    """The exponent of ``U conj(V) e^{-2 Phi/h}`` at z (a point or an array):
    ``c2 z^2 + c1 z`` of U, plus the conjugate of V's, minus ``2 Phi/h``."""
    return (
        U.c2 * z * z
        + U.c1 * z
        + (V.c2 * z * z + V.c1 * z).conjugate()
        - 2.0 * weight_Phi(p, z) / p.h
    )


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
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    wt = 2.0 * math.pi / n_theta
    cos, sin = np.cos(theta), np.sin(theta)
    outer = _polar_shell(r)

    def rows(span):
        rr = r[span, None]
        z = 1j * (rr * sin)  # as in plane_grid
        z += rr * cos
        return z, np.broadcast_to(outer[span, None], z.shape)

    radial = wr * wt
    axes = PolarAxes(r, radial, theta)
    return QuadGrid._tensor(np.repeat(radial, n_theta), axes, n_theta, rows)


def _polar_shell(r: np.ndarray) -> np.ndarray:
    """Which radii of a polar grid carry its outer shell: those at least
    0.95 of the largest.  With two or more angles the grid's mean is the
    origin and ``|node|`` is its radius, to round-off."""
    return r >= _SHELL * r.max()


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


#: Nodes per pass of :func:`_quad_block`.  Bounds its node-by-function work
#: arrays (about 1 MB each at 7 functions) whatever the grid size: one array
#: over all 102,400 nodes of a default polar grid costs tens of MB of peak
#: memory, and a chunk's temporaries are reused from the allocator's cache.
_CHUNK = 8192


#: The ``cols`` of :func:`_quad_block` that are the conjugated rows.
_CONJ_ROWS = object()


def _quad_block(grid: QuadGrid, rows, cols=None, exponent=None) -> np.ndarray:
    """The quadrature sums ``sum_n w_n r_j(z_n) c_k(z_n)`` as a J x K array,
    or ``sum_n w_n r_j(z_n)`` as a J-vector when ``cols`` is None.

    ``rows`` and ``cols`` map a chunk of nodes (at most :data:`_CHUNK`) to
    the values of their J (or K) functions on it: an array with one row per
    function, or a list with an array or a number per function (a one-term
    Hermite sum is a number).  ``cols`` may instead be a pair ``(a, b)`` of
    per-axis factors of a plane grid (:func:`_axis_factors`), one row per
    column function, or :data:`_CONJ_ROWS` for the conjugates of the rows'
    values, evaluated once per chunk for both.  ``exponent``, if given, maps
    nodes to the exponent E of a factor ``e^E`` of every row: per axis on a
    plane grid fitted to E (the same samples at :data:`_FIT_POINTS`, bit for
    bit), per node on any other grid.  The chunk's nodes, its shell mask
    and the factors are formed chunk by chunk (:meth:`QuadGrid._chunk`);
    no array spans all nodes.

    Each sum is checked for truncation as if it stood alone: its total and
    outer-shell masses are the same sums of ``|w r_j| |c_k|``, over all
    nodes and over the grid's shell.  The products run in ``np.einsum``,
    numpy's own loops: no BLAS thread, and each sum is the same, bit for
    bit, whichever other sums run with it.
    """
    factors = None if exponent is None else _fitted_factors(grid, exponent)
    sums = total = shell = 0.0
    size = grid.weights.size
    for start in range(0, size, _CHUNK):
        stop = min(start + _CHUNK, size)
        z, on = grid._chunk(start, stop)
        r = _on_chunk(rows, z)
        if cols is None:
            c = np.ones((1, z.size))
        elif cols is _CONJ_ROWS:
            c = np.conj(r)
        elif isinstance(cols, tuple):
            c = _on_axes(cols, start, z.size)
        else:
            c = _on_chunk(cols, z)
        if factors is not None:
            r = r * _on_axes(factors, start, z.size)
        elif exponent is not None:
            r = r * np.exp(exponent(z))
        r = grid.weights[start:stop] * r
        sums = sums + np.einsum("jn,kn->jk", r, c)
        r, c = np.abs(r), np.abs(c)
        total = total + np.einsum("jn,kn->jk", r, c)
        shell = shell + np.einsum("jn,kn->jk", r[:, on], c[:, on])
    _check_truncation(total, shell)
    return sums[:, 0] if cols is None else sums


def _on_chunk(functions, z: np.ndarray) -> np.ndarray:
    """The values ``functions(z)`` as a complex array, one row per function."""
    values = np.broadcast_arrays(z, *functions(z))[1:]
    return np.array(values, dtype=complex).reshape(-1, z.size)


def _axis_factors(e1, e2, ec):
    """Per-axis factors ``(a, b)`` with ``a_i b_j = exp(e1_i + e2_j - ec)``:
    the exponents along the two axes of a plane grid through its center,
    and at the center, of an exponent with no cross term.  Each exponent is
    summed before its one ``np.exp``; b is shifted so that its largest
    modulus is 1, so no factor exceeds the largest product.  The arrays may
    carry one leading row per function (with ``ec`` a column)."""
    e2 = e2 - ec
    shift = e2.real.max(axis=-1, keepdims=True)
    return np.exp(e1 + shift), np.exp(e2 - shift)


def _fitted_factors(grid: QuadGrid, exponent):
    """:func:`_axis_factors` of ``exponent`` on a plane grid fitted to it,
    else None."""
    axes = grid.axes
    if not isinstance(axes, PlaneAxes) or _samples(exponent) != axes.samples:
        return None
    return _axis_factors(exponent(axes.along1), exponent(axes.along2), exponent(axes.center))


def _on_axes(factors, start: int, size: int) -> np.ndarray:
    """``a_i b_j`` at nodes ``start .. start + size - 1`` (node ``i n + j``):
    the whole rows i that hold them, by broadcasting, then the slice."""
    a, b = factors
    span, part = _row_span(start, size, b.shape[-1])
    return _flat(a[..., span, None] * b[..., None, :], part)


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
    line grid fitted to the real part of the integrand's exponent, with f's
    Hermite sum by its three-term recurrence."""
    if f.is_zero:
        return 0j

    def exponent(x):
        return 1j * phi_phase(p, z, x) / p.h + f.gamma2 * x * x + f.gamma1 * x

    g = line_grid(lambda x: exponent(x).real)
    total = _quad_block(g, lambda x: [f.hermite_sum(x)], exponent=exponent)[0]
    return p.C_phi * p.h ** (-0.75) * complex(total)


def adjoint_quad(
    p: PhaseParams,
    U: HoloGauss,
    x: float,
    grid: QuadGrid | None = None,
) -> complex:
    """T* U(x) by 2D quadrature over the plane.

    Kept quadrature-only by design: it is the independent route that certifies
    the closed-form transform (T* T = identity on the line class).  With no
    ``grid`` the sum runs on the plane grid fitted to its whole exponent,
    where the exponential factors per axis; on a grid passed in it is
    evaluated per node.
    """
    if U.is_zero:
        return 0j

    def exponent(z):
        return (
            -1j * phi_phase(p, z, x).conjugate() / p.h
            + U.c2 * z * z
            + U.c1 * z
            - 2.0 * weight_Phi(p, z) / p.h
        )

    g = grid if grid is not None else plane_grid(exponent)
    total = _quad_block(g, lambda z: [U.hermite_sum(z)], exponent=exponent)[0]
    return p.C_phi * p.h ** (-0.75) * complex(total)


def projector_apply(
    p: PhaseParams,
    U: HoloGauss,
    points: Sequence[complex],
    grid: QuadGrid | None = None,
) -> list[complex]:
    """Projector (C_Phi/h) integral e^{2 Psi(z, conj zeta)/h} U(zeta) e^{-2 Phi/h}
    at each of ``points``; reproduces U(z) for U in the weighted holomorphic
    class the grid resolves.  Only ``U.hermite_sum``, ``U.c2`` and ``U.c1`` are
    read.

    One 1 x P block of :func:`_quad_block`: ``U.hermite_sum`` against one
    column per point, ``exp(c2 zeta^2 + c1 zeta - 2 Phi/h + 2 Psi(z, conj
    zeta)/h)``, whose exponent is summed before its one ``np.exp``.  Each
    point is its own sum, with its own truncation check.  With no ``grid``
    the sums run on the plane grid fitted to the column exponent at z = 0.
    ``Psi(z, conj zeta)`` is a term bilinear in z and conj zeta plus
    quadratics in each alone, so every point's column exponent is that
    grid's quadratic plus a linear term and a constant: it has no cross
    term either, and each column factors per axis.  On a grid passed in the
    columns are evaluated per node.
    """

    def exponent(z, zs):
        weighted = U.c2 * zs * zs + U.c1 * zs - 2.0 * weight_Phi(p, zs) / p.h
        return weighted + 2.0 * kernel_Psi(p, z, zs.conjugate()) / p.h

    if grid is None:
        grid = plane_grid(lambda zs: exponent(0j, zs))
        axes = grid.axes
        zs = np.array(points, dtype=complex).reshape(-1, 1)
        cols = _axis_factors(
            exponent(zs, axes.along1), exponent(zs, axes.along2), exponent(zs, axes.center)
        )
    else:

        def cols(zs):
            return [np.exp(exponent(z, zs)) for z in points]

    sums = _quad_block(grid, lambda zs: [U.hermite_sum(zs)], cols)[0]
    return [p.C_Phi / p.h * complex(v) for v in sums]


def _pair_block(p: PhaseParams, fs, gs, grid: QuadGrid) -> np.ndarray:
    """``[sum w f_j conj(g_k) e^{pair exponent}]`` for functions fs sharing
    one exponent and gs sharing another: the rows are Hermite sums, the
    columns conjugated Hermite sums (the rows' own, when gs is fs), each
    family on one recurrence pass per chunk where it shares one basis, and
    the pair exponent is the factor that :func:`_quad_block` multiplies in."""
    return _quad_block(
        grid,
        lambda zs: _family_sums(fs, zs),
        _CONJ_ROWS if gs is fs else lambda zs: [np.conj(v) for v in _family_sums(gs, zs)],
        lambda zs: _pair_exponent(p, fs[0], gs[0], zs),
    )


def inner_product_HPhi(
    p: PhaseParams,
    U: HoloGauss,
    V: HoloGauss,
    grid: QuadGrid | None = None,
) -> complex:
    """Weighted inner product integral U conj(V) e^{-2 Phi/h} over the plane.

    Membership of the pair in the weighted space is enforced by the grid fit:
    a combined exponent that fails to decay in some direction raises
    ``DomainError`` (for the classic weight this is exactly the
    ``|c2| < 1/(4h)`` growth-class bound on each factor).  With no ``grid``
    the sum runs on :func:`hphi_grid`; on any grid fitted to the pair's
    exponent (``hphi_grid`` of another pair with the same ``c2`` and ``c1``)
    the exponential factors per axis, on other grids per node.
    """
    if U.is_zero or V.is_zero:
        return 0j
    g = grid if grid is not None else hphi_grid(p, U, V)
    return complex(_pair_block(p, [U], [V], g)[0, 0])


def gram_HPhi(p: PhaseParams, fs: Sequence[HoloGauss]) -> list[list[complex]]:
    """Gram matrix ``[inner_product_HPhi(p, fs[j], fs[k])]`` of functions
    sharing one exponent ``(c2, c1)``, else ``DomainError``.

    All pairs then share the grid and the exponential factor: the matrix is
    one K x K block of :func:`_quad_block`, whose every entry is the sum of
    :func:`inner_product_HPhi`, equal to it bit for bit; each Hermite sum is
    evaluated once per chunk, for its row and its column.  The lower
    triangle mirrors the upper (see :func:`~bargmann_lab.gaussalg._hermitian`).
    """
    U = fs[0]
    if any(f.c2 != U.c2 or f.c1 != U.c1 for f in fs):
        raise DomainError("gram_HPhi needs functions with one exponent")
    return _hermitian(_pair_block(p, fs, fs, hphi_grid(p, U, U))).tolist()
