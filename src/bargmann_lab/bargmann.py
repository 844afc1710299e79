"""The transform, its adjoint, the projector kernel, and quadrature oracles.

The transform

    T f(z) = C_phi * h**(-3/4) * integral exp(i phi(z,x)/h) f(x) dx

maps ``PolyGauss`` functions on the line to ``HoloGauss`` functions on the
plane in closed form (completing the square reduces the integral to Gaussian
moments).  The adjoint and the projector are kept quadrature-only on purpose:
they are the *independent* route against which the closed forms are certified.

A quadrature grid holds two read-only arrays: ``nodes`` (float on the line,
complex x+iy on the plane) and positive float ``weights``.  Every integrand
below is one expression on the node array: the ``phasecore`` functions and
``ComplexPoly.__call__`` accept arrays, and the exponents of all factors are
summed before a single ``np.exp``, because a factor alone can overflow where
the product is negligible.  What does not change between the sums on one grid
is computed once: the projector takes U itself, not samples of it, and
evaluates its polynomial and exponent once for all its points; ``gram_HPhi``
computes one exponential factor for all pairs of functions with one exponent.

Gauss rules are computed once per process: ``_gauss_rule`` fills a private
cache, keyed by family and node count, on first use and hands out the same
read-only (nodes, weights) arrays afterwards, so the hundreds of grids a
certification battery builds share a handful of eigenvalue solves.  Each
grid also computes its outer truncation shell once, at construction.

The program's BLAS/LAPACK calls (those eigenvalue solves and the Toeplitz
block products) run inside ``_serial_blas``, on the calling thread only.

The one-dimensional oracles on intervals and half-lines (the rotated
Gaussian integral, the radial eigenvalues) go through ``_adaptive_quad``, a
double-exponential rule on node arrays, so that importing the package loads
no scipy module.

Planar grids are tensor Gauss-Hermite grids rescaled to the total real
exponent of the integrand (weight plus the Gaussian factors of the integrand
itself, including the induced center shift).  Rescaling to the weight alone
looks sufficient but loses every digit on near-degenerate inputs whose own
Gaussian factor is much wider or narrower than the weight; fitting the total
exponent makes polynomial-times-Gaussian integrands exact up to the
oscillatory phase, which the node count then resolves spectrally.
"""

from __future__ import annotations

import cmath
import contextlib
import ctypes
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .gaussalg import (
    ComplexPoly,
    DomainError,
    HoloGauss,
    PolyGauss,
    _hermitian,
    reduced_moment_polys,
)
from .phasecore import PhaseParams, phi_phase, kernel_Psi, weight_Phi

__all__ = [
    "QuadGrid",
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


@dataclass(frozen=True, eq=False)
class QuadGrid:
    """Quadrature nodes and positive weights, as read-only arrays.

    ``nodes`` is float for 1D grids and complex x+iy for planar grids;
    ``weights`` is float.  ``shell`` is the read-only boolean mask of the
    outer node shell, ``|node - mean| >= 0.95 max``, on which the truncation
    check of every sum looks for mass.
    """

    nodes: np.ndarray
    weights: np.ndarray
    shell: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes)
        weights = np.array(self.weights, dtype=float)
        if nodes.shape != weights.shape:
            raise DomainError("nodes and weights must have equal length")
        if not (weights > 0).all():
            raise DomainError("weights must be positive")
        r = np.abs(nodes - nodes.mean())
        shell = r >= 0.95 * r.max()
        for arr in (nodes, weights, shell):
            arr.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shell", shell)


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------

#: OpenBLAS's thread-count functions under the names its builds export:
#: plain, with the ILP64 suffix ``64_``, and with the ``scipy_`` prefix of
#: the builds that numpy wheels bundle.
_OPENBLAS_THREAD_FUNCS = [
    (f"{pre}openblas_get_num_threads{suf}", f"{pre}openblas_set_num_threads{suf}")
    for pre in ("", "scipy_")
    for suf in ("", "64_")
]


def _find_openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    linear algebra links, or None when numpy uses another BLAS."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)  # its symbols and its BLAS's
    except (ImportError, OSError):
        return None
    for get, set_ in _OPENBLAS_THREAD_FUNCS:
        if hasattr(lib, get) and hasattr(lib, set_):
            return getattr(lib, get), getattr(lib, set_)
    return None


#: Found once at import (numpy has loaded both libraries by then).
_OPENBLAS_THREADS = _find_openblas_threads()


@contextlib.contextmanager
def _serial_blas():
    """Run the enclosed BLAS/LAPACK calls on the calling thread only.

    The program's matrices are small (the eigenvalue solve of a Gauss rule
    of a few hundred nodes, Toeplitz block sums of a few dozen rows), so a
    second OpenBLAS thread does not speed them up, but each threaded call
    has to wake it.  On a shared machine that wake-up can stall one call
    for up to a second: on a 2-vCPU virtual machine, in fresh processes
    with two OpenBLAS threads, 1 of 40 ``leggauss(400)`` calls took 0.53 s
    instead of 0.02 s, and one ``certify --suite all`` in 14 spent 1.17 s
    in it.  Results do not depend on the thread count; the previous count
    is restored on exit.  Without OpenBLAS this does nothing.
    """
    if _OPENBLAS_THREADS is None:
        yield
        return
    get, set_ = _OPENBLAS_THREADS
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


_RULES: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}


def _gauss_rule(family: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights) of the n-point Gauss rule of ``family``.

    ``family`` is ``"hermite"`` (weight e^{-t^2}) or ``"legendre"`` (on
    [-1, 1]).  Each rule is computed on first use, by the module-level
    ``hermgauss``/``leggauss`` under :func:`_serial_blas`, and then served
    from a per-process cache; the arrays are shared, hence read-only.
    """
    key = (family, n)
    rule = _RULES.get(key)
    if rule is None:
        with _serial_blas():
            t, w = (hermgauss if family == "hermite" else leggauss)(n)
        t.flags.writeable = False
        w.flags.writeable = False
        rule = _RULES[key] = (t, w)
    return rule


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
    _, m1, m2 = _fit_quad_1d(real_exponent)
    if not m2 < 0:
        raise DomainError(f"integrand does not decay: quadratic coeff {m2}")
    center = -m1 / (2.0 * m2)
    scale = 1.0 / math.sqrt(-m2)
    t, w = _gauss_rule("hermite", n)
    nodes = center + scale * t
    weights = w * np.exp(t * t) * scale
    return QuadGrid(nodes, weights)


def _fit_quad_2d(fn: Callable[[complex], float]):
    """Exact quadratic-form fit fn(x+iy) = c + L.v + v.M.v, returned as (M, L, c)."""
    c = fn(0j)
    f10, fm10 = fn(1 + 0j), fn(-1 + 0j)
    f01, f0m1 = fn(1j), fn(-1j)
    f11 = fn(1 + 1j)
    m11 = (f10 + fm10) / 2.0 - c
    m22 = (f01 + f0m1) / 2.0 - c
    l1 = (f10 - fm10) / 2.0
    l2 = (f01 - f0m1) / 2.0
    m12 = (f11 - c - l1 - l2 - m11 - m22) / 2.0
    M = np.array([[m11, m12], [m12, m22]], dtype=float)
    L = np.array([l1, l2], dtype=float)
    return M, L, c


def plane_grid(real_exponent: Callable[[complex], float], n: int = 160) -> QuadGrid:
    """Tensor Gauss-Hermite grid over the plane, on the principal axes of
    the (negative-definite) quadratic real exponent.

    Nodes are centered on the exponent's maximum and scaled per axis by its
    decay rates, so polynomial-times-Gaussian integrands are integrated to
    round-off and oscillatory phases converge spectrally in ``n``.
    """
    M, L, _ = _fit_quad_2d(real_exponent)
    evals, evecs = np.linalg.eigh(M)
    if not (evals < 0).all():
        raise DomainError(
            f"integrand does not decay in all directions: eigenvalues {evals}"
        )
    center = np.linalg.solve(2.0 * M, -L)
    t, w = _gauss_rule("hermite", n)
    ew = w * np.exp(t * t)
    s1 = 1.0 / math.sqrt(-evals[0])
    s2 = 1.0 / math.sqrt(-evals[1])
    t1 = (t * s1)[:, None]
    t2 = (t * s2)[None, :]
    x = (center[0] + t1 * evecs[0, 0]) + t2 * evecs[0, 1]
    y = (center[1] + t1 * evecs[1, 0]) + t2 * evecs[1, 1]
    ww = (np.outer(ew, ew) * (s1 * s2)).reshape(-1)
    return QuadGrid((x + 1j * y).reshape(-1), ww)


def hphi_grid(p: PhaseParams, U: HoloGauss, V: HoloGauss, n: int = 160) -> QuadGrid:
    """Grid for the weighted inner product of U and V (total-exponent adapted)."""
    return plane_grid(lambda z: _pair_exponent(p, U, V, z).real, n)


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
    if not r_max > 0:
        raise DomainError("r_max must be positive")
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
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    nodes = (rr * np.cos(tt) + 1j * (rr * np.sin(tt))).reshape(-1)
    ww = np.repeat(wr * wt, n_theta)
    return QuadGrid(nodes, ww)


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


def _quad_sum(grid: QuadGrid, values: np.ndarray) -> complex:
    """Weighted sum with a truncation-error check on the outer node shell."""
    w = grid.weights
    mass = np.abs(values) * w
    _check_truncation(mass.sum(), mass[grid.shell].sum())
    return complex((values * w).sum())


# ---------------------------------------------------------------------------
# The transform and its certified companions
# ---------------------------------------------------------------------------


def transform(p: PhaseParams, f: PolyGauss) -> HoloGauss:
    """Closed form of T f for a polynomial-times-Gaussian input.

    Completing the square in

        T f(z) = C_phi h^{-3/4} e^{iAz^2/2h}
                 * integral poly(x) exp(g2 x^2 + u(z) x) dx,
        g2 = gamma2 + iC/(2h),      u(z) = gamma1 + iBz/h,

    gives a ``HoloGauss`` with

        c2 = iA/(2h) + B^2/(4 h^2 g2),    c1 = -i B gamma1 / (2 h g2),

    and polynomial part ``sum_k poly_k Q_k(u(z))`` rescaled by
    ``C_phi h^{-3/4} exp(-gamma1^2/(4 g2))``.
    """
    if f.is_zero:
        return HoloGauss(ComplexPoly.zero())
    g2 = f.gamma2 + 1j * p.C / (2 * p.h)
    if not g2.real < 0:
        raise DomainError(
            f"x-integral diverges: Re(gamma2 + iC/2h) = {g2.real}"
        )
    b_over_h = 1j * p.B / p.h
    q = reduced_moment_polys(g2, f.poly.degree)
    r_of_u = ComplexPoly.zero()
    for k, ck in enumerate(f.poly.coeffs):
        if ck != 0:
            r_of_u = r_of_u + q[k].scale(ck)
    poly_z = r_of_u.compose_affine(f.gamma1, b_over_h)
    const = (
        p.C_phi
        * p.h ** (-0.75)
        * cmath.exp(-f.gamma1 * f.gamma1 / (4 * g2))
    )
    c2 = 1j * p.A / (2 * p.h) + p.B * p.B / (4 * p.h * p.h * g2)
    c1 = -1j * p.B * f.gamma1 / (2 * p.h * g2)
    return HoloGauss(poly_z.scale(const), c2, c1)


def transform_quad(p: PhaseParams, f: PolyGauss, z: complex) -> complex:
    """Quadrature route for T f(z): the oracle for :func:`transform`, on the
    line grid fitted to the real part of the integrand's exponent."""
    if f.is_zero:
        return 0j

    def exponent(x):
        return 1j * phi_phase(p, z, x) / p.h + f.gamma2 * x * x + f.gamma1 * x

    g = line_grid(lambda x: exponent(x).real)
    return p.C_phi * p.h ** (-0.75) * _quad_sum(g, f.poly(g.nodes) * np.exp(exponent(g.nodes)))


def adjoint_quad(
    p: PhaseParams,
    U: HoloGauss,
    x: float,
    grid: QuadGrid | None = None,
) -> complex:
    """T* U(x) by 2D quadrature over the plane.

    Kept quadrature-only by design: it is the independent route that certifies
    the closed-form transform (T* T = identity on the line class).
    """
    if U.is_zero:
        return 0j

    def real_exponent(z: complex) -> float:
        return (
            (-1j * phi_phase(p, z, x).conjugate() / p.h).real
            + (U.c2 * z * z + U.c1 * z).real
            - 2.0 * weight_Phi(p, z) / p.h
        )

    g = grid if grid is not None else plane_grid(real_exponent)
    zs = g.nodes
    vals = U.poly(zs) * np.exp(
        -1j * phi_phase(p, zs, x).conjugate() / p.h
        + U.c2 * zs * zs
        + U.c1 * zs
        - 2.0 * weight_Phi(p, zs) / p.h
    )
    return p.C_phi * p.h ** (-0.75) * _quad_sum(g, vals)


def projector_apply(
    p: PhaseParams, U: HoloGauss, points: Sequence[complex], grid: QuadGrid
) -> list[complex]:
    """Projector (C_Phi/h) integral e^{2 Psi(z, conj zeta)/h} U(zeta) e^{-2 Phi/h}
    at each of ``points``; reproduces U(z) for U in the weighted holomorphic
    class the grid resolves.  Only ``U.poly``, ``U.c2`` and ``U.c1`` are read.

    ``U.poly`` on the nodes and the exponent ``c2 zeta^2 + c1 zeta - 2 Phi/h``
    are computed once; each point adds its ``2 Psi/h`` before its one
    ``np.exp`` and is its own sum, with its own truncation check.
    """
    zs = grid.nodes
    poly = U.poly(zs)
    exponent = U.c2 * zs * zs + U.c1 * zs - 2.0 * weight_Phi(p, zs) / p.h
    zbar = zs.conjugate()
    return [
        p.C_Phi / p.h
        * _quad_sum(grid, poly * np.exp(exponent + 2.0 * kernel_Psi(p, z, zbar) / p.h))
        for z in points
    ]


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
    ``|c2| < 1/(4h)`` growth-class bound on each factor).
    """
    if U.is_zero or V.is_zero:
        return 0j
    g = grid if grid is not None else hphi_grid(p, U, V)
    zs = g.nodes
    vals = U.poly(zs) * np.conj(V.poly(zs)) * np.exp(_pair_exponent(p, U, V, zs))
    return _quad_sum(g, vals)


def gram_HPhi(p: PhaseParams, fs: Sequence[HoloGauss]) -> list[list[complex]]:
    """Gram matrix ``[inner_product_HPhi(p, fs[j], fs[k])]`` of functions
    sharing one exponent ``(c2, c1)``, else ``DomainError``.

    All pairs then share the grid and the exponential factor, computed once;
    each entry is the product and sum of :func:`inner_product_HPhi`, equal
    to it bit for bit.  Only the upper triangle is summed (the matrix is
    Hermitian, see :func:`~bargmann_lab.gaussalg._hermitian`).
    """
    U = fs[0]
    if any(f.c2 != U.c2 or f.c1 != U.c1 for f in fs):
        raise DomainError("gram_HPhi needs functions with one exponent")
    grid = hphi_grid(p, U, U)
    zs = grid.nodes
    weighted = np.exp(_pair_exponent(p, U, U, zs))
    polys = [f.poly(zs) for f in fs]
    conjs = [np.conj(v) for v in polys]
    return _hermitian(lambda j, k: _quad_sum(grid, polys[j] * conjs[k] * weighted), len(fs))
