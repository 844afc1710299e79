"""Localization-operator eigenvalues for radial symbols on the plane.

A bounded symbol ``b(x - i xi)`` is quantized by multiplying on the weighted
holomorphic space and projecting back.  For radial symbols
``b(x - i xi) = c(x^2 + xi^2)`` the classic monomials diagonalize the
operator, with eigenvalues

    lambda_n = (1/n!) integral_0^inf c(2s) s^n e^{-s} ds,

and for the indicator of a disk the integral collapses to the tail of the
Poisson distribution:

    lambda_n = e^{-R} sum_{k > n} R^k / k!,        R = -log(1 - lambda_0).

Convention (fixed by the verified identity between the two formulas): the
profile argument is ``u = x^2 + xi^2 = |z|^2``, so ``indicator(R)`` means
``c(u) = 1 for u <= 2R`` -- geometrically the disk of radius ``sqrt(2R)``
in the plane carrying the weight ``e^{-|z|^2/2}``.  The series parameter R
is *not* the geometric radius; the package treats the scaling purely through
this documented convention.

Three independent routes are kept deliberately separate: the Poisson series,
radial quadrature by a double-exponential (tanh-sinh / exp-sinh) rule, and
full 2D quadrature of the matrix elements.
The 2D route computes a whole N x N block at once.  On a polar grid the
integrand of entry (m, n) is a radial factor times ``e^{i(m-n) theta}``, so
the block is a radial sum times an angular sum: the symbol, the Gaussian and
the normalized radial powers are evaluated once per radius, and the angular
sums are computed (not set to 0 or n_theta), so the off-diagonal entries
still measure the trapezoid rule.  Each entry is checked for truncation as a
single sum would be, on the grid's outer-shell nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussalg import DomainError
from .bargmann import (
    QuadGrid,
    polar_grid,
    _adaptive_quad,
    _angles,
    _check_truncation,
)

__all__ = [
    "RadialSymbol",
    "radial_eigenvalue",
    "disk_eigenvalue",
    "radius_from_groundstate",
    "radius_roundtrip_error",
    "toeplitz_matrix_quad",
    "toeplitz_block_quad",
    "default_toeplitz_grid",
    "spectrum_rows",
]


@dataclass(frozen=True)
class RadialSymbol:
    """Radial profile c(u) with u = x^2 + xi^2.

    ``support`` bounds the profile argument (``inf`` for global profiles);
    it doubles as the quadrature split/truncation hint.  ``c`` is called
    with arrays of node values by both quadrature routes, so it must be
    written with numpy (``np.exp``, not ``math.exp``).
    """

    c: Callable[[np.ndarray], np.ndarray]
    support: float

    @staticmethod
    def indicator(R: float) -> "RadialSymbol":
        """Indicator profile c(u) = 1_{u <= 2R} (series parameter R)."""
        if not R > 0:
            raise DomainError(f"R = {R} must be positive")
        return RadialSymbol(lambda u: (u <= 2 * R) * 1.0, 2 * R)

    @staticmethod
    def gaussian(rate: float) -> "RadialSymbol":
        """c(u) = exp(-rate * u)."""
        if not rate > 0:
            raise DomainError(f"rate = {rate} must be positive")
        return RadialSymbol(lambda u: np.exp(-rate * u), math.inf)


def radial_eigenvalue(sym: RadialSymbol, n: int) -> float:
    """lambda_n = (1/n!) integral_0^inf c(2s) s^n e^{-s} ds, by quadrature.

    The double-exponential rule of :func:`~bargmann_lab.bargmann._adaptive_quad`
    (tanh-sinh on [0, support/2], exp-sinh on [0, inf)) halves its step
    until two levels agree to 1e-12 of the integral of the integrand's
    absolute value.  The test is relative because lambda_n is as small as
    1e-217 (the indicator with R = 0.01 at n = 63), and an absolute floor
    such as 1e-13 would accept any answer below it; only values under the
    smallest normal float are resolved to that float.  A sign-changing
    profile may give lambda_n = 0, to round-off.  This is the quadrature
    route, independent of any series identity.
    """
    (value,), (error,) = _radial_quad(sym, [n])
    if not math.isfinite(value):
        raise DomainError(f"radial integral did not converge (profile unbounded?): {value}")
    if not _certified(value, error):
        raise DomainError(f"radial integral error estimate {error} too large")
    return float(value)


def _radial_quad(sym: RadialSymbol, ns: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_n, error estimate) for every n in ``ns``, from one quadrature:
    each level evaluates the profile once and integrates one row per n."""
    n = np.array(ns, dtype=float).reshape(-1, 1)
    if (n < 0).any():
        raise DomainError("index must be >= 0")
    lognf = np.array([math.lgamma(k + 1.0) for k in n.ravel()]).reshape(n.shape)

    def integrand(s: np.ndarray) -> np.ndarray:
        # s^n e^{-s} / n! in log space: stable for every n in range; the
        # rule puts no node on s = 0
        return sym.c(2 * s) * np.exp(n * np.log(s) - s - lognf)

    return _adaptive_quad(integrand, 0.0, sym.support / 2)


def _certified(value: np.ndarray, error: np.ndarray) -> np.ndarray:
    """Whether each radial integral is finite with an error estimate of at
    most 1e-10 times max(1, |value|)."""
    return np.isfinite(value) & (error <= 1e-10 * np.maximum(1.0, abs(value)))


def disk_eigenvalue(R: float, n: int) -> float:
    """Poisson-tail series lambda_n = 1 - e^{-R} sum_{k<=n} R^k/k!.

    Terms are evaluated in log space and combined with compensated
    summation; values below double precision underflow to zero.  The ground
    state ``1 - e^{-R}`` is computed as ``-expm1(-R)``, which keeps its
    relative accuracy for small R.
    """
    if not R > 0:
        raise DomainError(f"R = {R} must be positive")
    if n < 0:
        raise DomainError("index must be >= 0")
    if n == 0:
        return -math.expm1(-R)
    log_r = math.log(R)
    head = math.fsum(
        math.exp(k * log_r - R - math.lgamma(k + 1)) for k in range(n + 1)
    )
    return max(1.0 - head, 0.0)


def radius_from_groundstate(lambda0: float) -> float:
    """Invert lambda_0 = 1 - e^{-R}: R = -log(1 - lambda_0), exactly."""
    if not 0 < lambda0 < 1:
        raise DomainError(f"lambda0 = {lambda0} must lie in (0, 1)")
    return -math.log1p(-lambda0)


def radius_roundtrip_error(R: float) -> float:
    """|radius_from_groundstate(disk_eigenvalue(R, 0)) - R|.

    ``inf`` when lambda_0 rounds to 1 (R above about 37), where R cannot be
    recovered from lambda_0 and the round trip must not certify.
    """
    lambda0 = disk_eigenvalue(R, 0)
    if lambda0 == 1.0:
        return math.inf
    return abs(radius_from_groundstate(lambda0) - R)


def default_toeplitz_grid(sym: RadialSymbol, max_index: int) -> QuadGrid:
    """Polar grid sized for matrix elements up to ``max_index``, with
    :func:`~bargmann_lab.bargmann.polar_grid`'s default node counts.

    The grid reaches sqrt(2 (max_index + 2)) + 8, past which the weighted
    powers are negligible.  A support boundary (|z| = sqrt(support)) inside
    that reach splits the radial panels there and widens the grid to 6
    beyond it; a boundary at or beyond the reach leaves the grid as for a
    global profile, since the profile has no break where the weight lives
    (widening it with the same node count would step over the weight).  The
    angular trapezoid rule annihilates e^{i k theta} for 0 < |k| < 128,
    which is what makes radial matrices diagonal at quadrature level.
    """
    r_max = math.sqrt(2.0 * (max_index + 2)) + 8.0
    split = math.sqrt(sym.support) if sym.support > 0 else math.inf
    if split >= r_max:
        return polar_grid(r_max)
    return polar_grid(max(r_max, split + 6.0), split_at=split)


def _toeplitz_entries(
    sym: RadialSymbol, rows: Sequence[int], cols: Sequence[int], g: QuadGrid
) -> np.ndarray:
    """Matrix elements for m in ``rows`` and n in ``cols``, the sums of
    ``c(|z|^2) e^{-|z|^2/2} varphi_m(z) conj(varphi_n(z))`` over the nodes
    of a polar grid, with ``varphi_k(z) = z^k / sqrt(pi 2^{k+1} k!)``.

    ``T_mn = sum_k w_k c(r_k^2) e^{-r_k^2/2} P_m(r_k) P_n(r_k) * sum_l
    e^{i(m-n) theta_l}`` with ``P_k = |varphi_k|``; the masses of the
    truncation check factor the same way, the shell's counting the
    ``n_theta`` nodes of each radius ``r_k >= reach`` of the grid's outer
    shell.  Each entry is checked for truncation as a single sum would be.
    """
    rows, cols = list(rows), list(cols)
    K = max(rows + cols) + 1
    r, w, theta = g.first, g.w1, _angles(g.second.size)
    u = r * r
    radial = w * (sym.c(u) * np.exp(-u / 2.0))
    P = np.empty((K, r.size))  # r^k / sqrt(pi 2^{k+1} k!), each from the previous one
    P[0] = 1 / math.sqrt(2 * math.pi)
    np.multiply((1 / np.sqrt(2.0 * np.arange(1, K)))[:, None], r, out=P[1:])
    for k in range(1, K):
        P[k] *= P[k - 1]
    Pr, Pc = P[rows], P[cols]
    counts = theta.size * (r >= g.reach)
    mass = np.abs(radial)
    _check_truncation(
        np.einsum("jk,nk->jn", Pr * (mass * theta.size), Pc),
        np.einsum("jk,nk->jn", Pr * (mass * counts), Pc),
    )
    angular = np.exp(1j * np.subtract.outer(rows, cols)[..., None] * theta).sum(axis=-1)
    return np.einsum("jk,nk->jn", Pr * radial, Pc) * angular


def toeplitz_block_quad(sym: RadialSymbol, N: int) -> np.ndarray:
    """The N x N matrix of :func:`toeplitz_matrix_quad` elements, m, n < N.

    All entries come from one pass over the radii of
    :func:`default_toeplitz_grid` instead of one pass per entry; each entry
    is checked for truncation as a single sum would be.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    return _toeplitz_entries(sym, range(N), range(N), default_toeplitz_grid(sym, N - 1))


def toeplitz_matrix_quad(sym: RadialSymbol, m: int, n: int) -> complex:
    """Matrix element int b(z) varphi_m(z) conj(varphi_n(z)) e^{-|z|^2/2} L(dz).

    2D-quadrature route in the classic basis (h = 1), on
    :func:`default_toeplitz_grid`.  For radial b the result is diagonal; the
    diagonal reproduces :func:`radial_eigenvalue`.  Computed as the 1 x 1
    block of :func:`toeplitz_block_quad`'s pass.
    """
    if min(m, n) < 0:  # before the grid is sized for them
        raise DomainError("index must be >= 0")
    g = default_toeplitz_grid(sym, max(m, n))
    return complex(_toeplitz_entries(sym, [m], [n], g)[0, 0])


def spectrum_rows(R: float, N: int) -> list[dict]:
    """Rows n, lambda_formula (series), lambda_quadrature (radial), abs_diff.

    A radial row that :func:`radial_eigenvalue` would refuse reads NaN, so
    its difference fails any tolerance."""
    value, error = _radial_quad(RadialSymbol.indicator(R), range(N))
    radial = np.where(_certified(value, error), value, math.nan)
    rows = []
    for n in range(N):
        lf = disk_eigenvalue(R, n)
        lq = float(radial[n])
        rows.append(
            {
                "n": n,
                "lambda_formula": lf,
                "lambda_quadrature": lq,
                "abs_diff": abs(lf - lq),
            }
        )
    return rows
