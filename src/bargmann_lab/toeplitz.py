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
The 2D route computes a whole N x N block in one pass over the polar nodes:
|z|^2, the symbol, the Gaussian and the monomial powers are evaluated once
per node, and the block is one weighted product of the monomial columns.
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
    _check_truncation,
    _quad_sum,
    _serial_blas,
)

__all__ = [
    "RadialSymbol",
    "symbol_convolve",
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
    """Radial profile c(u) with u = x^2 + xi^2, tagged by kind.

    ``support`` bounds the profile argument (``inf`` for global profiles);
    it doubles as the quadrature split/truncation hint.  ``c`` is called
    with arrays of node values by both quadrature routes, so it must be
    written with numpy (``np.exp``, not ``math.exp``).
    """

    c: Callable[[np.ndarray], np.ndarray]
    kind: str
    support: float

    @staticmethod
    def indicator(R: float) -> "RadialSymbol":
        """Indicator profile c(u) = 1_{u <= 2R} (series parameter R)."""
        if not R > 0:
            raise DomainError(f"R = {R} must be positive")
        return RadialSymbol(lambda u: (u <= 2 * R) * 1.0, "indicator", 2 * R)

    @staticmethod
    def smooth(
        c: Callable[[np.ndarray], np.ndarray], support: float = math.inf
    ) -> "RadialSymbol":
        return RadialSymbol(c, "smooth", support)

    @staticmethod
    def gaussian(rate: float) -> "RadialSymbol":
        """c(u) = exp(-rate * u)."""
        if not rate > 0:
            raise DomainError(f"rate = {rate} must be positive")
        return RadialSymbol(lambda u: np.exp(-rate * u), "smooth", math.inf)


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
    return float(_radial_eigenvalues(sym, [n])[0])


def _radial_eigenvalues(sym: RadialSymbol, ns: Sequence[int]) -> np.ndarray:
    """:func:`radial_eigenvalue` for every n in ``ns``, from one quadrature:
    each level evaluates the profile once and integrates one row per n."""
    n = np.array(ns, dtype=float).reshape(-1, 1)
    if (n < 0).any():
        raise DomainError("index must be >= 0")
    lognf = np.array([math.lgamma(k + 1.0) for k in n.ravel()]).reshape(n.shape)

    def integrand(s: np.ndarray) -> np.ndarray:
        # s^n e^{-s} / n! in log space: stable for every n in range; the
        # rule puts no node on s = 0
        return sym.c(2 * s) * np.exp(n * np.log(s) - s - lognf)

    val, err = _adaptive_quad(integrand, 0.0, sym.support / 2, 1e-12)
    finite = np.isfinite(val)
    if not finite.all():
        raise DomainError(
            f"radial integral did not converge (profile unbounded?): {val[~finite][0]}"
        )
    bad = err > 1e-10 * np.maximum(1.0, abs(val))
    if bad.any():
        raise DomainError(f"radial integral error estimate {err[bad][0]} too large")
    return val


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


def symbol_convolve(
    b_values: Sequence[float],
    x: float,
    xi: float,
    grid: QuadGrid,
) -> float:
    """Gaussian smoothing (1/pi) int e^{-(x-y)^2-(xi-eta)^2} b(y - i eta).

    ``b_values`` are samples of b on the (planar) grid.  Returns the smoothed
    symbol at (x, xi); constants are preserved and sup|a| <= sup|b|.
    """
    dy = grid.nodes.real - x
    de = grid.nodes.imag - xi
    kern = np.exp(-(dy * dy) - (de * de))
    vals = kern * np.asarray(b_values, dtype=complex)
    return float(_quad_sum(grid, vals).real / math.pi)


def _classic_coeff(k: int) -> float:
    """Coefficient of the classic normalized monomial z^k / sqrt(pi 2^{k+1} k!) (h = 1)."""
    return 1.0 / math.sqrt(math.pi * 2.0 ** (k + 1) * math.factorial(k))


def default_toeplitz_grid(sym: RadialSymbol, max_index: int) -> QuadGrid:
    """Polar grid sized for matrix elements up to ``max_index``, with
    :func:`~bargmann_lab.bargmann.polar_grid`'s default node counts.

    Radial panels split at an indicator boundary (|z| = sqrt(support));
    the angular trapezoid rule annihilates e^{i k theta} for 0 < |k| < 128,
    which is what makes radial matrices diagonal at quadrature level.
    """
    r_max = math.sqrt(2.0 * (max_index + 2)) + 8.0
    split = None
    if math.isfinite(sym.support) and sym.support > 0:
        split = math.sqrt(sym.support)
        r_max = max(r_max, split + 6.0)
    return polar_grid(r_max, split_at=split)


#: Nodes per pass of the block product.  Bounds the node-by-index work
#: arrays (about 1 MB each at 7 indices) whatever the grid size: one array
#: over all 102,400 nodes of a default grid costs tens of MB of peak memory.
_CHUNK = 8192


def _toeplitz_entries(
    sym: RadialSymbol, rows: Sequence[int], cols: Sequence[int], g: QuadGrid
) -> np.ndarray:
    """Matrix elements for m in ``rows`` and n in ``cols``, in one pass.

    With K the largest index plus one, each chunk of nodes evaluates |z|^2,
    the weight ``w c(|z|^2) e^{-|z|^2/2}`` and the powers z^k, |z|^k (k < K,
    each from the previous one) once, and adds ``Z diag(weight) Z^H`` to a
    K x K sum.  The truncation test of a single quadrature sum then runs on
    every requested entry: its total and outer-shell absolute masses are the
    same product of ``|Z|`` and ``|weight|``, over all nodes and over the
    shell.  The monomial normalizations scale the K x K sums at the end.
    The products run under :func:`~bargmann_lab.bargmann._serial_blas`.
    """
    rows, cols = list(rows), list(cols)
    if min(rows + cols) < 0:
        raise DomainError("index must be >= 0")
    K = max(rows + cols) + 1
    block = np.zeros((K, K), dtype=complex)
    total = np.zeros((K, K))
    shell = np.zeros((K, K))
    with _serial_blas():
        for start in range(0, len(g.nodes), _CHUNK):
            z = g.nodes[start:start + _CHUNK]
            r = np.abs(z)
            u = r * r
            weight = g.weights[start:start + _CHUNK] * sym.c(u) * np.exp(-u / 2.0)
            powers = np.empty((K, len(z)), dtype=complex)
            moduli = np.empty((K, len(z)))
            powers[0], moduli[0] = 1.0, 1.0
            for k in range(1, K):
                powers[k] = powers[k - 1] * z
                moduli[k] = moduli[k - 1] * r
            block += (powers * weight) @ np.conj(powers).T
            mass = np.abs(weight)
            total += (moduli * mass) @ moduli.T
            on = g.shell[start:start + _CHUNK]
            shell += (moduli[:, on] * mass[on]) @ moduli[:, on].T
    coeffs = np.array([_classic_coeff(k) for k in range(K)])
    norm = np.outer(coeffs, coeffs)
    pick = np.ix_(rows, cols)
    _check_truncation((norm * total)[pick], (norm * shell)[pick])
    return (norm * block)[pick]


def toeplitz_block_quad(
    sym: RadialSymbol, N: int, grid: QuadGrid | None = None
) -> np.ndarray:
    """The N x N matrix of :func:`toeplitz_matrix_quad` elements, m, n < N.

    All entries come from one pass over the nodes instead of one pass per
    entry; each entry is checked for truncation as a single sum would be.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    g = grid if grid is not None else default_toeplitz_grid(sym, N - 1)
    return _toeplitz_entries(sym, range(N), range(N), g)


def toeplitz_matrix_quad(
    sym: RadialSymbol,
    m: int,
    n: int,
    grid: QuadGrid | None = None,
) -> complex:
    """Matrix element int b(z) varphi_m(z) conj(varphi_n(z)) e^{-|z|^2/2} L(dz).

    2D-quadrature route in the classic basis (h = 1).  For radial b the
    result is diagonal; the diagonal reproduces :func:`radial_eigenvalue`.
    Computed as the 1 x 1 block of :func:`toeplitz_block_quad`'s pass.
    """
    g = grid if grid is not None else default_toeplitz_grid(sym, max(m, n))
    return complex(_toeplitz_entries(sym, [m], [n], g)[0, 0])


def spectrum_rows(R: float, N: int) -> list[dict]:
    """Rows n, lambda_formula (series), lambda_quadrature (radial), abs_diff."""
    radial = _radial_eigenvalues(RadialSymbol.indicator(R), range(N))
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
