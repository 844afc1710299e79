"""Orthogonal families attached to an elliptic phase-plane region (h = 1).

For parameters alpha > 0, beta (excluding the degenerate circle
``(alpha, beta) = (1, 0)``), the region ``|zeta| <= rho``, ``zeta = alpha x
- i(beta x + xi)``, is an elliptic disk.  Its boundary, the preimage of
``|zeta| = rho``, is ``alpha^2 x^2 + (beta x + xi)^2 = rho^2`` (``4 x^2 +
xi^2 = rho^2`` at (2, 0)), not a level set of the family's Wigner functions
(``16 x^2 + xi^2`` at (2, 0)).  The holomorphic family lives in the classic
Bargmann space:

    psi_0 = exp(-a z^2 / 4),
    a = (alpha^2 + beta^2 - 1 + 2 i beta) / (alpha^2 + beta^2 + 1),
    psi_n = { e^{-lambda z^2/2} (d/dz)^n e^{lambda z^2/2} } psi_0
          = (Lambda*)^n psi_0,

with ``0 < |a| < 1``, ``a + 2 lambda = 1/conj(a)``, ladders
``Lambda = (1/a) d/dz + z/2`` and ``Lambda* = d/dz + (a + 2 lambda) z / 2``,
and norms ``(psi_m, psi_n) = delta_mn n! (lambda/a)^n ||psi_0||^2``.
The psi_n are ``HoloGauss`` in the Hermite basis ``p_k(y1 z)``, ``y1^2 =
-lambda/2``, where psi_n is one coefficient and the ladders are banded.

Pulling psi_n back to the line gives the real-side family

    Psi_n = A_ab (-C_ab)^n e^{-i(alpha^2+beta^2+1) beta x^2 / (2(1+beta^2))}
            e^{alpha^2 x^2/(2(1+beta^2))} (d/dx)^n e^{-alpha^2 x^2/(1+beta^2)},

eigenfunctions of ``H_ab = P*_ab P_ab + alpha^2/(1+beta^2)`` with eigenvalues
``alpha^2 (2n+1)/(1+beta^2)``; a parameter bridge exposes them as generalized
Hermite functions of a suitable (B, C) system.  Like the phi_n, the Psi_n
are ``HermiteGauss`` on Psi_0's own Gaussian, the bridged phi_0's
``(gamma2, s)``, so the two families meet in diagonal coefficient sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .gaussalg import (
    DiffOp,
    DomainError,
    HermiteGauss,
    HoloGauss,
    _chain,
    _check_index,
    _holo_band,
    _line_band,
    _reattach,
)
from .phasecore import PhaseParams

__all__ = [
    "DegenerateEllipseError",
    "EllipseParams",
    "derived_constants",
    "psi_n",
    "psi_n_ladder",
    "psi_family_ladder",
    "Psi_n",
    "Psi_n_ladder",
    "Psi_family",
    "Psi_family_ladder",
    "apply_ladder",
    "ladder_diffops",
    "bridge_params",
    "zeta_map",
    "zeta_inverse",
    "ellipse_trace",
]

_IDENTITY_TOL = 1e-12


class DegenerateEllipseError(DomainError):
    """(alpha, beta) = (1, 0): the region is a plain disk.

    The associated family degenerates to the classic Bargmann monomials
    (``a = 0``, ``lambda`` undefined); use the classic ``PhaseParams`` route
    instead.  The error carries that routing hint as ``classic_params``.
    """

    def __init__(self) -> None:
        super().__init__(
            "(alpha, beta) = (1, 0) is the degenerate circle: the family "
            "reduces to the classic Bargmann monomials; use "
            "PhaseParams.classic() with the hermite module instead"
        )
        self.classic_params = PhaseParams.classic()


@dataclass(frozen=True)
class EllipseParams:
    """Ellipse data (alpha, beta) and the constants a, lambda, C_ab and A_ab
    they determine, derived in closed form and validated here.  lambda/a and
    C_ab grow without bound near the degenerate circle: where one is not
    finite, that is a DomainError.  The identities the constants obey are
    certified by the ``constants_identity_dev`` check, not re-checked here."""

    alpha: float
    beta: float
    a: complex = field(init=False)
    lam: complex = field(init=False)
    C_ab: complex = field(init=False)
    A_ab: complex = field(init=False)

    def __post_init__(self) -> None:
        alpha, beta = self.alpha, self.beta
        if not alpha > 0:
            raise DomainError(f"alpha = {alpha} must be positive")
        if alpha == 1.0 and beta == 0.0:
            raise DegenerateEllipseError()
        if not alpha * alpha + beta * beta < math.inf:
            raise DomainError(f"alpha = {alpha}, beta = {beta}: alpha**2 + beta**2 overflows")
        s = alpha**2 + beta**2
        a = complex(s - 1, 2 * beta) / (s + 1)
        lam = 2 * alpha**2 / ((s + 1) * complex(s - 1, -2 * beta))
        c_ab = (1 - a.conjugate()) / (2 * a.conjugate())
        a_ab = math.pi**0.25 * cmath.sqrt((s + 1) / complex(1, -beta))
        for name, value in zip(("a", "lam", "C_ab", "A_ab"), (a, lam, c_ab, a_ab)):
            object.__setattr__(self, name, value)  # the dataclass is frozen
        if not 0 < abs(a) < 1:
            raise DomainError(f"|a| = {abs(a)} must lie in (0, 1)")
        ratio = lam / a
        if not all(map(cmath.isfinite, (ratio, c_ab, a_ab))):
            raise DomainError(f"alpha = {alpha}, beta = {beta}: lambda/a, C_ab or A_ab "
                              "is not finite (too near the degenerate circle (1, 0))")
        if abs(ratio.imag) > _IDENTITY_TOL * abs(ratio) or not ratio.real > 0:
            raise DomainError(f"lambda/a = {ratio} must be real positive")

    @property
    def lam_over_a(self) -> float:
        return (self.lam / self.a).real

    @property
    def norm_psi0_sq(self) -> float:
        """||psi_0||^2 in the weighted space: (alpha^2 + beta^2 + 1) pi / alpha."""
        return (self.alpha**2 + self.beta**2 + 1) * math.pi / self.alpha

    @property
    def w_exponent(self) -> complex:
        """w with Psi_0 = A_ab exp(-w x^2/2):
        (alpha^2 + i(alpha^2+beta^2+1) beta)/(1+beta^2)."""
        s = self.alpha**2 + self.beta**2 + 1
        return complex(self.alpha**2, s * self.beta) / (1 + self.beta**2)

    @property
    def eigen_gap(self) -> float:
        """alpha^2/(1+beta^2); eigenvalues are eigen_gap * (2n+1)."""
        return self.alpha**2 / (1 + self.beta**2)


def derived_constants(alpha: float, beta: float) -> EllipseParams:
    """The ellipse data (alpha, beta) with their derived constants."""
    return EllipseParams(alpha, beta)


# ---------------------------------------------------------------------------
# The holomorphic family psi_n
# ---------------------------------------------------------------------------


def psi0(p: EllipseParams) -> HoloGauss:
    return psi_n(p, 0)


def psi_n(p: EllipseParams, n: int) -> HoloGauss:
    """psi_n by the Rodrigues formula, in closed form.

    The polynomial factor ``P_n = e^{-lambda z^2/2} (d/dz)^n e^{lambda z^2/2}``
    obeys ``P_{k+1} = lambda z P_k + k lambda P_{k-1}``, the Hermite
    recurrence: ``P_n = (-y1)^n sqrt(2^n n!) p_n(y1 z)`` with ``y1^2 =
    -lambda/2`` and ``rho2 = 1`` (either root), one coefficient on psi_0's
    exponent ``-a z^2/4``.
    """
    _check_index(n)
    y1 = cmath.sqrt(-p.lam / 2)
    amp = _power(-y1, n) * math.sqrt(2**n * math.factorial(n))
    return HoloGauss((0j,) * n + (amp,), -p.a / 4, 0j, 0j, y1, 1.0)


def psi_n_ladder(p: EllipseParams, n: int) -> HoloGauss:
    """psi_n as (Lambda*)^n psi_0, n banded maps: the independent construction."""
    _check_index(n)
    u = psi0(p)
    return u.on_basis(_psi_ladder(u, p, n)[-1].tolist())


def psi_family_ladder(p: EllipseParams, n: int) -> list[HoloGauss]:
    """psi_0, ..., psi_{n-1} by one ladder chain; member k is
    ``psi_n_ladder(p, k)``, bit for bit."""
    _check_count(n)
    u = psi0(p)
    return [u.on_basis(a.tolist()) for a in _psi_ladder(u, p, n - 1)[:n]]


def _psi_ladder(u: HoloGauss, p: EllipseParams, n: int) -> list[np.ndarray]:
    """(Lambda*)^k psi_0, k = 0..n, for u = psi_0: coefficient arrays on
    u's exponent and basis, one :func:`~bargmann_lab.gaussalg._chain` of
    Lambda*'s band, so a member is, bit for bit, what a chain of
    ``apply_ladder`` steps gives."""
    return _chain(np.array(u.coeffs), [_holo_band(u, *_LADDERS["lambda_star"](p))] * n)


def _power(c, n: int):
    """``c**n``, or NaN where that overflows: an amplitude that overflows
    makes NaN of the values it reaches, which fails their checks."""
    try:
        return c**n
    except OverflowError:
        return math.nan


def _check_count(n: int) -> None:
    """A family of n members: indices 0..n-1 within the index range."""
    if n:
        _check_index(n - 1)


# ---------------------------------------------------------------------------
# The line family Psi_n
# ---------------------------------------------------------------------------


def Psi0(p: EllipseParams) -> HermiteGauss:
    """Psi_0 = A_ab e^{-w x^2/2} on its own Gaussian (scale sqrt(1/eigen_gap))."""
    return HermiteGauss((complex(p.A_ab),), -p.w_exponent / 2, math.sqrt(1.0 / p.eigen_gap))


def Psi_n(p: EllipseParams, n: int) -> HermiteGauss:
    """Psi_n by the Rodrigues route (n-fold d/dx of the wide Gaussian
    e^{-alpha^2 x^2/(1+beta^2)}, on Psi_0's scale)."""
    _check_index(n)
    return _reattach(_Psi_rodrigues(p, n)[-1], p.A_ab * _power(-p.C_ab, n), Psi0(p))


def Psi_family(p: EllipseParams, n: int) -> list[HermiteGauss]:
    """Psi_0, ..., Psi_{n-1} by one Rodrigues chain; member k is
    ``Psi_n(p, k)``, bit for bit."""
    _check_count(n)
    base, chain = Psi0(p), _Psi_rodrigues(p, n - 1)[:n]
    return [_reattach(a, p.A_ab * _power(-p.C_ab, k), base) for k, a in enumerate(chain)]


def Psi_n_ladder(p: EllipseParams, n: int) -> HermiteGauss:
    """Psi_n as C_ab^n (P*_ab)^n Psi_0: the independent construction."""
    _check_index(n)
    return _reattach(_Psi_ladder(p, n)[-1], _power(p.C_ab, n), Psi0(p))


def Psi_family_ladder(p: EllipseParams, n: int) -> list[HermiteGauss]:
    """Psi_0, ..., Psi_{n-1} by one ladder chain; member k is
    ``Psi_n_ladder(p, k)``, bit for bit."""
    _check_count(n)
    base, chain = Psi0(p), _Psi_ladder(p, n - 1)[:n]
    return [_reattach(a, _power(p.C_ab, k), base) for k, a in enumerate(chain)]


def _Psi_rodrigues(p: EllipseParams, n: int) -> list[np.ndarray]:
    """The Rodrigues chain of the Psi_k, k = 0..n: (d/dx)^k of the wide
    Gaussian, on Psi_0's scale, as coefficient arrays."""
    band = _line_band(DiffOp.d_dx(1.0), -p.eigen_gap, Psi0(p).s)
    return _chain(np.ones(1, complex), [band] * n)


def _Psi_ladder(p: EllipseParams, n: int) -> list[np.ndarray]:
    """(P*_ab)^k Psi_0, k = 0..n, as coefficient arrays on Psi_0's
    exponent: one :func:`~bargmann_lab.gaussalg._chain` of P*_ab's band."""
    base = Psi0(p)
    band = _line_band(ladder_diffops(p)[1], base.gamma2, base.s)
    return _chain(np.array(base.coeffs), [band] * n)


# ---------------------------------------------------------------------------
# Ladder and oscillator operators
# ---------------------------------------------------------------------------


def ladder_diffops(p: EllipseParams) -> tuple[DiffOp, DiffOp, DiffOp]:
    """(P_ab, P*_ab, H_ab) on the line, h = 1.

    P_ab = d/dx + w x annihilates Psi_0; H_ab = P* P + alpha^2/(1+beta^2).
    (The x^2 coefficient of H_ab is |w|^2, as composition makes explicit.)
    """
    w = p.w_exponent
    P = DiffOp({(0, 1): 1j, (1, 0): w}, 1.0)  # d/dx = i hD at h = 1
    Pstar = DiffOp({(0, 1): -1j, (1, 0): w.conjugate()}, 1.0)
    H = Pstar.compose(P).add(DiffOp({(0, 0): p.eigen_gap}, 1.0))
    return P, Pstar, H


def apply_ladder(p: EllipseParams, which: str, f: HoloGauss) -> HoloGauss:
    """Apply the holomorphic ladder ``lambda`` or ``lambda_star`` (the line
    ladders are the :func:`ladder_diffops`)."""
    if not isinstance(f, HoloGauss):
        raise DomainError(f"{which} acts on HoloGauss")
    if which not in _LADDERS:
        raise DomainError(f"unknown operator {which!r}")
    return f.ladder(*_LADDERS[which](p))


#: The holomorphic ladders as ``d f' + m z f``: their (d, m).
_LADDERS = {
    "lambda": lambda p: (1 / p.a, 0.5),
    "lambda_star": lambda p: (1.0, (p.a + 2 * p.lam) / 2),
}


# ---------------------------------------------------------------------------
# Bridge and geometry
# ---------------------------------------------------------------------------


def bridge_params(p: EllipseParams) -> PhaseParams:
    """Phase data whose Hermite system is collinear with (Psi_n).

    A = i(1+beta^2)/(2 alpha^2), B = -i,
    C = ((alpha^2+beta^2+1) beta + i alpha^2)/(1+beta^2);
    Im C = alpha^2/(1+beta^2) > 0, so the bridged eigenvalues
    h Im C / |B|^2 (2n+1) match ``eigen_gap * (2n+1)``.
    """
    s = p.alpha**2 + p.beta**2 + 1
    denom = 1 + p.beta**2
    return PhaseParams(
        1j * denom / (2 * p.alpha**2),
        -1j,
        complex(s * p.beta, p.alpha**2) / denom,
        1.0,
    )


def zeta_map(p: EllipseParams, z: complex) -> complex:
    """z = x - i xi  ->  zeta = alpha x - i (beta x + xi)."""
    x = z.real
    xi = -z.imag
    return complex(p.alpha * x, -(p.beta * x + xi))


def zeta_inverse(p: EllipseParams, zeta: complex) -> complex:
    """Inverse of :func:`zeta_map`: x = Re zeta / alpha, xi = -(Im zeta + beta x)."""
    x = zeta.real / p.alpha
    return complex(x, zeta.imag + p.beta * x)


#: Samples per batch of :func:`ellipse_trace`: bounds the arrays held at once.
_TRACE_BATCH = 8192


def ellipse_trace(
    p: EllipseParams, rho: float, samples: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The boundary alpha^2 x^2 + (beta x + xi)^2 = rho^2 at theta = 2 pi
    k/samples, as batches (x, xi) of float arrays of at most
    :data:`_TRACE_BATCH` samples: x = rho cos(theta)/alpha and xi = -(rho
    sin(theta) + beta x), the :func:`zeta_inverse` of rho e^{i theta} in real
    arithmetic.  ``rho`` is checked on the call, and each batch is computed
    as it is asked for.  Only a coordinate that overflows is inf: where
    beta x alone overflows, xi is -2 (rho sin(theta)/2 + (beta/2) x)."""
    if not rho > 0:
        raise DomainError("rho must be positive")
    return _trace(p, rho, samples)


def _trace(p: EllipseParams, rho: float, samples: int) -> Iterator[tuple]:
    for start in range(0, samples, _TRACE_BATCH):
        theta = 2 * np.pi * np.arange(start, min(start + _TRACE_BATCH, samples)) / samples
        with np.errstate(over="ignore"):
            x = rho * np.cos(theta) / p.alpha
            y = rho * np.sin(theta)
            # beta x is 0 at beta = 0, also where x overflows
            xi = -(y + (p.beta * x if p.beta else 0.0))
            # where beta x alone overflows, xi may not: sum the halves, double
            redo = np.isfinite(x) & ~np.isfinite(xi)
            xi[redo] = -2.0 * (y[redo] / 2.0 + (p.beta / 2.0) * x[redo])
        yield x, xi
