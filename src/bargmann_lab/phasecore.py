"""Quadratic phase data and its derived geometry.

A transform of Bargmann type is driven by a quadratic phase

    phi(z, x) = (A/2) z**2 + B z x + (C/2) x**2,    B != 0,  Im C > 0,

together with a semiclassical parameter h > 0.  From (A, B, C, h) everything
else is derived: the weight ``Phi`` on the output plane, the reproducing
kernel exponent ``Psi``, the linear canonical map ``kappa`` whose graph the
transform quantizes, and the normalization constants.

Pure value type + pure functions; safe to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussalg import DomainError

__all__ = [
    "PhaseParams",
    "canonical_A",
    "weight_Phi",
    "kernel_Psi",
    "kappa_map",
    "phi_phase",
    "params_to_dict",
    "params_from_dict",
]


@dataclass(frozen=True)
class PhaseParams:
    """Coefficients (A, B, C) of the quadratic phase and the parameter h."""

    A: complex
    B: complex
    C: complex
    h: float = 1.0

    def __post_init__(self) -> None:
        if self.B == 0:
            raise DomainError("B must be nonzero")
        if not self.C.imag > 0:
            raise DomainError(f"Im(C) = {self.C.imag} must be positive")
        if not self.h > 0:
            raise DomainError(f"h = {self.h} must be positive")
        if not 0 < abs(self.B) * abs(self.B) < math.inf:
            raise DomainError(f"B = {self.B}: |B|**2 overflows or underflows")
        if not abs(self.C) * abs(self.C) < math.inf:
            raise DomainError(f"C = {self.C}: |C|**2 overflows")

    @property
    def C_phi(self) -> float:
        """Normalization of the transform: 2^{-1/2} pi^{-3/4} |B| (Im C)^{-1/4}."""
        return (
            2 ** (-0.5) * math.pi ** (-0.75) * abs(self.B) * self.C.imag ** (-0.25)
        )

    @property
    def C_Phi(self) -> float:
        """Normalization of the projector kernel: |B|**2 / (2 pi Im C)."""
        return abs(self.B) ** 2 / (2 * math.pi * self.C.imag)

    @classmethod
    def classic(cls, h: float = 1.0) -> "PhaseParams":
        """The classic Bargmann choice (A, B, C) = (i/2, -i, i)."""
        return cls(0.5j, -1j, 1j, h)


def canonical_A(B: complex, C: complex) -> complex:
    """The A that trivializes the weight: A = -i B**2 / (2 Im C).

    With this choice ``weight_Phi`` reduces to ``|Bz|**2 / (4 Im C)`` and the
    monomials are exactly orthogonal; any other A only twists the output
    functions by a z-dependent phase.
    """
    if B == 0:
        raise DomainError("B must be nonzero")
    if not C.imag > 0:
        raise DomainError(f"Im(C) = {C.imag} must be positive")
    return -1j * B * B / (2 * C.imag)


def phi_phase(p: PhaseParams, z: complex, x: complex) -> complex:
    """The phase phi(z, x) = (A/2) z**2 + B z x + (C/2) x**2."""
    return 0.5 * p.A * z * z + p.B * z * x + 0.5 * p.C * x * x


def weight_Phi(p: PhaseParams, z: complex) -> float:
    """Exponential weight of the output space.

    ``Phi(z) = |Bz|**2/(4 Im C) - Re{(Bz)**2/(4 Im C) + A z**2/(2i)}``,
    which equals ``max over real x of Re(i phi(z, x))``.
    """
    bz = p.B * z
    val = abs(bz) ** 2 / (4 * p.C.imag) - (
        bz * bz / (4 * p.C.imag) + p.A * z * z / 2j
    ).real
    return val


def kernel_Psi(p: PhaseParams, z: complex, zeta: complex) -> complex:
    """Holomorphic quadratic kernel exponent.

    Defined as the critical value over complex X of

        -(phi(z, X) - conj(phi(conj(zeta), conj(X)))) / (2i),

    which evaluates to

        |B|**2 z zeta / (4 Im C)
        - (B**2 z**2 + conj(B)**2 zeta**2) / (8 Im C)
        - (A z**2 - conj(A) zeta**2) / (4i).

    Polarizes the weight: ``kernel_Psi(p, z, conj(z)) == weight_Phi(p, z)``.
    """
    im_c = p.C.imag
    bz = p.B * z
    bzeta = p.B.conjugate() * zeta
    return (
        bz * bzeta / (4 * im_c)
        - (bz * bz + bzeta * bzeta) / (8 * im_c)
        - (p.A * z * z - p.A.conjugate() * zeta * zeta) / 4j
    )


def kappa_map(p: PhaseParams, x: float, xi: float) -> tuple[complex, complex]:
    """Linear canonical map (x, xi) -> (-(Cx+xi)/B, Bx - A(Cx+xi)/B).

    Its image is the graph of ``(2/i) dPhi/dz`` over the output plane.
    """
    w = p.C * x + xi
    first = -w / p.B
    second = p.B * x - p.A * w / p.B
    return first, second


def params_to_dict(p: PhaseParams) -> dict:
    """JSON-ready form: complex entries as [re, im] pairs."""
    return {
        "A": [p.A.real, p.A.imag],
        "B": [p.B.real, p.B.imag],
        "C": [p.C.real, p.C.imag],
        "h": p.h,
    }


def params_from_dict(d: dict) -> PhaseParams:
    def cx(v) -> complex:
        re, im = v
        return complex(re, im)

    return PhaseParams(cx(d["A"]), cx(d["B"]), cx(d["C"]), float(d["h"]))
