"""Commutative two-by-two oscillator system: diagonalization and spectrum.

The system

    Q_alpha = (alpha/2) I OpW(xi^2 + x^2) + J OpW(i x xi),
    J = [[0, -1], [1, 0]],      alpha > 1,

acting on C^2-valued functions, is unitarily equivalent (by a constant
matrix) to the direct sum of two modified oscillators

    H_{alpha,pm} = (alpha/2) OpW(xi^2 + x^2) +- OpW(x xi)
                 = OpW(| sqrt(alpha/2) (nu_{alpha,pm} xi + x) |^2),

with ``nu_{alpha,pm} = (+-1 + i sqrt(alpha^2 - 1))/alpha`` on the unit
circle.  Feeding ``B = sqrt(2/alpha) nu``, ``C = nu`` into the generalized
Hermite machinery yields vector eigenfunctions

    Phi_{alpha,pm,n} = phi_n^{(B,C)}(x) / sqrt(2) * (1, +-i),

with eigenvalues ``(sqrt(alpha^2 - 1)/2) h (2n + 1)`` -- each appearing twice
(once per sign).  All residuals here are exact-algebra computations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussalg import (
    DiffOp,
    DomainError,
    HermiteBlock,
    HermiteGauss,
    _gram,
    _hermitian,
    _residual_ratio,
    apply_diffop,
    inner_product_line,
    norm_line,
)
from .hermite import HermiteSystem, gram_deviation

__all__ = [
    "NchoParams",
    "VecFun2",
    "nu",
    "hermite_bridge",
    "eigenfunction_vec",
    "apply_Q",
    "spectrum_check",
    "combined_gram",
    "vec_inner",
    "vec_norm",
]


@dataclass(frozen=True)
class NchoParams:
    """Commutative-case parameters: alpha > 1 (ellipticity), h > 0."""

    alpha: float
    h: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 1:
            raise DomainError(
                f"alpha = {self.alpha} must be > 1 (elliptic regime)"
            )
        if not self.alpha * self.alpha < math.inf:
            raise DomainError(f"alpha = {self.alpha}: alpha**2 overflows")
        if not self.h > 0:
            raise DomainError(f"h = {self.h} must be positive")


@dataclass(frozen=True)
class VecFun2:
    """C^2-valued function on the line, by its two components; or a family
    of them, one per column of two :class:`~bargmann_lab.gaussalg.HermiteBlock`."""

    upper: HermiteGauss | HermiteBlock
    lower: HermiteGauss | HermiteBlock

    def scale(self, c: complex) -> "VecFun2":
        return VecFun2(self.upper.scale(c), self.lower.scale(c))

    def add(self, other: "VecFun2") -> "VecFun2":
        return VecFun2(self.upper.add(other.upper), self.lower.add(other.lower))


def nu(p: NchoParams, sign: int) -> complex:
    """nu_{alpha,pm} = (pm 1 + i sqrt(alpha^2 - 1)) / alpha; unit modulus."""
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    return complex(sign, math.sqrt(p.alpha**2 - 1)) / p.alpha


def hermite_bridge(p: NchoParams, sign: int) -> HermiteSystem:
    """The generalized Hermite system diagonalizing the ``sign`` block: a
    plain value, whose phi_n are in closed form."""
    v = nu(p, sign)
    return HermiteSystem.from_bch(math.sqrt(2 / p.alpha) * v, v, p.h)


def eigenfunction_vec(p: NchoParams, sign: int, n: int) -> VecFun2:
    """Phi_{alpha,sign,n}: normalized vector eigenfunction of Q_alpha.

    Componentwise ``phi_n / sqrt 2 * (1, sign*i)`` where phi_n comes from the
    bridged Hermite system (its Gaussian factor already carries the
    ``exp(-+ i x^2 / 2 alpha h)`` phase).
    """
    return _scaled_pair(hermite_bridge(p, sign).hermite_phi(n), sign)


def _eigen_block(p: NchoParams, sign: int, N: int) -> VecFun2:
    """Phi_{alpha,sign,n} for n < N, as one VecFun2 of blocks (column n)."""
    return _scaled_pair(hermite_bridge(p, sign).phi_block(N), sign)


def _scaled_pair(phi, sign: int) -> VecFun2:
    """``phi / sqrt 2 * (1, sign*i)``, for a function or a block."""
    s = 1 / math.sqrt(2)
    return VecFun2(phi.scale(s), phi.scale(sign * 1j * s))


def _sym_ops(p: NchoParams) -> tuple[DiffOp, DiffOp]:
    """(S, X) = (OpW(xi^2 + x^2), OpW(x xi)) = ((hD)^2 + x^2, x hD + h/2i)."""
    S = DiffOp({(0, 2): 1.0, (2, 0): 1.0}, p.h)
    X = DiffOp({(1, 1): 1.0, (0, 0): p.h / 2j}, p.h)
    return S, X


def apply_Q(p: NchoParams, F: VecFun2) -> VecFun2:
    """Apply Q_alpha exactly: (alpha/2) S on the diagonal, J (i X) off it."""
    S, X = _sym_ops(p)
    half_alpha_s_u = apply_diffop(S, F.upper).scale(p.alpha / 2)
    half_alpha_s_l = apply_diffop(S, F.lower).scale(p.alpha / 2)
    ix_u = apply_diffop(X, F.upper).scale(1j)
    ix_l = apply_diffop(X, F.lower).scale(1j)
    return VecFun2(
        half_alpha_s_u.add(ix_l.scale(-1)),
        half_alpha_s_l.add(ix_u),
    )


def block_ops(p: NchoParams, sign: int) -> DiffOp:
    """H_{alpha,sign} = (alpha/2) OpW(xi^2+x^2) + sign OpW(x xi), as a DiffOp."""
    S, X = _sym_ops(p)
    return S.scale(p.alpha / 2).add(X.scale(sign))


def eigenvalue(p: NchoParams, n: int) -> float:
    """lambda_n = (sqrt(alpha^2 - 1)/2) h (2n + 1); double multiplicity."""
    return math.sqrt(p.alpha**2 - 1) / 2 * p.h * (2 * n + 1)


def vec_inner(F: VecFun2, G: VecFun2) -> complex:
    """L2 + L2 inner product: sum of component line inner products."""
    return inner_product_line(F.upper, G.upper) + inner_product_line(
        F.lower, G.lower
    )


def vec_norm(F: VecFun2):
    """The L2 + L2 norm; one per column for a VecFun2 of blocks."""
    return np.hypot(norm_line(F.upper), norm_line(F.lower))


def spectrum_check(p: NchoParams, N: int) -> list[dict]:
    """Residuals of Q_alpha Phi = lambda Phi for both signs, n < N.

    Returns entries ``{"sign", "n", "lambda", "residual"}`` ordered by
    (n, sign), i.e. by increasing eigenvalue with the double multiplicity
    adjacent.  Per sign, Q is applied once, to the upper components phi_n/sqrt 2
    of all N (:func:`_upper_row`).  As in :func:`~bargmann_lab.gaussalg.relative_residual`,
    a residual that cannot be evaluated (||Phi|| evaluates to zero, ``Q Phi``
    would exceed the degree cap, or a sum meets non-finite terms) is ``inf``,
    in that member's entry only.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    lams = [eigenvalue(p, n) for n in range(N)]
    residuals = {
        tag: _residual_ratio(_pair_norm, functools.partial(_upper_row, p, sign),
                             hermite_bridge(p, sign).phi_block(N).scale(1 / math.sqrt(2)), lams)
        for sign, tag in ((+1, "+"), (-1, "-"))
    }
    return [
        {"sign": tag, "n": n, "lambda": lams[n], "residual": residuals[tag][n]}
        for n in range(N)
        for tag in "+-"
    ]


def _upper_row(p: NchoParams, sign: int, u):
    """Upper component of Q_alpha (u, sign*i u) by :func:`apply_Q`'s steps in its
    order; the lower one is sign*i times it, bit for bit (+-i swaps and negates)."""
    S, X = _sym_ops(p)
    ix_l = apply_diffop(X, u).scale(sign * 1j).scale(1j)
    return apply_diffop(S, u).scale(p.alpha / 2).add(ix_l.scale(-1))


def _pair_norm(u):
    """The L2 + L2 norm of (u, +-i u), of a function or per column of a block."""
    return np.hypot(n := norm_line(u), n)


def combined_gram(p: NchoParams, n: int) -> tuple[list[list[complex]], float]:
    """Gram matrix of Phi_{alpha,sign,k} for k < n, both signs, and its
    largest deviation from the identity (NaN if an entry is NaN).

    Rows and columns run over (k, sign) with ``+`` first.  Each pair of
    signs is one :func:`~bargmann_lab.gaussalg._gram` of the two blocks of
    eigenfunctions, their components stacked: one overlap matrix per pair of
    exponents.  The matrix is Hermitian: its lower triangle mirrors the
    upper.
    """
    blocks = [_eigen_block(p, sign, n) for sign in (+1, -1)]
    G = np.empty((2 * n, 2 * n), complex)
    for a, F in enumerate(blocks):
        for b, H in enumerate(blocks):
            G[a::2, b::2] = _gram((F.upper, F.lower), (H.upper, H.lower))
    G = _hermitian(G)
    return G.tolist(), gram_deviation(G)
