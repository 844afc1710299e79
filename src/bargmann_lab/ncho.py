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
    """The generalized Hermite system diagonalizing the ``sign`` block."""
    v = nu(p, sign)
    return HermiteSystem.from_bch(math.sqrt(2 / p.alpha) * v, v, p.h)


@functools.lru_cache(maxsize=2)
def _bridge_system(p: NchoParams, sign: int) -> HermiteSystem:
    """The bridged system of :func:`hermite_bridge`, built once per (p, sign),
    so its ladder cache of phi_n serves every later index.  Callers work
    through both signs of one parameter set at a time: two entries suffice."""
    return hermite_bridge(p, sign)


def eigenfunction_vec(p: NchoParams, sign: int, n: int) -> VecFun2:
    """Phi_{alpha,sign,n}: normalized vector eigenfunction of Q_alpha.

    Componentwise ``phi_n / sqrt 2 * (1, sign*i)`` where phi_n comes from the
    bridged Hermite system (its Gaussian factor already carries the
    ``exp(-+ i x^2 / 2 alpha h)`` phase).
    """
    return _scaled_pair(_bridge_system(p, sign).hermite_phi(n), sign)


def _eigen_block(p: NchoParams, sign: int, N: int) -> VecFun2:
    """Phi_{alpha,sign,n} for n < N, as one VecFun2 of blocks (column n)."""
    return _scaled_pair(_bridge_system(p, sign).phi_block(N), sign)


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
    adjacent.  Per sign, Q is applied once to the block of all N
    eigenfunctions.  As in :func:`~bargmann_lab.gaussalg.relative_residual`, a
    residual that cannot be evaluated (||Phi|| evaluates to zero, ``Q Phi``
    would exceed the degree cap, or a sum meets non-finite terms) is ``inf``,
    in that member's entry only.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    lams = [eigenvalue(p, n) for n in range(N)]
    residuals = {
        tag: _vec_residual(p, _eigen_block(p, sign, N), lams)
        for sign, tag in ((+1, "+"), (-1, "-"))
    }
    return [
        {"sign": tag, "n": n, "lambda": lams[n], "residual": residuals[tag][n]}
        for n in range(N)
        for tag in "+-"
    ]


def _vec_residual(p: NchoParams, F: VecFun2, lam):
    """||Q F - lam F|| / ||F||, or ``inf`` where it cannot be evaluated; for a
    VecFun2 of blocks and one lam per column, a list of one per column."""
    return _residual_ratio(vec_norm, lambda G: apply_Q(p, G), F, lam)


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
