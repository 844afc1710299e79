"""Generalized Hermite system, ladder operators, and the modified oscillator.

For phase data (B, C, h) with the canonical choice of A, the transform sends
an explicit orthonormal family on the line -- the generalized Hermite
functions ``phi_n`` -- onto the normalized monomials ``varphi_n`` of the
weighted holomorphic space.  The ``phi_n`` are simultaneously:

* eigenfunctions of the modified oscillator
  ``H = (1/|B|^2) OpW(xi^2 + |C|^2 x^2 + 2 Re(C) x xi)`` with eigenvalues
  ``(h Im C / |B|^2) (2n + 1)``,
* a ladder family: ``phi_{n+1} = B P* phi_n / sqrt((n+1) 2 h Im C)`` with
  ``P* = -(hD + Cx)/B``,
* given by a Rodrigues formula (n-fold hD derivative of a plain Gaussian).

The phi_n are ``HermiteGauss`` on their own Gaussian, of scale sqrt(h/Im C),
where the operators are banded and inner products diagonal.  There each is
one coefficient, ``phi_n = (Im C/pi h)^{1/4} (-i)^n eta_n(x/s) e^{gamma2
x^2}``, built in closed form; the ladder relation is a tested identity, and
the Rodrigues chain the independent exact route.  Quadrature appears only as
the independent Gram-matrix oracle.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .gaussalg import (
    DiffOp,
    DomainError,
    HermiteBlock,
    HermiteGauss,
    HoloGauss,
    _chain,
    _check_index,
    _gram,
    _hermite_sums,
    _hermitian,
    _line_band,
    _reattach,
    _worst,
    relative_residual,
)
from .phasecore import PhaseParams, canonical_A
from .bargmann import Quadratic, _quad_block, line_grid

__all__ = ["HermiteSystem", "gram_deviation"]

#: (-i)^k at k mod 4; a real power is an int, so amp times it stays real.
_MINUS_I_POWERS = (1, -1j, -1, 1j)


class HermiteSystem:
    """Phase data with canonical A: a plain value, fixed at construction.
    Each phi_n is built in closed form on request (:meth:`hermite_phi`).

    A non-canonical ``A`` in the input is replaced by ``canonical_A(B, C)``:
    the general-A system differs only by a z-side phase twist that the
    line-side family does not see.
    """

    def __init__(self, params: PhaseParams):
        a_canon = canonical_A(params.B, params.C)
        self.params = PhaseParams(a_canon, params.B, params.C, params.h)
        p = self.params
        self._amp = (p.C.imag / (math.pi * p.h)) ** 0.25
        self._gamma2, self._s = -1j * p.C.conjugate() / (2 * p.h), math.sqrt(p.h / p.C.imag)

    @classmethod
    def from_bch(cls, B: complex, C: complex, h: float = 1.0) -> "HermiteSystem":
        return cls(PhaseParams(canonical_A(B, C), B, C, h))

    # -- constructions -----------------------------------------------------

    def hermite_phi(self, n: int) -> HermiteGauss:
        """n-th generalized Hermite function, ``(Im C/pi h)^{1/4} (-i)^n
        eta_n(x/s) e^{gamma2 x^2}``: one coefficient, see :meth:`_top`."""
        _check_index(n)
        return HermiteGauss((0j,) * n + (self._top(n),), self._gamma2, self._s)

    def _top(self, n: int) -> complex:
        """phi_n's one coefficient, ``(Im C/pi h)^{1/4} (-i)^n``.  On phi_0's
        own Gaussian P* has no L part, so each ladder step ``B P*/sqrt(2 m h
        Im C)`` maps ``eta_{m-1}`` to ``-i eta_m``.  The power comes from
        :data:`_MINUS_I_POWERS`, in Python arithmetic: an infinite amplitude
        (a subnormal h) raises no floating-point warning."""
        return self._amp * _MINUS_I_POWERS[n % 4]

    def rodrigues_phi(self, n: int) -> HermiteGauss:
        """Same function by the independent Rodrigues route.

        ``(Im C/pi h)^{1/4} (1/sqrt n!) (-1/sqrt(2 h Im C))^n
        e^{(Im C - i Re C) x^2 / 2h} (hD)^n e^{-Im C x^2 / h}``
        -- used as the in-package cross-check for :meth:`hermite_phi`.
        """
        _check_index(n)
        p = self.params
        phi0 = self.hermite_phi(0)
        amp = self._amp / math.sqrt(math.factorial(n)) * (-1 / math.sqrt(2 * p.h * p.C.imag)) ** n
        # the core e^{-ImC x^2/h} on phi_0's scale; the exponent reattached is
        # e^{(ImC - iReC) x^2/2h} * e^{-ImC x^2/h} = e^{-i conj(C) x^2 / 2h}
        band = _line_band(DiffOp.hD(p.h), -p.C.imag / p.h, phi0.s)
        return _reattach(_chain(np.ones(1, complex), [band] * n)[-1], amp, phi0)

    def monomial_basis(self, n: int) -> HoloGauss:
        """Orthonormal monomial varphi_n of the weighted holomorphic space,
        ``|B|/sqrt(2 pi h Im C) (B z/sqrt(2 h Im C))^n / sqrt(n!)``: one
        coefficient on the monomials ``p_n(y1 z)`` (``rho2 = 0``) with ``y1 =
        B/(2 sqrt(h Im C))``."""
        _check_index(n)
        p = self.params
        amp = abs(p.B) / math.sqrt(2 * math.pi * p.h * p.C.imag)
        return HoloGauss((0j,) * n + (amp,), y1=p.B / (2 * _sqrt_pos(p.h * p.C.imag)))

    # -- operators ----------------------------------------------------------

    def ladder_ops(self) -> tuple[DiffOp, DiffOp, DiffOp]:
        """(P, P*, H): annihilation, creation, modified oscillator:

        P  = -(hD + conj(C) x)/conj(B)
        P* = -(hD + C x)/B
        H  = (1/|B|^2) (hD^2 + |C|^2 x^2 + 2 Re(C) (x hD + h/2i))
           = P* P + h Im C/|B|^2.
        """
        p = self.params
        P = DiffOp(
            {(0, 1): -1 / p.B.conjugate(), (1, 0): -p.C.conjugate() / p.B.conjugate()},
            p.h,
        )
        Pstar = DiffOp({(0, 1): -1 / p.B, (1, 0): -p.C / p.B}, p.h)
        b2 = abs(p.B) ** 2
        two_re_c = p.C + p.C.conjugate()
        H = DiffOp(
            {
                (0, 2): 1 / b2,
                (2, 0): abs(p.C) ** 2 / b2,
                (1, 1): two_re_c / b2,
                (0, 0): two_re_c * p.h / (2j * b2),
            },
            p.h,
        )
        return P, Pstar, H

    def eigenvalue(self, n: int) -> float:
        """mu_n = (h Im C / |B|^2) (2n + 1)."""
        p = self.params
        return p.h * p.C.imag / abs(p.B) ** 2 * (2 * n + 1)

    def eigen_residual(self, n: int) -> float:
        """Relative residual ||H phi_n - mu_n phi_n|| / ||phi_n||, exact, on
        the Hermite coefficients; ``inf`` where it cannot be evaluated, see
        :func:`~bargmann_lab.gaussalg.relative_residual`.
        """
        _, _, H = self.ladder_ops()
        return relative_residual(H, self.hermite_phi(n), self.eigenvalue(n))

    def eigen_residuals(self, N: int) -> list[float]:
        """:meth:`eigen_residual` of phi_0, ..., phi_{N-1}, with H applied
        once to the block of all N; a member that cannot be evaluated reads
        ``inf`` in its own entry only."""
        _, _, H = self.ladder_ops()
        mus = [self.eigenvalue(n) for n in range(N)]
        return relative_residual(H, self.phi_block(N), mus)

    def phi_block(self, N: int) -> HermiteBlock:
        """phi_0, ..., phi_{N-1} as the columns of one block (N >= 1): the
        diagonal N x N array of their coefficients (:meth:`_top`)."""
        _check_nonempty(N)
        _check_index(N - 1)
        tops = np.array([self._top(n) for n in range(N)], complex)
        return HermiteBlock(np.diag(tops), self._gamma2, self._s)

    # -- Gram matrices -------------------------------------------------------

    def gram_matrix(self, N: int, method: str = "exact") -> np.ndarray:
        """Gram matrix of (phi_0, ..., phi_{N-1}).

        ``exact`` takes the diagonal coefficient sums of the block of all N
        in one ``np.einsum`` (:func:`~bargmann_lab.gaussalg._gram`);
        ``quadrature`` is the independent Gauss-Hermite oracle on the line:
        one block of :func:`~bargmann_lab.bargmann._quad_block` in ``u =
        x/s`` (s = sqrt(h/Im C)), times s, on the fixed line grid of the
        combined exponent of phi_m conj(phi_n) there, the real Gaussian
        ``-u^2``, where the rule is exact up to round-off; so no grid is
        fitted to an s^2 that under- or overflows (such a sum reads NaN and
        fails its check).  Values ``e^{gamma2 s^2 u^2}`` times one pass of the
        three-term recurrence per chunk
        (:func:`~bargmann_lab.gaussalg._hermite_sums`), for their row and
        their conjugated column, the rule from the per-process cache the
        plane grids share.
        The exact matrix is Hermitian: its lower triangle mirrors the upper
        (see :func:`~bargmann_lab.gaussalg._hermitian`).
        """
        if method not in ("exact", "quadrature"):
            raise DomainError(f"unknown method {method!r}")
        phis = self.phi_block(N)
        if method == "exact":
            return _hermitian(_gram([phis], [phis]))

        g2 = phis.gamma2 * (phis.s * phis.s)

        def rows(u):
            return _hermite_sums(phis.coeffs, u, 1.0) * np.exp(g2 * np.square(u))

        return phis.s * _quad_block(line_grid(Quadratic(-1.0, 0j)), rows, None)


def _check_nonempty(N: int) -> None:
    """A family of N >= 1 members: an empty one has no block or Gram matrix."""
    if N < 1:
        raise DomainError(f"N = {N} must be >= 1")


def _sqrt_pos(s: float) -> float:
    """sqrt of a positive real quantity (guard against tiny negatives)."""
    if not s > 0:
        raise DomainError(f"expected positive quantity, got {s}")
    return math.sqrt(s)


def gram_deviation(G, diag: Sequence[float] | None = None) -> float:
    """Largest deviation of a Gram matrix (array or nested lists) from the
    diagonal ``diag`` (the identity when None), relative to the norms:
    ``|G_jk - delta_jk diag_k| / sqrt(diag_j diag_k)``; NaN if any entry is.
    The modulus is ``np.hypot``, which is Python's ``abs`` of a complex."""
    G = np.asarray(G, dtype=complex)
    d = np.ones(len(G)) if diag is None else np.asarray(diag, dtype=float)
    with np.errstate(all="ignore"):  # a value not finite makes NaN, which fails the check
        D = G - np.diag(d)
        return _worst((np.hypot(D.real, D.imag) / np.sqrt(np.outer(d, d))).ravel())
