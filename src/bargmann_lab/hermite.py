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
where the operators are banded and inner products diagonal; quadrature
appears only as the independent Gram-matrix oracle.
"""

from __future__ import annotations

import functools
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
    _stacked,
    _worst,
    relative_residual,
)
from .phasecore import PhaseParams, canonical_A
from .bargmann import Quadratic, _quad_block, line_grid

__all__ = ["HermiteSystem", "gram_deviation"]


class HermiteSystem:
    """Phase data with canonical A, plus a cache of phi_n.

    A non-canonical ``A`` in the input is replaced by ``canonical_A(B, C)``:
    the general-A system differs only by a z-side phase twist that the
    line-side family does not see.
    """

    def __init__(self, params: PhaseParams):
        a_canon = canonical_A(params.B, params.C)
        self.params = PhaseParams(a_canon, params.B, params.C, params.h)
        p = self.params
        amp = (p.C.imag / (math.pi * p.h)) ** 0.25
        self._gamma2, self._s = -1j * p.C.conjugate() / (2 * p.h), math.sqrt(p.h / p.C.imag)
        self._chain, self._phi_cache = [np.array([complex(amp)])], {}

    @classmethod
    def from_bch(cls, B: complex, C: complex, h: float = 1.0) -> "HermiteSystem":
        return cls(PhaseParams(canonical_A(B, C), B, C, h))

    # -- constructions -----------------------------------------------------

    def hermite_phi(self, n: int) -> HermiteGauss:
        """n-th generalized Hermite function: its :meth:`_ladder` array, built
        into a :class:`HermiteGauss` on its first request and cached."""
        if n not in self._phi_cache:
            a = self._ladder(n + 1)[n]
            self._phi_cache[n] = HermiteGauss(a.tolist(), self._gamma2, self._s)
        return self._phi_cache[n]

    def _ladder(self, N: int) -> list:
        """The coefficients of phi_0, ..., phi_{N-1}, kept as the ladder's arrays:
        one :func:`~bargmann_lab.gaussalg._chain` from the last kept member on, of
        P*'s band on phi_0's Gaussian, step m times ``B / sqrt(2 m h Im C)``."""
        _check_index(N - 1)
        chain = self._chain
        if len(chain) < N:
            p = self.params
            lo, hi, diag = _line_band(self.ladder_ops()[1], self._gamma2, self._s)
            scales = (p.B / _sqrt_pos(m * 2 * p.h * p.C.imag) for m in range(len(chain), N))
            chain.extend(_chain(chain[-1], [(lo * c, hi * c, diag * c) for c in scales])[1:])
        return chain[:N]

    def rodrigues_phi(self, n: int) -> HermiteGauss:
        """Same function by the independent Rodrigues route.

        ``(Im C/pi h)^{1/4} (1/sqrt n!) (-1/sqrt(2 h Im C))^n
        e^{(Im C - i Re C) x^2 / 2h} (hD)^n e^{-Im C x^2 / h}``
        -- used as the in-package cross-check for :meth:`hermite_phi`.
        """
        _check_index(n)
        p = self.params
        phi0 = self.hermite_phi(0)
        amp = (
            (p.C.imag / (math.pi * p.h)) ** 0.25
            / math.sqrt(math.factorial(n))
            * (-1 / math.sqrt(2 * p.h * p.C.imag)) ** n
        )
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
        """(P, P*, H): annihilation, creation, modified oscillator, built
        once per system (:attr:`_ladder_ops`)."""
        return self._ladder_ops

    @functools.cached_property
    def _ladder_ops(self) -> tuple[DiffOp, DiffOp, DiffOp]:
        """(P, P*, H) of :meth:`ladder_ops`:

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
        """phi_0, ..., phi_{N-1} as the columns of one block (N >= 1), the
        ladder's arrays extended once, to phi_{N-1}, and stacked."""
        _check_nonempty(N)
        return HermiteBlock(_stacked(self._ladder(N)), self._gamma2, self._s)

    # -- Gram matrices -------------------------------------------------------

    def gram_matrix(self, N: int, method: str = "exact") -> np.ndarray:
        """Gram matrix of (phi_0, ..., phi_{N-1}).

        ``exact`` takes the diagonal coefficient sums of the block of all N
        in one ``np.einsum`` (:func:`~bargmann_lab.gaussalg._gram`);
        ``quadrature`` is the independent Gauss-Hermite oracle on the line:
        one block of :func:`~bargmann_lab.bargmann._quad_block` on the line
        grid of the combined exponent of phi_m conj(phi_n), the real Gaussian
        ``-x^2/s^2`` (s = sqrt(h/Im C)), where the rule is exact up to
        round-off; values from one pass of the three-term recurrence per
        chunk (:func:`~bargmann_lab.gaussalg._hermite_sums`), for their row
        and their conjugated column, the rule from the per-process cache the
        plane grids share.
        The exact matrix is Hermitian: its lower triangle mirrors the upper
        (see :func:`~bargmann_lab.gaussalg._hermitian`).
        """
        if method not in ("exact", "quadrature"):
            raise DomainError(f"unknown method {method!r}")
        phis = self.phi_block(N)
        if method == "exact":
            return _hermitian(_gram([phis], [phis]))

        def rows(x):
            return _hermite_sums(phis.coeffs, x / phis.s, 1.0) * np.exp(phis.gamma2 * np.square(x))

        return _quad_block(line_grid(Quadratic(-1 / phis.s**2, 0j)), rows, None)


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
