"""References for the quadratic exponents of the plane and line kernels.

Each kernel hands its grid builder its integrand's exponent as a
``bargmann.Quadratic``, built from coefficients.  Here are, for each
kernel, the same exponent built from the ``phasecore`` functions, which
accept arrays; the six-point fit that recovers the quadratic forms of a
callable exponent from its values; the quadratic forms ``plane_grid``
reads from a form's coefficients; and the forms the kernels build,
recorded as they hand them over.
"""

import contextlib
from unittest import mock

import numpy as np

from bargmann_lab import bargmann
from bargmann_lab.phasecore import kernel_Psi, phi_phase, weight_Phi


def pair_exponent(p, U, V):
    """The exponent of ``inner_product_HPhi(p, U, V)``'s integrand: ``c2 z^2
    + c1 z`` of U, plus the conjugate of V's, minus ``2 Phi/h``."""

    def exponent(z):
        pair = U.c2 * z * z + U.c1 * z + (V.c2 * z * z + V.c1 * z).conjugate()
        return pair - 2.0 * weight_Phi(p, z) / p.h

    return exponent


def adjoint_exponent(p, U, x):
    """The exponent of ``adjoint_quad(p, U, x)``'s integrand."""

    def exponent(z):
        phase = -1j * phi_phase(p, z, x).conjugate() / p.h
        return phase + U.c2 * z * z + U.c1 * z - 2.0 * weight_Phi(p, z) / p.h

    return exponent


def projector_exponent(p, U, z):
    """The exponent of ``projector_apply(p, U, [z])``'s integrand."""

    def exponent(zs):
        weighted = U.c2 * zs * zs + U.c1 * zs - 2.0 * weight_Phi(p, zs) / p.h
        return weighted + 2.0 * kernel_Psi(p, z, zs.conjugate()) / p.h

    return exponent


def line_exponent(p, f, z):
    """The exponent of ``transform_quad(p, f, z)``'s integrand, in x."""

    def exponent(x):
        return 1j * phi_phase(p, z, x) / p.h + f.gamma2 * x * x + f.gamma1 * x

    return exponent


#: The points at which :func:`fit_quad_2d` samples an exponent.
FIT_POINTS = (0j, 1 + 0j, -1 + 0j, 1j, -1j, 1 + 1j)


def _fit(values):
    """``(M, L)`` of ``f(x+iy) = c + L.v + v.M.v`` from the values of the
    real f at :data:`FIT_POINTS`."""
    c, f10, fm10, f01, f0m1, f11 = values
    m11 = (f10 + fm10) / 2.0 - c
    m22 = (f01 + f0m1) / 2.0 - c
    l1 = (f10 - fm10) / 2.0
    l2 = (f01 - f0m1) / 2.0
    m12 = (f11 - c - l1 - l2 - m11 - m22) / 2.0
    return np.array([[m11, m12], [m12, m22]]), np.array([l1, l2])


def fit_quad_2d(exponent):
    """``(M_re, L, M_im)`` of a quadratic callable exponent, fitted to its
    values at :data:`FIT_POINTS`: the quadratic form and linear part of its
    real part, and the quadratic form of its imaginary part."""
    samples = [complex(exponent(z)) for z in FIT_POINTS]
    M, L = _fit([v.real for v in samples])
    return M, L, _fit([v.imag for v in samples])[0]


def quadratic_parts(form):
    """``(M_re, L, M_im)`` as :func:`~bargmann_lab.bargmann.plane_grid`
    reads them from a form's coefficients."""
    q2, q1, r2, r1, m, _ = form
    a, b, d = q2 + r2, q1 + r1, q2 - r2
    M = np.array([[m + a.real, -a.imag], [-a.imag, m - a.real]], dtype=float)
    L = np.array([b.real, -b.imag], dtype=float)
    return M, L, np.array([[d.imag, d.real], [d.real, -d.imag]], dtype=float)


def row(form, i):
    """Row i of a form whose coefficients may be columns."""
    return bargmann.Quadratic(*(c[i, 0] if np.ndim(c) else c for c in form))


def _recorded(call, *names):
    """The exponent last handed to each ``bargmann.<name>`` while ``call()``
    runs."""
    with contextlib.ExitStack() as stack:
        spies = [
            stack.enter_context(mock.patch.object(bargmann, name, wraps=getattr(bargmann, name)))
            for name in names
        ]
        call()
    position = {"_fitted_factors": 1}  # (grid, exponent); the builders take it first
    return [spy.call_args.args[position.get(name, 0)] for spy, name in zip(spies, names)]


def adjoint_form(p, U, x):
    """The form ``adjoint_quad(p, U, x)`` fits its grid to."""
    return _recorded(lambda: bargmann.adjoint_quad(p, U, x), "plane_grid")[0]


def projector_forms(p, U, points):
    """The form ``projector_apply(p, U, points)`` fits its grid to, and its
    column form, one row per point."""
    return _recorded(
        lambda: bargmann.projector_apply(p, U, points), "plane_grid", "_fitted_factors"
    )


def line_form(p, f, z):
    """The form ``transform_quad(p, f, z)`` fits its line grid to."""
    return _recorded(lambda: bargmann.transform_quad(p, f, z), "line_grid")[0]
