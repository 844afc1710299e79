"""Certification suites: named checks with measured values and tolerances.

Each suite function returns a list of check dicts

    {"name": str, "measured": float, "tolerance": float, "pass": bool}

where ``pass`` means ``measured <= tolerance``.  The suites pit independent
routes against each other (exact coefficient algebra vs. double-exponential
or tensor quadrature, closed-form series vs. radial integrals, ladder
recursions vs. Rodrigues formulas) so a pass certifies both routes at the
stated tolerance.

``suite_all`` runs the whole certification battery on the reference parameter
sets, one suite after another, and prefixes each check name with its suite.
The ``*_checks`` functions are check groups that a suite and a CLI command share.
"""

from __future__ import annotations

import cmath
import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .gaussalg import (
    ComplexPoly,
    DiffOp,
    HermiteBlock,
    HermiteGauss,
    HoloGauss,
    _worst,
    coeff_deviation,
    gauss_integral,
    inner_product_line,
    relative_residual,
)
from .phasecore import PhaseParams, canonical_A
from .bargmann import (
    _adaptive_quad,
    gram_HPhi,
    inner_product_HPhi,
    projector_apply,
    transform,
    transform_quad,
    adjoint_quad,
)
from .hermite import HermiteSystem, gram_deviation
from .ncho import NchoParams, combined_gram, spectrum_check
from .ellipse import (
    EllipseParams,
    Psi_family,
    Psi_family_ladder,
    _power,
    bridge_params,
    derived_constants,
    ladder_diffops,
    psi_family_ladder,
    psi_n,
)
from .toeplitz import RadialSymbol, radius_roundtrip_error, spectrum_rows, toeplitz_block_quad

__all__ = [
    "check",
    "suite_gaussint",
    "suite_hermite",
    "suite_transform",
    "suite_ncho",
    "suite_ellipse",
    "suite_bridge",
    "suite_toeplitz",
    "suite_all",
    "hermite_eigen_checks",
    "hermite_gram_checks",
    "ncho_residual_checks",
    "ellipse_gram",
    "closed_vs_quad_dev",
    "ellipse_route_checks",
    "ellipse_eigen_checks",
    "toeplitz_series_checks",
    "HERMITE_PARAM_SETS",
    "NCHO_ALPHAS",
    "NCHO_PLANCKS",
    "ELLIPSE_SETS",
    "TOEPLITZ_RADII",
    "TRANSFORM_PAIRS",
    "TRANSFORM_POINTS",
]

# Tolerance ladder: exact coefficient algebra, 1-D quadrature cross-checks,
# 2-D plane quadrature, and the relative tolerance for ellipse-family norms.
TOL_ALGEBRA = 1e-10
TOL_GRAM_QUAD = 1e-6
TOL_UNITARITY = 1e-6
TOL_ROT_GAUSS = 1e-8
TOL_TRANSFORM_QUAD = 1e-8
TOL_NORM_REL = 1e-4
TOL_TOEPLITZ_SERIES = 1e-10
TOL_TOEPLITZ_DIAG = 1e-5
TOL_TOEPLITZ_OFFDIAG = 1e-6
TOL_ROUNDTRIP = 1e-12
TOL_IDENTITY = 1e-12

# Reference parameter sets for the full battery.
HERMITE_PARAM_SETS: tuple[tuple[complex, complex, float], ...] = (
    (-1j, 1j, 1.0),
    (3.0, 1.0 + 2.0j, 0.5),
    (2.0, 0.5 + 1.0j, 1.0),
    (-0.7 + 0.2j, 0.3 + 0.8j, 1.0),
    (-2.0, 0.5j, 2.0),
)
NCHO_ALPHAS: tuple[float, ...] = (1.5, 2.0, 5.0)
NCHO_PLANCKS: tuple[float, ...] = (1.0, 0.5)
ELLIPSE_SETS: tuple[tuple[float, float], ...] = ((2.0, 0.0), (2.0, 1.0), (0.5, 3.0))
TOEPLITZ_RADII: tuple[float, ...] = (0.5, 1.0, 3.0)
# The transform suite's random pairs (unitarity) and points (reproducing kernel).
TRANSFORM_PAIRS = 20
TRANSFORM_POINTS = 10

ROT_RHOS: tuple[float, ...] = (0.5, 1.0, 2.0)
ROT_THETAS: tuple[float, ...] = (-0.7, 0.0, 0.7)


def check(name: str, measured: float, tolerance: float) -> dict:
    """One named certification check; passes iff measured <= tolerance."""
    m = float(measured)
    t = float(tolerance)
    return {"name": name, "measured": m, "tolerance": t, "pass": bool(m <= t)}


def _fmt_c(z: complex) -> str:
    """Compact complex formatting for check names: 3, -i, 1+2i."""
    z = complex(z)

    def num(x: float) -> str:
        return repr(int(x)) if x == int(x) else repr(x)

    if z.imag == 0.0:
        return num(z.real)
    if z.imag == 1.0:
        im = "i"
    elif z.imag == -1.0:
        im = "-i"
    else:
        im = num(z.imag) + "i"
    if z.real == 0.0:
        return im
    sign = "+" if not im.startswith("-") else ""
    return num(z.real) + sign + im


def _eigen_checks(entries: list[dict], label: str) -> tuple[list[dict], list[dict]]:
    """Entries ``{n, eigenvalue, residual}`` and one ``label[n=k]`` check each."""
    checks = [check(f"{label}[n={e['n']}]", e["residual"], TOL_ALGEBRA) for e in entries]
    return entries, checks


# ---------------------------------------------------------------------------
# rotated Gaussian integral
# ---------------------------------------------------------------------------


def suite_gaussint() -> list[dict]:
    """Closed-form rotated Gaussian integral vs. sinh-sinh quadrature.

    The oracle integrates the real and the imaginary part of
    ``exp(-c t^2)`` over the line with the double-exponential rule of
    :func:`~bargmann_lab.bargmann._adaptive_quad`, to 1e-12 relative.
    """
    checks = []
    for rho in ROT_RHOS:
        for theta in ROT_THETAS:
            closed = gauss_integral(rho, theta)
            c = rho * rho * cmath.exp(2j * theta)

            def f(t: np.ndarray) -> np.ndarray:
                w = np.exp(-c * t * t)
                return np.stack((w.real, w.imag))

            (re, im), _ = _adaptive_quad(f, -math.inf, math.inf)
            oracle = complex(re, im)
            rel = abs(closed - oracle) / abs(oracle)
            checks.append(
                check(f"rot_gauss[rho={rho},theta={theta}]", rel, TOL_ROT_GAUSS)
            )
    return checks


# ---------------------------------------------------------------------------
# generalized Hermite systems
# ---------------------------------------------------------------------------


def hermite_eigen_checks(sys_: HermiteSystem, n: int) -> tuple[list[dict], list[dict]]:
    """Eigen-entries of phi_0..phi_{n-1} and their ``eig_residual[n=k]`` checks."""
    entries = [
        {"n": k, "eigenvalue": sys_.eigenvalue(k), "residual": res}
        for k, res in enumerate(sys_.eigen_residuals(n))
    ]
    return _eigen_checks(entries, "eig_residual")


_GRAM_CHECKS = {
    "exact": ("gram_exact_dev", TOL_ALGEBRA), "quadrature": ("gram_quad_dev", TOL_GRAM_QUAD)
}


def hermite_gram_checks(
    sys_: HermiteSystem, n: int, methods: Sequence[str], suffix: str = ""
) -> tuple[np.ndarray, list[dict]]:
    """The first method's Gram matrix of phi_0..phi_{n-1}, and one deviation
    check per method, named ``gram_{exact,quad}_dev`` + ``suffix``."""
    checks, matrices = [], []
    for method in methods:
        G = sys_.gram_matrix(n, method=method)
        name, tol = _GRAM_CHECKS[method]
        checks.append(check(name + suffix, gram_deviation(G), tol))
        matrices.append(G)
    return matrices[0], checks


def suite_hermite(B: complex, C: complex, h: float, n_res: int, n_gram: int) -> list[dict]:
    """Eigen-residuals plus exact and quadrature Gram deviations."""
    sys_ = HermiteSystem.from_bch(B, C, h)
    entries, checks = hermite_eigen_checks(sys_, n_res)
    if complex(B) == -1j and complex(C) == 1j:
        dev = _worst(abs(e["eigenvalue"] - (2 * e["n"] + 1) * h) for e in entries)
        checks.append(check("classic_eigenvalue_dev", dev, TOL_ALGEBRA))
    _, gram = hermite_gram_checks(sys_, n_gram, ("exact", "quadrature"), f"[n<{n_gram}]")
    return checks + gram


# ---------------------------------------------------------------------------
# transform unitarity / reproducing kernel
# ---------------------------------------------------------------------------


def _random_line_function(rng: np.random.Generator) -> HermiteGauss:
    deg = int(rng.integers(0, 4))
    coeffs = tuple(
        complex(a, b)
        for a, b in zip(rng.normal(size=deg + 1), rng.normal(size=deg + 1))
    )
    gamma2 = complex(-0.4 - rng.uniform(0.0, 1.2), 0.5 * rng.normal())
    gamma1 = complex(0.5 * rng.normal(), 0.5 * rng.normal())
    return HermiteGauss.from_poly(ComplexPoly.from_coeffs(coeffs), gamma2, gamma1)


def closed_vs_quad_dev(p: PhaseParams, f: HermiteGauss, U: HoloGauss) -> float:
    """Largest |U(z) - transform_quad(p, f, z)| at three points; U = T f."""
    with np.errstate(over="ignore", invalid="ignore"):  # a value not finite fails the check
        return _worst(
            abs(U(z) - transform_quad(p, f, z)) for z in (0.3 + 0.1j, -0.8 + 0.5j, 1.1 - 0.9j)
        )


def suite_transform(B: complex, C: complex, h: float, seed: int) -> list[dict]:
    """Unitarity over TRANSFORM_PAIRS random pairs, the reproducing kernel at
    TRANSFORM_POINTS random points, and the quadrature oracle."""
    p = PhaseParams(canonical_A(B, C), B, C, h)
    rng = np.random.default_rng(seed)
    checks = []

    pairs = [(_random_line_function(rng), _random_line_function(rng))
             for _ in range(TRANSFORM_PAIRS)]
    f0 = pairs[0][0]
    U = transform(p, f0)
    points = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
              for _ in range(TRANSFORM_POINTS)]
    with np.errstate(over="ignore", invalid="ignore"):  # a value not finite fails its check
        worst = _worst(
            abs(inner_product_HPhi(p, transform(p, f), transform(p, g)) - inner_product_line(f, g))
            for f, g in pairs
        )
        checks.append(check(f"unitarity_max_dev[pairs={TRANSFORM_PAIRS}]", worst, TOL_UNITARITY))
        worst = _worst(abs(v - U(z)) for v, z in zip(projector_apply(p, U, points), points))
        name = f"reproducing_max_dev[points={TRANSFORM_POINTS}]"
        checks.append(check(name, worst, TOL_UNITARITY))
        dev = closed_vs_quad_dev(p, f0, U)
        checks.append(check("transform_closed_vs_quad", dev, TOL_TRANSFORM_QUAD))
        worst = _worst(abs(adjoint_quad(p, U, x) - f0(x)) for x in (-1.2, -0.3, 0.0, 0.7, 1.6))
        checks.append(check("adjoint_roundtrip_max", worst, TOL_UNITARITY))
    return checks


# ---------------------------------------------------------------------------
# commutative-case two-component oscillator
# ---------------------------------------------------------------------------


def ncho_residual_checks(p: NchoParams, n: int) -> tuple[list[dict], list[dict]]:
    """Spectrum entries for n' < n, both signs, and their residual checks."""
    entries = spectrum_check(p, n)
    checks = [
        check(f"residual[sign={e['sign']},n={e['n']}]", e["residual"], TOL_ALGEBRA)
        for e in entries
    ]
    return entries, checks


def suite_ncho(alpha: float, h: float, n: int) -> list[dict]:
    """Vector eigen-residuals for n' < n plus the combined (both signs) Gram
    deviation for n' < min(n, 9)."""
    p = NchoParams(alpha, h)
    _, checks = ncho_residual_checks(p, n)
    n_gram = min(n, 9)
    _, dev = combined_gram(p, n_gram)
    checks.append(check(f"combined_gram_dev[n<{n_gram}]", dev, TOL_ALGEBRA))
    return checks


# ---------------------------------------------------------------------------
# ellipse-associated orthogonal families
# ---------------------------------------------------------------------------


def ellipse_gram(alpha: float, beta: float, n: int):
    """Plane-quadrature Gram matrix of psi_0..psi_{n-1} against its closed form.

    Returns ``(G, diag, dev)``: G as nested lists, the closed-form diagonal
    ``n! (lambda/a)^n ||psi_0||^2``, and the largest deviation from it,
    relative to ``sqrt(diag_m diag_n)`` (:func:`gram_deviation`).  The psi_k
    share one exponent, so :func:`~bargmann_lab.bargmann.gram_HPhi` computes
    G on one grid.
    """
    p = derived_constants(alpha, beta)
    diag = [math.factorial(k) * _power(p.lam_over_a, k) * p.norm_psi0_sq for k in range(n)]
    G = gram_HPhi(PhaseParams.classic(), [psi_n(p, k) for k in range(n)])
    return G, diag, gram_deviation(G, diag)


def ellipse_route_checks(p: EllipseParams, n: int, suffix: str = "") -> list[dict]:
    """The constants identity, and psi_0..psi_{n-1} by the Rodrigues vs. the
    ladder route (named ``psi_routes_dev`` + ``suffix``)."""
    identity = abs(p.a + 2 * p.lam - 1 / p.a.conjugate())
    dev = _worst(
        coeff_deviation(psi_n(p, k), u) for k, u in enumerate(psi_family_ladder(p, n))
    )
    return [
        check("constants_identity_dev", identity, TOL_IDENTITY),
        check(f"psi_routes_dev{suffix}", dev, TOL_IDENTITY),
    ]


def ellipse_eigen_checks(p: EllipseParams, n: int, label: str) -> tuple[list[dict], list[dict]]:
    """Eigen-entries of H_ab Psi_k for k < n and their ``label[n=k]`` checks:
    H_ab applied once to the block of Psi_0..Psi_{n-1}."""
    _, _, H = ladder_diffops(p)
    mus = [p.eigen_gap * (2 * k + 1) for k in range(n)]
    residuals = relative_residual(H, HermiteBlock.stack(Psi_family(p, n)), mus)
    entries = [
        {"n": k, "eigenvalue": mu, "residual": res}
        for k, (mu, res) in enumerate(zip(mus, residuals))
    ]
    return _eigen_checks(entries, label)


def suite_ellipse(alpha: float, beta: float, n: int) -> list[dict]:
    """Route agreement and oscillator residuals for n' < n, and quadrature
    norms with the plane Gram for n' < min(n, 7)."""
    p = derived_constants(alpha, beta)
    checks = ellipse_route_checks(p, n, f"[n<{n}]")
    dev = _worst(map(coeff_deviation, Psi_family(p, n), Psi_family_ladder(p, n)))
    checks.append(check(f"Psi_routes_dev[n<{n}]", dev, TOL_IDENTITY))

    n_gram = min(n, 7)
    G, _, dev = ellipse_gram(alpha, beta, n_gram)
    n0 = G[0][0].real  # the plane-quadrature norm of psi_0
    checks.append(
        check("psi0_norm_rel_err", abs(n0 - p.norm_psi0_sq) / p.norm_psi0_sq, TOL_NORM_REL)
    )
    checks.append(check(f"psi_gram_rel_dev[n<{n_gram}]", dev, TOL_NORM_REL))

    checks += ellipse_eigen_checks(p, n, "H_residual")[1]

    if (alpha, beta) == (2.0, 0.0):
        target = DiffOp({(0, 2): 1.0, (2, 0): 16.0}, h=1.0)
        _, _, H = ladder_diffops(p)
        checks.append(
            check("operator_identity_dev", H.max_coeff_diff(target), TOL_IDENTITY)
        )
        dev = _worst(
            abs(p.eigen_gap * (2 * k + 1) - 4.0 * (2 * k + 1)) for k in range(n)
        )
        checks.append(check("eigenvalue_4(2n+1)_dev", dev, TOL_IDENTITY))
    return checks


# ---------------------------------------------------------------------------
# cross-module bridge
# ---------------------------------------------------------------------------


def suite_bridge(alpha: float, beta: float, n: int) -> list[dict]:
    """Collinearity of the line family with the bridged Hermite family for
    n' < n: the same exponent and scale, and collinear Hermite coefficients."""
    p = derived_constants(alpha, beta)
    hs = HermiteSystem(bridge_params(p))
    checks = []
    phis = hs.phi_block(n)
    for k, big in enumerate(Psi_family(p, n)):
        phi = phis.column(k)
        exp_dev = abs(big.gamma2 - phi.gamma2) + abs(big.s - phi.s)
        coeff_dev = coeff_deviation(big, phi, collinear=True)
        checks.append(
            check(f"bridge_collinear[n={k}]", _worst((exp_dev, coeff_dev)), TOL_ALGEBRA)
        )
    return checks


# ---------------------------------------------------------------------------
# localization eigenvalues
# ---------------------------------------------------------------------------


def toeplitz_series_checks(R: float, n: int) -> tuple[list[dict], list[dict]]:
    """Series vs. radial disk eigenvalues for n' < n, and the radius round trip."""
    entries = spectrum_rows(R, n)
    checks = [
        check(f"series_vs_radial[n={e['n']}]", e["abs_diff"], TOL_TOEPLITZ_SERIES)
        for e in entries
    ]
    checks.append(check("radius_roundtrip", radius_roundtrip_error(R), TOL_ROUNDTRIP))
    return entries, checks


def suite_toeplitz(R: float, n: int) -> list[dict]:
    """Series vs. radial integrals for n' < n and the radius round-trip; the
    2D-quadrature matrix for n' < min(n, 7): its off-diagonal entries, and
    its diagonal against the same radial integrals."""
    entries, checks = toeplitz_series_checks(R, n)

    n_matrix = min(n, 7)
    G = toeplitz_block_quad(RadialSymbol.indicator(R), n_matrix)
    idx = range(n_matrix)
    off = _worst(abs(G[m_, n_]) for m_ in idx for n_ in idx if m_ != n_)
    diag = _worst(abs(G[n_, n_] - entries[n_]["lambda_quadrature"]) for n_ in idx)
    checks.append(check(f"matrix_offdiag_max[n<{n_matrix}]", off, TOL_TOEPLITZ_OFFDIAG))
    checks.append(check(f"matrix_diag_dev[n<{n_matrix}]", diag, TOL_TOEPLITZ_DIAG))

    G = toeplitz_block_quad(RadialSymbol.gaussian(0.5), n_matrix)
    dev = _worst(abs(G[n_, n_] - 2.0 ** (-(n_ + 1))) for n_ in idx)
    checks.append(check(f"gaussian_diag_dev[n<{n_matrix}]", dev, TOL_TOEPLITZ_DIAG))
    return checks


# ---------------------------------------------------------------------------
# the full battery
# ---------------------------------------------------------------------------


def _fan_out(tasks: Sequence[tuple[str, Callable[[], list[dict]]]]) -> list[dict]:
    """Run suite tasks in order, prefixing each check name with its task's."""
    return [
        {**c, "name": f"{prefix}::{c['name']}"} for prefix, fn in tasks for c in fn()
    ]


def suite_all(seed: int) -> list[dict]:
    """The full certification battery on the reference parameter sets:
    indices below 11 in every family, except the Hermite systems'
    eigen-residuals (below 21) and Gram matrices (below 16)."""
    tasks: list[tuple[str, Callable[[], list[dict]]]] = [("gaussint", suite_gaussint)]
    for B, C, h in HERMITE_PARAM_SETS:
        name = f"hermite[B={_fmt_c(B)},C={_fmt_c(C)},h={h}]"
        tasks.append((name, partial(suite_hermite, B, C, h, 21, 16)))
    for B, C, h in HERMITE_PARAM_SETS:
        name = f"transform[B={_fmt_c(B)},C={_fmt_c(C)},h={h}]"
        tasks.append((name, partial(suite_transform, B, C, h, seed)))
    for alpha in NCHO_ALPHAS:
        for h in NCHO_PLANCKS:
            tasks.append((f"ncho[alpha={alpha},h={h}]", partial(suite_ncho, alpha, h, 11)))
    for alpha, beta in ELLIPSE_SETS:
        name = f"ellipse[alpha={alpha},beta={beta}]"
        tasks.append((name, partial(suite_ellipse, alpha, beta, 11)))
    for alpha, beta in ELLIPSE_SETS:
        name = f"bridge[alpha={alpha},beta={beta}]"
        tasks.append((name, partial(suite_bridge, alpha, beta, 11)))
    for R in TOEPLITZ_RADII:
        tasks.append((f"toeplitz[R={R}]", partial(suite_toeplitz, R, 11)))
    return _fan_out(tasks)
