"""Acceptance gate: nine certified claims, one pass/fail line each.

Each criterion reads the checks of the full certification battery
(``suite_all``) for the corresponding suite (closed-form route cross-checked
by an independent quadrature/property route), extracts the worst measured
deviation, prints a single visible verdict line, and asserts against the
pinned tolerance.  The battery runs once, at module scope, at its own sizes.
"""

import numpy as np

from bargmann_lab import suites

# pinned tolerances
TOL_EXACT = 1e-10
TOL_QUAD_GRAM = 1e-6
TOL_UNITARY = 1e-6
TOL_NORM_REL = 1e-4
TOL_ROT_GAUSS = 1e-8
TOL_SERIES = 1e-10
TOL_MATRIX_DIAG = 1e-5
TOL_MATRIX_OFF = 1e-6
TOL_ROUNDTRIP = 1e-12

BATTERY = suites.suite_all(2026)


def _worst(suite, prefix):
    """Largest measured value of the battery's checks ``suite...::prefix...``:
    ``suite`` picks every parameter set of a suite (``"hermite["``) or one.
    A NaN among them is the worst (Python's ``max`` keeps only a first NaN)."""
    picked = [
        c["measured"] for c in BATTERY
        if c["name"].startswith(suite) and c["name"].split("::")[1].startswith(prefix)
    ]
    assert picked, f"no checks {suite}...::{prefix}..."
    return float(np.max(picked))


def _verdict(capsys, num, label, worst, bar):
    ok = worst <= bar
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} "
              f"(worst {worst:.3e}, bar {bar:.1e})")
    assert ok, f"criterion {num}: worst {worst:.3e} exceeds {bar:.1e}"


def test_criterion_1_orthonormal_family(capsys):
    """Gram of phi_n (n <= 15) is the identity: exact and quadrature routes."""
    exact = _worst("hermite[", "gram_exact_dev")
    quad = _worst("hermite[", "gram_quad_dev")
    _verdict(capsys, 1, "orthonormality, exact route", exact, TOL_EXACT)
    _verdict(capsys, 1, "orthonormality, quadrature route", quad, TOL_QUAD_GRAM)


def test_criterion_2_oscillator_spectrum(capsys):
    """H phi_n defect (n <= 20) and classic eigenvalues (2n+1)h."""
    res = _worst("hermite[", "eig_residual")
    dev = _worst("hermite[B=-i,C=i,h=1.0]", "classic_eigenvalue_dev")
    _verdict(capsys, 2, "eigen-residuals n <= 20", res, TOL_EXACT)
    _verdict(capsys, 2, "classic eigenvalue ladder", dev, TOL_EXACT)


def test_criterion_3_transform_unitary(capsys):
    """Inner products survive the transform; the kernel reproduces values."""
    worst_u = _worst("transform[", "unitarity_max_dev")
    worst_r = _worst("transform[", "reproducing_max_dev")
    pairs, points = suites.TRANSFORM_PAIRS, suites.TRANSFORM_POINTS
    _verdict(capsys, 3, f"unitarity on {pairs} random pairs/set", worst_u, TOL_UNITARY)
    _verdict(capsys, 3, f"reproducing kernel at {points} points/set", worst_r, TOL_UNITARY)


def test_criterion_4_two_component_spectrum(capsys):
    """Vector eigenfunctions: residuals (n <= 10) and combined Gram (n <= 8)."""
    worst_res = _worst("ncho[", "residual[")
    worst_gram = _worst("ncho[", "combined_gram_dev")
    _verdict(capsys, 4, "vector eigen-residuals", worst_res, TOL_EXACT)
    _verdict(capsys, 4, "combined Gram identity", worst_gram, TOL_EXACT)


def test_criterion_5_plane_norms(capsys):
    """psi_0 squared norm and the psi Gram diagonal, by plane quadrature."""
    worst_n = _worst("ellipse[", "psi0_norm_rel_err")
    worst_g = _worst("ellipse[", "psi_gram_rel_dev")
    _verdict(capsys, 5, "ground-state norm vs closed form", worst_n, TOL_NORM_REL)
    _verdict(capsys, 5, "psi family Gram vs closed form", worst_g, TOL_NORM_REL)


def test_criterion_6_elliptic_oscillator(capsys):
    """H Psi_n residuals (n <= 10); axis-aligned case is the frequency-4 oscillator."""
    worst_res = _worst("ellipse[", "H_residual")
    axis = "ellipse[alpha=2.0,beta=0.0]"
    op_dev = _worst(axis, "operator_identity_dev")
    eig_dev = _worst(axis, "eigenvalue_4(2n+1)_dev")
    _verdict(capsys, 6, "eigen-residuals n <= 10", worst_res, TOL_EXACT)
    _verdict(capsys, 6, "axis-aligned operator and spectrum",
             max(op_dev, eig_dev), TOL_EXACT)


def test_criterion_7_rotated_gaussian(capsys):
    """Closed-form rotated Gaussian integral vs adaptive quadrature."""
    worst = _worst("gaussint", "rot_gauss")
    _verdict(capsys, 7, "rotated Gaussian integral", worst, TOL_ROT_GAUSS)


def test_criterion_8_localization_eigenvalues(capsys):
    """Disk series vs radial integrals, matrix diagonality, radius recovery."""
    worst_series = _worst("toeplitz[", "series_vs_radial")
    worst_diag = _worst("toeplitz[", "matrix_diag_dev")
    worst_off = _worst("toeplitz[", "matrix_offdiag_max")
    worst_rt = _worst("toeplitz[", "radius_roundtrip")
    _verdict(capsys, 8, "disk series vs radial quadrature", worst_series, TOL_SERIES)
    _verdict(capsys, 8, "matrix diagonal agreement", worst_diag, TOL_MATRIX_DIAG)
    _verdict(capsys, 8, "matrix off-diagonal decay", worst_off, TOL_MATRIX_OFF)
    _verdict(capsys, 8, "radius round-trip", worst_rt, TOL_ROUNDTRIP)


def test_criterion_9_cross_family_bridge(capsys):
    """Psi_n is collinear with the bridged phi_n for n <= 10, three families."""
    worst = _worst("bridge[", "bridge_collinear")
    _verdict(capsys, 9, "family collinearity", worst, TOL_EXACT)
