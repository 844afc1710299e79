"""Exact polynomial-Gaussian algebra for Bargmann-type transforms.

Subpackages by theme:

* :mod:`bargmann_lab.gaussalg`  -- the exact function algebra (Hermite
  coefficients, on the line and on the plane) everything else reduces to;
* :mod:`bargmann_lab.phasecore` -- quadratic phase data, weights, kernels,
  canonical maps;
* :mod:`bargmann_lab.bargmann`  -- the transform, adjoint, projector, and the
  adapted quadrature grids used as independent oracles;
* :mod:`bargmann_lab.hermite`   -- generalized Hermite systems, ladder
  operators, the modified oscillator and its spectral certificates;
* :mod:`bargmann_lab.ncho`      -- the commutative two-by-two oscillator
  system and its vector eigenfunctions;
* :mod:`bargmann_lab.ellipse`   -- orthogonal families attached to elliptic
  phase-plane regions (h = 1);
* :mod:`bargmann_lab.toeplitz`  -- localization eigenvalues for radial
  symbols: series, radial integrals, and matrix elements;
* :mod:`bargmann_lab.suites`    -- the certification suites behind the CLI;
* :mod:`bargmann_lab.cli`       -- the ``bargmann-lab`` command.
"""

from .gaussalg import (
    ComplexPoly,
    DegreeCapError,
    DiffOp,
    DomainError,
    HermiteGauss,
    HoloGauss,
    apply_diffop,
    gauss_integral,
    inner_product_line,
)
from .phasecore import PhaseParams, canonical_A, kappa_map, kernel_Psi, weight_Phi
from .bargmann import (
    QuadGrid,
    TruncationError,
    adjoint_quad,
    inner_product_HPhi,
    projector_apply,
    transform,
    transform_quad,
)
from .hermite import HermiteSystem

__all__ = [
    "ComplexPoly",
    "DegreeCapError",
    "DiffOp",
    "DomainError",
    "HermiteGauss",
    "HoloGauss",
    "PhaseParams",
    "QuadGrid",
    "TruncationError",
    "HermiteSystem",
    "apply_diffop",
    "gauss_integral",
    "inner_product_line",
    "canonical_A",
    "kappa_map",
    "kernel_Psi",
    "weight_Phi",
    "adjoint_quad",
    "inner_product_HPhi",
    "projector_apply",
    "transform",
    "transform_quad",
]

__version__ = "0.1.0"
