"""The package calls no LAPACK or BLAS routine.

Its Gauss rules are built by Newton's method, its plane grids are fitted in
closed form, and its sums run in ``np.einsum`` or elementwise: the source
holds no matrix product and no ``numpy.linalg`` call, and the certification
battery and a degree-64 plane Gram give the same values with numpy's
solvers replaced by stubs that raise.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from bargmann_lab import bargmann, suites
from bargmann_lab.ellipse import derived_constants, psi_n
from bargmann_lab.phasecore import PhaseParams

SRC = Path(__file__).resolve().parents[1] / "src"


def _linear_algebra(tree):
    """``(line, what)`` of each matrix product, ``linalg`` reference, and
    ``dot`` or ``matmul`` name in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in ("linalg", "dot", "matmul"):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in ("linalg", "dot", "matmul"):
            yield node.lineno, node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if any(part in ("linalg", "dot", "matmul") for n in names for part in n.split(".")):
                yield node.lineno, "import"


def test_the_scan_finds_each_form_of_linear_algebra():
    sample = (
        "import numpy.linalg\nfrom numpy import dot\nc = a @ b\nc @= b\n"
        "np.linalg.eigh(m)\nnp.matmul(a, b)\na.dot(b)\n"
    )
    assert sorted({line for line, _ in _linear_algebra(ast.parse(sample))}) == [1, 2, 3, 4, 5, 6, 7]


def test_the_source_holds_no_matrix_product_and_no_linalg_call():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {
        f"{path.relative_to(SRC)}:{line}": what
        for path in files
        for line, what in _linear_algebra(ast.parse(path.read_text(), str(path)))
    }
    assert not found, found


def _battery():
    p = PhaseParams.classic()
    fs = [psi_n(derived_constants(0.5, 3.0), k) for k in range(64)]
    return suites.suite_all(2026), bargmann.gram_HPhi(p, fs)


def test_the_battery_and_a_degree_64_gram_run_with_raising_solvers(monkeypatch):
    want = _battery()

    def raising(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("eigh", "eig", "eigvalsh", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, raising)
    with pytest.raises(AssertionError, match="numpy.linalg called"):
        np.linalg.solve(np.eye(2), np.ones(2))  # the stubs are in place
    checks, gram = _battery()
    assert checks == want[0] and all(c["pass"] for c in checks)
    assert gram == want[1]
