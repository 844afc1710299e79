"""Command-line surface: flag parsing, artifacts, exit statuses, determinism."""

import csv
import fractions
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from bargmann_lab import HermiteSystem, bargmann, cli, ellipse, gaussalg, ncho, suites, transform
from bargmann_lab.bargmann import grid_values, hphi_grid
from bargmann_lab.gaussalg import DegreeCapError
from bargmann_lab.phasecore import PhaseParams, canonical_A


# ------------------------------------------------------------ flag parsing


@pytest.mark.parametrize("text,value", [
    ("-i", -1j),
    ("i", 1j),
    ("1+2i", 1 + 2j),
    ("3", 3 + 0j),
    ("0.5j", 0.5j),
    ("-0.7+0.2I", -0.7 + 0.2j),
    (" 1 - 2i ", 1 - 2j),
])
def test_parse_complex_forms(text, value):
    assert cli.parse_complex(text) == value


def test_parse_complex_rejects_junk():
    for bad in ("", "one", "1+", "i2i"):
        with pytest.raises(ValueError):
            cli.parse_complex(bad)


# ------------------------------------------------------- documented examples


def test_certify_hermite_classic(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["certify", "--suite", "hermite", "--B", "-i", "--C", "i",
                   "--h", "1", "--n", "12", "-o", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["suite"] == "hermite"
    assert rep["params"]["B"] == [0.0, -1.0]  # complex values render as [re, im]
    residuals = [c for c in rep["checks"] if c["name"].startswith("eig_residual")]
    assert len(residuals) == 12
    for c in residuals:
        assert c["pass"] and c["measured"] <= 1e-10


def test_toeplitz_disk_csv(tmp_path):
    out = tmp_path / "disk.csv"
    rc = cli.main(["toeplitz", "--disk", "1.0", "--n", "5", "-o", str(out)])
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert float(rows[0]["lambda_formula"]) == pytest.approx(0.6321206, abs=5e-8)
    assert all(float(r["abs_diff"]) <= 1e-10 for r in rows)


def test_gram_ellipse_closed_diagonal(tmp_path):
    out = tmp_path / "gram.json"
    rc = cli.main(["gram", "--system", "ellipse", "--alpha", "2", "--beta", "0",
                   "--n", "6", "-o", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    diag = rep["closed_form_diagonal"]
    for n, d in enumerate(diag):
        want = 5 * math.pi / 2 * (8 / 9) ** n * math.factorial(n)
        assert d == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("method", ["exact", "both"])
def test_hermite_gram_artifact_has_no_negative_zero(tmp_path, method):
    out = tmp_path / "gram.json"
    rc = cli.main(["gram", "--B", "3", "--C", "1+2i", "--h", "0.5", "--n", "3",
                   "--method", method, "-o", str(out)])
    assert rc == 0
    # the artifact is indented JSON: one number per line
    tokens = [line.strip().rstrip(",") for line in out.read_text().splitlines()]
    assert "0.0" in tokens
    assert "-0.0" not in tokens


# ------------------------------------------------------------- exit statuses


def test_usage_error_is_exit_1(capsys):
    assert cli.main(["certify", "--suite", "nope"]) == 1
    assert cli.main(["eigres", "--system", "hermite", "--n", "65"]) == 1
    assert cli.main(["eigres", "--system", "hermite", "--n", "0"]) == 1
    capsys.readouterr()


def test_parser_is_built_once_and_reused_across_calls(tmp_path, capsys):
    # a usage error between two runs of one command leaves no trace in the
    # shared parser: both runs write the same bytes
    assert cli.build_parser() is cli.build_parser()
    argv = ["ncho", "--alpha", "2", "--n", "3"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert cli.main([*argv, "-o", str(first)]) == 0
    assert cli.main(["ncho", "--alpha", "2", "--n", "three"]) == 1
    assert cli.main([*argv, "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert cli.main(["--help"]) == 0
    assert cli.main(["gram", "--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["ellipse", "toeplitz"])
def test_flag_a_command_does_not_take_is_exit_1(tmp_path, capsys, command):
    # no prefix matching: --h is not read as --help (which would exit 0)
    out = tmp_path / "report"
    assert cli.main([command, "--h", "1", "-o", str(out)]) == 1
    assert "unrecognized arguments: --h 1" in capsys.readouterr().err
    assert not out.exists()


def test_domain_error_is_exit_1(capsys):
    assert cli.main(["certify", "--suite", "hermite", "--B", "0", "--C", "i"]) == 1
    err = capsys.readouterr().err
    assert "B" in err


@pytest.mark.parametrize("argv,flag", [
    (["eigres", "--h", "inf"], "--h"),
    (["ncho", "--alpha", "inf"], "--alpha"),
    (["ellipse", "--beta", "nan"], "--beta"),
    (["toeplitz", "--disk", "inf"], "--disk"),
    (["certify", "--suite", "toeplitz", "--R", "nan"], "--R"),
    (["ellipse", "--rho", "inf"], "--rho"),
    (["transform", "--B=nan"], "--B"),
    (["transform", "--C=1e400i"], "--C"),
    (["ellipse", "--samples", "-5"], "--samples"),
    (["ellipse", "--samples", "0"], "--samples"),
    (["eigres", "--h", "0"], "--h"),
    (["ncho", "--h", "-1"], "--h"),
    (["toeplitz", "--disk", "0"], "--disk"),
    (["certify", "--suite", "toeplitz", "--R", "-2"], "--R"),
    (["ellipse", "--rho", "0"], "--rho"),
    (["ellipse", "--rho", "-1"], "--rho"),
    (["certify", "--suite", "transform", "--seed", "-1"], "--seed"),
    (["certify", "--suite", "all", "--seed=-5"], "--seed"),
    (["ncho", "--n", "0"], "--n"),
    (["ncho", "--n", "65"], "--n"),
    # a value that starts with "-" as the next argument: the flag's own error
    (["eigres", "--h", "-1e-3"], "--h"),
    (["eigres", "--alpha", "-inf"], "--alpha"),
    (["eigres", "--beta", "-nan"], "--beta"),
    (["toeplitz", "--disk", "-1e-3"], "--disk"),
], ids=["h", "alpha", "beta", "disk", "R", "rho", "B", "C", "samples-5", "samples0",
        "h0", "ncho-h-1", "disk0", "R-2", "rho0", "rho-1", "seed-1", "seed-5", "n0", "n65",
        "h-1e-3", "alpha-inf", "beta-nan", "disk-1e-3"])
def test_bad_flag_is_rejected_at_the_boundary(tmp_path, capsys, argv, flag):
    out = tmp_path / "artifact"
    assert cli.main([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} = ")
    assert not out.exists()


@pytest.mark.parametrize("spelled,joined", [
    (["--B", "-j"], ["--B=-j"]),
    (["--B", "-I"], ["--B=-I"]),
    (["--B", "-J", "--C", "-1+2i"], ["--B=-J", "--C=-1+2i"]),
], ids=["j", "I", "J-and-C"])
def test_a_value_that_starts_with_a_minus_may_follow_its_flag(tmp_path, capsys, spelled, joined):
    # every spelling parse_complex reads, as the next argument or after "="
    got, want = tmp_path / "spelled.json", tmp_path / "joined.json"
    assert cli.main(["transform", *spelled, "--format", "json", "-o", str(got)]) == 0
    assert cli.main(["transform", *joined, "--format", "json", "-o", str(want)]) == 0
    assert got.read_bytes() == want.read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["-h", "-o"])
def test_a_flag_after_a_value_flag_stays_a_flag(capsys, value):
    # parse_complex rejects "-h" and "-o": argparse reads them as flags, and
    # --B is left without its argument
    assert cli._merge_negative_values(["transform", "--B", value]) == ["transform", "--B", value]
    assert cli.main(["transform", "--B", value]) == 1
    assert "argument --B: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv,name", [
    (["eigres", "--B=1e300"], "B"),
    (["eigres", "--C=1e300i"], "C"),
    (["eigres", "--B=1e-170"], "B"),
    (["transform", "--B=1e-300"], "B"),
    (["ellipse", "--alpha", "1e300"], "alpha"),
    (["gram", "--system", "ellipse", "--beta", "1e300"], "beta"),
    (["ncho", "--alpha", "1e200"], "alpha"),
], ids=["B-big", "C-big", "B-small", "transform-B-small", "alpha", "beta", "ncho-alpha"])
def test_parameter_whose_square_overflows_is_a_domain_error(tmp_path, capsys, argv, name):
    out = tmp_path / "artifact"
    assert cli.main([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{name} = " in err
    assert not out.exists()


#: The checks of the transform suite that read NaN at |B| >= 3e8, where U =
#: T phi_0 overflows at their fixed points.
_LARGE_B_FAILS = [
    "FAIL reproducing_max_dev[points=10]: measured nan",
    "FAIL transform_closed_vs_quad: measured nan",
]

#: The checks of the transform suite that read NaN at |B| = 1e-154, where
#: a plane grid's weight scale |det L| overflows (the fit scales it back by
#: a power of two, which gives inf there, not an OverflowError).
_SMALL_B_FAILS = [
    "FAIL unitarity_max_dev[pairs=20]: measured nan",
    "FAIL reproducing_max_dev[points=10]: measured nan",
    "FAIL adjoint_roundtrip_max: measured nan",
]

#: The checks of the Hermite suite that fail at --n 3 where h/Im C under- or
#: overflows: phi_n's exponent and amplitude are not finite, so the residuals
#: read inf and both Grams NaN; the quadrature sums in x/s on a fixed grid.
_TINY_H_FAILS = [
    *(f"FAIL eig_residual[n={k}]: measured inf" for k in range(3)),
    "FAIL gram_exact_dev[n<3]: measured nan",
    "FAIL gram_quad_dev[n<3]: measured nan",
]

#: The checks of the Toeplitz suite that fail at --n 3 for 3e27 <= R <= 3e40:
#: the radial rule cannot certify its rows, which read NaN, and lambda_0
#: rounds to 1, so the radius cannot be recovered.
_HUGE_R_FAILS = [
    *(f"FAIL series_vs_radial[n={k}]: measured nan" for k in range(3)),
    "FAIL radius_roundtrip: measured inf",
]


@pytest.mark.parametrize("argv,status,lines", [
    (["transform", "--h", "1e-300"], 2, ["FAIL closed_vs_quad: measured nan"]),
    (["certify", "--suite", "transform", "--h", "1e-300"], 1,
     ["error: integrand does not decay"]),
    (["certify", "--suite", "transform", "--B=1e150"], 2, _LARGE_B_FAILS),
    (["certify", "--suite", "transform", "--B=1e10"], 2, _LARGE_B_FAILS),
    (["certify", "--suite", "transform", "--B=3e8"], 2, _LARGE_B_FAILS),
    (["transform", "--B=3e8"], 2, ["FAIL closed_vs_quad: measured nan"]),
    (["certify", "--suite", "transform", "--B=1e-154"], 2, _SMALL_B_FAILS),
    (["certify", "--suite", "transform", "--B=1e-90"], 0, []),
    (["transform", "--B=1e-160", "--format", "json"], 2, ["FAIL unitarity_ground_state: measured nan"]),
    (["toeplitz", "--disk", "1e30", "--n", "3"], 2, _HUGE_R_FAILS),
    (["certify", "--suite", "toeplitz", "--R", "1e35", "--n", "3"], 2,
     [*_HUGE_R_FAILS, "FAIL matrix_diag_dev[n<3]: measured nan"]),
    *((["gram", "--system", "hermite", "--method", "quadrature", flag, "--n", "3"], 2,
       ["FAIL gram_quad_dev: measured nan"])
      for flag in ("--h=1e-310", "--h=5e-324", "--C=1+1e-310i")),
    (["certify", "--suite", "hermite", "--h", "1e-310", "--n", "3"], 2, _TINY_H_FAILS),
    (["eigres", "--h", "5e-324"], 2,
     [f"FAIL eig_residual[n={k}]: measured inf" for k in range(12)]),
    (["certify", "--suite", "ncho", "--alpha", "2", "--h", "5e-324"], 2,
     [*(f"FAIL residual[sign={s},n={k}]: measured inf" for k in range(12) for s in "+-"),
      "FAIL combined_gram_dev[n<9]: measured nan"]),
], ids=["transform-h-tiny", "certify-h-tiny", "certify-B-big", "certify-B-1e10", "certify-B-3e8",
        "transform-B-3e8", "certify-B-tiny", "certify-B-1e-90", "transform-B-subnormal",
        "toeplitz-R-huge", "certify-R-huge", "gram-quad-h-1e-310", "gram-quad-h-subnormal",
        "gram-quad-ImC-tiny", "certify-hermite-h-1e-310", "eigres-h-subnormal",
        "certify-ncho-h-subnormal"])
def test_extreme_scale_is_a_status_not_a_traceback(tmp_path, argv, status, lines):
    # h*h underflows to 0, e^{c2 z^2} overflows at a point, |B|^2 or h is
    # subnormal, or no two levels of the radial rule agree: a check that
    # cannot be evaluated fails (exit 2), a grid that cannot be fitted is a
    # domain error (exit 1), and neither is an uncaught exception or prints a
    # numpy warning; stderr holds exactly these lines
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "bargmann_lab.cli", *argv,
         "-o", str(tmp_path / "artifact")],
        capture_output=True, text=True,
    )
    assert proc.returncode == status, proc.stderr
    got = proc.stderr.splitlines()
    assert len(got) == len(lines), proc.stderr
    assert all(line.startswith(want) for line, want in zip(got, lines)), proc.stderr


def test_unevaluable_transform_check_fails_without_a_runtime_warning(tmp_path):
    # at h = 1e-300 the closed form and the oracle overflow: the NaN deviation
    # fails its check (exit 2), and no numpy warning is printed ahead of it
    proc = subprocess.run(
        [sys.executable, "-m", "bargmann_lab.cli", "transform", "--h", "1e-300",
         "-o", str(tmp_path / "artifact")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "FAIL closed_vs_quad: measured nan" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_a_transform_suite_at_large_B_fails_two_checks_without_a_runtime_warning(tmp_path):
    # at |B| = 1e150 the projector's per-axis factors and the closed form
    # overflow, while the line grid still reads its exponent: the two checks
    # at U's fixed points read NaN and fail (exit 2), unitarity and the
    # adjoint round trip pass, and no numpy warning is printed
    out = tmp_path / "artifact.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bargmann_lab.cli", "certify", "--suite", "transform",
         "--B=1e150", "--format", "json", "-o", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    got = proc.stderr.splitlines()
    assert len(got) == 2 and all(map(str.startswith, got, _LARGE_B_FAILS)), proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    passed = [c["name"] for c in json.loads(out.read_text())["checks"] if c["pass"]]
    assert passed == ["unitarity_max_dev[pairs=20]", "adjoint_roundtrip_max"]


def test_degenerate_ellipse_is_exit_1(capsys):
    assert cli.main(["ellipse", "--alpha", "1", "--beta", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("alpha,beta,message", [
    ("1e8", "0", "error: |a| = 1.0 must lie in (0, 1)"),  # a rounds to 1
    ("1e-170", "1e-6", "error: lambda/a = (-0+0j) must be real positive"),  # 2 alpha^2 underflows
])
def test_an_ellipse_whose_constants_leave_their_range_is_exit_1(tmp_path, capsys, alpha, beta,
                                                                 message):
    out = tmp_path / "artifact"
    assert cli.main(["ellipse", "--alpha", alpha, "--beta", beta, "-o", str(out)]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


_TOO_NEAR = "error: alpha = 1.0, beta = {}: lambda/a, C_ab or A_ab is not finite"


@pytest.mark.parametrize("argv,status,message", [
    # lambda/a ~ 1/beta^2 is inf from beta = 1e-155 on: a domain error naming alpha and beta
    *((["ellipse", "--beta", beta, "--n", "3"], 1, _TOO_NEAR.format(beta))
      for beta in ("1e-162", "1e-170", "1e-200", "1e-300")),
    (["certify", "--suite", "ellipse", "--beta", "1e-162"], 1, _TOO_NEAR.format("1e-162")),
    (["gram", "--system", "ellipse", "--beta", "1e-300", "--n", "3"], 1, _TOO_NEAR.format("1e-300")),
    (["gram", "--system", "ellipse", "--beta", "1e-155", "--n", "3"], 1, _TOO_NEAR.format("1e-155")),
    # C_ab^k and (lambda/a)^k overflow: the checks they reach fail
    *((["certify", "--suite", "ellipse", "--beta", beta, "--n", "11"], 2,
       "FAIL psi_gram_rel_dev[n<7]: measured nan") for beta in ("1e-40", "1e-60", "1e-80")),
    (["gram", "--system", "ellipse", "--beta", "1e-100", "--n", "3"], 2,
     "FAIL gram_rel_dev: measured nan"),
    (["certify", "--suite", "bridge", "--beta", "1e-40", "--n", "64"], 2,
     "FAIL bridge_collinear[n=63]: measured nan"),
    (["ellipse", "--beta", "1e-43", "--n", "64"], 2, "FAIL psi_routes_dev: measured nan"),
    # the constructor re-checks no identity: the absolute identity check fails
    *((["ellipse", "--alpha", alpha, "--beta", beta], 2, "FAIL constants_identity_dev")
      for alpha, beta in (("0.999999", "0"), ("1.0000001", "0"), ("1", "1e-8"))),
])
def test_an_ellipse_near_the_degenerate_circle_is_a_status_without_a_warning(
    tmp_path, capsys, argv, status, message
):
    # an uncaught exception (a traceback from the command line) fails the test
    argv = [*argv, "-o", str(tmp_path / "artifact")]
    if "--alpha" not in argv:
        argv += ["--alpha", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == status
    assert message in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_tolerance_violation_is_exit_2(tmp_path, capsys, monkeypatch):
    # the Hermite-coefficient Psi_n meet every residual tolerance to n = 64,
    # so the family is shifted by one index: H Psi_{k+1} - mu_k Psi_{k+1} =
    # 2 eigen_gap Psi_{k+1}, a finite residual far above the tolerance
    monkeypatch.setattr(suites, "Psi_family", lambda p, n: ellipse.Psi_family(p, n + 1)[1:])
    out = tmp_path / "deep.json"
    rc = cli.main(["eigres", "--system", "ellipse", "--n", "40", "-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "FAIL" in err
    # every failure line names the violated check and the measured value
    assert "eig_residual" in err and "exceeds tolerance" in err
    rep = json.loads(out.read_text())
    assert any(not c["pass"] for c in rep["checks"])


@pytest.mark.parametrize("args,scale", [
    (["--n", "64"], 0.0),
    (["--alpha", "0.5", "--beta", "3", "--n", "40"], math.nan),
], ids=["n64", "alpha0.5-beta3-n40"])
def test_unevaluable_ellipse_residual_is_exit_2(tmp_path, capsys, monkeypatch, args, scale):
    # the Hermite-coefficient route evaluates these inputs, so each case
    # injects one way a residual cannot be evaluated: ||Psi_n|| is zero, or
    # Psi_n has NaN coefficients; either is reported as inf
    monkeypatch.setattr(
        suites, "Psi_family", lambda p, n: [f.scale(scale) for f in ellipse.Psi_family(p, n)]
    )
    out = tmp_path / "ell.json"
    assert cli.main(["certify", "--suite", "ellipse", *args, "-o", str(out)]) == 2
    capsys.readouterr()
    checks = json.loads(out.read_text())["checks"]
    assert any(c["name"].startswith("H_residual") and float(c["measured"]) == math.inf
               for c in checks)


@pytest.mark.parametrize("alpha,beta", suites.ELLIPSE_SETS)
def test_ellipse_and_bridge_certify_to_degree_64(tmp_path, capsys, alpha, beta):
    # Psi_n on Hermite coefficients: every residual, route and collinearity
    # check holds to the CLI's --n limit at unchanged tolerances
    for suite in ("ellipse", "bridge"):
        argv = ["certify", "--suite", suite, f"--alpha={alpha}", f"--beta={beta}", "--n", "64"]
        assert cli.main([*argv, "-o", str(tmp_path / f"{suite}.json")]) == 0, suite
    assert "FAIL" not in capsys.readouterr().err


def _raising(err):
    def upper_row(p, sign, u):
        raise err
    return upper_row


@pytest.mark.parametrize("args,attr,fault", [
    (["ncho", "--n", "40"], "_pair_norm", lambda u: 0.0),
    (["certify", "--suite", "ncho", "--n", "41"], "_upper_row",
     lambda p, sign, u: u.scale(math.nan)),
    (["ncho", "--n", "64"], "_upper_row", _raising(DegreeCapError("degree 65 exceeds cap 64"))),
    (["ncho", "--h", "1e300"], "_upper_row", _raising(ValueError("-inf + inf in fsum"))),
], ids=["ncho-n40", "certify-n41", "ncho-n64-degree-cap", "ncho-h1e300"])
def test_unevaluable_ncho_residual_is_exit_2(tmp_path, capsys, monkeypatch, args, attr, fault):
    # the Hermite-coefficient route evaluates these inputs, so each case
    # injects one way a residual cannot be evaluated: ||Phi|| is zero, Q Phi
    # has NaN coefficients, Q Phi would pass the degree cap, an exact sum
    # meets inf - inf
    monkeypatch.setattr(ncho, attr, fault)
    out = tmp_path / "ncho.json"
    assert cli.main([*args, "-o", str(out)]) == 2
    capsys.readouterr()
    checks = json.loads(out.read_text())["checks"]
    assert any(c["name"].startswith("residual") and float(c["measured"]) == math.inf
               for c in checks)


def test_unevaluable_hermite_residual_is_exit_2(tmp_path, capsys, monkeypatch):
    # an operator image with NaN coefficients cannot be evaluated: inf
    monkeypatch.setattr(gaussalg, "apply_diffop", lambda op, f: f.scale(math.nan))
    out = tmp_path / "eig.json"
    assert cli.main(["eigres", "--format", "json", "-o", str(out)]) == 2
    capsys.readouterr()
    checks = json.loads(out.read_text())["checks"]
    assert any(c["name"].startswith("eig_residual") and float(c["measured"]) == math.inf
               for c in checks)


def _nan_cross_sign_entries(monkeypatch):
    """Make every overlap of ncho components on different exponents (the
    cross-sign entries of the combined Gram) a NaN."""
    monkeypatch.setattr(
        gaussalg, "_overlaps",
        lambda g, g1, s1, s2, J, K: [[complex(math.nan, 0.0)] * K for _ in range(J)],
    )


_NCHO_GRAM_ARGV = [
    (["gram", "--system", "ncho"], "combined_gram_dev"),
    (["certify", "--suite", "ncho"], "combined_gram_dev[n<3]"),
]


@pytest.mark.parametrize("argv,name", _NCHO_GRAM_ARGV, ids=["gram", "certify"])
def test_nan_gram_entry_is_exit_2(tmp_path, capsys, monkeypatch, argv, name):
    # a NaN among the Gram entries: the deviation keeps it and the check fails
    _nan_cross_sign_entries(monkeypatch)
    out = tmp_path / "gram.json"
    argv = [*argv, "--alpha", "1.5", "--n", "3", "-o", str(out)]
    assert cli.main(argv) == 2
    assert f"FAIL {name}: measured nan" in capsys.readouterr().err
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert math.isnan(float(checks[name]["measured"]))
    assert not checks[name]["pass"]


@pytest.mark.parametrize("argv,name", _NCHO_GRAM_ARGV, ids=["gram", "certify"])
def test_tiny_h_ncho_gram_cross_sign_entries_are_zero(tmp_path, argv, name):
    # at h = 1e-200 (Gaussian scale 1e-100) the cross-sign entries pair
    # components on different exponents; the overlap recurrence keeps them
    # exactly 0 by the (1, i)/(1, -i) pairing
    out = tmp_path / "gram.json"
    argv = [*argv, "--alpha", "1.5", "--h", "1e-200", "--n", "3", "-o", str(out)]
    assert cli.main(argv) == 0
    rep = json.loads(out.read_text())
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks[name]["measured"] <= suites.TOL_ALGEBRA
    G, _ = ncho.combined_gram(ncho.NchoParams(1.5, 1e-200), 3)
    cross = [G[i][j] for i in range(6) for j in range(6) if i % 2 != j % 2]
    assert all(z == 0 for z in cross)
    if "matrix" in rep:
        assert rep["matrix"] == [[[z.real, z.imag] for z in row] for row in G]


def _numpy_generator_draws(seed):
    """f0 and the points that the transform suite once drew at ``seed`` from
    ``np.random.default_rng``, by its own code of that time."""
    rng = np.random.default_rng(seed)

    def line_function():
        deg = int(rng.integers(0, 4))
        coeffs = tuple(
            complex(a, b) for a, b in zip(rng.normal(size=deg + 1), rng.normal(size=deg + 1))
        )
        gamma2 = complex(-0.4 - rng.uniform(0.0, 1.2), 0.5 * rng.normal())
        gamma1 = complex(0.5 * rng.normal(), 0.5 * rng.normal())
        return gaussalg.HermiteGauss.from_poly(gaussalg.ComplexPoly.from_coeffs(coeffs), gamma2, gamma1)

    pairs = [(line_function(), line_function()) for _ in range(suites.TRANSFORM_PAIRS)]
    points = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
              for _ in range(suites.TRANSFORM_POINTS)]
    return pairs[0][0], points


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_projector_reproduces_where_U_alone_overflows_on_its_grid():
    # the projector check at (-2, 0.5i, 2) on the f0 and points of seed
    # 1834948940's numpy draw, where U alone once overflowed on the
    # projector's grid: U reaches 1e211 there, and the sum, which folds U's
    # exponent into its column's, reproduces U without a RuntimeWarning
    f0, points = _numpy_generator_draws(1834948940)
    p = PhaseParams(canonical_A(-2, 0.5j), -2, 0.5j, 2.0)
    U = transform(p, f0)
    k, m = bargmann._weight(p)
    grid = bargmann.plane_grid(bargmann.Quadratic(U.c2 + k, U.c1, m=m))
    assert np.abs(U(grid.nodes)).max() > 1e200
    worst = max(abs(v - U(z)) for v, z in zip(bargmann.projector_apply(p, U, points), points))
    assert worst <= suites.TOL_UNITARITY


def test_transform_draws_at_the_default_seed_are_pinned():
    # the suite's first pair and first point at seed 2026: Python keeps
    # random.Random's random() sequence for a seed, so only a change to the
    # suite's own draw formulas can move them
    pairs, points = suites._transform_draws(2026)
    f, g = pairs[0]
    assert f.coeffs == pytest.approx([-1.1784275486934348 + 1.5847392560949727j], rel=1e-14)
    assert f.gamma2 == pytest.approx(-0.6679414680135889 - 0.6354649468339358j, rel=1e-14)
    assert f.gamma1 == pytest.approx(-0.8353579167632306 + 0.09196637357765501j, rel=1e-14)
    assert g.coeffs == pytest.approx([
        0.27371425100173874 + 1.4433929134720949j, -0.3981851824507058 - 4.848240106627668j,
        0.2682974792566075 + 0.543099504030078j, 0.6943574407641404 - 3.535014186120855j,
    ], rel=1e-14)
    assert g.gamma2 == pytest.approx(-0.49158388128678776 - 0.426736380982681j, rel=1e-14)
    assert g.gamma1 == pytest.approx(-0.40085531655094875 - 0.29160356530019466j, rel=1e-14)
    assert points[0] == pytest.approx(-1.0970382162947205 - 1.1845406057274843j, rel=1e-14)


def test_tiny_disk_radius_roundtrips(tmp_path):
    out = tmp_path / "tiny.json"
    assert cli.main(["certify", "--suite", "toeplitz", "--R", "1e-300", "-o", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["radius_roundtrip"]["measured"] == 0.0


@pytest.mark.parametrize("argv", [
    ["toeplitz", "--disk", "1e-5", "--n", "64"],     # lambda_49 is about 3e-315
    ["certify", "--suite", "toeplitz", "--R", "1e-158"],  # lambda_1 = R^2/2
])
def test_subnormal_disk_eigenvalues_converge(argv, tmp_path):
    assert cli.main(argv + ["-o", str(tmp_path / "out")]) == 0


def test_saturated_disk_roundtrip_is_exit_2(tmp_path, capsys):
    # lambda_0 rounds to 1 for R = 800: R is unrecoverable, so the check fails
    out = tmp_path / "big.json"
    rc = cli.main(["toeplitz", "--disk", "800", "--n", "3", "--format", "json",
                   "-o", str(out)])
    assert rc == 2
    assert "radius_roundtrip" in capsys.readouterr().err
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert float(checks["radius_roundtrip"]["measured"]) == math.inf


def _reject_constant(token):
    raise ValueError(f"bare {token} is not JSON")


@pytest.mark.parametrize("argv,name,value", [
    (["gram", "--system", "ncho", "--alpha", "1.5", "--n", "3"], "combined_gram_dev", "NaN"),
    (["toeplitz", "--disk", "800", "--format", "json"], "radius_roundtrip", "Infinity"),
], ids=["nan", "infinity"])
def test_non_finite_values_are_strict_json_strings(tmp_path, capsys, monkeypatch, argv, name,
                                                   value):
    # a strict parser reads the artifact; each non-finite float is a string
    # that float() reads back (the NaN is injected into the ncho Gram)
    _nan_cross_sign_entries(monkeypatch)
    out = tmp_path / "strict.json"
    assert cli.main([*argv, "-o", str(out)]) == 2
    capsys.readouterr()
    rep = json.loads(out.read_text(), parse_constant=_reject_constant)
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks[name]["measured"] == value
    assert not math.isfinite(float(checks[name]["measured"]))


# ------------------------------------------- the CLI renders suite results


# (command, the matching suite call, CLI check name -> suite check name)
@pytest.mark.parametrize("argv,suite_checks,names", [
    (["eigres", "--B", "3", "--C", "1+2i", "--h", "0.5", "--n", "5"],
     lambda: suites.suite_hermite(3, 1 + 2j, 0.5, n_res=5, n_gram=1),
     {f"eig_residual[n={k}]": f"eig_residual[n={k}]" for k in range(5)}),
    (["eigres", "--system", "ellipse", "--alpha", "0.5", "--beta", "3", "--n", "5"],
     lambda: suites.suite_ellipse(0.5, 3.0, 5),
     {f"eig_residual[n={k}]": f"H_residual[n={k}]" for k in range(5)}),
    (["ncho", "--alpha", "3", "--h", "0.5", "--n", "4"],
     lambda: suites.suite_ncho(3.0, 0.5, 4),
     {f"residual[sign={s},n={k}]": f"residual[sign={s},n={k}]"
      for k in range(4) for s in "+-"}),
    (["toeplitz", "--disk", "3", "--n", "6", "--format", "json"],
     lambda: suites.suite_toeplitz(3.0, 6),
     {**{f"series_vs_radial[n={k}]": f"series_vs_radial[n={k}]" for k in range(6)},
      "radius_roundtrip": "radius_roundtrip"}),
    (["ellipse", "--alpha", "2", "--beta", "1", "--n", "4", "--format", "json"],
     lambda: suites.suite_ellipse(2.0, 1.0, 4),
     {"constants_identity_dev": "constants_identity_dev",
      "psi_routes_dev": "psi_routes_dev[n<4]"}),
    (["gram", "--B=-0.7+0.2i", "--C", "0.3+0.8i", "--n", "4", "--method", "both"],
     lambda: suites.suite_hermite(-0.7 + 0.2j, 0.3 + 0.8j, 1.0, n_res=1, n_gram=4),
     {"gram_exact_dev": "gram_exact_dev[n<4]", "gram_quad_dev": "gram_quad_dev[n<4]"}),
    (["gram", "--system", "ellipse", "--alpha", "2", "--beta", "1", "--n", "3"],
     lambda: suites.suite_ellipse(2.0, 1.0, 3),
     {"gram_rel_dev": "psi_gram_rel_dev[n<3]"}),
    (["gram", "--system", "ncho", "--alpha", "3", "--h", "0.5", "--n", "3"],
     lambda: suites.suite_ncho(3.0, 0.5, 3),
     {"combined_gram_dev": "combined_gram_dev[n<3]"}),
], ids=["eigres-hermite", "eigres-ellipse", "ncho", "toeplitz", "ellipse",
        "gram-hermite", "gram-ellipse", "gram-ncho"])
def test_command_measures_what_its_suite_measures(tmp_path, argv, suite_checks, names):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "-o", str(out)]) == 0
    rendered = {c["name"]: c["measured"] for c in json.loads(out.read_text())["checks"]}
    computed = {c["name"]: c["measured"] for c in suite_checks()}
    assert set(rendered) == set(names)
    for name, suite_name in names.items():
        assert rendered[name] == computed[suite_name], name


def _cli_complex(z) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+}i"


def _battery_runs() -> list[tuple[str, list[str]]]:
    """(the battery's check prefix, the certify flags of the same suite call)
    for every reference set; hermite is left out, since the battery sizes its
    eigen-residuals (21) and Gram (16) apart and --n sizes both."""
    runs = [("gaussint", ["--suite", "gaussint"])]
    for B, C, h in suites.HERMITE_PARAM_SETS:
        runs.append((f"transform[B={suites._fmt_c(B)},C={suites._fmt_c(C)},h={h}]",
                     ["--suite", "transform", f"--B={_cli_complex(B)}",
                      f"--C={_cli_complex(C)}", f"--h={h!r}", "--seed", "2026"]))
    for alpha in suites.NCHO_ALPHAS:
        for h in suites.NCHO_PLANCKS:
            runs.append((f"ncho[alpha={alpha},h={h}]",
                         ["--suite", "ncho", f"--alpha={alpha!r}", f"--h={h!r}", "--n", "11"]))
    for suite in ("ellipse", "bridge"):
        for alpha, beta in suites.ELLIPSE_SETS:
            runs.append((f"{suite}[alpha={alpha},beta={beta}]",
                         ["--suite", suite, f"--alpha={alpha!r}", f"--beta={beta!r}",
                          "--n", "11"]))
    for R in suites.TOEPLITZ_RADII:
        runs.append((f"toeplitz[R={R}]", ["--suite", "toeplitz", f"--R={R!r}", "--n", "11"]))
    return runs


@pytest.fixture(scope="module")
def battery():
    return suites.suite_all(2026)


_BATTERY_RUNS = _battery_runs()


@pytest.mark.parametrize("prefix,argv", _BATTERY_RUNS, ids=[p for p, _ in _BATTERY_RUNS])
def test_certify_renders_the_battery_checks_of_its_suite(tmp_path, battery, prefix, argv):
    # the CLI and the battery call each suite the same way: the same check
    # names, and the same measured values bit for bit
    out = tmp_path / "report.json"
    assert cli.main(["certify", *argv, "-o", str(out)]) == 0
    rendered = [(c["name"], c["measured"].hex())
                for c in json.loads(out.read_text())["checks"]]
    want = [(c["name"].removeprefix(prefix + "::"), c["measured"].hex())
            for c in battery if c["name"].startswith(prefix + "::")]
    assert want and rendered == want


def test_transform_renders_the_closed_form_on_its_grid(tmp_path):
    rows, rep = tmp_path / "t.csv", tmp_path / "t.json"
    args = ["transform", "--B", "2", "--C", "0.5+1i", "--h", "0.5"]
    assert cli.main([*args, "-o", str(rows)]) == 0
    assert cli.main([*args, "--format", "json", "-o", str(rep)]) == 0
    lines = rows.read_text().splitlines()
    assert lines[0] == "re(node),im(node),weight,re(value),im(value)"
    assert len(lines) == 1 + 25_600
    hs = HermiteSystem.from_bch(2, 0.5 + 1j, 0.5)
    U = transform(hs.params, hs.hermite_phi(0))
    poly = json.loads(rep.read_text())["result"]["poly"]
    assert poly == [[c.real, c.imag] for c in U.poly.coeffs]


# -------------------------------------------------------------- determinism


def test_same_config_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["certify", "--suite", "transform", "--seed", "7"]
    assert cli.main(args + ["-o", str(a)]) == 0
    assert cli.main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_env_does_not_change_results():
    tasks = [("t%d" % k, (lambda k=k: [{"name": "c", "measured": float(k),
                                        "tolerance": 1.0, "pass": True}])) for k in range(6)]
    merged = suites._fan_out(tasks)
    assert merged == suites._fan_out(tasks)
    assert [c["measured"] for c in merged] == [float(k) for k in range(6)]  # task order
    assert [c["name"] for c in merged] == ["t%d::c" % k for k in range(6)]


def test_console_script_runs_end_to_end(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bargmann_lab.cli", "certify", "--suite",
         "gaussint", "-o", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(out.read_text())
    assert all(c["pass"] for c in rep["checks"])



def test_certifying_loads_no_numpy_random(tmp_path):
    # the transform suite draws from random.Random, so neither battery
    # imports numpy.random (and secrets and OpenSSL with it)
    out = str(tmp_path / "artifact")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bargmann_lab import cli; "
         "assert cli.main(['certify', '--suite', 'all', '-o', sys.argv[1]]) == 0; "
         "assert cli.main(['certify', '--suite', 'transform', '-o', sys.argv[1]]) == 0; "
         "sys.exit('numpy.random' in sys.modules)", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_no_scipy():
    # scipy's import costs most of a process's start-up; tests alone use it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bargmann_lab.cli; sys.exit(any("
         "m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------------ formats


def test_format_switch_overrides_default(tmp_path):
    out = tmp_path / "rows.json"
    rc = cli.main(["toeplitz", "--disk", "0.5", "--n", "3", "--format", "json",
                   "-o", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())  # would raise on CSV
    assert rep["command"] == "toeplitz"


def test_stdout_when_no_output_file(capsys):
    rc = cli.main(["certify", "--suite", "toeplitz", "--R", "1.0"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["suite"] == "toeplitz"


def test_ncho_report_shape(tmp_path):
    out = tmp_path / "ncho.json"
    rc = cli.main(["ncho", "--alpha", "2", "--n", "4", "-o", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["alpha"] == 2.0
    entry = rep["entries"][0]
    assert set(entry) >= {"sign", "n", "lambda", "residual"}
    assert entry["lambda"] == pytest.approx(math.sqrt(3) / 2, rel=1e-12)


# --------------------------------------------------------- streamed CSV


def _whole_grid_columns(p, U):
    """The transform's columns as they were once formed: over the whole
    grid, in one batch."""
    grid = hphi_grid(p, U, U)
    values = grid_values(U, grid)
    yield grid.nodes.real, grid.nodes.imag, grid.weights, values.real, values.imag


def _str_rendering(header, batches) -> str:
    """The CSV text of column ``batches``, row by row, as ``csv.writer``
    writes the Python values of each row: each field as ``str`` gives it, a
    str field that holds a comma or a quote in quotes, each quote doubled."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for columns in batches:
        writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    return out.getvalue()


def _reference_csv(argv, monkeypatch) -> bytes:
    """The artifact of ``argv`` rendered in one string, row by row with
    ``str``, from the whole-grid transform columns: the reference the
    streamed CSV must match byte for byte."""
    ns = cli.build_parser().parse_args(cli._merge_negative_values(argv))
    cfg = cli.RunConfig(**vars(ns))
    with monkeypatch.context() as m:
        m.setattr(cli, "_grid_rows", _whole_grid_columns)
        _, header, batches = cli._COMMANDS[cfg.command].render(cfg)
        return _str_rendering(header, batches).encode()


@pytest.mark.parametrize("argv,status", [
    (["transform", "--B=3", "--C=1+2i", "--h", "0.5"], 0),
    (["transform", "--h", "1e-300"], 2),  # its check measures NaN
    (["gram", "--system", "hermite", "--B=3", "--C=1+2i", "--h", "0.5", "--n", "5",
      "--format", "csv"], 0),
    (["gram", "--system", "ellipse", "--alpha", "2", "--beta", "1", "--n", "3",
      "--format", "csv"], 0),
    (["gram", "--system", "ncho", "--alpha", "2", "--h", "1", "--n", "4", "--format", "csv"], 0),
    (["gram", "--system", "ncho", "--alpha", "1.5", "--h", "5e-324", "--n", "3",
      "--format", "csv"], 2),  # every entry NaN
    (["eigres", "--system", "hermite", "--n", "8", "--format", "csv"], 0),
    (["eigres", "--system", "ellipse", "--alpha", "2", "--beta", "1", "--n", "8",
      "--format", "csv"], 0),
    (["ncho", "--alpha", "2", "--h", "1", "--n", "6", "--format", "csv"], 0),
    (["ellipse", "--alpha", "2", "--beta", "1", "--rho", "0.5", "--samples", "9000",
      "--format", "csv"], 0),  # three batches, the last one short
    (["toeplitz", "--disk", "1", "--n", "8"], 0),
    (["certify", "--suite", "ncho", "--format", "csv"], 0),
], ids=["transform", "transform-h-tiny", "gram-hermite", "gram-ellipse", "gram-ncho",
        "gram-ncho-nan", "eigres-hermite", "eigres-ellipse", "ncho", "ellipse", "toeplitz",
        "certify"])
def test_streamed_csv_is_the_one_string_rendering_byte_for_byte(
        tmp_path, capsys, monkeypatch, argv, status):
    out = tmp_path / "rows.csv"
    with np.errstate(all="ignore"):
        assert cli.main([*argv, "-o", str(out)]) == status
        expected = _reference_csv(argv, monkeypatch)
    capsys.readouterr()
    assert out.read_bytes() == expected


# the fields the column writer must render as str does: signed zeros, NaNs
# of both signs, infinities, the least subnormal, floats whose repr switches
# to and from exponent form, and a float with the longest repr
_FIELDS = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5,
           0.1, 1e22, -2.2250738585072014e-308]


class _Writes(io.StringIO):
    """A text stream that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("as_lists", [False, True], ids=["arrays", "lists"])
@pytest.mark.parametrize("rows", [1, cli._CSV_BATCH, cli._CSV_BATCH + 1])
def test_the_column_writer_renders_every_field_as_str_does(rows, as_lists):
    k = np.arange(rows)
    special = np.array(_FIELDS)[k % len(_FIELDS)]  # each repeated within a batch
    spread = 1 / 3 + 0.1 * k  # distinct values with all their digits
    spread[-2:] = 2.5  # one value on both sides of the batch boundary at 4,097 rows
    ints = k - 2048
    ints[0] = -(2**63)
    flags = k % 3 == 0
    names = np.array(["a", "bb", "\u03bb[n=3]", "", "a,b", 'say "hi"'])[k % 6]
    columns = (special, spread, ints, flags, names)
    if as_lists:
        columns = tuple(c.tolist() for c in columns)
    header = ("special", "spread", "int", "bool", "str")
    out = _Writes()
    cli._write_csv(out, header, cli._batches(*columns))
    assert out.getvalue() == _str_rendering(header, [columns])
    assert out.writes == 1 + -(-rows // cli._CSV_BATCH)  # the header, one per batch


def test_json_reports_build_no_csv_rows(tmp_path, monkeypatch):
    args = ["ellipse", "--alpha", "2", "--beta", "1", "--samples", "4096", "--format", "json"]
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert cli.main([*args, "-o", str(before)]) == 0
    def trace(*args):
        raise AssertionError("trace computed")

    def trace_rows(*args):
        yield trace()

    monkeypatch.setattr(cli, "ellipse_trace", trace_rows)
    assert cli.main([*args, "-o", str(after)]) == 0
    assert after.read_bytes() == before.read_bytes()
    # the other commands hand over their rows unbuilt too
    for argv in (["gram", "--n", "3"], ["eigres", "--n", "3"], ["ncho", "--n", "3"],
                 ["toeplitz", "--n", "3"], ["certify", "--suite", "gaussint"]):
        cfg = cli.RunConfig(**vars(cli.build_parser().parse_args(argv)))
        rows = cli._COMMANDS[cfg.command].render(cfg)[2]
        assert iter(rows) is rows, argv
    # transform fits the grid of its CSV rows only when they are written
    monkeypatch.setattr(cli, "hphi_grid", trace)
    assert cli.main(["transform", "--format", "json", "-o", str(tmp_path / "t.json")]) == 0


def _failing_after_one_batch(monkeypatch):
    batches_of = cli._grid_rows

    def failing(p, U):
        yield next(batches_of(p, U))
        raise gaussalg.DomainError("row source failed")

    monkeypatch.setattr(cli, "_grid_rows", failing)


TRANSFORM_CSV = ["transform", "--B=3", "--C=1+2i", "--h", "0.5", "--format", "csv"]


def test_a_row_source_failing_after_a_batch_leaves_no_file(tmp_path, capsys, monkeypatch):
    _failing_after_one_batch(monkeypatch)
    out = tmp_path / "rows.csv"
    assert cli.main([*TRANSFORM_CSV, "-o", str(out)]) == 1
    assert "error: row source failed" in capsys.readouterr().err
    assert not out.exists()
    # the same run to stdout: the first batch was written before the error
    assert cli.main(TRANSFORM_CSV) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + cli._CSV_BATCH


@pytest.mark.skipif(not os.path.exists(os.devnull) or os.devnull != "/dev/null",
                    reason="needs a POSIX /dev/null")
def test_a_failing_command_leaves_dev_null_in_place(capsys, monkeypatch):
    assert cli.main([*TRANSFORM_CSV, "-o", os.devnull]) == 0
    _failing_after_one_batch(monkeypatch)
    assert cli.main([*TRANSFORM_CSV, "-o", os.devnull]) == 1
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    capsys.readouterr()


def test_transform_csv_is_written_without_the_whole_artifact_in_memory(tmp_path):
    # the 25,600-row artifact is ~2.5 MB; held whole, with its rows, the
    # peak of the traced allocations was above 7 MB
    argv = [*TRANSFORM_CSV, "-o", str(tmp_path / "rows.csv")]
    assert cli.main(argv) == 0  # warm-up: Gauss rules, imports
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, peak


def test_gram_csv_is_written_within_its_memory_bound(tmp_path):
    # the degree-64 Gram matrix is one 4,096-row batch; rendered row by row
    # its traced peak was 1.20 MB, and with a new str per field 2.54 MB
    argv = ["gram", "--system", "hermite", "--method", "quadrature", "--n", "64",
            "--format", "csv", "-o", str(tmp_path / "gram.csv")]
    assert cli.main(argv) == 0  # warm-up: Gauss rules, imports
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3e6, peak


def test_ellipse_csv_is_written_without_the_whole_trace_in_memory(tmp_path):
    # one 4,096-row batch of text is about 0.16 MB; the 200,000-row trace,
    # held whole as a list of rows, peaked at 23 MB of traced allocations
    out = tmp_path / "trace.csv"
    argv = ["ellipse", "--alpha", "2", "--beta", "1", "--samples", "200000", "--format", "csv"]
    tracemalloc.start()
    try:
        assert cli.main([*argv, "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, peak
    batches = ellipse.ellipse_trace(ellipse.derived_constants(2.0, 1.0), 1.0, 200000)
    text = "x,xi\n" + "".join(
        f"{x!s},{xi!s}\n" for xs, xis in batches for x, xi in zip(xs.tolist(), xis.tolist())
    )
    assert out.read_bytes() == text.encode()


def test_certify_all_csv_reads_back_with_the_json_names(tmp_path):
    # check names such as transform[B=-i,C=i,h=1.0]::... hold commas: the
    # CSV quotes them, so a CSV reader finds each row's four fields
    rows, rep = tmp_path / "all.csv", tmp_path / "all.json"
    assert cli.main(["certify", "--suite", "all", "--format", "csv", "-o", str(rows)]) == 0
    assert cli.main(["certify", "--suite", "all", "-o", str(rep)]) == 0
    with rows.open(newline="") as fh:
        reader = csv.DictReader(fh)
        read = list(reader)
    assert reader.fieldnames == ["name", "measured", "tolerance", "pass"]
    assert len(read) == 411
    assert all(len(r) == 4 and None not in r for r in read)
    assert [r["name"] for r in read] == [c["name"] for c in json.loads(rep.read_text())["checks"]]
    assert any("," in r["name"] for r in read)


def test_ellipse_trace_where_beta_x_alone_overflows_writes_the_finite_xi(tmp_path):
    # at alpha 1, beta -2 and rho 1.5e308, beta x overflows at theta = pi/4
    # and 5 pi/4, where xi = -(rho sin(theta) + beta x) is finite; each row
    # against exact rational arithmetic on the trace's float inputs, within
    # 2 eps of the sizes of its two terms (xi was once written as inf there)
    out = tmp_path / "trace.csv"
    argv = ["ellipse", "--alpha", "1", "--beta=-2", "--rho", "1.5e308", "--samples", "8",
            "--format", "csv", "-o", str(out)]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "1.0606601717798214e+308,1.0606601717798216e+308"  # theta = pi/4
    F, top = fractions.Fraction, fractions.Fraction(sys.float_info.max)
    eps = F(np.finfo(float).eps)
    for k, line in enumerate(lines[1:]):
        x, xi = map(float, line.split(","))
        rho_sin = F(1.5e308) * F(float(np.sin(2 * np.pi * k / 8)))
        exact = -(rho_sin + F(-2.0) * F(x))
        if abs(exact) > top:
            assert xi == (math.inf if exact > 0 else -math.inf), k
        else:
            assert abs(F(xi) - exact) <= 2 * eps * (abs(rho_sin) + 2 * abs(F(x))), k
    assert sum(map(math.isfinite, (float(line.split(",")[1]) for line in lines[1:]))) == 4


def test_ellipse_trace_at_a_huge_level_overflows_only_where_a_coordinate_does(tmp_path):
    # at rho = 1e308, x = rho cos(theta)/alpha overflows at theta = 0 and pi;
    # the trace once formed through complex products wrote nan on every row
    out = tmp_path / "trace.csv"
    argv = ["ellipse", "--alpha", "0.5", "--beta", "3", "--rho", "1e308", "--samples", "8",
            "--format", "csv", "-o", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    with out.open(newline="") as fh:
        rows = [(float(r["x"]), float(r["xi"])) for r in csv.DictReader(fh)]
    assert len(rows) == 8
    assert not any(map(math.isnan, (v for row in rows for v in row)))
    assert [math.isfinite(x) for x, _ in rows] == [False, *[True] * 3, False, *[True] * 3]
    x, xi = rows[2]  # theta = pi/2
    assert math.isfinite(xi) and xi == pytest.approx(-1e308, rel=1e-15)
    assert x == pytest.approx(1e308 * math.cos(math.pi / 2) / 0.5, rel=1e-15)
