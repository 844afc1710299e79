"""Command-line surface: flag parsing, artifacts, exit statuses, determinism."""

import csv
import json
import math
import subprocess
import sys

import pytest

from bargmann_lab import cli, suites


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
    rows = list(csv.DictReader(out.open()))
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
], ids=["h", "alpha", "beta", "disk", "R", "rho", "B", "C", "samples-5", "samples0",
        "h0", "ncho-h-1", "disk0", "R-2", "rho0", "rho-1"])
def test_bad_flag_is_rejected_at_the_boundary(tmp_path, capsys, argv, flag):
    out = tmp_path / "artifact"
    assert cli.main([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} = ")
    assert not out.exists()


def test_degenerate_ellipse_is_exit_1(capsys):
    assert cli.main(["ellipse", "--alpha", "1", "--beta", "0"]) == 1
    capsys.readouterr()


def test_tolerance_violation_is_exit_2(tmp_path, capsys):
    # past the float64 cancellation floor the residuals blow up honestly
    out = tmp_path / "deep.json"
    rc = cli.main(["certify", "--suite", "hermite", "--n", "40", "-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "FAIL" in err
    # every failure line names the violated check and the measured value
    assert "eig_residual" in err and "exceeds tolerance" in err
    rep = json.loads(out.read_text())
    assert any(not c["pass"] for c in rep["checks"])


@pytest.mark.parametrize("args", [
    ["--n", "64"],
    ["--alpha", "0.5", "--beta", "3", "--n", "40"],
], ids=["n64", "alpha0.5-beta3-n40"])
def test_unevaluable_ellipse_residual_is_exit_2(tmp_path, capsys, args):
    # past the cancellation floor the residual cannot be evaluated: reported as inf
    out = tmp_path / "ell.json"
    assert cli.main(["certify", "--suite", "ellipse", *args, "-o", str(out)]) == 2
    capsys.readouterr()
    checks = json.loads(out.read_text())["checks"]
    assert any(c["name"].startswith("H_residual") and c["measured"] == math.inf
               for c in checks)


@pytest.mark.parametrize("args", [
    ["ncho", "--n", "40"],
    ["certify", "--suite", "ncho", "--n", "41"],
    ["ncho", "--n", "64"],
], ids=["ncho-n40", "certify-n41", "ncho-n64-degree-cap"])
def test_unevaluable_ncho_residual_is_exit_2(tmp_path, capsys, args):
    # ||Phi_39|| evaluates to zero, and Q Phi_63 would pass the degree cap
    out = tmp_path / "ncho.json"
    assert cli.main([*args, "-o", str(out)]) == 2
    capsys.readouterr()
    checks = json.loads(out.read_text())["checks"]
    assert any(c["name"].startswith("residual") and c["measured"] == math.inf
               for c in checks)


def test_tiny_disk_radius_roundtrips(tmp_path):
    out = tmp_path / "tiny.json"
    assert cli.main(["certify", "--suite", "toeplitz", "--R", "1e-300", "-o", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["radius_roundtrip"]["measured"] == 0.0


def test_saturated_disk_roundtrip_is_exit_2(tmp_path, capsys):
    # lambda_0 rounds to 1 for R = 800: R is unrecoverable, so the check fails
    out = tmp_path / "big.json"
    rc = cli.main(["toeplitz", "--disk", "800", "--n", "3", "--format", "json",
                   "-o", str(out)])
    assert rc == 2
    assert "radius_roundtrip" in capsys.readouterr().err
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["radius_roundtrip"]["measured"] == math.inf


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
