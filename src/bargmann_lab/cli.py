"""Command-line front end: certification suites and plot-ready data files.

Commands
--------
gram
    Gram matrix of an orthonormal family (generalized Hermite, ellipse, or
    two-component), with deviation checks.
eigres
    Eigen-residual report for the second-order operator of a family.
transform
    Closed-form transform of the ground state, sampled on its quadrature
    grid (CSV: ``re(node), im(node), weight, re(value), im(value)``).
ncho
    Two-component spectrum report (both signs, residuals).
ellipse
    Derived constants and identity checks; CSV gives boundary samples of
    the elliptic disk.
toeplitz
    Localization eigenvalues of the disk symbol: series vs. radial
    quadrature (CSV: ``n, lambda_formula, lambda_quadrature, abs_diff``).
certify
    Run a named certification suite; JSON report
    ``{"suite":, "params":, "checks": [{"name","measured","tolerance","pass"}]}``.

Exit status: 0 when every check meets its tolerance, 2 on a tolerance
violation (each failure is reported on stderr with the measured value),
1 on usage or domain errors.

Complex flag values are written ``a+bi`` (``--C 1+2i``, ``--B=-i``); a lone
``-i`` after a flag is accepted too.  JSON output encodes complex scalars as
``[re, im]`` pairs.  Reports are deterministic: the same invocation produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import re
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .gaussalg import DEGREE_CAP, DomainError, coeff_deviation, relative_residual
from .phasecore import params_to_dict
from .bargmann import grid_values, hphi_grid, inner_product_HPhi, transform, transform_quad
from .hermite import HermiteSystem, gram_deviation
from .ncho import NchoParams, combined_gram, spectrum_check
from .ellipse import (
    Psi_n,
    bridge_params,
    derived_constants,
    ellipse_trace,
    ladder_diffops,
    psi_n,
    psi_n_ladder,
)
from .toeplitz import radius_roundtrip_error, spectrum_rows
from . import suites

__all__ = ["RunConfig", "main", "run", "parse_complex"]


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` complex literals (also accepts ``j`` and bare ``i``)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    s = s.replace("I", "i").replace("J", "i").replace("j", "i")
    s = s.replace("i", "j")
    s = re.sub(r"(?<![0-9.])j", "1j", s)
    return complex(s)


def _cpair(z: complex) -> list[float]:
    """JSON form of a complex scalar: [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


# Flags whose values may start with "-" (complex literals, negative reals).
_NEGATIVE_VALUE_FLAGS = {"--B", "--C", "--beta"}


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--B -i`` to ``--B=-i`` so argparse keeps the value."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _NEGATIVE_VALUE_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if len(nxt) >= 2 and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] in ".i"):
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation."""

    command: str
    system: str = "hermite"
    suite: str = "all"
    B: complex = -1j
    C: complex = 1j
    h: float = 1.0
    alpha: float = 2.0
    beta: float = 0.0
    R: float = 1.0
    n: int = 12
    rho: float = 1.0
    samples: int = 256
    seed: int = 2026
    method: str = "both"
    output: str | None = None
    format: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n <= DEGREE_CAP:
            raise DomainError(f"n = {self.n} must be in 1..{DEGREE_CAP}")
        r_flag = "--disk" if self.command == "toeplitz" else "--R"
        for flag, value in (
            ("--B", self.B), ("--C", self.C), ("--h", self.h), ("--alpha", self.alpha),
            ("--beta", self.beta), (r_flag, self.R), ("--rho", self.rho),
        ):
            if not cmath.isfinite(value):
                raise DomainError(f"{flag} = {value} must be finite")
        for flag, value in (("--h", self.h), (r_flag, self.R), ("--rho", self.rho)):
            if not value > 0:
                raise DomainError(f"{flag} = {value} must be positive")
        if self.samples < 1:
            raise DomainError(f"--samples = {self.samples} must be >= 1")


def _add_phase_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--B", type=parse_complex, default=-1j, help="phase parameter B (a+bi, nonzero)")
    p.add_argument("--C", type=parse_complex, default=1j, help="phase parameter C (a+bi, Im C > 0)")
    p.add_argument("--h", type=float, default=1.0, help="scale parameter h > 0")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=None, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bargmann-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="Gram matrix with deviation checks")
    p.add_argument("--system", choices=("hermite", "ellipse", "ncho"), default="hermite")
    _add_phase_flags(p)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--n", type=int, default=12, help="number of basis indices")
    p.add_argument("--method", choices=("exact", "quadrature", "both"), default="both")
    _add_output_flags(p)

    p = sub.add_parser("eigres", help="eigen-residual report")
    p.add_argument("--system", choices=("hermite", "ellipse"), default="hermite")
    _add_phase_flags(p)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--n", type=int, default=12)
    _add_output_flags(p)

    p = sub.add_parser("transform", help="transform of the ground state on its grid")
    _add_phase_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("ncho", help="two-component spectrum report")
    p.add_argument("--alpha", type=float, default=2.0, help="coupling alpha > 1")
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--n", type=int, default=12)
    _add_output_flags(p)

    p = sub.add_parser("ellipse", help="derived constants / boundary trace")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=1.0, help="boundary level |zeta| = rho")
    p.add_argument("--samples", type=int, default=256, help="trace sample count")
    p.add_argument("--n", type=int, default=6)
    _add_output_flags(p)

    p = sub.add_parser("toeplitz", help="localization eigenvalues of a disk symbol")
    p.add_argument("--disk", type=float, default=1.0, metavar="R", help="disk series parameter R > 0")
    p.add_argument("--n", type=int, default=12, help="number of eigenvalues")
    _add_output_flags(p)

    p = sub.add_parser("certify", help="run a named certification suite")
    p.add_argument(
        "--suite",
        choices=("all", "gaussint", "hermite", "transform", "ncho", "ellipse", "bridge", "toeplitz"),
        default="all",
    )
    _add_phase_flags(p)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--seed", type=int, default=2026)
    _add_output_flags(p)

    return parser


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    kwargs = {"command": ns.command}
    for name in (
        "system", "suite", "B", "C", "h", "alpha", "beta", "R", "n",
        "rho", "samples", "seed", "method", "output", "format",
    ):
        if hasattr(ns, name) and getattr(ns, name) is not None:
            kwargs[name] = getattr(ns, name)
    if ns.command == "toeplitz":
        kwargs["R"] = ns.disk
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# command implementations: each returns (report, csv_header, csv_rows)
# ---------------------------------------------------------------------------

_CheckList = list[dict]


def _matrix_json(G) -> list[list[list[float]]]:
    return [[_cpair(G[i][j]) for j in range(len(G[i]))] for i in range(len(G))]


def _cmd_gram(cfg: RunConfig):
    checks: _CheckList = []
    if cfg.system == "hermite":
        sys_ = HermiteSystem.from_bch(cfg.B, cfg.C, cfg.h)
        params = params_to_dict(sys_.params)
        G = None
        if cfg.method in ("exact", "both"):
            G = sys_.gram_matrix(cfg.n, method="exact")
            checks.append(suites.check("gram_exact_dev", gram_deviation(G), suites.TOL_ALGEBRA))
        if cfg.method in ("quadrature", "both"):
            Gq = sys_.gram_matrix(cfg.n, method="quadrature")
            checks.append(suites.check("gram_quad_dev", gram_deviation(Gq), suites.TOL_GRAM_QUAD))
            if G is None:
                G = Gq
        matrix = [[G[i, j] for j in range(cfg.n)] for i in range(cfg.n)]
        extra = {}
    elif cfg.system == "ellipse":
        params = {"alpha": cfg.alpha, "beta": cfg.beta}
        matrix, diag, dev = suites.ellipse_gram(cfg.alpha, cfg.beta, cfg.n)
        checks.append(suites.check("gram_rel_dev", dev, suites.TOL_NORM_REL))
        extra = {"closed_form_diagonal": diag}
    else:  # ncho
        params = {"alpha": cfg.alpha, "h": cfg.h}
        matrix, dev = combined_gram(NchoParams(cfg.alpha, cfg.h), cfg.n)
        checks.append(suites.check("combined_gram_dev", dev, suites.TOL_ALGEBRA))
        extra = {}

    report = {
        "command": "gram",
        "system": cfg.system,
        "params": params,
        "n": cfg.n,
        "matrix": _matrix_json(matrix),
        **extra,
        "checks": checks,
    }
    rows = [
        (i, j, matrix[i][j].real, matrix[i][j].imag)
        for i in range(len(matrix))
        for j in range(len(matrix))
    ]
    return report, ("m", "n", "re", "im"), rows


def _cmd_eigres(cfg: RunConfig):
    entries = []
    checks: _CheckList = []
    if cfg.system == "hermite":
        sys_ = HermiteSystem.from_bch(cfg.B, cfg.C, cfg.h)
        params = params_to_dict(sys_.params)
        for k in range(cfg.n):
            entries.append(
                {"n": k, "eigenvalue": sys_.eigenvalue(k), "residual": sys_.eigen_residual(k)}
            )
    else:
        p = derived_constants(cfg.alpha, cfg.beta)
        params = {"alpha": cfg.alpha, "beta": cfg.beta}
        _, _, H = ladder_diffops(p)
        for k in range(cfg.n):
            mu = p.eigen_gap * (2 * k + 1)
            res = relative_residual(H, Psi_n(p, k), mu)
            entries.append({"n": k, "eigenvalue": mu, "residual": res})
    for e in entries:
        checks.append(
            suites.check(f"eig_residual[n={e['n']}]", e["residual"], suites.TOL_ALGEBRA)
        )
    report = {
        "command": "eigres",
        "system": cfg.system,
        "params": params,
        "entries": entries,
        "checks": checks,
    }
    rows = [(e["n"], e["eigenvalue"], e["residual"]) for e in entries]
    return report, ("n", "eigenvalue", "residual"), rows


def _cmd_transform(cfg: RunConfig):
    sys_ = HermiteSystem.from_bch(cfg.B, cfg.C, cfg.h)
    p = sys_.params
    f0 = sys_.hermite_phi(0)
    U = transform(p, f0)
    grid = hphi_grid(p, U, U)
    values = grid_values(U, grid)

    checks: _CheckList = []
    dev = max(
        abs(U(z) - transform_quad(p, f0, z)) for z in (0.3 + 0.1j, -0.8 + 0.5j, 1.1 - 0.9j)
    )
    checks.append(suites.check("closed_vs_quad", dev, suites.TOL_TRANSFORM_QUAD))
    norm_sq = inner_product_HPhi(p, U, U, grid=grid)
    checks.append(
        suites.check("unitarity_ground_state", abs(norm_sq - 1.0), suites.TOL_UNITARITY)
    )

    report = {
        "command": "transform",
        "params": params_to_dict(p),
        "result": {
            "c2": _cpair(U.c2),
            "c1": _cpair(U.c1),
            "poly": [_cpair(c) for c in U.poly.coeffs],
        },
        "checks": checks,
    }
    rows = [
        (z.real, z.imag, w, v.real, v.imag)
        for z, w, v in zip(grid.nodes.tolist(), grid.weights.tolist(), values.tolist())
    ]
    return report, ("re(node)", "im(node)", "weight", "re(value)", "im(value)"), rows


def _cmd_ncho(cfg: RunConfig):
    p = NchoParams(cfg.alpha, cfg.h)
    entries = spectrum_check(p, cfg.n)
    checks = [
        suites.check(
            f"residual[sign={e['sign']},n={e['n']}]", e["residual"], suites.TOL_ALGEBRA
        )
        for e in entries
    ]
    report = {
        "command": "ncho",
        "alpha": cfg.alpha,
        "h": cfg.h,
        "entries": entries,
        "checks": checks,
    }
    rows = [(e["sign"], e["n"], e["lambda"], e["residual"]) for e in entries]
    return report, ("sign", "n", "lambda", "residual"), rows


def _cmd_ellipse(cfg: RunConfig):
    p = derived_constants(cfg.alpha, cfg.beta)
    bp = bridge_params(p)
    checks: _CheckList = [
        suites.check(
            "constants_identity_dev",
            abs(p.a + 2 * p.lam - 1 / p.a.conjugate()),
            suites.TOL_IDENTITY,
        )
    ]
    dev = max(
        coeff_deviation(psi_n(p, k).poly, psi_n_ladder(p, k).poly) for k in range(cfg.n)
    )
    checks.append(suites.check("psi_routes_dev", dev, suites.TOL_IDENTITY))

    report = {
        "command": "ellipse",
        "params": {"alpha": cfg.alpha, "beta": cfg.beta},
        "constants": {
            "a": _cpair(p.a),
            "lam": _cpair(p.lam),
            "C_ab": _cpair(p.C_ab),
            "A_ab": _cpair(p.A_ab),
            "w": _cpair(p.w_exponent),
            "norm_psi0_sq": p.norm_psi0_sq,
            "eigen_gap": p.eigen_gap,
        },
        "bridge": params_to_dict(bp),
        "checks": checks,
    }
    rows = ellipse_trace(p, cfg.rho, cfg.samples)
    return report, ("x", "xi"), rows


def _cmd_toeplitz(cfg: RunConfig):
    entries = spectrum_rows(cfg.R, cfg.n)
    checks = [
        suites.check(
            f"series_vs_radial[n={e['n']}]", e["abs_diff"], suites.TOL_TOEPLITZ_SERIES
        )
        for e in entries
    ]
    checks.append(
        suites.check("radius_roundtrip", radius_roundtrip_error(cfg.R), suites.TOL_ROUNDTRIP)
    )
    report = {"command": "toeplitz", "R": cfg.R, "entries": entries, "checks": checks}
    rows = [
        (e["n"], e["lambda_formula"], e["lambda_quadrature"], e["abs_diff"])
        for e in entries
    ]
    return report, ("n", "lambda_formula", "lambda_quadrature", "abs_diff"), rows


def _cmd_certify(cfg: RunConfig):
    phase = {"B": _cpair(cfg.B), "C": _cpair(cfg.C), "h": cfg.h}
    if cfg.suite == "all":
        params = {"seed": cfg.seed}
        checks = suites.suite_all(seed=cfg.seed)
    elif cfg.suite == "gaussint":
        params = {}
        checks = suites.suite_gaussint()
    elif cfg.suite == "hermite":
        params = {**phase, "n": cfg.n}
        checks = suites.suite_hermite(cfg.B, cfg.C, cfg.h, n_res=cfg.n, n_gram=cfg.n)
    elif cfg.suite == "transform":
        params = {**phase, "pairs": 20, "points": 10, "seed": cfg.seed}
        checks = suites.suite_transform(cfg.B, cfg.C, cfg.h, seed=cfg.seed)
    elif cfg.suite == "ncho":
        params = {"alpha": cfg.alpha, "h": cfg.h, "n": cfg.n}
        checks = suites.suite_ncho(cfg.alpha, cfg.h, n_res=cfg.n, n_gram=min(cfg.n, 9))
    elif cfg.suite == "ellipse":
        params = {"alpha": cfg.alpha, "beta": cfg.beta, "n": cfg.n}
        checks = suites.suite_ellipse(
            cfg.alpha, cfg.beta, n_eig=cfg.n, n_gram=min(cfg.n, 7)
        )
    elif cfg.suite == "bridge":
        params = {"alpha": cfg.alpha, "beta": cfg.beta, "n": cfg.n}
        checks = suites.suite_bridge(cfg.alpha, cfg.beta, n_max=cfg.n)
    else:  # toeplitz
        params = {"R": cfg.R, "n": cfg.n}
        checks = suites.suite_toeplitz(cfg.R, n_max=cfg.n, n_matrix=min(cfg.n, 7))
    report = {"suite": cfg.suite, "params": params, "checks": checks}
    rows = [(c["name"], c["measured"], c["tolerance"], c["pass"]) for c in checks]
    return report, ("name", "measured", "tolerance", "pass"), rows


_COMMANDS: dict[str, Callable[[RunConfig], tuple]] = {
    "gram": _cmd_gram,
    "eigres": _cmd_eigres,
    "transform": _cmd_transform,
    "ncho": _cmd_ncho,
    "ellipse": _cmd_ellipse,
    "toeplitz": _cmd_toeplitz,
    "certify": _cmd_certify,
}

# Commands whose natural artifact is tabular data.
_CSV_DEFAULT = {"transform", "toeplitz"}


# ---------------------------------------------------------------------------
# rendering and entry points
# ---------------------------------------------------------------------------


def _render_csv(header: tuple, rows: list[tuple]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(x) for x in row) + "\n")
    return buf.getvalue()


def run(cfg: RunConfig) -> int:
    """Execute one configuration; write the artifact; return the exit status."""
    report, header, rows = _COMMANDS[cfg.command](cfg)
    fmt = cfg.format or ("csv" if cfg.command in _CSV_DEFAULT else "json")
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = _render_csv(header, rows)
    if cfg.output:
        with open(cfg.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    failures = [c for c in report["checks"] if not c["pass"]]
    for c in failures:
        print(
            f"FAIL {c['name']}: measured {c['measured']:.6e} exceeds "
            f"tolerance {c['tolerance']:.1e}",
            file=sys.stderr,
        )
    return 2 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(_merge_negative_values(raw))
    except SystemExit as exc:
        # argparse exits itself on usage errors (status 1 via _Parser) and
        # on --help (status 0); surface the status to embedders as a return
        return int(exc.code or 0)
    try:
        cfg = _config_from_namespace(ns)
        return run(cfg)
    except (DomainError, OSError) as exc:
        # DegenerateEllipseError lands here too, message carrying the
        # classic-parameter hint.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
