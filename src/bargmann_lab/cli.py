"""Command-line front end: certification suites and plot-ready data files.

Every check is computed in :mod:`bargmann_lab.suites`; a command renders what
those functions return.  Each command is one entry of the table ``_COMMANDS``,
each flag one entry of ``_FLAGS``, and the defaults are those of RunConfig.

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
    Derived constants and identity checks; CSV gives samples (x, xi) of
    alpha^2 x^2 + (beta x + xi)^2 = rho^2, the preimage of |zeta| = rho
    (4 x^2 + xi^2 = rho^2 at (2, 0)), not a Wigner level set.
toeplitz
    Localization eigenvalues of the disk symbol: series vs. radial
    quadrature (CSV: ``n, lambda_formula, lambda_quadrature, abs_diff``).
certify
    Run a named certification suite; JSON report
    ``{"suite":, "params":, "checks": [{"name","measured","tolerance","pass"}]}``.

Exit status: 0 when every check meets its tolerance, 2 on a tolerance
violation (each failure is reported on stderr with the measured value),
1 on usage or domain errors, such as a non-finite or out-of-range flag (a
negative ``--seed`` too) or a parameter whose square overflows.

Complex flag values are written ``a+bi`` (``--C 1+2i``, ``--B=-i``).  A
value that starts with "-" may also follow its flag as the next argument
(``--B -i``, ``--h -1e-3``) wherever the flag's type reads it.  JSON output
encodes complex scalars as ``[re, im]`` pairs, and a non-finite number as
the string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``.  Reports are deterministic: the same
invocation produces byte-identical output.

Every CSV artifact, ``ellipse``'s boundary trace included, is written as its
rows are computed, in batches of at most ``_CSV_BATCH`` rows, so no artifact
is held in memory whole; ``transform`` computes its rows one batch of grid
nodes at a time.  Each command hands the writer its batches as columns, and
each batch is formatted column by column: every distinct value of a column
(a float's by its bit pattern) is formatted once, with ``repr``, the text
``str`` gives, and a text field quoted where RFC 4180 asks.  A command that
fails while writing its artifact to ``-o`` removes the partly written file:
a failed command leaves no artifact.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import os
import re
import stat
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .gaussalg import DEGREE_CAP, DomainError
from .phasecore import params_to_dict
from .bargmann import hphi_grid, inner_product_HPhi, transform
from .hermite import HermiteSystem
from .ncho import NchoParams, combined_gram
from .ellipse import bridge_params, derived_constants, ellipse_trace
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


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--B -i`` to ``--B=-i`` and ``--h -1e-3`` to ``--h=-1e-3`` so
    argparse keeps the value: a token that starts with "-" joins the flag
    before it where that flag's own ``_FLAGS`` type parses it, so ``--B -h``
    and ``--B -o`` stay flags."""
    out: list[str] = []
    for tok in argv:
        if out and tok.startswith("-") and _parses(out[-1], tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _parses(flag: str, text: str) -> bool:
    """Whether ``text`` is a value of ``flag`` by its ``_FLAGS`` type."""
    parse = _FLAGS.get(flag, {}).get("type")
    if parse is None:
        return False
    try:
        parse(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation; its field defaults are the flag defaults."""

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
            raise DomainError(f"--n = {self.n} must be in 1..{DEGREE_CAP}")
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
        if self.seed < 0:
            raise DomainError(f"--seed = {self.seed} must be >= 0")


# ---------------------------------------------------------------------------
# command implementations: each returns (report, csv_header, csv_batches);
# the batches are a generator, run only when CSV is written
# ---------------------------------------------------------------------------


#: Rows per batch, and so per write, of a CSV artifact: bounds what is held
#: at once.
_CSV_BATCH = 4096


def _batches(*columns) -> Iterator[tuple]:
    """The (equal-length) ``columns`` cut into batches of at most
    :data:`_CSV_BATCH` rows."""
    for start in range(0, len(columns[0]), _CSV_BATCH):
        yield tuple(c[start : start + _CSV_BATCH] for c in columns)


def _entry_batches(entries: list[dict]) -> Iterator[tuple]:
    """Column batches of (same-keyed) entries: one list per key."""
    yield from _batches(*([e[k] for e in entries] for k in entries[0]))


def _entries_report(command: str, head: dict, entries: list[dict], checks: list[dict]):
    """Report of a command whose CSV rows are its (same-keyed) entries."""
    report = {"command": command, **head, "entries": entries, "checks": checks}
    return report, tuple(entries[0]), _entry_batches(entries)


def _cmd_gram(cfg: RunConfig):
    extra = {}
    if cfg.system == "hermite":
        sys_ = HermiteSystem.from_bch(cfg.B, cfg.C, cfg.h)
        params = params_to_dict(sys_.params)
        methods = ("exact", "quadrature") if cfg.method == "both" else (cfg.method,)
        G, checks = suites.hermite_gram_checks(sys_, cfg.n, methods)
    elif cfg.system == "ellipse":
        params = {"alpha": cfg.alpha, "beta": cfg.beta}
        G, diag, dev = suites.ellipse_gram(cfg.alpha, cfg.beta, cfg.n)
        checks = [suites.check("gram_rel_dev", dev, suites.TOL_NORM_REL)]
        extra = {"closed_form_diagonal": diag}
    else:  # ncho
        params = {"alpha": cfg.alpha, "h": cfg.h}
        G, dev = combined_gram(NchoParams(cfg.alpha, cfg.h), cfg.n)
        checks = [suites.check("combined_gram_dev", dev, suites.TOL_ALGEBRA)]

    G = np.asarray(G, dtype=complex)
    report = {
        "command": "gram",
        "system": cfg.system,
        "params": params,
        "n": cfg.n,
        "matrix": G,
        **extra,
        "checks": checks,
    }
    return report, ("m", "n", "re", "im"), _matrix_batches(G)


def _matrix_batches(G: np.ndarray) -> Iterator[tuple]:
    """Column batches of a complex matrix: row and column index, re, im."""
    m, n = np.indices(G.shape, dtype=np.int32).reshape(2, -1)
    z = G.reshape(-1)
    yield from _batches(m, n, z.real, z.imag)


def _cmd_eigres(cfg: RunConfig):
    if cfg.system == "hermite":
        sys_ = HermiteSystem.from_bch(cfg.B, cfg.C, cfg.h)
        params = params_to_dict(sys_.params)
        entries, checks = suites.hermite_eigen_checks(sys_, cfg.n)
    else:
        p = derived_constants(cfg.alpha, cfg.beta)
        params = {"alpha": cfg.alpha, "beta": cfg.beta}
        entries, checks = suites.ellipse_eigen_checks(p, cfg.n, "eig_residual")
    return _entries_report("eigres", {"system": cfg.system, "params": params}, entries, checks)


def _cmd_transform(cfg: RunConfig):
    sys_ = HermiteSystem.from_bch(cfg.B, cfg.C, cfg.h)
    p = sys_.params
    f0 = sys_.hermite_phi(0)
    U = transform(p, f0)
    dev = suites.closed_vs_quad_dev(p, f0, U)
    norm_sq = inner_product_HPhi(p, U, U)
    checks = [
        suites.check("closed_vs_quad", dev, suites.TOL_TRANSFORM_QUAD),
        suites.check("unitarity_ground_state", abs(norm_sq - 1.0), suites.TOL_UNITARITY),
    ]
    report = {
        "command": "transform",
        "params": params_to_dict(p),
        "result": {
            "c2": U.c2,
            "c1": U.c1,
            "poly": U.poly.coeffs,
        },
        "checks": checks,
    }
    header = ("re(node)", "im(node)", "weight", "re(value)", "im(value)")
    return report, header, _grid_rows(p, U)


def _grid_rows(p, U):
    """U's values on its grid (:func:`~bargmann_lab.bargmann.hphi_grid`) as
    column batches, one :data:`_CSV_BATCH` slice of nodes at a time; the
    grid is fitted when the batches are first iterated."""
    for _, nodes, weights, _ in hphi_grid(p, U, U).chunks(_CSV_BATCH):
        values = U(nodes)
        yield nodes.real, nodes.imag, weights, values.real, values.imag


def _cmd_ncho(cfg: RunConfig):
    entries, checks = suites.ncho_residual_checks(NchoParams(cfg.alpha, cfg.h), cfg.n)
    return _entries_report("ncho", {"alpha": cfg.alpha, "h": cfg.h}, entries, checks)


def _cmd_ellipse(cfg: RunConfig):
    p = derived_constants(cfg.alpha, cfg.beta)
    report = {
        "command": "ellipse",
        "params": {"alpha": cfg.alpha, "beta": cfg.beta},
        "constants": {
            "a": p.a,
            "lam": p.lam,
            "C_ab": p.C_ab,
            "A_ab": p.A_ab,
            "w": p.w_exponent,
            "norm_psi0_sq": p.norm_psi0_sq,
            "eigen_gap": p.eigen_gap,
        },
        "bridge": params_to_dict(bridge_params(p)),
        "checks": suites.ellipse_route_checks(p, cfg.n),
    }
    trace = ellipse_trace(p, cfg.rho, cfg.samples)  # re-cut to the CSV batch bound
    return report, ("x", "xi"), (part for columns in trace for part in _batches(*columns))


def _cmd_toeplitz(cfg: RunConfig):
    return _entries_report("toeplitz", {"R": cfg.R}, *suites.toeplitz_series_checks(cfg.R, cfg.n))


def _phase_params(c: RunConfig) -> dict:
    return {"B": c.B, "C": c.C, "h": c.h}


# suite -> config -> (report params, checks).  Each suite applies its own
# caps to n; the transform report reads the suite's sizes.
_SUITES: dict[str, Callable[[RunConfig], tuple[dict, list[dict]]]] = {
    "all": lambda c: ({"seed": c.seed}, suites.suite_all(c.seed)),
    "gaussint": lambda c: ({}, suites.suite_gaussint()),
    "hermite": lambda c: ({**_phase_params(c), "n": c.n},
                          suites.suite_hermite(c.B, c.C, c.h, c.n, c.n)),
    "transform": lambda c: (
        {**_phase_params(c), "pairs": suites.TRANSFORM_PAIRS,
         "points": suites.TRANSFORM_POINTS, "seed": c.seed},
        suites.suite_transform(c.B, c.C, c.h, c.seed)),
    "ncho": lambda c: ({"alpha": c.alpha, "h": c.h, "n": c.n},
                       suites.suite_ncho(c.alpha, c.h, c.n)),
    "ellipse": lambda c: ({"alpha": c.alpha, "beta": c.beta, "n": c.n},
                          suites.suite_ellipse(c.alpha, c.beta, c.n)),
    "bridge": lambda c: ({"alpha": c.alpha, "beta": c.beta, "n": c.n},
                         suites.suite_bridge(c.alpha, c.beta, c.n)),
    "toeplitz": lambda c: ({"R": c.R, "n": c.n}, suites.suite_toeplitz(c.R, c.n)),
}


def _cmd_certify(cfg: RunConfig):
    params, checks = _SUITES[cfg.suite](cfg)
    report = {"suite": cfg.suite, "params": params, "checks": checks}
    return report, ("name", "measured", "tolerance", "pass"), _entry_batches(checks)


# Each flag once: its argparse keywords.  A flag that is not given stays out
# of the namespace (argparse.SUPPRESS), so its default is RunConfig's.
_FLAGS: dict[str, dict] = {
    "--suite": {"choices": tuple(_SUITES), "help": "certification suite"},
    "--B": {"type": parse_complex, "help": "phase parameter B (a+bi, nonzero)"},
    "--C": {"type": parse_complex, "help": "phase parameter C (a+bi, Im C > 0)"},
    "--h": {"type": float, "help": "scale parameter h > 0"},
    "--alpha": {"type": float, "help": "ellipse parameter alpha > 0 (ncho: coupling > 1)"},
    "--beta": {"type": float, "help": "ellipse parameter beta"},
    "--R": {"type": float, "help": "disk series parameter R > 0"},
    "--n": {"type": int, "help": f"number of indices, 1..{DEGREE_CAP}"},
    "--rho": {"type": float, "help": "boundary level |zeta| = rho"},
    "--samples": {"type": int, "help": "trace sample count"},
    "--seed": {"type": int, "help": "random seed >= 0"},
    "--method": {"choices": ("exact", "quadrature", "both"), "help": "Gram matrix route"},
}
_FLAGS["--disk"] = {**_FLAGS["--R"], "dest": "R", "metavar": "R"}


class _Command(NamedTuple):
    help: str
    render: Callable[[RunConfig], tuple]
    flags: str  # after --system (if there are systems), before -o and --format
    systems: tuple[str, ...] = ()  # the --system choices
    csv: bool = False  # tabular data: CSV unless --format says otherwise
    defaults: dict | None = None  # where they differ from RunConfig's


_PHASE = "--B --C --h"
_COMMANDS: dict[str, _Command] = {
    "gram": _Command("Gram matrix with deviation checks", _cmd_gram,
                     f"{_PHASE} --alpha --beta --n --method", ("hermite", "ellipse", "ncho")),
    "eigres": _Command("eigen-residual report", _cmd_eigres,
                       f"{_PHASE} --alpha --beta --n", ("hermite", "ellipse")),
    "transform": _Command("transform of the ground state on its grid", _cmd_transform,
                          _PHASE, csv=True),
    "ncho": _Command("two-component spectrum report", _cmd_ncho, "--alpha --h --n"),
    "ellipse": _Command("derived constants / boundary trace", _cmd_ellipse,
                        "--alpha --beta --rho --samples --n", defaults={"n": 6}),
    "toeplitz": _Command("localization eigenvalues of a disk symbol", _cmd_toeplitz,
                         "--disk --n", csv=True),
    "certify": _Command("run a named certification suite", _cmd_certify,
                        f"--suite {_PHASE} --alpha --beta --R --n --seed"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no state
    between parses, and :func:`run` looks each command up in ``_COMMANDS``
    when it runs."""
    parser = _Parser(prog="bargmann-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        # no prefix matching: ``ellipse --h 1`` must not read ``--h`` as ``--help``
        p = sub.add_parser(
            name, help=cmd.help, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        if cmd.systems:
            p.add_argument("--system", choices=cmd.systems, help="function family")
        for flag in cmd.flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("-o", "--output", help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
        p.set_defaults(**(cmd.defaults or {}))
    return parser


# ---------------------------------------------------------------------------
# rendering and entry points
# ---------------------------------------------------------------------------


#: Bytes that hold ``str`` of any value of a float or bool column: the
#: longest float repr is "-2.2250738585072014e-308".
_FIELD_BYTES = {"f": 24, "b": 5}

#: Distinct values formatted, and rows gathered, per step: bounds the strs
#: and the copies held at once.
_FORMAT_STEP = 256


def _field_dtype(a: np.ndarray) -> np.dtype:
    """NUL-padded bytes that hold ``str`` of any value of the column ``a``.
    An int column's longest text is its least or its greatest value's; a str
    column's items take 4 bytes per character, enough for any UTF-8, quoted
    as a CSV field or not."""
    if a.dtype.kind in "iu":
        width = max(len(str(a.min())), len(str(a.max())))
    else:
        width = _FIELD_BYTES.get(a.dtype.kind, a.dtype.itemsize)
    return np.dtype(f"S{width}")


def _quoted(text: str) -> bytes:
    """``text`` as a CSV field (RFC 4180), in UTF-8: put in quotes, each
    quote doubled, where it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text.encode()


def _put_column(field: np.ndarray, a: np.ndarray) -> None:
    """Write ``str`` of each value of the column ``a`` into ``field``, as
    NUL-padded UTF-8, a str value as a CSV field (:func:`_quoted`).  Each
    distinct value is formatted once; floats are told apart by bit pattern,
    so ``-0.0`` and ``0.0`` keep their own texts."""
    keys = a.view(np.int64) if a.dtype == np.float64 else a
    distinct, index = np.unique(keys, return_inverse=True)
    values = distinct.view(a.dtype)
    form = _quoted if a.dtype.kind == "U" else str
    texts = np.empty(values.size, field.dtype)
    for start in range(0, values.size, _FORMAT_STEP):
        part = slice(start, start + _FORMAT_STEP)
        texts[part] = list(map(form, values[part].tolist()))
    for start in range(0, index.size, _FORMAT_STEP):
        part = slice(start, start + _FORMAT_STEP)
        field[part] = texts[index[part]]


def _batch_text(columns: Sequence) -> str:
    """The CSV lines of one batch of equal-length columns.

    Each row is laid out in one fixed-width record, each field padded with
    NULs and followed by its separator, so no str is held per field; the
    batch's text is the records' bytes with the padding taken out."""
    arrays = [np.asarray(c) for c in columns]
    layout = []
    for j, a in enumerate(arrays):
        layout += [(f"t{j}", _field_dtype(a)), (f"s{j}", "S1")]
    padded = bytearray(len(arrays[0]) * np.dtype(layout).itemsize)
    records = np.frombuffer(padded, dtype=layout)
    for j, a in enumerate(arrays):
        _put_column(records[f"t{j}"], a)
        records[f"s{j}"] = b"\n" if j == len(arrays) - 1 else b","
    text = padded.translate(None, b"\0")
    del padded, records  # before the decoded copy is made
    return text.decode()


def _write_csv(out, header: tuple, batches: Iterable[Sequence]) -> None:
    """Write ``header`` and the rows of the column ``batches``, one write per
    batch, each field as ``str`` gives it (a str field quoted where CSV
    needs it).

    A batch holds at most :data:`_CSV_BATCH` rows as equal-length columns,
    each an array or a list of one type: floats, ints, bools or strs (with
    no NUL).  Each column is formatted on its own, every distinct value
    once (see :func:`_put_column`), and each batch's text is put together
    in one pass (see :func:`_batch_text`)."""
    out.write(",".join(header) + "\n")
    for columns in batches:
        out.write(_batch_text(columns))


def _json_value(value):
    """JSON form of what ``json`` does not take: a complex number is [re, im]
    and an array its nested lists.  A complex array's entries are split into
    [re, im] by numpy: one call here per entry makes a Gram matrix's JSON
    slower to write than a list of pairs built beforehand."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            value = np.stack((value.real, value.imag), axis=-1)
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(report: dict) -> str:
    """The report as indented JSON text."""
    try:
        return json.dumps(report, indent=2, allow_nan=False, default=_json_value) + "\n"
    except ValueError:
        # strict JSON: each non-finite float becomes a string, "NaN",
        # "Infinity" or "-Infinity", the token json.dumps would write
        strict = json.loads(json.dumps(report, default=_json_value), parse_constant=str)
        return json.dumps(strict, indent=2) + "\n"


@contextlib.contextmanager
def _artifact(path: str | None):
    """The output stream: ``path`` opened for writing, or stdout.  If an
    exception leaves the artifact incomplete, a regular file at ``path`` is
    removed (``-o /dev/null`` is left alone) before the exception goes on."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        try:
            yield fh
        except BaseException:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.close()
                os.remove(path)
            raise


def run(cfg: RunConfig) -> int:
    """Execute one configuration; write the artifact; return the exit status."""
    cmd = _COMMANDS[cfg.command]
    report, header, rows = cmd.render(cfg)
    with _artifact(cfg.output) as out:
        if (cfg.format or ("csv" if cmd.csv else "json")) == "csv":
            _write_csv(out, header, rows)
        else:
            out.write(_json_text(report))

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
        return run(RunConfig(**vars(ns)))
    except (DomainError, OSError) as exc:
        # DegenerateEllipseError lands here too, message carrying the
        # classic-parameter hint.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
