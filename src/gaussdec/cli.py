"""Command-line front end.

Subcommands: ``analyze`` (decoupling report), ``region`` (admissible
intervals), ``bounds`` (dominance/determinant diagnostics), ``verify``
(Monte Carlo inequality check), ``sweep`` (CSV table over a parameter and a
p grid), ``gen`` (covariance generation).

Matrix documents are JSON objects {"n": int, "rows": [[...], ...]} or plain
CSV (n comma-separated lines).  Structured reports are JSON; sweeps are CSV.
Every command is deterministic given its arguments (and seed).

Exit codes: 0 success; 2 invalid input; 3 covariance not positive definite
(or numerically unusable: an overflow, or a NaN or infinity in a JSON
report); 4 verification inequality failed; 5 exponent not admissible for the
requested constant.  Set GAUSSDEC_LOG=debug|info|... for diagnostics on
standard error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import covgen, decouple, matcore
from . import verify as verify_mod
from .errors import (
    DegenerateBeta,
    InvalidParameter,
    NonConvergence,
    NotAdmissibleClassical,
    NotInRegion,
    NotPositiveDefinite,
    as_int,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NOT_SPD = 3
EXIT_CHECK_FAILED = 4
EXIT_NOT_ADMISSIBLE = 5

MAX_SWEEP_ROWS = 10**6  # parameter grid points times p grid points

log = logging.getLogger("gaussdec")


def read_matrix_document(path: str) -> np.ndarray:
    """Load a square matrix from a JSON document {"n": int, "rows": [...]} or
    a CSV file of n lines.  ``matcore.as_matrix`` reads the JSON rows or the
    CSV fields, so an entry is read as ``float`` reads it; every malformed
    document is InvalidParameter, reported with its path."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        doc = _parse_json(text, path)
        if not isinstance(doc, dict) or "n" not in doc or "rows" not in doc:
            raise InvalidParameter(f"{path}: expected an object with 'n' and 'rows'")
        n, rows = doc["n"], doc["rows"]
    else:
        n, rows = None, [line.split(",") for line in text.splitlines() if line.strip()]
    try:
        m = matcore.as_matrix(rows)
        if n is not None and as_int(n, "n") != m.shape[0]:
            raise InvalidParameter(f"rows do not form an {n}x{n} matrix")
    except InvalidParameter as exc:
        raise InvalidParameter(f"{path}: {exc}") from exc
    log.debug("loaded %dx%d matrix from %s", m.shape[0], m.shape[1], path)
    return m


def matrix_to_document(m: np.ndarray) -> dict:
    return {"n": int(m.shape[0]), "rows": [[float(v) for v in row] for row in m]}


def _write(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InvalidParameter(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, where: str):
    """Parse JSON ``text``; malformed JSON is invalid input, reported with
    ``where`` (the path or flag it came from)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"{where}: malformed JSON: {exc}") from exc


def _read_json_file(path: str):
    return _parse_json(_read_text(path), path)


def _emit_json(obj, output: str | None) -> None:
    """Write ``obj`` as JSON.  A NaN or infinity has no JSON form: it makes
    the result numerically unusable and nothing is written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"result is not finite: {exc}") from exc
    _write(text + "\n", output)


def _fmt12(v: float) -> str:
    return "inf" if math.isinf(v) else format(v, ".12g")


def _load_vector(path: str) -> decouple.GaussianVector:
    return decouple.from_covariance(read_matrix_document(path))


def cmd_analyze(args: argparse.Namespace) -> int:
    x = _load_vector(args.input)
    decouple.check_beta(args.beta)  # even when --optimal-beta leaves it unused
    rep = decouple.analyze(x, args.p, beta=None if args.optimal_beta else args.beta)
    _emit_json(rep.to_json_dict(), args.output)
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    x = _load_vector(args.input)
    region = decouple.region_of(x)
    if args.format == "json":
        _emit_json(region.to_json_dict(), args.output)
    else:
        lines = [
            f"({_fmt12(iv.lo)}, {_fmt12(iv.hi)}) "
            + ("admissible" if iv.admissible else "excluded")
            for iv in region.intervals
        ]
        _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    x = _load_vector(args.input)
    rep = bounds_mod.report(x, args.p, beta=args.beta)
    _emit_json(rep.to_json_dict(), args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    x = _load_vector(args.input)
    fs = verify_mod.parse_test_functions(_read_json_file(args.functions))
    result = verify_mod.check_inequality(
        x,
        fs,
        args.p,
        samples=args.samples,
        seed=args.seed,
        constant=args.constant,
        beta=args.beta,
    )
    _emit_json(result.to_json_dict(), args.output)
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


SWEEP_HEADER = [
    "param",
    "p",
    "in_region_new",
    "q_new",
    "classical_ok",
    "q_old",
    "max_inv_xi",
    "beta_bar_pX",
    "det_identity_residual",
]


def _parse_grid(text: str) -> tuple[int, Iterator[float]]:
    """A 'start:stop:step' grid's point count, and its points as read."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise InvalidParameter(f"grid must be 'start:stop:step', got {text!r}")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError as exc:
        raise InvalidParameter(f"malformed grid {text!r}: {exc}") from exc
    if not (step > 0.0 and start < stop and math.isfinite(start) and math.isfinite(stop)):
        raise InvalidParameter(f"grid needs step > 0 and start < stop, got {text!r}")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise InvalidParameter(f"grid {text!r} has an infinite point count")
    count = int(math.floor(steps + 1e-9)) + 1
    return count, (start + i * step for i in range(count))


def _is_grid(value) -> bool:
    return isinstance(value, str) and value.count(":") == 2


def _sweep_rows(spec: dict):
    if not isinstance(spec, dict) or "family" not in spec or "p_grid" not in spec:
        raise InvalidParameter("sweep spec must contain 'family' and 'p_grid'")
    family_doc = spec["family"]
    if not isinstance(family_doc, dict):
        raise InvalidParameter("sweep 'family' must be a family descriptor object")
    swept = [k for k, v in family_doc.items() if _is_grid(v)]
    if len(swept) != 1:
        raise InvalidParameter(
            f"exactly one family parameter must be a 'start:stop:step' grid, found {swept}"
        )
    key = swept[0]
    param_count, param_values = _parse_grid(family_doc[key])
    p_count, p_values = _parse_grid(spec["p_grid"])
    if param_count * p_count > MAX_SWEEP_ROWS:
        raise InvalidParameter(f"sweep has more than MAX_SWEEP_ROWS = {MAX_SWEEP_ROWS} rows")
    p_values = list(p_values)
    beta = spec.get("beta")
    if beta is not None:
        try:
            beta = float(beta)
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(f"sweep 'beta' must be a real number, got {beta!r}") from exc

    log.debug("sweeping %s over %d values, %d exponents", key, param_count, p_count)
    for param in param_values:
        doc = dict(family_doc)
        doc[key] = param
        x = decouple.from_covariance(covgen.generate(covgen.family_from_json(doc)))
        reports = [decouple.analyze(x, p, beta) for p in p_values]
        max_inv_xi = decouple.region_of(x).breakpoints[0]
        try:
            threshold = decouple.least_beta_bar(x, beta) * reports[0].p_of_X
        except DegenerateBeta:  # a fixed beta_bar of 1: no exponent qualifies
            threshold = None
        for rep in reports:
            yield {
                "param": param,
                "p": rep.p,
                "in_region_new": rep.in_region,
                "q_new": rep.q_new,
                "classical_ok": rep.q_old is not None,
                "q_old": rep.q_old,
                "max_inv_xi": max_inv_xi,
                "beta_bar_pX": threshold,
                "det_identity_residual": rep.identity_residual,
            }


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _read_json_file(args.spec)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for row in _sweep_rows(spec):
        writer.writerow([_csv_cell(row[col]) for col in SWEEP_HEADER])
    _write(buf.getvalue(), args.output)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family.startswith("@"):
        doc = _read_json_file(args.family[1:])
    else:
        doc = _parse_json(args.family, "--family")
    m = covgen.generate(covgen.family_from_json(doc))
    _emit_json(matrix_to_document(m), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    in it, and in-process callers of ``main`` skip rebuilding the tree."""
    parser = argparse.ArgumentParser(
        prog="gaussdec",
        description="Decoupling constants, admissible exponent regions and "
        "determinant bounds for finite Gaussian vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="matrix document (JSON or CSV)")

    def add_output(p):
        p.add_argument("--output", default=None, help="output path (default: stdout)")

    p_analyze = sub.add_parser("analyze", help="decoupling report at one exponent")
    add_input(p_analyze)
    p_analyze.add_argument("--p", type=float, required=True)
    p_analyze.add_argument("--beta", type=float, default=1.0)
    p_analyze.add_argument(
        "--optimal-beta",
        action="store_true",
        help="use the constant-minimizing beta_bar instead of max(ratio, beta)",
    )
    add_output(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_region = sub.add_parser("region", help="admissible intervals of (1, inf)")
    add_input(p_region)
    p_region.add_argument("--format", choices=("json", "text"), default="text")
    add_output(p_region)
    p_region.set_defaults(func=cmd_region)

    p_bounds = sub.add_parser("bounds", help="determinant bounds for p*diag(gamma) - C")
    add_input(p_bounds)
    p_bounds.add_argument("--p", type=float, required=True)
    p_bounds.add_argument("--beta", type=float, default=1.0)
    add_output(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="Monte Carlo inequality check")
    add_input(p_verify)
    p_verify.add_argument("--p", type=float, required=True)
    p_verify.add_argument("--functions", required=True, help="JSON array of test functions")
    p_verify.add_argument("--samples", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--constant", choices=("new", "old"), default="new")
    p_verify.add_argument(
        "--beta",
        type=float,
        default=None,
        help="fix beta for the classical constant (default: optimal beta_bar)",
    )
    add_output(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="CSV table over a family parameter and a p grid")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON")
    add_output(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen", help="generate a covariance matrix document")
    p_gen.add_argument(
        "--family", required=True, help="family descriptor JSON (or @path to a file)"
    )
    add_output(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("GAUSSDEC_LOG", "").strip().upper()
    if not level_name:
        return
    level = getattr(logging, level_name, None)
    if isinstance(level, int):
        logging.basicConfig(stream=sys.stderr, level=level)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_INVALID_INPUT
        return EXIT_OK if code == 0 else EXIT_INVALID_INPUT
    _configure_logging()
    try:
        return args.func(args)
    except (NotInRegion, NotAdmissibleClassical) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except (NotPositiveDefinite, NonConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SPD
    # InvalidParameter is a ValueError; a MemoryError is a request too large
    # to allocate, such as a family's n x n matrix at n = 1e8
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ArithmeticError as exc:
        print(f"error: numerically unusable: {exc!r}", file=sys.stderr)
        return EXIT_NOT_SPD


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
