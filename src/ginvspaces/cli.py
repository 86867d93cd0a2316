"""Command-line front door.

Subcommands:

* ``decompose`` -- run the full verification pipeline on one group action and
  emit a JSON report: decomposition residuals, star table, verdict, kernel
  property residuals, intertwiner dichotomy summary, structure-theorem trials.
* ``survey`` -- one summary row per instance over named family ranges
  (JSON or CSV).
* ``torus`` -- run the truncated Fourier model suites, optionally transform an
  explicit monomial list.

Reports are byte-stable for fixed inputs: fixed key order, seeded trials, and
floats rendered with 17 significant digits. Exit codes: 0 ok, 2 parse or
input-validation error, 3 enumeration cap exceeded, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from dataclasses import asdict

import numpy as np

from .decomposition import build_report, first_support_index
from .errors import (
    CapExceeded,
    DimensionMismatch,
    InternalInconsistency,
    InvalidPermutation,
    MinimalityFailure,
    NotTransitive,
    PropertyViolation,
    SpecParseError,
    StructureFailure,
)
from .invariant_subspaces import (
    signature_roundtrip_exhaustive,
    twisted_diagonal_witness,
    verify_structure,
)
from .kernels import kernel_family, verify_kernel_properties
from .linalg import DEFAULT_TOL
from .perm_action import DEFAULT_CAP, group_from_spec, is_transitive, regular_action
from .schur import dichotomy_trials
from . import torus as torus_model

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

_PARSE_ERRORS = (SpecParseError, InvalidPermutation, NotTransitive, DimensionMismatch)
_INTERNAL_ERRORS = (
    InternalInconsistency,
    PropertyViolation,
    MinimalityFailure,
    StructureFailure,
)

# seed offsets keep the per-stage random streams independent but derived
# deterministically from the single --seed flag
_KERNEL_SEED_OFFSET = 101
_SCHUR_SEED_OFFSET = 211
_STRUCTURE_SEED_OFFSET = 307
_WITNESS_SEED_OFFSET = 401

# Rounding in an n-point decomposition reaches about n * eps (an orthonormal
# basis's Gram matrix, the projector sums), so a --tol below this many times
# n * eps rejects exact results.
_TOL_FLOOR_ULPS = 16


def format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("cannot serialize a non-finite float")
    return format(x, ".17g")


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON rendering: insertion key order, 17-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}"{k}": {render_json(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat and len(seq) <= 16:
            return "[" + ", ".join(render_json(v, indent + 1) for v in seq) + "]"
        items = [inner + render_json(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return "[" + format_float(value.real) + ", " + format_float(value.imag) + "]"
    if isinstance(value, np.ndarray):
        return render_json(value.tolist(), indent)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _complex_matrix_payload(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, complex)]


# -- decompose ----------------------------------------------------------------


def validate_common(args) -> None:
    if not (np.isfinite(args.tol) and 0 < args.tol < 1):
        raise SpecParseError("--tol must be a finite value in (0, 1)")
    if args.max_group_order < 1:
        raise SpecParseError("--max-group-order must be positive")
    require_at_least(args.seed, 0, "--seed")


def require_at_least(value: int, least: int, flag: str) -> None:
    if value < least:
        raise SpecParseError(f"{flag} must be at least {least}")


def require_tol_above_rounding(tol: float, n_points: int) -> None:
    floor = _TOL_FLOOR_ULPS * n_points * np.finfo(float).eps
    if tol < floor:
        raise SpecParseError(f"--tol must be at least {floor:.3g} for {n_points} points")


def resolve_group(spec: str, action_kind: str, cap: int):
    if spec == "-":
        spec = sys.stdin.read()
    elif spec.endswith(".json") and os.path.isfile(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            spec = fh.read()
    action = group_from_spec(spec, cap=cap)
    if action_kind == "regular":
        action = regular_action(action, cap=cap)
    return action


def run_decompose(args) -> dict:
    validate_common(args)
    require_at_least(args.schur_trials, 0, "--schur-trials")
    require_at_least(args.structure_trials, 0, "--structure-trials")
    action = resolve_group(args.group, args.action, args.max_group_order)
    require_tol_above_rounding(args.tol, action.n_points)
    if not is_transitive(action):
        raise NotTransitive("the decomposition pipeline requires a transitive action")
    seed, tol = args.seed, args.tol

    report = build_report(action, seed=seed, tol=tol)
    spaces = list(report.spaces)

    kernel_rows = []
    kernel_max = 0.0
    for s in spaces:
        family = kernel_family(s, action.n_points)
        kreport = verify_kernel_properties(
            family, s, action, tol=tol, seed=seed + _KERNEL_SEED_OFFSET + s.id
        )
        kernel_max = max(kernel_max, kreport.max_residual)
        row = asdict(kreport)
        kernel_rows.append({"id": row.pop("space_id"), **row})

    schur = dichotomy_trials(
        action, spaces, trials=args.schur_trials, seed=seed + _SCHUR_SEED_OFFSET, tol=tol
    )
    structure = verify_structure(
        action, spaces, trials=args.structure_trials, seed=seed + _STRUCTURE_SEED_OFFSET, tol=tol
    )

    if len(spaces) <= 12:
        injective, subsets = signature_roundtrip_exhaustive(spaces, tol)
        injectivity = {"checked": True, "subsets": subsets, "ok": injective}
    else:
        injectivity = {"checked": False, "subsets": 0, "ok": None}

    witness = None
    if not report.multiplicity_free:
        w = twisted_diagonal_witness(action, spaces, seed=seed + _WITNESS_SEED_OFFSET, tol=tol)
        if w is not None:
            witness = asdict(w)

    space_rows = []
    for s in spaces:
        row = {
            "id": s.id,
            "dim": s.dim,
            "eigenvalue": s.eigenvalue,
            "first_support": first_support_index(s.space.basis.T),
        }
        if args.emit_bases:
            row["basis"] = _complex_matrix_payload(s.space.basis)
        space_rows.append(row)

    return {
        "schema": SCHEMA_VERSION,
        "command": "decompose",
        "group": {
            "spec": args.group,
            "action": args.action,
            "order": action.order,
            "points": action.n_points,
            "generators": [g.images.tolist() for g in action.generators],
        },
        "params": {
            "seed": seed,
            "tol": tol,
            "max_group_order": args.max_group_order,
            "schur_trials": args.schur_trials,
            "structure_trials": args.structure_trials,
            "emit_bases": bool(args.emit_bases),
        },
        "decomposition": {
            "n_spaces": len(spaces),
            "dims": [s.dim for s in spaces],
            "completeness_residual": report.completeness_residual,
            "orthogonality_residual": report.orthogonality_residual,
            "equivariance_residual": report.equivariance_residual,
            "multiplicity_free": report.multiplicity_free,
            "star_table": report.star_table.tolist(),
            "star_all_ones": report.star_all_ones,
            "verdict": report.verdict,
            "spaces": space_rows,
        },
        "kernels": {"max_residual": kernel_max, "per_space": kernel_rows},
        "schur": {
            "pairs": schur.pairs,
            "trials_per_pair": schur.trials_per_pair,
            "zero": schur.zero_count,
            "scalar": schur.scalar_count,
            "violation": schur.violation_count,
            "max_offdiagonal_residual": schur.max_offdiagonal_residual,
            "max_diagonal_residual": schur.max_diagonal_residual,
        },
        "structure": {
            "trials": structure.trials,
            "passes": structure.passes,
            "max_residual": structure.max_residual,
            "failures": [asdict(f) for f in structure.failures],
            "injectivity": injectivity,
            "twisted_diagonal_witness": witness,
        },
    }


# -- survey -------------------------------------------------------------------


def parse_family_range(text: str) -> list:
    """``family:lo..hi`` or ``family:n`` into (family, n) instances."""
    name, sep, arg = text.strip().partition(":")
    if not sep:
        raise SpecParseError(f"bad family range {text!r}")
    if ".." in arg:
        lo_text, _, hi_text = arg.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise SpecParseError(f"bad family range {text!r}") from exc
        if hi < lo:
            raise SpecParseError(f"empty family range {text!r}")
        return [(name, n) for n in range(lo, hi + 1)]
    try:
        return [(name, int(arg))]
    except ValueError as exc:
        raise SpecParseError(f"bad family range {text!r}") from exc


def run_survey(args) -> dict:
    validate_common(args)
    instances = []
    for spec in args.families:
        instances.extend(parse_family_range(spec))
    rows = []
    for family, n in instances:
        action = resolve_group(f"{family}:{n}", args.action, args.max_group_order)
        require_tol_above_rounding(args.tol, action.n_points)
        if not is_transitive(action):
            raise NotTransitive(f"{family}:{n} is not transitive")
        report = build_report(action, seed=args.seed, tol=args.tol)
        rows.append(
            {
                "family": family,
                "n": n,
                "action": args.action,
                "group_order": action.order,
                "points": action.n_points,
                "n_spaces": len(report.spaces),
                "dims": list(report.dims),
                "multiplicity_free": report.multiplicity_free,
                "star_all_ones": report.star_all_ones,
                "verdict": report.verdict,
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "command": "survey",
        "params": {"seed": args.seed, "tol": args.tol, "action": args.action},
        "rows": rows,
    }


def survey_csv(payload: dict) -> str:
    buf = io.StringIO()
    fields = [
        "family",
        "n",
        "action",
        "group_order",
        "points",
        "n_spaces",
        "dims",
        "multiplicity_free",
        "star_all_ones",
        "verdict",
    ]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in payload["rows"]:
        flat = dict(row)
        flat["dims"] = "|".join(str(d) for d in row["dims"])
        flat["multiplicity_free"] = "true" if row["multiplicity_free"] else "false"
        flat["star_all_ones"] = "true" if row["star_all_ones"] else "false"
        writer.writerow([flat[f] for f in fields])
    return buf.getvalue()


# -- torus --------------------------------------------------------------------


def parse_monomials(text: str, n: int, degree: int) -> torus_model.FourierFunction:
    """Semicolon-separated ``k1,..,kn:coefficient`` terms; ``i`` accepted for the
    imaginary unit."""
    coeffs = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        k_text, sep, c_text = chunk.rpartition(":")
        if not sep:
            raise SpecParseError(f"bad monomial {chunk!r}; expected k1,..,kn:coefficient")
        try:
            key = tuple(int(v) for v in k_text.split(","))
            value = complex(c_text.strip().replace("i", "j"))
        except ValueError as exc:
            raise SpecParseError(f"bad monomial {chunk!r}") from exc
        if len(key) != n:
            raise SpecParseError(f"monomial {chunk!r} has {len(key)} indices, expected {n}")
        coeffs[key] = coeffs.get(key, 0j) + value
    try:
        return torus_model.FourierFunction(n, degree, coeffs)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc


def run_torus(args) -> dict:
    validate_common(args)
    if not 1 <= args.n <= torus_model.MAX_TORUS_DIM:
        raise SpecParseError(f"torus dimension must be 1..{torus_model.MAX_TORUS_DIM}")
    if not 0 <= args.degree <= 16:
        raise SpecParseError("degree must be in 0..16")
    require_at_least(args.unitarity_trials, 0, "--unitarity-trials")
    require_at_least(args.fejer_functions, 1, "--fejer-functions")
    require_at_least(args.polydisc_trials, 0, "--polydisc-trials")
    if args.fejer is not None:
        require_at_least(args.fejer, 0, "--fejer")
    n, degree, seed = args.n, args.degree, args.seed
    # parsed before the suites run, so bad input fails fast
    f = None if args.monomials is None else parse_monomials(args.monomials, n, degree)

    fejer_profiles, fejer_monotone = torus_model.fejer_monotonicity(
        n, degree, functions=args.fejer_functions, seed=seed + 11
    )
    polydisc_trials, polydisc_ok = torus_model.polydisc_rotation_trials(
        n, degree, trials=args.polydisc_trials, seed=seed + 23
    )
    separation_pairs, separation_mismatches = torus_model.separation_scan_1d(degree=4)

    payload = {
        "schema": SCHEMA_VERSION,
        "command": "torus",
        "params": {
            "n": n,
            "degree": degree,
            "seed": seed,
            "unitarity_trials": args.unitarity_trials,
            "fejer_functions": args.fejer_functions,
            "polydisc_trials": args.polydisc_trials,
        },
        "suites": {
            "orthonormality_residual": torus_model.monomial_orthonormality_residual(
                n, degree, seed=seed
            ),
            "unitarity_residual": torus_model.unitarity_residual(
                n, degree, trials=args.unitarity_trials, seed=seed + 5
            ),
            "completeness_residual": torus_model.completeness_residual_model(
                n, degree, seed=seed + 7
            ),
            "smoothing_commutes_residual": torus_model.smoothing_commutes_residual(
                n, degree, seed=seed + 13
            ),
            "fejer": {
                "degrees": [1, 2, 4, 8, 16],
                "functions": args.fejer_functions,
                "monotone": fejer_monotone,
                "error_profiles": fejer_profiles,
            },
            "polydisc": {"trials": polydisc_trials, "preserved": polydisc_ok},
            "separation_scan": {
                "box": "n=1,d=4",
                "pairs": separation_pairs,
                "mismatches": separation_mismatches,
            },
        },
    }

    if f is not None:
        section = {
            "input": [{"k": list(k), "coeff": f.coefficient(k)} for k in f.support()],
        }
        if args.fejer is not None:
            smoothed = torus_model.fejer_smooth(f, args.fejer)
            section["fejer_degree"] = args.fejer
            section["smoothed"] = [
                {"k": list(k), "coeff": smoothed.coefficient(k)} for k in smoothed.support()
            ]
        if args.check_polydisc:
            section["polydisc"] = torus_model.polydisc_signature(f)
        payload["monomials"] = section
    return payload


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error takes the JSON error path; subparsers inherit it
        raise SpecParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, and every
    build leaves a few hundred argparse objects in reference cycles."""
    parser = _Parser(
        prog="ginvspaces",
        description="Verify minimal decompositions of finite transitive group actions "
        "and the truncated Fourier model of the torus.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--max-group-order", type=int, default=DEFAULT_CAP)
        p.add_argument("--out", default=None, help="write the report to a file instead of stdout")

    p_dec = sub.add_parser("decompose", help="decompose one group action and verify everything")
    p_dec.add_argument("--group", required=True, help="cyclic:n | dihedral:n | symmetric:n | "
                       "regular:<family:n> | JSON {\"points\":n,\"generators\":[[..]]}")
    p_dec.add_argument("--action", choices=["natural", "regular"], default="natural")
    p_dec.add_argument("--schur-trials", type=int, default=100)
    p_dec.add_argument("--structure-trials", type=int, default=50)
    p_dec.add_argument("--emit-bases", action="store_true")
    common(p_dec)

    p_sur = sub.add_parser("survey", help="summary table over family ranges")
    p_sur.add_argument("families", nargs="+", help="family ranges, e.g. cyclic:2..12")
    p_sur.add_argument("--action", choices=["natural", "regular"], default="natural")
    p_sur.add_argument("--format", choices=["json", "csv"], default="json")
    common(p_sur)

    p_tor = sub.add_parser("torus", help="run the truncated Fourier model suites")
    p_tor.add_argument("--n", type=int, default=1)
    p_tor.add_argument("--degree", type=int, default=8)
    p_tor.add_argument("--unitarity-trials", type=int, default=50)
    p_tor.add_argument("--fejer-functions", type=int, default=20)
    p_tor.add_argument("--polydisc-trials", type=int, default=100)
    p_tor.add_argument("--monomials", default=None, help='terms like "2:1+0i" or "1,0:0.5-0.5i;0,1:2"')
    p_tor.add_argument("--fejer", type=int, default=None, help="smooth --monomials at this degree")
    p_tor.add_argument("--check-polydisc", action="store_true")
    common(p_tor)
    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_payload(exc: Exception) -> str:
    """The error object: type and message, plus what the exception carries."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, PropertyViolation):
        error["prop"] = exc.prop
        error["residual"] = exc.residual
    elif isinstance(exc, StructureFailure):
        error["witness"] = None if exc.witness is None else asdict(exc.witness)
    return render_json({"schema": SCHEMA_VERSION, "error": error}) + "\n"


def main(argv=None) -> int:
    out = None
    try:
        args = build_parser().parse_args(argv)
        out = args.out
        if args.cmd == "decompose":
            text = render_json(run_decompose(args)) + "\n"
        elif args.cmd == "survey":
            payload = run_survey(args)
            text = survey_csv(payload) if args.format == "csv" else render_json(payload) + "\n"
        else:
            text = render_json(run_torus(args)) + "\n"
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code is not None else EXIT_PARSE
    except _PARSE_ERRORS as exc:
        _emit(_error_payload(exc), out)
        return EXIT_PARSE
    except CapExceeded as exc:
        _emit(_error_payload(exc), out)
        return EXIT_CAP
    except _INTERNAL_ERRORS as exc:
        _emit(_error_payload(exc), out)
        return EXIT_INTERNAL

    _emit(text, out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
