"""Correctness check of one report against invariants recorded per instance.

Exact invariants (verdict, dimensions, star table, trial counts, torus scan
counts and flags) are compared with ``expected.json``; residuals are checked
against the tolerance wherever the theory forces them below it. Float bytes
are never compared, so a report is correct for every seed.
"""

from __future__ import annotations

import copy
import json

# the CLI's default --tol; torus reports do not echo a tolerance
TORUS_TOL = 1e-9


def invariants(payload: dict) -> dict:
    """The exact, seed-independent content of a parsed report."""
    if payload["command"] == "torus":
        suites = payload["suites"]
        return {
            "command": "torus",
            "n": payload["params"]["n"],
            "degree": payload["params"]["degree"],
            "fejer_functions": suites["fejer"]["functions"],
            "fejer_degrees": suites["fejer"]["degrees"],
            "monotone": suites["fejer"]["monotone"],
            "polydisc_trials": suites["polydisc"]["trials"],
            "preserved": suites["polydisc"]["preserved"],
            "pairs": suites["separation_scan"]["pairs"],
            "mismatches": suites["separation_scan"]["mismatches"],
        }
    dec, schur, structure = payload["decomposition"], payload["schur"], payload["structure"]
    return {
        "command": "decompose",
        "order": payload["group"]["order"],
        "points": payload["group"]["points"],
        "verdict": dec["verdict"],
        "n_spaces": dec["n_spaces"],
        "dims": dec["dims"],
        "multiplicity_free": dec["multiplicity_free"],
        "star_table": dec["star_table"],
        "star_all_ones": dec["star_all_ones"],
        "schur": {k: schur[k] for k in ("pairs", "trials_per_pair", "zero", "scalar", "violation")},
        "structure": {
            "trials": structure["trials"],
            "passes": structure["passes"],
            "failures": len(structure["failures"]),
        },
        "injectivity": structure["injectivity"],
        "witness": structure["twisted_diagonal_witness"] is not None,
    }


def residual_problems(payload: dict) -> list:
    """Residuals the theory requires to stay within tolerance."""
    problems = []

    def at_most(name, value, tol):
        if not value <= tol:
            problems.append(f"{name} = {value!r} exceeds {tol!r}")

    if payload["command"] == "torus":
        suites = payload["suites"]
        for name in (
            "orthonormality_residual",
            "unitarity_residual",
            "completeness_residual",
            "smoothing_commutes_residual",
        ):
            at_most(name, suites[name], TORUS_TOL)
        return problems

    tol = payload["params"]["tol"]
    dec, schur, structure = payload["decomposition"], payload["schur"], payload["structure"]
    for name in ("completeness_residual", "orthogonality_residual", "equivariance_residual"):
        at_most(name, dec[name], tol)
    at_most("kernels.max_residual", payload["kernels"]["max_residual"], tol)
    for row in payload["kernels"]["per_space"]:
        # the kernel diagonal equals the space dimension
        gap = abs(row["diagonal_value"] - dec["dims"][row["id"]])
        at_most(f"kernel {row['id']} diagonal law", gap, tol)
    at_most("schur.max_diagonal_residual", schur["max_diagonal_residual"], tol)
    if dec["multiplicity_free"]:
        # no isomorphic pair, so every off-diagonal average vanishes
        at_most("schur.max_offdiagonal_residual", schur["max_offdiagonal_residual"], tol)
    at_most("structure.max_residual", structure["max_residual"], tol)
    trials = schur["trials_per_pair"]
    if schur["zero"] + schur["scalar"] + schur["violation"] != schur["pairs"] * trials:
        problems.append("schur counts do not add up to pairs x trials")
    witness = structure["twisted_diagonal_witness"]
    if witness is not None:
        if not witness["dim_subspace"] < witness["dim_direct_sum"]:
            problems.append("witness subspace is not smaller than its direct sum")
        if not witness["residual"] > tol:
            problems.append("witness residual is within tolerance")
    return problems


def check_report(text: str, expected: dict, seed: int) -> list:
    """Problems found in one report's text; an empty list means correct."""
    try:
        payload = json.loads(text)
        if payload["params"]["seed"] != seed:
            return [f"report seed {payload['params']['seed']} is not the workload seed {seed}"]
        got = invariants(payload)
        problems = [
            f"{name}: expected {expected.get(name)!r}, got {value!r}"
            for name, value in got.items()
            if expected.get(name) != value
        ]
        return problems + residual_problems(payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _set(path, value):
    def tamper(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return tamper


# each tamper must make a correct report fail the check
_DECOMPOSE_TAMPERS = (
    _set(("decomposition", "verdict"), "LacksStarOnly"),
    _set(("decomposition", "dims", 0), lambda d: d + 1),
    _set(("decomposition", "star_table", 0, 0), lambda v: v + 1),
    _set(("decomposition", "completeness_residual"), 1e-3),
    _set(("kernels", "max_residual"), 1.0),
    _set(("schur", "violation"), lambda v: v + 1),
    _set(("schur", "max_diagonal_residual"), 1e-3),
    _set(("structure", "passes"), lambda v: v - 1),
    _set(("structure", "injectivity", "subsets"), lambda v: v + 1),
    _set(("structure", "twisted_diagonal_witness"), lambda w: None if w else {"omega": [0]}),
    _set(("params", "seed"), lambda s: s + 1),
)
_TORUS_TAMPERS = (
    _set(("suites", "separation_scan", "mismatches"), lambda v: v + 1),
    _set(("suites", "separation_scan", "pairs"), lambda v: v - 1),
    _set(("suites", "fejer", "monotone"), False),
    _set(("suites", "polydisc", "preserved"), False),
    _set(("suites", "unitarity_residual"), 1e-3),
    _set(("params", "seed"), lambda s: s + 1),
)


def self_test(samples, expected: dict, seed: int) -> list:
    """Feed tampered copies of correct reports to the checker.

    `samples` holds (key, text) pairs of reports that passed. Returns one
    message per tampered report the checker failed to count as failed.
    """
    missed = []
    for key, text in samples:
        payload = json.loads(text)
        tampers = _TORUS_TAMPERS if payload["command"] == "torus" else _DECOMPOSE_TAMPERS
        variants = [text[: len(text) // 2]]  # a truncated write
        for tamper in tampers:
            bad = copy.deepcopy(payload)
            tamper(bad)
            variants.append(json.dumps(bad))
        for i, bad_text in enumerate(variants):
            if not check_report(bad_text, expected[key], seed):
                missed.append(f"{key}: tamper {i} was not detected")
    return missed
