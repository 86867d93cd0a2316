"""Tolerance scaling: the residuals stay within tol on regular actions up to n = 120.

Each instance runs through the command line with one Schur trial and ten
structure trials. In a regular action every irreducible representation of
dimension d appears as d minimal spaces of dimension d, and the trivial
stabilizer makes each star entry the dimension of its space.
"""

import json

import pytest

from ginvspaces.cli import EXIT_OK, main

TOL = 1e-9

# irreducible dimensions: C60 is abelian; D30 has 4 characters and 14 planes;
# S5 has dimensions 1, 1, 4, 4, 5, 5, 6
LADDER = [
    ("regular:cyclic:60", [1] * 60, "GCollection"),
    ("regular:dihedral:30", [1] * 4 + [2] * 14, "NotUniqueDecomposition"),
    ("regular:symmetric:5", [1, 1, 4, 4, 5, 5, 6], "NotUniqueDecomposition"),
]


@pytest.mark.parametrize("spec,irreps,verdict", LADDER, ids=[s for s, _, _ in LADDER])
def test_residuals_within_tol_on_the_ladder(tmp_path, spec, irreps, verdict):
    out = tmp_path / "report.json"
    argv = ["decompose", "--group", spec, "--schur-trials", "1", "--structure-trials", "10"]
    assert main(argv + ["--tol", str(TOL), "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    dec, schur, structure = payload["decomposition"], payload["schur"], payload["structure"]

    assert payload["group"]["points"] == sum(d * d for d in irreps)
    assert dec["dims"] == sorted(d for d in irreps for _ in range(d))
    assert dec["verdict"] == verdict
    assert dec["multiplicity_free"] == (verdict == "GCollection")
    assert [set(row) for row in dec["star_table"]] == [{d} for d in dec["dims"]]

    for name in ("completeness_residual", "orthogonality_residual", "equivariance_residual"):
        assert dec[name] <= TOL, name
    assert payload["kernels"]["max_residual"] <= TOL
    for row in payload["kernels"]["per_space"]:
        assert abs(row["diagonal_value"] - dec["dims"][row["id"]]) <= TOL
    assert schur["max_diagonal_residual"] <= TOL
    if dec["multiplicity_free"]:
        assert schur["max_offdiagonal_residual"] <= TOL
        assert schur["violation"] == 0
    assert schur["zero"] + schur["scalar"] + schur["violation"] == schur["pairs"]
    assert schur["scalar"] == len(dec["dims"])
    assert structure["max_residual"] <= TOL
    assert structure["passes"] == structure["trials"] == 10
    witness = structure["twisted_diagonal_witness"]
    assert (witness is None) == dec["multiplicity_free"]
    if witness is not None:
        assert witness["dim_subspace"] < witness["dim_direct_sum"]
        assert witness["residual"] > TOL
