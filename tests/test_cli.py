import json

import pytest

from ginvspaces.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_family_range,
    render_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decompose_s3_natural(capsys):
    code, out = run(
        capsys,
        "decompose", "--group", "symmetric:3", "--action", "natural",
        "--schur-trials", "5", "--structure-trials", "5",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == 1
    dec = payload["decomposition"]
    assert dec["verdict"] == "GCollection"
    assert dec["dims"] == [1, 2]
    assert dec["star_all_ones"] is True
    assert payload["schur"]["violation"] == 0
    assert payload["structure"]["passes"] == payload["structure"]["trials"]
    assert payload["structure"]["twisted_diagonal_witness"] is None


def test_decompose_s3_regular_negative_control(capsys):
    code, out = run(
        capsys,
        "decompose", "--group", "symmetric:3", "--action", "regular",
        "--schur-trials", "5", "--structure-trials", "5",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    dec = payload["decomposition"]
    assert dec["verdict"] == "NotUniqueDecomposition"
    assert dec["multiplicity_free"] is False
    assert any(2 in row for row in dec["star_table"])
    witness = payload["structure"]["twisted_diagonal_witness"]
    assert witness is not None
    assert witness["dim_subspace"] < witness["dim_direct_sum"]


def test_decompose_trivial_group(capsys):
    code, out = run(capsys, "decompose", "--group", "cyclic:1",
                    "--schur-trials", "2", "--structure-trials", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["decomposition"]["dims"] == [1]


def test_decompose_json_group_spec(capsys):
    code, out = run(
        capsys,
        "decompose", "--group", '{"points": 3, "generators": [[1, 2, 0]]}',
        "--schur-trials", "2", "--structure-trials", "2",
    )
    assert code == EXIT_OK
    assert json.loads(out)["decomposition"]["n_spaces"] == 3


def test_reports_are_byte_identical(capsys):
    args = ("decompose", "--group", "dihedral:4", "--schur-trials", "10",
            "--structure-trials", "10")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_emit_bases_flag(capsys):
    code, out = run(capsys, "decompose", "--group", "cyclic:2", "--emit-bases",
                    "--schur-trials", "2", "--structure-trials", "2")
    assert code == EXIT_OK
    spaces = json.loads(out)["decomposition"]["spaces"]
    assert all("basis" in s for s in spaces)


def test_parse_error_exit_code(capsys):
    code, out = run(capsys, "decompose", "--group", "frieze:7")
    assert code == EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "SpecParseError"


def test_intransitive_spec_rejected(capsys):
    code, out = run(
        capsys, "decompose", "--group", '{"points": 3, "generators": [[1, 0, 2]]}'
    )
    assert code == EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "NotTransitive"


def test_cap_exit_code(capsys):
    code, out = run(capsys, "decompose", "--group", "symmetric:6",
                    "--max-group-order", "100")
    assert code == EXIT_CAP
    assert json.loads(out)["error"]["type"] == "CapExceeded"


def test_survey_json_and_csv(capsys):
    code, out = run(capsys, "survey", "cyclic:2..4", "--action", "regular")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [2, 3, 4]
    assert all(r["verdict"] == "GCollection" for r in rows)

    code, out = run(capsys, "survey", "cyclic:2..4", "--action", "regular",
                    "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,n,action,group_order")
    assert len(lines) == 4
    assert lines[1] == "cyclic,2,regular,2,2,2,1|1,true,true,GCollection"


def test_survey_mixed_families(capsys):
    code, out = run(capsys, "survey", "dihedral:3..4", "symmetric:3")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [(r["family"], r["n"]) for r in rows] == [
        ("dihedral", 3), ("dihedral", 4), ("symmetric", 3),
    ]
    assert all(r["multiplicity_free"] for r in rows)


def test_survey_symmetric_regular_not_multiplicity_free(capsys):
    code, out = run(capsys, "survey", "symmetric:3..4", "--action", "regular")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [r["points"] for r in rows] == [6, 24]
    assert all(not r["multiplicity_free"] for r in rows)
    assert all(r["verdict"] == "NotUniqueDecomposition" for r in rows)


def test_parse_family_range():
    assert parse_family_range("cyclic:2..4") == [("cyclic", 2), ("cyclic", 3), ("cyclic", 4)]
    assert parse_family_range("symmetric:3") == [("symmetric", 3)]
    with pytest.raises(Exception):
        parse_family_range("cyclic")
    with pytest.raises(Exception):
        parse_family_range("cyclic:4..2")


def test_torus_default_suites(capsys):
    code, out = run(capsys, "torus", "--degree", "4")
    assert code == EXIT_OK
    suites = json.loads(out)["suites"]
    assert suites["orthonormality_residual"] <= 1e-12
    assert suites["unitarity_residual"] <= 1e-12
    assert suites["completeness_residual"] <= 1e-12
    assert suites["fejer"]["monotone"] is True
    assert suites["polydisc"]["preserved"] is True
    assert suites["separation_scan"]["mismatches"] == 0


def test_torus_monomial_smoothing(capsys):
    code, out = run(capsys, "torus", "--degree", "4",
                    "--monomials", "2:1+0i", "--fejer", "4")
    assert code == EXIT_OK
    section = json.loads(out)["monomials"]
    assert section["input"] == [{"k": [2], "coeff": [1.0, 0.0]}]
    assert section["smoothed"][0]["coeff"][0] == pytest.approx(0.6)


def test_torus_polydisc_violation_reported(capsys):
    # negative powers start with "-", so the = form keeps argparse happy
    code, out = run(capsys, "torus", "--degree", "4",
                    "--monomials=-1:1+0i", "--check-polydisc")
    assert code == EXIT_OK
    assert json.loads(out)["monomials"]["polydisc"] is False


def test_torus_bad_args(capsys):
    code, out = run(capsys, "torus", "--n", "7")
    assert code == EXIT_PARSE
    code, out = run(capsys, "torus", "--monomials", "zz")
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "n, monomials", [("1", "99999999999999999999:1"), ("2", "1,-99999999999999999999:1")]
)
def test_torus_index_beyond_int64_rejected(capsys, n, monomials):
    code, out = run(capsys, "torus", "--n", n, "--degree", "2", "--monomials", monomials)
    assert code == EXIT_PARSE
    error = json.loads(out)["error"]
    assert error["type"] == "SpecParseError"
    assert "outside the degree-2 box" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--group", "cyclic:3", "--schur-trials", "-1"),
        ("decompose", "--group", "cyclic:3", "--structure-trials", "-1"),
        ("torus", "--degree", "2", "--unitarity-trials", "-1"),
        ("torus", "--degree", "2", "--polydisc-trials", "-1"),
        ("torus", "--degree", "2", "--fejer-functions", "0"),
    ],
)
def test_trial_counts_out_of_range_rejected(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_PARSE
    error = json.loads(out)["error"]
    assert error["type"] == "SpecParseError"
    assert argv[-2] in error["message"]


@pytest.mark.parametrize(
    "spec",
    ['{"points": true, "generators": [[0]]}', '{"points": 2, "generators": [[true, false]]}'],
)
def test_json_booleans_rejected_in_group_spec(capsys, spec):
    code, out = run(capsys, "decompose", "--group", spec)
    assert code == EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "SpecParseError"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["survey", "cyclic:3", "--out", str(target)])
    assert code == EXIT_OK
    assert json.loads(target.read_text())["rows"][0]["n"] == 3


def test_group_spec_from_file(tmp_path, capsys):
    spec = tmp_path / "group.json"
    spec.write_text('{"points": 3, "generators": [[1, 2, 0]]}')
    code, out = run(capsys, "decompose", "--group", str(spec),
                    "--schur-trials", "2", "--structure-trials", "2")
    assert code == EXIT_OK
    assert json.loads(out)["group"]["order"] == 3


def test_group_spec_from_stdin(monkeypatch, capsys):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO('{"points": 2, "generators": [[1, 0]]}'))
    code, out = run(capsys, "decompose", "--group", "-",
                    "--schur-trials", "2", "--structure-trials", "2")
    assert code == EXIT_OK
    assert json.loads(out)["group"]["points"] == 2


def test_render_json_float_formatting():
    assert render_json(1e-9) == "1.0000000000000001e-09"
    assert render_json({"a": [True, None, 2]}) == '{\n  "a": [true, null, 2]\n}'
    assert render_json(complex(1.5, -2.0)) == "[1.5, -2]"
