import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ginvspaces

from ginvspaces import cli, decomposition, torus
from ginvspaces.cli import (
    EXIT_CAP,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_family_range,
    render_json,
    resolve_group,
)
from ginvspaces.errors import PropertyViolation, StructureFailure
from ginvspaces.invariant_subspaces import StructureWitness


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


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose",),
        ("frobnicate", "--group", "cyclic:3"),
        ("decompose", "--group", "cyclic:3", "--action", "weird"),
        ("torus", "--n", "x"),
        ("torus", "--degree", "2", "--monomials", "-1:1"),
    ],
    ids=["missing-group", "unknown-subcommand", "bad-choice", "non-int", "option-like-value"],
)
def test_usage_errors_give_a_json_parse_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert json.loads(captured.out)["error"]["type"] == "SpecParseError"
    assert captured.err == ""


def test_help_still_exits_0(capsys):
    assert main(["decompose", "--help"]) == EXIT_OK
    assert "--group" in capsys.readouterr().out


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
    "argv",
    [
        ("decompose", "--group", "cyclic:4", "--seed", "-1"),
        ("survey", "cyclic:3..4", "--seed", "-5"),
        ("torus", "--seed", "-1"),
    ],
)
def test_negative_seed_rejected(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_PARSE
    error = json.loads(out)["error"]
    assert error["type"] == "SpecParseError"
    assert "--seed" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--group", "symmetric:3", "--action", "regular", "--tol", "3e-16"),
        ("decompose", "--group", "dihedral:8", "--tol", "1e-15"),
        ("decompose", "--group", "cyclic:24", "--action", "regular", "--tol", "1e-15"),
        ("decompose", "--group", "regular:dihedral:30", "--tol", "1e-15"),
        ("survey", "cyclic:3..5", "--tol", "1e-15"),
    ],
)
def test_tol_below_the_rounding_floor_rejected(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_PARSE
    error = json.loads(out)["error"]
    assert error["type"] == "SpecParseError"
    assert "--tol" in error["message"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="open defect: a cluster's basis error grows as eps |m| / eigengap, so the "
    "certificate of a sound decomposition reads 4.3e-12 against a tol of 2.1e-13",
)
def test_tol_just_above_the_rounding_floor_accepts_a_sound_decomposition(capsys):
    # the cyclic group of order 60 acting on itself has 60 distinct eigenvalues
    tol = 1.0001 * 16 * 60 * float(np.finfo(float).eps)
    code, out = run(capsys, "decompose", "--group", "regular:cyclic:60", "--tol", repr(tol))
    if code == EXIT_PARSE:  # a refused argv is a broken test, not the defect: no xfail
        raise ValueError(out)
    assert code == EXIT_OK, out


def test_decompose_natural_action_builds_no_element_lookup(monkeypatch, capsys):
    built = []

    def resolve(*args):
        built.append(resolve_group(*args))
        return built[-1]

    monkeypatch.setattr("ginvspaces.cli.resolve_group", resolve)
    code, _ = run(capsys, "decompose", "--group", "dihedral:6", "--structure-trials", "5")
    assert code == EXIT_OK
    assert "_index" not in vars(built[0])


@pytest.mark.parametrize(
    "spec, n_spaces",
    [
        ("cyclic:4", 4),
        ("regular:symmetric:3", 4),
        ('{"points": 3, "generators": [[1, 2, 0], [1, 0, 2]]}', 2),
    ],
    ids=["cyclic:4", "regular:symmetric:3", "json:symmetric:3"],
)
def test_decompose_run_leaves_numpy_ma_unimported(tmp_path, spec, n_spaces):
    # numpy.ma costs megabytes of resident memory in every CLI process
    script = (
        "import sys\n"
        "from ginvspaces.cli import main\n"
        "code = main(['decompose', '--group', sys.argv[2], '--out', sys.argv[1]])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(ginvspaces.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "report.json"), spec],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.split() == ["0", "False"]
    assert json.loads((tmp_path / "report.json").read_text())["decomposition"]["n_spaces"] == n_spaces


def _exact_fields(report: dict) -> dict:
    """The report fields that no change in floating-point rounding may move."""
    dec, schur, structure = report["decomposition"], report["schur"], report["structure"]
    witness = structure["twisted_diagonal_witness"]
    return {
        "dims": dec["dims"],
        "star_table": dec["star_table"],
        "verdict": dec["verdict"],
        "first_support": [s["first_support"] for s in dec["spaces"]],
        "counts": [schur[k] for k in ("pairs", "trials_per_pair", "zero", "scalar", "violation")]
        + [structure["trials"], structure["passes"], len(structure["failures"])]
        + [structure["injectivity"]["subsets"], structure["injectivity"]["ok"]],
        "witness": witness and [witness["omega"], witness["dim_subspace"], witness["dim_direct_sum"]],
    }


def _float_gaps(a, b) -> list:
    """|a - b| for every pair of leaves of two same-shaped reports that differ; a
    differing leaf must be a float on one side (17 digits render 4.0 as 4)."""
    if isinstance(a, dict):
        assert list(a) == list(b)
        return [gap for k in a for gap in _float_gaps(a[k], b[k])]
    if isinstance(a, list):
        assert len(a) == len(b)
        return [gap for x, y in zip(a, b) for gap in _float_gaps(x, y)]
    if a == b:
        return []
    assert float in (type(a), type(b)), (a, b)
    return [abs(a - b)]


def test_report_floats_alone_move_with_the_blas_thread_count():
    # BLAS sums in another order at another thread count, so residuals, kernel rows and
    # the witness residual may change in the last bits; at n = 120 they do
    argv = ["decompose", "--group", "regular:symmetric:5", "--schur-trials", "5",
            "--structure-trials", "5"]
    src = str(Path(ginvspaces.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "ginvspaces.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=300, check=True)
        reports.append(json.loads(done.stdout))
    one, two = reports
    assert _exact_fields(one) == _exact_fields(two)
    assert max(_float_gaps(one, two), default=0.0) <= one["params"]["tol"]


@pytest.mark.parametrize(
    "spec",
    [
        '{"points": true, "generators": [[0]]}',
        '{"points": 2, "generators": [[true, false]]}',
        '{"points": 2, "generators": [[1.5, 0]]}',
        '{"points": 2, "generators": [["1", "0"]]}',
        '{"points": 2, "generators": [[99999999999999999999, 0]]}',
        '{"points": 2, "generators": [null]}',
        '{"points": 2, "generators": [{"a": 1}]}',
    ],
)
def test_json_booleans_rejected_in_group_spec(capsys, spec):
    code, out = run(capsys, "decompose", "--group", spec)
    assert code == EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "SpecParseError"


@pytest.mark.parametrize(
    "spec, keys",
    [
        ('{"points": 3, "generators": [[1,2,0]], "generatorz": [[0,2,1]]}',
         "['generators', 'generatorz', 'points']"),
        ('{"points": 3, "generators": [[1,2,0]], "cap": 10}', "['cap', 'generators', 'points']"),
        ('{"points": 3}', "['points']"),
    ],
    ids=["misspelled-generators", "extra-key", "missing-generators"],
)
def test_json_spec_with_unknown_or_missing_keys_names_them(capsys, spec, keys):
    # a misspelled key used to be dropped, and the rest of the spec decomposed
    code, out = run(capsys, "decompose", "--group", spec)
    assert code == EXIT_PARSE
    assert json.loads(out)["error"] == {
        "type": "SpecParseError",
        "message": f'group JSON needs exactly "points" and "generators", not {keys}',
    }


@pytest.mark.parametrize("family", ["cyclic", "dihedral"])
def test_family_larger_than_the_cap_exits_before_enumerating(capsys, family):
    # a transitive family on n points has at least n elements
    code, out = run(capsys, "decompose", "--group", f"{family}:99999999999999999999")
    assert code == EXIT_CAP
    assert json.loads(out)["error"]["type"] == "CapExceeded"


def test_huge_schur_trial_count_exits_with_the_estimate(capsys):
    # refused by the size estimate before the (trials, r) draws exist: 32 B for
    # each of the 3 orbitals of each trial
    code, out = run(capsys, "decompose", "--group", "cyclic:3", "--schur-trials", "99999999999999")
    assert code == EXIT_CAP
    error = json.loads(out)["error"]
    assert error["type"] == "CapExceeded"
    assert "9.600e+15 bytes" in error["message"]


TORUS_SUITES = (
    "monomial_orthonormality_residual",
    "unitarity_residual",
    "completeness_residual_model",
    "smoothing_commutes_residual",
    "fejer_monotonicity",
    "polydisc_rotation_trials",
    "separation_scan_1d",
)


@pytest.mark.parametrize(
    "extra, flag",
    [
        (("--fejer", "-1"), "--fejer"),
        (("--monomials", "2:1", "--fejer", "-1"), "--fejer"),
        (("--monomials", "zz"), "zz"),
        (("--monomials", "2:1;3:x"), "3:x"),
        (("--monomials", "9:1"), "outside the degree-2 box"),
    ],
)
def test_torus_input_rejected_before_any_suite_runs(monkeypatch, capsys, extra, flag):
    def suite_ran(*args, **kwargs):
        raise AssertionError("a suite ran before the input was validated")

    for name in TORUS_SUITES:
        monkeypatch.setattr(torus, name, suite_ran)
    code, out = run(capsys, "torus", "--degree", "2", *extra)
    assert code == EXIT_PARSE
    error = json.loads(out)["error"]
    assert error["type"] == "SpecParseError"
    assert flag in error["message"]


def test_property_violation_payload_carries_prop_and_residual(monkeypatch, capsys):
    def violated(*args, **kwargs):
        raise PropertyViolation("reproduction", 0.125)

    monkeypatch.setattr("ginvspaces.cli.frame_kernel_properties", violated)
    code, out = run(capsys, "decompose", "--group", "cyclic:3")
    assert code == EXIT_INTERNAL
    assert json.loads(out)["error"] == {
        "type": "PropertyViolation",
        "message": "kernel property reproduction violated: residual 1.250e-01",
        "prop": "reproduction",
        "residual": 0.125,
    }


@pytest.mark.parametrize(
    "attr, replacement, message",
    [
        # cyclic:3 spaces are lines with |P[x, y]| = 1/3: 2n max|P - 0| = 2
        ("_orbital_mean", lambda p, labels: np.zeros_like(p),
         "cluster commutant residual 2.000e+00"),
        ("character_gram", lambda w, starts, action: 1.25 * np.eye(len(starts)),
         "character Gram diagonal residual 2.500e-01"),
        ("completeness_residual", lambda *a: 0.25, "completeness residual 2.500e-01"),
        ("orthogonality_residual", lambda *a: 0.25, "orthogonality residual 2.500e-01"),
    ],
    ids=["commutant", "gamma", "completeness", "orthogonality"],
)
def test_minimality_failure_payload_names_check_residual_and_tol(
    monkeypatch, capsys, attr, replacement, message
):
    monkeypatch.setattr(decomposition, attr, replacement)
    code, out = run(capsys, "decompose", "--group", "cyclic:3")
    assert code == EXIT_INTERNAL
    assert json.loads(out)["error"] == {
        "type": "MinimalityFailure",
        "message": message + " exceeds tol 1.000e-09",
    }


@pytest.mark.parametrize(
    "witness, payload",
    [
        (
            StructureWitness(omega=(0, 2), dim_subspace=1, dim_direct_sum=3, residual=0.5),
            {"omega": [0, 2], "dim_subspace": 1, "dim_direct_sum": 3, "residual": 0.5},
        ),
        (None, None),
    ],
)
def test_structure_failure_payload_carries_witness(monkeypatch, capsys, witness, payload):
    def failed(*args, **kwargs):
        raise StructureFailure("subspace does not match its direct sum", witness=witness)

    monkeypatch.setattr("ginvspaces.cli.verify_structure", failed)
    code, out = run(capsys, "decompose", "--group", "cyclic:3", "--schur-trials", "1")
    assert code == EXIT_INTERNAL
    assert json.loads(out)["error"] == {
        "type": "StructureFailure",
        "message": "subspace does not match its direct sum",
        "witness": payload,
    }


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


def test_group_spec_file_not_utf8_is_a_parse_error(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_bytes(b"\xff\xfe\x00")
    code, out = run(capsys, "decompose", "--group", str(spec))
    assert code == EXIT_PARSE
    error = json.loads(out)["error"]
    assert error["type"] == "SpecParseError"
    assert str(spec) in error["message"] and "decode" in error["message"]


def _stage_ran(*args, **kwargs):
    raise AssertionError("a stage ran before --out was checked")


@pytest.mark.parametrize("command", [["decompose", "--group", "cyclic:3"], ["torus"]])
@pytest.mark.parametrize("target", ["missing/report.json", "dir.json"])
def test_out_that_cannot_be_written_fails_before_any_stage(monkeypatch, tmp_path, capsys,
                                                           command, target):
    monkeypatch.setattr(cli, "build_report", _stage_ran)
    for name in TORUS_SUITES:
        monkeypatch.setattr(torus, name, _stage_ran)
    (tmp_path / "dir.json").mkdir()
    path = tmp_path / target
    code, out = run(capsys, *command, "--out", str(path))
    assert code == EXIT_PARSE
    error = json.loads(out)["error"]
    assert error["type"] == "SpecParseError"
    assert error["message"].startswith(f"cannot write the report to {str(path)!r}")
    assert not (tmp_path / "missing").exists()


def test_report_write_failure_is_a_parse_error_on_stdout(monkeypatch, tmp_path, capsys):
    # --out passes the check, then its directory goes away while the stages run
    build = cli.build_report

    def remove_dir_then_build(*args, **kwargs):
        (tmp_path / "sub" / "report.json").unlink()
        (tmp_path / "sub").rmdir()
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_report", remove_dir_then_build)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "sub" / "report.json"
    code, out = run(capsys, "decompose", "--group", "cyclic:3", "--out", str(target))
    assert code == EXIT_PARSE
    error = json.loads(out)["error"]
    assert error == {"type": "SpecParseError",
                     "message": f"cannot write the report to {str(target)!r}: "
                                "No such file or directory"}


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


# path arguments the fuzzers draw, resolved by the `paths` fixture in one temporary
# directory: a valid spec file, a non-UTF-8 file, a directory named x.json, and
# --out targets in that directory and in a missing one
_SPEC_FILE, _NOT_UTF8, _DIR_JSON = "<spec.json>", "<bad.json>", "<x.json/>"
_OUT_PRESENT, _OUT_MISSING = "<out.json>", "<missing/out.json>"
# no --out or a writable one two times in three
_OUT_FLAG = st.sampled_from(
    [None, None, _OUT_PRESENT, _OUT_PRESENT, _OUT_MISSING, _DIR_JSON]
).map(lambda p: p and ["--out", p])


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv-paths")
    (root / "spec.json").write_text('{"points": 4, "generators": [[1, 2, 3, 0]]}')
    (root / "bad.json").write_bytes(b"\xff\xfe\x00")
    (root / "x.json").mkdir()
    return {_SPEC_FILE: root / "spec.json", _NOT_UTF8: root / "bad.json",
            _DIR_JSON: root / "x.json", _OUT_PRESENT: root / "out.json",
            _OUT_MISSING: root / "missing" / "out.json"}


def run_resolved(argv, paths):
    """`main` on argv with its path placeholders resolved: the exit code and the one
    text written, to stdout or to the --out file."""
    report = paths[_OUT_PRESENT]
    report.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(paths.get(a, a)) for a in argv])
    written = report.read_text() if report.exists() else ""
    assert not (written and out.getvalue())
    return code, written or out.getvalue()


def _maybe_garbage(valid, garbage):
    """Mostly valid draws, with garbage one time in four; shrinks toward valid."""
    bad = st.sampled_from([False, False, False, True])  # sampled_from shrinks to the first
    return bad.flatmap(lambda b: st.sampled_from(garbage) if b else valid)


@st.composite
def torus_argvs(draw):
    """A torus argv over ranges reaching past every bound, and its numeric fields.
    --monomials terms "k1,..,kj:c" usually have n indices; garbage may replace an
    index, a coefficient, the index count or the whole term. --out, if drawn, is one
    of the targets of `paths`."""
    n = draw(_maybe_garbage(st.integers(1, 3), [-1, 0, 4]))
    degree = draw(_maybe_garbage(st.integers(0, 4), [-1, 17] + list(range(5, 17))))
    trials = [draw(_maybe_garbage(st.integers(1, 3), [-1, 0])) for _ in range(3)]
    fejer = draw(st.none() | _maybe_garbage(st.integers(0, 5), [-1]))
    index = _maybe_garbage(
        st.integers(-4, 4).map(str), ["", "x", "1.5", "9", "99999999999999999999"]
    )
    coeff = _maybe_garbage(
        st.sampled_from(["1", "0.5-1i", "-2i", "3+0i"]), ["i", "1e400", "nan", "", "x", "1:2"]
    )
    length = _maybe_garbage(st.just(max(n, 1)), [1, 2, 3, 4])
    term = _maybe_garbage(
        st.tuples(length.flatmap(lambda m: st.lists(index, min_size=m, max_size=m)), coeff).map(
            lambda t: ",".join(t[0]) + ":" + t[1]
        ),
        ["", "zz", ":", "1,2", " ; "],
    )
    monomials = draw(st.none() | st.lists(term, max_size=3).map(";".join))
    argv = ["torus", "--n", str(n), "--degree", str(degree), "--unitarity-trials", str(trials[0]),
            "--fejer-functions", str(trials[1]), "--polydisc-trials", str(trials[2])]
    if fejer is not None:
        argv += ["--fejer", str(fejer)]
    if draw(st.booleans()):
        argv.append("--check-polydisc")
    if monomials is not None:
        argv.append(f"--monomials={monomials}")  # the = form: a term may start with "-"
    argv += draw(_OUT_FLAG) or []
    numbers_valid = (
        1 <= n <= 3 and 0 <= degree <= 16 and min(trials) >= 0 and trials[1] >= 1
        and (fejer is None or fejer >= 0)
    )
    return argv, n, degree, numbers_valid, monomials is not None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(torus_argvs())
def test_torus_argvs_give_a_report_or_a_json_error(paths, drawn):
    argv, n, degree, numbers_valid, has_monomials = drawn
    assume(not (numbers_valid and degree > 4))  # keeps every report on a small box
    code, text = run_resolved(argv, paths)
    payload = json.loads(text)
    if code == EXIT_OK:
        assert numbers_valid
        assert payload["params"]["n"] == n and payload["params"]["degree"] == degree
        assert ("monomials" in payload) == has_monomials
    else:
        assert code == EXIT_PARSE
        assert payload["error"]["type"] in ("SpecParseError", "DimensionMismatch")


# natural and regular actions of these have at most 8 points
_SMALL_GROUPS = (
    [f"cyclic:{n}" for n in range(1, 9)]
    + ["dihedral:3", "dihedral:4", "symmetric:2", "symmetric:3"]
    + ["regular:cyclic:4", "regular:dihedral:3", '{"points": 4, "generators": [[1, 2, 3, 0]]}']
)
_BAD_SPECS = ["frieze:7", "cyclic:", "cyclic:x", "cyclic:0", "dihedral:2", "symmetric:-1", "{",
              '{"points": 2}', '{"points": 3, "generators": [[1, 0, 2]]}', "regular:",
              "cyclic:99999999999999999999"]
_SMALL_RANGES = ["cyclic:1..4", "cyclic:6", "dihedral:3..4", "symmetric:2..3", "cyclic:8..8"]
_BAD_RANGES = ["cyclic:4..2", "cyclic", "x:3", "cyclic:a..b", "dihedral:2", "symmetric:0", "",
               "-3", "cyclic:1..x"]


def _flag(name, valid, garbage):
    """`[name, value]`, a value mostly drawn from `valid`, or no flag at all."""
    value = _maybe_garbage(valid.map(str), garbage)
    return st.none() | value.map(lambda v: [name, v])


@st.composite
def group_argvs(draw):
    """A decompose or survey argv on groups of at most 8 points, with garbage
    specs, ranges and flag values, --tol down past the rounding floor, negative
    trial counts, and the spec files and --out targets of `paths`."""
    command = draw(st.sampled_from(["decompose", "survey"]))
    if command == "decompose":
        groups = _maybe_garbage(st.sampled_from(_SMALL_GROUPS), _BAD_SPECS)
        # a path one time in four
        argv = ["decompose", "--group",
                draw(_maybe_garbage(groups, [_SPEC_FILE, _NOT_UTF8, _DIR_JSON]))]
        trials = st.integers(0, 2)
        flags = [_flag("--schur-trials", trials, ["-1", "x", "1.5"]),
                 _flag("--structure-trials", trials, ["-3", "x"])]
        argv += ["--schur-trials", "1", "--structure-trials", "1"]  # a drawn flag comes later
    else:
        ranges = _maybe_garbage(st.sampled_from(_SMALL_RANGES), _BAD_RANGES)
        argv = ["survey", *draw(st.lists(ranges, min_size=1, max_size=2))]
        flags = [_flag("--format", st.sampled_from(["json", "csv"]), ["xml"])]
    flags += [
        _flag("--action", st.sampled_from(["natural", "regular"]), ["weird"]),
        _flag("--tol", st.sampled_from([1e-9, 1e-6, 1e-3, 1e-12, 1e-14, 1e-15, 1e-16]),
              ["0", "-1", "1", "nan", "inf", "x", "1e-400"]),
        _flag("--seed", st.integers(0, 5), ["-1", "x"]),
        _flag("--max-group-order", st.just(20000), ["0", "1", "5", "x"]),
    ]
    for flag in [*flags, _OUT_FLAG]:
        argv += draw(flag) or []
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(group_argvs())
def test_group_argvs_give_a_report_or_a_json_error(paths, argv):
    code, text = run_resolved(argv, paths)
    if code != EXIT_OK:
        assert code in (EXIT_PARSE, EXIT_CAP, EXIT_INTERNAL)
        assert json.loads(text)["error"]["type"]
    elif text.startswith("family,"):
        assert argv[0] == "survey" and len(text.splitlines()) > 1
    else:
        payload = json.loads(text)
        params = payload["params"]
        assert params["seed"] >= 0 and 0 < params["tol"] < 1
        if argv[0] == "decompose":
            points = payload["group"]["points"]
            assert points <= 8 and sum(payload["decomposition"]["dims"]) == points
            assert params["tol"] >= 16 * points * np.finfo(float).eps
            assert min(params["schur_trials"], params["structure_trials"]) >= 0
        else:
            assert payload["rows"] and all(r["points"] <= 8 for r in payload["rows"])
