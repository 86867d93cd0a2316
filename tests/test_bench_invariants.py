"""The benchmark's own correctness check, run on one pass of every workload.

Each report of pass 0 (workload seed 1), and of two more `large_n` passes,
goes through `cli.main` with `--out`, as `perfbench/run.py` runs it, and
`perfbench/check.check_report` must find no problem: the exact invariants
recorded in `perfbench/expected.json` and the residual bounds. A pass run
under `perfbench/spans.py`'s tracer, as `perfbench/run.py --trace 1` runs it,
must write the untraced bytes.
"""

import time

import pytest

from ginvspaces import cli
from ginvspaces.cli import EXIT_OK, main

WORKLOADS = ("battery", "large_n", "large_group", "torus")


def test_every_benchmark_workload_is_covered(perfbench):
    assert set(perfbench.workloads.WORKLOADS) == set(WORKLOADS)


# at the two extra seeds a cyclic:48 cluster once passed a generator-commutator
# check on P while its kernel nP broke 3-equivariance or 5-diagonal
PASSES = [pytest.param(w, 1, 0, id=w) for w in WORKLOADS] + [
    pytest.param("large_n", 3, 72, id="large_n-3072"),
    pytest.param("large_n", 8, 125, id="large_n-8125"),
]


@pytest.mark.parametrize("workload, workload_seed, index", PASSES)
def test_benchmark_pass_reports_are_correct(perfbench, workload, workload_seed, index, tmp_path):
    seed = perfbench.workloads.pass_seed(workload_seed, index)
    for i, report in enumerate(perfbench.workloads.reports(workload, seed)):
        path = tmp_path / f"{i:02d}.json"
        assert main(list(report.argv) + ["--out", str(path)]) == EXIT_OK, report.key
        text = path.read_text(encoding="utf-8")
        problems = perfbench.check.check_report(text, perfbench.expected[report.key], seed)
        assert problems == [], report.key


@pytest.mark.parametrize("workload", ["large_group", "large_n"])
def test_traced_pass_writes_the_untraced_bytes(perfbench, workload, tmp_path):
    # the tracer wraps the package's functions and binds their arguments by name,
    # so an API change it does not follow breaks `--trace 1`
    seed = perfbench.workloads.pass_seed(1, 0)
    reports = perfbench.workloads.reports(workload, seed)

    def one_pass(tag):
        texts = []
        for i, report in enumerate(reports):
            path = tmp_path / f"{tag}-{i:02d}.json"
            assert cli.main(list(report.argv) + ["--out", str(path)]) == EXIT_OK, report.key
            texts.append(path.read_text(encoding="utf-8"))
        return texts

    plain = one_pass("plain")
    tracer = perfbench.spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = one_pass("traced")
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert traced == plain
    metrics, problems = tracer.metrics(traced_s, traced_s)
    assert problems == []
    assert tracer.calls["cli.main"] == len(reports)
    assert metrics["schur.gather_entries"][0] > 0
