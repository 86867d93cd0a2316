"""The benchmark's own correctness check, run on one pass of every workload.

Each report of pass 0 (workload seed 1) goes through `cli.main` with `--out`,
as `perfbench/run.py` runs it, and `perfbench/check.check_report` must find
no problem: the exact invariants recorded in `perfbench/expected.json` and
the residual bounds.
"""

import pytest

from ginvspaces.cli import EXIT_OK, main

WORKLOADS = ("battery", "large_n", "large_group", "torus")


def test_every_benchmark_workload_is_covered(perfbench):
    assert set(perfbench.workloads.WORKLOADS) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_pass_reports_are_correct(perfbench, workload, tmp_path):
    seed = perfbench.workloads.pass_seed(1, 0)
    for i, report in enumerate(perfbench.workloads.reports(workload, seed)):
        path = tmp_path / f"{i:02d}.json"
        assert main(list(report.argv) + ["--out", str(path)]) == EXIT_OK, report.key
        text = path.read_text(encoding="utf-8")
        problems = perfbench.check.check_report(text, perfbench.expected[report.key], seed)
        assert problems == [], report.key
