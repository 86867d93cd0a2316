"""Record the exact invariants of every report into ``expected.json``.

    python3 perfbench/record_expected.py --seed 1

Run once per change to the instance list, from the root of a checkout of a
commit whose reports are known to be right, and review the diff: the checker
then holds every later commit to these values. A report that exits non-zero
or breaks a residual bound is not recorded.
"""

import argparse
import json
import sys

import check
import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    cli = run.load_cli()
    out = run.OUT / "record"
    out.mkdir(parents=True, exist_ok=True)
    expected = {}
    for workload in workloads.WORKLOADS:
        for report in workloads.reports(workload, args.seed):
            path = out / "report.json"
            code = cli.main(list(report.argv) + ["--out", str(path)])
            payload = json.loads(path.read_text(encoding="utf-8"))
            problems = check.residual_problems(payload) if code == 0 else [f"exit {code}"]
            if problems:
                print(f"{report.key}: {problems}", file=sys.stderr)
                return 1
            expected[report.key] = check.invariants(payload)
            print(f"recorded {report.key}", file=sys.stderr)
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
