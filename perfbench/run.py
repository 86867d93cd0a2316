"""Benchmark of the ginvspaces CLI: whole reports, produced and checked.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each workload is a closed loop in one process: a pass runs every
report of the workload through ``ginvspaces.cli.main(argv)`` with ``--out``,
and each report is checked (``check.py``) as soon as it is written. Passes
repeat until the next one would end after ``--seconds``; at least one runs.

Pass ``i`` uses the report seed ``1000 * seed + i`` (``workloads.py``).

``--trace 0`` prints the end-to-end metrics: medians over the passes, and
the set-up time as the median of several fresh interpreters that import the
package and build the inputs. The gated times are scaled by the host's speed
over the same stretch, measured with the probes of ``reference.py``, and
also printed unscaled. ``report_s.max``, the unscaled times, ``host.scale``
and ``failed_frac`` are printed but left out of the result line.
``--trace 1`` runs pairs of one untraced and one traced pass (``spans.py``),
checks that the two write identical bytes, and prints the per-layer metrics,
medians over the pairs.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. ``--workload all`` runs each workload in its own process
and prints one table.
"""

import os

# one BLAS thread (no more than any host's core count), pinned before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 8
# printed with the others but left out of the result line, so not gated: the
# slowest single report rests on one report per pass and spreads more between
# runs than the gated times, and the unscaled times carry the host's drift
# (reference.py)
PRINTED_ONLY = ("report_s.max", "setup_s.unscaled", "pass_s.unscaled", "cpu_s.unscaled", "host.scale")


class MissingProgram(Exception):
    pass


def load_cli():
    """Import ``ginvspaces.cli`` from this checkout's source tree."""
    if not (SRC / "ginvspaces" / "cli.py").is_file():
        raise MissingProgram(f"no ginvspaces sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from ginvspaces import cli

    if Path(cli.__file__).resolve().parent != SRC / "ginvspaces":
        raise MissingProgram(f"imported ginvspaces from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int):
    """Everything a pass needs: the CLI module, the first pass's reports, and
    the expectations (the same for every seed)."""
    cli = load_cli()
    reports = workloads.reports(workload, workloads.pass_seed(seed, 0))
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    return cli, reports, {r.key: expected[r.key] for r in reports}


def run_context() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


@dataclass
class Pass:
    seed: int  # the report seed of this pass
    texts: list
    report_s: list
    problems: list  # one list per report; empty when the report is correct
    pass_s: float
    cpu_s: float
    scale: float  # reference seconds per second of this pass (reference.py)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def run_pass(cli, workload: str, expected, seed: int, outdir: Path, tracer=None, sampler=None) -> Pass:
    """One pass over the reports of `workload` with report seed `seed`. With a
    `sampler`, the host speed is sampled throughout and the times exclude the
    sampling; `scale` turns them into reference seconds. Without one, `scale`
    is 1."""
    reports = workloads.reports(workload, seed)
    texts, report_s, problems = [], [], []
    if sampler is not None:
        sampler.start()
    paused = (lambda: sampler.paused_s) if sampler is not None else (lambda: 0.0)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, report in enumerate(reports):
        path = outdir / f"{i:02d}.json"
        path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.report_id = i
        start, paused0 = time.perf_counter(), paused()
        try:
            code = cli.main(list(report.argv) + ["--out", str(path)])
        except Exception as exc:  # a crashed report counts as failed; the pass goes on
            code = f"{type(exc).__name__}: {exc}"
        report_s.append(time.perf_counter() - start - (paused() - paused0))
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        if code != 0:
            found = [f"exit {code}"]
        else:
            found = check.check_report(text, expected[report.key], seed)
        texts.append(text)
        problems.append(found)
    pass_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    scale = 1.0
    if sampler is not None:
        pass_s -= sampler.paused_s
        cpu_s -= sampler.paused_cpu_s
        sampler.stop()
        scale = sampler.scale()
    return Pass(seed, texts, report_s, problems, pass_s, cpu_s, scale)


def repeat(seconds: float, step):
    """Call `step(0)`, `step(1)`, ... until the next call would end after
    `seconds`; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(step(len(results)))
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return results


def ready_s(argv) -> float:
    """Wall seconds from spawning `argv` until it prints the wall clock."""
    t0 = time.time()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def setup_probe_s(workload: str, seed: int, probes: int) -> list:
    """Pairs of set-up times: a fresh interpreter from spawn until the package
    is imported and the inputs exist, then the import probe of reference.py."""
    probe = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    return [
        (ready_s(probe), ready_s([sys.executable, *reference.IMPORT_PROBE]))
        for _ in range(probes)
    ]


def report_problems(reports, passes) -> list:
    lines = []
    for p in passes:
        for report, found in zip(reports, p.problems):
            lines += [f"{report.key}: {problem}" for problem in found]
    return lines


def self_test_problems(reports, expected, last: Pass) -> list:
    samples = {}
    for report, text, found in zip(reports, last.texts, last.problems):
        if not found:
            samples.setdefault(report.key, text)
    missed = check.self_test(samples.items(), expected, last.seed)
    return [f"self-test: {m}" for m in missed]


def untraced(cli, reports, expected, args, outdir) -> tuple:
    # half the set-up probes run before the passes and half after, so that
    # their median spans the run
    setup_times = setup_probe_s(args.workload, args.seed, SETUP_PROBES // 2)
    sampler = reference.Sampler()
    passes = repeat(
        args.seconds,
        lambda i: run_pass(
            cli, args.workload, expected, workloads.pass_seed(args.seed, i), outdir, sampler=sampler
        ),
    )

    setup_times += setup_probe_s(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)

    def median(values) -> float:
        return statistics.median(list(values))

    metrics = {
        "setup_s": (
            median(t for t, _ in setup_times)
            * reference.REFERENCE_IMPORT_S
            / median(r for _, r in setup_times),
            "s",
        ),
        "pass_s": (median(p.pass_s * p.scale for p in passes), "s"),
        "report_s.max": (median(max(p.report_s) * p.scale for p in passes), "s"),
        "cpu_s": (median(p.cpu_s * p.scale for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s.unscaled": (median(t for t, _ in setup_times), "s"),
        "pass_s.unscaled": (median(p.pass_s for p in passes), "s"),
        "cpu_s.unscaled": (median(p.cpu_s for p in passes), "s"),
        "host.scale": (median(p.scale for p in passes), "ratio"),
    }
    return passes, metrics, []


def traced(cli, reports, expected, args, outdir) -> tuple:
    passes, layer_metrics, problems, tracers = [], [], [], []

    def pair(i):
        seed = workloads.pass_seed(args.seed, i)
        plain = run_pass(cli, args.workload, expected, seed, outdir)
        tracer = Tracer()
        tracer.install()
        try:
            seen = run_pass(cli, args.workload, expected, seed, outdir, tracer)
        finally:
            tracer.uninstall()
        passes.extend([plain, seen])
        for report, a, b in zip(reports, plain.texts, seen.texts):
            if a != b:
                problems.append(f"{report.key}: traced report bytes differ from the untraced run")
        metrics, accounting = tracer.metrics(seen.pass_s, plain.pass_s)
        metrics["cli.report_bytes"] = (sum(len(t.encode()) for t in seen.texts), "B")
        layer_metrics.append(metrics)
        problems.extend(accounting)
        tracers.append(tracer)

    repeat(args.seconds, pair)
    # spans stay in memory until every measured pass is done
    for i, tracer in enumerate(tracers):
        tracer.save(OUT / f"spans-{args.workload}-{args.seed}-{i}.npz")
    metrics = {
        name: (statistics.median(m[name][0] for m in layer_metrics), unit)
        for name, (_, unit) in layer_metrics[0].items()
    }
    return passes, metrics, problems


def run_workload(args) -> dict:
    """Run one workload, print every metric, and return the result line."""
    cli, reports, expected = setup(args.workload, args.seed)
    outdir = OUT / f"{args.workload}-{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    measure = traced if args.trace else untraced
    passes, metrics, problems = measure(cli, reports, expected, args, outdir)
    problems = report_problems(reports, passes) + problems
    problems += self_test_problems(reports, expected, passes[-1])
    attempted = sum(len(p.texts) for p in passes)
    failed = sum(p.failed for p in passes)
    printed = dict(metrics)
    if not args.trace:
        printed["failed_frac"] = (failed / attempted, "ratio")

    for line in problems:
        print(f"PROBLEM {line}", file=sys.stderr)
    print("context " + json.dumps(run_context()))
    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes of {len(reports)} reports")
    for name, (value, unit) in printed.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    print("printed " + json.dumps(printed))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in PRINTED_ONLY
        },
    }


def run_all(args) -> dict:
    """Every workload in its own process, then one table of every printed metric."""
    load_cli()
    results, printed = {}, {}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"workload {workload} exited {done.returncode}")
        lines = done.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1])
        printed[workload] = json.loads(lines[-2].removeprefix("printed "))
    print(f"{'metric':44s}" + "".join(f"{w:>14s}" for w in workloads.WORKLOADS) + "  unit")
    for name, (_, unit) in printed[workloads.WORKLOADS[0]].items():
        row = "".join(f"{printed[w][name][0]:>14.6g}" for w in workloads.WORKLOADS)
        print(f"{name:44s}{row}  {unit}")
    return {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "context": run_context(), "printed": printed, "workloads": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.setup_probe:
            setup(args.workload, args.seed)
            print(repr(time.time()))
            return 0
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
