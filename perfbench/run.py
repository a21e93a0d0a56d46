"""Run one workload of the specdec benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-large --seed 0 --seconds 40 --trace 0

Workloads: exact-large, campaign-long, oracle-small (see workloads.py). The
benchmark imports specdec from the checkout's own src/ directory, never from
an installed copy, and writes only under the checkout's .bench_out/.

Every job runs single-threaded as a closed loop: each job starts when the
previous one ends, and no two processes ever run at once. A round is one pass
over the workload's fixed job set; rounds repeat until the next one would
overrun the time given (at least one round runs).

--trace 0 reports the end-to-end metrics, measured with tracing off. The
rounds run in WORKERS fresh processes one after another, each for a
WORKERS-th of --seconds, because on a shared host one process can run
persistently slower than the next:
    setup_s      median time from spawning a worker to its ready line: start
                 the interpreter, import specdec, build pairs, policies, configs
    wall_s       one round: the sum over ops of each op's fastest time
    peak_rss_mb  largest peak resident memory of the workers
--trace 1 runs, in this process, untraced rounds for half of --seconds and
traced rounds for the other half, reports the per-layer metrics of
spans.layer_metrics plus trace.round_s and trace.overhead_s, and writes the
spans to .bench_out/spans-<workload>-seed<seed>.jsonl.

Readable lines come first, with the environment, runs_per_s, ops and
ops_failed; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. attempted counts ops (a job with its
check), failed counts ops that raised or failed their check.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in the set-up probes.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKERS = 4
WORKLOAD_NAMES = ("exact-large", "campaign-long", "oracle-small")
ACCOUNTING_TOL = 1e-6  # seconds: traced self times must sum to the round time


def parse_args(argv):
    parser = argparse.ArgumentParser(description="specdec benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import specdec from this checkout's src/, refusing any other copy."""
    package_dir = SRC / "specdec"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no specdec sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import specdec

    if Path(specdec.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"perfbench: imported specdec from {specdec.__file__}, not {package_dir}")
    return specdec


def git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": workload, "seed": seed, "trace": trace, "commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas_version, "nproc": os.cpu_count(), "threads": PINNED_THREADS,
    }


def run_workers(workload: str, seed: int, seconds: float, workloads):
    """Run the untraced rounds in up to WORKERS fresh processes, one after another.

    Each worker builds the workload, prints a ready line, runs rounds for a
    WORKERS-th of ``seconds`` and prints its rounds as JSON; no further worker
    starts when it would overrun ``seconds``. The time from spawning a worker
    to its ready line is one set-up sample.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker",
            "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds / WORKERS)]
    setup_times, rounds, peak_rss, op_runs, durations = [], [], [], [], []
    start = time.perf_counter()
    while len(durations) < WORKERS and (
            not durations
            or time.perf_counter() - start + statistics.median(durations) <= seconds):
        spawned = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            setup_times.append(time.perf_counter() - spawned)
            result = proc.stdout.read()
        if proc.returncode != 0 or not ready or not result:
            raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
        durations.append(time.perf_counter() - spawned)
        data = json.loads(result)
        rounds += [workloads.RoundResult(**r) for r in data["rounds"]]
        peak_rss.append(data["peak_rss_mb"])
        op_runs = data["op_runs"]
    return setup_times, rounds, max(peak_rss), op_runs


def worker(workload: str, seed: int, seconds: float, workloads) -> None:
    ops = workloads.WORKLOADS[workload](workloads.Context(ROOT, OUT_DIR), seed)
    print(json.dumps({"ready": True}), flush=True)
    yardstick = workloads.Yardstick(time.perf_counter)
    rounds = run_rounds(lambda k: workloads.run_round(ops, time.perf_counter, yardstick),
                        seconds, time.perf_counter)
    print(json.dumps({
        "rounds": [dataclasses.asdict(r) for r in rounds],
        "op_runs": [op.runs for op in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }), flush=True)


def run_rounds(run_one, budget: float, clock) -> list:
    """Call ``run_one(k)`` for rounds k = 0, 1, ... while the next fits in ``budget``."""
    results = []
    start = clock()
    while True:
        results.append(run_one(len(results)))
        typical = statistics.median(r.seconds for r in results)
        if clock() - start + typical > budget:
            return results


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def untraced_metrics(workload: str, seed: int, seconds: float, workloads, report) -> tuple:
    setup_times, rounds, peak_rss_mb, op_runs = run_workers(workload, seed, seconds, workloads)
    round_times = [sum(r.op_seconds) for r in rounds]
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": workloads.normalized_round_seconds(rounds), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    report.update(setup_times=setup_times, op_runs=op_runs,
                  rounds=[dataclasses.asdict(r) for r in rounds])
    q1, q3 = quartiles(round_times)
    print(f"setup_s: {metrics['setup_s']['value']:.4f} s "
          f"(median of {len(setup_times)} fresh interpreters)")
    print(f"wall_s: {metrics['wall_s']['value']:.4f} s (at the reference host speed, from "
          f"{len(rounds)} rounds in {len(setup_times)} processes; measured round time "
          f"median {statistics.median(round_times):.4f} s, quartiles {q1:.4f}..{q3:.4f}, "
          f"yardstick median {statistics.median(y for r in rounds for y in r.yardstick_seconds) * 1e3:.3f} ms)")
    runs = sum(op_runs)
    if runs:
        runs_per_s = runs / workloads.normalized_round_seconds(rounds, op_runs)
        report["runs_per_s"] = runs_per_s
        print(f"runs_per_s: {runs_per_s:.1f} runs/s "
              f"({runs} decoding runs per round; {workloads.SIZES[workload]})")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    return metrics, rounds


def traced_metrics(workload: str, seed: int, seconds: float, specdec, workloads,
                   report) -> tuple:
    clock = time.perf_counter
    ops = workloads.WORKLOADS[workload](workloads.Context(ROOT, OUT_DIR), seed)
    yardstick = workloads.Yardstick(clock)
    untraced = run_rounds(lambda k: workloads.run_round(ops, clock, yardstick),
                          seconds / 2, clock)

    recorder = spans.Recorder(clock)

    def traced_round(k):
        with recorder.span("round", "bench", op=f"round{k}"):
            return workloads.run_round(
                traced_ops, clock, yardstick,
                lambda name, layer: recorder.span(name, layer, op=f"{k}:{name}"))

    recorder.install(specdec)
    try:
        ctx = workloads.Context(ROOT, OUT_DIR, wrap_policy=recorder.wrap_policy,
                                span=recorder.span, counts=recorder.counts)
        with recorder.span("setup", "bench", op="setup"):
            traced_ops = workloads.WORKLOADS[workload](ctx, seed)
        recorder.counts.clear()
        traced = run_rounds(traced_round, seconds / 2, clock)
    finally:
        recorder.uninstall()
    span_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    recorder.write(span_path)

    layer = spans.layer_metrics(recorder.spans, recorder.counts, len(traced))
    round_times = [e[spans.END] - e[spans.START] for e in recorder.spans
                   if e[spans.NAME] == "round" and e[spans.LAYER] == "bench"]
    layer["trace.round_s"] = workloads.normalized_round_seconds(traced)
    layer["trace.overhead_s"] = (layer["trace.round_s"]
                                 - workloads.normalized_round_seconds(untraced))
    accounted = sum(layer[f"{name}.self_s"] for name in spans.SELF_LAYERS) * len(traced)
    gap = abs(accounted - sum(round_times))
    report["trace_accounting_gap_s"] = gap
    report["round_times"] = [r.seconds for r in untraced]
    report["traced_round_times"] = round_times
    print(f"traced rounds: {len(traced)}, untraced rounds: {len(untraced)}, "
          f"spans written to {span_path.relative_to(ROOT)}")
    print(f"self times account for the traced round time within {gap:.2e} s")
    for name, value in layer.items():
        print(f"  {name}: {value:.6g}")
    metrics = {name: {"value": value, "unit": spans.unit_of(name)}
               for name, value in layer.items()}
    return metrics, untraced + traced, gap <= ACCOUNTING_TOL


def main(argv=None) -> int:
    args = parse_args(argv)
    specdec = import_program()
    import workloads  # needs specdec importable from src/

    OUT_DIR.mkdir(exist_ok=True)
    if args.worker:
        worker(args.workload, args.seed, args.seconds, workloads)
        return 0

    env = environment(args.workload, args.seed, args.trace)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    report: dict = {"env": env}
    if args.trace:
        metrics, rounds, consistent = traced_metrics(
            args.workload, args.seed, args.seconds, specdec, workloads, report)
    else:
        metrics, rounds = untraced_metrics(
            args.workload, args.seed, args.seconds, workloads, report)
        consistent = True
    failures = [message for r in rounds for message in r.failures]
    ops = sum(len(r.op_seconds) for r in rounds)
    print(f"ops: {ops} ops_failed: {len(failures)}")
    for message in sorted(set(failures)):
        print(f"perfbench: failed op {message}", file=sys.stderr)
    report.update(metrics=metrics, ops=ops, ops_failed=len(failures),
                  failures=sorted(set(failures)))
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not failures and consistent, "attempted": ops,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
