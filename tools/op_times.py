"""Time each op of one benchmark workload on one or two source trees.

    python3 tools/op_times.py --workload exact-large [--seed 0] [--seconds 10]
        [--pairs 3] TREE [TREE2]

A tree is a checkout (or a ``git archive`` copy) holding ``src/specdec`` and
``perfbench/workloads.py``. For each of ``--pairs`` pairs of runs, each tree's
workload ops run in a fresh interpreter for ``--seconds``, rounds back to
back as in ``perfbench/run.py``, and the tree that goes first alternates from
pair to pair. An op's time in one run is the benchmark's own normalised
median over rounds (``workloads.normalized_round_seconds`` of that op alone),
so times are at the benchmark's reference host speed. Prints, per op, the
median over runs in ms for each tree and, with two trees, their ratio
TREE2 / TREE; then per tree the median and quartiles over runs of the
normalised round time (the sum over ops, perfbench's ``wall_s``), the median
over runs of the interpreter's peak resident memory (``ru_maxrss``, as
perfbench's ``peak_rss_mb``) and the count of failed ops.

The trees are only read: the workload's CLI outputs and configs go to a
temporary directory, and no bytecode is written. Standard library and numpy
only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child(tree: Path, workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Run ``workload``'s rounds from ``tree`` for ``seconds``; op names and normalised times."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    ops = workloads.WORKLOADS[workload](workloads.Context(tree, out_dir), seed)
    clock = time.perf_counter
    yardstick = workloads.Yardstick(clock)
    rounds = []
    start = clock()
    while not rounds or clock() - start + statistics.median(r.seconds for r in rounds) <= seconds:
        rounds.append(workloads.run_round(ops, clock, yardstick))
    alone = [[int(i == k) for i in range(len(ops))] for k in range(len(ops))]
    return {
        "ops": [op.name for op in ops],
        "op_seconds": [workloads.normalized_round_seconds(rounds, mask) for mask in alone],
        "rounds": len(rounds),
        "failed": sum(len(r.failures) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_child(tree: Path, args) -> dict:
    env = {**os.environ, **PINNED_THREADS, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as out_dir:
        argv = [sys.executable, "-B", str(Path(__file__).resolve()), "--child", out_dir,
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), str(tree)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"op_times: {tree}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("trees", nargs="+", type=Path)
    args = parser.parse_args(argv)
    if args.child:
        result = child(args.trees[0].resolve(), args.workload, args.seed, args.seconds,
                       Path(args.child))
        print(json.dumps(result))
        return 0
    trees = [tree.resolve() for tree in args.trees[:2]]
    runs: dict[Path, list[dict]] = {tree: [] for tree in trees}
    for k in range(args.pairs):
        for tree in trees if k % 2 == 0 else trees[::-1]:
            runs[tree].append(run_child(tree, args))
    names = runs[trees[0]][0]["ops"]
    if any(run["ops"] != names for tree in trees for run in runs[tree]):
        raise SystemExit("op_times: the trees' workloads have different ops")
    medians = {tree: [statistics.median(run["op_seconds"][i] * 1e3 for run in runs[tree])
                      for i in range(len(names))] for tree in trees}
    width = max(map(len, names))
    header = " ".join(f"{f'tree{j + 1} ms':>10}" for j in range(len(trees)))
    print(f"{'op':<{width}} {header}" + ("      ratio" if len(trees) == 2 else ""))
    for i, name in enumerate(names):
        cells = " ".join(f"{medians[tree][i]:10.3f}" for tree in trees)
        ratio = (f" {medians[trees[1]][i] / medians[trees[0]][i]:10.3f}"
                 if len(trees) == 2 and medians[trees[0]][i] > 0 else "")
        print(f"{name:<{width}} {cells}{ratio}")
    for j, tree in enumerate(trees):
        rounds = [sum(run["op_seconds"]) for run in runs[tree]]
        q1, q3 = quartiles(rounds)
        peak = statistics.median(run["peak_rss_mb"] for run in runs[tree])
        failed = sum(run["failed"] for run in runs[tree])
        print(f"tree{j + 1} {tree}: round median {statistics.median(rounds) * 1e3:.3f} ms, "
              f"quartiles {q1 * 1e3:.3f}..{q3 * 1e3:.3f} ms over {len(rounds)} runs, "
              f"peak {peak:.2f} MB, {failed} failed ops")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
