"""The benchmark's workloads: seeded inputs, ops and their correctness checks.

An op is one job together with its check. ``Op.run`` does the job through
specdec's public API or its CLI entry point; ``Op.check`` returns ``None`` when
the output is correct and a message otherwise. A workload is a fixed list of
ops; one pass over it is a round, and every round repeats the same inputs.

The workload seed sets the pair seeds, the sampler master seeds and the policy
RNG; specdec only ever sees the generated pairs, policies and configs.
"""

from __future__ import annotations

import json
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import specdec
import specdec.cli

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
GUARD_TOL = 1e-12  # slack for monotonicity checks, as in specdec's CLI guards

# exact-large: closed-form recursions on a dense pair and a sparse-support pair.
EXACT_V, EXACT_T = 50, 50
EXACT_BATCH_SIZES = (2, 4, 8)
EXACT_CLI_BATCH_SIZE = 4
SPARSE_SHARE = 1 / 3
REFERENCE_REL_TOL = 1e-9

# campaign-long: long Monte Carlo runs on c2's pair through the CLI.
CAMPAIGN_V, CAMPAIGN_T, CAMPAIGN_PAIR_SEED = 7, 50, 10
SIMULATE_SD_RUNS = 400
SIMULATE_BATCH_RUNS, SIMULATE_BATCH_SIZE = 120, 4
SCAN_RUNS, SCAN_SIZES = 80, (1, 2, 4)
STDERR_BOUND = 4.0

# oracle-small: short runs, the enumeration oracle and the golden CLI jobs.
ORACLE_V, ORACLE_T, ORACLE_PAIR_SEED = 2, 3, 2024
UNBIASED_RUNS = 30_000
CONTROL_RUNS = 10_000
BATTERY_SHAPES = ((2, 6), (3, 4), (4, 3), (9, 2))
BATTERY_SETS = 5
ENUM_BATCH_SIZES = (2, 3)
LAW_TOL = 1e-10
REJECTION_TOL = 1e-12
GOLDEN_JOBS = (
    ("exact", "exact_config.json", "csv", "exact_out.csv"),
    ("exact", "exact_config.json", "json", "exact_out.json"),
    ("simulate", "simulate_config.json", "csv", "simulate_out.csv"),
    ("batch-scan", "batch_scan_config.json", "csv", "batch_scan_out.csv"),
    ("pareto", "pareto_config.json", "csv", "pareto_out.csv"),
)


@dataclass(frozen=True)
class Op:
    """One job and its check; ``runs`` counts the decoding runs the job makes."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], str | None]
    runs: int = 0


@dataclass
class Context:
    """What a workload needs from the benchmark around it.

    ``wrap_policy`` and ``span`` are identity/no-op unless the run is traced;
    ``counts`` receives byte counts of CLI output.
    """

    root: Path
    out_dir: Path
    wrap_policy: Callable = lambda policy: policy
    span: Callable = lambda name, layer: nullcontext()
    counts: dict = field(default_factory=lambda: {"cli.bytes_out": 0})


def derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` sampler/policy seeds of one workload, all set by ``seed``."""
    key = [ord(c) for c in workload] + [seed]
    return [int(s) for s in np.random.SeedSequence(key).generate_state(count)]


def run_cli(ctx: Context, argv: list[str], out_name: str) -> tuple[int, bytes]:
    """Run one CLI job in-process, writing to a file; returns (exit code, bytes)."""
    out_path = ctx.out_dir / out_name
    code = specdec.cli.main([*argv, "--out", str(out_path)])
    data = out_path.read_bytes() if code == 0 else b""
    ctx.counts["cli.bytes_out"] += len(data)
    return code, data


def write_config(ctx: Context, name: str, config: dict) -> str:
    path = ctx.out_dir / name
    path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    return str(path)


# -- exact-large ---------------------------------------------------------


def sparsify(pair, rng: np.random.Generator):
    """Zero about SPARSE_SHARE of each row's entries (keeping its largest) and renormalise."""
    models = []
    for model in (pair.p, pair.q):
        steps = []
        for step in model.steps:
            rows = step.rows.copy()
            drop = rng.random(rows.shape) < SPARSE_SHARE
            drop[np.arange(rows.shape[0]), rows.argmax(axis=1)] = False
            rows[drop] = 0.0
            steps.append(specdec.CondDist(rows / rows.sum(axis=1, keepdims=True)))
        models.append(specdec.MarkovModel(model.prompt, steps))
    return specdec.ModelPair(*models)


def analysis_ops(label: str, pair, reference: dict | None) -> list[Op]:
    """One op per closed-form call on ``pair``: SD, batch at each M, then the limit.

    Results are flat dicts keyed as in reference.json. Checks: totals do not
    rise with M, improvements are nonnegative, the limit lies in [0, every
    total], and values match ``reference`` (when given) to REFERENCE_REL_TOL.
    """
    reference = reference or {}
    jobs = [("sd", lambda: {"sd": specdec.expected_rejections_sd(pair)})]
    for m in EXACT_BATCH_SIZES:
        def batch(m=m):
            result = specdec.expected_rejections_batch(pair, m)
            return {f"batch{m}.total": result.total, f"batch{m}.improvement": result.improvement}
        jobs.append((f"batch{m}", batch))
    jobs.append(("limit", lambda: {"limit": specdec.limit_rejections(pair)}))
    names = [f"{label}.{job}" for job, _ in jobs]

    def total(result: dict) -> float:
        return next(iter(result.values()))

    def make_check(index: int):
        def check(result: dict, done: dict) -> str | None:
            value = total(result)
            earlier = [total(done[name]) for name in names[:index]]
            if names[index].endswith(".limit"):
                if not 0.0 <= value <= min(earlier) + GUARD_TOL:
                    return f"limit {value!r} outside [0, {min(earlier)!r}]"
            elif earlier and value > earlier[-1] + GUARD_TOL * max(1.0, abs(earlier[-1])):
                return f"batch total rose along M: {earlier[-1]!r} -> {value!r}"
            for key, got in result.items():
                if key.endswith(".improvement") and got < 0.0:
                    return f"negative {key} {got!r}"
                want = reference.get(key)
                if want is not None and abs(got - want) > REFERENCE_REL_TOL * abs(want):
                    return f"{key} = {got!r} differs from the recorded {want!r}"
            return None

        return check

    return [Op(name, run, make_check(i)) for i, (name, (_, run)) in enumerate(zip(names, jobs))]


def check_cli_exact(output: tuple[int, bytes], done: dict) -> str | None:
    code, data = output
    if code != 0:
        return f"specdec exact exited {code}"
    got = json.loads(data)["results"]
    sd = done["dense.sd"]["sd"]
    batch = done[f"dense.batch{EXACT_CLI_BATCH_SIZE}"]
    want = {
        "expected_rejections_sd": sd,
        "acceleration_rate": specdec.acceleration_rate(sd, EXACT_T),
        "batch_total": batch[f"batch{EXACT_CLI_BATCH_SIZE}.total"],
        "batch_improvement": batch[f"batch{EXACT_CLI_BATCH_SIZE}.improvement"],
    }
    for key, value in want.items():
        if got[key] != float(f"{value:.12g}"):
            return f"CLI {key} {got[key]!r} != library {value!r} at 12 digits"
    return None


def load_reference(seed: int) -> dict | None:
    """Recorded exact-large results, which apply at the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if (doc["seed"], doc["vocab_size"], doc["horizon"]) != (seed, EXACT_V, EXACT_T):
        raise ValueError(f"{REFERENCE_PATH.name} was recorded for other sizes")
    return doc["exact-large"]


def exact_large(ctx: Context, seed: int, reference: dict | None = None) -> list[Op]:
    (sparse_seed,) = derived_seeds("exact-large", seed, 1)
    dense = specdec.random_model_pair(EXACT_V, EXACT_T, seed=seed)
    with ctx.span("models.sparse_pair", "models"):
        sparse = sparsify(dense, np.random.default_rng(sparse_seed))
    config = write_config(ctx, "exact_large_config.json", {
        "pair": {"generator": "random", "seed": seed,
                 "vocab_size": EXACT_V, "horizon": EXACT_T},
        "batch_size": EXACT_CLI_BATCH_SIZE,
    })
    reference = reference or {}
    return [
        *analysis_ops("dense", dense, reference.get("dense")),
        *analysis_ops("sparse", sparse, reference.get("sparse")),
        Op("cli-exact",
           lambda: run_cli(ctx, ["exact", "--config", config, "--format", "json"],
                           "exact_large_out.json"),
           check_cli_exact),
    ]


# -- campaign-long -------------------------------------------------------


def _within_stderr(mean: float, stderr: float, exact: float) -> bool:
    return stderr > 0.0 and abs(mean - exact) <= STDERR_BOUND * stderr


def check_simulate(output: tuple[int, bytes], runs: int) -> str | None:
    code, data = output
    if code != 0:
        return f"specdec simulate exited {code}"
    final = json.loads(data)["results"]["checkpoints"][-1]
    if final["runs"] != runs:
        return f"final checkpoint at {final['runs']} runs, expected {runs}"
    if not _within_stderr(final["mean"], final["stderr"], final["exact"]):
        return f"mean {final['mean']!r} not within {STDERR_BOUND} stderr of {final['exact']!r}"
    return None


def check_batch_scan(output: tuple[int, bytes]) -> str | None:
    code, data = output
    if code != 0:
        return f"specdec batch-scan exited {code}"
    rows = json.loads(data)["results"]
    finite = [row for row in rows if row["batch_size"] is not None]
    for row in finite:
        if not _within_stderr(row["mean"], row["stderr"], row["exact"]):
            return f"M={row['batch_size']}: mean {row['mean']!r} far from {row['exact']!r}"
    limit = rows[-1]
    if limit["batch_size"] is not None or not 0.0 <= limit["exact"] <= min(
            row["exact"] for row in finite) + GUARD_TOL:
        return "missing or inconsistent limit row"
    return None


def campaign_long(ctx: Context, seed: int) -> list[Op]:
    sd_seed, batch_seed, scan_seed = derived_seeds("campaign-long", seed, 3)
    pair = {"generator": "random", "seed": CAMPAIGN_PAIR_SEED + seed,
            "vocab_size": CAMPAIGN_V, "horizon": CAMPAIGN_T}
    sd_config = write_config(ctx, "campaign_sd_config.json", {
        "pair": pair, "algorithm": "sd", "runs": SIMULATE_SD_RUNS, "seed": sd_seed})
    batch_config = write_config(ctx, "campaign_batch_config.json", {
        "pair": pair, "algorithm": "batch", "batch_size": SIMULATE_BATCH_SIZE,
        "runs": SIMULATE_BATCH_RUNS, "seed": batch_seed})
    scan_config = write_config(ctx, "campaign_scan_config.json", {
        "pair": pair, "batch_sizes": list(SCAN_SIZES), "runs": SCAN_RUNS, "seed": scan_seed})

    def cli_job(command: str, config: str, out_name: str):
        return lambda: run_cli(ctx, [command, "--config", config, "--format", "json"], out_name)

    return [
        Op("simulate-sd", cli_job("simulate", sd_config, "campaign_sd_out.json"),
           lambda out, done: check_simulate(out, SIMULATE_SD_RUNS), SIMULATE_SD_RUNS),
        Op("simulate-batch", cli_job("simulate", batch_config, "campaign_batch_out.json"),
           lambda out, done: check_simulate(out, SIMULATE_BATCH_RUNS), SIMULATE_BATCH_RUNS),
        Op("batch-scan", cli_job("batch-scan", scan_config, "campaign_scan_out.json"),
           lambda out, done: check_batch_scan(out), SCAN_RUNS * len(SCAN_SIZES)),
    ]


# -- oracle-small --------------------------------------------------------


def unbiasedness_op(name: str, pair, algorithm: str, runs: int, seed: int, *,
                    expect_pass: bool, batch_size: int = 1, policy=None) -> Op:
    def run():
        return specdec.unbiasedness_check(pair, algorithm, runs=runs, seed=seed,
                                          batch_size=batch_size, policy=policy)

    def check(report, done):
        if report.passed != expect_pass:
            verdict = "passed" if report.passed else "failed"
            return f"L1 {report.l1:.5f} {verdict} the {report.threshold} threshold"
        return None

    return Op(name, run, check, runs)


def enumeration_op(name: str, pair, joint: np.ndarray, algorithm: str, *,
                   batch_size: int = 1, policy=None) -> Op:
    def run():
        law = specdec.enumerate_output_distribution(
            pair, algorithm, batch_size=batch_size, policy=policy)
        rejections = specdec.enumerate_expected_rejections(
            pair, algorithm, batch_size=batch_size, policy=policy)
        if algorithm == "batch":
            closed_form = specdec.expected_rejections_batch(pair, batch_size).total
        else:
            closed_form = specdec.expected_rejections_sd(pair)
        return law, rejections, closed_form

    def check(result, done):
        law, rejections, closed_form = result
        l1 = float(np.abs(law - joint).sum())
        if not l1 <= LAW_TOL:
            return f"enumerated law is {l1:.3e} from the target joint in L1"
        if algorithm == "generic":
            # Unbiased policies below the speculative rule never reject less (c6).
            if rejections < closed_form - REJECTION_TOL:
                return f"generic rejections {rejections!r} below SD's {closed_form!r}"
        elif not abs(rejections - closed_form) <= REJECTION_TOL:
            return f"enumerated rejections {rejections!r} != closed form {closed_form!r}"
        return None

    return Op(name, run, check)


def golden_op(ctx: Context, command: str, config: str, fmt: str, golden: str) -> Op:
    golden_dir = ctx.root / "tests" / "golden"
    expected = (golden_dir / golden).read_bytes()
    argv = [command, "--config", str(golden_dir / config), "--format", fmt]
    settings = json.loads((golden_dir / config).read_text(encoding="utf-8"))
    runs = settings.get("runs", 0) * len(settings.get("batch_sizes", [None]))

    def check(output, done):
        code, data = output
        if code != 0:
            return f"specdec {command} exited {code}"
        return None if data == expected else f"output differs from tests/golden/{golden}"

    return Op(f"golden-{golden}", lambda: run_cli(ctx, argv, golden), check, runs)


def oracle_small(ctx: Context, seed: int, unbiased_policy=None) -> list[Op]:
    """``unbiased_policy`` replaces the random unbiased policy (tests pass a biased one)."""
    seeds = derived_seeds("oracle-small", seed, 5 + len(BATTERY_SHAPES) * BATTERY_SETS)
    pair = specdec.random_model_pair(ORACLE_V, ORACLE_T, seed=ORACLE_PAIR_SEED)
    policy_rng = np.random.default_rng(seeds[4])
    if unbiased_policy is None:
        unbiased_policy = specdec.random_unbiased_policy(pair, policy_rng)
    checks = [
        unbiasedness_op("unbiased-sd", pair, "sd", UNBIASED_RUNS, seeds[0], expect_pass=True),
        unbiasedness_op("unbiased-batch2", pair, "batch", UNBIASED_RUNS, seeds[1],
                        expect_pass=True, batch_size=2),
        unbiasedness_op("unbiased-generic", pair, "generic", UNBIASED_RUNS, seeds[2],
                        expect_pass=True, policy=ctx.wrap_policy(unbiased_policy)),
        unbiasedness_op("control-always-accept", pair, "generic", CONTROL_RUNS, seeds[3],
                        expect_pass=False,
                        policy=ctx.wrap_policy(specdec.always_accept_policy(pair))),
    ]
    battery_seeds = iter(seeds[5:])
    ops = []
    for k in range(BATTERY_SETS):
        for vocab, horizon in BATTERY_SHAPES:
            small = specdec.random_model_pair(vocab, horizon, seed=next(battery_seeds))
            joint = specdec.joint_distribution(small.q)
            policy = ctx.wrap_policy(specdec.random_unbiased_policy(small, policy_rng))
            tag = f"enum-{vocab}x{horizon}-{k}"
            ops.append(enumeration_op(f"{tag}-sd", small, joint, "sd"))
            for m in ENUM_BATCH_SIZES:
                ops.append(enumeration_op(f"{tag}-batch{m}", small, joint, "batch",
                                          batch_size=m))
            ops.append(enumeration_op(f"{tag}-generic", small, joint, "generic",
                                      policy=policy))
        # Each long check sits between battery sets, so that the yardsticks
        # around it sample the host's speed on both sides.
        if k < len(checks):
            ops.append(checks[k])
    ops.extend(golden_op(ctx, *job) for job in GOLDEN_JOBS)
    return ops


SIZES = {
    "exact-large": f"V={EXACT_V} T={EXACT_T}, M in {EXACT_BATCH_SIZES} and the limit, "
                   "dense and sparse pairs",
    "campaign-long": f"V={CAMPAIGN_V} T={CAMPAIGN_T}",
    "oracle-small": f"V={ORACLE_V} T={ORACLE_T}; enumeration battery V**T <= 81",
}

WORKLOADS = {
    "exact-large": lambda ctx, seed: exact_large(ctx, seed, load_reference(seed)),
    "campaign-long": campaign_long,
    "oracle-small": oracle_small,
}


# The yardstick's time on the idle host the benchmark was defined on (2-core
# Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4): the reference host speed.
YARDSTICK_REFERENCE_S = 3.0e-3
# Yardstick times on each side of an op that estimate the host's speed during
# it. The host flips between a fast and a slow state many times a second, so
# a window of neighbours tracks the slow share of a long op better than the
# two adjacent times alone.
YARDSTICK_WINDOW = 10


class Yardstick:
    """A fixed sampler-like loop that never calls specdec, timed between ops.

    On a shared host the speed of this process changes from moment to moment,
    by up to 2x, with other tenants' load. The loop's times around an op
    measure the host's speed while it ran, so the op's time can be rescaled
    to the reference speed (see ``normalized_round_seconds``).
    """

    def __init__(self, clock, steps: int = 500) -> None:
        rng = np.random.default_rng(20241101)
        rows = rng.random((50, 8, 8))
        self._rows = rows / rows.sum(axis=2, keepdims=True)
        self._cums = np.cumsum(self._rows, axis=2)
        self._us = rng.random(steps).tolist()
        self._clock = clock
        self()  # warm up, so the first timed loop is like the rest

    def __call__(self) -> float:
        start = self._clock()
        history = (0,)
        for n, u in enumerate(self._us):
            row = self._cums[n % 50, history[-1]]
            token = min(int(np.searchsorted(row, u, side="right")), 7)
            weights = np.maximum(self._rows[n % 50, token] - self._rows[n % 50, history[-1]], 0.0)
            history += (token if float(weights.sum()) > 0.5 else 0,)
        return self._clock() - start


@dataclass
class RoundResult:
    seconds: float
    op_seconds: list[float]  # per op, in the workload's op order
    yardstick_seconds: list[float]  # one before each op and one after the last
    failures: list[str]


def run_round(ops: list[Op], clock, yardstick,
              span=lambda name, layer: nullcontext()) -> RoundResult:
    """Run every op once in order; a raised exception or failed check is a failure."""
    done: dict = {}
    failures: list[str] = []
    op_seconds: list[float] = []
    start = clock()
    yardstick_seconds = [yardstick()]
    for op in ops:
        op_start = clock()
        try:
            with span(f"op.{op.name}", "bench"):
                result = op.run()
                problem = op.check(result, done)
            done[op.name] = result
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problem = f"{type(exc).__name__}: {exc}"
        op_seconds.append(clock() - op_start)
        yardstick_seconds.append(yardstick())
        if problem is not None:
            failures.append(f"{op.name}: {problem}")
    return RoundResult(clock() - start, op_seconds, yardstick_seconds, failures)


def normalized_round_seconds(rounds: list[RoundResult],
                             op_runs: list[int] | None = None) -> float:
    """Round time at the reference host speed, from the rounds of one run.

    For each op, the median over rounds of t * YARDSTICK_REFERENCE_S / b,
    where t is the op's time and b the mean of the YARDSTICK_WINDOW yardstick
    times on each side of it (the op's own two included); summed over the ops
    (with ``op_runs``, only those making decoding runs).
    """
    if op_runs is None:
        op_runs = [1] * len(rounds[0].op_seconds)

    def yardstick_near(r: RoundResult, i: int) -> float:
        return statistics.fmean(
            r.yardstick_seconds[max(0, i + 1 - YARDSTICK_WINDOW):i + 1 + YARDSTICK_WINDOW])

    return sum(
        statistics.median(
            r.op_seconds[i] * YARDSTICK_REFERENCE_S / yardstick_near(r, i) for r in rounds)
        for i, runs in enumerate(op_runs) if runs
    )
