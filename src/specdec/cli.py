"""Command-line interface over the laboratory.

Four subcommands, all driven by one JSON config plus flag overrides:

    specdec exact      --config cfg.json            closed-form rejection analysis
    specdec simulate   --config cfg.json            Monte Carlo campaign report
    specdec batch-scan --config cfg.json            exact vs empirical over batch sizes
    specdec pareto     --config cfg.json            rejection/bias front for one token

Exit codes: 0 success, 2 configuration error, 3 numerical guard violation.
Floats are printed with 12 significant digits and outputs carry the effective
config in their header, so identical configs yield byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .dist import Dist, tv_distance
from .exact import _sd_and_gain, acceleration_rate, expected_rejections_sd
from .models import MarkovModel, ModelPair, _as_int, _real_array, pair_from_descriptor
from .montecarlo import Campaign, batch_scan, csv_document, report_header, run_campaign
from .tradeoff import pareto_front, tradeoff_identity_gap

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
GUARD_TOL = 1e-12


class ConfigError(ValueError):
    pass


class GuardViolation(RuntimeError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing required key {key!r}")
    return config[key]


def _int_field(config: dict, key: str, default=None, minimum: int = 1) -> int:
    value = config.get(key, default)
    if value is None:
        raise ConfigError(f"config is missing required key {key!r}")
    try:
        value = _as_int(value)
    except TypeError:
        raise ConfigError(f"config key {key!r} must be an integer") from None
    if value < minimum:
        raise ConfigError(f"config key {key!r} must be >= {minimum}")
    return value


def _build_pair(config: dict) -> ModelPair:
    try:
        return pair_from_descriptor(_require(config, "pair"))
    except ValueError as exc:
        raise ConfigError(f"invalid model pair: {exc}") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_document(command: str, config: dict, results) -> str:
    def round12(obj):
        if isinstance(obj, float):
            return float(f"{obj:.12g}")
        if isinstance(obj, dict):
            return {k: round12(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [round12(v) for v in obj]
        return obj

    payload = {"command": command, "config": config, "results": round12(results)}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _effective_config(config: dict, args) -> dict:
    merged = dict(config)
    if getattr(args, "seed", None) is not None:
        merged["seed"] = args.seed
    if getattr(args, "runs", None) is not None:
        merged["runs"] = args.runs
    return merged


def cmd_exact(config: dict, fmt: str, out_path: str | None) -> int:
    pair = _build_pair(config)
    batch_size = config.get("batch_size")
    if batch_size is not None:
        batch_size = _int_field(config, "batch_size")
        sd, batch_improvement = _sd_and_gain(pair, batch_size)
        batch_total = sd - batch_improvement
    else:
        sd = expected_rejections_sd(pair)
        batch_total = batch_improvement = None
    rate = acceleration_rate(sd, pair.horizon)
    results = {
        "vocab_size": pair.vocab_size,
        "horizon": pair.horizon,
        "expected_rejections_sd": sd,
        "acceleration_rate": rate,
        "batch_size": batch_size,
        "batch_total": batch_total,
        "batch_improvement": batch_improvement,
    }
    if fmt == "json":
        _emit(_json_document("exact", config, results), out_path)
    else:
        columns = list(results.keys())
        row = [pair.vocab_size, pair.horizon, sd, rate,
               batch_size, batch_total, batch_improvement]
        _emit(csv_document(report_header("exact", config), columns, [row]), out_path)
    return EXIT_OK


def cmd_simulate(config: dict, fmt: str, out_path: str | None) -> int:
    pair = _build_pair(config)
    algorithm = config.get("algorithm", "sd")
    try:
        campaign = Campaign(
            pair=pair,
            algorithm=algorithm,
            runs=_int_field(config, "runs"),
            seed=_int_field(config, "seed", minimum=0),
            batch_size=_int_field(config, "batch_size", default=1),
            checkpoint_every=_int_field(config, "checkpoint_every", default=100),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = run_campaign(campaign)
    if fmt == "json":
        _emit(_json_document("simulate", config, report.to_json_dict()), out_path)
    else:
        _emit(report.to_csv(report_header("simulate", config)), out_path)
    return EXIT_OK


def cmd_batch_scan(config: dict, fmt: str, out_path: str | None) -> int:
    pair = _build_pair(config)
    sizes = config.get("batch_sizes", [1, 2, 3, 4])
    if not isinstance(sizes, list) or not sizes:
        raise ConfigError('config key "batch_sizes" must be a nonempty list')
    try:
        sizes = [_as_int(m) for m in sizes]
    except TypeError:
        raise ConfigError('config key "batch_sizes" must contain integers') from None
    if any(m < 1 for m in sizes):
        raise ConfigError('config key "batch_sizes" entries must be >= 1')
    rows = batch_scan(pair, sizes, _int_field(config, "runs"), _int_field(config, "seed", minimum=0))
    exacts = [row.exact for row in rows[:-1]]
    if sorted(sizes) == sizes:
        for left, right in zip(exacts, exacts[1:]):
            if right > left + GUARD_TOL:
                raise GuardViolation(
                    f"exact batch rejections increased along the scan: {left!r} -> {right!r}"
                )
    limit = rows[-1].exact
    if any(limit > e + GUARD_TOL for e in exacts):
        raise GuardViolation("limit rejections exceed a finite batch size's exact value")
    table = [
        ["limit" if row.batch_size is None else str(row.batch_size),
         row.exact, row.mean, row.stderr]
        for row in rows
    ]
    if fmt == "json":
        results = [
            {"batch_size": row.batch_size, "exact": row.exact,
             "mean": row.mean, "stderr": row.stderr}
            for row in rows
        ]
        _emit(_json_document("batch-scan", config, results), out_path)
    else:
        _emit(csv_document(report_header("batch-scan", config),
                           ["batch_size", "exact", "mean", "stderr"], table), out_path)
    return EXIT_OK


def _pareto_dists(config: dict) -> tuple[Dist, Dist, list[float]]:
    section = _require(config, "pareto")
    if not isinstance(section, dict):
        raise ConfigError('config key "pareto" must be an object')
    grid = section.get("eps_grid", [i / 10 for i in range(11)])
    if not isinstance(grid, list) or not grid:
        raise ConfigError('config key "pareto.eps_grid" must be a nonempty list')
    try:
        grid = _real_array(grid, 1, 'config key "pareto.eps_grid"')
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not np.all(np.isfinite(grid)):
        raise ConfigError('config key "pareto.eps_grid" must contain finite numbers')
    if np.any(grid < 0):
        raise ConfigError("eps grid entries must be nonnegative")
    grid = grid.tolist()
    if "p" in section and "q" in section:
        try:
            p, q = (Dist(_real_array(section[k], 1, f'config key "pareto.{k}"')) for k in "pq")
        except ValueError as exc:
            raise ConfigError(f"invalid pareto distributions: {exc}") from None
        if len(p) != len(q):
            raise ConfigError("invalid pareto distributions: p and q differ in length")
        return p, q, grid
    if "pair" in section:
        try:
            pair = pair_from_descriptor(section["pair"])
        except ValueError as exc:
            raise ConfigError(f"invalid model pair: {exc}") from None
        if not isinstance(pair.p, MarkovModel) or not isinstance(pair.q, MarkovModel):
            raise ConfigError("pareto pair selection requires Markov models")
        step = _int_field(section, "step")
        state = _int_field(section, "state", minimum=0)
        if step > pair.horizon or state >= pair.vocab_size:
            raise ConfigError("pareto step/state outside the model")
        history = (state,)
        return (
            Dist(pair.p.step(step, history)),
            Dist(pair.q.step(step, history)),
            grid,
        )
    raise ConfigError('config key "pareto" needs either "p"/"q" vectors or a "pair" selection')


def cmd_pareto(config: dict, fmt: str, out_path: str | None) -> int:
    p, q, grid = _pareto_dists(config)
    tv = tv_distance(p, q)
    points = pareto_front(p, q, grid)
    for point in points:
        if tradeoff_identity_gap(point, p, q) > GUARD_TOL:
            raise GuardViolation(
                f"pareto identity violated at eps={point.epsilon!r}: "
                f"reject={point.reject_prob!r} loss={point.loss_star!r} tv={tv!r}"
            )
    rows = [[pt.epsilon, pt.reject_prob, pt.loss_star, tv] for pt in points]
    if fmt == "json":
        results = [
            {"eps": pt.epsilon, "reject_prob": pt.reject_prob,
             "loss_star": pt.loss_star, "tv": tv}
            for pt in points
        ]
        _emit(_json_document("pareto", config, results), out_path)
    else:
        _emit(csv_document(report_header("pareto", config),
                           ["eps", "reject_prob", "loss_star", "tv"], rows), out_path)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="specdec",
        description="Exact analysis and simulation of rejection-based decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("exact", "simulate", "batch-scan", "pareto"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        if name in ("simulate", "batch-scan"):
            cmd.add_argument("--seed", type=int, default=None, help="override config seed")
            cmd.add_argument("--runs", type=int, default=None, help="override config runs")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "exact": cmd_exact,
        "simulate": cmd_simulate,
        "batch-scan": cmd_batch_scan,
        "pareto": cmd_pareto,
    }
    try:
        config = _effective_config(_load_config(args.config), args)
        return handlers[args.command](config, args.format, args.out)
    except ConfigError as exc:
        print(f"specdec: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardViolation as exc:
        print(f"specdec: numerical guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
