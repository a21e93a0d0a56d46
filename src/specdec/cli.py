"""Command-line interface over the laboratory.

Four subcommands, all driven by one JSON config plus flag overrides:

    specdec exact      --config cfg.json            closed-form rejection analysis
    specdec simulate   --config cfg.json            Monte Carlo campaign report
    specdec batch-scan --config cfg.json            exact vs empirical over batch sizes
    specdec pareto     --config cfg.json            rejection/bias front for one token

Each ``cmd_*`` handler takes the effective config and returns
``(results, columns, rows)``: the JSON results, and the CSV table as its
column names and rows. ``main`` alone writes one of the two, through
``_json_document`` or ``csv_document``, so the output formats live here and
nowhere else.

Exit codes: 0 success, 2 configuration error or an output path that cannot be
written, 3 numerical guard violation.
Floats are printed with 12 significant digits and outputs carry the effective
config in their header, so identical configs yield byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from .dist import Dist, _int_arg, _real_arg, tv_distance
from .exact import acceleration_rate, expected_rejections_batch, expected_rejections_sd
from .models import ModelPair, _real_array, pair_from_descriptor
from .montecarlo import Campaign, batch_scan, run_campaign
from .tradeoff import pareto_front

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


def _config_value(read, name: str, value, minimum):
    """``read(name, value, minimum)``, one of dist's value rules, raising ConfigError."""
    try:
        return read(name, value, minimum)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _int_field(config: dict, key: str, default=None, minimum: int = 1) -> int:
    value = config.get(key, default)
    if value is None:
        raise ConfigError(f"config is missing required key {key!r}")
    return _config_value(_int_arg, f"config key {key!r}", value, minimum)


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


def csv_document(header_lines, columns, rows) -> str:
    """CSV text: ``# `` header lines, the column line, then one line per row.

    Cells are strings verbatim, None as blank, numbers to 12 significant digits.
    """
    lines = [f"# {line}" for line in header_lines]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(
            "" if cell is None else cell if isinstance(cell, str) else f"{cell:.12g}"
            for cell in row
        ))
    return "\n".join(lines) + "\n"


def report_header(command: str, config: dict) -> list[str]:
    """Standard two-line header echoed into CSV outputs."""
    return [
        f"specdec {command}",
        "config " + json.dumps(config, sort_keys=True, separators=(",", ":")),
    ]


def _effective_config(config: dict, args) -> dict:
    merged = dict(config)
    if getattr(args, "seed", None) is not None:
        merged["seed"] = args.seed
    if getattr(args, "runs", None) is not None:
        merged["runs"] = args.runs
    return merged


def cmd_exact(config: dict) -> tuple:
    pair = _build_pair(config)
    batch_size = config.get("batch_size")
    if batch_size is not None:
        batch_size = _int_field(config, "batch_size")
        batch = expected_rejections_batch(pair, batch_size)
        sd = expected_rejections_sd(pair)
        batch_total, batch_improvement = batch.total, batch.improvement
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
    return results, list(results), [list(results.values())]


def cmd_simulate(config: dict) -> tuple:
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
    rows = [(c.runs, c.mean, c.stderr, c.exact, c.rel_dev) for c in report.checkpoints]
    return asdict(report), ("checkpoint", "mean", "stderr", "exact", "rel_dev"), rows


def cmd_batch_scan(config: dict) -> tuple:
    pair = _build_pair(config)
    sizes = config.get("batch_sizes", [1, 2, 3, 4])
    if not isinstance(sizes, list) or not sizes:
        raise ConfigError('config key "batch_sizes" must be a nonempty list')
    sizes = [_config_value(_int_arg, 'config key "batch_sizes" entry', m, 1) for m in sizes]
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
        ["limit" if row.batch_size is None else row.batch_size, row.exact, row.mean, row.stderr]
        for row in rows
    ]
    return [asdict(row) for row in rows], ("batch_size", "exact", "mean", "stderr"), table


def _pareto_dists(config: dict) -> tuple[Dist, Dist, list[float]]:
    section = _require(config, "pareto")
    if not isinstance(section, dict):
        raise ConfigError('config key "pareto" must be an object')
    grid = section.get("eps_grid", [i / 10 for i in range(11)])
    if not isinstance(grid, list) or not grid:
        raise ConfigError('config key "pareto.eps_grid" must be a nonempty list')
    grid = [_config_value(_real_arg, 'config key "pareto.eps_grid" entry', e, 0.0) for e in grid]
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
        step = _int_field(section, "step")
        state = _int_field(section, "state", minimum=0)
        if step > pair.horizon or state >= pair.vocab_size:
            raise ConfigError("pareto step/state outside the model")
        # The model's rows as it holds them: Dist(...) would divide them again.
        return (*(Dist._view(model.step(step, (state,))) for model in (pair.p, pair.q)), grid)
    raise ConfigError('config key "pareto" needs either "p"/"q" vectors or a "pair" selection')


def cmd_pareto(config: dict) -> tuple:
    p, q, grid = _pareto_dists(config)
    tv = tv_distance(p, q)
    points = pareto_front(p, q, grid)
    for point in points:
        # tradeoff_identity_gap's value, against the tv read once above.
        if abs(point.reject_prob + point.loss_star - tv) > GUARD_TOL:
            raise GuardViolation(
                f"pareto identity violated at eps={point.epsilon!r}: "
                f"reject={point.reject_prob!r} loss={point.loss_star!r} tv={tv!r}"
            )
    columns = ("eps", "reject_prob", "loss_star", "tv")
    rows = [[pt.epsilon, pt.reject_prob, pt.loss_star, tv] for pt in points]
    return [dict(zip(columns, row)) for row in rows], columns, rows


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
        results, columns, rows = handlers[args.command](config)
    except ConfigError as exc:
        print(f"specdec: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardViolation as exc:
        print(f"specdec: numerical guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    if args.format == "json":
        text = _json_document(args.command, config, results)
    else:
        text = csv_document(report_header(args.command, config), columns, rows)
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"specdec: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
