"""Span recorder for the benchmark's traced run.

Tracing lives entirely in the benchmark process: ``Recorder.install`` replaces,
in each specdec module's namespace, every public function that the module
imports from another specdec layer (and the same names in the package
namespace the benchmark calls) with a wrapper that records a span. A span is
``[name, layer, start, end, parent, op, light_s, info]``: ``parent`` indexes
the enclosing span (-1 at the top), ``op`` tags the benchmark op that caused
it, ``light_s`` is time spent in timed-but-unspanned callees and ``info``
holds counters a layer exposes through its return value.

Per-token functions are counted, not spanned, so the overhead stays bounded:
``MarkovModel.step``/``step_cumsum`` and the per-branch helpers in COUNTED
only increment a counter, and policy callbacks are counted and timed
without allocating a span.

A span's self time is its duration minus the durations of its child spans and
its ``light_s``; summed over a round, self times plus light times equal the
round span's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "rng", "models", "decoding", "policies", "exact",
    "enumeration", "montecarlo", "tradeoff", "cli",
)
# Public names called once per token, branch or run at tiny cost: counted only.
COUNTED = frozenset(
    {"policy_acceptance", "policy_residual_row", "trajectory_index",
     "epsilon_acceptance", "optimal_residual"}
)
DECODERS = ("speculative_decode", "batch_decode", "generic_decode")
PAIR_BUILDERS = ("models.random_model_pair", "models.pair_from_descriptor", "models.sparse_pair")
SELF_LAYERS = (*LAYERS, "bench")
RATE_UNITS = {"exact.state_rows_per_s": "rows/s", "enumeration.cells_per_s": "cells/s"}

NAME, LAYER, START, END, PARENT, OP, LIGHT, INFO = range(8)


def draft_counts(flags, horizon: int, responses: int) -> int:
    """Tokens drafted by one run whose rejection flags are ``flags``.

    Rounds draft eagerly to the horizon: a round starting at position n drafts
    ``responses * (horizon - n + 1)`` tokens and ends at its flagged position.
    """
    drafted, start = 0, 1
    for position, flag in enumerate(flags, start=1):
        if flag:
            drafted += responses * (horizon - start + 1)
            start = position + 1
    if start <= horizon:
        drafted += responses * (horizon - start + 1)
    return drafted


def _decoder_info(args, kwargs, result):
    pair = args[0]
    stats = result[1]
    responses = args[1] if isinstance(args[1], int) else 1
    return (stats.rejections, draft_counts(stats.flags, pair.horizon, responses),
            pair.horizon - stats.rejections)


def _rows_info(args, kwargs, result):
    return args[0].horizon * args[0].vocab_size


def _cells_info(args, kwargs, result):
    return args[0].vocab_size ** args[0].horizon


def _info_hook(layer: str, name: str):
    if layer == "decoding" and name in DECODERS:
        return _decoder_info
    if layer == "exact" and name.startswith(("expected_rejections_", "limit_rejections")):
        return _rows_info
    if layer == "enumeration":
        return _cells_info
    return None


class Recorder:
    """Collects spans and counters in memory until the run ends."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str, op=None):
        if op is not None:
            self.op = op
        entry = [name, layer, self.clock(), 0.0,
                 self._stack[-1] if self._stack else -1, self.op, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(entry)
        try:
            yield entry
        finally:
            entry[END] = self.clock()
            self._stack.pop()

    def spanned(self, layer: str, name: str, fn, info=None):
        spans, stack, clock, rec = self.spans, self._stack, self.clock, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [f"{layer}.{name}", layer, clock(),
                     0.0, stack[-1] if stack else -1, rec.op, 0.0, None]
            stack.append(len(spans))
            spans.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[END] = clock()
                stack.pop()
            if info is not None:
                entry[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, key: str, fn):
        """Count and time ``fn`` without a span, charging the enclosing span's ``light_s``.

        Only policy callbacks are timed this way, so light time is the
        policies layer's self time.
        """
        counts, spans, stack, clock = self.counts, self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                counts[key] += 1
                if stack:
                    spans[stack[-1]][LIGHT] += elapsed

        return wrapper

    def wrap_policy(self, policy):
        """Policy whose two callbacks are counted and timed as the policies layer."""
        return type(policy)(
            self.timed("policies.callback_calls", policy.acceptance),
            self.timed("policies.callback_calls", policy.residual),
        )

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every cross-layer public call site of ``package`` (specdec)."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                home = fn.__module__.rsplit(".", 1)[-1]
                if fn.__name__ in COUNTED:
                    wrappers[id(fn)] = self.counted(f"{home}.{fn.__name__}", fn)
                else:
                    wrappers[id(fn)] = self.spanned(
                        home, fn.__name__, fn, _info_hook(home, fn.__name__))
            return wrappers[id(fn)]

        for owner_layer, owner in [(None, package), *modules.items()]:
            for attr, value in list(vars(owner).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__.rsplit(".", 1)[-1]
                if home in LAYERS and home != owner_layer:
                    self._patch(owner, attr, wrapper_for(value))
        self._patch(modules["cli"], "main", wrapper_for(modules["cli"].main))
        markov = modules["models"].MarkovModel
        for method in ("step", "step_cumsum"):
            self._patch(markov, method,
                        self.counted("models.step_calls", getattr(markov, method)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Span file: one JSON array per line, fields as in the module docstring."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "layer", "start", "end", "parent",
                                            "op", "light_s", "info"]}) + "\n")
            for entry in self.spans:
                fh.write(json.dumps(entry) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus child span durations and light time."""
    child = [0.0] * len(spans)
    for entry in spans:
        if entry[PARENT] >= 0:
            child[entry[PARENT]] += entry[END] - entry[START]
    return [entry[END] - entry[START] - child[i] - entry[LIGHT]
            for i, entry in enumerate(spans)]



def unit_of(metric: str) -> str:
    if metric in RATE_UNITS:
        return RATE_UNITS[metric]
    if metric.endswith(("_us", "_us_per_run")):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_out"):
        return "bytes"
    if metric.endswith("ratio"):
        return "ratio"
    if metric.endswith("_per_run"):
        return "count/run"
    return "count"


def layer_metrics(spans, counts, rounds: int) -> dict[str, float]:
    """Per-layer metrics: per traced round, except rates, per-call means and pair build.

    Spans tagged with op ``"setup"`` come from the traced set-up and only feed
    ``models.pair_build_s``; every other span belongs to a traced round.
    """
    own_times = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    time_by_name = defaultdict(float)
    calls_by_name = defaultdict(int)
    pair_build = light = exact_time = enum_time = 0.0
    rows = cells = rejections = drafted = accepted = round_spans = 0
    for entry, own in zip(spans, own_times):
        duration = entry[END] - entry[START]
        if entry[OP] == "setup":
            if entry[NAME] in PAIR_BUILDERS:
                pair_build += duration
            continue
        round_spans += 1
        self_s[entry[LAYER]] += own
        light += entry[LIGHT]
        calls[entry[LAYER]] += 1
        time_by_name[entry[NAME]] += duration
        calls_by_name[entry[NAME]] += 1
        info = entry[INFO]
        if info is None:
            continue
        if entry[LAYER] == "exact":
            rows += info
            exact_time += duration
        elif entry[LAYER] == "enumeration":
            cells += info
            enum_time += duration
        elif entry[LAYER] == "decoding":
            rejections += info[0]
            drafted += info[1]
            accepted += info[2]
    self_s["policies"] += light
    runs = sum(calls_by_name[f"decoding.{name}"] for name in DECODERS)

    def per_round(total):
        return total / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    def us_per_call(name):
        return 1e6 * ratio(time_by_name[name], calls_by_name[name])

    metrics = {
        "exact.sd_s": per_round(time_by_name["exact.expected_rejections_sd"]),
        "exact.batch_s": per_round(time_by_name["exact.expected_rejections_batch"]),
        "exact.limit_s": per_round(time_by_name["exact.limit_rejections"]),
        "exact.calls": per_round(calls["exact"]),
        "exact.state_rows_per_s": ratio(rows, exact_time),
        "models.pair_build_s": pair_build,
        "models.step_calls": per_round(counts.get("models.step_calls", 0)),
        "decoding.sd_us_per_run": us_per_call("decoding.speculative_decode"),
        "decoding.batch_us_per_run": us_per_call("decoding.batch_decode"),
        "decoding.generic_us_per_run": us_per_call("decoding.generic_decode"),
        "decoding.runs": per_round(runs),
        "decoding.rejections_per_run": ratio(rejections, runs),
        "decoding.draft_use_ratio": ratio(accepted, drafted),
        "rng.split_calls": per_round(calls_by_name["rng.split_rng"]),
        "rng.split_us": us_per_call("rng.split_rng"),
        "montecarlo.overhead_us_per_run": 1e6 * ratio(self_s["montecarlo"], runs),
        "policies.callback_calls": per_round(counts.get("policies.callback_calls", 0)),
        "enumeration.calls": per_round(calls["enumeration"]),
        "enumeration.cells_per_s": ratio(cells, enum_time),
        "cli.calls": per_round(calls["cli"]),
        "cli.bytes_out": per_round(counts.get("cli.bytes_out", 0)),
        "tradeoff.calls": per_round(calls["tradeoff"]),
        "trace.spans": per_round(round_spans),
    }
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = per_round(self_s[layer])
    return metrics
