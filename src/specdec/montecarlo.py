"""Monte Carlo campaigns cross-checking the samplers against the exact formulas.

Run i of a campaign decodes on its own child stream ``split_rng(seed, i)``, so
campaigns are reproducible run-for-run and any run can be replayed alone.
Runs are decoded in blocks, in run order. Dispatch rule: sd, batch and
generic runs on a pair of MarkovModels, under no policy or one with tables,
take the lockstep engine through its block loop
``decoding._lockstep_blocks``, in blocks of the engine's size, with the
tables built once per campaign; every other run is one call of the scalar
loop ``_decode`` (of ``autoregressive_decode`` for autoregressive runs), in
blocks of BLOCK_RUNS. A batch scan hands the engine all its batch sizes at
once: when the sizes' rows together fit one engine block they are decoded
in that one block, otherwise size by size as single campaigns are; on the
scalar loop it always goes size by size. Every route gives the same runs,
so the choice changes speed and not results, and working memory is set by
the block size, not by the number of runs.
Reports carry the matching closed-form reference value so empirical means can
be judged against their standard errors at every checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import enumeration
from .decoding import (
    BLOCK_RUNS,
    Policy,
    _decode,
    _lockstep_blocks,
    _run_args,
    autoregressive_decode,
)
from .dist import _int_arg, _real_arg
from .enumeration import enumerate_expected_rejections
from .exact import expected_rejections_batch, expected_rejections_sd, limit_rejections
from .models import FULL_TABLE_CAP, ModelPair, _is_markov_pair, joint_distribution
from .rng import split_rng

ALGORITHMS = (*enumeration.ALGORITHMS, "autoregressive")
TABULATION_CAP = 10_000


@dataclass(frozen=True)
class Campaign:
    """Specification of one simulation campaign.

    ``checkpoint_every`` sets the reporting cadence in runs; a final
    checkpoint at ``runs`` is always included. Only batch campaigns take a
    ``batch_size`` other than 1 and only generic ones a ``policy``; other
    algorithms refuse them by the rule the engine and the oracle share.
    """

    pair: ModelPair
    algorithm: str
    runs: int
    seed: int
    batch_size: int = 1
    policy: Policy | None = None
    checkpoint_every: int = 100

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        for name, minimum in (("runs", 1), ("seed", 0), ("checkpoint_every", 1)):
            object.__setattr__(self, name, _int_arg(name, getattr(self, name), minimum))
        batch_size, _ = _run_args(self.algorithm, self.batch_size, self.policy)
        object.__setattr__(self, "batch_size", batch_size)


@dataclass(frozen=True)
class Checkpoint:
    """Running summary after ``runs`` completed runs."""

    runs: int
    mean: float
    stderr: float
    exact: float | None
    rel_dev: float | None


@dataclass(frozen=True)
class CampaignReport:
    algorithm: str
    runs: int
    seed: int
    batch_size: int
    exact: float | None
    checkpoints: tuple[Checkpoint, ...]


@dataclass(frozen=True)
class UnbiasednessReport:
    algorithm: str
    runs: int
    l1: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class BatchScanRow:
    """One scan entry; ``batch_size`` None marks the infinite-batch limit row."""

    batch_size: int | None
    exact: float
    mean: float | None
    stderr: float | None


def _decode_blocks(campaign: Campaign, batch_sizes=None):
    """Yield (j, tokens, rejections) arrays for the campaign's runs at ``batch_sizes[j]``.

    ``batch_sizes`` defaults to the campaign's own. The engine or the scalar
    loop, by the dispatch rule in the module docstring; both read run i from
    ``split_rng(seed, i)`` at every size. Blocks come in run order within a
    size, and the sizes in turn unless the engine packs them into one block.
    """
    pair, algorithm, policy = campaign.pair, campaign.algorithm, campaign.policy
    sizes = (campaign.batch_size,) if batch_sizes is None else tuple(batch_sizes)
    if (
        algorithm != "autoregressive"
        and _is_markov_pair(pair)
        and (policy is None or policy.tables is not None)
    ):
        blocks = _lockstep_blocks(pair, sizes, policy, campaign.seed, 0, campaign.runs)
        for j, _, runs in blocks:
            yield j, runs.tokens, runs.rejections
        return
    for j, batch_size in enumerate(sizes):
        for start in range(0, campaign.runs, BLOCK_RUNS):
            count = min(BLOCK_RUNS, campaign.runs - start)
            tokens = np.empty((count, pair.horizon), dtype=np.int64)
            rejections = np.zeros(count, dtype=np.int64)
            for i in range(count):
                rng = split_rng(campaign.seed, start + i)
                if algorithm == "autoregressive":
                    tokens[i] = autoregressive_decode(pair.q, rng).tokens
                    continue
                trajectory, stats = _decode(pair, batch_size, policy, rng)
                tokens[i], rejections[i] = trajectory.tokens, stats.rejections
            yield j, tokens, rejections


def _exact_reference(campaign: Campaign) -> float | None:
    pair = campaign.pair
    if campaign.algorithm == "sd":
        return expected_rejections_sd(pair)
    if campaign.algorithm == "batch":
        return expected_rejections_batch(pair, campaign.batch_size).total
    if campaign.algorithm == "autoregressive":
        return 0.0
    if pair.vocab_size**pair.horizon <= FULL_TABLE_CAP:
        return enumerate_expected_rejections(pair, "generic", policy=campaign.policy)
    return None


def _checkpoint(counts: np.ndarray, k: int, exact: float | None) -> Checkpoint:
    sample = counts[:k]
    mean = float(sample.mean())
    stderr = 0.0 if k < 2 else float(sample.std(ddof=1) / math.sqrt(k))
    if exact is None:
        rel = None
    elif exact != 0.0:
        rel = (mean - exact) / exact
    else:
        rel = mean - exact  # absolute fallback at a zero reference
    return Checkpoint(runs=k, mean=mean, stderr=stderr, exact=exact, rel_dev=rel)


def run_campaign(campaign: Campaign) -> CampaignReport:
    """Execute all runs on split per-run streams and summarize at checkpoints."""
    exact = _exact_reference(campaign)
    if campaign.algorithm == "autoregressive":
        counts = np.zeros(campaign.runs, dtype=np.int64)  # never rejects, nothing to sample
    else:
        counts = np.concatenate([rejections for _, _, rejections in _decode_blocks(campaign)])
    marks = list(range(campaign.checkpoint_every, campaign.runs + 1, campaign.checkpoint_every))
    if not marks or marks[-1] != campaign.runs:
        marks.append(campaign.runs)
    return CampaignReport(
        algorithm=campaign.algorithm,
        runs=campaign.runs,
        seed=campaign.seed,
        batch_size=campaign.batch_size,
        exact=exact,
        checkpoints=tuple(_checkpoint(counts, k, exact) for k in marks),
    )


def unbiasedness_check(
    pair: ModelPair,
    algorithm: str = "sd",
    runs: int = 1_000_000,
    seed: int = 0,
    *,
    batch_size: int = 1,
    policy: Policy | None = None,
    l1_threshold: float = 0.02,
) -> UnbiasednessReport:
    """Compare the empirical trajectory law against the exact target joint.

    Tabulates all V**T sequences (capped at TABULATION_CAP) over ``runs``
    decoding runs and passes iff the L1 distance to the target joint law is
    at most ``l1_threshold``, a finite real >= 0.
    """
    l1_threshold = _real_arg("l1_threshold", l1_threshold, 0.0)
    size = pair.vocab_size**pair.horizon
    if size > TABULATION_CAP:
        raise ValueError(f"V**T = {size} exceeds the tabulation cap {TABULATION_CAP}")
    campaign = Campaign(
        pair=pair, algorithm=algorithm, runs=runs, seed=seed,
        batch_size=batch_size, policy=policy,
    )
    place = pair.vocab_size ** np.arange(pair.horizon - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    for _, tokens, _ in _decode_blocks(campaign):
        counts += np.bincount(tokens @ place, minlength=size)
    l1 = float(np.abs(counts / campaign.runs - joint_distribution(pair.q)).sum())
    return UnbiasednessReport(
        algorithm=algorithm, runs=campaign.runs, l1=l1, threshold=l1_threshold,
        passed=bool(l1 <= l1_threshold),
    )


def batch_scan(pair: ModelPair, batch_sizes, runs: int, seed: int) -> list[BatchScanRow]:
    """Exact and empirical rejections per batch size, closed by the limit row.

    Every batch size reuses the same master seed, so scans are reproducible
    and positively paired across rows: run i reads ``split_rng(seed, i)`` at
    every size. The sizes' runs are decoded together (see the module
    docstring), and each row equals the final checkpoint of that size's own
    campaign.
    """
    sizes = [_int_arg("batch size", m, 1) for m in batch_sizes]
    rows = []
    if sizes:
        campaign = Campaign(pair=pair, algorithm="batch", runs=runs, seed=seed,
                            batch_size=sizes[0])
        exacts = [expected_rejections_batch(pair, m).total for m in sizes]
        counts = [[] for _ in sizes]
        for j, _, rejections in _decode_blocks(campaign, sizes):
            counts[j].append(rejections)
        for m, exact, blocks in zip(sizes, exacts, counts):
            final = _checkpoint(np.concatenate(blocks), campaign.runs, exact)
            rows.append(BatchScanRow(m, exact, final.mean, final.stderr))
    rows.append(BatchScanRow(None, limit_rejections(pair), None, None))
    return rows
