"""Monte Carlo campaigns cross-checking the samplers against the exact formulas.

Run i of a campaign decodes on its own child stream ``split_rng(seed, i)``, so
campaigns are reproducible run-for-run and any run can be replayed alone.
Campaigns decode nothing themselves: ``decoding._run_blocks`` decodes their
runs in blocks, in run order, on the route it chooses, and each campaign
statistic is a fold over those blocks. A batch scan hands the block loop all
its batch sizes at once. Every route gives the same runs, so the choice
changes speed and not results, and working memory is set by the block size,
not by the number of runs.
Reports carry the matching closed-form reference value so empirical means can
be judged against their standard errors at every checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import enumeration
from .decoding import Policy, _run_args, _run_blocks
from .dist import _int_arg, _real_arg
from .enumeration import enumerate_expected_rejections
from .exact import expected_rejections_batch, expected_rejections_sd, limit_rejections
from .models import FULL_TABLE_CAP, ModelPair, _pair_arg, joint_distribution

ALGORITHMS = (*enumeration.ALGORITHMS, "autoregressive")
TABULATION_CAP = 10_000


@dataclass(frozen=True)
class Campaign:
    """Specification of one simulation campaign.

    ``checkpoint_every`` sets the reporting cadence in runs; a final
    checkpoint at ``runs`` is always included. Only batch campaigns take a
    ``batch_size`` other than 1 and only generic ones a ``policy``; other
    algorithms refuse them by the rule the engine and the oracle share, which
    also refuses a policy whose tables are not (T, V, V) for ``pair``.
    """

    pair: ModelPair
    algorithm: str
    runs: int
    seed: int
    batch_size: int = 1
    policy: Policy | None = None
    checkpoint_every: int = 100

    def __post_init__(self) -> None:
        _pair_arg(self.pair)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        for name, minimum in (("runs", 1), ("seed", 0), ("checkpoint_every", 1)):
            object.__setattr__(self, name, _int_arg(name, getattr(self, name), minimum))
        batch_size, _ = _run_args(self.pair, self.algorithm, self.batch_size, self.policy)
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
        blocks = _run_blocks(campaign.pair, campaign.algorithm, (campaign.batch_size,),
                             campaign.policy, campaign.seed, 0, campaign.runs)
        counts = np.concatenate([runs.rejections for _, _, runs in blocks])
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
    size = _pair_arg(pair).vocab_size ** pair.horizon
    if size > TABULATION_CAP:
        raise ValueError(f"V**T = {size} exceeds the tabulation cap {TABULATION_CAP}")
    campaign = Campaign(
        pair=pair, algorithm=algorithm, runs=runs, seed=seed,
        batch_size=batch_size, policy=policy,
    )
    place = pair.vocab_size ** np.arange(pair.horizon - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    blocks = _run_blocks(pair, campaign.algorithm, (campaign.batch_size,), campaign.policy,
                         campaign.seed, 0, campaign.runs)
    for _, _, runs in blocks:
        counts += np.bincount(runs.tokens @ place, minlength=size)
    l1 = float(np.abs(counts / campaign.runs - joint_distribution(pair.q)).sum())
    return UnbiasednessReport(
        algorithm=algorithm, runs=campaign.runs, l1=l1, threshold=l1_threshold,
        passed=bool(l1 <= l1_threshold),
    )


def batch_scan(pair: ModelPair, batch_sizes, runs: int, seed: int) -> list[BatchScanRow]:
    """Exact and empirical rejections per batch size, closed by the limit row.

    Every batch size reuses the same master seed, so scans are reproducible
    and positively paired across rows: run i reads ``split_rng(seed, i)`` at
    every size. The sizes' runs are decoded together (see the packing rule
    of ``decoding._run_blocks``), and each row equals the final checkpoint of
    that size's own campaign.
    """
    sizes = [_int_arg("batch size", m, 1) for m in batch_sizes]
    campaign = Campaign(pair=pair, algorithm="batch", runs=runs, seed=seed,
                        batch_size=max(sizes, default=1))
    rows = []
    if sizes:
        exacts = [expected_rejections_batch(pair, m).total for m in sizes]
        counts = [[] for _ in sizes]
        for j, _, runs in _run_blocks(pair, "batch", sizes, None, campaign.seed, 0, campaign.runs):
            counts[j].append(runs.rejections)
        for m, exact, blocks in zip(sizes, exacts, counts):
            final = _checkpoint(np.concatenate(blocks), campaign.runs, exact)
            rows.append(BatchScanRow(m, exact, final.mean, final.stderr))
    rows.append(BatchScanRow(None, limit_rejections(pair), None, None))
    return rows
