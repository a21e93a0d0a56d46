"""Campaign harness: reproducibility, checkpoint math, statistical agreement."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from specdec import (
    Campaign,
    InvalidPolicy,
    ModelPair,
    Policy,
    batch_scan,
    markov_to_full,
    random_model_pair,
    random_unbiased_policy,
    run_campaign,
    sd_policy,
    unbiasedness_check,
)

from specdec import decoding, exact, montecarlo
from specdec.cli import report_header
from specdec.decoding import (BLOCK_RUNS, WINDOW_BUDGET, _block_runs, _run_blocks, _scalar_block,
                              _stream_length, _whole_streams)

from helpers import constant_chain

PAIR = random_model_pair(3, 5, seed=307)


class TestCampaignValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            Campaign(pair=PAIR, algorithm="beam", runs=10, seed=0)

    def test_bad_counts(self):
        with pytest.raises(ValueError, match="runs"):
            Campaign(pair=PAIR, algorithm="sd", runs=0, seed=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            Campaign(pair=PAIR, algorithm="sd", runs=10, seed=0, checkpoint_every=0)
        with pytest.raises(ValueError, match="batch_size"):
            Campaign(pair=PAIR, algorithm="batch", runs=10, seed=0, batch_size=0)

    def test_generic_needs_policy(self):
        with pytest.raises(ValueError, match="policy"):
            Campaign(pair=PAIR, algorithm="generic", runs=10, seed=0)
        for policy in ("x", object()):
            with pytest.raises(TypeError, match="not a Policy"):
                Campaign(pair=PAIR, algorithm="generic", runs=10, seed=0, policy=policy)
            with pytest.raises(TypeError, match="not a Policy"):
                unbiasedness_check(PAIR, "generic", runs=10, policy=policy)

    @pytest.mark.parametrize("value", ["x", None, PAIR.q])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda pair: Campaign(pair=pair, algorithm="sd", runs=3, seed=0),
            lambda pair: unbiasedness_check(pair, "sd", runs=3),
            lambda pair: batch_scan(pair, [1, 2], runs=3, seed=0),
        ],
        ids=["Campaign", "unbiasedness_check", "batch_scan"],
    )
    def test_refuses_anything_but_a_model_pair(self, entry, value):
        # Every campaign entry point refuses a non-pair with the closed forms'
        # TypeError before it reads any attribute of it.
        with pytest.raises(TypeError, match=f"^expected a ModelPair, not {type(value).__name__}$"):
            entry(value)

    @pytest.mark.parametrize("algorithm", ["sd", "generic", "autoregressive"])
    def test_only_batch_takes_a_batch_size(self, algorithm):
        policy = sd_policy(PAIR) if algorithm == "generic" else None
        with pytest.raises(ValueError, match=f"^{algorithm} runs need batch_size 1$"):
            Campaign(pair=PAIR, algorithm=algorithm, runs=10, seed=0, batch_size=2, policy=policy)
        campaign = Campaign(pair=PAIR, algorithm=algorithm, runs=10, seed=0, batch_size=1.0,
                            policy=policy)
        assert campaign.batch_size == 1

    @pytest.mark.parametrize("algorithm", ["sd", "batch", "autoregressive"])
    def test_only_generic_takes_a_policy(self, algorithm):
        with pytest.raises(ValueError, match=f"^{algorithm} runs take no policy$"):
            Campaign(pair=PAIR, algorithm=algorithm, runs=10, seed=0, policy=sd_policy(PAIR))

    def test_unbiasedness_check_refuses_unused_arguments(self):
        with pytest.raises(ValueError, match="sd runs need batch_size 1"):
            unbiasedness_check(PAIR, "sd", runs=10, seed=1, batch_size=5)
        with pytest.raises(ValueError, match="batch runs take no policy"):
            unbiasedness_check(PAIR, "batch", runs=10, seed=1, batch_size=2,
                               policy=sd_policy(PAIR))
        with pytest.raises(ValueError, match="^generic runs need batch_size 1$"):
            unbiasedness_check(PAIR, "generic", runs=10, seed=1, batch_size=2,
                               policy=sd_policy(PAIR))


class TestStrictInputs:
    def test_bool_batch_size_rejected(self):
        with pytest.raises(TypeError, match="batch_size"):
            Campaign(pair=PAIR, algorithm="batch", runs=10, seed=0, batch_size=True)

    @pytest.mark.parametrize("field", ["runs", "seed", "batch_size", "checkpoint_every"])
    def test_fractional_counts_rejected(self, field):
        settings = {"pair": PAIR, "algorithm": "sd", "runs": 10, "seed": 0, field: 2.5}
        with pytest.raises(TypeError, match=field):
            Campaign(**settings)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            Campaign(pair=PAIR, algorithm="sd", runs=10, seed=-1)

    def test_integral_floats_become_ints(self):
        campaign = Campaign(pair=PAIR, algorithm="sd", runs=20.0, seed=3.0, checkpoint_every=10.0)
        assert (campaign.runs, campaign.seed, campaign.checkpoint_every) == (20, 3, 10)
        assert type(campaign.runs) is int and type(campaign.seed) is int
        assert run_campaign(campaign) == run_campaign(
            Campaign(pair=PAIR, algorithm="sd", runs=20, seed=3, checkpoint_every=10)
        )

    def test_batch_scan_rejects_non_integer_sizes(self):
        with pytest.raises(TypeError, match="batch size"):
            batch_scan(PAIR, [True, 2.0], runs=10, seed=0)
        with pytest.raises(TypeError, match="batch size"):
            batch_scan(PAIR, [2, 1.5], runs=10, seed=0)

    @pytest.mark.parametrize("runs, seed", [(-5, "x"), (0, 0), (2.5, 0), (3, -1), (3, "x")])
    def test_batch_scan_checks_runs_and_seed_without_sizes(self, runs, seed):
        # With no batch sizes only the limit row is left, but the arguments
        # are checked as they are with sizes.
        with pytest.raises((TypeError, ValueError)) as expected:
            batch_scan(PAIR, [1], runs, seed)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            batch_scan(PAIR, [], runs, seed)
        assert [row.batch_size for row in batch_scan(PAIR, [], 3, 0)] == [None]

    @pytest.mark.parametrize("value", ["0.5", True])
    def test_scalar_route_refuses_policy_values_that_are_not_real(self, value):
        # A policy without tables takes the scalar loop, which checks each callback value.
        pair = random_model_pair(2, 3, seed=4)
        policy = Policy(lambda n, h, c: value, pair.q.step)
        campaign = Campaign(pair=pair, algorithm="generic", runs=5, seed=0, policy=policy)
        with pytest.raises(InvalidPolicy, match="not a real number"):
            next(decoding._run_blocks(pair, "generic", (1,), policy, 0, 0, 5))  # the runs alone
        with pytest.raises(InvalidPolicy, match="not a real number"):
            run_campaign(campaign)

    def test_unbiasedness_check_validates_its_counts(self):
        pair = random_model_pair(2, 3, seed=21)
        with pytest.raises(TypeError, match="runs"):
            unbiasedness_check(pair, "sd", runs=2.5)
        with pytest.raises(ValueError, match="seed"):
            unbiasedness_check(pair, "sd", runs=10, seed=-1)
        with pytest.raises(TypeError, match="batch_size"):
            unbiasedness_check(pair, "batch", runs=10, batch_size=True)
        with pytest.raises(TypeError, match="l1_threshold"):
            unbiasedness_check(pair, "sd", runs=10, l1_threshold=True)
        with pytest.raises(ValueError, match="l1_threshold"):
            unbiasedness_check(pair, "sd", runs=10, l1_threshold=float("nan"))
        with pytest.raises(ValueError, match="l1_threshold"):
            unbiasedness_check(pair, "sd", runs=10, l1_threshold=-0.1)


class TestDispatch:
    """sd, batch and generic runs with tables take the lockstep engine, on a
    Markov pair and on the same pair as history tables; a policy without
    tables takes the scalar loop. Both read the same streams."""

    @pytest.mark.parametrize("algorithm, batch_size", [("sd", 1), ("batch", 3), ("generic", 1)])
    def test_engine_and_scalar_paths_agree(self, algorithm, batch_size):
        pair = random_model_pair(2, 3, seed=5)
        full = ModelPair(markov_to_full(pair.p), markov_to_full(pair.q))
        policy = (random_unbiased_policy(pair, np.random.default_rng(3))
                  if algorithm == "generic" else None)
        inputs = [(pair, policy), (full, policy)]
        if policy is not None:
            assert policy.tables is not None
            inputs.append((pair, Policy(policy.acceptance, policy.residual)))
        runs = _block_runs(batch_size, 3) + 40  # crosses an engine block boundary
        # The history copy takes the engine too, so the scalar side is decoded
        # explicitly: the scalar loop, run i on split_rng(4, i), the campaigns'
        # streams below. A callback copy's campaign runs the scalar loop.
        scalar = _scalar_block(full, algorithm, batch_size, policy, 4, 0, runs)
        for p, pol in inputs[:2]:
            blocks = [block for _, _, block in
                      _run_blocks(p, algorithm, (batch_size,), pol, 4, 0, runs)]
            for column, want in zip(zip(*blocks), scalar):
                assert np.concatenate(column).tolist() == want.tolist()

        def summary(p, pol):
            report = run_campaign(Campaign(pair=p, algorithm=algorithm, runs=runs,
                                           seed=4, batch_size=batch_size, policy=pol,
                                           checkpoint_every=500))
            return [(c.runs, c.mean, c.stderr) for c in report.checkpoints]

        summaries = [summary(p, pol) for p, pol in inputs]
        assert all(other == summaries[0] for other in summaries[1:])
        l1 = [unbiasedness_check(p, algorithm, runs=runs, seed=6,
                                 batch_size=batch_size, policy=pol).l1 for p, pol in inputs]
        assert all(other == l1[0] for other in l1[1:])

    def test_autoregressive_campaign_samples_nothing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("autoregressive campaigns need no samples")

        monkeypatch.setattr(decoding, "autoregressive_decode", fail)
        report = run_campaign(Campaign(pair=PAIR, algorithm="autoregressive", runs=50, seed=1))
        final = report.checkpoints[-1]
        assert (final.runs, final.mean, final.stderr, final.rel_dev) == (50, 0.0, 0.0, 0.0)


class TestRunCampaign:
    def test_reports_are_reproducible(self):
        campaign = Campaign(pair=PAIR, algorithm="sd", runs=300, seed=9)
        assert run_campaign(campaign) == run_campaign(campaign)

    def test_checkpoint_cadence(self):
        campaign = Campaign(pair=PAIR, algorithm="sd", runs=250, seed=9, checkpoint_every=100)
        report = run_campaign(campaign)
        assert [c.runs for c in report.checkpoints] == [100, 200, 250]

    def test_final_checkpoint_always_present(self):
        campaign = Campaign(pair=PAIR, algorithm="sd", runs=7, seed=9, checkpoint_every=100)
        report = run_campaign(campaign)
        assert [c.runs for c in report.checkpoints] == [7]

    def test_exact_reference_by_algorithm(self):
        sd = run_campaign(Campaign(pair=PAIR, algorithm="sd", runs=5, seed=1))
        batch = run_campaign(Campaign(pair=PAIR, algorithm="batch", runs=5, seed=1, batch_size=3))
        auto = run_campaign(Campaign(pair=PAIR, algorithm="autoregressive", runs=5, seed=1))
        assert sd.exact is not None and batch.exact is not None
        assert batch.exact < sd.exact
        assert auto.exact == 0.0

    def test_generic_reference_uses_enumeration(self):
        small = random_model_pair(2, 3, seed=5)
        campaign = Campaign(
            pair=small, algorithm="generic", runs=50, seed=2, policy=sd_policy(small)
        )
        report = run_campaign(campaign)
        sd = run_campaign(Campaign(pair=small, algorithm="sd", runs=50, seed=2))
        assert report.exact == pytest.approx(sd.exact, abs=1e-12)
        # identical draw order: the generic runs reproduce the sd runs
        assert report.checkpoints[-1].mean == sd.checkpoints[-1].mean

    def test_zero_variance_campaign(self):
        model = PAIR.q
        same = ModelPair(model, model)
        report = run_campaign(Campaign(pair=same, algorithm="sd", runs=50, seed=3))
        final = report.checkpoints[-1]
        assert final.mean == 0.0
        assert final.stderr == 0.0
        assert final.rel_dev == 0.0  # absolute deviation at a zero reference

    def test_mean_within_three_stderr(self):
        report = run_campaign(Campaign(pair=PAIR, algorithm="sd", runs=4000, seed=11))
        final = report.checkpoints[-1]
        assert abs(final.mean - final.exact) <= 3.0 * final.stderr

    def test_stderr_shrinks_like_sqrt_runs(self):
        report = run_campaign(
            Campaign(pair=PAIR, algorithm="sd", runs=6400, seed=13, checkpoint_every=1600)
        )
        first, last = report.checkpoints[0], report.checkpoints[-1]
        ratio = first.stderr / last.stderr
        assert 1.4 <= ratio <= 2.8  # 2.0 expected at 4x the runs

    def test_checkpoints_match_numpys_prefix_statistics(self):
        # Every checkpoint comes from one cumulative pass of sums and sums of
        # squares, and holds the prefix's numpy mean and std(ddof=1) / sqrt(k).
        for algorithm, batch_size in (("sd", 1), ("batch", 3)):
            campaign = Campaign(pair=PAIR, algorithm=algorithm, runs=2000, seed=4,
                                batch_size=batch_size, checkpoint_every=7)
            report = run_campaign(campaign)
            counts = np.concatenate([runs.rejections for _, _, runs in _run_blocks(
                PAIR, algorithm, (batch_size,), None, 4, 0, 2000)])
            assert counts.std() > 0
            for checkpoint in report.checkpoints:
                sample = counts[:checkpoint.runs]
                assert checkpoint.mean == float(sample.mean())
                want = 0.0 if len(sample) < 2 else sample.std(ddof=1) / math.sqrt(len(sample))
                assert checkpoint.stderr == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_dense_checkpoints_cost_one_pass(self):
        # Each checkpoint once took the mean and std of its whole prefix, so
        # 50 000 checkpoints took about 5 s on a 2-core host; one cumulative
        # pass takes about 0.25 s.
        start = time.monotonic()
        report = run_campaign(Campaign(pair=random_model_pair(2, 3, seed=12), algorithm="sd",
                                       runs=50_000, seed=0, checkpoint_every=1))
        elapsed = time.monotonic() - start
        assert [c.runs for c in report.checkpoints] == list(range(1, 50_001))
        assert elapsed < 2.5

    def test_coverage_across_campaigns(self):
        # 30 independent campaigns: at least 29 should land within 3 stderr
        hits = 0
        for seed in range(30):
            report = run_campaign(Campaign(pair=PAIR, algorithm="sd", runs=400, seed=seed))
            final = report.checkpoints[-1]
            hits += abs(final.mean - final.exact) <= 3.0 * final.stderr
        assert hits >= 29


class TestUnbiasednessCheck:
    def test_sd_passes_at_moderate_runs(self):
        pair = random_model_pair(2, 3, seed=21)
        report = unbiasedness_check(pair, "sd", runs=20_000, seed=5, l1_threshold=0.05)
        assert report.passed
        assert report.l1 <= 0.05

    def test_batch_passes_at_moderate_runs(self):
        pair = random_model_pair(2, 3, seed=21)
        report = unbiasedness_check(
            pair, "batch", runs=20_000, seed=5, batch_size=2, l1_threshold=0.05
        )
        assert report.passed

    def test_biased_control_fails(self):
        pair = random_model_pair(2, 3, seed=21)
        from specdec import always_accept_policy

        report = unbiasedness_check(
            pair, "generic", runs=20_000, seed=5,
            policy=always_accept_policy(pair), l1_threshold=0.05,
        )
        assert not report.passed
        assert report.l1 > 0.2  # the draft law is far from the target law

    @pytest.mark.parametrize("algorithm, batch_size", [("sd", 1), ("batch", 2), ("generic", 1)])
    def test_memory_is_bounded_by_the_block(self, algorithm, batch_size):
        # c8's pair. A block holds about 2**16 uniforms (512 KB), drawn
        # straight into its window, and peaks at 1.2-1.8 MB. Blocks of 8192
        # runs whose kernel stages its output as uint64 and transposes it
        # peak at 3.8-5.5 MB, and blocks of 2**17 uniforms at 2.4-3.5 MB.
        pair = random_model_pair(2, 3, seed=2024)
        policy = (random_unbiased_policy(pair, np.random.default_rng(3))
                  if algorithm == "generic" else None)
        runs = 2 * _block_runs(batch_size, 3) + 100
        unbiasedness_check(pair, "sd", runs=10, seed=1)  # warm caches outside the trace
        tracemalloc.start()
        try:
            report = unbiasedness_check(pair, algorithm, runs=runs, seed=1,
                                        batch_size=batch_size, policy=policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2.5 * 2**20

    @pytest.mark.parametrize("algorithm, batch_size", [("sd", 1), ("batch", 4)])
    def test_long_run_memory_is_bounded_by_the_window_budget(self, algorithm, batch_size):
        # c2's pair (T = 50). A block of BLOCK_RUNS runs holds 2R uniforms per
        # run (1.6 MB at M = 1, 4.2 MB at M = 4) and the last block, of 100
        # runs, WINDOW_BUDGET of them (1 MB); the block's generators and token
        # arrays add about 1.9 MB. Windows of whole streams at every block
        # would take 11 MB at M = 1 and 44 MB at M = 4.
        pair = random_model_pair(7, 50, seed=10)
        run_campaign(Campaign(pair, "sd", 10, 1))  # warm caches outside the trace
        narrowest = 2 * (batch_size * 50 + batch_size + 50)
        window = 8 * max(narrowest * BLOCK_RUNS, WINDOW_BUDGET)
        tracemalloc.start()
        try:
            run_campaign(Campaign(pair, algorithm, BLOCK_RUNS + 100, 1, batch_size=batch_size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < window + 2.5 * 2**20

    def test_tabulation_cap(self):
        pair = random_model_pair(10, 5, seed=1)  # 10**5 tables exceed the cap
        with pytest.raises(ValueError, match="cap"):
            unbiasedness_check(pair, "sd", runs=10)


class TestBatchScan:
    def test_rows_and_limit(self):
        pair = random_model_pair(3, 4, seed=23)
        rows = batch_scan(pair, [1, 2, 4], runs=200, seed=6)
        assert [r.batch_size for r in rows] == [1, 2, 4, None]
        exacts = [r.exact for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(exacts, exacts[1:]))
        limit = rows[-1]
        assert limit.mean is None and limit.stderr is None
        assert all(limit.exact <= r.exact + 1e-12 for r in rows[:-1])

    def test_each_closed_form_is_computed_once(self, monkeypatch):
        pair = random_model_pair(2, 3, seed=24)
        closed_form, gains = exact._sd_and_gain, []

        def counted(pair, batch_size):
            gains.append(batch_size)
            return closed_form(pair, batch_size)

        monkeypatch.setattr(exact, "_sd_and_gain", counted)
        rows = batch_scan(pair, [1, 2, 4], runs=50, seed=7)
        assert sorted(gains, key=str) == [1, 2, 4, None]
        assert [r.exact for r in rows[:-1]] == [
            exact.expected_rejections_batch(pair, m).total for m in (1, 2, 4)
        ]

    def test_scan_is_reproducible(self):
        pair = random_model_pair(2, 3, seed=24)
        assert batch_scan(pair, [1, 3], runs=100, seed=7) == batch_scan(
            pair, [1, 3], runs=100, seed=7
        )


@pytest.fixture
def engine_blocks(monkeypatch):
    """(rows, window width, keeps generators) of every lockstep block built, in order."""
    built = []

    class Counted(decoding._Lockstep):
        def __init__(self, pair, batch_sizes, tables, window, rngs):
            built.append((window.shape[0], window.shape[1], rngs is not None))
            super().__init__(pair, batch_sizes, tables, window, rngs)

    monkeypatch.setattr(decoding, "_Lockstep", Counted)
    return built


def scan_by_campaigns(pair, sizes, runs, seed):
    """batch_scan's finite rows as one campaign per size makes them."""
    rows = []
    for m in sizes:
        report = run_campaign(Campaign(pair, "batch", runs, seed, batch_size=m,
                                       checkpoint_every=runs))
        final = report.checkpoints[-1]
        rows.append(montecarlo.BatchScanRow(m, report.exact, final.mean, final.stderr))
    return rows


class TestMergedScan:
    """A small scan decodes all its batch sizes in one lockstep block, row for row as alone."""

    @pytest.mark.parametrize("sizes", [[1, 2, 4], [4, 1, 2], [2, 1, 2, 2], [8, 3, 1, 8]])
    @pytest.mark.parametrize("regime", ["whole", "W=S", "W<S"])
    def test_rows_equal_each_sizes_own_campaign(self, regime, sizes, engine_blocks,
                                                monkeypatch):
        # T = 2 streams fit the narrowest window whole at every M. At T = 8
        # the budget's share of k*runs <= 80 rows is >= 1638 uniforms, more
        # than S(8, 8) = 361; with no budget the windows are 2R(M) wide and
        # every row tops up from its own generator.
        horizon, runs = (2, 40) if regime == "whole" else (8, 20)
        if regime == "W<S":
            monkeypatch.setattr("specdec.decoding.WINDOW_BUDGET", 0)
        pair = random_model_pair(3, horizon, seed=31)
        rows = batch_scan(pair, sizes, runs, seed=5)
        largest, k = max(sizes), len(sizes)
        width = _stream_length(largest, horizon)
        if regime == "W<S":
            width = 2 * (largest * horizon + largest + horizon)
        assert _whole_streams(largest, horizon) == (regime == "whole")
        assert engine_blocks == [(k * runs, width, regime == "W<S")]
        engine_blocks.clear()
        assert rows[:-1] == scan_by_campaigns(pair, sizes, runs, seed=5)
        assert len(engine_blocks) == k

    def test_full_model_pairs_share_one_block_too(self, engine_blocks, monkeypatch):
        # A history pair's scan is one shared engine block, as its Markov
        # original's is, with the Markov runs; past the table budget it goes
        # size by size on the scalar loop, with the same rows.
        markov = random_model_pair(2, 3, seed=24)
        pair = ModelPair(markov_to_full(markov.p), markov_to_full(markov.q))
        rows = batch_scan(pair, [3, 1, 2], runs=60, seed=7)
        assert engine_blocks == [(180, 31, False)]
        assert rows[:-1] == scan_by_campaigns(pair, [3, 1, 2], runs=60, seed=7)
        merged = batch_scan(markov, [3, 1, 2], runs=60, seed=7)
        assert [row.mean for row in rows] == [row.mean for row in merged]
        engine_blocks.clear()
        monkeypatch.setattr(decoding, "TABLE_BUDGET", 0)
        assert batch_scan(pair, [3, 1, 2], runs=60, seed=7) == rows
        assert engine_blocks == []

    def test_a_scan_too_large_for_one_block_decodes_size_by_size(self, engine_blocks):
        # 3 * 2000 rows exceed _block_runs(3, 3) = 1024: the sizes take the
        # blocks they take alone, (1, 3) and (2, 3) whole streams, (3, 3) two.
        pair = random_model_pair(2, 3, seed=2024)
        rows = batch_scan(pair, [1, 2, 3], runs=2000, seed=3)
        scanned = list(engine_blocks)
        engine_blocks.clear()
        assert rows[:-1] == scan_by_campaigns(pair, [1, 2, 3], runs=2000, seed=3)
        assert scanned == engine_blocks
        assert [rows for rows, _, _ in scanned] == [2000, 2000, 1024, 976]

    def test_a_shared_block_is_bounded_by_the_window_budget(self, engine_blocks):
        # c2's pair (T = 50). 900 rows of sizes 1, 2 and 4 share one block of
        # 2R(4) = 508 uniforms per row (3.5 MB); its 900 generators and token
        # arrays add about 1.4 MB.
        pair = random_model_pair(7, 50, seed=10)
        batch_scan(pair, [1], 10, 1)  # warm caches outside the trace
        engine_blocks.clear()
        tracemalloc.start()
        try:
            batch_scan(pair, [1, 2, 4], 300, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert engine_blocks == [(900, 508, True)]
        assert peak < 8 * max(508 * 900, WINDOW_BUDGET) + 2.5 * 2**20


class TestTablesPerCampaign:
    """The engine's tables are built once per campaign, however many blocks it decodes."""

    @pytest.fixture
    def table_calls(self, monkeypatch):
        calls, tables = [], decoding._tables

        def counted(pair, batch_size, policy):
            calls.append(batch_size)
            return tables(pair, batch_size, policy)

        monkeypatch.setattr(decoding, "_tables", counted)
        return calls

    # At T = 4, S(1, 4) = 19 > 2R = 18: blocks of BLOCK_RUNS runs.
    RUNS = 2 * BLOCK_RUNS + 5

    def test_run_campaign(self, table_calls, engine_blocks):
        pair = random_model_pair(2, 4, seed=3)
        run_campaign(Campaign(pair, "batch", self.RUNS, 1, batch_size=2))
        assert table_calls == [2] and len(engine_blocks) == 3

    def test_unbiasedness_check(self, table_calls, engine_blocks):
        pair = random_model_pair(2, 4, seed=3)
        unbiasedness_check(pair, "sd", runs=self.RUNS, seed=1, l1_threshold=1.0)
        assert table_calls == [1] and len(engine_blocks) == 3

    @pytest.mark.parametrize("sizes, blocks", [([1, 3], 6), ([3, 2], 1)])
    def test_batch_scan(self, table_calls, engine_blocks, sizes, blocks):
        pair = random_model_pair(2, 4, seed=3)
        runs = self.RUNS if blocks > 1 else 100
        batch_scan(pair, sizes, runs, seed=2)
        assert table_calls == [max(sizes)] and len(engine_blocks) == blocks


class TestReportHeader:
    def test_compact_sorted_config(self):
        lines = report_header("exact", {"b": 1, "a": {"y": 2, "x": [1.5, 2]}})
        assert lines[0] == "specdec exact"
        assert lines[1] == 'config {"a":{"x":[1.5,2],"y":2},"b":1}'


class TestUnreachedBranches:
    def test_autoregressive_unbiasedness(self):
        # The only caller of the scalar route's autoregressive branch. Bound
        # chosen on frozen seeds: over seeds 0-19 at 5000 runs the L1 was at
        # most 0.044, and 0.026 at seed 5.
        pair = random_model_pair(2, 3, seed=21)
        report = unbiasedness_check(pair, "autoregressive", runs=5000, seed=5, l1_threshold=0.08)
        assert report.passed
        assert report.l1 <= 0.08

    def test_generic_campaign_past_the_table_cap_has_no_reference(self):
        pair = random_model_pair(2, 20, seed=1)  # 2**20 > FULL_TABLE_CAP
        report = run_campaign(
            Campaign(pair=pair, algorithm="generic", runs=20, seed=1, policy=sd_policy(pair),
                     checkpoint_every=10)
        )
        assert report.exact is None
        assert [c.exact for c in report.checkpoints] == [None, None]
        assert [c.rel_dev for c in report.checkpoints] == [None, None]
        assert report.checkpoints[-1].mean >= 0.0
