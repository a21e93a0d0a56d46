"""Sampler contracts: determinism, path equivalences, rejection accounting."""

import re
from fractions import Fraction

import numpy as np
import pytest

from specdec import (
    Campaign,
    CondDist,
    Dist,
    InvalidPolicy,
    MarkovModel,
    ModelPair,
    Policy,
    always_accept_policy,
    autoregressive_decode,
    batch_decode,
    batch_scan,
    enumerate_expected_rejections,
    enumerate_law_and_rejections,
    enumerate_output_distribution,
    generic_decode,
    joint_distribution,
    make_rng,
    markov_to_full,
    optimal_residual,
    over_acceptance_policy,
    random_model_pair,
    random_unbiased_policy,
    run_campaign,
    sd_policy,
    speculative_decode,
    split_rng,
    unbiasedness_check,
)
from specdec.decoding import (
    BLOCK_RUNS,
    STREAM_BUDGET,
    WINDOW_BUDGET,
    _block_runs,
    _block_streams,
    _decoded_block,
    _Lockstep,
    _run_blocks,
    _stream_length,
    _tables,
    _validated_tables,
    _whole_streams,
    _window_width,
    decode_markov_runs,
    policy_acceptance,
    policy_residual_rows,
)
from specdec.dist import ZeroResidual, _residual_rows
from specdec.models import trajectory_index
from specdec.tradeoff import DEGENERATE_TOL

from helpers import (
    constant_chain,
    empty_and_off_support_pair,
    empty_third_iterate_pair,
    late_draft_pair,
    partly_off_support_pair,
    positions_apart_pair,
    random_full_pair,
    seeded_small_pairs,
    sparse_draft_pair,
    unnormalized_step,
    zero_residual_pair,
)


def disjoint_pair(horizon: int) -> ModelPair:
    """p always emits token 0, q always token 1: every position must reject."""
    prompt = np.array([0.5, 0.5])
    p = constant_chain(prompt, np.array([1.0, 0.0]), horizon)
    q = constant_chain(prompt, np.array([0.0, 1.0]), horizon)
    return ModelPair(p, q)


def identical_pair(horizon: int) -> ModelPair:
    step = CondDist([[0.6, 0.4], [0.2, 0.8]])
    model = MarkovModel(Dist([0.3, 0.7]), [step] * horizon)
    return ModelPair(model, model)


class OffSupportDraft(MarkovModel):
    """Draft model whose sampler emits token 1 from position ``start`` on.

    Its probability rows there put no mass on token 1, so the verifier must
    refuse the drafted token; the check has to hold under ``python -O`` too.
    Both the scalar samplers' ``step_cumsum`` and the lockstep engine's
    ``step_cumsums`` table are overridden.
    """

    def __init__(self, model: MarkovModel, start: int) -> None:
        super().__init__(model.prompt, model.steps)
        self._start = start

    def step_cumsum(self, n, history):
        if n >= self._start:
            return np.zeros(2)
        return super().step_cumsum(n, history)

    @property
    def step_cumsums(self):
        cums = super().step_cumsums.copy()
        cums[self._start - 1:] = 0.0
        return cums


def off_support_pair(start: int) -> ModelPair:
    """p equals q before ``start``, so roots there always accept, and is a point mass on 0 after."""
    q = constant_chain(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 3)
    point = CondDist([[1.0, 0.0], [1.0, 0.0]])
    steps = [q.steps[n] if n + 1 < start else point for n in range(3)]
    return ModelPair(OffSupportDraft(MarkovModel(q.prompt, steps), start), q)


class TestDeterminism:
    def test_same_seed_same_run(self):
        pair = random_model_pair(4, 6, seed=11)
        for decode in (
            lambda r: speculative_decode(pair, r),
            lambda r: batch_decode(pair, 3, r),
            lambda r: generic_decode(pair, sd_policy(pair), r),
        ):
            assert decode(make_rng(42)) == decode(make_rng(42))
        a = autoregressive_decode(pair.q, make_rng(42))
        b = autoregressive_decode(pair.q, make_rng(42))
        assert a == b

    def test_split_streams_are_independent_of_order(self):
        pair = random_model_pair(3, 4, seed=11)
        direct = speculative_decode(pair, split_rng(7, 3))
        for i in (0, 1, 2):
            speculative_decode(pair, split_rng(7, i))
        assert speculative_decode(pair, split_rng(7, 3)) == direct


class TestSpeculative:
    def test_shapes_and_accounting(self):
        pair = random_model_pair(3, 5, seed=1)
        for i in range(30):
            traj, stats = speculative_decode(pair, split_rng(100, i))
            assert len(traj.tokens) == 5
            assert all(0 <= t < 3 for t in traj.tokens)
            assert stats.oracle_calls == stats.rejections
            assert sum(stats.flags) == stats.rejections
            assert len(stats.flags) == 5

    def test_identical_models_never_reject(self):
        pair = identical_pair(6)
        for i in range(20):
            _, stats = speculative_decode(pair, split_rng(5, i))
            assert stats.rejections == 0

    def test_disjoint_supports_reject_everywhere(self):
        pair = disjoint_pair(4)
        for i in range(20):
            traj, stats = speculative_decode(pair, split_rng(6, i))
            assert stats.rejections == 4
            assert stats.flags == (1, 1, 1, 1)
            assert traj.tokens == (1, 1, 1, 1)


class TestGenericFramework:
    def test_sd_policy_reproduces_speculative_paths(self):
        pair = random_model_pair(3, 5, seed=2)
        policy = sd_policy(pair)
        for i in range(60):
            assert generic_decode(pair, policy, split_rng(9, i)) == speculative_decode(
                pair, split_rng(9, i)
            )

    def test_never_accept_policy_rejects_everywhere(self):
        pair = random_model_pair(2, 4, seed=3)
        policy = Policy(
            lambda n, h, c: 0.0,
            lambda n, h: pair.q.step(n, h),
        )
        for i in range(10):
            _, stats = generic_decode(pair, policy, split_rng(11, i))
            assert stats.rejections == 4

    def test_acceptance_values_are_clamped(self):
        pair = random_model_pair(2, 4, seed=3)
        policy = Policy(lambda n, h, c: 5.0, lambda n, h: pair.q.step(n, h))
        _, stats = generic_decode(pair, policy, make_rng(0))
        assert stats.rejections == 0

    def test_bad_residual_surfaces_invalid_policy(self):
        pair = random_model_pair(2, 3, seed=4)
        reject_all = lambda n, h, c: 0.0
        for bad_row in ([0.5, 0.6], [-0.1, 1.1], [0.5, 0.5, 0.0]):
            policy = Policy(reject_all, lambda n, h: np.asarray(bad_row, dtype=float))
            with pytest.raises(InvalidPolicy):
                generic_decode(pair, policy, make_rng(0))

    def test_non_finite_acceptance_rejected(self):
        pair = random_model_pair(2, 3, seed=4)
        policy = Policy(lambda n, h, c: float("nan"), lambda n, h: pair.q.step(n, h))
        with pytest.raises(InvalidPolicy):
            generic_decode(pair, policy, make_rng(0))

    @pytest.mark.parametrize(
        "value", ["0.5", True, np.True_, None, 0.5 + 0j],
        ids=["str", "bool", "numpy-bool", "none", "complex"],
    )
    def test_acceptance_values_must_be_real_numbers(self, value):
        pair = random_model_pair(2, 3, seed=4)
        policy = Policy(lambda n, h, c: value, pair.q.step)
        with pytest.raises(InvalidPolicy, match="acceptance at position 1 is .*not a real number"):
            generic_decode(pair, policy, make_rng(0))

    @pytest.mark.parametrize(
        "row", [["0.5", "0.5"], [True, False], [None, 1.0]], ids=["str", "bool", "none"]
    )
    def test_residual_rows_must_be_real_numbers(self, row):
        pair = random_model_pair(2, 3, seed=4)
        policy = Policy(lambda n, h, c: 0.0, lambda n, h: row)
        with pytest.raises(InvalidPolicy, match="residual at position 1: .*real numbers"):
            generic_decode(pair, policy, make_rng(0))

    def test_ints_and_numpy_reals_are_taken_as_their_floats(self):
        pair = random_model_pair(2, 4, seed=3)
        for value in (1, 0, np.int64(1), np.float32(0.25), np.float64(0.5), Fraction(1, 3)):
            exact = Policy(lambda n, h, c: value, lambda n, h: list(pair.q.step(n, h)))
            floats = Policy(lambda n, h, c: float(value), pair.q.step)
            for i in range(5):
                assert generic_decode(pair, exact, split_rng(3, i)) == generic_decode(
                    pair, floats, split_rng(3, i)
                )

    def test_sd_policy_accepts_off_support_drafts(self):
        pair = disjoint_pair(2)
        # q(0)=0 but so is p's alternative: acceptance at p-support-only token is 0,
        # while a token with p=0 is accepted outright.
        policy = sd_policy(pair)
        assert policy.acceptance(1, (0,), 1) == 1.0
        assert policy.acceptance(1, (0,), 0) == 0.0


class TestSupportInvariant:
    @pytest.mark.parametrize("start", [1, 2])
    @pytest.mark.parametrize(
        "decode",
        [
            speculative_decode,
            lambda pair, rng: generic_decode(pair, sd_policy(pair), rng),
            lambda pair, rng: batch_decode(pair, 2, rng),
            lambda pair, rng: decode_markov_runs(pair, 1, 0, 0, 8),
            lambda pair, rng: decode_markov_runs(pair, 2, 0, 0, 8),
            lambda pair, rng: decode_markov_runs(pair, 1, 0, 0, 8, sd_policy(pair)),
        ],
        ids=["sd", "generic", "batch", "lockstep-sd", "lockstep-batch", "lockstep-generic"],
    )
    def test_off_support_draft_raises(self, decode, start):
        with pytest.raises(RuntimeError, match=f"outside p's support at position {start}"):
            decode(off_support_pair(start), make_rng(0))


def mixed_rounds_pair(kind: str) -> ModelPair:
    """Runs that reject at position 1 open a round at 2 while the rest verify inside theirs.

    At position 2, with ``kind`` "zero-residual", q's rows sum to 0.8, so every
    rejection there finds max(q - p, 0) = 0; with "off-support", every run
    drafts token 1, where p has no mass.
    """
    prompt = Dist([0.5, 0.5])
    first = CondDist([[0.8, 0.2], [0.8, 0.2]])
    half = CondDist([[0.5, 0.5], [0.5, 0.5]])
    if kind == "zero-residual":
        p = MarkovModel(prompt, [first, half, half])
        q = MarkovModel(prompt, [half, unnormalized_step([[0.4, 0.4], [0.4, 0.4]]), half])
    else:
        point = CondDist([[1.0, 0.0], [1.0, 0.0]])
        p = OffSupportDraft(MarkovModel(prompt, [first, point, point]), 2)
        q = MarkovModel(prompt, [half] * 3)
    return ModelPair(p, q)


def scalar_run(pair, batch_size, rng):
    if batch_size == 1:
        return speculative_decode(pair, rng)
    return batch_decode(pair, batch_size, rng)


def assert_path_identical(pair, batch_size, seed, start, count):
    """The engine's runs equal the scalar samplers' on the same streams, field by field."""
    runs = decode_markov_runs(pair, batch_size, seed, start, count)
    assert runs.tokens.shape == runs.flags.shape == (count, pair.horizon)
    for i in range(count):
        trajectory, stats = scalar_run(pair, batch_size, split_rng(seed, start + i))
        assert runs.prompt_tokens[i] == trajectory.prompt_token
        assert tuple(runs.tokens[i].tolist()) == trajectory.tokens
        assert runs.rejections[i] == stats.rejections
        assert tuple(runs.flags[i].tolist()) == stats.flags
    return runs


def outcome(decode):
    """(``decode()``, None), or (None, (type, message)) of the error it raises."""
    try:
        return decode(), None
    except (RuntimeError, ValueError) as exc:
        return None, (type(exc), str(exc))


def assert_outcomes_identical(pair, batch_size, seed, count):
    """Run by run, the engine returns the scalar samplers' run or raises their error.

    Each run is decoded alone, so one run's error cannot hide another's.
    Returns the scalar errors, None for a run that completes.
    """
    errors = []
    for i in range(count):
        scalar, error = outcome(lambda: scalar_run(pair, batch_size, split_rng(seed, i)))
        runs, engine_error = outcome(lambda: decode_markov_runs(pair, batch_size, seed, i, 1))
        assert engine_error == error, f"run {i}"
        if error is None:
            trajectory, stats = scalar
            assert runs.prompt_tokens[0] == trajectory.prompt_token, f"run {i}"
            assert tuple(runs.tokens[0].tolist()) == trajectory.tokens, f"run {i}"
            assert tuple(runs.flags[0].tolist()) == stats.flags, f"run {i}"
        errors.append(error)
    return errors


def interior_zeros_pair() -> ModelPair:
    """p has zero mass only on interior tokens 1 and 2 of V = 4, in about a third of its rows."""
    base = random_model_pair(4, 6, seed=12)
    rows = base.p.step_rows.copy()
    drop = np.random.default_rng(12).random(rows.shape) < 0.35
    drop[..., [0, 3]] = False
    rows[drop] = 0.0
    steps = [CondDist(step / step.sum(axis=1, keepdims=True)) for step in rows]
    return ModelPair(MarkovModel(base.p.prompt, steps), base.q)


def drafted_tokens(flags, horizon: int, batch_size: int) -> int:
    """Draft uniforms a run reads: a round opened at n drafts M * (T - n + 1) tokens."""
    total, start = 0, 1
    for position, flag in enumerate(flags, start=1):
        if flag:
            total += batch_size * (horizon - start + 1)
            start = position + 1
    if start <= horizon:
        total += batch_size * (horizon - start + 1)
    return total


class TestLockstepEngine:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 8])
    def test_small_battery_matches_scalar_samplers(self, batch_size):
        for k, pair in enumerate(seeded_small_pairs()):
            assert_path_identical(pair, batch_size, seed=k, start=3, count=12)

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 8])
    def test_sparse_support_pair_matches_scalar_samplers(self, batch_size):
        pair = sparse_draft_pair(5, 8, seed=41)
        rows = pair.p.steps[0].rows
        assert np.any(rows == 0.0)  # flat cumsum stretches
        assert np.any(pair.q.steps[0].rows[rows == 0.0] > 0.0)  # q keeps mass where p = 0
        assert_path_identical(pair, batch_size, seed=3, start=0, count=200)

    @pytest.mark.parametrize("batch_size", [1, 2, 4, 8])
    def test_long_runs_that_refill_their_windows(self, batch_size, monkeypatch):
        # With no window budget a block of 20 runs keeps 2R-uniform windows and tops them up.
        monkeypatch.setattr("specdec.decoding.WINDOW_BUDGET", 0)
        pair = random_model_pair(7, 50, seed=10)
        runs = assert_path_identical(pair, batch_size, seed=2024, start=0, count=20)
        window = 2 * (batch_size * 50 + batch_size + 50)
        assert max(drafted_tokens(f.tolist(), 50, batch_size) for f in runs.flags) > window

    def test_runs_across_a_block_boundary_with_an_offset(self):
        pair = random_model_pair(2, 3, seed=2024)
        block = _block_runs(2, 3)
        runs = assert_path_identical(pair, 2, seed=1, start=7, count=block + 5)
        tail = decode_markov_runs(pair, 2, 1, 7 + block - 3, 8)
        for full, part in zip(runs, tail):
            assert np.array_equal(full[block - 3:], part)
        assert np.array_equal(runs.rejections, runs.flags.sum(axis=1))

    @pytest.mark.parametrize(
        "batch_size, reads, width, cursor",
        # (1, 3) and (2, 3) read whole streams of S uniforms; at (3, 3),
        # S = 31 > 30 and, in a 2R-uniform window, every run tops up once,
        # before the round at t = 3, whose 7 uniforms are then read from a
        # refilled window.
        [(1, 13, 13, 13), (2, 22, 22, 22), (3, 31, 30, 7)],
    )
    def test_stream_source_boundary(self, batch_size, reads, width, cursor, monkeypatch):
        monkeypatch.setattr("specdec.decoding.WINDOW_BUDGET", 0)
        pair = disjoint_pair(3)
        assert _stream_length(batch_size, 3) == reads
        assert _whole_streams(batch_size, 3) == (reads <= width)
        window, rngs = _block_streams(5, 2, 50, batch_size, 3)
        assert window.shape == (50, width) and (rngs is None) == (reads <= width)
        block = _Lockstep(pair, batch_size, _tables(pair, batch_size, None), window, rngs)
        for t in (1, 2, 3):
            block.advance(t)
        assert (block.flags == 1).all()  # every round rejects every root test
        assert (block.cursor == cursor).all()
        assert_path_identical(pair, batch_size, seed=5, start=2, count=50)

    def test_stream_length_is_the_most_a_run_reads(self):
        def most_reads(batch_size, horizon):
            """x_0's uniform plus best[1]; best[t] is the most read from a round opened at t on."""
            best = [0] * (horizon + 2)
            for t in range(horizon, 0, -1):
                opened = batch_size * (horizon - t + 1) + batch_size  # drafts, root tests
                outcomes = [opened + 1 + best[t + 1], opened + horizon - t]
                outcomes += [opened + e - t + 1 + best[e + 1] for e in range(t + 1, horizon + 1)]
                best[t] = max(outcomes)
            return 1 + best[1]

        for batch_size in range(1, 7):
            for horizon in range(1, 13):
                assert _stream_length(batch_size, horizon) == most_reads(batch_size, horizon)
        fast = [
            (batch_size, horizon)
            for batch_size in range(1, 65)
            for horizon in range(1, 65)
            if _whole_streams(batch_size, horizon)
        ]
        assert {(m, t) for m, t in fast if t > 2} == {(1, 3), (2, 3)}
        for batch_size, horizon in fast:
            assert _stream_length(batch_size, horizon) <= _window_width(batch_size, horizon)

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "kind, error", [("zero-residual", ZeroResidual), ("off-support", RuntimeError)]
    )
    def test_opening_and_inside_runs_raise_the_scalar_error(self, kind, error, batch_size):
        # At M = 3 the zero-residual pair's first empty iterate is q^3 = [q^2 - p]_+,
        # reached by opening runs alone, after two root rejections.
        third = kind == "zero-residual" and batch_size == 3
        pair, count = empty_third_iterate_pair() if third else mixed_rounds_pair(kind), 200
        failing = []
        for i in range(count):
            try:
                scalar_run(pair, batch_size, split_rng(9, i))
            except error as exc:
                failing.append((i, str(exc)))
        tables = _tables(pair, batch_size, None)
        block = _Lockstep(pair, batch_size, tables, *_block_streams(9, 0, count, batch_size, 3))
        block.advance(1)
        opening = block.flags[[i for i, _ in failing], 0] == 1
        if third:
            assert opening.all() and failing[0][1].endswith("tv(q^2, p) = 0")
        else:
            assert opening.any() and not opening.all()  # both kinds of run fail at position 2
        assert {message for _, message in failing} == {failing[0][1]}
        assert "position 2" in failing[0][1]
        # The engine raises nothing: it marks exactly the failing runs and decodes on.
        block.advance(2)
        assert block.failed.nonzero()[0].tolist() == [i for i, _ in failing]
        block.advance(3)
        assert block.failed.nonzero()[0].tolist() == [i for i, _ in failing]
        with pytest.raises(error) as caught:
            decode_markov_runs(pair, batch_size, 9, 0, count)
        assert type(caught.value) is error and str(caught.value) == failing[0][1]

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_drafts_off_support_in_some_rows_only(self, batch_size):
        pair = partly_off_support_pair()
        errors = assert_outcomes_identical(pair, batch_size, seed=4, count=60)
        off = (RuntimeError, "draft token 2 outside p's support at position 2")
        assert set(errors) == {None, off}

    @pytest.mark.parametrize("batch_size", [2, 3, 5])
    def test_an_empty_residual_is_met_before_the_next_draft(self, batch_size):
        errors = assert_outcomes_identical(empty_and_off_support_pair(), batch_size, 2, 60)
        assert set(errors) == {
            None,
            (RuntimeError, "draft token 1 outside p's support at position 1"),
            (ZeroResidual, "rejection at position 1 with tv(q^1, p) = 0"),
        }

    def test_a_marked_run_that_decodes_is_an_internal_fault(self):
        # A check table that marks every draft at position 1 marks runs the
        # scalar loop decodes: the block names the first, and raises no sampler error.
        pair = random_model_pair(3, 3, seed=1)
        tables = _tables(pair, 2, None)
        assert tables.off_support == [None] * 3
        marking = tables._replace(off_support=[np.ones(9, dtype=bool), None, None])
        message = "^the engine marked run 5 at batch size 2 failed, but the scalar loop decodes it$"
        with pytest.raises(RuntimeError, match=message):
            _decoded_block(pair, [2, 1], None, marking, 0, 5, 20)

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_zero_mass_on_interior_tokens_needs_no_support_check(self, batch_size):
        # A draft lands on token k < V - 1 only if cums[k] > cums[k - 1], that is p[k] > 0.
        pair = interior_zeros_pair()
        rows = pair.p.step_rows
        assert (rows[..., 1:3] == 0.0).any() and (rows[..., [0, 3]] > 0.0).all()
        assert _tables(pair, batch_size, None).off_support == [None] * pair.horizon
        assert_path_identical(pair, batch_size, seed=6, start=0, count=300)

    @pytest.mark.parametrize(
        "batch_size, width",
        # Whole streams one uniform short of S, and a top-up window narrower
        # than a round at t = 1 reads (13 uniforms at (3, 3)).
        [(1, 12), (2, 21), (3, 12)],
    )
    def test_a_window_short_of_the_reads_raises(self, batch_size, width, monkeypatch):
        monkeypatch.setattr("specdec.decoding.WINDOW_BUDGET", 0)  # (3, 3) tops up
        pair = disjoint_pair(3)  # every run reads as much as it can
        window, rngs = _block_streams(5, 2, 50, batch_size, 3)
        tables = _tables(pair, batch_size, None)
        block = _Lockstep(pair, batch_size, tables, window[:, :width], rngs)
        with pytest.raises(RuntimeError, match=f"past the end of its {width}-uniform window"):
            for t in (1, 2, 3):
                block.advance(t)

    def test_block_sizes(self):
        # Whole-stream blocks hold about STREAM_BUDGET uniforms, top-up blocks BLOCK_RUNS runs.
        assert (_block_runs(1, 3), _block_runs(2, 3)) == (5041, 2978)
        assert _block_runs(1, 3) * _stream_length(1, 3) <= STREAM_BUDGET
        assert _block_runs(1, 1) == STREAM_BUDGET // _stream_length(1, 1)
        assert _block_runs(3, 3) == _block_runs(1, 50) == BLOCK_RUNS

    def test_zero_runs(self):
        runs = decode_markov_runs(random_model_pair(3, 4, seed=1), 2, 0, 0, 0)
        assert runs.tokens.shape == (0, 4) and runs.rejections.shape == (0,)

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_zero_residual_raised_where_the_scalar_path_raises(self, batch_size):
        pair = zero_residual_pair()
        outcomes = []
        for i in range(40):
            errors = []
            for decode in (
                lambda: scalar_run(pair, batch_size, split_rng(8, i)),
                lambda: decode_markov_runs(pair, batch_size, 8, i, 1),
            ):
                try:
                    decode()
                    errors.append(None)
                except ZeroResidual as exc:
                    errors.append(str(exc))
            assert errors[0] == errors[1], f"run {i}"
            outcomes.append(errors[0])
        assert any(outcomes) and not all(outcomes)
        assert set(outcomes) - {None} <= {
            f"rejection at position {t} with tv(q^1, p) = 0" for t in (1, 2)
        }

    def test_input_validation(self):
        with pytest.raises(TypeError, match="MarkovModel"):
            decode_markov_runs(random_full_pair(2, 2, seed=0), 1, 0, 0, 4)
        pair = random_model_pair(2, 2, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            decode_markov_runs(pair, 0, 0, 0, 4)
        with pytest.raises(ValueError, match=">= 0"):
            decode_markov_runs(pair, 1, 0, -1, 4)
        with pytest.raises(TypeError):
            decode_markov_runs(pair, True, 0, 0, 4)
        for name, args in (("seed", (-1, 0, 4)), ("start", (0, -1, 4)), ("count", (0, 0, -1))):
            with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
                decode_markov_runs(pair, 1, *args)
        with pytest.raises(TypeError, match="^seed True is not an integer$"):
            decode_markov_runs(pair, 1, True, 0, 4)


class TestWindowBudget:
    """Long-stream blocks hold W = min(S, max(2R, WINDOW_BUDGET // count)) uniforms per run."""

    @pytest.mark.parametrize(
        "batch_size, widths",
        # At T = 50, S = 1376, 2701, 5351 and 2R = 202, 304, 508 for M = 1, 2, 4;
        # WINDOW_BUDGET // count is 131072, 1638, 327 and 128 at counts 1, 80, 400, 1024.
        [(1, (1376, 1376, 327, 202)), (2, (2701, 1638, 327, 304)), (4, (5351, 1638, 508, 508))],
    )
    def test_width_is_the_budget_share_between_2r_and_s(self, batch_size, widths):
        assert WINDOW_BUDGET == 2 * STREAM_BUDGET
        length, narrowest = _stream_length(batch_size, 50), _window_width(batch_size, 50)
        for count, width in zip((1, 80, 400, BLOCK_RUNS), widths):
            window, rngs = _block_streams(3, 7, count, batch_size, 50)
            assert window.shape == (count, width)
            assert width == min(length, max(narrowest, WINDOW_BUDGET // count))
            assert window.size <= max(narrowest * count, WINDOW_BUDGET)
            # A window that holds whole streams keeps no generators to top up from.
            assert (rngs is None) == (width == length)
            for i in (0, count - 1):
                assert np.array_equal(window[i], split_rng(3, 7 + i).random(width))

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    @pytest.mark.parametrize("regime", ["2R", "between", "S"])
    def test_every_regime_matches_scalar_samplers(self, regime, batch_size, monkeypatch):
        count, length = 12, _stream_length(batch_size, 50)
        narrowest = _window_width(batch_size, 50)
        width = {"2R": narrowest, "between": narrowest + (length - narrowest) // 8, "S": length}
        if regime != "S":  # the default budget gives whole streams to 12 runs
            monkeypatch.setattr("specdec.decoding.WINDOW_BUDGET", width[regime] * count)
        assert _block_streams(0, 0, count, batch_size, 50)[0].shape == (count, width[regime])
        topped, top_up = [], _Lockstep._top_up

        def counting(self, runs, need):
            topped.append(int((self.next[runs] + need > self.row_ends[runs]).sum()))
            top_up(self, runs, need)

        monkeypatch.setattr(_Lockstep, "_top_up", counting)
        pair = random_model_pair(7, 50, seed=10)
        assert_path_identical(pair, batch_size, seed=2024, start=0, count=count)
        if regime == "S":
            assert topped == []
        else:
            assert sum(topped) > 0

    def test_the_window_guard_still_raises(self, monkeypatch):
        pair = disjoint_pair(5)  # at M = 2 every run reads S = 46 uniforms; 2R = 34
        tables = _tables(pair, 2, None)
        window, rngs = _block_streams(5, 0, 50, 2, 5)
        assert window.shape == (50, 46) and rngs is None
        assert_path_identical(pair, 2, seed=5, start=0, count=50)
        block = _Lockstep(pair, 2, tables, window[:, :45], None)
        with pytest.raises(RuntimeError, match="past the end of its 45-uniform window"):
            for t in range(1, 6):
                block.advance(t)
        monkeypatch.setattr("specdec.decoding.WINDOW_BUDGET", 40 * 50)
        window, rngs = _block_streams(5, 0, 50, 2, 5)
        assert window.shape == (50, 40) and rngs is not None
        assert_path_identical(pair, 2, seed=5, start=0, count=50)
        # Here a round opened at t = 1 reads 10 drafts, 2 root tests and a
        # replacement, one uniform more than the row holds.
        block = _Lockstep(pair, 2, tables, window[:, :12], rngs)
        with pytest.raises(RuntimeError, match="past the end of its 12-uniform window"):
            for t in range(1, 6):
                block.advance(t)


class TestSharedBlocks:
    """Rows of several batch sizes in one block decode as each size alone."""

    @pytest.mark.parametrize(
        "vocab, horizon, budget",
        # Whole streams; W = S(8, 7) = 288 over 45 rows; and, with no
        # budget, top-up windows of 2R(8, 7) = 142 uniforms.
        [(3, 2, None), (4, 7, None), (4, 7, 0)],
    )
    @pytest.mark.parametrize("sizes", [(1, 2, 8), (8, 1, 3), (2, 2, 1), (5,)])
    def test_rows_equal_one_size_decodes(self, sizes, vocab, horizon, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr("specdec.decoding.WINDOW_BUDGET", budget)
        for pair in (random_model_pair(vocab, horizon, seed=8),
                     sparse_draft_pair(vocab, horizon, seed=41)):
            blocks = list(_run_blocks(pair, "batch", sizes, None, 4, 6, 15))
            assert sorted(j for j, _, _ in blocks) == list(range(len(sizes)))
            for j, lo, runs in blocks:
                alone = decode_markov_runs(pair, sizes[j], 4, 6, 15)
                assert lo == 0
                for column, expected in zip(runs, alone):
                    assert np.array_equal(column, expected)

    def test_rows_equal_the_scalar_samplers(self):
        pair = random_model_pair(5, 6, seed=3)
        for j, _, runs in _run_blocks(pair, "batch", (3, 1, 2), None, 2, 0, 20):
            for i in range(20):
                trajectory, stats = scalar_run(pair, (3, 1, 2)[j], split_rng(2, i))
                assert runs.tokens[i].tolist() == list(trajectory.tokens)
                assert runs.flags[i].tolist() == list(map(bool, stats.flags))

    def test_copies_share_a_stream_and_keep_generators_only_where_short(self):
        # At T = 50 the budget's share of 3 * 8 rows, 131072 // 24 = 5461
        # uniforms, exceeds S(4) = 5351: every row holds its whole stream.
        window, rngs = _block_streams(3, 7, 8, (1, 2, 4), 50)
        assert window.shape == (24, 5351) and rngs is None
        for j in range(3):
            assert np.array_equal(window[8 * j : 8 * j + 8], window[:8])
        assert np.array_equal(window[5], split_rng(3, 12).random(5351))

    def test_copies_top_up_from_their_own_generators(self, monkeypatch):
        # With 2**12 uniforms over 3 * 8 rows, W = max(2R(4) = 508, 170): M = 1
        # and M = 2 rows (S = 1376, 2701) and M = 4 rows all top up, each
        # from a generator that continues its stream past the window.
        monkeypatch.setattr("specdec.decoding.WINDOW_BUDGET", 2**12)
        window, rngs = _block_streams(3, 7, 8, (1, 2, 4), 50)
        assert window.shape == (24, 508) and len(rngs) == 24
        assert len({id(rng) for rng in rngs}) == 24
        for row in (0, 9, 23):
            stream = split_rng(3, 7 + row % 8).random(508 + 20)
            assert np.array_equal(window[row], stream[:508])
            assert np.array_equal(rngs[row].random(20), stream[508:])
        # At T = 8 a window of 2R(4, 8) = 88 uniforms holds S(1, 8) = 53:
        # the M = 1 rows keep no generator.
        monkeypatch.setattr("specdec.decoding.WINDOW_BUDGET", 0)
        window, rngs = _block_streams(3, 7, 8, (1, 4), 8)
        assert window.shape == (16, 88)
        assert rngs[:8] == [None] * 8 and None not in rngs[8:]

    @pytest.mark.parametrize(
        "sizes", [[1, 2], [2, 1], [1, 1, 2], [1, 4], [5, 1], [1, 2, 5], [4, 5, 1]])
    def test_a_failing_scan_raises_the_first_failing_sizes_error(self, sizes):
        pair, runs = positions_apart_pair(), 200
        errors = {}
        for m in (1, 2, 4, 5):
            with pytest.raises(ZeroResidual) as caught:
                decode_markov_runs(pair, m, 9, 0, runs)
            errors[m] = str(caught.value)
        # From M = 2 on, an opening run that fails two root tests meets the empty q^3.
        assert errors == {
            1: "rejection at position 3 with tv(q^1, p) = 0",
            2: "rejection at position 2 with tv(q^2, p) = 0",
            4: "rejection at position 2 with tv(q^2, p) = 0",
            5: "rejection at position 2 with tv(q^2, p) = 0",
        }
        # A shared block raises the error of its first failing row, and its
        # rows go size by size in the order given.
        with pytest.raises(ZeroResidual) as caught:
            _decoded_block(pair, sizes, None, _tables(pair, max(sizes), None), 9, 0, runs)
        assert str(caught.value) == errors[sizes[0]]
        with pytest.raises(ZeroResidual) as caught:
            batch_scan(pair, sizes, runs, 9)
        assert str(caught.value) == errors[sizes[0]]

    def test_rows_meet_no_iterate_past_their_own_size(self):
        # Runs 42..47 of seed 9 complete at M = 2 and, at M = 1, some fail at
        # position 3. In a shared block, an M = 1 row that opens at position
        # 2 and rejects response 0 draws from q^2 there; only an M = 2 row
        # that fails both root tests meets the empty q^3.
        pair, seed, start, count = positions_apart_pair(), 9, 42, 6
        assert_path_identical(pair, 2, seed, start, count)
        with pytest.raises(ZeroResidual) as caught:
            decode_markov_runs(pair, 1, seed, start, count)
        assert str(caught.value) == "rejection at position 3 with tv(q^1, p) = 0"
        with pytest.raises(ZeroResidual) as shared:
            _decoded_block(pair, [1, 2], None, _tables(pair, 2, None), seed, start, count)
        assert str(shared.value) == str(caught.value)

    def test_an_error_first_met_at_response_3_is_the_scalar_loops(self):
        # Runs 0..7 of seed 1 draw no draft off p's support at responses 0,
        # 1 and 2 that a test reaches, but some at response 3, tested against
        # q^4: sizes 1 to 3 decode them, 4 and 5 fail as the scalar loop does.
        pair, seed, count = late_draft_pair(), 1, 8
        for m in (1, 2, 3):
            assert_path_identical(pair, m, seed, 0, count)
        failing = {
            outcome(lambda: scalar_run(pair, m, split_rng(seed, i)))[1]
            for m in (4, 5) for i in range(count)
        }
        message = "draft token 2 outside p's support at position 1"
        assert failing == {None, (RuntimeError, message)}
        for sizes in ([4], [5], [1, 2, 5], [2, 4, 5], [1, 3, 4]):
            with pytest.raises(RuntimeError) as caught:
                _decoded_block(pair, sizes, None, _tables(pair, max(sizes), None), seed, 0, count)
            assert str(caught.value) == message, sizes
        with pytest.raises(RuntimeError) as caught:
            batch_scan(pair, [1, 2, 5], count, seed)
        assert str(caught.value) == message

    @pytest.mark.parametrize("start", [120, 616])
    def test_drafts_past_a_rows_own_tests_raise_nothing(self, start):
        # Runs start, ..., start + 7 of seed 1 complete at sizes 1, 2 and 5.
        # A pass over responses also drafts responses a row never tests,
        # after its accepted one, or past its own M_i (at 616), and some of
        # those leave p's support: the shared block must not raise.
        pair, seed, count = late_draft_pair(), 1, 8
        block = _decoded_block(pair, [1, 2, 5], None, _tables(pair, 5, None), seed, start, count)
        for j, m in enumerate((1, 2, 5)):
            alone = assert_path_identical(pair, m, seed, start, count)
            for column, expected in zip(block, alone):
                assert np.array_equal(column[j * count : (j + 1) * count], expected)


def history_policy(pair) -> Policy:
    """A policy that reads the prompt token and the history length, which no Markov state holds."""

    def acceptance(n, history, candidate):
        return (1 + history[0] + candidate) / (2 + len(history) + pair.vocab_size)

    def residual(n, history):
        row = pair.q.step(n, history) + history[0] + len(history)
        return row / row.sum()

    return Policy(acceptance, residual)


def recording(policy: Policy) -> tuple[Policy, list]:
    """The policy with its callbacks logged, and the log."""
    calls = []

    def acceptance(n, history, candidate):
        calls.append(("acceptance", n, history, candidate))
        return policy.acceptance(n, history, candidate)

    def residual(n, history):
        calls.append(("residual", n, history))
        return policy.residual(n, history)

    return Policy(acceptance, residual), calls


def assert_generic_identical(pair, policy, seed, start, count, callbacks=None):
    """The engine's policy runs equal generic_decode's on the same streams, field by field.

    generic_decode runs ``callbacks`` when given, else ``policy`` itself.
    """
    runs = decode_markov_runs(pair, 1, seed, start, count, policy)
    assert runs.tokens.shape == runs.flags.shape == (count, pair.horizon)
    for i in range(count):
        trajectory, stats = generic_decode(pair, callbacks or policy, split_rng(seed, start + i))
        assert runs.prompt_tokens[i] == trajectory.prompt_token
        assert tuple(runs.tokens[i].tolist()) == trajectory.tokens
        assert runs.rejections[i] == stats.rejections
        assert tuple(runs.flags[i].tolist()) == stats.flags
    return runs


POLICIES = {
    "random-unbiased": lambda pair: random_unbiased_policy(pair, make_rng(17)),
    "always-accept": always_accept_policy,
    "sd": sd_policy,
    "over-acceptance-opt": lambda pair: over_acceptance_policy(pair, 0.1, "opt"),
    "over-acceptance-uno": lambda pair: over_acceptance_policy(pair, 0.1, "uno"),
    "history": history_policy,
}
TABLE_POLICIES = [name for name in POLICIES if name != "history"]


class TestLockstepPolicies:
    @pytest.mark.parametrize("name", TABLE_POLICIES)
    def test_small_battery_matches_generic_decode(self, name):
        for k, pair in enumerate(seeded_small_pairs()):
            assert_generic_identical(pair, POLICIES[name](pair), seed=k, start=3, count=12)

    @pytest.mark.parametrize("name", TABLE_POLICIES)
    def test_sparse_support_pair_matches_generic_decode(self, name):
        pair = sparse_draft_pair(5, 8, seed=41)
        assert_generic_identical(pair, POLICIES[name](pair), seed=3, start=0, count=200)

    @pytest.mark.parametrize("name", ["random-unbiased", "over-acceptance-opt"])
    def test_long_runs_that_refill_their_windows(self, name, monkeypatch):
        # With no window budget a block of 20 runs keeps 2R-uniform windows and tops them up.
        monkeypatch.setattr("specdec.decoding.WINDOW_BUDGET", 0)
        pair = random_model_pair(7, 50, seed=10)
        runs = assert_generic_identical(pair, POLICIES[name](pair), seed=2024, start=0, count=20)
        assert max(drafted_tokens(f.tolist(), 50, 1) for f in runs.flags) > 2 * (50 + 1 + 50)

    def test_runs_across_a_block_boundary_with_an_offset(self):
        pair = random_model_pair(2, 3, seed=2024)
        policy = random_unbiased_policy(pair, make_rng(5))
        assert policy.tables is not None
        runs = assert_generic_identical(pair, policy, seed=1, start=7, count=_block_runs(1, 3) + 5)
        assert runs.rejections.sum() > 0

    def test_engine_never_calls_the_callbacks(self, monkeypatch):
        pair = random_model_pair(3, 4, seed=8)
        policy = random_unbiased_policy(pair, make_rng(5))
        recorded, calls = recording(policy)
        monkeypatch.setattr("specdec.decoding._table_readers",
                            lambda *tables: (recorded.acceptance, recorded.residual))
        with_tables = Policy.from_tables(*policy.tables)
        runs = decode_markov_runs(pair, 1, 6, 0, 60, with_tables)
        assert calls == [] and runs.rejections.sum() > 0

    @pytest.mark.parametrize("name", POLICIES)
    def test_scalar_loop_asks_once_per_position_and_rejection(self, name):
        pairs = [*seeded_small_pairs(), random_full_pair(3, 4, seed=5)]
        rejections = 0
        for k, pair in enumerate(pairs):
            policy, calls = recording(POLICIES[name](pair))
            for i in range(8):
                calls.clear()
                _, stats = generic_decode(pair, policy, split_rng(k, i))
                kinds = [call[0] for call in calls]
                assert kinds.count("acceptance") == pair.horizon
                assert kinds.count("residual") == stats.rejections
                rejections += stats.rejections
        assert rejections > 0 or name == "always-accept"

    def test_policy_needs_batch_size_one(self):
        pair = random_model_pair(2, 3, seed=4)
        with pytest.raises(ValueError, match="^generic runs need batch_size 1$"):
            decode_markov_runs(pair, 2, 0, 0, 4, sd_policy(pair))

    def test_policy_must_be_a_policy_with_tables(self):
        pair = random_model_pair(2, 3, seed=4)
        policy = sd_policy(pair)
        for bad in ("x", object()):
            with pytest.raises(TypeError, match="not a Policy"):
                decode_markov_runs(pair, 1, 0, 0, 4, bad)
        with pytest.raises(TypeError, match="has none"):
            decode_markov_runs(pair, 1, 0, 0, 4, Policy(policy.acceptance, policy.residual))
        with pytest.raises(TypeError, match="has none"):
            decode_markov_runs(pair, 1, 0, 0, 4, history_policy(pair))


def table_reader(acceptance, residual) -> Policy:
    """A callback-only policy that reads the (T, V, V) arrays at history[-1]."""
    return Policy(
        lambda n, h, x: acceptance[n - 1, h[-1], x], lambda n, h: residual[n - 1, h[-1]]
    )


# (pair, a table policy built for another shape): its tables are longer or
# shorter in T, or over more or fewer tokens, than the pair's (T, V, V).
MISFITS = {
    "longer T": (random_model_pair(2, 2, seed=1), sd_policy(random_model_pair(2, 3, seed=2))),
    "shorter T": (random_model_pair(2, 3, seed=1), sd_policy(random_model_pair(2, 2, seed=2))),
    "more tokens": (random_model_pair(2, 2, seed=1), sd_policy(random_model_pair(3, 2, seed=2))),
    "fewer tokens": (random_model_pair(4, 1, seed=1), sd_policy(random_model_pair(2, 4, seed=2))),
}
ENTRY_POINTS = {
    "Campaign": lambda pair, policy: Campaign(pair, "generic", 5, 0, policy=policy),
    "run_campaign": lambda pair, policy: run_campaign(
        Campaign(pair, "generic", 5, 0, policy=policy)),
    "unbiasedness_check": lambda pair, policy: unbiasedness_check(
        pair, "generic", runs=5, policy=policy),
    "decode_markov_runs": lambda pair, policy: decode_markov_runs(pair, 1, 0, 0, 5, policy),
    "generic_decode": lambda pair, policy: generic_decode(pair, policy, split_rng(0, 0)),
    "enumerate_law_and_rejections": lambda pair, policy: enumerate_law_and_rejections(
        pair, "generic", policy=policy),
    "enumerate_output_distribution": lambda pair, policy: enumerate_output_distribution(
        pair, "generic", policy=policy),
    "enumerate_expected_rejections": lambda pair, policy: enumerate_expected_rejections(
        pair, "generic", policy=policy),
}


@pytest.mark.parametrize("misfit", MISFITS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_tables_of_another_shape(entry, misfit):
    # One rule, whichever route would read the policy: the engine, the scalar
    # loop (the same pair as history tables) or the oracle.
    pair, policy = MISFITS[misfit]
    shape = (pair.horizon, pair.vocab_size, pair.vocab_size)
    message = re.escape(f"policy tables have shape {policy.tables[0].shape}, expected {shape}")
    full = ModelPair(markov_to_full(pair.p), markov_to_full(pair.q))
    for target in (pair, full) if entry != "decode_markov_runs" else (pair,):
        with pytest.raises(InvalidPolicy, match=f"^{message}$"):
            ENTRY_POINTS[entry](target, policy)


POLICY_PAIR = random_model_pair(2, 2, seed=1)
PAIR_ENTRY_POINTS = {
    "speculative_decode": lambda pair: speculative_decode(pair, split_rng(0, 0)),
    "batch_decode": lambda pair: batch_decode(pair, 2, split_rng(0, 0)),
    "decode_markov_runs": lambda pair: decode_markov_runs(pair, 2, 0, 0, 5),
    "enumerate_law_and_rejections": enumerate_law_and_rejections,
    **{f"{name}-generic": lambda pair, name=name: ENTRY_POINTS[name](pair, sd_policy(POLICY_PAIR))
       for name in ("generic_decode", "decode_markov_runs", "enumerate_law_and_rejections",
                    "enumerate_output_distribution", "enumerate_expected_rejections")},
}


@pytest.mark.parametrize("value", ["x", None, POLICY_PAIR.q])
@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS)
def test_decoding_entry_points_refuse_anything_but_a_model_pair(entry, value):
    # The campaigns' and closed forms' TypeError, raised before any attribute
    # of the value is read.
    with pytest.raises(TypeError, match=f"^expected a ModelPair, not {type(value).__name__}$"):
        PAIR_ENTRY_POINTS[entry](value)


class TestPolicyTables:
    def test_only_from_tables_sets_tables(self):
        policy = sd_policy(random_model_pair(2, 3, seed=4))
        with pytest.raises(TypeError):
            Policy(policy.acceptance, policy.residual, policy.tables)
        with pytest.raises(TypeError):
            Policy(policy.acceptance, policy.residual, tables=policy.tables)
        assert Policy(policy.acceptance, policy.residual).tables is None

    def test_opt_and_unbiased_rows_are_the_residuals_they_define(self):
        # At every context that can reject, opt's row is optimal_residual's
        # canonical [A]_+ and random-unbiased's is (q - b p) / sum (1 - b) p.
        rng = make_rng(5)
        for pair in [*seeded_small_pairs(), sparse_draft_pair(5, 8, 41)]:
            p, q = pair.p.step_rows, pair.q.step_rows
            acceptance, residual = over_acceptance_policy(pair, 0.05, "opt").tables
            live = ((1.0 - acceptance) * p).sum(-1) > DEGENERATE_TOL
            assert live.any()
            for n, s in zip(*np.nonzero(live)):
                want = optimal_residual(acceptance[n, s], p[n, s], q[n, s]).canonical.probs
                np.testing.assert_allclose(residual[n, s], want, rtol=0.0, atol=1e-15)
            acceptance, residual = random_unbiased_policy(pair, rng).tables
            denom = ((1.0 - acceptance) * p).sum(-1)
            live = denom > DEGENERATE_TOL
            assert live.any()
            want = (q[live] - acceptance[live] * p[live]) / denom[live][:, None]
            np.testing.assert_allclose(residual[live], want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("name", TABLE_POLICIES)
    def test_tables_are_the_validated_callbacks_bit_for_bit(self, name):
        pairs = [*seeded_small_pairs(), sparse_draft_pair(5, 8, seed=41),
                 random_model_pair(7, 50, seed=10)]
        for pair in pairs:
            policy = POLICIES[name](pair)
            acceptance, residual = policy.tables
            v, states = pair.vocab_size, [(s,) for s in range(pair.vocab_size)]
            assert acceptance.shape == residual.shape == (pair.horizon, v, v)
            for n in range(1, pair.horizon + 1):
                want = np.array(
                    [[policy_acceptance(policy, n, h, x) for x in range(v)] for h in states]
                )
                assert acceptance[n - 1].tobytes() == want.tobytes()
                want = policy_residual_rows(policy, n, states, v)
                assert residual[n - 1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", TABLE_POLICIES)
    @pytest.mark.parametrize(
        "n, history", [(0, (1,)), (4, (1,)), (1, (-1,)), (1, (2,)), (1, (True,)), (1, (1.0,)),
                       (1, ())],
    )
    def test_table_callbacks_refuse_what_a_chain_refuses(self, name, n, history):
        # They once read acceptance(0, (1,), 0) at position T and
        # residual(1, (-1,)) at row V - 1; now they take a chain's rule.
        pair = random_model_pair(2, 3, seed=1)
        policy = POLICIES[name](pair)
        with pytest.raises(KeyError):
            policy.acceptance(n, history, 0)
        with pytest.raises(KeyError):
            policy.residual(n, history)
        with pytest.raises(KeyError):
            pair.p.step(n, history)

    @pytest.mark.parametrize("name", TABLE_POLICIES)
    @pytest.mark.parametrize("candidate", [-1, np.int64(-1), 2, True, 1.0])
    def test_acceptance_refuses_a_candidate_a_chain_would_refuse(self, name, candidate):
        # acceptance(1, (0,), -1) once wrapped to token 1's entry, on tables
        # and on history levels alike.
        for pair in (random_model_pair(2, 3, seed=1), random_full_pair(2, 3, seed=5)):
            policy = POLICIES[name](pair)
            message = re.escape(f"candidate {candidate!r} at position 1")
            with pytest.raises(KeyError, match=message):
                policy.acceptance(1, (0,), candidate)
            assert policy.acceptance(1, (0,), np.int64(1)) == policy.acceptance(1, (0,), 1)
            with pytest.raises(KeyError, match="no table entry for history"):
                policy.acceptance(1, (2,), candidate)

    @pytest.mark.parametrize("name", TABLE_POLICIES)
    def test_history_policy_rows_are_read_only(self, name):
        # A caller once wrote a returned residual row into the policy.
        policy = POLICIES[name](random_full_pair(3, 3, seed=5))
        row = policy.residual(2, (0, 1))
        before = row.copy()
        with pytest.raises(ValueError, match="read-only"):
            row[:] = [1.0, 0.0, 0.0]
        assert np.array_equal(policy.residual(2, (0, 1)), before)

    @pytest.mark.parametrize("name", TABLE_POLICIES)
    def test_full_model_pairs_keep_callbacks_only(self, name):
        assert POLICIES[name](random_full_pair(3, 3, seed=5)).tables is None

    @pytest.mark.parametrize("name", TABLE_POLICIES)
    def test_history_callbacks_refuse_a_history_of_another_position(self, name):
        # They once answered acceptance(3, (0,), 1) with position 1's value.
        base = random_model_pair(2, 3, seed=1)
        policy = POLICIES[name](ModelPair(markov_to_full(base.p), base.q))
        with pytest.raises(KeyError, match="position 3"):
            policy.acceptance(3, (0,), 1)
        with pytest.raises(KeyError, match="position 1"):
            policy.residual(1, (0, 1))
        assert policy.acceptance(1, (0,), 1) == POLICIES[name](base).acceptance(1, (0,), 1)

    @pytest.mark.parametrize("name", TABLE_POLICIES)
    def test_callback_path_gives_the_table_path_runs(self, name):
        # The engine reads the tables; generic_decode asks a callback-only copy.
        pairs = [*seeded_small_pairs(count=20), random_model_pair(7, 50, seed=10)]
        for k, pair in enumerate(pairs):
            policy = POLICIES[name](pair)
            callback_only = Policy(policy.acceptance, policy.residual)
            assert_generic_identical(pair, policy, seed=k, start=5, count=40,
                                     callbacks=callback_only)

    def test_rejection_free_contexts_get_q_rows(self):
        # With eps = 0.3 some contexts of this pair accept every draft, where
        # optimal_residual raises DegenerateRejection; others still reject.
        pair = random_model_pair(2, 3, seed=2024)
        policy = over_acceptance_policy(pair, 0.3, "opt")
        p = np.array([step.rows for step in pair.p.steps])
        q = np.array([step.rows for step in pair.q.steps])
        acceptance, residual = policy.tables
        never = ((1.0 - acceptance) * p).sum(axis=-1) == 0.0
        assert never.any() and not never.all()
        np.testing.assert_array_equal(residual[never], q[never])
        identical = ModelPair(pair.q, pair.q)
        np.testing.assert_array_equal(sd_policy(identical).tables[1], q)
        assert_generic_identical(pair, policy, seed=4, start=0, count=300)

    def test_rows_that_reject_at_most_degenerate_tol_get_q_rows(self):
        # State 0's rows differ by one ulp per entry, so a draft there is
        # rejected with probability about 8e-17, above 0 but within
        # DEGENERATE_TOL: its residual is q's row, not [q - p]_+'s [1, 0].
        prompt = Dist([0.5, 0.5])
        p = MarkovModel(prompt, [CondDist([[0.25, 0.75], [0.5, 0.5]])])
        near = [np.nextafter(0.25, 1.0), np.nextafter(0.75, 0.0)]
        q = MarkovModel(prompt, [CondDist([near, [0.4, 0.6]])])
        pair = ModelPair(p, q)
        acceptance, residual = sd_policy(pair).tables
        rejection = ((1.0 - acceptance) * p.step_rows).sum(axis=-1)
        assert 0.0 < rejection[0, 0] <= DEGENERATE_TOL < rejection[0, 1]
        np.testing.assert_array_equal(_residual_rows(q.step_rows, p.step_rows)[0][0, 0], [1.0, 0.0])
        np.testing.assert_array_equal(residual[0], [q.step_rows[0, 0], [0.0, 1.0]])
        full = sd_policy(ModelPair(markov_to_full(p), markov_to_full(q)))
        np.testing.assert_array_equal(full.residual(1, (0,)), q.step_rows[0, 0])

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda acc, res: (acc, np.concatenate([res, res[..., :1]], axis=-1)),
            lambda acc, res: (acc.__setitem__(1, np.nan) or acc, res),
            lambda acc, res: (acc, res.__setitem__(1, [-0.1, 1.1]) or res),
            lambda acc, res: (acc, res.__setitem__(1, [0.5, 0.6]) or res),
            lambda acc, res: (acc.__setitem__(2, np.nan) or acc, res),
            lambda acc, res: (acc, res.__setitem__(2, [np.nan, 1.0]) or res),
        ],
        ids=["shape", "nan-acceptance", "negative-row", "row-sum", "late-nan-acceptance",
             "late-nan-residual"],
    )
    def test_bad_tables_raise_generic_decodes_messages(self, corrupt):
        pair = random_model_pair(2, 3, seed=4)
        q = np.array([step.rows for step in pair.q.steps])
        acceptance, residual = corrupt(np.zeros_like(q), q.copy())
        with pytest.raises(InvalidPolicy) as table_error:
            Policy.from_tables(acceptance, residual)
        with pytest.raises(InvalidPolicy) as scalar_error:
            generic_decode(pair, table_reader(acceptance, residual), split_rng(8, 0))
        assert str(table_error.value) == str(scalar_error.value)

    def test_clamped_entries_and_signed_zeros_are_the_validators(self):
        pair = random_model_pair(2, 3, seed=4)
        q = np.array([step.rows for step in pair.q.steps])
        acceptance = np.full_like(q, 0.5)
        acceptance[0] = [[-0.0, 1.5], [-0.2, 0.0]]
        acceptance[2] = [[1.0, -7.0], [2.0, -1e-300]]
        residual = q.copy()
        residual[1] = [[-0.0, 1.0], [1.0, -0.0]]
        policy = Policy.from_tables(acceptance, residual)
        stored_acceptance, stored_residual = policy.tables
        reader = table_reader(acceptance, residual)
        states = [(0,), (1,)]
        for n in (1, 2, 3):
            want = np.array([[policy_acceptance(reader, n, h, x) for x in (0, 1)] for h in states])
            assert stored_acceptance[n - 1].tobytes() == want.tobytes()
            want = policy_residual_rows(reader, n, states, 2)
            assert stored_residual[n - 1].tobytes() == want.tobytes()
        assert stored_acceptance[0].tolist() == [[0.0, 1.0], [0.0, 0.0]]
        assert not np.signbit(stored_acceptance).any()  # -0.0 is stored as 0.0
        assert np.signbit(stored_residual[1]).tolist() == [[True, False], [False, True]]

    def test_strided_tables_store_the_validators_rows(self):
        # Rows of 40 are summed pairwise; a Fortran-ordered table must be too.
        q = np.array([step.rows for step in random_model_pair(40, 2, seed=6).q.steps])
        acceptance = np.asfortranarray(np.clip(q * 30.0, 0.0, 1.0))
        residual = np.asfortranarray(q)
        reader = table_reader(acceptance, residual)
        stored_residual = _validated_tables(acceptance, residual)[1]
        states = [(s,) for s in range(40)]
        for n in (1, 2):
            want = policy_residual_rows(reader, n, states, 40)
            assert stored_residual[n - 1].tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({(2, 1, 0): np.nan}, "acceptance at position 3 is not finite"),
            ({(2, 1, 0): np.nan, (1, 0, 1): np.inf}, "acceptance at position 2 is not finite"),
            ({(2, 0, 0): -np.inf}, "acceptance at position 3 is not finite"),
        ],
    )
    def test_first_non_finite_position_is_named(self, entries, message):
        pair = random_model_pair(2, 3, seed=4)
        q = np.array([step.rows for step in pair.q.steps])
        acceptance = np.full_like(q, 0.5)
        residual = q.copy()
        residual[0, 0] = [0.5, 0.6]  # a bad residual row, checked after every acceptance entry
        for index, value in entries.items():
            acceptance[index] = value
        with pytest.raises(InvalidPolicy, match=f"^{message}$"):
            Policy.from_tables(acceptance, residual)

    def test_tables_must_fit_the_pair(self):
        pair = random_model_pair(2, 3, seed=4)
        longer = sd_policy(random_model_pair(2, 4, seed=4))
        with pytest.raises(InvalidPolicy, match="expected"):
            decode_markov_runs(pair, 1, 0, 0, 4, longer)
        with pytest.raises(InvalidPolicy, match="expected"):
            Policy.from_tables(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="real numbers"):
            Policy.from_tables(np.zeros((3, 2, 2), dtype=bool), np.full((3, 2, 2), 0.5))

    def test_tables_are_read_only_copies(self):
        pair = random_model_pair(2, 3, seed=4)
        q = np.array([step.rows for step in pair.q.steps])
        acceptance = np.full_like(q, 0.5)
        policy = Policy.from_tables(acceptance, q)
        acceptance[:] = 0.0
        assert policy.acceptance(1, (0,), 0) == 0.5
        assert not any(table.flags.writeable for table in policy.tables)


class TestBatch:
    def test_batch_size_validated(self):
        pair = random_model_pair(2, 2, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            batch_decode(pair, 0, make_rng(0))
        for bad in (True, "2", 1.5, None):
            with pytest.raises(TypeError, match="not an integer"):
                batch_decode(pair, bad, make_rng(0))
        assert batch_decode(pair, 2.0, make_rng(3)) == batch_decode(pair, 2, make_rng(3))
        with pytest.raises(ValueError, match="requires a policy"):
            generic_decode(pair, None, make_rng(0))
        with pytest.raises(TypeError, match="not a Policy"):
            generic_decode(pair, object(), make_rng(0))

    def test_single_response_is_speculative_decoding(self):
        pair = random_model_pair(3, 5, seed=5)
        for i in range(60):
            assert batch_decode(pair, 1, split_rng(13, i)) == speculative_decode(
                pair, split_rng(13, i)
            )

    def test_identical_models_never_reject(self):
        pair = identical_pair(5)
        for i in range(20):
            _, stats = batch_decode(pair, 4, split_rng(15, i))
            assert stats.rejections == 0

    def test_disjoint_supports_still_cost_one_per_position(self):
        # extra drafts cannot help when p and q share no mass
        pair = disjoint_pair(3)
        for i in range(20):
            traj, stats = batch_decode(pair, 3, split_rng(17, i))
            assert stats.rejections == 3
            assert traj.tokens == (1, 1, 1)

    def test_more_responses_reject_less_on_average(self):
        pair = random_model_pair(3, 6, seed=6)
        runs = 2000
        mean_sd = np.mean(
            [speculative_decode(pair, split_rng(19, i))[1].rejections for i in range(runs)]
        )
        mean_b4 = np.mean(
            [batch_decode(pair, 4, split_rng(19, i))[1].rejections for i in range(runs)]
        )
        assert mean_b4 < mean_sd


class TestAutoregressive:
    def test_empirical_law_near_exact_joint(self):
        q = MarkovModel(Dist([0.5, 0.5]), [CondDist([[0.7, 0.3], [0.2, 0.8]])] * 3)
        law = joint_distribution(q)
        counts = np.zeros(8)
        runs = 20_000
        rng = make_rng(123)
        for _ in range(runs):
            traj = autoregressive_decode(q, rng)
            counts[trajectory_index(traj.tokens, 2)] += 1
        l1 = np.abs(counts / runs - law).sum()
        assert l1 < 0.05

    def test_prompt_token_follows_prompt(self):
        q = constant_chain(np.array([0.9, 0.1]), np.array([0.5, 0.5]), 1)
        rng = make_rng(7)
        hits = sum(autoregressive_decode(q, rng).prompt_token == 0 for _ in range(5000))
        assert abs(hits / 5000 - 0.9) < 0.02


class TestResidualRowRule:
    """Policy residual rows are held to Dist's rule, prefixed with their position."""

    @pytest.mark.parametrize(
        "row, message",
        [
            ([np.nan, 1.0], "distribution entries must be finite"),
            ([-0.1, 1.1], "distribution entries must be nonnegative"),
            ([0.5, 0.6], "distribution sums to 1.1, outside tolerance 1e-09"),
        ],
    )
    def test_messages_are_dists_with_the_position(self, row, message):
        pair = random_model_pair(2, 3, seed=4)
        acceptance = np.zeros((3, 2, 2))
        residual = np.array([step.rows for step in pair.q.steps])
        residual[1] = row
        want = f"residual at position 2: {message}"
        with pytest.raises(InvalidPolicy, match=f"^{want}$"):
            Policy.from_tables(acceptance, residual)
        with pytest.raises(InvalidPolicy, match=f"^{want}$"):
            generic_decode(pair, table_reader(acceptance, residual), split_rng(8, 0))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.5, 0.6], [np.nan, 1.0]], "sums to 1.1"),
            ([[np.nan, 1.0], [0.5, 0.6]], "entries must be finite"),
            ([[0.5, 0.5], [0.5, 0.6]], "sums to 1.1"),
        ],
    )
    def test_first_bad_row_of_a_position_is_named(self, rows, message):
        pair = random_model_pair(2, 3, seed=4)
        acceptance = np.zeros((3, 2, 2))
        residual = np.array([step.rows for step in pair.q.steps])
        residual[2] = rows
        residual[1, 1] = [0.25, 0.25]  # an earlier position's error comes first
        with pytest.raises(InvalidPolicy, match="^residual at position 2: .*sums to 0.5"):
            Policy.from_tables(acceptance, residual)
        residual[1, 1] = [0.25, 0.75]
        with pytest.raises(InvalidPolicy, match=f"^residual at position 3: .*{message}"):
            Policy.from_tables(acceptance, residual)
        reader = table_reader(acceptance, residual)
        with pytest.raises(InvalidPolicy, match=f"^residual at position 3: .*{message}"):
            policy_residual_rows(reader, 3, [(0, 1, 0), (0, 1, 1)], 2)
