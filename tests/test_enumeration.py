"""Decision-tree oracles: output laws and rejection counts by full expansion.

These tests pin the oracles against facts that need no other machinery: exact
unbiasedness of the output laws, the per-position rejection identity, and the
generic-policy lower bound. Agreement with the closed-form recursions on Markov
pairs lives in test_exact so the two routes stay independently validated; the
history-dependent pairs and the long horizon here are compared with them too.
The callback tests pin which histories the level-by-level expansion reads, and
the prompt-block tests its pruning of prompt tokens and its memory bound.
"""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from specdec import (
    InvalidPolicy,
    ModelPair,
    Policy,
    enumerate_expected_rejections,
    enumerate_law_and_rejections,
    enumerate_output_distribution,
    expected_rejections_batch,
    expected_rejections_sd,
    generic_decode,
    joint_distribution,
    make_rng,
    markov_to_full,
    random_model_pair,
    random_unbiased_policy,
    sd_policy,
    split_rng,
    speculative_decode,
    target_marginals,
    tv_distance,
)

from specdec.decoding import policy_acceptance
from specdec.dist import _residual_rows

from helpers import random_full_pair, seeded_small_pairs, sparse_draft_pair, with_prompt

PAIRS = seeded_small_pairs(count=12, master=77)


class TestOutputLaws:
    def test_sd_law_is_target_joint(self):
        for pair in PAIRS:
            law = enumerate_output_distribution(pair, "sd")
            np.testing.assert_allclose(law, joint_distribution(pair.q), atol=1e-13)

    def test_sd_law_on_history_dependent_models(self):
        pair = random_full_pair(2, 4, seed=3)
        law = enumerate_output_distribution(pair, "sd")
        np.testing.assert_allclose(law, joint_distribution(pair.q), atol=1e-13)

    def test_batch_law_is_target_joint(self):
        pair = random_model_pair(3, 3, seed=41)
        target = joint_distribution(pair.q)
        for m in (1, 2, 3, 4):
            law = enumerate_output_distribution(pair, "batch", batch_size=m)
            np.testing.assert_allclose(law, target, atol=1e-13)

    def test_random_unbiased_policies_keep_target_law(self):
        rng = make_rng(2025)
        for pair in PAIRS[:6]:
            policy = random_unbiased_policy(pair, rng)
            law = enumerate_output_distribution(pair, "generic", policy=policy)
            np.testing.assert_allclose(law, joint_distribution(pair.q), atol=1e-12)

    def test_laws_are_distributions(self):
        pair = random_model_pair(2, 4, seed=42)
        for kwargs in ({"algorithm": "sd"}, {"algorithm": "batch", "batch_size": 3}):
            law = enumerate_output_distribution(pair, **kwargs)
            assert law.min() >= 0.0
            assert math.fsum(law) == pytest.approx(1.0, abs=1e-12)


class TestExpectedRejections:
    def test_sd_count_equals_marginal_tv_sum(self):
        # independent identity: E[N] = sum_n E_{x ~ q}[tv(p_n, q_n)]
        for pair in PAIRS:
            enum = enumerate_expected_rejections(pair, "sd")
            mus = [pair.q.prompt] + list(target_marginals(pair.q)[:-1])
            direct = math.fsum(
                float(mu[s])
                * tv_distance(pair.p.step(n, (s,)), pair.q.step(n, (s,)))
                for n, mu in enumerate(mus, start=1)
                for s in range(pair.vocab_size)
            )
            assert enum == pytest.approx(direct, abs=1e-12)

    def test_batch_single_response_matches_sd(self):
        for pair in PAIRS[:6]:
            sd = enumerate_expected_rejections(pair, "sd")
            batch = enumerate_expected_rejections(pair, "batch", batch_size=1)
            assert batch == pytest.approx(sd, abs=1e-13)

    def test_generic_sd_policy_matches_sd(self):
        for pair in PAIRS[:6]:
            sd = enumerate_expected_rejections(pair, "sd")
            gen = enumerate_expected_rejections(pair, "generic", policy=sd_policy(pair))
            assert gen == pytest.approx(sd, abs=1e-12)

    def test_generic_sd_policy_matches_sd_on_a_mixed_pair(self):
        # A history-table draft against a Markov target: the policy's rows
        # must be read per history, not per (position, x_{n-1}).
        markov = random_model_pair(2, 3, seed=1)
        pair = ModelPair(markov_to_full(markov.p), markov.q)
        gen = enumerate_expected_rejections(pair, "generic", policy=sd_policy(pair))
        assert gen == pytest.approx(expected_rejections_sd(pair), abs=1e-12)

    def test_unbiased_policies_never_beat_sd(self):
        rng = make_rng(7)
        for pair in PAIRS[:4]:
            sd = enumerate_expected_rejections(pair, "sd")
            for _ in range(15):
                policy = random_unbiased_policy(pair, rng)
                gen = enumerate_expected_rejections(pair, "generic", policy=policy)
                assert gen >= sd - 1e-10

    def test_monte_carlo_agrees_within_three_sigma(self):
        pair = random_model_pair(3, 4, seed=8)
        exact = enumerate_expected_rejections(pair, "sd")
        runs = 4000
        samples = [
            speculative_decode(pair, split_rng(55, i))[1].rejections for i in range(runs)
        ]
        mean = float(np.mean(samples))
        sigma = float(np.std(samples, ddof=1)) / math.sqrt(runs)
        assert abs(mean - exact) <= 3.0 * sigma


class TestGuards:
    def test_size_cap(self):
        pair = random_model_pair(4, 11, seed=1)
        with pytest.raises(ValueError, match="cap"):
            enumerate_output_distribution(pair, "sd")

    def test_unknown_algorithm(self):
        pair = random_model_pair(2, 2, seed=1)
        with pytest.raises(ValueError, match="unknown algorithm"):
            enumerate_expected_rejections(pair, "viterbi")

    def test_generic_requires_policy(self):
        pair = random_model_pair(2, 2, seed=1)
        with pytest.raises(ValueError, match="policy"):
            enumerate_expected_rejections(pair, "generic")
        for enumerate_fn in (enumerate_output_distribution, enumerate_expected_rejections):
            with pytest.raises(TypeError, match="not a Policy"):
                enumerate_fn(pair, "generic", policy="x")

    @pytest.mark.parametrize("algorithm", ["sd", "generic"])
    def test_single_response_algorithms_need_batch_size_1(self, algorithm):
        pair = random_model_pair(2, 2, seed=1)
        policy = sd_policy(pair) if algorithm == "generic" else None
        for enumerate_fn in (enumerate_output_distribution, enumerate_expected_rejections):
            for bad in (5, 2.0, 0):
                with pytest.raises(ValueError, match="need batch_size 1"):
                    enumerate_fn(pair, algorithm, batch_size=bad, policy=policy)
            for bad in ("x", None, True):
                with pytest.raises(TypeError, match="not an integer"):
                    enumerate_fn(pair, algorithm, batch_size=bad, policy=policy)
            assert np.array_equal(
                enumerate_fn(pair, algorithm, batch_size=1.0, policy=policy),
                enumerate_fn(pair, algorithm, policy=policy),
            )

    @pytest.mark.parametrize("algorithm, batch_size", [("sd", 1), ("batch", 1), ("batch", 3)])
    def test_sd_and_batch_take_no_policy(self, algorithm, batch_size):
        pair = random_model_pair(2, 2, seed=1)
        for enumerate_fn in (enumerate_output_distribution, enumerate_expected_rejections):
            for policy in (sd_policy(pair), "x"):
                with pytest.raises(ValueError, match="take no policy"):
                    enumerate_fn(pair, algorithm, batch_size=batch_size, policy=policy)

    def test_batch_size_validated(self):
        pair = random_model_pair(2, 2, seed=1)
        with pytest.raises(ValueError, match="batch_size"):
            enumerate_expected_rejections(pair, "batch", batch_size=0)
        for enumerate_fn in (enumerate_output_distribution, enumerate_expected_rejections):
            for bad in (True, "2", 2.5, None):
                with pytest.raises(TypeError, match="not an integer"):
                    enumerate_fn(pair, "batch", batch_size=bad)
        law = enumerate_output_distribution(pair, "batch", batch_size=2.0)
        np.testing.assert_array_equal(law, enumerate_output_distribution(pair, "batch", batch_size=2))
        enum = enumerate_expected_rejections(pair, "batch", batch_size=2.0)
        assert enum == enumerate_expected_rejections(pair, "batch", batch_size=2)


class TestOneWalk:
    def test_law_and_rejections_meet_the_closed_forms(self):
        pair = PAIRS[0]
        target = joint_distribution(pair.q)
        runs = [
            ("sd", {}, expected_rejections_sd(pair)),
            ("batch", {"batch_size": 2}, expected_rejections_batch(pair, 2).total),
            ("generic", {"policy": sd_policy(pair)}, expected_rejections_sd(pair)),
        ]
        for algorithm, kwargs, rejections in runs:
            law, enum = enumerate_law_and_rejections(pair, algorithm, **kwargs)
            np.testing.assert_allclose(law, target, atol=1e-13)
            assert enum == pytest.approx(rejections, abs=1e-12)


class TestHistoryDependentPairs:
    PAIR = random_full_pair(3, 3, seed=19)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_batch_law_and_rejections(self, m):
        law = enumerate_output_distribution(self.PAIR, "batch", batch_size=m)
        np.testing.assert_allclose(law, joint_distribution(self.PAIR.q), atol=1e-13)
        enum = enumerate_expected_rejections(self.PAIR, "batch", batch_size=m)
        assert enum == pytest.approx(expected_rejections_batch(self.PAIR, m).total, abs=1e-12)

    def test_generic_laws_and_rejections(self):
        sd = expected_rejections_sd(self.PAIR)
        target = joint_distribution(self.PAIR.q)
        law = enumerate_output_distribution(self.PAIR, "generic", policy=sd_policy(self.PAIR))
        np.testing.assert_allclose(law, target, atol=1e-13)
        enum = enumerate_expected_rejections(self.PAIR, "generic", policy=sd_policy(self.PAIR))
        assert enum == pytest.approx(sd, abs=1e-12)
        policy = random_unbiased_policy(self.PAIR, make_rng(4))
        law = enumerate_output_distribution(self.PAIR, "generic", policy=policy)
        np.testing.assert_allclose(law, target, atol=1e-12)
        assert enumerate_expected_rejections(self.PAIR, "generic", policy=policy) > sd


def _counting(policy: Policy):
    """The policy plus Counters of its acceptance and residual calls by arguments."""
    accepts, residuals = Counter(), Counter()

    def acceptance(n, history, candidate):
        accepts[n, history, candidate] += 1
        return policy.acceptance(n, history, candidate)

    def residual(n, history):
        residuals[n, history] += 1
        return policy.residual(n, history)

    return Policy(acceptance, residual), accepts, residuals


class TestCallbacks:
    def test_unreachable_histories_are_never_read(self):
        # Keep or replace the draft with probability 1/2 each, replacing from p:
        # the output law is p's, so histories outside p's support are never reached.
        pair = sparse_draft_pair(3, 4, seed=5)

        def check_reached(n, history):
            for k, token in enumerate(history[1:], start=1):
                if pair.p.step(k, history[:k])[token] == 0.0:
                    raise AssertionError(f"callback at position {n} on unreachable {history}")

        def acceptance(n, history, candidate):
            check_reached(n, history)
            return 0.5

        def residual(n, history):
            check_reached(n, history)
            return pair.p.step(n, history)

        policy = Policy(acceptance, residual)
        assert (joint_distribution(pair.p) == 0.0).any()
        law = enumerate_output_distribution(pair, "generic", policy=policy)
        np.testing.assert_allclose(law, joint_distribution(pair.p), atol=1e-13)
        assert enumerate_expected_rejections(pair, "generic", policy=policy) == pytest.approx(
            pair.horizon / 2, abs=1e-13
        )

    def test_each_reached_history_is_read_once(self):
        pair = random_model_pair(3, 3, seed=23)
        policy, accepts, residuals = _counting(random_unbiased_policy(pair, make_rng(1)))
        enumerate_output_distribution(pair, "generic", policy=policy)
        v = pair.vocab_size
        histories = [
            (n, h) for n in range(1, pair.horizon + 1) for h in itertools.product(range(v), repeat=n)
        ]
        assert accepts == Counter((n, h, x) for n, h in histories for x in range(v))
        assert residuals == Counter(histories)

    BAD_ACCEPTANCES = {
        "non-finite-acceptance": float("nan"),
        "string-acceptance": "0.5",
        "bool-acceptance": True,
        "numpy-bool-acceptance": np.True_,
        "float32-nan-acceptance": np.float32("nan"),
    }
    BAD_RESIDUALS = {
        "shape": lambda pair, n, h: np.array([0.5, 0.3, 0.2]),
        "negative": lambda pair, n, h: np.array([-0.1, 1.1]),
        "sum": lambda pair, n, h: np.array([0.5, 0.6]),
        "later-position": lambda pair, n, h: np.array([0.5, 0.6]) if n == 2 else pair.q.step(n, h),
        "string-residual": lambda pair, n, h: ["0.5", "0.5"],
        "bool-residual": lambda pair, n, h: [True, False],
        "row-of-one": lambda pair, n, h: np.array([[0.5, 0.5]]),
        "list-row-of-one": lambda pair, n, h: [[0.5, 0.5]],
        "float32-sum": lambda pair, n, h: np.array([0.1, 0.9], dtype=np.float32),
    }

    @pytest.mark.parametrize("kind", [*BAD_ACCEPTANCES, *BAD_RESIDUALS])
    def test_invalid_policy_message_matches_generic_decode(self, kind):
        pair = random_model_pair(2, 3, seed=4)
        if kind in self.BAD_ACCEPTANCES:
            value = self.BAD_ACCEPTANCES[kind]
            policy = Policy(lambda n, h, c: value, pair.q.step)
        else:
            bad = self.BAD_RESIDUALS[kind]
            policy = Policy(lambda n, h, c: 0.0, lambda n, h: bad(pair, n, h))
        with pytest.raises(InvalidPolicy) as scalar:
            generic_decode(pair, policy, split_rng(8, 0))
        for enumerate_fn in (enumerate_output_distribution, enumerate_expected_rejections):
            with pytest.raises(InvalidPolicy) as enum:
                enumerate_fn(pair, "generic", policy=policy)
            assert str(enum.value) == str(scalar.value)

    def test_a_level_makes_all_its_calls_before_a_bad_value_raises(self):
        # The second acceptance value of level 1, in (history, token) order, is
        # True: the level's other calls still run, then generic_decode's error.
        pair = random_model_pair(2, 3, seed=4)
        bad = (1, (0,), 1)
        rule = Policy(lambda n, h, c: True if (n, h, c) == bad else 0.5, pair.q.step)
        policy, accepts, residuals = _counting(rule)
        assert pair.prompt.probs.all()
        with pytest.raises(InvalidPolicy) as enum:
            enumerate_law_and_rejections(pair, "generic", policy=policy)
        assert list(accepts) == [(1, (x0,), x) for x0 in range(2) for x in range(2)]
        assert set(accepts.values()) == {1}
        assert not residuals
        messages = set()
        for i in range(20):
            try:
                generic_decode(pair, rule, split_rng(8, i))
            except InvalidPolicy as exc:
                messages.add(str(exc))
        assert messages == {str(enum.value)}

    # Residual rows of other real types are taken as their float64 values.
    RESIDUAL_ROWS = {
        "float32": np.array([0.25, 0.75], dtype=np.float32),
        "int": np.array([0, 1]),
        "int32": np.array([0, 1], dtype=np.int32),
        "list": [0.25, 0.75],
        "tuple": (0.25, 0.75),
    }

    @pytest.mark.parametrize("kind", RESIDUAL_ROWS)
    def test_residual_rows_are_taken_as_their_float64_values(self, kind):
        pair = random_model_pair(2, 3, seed=4)
        row = self.RESIDUAL_ROWS[kind]
        floats = np.array(row, dtype=np.float64)
        policy = Policy(lambda n, h, c: 0.5, lambda n, h: row)
        reference = Policy(lambda n, h, c: 0.5, lambda n, h: floats)
        for i in range(20):
            assert generic_decode(pair, policy, split_rng(6, i)) == generic_decode(
                pair, reference, split_rng(6, i)
            )
        law, rejections = enumerate_law_and_rejections(pair, "generic", policy=policy)
        want_law, want_rejections = enumerate_law_and_rejections(pair, "generic", policy=reference)
        assert law.tobytes() == want_law.tobytes()
        assert rejections == want_rejections

    def test_a_row_that_cannot_be_read_is_named_before_a_bad_shape(self):
        # Every history's row is read before any shape is checked, so the
        # second history's string row is named, not the first one's shape.
        pair = random_model_pair(2, 3, seed=4)
        rows = {(0,): np.array([0.25, 0.25, 0.5]), (1,): ["0.5", "0.5"]}
        policy = Policy(lambda n, h, c: 0.0, lambda n, h: rows.get(h, pair.q.step(n, h)))
        assert pair.prompt.probs.all()
        with pytest.raises(InvalidPolicy, match="^residual at position 1: .*real numbers"):
            enumerate_law_and_rejections(pair, "generic", policy=policy)


def _sparse_prompt(vocab: int, dead: list[int]) -> np.ndarray:
    weights = np.arange(1.0, vocab + 1.0)
    weights[dead] = 0.0
    return weights / weights.sum()


class TestMarkovRows:
    # A Markov pair's rows are read by the last digit of each live code; its
    # markov_to_full copy holds the same rows and is read history by history.
    PAIRS = {
        "dense": random_model_pair(4, 3, seed=8),
        "sparse": with_prompt(
            random_model_pair(40, 2, seed=13), _sparse_prompt(40, [2, 7, *range(15, 30), 33])
        ),
    }

    @pytest.mark.parametrize("kind", PAIRS)
    def test_markov_pair_matches_its_history_tables_exactly(self, kind):
        pair = self.PAIRS[kind]
        full = ModelPair(markov_to_full(pair.p), markov_to_full(pair.q))
        runs = [("sd", {}), *(("batch", {"batch_size": m}) for m in (1, 2, 3))]
        runs.append(("generic", {"policy": random_unbiased_policy(pair, make_rng(3))}))
        for algorithm, kwargs in runs:
            law = enumerate_output_distribution(pair, algorithm, **kwargs)
            assert (law == enumerate_output_distribution(full, algorithm, **kwargs)).all()
            rejections = enumerate_expected_rejections(pair, algorithm, **kwargs)
            assert rejections == enumerate_expected_rejections(full, algorithm, **kwargs)

    def test_acceptance_values_are_clamped_as_the_sampler_clamps_them(self):
        pair = random_model_pair(3, 3, seed=6)
        real = type("Real", (float,), {})
        values = [-0.0, 1.5, -2, np.float32(0.3), 1, np.int64(3), real(0.25)]

        def raw(n, history, candidate):
            return values[(n + sum(history) + candidate) % len(values)]

        policy = Policy(raw, pair.q.step)
        clamped = Policy(
            lambda n, history, candidate: policy_acceptance(policy, n, history, candidate),
            pair.q.step,
        )
        law = enumerate_output_distribution(pair, "generic", policy=policy)
        assert law.tobytes() == enumerate_output_distribution(
            pair, "generic", policy=clamped
        ).tobytes()
        assert enumerate_expected_rejections(
            pair, "generic", policy=policy
        ) == enumerate_expected_rejections(pair, "generic", policy=clamped)


class TestPromptBlocks:
    # At (V, T) = (40, 2) the prompt tokens walk in blocks of 15, 15 and 10,
    # and the middle block has no prompt mass; at (4, 3) they walk in one block.
    SPARSE = {
        "markov": with_prompt(
            random_model_pair(40, 2, seed=13), _sparse_prompt(40, [2, 7, *range(15, 30), 33])
        ),
        "full": random_full_pair(4, 3, seed=13, prompt=_sparse_prompt(4, [1, 2])),
    }

    @pytest.mark.parametrize("kind", SPARSE)
    def test_zero_mass_prompt_tokens_are_never_read(self, kind):
        pair = self.SPARSE[kind]
        dead = {x0 for x0 in range(pair.vocab_size) if pair.prompt[x0] == 0.0}
        sd_rule = sd_policy(pair)

        def check_live(n, history):
            if history[0] in dead:
                raise AssertionError(f"callback at position {n} on unreachable {history}")

        def acceptance(n, history, candidate):
            check_live(n, history)
            return sd_rule.acceptance(n, history, candidate)

        def residual(n, history):
            check_live(n, history)
            return sd_rule.residual(n, history)

        target = joint_distribution(pair.q)
        sd = expected_rejections_sd(pair)
        runs = [("sd", {}, sd), ("generic", {"policy": Policy(acceptance, residual)}, sd)]
        runs += [
            ("batch", {"batch_size": m}, expected_rejections_batch(pair, m).total) for m in (1, 2, 3)
        ]
        for algorithm, kwargs, closed_form in runs:
            law = enumerate_output_distribution(pair, algorithm, **kwargs)
            np.testing.assert_allclose(law, target, atol=1e-13)
            enum = enumerate_expected_rejections(pair, algorithm, **kwargs)
            assert enum == pytest.approx(closed_form, abs=1e-12)

    def test_tokens_walk_one_at_a_time_above_the_cap(self):
        # V**(T + 1) > FULL_TABLE_CAP, so each prompt token walks alone: a
        # merged walk would hold a 1001 x 1001 child table, 8 MB. The prompt
        # keeps three tokens so that the traced walk stays short, as
        # tracemalloc traces each Python float the level sums build; a block
        # that walks is as large as with a dense prompt.
        base = random_model_pair(1001, 1, seed=2)
        prompt = np.zeros(1001)
        prompt[[0, 500, 1000]] = [0.2, 0.5, 0.3]
        pair = with_prompt(base, prompt)
        for algorithm, kwargs in (("sd", {}), ("batch", {"batch_size": 3})):
            tracemalloc.start()
            try:
                law = enumerate_output_distribution(pair, algorithm, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 512 * 1024
            np.testing.assert_allclose(law, joint_distribution(pair.q), atol=1e-13)

    def test_leaf_sums_skip_zero_moments(self, monkeypatch):
        # Each prompt token walks alone at (1001, 1), one level per walk, so a
        # level's rejecting-branch masses are its leaves'; about half of them
        # are zero, where q <= p. fsum is exactly rounded, so summing only the
        # nonzero ones gives the fsum of them all: one fsum per level and one
        # over the level sums.
        pair = random_model_pair(1001, 1, seed=2)
        p_rows, q_rows = pair.p.steps[0].rows, pair.q.steps[0].rows
        replacement, reject = _residual_rows(q_rows, p_rows)
        leaves = pair.prompt.probs[:, None] * (reject[:, None] * replacement)
        expected = math.fsum([math.fsum(row.tolist()) for row in leaves])
        fsum, summed = math.fsum, []

        def counted(values):
            summed.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", counted)
        assert enumerate_expected_rejections(pair, "sd") == expected
        assert 0 < np.count_nonzero(leaves) < 0.6 * leaves.size
        assert len(summed) == 1001 + 1
        assert sum(summed) == np.count_nonzero(leaves) + 1001


class TestLongHorizon:
    def test_two_tokens_to_horizon_twelve(self):
        # 4096 outputs; a path-by-path expansion would walk about 16.7M branch paths.
        pair = random_model_pair(2, 12, seed=31)
        joint = joint_distribution(pair.q)
        law = enumerate_output_distribution(pair, "sd")
        assert np.abs(law - joint).sum() <= 1e-10
        enum = enumerate_expected_rejections(pair, "sd")
        assert enum == pytest.approx(expected_rejections_sd(pair), abs=1e-12)
        for m in (2, 3):
            law = enumerate_output_distribution(pair, "batch", batch_size=m)
            assert np.abs(law - joint).sum() <= 1e-10
            enum = enumerate_expected_rejections(pair, "batch", batch_size=m)
            assert enum == pytest.approx(expected_rejections_batch(pair, m).total, abs=1e-12)


class TestOnePhaseRound:
    def test_batch_at_one_response_is_sd_bit_for_bit(self):
        # Speculative decoding is the batch round at M = 1, walked in one phase.
        pairs = [*PAIRS, random_full_pair(2, 3, seed=9), sparse_draft_pair(3, 3, seed=2)]
        for pair in pairs:
            law, rejections = enumerate_law_and_rejections(pair, "batch", batch_size=1)
            sd_law, sd_rejections = enumerate_law_and_rejections(pair, "sd")
            assert law.tobytes() == sd_law.tobytes()
            assert rejections == sd_rejections
