"""Closed-form rejection analytics against the enumeration oracles.

The speculative DP, the two batch recursions, and the batch-size limit are each
checked on a route that shares no code with them: full decision-tree expansion,
hand closed forms, or constructed instances whose value is known outright.
"""

import math
import tracemalloc

import numpy as np
import pytest

from specdec import (
    BatchRejections,
    CondDist,
    Dist,
    FullModel,
    MarkovModel,
    ModelPair,
    acceleration_rate,
    batch_improvement_bernoulli,
    batch_improvement_uniform,
    enumerate_expected_rejections,
    expected_rejections_batch,
    expected_rejections_sd,
    limit_rejections,
    markov_to_full,
    random_model_pair,
    rejection_iterate,
    sd_marginal_terms,
    target_marginals,
    tv_distance,
)
from specdec.dist import ZeroResidual, _tv_arrays, _tv_rows
from specdec import exact
from specdec.exact import _root_iterates

from helpers import constant_chain, random_full_pair, seeded_small_pairs, sparse_draft_pair

PAIRS = seeded_small_pairs(count=12, master=31)

# One-step instances behind the closed forms: a uniform draft over four tokens
# against a uniform target on half of them, and Ber(0.8) against Ber(0.5).
UNIFORM_RATIO_PAIR = ModelPair(
    constant_chain(np.full(4, 0.25), np.full(4, 0.25), 1),
    constant_chain(np.full(4, 0.25), np.array([0.5, 0.5, 0.0, 0.0]), 1),
)
BERNOULLI_PAIR = ModelPair(
    constant_chain(np.array([0.5, 0.5]), np.array([0.2, 0.8]), 1),
    constant_chain(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 1),
)


def full_pair(pair: ModelPair) -> ModelPair:
    return ModelPair(markov_to_full(pair.p), markov_to_full(pair.q))


def sparse_rows(rng: np.random.Generator, vocab: int, count: int) -> np.ndarray:
    """Random distributions with about a third of their entries zeroed."""
    raw = rng.uniform(size=(count, vocab))
    raw[rng.random(raw.shape) < 0.35] = 0.0
    raw[np.arange(count), rng.integers(vocab, size=count)] += 0.1
    return raw / raw.sum(axis=1, keepdims=True)


def iterated_root(q: np.ndarray, p: np.ndarray, batch_size: int):
    """(prod_{m<=M} r_m, prod * q^{M+1}) by chaining rejection_iterate; zero once r_m vanishes."""
    cur, prod = q, 1.0
    for _ in range(batch_size):
        try:
            cur, r = rejection_iterate(cur, p)
        except ZeroResidual:
            return 0.0, np.zeros(q.size)
        prod *= r
    return prod, prod * cur.probs


def disjoint_pair(horizon: int) -> ModelPair:
    prompt = np.array([0.5, 0.5])
    return ModelPair(
        constant_chain(prompt, np.array([1.0, 0.0]), horizon),
        constant_chain(prompt, np.array([0.0, 1.0]), horizon),
    )


class TestExpectedRejectionsSd:
    def test_matches_enumeration(self):
        for pair in PAIRS:
            enum = enumerate_expected_rejections(pair, "sd")
            assert expected_rejections_sd(pair) == pytest.approx(enum, abs=1e-12)

    def test_history_walk_matches_enumeration(self):
        pair = random_full_pair(2, 4, seed=9)
        enum = enumerate_expected_rejections(pair, "sd")
        assert expected_rejections_sd(pair) == pytest.approx(enum, abs=1e-12)

    def test_markov_dp_agrees_with_history_walk(self):
        for pair in PAIRS[:6]:
            dp = expected_rejections_sd(pair)
            walk = expected_rejections_sd(full_pair(pair))
            assert dp == pytest.approx(walk, abs=1e-12)

    def test_horizon_one_reduces_to_prompt_tv(self):
        pair = random_model_pair(3, 1, seed=14)
        direct = math.fsum(
            pair.prompt[s] * tv_distance(pair.p.step(1, (s,)), pair.q.step(1, (s,)))
            for s in range(3)
        )
        assert expected_rejections_sd(pair) == pytest.approx(direct, abs=1e-15)

    def test_identical_models_give_zero(self):
        model = random_model_pair(3, 4, seed=15).q
        assert expected_rejections_sd(ModelPair(model, model)) == 0.0

    def test_disjoint_supports_give_horizon(self):
        assert expected_rejections_sd(disjoint_pair(5)) == pytest.approx(5.0, abs=1e-15)

    def test_marginal_terms_sum_to_total(self):
        pair = random_model_pair(3, 6, seed=16)
        terms = sd_marginal_terms(pair)
        assert len(terms) == 6
        assert math.fsum(terms) == pytest.approx(expected_rejections_sd(pair), abs=1e-13)

    def test_marginal_terms_require_markov(self):
        with pytest.raises(TypeError):
            sd_marginal_terms(full_pair(random_model_pair(2, 2, seed=0)))


class TestAccelerationRate:
    def test_plain_ratio(self):
        assert acceleration_rate(25.0, 50) == 2.0

    def test_zero_rejections_reports_horizon(self):
        assert acceleration_rate(0.0, 50) == 50.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            acceleration_rate(-0.1, 10)

    def test_numpy_numbers_and_integral_floats_pass(self):
        assert acceleration_rate(np.float64(25.0), np.int64(50)) == 2.0
        assert acceleration_rate(25, 50.0) == 2.0

    @pytest.mark.parametrize("horizon, error", [
        (2.5, TypeError), (True, TypeError), ("5", TypeError), (None, TypeError),
        (-4, ValueError), (0, ValueError),
    ])
    def test_horizon_is_a_positive_integer(self, horizon, error):
        for rejections in (1.0, 0.0):
            with pytest.raises(error, match="horizon"):
                acceleration_rate(rejections, horizon)


class TestScalarArguments:
    """The scalar closed forms take finite reals: no bool, no string, no nan or inf."""

    @staticmethod
    def calls(value):
        return [
            lambda: acceleration_rate(value, 5),
            lambda: batch_improvement_uniform(value, 2),
            lambda: batch_improvement_bernoulli(value, 0.5, 2),
            lambda: batch_improvement_bernoulli(0.9, value, 2),
        ]

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, np.float64("nan"),
         pytest.param(10**400, id="int-too-large"), pytest.param(-(10**400), id="-int-too-large")],
    )
    def test_non_finite_values_are_refused(self, value):
        for call in self.calls(value):
            with pytest.raises(ValueError, match="must be finite"):
                call()

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None, 1j])
    def test_non_reals_are_refused(self, value):
        for call in self.calls(value):
            with pytest.raises(TypeError, match="is not a real number"):
                call()


class TestPairArgument:
    @pytest.mark.parametrize("value", ["x", 3, None, random_model_pair(2, 2, seed=0).q])
    def test_closed_forms_refuse_anything_but_a_model_pair(self, value):
        for call in (expected_rejections_sd, limit_rejections, sd_marginal_terms,
                     lambda pair: expected_rejections_batch(pair, 2)):
            with pytest.raises(TypeError, match="ModelPair"):
                call(value)


class TestBatchRecursions:
    def test_matches_enumeration(self):
        for pair in PAIRS[:8]:
            for m in (1, 2, 3):
                enum = enumerate_expected_rejections(pair, "batch", batch_size=m)
                got = expected_rejections_batch(pair, m)
                assert got.total == pytest.approx(enum, abs=1e-12)

    def test_markov_and_history_recursions_agree(self):
        for pair in PAIRS[:8]:
            for m in (1, 2, 3):
                markov = expected_rejections_batch(pair, m)
                general = expected_rejections_batch(full_pair(pair), m)
                assert markov.total == pytest.approx(general.total, abs=1e-12)
                assert markov.improvement == pytest.approx(general.improvement, abs=1e-12)

    def test_history_recursion_matches_enumeration_on_full_models(self):
        pair = random_full_pair(2, 3, seed=10)
        for m in (1, 2, 3):
            enum = enumerate_expected_rejections(pair, "batch", batch_size=m)
            assert expected_rejections_batch(pair, m).total == pytest.approx(enum, abs=1e-12)

    def test_history_recursion_walks_once(self, monkeypatch):
        # The SD and gain terms of a non-Markov pair come from one level walk
        # that reads p's and q's rows of each level once, every code at once,
        # through _level_rows, and makes no per-history step call.
        pair = full_pair(random_model_pair(2, 4, seed=3))
        reads, level_rows = [], exact._level_rows

        def counted(model, n, codes):
            reads.append((id(model), n, codes.tolist()))
            return level_rows(model, n, codes)

        def step(model, n, history):
            raise AssertionError(f"step({n}, {history}) called")

        monkeypatch.setattr(exact, "_level_rows", counted)
        monkeypatch.setattr(FullModel, "step", step)
        expected_rejections_batch(pair, 2)
        assert sorted(reads) == sorted(
            (id(model), n, list(range(2**n))) for model in (pair.p, pair.q) for n in range(1, 5)
        )

    @pytest.mark.parametrize("cap, block", [(3**4 - 1, 1), (2 * 3**4, 2), (3**4 * 3, 3)])
    def test_prompt_blocks_change_no_value(self, monkeypatch, cap, block):
        # B = max(1, FULL_TABLE_CAP // V**(T + 1)) prompt tokens walk together,
        # and the totals are the same at every B.
        pair, names = random_full_pair(3, 3, seed=12), ["sd", "batch2", "batch5", "limit"]
        want = closed_forms(pair, names)
        monkeypatch.setattr(exact, "FULL_TABLE_CAP", cap)
        assert closed_forms(pair, names) == want
        reads, level_rows = [], exact._level_rows

        def counted(model, n, codes):
            reads.append((n, codes.tolist()))
            return level_rows(model, n, codes)

        monkeypatch.setattr(exact, "_level_rows", counted)
        expected_rejections_sd(pair)
        assert reads == [(n, list(range(lo * 3 ** (n - 1), min(lo + block, 3) * 3 ** (n - 1))))
                         for lo in range(0, 3, block) for n in (1, 2, 3) for _ in "pq"]

    def test_single_response_is_sd_exactly(self):
        for pair in PAIRS:
            got = expected_rejections_batch(pair, 1)
            assert got.improvement == 0.0
            assert got.total == expected_rejections_sd(pair)

    def test_improvement_nonnegative_and_consistent(self):
        for pair in PAIRS:
            sd = expected_rejections_sd(pair)
            for m in (2, 3, 4):
                got = expected_rejections_batch(pair, m)
                assert got.improvement >= 0.0
                assert got.total == pytest.approx(sd - got.improvement, abs=1e-13)

    def test_totals_nonincreasing_in_batch_size(self):
        for pair in PAIRS[:6]:
            totals = [expected_rejections_batch(pair, m).total for m in range(1, 7)]
            for a, b in zip(totals, totals[1:]):
                assert b <= a + 1e-13

    def test_identical_models_stay_zero(self):
        model = random_model_pair(2, 3, seed=17).q
        got = expected_rejections_batch(ModelPair(model, model), 3)
        assert got == BatchRejections(0.0, 0.0)

    def test_disjoint_supports_gain_nothing(self):
        got = expected_rejections_batch(disjoint_pair(4), 5)
        assert got.total == pytest.approx(4.0, abs=1e-15)
        assert got.improvement == pytest.approx(0.0, abs=1e-15)

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            expected_rejections_batch(PAIRS[0], 0)
        for bad in (True, "2", 2.5, None):
            with pytest.raises(TypeError, match=f"^batch_size {bad!r} is not an integer$"):
                expected_rejections_batch(PAIRS[0], bad)
        assert expected_rejections_batch(PAIRS[0], 2.0) == expected_rejections_batch(PAIRS[0], 2)


class TestHistoryWalkMemory:
    """The history-level walk holds one prompt token's codes of a level at a time.

    Measured with tracemalloc on this V = 10, T = 5 history pair, above the
    live pair: batch(2) and the limit peak at 7.1 MB and SD at 4.2 MB, in the
    walk's last level, since the final fsum lists one level's terms at a time.
    Listing all of a walk's terms at once peaked at 8.7, 8.6 and 4.4 MB, and a
    walk over all V**n codes of a level at once at 54.8, 54.0 and 33.8 MB.
    """

    PAIR = full_pair(random_model_pair(10, 5, seed=3))

    @pytest.mark.parametrize("call, bound", [
        (lambda pair: expected_rejections_batch(pair, 2), 8.2e6),
        (limit_rejections, 8.2e6),
        (expected_rejections_sd, 5.2e6),
    ], ids=["batch2", "limit", "sd"])
    def test_peak_stays_within_its_measured_bound(self, call, bound):
        tracemalloc.start()
        try:
            call(self.PAIR)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestRootIterateClosedForm:
    def test_matches_iterated_residuals(self):
        rng = np.random.default_rng(41)
        for vocab in (2, 3, 5, 8):
            q = sparse_rows(rng, vocab, 40)
            p = sparse_rows(rng, vocab, 40)
            # Rows 0-4 equal q and rows 5-9 sit within 1e-12 of it: rows 5-9 keep
            # their tiny residuals, as the samplers do.
            p[:10] = q[:10]
            top = q[5:10].argmax(axis=1)
            p[np.arange(5, 10), top] -= 4e-13
            p[np.arange(5, 10), (top + 1) % vocab] += 4e-13
            tv = _tv_rows(q, p)
            assert np.all(tv[:10] < 1e-12)
            for m in range(1, 9):
                prods, tails, _ = _root_iterates(q, p, tv, m)
                for i in range(len(q)):
                    want_prod, want_tail = iterated_root(q[i], p[i], m)
                    prod, tail, _ = _root_iterates(q[i], p[i], _tv_arrays(q[i], p[i]), m)
                    for got_prod, got_tail in ((prods[i], tails[i]), (prod, tail)):
                        assert abs(got_prod - want_prod) <= 1e-14
                        np.testing.assert_allclose(got_tail, want_tail, rtol=0.0, atol=1e-14)
            assert np.all(_root_iterates(q, p, tv, 8)[0][:5] == 0.0)

    def test_many_tiny_roots_keep_their_mass(self):
        # Odd positions always reject; every even position is then a round root
        # with tv 9e-13. Dropping each such root's mass lost 7.2e-12 over eight.
        tiny = np.array([9e-13, 1.0 - 9e-13])
        p_steps, q_steps = [], []
        for n in range(1, 17):
            p_row, q_row = ([1.0, 0.0], [0.0, 1.0]) if n % 2 else ([0.0, 1.0], tiny)
            p_steps.append(CondDist([p_row, p_row]))
            q_steps.append(CondDist([q_row, q_row]))
        prompt = Dist([0.5, 0.5])
        pair = ModelPair(MarkovModel(prompt, p_steps), MarkovModel(prompt, q_steps))
        for m in (2, 3):
            want = enumerate_expected_rejections(pair, "batch", batch_size=m)
            assert abs(expected_rejections_batch(pair, m).total - want) <= 1e-12

    def test_scalar_rows_equal_block_rows(self):
        # The history walk passes one row and a float tv; the Markov walk a (B, V) block.
        rng = np.random.default_rng(43)
        q, p = sparse_rows(rng, 6, 30), sparse_rows(rng, 6, 30)
        p[:5] = q[:5]
        tv = _tv_rows(q, p)
        for m in (1, 2, 3, 5, 8, None):
            prods, tails, levels = _root_iterates(q, p, tv, m)
            for i in range(len(q)):
                prod, tail, level = _root_iterates(q[i], p[i], _tv_arrays(q[i], p[i]), m)
                assert prod == prods[i] and np.array_equal(tail, tails[i])
                assert level == (levels if m in (1, None) else levels[i])

    def test_first_factor_is_the_sd_tv_bit_for_bit(self):
        rng = np.random.default_rng(42)
        q, p = sparse_rows(rng, 6, 50), sparse_rows(rng, 6, 50)
        tv = _tv_rows(q, p)
        assert np.array_equal(_root_iterates(q, p, tv, 1)[0], tv)


class TestClosedForms:
    def test_uniform_literal_value(self):
        assert batch_improvement_uniform(2.0, 2) == pytest.approx(0.25, abs=1e-15)

    def test_bernoulli_literal_value(self):
        assert batch_improvement_bernoulli(0.8, 0.5, 3) == pytest.approx(0.108, abs=1e-15)

    def test_single_response_closed_forms_vanish(self):
        assert batch_improvement_uniform(3.0, 1) == 0.0
        assert batch_improvement_bernoulli(0.9, 0.4, 1) == 0.0

    def test_uniform_matches_general_computation(self):
        # draft Unif(4) vs target Unif(2): support ratio 2
        for m in (1, 2, 3, 5, 8):
            general = expected_rejections_batch(UNIFORM_RATIO_PAIR, m).improvement
            assert batch_improvement_uniform(2.0, m) == pytest.approx(general, abs=1e-12)

    def test_bernoulli_matches_general_computation(self):
        for m in (1, 2, 3, 5, 8):
            general = expected_rejections_batch(BERNOULLI_PAIR, m).improvement
            assert batch_improvement_bernoulli(0.8, 0.5, m) == pytest.approx(
                general, abs=1e-12
            )

    def test_uniform_limit_is_base_rejection(self):
        # improvement climbs to 1 - 1/ratio, the one-step rejection probability
        assert batch_improvement_uniform(2.0, 60) == pytest.approx(0.5, abs=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="ratio"):
            batch_improvement_uniform(0.5, 2)
        with pytest.raises(ValueError, match="0 <= v <= u <= 1"):
            batch_improvement_bernoulli(0.4, 0.7, 2)
        with pytest.raises(ValueError, match="batch_size"):
            batch_improvement_bernoulli(0.7, 0.4, 0)

    @pytest.mark.parametrize(
        "closed_form",
        [lambda m: batch_improvement_uniform(2.0, m),
         lambda m: batch_improvement_bernoulli(0.8, 0.5, m)],
        ids=["uniform", "bernoulli"],
    )
    def test_batch_size_is_a_strict_integer(self, closed_form):
        for bad in (2.5, True):
            with pytest.raises(TypeError, match=f"^batch_size {bad!r} is not an integer$"):
                closed_form(bad)
        with pytest.raises(ValueError, match="^batch_size must be >= 1$"):
            closed_form(0)


class TestLimit:
    def test_bounds_every_batch_size(self):
        for pair in PAIRS:
            lim = limit_rejections(pair)
            assert lim >= 0.0
            for m in (1, 2, 4, 8):
                assert lim <= expected_rejections_batch(pair, m).total + 1e-12

    def test_batch_totals_converge_to_limit(self):
        pair = random_model_pair(2, 3, seed=18)
        lim = limit_rejections(pair)
        gaps = [expected_rejections_batch(pair, m).total - lim for m in (4, 16, 64, 256)]
        assert all(g >= -1e-12 for g in gaps)
        assert gaps[-1] < 1e-6
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-13

    def test_identical_models_limit_zero(self):
        model = random_model_pair(3, 3, seed=19).q
        assert limit_rejections(ModelPair(model, model)) == 0.0

    def test_positive_when_mismatch_reachable_beyond_first_position(self):
        for pair in PAIRS:
            if pair.horizon >= 2:
                assert limit_rejections(pair) > 0.0

    def test_disjoint_supports_limit_is_horizon(self):
        # no overlap means extra responses never help at all
        assert limit_rejections(disjoint_pair(3)) == pytest.approx(3.0, abs=1e-15)

    def test_unreachable_mismatch_gives_zero(self):
        # p and q differ only where the target law never goes
        prompt = Dist([1.0, 0.0])
        shared = CondDist([[1.0, 0.0], [0.3, 0.7]])
        p_only = CondDist([[1.0, 0.0], [0.9, 0.1]])
        p = MarkovModel(prompt, [shared, p_only])
        q = MarkovModel(prompt, [shared, shared])
        pair = ModelPair(p, q)
        assert expected_rejections_sd(pair) == 0.0
        assert limit_rejections(pair) == 0.0

    def test_horizon_one_overlapping_limit_collapses(self):
        # A single round root saturates as responses grow: each extra draft
        # multiplies the rejection odds by r < 1 whenever the residual iterate
        # still overlaps p, so the infimum at horizon 1 is zero despite tv > 0.
        assert tv_distance(
            BERNOULLI_PAIR.p.step(1, (0,)), BERNOULLI_PAIR.q.step(1, (0,))
        ) == pytest.approx(0.3, abs=1e-15)
        assert limit_rejections(BERNOULLI_PAIR) == pytest.approx(0.0, abs=1e-15)
        big_m = expected_rejections_batch(BERNOULLI_PAIR, 140).total
        assert big_m == pytest.approx(0.0, abs=1e-12)

    def test_sparse_draft_limit_is_target_mass_off_draft_support(self):
        # One position: each root's limiting rejection is q(x : p(x) = 0).
        pair = sparse_draft_pair(4, 1, seed=3)
        p_rows, q_rows = pair.p.steps[0].rows, pair.q.steps[0].rows
        off_support = np.where(p_rows == 0.0, q_rows, 0.0).sum(axis=1)
        assert off_support.max() > 0.1
        want = math.fsum(pair.prompt.probs * off_support)
        assert limit_rejections(pair) == pytest.approx(want, abs=1e-15)

    def test_sparse_draft_batch_totals_fall_to_limit(self):
        pair = sparse_draft_pair(3, 3, seed=2)
        lim = limit_rejections(pair)
        assert lim > 0.5
        assert lim == pytest.approx(limit_rejections(full_pair(pair)), abs=1e-12)
        for m in (1, 2, 3):
            enum = enumerate_expected_rejections(pair, "batch", batch_size=m)
            assert expected_rejections_batch(pair, m).total == pytest.approx(enum, abs=1e-12)
        gaps = [expected_rejections_batch(pair, m).total - lim for m in (4, 16, 64, 256)]
        assert all(g >= -1e-12 for g in gaps)
        assert gaps[-1] < 1e-9
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-13

    def test_markov_and_history_limits_agree(self):
        for pair in PAIRS[:6]:
            markov = limit_rejections(pair)
            general = limit_rejections(full_pair(pair))
            assert markov == pytest.approx(general, abs=1e-12)


def stepwise_closed_forms(pair: ModelPair, batch_size):
    """(SD terms per position, SD total, improvement) walked one (V, V) position at a time.

    The marginalized recursion as written before position blocks, on fresh
    copies of each step's rows; batch_size None gives the limit's improvement.
    """
    mu = g = pair.q.prompt.probs
    sd_terms, gain_terms = [], []
    for p_step, q_step in zip(pair.p.steps, pair.q.steps):
        p_rows, q_rows = p_step.rows.copy(), q_step.rows.copy()
        tv = _tv_rows(q_rows, p_rows)
        prod, tail, _ = _root_iterates(q_rows, p_rows, tv, batch_size)
        sd_terms.append(mu * tv)
        gain_terms.append(g * (tv - prod))
        g = (mu - g) @ np.maximum(q_rows - p_rows, 0.0) + g @ tail
        mu = mu @ q_rows
    return (
        [math.fsum(terms) for terms in sd_terms],
        math.fsum(np.concatenate(sd_terms)),
        math.fsum(np.concatenate(gain_terms)),
    )


def sparse_pair(vocab: int, horizon: int, seed: int) -> ModelPair:
    """Markov pair whose draft and target rows both have about a third of their entries zero."""
    rng = np.random.default_rng(seed)
    models = [
        MarkovModel(Dist.uniform(vocab),
                    [CondDist(sparse_rows(rng, vocab, vocab)) for _ in range(horizon)])
        for _ in range(2)
    ]
    return ModelPair(*models)


class TestPositionBlocks:
    """The block walk equals the position-by-position recursion exactly (==)."""

    CASES = [
        # (pair, blocks at BLOCK_FLOATS = 2**14)
        (random_model_pair(2, 6, seed=1), 1),
        (random_model_pair(7, 50, seed=10), 1),
        (random_model_pair(50, 50, seed=0), 9),
        (random_model_pair(130, 3, seed=2), 3),
        (sparse_draft_pair(7, 20, seed=3), 1),
        (sparse_draft_pair(50, 13, seed=4), 3),
        (sparse_pair(40, 30, seed=5), 3),
    ]

    @pytest.mark.parametrize("pair, blocks", CASES)
    def test_equals_the_stepwise_recursion(self, pair, blocks):
        size = max(1, exact.BLOCK_FLOATS // pair.vocab_size**2)
        assert -(-pair.horizon // size) == blocks
        terms, sd, _ = stepwise_closed_forms(pair, 1)
        assert expected_rejections_sd(pair) == sd
        assert sd_marginal_terms(pair) == terms
        for m in (1, 2, 8):
            _, _, gain = stepwise_closed_forms(pair, m)
            assert expected_rejections_batch(pair, m) == BatchRejections(sd - gain, gain)
        _, _, gain = stepwise_closed_forms(pair, None)
        assert limit_rejections(pair) == sd - gain

    @pytest.mark.parametrize("block_floats", [1, 2**10, 2**13, 2**20])
    def test_block_size_changes_no_value(self, monkeypatch, block_floats):
        def values():
            # A new pair has no SD record, so its values come from walks at
            # the block size in force.
            pair = sparse_pair(20, 12, seed=6)
            return [expected_rejections_sd(pair), limit_rejections(pair),
                    *(expected_rejections_batch(pair, m) for m in (2, 5))]

        want = values()
        monkeypatch.setattr(exact, "BLOCK_FLOATS", block_floats)
        assert values() == want


def fresh(pair: ModelPair) -> ModelPair:
    """The pair's rows in new models and a new pair: no marginals and no SD record yet."""
    return ModelPair(*(MarkovModel(model.prompt, model.steps) for model in (pair.p, pair.q)))


def closed_forms(pair: ModelPair, order) -> dict:
    """The named closed forms of ``pair``, called in ``order``: sd, terms, limit and batch<M>."""
    calls = {
        "sd": lambda: expected_rejections_sd(pair),
        "terms": lambda: sd_marginal_terms(pair),
        "limit": lambda: limit_rejections(pair),
    }

    def call(name):
        if name.startswith("batch"):
            return expected_rejections_batch(pair, int(name[len("batch"):]))
        return calls[name]()

    return {name: call(name) for name in order}


RECORD_PAIRS = [pair for pair, _ in TestPositionBlocks.CASES] + [sparse_pair(30, 7, seed=8)]


class TestSdRecord:
    """SD's part is walked once per Markov pair and read by every later closed form.

    The record also keeps the products P_2, ..., P_K of every root level a
    batch walk has reached, and every walk starts at level min(M, K).
    """

    NAMES = ["sd", "terms", "batch8", "limit"]
    SCAN_ORDERS = {
        "ascending": ["batch1", "limit", "batch2", "batch3", "sd", "batch5", "batch8", "terms"],
        "descending": ["batch8", "batch5", "sd", "batch3", "limit", "batch2", "batch1", "terms"],
        "interleaved": ["batch3", "batch8", "limit", "batch1", "batch5", "sd", "batch2",
                        "batch8", "batch3", "terms", "batch5"],
    }

    @pytest.mark.parametrize("pair", RECORD_PAIRS)
    def test_call_order_changes_no_value(self, pair):
        want = closed_forms(fresh(pair), self.NAMES)
        assert {name: closed_forms(fresh(pair), [name])[name] for name in self.NAMES} == want
        for first in ("batch8", "limit"):
            order = [first] + [name for name in self.NAMES if name != first]
            assert closed_forms(fresh(pair), order) == want

    @pytest.mark.parametrize("order", sorted(SCAN_ORDERS))
    @pytest.mark.parametrize("pair", RECORD_PAIRS)
    def test_any_order_of_batch_sizes_gives_the_fresh_values(self, pair, order):
        names = set(self.SCAN_ORDERS[order])
        want = {name: closed_forms(fresh(pair), [name])[name] for name in names}
        scanned = fresh(pair)
        for name in self.SCAN_ORDERS[order]:
            assert closed_forms(scanned, [name])[name] == want[name], name

    @staticmethod
    def count_level_tails(monkeypatch) -> list:
        """The root levels S passed to every ``_level_tail`` call from now on, in call order."""
        formed = []
        level_tail = exact._level_tail

        def counted(q, p, level):
            formed.append(level)
            return level_tail(q, p, level)

        monkeypatch.setattr(exact, "_level_tail", counted)
        return formed

    @pytest.mark.parametrize("pair, blocks", TestPositionBlocks.CASES)
    def test_an_ascending_scan_forms_each_level_once(self, monkeypatch, pair, blocks):
        pair = fresh(pair)
        formed = self.count_level_tails(monkeypatch)
        for m in range(2, 9):
            formed.clear()
            expected_rejections_batch(pair, m)
            # One new level per block: S_m = 1 + P_1 + ... + P_{m-1}, whose P_m is appended.
            record = exact._sd_part(pair)
            assert len(formed) == blocks and len(record.prods) == m - 1
            level = 1.0
            for prod in (record.tv, *record.prods[:-1]):
                level = level + prod
            assert np.array_equal(np.concatenate(formed), level)
        # Any walk at M <= K forms only its tail W_{M+1}, one per block.
        for m in (8, 4, 2, 7, 3):
            formed.clear()
            expected_rejections_batch(pair, m)
            assert len(formed) == blocks and exact._sd_part(pair) is record

    @pytest.mark.parametrize("pair, blocks", TestPositionBlocks.CASES)
    def test_a_descending_scan_forms_one_tail_per_block_per_call(self, monkeypatch, pair, blocks):
        want = {m: expected_rejections_batch(fresh(pair), m) for m in (8, 5, 3, 2)}
        pair = fresh(pair)
        formed = self.count_level_tails(monkeypatch)
        assert expected_rejections_batch(pair, 8) == want[8]
        assert len(formed) == 7 * blocks
        for m in (5, 3, 2):
            formed.clear()
            assert expected_rejections_batch(pair, m) == want[m]
            assert len(formed) == blocks and len(exact._sd_part(pair).prods) == 7

    @pytest.mark.parametrize("pair", RECORD_PAIRS)
    def test_a_shallower_walk_leaves_the_record_alone(self, pair):
        pair = fresh(pair)
        expected_rejections_batch(pair, 5)
        record = exact._sd_part(pair)
        tables = (record.tv, *record.prods)
        copies = [table.copy() for table in tables]
        for m in (4, 2, 1):
            expected_rejections_batch(pair, m)
        limit_rejections(pair)
        assert exact._sd_part(pair) is record and len(record.prods) == 4
        for table, copy in zip(tables, copies):
            assert np.array_equal(table, copy)

    @pytest.mark.parametrize("pair", RECORD_PAIRS)
    def test_only_the_first_walk_computes_tv(self, monkeypatch, pair):
        pair = fresh(pair)
        walks, tv_blocks = [], []
        markov_terms, tv_rows = exact._markov_terms, exact._tv_rows

        def counted_walk(*args, **kwargs):
            walks.append(args)
            return markov_terms(*args, **kwargs)

        def counted_tv(*args):
            tv_blocks.append(args)
            return tv_rows(*args)

        monkeypatch.setattr(exact, "_markov_terms", counted_walk)
        monkeypatch.setattr(exact, "_tv_rows", counted_tv)
        expected_rejections_batch(pair, 2)
        assert len(walks) == 1 and tv_blocks
        tv_blocks.clear()
        expected_rejections_sd(pair)
        sd_marginal_terms(pair)
        assert len(walks) == 1
        limit_rejections(pair)
        expected_rejections_batch(pair, 8)
        assert len(walks) == 3 and tv_blocks == []

    @pytest.mark.parametrize(
        "pair", [*RECORD_PAIRS, full_pair(PAIRS[0]), random_full_pair(2, 3, seed=10)])
    def test_a_single_response_walks_no_gain(self, monkeypatch, pair):
        # At M = 1 every root drops tv - P_1 = tv - tv = 0, so batch(1) is
        # SD's total with improvement 0.0, the walked values bit for bit.
        markov = isinstance(pair.p, MarkovModel) and isinstance(pair.q, MarkovModel)
        if markov:
            walked = fresh(pair)
            gain = exact._fsum(exact._markov_terms(walked, 1, gain=True))
            sd = exact._sd_part(walked).total
        else:
            sd, gain = map(exact._fsum, exact._history_terms(pair, 1, gain=True))
        want = BatchRejections(total=sd - gain, improvement=gain)

        def no_walk(*args, **kwargs):
            raise AssertionError("batch(1) walked the root iterates")

        monkeypatch.setattr(exact, "_root_iterates", no_walk)
        pair = fresh(pair) if markov else pair
        got = expected_rejections_batch(pair, 1)
        assert got == want and repr(got) == repr(want)
        if markov:
            assert exact._sd_part(pair).total == sd and pair._sd_record.prods == ()

    @pytest.mark.parametrize("pair", RECORD_PAIRS)
    def test_record_and_marginals_are_read_only(self, pair):
        pair = fresh(pair)
        limit_rejections(pair)
        record = exact._sd_part(pair)
        assert record.prods == ()
        assert record.total == expected_rejections_sd(pair)
        expected_rejections_batch(pair, 3)
        expected_rejections_batch(pair, 8)
        record = exact._sd_part(pair)
        # K - 1 = 7 (T, V) products beside tv at depth K = 8, and no other table.
        tables = [record.tv, *record.prods]
        assert [table.shape for table in tables] == [(pair.horizon, pair.vocab_size)] * 8
        assert [type(field) for field in record] == [np.ndarray, float, tuple]
        marginals = pair.q.marginals
        assert marginals.shape == (pair.horizon + 1, pair.vocab_size)
        for table in (*tables, marginals):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.5

    @pytest.mark.parametrize("pair", RECORD_PAIRS)
    def test_target_marginals_equal_the_stepwise_recursion(self, pair):
        for model in (pair.p, pair.q):
            mu, laws = model.prompt.probs, [model.prompt.probs.tolist()]
            for step in model.steps:
                mu = mu @ step.rows.copy()
                laws.append(mu.tolist())
            assert model.marginals.tolist() == laws
            assert [law.probs.tolist() for law in target_marginals(model)] == [
                Dist(law).probs.tolist() for law in laws[1:]
            ]

    def test_other_pairs_get_no_record(self):
        markov = random_model_pair(3, 3, seed=5)
        full = full_pair(markov)
        for pair in (full, ModelPair(markov.p, full.q), ModelPair(full.p, markov.q)):
            want = closed_forms(pair, ["sd", "batch8", "limit"])
            assert getattr(pair, "_sd_record", None) is None
            assert closed_forms(pair, ["sd", "batch8", "limit"]) == want
