"""Model containers, marginals, joints, and the JSON descriptor formats."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from specdec import (
    CondDist,
    Dist,
    FullModel,
    MarkovModel,
    ModelPair,
    joint_distribution,
    joint_probability,
    markov_to_full,
    model_from_descriptor,
    model_to_descriptor,
    pair_from_descriptor,
    random_markov_model,
    random_model_pair,
    target_marginals,
)
from specdec.models import _history_code, trajectory_index

from helpers import random_full_pair


def brute_force_marginal(model: MarkovModel, n: int) -> np.ndarray:
    """Oracle: P(x_n = x) by summing over every path x_0..x_n explicitly."""
    v = model.vocab_size
    out = np.zeros(v)
    for path in itertools.product(range(v), repeat=n + 1):
        mass = model.prompt[path[0]]
        for k in range(1, n + 1):
            mass *= float(model.step(k, path[:k])[path[k]])
        out[path[-1]] += mass
    return out


class TestCondDist:
    def test_rows_are_renormalized_dists(self):
        c = CondDist([[0.5, 0.5], [0.2, 0.8]])
        np.testing.assert_allclose(c.rows.sum(axis=1), [1.0, 1.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CondDist([[0.5, 0.5]])

    def test_rejects_bad_row(self):
        with pytest.raises(ValueError, match="sums to 1.2"):
            CondDist([[0.9, 0.3], [0.5, 0.5]])
        with pytest.raises(ValueError, match="nonnegative"):
            CondDist([[0.5, 0.5], [1.5, -0.5]])
        with pytest.raises(ValueError, match="finite"):
            CondDist([[0.5, 0.5], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="nonempty"):
            CondDist(np.zeros((0, 0)))

    def test_rows_match_per_row_dists_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for v in (1, 2, 7, 50, 333):
            raw = rng.uniform(size=(v, v))
            raw[rng.random((v, v)) < 0.3] = 0.0
            raw[:, 0] += 1e-3
            table = raw / raw.sum(axis=1, keepdims=True)
            expected = np.stack([Dist(row).probs for row in table])
            assert np.array_equal(CondDist(table).rows, expected)

    def test_rows_immutable(self):
        c = CondDist([[0.5, 0.5], [0.2, 0.8]])
        with pytest.raises(ValueError):
            c.rows[0, 0] = 1.0


class TestMarkovModel:
    def test_step_conditions_on_last_token(self):
        model = random_markov_model(3, 2, seed=0)
        row = model.step(2, (0, 1))
        np.testing.assert_array_equal(row, model.steps[1].row(1))

    def test_vocab_mismatch_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            MarkovModel(Dist.uniform(3), [CondDist(np.eye(2))])

    def test_requires_a_step(self):
        with pytest.raises(ValueError, match="horizon"):
            MarkovModel(Dist.uniform(2), [])


def per_step_pair(vocab: int, horizon: int, seed: int) -> list[list[CondDist]]:
    """The steps of ``random_model_pair`` as it drew them: one (V, V) draw and CondDist per step."""
    models = []
    for child in np.random.SeedSequence(seed).spawn(2):
        rng = np.random.default_rng(child)
        steps = []
        for _ in range(horizon):
            raw = rng.uniform(size=(vocab, vocab))
            steps.append(CondDist(raw / raw.sum(axis=1, keepdims=True)))
        models.append(steps)
    return models


def bits(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


class TestStepRows:
    @pytest.mark.parametrize(
        "vocab, horizon, seed", [(2, 3, 0), (7, 50, 10), (50, 50, 0), (1, 4, 3), (13, 9, 8)]
    )
    def test_random_stack_matches_the_per_step_draws(self, vocab, horizon, seed):
        pair = random_model_pair(vocab, horizon, seed=seed)
        for model, steps in zip((pair.p, pair.q), per_step_pair(vocab, horizon, seed)):
            assert model.step_rows.shape == (horizon, vocab, vocab)
            assert bits(model.step_rows) == bits(np.stack([step.rows for step in steps]))
            cums = np.stack([np.cumsum(step.rows, axis=1) for step in steps])
            assert bits(model.step_cumsums) == bits(cums)

    @pytest.mark.parametrize(
        "vocab, horizon, error, message",
        [
            (0, 0, ValueError, "vocab_size must be >= 1"),
            (-1, 3, ValueError, "vocab_size must be >= 1"),
            (3, 0, ValueError, "horizon must be >= 1"),
            (3, -2, ValueError, "horizon must be >= 1"),
            (True, 3, TypeError, "not an integer"),
            (3, 2.5, TypeError, "not an integer"),
        ],
    )
    def test_random_model_refuses_bad_sizes_before_drawing(self, vocab, horizon, error, message):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(error, match=message):
            random_markov_model(vocab, horizon, rng=rng)
        assert rng.bit_generator.state == state

    def test_descriptor_stack_matches_per_step_tables(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(size=(6, 9, 9))
        raw[rng.random(raw.shape) < 0.3] = 0.0
        raw[..., 0] += 1e-3
        tables = raw / raw.sum(axis=2, keepdims=True) * (1.0 + 5e-10)  # off by tolerance
        desc = {"vocab_size": 9, "horizon": 6, "prompt": [1 / 9] * 9, "steps": tables.tolist()}
        model = model_from_descriptor(desc)
        expected = np.stack([CondDist(table).rows for table in tables.tolist()])
        assert bits(model.step_rows) == bits(expected)

    @pytest.mark.parametrize(
        "bad_rows, message",
        [
            # a bad row sum at step 2 and a NaN at step 3: step 2's message
            ({1: [0.9, 0.3, 0.0], 2: [np.nan, 0.5, 0.5]}, "sums to 1.2"),
            ({1: [np.nan, 0.5, 0.5], 2: [0.9, 0.3, 0.0]}, "finite"),
            ({1: [1.5, -0.5, 0.0], 3: [0.9, 0.3, 0.0]}, "nonnegative"),
            # inf - inf in a later step is never summed by the per-step tables
            ({1: [0.5, 0.6, 0.0], 2: [np.inf, -np.inf, 1.0]}, "sums to 1.1"),
        ],
    )
    def test_first_bad_step_raises_its_own_error(self, bad_rows, message):
        tables = np.tile(np.full(3, 1 / 3), (4, 3, 1))
        for step, row in bad_rows.items():
            tables[step, 1] = row
        first = min(bad_rows)
        with pytest.raises(ValueError, match=message) as per_step:
            CondDist(tables[first])
        desc = {"vocab_size": 3, "horizon": 4, "prompt": [1 / 3] * 3, "steps": tables.tolist()}
        with pytest.raises(ValueError) as stacked:
            model_from_descriptor(desc)
        assert str(stacked.value) == str(per_step.value)

    def test_irregular_descriptor_tables_keep_their_errors(self):
        base = {"vocab_size": 2, "horizon": 1, "prompt": [0.5, 0.5]}
        for steps, message in (([[[0.5, 0.5]]], "square"), ([[[]]], "square"),
                               ([[]], "square"), ([], "number of steps")):
            with pytest.raises(ValueError, match=message):
                model_from_descriptor(dict(base, steps=steps))

    def test_steps_are_views_into_one_stack(self):
        steps = [CondDist([[0.5, 0.5], [0.2, 0.8]]), CondDist([[0.1, 0.9], [0.7, 0.3]])]
        models = [
            random_markov_model(4, 5, seed=3),
            model_from_descriptor(model_to_descriptor(random_markov_model(3, 2, seed=1))),
            MarkovModel(Dist([0.5, 0.5]), steps),
        ]
        for model in models:
            assert not model.step_rows.flags.writeable
            for k, step in enumerate(model.steps):
                assert np.shares_memory(step.rows, model.step_rows)
                assert np.array_equal(step.rows, model.step_rows[k])
                assert np.array_equal(model.step(k + 1, (0, 1)), step.row(1))
        with pytest.raises(ValueError):
            models[0].steps[0].rows[0, 0] = 1.0
        # a model built from CondDist tables holds a copy, not the caller's arrays
        assert not np.shares_memory(models[2].step_rows, steps[0].rows)

    def test_a_chain_over_another_chains_steps_holds_its_stack(self):
        model = random_markov_model(3, 4, seed=2)
        for steps in (model.steps, list(model.steps)):
            chain = MarkovModel(Dist.uniform(3), steps)
            assert np.shares_memory(chain.step_rows, model.step_rows)
            assert not chain.step_rows.flags.writeable
        other = random_markov_model(3, 4, seed=3)
        # other orders, subsets and mixtures of steps are stacked anew
        for steps in (model.steps[::-1], model.steps[:2], model.steps[1:],
                      (*model.steps[:3], other.steps[3])):
            chain = MarkovModel(model.prompt, steps)
            assert not np.shares_memory(chain.step_rows, model.step_rows)
            assert np.array_equal(chain.step_rows, np.stack([step.rows for step in steps]))
        with pytest.raises(ValueError, match="vocabulary size"):
            MarkovModel(Dist.uniform(2), model.steps)

    def test_pair_build_holds_each_row_once(self):
        # Each model's rows take 1 MB at (50, 50). Drawn and checked step by
        # step, then stacked again for cumsums built up front, the pair peaked
        # at 4.8 MiB; one draw per model, checked in place, peaks at 2.1 MiB.
        random_model_pair(50, 50, seed=0)  # warm caches outside the trace
        tracemalloc.start()
        try:
            pair = random_model_pair(50, 50, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair.horizon == 50
        assert peak < 3 * 2**20


class TestTargetMarginals:
    def test_length_is_horizon(self):
        model = random_markov_model(3, 5, seed=1)
        assert len(target_marginals(model)) == 5

    def test_doubly_stochastic_keeps_uniform(self):
        rows = np.array([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
        model = MarkovModel(Dist.uniform(3), [CondDist(rows)] * 4)
        for mu in target_marginals(model):
            np.testing.assert_allclose(mu.probs, [1 / 3] * 3, atol=1e-14)

    def test_matches_brute_force_enumeration(self):
        model = random_markov_model(3, 3, seed=12)
        marginals = target_marginals(model)
        for n in (1, 2, 3):
            np.testing.assert_allclose(
                marginals[n - 1].probs, brute_force_marginal(model, n), atol=1e-13
            )

    def test_rejects_full_model(self):
        with pytest.raises(TypeError):
            target_marginals(markov_to_full(random_markov_model(2, 2, seed=0)))


class TestJointLaw:
    def test_joint_distribution_sums_to_one(self):
        model = random_markov_model(3, 4, seed=2)
        assert joint_distribution(model).sum() == pytest.approx(1.0, abs=1e-12)

    def test_joint_probability_matches_flat_law(self):
        model = random_markov_model(2, 3, seed=3)
        law = joint_distribution(model)
        for tokens in itertools.product(range(2), repeat=3):
            idx = trajectory_index(tokens, 2)
            assert joint_probability(model, tokens) == pytest.approx(law[idx], abs=1e-15)

    def test_trajectory_length_checked(self):
        model = random_markov_model(2, 3, seed=3)
        with pytest.raises(ValueError, match="length"):
            joint_probability(model, (0, 1))

    def test_enumeration_cap(self):
        model = random_markov_model(4, 11, seed=4)  # 4**11 > 1e6
        with pytest.raises(ValueError, match="cap"):
            joint_distribution(model)


class TestFullModel:
    def test_markov_expansion_preserves_law(self):
        model = random_markov_model(3, 3, seed=5)
        full = markov_to_full(model)
        np.testing.assert_allclose(
            joint_distribution(full), joint_distribution(model), atol=1e-14
        )

    def test_expansion_preserves_conditionals(self):
        model = random_markov_model(2, 3, seed=6)
        full = markov_to_full(model)
        for history in [(0,), (1, 0), (0, 1, 1)]:
            np.testing.assert_array_equal(
                full.step(len(history), history), model.step(len(history), history)
            )

    def test_step_refuses_a_history_of_another_position(self):
        # step(2, (1,)) once returned position 1's row for history (1,).
        full = markov_to_full(random_markov_model(2, 3, seed=6))
        with pytest.raises(KeyError, match="position 2"):
            full.step(2, (1,))
        with pytest.raises(KeyError, match="position 1"):
            full.step_cumsum(1, (0, 1))

    def test_missing_history_rejected(self):
        with pytest.raises(ValueError, match="every history"):
            FullModel(Dist.uniform(2), 2, {(0,): [0.5, 0.5]})

    def test_size_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            FullModel.from_function(Dist.uniform(10), 7, lambda n, h: np.full(10, 0.1))

    def test_levels_hold_each_history_at_its_code(self):
        # Level n is one read-only (V**n, V) stack, and step(n, h) is its row
        # _history_code(n, h, V), x_0 the most significant digit; the cumsum
        # stacks are laid out the same way.
        chain = random_markov_model(3, 3, seed=7)
        for full in (markov_to_full(chain), random_full_pair(3, 3, seed=7).q):
            assert len(full._levels) == full.horizon == 3
            for n, level in enumerate(full._levels, start=1):
                assert level.shape == (3**n, 3) and not level.flags.writeable
                for history in itertools.product(range(3), repeat=n):
                    row = level[_history_code(n, history, 3)]
                    assert full.step(n, history).tobytes() == row.tobytes()
                    cums = full.step_cumsum(n, history)
                    assert cums.tobytes() == np.cumsum(row).tobytes()
                    assert not cums.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                full._levels[0][0, 0] = 0.5

    def test_markov_expansion_tiles_the_chain_rows(self):
        chain = random_markov_model(3, 4, seed=7)
        full = markov_to_full(chain)
        for n, level in enumerate(full._levels, start=1):
            assert level.tobytes() == np.tile(chain.step_rows[n - 1], (3 ** (n - 1), 1)).tobytes()

    def test_step_takes_integer_tokens_inside_the_vocabulary(self):
        # A negative token must not index a row from the level's end, and a
        # token >= V must not alias another history's code.
        full = markov_to_full(random_markov_model(3, 2, seed=6))
        row = full.step(2, (1, 2))
        assert full.step(2, (np.int64(1), np.int64(2))).tobytes() == row.tobytes()
        assert full.step_cumsum(2, (np.int64(1), np.int64(2))).tobytes() == np.cumsum(row).tobytes()
        for n, history in [(2, (1, -1)), (2, (1, 3)), (2, (-1, 2)), (2, (0, 5)), (2, (1, 0.5)),
                           (0, ()), (3, (0, 0, 0))]:
            for read in (full.step, full.step_cumsum):
                with pytest.raises(KeyError, match="no table entry for history"):
                    read(n, history)

    def test_non_markov_pair_buildable(self):
        pair = random_full_pair(2, 3, seed=8)
        assert joint_distribution(pair.q).sum() == pytest.approx(1.0, abs=1e-12)


class TestModelPair:
    def test_requires_shared_shapes(self):
        with pytest.raises(ValueError, match="vocabulary"):
            ModelPair(random_markov_model(2, 2, seed=0), random_markov_model(3, 2, seed=0))
        with pytest.raises(ValueError, match="horizon"):
            ModelPair(random_markov_model(2, 2, seed=0), random_markov_model(2, 3, seed=0))

    def test_requires_shared_prompt(self):
        steps = [CondDist([[0.5, 0.5], [0.4, 0.6]])]
        a = MarkovModel(Dist([0.5, 0.5]), steps)
        b = MarkovModel(Dist([0.9, 0.1]), steps)
        with pytest.raises(ValueError, match="prompt"):
            ModelPair(a, b)

    def test_random_pair_is_deterministic(self):
        one = random_model_pair(3, 4, seed=99)
        two = random_model_pair(3, 4, seed=99)
        for n in range(1, 5):
            np.testing.assert_array_equal(one.p.steps[n - 1].rows, two.p.steps[n - 1].rows)
            np.testing.assert_array_equal(one.q.steps[n - 1].rows, two.q.steps[n - 1].rows)
        assert not np.array_equal(one.p.steps[0].rows, one.q.steps[0].rows)


class TestDescriptors:
    def test_explicit_roundtrip(self):
        model = random_markov_model(3, 2, seed=13)
        rebuilt = model_from_descriptor(model_to_descriptor(model))
        np.testing.assert_array_equal(rebuilt.prompt.probs, model.prompt.probs)
        for n in range(2):
            # rebuild renormalizes each row, so allow one ulp of drift
            np.testing.assert_allclose(
                rebuilt.steps[n].rows, model.steps[n].rows, rtol=0.0, atol=1e-15
            )

    def test_generator_form_matches_library_call(self):
        desc = {"generator": "random", "seed": 10, "vocab_size": 7, "horizon": 3}
        built = model_from_descriptor(desc)
        direct = random_markov_model(7, 3, seed=10)
        np.testing.assert_array_equal(built.steps[2].rows, direct.steps[2].rows)
        np.testing.assert_allclose(built.prompt.probs, np.full(7, 1 / 7))

    def test_generator_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            model_from_descriptor({"generator": "random", "vocab_size": 2, "horizon": 2})

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            model_from_descriptor(
                {"generator": "markov", "seed": 1, "vocab_size": 2, "horizon": 2}
            )

    def test_integer_fields_are_strict(self):
        base = {"generator": "random", "seed": 10, "vocab_size": 2, "horizon": 3}
        for key in ("seed", "vocab_size", "horizon"):
            for value in (2.5, True, "3", None):
                with pytest.raises(ValueError, match=f"{key}' must be an integer"):
                    model_from_descriptor(dict(base, **{key: value}))
        integral = model_from_descriptor(dict(base, vocab_size=2.0, seed=10.0))
        np.testing.assert_array_equal(
            integral.steps[0].rows, model_from_descriptor(base).steps[0].rows
        )

    def test_shape_mismatches_rejected(self):
        desc = model_to_descriptor(random_markov_model(2, 2, seed=1))
        bad = dict(desc, vocab_size=3)
        with pytest.raises(ValueError, match="prompt length"):
            model_from_descriptor(bad)
        bad = dict(desc, horizon=5)
        with pytest.raises(ValueError, match="steps"):
            model_from_descriptor(bad)

    @pytest.mark.parametrize(
        "key, value",
        [("prompt", {}), ("prompt", ["0.5", "0.5"]), ("prompt", [True, False]),
         ("prompt", [10**400, 0]), ("steps", None), ("steps", [[[0.5, "0.5"], [0.5, 0.5]]] * 2),
         ("steps", [[0.5, 0.5], [0.5, 0.5]]), ("steps", [[[0.5, 0.5], [1.0]]] * 2)],
    )
    def test_table_values_are_strict(self, key, value):
        desc = model_to_descriptor(random_markov_model(2, 2, seed=1))
        with pytest.raises(ValueError, match=f"'{key}'"):
            model_from_descriptor(dict(desc, **{key: value}))

    def test_pair_descriptor_explicit_and_generator(self):
        explicit = pair_from_descriptor(
            {
                "p": model_to_descriptor(random_markov_model(2, 2, seed=1)),
                "q": model_to_descriptor(random_markov_model(2, 2, seed=2)),
            }
        )
        assert explicit.vocab_size == 2
        generated = pair_from_descriptor(
            {"generator": "random", "seed": 5, "vocab_size": 3, "horizon": 4}
        )
        direct = random_model_pair(3, 4, seed=5)
        np.testing.assert_array_equal(
            generated.p.steps[0].rows, direct.p.steps[0].rows
        )

    def test_pair_descriptor_requires_both_models(self):
        with pytest.raises(ValueError, match='"p" and "q"'):
            pair_from_descriptor({"p": {"generator": "random", "seed": 1}})

    def test_descriptor_values_survive_json(self):
        import json

        desc = model_to_descriptor(random_markov_model(2, 2, seed=21))
        rebuilt = model_from_descriptor(json.loads(json.dumps(desc)))
        np.testing.assert_array_equal(
            rebuilt.steps[0].rows, model_from_descriptor(desc).steps[0].rows
        )


class TestUnreachedBranches:
    """Guards that no other test reaches, one case each."""

    def test_markov_steps_must_be_conddists(self):
        with pytest.raises(TypeError, match="CondDist"):
            MarkovModel(Dist.uniform(2), [np.eye(2)])

    def test_descriptor_steps_of_another_vocabulary(self):
        # The prompt matches vocab_size, the 3 x 3 steps do not.
        desc = {"vocab_size": 2, "horizon": 1, "prompt": [0.5, 0.5], "steps": [np.eye(3).tolist()]}
        with pytest.raises(ValueError, match="share the prompt's vocabulary size"):
            model_from_descriptor(desc)

    @pytest.mark.parametrize(
        "horizon, table, message",
        [
            (0, {}, "horizon must be at least 1"),
            (20, {}, "exceeds the table cap"),
            (1, {(0,): [0.5, 0.5], (0, 1): [0.5, 0.5]}, "length outside 1..1"),
            (1, {(): [0.5, 0.5]}, "length outside 1..1"),
            (1, {(0,): [0.5, 0.5], (1,): [1.0]}, "match the vocabulary size"),
        ],
        ids=["horizon-0", "over-cap", "long-key", "empty-key", "short-row"],
    )
    def test_full_model_guards(self, horizon, table, message):
        with pytest.raises(ValueError, match=message):
            FullModel(Dist.uniform(2), horizon, table)

    def test_full_model_horizon_is_an_integer(self):
        # A bool horizon was kept as True, and 1.0 failed inside range().
        table = {(0,): [0.5, 0.5], (1,): [0.5, 0.5]}
        prompt = Dist.uniform(2)
        for horizon in (True, 1.5, "1"):
            with pytest.raises(TypeError, match="horizon"):
                FullModel(prompt, horizon, table)
            with pytest.raises(TypeError, match="horizon"):
                FullModel.from_function(prompt, horizon, lambda n, h: [0.5, 0.5])
        for model in (FullModel(prompt, 1.0, table),
                      FullModel.from_function(prompt, 1.0, lambda n, h: [0.5, 0.5])):
            assert type(model.horizon) is int and model.horizon == 1
            np.testing.assert_array_equal(joint_distribution(model), [0.5, 0.5])

    def test_full_model_step_without_a_table_entry(self):
        # The history has length n, but its token lies outside the vocabulary.
        model = FullModel(Dist.uniform(2), 1, {(0,): [0.5, 0.5], (1,): [0.5, 0.5]})
        with pytest.raises(KeyError, match="no table entry for history"):
            model.step(1, (2,))

    def test_joint_probability_skips_zero_mass(self):
        # A zero-mass prompt token is never stepped, and a trajectory stops
        # being stepped once its mass reaches zero.
        chain = MarkovModel(Dist([1.0, 0.0]), [CondDist([[0.0, 1.0], [0.5, 0.5]])] * 3)
        calls = []

        class Counted:
            vocab_size, horizon, prompt = chain.vocab_size, chain.horizon, chain.prompt

            def step(self, n, history):
                calls.append(history)
                return chain.step(n, history)

        assert joint_probability(Counted(), (0, 1, 1)) == 0.0
        assert calls == [(0,)]
        calls.clear()
        assert joint_probability(Counted(), (1, 0, 1)) == 0.5
        assert calls == [(0,), (0, 1), (0, 1, 0)]
        law = joint_distribution(chain)
        assert law[trajectory_index((0, 1, 1), 2)] == 0.0
        assert law[trajectory_index((1, 0, 1), 2)] == 0.5


class TestOneTokenRule:
    """Tokens are integers in 0..V-1 wherever a model or a trajectory takes them."""

    @pytest.mark.parametrize(
        "key, error, message",
        [
            ((5,), ValueError, "token 5 is outside 0..1"),
            ((-1,), ValueError, "token -1 is outside 0..1"),
            ((1.7,), TypeError, "not an integer"),
            ((True,), TypeError, "not an integer"),
            (("1",), TypeError, "not an integer"),
        ],
    )
    def test_full_model_keys(self, key, error, message):
        # A key outside the vocabulary fails here, not as a KeyError at step
        # time, and a fractional key is refused rather than truncated.
        with pytest.raises(error, match=message):
            FullModel(Dist.uniform(2), 1, {(0,): [0.5, 0.5], key: [0.5, 0.5]})

    def test_integral_keys_are_their_ints(self):
        table = {(np.int64(0),): [0.5, 0.5], (1.0,): [0.2, 0.8]}
        full = FullModel(Dist.uniform(2), 1, table)
        np.testing.assert_array_equal(full.step(1, (1,)), [0.2, 0.8])

    @pytest.mark.parametrize(
        "tokens, error",
        [((0, 1, -1), ValueError), ((0, 2, 1), ValueError), ((0, True, 1), TypeError),
         ((0, 0.5, 1), TypeError)],
    )
    def test_joint_probability_tokens(self, tokens, error):
        # A negative token must not index a row from its end.
        model = random_markov_model(2, 3, seed=3)
        with pytest.raises(error):
            joint_probability(model, tokens)

    @pytest.mark.parametrize(
        "tokens, error",
        [((0, 5, 1), ValueError), ((0, -1, 1), ValueError), ((0, "1", 1), TypeError)],
    )
    def test_trajectory_index_tokens(self, tokens, error):
        # An out-of-range token would alias another trajectory: (0, 5, 1) and
        # (1, 2, 1) both map to 16 over V = 3.
        with pytest.raises(error):
            trajectory_index(tokens, 3)


def rule_model(kind: str):
    """A V = 3, T = 3 model of each kind that the one history-to-row rule serves."""
    chain = random_markov_model(3, 3, seed=6)
    if kind == "markov":
        return chain
    if kind == "full":
        return random_full_pair(3, 3, seed=6).q
    return markov_to_full(chain)


class TestOneHistoryRule:
    """step and step_cumsum map (n, history) to a row by one rule, on every model.

    A position outside 1..T, a last token that is not an integer in 0..V-1,
    and an empty history raise KeyError, where a chain once wrapped n = 0 and
    token -1 to the last level or row and read token True as a mask.
    """

    KINDS = ("markov", "full", "markov_to_full")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("read", ["step", "step_cumsum"])
    @pytest.mark.parametrize(
        "n, history",
        [(0, (1,)), (4, (0, 1, 2, 1)), (2, (0, -1)), (2, (0, 3)), (2, (0, True)),
         (2, (0, 1.0)), (2, ())],
    )
    def test_refuses_what_the_rule_does_not_take(self, kind, read, n, history):
        with pytest.raises(KeyError):
            getattr(rule_model(kind), read)(n, history)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("read", ["step", "step_cumsum"])
    def test_numpy_integer_tokens_pass(self, kind, read):
        read = getattr(rule_model(kind), read)
        want = read(3, (0, 2, 1)).tobytes()
        assert read(3, (np.int64(0), np.int64(2), np.int64(1))).tobytes() == want

    def test_a_chain_reads_its_state_at_any_position(self):
        # cli's pareto job reads a chain's row at (state,) whatever the step.
        chain = rule_model("markov")
        for n, s in itertools.product(range(1, 4), range(3)):
            assert chain.step(n, (s,)).tobytes() == chain.step_rows[n - 1, s].tobytes()
            assert chain.step_cumsum(n, (s,)).tobytes() == chain.step_cumsums[n - 1, s].tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_prompt_cumsum_is_built_once_read_only(self, kind):
        model = rule_model(kind)
        cums = model.prompt_cumsum
        assert model.prompt_cumsum is cums
        assert cums.tobytes() == np.cumsum(model.prompt.probs).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            cums[0] = 0.0


class TestRefusesNonModels:
    def test_model_pair(self):
        chain = random_markov_model(2, 2, seed=0)
        for p, q in [(chain, "x"), ("x", chain), (chain, None)]:
            with pytest.raises(TypeError, match="expected a MarkovModel or FullModel"):
                ModelPair(p, q)

    def test_markov_to_full_of_a_full_model(self):
        with pytest.raises(TypeError, match="requires a MarkovModel"):
            markov_to_full(rule_model("full"))

    def test_markov_to_full_of_a_string(self):
        with pytest.raises(TypeError, match="requires a MarkovModel"):
            markov_to_full("x")
