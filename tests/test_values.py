"""The value rule: every public numeric parameter refuses what is not a value of its kind.

Kinds: an integer (``dist._int_arg``: integral floats pass), a stream index
(``rng``: numpy's index rule, no float at all), a real (``dist._real_arg``)
and an entry of an array of reals that must also be finite
(``dist._float_array`` and then the row or acceptance rule). Each parameter
is swept with bools, numeric strings, nan and infinities, non-integral floats
and values below its floor, as far as its kind refuses them, and must raise
TypeError or ValueError, never return a result. The single-token functions'
distribution arguments are also given NaN, negative, unnormalised and
wrong-length vectors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import (
    Campaign,
    CondDist,
    Dist,
    FullModel,
    Policy,
    acceleration_rate,
    batch_decode,
    batch_improvement_bernoulli,
    batch_improvement_uniform,
    batch_scan,
    decode_markov_runs,
    enumerate_law_and_rejections,
    epsilon_acceptance,
    expected_rejections_batch,
    induced_output_distribution,
    joint_probability,
    loss_tv_star,
    optimal_residual,
    over_acceptance_policy,
    pareto_front,
    random_markov_model,
    random_model_pair,
    rejection_iterate,
    rejection_probability,
    residual_plus,
    split_rng,
    split_rngs,
    split_uniforms,
    tv_distance,
    unbiasedness_check,
)

INT, INDEX, REAL, ENTRY = "integer", "index", "real", "entry"

PAIR = random_model_pair(2, 2, seed=0)
P, Q = [0.7, 0.3], [0.4, 0.6]
TABLE = {(0,): [0.5, 0.5], (1,): [0.5, 0.5]}
UNIFORM = [[0.5, 0.5], [0.5, 0.5]]


# name: (kind, floor or None, a valid value, the call that takes the value)
PARAMETERS = {
    "Dist.uniform size": (INT, 1, 2, lambda v: Dist.uniform(v)),
    "Dist.point size": (INT, 1, 2, lambda v: Dist.point(v, 0)),
    "Dist.point token": (INT, 0, 1, lambda v: Dist.point(2, v)),
    "Dist entries": (ENTRY, 0, 0.5, lambda v: Dist([v, 0.5])),
    "Dist.from_weights entries": (ENTRY, 0, 0.5, lambda v: Dist.from_weights([v, 0.5])),
    "CondDist entries": (ENTRY, 0, 0.5, lambda v: CondDist([[0.5, 0.5], [v, 0.5]])),
    "Policy.from_tables acceptance": (  # clamped to [0, 1], so no floor
        ENTRY, None, 0.5, lambda v: Policy.from_tables([[[v, 1.0], [1.0, 1.0]]], [UNIFORM])),
    "Policy.from_tables residual": (
        ENTRY, 0, 0.5, lambda v: Policy.from_tables([UNIFORM], [[[v, 0.5], [0.5, 0.5]]])),
    "tv_distance entries": (ENTRY, 0, 0.5, lambda v: tv_distance([v, 0.5], [0.5, 0.5])),
    "residual_plus q entries": (ENTRY, 0, 0.5, lambda v: residual_plus([v, 0.5], [0.2, 0.8])),
    "rejection_iterate p entries": (
        ENTRY, 0, 0.5, lambda v: rejection_iterate([0.8, 0.2], [v, 0.5])),
    "rejection_probability acceptance": (  # within 1e-12 of [0, 1]
        ENTRY, -1e-12, 0.5, lambda v: rejection_probability([v, 0.5], [0.5, 0.5])),
    "rejection_probability p entries": (
        ENTRY, 0, 0.5, lambda v: rejection_probability([0.5, 0.5], [v, 0.5])),
    "loss_tv_star p entries": (ENTRY, 0, 0.5, lambda v: loss_tv_star([1.0, 1.0], [v, 0.5], Q)),
    "optimal_residual q entries": (
        ENTRY, 0, 0.5, lambda v: optimal_residual([0.5, 0.5], P, [v, 0.5])),
    "epsilon_acceptance p entries": (ENTRY, 0, 0.5, lambda v: epsilon_acceptance([v, 0.5], Q, 0.1)),
    "epsilon_acceptance q entries": (ENTRY, 0, 0.5, lambda v: epsilon_acceptance(P, [v, 0.5], 0.1)),
    "pareto_front p entries": (ENTRY, 0, 0.5, lambda v: pareto_front([v, 0.5], Q, [0.0, 0.1])),
    "pareto_front q entries": (ENTRY, 0, 0.5, lambda v: pareto_front(P, [v, 0.5], [0.0, 0.1])),
    "random_markov_model vocab_size": (INT, 1, 2, lambda v: random_markov_model(v, 2, seed=0)),
    "random_markov_model horizon": (INT, 1, 2, lambda v: random_markov_model(2, v, seed=0)),
    "random_markov_model seed": (INT, 0, 3, lambda v: random_markov_model(2, 2, seed=v)),
    "random_model_pair vocab_size": (INT, 1, 2, lambda v: random_model_pair(v, 2, seed=0)),
    "random_model_pair horizon": (INT, 1, 2, lambda v: random_model_pair(2, v, seed=0)),
    "random_model_pair seed": (INT, 0, 3, lambda v: random_model_pair(2, 2, seed=v)),
    "FullModel horizon": (INT, 1, 1, lambda v: FullModel(Dist.uniform(2), v, TABLE)),
    "FullModel.from_function horizon": (
        INT, 1, 1, lambda v: FullModel.from_function(Dist.uniform(2), v, lambda n, h: P)),
    "joint_probability token": (INT, 0, 1, lambda v: joint_probability(PAIR.q, (v, 0))),
    "acceleration_rate expected_rejections": (REAL, 0.0, 0.5, lambda v: acceleration_rate(v, 5)),
    "acceleration_rate horizon": (INT, 1, 5, lambda v: acceleration_rate(0.5, v)),
    "expected_rejections_batch batch_size": (
        INT, 1, 2, lambda v: expected_rejections_batch(PAIR, v)),
    "batch_improvement_uniform ratio": (REAL, 1.0, 2.0, lambda v: batch_improvement_uniform(v, 2)),
    "batch_improvement_uniform batch_size": (
        INT, 1, 2, lambda v: batch_improvement_uniform(2.0, v)),
    "batch_improvement_bernoulli u": (
        REAL, 0.5, 0.9, lambda v: batch_improvement_bernoulli(v, 0.5, 2)),
    "batch_improvement_bernoulli v": (
        REAL, 0.0, 0.5, lambda v: batch_improvement_bernoulli(0.9, v, 2)),
    "batch_improvement_bernoulli batch_size": (
        INT, 1, 2, lambda v: batch_improvement_bernoulli(0.9, 0.5, v)),
    "split_rng master_seed": (INDEX, 0, 3, lambda v: split_rng(v, 0)),
    "split_rng index": (INDEX, 0, 3, lambda v: split_rng(0, v)),
    "split_rngs master_seed": (INDEX, 0, 3, lambda v: split_rngs(v, 0, 2)),
    "split_rngs start": (INDEX, 0, 3, lambda v: split_rngs(0, v, 2)),
    "split_rngs count": (INDEX, 0, 3, lambda v: split_rngs(0, 0, v)),
    "split_uniforms master_seed": (INDEX, 0, 3, lambda v: split_uniforms(v, 0, 2, 2)),
    "split_uniforms start": (INDEX, 0, 3, lambda v: split_uniforms(0, v, 2, 2)),
    "split_uniforms count": (INDEX, 0, 3, lambda v: split_uniforms(0, 0, v, 2)),
    "split_uniforms width": (INDEX, 0, 3, lambda v: split_uniforms(0, 0, 2, v)),
    "batch_decode batch_size": (
        INT, 1, 2, lambda v: batch_decode(PAIR, v, np.random.default_rng(0))),
    "decode_markov_runs batch_size": (INT, 1, 2, lambda v: decode_markov_runs(PAIR, v, 0, 0, 2)),
    "decode_markov_runs seed": (INT, 0, 3, lambda v: decode_markov_runs(PAIR, 1, v, 0, 2)),
    "decode_markov_runs start": (INT, 0, 3, lambda v: decode_markov_runs(PAIR, 1, 0, v, 2)),
    "decode_markov_runs count": (INT, 0, 3, lambda v: decode_markov_runs(PAIR, 1, 0, 0, v)),
    "enumerate_law_and_rejections batch_size": (
        INT, 1, 2, lambda v: enumerate_law_and_rejections(PAIR, "batch", batch_size=v)),
    "Campaign runs": (INT, 1, 3, lambda v: Campaign(PAIR, "sd", runs=v, seed=0)),
    "Campaign seed": (INT, 0, 3, lambda v: Campaign(PAIR, "sd", runs=3, seed=v)),
    "Campaign batch_size": (
        INT, 1, 2, lambda v: Campaign(PAIR, "batch", runs=3, seed=0, batch_size=v)),
    "Campaign checkpoint_every": (
        INT, 1, 2, lambda v: Campaign(PAIR, "sd", runs=3, seed=0, checkpoint_every=v)),
    "unbiasedness_check l1_threshold": (
        REAL, 0.0, 0.5, lambda v: unbiasedness_check(PAIR, "sd", runs=3, l1_threshold=v)),
    "batch_scan batch size": (INT, 1, 2, lambda v: batch_scan(PAIR, [1, v], runs=3, seed=0)),
    "epsilon_acceptance eps": (REAL, 0.0, 0.1, lambda v: epsilon_acceptance(P, Q, v)),
    "over_acceptance_policy eps": (REAL, 0.0, 0.1, lambda v: over_acceptance_policy(PAIR, v)),
    "pareto_front eps": (REAL, 0.0, 0.1, lambda v: pareto_front(P, Q, [0.0, v])),
}

numeric_strings = st.one_of(
    st.integers(-5, 5).map(str), st.sampled_from(["0.5", "1.0", "nan", "inf", "1e3"]))
not_finite = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, np.float64("nan")])
fractional = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer())


def below(floor):
    """Integers and floats below ``floor``."""
    return st.one_of(
        st.integers(max_value=math.ceil(floor) - 1),
        st.floats(max_value=floor, allow_nan=False).filter(lambda x: x < floor),
    )


def bad_values(kind: str, floor):
    drawn = [st.booleans(), st.just(np.True_), numeric_strings]
    too_large = st.sampled_from([10**400, -(10**400)])
    drawn += [not_finite, fractional if kind in (INT, INDEX) else too_large]
    if floor is not None:
        drawn.append(below(floor))
    return st.one_of(drawn)


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_each_call_takes_its_valid_value(name):
    _, _, good, call = PARAMETERS[name]
    call(good)


@pytest.mark.parametrize("name", sorted(PARAMETERS))
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
def test_every_numeric_parameter_refuses_what_is_not_its_kind(name, data):
    kind, floor, _, call = PARAMETERS[name]
    value = data.draw(bad_values(kind, floor), label="value")
    with pytest.raises((TypeError, ValueError)):
        call(value)


# Each single-token function with one distribution argument left open.
DISTRIBUTION_ARGUMENTS = {
    "tv_distance a": lambda v: tv_distance(v, Q),
    "tv_distance b": lambda v: tv_distance(P, v),
    "residual_plus q": lambda v: residual_plus(v, Q),
    "residual_plus p": lambda v: residual_plus(P, v),
    "rejection_iterate q_m": lambda v: rejection_iterate(v, Q),
    "rejection_iterate p": lambda v: rejection_iterate(P, v),
    "loss_tv_star p": lambda v: loss_tv_star([0.5, 0.5], v, Q),
    "loss_tv_star q": lambda v: loss_tv_star([0.5, 0.5], P, v),
    "optimal_residual p": lambda v: optimal_residual([0.5, 0.5], v, Q),
    "optimal_residual q": lambda v: optimal_residual([0.5, 0.5], P, v),
    "rejection_probability p": lambda v: rejection_probability([0.5, 0.5], v),
    "epsilon_acceptance p": lambda v: epsilon_acceptance(v, Q, 0.1),
    "epsilon_acceptance q": lambda v: epsilon_acceptance(P, v, 0.1),
    "pareto_front p": lambda v: pareto_front(v, Q, [0.0, 0.1]),
    "pareto_front q": lambda v: pareto_front(P, v, [0.0, 0.1]),
    "induced_output_distribution residual": lambda v: induced_output_distribution([0.5, 0.5], v, P),
    "induced_output_distribution p": lambda v: induced_output_distribution([0.5, 0.5], Q, v),
}

# name: (vector, the error's message, or None where the functions word it differently)
BAD_DISTRIBUTIONS = {
    "nan": ([math.nan, 0.5], "must be finite"),
    "infinite": ([math.inf, 0.5], "must be finite"),
    "negative": ([-3.0, 0.5], "must be nonnegative"),
    "negative summing to 1": ([-0.5, 1.5], "must be nonnegative"),
    "unnormalised": ([1.0, 1.0], "sums to 2.0"),
    "empty": ([], "nonempty 1-D"),
    "2-D": ([[0.7, 0.3]], "nonempty 1-D"),
    "wrong length": ([0.2, 0.3, 0.5], None),
}


@pytest.mark.parametrize("case", sorted(BAD_DISTRIBUTIONS))
@pytest.mark.parametrize("name", sorted(DISTRIBUTION_ARGUMENTS))
def test_distribution_arguments_follow_the_row_rule(name, case):
    vector, message = BAD_DISTRIBUTIONS[case]
    with pytest.raises(ValueError, match=message):
        DISTRIBUTION_ARGUMENTS[name](vector)


def test_valid_distribution_vectors_are_read_as_they_are():
    # Within NORMALIZE_TOL of total 1, a vector is not divided by its total.
    a, b = [0.3, 0.7 + 4e-10], [0.6, 0.4]
    assert tv_distance(a, b) == 0.5 * (abs(0.3 - 0.6) + abs(0.7 + 4e-10 - 0.4))
    assert rejection_probability([0.5, 1.0], a) == 0.5 * 0.3
