"""The three routes held to each other on fuzzed pairs.

A derandomized Hypothesis strategy builds Markov pairs with V <= 4 and T <= 6
whose rows mix dense draws, sparse supports, p = q, and p within about 1e-12
of q in total variation, the rows where a tolerance on "zero residual" would
show. Prompts are dense or sparse, so the oracle's pruning of prompt tokens
with no mass is checked too.
On each pair the closed forms must match the enumeration oracle to 1e-12, the
batch limit must sit at or below the M = 8 total, and the lockstep engine must
return the scalar samplers' runs, for sd, batch and every table policy.
Callback-only copies of the table policies must give the engine's runs on the
scalar route and the table policy's oracle law and E[rejections] exactly.
History-dependent pairs, whose every history draws its own row kind, hold the
closed forms to the oracle and the oracle's laws to the target's joint.
Mixed pairs, a Markov model beside a FullModel in either role, are held the
same way, and their campaigns' blocks, decoded on the scalar route, to the
scalar samplers' runs.
On degenerate pairs, where some runs fail, a Markov pair (the engine) and its
markov_to_full copy (the scalar loop) must give the same runs or raise the
same error, and the engine must mark as failed exactly the runs on which the
scalar loop raises.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import (
    CondDist,
    Dist,
    FullModel,
    MarkovModel,
    ModelPair,
    Policy,
    always_accept_policy,
    batch_decode,
    enumerate_expected_rejections,
    enumerate_law_and_rejections,
    expected_rejections_batch,
    expected_rejections_sd,
    generic_decode,
    joint_distribution,
    limit_rejections,
    make_rng,
    markov_to_full,
    over_acceptance_policy,
    random_unbiased_policy,
    sd_policy,
    split_rng,
)
from specdec.decoding import (
    _block_streams,
    _decode,
    _Lockstep,
    _run_blocks,
    _tables,
    decode_markov_runs,
)
from specdec.dist import ZeroResidual

from helpers import (
    empty_and_off_support_pair,
    empty_third_iterate_pair,
    late_draft_pair,
    partly_off_support_pair,
    positions_apart_pair,
    random_full_pair,
    zero_residual_pair,
)

ROW_KINDS = ("dense", "sparse", "equal", "near", "disjoint")


def _unit(rng: np.random.Generator, vocab: int, sparse: bool) -> np.ndarray:
    raw = rng.uniform(size=vocab)
    if sparse:
        raw[rng.random(vocab) < 0.5] = 0.0
        raw[rng.integers(vocab)] += 0.1
    return raw / raw.sum()


def _rows(rng: np.random.Generator, vocab: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """One (p, q) row pair of the given kind."""
    if kind == "disjoint":
        p, q = np.zeros(vocab), np.zeros(vocab)
        tokens = rng.permutation(vocab)
        p[tokens[0]], q[tokens[1]] = 1.0, 1.0
        return p, q
    q = _unit(rng, vocab, sparse=kind == "sparse")
    if kind in ("dense", "sparse"):
        return _unit(rng, vocab, sparse=kind == "sparse"), q
    p = q.copy()
    if kind == "near":
        # tv between 1e-13 and 1e-11, either side of the old 1e-12 cut-off
        shift = 10.0 ** rng.uniform(-13.0, -11.0)
        top, other = np.argmax(q), rng.integers(vocab - 1)
        p[top] -= shift
        p[other + (other >= top)] += shift
    return p, q


def _kind(rng: np.random.Generator) -> str:
    return ROW_KINDS[rng.integers(len(ROW_KINDS))]


@st.composite
def markov_pairs(draw, max_vocab: int = 4, max_horizon: int = 6) -> ModelPair:
    """Each position's rows share one kind, or with "mixed" draw their own."""
    vocab = draw(st.integers(2, max_vocab))
    horizon = draw(st.integers(1, max_horizon))
    kinds = draw(st.lists(st.sampled_from((*ROW_KINDS, "mixed")), min_size=horizon,
                          max_size=horizon))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_steps, q_steps = [], []
    for kind in kinds:
        rows = [_rows(rng, vocab, _kind(rng) if kind == "mixed" else kind) for _ in range(vocab)]
        p_steps.append(CondDist([p for p, _ in rows]))
        q_steps.append(CondDist([q for _, q in rows]))
    prompt = Dist(_unit(rng, vocab, sparse=rng.random() < 0.5))
    return ModelPair(MarkovModel(prompt, p_steps), MarkovModel(prompt, q_steps))


@st.composite
def full_pairs(draw) -> ModelPair:
    """History-dependent pairs with V <= 3 and T <= 4: each history draws its own row kind."""
    vocab = draw(st.integers(2, 3))
    horizon = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_table, q_table = {}, {}
    for n in range(1, horizon + 1):
        for history in itertools.product(range(vocab), repeat=n):
            p_table[history], q_table[history] = _rows(rng, vocab, _kind(rng))
    prompt = Dist(_unit(rng, vocab, sparse=rng.random() < 0.5))
    return ModelPair(FullModel(prompt, horizon, p_table), FullModel(prompt, horizon, q_table))


def _table_policies(pair: ModelPair) -> list[Policy]:
    return [
        sd_policy(pair),
        random_unbiased_policy(pair, make_rng(3)),
        always_accept_policy(pair),
        over_acceptance_policy(pair, 0.05, "opt"),
        over_acceptance_policy(pair, 0.05, "uno"),
    ]


def _assert_runs_equal(runs, scalar_runs):
    for i, (trajectory, stats) in enumerate(scalar_runs):
        assert runs.prompt_tokens[i] == trajectory.prompt_token
        assert tuple(runs.tokens[i].tolist()) == trajectory.tokens
        assert tuple(runs.flags[i].tolist()) == stats.flags


@given(markov_pairs())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_closed_forms_enumeration_and_engine_agree(pair):
    sd = expected_rejections_sd(pair)
    assert abs(sd - enumerate_expected_rejections(pair, "sd")) <= 1e-12
    for m in range(1, 5):
        want = enumerate_expected_rejections(pair, "batch", batch_size=m)
        assert abs(expected_rejections_batch(pair, m).total - want) <= 1e-12
    assert limit_rejections(pair) <= expected_rejections_batch(pair, 8).total + 1e-12

    seed, count = 11, 12
    for m in (1, 2, 4):
        runs = decode_markov_runs(pair, m, seed, 0, count)
        _assert_runs_equal(runs, [batch_decode(pair, m, split_rng(seed, i)) for i in range(count)])
    for policy in _table_policies(pair):
        assert policy.tables is not None
        runs = decode_markov_runs(pair, 1, seed, 0, count, policy)
        _assert_runs_equal(
            runs, [generic_decode(pair, policy, split_rng(seed, i)) for i in range(count)]
        )


@given(markov_pairs(max_vocab=3, max_horizon=4))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_callback_copies_match_their_table_policies(pair):
    # A copy built from the callbacks alone has no tables, so campaigns run it
    # on the scalar route, and the oracle reads every policy by its callbacks.
    seed, count = 11, 12
    for policy in _table_policies(pair):
        copy = Policy(policy.acceptance, policy.residual)
        assert copy.tables is None
        runs = decode_markov_runs(pair, 1, seed, 0, count, policy)
        _assert_runs_equal(
            runs, [generic_decode(pair, copy, split_rng(seed, i)) for i in range(count)]
        )
        law, rejections = enumerate_law_and_rejections(pair, "generic", policy=copy)
        want_law, want_rejections = enumerate_law_and_rejections(pair, "generic", policy=policy)
        assert law.tobytes() == want_law.tobytes()
        assert rejections == want_rejections


@given(full_pairs())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_history_dependent_pairs_agree(pair):
    joint = joint_distribution(pair.q)
    sd = expected_rejections_sd(pair)
    runs = [("sd", {}, sd)]
    runs += [
        ("batch", {"batch_size": m}, expected_rejections_batch(pair, m).total) for m in (1, 2, 3)
    ]
    for algorithm, kwargs, closed_form in runs:
        law, rejections = enumerate_law_and_rejections(pair, algorithm, **kwargs)
        assert np.abs(law - joint).sum() <= 1e-12
        assert abs(rejections - closed_form) <= 1e-12
    assert limit_rejections(pair) <= expected_rejections_batch(pair, 8).total + 1e-12
    # A random unbiased policy on such a pair has callbacks only.
    policy = random_unbiased_policy(pair, make_rng(3))
    assert policy.tables is None
    law, rejections = enumerate_law_and_rejections(pair, "generic", policy=policy)
    assert np.abs(law - joint).sum() <= 1e-12
    assert rejections >= sd - 1e-12


@st.composite
def mixed_pairs(draw) -> ModelPair:
    """A Markov model and a FullModel on its prompt, V <= 3 and T <= 4, in either role."""
    markov = draw(markov_pairs(max_vocab=3, max_horizon=4))
    seed = draw(st.integers(0, 2**32 - 1))
    full = random_full_pair(markov.vocab_size, markov.horizon, seed,
                            prompt=markov.p.prompt.probs)
    return ModelPair(markov.p, full.q) if draw(st.booleans()) else ModelPair(full.p, markov.q)


@given(mixed_pairs())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_mixed_pairs_agree(pair):
    joint = joint_distribution(pair.q)
    runs = [("sd", 1, expected_rejections_sd(pair))]
    runs += [("batch", m, expected_rejections_batch(pair, m).total) for m in (1, 2, 3)]
    for algorithm, m, closed_form in runs:
        law, rejections = enumerate_law_and_rejections(pair, algorithm, batch_size=m)
        assert np.abs(law - joint).sum() <= 1e-12
        assert abs(rejections - closed_form) <= 1e-12
    # The engine refuses a pair with a FullModel, so these blocks are the scalar route's.
    seed, count = 11, 12
    for algorithm, sizes in (("sd", (1,)), ("batch", (1, 2, 3))):
        for j, lo, block in _run_blocks(pair, algorithm, sizes, None, seed, 0, count):
            scalar = [batch_decode(pair, sizes[j], split_rng(seed, i)) for i in range(count)]
            assert lo == 0
            _assert_runs_equal(block, scalar)
            assert block.rejections.tolist() == [stats.rejections for _, stats in scalar]


# Markov pairs on which some runs fail. Pairs whose draft model overrides its
# sampler are left out: markov_to_full keeps the rows, not the override.
DEGENERATE = {
    fixture.__name__: fixture
    for fixture in (positions_apart_pair, zero_residual_pair, empty_and_off_support_pair,
                    empty_third_iterate_pair, late_draft_pair, partly_off_support_pair)
}
SCAN_SIZES = ([1], [2], [5], [1, 2], [2, 1], [4, 5, 1])


def _outcome(pair, sizes, seed, count):
    """Every run of the block loop keyed (size index, run), or the (type, message) it raises."""
    runs = {}
    try:
        for j, lo, block in _run_blocks(pair, "batch", sizes, None, seed, 0, count):
            for i in range(len(block.tokens)):
                runs[j, lo + i] = tuple(column[i].tolist() for column in block)
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    return runs


@pytest.mark.parametrize("name", DEGENERATE)
def test_both_routes_give_the_same_runs_and_errors(name):
    # 1500 runs span more than one engine block at sizes 4 and 5.
    pair = DEGENERATE[name]()
    full = ModelPair(markov_to_full(pair.p), markov_to_full(pair.q))
    errors = set()
    for sizes, seed, count in itertools.product(SCAN_SIZES, range(4), (8, 60, 1500)):
        engine = _outcome(pair, sizes, seed, count)
        assert engine == _outcome(full, sizes, seed, count), (sizes, seed, count)
        if isinstance(engine, tuple):
            errors.add(engine)
    assert errors


@pytest.mark.parametrize("name", DEGENERATE)
def test_the_engine_marks_exactly_the_runs_the_scalar_loop_fails(name):
    # Tables for M = 5 serve every block, as a scan's largest size serves its
    # per-size blocks, so iterates past a row's own size are in the tables.
    pair, count = DEGENERATE[name](), 60
    tables, marks = _tables(pair, 5, None), []
    for sizes, seed in itertools.product(SCAN_SIZES, range(4)):
        window, rngs = _block_streams(seed, 0, count, sizes, pair.horizon)
        block = _Lockstep(pair, np.repeat(sizes, count), tables, window, rngs)
        for t in range(1, pair.horizon + 1):
            block.advance(t)
        failing = []
        for m, i in itertools.product(sizes, range(count)):
            try:
                _decode(pair, m, None, split_rng(seed, i))
                failing.append(False)
            except (RuntimeError, ZeroResidual):
                failing.append(True)
        assert block.failed.tolist() == failing, (sizes, seed)
        marks += failing
    assert any(marks) and not all(marks)
