"""The three routes held to each other on fuzzed pairs.

A derandomized Hypothesis strategy builds Markov pairs with V <= 4 and T <= 6
whose rows mix dense draws, sparse supports, p = q, p within about 1e-12 of q
in total variation, the rows where a tolerance on "zero residual" would show,
"tiny" rows, with an entry at 1e-300 or 5e-324 where the other model has
mass, so that q/p passes the float range, and "short" rows, whose cumsum ends
below 1 by rounding. Prompts are dense or sparse, so the oracle's pruning of
prompt tokens with no mass is checked too. A second strategy draws sparse
pairs at V >= 64 and T <= 2, within the oracle's FULL_TABLE_CAP.
On each pair the closed forms must match the enumeration oracle to 1e-12, the
batch limit must sit at or below the M = 8 total, and the lockstep engine must
return the scalar samplers' runs, for sd, batch and every table policy. On
streams whose every uniform ties a cumsum entry or a threshold, so that a
draw on a short row can take the clamp to token V - 1, the engine must
return the scalar loop's runs too, and its column draws must give
searchsorted's token at every tie.
Callback-only copies of the table policies must give the engine's runs on the
scalar route and the table policy's oracle law and E[rejections] exactly.
History-dependent pairs, whose every history draws its own row kind, hold the
closed forms to the oracle and the oracle's laws to the target's joint.
Mixed pairs, a Markov model beside a FullModel in either role, are held the
same way. On both, the engine's blocks for sd, a batch scan and every table
policy must be the scalar loop's runs.
On degenerate pairs, where some runs fail, a Markov pair, its markov_to_full
copy (both on the engine) and the scalar loop must give the same runs or
raise the same error, and the engine must mark as failed exactly the runs on
which the scalar loop raises.
"""

import itertools
import warnings
from unittest import mock

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
from specdec import decoding
from specdec.decoding import (
    _block_streams,
    _cum_columns,
    _decode,
    _Lockstep,
    _run_blocks,
    _sample_index,
    _sample_rows,
    _stream_length,
    _tables,
    decode_markov_runs,
)
from specdec.montecarlo import Campaign, run_campaign
from specdec.dist import ZeroResidual, _normalized_rows

from helpers import (
    empty_and_off_support_pair,
    empty_third_iterate_pair,
    late_draft_pair,
    partly_off_support_pair,
    positions_apart_pair,
    random_full_pair,
    zero_residual_pair,
)

ROW_KINDS = ("dense", "sparse", "equal", "near", "disjoint", "tiny", "short")


def _unit(rng: np.random.Generator, vocab: int, sparse: bool) -> np.ndarray:
    raw = rng.uniform(size=vocab)
    if sparse:
        raw[rng.random(vocab) < 0.5] = 0.0
        raw[rng.integers(vocab)] += 0.1
    return raw / raw.sum()


def _short_unit(rng: np.random.Generator, vocab: int) -> np.ndarray:
    """A dense row whose cumsum, once a model has normalised the row, ends below 1 by rounding."""
    while True:
        row = _unit(rng, vocab, False)
        if np.cumsum(_normalized_rows(row))[-1] < 1.0:
            return row


def _rows(rng: np.random.Generator, vocab: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """One (p, q) row pair of the given kind."""
    if kind == "short":
        # A uniform at or past the last cumsum entry takes the clamp to V - 1.
        return _short_unit(rng, vocab), _short_unit(rng, vocab)
    if kind == "disjoint":
        p, q = np.zeros(vocab), np.zeros(vocab)
        tokens = rng.permutation(vocab)
        p[tokens[0]], q[tokens[1]] = 1.0, 1.0
        return p, q
    if kind == "tiny":
        # One entry of p or q at 1e-300 or 5e-324, its mass moved to the next
        # token, where the other model's dense row has mass.
        p, q = _unit(rng, vocab, False), _unit(rng, vocab, False)
        row, token = (p, q)[rng.integers(2)], rng.integers(vocab)
        tiny = (1e-300, 5e-324)[rng.integers(2)]
        row[(token + 1) % vocab] += row[token] - tiny
        row[token] = tiny
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
def markov_pairs(draw, max_vocab: int = 4, max_horizon: int = 6, min_vocab: int = 2,
                 kinds=(*ROW_KINDS, "mixed")) -> ModelPair:
    """Each position's rows share one of ``kinds``, or with "mixed" draw their own."""
    vocab = draw(st.integers(min_vocab, max_vocab))
    horizon = draw(st.integers(1, max_horizon))
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=horizon, max_size=horizon))
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
        assert runs.rejections[i] == stats.rejections


def _assert_engine_is_the_scalar_loop(pair, seed=11, count=12):
    """The engine's blocks are the scalar loop's runs: sd, a (1, 2, 3) scan, each table policy."""
    jobs = [("sd", (1,), None), ("batch", (1, 2, 3), None)]
    jobs += [("generic", (1,), policy) for policy in _table_policies(pair)]
    for algorithm, sizes, policy in jobs:
        with mock.patch.object(decoding, "_scalar_block", side_effect=AssertionError("scalar")):
            blocks = list(_run_blocks(pair, algorithm, sizes, policy, seed, 0, count))
        assert [(j, lo) for j, lo, _ in blocks] == [(j, 0) for j in range(len(sizes))]
        for j, _, runs in blocks:
            _assert_runs_equal(
                runs, [_decode(pair, sizes[j], policy, split_rng(seed, i)) for i in range(count)])


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
    # A random unbiased policy on such a pair is a table policy over histories.
    policy = random_unbiased_policy(pair, make_rng(3))
    assert [level.shape for level in policy.tables[0]] == [
        (pair.vocab_size**n, pair.vocab_size) for n in range(1, pair.horizon + 1)]
    law, rejections = enumerate_law_and_rejections(pair, "generic", policy=policy)
    assert np.abs(law - joint).sum() <= 1e-12
    assert rejections >= sd - 1e-12
    _assert_engine_is_the_scalar_loop(pair)


@given(markov_pairs(min_vocab=64, max_vocab=96, max_horizon=2, kinds=("sparse", "mixed")))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
def test_wide_sparse_pairs_agree(pair):
    # V >= 64 at T <= 2 keeps V**T within FULL_TABLE_CAP, so the oracle walks them.
    assert abs(expected_rejections_sd(pair) - enumerate_expected_rejections(pair, "sd")) <= 1e-12
    for m in (2, 3):
        want = enumerate_expected_rejections(pair, "batch", batch_size=m)
        assert abs(expected_rejections_batch(pair, m).total - want) <= 1e-12
    assert limit_rejections(pair) <= expected_rejections_batch(pair, 8).total + 1e-12
    _assert_engine_is_the_scalar_loop(pair)


class _Stream:
    """A stand-in generator whose ``random`` hands out a fixed stream of uniforms in order."""

    def __init__(self, values: np.ndarray) -> None:
        self._values, self._next = values, 0

    def random(self, size=None):
        start, self._next = self._next, self._next + (1 if size is None else size)
        return float(self._values[start]) if size is None else self._values[start:self._next]


def _tie_values(pair: ModelPair, tables) -> np.ndarray:
    """Every value a uniform can tie with: cumsum entries of p, q's prompt and the residuals, thresholds."""
    values = np.concatenate([pair.q.prompt_cumsum, tables.p_cums.ravel(),
                             tables.residual_cums.ravel(), tables.thresholds])
    return np.unique(values[(values >= 0.0) & (values < 1.0)])


@given(markov_pairs(max_vocab=4, max_horizon=4))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_uniforms_tied_to_table_entries_give_the_scalar_runs(pair):
    # Every uniform equals a cumsum entry or a threshold, so each draw and
    # test meets its tie; on a "short" row a draw at its last cumsum entry
    # takes the clamp to token V - 1. The engine must decode the scalar
    # loop's runs, and mark failed exactly the runs on which it raises.
    rng, count = np.random.default_rng(5), 16
    for m in (1, 2, 3):
        tables = _tables(pair, m, None)
        values = _tie_values(pair, tables)
        window = rng.choice(values, size=(count, _stream_length(m, pair.horizon)))
        block = _Lockstep(pair, m, tables, window, None)
        for t in range(1, pair.horizon + 1):
            block.advance(t)
        for i, stream in enumerate(window):
            try:
                trajectory, stats = _decode(pair, m, None, _Stream(stream))
            except (RuntimeError, ZeroResidual):
                assert block.failed[i]
                continue
            assert not block.failed[i]
            assert block.prompt_tokens[i] == trajectory.prompt_token
            assert tuple(block.tokens[i].tolist()) == trajectory.tokens
            assert tuple(block.flags[i].tolist()) == stats.flags


def test_tied_uniforms_draw_the_same_token_on_both_samplers():
    # u equal to a cumsum entry, or one float either side of it: searchsorted
    # on the scalar loop against the engine's count of column entries <= u.
    rng = np.random.default_rng(8)
    for vocab in (2, 3, 7, 64):
        rows = [row for kind in ("short", "sparse", "tiny", "disjoint") for _ in range(4)
                for row in _rows(rng, vocab, kind)]
        cums = np.cumsum(_normalized_rows(np.array(rows)), axis=-1)
        assert (cums[:, -1] < 1.0).any()
        for row_cums in cums:
            us = np.concatenate([[0.0], row_cums, np.nextafter(row_cums, 0.0),
                                 np.nextafter(row_cums, 2.0)])
            us = np.unique(us[us < 1.0])
            want = [_sample_index(row_cums, u) for u in us.tolist()]
            shared = _cum_columns(row_cums[None])
            own = _cum_columns(np.repeat(row_cums[None], len(us), axis=0))
            assert _sample_rows(shared, us).tolist() == want
            assert _sample_rows(own, us).tolist() == want
            if row_cums[-1] < 1.0:
                assert want[-1] == vocab - 1 and us[-1] >= row_cums[-1]


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
    # The engine reads the Markov model's rows at every history's state.
    _assert_engine_is_the_scalar_loop(pair)


# Markov pairs on which some runs fail. Pairs whose draft model overrides its
# cumsums are left out: markov_to_full keeps the rows, not the override.
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
                runs[j, lo + i] = (int(block.prompt_tokens[i]), tuple(block.tokens[i].tolist()),
                                   int(block.rejections[i]), tuple(block.flags[i].tolist()))
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    return runs


def _scalar_outcome(pair, sizes, seed, count):
    """``_outcome`` of the scalar loop, run i on split_rng(seed, i), size by size, run by run."""
    runs = {}
    try:
        for j, i in itertools.product(range(len(sizes)), range(count)):
            trajectory, stats = _decode(pair, sizes[j], None, split_rng(seed, i))
            runs[j, i] = trajectory.prompt_token, trajectory.tokens, stats.rejections, stats.flags
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    return runs


@pytest.mark.parametrize("name", DEGENERATE)
def test_both_routes_give_the_same_runs_and_errors(name):
    # 1500 runs span more than one engine block at sizes 4 and 5. The Markov
    # pair and its markov_to_full copy both take the engine.
    pair = DEGENERATE[name]()
    full = ModelPair(markov_to_full(pair.p), markov_to_full(pair.q))
    errors = set()
    for sizes, seed, count in itertools.product(SCAN_SIZES, range(4), (8, 60, 1500)):
        engine = _outcome(pair, sizes, seed, count)
        assert engine == _outcome(full, sizes, seed, count), (sizes, seed, count)
        assert engine == _scalar_outcome(pair, sizes, seed, count), (sizes, seed, count)
        if isinstance(engine, tuple):
            errors.add(engine)
    assert errors


def tiny_draft_pair() -> ModelPair:
    """V = 2, T = 1: p's row [5e-324, 1] at state 0 under a uniform q, so q/p passes 1.8e308."""
    prompt = Dist([0.5, 0.5])
    p = MarkovModel(prompt, [CondDist([[5e-324, 1.0], [0.5, 0.5]])])
    return ModelPair(p, MarkovModel(prompt, [CondDist([[0.5, 0.5], [0.5, 0.5]])]))


def test_a_ratio_past_the_float_range_warns_nowhere():
    # The engine's thresholds once divided q by p with overflow warnings on,
    # so a campaign on this pair raised under -W error::RuntimeWarning; so did
    # sd_policy and random_unbiased_policy building their tables.
    pair = tiny_draft_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for model_pair in (pair, ModelPair(markov_to_full(pair.p), markov_to_full(pair.q))):
            run_campaign(Campaign(pair=model_pair, algorithm="sd", runs=100, seed=0))
            _assert_engine_is_the_scalar_loop(model_pair, count=200)
        assert sd_policy(pair).tables[0][0, 0].tolist() == [1.0, 0.5]


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
