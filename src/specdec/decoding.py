"""Decoding algorithms: autoregressive, speculative, generic rejection, batch.

Speculative, batch and generic decoding are one scalar loop, ``_decode``,
with three entry points: speculative_decode runs its M = 1 round against q,
batch_decode its M-response round against q's iterates, and generic_decode
its M = 1 round under a policy's acceptance and residual rules. All three
therefore share one drawing discipline per round, so runs are reproducible
from a seed and speculative_decode is path-identical to batch_decode at M = 1
and to generic_decode under the speculative policy:

    1. one uniform for x_0 (first round only),
    2. one uniform per drafted token, drawn for every response to the
       horizon at the round's start, read or not,
    3. one uniform per verified position,
    4. one uniform for the replacement token after a rejection.

Rejections and oracle calls coincide: each rejection triggers exactly one
fresh target evaluation, and neither the initial drafting pass nor a final
fully-accepted round is charged.

Stream-index contract. Number a run's uniforms u[0], u[1], ... in the order
its generator yields them. u[0] draws x_0. A batch round with M responses
that starts at position n0 with its cursor at ``base`` owns the draft block
u[base : base + M*L], L = T - n0 + 1: response m's token at position t is
drawn from u[base + m*L + (t - n0)]. Root tests, within-round verifies and the
replacement then read u[base + M*L], u[base + M*L + 1], ... in turn, and the
next round starts where they stop. Speculative decoding is the case M = 1.
A draft token is needed only where it is verified, and it is drawn from the
same index whether that happens eagerly or lazily, so
:func:`decode_markov_runs` advances many runs in lockstep, one position at a
time, and returns exactly the scalar samplers' trajectories, rejections and
flags. generic_decode reads its stream exactly as speculative decoding does,
so the engine also runs generic policies as the M = 1 round. The engine
reads tables only: the acceptance thresholds and replacement cumsums of every
position come from one source, built once per call, q's root iterates for sd
and batch or a policy's tables (see :class:`Policy`). Any model is a Markov
chain over its histories, so the tables are keyed by a run's state, as
``models._level_rows`` reads a row: at position n, the code of the history
(x_0, ..., x_{n-1}) modulo R_n, the most rows a level n of p, q or the
policy's tables has. That is x_{n-1} where all are chains (R_n = V) and the
whole code where one is over histories (R_n = V**n), and a run carries it
forward as (s*V + x_n) % R_{n+1}. The tables hold one flat layout of
(position, state) rows, level after level (see :class:`_Tables`). A policy
without tables runs through generic_decode. At each position every run
tests one candidate against q, the token of the response it follows or, when
it opens a round, response 0's, so one verify pass covers all runs; the
opening runs that reject it test responses 1, ..., M - 1 in one more
pass, over the grid of (response, run), and follow the first they accept. A
run's state between positions is its row in the layout, its next-uniform
index and a draft pointer to the followed response's next draft uniform; a
run opens a round where its last token was a replacement. Uniforms are read
by flat index into the block's window and table entries by (m*R + r)*V + x
for a test of candidate x at layout row r against iterate m + 1, R the
layout's row count. The engine raises no sampler error: at the positions (and
iterates) where the call's tables show that a draft can leave p's support or
a residual be empty, it marks the runs that meet one and decodes on, and the
block's first marked run is decoded again on the scalar loop, which raises
its error (see :class:`_Lockstep` and ``_decoded_block``).

Stream sources. No run reads more than S(M, T) = 1 + M*T(T+1)/2 + (M+1)*T
uniforms (proved in :func:`decode_markov_runs`), and no round more than
R = M*T + M + T. Where S fits the engine's narrowest top-up window, 2R
uniforms, that is for T <= 2, or T = 3 with M <= 2, a block of
max(BLOCK_RUNS, STREAM_BUDGET // S) runs draws its runs' whole streams at once
with ``rng.split_uniforms``: about STREAM_BUDGET = 2**16 uniforms, 512 KB,
whatever S is, so the fixed numpy cost of seeding and of each position is
shared by thousands of short runs. Longer runs advance in blocks of at most
BLOCK_RUNS, build one generator per run with ``rng.split_rngs`` and fill a
window of W = min(S, max(2R, WINDOW_BUDGET // count)) uniforms per run from
it, WINDOW_BUDGET = 2**18 (2 MB) and count the block's runs. A block's window
thus holds at most max(2R*count, WINDOW_BUDGET) uniforms: a full block of
BLOCK_RUNS keeps 2R wherever 2R >= 256, and a smaller one holds more of each
stream, so its runs top up less often, or, where W = S, never and keep no
generators. Every source gives every run the uniforms of
``split_rng(seed, index)``, so neither the source, the window nor the block
size changes a result.

Batch sizes per row. A block's rows may have different batch sizes M_i, in
any order; the engine's tables are built once, for the largest, since q's
iterates q^m do not depend on M, and a block of one size is the case where
every M_i is equal. A row's size picks which of the tables' iterates it
reads, never their layout, which is the same on every kind of pair.
Packing rule: k batch sizes over the same runs share one block, size-major
in the order given, when their k*count rows fit the block limit of the
largest size; otherwise each size decodes in its own blocks, exactly as
alone. In a shared block the k rows of run i read the same
stream, drawn once and copied, in windows as wide as the largest size needs
(W computed over the k*count rows); a row keeps a generator of its own only
where W is short of its own size's S.

Routes. One generator, ``_run_blocks``, decodes every run that
``decode_markov_runs`` and the campaigns ask for, in blocks, in run order,
and it alone chooses the route, the block size and the stream source, from
the algorithm, whether the policy has tables and the table budget only. sd,
batch and generic runs on any pair (MarkovModels, FullModels or one of
each), under no policy or one with tables, take the engine, in blocks of
``_block_runs`` runs, with the tables built once per call, as long as those
tables fit TABLE_BUDGET = 2**28 bytes (256 MiB): 8 bytes for each of p's
cumsums, M thresholds and M residual rows' entries, (2M + 1)*V per
(position, state) row. Every other run (a policy without tables, an
autoregressive run, a call past the budget) is one call of the scalar loop
``_decode`` (of ``autoregressive_decode`` for autoregressive runs) on
``split_rng(seed, i)``, in blocks of BLOCK_RUNS; the scalar loop is also
the reference the engine is held to on every kind of pair. A call with
several batch sizes goes size by size on the scalar loop and by the packing
rule on the engine. Both routes yield :class:`MarkovRuns` blocks and give
the same runs, and both take runs size by size, then run by run, and raise
the scalar loop's error for the first that fails, so the route changes speed
and not results: the same runs and the same errors.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dist import (ZeroResidual, _capped_ratios, _float_array, _int_arg, _normalized_rows,
                   _residual_rows)
from .models import (ModelPair, _chain_key, _flat_rows, _pair_arg, _read_only, _state_counts,
                     _table_key)
from .rng import split_rng, split_rngs, split_uniforms

BLOCK_RUNS = 1024
STREAM_BUDGET = 2**16
WINDOW_BUDGET = 4 * STREAM_BUDGET
TABLE_BUDGET = 2**28


class InvalidPolicy(ValueError):
    """Raised when a policy callback returns something that is not a distribution."""


@dataclass(frozen=True)
class Trajectory:
    """Decoded tokens x_{1:T} plus the prompt token x_0 that conditioned them."""

    prompt_token: int
    tokens: tuple[int, ...]


@dataclass(frozen=True)
class RunStats:
    """Rejection accounting for one decoding run.

    ``flags[n-1]`` marks whether position n's token came from a replacement
    sample. ``oracle_calls == rejections`` always.
    """

    rejections: int
    oracle_calls: int
    flags: tuple[int, ...]


@dataclass(frozen=True)
class Policy:
    """Acceptance/residual specification for the generic rejection framework.

    acceptance(n, history, candidate) -> probability of keeping the draft
    candidate at position n; values are clamped to [0, 1].
    residual(n, history) -> replacement distribution sampled after a rejection
    at position n. ``history`` is (x_0, ..., x_{n-1}) in both callbacks.
    A residual row is held to Dist's rule, ``dist._normalized_rows``, and an
    InvalidPolicy names the position of the first bad row.

    ``tables`` is the pair (acceptance, residual) of the policy's values over
    every context, in one of two layouts. A policy that depends on the
    history through x_{n-1} only has two (T, V, V) arrays, with
    ``acceptance[n - 1, s, x]`` and ``residual[n - 1, s]`` what the callbacks
    return at a history ending in s; the policy factories build these on a
    pair of MarkovModels. A policy over histories has two tuples of T
    levels, level n of shape (V**n, V) with a history's values at the row of
    its code (``models._table_key``), the layout of a FullModel's rows; the
    factories build these on a pair that holds a FullModel. They are stored
    as policy_acceptance and policy_residual_rows return those values, so
    invalid tables raise InvalidPolicy, with generic_decode's messages. The
    lockstep engine reads either layout on any pair, each at a run's state
    by ``models._level_rows``' rule, and decode_markov_runs refuses a policy
    without tables; generic_decode and the enumeration oracle call the
    callbacks. Only :meth:`from_tables` sets ``tables``, with callbacks that
    read them, so both routes decode the same runs for one policy.
    """

    acceptance: Callable[[int, tuple[int, ...], int], float]
    residual: Callable[[int, tuple[int, ...]], np.ndarray]
    tables: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_tables(cls, acceptance, residual) -> "Policy":
        """Policy b_n(x | h) and P_n(. | h) read from tables over every context h.

        Two tuples of T numpy arrays, level n of shape (V**n, V), are a
        policy over histories, read only at a history of length n, at the row
        of its code. Anything else, arrays or nested lists or tuples of
        numbers, is read as two (T, V, V) arrays, a Markov policy:
        b_n(x | s) = acceptance[n - 1, s, x] and P_n(. | s) =
        residual[n - 1, s] at any history ending in s. The callbacks read
        read-only copies of the tables, and raise the KeyError of the
        matching model's rule, a FullModel's or a MarkovModel's ``step``, for
        a context it does not take.
        """
        levels = isinstance(acceptance, tuple) and all(isinstance(a, np.ndarray) for a in acceptance)
        tables = [tuple(map(_frozen, table)) if levels else _frozen(table)
                  for table in (acceptance, residual)]
        checked = _validated_tables(*tables)
        policy = cls(*_table_readers(*tables))
        object.__setattr__(policy, "tables", checked)
        return policy


def _frozen(values) -> np.ndarray:
    return _read_only(_float_array(values).copy())


def _table_readers(acceptance, residual):
    """Policy callbacks that read tables of checked shape by a model's rule.

    (T, V, V) tables are read at x_{n-1} by ``models._chain_key``, levels over
    histories at the history's code by ``models._table_key``, so a position
    outside 1..T or a history the rule does not take raises its KeyError.
    An acceptance read hands the key its candidate, which then raises one,
    after the history's, for a candidate that is not an integer in 0..V-1.
    """
    horizon, v = len(acceptance), np.shape(acceptance[:1])[-1]
    if not isinstance(acceptance, tuple):
        return (
            lambda n, history, candidate: acceptance[_chain_key(n, history, horizon, v, candidate)],
            lambda n, history: residual[_chain_key(n, history, horizon, v)],
        )
    return (
        lambda n, history, x: _entry(acceptance, *_table_key(n, history, horizon, v, x)),
        lambda n, history: _entry(residual, *_table_key(n, history, horizon, v)),
    )


def _entry(levels, level: int, *index):
    """``levels[level][index]``: an entry or a row of one level of tables over histories."""
    return levels[level][index]


def _validated_tables(acceptance, residual) -> tuple:
    """Tables as policy_acceptance and policy_residual_rows return their entries.

    Checked and stored over whole tables (a level at a time for levels over
    histories, which must have shape (V**n, V) at level n), but entry for
    entry as those two validators check and return them at one history:
    every acceptance entry first, then the residual rows, each position by
    position. So the stored values, signed zeros included, are what
    generic_decode reads, and an InvalidPolicy raised has the validators'
    message for the first bad position.
    """
    if isinstance(acceptance, tuple):
        shapes = [[level.shape for level in table] for table in (acceptance, residual)]
        v = shapes[0][0][-1] if shapes[0] and shapes[0][0] else -1
        if v < 0 or shapes != [[(v**n, v) for n in range(1, len(acceptance) + 1)]] * 2:
            raise InvalidPolicy(f"policy table levels have shapes {shapes[0]} and {shapes[1]}, "
                                "expected (V**n, V) at level n")
        return tuple(tuple(_read_only(check(rows[None], [n])[0]) for n, rows in enumerate(table, 1))
                     for check, table in ((_acceptances, acceptance), (_distributions, residual)))
    shape = acceptance.shape
    if len(shape) != 3 or shape[1] != shape[2] or residual.shape[:2] != shape[:2]:
        raise InvalidPolicy(
            f"policy tables have shapes {shape} and {residual.shape}, expected (T, V, V)")
    positions = range(1, shape[0] + 1)
    acceptance = _read_only(_acceptances(acceptance, positions))
    if residual.shape[2:] != shape[2:] and shape[0] and shape[1]:
        raise _bad_shape(1, residual.shape[2:])
    return acceptance, _read_only(_distributions(np.ascontiguousarray(residual), positions))


def _sample_index(cumsum: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cumsum, u, side="right"))
    return min(idx, cumsum.size - 1)


def _not_finite(n: int) -> InvalidPolicy:
    return InvalidPolicy(f"acceptance at position {n} is not finite")


def _bad_shape(n: int, shape) -> InvalidPolicy:
    return InvalidPolicy(f"residual at position {n} has shape {shape}")


def _acceptances(values: np.ndarray, positions) -> np.ndarray:
    """(K, H, V) blocks of acceptance values, block k at ``positions[k]``, clamped to [0, 1].

    min(1, max(0, b)) entry for entry as policy_acceptance takes it, so -0.0
    becomes 0.0. Raises policy_acceptance's InvalidPolicy for the first block
    with a value that is not finite.
    """
    infinite = ~np.isfinite(values)
    if infinite.any():
        raise _not_finite(positions[int(np.argmax(infinite.any(axis=(1, 2))))])
    return np.where(values > 0.0, np.minimum(values, 1.0), 0.0)


def _residual_check(n: int, check, value):
    """``check(value)``, a ValueError raised as InvalidPolicy ``residual at position n: ...``."""
    try:
        return check(value)
    except ValueError as exc:
        raise InvalidPolicy(f"residual at position {n}: {exc}") from None


def _distributions(rows: np.ndarray, positions) -> np.ndarray:
    """(K, H, V) blocks of residual rows, block k at ``positions[k]``, by ``dist._normalized_rows``.

    An error is the kernel's for the first bad row in C order, raised by
    ``_residual_check`` at the position of the block that holds it.
    """
    try:
        return _normalized_rows(rows)
    except ValueError:
        for n, block in zip(positions, rows):
            _residual_check(n, _normalized_rows, block)
        raise


def policy_residual_rows(policy: Policy, n: int, histories, vocab_size: int) -> np.ndarray:
    """Policy residuals at position n for each history, stacked, validated and normalised.

    Calls ``policy.residual`` once per history; raises InvalidPolicy unless
    every row is a length-V vector of reals (no bools or strings) that
    ``dist._normalized_rows`` takes, with its error for the first bad row
    prefixed ``residual at position n:``. Each row is checked for reals as it
    is returned: an ndarray of integers or floats by its type and dtype, any
    other value by ``dist._float_array``, so the first row that cannot be
    read is named before any shape is checked. The rows are then stacked as
    float64, so a float32 row is held to the row rule at its float64 values.
    """
    rows = [row if type(row := policy.residual(n, h)) is np.ndarray and row.dtype.kind in "iuf"
            else _residual_check(n, _float_array, row) for h in histories]
    for row in rows:
        if row.shape != (vocab_size,):
            raise _bad_shape(n, row.shape)
    rows = np.array(rows, dtype=np.float64).reshape(len(rows), vocab_size)
    return _residual_check(n, _normalized_rows, rows)


def policy_residual_row(policy: Policy, n: int, history: tuple[int, ...], vocab_size: int):
    """Fetch and validate a policy residual; raises InvalidPolicy on bad output."""
    return policy_residual_rows(policy, n, [history], vocab_size)[0]


def _acceptance_value(value, n: int) -> float:
    """An acceptance callback's value as a float; InvalidPolicy for a bool or a non-real.

    Ints, floats and their numpy kinds pass; a float (np.float64 is one)
    passes as it is, without a conversion.
    """
    if isinstance(value, float):
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidPolicy(f"acceptance at position {n} is {value!r}, not a real number")
    return float(value)


def policy_acceptance(policy: Policy, n: int, history: tuple[int, ...], candidate: int) -> float:
    b = _acceptance_value(policy.acceptance(n, history, candidate), n)
    if not math.isfinite(b):
        raise _not_finite(n)
    return min(1.0, max(0.0, b))


def autoregressive_decode(model, rng: np.random.Generator) -> Trajectory:
    """Sample x_{1:T} directly from the model, one token per step."""
    x0 = _sample_index(model.prompt_cumsum, rng.random())
    history = (x0,)
    for n in range(1, model.horizon + 1):
        token = _sample_index(model.step_cumsum(n, history), rng.random())
        history += (token,)
    return Trajectory(x0, history[1:])


def _decode(pair: ModelPair, batch_size: int, policy: Policy | None,
            rng) -> tuple[Trajectory, RunStats]:
    """One run of batch speculative sampling, or of a policy's rejection rule at M = 1.

    Round structure at position n0 with prefix h:
      * M = batch_size responses are drafted from p to the horizon, one
        oracle batch. Their uniforms are drawn at the round's start and a
        draft token is sampled where it is tested, from the same prefix and
        uniform, so it is the token that drafting the round eagerly gives.
      * Response m's first token is tested against the iterate q^m, where
        q^1 = q(.|h) and q^{m+1} = [q^m - p]_+. A first-token rejection moves
        to response m+1 without emitting or counting anything.
      * Once a first token is accepted the round follows that response only;
        a later rejection replaces the token from the target residual
        [q_t - p_t]_+, counts one rejection, and ends the round.
      * If all M first tokens reject, the token is drawn from q^{M+1} itself
        and one rejection is counted.

    With a policy the test is b_n(x | h) and the replacement row P_n(. | h):
    acceptance is asked once per verified position, residual once per
    rejection.
    """
    p, q, horizon = pair.p, pair.q, pair.horizon
    history = (_sample_index(q.prompt_cumsum, rng.random()),)
    flags = [0] * horizon
    while len(history) <= horizon:
        start = len(history)
        # Each response's draft uniforms to the horizon, drawn up front; a
        # token is sampled from its own prefix only where the loop tests it.
        responses = [rng.random(horizon - start + 1) for _ in range(batch_size)]
        for t in range(start, horizon + 1):
            p_row, p_cumsum = p.step(t, history), p.step_cumsum(t, history)
            target = q.step(t, history) if policy is None else None
            for m, us in enumerate(responses, start=1):
                candidate = _sample_index(p_cumsum, us[t - start])
                p_cand = float(p_row[candidate])
                if p_cand <= 0.0:
                    raise RuntimeError(
                        f"draft token {candidate} outside p's support at position {t}"
                    )
                if policy is None:
                    threshold = min(1.0, float(target[candidate]) / p_cand)
                else:
                    threshold = policy_acceptance(policy, t, history, candidate)
                if rng.random() <= threshold:
                    responses = [us]
                    history += (candidate,)
                    break
                if policy is None:
                    target, total = _residual_rows(target, p_row)
                    if total <= 0.0:
                        raise ZeroResidual(f"rejection at position {t} with tv(q^{m}, p) = 0")
                else:
                    target = policy_residual_row(policy, t, history, pair.vocab_size)
            else:
                flags[t - 1] = 1
                history += (_sample_index(np.cumsum(target), rng.random()),)
                break
    rejections = sum(flags)
    return Trajectory(history[0], history[1:]), RunStats(rejections, rejections, tuple(flags))


def speculative_decode(pair: ModelPair, rng: np.random.Generator) -> tuple[Trajectory, RunStats]:
    """Speculative decoding with lookahead equal to the remaining horizon.

    Each round drafts from p up to the horizon, accepts candidate x with
    probability min(1, q(x)/p(x)), and on the first rejection replaces the
    token with a draw from [q - p]_+ before re-drafting.
    """
    return _decode(pair, *_run_args(pair, "sd", 1, None), rng)


def generic_decode(pair: ModelPair, policy: Policy,
                   rng: np.random.Generator) -> tuple[Trajectory, RunStats]:
    """Rejection decoding with caller-supplied acceptance and residual rules.

    Draws uniforms in the same order as speculative_decode, so the speculative
    policy reproduces its trajectories path-for-path under a shared seed.
    A missing policy raises ValueError and a non-Policy TypeError, as for
    campaigns and the enumeration oracle.
    """
    return _decode(pair, *_run_args(pair, "generic", 1, policy), rng)


def _run_args(pair: ModelPair, algorithm: str, batch_size, policy) -> tuple[int, Policy | None]:
    """The (batch_size, policy) that ``_decode`` takes for a run of ``algorithm`` on ``pair``.

    ``pair`` must be a ModelPair (else ``models._pair_arg``'s TypeError),
    checked before anything reads it. Only batch runs take a batch_size
    other than 1, and generic runs, and only they, take a policy, which must
    be a Policy (else TypeError). A policy's tables, where it has them, must
    be (T, V, V) for ``pair``, or T levels whose first is (V, V) (else
    InvalidPolicy), whichever route reads the policy and whichever kind of
    pair it is.
    """
    _pair_arg(pair)
    batch_size = _int_arg("batch_size", batch_size)
    if algorithm != "batch" and batch_size != 1:
        raise ValueError(f"{algorithm} runs need batch_size 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if algorithm != "generic" and policy is not None:
        raise ValueError(f"{algorithm} runs take no policy")
    if algorithm == "generic" and policy is None:
        raise ValueError("algorithm 'generic' requires a policy")
    if policy is not None and not isinstance(policy, Policy):
        raise TypeError(f"{policy!r} is not a Policy")
    if policy is not None and policy.tables is not None:
        table, shape = policy.tables[0], (pair.horizon, pair.vocab_size, pair.vocab_size)
        if (got := (len(table), *np.shape(table[:1])[1:])) != shape:
            raise InvalidPolicy(f"policy tables have shape {got}, expected {shape}")
    return batch_size, policy


def batch_decode(pair: ModelPair, batch_size: int,
                 rng: np.random.Generator) -> tuple[Trajectory, RunStats]:
    """Batch speculative sampling with M = batch_size draft responses per round.

    Rounds are as described in ``_decode``. With batch_size=1 this is
    speculative decoding exactly.
    """
    return _decode(pair, *_run_args(pair, "batch", batch_size, None), rng)


class MarkovRuns(NamedTuple):
    """Runs of :func:`decode_markov_runs`, one row per run in run order.

    ``tokens[i]`` and ``flags[i]`` have length T and ``flags.sum(axis=1)``
    equals ``rejections``, as in :class:`RunStats`. It is also the block type
    of both routes of ``_run_blocks``: a scalar-route block fills its rows
    from each run's :class:`Trajectory` and :class:`RunStats` (an
    autoregressive run's flags and rejections are zero).
    """

    prompt_tokens: np.ndarray
    tokens: np.ndarray
    rejections: np.ndarray
    flags: np.ndarray


def _sample_rows(columns: np.ndarray, us: np.ndarray) -> np.ndarray:
    """``_sample_index`` of cumsum column k (or one shared column) at ``us[k]``.

    ``columns`` holds entries 0, ..., V - 2 of each cumsum, one column per
    draw: shape (V - 1, K), or (V - 1, 1) for a shared one. A cumsum is
    nondecreasing, so searchsorted(side="right") is the count of its entries
    <= u, and that count clamped to V - 1 is the count among the first V - 1.
    """
    return (columns <= us).sum(axis=0)


def _cum_columns(cums: np.ndarray) -> np.ndarray:
    """(..., V) row cumsums as (V - 1, K) columns for ``_sample_rows``, K the rows.

    Column j holds the row that is j-th in C order: ``[k, r]`` of an (R, V)
    stack, ``[k, m*R + r]`` of an (M, R, V) one.
    """
    columns = np.moveaxis(cums[..., :-1], -1, 0)
    return np.ascontiguousarray(columns).reshape(len(columns), -1)


def _where_needed(mask: np.ndarray, rows: np.ndarray, starts) -> list:
    """``mask`` at each position n whose level has a True entry of ``rows``, None at the others.

    ``rows`` holds one entry per row of the flat layout, level n's from
    ``starts[n - 1]`` on.
    """
    needed = np.logical_or.reduceat(rows, starts[:-1])
    return [mask if need else None for need in needed.tolist()]


class _Tables(NamedTuple):
    """Every position's tables for one engine call, over one flat layout of rows.

    At position n a run's state is its history's code modulo R_n, the most
    rows a level n of p, q or the policy's tables has
    (``models._state_counts``): x_{n-1} where all are chains, the code where
    one is over histories. The layout holds the (position, state) rows level
    after level, each read by ``models._flat_rows``: row r = starts[n - 1] +
    state at position n, and ``starts[T]`` = R, the layout's row count.
    A table is keyed by the iterate m + 1 a token is tested against (m = 0
    for q, the one iterate of a policy), the row r and the candidate x:
    ``thresholds`` is a flat array keyed (m*R + r)*V + x, the acceptance
    threshold min(1, q^{m+1}(x)/p(x)) or the policy's, and ``residual_cums``
    a (V - 1, M*R) array of cumsum columns (see ``_cum_columns``) keyed
    m*R + r, the replacement row drawn after that test fails. So one gather
    serves the tests of every response. ``p_cums`` are p's columns, keyed r,
    from the cumsums ``step_cumsum`` reads. Without a policy the tables come
    from the root iterates of q, q^1 = q and q^{m+1} = [q^m - p]_+, formed
    row by row by the scalar loop's own kernel, so they are bit-equal to the
    iterates ``_decode`` tests a round's first tokens against. With a tabular
    policy (M = 1) they come from its tables.

    The check tables say where :class:`_Lockstep` must mark failing runs.
    ``off_support[n - 1]`` is the (R*V,) mask of p(x | r) <= 0, keyed
    r*V + x, at a position n where some row of p has no mass on token V - 1,
    and None elsewhere.
    ``empty_residuals[n - 1]`` is the (M*R,) mask, keyed m*R + r, of the rows
    whose max(q^{m+1} - p, 0) sums to <= 0, at a position n with such a row,
    and None elsewhere; it is always None for a policy. Its iterate axis is
    that of the tables' M, which may exceed a block's own.
    """

    starts: list
    p_cums: np.ndarray
    thresholds: np.ndarray
    residual_cums: np.ndarray
    off_support: list
    empty_residuals: list


def _tables(pair: ModelPair, batch_size: int, policy: Policy | None) -> _Tables | None:
    """The engine's tables for ``pair`` at the largest batch size, or None past TABLE_BUDGET.

    The budget counts the float tables kept, 8 bytes for each entry of p's
    cumsums, M thresholds and M residual rows: (2M + 1)*V per layout row.
    Nothing is built when they would not fit. The kept tables are made first
    and each iterate's thresholds and cumsum columns are written into them in
    turn, so a build holds at most two iterates besides p's rows.
    """
    counts = _state_counts(pair.p, pair.q, *(() if policy is None else policy.tables))
    if 8 * (2 * batch_size + 1) * sum(counts) * pair.vocab_size > TABLE_BUDGET:
        return None
    p_cums = _cum_columns(_flat_rows(pair.p._cumsums(), counts))
    p_rows = _flat_rows(pair.p, counts)
    rows, v = p_rows.shape
    thresholds = np.empty((batch_size, rows, v))
    residual_cums = np.empty((v - 1, batch_size, rows))
    empty = np.zeros((batch_size, rows), dtype=bool)
    if policy is not None:
        thresholds[0], residual = (_flat_rows(table, counts) for table in policy.tables)
        residual_cums[:, 0] = np.cumsum(residual, axis=-1)[:, :-1].T
    else:
        iterate = _flat_rows(pair.q, counts)
        for m in range(batch_size):
            _capped_ratios(iterate, p_rows, out=thresholds[m])
            iterate, total = _residual_rows(iterate, p_rows)
            empty[m] = total <= 0.0
            residual_cums[:, m] = np.cumsum(iterate, axis=-1)[:, :-1].T
    starts, off = np.cumsum([0, *counts]), p_rows <= 0.0
    return _Tables(
        starts.tolist(),
        p_cums,
        thresholds.reshape(-1),
        residual_cums.reshape(v - 1, -1),
        _where_needed(off.reshape(-1), off[:, -1], starts),
        _where_needed(empty.reshape(-1), empty.any(axis=0), starts),
    )


def _overrun(width: int) -> RuntimeError:
    return RuntimeError(f"a run read past the end of its {width}-uniform window")


class _Lockstep:
    """One block of runs advanced together, one position at a time.

    ``batch_sizes`` is one batch size for every row or an array of one per
    row, M_i, in any order; ``tables`` must serve the largest, M. Each run
    keeps a row of a (runs, width) window of its uniform stream, read
    through the flat ``uniforms`` (a view of a C-contiguous window, as
    ``_block_streams`` makes them) by absolute index: ``next[i]`` is run i's
    next unread uniform, and ``cursor`` the same index relative to its row.
    With ``rngs`` None the row holds every uniform a run can read. Otherwise
    it holds at least twice the most one round of the largest size can read
    (M*L drafts, M root tests, L - 1 verifies, one replacement;
    ``_block_streams`` sets the width), and a run whose row is short at a
    round opening, of the (M_i + 1)(L + 1) - 1 uniforms its round can read,
    slides it down and tops it up from its own generator ``rngs[i]``, so the
    working memory is fixed per block. A row with ``rngs[i]`` None holds its
    whole stream.

    Draft pointers. A run opens a round at position 1 and after each
    replacement (its flag at t - 1). At an opening, ``draft[i]`` is set to
    the cursor, the M_i*L draft uniforms are reserved, and it then moves
    forward one per emitted position, so it always points at the followed
    response's draft uniform for the current position. An opening run that
    rejects response 0 tests responses 1, ..., M_i - 1 in one pass
    (``_respond``): response m's candidate is drawn at base + m*L (base
    being the opening cursor) and its test reads the m-th uniform after
    response 0's. The run follows its first accepted response m, with its
    pointer at base + m*L + 1 and its cursor past its m tests; a run whose
    M_i root tests all fail draws its token from iterate M_i + 1, with the
    next uniform; at M_i = 1 that is the replacement after response 0.

    States. ``rows`` holds each run's row in the tables' layout at the
    current position: x_0's at position 1, then after each position t the
    row of its state (s*V + x_t) % R_{t+1} in level t + 1, which is x_t where
    that level holds V rows and the history's code where it holds V**(t+1).

    Checks. Thresholds, replacement rows and check tables come from ``tables``
    (see :class:`_Tables`); a run is checked only where a check table asks.
    Off-support: ``_sample_rows`` lands on a token k < V - 1 only when
    cums[k - 1] <= u < cums[k], so cums[k] > cums[k - 1] and p[k] > 0 (for
    k = 0, u < cums[0] = p[0]); only its clamp to V - 1 can land on a token
    without mass, so the check is needed only at positions where some p row
    has no mass on token V - 1. Zero residual: a rejection against iterate m
    at state s needs [q^m - p]_+ there, which is empty only where its
    normaliser is <= 0. Neither raises: a run that meets one is marked in
    ``failed``, one flag per row, and decodes on, reading its stream as any
    run does. A run is marked exactly where the scalar loop raises: only
    the drafts and failed tests a run makes count, so in ``_respond`` a
    mask over the (response, run) grid keeps the cells before each run's
    first accepted response and within its M_i. ``_decoded_block`` raises
    the scalar loop's error for the first marked row.

    Window guard. A read past a row's end would read the next run's stream
    (or be clipped to the block's last uniform) rather than fail, so a
    RuntimeError is raised when a run's cursor has passed the window width.
    A pass over responses also reads, and discards, the uniforms a row does
    not use: drafts and tests after its accepted response or past its own
    M_i, and the replacement's where it accepts one; those may lie past its
    row. Every read that is used is below the cursor,
    and a cursor only moves back at a top-up, so checking at each top-up and
    at the block's last position covers every read.
    """

    def __init__(self, pair: ModelPair, batch_sizes, tables: _Tables, window, rngs) -> None:
        count, self.width = window.shape
        sizes = np.asarray(batch_sizes, dtype=np.int64)
        self.largest = int(sizes.max(initial=1))
        # One size is held as a scalar, which broadcasts where a row's size is read.
        self.sizes = sizes if sizes.min(initial=self.largest) < self.largest else self.largest
        self.horizon, self.vocab = pair.horizon, pair.vocab_size
        self.responses, self.offsets = _response_grid(self.largest, self.horizon)
        # Iterate m's rows start at m*R in the layout, its threshold keys at m*R*V.
        self.response_rows = self.responses * tables.starts[-1]
        self.response_keys = self.response_rows * self.vocab
        self.tables, self.rngs, self.uniforms = tables, rngs, window.reshape(-1)
        self.row_starts = np.arange(count) * self.width
        self.row_ends = self.row_starts + self.width
        self.next = self.row_starts.copy()
        self.prompt_tokens = _sample_rows(pair.q.prompt_cumsum[:-1, None], self._take(slice(None)))
        # Each run's row at the current position; at position 1 the state is x_0.
        self.rows = self.prompt_tokens
        self.draft = np.zeros(count, dtype=np.int64)
        self.tokens = np.empty((count, self.horizon), dtype=np.int64)
        self.flags = np.zeros((count, self.horizon), dtype=bool)
        self.failed = np.zeros(count, dtype=bool)

    def _sizes_of(self, runs) -> np.ndarray | int:
        """The batch sizes of ``runs``: the block's one size, or one per run."""
        return self.sizes if isinstance(self.sizes, int) else self.sizes[runs]

    @property
    def cursor(self) -> np.ndarray:
        """Each run's next unread uniform as a column of its window row."""
        return self.next - self.row_starts

    def _read(self, indices: np.ndarray) -> np.ndarray:
        """The uniforms at absolute ``indices``; one past the block's end reads its last."""
        return self.uniforms.take(indices, mode="clip")

    def _take(self, runs) -> np.ndarray:
        """The next unread uniform of each of ``runs`` (all at slice(None)); cursors move on."""
        us = self._read(self.next[runs])
        self.next[runs] += 1
        return us

    def _top_up(self, runs: np.ndarray, need) -> None:
        """Slide down and refill each row of ``runs`` with fewer than ``need`` unread uniforms.

        ``need`` is one count for all of ``runs`` or one per run.
        """
        width = self.width
        for i in runs[self.next[runs] + need > self.row_ends[runs]].tolist():
            start = i * width
            used = int(self.next[i]) - start
            if used > width:
                raise _overrun(width)
            row = self.uniforms[start : start + width]
            row[: width - used] = row[used:]
            self.rngs[i].random(out=row[width - used:])
            self.next[i] = start

    def _draft(self, rows, us):
        """Draft tokens from layout ``rows``, drawn with uniforms ``us``, and their keys.

        ``rows`` is one per run, or a row of them against a (responses, runs)
        grid of ``us``.
        """
        columns = self.tables.p_cums.take(rows, axis=1)
        candidates = _sample_rows(columns, us)
        return candidates, rows * self.vocab + candidates

    def _respond(self, t, span, pending, rows, off, empty) -> None:
        """Test responses 1, ..., M_i - 1 of the opening runs ``pending`` that rejected response 0.

        ``rows`` are their layout rows at position t, and ``off`` and
        ``empty`` position t's check tables (see :class:`_Tables`).

        One pass over the grid of (response m, run), m = 1, ..., M - 1, row
        m - 1 for response m. The cursor is past response 0's test, at
        base + M_i*L + 1, so test m reads cursor + m - 1, against iterate
        m + 1, and response m's draft, at base + m*L, lies (M_i - m)*L + 1
        before it. Tests past a run's M_i are masked. A run follows its
        first accepted response m, its draft pointer moved from base + 1 to
        base + m*L + 1; a run with none draws its token from iterate
        M_i + 1 at cursor + M_i - 1.
        """
        sizes, cursor, largest = self._sizes_of(pending), self.next[pending], self.largest
        stride = self.tables.starts[-1]
        # Row m - 1 is test m's uniform, and at m = M_i the replacement's; row
        # M - 1 + m is response m's draft uniform, at base + m*L.
        index = cursor + self.offsets[span]
        mixed = not isinstance(sizes, int)
        if mixed:
            index[largest:] += (largest - sizes) * span
        us = self._read(index)
        candidates, keys = self._draft(rows[None], us[largest:])
        accept = us[:largest - 1] <= self.tables.thresholds.take(keys + self.response_keys)
        if mixed:
            accept &= self.responses < sizes
        if off is not None or empty is not None:
            # A run drafts and tests response m where m < M_i and its tests
            # 1, ..., m - 1 failed. It fails there on a draft off p's support,
            # or on a failed test whose residual, q^{m+2} keyed m*R + r, is empty.
            made = np.ones(accept.shape, dtype=bool)
            np.logical_and.accumulate(~accept[:-1], axis=0, out=made[1:])
            fails = np.zeros_like(made) if empty is None else (
                ~accept & empty[self.response_rows + rows])
            if off is not None:
                fails |= off[keys]
            self.failed[pending] |= (made & fails & (self.responses < sizes)).any(axis=0)
        # Each run's token: the draft of its first accepted response, at row
        # ``first`` (row 0 when only response 1 follows response 0), or else a
        # replacement from iterate M_i + 1, drawn for every run and kept where
        # none is accepted. A replaced run opens a round at t + 1, so its
        # draft pointer is reset there.
        if largest == 2:
            won, first, drafted = accept[0], 0, candidates[0]
        else:
            won, first = accept.any(axis=0), accept.argmax(axis=0)
            drafted = candidates[first, np.arange(len(pending))]
        drawn = us[sizes - 1, np.arange(len(pending))] if mixed else us[sizes - 1]
        columns = self.tables.residual_cums.take((sizes - 1) * stride + rows, axis=1)
        self.tokens[pending, t - 1] = np.where(won, drafted, _sample_rows(columns, drawn))
        self.flags[pending, t - 1] = ~won
        self.draft[pending] += (first + 1) * span
        self.next[pending] = cursor + np.where(won, first + 1, sizes)

    def advance(self, t: int) -> None:
        """Emit every run's token at position t.

        Every run tests one candidate against q at t: a run inside a round
        its followed response's token, a run that opens a round response 0's.
        So one draft/verify pass covers all runs, and only the opening runs
        that reject it go on to ``_respond``.
        """
        span = self.horizon - t + 1
        opening = self.flags[:, t - 2] if t > 1 else np.ones(len(self.draft), dtype=bool)
        opened = opening.nonzero()[0]
        if opened.size:
            sizes = self._sizes_of(opened)
            if self.rngs is not None:
                self._top_up(opened, (sizes + 1) * (span + 1) - 1)
            cursor = self.next[opened]
            self.draft[opened] = cursor
            self.next[opened] = cursor + sizes * span

        candidates, keys = self._draft(self.rows, self._read(self.draft))
        off, empty = self.tables.off_support[t - 1], self.tables.empty_residuals[t - 1]
        if off is not None:
            self.failed |= off[keys]
        accept = self._take(slice(None)) <= self.tables.thresholds.take(keys)
        self.draft += 1
        self.tokens[:, t - 1] = candidates
        rejected = (~accept).nonzero()[0]
        if empty is not None:
            # A failed test against q draws from [q - p]_+ = q^2, keyed r.
            self.failed[rejected] |= empty[self.rows[rejected]]
        pending = rejected[:0]
        if self.largest > 1 and rejected.size:
            # Opening runs that reject response 0 go on to responses 1, ..., M_i - 1.
            first = opening[rejected]
            pending, rejected = rejected[first], rejected[~first]
        if rejected.size:
            columns = self.tables.residual_cums.take(self.rows[rejected], axis=1)
            self.tokens[rejected, t - 1] = _sample_rows(columns, self._take(rejected))
            self.flags[rejected, t - 1] = True
        if pending.size:
            self._respond(t, span, pending, self.rows[pending], off, empty)
        if t < self.horizon:
            # Each run's row at t + 1: its state there, (s*V + x_t) % R_{t+1}, past
            # the level's start. That is x_t where R_{t+1} = V, and else the code.
            starts, tokens = self.tables.starts, self.tokens[:, t - 1]
            count = starts[t + 1] - starts[t]
            self.rows = tokens + starts[t] if count == self.vocab else (
                (self.rows - starts[t - 1]) * self.vocab + tokens) % count + starts[t]
        elif np.any(self.next > self.row_ends):
            raise _overrun(self.width)


@functools.lru_cache(maxsize=None)
def _response_grid(largest: int, horizon: int):
    """Read-only columns over responses m = 1, ..., M - 1 for ``_Lockstep._respond``.

    Returns the responses and, per span L, the offsets from an opening run's
    cursor after response 0's test to the uniforms it may read: 0, ..., M - 1
    for its tests and its replacement, then -1 - (M - m)*L for response m's
    draft.
    """
    responses = np.arange(1, largest)[:, None]
    spans = np.arange(horizon + 1)[:, None, None]
    reads = np.broadcast_to(np.arange(largest)[:, None], (horizon + 1, largest, 1))
    offsets = np.concatenate([reads, -1 - (largest - responses) * spans], axis=1)
    return _read_only(responses), _read_only(offsets)


def _stream_length(batch_size: int, horizon: int) -> int:
    """S(M, T) = 1 + M*T(T+1)/2 + (M+1)*T, the most uniforms one run can read."""
    return 1 + batch_size * horizon * (horizon + 1) // 2 + (batch_size + 1) * horizon


def _window_width(batch_size: int, horizon: int) -> int:
    """2R = 2*(M*T + M + T), twice the most one round reads: the narrowest top-up window."""
    return 2 * (batch_size * horizon + batch_size + horizon)


def _whole_streams(batch_size: int, horizon: int) -> bool:
    """Whether a block draws its runs' whole streams: S(M, T) fits the top-up window."""
    return _stream_length(batch_size, horizon) <= _window_width(batch_size, horizon)


def _block_runs(batch_size: int, horizon: int) -> int:
    """Runs per engine block: about STREAM_BUDGET uniforms of whole streams, else BLOCK_RUNS."""
    if _whole_streams(batch_size, horizon):
        return max(BLOCK_RUNS, STREAM_BUDGET // _stream_length(batch_size, horizon))
    return BLOCK_RUNS


def _block_streams(seed: int, start: int, count: int, batch_sizes, horizon: int):
    """Filled windows of runs start, ..., start + count - 1, and their generators if they top up.

    ``batch_sizes`` is one batch size or a sequence of k of them: the window
    then has k*count rows, size-major, and the k rows of run i hold the same
    stream, drawn once and copied. Its source and width are set by the
    largest size, M. Whole-stream blocks (see ``_whole_streams``) come from
    ``split_uniforms``. A long-stream block of count >= 1 runs fills windows
    of W = min(S, max(2R, WINDOW_BUDGET // (k*count))) uniforms, S and 2R at
    M, from its runs' generators. A row keeps a generator only where W is
    short of the S of its own size: the first such size takes the ones the
    window was filled from, any later one copies from ``split_rngs``
    advanced past W. The generators are None where no row keeps one.
    """
    sizes = np.atleast_1d(batch_sizes).tolist()
    largest, k = max(sizes), len(sizes)
    length = _stream_length(largest, horizon)
    if _whole_streams(largest, horizon):
        streams = split_uniforms(seed, start, count, length)
        return (streams if k == 1 else np.tile(streams, (k, 1))), None
    rngs = split_rngs(seed, start, count)
    budget_share = max(_window_width(largest, horizon), WINDOW_BUDGET // (k * count))
    window = np.empty((k * count, min(length, budget_share)))
    for row, rng in zip(window, rngs):
        rng.random(out=row)
    for j in range(1, k):
        window[j * count : (j + 1) * count] = window[:count]
    width, kept, spare = window.shape[1], [], rngs
    for m in sizes:
        if width >= _stream_length(m, horizon):
            kept += [None] * count
            continue
        if spare is None:
            spare = split_rngs(seed, start, count)
            for rng in spare:
                rng.bit_generator.advance(width)
        kept += spare
        spare = None
    return window, (None if spare is rngs else kept)


def _decoded_block(pair, batch_sizes, policy, tables, seed, start, count) -> MarkovRuns:
    """Runs start, ..., start + count - 1 at each of ``batch_sizes`` in one block, size-major.

    The engine raises no sampler error: the block's first row that it marks
    failed is decoded again on the scalar loop, at that row's batch size and
    on its run's stream, and that call raises the scalar loop's own error.
    A marked row that decodes cleanly is an internal fault.
    """
    window, rngs = _block_streams(seed, start, count, batch_sizes, pair.horizon)
    sizes = batch_sizes[0] if len(batch_sizes) == 1 else np.repeat(batch_sizes, count)
    block = _Lockstep(pair, sizes, tables, window, rngs)
    for t in range(1, pair.horizon + 1):
        block.advance(t)
    if block.failed.any():
        j, i = divmod(int(block.failed.argmax()), count)
        _decode(pair, batch_sizes[j], policy, split_rng(seed, start + i))
        raise RuntimeError(f"the engine marked run {start + i} at batch size "
                           f"{batch_sizes[j]} failed, but the scalar loop decodes it")
    return MarkovRuns(block.prompt_tokens, block.tokens, block.flags.sum(axis=1), block.flags)


def _zero_runs(count: int, horizon: int, flag_type) -> MarkovRuns:
    """``count`` rows of zeros, flags of ``flag_type``, for a block or a call's result."""
    per_run, per_token = np.zeros(count, dtype=np.int64), np.zeros((count, horizon), dtype=np.int64)
    return MarkovRuns(per_run, per_token, per_run.copy(), per_token.astype(flag_type))


def _scalar_block(pair, algorithm, batch_size, policy, seed, start, count) -> MarkovRuns:
    """Runs start, ..., start + count - 1 on the scalar loop, run i on ``split_rng(seed, i)``."""
    runs = _zero_runs(count, pair.horizon, bool)
    for i in range(count):
        rng = split_rng(seed, start + i)
        if algorithm == "autoregressive":
            trajectory = autoregressive_decode(pair.q, rng)
        else:
            trajectory, stats = _decode(pair, batch_size, policy, rng)
            runs.rejections[i], runs.flags[i] = stats.rejections, stats.flags
        runs.prompt_tokens[i], runs.tokens[i] = trajectory.prompt_token, trajectory.tokens
    return runs


def _run_blocks(pair: ModelPair, algorithm: str, batch_sizes, policy, seed: int, start: int,
                count: int):
    """Yield (j, lo, runs): runs start + lo, ... of ``algorithm`` at ``batch_sizes[j]``.

    The one block loop, for arguments ``_run_args`` has checked, and the one
    place a run's route is chosen (see "Routes" in the module docstring). On
    the engine the tables are built once, for the largest size, and every
    block reads them. Packing rule: k > 1 sizes whose k*count rows fit one
    engine block (``_block_runs`` of the largest size) share one block,
    yielded one size at a time with lo = 0; otherwise each size decodes in
    its own blocks, ``_block_runs`` runs on the engine and BLOCK_RUNS on the
    scalar loop, in the order of ``batch_sizes``. Either way, row for row
    the runs are the same, and they go size by size in that order, then run
    by run, so the first run that fails, and so the error raised, is the
    same on both routes (see ``_decoded_block``).
    """
    largest, k = max(batch_sizes), len(batch_sizes)
    tabled = algorithm != "autoregressive" and (policy is None or policy.tables is not None)
    tables = _tables(pair, largest, policy) if tabled else None
    if tables is not None and 1 < k and 0 < k * count <= _block_runs(largest, pair.horizon):
        runs = _decoded_block(pair, batch_sizes, policy, tables, seed, start, count)
        for j in range(k):
            yield j, 0, MarkovRuns(*(column[j * count : (j + 1) * count] for column in runs))
        return
    for j, batch_size in enumerate(batch_sizes):
        step = BLOCK_RUNS if tables is None else _block_runs(batch_size, pair.horizon)
        for lo in range(0, count, step):
            n = min(step, count - lo)
            yield j, lo, (_scalar_block(pair, algorithm, batch_size, policy, seed, start + lo, n)
                          if tables is None else
                          _decoded_block(pair, (batch_size,), policy, tables, seed, start + lo, n))


def decode_markov_runs(pair: ModelPair, batch_size: int, seed: int, start: int, count: int,
                       policy: Policy | None = None) -> MarkovRuns:
    """Runs start, ..., start + count - 1 of a campaign, in lockstep.

    Run i uses the stream ``split_rng(seed, start + i)`` and, by the
    stream-index contract in the module docstring, returns bit-for-bit what
    ``batch_decode(pair, batch_size, split_rng(seed, start + i))`` returns
    (``speculative_decode`` at batch_size 1), or with a ``policy`` what
    ``generic_decode(pair, policy, split_rng(seed, start + i))`` returns
    (batch_size must then be 1, and the policy must have tables). Runs
    advance in blocks (see below), so working memory does not grow with
    ``count``. Every position's threshold, residual-cumsum and check tables
    are built once per call, over one flat layout of every position's rows,
    and each position makes one verify pass over the block's runs (see the
    module docstring). The pair may hold MarkovModels, FullModels or one of
    each, and the policy either layout of tables: the tables are keyed by
    each run's state, its history code modulo the level's row count. A call
    whose tables would pass TABLE_BUDGET decodes on the scalar loop instead,
    with the same result.

    Stream source. No run reads more than S(M, T) = 1 + M*T(T+1)/2 + (M+1)*T
    uniforms. Proof: take a round that opens at position t, with
    L = T - t + 1, and emits positions t, ..., e, w = e - t + 1 of them. It
    reads M*L drafts, at most M root tests, e - t verifies and at most one
    replacement, so at most M*L + M + w uniforms. The rounds' w sum to T and
    they open at distinct positions, so with the prompt's uniform a run reads
    at most 1 + T + (sum over rounds of M*(L + 1)). Every term is positive,
    so that sum is largest when every position opens a round:
    sum_{t=1..T} M*(T - t + 2) = M*T(T+1)/2 + M*T, and the bound is S. A run
    in which every round rejects all M root tests reads exactly S.

    When S is at most the narrowest top-up window width 2R = 2*(M*T + M + T)
    (T <= 2, or T = 3 with M <= 2), blocks hold max(BLOCK_RUNS,
    STREAM_BUDGET // S) runs (5041 at (M, T) = (1, 3), 2978 at (2, 3)). A
    block's windows are ``split_uniforms(seed, start + lo, n, S)``, its runs'
    whole streams drawn at once, and never top up. Otherwise blocks hold at
    most BLOCK_RUNS runs, and a block of n runs builds their generators with
    ``split_rngs`` and fills windows of W = min(S, max(2R, WINDOW_BUDGET // n))
    uniforms from them: at most max(2R*n, WINDOW_BUDGET) uniforms per block.
    Windows with W < S top up from the generators; with W = S they hold
    whole streams and the generators are dropped. Every source gives every
    run the same uniforms, so the choice, which depends only on (M, T, n),
    changes no result. This is the one-size engine case of the block loop
    that campaigns share, ``_run_blocks`` (see "Batch sizes per row" in the
    module docstring): a batch scan may decode these runs in one block with
    its other sizes, with the same result row for row.

    Raises the scalar samplers' error for the first run that fails, a
    RuntimeError on a draft outside p's support or a ZeroResidual, by decoding
    that run again on the scalar loop; so the error is that of the runs
    decoded one by one. Raises TypeError for a pair that is not a ModelPair
    or a policy that is not a Policy or has no tables, and InvalidPolicy, by
    ``_run_args``' rule, when its tables do not fit this pair.
    """
    algorithm = "batch" if policy is None else "generic"
    batch_size, policy = _run_args(pair, algorithm, batch_size, policy)
    if policy is not None and policy.tables is None:
        raise TypeError("decode_markov_runs reads policy tables; this policy has none")
    seed = _int_arg("seed", seed, 0)
    start = _int_arg("start", start, 0)
    count = _int_arg("count", count, 0)
    out = _zero_runs(count, pair.horizon, np.int8)
    for _, lo, runs in _run_blocks(pair, algorithm, (batch_size,), policy, seed, start, count):
        for column, block in zip(out, runs):
            column[lo : lo + len(block)] = block
    return out
