"""Decoding algorithms: autoregressive, speculative, generic rejection, batch.

Speculative, batch and generic decoding are one scalar loop, ``_decode``,
with three entry points: speculative_decode runs its M = 1 round against q,
batch_decode its M-response round against q's iterates, and generic_decode
its M = 1 round under a policy's acceptance and residual rules. All three
therefore share one drawing discipline per round, so runs are reproducible
from a seed and speculative_decode is path-identical to batch_decode at M = 1
and to generic_decode under the speculative policy:

    1. one uniform for x_0 (first round only),
    2. one uniform per drafted token, drafts drawn eagerly to the horizon,
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
:func:`decode_markov_runs` advances many Markov runs in lockstep, one position
at a time, and returns exactly the scalar samplers' trajectories, rejections
and flags. generic_decode reads its stream exactly as speculative decoding
does, so the engine also runs generic policies as the M = 1 round. The
acceptance thresholds and replacement cumsums of every position come from
one source, built once per call over the stacked (T, V, V) rows: q's root
iterates for sd and batch, or a Markov policy's tables (see :class:`Policy`).
Only a policy without tables, such as one that reads more of the history
than x_{n-1}, is asked through its callbacks, with the run's full history and
as often per run as generic_decode asks. At each position every run tests
one candidate against q, the token of the response it follows or, when it
opens a round, response 0's, so one verify pass covers all runs; only opening
runs that reject it go on to responses 1, ..., M - 1.

Stream sources. No run reads more than S(M, T) = 1 + M*T(T+1)/2 + (M+1)*T
uniforms (proved in :func:`decode_markov_runs`). Where S fits the engine's
top-up window of 2*(M*T + M + T) uniforms, that is for T <= 2, or T = 3 with
M <= 2, a block of max(BLOCK_RUNS, STREAM_BUDGET // S) runs draws its runs'
whole streams at once with ``rng.split_uniforms``: about STREAM_BUDGET = 2**16
uniforms, 512 KB, whatever S is, so the fixed numpy cost of seeding and of
each position is shared by thousands of short runs. Longer runs advance in
blocks of BLOCK_RUNS, build one generator per run with ``rng.split_rngs`` and
top their windows up from it. Both give every run the uniforms of
``split_rng(seed, index)``, so neither the source nor the block size changes
a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dist import ZeroResidual, _float_array
from .models import MarkovModel, ModelPair, _as_int
from .rng import split_rngs, split_uniforms

BLOCK_RUNS = 1024
STREAM_BUDGET = 2**16


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

    ``tables``, for a policy that depends on the history through x_{n-1} only,
    is the pair of (T, V, V) arrays (acceptance, residual) with
    ``acceptance[n - 1, s, x]`` and ``residual[n - 1, s]`` what the callbacks
    return at a history ending in s. They are stored as policy_acceptance and
    policy_residual_rows return those values, so invalid tables raise
    InvalidPolicy here, with generic_decode's messages. decode_markov_runs
    reads the tables; generic_decode and the enumeration oracle call the
    callbacks. Build such a policy with :meth:`from_tables`.
    """

    acceptance: Callable[[int, tuple[int, ...], int], float]
    residual: Callable[[int, tuple[int, ...]], np.ndarray]
    tables: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.tables is not None:
            object.__setattr__(self, "tables", _validated_tables(*self.tables))

    @classmethod
    def from_tables(cls, acceptance, residual) -> "Policy":
        """Markov policy b_n(x | s) = acceptance[n - 1, s, x], P_n(. | s) = residual[n - 1, s].

        The callbacks read read-only copies of the two (T, V, V) arrays.
        """
        acceptance, residual = (_frozen(table) for table in (acceptance, residual))
        return cls(*_table_readers(acceptance, residual), (acceptance, residual))


def _frozen(values) -> np.ndarray:
    arr = _float_array(values).copy()
    arr.flags.writeable = False
    return arr


def _table_readers(acceptance: np.ndarray, residual: np.ndarray):
    """Policy callbacks that look up history[-1]'s entries of the (T, V, V) tables."""
    return (
        lambda n, history, candidate: acceptance[n - 1, history[-1], candidate],
        lambda n, history: residual[n - 1, history[-1]],
    )


def _validated_tables(acceptance, residual) -> tuple[np.ndarray, np.ndarray]:
    """(T, V, V) tables as policy_acceptance and policy_residual_rows return their entries.

    Checked and stored over whole tables, but entry for entry as those two
    validators check and return them at history (s,): every acceptance entry
    first, then the residual rows, each position by position. So the stored
    values, signed zeros included, are what generic_decode reads, and an
    InvalidPolicy raised has the validators' message for the first bad
    position.
    """
    acceptance, residual = _float_array(acceptance), _float_array(residual)
    shape = acceptance.shape
    if len(shape) != 3 or shape[1] != shape[2] or residual.shape[:2] != shape[:2]:
        raise InvalidPolicy(
            f"policy tables have shapes {shape} and {residual.shape}, expected (T, V, V)"
        )
    infinite = ~np.isfinite(acceptance)
    if infinite.any():
        raise _not_finite(int(np.argmax(infinite.any(axis=(1, 2)))) + 1)
    if residual.shape[2:] != shape[2:] and shape[0] and shape[1]:
        raise _bad_shape(1, residual.shape[2:])
    tables = (
        # min(1, max(0, b)) as policy_acceptance takes it: -0.0 becomes 0.0.
        np.where(acceptance > 0.0, np.minimum(acceptance, 1.0), 0.0),
        _distributions(np.ascontiguousarray(residual), range(1, shape[0] + 1)),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _sample_index(cumsum: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cumsum, u, side="right"))
    return min(idx, cumsum.size - 1)


def _not_finite(n: int) -> InvalidPolicy:
    return InvalidPolicy(f"acceptance at position {n} is not finite")


def _bad_shape(n: int, shape) -> InvalidPolicy:
    return InvalidPolicy(f"residual at position {n} has shape {shape}")


def _distributions(rows: np.ndarray, positions) -> np.ndarray:
    """(K, H, V) blocks of residual rows, block k at ``positions[k]``, checked and normalised.

    Raises InvalidPolicy for the first block with a row that is not a
    nonnegative vector summing to 1 within 1e-9.
    """
    valid = (np.isfinite(rows) & (rows >= 0.0)).all(axis=(1, 2))
    totals = rows.sum(axis=2)
    off = np.abs(totals - 1.0) > 1e-9
    for k in np.flatnonzero(~valid | off.any(axis=1))[:1].tolist():
        if not valid[k]:
            raise InvalidPolicy(f"residual at position {positions[k]} is not a distribution")
        total = float(totals[k][off[k]][0])
        raise InvalidPolicy(f"residual at position {positions[k]} sums to {total!r}")
    return rows / totals[..., None]


def policy_residual_rows(policy: Policy, n: int, histories, vocab_size: int) -> np.ndarray:
    """Policy residuals at position n for each history, stacked, validated and normalised.

    Calls ``policy.residual`` once per history; raises InvalidPolicy unless
    every row is a length-V nonnegative vector summing to 1 within 1e-9.
    """
    rows = [np.asarray(policy.residual(n, history), dtype=np.float64) for history in histories]
    for row in rows:
        if row.shape != (vocab_size,):
            raise _bad_shape(n, row.shape)
    return _distributions(np.array(rows).reshape(1, len(rows), vocab_size), [n])[0]


def policy_residual_row(policy: Policy, n: int, history: tuple[int, ...], vocab_size: int):
    """Fetch and validate a policy residual; raises InvalidPolicy on bad output."""
    return policy_residual_rows(policy, n, [history], vocab_size)[0]


def policy_acceptance(policy: Policy, n: int, history: tuple[int, ...], candidate: int) -> float:
    b = float(policy.acceptance(n, history, candidate))
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


def _draft_to_horizon(p, history: tuple[int, ...], start: int, horizon: int, rng) -> list[int]:
    us = rng.random(horizon - start + 1)
    tokens: list[int] = []
    for offset, t in enumerate(range(start, horizon + 1)):
        token = _sample_index(p.step_cumsum(t, history), us[offset])
        tokens.append(token)
        history += (token,)
    return tokens


def _no_residual(t: int, m: int) -> ZeroResidual:
    """The error for a rejection at position t by the test against iterate q^m (q^1 = q)."""
    return ZeroResidual(f"rejection at position {t} with tv(q^{m}, p) = 0")


def _decode(
    pair: ModelPair, batch_size: int, policy: Policy | None, rng
) -> tuple[Trajectory, RunStats]:
    """One run of batch speculative sampling, or of a policy's rejection rule at M = 1.

    Round structure at position n0 with prefix h:
      * M = batch_size responses are drafted from p to the horizon, one
        oracle batch.
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
        responses = [_draft_to_horizon(p, history, start, horizon, rng) for _ in range(batch_size)]
        for t in range(start, horizon + 1):
            p_row = p.step(t, history)
            target = q.step(t, history) if policy is None else None
            for m, response in enumerate(responses, start=1):
                candidate = response[t - start]
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
                    responses = [response]
                    history += (candidate,)
                    break
                if policy is None:
                    weights = np.maximum(target - p_row, 0.0)
                    total = float(weights.sum())
                    if total <= 0.0:
                        raise _no_residual(t, m)
                    target = weights / total
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
    return _decode(pair, 1, None, rng)


def generic_decode(
    pair: ModelPair, policy: Policy, rng: np.random.Generator
) -> tuple[Trajectory, RunStats]:
    """Rejection decoding with caller-supplied acceptance and residual rules.

    Draws uniforms in the same order as speculative_decode, so the speculative
    policy reproduces its trajectories path-for-path under a shared seed.
    """
    if not isinstance(policy, Policy):
        raise TypeError(f"{policy!r} is not a Policy")
    return _decode(pair, 1, policy, rng)


def batch_decode(
    pair: ModelPair, batch_size: int, rng: np.random.Generator
) -> tuple[Trajectory, RunStats]:
    """Batch speculative sampling with M = batch_size draft responses per round.

    Rounds are as described in ``_decode``. With batch_size=1 this is
    speculative decoding exactly.
    """
    batch_size = _as_int(batch_size)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return _decode(pair, batch_size, None, rng)


class MarkovRuns(NamedTuple):
    """Runs of :func:`decode_markov_runs`, one row per run in run order.

    ``tokens[i]`` and ``flags[i]`` have length T and ``flags.sum(axis=1)``
    equals ``rejections``, as in :class:`RunStats`.
    """

    prompt_tokens: np.ndarray
    tokens: np.ndarray
    rejections: np.ndarray
    flags: np.ndarray


def _sample_rows(cumsums: np.ndarray, us: np.ndarray) -> np.ndarray:
    """``_sample_index`` of row k of ``cumsums`` (or one shared row) at ``us[k]``.

    A cumsum row is nondecreasing, so searchsorted(side="right") is the count
    of its entries <= u.
    """
    counts = (cumsums <= us[:, None]).sum(axis=-1)
    return np.minimum(counts, cumsums.shape[-1] - 1)


def _iterate_tables(q_rows: np.ndarray, p_rows: np.ndarray, batch_size: int):
    """Iterates q^1..q^{M+1} of every state row and the M normalisers between them.

    Rows run along the last axis. Row s is computed by the scalar loop's own
    float operations on that row, q^{m+1} = max(q^m - p, 0) / sum, so the
    tables are bit-equal to the iterates ``_decode`` tests a round's first
    tokens against. A zero normaliser leaves NaN rows, which are read only
    after the ZeroResidual check has already raised.
    """
    iterates, totals = [q_rows], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(batch_size):
            weights = np.maximum(iterates[-1] - p_rows, 0.0)
            totals.append(weights.sum(axis=-1))
            iterates.append(weights / totals[-1][..., None])
    return iterates, totals


class _Tables(NamedTuple):
    """Every position's tables for one :func:`decode_markov_runs` call, stacked over n.

    ``p_rows`` and ``p_cums`` are p's (T, V, V) rows and their cumsums.
    ``thresholds[m][n - 1]`` and ``residual_cums[m][n - 1]`` are (V, V)
    tables over (x_{n-1}, x): the acceptance threshold of a candidate tested
    against iterate m + 1 at position n, and the cumsum of the replacement
    row drawn after that test fails; ``totals[m][n - 1]`` is the normaliser
    of iterate m + 2. Without a policy they come from the root iterates of q;
    with a tabular policy (M = 1) from its tables, and ``totals`` is None. A
    policy without tables leaves all three None and is asked through its
    callbacks.
    """

    p_rows: np.ndarray
    p_cums: np.ndarray
    thresholds: list | None
    residual_cums: list | None
    totals: list | None


def _tables(pair: ModelPair, batch_size: int, policy: Policy | None) -> _Tables:
    p_rows, p_cums = np.stack([step.rows for step in pair.p.steps]), pair.p.step_cumsums
    if policy is None:
        q_rows = np.stack([step.rows for step in pair.q.steps])
        iterates, totals = _iterate_tables(q_rows, p_rows, batch_size)
        with np.errstate(divide="ignore", invalid="ignore"):
            thresholds = [iterate / p_rows for iterate in iterates[:-1]]
        residual_cums = [np.cumsum(iterate, axis=-1) for iterate in iterates[1:]]
        return _Tables(p_rows, p_cums, thresholds, residual_cums, totals)
    if policy.tables is not None:
        acceptance, residual = policy.tables
        return _Tables(p_rows, p_cums, [acceptance], [np.cumsum(residual, axis=-1)], None)
    return _Tables(p_rows, p_cums, None, None, None)


class _Lockstep:
    """One block of runs advanced together, one position at a time.

    Each run keeps a window of its uniform stream: ``window[i, cursor[i]]`` is
    its next unread uniform. With ``rngs`` None the window holds every
    uniform a run can read. Otherwise it holds twice the most one round can
    read (M*L drafts, M root tests, L - 1 verifies, one replacement), and a
    run whose window is short at a round start slides it down and tops it up
    from its own generator ``rngs[i]``, so the working memory is fixed per
    block.

    Thresholds and replacement rows come from ``tables`` (see
    :class:`_Tables`). A policy without tables is asked through its callbacks
    as generic_decode asks them: acceptance once per verified run and
    residual once per rejected run, each with the run's full history.
    """

    def __init__(self, pair: ModelPair, batch_size: int, tables: _Tables, window, rngs,
                 policy=None) -> None:
        self.horizon, self.batch_size, self.tables = pair.horizon, batch_size, tables
        self.vocab_size, self.policy, self.rngs = pair.vocab_size, policy, rngs
        self.window, count = window, len(window)
        self.runs = np.arange(count)
        self.cursor = np.zeros(count, dtype=np.int64)
        self.state = _sample_rows(pair.q.prompt_cumsum, self._read(self.runs))
        self.prompt_tokens = self.state.copy()
        self.follow = np.full(count, -1, dtype=np.int64)  # -1: the run opens a round
        self.base = np.zeros(count, dtype=np.int64)
        self.round_start = np.zeros(count, dtype=np.int64)
        self.tokens = np.empty((count, self.horizon), dtype=np.int64)
        self.flags = np.zeros((count, self.horizon), dtype=np.int8)

    def _read(self, runs: np.ndarray) -> np.ndarray:
        us = self.window[runs, self.cursor[runs]]
        self.cursor[runs] += 1
        return us

    def _top_up(self, runs: np.ndarray, need: int) -> None:
        width = self.window.shape[1]
        for i in runs[width - self.cursor[runs] < need].tolist():
            used = int(self.cursor[i])
            row = self.window[i]
            row[: width - used] = row[used:]
            self.rngs[i].random(out=row[width - used:])
            self.cursor[i] = 0

    def _histories(self, runs, t) -> list[tuple[int, ...]]:
        """History tuples (x_0, ..., x_{t-1}) of ``runs``."""
        prefix = np.column_stack((self.prompt_tokens[runs], self.tokens[runs, : t - 1]))
        return [tuple(row) for row in prefix.tolist()]

    def _draft(self, runs, columns, t):
        """States and draft tokens of ``runs`` at position t, from window ``columns``."""
        states = self.state[runs]
        candidates = _sample_rows(self.tables.p_cums[t - 1, states], self.window[runs, columns])
        off = self.tables.p_rows[t - 1, states, candidates] <= 0.0
        if off.any():
            token = int(candidates[np.argmax(off)])
            raise RuntimeError(f"draft token {token} outside p's support at position {t}")
        return states, candidates

    def _accept(self, runs, t, m, states, candidates) -> np.ndarray:
        """Which of ``runs``' candidates at t pass the test against iterate m + 1 (q at m = 0)."""
        if self.tables.thresholds is None:
            threshold = np.array([
                policy_acceptance(self.policy, t, history, candidate)
                for history, candidate in zip(self._histories(runs, t), candidates.tolist())
            ])
        else:
            threshold = self.tables.thresholds[m][t - 1, states, candidates]
        return self._read(runs) <= threshold

    def _emit(self, runs, t, tokens, rejected: bool) -> None:
        self.tokens[runs, t - 1] = tokens
        self.state[runs] = tokens
        if rejected:
            self.flags[runs, t - 1] = 1
            self.follow[runs] = -1

    def _check_residual(self, t, m, states) -> None:
        """Raise the scalar loop's ZeroResidual if a row of iterate m + 1 at ``states`` is empty."""
        totals = self.tables.totals
        if totals is not None and np.any(totals[m - 1][t - 1, states] <= 0.0):
            raise _no_residual(t, m)

    def _replace(self, runs, t, m, states) -> None:
        """Emit the tokens of ``runs`` rejected at t by the test against iterate m."""
        if self.tables.thresholds is None:
            rows = policy_residual_rows(self.policy, t, self._histories(runs, t), self.vocab_size)
            cums = np.cumsum(rows, axis=1)
        else:
            self._check_residual(t, m, states)
            cums = self.tables.residual_cums[m - 1][t - 1, states]
        self._emit(runs, t, _sample_rows(cums, self._read(runs)), rejected=True)

    def advance(self, t: int) -> None:
        """Emit every run's token at position t.

        Every run tests one candidate against q at t: a run inside a round
        its followed response's token, a run that opens a round response 0's.
        So one draft/accept pass covers all runs, and only the opening runs
        that reject it go on to test responses 1, ..., M - 1.
        """
        span = self.horizon - t + 1
        opening = np.flatnonzero(self.follow < 0)
        if opening.size:
            if self.rngs is not None:
                self._top_up(opening, (self.batch_size + 1) * (span + 1) - 1)
            self.base[opening] = self.cursor[opening]
            self.cursor[opening] += self.batch_size * span
            self.round_start[opening] = t
            self.follow[opening] = 0

        runs, offset = self.runs, t - self.round_start
        columns = self.base + self.follow * (offset + span) + offset
        states, candidates = self._draft(runs, columns, t)
        accept = self._accept(runs, t, 0, states, candidates)
        self._emit(runs[accept], t, candidates[accept], rejected=False)
        rejected = np.flatnonzero(~accept)
        # With M > 1, opening runs (offset 0) that reject response 0 test response 1.
        opened = (offset[rejected] == 0) & (self.batch_size > 1)
        pending, rejected = rejected[opened], rejected[~opened]
        if rejected.size:
            self._replace(rejected, t, 1, states[rejected])
        if not pending.size:
            return
        states = states[pending]
        for m in range(1, self.batch_size):
            self._check_residual(t, m, states)
            columns = self.base[pending] + m * span
            states, candidates = self._draft(pending, columns, t)
            accept = self._accept(pending, t, m, states, candidates)
            self._emit(pending[accept], t, candidates[accept], rejected=False)
            self.follow[pending[accept]] = m
            pending, states = pending[~accept], states[~accept]
            if not pending.size:
                return
        self._replace(pending, t, self.batch_size, states)


def _stream_length(batch_size: int, horizon: int) -> int:
    """S(M, T) = 1 + M*T(T+1)/2 + (M+1)*T, the most uniforms one run can read."""
    return 1 + batch_size * horizon * (horizon + 1) // 2 + (batch_size + 1) * horizon


def _window_width(batch_size: int, horizon: int) -> int:
    """Twice the most one round can read: the width of a window that tops up."""
    return 2 * (batch_size * horizon + batch_size + horizon)


def _whole_streams(batch_size: int, horizon: int) -> bool:
    """Whether a block draws its runs' whole streams: S(M, T) fits the top-up window."""
    return _stream_length(batch_size, horizon) <= _window_width(batch_size, horizon)


def _block_runs(batch_size: int, horizon: int) -> int:
    """Runs per engine block: about STREAM_BUDGET uniforms of whole streams, else BLOCK_RUNS."""
    if _whole_streams(batch_size, horizon):
        return max(BLOCK_RUNS, STREAM_BUDGET // _stream_length(batch_size, horizon))
    return BLOCK_RUNS


def _block_streams(seed: int, start: int, count: int, batch_size: int, horizon: int):
    """Filled windows of runs start, ..., start + count - 1, and their generators if they top up."""
    if _whole_streams(batch_size, horizon):
        return split_uniforms(seed, start, count, _stream_length(batch_size, horizon)), None
    rngs = split_rngs(seed, start, count)
    window = np.empty((count, _window_width(batch_size, horizon)))
    for row, rng in zip(window, rngs):
        rng.random(out=row)
    return window, rngs


def decode_markov_runs(
    pair: ModelPair,
    batch_size: int,
    seed: int,
    start: int,
    count: int,
    policy: Policy | None = None,
) -> MarkovRuns:
    """Runs start, ..., start + count - 1 of a campaign on a Markov pair, in lockstep.

    Run i uses the stream ``split_rng(seed, start + i)`` and, by the
    stream-index contract in the module docstring, returns bit-for-bit what
    ``batch_decode(pair, batch_size, split_rng(seed, start + i))`` returns
    (``speculative_decode`` at batch_size 1), or with a ``policy`` what
    ``generic_decode(pair, policy, split_rng(seed, start + i))`` returns
    (batch_size must then be 1). Runs advance in blocks (see below), so
    working memory does not grow with ``count``. Every position's threshold,
    residual-cumsum and normaliser tables are built once per call, over the
    stacked (T, V, V) rows, and each position makes one verify pass over the
    block's runs (see the module docstring).

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

    When S is at most the top-up window width 2*(M*T + M + T) (T <= 2, or
    T = 3 with M <= 2), blocks hold max(BLOCK_RUNS, STREAM_BUDGET // S) runs
    (5041 at (M, T) = (1, 3), 2978 at (2, 3)). A block's windows are
    ``split_uniforms(seed, start + lo, n, S)``, its runs' whole streams drawn
    at once, and never top up. Otherwise blocks hold BLOCK_RUNS runs, and
    each builds its runs' generators with ``split_rngs`` and tops windows of
    that width up from them. Both sources give every run the same uniforms,
    so the choice, which depends only on (M, T), changes no result.

    Raises RuntimeError on a draft outside p's support, and ZeroResidual or
    InvalidPolicy where the scalar samplers do; InvalidPolicy also when a
    policy's tables are not (T, V, V) for this pair.
    """
    if not isinstance(pair.p, MarkovModel) or not isinstance(pair.q, MarkovModel):
        raise TypeError("decode_markov_runs requires a pair of MarkovModels")
    batch_size, seed, start, count = (_as_int(v) for v in (batch_size, seed, start, count))
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if policy is not None and batch_size != 1:
        raise ValueError("policy runs need batch_size 1")
    if seed < 0 or start < 0 or count < 0:
        raise ValueError("seed, start and count must be >= 0")
    horizon = pair.horizon
    shape = (horizon, pair.vocab_size, pair.vocab_size)
    if policy is not None and policy.tables is not None and policy.tables[0].shape != shape:
        raise InvalidPolicy(f"policy tables have shape {policy.tables[0].shape}, expected {shape}")
    out = MarkovRuns(
        np.empty(count, dtype=np.int64),
        np.empty((count, horizon), dtype=np.int64),
        np.empty(count, dtype=np.int64),
        np.empty((count, horizon), dtype=np.int8),
    )
    tables = _tables(pair, batch_size, policy)
    step = _block_runs(batch_size, horizon)
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        streams = _block_streams(seed, start + lo, hi - lo, batch_size, horizon)
        block = _Lockstep(pair, batch_size, tables, *streams, policy)
        for t in range(1, horizon + 1):
            block.advance(t)
        out.prompt_tokens[lo:hi] = block.prompt_tokens
        out.tokens[lo:hi] = block.tokens
        out.flags[lo:hi] = block.flags
        out.rejections[lo:hi] = block.flags.sum(axis=1)
    return out
