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
:func:`decode_markov_runs` advances many Markov runs in lockstep, one position
at a time, and returns exactly the scalar samplers' trajectories, rejections
and flags. generic_decode reads its stream exactly as speculative decoding
does, so the engine also runs generic policies as the M = 1 round. The engine
reads tables only: the acceptance thresholds and replacement cumsums of every
position come from one source, built once per call over the stacked (T, V, V)
rows, q's root iterates for sd and batch or a Markov policy's tables (see
:class:`Policy`). A policy without tables, such as one that reads more of the
history than x_{n-1}, runs through generic_decode. At each position every run
tests one candidate against q, the token of the response it follows or, when
it opens a round, response 0's, so one verify pass covers all runs; only
opening runs that reject it go on to responses 1, ..., M - 1. A run's state
between positions is its next-uniform index and a draft pointer to the
followed response's next draft uniform; a run opens a round where its last
token was a replacement. Uniforms are read by flat index into the block's
window and table entries by x_{n-1}*V + x, and the off-support and
zero-residual checks run only at the positions (and iterates) where the
call's tables show they can fire (see :class:`_Lockstep`).

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
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dist import ZeroResidual, _float_array, _int_arg, _normalized_rows, _residual_rows
from .models import ModelPair, _as_int, _is_markov_pair
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
    A residual row is held to Dist's rule, ``dist._normalized_rows``, and an
    InvalidPolicy names the position of the first bad row.

    ``tables``, for a policy that depends on the history through x_{n-1} only,
    is the pair of (T, V, V) arrays (acceptance, residual) with
    ``acceptance[n - 1, s, x]`` and ``residual[n - 1, s]`` what the callbacks
    return at a history ending in s. They are stored as policy_acceptance and
    policy_residual_rows return those values, so invalid tables raise
    InvalidPolicy, with generic_decode's messages. decode_markov_runs reads the
    tables and refuses a policy without them; generic_decode and the
    enumeration oracle call the callbacks. Only :meth:`from_tables` sets
    ``tables``, with callbacks that read them, so both routes decode the same
    runs for one policy.
    """

    acceptance: Callable[[int, tuple[int, ...], int], float]
    residual: Callable[[int, tuple[int, ...]], np.ndarray]
    tables: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_tables(cls, acceptance, residual) -> "Policy":
        """Markov policy b_n(x | s) = acceptance[n - 1, s, x], P_n(. | s) = residual[n - 1, s].

        The callbacks read read-only copies of the two (T, V, V) arrays.
        """
        acceptance, residual = (_frozen(table) for table in (acceptance, residual))
        policy = cls(*_table_readers(acceptance, residual))
        object.__setattr__(policy, "tables", _validated_tables(acceptance, residual))
        return policy


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
    positions = range(1, shape[0] + 1)
    acceptance = _acceptances(acceptance, positions)
    if residual.shape[2:] != shape[2:] and shape[0] and shape[1]:
        raise _bad_shape(1, residual.shape[2:])
    tables = (acceptance, _distributions(np.ascontiguousarray(residual), positions))
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
    prefixed ``residual at position n:``.
    """
    rows = [_residual_check(n, _float_array, policy.residual(n, h)) for h in histories]
    for row in rows:
        if row.shape != (vocab_size,):
            raise _bad_shape(n, row.shape)
    return _residual_check(n, _normalized_rows, np.array(rows).reshape(len(rows), vocab_size))


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


def _no_residual(t: int, m: int) -> ZeroResidual:
    """The error for a rejection at position t by the test against iterate q^m (q^1 = q)."""
    return ZeroResidual(f"rejection at position {t} with tv(q^{m}, p) = 0")


def _decode(
    pair: ModelPair, batch_size: int, policy: Policy | None, rng
) -> tuple[Trajectory, RunStats]:
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
                        raise _no_residual(t, m)
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
    A missing policy raises ValueError and a non-Policy TypeError, as for
    campaigns and the enumeration oracle.
    """
    return _decode(pair, *_run_args("generic", 1, policy), rng)


def _run_args(algorithm: str, batch_size, policy) -> tuple[int, Policy | None]:
    """The (batch_size, policy) that ``_decode`` takes for a run of ``algorithm``.

    Only batch runs take a batch_size other than 1, and generic runs, and
    only they, take a policy, which must be a Policy (else TypeError).
    """
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
    return batch_size, policy


def batch_decode(
    pair: ModelPair, batch_size: int, rng: np.random.Generator
) -> tuple[Trajectory, RunStats]:
    """Batch speculative sampling with M = batch_size draft responses per round.

    Rounds are as described in ``_decode``. With batch_size=1 this is
    speculative decoding exactly.
    """
    return _decode(pair, *_run_args("batch", batch_size, None), rng)


class MarkovRuns(NamedTuple):
    """Runs of :func:`decode_markov_runs`, one row per run in run order.

    ``tokens[i]`` and ``flags[i]`` have length T and ``flags.sum(axis=1)``
    equals ``rejections``, as in :class:`RunStats`.
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
    """(T, V, V) row cumsums as (T, V - 1, V) columns for ``_sample_rows``: ``[n - 1, k, s]``."""
    return np.ascontiguousarray(cums[..., :-1].swapaxes(1, 2))


def _where_needed(masks, needed: np.ndarray) -> list:
    """``masks[n - 1]`` at each position n with ``needed[n - 1]``, None at the others."""
    return [mask if need else None for mask, need in zip(masks, needed.tolist())]


class _Tables(NamedTuple):
    """Every position's tables for one :func:`decode_markov_runs` call, stacked over n.

    A table over (x_{n-1}, x) = (s, x) is a (T, V*V) array keyed s*V + x, and
    a table of rows to sample is a stack of (V - 1, V) cumsum columns (see
    ``_cum_columns``). ``p_cums`` are p's. ``thresholds[m]`` is the acceptance
    threshold of a candidate tested against iterate m + 1, and
    ``residual_cums[m]`` the replacement row drawn after that test fails.
    Without a policy they come from the root iterates of q, q^1 = q and
    q^{m+1} = [q^m - p]_+, formed row by row by the scalar loop's own kernel,
    so they are bit-equal to the iterates ``_decode`` tests a round's first
    tokens against. With a tabular policy (M = 1) they come from its tables.

    The check tables say where :class:`_Lockstep` must check.
    ``off_support[n - 1]`` is the (V*V,) mask of p_n(x | s) <= 0 at a
    position n where some row of p has no mass on token V - 1, and None
    elsewhere.
    ``empty_residuals[m - 1][n - 1]`` is the (V,) mask of the states s whose
    max(q^m - p, 0) sums to <= 0, at an (m, n) with such a state, and None
    elsewhere; it is always None for a policy.
    """

    p_cums: np.ndarray
    thresholds: list
    residual_cums: list
    off_support: list
    empty_residuals: list


def _tables(pair: ModelPair, batch_size: int, policy: Policy | None) -> _Tables:
    p_rows = pair.p.step_rows
    horizon, vocab = p_rows.shape[:2]
    if policy is not None:
        thresholds, residuals = ([table] for table in policy.tables)
        empty = [np.zeros((horizon, vocab), dtype=bool)]
    else:
        iterates, empty = [pair.q.step_rows], []
        for _ in range(batch_size):
            iterate, total = _residual_rows(iterates[-1], p_rows)
            iterates.append(iterate)
            empty.append(total <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            thresholds = [iterate / p_rows for iterate in iterates[:-1]]
        residuals = iterates[1:]
    keyed, off = (horizon, vocab * vocab), p_rows <= 0.0
    return _Tables(
        _cum_columns(pair.p.step_cumsums),
        [threshold.reshape(keyed) for threshold in thresholds],
        [_cum_columns(np.cumsum(rows, axis=-1)) for rows in residuals],
        _where_needed(off.reshape(keyed), off[:, :, -1].any(axis=1)),
        [_where_needed(mask, mask.any(axis=1)) for mask in empty],
    )


def _overrun(width: int) -> RuntimeError:
    return RuntimeError(f"a run read past the end of its {width}-uniform window")


class _Lockstep:
    """One block of runs advanced together, one position at a time.

    Each run keeps a row of a (runs, width) window of its uniform stream, read
    through the flat ``uniforms`` (a view of a C-contiguous window, as
    ``_block_streams`` makes them) by absolute index: ``next[i]`` is run i's
    next unread uniform, and ``cursor`` the same index relative to its row.
    With ``rngs`` None the row holds every uniform a run can read. Otherwise
    it holds twice the most one round can read (M*L drafts, M root tests,
    L - 1 verifies, one replacement), and a run whose row is short at a round
    opening slides it down and tops it up from its own generator ``rngs[i]``,
    so the working memory is fixed per block.

    Draft pointers. A run opens a round at position 1 and after each
    replacement (its flag at t - 1). At an opening, ``draft[i]`` is set to
    the cursor, the M*L draft uniforms are reserved, and it then moves
    forward one per emitted position, so it always points at the followed
    response's draft uniform for the current position; when a root accepts
    response m, it becomes ``base + m*L`` (base being the opening cursor).

    Checks. Thresholds, replacement rows and check tables come from ``tables``
    (see :class:`_Tables`); each check runs only where its table asks.
    Off-support: ``_sample_rows`` lands on a token k < V - 1 only when
    cums[k - 1] <= u < cums[k], so cums[k] > cums[k - 1] and p[k] > 0 (for
    k = 0, u < cums[0] = p[0]); only its clamp to V - 1 can land on a token
    without mass, so the check is needed only at positions where some p row
    has no mass on token V - 1. Zero residual: a rejection against iterate m
    at state s needs [q^m - p]_+ there, which is empty only where its
    normaliser is <= 0. Both raise the scalar loop's errors, in its order.

    Window guard. A read past a row's end would read the next run's stream
    (or be clipped to the block's last uniform) rather than fail, so a
    RuntimeError is raised when a run's cursor has passed the window width.
    Every read index is below the cursor, and a cursor only moves back at a
    top-up, so checking at each top-up and at the block's last position
    covers every read.
    """

    def __init__(self, pair: ModelPair, batch_size: int, tables: _Tables, window, rngs) -> None:
        self.horizon, self.batch_size, self.vocab = pair.horizon, batch_size, pair.vocab_size
        self.tables, self.rngs, self.uniforms = tables, rngs, window.reshape(-1)
        count, self.width = window.shape
        self.row_starts = np.arange(count) * self.width
        self.row_ends = self.row_starts + self.width
        self.next = self.row_starts.copy()
        self.prompt_tokens = _sample_rows(pair.q.prompt_cumsum[:-1, None], self._take(slice(None)))
        self.draft = np.zeros(count, dtype=np.int64)
        self.tokens = np.empty((count, self.horizon), dtype=np.int64)
        self.flags = np.zeros((count, self.horizon), dtype=bool)

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

    def _top_up(self, runs: np.ndarray, need: int) -> None:
        """Slide down and refill each row of ``runs`` with fewer than ``need`` unread uniforms."""
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

    def _draft(self, t, states, pointers):
        """Draft tokens at position t from ``states``, drawn at ``pointers``, and their keys."""
        columns = self.tables.p_cums[t - 1].take(states, axis=1)
        candidates = _sample_rows(columns, self._read(pointers))
        keys = states * self.vocab + candidates
        off = self.tables.off_support[t - 1]
        if off is not None and off[keys].any():
            token = int(candidates[np.argmax(off[keys])])
            raise RuntimeError(f"draft token {token} outside p's support at position {t}")
        return candidates, keys

    def _verify(self, runs, t, m, keys) -> np.ndarray:
        """Which of ``runs``' candidates at t pass the test against iterate m + 1 (q at m = 0)."""
        return self._take(runs) <= self.tables.thresholds[m][t - 1][keys]

    def _check_residual(self, t, m, states) -> None:
        """Raise the scalar loop's ZeroResidual if a row of iterate m + 1 at ``states`` is empty."""
        empty = self.tables.empty_residuals[m - 1][t - 1]
        if empty is not None and empty[states].any():
            raise _no_residual(t, m)

    def _replace(self, runs, t, m, states) -> None:
        """Emit the tokens of ``runs`` rejected at t by the test against iterate m."""
        self._check_residual(t, m, states)
        columns = self.tables.residual_cums[m - 1][t - 1].take(states, axis=1)
        self.tokens[runs, t - 1] = _sample_rows(columns, self._take(runs))
        self.flags[runs, t - 1] = True

    def _respond(self, t, span, pending, states) -> None:
        """Test responses 1, ..., M - 1 for the opening runs ``pending`` that rejected response 0.

        Their draft pointers are at base + 1; response m's draft at t is base + m*L.
        """
        for m in range(1, self.batch_size):
            self._check_residual(t, m, states)
            pointers = self.draft[pending] + (m * span - 1)
            candidates, keys = self._draft(t, states, pointers)
            accept = self._verify(pending, t, m, keys)
            accepted = pending[accept]
            self.tokens[accepted, t - 1] = candidates[accept]
            self.draft[accepted] = pointers[accept] + 1
            pending, states = pending[~accept], states[~accept]
            if not pending.size:
                return
        self._replace(pending, t, self.batch_size, states)

    def advance(self, t: int) -> None:
        """Emit every run's token at position t.

        Every run tests one candidate against q at t: a run inside a round
        its followed response's token, a run that opens a round response 0's.
        So one draft/verify pass covers all runs, and only the opening runs
        that reject it go on to test responses 1, ..., M - 1.
        """
        span, batch_size = self.horizon - t + 1, self.batch_size
        opening = self.flags[:, t - 2] if t > 1 else np.ones(len(self.draft), dtype=bool)
        opened = opening.nonzero()[0]
        if opened.size:
            if self.rngs is not None:
                self._top_up(opened, (batch_size + 1) * (span + 1) - 1)
            cursor = self.next[opened]
            self.draft[opened] = cursor
            self.next[opened] = cursor + batch_size * span

        states = self.tokens[:, t - 2] if t > 1 else self.prompt_tokens
        candidates, keys = self._draft(t, states, self.draft)
        accept = self._verify(slice(None), t, 0, keys)
        self.draft += 1
        self.tokens[:, t - 1] = candidates
        rejected = (~accept).nonzero()[0]
        pending = rejected[:0]
        if batch_size > 1 and rejected.size:
            # Opening runs that reject response 0 test response 1.
            first = opening[rejected]
            pending, rejected = rejected[first], rejected[~first]
        if rejected.size:
            self._replace(rejected, t, 1, states[rejected])
        if pending.size:
            self._respond(t, span, pending, states[pending])
        if t == self.horizon and np.any(self.next > self.row_ends):
            raise _overrun(self.width)


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
    (batch_size must then be 1, and the policy must have tables). Runs
    advance in blocks (see below), so working memory does not grow with
    ``count``. Every position's threshold, residual-cumsum and normaliser
    tables are built once per call, over the stacked (T, V, V) rows, and each
    position makes one verify pass over the block's runs (see the module
    docstring).

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

    Raises RuntimeError on a draft outside p's support and ZeroResidual where
    the scalar samplers do, TypeError for a policy that is not a Policy or has
    no tables, and InvalidPolicy when its tables are not (T, V, V) for this
    pair.
    """
    if not _is_markov_pair(pair):
        raise TypeError("decode_markov_runs requires a pair of MarkovModels")
    algorithm = "batch" if policy is None else "generic"
    batch_size, policy = _run_args(algorithm, batch_size, policy)
    if policy is not None and policy.tables is None:
        raise TypeError("decode_markov_runs reads policy tables; this policy has none")
    seed, start, count = (_as_int(v) for v in (seed, start, count))
    if seed < 0 or start < 0 or count < 0:
        raise ValueError("seed, start and count must be >= 0")
    horizon = pair.horizon
    shape = (horizon, pair.vocab_size, pair.vocab_size)
    if policy is not None and policy.tables[0].shape != shape:
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
        block = _Lockstep(pair, batch_size, tables, *streams)
        for t in range(1, horizon + 1):
            block.advance(t)
        out.prompt_tokens[lo:hi] = block.prompt_tokens
        out.tokens[lo:hi] = block.tokens
        out.flags[lo:hi] = block.flags
        out.rejections[lo:hi] = block.flags.sum(axis=1)
    return out
