"""Decoding algorithms: autoregressive, speculative, generic rejection, batch.

All samplers share one drawing discipline per round so that runs are
reproducible from a seed and speculative_decode is path-identical to
generic_decode under the speculative policy:

    1. one uniform for x_0 (first round only),
    2. one uniform per drafted token, drafts drawn eagerly to the horizon,
    3. one uniform per verified position,
    4. one uniform for the replacement token after a rejection.

Rejections and oracle calls coincide: each rejection triggers exactly one
fresh target evaluation, and neither the initial drafting pass nor a final
fully-accepted round is charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import ZeroResidual
from .models import ModelPair


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
    """

    acceptance: Callable[[int, tuple[int, ...], int], float]
    residual: Callable[[int, tuple[int, ...]], np.ndarray]


def _sample_index(cumsum: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cumsum, u, side="right"))
    return min(idx, cumsum.size - 1)


def policy_residual_row(policy: Policy, n: int, history: tuple[int, ...], vocab_size: int):
    """Fetch and validate a policy residual; raises InvalidPolicy on bad output."""
    row = np.asarray(policy.residual(n, history), dtype=np.float64)
    if row.shape != (vocab_size,):
        raise InvalidPolicy(f"residual at position {n} has shape {row.shape}")
    if not np.all(np.isfinite(row)) or np.any(row < 0.0):
        raise InvalidPolicy(f"residual at position {n} is not a distribution")
    total = float(row.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidPolicy(f"residual at position {n} sums to {total!r}")
    return row / total


def policy_acceptance(policy: Policy, n: int, history: tuple[int, ...], candidate: int) -> float:
    b = float(policy.acceptance(n, history, candidate))
    if not np.isfinite(b):
        raise InvalidPolicy(f"acceptance at position {n} is not finite")
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


def speculative_decode(pair: ModelPair, rng: np.random.Generator) -> tuple[Trajectory, RunStats]:
    """Speculative decoding with lookahead equal to the remaining horizon.

    Each round drafts from p up to the horizon, accepts candidate x with
    probability min(1, q(x)/p(x)), and on the first rejection replaces the
    token with a draw from [q - p]_+ before re-drafting.
    """
    p, q, horizon = pair.p, pair.q, pair.horizon
    x0 = _sample_index(pair.q.prompt_cumsum, rng.random())
    history = (x0,)
    flags = [0] * horizon
    rejections = 0
    n = 1
    while n <= horizon:
        draft = _draft_to_horizon(p, history, n, horizon, rng)
        for offset, t in enumerate(range(n, horizon + 1)):
            candidate = draft[offset]
            p_row = p.step(t, history)
            q_row = q.step(t, history)
            p_cand = float(p_row[candidate])
            if p_cand <= 0.0:
                raise RuntimeError(f"draft token {candidate} outside p's support at position {t}")
            u = rng.random()
            if u <= min(1.0, float(q_row[candidate]) / p_cand):
                history += (candidate,)
                n = t + 1
                continue
            rejections += 1
            flags[t - 1] = 1
            weights = np.maximum(q_row - p_row, 0.0)
            total = float(weights.sum())
            if total <= 0.0:
                raise ZeroResidual(f"rejection at position {t} with tv(q, p) = 0")
            token = _sample_index(np.cumsum(weights / total), rng.random())
            history += (token,)
            n = t + 1
            break
    return Trajectory(x0, history[1:]), RunStats(rejections, rejections, tuple(flags))


def generic_decode(
    pair: ModelPair, policy: Policy, rng: np.random.Generator
) -> tuple[Trajectory, RunStats]:
    """Rejection decoding with caller-supplied acceptance and residual rules.

    Draws uniforms in the same order as speculative_decode, so the speculative
    policy reproduces its trajectories path-for-path under a shared seed.
    """
    p, horizon, vocab = pair.p, pair.horizon, pair.vocab_size
    x0 = _sample_index(pair.q.prompt_cumsum, rng.random())
    history = (x0,)
    flags = [0] * horizon
    rejections = 0
    n = 1
    while n <= horizon:
        draft = _draft_to_horizon(p, history, n, horizon, rng)
        for offset, t in enumerate(range(n, horizon + 1)):
            candidate = draft[offset]
            if float(p.step(t, history)[candidate]) <= 0.0:
                raise RuntimeError(f"draft token {candidate} outside p's support at position {t}")
            b = policy_acceptance(policy, t, history, candidate)
            u = rng.random()
            if u <= b:
                history += (candidate,)
                n = t + 1
                continue
            rejections += 1
            flags[t - 1] = 1
            row = policy_residual_row(policy, t, history, vocab)
            token = _sample_index(np.cumsum(row), rng.random())
            history += (token,)
            n = t + 1
            break
    return Trajectory(x0, history[1:]), RunStats(rejections, rejections, tuple(flags))


def batch_decode(
    pair: ModelPair, batch_size: int, rng: np.random.Generator
) -> tuple[Trajectory, RunStats]:
    """Batch speculative sampling with M = batch_size draft responses per round.

    Round structure at position n0 with prefix h:
      * M responses are drafted from p to the horizon, one oracle batch.
      * Response m's first token is tested against the iterate q^m, where
        q^1 = q(.|h) and q^{m+1} = [q^m - p]_+. A first-token rejection moves
        to response m+1 without emitting or counting anything.
      * Once a first token is accepted the round follows that response only;
        a later rejection replaces the token from the target residual
        [q_t - p_t]_+, counts one rejection, and ends the round.
      * If all M first tokens reject, the token is drawn from q^{M+1} itself
        and one rejection is counted.

    With batch_size=1 this is speculative decoding exactly.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    p, q, horizon = pair.p, pair.q, pair.horizon
    x0 = _sample_index(pair.q.prompt_cumsum, rng.random())
    history = (x0,)
    flags = [0] * horizon
    rejections = 0
    n = 1
    while n <= horizon:
        n0 = n
        responses = [_draft_to_horizon(p, history, n0, horizon, rng) for _ in range(batch_size)]
        p_root = p.step(n0, history)
        q_iter = q.step(n0, history).copy()
        accepted_root = False
        for m in range(batch_size):
            candidate = responses[m][0]
            p_cand = float(p_root[candidate])
            if p_cand <= 0.0:
                raise RuntimeError(f"draft token {candidate} outside p's support at position {n0}")
            u = rng.random()
            if u <= min(1.0, float(q_iter[candidate]) / p_cand):
                accepted_root = True
                history += (candidate,)
                n = n0 + 1
                for offset, t in enumerate(range(n0 + 1, horizon + 1), start=1):
                    cand = responses[m][offset]
                    p_row = p.step(t, history)
                    q_row = q.step(t, history)
                    if float(p_row[cand]) <= 0.0:
                        raise RuntimeError(f"draft token {cand} outside p's support at position {t}")
                    u = rng.random()
                    if u <= min(1.0, float(q_row[cand]) / float(p_row[cand])):
                        history += (cand,)
                        n = t + 1
                        continue
                    rejections += 1
                    flags[t - 1] = 1
                    weights = np.maximum(q_row - p_row, 0.0)
                    total = float(weights.sum())
                    if total <= 0.0:
                        raise ZeroResidual(f"rejection at position {t} with tv(q, p) = 0")
                    token = _sample_index(np.cumsum(weights / total), rng.random())
                    history += (token,)
                    n = t + 1
                    break
                break
            # First-token rejection: advance the iterate, no emission yet.
            weights = np.maximum(q_iter - p_root, 0.0)
            total = float(weights.sum())
            if total <= 0.0:
                raise ZeroResidual(f"root rejection at position {n0} with tv(q^m, p) = 0")
            q_iter = weights / total
        if not accepted_root:
            rejections += 1
            flags[n0 - 1] = 1
            token = _sample_index(np.cumsum(q_iter), rng.random())
            history += (token,)
            n = n0 + 1
    return Trajectory(x0, history[1:]), RunStats(rejections, rejections, tuple(flags))
