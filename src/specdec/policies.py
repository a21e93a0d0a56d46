"""Ready-made policies for the generic rejection decoder.

A policy pins down the two free choices of the framework, the acceptance
probability b_n(candidate | prefix) and the replacement distribution sampled
after a rejection. The factories here cover the cases studied analytically:
the speculative rule, its unique-unbiased relaxations with b below min{1,q/p},
and the over-acceptance family with either the bias-minimizing residual
("opt") or the target itself ("uno").

Each factory computes its acceptance and residual rows for every context at
once, as arrays over (context, x). On a Markov pair the contexts are the
(position, x_{n-1}) pairs, so the rows are (T, V, V) tables and the factory
returns :meth:`Policy.from_tables`, which the lockstep engine reads without
calling back. On other pairs the callbacks look the rows up per history.
A context where rejection has probability zero gets q's row as its residual:
it is never sampled, and any distribution serves.
"""

from __future__ import annotations

import numpy as np

from .decoding import Policy
from .models import FullModel, MarkovModel, ModelPair
from .tradeoff import DEGENERATE_TOL, _coefficient_rows, epsilon_acceptance


def _iter_contexts(model):
    """Every distinct conditional context (n, representative history) once."""
    if isinstance(model, MarkovModel):
        for n in range(1, model.horizon + 1):
            for state in range(model.vocab_size):
                yield n, (state,)
    elif isinstance(model, FullModel):
        for n in range(1, model.horizon + 1):
            for history in model.histories(n):
                yield n, history
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")


def _rows_policy(pair: ModelPair, rule) -> Policy:
    """Policy whose rows over every context are ``rule(p_rows, q_rows)`` -> (b, residual)."""
    if isinstance(pair.p, MarkovModel) and isinstance(pair.q, MarkovModel):
        return Policy.from_tables(*rule(pair.p.step_rows, pair.q.step_rows))
    contexts = list(_iter_contexts(pair.q))
    p, q = (np.array([model.step(n, h) for n, h in contexts]) for model in (pair.p, pair.q))
    acceptance, residual = rule(p, q)
    slots = {pair.q.context_key(n, h): i for i, (n, h) in enumerate(contexts)}
    return Policy(
        lambda n, history, candidate: acceptance[slots[pair.q.context_key(n, history)], candidate],
        lambda n, history: residual[slots[pair.q.context_key(n, history)]],
    )


def _normalized_or_q(weights: np.ndarray, q: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Rows ``weights / sum`` where ``live``, q's row elsewhere."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = weights / weights.sum(axis=-1, keepdims=True)
    return np.where(live[..., None], rows, q)


def sd_policy(pair: ModelPair) -> Policy:
    """Speculative decoding as a generic policy: b = min{1, q/p}, P = [q - p]_+."""

    def rule(p, q):
        with np.errstate(divide="ignore", invalid="ignore"):
            acceptance = np.where(p > 0.0, np.minimum(1.0, q / p), 1.0)
        weights = np.maximum(q - p, 0.0)
        return acceptance, _normalized_or_q(weights, q, weights.sum(axis=-1) > 0.0)

    return _rows_policy(pair, rule)


def over_acceptance_policy(pair: ModelPair, eps: float, residual_kind: str = "opt") -> Policy:
    """Biased decoding with b = min{1, (q + eps)/p} at every position.

    residual_kind "opt" replaces rejected tokens from the bias-minimizing
    canonical residual, "uno" from the target conditional itself.
    """
    if residual_kind not in ("opt", "uno"):
        raise ValueError("residual_kind must be 'opt' or 'uno'")

    def rule(p, q):
        acceptance = epsilon_acceptance(p, q, eps)
        if residual_kind == "uno":
            return acceptance, q
        coefficients, denom = _coefficient_rows(acceptance, p, q)
        return acceptance, _normalized_or_q(
            np.maximum(coefficients, 0.0), q, denom > DEGENERATE_TOL
        )

    return _rows_policy(pair, rule)


def always_accept_policy(pair: ModelPair) -> Policy:
    """b = 1 everywhere: the decoder keeps every draft, emitting p's law exactly."""
    return _rows_policy(pair, lambda p, q: (np.ones_like(p), q))


def random_unbiased_policy(pair: ModelPair, rng: np.random.Generator) -> Policy:
    """Random unbiased member of the framework, below the speculative rule.

    Each context draws b(x) = u(x) * min{1, q(x)/p(x)} with u uniform on
    [0, 1], then takes the unique residual that restores the target law,
    (q - b p) / sum((1 - b) p). Such policies can only reject more often than
    speculative decoding. The uniforms are drawn context by context in
    position order.
    """

    def rule(p, q):
        with np.errstate(divide="ignore", invalid="ignore"):
            cap = np.minimum(1.0, np.where(p > 0.0, q / p, np.inf))
        acceptance = rng.uniform(size=p.shape) * cap
        denom = ((1.0 - acceptance) * p).sum(axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = (q - acceptance * p) / denom
        # Rejection is unreachable where denom vanishes; any distribution serves.
        return acceptance, np.where(denom > 1e-15, residual, q)

    return _rows_policy(pair, rule)
