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
calling back. On other pairs the contexts are the histories
(x_0, ..., x_{n-1}), n = 1..T, level by level and in code order within a
level, read a level at a time by ``models._level_rows``; the callbacks find a
history's row by its code, raising KeyError, as ``FullModel.step`` does, for
a history whose length is not n or whose tokens are not in 0..V-1. Every
residual row comes from the package's one residual kernel,
``dist._residual_rows``: the speculative rule's is [q - p]_+, opt's and
random-unbiased's [q - b p]_+. A context where rejection has probability
sum_x (1 - b(x)) p(x) <= DEGENERATE_TOL gets q's row as its residual: it is
never sampled, and any distribution serves.
"""

from __future__ import annotations

import numpy as np

from .decoding import Policy
from .dist import _real_arg, _residual_rows
from .models import ModelPair, _history_code, _is_markov_pair, _level_rows
from .tradeoff import DEGENERATE_TOL, _over_acceptance


def _rows_policy(pair: ModelPair, rule) -> Policy:
    """Policy whose rows over every context are ``rule(p_rows, q_rows)`` -> (b, residual)."""
    if _is_markov_pair(pair):
        return Policy.from_tables(*rule(pair.p.step_rows, pair.q.step_rows))
    v, positions = pair.vocab_size, range(1, pair.horizon + 1)
    p, q = (
        np.concatenate([_level_rows(model, n, np.arange(v**n)) for n in positions])
        for model in (pair.p, pair.q)
    )
    acceptance, residual = rule(p, q)
    starts = dict(zip(positions, np.cumsum([0, *(v**n for n in positions)]).tolist()))

    def slot(n, history):
        return _history_code(n, history, v) + starts[n]

    return Policy(
        lambda n, history, candidate: acceptance[slot(n, history), candidate],
        lambda n, history: residual[slot(n, history)],
    )


def _rejectable_or_q(rows: np.ndarray, q: np.ndarray, b: np.ndarray, p: np.ndarray):
    """``rows`` where a draft can be rejected, sum (1 - b) p > DEGENERATE_TOL; q's row elsewhere."""
    live = ((1.0 - b) * p).sum(axis=-1) > DEGENERATE_TOL
    return np.where(live[..., None], rows, q)


def sd_policy(pair: ModelPair) -> Policy:
    """Speculative decoding as a generic policy: b = min{1, q/p}, P = [q - p]_+."""

    def rule(p, q):
        with np.errstate(divide="ignore", invalid="ignore"):
            acceptance = np.where(p > 0.0, np.minimum(1.0, q / p), 1.0)
        return acceptance, _rejectable_or_q(_residual_rows(q, p)[0], q, acceptance, p)

    return _rows_policy(pair, rule)


def over_acceptance_policy(pair: ModelPair, eps: float, residual_kind: str = "opt") -> Policy:
    """Biased decoding with b = min{1, (q + eps)/p} at every position.

    residual_kind "opt" replaces rejected tokens from the bias-minimizing
    canonical residual, "uno" from the target conditional itself.
    """
    if residual_kind not in ("opt", "uno"):
        raise ValueError("residual_kind must be 'opt' or 'uno'")
    eps = _real_arg("eps", eps, 0.0)

    def rule(p, q):
        acceptance = _over_acceptance(p, q, eps)
        if residual_kind == "uno":
            return acceptance, q
        return acceptance, _rejectable_or_q(_residual_rows(q, acceptance * p)[0], q, acceptance, p)

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
        return acceptance, _rejectable_or_q(_residual_rows(q, acceptance * p)[0], q, acceptance, p)

    return _rows_policy(pair, rule)
