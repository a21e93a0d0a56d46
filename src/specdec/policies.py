"""Ready-made policies for the generic rejection decoder.

A policy pins down the two free choices of the framework, the acceptance
probability b_n(candidate | prefix) and the replacement distribution sampled
after a rejection. The factories here cover the cases studied analytically:
the speculative rule, its unique-unbiased relaxations with b below min{1,q/p},
and the over-acceptance family with either the bias-minimizing residual
("opt") or the target itself ("uno").

Each factory computes its acceptance and residual rows as arrays over
(context, x) and returns :meth:`Policy.from_tables` of them, which the
lockstep engine reads without calling back, on any pair. On a Markov pair
the contexts are the (position, x_{n-1}) pairs, so the rows are (T, V, V)
tables, computed at once. On a pair that holds a FullModel the contexts are
the histories (x_0, ..., x_{n-1}), n = 1..T, a level at a time in position
order, over the rows ``models._level_rows`` reads in code order, so the
tables are T levels of shape (V**n, V). Either way the callbacks find a
context's row by the models' rule, ``models._chain_key`` or
``_table_key``, and raise its KeyError, as ``step`` does, for a position
outside 1..T or a history the rule does not take, and the acceptance
callback for a candidate that is not a token in 0..V-1. The rows are
read-only. Every residual row comes from the package's one residual kernel,
``dist._residual_rows``: the speculative rule's is [q - p]_+, opt's and
random-unbiased's [q - b p]_+. A context where rejection has probability
sum_x (1 - b(x)) p(x) <= DEGENERATE_TOL gets q's row as its residual: it is
never sampled, and any distribution serves.
"""

from __future__ import annotations

import numpy as np

from .decoding import Policy
from .dist import _capped_ratios, _real_arg, _residual_rows
from .models import ModelPair, _is_markov_pair, _level_rows
from .tradeoff import DEGENERATE_TOL


def _rows_policy(pair: ModelPair, rule) -> Policy:
    """``Policy.from_tables`` of ``rule(p_rows, q_rows)`` -> (b, residual) over every context."""
    if _is_markov_pair(pair):
        return Policy.from_tables(*rule(pair.p.step_rows, pair.q.step_rows))
    v = pair.vocab_size
    levels = [rule(*(_level_rows(model, n, np.arange(v**n)) for model in (pair.p, pair.q)))
              for n in range(1, pair.horizon + 1)]
    return Policy.from_tables(*map(tuple, zip(*levels)))


def _rejectable_or_q(rows: np.ndarray, q: np.ndarray, b: np.ndarray, p: np.ndarray):
    """``rows`` where a draft can be rejected, sum (1 - b) p > DEGENERATE_TOL; q's row elsewhere."""
    live = ((1.0 - b) * p).sum(axis=-1) > DEGENERATE_TOL
    return np.where(live[..., None], rows, q)


def sd_policy(pair: ModelPair) -> Policy:
    """Speculative decoding as a generic policy: b = min{1, q/p}, P = [q - p]_+."""

    def rule(p, q):
        acceptance = _capped_ratios(q, p)
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
        acceptance = _capped_ratios(q + eps, p)
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
        acceptance = rng.uniform(size=p.shape) * _capped_ratios(q, p)
        return acceptance, _rejectable_or_q(_residual_rows(q, acceptance * p)[0], q, acceptance, p)

    return _rows_policy(pair, rule)
