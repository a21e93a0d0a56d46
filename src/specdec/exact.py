"""Closed-form expected-rejection analysis for speculative and batch decoding.

Speculative decoding rejects at position n with probability
tv(p_n(.|prefix), q_n(.|prefix)), so its expected rejection count is the sum of
per-position total variations under the target's prefix law. Batch decoding
improves on that at round roots. Response m's first token is verified against
the residual iterate q^m, where q^1 = q and q^{m+1} = [q^m - p]_+, so it
rejects with probability r_m = tv(q^m, p). A root charges a rejection only
after all M responses fail, an event of probability prod_{m<=M} r_m, and its
token is then drawn from q^{M+1}.

Closed form of the iterates. Put S_0 = 0, P_0 = 1 and, for m >= 0,

    W_{m+1} = (q - S_m p)_+,    P_m = sum_x W_{m+1}(x),    S_{m+1} = S_m + P_m,

so P_1 = tv(q, p), S_1 = 1 and W_2 = (q - p)_+. Then for every M >= 1

    prod_{m<=M} r_m = P_M    and    P_M q^{M+1} = W_{M+1}.

Proof, by induction on m, that P_{m-1} q^m = W_m with P_{m-1} = prod_{k<m} r_k.
At m = 1 both sides are q. Given the claim at m, r_m = sum_x (q^m - p)_+(x)
because q^m and p are distributions, and for b >= 0, (a_+ - b)_+ = (a - b)_+, so

    P_{m-1} (q^m - p)_+ = (W_m - P_{m-1} p)_+ = (q - (S_{m-1} + P_{m-1}) p)_+ = W_{m+1}.

Summing over x gives P_{m-1} r_m = P_m, and dividing by r_m gives
P_m q^{m+1} = P_{m-1} (q^m - p)_+ / r_m = W_{m+1}.

The limit M -> inf. W_{m+1} = q wherever p = 0, so P_m >= q(p = 0), and S_m
increases. If S_m -> inf then W_{m+1}(x) -> q(x) where p(x) = 0 and -> 0
elsewhere. If S_m stays bounded, the P_m are the terms of a convergent series
and tend to 0, which forces q(p = 0) = 0 and W_{m+1} -> 0. Either way the
limiting product is q(x : p(x) = 0) and the limiting tail W is q restricted
to {p = 0}.

The recursion never divides, so a row with some r_m = 0 needs no special
case: from there on W and P are zero, however small the earlier r_m were.
r_1 is the very tv value the SD term uses, so M = 1 reproduces speculative
decoding with improvement exactly zero.

Two implementations of the batch formula are kept deliberately separate:
a history-level recursion over explicit prefixes (any model) and an O(T V^2)
state-marginalized recursion that works on all V states at once (Markov
chains). Tests require them to agree.

Position blocks. On a Markov pair the recursions read the models' (T, V, V)
row stacks in blocks of B = max(1, BLOCK_FLOATS // V^2) positions. A block's
tv, root iterates and (q - p)_+ are computed at once as (B, V, V) arrays;
only the mat-vecs that carry mu and g from one position to the next run
position by position. One walk yields both the SD terms and the gain terms,
so a batch or limit value costs one pass, not an SD pass and a gain pass.
Every term is the value the position-by-position recursion computes, and
``math.fsum`` is exact, so the results do not depend on B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import _int_arg, _tv_arrays, _tv_rows
from .models import ModelPair, _is_markov_pair

# Floats per (B, V, V) array of a position block: B = max(1, BLOCK_FLOATS // V^2).
BLOCK_FLOATS = 2**14


@dataclass(frozen=True)
class BatchRejections:
    """Expected rejections of batch decoding and its improvement over speculative."""

    total: float
    improvement: float


def _markov_terms(pair: ModelPair, batch_size: int | None = 1, gain: bool = False):
    """(T, V) term tables of a Markov pair: SD's, and the batch gain's when ``gain``.

    Row n - 1 of the SD table is mu_{n-1}(s) * tv(p_n(.|s), q_n(.|s)) over
    states s, mu_{n-1} the target's law of x_{n-1}; the gain table is None
    unless ``gain``, and then holds g_n(s) * (tv - P_M), g_n as in ``_sd_and_gain``.
    Positions are walked in blocks of about BLOCK_FLOATS floats per (B, V, V)
    array: tv, the root iterates and (q - p)_+ of a block are computed at once,
    and only the mu and g mat-vecs run position by position.
    """
    p_rows, q_rows = pair.p.step_rows, pair.q.step_rows
    horizon, v = q_rows.shape[:2]
    mu = np.empty((horizon, v))
    tv = np.empty((horizon, v))
    g = np.empty((horizon, v)) if gain else None
    drop = np.empty((horizon, v)) if gain else None
    mu_n = g_n = pair.q.prompt.probs
    size = max(1, BLOCK_FLOATS // (v * v))
    for start in range(0, horizon, size):
        block = slice(start, start + size)
        p, q = p_rows[block], q_rows[block]
        tv[block] = _tv_rows(q, p)
        if gain:
            plus = q - p
            np.maximum(plus, 0.0, out=plus)
            prod, tail = _root_iterates(q, p, tv[block], batch_size, plus)
            drop[block] = tv[block] - prod
        for k in range(len(q)):
            mu[start + k] = mu_n
            if gain:
                g[start + k] = g_n
                g_n = (mu_n - g_n) @ plus[k] + g_n @ tail[k]
            mu_n = mu_n @ q[k]
    return mu * tv, g * drop if gain else None


def _fsum(terms: np.ndarray) -> float:
    return math.fsum(terms.ravel().tolist())


def expected_rejections_sd(pair: ModelPair) -> float:
    """Exact E[rejections] of speculative decoding: sum_n E_q[tv(p_n, q_n)]."""
    terms = _markov_terms if _is_markov_pair(pair) else _history_terms
    return _fsum(terms(pair)[0])


def acceleration_rate(expected_rejections: float, horizon: int) -> float:
    """Tokens decoded per target evaluation, T / E[rejections].

    A rejection-free decoder produces the whole horizon in the single pass,
    so the rate is reported as T when the expectation is zero.
    """
    if expected_rejections < 0.0:
        raise ValueError("expected_rejections must be nonnegative")
    if expected_rejections == 0.0:
        return float(horizon)
    return horizon / expected_rejections


def _root_iterates(q, p, tv, batch_size: int | None, plus=None):
    """(P_M, W_{M+1}) over the last axis of q and p, for one row or a block of rows.

    ``tv`` is tv(q, p) per row and becomes P_1 unchanged; ``plus``, when the
    caller has it, is (q - p)_+ and becomes W_2 unchanged. batch_size None
    gives the M -> inf limit (q(p = 0), q restricted to {p = 0}).
    """
    if batch_size is None:
        tail = np.where(p == 0.0, q, 0.0)
        return tail.sum(axis=-1), tail
    prod, level = tv, 1.0
    tail = np.maximum(q - p, 0.0) if plus is None else plus
    for _ in range(batch_size - 1):
        level = level + prod
        tail = np.expand_dims(level, -1) * p
        np.maximum(np.subtract(q, tail, out=tail), 0.0, out=tail)
        prod = tail.sum(axis=-1)
    return prod, tail


def _history_terms(pair: ModelPair, batch_size: int | None = 1, gain: bool = False):
    """SD and (when ``gain``) batch gain terms of any pair, walked over explicit histories.

    The history-level twin of ``_markov_terms``: one walk over every prefix
    (x_0, ..., x_{n-1}) with its target mass q_h and its round-root mass f_h.
    The SD term is q_h * tv(p_n, q_n) and the gain term f_h * (tv - P_M).
    """
    v = pair.vocab_size
    q_mass = {(x0,): pair.prompt[x0] for x0 in range(v)}
    f_mass = dict(q_mass)
    sd_terms: list[float] = []
    gain_terms: list[float] = []
    for n in range(1, pair.horizon + 1):
        q_next: dict[tuple[int, ...], float] = {}
        f_next: dict[tuple[int, ...], float] = {}
        for history, qh in q_mass.items():
            p_row = pair.p.step(n, history)
            q_row = pair.q.step(n, history)
            tv = _tv_arrays(q_row, p_row)
            sd_terms.append(qh * tv)
            if gain:
                fh = f_mass[history]
                prod, tail = _root_iterates(q_row, p_row, tv, batch_size)
                gain_terms.append(fh * (tv - float(prod)))
                f_row = np.maximum(q_row - p_row, 0.0) * (qh - fh) + fh * tail
            for token in range(v):
                key = history + (token,)
                q_next[key] = qh * float(q_row[token])
                if gain:
                    f_next[key] = float(f_row[token])
        q_mass, f_mass = q_next, f_next
    return np.array(sd_terms), np.array(gain_terms) if gain else None


def _sd_and_gain(pair: ModelPair, batch_size: int | None) -> tuple[float, float]:
    """(SD's E[rejections], the batch improvement) at M = batch_size (None: the limit).

    A Markov pair gets both from one walk, where the improvement is the
    marginalized recursion over all V states at once. g(s) is the probability
    that position n is a round root and x_{n-1} = s. A root contributes
    tv - P_M; the next position is a root after a rejection within a round,
    (mu - g) @ (q - p)_+, or after a root fails all M responses, g @ W_{M+1}.
    Other pairs take the history-level recursion.
    """
    terms = _markov_terms if _is_markov_pair(pair) else _history_terms
    sd, gain = terms(pair, batch_size, gain=True)
    return _fsum(sd), _fsum(gain)


def expected_rejections_batch(pair: ModelPair, batch_size: int) -> BatchRejections:
    """Exact E[rejections] of batch decoding with M = batch_size responses.

    Returns the total and its improvement over speculative decoding; the total
    is sum_n E_q[tv] minus the improvement, and batch_size = 1 recovers
    speculative decoding with improvement exactly zero.
    """
    sd, gain = _sd_and_gain(pair, _int_arg("batch_size", batch_size, 1))
    return BatchRejections(total=sd - gain, improvement=gain)


def limit_rejections(pair: ModelPair) -> float:
    """Infimum of expected batch rejections as the batch size grows without bound."""
    sd, gain = _sd_and_gain(pair, None)
    return sd - gain


def batch_improvement_uniform(ratio: float, batch_size: int) -> float:
    """Batch improvement for p = Unif(V), q = Unif(V'), one step, ratio = V / V'.

    Every residual iterate is Unif(V') again, so each root response rejects
    with probability 1 - 1/ratio and the improvement telescopes to
    (1 - 1/ratio) - (1 - 1/ratio)**M.
    """
    if ratio < 1.0:
        raise ValueError("ratio must be >= 1 (the draft support contains the target's)")
    batch_size = _int_arg("batch_size", batch_size, 1)
    base = 1.0 - 1.0 / ratio
    return base - base**batch_size


def batch_improvement_bernoulli(u: float, v: float, batch_size: int) -> float:
    """Batch improvement for p = Ber(u), q = Ber(v) with u >= v, one step.

    The first iterate collapses onto the token where q exceeds p, after which
    every response rejects with probability u, giving |u - v| * (1 - u**(M-1)).
    """
    if not 0.0 <= v <= u <= 1.0:
        raise ValueError("requires 0 <= v <= u <= 1")
    batch_size = _int_arg("batch_size", batch_size, 1)
    return abs(u - v) * (1.0 - u ** (batch_size - 1))


def sd_marginal_terms(pair: ModelPair) -> list[float]:
    """Per-position speculative rejection probabilities E_q[tv(p_n, q_n)] (Markov)."""
    if not _is_markov_pair(pair):
        raise TypeError("sd_marginal_terms requires a Markov pair")
    return [math.fsum(terms) for terms in _markov_terms(pair)[0].tolist()]
