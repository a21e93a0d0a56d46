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
a history-level recursion over the codes of every prefix (any model), which
walks level by level as (V^n,) mass vectors and (V^n, V) row arrays read by
``models._level_rows``, and an O(T V^2) state-marginalized recursion that
works on all V states at once (Markov chains). Tests require them to agree.

Position blocks and the closed-form record. On a Markov pair the recursions
read the models' (T, V, V) row stacks in blocks of
B = max(1, BLOCK_FLOATS // V^2) positions. A block's tv, root iterates and (q - p)_+ are computed at once as
(B, V, V) arrays; only the mat-vec that carries g from one position to the
next runs position by position, and mu is read from the target's
``marginals``. Every closed form contains the same SD part: the (T, V) tv
table and SD's total sum_n E_q[tv]. The first walk on a pair computes it,
fused into that walk, and keeps it on the pair as its record. After that,
SD and its per-position terms make no walk, and a batch or limit walk
computes only (q - p)_+, the root iterates and g. The record also keeps the
deepest root level a batch walk has reached, (K, S_K, P_K) as two (T, V)
tables. A walk at M >= K resumes the S/P recursion there and stores M's
level; a walk at M < K starts at m = 1 and leaves the record alone. So a
scan over batch sizes costs max M - 1 root iterations per position in all,
and a repeated M forms only its tail W_{M+1}. Every term is the value the
position-by-position recursion computes, from the same float operations in
the same order, and ``math.fsum`` is exact, so the results depend neither on
B nor on the order in which a pair meets its closed forms. The history-level
recursion, the samplers and the oracle never read the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import _int_arg, _real_arg, _tv_rows
from .models import ModelPair, _is_markov_pair, _level_rows, _pair_arg

# Floats per (B, V, V) array of a position block: B = max(1, BLOCK_FLOATS // V^2).
BLOCK_FLOATS = 2**14


@dataclass(frozen=True)
class BatchRejections:
    """Expected rejections of batch decoding and its improvement over speculative."""

    total: float
    improvement: float


class _Record(NamedTuple):
    """A Markov pair's closed-form record, kept in its ``_sd_record`` slot.

    ``tv`` is the read-only (T, V) tv table and ``total`` SD's E[rejections].
    ``depth`` is K, the deepest root level a batch walk has reached, and
    ``level`` and ``prod`` are the read-only (T, V) tables S_K and P_K; at
    K = 1 they are None, since S_1 = 1 and P_1 = tv.
    """

    tv: np.ndarray
    total: float
    depth: int = 1
    level: np.ndarray | None = None
    prod: np.ndarray | None = None


def _markov_terms(pair: ModelPair, batch_size: int | None = 1, gain: bool = False):
    """The (T, V) batch gain table of a Markov pair when ``gain``, else None.

    Row n - 1 of the gain table is g_n(s) * (tv - P_M) over states s, with
    tv = tv(p_n(.|s), q_n(.|s)) and g_n as in ``_sd_and_gain``. The first walk
    on a pair also fills its record: the tv table and SD's total, the fsum of
    mu_{n-1}(s) * tv, mu_{n-1} the target's law of x_{n-1}. Later walks read
    tv from the record. A batch walk at M >= K resumes the root recursion at
    the record's depth K, and at M > K stores S_M and P_M as its new deepest
    level. Positions are walked in blocks of about BLOCK_FLOATS floats per
    (B, V, V) array: tv, the root iterates and (q - p)_+ of a block are
    computed at once, and only the g mat-vecs run position by position.
    """
    p_rows, q_rows = pair.p.step_rows, pair.q.step_rows
    horizon, v = q_rows.shape[:2]
    mu = pair.q.marginals
    record = getattr(pair, "_sd_record", None)
    tv = np.empty((horizon, v)) if record is None else record.tv
    depth = 1 if record is None else record.depth
    finite = gain and batch_size is not None
    resume = finite and batch_size >= depth > 1
    deeper = finite and batch_size > depth
    levels = np.empty((horizon, v)) if deeper else None
    prods = np.empty((horizon, v)) if deeper else None
    g = np.empty((horizon, v)) if gain else None
    drop = np.empty((horizon, v)) if gain else None
    g_n = pair.q.prompt.probs
    size = max(1, BLOCK_FLOATS // (v * v))
    for start in range(0, horizon, size):
        block = slice(start, start + size)
        p, q = p_rows[block], q_rows[block]
        if record is None:
            tv[block] = _tv_rows(q, p)
        if gain:
            plus = q - p
            np.maximum(plus, 0.0, out=plus)
            if resume:
                prod, tail, level = _root_iterates(
                    q, p, record.prod[block], batch_size, level=record.level[block], depth=depth)
            else:
                prod, tail, level = _root_iterates(q, p, tv[block], batch_size, plus)
            if deeper:
                levels[block], prods[block] = level, prod
            drop[block] = tv[block] - prod
            for k in range(len(q)):
                g[start + k] = g_n
                g_n = (mu[start + k] - g_n) @ plus[k] + g_n @ tail[k]
    if record is None:
        tv.flags.writeable = False
        record = pair._sd_record = _Record(tv, _fsum(mu[:-1] * tv))
    if deeper:
        levels.flags.writeable = prods.flags.writeable = False
        pair._sd_record = record._replace(depth=batch_size, level=levels, prod=prods)
    return g * drop if gain else None


def _sd_part(pair: ModelPair) -> _Record:
    """The record of a Markov pair, walked for only if the pair has none yet."""
    if getattr(pair, "_sd_record", None) is None:
        _markov_terms(pair)
    return pair._sd_record


def _fsum(terms: np.ndarray) -> float:
    return math.fsum(terms.ravel().tolist())


def expected_rejections_sd(pair: ModelPair) -> float:
    """Exact E[rejections] of speculative decoding: sum_n E_q[tv(p_n, q_n)]."""
    if _is_markov_pair(_pair_arg(pair)):
        return _sd_part(pair).total
    return _fsum(_history_terms(pair)[0])


def acceleration_rate(expected_rejections: float, horizon: int) -> float:
    """Tokens decoded per target evaluation, T / E[rejections].

    A rejection-free decoder produces the whole horizon in the single pass,
    so the rate is reported as T when the expectation is zero.
    """
    expected_rejections = _real_arg("expected_rejections", expected_rejections, 0.0)
    horizon = _int_arg("horizon", horizon, 1)
    if expected_rejections == 0.0:
        return float(horizon)
    return horizon / expected_rejections


def _root_iterates(q, p, prod, batch_size: int | None, tail=None, level=1.0, depth: int = 1):
    """(P_M, W_{M+1}, S_M) over the last axis of q and p, for one row or a block of rows.

    The recursion starts at root level K = ``depth`` <= M from S_K = ``level``
    and P_K = ``prod``: by default at K = 1, where S_1 = 1 and ``prod`` is
    tv(q, p), returned unchanged at M = 1. ``tail``, when the caller has it,
    is W_{K+1}; otherwise it is formed. batch_size None gives the M -> inf
    limit (q(p = 0), q restricted to {p = 0}, None).
    """
    if batch_size is None:
        tail = np.where(p == 0.0, q, 0.0)
        return tail.sum(axis=-1), tail, None
    for _ in range(batch_size - depth):
        level = level + prod
        tail = _level_tail(q, p, level)
        prod = tail.sum(axis=-1)
    if tail is None:
        tail = _level_tail(q, p, level)
    return prod, tail, level


def _level_tail(q, p, level):
    """W = (q - S p)_+ at root level S: a scalar, or one value per row of q and p."""
    tail = np.asarray(level)[..., None] * p
    return np.maximum(np.subtract(q, tail, out=tail), 0.0, out=tail)


def _history_terms(pair: ModelPair, batch_size: int | None = 1, gain: bool = False):
    """SD and (when ``gain``) batch gain terms of any pair, walked level by level over history codes.

    The history-level twin of ``_markov_terms``: level n holds, per code of a
    prefix (x_0, ..., x_{n-1}), its target mass q_h and its round-root mass
    f_h, and reads p's and q's rows of that level once, by ``_level_rows``.
    The SD term is q_h * tv(p_n, q_n) and the gain term f_h * (tv - P_M).
    """
    v = pair.vocab_size
    q_mass = f_mass = pair.prompt.probs
    sd_terms, gain_terms = [], []
    for n in range(1, pair.horizon + 1):
        codes = np.arange(v**n)
        p, q = _level_rows(pair.p, n, codes), _level_rows(pair.q, n, codes)
        tv = _tv_rows(q, p)
        sd_terms.append(q_mass * tv)
        if gain:
            prod, tail, _ = _root_iterates(q, p, tv, batch_size)
            gain_terms.append(f_mass * (tv - prod))
            plus = np.maximum(q - p, 0.0)
            f_mass = (plus * (q_mass - f_mass)[:, None] + f_mass[:, None] * tail).ravel()
        q_mass = (q_mass[:, None] * q).ravel()
    return np.concatenate(sd_terms), np.concatenate(gain_terms) if gain else None


def _sd_and_gain(pair: ModelPair, batch_size: int | None) -> tuple[float, float]:
    """(SD's E[rejections], the batch improvement) at M = batch_size (None: the limit).

    A Markov pair's improvement is the marginalized recursion over all V
    states at once, and its SD value is its record's total, filled by that
    walk if it was the pair's first. g(s) is the probability that position n
    is a round root and x_{n-1} = s. A root contributes tv - P_M; the next
    position is a root after a rejection within a round, (mu - g) @ (q - p)_+,
    or after a root fails all M responses, g @ W_{M+1}. Other pairs take the
    history-level recursion. At M = 1 every root's drop is tv - P_1 = 0, so
    the improvement is 0.0, SD's total is returned as it is, and no gain is
    walked.
    """
    if batch_size == 1:
        return expected_rejections_sd(pair), 0.0
    if _is_markov_pair(_pair_arg(pair)):
        gain = _markov_terms(pair, batch_size, gain=True)
        return _sd_part(pair).total, _fsum(gain)
    sd, gain = _history_terms(pair, batch_size, gain=True)
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
    """Batch improvement for p = Unif(V), q = Unif(V'), one step, ratio = V / V' >= 1.

    The draft's support contains the target's, hence the floor. Every
    residual iterate is Unif(V') again, so each root response rejects with
    probability 1 - 1/ratio and the improvement telescopes to
    (1 - 1/ratio) - (1 - 1/ratio)**M.
    """
    ratio = _real_arg("ratio", ratio, 1.0)
    batch_size = _int_arg("batch_size", batch_size, 1)
    base = 1.0 - 1.0 / ratio
    return base - base**batch_size


def batch_improvement_bernoulli(u: float, v: float, batch_size: int) -> float:
    """Batch improvement for p = Ber(u), q = Ber(v) with u >= v, one step.

    The first iterate collapses onto the token where q exceeds p, after which
    every response rejects with probability u, giving |u - v| * (1 - u**(M-1)).
    """
    u, v = _real_arg("u", u), _real_arg("v", v)
    if not 0.0 <= v <= u <= 1.0:
        raise ValueError("requires 0 <= v <= u <= 1")
    batch_size = _int_arg("batch_size", batch_size, 1)
    return abs(u - v) * (1.0 - u ** (batch_size - 1))


def sd_marginal_terms(pair: ModelPair) -> list[float]:
    """Per-position speculative rejection probabilities E_q[tv(p_n, q_n)] (Markov)."""
    if not _is_markov_pair(_pair_arg(pair)):
        raise TypeError("sd_marginal_terms requires a Markov pair")
    tv = _sd_part(pair).tv
    return [math.fsum(terms) for terms in (pair.q.marginals[:-1] * tv).tolist()]
