"""Exact decision-tree oracles for the decoding algorithms, expanded level by level.

Every probabilistic branch an algorithm can take (draft token, accept or
reject, replacement token) is expanded with its exact probability, no
sampling. Draft tokens are branched lazily at the position where they are
examined; with lookahead to the horizon this is equivalent to drafting the
whole round eagerly, because unexamined drafts are discarded and the
conditioning histories coincide.

Branch paths are merged by state, a (prefix, phase) pair. The prefix is the
history (x_0, ..., x_{n-1}) before position n. SD and generic policies have
one phase. Batch SD has two: ``root``, where a round of M responses starts at
position n, and ``within``, where the round's first token was accepted and
position n is verified against q itself. What an algorithm does from position
n on depends only on the state, so each state carries two numbers: the mass
of the paths reaching it and their rejection moment, the sum of mass times
rejections so far. A branch of probability w that adds k rejections maps
(mass, moment) to (w * mass, w * (moment + k * mass)). The map is linear, so
merging paths before branching gives the leaves the same mass and moment as
expanding every path, and the law and E[rejections] stay exact.

The frontier at position n is, per phase, a dense array over the codes of
the history (x_0, ..., x_{n-1}), x_0 the most significant digit. The child of
code c at token x has code c * V + x, so an (N, V) child table ravels into the
next level, and a walk makes one level call per position. To bound memory the
prompt tokens walk together in blocks of B = max(1, FULL_TABLE_CAP //
V**(T + 1)) consecutive tokens, so a block's last child table holds at most
FULL_TABLE_CAP entries per phase; where B = 1 each prompt token walks alone.
Histories with no mass, those of prompt tokens with no mass among them, drop
out of each level, and a block with no prompt mass is skipped. Model rows and
policy callbacks are read once per (n, history) with positive mass, the
histories the algorithm can reach. Each of the at most V**n histories at
position n is built once, so a walk costs O((T + M * V) * V**T) against
(2V)**T branch paths for a path-by-path expansion, and holds
O(min(V, B) * V**T) floats per phase.

These oracles are the ground truth the closed-form recursions are tested
against, so they share nothing with exact.py beyond the distribution helpers:
they keep full histories (FullModel pairs run unchanged), never aggregate by
Markov state, and build the batch root by chaining the M rejection iterates
rather than by a closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .decoding import Policy, policy_acceptance, policy_residual_rows
from .dist import _residual_rows
from .models import FULL_TABLE_CAP, ModelPair, _as_int

ALGORITHMS = ("sd", "batch", "generic")

ROOT, WITHIN = 0, 1


def _check_size(pair: ModelPair) -> None:
    if pair.vocab_size**pair.horizon > FULL_TABLE_CAP:
        raise ValueError(
            f"V**T = {pair.vocab_size**pair.horizon} exceeds the enumeration cap {FULL_TABLE_CAP}"
        )


def _histories(codes: np.ndarray, v: int, length: int) -> list[tuple[int, ...]]:
    """History (x_0, ..., x_{length-1}) for each code, x_0 the most significant digit."""
    digits = codes[:, None] // v ** np.arange(length - 1, -1, -1) % v
    return [tuple(row) for row in digits.tolist()]


def _rows(model, n: int, histories) -> np.ndarray:
    """Stacked ``model.step(n, history)`` rows, shape (len(histories), V)."""
    return np.array([model.step(n, h) for h in histories]).reshape(-1, model.vocab_size)


def _walk(pair: ModelPair, phases: int, level) -> tuple[np.ndarray, float]:
    """Expand every branch breadth first; returns the output law and E[rejections].

    level(n, histories) -> [(src, dst, rejections, table), ...] lists the
    branches at position n: table[i, x] is the probability that a path in
    phase src at histories[i] emits token x, lands in phase dst at n + 1 and
    adds ``rejections`` (0 or 1). Paths start in phase 0.
    """
    v, horizon = pair.vocab_size, pair.horizon
    block = max(1, FULL_TABLE_CAP // v ** (horizon + 1))
    law = np.zeros(v**horizon)
    moments = []
    for lo in range(0, v, block):
        prompt = pair.prompt.probs[lo : lo + block]
        if not prompt.any():
            continue
        mass = np.zeros((phases, prompt.size))
        mass[0] = prompt
        moment = np.zeros_like(mass)
        for n in range(1, horizon + 1):
            live = np.flatnonzero((mass > 0.0).any(axis=0))
            child_mass = np.zeros((phases, mass.shape[1], v))
            child_moment = np.zeros_like(child_mass)
            for src, dst, rejections, table in level(n, _histories(live + lo * v ** (n - 1), v, n)):
                m, r = mass[src, live, None], moment[src, live, None]
                child_mass[dst, live] += m * table
                child_moment[dst, live] += (r + rejections * m) * table
            mass, moment = child_mass.reshape(phases, -1), child_moment.reshape(phases, -1)
        law += mass.sum(axis=0).reshape(-1, law.size).sum(axis=0)
        moments.append(math.fsum(moment[moment != 0.0].tolist()))
    return law, math.fsum(moments)


def _sd_level(pair: ModelPair):
    def level(n: int, histories):
        p, q = _rows(pair.p, n, histories), _rows(pair.q, n, histories)
        replacement, reject = _residual_rows(q, p)
        return [(0, 0, 0, np.minimum(p, q)), (0, 0, 1, reject[:, None] * replacement)]

    return level


def _generic_level(pair: ModelPair, policy: Policy):
    v = pair.vocab_size

    def level(n: int, histories):
        p = _rows(pair.p, n, histories)
        b = np.array(
            [[policy_acceptance(policy, n, h, token) for token in range(v)] for h in histories]
        ).reshape(-1, v)
        reject = (p * (1.0 - b)).sum(axis=1)
        replacement = np.zeros_like(p)
        rejecting = np.flatnonzero(reject > 0.0)
        if rejecting.size:
            replacement[rejecting] = policy_residual_rows(
                policy, n, [histories[i] for i in rejecting], v
            )
        return [(0, 0, 0, p * b), (0, 0, 1, reject[:, None] * replacement)]

    return level


def _batch_level(pair: ModelPair, batch_size: int):
    def level(n: int, histories):
        p, q = _rows(pair.p, n, histories), _rows(pair.q, n, histories)
        # Response m's first token is tested against iterate q^m, reached when
        # the m - 1 responses before it were rejected (probability r_1..r_{m-1}).
        # After all M, the round emits from q^{M+1} and is charged one call.
        accept, reached, q_m = np.zeros_like(p), np.ones(len(histories)), q
        for _ in range(batch_size):
            accept += reached[:, None] * np.minimum(p, q_m)
            q_m, r_m = _residual_rows(q_m, p)
            reached = reached * r_m
        replacement, reject = _residual_rows(q, p)
        return [
            (ROOT, WITHIN, 0, accept),
            (ROOT, ROOT, 1, reached[:, None] * q_m),
            (WITHIN, WITHIN, 0, np.minimum(p, q)),
            (WITHIN, ROOT, 1, reject[:, None] * replacement),
        ]

    return level


def _enumerate(
    pair: ModelPair, algorithm: str, batch_size: int, policy: Policy | None
) -> tuple[np.ndarray, float]:
    _check_size(pair)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if algorithm != "batch" and batch_size != 1:
        raise ValueError(f"{algorithm} runs need batch_size 1")
    if algorithm != "generic" and policy is not None:
        raise ValueError(f"{algorithm} runs take no policy")
    batch_size = _as_int(batch_size)
    if algorithm == "sd":
        return _walk(pair, 1, _sd_level(pair))
    if algorithm == "generic":
        if policy is None:
            raise ValueError("algorithm 'generic' requires a policy")
        if not isinstance(policy, Policy):
            raise TypeError(f"{policy!r} is not a Policy")
        return _walk(pair, 1, _generic_level(pair, policy))
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return _walk(pair, 2, _batch_level(pair, batch_size))


def enumerate_output_distribution(
    pair: ModelPair, algorithm: str = "sd", *, batch_size: int = 1, policy: Policy | None = None
) -> np.ndarray:
    """Exact output law of a decoding algorithm over all V**T trajectories.

    Returned flat array uses the joint_distribution indexing (x_1 most
    significant digit). Requires V**T <= FULL_TABLE_CAP.
    """
    return _enumerate(pair, algorithm, batch_size, policy)[0]


def enumerate_expected_rejections(
    pair: ModelPair, algorithm: str = "sd", *, batch_size: int = 1, policy: Policy | None = None
) -> float:
    """Exact E[rejections] of a decoding algorithm by full branch expansion."""
    return _enumerate(pair, algorithm, batch_size, policy)[1]
