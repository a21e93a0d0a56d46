"""Exact decision-tree oracles for the decoding algorithms, expanded level by level.

Every probabilistic branch an algorithm can take (draft token, accept or
reject, replacement token) is expanded with its exact probability, no
sampling. Draft tokens are branched lazily at the position where they are
examined; with lookahead to the horizon this is equivalent to drafting the
whole round eagerly, because unexamined drafts are discarded and the
conditioning histories coincide.

Branch paths are merged by state, a (prefix, phase) pair. The prefix is the
history (x_0, ..., x_{n-1}) before position n. SD, the batch round at M = 1,
and generic policies have one phase. Batch SD at M > 1 has two: ``root``,
where a round of M responses starts at position n, and ``within``, where the
round's first token was accepted and position n is verified against q itself.
What an algorithm does from position n on depends only on the state, so each
state carries one number, the mass of the paths reaching it, and a branch of
probability w maps it to w * mass. The map is linear, so merging paths
before branching gives the leaves the same mass as expanding every path, and
the law stays exact. E[rejections] is sum_n P(a rejection at n), and P(a
rejection at n) is the mass that level n sends down its rejecting branches,
so only mass goes from level to level.

The frontier at position n is, per phase, a dense array over the codes of
the history (x_0, ..., x_{n-1}), x_0 the most significant digit. The child of
code c at token x has code c * V + x, so an (N, V) child table ravels into the
next level, and a walk makes one level call per position. To bound memory the
prompt tokens walk together in blocks of B = max(1, FULL_TABLE_CAP //
V**(T + 1)) consecutive tokens, so a block's last child table holds at most
FULL_TABLE_CAP entries per phase; where B = 1 each prompt token walks alone.
Histories with no mass, those of prompt tokens with no mass among them, drop
out of each level, and a block with no prompt mass is skipped. Each level
works on its live histories only: it gathers their mass once, accumulates
every branch into a (phases, live, V) array and scatters that into the child
table once; when every history is live it does neither. One ``math.fsum``
sums the level's nonzero rejecting-branch masses, and E[rejections] is the
fsum of the level sums. Model rows and policy callbacks are read once per
(n, history) with positive mass, the histories the algorithm can reach.
Model rows are read for all live codes at once by ``models._level_rows``, a
MarkovModel's from its (T, V, V) stack by each code's last digit and a
FullModel's from its level stack by code, with no per-history call; history
tuples are built only for the callbacks that take them, a policy's
acceptance and residual. A level makes all of its acceptance calls, in
(history, token) order, before it checks any value: one test of the values'
types passes a level of floats as they are, and only a level with some other
type is read value by value by the samplers' rule, so a bad value raises the
samplers' InvalidPolicy after the level's last call, and the first bad value
in that order is the one named. The values are then clamped to [0, 1] over
the whole level at once, as the samplers clamp each one. Residual rows are
checked as ``policy_residual_rows`` returns them. Each of the at
most V**n histories at position n is built once, so a walk costs
O((T + M * V) * V**T) against (2V)**T branch paths for a path-by-path
expansion, and holds O(min(V, B) * V**T) floats per phase.

Rejecting branches come from the samplers' own residual kernel,
``dist._residual_rows``: a rejection against q^m has probability
sum max(q^m - p, 0), the kernel's normalizer, and its replacement row is the
kernel's row, so the sd and batch branch weights are formed exactly as the
samplers form their replacement rows.

These oracles are the ground truth the closed-form recursions are tested
against, so they share nothing with exact.py beyond the distribution helpers:
they keep full history codes (FullModel pairs run unchanged), never
aggregate by Markov state, and build the batch root by chaining the M
rejection iterates rather than by a closed form.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .decoding import Policy, _acceptance_value, _acceptances, _run_args, policy_residual_rows
from .dist import _residual_rows
from .models import FULL_TABLE_CAP, ModelPair, _check_table_size, _level_rows

ALGORITHMS = ("sd", "batch", "generic")

ROOT, WITHIN = 0, 1


class _Live:
    """The histories with positive mass before position n, by code.

    Their tuples are built on first use, for callbacks only.
    """

    def __init__(self, n: int, codes: np.ndarray, vocab_size: int) -> None:
        self.n, self.codes, self.vocab_size = n, codes, vocab_size

    @functools.cached_property
    def histories(self) -> list[tuple[int, ...]]:
        """History (x_0, ..., x_{n-1}) of each code, x_0 the most significant digit."""
        v = self.vocab_size
        digits = self.codes[:, None] // v ** np.arange(self.n - 1, -1, -1) % v
        return [tuple(row) for row in digits.tolist()]

    def rows(self, model) -> np.ndarray:
        """Rows of x_n, shape (len(codes), V), read by ``_level_rows``."""
        return _level_rows(model, self.n, self.codes)


def _walk(pair: ModelPair, phases: int, level) -> tuple[np.ndarray, float]:
    """Expand every branch breadth first; returns the output law and E[rejections].

    level(live) -> [(src, dst, rejects, table), ...] lists the branches at
    position live.n: table[i, x] is the probability that a path in phase src
    at the i-th live history emits token x and lands in phase dst at n + 1,
    by a rejection if ``rejects``. Paths start in phase 0.
    """
    v, horizon = pair.vocab_size, pair.horizon
    block = max(1, FULL_TABLE_CAP // v ** (horizon + 1))
    law = np.zeros(v**horizon)
    rejected = []  # P(a rejection at n) of each (block, position n)
    for lo in range(0, v, block):
        prompt = pair.prompt.probs[lo : lo + block]
        if not prompt.any():
            continue
        mass = np.zeros((phases, prompt.size))
        mass[0] = prompt
        for n in range(1, horizon + 1):
            size = mass.shape[1]
            live = np.flatnonzero(mass[0] > 0.0 if phases == 1 else (mass > 0.0).any(axis=0))
            held = mass[:, live, None] if live.size < size else mass[:, :, None]
            child = np.zeros((phases, live.size, v))
            rejecting = []
            codes = live + lo * v ** (n - 1) if lo else live
            for src, dst, rejects, table in level(_Live(n, codes, v)):
                branch = held[src] * table
                child[dst] += branch
                if rejects:
                    rejecting.append(branch[branch != 0.0])
            nonzero = rejecting[0] if len(rejecting) == 1 else np.concatenate(rejecting)
            rejected.append(math.fsum(nonzero.tolist()))
            if live.size < size:
                full = np.zeros((phases, size, v))
                full[:, live] = child
                child = full
            mass = child.reshape(phases, -1)
        law += mass.sum(axis=0).reshape(-1, law.size).sum(axis=0)
    return law, math.fsum(rejected)


def _generic_level(pair: ModelPair, policy: Policy):
    """Branches of the generic accept/replace round under ``policy``'s callbacks.

    A level gathers the acceptance values of every live history and token
    with one call each and checks them together: a level whose values are
    all float or np.float64 is taken as it is, and any other goes through
    ``decoding._acceptance_value`` value by value in (history, token) order,
    so its first bad value raises. Residual rows are read only at histories
    that can reject, by ``policy_residual_rows``.
    """
    v = pair.vocab_size

    def level(live: _Live):
        n, histories = live.n, live.histories
        p = live.rows(pair.p)
        b = [policy.acceptance(n, h, x) for h in histories for x in range(v)]
        if not set(map(type, b)) <= {float, np.float64}:
            b = [_acceptance_value(value, n) for value in b]
        b = _acceptances(np.array(b).reshape(1, -1, v), (n,))[0]
        reject = (p * (1.0 - b)).sum(axis=1)
        replacement = np.zeros_like(p)
        rejecting = np.flatnonzero(reject > 0.0)
        if rejecting.size:
            replacement[rejecting] = policy_residual_rows(
                policy, n, [histories[i] for i in rejecting], v
            )
        return [(0, 0, False, p * b), (0, 0, True, reject[:, None] * replacement)]

    return level


def _batch_level(pair: ModelPair, batch_size: int):
    """Branches of a batch round of M = batch_size responses; at M = 1, of speculative decoding.

    With one response the root tests against q as the within phase does, so
    the phases coincide: the level returns the within-round branches in phase
    0, and the walk runs one phase.
    """

    def level(live: _Live):
        p, q = live.rows(pair.p), live.rows(pair.q)
        kept = np.minimum(p, q)
        replacement, reject = _residual_rows(q, p)
        replaced = reject[:, None] * replacement
        if batch_size == 1:
            return [(ROOT, ROOT, False, kept), (ROOT, ROOT, True, replaced)]
        # Response m's first token is tested against iterate q^m, reached when
        # the m - 1 responses before it were rejected (probability r_1..r_{m-1}).
        # After all M, the round emits from q^{M+1} and is charged one call.
        # m = 1 tests against q, as the within phase does.
        accept, reached, q_m = kept, reject, replacement
        for _ in range(batch_size - 1):
            accept = accept + reached[:, None] * np.minimum(p, q_m)
            q_m, r_m = _residual_rows(q_m, p)
            reached = reached * r_m
        return [
            (ROOT, WITHIN, False, accept),
            (ROOT, ROOT, True, reached[:, None] * q_m),
            (WITHIN, WITHIN, False, kept),
            (WITHIN, ROOT, True, replaced),
        ]

    return level


def enumerate_law_and_rejections(
    pair: ModelPair, algorithm: str = "sd", *, batch_size: int = 1, policy: Policy | None = None
) -> tuple[np.ndarray, float]:
    """Exact output law and E[rejections] of a decoding algorithm, from one walk.

    The law is a flat array over all V**T trajectories in the
    joint_distribution indexing (x_1 most significant digit). Requires
    V**T <= FULL_TABLE_CAP.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    batch_size, policy = _run_args(pair, algorithm, batch_size, policy)
    _check_table_size(pair.vocab_size, pair.horizon)
    if policy is not None:
        return _walk(pair, 1, _generic_level(pair, policy))
    return _walk(pair, 1 if batch_size == 1 else 2, _batch_level(pair, batch_size))


def enumerate_output_distribution(
    pair: ModelPair, algorithm: str = "sd", *, batch_size: int = 1, policy: Policy | None = None
) -> np.ndarray:
    """The law of :func:`enumerate_law_and_rejections`."""
    return enumerate_law_and_rejections(pair, algorithm, batch_size=batch_size, policy=policy)[0]


def enumerate_expected_rejections(
    pair: ModelPair, algorithm: str = "sd", *, batch_size: int = 1, policy: Policy | None = None
) -> float:
    """The E[rejections] of :func:`enumerate_law_and_rejections`."""
    return enumerate_law_and_rejections(pair, algorithm, batch_size=batch_size, policy=policy)[1]
