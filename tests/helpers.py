"""Shared fixtures: seeded model instances kept small enough for enumeration."""

from __future__ import annotations

import numpy as np

from specdec import CondDist, Dist, FullModel, MarkovModel, ModelPair, random_model_pair


def seeded_small_pairs(count: int = 50, master: int = 2024) -> list[ModelPair]:
    """Deterministic battery of random Markov pairs with V <= 3 and T <= 4."""
    picker = np.random.default_rng(master)
    pairs = []
    for i in range(count):
        vocab = int(picker.integers(2, 4))
        horizon = int(picker.integers(1, 5))
        pairs.append(random_model_pair(vocab, horizon, seed=master * 1000 + i))
    return pairs


def random_dists(rng: np.random.Generator, size: int, count: int) -> list[np.ndarray]:
    raw = rng.uniform(size=(count, size))
    return list(raw / raw.sum(axis=1, keepdims=True))


def constant_chain(prompt_row: np.ndarray, row: np.ndarray, horizon: int) -> MarkovModel:
    """Chain whose every transition row equals ``row`` regardless of state."""
    table = np.tile(row, (len(row), 1))
    return MarkovModel(Dist(prompt_row), [CondDist(table)] * horizon)


def with_prompt(pair: ModelPair, prompt) -> ModelPair:
    """The Markov pair with its prompt distribution replaced."""
    prompt = Dist(prompt)
    return ModelPair(MarkovModel(prompt, pair.p.steps), MarkovModel(prompt, pair.q.steps))


def random_full_pair(vocab: int, horizon: int, seed: int, prompt=None) -> ModelPair:
    """Non-Markov pair: every history gets its own random conditional.

    The prompt distribution is uniform unless given.
    """
    prompt = Dist.uniform(vocab) if prompt is None else Dist(prompt)
    seq_p, seq_q = np.random.SeedSequence(seed).spawn(2)

    def build(seq):
        rng = np.random.default_rng(seq)

        def fn(n, history):
            raw = rng.uniform(size=vocab)
            return raw / raw.sum()

        return FullModel.from_function(prompt, horizon, fn)

    return ModelPair(build(seq_p), build(seq_q))


def sparse_draft_pair(vocab: int, horizon: int, seed: int) -> ModelPair:
    """Random pair whose draft rows have zeros where the target keeps mass."""
    base = random_model_pair(vocab, horizon, seed=seed)
    rng = np.random.default_rng(seed)
    steps = []
    for step in base.p.steps:
        rows = step.rows.copy()
        drop = rng.random(rows.shape) < 0.35
        drop[np.arange(vocab), rows.argmax(axis=1)] = False
        rows[drop] = 0.0
        steps.append(CondDist(rows / rows.sum(axis=1, keepdims=True)))
    return ModelPair(MarkovModel(base.p.prompt, steps), base.q)
