"""Shared fixtures: seeded model instances kept small enough for enumeration.

The degenerate Markov pairs at the end make some decoding runs fail, on a
draft outside p's support or an empty residual, and others complete.
"""

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


def unnormalized_step(rows) -> CondDist:
    """A step table that skips CondDist's validation, to reach float-rounding guards on purpose."""
    step = CondDist.__new__(CondDist)
    step._rows = np.asarray(rows, dtype=np.float64)
    return step


def zero_residual_pair() -> ModelPair:
    """q's rows sum to 0.8 and lie below p's, so every rejection finds max(q - p, 0) = 0."""
    prompt = Dist([0.5, 0.5])
    p = MarkovModel(prompt, [CondDist([[0.5, 0.5], [0.5, 0.5]])] * 2)
    q = MarkovModel(prompt, [unnormalized_step([[0.4, 0.4], [0.4, 0.4]])] * 2)
    return ModelPair(p, q)


def empty_third_iterate_pair() -> ModelPair:
    """The first empty iterate is q^3 = [q^2 - p]_+, at position 2 only.

    There p's rows sum to 1.8 and q's to 2.2, so q's residual is
    q^2 = [0, 0.5, 0.5] <= p: an opening run that rejects response 0 (tested
    against q) and then token 0 of response 1 (against q^2) finds
    max(q^2 - p, 0) = 0. Runs inside a round test against q only.
    """
    prompt, uniform = Dist.uniform(3), CondDist(np.full((3, 3), 1 / 3))
    p = MarkovModel(prompt, [
        CondDist([[0.9, 0.05, 0.05]] * 3), unnormalized_step([[0.8, 0.5, 0.5]] * 3), uniform,
    ])
    q = MarkovModel(prompt, [
        uniform, unnormalized_step([[0.2, 1.0, 1.0]] * 3), CondDist([[0.2, 0.3, 0.5]] * 3),
    ])
    return ModelPair(p, q)


def partly_off_support_pair() -> ModelPair:
    """p has no mass on token V - 1 = 2 in one row only: state 0 at position 2.

    That row sums to 0.9, so a draft from it lands on token 2 through the
    sampler's clamp when u >= 0.9; every other p row puts mass on token 2.
    """
    base = random_model_pair(3, 3, seed=5)
    rows = base.p.step_rows[1].copy()
    rows[0] = [0.45, 0.45, 0.0]
    steps = [base.p.steps[0], unnormalized_step(rows), base.p.steps[2]]
    return ModelPair(MarkovModel(base.p.prompt, steps), base.q)


def empty_and_off_support_pair() -> ModelPair:
    """At T = 1, p's rows (0.9, 0) lose a draft off its support when its uniform is >= 0.9.

    q's rows (0.5, 0) lie below p's, so every rejection finds max(q - p, 0)
    = 0: a run that rejects response 0 meets the empty residual before it
    would draft response 1, off p's support or not.
    """
    prompt = Dist.uniform(2)
    p = MarkovModel(prompt, [unnormalized_step([[0.9, 0.0]] * 2)])
    q = MarkovModel(prompt, [unnormalized_step([[0.5, 0.0]] * 2)])
    return ModelPair(p, q)


def positions_apart_pair() -> ModelPair:
    """empty_third_iterate_pair with q's rows below p's at position 3.

    So M = 1 runs fail at position 3 only, where every rejection finds
    max(q - p, 0) = 0, and M = 2 runs already at position 2, where opening
    runs that reject both root tests find q^3 empty.
    """
    base = empty_third_iterate_pair()
    q = MarkovModel(base.q.prompt, [*base.q.steps[:2], unnormalized_step([[0.3, 0.3, 0.3]] * 3)])
    return ModelPair(base.p, q)


def late_draft_pair() -> ModelPair:
    """At T = 1, a draft leaves p's support with probability 0.1, at whichever response it drafts.

    p's rows are (0.45, 0.45, 0) and sum to 0.9, so a draft lands on token 2
    through the sampler's clamp when its uniform is >= 0.9. q = (0.6, 0.1,
    0.3): response 0 may accept token 0 or 1, response 1, tested against
    q^2 = (1/3, 0, 2/3), token 0 only, and from response 2 on every iterate
    is (0, 0, 1), so no draft on p's support is accepted.
    """
    prompt = Dist.uniform(3)
    p = MarkovModel(prompt, [unnormalized_step([[0.45, 0.45, 0.0]] * 3)])
    q = MarkovModel(prompt, [CondDist([[0.6, 0.1, 0.3]] * 3)])
    return ModelPair(p, q)
