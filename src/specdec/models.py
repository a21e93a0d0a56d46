"""Token-sequence models: Markov chains, explicit history tables, draft/target pairs.

A model describes x_0 ~ prompt followed by conditionals for x_1..x_T. Histories
are tuples (x_0, ..., x_{n-1}) and ``step(n, history)`` returns the probability
row of x_n, so samplers and oracles are written once against that interface.

JSON descriptors (the on-disk form consumed by the CLI):

    {"vocab_size": V, "horizon": T, "prompt": [..V floats..],
     "steps": [step_1, ..., step_T]}        each step a V x V row-stochastic table

    {"generator": "random", "seed": 10, "vocab_size": 7, "horizon": 50}

The generator form draws every transition row as normalized uniform variates
from a seeded stream and uses a uniform prompt.

A MarkovModel holds its transition rows once, as one read-only (T, V, V) stack
``step_rows`` of its own, built from CondDist tables by stacking their rows;
its ``steps`` are CondDist views into that stack, and the row
cumsums ``step_cumsums`` and the (T + 1, V) target laws ``marginals`` are built
when a sampler or a closed form first asks for them.
Every row, of a CondDist or of a generated or descriptor-built stack, is
checked and renormalised by ``dist._normalized_rows``, so a bad stack raises
the error of its first bad row in C order, the one that T CondDist tables
would raise.

MarkovModel and FullModel extend one chain, ``_Chain``, which holds the
prompt, its cumsum (built once), per-position row stacks ("levels", level n
the rows of x_n, one per state) and their row cumsums (built on first use),
all read-only. One rule, ``_Chain._key``, maps (n, history) to (level, row),
and ``step`` and ``step_cumsum`` read only through it: a chain's state is
x_{n-1}, the last token of any nonempty history (``_chain_key``); a
FullModel's is the history's code (``_table_key``). Either raises KeyError
for a position outside 1..T or a token that is not an integer in 0..V-1,
and a FullModel for a history whose length is not n. Policy tables read
their rows by the same two keys, and their acceptance entries too: given a
candidate, a key holds it to the token rule, after the history, and adds
it to the index it returns.

A FullModel is the chain over histories, the history's code its state. It
holds T level stacks, level n of shape (V**n, V) with the history
(x_0, ..., x_{n-1}) at row ``_history_code``, x_0 the most significant digit;
a code's child at token x is code * V + x, the layout of the oracle's
frontier. This module alone knows that layout: the oracle, the history-level
closed form, the policies and ``joint_distribution`` read rows of either
model a level at a time through ``_level_rows``, which applies the rule to
codes: a code's row is the code modulo the level's row count, a chain's
code's last digit and a FullModel's code itself.
"""

from __future__ import annotations

import numpy as np

from .dist import NORMALIZE_TOL, Dist, _float_array, _int_arg, _normalized_rows, _token

FULL_TABLE_CAP = 1_000_000


def _check_table_size(vocab_size: int, horizon: int) -> None:
    """ValueError unless V**T, the number of trajectories x_{1:T}, is within FULL_TABLE_CAP."""
    if vocab_size**horizon > FULL_TABLE_CAP:
        raise ValueError(f"V**T = {vocab_size**horizon} exceeds the table cap {FULL_TABLE_CAP}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class CondDist:
    """One decoding step: a V x V table whose row s is the law of x_n given s.

    Every row is validated and renormalized by ``dist._normalized_rows``, as
    :class:`Dist` is.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows) -> None:
        arr = _float_array(rows)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("a conditional table must be square")
        if arr.size == 0:
            raise ValueError("a distribution must be a nonempty 1-D vector")
        self._rows = _read_only(_normalized_rows(arr))

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def vocab_size(self) -> int:
        return self._rows.shape[0]

    def row(self, state: int) -> np.ndarray:
        return self._rows[state]

    @classmethod
    def _view(cls, rows: np.ndarray) -> "CondDist":
        """Step over already checked, read-only ``rows``, held without a copy."""
        step = cls.__new__(cls)
        step._rows = rows
        return step


def _normalized_stack(arr: np.ndarray) -> np.ndarray:
    """The caller's own float64 (T, V, V) stack of step tables, renormalised in place.

    Its rows go through ``dist._normalized_rows`` in one pass, so it holds
    entry for entry what T CondDist tables would, and a bad row raises their
    error. An array that is not a stack of square tables raises CondDist's
    shape error; a stack of no steps is returned as is.
    """
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        for step in arr:
            CondDist(step)
        return arr
    return _normalized_rows(arr, out=arr)


def _row_cumsums(rows: np.ndarray) -> np.ndarray:
    """Read-only cumsums along the last axis: a stack of rows' cumsums, row by row."""
    return _read_only(np.cumsum(rows, axis=-1))


def _history_code(n: int, history: tuple[int, ...], vocab_size: int) -> int:
    """Row of ``history`` in level n: its tokens as base-V digits, x_0 the most significant.

    KeyError unless the history has length n and integer tokens in 0..V-1, a
    Python or numpy integer but not a bool.
    """
    if len(history) != n:
        raise KeyError(f"position {n} needs a history of length {n}, got {history}")
    code = 0
    for token in history:
        integral = token.__class__ is int or isinstance(token, np.integer)
        if not (integral and 0 <= token < vocab_size):
            raise KeyError(f"no table entry for history {history}")
        code = code * vocab_size + token
    return code


def _chain_key(n: int, history: tuple[int, ...], horizon: int, vocab_size: int,
               candidate=...) -> tuple:
    """(n - 1, x_{n-1}): where a chain's (T, V, V) rows hold x_n's row at ``history``.

    A chain takes any nonempty history. KeyError unless 1 <= n <= T and the
    last token is an integer in 0..V-1, as ``_history_code`` takes a token.
    Given a candidate other than ``...`` (the default, the whole row, as in
    a numpy index), (n - 1, x_{n-1}, candidate), where (T, V, V) tables hold
    its entry: KeyError, after the history's, unless the candidate is a
    token by the same rule.
    """
    if history:
        token = history[-1]
        integral = token.__class__ is int or isinstance(token, np.integer)
        if integral and 1 <= n <= horizon and 0 <= token < vocab_size:
            if candidate is ...:
                return n - 1, token
            if ((candidate.__class__ is int or isinstance(candidate, np.integer))
                    and 0 <= candidate < vocab_size):
                return n - 1, token, candidate
            raise KeyError(f"no table entry for candidate {candidate!r} at position {n}")
    raise KeyError(f"no table entry for history {history} at position {n}")


def _table_key(n: int, history: tuple[int, ...], horizon: int, vocab_size: int,
               candidate=...) -> tuple:
    """(n - 1, code): where a table over histories holds x_n's row at ``history``.

    KeyError unless 1 <= n <= T and ``_history_code`` takes the history.
    Given a candidate, (n - 1, code, candidate), the candidate held to the
    token rule by ``_chain_key``.
    """
    if 1 <= n <= horizon:
        code = _history_code(n, history, vocab_size)
        if candidate is ...:
            return n - 1, code
        return n - 1, code, _chain_key(n, history, horizon, vocab_size, candidate)[2]
    raise KeyError(f"no table entry for history {history} at position {n}")


class _Chain:
    """The Markov chain both models are: x_0 ~ prompt, then x_n ~ a row of level n.

    Level n - 1 of ``_levels`` holds the rows of x_n, one per state, and the
    row cumsums are laid out alike, all read-only. ``_key`` is the one rule
    that maps (n, history) to (level, row): ``_table_key``, the history's
    code, by default, and ``_chain_key``, x_{n-1}, for a chain. ``step`` and
    ``step_cumsum`` read through it, and ``_level_rows`` applies it to
    history codes.
    """

    __slots__ = ("_prompt", "_prompt_cumsum", "_levels", "_cumsum_levels")
    _key = staticmethod(_table_key)

    def _hold(self, prompt: Dist, levels) -> None:
        self._prompt, self._levels, self._cumsum_levels = prompt, levels, None
        self._prompt_cumsum = _read_only(np.cumsum(prompt.probs))

    @staticmethod
    def _cumsums_of(levels):
        return tuple(map(_row_cumsums, levels))

    def _cumsums(self):
        if self._cumsum_levels is None:
            self._cumsum_levels = self._cumsums_of(self._levels)
        return self._cumsum_levels

    @property
    def prompt(self) -> Dist:
        return self._prompt

    @property
    def vocab_size(self) -> int:
        return len(self._prompt)

    @property
    def horizon(self) -> int:
        return len(self._levels)

    @property
    def prompt_cumsum(self) -> np.ndarray:
        """Read-only cumsum of the prompt, built once."""
        return self._prompt_cumsum

    def step(self, n: int, history: tuple[int, ...]) -> np.ndarray:
        """Probability row of x_n given history (x_0, ..., x_{n-1}).

        KeyError unless ``_key`` takes (n, history).
        """
        level, row = self._key(n, history, len(self._levels), len(self._prompt_cumsum))
        return self._levels[level][row]

    def step_cumsum(self, n: int, history: tuple[int, ...]) -> np.ndarray:
        level, row = self._key(n, history, len(self._levels), len(self._prompt_cumsum))
        return self._cumsums()[level][row]


class MarkovModel(_Chain):
    """Nonstationary Markov chain: x_0 ~ prompt, x_n ~ steps[n-1].row(x_{n-1}).

    The rows of all T steps are one read-only (T, V, V) stack, ``step_rows``;
    each of ``steps`` is a CondDist view into it. A chain built from CondDist
    tables, even another chain's ``steps``, stacks their rows into a stack
    of its own. ``step`` reads any nonempty history by its last token.
    """

    __slots__ = ("_steps", "_marginals")
    _key = staticmethod(_chain_key)
    _cumsums_of = staticmethod(_row_cumsums)

    def __init__(self, prompt: Dist, steps) -> None:
        steps = tuple(steps)
        if not steps:
            raise ValueError("horizon must be at least 1")
        v = len(prompt)
        for step in steps:
            if not isinstance(step, CondDist):
                raise TypeError("steps must be CondDist tables")
            if step.vocab_size != v:
                raise ValueError("all steps must share the prompt's vocabulary size")
        self._hold(prompt, np.stack([step.rows for step in steps]))

    @classmethod
    def _from_stack(cls, prompt: Dist, rows: np.ndarray) -> "MarkovModel":
        """Chain over a nonempty (T, V, V) stack that ``_normalized_stack`` has checked."""
        if rows.shape[1] != len(prompt):
            raise ValueError("all steps must share the prompt's vocabulary size")
        model = cls.__new__(cls)
        model._hold(prompt, rows)
        return model

    def _hold(self, prompt: Dist, rows: np.ndarray) -> None:
        super()._hold(prompt, _read_only(rows))
        self._steps = tuple(map(CondDist._view, rows))
        self._marginals = None

    def _laws(self) -> np.ndarray:
        if self._marginals is None:
            laws = np.empty((len(self._levels) + 1, self.vocab_size))
            laws[0] = self._prompt.probs
            for n, rows in enumerate(self._levels):
                laws[n + 1] = laws[n] @ rows
            self._marginals = _read_only(laws)
        return self._marginals

    @property
    def steps(self) -> tuple[CondDist, ...]:
        return self._steps

    @property
    def step_rows(self) -> np.ndarray:
        """Read-only (T, V, V) transition rows; ``[n - 1, s]`` is ``step(n, (.., s))``."""
        return self._levels

    @property
    def step_cumsums(self) -> np.ndarray:
        """Read-only (T, V, V) row cumsums; ``[n - 1, s]`` is ``step_cumsum(n, (.., s))``.

        Only the samplers read them, so they are built on first use.
        """
        return self._cumsums()

    @property
    def marginals(self) -> np.ndarray:
        """Read-only (T + 1, V) laws of x_0..x_T; row 0 is the prompt, row n the law of x_n.

        Row n is row n - 1 times ``step_rows[n - 1]``, built on first use.
        """
        return self._laws()


class FullModel(_Chain):
    """General conditional model stored as explicit history tables.

    The table maps every history (x_0, ..., x_{n-1}) for 1 <= n <= horizon to
    the law of x_n. The model is the Markov chain over histories: it holds the
    rows as T read-only level stacks, level n of shape (V**n, V) with each
    history at the row of its code (``_history_code``, x_0 the most
    significant digit), the layout of the oracle's frontier. Construction
    enforces V**horizon <= FULL_TABLE_CAP, and a key's tokens must be integers
    (TypeError) in 0..V-1 (ValueError), as :meth:`Dist.point` takes a token.
    ``step`` reads only a history of length n.
    """

    __slots__ = ()

    def __init__(self, prompt: Dist, horizon: int, table: dict) -> None:
        v, horizon = len(prompt), _int_arg("horizon", horizon)
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        _check_table_size(v, horizon)
        levels = [np.empty((v**n, v)) for n in range(1, horizon + 1)]
        filled = set()
        for key, row in table.items():
            key = tuple(_token(t, v) for t in key)
            if not 1 <= len(key) <= horizon:
                raise ValueError(f"history {key} has length outside 1..{horizon}")
            probs = row.probs if isinstance(row, Dist) else Dist(row).probs
            if probs.size != v:
                raise ValueError("table rows must match the vocabulary size")
            levels[len(key) - 1][_history_code(len(key), key, v)] = probs
            filled.add(key)
        expected = sum(v**n for n in range(1, horizon + 1))
        if len(filled) != expected:
            raise ValueError(
                f"table must cover every history once: got {len(filled)} entries, need {expected}"
            )
        self._hold(prompt, tuple(map(_read_only, levels)))

    @classmethod
    def _from_levels(cls, prompt: Dist, levels) -> "FullModel":
        """Model over level stacks already laid out by history code and checked."""
        model = cls.__new__(cls)
        model._hold(prompt, tuple(map(_read_only, levels)))
        return model

    @classmethod
    def from_function(cls, prompt: Dist, horizon: int, fn) -> "FullModel":
        """Build a dense table by calling ``fn(n, history) -> row`` on every history."""
        v, horizon = len(prompt), _int_arg("horizon", horizon)
        _check_table_size(v, horizon)
        table = {}

        def expand(history: tuple[int, ...], n: int) -> None:
            if n > horizon:
                return
            table[history] = fn(n, history)
            for token in range(v):
                expand(history + (token,), n + 1)

        for x0 in range(v):
            expand((x0,), 1)
        return cls(prompt, horizon, table)


def _level_rows(source, n: int, codes: np.ndarray) -> np.ndarray:
    """Rows of x_n at the histories of ``codes``, by ``_key``'s rule on codes.

    A history's row is its code modulo the level's row count: the last digit
    in a chain's V-row level, the code itself in a table's V**n-row level.
    ``source`` is a model or a sequence of T row stacks laid out alike, such
    as a policy's tables.
    """
    level = getattr(source, "_levels", source)[n - 1]
    return level[codes % len(level)]


def _state_counts(*sources) -> list[int]:
    """R_n at each level n of ``sources`` together: the most rows a level n of one of them has.

    That is V**n where one is over histories, since a chain's levels hold V
    rows and a table's level n V**n, and V where all are chains. A stack's
    counts come from its shape, so no level is read, and a source whose
    counts equal those so far is not compared level by level.
    """
    counts = None
    for levels in (getattr(s, "_levels", s) for s in sources):
        rows = ([levels.shape[1]] * len(levels) if isinstance(levels, np.ndarray)
                else list(map(len, levels)))
        counts = rows if counts is None or counts == rows else list(map(max, counts, rows))
    return counts


def _flat_rows(source, counts) -> np.ndarray:
    """Level n's rows at states 0, ..., counts[n - 1] - 1, level after level, in one array.

    Rows are read by ``_level_rows``, so a chain's V rows repeat over a
    table's V**n states; a chain's stack read at V states is only reshaped.
    """
    if counts[0] == counts[-1]:
        return np.reshape(getattr(source, "_levels", source), (-1, counts[0]))
    return np.concatenate([_level_rows(source, n, np.arange(count))
                           for n, count in enumerate(counts, start=1)])


def markov_to_full(model: MarkovModel) -> FullModel:
    """Expand a Markov chain into explicit history tables (oracle cross-checks).

    Level n tiles the chain's step n rows V**(n-1) times, so each history's
    row is the chain's row for its last token, bit for bit.
    """
    if not isinstance(model, MarkovModel):
        raise TypeError("markov_to_full requires a MarkovModel")
    v = model.vocab_size
    _check_table_size(v, model.horizon)
    levels = [np.tile(rows, (v**k, 1)) for k, rows in enumerate(model.step_rows)]
    return FullModel._from_levels(model.prompt, levels)


def _is_markov_pair(pair) -> bool:
    """Whether both models of ``pair`` are MarkovModels."""
    return isinstance(pair.p, MarkovModel) and isinstance(pair.q, MarkovModel)


class ModelPair:
    """Draft model p and target model q over a shared vocabulary, horizon, prompt.

    Decoding draws a single x_0 that conditions both models, so the prompts
    must agree (within the Dist normalization tolerance). The last slot holds
    a Markov pair's closed-form record once ``exact`` has walked it: the tv
    table, SD's total and the root products P_2, ..., P_K of every level a
    batch walk has reached. Nothing else reads it.
    """

    __slots__ = ("_p", "_q", "_sd_record")

    def __init__(self, p, q) -> None:
        for model in (p, q):
            if not isinstance(model, _Chain):
                raise TypeError(f"expected a MarkovModel or FullModel, not {type(model).__name__}")
        if p.vocab_size != q.vocab_size:
            raise ValueError("draft and target must share the vocabulary size")
        if p.horizon != q.horizon:
            raise ValueError("draft and target must share the horizon")
        if not np.allclose(p.prompt.probs, q.prompt.probs, rtol=0.0, atol=NORMALIZE_TOL):
            raise ValueError("draft and target must share the prompt distribution")
        self._p = p
        self._q = q

    @property
    def p(self):
        return self._p

    @property
    def q(self):
        return self._q

    @property
    def vocab_size(self) -> int:
        return self._q.vocab_size

    @property
    def horizon(self) -> int:
        return self._q.horizon

    @property
    def prompt(self) -> Dist:
        return self._q.prompt


def _pair_arg(pair) -> ModelPair:
    """``pair`` itself; TypeError unless it is a ModelPair."""
    if not isinstance(pair, ModelPair):
        raise TypeError(f"expected a ModelPair, not {type(pair).__name__}")
    return pair


def joint_probability(model, tokens) -> float:
    """Probability of the trajectory x_{1:T} with the prompt token marginalized out.

    Args:
        model: MarkovModel or FullModel.
        tokens: sequence of T token ids, integers in 0..V-1 (TypeError if
            one is not an integer, ValueError if it is outside).

    Returns:
        sum_{x_0} prompt(x_0) * prod_n model(x_n | x_0, x_{1:n-1}).
    """
    tokens = tuple(_token(t, model.vocab_size) for t in tokens)
    if len(tokens) != model.horizon:
        raise ValueError(f"trajectory length {len(tokens)} != horizon {model.horizon}")
    total = 0.0
    for x0 in range(model.vocab_size):
        mass = model.prompt[x0]
        if mass == 0.0:
            continue
        history = (x0,)
        for n, token in enumerate(tokens, start=1):
            mass *= float(model.step(n, history)[token])
            if mass == 0.0:
                break
            history += (token,)
        total += mass
    return total


def joint_distribution(model) -> np.ndarray:
    """Exact law of x_{1:T} as a flat array of length V**T.

    Trajectories are indexed lexicographically, x_1 most significant:
    index = sum_n x_n * V**(T-n). Enforces V**T <= FULL_TABLE_CAP. Each prompt
    token with mass walks the levels alone, its histories' masses a vector
    over their codes, so the walk holds O(V**T) floats.
    """
    v, t = model.vocab_size, model.horizon
    _check_table_size(v, t)
    out = np.zeros(v**t)
    for x0 in np.flatnonzero(model.prompt.probs):
        mass = model.prompt.probs[x0 : x0 + 1]
        for n in range(1, t + 1):
            codes = np.arange(x0 * v ** (n - 1), (x0 + 1) * v ** (n - 1))
            mass = (mass[:, None] * _level_rows(model, n, codes)).ravel()
        out += mass
    return out


def trajectory_index(tokens, vocab_size: int) -> int:
    """Flat index of a trajectory under the joint_distribution ordering.

    Tokens must be integers in 0..vocab_size-1, as for :func:`joint_probability`.
    """
    index = 0
    for token in tokens:
        index = index * vocab_size + _token(token, vocab_size)
    return index


def target_marginals(model: MarkovModel) -> list[Dist]:
    """Per-position marginals mu_1..mu_T of a Markov chain: rows 1..T of its ``marginals``.

    The recursion starts from mu_0 = prompt and applies
    mu_n(x) = sum_s mu_{n-1}(s) * step_n(x | s).
    """
    if not isinstance(model, MarkovModel):
        raise TypeError("target_marginals requires a MarkovModel")
    return [Dist(mu) for mu in model.marginals[1:]]


def random_markov_model(
    vocab_size: int, horizon: int, seed=None, rng: np.random.Generator | None = None
) -> MarkovModel:
    """Seeded random chain: uniform prompt, transition rows = normalized uniforms.

    Raises TypeError unless ``vocab_size``, ``horizon`` and a ``seed`` other
    than None (OS entropy) are integers, and ValueError unless the sizes are
    >= 1 and the seed >= 0, before anything is drawn.
    """
    vocab_size, horizon = _int_arg("vocab_size", vocab_size, 1), _int_arg("horizon", horizon, 1)
    if rng is None:
        rng = np.random.default_rng(seed if seed is None else _int_arg("seed", seed, 0))
    # random() is uniform(0, 1) bit for bit on the same stream, and fills faster.
    raw = rng.random(size=(horizon, vocab_size, vocab_size))
    raw /= raw.sum(axis=2, keepdims=True)
    rows = _normalized_stack(raw)
    return MarkovModel._from_stack(Dist.uniform(vocab_size), rows)


def random_model_pair(vocab_size: int, horizon: int, seed) -> ModelPair:
    """Draft/target pair drawn from two child streams of one master seed, an integer >= 0."""
    child_p, child_q = np.random.SeedSequence(_int_arg("seed", seed, 0)).spawn(2)
    p = random_markov_model(vocab_size, horizon, rng=np.random.default_rng(child_p))
    q = random_markov_model(vocab_size, horizon, rng=np.random.default_rng(child_q))
    return ModelPair(p, q)


def model_to_descriptor(model: MarkovModel) -> dict:
    """Explicit JSON-serializable descriptor of a Markov model."""
    return {
        "vocab_size": model.vocab_size,
        "horizon": model.horizon,
        "prompt": model.prompt.probs.tolist(),
        "steps": model.step_rows.tolist(),
    }


def _real_array(value, depth: int, what: str) -> np.ndarray:
    """A config value of ``depth`` nested lists around real numbers, as a float array.

    The lists are checked here and the numbers by ``dist._float_array``;
    anything else, bools and numeric strings included, raises ValueError
    naming ``what``, so config values are never coerced.
    """

    def check(item, level: int) -> None:
        if not isinstance(item, list):
            raise ValueError(f"{what} must be {depth}-deep nested lists of numbers")
        if level > 1:
            for entry in item:
                check(entry, level - 1)

    check(value, depth)
    try:
        return _float_array(value)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _descriptor_int(desc: dict, key: str, minimum: int) -> int:
    """Descriptor field ``key`` as an integer >= ``minimum``; ValueError naming the field if not."""
    if key not in desc:
        raise ValueError(f"model descriptor is missing {key!r}")
    try:
        return _int_arg(f"model descriptor field {key!r}", desc[key], minimum)
    except TypeError:
        raise ValueError(f"model descriptor field {key!r} must be an integer") from None


def _generator_form(desc: dict) -> bool:
    """Whether ``desc`` is {"generator": "random", "seed": s, ...}; ValueError if half of one."""
    if "generator" not in desc:
        return False
    if desc["generator"] != "random":
        raise ValueError(f"unknown generator {desc['generator']!r}")
    if "seed" not in desc:
        raise ValueError("generator-form descriptor requires a seed")
    return True


def model_from_descriptor(desc: dict) -> MarkovModel:
    """Build a MarkovModel from an explicit or generator-form descriptor."""
    if not isinstance(desc, dict):
        raise ValueError("model descriptor must be a JSON object")
    vocab_size = _descriptor_int(desc, "vocab_size", 1)
    horizon = _descriptor_int(desc, "horizon", 1)
    if _generator_form(desc):
        return random_markov_model(vocab_size, horizon, seed=_descriptor_int(desc, "seed", 0))
    try:
        prompt = Dist(_real_array(desc["prompt"], 1, "model descriptor field 'prompt'"))
        tables = _real_array(desc["steps"], 3, "model descriptor field 'steps'")
    except KeyError as exc:
        raise ValueError(f"model descriptor is missing {exc.args[0]!r}") from None
    rows = _normalized_stack(tables)
    if len(prompt) != vocab_size:
        raise ValueError("prompt length does not match vocab_size")
    if len(rows) != horizon:
        raise ValueError("number of steps does not match horizon")
    return MarkovModel._from_stack(prompt, rows)


def pair_from_descriptor(desc: dict) -> ModelPair:
    """Build a ModelPair from {"p": .., "q": ..} or a pair-level generator form.

    The pair-level generator {"generator": "random", "seed": s, ...} derives
    independent child seeds for p and q from the one master seed.
    """
    if not isinstance(desc, dict):
        raise ValueError("pair descriptor must be a JSON object")
    if _generator_form(desc):
        return random_model_pair(
            _descriptor_int(desc, "vocab_size", 1),
            _descriptor_int(desc, "horizon", 1),
            _descriptor_int(desc, "seed", 0),
        )
    if "p" not in desc or "q" not in desc:
        raise ValueError('pair descriptor requires "p" and "q" models')
    return ModelPair(model_from_descriptor(desc["p"]), model_from_descriptor(desc["q"]))
