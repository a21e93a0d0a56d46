"""Finite distributions and the residual calculus used by rejection-based decoding.

Everything downstream (samplers, exact recursions, enumeration oracles) goes
through the helpers here, so total variation and residuals are computed by one
definition each:

    tv(a, b)        = (1/2) * sum_x |a(x) - b(x)|
    [q - p]_+ (x)   = max(0, q(x) - p(x)) / sum_y max(0, q(y) - p(y))

For distributions the residual's normalizer equals tv(q, p). Every residual
row in the package, the samplers' replacement rows, the batch iterates
q^{m+1} = [q^m - p]_+, the oracles' branch weights and the policies' rows
[q - b p]_+, is formed by one kernel, ``_residual_rows``. Its one
zero-residual rule: a row whose weights max(q - p, 0) sum to zero (however
small a positive sum is, it is not zero) has no residual, and the kernel
returns it as a row of zeros with normalizer 0.

Values have one rule too. Next to the row rule, ``_row_totals``, which
decides "this row is a distribution" (``_normalized_rows`` applies it and
then divides), the value rule below decides "this is an integer, a real, an
array of reals", and every module asks it rather than deciding for itself:

* ``_float_array``: an array of reals is a Dist, an ndarray of integer or
  float dtype, or nested lists and tuples of real numbers. A bool anywhere,
  a string, None or a complex number is refused with ValueError; it is
  never coerced, so ``[True, 0.0]`` is not a distribution.
* ``_dist_vector``: a distribution vector is an array of reals that is
  nonempty, 1-D and passes the row rule. The single-token functions
  (``tv_distance``, the residuals, the tradeoff curve) read their p, q and
  residual arguments through it alone, undivided, so a valid vector keeps
  its exact values and a NaN, a negative entry or a vector off total 1 is a
  ValueError.
* ``_as_int`` and ``_int_arg``: an integer is an int, a numpy integer or an
  integral float such as 4.0 (JSON writers emit them), never a bool; TypeError
  otherwise, and ValueError below a given minimum.
* ``_real_arg``: a real is an int, a float or a numpy real, never a bool
  (TypeError); it must be finite and fit a float, and not fall below a given
  minimum (ValueError).

Seeds and stream indices of ``rng`` keep numpy's stricter index rule, which
also refuses integral floats.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

NORMALIZE_TOL = 1e-9


class ZeroResidual(ValueError):
    """Raised when a residual [q - p]_+ is requested but max(q - p, 0) sums to zero."""


def _float_array(values) -> np.ndarray:
    """``values`` (or a Dist's probabilities) as a float64 array of integers or floats.

    Raises ValueError for bools, strings, bytes, objects and complex numbers
    rather than coercing them, so ``[True, False]``, ``[True, 0.0]`` and
    ``["0.5", "0.5"]`` are not distributions. An ndarray is judged by its
    dtype alone; nested lists and tuples are also searched for bools, which
    numpy would turn into 1 and 0.
    """
    arr = values.probs if isinstance(values, Dist) else np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"distribution entries must be real numbers, got dtype {arr.dtype}")
    if isinstance(values, (list, tuple)):
        _refuse_bools(values)
    return arr.astype(np.float64, copy=False)


def _refuse_bools(values) -> None:
    """ValueError for a bool, a numpy bool or a bool array anywhere in nested lists and tuples."""
    if set(map(type, values)) <= {float, int}:
        return
    for item in values:
        if isinstance(item, (list, tuple)):
            _refuse_bools(item)
        elif isinstance(item, (bool, np.bool_)) or getattr(item, "dtype", None) == np.bool_:
            raise ValueError(f"distribution entries must be real numbers, got {item!r}")


def _as_int(value) -> int:
    """An integer config value; raises TypeError for bools, strings and non-integral numbers.

    Integral floats such as 4.0 are accepted, since JSON writers may emit them,
    and so are numpy integers, such as a token read from an array.
    """
    if isinstance(value, bool) or not isinstance(value, (numbers.Integral, float)):
        raise TypeError(f"{value!r} is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _int_arg(name: str, value, minimum: int | None = None) -> int:
    """Argument ``name`` as an integer (TypeError if it is not one), >= ``minimum`` if given."""
    try:
        value = _as_int(value)
    except TypeError:
        raise TypeError(f"{name} {value!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def _real_arg(name: str, value, minimum: float | None = None) -> float:
    """Argument ``name`` as a finite float, >= ``minimum`` if given.

    TypeError for a bool or a non-real; ValueError for nan, inf, an int too
    large for a float, or a value below ``minimum``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} {value!r} is not a real number")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def _token(token, vocab_size: int) -> int:
    """``token`` as an int in 0..vocab_size - 1: TypeError unless an integer, ValueError outside."""
    token = _int_arg("token", token)
    if not 0 <= token < vocab_size:
        raise ValueError(f"token {token} is outside 0..{vocab_size - 1}")
    return token


def _row_totals(arr: np.ndarray) -> np.ndarray:
    """The totals of every row of the float64 ``arr`` along its last axis, each row checked.

    The package's one rule for "this row is a distribution", used by Dist,
    CondDist, chain step stacks, policy residual rows and the vectors the
    single-token functions read: its entries are finite and nonnegative and
    sum to 1 within NORMALIZE_TOL. Rows are checked in C order, and the first
    bad row raises ValueError for its first failing check: a non-finite entry,
    then a negative entry, then a total off 1. A total within NORMALIZE_TOL of
    1 is finite only if every entry is, so the totals and one sign test over
    the whole array pass a valid ``arr``.
    """
    with np.errstate(all="ignore"):
        totals = arr.sum(axis=-1)
        off = ~(np.abs(totals - 1.0) <= NORMALIZE_TOL)
    if off.any() or (arr < 0.0).any():
        rows = arr.reshape(-1, arr.shape[-1])
        first = int(np.argmax(off.reshape(-1) | (rows < 0.0).any(axis=1)))
        if not np.isfinite(rows[first]).all():
            raise ValueError("distribution entries must be finite")
        if (rows[first] < 0.0).any():
            raise ValueError("distribution entries must be nonnegative")
        total = float(totals.reshape(-1)[first])
        raise ValueError(f"distribution sums to {total!r}, outside tolerance {NORMALIZE_TOL}")
    return totals


def _normalized_rows(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every row of the float64 ``arr``, checked by ``_row_totals`` and divided by its total.

    Each row is divided by its own total, so a row is stored bit for bit as
    if it were normalised alone; ``out=arr`` normalises in place.
    """
    return np.divide(arr, _row_totals(arr)[..., None], out=out)


def _dist_vector(values, normalize: bool = False) -> np.ndarray:
    """``values`` as a distribution vector: ``_float_array``, nonempty and 1-D, the row rule.

    The vector is divided by its total only when ``normalize``, so by default
    a valid vector keeps its exact values.
    """
    arr = _float_array(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a distribution must be a nonempty 1-D vector")
    if normalize:
        return _normalized_rows(arr)
    _row_totals(arr)
    return arr


class Dist:
    """Immutable probability vector over a finite vocabulary {0, ..., V-1}.

    The vector must pass ``_normalized_rows``; the stored vector is
    renormalized exactly so config files may carry rounded decimals. Use
    :meth:`from_weights` to build one from unnormalized mass.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs) -> None:
        arr = _dist_vector(probs, normalize=True)
        arr.flags.writeable = False
        self._probs = arr

    @classmethod
    def _view(cls, probs: np.ndarray) -> "Dist":
        """A Dist over an already checked, read-only vector, held without a copy."""
        dist = cls.__new__(cls)
        dist._probs = probs
        return dist

    @classmethod
    def from_weights(cls, weights) -> "Dist":
        """Normalize nonnegative weights into a Dist. Zero or non-finite total mass is an error."""
        arr = _float_array(weights)
        with np.errstate(all="ignore"):
            total = float(arr.sum())
        if not math.isfinite(total):
            raise ValueError(f"weights sum to {total!r}, not a finite total")
        if total <= 0.0:
            raise ValueError("cannot normalize zero total mass")
        return cls(arr / total)

    @classmethod
    def uniform(cls, size: int) -> "Dist":
        """Uniform over {0, ..., size - 1}; size must be an integer >= 1."""
        size = _int_arg("size", size, 1)
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def point(cls, size: int, token: int) -> "Dist":
        """Point mass on ``token`` in {0, ..., size - 1}; both must be integers."""
        size = _int_arg("size", size, 1)
        arr = np.zeros(size)
        arr[_token(token, size)] = 1.0
        return cls(arr)

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self._probs > 0.0)

    def __len__(self) -> int:
        return self._probs.size

    def __getitem__(self, token: int) -> float:
        return float(self._probs[token])

    def __iter__(self):
        return iter(self._probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return self._probs.shape == other._probs.shape and bool(
            np.all(self._probs == other._probs)
        )

    def __hash__(self) -> int:
        return hash(self._probs.tobytes())

    def __repr__(self) -> str:
        return f"Dist({self._probs.tolist()!r})"


def _tv_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tv over the last axis: one value per row when a and b are tables."""
    return 0.5 * np.abs(a - b).sum(axis=-1)


def _tv_arrays(a: np.ndarray, b: np.ndarray) -> float:
    return float(_tv_rows(a, b))


def _residual_rows(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise residuals [q - p]_+ and their normalizers sum max(q - p, 0) over the last axis.

    A row whose normalizer is zero has no residual and comes back as zeros, so
    callers can weight every row by its normalizer.
    """
    weights = np.subtract(q, p)
    np.maximum(weights, 0.0, out=weights)
    totals = weights.sum(axis=-1, keepdims=True)
    np.divide(weights, totals, out=weights, where=totals > 0.0)
    return weights, totals[..., 0]


def _capped_ratios(a: np.ndarray, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """min{1, a/p} elementwise, 1 where p = 0: the speculative acceptance rule.

    A ratio that overflows (p tiny, as 5e-324) or is undefined (p = 0) is inf
    or nan, which ``fmin`` takes to 1, with every floating-point warning off.
    Where p > 0 each entry is the scalar loop's ``min(1.0, a / p)``, whose
    Python division also gives inf, without a warning, where it overflows.
    ``out``, when given, receives the ratios and then their caps.
    """
    with np.errstate(all="ignore"):
        return np.fmin(np.divide(a, p, out=out), 1.0, out=out)


def _vector_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two distribution vectors of one length, each read by ``_dist_vector``; ValueError otherwise."""
    av, bv = _dist_vector(a), _dist_vector(b)
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.shape} vs {bv.shape}")
    return av, bv


def tv_distance(a, b) -> float:
    """Total variation distance (1/2) sum_x |a(x) - b(x)|.

    Accepts Dist objects or vectors of equal length that pass the row rule,
    read as they are: finite, nonnegative entries summing to 1 within
    NORMALIZE_TOL (ValueError otherwise).
    """
    return _tv_arrays(*_vector_pair(a, b))


def residual_plus(q, p) -> Dist:
    """Normalized positive residual [q - p]_+.

    Raises ZeroResidual when max(q - p, 0) sums to zero, where the residual is
    undefined. Decoding only requests a residual after a rejection, an event
    of probability tv(q, p), so the guard is unreachable from the samplers.
    """
    row, total = _residual_rows(*_vector_pair(q, p))
    if total <= 0.0:
        raise ZeroResidual("max(q - p, 0) sums to zero, residual undefined")
    return Dist(row)


def rejection_iterate(q_m, p) -> tuple[Dist, float]:
    """One step of the residual iteration q^{m+1} = [q^m - p]_+.

    Returns (q^{m+1}, r_m) with r_m = tv(q^m, p), the rejection probability of
    a draft from p verified against q^m. Raises ZeroResidual when
    max(q^m - p, 0) sums to zero.
    """
    qv, pv = _vector_pair(q_m, p)
    return residual_plus(qv, pv), _tv_arrays(qv, pv)
