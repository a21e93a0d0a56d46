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
"""

from __future__ import annotations

import numbers

import numpy as np

NORMALIZE_TOL = 1e-9


class ZeroResidual(ValueError):
    """Raised when a residual [q - p]_+ is requested but max(q - p, 0) sums to zero."""


def _float_array(values) -> np.ndarray:
    """``values`` (or a Dist's probabilities) as a float64 array of integers or floats.

    Raises ValueError for bools, strings, bytes, objects and complex numbers
    rather than coercing them, so ``[True, False]`` and ``["0.5", "0.5"]`` are
    not distributions.
    """
    arr = values.probs if isinstance(values, Dist) else np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"distribution entries must be real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


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


def _token(token, vocab_size: int) -> int:
    """``token`` as an int in 0..vocab_size - 1: TypeError unless an integer, ValueError outside."""
    token = _int_arg("token", token)
    if not 0 <= token < vocab_size:
        raise ValueError(f"token {token} is outside 0..{vocab_size - 1}")
    return token


def _normalized_rows(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every row of the float64 ``arr`` along its last axis, checked and divided by its total.

    The package's one rule for "this row is a distribution", used by Dist,
    CondDist, chain step stacks and policy residual rows: its entries are
    finite and nonnegative and sum to 1 within NORMALIZE_TOL. Rows are checked
    in C order, and the first bad row raises ValueError for its first failing
    check: a non-finite entry, then a negative entry, then a total off 1. A
    total within NORMALIZE_TOL of 1 is finite only if every entry is, so the
    totals and one sign test over the whole array pass a valid ``arr``. Each
    row is divided by its own total, so a row is stored bit for bit as if it
    were normalised alone; ``out=arr`` normalises in place.
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
    return np.divide(arr, totals[..., None], out=out)


class Dist:
    """Immutable probability vector over a finite vocabulary {0, ..., V-1}.

    The vector must pass ``_normalized_rows``; the stored vector is
    renormalized exactly so config files may carry rounded decimals. Use
    :meth:`from_weights` to build one from unnormalized mass.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs) -> None:
        arr = _float_array(probs)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a distribution must be a nonempty 1-D vector")
        arr = _normalized_rows(arr)
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
        """Normalize nonnegative weights into a Dist. Zero total mass is an error."""
        arr = _float_array(weights)
        total = float(arr.sum())
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
    weights = np.maximum(q - p, 0.0)
    totals = weights.sum(axis=-1, keepdims=True)
    np.divide(weights, totals, out=weights, where=totals > 0.0)
    return weights, totals[..., 0]


def _vector_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two Dists or real vectors as float64 arrays of one shape; ValueError otherwise."""
    av, bv = _float_array(a), _float_array(b)
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.shape} vs {bv.shape}")
    return av, bv


def tv_distance(a, b) -> float:
    """Total variation distance (1/2) sum_x |a(x) - b(x)|.

    Accepts Dist objects or raw vectors of equal length.
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
