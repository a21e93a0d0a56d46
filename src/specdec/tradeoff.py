"""Single-token tradeoff between rejection probability and output bias.

Raising the acceptance rule b above min{1, q/p} cuts rejections below
tv(p, q) but makes exact unbiasedness impossible. For a fixed b the best
achievable bias is

    loss*(b) = (1/2) sum_x |q - b p| - (1/2) sum_x (1 - b) p

and a replacement distribution P attains it iff P vanishes where the
coefficient A = (q - b p) / sum((1 - b) p) is negative and P <= A elsewhere.
For the over-acceptance family b = min{1, (q + eps)/p} the achieved points
trace the exact line  P(reject) + loss*(b) = tv(p, q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import (Dist, _capped_ratios, _dist_vector, _float_array, _real_arg, _residual_rows,
                   _tv_arrays, _vector_pair)

DEGENERATE_TOL = 1e-15
MEMBERSHIP_TOL = 1e-9


class DegenerateRejection(ValueError):
    """Raised when rejection has probability zero and no residual is ever sampled."""


@dataclass(frozen=True)
class ResidualCharacterization:
    """Solution set of the minimal-bias residual problem for one acceptance rule.

    ``coefficients`` is the vector A; a residual is optimal iff it is a
    distribution supported inside ``plus_set`` with P(x) <= A(x) pointwise.
    ``canonical`` is the member [A]_+, proportional to max{q - b p, 0}.
    """

    coefficients: np.ndarray
    plus_set: tuple[int, ...]
    minus_set: tuple[int, ...]
    canonical: Dist


@dataclass(frozen=True)
class ParetoPoint:
    """One over-acceptance setting: rejection probability vs minimal bias."""

    epsilon: float
    reject_prob: float
    loss_star: float


def _validate_acceptance(b, size: int) -> np.ndarray:
    arr = _float_array(b)
    if arr.shape != (size,):
        raise ValueError(f"acceptance vector has shape {arr.shape}, expected ({size},)")
    if not np.all(np.isfinite(arr)) or np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("acceptance probabilities must lie in [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def epsilon_acceptance(p, q, eps: float) -> np.ndarray:
    """Over-acceptance rule b(x) = min{1, (q(x) + eps) / p(x)}, b = 1 off p's support.

    ``eps`` is a finite real >= 0: TypeError for a bool or a non-real,
    ValueError otherwise.
    """
    eps = _real_arg("eps", eps, 0.0)
    pv, qv = _vector_pair(p, q)
    return _capped_ratios(qv + eps, pv)


def rejection_probability(b, p) -> float:
    """Probability sum_x (1 - b(x)) p(x) that a draft from p is rejected."""
    pv = _dist_vector(p)
    return _rejection(_validate_acceptance(b, pv.size), pv)


def loss_tv_star(b, p, q) -> float:
    """Smallest total variation to q achievable by any residual under rule b.

    Zero exactly when b <= min{1, q/p} pointwise; equals tv(p, q) at b = 1.
    """
    pv, qv = _vector_pair(p, q)
    return _loss(_validate_acceptance(b, pv.size), pv, qv)


def _rejection(b: np.ndarray, p: np.ndarray) -> float:
    """sum_x (1 - b(x)) p(x) for an acceptance vector and a draft already checked."""
    return float(((1.0 - b) * p).sum())


def _loss(b: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """loss*(b) for an acceptance vector, draft and target already checked."""
    return 0.5 * float(np.abs(q - b * p).sum()) - 0.5 * _rejection(b, p)


def optimal_residual(b, p, q) -> ResidualCharacterization:
    """Characterize every bias-minimizing residual for acceptance rule b.

    Raises DegenerateRejection when sum (1 - b) p = 0: rejection never occurs
    and the residual is immaterial.
    """
    pv, qv = _vector_pair(p, q)
    bv = _validate_acceptance(b, pv.size)
    denom = _rejection(bv, pv)
    if denom <= DEGENERATE_TOL:
        raise DegenerateRejection("rejection probability is zero under this acceptance rule")
    coeff = (qv - bv * pv) / denom
    coeff.flags.writeable = False
    plus = tuple(int(x) for x in np.flatnonzero(coeff >= 0.0))
    minus = tuple(int(x) for x in np.flatnonzero(coeff < 0.0))
    return ResidualCharacterization(
        coefficients=coeff,
        plus_set=plus,
        minus_set=minus,
        canonical=Dist(_residual_rows(qv, bv * pv)[0]),
    )


def is_optimal_residual(candidate, b, p, q) -> bool:
    """Whether a distribution attains loss*(b): the A-coefficient test, within MEMBERSHIP_TOL."""
    char = optimal_residual(b, p, q)
    rv = _float_array(candidate)
    if rv.shape != char.coefficients.shape:
        raise ValueError("residual length does not match the vocabulary")
    if np.any(rv < -MEMBERSHIP_TOL) or abs(float(rv.sum()) - 1.0) > MEMBERSHIP_TOL:
        return False
    if any(rv[x] > MEMBERSHIP_TOL for x in char.minus_set):
        return False
    return all(rv[x] <= char.coefficients[x] + MEMBERSHIP_TOL for x in char.plus_set)


def induced_output_distribution(b, residual, p) -> Dist:
    """Single-token law of accept-or-replace decoding: b p + P * sum (1 - b) p.

    The residual P, like p, must pass the row rule, read as it is.
    """
    pv = _dist_vector(p)
    bv = _validate_acceptance(b, pv.size)
    rv = _dist_vector(residual)
    if rv.shape != pv.shape:
        raise ValueError("residual length does not match the vocabulary")
    return Dist(bv * pv + rv * _rejection(bv, pv))


def pareto_front(p, q, eps_grid) -> list[ParetoPoint]:
    """Rejection/bias curve of the over-acceptance family along an eps grid.

    Each point satisfies reject_prob + loss_star = tv(p, q) exactly; eps = 0
    gives (tv, 0) and saturating eps gives (0, tv). p and q are checked once,
    and each eps, as :func:`epsilon_acceptance` checks it, before it is read.
    """
    pv, qv = _vector_pair(p, q)
    points = []
    for eps in eps_grid:
        b = _capped_ratios(qv + _real_arg("eps", eps, 0.0), pv)
        points.append(
            ParetoPoint(epsilon=float(eps), reject_prob=_rejection(b, pv), loss_star=_loss(b, pv, qv))
        )
    return points


def tradeoff_identity_gap(point: ParetoPoint, p, q) -> float:
    """|reject_prob + loss_star - tv(p, q)| for one Pareto point (a guard value)."""
    return abs(point.reject_prob + point.loss_star - _tv_arrays(*_vector_pair(p, q)))
