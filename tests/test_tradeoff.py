"""Rejection/bias tradeoff: loss*, residual characterization, Pareto identity.

Hand instance frozen throughout: p = [0.7, 0.3], q = [0.4, 0.6], eps = 0.1.
Then b = [5/7, 1], rejection 0.2, A = [-0.5, 1.5], canonical residual [0, 1],
loss* = 0.1, and tv(p, q) = 0.3 splits as 0.2 + 0.1 on the Pareto line.
"""

import itertools

import numpy as np
import pytest

from specdec import (
    DegenerateRejection,
    ParetoPoint,
    epsilon_acceptance,
    induced_output_distribution,
    is_optimal_residual,
    loss_tv_star,
    optimal_residual,
    over_acceptance_policy,
    pareto_front,
    random_model_pair,
    rejection_probability,
    tradeoff_identity_gap,
    tv_distance,
)

from helpers import random_dists

P_HAND = np.array([0.7, 0.3])
Q_HAND = np.array([0.4, 0.6])
B_HAND = epsilon_acceptance(P_HAND, Q_HAND, 0.1)


def random_pq(count: int, size: int, seed: int):
    rng = np.random.default_rng(seed)
    ps = random_dists(rng, size, count)
    qs = random_dists(rng, size, count)
    return list(zip(ps, qs))


class TestHandInstance:
    def test_acceptance_rule(self):
        np.testing.assert_allclose(B_HAND, [5 / 7, 1.0], atol=1e-15)

    def test_rejection_probability(self):
        assert rejection_probability(B_HAND, P_HAND) == pytest.approx(0.2, abs=1e-15)

    def test_loss_star(self):
        assert loss_tv_star(B_HAND, P_HAND, Q_HAND) == pytest.approx(0.1, abs=1e-15)

    def test_coefficients_and_canonical(self):
        char = optimal_residual(B_HAND, P_HAND, Q_HAND)
        np.testing.assert_allclose(char.coefficients, [-0.5, 1.5], atol=1e-13)
        assert char.plus_set == (1,)
        assert char.minus_set == (0,)
        np.testing.assert_allclose(char.canonical.probs, [0.0, 1.0], atol=1e-15)

    def test_canonical_attains_loss_star(self):
        law = induced_output_distribution(B_HAND, [0.0, 1.0], P_HAND)
        assert tv_distance(law, Q_HAND) == pytest.approx(0.1, abs=1e-15)

    def test_target_residual_is_worse(self):
        law = induced_output_distribution(B_HAND, Q_HAND, P_HAND)
        assert tv_distance(law, Q_HAND) == pytest.approx(0.18, abs=1e-14)
        assert not is_optimal_residual(Q_HAND, B_HAND, P_HAND, Q_HAND)

    def test_point_sits_on_pareto_line(self):
        (point,) = pareto_front(P_HAND, Q_HAND, [0.1])
        assert point.reject_prob + point.loss_star == pytest.approx(0.3, abs=1e-15)


class TestEpsilonAcceptance:
    def test_zero_eps_is_speculative_rule(self):
        b = epsilon_acceptance(P_HAND, Q_HAND, 0.0)
        np.testing.assert_allclose(b, [4 / 7, 1.0], atol=1e-15)

    def test_unsupported_draft_tokens_get_one(self):
        b = epsilon_acceptance([0.0, 1.0], [0.3, 0.7], 0.0)
        assert b[0] == 1.0

    def test_monotone_in_eps(self):
        grid = [epsilon_acceptance(P_HAND, Q_HAND, e) for e in (0.0, 0.05, 0.2, 1.0)]
        for lo, hi in zip(grid, grid[1:]):
            assert np.all(hi >= lo - 1e-15)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            epsilon_acceptance(P_HAND, Q_HAND, -0.1)


class TestLossStar:
    def test_zero_below_speculative_rule(self):
        for p, q in random_pq(20, 3, seed=1):
            b = epsilon_acceptance(p, q, 0.0)
            assert loss_tv_star(b, p, q) == pytest.approx(0.0, abs=1e-14)
            assert loss_tv_star(0.5 * b, p, q) == pytest.approx(0.0, abs=1e-14)

    def test_full_acceptance_gives_tv(self):
        for p, q in random_pq(20, 4, seed=2):
            got = loss_tv_star(np.ones(4), p, q)
            assert got == pytest.approx(tv_distance(p, q), abs=1e-14)

    def test_nonnegative_for_any_rule(self):
        rng = np.random.default_rng(3)
        for p, q in random_pq(30, 3, seed=4):
            assert loss_tv_star(rng.uniform(size=3), p, q) >= -1e-15

    def test_acceptance_vector_validated(self):
        with pytest.raises(ValueError, match="shape"):
            loss_tv_star(np.ones(3), P_HAND, Q_HAND)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            loss_tv_star(np.array([1.4, 0.5]), P_HAND, Q_HAND)


class TestOptimalResidual:
    def test_coefficients_sum_to_one(self):
        rng = np.random.default_rng(5)
        for p, q in random_pq(25, 4, seed=6):
            b = rng.uniform(0.0, 0.95, size=4)
            char = optimal_residual(b, p, q)
            assert float(char.coefficients.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_canonical_is_member_and_attains(self):
        for p, q in random_pq(15, 3, seed=7):
            b = epsilon_acceptance(p, q, 0.15)
            try:
                char = optimal_residual(b, p, q)
            except DegenerateRejection:
                continue
            assert is_optimal_residual(char.canonical, b, p, q)
            law = induced_output_distribution(b, char.canonical, p)
            assert tv_distance(law, q) == pytest.approx(
                loss_tv_star(b, p, q), abs=1e-12
            )

    def test_mass_on_minus_set_disqualifies(self):
        char = optimal_residual(B_HAND, P_HAND, Q_HAND)
        assert char.minus_set == (0,)
        assert not is_optimal_residual([0.2, 0.8], B_HAND, P_HAND, Q_HAND)

    def test_exceeding_coefficient_cap_disqualifies(self):
        # A = [-1.5, 0, 2.5] here: token 1 sits in the plus set with cap 0,
        # so any residual mass on it already forfeits optimality
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.3, 0.5])
        b = np.array([1.0, 1.0, 0.0])
        char = optimal_residual(b, p, q)
        np.testing.assert_allclose(char.coefficients, [-1.5, 0.0, 2.5], atol=1e-13)
        assert is_optimal_residual([0.0, 0.0, 1.0], b, p, q)
        assert not is_optimal_residual([0.0, 0.5, 0.5], b, p, q)
        assert not is_optimal_residual([0.3, 0.3, 0.4], b, p, q)

    def test_non_distribution_rejected(self):
        assert not is_optimal_residual([0.7, 0.7], B_HAND, P_HAND, Q_HAND)
        with pytest.raises(ValueError, match="length"):
            is_optimal_residual([1.0], B_HAND, P_HAND, Q_HAND)

    def test_degenerate_rejection_raised(self):
        with pytest.raises(DegenerateRejection):
            optimal_residual(np.ones(2), P_HAND, Q_HAND)

    def test_grid_search_confirms_minimum(self):
        # brute force over the 2-simplex: no residual beats loss*, the best
        # grid member comes within grid resolution, canonical is exact
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.3, 0.5])
        b = epsilon_acceptance(p, q, 0.12)
        target = loss_tv_star(b, p, q)
        steps = 80
        best = np.inf
        for i, j in itertools.product(range(steps + 1), repeat=2):
            if i + j > steps:
                continue
            residual = np.array([i, j, steps - i - j]) / steps
            got = tv_distance(induced_output_distribution(b, residual, p), q)
            assert got >= target - 1e-12
            best = min(best, got)
        assert best <= target + 1.0 / steps


NOT_REAL = {
    "bool": [True, False],
    "str": ["0.5", "0.5"],
    "object": np.array([0.5, 0.5], dtype=object),
    "complex": [0.5 + 0j, 0.5],
}


class TestNoCoercion:
    @pytest.mark.parametrize("kind", NOT_REAL)
    def test_every_vector_argument_refuses_non_real_entries(self, kind):
        bad = NOT_REAL[kind]
        p, q, b = P_HAND, Q_HAND, B_HAND
        point = pareto_front(p, q, [0.1])[0]
        calls = [
            lambda: epsilon_acceptance(bad, q, 0.1),
            lambda: epsilon_acceptance(p, bad, 0.1),
            lambda: rejection_probability(bad, p),
            lambda: rejection_probability(b, bad),
            lambda: loss_tv_star(bad, p, q),
            lambda: loss_tv_star(b, p, bad),
            lambda: optimal_residual(b, bad, q),
            lambda: optimal_residual(b, p, bad),
            lambda: is_optimal_residual(bad, b, p, q),
            lambda: induced_output_distribution(b, bad, p),
            lambda: pareto_front(bad, q, [0.1]),
            lambda: tradeoff_identity_gap(point, p, bad),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="real numbers"):
                call()


class TestLengths:
    def test_q_of_another_length_is_refused(self):
        # numpy would broadcast a length-1 q against p.
        p, b = np.array([0.5, 0.5]), np.ones(2)
        for q in ([1.0], [0.2, 0.3, 0.5]):
            with pytest.raises(ValueError, match="length mismatch"):
                optimal_residual(0.5 * b, p, q)
            with pytest.raises(ValueError, match="length mismatch"):
                loss_tv_star(b, p, q)
            with pytest.raises(ValueError, match="length mismatch"):
                is_optimal_residual(p, 0.5 * b, p, q)


class TestParetoFront:
    def test_identity_holds_across_grid(self):
        grid = [i / 10 for i in range(11)]
        for p, q in random_pq(20, 3, seed=8):
            for point in pareto_front(p, q, grid):
                assert tradeoff_identity_gap(point, p, q) <= 1e-12

    def test_endpoints(self):
        for p, q in random_pq(10, 4, seed=9):
            tv = tv_distance(p, q)
            front = pareto_front(p, q, [0.0, 1.0])
            assert front[0].reject_prob == pytest.approx(tv, abs=1e-13)
            assert front[0].loss_star == pytest.approx(0.0, abs=1e-13)
            assert front[1].reject_prob == pytest.approx(0.0, abs=1e-13)
            assert front[1].loss_star == pytest.approx(tv, abs=1e-13)

    def test_monotone_along_eps(self):
        grid = [i / 20 for i in range(21)]
        for p, q in random_pq(10, 3, seed=10):
            front = pareto_front(p, q, grid)
            for a, c in zip(front, front[1:]):
                assert c.reject_prob <= a.reject_prob + 1e-14
                assert c.loss_star >= a.loss_star - 1e-14

    def test_gap_flags_corrupted_point(self):
        bad = ParetoPoint(epsilon=0.0, reject_prob=0.5, loss_star=0.5)
        assert tradeoff_identity_gap(bad, P_HAND, Q_HAND) > 0.1


class TestUnreachedBranches:
    def test_induced_law_refuses_a_residual_of_another_length(self):
        # numpy would broadcast a length-1 residual against p.
        for residual in ([1.0], [0.2, 0.3, 0.5]):
            with pytest.raises(ValueError, match="residual length does not match"):
                induced_output_distribution(B_HAND, residual, P_HAND)

    def test_over_acceptance_refuses_an_unknown_residual_kind(self):
        with pytest.raises(ValueError, match="residual_kind must be 'opt' or 'uno'"):
            over_acceptance_policy(random_model_pair(2, 2, seed=1), 0.1, "target")
