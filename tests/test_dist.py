"""Distribution primitives: frozen hand values plus metric/residual invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import CondDist, Dist, ZeroResidual, rejection_iterate, residual_plus, tv_distance
from specdec.dist import _residual_rows

# Ground truth evaluated by hand:
#   tv([0.7,0.3],[0.4,0.6])   = (|0.3| + |-0.3|)/2 = 0.3
#   [q-p]_+ for q=[0.4,0.6], p=[0.7,0.3]  -> mass 0.3 on token 1 -> [0,1]
#   [q-p]_+ for q=[0.2,0.5,0.3], p=[0.5,0.2,0.3] -> [0,1,0]
#   iterate q=[0.5,0.5,0,0] vs uniform(4): residual [0.25,0.25,0,0] -> [0.5,0.5,0,0],
#     r = (0.25+0.25+0.25+0.25)/2 = 0.5
#   iterate q=[0.9,0.1] vs [0.5,0.5]: residual [0.4,0] -> [1,0], r = 0.4
HAND_TV = 0.3
HAND_ITERATE_UNIFORM_R = 0.5
HAND_ITERATE_BERN_R = 0.4


def _dist_weights(size):
    return st.lists(
        st.floats(min_value=1e-3, max_value=1.0, allow_nan=False), min_size=size, max_size=size
    )


class TestDist:
    def test_renormalizes_within_tolerance(self):
        d = Dist([0.5000000001, 0.4999999999])
        assert d.probs.sum() == 1.0

    def test_rejects_sum_outside_tolerance(self):
        with pytest.raises(ValueError, match="sums to"):
            Dist([0.6, 0.6])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dist([1.1, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Dist([np.nan, 1.0])

    def test_immutable(self):
        d = Dist([0.25, 0.75])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_from_weights_normalizes(self):
        d = Dist.from_weights([2.0, 6.0])
        np.testing.assert_allclose(d.probs, [0.25, 0.75])

    def test_from_weights_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="zero total mass"):
            Dist.from_weights([0.0, 0.0])

    def test_uniform_point_support(self):
        assert Dist.uniform(4)[2] == 0.25
        d = Dist.point(3, 1)
        assert tuple(d.support) == (1,)
        assert Dist.point(3.0, 2.0) == Dist.point(3, np.int64(2)) == Dist.point(3, 2)
        assert Dist.uniform(2.0) == Dist.uniform(2)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Dist.point(3, -1), ValueError, "token -1 is outside 0..2"),
            (lambda: Dist.point(3, 3), ValueError, "token 3 is outside 0..2"),
            (lambda: Dist.point(0, 0), ValueError, "size must be >= 1"),
            (lambda: Dist.uniform(0), ValueError, "size must be >= 1"),
            (lambda: Dist.uniform(-2), ValueError, "size must be >= 1"),
            (lambda: Dist.point(3, True), TypeError, "not an integer"),
            (lambda: Dist.point(True, 0), TypeError, "not an integer"),
            (lambda: Dist.point(3, 1.5), TypeError, "not an integer"),
            (lambda: Dist.uniform(2.5), TypeError, "not an integer"),
            (lambda: Dist.uniform("2"), TypeError, "not an integer"),
        ],
        ids=["negative-token", "token-past-end", "empty-point", "empty-uniform",
             "negative-uniform", "bool-token", "bool-size", "fractional-token",
             "fractional-size", "str-size"],
    )
    def test_uniform_and_point_refuse_bad_arguments(self, build, error, message):
        with pytest.raises(error, match=message):
            build()


NOT_REAL = {
    "str": ["0.5", "0.5"],
    "bool": [True, False],
    "bytes": [b"1", b"0"],
    "complex": [0.5 + 0j, 0.5],
    "none": [0.5, None],
    "object": np.array([0.5, 0.5], dtype=object),
}


class TestNoCoercion:
    @pytest.mark.parametrize("kind", NOT_REAL)
    def test_dist_and_weights_refuse_non_real_entries(self, kind):
        values = NOT_REAL[kind]
        with pytest.raises(ValueError, match="real numbers"):
            Dist(values)
        with pytest.raises(ValueError, match="real numbers"):
            Dist.from_weights(values)

    @pytest.mark.parametrize("kind", NOT_REAL)
    def test_cond_dist_refuses_non_real_tables(self, kind):
        row = np.asarray(NOT_REAL[kind])
        with pytest.raises(ValueError, match="real numbers"):
            CondDist(np.stack([row, row]))

    @pytest.mark.parametrize("kind", NOT_REAL)
    def test_residual_calculus_refuses_non_real_vectors(self, kind):
        values = NOT_REAL[kind]
        for call in (tv_distance, residual_plus, rejection_iterate):
            with pytest.raises(ValueError, match="real numbers"):
                call(values, [0.25, 0.75])
            with pytest.raises(ValueError, match="real numbers"):
                call([0.25, 0.75], values)

    def test_integer_and_float_inputs_still_accepted(self):
        assert Dist([0, 1]) == Dist.point(2, 1)
        assert Dist(np.array([1, 3], dtype=np.uint8) / 4) == Dist([0.25, 0.75])
        assert Dist(np.array([0.25, 0.75], dtype=np.float32)) == Dist([0.25, 0.75])
        assert Dist.from_weights([1, 3]) == Dist([0.25, 0.75])
        np.testing.assert_array_equal(CondDist([[1, 0], [0, 1]]).rows, np.eye(2))
        assert tv_distance([1, 0], [0.5, 0.5]) == 0.5
        assert residual_plus([0, 1], Dist([0.5, 0.5])) == Dist([0.0, 1.0])

    def test_mixed_bool_and_float_lists_become_floats(self):
        # numpy gives [True, 0.5] a float dtype, so the bool reads as 1.0.
        assert Dist.from_weights([True, 0.5, 0.5]) == Dist([0.5, 0.25, 0.25])


class TestTvDistance:
    def test_hand_value(self):
        assert tv_distance([0.7, 0.3], [0.4, 0.6]) == pytest.approx(HAND_TV, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            tv_distance([1.0], [0.5, 0.5])

    def test_accepts_dist_objects(self):
        assert tv_distance(Dist([0.7, 0.3]), Dist([0.4, 0.6])) == pytest.approx(HAND_TV)

    @given(_dist_weights(4), _dist_weights(4), _dist_weights(4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_metric_axioms(self, wa, wb, wc):
        a = Dist.from_weights(wa).probs
        b = Dist.from_weights(wb).probs
        c = Dist.from_weights(wc).probs
        assert tv_distance(a, a) == 0.0
        assert tv_distance(a, b) == tv_distance(b, a)
        assert 0.0 <= tv_distance(a, b) <= 1.0
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12

    @given(_dist_weights(5), _dist_weights(5))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_overlap_identity(self, wp, wq):
        # sum_x min(p, q) = 1 - tv(p, q) for distributions
        p = Dist.from_weights(wp).probs
        q = Dist.from_weights(wq).probs
        overlap = float(np.minimum(p, q).sum())
        assert overlap == pytest.approx(1.0 - tv_distance(p, q), abs=1e-12)


class TestResidualPlus:
    def test_hand_values(self):
        np.testing.assert_allclose(residual_plus([0.4, 0.6], [0.7, 0.3]).probs, [0.0, 1.0])
        np.testing.assert_allclose(
            residual_plus([0.2, 0.5, 0.3], [0.5, 0.2, 0.3]).probs, [0.0, 1.0, 0.0]
        )

    def test_zero_residual_raises(self):
        with pytest.raises(ZeroResidual):
            residual_plus([0.5, 0.5], [0.5, 0.5])

    def test_tiny_positive_residual_is_kept(self):
        # tv = 4e-13: the samplers would draw from this residual, so it is defined.
        q, p = [0.5 + 4e-13, 0.5 - 4e-13], [0.5, 0.5]
        assert residual_plus(q, p) == Dist([1.0, 0.0])
        d, r = rejection_iterate(q, p)
        assert d == Dist([1.0, 0.0]) and 0.0 < r < 1e-12

    @given(_dist_weights(4), _dist_weights(4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_support_and_reconstruction(self, wp, wq):
        p = Dist.from_weights(wp).probs
        q = Dist.from_weights(wq).probs
        tv = tv_distance(p, q)
        if tv < 1e-9:
            return
        res = residual_plus(q, p).probs
        assert np.all(res[q <= p] == 0.0)
        # accept mass plus rejection mass rebuilds the target law exactly
        np.testing.assert_allclose(np.minimum(p, q) + tv * res, q, atol=1e-12)


class TestResidualRows:
    def test_rows_match_residual_plus_and_zero_tv_rows_are_zero(self):
        q = np.array([[0.4, 0.6], [0.5, 0.5], [0.9, 0.1]])
        p = np.array([[0.7, 0.3], [0.5, 0.5], [0.5, 0.5]])
        rows, totals = _residual_rows(q, p)
        # The second value is the kernel's own normaliser, not a second tv pass.
        np.testing.assert_array_equal(totals, np.maximum(q - p, 0.0).sum(-1))
        np.testing.assert_array_equal(rows[1], [0.0, 0.0])
        assert totals[1] == 0.0
        for i in (0, 2):
            np.testing.assert_allclose(rows[i], residual_plus(q[i], p[i]).probs, atol=1e-15)

    def test_zero_total_rows_are_zeros_in_any_shape(self):
        # A (2, 2, 3) stack with a zero-total row in each block, and one row alone.
        rng = np.random.default_rng(3)
        q = rng.random((2, 2, 3))
        q /= q.sum(-1, keepdims=True)
        p = q.copy()
        p[:, 1] = rng.random((2, 3))
        p[:, 1] /= p[:, 1].sum(-1, keepdims=True)
        rows, totals = _residual_rows(q, p)
        assert rows.shape == (2, 2, 3) and totals.shape == (2, 2)
        np.testing.assert_array_equal(totals, np.maximum(q - p, 0.0).sum(-1))
        np.testing.assert_array_equal(rows[:, 0], 0.0)
        assert np.all(totals[:, 1] > 0.0)
        np.testing.assert_allclose(rows[:, 1].sum(-1), 1.0, atol=1e-15)
        row, total = _residual_rows(q[0, 0], p[0, 0])
        np.testing.assert_array_equal(row, 0.0)
        assert total.shape == () and total == 0.0


class TestRejectionIterate:
    def test_uniform_hand_value(self):
        d, r = rejection_iterate([0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(d.probs, [0.5, 0.5, 0.0, 0.0])
        assert r == pytest.approx(HAND_ITERATE_UNIFORM_R, abs=1e-15)

    def test_bernoullilike_hand_value(self):
        d, r = rejection_iterate([0.9, 0.1], [0.5, 0.5])
        np.testing.assert_allclose(d.probs, [1.0, 0.0])
        assert r == pytest.approx(HAND_ITERATE_BERN_R, abs=1e-15)

    def test_uniform_subset_is_fixed_point(self):
        # q = Unif(V') iterates to itself against p = Unif(V), r = 1 - V'/V
        q = [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0]
        p = [1 / 6] * 6
        d, r = rejection_iterate(q, p)
        np.testing.assert_allclose(d.probs, q, atol=1e-15)
        assert r == pytest.approx(0.5)

    def test_iterate_requires_overlap_gap(self):
        with pytest.raises(ZeroResidual):
            rejection_iterate([0.3, 0.7], [0.3, 0.7])

    def test_support_shrinks_monotonically(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(size=(2, 6))
        q, p = raw[0] / raw[0].sum(), raw[1] / raw[1].sum()
        support = set(np.flatnonzero(q > 0))
        for _ in range(10):
            try:
                nxt, r = rejection_iterate(q, p)
            except ZeroResidual:
                break
            assert 0.0 < r <= 1.0
            new_support = set(np.flatnonzero(nxt.probs > 0))
            assert new_support <= support
            support, q = new_support, nxt.probs
