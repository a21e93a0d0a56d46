"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import specdec  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run(ops):
    return workloads.run_round(ops, time.perf_counter, workloads.Yardstick(time.perf_counter, 1))


def test_perturbed_reference_value_fails_its_op():
    pair = specdec.random_model_pair(3, 4, seed=1)
    reference = {}
    for op in workloads.analysis_ops("small", pair, None):
        reference.update(op.run())
    assert run(workloads.analysis_ops("small", pair, reference)).failures == []

    perturbed = dict(reference, **{"batch4.total": reference["batch4.total"] * (1 + 1e-8)})
    failures = run(workloads.analysis_ops("small", pair, perturbed)).failures
    assert len(failures) == 1
    assert failures[0].startswith("small.batch4:")


def test_recorded_reference_matches_the_default_seed_pair():
    reference = workloads.load_reference(workloads.DEFAULT_SEED)["dense"]
    pair = specdec.random_model_pair(workloads.EXACT_V, workloads.EXACT_T,
                                     seed=workloads.DEFAULT_SEED)
    assert specdec.expected_rejections_sd(pair) == pytest.approx(reference["sd"], rel=1e-12)
    assert workloads.load_reference(workloads.DEFAULT_SEED + 1) is None


def test_biased_policy_passed_as_unbiased_fails_its_op(tmp_path):
    ctx = workloads.Context(HERE.parent, tmp_path)
    pair = specdec.random_model_pair(workloads.ORACLE_V, workloads.ORACLE_T,
                                     seed=workloads.ORACLE_PAIR_SEED)
    biased = specdec.over_acceptance_policy(pair, 0.3)
    ops = [op for op in workloads.oracle_small(ctx, 0, unbiased_policy=biased)
           if op.name == "unbiased-generic"]
    failures = run(ops).failures
    assert len(failures) == 1
    assert "passed" not in failures[0] and "failed the 0.02 threshold" in failures[0]


def test_control_that_passes_is_a_failed_op():
    pair = specdec.random_model_pair(2, 3, seed=2024)
    op = workloads.unbiasedness_op("control", pair, "sd", 20_000, 1, expect_pass=False)
    assert run([op]).failures[0].startswith("control: L1")


def test_exception_in_a_job_is_a_failed_op_and_the_round_goes_on():
    def boom():
        raise ValueError("bad input")

    ops = [workloads.Op("boom", boom, lambda r, done: None),
           workloads.Op("fine", lambda: 1, lambda r, done: None)]
    result = run(ops)
    assert result.failures == ["boom: ValueError: bad input"]
    assert len(result.op_seconds) == 2


def test_normalized_round_time_undoes_a_uniform_slowdown():
    ref = workloads.YARDSTICK_REFERENCE_S
    idle = workloads.RoundResult(3.0, [1.0, 2.0], [ref, ref, ref], [])
    slow = workloads.RoundResult(6.0, [2.0, 4.0], [2 * ref, 2 * ref, 2 * ref], [])
    assert workloads.normalized_round_seconds([idle]) == pytest.approx(3.0)
    assert workloads.normalized_round_seconds([idle, slow, slow]) == pytest.approx(3.0)
    assert workloads.normalized_round_seconds([idle], op_runs=[0, 5]) == pytest.approx(2.0)


def test_self_time_of_a_synthetic_span_tree():
    tree = [
        ["round", "bench", 0.0, 10.0, -1, "r", 0.0, None],
        ["montecarlo.run_campaign", "montecarlo", 1.0, 6.0, 0, "r", 0.0, None],
        ["decoding.generic_decode", "decoding", 2.0, 4.5, 1, "r", 0.5, None],
        ["rng.split_rng", "rng", 4.6, 5.0, 1, "r", 0.0, None],
        ["exact.limit_rejections", "exact", 7.0, 9.0, 0, "r", 0.0, None],
    ]
    # round: 10 - 5 - 2; run_campaign: 5 - 2.5 - 0.4; generic_decode: 2.5 - 0.5 light.
    assert spans.self_times(tree) == pytest.approx([3.0, 2.1, 2.0, 0.4, 2.0])

    metrics = spans.layer_metrics(tree, {}, rounds=1)
    assert metrics["bench.self_s"] == pytest.approx(3.0)
    assert metrics["montecarlo.self_s"] == pytest.approx(2.1)
    assert metrics["policies.self_s"] == pytest.approx(0.5)
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.SELF_LAYERS)
    assert total == pytest.approx(10.0)


def test_draft_counts_follow_the_round_structure():
    assert spans.draft_counts((0, 0, 0), 3, 1) == 3
    assert spans.draft_counts((0, 1, 0), 3, 1) == 3 + 1
    assert spans.draft_counts((0, 1, 0), 3, 2) == 2 * (3 + 1)
    assert spans.draft_counts((1, 1, 1), 3, 1) == 3 + 2 + 1


def test_recorder_spans_cross_layer_calls_and_restores_them():
    original = specdec.montecarlo.split_rng
    original_step = specdec.models.MarkovModel.step
    recorder = spans.Recorder()
    recorder.install(specdec)
    try:
        pair = specdec.random_model_pair(2, 3, seed=1)
        policy = recorder.wrap_policy(specdec.sd_policy(pair))
        specdec.run_campaign(specdec.Campaign(pair=pair, algorithm="sd", runs=5, seed=1))
        specdec.run_campaign(
            specdec.Campaign(pair=pair, algorithm="generic", runs=3, seed=1, policy=policy))
    finally:
        recorder.uninstall()
    assert specdec.montecarlo.split_rng is original
    assert specdec.models.MarkovModel.step is original_step
    names = Counter(entry[spans.NAME] for entry in recorder.spans)
    assert names["montecarlo.run_campaign"] == 2
    assert names["rng.split_rng"] == 8
    assert names["decoding.speculative_decode"] == 5
    assert names["decoding.generic_decode"] == 3
    assert recorder.counts["models.step_calls"] > 0
    assert recorder.counts["policies.callback_calls"] > 0
    campaign = next(i for i, e in enumerate(recorder.spans)
                    if e[spans.NAME] == "montecarlo.run_campaign")
    assert recorder.spans[campaign][spans.PARENT] == -1
    assert all(e[spans.PARENT] == campaign for e in recorder.spans[campaign + 1:campaign + 4])
