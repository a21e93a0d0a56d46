"""Exact decision-tree enumeration as ground truth for the decoding algorithms.

On instances small enough to expand every probabilistic branch, the output
law of each algorithm can be computed with no sampling at all. Speculative
and batch decoding reproduce the target joint to machine precision, and the
closed-form rejection counts match the tree expansion digit for digit.
"""

import numpy as np

from specdec import (
    enumerate_expected_rejections,
    enumerate_law_and_rejections,
    enumerate_output_distribution,
    expected_rejections_batch,
    expected_rejections_sd,
    joint_distribution,
    make_rng,
    random_model_pair,
    random_unbiased_policy,
)

pair = random_model_pair(3, 3, seed=29)
target = joint_distribution(pair.q)
print(f"pair: V=3, T=3, seed=29 ({target.size} trajectories)")
print()

sd_law = enumerate_output_distribution(pair, "sd")
batch_law = enumerate_output_distribution(pair, "batch", batch_size=3)
print("trajectory law vs target joint (L1)")
print(f"  speculative      {np.abs(sd_law - target).sum():.3e}")
print(f"  batch (M=3)      {np.abs(batch_law - target).sum():.3e}")
print()

print("expected rejections: recursion vs enumeration")
sd_exact = expected_rejections_sd(pair)
sd_tree = enumerate_expected_rejections(pair, "sd")
print(f"  sd      {sd_exact:.12f} | {sd_tree:.12f} | gap {abs(sd_exact - sd_tree):.1e}")
for m in (1, 2, 3):
    rec = expected_rejections_batch(pair, m).total
    tree = enumerate_expected_rejections(pair, "batch", batch_size=m)
    print(f"  M={m}     {rec:.12f} | {tree:.12f} | gap {abs(rec - tree):.1e}")
print()

# Any acceptance rule below min{1, q/p} with its forced residual stays
# unbiased but rejects at least as often as speculative decoding.
rng = make_rng(101)
print("random unbiased policies (law L1 vs target, rejections vs sd)")
for i in range(5):
    policy = random_unbiased_policy(pair, rng)
    law, rej = enumerate_law_and_rejections(pair, "generic", policy=policy)
    print(f"  policy {i}: L1 {np.abs(law - target).sum():.2e}   "
          f"rejections {rej:.6f} (sd {sd_exact:.6f}, excess {rej - sd_exact:+.6f})")
