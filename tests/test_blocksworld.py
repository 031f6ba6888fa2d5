"""Tests for the grasping simulation and its exact-expectation oracle."""

from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from fingersense.blocksworld import (
    HARDWARE_TABLE,
    BlockRecord,
    PolicyKind,
    RunMetrics,
    _play,
    exact_metrics,
    metrics_to_json_dict,
    outcome_table,
    replay_policy,
    run_batch,
)
from oracle import batch_distribution

# Closed-form expectations for the default 5-attempt cap, derived by hand:
#
# Rg (uniform redraws, feedback ignored), any block column:
#   failure   = (3/4)^5                           = 243/1024  = 0.2373046875
#   attempts  = E[min(Geometric(1/4), 5)]
#             = sum_{j=0..4} (3/4)^j              = 3.05078125
#   collisions= (n_adj/4) * sum_{j=0..4} (3/4)^j averaged over n_adj
#               in {1,2,2,1}: 0.375 * 3.05078125  = 1.14404296875
#
# RgTr (first hit/collision stops the search; collision -> regrasp costs one
# more attempt), per column with m = miss prob, a = collision prob:
#   edge columns   (m=1/2, a=1/4): failure = m^4 a + m^5        = 3/64
#   middle columns (m=1/4, a=1/2): failure = m^4 a + m^5        = 3/1024
#   averaged: failure = 51/2048                                 = 0.02490234375
#   attempts  averaged               = 2.201171875
#   collisions= a * sum m^(k-1): (31/64 + 341/512)/2 averaged   = 0.5751953125
RG_EXACT = (0.2373046875, 3.05078125, 1.14404296875)
RGTR_EXACT = (0.02490234375, 2.201171875, 0.5751953125)


# ---------------------------------------------------------------------------
# grasps


@pytest.mark.parametrize("block", range(4))
@pytest.mark.parametrize("draw", range(4))
def test_single_grasp_hits_collides_or_misses(block, draw):
    # One Rg attempt: a hit in the block's column, a collision one column off,
    # a miss otherwise.
    record = _play(PolicyKind.RG, block, (draw,))
    if draw == block:
        assert record == (True, 1, 0)
    elif abs(draw - block) == 1:
        assert record == (False, 1, 1)
    else:
        assert record == (False, 1, 0)


@pytest.mark.parametrize("block, draws", [(4, (0, 1)), (1, (0, -1))])
def test_replay_rejects_columns_outside_board(block, draws):
    with pytest.raises(ValueError, match="columns must lie in 0..3"):
        replay_policy(PolicyKind.RGTR, block, draws)


@pytest.mark.parametrize(
    "kind, block, draws",
    [
        (PolicyKind.RGTR, 1, ()),  # used to return a record of zero attempts
        (PolicyKind.RG, 0, (3, 3)),
        (PolicyKind.RG, 2, (1, 0, 0, 0)),  # a collision, then misses, one draw short
        (PolicyKind.RGTR, 0, (3, 2, 3)),
    ],
)
def test_replay_rejects_draws_that_run_out(kind, block, draws):
    with pytest.raises(ValueError, match=rf"ran out after {len(draws)} of 5 attempts"):
        replay_policy(kind, block, draws)


# ---------------------------------------------------------------------------
# policy traces (scripted draws)


def test_control_ignores_draws():
    assert replay_policy(PolicyKind.CONTROL, 3, ()) == BlockRecord(True, 1, 0)


def test_rgtr_collision_then_regrasp():
    # Draw 0 against a block at 1: collision reveals column 1, the regrasp
    # hits on attempt 2.
    assert replay_policy(PolicyKind.RGTR, 1, (0,)) == BlockRecord(True, 2, 1)


def test_rg_all_misses_is_failure():
    assert replay_policy(PolicyKind.RG, 0, (3, 3, 3, 3, 3)) == BlockRecord(False, 5, 0)


def test_rgtr_collision_on_last_attempt_fails():
    # Four misses then a collision on attempt 5: the block is found but no
    # attempt remains for the regrasp.
    assert replay_policy(PolicyKind.RGTR, 1, (3, 3, 3, 3, 0)) == BlockRecord(False, 5, 1)


def test_rg_counts_collisions_and_stops_on_hit():
    # Collision (1 is adjacent to 2), then hit; the third draw is never used.
    assert replay_policy(PolicyKind.RG, 2, (1, 2, 0)) == BlockRecord(True, 2, 1)


def test_rg_ignores_feedback():
    # Rg redraws blindly after a collision; RgTr converts it into a hit.
    rg = replay_policy(PolicyKind.RG, 2, (1, 0, 0, 0, 0))
    rgtr = replay_policy(PolicyKind.RGTR, 2, (1, 0, 0, 0, 0))
    assert rg == BlockRecord(False, 5, 1)
    assert rgtr == BlockRecord(True, 2, 1)


# ---------------------------------------------------------------------------
# outcome table


@pytest.mark.parametrize("kind", list(PolicyKind))
@pytest.mark.parametrize("attempts", range(1, 6))
def test_outcome_table_matches_replay_over_every_cell(kind, attempts):
    # Every (block column, five draws) cell is equally likely.  Replaying each
    # one through the public call, as perfbench does, with no settled-prefix
    # shortcut, gives the table's rows that used ``attempts`` attempts bit for
    # bit; over the five cases that is the whole table.
    cells = Counter()
    for block, *draws in product(range(4), repeat=6):
        r = replay_policy(kind, block, tuple(draws))
        cells[(int(not r.success), r.attempts, r.collisions)] += 1
    keys = sorted(key for key in cells if key[1] == attempts)
    outcomes, p = outcome_table(kind)
    assert outcomes.dtype == np.int64 and p.dtype == np.float64
    assert set(outcomes[:, 1].tolist()) <= set(range(1, 6))
    rows = outcomes[:, 1] == attempts
    assert outcomes[rows].tobytes() == np.array(keys, dtype=np.int64).reshape(-1, 3).tobytes()
    assert p[rows].tobytes() == (np.array([cells[key] for key in keys]) / 4**6).tobytes()


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_outcome_table_expectation_is_exact_oracle(kind):
    # The table's exact expectation equals the independent closed form bit for bit.
    outcomes, p = outcome_table(kind)
    expected = [
        float(sum(Fraction(share) * value for share, value in zip(p.tolist(), column)))
        for column in outcomes.T.tolist()
    ]
    m = exact_metrics(kind)
    assert expected == [m.failure_rate, m.attempts_per_block, m.collisions_per_block]


def test_outcome_table_sizes():
    sizes = {kind: len(outcome_table(kind)[0]) for kind in PolicyKind}
    assert sizes == {PolicyKind.CONTROL: 1, PolicyKind.RG: 21, PolicyKind.RGTR: 11}


# ---------------------------------------------------------------------------
# exact oracle


def test_exact_control():
    m = exact_metrics(PolicyKind.CONTROL)
    assert (m.failure_rate, m.attempts_per_block, m.collisions_per_block) == (0.0, 1.0, 0.0)


def test_exact_rg_matches_closed_form():
    m = exact_metrics(PolicyKind.RG)
    assert m.failure_rate == pytest.approx(RG_EXACT[0], abs=1e-15)
    assert m.attempts_per_block == pytest.approx(RG_EXACT[1], abs=1e-15)
    assert m.collisions_per_block == pytest.approx(RG_EXACT[2], abs=1e-15)


def test_exact_rgtr_matches_closed_form():
    m = exact_metrics(PolicyKind.RGTR)
    assert m.failure_rate == pytest.approx(RGTR_EXACT[0], abs=1e-15)
    assert m.attempts_per_block == pytest.approx(RGTR_EXACT[1], abs=1e-15)
    assert m.collisions_per_block == pytest.approx(RGTR_EXACT[2], abs=1e-15)


# ---------------------------------------------------------------------------
# Monte-Carlo batches


def test_batch_converges_to_rg_oracle():
    m = run_batch(PolicyKind.RG, 20_000, seed=3)
    assert m.n_blocks == 80_000
    assert m.failure_rate == pytest.approx(RG_EXACT[0], abs=0.006)
    assert m.attempts_per_block == pytest.approx(RG_EXACT[1], abs=0.02)
    assert m.collisions_per_block == pytest.approx(RG_EXACT[2], abs=0.02)


def test_batch_converges_to_rgtr_oracle():
    m = run_batch(PolicyKind.RGTR, 20_000, seed=4)
    assert m.failure_rate == pytest.approx(RGTR_EXACT[0], abs=0.003)
    assert m.attempts_per_block == pytest.approx(RGTR_EXACT[1], abs=0.02)
    assert m.collisions_per_block == pytest.approx(RGTR_EXACT[2], abs=0.02)


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_batch_totals_are_whole_counts(kind):
    m = run_batch(kind, 2_501, seed=13)
    n = m.n_blocks
    for value in (m.failure_rate, m.attempts_per_block, m.collisions_per_block):
        total = round(value * n)
        assert total / n == value


def test_batch_runs_at_huge_board_counts():
    m = run_batch(PolicyKind.RGTR, 10**15, seed=2)
    assert m.n_blocks == 4 * 10**15
    exact = exact_metrics(PolicyKind.RGTR)
    assert m.failure_rate == pytest.approx(exact.failure_rate, rel=1e-5)
    assert m.attempts_per_block == pytest.approx(exact.attempts_per_block, rel=1e-5)
    assert run_batch(PolicyKind.RG, 2**61 - 1).n_blocks == 2**63 - 4  # the largest accepted


@pytest.mark.parametrize("n_boards", [0, 2**61])
def test_batch_rejects_block_counts_outside_int64(n_boards):
    with pytest.raises(ValueError, match=f"n_boards {n_boards} gives {4 * n_boards} blocks"):
        run_batch(PolicyKind.RG, n_boards)


def test_batch_control_is_exact():
    m = run_batch(PolicyKind.CONTROL, 500, seed=9)
    assert (m.failure_rate, m.attempts_per_block, m.collisions_per_block) == (0.0, 1.0, 0.0)


def test_batch_determinism():
    a = run_batch(PolicyKind.RGTR, 5_000, seed=11)
    b = run_batch(PolicyKind.RGTR, 5_000, seed=11)
    assert a == b
    assert run_batch(PolicyKind.RGTR, 5_000, seed=12) != a


def test_rgtr_dominates_rg():
    rg = run_batch(PolicyKind.RG, 10_000, seed=1)
    rgtr = run_batch(PolicyKind.RGTR, 10_000, seed=1)
    assert rgtr.failure_rate < rg.failure_rate
    assert rgtr.attempts_per_block < rg.attempts_per_block
    assert rgtr.collisions_per_block < rg.collisions_per_block


def test_batch_distribution_shape_and_mean():
    dist = batch_distribution(PolicyKind.RG, 2_000, 5, seed=6)
    assert dist.shape == (2_000, 3)
    # Means over many batches approach the exact expectations.
    np.testing.assert_allclose(dist.mean(axis=0), RG_EXACT, atol=0.02)


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_batch_distribution_mean_approaches_oracle(kind):
    dist = batch_distribution(kind, 4_000, 5, seed=10)
    assert dist.shape == (4_000, 3)
    exact = exact_metrics(kind)
    want = (exact.failure_rate, exact.attempts_per_block, exact.collisions_per_block)
    np.testing.assert_allclose(dist.mean(axis=0), want, atol=0.02)


def test_hardware_tuples_within_sampling_distribution():
    # The 20-block hardware observations must look like plausible 5-board
    # batches: each component inside the central 99% of its distribution.
    for policy, observed in (
        (PolicyKind.RG, HARDWARE_TABLE["rg"]),
        (PolicyKind.RGTR, HARDWARE_TABLE["rgtr"]),
    ):
        dist = batch_distribution(policy, 10_000, 5, seed=8)
        for j, value in enumerate(observed):
            lo, hi = np.quantile(dist[:, j], [0.005, 0.995])
            assert lo <= value <= hi, (policy, j, value, lo, hi)


# ---------------------------------------------------------------------------
# metrics plumbing


def test_run_metrics_validation():
    with pytest.raises(ValueError):
        RunMetrics(1.5, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        RunMetrics(0.0, 0.5, 0.0, 4)
    with pytest.raises(ValueError):
        RunMetrics(0.0, 1.0, -0.1, 4)


def test_metrics_json_shape():
    payload = metrics_to_json_dict(run_batch(PolicyKind.RG, 10, seed=0), PolicyKind.RG, 0)
    assert set(payload) == {
        "policy",
        "n_blocks",
        "failure_rate",
        "attempts_per_block",
        "collisions_per_block",
        "seed",
    }
    assert payload["policy"] == "rg"
    assert payload["n_blocks"] == 40


def test_hardware_table_rows():
    assert set(HARDWARE_TABLE) == {"control", "rg", "rgtr"}
    assert HARDWARE_TABLE["control"] == (0.0, 1.0, 0.0)
