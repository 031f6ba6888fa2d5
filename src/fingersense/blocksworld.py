"""Touch-guided grasping on a 4x4 board: simulation and exact oracle.

One block sits in an unknown column of each row.  A gripper gets up to five
attempts per block (DEFAULT_MAX_ATTEMPTS, the one cap in use).  A grasp in
the block's column succeeds; a grasp in a horizontally adjacent column
touches the block without grasping it — a collision — and the contact side
tells the policy exactly where the block is.

Policies:

  Control  knows the board and grasps directly (baseline).
  Rg       random draws, ignoring collision feedback.
  RgTr     random draws until the first collision, then a targeted regrasp.

A collision consumes an attempt, so RgTr can still fail: a collision on the
final attempt leaves no room for the regrasp.

The rules live in one place, ``_play``, which plays one block against a
scripted draw sequence.  Batches are drawn as outcome counts:
``outcome_table`` plays a policy on each draw prefix that settles a block,
each standing for every (block column, draw sequence) cell that extends it,
and a batch draws how many of its independent blocks land on each
outcome in one multinomial draw, the only random draw in the module, at a cost
constant in the boards.  ``exact_metrics`` is an independent closed form.
The physical gripper's run printed beside both is ``cli``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

N_COLUMNS = 4
N_ROWS = 4
DEFAULT_MAX_ATTEMPTS = 5
_INT64_MAX = int(np.iinfo(np.int64).max)

class PolicyKind(Enum):
    CONTROL = "control"
    RG = "rg"
    RGTR = "rgtr"


@dataclass(frozen=True)
class BlockRecord:
    """Per-block result of one policy run."""

    success: bool
    attempts: int
    collisions: int


@dataclass(frozen=True)
class RunMetrics:
    failure_rate: float
    attempts_per_block: float
    collisions_per_block: float
    n_blocks: int  # sample size; 0 marks exact expectations

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(f"failure rate {self.failure_rate} outside [0, 1]")
        if self.attempts_per_block < 1.0:
            raise ValueError(f"attempts per block {self.attempts_per_block} below 1")
        if self.collisions_per_block < 0.0:
            raise ValueError(f"negative collisions {self.collisions_per_block}")


def _play(kind: PolicyKind, block_col: int, draws: tuple[int, ...]) -> tuple[bool, int, int]:
    """One block's (success, attempts, collisions): the only copy of the policy rules.

    A draw in the block's column hits; a draw one column off collides and
    reveals the block; any other draw misses.  Control ignores ``draws``.
    """
    if kind is PolicyKind.CONTROL:
        return True, 1, 0
    played = draws[:DEFAULT_MAX_ATTEMPTS]
    collisions = 0
    for attempts, draw in enumerate(played, 1):
        if draw == block_col:
            return True, attempts, collisions
        if abs(draw - block_col) == 1:
            collisions += 1
            if kind is PolicyKind.RGTR:
                # Regrasp at the sensed column; it needs one more attempt.
                if attempts < DEFAULT_MAX_ATTEMPTS:
                    return True, attempts + 1, collisions
                return False, attempts, collisions
    return False, len(played), collisions


def replay_policy(kind: PolicyKind, block_col: int, draws: tuple[int, ...]) -> BlockRecord:
    """Run one block with a scripted draw sequence (reference semantics).

    ``draws`` supplies the policy's random column choices in order; Control
    ignores it.  The rules are ``_play``'s.  Raises ValueError when the block
    column or a draw lies outside 0..3, and when ``draws`` runs out before the
    block is settled (a failure that used fewer than DEFAULT_MAX_ATTEMPTS
    attempts).  A sequence may stop at the hit or at the collision that
    triggers a regrasp.
    """
    if not all(0 <= c < N_COLUMNS for c in (block_col, *draws)):
        raise ValueError(
            f"columns must lie in 0..{N_COLUMNS - 1}, got block {block_col}, draws {tuple(draws)}"
        )
    record = BlockRecord(*_play(kind, block_col, draws))
    if not record.success and record.attempts < DEFAULT_MAX_ATTEMPTS:
        raise ValueError(
            f"draws {tuple(draws)} ran out after {record.attempts} of {DEFAULT_MAX_ATTEMPTS} attempts "
            "before the block was settled"
        )
    return record


def outcome_table(kind: PolicyKind) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct per-block outcome of a policy and its probability.

    The 4 ** (DEFAULT_MAX_ATTEMPTS + 1) (block column, draw sequence) cells
    are equally likely.  Per block column, ``_play`` runs on draw prefixes,
    starting from the empty one: a prefix that succeeds (Control always does)
    or fails after DEFAULT_MAX_ATTEMPTS attempts is settled, and stands for
    the 4 ** (DEFAULT_MAX_ATTEMPTS - len(prefix)) cells that extend it,
    whatever their later draws; any other prefix is extended by one draw.
    Returns (outcomes, p): sorted int64 rows of (failed, attempts, collisions)
    and each row's share of the cells, exact in float64 because it is dyadic.
    """
    counts: dict[tuple[bool, int, int], int] = {}
    for block_col in range(N_COLUMNS):
        prefixes: list[tuple[int, ...]] = [()]
        while prefixes:
            prefix = prefixes.pop()
            outcome = _play(kind, block_col, prefix)
            success, attempts, _ = outcome
            if success or attempts == DEFAULT_MAX_ATTEMPTS:
                cells = N_COLUMNS ** (DEFAULT_MAX_ATTEMPTS - len(prefix))
                counts[outcome] = counts.get(outcome, 0) + cells
            else:
                prefixes.extend(prefix + (draw,) for draw in range(N_COLUMNS))
    rows = sorted(
        (not ok, attempts, collisions, n) for (ok, attempts, collisions), n in counts.items()
    )
    outcomes = np.array([row[:3] for row in rows], dtype=np.int64)
    return outcomes, np.array([row[3] for row in rows]) / N_COLUMNS ** (DEFAULT_MAX_ATTEMPTS + 1)


def run_batch(kind: PolicyKind, n_boards: int, seed: int = 0) -> RunMetrics:
    """Aggregate a policy over ``n_boards`` fresh boards.

    Blocks are independent, so the blocks per ``outcome_table`` row are one
    multinomial draw seeded with ``seed`` (fixed arguments give fixed bits),
    and the metrics are exact integer sums over the counts divided by the
    block count: the distribution of simulating every block, at a cost that
    does not grow with ``n_boards``.  A block count above int64 raises
    ValueError.
    """
    n_blocks = n_boards * N_ROWS
    if not 1 <= n_blocks <= _INT64_MAX:
        raise ValueError(f"n_boards {n_boards} gives {n_blocks} blocks, not in 1..{_INT64_MAX}")
    outcomes, p = outcome_table(kind)
    counts = np.random.default_rng(seed).multinomial(n_blocks, p)
    failed, attempts, collisions = (
        sum(c * value for c, value in zip(counts.tolist(), column)) / n_blocks
        for column in outcomes.T.tolist()
    )
    return RunMetrics(failed, attempts, collisions, n_blocks)


def exact_metrics(kind: PolicyKind) -> RunMetrics:
    """Exact expectations by enumerating outcomes per block column.

    Every block gets up to DEFAULT_MAX_ATTEMPTS attempts.  The block column
    is uniform over {0..3}; per attempt the draw hits with probability 1/4,
    collides with n_adj/4 (n_adj neighbours on the board) and misses
    otherwise.  Everything is accumulated in exact rational
    arithmetic and averaged over the four columns; n_blocks is 0 to mark an
    expectation rather than a sample.
    """
    from fractions import Fraction  # here, as the CLI loads this module for every command

    if kind is PolicyKind.CONTROL:
        return RunMetrics(0.0, 1.0, 0.0, 0)

    fail_total = attempts_total = collisions_total = Fraction(0)
    q = Fraction(1, N_COLUMNS)  # hit probability per draw
    cap = DEFAULT_MAX_ATTEMPTS

    for col in range(N_COLUMNS):
        n_adj = (col > 0) + (col < N_COLUMNS - 1)  # neighbours on the board
        a = Fraction(n_adj, N_COLUMNS)  # collision probability
        # Rg stops drawing only on a hit; RgTr also on a collision, which
        # costs one more attempt for the regrasp if one is left.
        sensed = a if kind is PolicyKind.RGTR else Fraction(0)
        m = 1 - q - sensed  # probability that a draw does not stop the search
        prefixes = [m**k for k in range(cap)]  # still searching at k + 1
        fail_total += m**cap + sensed * m ** (cap - 1)
        attempts_total += cap * m**cap + sum(
            prefix * (q * k + sensed * min(k + 1, cap))
            for k, prefix in enumerate(prefixes, 1)
        )
        collisions_total += a * sum(prefixes)

    totals = (fail_total, attempts_total, collisions_total)
    return RunMetrics(*(float(total / N_COLUMNS) for total in totals), n_blocks=0)
