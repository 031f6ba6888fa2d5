"""Touch-guided grasping on a 4x4 board: simulation and exact oracle.

One block sits in an unknown column of each row.  A gripper gets up to five
attempts per block.  A grasp in the block's column succeeds; a grasp in a
horizontally adjacent column touches the block without grasping it — a
collision — and the contact side tells the policy exactly where the block is.

Policies:

  Control  knows the board and grasps directly (baseline).
  Rg       random draws, ignoring collision feedback.
  RgTr     random draws until the first collision, then a targeted regrasp.

A collision consumes an attempt, so RgTr can still fail: a collision on the
final attempt leaves no room for the regrasp.

Batches are drawn as outcome counts: ``outcome_table`` plays a policy once over
every (block column, draw sequence) cell, and a batch draws how many of its
independent blocks land on each outcome, at a cost constant in the boards.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

N_COLUMNS = 4
N_ROWS = 4
DEFAULT_MAX_ATTEMPTS = 5
MAX_ATTEMPTS_LIMIT = 8  # outcome tables hold 4 ** (cap + 1) cells
_INT64_MAX = int(np.iinfo(np.int64).max)

# Hardware baseline (20 blocks, physical gripper): failure rate, attempts and
# collisions per block, per policy.  Reported for comparison; the simulation
# is judged against the exact oracle, not these small-sample observations.
HARDWARE_TABLE: dict[str, tuple[float, float, float]] = {
    "control": (0.00, 1.00, 0.00),
    "rg": (0.20, 3.30, 1.45),
    "rgtr": (0.00, 1.85, 0.55),
}


class PolicyKind(Enum):
    CONTROL = "control"
    RG = "rg"
    RGTR = "rgtr"


class OutcomeKind(Enum):
    HIT = "hit"
    COLLISION = "collision"
    MISS = "miss"


@dataclass(frozen=True)
class BoardState:
    block_col: tuple[int, int, int, int]  # column of the block in each row

    def __post_init__(self) -> None:
        if len(self.block_col) != N_ROWS or not all(
            0 <= c < N_COLUMNS for c in self.block_col
        ):
            raise ValueError(f"board must hold 4 columns in 0..3, got {self.block_col}")


@dataclass(frozen=True)
class GraspOutcome:
    kind: OutcomeKind
    contact_col: int | None = None  # block's column; present iff a collision

    def __post_init__(self) -> None:
        if (self.kind is OutcomeKind.COLLISION) != (self.contact_col is not None):
            raise ValueError("contact_col is present exactly for collisions")


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


def new_board(seed: int) -> BoardState:
    """Draw the four block columns independently and uniformly."""
    rng = np.random.default_rng(seed)
    return BoardState(tuple(int(c) for c in rng.integers(0, N_COLUMNS, size=N_ROWS)))


def attempt_grasp(board: BoardState, row: int, col: int) -> GraspOutcome:
    """Grasp at (row, col): hit the block, graze it one column off, or miss."""
    if not 0 <= row < N_ROWS:
        raise IndexError(f"row {row} outside 0..{N_ROWS - 1}")
    if not 0 <= col < N_COLUMNS:
        raise IndexError(f"column {col} outside 0..{N_COLUMNS - 1}")
    block = board.block_col[row]
    if col == block:
        return GraspOutcome(OutcomeKind.HIT)
    if abs(col - block) == 1:
        return GraspOutcome(OutcomeKind.COLLISION, contact_col=block)
    return GraspOutcome(OutcomeKind.MISS)


def replay_policy(
    kind: PolicyKind,
    block_col: int,
    draws: tuple[int, ...],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> BlockRecord:
    """Run one block with a scripted draw sequence (reference semantics).

    ``draws`` supplies the policy's random column choices in order; Control
    ignores it.  This scalar version defines the policy rules that the
    vectorised batch evaluator must reproduce.
    """
    if kind is PolicyKind.CONTROL:
        return BlockRecord(True, 1, 0)
    board = BoardState((block_col,) * N_ROWS)
    attempts = 0
    collisions = 0
    for draw in draws[:max_attempts]:
        attempts += 1
        outcome = attempt_grasp(board, 0, int(draw))
        if outcome.kind is OutcomeKind.HIT:
            return BlockRecord(True, attempts, collisions)
        if outcome.kind is OutcomeKind.COLLISION:
            collisions += 1
            if kind is PolicyKind.RGTR:
                # Regrasp at the sensed column; it needs one more attempt.
                if attempts < max_attempts:
                    return BlockRecord(True, attempts + 1, collisions)
                return BlockRecord(False, attempts, collisions)
    return BlockRecord(False, attempts, collisions)


def _evaluate(
    kind: PolicyKind, blocks: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised policy outcomes: (success, attempts, collisions) per block.

    ``blocks`` has shape (n,), ``draws`` (n, max_attempts); every row holds
    all the draws a block may use, so the outcome is a function of the row.
    """
    n, cap = draws.shape
    if kind is PolicyKind.CONTROL:
        return (
            np.ones(n, dtype=bool),
            np.ones(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
        )

    hit = draws == blocks[:, None]
    adjacent = np.abs(draws - blocks[:, None]) == 1

    if kind is PolicyKind.RG:
        any_hit = hit.any(axis=1)
        first_hit = np.argmax(hit, axis=1)
        attempts = np.where(any_hit, first_hit + 1, cap)
        made = np.arange(cap)[None, :] < attempts[:, None]
        collisions = (adjacent & made).sum(axis=1)
        return any_hit, attempts.astype(np.int64), collisions.astype(np.int64)

    # RgTr: play out random draws until the first hit or collision; a
    # collision reveals the block, and the regrasp costs one more attempt.
    informative = hit | adjacent
    any_info = informative.any(axis=1)
    first = np.argmax(informative, axis=1)
    rows = np.arange(n)
    hit_first = any_info & hit[rows, first]
    coll_first = any_info & adjacent[rows, first]
    success = hit_first | (coll_first & (first < cap - 1))
    attempts = np.where(
        hit_first, first + 1, np.where(coll_first, np.minimum(first + 2, cap), cap)
    )
    collisions = coll_first.astype(np.int64)
    return success, attempts.astype(np.int64), collisions


def run_policy(
    kind: PolicyKind,
    board: BoardState,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    seed: int = 0,
) -> list[BlockRecord]:
    """Run one policy over all four rows of a board."""
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    rng = np.random.default_rng(seed)
    blocks = np.array(board.block_col)
    draws = rng.integers(0, N_COLUMNS, size=(N_ROWS, max_attempts))
    success, attempts, collisions = _evaluate(kind, blocks, draws)
    return [
        BlockRecord(bool(s), int(a), int(c))
        for s, a, c in zip(success, attempts, collisions)
    ]


def outcome_table(
    kind: PolicyKind, max_attempts: int = DEFAULT_MAX_ATTEMPTS
) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct per-block outcome of a policy and its probability.

    ``_evaluate`` runs once over the 4 ** (max_attempts + 1) equally likely
    cells (block column, draw sequence), which are then grouped by outcome.
    Returns (outcomes, p): sorted int64 rows of (failed, attempts,
    collisions) and each row's share of the cells, exact in float64 because
    it is dyadic.  ``max_attempts`` must be in 1..MAX_ATTEMPTS_LIMIT, which
    keeps the table at most 262,144 cells.
    """
    if not 1 <= max_attempts <= MAX_ATTEMPTS_LIMIT:
        raise ValueError(f"max_attempts must be in 1..{MAX_ATTEMPTS_LIMIT}, got {max_attempts}")
    cells = np.arange(N_COLUMNS ** (max_attempts + 1))
    digits = cells[:, None] // N_COLUMNS ** np.arange(max_attempts + 1) % N_COLUMNS
    success, attempts, collisions = _evaluate(kind, digits[:, 0], digits[:, 1:])
    outcomes, counts = np.unique(
        np.column_stack([~success, attempts, collisions]), axis=0, return_counts=True
    )
    return outcomes, counts / cells.size


def _outcome_counts(
    kind: PolicyKind, n_boards: int, seed: int, max_attempts: int, size: int | None = None
) -> tuple[np.ndarray, int, np.ndarray]:
    """(outcomes, n_blocks, blocks per outcome): one multinomial draw, or ``size`` rows."""
    n_blocks = n_boards * N_ROWS
    if not 1 <= n_blocks <= _INT64_MAX:
        raise ValueError(f"n_boards {n_boards} gives {n_blocks} blocks, not in 1..{_INT64_MAX}")
    outcomes, p = outcome_table(kind, max_attempts)
    return outcomes, n_blocks, np.random.default_rng(seed).multinomial(n_blocks, p, size=size)


def run_batch(
    kind: PolicyKind,
    n_boards: int,
    seed: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> RunMetrics:
    """Aggregate a policy over ``n_boards`` fresh boards.

    Blocks are independent, so the blocks per ``outcome_table`` row are one
    multinomial draw seeded with ``seed`` (fixed arguments give fixed bits),
    and the metrics are exact integer sums over the counts divided by the
    block count: the distribution of simulating every block, at a cost that
    does not grow with ``n_boards``.  A block count above int64 or
    ``max_attempts`` outside 1..MAX_ATTEMPTS_LIMIT raises ValueError.
    """
    outcomes, n_blocks, counts = _outcome_counts(kind, n_boards, seed, max_attempts)
    failed, attempts, collisions = (
        sum(c * value for c, value in zip(counts.tolist(), column)) / n_blocks
        for column in outcomes.T.tolist()
    )
    return RunMetrics(failed, attempts, collisions, n_blocks)


def batch_distribution(
    kind: PolicyKind,
    n_batches: int,
    boards_per_batch: int,
    seed: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> np.ndarray:
    """Per-batch metrics over many small batches; shape (n_batches, 3).

    Columns are (failure_rate, attempts_per_block, collisions_per_block),
    used to place small-sample observations within the sampling distribution.
    Each batch is one multinomial draw of outcome counts, as in ``run_batch``,
    so the cost grows with ``n_batches`` but not with ``boards_per_batch``.
    """
    outcomes, per_batch, counts = _outcome_counts(
        kind, boards_per_batch, seed, max_attempts, size=n_batches
    )
    return counts @ outcomes.astype(np.float64) / per_batch


def exact_metrics(
    kind: PolicyKind, max_attempts: int = DEFAULT_MAX_ATTEMPTS
) -> RunMetrics:
    """Exact expectations by enumerating outcomes per block column.

    The block column is uniform over {0..3}; per attempt the draw hits with
    probability 1/4, collides with n_adj/4 (n_adj neighbours on the board)
    and misses otherwise.  Everything is accumulated in exact rational
    arithmetic and averaged over the four columns; n_blocks is 0 to mark an
    expectation rather than a sample.
    """
    if kind is PolicyKind.CONTROL:
        return RunMetrics(0.0, 1.0, 0.0, 0)

    fail_total = attempts_total = collisions_total = Fraction(0)
    q = Fraction(1, N_COLUMNS)  # hit probability per draw

    for col in range(N_COLUMNS):
        n_adj = (col > 0) + (col < N_COLUMNS - 1)  # neighbours on the board
        a = Fraction(n_adj, N_COLUMNS)  # collision probability
        # Rg stops drawing only on a hit; RgTr also on a collision, which
        # costs one more attempt for the regrasp if one is left.
        sensed = a if kind is PolicyKind.RGTR else Fraction(0)
        m = 1 - q - sensed  # probability that a draw does not stop the search
        prefixes = [m**k for k in range(max_attempts)]  # still searching at k + 1
        fail_total += m**max_attempts + sensed * m ** (max_attempts - 1)
        attempts_total += max_attempts * m**max_attempts + sum(
            prefix * (q * k + sensed * min(k + 1, max_attempts))
            for k, prefix in enumerate(prefixes, 1)
        )
        collisions_total += a * sum(prefixes)

    totals = (fail_total, attempts_total, collisions_total)
    return RunMetrics(*(float(total / N_COLUMNS) for total in totals), n_blocks=0)


def metrics_to_json_dict(metrics: RunMetrics, policy: PolicyKind, seed: int) -> dict:
    """The JSON shape used by the command-line report."""
    return {
        "policy": policy.value,
        "n_blocks": metrics.n_blocks,
        "failure_rate": metrics.failure_rate,
        "attempts_per_block": metrics.attempts_per_block,
        "collisions_per_block": metrics.collisions_per_block,
        "seed": seed,
    }
