"""Deterministic synthetic tasks with genuinely long-range labels.

Each generator plants the label-determining signal at positions that only a
full-length receptive field can reach, standing in for large-scale
long-sequence benchmarks at desk scale.  Generators are self-validating:
the label can always be re-derived from the input alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("first_token_recall", "adding_problem", "sparse_majority")

# sparse_majority places an odd number of votes so ties cannot occur.
MAJORITY_VOTES = 9
# first_token_recall fills every position after the first with one of this
# many distractor tokens, disjoint from the class tokens, so the answer is
# readable solely from position 0.
DISTRACTORS = 8


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    seq_len: int
    num_classes: int = 8

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.seq_len < 2:
            raise ValueError(f"seq_len must be >= 2, got {self.seq_len}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.kind == "sparse_majority" and self.seq_len < MAJORITY_VOTES:
            raise ValueError(f"seq_len must be >= {MAJORITY_VOTES} for sparse_majority")

    @property
    def vocab_size(self) -> int:
        """Token vocabulary seen by an embedding layer (token tasks only)."""
        if self.kind == "first_token_recall":
            return self.num_classes + DISTRACTORS
        if self.kind == "sparse_majority":
            return 3  # neutral, +1 vote, -1 vote
        raise ValueError(f"{self.kind} has real-valued inputs, not tokens")

    @property
    def classes(self) -> int:
        """Output dimension of a classifier head (1 for regression)."""
        if self.kind == "first_token_recall":
            return self.num_classes
        if self.kind == "sparse_majority":
            return 2
        return 1

    @property
    def is_regression(self) -> bool:
        return self.kind == "adding_problem"


def gen_batch(
    spec: TaskSpec, batch: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one batch; deterministic given the generator state.

    Token tasks return int64 inputs of shape (B, L); the adding problem
    returns float64 inputs of shape (B, 2, L) whose second channel marks the
    two summed positions.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    L, C = spec.seq_len, spec.num_classes
    if spec.kind == "first_token_recall":
        labels = rng.integers(0, C, size=batch)
        inputs = rng.integers(C, C + DISTRACTORS, size=(batch, L))
        inputs[:, 0] = labels
        return inputs, labels
    if spec.kind == "adding_problem":
        values = rng.uniform(0.0, 1.0, size=(batch, L))
        markers = np.zeros((batch, L))
        first = rng.integers(0, L // 2, size=batch)
        second = rng.integers(L // 2, L, size=batch)
        rows = np.arange(batch)
        markers[rows, first] = 1.0
        markers[rows, second] = 1.0
        labels = values[rows, first] + values[rows, second]
        return np.stack([values, markers], axis=1), labels
    # sparse_majority
    order = np.argsort(rng.random(size=(batch, L)), axis=1)
    flagged = order[:, :MAJORITY_VOTES]
    votes = rng.integers(0, 2, size=(batch, MAJORITY_VOTES)) * 2 - 1
    inputs = np.zeros((batch, L), dtype=np.int64)
    np.put_along_axis(inputs, flagged, np.where(votes > 0, 1, 2), axis=1)
    labels = (votes.sum(axis=1) > 0).astype(np.int64)
    return inputs, labels


def rederive_label(spec: TaskSpec, row: np.ndarray):
    """Recompute the label from a single generated input row."""
    if spec.kind == "first_token_recall":
        return int(row[0])
    if spec.kind == "adding_problem":
        values, markers = row[0], row[1]
        return float(values[markers == 1.0].sum())
    signs = np.where(row == 1, 1, np.where(row == 2, -1, 0))
    return int(signs.sum() > 0)
