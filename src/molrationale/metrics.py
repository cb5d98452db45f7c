"""Success, diversity and novelty of generated molecule batches."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chemgraph import MolGraph
from .fingerprint import fingerprint_matrix, tanimoto_blocks
from .forest import PropertySpec

NOVELTY_CUTOFF = 0.4


class MetricsError(ValueError):
    pass


@dataclass
class EvalReport:
    """One evaluation; its fields, in order, are the columns of evaluation.csv."""

    n: int
    success: float
    diversity: float | None
    novelty: float | None
    diversity_all: float | None
    novelty_all: float | None
    per_property: dict[str, float]


def diversity(fps: np.ndarray) -> float:
    """1 - (2 / n(n-1)) * sum of pairwise Tanimoto similarities of the n rows
    of a fingerprint matrix, read one block of similarity rows at a time."""
    n = len(fps)
    if n < 2:
        raise MetricsError("diversity requires at least two molecules")
    # the pairs (i < j) in row order, summed left to right as one running sum
    # carried from block to block
    total = 0.0
    i = 0
    for block in tanimoto_blocks(fps, fps):
        above = np.arange(n) > np.arange(i, i + len(block))[:, None]
        total = float(np.cumsum(np.concatenate(([total], block[above])))[-1])
        i += len(block)
    return 1.0 - (2.0 / (n * (n - 1))) * total


def novelty(fps: np.ndarray, ref: np.ndarray) -> float:
    """Fraction of the rows of a fingerprint matrix whose nearest-neighbor
    similarity to the reference rows is strictly below the cutoff (a tie at
    the cutoff is not novel), read one block of similarity rows at a time."""
    n = len(fps)
    if not n:
        raise MetricsError("novelty requires at least one molecule")
    if not len(ref):
        raise MetricsError("novelty requires a non-empty reference set")
    novel = sum(int((block.max(axis=1) < NOVELTY_CUTOFF).sum())
                for block in tanimoto_blocks(fps, ref))
    return novel / n


def evaluate(
    samples: list[MolGraph],
    props: list[PropertySpec],
    train_positives: list[MolGraph],
) -> EvalReport:
    """Assemble the metric suite; diversity and novelty are computed over the
    positive samples only, with all-sample variants carried for debugging.

    Each property scores the samples once, and the samples and the reference
    are fingerprinted once for both variants; no similarity matrix is kept."""
    if not samples:
        raise MetricsError("evaluate requires at least one sample")
    n = len(samples)
    hits = [p.scores(samples) >= p.threshold for p in props]
    positive = np.ones(n, dtype=bool)
    for h in hits:
        positive &= h
    pos = np.flatnonzero(positive)
    fps = fingerprint_matrix(samples)
    ref = fingerprint_matrix(train_positives) if train_positives else None
    return EvalReport(
        n=n,
        success=len(pos) / n,
        diversity=diversity(fps[pos]) if len(pos) >= 2 else None,
        novelty=novelty(fps[pos], ref) if len(pos) and ref is not None else None,
        diversity_all=diversity(fps) if n >= 2 else None,
        novelty_all=novelty(fps, ref) if ref is not None else None,
        per_property={p.name: int(h.sum()) / n for p, h in zip(props, hits)},
    )
