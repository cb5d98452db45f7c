"""Success, diversity and novelty of generated molecule batches."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chemgraph import MolGraph
from .fingerprint import fingerprint_matrix, tanimoto_matrix
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


def diversity(sim: np.ndarray) -> float:
    """1 - (2 / n(n-1)) * sum of pairwise Tanimoto similarities, from the
    (n, n) similarity matrix of the set."""
    n = len(sim)
    if n < 2:
        raise MetricsError("diversity requires at least two molecules")
    # the pairs (i < j) in row order, summed left to right as a running sum
    total = float(np.cumsum(sim[np.triu_indices(n, 1)])[-1])
    return 1.0 - (2.0 / (n * (n - 1))) * total


def novelty(sim: np.ndarray) -> float:
    """Fraction of molecules whose nearest-neighbor similarity to the
    reference is strictly below the cutoff (a tie at the cutoff is not
    novel), from the (n, m) similarity matrix to the m references."""
    n, m = sim.shape
    if not n:
        raise MetricsError("novelty requires at least one molecule")
    if not m:
        raise MetricsError("novelty requires a non-empty reference set")
    return int((sim.max(axis=1) < NOVELTY_CUTOFF).sum()) / n


def evaluate(
    samples: list[MolGraph],
    props: list[PropertySpec],
    train_positives: list[MolGraph],
) -> EvalReport:
    """Assemble the metric suite; diversity and novelty are computed over the
    positive samples only, with all-sample variants carried for debugging.

    Each property scores the samples once, and one similarity matrix among
    the samples and one to the reference serve both variants."""
    if not samples:
        raise MetricsError("evaluate requires at least one sample")
    n = len(samples)
    hits = [p.scores(samples) >= p.threshold for p in props]
    positive = np.ones(n, dtype=bool)
    for h in hits:
        positive &= h
    pos = np.flatnonzero(positive)
    fps = fingerprint_matrix(samples)
    sim = tanimoto_matrix(fps, fps)
    to_ref = tanimoto_matrix(fps, fingerprint_matrix(train_positives)) if train_positives else None
    return EvalReport(
        n=n,
        success=len(pos) / n,
        diversity=diversity(sim[np.ix_(pos, pos)]) if len(pos) >= 2 else None,
        novelty=novelty(to_ref[pos]) if len(pos) and to_ref is not None else None,
        diversity_all=diversity(sim) if n >= 2 else None,
        novelty_all=novelty(to_ref) if to_ref is not None else None,
        per_property={p.name: int(h.sum()) / n for p, h in zip(props, hits)},
    )
