"""Random-forest classifier over fingerprint bits.

The positive-class vote fraction of the forest is the property score used by
extraction, merging, fine-tuning and evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chemgraph import ChemError, MolGraph, parse_smiles
from .fingerprint import WIDTH, fingerprint_matrix

_MODEL_VERSION = 2


class ForestError(ValueError):
    pass


@dataclass
class ForestModel:
    trees: list[dict]
    n_trees: int
    max_depth: int
    seed: int

    def to_json(self) -> str:
        doc = {
            "version": _MODEL_VERSION,
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "seed": self.seed,
            "trees": self.trees,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ForestModel":
        doc = json.loads(text)
        if doc.get("version") != _MODEL_VERSION:
            raise ForestError(f"unsupported model version {doc.get('version')}")
        if not isinstance(doc["trees"], list) or not doc["trees"]:
            raise ForestError("trees must be a non-empty list")
        _check_nodes(doc["trees"])
        return cls(
            trees=doc["trees"],
            n_trees=doc["n_trees"],
            max_depth=doc["max_depth"],
            seed=doc["seed"],
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @cached_property
    def flat(self) -> "_FlatForest":
        """The trees as flat node arrays, built on first use (the trees are
        not changed after the model is built or loaded)."""
        return _FlatForest.build(self.trees)

    @classmethod
    def load(cls, path) -> "ForestModel":
        with open(path) as fh:
            return cls.from_json(fh.read())


def _check_nodes(trees: list) -> None:
    """Every node is a split, an integer bit in [0, WIDTH) with both
    children, or a leaf, a number in [0, 1]."""
    stack = list(trees)
    while stack:
        node = stack.pop()
        keys = set(node) if isinstance(node, dict) else None
        if keys == {"bit", "left", "right"}:
            bit = node["bit"]
            if type(bit) is not int or not 0 <= bit < WIDTH:
                raise ForestError(f"split bit {bit!r} is not an integer in [0, {WIDTH})")
            stack += (node["left"], node["right"])
        elif keys == {"leaf"}:
            leaf = node["leaf"]
            if type(leaf) not in (int, float) or not 0.0 <= leaf <= 1.0:
                raise ForestError(f"leaf {leaf!r} is not a number in [0, 1]")
        else:
            raise ForestError(f"tree node {node!r:.80} is neither a split nor a leaf")


@dataclass
class PropertySpec:
    """A named property constraint: predictor score must reach the threshold."""

    name: str
    model: ForestModel
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ForestError(f"threshold must be in [0, 1], got {self.threshold}")

    def scores(self, mols: list[MolGraph]) -> np.ndarray:
        """Predicted score of every molecule of a batch."""
        return predict_scores(self.model, fingerprint_matrix(mols))

    def score(self, g: MolGraph) -> float:
        return predict_score(self.model, g)

    def is_positive(self, g: MolGraph) -> bool:
        return self.score(g) >= self.threshold


def positive_mask(mols: list[MolGraph], props) -> np.ndarray:
    """Which molecules score at or above every property's threshold; each
    property scores the whole batch at once."""
    mask = np.ones(len(mols), dtype=bool)
    for p in props:
        mask &= p.scores(mols) >= p.threshold
    return mask


def _gini(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(total > 0, pos / np.maximum(total, 1), 0.0)
    return 2.0 * p * (1.0 - p)


def _build_tree(
    F: np.ndarray, cols: np.ndarray, y: np.ndarray, idx: np.ndarray,
    rng: np.random.Generator, max_depth: int, n_candidates: int,
) -> dict:
    """Grow one tree on the bootstrap rows `idx` (with repeats) of the
    float32 fingerprint columns `F`, which hold the bits `cols`.

    A node's bit counts are its bootstrap multiplicities times F. They are
    integers no larger than the bootstrap size, far below 2^24, so the
    float32 products are exact in any summation order, and they equal the
    counts over the copied rows."""
    # idx is never empty: the root holds both classes and no split empties a side
    n = len(idx)
    pos = int(y[idx].sum())
    value = pos / n
    if pos == 0 or pos == n or max_depth == 0 or n < 2:
        return {"leaf": value}
    # candidate bits are sampled among those that vary within this node;
    # constant bits cannot split
    counts = np.bincount(idx, minlength=len(F)).astype(np.float32)
    col = (counts @ F).astype(np.int64)
    varying = np.flatnonzero((col > 0) & (col < n))
    if varying.size == 0:
        return {"leaf": value}
    k = min(n_candidates, varying.size)
    picked = np.sort(rng.choice(varying, size=k, replace=False))
    n_on = col[picked]
    pos_on = ((counts * y) @ F[:, picked]).astype(np.int64)
    n_off = n - n_on
    pos_off = pos - pos_on
    parent = _gini(np.array([pos]), np.array([n]))[0]
    children = (n_off * _gini(pos_off, n_off) + n_on * _gini(pos_on, n_on)) / n
    gains = parent - children
    gains[(n_on == 0) | (n_off == 0)] = -1.0
    best = int(np.argmax(gains))
    if gains[best] <= 1e-12:
        return {"leaf": value}
    mask = F[idx, picked[best]] > 0
    return {
        "bit": int(cols[picked[best]]),
        "left": _build_tree(F, cols, y, idx[~mask], rng, max_depth - 1, n_candidates),
        "right": _build_tree(F, cols, y, idx[mask], rng, max_depth - 1, n_candidates),
    }


def train_forest(
    data: list[tuple[MolGraph, int]],
    n_trees: int,
    max_depth: int,
    seed: int = 0,
) -> ForestModel:
    """Bootstrap-sampled trees with Gini splits over a sqrt(WIDTH) random bit
    subset per node. Class balance is handled by a stratified bootstrap. The
    result is a deterministic function of (data, params, seed)."""
    if len(data) < 2:
        raise ForestError("need at least 2 training examples")
    y = np.array([int(label) for _, label in data], dtype=np.int64)
    if y.min() == y.max():
        raise ForestError("training data must contain both classes")
    X = fingerprint_matrix([g for g, _ in data])
    # a bit set in no training row never varies, so it never splits
    cols = np.flatnonzero(X.any(axis=0))
    F = X[:, cols].astype(np.float32)

    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y == 0)
    n_candidates = max(1, int(np.sqrt(WIDTH)))
    seeds = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for tree_seed in seeds:
        rng = np.random.default_rng(tree_seed)
        boot = np.concatenate(
            [
                rng.choice(pos_idx, size=len(pos_idx), replace=True),
                rng.choice(neg_idx, size=len(neg_idx), replace=True),
            ]
        )
        trees.append(_build_tree(F, cols, y, boot, rng, max_depth, n_candidates))
    return ForestModel(trees=trees, n_trees=n_trees, max_depth=max_depth, seed=seed)


@dataclass(frozen=True)
class _FlatForest:
    """Every node of every tree in flat arrays. A split node tests `bit` and
    goes to `left` when it is off, `right` when it is on; a leaf has bit -1
    and both children pointing at itself."""

    roots: np.ndarray
    bit: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf: np.ndarray

    @classmethod
    def build(cls, trees: list[dict]) -> "_FlatForest":
        bit: list[int] = []
        left: list[int] = []
        right: list[int] = []
        leaf: list[float] = []

        def add(node: dict) -> int:
            i = len(bit)
            bit.append(node.get("bit", -1))
            left.append(i)
            right.append(i)
            leaf.append(node.get("leaf", 0.0))
            if "leaf" not in node:
                left[i] = add(node["left"])
                right[i] = add(node["right"])
            return i

        roots = [add(t) for t in trees]
        return cls(
            roots=np.array(roots, dtype=np.intp), bit=np.array(bit, dtype=np.intp),
            left=np.array(left, dtype=np.intp), right=np.array(right, dtype=np.intp),
            leaf=np.array(leaf, dtype=np.float64),
        )


def predict_scores(m: ForestModel, X: np.ndarray) -> np.ndarray:
    """Mean leaf value over the trees for every row of a fingerprint matrix
    (n, WIDTH); each in [0, 1].

    Every row walks every tree at once until all have reached a leaf, however
    deep the trees are. A row's leaf values are summed in tree order, as a
    running sum, and divided by the tree count."""
    f = m.flat
    rows = np.arange(len(X))[:, None]
    node = np.broadcast_to(f.roots, (len(X), len(f.roots)))
    while True:
        bit = f.bit[node]
        if not (bit >= 0).any():
            break
        # a leaf reads any column: both of its children are itself
        node = np.where(X[rows, bit], f.right[node], f.left[node])
    return np.cumsum(f.leaf[node], axis=1)[:, -1] / len(m.trees)


def predict_score(m: ForestModel, g: MolGraph) -> float:
    """Mean positive fraction over the trees' leaves; in [0, 1]."""
    return float(predict_scores(m, fingerprint_matrix([g]))[0])


def auroc_from_scores(scores, labels) -> float:
    """Rank-based AUROC with midrank tie handling."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ForestError("AUROC requires both classes")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum_pos = ranks[labels == 1].sum()
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auroc(m: ForestModel, data: list[tuple[MolGraph, int]]) -> float:
    X = fingerprint_matrix([g for g, _ in data])
    return auroc_from_scores(predict_scores(m, X), [label for _, label in data])


def read_property_csv(path) -> tuple[list[str], list[MolGraph], list[list[int]]]:
    """Read a 'smiles,label[,label2...]' CSV whose labels are 0 or 1; returns
    (property names, the parsed molecules, labels). An error, a SMILES that
    does not parse included, names the line, not the path."""
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[0].strip().lower() != "smiles":
            raise ForestError("first CSV column must be 'smiles'")
        names = [h.strip() for h in header[1:]]
        mols, labels = [], []
        for line_no, row_data in enumerate(reader, start=2):
            if not row_data:
                continue
            if len(row_data) != len(header):
                raise ForestError(f"line {line_no}: expected {len(header)} columns")
            try:
                mols.append(parse_smiles(row_data[0].strip()))
            except ChemError as exc:
                raise ForestError(f"line {line_no}: {exc}") from exc
            row = [x.strip() for x in row_data[1:]]
            for name, x in zip(names, row):
                if x not in ("0", "1"):
                    raise ForestError(f"line {line_no}: {name} label {x!r} is not 0 or 1")
            labels.append([int(x) for x in row])
    return names, mols, labels
