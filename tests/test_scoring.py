"""The batch scorer against its one-row oracles: fingerprint bits pinned for a
few molecules, the vectorised hash against the atom-by-atom fold, the flat
forest walk against the dict walk, and the matrix diversity and novelty
against the pairwise loops. Every comparison is exact."""

import numpy as np
import pytest

from molrationale.chemgraph import parse_smiles
from molrationale.cli import _parse_sample_line
from molrationale.fingerprint import (
    RADIUS,
    WIDTH,
    BitFingerprint,
    _environment_rounds,
    fingerprint_matrix,
    morgan_fingerprint,
    tanimoto,
    tanimoto_matrix,
)
from molrationale.forest import (
    ForestModel,
    PropertySpec,
    positive_mask,
    predict_score,
    predict_scores,
    train_forest,
)
from molrationale.metrics import diversity, evaluate, novelty
from molrationale.synthetic import CorpusSpec, generate_corpus

from helpers import (
    fold_environment_hashes,
    fold_fingerprint_bits,
    loop_diversity,
    loop_novelty,
    random_corpus,
    set_tanimoto,
    walk_score,
)

# bits of the default fingerprint (radius 2, width 2048), recorded from the
# atom-by-atom implementation
GOLDEN_BITS = {
    "c1ccccc1": [154, 334, 1972],
    "Oc1ccccc1": [154, 334, 409, 505, 537, 561, 745, 940, 1310, 1486, 1785, 1972],
    "NC(=O)c1ccccc1": [14, 91, 154, 306, 334, 371, 893, 940, 994, 1210, 1245, 1310,
                       1381, 1486, 1722, 1785, 1893, 1972],
    "[O-]C(=O)C": [686, 893, 947, 1224, 1247, 1482, 1530, 1785, 1862, 1893, 1945, 1974],
    "C": [1053, 1179, 1860],
    "CCO.Oc1ccccc1": [154, 334, 409, 505, 537, 561, 585, 745, 940, 1075, 1100, 1104,
                      1169, 1247, 1310, 1394, 1466, 1486, 1785, 1972],
}


def ringed_corpus():
    return random_corpus(60, seed=5, atoms_min=1, atoms_max=16, ring_prob=0.6)


def planted_data(size=160, seed=8):
    spec = CorpusSpec(
        size=size, atoms_min=9, atoms_max=14, ring_prob=0.25, decoy_prob=0.25, unique=True
    )
    motif = parse_smiles("NC(=O)c1ccccc1")
    mols, labels = generate_corpus(spec, {"p": motif}, {"p": 0.3}, seed=seed)
    return mols, labels["p"]


def rows_as_sets(X):
    return [frozenset(np.flatnonzero(row).tolist()) for row in X]


class TestFingerprintMatrix:
    def test_golden_bits(self):
        mols = [_parse_sample_line(s) for s in GOLDEN_BITS]
        assert mols[-1].n == 10  # the dot-joined sample is one two-fragment graph
        X = fingerprint_matrix(mols)
        for smiles, row, g in zip(GOLDEN_BITS, X, mols):
            assert np.flatnonzero(row).tolist() == GOLDEN_BITS[smiles], smiles
            assert sorted(morgan_fingerprint(g).bits) == GOLDEN_BITS[smiles], smiles

    @pytest.mark.parametrize("radius,width", [(RADIUS, WIDTH)])
    def test_equals_fold_on_ringed_corpus(self, radius, width):
        mols = ringed_corpus()
        assert any(b.order == "aromatic" for g in mols for b in g.bonds)
        X = fingerprint_matrix(mols)
        assert X.shape == (len(mols), width)
        assert rows_as_sets(X) == [fold_fingerprint_bits(g, radius, width) for g in mols]

    def test_environment_hashes_equal_fold(self):
        for g in ringed_corpus()[:20] + [parse_smiles("[O-]C(=O)C")]:
            rounds, _ = _environment_rounds([g])
            assert [r.tolist() for r in rounds] == fold_environment_hashes(g, 2)

    def test_row_does_not_depend_on_batch(self):
        mols = ringed_corpus()
        X = fingerprint_matrix(mols)
        assert np.array_equal(fingerprint_matrix(mols[::-1]), X[::-1])
        assert np.array_equal(fingerprint_matrix(mols[7:8]), X[7:8])

    def test_empty_batch(self):
        assert fingerprint_matrix([]).shape == (0, 2048)


class TestPredictScores:
    def test_equals_dict_walk_on_trained_forest(self):
        mols, labels = planted_data()
        model = train_forest(list(zip(mols[:120], labels[:120])), n_trees=25, max_depth=12, seed=4)
        X = fingerprint_matrix(mols)
        got = predict_scores(model, X).tolist()
        want = [walk_score(model.trees, b) for b in rows_as_sets(X)]
        assert got == want
        assert [predict_score(model, g) for g in mols[:10]] == want[:10]

    def test_walks_past_the_max_depth_field(self):
        # three levels of splits under a model that claims depth 1
        deep = {"bit": 1, "left": {"leaf": 0.1}, "right": {
            "bit": 2, "left": {"leaf": 0.2}, "right": {
                "bit": 3, "left": {"leaf": 0.3}, "right": {"leaf": 0.9}}}}
        model = ForestModel([deep, {"leaf": 0.5}, deep], 3, 1, 0)
        X = np.zeros((5, 8), dtype=bool)
        X[1, [1]] = X[2, [1, 2]] = X[3, [1, 2, 3]] = X[4, [2, 3]] = True
        got = predict_scores(model, X).tolist()
        assert got == [walk_score(model.trees, b) for b in rows_as_sets(X)]
        assert got[3] == (0.9 + 0.5 + 0.9) / 3

    def test_leaf_values_summed_in_tree_order(self):
        # 21 one-leaf trees whose float sum depends on the order of addition:
        # a pairwise or blocked sum would differ in the last bit
        leaves = [round(0.1 * k, 1) for k in range(1, 17)] + [0.3] * 5
        model = ForestModel([{"leaf": v} for v in leaves], len(leaves), 1, 0)
        got = predict_scores(model, np.zeros((3, 8), dtype=bool)).tolist()
        assert got == [walk_score(model.trees, frozenset())] * 3
        assert got[0] == sum(leaves) / len(leaves)

    def test_property_scores_and_positive_mask(self):
        mols, labels = planted_data(size=100, seed=12)
        model = train_forest(list(zip(mols, labels)), n_trees=15, max_depth=12, seed=2)
        a = PropertySpec("a", model, threshold=0.5)
        b = PropertySpec("b", model, threshold=0.8)
        assert a.scores(mols).tolist() == [a.score(g) for g in mols]
        mask = positive_mask(mols, [a, b])
        assert mask.tolist() == [a.is_positive(g) and b.is_positive(g) for g in mols]
        assert positive_mask([], [a]).shape == (0,)


class TestTanimotoMatrix:
    def test_equals_set_formula(self):
        mols = ringed_corpus()
        X = fingerprint_matrix(mols)
        sets = rows_as_sets(X)
        S = tanimoto_matrix(X, X[:25])
        assert S.tolist() == [[set_tanimoto(a, b) for b in sets[:25]] for a in sets]

    def test_conventions(self):
        empty = BitFingerprint(frozenset())
        assert tanimoto(empty, empty) == 1.0
        a = BitFingerprint(frozenset({1, 2}))
        b = BitFingerprint(frozenset({1, 2, 3, 4, 5}))
        assert tanimoto(a, b) == 0.4
        assert tanimoto(a, empty) == 0.0
        with pytest.raises(ValueError):
            tanimoto_matrix(np.zeros((1, 8), bool), np.zeros((1, 16), bool))


class TestMatrixMetrics:
    def test_diversity_and_novelty_equal_loops(self):
        mols = ringed_corpus()
        X = fingerprint_matrix(mols)
        sets = rows_as_sets(X)
        gen, ref = X[:40], X[40:]
        assert diversity(gen) == loop_diversity(sets[:40])
        assert novelty(gen, ref) == loop_novelty(sets[:40], sets[40:])

    def test_empty_rows_and_the_cutoff(self):
        empty = frozenset()
        at_cutoff, ref = frozenset({1, 2}), frozenset({1, 2, 3, 4, 5})  # exactly 0.4
        below = frozenset({1, 2, 90})  # 2/7 against the wide reference
        wide = frozenset({1, 2, 3, 4, 5, 6})
        sets = [empty, empty, at_cutoff, below]
        refs = [ref, wide]
        X = np.array([BitFingerprint(s).row() for s in sets])
        R = np.array([BitFingerprint(s).row() for s in refs])
        assert diversity(X) == loop_diversity(sets)
        # empty rows share nothing with the references and are novel
        assert novelty(X, R) == loop_novelty(sets, refs) == 0.75
        assert novelty(X[2:3], R[:1]) == 0.0  # a tie is not novel
        assert novelty(X[3:4], R[1:]) == 1.0

    def test_evaluate_equals_loops(self):
        mols, labels = planted_data(size=90, seed=31)
        model = train_forest(list(zip(mols, labels)), n_trees=15, max_depth=12, seed=6)
        prop = PropertySpec("p", model, threshold=0.5)
        samples, train = mols[:60], mols[60:]
        report = evaluate(samples, [prop], train)
        fps = [fold_fingerprint_bits(g) for g in samples]
        ref = [fold_fingerprint_bits(g) for g in train]
        scores = [walk_score(model.trees, f) for f in fps]
        pos = [f for f, s in zip(fps, scores) if s >= 0.5]
        assert 2 <= len(pos) < len(samples)
        assert report.success == len(pos) / len(samples)
        assert report.per_property == {"p": len(pos) / len(samples)}
        assert report.diversity == loop_diversity(pos)
        assert report.novelty == loop_novelty(pos, ref)
        assert report.diversity_all == loop_diversity(fps)
        assert report.novelty_all == loop_novelty(fps, ref)
