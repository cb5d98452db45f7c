import json
import random

import numpy as np
import pytest

from molrationale.chemgraph import parse_smiles
from molrationale.forest import (
    ForestError,
    ForestModel,
    PropertySpec,
    auroc,
    auroc_from_scores,
    predict_score,
    read_property_csv,
    train_forest,
)
from molrationale.synthetic import CorpusSpec, generate_corpus

from helpers import row_copy_forest_trees

MOTIF = "NC(=O)c1ccc(O)cc1"


def planted_dataset(size=400, seed=5):
    spec = CorpusSpec(
        size=size, atoms_min=9, atoms_max=14, ring_prob=0.25, decoy_prob=0.25, unique=True
    )
    motif = parse_smiles(MOTIF)
    mols, labels = generate_corpus(spec, {"tox": motif}, {"tox": 0.2}, seed=seed)
    return [(g, y) for g, y in zip(mols, labels["tox"])]


class TestTrainForest:
    def test_single_perfect_bit(self):
        # one bit separates the classes perfectly: a lone tree learns it
        data = [(parse_smiles("c1ccccc1"), 1) for _ in range(5)]
        data += [(parse_smiles("CCCCCC"), 0) for _ in range(5)]
        model = train_forest(data, n_trees=1, max_depth=4, seed=1)
        assert all(
            (predict_score(model, g) >= 0.5) == bool(y) for g, y in data
        )

    def test_single_class_raises(self):
        data = [(parse_smiles("C"), 1), (parse_smiles("CC"), 1)]
        with pytest.raises(ForestError):
            train_forest(data, n_trees=1, max_depth=12, seed=0)

    def test_too_small_raises(self):
        with pytest.raises(ForestError):
            train_forest([(parse_smiles("C"), 1)], n_trees=100, max_depth=12, seed=0)

    def test_determinism_bytes(self):
        data = planted_dataset(size=80, seed=9)
        a = train_forest(data, n_trees=8, max_depth=8, seed=42).to_json()
        b = train_forest(data, n_trees=8, max_depth=8, seed=42).to_json()
        assert a == b
        c = train_forest(data, n_trees=8, max_depth=8, seed=43).to_json()
        assert a != c

    def test_heldout_auroc_on_planted_corpus(self):
        data = planted_dataset(size=500, seed=12)
        rng = np.random.default_rng(0)
        order = rng.permutation(len(data))
        train = [data[i] for i in order[:400]]
        test = [data[i] for i in order[400:]]
        model = train_forest(train, n_trees=40, max_depth=12, seed=3)
        assert auroc(model, test) >= 0.95


    @pytest.mark.parametrize(
        "size,atoms_min,atoms_max,seed",
        [(80, 9, 14, 1), (200, 9, 13, 2), (120, 20, 28, 3), (60, 4, 8, 4)],
    )
    def test_counted_trees_equal_row_copy_oracle(self, size, atoms_min, atoms_max, seed):
        spec = CorpusSpec(
            size=size, atoms_min=atoms_min, atoms_max=atoms_max, ring_prob=0.25,
            decoy_prob=0.25, unique=True,
        )
        motifs = {"amide": parse_smiles("NC(=O)c1ccccc1"), "phenol": parse_smiles("Oc1ccccc1")}
        mols, labels = generate_corpus(spec, motifs, {"amide": 0.2, "phenol": 0.2}, seed=seed)
        for name in motifs:
            data = list(zip(mols, labels[name]))
            for forest_seed in (seed, seed + 100):
                model = train_forest(data, n_trees=12, max_depth=10, seed=forest_seed)
                assert model.trees == row_copy_forest_trees(data, 12, 10, forest_seed)


class TestPredict:
    def test_leaf_vote_mean(self):
        # trees stubbed directly: scores are the mean of leaf values
        model = ForestModel(
            trees=[{"leaf": 1.0}, {"leaf": 1.0}, {"leaf": 1.0}, {"leaf": 0.0}],
            n_trees=4, max_depth=1, seed=0,
        )
        assert predict_score(model, parse_smiles("C")) == 0.75

    def test_all_positive_and_negative(self):
        up = ForestModel([{"leaf": 1.0}] * 3, 3, 1, 0)
        down = ForestModel([{"leaf": 0.0}] * 3, 3, 1, 0)
        g = parse_smiles("CCO")
        assert predict_score(up, g) == 1.0
        assert predict_score(down, g) == 0.0

    def test_score_in_unit_interval(self):
        data = planted_dataset(size=120, seed=4)
        model = train_forest(data, n_trees=12, max_depth=10, seed=7)
        for g, _ in data[:40]:
            assert 0.0 <= predict_score(model, g) <= 1.0

    def test_duplicated_tree_shifts_score_little(self):
        data = planted_dataset(size=120, seed=21)
        model = train_forest(data, n_trees=10, max_depth=8, seed=2)
        for g, _ in data[:20]:
            base = predict_score(model, g)
            for dup in model.trees[:3]:
                extended = ForestModel(
                    model.trees + [dup], model.n_trees + 1, model.max_depth, model.seed
                )
                assert abs(predict_score(extended, g) - base) <= 1.0 / model.n_trees + 1e-12


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc_from_scores([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_chance_level(self):
        rng = np.random.default_rng(8)
        scores = rng.random(4000)
        labels = rng.integers(0, 2, size=4000)
        assert abs(auroc_from_scores(scores, labels) - 0.5) < 0.05

    def test_hand_case_one_swap(self):
        # oracle: count of positive-over-negative pairs / total pairs
        scores = [0.9, 0.7, 0.8, 0.6]
        labels = [1, 1, 0, 0]
        wins = 0
        for sp in (0.9, 0.7):
            for sn in (0.8, 0.6):
                wins += 1 if sp > sn else 0
        assert wins / 4 == 0.75
        assert auroc_from_scores(scores, labels) == 0.75

    def test_midrank_ties(self):
        # one tied positive/negative pair counts as half a win
        assert auroc_from_scores([0.5, 0.5], [1, 0]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(ForestError):
            auroc_from_scores([0.5, 0.6], [1, 1])


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        data = planted_dataset(size=60, seed=2)
        model = train_forest(data, n_trees=5, max_depth=6, seed=11)
        path = tmp_path / "forest.json"
        model.save(path)
        back = ForestModel.load(path)
        assert back.to_json() == model.to_json()
        g = data[0][0]
        assert predict_score(back, g) == predict_score(model, g)

    def test_version_check(self):
        with pytest.raises(ForestError):
            ForestModel.from_json('{"version": 99}')

    @pytest.mark.parametrize("trees", [[], {}, None])
    def test_trees_must_be_a_nonempty_list(self, trees):
        doc = {"version": 2, "n_trees": 1, "max_depth": 1, "seed": 0, "trees": trees}
        with pytest.raises(ForestError, match="trees must be a non-empty list"):
            ForestModel.from_json(json.dumps(doc))


class TestPropertySpec:
    def test_is_positive(self):
        model = ForestModel([{"leaf": 0.6}], 1, 1, 0)
        spec = PropertySpec("x", model, threshold=0.5)
        assert spec.is_positive(parse_smiles("C"))


class TestCsv:
    def test_single_and_multi_label(self, tmp_path):
        p = tmp_path / "props.csv"
        p.write_text("smiles,label\nCCO,1\nCC,0\n")
        names, mols, labels = read_property_csv(p)
        assert names == ["label"] and mols == [parse_smiles("CCO"), parse_smiles("CC")]
        assert labels == [[1], [0]]
        p2 = tmp_path / "multi.csv"
        p2.write_text("smiles,alpha,beta\nCCO,1,0\nCC,0,1\n")
        names2, _, labels2 = read_property_csv(p2)
        assert names2 == ["alpha", "beta"]
        assert labels2 == [[1, 0], [0, 1]]

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("mol,label\nCCO,1\n")
        with pytest.raises(ForestError):
            read_property_csv(p)

    def test_empty_file_has_no_header(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ForestError, match="first CSV column must be 'smiles'"):
            read_property_csv(p)
