import itertools
from dataclasses import astuple, fields

import pytest

from molrationale import cli
from molrationale.chemgraph import parse_smiles
from molrationale.fingerprint import morgan_fingerprint, tanimoto
from molrationale.metrics import (
    MetricsError,
    diversity,
    evaluate,
    novelty,
)

from helpers import StubProperty, random_corpus, similarity


class StubSpec(StubProperty):
    """Property that scores by molecule size for controllable positives."""

    def __init__(self, name="size", max_atoms=3, threshold=0.5):
        self.name = name
        self.threshold = threshold
        self._max = max_atoms

    def score(self, g):
        return 1.0 if g.n <= self._max else 0.0

    def is_positive(self, g):
        return self.score(g) >= self.threshold


MOLS = [parse_smiles(s) for s in ["C", "CC", "CCC", "CCCC"]]


class TestSuccessRate:
    def test_all_positive(self):
        assert evaluate(MOLS, [StubSpec(max_atoms=10)], []).success == 1.0

    def test_none_positive(self):
        assert evaluate(MOLS, [StubSpec(max_atoms=0)], []).success == 0.0

    def test_half(self):
        assert evaluate(MOLS, [StubSpec(max_atoms=2)], []).success == 0.5

    def test_conjunction_over_properties(self):
        specs = [StubSpec("a", max_atoms=3), StubSpec("b", max_atoms=2)]
        assert evaluate(MOLS, specs, []).success == 0.5

    def test_empty_raises(self):
        with pytest.raises(MetricsError):
            evaluate([], [StubSpec()], [])


class TestDiversity:
    def test_identical_molecules_zero(self):
        mols = [parse_smiles("CCO")] * 5
        assert diversity(similarity(mols)) == pytest.approx(0.0)

    def test_two_molecules(self):
        a, b = parse_smiles("CCO"), parse_smiles("CCN")
        sim = tanimoto(morgan_fingerprint(a), morgan_fingerprint(b))
        assert diversity(similarity([a, b])) == pytest.approx(1.0 - sim)

    def test_three_molecule_formula(self):
        mols = [parse_smiles(s) for s in ["CCO", "CCN", "c1ccccc1"]]
        fps = [morgan_fingerprint(g) for g in mols]
        sims = [tanimoto(a, b) for a, b in itertools.combinations(fps, 2)]
        expected = 1.0 - (2.0 / (3 * 2)) * sum(sims)
        assert diversity(similarity(mols)) == pytest.approx(expected)

    def test_brute_force_equality_on_set(self):
        mols = random_corpus(20, seed=3)
        fps = [morgan_fingerprint(g) for g in mols]
        n = len(mols)
        total = sum(
            tanimoto(fps[i], fps[j]) for i in range(n) for j in range(i + 1, n)
        )
        expected = 1.0 - total / (n * (n - 1) / 2)
        assert diversity(similarity(mols)) == pytest.approx(expected, abs=1e-12)

    def test_order_invariance(self):
        mols = random_corpus(10, seed=9)
        assert diversity(similarity(mols)) == pytest.approx(
            diversity(similarity(list(reversed(mols))))
        )

    def test_single_molecule_undefined(self):
        with pytest.raises(MetricsError):
            diversity(similarity([parse_smiles("C")]))


class TestNovelty:
    def test_exact_training_copies_not_novel(self):
        train = [parse_smiles("CCO"), parse_smiles("CCN")]
        assert novelty(similarity(list(train), train)) == 0.0

    def test_disjoint_reference_fully_novel(self):
        gen = [parse_smiles("c1ccccc1")]
        train = [parse_smiles("III"[0:1])]  # single iodine atom
        assert novelty(similarity(gen, train)) == 1.0

    def test_boundary_similarity_is_not_novel(self):
        # construct a pair whose Tanimoto is exactly 0.4, then shift around it
        from molrationale.fingerprint import BitFingerprint
        from molrationale import metrics as m

        a = BitFingerprint(frozenset({1, 2}))
        b = BitFingerprint(frozenset({1, 2, 3, 4, 5}))
        assert tanimoto(a, b) == pytest.approx(0.4)

        class FP:
            pass

        # strict inequality at the cutoff counts as not novel
        sims = [0.4]
        count = sum(1 for s in sims if s < m.NOVELTY_CUTOFF)
        assert count == 0

    def test_order_invariance(self):
        gen = random_corpus(8, seed=21)
        train = random_corpus(8, seed=22)
        assert novelty(similarity(gen, train)) == novelty(similarity(list(reversed(gen)), train))

    def test_empty_reference_raises(self):
        with pytest.raises(MetricsError):
            novelty(similarity([parse_smiles("C")], []))


class TestEvaluate:
    def test_degenerate_all_negative(self):
        report = evaluate(MOLS, [StubSpec(max_atoms=0)], [parse_smiles("C")])
        assert report.success == 0.0
        assert report.diversity is None
        assert report.novelty is None

    def test_hand_built_batch_matches_components(self):
        mols = [parse_smiles(s) for s in ["C", "CC", "CCCCC"]]
        spec = StubSpec(max_atoms=2)
        train = [parse_smiles("CCO")]
        report = evaluate(mols, [spec], train)
        positives = [g for g in mols if spec.is_positive(g)]
        assert report.n == 3
        assert report.success == pytest.approx(2 / 3)
        assert report.diversity == pytest.approx(diversity(similarity(positives)))
        assert report.novelty == pytest.approx(novelty(similarity(positives, train)))
        assert report.per_property == {"size": pytest.approx(2 / 3)}

    def test_csv_row_written(self, tmp_path):
        # the report's fields are the columns of the CLI's stage-record writer
        out = tmp_path / "report.csv"
        report = evaluate(MOLS, [StubSpec(max_atoms=10)], [parse_smiles("C")])
        cli._write_csv(out, [f.name for f in fields(report)], [astuple(report)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,success,diversity,novelty,diversity_all,novelty_all,per_property"
        assert lines[1].split(",")[0] == "4"
        assert lines[1].split(",")[-1] == "size=1.000000"

    def test_empty_samples_raise(self):
        with pytest.raises(MetricsError):
            evaluate([], [StubSpec()], [])
