import itertools
import tracemalloc
from dataclasses import astuple, fields

import numpy as np
import pytest

from molrationale import cli
from molrationale.chemgraph import parse_smiles
from molrationale.fingerprint import (
    WIDTH,
    BitFingerprint,
    fingerprint_matrix,
    morgan_fingerprint,
    tanimoto,
)
from molrationale.metrics import (
    MetricsError,
    diversity,
    evaluate,
    novelty,
)

from helpers import StubProperty, full_matrix_diversity, full_matrix_novelty, random_corpus


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
        assert diversity(fingerprint_matrix(mols)) == pytest.approx(0.0)

    def test_two_molecules(self):
        a, b = parse_smiles("CCO"), parse_smiles("CCN")
        sim = tanimoto(morgan_fingerprint(a), morgan_fingerprint(b))
        assert diversity(fingerprint_matrix([a, b])) == pytest.approx(1.0 - sim)

    def test_three_molecule_formula(self):
        mols = [parse_smiles(s) for s in ["CCO", "CCN", "c1ccccc1"]]
        fps = [morgan_fingerprint(g) for g in mols]
        sims = [tanimoto(a, b) for a, b in itertools.combinations(fps, 2)]
        expected = 1.0 - (2.0 / (3 * 2)) * sum(sims)
        assert diversity(fingerprint_matrix(mols)) == pytest.approx(expected)

    def test_brute_force_equality_on_set(self):
        mols = random_corpus(20, seed=3)
        fps = [morgan_fingerprint(g) for g in mols]
        n = len(mols)
        total = sum(
            tanimoto(fps[i], fps[j]) for i in range(n) for j in range(i + 1, n)
        )
        expected = 1.0 - total / (n * (n - 1) / 2)
        assert diversity(fingerprint_matrix(mols)) == pytest.approx(expected, abs=1e-12)

    def test_order_invariance(self):
        mols = random_corpus(10, seed=9)
        assert diversity(fingerprint_matrix(mols)) == pytest.approx(
            diversity(fingerprint_matrix(list(reversed(mols))))
        )

    def test_single_molecule_undefined(self):
        with pytest.raises(MetricsError):
            diversity(fingerprint_matrix([parse_smiles("C")]))


class TestNovelty:
    def test_exact_training_copies_not_novel(self):
        train = [parse_smiles("CCO"), parse_smiles("CCN")]
        assert novelty(fingerprint_matrix(list(train)), fingerprint_matrix(train)) == 0.0

    def test_disjoint_reference_fully_novel(self):
        gen = [parse_smiles("c1ccccc1")]
        train = [parse_smiles("III"[0:1])]  # single iodine atom
        assert novelty(fingerprint_matrix(gen), fingerprint_matrix(train)) == 1.0

    def test_boundary_similarity_is_not_novel(self):
        # {1, 2} against {1, ..., 5} is exactly 0.4: a tie at the cutoff
        tie, ref = BitFingerprint(frozenset({1, 2})), BitFingerprint(frozenset({1, 2, 3, 4, 5}))
        assert tanimoto(tie, ref) == 0.4
        assert novelty(tie.row()[None], ref.row()[None]) == 0.0
        # 39 bits shared of 98 is 0.398, just below the cutoff
        below, wide = BitFingerprint(frozenset(range(39))), BitFingerprint(frozenset(range(98)))
        assert 0.39 < tanimoto(below, wide) < 0.4
        assert novelty(below.row()[None], wide.row()[None]) == 1.0

    def test_order_invariance(self):
        gen = random_corpus(8, seed=21)
        train = random_corpus(8, seed=22)
        ref = fingerprint_matrix(train)
        assert novelty(fingerprint_matrix(gen), ref) == novelty(
            fingerprint_matrix(list(reversed(gen))), ref
        )

    def test_empty_reference_raises(self):
        with pytest.raises(MetricsError):
            novelty(fingerprint_matrix([parse_smiles("C")]), fingerprint_matrix([]))


def traced_peak_mb(fn, *args):
    """fn(*args) and tracemalloc's peak over the call, in MB."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


class TestBoundedMemory:
    """Diversity and novelty of 2,000 rows read the similarities one block of
    rows at a time; the whole (2,000 x 2,000) float64 matrix alone is 32 MB."""

    @pytest.fixture(scope="class")
    def rows(self):
        rng = np.random.default_rng(24)
        fps = rng.random((2000, WIDTH)) < 0.02
        # references that keep about half of every 20th row's bits, plus noise,
        # so that nearest similarities fall on both sides of the cutoff
        ref = (fps[::20] & (rng.random((100, WIDTH)) < 0.5)) | (rng.random((100, WIDTH)) < 0.005)
        return fps, ref

    def test_diversity_equals_the_full_matrix_under_40_mb(self, rows):
        fps, _ = rows
        got, peak = traced_peak_mb(diversity, fps)
        assert got == full_matrix_diversity(fps)
        assert peak < 40, peak

    def test_novelty_equals_the_full_matrix_under_40_mb(self, rows):
        fps, ref = rows
        got, peak = traced_peak_mb(novelty, fps, ref)
        assert got == full_matrix_novelty(fps, ref)
        assert 0.9 < got < 1.0
        assert peak < 40, peak


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
        assert report.diversity == pytest.approx(diversity(fingerprint_matrix(positives)))
        assert report.novelty == pytest.approx(
            novelty(fingerprint_matrix(positives), fingerprint_matrix(train))
        )
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
