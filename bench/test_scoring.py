"""Microbenchmarks of the batch scorer: the fingerprint matrix, the forest walk
and the Tanimoto matrix, on one and on 160 desk molecules (the README desk
corpus settings: 9-14 atoms, ring probability 0.25, amide and phenol motifs
planted at 0.2); and diversity plus novelty of 500 desk molecules against
those 160.

Not part of the test suite; run with

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import tracemalloc

import pytest

from molrationale.chemgraph import parse_smiles
from molrationale.fingerprint import fingerprint_matrix, tanimoto_matrix
from molrationale.forest import predict_scores, train_forest
from molrationale.metrics import diversity, novelty
from molrationale.synthetic import CorpusSpec, generate_corpus

SIZES = [1, 160]


def desk_corpus(size, seed):
    spec = CorpusSpec(size=size, atoms_min=9, atoms_max=14, ring_prob=0.25,
                      decoy_prob=0.25, unique=False)
    motifs = {"amide": parse_smiles("NC(=O)c1ccccc1"), "phenol": parse_smiles("Oc1ccccc1")}
    return generate_corpus(spec, motifs, {"amide": 0.2, "phenol": 0.2}, seed=seed)


@pytest.fixture(scope="module")
def desk():
    mols, labels = desk_corpus(160, 11)
    model = train_forest(list(zip(mols, labels["amide"])), n_trees=60, max_depth=12, seed=11)
    return mols, model


@pytest.mark.parametrize("n", SIZES)
def test_fingerprint_matrix(benchmark, desk, n):
    mols, _ = desk
    X = benchmark(fingerprint_matrix, mols[:n])
    assert X.shape == (n, 2048)


@pytest.mark.parametrize("n", SIZES)
def test_predict_scores(benchmark, desk, n):
    mols, model = desk
    X = fingerprint_matrix(mols[:n])
    scores = benchmark(predict_scores, model, X)
    assert scores.shape == (n,)


@pytest.mark.parametrize("n", SIZES)
def test_tanimoto_matrix(benchmark, desk, n):
    mols, _ = desk
    X = fingerprint_matrix(mols[:n])
    sim = benchmark(tanimoto_matrix, X, X)
    assert sim.shape == (n, n)


def test_diversity_and_novelty(benchmark, desk):
    """Diversity of 500 desk molecules of another corpus seed, standing in
    for the desk's 500 samples, and their novelty against the 160, from the
    fingerprint matrices. extra_info["peak_mb"] is tracemalloc's peak over
    one untimed repetition."""
    samples = fingerprint_matrix(desk_corpus(500, 12)[0])
    ref = fingerprint_matrix(desk[0])

    def score():
        return diversity(samples), novelty(samples, ref)

    tracemalloc.start()
    try:
        score()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["peak_mb"] = round(peak / 2**20, 2)
    div, nov = benchmark(score)
    assert 0 < div < 1 and 0 <= nov <= 1
