import itertools
import random

import numpy as np
import pytest

from molrationale.chemgraph import parse_smiles
from molrationale.fingerprint import (
    RADIUS,
    BitFingerprint,
    _environment_rounds,
    morgan_fingerprint,
    tanimoto,
    tanimoto_matrix,
)

from helpers import random_corpus


def oracle_environments(smiles: str, radius: int) -> set[tuple]:
    """Independent enumeration of circular atom environments as canonical
    nested tuples (not hashes): the set of environments two molecules share
    is what their fingerprints can share."""
    g = parse_smiles(smiles)

    def env(atom: int, r: int) -> tuple:
        a = g.atoms[atom]
        base = (a.element, g.degree(atom), a.charge, a.aromatic)
        if r == 0:
            return base
        nb = tuple(
            sorted(
                (g.bond_between(atom, w).order, env(w, r - 1))
                for w in g.neighbors(atom)
            )
        )
        return (env(atom, r - 1), nb)

    return {env(i, r) for i in range(g.n) for r in range(radius + 1)}


class TestMorgan:
    def test_isomorphism_invariance(self):
        a = morgan_fingerprint(parse_smiles("CCO"))
        b = morgan_fingerprint(parse_smiles("OCC"))
        assert a == b

    def test_popcount_at_least_one(self):
        for s in ["C", "CCO", "c1ccccc1", "N#CC1CC1"]:
            assert len(morgan_fingerprint(parse_smiles(s)).bits) >= 1

    def test_ethanol_vs_methanol_radius1(self):
        # oracle: shared environments exist (terminal-carbon and oxygen-side
        # radius-0 entries), but the full environment sets differ
        eth = oracle_environments("CCO", RADIUS)
        met = oracle_environments("CO", RADIUS)
        shared = eth & met
        assert shared  # both have a degree-1 carbon and a degree-1 oxygen
        assert eth != met
        fp_eth = morgan_fingerprint(parse_smiles("CCO"))
        fp_met = morgan_fingerprint(parse_smiles("CO"))
        assert fp_eth.bits & fp_met.bits  # shared radius-0 bits present
        assert fp_eth != fp_met

    def test_environment_count_bounds_popcount(self):
        # distinct environments >= set bits (hash folding can only collide)
        for s in ["CCO", "CC(=O)N", "c1ccncc1"]:
            envs = oracle_environments(s, RADIUS)
            fp = morgan_fingerprint(parse_smiles(s))
            assert len(fp.bits) <= len(envs)

    def test_deterministic_across_runs(self):
        g = parse_smiles("CC(=O)Nc1ccccc1")
        assert morgan_fingerprint(g).bits == morgan_fingerprint(g).bits

    def test_rounds_shape(self):
        g = parse_smiles("CCO")
        rounds, mol_of = _environment_rounds([g])
        assert len(rounds) == RADIUS + 1
        assert all(len(r) == g.n for r in rounds)
        assert mol_of.tolist() == [0] * g.n


class TestTanimoto:
    def test_identity(self):
        fp = morgan_fingerprint(parse_smiles("CCO"))
        assert tanimoto(fp, fp) == 1.0

    def test_disjoint(self):
        a = BitFingerprint(frozenset({1, 2}))
        b = BitFingerprint(frozenset({3, 4}))
        assert tanimoto(a, b) == 0.0

    def test_half_overlap(self):
        a = BitFingerprint(frozenset({1, 2, 3}))
        b = BitFingerprint(frozenset({2, 3, 4}))
        assert tanimoto(a, b) == 0.5

    def test_both_empty_convention(self):
        a = BitFingerprint(frozenset())
        assert tanimoto(a, a) == 1.0

    def test_width_mismatch(self):
        a = np.zeros((1, 1024), dtype=bool)
        b = np.zeros((1, 2048), dtype=bool)
        with pytest.raises(ValueError):
            tanimoto_matrix(a, b)

    def test_symmetry_and_bounds_on_corpus(self):
        fps = [morgan_fingerprint(g) for g in random_corpus(30, seed=77)]
        for a, b in itertools.combinations(fps, 2):
            s = tanimoto(a, b)
            assert s == tanimoto(b, a)
            assert 0.0 <= s <= 1.0
