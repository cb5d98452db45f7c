import random

import pytest

from molrationale.chemgraph import (
    AROMATIC,
    SINGLE,
    Atom,
    Bond,
    GraphError,
    MolGraph,
    ParseError,
    ResourceLimitError,
    ValenceError,
    apply_deletion,
    canonical_key,
    canonical_ranks,
    contains_subgraph,
    disjoint_union,
    embeddings,
    induced_subgraph,
    is_connected,
    parse_smiles,
    peripheral_deletions,
    sssr,
    to_debug_json,
    write_smiles,
)

from helpers import (
    oracle_embeddings,
    oracle_is_isomorphic,
    oracle_peripheral_removals,
    random_corpus,
)


class TestParse:
    def test_ethanol(self):
        g = parse_smiles("CCO")
        assert [a.element for a in g.atoms] == ["C", "C", "O"]
        assert len(g.bonds) == 2
        assert all(b.order == SINGLE for b in g.bonds)

    def test_cyclopropane(self):
        g = parse_smiles("C1CC1")
        assert g.n == 3
        assert len(g.bonds) == 3
        assert len(sssr(g)) == 1

    def test_unclosed_ring_is_error(self):
        with pytest.raises(ParseError, match="unclosed ring closure 1"):
            parse_smiles("C1CC")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError, match="parenthesis"):
            parse_smiles("C(C")
        with pytest.raises(ParseError, match="parenthesis"):
            parse_smiles("CC)C")

    def test_unknown_element(self):
        with pytest.raises(ParseError, match="unknown element"):
            parse_smiles("CXC")

    def test_valence_violation_names_position(self):
        with pytest.raises(ParseError, match="valence") as err:
            parse_smiles("C(=O)(=O)(=O)")
        assert "position" in str(err.value)

    def test_stereo_and_isotopes_rejected(self):
        with pytest.raises(ParseError, match="stereo"):
            parse_smiles("C/C=C/C")
        with pytest.raises(ParseError, match="isotope"):
            parse_smiles("[13C]")
        with pytest.raises(ParseError, match="stereo"):
            parse_smiles("[C@H](N)C")

    def test_charges_and_brackets(self):
        g = parse_smiles("[N+](C)(C)C")
        assert g.atoms[0].charge == 1
        g2 = parse_smiles("[O-]C")
        assert g2.atoms[0].charge == -1
        g3 = parse_smiles("[N+2]")
        assert g3.atoms[0].charge == 2
        g4 = parse_smiles("c1cc[nH]c1")
        assert g4.atoms[3].element == "N" and g4.atoms[3].aromatic

    def test_aromatic_default_bonds(self):
        g = parse_smiles("c1ccccc1")
        assert all(b.order == AROMATIC for b in g.bonds)
        assert all(a.aromatic for a in g.atoms)

    def test_explicit_bonds(self):
        g = parse_smiles("C=C")
        assert g.bonds[0].order == "double"
        g = parse_smiles("C#N")
        assert g.bonds[0].order == "triple"

    def test_dot_rejected(self):
        with pytest.raises(ParseError, match="fragments"):
            parse_smiles("C.C")

    def test_percent_ring_closure(self):
        g = parse_smiles("C%11CC%11")
        assert g.n == 3 and len(g.bonds) == 3

    def test_order_independence_up_to_isomorphism(self):
        for a, b in [("CCO", "OCC"), ("CC(=O)N", "NC(=O)C"), ("c1ccncc1", "n1ccccc1")]:
            assert canonical_key(parse_smiles(a)) == canonical_key(parse_smiles(b))


class TestWrite:
    def test_single_carbon(self):
        assert write_smiles(parse_smiles("C")) == "C"

    def test_cyclopropane_roundtrip(self):
        g = parse_smiles("C1CC1")
        back = parse_smiles(write_smiles(g))
        assert back.n == 3 and len(sssr(back)) == 1

    def test_benzene_roundtrip(self):
        back = parse_smiles(write_smiles(parse_smiles("c1ccccc1")))
        assert back.n == 6
        assert all(a.aromatic for a in back.atoms)

    def test_biphenyl_single_bond_explicit(self):
        g = parse_smiles("c1ccccc1-c1ccccc1")
        back = parse_smiles(write_smiles(g))
        assert canonical_key(back) == canonical_key(g)

    def test_disconnected_raises(self):
        g = disjoint_union([parse_smiles("C"), parse_smiles("O")])
        with pytest.raises(GraphError):
            write_smiles(g)

    def test_charge_roundtrip(self):
        g = parse_smiles("[N+](C)(C)C")
        assert canonical_key(parse_smiles(write_smiles(g))) == canonical_key(g)


class TestCanonicalKey:
    def test_same_molecule_equal(self):
        assert canonical_key(parse_smiles("CCO")) == canonical_key(parse_smiles("OCC"))

    def test_different_elements_unequal(self):
        assert canonical_key(parse_smiles("CCO")) != canonical_key(parse_smiles("CCN"))

    def test_ring_vs_chain_unequal(self):
        assert canonical_key(parse_smiles("C1CC1")) != canonical_key(parse_smiles("CCC"))

    def test_randomized_renderings_agree(self):
        corpus = random_corpus(40, seed=11)
        for g in corpus:
            key = canonical_key(g)
            for i in range(5):
                rng = random.Random(1000 + i)
                alt = parse_smiles(write_smiles(g, rng=rng))
                assert canonical_key(alt) == key

    def test_key_equality_matches_isomorphism(self):
        corpus = random_corpus(30, seed=23, atoms_min=4, atoms_max=8)
        for i, a in enumerate(corpus):
            for b in corpus[i + 1 :]:
                assert (canonical_key(a) == canonical_key(b)) == oracle_is_isomorphic(a, b)

    def test_ranks_are_a_permutation(self):
        g = parse_smiles("CC(=O)Nc1ccccc1")
        ranks = canonical_ranks(g)
        assert sorted(ranks) == list(range(g.n))


class TestPeripheralDeletions:
    def test_propane_two_terminal_bonds(self):
        g = parse_smiles("CCC")
        dels = peripheral_deletions(g)
        assert len(dels) == 2
        for d in dels:
            assert d.kind == "peripheral-bond"
            assert apply_deletion(g, d).n == 2

    def test_benzene_no_deletions(self):
        assert peripheral_deletions(parse_smiles("c1ccccc1")) == []

    def test_ethane_no_deletions(self):
        # both endpoints have degree 1, so neither bond qualifies
        assert peripheral_deletions(parse_smiles("CC")) == []

    def test_methylcyclopropane_matches_oracle(self):
        g = parse_smiles("CC1CC1")
        dels = peripheral_deletions(g)
        got = {
            ("bond" if d.kind == "peripheral-bond" else "ring", d.atoms, d.bonds)
            for d in dels
        }
        assert got == oracle_peripheral_removals(g)
        assert len(dels) == 2
        sizes = sorted(apply_deletion(g, d).n for d in dels)
        assert sizes == [1, 3]  # ring removal leaves the lone methyl carbon

    def test_disconnected_input_raises(self):
        g = disjoint_union([parse_smiles("CC"), parse_smiles("O")])
        with pytest.raises(GraphError):
            peripheral_deletions(g)

    def test_completeness_oracle_small_graphs(self):
        smiles = [
            "CCC", "CCCC", "CC(C)C", "CCO", "CC1CC1", "C1CCCCC1", "Cc1ccccc1",
            "CC1CCC1C", "OC1CCC1", "C1CC1C1CC1", "CCCCCCCC", "CC(=O)NC",
            "C1CCCCC1CC", "c1ccncc1CC", "N#CC1CC1",
        ]
        corpus = [parse_smiles(s) for s in smiles] + random_corpus(
            60, seed=5, atoms_min=3, atoms_max=12, ring_prob=0.4
        )
        for g in corpus:
            if g.n > 12 or not is_connected(g):
                continue
            got = {
                ("bond" if d.kind == "peripheral-bond" else "ring", d.atoms, d.bonds)
                for d in peripheral_deletions(g)
            }
            assert got == oracle_peripheral_removals(g), write_smiles(g)

    def test_soundness_on_corpus(self):
        # every enumerated deletion applies to a valid, connected, smaller graph
        corpus = random_corpus(1000, seed=37, atoms_min=3, atoms_max=14)
        checked = 0
        for g in corpus:
            for d in peripheral_deletions(g):
                out = apply_deletion(g, d)
                assert out.n > 0
                assert out.n < g.n
                assert is_connected(out)
                checked += 1
        assert checked > 500


class TestApplyDeletion:
    def test_terminal_bond(self):
        g = parse_smiles("CCC")
        d = peripheral_deletions(g)[0]
        assert apply_deletion(g, d).n == 2

    def test_exocyclic_bond_gives_ring(self):
        g = parse_smiles("CC1CC1")
        bond_dels = [d for d in peripheral_deletions(g) if d.kind == "peripheral-bond"]
        out = apply_deletion(g, bond_dels[0])
        assert canonical_key(out) == canonical_key(parse_smiles("C1CC1"))

    def test_ring_deletion_gives_single_atom(self):
        g = parse_smiles("CC1CC1")
        ring_dels = [d for d in peripheral_deletions(g) if d.kind == "peripheral-ring"]
        out = apply_deletion(g, ring_dels[0])
        assert out.n == 1 and out.atoms[0].element == "C"

    def test_stale_deletion_raises(self):
        g = parse_smiles("CCC")
        stale = [d for d in peripheral_deletions(g) if d.bonds[0] == 1][0]
        small = parse_smiles("CC")  # has no bond index 1
        with pytest.raises(GraphError):
            apply_deletion(small, stale)
        # a dangling bond left behind is also detected
        ring = parse_smiles("CC1CC1")
        from molrationale.chemgraph import Deletion

        with pytest.raises(GraphError):
            apply_deletion(ring, Deletion("peripheral-ring", (1, 2, 3), (1, 2)))


class TestContainsSubgraph:
    def test_atom_in_ethanol(self):
        assert contains_subgraph(parse_smiles("CCO"), parse_smiles("C")) is not None

    def test_ring_not_in_chain(self):
        assert contains_subgraph(parse_smiles("CCC"), parse_smiles("C1CC1")) is None

    def test_planted_motif_found(self):
        from molrationale.synthetic import random_molecule

        motif = parse_smiles("NC(=O)c1ccccc1")
        rng = random.Random(3)
        for _ in range(20):
            g = random_molecule(rng, 16, 0.3, motif=motif)
            mapping = contains_subgraph(g, motif)
            assert mapping is not None
            for si, gi in mapping.items():
                assert g.atoms[gi].element == motif.atoms[si].element

    def test_mapping_preserves_bond_orders(self):
        g = parse_smiles("CC(=O)NCC")
        s = parse_smiles("C(=O)N")
        mapping = contains_subgraph(g, s)
        assert mapping is not None
        for b in s.bonds:
            gb = g.bond_between(mapping[b.u], mapping[b.v])
            assert gb is not None and gb.order == b.order

    def test_multi_fragment_query(self):
        g = parse_smiles("NCCO")
        s = disjoint_union([parse_smiles("N"), parse_smiles("O")])
        mapping = contains_subgraph(g, s)
        assert mapping is not None
        assert len(set(mapping.values())) == 2

    def test_over_limit_raises(self):
        big = MolGraph(
            [Atom("C") for _ in range(61)],
            [Bond(i, i + 1, SINGLE) for i in range(60)],
        )
        with pytest.raises(ResourceLimitError):
            contains_subgraph(big, parse_smiles("C"))


def random_fragment(g: MolGraph, rng: random.Random) -> MolGraph:
    """Induced subgraph on a random connected atom set of g."""
    atoms = [rng.randrange(g.n)]
    size = rng.randint(1, g.n)
    while len(atoms) < size:
        frontier = sorted({w for u in atoms for w in g.neighbors(u)} - set(atoms))
        if not frontier:
            break
        atoms.append(rng.choice(frontier))
    return induced_subgraph(g, atoms)


class TestEmbeddings:
    def check_against_oracle(self, g: MolGraph, s: MolGraph) -> None:
        for induced in (False, True):
            got = [tuple(sorted(m.items())) for m in embeddings(g, s, induced=induced)]
            assert len(got) == len(set(got)), "an embedding was yielded twice"
            want = {tuple(sorted(m.items())) for m in oracle_embeddings(g, s, induced)}
            assert set(got) == want, (write_smiles(g), write_smiles(s), induced)

    def test_random_fragments_match_oracle(self):
        rng = random.Random(17)
        for g in random_corpus(60, seed=23, atoms_min=5, atoms_max=12):
            for _ in range(3):
                self.check_against_oracle(g, random_fragment(g, rng))

    def test_symmetric_benzene(self):
        benzene = parse_smiles("c1ccccc1")
        assert len(list(embeddings(benzene, benzene))) == 12
        for smiles in ["c1ccccc1", "c1ccc2ccccc2c1", "Cc1ccccc1C"]:
            self.check_against_oracle(parse_smiles(smiles), benzene)

    def test_desk_motifs_in_planted_molecules(self):
        from molrationale.synthetic import random_molecule

        rng = random.Random(5)
        for smiles in ["NC(=O)c1ccccc1", "Oc1ccccc1"]:
            motif = parse_smiles(smiles)
            for _ in range(10):
                g = random_molecule(rng, 16, 0.3, motif=motif)
                self.check_against_oracle(g, motif)

    def test_two_fragment_query(self):
        s = disjoint_union([parse_smiles("CC"), parse_smiles("CC")])
        g = parse_smiles("C1C(C)C1")
        # the first fragment's first placement leaves no room for the second
        assert contains_subgraph(g, s) is not None
        self.check_against_oracle(g, s)

    def test_induced_excludes_extra_bonds(self):
        ring = parse_smiles("C1CC1")
        chain = parse_smiles("CCC")
        assert len(list(embeddings(ring, chain))) == 6
        assert list(embeddings(ring, chain, induced=True)) == []


class TestInvariants:
    def test_roundtrip_on_corpus(self):
        corpus = random_corpus(200, seed=91)
        for g in corpus:
            back = parse_smiles(write_smiles(g))
            assert canonical_key(back) == canonical_key(g)

    def test_molgraph_rejects_duplicates_and_self_loops(self):
        with pytest.raises(GraphError):
            MolGraph([Atom("C"), Atom("C")], [Bond(0, 1, SINGLE), Bond(1, 0, SINGLE)])
        with pytest.raises(GraphError):
            MolGraph([Atom("C")], [Bond(0, 0, SINGLE)])

    def test_valence_table_enforced(self):
        with pytest.raises(ValenceError):
            MolGraph(
                [Atom("O"), Atom("C"), Atom("C"), Atom("C")],
                [Bond(0, 1, SINGLE), Bond(0, 2, SINGLE), Bond(0, 3, SINGLE)],
            )
        # sulfur allows 6
        MolGraph(
            [Atom("S")] + [Atom("O")] * 3,
            [Bond(0, i, "double") for i in range(1, 4)],
        )

    def test_aromatic_sum_floor(self):
        # a fused-ring junction carbon carries three aromatic bonds: floor(4.5) = 4
        g = parse_smiles("c1ccc2ccccc2c1")
        assert g.n == 10

    def test_debug_json_shape(self):
        doc = to_debug_json(parse_smiles("CCO"))
        assert [a["element"] for a in doc["atoms"]] == ["C", "C", "O"]
        assert doc["bonds"][0]["order"] == SINGLE
