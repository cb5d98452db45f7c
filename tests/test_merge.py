import itertools
import json

import pytest

from molrationale.chemgraph import (
    MolGraph,
    ResourceLimitError,
    connected_components,
    contains_subgraph,
    disjoint_union,
    is_connected,
    parse_smiles,
)
from molrationale.cli import cmd_extract, cmd_gen_synthetic, cmd_train_predictor, load_config
from molrationale.extract import Rationale, RationaleVocab
from molrationale.forest import PropertySpec, train_forest
from molrationale.merge import (
    _shortlist,
    build_multi_vocab,
    max_common_substructure,
    merge_pair,
)
from molrationale.synthetic import CorpusSpec, generate_corpus

from helpers import StubProperty, oracle_max_common_connected_size, oracle_mcs_mappings

AMIDE, PHENOL = "NC(=O)c1ccccc1", "Oc1ccccc1"


def rat(smiles: str, peripheral=(), scores=None) -> Rationale:
    g = parse_smiles(smiles)
    return Rationale(
        g,
        scores=scores or {},
        peripheral=tuple(peripheral),
        sources=(),
    )


class TestMCS:
    def test_self_mcs_covers_graph(self):
        g = parse_smiles("CC(=O)N")
        mappings = max_common_substructure(g, g)
        assert mappings
        assert max(len(m) for m in mappings) == g.n

    def test_cc_vs_c(self):
        mappings = max_common_substructure(parse_smiles("CC"), parse_smiles("C"))
        assert mappings and all(len(m) == 1 for m in mappings)

    def test_ring_vs_chain_path(self):
        # oracle: largest connected common subgraph of cyclopropane and propane
        a, b = parse_smiles("C1CC1"), parse_smiles("CCC")
        assert oracle_max_common_connected_size(a, b) == 3
        mappings = max_common_substructure(a, b)
        assert mappings and max(len(m) for m in mappings) == 3

    def test_no_common_atom(self):
        assert max_common_substructure(parse_smiles("C"), parse_smiles("O")) == []

    def test_bond_orders_respected(self):
        # single-bonded pair cannot map onto a double bond
        mappings = max_common_substructure(parse_smiles("CC"), parse_smiles("C=C"))
        assert max(len(m) for m in mappings) == 1

    def test_oracle_equality_small_graphs(self):
        pool = [
            "CCO", "CCN", "C1CC1", "CCC", "C=CC", "CC(=O)N", "c1ccccc1"[:8],
            "CC(C)C", "OCC", "C1CCC1", "N#CC",
        ]
        graphs = [parse_smiles(s) for s in pool]
        for a, b in itertools.product(graphs, repeat=2):
            assert max_common_substructure(a, b) == oracle_mcs_mappings(a, b), (a, b)
        for a, b in itertools.combinations(graphs, 2):
            if a.n > 8 or b.n > 8:
                continue
            mappings = max_common_substructure(a, b)
            got = max((len(m) for m in mappings), default=0)
            assert got == oracle_max_common_connected_size(a, b), (a, b)

    def test_resource_limit(self):
        big = parse_smiles("C" * 25)
        with pytest.raises(ResourceLimitError):
            max_common_substructure(big, parse_smiles("CC"))

    def test_oracle_mappings_rings(self):
        # many automorphic maps: benzene onto itself has 12, and ring pairs
        # share paths and rings in many placements
        pool = [
            "c1ccccc1", "C1CCCCC1", "c1ccc2ccccc2c1", "C1CCC2CCCCC2C1",
            "c1ccc(-c2ccccc2)cc1", "C1CC12CC2", "c1ccncc1", "C1=CC=CC1",
            AMIDE, PHENOL, "Oc1ccc(O)cc1",
            # a ring closed by a bond of another order: the paths match, the
            # closures conflict
            "C1CCCC1", "C1=CCCC1", "C1=CC=CC=C1", "C1CC1", "C1=CC1",
        ]
        for a, b in itertools.product([parse_smiles(s) for s in pool], repeat=2):
            assert max_common_substructure(a, b) == oracle_mcs_mappings(a, b), (a, b)
        benzene = parse_smiles("c1ccccc1")
        assert len(max_common_substructure(benzene, benzene)) == 12

    def test_oracle_mappings_random_desk_pairs(self):
        spec = CorpusSpec(size=400, atoms_min=9, atoms_max=14, ring_prob=0.25,
                          decoy_prob=0.25, unique=False)
        motifs = {"amide": parse_smiles(AMIDE), "phenol": parse_smiles(PHENOL)}
        mols, _ = generate_corpus(spec, motifs, {"amide": 0.4, "phenol": 0.4}, seed=23)
        for a, b in zip(mols[0::2], mols[1::2]):
            assert max_common_substructure(a, b) == oracle_mcs_mappings(a, b), (a, b)

    def test_oracle_mappings_desk_shortlists(self, tmp_path):
        # the README minimal config: the 8 x 8 shortlist pairs that merge
        # superposes on one desk corpus
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "run_dir": str(tmp_path / "run"),
            "seed": 11,
            "properties": [
                {"name": "amide", "motif": AMIDE, "plant_prob": 0.2},
                {"name": "phenol", "motif": PHENOL, "plant_prob": 0.2},
            ],
        }))
        cfg = load_config(cfg_file)
        for stage in (cmd_gen_synthetic, cmd_train_predictor, cmd_extract):
            stage(cfg, False)
        shortlists = [
            _shortlist(RationaleVocab.load(cfg.run_dir / f"vocab_{name}.json"), name, 8)
            for name in ("amide", "phenol")
        ]
        assert [len(s) for s in shortlists] == [8, 8]
        for ra, rb in itertools.product(*shortlists):
            a, b = ra.combined, rb.combined
            assert max_common_substructure(a, b) == oracle_mcs_mappings(a, b), (a, b)

    def test_mapping_labels_agree(self):
        a, b = parse_smiles("CCO"), parse_smiles("OCC")
        for m in max_common_substructure(a, b):
            for ai, bi in m:
                assert a.atoms[ai].element == b.atoms[bi].element


class TestMergePair:
    def test_self_merge_contains_self(self):
        x = rat("CC(=O)N", peripheral=(0,))
        out = merge_pair(x, x)
        keys = {r.key for r in out}
        assert x.key in keys

    def test_disjoint_types_give_two_fragment(self):
        a, b = rat("CC", peripheral=(0,)), rat("O", peripheral=(0,))
        out = merge_pair(a, b)
        assert len(out) == 1
        assert len(connected_components(out[0].combined)) == 2
        assert out[0].combined.n == 3
        # peripheral union carried through with the offset
        assert out[0].peripheral == (0, 2)

    def test_valence_conflicts_dropped(self):
        # oracle: every raw union must pass the valence validator; unions that
        # fail are absent from the result
        a = rat("C(F)(F)F")  # CF3: carbon has 3 fluorines
        b = rat("C(F)(F)(F)F")  # CF4: saturated carbon
        out = merge_pair(a, b)
        for r in out:
            MolGraph(r.combined.atoms, r.combined.bonds)  # revalidates
        # superpositions identifying only one F leave a carbon with 7 bonds:
        # the only valid unions overlay the carbon too
        for r in out:
            assert is_connected(r.combined)
            carbons = [i for i, at in enumerate(r.combined.atoms) if at.element == "C"]
            assert len(carbons) == 1

    def test_symmetry_up_to_isomorphism(self):
        cases = [
            (rat("CCO", (0,)), rat("CCN", (0,))),
            (rat("C1CC1", (0,)), rat("CCC", (1,))),
            (rat("CC(=O)N", (0,)), rat("CC=O", (0,))),
        ]
        for a, b in cases:
            ab = {r.key for r in merge_pair(a, b)}
            ba = {r.key for r in merge_pair(b, a)}
            assert ab == ba

    def test_no_invented_atoms(self):
        a, b = rat("CCO", (0,)), rat("OCC", (2,))
        for r in merge_pair(a, b):
            # every output atom label occurs in the inputs
            for atom in r.combined.atoms:
                assert atom.element in {"C", "O"}
            assert r.combined.n <= a.combined.n + b.combined.n

    def test_disconnected_nxt_rejected(self):
        two = Rationale(disjoint_union([parse_smiles("C"), parse_smiles("O")]), {}, ())
        with pytest.raises(ValueError):
            merge_pair(rat("C"), two)


class TestMergeInto:
    """merge_pair with a multi-component accumulator."""

    @pytest.mark.parametrize(
        "fragments, nxt, sizes",
        [
            # CCO shares an MCS with CC and none with benzene: it is superposed
            # on CC and never appended
            (("CC", "c1ccccc1"), "CCO", [2]),
            # O shares an MCS with neither component: it is appended once
            (("N", "c1ccccc1"), "O", [3]),
            # CN shares an MCS with both components: it is superposed on each
            (("CC", "CO"), "CN", [2, 2]),
        ],
        ids=["overlap", "disjoint", "overlap-both"],
    )
    def test_fragment_order_does_not_change_the_keys(self, fragments, nxt, sizes):
        keys = []
        for order in (fragments, fragments[::-1]):
            acc = Rationale(disjoint_union([parse_smiles(s) for s in order]), {}, ())
            out = merge_pair(acc, rat(nxt, (0,)))
            assert sorted(len(connected_components(r.combined)) for r in out) == sizes
            keys.append({r.key for r in out})
        assert keys[0] == keys[1]


def two_property_setup(seed=19, size=400):
    # the motifs share a benzene core, so superpositions can succeed
    motif_a = parse_smiles("NC(=O)c1ccccc1")
    motif_b = parse_smiles("Oc1ccccc1")
    spec = CorpusSpec(
        size=size, atoms_min=10, atoms_max=15, ring_prob=0.25, decoy_prob=0.25, unique=True
    )
    mols, labels = generate_corpus(
        spec, {"a": motif_a, "b": motif_b}, {"a": 0.18, "b": 0.18}, seed=seed
    )
    data = list(zip(mols, labels["a"], labels["b"]))
    prop_a = PropertySpec(
        "a", train_forest([(g, ya) for g, ya, _ in data], n_trees=30, max_depth=12, seed=1),
        threshold=0.5,
    )
    prop_b = PropertySpec(
        "b", train_forest([(g, yb) for g, _, yb in data], n_trees=30, max_depth=12, seed=2),
        threshold=0.5,
    )
    return motif_a, motif_b, prop_a, prop_b


class TestBuildMultiVocab:
    def test_same_motif_both_properties(self):
        # both vocabularies carry the same fragment: the merged vocabulary
        # keeps it and every member clears both thresholds
        motif_a, _, prop_a, prop_b = two_property_setup()
        va = RationaleVocab(("a",))
        vb = RationaleVocab(("b",))
        frag = "NC(=O)c1ccc(O)cc1"
        va.add(rat(frag, (0,), {"a": 0.9}))
        vb.add(rat(frag, (0,), {"b": 0.9}))
        # both predictors key on the same planted motif only when the corpus
        # labels agree; here we just require the merge machinery output to be
        # rescored and filtered by the real predictors
        out = build_multi_vocab([va, vb], [prop_a, prop_b], shortlist_size=4)
        for r in out:
            assert prop_a.score(r.combined) >= prop_a.threshold
            assert prop_b.score(r.combined) >= prop_b.threshold

    def test_merged_vocab_from_planted_corpus(self):
        from molrationale.extract import build_vocab

        motif_a, motif_b, prop_a, prop_b = two_property_setup()
        mols_a = [g for g in _positives_for(prop_a, motif_a, seed=61)][:20]
        mols_b = [g for g in _positives_for(prop_b, motif_b, seed=62)][:20]
        va = build_vocab(mols_a, prop_a, iterations=20, c_puct=10.0, max_atoms=20)
        vb = build_vocab(mols_b, prop_b, iterations=20, c_puct=10.0, max_atoms=20)
        out = build_multi_vocab([va, vb], [prop_a, prop_b], shortlist_size=6)
        assert len(out) >= 1
        for r in out:
            assert prop_a.score(r.combined) >= 0.5
            assert prop_b.score(r.combined) >= 0.5

    def test_requires_two_vocabs(self):
        va = RationaleVocab(("a",))
        with pytest.raises(ValueError):
            build_multi_vocab([va], [], shortlist_size=2)

    def test_conflicting_motifs_leave_two_fragment_or_nothing(self):
        # properties keyed to fragments with no shared atom type: the only
        # candidates are disjoint two-fragment rationales, kept when the
        # scorers accept them
        class ContainsSpec(StubProperty):
            def __init__(self, name, motif):
                self.name = name
                self.threshold = 0.5
                self._motif = parse_smiles(motif)

            def score(self, g):
                return 1.0 if contains_subgraph(g, self._motif) else 0.0

        va = RationaleVocab(("a",))
        vb = RationaleVocab(("b",))
        va.add(rat("N#N", (0,), {"a": 1.0}))
        vb.add(rat("OCO", (0,), {"b": 1.0}))
        out = build_multi_vocab(
            [va, vb], [ContainsSpec("a", "N#N"), ContainsSpec("b", "OCO")],
            shortlist_size=2,
        )
        assert len(out) == 1
        assert all(len(connected_components(r.combined)) == 2 for r in out)

    def test_outputs_trace_to_inputs(self):
        _, _, prop_a, prop_b = two_property_setup()
        va = RationaleVocab(("a",))
        vb = RationaleVocab(("b",))
        va.add(rat("CCO", (0,), {"a": 0.9}))
        vb.add(rat("CCN", (0,), {"b": 0.9}))
        out = build_multi_vocab([va, vb], [prop_a, prop_b], shortlist_size=2)
        for r in out:
            for atom in r.combined.atoms:
                assert atom.element in {"C", "O", "N"}


def _positives_for(prop, motif, seed):
    from molrationale.synthetic import random_molecule
    import random as _random

    rng = _random.Random(seed)
    out = []
    while len(out) < 20:
        g = random_molecule(rng, rng.randint(10, 14), 0.25, motif=motif)
        if prop.score(g) >= prop.threshold:
            out.append(g)
    return out
