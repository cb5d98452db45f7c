import math

import pytest

from molrationale.chemgraph import (
    apply_deletion,
    canonical_key,
    contains_subgraph,
    is_connected,
    parse_smiles,
    peripheral_deletions,
)
from molrationale.extract import (
    EdgeStats,
    RationaleVocab,
    SearchError,
    SearchNode,
    backup,
    build_vocab,
    extract_rationales,
    select_action_index,
)
from molrationale.forest import PropertySpec, train_forest
from molrationale.synthetic import CorpusSpec, generate_corpus


class ScoreSpec:
    """Duck-typed property: an arbitrary scoring function with a threshold."""

    def __init__(self, fn, name="toy", threshold=0.5):
        self._fn = fn
        self.name = name
        self.threshold = threshold

    def score(self, g):
        return self._fn(g)


def make_node(graph, edge_stats):
    node = SearchNode(graph=graph, origin=tuple(range(graph.n)), key="k", score=0.5)
    node.deletions = list(range(len(edge_stats)))  # placeholder actions
    node.edges = edge_stats
    return node


MOTIF = "NC(=O)c1ccc(O)cc1"


def planted_setup(size=300, seed=17):
    spec = CorpusSpec(size=size, atoms_min=10, atoms_max=14, ring_prob=0.25)
    motif = parse_smiles(MOTIF)
    mols, labels = generate_corpus(spec, {"tox": motif}, {"tox": 0.25}, seed=seed)
    data = list(zip(mols, labels["tox"]))
    model = train_forest(data, n_trees=30, max_depth=12, seed=seed)
    prop = PropertySpec("tox", model, threshold=0.5)
    positives = [g for g, y in data if y == 1 and prop.score(g) >= 0.5]
    return motif, prop, positives


class TestSelectAction:
    def test_worked_example(self):
        g = parse_smiles("CCC")
        # direct evaluation of the selection formula
        a1 = EdgeStats(r=0.8, n=1, w=0.9)
        a2 = EdgeStats(r=0.9, n=0, w=0.0)
        total = a1.n + a2.n
        u1 = 10 * 0.8 * math.sqrt(total) / (1 + 1)
        u2 = 10 * 0.9 * math.sqrt(total) / (1 + 0)
        assert a1.q + u1 == pytest.approx(4.9)
        assert u2 == pytest.approx(9.0)
        node = make_node(g, [a1, a2])
        assert select_action_index(node, c_puct=10.0) == 1

    def test_all_zero_ties_break_by_r(self):
        g = parse_smiles("CCC")
        node = make_node(g, [EdgeStats(r=0.3), EdgeStats(r=0.7), EdgeStats(r=0.5)])
        assert select_action_index(node, c_puct=10.0) == 1

    def test_equal_r_ties_break_by_lowest_index(self):
        g = parse_smiles("CCC")
        node = make_node(g, [EdgeStats(r=0.5), EdgeStats(r=0.5)])
        assert select_action_index(node, c_puct=10.0) == 0

    def test_single_child(self):
        g = parse_smiles("CCC")
        node = make_node(g, [EdgeStats(r=0.2)])
        assert select_action_index(node, c_puct=10.0) == 0

    def test_leaf_raises(self):
        node = make_node(parse_smiles("C"), [])
        with pytest.raises(SearchError):
            select_action_index(node, 10.0)


class TestBackup:
    def test_single_edge(self):
        node = make_node(parse_smiles("CC"), [EdgeStats(r=0.5)])
        backup([(node, 0)], 0.7)
        e = node.edges[0]
        assert (e.n, e.w, e.q) == (1, 0.7, 0.7)

    def test_zero_reward_still_counts_visit(self):
        node = make_node(parse_smiles("CC"), [EdgeStats(r=0.5)])
        backup([(node, 0)], 0.0)
        assert node.edges[0].n == 1 and node.edges[0].w == 0.0

    def test_running_mean(self):
        node = make_node(parse_smiles("CC"), [EdgeStats(r=0.5)])
        backup([(node, 0)], 0.6)
        backup([(node, 0)], 0.8)
        e = node.edges[0]
        assert (e.n, e.w) == (2, pytest.approx(1.4))
        assert e.q == pytest.approx(0.7)


class TestExtractRationales:
    def test_root_qualifies_when_small_and_positive(self):
        g = parse_smiles("CC(=O)N")
        prop = ScoreSpec(lambda _: 0.9)
        out = extract_rationales(g, prop, iterations=5)
        keys = {r.key for r in out}
        assert canonical_key(g) in keys

    def test_everything_below_threshold_gives_empty(self):
        g = parse_smiles("CCCCC")
        prop = ScoreSpec(lambda _: 0.1)
        assert extract_rationales(g, prop, iterations=10) == []

    def test_planted_motif_recovered_as_subgraph(self):
        motif, prop, positives = planted_setup()
        hits = 0
        for g in positives[:15]:
            rationales = extract_rationales(g, prop, iterations=20, c_puct=10.0, max_atoms=20)
            assert rationales, "positive molecule produced no rationale"
            if any(contains_subgraph(r.fragments[0], motif) is not None for r in rationales):
                hits += 1
        assert hits >= 12

    def test_returned_rationales_are_valid_subgraphs(self):
        motif, prop, positives = planted_setup(size=150, seed=29)
        for g in positives[:10]:
            for r in extract_rationales(g, prop, iterations=20, max_atoms=20):
                frag = r.fragments[0]
                assert frag.n <= 20
                assert is_connected(frag)
                assert r.scores[prop.name] >= prop.threshold
                assert contains_subgraph(g, frag) is not None
                # origin indices recover the fragment in place
                _key, origin = r.sources[0]
                assert len(origin) == frag.n
                for i in range(frag.n):
                    assert g.atoms[origin[i]] == frag.atoms[i]

    def test_peripheral_annotation_rule(self):
        motif, prop, positives = planted_setup(size=150, seed=31)
        g = positives[0]
        for r in extract_rationales(g, prop, iterations=20):
            frag = r.fragments[0]
            _key, origin = r.sources[0]
            expected = tuple(
                i
                for i in range(frag.n)
                if frag.degree(i) < g.degree(origin[i]) or frag.degree(i) == 1
            )
            assert r.peripheral == expected

    def test_determinism(self):
        motif, prop, positives = planted_setup(size=150, seed=37)
        a = extract_rationales(positives[0], prop, iterations=20)
        b = extract_rationales(positives[0], prop, iterations=20)
        assert [r.key for r in a] == [r.key for r in b]

    def test_stats_flow_conservation(self):
        prop = ScoreSpec(lambda g: 0.4 + 0.05 * g.n)
        g = parse_smiles("CCC(C)CC(=O)NCC")
        holder = []
        iterations = 40
        extract_rationales(g, prop, iterations=iterations, _search_out=holder)
        search = holder[0]
        nodes = search.nodes
        inflow = {key: 0 for key in nodes}
        for node in nodes.values():
            for child_key, e in zip(node.child_keys, node.edges):
                inflow[child_key] += e.n
        root_key = search.root.key
        ended = 0
        for key, node in nodes.items():
            outflow = sum(e.n for e in node.edges)
            arrived = iterations if key == root_key else inflow[key]
            assert outflow <= arrived
            ended += arrived - outflow
        assert ended == iterations

    def test_tiny_molecule_optimality_vs_enumeration(self):
        motif = parse_smiles("NC=O")
        spec = CorpusSpec(size=250, atoms_min=6, atoms_max=9, ring_prob=0.3)
        mols, labels = generate_corpus(spec, {"p": motif}, {"p": 0.3}, seed=41)
        data = list(zip(mols, labels["p"]))
        model = train_forest(data, n_trees=20, max_depth=10, seed=9)
        prop = PropertySpec("p", model)
        positives = [g for g, y in data if y == 1 and prop.score(g) >= 0.5]
        checked = 0
        for g in positives:
            if g.n > 10:
                continue
            # exhaustive enumeration over all deletion sequences
            best_enum = prop.score(g)
            seen = {canonical_key(g)}
            stack = [g]
            while stack:
                cur = stack.pop()
                for d in peripheral_deletions(cur):
                    child = apply_deletion(cur, d)
                    key = canonical_key(child)
                    if key not in seen:
                        seen.add(key)
                        best_enum = max(best_enum, prop.score(child))
                        stack.append(child)
            if len(seen) > 180:
                continue
            out = extract_rationales(g, prop, iterations=200, c_puct=10.0, max_atoms=20)
            best_mcts = max(r.scores["p"] for r in out)
            assert best_mcts >= best_enum - 1e-9
            checked += 1
        assert checked >= 5


class TestBuildVocab:
    def test_isomorphic_inputs_dedupe(self):
        prop = ScoreSpec(lambda _: 0.9)
        a = parse_smiles("CCO")
        b = parse_smiles("OCC")
        vocab = build_vocab([a, b], prop, iterations=10)
        keys = [r.key for r in vocab]
        assert len(keys) == len(set(keys))
        # both sources are recorded on the shared entries
        full = [r for r in vocab if r.key == canonical_key(a)]
        assert full and len(full[0].sources) >= 1

    def test_every_member_scores_above_threshold(self):
        motif, prop, positives = planted_setup(size=200, seed=43)
        vocab = build_vocab(positives[:30], prop, iterations=20)
        assert len(vocab) >= 1
        for r in vocab:
            assert prop.score(r.combined) >= prop.threshold

    def test_empty_input_raises(self):
        prop = ScoreSpec(lambda _: 0.9)
        with pytest.raises(SearchError):
            build_vocab([], prop)

    def test_non_positive_inputs_skipped(self, caplog):
        import logging

        prop = ScoreSpec(lambda g: 1.0 if g.n <= 3 else 0.0)
        small = parse_smiles("CCO")
        big = parse_smiles("CCCCCCC")
        with caplog.at_level(logging.WARNING):
            vocab = build_vocab([small, big], prop, iterations=5)
        assert "skipped 1" in caplog.text
        assert all(r.source == canonical_key(small) for r in vocab)


class TestVocabSerialization:
    def test_json_roundtrip_preserves_keys_and_peripheral(self):
        motif, prop, positives = planted_setup(size=150, seed=47)
        vocab = build_vocab(positives[:10], prop, iterations=20)
        text = vocab.to_json()
        back = RationaleVocab.from_json(text)
        assert {r.key for r in back} == {r.key for r in vocab}
        assert text == back.to_json()
        # peripheral markers survive the round trip as structural facts
        for r in back:
            frag = r.fragments[0]
            assert all(0 <= p < frag.n for p in r.peripheral)

    def test_multi_fragment_entries(self):
        r = RationaleVocab(("a",))
        from molrationale.extract import Rationale

        frag1, frag2 = parse_smiles("CCO"), parse_smiles("CN")
        r.add(Rationale(fragments=(frag1, frag2), scores={"a": 0.8}, peripheral=(0, 3)))
        back = RationaleVocab.from_json(r.to_json())
        assert len(back.entries[0].fragments) == 2
        assert back.entries[0].combined.n == 5
