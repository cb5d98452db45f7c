import math

import numpy as np
import pytest

from molrationale import numsub as ns
from molrationale.chemgraph import (
    MolGraph,
    canonical_key,
    contains_subgraph,
    is_connected,
    parse_smiles,
)
from molrationale.extract import Rationale
from molrationale.genmodel import (
    BOND_TYPES,
    NO_BOND_IDX,
    AtomType,
    DecoderState,
    GenModel,
    GenModelError,
    LikelihoodError,
    TruncationError,
    atom_types_from_corpus,
    complete,
    complete_with_trace,
    encode,
    log_likelihood,
    mpn_embed,
    prior_latent,
    sample_latent,
    step_logits,
    trace_log_likelihood,
)

from helpers import oracle_embeddings


def rat(smiles, peripheral):
    return Rationale(
        fragments=(parse_smiles(smiles),), scores={}, peripheral=tuple(peripheral)
    )


def small_model(seed=0, hidden=12, latent=6, expand_bias=-1.5):
    corpus = [parse_smiles(s) for s in ["CCO", "CCN", "c1ccccc1", "CC(=O)N", "CF"]]
    model = GenModel(atom_types_from_corpus(corpus), hidden=hidden, latent=latent, rounds=2, seed=seed)
    # untrained expand heads wander; a negative bias keeps sampling finite
    model.params["expand_b2"].data = np.array([expand_bias])
    return model


def tiny_model(seed=5, hidden=6, latent=3):
    """Placeable atom types all have valence 1, so every completion of a
    single-atom seed terminates and the decision tree is fully enumerable."""
    corpus = [parse_smiles("FCl")]
    types = atom_types_from_corpus(corpus)
    return GenModel(types, hidden=hidden, latent=latent, rounds=1, seed=seed)


def enumerate_completions(model, rationale, z, prune=0.0):
    """Exhaustive decision-tree enumeration oracle built on the public
    step_logits surface; returns a list of (graph, trace, probability)."""
    results = []
    init = DecoderState.from_rationale(model, rationale)

    def walk(state, prob, trace):
        if prune and prob < prune:
            return
        if not state.queue:
            results.append((state.to_molgraph(), tuple(trace), prob))
            return
        v_t = state.queue[0]
        if not state.can_accept_any_bond(v_t):
            nxt = state.copy()
            nxt.queue.popleft()
            walk(nxt, prob, trace)
            return
        sl = step_logits(model, state, z)
        p_yes = sl.expand_prob
        nxt = state.copy()
        nxt.queue.popleft()
        walk(nxt, prob * (1.0 - p_yes), trace + (0,))
        queue_members = list(state.queue)
        for t_idx in range(len(model.atom_types)):
            tp = sl.atom_probs[t_idx]

            def bonds(prior, bond_prob):
                k = len(prior)
                if k == len(queue_members):
                    deeper = state.copy()
                    u = deeper._append_atom(model.atom_types[t_idx].to_atom())
                    for j, b in enumerate(prior):
                        if b != NO_BOND_IDX:
                            deeper._append_bond(u, queue_members[j], b)
                    deeper.queue.append(u)
                    walk(
                        deeper,
                        prob * p_yes * tp * bond_prob,
                        trace + (1, t_idx) + prior,
                    )
                    return
                probs, mask = sl.bond_probs(t_idx, list(prior))
                for b_idx in range(len(BOND_TYPES)):
                    if mask[b_idx] != 0.0:
                        continue
                    bonds(prior + (b_idx,), bond_prob * probs[b_idx])

            bonds(tuple(), 1.0)

    walk(init, 1.0, tuple())
    return results


class TestMPN:
    def test_single_atom_depends_only_on_embedding(self):
        model = small_model()
        g = parse_smiles("O")
        h = mpn_embed(model, g)
        t = model.type_of_atom(g.atoms[0])
        expected = np.maximum(
            model.params["emb_atom"].data[t] @ model.params["enc_u1"].data, 0.0
        )
        assert np.allclose(h[0], expected)

    def test_permutation_equivariance(self):
        model = small_model()
        g = parse_smiles("CC(=O)N")
        # reversed atom order of the same molecule
        perm = list(range(g.n))[::-1]
        inv = {old: new for new, old in enumerate(perm)}
        from molrationale.chemgraph import Atom, Bond

        permuted = MolGraph(
            [g.atoms[p] for p in perm],
            [Bond(inv[b.u], inv[b.v], b.order) for b in g.bonds],
        )
        h = mpn_embed(model, g)
        hp = mpn_embed(model, permuted)
        for old in range(g.n):
            assert np.allclose(h[old], hp[inv[old]], atol=1e-12)

    def test_fragment_independence(self):
        from molrationale.chemgraph import disjoint_union

        model = small_model()
        a = parse_smiles("CCO")
        h_with_b = mpn_embed(model, disjoint_union([a, parse_smiles("CCN")]))
        h_with_c = mpn_embed(model, disjoint_union([a, parse_smiles("c1ccccc1")]))
        assert np.allclose(h_with_b[: a.n], h_with_c[: a.n], atol=1e-12)

    def test_unknown_atom_type_embeds(self):
        model = small_model()
        g = parse_smiles("CP")  # P is not in the small corpus
        assert model.type_of_atom(g.atoms[1]) == model.unknown_index
        h = mpn_embed(model, g)
        assert h.shape == (2, model.hidden)


class TestEncode:
    def test_purity_and_shapes(self):
        model = small_model()
        g = parse_smiles("CCO")
        lp1 = encode(model, g)
        lp2 = encode(model, g)
        assert lp1.mu.shape == (model.latent,)
        assert lp1.log_std.shape == (model.latent,)
        assert np.array_equal(lp1.mu.data, lp2.mu.data)
        assert np.array_equal(lp1.log_std.data, lp2.log_std.data)

    def test_permutation_invariance(self):
        from molrationale.chemgraph import Bond

        model = small_model()
        g = parse_smiles("CC(=O)NCC")
        perm = [3, 1, 4, 0, 2, 5]
        inv = {old: new for new, old in enumerate(perm)}
        permuted = MolGraph(
            [g.atoms[p] for p in perm],
            [Bond(inv[b.u], inv[b.v], b.order) for b in g.bonds],
        )
        a, b = encode(model, g), encode(model, permuted)
        assert np.allclose(a.mu.data, b.mu.data, atol=1e-9)
        assert np.allclose(a.log_std.data, b.log_std.data, atol=1e-9)


class TestSampleLatent:
    def test_zero_params_give_eps(self):
        lp_mu = ns.const(np.zeros(4))
        lp_ls = ns.const(np.zeros(4))
        from molrationale.genmodel import LatentParams

        rng = np.random.default_rng(1)
        eps_expected = np.random.default_rng(1).standard_normal(4)
        z = sample_latent(LatentParams(lp_mu, lp_ls), rng)
        assert np.allclose(z.data, eps_expected)

    def test_tiny_std_collapses_to_mu(self):
        from molrationale.genmodel import LatentParams

        mu = np.array([1.0, -2.0, 0.5])
        lp = LatentParams(ns.const(mu), ns.const(np.full(3, -40.0)))
        z = sample_latent(lp, np.random.default_rng(2))
        assert np.allclose(z.data, mu, atol=1e-12)

    def test_seed_determinism(self):
        model = small_model()
        lp = encode(model, parse_smiles("CCO"))
        z1 = sample_latent(lp, np.random.default_rng(9))
        z2 = sample_latent(lp, np.random.default_rng(9))
        assert np.array_equal(z1.data, z2.data)


class TestStepLogits:
    def test_zero_weights_give_uniform(self):
        model = small_model()
        for t in model.params.values():
            t.data = np.zeros_like(t.data)
        state = DecoderState.from_rationale(model, rat("CC", (0, 1)))
        sl = step_logits(model, state, np.zeros(model.latent))
        assert sl.expand_prob == pytest.approx(0.5)
        n = len(model.atom_types)
        assert np.allclose(sl.atom_probs, np.full(n, 1.0 / n))

    def test_empty_queue_raises(self):
        model = small_model()
        state = DecoderState.from_rationale(model, rat("CC", ()))
        with pytest.raises(GenModelError):
            step_logits(model, state, np.zeros(model.latent))

    def test_first_bond_excludes_no_bond(self):
        model = small_model()
        state = DecoderState.from_rationale(model, rat("CC", (0, 1)))
        sl = step_logits(model, state, np.zeros(model.latent))
        probs, mask = sl.bond_probs(0, [])
        assert mask[NO_BOND_IDX] != 0.0
        assert probs[NO_BOND_IDX] == pytest.approx(0.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_valence_infeasible_orders_masked(self):
        model = small_model()
        # oxygen head with one bond used: a double bond would overflow it
        state = DecoderState.from_rationale(model, rat("OC", (0,)))
        sl = step_logits(model, state, np.zeros(model.latent))
        c_idx = model.type_index[AtomType("C", 0, False)]
        probs, mask = sl.bond_probs(c_idx, [])
        double = BOND_TYPES.index("double")
        triple = BOND_TYPES.index("triple")
        assert mask[double] != 0.0 and probs[double] == pytest.approx(0.0, abs=1e-12)
        assert mask[triple] != 0.0 and probs[triple] == pytest.approx(0.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_saturated_bond_query_raises(self):
        model = small_model()
        state = DecoderState.from_rationale(model, rat("FC", (0,)))
        sl = step_logits(model, state, np.zeros(model.latent))
        c_idx = model.type_index[AtomType("C", 0, False)]
        with pytest.raises(GenModelError):
            sl.bond_probs(c_idx, [])

    def test_distributions_proper_after_masking(self):
        model = small_model(seed=3)
        state = DecoderState.from_rationale(model, rat("CC(=O)N", (0, 3)))
        sl = step_logits(model, state, prior_latent(model, np.random.default_rng(0)))
        assert sl.atom_probs.sum() == pytest.approx(1.0, abs=1e-9)
        for t_idx in range(len(model.atom_types)):
            probs, _ = sl.bond_probs(t_idx, [])
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestComplete:
    def test_empty_peripheral_returns_rationale(self):
        model = small_model()
        r = rat("CC(=O)N", ())
        out = complete(model, r, np.zeros(model.latent), np.random.default_rng(0))
        assert canonical_key(out) == canonical_key(r.fragments[0])

    def test_every_sample_contains_fragments(self):
        model = small_model(seed=11)
        single = rat("CCO", (0, 2))
        double = Rationale(
            fragments=(parse_smiles("CCO"), parse_smiles("CN")),
            scores={},
            peripheral=(0, 3),
        )
        rng = np.random.default_rng(4)
        for r in (single, double):
            completed = 0
            for _ in range(100):
                z = prior_latent(model, rng)
                try:
                    out = complete(model, r, z, rng, max_steps=12)
                except TruncationError:
                    continue
                completed += 1
                for frag in r.fragments:
                    assert contains_subgraph(out, frag) is not None
            assert completed >= 80

    def test_single_fragment_outputs_connected_and_valid(self):
        model = small_model(seed=13)
        r = rat("CCN", (0, 2))
        rng = np.random.default_rng(8)
        completed = 0
        for _ in range(500):
            try:
                out = complete(model, r, prior_latent(model, rng), rng, max_steps=10)
            except TruncationError:
                continue
            MolGraph(out.atoms, out.bonds)  # revalidates valence
            assert is_connected(out)
            completed += 1
        assert completed >= 400

    def test_truncation_carries_partial(self):
        model = small_model(seed=2)
        # force expand-yes by biasing the head strongly positive
        model.params["expand_b2"].data = np.array([50.0])
        r = rat("CC", (0, 1))
        with pytest.raises(TruncationError) as err:
            complete(model, r, np.zeros(model.latent), np.random.default_rng(0), max_steps=3)
        assert err.value.partial.n >= 3

    def test_greedy_is_deterministic(self):
        model = small_model(seed=17)
        r = rat("CCO", (0,))
        z = np.full(model.latent, 0.3)
        a = complete(model, r, z, np.random.default_rng(1), greedy=True)
        b = complete(model, r, z, np.random.default_rng(2), greedy=True)
        assert canonical_key(a) == canonical_key(b)


class TestLogLikelihood:
    def test_always_nonpositive(self):
        model = small_model(seed=19)
        rng = np.random.default_rng(3)
        r = rat("CC", (0, 1))
        for _ in range(20):
            g, trace = complete_with_trace(model, r, prior_latent(model, rng), rng, max_steps=8)
            ll = trace_log_likelihood(model, r, trace, np.zeros(model.latent))
            assert float(ll.data) <= 1e-12

    def test_g_equals_s_boundary(self):
        model = small_model(seed=23)
        g = parse_smiles("CC(=O)N")
        r = Rationale(fragments=(g,), scores={}, peripheral=(0, 2, 3))
        z = np.full(model.latent, 0.1)
        # oracle: walk the queue manually, summing decline log-probs
        state = DecoderState.from_rationale(model, r)
        expected = 0.0
        while state.queue:
            v = state.queue[0]
            if not state.can_accept_any_bond(v):
                state.queue.popleft()
                continue
            sl = step_logits(model, state, z)
            expected += math.log(1.0 - sl.expand_prob)
            state.queue.popleft()
        got = log_likelihood(model, g, r, z, mapping={i: i for i in range(g.n)})
        assert got == pytest.approx(expected, abs=1e-9)

    def test_containment_failure_raises(self):
        model = small_model()
        with pytest.raises(LikelihoodError):
            log_likelihood(
                model, parse_smiles("CCC"), rat("O", (0,)), np.zeros(model.latent)
            )

    def test_rationale_above_twelve_atoms_found_without_mapping(self):
        model = small_model()
        g = parse_smiles("C1CCCCCCCCCCCC1CCCCCCCCCCCCC")
        r = rat("C" * 13, range(13))
        z = np.zeros(model.latent)
        got = log_likelihood(model, g, r, z)
        assert math.isfinite(got) and got < 0.0
        # the search picks one of the induced embeddings
        assert any(
            abs(got - log_likelihood(model, g, r, z, mapping=m)) < 1e-9
            for m in oracle_embeddings(g, r.combined, induced=True)
        )

    def test_trace_replay_matches_sampling_probability(self):
        model = small_model(seed=29)
        r = rat("CN", (0, 1))
        rng = np.random.default_rng(7)
        z = prior_latent(model, rng)
        g, trace = complete_with_trace(model, r, z, rng, max_steps=6)
        ll1 = float(trace_log_likelihood(model, r, trace, z).data)
        ll2 = float(trace_log_likelihood(model, r, trace, z).data)
        assert ll1 == ll2
        assert ll1 <= 0.0


class TestEnumerationConsistency:
    def test_total_probability_is_one(self):
        model = tiny_model()
        r = rat("O", (0,))
        z = np.full(model.latent, 0.25)
        results = enumerate_completions(model, r, z)
        total = sum(p for _, _, p in results)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_likelihood_matches_enumerated_canonical_trajectory(self):
        model = tiny_model()
        r = rat("O", (0,))
        z = np.full(model.latent, -0.4)
        results = enumerate_completions(model, r, z)
        by_graph: dict[str, list] = {}
        for g, trace, p in results:
            by_graph.setdefault(canonical_key(g), []).append((trace, p))
        mapping0 = {0: 0}
        for key, entries in by_graph.items():
            g = next(g for g, _, _ in results if canonical_key(g) == key)
            ll = math.exp(log_likelihood(model, g, r, z, mapping=mapping0))
            probs = [p for _, p in entries]
            # the teacher-forced order is one of the enumerated trajectories
            assert any(abs(ll - p) < 1e-9 for p in probs), (key, ll, probs)
            assert ll <= sum(probs) + 1e-9

    def test_sampler_frequencies_match_enumeration(self):
        model = tiny_model()
        r = rat("O", (0,))
        z = np.full(model.latent, 0.1)
        results = enumerate_completions(model, r, z)
        expected: dict[str, float] = {}
        for g, _, p in results:
            key = canonical_key(g)
            expected[key] = expected.get(key, 0.0) + p
        n = 20000
        rng = np.random.default_rng(123)
        counts: dict[str, int] = {}
        for _ in range(n):
            out = complete(model, r, z, rng, max_steps=10)
            key = canonical_key(out)
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) <= set(expected)
        for key, p in expected.items():
            if p < 1e-4:
                continue
            se = math.sqrt(p * (1 - p) / n)
            observed = counts.get(key, 0) / n
            assert abs(observed - p) <= 3 * se + 1e-9, (key, observed, p)


class TestCheckpoint:
    def test_save_load_identical_behavior(self, tmp_path):
        model = small_model(seed=31, expand_bias=-4.0)
        stem = str(tmp_path / "model")
        model.save(stem)
        back = GenModel.load(stem)
        assert back.atom_types == model.atom_types
        g = parse_smiles("CCO")
        a, b = encode(model, g), encode(back, g)
        assert np.array_equal(a.mu.data, b.mu.data)
        r = rat("CC", (0,))
        z = np.full(model.latent, 0.2)
        ga = complete(model, r, z, np.random.default_rng(5), greedy=True)
        gb = complete(back, r, z, np.random.default_rng(5), greedy=True)
        assert canonical_key(ga) == canonical_key(gb)
