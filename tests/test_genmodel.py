import math

import numpy as np
import pytest

from molrationale import numsub as ns
from molrationale.chemgraph import (
    MAX_VALENCE,
    Atom,
    Bond,
    MolGraph,
    ValenceError,
    canonical_key,
    canonical_ranks,
    contains_subgraph,
    disjoint_union,
    is_connected,
    parse_smiles,
)
from molrationale.extract import Rationale
from molrationale.genmodel import (
    BOND_TYPES,
    NO_BOND_IDX,
    DecoderState,
    GenModel,
    GenModelError,
    _mlp,
    _mpn,
    TruncationError,
    atom_types_from_corpus,
    complete_with_trace,
    encode,
    log_likelihood_tensor,
    prepare_start,
    prior_latent,
    sample_latent,
    step_logits,
    trace_log_likelihood,
)
from molrationale import genmodel
from molrationale.synthetic import _Builder

from helpers import (
    bond_histories,
    floor_rule_valence,
    oracle_bond_mask,
    random_corpus,
    same_outcome,
)
from test_numsub import check_gradients


def rat(smiles, peripheral):
    return Rationale(
        parse_smiles(smiles), scores={}, peripheral=tuple(peripheral)
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
                    u = deeper._append_atom(model.atom_types[t_idx])
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
                mask = oracle_bond_mask(model, state, t_idx, prior)
                probs = sl.bond_probs(t_idx, list(prior), mask)
                for b_idx in range(len(BOND_TYPES)):
                    if mask[b_idx] != 0.0:
                        continue
                    bonds(prior + (b_idx,), bond_prob * probs[b_idx])

            bonds(tuple(), 1.0)

    walk(init, 1.0, tuple())
    return results


def dense_mpn(model, prefix, type_ids, edges):
    """Reference MPN with explicit dense message and incidence matrices, built
    edge pair by edge pair (forward only)."""
    p = {k: t.data for k, t in model.params.items()}
    relu = lambda a: np.maximum(a, 0.0)
    out = p["emb_atom"][type_ids] @ p[f"{prefix}_u1"]
    directed = [d for u, v, bt in edges for d in ((u, v, bt), (v, u, bt))]
    if directed:
        amat = np.zeros((len(directed), len(directed)))
        bmat = np.zeros((len(type_ids), len(directed)))
        for i, (u, v, _) in enumerate(directed):
            bmat[v, i] = 1.0
            for j, (w, x, _) in enumerate(directed):
                if x == u and w != v:
                    amat[i, j] = 1.0
        base = (
            p["emb_atom"][[type_ids[u] for u, _, _ in directed]] @ p[f"{prefix}_w1"]
            + p["emb_bond"][[bt for _, _, bt in directed]] @ p[f"{prefix}_w2"]
        )
        msg = relu(base)
        for _ in range(model.rounds - 1):
            msg = relu(base + amat @ msg @ p[f"{prefix}_w3"])
        out = out + bmat @ msg @ p[f"{prefix}_u2"]
    return relu(out)


def graph_inputs(model, g):
    return (
        [model.type_of_atom(a) for a in g.atoms],
        [(b.u, b.v, BOND_TYPES.index(b.order)) for b in g.bonds],
    )


def enc_vectors(model, g):
    """The encoder MPN's per-atom vectors of a molecule, forward only."""
    with ns.no_grad():
        return _mpn(model, "enc", *graph_inputs(model, g)).data


def stepwise_log_prob(model, rationale, z, decide):
    """Oracle: walk the decoder one step_logits call per step and sum the log
    of the probability of each decision that decide(kind, ...) takes; returns
    that sum and the most bond decisions one new atom took."""
    state = DecoderState.from_rationale(model, rationale)
    total = 0.0
    widest = 0
    while state.queue:
        v = state.queue[0]
        if not state.can_accept_any_bond(v):
            state.queue.popleft()
            continue
        sl = step_logits(model, state, z)
        logit = sl.expand_logit
        if not decide("expand", v):
            total -= np.logaddexp(0.0, logit)
            state.queue.popleft()
            continue
        total -= np.logaddexp(0.0, -logit)
        t = decide("atom", None)
        total += math.log(sl.atom_probs[t])
        members = list(state.queue)
        widest = max(widest, len(members))
        prior = []
        for q in members:
            probs = sl.bond_probs(t, prior, oracle_bond_mask(model, state, t, prior))
            b = decide("bond", q)
            total += math.log(probs[b])
            prior.append(b)
        u = state._append_atom(model.atom_types[t])
        for q, b in zip(members, prior):
            if b != NO_BOND_IDX:
                state._append_bond(u, q, b)
        state.queue.append(u)
    return total, widest


def teacher_decisions(model, g, mapping):
    """Breadth-first teacher decisions for g: a new atom is the unplaced
    neighbour of the queue head with the lowest canonical rank."""
    ranks = canonical_ranks(g)
    local = [mapping[i] for i in sorted(mapping)]
    placed = set(local)

    def decide(kind, v):
        if kind == "expand":
            rest = [w for w in g.neighbors(local[v]) if w not in placed]
            if not rest:
                return False
            local.append(min(rest, key=lambda w: ranks[w]))
            placed.add(local[-1])
            return True
        if kind == "atom":
            a = g.atoms[local[-1]]
            return model.type_index[a]
        bond = g.bond_between(local[-1], local[v])
        return NO_BOND_IDX if bond is None else BOND_TYPES.index(bond.order)

    return decide


def trace_decisions(trace):
    it = iter(trace)
    return lambda kind, v: next(it)


def tape_size(t):
    seen, stack = set(), [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestMPN:
    def test_single_atom_depends_only_on_embedding(self):
        model = small_model()
        g = parse_smiles("O")
        h = enc_vectors(model, g)
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
        h = enc_vectors(model, g)
        hp = enc_vectors(model, permuted)
        for old in range(g.n):
            assert np.allclose(h[old], hp[inv[old]], atol=1e-12)

    def test_fragment_independence(self):
        model = small_model()
        a = parse_smiles("CCO")
        h_with_b = enc_vectors(model, disjoint_union([a, parse_smiles("CCN")]))
        h_with_c = enc_vectors(model, disjoint_union([a, parse_smiles("c1ccccc1")]))
        assert np.allclose(h_with_b[: a.n], h_with_c[: a.n], atol=1e-12)

    @pytest.mark.parametrize("smiles", ["CC(=O)Nc1ccccc1O", "C1CC1C", "O", "OC1CC(N)C1=O", "CCCCCC"])
    def test_matches_dense_reference(self, smiles):
        model = small_model(seed=4)
        model.rounds = 3
        type_ids, edges = graph_inputs(model, parse_smiles(smiles))
        got = _mpn(model, "dec", type_ids, edges).data
        assert np.allclose(got, dense_mpn(model, "dec", type_ids, edges), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "smiles,rounds",
        [("C1CCC1O", 1), ("C1CCC1O", 3), ("c1ccccc1N", 3), ("O", 1), ("O", 3), ("CCCC", 3), ("CC(C)(C)C", 1)],
    )
    def test_gradcheck(self, smiles, rounds):
        model = small_model(seed=6, hidden=5, latent=2)
        model.rounds = rounds
        type_ids, edges = graph_inputs(model, parse_smiles(smiles))
        weights = ns.const(np.random.default_rng(1).normal(size=(len(type_ids), model.hidden)))
        params = {
            k: t for k, t in model.params.items() if k.startswith(("emb_", "dec_"))
        }

        def loss_fn():
            h = _mpn(model, "dec", type_ids, edges)
            return ns.sum_all(ns.mul(ns.mul(h, h), weights))

        check_gradients(loss_fn, params)

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_no_grad_output_is_bit_identical(self, rounds):
        model = small_model(seed=6)
        model.rounds = rounds
        for smiles in ["CC(=O)Nc1ccccc1O", "O", "OC1CC(N)C1=O"]:
            type_ids, edges = graph_inputs(model, parse_smiles(smiles))
            recorded = _mpn(model, "dec", type_ids, edges)
            with ns.no_grad():
                forward_only = _mpn(model, "dec", type_ids, edges)
            assert recorded._backward is not None and forward_only._backward is None
            assert recorded.data.tobytes() == forward_only.data.tobytes(), smiles

    def test_unused_weights_get_no_gradient(self):
        model = small_model()
        model.rounds = 1
        ns.zero_grads(model.params)
        ns.backward(ns.sum_all(_mpn(model, "dec", *graph_inputs(model, parse_smiles("CO")))))
        assert model.params["dec_w3"].grad is None and model.params["dec_w1"].grad is not None
        ns.zero_grads(model.params)
        ns.backward(ns.sum_all(_mpn(model, "dec", *graph_inputs(model, parse_smiles("O")))))
        assert model.params["emb_bond"].grad is None and model.params["dec_u1"].grad is not None

    def test_unknown_atom_type_embeds(self):
        model = small_model()
        g = parse_smiles("CP")  # P is not in the small corpus
        assert model.type_of_atom(g.atoms[1]) == model.unknown_index
        h = enc_vectors(model, g)
        assert h.shape == (2, model.hidden)


class TestMLP:
    @pytest.mark.parametrize("shape", [(24,), (4, 24)])
    def test_gradcheck(self, shape):
        model = small_model(seed=8)
        rng = np.random.default_rng(2)
        params = {k: model.params[f"gin_{k}"] for k in ("w1", "b1", "w2", "b2")}
        params["x"] = ns.param(rng.normal(size=shape))
        weights = ns.const(rng.normal(size=shape[:-1] + (model.hidden,)))

        def loss_fn():
            out = _mlp(model, "gin", params["x"])
            return ns.sum_all(ns.mul(ns.mul(out, out), weights))

        check_gradients(loss_fn, params)

    def test_rows_match_vectors(self):
        model = small_model(seed=8)
        x = np.random.default_rng(3).normal(size=(3, 2 * model.hidden))
        rows = _mlp(model, "gin", ns.const(x)).data
        for i in range(3):
            assert np.allclose(rows[i], _mlp(model, "gin", ns.const(x[i])).data, rtol=1e-13, atol=1e-15)


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


class TestValenceRule:
    """The valence rule of the decoder's bond mask, the corpus builder's
    capacity and MolGraph's validation, each against the exact floor-rule
    oracle, for every element and every bond history up to saturation: an
    atom of the element bonded to one fresh carbon per history entry."""

    ORDERS = BOND_TYPES[:NO_BOND_IDX]

    def test_decoder_bond_mask(self):
        model = small_model()
        for element, cap in MAX_VALENCE.items():
            for history in bond_histories(cap):
                state = DecoderState(model)
                center = state._append_atom(Atom(element))
                for order in history:
                    state._append_bond(center, state._append_atom(Atom("C")), BOND_TYPES.index(order))
                q = state._append_atom(Atom("C"))
                fits = [floor_rule_valence(history + (o,)) <= cap for o in self.ORDERS]
                assert state.can_accept_any_bond(center) == fits[0], (element, history)
                for first in (False, True):
                    for mask in (state.bond_mask(center, q, first), state.bond_mask(q, center, first)):
                        assert [m == 0.0 for m in mask] == fits + [not first], (element, history)

    def test_builder_capacity(self):
        for element, cap in MAX_VALENCE.items():
            for history in bond_histories(cap):
                b = _Builder()
                center = b.add_atom(Atom(element))
                for order in history:
                    b.add_bond(center, b.add_atom(Atom("C")), order)
                assert b.capacity(center) == cap - floor_rule_valence(history), (element, history)

    def test_molgraph_validation(self):
        for element, cap in MAX_VALENCE.items():
            for history in bond_histories(cap):
                for extended in [history] + [history + (o,) for o in self.ORDERS]:
                    atoms = [Atom(element)] + [Atom("C")] * len(extended)
                    bonds = [Bond(0, i + 1, o) for i, o in enumerate(extended)]
                    if floor_rule_valence(extended) <= cap:
                        MolGraph(atoms, bonds)
                    else:
                        with pytest.raises(ValenceError):
                            MolGraph(atoms, bonds)


def placed_mask(model, state, t_idx):
    """The first bond decision's mask for a new atom of type t_idx, from
    DecoderState.bond_mask on a copy of the state with the atom placed."""
    dup = state.copy()
    u = dup._append_atom(model.atom_types[t_idx])
    return dup.bond_mask(u, dup.queue[0], first=True)


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
        mask = placed_mask(model, state, 0)
        probs = sl.bond_probs(0, [], mask)
        assert mask[NO_BOND_IDX] != 0.0
        assert probs[NO_BOND_IDX] == pytest.approx(0.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_valence_infeasible_orders_masked(self):
        model = small_model()
        # oxygen head with one bond used: a double bond would overflow it
        state = DecoderState.from_rationale(model, rat("OC", (0,)))
        sl = step_logits(model, state, np.zeros(model.latent))
        c_idx = model.type_index[Atom("C")]
        mask = placed_mask(model, state, c_idx)
        probs = sl.bond_probs(c_idx, [], mask)
        double = BOND_TYPES.index("double")
        triple = BOND_TYPES.index("triple")
        assert mask[double] != 0.0 and probs[double] == pytest.approx(0.0, abs=1e-12)
        assert mask[triple] != 0.0 and probs[triple] == pytest.approx(0.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_saturated_bond_query_raises(self):
        model = small_model()
        state = DecoderState.from_rationale(model, rat("FC", (0,)))
        sl = step_logits(model, state, np.zeros(model.latent))
        c_idx = model.type_index[Atom("C")]
        with pytest.raises(GenModelError):
            sl.bond_probs(c_idx, [], placed_mask(model, state, c_idx))

    def test_distributions_proper_after_masking(self):
        model = small_model(seed=3)
        state = DecoderState.from_rationale(model, rat("CC(=O)N", (0, 3)))
        sl = step_logits(model, state, prior_latent(model, np.random.default_rng(0)))
        assert sl.atom_probs.sum() == pytest.approx(1.0, abs=1e-9)
        for t_idx in range(len(model.atom_types)):
            probs = sl.bond_probs(t_idx, [], placed_mask(model, state, t_idx))
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestComplete:
    def test_empty_peripheral_returns_rationale(self):
        model = small_model()
        r = rat("CC(=O)N", ())
        out = complete_with_trace(model, r, np.zeros(model.latent), np.random.default_rng(0),
                                  max_steps=60)[0]
        assert canonical_key(out) == canonical_key(r.combined)

    def test_every_sample_contains_fragments(self):
        model = small_model(seed=11)
        single = rat("CCO", (0, 2))
        double = Rationale(
            disjoint_union([parse_smiles("CCO"), parse_smiles("CN")]),
            scores={},
            peripheral=(0, 3),
        )
        rng = np.random.default_rng(4)
        for r in (single, double):
            completed = 0
            for _ in range(100):
                z = prior_latent(model, rng)
                try:
                    out = complete_with_trace(model, r, z, rng, max_steps=12)[0]
                except TruncationError:
                    continue
                completed += 1
                assert contains_subgraph(out, r.combined) is not None
            assert completed >= 80

    def test_single_fragment_outputs_connected_and_valid(self):
        model = small_model(seed=13)
        r = rat("CCN", (0, 2))
        rng = np.random.default_rng(8)
        completed = 0
        for _ in range(500):
            try:
                out = complete_with_trace(model, r, prior_latent(model, rng), rng, max_steps=10)[0]
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
            complete_with_trace(model, r, np.zeros(model.latent), np.random.default_rng(0), max_steps=3)
        assert err.value.partial.n >= 3


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
        r = Rationale(g, scores={}, peripheral=(0, 2, 3))
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
        got = float(log_likelihood_tensor(model, g, r, z, mapping={i: i for i in range(g.n)}).data)
        assert got == pytest.approx(expected, abs=1e-9)

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


class TestOnePassScorer:
    def model_and_pairs(self):
        from molrationale.train import make_pretrain_pairs

        corpus = random_corpus(30, seed=21, atoms_min=8, atoms_max=14, ring_prob=0.5)
        model = GenModel(atom_types_from_corpus(corpus), hidden=10, latent=4, rounds=3, seed=2)
        pairs = make_pretrain_pairs(corpus, 4, 1, np.random.default_rng(5))
        return model, pairs

    def test_teacher_forcing_matches_stepwise_oracle(self):
        model, pairs = self.model_and_pairs()
        rng = np.random.default_rng(6)
        widest = 0
        for rationale, g in pairs:
            mapping = dict(enumerate(rationale.sources[0][1]))
            z = prior_latent(model, rng)
            got = float(log_likelihood_tensor(model, g, rationale, z, mapping=mapping).data)
            want, queue = stepwise_log_prob(model, rationale, z, teacher_decisions(model, g, mapping))
            assert got == pytest.approx(want, abs=1e-9)
            widest = max(widest, queue)
        assert len(pairs) >= 20 and widest >= 3
        assert any(len(g.bonds) >= g.n for _, g in pairs)  # rings

    def test_trace_replay_matches_sampler_probabilities(self):
        model, pairs = self.model_and_pairs()
        model.params["expand_b2"].data = np.array([1.0])
        rng = np.random.default_rng(8)
        long_queues = 0
        for rationale, _g in pairs:
            z = prior_latent(model, rng)
            try:
                _out, trace = complete_with_trace(model, rationale, z, rng, max_steps=12)
            except TruncationError:
                continue
            got = float(trace_log_likelihood(model, rationale, trace, z).data)
            want, queue = stepwise_log_prob(model, rationale, z, trace_decisions(trace))
            assert got == pytest.approx(want, abs=1e-9)
            long_queues += queue >= 3
        assert long_queues >= 5

    def test_tape_size_does_not_grow_with_decode_steps(self):
        corpus = [parse_smiles("CC(C)CCO"), parse_smiles("CC(C)CC(C)CC(C)CC(C)CO")]
        model = GenModel(atom_types_from_corpus(corpus), hidden=6, latent=3, rounds=3, seed=1)
        r = rat("CC", (0, 1))
        z = ns.param(np.full(model.latent, 0.1))
        # atoms 1 and 3 start the queue, so some new atoms get several bond decisions
        sizes = [
            tape_size(log_likelihood_tensor(model, g, r, z, mapping={0: 1, 1: 3}))
            for g in corpus
        ]
        assert [g.n for g in corpus] == [6, 14]
        assert sizes[1] <= sizes[0] < 100


class TestPreparedStart:
    CASES = {
        "ring": rat("c1ccccc1", (0, 3)),
        "chain": rat("CCO", (0, 2)),
        "saturated head": rat("FC", (0, 1)),
        "empty queue": rat("CC(=O)N", ()),
        "two fragments": Rationale(disjoint_union([parse_smiles("CCO"), parse_smiles("CN")]),
                                   scores={}, peripheral=(0, 3)),
    }

    def test_start_matches_fresh_decode(self):
        model = small_model(seed=37, expand_bias=0.5)
        draws = truncated = grown = 0
        for r in self.CASES.values():
            start = prepare_start(model, r)
            for seed in range(220):
                z = prior_latent(model, np.random.default_rng([5, seed]))
                out = same_outcome(model, r, z, seed, 6, start)
                draws += 1
                truncated += out[0] == "truncated"
                grown += out[0] != "truncated" and out[0].n > r.n_atoms
        assert draws >= 1000 and truncated > 0 and grown > 100

    def test_saturated_head_and_empty_queue(self):
        model = small_model(seed=43)
        rng = np.random.default_rng(0)
        r = rat("CC(=O)N", ())
        g, trace = complete_with_trace(model, r, prior_latent(model, rng), rng, max_steps=60,
                                       start=prepare_start(model, r))
        assert g == r.combined and trace == []
        # fluorine is saturated, so only the carbon is asked to expand
        model.params["expand_b2"].data = np.array([-50.0])
        r = rat("FC", (0, 1))
        g, trace = complete_with_trace(model, r, prior_latent(model, rng), rng, max_steps=60,
                                       start=prepare_start(model, r))
        assert g == r.combined and trace == [0]

    def test_stale_start_raises(self):
        model = small_model(seed=47)
        r = rat("CCO", (0, 2))
        start = prepare_start(model, r)
        z = prior_latent(model, np.random.default_rng(1))
        complete_with_trace(model, r, z, np.random.default_rng(2), max_steps=60, start=start)
        grads = {k: np.full_like(t.data, 0.1) for k, t in model.params.items()}
        ns.adam_step(model.params, grads, {}, lr=1e-3)
        with pytest.raises(GenModelError, match="stale"):
            complete_with_trace(model, r, z, np.random.default_rng(2), max_steps=60, start=start)
        fresh = prepare_start(model, r)
        complete_with_trace(model, r, z, np.random.default_rng(2), max_steps=60, start=fresh)
        with pytest.raises(GenModelError, match="another rationale"):
            complete_with_trace(model, rat("CCN", (0,)), z, np.random.default_rng(2),
                                max_steps=60, start=fresh)

    def test_trace_log_likelihood_from_start_equals_no_start(self):
        model = small_model(seed=61, expand_bias=0.5)

        def value_and_grads(replay):
            ns.zero_grads(model.params)
            ll = replay()
            ns.backward(ll)
            return float(ll.data), {k: t.grad for k, t in model.params.items() if t.grad is not None}

        def union_replay(r, trace, z):
            # teacher forcing's scorer: one MPN over every prefix, the first included
            state = DecoderState.from_rationale(model, r)
            walk = genmodel._walk(model, state, genmodel._TracePolicy(trace), 10**9)
            return genmodel._score(model, state, walk, z)

        replays = grown = 0
        for r in self.CASES.values():
            for seed in range(8):
                rng = np.random.default_rng([8, seed])
                z = prior_latent(model, rng)
                try:
                    g, trace = complete_with_trace(model, r, z, rng, max_steps=6)
                except TruncationError:
                    continue
                want, want_grads = value_and_grads(lambda: trace_log_likelihood(model, r, trace, z))
                for replay in (
                    lambda: trace_log_likelihood(model, r, trace, z, start=prepare_start(model, r)),
                    lambda: union_replay(r, trace, z),
                ):
                    got, grads = value_and_grads(replay)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                    assert sorted(grads) == sorted(want_grads)
                    for name, w in want_grads.items():
                        assert np.linalg.norm(grads[name] - w) <= 1e-12 * np.linalg.norm(w), name
                replays += 1
                grown += g.n >= r.n_atoms + 2
        assert replays >= 30 and grown >= 5

    def test_replay_from_stale_or_foreign_start_raises(self):
        model = small_model(seed=67)
        r = rat("CCO", (0, 2))
        rng = np.random.default_rng(4)
        z = prior_latent(model, rng)
        _g, trace = complete_with_trace(model, r, z, rng, max_steps=60)
        start = prepare_start(model, r)
        trace_log_likelihood(model, r, trace, z, start=start)
        with pytest.raises(GenModelError, match="another rationale"):
            trace_log_likelihood(model, rat("CCN", (0, 2)), trace, z, start=start)
        grads = {k: np.full_like(t.data, 0.1) for k, t in model.params.items()}
        ns.adam_step(model.params, grads, {}, lr=1e-3)
        with pytest.raises(GenModelError, match="stale"):
            trace_log_likelihood(model, r, trace, z, start=start)

    def test_completion_copies_the_state_once(self, monkeypatch):
        model = small_model(seed=59, expand_bias=0.5)
        copies = []
        real = DecoderState.copy

        def counted(state):
            copies.append(state)
            return real(state)

        r = rat("c1ccccc1", (0, 3))
        start = prepare_start(model, r)
        monkeypatch.setattr(DecoderState, "copy", counted)
        grown = 0
        for seed in range(30):
            copies.clear()
            rng = np.random.default_rng([7, seed])
            try:
                g, trace = complete_with_trace(model, r, prior_latent(model, rng), rng,
                                               max_steps=6, start=start)
                grown += g.n > r.n_atoms
            except TruncationError:
                pass
            assert copies == [start.state]
        assert grown > 5

    def test_one_valence_mask_per_bond_decision(self, monkeypatch):
        model = small_model(seed=59, expand_bias=0.5)
        masks = []
        real = genmodel._bond_mask

        def counted(u, q, first):
            masks.append((u, q, first))
            return real(u, q, first)

        r = rat("c1ccccc1", (0, 3))
        start = prepare_start(model, r)
        monkeypatch.setattr(genmodel, "_bond_mask", counted)
        decisions = 0
        for seed in range(30):
            masks.clear()
            rng = np.random.default_rng([7, seed])
            try:
                _g, trace = complete_with_trace(model, r, prior_latent(model, rng), rng,
                                                max_steps=6, start=start)
            except TruncationError:
                continue
            drawn = len(masks)
            walk = genmodel._walk(model, start.state.copy(), genmodel._TracePolicy(trace), 10**9)
            assert drawn == len(walk.bonds), seed
            decisions += drawn
        assert decisions > 20

    def test_declined_step_never_evaluates_atom_head(self, monkeypatch):
        model = small_model(seed=53)
        heads = []
        real = genmodel._mlp_forward

        def counted(model, name, xd):
            heads.append(name)
            return real(model, name, xd)

        monkeypatch.setattr(genmodel, "_mlp_forward", counted)
        model.params["expand_b2"].data = np.array([-50.0])
        r = rat("CC(=O)N", (0, 2, 3))
        _g, trace = complete_with_trace(model, r, np.zeros(model.latent), np.random.default_rng(0),
                                        max_steps=60)
        # the carbonyl oxygen is saturated: two expand decisions, both declined
        assert trace == [0, 0] and heads == ["expand"] * 2
        state = DecoderState.from_rationale(model, r)
        z = prior_latent(model, np.random.default_rng(3))
        sl = step_logits(model, state, z)
        assert "atom" not in heads
        x = ns.const(np.concatenate([sl.h[state.queue[0]], sl.hg, z]))
        eager = ns.softmax_array(_mlp(model, "atom", x).data)
        assert np.array_equal(sl.atom_probs, eager)
        assert heads.count("atom") == 2  # the lazy read and the eager one


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
            ll = math.exp(float(log_likelihood_tensor(model, g, r, z, mapping=mapping0).data))
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
            out = complete_with_trace(model, r, z, rng, max_steps=10)[0]
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
        for seed in range(20):
            a = complete_with_trace(model, r, z, np.random.default_rng(seed), max_steps=60)
            b = complete_with_trace(back, r, z, np.random.default_rng(seed), max_steps=60)
            assert a == b, seed
