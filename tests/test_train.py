import math

import numpy as np
import pytest

from molrationale import numsub as ns
from molrationale.chemgraph import canonical_key, contains_subgraph, is_connected, parse_smiles
from molrationale.extract import Rationale, RationaleVocab
from molrationale.genmodel import (
    GenModel,
    TruncationError,
    atom_types_from_corpus,
    complete_with_trace,
    encode,
    prepare_start,
    prior_latent,
)
from molrationale import train
from molrationale.train import (
    TrainConfig,
    TrainingError,
    finetune,
    make_pretrain_pairs,
    pretrain,
    rationale_distribution,
    sample_molecules,
)

from helpers import StubProperty, single_tape_policy_loss, success_of_model, tape_size
from test_numsub import check_gradients


def toy_corpus():
    return [
        parse_smiles(s)
        for s in ["CCO", "CCN", "CC(=O)N", "CCC", "OCCN", "CC(C)O", "CCCO", "NCCN"]
    ]


def toy_model(corpus, seed=0, hidden=10, latent=4):
    model = GenModel(atom_types_from_corpus(corpus), hidden=hidden, latent=latent, rounds=2, seed=seed)
    model.params["expand_b2"].data = np.array([-1.0])
    return model


def quick_cfg(**kw):
    base = dict(
        entropy_weight=0.02,
        samples_per_rationale=4,
        iterations=2,
        kl_weight=0.3,
        learning_rate=3e-3,
        batch_size=8,
        pretrain_epochs=2,
        max_subgraph_atoms=6,
        pairs_per_molecule=2,
        max_decode_steps=12,
        dist_samples=20,
        seed=1,
    )
    base.update(kw)
    return TrainConfig(**base)


class ConstSpec(StubProperty):
    def __init__(self, value, name="const", threshold=0.5):
        self._value = value
        self.name = name
        self.threshold = threshold

    def score(self, g):
        return self._value

    def is_positive(self, g):
        return self._value >= self.threshold


class TestMakePretrainPairs:
    def test_n_equals_one_gives_single_atoms(self):
        rng = np.random.default_rng(0)
        pairs = make_pretrain_pairs(toy_corpus(), 1, 3, rng)
        assert all(r.combined.n == 1 for r, _ in pairs)

    def test_subgraphs_connected_and_contained(self):
        rng = np.random.default_rng(1)
        pairs = make_pretrain_pairs(toy_corpus(), 5, 4, rng)
        for r, g in pairs:
            frag = r.combined
            assert is_connected(frag)
            _key, origin = r.sources[0]
            for i in range(frag.n):
                assert g.atoms[origin[i]] == frag.atoms[i]
            for b in frag.bonds:
                gb = g.bond_between(origin[b.u], origin[b.v])
                assert gb is not None and gb.order == b.order

    def test_subgraphs_are_induced(self):
        rng = np.random.default_rng(7)
        pairs = make_pretrain_pairs(toy_corpus(), 6, 4, rng)
        for r, g in pairs:
            frag = r.combined
            _key, origin = r.sources[0]
            for i in range(frag.n):
                for j in range(i + 1, frag.n):
                    gb = g.bond_between(origin[i], origin[j])
                    fb = frag.bond_between(i, j)
                    assert (gb is None) == (fb is None)

    def test_size_histogram_uniform(self):
        from scipy import stats

        g = parse_smiles("CCCCCCCCCCCCCCCCCCCC")  # 20-atom chain
        rng = np.random.default_rng(3)
        pairs = make_pretrain_pairs([g], 10, 10000, rng)
        sizes = [r.combined.n for r, _ in pairs]
        counts = [sizes.count(k) for k in range(1, 11)]
        _chi, p = stats.chisquare(counts)
        assert p > 0.01

    def test_empty_corpus_raises(self):
        with pytest.raises(TrainingError):
            make_pretrain_pairs([], 5, 2, np.random.default_rng(0))


class TestPretrain:
    def test_loss_descends(self):
        corpus = toy_corpus()
        model = toy_model(corpus)
        rng = np.random.default_rng(5)
        pairs = make_pretrain_pairs(corpus, 5, 3, rng)
        trace = pretrain(model, pairs, quick_cfg(pretrain_epochs=4))
        assert trace[-1] < trace[0]

    def test_zero_kl_weight_drops_kl_term(self):
        corpus = toy_corpus()
        model = toy_model(corpus, seed=4)
        r, g = make_pretrain_pairs(corpus, 4, 1, np.random.default_rng(2))[0]
        from molrationale.train import _pair_loss

        cfg0 = quick_cfg(kl_weight=0.0)
        cfgb = quick_cfg(kl_weight=0.5)
        rng_state = np.random.default_rng(9)
        loss0 = float(_pair_loss(model, r, g, cfg0, np.random.default_rng(9)).data)
        lossb = float(_pair_loss(model, r, g, cfgb, np.random.default_rng(9)).data)
        lp = encode(model, g)
        kl = float(ns.gaussian_kl(lp.mu, lp.log_std).data)
        assert lossb - loss0 == pytest.approx(0.5 * kl, rel=1e-9)

    def test_ring_pair_loss_gradcheck(self):
        """The whole pair loss at three rounds, from a one-atom rationale of a
        five-ring: the walk feeds earlier bond decisions through gin, and the
        last atom's second bond closes the ring."""
        from molrationale.genmodel import NO_BOND_IDX, DecoderState, _TeacherPolicy, _walk
        from molrationale.train import _pair_loss

        g = parse_smiles("C1CCNC1")
        sub = Rationale(
            parse_smiles("C"), scores={}, peripheral=(0,),
            sources=((canonical_key(g), (0,)),),
        )
        model = GenModel(atom_types_from_corpus([g]), hidden=4, latent=2, rounds=3, seed=3)
        walk = _walk(model, DecoderState.from_rationale(model, sub),
                     _TeacherPolicy(model, g, {0: 0}), max_steps=10)
        fed = [b for prev, b in zip(walk.bonds, walk.bonds[1:]) if b[0] == prev[0]]
        assert fed and any(b_idx != NO_BOND_IDX for _blk, _q, b_idx in fed)
        cfg = quick_cfg(kl_weight=0.5)
        check_gradients(lambda: _pair_loss(model, sub, g, cfg, np.random.default_rng(4)),
                        model.params)

    def test_memorizes_single_pair(self):
        # the pair is chosen so no two frontier atoms are automorphic with
        # contradictory targets; the decoder can then drive the loss to ~0
        g = parse_smiles("CO")
        sub = Rationale(
            parse_smiles("C"), scores={}, peripheral=(0,),
            sources=((canonical_key(g), (0,)),),
        )
        model = toy_model([g], seed=8, hidden=12, latent=4)
        cfg = quick_cfg(
            pretrain_epochs=500, batch_size=1, learning_rate=5e-3, kl_weight=0.0, seed=3
        )
        trace = pretrain(model, [(sub, g)], cfg)
        assert trace[-1] < 0.1

    def test_determinism(self):
        corpus = toy_corpus()
        pairs = make_pretrain_pairs(corpus, 5, 2, np.random.default_rng(6))
        m1 = toy_model(corpus, seed=2)
        m2 = toy_model(corpus, seed=2)
        t1 = pretrain(m1, pairs, quick_cfg())
        t2 = pretrain(m2, pairs, quick_cfg())
        assert t1 == t2
        for k in m1.params:
            assert np.array_equal(m1.params[k].data, m2.params[k].data)

    def test_empty_pairs_raises(self):
        model = toy_model(toy_corpus())
        with pytest.raises(TrainingError):
            pretrain(model, [], quick_cfg())

    def test_non_finite_batch_loss_names_its_batch_and_takes_no_step(self, monkeypatch):
        corpus = toy_corpus()
        model = toy_model(corpus, seed=2)
        pairs = make_pretrain_pairs(corpus, 5, 2, np.random.default_rng(6))
        cfg = quick_cfg(pretrain_epochs=3)
        assert len(pairs) > cfg.batch_size + 1
        initial = {k: t.data.copy() for k, t in model.params.items()}
        # the second pair of epoch 1's batch 1
        poisoned_call = len(pairs) + cfg.batch_size + 2
        real = train._pair_loss
        calls = []
        before = {}

        def poisoned(model_, *args):
            calls.append(1)
            loss = real(model_, *args)
            if len(calls) != poisoned_call:
                return loss
            before.update({k: t.data.copy() for k, t in model_.params.items()})
            return ns.scale(loss, np.nan)

        monkeypatch.setattr(train, "_pair_loss", poisoned)
        with pytest.raises(TrainingError, match=r"^non-finite loss at epoch 1 batch 1$"):
            pretrain(model, pairs, cfg)
        # the whole batch is scored, and the raise comes before its backward
        assert len(calls) == len(pairs) + min(2 * cfg.batch_size, len(pairs))
        assert any(not np.array_equal(before[k], initial[k]) for k in initial)
        for name, data in before.items():
            assert np.array_equal(model.params[name].data, data), name


def small_vocab():
    vocab = RationaleVocab(("const",))
    vocab.add(Rationale(parse_smiles("CCO"), scores={"const": 1.0}, peripheral=(0,)))
    vocab.add(Rationale(parse_smiles("CCN"), scores={"const": 1.0}, peripheral=(0,)))
    return vocab


class TestFinetune:
    def test_trivial_property_keeps_success_one(self):
        corpus = toy_corpus()
        model = toy_model(corpus, seed=3)
        stats = finetune(model, small_vocab(), [ConstSpec(1.0)], quick_cfg(iterations=3))
        assert all(s.success == 1.0 for s in stats)

    def test_sample_accounting(self):
        corpus = toy_corpus()
        model = toy_model(corpus, seed=5)
        vocab = small_vocab()
        stats = finetune(
            model, vocab, [ConstSpec(1.0)], quick_cfg(samples_per_rationale=1, iterations=1)
        )
        assert len(stats) == 1
        assert stats[0].sampled == len(vocab.entries)

    def test_truncated_completions_count_as_misses(self):
        model = toy_model(toy_corpus(), seed=5)
        model.params["expand_b2"].data = np.array([50.0])  # every open queue head expands
        vocab = RationaleVocab(("const",))
        grows = Rationale(parse_smiles("CCO"), scores={"const": 1.0}, peripheral=(0,))
        closed = Rationale(parse_smiles("CC(=O)N"), scores={"const": 1.0}, peripheral=())
        vocab.add(grows)
        vocab.add(closed)
        # no atom may be added, so every completion of `grows` truncates
        cfg = quick_cfg(iterations=1, samples_per_rationale=5, max_decode_steps=0)
        (stats,) = finetune(model, vocab, [ConstSpec(1.0)], cfg)
        assert (stats.truncated, stats.sampled, stats.kept) == (5, 5, 5)
        assert stats.success == 0.5

    def test_one_start_per_rationale_per_iteration(self, monkeypatch):
        model = toy_model(toy_corpus(), seed=3)
        calls = []

        def counted(model, rationale):
            calls.append(rationale)
            return prepare_start(model, rationale)

        monkeypatch.setattr(train, "prepare_start", counted)
        vocab = small_vocab()
        stats = finetune(model, vocab, [ConstSpec(1.0)], quick_cfg(iterations=3))
        assert all(s.kept > 0 for s in stats)  # every iteration takes a policy step
        assert [id(r) for r in calls] == [id(r) for r in vocab.entries] * 3

    def test_all_negative_aborts_after_l_empty_iterations(self):
        corpus = toy_corpus()
        model = toy_model(corpus, seed=7)
        with pytest.raises(TrainingError):
            finetune(model, small_vocab(), [ConstSpec(0.0)], quick_cfg(iterations=2))

    def test_reinforce_equals_filtered_likelihood_on_toy_decoder(self):
        # two Bernoulli decisions parameterized by logits; rewards in {0, 1}:
        # sum_i r_i * grad log p(traj_i) must equal the gradient of the
        # filtered-likelihood loss over the kept trajectories
        rng = np.random.default_rng(0)
        theta = ns.param(np.array([0.3, -0.7]), name="theta")
        trajectories = [(1, 0), (0, 0), (1, 1), (0, 1)]
        rewards = [1, 0, 1, 0]

        def traj_logp(traj):
            # logp = sum over decisions of logsigmoid(+-logit_k)
            comps = []
            for k, choice in enumerate(traj):
                unit = np.zeros(2)
                unit[k] = 1.0
                logit_k = ns.matmul(theta, ns.const(unit))
                if choice == 1:
                    comps.append(ns.logsigmoid(logit_k))
                else:
                    comps.append(ns.logsigmoid(ns.scale(logit_k, -1.0)))
            total = comps[0]
            for c in comps[1:]:
                total = ns.add(total, c)
            return total

        # path A: REINFORCE with 0/1 rewards and zero baseline
        ns.zero_grads({"theta": theta})
        loss_a = ns.const(0.0)
        for traj, r in zip(trajectories, rewards):
            if r:
                loss_a = ns.add(loss_a, ns.scale(traj_logp(traj), -float(r)))
        ns.backward(loss_a)
        grad_a = theta.grad.copy()

        # path B: filtered likelihood over the kept trajectories only
        ns.zero_grads({"theta": theta})
        loss_b = ns.const(0.0)
        for traj, r in zip(trajectories, rewards):
            if r == 1:
                loss_b = ns.add(loss_b, ns.scale(traj_logp(traj), -1.0))
        ns.backward(loss_b)
        grad_b = theta.grad.copy()

        assert np.allclose(grad_a, grad_b, atol=1e-9)

    def test_planted_property_lift_smoke(self):
        # tiny version of the fine-tuning lift: success should not regress
        # catastrophically and the loop runs end to end
        corpus = toy_corpus()
        model = toy_model(corpus, seed=9)
        rng = np.random.default_rng(13)
        pairs = make_pretrain_pairs(corpus, 5, 2, rng)
        pretrain(model, pairs, quick_cfg(pretrain_epochs=3))

        class NitrogenSpec(StubProperty):
            name = "hasN"
            threshold = 0.5

            def score(self, g):
                return 1.0 if any(a.element == "N" for a in g.atoms) else 0.0

            def is_positive(self, g):
                return self.score(g) >= self.threshold

        vocab = RationaleVocab(("hasN",))
        vocab.add(Rationale(parse_smiles("CN"), scores={"hasN": 1.0}, peripheral=(0,)))
        stats = finetune(model, vocab, [NitrogenSpec()], quick_cfg(iterations=3, samples_per_rationale=8))
        assert len(stats) == 3
        assert stats[-1].success >= 0.99  # the rationale already contains N


def kept_trajectories(model, count):
    """Sampled (rationale, trace, latent) trajectories from a toy vocabulary,
    one per distinct trace length."""
    rationales = [
        Rationale(parse_smiles(s), scores={}, peripheral=(0,))
        for s in ("CCO", "CCN", "CN")
    ]
    by_length = {}
    for i in range(200):
        rng = np.random.default_rng([3, i])
        rationale = rationales[i % len(rationales)]
        z = prior_latent(model, rng)
        try:
            _g, trace_ids = complete_with_trace(model, rationale, z, rng, max_steps=12)
        except TruncationError:
            continue
        by_length.setdefault(len(trace_ids), (rationale, trace_ids, z))
        if len(by_length) == count:
            break
    assert len(by_length) == count, "the toy decoder no longer gives enough trace lengths"
    return list(by_length.values())


def trajectories_adding(model, rationale, count, added):
    """count sampled (rationale, trace, latent) trajectories of the rationale
    whose completions add a number of atoms in `added`."""
    out = []
    for i in range(2000):
        rng = np.random.default_rng([4, i])
        z = prior_latent(model, rng)
        try:
            g, trace_ids = complete_with_trace(model, rationale, z, rng, max_steps=12)
        except TruncationError:
            continue
        if g.n - rationale.n_atoms in added:
            out.append((rationale, trace_ids, z))
            if len(out) == count:
                return out
    raise AssertionError("the toy decoder no longer gives these completions")


def with_starts(model, trajectories):
    """(start, trace, latent) trajectories from (rationale, trace, latent)
    ones, with one start per rationale under the current parameters, as
    finetune hands them to the policy step."""
    starts = {}
    for rationale, _trace, _z in trajectories:
        if id(rationale) not in starts:
            starts[id(rationale)] = prepare_start(model, rationale)
    return [(starts[id(r)], trace_ids, z) for r, trace_ids, z in trajectories]


def interleave(*groups):
    return [t for row in zip(*groups) for t in row]


def policy_step_cases(model):
    """Kept sets named by what they exercise in the shared-MPN replay."""
    chain = [
        Rationale(parse_smiles(s), scores={}, peripheral=(0,))
        for s in ("CCO", "CCN", "CN")
    ]
    closed = Rationale(parse_smiles("CC(=O)N"), scores={}, peripheral=())
    grow = range(0, 13)
    return {
        # three rationales, none of whose trajectories are next to each other
        "interleaved": interleave(*(trajectories_adding(model, r, 3, grow) for r in chain)),
        # MPN over the shared rows only
        "no atom added": interleave(*(trajectories_adding(model, r, 3, [0]) for r in chain[:2])),
        # shared rows joined to a fresh union of two or more prefixes
        "two or more atoms": interleave(
            *(trajectories_adding(model, r, 2, range(2, 13)) for r in chain[:2])
        ),
        # an empty queue: no expand decision, so no gradient reaches its rows
        "no expand decision": interleave(
            trajectories_adding(model, closed, 2, [0]), trajectories_adding(model, chain[0], 2, grow)
        ),
    }


class TestPolicyStep:
    def adam_grads(self, model, kept, monkeypatch):
        """Run one policy step; return the gradients it handed to Adam."""
        seen = {}

        def capture(params, grads, state, lr):
            seen.update({k: g.copy() for k, g in grads.items()})

        monkeypatch.setattr(ns, "adam_step", capture)
        train._policy_step(model, kept, quick_cfg(), {}, 0)
        return seen

    def assert_oracle_gradients(self, model, trajectories, monkeypatch):
        kept = with_starts(model, trajectories)
        grads = self.adam_grads(model, kept, monkeypatch)
        ns.zero_grads(model.params)
        ns.backward(single_tape_policy_loss(model, kept))
        oracle = {k: t.grad for k, t in model.params.items() if t.grad is not None}
        assert sorted(grads) == sorted(oracle)
        for name, want in oracle.items():
            err = np.linalg.norm(grads[name] - want)
            assert err <= 1e-12 * np.linalg.norm(want), name

    def test_gradient_equals_single_tape_oracle(self, monkeypatch):
        model = toy_model(toy_corpus(), seed=0)
        self.assert_oracle_gradients(model, kept_trajectories(model, 10), monkeypatch)

    @pytest.mark.parametrize(
        "case", ["interleaved", "no atom added", "two or more atoms", "no expand decision"]
    )
    def test_shared_rationale_rows_equal_single_tape_oracle(self, monkeypatch, case):
        model = toy_model(toy_corpus(), seed=0)
        kept = policy_step_cases(model)[case]
        assert len({id(r) for r, _, _ in kept}) >= 2
        assert all(kept[i][0] is not kept[i + 1][0] for i in range(len(kept) - 1))
        self.assert_oracle_gradients(model, kept, monkeypatch)

    def test_tape_holds_one_trajectory(self, monkeypatch):
        model = toy_model(toy_corpus(), seed=0)
        distinct = kept_trajectories(model, 5)
        rationales = len({id(r) for r, _, _ in distinct})
        real_backward = ns.backward
        sizes = []

        def measured(loss):
            sizes.append(tape_size(loss))
            real_backward(loss)

        monkeypatch.setattr(ns, "backward", measured)
        peaks = []
        for trajectories in (distinct, distinct * 10):
            sizes.clear()
            # the first step's Adam update makes its starts stale
            kept = with_starts(model, trajectories)
            train._policy_step(model, kept, quick_cfg(), {}, 0)
            # one backward per trajectory, and one per rationale's shared MPN
            assert len(sizes) == len(kept) + rationales
            peaks.append(max(sizes))
        assert peaks[0] == peaks[1]

    def test_non_finite_trajectory_raises_before_any_step(self, monkeypatch):
        model = toy_model(toy_corpus(), seed=0)
        kept = with_starts(model, kept_trajectories(model, 6))
        before = {k: t.data.copy() for k, t in model.params.items()}
        real = train.trace_log_likelihood
        calls = []

        def poisoned(*args, **kwargs):
            calls.append(1)
            ll = real(*args, **kwargs)
            return ns.scale(ll, np.nan) if len(calls) == 4 else ll

        monkeypatch.setattr(train, "trace_log_likelihood", poisoned)
        adam_state = {}
        with pytest.raises(TrainingError, match="iteration 7"):
            train._policy_step(model, kept, quick_cfg(), adam_state, 7)
        assert adam_state == {}
        for name, data in before.items():
            assert np.array_equal(model.params[name].data, data), name


class TestRationaleDistribution:
    def test_equal_rewards_give_uniform(self):
        dist_probs = _softmax_probs([0.4, 0.4, 0.4], 0.02)
        assert np.allclose(dist_probs, [1 / 3] * 3)

    def test_worked_two_rationale_value(self):
        probs = _softmax_probs([1.0, 0.9], 0.02)
        assert probs[0] == pytest.approx(0.99331, abs=1e-5)
        assert probs[1] == pytest.approx(0.00669, abs=1e-5)

    def test_large_entropy_weight_flattens(self):
        probs = _softmax_probs([1.0, 0.0], 1e6)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-6)

    def test_estimates_from_sampling(self):
        corpus = toy_corpus()
        model = toy_model(corpus, seed=15)
        vocab = small_vocab()
        dist = rationale_distribution(
            model, vocab, [ConstSpec(1.0)], entropy_weight=0.02, samples_per_rationale=5, seed=2,
            max_steps=60,
        )
        assert np.allclose(dist.reward_estimates, 1.0)
        assert np.allclose(dist.probabilities, 0.5)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in dist.probabilities)

    def test_entropy_weight_validation(self):
        model = toy_model(toy_corpus())
        with pytest.raises(TrainingError):
            rationale_distribution(model, small_vocab(), [ConstSpec(1.0)], entropy_weight=0.0,
                                   samples_per_rationale=20, max_steps=60)


def _softmax_probs(rewards, lam):
    arr = np.array(rewards) / lam
    arr -= arr.max()
    p = np.exp(arr)
    return p / p.sum()


class TestSampleMolecules:
    def _dist(self, model, vocab, probs):
        from molrationale.train import RationaleDistribution

        return RationaleDistribution(
            rationales=tuple(vocab.entries),
            reward_estimates=np.zeros(len(vocab.entries)),
            probabilities=np.array(probs),
        )

    def test_point_mass_provenance(self):
        corpus = toy_corpus()
        model = toy_model(corpus, seed=20)
        vocab = small_vocab()
        dist = self._dist(model, vocab, [1.0, 0.0])
        rng = np.random.default_rng(3)
        out = sample_molecules(model, dist, 20, rng, max_steps=60)
        assert len(out) == 20
        assert all(key == vocab.entries[0].key for _, key in out)

    def test_zero_samples(self):
        corpus = toy_corpus()
        model = toy_model(corpus)
        dist = self._dist(model, small_vocab(), [0.5, 0.5])
        assert sample_molecules(model, dist, 0, np.random.default_rng(0), max_steps=60) == []

    def test_rationale_frequencies_multinomial(self):
        corpus = toy_corpus()
        model = toy_model(corpus, seed=25)
        vocab = small_vocab()
        probs = [0.8, 0.2]
        dist = self._dist(model, vocab, probs)
        rng = np.random.default_rng(8)
        n = 10000
        out = sample_molecules(model, dist, n, rng, max_steps=60)
        keys = [r.key for r in dist.rationales]
        counts = {k: 0 for k in keys}
        for _, key in out:
            counts[key] += 1
        for k, p in zip(keys, probs):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[k] / n - p) <= 3 * se

    def test_samples_contain_their_rationales(self):
        corpus = toy_corpus()
        model = toy_model(corpus, seed=30)
        vocab = small_vocab()
        dist = self._dist(model, vocab, [0.5, 0.5])
        by_key = {r.key: r for r in vocab.entries}
        out = sample_molecules(model, dist, 50, np.random.default_rng(4), max_steps=60)
        for g, key in out:
            assert contains_subgraph(g, by_key[key].combined) is not None


class TestSuccessOfModel:
    def test_const_property(self):
        corpus = toy_corpus()
        model = toy_model(corpus)
        assert success_of_model(model, small_vocab(), [ConstSpec(1.0)], 10, seed=0, max_steps=60) == 1.0
        assert success_of_model(model, small_vocab(), [ConstSpec(0.0)], 10, seed=0, max_steps=60) == 0.0
