"""Microbenchmarks of the decoder: one sampled completion, fresh and from a
prepared start; one StepLogits step; the decoder MPN forward and backward on
a desk molecule; one pretraining pair's teacher-forced likelihood with its
backward pass; one desk pre-training batch of 16 pairs, forward and
backward, with the tape's tracemalloc peak; and one fine-tuning policy step
over 40 kept completions of the rationale. The model has the desk widths
(hidden 64, latent 16, three rounds) over the atom types of a README desk
corpus (9-14 atoms, ring probability 0.25, amide and phenol motifs planted
at 0.2), with its initial parameters and an expand bias of 1, so that the
timed completion adds three atoms in 14 decisions.

Not part of the test suite; run with

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import tracemalloc

import numpy as np
import pytest

from molrationale import numsub as ns
from molrationale.chemgraph import parse_smiles
from molrationale.extract import Rationale
from molrationale.genmodel import (
    BOND_TYPES,
    DecoderState,
    GenModel,
    StepLogits,
    TruncationError,
    _decoder_vectors,
    _mpn,
    atom_types_from_corpus,
    complete_with_trace,
    log_likelihood_tensor,
    prepare_start,
    prior_latent,
)
from molrationale.synthetic import CorpusSpec, generate_corpus
from molrationale.train import TrainConfig, _pair_loss, _policy_step, make_pretrain_pairs

# the two desk motifs superposed, grown from the amide N and the phenol O
RATIONALE = Rationale(
    parse_smiles("NC(=O)c1ccc(O)cc1"), scores={}, peripheral=(0, 7)
)

# the desk training settings, cli._DEFAULTS["train"]; the seed is not read here
CFG = TrainConfig(
    entropy_weight=0.02, samples_per_rationale=30, iterations=10, kl_weight=0.3,
    learning_rate=1e-3, batch_size=16, pretrain_epochs=8, max_subgraph_atoms=20,
    pairs_per_molecule=2, max_decode_steps=60, dist_samples=20, seed=0,
)


@pytest.fixture(scope="module")
def desk():
    spec = CorpusSpec(size=160, atoms_min=9, atoms_max=14, ring_prob=0.25,
                      decoy_prob=0.25, unique=False)
    motifs = {"amide": parse_smiles("NC(=O)c1ccccc1"), "phenol": parse_smiles("Oc1ccccc1")}
    mols, _ = generate_corpus(spec, motifs, {"amide": 0.2, "phenol": 0.2}, seed=11)
    model = GenModel(atom_types_from_corpus(mols), hidden=64, latent=16, rounds=3, seed=11)
    model.params["expand_b2"].data = np.array([1.0])
    return mols, model


def decode(model, start):
    rng = np.random.default_rng(10)
    z = prior_latent(model, rng)
    try:
        return len(complete_with_trace(model, RATIONALE, z, rng, max_steps=60, start=start)[1])
    except TruncationError:
        return -1


@pytest.mark.parametrize("prepared", [False, True], ids=["fresh", "prepared"])
def test_completion(benchmark, desk, prepared):
    _, model = desk
    start = prepare_start(model, RATIONALE) if prepared else None
    assert benchmark(decode, model, start) == 14


@pytest.mark.parametrize("expanded", [False, True], ids=["declined", "expanded"])
def test_step_logits(benchmark, desk, expanded):
    """A declined step reads the expand head; an expanded one also reads the
    atom head and the first bond distribution, under the mask the walk
    computes for that decision (computed once, outside the timed call)."""
    _, model = desk
    state = DecoderState.from_rationale(model, RATIONALE)
    h, hg = _decoder_vectors(model, state)
    z = prior_latent(model, np.random.default_rng(3))
    t = int(np.argmax(StepLogits(model, state, z, h, hg).atom_probs))
    placed = state.copy()
    u = placed._append_atom(model.atom_types[t])
    mask = placed.bond_mask(u, placed.queue[0], first=True)

    def step():
        sl = StepLogits(model, state, z, h, hg)
        if expanded:
            return sl.bond_probs(int(np.argmax(sl.atom_probs)), [], mask)
        return sl.expand_prob

    benchmark(step)


def test_mpn_forward_backward(benchmark, desk):
    mols, model = desk
    g = max(mols, key=lambda m: (m.n, len(m.bonds)))
    type_ids = [model.type_of_atom(a) for a in g.atoms]
    edges = [(b.u, b.v, BOND_TYPES.index(b.order)) for b in g.bonds]

    def step():
        ns.zero_grads(model.params)
        ns.backward(ns.sum_all(_mpn(model, "dec", type_ids, edges)))

    benchmark(step)
    assert model.params["dec_u2"].grad is not None


def test_pair_likelihood_backward(benchmark, desk):
    mols, model = desk
    pairs = make_pretrain_pairs(mols, 20, 1, np.random.default_rng(5))
    rationale, g = max(pairs, key=lambda p: p[1].n - p[0].n_atoms)
    mapping = dict(enumerate(rationale.sources[0][1]))
    z = ns.const(prior_latent(model, np.random.default_rng(3)))

    def step():
        ns.zero_grads(model.params)
        ns.backward(log_likelihood_tensor(model, g, rationale, z, mapping=mapping))

    benchmark(step)
    assert model.params["bond_w2"].grad is not None


def test_pretrain_batch(benchmark, desk):
    """The loss of 16 desk pairs, as `train.pretrain` builds one batch's,
    and its backward. extra_info["tape_peak_mb"] is tracemalloc's peak over
    one untimed repetition: the most the batch's tape and its gradients held
    at once."""
    mols, model = desk
    pairs = make_pretrain_pairs(mols, CFG.max_subgraph_atoms, CFG.pairs_per_molecule,
                                np.random.default_rng(5))[:16]

    def step():
        ns.zero_grads(model.params)
        rng = np.random.default_rng(7)
        loss = ns.const(0.0)
        for rationale, g in pairs:
            loss = ns.add(loss, _pair_loss(model, rationale, g, CFG, rng))
        ns.backward(ns.scale(loss, 1.0 / len(pairs)))

    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tape_peak_mb"] = round(peak / 2**20, 2)
    benchmark(step)
    assert len(pairs) == 16 and model.params["bond_w2"].grad is not None


def test_policy_step(benchmark, desk):
    """Prepare the rationale's start, replay and back-propagate 40 sampled
    completions of it, then take the Adam step, on a copy of the desk model.
    The start is prepared inside the timed call because each repetition's
    Adam step makes the previous one stale."""
    _, model = desk
    sampled = []
    for seed in range(200):
        rng = np.random.default_rng([12, seed])
        z = prior_latent(model, rng)
        try:
            sampled.append((complete_with_trace(model, RATIONALE, z, rng, max_steps=60)[1], z))
        except TruncationError:
            continue
        if len(sampled) == 40:
            break
    copy = GenModel(model.atom_types, model.hidden, model.latent, model.rounds)
    copy.params = {k: ns.param(t.data.copy(), k) for k, t in model.params.items()}

    def step():
        start = prepare_start(copy, RATIONALE)
        _policy_step(copy, [(start, trace_ids, z) for trace_ids, z in sampled], CFG, {}, 0)

    before = copy.params["dec_u2"].data.copy()
    benchmark(step)
    # the step drops its gradients after the Adam update, so check the update
    assert len(sampled) == 40 and not np.array_equal(copy.params["dec_u2"].data, before)
