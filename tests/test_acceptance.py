"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria run at their stated tolerances against independent oracles
(exhaustive enumeration, finite differences, brute-force recomputation,
projected gradient ascent on the simplex).
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from molrationale.chemgraph import (
    canonical_key,
    contains_subgraph,
    parse_smiles,
    peripheral_deletions,
)
from molrationale.extract import Rationale, extract_rationales
from molrationale.fingerprint import BitFingerprint, morgan_fingerprint, tanimoto
from molrationale.forest import PropertySpec, auroc, train_forest
from molrationale.genmodel import (
    GenModel,
    atom_types_from_corpus,
    complete,
    log_likelihood,
    prior_latent,
)
from molrationale.merge import build_multi_vocab, max_common_substructure
from molrationale.metrics import (
    NOVELTY_CUTOFF,
    diversity,
    novelty,
    novelty_from_fingerprints,
    success_rate,
)
from molrationale.synthetic import CorpusSpec, generate_corpus
from molrationale.train import (
    TrainConfig,
    closed_form_distribution,
    finetune,
    make_pretrain_pairs,
    pretrain,
    success_of_model,
)

from helpers import (
    oracle_embeddings,
    oracle_max_common_connected_size,
    oracle_peripheral_removals,
    random_corpus,
)
from test_genmodel import enumerate_completions, tiny_model


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict}  {detail}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_planted_alert_faithfulness():
    start = time.monotonic()
    motif = parse_smiles("NC(=O)c1ccc(O)cc1")  # 10 heavy atoms
    spec = CorpusSpec(
        size=2000, atoms_min=10, atoms_max=16, ring_prob=0.25,
        decoy_prob=0.3, unique=False,
    )
    mols, labels = generate_corpus(spec, {"tox": motif}, {"tox": 0.2}, seed=101)
    data = list(zip(mols, labels["tox"]))
    order = np.random.default_rng(5).permutation(len(data))
    train = [data[i] for i in order[:1600]]
    test = [data[i] for i in order[1600:]]
    model = train_forest(train, n_trees=60, max_depth=10, seed=7)
    heldout_auroc = auroc(model, test)

    prop = PropertySpec("tox", model, threshold=0.5)
    motif_key = canonical_key(motif)
    positives = [g for g, y in data if y == 1 and prop.score(g) >= prop.threshold]
    cache: dict = {}
    exact = 0
    coverage_sum = 0.0
    for g in positives:
        rationales = extract_rationales(
            g, prop, iterations=20, c_puct=10.0, max_atoms=20, score_cache=cache
        )
        if not rationales:
            continue
        best = sorted(
            rationales, key=lambda r: (r.n_atoms, -r.scores["tox"], r.key)
        )[0]
        if best.key == motif_key:
            exact += 1
        best_atoms = set(best.sources[0][1])
        best_cov = 0.0
        for emb in oracle_embeddings(g, motif, induced=False):
            motif_atoms = set(emb.values())
            best_cov = max(best_cov, len(motif_atoms & best_atoms) / len(motif_atoms))
        coverage_sum += best_cov
    n = len(positives)
    exact_rate = exact / n
    coverage = coverage_sum / n
    elapsed = time.monotonic() - start
    ok = (
        heldout_auroc >= 0.95
        and exact_rate >= 0.40
        and coverage >= 0.80
        and elapsed < 300
    )
    report(
        1, "planted-alert faithfulness", ok,
        f"AUROC={heldout_auroc:.3f} exact={exact_rate:.3f} coverage={coverage:.3f} "
        f"n={n} time={elapsed:.0f}s",
    )


def test_criterion_2_containment_invariant():
    start = time.monotonic()
    corpus = [parse_smiles(s) for s in ["CCO", "CCN", "CC(=O)N", "c1ccccc1", "CC(C)O"]]
    model = GenModel(atom_types_from_corpus(corpus), hidden=16, latent=8, rounds=2, seed=3)
    model.params["expand_b2"].data = np.array([-1.0])
    single = Rationale(fragments=(parse_smiles("CC(=O)N"),), scores={}, peripheral=(0, 3))
    double = Rationale(
        fragments=(parse_smiles("CCO"), parse_smiles("c1ccccc1")),
        scores={},
        peripheral=(0, 2, 4),
    )
    rng = np.random.default_rng(21)
    checked = 0
    failures = 0
    for rationale in (single, double):
        for _ in range(500):
            z = prior_latent(model, rng)
            out = complete(model, rationale, z, rng, max_steps=60)
            checked += 1
            for frag in rationale.fragments:
                if contains_subgraph(out, frag) is None:
                    failures += 1
    elapsed = time.monotonic() - start
    ok = checked == 1000 and failures == 0 and elapsed < 120
    report(
        2, "containment invariant", ok,
        f"checked={checked} failures={failures} time={elapsed:.0f}s",
    )


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # Euclidean projection onto the probability simplex
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1))[0][-1]
    theta = (css[rho] - 1) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _pga_maximize(rewards: np.ndarray, lam: float, steps: int = 60000, lr: float = 0.02):
    p = np.full(len(rewards), 1.0 / len(rewards))
    for _ in range(steps):
        grad = rewards - lam * (np.log(np.maximum(p, 1e-12)) + 1.0)
        p = _project_simplex(p + lr * grad)
        p = np.maximum(p, 1e-12)
        p = p / p.sum()
    return p


def test_criterion_3_closed_form_distribution():
    # worked two-rationale value, direct evaluation
    worked = closed_form_distribution(np.array([1.0, 0.9]), 0.02)
    worked_ok = abs(worked[0] - 0.99331) < 1e-5 and abs(worked[1] - 0.00669) < 1e-5

    # frozen three-rationale toy with fully enumerable completions
    model = tiny_model()
    lam = 0.05
    rationales = [
        Rationale(fragments=(parse_smiles(s),), scores={}, peripheral=(0,))
        for s in ("O", "N", "C")
    ]
    z = np.full(model.latent, 0.2)

    def indicator(g) -> bool:  # the constraint: contains at least one Cl
        return any(a.element == "Cl" for a in g.atoms)

    rewards = []
    for r in rationales:
        total = 0.0
        for g, _trace, p in enumerate_completions(model, r, z):
            if indicator(g):
                total += p
        rewards.append(total)
    rewards = np.array(rewards)

    closed = closed_form_distribution(rewards, lam)
    oracle = _pga_maximize(rewards, lam)
    tv = 0.5 * np.abs(closed - oracle).sum()

    def objective(p):
        return float(np.dot(p, rewards) - lam * np.sum(p * np.log(p)))

    ok = worked_ok and tv <= 1e-3 and objective(closed) >= objective(oracle) - 1e-9
    report(
        3, "closed-form distribution", ok,
        f"worked=({worked[0]:.5f},{worked[1]:.5f}) rewards={np.round(rewards, 3)} TV={tv:.2e}",
    )


def test_criterion_4_finetuning_lift():
    start = time.monotonic()
    motif_a = parse_smiles("NC(=O)c1ccccc1")
    motif_b = parse_smiles("Oc1ccccc1")
    dual = parse_smiles("NC(=O)c1ccc(O)cc1")
    spec = CorpusSpec(
        size=600, atoms_min=9, atoms_max=14, ring_prob=0.25,
        decoy_prob=0.05, unique=False,
    )
    mols, labels = generate_corpus(
        spec, {"a": motif_a, "b": motif_b}, {"a": 0.18, "b": 0.18},
        seed=71, extra_plants=[(dual, 0.08)],
    )
    data_a = list(zip(mols, labels["a"]))
    data_b = list(zip(mols, labels["b"]))
    prop_a = PropertySpec("a", train_forest(data_a, n_trees=40, max_depth=10, seed=1))
    prop_b = PropertySpec("b", train_forest(data_b, n_trees=40, max_depth=10, seed=2))
    from molrationale.extract import build_vocab

    pos_a = [g for g, y in data_a if y and prop_a.score(g) >= 0.5][:25]
    pos_b = [g for g, y in data_b if y and prop_b.score(g) >= 0.5][:25]
    va = build_vocab(pos_a, prop_a, iterations=20)
    vb = build_vocab(pos_b, prop_b, iterations=20)
    multi = build_multi_vocab([va, vb], [prop_a, prop_b], shortlist_size=6)
    assert len(multi) >= 1

    model = GenModel(atom_types_from_corpus(mols), hidden=32, latent=12, rounds=2, seed=5)
    cfg = TrainConfig(
        samples_per_rationale=20, iterations=10, pretrain_epochs=3,
        pairs_per_molecule=1, batch_size=16, learning_rate=2e-3,
        max_subgraph_atoms=8, seed=9,
    )
    pairs = make_pretrain_pairs(
        mols, cfg.max_subgraph_atoms, cfg.pairs_per_molecule, np.random.default_rng(3)
    )
    pretrain(model, pairs, cfg)
    props = [prop_a, prop_b]
    before = success_of_model(model, multi, props, 500, seed=33)
    stats = finetune(model, multi, props, cfg)
    after = success_of_model(model, multi, props, 500, seed=34)
    elapsed = time.monotonic() - start
    ok = len(stats) == 10 and (after - before) >= 0.10 and elapsed < 900
    report(
        4, "fine-tuning lift", ok,
        f"before={before:.3f} after={after:.3f} lift={after - before:+.3f} time={elapsed:.0f}s",
    )


def test_criterion_5_gradient_integrity():
    from molrationale import numsub as ns
    from molrationale.genmodel import _mpn, encode as enc_fn, log_likelihood_tensor
    from test_numsub import finite_difference, max_rel_error

    corpus = [parse_smiles("CCO"), parse_smiles("CCN")]
    model = GenModel(atom_types_from_corpus(corpus), hidden=6, latent=3, rounds=2, seed=12)
    g = parse_smiles("CCO")
    sub = Rationale(
        fragments=(parse_smiles("C"),), scores={}, peripheral=(0,),
        sources=((canonical_key(g), (0,)),),
    )
    z = np.full(model.latent, 0.1)
    type_ids = [model.type_of_atom(a) for a in g.atoms]
    edges = [(b.u, b.v, ["single", "double", "triple", "aromatic", "no-bond"].index(b.order)) for b in g.bonds]

    losses = {
        "encoder message layer": lambda: ns.sum_all(
            ns.mul(_mpn(model, "enc", type_ids, edges), _mpn(model, "enc", type_ids, edges))
        ),
        "posterior heads": lambda: ns.gaussian_kl(
            enc_fn(model, g).mu, enc_fn(model, g).log_std
        ),
        "full step loss": lambda: ns.scale(
            log_likelihood_tensor(model, g, sub, z, mapping={0: 0}), -1.0
        ),
    }
    worst = {}
    for name, loss_fn in losses.items():
        ns.zero_grads(model.params)
        ns.backward(loss_fn())
        analytic = {
            k: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for k, t in model.params.items()
        }
        numeric = finite_difference(loss_fn, model.params)
        worst[name] = max_rel_error(analytic, numeric)
    ok = all(err < 1e-4 for err in worst.values())
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(5, "gradient integrity", ok, detail)


def test_criterion_6_metric_oracles():
    mols = [parse_smiles(s) for s in ["CCO", "CCN", "c1ccccc1", "CC(=O)N"]]
    fps = [morgan_fingerprint(g) for g in mols]
    # diversity against direct pair enumeration
    pair_sum = sum(
        tanimoto(fps[i], fps[j])
        for i in range(len(fps))
        for j in range(i + 1, len(fps))
    )
    n = len(mols)
    expected_div = 1.0 - (2.0 / (n * (n - 1))) * pair_sum
    div_ok = abs(diversity(mols) - expected_div) < 1e-12

    # success against direct counting
    class SizeSpec:
        name = "small"
        threshold = 0.5

        def score(self, g):
            return 1.0 if g.n <= 6 else 0.0

        def is_positive(self, g):
            return self.score(g) >= self.threshold

    expected_succ = sum(1 for g in mols if g.n <= 6) / n
    succ_ok = success_rate(mols, [SizeSpec()]) == expected_succ

    # novelty against direct counting plus the exact-0.4 boundary
    train = [parse_smiles("CCO"), parse_smiles("CCCCCCCC")]
    train_fps = [morgan_fingerprint(g) for g in train]
    expected_nov = sum(
        1 for fp in fps if max(tanimoto(fp, r) for r in train_fps) < NOVELTY_CUTOFF
    ) / len(fps)
    nov_ok = novelty(mols, train) == expected_nov

    at_cutoff = BitFingerprint(2048, 2, frozenset({1, 2}))
    ref = BitFingerprint(2048, 2, frozenset({1, 2, 3, 4, 5}))
    assert tanimoto(at_cutoff, ref) == pytest.approx(0.4, abs=1e-15)
    boundary_not_novel = novelty_from_fingerprints([at_cutoff], [ref]) == 0.0
    below = BitFingerprint(2048, 2, frozenset({1, 2, 90}))
    wide_ref = BitFingerprint(2048, 2, frozenset({1, 2, 3, 4, 5, 6}))
    assert tanimoto(below, wide_ref) < 0.4
    below_is_novel = novelty_from_fingerprints([below], [wide_ref]) == 1.0

    ok = div_ok and succ_ok and nov_ok and boundary_not_novel and below_is_novel
    report(6, "metric oracles", ok, f"div={diversity(mols):.4f} boundary(0.4)=not-novel")


def test_criterion_7_sampler_likelihood_consistency():
    model = tiny_model()
    r = Rationale(fragments=(parse_smiles("O"),), scores={}, peripheral=(0,))
    z = np.full(model.latent, 0.1)
    results = enumerate_completions(model, r, z)
    total_mass = sum(p for _, _, p in results)
    mass_ok = total_mass <= 1.0 + 1e-6

    by_graph: dict[str, float] = {}
    trajs: dict[str, list[float]] = {}
    rep: dict[str, object] = {}
    for g, _trace, p in results:
        key = canonical_key(g)
        by_graph[key] = by_graph.get(key, 0.0) + p
        trajs.setdefault(key, []).append(p)
        rep.setdefault(key, g)

    # teacher-forced likelihood reproduces its trajectory's enumerated mass
    ll_ok = True
    for key, g in rep.items():
        ll = math.exp(log_likelihood(model, g, r, z, mapping={0: 0}))
        if not any(abs(ll - p) < 1e-9 for p in trajs[key]):
            ll_ok = False
        if ll > by_graph[key] + 1e-9:
            ll_ok = False

    n = 100000
    rng = np.random.default_rng(777)
    counts: dict[str, int] = {}
    for _ in range(n):
        out = complete(model, r, z, rng, max_steps=10)
        key = canonical_key(out)
        counts[key] = counts.get(key, 0) + 1
    freq_ok = set(counts) <= set(by_graph)
    worst_sigma = 0.0
    for key, p in by_graph.items():
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        observed = counts.get(key, 0) / n
        sigmas = abs(observed - p) / se
        worst_sigma = max(worst_sigma, sigmas)
        if sigmas > 3.0:
            freq_ok = False

    ok = mass_ok and ll_ok and freq_ok
    report(
        7, "sampler/likelihood consistency", ok,
        f"mass={total_mass:.9f} graphs={len(by_graph)} worst|z|={worst_sigma:.2f}",
    )


def test_criterion_8_oracle_equivalences():
    named = [
        "CCC", "CCCC", "CC(C)C", "CC1CC1", "C1CCCCC1", "Cc1ccccc1",
        "CC1CCC1C", "OC1CCC1", "C1CC1C1CC1", "CC(=O)NC", "c1ccncc1CC",
    ]
    corpus = [parse_smiles(s) for s in named] + random_corpus(
        80, seed=5, atoms_min=3, atoms_max=12, ring_prob=0.4
    )
    deletions_checked = 0
    deletions_ok = True
    for g in corpus:
        if g.n > 12:
            continue
        got = {
            ("bond" if d.kind == "peripheral-bond" else "ring", d.atoms, d.bonds)
            for d in peripheral_deletions(g)
        }
        if got != oracle_peripheral_removals(g):
            deletions_ok = False
        deletions_checked += 1

    import itertools

    mcs_pool = [
        parse_smiles(s)
        for s in ["CCO", "CCN", "C1CC1", "CCC", "C=CC", "CC(=O)N", "CC(C)C", "OCC", "C1CCC1"]
    ]
    mcs_checked = 0
    mcs_ok = True
    for a, b in itertools.combinations(mcs_pool, 2):
        if a.n > 8 or b.n > 8:
            continue
        mappings = max_common_substructure(a, b)
        got = max((len(m) for m in mappings), default=0)
        if got != oracle_max_common_connected_size(a, b):
            mcs_ok = False
        mcs_checked += 1

    ok = deletions_ok and mcs_ok and deletions_checked >= 50 and mcs_checked >= 20
    report(
        8, "oracle equivalences", ok,
        f"deletions_checked={deletions_checked} mcs_checked={mcs_checked}",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    from molrationale.cli import EXIT_OK, main

    def run(tag):
        run_dir = tmp_path / tag
        cfg = {
            "run_dir": str(run_dir),
            "seed": 13,
            "corpus": {
                "size": 150, "atoms_min": 9, "atoms_max": 13,
                "ring_prob": 0.25, "decoy_prob": 0.1, "unique": False,
            },
            "properties": [
                {"name": "amide", "motif": "NC(=O)c1ccccc1", "plant_prob": 0.25},
            ],
            "forest": {"trees": 16, "max_depth": 8},
            "extract": {"iterations": 20, "c_puct": 10.0, "max_atoms": 20, "max_molecules": 12},
            "merge": {"shortlist": 4},
            "model": {"hidden": 16, "latent": 8, "rounds": 2},
            "train": {
                "samples_per_rationale": 4, "iterations": 2,
                "pretrain_epochs": 2, "pairs_per_molecule": 1, "batch_size": 16,
            },
            "sample": {"n": 25},
        }
        cfg_file = tmp_path / f"{tag}.json"
        cfg_file.write_text(json.dumps(cfg))
        assert main(["run-all", "--config", str(cfg_file)]) == EXIT_OK
        return run_dir

    d1 = run("first")
    d2 = run("second")
    same_eval = (d1 / "evaluation.csv").read_bytes() == (d2 / "evaluation.csv").read_bytes()
    same_samples = (d1 / "samples.smi").read_bytes() == (d2 / "samples.smi").read_bytes()
    same_faith = (d1 / "faithfulness.json").read_bytes() == (d2 / "faithfulness.json").read_bytes()
    ok = same_eval and same_samples and same_faith
    report(
        9, "pipeline determinism", ok,
        f"evaluation={same_eval} samples={same_samples} faithfulness={same_faith}",
    )
