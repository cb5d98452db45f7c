"""Output checks for each workload.

Each check recomputes a result apart from the package (networkx matchers, a
bond-order sum, set-based Tanimoto, the closed-form softmax, finite
differences) or tests a property the method must have.  None compares against
a stored copy of an earlier output.  Artifacts are read with the package's own
loaders; each check returns a list of failure messages, empty when it passes.
"""

from __future__ import annotations

import csv
import json
import math

import networkx as nx
import numpy as np
from networkx.algorithms import isomorphism as iso

from molrationale import cli
from molrationale import numsub as ns
from molrationale.chemgraph import ChemError, MolGraph, canonical_key
from molrationale.extract import RationaleVocab
from molrationale.fingerprint import morgan_fingerprint
from molrationale.genmodel import GenModel, log_likelihood_tensor
from molrationale.train import make_pretrain_pairs

MAX_VALENCE = {"C": 4, "N": 3, "O": 2, "S": 6, "P": 5, "F": 1, "Cl": 1, "Br": 1, "I": 1}
BOND_VALUE = {"single": 1.0, "double": 2.0, "triple": 3.0, "aromatic": 1.5}
NOVELTY_CUTOFF = 0.4
_NODE_MATCH = iso.categorical_node_match("label", None)
_EDGE_MATCH = iso.categorical_edge_match("order", None)


def to_nx(g: MolGraph) -> nx.Graph:
    h = nx.Graph()
    for i, a in enumerate(g.atoms):
        h.add_node(i, label=(a.element, a.charge, a.aromatic))
    for b in g.bonds:
        h.add_edge(b.u, b.v, order=b.order)
    return h


def _matcher(big: nx.Graph, small: nx.Graph) -> iso.GraphMatcher:
    return iso.GraphMatcher(big, small, node_match=_NODE_MATCH, edge_match=_EDGE_MATCH)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# rationale vocabularies (extract and merge, in the set-up of both workloads)

def check_vocabularies(cfg: cli.RunConfig) -> list[str]:
    errors: list[str] = []
    run_dir = cfg.run_dir
    mols, labels = cli._load_corpus(cfg)
    specs = cli._load_predictors(cfg)
    limit = cfg.section("extract")["max_molecules"]
    max_atoms = cfg.section("extract")["max_atoms"]
    vocabs = {}
    for spec in specs:
        positives = [g for g, lab in zip(mols, labels[spec.name]) if lab == 1][:limit]
        # a source names its molecule by canonical key, and the corpus may hold
        # one molecule several times in different atom orders: the source's
        # atoms must induce the rationale in one of those copies
        by_key: dict[str, list[nx.Graph]] = {}
        for g in positives:
            by_key.setdefault(canonical_key(g), []).append(to_nx(g))
        vocab = RationaleVocab.load(run_dir / f"vocab_{spec.name}.json")
        vocabs[spec.name] = vocab
        for r in vocab.entries:
            where = f"{spec.name} rationale {r.key[:40]}"
            if r.n_atoms > max_atoms:
                errors.append(f"{where}: {r.n_atoms} atoms > bound {max_atoms}")
            score = spec.score(r.combined)
            if score < spec.threshold or not _close(score, r.scores[spec.name], 1e-12):
                errors.append(f"{where}: rescored {score} vs stored {r.scores[spec.name]}")
            r_nx = to_nx(r.combined)
            for mol_key, atoms in r.sources:
                copies = by_key.get(mol_key)
                if copies is None:
                    errors.append(f"{where}: source is not a searched positive")
                elif not any(_induces(g, atoms, r_nx) for g in copies):
                    errors.append(f"{where}: source atoms {atoms} do not induce the rationale")
    return errors + _check_merged(cfg, specs, vocabs)


def _induces(g: nx.Graph, atoms, r_nx: nx.Graph) -> bool:
    """The atoms are distinct and induce a connected subgraph of g that is
    isomorphic to the rationale."""
    sub = g.subgraph(atoms)
    return (
        0 < len(set(atoms)) == len(atoms) == sub.number_of_nodes()
        and nx.is_connected(sub)
        and nx.is_isomorphic(sub, r_nx, node_match=_NODE_MATCH, edge_match=_EDGE_MATCH)
    )


def _check_merged(cfg, specs, vocabs) -> list[str]:
    errors = []
    merged = RationaleVocab.load(cfg.run_dir / "vocab_multi.json")
    ranked = {
        s.name: [to_nx(r.combined) for r in sorted(
            vocabs[s.name].entries, key=lambda r, n=s.name: (-r.scores[n], r.key))]
        for s in specs
    }
    for r in merged.entries:
        where = f"merged rationale {r.key[:40]}"
        m_nx = to_nx(r.combined)
        for spec in specs:
            if spec.score(r.combined) < spec.threshold:
                errors.append(f"{where}: below the {spec.name} threshold")
            if not any(_matcher(m_nx, p).subgraph_is_monomorphic() for p in ranked[spec.name]):
                errors.append(f"{where}: contains no {spec.name} rationale")
    return errors


# ---------------------------------------------------------------------------
# pretrain

def check_pretrain(cfg: cli.RunConfig) -> list[str]:
    errors = []
    run_dir = cfg.run_dir
    with open(run_dir / "pretrain_loss.csv") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    if len(losses) != cfg.section("train")["pretrain_epochs"] or not all(map(math.isfinite, losses)):
        errors.append(f"pretrain losses not finite or wrong count: {losses}")
    model = GenModel.load(str(run_dir / "pretrain.ckpt"))
    bad = [k for k, t in model.params.items() if not np.all(np.isfinite(t.data))]
    if bad:
        errors.append(f"non-finite parameters: {bad}")
        return errors
    mols, _ = cli._load_corpus(cfg)
    rng = np.random.default_rng([cfg.seed, 31337])
    rationale, g = make_pretrain_pairs([mols[0]], 20, 1, rng)[0]
    z = rng.standard_normal(model.latent)
    mapping = dict(enumerate(rationale.sources[0][1]))

    def ll() -> ns.Tensor:
        return log_likelihood_tensor(model, g, rationale, z, mapping=mapping)

    ns.zero_grads(model.params)
    out = ll()
    if not out.data <= 0.0:
        errors.append(f"probe log-likelihood {float(out.data)} > 0")
    ns.backward(out)
    direction = {k: rng.standard_normal(t.data.shape) for k, t in model.params.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    analytic = sum(
        float(np.sum(t.grad * direction[k])) for k, t in model.params.items() if t.grad is not None
    ) / norm
    eps = 1e-6
    values = []
    for sign in (1.0, -1.0):
        for k, t in model.params.items():
            t.data = t.data + sign * eps * direction[k] / norm
        with ns.no_grad():
            values.append(float(ll().data))
        for k, t in model.params.items():
            t.data = t.data - sign * eps * direction[k] / norm
    numeric = (values[0] - values[1]) / (2 * eps)
    if not _close(analytic, numeric, 1e-4 * max(1.0, abs(numeric))):
        errors.append(f"probe gradient {analytic} vs finite difference {numeric}")
    return errors


# ---------------------------------------------------------------------------
# generate

def valence_ok(g: MolGraph) -> bool:
    integer = [0.0] * g.n
    aromatic = [0] * g.n
    for b in g.bonds:
        for end in (b.u, b.v):
            if b.order == "aromatic":
                aromatic[end] += 1
            else:
                integer[end] += BOND_VALUE[b.order]
    return all(
        integer[i] + math.floor(BOND_VALUE["aromatic"] * aromatic[i]) <= MAX_VALENCE[a.element]
        for i, a in enumerate(g.atoms)
    )


def tanimoto(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    return 1.0 if union == 0 else len(a & b) / union


def check_generate(cfg: cli.RunConfig) -> list[str]:
    errors = []
    run_dir = cfg.run_dir
    vocab = {r.key: r for r in RationaleVocab.load(run_dir / "vocab_multi.json").entries}
    samples = []
    with open(run_dir / "samples.jsonl") as fh:
        for line_no, line in enumerate(fh, 1):
            doc = json.loads(line)
            try:
                g = cli._parse_sample_line(doc["smiles"])
            except ChemError as exc:
                errors.append(f"sample {line_no}: unparsable: {exc}")
                continue
            samples.append(g)
            r = vocab.get(doc["rationale"])
            if r is None:
                errors.append(f"sample {line_no}: unknown rationale")
            elif not _matcher(to_nx(g), to_nx(r.combined)).subgraph_is_isomorphic():
                errors.append(f"sample {line_no}: rationale is not an induced subgraph")
            if not valence_ok(g):
                errors.append(f"sample {line_no}: valence exceeded")
    if len(samples) != cfg.section("sample")["n"]:
        errors.append(f"{len(samples)} samples, expected {cfg.section('sample')['n']}")
    errors += _check_evaluation(cfg, samples)
    errors += _check_distribution(cfg, vocab)
    return errors


def _check_evaluation(cfg, samples) -> list[str]:
    mols, labels = cli._load_corpus(cfg)
    specs = cli._load_predictors(cfg)
    names = [s.name for s in specs]
    train_pos = [g for i, g in enumerate(mols) if all(labels[n][i] == 1 for n in names)] or [
        g for i, g in enumerate(mols) if any(labels[n][i] == 1 for n in names)
    ]
    positives = [g for g in samples if all(s.score(g) >= s.threshold for s in specs)]
    fps = [morgan_fingerprint(g).bits for g in positives]
    ref = [morgan_fingerprint(g).bits for g in train_pos]
    want = {"success": len(positives) / len(samples) if samples else None}
    n = len(fps)
    want["diversity"] = (
        1.0 - sum(tanimoto(fps[i], fps[j]) for i in range(n) for j in range(i + 1, n)) * 2 / (n * (n - 1))
        if n >= 2 else None
    )
    want["novelty"] = (
        sum(max(tanimoto(f, r) for r in ref) < NOVELTY_CUTOFF for f in fps) / n
        if n and ref else None
    )
    with open(cfg.run_dir / "evaluation.csv") as fh:
        row = next(csv.DictReader(fh))
    errors = []
    for key, value in want.items():
        got = None if row[key] == "" else float(row[key])
        if (got is None) != (value is None) or (value is not None and not _close(got, value, 5.1e-7)):
            errors.append(f"evaluation {key}: {row[key]!r} vs recomputed {value}")
    return errors


def _check_distribution(cfg, vocab) -> list[str]:
    doc = json.loads((cfg.run_dir / "distribution.json").read_text())
    lam = cfg.section("train")["entropy_weight"]
    per = cfg.section("train")["dist_samples"]
    rewards = np.array([e["reward"] for e in doc["entries"]])
    probs = np.array([e["probability"] for e in doc["entries"]])
    weights = np.exp((rewards - rewards.max()) / lam)
    errors = []
    if sorted(e["key"] for e in doc["entries"]) != sorted(vocab):
        errors.append("distribution keys differ from the merged vocabulary")
    if not np.allclose(rewards * per, np.round(rewards * per), atol=1e-9):
        errors.append("distribution rewards are not hit fractions of dist_samples")
    if not np.allclose(probs, weights / weights.sum(), rtol=1e-9, atol=1e-12):
        errors.append("distribution probabilities differ from exp(r/lambda)/sum")
    return errors


CHECKS = {
    "pretrain": lambda cfg: check_vocabularies(cfg) + check_pretrain(cfg),
    "generate": lambda cfg: check_vocabularies(cfg) + check_generate(cfg),
}
