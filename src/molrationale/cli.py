"""Pipeline orchestration: synthetic data, predictor training, rationale
extraction and merging, generator pre-training and fine-tuning, sampling,
evaluation, and the planted-motif faithfulness experiment.

Every stage writes its artifacts plus a manifest recording the config hash
and input hashes, and refuses mismatched upstream artifacts unless --force.
Exit codes: 0 success, 2 config error, 3 missing artifact, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import synthetic
from .chemgraph import (
    ChemError,
    MolGraph,
    canonical_key,
    connected_components,
    embeddings,
    induced_subgraph,
    load_smiles_lines,
    parse_smiles,
    write_smiles,
)
from .extract import RationaleVocab, build_vocab
from .forest import ForestModel, PropertySpec, auroc, read_property_csv, train_forest
from .genmodel import GenModel, GenModelError, atom_types_from_corpus
from .merge import build_multi_vocab
from .train import (
    GenerationError,
    RationaleDistribution,
    TrainConfig,
    TrainingError,
    finetune,
    make_pretrain_pairs,
    pretrain,
    rationale_distribution,
    sample_molecules,
)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


class MissingArtifactError(RuntimeError):
    pass


_PAPER_PRESET = {
    "model": {"hidden": 400, "latent": 20, "rounds": 3},
    "extract": {"iterations": 20, "c_puct": 10.0, "max_atoms": 20},
    "train": {
        "entropy_weight": 0.02,
        "samples_per_rationale": 200,
        "iterations": 50,
        "dist_samples": 20,
    },
}

_DEFAULTS = {
    "preset": "desk",
    "seed": 7,
    "corpus": {"size": 800, "atoms_min": 9, "atoms_max": 14, "ring_prob": 0.25, "decoy_prob": 0.25, "unique": False},
    "forest": {"trees": 60, "max_depth": 12},
    "extract": {"iterations": 20, "c_puct": 10.0, "max_atoms": 20, "max_molecules": None},
    "merge": {"shortlist": 8},
    "model": {"hidden": 64, "latent": 16, "rounds": 3},
    "train": {
        "entropy_weight": 0.02,
        "samples_per_rationale": 30,
        "iterations": 10,
        "kl_weight": 0.3,
        "learning_rate": 1e-3,
        "batch_size": 16,
        "pretrain_epochs": 8,
        "max_subgraph_atoms": 20,
        "pairs_per_molecule": 2,
        "max_decode_steps": 60,
        "dist_samples": 20,
    },
    "sample": {"n": 500},
}


@dataclass
class RunConfig:
    raw: dict
    path: Path

    @property
    def run_dir(self) -> Path:
        return Path(self.raw["run_dir"])

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def section(self, name: str) -> dict:
        return self.raw[name]

    @property
    def properties(self) -> list[dict]:
        return self.raw["properties"]

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def train_config(self) -> TrainConfig:
        t = self.section("train")
        try:
            return TrainConfig(
                entropy_weight=t["entropy_weight"],
                samples_per_rationale=t["samples_per_rationale"],
                iterations=t["iterations"],
                kl_weight=t["kl_weight"],
                learning_rate=t["learning_rate"],
                batch_size=t["batch_size"],
                pretrain_epochs=t["pretrain_epochs"],
                max_subgraph_atoms=t["max_subgraph_atoms"],
                pairs_per_molecule=t["pairs_per_molecule"],
                max_decode_steps=t["max_decode_steps"],
                dist_samples=t["dist_samples"],
                seed=self.seed,
            )
        except ValueError as exc:
            raise ConfigError(f"train section: {exc}") from exc


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        user = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    merged = _deep_merge(_DEFAULTS, user)
    preset = merged.get("preset", "desk")
    if preset == "paper":
        merged = _deep_merge(merged, _PAPER_PRESET)
    elif preset != "desk":
        raise ConfigError(f"unknown preset {preset!r} (expected 'desk' or 'paper')")
    if "run_dir" not in merged:
        raise ConfigError("config must set run_dir")
    if not merged.get("properties"):
        raise ConfigError("config must define at least one property")
    for p in merged["properties"]:
        if "name" not in p or "motif" not in p:
            raise ConfigError("each property needs a name and a motif SMILES")
        p.setdefault("threshold", 0.5)
        p.setdefault("plant_prob", 0.2)
        try:
            parse_smiles(p["motif"])
        except ChemError as exc:
            raise ConfigError(f"property {p['name']}: bad motif: {exc}") from exc
    cfg = RunConfig(raw=merged, path=path)
    cfg.train_config()  # rejects a bad train section before any stage writes
    return cfg


# ---------------------------------------------------------------------------
# Artifacts and manifests

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(cfg: RunConfig, stage: str, inputs: list[Path], outputs: list[Path]) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "stage": stage,
        "config_hash": cfg.config_hash,
        "inputs": {p.name: _sha256(p) for p in sorted(inputs)},
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    path = cfg.run_dir / f"{stage}.manifest.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _require_stage(cfg: RunConfig, stage: str, needed_by: str, force: bool) -> None:
    path = cfg.run_dir / f"{stage}.manifest.json"
    if not path.exists():
        raise MissingArtifactError(
            f"{needed_by} needs artifacts from '{stage}'; run `molrationale {stage}` first"
        )
    doc = json.loads(path.read_text())
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported schema version")
    if doc.get("config_hash") != cfg.config_hash and not force:
        raise ConfigError(
            f"{path}: artifacts were produced with a different config; rerun or use --force"
        )


def _corpus_paths(cfg: RunConfig) -> tuple[Path, Path]:
    return cfg.run_dir / "corpus.smi", cfg.run_dir / "properties.csv"


def _load_corpus(cfg: RunConfig) -> tuple[list[MolGraph], dict[str, list[int]]]:
    corpus_path, props_path = _corpus_paths(cfg)
    mols = load_smiles_lines(corpus_path)
    names, _smiles, rows = read_property_csv(props_path)
    labels = {name: [row[i] for row in rows] for i, name in enumerate(names)}
    return mols, labels


def _load_predictors(cfg: RunConfig) -> list[PropertySpec]:
    specs = []
    for p in cfg.properties:
        model_path = cfg.run_dir / f"forest_{p['name']}.json"
        specs.append(
            PropertySpec(
                name=p["name"],
                model=ForestModel.load(model_path),
                threshold=p["threshold"],
            )
        )
    return specs


def _split_indices(n: int, seed: int, holdout: float = 0.2) -> tuple[list[int], list[int]]:
    rng = np.random.default_rng([seed, 524287])
    order = rng.permutation(n)
    cut = int(n * (1.0 - holdout))
    return list(order[:cut]), list(order[cut:])


# ---------------------------------------------------------------------------
# Stages

def cmd_gen_synthetic(cfg: RunConfig, force: bool) -> None:
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    c = cfg.section("corpus")
    spec = synthetic.CorpusSpec(
        size=c["size"],
        atoms_min=c["atoms_min"],
        atoms_max=c["atoms_max"],
        ring_prob=c["ring_prob"],
        decoy_prob=c["decoy_prob"],
        unique=c["unique"],
    )
    motifs = {p["name"]: parse_smiles(p["motif"]) for p in cfg.properties}
    plant = {p["name"]: p["plant_prob"] for p in cfg.properties}
    mols, labels = synthetic.generate_corpus(spec, motifs, plant, cfg.seed)
    corpus_path, props_path = _corpus_paths(cfg)
    with open(corpus_path, "w") as fh:
        for g in mols:
            fh.write(write_smiles(g) + "\n")
    names = sorted(labels)
    with open(props_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles"] + names)
        for i, g in enumerate(mols):
            writer.writerow([write_smiles(g)] + [labels[name][i] for name in names])
    (cfg.run_dir / "config.snapshot.json").write_text(
        json.dumps(cfg.raw, sort_keys=True, indent=2)
    )
    _write_manifest(cfg, "gen-synthetic", [], [corpus_path, props_path])
    for name in names:
        pos = sum(labels[name])
        print(f"property {name}: {pos}/{len(mols)} positive ({pos / len(mols):.1%})")


def cmd_train_predictor(cfg: RunConfig, force: bool) -> None:
    _require_stage(cfg, "gen-synthetic", "train-predictor", force)
    mols, labels = _load_corpus(cfg)
    f = cfg.section("forest")
    train_idx, test_idx = _split_indices(len(mols), cfg.seed)
    outputs = []
    scores = {}
    for p in cfg.properties:
        name = p["name"]
        data = [(mols[i], labels[name][i]) for i in train_idx]
        model = train_forest(
            data, n_trees=f["trees"], max_depth=f["max_depth"], seed=cfg.seed
        )
        heldout = [(mols[i], labels[name][i]) for i in test_idx]
        scores[name] = auroc(model, heldout)
        out = cfg.run_dir / f"forest_{name}.json"
        model.save(out)
        outputs.append(out)
        print(f"property {name}: held-out AUROC {scores[name]:.4f}")
    (cfg.run_dir / "predictor_scores.json").write_text(
        json.dumps({k: round(v, 6) for k, v in sorted(scores.items())}, sort_keys=True)
    )
    outputs.append(cfg.run_dir / "predictor_scores.json")
    _write_manifest(cfg, "train-predictor", list(_corpus_paths(cfg)), outputs)


def cmd_extract(cfg: RunConfig, force: bool) -> None:
    _require_stage(cfg, "train-predictor", "extract", force)
    mols, labels = _load_corpus(cfg)
    specs = _load_predictors(cfg)
    e = cfg.section("extract")
    outputs = []
    for spec in specs:
        positives = [g for g, lab in zip(mols, labels[spec.name]) if lab == 1]
        limit = e.get("max_molecules")
        if limit:
            positives = positives[: int(limit)]
        vocab = build_vocab(
            positives,
            spec,
            iterations=e["iterations"],
            c_puct=e["c_puct"],
            max_atoms=e["max_atoms"],
        )
        out = cfg.run_dir / f"vocab_{spec.name}.json"
        vocab.save(out)
        outputs.append(out)
        print(f"property {spec.name}: {len(vocab)} rationales from {len(positives)} positives")
    _write_manifest(cfg, "extract", [], outputs)


def cmd_merge(cfg: RunConfig, force: bool) -> None:
    _require_stage(cfg, "extract", "merge", force)
    specs = _load_predictors(cfg)
    vocabs = [
        RationaleVocab.load(cfg.run_dir / f"vocab_{s.name}.json") for s in specs
    ]
    if len(specs) == 1:
        multi = vocabs[0]
    else:
        multi = build_multi_vocab(vocabs, specs, cfg.section("merge")["shortlist"])
    out = cfg.run_dir / "vocab_multi.json"
    multi.save(out)
    _write_manifest(cfg, "merge", [], [out])
    print(f"multi-property vocabulary: {len(multi)} rationales")


def cmd_pretrain(cfg: RunConfig, force: bool) -> None:
    _require_stage(cfg, "gen-synthetic", "pretrain", force)
    mols, _ = _load_corpus(cfg)
    tcfg = cfg.train_config()
    m = cfg.section("model")
    model = GenModel(
        atom_types_from_corpus(mols),
        hidden=m["hidden"],
        latent=m["latent"],
        rounds=m["rounds"],
        seed=cfg.seed,
    )
    rng = np.random.default_rng([cfg.seed, 997])
    pairs = make_pretrain_pairs(
        mols, tcfg.max_subgraph_atoms, tcfg.pairs_per_molecule, rng
    )
    trace = pretrain(model, pairs, tcfg)
    stem = str(cfg.run_dir / "pretrain.ckpt")
    model.save(stem)
    loss_path = cfg.run_dir / "pretrain_loss.csv"
    with open(loss_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for i, loss in enumerate(trace):
            writer.writerow([i, f"{loss:.6f}"])
    _write_manifest(
        cfg, "pretrain", list(_corpus_paths(cfg)),
        [Path(stem + ".json"), Path(stem + ".bin"), loss_path],
    )
    print(f"pretrain: {len(pairs)} pairs, loss {trace[0]:.3f} -> {trace[-1]:.3f}")


def cmd_finetune(cfg: RunConfig, force: bool) -> None:
    _require_stage(cfg, "pretrain", "finetune", force)
    _require_stage(cfg, "merge", "finetune", force)
    mols, labels = _load_corpus(cfg)
    specs = _load_predictors(cfg)
    vocab = RationaleVocab.load(cfg.run_dir / "vocab_multi.json")
    model = GenModel.load(str(cfg.run_dir / "pretrain.ckpt"))
    tcfg = cfg.train_config()
    train_pos = _train_positives(mols, labels, specs)
    stats = finetune(model, vocab, specs, tcfg, train_positives=train_pos)
    stem = str(cfg.run_dir / "finetune.ckpt")
    model.save(stem)
    stats_path = cfg.run_dir / "finetune_stats.csv"
    with open(stats_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "success", "diversity", "novelty", "kept"])
        for s in stats:
            writer.writerow(
                [
                    s.iteration,
                    f"{s.success:.6f}",
                    "" if s.diversity is None else f"{s.diversity:.6f}",
                    "" if s.novelty is None else f"{s.novelty:.6f}",
                    s.kept,
                ]
            )
    dist = rationale_distribution(
        model, vocab, specs, tcfg.entropy_weight,
        samples_per_rationale=tcfg.dist_samples, seed=cfg.seed,
        max_steps=tcfg.max_decode_steps,
    )
    dist_path = cfg.run_dir / "distribution.json"
    dist_path.write_text(dist.to_json())
    _write_manifest(
        cfg, "finetune", [],
        [Path(stem + ".json"), Path(stem + ".bin"), stats_path, dist_path],
    )
    print(
        f"finetune: success {stats[0].success:.3f} -> {stats[-1].success:.3f} "
        f"over {len(stats)} iterations"
    )


def _train_positives(
    mols: list[MolGraph], labels: dict[str, list[int]], specs: list[PropertySpec]
) -> list[MolGraph]:
    names = [s.name for s in specs]
    all_pos = [
        g for i, g in enumerate(mols) if all(labels[n][i] == 1 for n in names)
    ]
    if all_pos:
        return all_pos
    return [
        g for i, g in enumerate(mols) if any(labels[n][i] == 1 for n in names)
    ]


def _load_distribution(cfg: RunConfig, vocab: RationaleVocab) -> RationaleDistribution:
    doc = json.loads((cfg.run_dir / "distribution.json").read_text())
    by_key = {r.key: r for r in vocab.entries}
    keys, rationales, rewards, probs = [], [], [], []
    for entry in doc["entries"]:
        if entry["key"] not in by_key:
            raise ConfigError("distribution references a rationale missing from the vocabulary")
        keys.append(entry["key"])
        rationales.append(by_key[entry["key"]])
        rewards.append(entry["reward"])
        probs.append(entry["probability"])
    probs_arr = np.array(probs)
    probs_arr = probs_arr / probs_arr.sum()
    return RationaleDistribution(
        keys=tuple(keys),
        rationales=tuple(rationales),
        reward_estimates=np.array(rewards),
        probabilities=probs_arr,
    )


def _sample_smiles(g: MolGraph) -> str:
    comps = connected_components(g)
    return ".".join(write_smiles(induced_subgraph(g, list(comp))) for comp in comps)


def _parse_sample_line(line: str) -> MolGraph:
    from .chemgraph import disjoint_union

    parts = [parse_smiles(p) for p in line.split(".")]
    return parts[0] if len(parts) == 1 else disjoint_union(parts)


def cmd_sample(cfg: RunConfig, force: bool, n_override: int | None = None) -> None:
    _require_stage(cfg, "finetune", "sample", force)
    vocab = RationaleVocab.load(cfg.run_dir / "vocab_multi.json")
    model = GenModel.load(str(cfg.run_dir / "finetune.ckpt"))
    dist = _load_distribution(cfg, vocab)
    n = cfg.section("sample")["n"] if n_override is None else n_override
    rng = np.random.default_rng([cfg.seed, 6700417])
    tcfg = cfg.train_config()
    samples = sample_molecules(model, dist, n, rng, max_steps=tcfg.max_decode_steps)
    smi_path = cfg.run_dir / "samples.smi"
    jsonl_path = cfg.run_dir / "samples.jsonl"
    with open(smi_path, "w") as smi_fh, open(jsonl_path, "w") as js_fh:
        for g, key in samples:
            text = _sample_smiles(g)
            smi_fh.write(text + "\n")
            js_fh.write(json.dumps({"smiles": text, "rationale": key}) + "\n")
    _write_manifest(cfg, "sample", [], [smi_path, jsonl_path])
    print(f"sampled {len(samples)} molecules -> {smi_path}")


def cmd_evaluate(cfg: RunConfig, force: bool) -> None:
    _require_stage(cfg, "sample", "evaluate", force)
    mols, labels = _load_corpus(cfg)
    specs = _load_predictors(cfg)
    samples = []
    with open(cfg.run_dir / "samples.smi") as fh:
        for line in fh:
            line = line.strip()
            if line:
                samples.append(_parse_sample_line(line))
    train_pos = _train_positives(mols, labels, specs)
    out = cfg.run_dir / "evaluation.csv"
    report = metrics_mod.evaluate(samples, specs, train_pos, csv_path=out)
    _write_manifest(cfg, "evaluate", [cfg.run_dir / "samples.smi"], [out])

    def show(x):
        return "-" if x is None else f"{x:.4f}"

    print(f"samples:   {report.n}")
    print(f"success:   {report.success:.4f}")
    print(f"diversity: {show(report.diversity)}")
    print(f"novelty:   {show(report.novelty)}")
    for name in sorted(report.per_property):
        print(f"  {name}: positive rate {report.per_property[name]:.4f}")


def cmd_faithfulness(cfg: RunConfig, force: bool) -> None:
    _require_stage(cfg, "extract", "faithfulness", force)
    mols, labels = _load_corpus(cfg)
    specs = _load_predictors(cfg)
    motifs = {p["name"]: parse_smiles(p["motif"]) for p in cfg.properties}
    e = cfg.section("extract")
    report: dict[str, dict] = {}
    for spec in specs:
        vocab = RationaleVocab.load(cfg.run_dir / f"vocab_{spec.name}.json")
        by_source: dict[str, list] = {}
        for entry in vocab.entries:
            for mol_key, atoms in entry.sources:
                by_source.setdefault(mol_key, []).append((entry, atoms))
        motif = motifs[spec.name]
        motif_key = canonical_key(motif)
        exact = 0
        coverage_total = 0.0
        evaluated = 0
        positives = [g for g, lab in zip(mols, labels[spec.name]) if lab == 1]
        limit = e.get("max_molecules")
        if limit:
            positives = positives[: int(limit)]
        for g in positives:
            key = canonical_key(g)
            cands = by_source.get(key, [])
            evaluated += 1
            if not cands:
                continue
            def rank(item):
                # most parsimonious qualifying rationale first: every stored
                # rationale already clears the threshold, so the smallest one
                # is the sharpest explanation
                entry, _atoms = item
                return (entry.n_atoms, -entry.scores.get(spec.name, 0.0), entry.key)

            best_entry, best_atoms = sorted(cands, key=rank)[0]
            if best_entry.key == motif_key:
                exact += 1
            rationale_atoms = set(best_atoms)
            best_cov = 0.0
            for emb in embeddings(g, motif):
                motif_atoms = set(emb.values())
                cov = len(motif_atoms & rationale_atoms) / len(motif_atoms)
                best_cov = max(best_cov, cov)
            coverage_total += best_cov
        report[spec.name] = {
            "evaluated": evaluated,
            "exact_match_rate": exact / evaluated if evaluated else 0.0,
            "coverage": coverage_total / evaluated if evaluated else 0.0,
        }
        print(
            f"property {spec.name}: exact match {report[spec.name]['exact_match_rate']:.3f}, "
            f"coverage {report[spec.name]['coverage']:.3f} over {evaluated} positives"
        )
    out = cfg.run_dir / "faithfulness.json"
    out.write_text(json.dumps(report, sort_keys=True, indent=2))
    _write_manifest(cfg, "faithfulness", [], [out])


_STAGES = [
    ("gen-synthetic", cmd_gen_synthetic),
    ("train-predictor", cmd_train_predictor),
    ("extract", cmd_extract),
    ("merge", cmd_merge),
    ("pretrain", cmd_pretrain),
    ("finetune", cmd_finetune),
    ("sample", cmd_sample),
    ("evaluate", cmd_evaluate),
    ("faithfulness", cmd_faithfulness),
]


def cmd_run_all(cfg: RunConfig, force: bool) -> None:
    for name, fn in _STAGES:
        print(f"== {name}")
        fn(cfg, force)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="molrationale",
        description="Rationale-based multi-objective molecule generation pipeline",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, _fn in _STAGES + [("run-all", cmd_run_all)]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--force", action="store_true", help="ignore config-hash mismatches")
        if name == "sample":
            p.add_argument("--n", type=int, default=None)
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = load_config(args.config)
        handlers = dict(_STAGES + [("run-all", cmd_run_all)])
        fn = handlers[args.command]
        if args.command == "sample":
            fn(cfg, args.force, n_override=args.n)
        else:
            fn(cfg, args.force)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (TrainingError, GenerationError, GenModelError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ChemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
