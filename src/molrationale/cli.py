"""Pipeline orchestration: synthetic data, predictor training, rationale
extraction and merging, generator pre-training and fine-tuning, sampling,
evaluation, and the planted-motif faithfulness experiment. Each stage loads
its inputs, calls the library and writes its artifacts.

The stage table, _STAGES, declares the files each stage reads and writes.
From it every stage writes its artifacts plus a manifest recording the config
hash and the SHA-256 of its reads and writes, and refuses an upstream stage
run under another config, or an upstream output it reads that is missing or
changed on disk, unless --force.
Exit codes: 0 success, 1 invalid input (a chemistry, predictor, search or
metric error, or a file that does not parse as its artifact), 2 config error,
3 missing artifact, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import re
import sys
from collections.abc import Callable
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import synthetic
from .chemgraph import (
    ChemError,
    MolGraph,
    connected_components,
    disjoint_union,
    induced_subgraph,
    parse_smiles,
    write_smiles,
)
from .extract import RationaleVocab, SearchError, build_vocab, faithfulness
from .forest import (
    ForestError,
    ForestModel,
    PropertySpec,
    auroc,
    read_property_csv,
    train_forest,
)
from .genmodel import GenModel, GenModelError, atom_types_from_corpus
from .merge import build_multi_vocab
from .train import (
    FinetuneStats,
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


class ArtifactError(ValueError):
    """A run-directory file that does not parse as the artifact it should be."""


# each run setting's only default: the library takes every setting from its caller
_DEFAULTS = {
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

    @property
    def run_dir(self) -> Path:
        return Path(self.raw["run_dir"])

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def section(self, name: str) -> dict:
        """A section's settings: the keys its defaults declare."""
        return {k: self.raw[name][k] for k in _DEFAULTS[name]}

    @property
    def properties(self) -> list[dict]:
        return self.raw["properties"]

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.section("train"), seed=self.seed)


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _reject_unknown(keys, allowed, where: str) -> None:
    """A config error naming the first key, in sorted order, that nothing reads."""
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}unknown key {unknown[0]!r}")


def _check_keys(user: dict) -> None:
    """Every top-level key is a key of _DEFAULTS, run_dir, preset or
    properties, and every key of a section is a key of its defaults."""
    _reject_unknown(user, [*_DEFAULTS, "run_dir", "preset", "properties"], "")
    for key, value in user.items():
        if isinstance(_DEFAULTS.get(key), dict) and isinstance(value, dict):
            _reject_unknown(value, _DEFAULTS[key], f"{key} section: ")


# The range of each float setting that has one, as (test, wording); every
# other float need only be finite.
_FLOAT_RANGES = {
    ("corpus", "ring_prob"): (lambda x: 0 <= x <= 1, "in [0, 1]"),
    ("corpus", "decoy_prob"): (lambda x: 0 <= x <= 1, "in [0, 1]"),
    ("train", "entropy_weight"): (lambda x: x > 0, "finite and > 0"),
    ("train", "learning_rate"): (lambda x: x > 0, "finite and > 0"),
    ("train", "kl_weight"): (lambda x: x >= 0, "finite and >= 0"),
    ("extract", "c_puct"): (lambda x: x >= 0, "finite and >= 0"),
}


def _check_numbers(merged: dict) -> None:
    """Each numeric value of a section must have its default's type (an
    integer where the default is one, else any number), and
    extract.max_molecules is null or an integer. Every integer is a count of
    at least 1; every float is finite and in its _FLOAT_RANGES range;
    corpus.atoms_min may not exceed corpus.atoms_max."""
    for section in ("corpus", "forest", "extract", "merge", "model", "train", "sample"):
        values = merged[section]
        if not isinstance(values, dict):
            raise ConfigError(f"{section} section must be an object")
        for key, default in _DEFAULTS[section].items():
            value = values[key]
            if isinstance(default, bool) or (default is None and value is None):
                continue
            kinds = (int, float) if isinstance(default, float) else int
            if isinstance(value, bool) or not isinstance(value, kinds):
                kind = {float: "a number", int: "an integer"}.get(type(default), "null or an integer")
                raise ConfigError(f"{section}.{key} must be {kind}, got {value!r}")
            if kinds is int and value < 1:
                raise ConfigError(f"{section}.{key} must be >= 1, got {value!r}")
            within, wording = _FLOAT_RANGES.get((section, key), (math.isfinite, "finite"))
            if kinds is not int and not (math.isfinite(value) and within(value)):
                raise ConfigError(f"{section}.{key} must be {wording}, got {value!r}")
    corpus = merged["corpus"]
    if corpus["atoms_min"] > corpus["atoms_max"]:
        raise ConfigError(
            f"corpus.atoms_min {corpus['atoms_min']} exceeds atoms_max {corpus['atoms_max']}"
        )


_PROPERTY_NAME = re.compile(r"[A-Za-z0-9_-]+")


def _check_properties(props: list | None) -> None:
    """Each property needs a motif SMILES and a unique name made of letters,
    digits, '_' and '-' (it names the property's files), other than 'multi'
    (vocab_multi.json is the merged vocabulary); its threshold and plant_prob
    default to 0.5 and 0.2 and must be numbers in [0, 1]. It has no other
    key."""
    if not props:
        raise ConfigError("config must define at least one property")
    seen = set()
    for p in props:
        if not isinstance(p, dict) or "name" not in p or "motif" not in p:
            raise ConfigError("each property needs a name and a motif SMILES")
        name = p["name"]
        if not isinstance(name, str) or not _PROPERTY_NAME.fullmatch(name) or name == "multi":
            raise ConfigError(
                f"property name {name!r} must be letters, digits, '_' or '-', and not 'multi'"
            )
        if name in seen:
            raise ConfigError(f"property name {name!r} is used twice")
        _reject_unknown(p, ("name", "motif", "threshold", "plant_prob"), f"property {name}: ")
        seen.add(name)
        for key, default in (("threshold", 0.5), ("plant_prob", 0.2)):
            value = p.setdefault(key, default)
            if type(value) not in (int, float) or not 0 <= value <= 1:
                raise ConfigError(f"property {name}: {key} {value!r} is not a number in [0, 1]")
        try:
            parse_smiles(p["motif"])
        except ChemError as exc:
            raise ConfigError(f"property {name}: bad motif: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        user = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    _check_keys(user)
    merged = _deep_merge(_DEFAULTS, user)
    if merged.get("preset", "desk") != "desk":
        raise ConfigError(f"unknown preset {merged['preset']!r} (only 'desk' is defined)")
    if "run_dir" not in merged:
        raise ConfigError("config must set run_dir")
    _check_numbers(merged)
    _check_properties(merged.get("properties"))
    return RunConfig(raw=merged)


# ---------------------------------------------------------------------------
# Artifacts and manifests

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cell(x):
    """A CSV cell: a float to six decimals, None empty, a dict as its sorted
    name=value pairs joined by ';', and an integer or a string as it is."""
    if x is None:
        return ""
    if isinstance(x, dict):
        return ";".join(f"{k}={x[k]:.6f}" for k in sorted(x))
    return f"{x:.6f}" if isinstance(x, float) else x


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write a stage CSV: the header, then each row's values as cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _write_manifest(
    cfg: RunConfig, stage: str, inputs: list[Path] | dict[Path, str], outputs: list[Path]
) -> None:
    """Write <stage>.manifest.json. `inputs` may instead map each input to
    its SHA-256, taken when the stage checked it, so that it is not hashed
    again."""
    known = inputs if isinstance(inputs, dict) else {}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "stage": stage,
        "config_hash": cfg.config_hash,
        "inputs": {p.name: known.get(p) or _sha256(p) for p in sorted(inputs)},
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    path = cfg.run_dir / f"{stage}.manifest.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _read(path: Path, load):
    """load(path); a file that does not parse as its artifact is one error
    that names it."""
    try:
        return load(path)
    except (ValueError, KeyError, TypeError, ChemError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ArtifactError(f"{path}: {reason}") from exc


def _paths(cfg: RunConfig, patterns) -> list[Path]:
    """The run-directory files the patterns name, "{name}" standing for each
    property's name."""
    names = [p["name"] for p in cfg.properties]
    return list(dict.fromkeys(cfg.run_dir / pat.format(name=n) for pat in patterns for n in names))


@dataclass(frozen=True)
class _Stage:
    """A row of the stage table, _STAGES. Calling it runs the stage: check
    its reads, run its body and write its manifest."""

    name: str
    body: Callable[[RunConfig], None]
    reads: tuple[str, ...]
    writes: tuple[str, ...]

    def __call__(self, cfg: RunConfig, force: bool) -> None:
        inputs = self._checked_reads(cfg, force)
        self.body(cfg)
        _write_manifest(cfg, self.name, inputs, _paths(cfg, self.writes))

    def _checked_reads(self, cfg: RunConfig, force: bool) -> dict[Path, str]:
        """The SHA-256 of each file the stage reads, each hashed once. Refuses
        unless the upstream stage that writes a read left a manifest and the
        read exists; without force, also unless that manifest carries this
        config's hash and records the read as it is on disk."""
        digests = {}
        for _, upstream in _STAGES:
            shared = [p for p in upstream.writes if p in self.reads]
            if not shared:
                continue
            path = cfg.run_dir / f"{upstream.name}.manifest.json"
            if not path.exists():
                raise MissingArtifactError(
                    f"{self.name} needs artifacts from '{upstream.name}'; "
                    f"run `molrationale {upstream.name}` first"
                )
            doc = _read(path, lambda p: json.loads(p.read_text()))
            if doc.get("schema_version") != SCHEMA_VERSION:
                raise ConfigError(f"{path}: unsupported schema version")
            if not force and doc.get("config_hash") != cfg.config_hash:
                raise ConfigError(
                    f"{path}: artifacts were produced with a different config; rerun or use --force"
                )
            for read in _paths(cfg, shared):
                if not read.exists():
                    raise MissingArtifactError(
                        f"{read}: written by '{upstream.name}' but missing; rerun {upstream.name}"
                    )
                digests[read] = _sha256(read)
                if not force and doc.get("outputs", {}).get(read.name) != digests[read]:
                    raise MissingArtifactError(
                        f"{read}: not as '{upstream.name}' recorded it; "
                        f"rerun {upstream.name} or use --force"
                    )
        return digests


def _load_corpus(cfg: RunConfig) -> tuple[list[MolGraph], dict[str, list[int]]]:
    """The corpus molecules and their labels by property, from properties.csv."""
    names, mols, rows = _read(cfg.run_dir / "properties.csv", read_property_csv)
    labels = {name: [row[i] for row in rows] for i, name in enumerate(names)}
    return mols, labels


def _searched_positives(cfg: RunConfig, mols: list[MolGraph], labels: list[int]) -> list[MolGraph]:
    """A property's labelled positives, cut at extract.max_molecules: the
    molecules extract searches and faithfulness scores."""
    positives = [g for g, lab in zip(mols, labels) if lab == 1]
    return positives[: cfg.section("extract")["max_molecules"] or None]


def _load_predictors(cfg: RunConfig) -> list[PropertySpec]:
    return [
        PropertySpec(name=p["name"], model=_read(path, ForestModel.load), threshold=p["threshold"])
        for p, path in zip(cfg.properties, _paths(cfg, ["forest_{name}.json"]))
    ]


def _load_vocabs(cfg: RunConfig) -> list[RationaleVocab]:
    return [_read(path, RationaleVocab.load) for path in _paths(cfg, ["vocab_{name}.json"])]


def _load_model(cfg: RunConfig, stage: str) -> GenModel:
    """A stage's checkpoint, named by its .json half in an error."""
    path = cfg.run_dir / f"{stage}.ckpt.json"
    return _read(path, lambda p: GenModel.load(str(p.with_suffix(""))))


def _split_indices(n: int, seed: int) -> tuple[list[int], list[int]]:
    """A seeded 80/20 split of n corpus indices: (training, held out)."""
    rng = np.random.default_rng([seed, 524287])
    order = rng.permutation(n)
    cut = int(n * 0.8)
    return list(order[:cut]), list(order[cut:])


# ---------------------------------------------------------------------------
# Stage bodies: each loads the files its _STAGES row reads, calls the library
# and writes the files its row names

def _gen_synthetic(cfg: RunConfig) -> None:
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    spec = synthetic.CorpusSpec(**cfg.section("corpus"))
    motifs = {p["name"]: parse_smiles(p["motif"]) for p in cfg.properties}
    plant = {p["name"]: p["plant_prob"] for p in cfg.properties}
    mols, labels = synthetic.generate_corpus(spec, motifs, plant, cfg.seed)
    names = sorted(labels)
    rows = ([write_smiles(g)] + [labels[name][i] for name in names] for i, g in enumerate(mols))
    _write_csv(cfg.run_dir / "properties.csv", ["smiles"] + names, rows)
    (cfg.run_dir / "config.snapshot.json").write_text(
        json.dumps(cfg.raw, sort_keys=True, indent=2)
    )
    for name in names:
        pos = sum(labels[name])
        print(f"property {name}: {pos}/{len(mols)} positive ({pos / len(mols):.1%})")


def _train_predictor(cfg: RunConfig) -> None:
    mols, labels = _load_corpus(cfg)
    f = cfg.section("forest")
    train_idx, test_idx = _split_indices(len(mols), cfg.seed)
    scores = {}
    for p in cfg.properties:
        name = p["name"]
        data = [(mols[i], labels[name][i]) for i in train_idx]
        model = train_forest(data, n_trees=f["trees"], max_depth=f["max_depth"], seed=cfg.seed)
        heldout = [(mols[i], labels[name][i]) for i in test_idx]
        # AUROC is undefined when the held-out split holds one class only
        defined = len({label for _, label in heldout}) == 2
        scores[name] = auroc(model, heldout) if defined else None
        model.save(cfg.run_dir / f"forest_{name}.json")
        shown = "n/a" if scores[name] is None else f"{scores[name]:.4f}"
        print(f"property {name}: held-out AUROC {shown}")
    (cfg.run_dir / "predictor_scores.json").write_text(
        json.dumps(
            {k: None if v is None else round(v, 6) for k, v in sorted(scores.items())},
            sort_keys=True,
        )
    )


def _extract(cfg: RunConfig) -> None:
    mols, labels = _load_corpus(cfg)
    e = cfg.section("extract")
    for spec in _load_predictors(cfg):
        positives = _searched_positives(cfg, mols, labels[spec.name])
        vocab = build_vocab(positives, spec, iterations=e["iterations"], c_puct=e["c_puct"],
                            max_atoms=e["max_atoms"])
        vocab.save(cfg.run_dir / f"vocab_{spec.name}.json")
        print(f"property {spec.name}: {len(vocab)} rationales from {len(positives)} positives")


def _merge(cfg: RunConfig) -> None:
    specs = _load_predictors(cfg)
    vocabs = _load_vocabs(cfg)
    if len(specs) == 1:
        multi = vocabs[0]
    else:
        multi = build_multi_vocab(vocabs, specs, cfg.section("merge")["shortlist"])
    multi.save(cfg.run_dir / "vocab_multi.json")
    print(f"multi-property vocabulary: {len(multi)} rationales")


def _pretrain(cfg: RunConfig) -> None:
    mols, _ = _load_corpus(cfg)
    tcfg = cfg.train_config()
    model = GenModel(atom_types_from_corpus(mols), **cfg.section("model"), seed=cfg.seed)
    rng = np.random.default_rng([cfg.seed, 997])
    pairs = make_pretrain_pairs(mols, tcfg.max_subgraph_atoms, tcfg.pairs_per_molecule, rng)
    trace = pretrain(model, pairs, tcfg)
    model.save(str(cfg.run_dir / "pretrain.ckpt"))
    _write_csv(cfg.run_dir / "pretrain_loss.csv", ["epoch", "loss"], enumerate(trace))
    print(f"pretrain: {len(pairs)} pairs, loss {trace[0]:.3f} -> {trace[-1]:.3f}")


def _finetune(cfg: RunConfig) -> None:
    mols, labels = _load_corpus(cfg)
    specs = _load_predictors(cfg)
    vocab = _read(cfg.run_dir / "vocab_multi.json", RationaleVocab.load)
    model = _load_model(cfg, "pretrain")
    tcfg = cfg.train_config()
    train_pos = _train_positives(mols, labels, specs)
    stats = finetune(model, vocab, specs, tcfg, train_positives=train_pos)
    model.save(str(cfg.run_dir / "finetune.ckpt"))
    _write_csv(cfg.run_dir / "finetune_stats.csv", [f.name for f in fields(FinetuneStats)],
               map(astuple, stats))
    dist = rationale_distribution(
        model, vocab, specs, tcfg.entropy_weight,
        samples_per_rationale=tcfg.dist_samples, seed=cfg.seed,
        max_steps=tcfg.max_decode_steps,
    )
    (cfg.run_dir / "distribution.json").write_text(dist.to_json())
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


def _sample_smiles(g: MolGraph) -> str:
    comps = connected_components(g)
    return ".".join(write_smiles(induced_subgraph(g, list(comp))) for comp in comps)


def _parse_sample_line(line: str) -> MolGraph:
    return disjoint_union([parse_smiles(p) for p in line.split(".")])


def _sample(cfg: RunConfig) -> None:
    vocab = _read(cfg.run_dir / "vocab_multi.json", RationaleVocab.load)
    model = _load_model(cfg, "finetune")
    dist = _read(cfg.run_dir / "distribution.json",
                 lambda p: RationaleDistribution.from_json(p.read_text(), vocab))
    rng = np.random.default_rng([cfg.seed, 6700417])
    tcfg = cfg.train_config()
    samples = sample_molecules(model, dist, cfg.section("sample")["n"], rng,
                               max_steps=tcfg.max_decode_steps)
    smi_path = cfg.run_dir / "samples.smi"
    with open(smi_path, "w") as smi_fh, open(cfg.run_dir / "samples.jsonl", "w") as js_fh:
        for g, key in samples:
            text = _sample_smiles(g)
            smi_fh.write(text + "\n")
            js_fh.write(json.dumps({"smiles": text, "rationale": key}) + "\n")
    print(f"sampled {len(samples)} molecules -> {smi_path}")


def _evaluate(cfg: RunConfig) -> None:
    mols, labels = _load_corpus(cfg)
    specs = _load_predictors(cfg)
    samples = []
    with open(cfg.run_dir / "samples.smi") as fh:
        for line in fh:
            line = line.strip()
            if line:
                samples.append(_parse_sample_line(line))
    train_pos = _train_positives(mols, labels, specs)
    report = metrics_mod.evaluate(samples, specs, train_pos)
    _write_csv(cfg.run_dir / "evaluation.csv", [f.name for f in fields(report)], [astuple(report)])

    def show(x):
        return "-" if x is None else f"{x:.4f}"

    print(f"samples:   {report.n}")
    print(f"success:   {report.success:.4f}")
    print(f"diversity: {show(report.diversity)}")
    print(f"novelty:   {show(report.novelty)}")
    for name in sorted(report.per_property):
        print(f"  {name}: positive rate {report.per_property[name]:.4f}")


def _faithfulness(cfg: RunConfig) -> None:
    mols, labels = _load_corpus(cfg)
    report: dict[str, dict] = {}
    paths = _paths(cfg, ["vocab_{name}.json"])
    for p, path, vocab in zip(cfg.properties, paths, _load_vocabs(cfg)):
        name = p["name"]
        positives = _searched_positives(cfg, mols, labels[name])
        try:
            report[name] = faithfulness(vocab, positives, parse_smiles(p["motif"]), name)
        except ValueError as exc:  # a source that does not fit its molecule
            raise ArtifactError(f"{path}: {exc}") from exc
        print(
            f"property {name}: exact match {report[name]['exact_match_rate']:.3f}, "
            f"coverage {report[name]['coverage']:.3f} over {report[name]['evaluated']} positives"
        )
    (cfg.run_dir / "faithfulness.json").write_text(json.dumps(report, sort_keys=True, indent=2))


# The stage table, in run-all order: each stage's name, body, and the
# run-directory files it reads and writes, "{name}" standing for each
# property's name. A read's upstream stage is the stage that writes it, and a
# stage's manifest records exactly its reads and writes.
_STAGES = [
    (name, _Stage(name, body, tuple(reads.split()), tuple(writes.split())))
    for name, body, reads, writes in [
        ("gen-synthetic", _gen_synthetic, "", "properties.csv config.snapshot.json"),
        ("train-predictor", _train_predictor, "properties.csv",
         "forest_{name}.json predictor_scores.json"),
        ("extract", _extract, "properties.csv forest_{name}.json", "vocab_{name}.json"),
        ("merge", _merge, "vocab_{name}.json forest_{name}.json", "vocab_multi.json"),
        ("pretrain", _pretrain, "properties.csv",
         "pretrain.ckpt.json pretrain.ckpt.bin pretrain_loss.csv"),
        ("finetune", _finetune,
         "properties.csv forest_{name}.json vocab_multi.json pretrain.ckpt.json pretrain.ckpt.bin",
         "finetune.ckpt.json finetune.ckpt.bin finetune_stats.csv distribution.json"),
        ("sample", _sample,
         "vocab_multi.json finetune.ckpt.json finetune.ckpt.bin distribution.json",
         "samples.smi samples.jsonl"),
        ("evaluate", _evaluate, "properties.csv forest_{name}.json samples.smi", "evaluation.csv"),
        ("faithfulness", _faithfulness, "properties.csv vocab_{name}.json", "faithfulness.json"),
    ]
]
(cmd_gen_synthetic, cmd_train_predictor, cmd_extract, cmd_merge, cmd_pretrain, cmd_finetune,
 cmd_sample, cmd_evaluate, cmd_faithfulness) = (stage for _, stage in _STAGES)


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
        p.add_argument(
            "--force", action="store_true",
            help="ignore config-hash mismatches and changed artifacts",
        )
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = load_config(args.config)
        handlers = dict(_STAGES + [("run-all", cmd_run_all)])
        handlers[args.command](cfg, args.force)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (TrainingError, GenModelError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ArtifactError, ChemError, ForestError, SearchError, metrics_mod.MetricsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
