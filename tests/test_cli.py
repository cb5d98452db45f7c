import contextlib
import csv
import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import molrationale
from molrationale import chemgraph, cli, extract, forest, genmodel, merge, numsub, synthetic, train
from molrationale.chemgraph import contains_subgraph, parse_smiles
from molrationale.cli import (
    EXIT_CONFIG,
    EXIT_MISSING,
    EXIT_OK,
    load_config,
    main,
)
from molrationale.extract import RationaleVocab, SearchError
from molrationale.forest import ForestError, read_property_csv
from molrationale.genmodel import GenModel, prepare_start, prior_latent
from molrationale.metrics import MetricsError

from helpers import same_outcome, walk_and_oracle_masks


# a forest leaf, for trees written by hand
LEAF = {"leaf": 0.5}


def write_config(path: Path, run_dir: Path, **overrides) -> Path:
    cfg = {
        "run_dir": str(run_dir),
        "seed": 11,
        "corpus": {
            "size": 200,
            "atoms_min": 9,
            "atoms_max": 13,
            "ring_prob": 0.25,
            "decoy_prob": 0.25,
        },
        "properties": [
            {"name": "amide", "motif": "NC(=O)c1ccccc1", "plant_prob": 0.22},
            {"name": "phenol", "motif": "Oc1ccccc1", "plant_prob": 0.22},
        ],
        "forest": {"trees": 24, "max_depth": 10},
        "extract": {"iterations": 20, "c_puct": 10.0, "max_atoms": 20, "max_molecules": 20},
        "merge": {"shortlist": 5},
        "model": {"hidden": 24, "latent": 8, "rounds": 2},
        "train": {
            "samples_per_rationale": 6,
            "iterations": 2,
            "pretrain_epochs": 2,
            "pairs_per_molecule": 1,
            "batch_size": 16,
        },
        "sample": {"n": 30},
    }
    cfg.update(overrides)
    file = path / "config.json"
    file.write_text(json.dumps(cfg))
    return file


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full desk pipeline run shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("pipeline")
    run_dir = root / "run"
    cfg_file = write_config(root, run_dir)
    assert main(["run-all", "--config", str(cfg_file)]) == EXIT_OK
    return cfg_file, run_dir


class TestGenSynthetic:
    def test_positive_rows_contain_motif(self, pipeline):
        _cfg, run_dir = pipeline
        names, mols, labels = read_property_csv(run_dir / "properties.csv")
        motifs = {
            "amide": parse_smiles("NC(=O)c1ccccc1"),
            "phenol": parse_smiles("Oc1ccccc1"),
        }
        assert set(names) == {"amide", "phenol"}
        for g, row in zip(mols, labels):
            for name, value in zip(names, row):
                has = contains_subgraph(g, motifs[name]) is not None
                assert has == bool(value)

    def test_two_label_columns(self, pipeline):
        _cfg, run_dir = pipeline
        names, _mols, labels = read_property_csv(run_dir / "properties.csv")
        assert len(names) == 2
        assert all(len(row) == 2 for row in labels)

    def test_seed_reproducibility(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cfg1 = write_config(tmp_path / "a", tmp_path / "a" / "run")
        cfg2 = write_config(tmp_path / "b", tmp_path / "b" / "run")
        assert main(["gen-synthetic", "--config", str(cfg1)]) == EXIT_OK
        assert main(["gen-synthetic", "--config", str(cfg2)]) == EXIT_OK
        pa = (tmp_path / "a" / "run" / "properties.csv").read_bytes()
        pb = (tmp_path / "b" / "run" / "properties.csv").read_bytes()
        assert pa == pb


class TestStageSequencing:
    def test_missing_upstream_artifact(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "run")
        assert main(["extract", "--config", str(cfg)]) == EXIT_MISSING

    def test_config_hash_mismatch_refused_without_force(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "run")
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_OK
        # change a knob: downstream must refuse the stale corpus
        cfg2 = write_config(tmp_path, tmp_path / "run", seed=99)
        assert main(["train-predictor", "--config", str(cfg2)]) == EXIT_CONFIG
        assert main(["train-predictor", "--config", str(cfg2), "--force"]) == EXIT_OK

    def test_changed_or_missing_artifact_refused_without_force(self, tmp_path, capsys):
        cfg = str(write_config(tmp_path, tmp_path / "run"))
        assert main(["gen-synthetic", "--config", cfg]) == EXIT_OK
        # the first molecule becomes CCO
        props = tmp_path / "run" / "properties.csv"
        header, first, *rows = props.read_text().splitlines(keepends=True)
        props.write_text("".join([header, "CCO" + first[first.index(","):], *rows]))
        capsys.readouterr()
        assert main(["train-predictor", "--config", cfg]) == EXIT_MISSING
        assert "properties.csv" in capsys.readouterr().err
        assert main(["train-predictor", "--config", cfg, "--force"]) == EXIT_OK
        # the forced stage leaves the edited corpus in place, and extract reads it
        capsys.readouterr()
        assert main(["extract", "--config", cfg]) == EXIT_MISSING
        assert "properties.csv" in capsys.readouterr().err
        assert main(["gen-synthetic", "--config", cfg]) == EXIT_OK
        assert main(["train-predictor", "--config", cfg]) == EXIT_OK
        (tmp_path / "run" / "forest_amide.json").unlink()
        capsys.readouterr()
        assert main(["extract", "--config", cfg]) == EXIT_MISSING
        assert "forest_amide.json" in capsys.readouterr().err
        # --force skips the digest checks, not the read's existence
        assert main(["extract", "--config", cfg, "--force"]) == EXIT_MISSING
        assert "forest_amide.json" in capsys.readouterr().err

    def test_only_the_upstream_outputs_a_stage_reads_are_checked(
        self, pipeline, tmp_path, capsys
    ):
        cfg, run = copy_pipeline(pipeline, tmp_path)
        # finetune reads neither the pretraining loss log nor the predictor scores
        (run / "pretrain_loss.csv").unlink()
        (run / "predictor_scores.json").unlink()
        assert main(["finetune", "--config", cfg]) == EXIT_OK
        (run / "finetune_stats.csv").write_text("edited\n")
        assert main(["sample", "--config", cfg]) == EXIT_OK
        (run / "distribution.json").write_text("{}")
        capsys.readouterr()
        assert main(["sample", "--config", cfg]) == EXIT_MISSING
        assert "distribution.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, name, edit",
        [
            ("extract", "properties.csv", lambda text: text + "\n"),
            ("sample", "vocab_multi.json", lambda text: text + " "),
            ("evaluate", "forest_phenol.json", lambda text: text + " "),
        ],
    )
    def test_every_upstream_stage_read_is_checked(
        self, pipeline, tmp_path, capsys, stage, name, edit
    ):
        # each file is an output of a stage other than the one just upstream
        cfg, run = copy_pipeline(pipeline, tmp_path)
        path = run / name
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert main([stage, "--config", cfg]) == EXIT_MISSING
        assert name in capsys.readouterr().err
        assert main([stage, "--config", cfg, "--force"]) == EXIT_OK


def copy_pipeline(pipeline, tmp_path: Path, **overrides) -> tuple[str, Path]:
    """A copy of the shared pipeline's run directory whose manifests carry
    the copy's config hash (the configs differ in run_dir and the given
    top-level overrides only)."""
    _cfg, run_dir = pipeline
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    cfg = str(write_config(tmp_path, run, **overrides))
    config_hash = load_config(cfg).config_hash
    for manifest in run.glob("*.manifest.json"):
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "config_hash": config_hash}))
    return cfg, run


_opens: list[tuple[Path, bool]] | None = None  # (file, opened for writing) while recording


def _audit_open(event: str, args: tuple) -> None:
    if event == "open" and _opens is not None and isinstance(args[0], (str, os.PathLike)):
        path, mode, flags = args
        writing = any(c in mode for c in "wax+") if mode else flags & (os.O_WRONLY | os.O_RDWR)
        _opens.append((Path(path), bool(writing)))


sys.addaudithook(_audit_open)


@contextlib.contextmanager
def recorded_opens():
    """The files opened in the block, each with whether it was for writing."""
    global _opens
    _opens = []
    try:
        yield _opens
    finally:
        _opens = None


def upstream_of(stage) -> list[str]:
    """The stages, in table order, that write a file the stage reads."""
    return [up.name for _, up in cli._STAGES if set(up.writes) & set(stage.reads)]


class TestStageTable:
    @pytest.mark.parametrize("name", [name for name, _ in cli._STAGES])
    def test_stage_body_reads_and_writes_what_its_row_declares(self, pipeline, tmp_path, name):
        cfg_file, run = copy_pipeline(pipeline, tmp_path)
        cfg, stage = load_config(cfg_file), dict(cli._STAGES)[name]
        writes = cli._paths(cfg, stage.writes)
        for path in writes:
            path.unlink()
        with recorded_opens() as opens:
            stage.body(cfg)
        read = {path for path, writing in opens if not writing and path.parent == run}
        assert read == set(cli._paths(cfg, stage.reads))
        assert all(path.exists() for path in writes)

    @pytest.mark.parametrize("name", [name for name, _ in cli._STAGES])
    def test_each_read_and_write_is_hashed_once(self, pipeline, tmp_path, monkeypatch, name):
        cfg_file, _run = copy_pipeline(pipeline, tmp_path)
        cfg, stage = load_config(cfg_file), dict(cli._STAGES)[name]
        hashed = []
        sha256 = cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or sha256(path))
        for force in (False, True):
            hashed.clear()
            stage(cfg, force)
            assert sorted(hashed) == sorted(cli._paths(cfg, stage.reads + stage.writes))

    def test_each_file_has_one_writer_and_it_runs_earlier(self):
        writer = {}
        for i, (_name, stage) in enumerate(cli._STAGES):
            assert all(writer.get(pattern, i) < i for pattern in stage.reads), stage.name
            for pattern in stage.writes:
                assert writer.setdefault(pattern, i) == i, pattern

    def test_readme_stage_table_lists_each_stages_upstream_stages(self):
        table = README.split("| stage | verifies the outputs it reads of |\n|---|---|\n")[1]
        documented = {}
        for row in table.split("\n\n")[0].splitlines():
            stages, upstream = row.strip("|").split("|")
            for name in re.findall(r"`([^`]+)`", stages):
                documented[name] = re.findall(r"`([^`]+)`", upstream)
        derived = {name: upstream_of(stage) for name, stage in cli._STAGES if stage.reads}
        assert documented == derived


README = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
# the README's minimal config, as written under "Minimal config:"
README_CONFIG = json.loads(README.split("Minimal config:\n\n```json\n")[1].split("```")[0])
README_PROPERTIES = README_CONFIG["properties"]


class TestReadmeConfig:
    def test_minimal_config_loads(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps(README_CONFIG))
        cfg = load_config(file)
        assert cfg.seed == README_CONFIG["seed"]
        assert [p["name"] for p in cfg.properties] == ["amide", "phenol"]

    def test_paper_width_keys_load(self, tmp_path):
        # the paragraph after the minimal config names the paper's widths and
        # fine-tuning sizes as `"section": {...}` spans
        paragraph = README.split("Minimal config:")[1].split("\n\n")[2]
        spans = re.findall(r'`("\w+": \{[^`]*\})`', paragraph)
        paper = json.loads("{" + ", ".join(spans) + "}")
        assert set(paper) == {"model", "train"}
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({**README_CONFIG, **paper}))
        cfg = load_config(file)
        for section, values in paper.items():
            for key, value in values.items():
                assert cfg.section(section)[key] == value


class TestLibraryErrors:
    def test_one_class_heldout_split_records_null_auroc(self, tmp_path, capsys):
        # 12 molecules at config seed 2: the 20% held-out split of each
        # property holds one class only, so its AUROC is undefined
        cfg_file = write_config(
            tmp_path, tmp_path / "run", seed=2, corpus={"size": 12},
            properties=README_PROPERTIES,
        )
        assert main(["gen-synthetic", "--config", str(cfg_file)]) == EXIT_OK
        cfg = load_config(cfg_file)
        mols, labels = cli._load_corpus(cfg)
        _train, heldout = cli._split_indices(len(mols), cfg.seed)
        one_class = {n for n, lab in labels.items() if len({lab[i] for i in heldout}) == 1}
        assert one_class, "the corpus no longer gives a one-class held-out split"
        capsys.readouterr()
        assert main(["train-predictor", "--config", str(cfg_file)]) == EXIT_OK
        scores = json.loads((tmp_path / "run" / "predictor_scores.json").read_text())
        assert {n for n, v in scores.items() if v is None} == one_class
        assert all(0.0 <= v <= 1.0 for n, v in scores.items() if v is not None)
        out = capsys.readouterr().out
        for name in one_class:
            assert f"property {name}: held-out AUROC n/a" in out
            assert (tmp_path / "run" / f"forest_{name}.json").exists()

    def test_one_class_training_data_is_an_error_line(self, tmp_path, capsys):
        props = [{"name": "amide", "motif": "NC(=O)c1ccccc1", "plant_prob": 0.0}]
        cfg = write_config(tmp_path, tmp_path / "run", seed=3, corpus={"size": 40},
                           properties=props)
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_OK
        capsys.readouterr()
        assert main(["train-predictor", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: training data must contain both classes\n"

    @pytest.mark.parametrize(
        "stage, name, version, reason",
        [
            # version 1 stored the fingerprint radius and width in each forest
            ("evaluate", "forest_amide.json", 1, "unsupported model version 1"),
            ("sample", "vocab_multi.json", 2, "unsupported vocabulary version 2"),
            ("sample", "finetune.ckpt.json", 2, "unsupported checkpoint version 2"),
        ],
        ids=["forest", "vocabulary", "checkpoint"],
    )
    def test_artifact_of_another_version_is_an_error_line(
        self, pipeline, tmp_path, capsys, stage, name, version, reason
    ):
        cfg, run = copy_pipeline(pipeline, tmp_path)
        path = run / name
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": version}))
        capsys.readouterr()
        assert main([stage, "--config", cfg, "--force"]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize(
        "stage, name",
        [
            ("evaluate", "forest_phenol.json"),
            ("faithfulness", "vocab_amide.json"),
            ("sample", "vocab_multi.json"),
            ("sample", "finetune.ckpt.json"),
            ("sample", "distribution.json"),
            ("sample", "merge.manifest.json"),
        ],
    )
    def test_malformed_artifact_is_an_error_line(self, pipeline, tmp_path, capsys, stage, name):
        cfg, run = copy_pipeline(pipeline, tmp_path)
        path = run / name
        path.write_text(path.read_text()[:-2])
        capsys.readouterr()
        assert main([stage, "--config", cfg, "--force"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda doc: doc["entries"][0].update(key="not-a-rationale"),
             "names a rationale missing from the merged vocabulary"),
            (lambda doc: doc.update(version=2), "unsupported distribution version 2"),
            (lambda doc: doc.update(entries=[]), "has no entries"),
            (lambda doc: [e.update(probability=0.0) for e in doc["entries"]],
             "has probabilities that sum to zero"),
            (lambda doc: doc["entries"][0].update(probability=-5.0),
             "has a probability that is negative or not finite"),
            (lambda doc: doc["entries"][0].update(probability=math.nan),
             "has a probability that is negative or not finite"),
            (lambda doc: doc["entries"][0].update(probability="0.9"),
             "has a probability that is not a number"),
            (lambda doc: doc["entries"][0].update(probability=True),
             "has a probability that is not a number"),
            (lambda doc: doc["entries"][0].update(reward="nan?"), "has a reward that is not a number"),
            (lambda doc: doc["entries"][0].update(reward=False), "has a reward that is not a number"),
            (lambda doc: doc["entries"].append(dict(doc["entries"][0])), "lists a rationale twice"),
        ],
        ids=["missing-rationale", "version", "no-entries", "zero-sum", "negative", "nan",
             "string-probability", "bool-probability", "string-reward", "bool-reward",
             "repeated-key"],
    )
    def test_distribution_naming_a_missing_rationale_is_an_error_line(
        self, pipeline, tmp_path, capsys, edit, reason
    ):
        cfg, run = copy_pipeline(pipeline, tmp_path)
        path = run / "distribution.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sample", "--config", cfg, "--force"]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("label", ["", "2", "-1", "x"], ids=["blank", "2", "-1", "x"])
    def test_corpus_label_that_is_not_0_or_1_is_an_error_line(
        self, pipeline, tmp_path, capsys, label
    ):
        cfg, run = copy_pipeline(pipeline, tmp_path)
        path = run / "properties.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["smiles", "amide", "phenol"]
        rows[3][1] = label
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert main(["train-predictor", "--config", cfg, "--force"]) == 1
        reason = f"line 4: amide label {label!r} is not 0 or 1"
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    def test_corpus_smiles_that_does_not_parse_is_an_error_line(self, pipeline, tmp_path, capsys):
        cfg, run = copy_pipeline(pipeline, tmp_path)
        path = run / "properties.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][0] = "C(C"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert main(["train-predictor", "--config", cfg, "--force"]) == 1
        reason = "line 3: unbalanced parenthesis: branch never closed (at position 3)"
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize(
        "tree, reason",
        [
            ({"bit": 99999, "left": LEAF, "right": LEAF}, "split bit 99999 is not an integer in [0, 2048)"),
            ({"bit": -1, "left": LEAF, "right": LEAF}, "split bit -1 is not an integer in [0, 2048)"),
            ({"bit": True, "left": LEAF, "right": LEAF}, "split bit True is not an integer in [0, 2048)"),
            ({"bit": 3.0, "left": LEAF, "right": LEAF}, "split bit 3.0 is not an integer in [0, 2048)"),
            ({"bit": 5, "left": LEAF, "right": {"leaf": "x"}}, "leaf 'x' is not a number in [0, 1]"),
            ({"bit": 5, "left": LEAF, "right": {"leaf": -1e300}}, "leaf -1e+300 is not a number in [0, 1]"),
            ({"bit": 5, "left": LEAF, "right": {"leaf": 1.5}}, "leaf 1.5 is not a number in [0, 1]"),
            ({"bit": 5, "left": LEAF, "right": {"leaf": math.nan}}, "leaf nan is not a number in [0, 1]"),
            ({"bit": 5, "left": LEAF, "right": {"leaf": None}}, "leaf None is not a number in [0, 1]"),
            ({"bit": 5, "left": LEAF}, "tree node {'bit': 5, 'left': {'leaf': 0.5}} is neither a split nor a leaf"),
            ({"bit": 5, "left": LEAF, "right": 3}, "tree node 3 is neither a split nor a leaf"),
            ({**LEAF, "bit": 5}, "tree node {'leaf': 0.5, 'bit': 5} is neither a split nor a leaf"),
        ],
        ids=["bit-high", "bit-negative", "bit-bool", "bit-float", "leaf-text", "leaf-huge",
             "leaf-above-1", "leaf-nan", "leaf-null", "one-child", "child-not-a-node",
             "leaf-with-bit"],
    )
    def test_forest_node_that_is_not_well_formed_is_an_error_line(
        self, pipeline, tmp_path, capsys, tree, reason
    ):
        cfg, run = copy_pipeline(pipeline, tmp_path)
        path = run / "forest_amide.json"
        doc = json.loads(path.read_text())
        doc["trees"][-1] = tree
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--force"]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("value", [99, -1, 1.5, "0", None, True])
    def test_vocabulary_peripheral_that_is_not_an_atom_is_an_error_line(
        self, pipeline, tmp_path, capsys, value
    ):
        cfg, run = copy_pipeline(pipeline, tmp_path)
        path = run / "vocab_multi.json"
        doc = json.loads(path.read_text())
        n = RationaleVocab.from_json(path.read_text()).entries[0].n_atoms
        doc["rationales"][0]["peripheral"] = [value]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sample", "--config", cfg, "--force"]) == 1
        reason = f"peripheral atoms {[value]!r} are not all integers in [0, {n})"
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda atoms: atoms[:-1], "a source does not list one atom per rationale atom"),
            (lambda atoms: [-1] + atoms[1:], r"source atoms \[-1, .* are not all integers in \[0, inf\)"),
            (lambda atoms: [0.5] + atoms[1:], r"source atoms \[0.5, .* are not all integers in \[0, inf\)"),
            (lambda atoms: atoms[:1] + atoms[:-1], "a source lists an atom twice"),
            # only faithfulness, which matches a source to its molecule, can tell
            (lambda atoms: [99] + atoms[1:], r"source atoms \[99, .* are not all integers in \[0, \d+\)"),
        ],
        ids=["short", "negative", "float", "repeated", "past-the-end"],
    )
    def test_vocabulary_source_atoms_that_are_not_atoms_are_an_error_line(
        self, pipeline, tmp_path, capsys, edit, reason
    ):
        cfg, run = copy_pipeline(pipeline, tmp_path)
        path = run / "vocab_amide.json"
        doc = json.loads(path.read_text())
        source = doc["rationales"][0]["sources"][0]
        source["atoms"] = edit(source["atoms"])
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["faithfulness", "--config", cfg, "--force"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(path))}: {reason}\n", err), err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda by_name, entries: by_name["expand_w1"].update(name="expand_wx"),
             "checkpoint parameter 'expand_w1' is absent, expected (56, 24)"),
            # the sampler never reads the atom head, so only the reader can tell
            (lambda by_name, entries: by_name["atom_b1"].update(name="atom_bx"),
             "checkpoint parameter 'atom_b1' is absent, expected (24,)"),
            (lambda by_name, entries: entries.remove(by_name["bond_w2"]),
             "checkpoint parameter 'bond_w2' is absent, expected (24, 5)"),
            (lambda by_name, entries: entries.append({**by_name["gin_b2"], "name": "zz"}),
             "checkpoint parameter 'zz' is (24,), expected absent"),
            (lambda by_name, entries: by_name["gin_b2"].update(shape=[1, 24]),
             "checkpoint parameter 'gin_b2' is (1, 24), expected (24,)"),
        ],
        ids=["rename-expand", "rename-atom-head", "drop", "unknown", "reshape"],
    )
    def test_checkpoint_that_does_not_fit_its_model_is_an_error_line(
        self, pipeline, tmp_path, capsys, edit, reason
    ):
        cfg, run = copy_pipeline(pipeline, tmp_path)
        path = run / "finetune.ckpt.json"
        doc = json.loads(path.read_text())
        edit({e["name"]: e for e in doc["params"]}, doc["params"])
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sample", "--config", cfg, "--force"]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("error", [ForestError, SearchError, MetricsError])
    def test_library_error_exits_1_with_one_line(self, monkeypatch, capsys, error):
        def fail(path):
            raise error("bad input")

        monkeypatch.setattr(cli, "load_config", fail)
        assert main(["evaluate", "--config", "unused.json"]) == 1
        assert capsys.readouterr().err == "error: bad input\n"


class TestConfigValidation:
    def test_missing_file(self):
        assert main(["gen-synthetic", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG

    def test_bad_preset(self, tmp_path, capsys):
        # "desk" is the only preset; "paper" is spelled out as explicit keys
        for preset in ("huge", "paper"):
            cfg = write_config(tmp_path, tmp_path / "run", preset=preset)
            assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_CONFIG
            assert repr(preset) in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_bad_motif(self, tmp_path):
        cfg = write_config(
            tmp_path, tmp_path / "run",
            properties=[{"name": "x", "motif": "C1CC"}],
        )
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_run_dir_key(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"properties": [{"name": "x", "motif": "C"}]}))
        assert main(["gen-synthetic", "--config", str(file)]) == EXIT_CONFIG

    @pytest.mark.parametrize("text", ["[]", "3", "null", '"x"'],
                             ids=["list", "number", "null", "string"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys, text):
        file = tmp_path / "cfg.json"
        file.write_text(text)
        assert main(["gen-synthetic", "--config", str(file)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config {file} is not a JSON object\n"
        assert list(tmp_path.iterdir()) == [file]

    def test_bad_train_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "run", train={"entropy_weight": 0})
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: train.entropy_weight must be finite and > 0, got 0\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "section",
        [
            {"train": {"entropy_weight": "0.1"}},
            {"train": {"batch_size": 16.0}},
            {"model": {"hidden": None}},
            {"corpus": {"ring_prob": True}},
            {"train": 5},
            {"forest": {"trees": "6"}},
            {"extract": {"iterations": 20.0}},
            {"extract": {"max_molecules": "20"}},
            {"extract": {"max_molecules": 2.5}},
            {"merge": {"shortlist": None}},
            {"sample": {"n": "30"}},
        ],
    )
    def test_non_numeric_value_rejected_before_writing(self, tmp_path, section):
        cfg = write_config(tmp_path, tmp_path / "run", **section)
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("size", [0, -3])
    def test_non_positive_corpus_size_rejected_before_writing(self, tmp_path, size):
        corpus = {"size": size, "atoms_min": 9, "atoms_max": 13}
        cfg = write_config(tmp_path, tmp_path / "run", corpus=corpus)
        assert main(["run-all", "--config", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    def test_zero_pretrain_epochs_rejected_before_writing(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "run", train={"pretrain_epochs": 0})
        assert main(["pretrain", "--config", str(cfg)]) == EXIT_CONFIG
        assert main(["run-all", "--config", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "run" / "pretrain.manifest.json").exists()

    @pytest.mark.parametrize(
        "section, error",
        [
            ({"forest": {"trees": 0}}, "forest.trees must be >= 1, got 0"),
            ({"corpus": {"atoms_min": 12, "atoms_max": 9}}, "corpus.atoms_min 12 exceeds atoms_max 9"),
            ({"sample": {"n": -5}}, "sample.n must be >= 1, got -5"),
            ({"extract": {"max_molecules": -3}}, "extract.max_molecules must be >= 1, got -3"),
            ({"sample": {"n": 0}}, "sample.n must be >= 1, got 0"),
        ],
        ids=["zero-trees", "empty-atom-range", "negative-sample-n", "negative-max-molecules",
             "zero-sample-n"],
    )
    def test_out_of_range_count_rejected_before_writing(self, tmp_path, capsys, section, error):
        cfg = write_config(tmp_path, tmp_path / "run", **section)
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "section",
        [
            {"corpus": {"ring_prob": 7.0}},
            {"corpus": {"ring_prob": float("nan")}},
            {"corpus": {"decoy_prob": -0.5}},
            {"train": {"learning_rate": -1}},
            {"train": {"learning_rate": 0}},
            {"train": {"kl_weight": -1}},
            {"extract": {"c_puct": -5}},
            {"train": {"entropy_weight": float("inf")}},
        ],
        ids=["ring-prob-above-1", "ring-prob-nan", "negative-decoy-prob", "negative-learning-rate",
             "zero-learning-rate", "negative-kl-weight", "negative-c-puct", "infinite-entropy-weight"],
    )
    def test_out_of_range_float_rejected_before_writing(self, tmp_path, capsys, section):
        cfg = write_config(tmp_path, tmp_path / "run", **section)
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_CONFIG
        [(name, values)] = section.items()
        [key] = values
        assert capsys.readouterr().err.startswith(f"config error: {name}.{key} must be ")
        assert not (tmp_path / "run").exists()

    def test_null_max_molecules_accepted(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "run", extract={"max_molecules": None})
        assert load_config(cfg).section("extract")["max_molecules"] is None

    @pytest.mark.parametrize(
        "properties",
        [
            [README_PROPERTIES[0], {**README_PROPERTIES[1], "name": "amide"}],
            [{**README_PROPERTIES[0], "name": "multi"}],
            [{**README_PROPERTIES[0], "name": "../amide"}],
            [{**README_PROPERTIES[0], "name": "a/b"}],
            [{**README_PROPERTIES[0], "name": ""}],
            [{**README_PROPERTIES[0], "threshold": 1.5}],
            [{**README_PROPERTIES[0], "plant_prob": -0.1}],
            [{**README_PROPERTIES[0], "threshold": "0.5"}],
        ],
        ids=["duplicate", "multi", "dot-dot", "slash", "empty", "threshold", "plant_prob",
             "string-threshold"],
    )
    def test_bad_property_entry_rejected_before_writing(self, tmp_path, capsys, properties):
        cfg = write_config(tmp_path, tmp_path / "run", properties=properties)
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"train": {"iteration": 2}}, "train section: unknown key 'iteration'"),
            ({"properties": [{**README_PROPERTIES[0], "treshold": 0.9}]},
             "property amide: unknown key 'treshold'"),
            ({"sampel": {"n": 5}}, "unknown key 'sampel'"),
        ],
        ids=["section-key", "property-key", "top-level-key"],
    )
    def test_unknown_key_rejected_before_writing(self, tmp_path, capsys, overrides, error):
        cfg = write_config(tmp_path, tmp_path / "run", **overrides)
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "run").exists()


# Each library parameter or field that stands for a run setting, which the
# caller passes: cli._DEFAULTS (and the property defaults of
# cli._check_properties) is the only place such a setting has a default.
SETTING_PARAMETERS = [
    (forest.train_forest, "n_trees"),
    (forest.train_forest, "max_depth"),
    (forest.PropertySpec, "threshold"),
    *((entry, name) for entry in (extract.extract_rationales, extract.build_vocab)
      for name in ("iterations", "c_puct", "max_atoms")),
    (merge.build_multi_vocab, "shortlist_size"),
    *((genmodel.GenModel, name) for name in ("hidden", "latent", "rounds")),
    (genmodel.complete_with_trace, "max_steps"),
    (train.rationale_distribution, "max_steps"),
    (train.rationale_distribution, "samples_per_rationale"),
    (train.sample_molecules, "max_steps"),
    (numsub.adam_step, "lr"),
    (forest.train_forest, "seed"),
    (train.rationale_distribution, "seed"),
    (synthetic.random_molecule, "ring_prob"),
    *((cls, f.name) for cls in (train.TrainConfig, synthetic.CorpusSpec)
      for f in dataclasses.fields(cls)),
]


# Library options that only tests set, now gone (kept False), and arguments
# that every pipeline caller passes, now required (kept True): each entry
# point has the one path the pipeline runs.
ONE_PATH_PARAMETERS = [
    (chemgraph.write_smiles, "rng", False),
    (chemgraph.write_smiles_with_order, "rng", False),
    (chemgraph.embeddings, "induced", False),
    *((numsub.adam_step, name, False) for name in ("beta1", "beta2", "eps")),
    (cli._split_indices, "holdout", False),
    (genmodel.log_likelihood_tensor, "mapping", True),
    (extract.extract_rationales, "score_cache", True),
    (numsub.save_params, "extra", True),
    (train.finetune, "train_positives", True),
]


class TestOneDefaultPerSetting:
    @pytest.mark.parametrize(
        "entry, name", SETTING_PARAMETERS,
        ids=[f"{entry.__name__}.{name}" for entry, name in SETTING_PARAMETERS],
    )
    def test_library_setting_has_no_default(self, entry, name):
        where = f"{entry.__module__}.{entry.__qualname__}({name}=...)"
        default = inspect.signature(entry).parameters[name].default
        assert default is inspect.Parameter.empty, f"{where} defaults to {default!r}"
        if dataclasses.is_dataclass(entry):
            field = {f.name: f for f in dataclasses.fields(entry)}[name]
            assert field.default is field.default_factory is dataclasses.MISSING, where

    @pytest.mark.parametrize(
        "entry, name, kept", ONE_PATH_PARAMETERS,
        ids=[f"{entry.__name__}.{name}" for entry, name, _ in ONE_PATH_PARAMETERS],
    )
    def test_library_entry_has_one_path(self, entry, name, kept):
        where = f"{entry.__module__}.{entry.__qualname__}"
        params = inspect.signature(entry).parameters
        if not kept:
            assert name not in params, f"{where} still takes {name}"
        else:
            assert params[name].default is inspect.Parameter.empty, f"{where}({name}=...)"

    def test_no_module_keeps_default_constants(self):
        names = [
            f"{info.name}.{attr}"
            for info in pkgutil.iter_modules(molrationale.__path__) if info.name != "__main__"
            for attr in vars(importlib.import_module(f"molrationale.{info.name}"))
            if attr.startswith("DEFAULT_")
        ]
        assert names == []


class TestArtifacts:
    def test_run_directory_holds_exactly_the_declared_writes(self, pipeline):
        cfg_file, run_dir = pipeline
        cfg = load_config(cfg_file)
        declared = {path for _, stage in cli._STAGES for path in cli._paths(cfg, stage.writes)}
        manifests = {run_dir / f"{name}.manifest.json" for name, _ in cli._STAGES}
        assert set(run_dir.iterdir()) == declared | manifests

    def test_all_manifests_written(self, pipeline):
        _cfg, run_dir = pipeline
        for stage in [
            "gen-synthetic", "train-predictor", "extract", "merge",
            "pretrain", "finetune", "sample", "evaluate", "faithfulness",
        ]:
            doc = json.loads((run_dir / f"{stage}.manifest.json").read_text())
            assert doc["schema_version"] == 1
            assert doc["stage"] == stage
            assert doc["config_hash"]

    def test_manifests_list_inputs(self, pipeline):
        _cfg, run_dir = pipeline
        forests = ["forest_amide.json", "forest_phenol.json"]
        corpus = ["properties.csv"]
        expected = {
            "extract": [*corpus, *forests],
            "merge": ["vocab_amide.json", "vocab_phenol.json", *forests],
            "finetune": [*corpus, *forests, "vocab_multi.json",
                         "pretrain.ckpt.json", "pretrain.ckpt.bin"],
            "sample": ["vocab_multi.json", "finetune.ckpt.json", "finetune.ckpt.bin",
                       "distribution.json"],
            "evaluate": [*corpus, *forests, "samples.smi"],
            "faithfulness": [*corpus, "vocab_amide.json", "vocab_phenol.json"],
        }
        for stage, names in expected.items():
            doc = json.loads((run_dir / f"{stage}.manifest.json").read_text())
            assert sorted(doc["inputs"]) == sorted(names)
            for name in names:
                digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                assert doc["inputs"][name] == digest, (stage, name)

    def test_rerun_stage_reproduces_artifact_hashes(self, pipeline):
        cfg_file, run_dir = pipeline
        before = json.loads((run_dir / "extract.manifest.json").read_text())
        assert main(["extract", "--config", str(cfg_file)]) == EXIT_OK
        after = json.loads((run_dir / "extract.manifest.json").read_text())
        assert before["outputs"] == after["outputs"]

    def test_evaluation_report_exists(self, pipeline):
        _cfg, run_dir = pipeline
        lines = (run_dir / "evaluation.csv").read_text().strip().splitlines()
        assert lines[0].startswith("n,success")
        assert len(lines) == 2

    def test_faithfulness_report(self, pipeline):
        _cfg, run_dir = pipeline
        doc = json.loads((run_dir / "faithfulness.json").read_text())
        for name in ("amide", "phenol"):
            assert 0.0 <= doc[name]["exact_match_rate"] <= 1.0
            assert 0.0 <= doc[name]["coverage"] <= 1.0
            assert doc[name]["evaluated"] > 0

    def test_faithfulness_reads_no_forest(self, pipeline, tmp_path):
        # the ranking uses the scores stored in the vocabularies
        cfg, run = copy_pipeline(pipeline, tmp_path)
        before = (run / "faithfulness.json").read_bytes()
        forest = run / "forest_amide.json"
        forest.write_text(forest.read_text() + " ")
        assert main(["faithfulness", "--config", cfg]) == EXIT_OK
        assert (run / "faithfulness.json").read_bytes() == before

    def test_finetune_stats_columns(self, pipeline):
        _cfg, run_dir = pipeline
        header = (run_dir / "finetune_stats.csv").read_text().splitlines()[0]
        assert header == (
            "iteration,success,diversity,novelty,kept,sampled,atoms_added_mean,unchanged_share,"
            "truncated"
        )

    def test_finetune_stats_record_completion_sizes(self, pipeline):
        _cfg, run_dir = pipeline
        with open(run_dir / "finetune_stats.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            sampled = int(row["sampled"])
            attempted = sampled + int(row["truncated"])
            assert 0 <= int(row["kept"]) <= sampled
            assert float(row["success"]) == pytest.approx(int(row["kept"]) / attempted, abs=1e-6)
            assert float(row["atoms_added_mean"]) >= 0.0
            assert 0.0 <= float(row["unchanged_share"]) <= 1.0

    def test_distribution_normalized(self, pipeline):
        _cfg, run_dir = pipeline
        doc = json.loads((run_dir / "distribution.json").read_text())
        total = sum(e["probability"] for e in doc["entries"])
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(e["probability"] > 0 for e in doc["entries"])

    def test_prepared_start_matches_fresh_decode_on_merged_vocabulary(self, pipeline):
        _cfg, run_dir = pipeline
        vocab = RationaleVocab.load(run_dir / "vocab_multi.json")
        model = GenModel.load(str(run_dir / "pretrain.ckpt"))
        grown = 0
        for r in vocab.entries:
            start = prepare_start(model, r)
            for seed in range(300 // len(vocab.entries) + 1):
                z = prior_latent(model, np.random.default_rng([9, seed]))
                out = same_outcome(model, r, z, seed, 8, start)
                grown += out[0] != "truncated" and out[0].n > r.n_atoms
        assert grown >= 100

    def test_step_mask_equals_walk_mask_on_merged_vocabulary(self, pipeline):
        _cfg, run_dir = pipeline
        vocab = RationaleVocab.load(run_dir / "vocab_multi.json")
        model = GenModel.load(str(run_dir / "pretrain.ckpt"))
        completions = decisions = valence_bans = 0
        for r in vocab.entries:
            start = prepare_start(model, r)
            for seed in range(1000 // len(vocab.entries) + 1):
                rng = np.random.default_rng([13, seed])
                z = prior_latent(model, rng)
                for walk_mask, oracle_mask in walk_and_oracle_masks(model, start, z, rng, 8):
                    assert np.array_equal(walk_mask, oracle_mask), (r.key, seed)
                    decisions += 1
                    valence_bans += bool(np.any(walk_mask[:-1] != 0.0))
                completions += 1
        assert completions >= 1000 and decisions >= 1000 and valence_bans > 0


class TestEntryPoint:
    BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def python(self, code: str, **env: str) -> str:
        """Run code in a fresh interpreter that finds this package; its stdout."""
        src = str(Path(cli.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items() if k not in self.BLAS}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                              capture_output=True, text=True, check=True)
        return proc.stdout

    def test_package_import_loads_no_numpy(self):
        assert self.python("import molrationale, sys; print('numpy' in sys.modules)") == "False\n"

    def test_blas_pin_fills_unset_variables_and_keeps_a_preset_one(self):
        code = (
            "import os, sys\n"
            "from molrationale.__main__ import main\n"
            "sys.argv = ['molrationale', 'gen-synthetic', '--config', 'missing.json']\n"
            "assert main() == 2 and 'numpy' in sys.modules\n"
            f"print(*(os.environ.get(v) for v in {self.BLAS!r}))\n"
        )
        assert self.python(code, OMP_NUM_THREADS="3").split() == ["1", "3", "1"]
