import json
from pathlib import Path

import pytest

from molrationale.chemgraph import contains_subgraph, parse_smiles
from molrationale.cli import (
    EXIT_CONFIG,
    EXIT_MISSING,
    EXIT_OK,
    load_config,
    main,
)
from molrationale.forest import read_property_csv


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
        names, smiles, labels = read_property_csv(run_dir / "properties.csv")
        motifs = {
            "amide": parse_smiles("NC(=O)c1ccccc1"),
            "phenol": parse_smiles("Oc1ccccc1"),
        }
        assert set(names) == {"amide", "phenol"}
        for text, row in zip(smiles, labels):
            g = parse_smiles(text)
            for name, value in zip(names, row):
                has = contains_subgraph(g, motifs[name]) is not None
                assert has == bool(value)

    def test_two_label_columns(self, pipeline):
        _cfg, run_dir = pipeline
        names, _smiles, labels = read_property_csv(run_dir / "properties.csv")
        assert len(names) == 2
        assert all(len(row) == 2 for row in labels)

    def test_seed_reproducibility(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cfg1 = write_config(tmp_path / "a", tmp_path / "a" / "run")
        cfg2 = write_config(tmp_path / "b", tmp_path / "b" / "run")
        assert main(["gen-synthetic", "--config", str(cfg1)]) == EXIT_OK
        assert main(["gen-synthetic", "--config", str(cfg2)]) == EXIT_OK
        a = (tmp_path / "a" / "run" / "corpus.smi").read_bytes()
        b = (tmp_path / "b" / "run" / "corpus.smi").read_bytes()
        assert a == b
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


class TestConfigValidation:
    def test_missing_file(self):
        assert main(["gen-synthetic", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG

    def test_bad_preset(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "run", preset="huge")
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_CONFIG

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

    def test_bad_train_section(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "run", train={"entropy_weight": 0})
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    def test_zero_pretrain_epochs_rejected_before_writing(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "run", train={"pretrain_epochs": 0})
        assert main(["pretrain", "--config", str(cfg)]) == EXIT_CONFIG
        assert main(["run-all", "--config", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "run" / "pretrain.manifest.json").exists()

    def test_paper_preset_loads_reference_values(self, tmp_path):
        cfg_file = write_config(tmp_path, tmp_path / "run", preset="paper")
        cfg = load_config(cfg_file)
        assert cfg.section("model")["hidden"] == 400
        assert cfg.section("model")["latent"] == 20
        assert cfg.section("extract")["c_puct"] == 10.0
        assert cfg.section("extract")["max_atoms"] == 20
        assert cfg.section("train")["entropy_weight"] == 0.02
        assert cfg.section("train")["samples_per_rationale"] == 200
        assert cfg.section("train")["iterations"] == 50


class TestArtifacts:
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

    def test_sample_zero_is_valid(self, pipeline):
        cfg_file, run_dir = pipeline
        assert main(["sample", "--config", str(cfg_file), "--n", "0"]) == EXIT_OK
        assert (run_dir / "samples.smi").read_text() == ""

    def test_finetune_stats_columns(self, pipeline):
        _cfg, run_dir = pipeline
        header = (run_dir / "finetune_stats.csv").read_text().splitlines()[0]
        assert header == "iteration,success,diversity,novelty,kept"

    def test_distribution_normalized(self, pipeline):
        _cfg, run_dir = pipeline
        doc = json.loads((run_dir / "distribution.json").read_text())
        total = sum(e["probability"] for e in doc["entries"])
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(e["probability"] > 0 for e in doc["entries"])
