"""The benchmark's output checks accept real outputs and reject corrupted ones.

Run with ``python3 -m pytest perfbench/tests``; the repository's own test
suite does not collect this directory.
"""

import csv
import json
import shutil

import pytest

import checks
from molrationale import cli
from rounds import cap_vocab
from workloads import WORKLOADS, round_config

# A small generate round: its outputs cover the pretrain workload's as well.
SMALL = {
    "corpus": {"size": 80},
    "train": {"iterations": 1, "samples_per_rationale": 4, "dist_samples": 4},
    "sample": {"n": 12},
}


def _load(run_dir):
    return cli.load_config(run_dir / "bench_config.json")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    w = WORKLOADS["generate"]
    run_dir = tmp_path_factory.mktemp("runs") / "generate"
    run_dir.mkdir()
    raw = round_config(w, run_dir, 11, 0)
    for section, values in SMALL.items():
        raw[section].update(values)
    (run_dir / "bench_config.json").write_text(json.dumps(raw))
    cfg = _load(run_dir)
    handlers = dict(cli._STAGES)
    for stage in w.setup:
        handlers[stage](cfg, False)
    if w.vocab_cap:
        cap_vocab(cfg, w.vocab_cap)
    for stage in w.timed:
        handlers[stage](cfg, False)
    return run_dir


def _clone(run_dir, tmp_path):
    """Copy a run directory and point its config at the copy."""
    dest = tmp_path / run_dir.name
    shutil.copytree(run_dir, dest)
    raw = json.loads((dest / "bench_config.json").read_text())
    raw["run_dir"] = str(dest)
    (dest / "bench_config.json").write_text(json.dumps(raw))
    return dest


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name", ["pretrain", "generate"])
def test_real_outputs_pass(generated, name):
    assert checks.CHECKS[name](_load(generated)) == []


def test_wrong_rationale_source_rejected(generated, tmp_path):
    run_dir = _clone(generated, tmp_path)

    def move_source(doc):
        entries = [r for r in doc["rationales"] if r["sources"]]
        molecules = sorted({s["molecule"] for r in entries for s in r["sources"]})
        src = entries[0]["sources"][0]
        src["molecule"] = next(m for m in molecules if m != src["molecule"])

    _edit_json(run_dir / "vocab_amide.json", move_source)
    errors = checks.check_vocabularies(_load(run_dir))
    assert any("source" in e for e in errors), errors


def test_sample_without_its_rationale_rejected(generated, tmp_path):
    run_dir = _clone(generated, tmp_path)
    path = run_dir / "samples.jsonl"
    lines = path.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["smiles"] = "CC"
    lines[0] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    errors = checks.check_generate(_load(run_dir))
    assert any("sample 1: rationale is not an induced subgraph" in e for e in errors), errors


def test_shifted_diversity_rejected(generated, tmp_path):
    run_dir = _clone(generated, tmp_path)
    path = run_dir / "evaluation.csv"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("diversity")
    rows[1][col] = f"{float(rows[1][col]) + 0.001:.6f}"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    errors = checks.check_generate(_load(run_dir))
    assert any("evaluation diversity" in e for e in errors), errors


def test_unnormalised_distribution_rejected(generated, tmp_path):
    run_dir = _clone(generated, tmp_path)

    def inflate(doc):
        for e in doc["entries"]:
            e["probability"] *= 1.05

    _edit_json(run_dir / "distribution.json", inflate)
    errors = checks.check_generate(_load(run_dir))
    assert any("distribution probabilities" in e for e in errors), errors


def test_non_finite_checkpoint_rejected(generated, tmp_path):
    from molrationale.genmodel import GenModel

    run_dir = _clone(generated, tmp_path)
    model = GenModel.load(str(run_dir / "pretrain.ckpt"))
    model.params["mu_w"].data[0, 0] = float("nan")
    model.save(str(run_dir / "pretrain.ckpt"))
    errors = checks.check_pretrain(_load(run_dir))
    assert any("non-finite parameters" in e for e in errors), errors
