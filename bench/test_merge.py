"""Microbenchmarks of MCS merging on one desk corpus (the README minimal
config, seed 11): `max_common_substructure` over the 8 x 8 shortlist pairs
that merge superposes, and the whole `build_multi_vocab`.

Not part of the test suite; run with

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import itertools
import json

import pytest

from molrationale.cli import (
    _load_predictors,
    cmd_extract,
    cmd_gen_synthetic,
    cmd_train_predictor,
    load_config,
)
from molrationale.extract import RationaleVocab
from molrationale.merge import _shortlist, build_multi_vocab, max_common_substructure


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    cfg_file = root / "cfg.json"
    cfg_file.write_text(json.dumps({
        "run_dir": str(root / "run"),
        "seed": 11,
        "properties": [
            {"name": "amide", "motif": "NC(=O)c1ccccc1", "plant_prob": 0.2},
            {"name": "phenol", "motif": "Oc1ccccc1", "plant_prob": 0.2},
        ],
    }))
    cfg = load_config(cfg_file)
    for stage in (cmd_gen_synthetic, cmd_train_predictor, cmd_extract):
        stage(cfg, False)
    specs = _load_predictors(cfg)
    vocabs = [RationaleVocab.load(cfg.run_dir / f"vocab_{s.name}.json") for s in specs]
    return vocabs, specs


def test_mcs_shortlist_pairs(benchmark, desk):
    vocabs, specs = desk
    shortlists = [_shortlist(v, s.name, 8) for v, s in zip(vocabs, specs)]
    pairs = [(a.combined, b.combined) for a, b in itertools.product(*shortlists)]

    def run():
        return [max_common_substructure(a, b) for a, b in pairs]

    mappings = benchmark(run)
    assert len(mappings) == 64


def test_build_multi_vocab(benchmark, desk):
    vocabs, specs = desk
    benchmark(build_multi_vocab, vocabs, specs, 8)
