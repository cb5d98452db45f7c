"""Microbenchmarks of the search-state analysis on one desk extract (the
README minimal config, seed 11).

- `canonical_key` over every graph the extract stage keys, in call order,
  the memo emptied before each repetition, so repeated search states are
  memo hits and the rest are misses. `extra_info` stores the call and entry
  counts, and tracemalloc's KB per memo entry that stays allocated once the
  keyed graphs are dropped.
- `peripheral_deletions` (ring perception by `sssr` included) over every
  state the extract stage expands, in call order.
- `apply_deletion_with_map` over every deletion of those states.

Not part of the test suite; run with

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import gc
import json
import tracemalloc

import pytest

from molrationale import chemgraph, extract
from molrationale.chemgraph import (
    Bond,
    MolGraph,
    apply_deletion_with_map,
    canonical_key,
    peripheral_deletions,
)
from molrationale.cli import cmd_extract, cmd_gen_synthetic, cmd_train_predictor, load_config


@pytest.fixture(scope="module")
def desk_extract(tmp_path_factory):
    """The graphs one desk extract passes to `canonical_key`, and the states
    it expands, each in call order."""
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
    cmd_gen_synthetic(cfg, False)
    cmd_train_predictor(cfg, False)
    keyed: list[MolGraph] = []
    expanded: list[MolGraph] = []

    def recording_key(g):
        keyed.append(g)
        return canonical_key(g)

    def recording_deletions(g):
        expanded.append(g)
        return peripheral_deletions(g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extract, "canonical_key", recording_key)
        mp.setattr(extract, "peripheral_deletions", recording_deletions)
        cmd_extract(cfg, False)
    return keyed, expanded


def retained_kb_per_entry(graphs: list[MolGraph]) -> float:
    """KB that stays allocated per memo entry after keying fresh copies of
    the graphs (new atom tuples and bonds, as a search builds them) and
    dropping the copies."""
    chemgraph._memo.clear()
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for g in graphs:
        canonical_key(MolGraph(list(g.atoms), [Bond(b.u, b.v, b.order) for b in g.bonds]))
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return retained / 1024 / len(chemgraph._memo)


def test_canonical_keys_of_desk_extract(benchmark, desk_extract):
    states, _ = desk_extract
    per_entry = retained_kb_per_entry(states)
    keys = benchmark.pedantic(
        lambda: [canonical_key(g) for g in states], setup=chemgraph._memo.clear, rounds=20
    )
    assert len(keys) == len(states)
    benchmark.extra_info.update(
        calls=len(states), entries=len(chemgraph._memo), retained_kb_per_entry=round(per_entry, 3)
    )


def test_peripheral_deletions_of_desk_extract(benchmark, desk_extract):
    _, expanded = desk_extract
    dels = benchmark.pedantic(lambda: [peripheral_deletions(g) for g in expanded], rounds=20)
    benchmark.extra_info.update(calls=len(expanded), deletions=sum(map(len, dels)))


def test_apply_deletions_of_desk_extract(benchmark, desk_extract):
    _, expanded = desk_extract
    pairs = [(g, d) for g in expanded for d in peripheral_deletions(g)]
    children = benchmark.pedantic(
        lambda: [apply_deletion_with_map(g, d) for g, d in pairs], rounds=20
    )
    assert len(children) == len(pairs)
    benchmark.extra_info.update(calls=len(pairs))
