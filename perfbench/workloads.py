"""The benchmark workloads: their configs, set-up stages, timed stages
and work units.

Every key of ``cli._DEFAULTS`` is written into each config, so a change to the
package defaults cannot change what a workload does.  A run executes whole
rounds; round r of a run with seed s uses config seed ``s + 1000 * r``, so the
rounds of one run search, train and decode different corpora and a run's
throughput is not the cost of one corpus.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

PROPERTIES = [
    {"name": "amide", "motif": "NC(=O)c1ccccc1", "plant_prob": 0.2, "threshold": 0.5},
    {"name": "phenol", "motif": "Oc1ccccc1", "plant_prob": 0.2, "threshold": 0.5},
]

# The README minimal config with every default spelled out, except that the
# corpus holds 150 molecules and pretraining makes one pair per molecule for
# one epoch, so that a round lasts seconds instead of minutes.
DESK = {
    "preset": "desk",
    "properties": PROPERTIES,
    "corpus": {
        "size": 150, "atoms_min": 9, "atoms_max": 14,
        "ring_prob": 0.25, "decoy_prob": 0.25, "unique": False,
    },
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
        "pretrain_epochs": 1,
        "max_subgraph_atoms": 20,
        "pairs_per_molecule": 1,
        "max_decode_steps": 60,
        "dist_samples": 20,
    },
    "sample": {"n": 500},
}


def _override(base: dict, changes: dict) -> dict:
    out = copy.deepcopy(base)
    for section, values in changes.items():
        out[section].update(values)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    unit: str  # molrationale function whose calls in the timed stages are the work units
    unit_label: str
    why: str
    vocab_cap: int | None = None  # merged rationales kept for fine-tuning
    rounds: int = 3  # at least this many rounds per run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pretrain",
            config=DESK,
            setup=("gen-synthetic", "train-predictor", "extract", "merge"),
            timed=("pretrain",),
            unit="genmodel.log_likelihood_tensor",
            unit_label="(subgraph, molecule) pair trained",
            why="teacher-forced VAE pretraining, the numsub tape and the MPN forward and "
                "backward, which is 86% of the desk run-all",
        ),
        Workload(
            name="generate",
            # 200 molecules and a 10-atom rationale bound keep merged rationales
            # motif-sized, so that every corpus tried yields a multi-property
            # vocabulary of at least 10 (150 molecules gave an empty one).  The
            # short pretraining takes one Adam step per pair at 5e-3: after 13
            # batch steps at 1e-3 a decoder either adds nothing or runs away,
            # and the cost of a round's completions varied 7x between corpora.
            config=_override(DESK, {
                "corpus": {"size": 200},
                "extract": {"max_atoms": 10},
                "train": {
                    "batch_size": 1, "learning_rate": 5e-3, "iterations": 3,
                    "samples_per_rationale": 20, "dist_samples": 10,
                },
                "sample": {"n": 100},
            }),
            setup=("gen-synthetic", "train-predictor", "extract", "merge", "pretrain"),
            timed=("finetune", "sample", "evaluate"),
            unit="genmodel.complete_with_trace",
            unit_label="completion decoded",
            vocab_cap=8,
            # what a round costs depends on how its pretrained decoder behaves,
            # so a run takes one more corpus into its medians
            rounds=4,
            why="policy-gradient finetune, sampling and Tanimoto evaluation: forward-only "
                "decoding, trajectory replay tape, forests and fingerprints",
        ),
    )
}


def round_config(workload: Workload, run_dir, seed: int, round_index: int) -> dict:
    cfg = copy.deepcopy(workload.config)
    cfg["run_dir"] = str(run_dir)
    cfg["seed"] = seed + 1000 * round_index
    return cfg
