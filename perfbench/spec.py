"""Metric definitions, and the BENCHMARK.json written from them."""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

RUN_SECONDS = 10

# Bounds: timings on the 2-core reference machine drift by a fifth to a third
# between sets of runs, and the generate workload's peak RSS depends on how
# long the kept fine-tuning trajectories of a round's corpus are.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
]

STAGES = (
    "gen-synthetic", "train-predictor", "extract", "merge",
    "pretrain", "finetune", "sample", "evaluate",
)

# (traced function, recorded fields); "calls" is a count and "self_s" the
# span time minus the time of spans nested inside it, both per round.
SPANS = [
    ("synthetic.generate_corpus", ("self_s",)),
    ("forest.train_forest", ("self_s",)),
    ("forest.predict_score", ("calls", "self_s")),
    ("fingerprint.morgan_fingerprint", ("calls", "self_s")),
    ("fingerprint.tanimoto", ("calls", "self_s")),
    ("chemgraph.canonical_key", ("calls", "self_s")),
    ("chemgraph.peripheral_deletions", ("calls", "self_s")),
    ("chemgraph.sssr", ("self_s",)),
    ("chemgraph.apply_deletion_with_map", ("self_s",)),
    ("chemgraph.contains_subgraph", ("calls", "self_s")),
    ("chemgraph.canonical_ranks", ("calls", "self_s")),
    ("extract.extract_rationales", ("calls", "self_s")),
    ("merge.max_common_substructure", ("calls", "self_s")),
    ("merge.merge_pair", ("calls",)),
    ("numsub.matmul", ("calls", "self_s")),
    ("numsub.backward", ("calls", "self_s")),
    ("numsub.adam_step", ("self_s",)),
    ("genmodel.encode", ("calls", "self_s")),
    ("genmodel.log_likelihood_tensor", ("calls", "self_s")),
    ("genmodel.complete_with_trace", ("calls", "self_s")),
    ("genmodel.trace_log_likelihood", ("calls", "self_s")),
    ("train.pretrain", ("self_s",)),
    ("train.finetune", ("self_s",)),
    ("train.rationale_distribution", ("self_s",)),
    ("train.sample_molecules", ("self_s",)),
    ("metrics.diversity", ("calls", "self_s")),
    ("metrics.novelty", ("calls", "self_s")),
]

# Ratios and counters taken at the layer boundaries: (name, unit, better).
DERIVED = [
    ("cli.pretrain.peak_rss_mb", "MB", "lower"),
    ("cli.finetune.peak_rss_mb", "MB", "lower"),
    ("extract.scored_per_molecule", "calls/mol", "lower"),
    ("merge.kept_per_candidate", "ratio", "higher"),
    ("genmodel.decisions_per_completion", "count", "higher"),
    ("genmodel.atoms_added_per_completion", "atoms", "higher"),
    ("genmodel.truncated_per_completion", "ratio", "lower"),
    ("train.finetune.kept_per_sampled", "ratio", "higher"),
    ("health.runtime_warnings", "count", "lower"),
]


def per_layer() -> list[dict]:
    out = [{"name": f"cli.{s}.s", "unit": "s", "better": "lower"} for s in STAGES]
    for qualname, fields in SPANS:
        for f in fields:
            out.append({"name": f"{qualname}.{f}", "unit": "count" if f == "calls" else "s",
                        "better": "lower"})
    out += [{"name": n, "unit": u, "better": b} for n, u, b in DERIVED]
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer(),
    }


def write_benchmark_json(root: Path) -> None:
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
