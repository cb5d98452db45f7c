"""Pipeline benchmark for molrationale: the pretrain and generate slices of
run-all.

One run of one workload (what the benchmark driver runs):

    python3 perfbench/run.py --workload pretrain --seed 11 --seconds 10 --trace 0

A run is whole rounds, at least three (four for generate) and until the timed
stages have taken ``--seconds``, each round in a fresh process.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

Every workload, untraced then traced, printing every metric with its unit
and the tracing overhead, after rewriting BENCHMARK.json:

    python3 perfbench/run.py --all --seed 11
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MAX_ROUNDS = 12
SUMMARY_TAG = "perfbench-summary "


def _child(args) -> int:
    """Run one round in this process and print its result as JSON."""
    sys.path.insert(0, str(SRC))
    from rounds import Round
    from workloads import WORKLOADS

    result = Round(WORKLOADS[args.workload], args.seed, args.round,
                   Path(args.run_dir), bool(args.trace)).run()
    print(json.dumps(result))
    return 0


def _round(name: str, seed: int, index: int, traced: bool, run_dir: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
           "--trace", str(int(traced)), "--round", str(index), "--run-dir", str(run_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round {index} of {name} exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(rounds: list[dict]) -> dict:
    done = [r for r in rounds if r["ok"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
        # a median, so one round whose decoder is slow does not set the
        # run's figure
        "throughput": (statistics.median(r["attempted"] / r["slice_s"] for r in done), "1/s"),
        # a mean: peak RSS has no timing noise, and it varies with the corpus
        "peak_rss_mb": (statistics.mean(r["peak_rss_mb"] for r in done), "MB"),
    }


def per_layer(rounds: list[dict]) -> dict:
    import spec

    done = [r for r in rounds if r["ok"]]
    n = len(done)
    out = {}
    for s in spec.STAGES:
        out[f"cli.{s}.s"] = (sum(r["stage_s"].get(s, 0.0) for r in done) / n, "s")
    for qualname, fields in spec.SPANS:
        calls = sum(r["spans"].get(qualname, [0, 0.0])[0] for r in done)
        self_s = sum(r["spans"].get(qualname, [0, 0.0])[1] for r in done)
        if "calls" in fields:
            out[f"{qualname}.calls"] = (calls / n, "count")
        if "self_s" in fields:
            out[f"{qualname}.self_s"] = (self_s / n, "s")
    c = {k: sum(r["counters"][k] for r in done) for k in done[0]["counters"]}

    def ratio(a, b):
        return a / b if b else 0.0

    def stage_rss(stage):
        values = [r["stage_rss"][stage] for r in done if stage in r["stage_rss"]]
        return statistics.median(values) if values else 0.0

    derived = {
        "cli.pretrain.peak_rss_mb": stage_rss("pretrain"),
        "cli.finetune.peak_rss_mb": stage_rss("finetune"),
        "extract.scored_per_molecule": ratio(c["extract_scored"], c["extract_searched"]),
        "merge.kept_per_candidate": ratio(c["merged"], c["candidates"]),
        "genmodel.decisions_per_completion": ratio(c["decisions"], c["completions"]),
        "genmodel.atoms_added_per_completion": ratio(c["atoms_added"], c["completions"]),
        "genmodel.truncated_per_completion": ratio(
            sum(r["truncated"] for r in done), sum(r["attempted"] for r in done)),
        "train.finetune.kept_per_sampled": ratio(c["kept"], c["sampled"]),
        "health.runtime_warnings": c["warnings"] / n,
    }
    units = {name: unit for name, unit, _better in spec.DERIVED}
    out.update({k: (v, units[k]) for k, v in derived.items()})
    return out


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import WORKLOADS

    min_rounds = WORKLOADS[name].rounds
    base_dir = HERE / "runs" / f"{name}-s{seed}-t{int(traced)}-{os.getpid()}"
    shutil.rmtree(base_dir, ignore_errors=True)
    rounds: list[dict] = []
    try:
        while len(rounds) < min_rounds or (
            sum(r.get("slice_s", 0.0) for r in rounds) < seconds and len(rounds) < MAX_ROUNDS
        ):
            rounds.append(_round(name, seed, len(rounds), traced, base_dir / f"r{len(rounds)}"))
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    errors = [f"round {i}: {e}" for i, r in enumerate(rounds) for e in r["errors"]]
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    if not any(r["ok"] for r in rounds):
        raise RuntimeError(f"every round of {name} failed")
    metrics = per_layer(rounds) if traced else end_to_end(rounds)
    for k, (v, unit) in metrics.items():
        print(f"{name:9s} {k:42s} {v:14.6g} {unit}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in rounds)
    print(SUMMARY_TAG + json.dumps({
        "workload": name, "seed": seed, "traced": traced,
        "setup_s": [r.get("setup_s") for r in rounds], "slice_s": [r.get("slice_s") for r in rounds],
        "attempted": [r["attempted"] for r in rounds], "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }))
    return {
        # a round whose stage raised never had its outputs checked
        "correct": not errors and all(r["ok"] for r in rounds),
        "attempted": attempted,
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    import spec
    from workloads import WORKLOADS

    spec.write_benchmark_json(ROOT)
    status = 0
    for name in WORKLOADS:
        summaries = {}
        for traced in (False, True):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(traced))]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"== {name} trace={int(traced)}: exit {proc.returncode}")
                status = 1
                continue
            summaries[traced] = next(
                json.loads(x[len(SUMMARY_TAG):]) for x in lines if x.startswith(SUMMARY_TAG))
            result = json.loads(lines[-1])
            print(f"== {name} trace={int(traced)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"(one operation: {WORKLOADS[name].unit_label})")
            for k, m in result["metrics"].items():
                print(f"   {k:42s} {m['value']:14.6g} {m['unit']}")
            status |= not result["correct"]
        if len(summaries) == 2:
            per_unit = {t: sum(s["slice_s"]) / sum(s["attempted"]) for t, s in summaries.items()}
            print(f"   tracing overhead (traced / untraced time per unit): "
                  f"{per_unit[True] / per_unit[False]:.2f}x")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and not")
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--run-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "molrationale" / "__init__.py").is_file():
        print(f"perfbench: no molrationale sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: load comes from a single process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import spec
    from workloads import WORKLOADS

    if args.round is not None:
        return _child(args)
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    if args.all:
        return run_all(args.seed, seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    print(json.dumps(run_one(args.workload, args.seed, seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
