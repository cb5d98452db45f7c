"""Wall time and peak RSS of every run-all stage on the README minimal config
(seed 11), each stage run as a fresh `python -m molrationale <stage>`
process from the `src/` of this checkout.

A stage's peak RSS is the `ru_maxrss` that `os.wait4` reports for its
process, so stages do not inherit one another's peak. BLAS is pinned to one
thread. The record names the config, the commit (`git rev-parse HEAD`) and
the machine, the SHA-256 of every artifact a change is expected to keep
byte-identical (`ARTIFACTS`), so that two records show which of them moved,
and `src_lines`, the `wc -l` total of `src/molrationale/*.py`.

Not part of the test suite; run from anywhere with

    python3 bench/desk_stages.py --out BENCH.json [--run-dir DIR]

Without `--run-dir` the stages write into a temporary directory that is
removed at the end; with it, the run's artifacts are kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from molrationale.cli import _STAGES  # noqa: E402

# The run's byte-compared artifacts: the samples, the metrics, the rationale
# distribution, the fine-tuning record, both checkpoints and the rationale
# vocabularies that extract and merge write.
ARTIFACTS = (
    "samples.smi", "samples.jsonl", "evaluation.csv", "faithfulness.json",
    "distribution.json", "finetune_stats.csv", "pretrain.ckpt.json", "pretrain.ckpt.bin",
    "finetune.ckpt.json", "finetune.ckpt.bin",
    "vocab_amide.json", "vocab_phenol.json", "vocab_multi.json",
)

# The README minimal config, as written under "Minimal config:", without its
# run_dir; every other key takes its desk default.
_README = (ROOT / "README.md").read_text()
CONFIG = json.loads(_README.split("Minimal config:\n\n```json\n")[1].split("```")[0])
del CONFIG["run_dir"]


def run_stage(stage: str, cfg_path: Path, env: dict) -> tuple[float, float]:
    """Run one stage to completion; return (wall seconds, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "molrationale", stage, "--config", str(cfg_path)],
        env=env, stdout=subprocess.DEVNULL,
    )
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"stage {stage} exited with code {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def commit() -> str:
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def src_lines() -> int:
    """Line count of the package's modules, as `wc -l` totals it."""
    return sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "molrationale").glob("*.py"))


def run_all(run_dir: Path) -> tuple[list[dict], dict[str, str]]:
    """Run every stage; return the per-stage rows and the artifact hashes."""
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = run_dir / "desk_config.json"
    cfg_path.write_text(json.dumps({"run_dir": str(run_dir / "run"), **CONFIG}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    rows = []
    for stage, _fn in _STAGES:
        wall, rss = run_stage(stage, cfg_path, env)
        rows.append({"stage": stage, "wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1)})
        print(f"{stage:16s} {wall:8.2f} s {rss:8.1f} MB", file=sys.stderr)
    out = run_dir / "run"
    return rows, {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON record to write")
    parser.add_argument("--run-dir", default=None, help="keep the run's artifacts here")
    args = parser.parse_args()
    head = commit()
    if args.run_dir:
        stages, artifacts = run_all(Path(args.run_dir).resolve())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            stages, artifacts = run_all(Path(tmp))
    record = {
        "commit": head,
        "config": CONFIG,
        "blas_threads": 1,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "stages": stages,
        "total_wall_s": round(sum(s["wall_s"] for s in stages), 3),
        "artifacts_sha256": artifacts,
        "src_lines": src_lines(),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
