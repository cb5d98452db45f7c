"""One benchmark round, run in a process of its own: the workload's set-up
stages, then its timed stages, then the output checks.

A `molrationale <stage>` invocation starts with empty caches (the canonical
key cache in ``chemgraph`` holds 200,000 entries), so each round gets a fresh
process and never measures caches an earlier round warmed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import spans
import spec
from molrationale import cli, genmodel
from molrationale.extract import RationaleVocab
from workloads import Workload, round_config


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class UnitCounter:
    """Counts calls of the workload's unit function while ``active``, and
    the calls that raised the decoder's TruncationError.  A truncated
    completion is work done, not a failed operation: the stages skip or redraw
    it, and how many occur depends on the corpus."""

    def __init__(self, qualname: str):
        module_name, func_name = qualname.rsplit(".", 1)
        original = getattr(sys.modules[f"molrationale.{module_name}"], func_name)
        self.active = False
        self.calls = 0
        self.truncated = 0

        def counted(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            self.calls += 1
            try:
                return original(*args, **kwargs)
            except genmodel.TruncationError:
                self.truncated += 1
                raise

        spans.replace_everywhere(original, counted, [])


def cap_vocab(cfg: cli.RunConfig, size: int) -> None:
    """Keep the `size` smallest merged rationales (ties broken by key), so that
    fine-tuning work and its tape do not scale with how many superpositions,
    or how large ones, a corpus's merge happens to yield."""
    path = cfg.run_dir / "vocab_multi.json"
    vocab = RationaleVocab.load(path)
    kept = RationaleVocab(vocab.properties)
    for r in sorted(vocab.entries, key=lambda r: (r.n_atoms, r.key))[:size]:
        kept.add(r)
    kept.save(path)
    cli._write_manifest(cfg, "merge", [], [path])


class Round:
    def __init__(self, workload: Workload, seed: int, index: int, run_dir: Path, traced: bool):
        self.w = workload
        run_dir.mkdir(parents=True)
        cfg_path = run_dir / "bench_config.json"
        cfg_path.write_text(json.dumps(round_config(workload, run_dir, seed, index), indent=2))
        self.cfg = cli.load_config(cfg_path)
        self.handlers = dict(cli._STAGES)
        self.units = UnitCounter(workload.unit)
        self.tracer = spans.Tracer() if traced else None
        self.counters = dict.fromkeys(
            ("candidates", "merged", "completions", "decisions", "atoms_added",
             "kept", "sampled", "warnings"), 0)
        self.stage_s: dict[str, float] = {}
        self.stage_rss: dict[str, float] = {}
        if traced:
            self._install_spans()

    def _install_spans(self) -> None:
        c = self.counters

        def on_merge_pair(args, result):
            c["candidates"] += len(result)

        def on_completion(args, result):
            g, decisions = result
            c["completions"] += 1
            c["decisions"] += len(decisions)
            c["atoms_added"] += g.n - args[1].combined.n

        def on_finetune(args, result):
            c["kept"] += sum(s.kept for s in result)
            c["sampled"] += sum(s.sampled for s in result)

        hooks = {
            "merge.merge_pair": on_merge_pair,
            "genmodel.complete_with_trace": on_completion,
            "train.finetune": on_finetune,
        }
        for qualname, _fields in spec.SPANS:
            self.tracer.install(qualname, hooks.get(qualname))

    def _stage(self, stage: str) -> float:
        if self.tracer is not None:
            self.tracer.stage = stage
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            self.handlers[stage](self.cfg, False)
        elapsed = time.perf_counter() - start
        self.stage_s[stage] = elapsed
        self.stage_rss[stage] = peak_rss_mb()
        if self.tracer is not None and stage == "merge":
            self.counters["merged"] = len(RationaleVocab.load(self.cfg.run_dir / "vocab_multi.json"))
        return elapsed

    @contextlib.contextmanager
    def _count_warnings(self):
        """Count numpy RuntimeWarnings (traced runs only)."""
        if self.tracer is None:
            yield
            return
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)

            def count(*_args, **_kwargs):
                self.counters["warnings"] += 1

            warnings.showwarning = count
            yield

    def run(self) -> dict:
        out = {"ok": False, "errors": []}
        try:
            out["setup_s"] = sum(self._stage(s) for s in self.w.setup)
            if self.w.vocab_cap:
                cap_vocab(self.cfg, self.w.vocab_cap)
            self.units.active = True
            with self._count_warnings():
                out["slice_s"] = sum(self._stage(s) for s in self.w.timed)
            out["ok"] = True
        except Exception:
            traceback.print_exc()
        finally:
            self.units.active = False
        # a stage that raises fails the round's whole work
        out["attempted"] = self.units.calls if out["ok"] else max(self.units.calls, 1)
        out["failed"] = 0 if out["ok"] else out["attempted"]
        out["truncated"] = self.units.truncated
        if self.tracer is not None:
            self.tracer.uninstall()  # the checks' own calls are not the workload's
        # read before the checks, and before they import networkx, which the
        # package never loads: the figure is the stages' own high-water mark
        out["peak_rss_mb"] = peak_rss_mb()
        if out["ok"]:
            import checks

            out["errors"] = checks.CHECKS[self.w.name](self.cfg)
            if self.tracer is not None:
                out["errors"] += cross_check(self)
        out["stage_s"] = self.stage_s
        out["stage_rss"] = self.stage_rss
        if self.tracer is not None:
            t = self.tracer
            out["spans"] = {k: [v.calls, v.self_s] for k, v in t.stats.items()}
            self.counters["extract_scored"] = t.calls_in("extract", "forest.predict_score")
            self.counters["extract_searched"] = t.calls_in("extract", "extract.extract_rationales")
            out["counters"] = self.counters
        return out


def cross_check(rnd: Round) -> list[str]:
    """Span counts of the round against counts taken from its outputs; both
    workloads run extract, merge and pretrain."""
    cfg, calls_in = rnd.cfg, rnd.tracer.calls_in
    errors = []

    def expect(what: str, got: int, want: int) -> None:
        if got != want:
            errors.append(f"{what}: {got} spans, outputs imply {want}")

    mols, labels = cli._load_corpus(cfg)
    limit = cfg.section("extract")["max_molecules"]
    searched = 0
    shortlists = []
    for prop in cli._load_predictors(cfg):
        positives = [g for g, lab in zip(mols, labels[prop.name]) if lab == 1][:limit]
        searched += sum(prop.is_positive(g) for g in positives)
        vocab = RationaleVocab.load(cfg.run_dir / f"vocab_{prop.name}.json")
        shortlists.append(min(len(vocab), cfg.section("merge")["shortlist"]))
    expect("extract_rationales", calls_in("extract", "extract.extract_rationales"), searched)
    expect("merge_pair", calls_in("merge", "merge.merge_pair"), math.prod(shortlists))
    t = cfg.section("train")
    pairs = cfg.section("corpus")["size"] * t["pairs_per_molecule"]
    steps = pairs * t["pretrain_epochs"]
    expect("log_likelihood_tensor", calls_in("pretrain", "genmodel.log_likelihood_tensor"), steps)
    expect("encode", calls_in("pretrain", "genmodel.encode"), steps)
    expect("backward", calls_in("pretrain", "numsub.backward"),
           math.ceil(pairs / t["batch_size"]) * t["pretrain_epochs"])
    if rnd.w.name == "generate":
        vocab = len(RationaleVocab.load(cfg.run_dir / "vocab_multi.json"))
        expect("finetune complete_with_trace", calls_in("finetune", "genmodel.complete_with_trace"),
               vocab * (t["iterations"] * t["samples_per_rationale"] + t["dist_samples"]))
        with open(cfg.run_dir / "finetune_stats.csv") as fh:
            kept = sum(int(row["kept"]) for row in csv.DictReader(fh))
        expect("trace_log_likelihood", calls_in("finetune", "genmodel.trace_log_likelihood"), kept)
        with open(cfg.run_dir / "samples.smi") as fh:
            samples = sum(1 for _ in fh)
        if rnd.units.truncated == 0:
            expect("sample complete_with_trace", calls_in("sample", "genmodel.complete_with_trace"),
                   samples)
    return errors
