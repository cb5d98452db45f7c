"""Pre-training pair construction, VAE pre-training, policy-gradient
fine-tuning, and the closed-form rationale distribution."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import numsub as ns
from .chemgraph import MolGraph, canonical_key, induced_subgraph
from .extract import Rationale, RationaleVocab
from .forest import PropertySpec
from .genmodel import (
    DEFAULT_MAX_STEPS,
    GenModel,
    TruncationError,
    complete,
    complete_with_trace,
    encode,
    log_likelihood_tensor,
    prior_latent,
    sample_latent,
    trace_log_likelihood,
)

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    pass


class GenerationError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    entropy_weight: float = 0.02  # lambda in the rationale distribution
    samples_per_rationale: int = 200  # K
    iterations: int = 50  # L
    kl_weight: float = 0.3  # beta
    learning_rate: float = 1e-3
    batch_size: int = 16
    pretrain_epochs: int = 10
    max_subgraph_atoms: int = 20  # N for pre-training pairs
    pairs_per_molecule: int = 2
    max_decode_steps: int = DEFAULT_MAX_STEPS
    dist_samples: int = 20  # completions per rationale for the distribution
    seed: int = 0

    def __post_init__(self):
        if self.entropy_weight <= 0:
            raise ValueError("entropy_weight must be positive")
        if self.samples_per_rationale < 1 or self.iterations < 1:
            raise ValueError("samples_per_rationale and iterations must be >= 1")
        if self.pretrain_epochs < 1:
            raise ValueError("pretrain_epochs must be >= 1")


@dataclass
class RationaleDistribution:
    """Categorical P(S) over a vocabulary with its sampled reward estimates."""

    keys: tuple[str, ...]
    rationales: tuple[Rationale, ...]
    reward_estimates: np.ndarray  # I-hat per rationale
    probabilities: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "entries": [
                    {"key": k, "reward": float(i), "probability": float(p)}
                    for k, i, p in zip(self.keys, self.reward_estimates, self.probabilities)
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def make_pretrain_pairs(
    corpus: list[MolGraph],
    max_atoms: int,
    count_per_mol: int,
    rng: np.random.Generator,
) -> list[tuple[Rationale, MolGraph]]:
    """Random connected induced subgraphs paired with their molecules.

    The subgraph size is uniform on [1, min(max_atoms, n)]; growth picks a
    uniform frontier atom each step from a uniform seed atom.
    """
    if not corpus:
        raise TrainingError("empty corpus")
    if max_atoms < 1:
        raise TrainingError("max_atoms must be >= 1")
    pairs = []
    for g in corpus:
        key = canonical_key(g)
        for _ in range(count_per_mol):
            size = int(rng.integers(1, min(max_atoms, g.n) + 1))
            chosen = [int(rng.integers(g.n))]
            chosen_set = set(chosen)
            while len(chosen) < size:
                frontier = sorted(
                    {
                        w
                        for v in chosen
                        for w in g.neighbors(v)
                        if w not in chosen_set
                    }
                )
                pick = frontier[int(rng.integers(len(frontier)))]
                chosen.append(pick)
                chosen_set.add(pick)
            order = sorted(chosen)
            sub = induced_subgraph(g, order)
            peripheral = tuple(
                i
                for i in range(sub.n)
                if sub.degree(i) < g.degree(order[i]) or sub.degree(i) == 1
            )
            pairs.append(
                (
                    Rationale(
                        fragments=(sub,),
                        scores={},
                        peripheral=peripheral,
                        sources=((key, tuple(order)),),
                    ),
                    g,
                )
            )
    return pairs


def _pair_loss(model: GenModel, rationale: Rationale, g: MolGraph, cfg: TrainConfig,
               rng: np.random.Generator) -> ns.Tensor:
    lp = encode(model, g)
    z = sample_latent(lp, rng)
    mapping = {i: a for i, a in enumerate(rationale.sources[0][1])}
    ll = log_likelihood_tensor(model, g, rationale, z, mapping=mapping)
    loss = ns.scale(ll, -1.0)
    if cfg.kl_weight != 0.0:
        loss = ns.add(loss, ns.scale(ns.gaussian_kl(lp.mu, lp.log_std), cfg.kl_weight))
    return loss


def pretrain(
    model: GenModel,
    pairs: list[tuple[Rationale, MolGraph]],
    cfg: TrainConfig,
) -> list[float]:
    """Maximize the teacher-forced likelihood of (subgraph, molecule) pairs
    with the reparameterized posterior sample; returns per-epoch mean loss."""
    if not pairs:
        raise TrainingError("pretrain requires a non-empty pair set")
    rng = np.random.default_rng(cfg.seed)
    adam_state: dict = {}
    trace: list[float] = []
    order = np.arange(len(pairs))
    for epoch in range(cfg.pretrain_epochs):
        rng.shuffle(order)
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            ns.zero_grads(model.params)
            batch_loss = ns.const(0.0)
            for i in batch:
                rationale, g = pairs[i]
                batch_loss = ns.add(batch_loss, _pair_loss(model, rationale, g, cfg, rng))
            batch_loss = ns.scale(batch_loss, 1.0 / len(batch))
            if not np.isfinite(batch_loss.data):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} batch {start // cfg.batch_size}"
                )
            ns.backward(batch_loss)
            grads = {k: t.grad for k, t in model.params.items() if t.grad is not None}
            ns.adam_step(model.params, grads, adam_state, lr=cfg.learning_rate)
            epoch_losses.append(float(batch_loss.data))
        trace.append(float(np.mean(epoch_losses)))
    return trace


@dataclass
class FinetuneStats:
    iteration: int
    success: float
    diversity: float | None
    novelty: float | None
    kept: int
    sampled: int = 0


def _positive(g: MolGraph, props: list[PropertySpec]) -> bool:
    return all(p.is_positive(g) for p in props)


def finetune(
    model: GenModel,
    vocab: RationaleVocab,
    props: list[PropertySpec],
    cfg: TrainConfig,
    train_positives: list[MolGraph] | None = None,
) -> list[FinetuneStats]:
    """Policy-gradient fine-tuning with indicator reward.

    Kept samples have reward 1 and discarded ones reward 0, so the REINFORCE
    estimator reduces to likelihood ascent on the kept (molecule, rationale)
    trajectories under the latent draws used to sample them.
    """
    if not vocab.entries:
        raise TrainingError("finetune requires a non-empty vocabulary")
    from .metrics import diversity as diversity_fn
    from .metrics import novelty as novelty_fn

    adam_state: dict = {}
    stats: list[FinetuneStats] = []
    empty_streak = 0
    for it in range(cfg.iterations):
        kept: list[tuple[Rationale, list[int], np.ndarray]] = []
        n_sampled = 0
        n_positive = 0
        positives: list[MolGraph] = []
        for r_idx, rationale in enumerate(vocab.entries):
            for s_idx in range(cfg.samples_per_rationale):
                rng = np.random.default_rng(
                    [cfg.seed, 7919, it, r_idx, s_idx]
                )
                z = prior_latent(model, rng)
                try:
                    g, trace_ids = complete_with_trace(
                        model, rationale, z, rng, max_steps=cfg.max_decode_steps
                    )
                except TruncationError:
                    continue
                n_sampled += 1
                if _positive(g, props):
                    n_positive += 1
                    positives.append(g)
                    kept.append((rationale, trace_ids, z))
        success = n_positive / n_sampled if n_sampled else 0.0
        div = diversity_fn(positives) if len(positives) >= 2 else None
        nov = (
            novelty_fn(positives, train_positives)
            if positives and train_positives
            else None
        )
        stats.append(FinetuneStats(it, success, div, nov, len(kept), n_sampled))
        if not kept:
            empty_streak += 1
            log.warning("finetune iteration %d: no positive samples, skipping update", it)
            if empty_streak >= cfg.iterations:
                raise TrainingError("every fine-tuning iteration produced no positives")
            continue
        empty_streak = 0
        ns.zero_grads(model.params)
        loss = ns.const(0.0)
        for rationale, trace_ids, z in kept:
            loss = ns.add(
                loss, ns.scale(trace_log_likelihood(model, rationale, trace_ids, z), -1.0)
            )
        loss = ns.scale(loss, 1.0 / len(kept))
        if not np.isfinite(loss.data):
            raise TrainingError(f"non-finite fine-tuning loss at iteration {it}")
        ns.backward(loss)
        grads = {k: t.grad for k, t in model.params.items() if t.grad is not None}
        ns.adam_step(model.params, grads, adam_state, lr=cfg.learning_rate)
    return stats


def closed_form_distribution(rewards, entropy_weight: float) -> np.ndarray:
    """Optimal categorical weights for expected reward plus entropy
    regularization: P_k proportional to exp(reward_k / entropy_weight)."""
    if entropy_weight <= 0:
        raise TrainingError("entropy_weight must be positive")
    logits = np.asarray(rewards, dtype=np.float64) / entropy_weight
    logits -= logits.max()
    probs = np.exp(logits)
    return probs / probs.sum()


def rationale_distribution(
    model: GenModel,
    vocab: RationaleVocab,
    props: list[PropertySpec],
    entropy_weight: float,
    samples_per_rationale: int = 20,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RationaleDistribution:
    """Estimate each rationale's expected indicator reward by sampling, then
    set P(S_k) proportional to exp(reward_k / entropy_weight)."""
    if entropy_weight <= 0:
        raise TrainingError("entropy_weight must be positive")
    rewards = []
    for r_idx, rationale in enumerate(vocab.entries):
        hits = 0
        total = 0
        for s_idx in range(samples_per_rationale):
            rng = np.random.default_rng([seed, 104729, r_idx, s_idx])
            z = prior_latent(model, rng)
            try:
                g = complete(model, rationale, z, rng, max_steps=max_steps)
            except TruncationError:
                total += 1
                continue
            total += 1
            if _positive(g, props):
                hits += 1
        rewards.append(hits / total if total else 0.0)
    rewards_arr = np.array(rewards)
    return RationaleDistribution(
        keys=tuple(r.key for r in vocab.entries),
        rationales=tuple(vocab.entries),
        reward_estimates=rewards_arr,
        probabilities=closed_form_distribution(rewards_arr, entropy_weight),
    )


def sample_molecules(
    model: GenModel,
    dist: RationaleDistribution,
    n: int,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> list[tuple[MolGraph, str]]:
    """Draw rationale ~ P(S) then complete it; truncated completions are
    redrawn, with total attempts capped at 10n."""
    out: list[tuple[MolGraph, str]] = []
    attempts = 0
    while len(out) < n and attempts < 10 * n:
        attempts += 1
        k = int(rng.choice(len(dist.probabilities), p=dist.probabilities))
        z = prior_latent(model, rng)
        try:
            g = complete(model, dist.rationales[k], z, rng, max_steps=max_steps)
        except TruncationError:
            continue
        out.append((g, dist.keys[k]))
    if len(out) < n:
        log.warning("sample_molecules: produced %d of %d after %d attempts", len(out), n, attempts)
    return out


def success_of_model(
    model: GenModel,
    vocab: RationaleVocab,
    props: list[PropertySpec],
    n: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> float:
    """Positive fraction of n completions with rationales drawn uniformly."""
    if not vocab.entries:
        raise TrainingError("empty vocabulary")
    hits = 0
    total = 0
    for i in range(n):
        rng = np.random.default_rng([seed, 15485863, i])
        rationale = vocab.entries[int(rng.integers(len(vocab.entries)))]
        z = prior_latent(model, rng)
        try:
            g = complete(model, rationale, z, rng, max_steps=max_steps)
        except TruncationError:
            total += 1
            continue
        total += 1
        if _positive(g, props):
            hits += 1
    return hits / total if total else 0.0
