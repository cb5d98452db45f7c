"""Pre-training pair construction, VAE pre-training, policy-gradient
fine-tuning, and the closed-form rationale distribution."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace

import numpy as np

from . import numsub as ns
from .chemgraph import MolGraph, canonical_key, induced_subgraph
from .extract import Rationale, RationaleVocab, peripheral_atoms
from .fingerprint import fingerprint_matrix
from .forest import PropertySpec, positive_mask
from .genmodel import (
    DecodeStart,
    GenModel,
    TruncationError,
    complete_with_trace,
    encode,
    log_likelihood_tensor,
    prepare_start,
    prior_latent,
    sample_latent,
    trace_log_likelihood,
)

log = logging.getLogger(__name__)

_DISTRIBUTION_VERSION = 1


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    entropy_weight: float  # lambda in the rationale distribution
    samples_per_rationale: int  # K
    iterations: int  # L
    kl_weight: float  # beta
    learning_rate: float
    batch_size: int
    pretrain_epochs: int
    max_subgraph_atoms: int  # N for pre-training pairs
    pairs_per_molecule: int
    max_decode_steps: int
    dist_samples: int  # completions per rationale for the distribution
    seed: int

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

    rationales: tuple[Rationale, ...]
    reward_estimates: np.ndarray  # I-hat per rationale
    probabilities: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": _DISTRIBUTION_VERSION,
                "entries": [
                    {"key": r.key, "reward": float(i), "probability": float(p)}
                    for r, i, p in zip(self.rationales, self.reward_estimates, self.probabilities)
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str, vocab: RationaleVocab) -> "RationaleDistribution":
        """Read to_json's document, whose keys name rationales of vocab, with
        the probabilities renormalized to sum to 1."""
        doc = json.loads(text)
        if doc.get("version") != _DISTRIBUTION_VERSION:
            raise ValueError(f"unsupported distribution version {doc.get('version')}")
        entries = doc["entries"]
        if not entries:
            raise ValueError("has no entries")
        by_key = {r.key: r for r in vocab.entries}
        if any(e["key"] not in by_key for e in entries):
            raise ValueError("names a rationale missing from the merged vocabulary")
        probs = np.array([e["probability"] for e in entries], dtype=float)
        if not np.all(np.isfinite(probs) & (probs >= 0)):
            raise ValueError("has a probability that is negative or not finite")
        if probs.sum() == 0:
            raise ValueError("has probabilities that sum to zero")
        return cls(
            rationales=tuple(by_key[e["key"]] for e in entries),
            reward_estimates=np.array([e["reward"] for e in entries]),
            probabilities=probs / probs.sum(),
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
            pairs.append(
                (
                    Rationale(
                        sub,
                        scores={},
                        peripheral=peripheral_atoms(sub, g, order),
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
    ns.zero_grads(model.params)
    order = np.arange(len(pairs))
    for epoch in range(cfg.pretrain_epochs):
        rng.shuffle(order)
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
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
            _adam_update(model, adam_state, cfg.learning_rate)
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
    sampled: int = 0  # completions drawn, truncated ones excluded
    atoms_added_mean: float | None = None  # over every completion drawn
    unchanged_share: float | None = None  # completions that add no atom
    truncated: int = 0  # completions that reached max_decode_steps


def _draw_completion(model: GenModel, start: DecodeStart, rng: np.random.Generator,
                     max_steps: int) -> tuple[MolGraph, list[int], np.ndarray] | None:
    """A latent from the prior, then a completion from a rationale's prepared
    start, both drawn from rng: (graph, trace, latent), or None when the
    completion reached max_steps."""
    z = prior_latent(model, rng)
    try:
        g, trace_ids = complete_with_trace(model, start.rationale, z, rng, max_steps=max_steps,
                                           start=start)
    except TruncationError:
        return None
    return g, trace_ids, z


def _decode_and_score(
    model: GenModel,
    starts: list[DecodeStart],
    props: list[PropertySpec],
    cfg: TrainConfig,
    it: int,
    ref: np.ndarray | None,
) -> tuple[FinetuneStats, list[tuple[DecodeStart, list[int], np.ndarray]]]:
    """One fine-tuning iteration's completions, decoded from the rationales'
    starts first and then scored as one batch per property; returns the
    iteration's statistics and the kept (start, trace, latent) trajectories.
    The completions and their fingerprints are dropped on return, before the
    update's tape. Success is the kept share of the completions attempted, so
    a truncated completion counts as a miss."""
    from .metrics import diversity as diversity_fn
    from .metrics import novelty as novelty_fn

    drawn: list[tuple[DecodeStart, MolGraph, list[int], np.ndarray]] = []
    truncated = 0
    for r_idx, start in enumerate(starts):
        for s_idx in range(cfg.samples_per_rationale):
            rng = np.random.default_rng([cfg.seed, 7919, it, r_idx, s_idx])
            out = _draw_completion(model, start, rng, cfg.max_decode_steps)
            if out is None:
                truncated += 1
            else:
                drawn.append((start, *out))
    keep = positive_mask([d[1] for d in drawn], props)
    kept = [(start, trace_ids, z) for (start, _g, trace_ids, z), k in zip(drawn, keep) if k]
    positives = [d[1] for d, k in zip(drawn, keep) if k]
    div = nov = None
    if positives:
        fps = fingerprint_matrix(positives)
        if len(positives) >= 2:
            div = diversity_fn(fps)
        if ref is not None:
            nov = novelty_fn(fps, ref)
    success = len(kept) / (len(drawn) + truncated)
    added = np.array([d[1].n - d[0].rationale.n_atoms for d in drawn])
    added_mean = float(added.mean()) if drawn else None
    unchanged = float((added == 0).mean()) if drawn else None
    stats = FinetuneStats(it, success, div, nov, len(kept), len(drawn), added_mean, unchanged,
                          truncated)
    return stats, kept


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
    ref = fingerprint_matrix(train_positives) if train_positives else None
    adam_state: dict = {}
    stats: list[FinetuneStats] = []
    for it in range(cfg.iterations):
        # sampling and the policy step share the starts: the Adam step that
        # makes them stale comes after the replay
        starts = [prepare_start(model, r) for r in vocab.entries]
        it_stats, kept = _decode_and_score(model, starts, props, cfg, it, ref)
        stats.append(it_stats)
        if not kept:
            log.warning("finetune iteration %d: no positive samples, skipping update", it)
            continue
        _policy_step(model, kept, cfg, adam_state, it)
    if not any(s.kept for s in stats):
        raise TrainingError("every fine-tuning iteration produced no positives")
    return stats


def _policy_step(
    model: GenModel,
    kept: list[tuple[DecodeStart, list[int], np.ndarray]],
    cfg: TrainConfig,
    adam_state: dict,
    it: int,
) -> None:
    """One Adam step on the mean negative log-likelihood of the kept
    trajectories. Each trajectory is back-propagated as soon as it is
    replayed, its gradient adding to those of the earlier ones, so the tape
    holds one trajectory at a time. The trajectories drawn from one start are
    replayed from it with its MPN rows as a detached leaf: the leaf's gradient
    sums over them, and one more backward takes that sum through the start's
    decoder MPN, which is exact since the gradient is linear. A non-finite
    trajectory raises before the Adam step, leaving the parameters
    unchanged."""
    ns.zero_grads(model.params)
    weight = -1.0 / len(kept)
    by_start: dict[int, list] = {}
    for trajectory in kept:
        by_start.setdefault(id(trajectory[0]), []).append(trajectory)
    for group in by_start.values():
        start = group[0][0]
        leaf = ns.Tensor(start.h.data, requires_grad=True)
        shared = replace(start, h=leaf)
        for _start, trace_ids, z in group:
            ll = trace_log_likelihood(model, start.rationale, trace_ids, z, start=shared)
            if not np.isfinite(ll.data):
                raise TrainingError(f"non-finite fine-tuning loss at iteration {it}")
            ns.backward(ns.scale(ll, weight))
        if leaf.grad is not None:  # None when no walk made a decision
            ns.backward(ns.sum_all(ns.mul(start.h, ns.const(leaf.grad))))
    _adam_update(model, adam_state, cfg.learning_rate)


def _adam_update(model: GenModel, adam_state: dict, lr: float) -> None:
    """One Adam step on the parameters' gradients, which are then dropped, so
    that none lives through the next tape or the next decoding."""
    ns.adam_step(model.params, {k: t.grad for k, t in model.params.items() if t.grad is not None},
                 adam_state, lr=lr)
    ns.zero_grads(model.params)


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
    samples_per_rationale: int,
    max_steps: int,
    seed: int = 0,
) -> RationaleDistribution:
    """Estimate each rationale's expected indicator reward by sampling, then
    set P(S_k) proportional to exp(reward_k / entropy_weight)."""
    if entropy_weight <= 0:
        raise TrainingError("entropy_weight must be positive")
    drawn: list[tuple[int, MolGraph]] = []
    for r_idx, rationale in enumerate(vocab.entries):
        start = prepare_start(model, rationale)
        for s_idx in range(samples_per_rationale):
            rng = np.random.default_rng([seed, 104729, r_idx, s_idx])
            out = _draw_completion(model, start, rng, max_steps)
            if out is not None:  # a truncated completion counts as a miss
                drawn.append((r_idx, out[0]))
    hits = [0] * len(vocab.entries)
    for (r_idx, _), positive in zip(drawn, positive_mask([g for _, g in drawn], props)):
        hits[r_idx] += int(positive)
    rewards = [h / samples_per_rationale if samples_per_rationale else 0.0 for h in hits]
    rewards_arr = np.array(rewards)
    return RationaleDistribution(
        rationales=tuple(vocab.entries),
        reward_estimates=rewards_arr,
        probabilities=closed_form_distribution(rewards_arr, entropy_weight),
    )


def sample_molecules(
    model: GenModel,
    dist: RationaleDistribution,
    n: int,
    rng: np.random.Generator,
    max_steps: int,
) -> list[tuple[MolGraph, str]]:
    """Draw rationale ~ P(S) then complete it; truncated completions are
    redrawn, with total attempts capped at 10n."""
    starts = [prepare_start(model, r) for r in dist.rationales]
    out: list[tuple[MolGraph, str]] = []
    attempts = 0
    while len(out) < n and attempts < 10 * n:
        attempts += 1
        k = int(rng.choice(len(dist.probabilities), p=dist.probabilities))
        drew = _draw_completion(model, starts[k], rng, max_steps)
        if drew is not None:
            out.append((drew[0], dist.rationales[k].key))
    if len(out) < n:
        log.warning("sample_molecules: produced %d of %d after %d attempts", len(out), n, attempts)
    return out

