"""Subgraph-conditioned variational graph generator.

An MPN encoder maps a molecule to latent parameters; the decoder grows a
molecule outward from a rationale's peripheral atoms through a FIFO frontier
queue, predicting per step whether to attach a new atom, its type, and its
bonds to every queued atom in order. The decoder re-runs its MPN over the
partial graph at every step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import numsub as ns
from .chemgraph import (
    AROMATIC,
    DOUBLE,
    MAX_VALENCE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    MolGraph,
    canonical_ranks,
    embeddings,
)
from .extract import Rationale

NO_BOND = "no-bond"
BOND_TYPES = (SINGLE, DOUBLE, TRIPLE, AROMATIC, NO_BOND)
NO_BOND_IDX = BOND_TYPES.index(NO_BOND)
_INT_OF_BOND = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3}

_NEG_INF = -1e30

DEFAULT_HIDDEN = 64
DEFAULT_LATENT = 16
DEFAULT_ROUNDS = 3
DEFAULT_MAX_STEPS = 60


class GenModelError(RuntimeError):
    pass


class TruncationError(GenModelError):
    """Sampling exceeded the added-atom budget; carries the partial graph."""

    def __init__(self, partial: MolGraph):
        self.partial = partial
        super().__init__(f"generation truncated with {partial.n} atoms")


class LikelihoodError(GenModelError):
    pass


@dataclass(frozen=True)
class AtomType:
    element: str
    charge: int
    aromatic: bool

    def to_atom(self) -> Atom:
        return Atom(self.element, self.charge, self.aromatic)


@dataclass
class LatentParams:
    """Posterior mean and log standard deviation (used verbatim as exp(.))."""

    mu: ns.Tensor
    log_std: ns.Tensor


def atom_types_from_corpus(corpus) -> tuple[AtomType, ...]:
    seen = set()
    for g in corpus:
        for a in g.atoms:
            seen.add(AtomType(a.element, a.charge, a.aromatic))
    return tuple(sorted(seen, key=lambda t: (t.element, t.charge, t.aromatic)))


class GenModel:
    """Parameter store plus the atom/bond vocabularies and widths."""

    def __init__(
        self,
        atom_types: tuple[AtomType, ...],
        hidden: int = DEFAULT_HIDDEN,
        latent: int = DEFAULT_LATENT,
        rounds: int = DEFAULT_ROUNDS,
        seed: int = 0,
        params: dict[str, ns.Tensor] | None = None,
    ):
        self.atom_types = tuple(atom_types)
        self.type_index = {t: i for i, t in enumerate(self.atom_types)}
        self.unknown_index = len(self.atom_types)
        self.hidden = hidden
        self.latent = latent
        self.rounds = rounds
        self.params = params if params is not None else self._init_params(seed)

    def _init_params(self, seed: int) -> dict[str, ns.Tensor]:
        rng = np.random.default_rng(seed)
        h, z = self.hidden, self.latent
        n_types = len(self.atom_types)
        p: dict[str, ns.Tensor] = {}

        def mat(name, n_in, n_out):
            bound = np.sqrt(6.0 / (n_in + n_out))
            p[name] = ns.param(rng.uniform(-bound, bound, size=(n_in, n_out)), name)

        def vec(name, n):
            p[name] = ns.param(np.zeros(n), name)

        def mlp(name, n_in, n_out):
            mat(f"{name}_w1", n_in, h)
            vec(f"{name}_b1", h)
            mat(f"{name}_w2", h, n_out)
            vec(f"{name}_b2", n_out)

        p["emb_atom"] = ns.param(rng.normal(0.0, 0.1, size=(n_types + 1, h)), "emb_atom")
        p["emb_bond"] = ns.param(rng.normal(0.0, 0.1, size=(len(BOND_TYPES), h)), "emb_bond")
        for prefix in ("enc", "dec"):
            for w in ("w1", "w2", "w3", "u1", "u2"):
                mat(f"{prefix}_{w}", h, h)
        mat("mu_w", h, z)
        vec("mu_b", z)
        mat("sig_w", h, z)
        vec("sig_b", z)
        mlp("expand", 2 * h + z, 1)
        mlp("atom", 2 * h + z, n_types)
        mlp("bond", 3 * h + z, len(BOND_TYPES))
        mlp("gin", 2 * h, h)
        mlp("gout", 2 * h, h)
        return p

    def type_of_atom(self, a: Atom) -> int:
        return self.type_index.get(AtomType(a.element, a.charge, a.aromatic), self.unknown_index)

    def save(self, path_stem: str) -> None:
        extra = {
            "atom_types": [[t.element, t.charge, t.aromatic] for t in self.atom_types],
            "hidden": self.hidden,
            "latent": self.latent,
            "rounds": self.rounds,
        }
        ns.save_params(path_stem, {k: t.data for k, t in self.params.items()}, extra)

    @classmethod
    def load(cls, path_stem: str) -> "GenModel":
        arrays, extra = ns.load_params(path_stem)
        atom_types = tuple(AtomType(e, c, ar) for e, c, ar in extra["atom_types"])
        params = {k: ns.param(v, k) for k, v in arrays.items()}
        return cls(
            atom_types,
            hidden=extra["hidden"],
            latent=extra["latent"],
            rounds=extra["rounds"],
            params=params,
        )


def _mlp(model: GenModel, name: str, x: ns.Tensor) -> ns.Tensor:
    p = model.params
    hid = ns.relu(ns.add(ns.matmul(x, p[f"{name}_w1"]), p[f"{name}_b1"]))
    return ns.add(ns.matmul(hid, p[f"{name}_w2"]), p[f"{name}_b2"])


def _mpn(model: GenModel, prefix: str, type_ids: list[int], edges: list[tuple[int, int, int]]) -> ns.Tensor:
    """Directed-edge message passing; returns per-atom vectors (V, hidden)."""
    p = model.params
    n = len(type_ids)
    e_atoms = ns.gather_rows(p["emb_atom"], type_ids)
    agg_in = None
    if edges:
        directed = []
        for u, v, bt in edges:
            directed.append((u, v, bt))
            directed.append((v, u, bt))
        ne = len(directed)
        src = [type_ids[u] for u, _, _ in directed]
        bts = [bt for _, _, bt in directed]
        amat = np.zeros((ne, ne))
        bmat = np.zeros((n, ne))
        for i, (u, v, _) in enumerate(directed):
            bmat[v, i] = 1.0
            for j, (w, x, _) in enumerate(directed):
                if x == u and w != v:
                    amat[i, j] = 1.0
        a_const = ns.const(amat)
        base = ns.add(
            ns.matmul(ns.gather_rows(p["emb_atom"], src), p[f"{prefix}_w1"]),
            ns.matmul(ns.gather_rows(p["emb_bond"], bts), p[f"{prefix}_w2"]),
        )
        msg = ns.relu(base)
        for _ in range(model.rounds - 1):
            msg = ns.relu(ns.add(base, ns.matmul(ns.matmul(a_const, msg), p[f"{prefix}_w3"])))
        agg_in = ns.matmul(ns.matmul(ns.const(bmat), msg), p[f"{prefix}_u2"])
    out = ns.matmul(e_atoms, p[f"{prefix}_u1"])
    if agg_in is not None:
        out = ns.add(out, agg_in)
    return ns.relu(out)


def mpn_embed(model: GenModel, g: MolGraph, which: str = "enc") -> np.ndarray:
    """Per-atom embedding matrix of a molecule (evaluation only)."""
    type_ids = [model.type_of_atom(a) for a in g.atoms]
    edges = [(b.u, b.v, BOND_TYPES.index(b.order)) for b in g.bonds]
    with ns.no_grad():
        return _mpn(model, which, type_ids, edges).data


def encode(model: GenModel, g: MolGraph) -> LatentParams:
    """Posterior parameters from the summed encoder atom vectors."""
    type_ids = [model.type_of_atom(a) for a in g.atoms]
    edges = [(b.u, b.v, BOND_TYPES.index(b.order)) for b in g.bonds]
    h = _mpn(model, "enc", type_ids, edges)
    hg = ns.row_sum(h)
    p = model.params
    mu = ns.add(ns.matmul(hg, p["mu_w"]), p["mu_b"])
    log_std = ns.add(ns.matmul(hg, p["sig_w"]), p["sig_b"])
    return LatentParams(mu=mu, log_std=log_std)


def sample_latent(lp: LatentParams, rng: np.random.Generator) -> ns.Tensor:
    """z = mu + exp(log_std) * eps with eps from the seeded stream."""
    eps = rng.standard_normal(lp.mu.shape[0])
    return ns.add(lp.mu, ns.mul(ns.exp(lp.log_std), ns.const(eps)))


def prior_latent(model: GenModel, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(model.latent)


# ---------------------------------------------------------------------------
# Decoder state

class DecoderState:
    """Partial graph plus the FIFO frontier queue of atoms that may still
    receive neighbors."""

    def __init__(self, model: GenModel):
        self.model = model
        self.atoms: list[Atom] = []
        self.type_ids: list[int] = []
        self.edges: list[tuple[int, int, int]] = []
        self.int_sum: list[int] = []
        self.arom_count: list[int] = []
        self.queue: deque[int] = deque()
        self.steps = 0

    @classmethod
    def from_rationale(cls, model: GenModel, rationale: Rationale) -> "DecoderState":
        state = cls(model)
        combined = rationale.combined
        for a in combined.atoms:
            state._append_atom(a)
        for b in combined.bonds:
            state._append_bond(b.u, b.v, BOND_TYPES.index(b.order))
        for p in sorted(rationale.peripheral):
            state.queue.append(p)
        return state

    def copy(self) -> "DecoderState":
        dup = DecoderState(self.model)
        dup.atoms = list(self.atoms)
        dup.type_ids = list(self.type_ids)
        dup.edges = list(self.edges)
        dup.int_sum = list(self.int_sum)
        dup.arom_count = list(self.arom_count)
        dup.queue = deque(self.queue)
        dup.steps = self.steps
        return dup

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def _append_atom(self, a: Atom) -> int:
        self.atoms.append(a)
        self.type_ids.append(self.model.type_of_atom(a))
        self.int_sum.append(0)
        self.arom_count.append(0)
        return len(self.atoms) - 1

    def _append_bond(self, u: int, v: int, bond_idx: int) -> None:
        self.edges.append((u, v, bond_idx))
        order = BOND_TYPES[bond_idx]
        for end in (u, v):
            if order == AROMATIC:
                self.arom_count[end] += 1
            else:
                self.int_sum[end] += _INT_OF_BOND[order]

    def _total_valence(self, i: int, extra_int: int = 0, extra_arom: int = 0) -> int:
        return (
            self.int_sum[i]
            + extra_int
            + (3 * (self.arom_count[i] + extra_arom)) // 2
        )

    def _fits(self, i: int, bond_idx: int) -> bool:
        order = BOND_TYPES[bond_idx]
        cap = MAX_VALENCE[self.atoms[i].element]
        if order == AROMATIC:
            return self._total_valence(i, extra_arom=1) <= cap
        return self._total_valence(i, extra_int=_INT_OF_BOND[order]) <= cap

    def can_accept_any_bond(self, i: int) -> bool:
        # a single bond is the cheapest addition under the floor rule
        return self._fits(i, BOND_TYPES.index(SINGLE))

    def bond_mask(self, u: int, q: int, first: bool) -> np.ndarray:
        """Additive logits mask over BOND_TYPES: 0 allowed, -inf banned."""
        mask = np.zeros(len(BOND_TYPES))
        for idx in range(len(BOND_TYPES)):
            if idx == NO_BOND_IDX:
                if first:
                    mask[idx] = _NEG_INF
                continue
            if not (self._fits(u, idx) and self._fits(q, idx)):
                mask[idx] = _NEG_INF
        return mask

    def to_molgraph(self) -> MolGraph:
        return MolGraph(
            self.atoms,
            [Bond(u, v, BOND_TYPES[bt]) for u, v, bt in self.edges],
        )


def _decoder_embed(model: GenModel, state: DecoderState) -> tuple[ns.Tensor, ns.Tensor]:
    h = _mpn(model, "dec", state.type_ids, state.edges)
    return h, ns.row_sum(h)


@dataclass
class StepLogits:
    """One decoding step's distributions; bond distributions are produced
    sequentially because each depends on the bonds already placed."""

    expand_logit: ns.Tensor
    expand_prob: float
    atom_logits: ns.Tensor
    atom_probs: np.ndarray
    _bond_fn: object

    def bond_probs(
        self, new_type_idx: int, prior: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distribution over BOND_TYPES for queue position len(prior), given
        the bond decisions already taken; returns (probs, additive mask)."""
        return self._bond_fn(new_type_idx, prior)


def step_logits(model: GenModel, state: DecoderState, z) -> StepLogits:
    """Expand/atom-type/bond-type heads for the current queue head."""
    if not state.queue:
        raise GenModelError("step_logits on an empty queue")
    z_t = z if isinstance(z, ns.Tensor) else ns.const(z)
    h, hg = _decoder_embed(model, state)
    v_t = state.queue[0]
    x = ns.concat([ns.row(h, v_t), hg, z_t])
    expand_logit = ns.sum_all(_mlp(model, "expand", x))
    atom_logits = _mlp(model, "atom", x)
    atom_probs = ns.softmax(atom_logits)

    queue_snapshot = list(state.queue)

    def bond_fn(new_type_idx: int, prior: list[int]):
        k = len(prior)
        if k >= len(queue_snapshot):
            raise GenModelError("no queue member left for a bond decision")
        shadow = state.copy()
        u = shadow._append_atom(model.atom_types[new_type_idx].to_atom())
        gsum = ns.const(np.zeros(model.hidden))
        e_u = ns.row(model.params["emb_atom"], new_type_idx)
        for j, b_idx in enumerate(prior):
            qj = queue_snapshot[j]
            if b_idx != NO_BOND_IDX:
                shadow._append_bond(u, qj, b_idx)
            gsum = ns.add(
                gsum,
                _mlp(model, "gin", ns.concat([ns.row(h, qj), ns.row(model.params["emb_bond"], b_idx)])),
            )
        g_vec = _mlp(model, "gout", ns.concat([e_u, gsum]))
        qk = queue_snapshot[k]
        logits = _mlp(model, "bond", ns.concat([g_vec, ns.row(h, qk), hg, z_t]))
        mask = shadow.bond_mask(u, qk, first=(k == 0))
        if np.all(mask != 0.0):
            raise GenModelError("no feasible bond decision for a saturated frontier atom")
        probs = ns.softmax(ns.add(logits, ns.const(mask)))
        return probs.data, mask

    return StepLogits(
        expand_logit=expand_logit,
        expand_prob=float(ns.sigmoid(ns.const(expand_logit.data)).data),
        atom_logits=atom_logits,
        atom_probs=atom_probs.data,
        _bond_fn=bond_fn,
    )


# ---------------------------------------------------------------------------
# Decoding engine shared by sampling, trace replay and teacher forcing

class _SamplePolicy:
    def __init__(self, rng: np.random.Generator, greedy: bool = False):
        self.rng = rng
        self.greedy = greedy
        self.trace: list[int] = []

    def expand(self, state, v_t, prob: float) -> bool:
        yes = prob >= 0.5 if self.greedy else self.rng.random() < prob
        self.trace.append(1 if yes else 0)
        return yes

    def _draw(self, probs: np.ndarray) -> int:
        if self.greedy:
            return int(np.argmax(probs))
        p = np.clip(probs, 0.0, None)
        p = p / p.sum()
        return int(self.rng.choice(len(p), p=p))

    def atom_type(self, state, probs: np.ndarray) -> int:
        idx = self._draw(probs)
        self.trace.append(idx)
        return idx

    def bond_type(self, state, u, q, probs: np.ndarray) -> int:
        idx = self._draw(probs)
        self.trace.append(idx)
        return idx


class _TracePolicy:
    def __init__(self, trace: list[int]):
        self.trace = list(trace)
        self.pos = 0

    def _next(self) -> int:
        if self.pos >= len(self.trace):
            raise GenModelError("trace exhausted during replay")
        v = self.trace[self.pos]
        self.pos += 1
        return v

    def expand(self, state, v_t, prob: float) -> bool:
        return bool(self._next())

    def atom_type(self, state, probs: np.ndarray) -> int:
        return self._next()

    def bond_type(self, state, u, q, probs: np.ndarray) -> int:
        return self._next()


class _TeacherPolicy:
    """Forces the decisions that reconstruct a target molecule in
    breadth-first order, neighbor ties broken by ascending canonical rank."""

    def __init__(self, model: GenModel, g: MolGraph, mapping: dict[int, int]):
        self.g = g
        self.model = model
        self.ranks = canonical_ranks(g)
        self.local_to_g: list[int] = [mapping[i] for i in sorted(mapping)]
        self.placed: set[int] = set(self.local_to_g)
        self.pending_new: int | None = None

    def _remaining(self, v_local: int) -> list[int]:
        v_g = self.local_to_g[v_local]
        rem = [w for w in self.g.neighbors(v_g) if w not in self.placed]
        rem.sort(key=lambda w: self.ranks[w])
        return rem

    def expand(self, state, v_t, prob: float) -> bool:
        rem = self._remaining(v_t)
        if rem:
            self.pending_new = rem[0]
            return True
        return False

    def atom_type(self, state, probs: np.ndarray) -> int:
        u_g = self.pending_new
        a = self.g.atoms[u_g]
        idx = self.model.type_index.get(AtomType(a.element, a.charge, a.aromatic))
        if idx is None:
            raise LikelihoodError(f"target atom type {a} missing from the model vocabulary")
        self.local_to_g.append(u_g)
        self.placed.add(u_g)
        return idx

    def bond_type(self, state, u, q, probs: np.ndarray) -> int:
        u_g = self.local_to_g[u]
        q_g = self.local_to_g[q]
        bond = self.g.bond_between(u_g, q_g)
        if bond is None:
            return NO_BOND_IDX
        return BOND_TYPES.index(bond.order)


def _run_decoder(
    model: GenModel,
    state: DecoderState,
    z,
    policy,
    max_steps: int,
) -> ns.Tensor:
    """Drive the decoder with a policy; returns the summed log-probability of
    the decisions taken. Saturated queue heads are dequeued with certainty."""
    z_t = z if isinstance(z, ns.Tensor) else ns.const(z)
    logp = ns.const(0.0)
    added = 0
    while state.queue:
        state.steps += 1
        h, hg = _decoder_embed(model, state)
        v_t = state.queue[0]
        if not state.can_accept_any_bond(v_t):
            state.queue.popleft()
            continue
        x = ns.concat([ns.row(h, v_t), hg, z_t])
        expand_logit = ns.sum_all(_mlp(model, "expand", x))
        prob = float(ns.sigmoid(ns.const(expand_logit.data)).data)
        if not policy.expand(state, v_t, prob):
            logp = ns.add(logp, ns.logsigmoid(ns.scale(expand_logit, -1.0)))
            state.queue.popleft()
            continue
        logp = ns.add(logp, ns.logsigmoid(expand_logit))
        if added >= max_steps:
            raise TruncationError(state.to_molgraph())
        atom_logits = _mlp(model, "atom", x)
        t_idx = policy.atom_type(state, ns.softmax(atom_logits).data)
        logp = ns.add(logp, ns.scale(ns.cross_entropy(atom_logits, t_idx), -1.0))

        u = state._append_atom(model.atom_types[t_idx].to_atom())
        e_u = ns.row(model.params["emb_atom"], t_idx)
        gsum = ns.const(np.zeros(model.hidden))
        for k, q in enumerate(list(state.queue)):
            g_vec = _mlp(model, "gout", ns.concat([e_u, gsum]))
            logits = _mlp(model, "bond", ns.concat([g_vec, ns.row(h, q), hg, z_t]))
            mask = state.bond_mask(u, q, first=(k == 0))
            masked = ns.add(logits, ns.const(mask))
            b_idx = policy.bond_type(state, u, q, ns.softmax(masked).data)
            if mask[b_idx] != 0.0:
                raise GenModelError("policy chose a masked bond type")
            logp = ns.add(logp, ns.scale(ns.cross_entropy(masked, b_idx), -1.0))
            if b_idx != NO_BOND_IDX:
                state._append_bond(u, q, b_idx)
            gsum = ns.add(
                gsum,
                _mlp(model, "gin", ns.concat([ns.row(h, q), ns.row(model.params["emb_bond"], b_idx)])),
            )
        state.queue.append(u)
        added += 1
    return logp


def complete(
    model: GenModel,
    rationale: Rationale,
    z,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_MAX_STEPS,
    greedy: bool = False,
) -> MolGraph:
    """Sample a molecule containing the rationale's fragments."""
    g, _trace = complete_with_trace(model, rationale, z, rng, max_steps, greedy)
    return g


def complete_with_trace(
    model: GenModel,
    rationale: Rationale,
    z,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_MAX_STEPS,
    greedy: bool = False,
) -> tuple[MolGraph, list[int]]:
    state = DecoderState.from_rationale(model, rationale)
    policy = _SamplePolicy(rng, greedy=greedy)
    with ns.no_grad():
        _run_decoder(model, state, z, policy, max_steps)
    return state.to_molgraph(), policy.trace


def trace_log_likelihood(
    model: GenModel, rationale: Rationale, trace: list[int], z
) -> ns.Tensor:
    """Log-probability of a recorded decision sequence (differentiable)."""
    state = DecoderState.from_rationale(model, rationale)
    return _run_decoder(model, state, z, _TracePolicy(trace), max_steps=10**9)


def log_likelihood(
    model: GenModel,
    g: MolGraph,
    rationale: Rationale,
    z,
    mapping: dict[int, int] | None = None,
) -> float:
    """Teacher-forced log P(g | rationale, z); rationale atoms come first in
    stored order, the rest in breadth-first order from the peripheral queue."""
    with ns.no_grad():
        return float(log_likelihood_tensor(model, g, rationale, z, mapping).data)


def log_likelihood_tensor(
    model: GenModel,
    g: MolGraph,
    rationale: Rationale,
    z,
    mapping: dict[int, int] | None = None,
) -> ns.Tensor:
    combined = rationale.combined
    if mapping is None:
        # the queue decomposition can only reproduce g when the rationale is an
        # induced subgraph: bonds of g between mapped atoms must exist in it
        mapping = next(embeddings(g, combined, induced=True), None)
        if mapping is None:
            raise LikelihoodError("molecule does not contain the rationale as an induced subgraph")
    state = DecoderState.from_rationale(model, rationale)
    teacher = _TeacherPolicy(model, g, mapping)
    logp = _run_decoder(model, state, z, teacher, max_steps=10**9)
    if len(teacher.placed) != g.n:
        raise LikelihoodError(
            "breadth-first decomposition cannot reach the whole molecule "
            f"({len(teacher.placed)} of {g.n} atoms placed)"
        )
    if len(state.edges) != len(g.bonds):
        raise LikelihoodError("decomposition bond count mismatch")
    return logp
