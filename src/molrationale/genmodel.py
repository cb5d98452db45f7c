"""Subgraph-conditioned variational graph generator.

An MPN encoder maps a molecule to latent parameters; the decoder grows a
molecule outward from a rationale's peripheral atoms through a FIFO frontier
queue, predicting per step whether to attach a new atom, its type, and its
bonds to every queued atom in order.

Sampling decides as it goes: each step evaluates the heads, in numpy only,
on the graph so far. A prepared start holds a rationale's initial state and
its decoder MPN output, so the completions of one rationale share the first
step's MPN, and their replays share the MPN rows of the rationale's graph.
Scoring a known decision sequence (teacher forcing, trace replay) first
walks the decisions without tensors, then evaluates each head once over all
of its decisions, with one MPN over the disjoint union of the graphs the
steps saw.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import numsub as ns
from .chemgraph import (
    AROMATIC,
    DOUBLE,
    HALF_UNITS,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    MolGraph,
    canonical_ranks,
    free_valence,
)
from .extract import Rationale

NO_BOND = "no-bond"
BOND_TYPES = (SINGLE, DOUBLE, TRIPLE, AROMATIC, NO_BOND)
NO_BOND_IDX = BOND_TYPES.index(NO_BOND)

_NEG_INF = -1e30


class GenModelError(RuntimeError):
    pass


class TruncationError(GenModelError):
    """Sampling exceeded the added-atom budget; carries the partial graph."""

    def __init__(self, partial: MolGraph):
        self.partial = partial
        super().__init__(f"generation truncated with {partial.n} atoms")


class LikelihoodError(GenModelError):
    pass


@dataclass
class LatentParams:
    """Posterior mean and log standard deviation (used verbatim as exp(.))."""

    mu: ns.Tensor
    log_std: ns.Tensor


def atom_types_from_corpus(corpus) -> tuple[Atom, ...]:
    seen = {a for g in corpus for a in g.atoms}
    return tuple(sorted(seen, key=lambda t: (t.element, t.charge, t.aromatic)))


class GenModel:
    """Parameter store plus the atom/bond vocabularies and widths."""

    def __init__(
        self,
        atom_types: tuple[Atom, ...],
        hidden: int,
        latent: int,
        rounds: int,
        seed: int = 0,
    ):
        self.atom_types = tuple(atom_types)
        self.type_index = {t: i for i, t in enumerate(self.atom_types)}
        self.unknown_index = len(self.atom_types)
        self.hidden = hidden
        self.latent = latent
        self.rounds = rounds
        self.params = self._init_params(seed)

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
        return self.type_index.get(a, self.unknown_index)

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
        """The checkpoint's model; ValueError when its parameter names and
        shapes are not those of a model with its stored widths and types."""
        arrays, extra = ns.load_params(path_stem)
        atom_types = tuple(Atom(e, c, ar) for e, c, ar in extra["atom_types"])
        model = cls(atom_types, extra["hidden"], extra["latent"], extra["rounds"])
        want = {k: t.shape for k, t in model.params.items()}
        got = {k: v.shape for k, v in arrays.items()}
        for name in sorted(want.keys() | got.keys()):
            if got.get(name) != want.get(name):
                raise ValueError(f"checkpoint parameter {name!r} is {got.get(name, 'absent')}, "
                                 f"expected {want.get(name, 'absent')}")
        model.params = {k: ns.param(v, k) for k, v in arrays.items()}
        return model


def _mlp_forward(model: GenModel, name: str, xd: np.ndarray):
    """A two-layer ReLU perceptron's forward pass over a (d,) vector or each
    row of an (m, d) matrix: (hidden, output) arrays."""
    p = model.params
    hid = np.maximum(xd @ p[f"{name}_w1"].data + p[f"{name}_b1"].data, 0.0)
    return hid, hid @ p[f"{name}_w2"].data + p[f"{name}_b2"].data


def _mlp(model: GenModel, name: str, x: ns.Tensor) -> ns.Tensor:
    """_mlp_forward recorded as one tape op; the relu's gate is the sign of
    the hidden array that the closure keeps for the w2 gradient."""
    p = model.params
    w1, b1, w2, b2 = (p[f"{name}_{k}"] for k in ("w1", "b1", "w2", "b2"))
    xd, w1d, w2d = x.data, w1.data, w2.data
    hid, out = _mlp_forward(model, name, xd)

    def backward_fn(g):
        d_pre = (g @ w2d.T) * (hid > 0)
        if xd.ndim == 1:
            return d_pre @ w1d.T, np.outer(xd, d_pre), d_pre, np.outer(hid, g), g
        return d_pre @ w1d.T, xd.T @ d_pre, d_pre.sum(axis=0), hid.T @ g, g.sum(axis=0)

    return ns.track(out, (x, w1, b1, w2, b2), backward_fn)


def _row_scatter(idx: np.ndarray, n: int):
    """f(values) adds row i of values into row idx[i] of an (n, d) zero
    matrix: one stable sort by idx, then np.add.reduceat over the sorted rows,
    linear in len(idx)."""
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    first = np.ones(idx.size, dtype=bool)
    first[1:] = sorted_idx[1:] != sorted_idx[:-1]
    starts = np.flatnonzero(first)
    keys = sorted_idx[starts]

    def scatter(values: np.ndarray) -> np.ndarray:
        out = np.zeros((n, values.shape[1]))
        if starts.size:
            out[keys] = np.add.reduceat(values[order], starts, axis=0)
        return out

    return scatter


def _mpn_names(prefix: str) -> list[str]:
    """The parameters an MPN reads, in _mpn's parent order."""
    return ["emb_atom", "emb_bond"] + [f"{prefix}_{w}" for w in ("w1", "w2", "w3", "u1", "u2")]


def _mpn(model: GenModel, prefix: str, type_ids: list[int], edges) -> ns.Tensor:
    """Directed-edge message passing; returns per-atom vectors (V, hidden).

    The index-based MPNN form (Gilmer et al., 2017), recorded as one tape op
    with a hand-written backward. Each bond (u, v, bond index) gives the
    directed edges u->v and v->u. The first message on u->v is
    relu(x_u W1 + x_uv W2); every later round adds, inside the relu, W3 times
    the sum of the messages into u less the message on v->u. An atom's vector
    is relu(x_v U1 + (sum of the messages into v) U2). The backward closure
    keeps a boolean gate per message relu, the output (the atom relu's gate
    is its sign), and what the W3 and U2 gradients read: each later round's
    neighbour sums and agg. When the op will not be recorded (under no_grad),
    the gates and neighbour sums are not kept.
    """
    p = model.params
    names = _mpn_names(prefix)
    parents = tuple(p[k] for k in names)
    recorded = ns.recording(parents)
    emb_a, emb_b, w1, w2, w3, u1, u2 = (t.data for t in parents)
    types = np.asarray(type_ids, dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    # directed edge 2k is u->v of bond k and 2k + 1 is v->u, so i ^ 1 reverses i
    src = e[:, :2].reshape(-1)
    dst = e[:, 1::-1].reshape(-1)
    bts = np.repeat(e[:, 2], 2)
    rev = np.arange(src.size) ^ 1
    into_atoms = _row_scatter(dst, types.size)
    base = (emb_a @ w1)[types[src]] + (emb_b @ w2)[bts]
    msg = np.maximum(base, 0.0)
    base_gate = base > 0 if recorded else None
    later = []  # (neighbour sum, gate) of each round after the first
    for _ in range(model.rounds - 1):
        nb = into_atoms(msg)[src] - msg[rev]
        pre = base + nb @ w3
        if recorded:
            later.append((nb, pre > 0))
        msg = np.maximum(pre, 0.0)
    agg = into_atoms(msg)
    out = np.maximum((emb_a @ u1)[types] + agg @ u2, 0.0)

    def backward_fn(g):
        d_out = g * (out > 0)
        d_type_u1 = _row_scatter(types, emb_a.shape[0])(d_out)
        d_emb_a = d_type_u1 @ u1.T
        d_u1 = emb_a.T @ d_type_u1
        if not src.size:
            return d_emb_a, None, None, None, None, d_u1, None
        d_msg = (d_out @ u2.T)[dst]
        d_base = np.zeros((src.size, w1.shape[1]))
        d_w3 = np.zeros_like(w3) if later else None
        for nb, gate in reversed(later):
            d_pre = d_msg * gate
            d_base += d_pre
            d_w3 += nb.T @ d_pre
            # the reverse-edge map is an involution, so its adjoint is itself
            d_nb = (d_pre @ w3.T)[rev]
            d_msg = into_atoms(d_nb)[dst] - d_nb
        d_base += d_msg * base_gate
        d_type_w1 = _row_scatter(types[src], emb_a.shape[0])(d_base)
        d_bond_w2 = _row_scatter(bts, emb_b.shape[0])(d_base)
        return (
            d_emb_a + d_type_w1 @ w1.T,
            d_bond_w2 @ w2.T,
            emb_a.T @ d_type_w1,
            emb_b.T @ d_bond_w2,
            d_w3,
            d_u1,
            agg.T @ d_out,
        )

    return ns.track(out, parents, backward_fn)


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

def _bond_mask(u: tuple[str, int], q: tuple[str, int], first: bool) -> np.ndarray:
    """Additive logits mask over BOND_TYPES for a bond between two atoms given
    as (element, half units): a bond type is banned when either end would
    exceed its valence, and no-bond is banned for the first queue member."""
    (u_el, u_half), (q_el, q_half) = u, q
    mask = np.zeros(len(BOND_TYPES))
    for idx, order in enumerate(BOND_TYPES[:NO_BOND_IDX]):
        unit = HALF_UNITS[order]
        if free_valence(u_el, u_half + unit) < 0 or free_valence(q_el, q_half + unit) < 0:
            mask[idx] = _NEG_INF
    if first:
        mask[NO_BOND_IDX] = _NEG_INF
    return mask


class DecoderState:
    """Partial graph plus the FIFO frontier queue of atoms that may still
    receive neighbors."""

    def __init__(self, model: GenModel):
        self.model = model
        self.atoms: list[Atom] = []
        self.type_ids: list[int] = []
        self.edges: list[tuple[int, int, int]] = []
        self.half_units: list[int] = []
        self.queue: deque[int] = deque()

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
        dup.half_units = list(self.half_units)
        dup.queue = deque(self.queue)
        return dup

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def _append_atom(self, a: Atom) -> int:
        self.atoms.append(a)
        self.type_ids.append(self.model.type_of_atom(a))
        self.half_units.append(0)
        return len(self.atoms) - 1

    def _append_bond(self, u: int, v: int, bond_idx: int) -> None:
        self.edges.append((u, v, bond_idx))
        self.half_units[u] += HALF_UNITS[BOND_TYPES[bond_idx]]
        self.half_units[v] += HALF_UNITS[BOND_TYPES[bond_idx]]

    def can_accept_any_bond(self, i: int) -> bool:
        # a single bond is the cheapest addition under the floor rule
        return free_valence(self.atoms[i].element, self.half_units[i] + HALF_UNITS[SINGLE]) >= 0

    def bond_mask(self, u: int, q: int, first: bool) -> np.ndarray:
        """Additive logits mask over BOND_TYPES: 0 allowed, -inf banned."""
        atoms, half = self.atoms, self.half_units
        return _bond_mask((atoms[u].element, half[u]), (atoms[q].element, half[q]), first)

    def to_molgraph(self) -> MolGraph:
        return MolGraph(
            self.atoms,
            [Bond(u, v, BOND_TYPES[bt]) for u, v, bt in self.edges],
        )


def _latent_array(z) -> np.ndarray:
    return z.data if isinstance(z, ns.Tensor) else np.asarray(z, dtype=np.float64)


def _decoder_vectors(model: GenModel, state: DecoderState) -> tuple[np.ndarray, np.ndarray]:
    """The decoder MPN's atom vectors h for the state's graph, and their sum
    hg, the graph vector (forward only)."""
    with ns.no_grad():
        h = _mpn(model, "dec", state.type_ids, state.edges).data
    return h, h.sum(axis=0)


@dataclass(frozen=True, eq=False)
class DecodeStart:
    """A rationale prepared for decoding: its initial state, with the decoder
    MPN's atom vectors h and their sum hg for that graph, computed once for
    every completion drawn, and every trajectory replayed, under the same
    parameters. h is the MPN's tape output, so a replay from the start
    back-propagates into it. `arrays` are the parameter arrays h was computed
    from; an Adam step rebinds them, which makes the start stale."""

    rationale: Rationale
    state: DecoderState
    h: ns.Tensor
    hg: np.ndarray
    arrays: tuple[np.ndarray, ...]


def prepare_start(model: GenModel, rationale: Rationale) -> DecodeStart:
    """The rationale's start under the model's current parameters."""
    state = DecoderState.from_rationale(model, rationale)
    h = _mpn(model, "dec", state.type_ids, state.edges)
    arrays = tuple(model.params[k].data for k in _mpn_names("dec"))
    return DecodeStart(rationale, state, h, h.data.sum(axis=0), arrays)


def _start_for(model: GenModel, rationale: Rationale, start: DecodeStart | None) -> DecodeStart:
    """The given start, checked to be prepared for this rationale from the
    model's current parameter arrays, or a new one."""
    if start is None:
        return prepare_start(model, rationale)
    if start.rationale is not rationale:
        raise GenModelError("decode start was prepared for another rationale")
    if any(
        a is not model.params[k].data for a, k in zip(start.arrays, _mpn_names("dec"))
    ):
        raise GenModelError("decode start is stale: a parameter changed after it was prepared")
    return start


class StepLogits:
    """One decoding step's distributions for the queue head, evaluated from
    the decoder vectors h and hg of the graph at the step, in numpy only;
    bond distributions are produced one queue position at a time because each
    depends on the bonds already placed. The step keeps the queue, not the
    state. The atom head is evaluated on the first read of atom_probs, so a
    declined step never evaluates it."""

    def __init__(self, model: GenModel, state: DecoderState, z: np.ndarray,
                 h: np.ndarray, hg: np.ndarray):
        self.model = model
        self.queue = list(state.queue)
        self.z = z
        self.h = h
        self.hg = hg
        self._x = np.concatenate([h[self.queue[0]], hg, z])
        self.expand_logit = float(_mlp_forward(model, "expand", self._x)[1][0])
        self.expand_prob = float(ns.sigmoid_array(self.expand_logit))
        self._atom_probs: np.ndarray | None = None
        self._gin: dict[tuple[int, int], np.ndarray] = {}  # by (queue position, bond type)

    @property
    def atom_probs(self) -> np.ndarray:
        if self._atom_probs is None:
            self._atom_probs = ns.softmax_array(_mlp_forward(self.model, "atom", self._x)[1])
        return self._atom_probs

    def bond_probs(self, new_type_idx: int, prior: list[int], mask: np.ndarray) -> np.ndarray:
        """Distribution over BOND_TYPES for queue position len(prior), given
        the bond decisions already taken and the decision's additive valence
        mask (DecoderState.bond_mask)."""
        k = len(prior)
        if k >= len(self.queue):
            raise GenModelError("no queue member left for a bond decision")
        if np.all(mask != 0.0):
            raise GenModelError("no feasible bond decision for a saturated frontier atom")
        p = self.model.params
        gsum = np.zeros(self.model.hidden)
        for j, b_idx in enumerate(prior):
            if (j, b_idx) not in self._gin:
                pair = np.concatenate([self.h[self.queue[j]], p["emb_bond"].data[b_idx]])
                self._gin[j, b_idx] = _mlp_forward(self.model, "gin", pair)[1]
            gsum = gsum + self._gin[j, b_idx]
        g_in = np.concatenate([p["emb_atom"].data[new_type_idx], gsum])
        g_vec = _mlp_forward(self.model, "gout", g_in)[1]
        x = np.concatenate([g_vec, self.h[self.queue[k]], self.hg, self.z])
        logits = _mlp_forward(self.model, "bond", x)[1]
        return ns.softmax_array(logits + mask)


def step_logits(model: GenModel, state: DecoderState, z) -> StepLogits:
    """Expand/atom-type/bond-type heads for the current queue head, with
    the decoder MPN run on the state's graph."""
    if not state.queue:
        raise GenModelError("step_logits on an empty queue")
    return StepLogits(model, state, _latent_array(z), *_decoder_vectors(model, state))


# ---------------------------------------------------------------------------
# Decoding: one walk shared by sampling, trace replay and teacher forcing

class _SamplePolicy:
    """Draws each decision from the step's distributions as the walk goes."""

    def __init__(self, model: GenModel, start: DecodeStart, z, rng: np.random.Generator):
        self.model = model
        self.z = _latent_array(z)
        self.rng = rng
        self.trace: list[int] = []
        self.step: StepLogits | None = None
        self.atom = -1
        self.bonds: list[int] = []
        # the decoder vectors of the graph with h_atoms atoms
        self.h, self.hg, self.h_atoms = start.h.data, start.hg, start.state.n_atoms

    def _draw(self, probs: np.ndarray) -> int:
        p = np.clip(probs, 0.0, None)
        p = p / p.sum()
        return int(self.rng.choice(len(p), p=p))

    def expand(self, state, v_t) -> bool:
        # the graph only grows by an atom with its bonds, so an unchanged
        # atom count means the last MPN output still holds
        if state.n_atoms != self.h_atoms:
            self.h, self.hg = _decoder_vectors(self.model, state)
            self.h_atoms = state.n_atoms
        self.step = StepLogits(self.model, state, self.z, self.h, self.hg)
        yes = self.rng.random() < self.step.expand_prob
        self.trace.append(1 if yes else 0)
        return yes

    def atom_type(self, state) -> int:
        self.atom = self._draw(self.step.atom_probs)
        self.bonds = []
        self.trace.append(self.atom)
        return self.atom

    def bond_type(self, state, u, q, mask) -> int:
        idx = self._draw(self.step.bond_probs(self.atom, self.bonds, mask))
        self.bonds.append(idx)
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

    def expand(self, state, v_t) -> bool:
        return bool(self._next())

    def atom_type(self, state) -> int:
        return self._next()

    def bond_type(self, state, u, q, mask) -> int:
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

    def expand(self, state, v_t) -> bool:
        rem = self._remaining(v_t)
        if rem:
            self.pending_new = rem[0]
            return True
        return False

    def atom_type(self, state) -> int:
        u_g = self.pending_new
        a = self.g.atoms[u_g]
        idx = self.model.type_index.get(a)
        if idx is None:
            raise LikelihoodError(f"target atom type {a} missing from the model vocabulary")
        self.local_to_g.append(u_g)
        self.placed.add(u_g)
        return idx

    def bond_type(self, state, u, q, mask) -> int:
        u_g = self.local_to_g[u]
        q_g = self.local_to_g[q]
        bond = self.g.bond_between(u_g, q_g)
        if bond is None:
            return NO_BOND_IDX
        return BOND_TYPES.index(bond.order)


@dataclass
class _Walk:
    """The decisions of one decoder run, each with what its head sees."""

    # per expand decision: (atoms, edges) of the graph, queue head, 1 if expanded
    steps: list[tuple[int, int, int, int]]
    atom_types: list[int]  # per expansion
    # per bond decision: (expansion index, queue member, bond type index)
    bonds: list[tuple[int, int, int]]
    bond_masks: list[np.ndarray]


def _walk(model: GenModel, state: DecoderState, policy, max_steps: int) -> _Walk:
    """Drive the decoder with a policy and record its decisions; computes no
    tensor itself. Each bond decision's valence mask is computed here, once,
    and handed to the policy. Saturated queue heads are dequeued with
    certainty."""
    walk = _Walk([], [], [], [])
    while state.queue:
        v_t = state.queue[0]
        if not state.can_accept_any_bond(v_t):
            state.queue.popleft()
            continue
        yes = policy.expand(state, v_t)
        walk.steps.append((state.n_atoms, len(state.edges), v_t, int(yes)))
        if not yes:
            state.queue.popleft()
            continue
        if len(walk.atom_types) >= max_steps:
            raise TruncationError(state.to_molgraph())
        t_idx = policy.atom_type(state)
        u = state._append_atom(model.atom_types[t_idx])
        walk.atom_types.append(t_idx)
        for k, q in enumerate(list(state.queue)):
            mask = state.bond_mask(u, q, first=(k == 0))
            b_idx = policy.bond_type(state, u, q, mask)
            if mask[b_idx] != 0.0:
                raise GenModelError("policy chose a masked bond type")
            walk.bonds.append((len(walk.atom_types) - 1, q, b_idx))
            walk.bond_masks.append(mask)
            if b_idx != NO_BOND_IDX:
                state._append_bond(u, q, b_idx)
        state.queue.append(u)
    return walk


def _score(model: GenModel, state: DecoderState, walk: _Walk, z,
           h_start: ns.Tensor | None = None) -> ns.Tensor:
    """Summed log-probability of a walk's decisions, each head evaluated once
    over all of its decisions.

    Atoms and edges are only appended, so the graph each decision saw is a
    prefix of the final state: one MPN runs over the disjoint union of the
    distinct prefixes, one copy per atom count. The first copy is the graph
    the walk started from; h_start, its MPN rows when given, takes its place.
    """
    if not walk.steps:
        return ns.const(0.0)
    p = model.params
    z_t = z if isinstance(z, ns.Tensor) else ns.const(z)
    steps = np.array(walk.steps, dtype=np.int64)
    first = np.ones(len(steps), dtype=bool)
    first[1:] = steps[1:, 0] != steps[:-1, 0]
    copy_of_step = np.cumsum(first) - 1
    n_atoms, n_edges = steps[first, 0], steps[first, 1]
    offsets = np.concatenate([[0], np.cumsum(n_atoms)[:-1]])
    type_ids = np.asarray(state.type_ids, dtype=np.int64)
    edges = np.asarray(state.edges, dtype=np.int64).reshape(-1, 3)
    parts = [] if h_start is None else [h_start]
    run = range(len(parts), len(n_atoms))  # the copies the MPN runs over
    if run:
        local = offsets - offsets[run[0]]  # row offsets within the MPN's union
        parts.append(_mpn(
            model,
            "dec",
            np.concatenate([type_ids[:n_atoms[c]] for c in run]),
            np.concatenate([edges[:n_edges[c]] + [local[c], local[c], 0] for c in run]),
        ))
    h = parts[0] if len(parts) == 1 else ns.concat(parts, axis=0)
    hg = ns.segment_sum(h, offsets)

    def head_input(lead, copies, atoms):
        # [lead..., atom vector, graph vector, z] for each (copy, atom) row
        return ns.concat(
            lead + [ns.gather_rows(h, offsets[copies] + atoms), ns.gather_rows(hg, copies),
                    ns.tile_rows(z_t, len(copies))]
        )

    x = head_input([], copy_of_step, steps[:, 2])
    sign = np.where(steps[:, 3] == 1, 1.0, -1.0)[:, None]
    logp = ns.sum_all(ns.logsigmoid(ns.mul(_mlp(model, "expand", x), ns.const(sign))))
    expanded = np.flatnonzero(steps[:, 3])
    if not expanded.size:
        return logp
    nll = ns.sum_all(ns.cross_entropy(_mlp(model, "atom", ns.gather_rows(x, expanded)), walk.atom_types))

    bonds = np.array(walk.bonds, dtype=np.int64)
    blk, q, b_idx = bonds.T
    bond_copy = copy_of_step[expanded][blk]
    q_rows = offsets[bond_copy] + q
    # gsum of a bond decision: gin summed over the earlier decisions of its
    # expansion, a block strictly-lower-triangular sum
    feeds = np.flatnonzero(np.append(blk[1:] == blk[:-1], False))
    if feeds.size:
        pairs = ns.concat([ns.gather_rows(h, q_rows[feeds]), ns.gather_rows(p["emb_bond"], b_idx[feeds])])
        earlier = (blk[:, None] == blk[feeds]) & (feeds < np.arange(len(blk))[:, None])
        gsum = ns.matmul(ns.const(earlier.astype(np.float64)), _mlp(model, "gin", pairs))
    else:
        gsum = ns.const(np.zeros((len(blk), model.hidden)))
    new_atoms = ns.gather_rows(p["emb_atom"], np.asarray(walk.atom_types)[blk])
    g_vec = _mlp(model, "gout", ns.concat([new_atoms, gsum]))
    logits = _mlp(model, "bond", head_input([g_vec], bond_copy, q))
    masked = ns.add(logits, ns.const(np.array(walk.bond_masks)))
    nll = ns.add(nll, ns.sum_all(ns.cross_entropy(masked, b_idx)))
    return ns.add(logp, ns.scale(nll, -1.0))


def complete_with_trace(
    model: GenModel,
    rationale: Rationale,
    z,
    rng: np.random.Generator,
    max_steps: int,
    *,
    start: DecodeStart | None = None,
) -> tuple[MolGraph, list[int]]:
    """Sample stepwise, each decision drawn from the heads evaluated on the
    graph so far; returns the molecule and its decision trace. A start from
    prepare_start(model, rationale) saves the first step's MPN; it must be
    prepared under the current parameters."""
    start = _start_for(model, rationale, start)
    state = start.state.copy()
    policy = _SamplePolicy(model, start, z, rng)
    _walk(model, state, policy, max_steps)
    return state.to_molgraph(), policy.trace


def trace_log_likelihood(model: GenModel, rationale: Rationale, trace: list[int], z, *,
                         start: DecodeStart | None = None) -> ns.Tensor:
    """Log-probability of a recorded decision sequence (differentiable). The
    replay starts from a copy of the start's state and takes the rationale
    graph's MPN rows from start.h, so the gradient for those rows goes into
    start.h, and one backward spends it; without a start it prepares one. A
    start must be prepared under the current parameters."""
    start = _start_for(model, rationale, start)
    state = start.state.copy()
    walk = _walk(model, state, _TracePolicy(trace), max_steps=10**9)
    return _score(model, state, walk, z, start.h)


def log_likelihood_tensor(
    model: GenModel,
    g: MolGraph,
    rationale: Rationale,
    z,
    mapping: dict[int, int],
) -> ns.Tensor:
    """Teacher-forced log P(g | rationale, z) (differentiable), mapping[i]
    being the atom of g that rationale atom i is; rationale atoms come first
    in stored order, the rest in breadth-first order from the peripheral
    queue."""
    state = DecoderState.from_rationale(model, rationale)
    teacher = _TeacherPolicy(model, g, mapping)
    walk = _walk(model, state, teacher, max_steps=10**9)
    if len(teacher.placed) != g.n:
        raise LikelihoodError(
            "breadth-first decomposition cannot reach the whole molecule "
            f"({len(teacher.placed)} of {g.n} atoms placed)"
        )
    if len(state.edges) != len(g.bonds):
        raise LikelihoodError("decomposition bond count mismatch")
    return _score(model, state, walk, z)
