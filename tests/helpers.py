"""Shared oracles and corpus builders for the test suite.

Oracles here are written independently of the library code paths they check:
connectivity and ring perception go through networkx, subgraph/MCS questions
through exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np

from molrationale.chemgraph import (
    _ORDER_CODE,
    AROMATIC,
    HALF_UNITS,
    SINGLE,
    Atom,
    Bond,
    MolGraph,
    ResourceLimitError,
    canonical_key,
    free_valence,
)
from molrationale import numsub as ns
from molrationale.extract import RationaleVocab
from molrationale.forest import PropertySpec, _gini, positive_mask
from molrationale.genmodel import (
    BOND_TYPES,
    NO_BOND_IDX,
    DecoderState,
    GenModel,
    TruncationError,
    _bond_mask,
    _SamplePolicy,
    _walk,
    complete_with_trace,
    prepare_start,
    step_logits,
    trace_log_likelihood,
)
from molrationale.merge import MCS_ATOM_LIMIT
from molrationale.synthetic import random_molecule
from molrationale.train import TrainingError, _draw_completion


def to_nx(g: MolGraph) -> nx.Graph:
    gr = nx.Graph()
    for i, a in enumerate(g.atoms):
        gr.add_node(i, label=(a.element, a.charge, a.aromatic))
    for b in g.bonds:
        gr.add_edge(b.u, b.v, order=b.order)
    return gr


def oracle_peripheral_removals(g: MolGraph, max_ring: int = 8, rings=None) -> set[tuple]:
    """Brute-force legality check of every candidate bond/ring removal.

    Returns a set of ('bond', removed_atoms, removed_bond_indices) and
    ('ring', removed_atoms, removed_bond_indices) tuples. The ring candidates
    are networkx's minimum cycle basis, or `rings` when given: where cycles
    of equal length tie, a graph has more than one minimum basis.
    """
    gr = to_nx(g)
    out: set[tuple] = set()
    # bond candidates: non-aromatic with exactly one degree-1 endpoint
    for bi, b in enumerate(g.bonds):
        if b.order == AROMATIC:
            continue
        deg_u, deg_v = gr.degree(b.u), gr.degree(b.v)
        if (deg_u == 1) == (deg_v == 1):
            continue
        endpoint = b.u if deg_u == 1 else b.v
        rest = gr.copy()
        rest.remove_node(endpoint)
        if rest.number_of_nodes() > 0 and nx.is_connected(rest):
            out.add(("bond", (endpoint,), (bi,)))
    # ring candidates: minimum cycle basis members; removal takes the whole
    # ring and every incident bond
    for cycle in nx.minimum_cycle_basis(gr) if rings is None else rings:
        if len(cycle) > max_ring:
            continue
        atoms = tuple(sorted(cycle))
        rest = gr.copy()
        rest.remove_nodes_from(cycle)
        if rest.number_of_nodes() == 0 or not nx.is_connected(rest):
            continue
        bonds = tuple(
            sorted(
                bi
                for bi, b in enumerate(g.bonds)
                if b.u in cycle or b.v in cycle
            )
        )
        out.add(("ring", atoms, bonds))
    return out


def oracle_is_minimum_ring_basis(g: MolGraph, rings, max_ring: int = 8) -> bool:
    """Whether rings are simple cycles of g, independent over GF(2), with the
    lengths of networkx's minimum cycle basis cut at max_ring atoms: that is,
    whether they are a minimum cycle basis of g's rings of up to max_ring
    atoms."""
    gr = to_nx(g)
    edge_bit = {frozenset(e): k for k, e in enumerate(gr.edges)}
    pivots: dict[int, int] = {}
    for ring in rings:
        steps = [frozenset((a, b)) for a, b in zip(ring, ring[1:] + ring[:1])]
        if len(set(ring)) != len(ring) or not all(e in edge_bit for e in steps):
            return False
        mask = sum(1 << edge_bit[e] for e in steps)
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = mask
                break
            mask ^= pivots[top]
        else:
            return False
    want = sorted(len(c) for c in nx.minimum_cycle_basis(gr) if len(c) <= max_ring)
    return sorted(map(len, rings)) == want


def oracle_is_isomorphic(a: MolGraph, b: MolGraph) -> bool:
    ga, gb = to_nx(a), to_nx(b)
    return nx.is_isomorphic(
        ga,
        gb,
        node_match=lambda x, y: x["label"] == y["label"],
        edge_match=lambda x, y: x["order"] == y["order"],
    )


def oracle_embeddings(g: MolGraph, s: MolGraph, induced: bool) -> list[dict[int, int]]:
    """Every label- and bond-order-preserving injective map s -> g, from
    networkx's VF2 matcher; `induced` forbids extra g bonds among the image."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        to_nx(g),
        to_nx(s),
        node_match=lambda x, y: x["label"] == y["label"],
        edge_match=lambda x, y: x["order"] == y["order"],
    )
    found = (
        matcher.subgraph_isomorphisms_iter()
        if induced
        else matcher.subgraph_monomorphisms_iter()
    )
    return [{si: gi for gi, si in m.items()} for m in found]


def oracle_max_common_connected_size(a: MolGraph, b: MolGraph) -> int:
    """Exhaustive maximum connected common subgraph size for tiny graphs."""
    ga, gb = to_nx(a), to_nx(b)
    best = 0
    for size in range(min(a.n, b.n), 0, -1):
        if size <= best:
            break
        for nodes in itertools.combinations(range(a.n), size):
            sub = ga.subgraph(nodes)
            if not nx.is_connected(sub):
                continue
            # try to embed this connected induced-shape into b allowing b to
            # have extra edges: enumerate injections
            if _embeds_with_bond_match(a, b, nodes):
                best = size
                break
    return best


def _embeds_with_bond_match(a: MolGraph, b: MolGraph, nodes: tuple[int, ...]) -> bool:
    # common subgraph: a mapping where shared-bond orders agree and the
    # common edge set keeps the node set connected
    nodes = list(nodes)
    for perm in itertools.permutations(range(b.n), len(nodes)):
        ok = True
        shared = nx.Graph()
        shared.add_nodes_from(range(len(nodes)))
        for i, ai in enumerate(nodes):
            aa, bb = a.atoms[ai], b.atoms[perm[i]]
            if (aa.element, aa.charge, aa.aromatic) != (bb.element, bb.charge, bb.aromatic):
                ok = False
                break
        if not ok:
            continue
        for i, j in itertools.combinations(range(len(nodes)), 2):
            ab = a.bond_between(nodes[i], nodes[j])
            bb = b.bond_between(perm[i], perm[j])
            if ab is not None and bb is not None:
                if ab.order != bb.order:
                    ok = False
                    break
                shared.add_edge(i, j)
        if ok and len(nodes) > 0 and nx.is_connected(shared):
            return True
    return False


# ---------------------------------------------------------------------------
# MCS oracle: the all-pairs backtracking search that the frontier search in
# `merge.max_common_substructure` replaced.


def _labels_match(a: Atom, b: Atom) -> bool:
    return a.element == b.element and a.charge == b.charge and a.aromatic == b.aromatic


def oracle_mcs_mappings(a: MolGraph, b: MolGraph) -> list[tuple[tuple[int, int], ...]]:
    """All maximum-cardinality connected common-subgraph mappings between a and
    b, each its sorted (a atom, b atom) pairs, deduplicated by their pair
    sets. Empty when no atom labels coincide.

    The backtracking search that `merge.max_common_substructure` replaced: it
    tries every unmapped (ai, bi) pair at every state and rescans the whole
    mapping through `bond_between` to keep it connected and consistent."""
    if a.n > MCS_ATOM_LIMIT or b.n > MCS_ATOM_LIMIT:
        raise ResourceLimitError(f"MCS limited to {MCS_ATOM_LIMIT} atoms per graph")

    best_size = 0
    best: dict[frozenset, tuple[tuple[int, int], ...]] = {}

    def consistent(ai: int, bi: int, mapping: dict[int, int]) -> bool:
        # mapped neighbors must agree on bond order wherever both graphs bond
        for aj, bj in mapping.items():
            ab = a.bond_between(ai, aj)
            bb = b.bond_between(bi, bj)
            if ab is not None and bb is not None and ab.order != bb.order:
                return False
        return True

    def shared_edge_exists(ai: int, bi: int, mapping: dict[int, int]) -> bool:
        for aj, bj in mapping.items():
            ab = a.bond_between(ai, aj)
            bb = b.bond_between(bi, bj)
            if ab is not None and bb is not None and ab.order == bb.order:
                return True
        return False

    def record(mapping: dict[int, int]) -> None:
        nonlocal best_size
        size = len(mapping)
        if size < best_size:
            return
        key = frozenset(mapping.items())
        if size > best_size:
            best_size = size
            best.clear()
        best[key] = tuple(sorted(mapping.items()))

    seen_states: set[frozenset] = set()

    def extend(mapping: dict[int, int], used_b: set[int]) -> None:
        state = frozenset(mapping.items())
        if state in seen_states:
            return
        seen_states.add(state)
        extended = False
        for ai in range(a.n):
            if ai in mapping:
                continue
            for bi in range(b.n):
                if bi in used_b or not _labels_match(a.atoms[ai], b.atoms[bi]):
                    continue
                # grow connectedly along an order-matched edge
                if not shared_edge_exists(ai, bi, mapping):
                    continue
                if not consistent(ai, bi, mapping):
                    continue
                extended = True
                mapping[ai] = bi
                used_b.add(bi)
                extend(mapping, used_b)
                del mapping[ai]
                used_b.discard(bi)
        if not extended:
            record(mapping)

    for ai in range(a.n):
        for bi in range(b.n):
            if _labels_match(a.atoms[ai], b.atoms[bi]):
                extend({ai: bi}, {bi})

    return [best[k] for k in sorted(best, key=lambda s: sorted(s))]


def random_corpus(n: int, seed: int, atoms_min: int = 4, atoms_max: int = 14,
                  ring_prob: float = 0.35) -> list[MolGraph]:
    rng = random.Random(seed)
    return [
        random_molecule(rng, rng.randint(atoms_min, atoms_max), ring_prob)
        for _ in range(n)
    ]


def with_ring_closures(g: MolGraph, rng: random.Random, closures: int) -> MolGraph:
    """g with up to `closures` more single bonds, each between two atoms with
    a free valence at distance 2 to 6: new rings of 3 to 7 atoms, fused or
    bridged to the rings already there."""
    atoms, bonds = list(g.atoms), list(g.bonds)
    for _ in range(closures):
        gr = to_nx(MolGraph(atoms, bonds))
        half = [0] * len(atoms)
        for b in bonds:
            half[b.u] += HALF_UNITS[b.order]
            half[b.v] += HALF_UNITS[b.order]
        open_atoms = [i for i, a in enumerate(atoms) if free_valence(a.element, half[i]) >= 1]
        dist = dict(nx.all_pairs_shortest_path_length(gr, cutoff=6))
        pairs = [(i, j) for i in open_atoms for j in open_atoms
                 if i < j and 2 <= dist[i].get(j, 0)]
        if not pairs:
            break
        bonds.append(Bond(*pairs[rng.randrange(len(pairs))], SINGLE))
    return MolGraph(atoms, bonds)


def fused_corpus(n: int, seed: int, atoms_min: int = 20, atoms_max: int = 28) -> list[MolGraph]:
    """Drug-sized random molecules, each with three ring closures added."""
    rng = random.Random(seed)
    return [with_ring_closures(g, rng, 3)
            for g in random_corpus(n, seed, atoms_min, atoms_max, ring_prob=0.5)]


def ring_systems(g: MolGraph) -> tuple[bool, bool]:
    """Whether two rings of networkx's minimum cycle basis share two atoms,
    as fused rings do, and whether two share more, as bridged rings do."""
    cycles = [set(c) for c in nx.minimum_cycle_basis(to_nx(g))]
    shared = [len(a & b) for i, a in enumerate(cycles) for b in cycles[i + 1:]]
    return 2 in shared, any(s > 2 for s in shared)


# ---------------------------------------------------------------------------
# Canonical-form oracle: the refinement that looks every neighbour's bond up
# through `bond_between` and sorts (order code, colour) pairs, with the
# individualization search and the key format of `chemgraph.canonical_key`.


def _oracle_refine(g: MolGraph, colors: list[int]) -> list[int]:
    while True:
        sigs = []
        for i in range(g.n):
            nb = sorted(
                (_ORDER_CODE[g.bond_between(i, j).order], colors[j])
                for j in g.neighbors(i)
            )
            sigs.append((colors[i], tuple(nb)))
        ranking = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _oracle_encode(g: MolGraph, perm: list[int]) -> tuple:
    # perm[i] = canonical position of atom i
    atoms = [None] * g.n
    for i, p in enumerate(perm):
        a = g.atoms[i]
        atoms[p] = (a.element, a.charge, a.aromatic)
    edges = sorted(
        (min(perm[b.u], perm[b.v]), max(perm[b.u], perm[b.v]), _ORDER_CODE[b.order])
        for b in g.bonds
    )
    return (tuple(atoms), tuple(edges))


def oracle_canonical_perm(g: MolGraph) -> list[int]:
    """Canonical atom positions via iterative refinement with individualization
    backtracking; exact (isomorphic graphs get equal encodings)."""
    init = [(a.element, a.charge, a.aromatic, g.degree(i)) for i, a in enumerate(g.atoms)]
    ranking = {c: k for k, c in enumerate(sorted(set(init)))}
    base = _oracle_refine(g, [ranking[c] for c in init])

    best: list[tuple | None] = [None, None]

    def rec(colors: list[int]) -> None:
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        split = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                split = c
                break
        if split is None:
            # colors are dense 0..n-1 when discrete
            perm = list(colors)
            enc = _oracle_encode(g, perm)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best[1] = perm
            return
        for atom in cells[split]:
            branched = [
                c * 2 + (1 if (i == atom and c == split) else 0) if c == split else c * 2
                for i, c in enumerate(colors)
            ]
            # re-rank to dense ints, individualized atom gets a unique color
            rank = {c: k for k, c in enumerate(sorted(set(branched)))}
            rec(_oracle_refine(g, [rank[c] for c in branched]))

    rec(base)
    return best[1]  # type: ignore[return-value]


def oracle_canonical_key(g: MolGraph) -> str:
    atoms, edges = _oracle_encode(g, oracle_canonical_perm(g))
    atom_str = ".".join(
        f"{el}{'~' if ar else ''}{'' if q == 0 else f'{q:+d}'}" for el, q, ar in atoms
    )
    edge_str = ",".join(f"{u}-{v}:{o}" for u, v, o in edges)
    return f"{len(atoms)}|{atom_str}|{edge_str}"


def dedupe_by_key(mols: list[MolGraph]) -> list[MolGraph]:
    seen = set()
    out = []
    for g in mols:
        k = canonical_key(g)
        if k not in seen:
            seen.add(k)
            out.append(g)
    return out


class StubProperty:
    """Base of the duck-typed test properties: a subclass defines
    `score(g)`, and the batch `scores` and `is_positive` follow from it."""

    def scores(self, mols: list[MolGraph]) -> np.ndarray:
        return np.array([float(self.score(g)) for g in mols], dtype=np.float64)

    def is_positive(self, g: MolGraph) -> bool:
        return self.score(g) >= self.threshold


# ---------------------------------------------------------------------------
# Scoring oracles: the one-molecule, one-tree and one-pair loops that the
# batch scorer replaced, in plain Python integers, dicts and sets.

_MASK64 = (1 << 64) - 1
_ELEMENT_CODE = {el: i + 1 for i, el in enumerate(("C", "N", "O", "S", "P", "F", "Cl", "Br", "I"))}


def _mix(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _hash_ints(values) -> int:
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = _mix(h ^ ((v + 0x165667B19E3779F9) & _MASK64))
    return h


def fold_environment_hashes(g: MolGraph, radius: int) -> list[list[int]]:
    """Per-round environment hash of every atom, folded atom by atom."""
    hashes = [
        _hash_ints((_ELEMENT_CODE[a.element], g.degree(i), a.charge + 16, int(a.aromatic)))
        for i, a in enumerate(g.atoms)
    ]
    rounds = [list(hashes)]
    for _ in range(radius):
        nxt = []
        for i in range(g.n):
            nb = sorted(
                (_ORDER_CODE[g.bond_between(i, j).order], hashes[j]) for j in g.neighbors(i)
            )
            flat = [hashes[i]]
            for code, h in nb:
                flat += [code, h]
            nxt.append(_hash_ints(flat))
        hashes = nxt
        rounds.append(list(hashes))
    return rounds


def fold_fingerprint_bits(g: MolGraph, radius: int = 2, width: int = 2048) -> frozenset[int]:
    return frozenset(h % width for r in fold_environment_hashes(g, radius) for h in r)


def walk_score(trees: list[dict], bits: frozenset[int]) -> float:
    """Mean leaf value of a forest for one fingerprint, walking the dicts."""
    total = 0
    for node in trees:
        while "leaf" not in node:
            node = node["right"] if node["bit"] in bits else node["left"]
        total += node["leaf"]
    return total / len(trees)


def set_tanimoto(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    return 1.0 if union == 0 else len(a & b) / union


def loop_diversity(fps: list[frozenset]) -> float:
    n = len(fps)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += set_tanimoto(fps[i], fps[j])
    return 1.0 - (2.0 / (n * (n - 1))) * total


def loop_novelty(fps: list[frozenset], ref: list[frozenset], cutoff: float = 0.4) -> float:
    return sum(1 for f in fps if max(set_tanimoto(f, r) for r in ref) < cutoff) / len(fps)


# ---------------------------------------------------------------------------
# Full-matrix metric oracles: every Tanimoto similarity over the full width in
# one product, and diversity and novelty read from the whole matrix.


def full_tanimoto_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    fa = a.astype(np.float32)
    fb = b.astype(np.float32)
    inter = (fa @ fb.T).astype(np.float64)
    union = fa.sum(axis=1, dtype=np.float64)[:, None] + fb.sum(axis=1, dtype=np.float64)[None, :]
    union -= inter
    return np.divide(inter, union, out=np.ones_like(inter), where=union > 0)


def full_matrix_diversity(fps: np.ndarray) -> float:
    n = len(fps)
    sim = full_tanimoto_matrix(fps, fps)
    return 1.0 - (2.0 / (n * (n - 1))) * float(np.cumsum(sim[np.triu_indices(n, 1)])[-1])


def full_matrix_novelty(fps: np.ndarray, ref: np.ndarray, cutoff: float = 0.4) -> float:
    return int((full_tanimoto_matrix(fps, ref).max(axis=1) < cutoff).sum()) / len(fps)


# ---------------------------------------------------------------------------
# Checkpoint oracle: the files as written when the whole .bin was assembled in
# one bytearray first.


def bytearray_checkpoint(arrays: dict[str, np.ndarray], extra: dict | None = None) -> tuple[str, bytes]:
    """The (.json text, .bin bytes) of a checkpoint of the arrays."""
    entries = []
    blob = bytearray()
    for name in sorted(arrays):
        src = np.asarray(arrays[name], dtype=np.float64)
        arr = np.ascontiguousarray(src, dtype="<f8")
        entries.append({"name": name, "shape": list(src.shape), "offset": len(blob)})
        blob.extend(arr.tobytes())
    manifest = {"version": 1, "dtype": "<f8", "params": entries}
    if extra:
        manifest["extra"] = extra
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")), bytes(blob)


# ---------------------------------------------------------------------------
# Forest oracle: the tree builder that copied the node's fingerprint rows to
# count bits, and the bootstrap loop of `train_forest` around it.


def row_copy_build_tree(
    X: np.ndarray, y: np.ndarray, idx: np.ndarray, rng: np.random.Generator,
    max_depth: int, n_candidates: int,
) -> dict:
    n = len(idx)
    pos = int(y[idx].sum())
    if n == 0:
        return {"leaf": 0.0}
    value = pos / n
    if pos == 0 or pos == n or max_depth == 0 or n < 2:
        return {"leaf": value}
    # candidate bits are sampled among those that vary within this node;
    # constant bits cannot split
    col = X[idx].sum(axis=0)
    varying = np.flatnonzero((col > 0) & (col < n))
    if varying.size == 0:
        return {"leaf": value}
    k = min(n_candidates, varying.size)
    bits = np.sort(rng.choice(varying, size=k, replace=False))
    sub = X[np.ix_(idx, bits)]
    n_on = sub.sum(axis=0)
    pos_on = (sub & y[idx, None].astype(bool)).sum(axis=0)
    n_off = n - n_on
    pos_off = pos - pos_on
    parent = _gini(np.array([pos]), np.array([n]))[0]
    children = (n_off * _gini(pos_off, n_off) + n_on * _gini(pos_on, n_on)) / n
    gains = parent - children
    gains[(n_on == 0) | (n_off == 0)] = -1.0
    best = int(np.argmax(gains))
    if gains[best] <= 1e-12:
        return {"leaf": value}
    bit = int(bits[best])
    mask = X[idx, bit]
    left_idx = idx[~mask]
    right_idx = idx[mask]
    return {
        "bit": bit,
        "left": row_copy_build_tree(X, y, left_idx, rng, max_depth - 1, n_candidates),
        "right": row_copy_build_tree(X, y, right_idx, rng, max_depth - 1, n_candidates),
    }


def row_copy_forest_trees(
    data: list[tuple[MolGraph, int]], n_trees: int, max_depth: int, seed: int,
) -> list[dict]:
    """The trees `train_forest` grows, each built by `row_copy_build_tree`."""
    from molrationale.fingerprint import WIDTH, fingerprint_matrix

    y = np.array([int(label) for _, label in data], dtype=np.int64)
    X = fingerprint_matrix([g for g, _ in data])
    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y == 0)
    n_candidates = max(1, int(np.sqrt(WIDTH)))
    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        boot = np.concatenate(
            [
                rng.choice(pos_idx, size=len(pos_idx), replace=True),
                rng.choice(neg_idx, size=len(neg_idx), replace=True),
            ]
        )
        trees.append(row_copy_build_tree(X, y, boot, rng, max_depth, n_candidates))
    return trees


# ---------------------------------------------------------------------------
# Fine-tuning oracles: the policy-step loss recorded as one tape over every
# kept trajectory, then back-propagated once, and the success estimator of
# acceptance criterion 4.


def single_tape_policy_loss(model, kept) -> ns.Tensor:
    """Mean negative log-likelihood of the kept (start, trace, latent)
    trajectories, each replayed from a fresh start of its rationale, all on
    one tape."""
    loss = ns.const(0.0)
    for start, trace_ids, z in kept:
        loss = ns.add(
            loss, ns.scale(trace_log_likelihood(model, start.rationale, trace_ids, z), -1.0)
        )
    return ns.scale(loss, 1.0 / len(kept))


def success_of_model(
    model: GenModel,
    vocab: RationaleVocab,
    props: list[PropertySpec],
    n: int,
    seed: int,
    max_steps: int,
) -> float:
    """Positive fraction of n completions with rationales drawn uniformly."""
    if not vocab.entries:
        raise TrainingError("empty vocabulary")
    starts = [prepare_start(model, r) for r in vocab.entries]
    drawn: list[MolGraph] = []
    for i in range(n):
        rng = np.random.default_rng([seed, 15485863, i])
        k = int(rng.integers(len(vocab.entries)))
        out = _draw_completion(model, starts[k], rng, max_steps)
        if out is not None:  # a truncated completion counts as a miss
            drawn.append(out[0])
    return int(positive_mask(drawn, props).sum()) / n if n else 0.0


def tape_size(loss: ns.Tensor) -> int:
    """Number of tape nodes reachable from a loss."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# ---------------------------------------------------------------------------
# Sampler oracles: the decoder MPN run afresh on the graph at every step, and
# each bond decision's valence mask from the oracle's own bookkeeping.


def oracle_bond_mask(model, state, t_idx, prior):
    """The valence mask of a step's bond decision len(prior): a new atom of
    type t_idx, whose earlier bond decisions in the step are `prior`, against
    queue member len(prior) of the state the step began from. Each end's half
    units are summed from bond lists, not read from the walk's state."""
    k = len(prior)
    q = state.queue[k]
    new_half = sum(HALF_UNITS[BOND_TYPES[b]] for b in prior if b != NO_BOND_IDX)
    q_half = sum(HALF_UNITS[BOND_TYPES[bt]] for u, v, bt in state.edges if q in (u, v))
    return _bond_mask(
        (model.atom_types[t_idx].element, new_half), (state.atoms[q].element, q_half), k == 0
    )


def fresh_complete_with_trace(model, rationale, z, rng, max_steps):
    """Sample a completion with one public step_logits call per expand
    decision, each running the decoder MPN on the graph so far, and the
    sampler's draw protocol: expand if a uniform draw is below the expand
    probability, and a categorical draw of every atom and bond type. Returns
    the molecule and its trace; raises TruncationError like the sampler."""
    state = DecoderState.from_rationale(model, rationale)
    trace = []
    added = 0

    def draw(probs):
        p = np.clip(probs, 0.0, None)
        return int(rng.choice(len(p), p=p / p.sum()))

    while state.queue:
        if not state.can_accept_any_bond(state.queue[0]):
            state.queue.popleft()
            continue
        sl = step_logits(model, state, z)
        yes = rng.random() < sl.expand_prob
        trace.append(int(yes))
        if not yes:
            state.queue.popleft()
            continue
        if added == max_steps:
            raise TruncationError(state.to_molgraph())
        t = draw(sl.atom_probs)
        trace.append(t)
        members, prior = list(state.queue), []
        for _q in members:
            prior.append(draw(sl.bond_probs(t, prior, oracle_bond_mask(model, state, t, prior))))
        trace.extend(prior)
        u = state._append_atom(model.atom_types[t])
        for q, b in zip(members, prior):
            if b != NO_BOND_IDX:
                state._append_bond(u, q, b)
        state.queue.append(u)
        added += 1
    return state.to_molgraph(), trace


def same_outcome(model, rationale, z, seed, max_steps, start):
    """Decode from the prepared start and with the fresh-MPN oracle on the
    same seeded stream; both return (graph, trace) or the truncated partial."""
    outcomes = []
    for decode in (
        lambda rng: complete_with_trace(model, rationale, z, rng, max_steps, start=start),
        lambda rng: fresh_complete_with_trace(model, rationale, z, rng, max_steps),
    ):
        try:
            outcomes.append(decode(np.random.default_rng(seed)))
        except TruncationError as err:
            outcomes.append(("truncated", err.partial))
    assert outcomes[0] == outcomes[1], (rationale, seed)
    return outcomes[0]


# ---------------------------------------------------------------------------
# Valence oracle: the floor rule in exact rational arithmetic.

_BOND_VALUE = {"single": Fraction(1), "double": Fraction(2), "triple": Fraction(3),
               "aromatic": Fraction(3, 2)}


def floor_rule_valence(orders) -> int:
    """An atom's valence from the orders of its bonds: the integer orders plus
    3/2 per aromatic bond, summed exactly and floored."""
    return math.floor(sum((_BOND_VALUE[o] for o in orders), Fraction(0)))


def bond_histories(cap: int) -> list[tuple[str, ...]]:
    """Every sequence of bond orders whose floor-rule valence stays within
    cap, the empty one first: each history an atom can reach, in every order,
    up to saturation."""
    out = []

    def grow(history):
        out.append(history)
        for o in _BOND_VALUE:
            if floor_rule_valence(history + (o,)) <= cap:
                grow(history + (o,))

    grow(())
    return out


def walk_and_oracle_masks(model, start, z, rng, max_steps):
    """Sample one completion from a prepared start and return, for every bond
    decision, the mask the walk handed to the policy with the oracle's mask
    for the same decision (oracle_bond_mask on the state the step began
    from), in order."""
    pairs = []

    class Recording(_SamplePolicy):
        def expand(self, state, v_t):
            self.before = state.copy()
            return super().expand(state, v_t)

        def bond_type(self, state, u, q, mask):
            pairs.append((mask, oracle_bond_mask(self.model, self.before, self.atom, self.bonds)))
            return super().bond_type(state, u, q, mask)

    try:
        _walk(model, start.state.copy(), Recording(model, start, z, rng), max_steps)
    except TruncationError:
        pass
    return pairs
