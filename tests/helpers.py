"""Shared oracles and corpus builders for the test suite.

Oracles here are written independently of the library code paths they check:
connectivity and ring perception go through networkx, subgraph/MCS questions
through exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx

from molrationale.chemgraph import (
    AROMATIC,
    MolGraph,
    canonical_key,
)
from molrationale.synthetic import random_molecule


def to_nx(g: MolGraph) -> nx.Graph:
    gr = nx.Graph()
    for i, a in enumerate(g.atoms):
        gr.add_node(i, label=(a.element, a.charge, a.aromatic))
    for b in g.bonds:
        gr.add_edge(b.u, b.v, order=b.order)
    return gr


def oracle_peripheral_removals(g: MolGraph, max_ring: int = 8) -> set[tuple]:
    """Brute-force legality check of every candidate bond/ring removal.

    Returns a set of ('bond', removed_atoms, removed_bond_indices) and
    ('ring', removed_atoms, removed_bond_indices) tuples.
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
    for cycle in nx.minimum_cycle_basis(gr):
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


def random_corpus(n: int, seed: int, atoms_min: int = 4, atoms_max: int = 14,
                  ring_prob: float = 0.35) -> list[MolGraph]:
    rng = random.Random(seed)
    return [
        random_molecule(rng, rng.randint(atoms_min, atoms_max), ring_prob)
        for _ in range(n)
    ]


def dedupe_by_key(mols: list[MolGraph]) -> list[MolGraph]:
    seen = set()
    out = []
    for g in mols:
        k = canonical_key(g)
        if k not in seen:
            seen.add(k)
            out.append(g)
    return out
