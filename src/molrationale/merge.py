"""Multi-property rationales: superpose single-property rationales on their
maximum common substructure and keep unions that satisfy every threshold.
"""

from __future__ import annotations

import logging
from dataclasses import replace

from .chemgraph import (
    Bond,
    ChemError,
    MolGraph,
    ResourceLimitError,
    connected_components,
    induced_subgraph,
    is_connected,
)
from .extract import Rationale, RationaleVocab
from .forest import PropertySpec

log = logging.getLogger(__name__)

MCS_ATOM_LIMIT = 20


def max_common_substructure(a: MolGraph, b: MolGraph) -> list[tuple[tuple[int, int], ...]]:
    """All maximum-cardinality connected common-subgraph mappings between a and
    b, each the sorted (a atom, b atom) pairs of an injective pairing whose
    mapped subgraph is connected and agrees on atom labels and shared bond
    orders; sorted. Empty when no atom labels coincide.

    The search grows each mapping at its frontier, as FMCS does (Dalke &
    Hastings, 2013): next to a mapped pair (aj, bj) it pairs an unmapped
    neighbour ai of aj with an unused neighbour bi of bj when their labels and
    the orders of bonds (ai, aj) and (bi, bj) are equal, and keeps the pair
    when b bonds bi to the image of every mapped neighbour of ai, if at all,
    with that bond's order. Every state is visited once."""
    if a.n > MCS_ATOM_LIMIT or b.n > MCS_ATOM_LIMIT:
        raise ResourceLimitError(f"MCS limited to {MCS_ATOM_LIMIT} atoms per graph")
    label_ids: dict[tuple, int] = {}
    label_a, label_b = (
        [label_ids.setdefault((x.element, x.charge, x.aromatic), len(label_ids)) for x in g.atoms]
        for g in (a, b)
    )
    # (neighbour, bond order) per atom; b's bond orders keyed by neighbour
    nbrs_a, nbrs_b = (
        [[(j, g.bond_between(i, j).order) for j in g.neighbors(i)] for i in range(g.n)]
        for g in (a, b)
    )
    orders_b = [dict(row) for row in nbrs_b]
    # a state's key holds bi + 1 in the bit field of each mapped ai
    shift = MCS_ATOM_LIMIT.bit_length()
    a_to_b = [-1] * a.n
    used_b = [False] * b.n
    mapped: list[int] = []
    seen: set[int] = set()
    best: list[tuple[tuple[int, int], ...]] = []

    def visit(key: int, ai: int, bi: int) -> None:
        seen.add(key)
        a_to_b[ai] = bi
        used_b[bi] = True
        mapped.append(ai)
        extend(key)
        mapped.pop()
        used_b[bi] = False
        a_to_b[ai] = -1

    def extend(key: int) -> None:
        extended = False
        for aj in tuple(mapped):
            bj = a_to_b[aj]
            for ai, order in nbrs_a[aj]:
                if a_to_b[ai] >= 0:
                    continue
                for bi, b_order in nbrs_b[bj]:
                    if b_order != order or used_b[bi] or label_b[bi] != label_a[ai]:
                        continue
                    child = key | ((bi + 1) << (shift * ai))
                    # a seen state passed this check when it was reached
                    if child not in seen:
                        # unmapped neighbours have image -1, which b never bonds
                        orders = orders_b[bi]
                        if any(orders.get(a_to_b[ak], o) != o for ak, o in nbrs_a[ai]):
                            continue
                        visit(child, ai, bi)
                    extended = True
        if not extended and (not best or len(mapped) >= len(best[0])):
            if best and len(mapped) > len(best[0]):
                best.clear()
            best.append(tuple((i, j) for i, j in enumerate(a_to_b) if j >= 0))

    for ai in range(a.n):
        for bi in range(b.n):
            key = (bi + 1) << (shift * ai)
            if label_a[ai] == label_b[bi] and key not in seen:
                visit(key, ai, bi)

    return sorted(best)


def _superpose(
    a: MolGraph, b: MolGraph, mapping: tuple[tuple[int, int], ...], at: int
) -> tuple[MolGraph, list[int], dict[int, int]] | None:
    """Union of a and b with mapped atoms identified and b's other atoms
    inserted before a's atom `at`, with the maps from a's and from b's atoms
    to the union's; None when bond orders conflict or the union violates
    valence."""
    b_to_a = {bi: ai for ai, bi in mapping}
    added = [bi for bi in range(b.n) if bi not in b_to_a]
    a_to_new = [i + len(added) if i >= at else i for i in range(a.n)]
    b_to_new = {bi: a_to_new[ai] for bi, ai in b_to_a.items()}
    b_to_new.update((bi, at + k) for k, bi in enumerate(added))
    atoms = a.atoms[:at] + tuple(b.atoms[bi] for bi in added) + a.atoms[at:]
    bonds: dict[tuple[int, int], str] = {}
    for g, to_new in ((a, a_to_new), (b, b_to_new)):
        for bond in g.bonds:
            u, v = to_new[bond.u], to_new[bond.v]
            key = (min(u, v), max(u, v))
            if bonds.setdefault(key, bond.order) != bond.order:
                return None
    try:
        union = MolGraph(atoms, [Bond(u, v, o) for (u, v), o in bonds.items()])
    except ChemError:
        return None
    return union, a_to_new, b_to_new


def merge_pair(acc: Rationale, nxt: Rationale) -> list[Rationale]:
    """All distinct superpositions of a connected rationale nxt on acc, sorted
    by key.

    nxt is superposed on each connected component of acc with which it
    shares a non-empty maximum common substructure, once per MCS mapping; its
    other atoms follow the component's last atom. Candidates with bond-order
    conflicts or valence violations are dropped. Only when nxt shares an MCS
    with no component is it appended as a new component.
    """
    a, b = acc.combined, nxt.combined
    if not is_connected(b):
        raise ValueError("merge_pair expects a connected rationale to merge in")
    placements = [
        (tuple((comp[ai], bi) for ai, bi in m), comp[-1] + 1)
        for comp in connected_components(a)
        for m in max_common_substructure(induced_subgraph(a, comp), b)
    ]
    out: dict[str, Rationale] = {}
    for mapping, at in placements or [((), a.n)]:
        superposed = _superpose(a, b, mapping, at)
        if superposed is None:
            continue
        union, a_to_new, b_to_new = superposed
        peripheral = {a_to_new[p] for p in acc.peripheral} | {b_to_new[p] for p in nxt.peripheral}
        r = Rationale(union, scores={}, peripheral=tuple(sorted(peripheral)))
        out.setdefault(r.key, r)
    return [out[k] for k in sorted(out)]


def _shortlist(vocab: RationaleVocab, prop_name: str, size: int) -> list[Rationale]:
    """Top rationales by predicted score, ties broken by key."""

    def sort_key(r: Rationale):
        return (-r.scores.get(prop_name, 0.0), r.key)

    return sorted(vocab.entries, key=sort_key)[:size]


def build_multi_vocab(
    vocabs: list[RationaleVocab],
    props: list[PropertySpec],
    shortlist_size: int,
) -> RationaleVocab:
    """Merge per-property shortlists (left-associative over the property
    order) and keep candidates whose every property score clears its
    threshold."""
    if len(vocabs) < 2:
        raise ValueError("build_multi_vocab requires at least 2 vocabularies")
    names = tuple(p.name for p in props)
    shortlists = [
        _shortlist(v, p.name, shortlist_size) for v, p in zip(vocabs, props)
    ]
    candidates: list[Rationale] = shortlists[0]
    for nxt_list in shortlists[1:]:
        merged: dict[str, Rationale] = {}
        for acc in candidates:
            for nxt in nxt_list:
                for r in merge_pair(acc, nxt):
                    merged.setdefault(r.key, r)
        candidates = [merged[k] for k in sorted(merged)]
    out = RationaleVocab(names)
    combined = [r.combined for r in candidates]
    columns = {p.name: p.scores(combined).tolist() for p in props}
    for i, r in enumerate(candidates):
        scores = {p.name: columns[p.name][i] for p in props}
        if all(scores[p.name] >= p.threshold for p in props):
            out.add(replace(r, scores=scores))
    if not out.entries:
        log.warning("build_multi_vocab: no merged rationale satisfies all thresholds")
    return out
