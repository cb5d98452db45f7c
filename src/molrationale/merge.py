"""Multi-property rationales: superpose single-property rationales on their
maximum common substructure and keep unions that satisfy every threshold.
"""

from __future__ import annotations

import logging
from itertools import accumulate

from .chemgraph import (
    Bond,
    ChemError,
    MolGraph,
    ResourceLimitError,
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
    a: MolGraph, b: MolGraph, mapping: tuple[tuple[int, int], ...]
) -> tuple[MolGraph, dict[int, int]] | None:
    """Union of a and b with mapped atoms identified, and the map from b's
    atoms to the union's; None when bond orders conflict or the union
    violates valence."""
    b_to_new = {bi: ai for ai, bi in mapping}
    atoms = list(a.atoms)
    for bi in range(b.n):
        if bi not in b_to_new:
            b_to_new[bi] = len(atoms)
            atoms.append(b.atoms[bi])
    bonds: dict[tuple[int, int], str] = {}
    for bond in a.bonds:
        key = (min(bond.u, bond.v), max(bond.u, bond.v))
        bonds[key] = bond.order
    for bond in b.bonds:
        u, v = b_to_new[bond.u], b_to_new[bond.v]
        key = (min(u, v), max(u, v))
        existing = bonds.get(key)
        if existing is not None and existing != bond.order:
            return None
        bonds[key] = bond.order
    try:
        union = MolGraph(atoms, [Bond(u, v, o) for (u, v), o in bonds.items()])
    except ChemError:
        return None
    return union, b_to_new


def _merged_rationale(
    fragments: tuple[MolGraph, ...], a: Rationale, b: Rationale, b_to_new: dict[int, int]
) -> Rationale:
    """Assemble the merged rationale with peripheral atoms carried over from
    both inputs (b's indices translated to the merged atom indices)."""
    peripheral = set(a.peripheral) | {b_to_new[p] for p in b.peripheral}
    return Rationale(
        fragments=fragments,
        scores={},
        peripheral=tuple(sorted(peripheral)),
        sources=(),
    )


def merge_pair(a: Rationale, b: Rationale) -> list[Rationale]:
    """All distinct superpositions of two single-fragment rationales.

    One union per maximum common substructure mapping, dropping candidates
    with bond-order conflicts or valence violations; when the MCS is empty the
    pair is kept as a single two-fragment rationale.
    """
    if len(a.fragments) != 1 or len(b.fragments) != 1:
        raise ValueError("merge_pair expects single-fragment rationales")
    ga, gb = a.fragments[0], b.fragments[0]
    mappings = max_common_substructure(ga, gb)
    if not mappings:
        return [_merged_rationale((ga, gb), a, b, {bi: ga.n + bi for bi in range(gb.n)})]
    out: dict[str, Rationale] = {}
    for m in mappings:
        superposed = _superpose(ga, gb, m)
        if superposed is None:
            continue
        union, b_to_new = superposed
        r = _merged_rationale((union,), a, b, b_to_new)
        out.setdefault(r.key, r)
    return [out[k] for k in sorted(out)]


def _merge_into(acc: Rationale, nxt: Rationale) -> list[Rationale]:
    """Merge a possibly multi-fragment accumulator with a single-fragment
    rationale: superpose it on every fragment it shares a non-empty MCS with,
    or, when it shares one with no fragment, append it as a trailing
    fragment. The keys of the results do not depend on the fragment order."""
    if len(acc.fragments) == 1:
        return merge_pair(acc, nxt)
    offsets = list(accumulate((f.n for f in acc.fragments), initial=0))
    merged = [
        merge_pair(
            Rationale(
                fragments=(frag,),
                scores={},
                peripheral=tuple(p - start for p in acc.peripheral if start <= p < end),
            ),
            nxt,
        )
        for frag, start, end in zip(acc.fragments, offsets, offsets[1:])
    ]
    # merge_pair returns one two-fragment rationale exactly when the MCS is empty
    disjoint = all(len(ms) == 1 and len(ms[0].fragments) > 1 for ms in merged)
    results: dict[str, Rationale] = {}
    for fi, ms in enumerate(merged):
        start, end = offsets[fi], offsets[fi + 1]
        for m in ms:
            if len(m.fragments) > 1 and not (disjoint and fi == len(merged) - 1):
                continue  # append once, and only when no fragment overlaps nxt
            new_fragments = acc.fragments[:fi] + m.fragments + acc.fragments[fi + 1 :]
            delta = sum(f.n for f in m.fragments) - (end - start)
            peripheral = {p if p < start else p + delta for p in acc.peripheral if not start <= p < end}
            peripheral.update(p + start for p in m.peripheral)
            r = Rationale(
                fragments=new_fragments,
                scores={},
                peripheral=tuple(sorted(peripheral)),
            )
            results.setdefault(r.key, r)
    return [results[k] for k in sorted(results)]


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
                for r in _merge_into(acc, nxt):
                    merged.setdefault(r.key, r)
        candidates = [merged[k] for k in sorted(merged)]
    out = RationaleVocab(names)
    combined = [r.combined for r in candidates]
    columns = {p.name: p.scores(combined).tolist() for p in props}
    for i, r in enumerate(candidates):
        scores = {p.name: columns[p.name][i] for p in props}
        if all(scores[p.name] >= p.threshold for p in props):
            out.add(
                Rationale(
                    fragments=r.fragments,
                    scores=scores,
                    peripheral=r.peripheral,
                    sources=r.sources,
                )
            )
    if not out.entries:
        log.warning("build_multi_vocab: no merged rationale satisfies all thresholds")
    return out
