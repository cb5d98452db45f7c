"""Multi-property rationales: superpose single-property rationales on their
maximum common substructure and keep unions that satisfy every threshold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .chemgraph import (
    Atom,
    Bond,
    ChemError,
    MolGraph,
    ResourceLimitError,
)
from .extract import Rationale, RationaleVocab
from .forest import PropertySpec

log = logging.getLogger(__name__)

MCS_ATOM_LIMIT = 20


@dataclass(frozen=True)
class AtomMapping:
    """Injective atom pairing between two graphs whose mapped subgraph is
    connected and agrees on atom labels and shared bond orders."""

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)


def _labels_match(a: Atom, b: Atom) -> bool:
    return a.element == b.element and a.charge == b.charge and a.aromatic == b.aromatic


def max_common_substructure(a: MolGraph, b: MolGraph) -> list[AtomMapping]:
    """All maximum-cardinality connected common-subgraph mappings between a and
    b, deduplicated by their pair sets. Empty when no atom labels coincide."""
    if a.n > MCS_ATOM_LIMIT or b.n > MCS_ATOM_LIMIT:
        raise ResourceLimitError(f"MCS limited to {MCS_ATOM_LIMIT} atoms per graph")

    best_size = 0
    best: dict[frozenset, AtomMapping] = {}

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
        best[key] = AtomMapping(tuple(sorted(mapping.items())))

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


def _superpose(a: MolGraph, b: MolGraph, mapping: AtomMapping) -> MolGraph | None:
    """Union of a and b with mapped atoms identified; None when bond orders
    conflict or the union violates valence."""
    pair = mapping.as_dict()
    b_to_new: dict[int, int] = {}
    atoms = list(a.atoms)
    for ai, bi in pair.items():
        b_to_new[bi] = ai
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
        return MolGraph(atoms, [Bond(u, v, o) for (u, v), o in bonds.items()])
    except ChemError:
        return None


def _merged_rationale(
    graph_or_fragments, a: Rationale, b: Rationale, b_index_map: dict[int, int] | None
) -> Rationale:
    """Assemble the merged rationale with peripheral atoms carried over from
    both inputs (b's indices translated through the identification)."""
    if isinstance(graph_or_fragments, MolGraph):
        fragments = (graph_or_fragments,)
        peripheral = set(a.peripheral)
        for p in b.peripheral:
            peripheral.add(b_index_map[p])
    else:
        fragments = tuple(graph_or_fragments)
        offset = sum(f.n for f in a.fragments)
        peripheral = set(a.peripheral) | {p + offset for p in b.peripheral}
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
        return [_merged_rationale((ga, gb), a, b, None)]
    out: dict[str, Rationale] = {}
    for m in mappings:
        union = _superpose(ga, gb, m)
        if union is None:
            continue
        pair = m.as_dict()
        b_to_new: dict[int, int] = {bi: ai for ai, bi in pair.items()}
        nxt = ga.n
        for bi in range(gb.n):
            if bi not in b_to_new:
                b_to_new[bi] = nxt
                nxt += 1
        r = _merged_rationale(union, a, b, b_to_new)
        out.setdefault(r.key, r)
    return [out[k] for k in sorted(out)]


def _merge_into(acc: Rationale, nxt: Rationale) -> list[Rationale]:
    """Merge a possibly multi-fragment accumulator with a single-fragment
    rationale: superpose on the first fragment with a non-empty MCS, else
    append as a new fragment."""
    if len(acc.fragments) == 1:
        return merge_pair(acc, nxt)
    results: dict[str, Rationale] = {}
    for fi, frag in enumerate(acc.fragments):
        part = Rationale(
            fragments=(frag,),
            scores={},
            peripheral=tuple(
                p - sum(f.n for f in acc.fragments[:fi])
                for p in acc.peripheral
                if sum(f.n for f in acc.fragments[:fi]) <= p < sum(f.n for f in acc.fragments[: fi + 1])
            ),
        )
        merged = merge_pair(part, nxt)
        for m in merged:
            if len(m.fragments) > 1 and fi < len(acc.fragments) - 1:
                continue  # only append as a trailing fragment once
            new_fragments = (
                acc.fragments[:fi] + m.fragments + acc.fragments[fi + 1 :]
            )
            offset_before = sum(f.n for f in acc.fragments[:fi])
            delta = sum(f.n for f in m.fragments) - frag.n
            peripheral = set()
            for p in acc.peripheral:
                if p < offset_before:
                    peripheral.add(p)
                elif p >= offset_before + frag.n:
                    peripheral.add(p + delta)
            peripheral.update(p + offset_before for p in m.peripheral)
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
    shortlist_size: int = 8,
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
