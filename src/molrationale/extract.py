"""Monte Carlo tree search over peripheral deletions: finds small high-scoring
subgraphs (rationales) of positive molecules.

Each search iteration walks from the root molecule through already-visited
states by the PUCT rule and stops at the first newly reached state (or a stuck
state with no legal deletions), whose predicted score is backed up along the
path. States are shared across deletion orders through their canonical keys.
Every visited state within the size bound whose score clears the threshold is
collected as a rationale.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from .chemgraph import (
    MolGraph,
    apply_deletion_with_map,
    canonical_key,
    connected_components,
    disjoint_union,
    embeddings,
    induced_subgraph,
    parse_smiles,
    peripheral_deletions,
    write_smiles_with_order,
)
from .forest import PropertySpec

log = logging.getLogger(__name__)

_VOCAB_VERSION = 1


class SearchError(RuntimeError):
    pass


@dataclass
class EdgeStats:
    """Per-(state, deletion) statistics: visit count N, total value W and the
    child subgraph's predicted score R. Q is W/N, or 0 before any visit."""

    r: float
    n: int = 0
    w: float = 0.0

    @property
    def q(self) -> float:
        return self.w / self.n if self.n > 0 else 0.0


@dataclass
class SearchNode:
    graph: MolGraph
    origin: tuple[int, ...]  # atom index in the source molecule, per state atom
    key: str
    score: float
    edges: list[EdgeStats] = field(default_factory=list)
    child_keys: list[str] = field(default_factory=list)
    visited: bool = False


@dataclass
class Rationale:
    """A subgraph with per-property scores and the peripheral atoms where the
    generator may grow new neighbors. A merged rationale may have several
    connected components: the parts that share no atom."""

    combined: MolGraph
    scores: dict[str, float]
    peripheral: tuple[int, ...]
    sources: tuple[tuple[str, tuple[int, ...]], ...] = ()

    @cached_property
    def key(self) -> str:
        return canonical_key(self.combined)

    @property
    def n_atoms(self) -> int:
        return self.combined.n


def _atom_indices(values, what: str, n: float = math.inf) -> tuple[int, ...]:
    """values, a JSON list of atom indices: integers (not bools) in [0, n)."""
    if not isinstance(values, list) or not all(type(v) is int and 0 <= v < n for v in values):
        raise ValueError(f"{what} {values!r} are not all integers in [0, {n})")
    return tuple(values)


class RationaleVocab:
    """Rationales deduplicated by canonical key, tagged with property names."""

    def __init__(self, properties: tuple[str, ...]):
        self.properties = tuple(properties)
        self.entries: list[Rationale] = []
        self._by_key: dict[str, int] = {}

    def add(self, r: Rationale) -> None:
        pos = self._by_key.get(r.key)
        if pos is None:
            self._by_key[r.key] = len(self.entries)
            self.entries.append(r)
        else:
            kept = self.entries[pos]
            merged_sources = kept.sources + tuple(
                s for s in r.sources if s not in kept.sources
            )
            self.entries[pos] = replace(kept, sources=merged_sources)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_json(self) -> str:
        items = []
        for r in self.entries:
            frag_smiles = []
            # the graph index of each atom in written order, one connected
            # component after another
            order: list[int] = []
            for comp in connected_components(r.combined):
                smiles, comp_order = write_smiles_with_order(induced_subgraph(r.combined, comp))
                frag_smiles.append(smiles)
                order += [comp[i] for i in comp_order]
            written = {old: new for new, old in enumerate(order)}
            items.append(
                {
                    "fragments": frag_smiles,
                    "scores": {k: r.scores[k] for k in sorted(r.scores)},
                    "peripheral": sorted(written[p] for p in r.peripheral),
                    "sources": [
                        {"molecule": key, "atoms": [atoms[i] for i in order]}
                        for key, atoms in r.sources
                    ],
                }
            )
        doc = {
            "version": _VOCAB_VERSION,
            "properties": list(self.properties),
            "rationales": items,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RationaleVocab":
        doc = json.loads(text)
        if doc.get("version") != _VOCAB_VERSION:
            raise ValueError(f"unsupported vocabulary version {doc.get('version')}")
        vocab = cls(tuple(doc["properties"]))
        for item in doc["rationales"]:
            combined = disjoint_union([parse_smiles(s) for s in item["fragments"]])
            sources = tuple(
                (s["molecule"], _atom_indices(s["atoms"], "source atoms"))
                for s in item.get("sources", [])
            )
            if any(len(atoms) != combined.n for _key, atoms in sources):
                raise ValueError("a source does not list one atom per rationale atom")
            if any(len(set(atoms)) != len(atoms) for _key, atoms in sources):
                raise ValueError("a source lists an atom twice")
            vocab.add(
                Rationale(
                    combined=combined,
                    scores=dict(item["scores"]),
                    peripheral=_atom_indices(item["peripheral"], "peripheral atoms", combined.n),
                    sources=sources,
                )
            )
        return vocab

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "RationaleVocab":
        with open(path) as fh:
            return cls.from_json(fh.read())


def faithfulness(
    vocab: RationaleVocab, positives: list[MolGraph], motif: MolGraph, prop_name: str
) -> dict:
    """How well a property's rationales recover its planted motif. A positive's
    best rationale is its smallest, then highest-scoring, source: every stored
    rationale clears the threshold, so the smallest is the sharpest
    explanation. A source counts only if its atoms induce the rationale in the
    molecule at hand, since the corpus may hold the molecule again in another
    atom order. exact_match_rate is the share of positives whose best
    rationale is the motif; coverage is the mean share of the motif's atoms
    that the best rationale covers under the motif's best embedding (0 for a
    positive without a rationale). A source with an atom past the end of the
    molecule its key names raises ValueError."""
    by_source: dict[str, list[tuple[Rationale, tuple[int, ...]]]] = {}
    for entry in vocab.entries:
        for mol_key, atoms in entry.sources:
            by_source.setdefault(mol_key, []).append((entry, atoms))
    motif_key = canonical_key(motif)
    exact = 0
    coverage = 0.0
    for g in positives:
        matched = by_source.get(canonical_key(g), [])
        for _entry, atoms in matched:
            _atom_indices(list(atoms), "source atoms", g.n)
        cands = sorted(
            matched,
            key=lambda c: (c[0].n_atoms, -c[0].scores.get(prop_name, 0.0), c[0].key),
        )
        best = next(
            (c for c in cands if canonical_key(induced_subgraph(g, c[1])) == c[0].key), None
        )
        if best is None:
            continue
        entry, atoms = best
        exact += entry.key == motif_key
        coverage += max(
            (len(set(emb.values()) & set(atoms)) / motif.n for emb in embeddings(g, motif)),
            default=0.0,
        )
    n = len(positives)
    return {
        "evaluated": n,
        "exact_match_rate": exact / n if n else 0.0,
        "coverage": coverage / n if n else 0.0,
    }


def select_action_index(node: SearchNode, c_puct: float) -> int:
    """Argmax of Q + U with U = c_puct * R * sqrt(sum_b N) / (1 + N); ties go
    to the higher R, then the lowest child index."""
    if not node.edges:
        raise SearchError("no action to select on a state with no legal deletions")
    total = sum(e.n for e in node.edges)
    sqrt_total = math.sqrt(total)
    best = None
    for i, e in enumerate(node.edges):
        u = c_puct * e.r * sqrt_total / (1 + e.n)
        cand = (e.q + u, e.r, -i)
        if best is None or cand > best[0]:
            best = (cand, i)
    return best[1]


def backup(path: list[tuple[SearchNode, int]], leaf_reward: float) -> None:
    """Increment N and add the leaf reward to W on every edge of the path."""
    for node, edge_idx in path:
        e = node.edges[edge_idx]
        e.n += 1
        e.w += leaf_reward


class _Search:
    """Search state for one molecule: transposition-shared nodes by key."""

    def __init__(self, root: MolGraph, prop: PropertySpec, score_cache: dict):
        self.prop = prop
        self.nodes: dict[str, SearchNode] = {}
        self.score_cache = score_cache
        key = canonical_key(root)
        self._score_new([(key, root)])
        self.root = self._node(root, tuple(range(root.n)), key)

    def _score_new(self, keyed: list[tuple[str, MolGraph]]) -> None:
        """Score, as one batch, the states whose keys have no cached score."""
        new: dict[str, MolGraph] = {}
        for key, g in keyed:
            if key not in self.score_cache:
                new.setdefault(key, g)
        if new:
            self.score_cache.update(zip(new, self.prop.scores(list(new.values())).tolist()))

    def _node(self, g: MolGraph, origin: tuple[int, ...], key: str) -> SearchNode:
        node = self.nodes.get(key)
        if node is None:
            node = SearchNode(graph=g, origin=origin, key=key, score=self.score_cache[key])
            self.nodes[key] = node
        return node

    def expand(self, node: SearchNode) -> None:
        """Score and link the node's children; done once, on its first visit."""
        children = []
        for d in peripheral_deletions(node.graph):
            child_graph, remap = apply_deletion_with_map(node.graph, d)
            # remap lists the kept atoms in their new order
            child_origin = tuple(node.origin[old] for old in remap)
            children.append((canonical_key(child_graph), child_graph, child_origin))
        self._score_new([(key, g) for key, g, _ in children])
        for key, child_graph, child_origin in children:
            child = self._node(child_graph, child_origin, key)
            node.child_keys.append(child.key)
            node.edges.append(EdgeStats(r=child.score))


def peripheral_atoms(sub: MolGraph, source: MolGraph, origin) -> tuple[int, ...]:
    """Atoms of a subgraph that the decoder may grow from: those with fewer
    neighbours than their source atom origin[i], and those with exactly one."""
    return tuple(
        i for i in range(sub.n) if sub.degree(i) < source.degree(origin[i]) or sub.degree(i) == 1
    )


def _make_rationale(
    node: SearchNode, source: MolGraph, source_key: str, prop_name: str
) -> Rationale:
    return Rationale(
        node.graph,
        scores={prop_name: node.score},
        peripheral=peripheral_atoms(node.graph, source, node.origin),
        sources=((source_key, node.origin),),
    )


def extract_rationales(
    g: MolGraph,
    prop: PropertySpec,
    iterations: int,
    c_puct: float,
    max_atoms: int,
    score_cache: dict,
) -> list[Rationale]:
    """Run the deletion search on one molecule and return all distinct visited
    states within the size bound whose score clears the property threshold.
    score_cache maps canonical keys to the property's scores; the search
    reads and extends it, so the molecules of one vocabulary share it."""
    search = _Search(g, prop, score_cache)
    root = search.root
    root.visited = True
    search.expand(root)
    source_key = root.key

    collected: dict[str, SearchNode] = {}

    def maybe_collect(node: SearchNode) -> None:
        if node.graph.n <= max_atoms and node.score >= prop.threshold:
            collected.setdefault(node.key, node)

    maybe_collect(root)
    for _ in range(iterations):
        node = root
        path: list[tuple[SearchNode, int]] = []
        while True:
            if not node.edges:
                break  # stuck: no legal deletions
            idx = select_action_index(node, c_puct)
            path.append((node, idx))
            node = search.nodes[node.child_keys[idx]]
            if not node.visited:
                node.visited = True
                search.expand(node)
                break
        maybe_collect(node)
        backup(path, node.score)

    return [
        _make_rationale(n, g, source_key, prop.name) for n in collected.values()
    ]


def build_vocab(
    positives: list[MolGraph],
    prop: PropertySpec,
    iterations: int,
    c_puct: float,
    max_atoms: int,
) -> RationaleVocab:
    """Union of per-molecule rationales over predicted-positive inputs,
    deduplicated by canonical key (sources are merged)."""
    if not positives:
        raise SearchError("build_vocab requires a non-empty positive set")
    vocab = RationaleVocab((prop.name,))
    score_cache: dict[str, float] = {}
    skipped = 0
    for g, score in zip(positives, prop.scores(positives).tolist()):
        if score < prop.threshold:
            skipped += 1
            continue
        for r in extract_rationales(
            g, prop, iterations=iterations, c_puct=c_puct,
            max_atoms=max_atoms, score_cache=score_cache,
        ):
            vocab.add(r)
    if skipped:
        log.warning(
            "build_vocab(%s): skipped %d of %d inputs not predicted positive",
            prop.name, skipped, len(positives),
        )
    return vocab
