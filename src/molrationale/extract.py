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
from dataclasses import dataclass, field
from functools import cached_property

from .chemgraph import (
    Deletion,
    MolGraph,
    apply_deletion_with_map,
    canonical_key,
    disjoint_union,
    parse_smiles,
    peripheral_deletions,
    write_smiles_with_order,
)
from .forest import PropertySpec

log = logging.getLogger(__name__)

DEFAULT_ITERATIONS = 20
DEFAULT_C_PUCT = 10.0
DEFAULT_MAX_ATOMS = 20

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
    deletions: list[Deletion] = field(default_factory=list)
    edges: list[EdgeStats] = field(default_factory=list)
    child_keys: list[str] = field(default_factory=list)
    visited: bool = False


@dataclass
class Rationale:
    """One or more subgraph fragments with per-property scores and the
    peripheral atoms where the generator may grow new neighbors."""

    fragments: tuple[MolGraph, ...]
    scores: dict[str, float]
    peripheral: tuple[int, ...]
    sources: tuple[tuple[str, tuple[int, ...]], ...] = ()

    @cached_property
    def combined(self) -> MolGraph:
        if len(self.fragments) == 1:
            return self.fragments[0]
        return disjoint_union(self.fragments)

    @cached_property
    def key(self) -> str:
        return canonical_key(self.combined)

    @property
    def n_atoms(self) -> int:
        return self.combined.n

    @property
    def source(self) -> str:
        return self.sources[0][0] if self.sources else ""


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
            self.entries[pos] = Rationale(
                fragments=kept.fragments,
                scores=kept.scores,
                peripheral=kept.peripheral,
                sources=merged_sources,
            )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_json(self) -> str:
        items = []
        for r in self.entries:
            frag_smiles = []
            peripheral = list(r.peripheral)
            sources = [
                {"molecule": key, "atoms": list(atoms)} for key, atoms in r.sources
            ]
            offset = 0
            new_peripheral = []
            new_sources = [dict(s, atoms=list(s["atoms"])) for s in sources]
            for frag in r.fragments:
                smiles, order = write_smiles_with_order(frag)
                frag_smiles.append(smiles)
                # remap fragment-local indices to the written atom order
                pos_of = {old: new for new, old in enumerate(order)}
                for p in peripheral:
                    if offset <= p < offset + frag.n:
                        new_peripheral.append(offset + pos_of[p - offset])
                for s_old, s_new in zip(sources, new_sources):
                    if len(s_old["atoms"]) == sum(f.n for f in r.fragments):
                        frag_atoms = s_old["atoms"][offset : offset + frag.n]
                        for new, old in enumerate(order):
                            s_new["atoms"][offset + new] = frag_atoms[old]
                offset += frag.n
            items.append(
                {
                    "fragments": frag_smiles,
                    "scores": {k: r.scores[k] for k in sorted(r.scores)},
                    "peripheral": sorted(new_peripheral),
                    "source": new_sources[0]["molecule"] if new_sources else "",
                    "sources": new_sources,
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
            fragments = []
            for smiles in item["fragments"]:
                for piece in smiles.split("."):
                    fragments.append(parse_smiles(piece))
            sources = tuple(
                (s["molecule"], tuple(s["atoms"])) for s in item.get("sources", [])
            )
            vocab.add(
                Rationale(
                    fragments=tuple(fragments),
                    scores=dict(item["scores"]),
                    peripheral=tuple(item["peripheral"]),
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

    def __init__(self, root: MolGraph, prop: PropertySpec, score_cache: dict | None):
        self.prop = prop
        self.nodes: dict[str, SearchNode] = {}
        self.score_cache = score_cache if score_cache is not None else {}
        self.root = self._node(root, tuple(range(root.n)))

    def _score(self, key: str, g: MolGraph) -> float:
        s = self.score_cache.get(key)
        if s is None:
            s = self.prop.score(g)
            self.score_cache[key] = s
        return s

    def _node(self, g: MolGraph, origin: tuple[int, ...]) -> SearchNode:
        key = canonical_key(g)
        node = self.nodes.get(key)
        if node is None:
            node = SearchNode(graph=g, origin=origin, key=key, score=self._score(key, g))
            self.nodes[key] = node
        return node

    def expand(self, node: SearchNode) -> None:
        if node.deletions or node.edges:
            return
        node.deletions = peripheral_deletions(node.graph)
        for d in node.deletions:
            child_graph, remap = apply_deletion_with_map(node.graph, d)
            child_origin = tuple(
                node.origin[old] for old in sorted(remap, key=remap.get)
            )
            child = self._node(child_graph, child_origin)
            node.child_keys.append(child.key)
            node.edges.append(EdgeStats(r=child.score))


def _make_rationale(
    node: SearchNode, source: MolGraph, source_key: str, prop_name: str
) -> Rationale:
    g = node.graph
    peripheral = tuple(
        i
        for i in range(g.n)
        if g.degree(i) < source.degree(node.origin[i]) or g.degree(i) == 1
    )
    return Rationale(
        fragments=(g,),
        scores={prop_name: node.score},
        peripheral=peripheral,
        sources=((source_key, node.origin),),
    )


def extract_rationales(
    g: MolGraph,
    prop: PropertySpec,
    iterations: int = DEFAULT_ITERATIONS,
    c_puct: float = DEFAULT_C_PUCT,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    score_cache: dict | None = None,
    _search_out: list | None = None,
) -> list[Rationale]:
    """Run the deletion search on one molecule and return all distinct visited
    states within the size bound whose score clears the property threshold."""
    search = _Search(g, prop, score_cache)
    if _search_out is not None:
        _search_out.append(search)
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
    iterations: int = DEFAULT_ITERATIONS,
    c_puct: float = DEFAULT_C_PUCT,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> RationaleVocab:
    """Union of per-molecule rationales over predicted-positive inputs,
    deduplicated by canonical key (sources are merged)."""
    if not positives:
        raise SearchError("build_vocab requires a non-empty positive set")
    vocab = RationaleVocab((prop.name,))
    score_cache: dict[str, float] = {}
    skipped = 0
    for g in positives:
        if prop.score(g) < prop.threshold:
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
