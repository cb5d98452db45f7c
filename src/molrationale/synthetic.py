"""Random valence-valid molecule generation with optional planted motifs.

Corpora are labeled by actual subgraph containment of each property's motif,
so labels stay honest even when a motif appears by chance.
"""

from __future__ import annotations

import logging
import random
from collections import deque
from dataclasses import dataclass, replace

from .chemgraph import (
    AROMATIC,
    DOUBLE,
    HALF_UNITS,
    MAX_VALENCE,
    SINGLE,
    Atom,
    Bond,
    MolGraph,
    canonical_key,
    contains_subgraph,
    free_valence,
    induced_subgraph,
)

log = logging.getLogger(__name__)

_ELEMENT_WEIGHTS = (("C", 0.60), ("N", 0.14), ("O", 0.14), ("S", 0.05), ("F", 0.07))


class _Builder:
    def __init__(self):
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.half_units: list[int] = []

    def add_atom(self, a: Atom) -> int:
        self.atoms.append(a)
        self.half_units.append(0)
        return len(self.atoms) - 1

    def add_bond(self, u: int, v: int, order: str) -> None:
        self.bonds.append(Bond(u, v, order))
        self.half_units[u] += HALF_UNITS[order]
        self.half_units[v] += HALF_UNITS[order]

    def capacity(self, i: int) -> int:
        return free_valence(self.atoms[i].element, self.half_units[i])

    def copy_in(self, g: MolGraph) -> list[int]:
        ids = [self.add_atom(a) for a in g.atoms]
        for b in g.bonds:
            self.add_bond(ids[b.u], ids[b.v], b.order)
        return ids

    def graph(self) -> MolGraph:
        return MolGraph(self.atoms, self.bonds)

    def distance(self, a: int, b: int) -> int:
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.atoms))}
        for bond in self.bonds:
            adj[bond.u].append(bond.v)
            adj[bond.v].append(bond.u)
        dist = {a: 0}
        q = deque([a])
        while q:
            x = q.popleft()
            if x == b:
                return dist[x]
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        return -1


def _pick_element(rng: random.Random) -> str:
    r = rng.random()
    acc = 0.0
    for el, w in _ELEMENT_WEIGHTS:
        acc += w
        if r < acc:
            return el
    return "C"


def _attach_aromatic_ring(b: _Builder, rng: random.Random, anchor: int) -> None:
    """Graft a six-membered aromatic ring (0-2 ring nitrogens) onto the anchor."""
    n_nitro = rng.choice((0, 1, 1, 2))
    positions = rng.sample(range(6), n_nitro)
    ids = []
    for i in range(6):
        el = "N" if i in positions else "C"
        ids.append(b.add_atom(Atom(el, aromatic=True)))
    for i in range(6):
        b.add_bond(ids[i], ids[(i + 1) % 6], AROMATIC)
    carbons = [i for i in ids if b.atoms[i].element == "C"]
    b.add_bond(anchor, rng.choice(carbons), SINGLE)


def random_molecule(
    rng: random.Random,
    n_atoms: int,
    ring_prob: float,
    motif: MolGraph | None = None,
) -> MolGraph:
    """Grow a connected molecule to roughly n_atoms by valence-respecting
    random attachment. When a motif is given the molecule starts as a copy of
    it and all growth hangs off a single stub atom, keeping the motif's other
    environments intact.
    """
    b = _Builder()
    grow_from: list[int] = []
    if motif is not None:
        ids = b.copy_in(motif)
        # all growth hangs off one randomly chosen open atom per molecule, so
        # no single perturbed motif environment is consistent across positives
        stubs = [i for i in ids if b.capacity(i) >= 1]
        if not stubs:
            return b.graph()
        grow_from = [stubs[rng.randrange(len(stubs))]]
    else:
        grow_from = [b.add_atom(Atom(_pick_element(rng)))]

    junk: list[int] = [] if motif is not None else list(grow_from)
    while len(b.atoms) < n_atoms:
        open_atoms = [i for i in (junk or grow_from) if b.capacity(i) >= 1]
        if not open_atoms:
            open_atoms = [i for i in grow_from if b.capacity(i) >= 1]
            if not open_atoms:
                break
        anchor = open_atoms[rng.randrange(len(open_atoms))]
        budget = n_atoms - len(b.atoms)
        if budget >= 6 and rng.random() < ring_prob * 0.5:
            before = len(b.atoms)
            _attach_aromatic_ring(b, rng, anchor)
            junk.extend(range(before, len(b.atoms)))
            continue
        el = _pick_element(rng)
        new = b.add_atom(Atom(el))
        order = SINGLE
        if (
            rng.random() < 0.12
            and b.capacity(anchor) >= 2
            and MAX_VALENCE[el] >= 2
        ):
            order = DOUBLE
        b.add_bond(anchor, new, order)
        junk.append(new)

    # occasional aliphatic ring closure among the grown atoms
    if junk and rng.random() < ring_prob:
        candidates = []
        for i in junk:
            for j in junk:
                if i < j and b.capacity(i) >= 1 and b.capacity(j) >= 1:
                    if not any(
                        (x.u == i and x.v == j) or (x.u == j and x.v == i)
                        for x in b.bonds
                    ):
                        d = b.distance(i, j)
                        if 2 <= d <= 6:
                            candidates.append((i, j))
        if candidates:
            i, j = candidates[rng.randrange(len(candidates))]
            b.add_bond(i, j, SINGLE)
    return b.graph()


@dataclass
class CorpusSpec:
    size: int
    atoms_min: int
    atoms_max: int
    ring_prob: float
    decoy_prob: float
    unique: bool


def _random_proper_subgraph(g: MolGraph, rng: random.Random) -> MolGraph:
    """Connected subgraph of g missing 1-3 atoms (a near-miss decoy)."""
    drop = rng.randint(1, min(3, g.n - 2))
    size = g.n - drop
    start = rng.randrange(g.n)
    chosen = {start}
    while len(chosen) < size:
        frontier = sorted(
            {w for v in chosen for w in g.neighbors(v) if w not in chosen}
        )
        if not frontier:
            break
        chosen.add(frontier[rng.randrange(len(frontier))])
    return induced_subgraph(g, sorted(chosen))


def generate_corpus(
    spec: CorpusSpec,
    motifs: dict[str, MolGraph],
    plant_probs: dict[str, float],
    seed: int,
    extra_plants: list[tuple[MolGraph, float]] | None = None,
) -> tuple[list[MolGraph], dict[str, list[int]]]:
    """Generate the corpus and per-property containment labels.

    At most one pattern is planted per molecule, chosen among the property
    motifs and any extra (unlabeled) patterns such as multi-property
    combinations. A slice of the remaining molecules gets a near-miss decoy
    (a proper subgraph of a motif) so partial patterns are not predictive on
    their own. Labels always come from subgraph containment.
    """
    rng = random.Random(seed)
    names = sorted(motifs)
    lottery: list[tuple[MolGraph, float]] = [
        (motifs[name], plant_probs.get(name, 0.0)) for name in names
    ]
    lottery.extend(extra_plants or [])
    mols: list[MolGraph] = []
    seen_keys: set[str] = set()
    attempts = 0
    max_attempts = 30 * spec.size
    while len(mols) < spec.size:
        attempts += 1
        if attempts > max_attempts:
            log.warning("corpus: uniqueness attempts exhausted, allowing duplicates")
            spec = replace(spec, unique=False)
        planted: MolGraph | None = None
        r = rng.random()
        acc = 0.0
        for pattern, prob in lottery:
            acc += prob
            if r < acc:
                planted = pattern
                break
        if planted is None and rng.random() < spec.decoy_prob:
            planted = _random_proper_subgraph(motifs[rng.choice(names)], rng)
        n_atoms = rng.randint(spec.atoms_min, spec.atoms_max)
        g = random_molecule(rng, n_atoms, spec.ring_prob, motif=planted)
        if spec.unique:
            key = canonical_key(g)
            if key in seen_keys:
                continue
            seen_keys.add(key)
        mols.append(g)
    labels = {
        name: [
            1 if contains_subgraph(g, motifs[name]) is not None else 0 for g in mols
        ]
        for name in names
    }
    for name in names:
        pos = sum(labels[name])
        log.info("corpus: property %s has %d/%d positives", name, pos, len(mols))
    return mols, labels
