"""Molecular graph data model: SMILES parsing/writing, ring perception,
valence rules, peripheral deletions and subgraph matching.

Atoms carry (element, formal charge, aromatic flag) only; hydrogens are
implicit and never stored. All graphs are immutable after construction.

`canonical_key` and `canonical_ranks` read one process-wide memo, keyed by a
graph's content (its atoms, and its bonds as one flat tuple of ints). An
entry holds the ranks and the key string, not the graph, so a search's
graphs are freed when the search drops them. The memo is emptied when it
reaches 200,000 entries.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

ELEMENTS = ("C", "N", "O", "S", "P", "F", "Cl", "Br", "I")
AROMATIC_ELEMENTS = {"C", "N", "O", "S", "P"}
MAX_VALENCE = {"C": 4, "N": 3, "O": 2, "S": 6, "P": 5, "F": 1, "Cl": 1, "Br": 1, "I": 1}

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

_BOND_FROM_SYMBOL = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_SYMBOL_FROM_BOND = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}
_ORDER_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}
# The valence rule: a bond adds its order to each end in half units, 3 for
# an aromatic bond's 1.5, and an atom's valence is its half-unit sum floored.
HALF_UNITS = {SINGLE: 2, DOUBLE: 4, TRIPLE: 6, AROMATIC: 3}

MAX_RING_SIZE = 8
SUBGRAPH_ATOM_LIMIT = 60


class ChemError(Exception):
    """Base class for molecular graph errors."""


class ParseError(ChemError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ValenceError(ChemError):
    pass


class GraphError(ChemError):
    pass


class ResourceLimitError(ChemError):
    pass


@dataclass(frozen=True)
class Atom:
    element: str
    charge: int = 0
    aromatic: bool = False


@dataclass(frozen=True)
class Bond:
    u: int
    v: int
    order: str


@dataclass(frozen=True)
class Deletion:
    """A legal peripheral removal: a terminal bond with its endpoint (one
    atom), or a whole ring (at least three)."""

    atoms: tuple[int, ...]
    bonds: tuple[int, ...]


def free_valence(element: str, half_units: int) -> int:
    """Valence an atom of the element has left when its bonds sum to
    half_units; negative when they exceed its maximum."""
    return MAX_VALENCE[element] - half_units // 2


class MolGraph:
    """Labeled undirected molecular graph with dense atom indices."""

    __slots__ = ("atoms", "bonds", "__dict__")

    def __init__(self, atoms, bonds):
        self.atoms = tuple(atoms)
        self.bonds = tuple(bonds)
        self._validate()

    @classmethod
    def _derived(cls, atoms, bonds) -> MolGraph:
        """A graph built from a valid one by dropping atoms and their bonds, or
        by reindexing distinct atoms: valid by construction, so not checked."""
        g = cls.__new__(cls)
        g.atoms = tuple(atoms)
        g.bonds = tuple(bonds)
        return g

    def _validate(self) -> None:
        n = len(self.atoms)
        for a in self.atoms:
            if a.element not in MAX_VALENCE:
                raise GraphError(f"unknown element {a.element!r}")
        seen_pairs = set()
        half_units = [0] * n
        for b in self.bonds:
            if not (0 <= b.u < n and 0 <= b.v < n):
                raise GraphError(f"bond ({b.u},{b.v}) references missing atom")
            if b.u == b.v:
                raise GraphError(f"self-loop on atom {b.u}")
            pair = (min(b.u, b.v), max(b.u, b.v))
            if pair in seen_pairs:
                raise GraphError(f"duplicate bond between atoms {pair}")
            seen_pairs.add(pair)
            if b.order not in _ORDER_CODE:
                raise GraphError(f"unknown bond order {b.order!r}")
            half_units[b.u] += HALF_UNITS[b.order]
            half_units[b.v] += HALF_UNITS[b.order]
        for i, a in enumerate(self.atoms):
            if free_valence(a.element, half_units[i]) < 0:
                raise ValenceError(f"atom {i} ({a.element}) exceeds valence: "
                                   f"{half_units[i] // 2} > {MAX_VALENCE[a.element]}")

    @property
    def n(self) -> int:
        return len(self.atoms)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.atoms]
        for b in self.bonds:
            adj[b.u].append(b.v)
            adj[b.v].append(b.u)
        return tuple(tuple(sorted(x)) for x in adj)

    @cached_property
    def _bond_index(self) -> dict[tuple[int, int], int]:
        idx = {}
        for i, b in enumerate(self.bonds):
            idx[(b.u, b.v)] = i
            idx[(b.v, b.u)] = i
        return idx

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def bond_between(self, i: int, j: int) -> Bond | None:
        k = self._bond_index.get((i, j))
        return self.bonds[k] if k is not None else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MolGraph)
            and self.atoms == other.atoms
            and self.bonds == other.bonds
        )

    def __hash__(self) -> int:
        return hash((self.atoms, self.bonds))

    def __repr__(self) -> str:
        return f"MolGraph({len(self.atoms)} atoms, {len(self.bonds)} bonds)"


def is_connected(g: MolGraph) -> bool:
    return len(connected_components(g)) == 1


def connected_components(g: MolGraph) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        comps.append(tuple(sorted(comp)))
    return comps


def induced_subgraph(g: MolGraph, atom_ids: list[int] | tuple[int, ...]) -> MolGraph:
    """Subgraph on the given atoms with all bonds among them, reindexed densely."""
    order = list(atom_ids)
    remap = {old: new for new, old in enumerate(order)}
    if len(remap) != len(order) or not all(0 <= i < g.n for i in order):
        raise GraphError(f"induced subgraph atoms {order} are not distinct atoms of the graph")
    atoms = [g.atoms[i] for i in order]
    bonds = [
        Bond(remap[b.u], remap[b.v], b.order)
        for b in g.bonds
        if b.u in remap and b.v in remap
    ]
    return MolGraph._derived(atoms, bonds)


def disjoint_union(parts: list[MolGraph] | tuple[MolGraph, ...]) -> MolGraph:
    """The parts side by side, each part's atoms after the previous part's;
    a single part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    for part in parts:
        off = len(atoms)
        atoms.extend(part.atoms)
        bonds.extend(Bond(b.u + off, b.v + off, b.order) for b in part.bonds)
    return MolGraph(atoms, bonds)


# ---------------------------------------------------------------------------
# SMILES parsing

_TWO_CHAR = ("Cl", "Br")
_AROMATIC_TOKENS = {"c": "C", "n": "N", "o": "O", "s": "S", "p": "P"}


def parse_smiles(text: str) -> MolGraph:
    """Parse a SMILES string in the supported subset.

    Supported: elements C,N,O,S,P,F,Cl,Br,I; lowercase aromatic atoms;
    branches; ring-closure digits (and %nn); bond symbols - = # :;
    bracket atoms with charge (an H count inside brackets is accepted and
    discarded since hydrogens are implicit). Stereo markers, isotopes and
    dot-separated fragments are rejected, never silently dropped.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty SMILES string")

    atoms: list[Atom] = []
    atom_pos: list[int] = []
    bonds: dict[tuple[int, int], str] = {}
    prev_stack: list[int | None] = []
    prev: int | None = None
    pending: str | None = None
    pending_pos = 0
    ring_open: dict[int, tuple[int, str | None, int]] = {}

    def add_bond(a: int, b: int, order: str | None, pos: int) -> None:
        if a == b:
            raise ParseError("ring closure bonds an atom to itself", pos)
        if order is None:
            order = (
                AROMATIC
                if atoms[a].aromatic and atoms[b].aromatic
                else SINGLE
            )
        pair = (min(a, b), max(a, b))
        if pair in bonds:
            raise ParseError(f"duplicate bond between atoms {a} and {b}", pos)
        bonds[pair] = order

    def attach(idx: int, pos: int) -> None:
        nonlocal prev, pending
        if prev is not None:
            add_bond(prev, idx, pending, pos)
        elif pending is not None:
            raise ParseError("bond symbol with no preceding atom", pending_pos)
        prev = idx
        pending = None

    i = 0
    while i < len(s):
        ch = s[i]
        if ch in _BOND_FROM_SYMBOL:
            if pending is not None:
                raise ParseError("two consecutive bond symbols", i)
            pending = _BOND_FROM_SYMBOL[ch]
            pending_pos = i
            i += 1
        elif ch == "(":
            if prev is None:
                raise ParseError("branch opened before any atom", i)
            prev_stack.append(prev)
            i += 1
        elif ch == ")":
            if not prev_stack:
                raise ParseError("unbalanced parenthesis", i)
            prev = prev_stack.pop()
            i += 1
        elif ch.isdigit() or ch == "%":
            if ch == "%":
                if i + 2 >= len(s) or not s[i + 1 : i + 3].isdigit():
                    raise ParseError("malformed %nn ring closure", i)
                num = int(s[i + 1 : i + 3])
                width = 3
            else:
                num = int(ch)
                width = 1
            if prev is None:
                raise ParseError("ring closure before any atom", i)
            if num in ring_open:
                other, other_order, other_pos = ring_open.pop(num)
                order = pending if pending is not None else other_order
                if (
                    pending is not None
                    and other_order is not None
                    and pending != other_order
                ):
                    raise ParseError(
                        f"conflicting bond symbols on ring closure {num}", i
                    )
                add_bond(other, prev, order, i)
            else:
                ring_open[num] = (prev, pending, i)
            pending = None
            i += width
        elif ch == "[":
            end = s.find("]", i)
            if end == -1:
                raise ParseError("unterminated bracket atom", i)
            atom = _parse_bracket(s[i + 1 : end], i)
            atoms.append(atom)
            atom_pos.append(i)
            attach(len(atoms) - 1, i)
            i = end + 1
        elif ch == ".":
            raise ParseError("dot-separated fragments are not supported", i)
        elif ch in "@/\\":
            raise ParseError("stereochemistry markers are not supported", i)
        else:
            two = s[i : i + 2]
            if two in _TWO_CHAR:
                atoms.append(Atom(two))
                atom_pos.append(i)
                attach(len(atoms) - 1, i)
                i += 2
            elif ch in _AROMATIC_TOKENS:
                atoms.append(Atom(_AROMATIC_TOKENS[ch], aromatic=True))
                atom_pos.append(i)
                attach(len(atoms) - 1, i)
                i += 1
            elif ch.isupper() and ch in MAX_VALENCE:
                atoms.append(Atom(ch))
                atom_pos.append(i)
                attach(len(atoms) - 1, i)
                i += 1
            else:
                raise ParseError(f"unknown element or token {ch!r}", i)

    if prev_stack:
        raise ParseError("unbalanced parenthesis: branch never closed", len(s))
    if ring_open:
        num, (_, _, pos) = sorted(ring_open.items())[0]
        raise ParseError(f"unclosed ring closure {num}", pos)
    if pending is not None:
        raise ParseError("trailing bond symbol", pending_pos)
    if not atoms:
        raise ParseError("no atoms in SMILES string")

    bond_list = [Bond(u, v, order) for (u, v), order in bonds.items()]
    try:
        return MolGraph(atoms, bond_list)
    except ValenceError as exc:
        # surface the offending atom's text position
        idx = int(str(exc).split()[1])
        raise ParseError(f"valence violation: {exc}", atom_pos[idx]) from exc


def _parse_bracket(body: str, pos: int) -> Atom:
    if not body:
        raise ParseError("empty bracket atom", pos)
    j = 0
    if body[0].isdigit():
        raise ParseError("isotope labels are not supported", pos)
    aromatic = False
    if body[:2] in _TWO_CHAR:
        element = body[:2]
        j = 2
    elif body[0] in _AROMATIC_TOKENS:
        element = _AROMATIC_TOKENS[body[0]]
        aromatic = True
        j = 1
    elif body[0].isupper() and body[0] in MAX_VALENCE:
        element = body[0]
        j = 1
    else:
        raise ParseError(f"unknown element in bracket atom {body!r}", pos)
    if j < len(body) and body[j] == "@":
        raise ParseError("stereochemistry markers are not supported", pos)
    # implicit-H count inside brackets is redundant in this model; accept and drop
    if j < len(body) and body[j] == "H":
        j += 1
        while j < len(body) and body[j].isdigit():
            j += 1
    charge = 0
    if j < len(body) and body[j] in "+-":
        sign = 1 if body[j] == "+" else -1
        run = 0
        while j < len(body) and body[j] in "+-":
            if (body[j] == "+") != (sign > 0):
                raise ParseError(f"mixed charge signs in {body!r}", pos)
            run += 1
            j += 1
        if j < len(body) and body[j].isdigit():
            if run != 1:
                raise ParseError(f"malformed charge in {body!r}", pos)
            mag = 0
            while j < len(body) and body[j].isdigit():
                mag = mag * 10 + int(body[j])
                j += 1
            charge = sign * mag
        else:
            charge = sign * run
    if j != len(body):
        raise ParseError(f"unsupported bracket atom content {body!r}", pos)
    if aromatic and element not in AROMATIC_ELEMENTS:
        raise ParseError(f"{element} cannot be aromatic", pos)
    return Atom(element, charge=charge, aromatic=aromatic)


# ---------------------------------------------------------------------------
# SMILES writing

def write_smiles(g: MolGraph, rng: random.Random | None = None) -> str:
    """Render a connected MolGraph as SMILES; re-parsing yields an isomorphic graph.

    A seeded ``rng`` shuffles the traversal to produce alternative renderings
    of the same molecule.
    """
    smiles, _ = write_smiles_with_order(g, rng)
    return smiles


def write_smiles_with_order(
    g: MolGraph, rng: random.Random | None = None
) -> tuple[str, list[int]]:
    """Like write_smiles but also returns the atom visit order (original indices
    in output order), which is the atom order of the re-parsed graph."""
    if g.n == 0:
        raise GraphError("cannot write empty graph")
    if not is_connected(g):
        raise GraphError("write_smiles requires a connected graph")

    start = rng.randrange(g.n) if rng is not None else 0
    order: list[int] = []
    ring_bonds: dict[tuple[int, int], int] = {}
    free_digits = list(range(1, 100))
    pieces: list[str] = []

    def bond_text(a: int, b: int) -> str:
        default = (
            AROMATIC if g.atoms[a].aromatic and g.atoms[b].aromatic else SINGLE
        )
        order_ = g.bond_between(a, b).order
        return "" if order_ == default else _SYMBOL_FROM_BOND[order_]

    def atom_token(i: int) -> str:
        a = g.atoms[i]
        sym = a.element.lower() if a.aromatic else a.element
        if a.charge == 0:
            return sym
        if abs(a.charge) == 1:
            q = "+" if a.charge > 0 else "-"
        else:
            q = ("+" if a.charge > 0 else "-") + str(abs(a.charge))
        return f"[{sym}{q}]"

    def _closure_token(digit: int) -> str:
        return str(digit) if digit < 10 else f"%{digit:02d}"

    # two-phase rendering: pre-walk the DFS tree to find back edges (ring
    # closures), then render with closure digits on both endpoints
    tree_children: dict[int, list[int]] = {i: [] for i in range(g.n)}
    back_edges: list[tuple[int, int]] = []  # (descendant, ancestor)
    seen = [False] * g.n
    onstack = [False] * g.n

    def prewalk(i: int, parent: int | None) -> None:
        seen[i] = True
        onstack[i] = True
        nbrs = [v for v in g.neighbors(i) if v != parent]
        if rng is not None:
            nbrs = list(nbrs)
            rng.shuffle(nbrs)
        for v in nbrs:
            if not seen[v]:
                tree_children[i].append(v)
                prewalk(v, i)
            elif onstack[v]:
                back_edges.append((i, v))
        onstack[i] = False

    prewalk(start, None)
    for u, v in back_edges:
        digit = free_digits.pop(0)
        ring_bonds[(u, v)] = digit

    opens_at: dict[int, list[tuple[int, int]]] = {i: [] for i in range(g.n)}
    closes_at: dict[int, list[tuple[int, int]]] = {i: [] for i in range(g.n)}
    for (u, v), digit in ring_bonds.items():
        opens_at[v].append((digit, u))  # ancestor opens
        closes_at[u].append((digit, v))  # descendant closes

    def render(i: int) -> None:
        order.append(i)
        pieces.append(atom_token(i))
        for digit, partner in sorted(opens_at[i]):
            pieces.append(bond_text(i, partner) + _closure_token(digit))
        for digit, partner in sorted(closes_at[i]):
            pieces.append(_closure_token(digit))
        children = tree_children[i]
        for k, v in enumerate(children):
            last = k == len(children) - 1
            if not last:
                pieces.append("(")
            pieces.append(bond_text(i, v))
            render(v)
            if not last:
                pieces.append(")")

    render(start)
    return "".join(pieces), order


# ---------------------------------------------------------------------------
# Canonical form

def _refine(nbrs: list[list[tuple[int, int]]], colors: list[int]) -> list[int]:
    """Colour refinement to a stable partition; nbrs[i] lists atom i's
    (order code * n, neighbour) pairs, so each signature entry code * n +
    colour sorts as the pair (code, colour) would, every colour being a rank
    below n."""
    while True:
        sigs = [
            (c, tuple(sorted([cn + colors[j] for cn, j in nb]))) for c, nb in zip(colors, nbrs)
        ]
        ranking = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        # a discrete partition is stable, and another pass would return it
        if new == colors or len(ranking) == len(new):
            return new
        colors = new


def _canonical_form(g: MolGraph) -> tuple[list[int], tuple]:
    """Canonical atom positions via iterative refinement with individualization
    backtracking, and the least encoding (atom labels and sorted coded bonds
    in canonical positions) they give; exact (isomorphic graphs get equal
    encodings)."""
    n = g.n
    labels = [(a.element, a.charge, a.aromatic) for a in g.atoms]
    coded = [(b.u, b.v, _ORDER_CODE[b.order]) for b in g.bonds]
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, code in coded:
        nbrs[u].append((code * n, v))
        nbrs[v].append((code * n, u))
    init = [(*label, len(nb)) for label, nb in zip(labels, nbrs)]
    ranking = {c: k for k, c in enumerate(sorted(set(init)))}
    best: list = [None, None]

    def rec(colors: list[int]) -> None:
        # colours are dense ranks; the first cell of several atoms is split
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        split = next((c for c in sorted(cells) if len(cells[c]) > 1), None)
        if split is None:
            atoms = [None] * n
            for i, p in enumerate(colors):
                atoms[p] = labels[i]
            edges = sorted((min(colors[u], colors[v]), max(colors[u], colors[v]), code)
                           for u, v, code in coded)
            enc = (tuple(atoms), tuple(edges))
            if best[0] is None or enc < best[0]:
                best[:] = enc, colors
            return
        for atom in cells[split]:
            # the individualized atom ranks just above the rest of its cell
            branched = [c + (c > split) for c in colors]
            branched[atom] = split + 1
            rec(_refine(nbrs, branched))

    rec(_refine(nbrs, [ranking[c] for c in init]))
    return best[1], best[0]


# The canonical-form memo (see the module docstring): content -> (ranks, key).
_MEMO_BOUND = 200000
_memo: dict[tuple, tuple[tuple[int, ...], str]] = {}


def _canonical_parts(g: MolGraph) -> tuple[tuple[int, ...], str]:
    """The canonical positions of g's atoms and its canonical key, computed
    once per distinct graph; the positions are a tuple, so no caller can
    change the memo."""
    flat: list[int] = []
    for b in g.bonds:
        flat += (b.u, b.v, _ORDER_CODE[b.order])
    content = (g.atoms, tuple(flat))
    parts = _memo.get(content)
    if parts is None:
        perm, (atoms, edges) = _canonical_form(g)
        atom_str = ".".join(
            f"{el}{'~' if ar else ''}{'' if q == 0 else f'{q:+d}'}" for el, q, ar in atoms
        )
        edge_str = ",".join(f"{u}-{v}:{o}" for u, v, o in edges)
        if len(_memo) >= _MEMO_BOUND:
            _memo.clear()
        parts = _memo[content] = (tuple(perm), f"{len(atoms)}|{atom_str}|{edge_str}")
    return parts


def canonical_key(g: MolGraph) -> str:
    """Canonical string key: equal exactly for isomorphic graphs."""
    return _canonical_parts(g)[1]


def canonical_ranks(g: MolGraph) -> tuple[int, ...]:
    """Canonical position of each atom (ties fully broken)."""
    return _canonical_parts(g)[0]


# ---------------------------------------------------------------------------
# Ring perception

def _bridges(g: MolGraph) -> tuple[set[int], int]:
    """Bond indices whose removal disconnects their endpoints, and the number
    of connected components (the depth-first search's roots)."""
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for bi, b in enumerate(g.bonds):
        incident[b.u].append((b.v, bi))
        incident[b.v].append((b.u, bi))
    low = [0] * g.n
    disc = [-1] * g.n
    out: set[int] = set()
    timer = 0

    def dfs(u: int, parent_bond: int) -> None:
        nonlocal timer
        disc[u] = low[u] = timer
        timer += 1
        for v, bi in incident[u]:
            if bi == parent_bond:
                continue
            if disc[v] == -1:
                dfs(v, bi)
                low[u] = min(low[u], low[v])
                if low[v] > disc[u]:
                    out.add(bi)
            else:
                low[u] = min(low[u], disc[v])

    n_comp = 0
    for s in range(g.n):
        if disc[s] == -1:
            n_comp += 1
            dfs(s, -1)
    return out, n_comp


def sssr(g: MolGraph, bridges: tuple[set[int], int]) -> list[tuple[int, ...]]:
    """Smallest set of smallest rings, capped at size MAX_RING_SIZE, each an
    ordered atom cycle; `bridges` is `_bridges(g)`."""
    bridge_set, n_comp = bridges
    rank = len(g.bonds) - g.n + n_comp
    if rank <= 0:
        return []
    # no cycle holds a bridge, so the cycle searches walk the other bonds only
    ring_adj = [
        [y for y in g.neighbors(x) if g._bond_index[(x, y)] not in bridge_set] for x in range(g.n)
    ]
    candidates: list[tuple[int, tuple[int, ...], int]] = []  # (len, cycle, mask)
    seen_masks: set[int] = set()
    for bi, b in enumerate(g.bonds):
        if bi in bridge_set:
            continue
        # a bond that is not a bridge closes a cycle of existing bonds
        cycle = _shortest_cycle_through(ring_adj, b)
        if len(cycle) > MAX_RING_SIZE:
            continue
        mask = 0
        for k in range(len(cycle)):
            mask |= 1 << g._bond_index[(cycle[k], cycle[(k + 1) % len(cycle)])]
        if mask not in seen_masks:
            seen_masks.add(mask)
            candidates.append((len(cycle), cycle, mask))
    candidates.sort(key=lambda t: (t[0], t[1]))
    basis: list[int] = []
    rings: list[tuple[int, ...]] = []
    for _, cycle, mask in candidates:
        reduced = mask
        for bmask in basis:
            reduced = min(reduced, reduced ^ bmask)
        if reduced == 0:
            continue
        basis.append(reduced)
        basis.sort(reverse=True)
        rings.append(cycle)
        if len(rings) == rank:
            break
    return rings


def _shortest_cycle_through(adj: list[list[int]], b: Bond) -> tuple[int, ...]:
    # BFS from b.u to b.v over adj avoiding bond b, which is no bridge, so
    # the search reaches b.v; path + b closes the smallest cycle
    prev = {b.u: None}
    queue = [b.u]
    for x in queue:
        if x == b.v:
            path = []
            cur: int | None = x
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return tuple(reversed(path))
        for y in adj[x]:
            if y not in prev and (x, y) != (b.u, b.v):
                prev[y] = x
                queue.append(y)


# ---------------------------------------------------------------------------
# Peripheral deletions

def peripheral_deletions(g: MolGraph) -> list[Deletion]:
    """Enumerate the legal peripheral removals of a connected graph.

    A peripheral bond is a non-aromatic, non-ring bond with exactly one
    endpoint of degree 1; deleting it removes that endpoint too. A peripheral
    ring is an SSSR ring whose removal (all ring atoms plus every incident
    bond) leaves a non-empty connected graph.
    """
    bridges = _bridges(g)
    bridge_set, n_comp = bridges
    if n_comp != 1:
        raise GraphError("peripheral_deletions requires a connected graph")
    out: list[Deletion] = []
    for bi, b in enumerate(g.bonds):
        if b.order == AROMATIC or bi not in bridge_set:
            continue
        du, dv = g.degree(b.u), g.degree(b.v)
        if (du == 1) == (dv == 1):
            continue
        endpoint = b.u if du == 1 else b.v
        out.append(Deletion((endpoint,), (bi,)))
    for ring in sssr(g, bridges):
        ring_atoms = set(ring)
        if len(ring_atoms) >= g.n:
            continue
        # the rest is connected when a search that never enters the ring
        # reaches every other atom
        start = next(i for i in range(g.n) if i not in ring_atoms)
        seen = ring_atoms | {start}
        stack = [start]
        while stack:
            for v in g.neighbors(stack.pop()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == g.n:
            removed_bonds = tuple(
                bi for bi, b in enumerate(g.bonds) if b.u in ring_atoms or b.v in ring_atoms
            )
            out.append(Deletion(tuple(sorted(ring_atoms)), removed_bonds))
    return out


def apply_deletion_with_map(g: MolGraph, d: Deletion) -> tuple[MolGraph, dict[int, int]]:
    """Apply a deletion; also return the old-index -> new-index map of kept atoms."""
    if any(i >= g.n or i < 0 for i in d.atoms) or any(
        i >= len(g.bonds) or i < 0 for i in d.bonds
    ):
        raise GraphError("stale deletion: indices out of range")
    removed_atoms = set(d.atoms)
    removed_bonds = set(d.bonds)
    keep = [i for i in range(g.n) if i not in removed_atoms]
    remap = {old: new for new, old in enumerate(keep)}
    bonds = []
    for bi, b in enumerate(g.bonds):
        if bi in removed_bonds:
            continue
        if b.u in removed_atoms or b.v in removed_atoms:
            raise GraphError("stale deletion: bond incident to a removed atom not listed")
        bonds.append(Bond(remap[b.u], remap[b.v], b.order))
    if not keep:
        raise GraphError("deletion would empty the graph")
    return MolGraph._derived([g.atoms[i] for i in keep], bonds), remap


# ---------------------------------------------------------------------------
# Subgraph matching

def embeddings(g: MolGraph, s: MolGraph, *, induced: bool = False) -> Iterator[dict[int, int]]:
    """Yield every injective atom map s -> g that preserves atom labels and
    s's bonds with their orders, each once and in a fixed order. g may have
    extra bonds between mapped atoms unless `induced` is set.

    Backtracking in the VF2 style (Cordella et al., 2004): s's components
    are matched in turn, each in breadth-first order, so every atom after a
    component's first is looked up among the g-neighbors of a mapped
    neighbor; candidates of smaller degree are pruned.
    """
    if g.n > SUBGRAPH_ATOM_LIMIT or s.n > SUBGRAPH_ATOM_LIMIT:
        raise ResourceLimitError(
            f"subgraph search limited to {SUBGRAPH_ATOM_LIMIT} atoms"
        )
    if s.n > g.n or s.n == 0:
        return
    order: list[int] = []
    for comp in connected_components(s):
        queue = [comp[0]]
        seen = {comp[0]}
        for u in queue:
            for v in s.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        order += queue
    position = {si: k for k, si in enumerate(order)}
    # the already-matched neighbors of each atom, with the orders of its bonds to them
    back = [
        [(w, s.bond_between(w, si).order) for w in s.neighbors(si) if position[w] < k]
        for k, si in enumerate(order)
    ]
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int):
        if k == len(order):
            yield dict(mapping)
            return
        si = order[k]
        atom, degree = s.atoms[si], s.degree(si)
        cands = g.neighbors(mapping[back[k][0][0]]) if back[k] else range(g.n)
        for v in cands:
            if v in used or g.atoms[v] != atom or g.degree(v) < degree:
                continue
            if any(
                (gb := g.bond_between(mapping[w], v)) is None or gb.order != bond_order
                for w, bond_order in back[k]
            ):
                continue
            if induced and sum(x in used for x in g.neighbors(v)) != len(back[k]):
                continue
            mapping[si] = v
            used.add(v)
            yield from extend(k + 1)
            del mapping[si]
            used.discard(v)

    yield from extend(0)


def contains_subgraph(g: MolGraph, s: MolGraph) -> dict[int, int] | None:
    """The first of `embeddings(g, s)`, or None when s does not embed in g."""
    return next(embeddings(g, s), None)
