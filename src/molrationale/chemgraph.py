"""Molecular graph data model: SMILES parsing/writing, ring perception,
valence rules, peripheral deletions and subgraph matching.

Atoms carry (element, formal charge, aromatic flag) only; hydrogens are
implicit and never stored. All graphs are immutable after construction.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

ELEMENTS = ("C", "N", "O", "S", "P", "F", "Cl", "Br", "I")
AROMATIC_ELEMENTS = {"C", "N", "O", "S", "P"}
MAX_VALENCE = {"C": 4, "N": 3, "O": 2, "S": 6, "P": 5, "F": 1, "Cl": 1, "Br": 1, "I": 1}

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"
BOND_ORDERS = (SINGLE, DOUBLE, TRIPLE, AROMATIC)

_BOND_FROM_SYMBOL = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_SYMBOL_FROM_BOND = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}
_ORDER_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}
_INT_ORDER = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3}

MAX_RING_SIZE = 8
SUBGRAPH_ATOM_LIMIT = 60

PERIPHERAL_BOND = "peripheral-bond"
PERIPHERAL_RING = "peripheral-ring"


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
class Ring:
    """Ordered atom cycle from the smallest-set-of-smallest-rings."""

    atoms: tuple[int, ...]
    aromatic: bool


@dataclass(frozen=True)
class Deletion:
    """A legal peripheral removal: a terminal bond with its endpoint, or a whole ring."""

    kind: str
    atoms: tuple[int, ...]
    bonds: tuple[int, ...]


def _valence_total(int_sum: int, aromatic_count: int) -> int:
    # aromatic bonds contribute 1.5 each; the aromatic sum is floored
    return int_sum + (3 * aromatic_count) // 2


class MolGraph:
    """Labeled undirected molecular graph with dense atom indices."""

    __slots__ = ("atoms", "bonds", "__dict__")

    def __init__(self, atoms, bonds):
        self.atoms = tuple(atoms)
        self.bonds = tuple(bonds)
        self._validate()

    def _validate(self) -> None:
        n = len(self.atoms)
        for a in self.atoms:
            if a.element not in MAX_VALENCE:
                raise GraphError(f"unknown element {a.element!r}")
        seen_pairs = set()
        int_sum = [0] * n
        arom_count = [0] * n
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
            for end in (b.u, b.v):
                if b.order == AROMATIC:
                    arom_count[end] += 1
                else:
                    int_sum[end] += _INT_ORDER[b.order]
        for i, a in enumerate(self.atoms):
            total = _valence_total(int_sum[i], arom_count[i])
            if total > MAX_VALENCE[a.element]:
                raise ValenceError(
                    f"atom {i} ({a.element}) exceeds valence: {total} > {MAX_VALENCE[a.element]}"
                )

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
    if g.n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


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
    atoms = [g.atoms[i] for i in order]
    bonds = [
        Bond(remap[b.u], remap[b.v], b.order)
        for b in g.bonds
        if b.u in remap and b.v in remap
    ]
    return MolGraph(atoms, bonds)


def disjoint_union(parts: list[MolGraph] | tuple[MolGraph, ...]) -> MolGraph:
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


def to_debug_json(g: MolGraph) -> dict:
    """Atom-index-annotated plain dict for debugging dumps."""
    return {
        "atoms": [
            {"index": i, "element": a.element, "charge": a.charge, "aromatic": a.aromatic}
            for i, a in enumerate(g.atoms)
        ],
        "bonds": [
            {"index": i, "u": b.u, "v": b.v, "order": b.order}
            for i, b in enumerate(g.bonds)
        ],
    }


# ---------------------------------------------------------------------------
# Canonical form

def _initial_colors(g: MolGraph) -> list[tuple]:
    return [
        (a.element, a.charge, a.aromatic, g.degree(i)) for i, a in enumerate(g.atoms)
    ]


def _refine(g: MolGraph, colors: list[int]) -> list[int]:
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


def _encode(g: MolGraph, perm: list[int]) -> tuple:
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


def _canonical_perm(g: MolGraph) -> list[int]:
    """Canonical atom positions via iterative refinement with individualization
    backtracking; exact (isomorphic graphs get equal encodings)."""
    init = _initial_colors(g)
    ranking = {c: k for k, c in enumerate(sorted(set(init)))}
    base = _refine(g, [ranking[c] for c in init])

    best: list[tuple | None] = [None, None]

    def cells_of(colors: list[int]) -> dict[int, list[int]]:
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        return cells

    def rec(colors: list[int]) -> None:
        cells = cells_of(colors)
        split = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                split = c
                break
        if split is None:
            perm = [0] * g.n
            for i, c in enumerate(colors):
                perm[i] = c
            # colors are dense 0..n-1 when discrete
            enc = _encode(g, perm)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best[1] = perm
            return
        for atom in cells[split]:
            branched = [c * 2 + (1 if (i == atom and c == split) else 0) if c == split else c * 2 for i, c in enumerate(colors)]
            # re-rank to dense ints, individualized atom gets a unique color
            rank = {c: k for k, c in enumerate(sorted(set(branched)))}
            rec(_refine(g, [rank[c] for c in branched]))

    rec(base)
    return best[1]  # type: ignore[return-value]


@lru_cache(maxsize=200000)
def _canonical_parts(g: MolGraph) -> tuple:
    return _encode(g, _canonical_perm(g))


def canonical_key(g: MolGraph) -> str:
    """Canonical string key: equal exactly for isomorphic graphs."""
    atoms, edges = _canonical_parts(g)
    atom_str = ".".join(
        f"{el}{'~' if ar else ''}{'' if q == 0 else f'{q:+d}'}" for el, q, ar in atoms
    )
    edge_str = ",".join(f"{u}-{v}:{o}" for u, v, o in edges)
    return f"{len(atoms)}|{atom_str}|{edge_str}"


def canonical_ranks(g: MolGraph) -> list[int]:
    """Canonical position of each atom (ties fully broken)."""
    return _canonical_perm(g)


# ---------------------------------------------------------------------------
# Ring perception

def _bridges(g: MolGraph) -> set[int]:
    """Bond indices whose removal disconnects their endpoints."""
    low = [0] * g.n
    disc = [-1] * g.n
    out: set[int] = set()
    timer = [0]

    def dfs(u: int, parent_bond: int) -> None:
        disc[u] = low[u] = timer[0]
        timer[0] += 1
        for v in g.neighbors(u):
            bi = g._bond_index[(u, v)]
            if bi == parent_bond:
                continue
            if disc[v] == -1:
                dfs(v, bi)
                low[u] = min(low[u], low[v])
                if low[v] > disc[u]:
                    out.add(bi)
            else:
                low[u] = min(low[u], disc[v])

    for s in range(g.n):
        if disc[s] == -1:
            dfs(s, -1)
    return out


def sssr(g: MolGraph) -> list[Ring]:
    """Smallest set of smallest rings, capped at size MAX_RING_SIZE."""
    n_comp = len(connected_components(g)) if g.n else 0
    rank = len(g.bonds) - g.n + n_comp
    if rank <= 0:
        return []
    bridges = _bridges(g)
    candidates: list[tuple[int, tuple[int, ...], int]] = []  # (len, cycle, mask)
    seen_masks: set[int] = set()
    for bi, b in enumerate(g.bonds):
        if bi in bridges:
            continue
        cycle = _shortest_cycle_through(g, b)
        if cycle is None or len(cycle) > MAX_RING_SIZE:
            continue
        mask = 0
        ok = True
        for k in range(len(cycle)):
            e = g._bond_index.get((cycle[k], cycle[(k + 1) % len(cycle)]))
            if e is None:
                ok = False
                break
            mask |= 1 << e
        if ok and mask not in seen_masks:
            seen_masks.add(mask)
            candidates.append((len(cycle), cycle, mask))
    candidates.sort(key=lambda t: (t[0], t[1]))
    basis: list[int] = []
    rings: list[Ring] = []
    for _, cycle, mask in candidates:
        reduced = mask
        for bmask in basis:
            reduced = min(reduced, reduced ^ bmask)
        if reduced == 0:
            continue
        basis.append(reduced)
        basis.sort(reverse=True)
        aromatic = all(
            g.bond_between(cycle[k], cycle[(k + 1) % len(cycle)]).order == AROMATIC
            for k in range(len(cycle))
        )
        rings.append(Ring(cycle, aromatic))
        if len(rings) == rank:
            break
    return rings


def _shortest_cycle_through(g: MolGraph, b: Bond) -> tuple[int, ...] | None:
    # BFS from b.u to b.v avoiding bond b; path + b closes the smallest cycle
    from collections import deque

    prev = {b.u: None}
    q = deque([b.u])
    while q:
        x = q.popleft()
        if x == b.v:
            path = []
            cur: int | None = x
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return tuple(reversed(path))
        for y in g.neighbors(x):
            if (x, y) == (b.u, b.v) or (x, y) == (b.v, b.u):
                continue
            if y not in prev:
                prev[y] = x
                q.append(y)
    return None


# ---------------------------------------------------------------------------
# Peripheral deletions

def peripheral_deletions(g: MolGraph) -> list[Deletion]:
    """Enumerate the legal peripheral removals of a connected graph.

    A peripheral bond is a non-aromatic, non-ring bond with exactly one
    endpoint of degree 1; deleting it removes that endpoint too. A peripheral
    ring is an SSSR ring whose removal (all ring atoms plus every incident
    bond) leaves a non-empty connected graph.
    """
    if not is_connected(g):
        raise GraphError("peripheral_deletions requires a connected graph")
    out: list[Deletion] = []
    bridges = _bridges(g)
    for bi, b in enumerate(g.bonds):
        if b.order == AROMATIC or bi not in bridges:
            continue
        du, dv = g.degree(b.u), g.degree(b.v)
        if (du == 1) == (dv == 1):
            continue
        endpoint = b.u if du == 1 else b.v
        if g.n - 1 == 0:
            continue
        out.append(Deletion(PERIPHERAL_BOND, (endpoint,), (bi,)))
    for ring in sssr(g):
        ring_atoms = set(ring.atoms)
        if len(ring_atoms) >= g.n:
            continue
        keep = [i for i in range(g.n) if i not in ring_atoms]
        removed_bonds = tuple(
            sorted(
                bi
                for bi, b in enumerate(g.bonds)
                if b.u in ring_atoms or b.v in ring_atoms
            )
        )
        rest = induced_subgraph(g, keep)
        if rest.n > 0 and is_connected(rest):
            out.append(
                Deletion(PERIPHERAL_RING, tuple(sorted(ring_atoms)), removed_bonds)
            )
    return out


def apply_deletion(g: MolGraph, d: Deletion) -> MolGraph:
    graph, _ = apply_deletion_with_map(g, d)
    return graph


def apply_deletion_with_map(g: MolGraph, d: Deletion) -> tuple[MolGraph, dict[int, int]]:
    """Apply a deletion; also return the old-index -> new-index map of kept atoms."""
    if any(i >= g.n or i < 0 for i in d.atoms) or any(
        i >= len(g.bonds) or i < 0 for i in d.bonds
    ):
        raise GraphError("stale deletion: indices out of range")
    removed_atoms = set(d.atoms)
    removed_bonds = set(d.bonds)
    for bi, b in enumerate(g.bonds):
        incident = b.u in removed_atoms or b.v in removed_atoms
        if incident and bi not in removed_bonds:
            raise GraphError("stale deletion: bond incident to a removed atom not listed")
    keep = [i for i in range(g.n) if i not in removed_atoms]
    if not keep:
        raise GraphError("deletion would empty the graph")
    remap = {old: new for new, old in enumerate(keep)}
    atoms = [g.atoms[i] for i in keep]
    bonds = [
        Bond(remap[b.u], remap[b.v], b.order)
        for bi, b in enumerate(g.bonds)
        if bi not in removed_bonds
    ]
    return MolGraph(atoms, bonds), remap


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


def load_smiles_lines(path) -> list[MolGraph]:
    """Read one molecule per line; blank lines and # comments are skipped."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            out.append(parse_smiles(line.split()[0]))
    return out
