"""Circular (Morgan-style) bit fingerprints and Tanimoto similarity.

Hashing uses a fixed 64-bit mixing function so fingerprints are bit-exact
across platforms and runs. Every fingerprint has one geometry: environments
up to radius `RADIUS`, folded into `WIDTH` bits. `fingerprint_matrix` hashes
every atom of a batch of molecules at once; `morgan_fingerprint` and
`tanimoto` are its one-row views. `tanimoto_blocks` yields Tanimoto
similarities a block of rows at a time, so no reader holds the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chemgraph import ELEMENTS, MolGraph, _ORDER_CODE

RADIUS = 2
WIDTH = 2048
# rows of a similarity block: fewer hold less, more repack the other operand
# less often (README, "How molecules are scored", has the measurements)
BLOCK_ROWS = 128

_SEED = np.uint64(0x9E3779B97F4A7C15)
_OFFSET = np.uint64(0x165667B19E3779F9)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)

_ELEMENT_CODE = {el: i + 1 for i, el in enumerate(ELEMENTS)}


def _mix(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 array arithmetic wraps modulo 2**64
    x = x ^ (x >> _S30)
    x *= _MUL1
    x ^= x >> _S27
    x *= _MUL2
    x ^= x >> _S31
    return x


def _absorb(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One step of the running hash h <- mix(h ^ (v + offset))."""
    return _mix(h ^ (v + _OFFSET))


@dataclass(frozen=True)
class BitFingerprint:
    """The set bits of one molecule's fingerprint, each below WIDTH."""

    bits: frozenset[int]

    def row(self) -> np.ndarray:
        """The fingerprint as one 0/1 row of a fingerprint matrix."""
        out = np.zeros(WIDTH, dtype=bool)
        out[list(self.bits)] = True
        return out


def _environment_rounds(mols: list[MolGraph]) -> tuple[list[np.ndarray], np.ndarray]:
    """Environment hash of every atom of the batch for rounds 0..RADIUS, over
    the disjoint union of the molecules, and the molecule of each atom.

    Round 0 hashes (element, degree, charge + 16, aromatic). Round r hashes
    the atom's previous hash followed by its (bond order code, neighbour
    hash) pairs in ascending order, each value absorbed in turn."""
    element: list[int] = []
    charge: list[int] = []
    aromatic: list[bool] = []
    mol_of: list[int] = []
    u: list[int] = []
    v: list[int] = []
    code: list[int] = []
    offset = 0
    for k, g in enumerate(mols):
        element += [_ELEMENT_CODE[a.element] for a in g.atoms]
        charge += [a.charge for a in g.atoms]
        aromatic += [a.aromatic for a in g.atoms]
        mol_of += [k] * g.n
        u += [b.u + offset for b in g.bonds]
        v += [b.v + offset for b in g.bonds]
        code += [_ORDER_CODE[b.order] for b in g.bonds]
        offset += g.n
    n_atoms = offset
    # each bond as two directed edges, src -> dst
    src_a = np.array(u + v, dtype=np.intp)
    dst_a = np.array(v + u, dtype=np.intp)
    code_a = np.array(code + code, dtype=np.uint64)
    degree = np.bincount(src_a, minlength=n_atoms)
    # charge + 16 as int64 first, so that a negative value wraps modulo
    # 2**64 as in the Python integer hash
    labels = [
        np.array(element, dtype=np.uint64),
        degree.astype(np.uint64),
        (np.array(charge, dtype=np.int64) + 16).astype(np.uint64),
        np.array(aromatic, dtype=np.uint64),
    ]

    h = np.full(n_atoms, _SEED, dtype=np.uint64)
    for column in labels:
        h = _absorb(h, column)
    rounds = [h]
    # sorted by source atom first, the edges of atom a take positions
    # start[a] .. start[a] + degree[a] - 1; slot k holds the atoms with more
    # than k neighbours
    start = np.cumsum(degree) - degree
    slots = [np.flatnonzero(degree > k) for k in range(int(degree.max(initial=0)))]
    for _ in range(RADIUS):
        nxt = _absorb(np.full(n_atoms, _SEED, dtype=np.uint64), h)
        nb_hash = h[dst_a]
        # each atom's directed edges, sorted by (order code, neighbour hash)
        order = np.lexsort((nb_hash, code_a, src_a))
        for k, atoms in enumerate(slots):
            e = order[start[atoms] + k]
            nxt[atoms] = _absorb(_absorb(nxt[atoms], code_a[e]), nb_hash[e])
        h = nxt
        rounds.append(h)
    return rounds, np.array(mol_of, dtype=np.intp)


def fingerprint_matrix(mols: list[MolGraph]) -> np.ndarray:
    """(len(mols), WIDTH) boolean matrix: row k has a bit set for every atom
    environment hash of molecule k, up to RADIUS, folded modulo WIDTH."""
    rounds, mol_of = _environment_rounds(mols)
    out = np.zeros((len(mols), WIDTH), dtype=bool)
    mask = np.uint64(WIDTH - 1)
    for h in rounds:
        out[mol_of, (h & mask).astype(np.intp)] = True
    return out


def morgan_fingerprint(g: MolGraph) -> BitFingerprint:
    """Hash every atom environment up to RADIUS into a WIDTH-bit set."""
    row = fingerprint_matrix([g])[0]
    return BitFingerprint(frozenset(np.flatnonzero(row).tolist()))


def tanimoto_blocks(a: np.ndarray, b: np.ndarray):
    """The (n, m) Tanimoto similarities |a_i & b_j| / |a_i | b_j| between the
    rows of two 0/1 fingerprint matrices, as blocks of at most BLOCK_ROWS
    consecutive rows of a (at least one block); 1.0 where both rows are empty.

    The intersection counts are one float32 product of the 0/1 matrices over
    the columns set in either: every partial sum is an integer no larger than
    the width, well below 2**24, so the counts are exact in any order."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"fingerprint width mismatch: {a.shape[1]} vs {b.shape[1]}")
    cols = np.flatnonzero(a.any(axis=0) | b.any(axis=0))
    fb = b[:, cols].astype(np.float32)
    b_count = fb.sum(axis=1, dtype=np.float64)
    for start in range(0, max(len(a), 1), BLOCK_ROWS):
        fa = a[start : start + BLOCK_ROWS, cols].astype(np.float32)
        inter = (fa @ fb.T).astype(np.float64)
        union = fa.sum(axis=1, dtype=np.float64)[:, None] + b_count[None, :]
        union -= inter
        yield np.divide(inter, union, out=np.ones_like(inter), where=union > 0)


def tanimoto_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The whole (n, m) similarity matrix: tanimoto_blocks stacked."""
    return np.concatenate(list(tanimoto_blocks(a, b)))


def tanimoto(a: BitFingerprint, b: BitFingerprint) -> float:
    """|a & b| / |a | b|; 1.0 when both are empty."""
    return float(tanimoto_matrix(a.row()[None, :], b.row()[None, :])[0, 0])
