"""Graph-state specialization: GF(2) linear algebra on the coupling graph.

When every interaction phase is 0 or pi (mod 2*pi) the evolved state is a
graph state, and the entanglement entropy of a block equals the GF(2) rank
of the block-to-environment slice of the adjacency matrix -- an integer
count of independent edge patterns, computed here without touching any
amplitudes.  Rows are bit-packed into 64-bit words; the rank reduces each
row as one Python integer, so an m x (N - m) slice costs O(m^2) XORs of
N-bit integers.

:func:`block_adjacency` asks the same reader as the environment sweep,
:func:`~wgstate.geometry.coupled_sites` and
:func:`~wgstate.geometry.pair_phases`.  For a law of distance alone that
reads every phase from one table over the lattice's displacements, and only
inside the block's bounding box dilated by every displacement whose phase
is not 0.0: O(N + m * |box|) table lookups in place of O(m * N) distance
and law evaluations.  Other profiles (a
:class:`~wgstate.geometry.Disordered` law, an
:class:`~wgstate.geometry.EdgeProfile`) take one ``phase_row`` per block
site, O(m * N).  The block goes through the input contract of
:mod:`wgstate.rdm` first, with the lattice as its size limit.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import TWO_PI, coupled_sites, pair_phases
from .rdm import _check_subset, _resolve_environment

# Byte budget for the transients of one group of rows in block_adjacency.
_CHUNK_BYTES = 1 << 19

# A phase this close to 0, pi or 2*pi counts as that value.
_TOL = 1e-9


class NotAGraphStateError(ValueError):
    """Some interaction phase is neither 0 nor pi within tolerance."""


# ---------------------------------------------------------------------------
# Bit-packed binary matrices
# ---------------------------------------------------------------------------

class BinaryMatrix:
    """Matrix over GF(2), rows packed little-endian into uint64 words.

    Column c lives in word c >> 6 at bit c & 63.
    """

    def __init__(self, words: np.ndarray, n_cols: int):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError("words must be a 2-d array")
        if words.shape[1] != (n_cols + 63) // 64:
            raise ValueError(
                f"{n_cols} columns need {(n_cols + 63) // 64} words per row, "
                f"got {words.shape[1]}")
        self.words = words
        self.n_rows = words.shape[0]
        self.n_cols = int(n_cols)

    @classmethod
    def from_dense(cls, dense) -> "BinaryMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("dense matrix must be 2-d")
        n_cols = dense.shape[1]
        return cls(_pack_rows(dense != 0, (n_cols + 63) // 64), n_cols)

    def to_dense(self) -> np.ndarray:
        flat = np.unpackbits(self.words.view(np.uint8).reshape(self.n_rows, -1),
                             axis=1, bitorder="little")
        return flat[:, :self.n_cols]

    def row_any(self) -> np.ndarray:
        """Boolean mask of rows holding at least one set bit."""
        return self.words.any(axis=1)


def _pack_rows(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Boolean rows packed little-endian into ``n_words`` uint64 words each."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((bits.shape[0], n_words * 8), dtype=np.uint8)
    padded[:, :packed.shape[1]] = packed
    return padded.view("<u8")


def gf2_rank(matrix) -> int:
    """Rank over GF(2) by row reduction against stored pivots.

    Each nonzero row becomes one Python integer, column c at bit c.  It is
    XORed with the pivot that shares its lowest set bit until it has none
    (the row was dependent) or its lowest bit is new (a pivot); each XOR
    moves that bit strictly up, so a row needs at most n_cols of them.
    """
    if not isinstance(matrix, BinaryMatrix):
        matrix = BinaryMatrix.from_dense(matrix)
    pivots: dict[int, int] = {}
    for words in matrix.words[matrix.row_any()]:
        row = int.from_bytes(words.tobytes(), "little")
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


# ---------------------------------------------------------------------------
# Adjacency extraction from interaction phases
# ---------------------------------------------------------------------------

def _classify(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(edge, bad) masks of an array of phases in [0, 2*pi).

    A phase within ``_TOL`` of pi is an edge, one within ``_TOL`` of 0 or
    2*pi is no edge, and anything else is not a graph-state phase.
    """
    edge = np.abs(phi - math.pi) <= _TOL
    bad = ~(edge | (phi <= _TOL) | (phi >= TWO_PI - _TOL))
    return edge, bad


def block_adjacency(profile, block) -> BinaryMatrix:
    """Block-to-environment edge matrix, one packed row per block site.

    Columns run over the environment sites in ascending order.  Only the
    block rows are inspected, so the cost never involves the full graph.
    Phases come from :func:`~wgstate.geometry.pair_phases`, and only for
    the environment sites :func:`~wgstate.geometry.coupled_sites` names: for
    a distance law other than ``Disordered`` those inside the block's near
    box, O(N + |block| * |box|) table lookups; for any other profile every
    environment site, one ``phase_row`` per block site, O(|block| * N).

    A pair whose phase is neither 0 nor pi within 1e-9 raises
    :class:`NotAGraphStateError` naming the first such pair: the first
    block site in the given order, then the lowest environment site.
    """
    block = _check_subset(profile, block, a_max=profile.n_sites)
    env = _resolve_environment(profile, block)
    n_cols = max(env.size, 1)
    words = np.zeros((block.size, (n_cols + 63) // 64), dtype=np.uint64)
    cols = coupled_sites(profile, block, env)
    if cols.size == 0:
        return BinaryMatrix(words, n_cols)
    # the candidates' columns span a run of whole words, packed in one go
    sites = env[cols]
    first = cols[0] >> 6
    n_words = (cols[-1] >> 6) - first + 1
    cols = cols - first * 64
    step = max(1, _CHUNK_BYTES // (26 * sites.size + 80 * n_words))
    for lo in range(0, block.size, step):
        ks = block[lo:lo + step]
        phi = pair_phases(profile, ks, sites)
        edge, bad = _classify(phi)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise NotAGraphStateError(
                f"phase {phi[i, j]!r} between sites {int(ks[i])} and "
                f"{int(sites[j])} is neither 0 nor pi (tolerance {_TOL})")
        bits = np.zeros((ks.size, n_words * 64), dtype=bool)
        bits[:, cols] = edge
        words[lo:lo + step, first:first + n_words] = _pack_rows(bits, n_words)
    return BinaryMatrix(words, n_cols)


def connected_vertex_count(gamma: BinaryMatrix) -> int:
    """Number of block sites with at least one edge into the environment.

    Takes the block-vs-rest slice from :func:`block_adjacency`.  Always an upper bound on the GF(2) rank;
    the gap counts linear dependencies among the rows' edge patterns.
    """
    return int(gamma.row_any().sum())


def analytic_block_entropy(dimension: int, side: int, reach: float) -> int:
    """Closed-form block entropy for a cutoff coupling on a hypercubic box.

    For a box of linear size ``side`` in a ``dimension``-dimensional
    lattice with edges up to distance ``reach``, and at least ``reach``
    margin between the box and any open boundary, the rank of the edge
    matrix counts the sites within ``reach`` of the box surface:

        side**dimension - (side - min(2*reach, side))**dimension

    For dimension 1 this reduces to min(2*reach, side).  The margin is the
    caller's obligation; without it (or off the cutoff law entirely) the
    formula does not apply -- rank the actual edge matrix instead.
    """
    side = int(side)
    dimension = int(dimension)
    if side < 1 or dimension < 1:
        raise ValueError("side and dimension must be positive")
    if reach < 0:
        raise ValueError("reach must be non-negative")
    core = side - min(int(2 * reach), side)
    return side ** dimension - core ** dimension


# ---------------------------------------------------------------------------
# Edge-list files
# ---------------------------------------------------------------------------

def read_edge_list(path) -> list[tuple[int, int]]:
    """One 'k l' pair per line; text after a '#' is a comment."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'site site', got {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    return edges
