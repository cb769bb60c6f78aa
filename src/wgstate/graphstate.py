"""Graph-state specialization: GF(2) linear algebra on the coupling graph.

When every interaction phase is 0 or pi (mod 2*pi) the evolved state is a
graph state, and the entanglement entropy of a block equals the GF(2) rank
of the block-to-environment slice of the adjacency matrix -- an integer
count of independent edge patterns, computed here without touching any
amplitudes.  Rows are bit-packed into 64-bit words so the rank of an
m x (N - m) slice costs O(m^2 * N / 64) word operations.

For a law of distance alone, :func:`block_adjacency` reads every phase from
one table over the lattice's displacements and looks at each block site's
environment only inside the block's bounding box dilated by the coupling's
support radius: O(N + m * |box|) table lookups in place of O(m * N)
distance and law evaluations.  Other profiles (a
:class:`~wgstate.geometry.Disordered` law, an
:class:`~wgstate.geometry.EdgeProfile`) take one ``phase_row`` per block
site, O(m * N).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import TWO_PI, displacement_phases

# Byte budget for the transients of one group of rows in block_adjacency.
_CHUNK_BYTES = 1 << 19


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
    def zeros(cls, n_rows: int, n_cols: int) -> "BinaryMatrix":
        return cls(np.zeros((n_rows, (n_cols + 63) // 64), dtype=np.uint64), n_cols)

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

    def get(self, row: int, col: int) -> int:
        return int((self.words[row, col >> 6] >> np.uint64(col & 63)) & np.uint64(1))

    def set(self, row: int, col: int, value: int = 1) -> None:
        bit = np.uint64(1) << np.uint64(col & 63)
        if value:
            self.words[row, col >> 6] |= bit
        else:
            self.words[row, col >> 6] &= ~bit

    def row_any(self) -> np.ndarray:
        """Boolean mask of rows holding at least one set bit."""
        return self.words.any(axis=1)


def _pack_rows(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Boolean rows packed little-endian into ``n_words`` uint64 words each."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((bits.shape[0], n_words * 8), dtype=np.uint8)
    padded[:, :packed.shape[1]] = packed
    return padded.view("<u8")


def _leading_bit(row: np.ndarray) -> int:
    """Index of the lowest set bit, or -1 for an all-zero row."""
    nz = np.nonzero(row)[0]
    if nz.size == 0:
        return -1
    word = int(row[nz[0]])
    return int(nz[0]) * 64 + ((word & -word).bit_length() - 1)


def gf2_rank(matrix) -> int:
    """Rank over GF(2) by row reduction against stored pivots.

    Each reduction XORs a full packed row, and a row's leading bit moves
    strictly right with every XOR, so the sweep terminates after at most
    n_cols reductions per row.
    """
    if not isinstance(matrix, BinaryMatrix):
        matrix = BinaryMatrix.from_dense(matrix)
    pivots: dict[int, np.ndarray] = {}
    for i in range(matrix.n_rows):
        row = matrix.words[i].copy()
        while True:
            lead = _leading_bit(row)
            if lead < 0:
                break
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                break
    return len(pivots)


# ---------------------------------------------------------------------------
# Adjacency extraction from interaction phases
# ---------------------------------------------------------------------------

def _classify(phi: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(edge, bad) masks of an array of phases in [0, 2*pi).

    A phase within ``tol`` of pi is an edge, one within ``tol`` of 0 or
    2*pi is no edge, and anything else is not a graph-state phase.
    """
    edge = np.abs(phi - math.pi) <= tol
    bad = ~(edge | (phi <= tol) | (phi >= TWO_PI - tol))
    return edge, bad


def _raise_first_bad(bad: np.ndarray, phi: np.ndarray, rows, cols, tol: float):
    """Raise for the first True of ``bad`` in row-major order.

    ``bad[i, j]`` and ``phi[i, j]`` belong to the pair of sites
    ``rows[i]``, ``cols[j]``.
    """
    i, j = np.unravel_index(np.argmax(bad), bad.shape)
    raise NotAGraphStateError(
        f"phase {phi[i, j]!r} between sites {int(rows[i])} and {int(cols[j])} "
        f"is neither 0 nor pi (tolerance {tol})")


def _rows_per_chunk(row_bytes: int) -> int:
    return max(1, _CHUNK_BYTES // max(row_bytes, 1))


def adjacency_from_profile(profile, tol: float = 1e-9) -> BinaryMatrix:
    """Full N x N adjacency matrix of the interaction graph.

    Every pair's phase must be 0 or pi within ``tol``.  Quadratic in N;
    use :func:`block_adjacency` when only one block's edges matter.
    """
    n = profile.n_sites
    edges = np.zeros((n, n), dtype=bool)
    for k in range(n):
        others = np.delete(np.arange(n), k)
        phi = profile.phase_row(k, others)[None]
        edge, bad = _classify(phi, tol)
        if bad.any():
            _raise_first_bad(bad, phi, [k], others, tol)
        edges[k, others] = edge[0]
    return BinaryMatrix(_pack_rows(edges, (n + 63) // 64), n)


def block_adjacency(profile, block, tol: float = 1e-9) -> BinaryMatrix:
    """Block-to-environment edge matrix, one packed row per block site.

    Columns run over the environment sites in ascending order.  Only the
    block rows are inspected, so the cost never involves the full graph:

    - A profile with a :func:`~wgstate.geometry.displacement_phases` table
      (a distance law other than ``Disordered``) reads all its phases
      from that table, built with one ``phase_row`` call.  Each block site
      is paired only with the environment inside the block's bounding box
      dilated, along each axis, by the largest displacement along it whose
      phase is not 0, so the cost is O(N + |block| * |box|) lookups.
    - Any other profile takes one ``phase_row`` per block site, O(|block| * N).

    Either way, a pair whose phase is neither 0 nor pi within ``tol``
    raises :class:`NotAGraphStateError` naming the first such pair: the
    first block site in the given order, then the lowest environment site.
    """
    n = profile.n_sites
    block = np.asarray(block, dtype=np.intp).ravel()
    if block.size == 0 or len(set(block.tolist())) != block.size:
        raise ValueError("block must be a non-empty list of distinct sites")
    if block.min() < 0 or block.max() >= n:
        raise ValueError(f"site index out of range 0..{n - 1}")
    mask = np.ones(n, dtype=bool)
    mask[block] = False
    env = np.flatnonzero(mask)
    n_cols = max(env.size, 1)
    words = np.zeros((block.size, (n_cols + 63) // 64), dtype=np.uint64)
    if env.size == 0:
        return BinaryMatrix(words, n_cols)
    table = displacement_phases(profile)
    if table is not None:
        _gather_rows(table, profile.lattice, block, mask, tol, words)
        return BinaryMatrix(words, n_cols)
    step = _rows_per_chunk(16 * env.size)
    for lo in range(0, block.size, step):
        ks = block[lo:lo + step]
        phi = np.stack([profile.phase_row(int(k), env) for k in ks])
        edge, bad = _classify(phi, tol)
        if bad.any():
            _raise_first_bad(bad, phi, ks, env, tol)
        words[lo:lo + step] = _pack_rows(edge, words.shape[1])
    return BinaryMatrix(words, n_cols)


def _gather_rows(table, lattice, block, mask, tol, words) -> None:
    """Fill ``words`` (one row per block site) from the displacement table.

    Outside the block's bounding box dilated by the support radius every
    block-environment pair has a phase that is exactly no edge, so only
    the environment sites inside that box are looked up.  Their columns
    span a run of whole words, which each group of rows packs in one go.
    """
    edge, bad = _classify(table, tol)
    kind = np.where(bad, 2, edge).astype(np.int8).ravel()
    live = edge | bad
    if not live.any():
        return
    dim = lattice.dimension
    coords = lattice.coords(block)
    ranges = []
    for axis, extent in enumerate(lattice.extents):
        # the largest |d| along this axis with a phase that is not 0; on a
        # periodic axis the table is indexed by |d| before the minimum
        # image, so the same bound holds there
        others = tuple(a for a in range(dim) if a != axis)
        reach = int(np.flatnonzero(live.any(axis=others))[-1])
        lo = max(coords[:, axis].min() - reach, 0)
        hi = min(coords[:, axis].max() + reach, extent - 1)
        ranges.append(np.arange(lo, hi + 1))
    box = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, dim)
    strides = np.cumprod((1,) + lattice.extents[:0:-1])[::-1]
    sites = box @ strides
    inside = mask[sites]
    box, sites = box[inside], sites[inside]
    if sites.size == 0:
        return
    cols = np.cumsum(mask)[sites] - 1
    first = cols[0] >> 6
    n_words = (cols[-1] >> 6) - first + 1
    cols -= first * 64
    step = _rows_per_chunk(18 * sites.size + 72 * n_words)
    for lo in range(0, block.size, step):
        at = coords[lo:lo + step]
        idx = np.empty((at.shape[0], sites.size), dtype=np.intp)
        term = np.empty_like(idx)
        for axis in range(dim):
            out = term if axis else idx
            np.subtract(box[:, axis], at[:, axis, None], out=out)
            np.abs(out, out=out)
            out *= strides[axis]
            if axis:
                idx += term
        pair = kind[idx]
        bad = pair == 2
        if bad.any():
            _raise_first_bad(bad, table.ravel()[idx], block[lo:lo + step], sites, tol)
        bits = np.zeros((at.shape[0], n_words * 64), dtype=bool)
        bits[:, cols] = pair == 1
        words[lo:lo + step, first:first + n_words] = _pack_rows(bits, n_words)


def block_slice(adjacency: BinaryMatrix, block) -> BinaryMatrix:
    """Block-vs-rest submatrix of a full adjacency matrix.

    Rows are the block sites (in the given order), columns the remaining
    sites in ascending order.
    """
    if adjacency.n_rows != adjacency.n_cols:
        raise ValueError("adjacency matrix must be square")
    n = adjacency.n_rows
    block = np.asarray(block, dtype=np.intp).ravel()
    if block.size == 0 or len(set(block.tolist())) != block.size:
        raise ValueError("block must be a non-empty list of distinct sites")
    if block.min() < 0 or block.max() >= n:
        raise ValueError(f"site index out of range 0..{n - 1}")
    mask = np.ones(n, dtype=bool)
    mask[block] = False
    dense = adjacency.to_dense()
    return BinaryMatrix.from_dense(dense[block][:, mask])


def graph_block_entropy(adjacency: BinaryMatrix, block) -> int:
    """Entanglement entropy (in bits) of a block of a graph state.

    Equals the GF(2) rank of the block-vs-rest adjacency slice, an exact
    integer -- no amplitudes, no eigenvalues, no block-size ceiling.  For
    lattices too large to hold the full adjacency, build the slice
    directly with :func:`block_adjacency` and call :func:`gf2_rank`.
    """
    return gf2_rank(block_slice(adjacency, block))


def connected_vertex_count(gamma: BinaryMatrix) -> int:
    """Number of block sites with at least one edge into the environment.

    Takes the block-vs-rest slice (from :func:`block_slice` or
    :func:`block_adjacency`).  Always an upper bound on the GF(2) rank;
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

def write_edge_list(path, edges) -> None:
    """One 'k l' pair per line; lines starting with '#' are comments."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# edge list: one 'site site' pair per line\n")
        for k, l in edges:
            fh.write(f"{int(k)} {int(l)}\n")


def read_edge_list(path) -> list[tuple[int, int]]:
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
