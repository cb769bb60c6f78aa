"""Graph-state specialization: GF(2) linear algebra on the coupling graph.

When every interaction phase is 0 or pi (mod 2*pi) the evolved state is a
graph state, and the entanglement entropy of a block equals the GF(2) rank
of the block-to-environment slice of the adjacency matrix -- an integer
count of independent edge patterns, computed here without touching any
amplitudes.  Each row is one Python integer, environment column
``offset`` + j at bit j, ``offset`` the lowest column any row couples to,
so the rows hold only the coupled span and an m x (N - m) slice costs
O(m^2) XORs of integers that wide.

:func:`block_adjacency` reads its pairs from one reader,
:func:`~wgstate.geometry.coupled_pairs`: every pair of a block site and an
environment site whose phase is not 0.0, a group of whole rows at a time
within ``_CHUNK_BYTES``.  For a law of distance alone it reads the
profile's stencil, O(m * |stencil|) in place of O(m * N) distance and law
evaluations, and for a :class:`~wgstate.geometry.Cutoff` law the table
behind the stencil reads only the reach box, O(floor(reach)^D); other
profiles (a :class:`~wgstate.geometry.Disordered` law, an
:class:`~wgstate.geometry.EdgeProfile`) take one ``phase_row`` per block
site, O(m * N).  Which sites couple, and how a lattice is laid out,
is known in :mod:`wgstate.geometry` alone; this module only classifies
phases and packs edges.  The block goes through the input contract of
:mod:`wgstate.rdm` first, with the lattice as its size limit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import TWO_PI, _check_pair, coupled_pairs
from .rdm import _check_subset

# Byte budget for the transients of one group of rows in block_adjacency.
_CHUNK_BYTES = 1 << 21

# A phase this close to 0, pi or 2*pi counts as that value.
_TOL = 1e-9


class NotAGraphStateError(ValueError):
    """Some interaction phase is neither 0 nor pi within tolerance."""


# ---------------------------------------------------------------------------
# GF(2) matrices as integer rows
# ---------------------------------------------------------------------------

class Adjacency(NamedTuple):
    """Matrix over GF(2), one Python integer per row, column offset + j at
    bit j.

    ``offset`` is the lowest column any row couples to (0 when none does,
    and by default), so the rows hold only the coupled span of columns;
    columns below it are zero in every row, which changes no rank.
    """

    rows: tuple[int, ...]
    n_cols: int
    offset: int = 0

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def gf2_rank(matrix: Adjacency) -> int:
    """Rank over GF(2) by row reduction against stored pivots.

    The rows are reduced as stored, as wide as the coupled span of columns
    (``Adjacency.offset``).  Each nonzero row is XORed with the pivot that
    shares its lowest set bit until it has none (the row was dependent) or
    its lowest bit is new (a pivot); each XOR moves that bit strictly up,
    so a row needs at most n_cols of them.
    """
    pivots: dict[int, int] = {}
    for row in matrix.rows:
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


def _not_a_graph_state(phi, k, l) -> NotAGraphStateError:
    return NotAGraphStateError(f"phase {float(phi)!r} between sites {int(k)} and {int(l)} "
                               f"is neither 0 nor pi (tolerance {_TOL})")


def _pack(r: np.ndarray, c: np.ndarray) -> dict[int, tuple[int, int]]:
    """The rows of the edges (r[i], c[i]), rows r ascending, each row's
    edges all given at once and none twice: row -> (bits, low), its
    columns packed into a run of bytes of its own from its lowest column
    ``low``, at bit c - low."""
    if r.size == 0:
        return {}
    first = np.empty(r.size, dtype=bool)
    first[0] = True
    np.not_equal(r[1:], r[:-1], out=first[1:])
    start = np.flatnonzero(first)
    nth = np.cumsum(first) - 1
    low = np.minimum.reduceat(c, start)
    end = np.cumsum((np.maximum.reduceat(c, start) - low) // 8 + 1)
    begin = np.concatenate([[0], end[:-1]])
    bit = c - low[nth] + 8 * begin[nth]
    packed = np.zeros(int(end[-1]), dtype=np.uint8)
    np.add.at(packed, bit >> 3, (1 << (bit & 7)).astype(np.uint8))     # no bit twice: + is OR
    return {i: (int.from_bytes(packed[a:b], "little"), lo)
            for i, a, b, lo in zip(r[start].tolist(), begin.tolist(), end.tolist(), low.tolist())}


def block_adjacency(profile, block) -> Adjacency:
    """Block-to-environment edge matrix, one integer row per block site.

    Columns run over the environment sites in ascending order, column
    ``offset`` + j at bit j of its row, ``offset`` the lowest column any
    row couples to: the rows hold the coupled span alone.  Only the block
    rows are inspected, so the cost never involves the full graph.  The
    pairs of a block site and an environment site whose phase is not 0.0
    come from the one reader :func:`~wgstate.geometry.coupled_pairs`, a
    group of whole rows at a time: as many rows as ``_CHUNK_BYTES`` holds
    of their candidate pairs, at least one.  For a distance law other than
    ``Disordered`` a row's candidates are the images of the profile's
    stencil, O(|block| * |stencil|) per call, after the table is read once
    per profile: over the reach box for a ``Cutoff`` law, O(floor(reach)^D),
    over all N sites for any other; for any other profile they are every
    environment site, one ``phase_row`` per block site, O(|block| * N).
    Each group's phases are classified and its edges packed, one run of
    bytes per row from its lowest column; once every group is read, each
    row is shifted to its place above ``offset``.

    A pair whose phase is neither 0 nor pi within 1e-9 raises
    :class:`NotAGraphStateError` naming the first such pair: the first
    block site in the given order, then the lowest environment site.  It
    is raised as soon as the group that holds it is read.
    """
    block = _check_subset(profile, block, a_max=profile.n_sites)
    order = np.sort(block)
    packed = {}
    for r, l, phi in coupled_pairs(profile, block, _CHUNK_BYTES):
        edge, bad = _classify(phi)
        if bad.any():
            i = np.flatnonzero(bad & (r == r[np.argmax(bad)]))     # rows ascending
            i = i[np.argmin(l[i])]
            raise _not_a_graph_state(phi[i], block[r[i]], l[i])
        l = l[edge]
        packed.update(_pack(r[edge], l - np.searchsorted(order, l)))
    offset = min((low for _, low in packed.values()), default=0)
    rows = [0] * block.size
    for i, (bits, low) in packed.items():
        rows[i] = bits << (low - offset)
    return Adjacency(tuple(rows), profile.n_sites - block.size, offset)


def connected_vertex_count(gamma: Adjacency) -> int:
    """Number of block sites with at least one edge into the environment.

    Takes the block-vs-rest slice from :func:`block_adjacency`.  Always an
    upper bound on the GF(2) rank; the gap counts linear dependencies among
    the rows' edge patterns.
    """
    return sum(1 for row in gamma.rows if row)


def analytic_block_entropy(dimension: int, side: int, reach: float) -> int:
    """Closed-form block entropy for a cutoff coupling on a hypercubic box.

    For a box of linear size ``side`` in a ``dimension``-dimensional
    lattice with edges up to distance ``reach``, and at least ``reach``
    margin between the box and any open boundary, the rank of the edge
    matrix counts the sites within ``reach`` of the box surface.  A
    Euclidean cutoff reaches floor(reach) lattice layers on each side:

        side**dimension - (side - min(2*floor(reach), side))**dimension

    For dimension 1 this reduces to min(2*floor(reach), side).  The margin
    is the caller's obligation; without it (or off the cutoff law entirely)
    the formula does not apply -- rank the actual edge matrix instead.
    """
    side = int(side)
    dimension = int(dimension)
    if side < 1 or dimension < 1:
        raise ValueError("side and dimension must be positive")
    if reach < 0:
        raise ValueError("reach must be non-negative")
    core = side - min(2 * math.floor(reach), side)
    return side ** dimension - core ** dimension


# ---------------------------------------------------------------------------
# Edge-list files
# ---------------------------------------------------------------------------

def read_edge_list(path, n_sites: int) -> list[tuple[int, int]]:
    """One 'k l' pair of two different sites of 0..n_sites-1 per line;
    text after a '#' is a comment.  Any other line raises ValueError
    naming its path and line number."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                k, l = map(int, text.split())
            except ValueError:      # a token that is no integer, or not two
                raise ValueError(f"{path}:{lineno}: expected 'site site', got {line!r}") from None
            try:
                _check_pair(n_sites, k, l)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            edges.append((k, l))
    return edges
