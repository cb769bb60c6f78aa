"""Graph-state specialization: GF(2) linear algebra on the coupling graph.

When every interaction phase is 0 or pi (mod 2*pi) the evolved state is a
graph state, and the entanglement entropy of a block equals the GF(2) rank
of the block-to-environment slice of the adjacency matrix -- an integer
count of independent edge patterns, computed here without touching any
amplitudes.  Each row is one Python integer, environment column c at bit
c, so an m x (N - m) slice costs O(m^2) XORs of N-bit integers.

:func:`block_adjacency` asks the same readers as the environment sweep:
:func:`~wgstate.geometry.coupled_sites` names the candidate sites in one
call and :func:`~wgstate.geometry.pair_phases` reads their phases, a group
of block sites at a time.  For a law of distance alone that
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
from typing import NamedTuple

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
# GF(2) matrices as integer rows
# ---------------------------------------------------------------------------

class Adjacency(NamedTuple):
    """Matrix over GF(2), one Python integer per row, column c at bit c."""

    rows: tuple[int, ...]
    n_cols: int

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def gf2_rank(matrix: Adjacency) -> int:
    """Rank over GF(2) by row reduction against stored pivots.

    Each nonzero row is XORed with the pivot that shares its lowest set bit
    until it has none (the row was dependent) or its lowest bit is new (a
    pivot); each XOR moves that bit strictly up, so a row needs at most
    n_cols of them.
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


def block_adjacency(profile, block) -> Adjacency:
    """Block-to-environment edge matrix, one integer row per block site.

    Columns run over the environment sites in ascending order, column c at
    bit c of its row.  Only the block rows are inspected, so the cost never
    involves the full graph.
    Phases come from :func:`~wgstate.geometry.pair_phases`, one call per
    group of rows, and only for the environment sites
    :func:`~wgstate.geometry.coupled_sites` names: for a distance law
    other than ``Disordered`` those inside the block's near box,
    O(N + |block| * |box|) table lookups; for any other profile every
    environment site, one ``phase_row`` per block site, O(|block| * N).

    A pair whose phase is neither 0 nor pi within 1e-9 raises
    :class:`NotAGraphStateError` naming the first such pair: the first
    block site in the given order, then the lowest environment site.
    """
    block = _check_subset(profile, block, a_max=profile.n_sites)
    env = _resolve_environment(profile, block)
    cols = coupled_sites((profile,), block, env)
    if cols.size == 0:
        return Adjacency((0,) * block.size, env.size)
    # the candidates' columns span a run of whole bytes, packed in one go
    # and shifted up to their first byte; the shift is a Python int, since
    # shifting by a numpy integer overflows
    sites = env[cols]
    first = int(cols[0]) >> 3
    n_bytes = (int(cols[-1]) >> 3) - first + 1
    cols = cols - 8 * first
    step = max(1, _CHUNK_BYTES // (26 * sites.size + 9 * n_bytes))
    # one buffer for every chunk: only the candidates' columns are written
    bits = np.zeros((min(step, block.size), 8 * n_bytes), dtype=bool)
    rows = []
    for lo in range(0, block.size, step):
        ks = block[lo:lo + step]
        phi = pair_phases(profile, ks, sites)
        edge, bad = _classify(phi)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise NotAGraphStateError(
                f"phase {phi[i, j]!r} between sites {int(ks[i])} and "
                f"{int(sites[j])} is neither 0 nor pi (tolerance {_TOL})")
        bits[:ks.size, cols] = edge
        packed = np.packbits(bits[:ks.size], axis=1, bitorder="little")
        rows += [int.from_bytes(row, "little") << 8 * first for row in packed]
    return Adjacency(tuple(rows), env.size)


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

def read_edge_list(path) -> list[tuple[int, int]]:
    """One 'k l' pair per line; text after a '#' is a comment.  Any other
    line raises ValueError naming its path and line number."""
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
            edges.append((k, l))
    return edges
