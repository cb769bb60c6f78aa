"""Graph-state specialization: GF(2) linear algebra on the coupling graph.

When every interaction phase is 0 or pi (mod 2*pi) the evolved state is a
graph state, and the entanglement entropy of a block equals the GF(2) rank
of the block-to-environment slice of the adjacency matrix -- an integer
count of independent edge patterns, computed here without touching any
amplitudes.  Each row is one Python integer, environment column c at bit
c, so an m x (N - m) slice costs O(m^2) XORs of integers as wide as the
columns the rows couple to.

For a law of distance alone :func:`block_adjacency` reads the profile's
stencil, the displacements whose entry in the displacement table is not
0.0: a block site's candidate edges are its coordinates plus each of them,
O(N + m * |stencil|) in place of O(m * N) distance and law evaluations.
Other profiles (a :class:`~wgstate.geometry.Disordered` law, an
:class:`~wgstate.geometry.EdgeProfile`) read
:func:`~wgstate.geometry.pair_phases` of every environment site, one
``phase_row`` per block site, O(m * N).  The block goes through the input
contract of :mod:`wgstate.rdm` first, with the lattice as its size limit.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from itertools import chain
from typing import NamedTuple

import numpy as np

from .geometry import TWO_PI, _check_pair, _stencil_images, displacement_phases, pair_phases
from .rdm import _check_subset, _resolve_environment

# Byte budget for the transients of one group of rows in block_adjacency,
# and the bytes one candidate pair of a block site and a stencil image takes.
_CHUNK_BYTES = 1 << 21
_PAIR_BYTES = 80

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

    Every row is first shifted down by the lowest set column of any row,
    which keeps the rank, so the XORs work on integers only as wide as the
    coupled columns.  Each nonzero row is XORed with the pivot that shares
    its lowest set bit until it has none (the row was dependent) or its
    lowest bit is new (a pivot); each XOR moves that bit strictly up, so a
    row needs at most n_cols of them.
    """
    coupled = reduce(operator.or_, matrix.rows, 0)
    if not coupled:
        return 0
    shift = (coupled & -coupled).bit_length() - 1
    pivots: dict[int, int] = {}
    for row in matrix.rows:
        row >>= shift
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


def _pack(rows: list, r: np.ndarray, c: np.ndarray) -> None:
    """OR into ``rows`` the edges (r[i], c[i]): rows r ascending, no edge
    twice.  Each row's columns are packed in a window that starts at its
    lowest one, then shifted up to it."""
    if r.size == 0:
        return
    first = np.empty(r.size, dtype=bool)
    first[0] = True
    np.not_equal(r[1:], r[:-1], out=first[1:])
    start = np.flatnonzero(first)
    nth = np.cumsum(first) - 1
    low = np.minimum.reduceat(c, start)
    c = c - low[nth]
    width = int(c.max()) + 1
    c += nth * width
    bits = np.zeros((start.size, width), dtype=bool)
    bits.reshape(-1)[c] = True
    packed = np.packbits(bits, axis=1, bitorder="little")
    for i, word, shift in zip(r[start].tolist(), packed, low.tolist()):
        rows[i] |= int.from_bytes(word, "little") << shift


def _row_groups(profile, block):
    """Rows of a profile without a displacement table, a group at a time:
    ``pair_phases`` of the group's sites and every environment site."""
    env = _resolve_environment(profile, block)
    step = max(1, _CHUNK_BYTES // (27 * env.size + 1))
    for lo in range(0, block.size, step):
        ks = block[lo:lo + step]
        phi = pair_phases(profile, ks, env)
        edge, bad = _classify(phi)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise _not_a_graph_state(phi[i, j], ks[i], env[j])
        rows = [0] * ks.size
        _pack(rows, *np.nonzero(edge))
        yield rows


def _candidates(lattice, here, disp, inside):
    """(row, site, image) of every pair of a site at coordinates ``here``
    (g, D) and one of the displacements ``disp`` (S, D) that lands in the
    lattice on a site ``inside`` does not mark, rows ascending."""
    site = np.zeros((len(here), len(disp)), dtype=np.intp)
    ok = np.ones(site.shape, dtype=bool)
    for axis, (extent, bound) in enumerate(zip(lattice.extents, lattice.boundary)):
        c = here[:, axis, None] + disp[:, axis]
        if bound == "periodic":
            c[c >= extent] -= extent
        else:
            ok &= c.view(np.uintp) < extent     # a negative c wraps past every extent
        site *= extent
        site += c
    ok &= ~np.take(inside, site, mode="clip")      # clipped where ok is already False
    at = np.flatnonzero(ok)
    r = at // len(disp)
    return r, site.ravel()[at], at - r * len(disp)


def _stencil_groups(profile, block):
    """Rows of a profile with a displacement table, a group at a time, from
    its stencil: a block site's candidates are its coordinates plus each
    image of a stencil entry, O(|block| * |stencil|).

    The stencil's phases are classified once per call.  A group holds as
    many rows as the byte budget allows for their candidates and for the
    window their columns are packed in.  A stencil too large for one row
    within the budget is split into parts, expanded again for every row.
    """
    lattice = profile.lattice
    at = lattice.coords(block)
    lo, hi = at.min(axis=0), at.max(axis=0)
    phases = profile._stencil[1]
    edge, bad = _classify(phases)
    live = np.flatnonzero(edge | bad)
    part = max(1, _CHUNK_BYTES // (_PAIR_BYTES * 2 ** lattice.boundary.count("open")))
    parts = [live[i:i + part] for i in range(0, live.size, part)]
    if len(parts) == 1:
        # one part's images are made once; a row's columns lie within the
        # sites they reach from its block site
        ready = [_stencil_images(profile, parts[0], lo, hi)]
        disp = ready[0][0]
        reach = disp.max(axis=0, initial=0) - disp.min(axis=0, initial=0)
        periodic = np.array(lattice.boundary) == "periodic"
        reach[periodic] = np.array(lattice.extents)[periodic] - 1
        strides = np.cumprod((1,) + lattice.extents[:0:-1])[::-1]
        step = max(1, _CHUNK_BYTES // (_PAIR_BYTES * len(disp) + 1 + int(reach @ strides)))
    else:
        ready, step = None, 1 if parts else block.size
    order = np.sort(block)
    inside = np.zeros(lattice.n_sites, dtype=bool)
    inside[block] = True
    for start in range(0, block.size, step):
        ks = block[start:start + step]
        rows, found = [0] * ks.size, []
        for disp, entry in ready or (_stencil_images(profile, p, lo, hi) for p in parts):
            r, l, j = _candidates(lattice, at[start:start + step], disp, inside)
            j = entry[j]
            b = np.flatnonzero(bad[j])
            if b.size:
                # the first block site in the given order, then the lowest environment site
                i = b[np.argmin(r[b] * lattice.n_sites + l[b])]
                found.append((r[i], l[i], phases[j[i]]))
            e = edge[j]
            l = l[e]
            _pack(rows, r[e], l - np.searchsorted(order, l))
        if found:
            r, l, phi = min(found)
            raise _not_a_graph_state(phi, ks[r], l)
        yield rows


def block_adjacency(profile, block) -> Adjacency:
    """Block-to-environment edge matrix, one integer row per block site.

    Columns run over the environment sites in ascending order, column c at
    bit c of its row.  Only the block rows are inspected, so the cost never
    involves the full graph.  For a distance law other than ``Disordered``
    the edges come from the profile's stencil, the displacements whose
    phase is not 0.0: O(N) once per profile for the table, then
    O(|block| * |stencil|) per call.  For any other profile they come from
    :func:`~wgstate.geometry.pair_phases` of every environment site, a
    group of rows at a time, one ``phase_row`` per block site,
    O(|block| * N).  The transients of a group stay within a byte budget.

    A pair whose phase is neither 0 nor pi within 1e-9 raises
    :class:`NotAGraphStateError` naming the first such pair: the first
    block site in the given order, then the lowest environment site.
    """
    block = _check_subset(profile, block, a_max=profile.n_sites)
    groups = (_row_groups if displacement_phases(profile) is None else _stencil_groups)(profile, block)
    return Adjacency(tuple(chain.from_iterable(groups)), profile.n_sites - block.size)


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
