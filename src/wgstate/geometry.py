"""Lattice geometry, coupling laws, and interaction phase profiles.

Sites live on a d-dimensional rectangular lattice and are addressed by a
linear index in row-major order, axis 0 slowest: for extents (E0, .., Ed-1)
the site at coordinates (c0, .., cd-1) has index ((c0*E1 + c1)*E2 + ..).
A coupling law maps the distance between two sites to an interaction
strength f(r); a :class:`PhaseProfile` combines lattice, law, and evolution
time into the controlled-phase angles phi(k,l) = f(r_kl) * t that drive
everything downstream.

Phases are computed on demand and reduced mod 2*pi at query time; no N x N
table is ever materialized, so memory stays O(N).  One codec converts
between the two: :meth:`Lattice.coords` is the one place where site indices
become coordinates, computed when asked for and never cached per lattice
(:meth:`Lattice.distances` reads them from it), and its inverse,
``Lattice._ravel``, the one place where coordinates become site indices, a
periodic axis wrapped and a point off an open one masked.  A law of distance
alone gives every pair's phase from one table over the lattice's
displacements, :func:`displacement_phases`, filled from one ``phase_row``
call: over every site for most laws, over the reach box alone for a
:class:`Cutoff`.  Which
environment sites a subset can feel, and with what phase, is decided here
alone: :func:`coupled_sites` names the sites of a whole sweep in one call,
those it sweeps and those it may fold (for a table, the box of every
subset and time: its bounding box, dilated by every displacement whose
phase reduced to (-pi, pi] exceeds a threshold tau in magnitude; and the
near box less it, dilated by every displacement whose phase is not 0.0;
both reaches read from one peak profile per profile,
``PhaseProfile._peaks``, and filled into one box) and
:func:`pair_phases`, the one phase reader, reads their phases, from the
table or one ``phase_row`` per subset site; :func:`_pair_factors` keeps the
sites with a phase other than 0.0 and forms the factors exp(-i phi) the
sweep multiplies from their phases, for one profile or for the profiles of
a time grid (:func:`time_profiles`) at once, a grid's phases from one
gather of its stacked tables.  A profile caches its phases alone, never
their factors.  A graph-state adjacency asks :func:`coupled_pairs` for
every pair of a block site and a site outside the block whose phase is not
0.0, whole rows at a time within a byte budget, and so does the entropy
lower bound, under a :class:`Cutoff` of its radius; for a table it reads
the table's *stencil*, its entries that are not 0.0
(``PhaseProfile._stencil``), each standing for the signed displacements
that reach across an open or a periodic axis.  A sweep of a subset that
the point reflection through its centre maps onto itself asks
:func:`mirror_images` for each site's image, which a table gives the same
phases with the subset permuted.  Only this module reads a lattice's
boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

import numpy as np

TWO_PI = 2.0 * math.pi

# 2*pi less TWO_PI, its float: (phi - TWO_PI) - _TWO_PI_LO is phi - 2*pi to
# one rounding for phi in [pi, 2*pi)
_TWO_PI_LO = 2.4492935982947064e-16

_BOUNDARIES = ("open", "periodic")

# Byte budget for the transients of one group of rows in coupled_pairs.
_CHUNK_BYTES = 1 << 21

# Bytes of transients one candidate pair takes in coupled_pairs.
_PAIR_BYTES = 80


class ConfigError(ValueError):
    """Malformed configuration input (bad key, value, or combination)."""


def _reduce_phase(phi: np.ndarray) -> np.ndarray:
    """The float64 array phi mod 2*pi, in [0, 2*pi), reduced in place.

    ``np.mod`` of a negative value smaller in magnitude than half an ulp of
    2*pi rounds up to 2*pi itself; that full turn is returned as 0.0.  Only
    entries outside [0, 2*pi) go through ``np.mod``, the rest are kept:
    ``np.mod`` returns those unchanged, except -0.0, which it turns into
    0.0 and which therefore counts as outside.  A phase that is not finite
    (NaN, or an overflow of f(r) * t) raises ValueError naming it.
    """
    out = np.signbit(phi) | ~(phi < TWO_PI)
    if out.any():
        wrapped = phi[out]
        if not np.isfinite(wrapped).all():
            raise ValueError(f"phase {float(wrapped[~np.isfinite(wrapped)][0])!r} is not finite")
        wrapped = np.mod(wrapped, TWO_PI)
        phi[out] = np.where(wrapped == TWO_PI, 0.0, wrapped)
    return phi


def _centred(phi: np.ndarray) -> np.ndarray:
    """The phases ``phi``, each in [0, 2*pi), reduced to (-pi, pi]: phi
    less a true 2*pi above pi, to one rounding (``phi - TWO_PI`` is exact
    there), so exp(-1j * d * phi) and exp(-1j * d * result) agree for
    every integer d to rounding."""
    out = phi - TWO_PI
    out -= _TWO_PI_LO
    np.copyto(out, phi, where=phi <= math.pi)
    return out


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    """Rectangular lattice with per-axis open or periodic boundaries."""

    extents: tuple[int, ...]
    boundary: tuple[str, ...]

    def __init__(self, extents, boundary="open"):
        if isinstance(extents, int):
            extents = (extents,)
        extents = tuple(int(e) for e in extents)
        if not extents or any(e < 1 for e in extents):
            raise ValueError(f"extents must be positive, got {extents}")
        if isinstance(boundary, str):
            boundary = (boundary,) * len(extents)
        boundary = tuple(boundary)
        if len(boundary) != len(extents):
            raise ValueError("need one boundary condition per axis")
        for b in boundary:
            if b not in _BOUNDARIES:
                raise ValueError(f"boundary must be one of {_BOUNDARIES}, got {b!r}")
        if math.prod(extents) < 2:
            raise ValueError("lattice must contain at least 2 sites")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "boundary", boundary)

    @property
    def dimension(self) -> int:
        return len(self.extents)

    @property
    def n_sites(self) -> int:
        return math.prod(self.extents)

    def coords(self, sites) -> np.ndarray:
        """(*shape, d) integer coordinates of ``sites``, an array of any
        shape, computed from the indices asked for: one division per axis
        but axis 0, whose coordinate is the quotient the others leave."""
        sites = self._check_sites(sites)
        out = np.empty((self.dimension,) + sites.shape, dtype=np.intp)
        out[-1] = sites
        for axis in range(self.dimension - 1, 0, -1):
            np.floor_divide(out[axis], self.extents[axis], out=out[axis - 1, ...])
            out[axis] -= out[axis - 1] * self.extents[axis]
        return out.transpose(*range(1, out.ndim), 0)

    def _ravel(self, coords):
        """(flat index, on-lattice mask) of the points whose coordinates are
        ``coords``, one broadcastable integer array per axis: the row-major
        index, a periodic axis's coordinate taken modulo its extent, and
        False where a point falls off an open axis (its index is then of no
        site).  The one place coordinates become site indices; the inverse
        is :meth:`coords`."""
        flat, ok = 0, True
        for c, extent, bound in zip(coords, self.extents, self.boundary):
            if bound == "open":
                inside = (0 <= c) & (c < extent)
                ok = inside if ok is True else ok & inside
            elif np.size(c) and (np.min(c) < 0 or np.max(c) >= extent):  # % costs more than this
                c = c % extent
            flat = flat * extent + c
        return flat, ok

    def _check_sites(self, sites) -> np.ndarray:
        sites = np.asarray(sites, dtype=np.intp)
        if sites.size and (sites.min() < 0 or sites.max() >= self.n_sites):
            raise ValueError(f"site index out of range 0..{self.n_sites - 1}")
        return sites

    def distances(self, k: int, ls) -> np.ndarray:
        """Euclidean distances from site k to each site in ls, worked out in
        place on the coordinates :meth:`coords` gives for ls: less k's, their
        magnitudes, a periodic axis's the nearer way round."""
        step = self.coords(ls)
        step -= self.coords(k)
        np.abs(step, out=step)
        for axis, (extent, bound) in enumerate(zip(self.extents, self.boundary)):
            if bound == "periodic":
                np.minimum(step[..., axis], extent - step[..., axis], out=step[..., axis])
        if self.dimension == 1:
            return step[..., 0].astype(np.float64)
        # squared in place and summed straight into float64, with no
        # temporary per axis: the integer squares and their sum are exact;
        # a scalar ls sums to a numpy scalar, kept a 0-d array as on a chain
        step *= step
        r = np.asarray(np.add.reduce(step, axis=-1, dtype=np.float64))
        return np.sqrt(r, out=r)


def centered_block(lattice: Lattice, shape) -> np.ndarray:
    """Linear site indices of an axis-aligned block centered in the lattice.

    ``shape`` is a side length (applied to every axis) or one length per
    axis.  Returned indices are ascending.
    """
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),) * lattice.dimension
    shape = tuple(int(s) for s in shape)
    if len(shape) != lattice.dimension:
        raise ValueError("block shape must give one side length per axis")
    ranges = []
    for side, extent in zip(shape, lattice.extents):
        if not 1 <= side <= extent:
            raise ValueError(f"block side {side} does not fit extent {extent}")
        start = (extent - side) // 2
        ranges.append(np.arange(start, start + side))
    return lattice._ravel(np.ix_(*ranges))[0].ravel()


# ---------------------------------------------------------------------------
# Coupling laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLaw:
    """f(r) = r**(-alpha), alpha > 0."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def strengths(self, r: np.ndarray, k=None, ls=None) -> np.ndarray:
        return r ** (-self.alpha)


@dataclass(frozen=True)
class Exponential:
    """f(r) = exp(-kappa * r), kappa > 0."""

    kappa: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")

    def strengths(self, r: np.ndarray, k=None, ls=None) -> np.ndarray:
        return np.exp(-self.kappa * r)


@dataclass(frozen=True)
class Cutoff:
    """f(r) = 1 for r <= reach, else 0."""

    reach: float

    def __post_init__(self):
        if not self.reach >= 0:
            raise ValueError("reach must be non-negative")

    def strengths(self, r: np.ndarray, k=None, ls=None) -> np.ndarray:
        return np.where(r <= self.reach, 1.0, 0.0)


class Table:
    """Explicit distance -> strength lookup.

    Every queried distance must match a table entry within 1e-9;
    anything else is an error rather than an implicit zero.  The exact paths
    read every lattice distance at once (:func:`displacement_phases`).
    Distances and strengths must be finite.
    """

    def __init__(self, entries: Mapping[float, float]):
        if not entries:
            raise ValueError("table law needs at least one entry")
        items = sorted((float(r), float(f)) for r, f in entries.items())
        self._r = np.array([r for r, _ in items])
        self._f = np.array([f for _, f in items])
        if not np.isfinite((self._r, self._f)).all():
            raise ValueError(f"table entries must be finite numbers, got {self!r}")

    def strengths(self, r: np.ndarray, k=None, ls=None) -> np.ndarray:
        pos = np.searchsorted(self._r, r)
        lo = np.clip(pos - 1, 0, len(self._r) - 1)
        hi = np.clip(pos, 0, len(self._r) - 1)
        use_hi = np.abs(self._r[hi] - r) <= np.abs(self._r[lo] - r)
        best = np.where(use_hi, hi, lo)
        missing = np.abs(self._r[best] - r) > 1e-9
        if np.any(missing):
            raise ValueError(f"distance {np.asarray(r)[missing][0]} not in coupling table")
        return self._f[best]

    def __repr__(self):
        pairs = ", ".join(f"{r:g}: {f:g}" for r, f in zip(self._r, self._f))
        return f"Table({{{pairs}}})"


def _splitmix64(z: np.ndarray) -> np.ndarray:
    # wrapping uint64 arithmetic is the point; silence the overflow warning
    with np.errstate(over="ignore"):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1DF4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def pair_uniform(seed: int, k, ls) -> np.ndarray:
    """Deterministic uniform(0,1) draw per unordered site pair.

    Counter-based (stateless): the value depends only on
    (seed, min(k,l), max(k,l)), so both argument orders agree and no table
    is stored.
    """
    k = np.asarray(k, dtype=np.uint64)
    ls = np.asarray(ls, dtype=np.uint64)
    i = np.minimum(k, ls)
    j = np.maximum(k, ls)
    h = _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(0))
    h = _splitmix64(h ^ i)
    h = _splitmix64(h ^ j)
    return (h >> np.uint64(11)) * 2.0 ** -53


@dataclass(frozen=True)
class Disordered:
    """Base law modulated by a random per-pair amplitude.

    The amplitude is uniform on [low, high), drawn deterministically from
    (seed, pair) so repeated queries and both site orders give identical
    values without storing an N x N table.
    """

    base: Union[PowerLaw, Exponential, Cutoff, Table]
    seed: int
    amplitude: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        low, high = self.amplitude
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError(f"amplitude bounds must be finite, got {self.amplitude!r}")

    def strengths(self, r: np.ndarray, k=None, ls=None) -> np.ndarray:
        if k is None or ls is None:
            raise ValueError("disordered law needs site identities, not just distances")
        low, high = self.amplitude
        u = pair_uniform(self.seed, k, ls)
        return self.base.strengths(r, k, ls) * (low + (high - low) * u)


CouplingLaw = Union[PowerLaw, Exponential, Cutoff, Table, Disordered]


# ---------------------------------------------------------------------------
# Phase profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseProfile:
    """Bundle of lattice + coupling law + evolution time.

    phase(k, l) = f(r_kl) * t, reduced mod 2*pi at query time (after the
    multiplication by t, so no reduction error accumulates across a sweep
    over t).
    """

    lattice: Lattice
    law: CouplingLaw
    time: float

    def __post_init__(self):
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"time must be finite and non-negative, got {float(self.time)!r}")

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    def phase_row(self, k: int, ls) -> np.ndarray:
        """Phases phi(k, l) for every l in ls, each in [0, 2*pi)."""
        ls = np.asarray(ls, dtype=np.intp)
        r = self.lattice.distances(k, ls)
        if r.size and r.min() == 0.0:
            raise ValueError(f"phase(k, k) is undefined (site {k} paired with itself)")
        f = self.law.strengths(r, k, ls)
        return _reduce_phase(np.multiply(f, self.time, dtype=np.float64))

    def phase(self, k: int, l: int) -> float:
        return float(self.phase_row(k, np.array([l]))[0])

    @cached_property
    def _displacement_table(self) -> np.ndarray:
        """Read-only table of :func:`displacement_phases`, built on first use."""
        return _tables((self,))[0]

    @cached_property
    def _stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only flat indices, ascending, of the ``_displacement_table``
        entries that are not 0.0, and those entries: the displacements with
        a phase, each entry standing for the images :func:`coupled_pairs`
        gives it."""
        phi = self._displacement_table.reshape(-1)
        at = np.flatnonzero(phi)
        entries = phi[at]
        at.setflags(write=False)
        entries.setflags(write=False)
        return at, entries

    @cached_property
    def _peaks(self) -> tuple[np.ndarray, ...]:
        """The peak profile, one ascending array per axis a: entry j is
        the largest |phi~| (a ``_displacement_table`` entry reduced to
        (-pi, pi], :func:`_centred`; the origin counted as inf) on the
        hyperplanes |d_a| >= E_a - 1 - j, a running maximum from the far
        end.  The reach at tau along a, the largest |d_a| with an entry of
        |phi~| > tau, is the count of its entries above tau, less one."""
        size = _centred(self._displacement_table)
        np.abs(size, out=size)
        size.flat[0] = math.inf
        axes = range(size.ndim)
        return tuple(np.maximum.accumulate(size.max(axis=tuple(b for b in axes if b != a))[::-1])
                     for a in axes)


def _check_pair(n_sites: int, k: int, l: int) -> None:
    """Raise ValueError unless k and l are two different sites of 0..n_sites-1."""
    if k == l:
        raise ValueError(f"self-pair ({k}, {k}) has no phase")
    if not (0 <= k < n_sites and 0 <= l < n_sites):
        raise ValueError(f"site pair ({k}, {l}) out of range")


class EdgeProfile:
    """Phases listed explicitly per site pair; unlisted pairs have phase 0.

    Drop-in replacement for :class:`PhaseProfile` wherever only
    ``n_sites`` / ``phase`` / ``phase_row`` are consumed.  Useful for
    interaction patterns that no distance law produces.  Each site's
    neighbours are stored once, in compressed sparse rows: ascending site
    indices with their phases, so a phase row is one binary search per
    queried site.
    """

    def __init__(self, n_sites: int, phases: Mapping[tuple[int, int], float]):
        if n_sites < 2:
            raise ValueError("need at least 2 sites")
        self._n = int(n_sites)
        pairs: dict[tuple[int, int], float] = {}
        for (k, l), phi in phases.items():
            k, l = int(k), int(l)
            _check_pair(self._n, k, l)
            pairs[min(k, l), max(k, l)] = float(phi)
        ends = np.array(list(pairs), dtype=np.intp).reshape(-1, 2)
        phi = _reduce_phase(np.array(list(pairs.values()), dtype=np.float64))
        rows = np.concatenate([ends[:, 0], ends[:, 1]])
        cols = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.lexsort((cols, rows))
        self._indptr = np.searchsorted(rows[order], np.arange(self._n + 1))
        self._cols = cols[order]
        self._phases = np.concatenate([phi, phi])[order]

    @classmethod
    def from_edges(cls, n_sites: int, edges) -> "EdgeProfile":
        """Phase pi on the given edges: a graph state."""
        return cls(n_sites, {(k, l): math.pi for k, l in edges})

    @property
    def n_sites(self) -> int:
        return self._n

    def phase(self, k: int, l: int) -> float:
        return float(self.phase_row(k, np.array([l]))[0])

    def phase_row(self, k: int, ls) -> np.ndarray:
        """Phases phi(k, l) for every l in ls, each in [0, 2*pi)."""
        ls = np.asarray(ls, dtype=np.intp)
        if not 0 <= k < self._n or (ls.size and (ls.min() < 0 or ls.max() >= self._n)):
            raise ValueError(f"site index out of range 0..{self._n - 1}")
        if (ls == k).any():
            raise ValueError(f"phase(k, k) is undefined (site {k} paired with itself)")
        start, stop = self._indptr[k], self._indptr[k + 1]
        if start == stop:
            return np.zeros(ls.shape)
        cols = self._cols[start:stop]
        pos = np.minimum(np.searchsorted(cols, ls), cols.size - 1)
        return np.where(cols[pos] == ls, self._phases[start:stop][pos], 0.0)


def time_profiles(profile, times) -> _Grid:
    """A new :class:`_Grid` of ``PhaseProfile(profile.lattice, profile.law,
    t)`` for every t in ``times``, a non-empty 1-D sequence of numbers; each
    profile checks its own time (finite and >= 0), the first bad one in
    order raising.  Any profile but a :class:`PhaseProfile` raises
    ValueError: its phases have no time to vary.

    Under a law of distance alone (any but :class:`Disordered`) the grid's
    displacement tables are built at once, one ``phase_row`` per time over
    the sites :func:`_tables` reads (a :class:`Cutoff`'s reach box, or
    every site), as one read-only (T, *extents) stack of phases; each
    profile's ``_displacement_table`` is a view of its row, no second
    copy.  :func:`_grid_phases` reads every time of the grid with one
    gather.  The stack lives as long as the grid: a caller that sweeps,
    assembles and walks one grid builds it once.
    """
    if not isinstance(profile, PhaseProfile):
        raise ValueError(f"times need a PhaseProfile (lattice, law, time), "
                         f"got {type(profile).__name__}")
    try:
        ts = np.asarray(times, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError("times must be a 1-D sequence of numbers") from None
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError(f"times must be a non-empty 1-D sequence, got shape {ts.shape}")
    return _Grid(PhaseProfile(profile.lattice, profile.law, t) for t in ts.tolist())


class _Grid(tuple):
    """The profiles of a time grid, one lattice and law at T times
    (:func:`time_profiles`), passed where a profile goes: its
    ``n_sites`` is theirs.  Under a law of distance alone it holds their
    ``_displacement_table`` as one read-only (T, *extents) stack, of which
    each profile's own is a row view, built as a lone profile's table is,
    by :func:`_tables`.  A :class:`Disordered` grid has no stack."""

    def __init__(self, profiles):
        if isinstance(self[0].law, Disordered):
            return
        self._displacement_table = _tables(self)
        for profile, table in zip(self, self._displacement_table):
            profile.__dict__["_displacement_table"] = table

    @property
    def n_sites(self) -> int:
        return self[0].n_sites


def _tables(profiles) -> np.ndarray:
    """Read-only (T, *extents) stack of the displacement phases of each of
    ``profiles``, one lattice and law at T times, from one
    ``phase_row(0, ...)`` call per profile.

    A :class:`Cutoff` law reads only its reach box: the displacements
    whose image along each axis, |d| on an open axis and min(|d|, E - |d|)
    on a periodic one, is at most the reach, so floor(reach) + 1 of them,
    or 2 floor(reach) + 1 on a periodic axis, at most E.  Every other entry
    is farther than the reach along some axis, so its phase is 0.0 * t =
    0.0, which the zeroed stack already holds.  Any other law reads every
    site but site 0.
    """
    lattice, law = profiles[0].lattice, profiles[0].law
    reach = law.reach if isinstance(law, Cutoff) else math.inf
    box = []
    for extent, bound in zip(lattice.extents, lattice.boundary):
        d = np.arange(extent)
        image = np.minimum(d, extent - d) if bound == "periodic" else d
        box.append(d[image <= reach])
    sites = lattice._ravel(np.ix_(*box))[0].ravel()
    phi = np.zeros((len(profiles),) + lattice.extents)
    for table, profile in zip(phi, profiles):
        table.reshape(-1)[sites[1:]] = profile.phase_row(0, sites[1:])   # sites[0]: the origin
    phi.setflags(write=False)
    return phi


def displacement_phases(profile) -> np.ndarray | None:
    """Every phase of a profile whose law depends on distance alone.

    For a :class:`PhaseProfile` whose law is not :class:`Disordered`, the
    phase between two sites depends only on the absolute coordinate
    difference along each axis (the periodic minimum image is applied
    inside :meth:`Lattice.distances`).  Returns an array shaped like the
    lattice whose entry at (|d_0|, .., |d_D-1|) is the very float
    ``profile.phase_row(k, l)`` gives for any k, l that far apart: it is
    site 0's phase row, read in one ``phase_row`` call the first time a
    profile is asked and kept, read-only, for the profile's lifetime.  A
    :class:`Cutoff` law reads only its reach box, O(floor(reach)^D) sites,
    and leaves the rest of the table 0.0, which is its phase there
    (:func:`_tables`); any other law reads all N sites, and a
    :class:`Table` raises on a lattice distance it does not list.  The
    entry at the origin (k = l) is 0.0.  Any other profile returns None.
    """
    if not isinstance(profile, PhaseProfile) or isinstance(profile.law, Disordered):
        return None
    return profile._displacement_table


def coupled_sites(profiles, sites, ls, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(near, far): ascending positions in ``ls`` of the sites that may
    couple to ``sites`` under some of ``profiles`` with a phase, reduced to
    (-pi, pi], larger than ``tau`` in magnitude (near), and of the other
    sites that may couple with a phase not 0.0 (far): one profile, or the
    profiles of a time grid from :func:`time_profiles`, all a sweep feels
    in one call.

    ``sites`` is one subset or a (B, m) stack of them.  With a
    :func:`displacement_phases` table the near sites are those inside the
    box of a subset, or of any subset of a stack, under any of the
    profiles: its bounding box dilated, along each axis, by the reach at
    ``tau``, the largest |d| along it whose table entry, reduced, exceeds
    ``tau`` in magnitude (one ``searchsorted`` of the cached peak profile,
    ``PhaseProfile._peaks``; on a periodic axis the table is indexed by |d|
    before the minimum image, so this holds there).  The far ones are
    inside the box dilated by the reach at 0 and outside every near box.
    One int8 box is filled, level 1 for the reach at 0 and level 2 for the
    reach at ``tau``, once per distinct reach; the bounding boxes are read
    once.  Every site outside the near box has phases of magnitude at most
    ``tau`` to every site of the subset, once reduced, and every site
    outside both boxes exactly 0.0.  For any other profile every position
    is near and none far.
    """
    if displacement_phases(profiles[0]) is None:
        return np.arange(len(ls)), np.arange(0)
    lattice = profiles[0].lattice
    ends = lattice.coords(np.atleast_2d(sites))
    lo, hi = ends.min(axis=1), ends.max(axis=1) + 1
    at_zero, at_tau = ({tuple(peak.size - 1 - int(np.searchsorted(peak, t, "right"))
                              for peak in profile._peaks) for profile in profiles}
                       for t in (0.0, tau))
    box = np.zeros(lattice.extents, dtype=np.int8)
    # a reach at 0 that is also one at tau is filled once, at level 2
    for level, reaches in ((1, at_zero - at_tau), (2, at_tau)):
        for reach in reaches:
            for start, stop in zip(np.maximum(lo - reach, 0), hi + reach):
                box[tuple(map(slice, start, stop))] = level
    levels = box.ravel()[ls]
    return np.flatnonzero(levels == 2), np.flatnonzero(levels == 1)


def mirror_images(profiles, sites, ls) -> tuple[np.ndarray, np.ndarray] | None:
    """The point reflection of the one subset ``sites`` onto itself, for a
    sweep of the sites ``ls`` under ``profiles`` (one profile, or a grid
    from :func:`time_profiles`): (perm, image), or None.

    It applies under a :func:`displacement_phases` table when the
    reflection x -> (lo + hi) - x, lo and hi the subset's least and largest
    coordinate along each axis, maps the subset onto itself; an image is
    taken modulo the extent on a periodic axis and must lie on the lattice
    on an open one.  ``perm[j]`` is the position in ``sites`` of the image
    of ``sites[j]`` and ``image[i]`` the position in ``ls`` of the image of
    ``ls[i]``, or -1 where it is off the lattice or not in ``ls``.  The
    reflection turns every displacement d into -d, so the table gives a
    site's image the site's phases, subset site j's read at ``perm[j]``:
    phi(sites[j], image of l) = phi(sites[perm[j]], l).  Costs
    O(len(ls) * D) and the span of the indices ``ls``, which for every site
    of a near box but the subset's is O(len(ls)); nothing per lattice site.
    """
    if displacement_phases(profiles[0]) is None:
        return None
    lattice = profiles[0].lattice
    sites, ls = np.asarray(sites, dtype=np.intp), np.asarray(ls, dtype=np.intp)
    at = lattice.coords(sites)
    centre = at.min(axis=0) + at.max(axis=0)

    def reflected(coords):
        """Flat indices of the images of ``coords``, -1 (below every site)
        off the lattice."""
        flat, ok = lattice._ravel((centre - coords).T)
        return np.where(ok, flat, -1)

    perm = _positions(sites, reflected(at))
    if (perm < 0).any():
        return None
    return perm, _positions(ls, reflected(lattice.coords(ls)))


def _positions(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The position in ``values`` (distinct sites) of each of ``targets``,
    or -1: one look-up table over the span of ``values``."""
    if len(values) == 0:
        return np.full(len(targets), -1)
    lo = values.min() - 1
    where = np.full(values.max() - lo + 2, -1)    # first and last entry: a miss
    where[values - lo] = np.arange(len(values))
    at = targets - lo
    return where[np.clip(at, 0, len(where) - 1, out=at)]


def pair_phases(profile, sites, ls) -> np.ndarray:
    """The (len(sites), len(ls)) phases phi(k, l), bit for bit ``phase_row``'s,
    and 0.0 where l = k, as at the origin of a displacement table; (B, m)
    and (B, k) stacks give each row's (B, m, k).

    With a :func:`displacement_phases` table they are read from it through
    a flat index summed one axis at a time (:func:`_grid_phases`);
    otherwise each row is one ``phase_row`` call.
    """
    if displacement_phases(profile) is not None:
        return _grid_phases((profile,), sites, ls)
    if np.ndim(sites) == 2:
        return np.stack([pair_phases(profile, row, l) for row, l in zip(sites, ls)])
    ls = np.asarray(ls, dtype=np.intp)
    phi = np.zeros((len(sites), ls.size))
    for row, k in zip(phi, sites):
        other = ls != k
        row[other] = profile.phase_row(int(k), ls[other])
    return phi


def _grid_phases(profiles, sites, ls) -> np.ndarray:
    """:func:`pair_phases` of each of ``profiles`` (one profile, or a grid
    from :func:`time_profiles`), profile after profile along the first
    axis: with a table, one gather of one profile's table or of a grid's
    stack through one flat index of every pair."""
    if displacement_phases(profiles[0]) is None:
        return np.concatenate([pair_phases(profile, sites, ls) for profile in profiles])
    lattice = profiles[0].lattice
    ends, at = lattice.coords(sites)[..., :, None, :], lattice.coords(ls)[..., None, :, :]
    # the table's entry at (|d_0|, .., |d_D-1|), each |d| within its extent
    idx = lattice._ravel(np.abs(ends[..., axis] - at[..., axis])
                         for axis in range(lattice.dimension))[0]
    if len(profiles) == 1:      # a leading slice would read one row at half the speed
        return profiles[0]._displacement_table.ravel()[idx]
    phi = profiles._displacement_table.reshape(len(profiles), -1)[:, idx]
    return phi.reshape((len(profiles) * len(idx),) + idx.shape[1:])


def _per_budget(pairs: int) -> int:
    """How many rows of ``pairs`` candidate pairs each fit in
    ``_CHUNK_BYTES``, at least one: the group rule of :func:`coupled_pairs`."""
    return max(1, _CHUNK_BYTES // (_PAIR_BYTES * pairs + 1))


def coupled_pairs(profile, block):
    """Every pair of a site of ``block`` and a site outside it whose phase
    is not 0.0, a group of block sites at a time: (r, l, phi) arrays of
    the block position r, ascending, the other site l and the phase, bit
    for bit :func:`pair_phases`'s.  A group holds whole rows, as many as
    ``_CHUNK_BYTES`` allows for their candidate pairs (:func:`_per_budget`),
    at least one.

    With a :func:`displacement_phases` table a row's candidates are its
    site's coordinates plus each image of a stencil entry, an entry of the
    table that is not 0.0 (``PhaseProfile._stencil``): O(|block| *
    |stencil|) in place of O(|block| * N).  An entry at (|d_0|, ..,
    |d_D-1|) stands, on an open axis, for d and -d when |d| > 0, each kept
    where it lands in the lattice from some block site; on a periodic axis
    for d itself, in 0..E-1, which reaches coordinate (c + d) mod E: |d| or
    E - |d| away, and the table holds the same phase at both.  So a site is
    at most one image from another.  Coordinates and candidate sites are
    int32 on a lattice of fewer than 2^31 sites.  For any other profile a
    row's candidates are every site outside the block, read through
    :func:`pair_phases`, one ``phase_row`` per block site.
    """
    inside = np.zeros(profile.n_sites, dtype=bool)
    inside[block] = True
    if displacement_phases(profile) is None:
        env = np.flatnonzero(~inside)
        step = _per_budget(env.size)
        for start in range(0, block.size, step):
            phi = pair_phases(profile, block[start:start + step], env)
            r, j = np.nonzero(phi)
            yield r + start, env[j], phi[r, j]
        return
    lattice = profile.lattice
    dtype = np.int32 if lattice.n_sites < 2 ** 31 else np.intp
    at = lattice.coords(block).astype(dtype)
    lo, hi = at.min(axis=0), at.max(axis=0)
    flat, phases = profile._stencil
    disp = lattice.coords(flat).astype(dtype)
    for axis, (extent, bound) in enumerate(zip(lattice.extents, lattice.boundary)):
        if bound == "open":
            d = disp[:, axis]
            keep, flip = d < extent - lo[axis], (d > 0) & (d <= hi[axis])
            mirror = disp[flip]
            mirror[:, axis] *= -1
            disp = np.concatenate([disp[keep], mirror])
            phases = np.concatenate([phases[keep], phases[flip]])
    step = _per_budget(len(disp))
    for start in range(0, block.size, step):
        here = at[start:start + step]
        site, ok = lattice._ravel(here[:, axis, None] + disp[:, axis]
                                  for axis in range(lattice.dimension))
        ok = ok & ~np.take(inside, site, mode="clip")      # clipped where ok is already False
        hit = np.flatnonzero(ok)
        r = hit // len(disp)
        yield r + start, site.ravel()[hit], phases[hit - r * len(disp)]


def _pair_factors(profiles, sites, ls, own=False) -> tuple[np.ndarray, np.ndarray]:
    """Which sites of ``ls`` have a phase other than 0.0 to some of
    ``sites`` under some of ``profiles`` (one profile, or one per time from
    :func:`time_profiles`), or with ``own`` are one of them, and the factors
    exp(-1j * phi) of ``pair_phases(profile, sites, ls)`` at those, profile
    after profile: (len(profiles) * len(sites), count).

    The phases come from one gather (:func:`_grid_phases`) and the factors
    from ``np.exp`` of them at the kept sites alone, one rule for every
    profile, so no profile caches a second table.
    """
    phi = _grid_phases(profiles, sites, ls)
    live = (phi != 0.0).any(axis=0) | (np.isin(ls, sites) if own else False)
    z = -1j * phi[:, live]
    np.exp(z, out=z)
    return live, z


# ---------------------------------------------------------------------------
# Config parsing (documented schema: see README)
# ---------------------------------------------------------------------------

def _require(items: Mapping[str, str], key: str, section: str) -> str:
    if key not in items:
        raise ConfigError(f"missing key '{key}' in section [{section}]")
    return items[key]


def _parse_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {value!r}") from None


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {value!r}") from None


def parse_lattice(items: Mapping[str, str]) -> Lattice:
    """Build a Lattice from the [lattice] section of a config file.

    Keys: ``extents`` (comma list of positive integers), optional
    ``dimension`` (cross-checked), optional ``boundary`` (single value or
    comma list of open|periodic, default open).
    """
    extents_raw = _require(items, "extents", "lattice")
    try:
        extents = tuple(int(tok) for tok in extents_raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"key 'extents': expected integers, got {extents_raw!r}") from None
    if "dimension" in items:
        d = _parse_int(items["dimension"], "dimension")
        if d != len(extents):
            raise ConfigError(
                f"key 'dimension': {d} does not match {len(extents)} extents")
    boundary_raw = items.get("boundary", "open")
    boundary_toks = [tok.strip() for tok in boundary_raw.split(",")]
    boundary = boundary_toks[0] if len(boundary_toks) == 1 else tuple(boundary_toks)
    try:
        return Lattice(extents, boundary)
    except ValueError as exc:
        raise ConfigError(f"section [lattice]: {exc}") from None


def _parse_amplitude(value: str) -> tuple[float, float]:
    text = value.strip()
    if text.startswith("uniform(") and text.endswith(")"):
        text = text[len("uniform("):-1]
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(
            f"key 'amplitude': expected 'uniform(low, high)', got {value!r}")
    return (_parse_float(parts[0], "amplitude"), _parse_float(parts[1], "amplitude"))


def _parse_table(value: str) -> Table:
    entries = {}
    for tok in value.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise ConfigError(f"key 'table': expected 'r:strength' pairs, got {tok!r}")
        r, f = tok.split(":", 1)
        entries[_parse_float(r, "table")] = _parse_float(f, "table")
    if not entries:
        raise ConfigError("key 'table': no entries")
    return Table(entries)


def _parse_base_law(variant: str, items: Mapping[str, str]) -> CouplingLaw:
    if variant == "power":
        return PowerLaw(_parse_float(_require(items, "alpha", "law"), "alpha"))
    if variant == "exponential":
        return Exponential(_parse_float(_require(items, "kappa", "law"), "kappa"))
    if variant == "cutoff":
        return Cutoff(_parse_float(_require(items, "lambda", "law"), "lambda"))
    if variant == "table":
        return _parse_table(_require(items, "table", "law"))
    raise ConfigError(
        f"key 'variant': unknown coupling law {variant!r} "
        "(expected power|exponential|cutoff|table|disordered)")


def parse_law(items: Mapping[str, str]) -> CouplingLaw:
    """Build a coupling law from the [law] section of a config file.

    Keys: ``variant`` = power|exponential|cutoff|table|disordered plus the
    variant's parameter (``alpha`` | ``kappa`` | ``lambda`` | ``table``).
    Disordered adds ``base`` (a non-disordered variant name, with its
    parameter in the same section), ``seed``, and optional ``amplitude`` =
    uniform(low, high).
    """
    variant = _require(items, "variant", "law").strip().lower()
    if variant != "disordered":
        return _parse_base_law(variant, items)
    base = _parse_base_law(_require(items, "base", "law").strip().lower(), items)
    seed = _parse_int(_require(items, "seed", "law"), "seed")
    amplitude = (0.0, 1.0)
    if "amplitude" in items:
        amplitude = _parse_amplitude(items["amplitude"])
    return Disordered(base=base, seed=seed, amplitude=amplitude)
