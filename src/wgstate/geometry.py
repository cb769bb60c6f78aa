"""Lattice geometry, coupling laws, and interaction phase profiles.

Sites live on a d-dimensional rectangular lattice and are addressed by a
linear index in row-major order, axis 0 slowest: for extents (E0, .., Ed-1)
the site at coordinates (c0, .., cd-1) has index ((c0*E1 + c1)*E2 + ..).
A coupling law maps the distance between two sites to an interaction
strength f(r); a :class:`PhaseProfile` combines lattice, law, and evolution
time into the controlled-phase angles phi(k,l) = f(r_kl) * t that drive
everything downstream.

Phases are computed on demand and reduced mod 2*pi at query time; no N x N
table is ever materialized, so memory stays O(N).  A law of distance alone
gives every pair's phase from one table over the lattice's displacements,
:func:`displacement_phases`.  Which environment sites a subset can feel, and
with what phase, is decided here alone: :func:`coupled_sites` names the
candidates (for a table, those in the subset's near box, dilated by every
displacement whose phase is not 0.0) and :func:`pair_phases` reads their
phases, from the table or one ``phase_row`` per subset site;
:func:`_pair_factors` keeps the sites with a phase other than 0.0 and
gives the factors exp(-i phi) the sweep multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np

TWO_PI = 2.0 * math.pi

_BOUNDARIES = ("open", "periodic")


class ConfigError(ValueError):
    """Malformed configuration input (bad key, value, or combination)."""


def _reduce_phase(x) -> np.ndarray:
    """x mod 2*pi, in [0, 2*pi).

    ``np.mod`` of a negative value smaller in magnitude than half an ulp of
    2*pi rounds up to 2*pi itself; that full turn is returned as 0.0.  Only
    entries outside [0, 2*pi) go through ``np.mod``, the rest are copied:
    ``np.mod`` returns those unchanged, except -0.0, which it turns into
    0.0 and which therefore counts as outside.
    """
    phi = np.array(x, dtype=np.float64)
    out = np.signbit(phi) | ~(phi < TWO_PI)
    if out.any():
        wrapped = np.mod(phi[out], TWO_PI)
        phi[out] = np.where(wrapped == TWO_PI, 0.0, wrapped)
    return phi


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
        n = math.prod(extents)
        if n < 2:
            raise ValueError("lattice must contain at least 2 sites")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "boundary", boundary)

    @property
    def dimension(self) -> int:
        return len(self.extents)

    @property
    def n_sites(self) -> int:
        return math.prod(self.extents)

    @cached_property
    def _coords(self) -> np.ndarray:
        """(n_sites, d) integer coordinates in row-major site order."""
        idx = np.arange(self.n_sites)
        out = np.empty((self.n_sites, self.dimension), dtype=np.int64)
        for axis in range(self.dimension - 1, -1, -1):
            idx, out[:, axis] = np.divmod(idx, self.extents[axis])
        return out

    def coords(self, sites) -> np.ndarray:
        return np.take(self._coords, self._check_sites(sites), axis=0)

    def site_index(self, coords: Sequence[int]) -> int:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.dimension:
            raise ValueError(f"expected {self.dimension} coordinates, got {coords}")
        idx = 0
        for c, e in zip(coords, self.extents):
            if not 0 <= c < e:
                raise ValueError(f"coordinate {coords} outside extents {self.extents}")
            idx = idx * e + c
        return idx

    def _check_sites(self, sites) -> np.ndarray:
        sites = np.asarray(sites, dtype=np.intp)
        if sites.size and (sites.min() < 0 or sites.max() >= self.n_sites):
            raise ValueError(f"site index out of range 0..{self.n_sites - 1}")
        return sites

    def distances(self, k: int, ls) -> np.ndarray:
        """Euclidean distances from site k to each site in ls."""
        (k,) = self._check_sites([k])
        ls = self._check_sites(ls)
        delta = np.abs(self._coords[ls] - self._coords[k])
        for axis, (extent, bound) in enumerate(zip(self.extents, self.boundary)):
            if bound == "periodic":
                np.minimum(delta[:, axis], extent - delta[:, axis], out=delta[:, axis])
        if self.dimension == 1:
            return delta[:, 0].astype(np.float64)
        return np.sqrt(np.einsum("ij,ij->i", delta, delta).astype(np.float64))

    def distance(self, k: int, l: int) -> float:
        return float(self.distances(k, [l])[0])


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
    grids = np.meshgrid(*ranges, indexing="ij")
    idx = np.zeros_like(grids[0])
    for g, extent in zip(grids, lattice.extents):
        idx = idx * extent + g
    return np.sort(idx.ravel())


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
        if self.reach < 0:
            raise ValueError("reach must be non-negative")

    def strengths(self, r: np.ndarray, k=None, ls=None) -> np.ndarray:
        return np.where(r <= self.reach, 1.0, 0.0)


class Table:
    """Explicit distance -> strength lookup.

    Every queried distance must match a table entry within ``tolerance``;
    anything else is an error rather than an implicit zero.  The exact paths
    read every lattice distance at once (:func:`displacement_phases`).
    """

    def __init__(self, entries: Mapping[float, float], tolerance: float = 1e-9):
        if not entries:
            raise ValueError("table law needs at least one entry")
        items = sorted((float(r), float(f)) for r, f in entries.items())
        self._r = np.array([r for r, _ in items])
        self._f = np.array([f for _, f in items])
        self.tolerance = float(tolerance)

    def strengths(self, r: np.ndarray, k=None, ls=None) -> np.ndarray:
        pos = np.searchsorted(self._r, r)
        lo = np.clip(pos - 1, 0, len(self._r) - 1)
        hi = np.clip(pos, 0, len(self._r) - 1)
        use_hi = np.abs(self._r[hi] - r) <= np.abs(self._r[lo] - r)
        best = np.where(use_hi, hi, lo)
        if np.any(np.abs(self._r[best] - r) > self.tolerance):
            missing = np.asarray(r)[np.abs(self._r[best] - r) > self.tolerance]
            raise ValueError(f"distance {missing[0]} not in coupling table")
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
        if self.time < 0:
            raise ValueError("time must be non-negative")

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
        return _reduce_phase(f * self.time)

    def phase(self, k: int, l: int) -> float:
        if k == l:
            raise ValueError(f"phase(k, k) is undefined (got k = l = {k})")
        return float(self.phase_row(k, np.array([l]))[0])

    @cached_property
    def _displacement_table(self) -> np.ndarray:
        """Read-only table of :func:`displacement_phases`, built on first use."""
        phi = np.zeros(self.lattice.extents)
        phi.flat[1:] = self.phase_row(0, np.arange(1, self.n_sites))
        phi.setflags(write=False)
        return phi

    @cached_property
    def _displacement_factors(self) -> np.ndarray:
        """Read-only exp(-1j * phi) of every entry of ``_displacement_table``."""
        z = np.exp(-1j * self._displacement_table)
        z.setflags(write=False)
        return z

    @cached_property
    def _near_reach(self) -> np.ndarray:
        """Per-axis largest |d| with a table entry not 0.0, or 0."""
        live = self._displacement_table != 0.0
        live.flat[0] = True     # the origin: a box always holds its own subset
        return np.max(np.nonzero(live), axis=1)


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
            if k == l:
                raise ValueError(f"self-pair ({k}, {k}) has no phase")
            if not (0 <= k < self._n and 0 <= l < self._n):
                raise ValueError(f"site pair ({k}, {l}) out of range")
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
    def from_edges(cls, n_sites: int, edges, phase: float = math.pi) -> "EdgeProfile":
        """Uniform phase on the given edges (pi by default: a graph state)."""
        return cls(n_sites, {(k, l): phase for k, l in edges})

    @property
    def n_sites(self) -> int:
        return self._n

    def phase(self, k: int, l: int) -> float:
        if k == l:
            raise ValueError(f"phase(k, k) is undefined (got k = l = {k})")
        if not (0 <= k < self._n and 0 <= l < self._n):
            raise ValueError(f"site pair ({k}, {l}) out of range")
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


def displacement_phases(profile) -> np.ndarray | None:
    """Every phase of a profile whose law depends on distance alone.

    For a :class:`PhaseProfile` whose law is not :class:`Disordered`, the
    phase between two sites depends only on the absolute coordinate
    difference along each axis (the periodic minimum image is applied
    inside :meth:`Lattice.distances`).  Returns an array shaped like the
    lattice whose entry at (|d_0|, .., |d_D-1|) is the very float
    ``profile.phase_row(k, l)`` gives for any k, l that far apart: it is
    site 0's phase row, read in one ``phase_row`` call the first time a
    profile is asked and kept, read-only, for the profile's lifetime.  The
    entry at the origin (k = l) is 0.0.  Any other profile returns None.
    """
    if not isinstance(profile, PhaseProfile) or isinstance(profile.law, Disordered):
        return None
    return profile._displacement_table


def coupled_sites(profile, sites, ls) -> np.ndarray:
    """Ascending positions in ``ls`` of the sites that may couple to ``sites``.

    ``sites`` is one subset or a (B, m) stack of them.  With a
    :func:`displacement_phases` table these are the sites inside the near
    box of a subset, or of any subset of a stack: its bounding box dilated,
    along each axis, by the largest |d| along it whose table entry is not
    0.0 (on a periodic axis the table is indexed by |d| before the minimum
    image, so this holds there).  Every site outside it has phase exactly
    0.0 to every site of the subset.  For any other profile they are all
    positions.
    """
    if displacement_phases(profile) is None:
        return np.arange(len(ls))
    reach = profile._near_reach
    lattice = profile.lattice
    ends = lattice.coords(np.atleast_2d(sites))
    box = np.zeros(lattice.extents, dtype=bool)
    for lo, hi in zip(np.maximum(ends.min(axis=1) - reach, 0), ends.max(axis=1) + reach + 1):
        box[tuple(map(slice, lo, hi))] = True
    return np.flatnonzero(box.ravel()[ls])


def _table_index(lattice, sites, ls) -> np.ndarray:
    """Flat index into a displacement table of every (site, l) pair, per row of stacks."""
    ends, at = lattice.coords(sites)[..., :, None, :], lattice.coords(ls)[..., None, :, :]
    strides = np.cumprod((1,) + lattice.extents[:0:-1])[::-1]
    idx = np.zeros(ends.shape[:-2] + at.shape[-2:-1], dtype=np.intp)
    for axis, stride in enumerate(strides):
        step = ends[..., axis] - at[..., axis]
        np.abs(step, out=step)
        step *= stride
        idx += step
    return idx


def pair_phases(profile, sites, ls) -> np.ndarray:
    """The (len(sites), len(ls)) phases phi(k, l), bit for bit ``phase_row``'s,
    and 0.0 where l = k, as at the origin of a displacement table; (B, m)
    and (B, k) stacks give each row's (B, m, k).

    With a :func:`displacement_phases` table they are read from it through
    a flat index summed one axis at a time; otherwise each row is one
    ``phase_row`` call.
    """
    table = displacement_phases(profile)
    if table is None and np.ndim(sites) == 2:
        return np.stack([pair_phases(profile, row, l) for row, l in zip(sites, ls)])
    if table is None:
        ls = np.asarray(ls, dtype=np.intp)
        phi = np.zeros((len(sites), ls.size))
        for row, k in zip(phi, sites):
            other = ls != k
            row[other] = profile.phase_row(int(k), ls[other])
        return phi
    return table.ravel()[_table_index(profile.lattice, sites, ls)]


def _pair_factors(profile, sites, ls, own=False) -> tuple[np.ndarray, np.ndarray]:
    """Which sites of ``ls`` have a phase other than 0.0 to some of
    ``sites``, or with ``own`` are one of them, and the factors
    exp(-1j * phi) of ``pair_phases(profile, sites, ls)`` at those,
    (len(sites), count).

    With a :func:`displacement_phases` table phases and factors are read
    through one index, the factors from ``exp(-1j * table)``, computed once
    per profile and kept read-only beside the table: bit for bit ``np.exp``
    of the same phases, without one complex ``exp`` per pair.
    """
    table = displacement_phases(profile)
    if table is None:
        phi = pair_phases(profile, sites, ls)
    else:
        idx = _table_index(profile.lattice, sites, ls)
        phi = table.ravel()[idx]
    live = (phi != 0.0).any(axis=0)
    if own:
        live |= np.isin(ls, sites)
    if table is None:
        return live, np.exp(-1j * phi[:, live])
    return live, profile._displacement_factors.ravel()[idx[:, live]]


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
