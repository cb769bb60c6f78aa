"""Exact reduced density matrices after pairwise controlled-phase evolution.

A product state evolved under commuting pairwise ZZ-type couplings stays a
"phase-decorated" product state: the amplitude of a configuration x in
{0,1}^N picks up exp(-i * sum_{k<l} phi_kl x_k x_l) on top of the product
of single-site amplitudes.  Tracing out all but a subset A of m sites then
has closed form: each environment site l contributes an independent factor

    E_l(d) = p0_l + p1_l * exp(-i * sum_{k in A} phi_kl d_k)

to the matrix element rho[x, y], where d = x - y in {-1, 0, 1}^m and
p0_l, p1_l are the environment site's populations.  The element therefore
depends on the environment only through the difference class d, so one
sweep over the environment fills a table of 3^m numbers and the full
2^m x 2^m matrix is assembled from it.  Populations are real, so
E(-d) = conj E(d) and the sweep computes only (3^m + 1) / 2 classes; sites
with no coupling to the subset contribute the constant p0_l + p1_l and are
folded in as one scalar.  Which sites those are, and the phases of the
rest, come from :func:`wgstate.geometry.coupled_sites`, asked once per
sweep for all its rows, and :func:`wgstate.geometry.pair_phases`; for a
law of distance alone every site outside the subset's near box is folded
unread: the box is its bounding box dilated by the largest displacement
whose phase (from a table built once per profile) is not exactly 0, one
box per distinct dilation.  Inside it, a site whose every phase to the
subset, reduced to (-pi, pi], is at most tau = sqrt(2^-53 / (C m^2 |env|)),
C = (1 + 2^-50) / 8, is not swept but folded at first order
(:func:`_far_field`): the log of its factor is p1 / (p0 + p1) times
-i theta to within theta^2 / 8 (1 + theta^2 / 4), so all of them together
multiply in exp(-i sum_k d_k M1_k), M1 one moment per subset site, and
their norms join the scalar, with a remainder of at most 2^-53, the unit
roundoff, in the log of every class for all of them together: below the
sweep's own rounding, a certified truncation, never a silent one.  The
sweep covers only
the box dilated by the reach at tau, which grows with N only as tau
shrinks, as N^-1/2: about ln sqrt(N) sites a side for an exponential,
as N^(1/(2 alpha)) for a power law r^-alpha, which for alpha <= 1 is
beyond any lattice (at alpha = 2 and t = 0.3 pi it spans a centred
block's whole chain up to at least 10^5 sites).  It costs
O(|tau box| * (3^m + 1) / 2), in chunks of about 2 MiB, plus O(|near
box| * m) to fold the rest and an O(N) scalar fold, and O(3^m + 4^m)
memory -- linear in system size, never a 2^N statevector.  A stack of B
subsets of m sites each is swept once, over the union of their near
boxes, at B times the classes per swept site.  So is one subset under a
grid of T times (:func:`~wgstate.geometry.time_profiles`, passed where a
profile goes): the sweep's rows carry the times, row t reading the factors
of time t's own :class:`~wgstate.geometry.PhaseProfile`, over the union of
every time's near sites; row t equals a lone call at that time to
rounding.  A sweep of at least 2 * ``_SPLIT_WORK`` site classes,
B or T rows counted, is split into contiguous parts of its near sites,
one per usable core up to two, swept on their own threads and joined in
order.

A lone subset (at one time or a grid) that the point reflection through
its centre maps onto itself -- a pair, a chain block, a box -- under a law
of distance alone gives an environment site l and its image l' the same
phases, with the subset's sites permuted by the reflection, perm: so for
an input with the same p0 and p1 at every site, E_l'(d) = E_l(d o perm).
Of each such pair only the representative, the one first in the near
sites, is swept, with the near sites in no pair (:func:`wgstate.geometry.
mirror_images`, :func:`_mirror_pairs`); the representatives' table is
multiplied in once as it is and once read at d o perm, a code past the
center as the conjugate of its opposite.  A centred block sweeps about
half its near sites, an off-centre block of a chain those in no pair
too.  The probe costs O(near) and runs only where it can pay: beyond one
chunk of near sites and from 3 classes a site.  Stacks, a law not of
distance alone, asymmetric subsets and inputs whose populations differ
between sites are swept as before, bit for bit.

Couplings internal to A contribute pure phases exp(-i theta(x)) on the
left index and the conjugate on the right.  They never change the spectrum
of A's state, but they couple the sites of A, so every reduced state
carries them: a state without them would be the wrong state of every
proper part of A.

Input contract: every public function that takes a site list passes it,
with the input state, through :func:`_check_stack` (a stack) or
:func:`_check_subset` (one subset, flattened) before other work, and
any explicit environment through :func:`_resolve_environment`;
so do :mod:`wgstate.measures` and :mod:`wgstate.graphstate`, and a
function of every site may check the state alone (:func:`_check_state`).
:func:`_check_stack` is the one home of the site rules: the state must
hold one amplitude pair per profile site; the sites must be non-empty, at
most ``A_MAX`` of them (:class:`SubsetTooLargeError`) for an exact reduced
state, in range and distinct.  An environment must be in range, distinct
and disjoint from the sites.  A breach raises ValueError.

Bit convention: the first site listed in ``sites`` is the most significant
bit of the row/column index, matching the statevector layout used by the
brute-force cross-check in :mod:`wgstate.oracle`.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import (_centred, _Grid, _grid_phases, _pair_factors, _warm, coupled_sites,
                       displacement_phases, mirror_images)

# Hard ceiling on subset size: 3^10 difference classes and a 1024 x 1024
# matrix are fine; a few sites more and the 3^m table stops fitting in cache
# long before the 4^m matrix stops fitting in RAM.
A_MAX = 10

# Complex entries per sweep chunk (chunk sites x (3^m + 1) / 2 classes x
# stacked subsets): 2 MiB, so the working set of a chunk stays in cache.
_CHUNK_BUDGET = 131_072

# Least work (near sites x (3^m + 1) / 2 classes x stacked subsets) per part
# of a sweep split over the usable cores, four chunks: a sweep of less than
# twice this runs in the calling thread.  Two parts on a 2-vCPU Xeon VM took
# 0.97-1.12 of one part's time at 0.49e6 of work, 0.67-0.87 from 0.7e6 up.
_SPLIT_WORK = 4 * _CHUNK_BUDGET

# Most parts a sweep is split into, whatever the usable cores: the split was
# measured only at two (each extra part adds a chunk-buffer set and block
# temporaries, about 2.9 MB of peak RSS).
_MAX_PARTS = 2

# Environment sites per slab of phase rows and populations in the two loops
# over the whole environment outside the sweep (environment_factor,
# single_site_coherence), so that memory for them is bounded by this, not by
# the lattice size.  On a 1/r chain of 10^6 sites (tracemalloc peaks, one
# site, random input) environment_factor takes 21.6 MiB with slabs and
# 61.0 MiB without, single_site_coherence 17.6 MiB and 45.8 MiB.
ENV_SLAB = 262_144


class SubsetTooLargeError(ValueError):
    """Requested subset exceeds the exact-diagonalization ceiling."""


@dataclass(frozen=True)
class ProductInput:
    """Initial product state, one normalized amplitude pair per site."""

    amplitudes: np.ndarray  # (n_sites, 2) complex

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] < 1:
            raise ValueError(f"amplitudes must have shape (n, 2), got {amps.shape}")
        pops = np.abs(amps[:, 0]) ** 2, np.abs(amps[:, 1]) ** 2
        norms = pops[0] + pops[1]
        bad = ~(np.abs(norms - 1.0) <= 1e-12)    # a NaN is not within either
        if np.any(bad):
            site = int(np.argmax(bad))
            raise ValueError(
                f"site {site} amplitudes not normalized (|a0|^2 + |a1|^2 = {float(norms[site])!r})")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_populations", pops)
        object.__setattr__(self, "_norms", norms)
        # every site's populations the same floats, as in |+>
        object.__setattr__(self, "_uniform", bool((pops[0] == pops[0][0]).all()
                                                  and (pops[1] == pops[1][0]).all()))
        amps.setflags(write=False)

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def plus(cls, n_sites: int) -> "ProductInput":
        """Every site in (|0> + |1>) / sqrt(2)."""
        amps = np.full((n_sites, 2), 1.0 / math.sqrt(2.0), dtype=np.complex128)
        return cls(amps)

    @classmethod
    def random(cls, n_sites: int, rng: np.random.Generator) -> "ProductInput":
        """Haar-random single-qubit state at every site."""
        raw = rng.standard_normal((n_sites, 2)) + 1j * rng.standard_normal((n_sites, 2))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        return cls(raw)

    def populations(self, sites) -> tuple[np.ndarray, np.ndarray]:
        """(p0, p1) occupation probabilities at the given sites."""
        sites = np.asarray(sites, dtype=np.intp)
        return self._populations[0][sites], self._populations[1][sites]


def _check_subset(profile, sites, state: ProductInput | None = None,
                  a_max: int = A_MAX) -> np.ndarray:
    """Checked index array of ``sites``, flattened, for ``state``:
    :func:`_check_stack` of one subset."""
    try:
        sites = np.ravel(sites)
    except ValueError:      # a ragged list, which _check_stack rejects
        pass
    return _check_stack(profile, sites, state, a_max)[0]


def _check_stack(profile, sites, state: ProductInput | None = None,
                 a_max: int = A_MAX) -> np.ndarray:
    """Checked (B, m) stack of equal-size subsets of at most ``a_max`` sites,
    for ``state``; anything but a 2-D ``sites`` is one subset, a stack of
    one.  The one home of the site rules, checked in this order: state
    size (:func:`_check_state`), stack shape (a ragged list is none),
    empty, size, range, repeats."""
    n_sites = profile.n_sites
    _check_state(profile, state)
    try:
        rows = np.asarray(sites, dtype=np.intp)
    except (TypeError, ValueError):
        raise ValueError("sites must be a subset or a stack of equal-size subsets") from None
    if rows.ndim != 2:
        rows = rows.reshape(1, -1)
    if rows.shape[0] == 0:
        raise ValueError("a stack must hold at least one subset")
    if rows.shape[1] == 0:
        raise ValueError("subset must contain at least one site")
    if rows.shape[1] > a_max:
        raise SubsetTooLargeError(
            f"subset of {rows.shape[1]} sites exceeds the limit of {a_max}; "
            "cost grows as 3^m, use the entropy bounds for larger blocks")
    if rows.min() < 0 or rows.max() >= n_sites:
        raise ValueError(f"site index out of range 0..{n_sites - 1}")
    ordered = np.sort(rows, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeats.any():
        raise ValueError(f"subset contains repeated sites: {rows[repeats.argmax()].tolist()}")
    return rows


def _check_state(profile, state: ProductInput | None) -> None:
    """Raise ValueError unless ``state`` (if any) holds one amplitude pair
    per site of ``profile``."""
    if state is not None and state.n_sites != profile.n_sites:
        raise ValueError(f"input state has {state.n_sites} sites, the profile {profile.n_sites}")


def _resolve_environment(profile, sites: np.ndarray, environment=None) -> np.ndarray:
    """Every site outside checked ``sites`` (of a stack: outside some of its
    subsets), or ``environment`` checked against every site of them."""
    n_sites = profile.n_sites
    if environment is None:
        rows = np.atleast_2d(sites)
        return np.flatnonzero(np.bincount(rows.ravel(), minlength=n_sites) < rows.shape[0])
    environment = np.asarray(environment, dtype=np.intp).ravel()
    if environment.size:
        if environment.min() < 0 or environment.max() >= n_sites:
            raise ValueError(f"environment site out of range 0..{n_sites - 1}")
        if len(set(environment.tolist())) != environment.size:
            raise ValueError("environment contains repeated sites")
        if np.isin(environment, sites).any():
            raise ValueError("environment overlaps the subset")
    return environment


def _bit_table(m: int) -> np.ndarray:
    """(2^m, m) matrix of bits, first column most significant."""
    x = np.arange(2 ** m, dtype=np.int64)[:, None]
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    return (x >> shifts) & 1


def environment_product(profile, state: ProductInput, sites, environment=None) -> np.ndarray:
    """Accumulated environment factor for every difference class.

    Returns a complex array of length 3^m indexed by the base-3 code
    sum_k (d_k + 1) * 3^(m-1-k) of d in {-1, 0, 1}^m (first site in
    ``sites`` most significant).  Entry d holds

        prod_{l in environment} [ p0_l + p1_l * exp(-i sum_k phi(site_k, l) d_k) ].

    ``environment`` defaults to every site outside the subset; passing an
    explicit list restricts the trace to those sites (the rest are treated
    as uncoupled), which is what the finite-range entropy lower bound uses.

    ``sites`` of shape (B, m) is a stack of B subsets of m sites each, and
    the result has shape (B, 3^m), row b the table of subset b; a 1-D
    ``sites`` is a stack of one and returns the 1-D table.  An explicit
    environment is shared by every row and must meet none.  The stack is
    swept once, over the union of its subsets' near boxes: a site is an
    environment site of every subset it is not part of, and enters the
    column of a subset that holds it as the factor 1.  Row b equals a
    separate call with ``sites[b]`` to rounding, not bit for bit, because
    the union sweeps sites (with phase 0.0 to that subset) that a lone
    subset folds into its scalar.

    ``profile`` may be a time grid, ``time_profiles(p, times)`` of T times
    (:func:`~wgstate.geometry.time_profiles`): the one subset ``sites``
    (not a stack) is swept at every time at once and the result is
    (T, 3^m), row t the table under the grid's profile t, its factors read
    from that profile's own tables.  The union of every time's near sites
    is swept; a site whose phases are 0.0 at every time is folded.  Row t
    equals a lone call at ``times[t]`` to rounding, within the floor
    below, not bit for bit: the grid sweeps sites with phase 0.0 at time t
    that the lone call folds, and chunks them at the stack's budget.  In
    the setting of the floor below with 11 times from 0 to pi, the largest
    difference over rows and classes, relative to the row's d = 0 entry,
    is 1.6e-15 at N = 10^3, 2.1e-14 at 10^4 and 3.5e-13 at 10^5.  A grid
    of one time takes the lone call's path, bit for bit.

    Only the codes up to the center (d = 0) are swept; the others follow
    from E(-d) = conj E(d).  Environment sites whose phases to every subset
    site are exactly 0.0 give every class the same factor p0_l + p1_l, so
    they are multiplied in as one scalar instead of being swept.  A law of
    distance alone is looked at only in the subset's near box, but its
    phase table spans every lattice displacement: a :class:`Table` law
    missing any lattice distance raises ValueError, whatever the subset.

    Far field: under a law of distance alone, the near sites whose every
    phase to every row's sites, reduced to (-pi, pi], is at most
    tau = sqrt(2^-53 / (C m^2 |env|)), C = (1 + 2^-50) / 8, are folded at
    first order instead of being swept (:func:`_far_field`).  With
    g(theta) = log(q0 + q1 e^{-i theta}), q = p / (p0 + p1), g(0) = 0,
    g'(0) = -i q1 and |g''(theta)| = q0 q1 / |q0 + q1 e^{-i theta}|^2 <=
    1 / (4 cos^2(theta / 2)), so a site's remainder past first order is at
    most theta^2 / 8 (1 + theta^2 / 4) to leading order, and theta =
    sum_k phi~_k d_k is at most m tau in magnitude: together the folded
    sites leave at most 2^-53 in the log of each class, below the rounding
    below.  Each folded phase is read once per distinct site and time; the
    table is multiplied once by exp(-i D M1^T), D the digits of the codes
    and M1[r, k] = sum_l q1_l phi~(row r's site k, l).  Where no site is
    that far, as for the power laws of wgbench's workloads and of the
    linear-cost acceptance test (alpha = 1 and 2 at N <= 10^5), at every
    t = 0 row, and for a :class:`Cutoff` at an ordinary time, nothing is
    folded or gathered and the sweep is the one without a far field, bit
    for bit; a profile without a displacement
    table (:class:`Disordered`, :class:`EdgeProfile`) never folds.  A
    64-pair stack on an Exponential(1) chain sweeps 108 sites at N = 2 *
    10^4 and 112 at 2 * 10^5, not the 1,554 of its near box; a centred
    8-site block of a PowerLaw(3) chain of 10^6 sites at t = 0.3 pi sweeps
    6,324 sites (12,648 near sites, mirror paired), not 499,996.

    Rounding: each factor carries its own rounding, so the error grows
    about linearly in the number of swept sites.  Measured for m = 2 (sites
    N/2 and N/2 + 3), PowerLaw alpha = 1, t = 0.3 pi and a random input,
    the largest relative error over the 9 classes against a
    ``np.clongdouble`` reference is 1.2e-14 at N = 10^3, 6.8e-14 at 10^4,
    6.3e-13 at 10^5 and 6.1e-12 at 10^6.  The order of the product does not
    matter at that level; forming the factors does.  With an Exponential(1)
    law in the same setting, where all but 44 to 50 sites are folded, into
    the first-order factor or the scalar of norms, it is 5.4e-15, 6.1e-14,
    5.9e-13 and 5.8e-12 (8.2e-15, 6.7e-14, 5.9e-13 and 5.8e-12 sweeping
    every site of the near box): the scalar of N norms rounds as the sweep
    did, and the fold's own 2^-53 does not show.

    Mirror pairs: one subset, alone or at a grid, under a law of distance
    alone, that the point reflection through its centre maps onto itself (a
    pair, a chain block, a box, in any order), of an input with the same
    populations at every site, |+> among them, sweeps one site of each pair
    of environment sites that are images of each other, and reads the
    other's factors from the same table at permuted classes (module
    docstring).  It applies once the near sites span more than one chunk,
    from 3 classes a site (m >= 2, or one site at two times or more);
    elsewhere, and for any other input, the sweep is the one above, bit for
    bit.  The regrouped product rounds as the plain one does: in the setting
    above but with |+>, the mirrored sweep is 4.3e-13 from the reference at
    N = 10^5 and 3.5e-12 at 10^6 (plain: 5.1e-13 and 3.5e-12).  Against the
    plain sweep of a centred block (PowerLaw alpha = 2, t = 0.3 pi, |+>) it
    differs by up to 6.3e-14 at m = 7, N = 15,000 and 3.5e-13 at m = 8,
    N = 10^5, relative to the d = 0 entry.

    Threads: a sweep of W = (near sites) x (3^m + 1) / 2 x B (or T) site
    classes is split into min(usable cores, ``_MAX_PARTS`` = 2,
    W // ``_SPLIT_WORK``) contiguous parts of its near sites
    (``_SPLIT_WORK`` = 524,288, four chunks), the usable cores read from
    ``os.sched_getaffinity``; a cgroup CPU quota is not detected.  The
    calling thread sweeps part 0, one thread each the others, every part
    into its own table and chunk buffers; the tables are multiplied in part
    order.  Mirror representatives and the sites swept alone are split so
    each, every part sweeping its share of both.  The partition
    depends only on the input and the core count, so a run repeats bit for
    bit on one machine.  A split result differs from the one-part sweep
    only by the rounding of the regrouped product, far below the floor
    above; below 2 * ``_SPLIT_WORK`` or on one usable core no thread
    starts and the sweep is the one-part sweep.
    """
    rows = _check_stack(profile, sites, state)
    env = _resolve_environment(profile, rows, environment)
    grid = isinstance(profile, _Grid)
    if grid and np.ndim(sites) == 2:
        raise ValueError("a time grid takes one subset, not a stack of subsets")
    half = _sweep(profile if grid else (profile,), state, rows, env)
    table = np.concatenate([half, half[:, -2::-1].conj()], axis=1)
    return table if np.ndim(sites) == 2 or grid else table[0]


def _sweep(profiles, state: ProductInput, rows: np.ndarray, env: np.ndarray) -> np.ndarray:
    """(R, (3^m + 1) / 2) tables, codes up to the center, over ``env``: of
    the B subsets ``rows`` under one profile (R = B), or of one subset
    under the T ``profiles`` of a time grid (R = T).  One sweep of the union
    of every row's near box, in contiguous parts on their own threads once
    it is large enough; of a lone subset's mirror pairs
    (:func:`_mirror_pairs`) only the representatives are swept."""
    n_rows = len(rows) * len(profiles)
    n_half = (3 ** rows.shape[1] + 1) // 2
    near, far = _near_and_far(profiles, rows, env)
    swept = np.zeros(env.size, dtype=bool)
    pairs = _mirror_pairs(profiles, state, rows, env, near)
    # the representatives, then the sites swept alone
    groups = [near] if pairs is None else [pairs[1], pairs[3]]
    parts = _part_count(sum(group.size for group in groups) * n_half * n_rows)
    # every lazily built table a part reads exists before any thread
    # starts; parts share only ``swept``, at disjoint positions
    _warm(profiles)
    halves = [None] * parts
    pieces = [np.array_split(group, parts) for group in groups]

    def run(p):
        try:
            halves[p] = [_sweep_part(profiles, state, rows, env, piece[p], swept)
                         for piece in pieces]
        except Exception as exc:     # raised in the calling thread below
            halves[p] = exc

    threads = [threading.Thread(target=run, args=(p,)) for p in range(1, parts)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for part in halves:
        if isinstance(part, Exception):
            raise part
    tables = halves[0]
    for part in halves[1:]:
        for table, factor in zip(tables, part):
            table *= factor
    half = tables[-1]
    if pairs is not None:
        perm, reps, images, _ = pairs
        half *= tables[0]
        half *= _mirrored(tables[0], perm)
        swept[images] = swept[reps]
    if far.size:
        half *= _far_field(profiles, state, rows, env[far])
    # every site left unswept is an environment site of every row, with the
    # same factor p0 + p1 in every class, up to the far field's phases
    half *= float(np.prod(state._norms[env[~swept]]))
    return half.T


def _near_and_far(profiles, rows: np.ndarray, env: np.ndarray):
    """Ascending positions in ``env`` of the sites a sweep of ``rows``
    under ``profiles`` multiplies in one by one (near) and of those it
    folds at first order (far, :func:`_far_field`).

    The near sites are :func:`~wgstate.geometry.coupled_sites` at
    tau = sqrt(2^-53 / (C m^2 |env|)), C = (1 + 2^-50) / 8; the far ones
    lie in its box at tau = 0 (phases not 0.0) and outside that one, so
    every phase of a far site to a row's site has |phi~| <= tau at every
    time.  Where tau is below every profile's ``PhaseProfile._rim``, the
    boxes agree and nothing is far: the near sites are those at tau = 0,
    as always for a profile without a displacement table, and the check
    costs nothing beyond them."""
    near = coupled_sites(profiles, rows, env)
    c = (1 + 2.0 ** -50) / 8
    # an empty environment has no far site, whatever tau
    tau = math.sqrt(2.0 ** -53 / (c * rows.shape[1] ** 2 * max(env.size, 1)))
    if displacement_phases(profiles[0]) is None or all(tau < p._rim for p in profiles):
        return near, near[:0]
    inner = coupled_sites(profiles, rows, env, tau)
    return inner, np.setdiff1d(near, inner, assume_unique=True)


def _far_field(profiles, state: ProductInput, rows: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """((3^m + 1) / 2, R) first-order factor of the far sites ``ls`` for the
    R rows of :func:`_sweep`, their norms p0 + p1 left out.

    With q1 = p1 / (p0 + p1), a far site's factor over its norm is
    exp(g(theta)), g(theta) = log(q0 + q1 e^{-i theta}), theta = sum_k
    phi~_k d_k.  g(0) = 0 and g'(0) = -i q1, so to first order the far
    sites together give exp(-i sum_k d_k M1[r, k]), with the moment
    M1[r, k] = sum_l q1_l phi~(row r's site k, l).  Each phase is read
    once per distinct site and time, from the table, in slabs of about
    ``_CHUNK_BUDGET / 8`` phases, so that memory stays level.
    """
    m = rows.shape[1]
    sites, which = _row_sites(profiles, rows)
    moment = np.zeros(len(profiles) * sites.size)
    slab = max(1, _CHUNK_BUDGET // 8 // moment.size)
    for start in range(0, ls.size, slab):
        at = ls[start:start + slab]
        phi = _grid_phases(profiles, sites, at)[0]
        moment += _centred(phi) @ (state._populations[1][at] / state._norms[at])
    digits = np.arange((3 ** m + 1) // 2)[:, None] // 3 ** np.arange(m - 1, -1, -1) % 3 - 1
    return np.exp(-1j * (digits @ moment[which].T))


def _row_sites(profiles, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sites of ``rows`` and, for each of the R rows of
    :func:`_sweep` and each subset site j, where its phases and factors are
    in what :func:`~wgstate.geometry._pair_factors` and
    :func:`~wgstate.geometry._grid_phases` give over those sites: row t of
    a grid reads time t's, offset by t * len(sites).  Read once per
    distinct site and time."""
    sites, which = np.unique(rows, return_inverse=True)
    offsets = sites.size * np.arange(len(profiles))
    return sites, (which.reshape(rows.shape) + offsets[:, None, None]).reshape(-1, rows.shape[1])


def _chunk_budget(n_rows: int) -> int:
    """Complex entries of a chunk of a sweep of ``n_rows`` rows: a stack's
    and a grid's chunk at a quarter of the budget (see :func:`_sweep_part`)."""
    return _CHUNK_BUDGET if n_rows == 1 else _CHUNK_BUDGET // 4


def _mirror_pairs(profiles, state: ProductInput, rows: np.ndarray, env: np.ndarray,
                  near: np.ndarray):
    """(perm, reps, images, alone) for a sweep of the lone subset ``rows``
    over ``env[near]`` under ``profiles``, or None: its mirror pairs of
    environment sites (:func:`~wgstate.geometry.mirror_images`), as
    positions in ``env``, the one earlier in ``near`` in ``reps`` and its
    image in ``images``, and the near sites in no pair, in order, in
    ``alone``.  An image's factor is its representative's, class d read at
    d o perm.

    None unless the input has the same populations at every site
    (``ProductInput._uniform``), which gives every site and its image the
    same factors, the subset permuted; any other input is never paired.
    None for a stack, where no pair is kept, and where the probe, O(near),
    cannot pay: where the near sites fit in one chunk, and where a sweep
    has 2 classes a site or fewer.  The probe costs about what sweeping 3
    to 5 classes a site does (30-45 ns a site at N = 10^6; a single site
    at N = 10^6: 42 ms swept, 65 ms probed and paired).
    """
    per_site = len(profiles) * ((3 ** rows.shape[1] + 1) // 2)
    if (not state._uniform or len(rows) > 1 or per_site <= 2
            or near.size * per_site <= _chunk_budget(len(profiles))):
        return None
    mirror = mirror_images(profiles, rows[0], env[near])
    if mirror is None:
        return None
    perm, image = mirror
    first = np.flatnonzero(image > np.arange(near.size))
    other = image[first]
    if not first.size:
        return None
    alone = np.ones(near.size, dtype=bool)
    alone[first] = alone[other] = False
    return perm, near[first], near[other], near[alone]


def _mirrored(half: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``half`` read at d o perm, (d o perm)_j = d_perm[j], for every code d
    up to the center: the whole table, the codes past the center from
    E(-d) = conj E(d), with its digit axes permuted (perm is an
    involution, its own inverse)."""
    full = np.concatenate([half, half[-2::-1].conj()])
    digits = full.reshape((3,) * len(perm) + half.shape[1:])
    return digits.transpose(*perm, len(perm)).reshape(full.shape)[:len(half)]


def _part_count(work: int) -> int:
    """Parts to split a sweep of ``work`` site classes into: one per usable
    core, at most ``_MAX_PARTS``, each at least ``_SPLIT_WORK``."""
    parts = min(work // _SPLIT_WORK, _MAX_PARTS)
    if parts < 2:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:      # a platform without CPU affinity
        return 1
    return min(cores, parts)


def _sweep_part(profiles, state: ProductInput, rows: np.ndarray, env: np.ndarray,
                near: np.ndarray, swept: np.ndarray) -> np.ndarray:
    """((3^m + 1) / 2, R) product of the factors of the sites ``env[near]``
    for the R rows of :func:`_sweep`, in its own accumulator and chunk
    buffers; mark in ``swept`` which of them were swept."""
    m = rows.shape[1]
    n_rows = len(rows) * len(profiles)
    n_half = (3 ** m + 1) // 2
    sites, which = _row_sites(profiles, rows)
    # chunk: swept sites whose classes, for every row, fit the budget.  A
    # stack's chunk also holds its factors and a gathered column per stage;
    # at a quarter of the budget that stays in cache (64 pairs at m = 2 on
    # a 2-vCPU Xeon VM: 4.7 ms a sweep against 7.9 ms at the whole budget).
    # block: whole chunks whose phases and factors are read at once.  A
    # profile without a table pays one phase_row call per subset site, time
    # and block, so its blocks take the whole budget; a table's gathers cost
    # nothing per call, so its blocks take an eighth, and a stack's factors
    # stay small.  A grid's T rows count as a stack's.
    budget = _chunk_budget(n_rows)
    chunk = max(1, budget // (n_rows * n_half))
    share = _CHUNK_BUDGET if displacement_phases(profiles[0]) is None else budget // 8
    block = chunk * max(1, share // (len(profiles) * sites.size * chunk))
    half = np.ones((n_half, n_rows), dtype=np.complex128)
    # The codes with d_0 = -1 and those with d_0 = 0 up to the center live
    # in two chunk buffers: numpy copies an operand that shares memory with
    # the output, and every step reads other codes than it writes.  They are
    # allocated once a part, so they page-fault in once, not once a block.
    c, n_lead = min(chunk, near.size), 3 ** (m - 1)   # codes with d_0 = -1 come first
    lead = np.empty((c, n_lead, n_rows), dtype=np.complex128)
    tail = np.empty((c, n_half - n_lead, n_rows), dtype=np.complex128)
    for start in range(0, near.size, block):
        at = near[start:start + block]
        swept[at] = _sweep_block(profiles, state, rows, sites, which, env[at], chunk,
                                 half, lead, tail)
    return half


def _sweep_block(profiles, state: ProductInput, rows: np.ndarray, sites: np.ndarray,
                 which: np.ndarray, ls: np.ndarray, chunk: int, half: np.ndarray,
                 lead: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Multiply the factors of the sites ``ls`` into ``half``, ``chunk``
    sites at a time, in the buffers ``lead`` and ``tail`` (codes with
    d_0 = -1, then d_0 = 0 up to the center); return which of them were
    swept.  Row r's site j reads the factors ``z[which[r, j]]`` of
    :func:`~wgstate.geometry._pair_factors` over ``sites``."""
    m = rows.shape[1]
    n_half, n_lead = half.shape[0], lead.shape[1]
    # only a stack's environment holds sites of its own subsets
    stack = len(rows) > 1
    live, z = _pair_factors(profiles, sites, ls, own=stack)
    ls = ls[live]
    own = (rows[:, :, None] == ls).any(axis=1) if stack else None   # (rows, sites)
    p0, p1 = state.populations(ls)
    for lo in range(0, ls.size, chunk):
        zc = z[:, lo:lo + chunk]
        c = zc.shape[1]
        w, rest = lead[:c], tail[:c]
        # (sites, classes, rows) layout.  Staged Kronecker sweep over the
        # trailing sites, the most significant one applied last: w[:, code]
        # holds p1 * exp(-i sum_{k>=j} phi_kl d_k) for every partial code,
        # d_j = -1, 0, 1 in the first, second and third k codes.  Each
        # stage reads its own copy of its factors, conjugated in place.
        w[:, 0] = p1[lo:lo + chunk, None]
        k = 1
        for j in range(m - 1, 0, -1):
            col = zc[which[:, j]].T[:, None, :]
            rest[:, :k] = w[:, :k]
            np.multiply(rest[:, :k], col, out=w[:, 2 * k:3 * k])
            w[:, k:2 * k] = rest[:, :k]
            w[:, :k] *= np.conjugate(col, out=col)
            k *= 3
        # Site 0 last, and only as far as the center: all of d_0 = -1,
        # the lower half of d_0 = 0.  E(-d) = conj E(d) gives the rest.
        rest[:] = w[:, :n_half - n_lead]
        col = zc[which[:, 0]].T[:, None, :]
        w *= np.conjugate(col, out=col)
        for f, codes in ((w, slice(None, n_lead)), (rest, slice(n_lead, None))):
            f += p0[lo:lo + chunk, None, None]
            if stack:
                # a subset's own sites enter its column as the factor 1
                f.transpose(0, 2, 1)[own[:, lo:lo + chunk].T] = 1.0
            half[codes] *= f.prod(axis=0)
    return live


def environment_factor(profile, state: ProductInput, sites, x, y,
                       environment=None) -> complex:
    """Environment factor for one matrix element, without the 3^m table.

    ``x`` and ``y`` are bit sequences over ``sites`` (first site most
    significant), every entry 0 or 1, else ValueError.  Mainly a
    cross-check for :func:`environment_product`, also usable when only a
    few elements of a large-subset matrix are needed; a single site's
    x = 0, y = 1 gives its coherence (:func:`wgstate.measures.meyer_wallach`).
    """
    sites = _check_subset(profile, sites, state, a_max=64)
    env = _resolve_environment(profile, sites, environment)
    if not {*np.ravel(x).tolist(), *np.ravel(y).tolist()} <= {0, 1}:
        raise ValueError(f"x and y must hold bits 0 or 1, got {x} and {y}")
    d = np.asarray(x, dtype=np.int64) - np.asarray(y, dtype=np.int64)
    if d.shape != (sites.size,):
        raise ValueError(f"x and y must each hold {sites.size} bits")
    out = 1.0 + 0.0j
    active = np.flatnonzero(d)
    for start in range(0, env.size, ENV_SLAB):
        ls = env[start:start + ENV_SLAB]
        delta = np.zeros(ls.size, dtype=np.float64)
        for j in active:
            delta += d[j] * profile.phase_row(int(sites[j]), ls)
        p0, p1 = state.populations(ls)
        out *= complex((p0 + p1 * np.exp(-1j * delta)).prod())
    return out


def _internal_phases(profiles, rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """theta[r, x] = sum_{j < j'} phi(rows[b, j], rows[b, j']) x_j x_j' of
    every subset b under every profile, profile after profile, every
    profile's rows from one gather.  One matrix-vector product per j for all
    rows at once: one product over all j would sum in another order than a
    lone row."""
    phi = _grid_phases(profiles, rows, rows)[0]
    theta = np.zeros((phi.shape[0], bits.shape[0]))
    for j in range(rows.shape[1] - 1):
        theta += bits[:, j] * (bits[:, j + 1:] @ phi[:, j, j + 1:, None])[..., 0]
    return theta


def reduced_density(profile, state: ProductInput, sites, environment=None) -> np.ndarray:
    """Exact reduced density matrix of the subset ``sites``.

    Rows/columns are indexed by the subset bitstring with the first listed
    site as the most significant bit.  The phases of couplings inside the
    subset are always applied, so every matrix is the state itself and
    :func:`trace_to` gives any part of it.

    A (B, m) stack of subsets returns the (B, 2^m, 2^m) matrices from one
    :func:`environment_product` sweep of the stack.  A time grid of T
    profiles (:func:`~wgstate.geometry.time_profiles`) as ``profile``
    returns the (T, 2^m, 2^m) states of the one subset ``sites`` from one
    sweep of the grid: matrix t is the state under the grid's profile t,
    to the rounding of :func:`environment_product` (bit for bit for
    T = 1), its internal phases from that profile.
    """
    rows = _check_stack(profile, sites, state)
    m = rows.shape[1]
    env = environment_product(profile, state, sites, environment).reshape(-1, 3 ** m)
    grid = isinstance(profile, _Grid)
    bits = _bit_table(m)
    amps = state.amplitudes[rows]
    amp = np.where(bits.astype(bool), amps[:, None, :, 1], amps[:, None, :, 0]).prod(axis=2)
    pow3 = 3 ** np.arange(m - 1, -1, -1, dtype=np.int64)
    u = bits @ pow3
    center = (3 ** m - 1) // 2
    rho = amp[:, :, None] * amp.conj()[:, None, :] * env[:, u[:, None] - u[None, :] + center]
    if m > 1:
        phase = np.exp(-1j * _internal_phases(profile if grid else (profile,), rows, bits))
        rho *= phase[:, :, None] * phase.conj()[:, None, :]
    trace = rho.trace(axis1=1, axis2=2).real
    if not (trace > 0).all():
        raise ValueError(f"reduced matrix has non-positive trace {float(trace.min())!r}")
    rho /= trace[:, None, None]
    return rho if np.ndim(sites) == 2 or grid else rho[0]


def trace_to(rho: np.ndarray, sites, keep) -> np.ndarray:
    """Reduced state of ``keep`` (rows in its own order) traced out of ``rho``,
    ``reduced_density(..., sites)`` with internal phases included: that is
    ``reduced_density(..., keep)`` up to rounding.  A (T, 2^m, 2^m) stack of
    states of ``sites`` gives the stack of reduced states, row t bit for bit
    the call on ``rho[t]`` alone."""
    sites = np.asarray(sites, dtype=np.intp).ravel().tolist()
    keep = np.asarray(keep, dtype=np.intp).ravel().tolist()
    m, pos = len(sites), {k: j for j, k in enumerate(sites)}
    if not keep or len(set(keep)) < len(keep) or len(pos) < m or not pos.keys() >= set(keep):
        raise ValueError(f"keep {keep} must be distinct sites of the distinct sites {sites}")
    shape = np.shape(rho)
    if shape[-2:] != (2 ** m, 2 ** m) or len(shape) > 3:
        raise ValueError(f"rho of {m} sites must be {2 ** m} x {2 ** m}, got {shape}")
    # axis j is site j's row bit, axis m + j its column bit, after the stack
    # axis if any; a traced site reads its column bit from its row axis, so
    # einsum sums the diagonal
    kept = [pos[k] for k in keep]
    cols = [m + j if j in kept else j for j in range(m)]
    out = np.einsum(np.reshape(rho, shape[:-2] + (2,) * (2 * m)), [..., *range(m), *cols],
                    [..., *kept, *(m + j for j in kept)])
    return out.reshape(shape[:-2] + (2 ** len(keep), -1))


def single_site_coherence(profile, k: int) -> complex:
    """Closed-form off-diagonal element of a single site's reduced state.

    For the uniform-superposition input, site k's 2 x 2 reduced matrix has
    diagonal 1/2, 1/2 and off-diagonal rho[0, 1] = c / 2 with

        c = prod_{l != k} cos(phi_kl / 2) * exp(+i/2 * sum_{l != k} phi_kl).

    The phase sum uses compensated summation so the returned argument is
    reliable even when N is large and |c| has decayed to the noise floor.
    """
    others = _resolve_environment(profile, _check_subset(profile, [k]))
    mag = 1.0
    half_sum = 0.0
    for start in range(0, others.size, ENV_SLAB):
        phi = profile.phase_row(k, others[start:start + ENV_SLAB])
        mag *= float(np.prod(np.cos(0.5 * phi)))
        half_sum += 0.5 * math.fsum(phi.tolist())
    return complex(mag * np.exp(1j * half_sum))
