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
rest, come from :func:`wgstate.geometry.coupled_sites` and
:func:`wgstate.geometry.pair_phases`; for a law of distance alone every
site outside the subset's near box is folded unread: the box is its
bounding box dilated by the largest displacement whose phase (from a table
built once per profile) is not exactly 0.  The sweep costs O(|near box| * (3^m + 1) / 2) for a law of
finite support or one that underflows to 0, O(N * (3^m + 1) / 2) for the
rest, in chunks of about 2 MiB, plus an O(N) scalar fold, and O(3^m + 4^m)
memory -- linear in system size, never a 2^N statevector.

Couplings internal to A contribute pure phases exp(-i theta(x)) on the
left index and the conjugate on the right; they never change the spectrum,
so spectral quantities (entropies, eigenvalues) may skip them via
``include_internal=False``.

Input contract: every public function that takes a site list passes it,
with the input state and any explicit environment, through
:func:`_check_subset` and :func:`_resolve_environment` before other work,
and so do :mod:`wgstate.measures` and :mod:`wgstate.graphstate`.  The
sites must be non-empty, in range and distinct, and at most ``A_MAX`` of
them (:class:`SubsetTooLargeError`) for an exact reduced state; the state
must hold one amplitude pair per profile site; an environment must be in
range, distinct and disjoint from the sites.  A breach raises ValueError.

Bit convention: the first site listed in ``sites`` is the most significant
bit of the row/column index, matching the statevector layout used by the
brute-force cross-check in :mod:`wgstate.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import coupled_sites, pair_phases

# Hard ceiling on subset size: 3^10 difference classes and a 1024 x 1024
# matrix are fine; a few sites more and the 3^m table stops fitting in cache
# long before the 4^m matrix stops fitting in RAM.
A_MAX = 10

# Complex entries per sweep chunk (chunk sites x (3^m + 1) / 2 classes):
# 2 MiB, so the working set of a chunk stays in cache.
_CHUNK_BUDGET = 131_072

# Environment sites per slab of phase rows in every sweep, so that memory
# for the phases is bounded by this, not by the lattice size.
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
        bad = np.abs(norms - 1.0) > 1e-12
        if np.any(bad):
            site = int(np.argmax(bad))
            raise ValueError(
                f"site {site} amplitudes not normalized (|a0|^2 + |a1|^2 = {norms[site]!r})")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_populations", pops)
        object.__setattr__(self, "_norms", norms)
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
    """Checked index array of ``sites`` (None: every site) for ``state``."""
    n_sites = profile.n_sites
    if state is not None and state.n_sites != n_sites:
        raise ValueError(f"input state has {state.n_sites} sites, the profile {n_sites}")
    if sites is None:
        return np.arange(n_sites)
    sites = np.asarray(sites, dtype=np.intp).ravel()
    if sites.size == 0:
        raise ValueError("subset must contain at least one site")
    if sites.size > a_max:
        raise SubsetTooLargeError(
            f"subset of {sites.size} sites exceeds the limit of {a_max}; "
            "cost grows as 3^m, use the entropy bounds for larger blocks")
    if sites.min() < 0 or sites.max() >= n_sites:
        raise ValueError(f"site index out of range 0..{n_sites - 1}")
    if len(set(sites.tolist())) != sites.size:
        raise ValueError(f"subset contains repeated sites: {sites.tolist()}")
    return sites


def _resolve_environment(profile, sites: np.ndarray, environment=None) -> np.ndarray:
    """Every site outside checked ``sites``, or ``environment`` checked."""
    n_sites = profile.n_sites
    if environment is None:
        mask = np.ones(n_sites, dtype=bool)
        mask[sites] = False
        return np.flatnonzero(mask)
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

    Only the codes up to the center (d = 0) are swept; the others follow
    from E(-d) = conj E(d).  Environment sites whose phases to every subset
    site are exactly 0.0 give every class the same factor p0_l + p1_l, so
    they are multiplied in as one scalar instead of being swept.  A law of
    distance alone is looked at only in the subset's near box, but its
    phase table spans every lattice displacement: a :class:`Table` law
    missing any lattice distance raises ValueError, whatever the subset.
    """
    sites = _check_subset(profile, sites, state)
    env = _resolve_environment(profile, sites, environment)
    m = sites.size
    center = (3 ** m - 1) // 2      # code of d = 0
    n_lead = 3 ** (m - 1)           # codes with d_0 = -1; the rest have d_0 = 0
    half = np.ones(center + 1, dtype=np.complex128)   # codes 0..center
    uncoupled = 1.0
    chunk = max(1, _CHUNK_BUDGET // half.size)
    buf = np.empty((min(chunk, env.size), half.size), dtype=np.complex128)
    for start in range(0, env.size, ENV_SLAB):
        ls = env[start:start + ENV_SLAB]
        near = coupled_sites(profile, sites, ls)
        phi = pair_phases(profile, sites, ls[near])
        live = (phi != 0.0).any(axis=0)
        coupled = np.zeros(ls.size, dtype=bool)
        coupled[near[live]] = True
        if not coupled.all():
            # every class gets the same factor p0 + p1 from these sites
            uncoupled *= float(np.prod(state._norms[ls[~coupled]]))
        p0, p1 = state.populations(ls[coupled])
        phi = phi[:, live]
        for lo in range(0, p0.size, chunk):
            z = np.exp(-1j * phi[:, lo:lo + chunk])
            c = z.shape[1]
            # Staged Kronecker sweep over the trailing sites, the most
            # significant one applied last: w[:, code] holds
            # p1 * exp(-i sum_{k>=j} phi_kl d_k) for every partial code.
            w = p1[lo:lo + chunk, None].astype(np.complex128)
            for j in range(m - 1, 0, -1):
                col = z[j, :, None]
                nxt = np.empty((c, 3, w.shape[1]), dtype=np.complex128)
                np.multiply(w, col.conj(), out=nxt[:, 0])
                nxt[:, 1] = w
                np.multiply(w, col, out=nxt[:, 2])
                w = nxt.reshape(c, -1)
            # Site 0 last, and only as far as the center: all of d_0 = -1,
            # the lower half of d_0 = 0.  E(-d) = conj E(d) gives the rest.
            f = buf[:c]
            np.multiply(w, z[0, :, None].conj(), out=f[:, :n_lead])
            f[:, n_lead:] = w[:, :half.size - n_lead]
            f += p0[lo:lo + chunk, None]
            half *= f.prod(axis=0)
    half *= uncoupled
    return np.concatenate([half, half[-2::-1].conj()])


def environment_factor(profile, state: ProductInput, sites, x, y,
                       environment=None) -> complex:
    """Environment factor for one matrix element, without the 3^m table.

    ``x`` and ``y`` are bit sequences over ``sites`` (first site most
    significant).  Mainly a cross-check for :func:`environment_product`,
    also usable when only a few elements of a large-subset matrix are
    needed.
    """
    sites = _check_subset(profile, sites, state, a_max=64)
    env = _resolve_environment(profile, sites, environment)
    d = np.asarray(x, dtype=np.int64) - np.asarray(y, dtype=np.int64)
    if d.shape != (sites.size,):
        raise ValueError(f"x and y must each hold {sites.size} bits")
    out = 1.0 + 0.0j
    p0, p1 = state.populations(env)
    active = np.flatnonzero(d)
    for start in range(0, env.size, ENV_SLAB):
        ls = env[start:start + ENV_SLAB]
        delta = np.zeros(ls.size, dtype=np.float64)
        for j in active:
            delta += d[j] * profile.phase_row(int(sites[j]), ls)
        vals = p0[start:start + ENV_SLAB] + p1[start:start + ENV_SLAB] * np.exp(-1j * delta)
        out *= complex(vals.prod())
    return out


def _internal_phases(profile, sites: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """theta(x) = sum_{j < j'} phi(site_j, site_j') x_j x_j' for every x."""
    theta = np.zeros(bits.shape[0], dtype=np.float64)
    for j in range(sites.size - 1):
        phis = pair_phases(profile, sites[j:j + 1], sites[j + 1:])[0]
        theta += bits[:, j] * (bits[:, j + 1:] @ phis)
    return theta


def reduced_density(profile, state: ProductInput, sites, include_internal=True,
                    environment=None) -> np.ndarray:
    """Exact reduced density matrix of the subset ``sites``.

    Rows/columns are indexed by the subset bitstring with the first listed
    site as the most significant bit.  With ``include_internal=False`` the
    phases from couplings inside the subset are dropped; that is a unitary
    diagonal conjugation, so the returned matrix is different but has the
    same spectrum (cheaper when only eigenvalues are needed).
    """
    sites = _check_subset(profile, sites, state)
    env = environment_product(profile, state, sites, environment)
    m = sites.size
    bits = _bit_table(m)
    amps = state.amplitudes[sites]
    amp = np.where(bits.astype(bool), amps[None, :, 1], amps[None, :, 0]).prod(axis=1)
    pow3 = 3 ** np.arange(m - 1, -1, -1, dtype=np.int64)
    u = bits @ pow3
    center = (3 ** m - 1) // 2
    rho = np.outer(amp, amp.conj()) * env[u[:, None] - u[None, :] + center]
    if include_internal and m > 1:
        phase = np.exp(-1j * _internal_phases(profile, sites, bits))
        rho *= phase[:, None] * phase.conj()[None, :]
    trace = rho.trace().real
    if not trace > 0:
        raise ValueError(f"reduced matrix has non-positive trace {trace!r}")
    rho /= trace
    return rho


def trace_to(rho: np.ndarray, sites, keep) -> np.ndarray:
    """Reduced state of ``keep`` (rows in its own order) traced out of ``rho``,
    ``reduced_density(..., sites)`` with internal phases included: that is
    ``reduced_density(..., keep)`` up to rounding."""
    sites = np.asarray(sites, dtype=np.intp).ravel().tolist()
    keep = np.asarray(keep, dtype=np.intp).ravel().tolist()
    m, pos = len(sites), {k: j for j, k in enumerate(sites)}
    if not keep or len(set(keep)) < len(keep) or len(pos) < m or not pos.keys() >= set(keep):
        raise ValueError(f"keep {keep} must be distinct sites of the distinct sites {sites}")
    if np.shape(rho) != (2 ** m, 2 ** m):
        raise ValueError(f"rho of {m} sites must be {2 ** m} x {2 ** m}, got {np.shape(rho)}")
    # axis j is site j's row bit, axis m + j its column bit; a traced site
    # reads its column bit from its row axis, so einsum sums the diagonal
    kept = [pos[k] for k in keep]
    cols = [m + j if j in kept else j for j in range(m)]
    out = np.einsum(np.reshape(rho, (2,) * (2 * m)), [*range(m), *cols],
                    kept + [m + j for j in kept])
    return out.reshape(2 ** len(keep), -1)


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
