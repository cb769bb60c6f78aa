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
memory -- linear in system size, never a 2^N statevector.  A stack of B
subsets of m sites each is swept once, over the union of their near
boxes, at B times the classes per swept site.

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

from .geometry import _pair_factors, coupled_sites, displacement_phases, pair_phases

# Hard ceiling on subset size: 3^10 difference classes and a 1024 x 1024
# matrix are fine; a few sites more and the 3^m table stops fitting in cache
# long before the 4^m matrix stops fitting in RAM.
A_MAX = 10

# Complex entries per sweep chunk (chunk sites x (3^m + 1) / 2 classes x
# stacked subsets): 2 MiB, so the working set of a chunk stays in cache.
_CHUNK_BUDGET = 131_072

# Environment sites per slab of phase rows in the loops over the whole
# environment outside the sweep, so that memory for the phases is bounded
# by this, not by the lattice size.
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


def _check_stack(profile, sites, state: ProductInput) -> np.ndarray:
    """Checked (B, m) stack of equal-size subsets; anything but a 2-D
    ``sites`` is one subset, a stack of one."""
    try:
        rows = np.asarray(sites, dtype=np.intp)
    except ValueError:
        raise ValueError("sites must be a subset or a stack of equal-size subsets") from None
    if rows.ndim != 2:
        return _check_subset(profile, rows, state)[None]
    if rows.shape[0] == 0:
        raise ValueError("a stack must hold at least one subset")
    _check_subset(profile, rows[0], state)
    if rows.min() < 0 or rows.max() >= profile.n_sites:
        raise ValueError(f"site index out of range 0..{profile.n_sites - 1}")
    ordered = np.sort(rows, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeats.any():
        raise ValueError(f"subset contains repeated sites: {rows[repeats.argmax()].tolist()}")
    return rows


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

    Only the codes up to the center (d = 0) are swept; the others follow
    from E(-d) = conj E(d).  Environment sites whose phases to every subset
    site are exactly 0.0 give every class the same factor p0_l + p1_l, so
    they are multiplied in as one scalar instead of being swept.  A law of
    distance alone is looked at only in the subset's near box, but its
    phase table spans every lattice displacement: a :class:`Table` law
    missing any lattice distance raises ValueError, whatever the subset.

    Rounding: each factor carries its own rounding, so the error grows
    about linearly in the number of swept sites.  Measured for m = 2 (sites
    N/2 and N/2 + 3), PowerLaw alpha = 1, t = 0.3 pi and a random input,
    the largest relative error over the 9 classes against a
    ``np.clongdouble`` reference is 1.2e-14 at N = 10^3, 6.8e-14 at 10^4,
    6.3e-13 at 10^5 and 6.1e-12 at 10^6.  The order of the product does not
    matter at that level; forming the factors does.
    """
    rows = _check_stack(profile, sites, state)
    env = _resolve_environment(profile, rows, environment)
    half = _sweep(profile, state, rows, env)
    table = np.concatenate([half, half[:, -2::-1].conj()], axis=1)
    return table if np.ndim(sites) == 2 else table[0]


def _sweep(profile, state: ProductInput, rows: np.ndarray, env: np.ndarray) -> np.ndarray:
    """(B, (3^m + 1) / 2) tables, codes up to the center, of the B subsets
    ``rows`` over ``env``: one sweep of the union of their near boxes."""
    n_rows, m = rows.shape
    n_half = (3 ** m + 1) // 2
    # phases and factors are read once per distinct subset site
    if n_rows == 1:
        sites, which = rows[0], np.arange(m)[None]
    else:
        sites, which = np.unique(rows, return_inverse=True)
        which = which.reshape(rows.shape)
    # chunk: swept sites whose classes, for every row, fit the budget.  A
    # stack's chunk also holds its factors and a gathered column per stage;
    # at a quarter of the budget that stays in cache (64 pairs at m = 2 on
    # a 2-vCPU Xeon VM: 4.7 ms a sweep against 7.9 ms at the whole budget).
    # block: whole chunks whose phases and factors are read at once.  A
    # profile without a table pays one phase_row call per subset site and
    # block, so its blocks take the whole budget; a table's gathers cost
    # nothing per call, so its blocks take an eighth, and a stack's factors
    # stay small.
    budget = _CHUNK_BUDGET if n_rows == 1 else _CHUNK_BUDGET // 4
    chunk = max(1, budget // (n_rows * n_half))
    share = _CHUNK_BUDGET if displacement_phases(profile) is None else budget // 8
    block = chunk * max(1, share // (sites.size * chunk))
    half = np.ones((n_half, n_rows), dtype=np.complex128)
    near = coupled_sites(profile, rows, env)
    swept = np.zeros(env.size, dtype=bool)
    for start in range(0, near.size, block):
        at = near[start:start + block]
        swept[at] = _sweep_block(profile, state, rows, sites, which, env[at], chunk, half)
    # every site left unswept is an environment site of every row, with the
    # same factor p0 + p1 in every class
    half *= float(np.prod(state._norms[env[~swept]]))
    return half.T


def _sweep_block(profile, state: ProductInput, rows: np.ndarray, sites: np.ndarray,
                 which: np.ndarray, ls: np.ndarray, chunk: int,
                 half: np.ndarray) -> np.ndarray:
    """Multiply the factors of the sites ``ls`` into ``half``, ``chunk``
    sites at a time; return which of them were swept.  ``rows[b, j]`` is
    ``sites[which[b, j]]``."""
    n_rows, m = rows.shape
    n_half, n_lead = half.shape[0], 3 ** (m - 1)   # codes with d_0 = -1 come first
    # only a stack's environment holds sites of its own subsets
    stack = n_rows > 1
    live, z = _pair_factors(profile, sites, ls, own=stack)
    ls = ls[live]
    own = (rows[:, :, None] == ls).any(axis=1) if stack else None   # (rows, sites)
    p0, p1 = state.populations(ls)
    # The codes with d_0 = -1 and those with d_0 = 0 up to the center live
    # in two buffers: numpy copies an operand that shares memory with the
    # output, and every step below reads other codes than it writes.
    c = min(chunk, ls.size)
    lead = np.empty((c, n_lead, n_rows), dtype=np.complex128)
    tail = np.empty((c, n_half - n_lead, n_rows), dtype=np.complex128)
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


def _internal_phases(profile, rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """theta[b, x] = sum_{j < j'} phi(rows[b, j], rows[b, j']) x_j x_j', every
    row's phases from one gather.  One matrix-vector product per j for all rows
    at once: one product over all j would sum in another order than a lone row."""
    phi = pair_phases(profile, rows, rows)
    theta = np.zeros((rows.shape[0], bits.shape[0]))
    for j in range(rows.shape[1] - 1):
        theta += bits[:, j] * (bits[:, j + 1:] @ phi[:, j, j + 1:, None])[..., 0]
    return theta


def reduced_density(profile, state: ProductInput, sites, include_internal=True,
                    environment=None) -> np.ndarray:
    """Exact reduced density matrix of the subset ``sites``.

    Rows/columns are indexed by the subset bitstring with the first listed
    site as the most significant bit.  With ``include_internal=False`` the
    phases from couplings inside the subset are dropped; that is a unitary
    diagonal conjugation, so the returned matrix is different but has the
    same spectrum (cheaper when only eigenvalues are needed).

    A (B, m) stack of subsets returns the (B, 2^m, 2^m) matrices from one
    :func:`environment_product` sweep of the stack.
    """
    rows = _check_stack(profile, sites, state)
    n_rows, m = rows.shape
    env = environment_product(profile, state, sites, environment).reshape(n_rows, -1)
    bits = _bit_table(m)
    amps = state.amplitudes[rows]
    amp = np.where(bits.astype(bool), amps[:, None, :, 1], amps[:, None, :, 0]).prod(axis=2)
    pow3 = 3 ** np.arange(m - 1, -1, -1, dtype=np.int64)
    u = bits @ pow3
    center = (3 ** m - 1) // 2
    rho = amp[:, :, None] * amp.conj()[:, None, :] * env[:, u[:, None] - u[None, :] + center]
    if include_internal and m > 1:
        phase = np.exp(-1j * _internal_phases(profile, rows, bits))
        rho *= phase[:, :, None] * phase.conj()[:, None, :]
    trace = rho.trace(axis1=1, axis2=2).real
    if not (trace > 0).all():
        raise ValueError(f"reduced matrix has non-positive trace {trace.min()!r}")
    rho /= trace[:, None, None]
    return rho if np.ndim(sites) == 2 else rho[0]


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
