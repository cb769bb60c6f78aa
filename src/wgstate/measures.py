"""Entanglement and correlation measures on reduced density matrices.

Dense-matrix quantities (entropy, concurrence, trace distance) operate on
explicit arrays from :func:`wgstate.rdm.reduced_density`; the pair measures
take a (..., 4, 4) stack in one batched diagonalization, row b bit for bit
the call on row b alone.  Block entropies beyond the exact-diagonalization
ceiling are bracketed instead of computed: an upper bound from
subadditivity over a sliding chain of small sub-blocks, and a lower bound
from truncating the environment to a finite interaction radius (dropping
environment couplings can only make the reduced spectrum more ordered,
never less).  Every function that takes sites checks them and the input
state against the contract in :mod:`wgstate.rdm` first, with the lattice as
the size limit for the bounds and :func:`meyer_wallach`.

All entropies are in bits (log base 2), so a block of L spins maxes out at
L and a maximally mixed pair of levels gives exactly 1.
"""

from __future__ import annotations

import numpy as np

from .geometry import displacement_phases, pair_phases
from .rdm import (A_MAX, ENV_SLAB, ProductInput, SubsetTooLargeError, _check_subset,
                  _resolve_environment, reduced_density, trace_to)

# Pauli x, y, z stacked along the first axis
_PAULIS = np.array([[[0.0, 1.0], [1.0, 0.0]],
                    [[0.0, -1.0j], [1.0j, 0.0]],
                    [[1.0, 0.0], [0.0, -1.0]]], dtype=np.complex128)

# sigma_y (x) sigma_y, the spin-flip kernel of the concurrence
_YY = np.kron(_PAULIS[1], _PAULIS[1])


# Most negative eigenvalue a density matrix may show from rounding.
_PSD_TOL = 1e-8


class NotPositiveSemidefiniteError(ValueError):
    """Matrix has a negative eigenvalue beyond numerical tolerance."""


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, -sum p log2 p over the spectrum."""
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -_PSD_TOL:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {evals.min()!r} below -{_PSD_TOL}; not a density matrix")
    p = evals[evals > 0.0]
    return float(-(p * np.log2(p)).sum())


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * trace norm of rho - sigma."""
    evals = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.abs(evals).sum())


# ---------------------------------------------------------------------------
# Block entropies
# ---------------------------------------------------------------------------

def block_entropy(profile, state: ProductInput, sites, outer=None) -> float:
    """Exact entanglement entropy of the block, in bits.

    Phases internal to the block are a diagonal unitary and drop out of the
    spectrum, so they are skipped.  Blocks above ``A_MAX`` sites raise; use
    :func:`block_entropy_upper` / :func:`block_entropy_lower` there.

    ``outer = (outer_sites, outer_rho)``, a block holding ``sites`` and its
    ``reduced_density`` with internal phases included, skips the sweep: the
    state is traced out of ``outer_rho``.  A ρ built with ``include_internal=False``
    is another state of any proper subset: its dropped phases couple kept and traced sites.
    """
    sites = _check_subset(profile, sites, state)
    if outer is None:
        return entropy(reduced_density(profile, state, sites, include_internal=False))
    return entropy(trace_to(outer[1], outer[0], sites))


def block_entropy_upper(profile, state: ProductInput, sites, m: int = 4,
                        exact: float | None = None) -> float:
    """Upper bound on the block entropy from a chain of sub-blocks.

    Split the block into consecutive sub-blocks L_1..L_n of ``m`` sites
    (the last one absorbs any remainder).  Strong subadditivity telescopes
    to

        S(block) <= sum_i S(L_i, L_{i+1}) - sum of interior S(L_i),

    which costs n exact diagonalizations of at most 2m-ish sites instead of
    one of len(sites).  The bound is exact whenever correlations do not
    reach beyond adjacent sub-blocks, and is clipped to the trivial range
    [0, len(sites)].

    With a single sub-block the bound is the block entropy itself; pass it
    as ``exact`` when it is already known and the block is not swept again.
    """
    sites = _check_subset(profile, sites, state, profile.n_sites)
    total = sites.size
    if m < 1:
        raise ValueError("sub-block size m must be at least 1")
    n = total // m
    if n <= 1:
        if exact is None:
            exact = block_entropy(profile, state, sites)
        return min(exact, float(total))
    blocks = [sites[i * m:(i + 1) * m] for i in range(n - 1)]
    blocks.append(sites[(n - 1) * m:])
    if blocks[-1].size + m > A_MAX:
        raise SubsetTooLargeError(
            f"adjacent sub-blocks span {blocks[-1].size + m} sites, over the "
            f"limit of {A_MAX}; pick m so that 3*m - 1 <= {A_MAX}")
    bound = 0.0
    for left, right in zip(blocks[:-1], blocks[1:]):
        bound += block_entropy(profile, state, np.concatenate([left, right]))
    for inner in blocks[1:-1]:
        bound -= block_entropy(profile, state, inner)
    return min(max(bound, 0.0), float(total))


def block_entropy_lower(profile, state: ProductInput, sites, radius: float) -> float:
    """Lower bound on the block entropy from a truncated environment.

    Only environment sites within ``radius`` of the block are kept;
    couplings to everything farther out are dropped.  Dropping environment
    couplings makes the reduced spectrum majorize the true one, so the
    entropy of the truncated state never exceeds the true value.  The bound
    is exact once ``radius`` covers every site that is actually coupled.

    The truncated global state is pure on (block + kept environment), so
    both sides of that cut carry the same spectrum.  Whichever side fits
    the exact-diagonalization ceiling is diagonalized -- for a big block
    with a small radius that is the kept environment, which is what makes
    the bound affordable exactly where the exact entropy is not.
    """
    sites = _check_subset(profile, sites, state, profile.n_sites)
    lattice = getattr(profile, "lattice", None)
    if lattice is None:
        raise TypeError("profile has no lattice geometry; the finite-radius "
                        "bound needs distances")
    rest = _resolve_environment(profile, sites)
    min_dist = np.full(rest.size, np.inf)
    for k in sites:
        np.minimum(min_dist, lattice.distances(int(k), rest), out=min_dist)
    near = rest[min_dist <= radius]
    if near.size == 0:
        return 0.0
    if sites.size <= A_MAX:
        rho = reduced_density(profile, state, sites, include_internal=False,
                              environment=near)
    elif near.size <= A_MAX:
        rho = reduced_density(profile, state, near, include_internal=False,
                              environment=sites)
    else:
        raise SubsetTooLargeError(
            f"both the block ({sites.size} sites) and the kept environment "
            f"({near.size} sites) exceed the limit of {A_MAX}; shrink radius")
    return entropy(rho)


# ---------------------------------------------------------------------------
# Two-site correlations and pair entanglement
# ---------------------------------------------------------------------------

def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """Connected correlation matrix Q[a, b] = <s_a s_b> - <s_a><s_b>.

    ``rho`` is the 4 x 4 reduced state of a pair (k, l), k the most
    significant bit, as :func:`wgstate.rdm.reduced_density` returns it for
    ``[k, l]``, or a (..., 4, 4) stack of them, which gives (..., 3, 3).
    Rows index Pauli x, y, z on site k; columns the same on site l.  The
    expectations of Hermitian observables in a Hermitian state are real; an
    imaginary part beyond rounding noise means ``rho`` is not a density
    matrix and raises ValueError, naming the stack index of the worst one.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a two-site 4 x 4 matrix, got {rho.shape}")
    # t[..., i, j, k, l] = <i j| rho |k l>, so tr(rho (A x B)) sums
    # t[i, j, k, l] A[k, i] B[l, j]; a repeated index traces a site out
    t = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    joint = np.einsum("...ijkl,aki,blj->...ab", t, _PAULIS, _PAULIS)
    ev_k = np.einsum("...ijkj,aki->...a", t, _PAULIS)
    ev_l = np.einsum("...ijil,blj->...b", t, _PAULIS)
    q = joint - ev_k[..., :, None] * ev_l[..., None, :]
    if np.abs(q.imag).max() >= 1e-9:
        worst = np.abs(q.imag).max(axis=(-2, -1))
        at = "".join(f"[{i}]" for i in np.unravel_index(worst.argmax(), worst.shape))
        raise ValueError(f"correlation matrix has imaginary part {float(worst.max())!r}; "
                         f"rho{at} is not Hermitian")
    return q.real


def max_correlation(q: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a real 3 x 3 correlation matrix, or of each in a stack."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3 x 3 correlation matrix, got {q.shape}")
    s2 = np.linalg.eigvalsh(q.swapaxes(-1, -2) @ q)[..., -1]
    # one matrix's value in Python floats, cheaper than numpy's 0-d arithmetic
    return float(np.sqrt(max(float(s2), 0.0))) if s2.ndim == 0 else np.sqrt(np.maximum(s2, 0.0))


def _spin_flip_spectrum(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a two-site 4 x 4 matrix, got {rho.shape}")
    # With rho = a a^H, the eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho)),
    # rho~ = YY rho^* YY, are the singular values of a^T YY a.  Taking them
    # directly, not as square roots of eigenvalues, keeps the small ones at
    # rounding level instead of sqrt(eps) when rho is (nearly) pure.
    w, v = np.linalg.eigh(rho)
    a = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    return np.linalg.svd(a.swapaxes(-1, -2) @ _YY @ a, compute_uv=False)


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Two-qubit concurrence, max(0, l1 - l2 - l3 - l4), of one state or a stack."""
    lam = _spin_flip_spectrum(rho).T    # l1..l4 first: numpy scalars for one state
    c = (lam[0] - lam[1] - lam[2] - lam[3]).T
    return float(max(0.0, c)) if c.ndim == 0 else np.maximum(0.0, c)


def concurrence_of_assistance(rho: np.ndarray) -> float | np.ndarray:
    """Best average pair concurrence over measurements on the rest, l1+l2+l3+l4."""
    total = _spin_flip_spectrum(rho).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def assistance_and_localizable_bounds(profile, state: ProductInput, k: int,
                                      l: int) -> tuple[float, float]:
    """(lower, upper) bracket on the entanglement localizable on sites k, l.

    Lower: the largest singular value of the connected correlation matrix.
    Upper: the concurrence of assistance of the pair's reduced state.
    The localizable entanglement itself (an optimization over measurement
    strategies on all other sites) is never computed, only bracketed.
    """
    rho = reduced_density(profile, state, [k, l])
    return max_correlation(correlation_matrix(rho)), concurrence_of_assistance(rho)


# ---------------------------------------------------------------------------
# Global entanglement
# ---------------------------------------------------------------------------

def meyer_wallach(profile, state: ProductInput, sites=None) -> float:
    """Average single-site mixedness, 2 * (1 - mean_k tr rho_k^2).

    0 for any product state, 1 when every site is maximally mixed.  Each
    site's purity comes from the closed form of its 2 x 2 reduced state.
    For a profile whose phases depend on distance alone (those with a
    :func:`~wgstate.geometry.displacement_phases` table: a
    :class:`PhaseProfile` under any law but :class:`Disordered`) and an
    input with the same populations at every site, all sites' coherences
    come from one FFT convolution over the lattice, O(N log N) whatever
    ``sites`` is.  Otherwise the cost is
    one environment sweep per listed site, O(N) each and O(N^2) for all.
    """
    n = profile.n_sites
    sites = _check_subset(profile, sites, state, n)
    amps = state.amplitudes
    p0, p1 = state.populations(np.arange(n))
    uniform = (p0 == p0[0]).all() and (p1 == p1[0]).all()
    table = displacement_phases(profile) if uniform else None
    if table is not None:
        p0, p1 = p0[0], p1[0]
        log_c = _log_coherences(table, p0, p1)[sites]
        purities = p0 ** 2 + p1 ** 2 + 2.0 * p0 * p1 * np.exp(2.0 * log_c)
        return float(2.0 * (1.0 - purities.mean()))
    purities = np.empty(sites.size)
    for i, k in enumerate(sites):
        others = _resolve_environment(profile, sites[i:i + 1])
        off = amps[k, 0] * np.conj(amps[k, 1])
        for start in range(0, others.size, ENV_SLAB):
            ls = others[start:start + ENV_SLAB]
            phi = pair_phases(profile, [k], ls)[0]
            off *= np.prod(p0[ls] + p1[ls] * np.exp(1j * phi))
        purities[i] = p0[k] ** 2 + p1[k] ** 2 + 2.0 * abs(off) ** 2
    return float(2.0 * (1.0 - purities.mean()))


def _log_coherences(table: np.ndarray, p0: float, p1: float) -> np.ndarray:
    """log prod_{l != k} |p0 + p1 exp(i phi_kl)| for every site k, in site order.

    ``table`` holds the phases by displacement, from
    :func:`wgstate.geometry.displacement_phases`, so the sum over l of
    g = log|p0 + p1 exp(i phi)| is the lattice's indicator convolved with g
    over the displacements -(E-1)..E-1 of each axis of extent E.  Along an
    axis the phase depends on |d| alone, so g is the table reflected about
    0 on every axis: the very phases ``phase_row(k, .)`` gives every site.
    Each axis is padded to a power of two >= 2E - 1, enough that the
    circular convolution does not wrap onto the sites.
    """
    extents = table.shape
    g = np.log(np.abs(p0 + p1 * np.exp(1j * table)))
    g.flat[0] = 0.0     # l = k is not in the product
    g = np.pad(g, [(e - 1, 0) for e in extents], mode="reflect")
    shape = [1 << (2 * e - 2).bit_length() for e in extents]
    axes = tuple(range(len(extents)))
    spectrum = np.fft.rfftn(np.ones(extents), s=shape, axes=axes)
    spectrum *= np.fft.rfftn(g, s=shape, axes=axes)
    total = np.fft.irfftn(spectrum, s=shape, axes=axes)
    return total[tuple(slice(e - 1, 2 * e - 1) for e in extents)].ravel()
