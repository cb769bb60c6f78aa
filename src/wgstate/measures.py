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

from .geometry import Cutoff, PhaseProfile, coupled_pairs, displacement_phases
from .rdm import (A_MAX, ProductInput, SubsetTooLargeError, _check_state, _check_subset,
                  environment_factor, reduced_density, trace_to)

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


def entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits, -sum p log2 p over the spectrum, of one
    matrix (a float) or of each of a (..., n, n) stack (an array, from one
    batched diagonalization, row t bit for bit the call on ``rho[t]`` alone).
    A pure spectrum gives +0.0."""
    evals = np.linalg.eigvalsh(rho)
    rows = evals.reshape(-1, evals.shape[-1])
    low = rows.min(axis=1)
    if (low < -_PSD_TOL).any():
        bad = np.unravel_index(low.argmin(), evals.shape[:-1])
        at = "".join(f"[{i}]" for i in bad)
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {float(low.min())!r} of rho{at} below -{_PSD_TOL}; "
            "not a density matrix")
    # + 0.0: the sum of a pure spectrum's one term p log2 p is -0.0
    values = [float(-(p * np.log2(p)).sum()) + 0.0 for p in (row[row > 0.0] for row in rows)]
    return values[0] if evals.ndim == 1 else np.reshape(values, evals.shape[:-1])


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * trace norm of rho - sigma."""
    evals = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.abs(evals).sum())


# ---------------------------------------------------------------------------
# Block entropies
# ---------------------------------------------------------------------------

def block_entropy(profile, state: ProductInput, sites, outer=None) -> float | np.ndarray:
    """Exact entanglement entropy of the block, in bits.

    Blocks above ``A_MAX`` sites raise; use :func:`block_entropy_upper` /
    :func:`block_entropy_lower` there.

    ``outer = (outer_sites, outer_rho)``, a block holding ``sites`` and its
    ``reduced_density``, skips the sweep: the state is traced out of
    ``outer_rho``.  A (T, 2^m, 2^m) ``outer_rho``, such as the states of a
    time grid (``reduced_density(time_profiles(p, times), ...)``), gives
    the T entropies as an array, as does such a grid as ``profile``.
    """
    sites = _check_subset(profile, sites, state)
    if outer is None:
        return entropy(reduced_density(profile, state, sites))
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

    With one or two sub-blocks the bound is the block entropy itself (two
    telescope to S(L_1 ∪ L_2)); pass it as ``exact`` when it is already
    known and the block is not swept again.
    """
    sites = _check_subset(profile, sites, state, profile.n_sites)
    total = sites.size
    if m < 1:
        raise ValueError("sub-block size m must be at least 1")
    n = total // m
    if n <= 1:
        exact = block_entropy(profile, state, sites) if exact is None else exact
        return min(exact, float(total))
    blocks = [sites[i * m:(i + 1) * m] for i in range(n - 1)]
    blocks.append(sites[(n - 1) * m:])
    if blocks[-1].size + m > A_MAX:
        raise SubsetTooLargeError(
            f"adjacent sub-blocks span {blocks[-1].size + m} sites, over the "
            f"limit of {A_MAX}; pick m so that 3*m - 1 <= {A_MAX}")
    if n == 2 and exact is not None:
        return min(exact, float(total))
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

    The kept sites are those a :class:`~wgstate.geometry.Cutoff` of reach
    ``radius`` couples to the block, read from
    :func:`~wgstate.geometry.coupled_pairs`: the sites within Euclidean
    distance ``radius`` of a block site, ascending, at a cost of O(N) plus
    O(|block| * |stencil|).  A NaN ``radius`` raises ValueError; a negative
    one keeps nothing, and its bound is 0.
    """
    sites = _check_subset(profile, sites, state, profile.n_sites)
    lattice = getattr(profile, "lattice", None)
    if lattice is None:
        raise TypeError("profile has no lattice geometry; the finite-radius "
                        "bound needs distances")
    if np.isnan(radius):
        raise ValueError(f"radius {radius} is not a number")
    kept = np.zeros(lattice.n_sites, dtype=bool)
    for _, l, _ in coupled_pairs(PhaseProfile(lattice, Cutoff(max(radius, 0.0)), 1.0), sites):
        kept[l] = True
    near = np.flatnonzero(kept)
    if near.size == 0:
        return 0.0
    if sites.size <= A_MAX:
        rho = reduced_density(profile, state, sites, environment=near)
    elif near.size <= A_MAX:
        rho = reduced_density(profile, state, near, environment=sites)
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
    # directly takes no square root of that product's eigenvalues, but a
    # holds the square roots of rho's: an eigenvalue of rho at rounding
    # level eps puts a column of a at sqrt(eps).  So the lambdas of a pure
    # product pair, all 0, come out at up to sqrt(eps), not eps: a |+>|+>
    # pair at t = 0 has an assistance of 8.9e-9 from the statevector's rho
    # (eigenvalues up to 6e-17) and 0.0 from the sweep's.
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
    come from running sums of the table along each axis
    (:func:`_log_coherences`), O(N * D) on a D-dimensional lattice whatever
    ``sites`` is, within 3.2e-14 of a per-site ``math.fsum`` in the log of
    the coherence at N = 10^6.  Otherwise each listed site k's coherence
    rho_k[0, 1] is a0 conj(a1) times :func:`wgstate.rdm.environment_factor`
    at x = 0, y = 1, one pass over the environment's phase rows, O(N) each
    and O(N^2) for all.
    """
    n = profile.n_sites
    if sites is None:       # every site: no index array is built or read
        _check_state(profile, state)
    else:
        sites = _check_subset(profile, sites, state, n)
    amps = state.amplitudes
    p0, p1 = state._populations
    table = displacement_phases(profile) if state._uniform else None
    if table is not None:
        p0, p1 = p0[0], p1[0]
        log_c = _log_coherences(table, p0, p1)
        if sites is not None:
            log_c = log_c[sites]
        purities = p0 ** 2 + p1 ** 2 + 2.0 * p0 * p1 * np.exp(2.0 * log_c)
        return float(2.0 * (1.0 - purities.mean()))
    if sites is None:
        sites = np.arange(n)
    # rho_k[0, 1] is a0 conj(a1) times the environment factor of x = 0, y = 1.
    # Scalar abs and square, site by site: numpy's array forms can round the
    # last bit differently, which would move E_MW off the released values.
    offs = [amps[k, 0] * np.conj(amps[k, 1]) * environment_factor(profile, state, [k], [0], [1])
            for k in sites]
    purities = [p0[k] ** 2 + p1[k] ** 2 + 2.0 * abs(off) ** 2 for k, off in zip(sites, offs)]
    return float(2.0 * (1.0 - np.mean(purities)))


def _log_coherences(table: np.ndarray, p0: float, p1: float) -> np.ndarray:
    """log prod_{l != k} |p0 + p1 exp(i phi_kl)| for every site k, in site order.

    ``table`` holds the phases by displacement, from
    :func:`wgstate.geometry.displacement_phases`, so with h = log|p0 + p1
    exp(i phi)| over the table (0 at the origin, l = k) the sum for site k
    is sum_l h(|k - l|), one axis at a time.  Along an axis of extent E,
    sum_{l=0}^{E-1} h(|k - l|) = P(k) + P(E-1-k) - h(0), with P the running
    sum of h along it: O(N * D) in all, no padding.  A periodic axis needs
    no special case: the table already holds the minimum-image phase at
    each |d|.  The running sums round more than a convolution would: against
    a per-site ``math.fsum``, 3.2e-14 absolute at N = 10^6 (a 1/r chain).
    """
    h = np.log(np.abs(p0 + p1 * np.exp(1j * table)))
    h.flat[0] = 0.0     # l = k is not in the product
    for axis in range(h.ndim):
        np.cumsum(h, axis=axis, out=h)
        h = h + np.flip(h, axis) - h.take([0], axis)
    return h.ravel()
