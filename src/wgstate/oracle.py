"""Brute-force statevector reference for small systems.

Everything here scales as 2^N and exists only to cross-check the O(N)
machinery in :mod:`wgstate.rdm` on instances small enough to afford it.
The evolution applied to a product state is diagonal in the computational
basis, so the full statevector has the closed form

    psi[x] = prod_k a_k(x_k) * exp(-i * sum_{k<l} phi_kl * x_k * x_l)

with site 0 as the most significant bit of x, the same convention the fast
path uses for subset indices.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Cutoff, Disordered, Exponential, Lattice, PhaseProfile, PowerLaw
from .rdm import ProductInput

N_MAX = 20


def _site_bits(n: int) -> np.ndarray:
    """(n, 2^n) boolean table; row k is the bit of site k in each index."""
    idx = np.arange(2 ** n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((idx[None, :] >> shifts[:, None]) & 1).astype(bool)


def evolve(profile, state) -> np.ndarray:
    """Full statevector of the evolved product state (2^N entries)."""
    n = profile.n_sites
    if n > N_MAX:
        raise ValueError(f"statevector reference limited to {N_MAX} sites, got {n}")
    amps = np.asarray(state.amplitudes, dtype=np.complex128)
    if amps.shape != (n, 2):
        raise ValueError(f"state has {amps.shape[0]} sites, profile has {n}")
    psi = np.array([1.0 + 0.0j])
    for k in range(n):
        psi = np.kron(psi, amps[k])
    bits = _site_bits(n)
    total_phase = np.zeros(2 ** n, dtype=np.float64)
    for k in range(n - 1):
        ls = np.arange(k + 1, n)
        row = profile.phase_row(k, ls)
        both = bits[k][None, :] & bits[k + 1:]
        total_phase += row @ both
    psi *= np.exp(-1j * total_phase)
    return psi


def partial_trace(psi: np.ndarray, sites) -> np.ndarray:
    """Reduced density matrix of ``sites`` from a full statevector.

    Subset rows/columns use the same convention as the fast path: the
    first site in ``sites`` is the most significant bit.
    """
    psi = np.asarray(psi, dtype=np.complex128).ravel()
    n = int(round(np.log2(psi.size)))
    if 2 ** n != psi.size:
        raise ValueError(f"statevector length {psi.size} is not a power of 2")
    sites = np.asarray(sites, dtype=np.intp).ravel()
    if sites.size == 0 or len(set(sites.tolist())) != sites.size:
        raise ValueError("sites must be a non-empty list of distinct sites")
    if sites.min() < 0 or sites.max() >= n:
        raise ValueError(f"site index out of range 0..{n - 1}")
    rest = [ax for ax in range(n) if ax not in set(sites.tolist())]
    tensor = psi.reshape((2,) * n).transpose(list(sites) + rest)
    mat = tensor.reshape(2 ** sites.size, -1)
    return mat @ mat.conj().T


def random_instance(rng: np.random.Generator, n_max: int, a_max: int):
    """Random (profile, state, sites) triple for fast-vs-brute-force checks,
    on at most ``n_max`` sites with at most ``a_max`` of them in the subset.

    Draws varied geometry (chains and small grids, both boundary kinds),
    every coupling law family, generic and special evolution times, plus
    and fully random product inputs, and an unsorted subset so the bit
    ordering is exercised too.
    """
    if rng.random() < 0.7:
        extents: tuple[int, ...] = (int(rng.integers(4, n_max + 1)),)
    else:
        e0 = int(rng.integers(2, min(4, n_max // 2 + 1)))
        e1 = int(rng.integers(2, n_max // e0 + 1))
        extents = (e0, e1)
    boundary = str(rng.choice(["open", "periodic"]))
    lattice = Lattice(extents, boundary)
    n = lattice.n_sites

    draw = rng.random()
    if draw < 0.35:
        law = PowerLaw(alpha=float(rng.uniform(0.3, 4.0)))
    elif draw < 0.6:
        law = Exponential(kappa=float(rng.uniform(0.2, 2.0)))
    elif draw < 0.8:
        law = Cutoff(reach=float(rng.integers(1, 4)))
    else:
        law = Disordered(base=PowerLaw(alpha=float(rng.uniform(0.5, 3.0))),
                         seed=int(rng.integers(0, 2 ** 31)),
                         amplitude=(0.0, 2.0))

    draw = rng.random()
    if draw < 0.15:
        t = math.pi
    elif draw < 0.25:
        t = 0.3 * math.pi
    else:
        t = float(rng.uniform(0.0, 2.0 * math.pi))
    profile = PhaseProfile(lattice, law, t)

    if rng.random() < 0.3:
        state = ProductInput.plus(n)
    else:
        state = ProductInput.random(n, rng)

    m = int(rng.integers(1, min(a_max, n) + 1))
    sites = rng.choice(n, size=m, replace=False).astype(np.intp)
    return profile, state, sites
