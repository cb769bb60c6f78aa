"""Exact reduced states and entanglement measures for spins under
long-range diagonal (Ising-type) couplings.

The evolution is a product of commuting controlled-phase gates, which
keeps every reduced density matrix in closed form: a subset of up to ten
sites costs one sweep over the rest of the lattice (linear in N), so
systems of 10^5 spins are routine.  A brute-force statevector path covers
N <= 20 as ground truth, and the t=pi cutoff special case (graph states)
gets exact integer entropies from GF(2) ranks.
"""

from .geometry import (
    ConfigError,
    CouplingLaw,
    Cutoff,
    Disordered,
    EdgeProfile,
    Exponential,
    Lattice,
    PhaseProfile,
    PowerLaw,
    Table,
    centered_block,
)
from .graphstate import (
    NotAGraphStateError,
    analytic_block_entropy,
    block_adjacency,
    connected_vertex_count,
    gf2_rank,
)
from .measures import (
    NotPositiveSemidefiniteError,
    assistance_and_localizable_bounds,
    block_entropy,
    block_entropy_lower,
    block_entropy_upper,
    concurrence,
    concurrence_of_assistance,
    correlation_matrix,
    entropy,
    max_correlation,
    meyer_wallach,
    trace_distance,
)
from .rdm import (
    A_MAX,
    ProductInput,
    SubsetTooLargeError,
    environment_factor,
    environment_product,
    reduced_density,
    single_site_coherence,
)

__version__ = "0.1.0"

__all__ = [
    "A_MAX",
    "ConfigError",
    "CouplingLaw",
    "Cutoff",
    "Disordered",
    "EdgeProfile",
    "Exponential",
    "Lattice",
    "NotAGraphStateError",
    "NotPositiveSemidefiniteError",
    "PhaseProfile",
    "PowerLaw",
    "ProductInput",
    "SubsetTooLargeError",
    "Table",
    "analytic_block_entropy",
    "assistance_and_localizable_bounds",
    "block_adjacency",
    "block_entropy",
    "block_entropy_lower",
    "block_entropy_upper",
    "centered_block",
    "concurrence",
    "concurrence_of_assistance",
    "connected_vertex_count",
    "correlation_matrix",
    "entropy",
    "environment_factor",
    "environment_product",
    "gf2_rank",
    "max_correlation",
    "meyer_wallach",
    "reduced_density",
    "single_site_coherence",
    "trace_distance",
    "__version__",
]
