import math

import numpy as np
import pytest

from wgstate.geometry import Cutoff, EdgeProfile, Lattice, PhaseProfile, PowerLaw
from wgstate.measures import (
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
    purity,
    trace_distance,
)
from wgstate.oracle import evolve, partial_trace, random_instance
from wgstate.rdm import ProductInput, SubsetTooLargeError, reduced_density

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def test_entropy_values():
    assert entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-14)
    assert entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-14)
    assert entropy(np.diag([0.75, 0.25])) == pytest.approx(
        0.8112781244591328, abs=1e-14)
    assert entropy(np.eye(8) / 8) == pytest.approx(3.0, abs=1e-12)


def test_entropy_rejects_indefinite_matrices():
    with pytest.raises(NotPositiveSemidefiniteError):
        entropy(np.diag([1.0 + 1e-6, -1e-6]))
    # rounding-level negatives are treated as zero
    assert entropy(np.diag([1.0, -1e-12])) == pytest.approx(0.0, abs=1e-10)


def test_trace_distance_values():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(a, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-14)


def test_purity_values():
    assert purity(np.eye(2) / 2) == pytest.approx(0.5, abs=1e-14)
    assert purity(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)


def test_block_entropy_no_evolution():
    lat = Lattice(9)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=0.0)
    assert block_entropy(prof, ProductInput.plus(9), [2, 3, 4]) < 1e-12


def test_block_entropy_matches_oracle():
    lat = Lattice(12)
    prof = PhaseProfile(lat, PowerLaw(alpha=1.0 / 3.0), time=0.3 * math.pi)
    state = ProductInput.plus(12)
    sites = [4, 5, 6, 7]
    fast = block_entropy(prof, state, sites)
    slow = entropy(partial_trace(evolve(prof, state), sites))
    assert abs(fast - slow) < 1e-9


def test_block_entropy_saturates_at_twice_the_reach():
    # nearest-and-next couplings at phase pi: an interior block of L >= 2R
    # sites shares exactly 2R maximally entangled boundary modes
    lat = Lattice(60)
    prof = PhaseProfile(lat, Cutoff(reach=2.0), time=math.pi)
    state = ProductInput.plus(60)
    s = block_entropy(prof, state, np.arange(25, 35))
    assert abs(s - 4.0) < 1e-9


def test_block_entropy_upper_degenerate_split_is_exact():
    lat = Lattice(30)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=0.3 * math.pi)
    state = ProductInput.plus(30)
    sites = np.arange(10, 16)
    exact = block_entropy(prof, state, sites)
    assert block_entropy_upper(prof, state, sites, m=6) == pytest.approx(
        exact, abs=1e-12)
    assert block_entropy_upper(prof, state, sites, m=9) == pytest.approx(
        exact, abs=1e-12)


def test_block_entropy_upper_never_below_exact():
    rng = np.random.default_rng(21)
    for _ in range(10):
        prof, state, _ = random_instance(rng, n_max=12, a_max=4)
        hi = min(8, prof.n_sites - 2)
        sites = np.arange(1, 1 + rng.integers(2, hi + 1))
        exact = block_entropy(prof, state, sites)
        for m in (2, 3):
            bound = block_entropy_upper(prof, state, sites, m=m)
            assert bound >= exact - 1e-9


def test_block_entropy_upper_tightens_with_coarser_subblocks():
    lat = Lattice(40)
    prof = PhaseProfile(lat, PowerLaw(alpha=1.0), time=0.3 * math.pi)
    state = ProductInput.plus(40)
    sites = np.arange(12, 20)
    bounds = [block_entropy_upper(prof, state, sites, m=m) for m in (1, 2, 4, 8)]
    for coarse, fine in zip(bounds[1:], bounds[:-1]):
        assert coarse <= fine + 1e-9


def test_block_entropy_upper_exact_beyond_the_reach():
    # with couplings cut off at R and sub-blocks of m >= 2R the sliding
    # bound captures every correlated pair, so it lands on the exact value
    lat = Lattice(60)
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    state = ProductInput.plus(60)
    sites = np.arange(15, 35)
    bound = block_entropy_upper(prof, state, sites, m=4)
    assert abs(bound - 2.0) < 1e-9


def test_block_entropy_upper_remainder_absorbed_by_last_subblock():
    lat = Lattice(30)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=0.3 * math.pi)
    state = ProductInput.plus(30)
    sites = np.arange(8, 15)  # 7 sites, m=3 -> sub-blocks of 3 and 4
    bound = block_entropy_upper(prof, state, sites, m=3)
    pair = block_entropy(prof, state, sites)
    assert bound >= pair - 1e-9
    with pytest.raises(SubsetTooLargeError):
        block_entropy_upper(prof, state, np.arange(11), m=4)
    with pytest.raises(ValueError):
        block_entropy_upper(prof, state, sites, m=0)


def test_block_entropy_lower_trivial_radius():
    lat = Lattice(20)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=0.5)
    state = ProductInput.plus(20)
    assert block_entropy_lower(prof, state, [8, 9], radius=0.0) == 0.0


def test_block_entropy_lower_full_radius_is_exact():
    lat = Lattice(10)
    prof = PhaseProfile(lat, PowerLaw(alpha=1.0), time=0.3 * math.pi)
    state = ProductInput.plus(10)
    sites = [3, 4, 5]
    exact = block_entropy(prof, state, sites)
    low = block_entropy_lower(prof, state, sites, radius=100.0)
    assert abs(low - exact) < 1e-12


def test_block_entropy_lower_routes_agree():
    # forcing the small-environment route (tiny a_max) must reproduce the
    # direct route: the truncated state is pure across the cut
    lat = Lattice(12)
    prof = PhaseProfile(lat, PowerLaw(alpha=3.0), time=0.3 * math.pi)
    state = ProductInput.plus(12)
    sites = [4, 5, 6, 7]
    direct = block_entropy_lower(prof, state, sites, radius=1.0)
    dual = block_entropy_lower(prof, state, sites, radius=1.0, a_max=3)
    assert abs(direct - dual) < 1e-12


def test_block_entropy_lower_close_for_fast_decay():
    lat = Lattice(200)
    prof = PhaseProfile(lat, PowerLaw(alpha=3.0), time=0.3 * math.pi)
    state = ProductInput.plus(200)
    sites = np.arange(98, 102)
    exact = block_entropy(prof, state, sites)
    low = block_entropy_lower(prof, state, sites, radius=50.0)
    assert low <= exact + 1e-9
    assert exact - low < 0.05


def test_block_entropy_lower_requires_geometry():
    prof = EdgeProfile.from_edges(6, [(0, 1), (2, 3)])
    with pytest.raises(TypeError):
        block_entropy_lower(prof, ProductInput.plus(6), [0, 1], radius=1.0)


def test_block_entropy_lower_both_sides_too_large():
    lat = Lattice(60)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=0.5)
    state = ProductInput.plus(60)
    with pytest.raises(SubsetTooLargeError):
        block_entropy_lower(prof, state, np.arange(20, 32), radius=10.0)


def test_bounds_sandwich_exact_value():
    rng = np.random.default_rng(23)
    for _ in range(8):
        prof, state, _ = random_instance(rng, n_max=12, a_max=4)
        size = int(rng.integers(2, min(6, prof.n_sites - 1) + 1))
        start = int(rng.integers(0, prof.n_sites - size + 1))
        sites = np.arange(start, start + size)
        exact = block_entropy(prof, state, sites)
        upper = block_entropy_upper(prof, state, sites, m=2)
        lower = block_entropy_lower(prof, state, sites, radius=2.0)
        assert lower <= exact + 1e-9
        assert exact <= upper + 1e-9


def test_correlation_matrix_product_state_is_zero():
    rng = np.random.default_rng(25)
    lat = Lattice(8)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=0.0)
    state = ProductInput.random(8, rng)
    q = correlation_matrix(reduced_density(prof, state, [2, 6]))
    assert np.abs(q).max() < 1e-12


def test_correlation_matrix_matches_oracle():
    lat = Lattice(12)
    prof = PhaseProfile(lat, PowerLaw(alpha=1.0 / 3.0), time=0.3 * math.pi)
    state = ProductInput.plus(12)
    k, l = 3, 8
    q = correlation_matrix(reduced_density(prof, state, [k, l]))
    psi = evolve(prof, state)
    rho_kl = partial_trace(psi, [k, l])
    rho_k = partial_trace(psi, [k])
    rho_l = partial_trace(psi, [l])
    ref = np.empty((3, 3))
    for a, sa in enumerate(_PAULIS):
        for b, sb in enumerate(_PAULIS):
            joint = np.trace(rho_kl @ np.kron(sa, sb)).real
            ref[a, b] = joint - np.trace(rho_k @ sa).real * np.trace(rho_l @ sb).real
    assert np.abs(q - ref).max() < 1e-10


def test_correlation_matrix_vanishes_inside_stabilizer_state():
    lat = Lattice(20)
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    state = ProductInput.plus(20)
    q = correlation_matrix(reduced_density(prof, state, [9, 10]))
    assert np.abs(q).max() < 1e-10


def test_correlation_matrix_rejects_non_hermitian_rho():
    rho = np.eye(4, dtype=np.complex128) / 4
    rho[0, 3] = 0.25j  # no conjugate partner at [3, 0]
    with pytest.raises(ValueError, match="not Hermitian"):
        correlation_matrix(rho)
    with pytest.raises(ValueError, match="4 x 4"):
        correlation_matrix(np.eye(2) / 2)


def test_max_correlation_values():
    assert max_correlation(np.zeros((3, 3))) == 0.0
    q = np.zeros((3, 3))
    q[0, 0] = 0.3
    assert max_correlation(q) == pytest.approx(0.3, abs=1e-14)


def test_max_correlation_invariant_under_pauli_relabeling():
    rng = np.random.default_rng(27)
    for _ in range(20):
        q = rng.normal(size=(3, 3))
        base = max_correlation(q)
        pk = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
        pl = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
        assert max_correlation(pk @ q @ pl.T) == pytest.approx(base, abs=1e-12)


def test_concurrence_known_states():
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(np.diag([1.0, 0.0, 0.0, 0.0])) == pytest.approx(
        0.0, abs=1e-12)
    # isotropic mixture of a Bell state with white noise
    p = 0.6
    rho = p * bell + (1 - p) * np.eye(4) / 4
    assert concurrence(rho) == pytest.approx((3 * p - 1) / 2, abs=1e-12)
    with pytest.raises(ValueError):
        concurrence(np.eye(8) / 8)


def test_concurrence_of_pure_pairs_matches_determinant_formula():
    rng = np.random.default_rng(29)
    lat = Lattice(2)
    pairs = []
    for _ in range(15):
        prof = PhaseProfile(lat, PowerLaw(alpha=float(rng.uniform(0.5, 3.0))),
                            time=float(rng.uniform(0.0, 2.0 * math.pi)))
        pairs.append(evolve(prof, ProductInput.random(2, rng)))
    for _ in range(15):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pairs.append(psi / np.linalg.norm(psi))
    for psi in pairs:
        rho = np.outer(psi, psi.conj())
        expected = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert concurrence(rho) == pytest.approx(expected, abs=1e-12)
        # on a pure pair no measurement elsewhere can help
        assert concurrence_of_assistance(rho) == pytest.approx(
            expected, abs=1e-12)


def test_assistance_bounds_product_state():
    lat = Lattice(8)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=0.0)
    lower, upper = assistance_and_localizable_bounds(
        prof, ProductInput.plus(8), 2, 5)
    assert lower < 1e-10
    assert upper < 1e-6


def test_assistance_bounds_interior_stabilizer_pair():
    # correlations vanish but a measurement on the rest can always steer
    # the pair into a Bell state
    lat = Lattice(40)
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    state = ProductInput.plus(40)
    lower, upper = assistance_and_localizable_bounds(prof, state, 19, 20)
    assert lower < 1e-10
    assert abs(upper - 1.0) < 1e-8


def test_assistance_bounds_ordered():
    rng = np.random.default_rng(31)
    for _ in range(15):
        prof, state, _ = random_instance(rng, n_max=10, a_max=2)
        k, l = sorted(rng.choice(prof.n_sites, size=2, replace=False).tolist())
        lower, upper = assistance_and_localizable_bounds(prof, state, k, l)
        assert lower <= upper + 1e-8


def test_meyer_wallach_product_state():
    lat = Lattice(12)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=0.0)
    rng = np.random.default_rng(33)
    assert meyer_wallach(prof, ProductInput.random(12, rng)) < 1e-12


def test_meyer_wallach_saturates_on_stabilizer_state():
    lat = Lattice(30)
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    assert abs(meyer_wallach(prof, ProductInput.plus(30)) - 1.0) < 1e-10


def test_meyer_wallach_matches_oracle():
    rng = np.random.default_rng(35)
    for _ in range(5):
        prof, state, _ = random_instance(rng, n_max=10, a_max=2)
        psi = evolve(prof, state)
        purities = [purity(partial_trace(psi, [k])) for k in range(prof.n_sites)]
        expected = 2.0 * (1.0 - float(np.mean(purities)))
        assert abs(meyer_wallach(prof, state) - expected) < 1e-10


def test_meyer_wallach_site_subset():
    rng = np.random.default_rng(37)
    prof, state, _ = random_instance(rng, n_max=10, a_max=2)
    psi = evolve(prof, state)
    sites = [1, prof.n_sites - 2]
    purities = [purity(partial_trace(psi, [k])) for k in sites]
    expected = 2.0 * (1.0 - float(np.mean(purities)))
    assert abs(meyer_wallach(prof, state, sites=sites) - expected) < 1e-10
