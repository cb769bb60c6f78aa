import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgstate.geometry import (
    Cutoff,
    EdgeProfile,
    Exponential,
    Lattice,
    PhaseProfile,
    PowerLaw,
    time_profiles,
)
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
    trace_distance,
)
from wgstate.oracle import evolve, partial_trace, random_instance
from wgstate.rdm import A_MAX, ProductInput, SubsetTooLargeError, reduced_density, trace_to

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def _purity(rho):
    return float(np.einsum("ij,ji->", rho, rho).real)


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


def test_entropy_of_a_pure_state_is_plus_zero():
    # the one term of a pure spectrum, 1 * log2(1), sums to -0.0 when negated
    for rho in (np.diag([1.0, 0.0]), np.full((2, 2), 0.5), np.diag([0.0, 1.0, 0.0, 0.0])):
        assert math.copysign(1.0, entropy(rho)) == 1.0
    assert math.copysign(1.0, entropy(np.diag([1.0, 0.0])[None])[0]) == 1.0


def test_entropy_of_a_stack_is_each_matrix_alone():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 8, 3)) + 1j * rng.standard_normal((5, 8, 3))
    rhos = a @ a.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    values = entropy(rhos)
    assert isinstance(values, np.ndarray) and values.shape == (5,)
    assert values.tobytes() == np.array([entropy(rho) for rho in rhos]).tobytes()
    assert isinstance(entropy(rhos[0]), float)
    rhos[3] = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotPositiveSemidefiniteError, match=r"of rho\[3\]"):
        entropy(rhos)


def test_trace_to_a_stack_is_each_matrix_alone():
    profile = PhaseProfile(Lattice(40), PowerLaw(1.0), 0.0)
    state = ProductInput.random(40, np.random.default_rng(6))
    sites, keep = [20, 21, 23], [23, 20]
    rhos = reduced_density(time_profiles(profile, [0.0, 0.4, math.pi]), state, sites)
    traced = trace_to(rhos, sites, keep)
    assert traced.shape == (3, 4, 4)
    assert traced.tobytes() == np.stack([trace_to(rho, sites, keep) for rho in rhos]).tobytes()
    outer = block_entropy(profile, state, keep, outer=(sites, rhos))
    assert outer.tobytes() == entropy(traced).tobytes()
    with pytest.raises(ValueError, match="must be 8 x 8"):
        trace_to(rhos[None], sites, keep)


def test_trace_distance_values():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(a, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-14)


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


def test_block_entropy_lower_rejects_a_nan_radius():
    prof = PhaseProfile(Lattice(20), PowerLaw(alpha=2.0), time=0.5)
    state = ProductInput.plus(20)
    with pytest.raises(ValueError, match="radius nan"):
        block_entropy_lower(prof, state, [8, 9], radius=math.nan)
    # a negative radius keeps nothing: the true lower bound 0
    assert block_entropy_lower(prof, state, [8, 9], radius=-1.0) == 0.0


def test_block_entropy_lower_rejects_empty_block():
    prof = PhaseProfile(Lattice(10), PowerLaw(alpha=2.0), time=0.5)
    with pytest.raises(ValueError, match="subset must contain at least one site"):
        block_entropy_lower(prof, ProductInput.plus(10), [], radius=1.0)


def test_block_entropy_lower_rejects_sites_out_of_range():
    prof = PhaseProfile(Lattice(10), PowerLaw(alpha=2.0), time=0.5)
    for sites in ([3, 10], [-1]):
        with pytest.raises(ValueError, match="site index out of range"):
            block_entropy_lower(prof, ProductInput.plus(10), sites, radius=1.0)


def test_block_entropy_lower_full_radius_is_exact():
    lat = Lattice(10)
    prof = PhaseProfile(lat, PowerLaw(alpha=1.0), time=0.3 * math.pi)
    state = ProductInput.plus(10)
    sites = [3, 4, 5]
    exact = block_entropy(prof, state, sites)
    low = block_entropy_lower(prof, state, sites, radius=100.0)
    assert abs(low - exact) < 1e-12


def test_block_entropy_lower_routes_agree():
    # a block over the ceiling with one kept site takes the small-environment
    # route; the global state is pure, so the kept site's own entropy is the
    # bound, and the radius covers every coupling, so the bound is exact
    lat = Lattice(13)
    prof = PhaseProfile(lat, PowerLaw(alpha=3.0), time=0.3 * math.pi)
    state = ProductInput.plus(13)
    sites = [l for l in range(13) if l != 5]
    assert len(sites) > A_MAX
    dual = block_entropy_lower(prof, state, sites, radius=100.0)
    assert dual > 0.1
    assert abs(dual - block_entropy(prof, state, [5])) < 1e-12


# (lattice, block, radius): the block's side diagonalized, then the kept
# environment's; radii between lattice distances keep sites at sqrt(2),
# sqrt(5) and sqrt(3) that floor(radius) would drop
LOWER_CASES = {
    "chain_open": (Lattice(16), range(5, 9), 2.5),
    "chain_periodic": (Lattice(16, "periodic"), [15, 0, 1], 3.0),
    "grid_periodic": (Lattice((6, 6), "periodic"), [14, 15, 20, 21], math.sqrt(2.0)),
    "grid_mixed": (Lattice((5, 7), ("open", "periodic")), [0, 6, 13], 2.5),
    "cube_open": (Lattice((3, 3, 4)), [13, 17], math.sqrt(3.0)),
    "env_chain": (Lattice(14), range(1, 12), 1.5),
    "env_grid": (Lattice((5, 5)), range(11), 1.5),
    "env_cube": (Lattice((4, 3, 2), ("open", "periodic", "periodic")), range(11), 1.5),
}


@pytest.mark.parametrize("case", list(LOWER_CASES))
def test_block_entropy_lower_is_the_entropy_of_the_kept_ball(case):
    # the kept environment is every site within the radius of the block, as
    # brute force finds it; whichever side fits is diagonalized
    lattice, block, radius = LOWER_CASES[case]
    block = np.asarray(block)
    profile = PhaseProfile(lattice, PowerLaw(alpha=1.5), time=0.3 * math.pi)
    state = ProductInput.random(lattice.n_sites, np.random.default_rng(3))
    rest = np.setdiff1d(np.arange(lattice.n_sites), block)
    nearest = np.min([lattice.distances(int(k), rest) for k in block], axis=0)
    ball = rest[nearest <= radius]
    assert 0 < ball.size < rest.size
    if block.size <= A_MAX:
        rho = reduced_density(profile, state, block, environment=ball)
    else:
        assert ball.size <= A_MAX
        rho = reduced_density(profile, state, ball, environment=block)
    assert block_entropy_lower(profile, state, block, radius) == entropy(rho)


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


# -- stacks of pair states ----------------------------------------------

def _pair_measures(rho):
    q = correlation_matrix(rho)
    return q, max_correlation(q), concurrence(rho), concurrence_of_assistance(rho)


def test_one_matrix_gives_floats_and_a_stack_gives_arrays():
    prof = PhaseProfile(Lattice(12), PowerLaw(alpha=1.0), time=0.3 * math.pi)
    rhos = reduced_density(prof, ProductInput.random(12, np.random.default_rng(41)),
                           [[3, 4], [3, 8], [2, 9]])
    q, q_max, c, a = _pair_measures(rhos[0])
    assert q.shape == (3, 3)
    assert type(q_max) is float and type(c) is float and type(a) is float
    q, q_max, c, a = _pair_measures(rhos)
    assert q.shape == (3, 3, 3) and q_max.shape == c.shape == a.shape == (3,)
    # any leading axes are a stack
    grid = _pair_measures(np.stack([rhos, rhos[::-1]]))
    assert [x.shape for x in grid] == [(2, 3, 3, 3), (2, 3), (2, 3), (2, 3)]
    assert np.array_equal(grid[3][1], a[::-1])


@pytest.mark.parametrize("measure, shape, message", [
    (correlation_matrix, (2, 2), "4 x 4"),
    (correlation_matrix, (5, 3, 3), "4 x 4"),
    (max_correlation, (4, 4), "3 x 3"),
    (max_correlation, (5, 2, 3), "3 x 3"),
    (concurrence, (8, 8), "4 x 4"),
    (concurrence, (5, 2, 2), "4 x 4"),
    (concurrence_of_assistance, (5, 4, 2), "4 x 4"),
])
def test_pair_measures_reject_other_trailing_shapes(measure, shape, message):
    with pytest.raises(ValueError, match=message):
        measure(np.zeros(shape))


def test_correlation_matrix_names_the_non_hermitian_row():
    rhos = np.stack([np.eye(4, dtype=np.complex128) / 4] * 5)
    rhos[3, 0, 3] = 0.25j   # no conjugate partner at [3, 0]
    with pytest.raises(ValueError, match=r"rho\[3\] is not Hermitian"):
        correlation_matrix(rhos)
    with pytest.raises(ValueError, match=r"rho\[0\]\[3\] is not Hermitian"):
        correlation_matrix(rhos[None])


@st.composite
def pair_stacks(draw):
    """(stack, oracle states): 1-6 pair states of one chain of at most 12
    sites, the whole chain (pure pairs), at t = 0 (product pairs) or
    coupled (mixed pairs), each pair also from the statevector."""
    kind = draw(st.sampled_from(["pure", "product", "mixed"]))
    n = 2 if kind == "pure" else draw(st.integers(3, 12))
    law = draw(st.sampled_from([PowerLaw(1.0), PowerLaw(3.0), Exponential(0.5), Cutoff(2.0)]))
    time = 0.0 if kind == "product" else draw(st.sampled_from([math.pi, 0.3 * math.pi, 2.1]))
    profile = PhaseProfile(Lattice(n, draw(st.sampled_from(["open", "periodic"]))), law, time)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    state = ProductInput.plus(n) if seed % 4 == 0 else ProductInput.random(
        n, np.random.default_rng(seed))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    stack = draw(st.lists(pair, min_size=1, max_size=6))
    psi = evolve(profile, state)
    return (reduced_density(profile, state, stack),
            [partial_trace(psi, sites) for sites in stack])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair_stacks())
def test_stacked_pair_measures_match_one_by_one_and_the_oracle(case):
    # one stacked call per measure gives, row by row, the very floats of a
    # call per pair (LAPACK runs the same routine on each matrix), and the
    # measures of the statevector's pair state.  The spin-flip spectrum of
    # a pure pair moves as the square root of rho's rounding: eigenvalues
    # of 1e-17 give lambda ~ 3e-9, so two roundings of one pure product
    # state differ in assistance by up to 2.3e-8 (measured, 400 examples).
    rhos, exact = case
    stacked = _pair_measures(rhos)
    for b, (rho, ref) in enumerate(zip(rhos, exact)):
        pure = np.linalg.eigvalsh(ref)[-2] < 1e-12
        tols = (1e-10, 1e-10, 1e-10, 1e-7 if pure else 1e-10)
        for got, one, want, tol in zip(stacked, _pair_measures(rho), _pair_measures(ref), tols):
            assert np.array_equal(got[b], one)
            assert np.abs(got[b] - want).max() < tol


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
        purities = [_purity(partial_trace(psi, [k])) for k in range(prof.n_sites)]
        expected = 2.0 * (1.0 - float(np.mean(purities)))
        assert abs(meyer_wallach(prof, state) - expected) < 1e-10


def test_meyer_wallach_site_subset():
    rng = np.random.default_rng(37)
    prof, state, _ = random_instance(rng, n_max=10, a_max=2)
    psi = evolve(prof, state)
    sites = [1, prof.n_sites - 2]
    purities = [_purity(partial_trace(psi, [k])) for k in sites]
    expected = 2.0 * (1.0 - float(np.mean(purities)))
    assert abs(meyer_wallach(prof, state, sites=sites) - expected) < 1e-10
