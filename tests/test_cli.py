import json
import math

import numpy as np
import pytest

import wgstate.measures as measures
import wgstate.rdm as rdm
from wgstate.cli import main
from wgstate.geometry import Lattice, PhaseProfile, PowerLaw, centered_block
from wgstate.measures import block_entropy, correlation_matrix, max_correlation, meyer_wallach
from wgstate.rdm import ProductInput, reduced_density


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


CHAIN = """
[lattice]
extents = 20

[law]
variant = power
alpha = 3.0

[time]
t_over_pi = 0.3
"""

GRAPH_2D = """
[lattice]
extents = 12, 12

[law]
variant = cutoff
lambda = 1

[time]
t_over_pi = 1
"""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "wgstate" in capsys.readouterr().out


def test_usage_errors_exit_one(capsys, tmp_path):
    code, _, err = run(capsys)
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "correlations")  # missing --config
    assert code == 1
    code, _, err = run(capsys, "correlations", "--config", "/nonexistent.ini")
    assert code == 1 and "error" in err


def test_config_errors_exit_one(capsys, tmp_path):
    cfg = write_config(tmp_path, "[lattice]\nextents = 10\n")
    code, _, err = run(capsys, "correlations", "--config", cfg)
    assert code == 1 and "missing section" in err

    cfg = write_config(tmp_path, CHAIN + "[task]\nseparations = 1\n", name="ok.ini")
    code, _, err = run(capsys, "correlations", "--config", cfg, "--format", "xml")
    assert code == 1 and "usage error" in err


def test_correlations_table(capsys, tmp_path):
    cfg = write_config(tmp_path, CHAIN + "[task]\nseparations = 1:3\n")
    code, out, _ = run(capsys, "correlations", "--config", cfg)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["separation", "q_max", "concurrence", "assistance_upper"]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    q = [float(r[1]) for r in rows]
    assert all(v > 0 for v in q)
    # metadata comments carry the tool version and the config echo
    assert out.startswith("# wgstate")
    assert "# config: law.alpha = 3.0" in out


def test_correlations_json(capsys, tmp_path):
    cfg = write_config(tmp_path, CHAIN + "[task]\nseparations = 2\nsite = 5\n")
    code, out, _ = run(capsys, "correlations", "--config", cfg,
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tool"] == "wgstate"
    assert payload["command"] == "correlations"
    assert payload["columns"] == ["separation", "q_max", "concurrence",
                                  "assistance_upper"]
    assert len(payload["rows"]) == 1
    assert payload["rows"][0][0] == 2


def test_correlations_rejects_pair_outside_lattice(capsys, tmp_path):
    cfg = write_config(tmp_path, CHAIN + "[task]\nseparations = 15\n")
    code, _, err = run(capsys, "correlations", "--config", cfg)
    assert code == 1 and "outside the lattice" in err


@pytest.mark.parametrize("command, task, key", [
    ("correlations", "separations = 2, 0, 3", "'separations'"),
    ("dynamics", "separation = 0", "'separation'"),
])
def test_a_zero_separation_is_rejected_before_any_sweep(capsys, tmp_path, monkeypatch,
                                                        command, task, key):
    calls = count_sweeps(monkeypatch)
    cfg = write_config(tmp_path, CHAIN + f"[task]\n{task}\n")
    code, out, err = run(capsys, command, "--config", cfg)
    assert code == 1 and out == ""
    assert key in err and "not 0" in err
    assert calls == []


@pytest.mark.parametrize("site", [-2, 20])
def test_a_site_off_the_lattice_is_rejected_before_any_sweep(capsys, tmp_path, monkeypatch,
                                                             site):
    calls = count_sweeps(monkeypatch)
    cfg = write_config(tmp_path, CHAIN + f"[task]\nsite = {site}\nseparations = 3:4\n")
    code, out, err = run(capsys, "correlations", "--config", cfg)
    assert code == 1 and out == ""
    assert f"key 'site': {site} is outside the lattice 0..19" in err
    assert calls == []


def test_entropy_scan_blank_exact_above_ceiling(capsys, tmp_path):
    cfg = write_config(tmp_path, CHAIN.replace("extents = 20", "extents = 60")
                       + "[task]\nsizes = 2, 12\nm = 4\nradius = 3\n")
    code, out, _ = run(capsys, "entropy-scan", "--config", cfg)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["size", "exact", "upper", "lower"]
    assert len(rows) == 2
    small, large = rows
    assert small[0] == "2" and small[1] != ""
    assert large[0] == "12" and large[1] == ""  # beyond the exact ceiling
    # the bracket is ordered in every row that has both bounds
    for row in rows:
        assert float(row[3]) <= float(row[2]) + 1e-9


def test_entropy_scan_rejects_a_nan_radius(capsys, tmp_path):
    # a NaN radius keeps no site, which would read as a lower bound of 0
    cfg = write_config(tmp_path, CHAIN + "[task]\nsizes = 2, 4\nradius = nan\n")
    code, out, err = run(capsys, "entropy-scan", "--config", cfg)
    assert code == 1
    assert "radius nan is not a number" in err
    assert out == ""


GRID_8X8 = """
[lattice]
extents = 8, 8

[law]
variant = exponential
kappa = 1

[time]
t_over_pi = 0.3
"""


def test_entropy_scan_2d_sizes_are_side_lengths(capsys, tmp_path):
    # a side-4 block holds 16 sites, more than A_MAX: exact is left blank
    cfg = write_config(tmp_path, GRID_8X8 + "[task]\nsizes = 2:4\nm = 2\nradius = 0\n")
    code, out, err = run(capsys, "entropy-scan", "--config", cfg)
    assert code == 0, err
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["2", "3", "4"]
    assert rows[1][1] != "" and rows[2][1] == ""
    assert float(rows[2][2]) > float(rows[1][1])


@pytest.mark.parametrize("command,task", [
    ("entropy-scan", "sizes = 2:3\n"),
    ("bounds-scan", "size = 2\nms = 1\nradii = 0\n"),
    ("dynamics", "grid = 0:1:2\nl_max = 2\n"),
], ids=["entropy-scan", "bounds-scan", "dynamics"])
def test_start_rejected_on_a_grid(capsys, tmp_path, command, task):
    # on a grid a block size is a side length; a start would make it a run
    # of linear indices that wraps across rows
    cfg = write_config(tmp_path, GRID_8X8 + "[task]\n" + task + "start = 9\n")
    code, out, err = run(capsys, command, "--config", cfg)
    assert code == 1 and out == ""
    assert "key 'start'" in err


def test_block_size_outside_chain_exits_one(capsys, tmp_path):
    cfg = write_config(tmp_path, CHAIN + "[task]\nsizes = 25\n")
    code, _, err = run(capsys, "entropy-scan", "--config", cfg)
    assert code == 1 and "block side 25 does not fit extent 20" in err


def test_entropy_scan_start_key(capsys, tmp_path):
    cfg = write_config(tmp_path, CHAIN + "[task]\nsizes = 2\nstart = 0\n")
    code, out, _ = run(capsys, "entropy-scan", "--config", cfg)
    assert code == 0


def count_sweeps(monkeypatch, grids=None):
    """Record (subset, explicit environment or None) of every environment
    sweep, and the times of a time grid's profiles (or None) into ``grids``
    when given."""
    calls = []
    sweep = rdm.environment_product

    def counted(profile, state, sites, environment=None):
        calls.append((np.asarray(sites).tolist(),
                      None if environment is None else list(environment)))
        if grids is not None:
            grids.append([p.time for p in profile] if isinstance(profile, tuple) else None)
        return sweep(profile, state, sites, environment)

    monkeypatch.setattr(rdm, "environment_product", counted)
    return calls


def test_correlations_sweep_once_per_row(capsys, tmp_path, monkeypatch):
    calls = count_sweeps(monkeypatch)
    cfg = write_config(tmp_path, CHAIN + "[task]\nseparations = 1:5\nsite = 6\n")
    code, out, _ = run(capsys, "correlations", "--config", cfg)
    assert code == 0
    assert len(parse_csv(out)[1]) == 5
    # one sweep of the stacked pairs, not one per row
    assert [sites for sites, _ in calls] == [[[6, 6 + r] for r in range(1, 6)]]


@pytest.mark.parametrize("last", [5, 13])
def test_correlations_diagonalize_the_stack_once_per_measure(capsys, tmp_path, monkeypatch,
                                                              last):
    # concurrence and assistance each take every pair's state at once: two
    # spin-flip spectra per scan, whatever the number of pairs
    shapes = []
    spectrum = measures._spin_flip_spectrum

    def counted(rho):
        shapes.append(np.shape(rho))
        return spectrum(rho)

    monkeypatch.setattr(measures, "_spin_flip_spectrum", counted)
    cfg = write_config(tmp_path, CHAIN + f"[task]\nseparations = 1:{last}\nsite = 6\n")
    code, out, _ = run(capsys, "correlations", "--config", cfg)
    assert code == 0
    assert len(parse_csv(out)[1]) == last
    assert shapes == [(last, 4, 4)] * 2


def test_entropy_scan_sweeps_only_the_largest_exact_block(capsys, tmp_path, monkeypatch):
    # the blocks share their start, so the 10-site block's state holds every
    # smaller one; sizes below 3m leave block_entropy_upper one or two
    # sub-blocks, whose bound is the exact entropy the row already has
    calls = count_sweeps(monkeypatch)
    cfg = write_config(tmp_path, CHAIN + "[task]\nsizes = 2:10\nm = 4\nstart = 3\n")
    code, out, _ = run(capsys, "entropy-scan", "--config", cfg, "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 9
    assert [sites for sites, env in calls if env is None] == [list(range(3, 13))]
    profile = PhaseProfile(Lattice(20), PowerLaw(3.0), 0.3 * math.pi)   # CHAIN
    state = ProductInput.plus(20)
    for size, exact, upper, _ in rows:
        assert upper == exact
        assert abs(exact - block_entropy(profile, state, range(3, 3 + size))) < 1e-12


def test_bounds_scan_zips_parameter_sweeps(capsys, tmp_path):
    cfg = write_config(tmp_path, CHAIN.replace("extents = 20", "extents = 30")
                       + "[task]\nsize = 6\nms = 1, 2, 3\nradii = 0:2\n")
    code, out, _ = run(capsys, "bounds-scan", "--config", cfg)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["size", "m", "upper", "radius", "lower"]
    assert len(rows) == 3
    assert [r[1] for r in rows] == ["1", "2", "3"]
    assert [r[3] for r in rows] == ["0", "1", "2"]
    assert float(rows[0][4]) == 0.0  # radius 0 keeps nothing


def test_bounds_scan_blanks_the_shorter_list(capsys, tmp_path):
    body = CHAIN.replace("extents = 20", "extents = 30") + "[task]\nsize = 6\n"
    cfg = write_config(tmp_path, body + "ms = 1:4\nradii = 0:1\n")
    code, out, _ = run(capsys, "bounds-scan", "--config", cfg)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["1", "2", "3", "4"]
    assert [(r[3], r[4] == "") for r in rows] == [
        ("0", False), ("1", False), ("", True), ("", True)]
    assert all(r[0] == "6" and r[2] != "" for r in rows)

    cfg = write_config(tmp_path, body + "ms = 2\nradii = 0:2\n", name="b2.ini")
    code, out, _ = run(capsys, "bounds-scan", "--config", cfg, "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r[1] for r in rows] == [2, None, None]
    assert [r[2] is None for r in rows] == [False, True, True]
    assert [r[3] for r in rows] == [0, 1, 2]
    assert all(r[0] == 6 and r[4] is not None for r in rows)


def test_dynamics_grid(capsys, tmp_path):
    cfg = write_config(tmp_path, CHAIN.replace("extents = 20", "extents = 12")
                       + "[task]\ngrid = 0:0.5:3\nl_max = 2\n")
    code, out, _ = run(capsys, "dynamics", "--config", cfg)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t_over_pi", "s_1", "s_2", "q_max", "e_mw"]
    assert [float(r[0]) for r in rows] == [0.0, 0.25, 0.5]
    # nothing is entangled before the evolution starts
    assert all(abs(float(v)) < 1e-12 for v in rows[0][1:])
    assert float(rows[2][1]) > 0


def test_dynamics_sweeps_the_largest_block_and_the_pair(capsys, tmp_path, monkeypatch):
    # per grid one sweep of the largest centered block at every time, whose
    # states hold the smaller nested ones, and one of the q_max pair
    grids = []
    calls = count_sweeps(monkeypatch, grids)
    cfg = write_config(tmp_path, CHAIN + "[task]\ngrid = 0.2:0.8:3\nl_max = 4\n"
                       "separation = 3\n")
    code, out, err = run(capsys, "dynamics", "--config", cfg, "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert calls == [([8, 9, 10, 11], None), ([10, 13], None)]
    assert grids == [[row[0] * math.pi for row in rows]] * 2
    state = ProductInput.plus(20)
    for row in rows:
        profile = PhaseProfile(Lattice(20), PowerLaw(3.0), row[0] * math.pi)
        for l in range(1, 5):
            direct = block_entropy(profile, state, centered_block(profile.lattice, l))
            assert abs(row[l] - direct) < 1e-12


def test_dynamics_starts_at_plus_zero(capsys, tmp_path):
    # a pure single-site state at t = 0 has entropy +0.0, never -0.0
    cfg = write_config(tmp_path, CHAIN.replace("extents = 20", "extents = 12")
                       + "[task]\ngrid = 0:0.5:3\nl_max = 2\n")
    code, out, _ = run(capsys, "dynamics", "--config", cfg)
    assert code == 0
    assert parse_csv(out)[1][0][:2] == ["0", "0"]
    code, out, _ = run(capsys, "dynamics", "--config", cfg, "--format", "json")
    assert code == 0
    s_1 = json.loads(out)["rows"][0][1]
    assert s_1 == 0.0 and math.copysign(1.0, s_1) == 1.0


def test_a_one_step_grid_is_each_measure_alone(capsys, tmp_path):
    # one time takes the lone sweeps: every cell bit for bit the measures
    # of that time's profile, called one by one
    cfg = write_config(tmp_path, CHAIN + "[task]\ngrid = 0.35:0.9:1\nl_max = 3\n"
                       "separation = -2\n")
    code, out, err = run(capsys, "dynamics", "--config", cfg, "--format", "json")
    assert code == 0, err
    (row,) = json.loads(out)["rows"]
    profile = PhaseProfile(Lattice(20), PowerLaw(3.0), 0.35 * math.pi)
    state = ProductInput.plus(20)
    blocks = [centered_block(profile.lattice, l) for l in range(1, 4)]
    outer = (blocks[-1], reduced_density(profile, state, blocks[-1]))
    pair = reduced_density(profile, state, [10, 8])
    alone = [0.35, *(block_entropy(profile, state, b, outer) for b in blocks),
             max_correlation(correlation_matrix(pair)), meyer_wallach(profile, state)]
    assert [float(v).hex() for v in row] == [v.hex() for v in alone]


def test_dynamics_l_max_counts_block_sites(capsys, tmp_path, monkeypatch):
    # on an 8x8 grid l_max = 4 means a 16-site block: rejected before any sweep
    calls = count_sweeps(monkeypatch)
    cfg = write_config(tmp_path, GRID_8X8 + "[task]\ngrid = 0:1:3\nl_max = 4\n")
    code, _, err = run(capsys, "dynamics", "--config", cfg)
    assert code == 1 and "'l_max'" in err and "16 sites" in err
    assert calls == []
    cfg = write_config(tmp_path, GRID_8X8 + "[task]\ngrid = 0:1:3\nl_max = 3\n",
                       name="ok.ini")
    code, out, err = run(capsys, "dynamics", "--config", cfg)
    assert code == 0, err
    assert parse_csv(out)[0] == ["t_over_pi", "s_1", "s_2", "s_3", "q_max", "e_mw"]


def test_dynamics_bad_grid(capsys, tmp_path):
    cfg = write_config(tmp_path, CHAIN + "[task]\ngrid = 1:0:5\n")
    code, _, err = run(capsys, "dynamics", "--config", cfg)
    assert code == 1 and "grid" in err


def test_graph_rank_sides(capsys, tmp_path):
    cfg = write_config(tmp_path, GRAPH_2D + "[task]\nsides = 2, 3, 4\n")
    code, out, _ = run(capsys, "graph-rank", "--config", cfg)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["block", "rank_entropy", "analytic_entropy", "vertex_count"]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("2", "4", "4"), ("3", "8", "8"), ("4", "12", "12")]

    # an explicit block of sites on the lattice: the centered 3x3 box
    box = ", ".join(str(12 * r + c) for r in range(4, 7) for c in range(4, 7))
    cfg = write_config(tmp_path, GRAPH_2D + f"[task]\nblock = {box}\n", name="box.ini")
    code, out, _ = run(capsys, "graph-rank", "--config", cfg)
    assert code == 0
    assert parse_csv(out)[1] == [["block[9]", "8", "", "8"]]


def test_graph_rank_analytic_blank_without_margin(capsys, tmp_path):
    cfg = write_config(tmp_path, GRAPH_2D + "[task]\nsides = 11\n")
    code, out, _ = run(capsys, "graph-rank", "--config", cfg)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][2] == ""  # closed form needs margin around the block


@pytest.mark.parametrize("lattice, reach, sides", [
    ("extents = 20", 2.5, "15, 16, 17"),
    ("extents = 20\nboundary = periodic", 2.5, "14, 15, 16"),
    ("extents = 12, 12", 1.5, "8, 9, 10, 11"),
    ("extents = 12, 12\nboundary = periodic, open", 1.5, "9, 10, 11"),
])
def test_graph_rank_analytic_needs_a_margin_of_floor_reach(capsys, tmp_path, lattice, reach,
                                                          sides):
    # a cutoff reaches floor(reach) layers, so that margin is enough for the
    # closed form, which is then the rank; less margin leaves it blank
    cfg = write_config(tmp_path, f"[lattice]\n{lattice}\n[law]\nvariant = cutoff\n"
                       f"lambda = {reach}\n[time]\nt_over_pi = 1\n[task]\nsides = {sides}\n")
    code, out, _ = run(capsys, "graph-rank", "--config", cfg)
    assert code == 0
    extents = [int(e) for e in lattice.split("\n")[0].split("=")[1].split(",")]
    for side, rank, analytic, _ in parse_csv(out)[1]:
        if min(extents) - int(side) >= 2 * math.floor(reach):
            assert analytic == rank
        else:
            assert analytic == ""


def test_graph_rank_edge_list(capsys, tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("# edge list\n0 2\n0 3\n1 2\n1 3\n")
    cfg = write_config(tmp_path, f"[task]\nedges = {edges}\nn_sites = 4\n"
                       "block = 0, 1\n")
    code, out, _ = run(capsys, "graph-rank", "--config", cfg)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["block[2]", "1", "", "2"]]

    cfg = write_config(tmp_path, f"[task]\nedges = {edges}\nn_sites = 4\n"
                       "sides = 2\n", name="sides.ini")
    code, _, err = run(capsys, "graph-rank", "--config", cfg)
    assert code == 1 and "key 'sides' needs a [lattice] section" in err

    # a token that is not an integer, a site out of range and a self-pair
    # are named by file and line
    cfg = write_config(tmp_path, f"[task]\nedges = {edges}\nn_sites = 5\n"
                       "block = 0, 1\n", name="bad.ini")
    for bad, why in (("1 x", "expected 'site site'"), ("1 7", "site pair (1, 7) out of range"),
                     ("1 1", "self-pair (1, 1) has no phase")):
        edges.write_text(f"0 2\n{bad}\n")
        code, _, err = run(capsys, "graph-rank", "--config", cfg)
        assert code == 1 and f"{edges}:2: {why}" in err


def test_graph_rank_needs_block_or_sides(capsys, tmp_path):
    cfg = write_config(tmp_path, GRAPH_2D + "[task]\n")
    code, _, err = run(capsys, "graph-rank", "--config", cfg)
    assert code == 1 and "sides" in err
    # a power-law chain at t = pi is no graph state; the phase prints as a
    # plain float, not as np.float64(...)
    cfg = write_config(tmp_path, CHAIN.replace("0.3", "1") + "[task]\nblock = 4, 5\n",
                       name="power.ini")
    code, _, err = run(capsys, "graph-rank", "--config", cfg)
    assert code == 1     # the phase 4^-3 * pi between sites 4 and 0
    assert err.strip() == (f"error: phase {math.pi / 64!r} between sites 4 and 0 "
                           "is neither 0 nor pi (tolerance 1e-09)")


def test_mw_full_and_sampled(capsys, tmp_path):
    body = GRAPH_2D.replace("extents = 12, 12", "extents = 30")
    cfg = write_config(tmp_path, body + "[task]\n")
    code, out, _ = run(capsys, "mw", "--config", cfg)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n_sites", "t_over_pi", "e_mw"]
    assert rows[0][0] == "30"
    assert abs(float(rows[0][2]) - 1.0) < 1e-10

    cfg = write_config(tmp_path, body + "[task]\nsample = 10\n", name="mw2.ini")
    code, out, _ = run(capsys, "mw", "--config", cfg)
    assert code == 0
    assert "# estimator: sampled 10 of 30 sites" in out


@pytest.mark.parametrize("command, task", [("mw", ""), ("entropy-scan", "sizes = 2:4")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_time_exits_one(capsys, tmp_path, command, task, value):
    # NaN and Infinity are not JSON; the profile refuses the time before
    # any table is made
    dest = tmp_path / "table.json"
    cfg = write_config(tmp_path, CHAIN.replace("t_over_pi = 0.3", f"t_over_pi = {value}")
                       + f"[task]\n{task}\n")
    code, out, err = run(capsys, command, "--config", cfg, "--format", "json",
                         "--out", str(dest))
    assert code == 1 and out == "" and not dest.exists()
    assert f"time must be finite and non-negative, got {value}" in err


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_a_phase_that_is_not_finite_exits_one(capsys, tmp_path):
    # f(r) * t overflows to inf: refused where the phase is reduced, not
    # reported later as a NaN trace
    cfg = write_config(tmp_path, "[lattice]\nextents = 3\n[law]\nvariant = table\n"
                       "table = 1:1e300, 2:1\n[time]\nt_over_pi = 1e10\n"
                       "[task]\nsizes = 1:2\nradius = 2\n")
    code, out, err = run(capsys, "entropy-scan", "--config", cfg)
    assert code == 1 and out == ""
    assert "phase inf is not finite" in err


# (command, text replaced in CHAIN or None, [task] body, the key the error names)
MALFORMED = {
    "range_arity": ("correlations", None, "separations = 1:2:3:4", "key 'separations'"),
    "range_text": ("correlations", None, "separations = a:3", "key 'separations'"),
    "range_step": ("correlations", None, "separations = 1:5:0", "key 'separations'"),
    "list_text": ("correlations", None, "separations = 1, x", "key 'separations'"),
    "list_empty": ("correlations", None, "separations = ,", "key 'separations'"),
    "table_pair": ("mw", ("variant = power\nalpha = 3.0", "variant = table\ntable = 1 2"),
                   "", "key 'table'"),
    "table_empty": ("mw", ("variant = power\nalpha = 3.0", "variant = table\ntable = ,"),
                    "", "key 'table'"),
    "amplitude": ("mw", ("variant = power", "variant = disordered\nbase = power\n"
                                             "seed = 7\namplitude = uniform(1)"),
                  "", "key 'amplitude'"),
    "state_kind": ("mw", ("[time]", "[state]\nkind = ghz\n[time]"), "", "key 'kind'"),
    "grid_parts": ("dynamics", None, "grid = 0:1", "key 'grid'"),
    "grid_text": ("dynamics", None, "grid = 0:one:5", "key 'grid'"),
    "sample": ("mw", None, "sample = 21", "key 'sample'"),
    "start": ("entropy-scan", None, "sizes = 4\nstart = 18", "key 'start'"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_a_malformed_config_names_its_key(capsys, tmp_path, case):
    command, replace, task, key = MALFORMED[case]
    body = CHAIN if replace is None else CHAIN.replace(*replace)
    assert body != CHAIN or replace is None
    cfg = write_config(tmp_path, body + f"[task]\n{task}\n")
    code, out, err = run(capsys, command, "--config", cfg)
    assert code == 1 and out == ""
    assert key in err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command, task", [
    ("correlations", "separations = 1:3"),
    ("entropy-scan", "sizes = 2, 12\nm = 4\nradius = 2"),
    ("bounds-scan", "size = 12\nms = 1:3\nradii = 0:4"),
    ("dynamics", "grid = 0:1:3\nl_max = 2"),
    ("graph-rank", "sides = 2, 4"),
    ("mw", "sample = 5"),
    ("verify", None),
])
def test_every_table_is_strict_json(capsys, tmp_path, command, task):
    # blank cells are null; no cell may be NaN or Infinity
    body = GRAPH_2D if command == "graph-rank" else CHAIN
    argv = [command, "--format", "json"]
    if task is None:
        argv += ["--instances", "2", "--n-max", "6", "--a-max", "2"]
    else:
        argv += ["--config", write_config(tmp_path, body + f"[task]\n{task}\n")]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out, parse_constant=_no_constant)
    assert payload["command"] == command and payload["rows"]


def test_random_state_is_seeded(capsys, tmp_path):
    cfg = write_config(tmp_path, CHAIN + "[state]\nkind = random\n"
                       "[task]\nseparations = 1, 2\n")
    _, out1, _ = run(capsys, "correlations", "--config", cfg, "--seed", "7")
    _, out2, _ = run(capsys, "correlations", "--config", cfg, "--seed", "7")
    assert parse_csv(out1) == parse_csv(out2)


def test_output_file_and_config_defaults(capsys, tmp_path):
    dest = tmp_path / "table.json"
    cfg = write_config(tmp_path, CHAIN + "[task]\nseparations = 1\n")
    code, out, _ = run(capsys, "correlations", "--config", cfg,
                       "--out", str(dest), "--format", "json")
    assert code == 0
    assert out == ""
    payload = json.loads(dest.read_text())
    assert payload["columns"][0] == "separation"
    # an [output] section is echoed like any other section, never obeyed
    ignored = tmp_path / "ignored.json"
    cfg = write_config(tmp_path, CHAIN + "[task]\nseparations = 1\n"
                       f"[output]\nformat = xml\npath = {ignored}\n", name="out.ini")
    code, out, _ = run(capsys, "correlations", "--config", cfg)
    assert code == 0
    assert out.startswith("# wgstate")
    assert f"# config: output.path = {ignored}" in out
    assert not ignored.exists()


def test_threads_flag_is_a_usage_error(capsys, tmp_path):
    for command, task in [("correlations", "separations = 1:4"),
                          ("entropy-scan", "sizes = 2:5\nm = 2\nradius = 2"),
                          ("dynamics", "grid = 0:1:4\nl_max = 3")]:
        cfg = write_config(tmp_path, CHAIN + f"[task]\n{task}\n", name=f"{command}.ini")
        code, out, err = run(capsys, command, "--config", cfg, "--threads", "2")
        assert code == 1 and "usage error" in err
        assert out == ""


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--instances", "3", "--n-max", "8",
                       "--a-max", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["instance", "n_sites", "subset", "distance", "status"]
    assert len(rows) == 3
    assert all(r[4] == "ok" for r in rows)
    assert "# max_distance:" in out

    code, out, _ = run(capsys, "verify", "--instances", "2", "--n-max", "6",
                       "--a-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify" and payload["config"] == []
    assert set(payload["summary"]) == {"max_distance", "tolerance"}
    assert payload["summary"]["tolerance"] == 1e-10
    assert payload["summary"]["max_distance"] == max(r[3] for r in payload["rows"])


@pytest.mark.parametrize("flags, message", [
    (["--instances", "0"], "--instances must be at least 1, got 0"),
    (["--instances", "-3"], "--instances must be at least 1, got -3"),
    (["--n-max", "3"], "--n-max must be in 4..20, got 3"),
    (["--n-max", "21"], "--n-max must be in 4..20, got 21"),
    (["--a-max", "0"], "--a-max must be in 1..10, got 0"),
    (["--a-max", "11"], "--a-max must be in 1..10, got 11"),
])
def test_verify_rejects_flags_it_cannot_honour(capsys, flags, message):
    # no pass that checked nothing, and no numpy error from the draw
    code, out, err = run(capsys, "verify", *flags)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("n_max", [4, 5])
def test_verify_draws_grids_at_the_smallest_n_max(capsys, n_max):
    # a grid's first extent is 2 when a second extent of 2 or more leaves
    # no room for 3
    code, out, _ = run(capsys, "verify", "--instances", "20", "--n-max", str(n_max),
                       "--a-max", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 20 and all(r[4] == "ok" for r in rows)
    assert all(4 <= int(r[1]) <= n_max for r in rows)


def test_verify_reports_failures(capsys):
    code, out, err = run(capsys, "verify", "--instances", "2", "--n-max", "6",
                         "--a-max", "2", "--tolerance=-1")
    assert code == 2
    _, rows = parse_csv(out)
    assert all(r[4] == "FAIL" for r in rows)
    assert "beyond tolerance" in err


def test_verify_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--instances", "3", "--seed", "11")
    _, out2, _ = run(capsys, "verify", "--instances", "3", "--seed", "11")
    assert parse_csv(out1) == parse_csv(out2)
