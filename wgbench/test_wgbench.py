"""Tests of the benchmark itself: its gates, its tracing and its layer map.

    python3 -m pytest wgbench

Each workload is generated at tiny size (at most 14 sites), run through the
CLI, and compared with the statevector oracle; its gate must pass there and
must count a deliberately perturbed result as failed.
"""

import copy
import json
import math

import numpy as np
import pytest

import run
import tracing
import workloads

wg = workloads.load_wgstate()
SEEDS = (0, 1, 2)


def run_tiny(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, tiny=True)
    paths = []
    for i, inv in enumerate(wl.invocations):
        config = tmp_path / f"run{i}.ini"
        config.write_text(inv.config)
        paths.append((config, tmp_path / f"out{i}.json"))
    _, outputs = run.run_pass(wg, wl, paths)
    return wl, outputs, paths


def check_entropy_chain(wl, outputs):
    profile = workloads.profile_from_config(wg, wl.invocations[0].config)
    psi = wg.oracle.evolve(profile, wg.rdm.ProductInput.plus(wl.n))
    for row in workloads.rows_of(outputs[0]):
        block = np.arange(wl.start, wl.start + row["size"])
        exact = wg.measures.entropy(wg.oracle.partial_trace(psi, block))
        assert row["exact"] == pytest.approx(exact, abs=1e-9)
        assert row["lower"] <= exact + 1e-9 and exact <= row["upper"] + 1e-9


def check_pair_correlations(wl, outputs):
    profile = workloads.profile_from_config(wg, wl.invocations[0].config)
    psi = wg.oracle.evolve(profile, wl.state(wg))
    for row in workloads.rows_of(outputs[0]):
        rho = wg.oracle.partial_trace(psi, [wl.site, wl.site + row["separation"]])
        assert row["q_max"] == pytest.approx(workloads._pauli_correlation(rho), abs=1e-9)
        assert row["concurrence"] == pytest.approx(wg.measures.concurrence(rho), abs=1e-9)
        assert row["assistance_upper"] == pytest.approx(
            wg.measures.concurrence_of_assistance(rho), abs=1e-9)


def check_graph_rank(wl, outputs):
    profile = workloads.profile_from_config(wg, wl.invocations[0].config)
    psi = wg.oracle.evolve(profile, wg.rdm.ProductInput.plus(profile.n_sites))
    for side, offset, payload in zip(wl.sides, wl.offsets, outputs):
        block = wl.block_sites(side, offset)
        exact = wg.measures.entropy(wg.oracle.partial_trace(psi, block))
        assert workloads.rows_of(payload)[0]["rank_entropy"] == pytest.approx(exact, abs=1e-9)


def check_dynamics(wl, outputs):
    base = workloads.profile_from_config(wg, wl.invocations[0].config)
    state = wg.rdm.ProductInput.plus(wl.n)
    for row in workloads.rows_of(outputs[0]):
        profile = wg.geometry.PhaseProfile(base.lattice, base.law, row["t_over_pi"] * math.pi)
        psi = wg.oracle.evolve(profile, state)
        for l in range(1, wl.l_max + 1):
            rho = wg.oracle.partial_trace(psi, np.arange(wl.start, wl.start + l))
            assert row[f"s_{l}"] == pytest.approx(wg.measures.entropy(rho), abs=1e-9)
        site = wl.n // 2
        pair = wg.oracle.partial_trace(psi, [site, site + wl.separation])
        assert row["q_max"] == pytest.approx(workloads._pauli_correlation(pair), abs=1e-9)
        purity = [np.trace(r @ r).real for r in
                  (wg.oracle.partial_trace(psi, [k]) for k in range(wl.n))]
        assert row["e_mw"] == pytest.approx(2.0 * (1.0 - np.mean(purity)), abs=1e-9)


ORACLE = {
    "entropy-chain": check_entropy_chain,
    "pair-correlations": check_pair_correlations,
    "graph-rank-2d": check_graph_rank,
    "dynamics-mw": check_dynamics,
}

# (invocation, row, column, change) that must make the gate fail that row
PERTURB = {
    "entropy-chain": (0, 0, "exact", lambda v: v + 0.25),
    "pair-correlations": (0, 0, "concurrence", lambda v: v + 1e-6),
    "graph-rank-2d": (0, 0, "rank_entropy", lambda v: v + 1),
    "dynamics-mw": (0, 2, "s_1", lambda v: v + 1e-6),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_matches_oracle_and_passes_gate(name, seed, tmp_path):
    wl, outputs, _ = run_tiny(name, seed, tmp_path)
    sizes = {workloads.profile_from_config(wg, inv.config).n_sites for inv in wl.invocations}
    assert max(sizes) <= 14
    assert all(out is not None for out in outputs)
    ORACLE[name](wl, outputs)
    assert wl.check(outputs, wl.reference(wg)) == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_perturbed_result_counts_as_failed(name, tmp_path):
    wl, outputs, _ = run_tiny(name, 0, tmp_path)
    ref = wl.reference(wg)
    inv, row, column, change = PERTURB[name]
    bad = copy.deepcopy(outputs)
    col = bad[inv]["columns"].index(column)
    bad[inv]["rows"][row][col] = change(bad[inv]["rows"][row][col])
    assert [(i, r) for i, r, _ in wl.check(bad, ref)] == [(inv, row)]

    truncated = copy.deepcopy(outputs)
    truncated[-1]["rows"].pop()
    assert len(wl.check(truncated, ref)) == 1
    assert len(wl.check([None] * len(outputs), ref)) == wl.n_rows


def test_entropy_chain_gate_checks_exact_inside_the_bracket(tmp_path):
    wl, outputs, _ = run_tiny("entropy-chain", 0, tmp_path)
    ref = wl.reference(wg)
    bad = copy.deepcopy(outputs)
    row = dict(zip(bad[0]["columns"], bad[0]["rows"][0]))
    shifted = row["exact"] - 1e-6
    assert row["lower"] <= shifted <= row["upper"]
    bad[0]["rows"][0][bad[0]["columns"].index("exact")] = shifted
    assert [(i, r) for i, r, _ in wl.check(bad, ref)] == [(0, 0)]


def test_failing_invocation_counts_every_row(tmp_path):
    wl = workloads.WORKLOADS["entropy-chain"](0, tiny=True)
    config = tmp_path / "run0.ini"
    config.write_text(wl.invocations[0].config.replace("variant = power", "variant = nope"))
    _, outputs = run.run_pass(wg, wl, [(config, tmp_path / "out0.json")])
    assert outputs == [None]
    assert len(wl.check(outputs, {})) == wl.n_rows


def test_same_seed_same_inputs():
    for name, cls in workloads.WORKLOADS.items():
        a, b, c = cls(5), cls(5), cls(6)
        assert [i.config for i in a.invocations] == [i.config for i in b.invocations]
        assert [i.config for i in a.invocations] != [i.config for i in c.invocations], name


def test_traced_pass_accounts_for_wall_time(tmp_path):
    wl, _, paths = run_tiny("dynamics-mw", 0, tmp_path)
    original = wg.rdm.reduced_density
    per_pass = []
    for _ in range(2):
        recorder = tracing.Recorder()
        restore = recorder.install()
        try:
            assert wg.measures.reduced_density is not original
            wall, outputs = run.run_pass(wg, wl, paths)
        finally:
            restore()
        assert wl.check(outputs, {}) == []
        per_pass.append((wall, tracing.layer_metrics(recorder, wall, wl.n_rows)))
    assert wg.rdm.reduced_density is original and wg.measures.reduced_density is original
    for name in ("geometry.phase_row.elems", "rdm.environment_product.site_classes",
                 "measures.meyer_wallach.sites", "rdm.sweeps_per_row"):
        assert per_pass[0][1][name] == per_pass[1][1][name] > 0
    wall, metrics = per_pass[0]
    assert metrics["measures.meyer_wallach.sites"] == wl.n * wl.steps
    layers = sum(metrics[f"{layer}.self_s"] for layer in ("geometry", "rdm", "measures",
                                                          "graphstate"))
    assert metrics["trace.residual_frac"] == pytest.approx(
        1.0 - (layers + metrics["cli.main.self_s"]) / wall, abs=1e-12)
    assert 0.0 <= metrics["trace.residual_frac"] < 0.5


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "rdm.gone", ("wgstate.rdm", "no_such_function"))
    original = wg.rdm.environment_product
    with pytest.raises(tracing.TraceError, match="no_such_function"):
        tracing.Recorder().install()
    assert wg.rdm.environment_product is original


def test_missing_sources_fail(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SRC", tmp_path)
    with pytest.raises(workloads.CheckoutError):
        workloads.load_wgstate()


def test_workload_names_and_layer_map():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((run.HERE / "layers.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert set(layers["calls"]) == set(workloads.WORKLOADS)
    assert all(name in tracing.TARGETS for calls in layers["calls"].values() for name in calls)
    assert set(layers["meaning"]) <= {m["name"] for m in bench["per_layer"]}
