"""Benchmark of the ``wgstate`` command line, end to end and layer by layer.

    python3 wgbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  ``wgstate`` is imported from the
checkout's ``src/`` (nothing is installed); the run fails with exit code 2,
printing no result, when those sources are missing.

One run drives one workload (see ``workloads.py``) in this process through
``wgstate.cli.main``, with the CLI's ``--threads`` left at its default.  A
*pass* is every CLI invocation of the workload once; passes repeat until
``--seconds`` have gone by (at least three).  Every pass's output rows go
through the workload's correctness gate after the timing is done.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: time from calling ``cli.main`` until it has written its table,
  summed over the invocations of a pass; median over the passes.
* ``setup_s``: time a fresh interpreter spends in the program before its
  first call into a layer: ``import wgstate``, config parsing, and building
  the lattice, profile and input (``probe.py``).  Median over fresh
  interpreters, one started after each pass (at least nine), after one
  warm-up.
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the passes, in MiB.

Failed rows over attempted rows (``failed_frac``) is printed with them, and
is the ``failed`` / ``attempted`` pair of the result line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics listed in ``BENCHMARK.json`` (medians over traced passes), the
tracing overhead, and the CPU utilisation of the untraced passes.

Human-readable lines come first; the last line of standard output is the
JSON result.  The full record, with the environment and, for a traced run,
the spans of the last traced pass, goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
SETUP_SAMPLES = 9


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_pass(wg, wl, paths) -> tuple[float, list]:
    """Every invocation of the workload once: (summed wall seconds, outputs)."""
    wall = 0.0
    outputs = []
    for inv, (config_path, out_path) in zip(wl.invocations, paths):
        out_path.unlink(missing_ok=True)
        argv = inv.argv(config_path, out_path)
        started = time.perf_counter()
        try:
            code = wg.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        wall += time.perf_counter() - started
        if code != 0:
            print(f"wgbench: wgstate {' '.join(argv)} exited {code}", file=sys.stderr)
            outputs.append(None)
            continue
        outputs.append(json.loads(out_path.read_text(encoding="utf-8")))
    return wall, outputs


def measure_setup(wl, paths) -> float:
    """Seconds a fresh interpreter spends in the program before its first
    layer call, as ``probe.py`` measures them."""
    argv = [sys.executable, str(HERE / "probe.py"), *wl.invocations[0].argv(*paths[0])]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _openblas_threads():
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def environment() -> dict:
    import numpy
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(f"{index}/{key}") for key in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "wgstate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _expected_spans(recorder: tracing.Recorder, names: list[str]) -> None:
    """Never report a zero for a layer the workload is known to call."""
    calls = recorder.self_times()
    missing = [name for name in names if calls.get(name, (0, 0.0))[0] == 0]
    if missing:
        raise tracing.TraceError(
            f"traced pass made no call to {', '.join(missing)}; the layer map in "
            "wgbench/layers.json or the span table in wgbench/tracing.py is stale")


def run(args) -> int:
    wg = workloads.load_wgstate()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[key]}
    wl = workloads.WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        paths = []
        for i, inv in enumerate(wl.invocations):
            config_path = work / f"run{i}.ini"
            config_path.write_text(inv.config, encoding="utf-8")
            paths.append((config_path, work / f"out{i}.json"))
        return _measure(args, wg, wl, layers, units, paths)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, wg, wl, layers, units, paths) -> int:
    samples: dict[str, list[float]] = {}
    all_outputs = []
    record: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    if args.trace == 0:
        # a set-up sample follows every pass, so that both see the same
        # changes in machine speed; the first one also fills the bytecode
        # cache and is dropped
        setups, walls = [], []
        started = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - started < args.seconds:
            wall, outputs = run_pass(wg, wl, paths)
            walls.append(wall)
            all_outputs.append(outputs)
            setups.append(measure_setup(wl, paths))
        samples["wall_s"] = walls
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        while len(setups) <= SETUP_SAMPLES:
            setups.append(measure_setup(wl, paths))
        samples["setup_s"] = setups[1:]
    else:
        recorder = tracing.Recorder()
        plain, traced, per_pass = [], [], []
        cpu = 0.0
        started = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - started < args.seconds:
            cpu0 = _cpu_seconds()
            wall, outputs = run_pass(wg, wl, paths)
            cpu += _cpu_seconds() - cpu0
            plain.append(wall)
            all_outputs.append(outputs)
            recorder.reset()
            restore = recorder.install()
            try:
                wall, outputs = run_pass(wg, wl, paths)
            finally:
                restore()
            traced.append(wall)
            all_outputs.append(outputs)
            _expected_spans(recorder, layers["calls"][wl.name])
            per_pass.append(tracing.layer_metrics(recorder, wall, wl.n_rows))
        for name in units:
            if name in per_pass[0]:
                samples[name] = [p[name] for p in per_pass]
        samples["trace.wall_s"] = traced
        samples["trace.overhead_frac"] = [statistics.median(traced) / statistics.median(plain) - 1.0]
        samples["process.cpu_util"] = [cpu / sum(plain)]
        t0 = min(span[3] for span in recorder.spans)
        record["spans"] = {"fields": ["id", "parent", "name", "start_s", "end_s", "counting_s"],
                           "rows": [[i, p, n, s - t0, e - t0, c]
                                    for i, p, n, s, e, c in recorder.spans]}
    missing = [name for name in units if name not in samples]
    if missing:
        raise tracing.TraceError(f"no value for metrics {missing}")

    ref = wl.reference(wg)
    failures = [f for outputs in all_outputs for f in wl.check(outputs, ref)]
    attempted = wl.n_rows * len(all_outputs)
    metrics = {}
    print(f"# wgbench {wl.name} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    for name in units:
        values = samples[name]
        q1, median, q3 = _quartiles(values)
        metrics[name] = {"value": median, "unit": units[name]}
        print(f"# {name} = {median:.6g} {units[name]} (median of {len(values)}; "
              f"quartiles {q1:.6g} .. {q3:.6g})")
    print(f"# failed_frac = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} rows; {len(all_outputs)} passes)")
    for i, r, reason in failures[:10]:
        print(f"# failed: invocation {i} row {r}: {reason}")
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    record.update(environment=env, samples=samples, metrics=metrics, attempted=attempted,
                  failures=[list(f) for f in failures[:100]], reference=repr(ref))
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        if proc.returncode != 0:
            return proc.returncode
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run(args)
    except workloads.CheckoutError as exc:
        print(f"wgbench: {exc}", file=sys.stderr)
        return 2
    except tracing.TraceError as exc:
        print(f"wgbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
