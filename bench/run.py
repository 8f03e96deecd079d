"""eecoop benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload ref-compare --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  Workloads, metrics and the layer-to-metric map are listed in
``BENCHMARK.json`` and ``bench/README.md``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the timed body twice, each pass sized for a quarter
of ``--seconds``, first with timing wrappers installed and then without
them; on ``ref-compare`` it then runs the same sweeps through the CLI's
process pool.  It checks that every pass reproduces the same
deterministic values and reports the per-layer metrics.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Set-up is repeated and its median reported, so that one slow repetition
# does not move the figure.
SETUP_REPS = 3


def _import_package():
    """Import eecoop from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "eecoop", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: {init} not found; run from a source checkout")
    sys.path.insert(0, SRC)
    import eecoop
    if os.path.abspath(eecoop.__file__) != init:
        sys.exit(f"bench: imported eecoop from {eecoop.__file__}, not {SRC}")


def _openblas(lib_dir):
    """(config, threads) of the OpenBLAS shipped in one wheel's libs dir."""
    prefix = "scipy_openblas_"
    for path in glob.glob(os.path.join(lib_dir, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return config().decode(), threads()
    return "not found", None


def environment():
    """Machine and library facts that the timings depend on.

    BLAS threading is recorded as found and deliberately left alone.
    """
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs")
        config, threads = _openblas(libs)
        env[f"{pkg.__name__}_blas"] = config
        env[f"{pkg.__name__}_blas_threads"] = threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def fresh_import():
    """Import eecoop in a new interpreter, as every CLI invocation does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", "import eecoop"], cwd=ROOT,
                   env=env, check=True, timeout=120)


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def gmean(values):
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


def timed_run(workload, state, tracer=None, pooled=False):
    """(outcomes, per-operation seconds) of one pass of the timed body."""
    ops = workload.run(state, tracer, pooled)
    return [o for _, outs in ops for o in outs], [t for t, _ in ops]


def end_to_end(workload, state, setup_s):
    outcomes, times = timed_run(workload, state)
    print("operation seconds " + " ".join(f"{t:.3f}" for t in times))
    # operations x median operation time: one operation slowed by a
    # neighbour on a shared machine does not move the figure
    run_s = len(times) * statistics.median(times)
    ee = [v for o in outcomes for v in o.ee]
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "ee_gmean": (gmean(ee), "bits/J"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    # shown in the table only: the Monte Carlo figures exist on
    # validate-mc alone, and every JSON metric must exist on every workload
    extra = {"mc_trial_periods_per_s": (None, "1/s"),
             "mc_rel_halfwidth": (None, "ratio")}
    if hasattr(workload, "rel_halfwidth"):
        extra["mc_trial_periods_per_s"] = (
            workload.trials * len(state["exact"]) * len(outcomes) / run_s,
            "1/s")
        extra["mc_rel_halfwidth"] = (
            workload.rel_halfwidth(state, outcomes), "ratio")
    return outcomes, metrics, extra


def per_layer(workload, state):
    from tracing import Tracer
    tracer = Tracer()
    # The traced pass runs first so that it, not the untraced pass, meets
    # the outage-table cache as the end-to-end run does.  Tables it builds
    # are cached for the untraced pass, so their build time is left out of
    # the overhead comparison.
    with tracer.installed():
        traced, times = timed_run(workload, state, tracer)
    traced_s = sum(times)
    plain, times = timed_run(workload, state)
    plain_s = sum(times)
    pooled, pooled_s = [], 0.0
    if workload.has_pool:
        # the same sweeps through the CLI's process pool, untraced
        pooled, times = timed_run(workload, state, pooled=True)
        pooled_s = sum(times)
    for other in (plain, pooled):
        for a, b in zip(traced, other):
            if a.fingerprint != b.fingerprint:
                a.ok = b.ok = False
                a.problems.append("deterministic values differ between "
                                  "passes")
    spans = tracer.summary()
    seen = tracer.observed

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    newton = seen.get("solver.inner_solve", 0)
    lookups = calls("outage.outage_tables")
    misses = tracer.parents_with_child("outage.outage_tables",
                                       "outage.build_outage_tables")
    builds_s = total("outage.build_outage_tables")
    mc_s = total("montecarlo.estimate_outage")
    metrics = {
        "solver.barrier_fgh.calls": (calls("solver.barrier_fgh"), "count"),
        "solver.newton_iters": (newton, "count"),
        "solver.outer_iters": (calls("solver.inner_solve"), "count"),
        "solver.retries": (calls("solver.problem_build")
                           - calls("solver.dinkelbach_optimize"), "count"),
        "solver.cho_factor.failures": (
            spans.get("solver.cho_factor", {}).get("failures", 0), "count"),
        "solver.barrier_fgh.self_s": (self_s("solver.barrier_fgh"), "s"),
        "solver.phase1.s": (total("solver.phase1"), "s"),
        "solver.inner_solve.s": (total("solver.inner_solve"), "s"),
        "solver.problem_build_s": (total("solver.problem_build"), "s"),
        "solver.cho_factor.s": (total("solver.cho_factor"), "s"),
        "solver.linesearch_ratio": (
            ratio(newton, calls("solver.barrier_value")), "ratio"),
        "outage.build_outage_tables.calls": (
            calls("outage.build_outage_tables"), "count"),
        "outage.build_outage_tables.s": (builds_s, "s"),
        "outage.table_terms": (
            ratio(seen.get("outage.outage_tables", 0), lookups), "count"),
        "outage.table_cache_hit_ratio": (
            ratio(lookups - misses, lookups), "ratio"),
        "outage.value_grad_hess.calls": (
            calls("outage.value_grad_hess"), "count"),
        "outage.value_grad_hess.s": (total("outage.value_grad_hess"), "s"),
        "outage.network_outage_exact.calls": (
            calls("outage.network_outage_exact"), "count"),
        "outage.network_outage_exact.s": (
            total("outage.network_outage_exact"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.pooled_sweep_s": (pooled_s, "s"),
        "cli.pool_speedup": (ratio(plain_s, pooled_s), "ratio"),
        "model.validate_policy.calls": (calls("model.validate_policy"),
                                        "count"),
        "model.validate_policy.s": (total("model.validate_policy"), "s"),
        "montecarlo.draw.calls": (calls("montecarlo.draw"), "count"),
        "montecarlo.draw_s": (total("montecarlo.draw"), "s"),
        "montecarlo.tally_self_s": (self_s("montecarlo.estimate_outage"),
                                    "s"),
        "montecarlo.bytes_drawn": (seen.get("montecarlo.draw", 0),
                                   "bytes-computed"),
        "montecarlo.trial_periods_per_s": (
            ratio(seen.get("montecarlo.estimate_outage", 0), mc_s), "1/s"),
        "montecarlo.rel_halfwidth": (
            workload.rel_halfwidth(state, traced)
            if hasattr(workload, "rel_halfwidth") else 0.0, "ratio"),
        "trace.overhead_frac": ((traced_s - builds_s) / plain_s - 1.0,
                                "ratio"),
    }
    for kind in ("no_transfer", "depleted_energy", "nonc_df",
                 "uniform_power"):
        name = f"baselines.{kind}_policy"
        metrics[f"{name}.s"] = (total(name), "s")
    extra = {"traced_run_s": (traced_s, "s"), "untraced_run_s": (plain_s, "s")}
    return traced + plain + pooled, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ref-compare", "wide-network", "validate-mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_package()
    from workloads import WORKLOADS

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        seconds = args.seconds / 4 if args.trace else args.seconds
        workload = WORKLOADS[args.workload](ROOT, work, args.seed, seconds)
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            fresh_import()
            state = workload.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)
        if args.trace:
            outcomes, metrics, extra = per_layer(workload, state)
        else:
            outcomes, metrics, extra = end_to_end(workload, state, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    failed = sum(not o.ok for o in outcomes)
    for o in outcomes:
        for problem in o.problems:
            print(f"check failed: {problem}")
    # a 0 cannot carry a relative bound, so failures travel as
    # attempted/failed in the result and only the table shows the fraction
    extra["fail_frac"] = (failed / len(outcomes), "ratio")
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:36s} {shown:>16s} {unit}")
    result = {"correct": failed == 0, "attempted": len(outcomes),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
