"""The three benchmark workloads: inputs from a seed, operations, checks.

Every workload drives eecoop only through its public API, looking each
function up on its module at call time so that the traced run's rebound
wrappers are the ones called.  The amount of work in a run is fixed by
the seed and the requested seconds (never by the clock), so two runs of
one seed do identical work and their deterministic counts can be compared
exactly.

A workload has `setup()`, which builds everything the timed body needs
and returns it, and `operations(state, pooled)`, the timed body as a list
of callables that each return a list of `Outcome`.  Only `ref-compare`
has a pooled body (the CLI's process pool); it is run in the traced run
alone, because its wall time spreads too widely to carry a bound.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import eecoop.cli
import eecoop.model
import eecoop.montecarlo
import eecoop.outage
import eecoop.solver

REFERENCE = os.path.join("scenarios", "reference_m2n4.json")
# The program's own slack when it audits exact outage against the target.
OUTAGE_RTOL = eecoop.model.OUTAGE_AUDIT_RTOL
# Relative slack of the acceptance suite's EE dominance checks.
EE_RTOL = 1e-9
# z of a two-sided 1 - 1e-6 interval: a correct program fails one period's
# Monte Carlo check with probability 1e-6, so runs do not fail by chance.
Z_WIDE = 4.891638475699


@dataclass
class Outcome:
    """One operation: whether every output check passed, what failed, the
    deterministic values a repeat must reproduce exactly, and the exact-
    outage energy efficiencies it produced (bits/J)."""

    ok: bool
    problems: list
    fingerprint: object
    ee: list = field(default_factory=list)
    outage_count: np.ndarray = None


def _jitter(rng, shape, rel):
    return np.exp(rng.uniform(-rel, rel, size=shape))


def _reference(root):
    with open(os.path.join(root, REFERENCE), encoding="utf-8") as fh:
        return json.load(fh)


def _jittered_reference(root, rng):
    """The bundled reference network with seeded +-2% arrival jitter."""
    data = _reference(root)
    arrivals = np.asarray(data["arrivals"])
    data["arrivals"] = (arrivals * _jitter(rng, arrivals.shape, 0.02)).tolist()
    return data


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)


def _remove(path):
    """Delete a previous operation's output so a missing one shows."""
    if os.path.exists(path):
        os.remove(path)


def _outage_within_target(pr_out, target):
    return float(np.max(pr_out)) <= target * (1.0 + OUTAGE_RTOL)


class Workload:
    """Inputs from a seed, and the timed body as a list of operations.

    A subclass sets budget_s, the share of the requested seconds that one
    repetition stands for; a run does n_ops = round(seconds / budget_s)
    repetitions, at least one.  A repetition is one operation, except on
    `ref-compare`, where it is a sweep of one operation per eta point.
    The budgets share out the time that all runs of the benchmark may
    take by how widely each workload's times spread between runs on the
    2-core machine the benchmark was defined on: `ref-compare`, whose
    operations spread most, runs longest, and `validate-mc`, whose
    operations spread least, runs shortest.
    """

    budget_s = None
    has_pool = False

    def __init__(self, root, work, seed, seconds):
        self.root, self.work, self.seed = root, work, seed
        self.n_ops = max(1, round(seconds / self.budget_s))

    def run(self, state, tracer=None, pooled=False):
        """The timed body: every operation, in order.

        Returns (seconds, outcomes) per operation.  With a tracer each
        operation is one root span.  pooled asks a workload with a pooled
        body to fan out to the CLI's worker processes.
        """
        ops = []
        for operation in self.operations(state, pooled):
            if tracer is not None:
                operation = tracer.wrap(operation, "bench.op")
            t0 = time.perf_counter()
            outcomes = _guarded(operation)
            ops.append((time.perf_counter() - t0, outcomes))
        self.check_pass(state, [o for _, outs in ops for o in outs])
        return ops

    def check_pass(self, state, outcomes):
        """Checks that need every operation of a pass; untimed."""


def _guarded(operation):
    """The operation's outcomes, or one failed outcome if it raised: a
    crash is a failed operation, and the run goes on to report it."""
    try:
        return operation()
    except Exception:
        return [Outcome(False, [traceback.format_exc(limit=-3)], None)]


class RefCompare(Workload):
    """`eecoop compare` on the reference network over an eta sweep of one
    point per worker of the CLI's process pool.

    The timed body runs one point per `main` call, in this process: a
    pooled sweep's wall time is the slower of two workers sharing two
    cores, and it spreads about 2.5 times as widely between runs.  The
    pooled sweep runs in the traced run, where its time carries no bound.
    An operation is one point; a run does n_ops sweeps.
    """

    # one point takes 10-17 s in-process and a sweep of two 25-30 s
    budget_s = 15.0
    has_pool = True

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        data = _jittered_reference(self.root, rng)
        path = os.path.join(self.work, "ref-compare.json")
        _write_json(path, data)
        config = eecoop.model.ScenarioConfig(**data)
        # The parent fills the outage-table cache for this geometry, so the
        # forked pool workers and the in-process traced points all hit it.
        eecoop.outage.outage_tables(
            eecoop.model.compute_link_coefficients(config), config.M,
            config.N)
        n_points = max(2, os.cpu_count() or 1)
        etas = [repr(float(v)) for v in np.linspace(0.6, 1.0, n_points)]
        return {"scenario": path, "etas": etas, "target": config.pr_out_0,
                "csv": os.path.join(self.work, "compare.csv")}

    def _compare(self, state, etas):
        _remove(state["csv"])
        code = eecoop.cli.main(["compare", "--scenario", state["scenario"],
                                "--sweep", "eta=" + ",".join(etas),
                                "--out", state["csv"]])
        if not os.path.exists(state["csv"]):
            return code, []
        with open(state["csv"], encoding="utf-8") as fh:
            return code, list(csv.DictReader(fh))

    def operations(self, state, pooled):
        target = state["target"]
        if not pooled:
            # one point per main call keeps the work in this process, where
            # the traced wrappers see it
            return [lambda eta=eta: [self._check(*self._compare(state, [eta]),
                                                 target)]
                    for _ in range(self.n_ops) for eta in state["etas"]]

        def sweep():
            code, rows = self._compare(state, state["etas"])
            return [self._check(code, rows[5 * i:5 * i + 5], target)
                    for i in range(len(state["etas"]))]
        return [sweep] * self.n_ops

    @staticmethod
    def _check(code, rows, target):
        problems = []
        if code != 0:
            problems.append(f"compare exited with code {code}")
        methods = [r["method"] for r in rows]
        if methods != list(eecoop.cli.COMPARE_METHODS):
            return Outcome(False, problems + [f"rows {methods}"], None)
        by = {r["method"]: r for r in rows}
        for r in rows:
            if r["reason"].startswith("solver_failure") or \
                    r["reason"] in ("audit_failed", "max_iterations"):
                problems.append(f"{r['method']}: {r['reason']}")
            if r["feasible"] == "true" and \
                    not _outage_within_target([float(r["pr_out_max"])],
                                              target):
                problems.append(f"{r['method']}: pr_out_max "
                                f"{r['pr_out_max']} above {target}")
        # acceptance-7 ordering: a feasible lower method implies a feasible
        # upper method with at least its energy efficiency
        for hi, lo in (("optimized", "no_transfer"),
                       ("no_transfer", "depleted_energy"),
                       ("optimized", "uniform_power")):
            if by[lo]["feasible"] != "true":
                continue
            if by[hi]["feasible"] != "true" or \
                    float(by[hi]["ee"]) < float(by[lo]["ee"]) * (1 - EE_RTOL):
                problems.append(f"EE ordering {hi} >= {lo} violated")
        opt = by["optimized"]
        ee = [float(opt["ee"])] if opt["feasible"] == "true" else []
        if not ee:
            problems.append("optimized policy infeasible")
        fingerprint = tuple(tuple(r.values()) for r in rows)
        return Outcome(not problems, problems, fingerprint, ee)


class WideNetwork(Workload):
    """Seeded M=3, N=8, K=4 networks with reference-like geometry, each
    optimized, audited and evaluated with exact outage."""

    # an operation takes about 4-5 s
    budget_s = 3.75
    M, N, K = 3, 8, 4

    def _scenario(self, ref, rng):
        """The reference links tiled to (M, N) with fresh +-3% distance
        and arrival jitter, so no two scenarios share outage tables."""
        M, N, K = self.M, self.N, self.K
        users = np.arange(M) % len(ref["Eu_0"])
        relays = np.arange(N) % len(ref["d_g"])
        data = dict(ref, M=M, N=N, K=K)
        for key in ("omega_h", "d_h", "beta_h", "N0_h"):
            data[key] = np.asarray(ref[key])[np.ix_(users, relays)]
        for key in ("omega_g", "d_g", "beta_g", "N0_g"):
            data[key] = np.asarray(ref[key])[relays]
        data["d_h"] = data["d_h"] * _jitter(rng, (M, N), 0.03)
        data["d_g"] = data["d_g"] * _jitter(rng, N, 0.03)
        data["arrivals"] = (np.asarray(ref["arrivals"])[users, :K]
                            * _jitter(rng, (M, K), 0.03))
        data["Eu_0"] = np.asarray(ref["Eu_0"])[users]
        return eecoop.model.ScenarioConfig(**data)

    def setup(self):
        ref = _reference(self.root)
        rng = np.random.default_rng([self.seed, 2])
        return {"configs": [self._scenario(ref, rng)
                            for _ in range(self.n_ops)]}

    def operations(self, state, pooled):
        return [lambda c=c: [self._op(c)] for c in state["configs"]]

    @staticmethod
    def _op(config):
        res = eecoop.solver.dinkelbach_optimize(config)
        problems = []
        if res.status != "converged":
            return Outcome(False, [f"solver status {res.status}"],
                           res.status)
        audit = eecoop.model.validate_policy(config, res.policy)
        if not audit.feasible:
            problems.append(f"audit: {audit.summary()}")
        exact = eecoop.outage.network_outage_report(config, res.policy,
                                                    mode="exact")
        if not _outage_within_target(exact.pr_out, config.pr_out_0):
            problems.append(f"exact outage {exact.pr_out.max():.3e} above "
                            f"{config.pr_out_0}")
        if not (res.ee_exact > 0.0 and math.isfinite(res.ee_exact)):
            problems.append(f"energy efficiency {res.ee_exact}")
        fingerprint = (res.status, res.newton_iters_total, len(res.trace),
                       res.threshold_internal, res.ee_exact,
                       tuple(exact.pr_out.tolist()))
        return Outcome(not problems, problems, fingerprint, [res.ee_exact])


class ValidateMC(Workload):
    """`eecoop simulate --policy` on a reference policy solved in set-up,
    checked against exact outage."""

    # a call takes about 2.8 s
    budget_s = 5.0
    trials = 500_000

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        data = _jittered_reference(self.root, rng)
        config = eecoop.model.ScenarioConfig(**data)
        res = eecoop.solver.dinkelbach_optimize(config)
        if res.status != "converged" or \
                not eecoop.model.validate_policy(config, res.policy).feasible:
            raise RuntimeError(f"set-up solve ended {res.status}")
        scenario = os.path.join(self.work, "validate-mc.json")
        policy = os.path.join(self.work, "policy.json")
        _write_json(scenario, data)
        _write_json(policy, res.policy.to_dict())
        exact = eecoop.outage.network_outage_report(config, res.policy,
                                                    mode="exact").pr_out
        mc_seeds = rng.integers(0, 2 ** 63, size=self.n_ops).tolist()
        return {"scenario": scenario, "policy": policy, "exact": exact,
                "ee": res.ee_exact, "seeds": mc_seeds,
                "out": os.path.join(self.work, "simulate.json")}

    def operations(self, state, pooled):
        return [lambda s=s: [self._op(state, s)] for s in state["seeds"]]

    def _op(self, state, mc_seed):
        _remove(state["out"])
        code = eecoop.cli.main(["simulate", "--scenario", state["scenario"],
                                "--policy", state["policy"],
                                "--trials", str(self.trials),
                                "--seed", str(mc_seed),
                                "--out", state["out"]])
        if code != 0:
            return Outcome(False, [f"simulate exited with code {code}"],
                           code)
        with open(state["out"], encoding="utf-8") as fh:
            record = json.load(fh)
        count = np.asarray(record["outage_count"])
        problems = []
        if not np.array_equal(record["pr_out_exact"], state["exact"]):
            problems.append("simulate's exact outage differs from set-up's")
        fingerprint = (tuple(count.tolist()), record["ee_empirical"])
        return Outcome(not problems, problems, fingerprint, [state["ee"]],
                       outage_count=count)

    def _pooled(self, outcomes):
        """Per-period outage counts summed over the operations, and the
        number of trials behind them."""
        counts = [o.outage_count for o in outcomes
                  if o.outage_count is not None]
        return np.sum(counts, axis=0), self.trials * len(counts)

    def check_pass(self, state, outcomes):
        """Exact outage must lie inside the wide Wilson interval of the
        pass's pooled trials in every period; pooling makes the interval
        narrow enough to see a biased estimator."""
        count, n = self._pooled(outcomes)
        if not n:
            return
        exact = state["exact"]
        lo, hi = eecoop.montecarlo.wilson_interval(count, n, z=Z_WIDE)
        bad = np.flatnonzero((exact < lo) | (exact > hi))
        if bad.size:
            for o in outcomes:
                o.ok = False
            outcomes[0].problems.append(
                f"exact outage outside the wide Wilson interval of "
                f"{n} trials in periods {(bad + 1).tolist()}")

    def rel_halfwidth(self, state, outcomes):
        """Median over periods of the Wilson 95% half-width over exact
        outage, pooling every operation's trials."""
        count, n = self._pooled(outcomes)
        if not n:
            return 0.0
        lo, hi = eecoop.montecarlo.wilson_interval(count, n)
        return float(np.median((hi - lo) / 2.0 / state["exact"]))


WORKLOADS = {"ref-compare": RefCompare, "wide-network": WideNetwork,
             "validate-mc": ValidateMC}
