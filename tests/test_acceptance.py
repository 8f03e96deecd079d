"""Whole-package acceptance gate.

Ten checks, each printing one ``[acceptance NN] PASS/FAIL`` line carrying
the measured quantities next to the pinned tolerance they are judged
against.  The reference-scenario solves are shared through a module-level
cache so the expensive checks reuse each other's work; every check still
requests what it needs, so each also passes when run alone.
"""

import math
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from eecoop import cli
from eecoop.baselines import (
    depleted_energy_policy,
    no_transfer_policy,
    nonc_df_policy,
    uniform_power_policy,
)
from eecoop.model import (
    OUTAGE_AUDIT_RTOL,
    Policy,
    compute_link_coefficients,
    link_outage,
    load_scenario,
    save_scenario,
    validate_policy,
)
from eecoop.montecarlo import estimate_outage
from eecoop.outage import (
    network_outage_exact,
    network_outage_report,
    relay_miss_prob,
)
from eecoop.solver import dinkelbach_optimize, q_tol
from helpers import evaluate_V_prime, make_config, solver_toy
from oracle import brute_force_optimize

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" \
    / "reference_m2n4.json"


def report(tag, ok, detail):
    line = f"[acceptance {tag}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def nonincreasing(vals, rel=1e-9):
    return all(vals[i + 1] <= vals[i] * (1 + rel)
               for i in range(len(vals) - 1))


def dominates(a, b, rel=1e-9):
    return a >= b * (1 - rel)


# ---------------------------------------------------------------------------
# shared reference-scenario solves

_SOLVES = {}


def reference_config(threshold=None, delta=None, eta=None):
    cfg = load_scenario(REFERENCE)
    kw = {}
    if threshold is not None:
        kw["pr_out_0"] = threshold
    if eta is not None:
        kw["eta"] = eta
    if delta is not None:
        kw["d_h"] = cfg.d_h + delta
        kw["d_g"] = cfg.d_g - delta
    return replace(cfg, **kw) if kw else cfg


def solve(kind, threshold=None, delta=None, eta=None):
    key = (kind, threshold, delta, eta)
    if key not in _SOLVES:
        cfg = reference_config(threshold, delta, eta)
        runner = {
            "full": dinkelbach_optimize,
            "no_transfer": no_transfer_policy,
            "depleted": depleted_energy_policy,
            "nonc": nonc_df_policy,
        }[kind]
        _SOLVES[key] = (cfg, runner(cfg))
    return _SOLVES[key]


# ---------------------------------------------------------------------------
# 01 exact network outage equals exhaustive outcome enumeration


def enumerate_outage(pe_u, pe_r, M):
    """Network outage by summing over every delivery outcome pattern."""
    N = pe_r.size
    rho = np.prod(1.0 - pe_u, axis=0)
    total = 0.0
    for dec in product((0, 1), repeat=N):
        p_dec = 1.0
        for j in range(N):
            p_dec *= rho[j] if dec[j] else 1.0 - rho[j]
        decoders = [j for j in range(N) if dec[j]]
        if len(decoders) < M:
            total += p_dec
            continue
        for fwd in product((0, 1), repeat=len(decoders)):
            if sum(fwd) < M:
                p_f = 1.0
                for pos, j in enumerate(decoders):
                    p_f *= (1.0 - pe_r[j]) if fwd[pos] else pe_r[j]
                total += p_dec * p_f
    return total


def test_01_exact_outage_matches_enumeration():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    t0 = time.monotonic()
    for _ in range(1000):
        M = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        pe_u = rng.uniform(1e-6, 0.5, size=(M, N))
        pe_r = rng.uniform(1e-6, 0.5, size=N)
        got = network_outage_exact(relay_miss_prob(pe_u), pe_r, M)[0]
        want = enumerate_outage(pe_u, pe_r, M)
        worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report("01", ok,
           f"exact-vs-enumeration: 1000 instances (users<=3, relays<=4), "
           f"worst |diff|={worst:.2e} (tol 1e-12), {elapsed:.2f}s (limit 10s)")


# ---------------------------------------------------------------------------
# 02 Rayleigh closed form


def test_02_rayleigh_closed_form():
    bs = np.logspace(-9.0, 1.0, 500)
    worst = 0.0
    for b in bs:
        got = float(link_outage(1.0, b))
        want = -math.expm1(-b)
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-12
    report("02", ok,
           f"rayleigh closed form: 500 points, b in [1e-9, 10], "
           f"worst rel err={worst:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 03 monomial approximation tightness at low per-link outage


def test_03_approximation_tightness():
    rng = np.random.default_rng(42)
    worst = 0.0
    n_inst = 200
    for _ in range(n_inst):
        m = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        cfg = make_config(
            m=m,
            omega_h=rng.uniform(0.3, 3.0, (2, 2)),
            d_h=rng.uniform(2.0, 12.0, (2, 2)),
            beta_h=rng.uniform(2.0, 3.5, (2, 2)),
            N0_h=rng.uniform(0.1, 2.0, (2, 2)) * 1e-9,
            omega_g=rng.uniform(0.3, 3.0, 2),
            d_g=rng.uniform(2.0, 12.0, 2),
            beta_g=rng.uniform(2.0, 3.5, 2),
            N0_g=rng.uniform(0.1, 2.0, 2) * 1e-9,
        )
        co = compute_link_coefficients(cfg)
        # a user's worst link pins its power, so every per-link outage of
        # that user stays at or below the sampled target
        tgt_u = 10 ** rng.uniform(-6, -3, (2, 2))
        tgt_r = 10 ** rng.uniform(-6, -3, (2, 2))
        pol = Policy(
            p_u=(co.c_u.max(axis=1)[:, None] / tgt_u) ** (1.0 / m),
            p_r=(co.c_r[:, None] / tgt_r) ** (1.0 / m),
            transfers=np.zeros((2, 2, 2)))
        exact = network_outage_report(cfg, pol, mode="exact").pr_out
        approx = network_outage_report(cfg, pol, mode="approx").pr_out
        worst = max(worst, float(np.max(np.abs(approx - exact) / exact)))
    ok = worst <= 0.05
    report("03", ok,
           f"approximation tightness: {n_inst} random instances "
           f"(m in [0.5, 2], per-link outage <= 1e-3), "
           f"worst rel err={worst:.4f} (tol 0.05)")


# ---------------------------------------------------------------------------
# 04 Monte Carlo agreement with the exact formula


def test_04_monte_carlo_agreement():
    cfg = make_config(K=1, arrivals=np.array([[2.0], [1.0]]))
    details = []
    ok = True
    for level in (0.8, 45.0):
        pol = Policy(p_u=np.full((2, 1), level), p_r=np.full((2, 1), level),
                     transfers=np.zeros((1, 2, 2)))
        exact = float(network_outage_report(cfg, pol, mode="exact").pr_out[0])
        assert 1e-3 <= exact <= 1e-1
        sigma = math.sqrt(exact * (1.0 - exact) / 1e6)
        t0 = time.monotonic()
        hits = 0
        for seed in range(40):
            res = estimate_outage(cfg, pol, trials=10 ** 6, seed=seed)
            if abs(float(res.pr_out[0]) - exact) <= 3.0 * sigma:
                hits += 1
        elapsed = time.monotonic() - t0
        ok = ok and hits >= 38 and elapsed < 60.0
        details.append(f"exact={exact:.3e}: {hits}/40 seeds within 3 sigma "
                       f"(need >=38), {elapsed:.1f}s (limit 60s)")
    report("04", ok, "monte carlo 1e6 trials; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 05 inner objective curvature and gradients


def test_05_convexity_and_gradients():
    cfg = solver_toy()
    rng = np.random.default_rng(20260819)
    q = 5e4
    worst_quad = np.inf
    worst_grad = 0.0
    for _ in range(20):
        x = rng.uniform(math.log(0.2), math.log(10.0),
                        size=(cfg.M + cfg.N, cfg.K))
        E = rng.uniform(0.0, 0.5, size=(cfg.K, cfg.M, cfg.M))
        for k in range(cfg.K):
            np.fill_diagonal(E[k], 0.0)
        value, (gx, gE), hvp = evaluate_V_prime(q, x, E, cfg)
        for _ in range(100):
            dx = rng.standard_normal(x.shape)
            dE = rng.standard_normal(E.shape)
            for k in range(cfg.K):
                np.fill_diagonal(dE[k], 0.0)
            hx, hE = hvp(dx, dE)
            quad = float((dx * hx).sum() + (dE * hE).sum())
            worst_quad = min(worst_quad, quad)
        eps = 1e-6
        dx = rng.standard_normal(x.shape)
        dE = rng.standard_normal(E.shape)
        for k in range(cfg.K):
            np.fill_diagonal(dE[k], 0.0)
        vp, _, _ = evaluate_V_prime(q, x + eps * dx, E + eps * dE, cfg)
        vm, _, _ = evaluate_V_prime(q, x - eps * dx, E - eps * dE, cfg)
        fd = (vp - vm) / (2 * eps)
        analytic = float((gx * dx).sum() + (gE * dE).sum())
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd))
        worst_grad = max(worst_grad, rel)
    ok = worst_quad >= -1e-9 and worst_grad <= 1e-6
    report("05", ok,
           f"curvature/gradients: 20 points x 100 directions, "
           f"min v.Hv={worst_quad:.3e} (floor -1e-9); finite-difference "
           f"worst rel err={worst_grad:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 06 optimizer against the exhaustive oracle


BRUTE_FORCE_TOYS = (
    dict(M=1, N=1, K=1, d=3.5, pr_out_0=1e-3,
         arrival_lo=8.0, arrival_hi=10.0),
    dict(M=1, N=1, K=2, d=3.5, pr_out_0=2e-3, seed=9,
         arrival_lo=4.0, arrival_hi=10.0),
    dict(M=1, N=2, K=1, d=3.5, pr_out_0=1e-6, seed=3,
         arrival_lo=7.0, arrival_hi=10.0),
    dict(M=1, N=2, K=2, d=4.0, pr_out_0=1e-4, seed=13,
         arrival_lo=5.0, arrival_hi=9.0),
    dict(M=2, N=2, K=1, d=3.0, pr_out_0=2e-3,
         arrival_lo=6.0, arrival_hi=10.0),
    dict(M=1, N=1, K=2, d=3.5, pr_out_0=1e-4, seed=9, m=2.0,
         arrival_lo=4.0, arrival_hi=10.0),
)


def test_06_optimizer_matches_oracle():
    gaps = []
    ok = True
    for kw in BRUTE_FORCE_TOYS:
        cfg = solver_toy(**kw)
        bf = brute_force_optimize(cfg)
        dk = dinkelbach_optimize(cfg)
        if bf.status != "ok" or not dk.feasible:
            ok = False
            gaps.append("unsolved")
            continue
        gap = abs(dk.ee_exact - bf.ee) / bf.ee
        qs = [step[0] for step in dk.trace]
        q_mono = all(qs[i + 1] >= qs[i] * (1 - 1e-12)
                     for i in range(len(qs) - 1))
        v_final = abs(dk.trace[-1][1])
        ok = ok and gap <= 0.01 and q_mono \
            and v_final <= q_tol(cfg)
        gaps.append(f"{gap:.2%}")
    report("06", ok,
           f"optimizer-vs-oracle: {len(BRUTE_FORCE_TOYS)} toys, EE gaps "
           f"{gaps} (tol 1%), ratio trace nondecreasing, final residual "
           f"within tolerance")


# ---------------------------------------------------------------------------
# 07 dominance ordering on the reference scenario


def test_07_dominance_and_ordering():
    cfg5, full5 = solve("full", 1e-5)
    _, nt5 = solve("no_transfer", 1e-5)
    _, dep5 = solve("depleted", 1e-5)
    _, full6 = solve("full", 1e-6)
    _, nt6 = solve("no_transfer", 1e-6)
    _, dep6 = solve("depleted", 1e-6)
    _, full4 = solve("full", 1e-4)
    _, nonc4 = solve("nonc", 1e-4)
    uni5 = uniform_power_policy(cfg5, relay_powers_from=full5)

    three_way = (dominates(full5.ee_exact, nt5.ee_exact)
                 and dominates(nt5.ee_exact, dep5.ee_exact))
    tight_pair = dominates(full6.ee_exact, nt6.ee_exact)
    dep6_infeasible = dep6.status == "infeasible"
    uni_ok = uni5.feasible and dominates(full5.ee_exact, uni5.ee)
    ratio = full4.ee_exact / nonc4.ee_exact
    ok = (three_way and tight_pair and dep6_infeasible and uni_ok
          and ratio >= 1.10)
    report("07", ok,
           f"dominance: @1e-5 optimized {full5.ee_exact:.0f} >= "
           f"no-transfer {nt5.ee_exact:.0f} >= depleted {dep5.ee_exact:.0f} "
           f">= uniform {uni5.ee:.0f}(<=optimized); @1e-6 optimized "
           f"{full6.ee_exact:.0f} >= no-transfer {nt6.ee_exact:.0f}, "
           f"depleted infeasible={dep6_infeasible}; coded-vs-uncoded "
           f"ratio={ratio:.2f} (gate >=1.10)")


# ---------------------------------------------------------------------------
# 08 sweep monotonicity


def test_08_sweep_monotonicity():
    thresholds = (1e-4, 5e-5, 1e-5, 1e-6, 6e-7)
    by_thr = [solve("full", t)[1] for t in thresholds]
    thr_ok = (all(r.feasible for r in by_thr)
              and nonincreasing([r.ee_exact for r in by_thr]))

    d0 = solve("full", 1e-5)[1]
    d150 = solve("full", 1e-5, delta=150.0)[1]
    d300 = solve("full", 1e-5, delta=300.0)[1]
    delta_ok = (all(r.feasible for r in (d0, d150, d300))
                and nonincreasing([d0.ee_exact, d150.ee_exact,
                                   d300.ee_exact]))
    loss150 = 100.0 * (1.0 - d150.ee_exact / d0.ee_exact)
    loss300 = 100.0 * (1.0 - d300.ee_exact / d0.ee_exact)

    eta_tight = [solve("full", 1e-6, eta=e)[1] for e in (0.2, None, 1.0)]
    eta_tight_ok = (all(r.feasible for r in eta_tight)
                    and nonincreasing([r.ee_exact
                                       for r in reversed(eta_tight)]))
    eta_loose = [solve("full", 1e-4, eta=e)[1] for e in (0.2, None, 1.0)]
    ee_loose = [r.ee_exact for r in eta_loose]
    spread = (max(ee_loose) - min(ee_loose)) / max(ee_loose)
    moved = [float(r.policy.transfers.sum()) for r in eta_loose[:2]]
    coincide_ok = (all(r.feasible for r in eta_loose)
                   and spread <= 1e-6 and max(moved) <= 1e-3)

    ok = thr_ok and delta_ok and eta_tight_ok and coincide_ok
    report("08", ok,
           f"monotonicity: EE over thresholds "
           f"{[round(r.ee_exact) for r in by_thr]} nonincreasing={thr_ok}; "
           f"distance-shift losses {loss150:.1f}%/{loss300:.1f}% "
           f"nonincreasing={delta_ok}; transfer-efficiency sweep @1e-6 "
           f"{[round(r.ee_exact) for r in eta_tight]} "
           f"nondecreasing={eta_tight_ok}; @1e-4 rel spread={spread:.2e} "
           f"(tol 1e-6) with {max(moved):.1e} J moved below unit "
           f"efficiency (tol 1e-3)")


# ---------------------------------------------------------------------------
# 09 feasibility audits and distinguished infeasible status


def test_09_audits_and_infeasible_status():
    # make sure the core solves exist even when this test runs alone
    solve("full", 1e-5)
    solve("full", 1e-6)
    solve("no_transfer", 1e-5)
    solve("depleted", 1e-5)
    solve("depleted", 1e-6)
    solve("nonc", 1e-4)
    _, blocked = solve("full", 6e-7, delta=300.0)

    audited = 0
    audits_ok = True
    for (kind, *_), (cfg, res) in list(_SOLVES.items()):
        if res.status != "converged":
            continue
        audited += 1
        outage_ok = bool(np.max(res.outage_exact.pr_out)
                         <= cfg.pr_out_0 * (1.0 + OUTAGE_AUDIT_RTOL))
        rep = validate_policy(cfg, res.policy,
                              check_outage=(kind != "nonc"))
        audits_ok = audits_ok and rep.feasible and outage_ok

    dep6 = solve("depleted", 1e-6)[1]
    distinguished = (blocked.status == "infeasible" and blocked.binding_class
                     and dep6.status == "infeasible" and dep6.binding_class)
    ok = audits_ok and bool(distinguished)
    report("09", ok,
           f"audits: {audited} converged solves re-audited "
           f"(power/transfer/causality/exact-outage) all pass={audits_ok}; "
           f"blocked cases return status=infeasible with binding class "
           f"(distance shift 300 @6e-7: {blocked.binding_class}; "
           f"depleted @1e-6: {dep6.binding_class})")


# ---------------------------------------------------------------------------
# 10 byte-identical artifacts


def test_10_deterministic_artifacts(tmp_path, capsys):
    pairs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main(["optimize", "--scenario", str(REFERENCE),
                         "--out", str(out)])
        assert code == 0
        pairs.append(out.read_bytes())
    json_same = pairs[0] == pairs[1]

    toy = tmp_path / "toy.json"
    save_scenario(solver_toy(), toy)
    csvs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli.main(["sweep", "--scenario", str(toy),
                         "--sweep", "pr_out_0=0.05,0.02",
                         "--out", str(out)])
        assert code == 0
        csvs.append(out.read_bytes())
    csv_same = csvs[0] == csvs[1]
    capsys.readouterr()  # discard the echoed artifacts

    ok = json_same and csv_same
    report("10", ok,
           f"determinism: optimizer artifact bytes identical={json_same} "
           f"({len(pairs[0])} B), sweep CSV bytes identical={csv_same} "
           f"({len(csvs[0])} B) across two consecutive runs")
