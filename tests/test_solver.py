"""Tests for the interior-point inner solver and the fractional-programming
outer loop, including a grid-search oracle for the smallest network."""

import math
from pathlib import Path

import numpy as np
import pytest

from eecoop import outage
from eecoop import solver as solver_mod
from eecoop.baselines import (
    depleted_energy_policy,
    no_transfer_policy,
    nonc_df_policy,
)
from eecoop.model import (
    OUTAGE_AUDIT_RTOL,
    P_MIN,
    Policy,
    compute_link_coefficients,
    energy_ledger,
    load_scenario,
    validate_policy,
    zero_policy,
)
from eecoop.outage import network_outage_exact, network_outage_report
from eecoop.solver import (
    EEProblem,
    InfeasibleError,
    SolverOptions,
    dinkelbach_optimize,
    evaluate_V_prime,
    inner_solve,
    phase1,
)
from helpers import (
    inverse_transform_policy,
    make_config,
    per_user_tables,
    soft_values_scaled,
    solver_toy,
    tiled_config,
    transform_policy,
    uniform_outage_level_sequential,
)


def grid_oracle_single_link(cfg, n=240, rounds=3):
    """Exhaustive search for M=N=K=1: maximize exact-outage energy
    efficiency over (user power, relay power) on a refining log grid."""
    assert cfg.M == cfg.N == cfg.K == 1
    factor_u = ((2.0 ** (cfg.alpha0 / cfg.B) - 1.0) * cfg.N0_h[0, 0] * cfg.B
                / (cfg.d_h[0, 0] ** -cfg.beta_h[0, 0] * cfg.omega_h[0, 0]))
    factor_r = ((2.0 ** (cfg.alpha0 / cfg.B) - 1.0) * cfg.N0_g[0] * cfg.B
                / (cfg.d_g[0] ** -cfg.beta_g[0] * cfg.omega_g[0]))
    p_cap = min(cfg.p_max, (cfg.arrivals[0, 0] + cfg.Eu_0[0]) / cfg.T)
    lo_p, hi_p = 1e-3, p_cap
    lo_q, hi_q = 1e-3, cfg.p_max
    best = (-np.inf, None, None)
    for _ in range(rounds):
        p = np.exp(np.linspace(math.log(lo_p), math.log(hi_p), n))
        q = np.exp(np.linspace(math.log(lo_q), math.log(hi_q), n))
        P, Q = np.meshgrid(p, q, indexing="ij")
        pe_u = -np.expm1(-cfg.m * factor_u / P)   # m = 1 in these toys
        pe_r = -np.expm1(-cfg.m * factor_r / Q)
        out = network_outage_exact(pe_u[None], pe_r[None], 1)[0]
        ee = np.where(out <= cfg.pr_out_0,
                      cfg.alpha0 * (1.0 - out) / ((P + Q) * cfg.T), -np.inf)
        idx = np.unravel_index(np.argmax(ee), ee.shape)
        if ee[idx] > best[0]:
            best = (float(ee[idx]), float(P[idx]), float(Q[idx]))
        # shrink the window around the incumbent
        bp, bq = best[1], best[2]
        span_p = (hi_p / lo_p) ** 0.15
        span_q = (hi_q / lo_q) ** 0.15
        lo_p, hi_p = max(1e-6, bp / span_p), min(p_cap, bp * span_p)
        lo_q, hi_q = max(1e-6, bq / span_q), min(cfg.p_max, bq * span_q)
    return best


class TestTransforms:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        pol = Policy(p_u=rng.uniform(0.1, 10.0, (2, 3)),
                     p_r=rng.uniform(0.1, 10.0, (2, 3)),
                     transfers=rng.uniform(0.0, 1.0, (3, 2, 2)))
        for k in range(3):
            np.fill_diagonal(pol.transfers[k], 0.0)
        x, E = transform_policy(pol)
        back = inverse_transform_policy(x, E, M=2)
        np.testing.assert_allclose(back.p_u, pol.p_u, rtol=1e-15)
        np.testing.assert_allclose(back.p_r, pol.p_r, rtol=1e-15)
        np.testing.assert_array_equal(back.transfers, pol.transfers)

    def test_rejects_switched_off_relay(self):
        pol = Policy(p_u=np.ones((1, 1)), p_r=np.zeros((1, 1)),
                     transfers=np.zeros((1, 1, 1)))
        with pytest.raises(ValueError):
            transform_policy(pol)


class TestEvaluateVPrime:
    def test_hand_value_single_link(self):
        """M=N=K=1: V' = alpha0*T*(c_u/p + c_r/p') + q*(p + p')*T."""
        cfg = solver_toy(M=1, N=1, K=1)
        coeffs = compute_link_coefficients(cfg)
        p, pr = 3.0, 5.0
        q = 777.0
        x = np.log([[p], [pr]])
        value, (gx, gE), _ = evaluate_V_prime(q, x, np.zeros((1, 1, 1)), cfg)
        expected = (cfg.alpha0 * cfg.T
                    * (coeffs.c_u[0, 0] / p + coeffs.c_r[0] / pr)
                    + q * (p + pr) * cfg.T)
        assert value == pytest.approx(expected, rel=1e-12)
        # d/dlnp = -alpha0*T*c_u/p + q*p*T
        assert gx[0, 0] == pytest.approx(
            -cfg.alpha0 * cfg.T * coeffs.c_u[0, 0] / p + q * p * cfg.T,
            rel=1e-12)

    def test_gradients_match_finite_differences(self):
        cfg = solver_toy()
        rng = np.random.default_rng(101)
        q = 5e4
        for _ in range(4):
            x = rng.uniform(math.log(0.2), math.log(10.0),
                            size=(cfg.M + cfg.N, cfg.K))
            E = rng.uniform(0.0, 0.5, size=(cfg.K, cfg.M, cfg.M))
            for k in range(cfg.K):
                np.fill_diagonal(E[k], 0.0)
            value, (gx, gE), hvp = evaluate_V_prime(q, x, E, cfg)
            eps = 1e-6
            dx = rng.standard_normal(x.shape)
            dE = rng.standard_normal(E.shape)
            for k in range(cfg.K):
                np.fill_diagonal(dE[k], 0.0)
            vp, _, _ = evaluate_V_prime(q, x + eps * dx, E + eps * dE, cfg)
            vm, _, _ = evaluate_V_prime(q, x - eps * dx, E - eps * dE, cfg)
            fd = (vp - vm) / (2 * eps)
            analytic = float((gx * dx).sum() + (gE * dE).sum())
            assert analytic == pytest.approx(fd, rel=1e-6)

    def test_hessian_psd_and_consistent(self):
        cfg = solver_toy()
        rng = np.random.default_rng(113)
        x = rng.uniform(-1.0, 2.0, size=(cfg.M + cfg.N, cfg.K))
        E = rng.uniform(0.0, 0.3, size=(cfg.K, cfg.M, cfg.M))
        for k in range(cfg.K):
            np.fill_diagonal(E[k], 0.0)
        _, (gx, gE), hvp = evaluate_V_prime(3e4, x, E, cfg)
        # quadratic form is nonnegative along random directions
        for _ in range(10):
            dx = rng.standard_normal(x.shape)
            dE = rng.standard_normal(E.shape)
            for k in range(cfg.K):
                np.fill_diagonal(dE[k], 0.0)
            hx, hE = hvp(dx, dE)
            quad = float((dx * hx).sum() + (dE * hE).sum())
            assert quad >= -1e-9
        # hvp matches finite differences of the gradient
        eps = 1e-6
        dx = rng.standard_normal(x.shape)
        dE = np.zeros_like(E)
        _, (gxp, _), _ = evaluate_V_prime(3e4, x + eps * dx, E, cfg)
        _, (gxm, _), _ = evaluate_V_prime(3e4, x - eps * dx, E, cfg)
        hx, _ = hvp(dx, dE)
        np.testing.assert_allclose(hx, (gxp - gxm) / (2 * eps),
                                   rtol=1e-4, atol=1e-8)

    def test_shape_checks(self):
        cfg = solver_toy()
        with pytest.raises(ValueError):
            evaluate_V_prime(1.0, np.zeros((3, 2)), np.zeros((2, 2, 2)), cfg)
        with pytest.raises(ValueError):
            evaluate_V_prime(1.0, np.zeros((4, 2)), np.zeros((2, 3, 3)), cfg)


class TestPhase1:
    def test_returns_strictly_feasible_point(self):
        cfg = solver_toy()
        coeffs = compute_link_coefficients(cfg)
        prob = EEProblem(cfg, coeffs)
        z, _ = phase1(prob)
        assert prob.strictly_feasible(z)
        assert float(soft_values_scaled(prob, z).max()) < 0.0

    def test_impossible_outage_target(self):
        cfg = solver_toy(pr_out_0=1e-12)
        coeffs = compute_link_coefficients(cfg)
        prob = EEProblem(cfg, coeffs)
        with pytest.raises(InfeasibleError) as err:
            phase1(prob)
        assert err.value.binding_class == "outage"

    def test_energy_starved_network(self):
        """Links so weak that meeting the target needs more energy than
        ever arrives.  Causality and outage are jointly infeasible here
        (either alone would be satisfiable), and the shared phase-1 slack
        can leave both classes active at its optimum, so the certificate
        may name either one."""
        cfg = solver_toy()
        cfg = cfg.replace(d_h=np.full((2, 2), 10.0),
                          d_g=np.full(2, 10.0),
                          arrivals=np.full((2, 2), 0.4))
        coeffs = compute_link_coefficients(cfg)
        prob = EEProblem(cfg, coeffs)
        with pytest.raises(InfeasibleError) as err:
            phase1(prob)
        assert err.value.binding_class in ("causality", "outage")


class TestInnerSolve:
    def test_requires_strict_feasibility(self):
        cfg = solver_toy()
        coeffs = compute_link_coefficients(cfg)
        prob = EEProblem(cfg, coeffs)
        z_bad = prob.initial_point()
        lay = prob.layout
        z_bad[lay.user_idx[0, 0]] = math.log(cfg.p_max) + 1.0
        with pytest.raises(ValueError):
            inner_solve(prob, 1e4, z_bad)

    def test_convex_inner_optimum_is_start_independent(self):
        cfg = solver_toy()
        coeffs = compute_link_coefficients(cfg)
        prob = EEProblem(cfg, coeffs)
        z0, _ = phase1(prob)
        q = 3e4
        res_a = inner_solve(prob, q, z0)
        # a different strictly feasible start: the optimum of another q
        res_other = inner_solve(prob, 9e4, z0)
        res_b = inner_solve(prob, q, res_other.z)
        assert res_a.v_prime_norm == pytest.approx(res_b.v_prime_norm,
                                                   rel=1e-6)

    def test_solution_is_feasible_and_interior(self):
        cfg = solver_toy()
        coeffs = compute_link_coefficients(cfg)
        prob = EEProblem(cfg, coeffs)
        z0, _ = phase1(prob)
        res = inner_solve(prob, 5e4, z0)
        assert prob.strictly_feasible(res.z)
        assert res.t_final * solver_mod.KKT_TOL >= prob.n_con

    def test_warm_start_matches_cold_optimum(self):
        """The outer loop's second solve on the reference, from solve 1's
        z, started once at T0 and once at solve 1's final t."""
        cfg = load_scenario(REFERENCE)
        prob = EEProblem(cfg, compute_link_coefficients(cfg))
        z0, _ = phase1(prob)
        energy, bits = _energy_and_bits(prob, z0)
        first = inner_solve(prob, bits / energy, z0)
        energy, bits = _energy_and_bits(prob, first.z)
        q = bits / energy
        cold = inner_solve(prob, q, first.z, t0=solver_mod.T0)
        warm = inner_solve(prob, q, first.z, t0=first.t_final)
        assert prob.strictly_feasible(cold.z)
        assert prob.strictly_feasible(warm.z)
        assert warm.v_prime_norm == pytest.approx(cold.v_prime_norm,
                                                  rel=1e-9)
        assert warm.newton_iters < cold.newton_iters


class TestCentring:
    """Only a stage whose duality gap is read is centred to NEWTON_TOL:
    the last stage of an inner solve, and a phase-1 stage that issues a
    certificate.  Every other stage stops at STAGE_TOL, and phase 1
    returns at its first iterate that clears PHASE1_MARGIN."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every _damped_newton call as (tol, slacks its stop predicate
        saw, iterations, returned point), after the name of the solver
        routine that made it: "phase1" or "inner_solve"."""
        calls = []
        damped_newton = solver_mod._damped_newton

        def recording(z, fgh, tol, max_iter, stop=None):
            seen = []

            def watch(zz):
                seen.append(float(zz[-1]))
                return stop(zz)

            out = damped_newton(z, fgh, tol, max_iter, stop and watch)
            calls.append((tol, seen, out[1], out[0]))
            return out

        def marked(name):
            routine = getattr(solver_mod, name)

            def run(*args, **kwargs):
                calls.append(name)
                return routine(*args, **kwargs)
            monkeypatch.setattr(solver_mod, name, run)

        monkeypatch.setattr(solver_mod, "_damped_newton", recording)
        marked("phase1")
        marked("inner_solve")
        return calls

    @staticmethod
    def runs(calls):
        """[(routine name, [its calls])] in call order."""
        out = []
        for c in calls:
            if isinstance(c, str):
                out.append((c, []))
            else:
                out[-1][1].append(c)
        return out

    @classmethod
    def certificate_slack(cls, calls):
        """The slack phase 1 certified at, after checking that only its
        last stage was centred to NEWTON_TOL."""
        (_, stages), = cls.runs(calls)
        assert [c[0] for c in stages] == \
            [solver_mod.STAGE_TOL] * (len(stages) - 1) \
            + [solver_mod.NEWTON_TOL]
        return stages[-1][3][-1]

    @pytest.mark.parametrize("solve", [
        dinkelbach_optimize, depleted_energy_policy, nonc_df_policy,
        no_transfer_policy])
    def test_inner_solves_centre_their_last_stage_tightly(self, calls,
                                                          solve):
        res = solve(load_scenario(REFERENCE))
        assert res.status == "converged"
        runs = self.runs(calls)
        assert [name for name, _ in runs] == \
            ["phase1"] + ["inner_solve"] * len(res.trace)
        tols = [[c[0] for c in stages] for _, stages in runs]
        # feasible: no certificate, so phase 1 never centres tightly
        assert set(tols[0]) == {solver_mod.STAGE_TOL}
        first = tols[1]
        assert len(first) > 1
        assert first == [solver_mod.STAGE_TOL] * (len(first) - 1) \
            + [solver_mod.NEWTON_TOL]
        # each warm-started solve is its last stage alone
        assert all(t == [solver_mod.NEWTON_TOL] for t in tols[2:])

    @pytest.mark.parametrize("cfg", [
        solver_toy(pr_out_0=1e-12),
        solver_toy().replace(d_h=np.full((2, 2), 10.0), d_g=np.full(2, 10.0),
                             arrivals=np.full((2, 2), 0.4))],
        ids=["outage", "energy_starved"])
    def test_infeasibility_certified_after_a_tight_stage(self, calls, cfg):
        with pytest.raises(InfeasibleError):
            solver_mod.phase1(EEProblem(cfg, compute_link_coefficients(cfg)))
        assert self.certificate_slack(calls) > 0.0

    def test_interior_certified_after_a_tight_stage(self, calls):
        """Energy to spare and an outage target 0.05% above the least
        outage inside the power box: the optimal scaled slack is about
        -4e-4, so phase 1 certifies that no point clears the margin."""
        cfg = solver_toy(arrival_lo=50.0, arrival_hi=50.0)
        prob = EEProblem(cfg, compute_link_coefficients(cfg))
        full_power = np.full(cfg.M + cfg.N, math.log(cfg.p_max))
        least = max(float(tb.value(full_power)) for tb in prob.tables)
        cfg = cfg.replace(pr_out_0=least / (1.0 - 5e-4))
        prob = EEProblem(cfg, compute_link_coefficients(cfg))
        z, _ = solver_mod.phase1(prob)
        assert prob.strictly_feasible(z)
        s = self.certificate_slack(calls)
        assert -solver_mod.PHASE1_MARGIN < s < 0.0

    @pytest.mark.parametrize("changes", [{}, {"pr_out_0": 1e-3, "m": 0.5,
                                               "eta": 1.0}])
    def test_phase1_returns_first_iterate_clearing_margin(self, calls,
                                                          changes):
        """The reference takes two phase-1 stages, the variant three."""
        cfg = load_scenario(REFERENCE).replace(**changes)
        prob = EEProblem(cfg, compute_link_coefficients(cfg))
        z, _ = solver_mod.phase1(prob)
        (_, stages), = self.runs(calls)
        # the stop predicate saw every iterate of every stage
        assert all(len(seen) == iters for _, seen, iters, _ in stages)
        slacks = [s for _, seen, _, _ in stages for s in seen]
        assert slacks[-1] < -solver_mod.PHASE1_MARGIN
        assert all(s >= -solver_mod.PHASE1_MARGIN for s in slacks[:-1])
        np.testing.assert_array_equal(z, stages[-1][3][:-1])


class TestLineSearch:
    """Each line-search trial is one barrier_fgh (soft_barrier_fgh in
    phase 1) pass, and the accepted trial's derivatives serve the next
    Newton step: no point is evaluated twice, and no barrier pass runs
    outside the Newton stages."""

    @pytest.mark.parametrize("solve", [
        dinkelbach_optimize, depleted_energy_policy, nonc_df_policy,
        no_transfer_policy])
    def test_one_fgh_pass_per_trial(self, solve, monkeypatch):
        passes, stages = [], []
        barrier = EEProblem._barrier

        def counted(self, z, t, derivs, *args, **kwargs):
            passes.append(derivs)
            return barrier(self, z, t, derivs, *args, **kwargs)

        damped_newton = solver_mod._damped_newton

        def recording(z, fgh, tol, max_iter, stop=None):
            points = []

            def watched(zz):
                points.append(zz.copy())
                return fgh(zz)

            out = damped_newton(z, watched, tol, max_iter, stop)
            stages.append((points, out))
            return out

        monkeypatch.setattr(EEProblem, "_barrier", counted)
        monkeypatch.setattr(solver_mod, "_damped_newton", recording)
        res = solve(load_scenario(REFERENCE))
        assert res.status == "converged"
        assert passes == [True] * sum(len(p) for p, _ in stages)
        assert sum(out[1] for _, out in stages) \
            == res.newton_iters_total + res.phase1_newton_iters
        for points, (z, iters, _conv) in stages:
            # the start, then one distinct point per trial, the accepted
            # ones among them
            assert len({p.tobytes() for p in points}) == len(points) \
                >= 1 + iters
            assert any(np.array_equal(z, p) for p in points)


class TestUniformOutageLevel:
    """The start's common power level from the batched bisection equals
    the plain 60-step bisection's bit for bit: its mids are computed
    alike, and a column of a batched table call rounds like a call on
    that level alone."""

    CASES = {
        # name: (config from the reference, branch taken)
        "toy": (lambda ref: solver_toy(), "bisection"),
        "reference_m0.5": (lambda ref: ref.replace(m=0.5), "ceiling"),
        "reference_m1": (lambda ref: ref, "bisection"),
        "reference_m2.5": (lambda ref: ref.replace(m=2.5), "bisection"),
        "tiled_3x8": (lambda ref: tiled_config(ref, 3, 8, 4), "bisection"),
        "toy_ceiling": (lambda ref: solver_toy(pr_out_0=1e-12), "ceiling"),
        "toy_floor": (lambda ref: solver_toy(d=1e-3, pr_out_0=0.5),
                      "floor"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_sequential_bisection(self, case):
        make, branch = self.CASES[case]
        cfg = make(load_scenario(REFERENCE))
        prob = EEProblem(cfg, compute_link_coefficients(cfg))
        level = prob._uniform_outage_level()
        assert level == uniform_outage_level_sequential(prob)
        ends = {"floor": math.log(10.0 * P_MIN),
                "ceiling": math.log(0.999 * cfg.p_max)}
        if branch in ends:
            assert level == ends[branch]
        else:
            assert ends["floor"] < level < ends["ceiling"]


class TestDinkelbach:
    def test_converges_on_toy(self):
        cfg = solver_toy()
        res = dinkelbach_optimize(cfg)
        assert res.status == "converged"
        assert res.feasible
        assert res.feasibility.feasible, res.feasibility.summary()
        qs = [t[0] for t in res.trace]
        assert all(qs[i + 1] >= qs[i] * (1.0 - 1e-9)
                   for i in range(len(qs) - 1))
        # final inner value certifies |V(q)| within tolerance
        opt = SolverOptions()
        assert abs(res.trace[-1][1]) <= opt.q_tol_abs(cfg)
        # exact outage obeys the configured target
        assert np.all(res.outage_exact.pr_out <= cfg.pr_out_0 * (1 + 1e-6))
        # the approximate model never reports a better ratio than exact
        # evaluation refutes by more than the model gap
        assert res.ee_exact >= res.q_star * (1.0 - 0.05)

    def test_symmetric_scenario_symmetric_solution(self):
        cfg = solver_toy()
        cfg = cfg.replace(arrivals=np.full((2, 2), 3.0))
        res = dinkelbach_optimize(cfg)
        assert res.status == "converged"
        np.testing.assert_allclose(res.policy.p_u[0], res.policy.p_u[1],
                                   rtol=1e-5)
        np.testing.assert_allclose(res.policy.p_r[0], res.policy.p_r[1],
                                   rtol=1e-5)
        assert res.policy.transfers.max(initial=0.0) < 1e-6

    def test_matches_grid_oracle_single_link(self):
        cfg = solver_toy(M=1, N=1, K=1, pr_out_0=5e-3,
                         arrival_lo=6.0, arrival_hi=8.0)
        res = dinkelbach_optimize(cfg)
        assert res.status == "converged"
        ee_ref, p_ref, q_ref = grid_oracle_single_link(cfg)
        assert res.ee_exact == pytest.approx(ee_ref, rel=1e-2)
        assert res.ee_exact <= ee_ref * (1.0 + 1e-3)

    def test_transfers_flow_toward_the_starved_user(self):
        cfg = solver_toy()
        arrivals = np.array([[0.02, 0.02], [8.0, 8.0]])
        cfg = cfg.replace(arrivals=arrivals)
        res = dinkelbach_optimize(cfg)
        assert res.status == "converged"
        assert res.feasible
        sent_to_poor = res.policy.transfers[:, 1, 0].sum()
        sent_to_rich = res.policy.transfers[:, 0, 1].sum()
        assert sent_to_poor > 1e-3
        assert sent_to_rich < 1e-9

    def test_no_opposing_transfers_after_cleanup(self):
        cfg = solver_toy()
        res = dinkelbach_optimize(cfg)
        E = res.policy.transfers
        assert float(np.minimum(E, np.transpose(E, (0, 2, 1))).max()) == 0.0

    def test_efficiency_improves_with_eta(self):
        cfg = solver_toy()
        arrivals = np.array([[0.02, 0.02], [8.0, 8.0]])
        cfg = cfg.replace(arrivals=arrivals)
        ee = []
        for eta in (0.5, 0.9):
            res = dinkelbach_optimize(cfg.replace(eta=eta))
            assert res.status == "converged"
            ee.append(res.ee_exact)
        assert ee[1] >= ee[0] * (1.0 - 1e-3)

    def test_no_transfer_variant(self):
        cfg = solver_toy()
        res = dinkelbach_optimize(cfg, transfers=False)
        assert res.status == "converged"
        assert np.all(res.policy.transfers == 0.0)
        full = dinkelbach_optimize(cfg)
        assert full.ee_exact >= res.ee_exact * (1.0 - 1e-3)

    def test_depleted_variant_identity(self):
        """With depleted energy use, consumption equals the per-period
        harvest, p[i,k]*T = arrivals (plus Eu_0 in period 1), and nothing
        moves between users, though transfers=True is the default."""
        cfg = solver_toy(Eu_0=[0.5, 1.5])
        res = dinkelbach_optimize(cfg, depleted=True)
        assert res.status == "converged"
        assert res.feasible, res.feasibility.summary()
        assert np.all(res.policy.transfers == 0.0)
        harvest = cfg.arrivals.copy()
        harvest[:, 0] += cfg.Eu_0
        np.testing.assert_allclose(res.policy.p_u * cfg.T, harvest,
                                   rtol=1e-12)
        full = dinkelbach_optimize(cfg)
        assert full.ee_exact >= res.ee_exact * (1.0 - 1e-3)

    def test_depleted_problem_has_no_transfer_columns(self):
        """depleted=True builds no transfer variables, whatever transfers
        says: the relay log powers are its only columns."""
        cfg = solver_toy()
        prob = EEProblem(cfg, compute_link_coefficients(cfg),
                         depleted=True, transfers=True)
        lay = prob.layout
        assert lay.user_idx is None
        assert lay.pair_mat.size == 0
        assert lay.dim == cfg.N * cfg.K
        np.testing.assert_array_equal(prob.period_idx, lay.relay_idx.T)

    def test_infeasible_result_fields(self):
        cfg = solver_toy(pr_out_0=1e-12)
        res = dinkelbach_optimize(cfg)
        assert res.status == "infeasible"
        assert not res.feasible
        assert res.policy is None
        assert res.binding_class == "outage"

    def test_deterministic(self):
        cfg = solver_toy()
        a = dinkelbach_optimize(cfg)
        b = dinkelbach_optimize(cfg)
        np.testing.assert_array_equal(a.policy.p_u, b.policy.p_u)
        np.testing.assert_array_equal(a.policy.p_r, b.policy.p_r)
        np.testing.assert_array_equal(a.policy.transfers, b.policy.transfers)
        assert a.q_star == b.q_star

    def test_custom_q_tol(self):
        cfg = solver_toy()
        opt = SolverOptions(q_tol=1e-3 * 2 * 2 * 1e5)
        res = dinkelbach_optimize(cfg, options=opt)
        assert res.status == "converged"
        assert abs(res.trace[-1][1]) <= opt.q_tol

    def test_options_default_q_tol(self):
        cfg = solver_toy()
        assert SolverOptions().q_tol_abs(cfg) == pytest.approx(
            1e-6 * cfg.M * cfg.K * cfg.alpha0 * cfg.T)
        assert SolverOptions(q_tol=5.0).q_tol_abs(cfg) == 5.0

    @pytest.mark.parametrize("pr_out_0", [1e-1, 1e-5])
    @pytest.mark.parametrize("m", [0.5, 2.5])
    def test_q_star_matches_cold_restart_loop(self, pr_out_0, m):
        """Later inner solves resume at the previous final t; a loop that
        starts every inner solve at T0 must reach the same ratio."""
        cfg = load_scenario(REFERENCE).replace(pr_out_0=pr_out_0, m=m)
        res = dinkelbach_optimize(cfg)
        prob = EEProblem(cfg, compute_link_coefficients(cfg))
        if res.status == "infeasible":
            with pytest.raises(InfeasibleError):
                phase1(prob)
            return
        z, _ = phase1(prob)
        energy, bits = _energy_and_bits(prob, z)
        q = max(bits, 0.0) / energy
        q_tol = SolverOptions().q_tol_abs(cfg)
        for _ in range(solver_mod.MAX_OUTER):
            z = inner_solve(prob, q, z, t0=solver_mod.T0).z
            energy, bits = _energy_and_bits(prob, z)
            if abs(bits - q * energy) <= q_tol:
                break
            q = bits / energy
        assert res.q_star == pytest.approx(bits / energy, rel=1e-7)


class TestAuditIntegration:
    def test_returned_policy_passes_full_audit(self):
        cfg = solver_toy()
        res = dinkelbach_optimize(cfg)
        report = validate_policy(cfg, res.policy)
        assert report.feasible, report.summary()

    def test_causality_holds_with_margin(self):
        cfg = solver_toy()
        res = dinkelbach_optimize(cfg)
        ledger = energy_ledger(cfg, res.policy)
        assert ledger.min_slack >= -1e-9

    def test_outage_audit_failure_is_final(self, monkeypatch):
        """A forged outage-only audit failure is returned as audit_failed
        with the audited policy: one table build, one relay snap and one
        audit, at the scenario's own threshold."""
        builds, snaps, audits = [], [], []
        build, snap = solver_mod.outage_tables, solver_mod._snap_relays
        monkeypatch.setattr(solver_mod, "outage_tables",
                            lambda *a: builds.append(a) or build(*a))
        monkeypatch.setattr(solver_mod, "_snap_relays",
                            lambda *a: snaps.append(a) or snap(*a))

        def audit(config, policy):
            feas, report, ee = solver_mod._nc_audit(config, policy)
            audits.append(policy)
            feas.feasible = False
            feas.worst = dict.fromkeys(feas.worst, 0.0)
            feas.worst["outage"] = 1e-12
            return feas, report, ee

        cfg = solver_toy()
        res = dinkelbach_optimize(cfg, audit=audit)
        assert res.status == "audit_failed"
        assert not res.feasible
        assert res.threshold_internal == cfg.pr_out_0
        assert len(builds) == len(snaps) == len(audits) == 1
        assert res.policy is audits[0]


class TestSnapRelays:
    """A relay at the power floor is switched off exactly when exact
    outage stays within the audit's limit pr_out_0 * (1 + OUTAGE_AUDIT_RTOL)
    without it."""

    @pytest.mark.parametrize("rtol_share, snaps", [(0.5, True), (2.0, False)])
    def test_snaps_within_audit_limit(self, rtol_share, snaps):
        cfg = solver_toy()
        policy = zero_policy(cfg, p_user=2.0, p_relay=2.0)
        policy.p_r[0] = P_MIN
        off = policy.copy()
        off.p_r[0] = 0.0
        out = float(np.max(
            network_outage_report(cfg, off, mode="exact").pr_out))
        # the limit sits at out * (1 + RTOL) / (1 + share * RTOL)
        cfg = cfg.replace(
            pr_out_0=out / (1.0 + rtol_share * OUTAGE_AUDIT_RTOL))
        snapped = solver_mod._snap_relays(cfg, policy)
        if snaps:
            np.testing.assert_array_equal(snapped.p_r, off.p_r)
            np.testing.assert_array_equal(snapped.p_u, policy.p_u)
            np.testing.assert_array_equal(snapped.transfers,
                                          policy.transfers)
            assert np.all(policy.p_r[0] == P_MIN)
        else:
            assert snapped is policy


REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" \
    / "reference_m2n4.json"


def _energy_and_bits(prob, z):
    return prob.objective.energy_and_bits(z, prob.tables_at(z))


def _fd_check(fn_grad, fn_fd, z, scale, h):
    """Compare an analytic derivative with central differences taken
    along each scaled coordinate scale[j] * e_j."""
    analytic = fn_grad(z)
    fd = []
    for j in range(z.size):
        step = np.zeros(z.size)
        step[j] = h * scale[j]
        fd.append((fn_fd(z + step) - fn_fd(z - step)) / (2.0 * h))
    return analytic, np.array(fd).T


class TestBarrierAssembly:
    """barrier_fgh against finite differences of barrier_value (gradient)
    and of barrier_fgh's own gradient (Hessian), in every problem variant
    and in the phase-1 form with the slack column."""

    VARIANTS = {
        "standard": {},
        "no_transfer": {"transfers": False},
        "depleted": {"depleted": True, "transfers": False},
        # depleted=True ignores transfers: the same problem as "depleted"
        "depleted_transfers": {"depleted": True, "transfers": True},
        "nonc_df": "per_user_tables",
    }

    @staticmethod
    def scenario(name):
        return solver_toy() if name == "toy" else load_scenario(REFERENCE)

    def problem(self, cfg, variant):
        coeffs = compute_link_coefficients(cfg)
        kw = self.VARIANTS[variant]
        if kw == "per_user_tables":
            kw = {"tables_weights": (per_user_tables(coeffs, cfg.M, cfg.N),
                                     [1.0] * cfg.M)}
        return EEProblem(cfg, coeffs, **kw)

    @staticmethod
    def coordinate_scale(prob, z):
        """Unit steps on log powers; transfers sit near their zero bound,
        so they step relative to their own size."""
        scale = np.ones(z.size)
        tr = prob.layout.pair_mat.ravel()
        scale[tr] = z[tr]
        return scale

    def check(self, fgh, value, z, scale):
        """The barrier is convex, so |H_ij| <= sqrt(H_ii H_jj): entries are
        compared at the scale of their own rows and columns, which keeps
        small blocks (transfers, the slack) visible next to large ones."""
        f, g, H = fgh(z)
        assert np.isfinite(f)
        np.testing.assert_allclose(H, H.T, rtol=1e-12,
                                   atol=1e-12 * np.abs(H).max())
        H_s, fd_H = _fd_check(lambda zz: scale[:, None] * fgh(zz)[2]
                              * scale[None, :],
                              lambda zz: scale * fgh(zz)[1], z, scale, 1e-6)
        root = np.sqrt(np.diag(H_s))
        assert np.all(np.abs(H_s - fd_H)
                      <= 1e-5 * (np.abs(H_s) + np.outer(root, root)))
        g_s, fd_g = _fd_check(lambda zz: scale * fgh(zz)[1], value,
                              z, scale, 1e-6)
        assert np.all(np.abs(g_s - fd_g) <= 1e-5 * (np.abs(g_s) + root))

    @pytest.mark.parametrize("scenario", ["toy", "reference"])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_inner_barrier(self, scenario, variant):
        cfg = self.scenario(scenario)
        prob = self.problem(cfg, variant)
        z, _ = phase1(prob)
        energy, bits = prob.objective.energy_and_bits(z, prob.tables_at(z))
        q, t = bits / energy, 30.0
        self.check(lambda zz: prob.barrier_fgh(zz, q, t),
                   lambda zz: prob.barrier_value(zz, q, t),
                   z, self.coordinate_scale(prob, z))

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_value_rounds_like_fgh(self, variant):
        """barrier_value(z) is barrier_fgh(z)[0] bit for bit, and likewise
        for the phase-1 pair: the line search compares the two, and at
        t = 1e9 its Armijo margin is a few ulps of f."""
        rng = np.random.default_rng(29)
        finite = 0
        for scenario in ("toy", "reference"):
            prob = self.problem(self.scenario(scenario), variant)
            z0, _ = phase1(prob)
            energy, bits = prob.objective.energy_and_bits(
                z0, prob.tables_at(z0))
            q, sig = bits / energy, prob.soft_sigma
            scale = self.coordinate_scale(prob, z0)
            for _ in range(50):
                z = z0 + 1e-4 * scale * rng.standard_normal(z0.size)
                zs = np.append(z, float(soft_values_scaled(prob, z).max())
                               + rng.uniform(0.1, 1.0))
                for t in (1.0, 1e3, 1e9):
                    f = prob.barrier_value(z, q, t)
                    assert f == prob.barrier_fgh(z, q, t)[0]
                    f_soft = prob.soft_barrier_value(zs, t, sig)
                    assert f_soft == prob.soft_barrier_fgh(zs, t, sig)[0]
                    finite += math.isfinite(f) + math.isfinite(f_soft)
        assert finite == 600

    @staticmethod
    def crossing(g_max, z0, d):
        """z0 + a * d just past the first a > 0 where g_max turns
        positive, found by bisection."""
        lo, hi = 0.0, 1.0
        for _ in range(60):
            if g_max(z0 + hi * d) > 0.0:
                break
            lo, hi = hi, 2.0 * hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (lo, mid) if g_max(z0 + mid * d) > 0.0 else (mid, hi)
        z = z0 + hi * d
        assert g_max(z) > 0.0
        return z

    def outside_points(self, prob, z0):
        """{name: point} just outside one part of the domain each: the
        power box, a causality row (none in the depleted variant) or an
        outage row."""
        lay = prob.layout
        z = z0.copy()
        z[lay.relay_idx[0, 0]] = np.nextafter(math.log(prob.config.p_max),
                                              np.inf)
        points = {"bounds": z}
        d = np.zeros(z0.size)
        d[lay.relay_idx[:, 0]] = -1.0
        points["outage"] = self.crossing(
            lambda zz: prob.outage_cons.values(prob.tables_at(zz)).max(),
            z0, d)
        if not prob.depleted:
            d = np.zeros(z0.size)
            d[lay.user_idx[0, 0]] = 1.0
            points["causality"] = self.crossing(
                lambda zz: prob.energy_rows.values(zz).max(), z0, d)
        return points

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_value_and_fgh_are_inf_outside_domain(self, variant,
                                                  monkeypatch):
        """Just outside each part of the domain both barrier pairs give
        INF; the soft form's slack covers every soft row, or none where a
        soft row is the one crossed.  Outside the power box and past a
        causality row neither pair evaluates a table: the box and the
        causality rows are checked first, and most failed line-search
        trials land there."""

        def no_tables(*_args, **_kw):
            raise AssertionError("tables evaluated outside the box or "
                                 "past a causality row")

        for scenario in ("toy", "reference"):
            prob = self.problem(self.scenario(scenario), variant)
            z0, _ = phase1(prob)
            energy, bits = prob.objective.energy_and_bits(
                z0, prob.tables_at(z0))
            q, sig = bits / energy, prob.soft_sigma
            points = self.outside_points(prob, z0)
            assert len(points) == 2 + (not prob.depleted)
            for name, z in points.items():
                crossed = {cls for cls, g in prob.constraint_values(z)
                           if np.any(g >= 0.0)}
                if np.any(prob.bounds.values(z) >= 0.0):
                    crossed.add("bounds")
                assert crossed == {name}
                slack = 0.0 if name != "bounds" else 1.0 + float(
                    soft_values_scaled(prob, z).max())
                zs = np.append(z, slack)
                with monkeypatch.context() as mp:
                    if name in ("bounds", "causality"):
                        mp.setattr(prob, "tables_at", no_tables)
                    for t in (1.0, 1e9):
                        assert prob.barrier_value(z, q, t) \
                            == prob.barrier_fgh(z, q, t)[0] == math.inf, name
                        assert prob.soft_barrier_value(zs, t, sig) \
                            == prob.soft_barrier_fgh(zs, t, sig)[0] \
                            == math.inf, name

    @pytest.mark.parametrize("scenario", ["toy", "reference"])
    def test_phase1_soft_barrier(self, scenario):
        """The soft form adds the slack as a last column shared by every
        causality and outage row."""
        cfg = self.scenario(scenario)
        prob = self.problem(cfg, "standard")
        z = prob.initial_point()
        zs = np.append(z, float(soft_values_scaled(prob, z).max()) + 0.5)
        sig = prob.soft_sigma
        scale = np.append(self.coordinate_scale(prob, z), 1.0)
        self.check(lambda zz: prob.soft_barrier_fgh(zz, 3.0, sig),
                   lambda zz: prob.soft_barrier_value(zz, 3.0, sig),
                   zs, scale)


class TestBarrierAssemblyByRecursion(TestBarrierAssembly):
    """The same checks with every outage table built as the relay
    recursion instead of terms, the nonc_df variant's per-user tables
    too."""

    @pytest.fixture(autouse=True)
    def recursion_everywhere(self, monkeypatch):
        monkeypatch.setattr(outage, "RECURSION_MIN_TERMS", 0)

    def problem(self, cfg, variant):
        prob = super().problem(cfg, variant)
        assert all(t.recursion is not None for t in prob.tables)
        return prob


class TestWideNetwork:
    def test_m4_n12_solves_and_passes_audit(self):
        """The reference links tiled to M=4 users and N=12 relays: parts
        of 1,325 and 864,903 terms, whose A+B table is built as the relay
        recursion."""
        cfg = tiled_config(load_scenario(REFERENCE), 4, 12, 3)
        res = dinkelbach_optimize(cfg)
        assert res.status == "converged"
        assert validate_policy(cfg, res.policy).feasible

    @pytest.mark.parametrize("M,N", [(4, 16), (6, 16)])
    def test_unexpanded_tables_solve_and_pass_audit(self, M, N):
        """(4, 16) and (6, 16) have about 3.2e7 and 2.4e8 terms, which no
        table expands: both parts are built as the relay recursion."""
        cfg = tiled_config(load_scenario(REFERENCE), M, N, 3)
        res = dinkelbach_optimize(cfg)
        assert res.status == "converged"
        assert validate_policy(cfg, res.policy).feasible


class TestReferencePin:
    """Iterate-path pin on the bundled scenario: exact Newton counts of the
    inner solves and of phase 1, the outer count, and the optimum to 1e-9
    relative.

    A barrier stage ends when the Newton decrement is small or when the
    line search's Armijo margin falls below what f can resolve, so late
    stages are no longer settled by last-bit rounding.  Phase 1 and the
    first inner solve start their barrier paths at T0 = 100, and the
    second inner solve resumes at the first one's final barrier parameter.
    Only the stages whose duality gap is read are centred to NEWTON_TOL:
    the other stages stop at STAGE_TOL, and phase 1 returns at its first
    iterate that clears the margin.  These counts were the same with
    OpenBLAS SkylakeX and Haswell kernels, with one BLAS thread, and with
    the causality rows' exponential terms and the log barrier sums
    reversed (Python 3.11, NumPy 2.4.6, SciPy 1.17.1).  A change to the
    counts is a change to the iterate path: re-record them in that change
    and say why.
    """

    PINS = {
        "optimized": (dinkelbach_optimize, 37, 7, 2, 119375.69334521322,
                      119379.7947315367, 1e-4),
        "depleted_energy": (depleted_energy_policy, 28, 2, 2,
                            52519.45986947246, 52521.98649519647, 1e-4),
        "nonc_df": (nonc_df_policy, 37, 8, 2, 29138.931256132604,
                    29139.0477202311, 1e-4),
        "no_transfer": (no_transfer_policy, 31, 6, 2, 119375.69573272503,
                        119379.79473153682, 1e-4),
    }

    @pytest.mark.parametrize("method", list(PINS))
    def test_reference_iterate_path(self, method):
        (solve, newton, newton_phase1, outer, q_star, ee_exact,
         threshold) = self.PINS[method]
        res = solve(load_scenario(REFERENCE))
        assert res.status == "converged"
        assert res.newton_iters_total == newton
        assert res.phase1_newton_iters == newton_phase1
        assert len(res.trace) == outer
        assert res.q_star == pytest.approx(q_star, rel=1e-9)
        assert res.ee_exact == pytest.approx(ee_exact, rel=1e-9)
        assert res.threshold_internal == pytest.approx(threshold, rel=1e-9)


class TestVerdictPin:
    """(status, binding_class) of dinkelbach_optimize on the bundled
    scenario over targets, transfer efficiencies and fading shapes, from
    loose targets to the paper's tight ones.  Where a barrier path starts
    moves every iterate, never a verdict: phase 1's certificate and the
    last stage's gap do not depend on it."""

    CONVERGED = ("converged", None)
    VERDICTS = {
        # (pr_out_0, eta, m): (status, binding_class)
        (1e-1, 0.2, 0.5): CONVERGED,
        (1e-1, 0.2, 2.5): CONVERGED,
        (1e-1, 1.0, 0.5): CONVERGED,
        (1e-1, 1.0, 2.5): CONVERGED,
        (1e-3, 0.2, 0.5): ("infeasible", "causality"),
        (1e-3, 0.2, 2.5): CONVERGED,
        (1e-3, 1.0, 0.5): CONVERGED,
        (1e-3, 1.0, 2.5): CONVERGED,
        (1e-5, 0.2, 0.5): ("infeasible", "outage"),
        (1e-5, 0.2, 2.5): CONVERGED,
        (1e-5, 1.0, 0.5): ("infeasible", "outage"),
        (1e-5, 1.0, 2.5): CONVERGED,
        (6e-7, 0.2, 0.5): ("infeasible", "outage"),
        (6e-7, 0.2, 2.5): CONVERGED,
        (6e-7, 1.0, 0.5): ("infeasible", "outage"),
        (6e-7, 1.0, 2.5): CONVERGED,
    }

    @pytest.mark.parametrize("point", list(VERDICTS))
    def test_verdict(self, point):
        pr_out_0, eta, m = point
        cfg = load_scenario(REFERENCE).replace(pr_out_0=pr_out_0, eta=eta,
                                               m=m)
        res = dinkelbach_optimize(cfg)
        assert (res.status, res.binding_class) == self.VERDICTS[point]
