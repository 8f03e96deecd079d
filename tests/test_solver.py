"""Tests for the interior-point inner solver and the fractional-programming
outer loop, including a grid-search oracle for the smallest network."""

import math
from pathlib import Path

import numpy as np
import pytest

from eecoop.baselines import (
    build_per_user_tables,
    depleted_energy_policy,
    nonc_df_policy,
)
from eecoop.model import (
    Policy,
    compute_link_coefficients,
    energy_ledger,
    load_scenario,
    validate_policy,
)
from eecoop.outage import network_outage_exact_batch, network_outage_report
from eecoop.solver import (
    EEProblem,
    InfeasibleError,
    SolverOptions,
    dinkelbach_optimize,
    evaluate_V_prime,
    inner_solve,
    inverse_transform_policy,
    phase1,
    transform_policy,
)
from helpers import make_config, solver_toy


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
        out = network_outage_exact_batch((1.0 - pe_u)[..., None],
                                         pe_r[..., None], 1)
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
        opt = SolverOptions()
        prob = EEProblem(cfg, coeffs, opt, threshold=cfg.pr_out_0)
        z = phase1(prob, opt)
        assert prob.strictly_feasible(z)
        assert float(prob.soft_values_scaled(z).max()) < 0.0

    def test_impossible_outage_target(self):
        cfg = solver_toy(pr_out_0=1e-12)
        coeffs = compute_link_coefficients(cfg)
        opt = SolverOptions()
        prob = EEProblem(cfg, coeffs, opt, threshold=cfg.pr_out_0)
        with pytest.raises(InfeasibleError) as err:
            phase1(prob, opt)
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
        opt = SolverOptions()
        prob = EEProblem(cfg, coeffs, opt, threshold=cfg.pr_out_0)
        with pytest.raises(InfeasibleError) as err:
            phase1(prob, opt)
        assert err.value.binding_class in ("causality", "outage")


class TestInnerSolve:
    def test_requires_strict_feasibility(self):
        cfg = solver_toy()
        coeffs = compute_link_coefficients(cfg)
        opt = SolverOptions()
        prob = EEProblem(cfg, coeffs, opt, threshold=cfg.pr_out_0)
        z_bad = prob.initial_point()
        lay = prob.layout
        z_bad[lay.user_idx[0, 0]] = math.log(cfg.p_max) + 1.0
        with pytest.raises(ValueError):
            inner_solve(prob, 1e4, z_bad, opt)

    def test_convex_inner_optimum_is_start_independent(self):
        cfg = solver_toy()
        coeffs = compute_link_coefficients(cfg)
        opt = SolverOptions()
        prob = EEProblem(cfg, coeffs, opt, threshold=cfg.pr_out_0)
        z0 = phase1(prob, opt)
        q = 3e4
        res_a = inner_solve(prob, q, z0, opt)
        # a different strictly feasible start: the optimum of another q
        res_other = inner_solve(prob, 9e4, z0, opt)
        res_b = inner_solve(prob, q, res_other.z, opt)
        assert res_a.v_prime_norm == pytest.approx(res_b.v_prime_norm,
                                                   rel=1e-6)

    def test_solution_is_feasible_and_interior(self):
        cfg = solver_toy()
        coeffs = compute_link_coefficients(cfg)
        opt = SolverOptions()
        prob = EEProblem(cfg, coeffs, opt, threshold=cfg.pr_out_0)
        z0 = phase1(prob, opt)
        res = inner_solve(prob, 5e4, z0, opt)
        assert prob.strictly_feasible(res.z)
        assert res.t_final * opt.kkt_tol >= prob.n_con


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
        budget: p[i,k]*T = arrivals + eta*received - sent."""
        cfg = solver_toy()
        res = dinkelbach_optimize(cfg, depleted=True)
        assert res.status == "converged"
        assert res.feasible, res.feasibility.summary()
        E = res.policy.transfers
        recv = E.sum(axis=1).T
        sent = E.sum(axis=2).T
        budget = cfg.arrivals + cfg.eta * recv - sent
        budget[:, 0] += cfg.Eu_0
        np.testing.assert_allclose(res.policy.p_u * cfg.T, budget,
                                   rtol=1e-8, atol=1e-10)
        full = dinkelbach_optimize(cfg)
        assert full.ee_exact >= res.ee_exact * (1.0 - 1e-3)

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


REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" \
    / "reference_m2n4.json"


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
            kw = {"tables_weights": (build_per_user_tables(
                coeffs, cfg.M, cfg.N), [1.0] * cfg.M)}
        return EEProblem(cfg, coeffs, SolverOptions(),
                         threshold=cfg.pr_out_0, **kw)

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
        z = phase1(prob, prob.options)
        energy, bits = prob.objective.energy_and_bits(z, prob.tables_at(z))
        q, t = bits / energy, 30.0
        self.check(lambda zz: prob.barrier_fgh(zz, q, t),
                   lambda zz: prob.barrier_value(zz, q, t),
                   z, self.coordinate_scale(prob, z))

    @pytest.mark.parametrize("scenario", ["toy", "reference"])
    def test_phase1_soft_barrier(self, scenario):
        """The soft form adds the slack as a last column shared by every
        causality and outage row."""
        cfg = self.scenario(scenario)
        prob = self.problem(cfg, "standard")
        z = prob.initial_point()
        zs = np.append(z, float(prob.soft_values_scaled(z).max()) + 0.5)
        sig = prob.soft_sigma
        scale = np.append(self.coordinate_scale(prob, z), 1.0)
        self.check(lambda zz: prob.soft_barrier_fgh(zz, 3.0, sig),
                   lambda zz: prob.soft_barrier_value(zz, 3.0, sig),
                   zs, scale)


class TestReferencePin:
    """Iterate-path pin on the bundled scenario.

    Newton counts depend on last-bit rounding: the line search compares
    barrier values at the resolution of a double once the barrier
    parameter is large, and summing the exponential terms of every
    causality row in reverse order moves the reference solve from 145 to
    147 Newton iterations.  A change to the barrier assembly that keeps
    these numbers kept every rounding.
    Recorded with Python 3.11, NumPy 2.4.6 and SciPy 1.17.1 (OpenBLAS
    SkylakeX kernels); another BLAS build or CPU may round differently and
    need its own record.
    """

    PINS = {
        "optimized": (dinkelbach_optimize, 145, 2, 119375.69334485181,
                      119379.79473141617, 1e-4),
        "depleted_energy": (depleted_energy_policy, 133, 2,
                            52519.46459428261, 52521.99122509289, 1e-4),
        "nonc_df": (nonc_df_policy, 144, 2, 29138.93125613207,
                    29139.04772023083, 1e-4),
    }

    @pytest.mark.parametrize("method", list(PINS))
    def test_reference_iterate_path(self, method):
        solve, newton, outer, q_star, ee_exact, threshold = self.PINS[method]
        res = solve(load_scenario(REFERENCE))
        assert res.status == "converged"
        assert res.newton_iters_total == newton
        assert len(res.trace) == outer
        assert res.q_star == pytest.approx(q_star, rel=1e-9)
        assert res.ee_exact == pytest.approx(ee_exact, rel=1e-9)
        assert res.threshold_internal == pytest.approx(threshold, rel=1e-9)
