"""Baseline policies: reference constructions and the grid-search oracle."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    per_user_outage_exact,
    per_user_outage_product,
    per_user_tables,
    solver_toy,
    tiled_config,
)
from oracle import GridSpec, brute_force_optimize, grid_dimension_guard
from eecoop import outage
from eecoop.baselines import (
    depleted_energy_policy,
    no_transfer_policy,
    nonc_df_arguments,
    nonc_df_policy,
    relay_assignment,
    uniform_power_policy,
    _just_in_time,
    _just_in_time_transfers,
)
from eecoop.model import (
    Policy,
    compute_link_coefficients,
    energy_ledger,
    link_b_factors,
    load_scenario,
    total_energy,
    validate_policy,
)
from eecoop.outage import build_outage_tables, network_outage_report
from eecoop.solver import dinkelbach_optimize, optimize

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" \
    / "reference_m2n4.json"


def nonc_enumeration_oracle(pe_u_row, pe_r, assigned):
    """Exact per-user outage by enumerating decode/forward outcomes.

    pe_u_row[j] is the first-hop outage of this user's link to relay j,
    pe_r[j] the forwarding outage of relay j.  Sums the probability of
    every outcome in which no assigned relay both decodes and forwards.
    """
    out = Fraction(0)
    n = len(assigned)
    for decode in product([False, True], repeat=n):
        for forward in product([False, True], repeat=n):
            prob = Fraction(1)
            delivered = False
            for t, j in enumerate(assigned):
                pd = 1 - pe_u_row[j] if decode[t] else pe_u_row[j]
                pf = 1 - pe_r[j] if forward[t] else pe_r[j]
                prob *= pd * pf
                if decode[t] and forward[t]:
                    delivered = True
            if not delivered:
                out += prob
    return out


class TestRelayAssignment:
    def test_round_robin(self):
        assert relay_assignment(2, 4) == [[0, 2], [1, 3]]
        assert relay_assignment(1, 3) == [[0, 1, 2]]
        assert relay_assignment(3, 4) == [[0, 3], [1], [2]]

    def test_every_relay_used_once(self):
        for M, N in [(2, 4), (2, 5), (3, 7)]:
            groups = relay_assignment(M, N)
            flat = sorted(j for g in groups for j in g)
            assert flat == list(range(N))

    def test_needs_relay_per_user(self):
        with pytest.raises(ValueError):
            relay_assignment(3, 2)


class TestPerUserTables:
    def test_single_link_pair(self):
        cfg = solver_toy(M=1, N=1, K=1)
        coeffs = compute_link_coefficients(cfg)
        (table,) = build_outage_tables(coeffs, 1, 1, parts=("AB",),
                                       group=([0], [0]))
        # c_u * p**-m + c_r * q**-m: two monomials
        assert table.n_terms == 2
        x = np.log([2.0, 3.0])
        expect = coeffs.c_u[0, 0] / 2.0 + coeffs.c_r[0] / 3.0
        assert table.value(x) == pytest.approx(expect, rel=1e-14)

    def test_hand_expansion_two_relays(self):
        """User 0 of an M=2, N=4 network is served by relays 0 and 2, so
        its table is the expansion of
        (c_u00/p0 + c_r0/q0) * (c_u02/p0 + c_r2/q2)."""
        cfg = solver_toy(M=2, N=4, K=1, seed=5)
        # make the coefficients distinguishable
        cfg = replace(cfg, d_h=cfg.d_h * np.linspace(0.8, 1.3, 8).reshape(2, 4),
                      d_g=cfg.d_g * np.array([0.9, 1.0, 1.1, 1.2]))
        coeffs = compute_link_coefficients(cfg)
        tables = per_user_tables(coeffs, 2, 4)
        assert len(tables) == 2
        assert tables[0].n_terms == 4
        rng = np.random.default_rng(0)
        x = np.log(rng.uniform(0.5, 4.0, size=6))
        p0, q0, q2 = np.exp(x[0]), np.exp(x[2]), np.exp(x[4])
        expect = (coeffs.c_u[0, 0] / p0 + coeffs.c_r[0] / q0) \
            * (coeffs.c_u[0, 2] / p0 + coeffs.c_r[2] / q2)
        assert tables[0].value(x) == pytest.approx(expect, rel=1e-13)

    def test_tables_only_touch_own_dimensions(self):
        cfg = solver_toy(M=2, N=4, K=1)
        coeffs = compute_link_coefficients(cfg)
        tables = per_user_tables(coeffs, 2, 4)
        # user 1's table must have zero exponent on user 0's power and on
        # relays 0, 2 (assigned to user 0)
        w = tables[1].w
        assert np.all(w[:, 0] == 0.0)
        assert np.all(w[:, 2 + 0] == 0.0)
        assert np.all(w[:, 2 + 2] == 0.0)
        assert np.any(w[:, 1] != 0.0)


class TestPerUserOutageExact:
    def test_single_pair_identity(self):
        cfg = solver_toy(M=1, N=1, K=1)
        policy = Policy(p_u=np.full((1, 1), 2.0), p_r=np.full((1, 1), 3.0),
                        transfers=np.zeros((1, 1, 1)))
        rep = network_outage_report(cfg, policy, mode="exact")
        pe11 = rep.pe_user[0, 0, 0]
        pe1 = rep.pe_relay[0, 0]
        got = per_user_outage_exact(cfg, policy)[0, 0]
        assert got == pytest.approx(1 - (1 - pe11) * (1 - pe1), rel=1e-14)

    def test_matches_enumeration_oracle(self):
        M, N = 2, 4
        rng = np.random.default_rng(42)
        pe_u = rng.uniform(0.02, 0.5, size=(M, N))
        pe_r = rng.uniform(0.02, 0.5, size=N)
        frac_u = [[Fraction(x).limit_denominator(10**6) for x in row]
                  for row in pe_u]
        frac_r = [Fraction(x).limit_denominator(10**6) for x in pe_r]
        groups = relay_assignment(M, N)
        for i in range(M):
            oracle = nonc_enumeration_oracle(frac_u[i], frac_r, groups[i])
            formula = np.prod([
                float(frac_u[i][j]) + (1 - float(frac_u[i][j]))
                * float(frac_r[j]) for j in groups[i]])
            assert abs(formula - float(oracle)) < 1e-12

    def test_matches_product_formula(self):
        """network_outage_exact with M = 1 per user equals the product over
        its relays of pe_u + (1 - pe_u) * pe_r to 1e-14 relative, with
        per-link outages from below 1e-13 up to about one half."""
        M, N, K = 3, 7, 60
        rng = np.random.default_rng(23)
        cfg = replace(solver_toy(M=M, N=N, K=K),
                      d_h=rng.uniform(3.0, 8.0, (M, N)),
                      d_g=rng.uniform(3.0, 8.0, N))
        f_u, f_r = link_b_factors(cfg)
        # m = 1: a link's outage is about f / p, drawn down to 1e-14
        policy = Policy(
            p_u=f_u.max(axis=1)[:, None] / 10.0 ** rng.uniform(-14, 0, (M, K)),
            p_r=f_r[:, None] / 10.0 ** rng.uniform(-14, 0, (N, K)),
            transfers=np.zeros((K, M, M)))
        rep = network_outage_report(cfg, policy, mode="exact")
        assert rep.pe_user.min() < 1e-13 and rep.pe_relay.min() < 1e-13
        assert rep.pe_user.max() > 0.3 and rep.pe_relay.max() > 0.3
        expect = per_user_outage_product(rep.pe_user, rep.pe_relay,
                                         relay_assignment(M, N))
        np.testing.assert_allclose(per_user_outage_exact(cfg, policy),
                                   expect, rtol=1e-14, atol=0.0)

    def test_approx_upper_bounds_exact(self):
        cfg = solver_toy(M=2, N=4, K=2, seed=9)
        coeffs = compute_link_coefficients(cfg)
        tables = per_user_tables(coeffs, 2, 4)
        rng = np.random.default_rng(1)
        policy = Policy(p_u=rng.uniform(2.0, 15.0, (2, 2)),
                        p_r=rng.uniform(2.0, 15.0, (4, 2)),
                        transfers=np.zeros((2, 2, 2)))
        exact = per_user_outage_exact(cfg, policy)
        x = np.log(np.vstack([policy.p_u, policy.p_r]))
        for i, table in enumerate(tables):
            for k in range(2):
                assert table.value(x[:, k]) >= exact[i, k]

    def test_approx_tight_at_high_power(self):
        cfg = solver_toy(M=2, N=4, K=1, d=3.0)
        coeffs = compute_link_coefficients(cfg)
        tables = per_user_tables(coeffs, 2, 4)
        policy = Policy(p_u=np.full((2, 1), 15.0), p_r=np.full((4, 1), 15.0),
                        transfers=np.zeros((1, 2, 2)))
        exact = per_user_outage_exact(cfg, policy)
        x = np.log(np.vstack([policy.p_u, policy.p_r]))[:, 0]
        for i, table in enumerate(tables):
            approx = table.value(x)
            assert approx >= exact[i, 0]
            assert approx <= exact[i, 0] * 1.01


class TestNoncDf:
    def test_feasible_and_audited(self):
        cfg = solver_toy(M=2, N=4, K=2, pr_out_0=1e-3, arrival_lo=2.0,
                         arrival_hi=7.0)
        res = nonc_df_policy(cfg)
        assert res.status == "converged"
        assert res.feasible
        out = res.outage_exact.pr_out
        assert out.shape == (2, 2)
        assert np.all(out <= cfg.pr_out_0 * (1 + 1e-6))

    def test_energy_and_bits_accounting(self):
        cfg = solver_toy(M=2, N=4, K=2, pr_out_0=1e-3, arrival_lo=2.0,
                         arrival_hi=7.0)
        res = nonc_df_policy(cfg)
        out = per_user_outage_exact(cfg, res.policy)
        e_tot = total_energy(cfg, res.policy)
        bits = cfg.alpha0 * cfg.T * float((1.0 - out).sum())
        assert res.e_tot == pytest.approx(e_tot, rel=1e-12)
        assert res.ee_exact == pytest.approx(bits / e_tot, rel=1e-12)

    def test_network_coding_wins_with_shared_diversity(self):
        """With N=4 relays and M=2 users the coded protocol gives every
        message third-order diversity while the partitioned plain protocol
        gives second-order, so at a tight target the coded scheme spends
        less power for the same channel uses."""
        cfg = solver_toy(M=2, N=4, K=2, pr_out_0=1e-4, arrival_lo=2.0,
                         arrival_hi=7.0)
        nc = dinkelbach_optimize(cfg)
        nonc = nonc_df_policy(cfg)
        assert nc.feasible and nonc.feasible
        assert nc.ee_exact > 1.10 * nonc.ee_exact

    @pytest.mark.parametrize("N", [2, 4, 14])
    def test_one_user_is_the_coded_network(self, N):
        """With one user, plain relaying is the network-coded protocol:
        the same table and the same exact outage, so the same iterate path,
        policy and exact efficiency, bit for bit, through optimize's path
        choice and through the full-horizon solve.  At N = 14 the table's
        16,384 terms take the recursion."""
        cfg = tiled_config(load_scenario(REFERENCE), 1, N, 3)
        pairs = [(nonc_df_policy(cfg), optimize(cfg)),
                 (dinkelbach_optimize(cfg, **nonc_df_arguments(cfg)),
                  dinkelbach_optimize(cfg))]
        for nonc, coded in pairs:
            assert nonc.status == coded.status == "converged"
            for name in ("path", "newton_iters_total", "phase1_newton_iters",
                         "trace", "q_star", "ee_exact", "e_tot"):
                assert getattr(nonc, name) == getattr(coded, name), name
            for name in ("p_u", "p_r", "transfers"):
                assert np.array_equal(getattr(nonc.policy, name),
                                      getattr(coded.policy, name)), name
            assert np.array_equal(nonc.outage_exact.pr_out[0],
                                  coded.outage_exact.pr_out)

    def test_large_groups_take_the_recursion(self, monkeypatch):
        """Tiled to (2, 24), each user has 12 relays and a 4,096-term
        table, above RECURSION_MIN_TERMS: it is the recursion, and the
        solve matches the solve on the expanded tables."""
        cfg = tiled_config(load_scenario(REFERENCE), 2, 24, 3)
        tables = per_user_tables(compute_link_coefficients(cfg), 2, 24)
        assert [t.n_terms for t in tables] == [4096, 4096]
        assert all(t.recursion is not None for t in tables)
        by_recursion = nonc_df_policy(cfg)
        monkeypatch.setattr(outage, "RECURSION_MIN_TERMS", math.inf)
        by_terms = nonc_df_policy(cfg)
        assert by_recursion.status == by_terms.status == "converged"
        assert by_recursion.newton_iters_total == by_terms.newton_iters_total
        assert by_recursion.q_star == pytest.approx(by_terms.q_star,
                                                    rel=1e-9)
        assert by_recursion.ee_exact == pytest.approx(by_terms.ee_exact,
                                                      rel=1e-9)


class TestNoTransfer:
    def test_transfers_absent(self):
        cfg = solver_toy(arrival_lo=1.0, arrival_hi=6.0)
        res = no_transfer_policy(cfg)
        assert res.feasible
        assert np.all(res.policy.transfers == 0.0)

    def test_dominated_by_full_problem(self):
        cfg = solver_toy(M=2, N=2, K=2, seed=13, arrival_lo=0.3,
                         arrival_hi=6.0)
        full = dinkelbach_optimize(cfg)
        restricted = no_transfer_policy(cfg)
        if restricted.feasible:
            assert full.ee_exact >= restricted.ee_exact * (1 - 1e-4)

    def test_eta_does_not_matter(self):
        a = no_transfer_policy(solver_toy(eta=0.2, arrival_lo=1.0,
                                          arrival_hi=6.0))
        b = no_transfer_policy(solver_toy(eta=1.0, arrival_lo=1.0,
                                          arrival_hi=6.0))
        assert a.ee_exact == pytest.approx(b.ee_exact, rel=1e-9)

    def test_reuses_a_one_period_optimum(self):
        """A one-period optimize result is the transfer-free optimum too;
        after a full-path one, the full transfer-free solve runs at once."""
        cfg = load_scenario(REFERENCE)
        opt = optimize(cfg)
        assert opt.path == "one_period"
        assert no_transfer_policy(cfg, opt) is opt
        alone = no_transfer_policy(cfg)
        assert alone.path == "one_period"
        assert alone.q_star == opt.q_star and alone.trace == opt.trace

        cfg = cfg.replace(pr_out_0=1e-5)
        opt = optimize(cfg)
        assert opt.path == "full"
        res, full = (no_transfer_policy(cfg, opt),
                     dinkelbach_optimize(cfg, transfers=False))
        assert res.path == "full"
        assert res.q_star == full.q_star and res.trace == full.trace


class TestDepleted:
    def test_consumption_equals_budget(self):
        """The budget is the period's harvest, the initial battery
        counted in period 1."""
        cfg = solver_toy(arrival_lo=1.0, arrival_hi=6.0, Eu_0=[2.0, 0.5])
        res = depleted_energy_policy(cfg)
        assert res.feasible
        budget = cfg.arrivals.copy()
        budget[:, 0] += cfg.Eu_0
        assert np.allclose(res.policy.p_u * cfg.T, budget, rtol=1e-12)

    def test_no_transfer_variant(self):
        cfg = solver_toy(arrival_lo=1.0, arrival_hi=6.0)
        res = depleted_energy_policy(cfg)
        assert res.feasible
        assert np.all(res.policy.transfers == 0.0)
        assert np.allclose(res.policy.p_u * cfg.T, cfg.arrivals, rtol=1e-8)

    def test_dominated_by_full_problem(self):
        cfg = solver_toy(arrival_lo=1.0, arrival_hi=6.0)
        full = dinkelbach_optimize(cfg)
        dep = depleted_energy_policy(cfg)
        assert full.ee_exact >= dep.ee_exact * (1 - 1e-4)

    def test_harvest_matching_consumption_costs_nothing(self):
        """Pinning consumption to harvest is free when the harvest already
        equals an unconstrained optimum: re-solving with arrivals set to
        the full problem's consumption schedule must reproduce its
        efficiency."""
        cfg = solver_toy(M=1, N=2, K=2, d=3.5, pr_out_0=1e-4,
                         arrival_lo=6.0, arrival_hi=10.0)
        full = dinkelbach_optimize(cfg)
        assert full.feasible
        cfg2 = replace(cfg, arrivals=full.policy.p_u * cfg.T)
        dep = depleted_energy_policy(cfg2)
        assert dep.feasible
        assert dep.ee_exact == pytest.approx(full.ee_exact, rel=1e-3)
        assert np.allclose(dep.policy.p_u, full.policy.p_u, rtol=1e-3)

    def test_zero_arrival_period_without_transfers_infeasible(self):
        cfg = solver_toy(arrival_lo=2.0, arrival_hi=6.0)
        arr = cfg.arrivals.copy()
        arr[0, 1] = 0.0
        cfg = replace(cfg, arrivals=arr)
        res = depleted_energy_policy(cfg)
        assert res.status == "infeasible"
        assert res.binding_class == "power_budget"
        assert res.policy is None

    def test_harvest_above_power_ceiling_infeasible(self):
        """A period's harvest above p_max * T cannot be spent within the
        period at any allowed power."""
        cfg = solver_toy(arrival_lo=2.0, arrival_hi=6.0)
        arr = cfg.arrivals.copy()
        arr[1, 0] = 1.5 * cfg.p_max * cfg.T
        res = depleted_energy_policy(replace(cfg, arrivals=arr))
        assert res.status == "infeasible"
        assert res.binding_class == "power_budget"
        assert res.policy is None


class TestUniform:
    def test_level_formula_and_flat_powers(self):
        cfg = solver_toy(arrival_lo=2.0, arrival_hi=6.0, Eu_0=[3.0, 3.0])
        ref = dinkelbach_optimize(cfg)
        ev = uniform_power_policy(cfg, relay_powers_from=ref)
        assert ev.status == "ok"
        level = cfg.arrivals.sum() / (cfg.M * cfg.K * cfg.T)
        assert ev.extra["level"] == pytest.approx(level, rel=1e-12)
        assert np.allclose(ev.policy.p_u, level)
        assert np.array_equal(ev.policy.p_r, ref.policy.p_r)

    def test_cap_binds_with_huge_arrivals(self):
        cfg = solver_toy(arrival_lo=60.0, arrival_hi=80.0)
        ref = dinkelbach_optimize(cfg)
        ev = uniform_power_policy(cfg, relay_powers_from=ref)
        assert ev.status == "ok"
        assert np.allclose(ev.policy.p_u, cfg.p_max)

    def test_transfers_cover_starved_user(self):
        cfg = solver_toy(seed=21, arrival_lo=1.0, arrival_hi=6.0,
                         Eu_0=[2.0, 2.0])
        arr = cfg.arrivals.copy()
        arr[0] = [0.5, 0.5]
        arr[1] = [6.0, 6.0]
        cfg = replace(cfg, arrivals=arr)
        ref = dinkelbach_optimize(cfg)
        ev = uniform_power_policy(cfg, relay_powers_from=ref)
        assert ev.status == "ok"
        assert ev.policy.transfers[:, 1, 0].sum() > 0.0
        ledger = energy_ledger(cfg, ev.policy)
        assert ledger.min_slack >= -1e-9

    def test_ok_without_outage_constraint(self):
        """The construction ignores the outage target; the report still
        carries the realized exact outage."""
        cfg = solver_toy(pr_out_0=1e-9, arrival_lo=2.0, arrival_hi=6.0,
                         Eu_0=[2.0, 2.0])
        relays = np.full((cfg.N, cfg.K), 5.0)
        ev = uniform_power_policy(cfg, relay_powers_from=relays)
        assert ev.status == "ok"
        assert ev.extra["outage_ok"] is False
        assert np.all(ev.pr_out > cfg.pr_out_0)

    def test_infeasible_without_slack(self):
        """Break-even level plus transfer losses cannot be funded when no
        initial battery exists and arrivals are asymmetric."""
        cfg = solver_toy(seed=7, arrival_lo=0.5, arrival_hi=6.0)
        assert float(cfg.Eu_0.sum()) == 0.0
        relays = np.full((cfg.N, cfg.K), 1.0)
        ev = uniform_power_policy(cfg, relay_powers_from=relays)
        assert ev.status == "infeasible"
        assert ev.extra["binding_class"] == "causality"

    def test_dominated_by_full_problem(self):
        cfg = solver_toy(arrival_lo=2.0, arrival_hi=6.0, Eu_0=[3.0, 3.0])
        full = dinkelbach_optimize(cfg)
        ev = uniform_power_policy(cfg, relay_powers_from=full)
        assert ev.status == "ok"
        assert full.ee_exact >= ev.ee * (1 - 1e-4)

    def test_rejects_bad_relay_shape(self):
        cfg = solver_toy()
        with pytest.raises(ValueError):
            uniform_power_policy(cfg, relay_powers_from=np.ones((3, 3)))

    def test_flat_arrivals_match_depleted(self):
        """Equal arrivals every period: the uniform level equals the
        per-period budget, so uniform and depleted pick the same user
        powers and, with the same relay powers, the same efficiency."""
        cfg = solver_toy(arrival_lo=4.0, arrival_hi=4.0)
        dep = depleted_energy_policy(cfg)
        ev = uniform_power_policy(cfg, relay_powers_from=dep.policy)
        assert ev.status == "ok"
        assert np.allclose(ev.policy.p_u, dep.policy.p_u, rtol=1e-6)
        assert ev.ee == pytest.approx(dep.ee_exact, rel=1e-6)


class TestJustInTime:
    def test_hand_schedule(self):
        cfg = solver_toy(K=2, eta=0.5, arrival_lo=1.0, arrival_hi=1.0)
        cfg = replace(cfg, arrivals=np.array([[0.0, 4.0], [4.0, 0.0]]))
        p_u = np.ones((2, 2))
        tr = _just_in_time_transfers(cfg, p_u)
        # period 0: user 0 has nothing, needs 1 J; draw 2 J (eta 0.5)
        assert tr[0, 1, 0] == pytest.approx(2.0)
        # period 1: user 1 banked 1 J from period 0, no transfer needed
        assert tr[1].sum() == pytest.approx(0.0)
        policy = Policy(p_u=p_u, p_r=np.full((2, 2), 1.0), transfers=tr)
        report = validate_policy(cfg, policy, check_outage=False)
        assert report.feasible

    def test_uncoverable_deficit(self):
        cfg = solver_toy(K=1, eta=0.5, arrival_lo=1.0, arrival_hi=1.0)
        cfg = replace(cfg, arrivals=np.array([[0.0], [1.2]]))
        assert _just_in_time_transfers(cfg, np.ones((2, 1))) is None

    @pytest.mark.parametrize("M,K", [(2, 1), (2, 3), (3, 2)])
    def test_mesh_cells_match_float_calls(self, M, K):
        """One call on a mesh of schedules (three energies per user and
        period) completes every cell bit for bit as the float call on that
        cell alone.  In the middle row user 0 meets period 0 with a deficit
        of one ulp, at most 1e-15 J: that is dust, and it draws nothing
        although the other users have energy to spare."""
        rng = np.random.default_rng([M, K])
        cfg = solver_toy(M=M, K=K, eta=0.7, arrival_lo=0.5, arrival_hi=3.0,
                         Eu_0=rng.uniform(0.0, 1.0, M))
        ndim = M * K
        start = cfg.Eu_0[0] + cfg.arrivals[0, 0]
        # 0.2 J is always covered, 20 J never
        values = [np.array([0.2, rng.uniform(0.0, 3.0), 20.0])
                  for _ in range(ndim)]
        values[0][1] = np.nextafter(start, np.inf)
        assert 0.0 < values[0][1] - start <= 1e-15

        def on_axis(ax):
            return values[ax].reshape([-1 if a == ax else 1
                                       for a in range(ndim)])

        shape = (3,) * ndim
        mesh = _just_in_time(
            cfg, [[on_axis(i * K + k) for k in range(K)] for i in range(M)])

        def at(arr, cell):
            return np.broadcast_to(arr, shape)[cell]

        for cell in np.ndindex(shape):
            feasible, loss, draws = _just_in_time(
                cfg, [[values[i * K + k][cell[i * K + k]] for k in range(K)]
                      for i in range(M)])
            assert at(mesh[0], cell) == feasible
            assert at(mesh[1], cell).tobytes() == np.float64(loss).tobytes()
            assert np.array([[[at(d, cell) for d in row] for row in period]
                             for period in mesh[2]]).tobytes() \
                == np.array(draws, dtype=float).tobytes()
            if cell[0] == 1:  # the dust deficit: user 0 receives nothing
                assert not any(draws[0][j][0] for j in range(M))
        assert np.any(mesh[0]) and not np.all(mesh[0])


class TestBruteForce:
    def test_dimension_guard(self):
        cfg = solver_toy(M=2, N=2, K=2)
        assert grid_dimension_guard(cfg) == 10
        with pytest.raises(ValueError):
            brute_force_optimize(cfg)

    def test_agrees_with_solver_on_smallest_toy(self):
        cfg = solver_toy(M=1, N=1, K=1, d=3.5, pr_out_0=1e-3,
                         arrival_lo=8.0, arrival_hi=10.0)
        bf = brute_force_optimize(cfg)
        dk = dinkelbach_optimize(cfg)
        assert bf.status == "ok"
        assert dk.feasible
        assert abs(dk.ee_exact - bf.ee) <= 1e-2 * bf.ee

    def test_grid_refinement_stability(self):
        cfg = solver_toy(M=1, N=1, K=1, d=3.5, pr_out_0=1e-3,
                         arrival_lo=8.0, arrival_hi=10.0)
        coarse = brute_force_optimize(cfg, GridSpec(points_per_dim=24,
                                                    refine_rounds=3))
        fine = brute_force_optimize(cfg, GridSpec(points_per_dim=48,
                                                  refine_rounds=3))
        assert abs(fine.ee - coarse.ee) <= 5e-3 * coarse.ee

    def test_explicit_grid_within_cell_budget(self):
        cfg = solver_toy(M=1, N=1, K=1, d=3.5, pr_out_0=1e-3,
                         arrival_lo=8.0, arrival_hi=10.0)
        with pytest.raises(ValueError, match="cell budget"):
            brute_force_optimize(cfg, GridSpec(points_per_dim=1500,
                                               refine_rounds=1))

    def test_infeasible_matches_solver_verdict(self):
        # N < M makes the coded outage identically one
        cfg = solver_toy(M=2, N=1, K=1, pr_out_0=1e-2, arrival_lo=3.0,
                         arrival_hi=6.0)
        bf = brute_force_optimize(cfg)
        dk = dinkelbach_optimize(cfg)
        assert bf.status == "infeasible"
        assert not bf.feasible
        assert dk.status == "infeasible"

    def test_unconstrained_beats_constrained(self):
        cfg = solver_toy(M=1, N=1, K=1, d=3.5, pr_out_0=1e-3,
                         arrival_lo=8.0, arrival_hi=10.0)
        con = brute_force_optimize(cfg)
        unc = brute_force_optimize(cfg, enforce_outage=False)
        assert unc.ee >= con.ee

    def test_policy_is_feasible(self):
        cfg = solver_toy(M=2, N=2, K=1, d=3.0, pr_out_0=2e-3,
                         arrival_lo=6.0, arrival_hi=10.0)
        bf = brute_force_optimize(cfg)
        assert bf.status == "ok"
        report = validate_policy(cfg, bf.policy)
        assert report.feasible

    def test_pinned_on_two_user_toy(self):
        """The acceptance-6 toy with two users, where the completion draws
        a transfer, pinned to its recorded result: an edit of the oracle
        that moves the reference shows here."""
        cfg = solver_toy(M=2, N=2, K=1, d=3.0, pr_out_0=2e-3,
                         arrival_lo=6.0, arrival_hi=10.0)
        bf = brute_force_optimize(cfg)
        assert (bf.status, bf.feasible) == ("ok", True)
        assert bf.ee == pytest.approx(6330.724069819374, rel=1e-12)
        for got, pinned in (
                (bf.policy.p_u, [[8.507124989622259], [9.561440861004627]]),
                (bf.policy.p_r, [[6.7292637861260785], [6.7292637861260785]]),
                (bf.policy.transfers, [[[0.0, 0.0],
                                        [0.008428904004489368, 0.0]]])):
            np.testing.assert_allclose(got, pinned, rtol=1e-12, atol=0.0)

    def test_deterministic(self):
        cfg = solver_toy(M=1, N=2, K=1, d=3.5, pr_out_0=1e-6, seed=3,
                         arrival_lo=7.0, arrival_hi=10.0)
        a = brute_force_optimize(cfg)
        b = brute_force_optimize(cfg)
        assert a.ee == b.ee
        assert np.array_equal(a.policy.p_u, b.policy.p_u)
        assert np.array_equal(a.policy.p_r, b.policy.p_r)
        assert np.array_equal(a.policy.transfers, b.policy.transfers)


class TestDominanceOrdering:
    def test_full_geq_no_transfer_geq_depleted(self):
        """Restricting the feasible set can only lower the optimum: the
        no-transfer problem is the full problem minus transfers, and the
        depleted problem additionally pins the consumption schedule."""
        for seed in (7, 13):
            cfg = solver_toy(seed=seed, arrival_lo=0.5, arrival_hi=6.0)
            full = dinkelbach_optimize(cfg)
            nt = no_transfer_policy(cfg)
            dep = depleted_energy_policy(cfg)
            assert full.feasible
            if nt.feasible:
                assert full.ee_exact >= nt.ee_exact * (1 - 1e-4)
            if nt.feasible and dep.feasible:
                assert nt.ee_exact >= dep.ee_exact * (1 - 1e-4)
