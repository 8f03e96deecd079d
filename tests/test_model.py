"""Tests for scenario configuration, link coefficients, energy accounting
and policy validation."""

import numpy as np
import pytest

from eecoop.model import (
    P_MIN,
    Policy,
    ScenarioConfig,
    compute_link_coefficients,
    energy_efficiency,
    energy_ledger,
    load_scenario,
    save_scenario,
    snr_gap,
    total_energy,
    validate_policy,
    zero_policy,
)
from helpers import make_config


class TestScenarioConfig:
    def test_valid_construction(self):
        cfg = make_config()
        assert cfg.M == 2 and cfg.N == 2 and cfg.K == 2
        assert np.all(cfg.Eu_0 == 0.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="M"):
            make_config(M=0)
        with pytest.raises(ValueError, match="K"):
            make_config(K=-1)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError, match="eta"):
            make_config(eta=0.0)
        with pytest.raises(ValueError, match="eta"):
            make_config(eta=1.2)
        with pytest.raises(ValueError, match="m"):
            make_config(m=0.3)
        with pytest.raises(ValueError, match="pr_out_0"):
            make_config(pr_out_0=0.0)
        with pytest.raises(ValueError, match="B"):
            make_config(B=-1.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="omega_h"):
            make_config(omega_h=np.ones(3))
        with pytest.raises(ValueError, match="arrivals"):
            make_config(arrivals=np.ones((2, 3)))
        with pytest.raises(ValueError, match="Eu_0"):
            make_config(Eu_0=np.ones(3))

    def test_rejects_nonpositive_link_params(self):
        d = np.full((2, 2), 5.0)
        d[0, 1] = 0.0
        with pytest.raises(ValueError, match="d_h"):
            make_config(d_h=d)

    def test_rejects_negative_arrivals(self):
        with pytest.raises(ValueError, match="arrivals"):
            make_config(arrivals=np.array([[1.0, -0.1], [1.0, 1.0]]))

    def test_replace_reruns_validation(self):
        cfg = make_config()
        cfg2 = cfg.replace(eta=0.5)
        assert cfg2.eta == 0.5 and cfg.eta == 0.8
        with pytest.raises(ValueError):
            cfg.replace(eta=2.0)

    def test_replace_copies_arrays(self):
        cfg = make_config()
        cfg2 = cfg.replace()
        cfg2.arrivals[0, 0] = 99.0
        assert cfg.arrivals[0, 0] == 2.0


class TestScenarioIO:
    def test_roundtrip(self, tmp_path):
        cfg = make_config(Eu_0=np.array([0.5, 0.0]))
        path = tmp_path / "scenario.json"
        save_scenario(cfg, path)
        cfg2 = load_scenario(path)
        assert cfg2.M == cfg.M
        np.testing.assert_allclose(cfg2.arrivals, cfg.arrivals)
        np.testing.assert_allclose(cfg2.Eu_0, cfg.Eu_0)
        assert cfg2.pr_out_0 == cfg.pr_out_0

    def test_unknown_key_rejected(self, tmp_path):
        import json
        cfg = make_config()
        path = tmp_path / "scenario.json"
        save_scenario(cfg, path)
        data = json.loads(path.read_text())
        data["unexpected"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unexpected"):
            load_scenario(path)

    def test_missing_key_rejected(self, tmp_path):
        import json
        cfg = make_config()
        path = tmp_path / "scenario.json"
        save_scenario(cfg, path)
        data = json.loads(path.read_text())
        del data["p_max"]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="p_max"):
            load_scenario(path)

    def test_initial_battery_optional(self, tmp_path):
        import json
        cfg = make_config()
        path = tmp_path / "scenario.json"
        save_scenario(cfg, path)
        data = json.loads(path.read_text())
        data.pop("Eu_0", None)
        path.write_text(json.dumps(data))
        cfg2 = load_scenario(path)
        assert np.all(cfg2.Eu_0 == 0.0)


class TestLinkCoefficients:
    def test_snr_gap(self):
        # 2**(1e5 / 1.25e5) - 1, frozen from 40-digit arithmetic
        cfg = make_config()
        assert snr_gap(cfg) == pytest.approx(0.74110112659224828, rel=1e-15)

    # Frozen with mpmath at 40 digits for B=1.25e5, alpha0=1e5,
    # N0=4e-15 W/Hz, d=80 m, beta=3.2, omega=1.3:
    # c = (m * gap * N0 * B / (d**-beta * omega))**m / gamma(m + 1)
    GOLDEN = {0.5: 0.014939501403631003,
              1.0: 0.00035058399358074692,
              3.0: 1.9390489173459945e-10}

    @pytest.mark.parametrize("m,expected", sorted(GOLDEN.items()))
    def test_against_high_precision(self, m, expected):
        cfg = make_config(
            m=m,
            omega_h=np.full((2, 2), 1.3), d_h=np.full((2, 2), 80.0),
            beta_h=np.full((2, 2), 3.2), N0_h=np.full((2, 2), 4e-15),
            omega_g=np.full(2, 1.3), d_g=np.full(2, 80.0),
            beta_g=np.full(2, 3.2), N0_g=np.full(2, 4e-15))
        coeffs = compute_link_coefficients(cfg)
        np.testing.assert_allclose(coeffs.c_u, expected, rtol=1e-13)
        np.testing.assert_allclose(coeffs.c_r, expected, rtol=1e-13)
        assert coeffs.m == m

    def test_scaling_properties(self):
        """c scales like N0**m and like (d**beta)**m for m=2."""
        cfg = make_config(m=2.0)
        base = compute_link_coefficients(cfg).c_u[0, 0]
        c_n0 = compute_link_coefficients(
            cfg.replace(N0_h=np.full((2, 2), 3e-9))).c_u[0, 0]
        assert c_n0 / base == pytest.approx(3.0 ** 2, rel=1e-12)
        c_d = compute_link_coefficients(
            cfg.replace(d_h=np.full((2, 2), 10.0))).c_u[0, 0]
        assert c_d / base == pytest.approx(2.0 ** (3.0 * 2), rel=1e-12)


class TestPolicy:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Policy(p_u=np.ones((3, 2)), p_r=np.ones((2, 2)),
                   transfers=np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            Policy(p_u=np.ones((2, 2)), p_r=np.ones((2, 3)),
                   transfers=np.zeros((2, 2, 2)))

    def test_dict_roundtrip(self):
        pol = Policy(p_u=np.array([[1.0, 2.0], [3.0, 4.0]]),
                     p_r=np.array([[0.5, 0.5], [0.25, 0.25]]),
                     transfers=np.zeros((2, 2, 2)))
        pol2 = Policy.from_dict(pol.to_dict())
        np.testing.assert_array_equal(pol.p_u, pol2.p_u)
        np.testing.assert_array_equal(pol.p_r, pol2.p_r)
        np.testing.assert_array_equal(pol.transfers, pol2.transfers)

    def test_copy_is_independent(self):
        pol = zero_policy(make_config(), p_user=1.0, p_relay=1.0)
        pol2 = pol.copy()
        pol2.p_u[0, 0] = 7.0
        assert pol.p_u[0, 0] == 1.0


class TestEnergyLedger:
    def test_hand_case(self):
        """M=2, K=2, eta=0.8, arrivals [[2,1],[1,3]], Eu_0=[1,0].

        User 1 sends 0.5 J to user 2 in period 1 and spends 2 W for 1 s;
        user 2 spends 1 W.  Available energy worked out by hand:
          user 1: period 1: 2 + 1 - 0.5 = 2.5, period 2: 4 - 0.5 - 2 = 1.5
          user 2: period 1: 1 + 0.4 = 1.4,     period 2: 4.4 - 1 = 3.4
        """
        cfg = make_config(Eu_0=np.array([1.0, 0.0]))
        transfers = np.zeros((2, 2, 2))
        transfers[0, 0, 1] = 0.5
        pol = Policy(p_u=np.array([[2.0, 1.0], [1.0, 1.0]]),
                     p_r=np.full((2, 2), 0.5), transfers=transfers)
        ledger = energy_ledger(cfg, pol)
        np.testing.assert_allclose(ledger.available,
                                   [[2.5, 1.5], [1.4, 3.4]], atol=1e-12)
        # tightest margin: user 2 period 1 has 1.4 J and spends 1 J
        np.testing.assert_allclose(ledger.slack,
                                   [[0.5, 0.5], [0.4, 2.4]], atol=1e-12)
        assert ledger.min_slack == pytest.approx(0.4)

    def test_overdraft_shows_negative_slack(self):
        cfg = make_config()
        pol = zero_policy(cfg, p_user=5.0, p_relay=0.1)
        ledger = energy_ledger(cfg, pol)
        assert ledger.min_slack < 0.0

    def test_available_never_decreases_with_eta(self):
        cfg = make_config()
        rng = np.random.default_rng(11)
        transfers = rng.uniform(0.0, 0.3, size=(2, 2, 2))
        for k in range(2):
            np.fill_diagonal(transfers[k], 0.0)
        pol = Policy(p_u=np.full((2, 2), 0.2), p_r=np.full((2, 2), 0.2),
                     transfers=transfers)
        lo = energy_ledger(cfg.replace(eta=0.5), pol).available
        hi = energy_ledger(cfg.replace(eta=0.9), pol).available
        assert np.all(hi >= lo - 1e-12)


class TestEnergyTotals:
    def test_total_energy_hand(self):
        """2 users at 2 W and 1 W for two periods = 6 J, 4 relay entries at
        0.5 W = 2 J, transfers 0.5 J at eta=0.8 lose 0.1 J."""
        cfg = make_config()
        transfers = np.zeros((2, 2, 2))
        transfers[0, 0, 1] = 0.5
        pol = Policy(p_u=np.array([[2.0, 2.0], [1.0, 1.0]]),
                     p_r=np.full((2, 2), 0.5), transfers=transfers)
        assert total_energy(cfg, pol) == pytest.approx(6.0 + 2.0 + 0.1)

    def test_energy_efficiency_hand(self):
        cfg = make_config()
        pol = zero_policy(cfg, p_user=1.0, p_relay=1.0)
        pr = np.array([0.1, 0.2])
        # bits = M * alpha0 * T * ((1-0.1) + (1-0.2)), energy = 8 J
        expected = 2 * 1e5 * 1.0 * (0.9 + 0.8) / 8.0
        assert energy_efficiency(cfg, pol, pr) == pytest.approx(expected)

    def test_energy_efficiency_requires_positive_energy(self):
        cfg = make_config()
        pol = zero_policy(cfg)
        with pytest.raises(ValueError):
            energy_efficiency(cfg, pol, np.zeros(2))


class TestValidatePolicy:
    def feasible_policy(self, cfg):
        return Policy(p_u=np.full((2, 2), 0.5), p_r=np.full((2, 2), 1.0),
                      transfers=np.zeros((2, 2, 2)))

    def test_feasible(self):
        cfg = make_config(pr_out_0=0.2)
        report = validate_policy(cfg, self.feasible_policy(cfg))
        assert report.feasible, report.summary()
        assert all(v == 0.0 for v in report.worst.values())
        assert report.summary() == "feasible"

    def test_zero_user_power_flagged(self):
        cfg = make_config()
        pol = self.feasible_policy(cfg)
        pol.p_u[0, 1] = 0.0
        report = validate_policy(cfg, pol, check_outage=False)
        assert not report.feasible
        assert report.worst["power_bounds"] > 0.0

    @pytest.mark.parametrize("field,value", [("p_u", 0.0), ("p_r", -0.5)])
    def test_undefined_outage_recorded(self, field, value):
        """A zero user or negative relay power is a power-bound violation;
        the audit marks outage undefined instead of raising."""
        cfg = make_config(pr_out_0=0.2)
        pol = self.feasible_policy(cfg)
        getattr(pol, field)[1, 0] = value
        report = validate_policy(cfg, pol)
        assert not report.feasible
        assert report.worst["power_bounds"] > 0.0
        assert report.worst["outage"] == 1.0
        assert any("outage undefined" in msg for msg in report.messages)

    def test_power_ceiling(self):
        cfg = make_config()
        pol = self.feasible_policy(cfg)
        pol.p_r[1, 0] = cfg.p_max + 0.5
        report = validate_policy(cfg, pol, check_outage=False)
        assert report.worst["power_bounds"] == pytest.approx(0.5)

    def test_negative_transfer(self):
        cfg = make_config()
        pol = self.feasible_policy(cfg)
        pol.transfers[0, 0, 1] = -0.2
        report = validate_policy(cfg, pol, check_outage=False)
        assert report.worst["transfer_bounds"] == pytest.approx(0.2)

    def test_diagonal_transfer(self):
        cfg = make_config()
        pol = self.feasible_policy(cfg)
        pol.transfers[1, 1, 1] = 0.3
        report = validate_policy(cfg, pol, check_outage=False)
        assert report.worst["transfer_bounds"] == pytest.approx(0.3)

    def test_causality_deficit(self):
        cfg = make_config()
        pol = self.feasible_policy(cfg)
        pol.p_u[0, 0] = 10.0  # 10 J needed, 2 J harvested
        report = validate_policy(cfg, pol, check_outage=False)
        assert report.worst["causality"] == pytest.approx(8.0)

    def test_outage_violation(self):
        cfg = make_config(pr_out_0=1e-9)
        report = validate_policy(cfg, self.feasible_policy(cfg))
        assert not report.feasible
        assert report.worst["outage"] > 0.0
        assert "outage" in report.summary()

    def test_relay_off_is_allowed(self):
        cfg = make_config()
        pol = self.feasible_policy(cfg)
        pol.p_r[:] = 5.0
        pol.p_r[0, :] = 0.0
        report = validate_policy(cfg, pol, check_outage=False)
        assert report.feasible, report.summary()
