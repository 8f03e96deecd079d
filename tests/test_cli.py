"""Command-line interface: artifacts, exit codes, determinism, schemas."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eecoop
import eecoop.montecarlo
from eecoop import cli
from eecoop.model import Policy, load_scenario, save_scenario
from helpers import solver_toy

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" \
    / "reference_m2n4.json"
EXPECTED_SWEEP_HEADER = ("axis,value,feasible,reason,ee,e_tot,q_star,"
                         "transfers_total,pr_out_max,pr_out_1,pr_out_2")
EXPECTED_COMPARE_HEADER = ("axis,value,method,feasible,reason,ee,e_tot,"
                           "transfers_total,pr_out_max")


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


@pytest.fixture()
def toy_path(tmp_path):
    path = tmp_path / "toy.json"
    save_scenario(solver_toy(), path)
    return path


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestInputErrors:
    def test_missing_scenario_file_exits_2(self, tmp_path):
        code, out = run_cli(["optimize", "--scenario",
                             tmp_path / "absent.json"])
        assert code == 2
        rec = json.loads(out)
        assert rec["error"]["code"] == 2
        assert rec["error"]["kind"] == "invalid_input"

    def test_corrupt_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, out = run_cli(["optimize", "--scenario", bad])
        assert code == 2
        assert "JSON" in json.loads(out)["error"]["message"]

    def test_unknown_scenario_key_exits_2(self, tmp_path, toy_path):
        data = json.loads(toy_path.read_text())
        data["bogus_knob"] = 1.0
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli(["optimize", "--scenario", bad])
        assert code == 2

    def test_malformed_override_exits_2(self, toy_path):
        for item in ["pr_out_0", "pr_out_0=not_json", "no.such.path=1"]:
            code, out = run_cli(["optimize", "--scenario", toy_path,
                                 "--set", item])
            assert code == 2, item

    def test_invalid_override_value_exits_2(self, toy_path):
        code, _ = run_cli(["optimize", "--scenario", toy_path,
                           "--set", "eta=0"])
        assert code == 2

    def test_bad_sweep_axis_exits_2(self, toy_path):
        code, _ = run_cli(["sweep", "--scenario", toy_path,
                           "--sweep", "d_h=1,2"])
        assert code == 2

    def test_two_sweep_axes_exit_2(self, toy_path):
        code, out = run_cli(["sweep", "--scenario", toy_path,
                             "--sweep", "eta=0.5,0.8",
                             "--sweep", "m=1,2"])
        assert code == 2
        assert "exactly one" in json.loads(out)["error"]["message"]

    def test_zero_trials_rejected(self, toy_path):
        code, _ = run_cli(["simulate", "--scenario", toy_path,
                           "--trials", "0"])
        assert code == 2

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("flag", ["--approx", "--exact"])
    def test_outage_mode_flag_refused(self, toy_path, command, flag):
        """simulate and compare report no outage in a selectable mode, so
        the parser refuses the flags with the exit-2 record."""
        code, out = run_cli([command, "--scenario", toy_path, flag])
        assert code == 2
        err = json.loads(out)["error"]
        assert (err["kind"], err["code"]) == ("invalid_input", 2)
        assert flag in err["message"]

    @pytest.mark.parametrize("argv, word", [
        (["optimize", "--scenario", "{toy}", "--no-such-flag"],
         "--no-such-flag"),
        (["optimize"], "--scenario"),
    ])
    def test_parser_refusal_is_json_record(self, toy_path, argv, word,
                                           capsys):
        """An unknown flag or a missing required one gets the same record
        on stdout; the usage text stays on stderr."""
        code, out = run_cli([a.format(toy=toy_path) for a in argv])
        assert code == 2
        err = json.loads(out)["error"]
        assert (err["kind"], err["code"]) == ("invalid_input", 2)
        assert word in err["message"]
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["optimize", "--help"])
        assert exc.value.code == 0
        assert "--scenario" in capsys.readouterr().out


class TestOptimize:
    def test_artifact_structure_and_exit(self, toy_path):
        code, out = run_cli(["optimize", "--scenario", toy_path])
        assert code == 0
        rec = json.loads(out)
        assert rec["command"] == "optimize"
        assert rec["status"] == "converged"
        assert rec["q_star"] > 0
        assert rec["feasibility"]["feasible"] is True
        pol = rec["policy"]
        assert np.asarray(pol["p_u"]).shape == (2, 2)
        assert np.asarray(pol["p_r"]).shape == (2, 2)
        assert np.asarray(pol["transfers"]).shape == (2, 2, 2)
        qs = [step[0] for step in rec["trace"]]
        assert all(qs[i] <= qs[i + 1] + 1e-12 for i in range(len(qs) - 1))
        assert rec["newton_iters_total"] == sum(s[2] for s in rec["trace"])
        assert isinstance(rec["phase1_newton_iters"], int)
        assert rec["phase1_newton_iters"] >= 0
        assert max(rec["outage"]["pr_out"]) <= 0.05 * (1 + 1e-5)

    @pytest.mark.parametrize("overrides,path", [
        ([], "one_period"), (["--set", "pr_out_0=1e-5"], "full")])
    def test_reference_path(self, overrides, path):
        """The reference's one-period optimum passes the full audit at its
        own target; at 1e-5 its repetition breaks causality."""
        code, out = run_cli(["optimize", "--scenario", REFERENCE,
                             *overrides])
        assert code == 0
        rec = json.loads(out)
        assert rec["path"] == path
        assert rec["stalled_stages"] == 0
        assert len(rec["outage"]["pr_out"]) == 10

    def test_override_changes_threshold(self, toy_path):
        code, out = run_cli(["optimize", "--scenario", toy_path,
                             "--set", "pr_out_0=0.02"])
        assert code == 0
        rec = json.loads(out)
        assert max(rec["outage"]["pr_out"]) <= 0.02 * (1 + 1e-5)

    def test_nested_override_applies(self, toy_path):
        code, out = run_cli(["optimize", "--scenario", toy_path,
                             "--set", "arrivals.0.0=9.5"])
        assert code == 0

    def test_infeasible_exits_3_with_record(self, toy_path):
        code, out = run_cli(["optimize", "--scenario", toy_path,
                             "--set", "pr_out_0=1e-9"])
        assert code == 3
        rec = json.loads(out)
        assert rec["error"]["kind"] == "infeasible"
        assert rec["error"]["binding_class"]

    def test_deterministic_artifact_bytes(self, toy_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["optimize", "--scenario", toy_path,
                        "--out", a])[0] == 0
        assert run_cli(["optimize", "--scenario", toy_path,
                        "--out", b])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_approx_mode_reported(self, toy_path):
        code, out = run_cli(["optimize", "--scenario", toy_path, "--approx"])
        assert code == 0
        rec = json.loads(out)
        assert rec["outage"]["mode"] == "approx"


class TestValidate:
    def test_round_trip_of_optimize_artifact(self, toy_path, tmp_path):
        art = tmp_path / "result.json"
        assert run_cli(["optimize", "--scenario", toy_path,
                        "--out", art])[0] == 0
        code, out = run_cli(["validate", "--scenario", toy_path,
                             "--policy", art])
        assert code == 0
        rec = json.loads(out)
        assert rec["feasible"] is True
        assert rec["ee_exact"] > 0

    def test_bare_policy_file_accepted(self, toy_path, tmp_path):
        art = tmp_path / "result.json"
        run_cli(["optimize", "--scenario", toy_path, "--out", art])
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(json.loads(art.read_text())["policy"]),
                        encoding="utf-8")
        code, out = run_cli(["validate", "--scenario", toy_path,
                             "--policy", bare])
        assert code == 0

    def test_corrupted_policy_exits_3_and_lists_violation(self, toy_path,
                                                          tmp_path):
        art = tmp_path / "result.json"
        run_cli(["optimize", "--scenario", toy_path, "--out", art])
        pol = json.loads(art.read_text())["policy"]
        pol["p_u"] = (np.asarray(pol["p_u"]) * 100.0).tolist()
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(pol), encoding="utf-8")
        code, out = run_cli(["validate", "--scenario", toy_path,
                             "--policy", bad])
        assert code == 3
        rec = json.loads(out)
        assert rec["feasible"] is False
        assert rec["feasibility"]["messages"]

    @pytest.mark.parametrize("field,value,bound,undefined", [
        ("p_u", 0.0, "power_bounds", True),
        ("p_r", -0.5, "power_bounds", True),
        ("transfers", -0.5, "transfer_bounds", False)])
    def test_out_of_bounds_policy_exits_3(self, toy_path, tmp_path, field,
                                          value, bound, undefined):
        """A bound violation is an infeasible policy, not invalid input;
        outage and energy efficiency are null where outage is undefined."""
        art = tmp_path / "result.json"
        run_cli(["optimize", "--scenario", toy_path, "--out", art])
        pol = json.loads(art.read_text())["policy"]
        arr = np.asarray(pol[field])
        arr.reshape(-1)[1] = value  # off the transfer diagonal
        pol[field] = arr.tolist()
        bad = tmp_path / "bounds.json"
        bad.write_text(json.dumps(pol), encoding="utf-8")
        code, out = run_cli(["validate", "--scenario", toy_path,
                             "--policy", bad])
        assert code == 3
        rec = json.loads(out)
        assert rec["feasible"] is False
        assert rec["feasibility"]["worst"][bound] > 0.0
        assert (rec["outage"] is None) == undefined
        assert (rec["ee_exact"] is None) == undefined

    @pytest.mark.parametrize("mode", ["--exact", "--approx"])
    def test_switched_off_relay_gets_record(self, toy_path, tmp_path, mode):
        """A relay power of exactly 0 is a switched-off relay: both modes
        emit the record and take the exit code from the audit; approximate
        outage is undefined there, so it is null."""
        art = tmp_path / "result.json"
        run_cli(["optimize", "--scenario", toy_path, "--out", art])
        pol = json.loads(art.read_text())["policy"]
        pol["p_r"][0][0] = 0.0
        off = tmp_path / "relay_off.json"
        off.write_text(json.dumps(pol), encoding="utf-8")
        code, out = run_cli(["validate", "--scenario", toy_path,
                             "--policy", off, mode])
        assert code == 3
        rec = json.loads(out)
        assert rec["feasible"] is False
        assert rec["feasibility"]["worst"]["outage"] > 0.0
        assert rec["ee_exact"] > 0.0
        if mode == "--approx":
            assert rec["outage"] is None
        else:
            assert rec["outage"]["mode"] == "exact"

    @pytest.mark.parametrize("command", ["optimize", "validate"])
    def test_exact_block_is_the_audits_report(self, toy_path, tmp_path,
                                              monkeypatch, command):
        """In exact mode the outage block reuses the audit's report, so the
        CLI evaluates no outage report of its own."""
        art = tmp_path / "result.json"
        run_cli(["optimize", "--scenario", toy_path, "--out", art])
        calls = []
        report = cli.network_outage_report

        def counted(*args, **kwargs):
            calls.append(kwargs.get("mode"))
            return report(*args, **kwargs)

        monkeypatch.setattr(cli, "network_outage_report", counted)
        argv = [command, "--scenario", toy_path]
        if command == "validate":
            argv += ["--policy", art]
        code, out = run_cli(argv)
        assert code == 0
        assert json.loads(out)["outage"]["mode"] == "exact"
        assert calls == []
        code, out = run_cli(argv + ["--approx"])
        assert code == 0
        assert json.loads(out)["outage"]["mode"] == "approx"
        assert calls == ["approx"]

    def test_wrong_shape_policy_exits_2(self, toy_path, tmp_path):
        pol = Policy(np.ones((3, 2)), np.ones((2, 2)),
                     np.zeros((2, 3, 3))).to_dict()
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps(pol), encoding="utf-8")
        code, _ = run_cli(["validate", "--scenario", toy_path,
                           "--policy", bad])
        assert code == 2


class TestSimulate:
    def test_record_and_agreement(self, toy_path):
        code, out = run_cli(["simulate", "--scenario", toy_path,
                             "--trials", 20000, "--seed", 11])
        assert code == 0
        rec = json.loads(out)
        emp = np.asarray(rec["pr_out_empirical"])
        exact = np.asarray(rec["pr_out_exact"])
        assert rec["policy_source"] == "optimized"
        assert rec["trials"] == 20000
        # 3 sigma at 2e4 trials and outage ~5e-2 is about 4.6e-3
        assert np.all(np.abs(emp - exact) < 0.01)
        assert np.all(rec["ci_lo"] <= emp + 1e-15)
        assert np.all(emp <= np.asarray(rec["ci_hi"]) + 1e-15)

    def test_seed_determinism_and_sensitivity(self, toy_path, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        run_cli(["simulate", "--scenario", toy_path, "--trials", 5000,
                 "--seed", 3, "--out", a])
        run_cli(["simulate", "--scenario", toy_path, "--trials", 5000,
                 "--seed", 3, "--out", b])
        run_cli(["simulate", "--scenario", toy_path, "--trials", 5000,
                 "--seed", 4, "--out", c])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_policy_file_source(self, toy_path, tmp_path):
        art = tmp_path / "result.json"
        run_cli(["optimize", "--scenario", toy_path, "--out", art])
        code, out = run_cli(["simulate", "--scenario", toy_path,
                             "--policy", art, "--trials", 1000])
        assert code == 0
        assert json.loads(out)["policy_source"] == "file"

    @pytest.fixture()
    def constant_policy(self, tmp_path):
        """A reference policy file with 10 mW on every user and relay."""
        cfg = load_scenario(REFERENCE)
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(Policy(
            np.full((cfg.M, cfg.K), 0.01), np.full((cfg.N, cfg.K), 0.01),
            np.zeros((cfg.K, cfg.M, cfg.M))).to_dict()), encoding="utf-8")
        return path

    def test_policy_file_counts_pinned(self, constant_policy):
        """The outage tallies of simulate on the reference with a fixed
        constant-power policy file, so no solver count enters: 200,000
        trials are four chunks, so the pin covers the jumped substreams
        1-3 as users run them."""
        code, out = run_cli(["simulate", "--scenario", REFERENCE,
                             "--policy", constant_policy, "--trials", 200000,
                             "--seed", 5])
        assert code == 0
        rec = json.loads(out)
        assert rec["streams"] == 1
        assert rec["outage_count"] == [24129, 23857, 23930, 23864, 24136,
                                       24311, 24113, 24098, 23873, 23965]

    def test_seed_out_of_range_exits_2(self, constant_policy, monkeypatch):
        """A negative or 65-bit seed is invalid input, refused before any
        trial is drawn."""
        calls = []
        monkeypatch.setattr(eecoop.montecarlo, "_tally_chunk",
                            lambda *args: calls.append(args))
        for seed in (-1, 2 ** 64):
            code, out = run_cli(["simulate", "--scenario", REFERENCE,
                                 "--policy", constant_policy,
                                 "--trials", 1000,
                                 "--seed", seed])
            assert code == 2
            assert json.loads(out) == {"error": {
                "code": 2, "kind": "invalid_input",
                "message": "seed must fit in 64 bits"}}
        assert calls == []

    def test_infeasible_scenario_exits_3(self, toy_path):
        code, out = run_cli(["simulate", "--scenario", toy_path,
                             "--set", "pr_out_0=1e-9", "--trials", 100])
        assert code == 3

    @pytest.mark.parametrize("K", [5, 12])
    def test_policy_of_other_period_count_exits_2(self, tmp_path,
                                                  monkeypatch, K):
        """Refused like validate refuses it, before any trial is drawn."""
        cfg = load_scenario(REFERENCE)
        bad = tmp_path / "policy.json"
        bad.write_text(json.dumps(Policy(
            np.full((cfg.M, K), 0.01), np.full((cfg.N, K), 0.01),
            np.zeros((K, cfg.M, cfg.M))).to_dict()), encoding="utf-8")
        calls = []
        monkeypatch.setattr(eecoop.montecarlo, "_tally_chunk",
                            lambda *args: calls.append(args))
        code, out = run_cli(["simulate", "--scenario", REFERENCE,
                             "--policy", bad, "--trials", 1000])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "invalid_input"
        assert calls == []

    @pytest.mark.parametrize("field,value,message", [
        ("p_u", float("nan"), "non-finite"),
        ("p_u", 0.0, "strictly positive"),
        ("p_r", -0.01, ">= 0"),
    ])
    def test_policy_values_checked_before_drawing(self, tmp_path,
                                                  monkeypatch, field, value,
                                                  message):
        """A NaN power, a zero user power or a negative relay power exits
        2 before any trial is drawn, and no NaN reaches the JSON."""
        cfg = load_scenario(REFERENCE)
        policy = Policy(np.full((cfg.M, cfg.K), 0.01),
                        np.full((cfg.N, cfg.K), 0.01),
                        np.zeros((cfg.K, cfg.M, cfg.M)))
        getattr(policy, field)[0, 0] = value
        bad = tmp_path / "policy.json"
        bad.write_text(json.dumps(policy.to_dict()), encoding="utf-8")
        calls = []
        monkeypatch.setattr(eecoop.montecarlo, "_tally_chunk",
                            lambda *args: calls.append(args))
        code, out = run_cli(["simulate", "--scenario", REFERENCE,
                             "--policy", bad, "--trials", 1000])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "invalid_input"
        assert message in error["message"]
        assert calls == []


class TestSweep:
    def test_threshold_sweep_schema_and_monotonicity(self, toy_path):
        code, out = run_cli(["sweep", "--scenario", toy_path,
                             "--sweep", "pr_out_0=0.05,0.02,0.005"])
        assert code == 0
        header, rows = parse_csv(out)
        assert ",".join(header) == EXPECTED_SWEEP_HEADER
        assert [r["value"] for r in rows] == ["0.05", "0.02", "0.005"]
        assert rows[0]["feasible"] == "true"
        assert rows[1]["feasible"] == "true"
        assert float(rows[0]["ee"]) >= float(rows[1]["ee"])
        assert rows[2]["feasible"] == "false"
        assert rows[2]["reason"] == "causality"
        assert rows[2]["ee"] == ""
        for r in rows[:2]:
            assert float(r["pr_out_max"]) <= float(r["value"]) * (1 + 1e-5)

    def test_delta_geometry_guard(self, toy_path):
        code, out = run_cli(["sweep", "--scenario", toy_path,
                             "--sweep", "delta=0,10"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["feasible"] == "true"
        assert rows[1]["feasible"] == "false"
        assert rows[1]["reason"] == "geometry"

    def test_delta_actually_shifts_distances(self, toy_path):
        code, out = run_cli(["sweep", "--scenario", toy_path,
                             "--sweep", "delta=0,1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["feasible"] == "true" and rows[1]["feasible"] == "true"
        assert float(rows[0]["ee"]) != pytest.approx(float(rows[1]["ee"]),
                                                     rel=1e-6)
        _, base_out = run_cli(["optimize", "--scenario", toy_path])
        assert float(rows[0]["ee"]) == pytest.approx(
            json.loads(base_out)["ee_exact"], rel=1e-6)

    def test_eta_axis_applies(self, toy_path):
        code, out = run_cli(["sweep", "--scenario", toy_path,
                             "--sweep", "eta=0.2,1.0",
                             "--set", "pr_out_0=0.02"])
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r["feasible"] == "true" for r in rows)
        assert float(rows[0]["ee"]) <= float(rows[1]["ee"]) * (1 + 1e-9)

    def test_byte_identical_csv(self, toy_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--scenario", toy_path,
                "--sweep", "pr_out_0=0.05,0.02"]
        assert run_cli(argv + ["--out", a])[0] == 0
        assert run_cli(argv + ["--out", b])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_approx_outage_columns(self, toy_path):
        code, out = run_cli(["sweep", "--scenario", toy_path,
                             "--sweep", "pr_out_0=0.02", "--approx"])
        assert code == 0
        _, rows = parse_csv(out)
        exact_code, exact_out = run_cli(["sweep", "--scenario", toy_path,
                                         "--sweep", "pr_out_0=0.02"])
        _, exact_rows = parse_csv(exact_out)
        approx = float(rows[0]["pr_out_1"])
        exact = float(exact_rows[0]["pr_out_1"])
        assert approx == pytest.approx(exact, rel=0.25)
        assert approx != exact


class TestCompare:
    def test_methods_order_and_dominance(self, toy_path):
        code, out = run_cli(["compare", "--scenario", toy_path])
        assert code == 0
        header, rows = parse_csv(out)
        assert ",".join(header) == EXPECTED_COMPARE_HEADER
        assert [r["method"] for r in rows] == list(cli.COMPARE_METHODS)
        full = next(r for r in rows if r["method"] == "optimized")
        assert full["feasible"] == "true"
        for r in rows:
            if r["method"] in ("no_transfer", "depleted_energy",
                               "uniform_power") and r["feasible"] == "true":
                assert float(full["ee"]) >= float(r["ee"]) * (1 - 1e-4)

    def test_sweep_grid(self, toy_path):
        code, out = run_cli(["compare", "--scenario", toy_path,
                             "--sweep", "pr_out_0=0.05,0.02"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2 * len(cli.COMPARE_METHODS)
        assert [r["value"] for r in rows[:5]] == ["0.05"] * 5
        assert [r["value"] for r in rows[5:]] == ["0.02"] * 5

    def test_geometry_point_rows(self, toy_path):
        code, out = run_cli(["compare", "--scenario", toy_path,
                             "--sweep", "delta=-100,0.1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["method"] for r in rows] == 2 * list(cli.COMPARE_METHODS)
        for r in rows[:5]:
            assert (r["value"], r["feasible"], r["reason"]) == (
                "-100.0", "false", "geometry")
            assert r["ee"] == r["pr_out_max"] == ""
        assert rows[5]["feasible"] == "true"

    def test_infeasible_baseline_row(self, toy_path):
        code, out = run_cli(["compare", "--scenario", toy_path])
        assert code == 0
        _, rows = parse_csv(out)
        uni = next(r for r in rows if r["method"] == "uniform_power")
        if uni["feasible"] == "false":
            assert uni["reason"]
            assert uni["ee"] == ""

    def test_fewer_relays_than_users(self, tmp_path):
        """M=2 users and N=1 relay: no method delivers both messages, and
        nonc_df leaves a user without a relay, so every row is infeasible
        by outage and the command succeeds."""
        path = tmp_path / "m2n1.json"
        save_scenario(solver_toy(M=2, N=1), path)
        code, out = run_cli(["compare", "--scenario", path])
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r["method"], r["feasible"], r["reason"]) for r in rows] \
            == [(m, "false", "outage") for m in cli.COMPARE_METHODS]

    def test_one_period_rows_equal(self):
        """On the reference the optimum is one period repeated, which is
        also the transfer-free optimum: the two rows are equal."""
        code, out = run_cli(["compare", "--scenario", REFERENCE])
        assert code == 0
        _, rows = parse_csv(out)
        by = {r.pop("method"): r for r in rows}
        assert by["optimized"]["feasible"] == "true"
        assert by["optimized"] == by["no_transfer"]
        assert float(by["optimized"]["transfers_total"]) == 0.0

    def test_golden_csv_schema(self, toy_path, tmp_path):
        """Schema golden file: structure byte-stable, numbers to 1e-6."""
        import pathlib
        golden = pathlib.Path(__file__).parent / "data" / "golden_compare.csv"
        code, out = run_cli(["compare", "--scenario", toy_path,
                             "--set", "pr_out_0=0.05"])
        assert code == 0
        ref_header, ref_rows = parse_csv(golden.read_text())
        header, rows = parse_csv(out)
        assert header == ref_header
        assert len(rows) == len(ref_rows)
        for row, ref in zip(rows, ref_rows):
            for col in ("axis", "value", "method", "feasible", "reason"):
                assert row[col] == ref[col]
            for col in ("ee", "e_tot", "transfers_total", "pr_out_max"):
                if ref[col] == "":
                    assert row[col] == ""
                else:
                    assert float(row[col]) == pytest.approx(
                        float(ref[col]), rel=1e-6)


class TestSolverFailure:
    """A solve that raises: the tables keep their rows and flag them, and
    main() turns the error into the exit-4 record."""

    @pytest.fixture()
    def broken_solver(self, monkeypatch):
        def boom(config, *args, **kwargs):
            raise RuntimeError("solver  blew\nup")
        monkeypatch.setattr(cli, "optimize", boom)

    @staticmethod
    def error(out):
        return json.loads(out)["error"]

    def test_sweep_point(self, toy_path, tmp_path, broken_solver):
        csv_path = tmp_path / "sweep.csv"
        code, out = run_cli(["sweep", "--scenario", toy_path,
                             "--sweep", "pr_out_0=0.05", "--out", csv_path])
        assert code == 4
        assert self.error(out) == {
            "code": 4, "kind": "solver_failure",
            "message": "at least one sweep point failed; see the reason "
                       "column"}
        header, rows = parse_csv(csv_path.read_text())
        assert ",".join(header) == EXPECTED_SWEEP_HEADER
        assert len(rows) == 1
        assert rows[0]["feasible"] == "false"
        assert rows[0]["reason"] == "solver_failure: solver blew up"
        assert all(rows[0][c] == "" for c in header[4:])

    def test_compare_point(self, toy_path, tmp_path, broken_solver):
        csv_path = tmp_path / "compare.csv"
        code, out = run_cli(["compare", "--scenario", toy_path,
                             "--out", csv_path])
        assert code == 4
        assert self.error(out) == {
            "code": 4, "kind": "solver_failure",
            "message": "at least one compared solve failed; see the reason "
                       "column"}
        header, rows = parse_csv(csv_path.read_text())
        assert ",".join(header) == EXPECTED_COMPARE_HEADER
        assert [r["method"] for r in rows] == list(cli.COMPARE_METHODS)
        # only the CLI's own binding is broken; the baselines solve
        assert rows[0]["reason"] == "solver_failure: solver blew up"
        assert rows[0]["ee"] == ""
        assert all(not r["reason"].startswith("solver_failure")
                   for r in rows[1:])

    @pytest.mark.parametrize("command", ["optimize", "simulate"])
    def test_single_solve_commands(self, toy_path, broken_solver, command):
        code, out = run_cli([command, "--scenario", toy_path])
        assert code == 4
        assert self.error(out) == {"code": 4, "kind": "solver_failure",
                                   "message": "solver blew up"}


class TestAuditFailure:
    """A solve that returns a policy which failed its exact audit: neither
    single-solve command passes it on as a result."""

    @pytest.mark.parametrize("command", ["optimize", "simulate"])
    def test_single_solve_commands(self, toy_path, monkeypatch, command):
        solve = cli.optimize

        def audit_failed(config, *args, **kwargs):
            res = solve(config, *args, **kwargs)
            res.status = "audit_failed"
            return res

        monkeypatch.setattr(cli, "optimize", audit_failed)
        code, out = run_cli([command, "--scenario", toy_path])
        assert code == 4
        # optimize writes the failed solve's record before the error
        records, rest = [], out.strip()
        while rest:
            rec, end = json.JSONDecoder().raw_decode(rest)
            records.append(rec)
            rest = rest[end:].lstrip()
        assert len(records) == (2 if command == "optimize" else 1)
        assert records[-1]["error"] == {
            "code": 4, "kind": "solver_failure",
            "message": "solver ended with status audit_failed"}


# Runs one CLI call in a fresh interpreter and prints, as its last stdout
# line, the exit code and the loaded modules under scipy.  No argument:
# only `import eecoop.cli`.
_LOADED_PROBE = """
import json, sys
from eecoop import cli
code = None
if sys.argv[1:]:
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] == "scipy")]))
"""


def loaded_modules(argv, cwd):
    """(exit code, scipy modules) of one CLI call in a fresh interpreter;
    pytest has loaded SciPy in this process already."""
    root = str(Path(eecoop.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _LOADED_PROBE,
                           *map(str, argv)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, modules


@pytest.fixture(scope="module")
def reference_optimum(tmp_path_factory):
    """The reference optimize artifact, solved in a fresh interpreter, and
    the scipy modules that solve loaded."""
    tmp = tmp_path_factory.mktemp("loaded")
    art = tmp / "optimize.json"
    code, modules = loaded_modules(
        ["optimize", "--scenario", REFERENCE, "--out", art], tmp)
    assert code == 0
    return art, modules


class TestLoadedModules:
    """SciPy is loaded at the first Newton factorization: commands that
    never solve never load it."""

    @pytest.mark.parametrize("argv", [[], ["--help"]])
    def test_import_and_help(self, argv, tmp_path):
        code, modules = loaded_modules(argv, tmp_path)
        assert code == (0 if argv else None)
        assert modules == []

    def test_optimize_loads_scipy_linalg(self, reference_optimum):
        _, modules = reference_optimum
        assert "scipy.linalg" in modules

    @pytest.mark.parametrize("argv", [
        ["validate"], ["simulate", "--trials", 1000, "--seed", 3]])
    def test_policy_commands_load_no_scipy(self, argv, reference_optimum,
                                           tmp_path):
        art, _ = reference_optimum
        code, modules = loaded_modules(
            argv + ["--scenario", REFERENCE, "--policy", art,
                    "--out", tmp_path / "out.json"], tmp_path)
        assert code == 0
        assert modules == []
