"""Simulation module tests.

Statistical gates use fixed seeds, so every assertion is deterministic.
Analytic targets come from independent formulas: scipy's regularized
incomplete gamma, gamma-distribution moment identities, and the exact
outage evaluator (itself enumeration-checked elsewhere).
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammainc

from eecoop.model import load_scenario, zero_policy, total_energy
from eecoop.montecarlo import (MonteCarloResult, RngSpec, estimate_outage,
                               sample_channel_power_gain, wilson_interval)
from eecoop.outage import network_outage_report

from helpers import solver_toy

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" \
    / "reference_m2n4.json"

def toy_point(M=1, N=1, K=1, p=1.0):
    """Scenario plus constant-power policy at a simulable outage level."""
    cfg = solver_toy(M=M, N=N, K=K)
    pol = zero_policy(cfg, p_user=p, p_relay=p)
    return cfg, pol


class TestRngSpec:
    def test_identical_spec_identical_draws(self):
        a = RngSpec(seed=123, stream_id=4).generator().random(32)
        b = RngSpec(seed=123, stream_id=4).generator().random(32)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngSpec(seed=123, stream_id=0).generator().random(32)
        b = RngSpec(seed=123, stream_id=1).generator().random(32)
        assert not np.array_equal(a, b)

    def test_64_bit_range_enforced(self):
        with pytest.raises(ValueError):
            RngSpec(seed=-1)
        with pytest.raises(ValueError):
            RngSpec(seed=2 ** 64)
        with pytest.raises(ValueError):
            RngSpec(seed=0, stream_id=2 ** 64)
        RngSpec(seed=2 ** 64 - 1, stream_id=2 ** 64 - 1)

    def test_stream_offset(self):
        spec = RngSpec(seed=9, stream_id=3)
        assert spec.stream(2) == RngSpec(seed=9, stream_id=5)

    def test_zero_jumps_is_the_stream(self):
        spec = RngSpec(seed=123, stream_id=4)
        a = spec.generator(0).random(32)
        b = spec.generator().random(32)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("jumps", [1, 3])
    def test_jumps_are_philox_substreams(self, jumps):
        key = np.array([123, 4], dtype=np.uint64)
        want = np.random.Generator(
            np.random.Philox(key=key).jumped(jumps)).random(32)
        got = RngSpec(seed=123, stream_id=4).generator(jumps).random(32)
        assert np.array_equal(got, want)
        assert not np.array_equal(
            got, RngSpec(seed=123, stream_id=4).generator().random(32))


class TestGainSampler:
    def test_rayleigh_mean(self):
        """m=1 squared envelopes are exponential with mean omega."""
        omega = 2.5
        n = 1_000_000
        draws = sample_channel_power_gain(omega, 1.0, RngSpec(seed=42),
                                          size=n)
        assert abs(draws.mean() - omega) <= 3 * omega / np.sqrt(n)

    def test_variance_identity(self):
        """Var = omega**2 / m; tolerance from the gamma kurtosis."""
        omega, m, n = 1.7, 2.0, 1_000_000
        draws = sample_channel_power_gain(omega, m, RngSpec(seed=43), size=n)
        var = omega * omega / m
        sigma = var * np.sqrt((2.0 + 6.0 / m) / n)
        assert abs(draws.var() - var) <= 3 * sigma

    def test_cdf_matches_incomplete_gamma(self):
        """Fraction below b*omega/m reproduces the outage closed form."""
        omega, m, n, b = 1.7, 2.0, 1_000_000, 0.8
        draws = sample_channel_power_gain(omega, m, RngSpec(seed=43), size=n)
        frac = np.mean(draws <= b * omega / m)
        target = gammainc(m, b)
        assert abs(frac - target) <= 3 * np.sqrt(target * (1 - target) / n)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_channel_power_gain(0.0, 1.0, RngSpec(seed=1))
        with pytest.raises(ValueError):
            sample_channel_power_gain(-2.0, 1.0, RngSpec(seed=1))
        with pytest.raises(ValueError):
            sample_channel_power_gain(1.0, 0.49, RngSpec(seed=1))
        with pytest.raises(ValueError):
            sample_channel_power_gain(1.0, 1.0, "not an rng")

    def test_array_omega_broadcasts(self):
        omega = np.array([[1.0, 2.0], [3.0, 4.0]])
        draws = sample_channel_power_gain(omega, 1.5, RngSpec(seed=2),
                                          size=(1000, 2, 2))
        assert draws.shape == (1000, 2, 2)
        assert np.all(draws > 0)


    @pytest.mark.parametrize("m", [0.5, 0.73, 1.0, 2.5])
    def test_bitwise_equal_to_generator_gamma(self, m):
        """Same bits and same stream position as Generator.gamma with
        scale omega / m, for scalar and per-link omega."""
        omega = np.array([[0.4, 1.7, 3.1], [2.2, 0.9, 5.0]])
        for om, size in ((1.3, 5000), (omega, (700, 2, 3))):
            ref = RngSpec(seed=5, stream_id=2).generator()
            gen = RngSpec(seed=5, stream_id=2).generator()
            want = ref.gamma(m, np.asarray(om) / m, size)
            got = sample_channel_power_gain(om, m, gen, size=size)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64),
                                  want.view(np.uint64))
            assert gen.random() == ref.random()

    def test_array_omega_without_size_keeps_its_shape(self):
        omega = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 0.25]])
        draws = sample_channel_power_gain(omega, 1.5, RngSpec(seed=8))
        want = RngSpec(seed=8).generator().gamma(1.5, omega / 1.5)
        assert draws.shape == omega.shape
        assert np.array_equal(draws, want)

    def test_out_is_filled_and_returned(self):
        omega = np.array([0.5, 2.0, 7.5])
        out = np.empty((400, 3))
        got = sample_channel_power_gain(omega, 0.73, RngSpec(seed=4),
                                        size=out.shape, out=out)
        want = sample_channel_power_gain(omega, 0.73, RngSpec(seed=4),
                                         size=out.shape)
        assert got is out
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))

class TestTrialOutcome:
    """Trial outcomes as estimate_outage tallies them: a trial succeeds
    when at least M relays decoded and forwarded."""

    def test_simulated_outcomes_respect_subset(self):
        """Forwarders are decoders, so every success adds at least M to
        the per-relay decode tallies."""
        cfg, pol = toy_point(M=2, N=2, p=0.05)
        res = estimate_outage(cfg, pol, 20_000, RngSpec(seed=300))
        successes = res.trials - res.outage_count
        assert np.all(successes > 0) and np.all(res.outage_count > 0)
        assert np.all(res.decode_count.sum(axis=1) >= cfg.M * successes)
        assert np.all(res.decode_count <= res.trials)


class TestSimulatePeriod:
    """Simulated periods read off estimate_outage's outage_count and
    decode_count tallies."""

    def test_huge_power_always_succeeds(self):
        cfg, pol = toy_point(M=2, N=2, p=1e12)
        res = estimate_outage(cfg, pol, 500, RngSpec(seed=0))
        assert np.all(res.outage_count == 0)
        assert np.all(res.decode_count == 500)

    def test_floor_power_always_fails(self):
        cfg, pol = toy_point(M=2, N=2, p=1e-9)
        res = estimate_outage(cfg, pol, 500, RngSpec(seed=0))
        assert np.all(res.outage_count == 500)
        assert np.all(res.decode_count == 0)

    def test_zero_power_handled(self):
        cfg, pol = toy_point(M=1, N=1, p=0.0)
        res = estimate_outage(cfg, pol, 100, RngSpec(seed=0))
        assert res.outage_count.tolist() == [100]
        assert np.all(res.decode_count == 0)

    def test_relay_decode_rate_matches_analytic(self):
        """Empirical decode frequency agrees with the closed form."""
        cfg, pol = toy_point(M=2, N=2)
        rep = network_outage_report(cfg, pol, mode="exact")
        res = estimate_outage(cfg, pol, 1_000_000, RngSpec(seed=7))
        rate = res.decode_count[0] / res.trials
        rho = np.prod(1.0 - rep.pe_user[:, :, 0], axis=0)
        sigma = np.sqrt(rho * (1 - rho) / res.trials)
        assert np.all(np.abs(rate - rho) <= 3 * sigma)

    def test_power_vector_shapes_checked(self):
        """A policy of another network size is refused."""
        cfg, _ = toy_point(M=2, N=2)
        _, pol = toy_point(M=1, N=2)
        with pytest.raises(ValueError):
            estimate_outage(cfg, pol, 10, RngSpec(seed=0))


class TestWilson:
    def test_known_value(self):
        """5 successes in 10: the standard worked example."""
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.2366, abs=1e-4)
        assert hi == pytest.approx(0.7634, abs=1e-4)

    def test_bounds_ordering(self):
        for count, n in [(0, 50), (50, 50), (3, 17), (1, 2)]:
            lo, hi = wilson_interval(count, n)
            assert 0.0 <= lo <= count / n <= hi <= 1.0

    def test_vectorized(self):
        lo, hi = wilson_interval(np.array([0, 5, 10]), 10)
        assert lo.shape == (3,) and np.all(lo <= hi)


class TestEstimateOutage:
    def test_agrees_with_exact_formula(self):
        cfg, pol = toy_point(M=2, N=2)
        rep = network_outage_report(cfg, pol, mode="exact")
        res = estimate_outage(cfg, pol, 1_000_000, RngSpec(seed=7))
        p = rep.pr_out[0]
        sigma = np.sqrt(p * (1 - p) / res.trials)
        assert abs(res.pr_out[0] - p) <= 3 * sigma
        assert res.ci_lo[0] <= p <= res.ci_hi[0]

    def test_error_shrinks_with_trials(self):
        """Root-n consistency at both desk-scale trial counts."""
        cfg, pol = toy_point(M=1, N=1)
        p = network_outage_report(cfg, pol, mode="exact").pr_out[0]
        for trials, seed in ((10_000, 51), (1_000_000, 52)):
            res = estimate_outage(cfg, pol, trials, RngSpec(seed=seed))
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(res.pr_out[0] - p) <= 3 * sigma

    def test_interval_coverage(self):
        """The analytic value lands inside the 95% interval in at least
        93% of a fixed battery of repeated runs."""
        cfg, pol = toy_point(M=1, N=1)
        p = network_outage_report(cfg, pol, mode="exact").pr_out[0]
        runs, covered = 50, 0
        for s in range(runs):
            res = estimate_outage(cfg, pol, 20_000, RngSpec(seed=1000 + s))
            covered += bool(res.ci_lo[0] <= p <= res.ci_hi[0])
        assert covered >= int(np.ceil(0.93 * runs))

    def test_empirical_ee_accounting(self):
        """bits = M*alpha0*T * mean successes; ee = bits / E_tot."""
        cfg, pol = toy_point(M=2, N=2, K=2)
        res = estimate_outage(cfg, pol, 50_000, RngSpec(seed=9))
        successes = res.trials - res.outage_count
        bits = cfg.M * cfg.alpha0 * cfg.T * successes.sum() / res.trials
        assert res.bits == pytest.approx(bits, rel=1e-12)
        assert res.e_tot == pytest.approx(total_energy(cfg, pol), rel=1e-12)
        assert res.ee == pytest.approx(bits / res.e_tot, rel=1e-12)

    def test_deterministic_replay(self):
        cfg, pol = toy_point(M=2, N=2, K=2)
        a = estimate_outage(cfg, pol, 30_000, RngSpec(seed=17), n_streams=3)
        b = estimate_outage(cfg, pol, 30_000, RngSpec(seed=17), n_streams=3)
        assert np.array_equal(a.outage_count, b.outage_count)
        assert np.array_equal(a.decode_count, b.decode_count)
        assert a.ee == b.ee

    def test_stream_split_reproduces_sequential(self):
        """Worker-style partitioning changes nothing: per-stream runs
        summed equal the multi-stream aggregate, count for count."""
        cfg, pol = toy_point(M=2, N=2, K=2)
        trials, n_streams = 100_001, 4
        whole = estimate_outage(cfg, pol, trials, RngSpec(seed=11),
                                n_streams=n_streams)
        base, rem = divmod(trials, n_streams)
        out = np.zeros(cfg.K, dtype=np.int64)
        dec = np.zeros((cfg.K, cfg.N), dtype=np.int64)
        for s in range(n_streams):
            part = estimate_outage(cfg, pol, base + (1 if s < rem else 0),
                                   RngSpec(seed=11, stream_id=s))
            out += part.outage_count
            dec += part.decode_count
        assert np.array_equal(whole.outage_count, out)
        assert np.array_equal(whole.decode_count, dec)

    def test_thread_count_does_not_change_counts(self, monkeypatch):
        """Chunks are substreams whose counts are summed, so one thread
        and three threads give the same tallies bit for bit."""
        cfg, pol = toy_point(M=2, N=2, K=2)
        counts = []
        for cpus in (1, 3):
            monkeypatch.setattr("eecoop.montecarlo.os.cpu_count",
                                lambda cpus=cpus: cpus)
            res = estimate_outage(cfg, pol, 10_001, RngSpec(seed=19),
                                  n_streams=3, chunk_size=700)
            counts.append((res.outage_count.tolist(),
                           res.decode_count.tolist(), res.ee))
        assert counts[0] == counts[1]

    def test_chunk_size_keys_draws(self):
        """chunk_size is part of the reproducibility key: each chunk draws
        from its own substream, its first-hop block for all its trials
        before the second hop, so another chunk size gives another
        (equally valid) realization.  A stream that fits in one chunk
        draws the unjumped stream."""
        cfg, pol = toy_point(M=2, N=2, K=2)
        counts = {}
        for chunk in (1 << 20, 977):
            res = estimate_outage(cfg, pol, 10_000, RngSpec(seed=3),
                                  chunk_size=chunk)
            counts[chunk] = (res.outage_count.tolist(),
                             res.decode_count.tolist())
        assert counts[1 << 20] == ([741, 748], [[9745, 9746], [9726, 9742]])
        assert counts[977] == ([717, 771], [[9758, 9738], [9746, 9719]])

    # (m, chunk_size) -> (outage_count, decode_count) for 20,000 trials
    # over three streams on the reference geometry at 10 mW everywhere
    PINNED_COUNTS = {
        (0.5, 977): (
            [9451, 9599, 9556, 9602, 9547, 9601, 9540, 9583, 9582, 9598],
            [[11507, 14908, 13394, 7974], [11522, 14887, 13387, 7803],
             [11486, 14903, 13333, 7868], [11433, 15060, 13285, 7890],
             [11484, 14924, 13291, 7904], [11548, 14944, 13385, 7871],
             [11648, 14779, 13266, 7947], [11627, 14910, 13288, 7820],
             [11331, 14901, 13424, 7911], [11577, 14974, 13380, 7733]]),
        (0.5, None): (
            [9551, 9514, 9696, 9736, 9616, 9460, 9617, 9611, 9524, 9626],
            [[11588, 14844, 13250, 7827], [11523, 14967, 13405, 7945],
             [11446, 14950, 13311, 7859], [11371, 14929, 13298, 7783],
             [11454, 14927, 13346, 7792], [11456, 14941, 13422, 7965],
             [11378, 14976, 13269, 7881], [11406, 15021, 13285, 7922],
             [11513, 14918, 13477, 7826], [11428, 15038, 13491, 7785]]),
        (1.0, 977): (
            [2497, 2387, 2452, 2462, 2349, 2386, 2391, 2369, 2405, 2397],
            [[16422, 18184, 17920, 12009], [16518, 18185, 17876, 12262],
             [16506, 18194, 17921, 12139], [16406, 18158, 17952, 12091],
             [16494, 18266, 17885, 12231], [16468, 18258, 17961, 12151],
             [16421, 18180, 17933, 12235], [16481, 18214, 17916, 12170],
             [16582, 18181, 17902, 12174], [16511, 18234, 17938, 12115]]),
        (1.0, None): (
            [2375, 2395, 2394, 2402, 2447, 2369, 2386, 2405, 2482, 2358],
            [[16529, 18239, 17899, 12164], [16488, 18178, 17925, 12103],
             [16448, 18215, 17926, 12105], [16415, 18109, 18007, 12164],
             [16433, 18159, 17910, 12076], [16502, 18210, 17910, 12209],
             [16413, 18209, 17956, 12093], [16468, 18201, 17926, 12111],
             [16387, 18243, 17887, 12062], [16510, 18167, 17952, 12159]]),
        (2.5, 977): (
            [65, 58, 61, 60, 66, 59, 56, 57, 78, 53],
            [[19686, 19859, 19915, 17118], [19668, 19845, 19922, 16974],
             [19675, 19846, 19923, 17102], [19666, 19860, 19924, 17062],
             [19645, 19863, 19913, 17084], [19702, 19871, 19902, 16998],
             [19676, 19864, 19923, 17025], [19680, 19872, 19917, 17016],
             [19663, 19867, 19902, 17023], [19679, 19861, 19920, 17018]]),
        (2.5, None): (
            [62, 53, 69, 75, 69, 66, 61, 64, 62, 63],
            [[19667, 19874, 19914, 17020], [19676, 19853, 19921, 17017],
             [19672, 19869, 19902, 16972], [19638, 19892, 19912, 17052],
             [19672, 19854, 19920, 17040], [19665, 19869, 19913, 17048],
             [19663, 19854, 19923, 17049], [19678, 19866, 19911, 17043],
             [19659, 19858, 19935, 17076], [19659, 19871, 19917, 16971]]),
    }

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    def test_counts_pinned(self, m):
        """Exact tallies of a fixed constant-power policy, so that any
        change to the draws, their order or the link decisions shows.
        A fixed policy, not a solver output, keeps the pin independent
        of platform-sensitive Newton counts."""
        cfg = load_scenario(REFERENCE).replace(m=m)
        pol = zero_policy(cfg, p_user=0.01, p_relay=0.01)
        for chunk in (977, None):
            kw = {} if chunk is None else {"chunk_size": chunk}
            res = estimate_outage(cfg, pol, 20_000, RngSpec(seed=2024),
                                  n_streams=3, **kw)
            outage, decode = self.PINNED_COUNTS[m, chunk]
            assert res.outage_count.dtype == np.int64
            assert res.outage_count.tolist() == outage
            assert res.decode_count.tolist() == decode

    def test_bad_arguments_rejected(self):
        cfg, pol = toy_point()
        with pytest.raises(ValueError):
            estimate_outage(cfg, pol, 0, RngSpec(seed=1))
        with pytest.raises(ValueError):
            estimate_outage(cfg, pol, 100, RngSpec(seed=1), n_streams=0)
        with pytest.raises(ValueError):
            estimate_outage(cfg, pol, 100, RngSpec(seed=1), chunk_size=0)
        for n_streams in (1, 2):
            with pytest.raises(ValueError):
                estimate_outage(cfg, pol, 100, RngSpec(seed=1).generator(),
                                n_streams=n_streams)

    def test_result_shape(self):
        cfg, pol = toy_point(M=2, N=2, K=2)
        res = estimate_outage(cfg, pol, 5_000, RngSpec(seed=23))
        assert isinstance(res, MonteCarloResult)
        assert res.pr_out.shape == (2,)
        assert res.decode_count.shape == (2, 2)
        assert res.streams == 1
        assert np.all(res.ci_lo <= res.pr_out)
        assert np.all(res.pr_out <= res.ci_hi)
