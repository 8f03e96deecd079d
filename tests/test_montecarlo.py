"""Simulation module tests.

Statistical gates use fixed seeds, so every assertion is deterministic.
Analytic targets come from independent formulas: scipy's regularized
incomplete gamma, gamma-distribution moment identities, and the exact
outage evaluator (itself enumeration-checked elsewhere).
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammainc

import eecoop.montecarlo
from eecoop.model import Policy, load_scenario, total_energy
from eecoop.montecarlo import (MonteCarloResult, _generator, estimate_outage,
                               sample_channel_power_gain, wilson_interval)
from eecoop.outage import network_outage_report

from helpers import solver_toy, zero_policy

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" \
    / "reference_m2n4.json"

def toy_point(M=1, N=1, K=1, p=1.0):
    """Scenario plus constant-power policy at a simulable outage level."""
    cfg = solver_toy(M=M, N=N, K=K)
    pol = zero_policy(cfg, p_user=p, p_relay=p)
    return cfg, pol


class TestRngSpec:
    """The random source: _generator(seed, jumps), the Philox stream
    keyed (seed, 0), and its seed check."""

    def test_identical_spec_identical_draws(self):
        a = _generator(123).random(32)
        b = _generator(123).random(32)
        assert np.array_equal(a, b)

    def test_64_bit_range_enforced(self):
        with pytest.raises(ValueError, match="fit in 64 bits"):
            _generator(-1)
        with pytest.raises(ValueError, match="fit in 64 bits"):
            _generator(2 ** 64)
        with pytest.raises(ValueError, match="must be an integer"):
            _generator(1.0)
        _generator(2 ** 64 - 1)

    def test_zero_jumps_is_the_stream(self):
        a = _generator(123, 0).random(32)
        b = _generator(123).random(32)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("jumps", [1, 3])
    def test_jumps_are_philox_substreams(self, jumps):
        key = np.array([123, 0], dtype=np.uint64)
        want = np.random.Generator(
            np.random.Philox(key=key).jumped(jumps)).random(32)
        got = _generator(123, jumps).random(32)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, _generator(123).random(32))


class TestGainSampler:
    def test_rayleigh_mean(self):
        """m=1 squared envelopes are exponential with mean omega."""
        omega = 2.5
        n = 1_000_000
        draws = sample_channel_power_gain(omega, 1.0, 42,
                                          size=n)
        assert abs(draws.mean() - omega) <= 3 * omega / np.sqrt(n)

    def test_variance_identity(self):
        """Var = omega**2 / m; tolerance from the gamma kurtosis."""
        omega, m, n = 1.7, 2.0, 1_000_000
        draws = sample_channel_power_gain(omega, m, 43, size=n)
        var = omega * omega / m
        sigma = var * np.sqrt((2.0 + 6.0 / m) / n)
        assert abs(draws.var() - var) <= 3 * sigma

    def test_cdf_matches_incomplete_gamma(self):
        """Fraction below b*omega/m reproduces the outage closed form."""
        omega, m, n, b = 1.7, 2.0, 1_000_000, 0.8
        draws = sample_channel_power_gain(omega, m, 43, size=n)
        frac = np.mean(draws <= b * omega / m)
        target = gammainc(m, b)
        assert abs(frac - target) <= 3 * np.sqrt(target * (1 - target) / n)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_channel_power_gain(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            sample_channel_power_gain(-2.0, 1.0, 1)
        with pytest.raises(ValueError):
            sample_channel_power_gain(1.0, 0.49, 1)
        with pytest.raises(ValueError):
            sample_channel_power_gain(1.0, 1.0, "not an rng")

    def test_array_omega_broadcasts(self):
        omega = np.array([[1.0, 2.0], [3.0, 4.0]])
        draws = sample_channel_power_gain(omega, 1.5, 2,
                                          size=(1000, 2, 2))
        assert draws.shape == (1000, 2, 2)
        assert np.all(draws > 0)


    @pytest.mark.parametrize("m", [0.5, 0.73, 1.0, 2.5])
    def test_bitwise_equal_to_generator_gamma(self, m):
        """Same bits and same stream position as Generator.gamma with
        scale omega / m, for scalar and per-link omega."""
        omega = np.array([[0.4, 1.7, 3.1], [2.2, 0.9, 5.0]])
        for om, size in ((1.3, 5000), (omega, (700, 2, 3))):
            key = np.array([5, 2], dtype=np.uint64)
            ref = np.random.Generator(np.random.Philox(key=key))
            gen = np.random.Generator(np.random.Philox(key=key))
            want = ref.gamma(m, np.asarray(om) / m, size)
            got = sample_channel_power_gain(om, m, gen, size=size)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64),
                                  want.view(np.uint64))
            assert gen.random() == ref.random()

    def test_array_omega_without_size_keeps_its_shape(self):
        omega = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 0.25]])
        draws = sample_channel_power_gain(omega, 1.5, 8)
        want = _generator(8).gamma(1.5, omega / 1.5)
        assert draws.shape == omega.shape
        assert np.array_equal(draws, want)

    def test_out_is_filled_and_returned(self):
        omega = np.array([0.5, 2.0, 7.5])
        out = np.empty((400, 3))
        got = sample_channel_power_gain(omega, 0.73, 4,
                                        size=out.shape, out=out)
        want = sample_channel_power_gain(omega, 0.73, 4,
                                         size=out.shape)
        assert got is out
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


class TestThresholds:
    """A raw draw s passes a link iff s >= its threshold, which must give
    the scaled test (s * scale) * margin >= 1 bit for bit, so moving a
    threshold by one ulp either way fails at it or just below it."""

    @pytest.fixture()
    def links(self):
        rng = np.random.default_rng(28)
        scale = 10.0 ** rng.uniform(-300, 300, 4000)
        margin = 10.0 ** rng.uniform(-300, 300, 4000)
        # near-unit products, where thresholds sit among ordinary draws
        scale[:1000] = rng.uniform(0.1, 10.0, 1000)
        margin[:1000] = rng.uniform(0.1, 10.0, 1000) / scale[:1000]
        margin[-5:] = 0.0
        thr = eecoop.montecarlo._thresholds(scale, margin)
        return scale, margin, thr, rng

    @staticmethod
    def assert_agrees(s, scale, margin, thr):
        s, scale, margin, thr = np.broadcast_arrays(s, scale, margin, thr)
        finite = np.isfinite(s)     # a gamma draw is never inf
        with np.errstate(over="ignore", invalid="ignore"):
            want = (s * scale) * margin >= 1.0
        assert np.array_equal((s >= thr)[finite], want[finite])

    def test_exact_at_and_beside_threshold(self, links):
        scale, margin, thr, _ = links
        assert np.isfinite(thr[:-5]).sum() > 1000
        assert np.all(thr[-5:] == np.inf)
        for s in (thr, np.nextafter(thr, 0.0), np.nextafter(thr, np.inf)):
            self.assert_agrees(s, scale, margin, thr)

    def test_exact_on_draws(self, links):
        scale, margin, thr, rng = links
        draws = np.concatenate([
            rng.standard_gamma(m, size=(50, scale.size))
            for m in (0.5, 1.0, 2.5)])
        self.assert_agrees(draws, scale, margin, thr)
        self.assert_agrees(10.0 ** rng.uniform(-320, 308, draws.shape),
                           scale, margin, thr)


class TestTrialOutcome:
    """Trial outcomes as estimate_outage tallies them: a trial succeeds
    when at least M relays decoded and forwarded."""

    def test_simulated_outcomes_respect_subset(self):
        """Forwarders are decoders, so every success adds at least M to
        the per-relay decode tallies."""
        cfg, pol = toy_point(M=2, N=2, p=0.05)
        res = estimate_outage(cfg, pol, 20_000, seed=300)
        successes = res.trials - res.outage_count
        assert np.all(successes > 0) and np.all(res.outage_count > 0)
        assert np.all(res.decode_count.sum(axis=1) >= cfg.M * successes)
        assert np.all(res.decode_count <= res.trials)


class TestSimulatePeriod:
    """Simulated periods read off estimate_outage's outage_count and
    decode_count tallies."""

    def test_huge_power_always_succeeds(self):
        cfg, pol = toy_point(M=2, N=2, p=1e12)
        res = estimate_outage(cfg, pol, 500, seed=0)
        assert np.all(res.outage_count == 0)
        assert np.all(res.decode_count == 500)

    def test_floor_power_always_fails(self):
        cfg, pol = toy_point(M=2, N=2, p=1e-9)
        res = estimate_outage(cfg, pol, 500, seed=0)
        assert np.all(res.outage_count == 500)
        assert np.all(res.decode_count == 0)

    def test_zero_power_handled(self):
        """A relay switched off never forwards, so every trial is an
        outage; a zero user power is refused before any draw, as the
        exact report refuses it."""
        cfg, pol = toy_point(M=1, N=1)
        pol.p_r[:] = 0.0
        res = estimate_outage(cfg, pol, 100, seed=0)
        assert res.outage_count.tolist() == [100]
        pol.p_u[:] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            estimate_outage(cfg, pol, 100, seed=0)

    def test_relay_decode_rate_matches_analytic(self):
        """Empirical decode frequency agrees with the closed form."""
        cfg, pol = toy_point(M=2, N=2)
        rep = network_outage_report(cfg, pol, mode="exact")
        res = estimate_outage(cfg, pol, 1_000_000, seed=7)
        rate = res.decode_count[0] / res.trials
        rho = np.prod(1.0 - rep.pe_user[:, :, 0], axis=0)
        sigma = np.sqrt(rho * (1 - rho) / res.trials)
        assert np.all(np.abs(rate - rho) <= 3 * sigma)

    def test_power_vector_shapes_checked(self):
        """A policy of another network size is refused."""
        cfg, _ = toy_point(M=2, N=2)
        _, pol = toy_point(M=1, N=2)
        with pytest.raises(ValueError):
            estimate_outage(cfg, pol, 10, seed=0)

    @pytest.mark.parametrize("K", [5, 12])
    def test_period_count_checked_before_drawing(self, K, monkeypatch):
        """A policy with fewer or more periods than the scenario is
        refused before any chunk is drawn."""
        cfg = load_scenario(REFERENCE)
        pol = Policy(np.full((cfg.M, K), 0.01), np.full((cfg.N, K), 0.01),
                     np.zeros((K, cfg.M, cfg.M)))
        calls = []
        monkeypatch.setattr(eecoop.montecarlo, "_tally_chunk",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="do not match"):
            estimate_outage(cfg, pol, 1000, seed=0)
        assert calls == []


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
        res = estimate_outage(cfg, pol, 1_000_000, seed=7)
        p = rep.pr_out[0]
        sigma = np.sqrt(p * (1 - p) / res.trials)
        assert abs(res.pr_out[0] - p) <= 3 * sigma
        assert res.ci_lo[0] <= p <= res.ci_hi[0]

    def test_error_shrinks_with_trials(self):
        """Root-n consistency at both desk-scale trial counts."""
        cfg, pol = toy_point(M=1, N=1)
        p = network_outage_report(cfg, pol, mode="exact").pr_out[0]
        for trials, seed in ((10_000, 51), (1_000_000, 52)):
            res = estimate_outage(cfg, pol, trials, seed=seed)
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(res.pr_out[0] - p) <= 3 * sigma

    def test_interval_coverage(self):
        """The analytic value lands inside the 95% interval in at least
        93% of a fixed battery of repeated runs."""
        cfg, pol = toy_point(M=1, N=1)
        p = network_outage_report(cfg, pol, mode="exact").pr_out[0]
        runs, covered = 50, 0
        for s in range(runs):
            res = estimate_outage(cfg, pol, 20_000, seed=1000 + s)
            covered += bool(res.ci_lo[0] <= p <= res.ci_hi[0])
        assert covered >= int(np.ceil(0.93 * runs))

    def test_empirical_ee_accounting(self):
        """bits = M*alpha0*T * mean successes; ee = bits / E_tot."""
        cfg, pol = toy_point(M=2, N=2, K=2)
        res = estimate_outage(cfg, pol, 50_000, seed=9)
        successes = res.trials - res.outage_count
        bits = cfg.M * cfg.alpha0 * cfg.T * successes.sum() / res.trials
        assert res.bits == pytest.approx(bits, rel=1e-12)
        assert res.e_tot == pytest.approx(total_energy(cfg, pol), rel=1e-12)
        assert res.ee == pytest.approx(bits / res.e_tot, rel=1e-12)

    def test_deterministic_replay(self):
        cfg, pol = toy_point(M=2, N=2, K=2)
        a = estimate_outage(cfg, pol, 30_000, seed=17)
        b = estimate_outage(cfg, pol, 30_000, seed=17)
        assert np.array_equal(a.outage_count, b.outage_count)
        assert np.array_equal(a.decode_count, b.decode_count)
        assert a.ee == b.ee

    def test_thread_count_does_not_change_counts(self, monkeypatch):
        """Chunks are substreams whose counts are summed, so one thread
        and three threads give the same tallies bit for bit."""
        monkeypatch.setattr(eecoop.montecarlo, "_CHUNK", 700)
        cfg, pol = toy_point(M=2, N=2, K=2)
        counts = []
        for cpus in (1, 3):
            monkeypatch.setattr("eecoop.montecarlo.os.cpu_count",
                                lambda cpus=cpus: cpus)
            res = estimate_outage(cfg, pol, 10_001, seed=19)
            counts.append((res.outage_count.tolist(),
                           res.decode_count.tolist(), res.ee))
        assert counts[0] == counts[1]

    def test_chunk_size_keys_draws(self, monkeypatch):
        """_CHUNK is part of the reproducibility key: each chunk draws
        from its own substream, its first-hop block for all its trials
        before the second hop, so another chunk size gives another
        (equally valid) realization.  A run that fits in one chunk draws
        the unjumped stream."""
        cfg, pol = toy_point(M=2, N=2, K=2)
        counts = {}
        for chunk in (1 << 20, 977):
            monkeypatch.setattr(eecoop.montecarlo, "_CHUNK", chunk)
            res = estimate_outage(cfg, pol, 10_000, seed=3)
            counts[chunk] = (res.outage_count.tolist(),
                             res.decode_count.tolist())
        assert counts[1 << 20] == ([741, 748], [[9745, 9746], [9726, 9742]])
        assert counts[977] == ([717, 771], [[9758, 9738], [9746, 9719]])

    # (m, _CHUNK) -> (outage_count, decode_count) for 20,000 trials on the
    # reference geometry at 10 mW everywhere; None is the default _CHUNK
    PINNED_COUNTS = {
        (0.5, 977): (
            [9582, 9506, 9621, 9659, 9572, 9723, 9552, 9605, 9551, 9660],
            [[11391, 14943, 13414, 7820], [11562, 14876, 13389, 7883],
             [11520, 14972, 13323, 7907], [11545, 14929, 13308, 7787],
             [11558, 15055, 13289, 7831], [11569, 14856, 13348, 7816],
             [11480, 14865, 13260, 7985], [11549, 14985, 13334, 7838],
             [11576, 14981, 13342, 7862], [11534, 14902, 13278, 7868]]),
        (0.5, None): (
            [9543, 9694, 9764, 9658, 9728, 9673, 9582, 9550, 9678, 9635],
            [[11573, 14972, 13343, 7784], [11440, 14897, 13322, 7815],
             [11290, 14873, 13202, 7781], [11404, 14892, 13348, 7878],
             [11420, 14899, 13234, 7724], [11481, 14961, 13395, 7675],
             [11428, 14821, 13218, 7927], [11536, 14950, 13277, 7936],
             [11381, 15042, 13408, 7842], [11375, 14890, 13343, 7796]]),
        (1.0, 977): (
            [2393, 2362, 2416, 2381, 2370, 2481, 2438, 2471, 2375, 2495],
            [[16421, 18222, 17942, 12148], [16455, 18179, 17901, 12251],
             [16458, 18148, 17883, 12167], [16514, 18192, 17886, 12184],
             [16567, 18184, 17919, 12154], [16421, 18235, 17866, 12002],
             [16433, 18183, 17877, 12179], [16475, 18228, 17906, 12166],
             [16480, 18268, 17919, 12148], [16382, 18187, 17923, 12115]]),
        (1.0, None): (
            [2394, 2433, 2382, 2374, 2406, 2387, 2440, 2462, 2419, 2506],
            [[16478, 18186, 17935, 12169], [16408, 18235, 17913, 12146],
             [16420, 18253, 17998, 12100], [16576, 18200, 17971, 12191],
             [16460, 18180, 17916, 12065], [16474, 18160, 17890, 12114],
             [16480, 18180, 17912, 11944], [16466, 18173, 17875, 12118],
             [16478, 18122, 17940, 12265], [16401, 18179, 17945, 12135]]),
        (2.5, 977): (
            [63, 64, 66, 60, 68, 52, 77, 61, 65, 52],
            [[19657, 19865, 19914, 17024], [19682, 19873, 19915, 17127],
             [19657, 19856, 19919, 17062], [19648, 19865, 19913, 16982],
             [19635, 19878, 19916, 17047], [19678, 19854, 19926, 17011],
             [19619, 19885, 19905, 16952], [19655, 19856, 19927, 17007],
             [19699, 19873, 19896, 17028], [19685, 19853, 19915, 17004]]),
        (2.5, None): (
            [64, 61, 62, 60, 65, 73, 67, 72, 65, 52],
            [[19651, 19885, 19915, 17030], [19667, 19851, 19910, 16999],
             [19656, 19849, 19918, 17142], [19654, 19851, 19905, 17028],
             [19661, 19862, 19909, 17060], [19654, 19857, 19904, 17067],
             [19654, 19872, 19912, 16957], [19631, 19860, 19906, 17009],
             [19629, 19877, 19925, 17128], [19661, 19843, 19905, 17062]]),
    }

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    def test_counts_pinned(self, m, monkeypatch):
        """Exact tallies of a fixed constant-power policy, so that any
        change to the draws, their order or the link decisions shows.
        A fixed policy, not a solver output, keeps the pin independent
        of platform-sensitive Newton counts."""
        cfg = load_scenario(REFERENCE).replace(m=m)
        pol = zero_policy(cfg, p_user=0.01, p_relay=0.01)
        default = eecoop.montecarlo._CHUNK
        for chunk in (977, None):
            monkeypatch.setattr(eecoop.montecarlo, "_CHUNK",
                                default if chunk is None else chunk)
            res = estimate_outage(cfg, pol, 20_000, seed=2024)
            outage, decode = self.PINNED_COUNTS[m, chunk]
            assert res.outage_count.dtype == np.int64
            assert res.outage_count.tolist() == outage
            assert res.decode_count.tolist() == decode

    @pytest.mark.parametrize("block", [977, 1 << 20])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    def test_block_size_keeps_counts(self, m, block, monkeypatch):
        """The blocks of a chunk draw in stream order, so blocks of 977
        trials (several per chunk, the last one partial) and one block
        per chunk reproduce the pinned counts."""
        monkeypatch.setattr(eecoop.montecarlo, "_BLOCK", block)
        self.test_counts_pinned(m, monkeypatch)

    def test_memory_bounded_per_thread(self, monkeypatch):
        """Two full 65,536-trial chunks on one thread hold one block of
        gains and one chunk of decode flags at a time: a whole chunk of
        gains would be 6 MiB on the reference network."""
        monkeypatch.setattr("eecoop.montecarlo.os.cpu_count", lambda: 1)
        cfg = load_scenario(REFERENCE)
        pol = zero_policy(cfg, p_user=0.01, p_relay=0.01)
        estimate_outage(cfg, pol, 1000, seed=1)
        tracemalloc.start()
        try:
            estimate_outage(cfg, pol, 2 * 65_536, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_bad_arguments_rejected(self):
        cfg, pol = toy_point()
        with pytest.raises(ValueError, match="trials"):
            estimate_outage(cfg, pol, 0, seed=1)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="fit in 64 bits"):
                estimate_outage(cfg, pol, 100, seed=seed)
        for seed in (1.0, "1", None, _generator(1)):
            with pytest.raises(ValueError, match="must be an integer"):
                estimate_outage(cfg, pol, 100, seed=seed)

    def test_result_shape(self):
        cfg, pol = toy_point(M=2, N=2, K=2)
        res = estimate_outage(cfg, pol, 5_000, seed=23)
        assert isinstance(res, MonteCarloResult)
        assert res.pr_out.shape == (2,)
        assert res.decode_count.shape == (2, 2)
        assert np.all(res.ci_lo <= res.pr_out)
        assert np.all(res.pr_out <= res.ci_hi)
