"""Channel-realization simulation for validating the outage analysis.

Squared Nakagami-m envelopes are gamma variates.  Each block of link
draws is one ``Generator.standard_gamma`` call times the scale omega / m,
bit for bit what ``Generator.gamma`` returns.  A link succeeds when the
received SNR clears the rate threshold:

    B * log2(1 + gain * d**(-beta) * p / (N0 * B)) >= alpha0
    <=>  gain * d**(-beta) * p >= (2**(alpha0 / B) - 1) * N0 * B

The simulator compares in the power domain (right-hand form), never
taking logs per trial.  A relay decodes when every first-hop link of the
period succeeds; the destination recovers all messages when at least M
relays both decoded and got their forward through.

Randomness is counter-based (Philox) and keyed by an explicit
(seed, stream_id) pair, so any draw sequence is reproducible and streams
with distinct ids are independent.  ``estimate_outage`` cuts each stream
into chunks of trials; chunk c of stream s draws from
``Philox(key=(seed, stream_id + s)).jumped(c)``, a substream disjoint
from every other chunk's (Salmon et al., SC'11).  The chunks run on a
thread pool, since NumPy's gamma sampler releases the GIL, and their
integer counts are summed, so the result depends on the seed, stream id,
stream count and chunk size, and never on the number of threads.  A
stream that fits in one chunk draws the unjumped stream.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ScenarioConfig, Policy, snr_gap, total_energy

_U64 = 2 ** 64
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class RngSpec:
    """Reproducible random source: a 64-bit seed plus a stream id.

    Identical (seed, stream_id) pairs reproduce identical draw
    sequences; distinct stream ids give statistically independent
    streams for the same seed.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
            if not 0 <= int(v) < _U64:
                raise ValueError(f"{name} must fit in 64 bits")

    def generator(self, jumps: int = 0) -> np.random.Generator:
        """Generator on this stream advanced by jumps * 2**128 draws;
        jumps=0 is the stream itself."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key).jumped(jumps))

    def stream(self, offset: int) -> "RngSpec":
        return RngSpec(self.seed, (self.stream_id + offset) % _U64)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSpec):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngSpec(int(rng)).generator()
    raise ValueError("rng must be a Generator, RngSpec, or integer seed")


def sample_channel_power_gain(omega, m, rng, size=None, out=None):
    """Draw squared channel envelopes for Nakagami-m fading.

    Returns gamma variates with shape m and scale omega / m, so the mean
    gain is omega and the variance omega**2 / m.  omega may be an array;
    it broadcasts against size, and without size (or out) the draws take
    omega's shape.  rng may be a numpy Generator, an RngSpec, or a plain
    integer seed.  out, a C-contiguous float array, receives the draws
    and is returned.  The values and stream position equal those of
    ``Generator.gamma(m, omega / m, size)`` bit for bit, since that is
    the same standard gamma variate times the same scale.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("omega must be > 0")
    m = float(m)
    if not m >= 0.5:
        raise ValueError(f"m must be >= 0.5, got {m}")
    gen = _as_generator(rng)
    if size is None and out is None:
        size = omega.shape
    return _draw_gains(gen, omega, m, size, out)


def _draw_gains(gen, omega, m, size=None, out=None):
    """Unchecked body of sample_channel_power_gain: standard gamma draws
    scaled by omega / m.  estimate_outage's worker threads draw through
    this helper, never the public name, which the benchmark tracer
    rebinds with a single-threaded span stack."""
    draws = gen.standard_gamma(m, size=size, out=out)
    draws *= omega / m
    return draws


def _success_margins(config: ScenarioConfig, p_user, p_relay):
    """Per-link gain multipliers: a link succeeds iff gain * margin >= 1.

    margin = d**(-beta) * p / (gap * N0 * B), which keeps zero powers
    well defined (margin 0 never succeeds) without dividing by p.
    """
    p_user = np.asarray(p_user, dtype=float)
    p_relay = np.asarray(p_relay, dtype=float)
    if p_user.shape != (config.M,) or p_relay.shape != (config.N,):
        raise ValueError("expected per-period power vectors (M,) and (N,)")
    need = snr_gap(config) * config.B
    m_h = config.d_h ** (-config.beta_h) * p_user[:, None] / (
        need * config.N0_h)
    m_g = config.d_g ** (-config.beta_g) * p_relay / (need * config.N0_g)
    return m_h, m_g


def wilson_interval(count, n, z=_Z95):
    """Wilson score interval for a binomial proportion, vectorized."""
    count = np.asarray(count, dtype=float)
    n = float(n)
    phat = count / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / n
                       + z * z / (4.0 * n * n)) / denom
    # center - half is 0 (and center + half is 1) analytically at the
    # boundary counts; pin them so rounding noise cannot leak past
    lo = np.where(count == 0, 0.0, np.clip(center - half, 0.0, 1.0))
    hi = np.where(count == n, 1.0, np.clip(center + half, 0.0, 1.0))
    return lo, hi


@dataclass
class MonteCarloResult:
    """Empirical outage and efficiency estimates for a policy.

    Per-period arrays have length K.  outage_count and decode_count are
    exact integer tallies; ci_lo / ci_hi bound the outage probability at
    95% (Wilson).  ee divides the mean delivered bits per horizon by the
    policy's total energy.
    """

    trials: int
    streams: int
    pr_out: np.ndarray       # (K,) empirical outage probability
    ci_lo: np.ndarray        # (K,) Wilson 95% lower bound
    ci_hi: np.ndarray        # (K,) Wilson 95% upper bound
    outage_count: np.ndarray    # (K,) integer outage tallies
    decode_count: np.ndarray    # (K, N) integer per-relay decode tallies
    bits: float              # mean delivered bits per horizon realization
    e_tot: float             # total consumed energy of the policy, J
    ee: float                # bits / e_tot


def _tally_chunk(config, margins, spec, chunk, n):
    """Simulate n trials of every period on chunk substream `chunk` of
    spec; returns the (outage_count, decode_count) tallies.

    Per period the draws are the (n, M, N) first-hop block then the
    (n, N) second-hop block.
    """
    M, N = config.M, config.N
    gen = spec.generator(chunk)
    gains_h = np.empty((n, M, N))
    gains_g = np.empty((n, N))
    outage_count = np.zeros(config.K, dtype=np.int64)
    decode_count = np.zeros((config.K, N), dtype=np.int64)
    for k, (margin_h, margin_g) in enumerate(margins):
        _draw_gains(gen, config.omega_h, config.m, out=gains_h)
        _draw_gains(gen, config.omega_g, config.m, out=gains_g)
        gains_h *= margin_h
        gains_g *= margin_g
        decoded = gains_h[:, 0] >= 1.0
        for i in range(1, M):
            decoded &= gains_h[:, i] >= 1.0
        forwarded = gains_g >= 1.0
        forwarded &= decoded
        # column by column: a strided count beats an axis reduction here
        sent = np.zeros(n, dtype=np.intp)
        for j in range(N):
            decode_count[k, j] = np.count_nonzero(decoded[:, j])
            sent += forwarded[:, j]
        outage_count[k] = np.count_nonzero(sent < M)
    return outage_count, decode_count


def estimate_outage(config: ScenarioConfig, policy: Policy, trials, rng,
                    n_streams: int = 1,
                    chunk_size: int = 1 << 16) -> MonteCarloResult:
    """Estimate per-period outage and EE over repeated channel draws.

    rng is an RngSpec or a plain integer seed; a bare Generator is
    refused, because it cannot be split into chunk substreams.  Trials
    are split across n_streams independent streams (ids rng.stream_id +
    0 .. n_streams - 1, earlier streams take the remainder), and each
    stream into chunks of at most chunk_size trials; chunk c draws from
    the stream's generator jumped c times.  The chunks run on up to
    os.cpu_count() threads and their integer counts are summed, so the
    result is the same for any thread count, and running the streams in
    separate workers reproduces it exactly under the same partitioning.
    chunk_size is part of the reproducibility key: each chunk draws all
    its first-hop gains before its second-hop gains, so another chunk
    size gives another realization.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_streams = int(n_streams)
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if isinstance(rng, (int, np.integer)):
        rng = RngSpec(int(rng))
    if not isinstance(rng, RngSpec):
        raise ValueError("rng must be an RngSpec or an integer seed; a "
                         "Generator cannot be split into chunk substreams")

    margins = [_success_margins(config, policy.p_u[:, k], policy.p_r[:, k])
               for k in range(config.K)]
    base, rem = divmod(trials, n_streams)
    jobs = []
    for s in range(n_streams):
        spec = rng.stream(s)
        todo = base + (1 if s < rem else 0)
        for chunk, start in enumerate(range(0, todo, chunk_size)):
            jobs.append((spec, chunk, min(chunk_size, todo - start)))
    workers = min(len(jobs), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        tallies = list(pool.map(
            lambda job: _tally_chunk(config, margins, *job), jobs))
    outage_count = sum(t[0] for t in tallies)
    decode_count = sum(t[1] for t in tallies)

    pr_out = outage_count / trials
    ci_lo, ci_hi = wilson_interval(outage_count, trials)
    bits = config.M * config.alpha0 * config.T * float(
        (trials - outage_count).sum()) / trials
    e_tot = total_energy(config, policy)
    ee = bits / e_tot if e_tot > 0 else math.inf
    return MonteCarloResult(trials=trials, streams=n_streams,
                            pr_out=pr_out, ci_lo=ci_lo, ci_hi=ci_hi,
                            outage_count=outage_count,
                            decode_count=decode_count,
                            bits=bits, e_tot=e_tot, ee=ee)
