"""Channel-realization simulation for validating the outage analysis.

Squared Nakagami-m envelopes are gamma variates: one
``Generator.standard_gamma`` draw with shape m times the scale omega / m,
bit for bit what ``Generator.gamma`` returns.  A link succeeds when the
received SNR clears the rate threshold:

    B * log2(1 + gain * d**(-beta) * p / (N0 * B)) >= alpha0
    <=>  gain * d**(-beta) * p >= (2**(alpha0 / B) - 1) * N0 * B

The simulator compares in the power domain (right-hand form), never
taking logs per trial.  With margin = d**(-beta) * p / (gap * N0 * B) a
link succeeds iff (s * (omega / m)) * margin >= 1 in floating point, for
the standard gamma draw s.  Rounded multiplication by a positive
constant never decreases, so that test is s >= thr for one threshold
per link and period: the smallest double that passes it, found once per
call by bisection over the ordered bit patterns of the non-negative
doubles (inf where none passes, as for a relay switched off).  The
trials compare raw draws with these thresholds and never scale a draw.
A relay decodes when every first-hop link of the period succeeds; the
destination recovers all messages when at least M relays both decoded
and got their forward through.

Randomness is counter-based (Philox): a simulation draws one stream
keyed (seed, 0), so any draw sequence is reproducible from the seed.
``estimate_outage`` cuts the trials into chunks of ``_CHUNK``; chunk c
draws from ``Philox(key=(seed, 0)).jumped(c)``, a substream disjoint
from every other chunk's (Salmon et al., SC'11).  The chunks run on a
thread pool, since NumPy's gamma sampler releases the GIL, and their
integer counts are summed, so the result depends on the seed and on
``_CHUNK``, and never on the number of threads.  A run that fits in one
chunk draws the unjumped stream.

Per period a chunk draws its first-hop gains, then its second-hop gains,
each in row order and in blocks of ``_BLOCK`` trials.  Back-to-back
``standard_gamma`` calls use the stream exactly as one call on the whole
array does, so the block size changes no count.  Only the chunk's (n, N)
relay decode flags outlive a block: a thread holds n * N bytes of flags
plus one block of gains, (M + 1) * N * 8 bytes per trial of the block,
whatever the chunk size.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (ScenarioConfig, Policy, check_policy_arrays, snr_gap,
                    total_energy)

_U64 = 2 ** 64
_Z95 = 1.959963984540054
_CHUNK = 1 << 16              # trials per substream; keys the draws
_BLOCK = 8192                 # trials drawn and tallied per block
_INF_BITS = np.float64(np.inf).view(np.int64)


def _generator(seed, jumps: int = 0) -> np.random.Generator:
    """Generator on the stream keyed (seed, 0), advanced by
    jumps * 2**128 draws; jumps=0 is the stream itself.  A seed that is
    not an integer in [0, 2**64) raises ValueError."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an integer")
    if not 0 <= int(seed) < _U64:
        raise ValueError("seed must fit in 64 bits")
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key).jumped(jumps))


def sample_channel_power_gain(omega, m, rng, size=None, out=None):
    """Draw squared channel envelopes for Nakagami-m fading.

    Returns gamma variates with shape m and scale omega / m, so the mean
    gain is omega and the variance omega**2 / m.  omega may be an array;
    it broadcasts against size, and without size (or out) the draws take
    omega's shape.  rng is a numpy Generator or an integer seed.  out, a
    C-contiguous float array, receives the draws and is returned.  The
    values and stream position equal those of
    ``Generator.gamma(m, omega / m, size)`` bit for bit, since that is
    the same standard gamma variate times the same scale.  The simulator
    draws in ``_tally_chunk`` and never calls this; it stays because the
    benchmark's tracer wraps the name.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("omega must be > 0")
    m = float(m)
    if not m >= 0.5:
        raise ValueError(f"m must be >= 0.5, got {m}")
    gen = rng if isinstance(rng, np.random.Generator) else _generator(rng)
    if size is None and out is None:
        size = omega.shape
    draws = gen.standard_gamma(m, size=size, out=out)
    draws *= omega / m
    return draws


def _success_margins(config: ScenarioConfig, policy: Policy):
    """Per-link gain multipliers of every period, (K, M, N) and (K, N):
    a link succeeds iff gain * margin >= 1.

    margin = d**(-beta) * p / (gap * N0 * B), which keeps zero powers
    well defined (margin 0 never succeeds) without dividing by p.
    """
    need = snr_gap(config) * config.B
    m_h = config.d_h ** (-config.beta_h) * policy.p_u.T[:, :, None] / (
        need * config.N0_h)
    m_g = config.d_g ** (-config.beta_g) * policy.p_r.T / (
        need * config.N0_g)
    return m_h, m_g


def _thresholds(scale, margin):
    """Smallest double s with (s * scale) * margin >= 1.0, elementwise,
    for positive scales and non-negative margins; inf where no finite s
    passes (a zero margin).  Both products round monotonically in s, so
    s >= _thresholds(scale, margin) is that test bit for bit.  Bisection
    over the bit patterns of [0, inf], which order like the doubles:
    lo always fails, hi passes or is inf."""
    scale, margin = np.broadcast_arrays(np.asarray(scale, dtype=float),
                                        np.asarray(margin, dtype=float))
    lo = np.zeros(scale.shape, dtype=np.int64)
    hi = np.full(scale.shape, _INF_BITS)
    # products past the largest double round to inf, and inf * 0 is nan
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(63):     # the width, below 2**63, halves each step
            mid = lo + (hi - lo) // 2
            passed = (mid.view(np.float64) * scale) * margin >= 1.0
            hi = np.where(passed, mid, hi)
            lo = np.where(passed, lo, mid)
    return hi.view(np.float64)


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
    pr_out: np.ndarray       # (K,) empirical outage probability
    ci_lo: np.ndarray        # (K,) Wilson 95% lower bound
    ci_hi: np.ndarray        # (K,) Wilson 95% upper bound
    outage_count: np.ndarray    # (K,) integer outage tallies
    decode_count: np.ndarray    # (K, N) integer per-relay decode tallies
    bits: float              # mean delivered bits per horizon realization
    e_tot: float             # total consumed energy of the policy, J
    ee: float                # bits / e_tot


def _tally_chunk(config, thr_h, thr_g, seed, chunk, n):
    """Simulate n trials of every period on chunk substream `chunk` of
    the seed's stream against the (K, M, N) and (K, N) link thresholds
    of the raw standard gamma draws; returns the (outage_count,
    decode_count) tallies.

    Per period the draws are the (n, M, N) first-hop gains then the
    (n, N) second-hop gains, each drawn in row order in blocks of at
    most _BLOCK trials.
    """
    M, N, m = config.M, config.N, config.m
    gen = _generator(seed, chunk)
    block = min(n, _BLOCK)
    gains_h = np.empty((block, M, N))
    gains_g = np.empty((block, N))
    decoded = np.empty((n, N), dtype=bool)
    outage_count = np.zeros(config.K, dtype=np.int64)
    decode_count = np.zeros((config.K, N), dtype=np.int64)
    blocks = [(start, min(start + block, n)) for start in range(0, n, block)]
    for k in range(config.K):
        for start, stop in blocks:
            gains = gen.standard_gamma(m, out=gains_h[:stop - start])
            dec = decoded[start:stop]
            np.greater_equal(gains[:, 0], thr_h[k, 0], out=dec)
            for i in range(1, M):
                dec &= gains[:, i] >= thr_h[k, i]
        # column by column: a strided count beats an axis reduction here
        for j in range(N):
            decode_count[k, j] = np.count_nonzero(decoded[:, j])
        for start, stop in blocks:
            gains = gen.standard_gamma(m, out=gains_g[:stop - start])
            forwarded = gains >= thr_g[k]
            forwarded &= decoded[start:stop]
            sent = np.zeros(stop - start, dtype=np.intp)
            for j in range(N):
                sent += forwarded[:, j]
            outage_count[k] += np.count_nonzero(sent < M)
    return outage_count, decode_count


def estimate_outage(config: ScenarioConfig, policy: Policy, trials,
                    seed) -> MonteCarloResult:
    """Estimate per-period outage and EE over repeated channel draws.

    The trials draw one stream keyed (seed, 0), in chunks of _CHUNK
    trials (the last one partial); chunk c draws from the stream jumped
    c times.  The chunks run on up to os.cpu_count() threads and their
    integer counts are summed, so the result is the same for any thread
    count.  _CHUNK is part of the reproducibility key: each chunk draws
    all its first-hop gains before its second-hop gains, so another
    chunk size gives another realization.  The block size within a chunk
    (_BLOCK) is not part of it: the blocks draw in stream order, so any
    block size gives the same counts.  A seed that is not an integer in
    [0, 2**64), a policy whose arrays do not match the scenario's
    (M, N, K), hold a non-finite entry, a user power <= 0 or a negative
    relay power raises ValueError before any draw.
    """
    _generator(seed)            # refuses a bad seed before any work
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")

    check_policy_arrays(config, policy)
    if np.any(policy.p_u <= 0.0):
        raise ValueError("user powers must be strictly positive")
    if np.any(policy.p_r < 0.0):
        raise ValueError("relay powers must be >= 0")

    m_h, m_g = _success_margins(config, policy)
    thr_h = _thresholds(config.omega_h / config.m, m_h)
    thr_g = _thresholds(config.omega_g / config.m, m_g)
    jobs = [(seed, chunk, min(_CHUNK, trials - start))
            for chunk, start in enumerate(range(0, trials, _CHUNK))]
    workers = min(len(jobs), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        tallies = list(pool.map(
            lambda job: _tally_chunk(config, thr_h, thr_g, *job), jobs))
    outage_count = sum(t[0] for t in tallies)
    decode_count = sum(t[1] for t in tallies)

    pr_out = outage_count / trials
    ci_lo, ci_hi = wilson_interval(outage_count, trials)
    bits = config.M * config.alpha0 * config.T * float(
        (trials - outage_count).sum()) / trials
    e_tot = total_energy(config, policy)
    ee = bits / e_tot if e_tot > 0 else math.inf
    return MonteCarloResult(trials=trials, pr_out=pr_out, ci_lo=ci_lo,
                            ci_hi=ci_hi, outage_count=outage_count,
                            decode_count=decode_count,
                            bits=bits, e_tot=e_tot, ee=ee)
