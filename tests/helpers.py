"""Shared scenario builders and closed-form and expansion oracles for the
test suite."""

import dataclasses
import math
from itertools import combinations, product

import numpy as np

from eecoop.baselines import relay_assignment
from eecoop.model import P_MIN, Policy, ScenarioConfig
from eecoop.outage import MonomialTable, build_outage_tables


def make_config(**over):
    """Small well-formed scenario (M=2, N=2, K=2) used across the tests."""
    base = dict(
        M=2, N=2, K=2, B=1.25e5, alpha0=1e5, T=1.0, p_max=20.0, eta=0.8,
        m=1.0,
        omega_h=np.ones((2, 2)), d_h=np.full((2, 2), 5.0),
        beta_h=np.full((2, 2), 3.0), N0_h=np.full((2, 2), 1e-9),
        omega_g=np.ones(2), d_g=np.full(2, 5.0),
        beta_g=np.full(2, 3.0), N0_g=np.full(2, 1e-9),
        arrivals=np.array([[2.0, 1.0], [1.0, 3.0]]),
        pr_out_0=0.05,
    )
    base.update(over)
    return ScenarioConfig(**base)


def solver_toy(M=2, N=2, K=2, pr_out_0=5e-2, eta=0.8, seed=7, m=1.0,
               arrival_lo=0.5, arrival_hi=6.0, p_max=20.0, Eu_0=None,
               d=5.0):
    """Feasible optimization toy: alpha0 = B gives unit SNR gap, so the
    per-link outage at one watt is roughly d**3 * 1e-4: 0.0125 at the
    default distance, smaller when d shrinks (used by tight-target toys)."""
    rng = np.random.default_rng(seed)
    arrivals = rng.uniform(arrival_lo, arrival_hi, size=(M, K))
    kw = {} if Eu_0 is None else {"Eu_0": np.asarray(Eu_0, dtype=float)}
    return ScenarioConfig(
        M=M, N=N, K=K, B=1e5, alpha0=1e5, T=1.0, p_max=p_max, eta=eta, m=m,
        omega_h=np.ones((M, N)), d_h=np.full((M, N), float(d)),
        beta_h=np.full((M, N), 3.0), N0_h=np.full((M, N), 1e-9),
        omega_g=np.ones(N), d_g=np.full(N, float(d)),
        beta_g=np.full(N, 3.0), N0_g=np.full(N, 1e-9),
        arrivals=arrivals, pr_out_0=pr_out_0, **kw)


def tiled_config(ref: ScenarioConfig, M: int, N: int, K: int):
    """ref's links tiled to M users and N relays: user i and relay j copy
    ref's user i % ref.M and relay j % ref.N, arrivals and batteries
    included; the first K periods."""
    users, relays = np.arange(M) % ref.M, np.arange(N) % ref.N
    first_hop = {key: getattr(ref, key)[np.ix_(users, relays)]
                 for key in ("omega_h", "d_h", "beta_h", "N0_h")}
    second_hop = {key: getattr(ref, key)[relays]
                  for key in ("omega_g", "d_g", "beta_g", "N0_g")}
    return dataclasses.replace(
        ref, M=M, N=N, K=K, arrivals=ref.arrivals[users, :K],
        Eu_0=ref.Eu_0[users], **first_hop, **second_hop)


def per_user_tables(coeffs, M, N):
    """Plain relaying's tables: user i's is the A+B table of the one-user
    network of user i and its relays (relay_assignment)."""
    return [build_outage_tables(coeffs, M, N, parts=("AB",),
                                group=([i], relays))[0]
            for i, relays in enumerate(relay_assignment(M, N))]


# ---------------------------------------------------------------------------
# solver coordinates


def transform_policy(policy: Policy):
    """Log-power coordinates of a policy: (x_tilde, transfers).

    x_tilde stacks user rows then relay rows, shape (M+N, K).  Requires all
    powers >= P_MIN; a switched-off relay cannot be represented in log
    coordinates.
    """
    if np.any(policy.p_u < P_MIN) or np.any(policy.p_r < P_MIN):
        raise ValueError(f"all powers must be >= {P_MIN} to take logs")
    x = np.log(np.vstack([policy.p_u, policy.p_r]))
    return x, policy.transfers.copy()


def inverse_transform_policy(x_tilde, transfers, M: int) -> Policy:
    """Inverse of transform_policy."""
    x_tilde = np.asarray(x_tilde, dtype=float)
    p = np.exp(x_tilde)
    return Policy(p_u=p[:M], p_r=p[M:], transfers=np.array(transfers))


def soft_values_scaled(problem, z):
    """Every soft constraint row of an EEProblem at z, divided by its
    class's phase-1 scale; all negative means strictly inside."""
    return np.concatenate([g / problem.soft_sigma[cls]
                           for cls, g in problem.constraint_values(z)])


# ---------------------------------------------------------------------------
# oracles: closed forms the package computes inline


def per_link_outage_approx(p, c, m):
    """Dominant small-outage monomial c * p**(-m).

    Not clamped to [0, 1]; values above one simply mean the approximation
    is outside its validity region.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("transmit power must be > 0")
    return c * p ** (-m)


def per_user_outage_product(pe_user, pe_relay, groups):
    """Exact per-user outage of plain relaying, shape (M, K): user i's
    message is lost iff each relay j of groups[i] fails to decode it
    (pe_user[i, j]) or decodes and fails to forward (pe_relay[j]), the
    product over its relays of pe_u + (1 - pe_u) * pe_r."""
    return np.array([np.prod(pe_user[i, relays] + (1.0 - pe_user[i, relays])
                             * pe_relay[relays], axis=0)
                     for i, relays in enumerate(groups)])


# ---------------------------------------------------------------------------
# oracles: the monomial tables expanded relay subset by relay subset


def _oracle_table(rows: dict, M: int, N: int, m: float) -> MonomialTable:
    """Table of {exponent count tuple: coefficient}, rows sorted."""
    if not rows:
        return MonomialTable(coef=np.zeros(0), w=np.zeros((0, M + N)),
                             M=M, N=N, m=m)
    keys = sorted(rows.keys())
    coef = np.array([rows[k] for k in keys], dtype=float)
    return MonomialTable(coef=coef, w=-m * np.array(keys, dtype=float),
                         M=M, N=N, m=m)


def expanded_outage_tables(coeffs, M, N):
    """(A part, B part) of the approximate outage, expanded term by term.

    A: fewer than M relays (the set phi) decode; every other relay j is
    charged one user's first-hop monomial c_u[i, j] * p_i**-m.  B: at least
    M decode, and the decoders outside the forwarding set psi (fewer than
    M) are charged c_r[j] * q_j**-m.
    """
    c_u, c_r, m = coeffs.c_u, coeffs.c_r, coeffs.m

    def first_hop_terms(others):
        for assign in product(range(M), repeat=len(others)):
            coef = 1.0
            counts = [0] * M
            for j, i in zip(others, assign):
                coef *= c_u[i, j]
                counts[i] += 1
            yield coef, tuple(counts)

    rows_A = {}
    for n in range(0, min(M - 1, N) + 1):
        for phi in combinations(range(N), n):
            others = [j for j in range(N) if j not in phi]
            for coef, u_counts in first_hop_terms(others):
                key = u_counts + (0,) * N
                rows_A[key] = rows_A.get(key, 0.0) + coef

    rows_B = {}
    for n in range(M, N + 1):
        for phi in combinations(range(N), n):
            others = [j for j in range(N) if j not in phi]
            second = []
            for tau in range(0, M):
                for psi_pos in combinations(range(n), tau):
                    coef2 = 1.0
                    r_counts = [0] * N
                    for pos, j in enumerate(phi):
                        if pos not in psi_pos:
                            coef2 *= c_r[j]
                            r_counts[j] += 1
                    second.append((coef2, tuple(r_counts)))
            for coef1, u_counts in first_hop_terms(others):
                for coef2, r_counts in second:
                    key = u_counts + r_counts
                    rows_B[key] = rows_B.get(key, 0.0) + coef1 * coef2

    return (_oracle_table(rows_A, M, N, m), _oracle_table(rows_B, M, N, m))


def expanded_per_user_tables(coeffs, groups, M, N):
    """Per-user tables of plain relaying: user i's product over its relays
    group[i] of (c_u[i, j] * p_i**-m + c_r[j] * q_j**-m), expanded into
    its 2**len(group) monomials."""
    tables = []
    for i, assigned in enumerate(groups):
        rows = {}
        for decode_fails in product([True, False], repeat=len(assigned)):
            coef = 1.0
            u_cnt = [0] * M
            r_cnt = [0] * N
            for j, failed in zip(assigned, decode_fails):
                if failed:
                    coef *= coeffs.c_u[i, j]
                    u_cnt[i] += 1
                else:
                    coef *= coeffs.c_r[j]
                    r_cnt[j] += 1
            key = tuple(u_cnt) + tuple(r_cnt)
            rows[key] = rows.get(key, 0.0) + coef
        tables.append(_oracle_table(rows, M, N, coeffs.m))
    return tables


# ---------------------------------------------------------------------------
# oracles: solver steps the package batches


def uniform_outage_level_sequential(problem):
    """EEProblem._uniform_outage_level as its plain bisection: 60 steps,
    each one single-level table call."""
    cfg = problem.config
    target = 0.5 * cfg.pr_out_0

    def worst(xval):
        x = np.full(cfg.M + cfg.N, xval)
        return max(float(t.value(x)) for t in problem.tables)

    lo = math.log(10.0 * P_MIN)
    hi = math.log(0.999 * cfg.p_max)
    if worst(hi) > target:
        return hi
    if worst(lo) <= target:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if worst(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi
