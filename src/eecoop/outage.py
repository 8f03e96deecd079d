"""Exact and small-outage approximate outage probabilities.

The network delivers all M user messages in a period when at least M relays
both decode every user message (first hop) and get their network-coded
codeword through to the destination (second hop).  Outage therefore splits
into two disjoint events:

  A: fewer than M relays decode all messages,
  B: at least M relays decode, but fewer than M of them forward successfully.

The exact expressions enumerate relay subsets.  The approximate expressions
replace every per-link outage with its dominant monomial c * p**(-m), drop
factors that tend to one, and expand everything into a sum of monomials in
the transmit powers.  That sum-of-exponentials form (in log-power
coordinates) is what the convex solver consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np
from scipy.special import gammainc

from .model import LinkCoefficients, Policy, ScenarioConfig, snr_gap

# Exact subset enumeration is exponential in the number of relays.
MAX_RELAYS_EXACT = 20
# Guard on the expanded monomial table size for the approximate form.
MAX_TABLE_TERMS = 2_000_000


@dataclass(frozen=True)
class SubsetTables:
    """Precomputed relay-subset enumeration for one (M, N) pair.

    phis[n] lists every n-subset of range(N).  psi_positions[n][tau] lists
    every tau-subset of range(n) as positions into a size-n subset, so the
    same template serves every decode set of that size.
    """

    M: int
    N: int
    phis: tuple        # phis[n] = tuple of index tuples, n = 0..N
    psi_positions: tuple  # psi_positions[n][tau] = tuple of position tuples


@lru_cache(maxsize=None)
def subset_tables(M: int, N: int) -> SubsetTables:
    if N > MAX_RELAYS_EXACT:
        raise ValueError(
            f"exact outage enumeration supports at most {MAX_RELAYS_EXACT} "
            f"relays, got N={N}")
    if M < 1 or N < 1:
        raise ValueError("M and N must be >= 1")
    phis = tuple(tuple(combinations(range(N), n)) for n in range(N + 1))
    psi = []
    for n in range(N + 1):
        per_tau = tuple(tuple(combinations(range(n), tau))
                        for tau in range(min(M - 1, n) + 1))
        psi.append(per_tau)
    return SubsetTables(M=M, N=N, phis=phis, psi_positions=tuple(psi))


def per_link_outage_exact(p: float, *, m: float, alpha0: float, B: float,
                          N0: float, d: float, beta: float,
                          omega: float) -> float:
    """Exact single-link outage probability at transmit power p (W).

    The squared envelope is gamma distributed with shape m and mean omega;
    the link is in outage when B*log2(1 + gain * p / (N0 * B)) < alpha0.
    Evaluates the regularized lower incomplete gamma at
    b = m * (2**(alpha0/B) - 1) * N0 * B / (d**(-beta) * omega * p).
    """
    if not p > 0.0:
        raise ValueError(f"transmit power must be > 0, got {p}")
    gap = 2.0 ** (alpha0 / B) - 1.0
    b = m * gap * N0 * B / (d ** (-beta) * omega * p)
    return float(gammainc(m, b))


def per_link_outage_approx(p, c, m):
    """Dominant small-outage monomial c * p**(-m).

    Not clamped to [0, 1]; values above one simply mean the approximation
    is outside its validity region.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("transmit power must be > 0")
    return c * p ** (-m)


def relay_decode_prob(pe_user):
    """Probability each relay decodes all M messages.

    pe_user has shape (..., M, N); the product runs over the user axis.
    """
    pe_user = np.asarray(pe_user, dtype=float)
    if np.any(pe_user < 0.0) or np.any(pe_user > 1.0):
        raise ValueError("per-link outage probabilities must lie in [0, 1]")
    return np.prod(1.0 - pe_user, axis=-2)


def network_outage_exact(rho, pe_relay, M: int):
    """Exact per-period network outage from relay statistics.

    rho[j] is the probability relay j decodes all M messages, pe_relay[j]
    the probability its forwarded codeword fails.  Returns
    (pr_out, pr_A, pr_B).  Summation is compensated so that values far
    below one keep full relative accuracy.
    """
    rho = np.asarray(rho, dtype=float)
    pe_relay = np.asarray(pe_relay, dtype=float)
    if rho.ndim != 1 or rho.shape != pe_relay.shape:
        raise ValueError("rho and pe_relay must be 1-D with equal length")
    if np.any((rho < 0) | (rho > 1)) or np.any((pe_relay < 0) | (pe_relay > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    N = rho.shape[0]
    tables = subset_tables(M, N)
    one_minus_rho = 1.0 - rho
    ok_fwd = 1.0 - pe_relay

    terms_A = []
    for n in range(0, min(M - 1, N) + 1):
        for phi in tables.phis[n]:
            term = 1.0
            in_phi = np.zeros(N, dtype=bool)
            for j in phi:
                in_phi[j] = True
            for j in range(N):
                term *= rho[j] if in_phi[j] else one_minus_rho[j]
            terms_A.append(term)
    pr_A = math.fsum(terms_A)

    terms_B = []
    for n in range(M, N + 1):
        for phi in tables.phis[n]:
            in_phi = np.zeros(N, dtype=bool)
            for j in phi:
                in_phi[j] = True
            first = 1.0
            for j in range(N):
                first *= rho[j] if in_phi[j] else one_minus_rho[j]
            # Probability that fewer than M of the n decoders forward.
            for tau in range(0, M):
                for psi_pos in tables.psi_positions[n][tau]:
                    second = 1.0
                    psi_set = set(psi_pos)
                    for pos, j in enumerate(phi):
                        second *= ok_fwd[j] if pos in psi_set else pe_relay[j]
                    terms_B.append(first * second)
    pr_B = math.fsum(terms_B)
    return pr_A + pr_B, pr_A, pr_B


def network_outage_exact_batch(rho, pe_relay, M: int):
    """Vectorized exact outage over leading batch axes.

    rho and pe_relay have shape (..., N).  Returns pr_out with shape (...).
    Used by grid oracles; the scalar routine above is the reference.
    """
    rho = np.asarray(rho, dtype=float)
    pe_relay = np.asarray(pe_relay, dtype=float)
    N = rho.shape[-1]
    tables = subset_tables(M, N)
    one_minus_rho = 1.0 - rho
    ok_fwd = 1.0 - pe_relay

    out = np.zeros(rho.shape[:-1])
    for n in range(0, min(M - 1, N) + 1):
        for phi in tables.phis[n]:
            term = np.ones(rho.shape[:-1])
            for j in range(N):
                term = term * (rho[..., j] if j in phi else one_minus_rho[..., j])
            out += term
    for n in range(M, N + 1):
        for phi in tables.phis[n]:
            first = np.ones(rho.shape[:-1])
            for j in range(N):
                first = first * (rho[..., j] if j in phi else one_minus_rho[..., j])
            fail_lt_M = np.zeros(rho.shape[:-1])
            for tau in range(0, M):
                for psi_pos in tables.psi_positions[n][tau]:
                    second = np.ones(rho.shape[:-1])
                    psi_set = set(psi_pos)
                    for pos, j in enumerate(phi):
                        second = second * (ok_fwd[..., j] if pos in psi_set
                                           else pe_relay[..., j])
                    fail_lt_M += second
            out += first * fail_lt_M
    return out


@dataclass(frozen=True)
class MonomialTable:
    """Posynomial in the M user powers and N relay powers of one period.

    value(p) = sum_s coef[s] * prod_i p_i**(-m*e_u[s,i])
                             * prod_j q_j**(-m*e_r[s,j])
    stored through w = -m * [e_u, e_r] so that in log-power coordinates
    x = log p the value is coef @ exp(w @ x), a convex sum of exponentials
    with strictly positive coefficients.
    """

    coef: np.ndarray  # (S,) > 0
    w: np.ndarray     # (S, M+N) exponents of exp(w @ x)
    M: int
    N: int
    m: float

    def __post_init__(self):
        if np.any(self.coef <= 0.0):
            raise AssertionError("posynomial coefficients must be positive")

    @property
    def n_terms(self) -> int:
        return self.coef.shape[0]

    def _exponents(self, x):
        """w @ x per period: (S,) for x (M+N,), (K, S) for x (M+N, K).

        Stacked products run one matrix-vector product per period, so a
        column of a batched call rounds exactly like the call on that
        column alone.
        """
        x = np.asarray(x, dtype=float)
        return np.matmul(self.w, x.T[..., None])[..., 0]

    def value(self, x):
        """x = log powers, shape (M+N,) or (M+N, K) column-wise."""
        with np.errstate(over="ignore"):
            e = np.exp(self._exponents(x))
        return np.matmul(e[..., None, :], self.coef[:, None])[..., 0, 0]

    def value_grad(self, x):
        with np.errstate(over="ignore"):
            t = self.coef * np.exp(self.w @ np.asarray(x, dtype=float))
        return float(t.sum()), self.w.T @ t

    def value_grad_hess(self, x):
        """Value, gradient and Hessian at log powers x.

        x of shape (M+N,) gives (float, (M+N,), (M+N, M+N)); x of shape
        (M+N, K) gives every period at once: values (K,), gradients
        (M+N, K) column-wise, Hessians (K, M+N, M+N).
        """
        with np.errstate(over="ignore"):
            t = self.coef * np.exp(self._exponents(x))
        grad = np.matmul(self.w.T, t[..., None])[..., 0]
        # period by period: a (K, S, M+N) temporary would grow with K
        hess = np.array([self.w.T @ (t_k[:, None] * self.w)
                         for t_k in np.atleast_2d(t)])
        if t.ndim == 1:
            return float(t.sum()), grad, hess[0]
        return t.sum(axis=-1), grad.T, hess

    def hvp(self, x, v):
        """Hessian-vector product at log powers x."""
        with np.errstate(over="ignore"):
            t = self.coef * np.exp(self.w @ np.asarray(x, dtype=float))
        return self.w.T @ (t * (self.w @ np.asarray(v, dtype=float)))


def _merge_terms(rows: dict, M: int, N: int, m: float) -> MonomialTable:
    if not rows:
        return MonomialTable(coef=np.zeros(0), w=np.zeros((0, M + N)),
                             M=M, N=N, m=m)
    keys = sorted(rows.keys())
    coef = np.array([rows[k] for k in keys], dtype=float)
    counts = np.array(keys, dtype=float)
    return MonomialTable(coef=coef, w=-m * counts, M=M, N=N, m=m)


def build_outage_tables(coeffs: LinkCoefficients, M: int, N: int):
    """Expand the approximate outage into monomial tables (A part, B part).

    Identical exponent patterns are merged.  Raises when the expansion
    would exceed MAX_TABLE_TERMS raw terms.
    """
    c_u, c_r, m = coeffs.c_u, coeffs.c_r, coeffs.m
    if c_u.shape != (M, N) or c_r.shape != (N,):
        raise ValueError("link coefficient shapes do not match (M, N)")
    tables = subset_tables(M, N)

    raw = 0
    for n in range(0, min(M - 1, N) + 1):
        raw += math.comb(N, n) * M ** (N - n)
    for n in range(M, N + 1):
        inner = sum(math.comb(n, tau) for tau in range(0, M))
        raw += math.comb(N, n) * M ** (N - n) * inner
    if raw > MAX_TABLE_TERMS:
        raise ValueError(
            f"approximate outage expansion needs {raw} terms, above the "
            f"{MAX_TABLE_TERMS} limit; reduce M or N")

    def first_hop_terms(others):
        """All ways the relays in `others` fail: per relay one user's
        monomial is charged.  Yields (coef, user count vector)."""
        if not others:
            yield 1.0, (0,) * M
            return
        for assign in product(range(M), repeat=len(others)):
            coef = 1.0
            counts = [0] * M
            for j, i in zip(others, assign):
                coef *= c_u[i, j]
                counts[i] += 1
            yield coef, tuple(counts)

    rows_A = {}
    for n in range(0, min(M - 1, N) + 1):
        for phi in tables.phis[n]:
            others = [j for j in range(N) if j not in phi]
            for coef, u_counts in first_hop_terms(others):
                key = u_counts + (0,) * N
                rows_A[key] = rows_A.get(key, 0.0) + coef

    rows_B = {}
    for n in range(M, N + 1):
        for phi in tables.phis[n]:
            others = [j for j in range(N) if j not in phi]
            second = []
            for tau in range(0, M):
                for psi_pos in tables.psi_positions[n][tau]:
                    psi_set = set(psi_pos)
                    coef2 = 1.0
                    r_counts = [0] * N
                    for pos, j in enumerate(phi):
                        if pos not in psi_set:
                            coef2 *= c_r[j]
                            r_counts[j] += 1
                    second.append((coef2, tuple(r_counts)))
            for coef1, u_counts in first_hop_terms(others):
                for coef2, r_counts in second:
                    key = u_counts + r_counts
                    rows_B[key] = rows_B.get(key, 0.0) + coef1 * coef2

    return (_merge_terms(rows_A, M, N, m), _merge_terms(rows_B, M, N, m))


@lru_cache(maxsize=32)
def _cached_tables(cu_flat, cr_flat, m, M, N):
    c_u = np.array(cu_flat, dtype=float).reshape(M, N)
    c_r = np.array(cr_flat, dtype=float)
    return build_outage_tables(LinkCoefficients(c_u=c_u, c_r=c_r, m=m), M, N)


def outage_tables(coeffs: LinkCoefficients, M: int, N: int):
    """Cached table build keyed by coefficient values."""
    return _cached_tables(tuple(coeffs.c_u.ravel().tolist()),
                          tuple(coeffs.c_r.tolist()), coeffs.m, M, N)


def network_outage_approx(p_u, p_r, coeffs: LinkCoefficients):
    """Approximate per-period network outage at powers p_u (M,), p_r (N,).

    Returns (pr_out, pr_A, pr_B).  Values are the raw posynomials and may
    exceed one outside the small-outage regime; they are deliberately not
    clamped so that the solver sees the true monomial landscape.
    """
    p_u = np.asarray(p_u, dtype=float)
    p_r = np.asarray(p_r, dtype=float)
    if np.any(p_u <= 0.0) or np.any(p_r <= 0.0):
        raise ValueError("approximate outage needs strictly positive powers")
    M, N = coeffs.c_u.shape
    table_A, table_B = outage_tables(coeffs, M, N)
    x = np.log(np.concatenate([p_u, p_r]))
    pr_A = float(table_A.value(x))
    pr_B = float(table_B.value(x))
    return pr_A + pr_B, pr_A, pr_B


def outage_value_grad_hess(x, coeffs: LinkCoefficients):
    """Approximate outage as a function of log powers x = log [p_u, p_r].

    Returns (value, gradient, hvp) where hvp(v) applies the Hessian.  The
    Hessian is positive semidefinite because the value is a positively
    weighted sum of exponentials of linear forms.
    """
    M, N = coeffs.c_u.shape
    x = np.asarray(x, dtype=float)
    if x.shape != (M + N,):
        raise ValueError(f"x must have shape ({M + N},)")
    table_A, table_B = outage_tables(coeffs, M, N)
    vA, gA = table_A.value_grad(x)
    vB, gB = table_B.value_grad(x)

    def hvp(v):
        return table_A.hvp(x, v) + table_B.hvp(x, v)

    return vA + vB, gA + gB, hvp


@dataclass
class OutageReport:
    """Per-period outage summary for a full policy.

    In exact mode every field is a probability.  In approximate mode the
    per-link entries are the raw monomials and pr_A/pr_B the raw
    posynomials, which may exceed one; rho is then clamped at zero and
    purely informational.
    """

    mode: str              # "exact" or "approx"
    pr_out: np.ndarray     # (K,)
    pr_A: np.ndarray       # (K,)
    pr_B: np.ndarray       # (K,)
    pe_user: np.ndarray    # (M, N, K)
    pe_relay: np.ndarray   # (N, K)
    rho: np.ndarray        # (N, K)


def link_b_factors(config: ScenarioConfig):
    """Numerators of the incomplete-gamma argument: b = factor / p."""
    gap = snr_gap(config)
    f_u = config.m * gap * config.N0_h * config.B / (
        config.d_h ** (-config.beta_h) * config.omega_h)
    f_r = config.m * gap * config.N0_g * config.B / (
        config.d_g ** (-config.beta_g) * config.omega_g)
    return f_u, f_r


def network_outage_report(config: ScenarioConfig, policy: Policy,
                          mode: str = "exact",
                          coeffs: LinkCoefficients = None) -> OutageReport:
    """Evaluate per-period outage for a policy, exactly or approximately.

    Exact mode accepts relay powers equal to zero (the relay never forwards,
    so its link outage is one).  Approximate mode requires strictly positive
    powers everywhere.
    """
    M, N, K = config.M, config.N, config.K
    if policy.p_u.shape != (M, K) or policy.p_r.shape != (N, K):
        raise ValueError("policy does not match scenario dimensions")
    if np.any(policy.p_u <= 0.0):
        raise ValueError("user powers must be strictly positive")

    if mode == "exact":
        f_u, f_r = link_b_factors(config)
        b_u = f_u[:, :, None] / policy.p_u[:, None, :]
        pe_user = gammainc(config.m, b_u)
        rho = np.prod(1.0 - pe_user, axis=0)
        pe_relay = np.ones((N, K))
        on = policy.p_r > 0.0
        if np.any(policy.p_r < 0.0):
            raise ValueError("relay powers must be >= 0")
        b_r = np.divide(f_r[:, None], policy.p_r, out=np.full((N, K), np.inf),
                        where=on)
        pe_relay[on] = gammainc(config.m, b_r[on])
        pr_out = np.empty(K)
        pr_A = np.empty(K)
        pr_B = np.empty(K)
        for k in range(K):
            pr_out[k], pr_A[k], pr_B[k] = network_outage_exact(
                rho[:, k], pe_relay[:, k], M)
        return OutageReport(mode="exact", pr_out=pr_out, pr_A=pr_A, pr_B=pr_B,
                            pe_user=pe_user, pe_relay=pe_relay, rho=rho)

    if mode == "approx":
        if np.any(policy.p_r <= 0.0):
            raise ValueError("approximate mode needs strictly positive "
                             "relay powers")
        if coeffs is None:
            from .model import compute_link_coefficients
            coeffs = compute_link_coefficients(config)
        pe_user = coeffs.c_u[:, :, None] * policy.p_u[:, None, :] ** (-config.m)
        pe_relay = coeffs.c_r[:, None] * policy.p_r ** (-config.m)
        rho = np.prod(np.maximum(1.0 - pe_user, 0.0), axis=0)
        pr_out = np.empty(K)
        pr_A = np.empty(K)
        pr_B = np.empty(K)
        for k in range(K):
            pr_out[k], pr_A[k], pr_B[k] = network_outage_approx(
                policy.p_u[:, k], policy.p_r[:, k], coeffs)
        return OutageReport(mode="approx", pr_out=pr_out, pr_A=pr_A,
                            pr_B=pr_B, pe_user=pe_user, pe_relay=pe_relay,
                            rho=rho)

    raise ValueError(f"unknown outage mode {mode!r}")
