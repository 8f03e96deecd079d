"""Exact and small-outage approximate network outage probabilities.

The network delivers all M user messages in a period when at least M relays
both decode every user message (first hop) and get their network-coded
codeword through to the destination (second hop).  Outage therefore splits
into two disjoint events:

  A: fewer than M relays decode all messages,
  B: at least M relays decode, but fewer than M of them forward successfully.

Both forms come from one recursion over relays: relay by relay it updates
the distribution of how many relays decode and how many of those forward,
each count capped at M, so A and B are read off its states.  The exact
form runs it on per-link outages from model.link_outage.  The
approximate form replaces every per-link outage with its dominant monomial
c * p**(-m) and every success probability with one, and runs the recursion
on posynomials into a sum of monomials in the transmit powers.  That
sum-of-exponentials form (in log-power coordinates) is what the convex
solver consumes.

Each table gets one evaluator when it is built, chosen from its closed-form
term count (_term_count).  A table of at most RECURSION_MIN_TERMS terms is
expanded and evaluated term by term, at O(terms) per period.  A larger one
is never expanded: OutageRecursion runs the relay recursion on float
weights instead, O(N M^2) per period at any table size, after a fixed cost
of about 0.1 ms per call.  Per call at K = 4 periods, terms vs recursion
(best of 25 interleaved rounds, 2 vCPUs, NumPy 2.4.6, every period's term
Hessians in one stacked product):

  (M, N)   terms   value/grad/Hessian     value
  (2, 4)      64    0.02 vs 0.11 ms   0.009 vs 0.034 ms
  (4, 6)   1,021    0.14 vs 0.18 ms   0.029 vs 0.049 ms
  (2, 8)   2,240    0.29 vs 0.17 ms   0.055 vs 0.047 ms
  (3, 8)   7,408    1.17 vs 0.19 ms   0.17  vs 0.054 ms

A table may cover a sub-network only, a group of users and the relays that
serve them.  Plain decode-and-forward relaying is such a table: user i and
the relays assigned to it form a one-user network, whose A+B event, every
relay failing to decode or to forward, is the product over its relays of
(f_j + g_j).  The table reads only the group's rows of the log powers, and
its derivatives are zero outside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (LinkCoefficients, Policy, ScenarioConfig,
                    compute_link_coefficients, link_b_factors, link_outage)

# Tables with more terms than this are never expanded and evaluate by
# OutageRecursion, smaller ones term by term.  A line-search trial is one
# value/gradient/Hessian call, whose cost crosses between 1,021 and 2,240
# terms at K = 4 periods, near 1,000 at K = 10 and between 2,704 and
# 3,831 at K = 1.
RECURSION_MIN_TERMS = 2000


def relay_recursion(weights, P):
    """Fold relays into the (decoders, forwarders) distribution P.

    weights yields per relay the weights (miss, dec, fwd) of failing to
    decode, of decoding without forwarding, and of forwarding.  P[d, f],
    shape (M + 1, M, ...), starts as one at [0, 0] and zero elsewhere and
    holds d decoders (d = M: at least M), f < M of them forwarding; mass
    reaching M forwarders is delivered and dropped.  Returns the sums over
    d < M (event A) and d = M (event B).  Only + and * are applied.
    """
    M = P.shape[1]
    for miss, dec, fwd in weights:
        # rows from the top down, so row d - 1 still holds the old values
        for d in range(M, 0, -1):
            row = P[d] * miss
            row += P[d - 1] * dec
            row[1:] += P[d - 1, :-1] * fwd
            if d == M:  # at least M decoders stay at least M
                row += P[M] * dec
                row[1:] += P[M, :-1] * fwd
            P[d] = row
        P[0] *= miss
    return P[:M].sum(axis=(0, 1)), P[M].sum(axis=0)


def relay_miss_prob(pe_user):
    """Probability each relay misses at least one user message.

    pe_user[i] is user i's per-link outage to the relays: an array with
    users on axis 0, or a list of per-user arrays that broadcast.  The
    miss 1 - prod_i(1 - pe_user[i]) is formed as -expm1(sum_i
    log1p(-pe_user[i])), so it keeps full relative accuracy when every
    per-link outage is tiny; a per-link outage of one gives log1p(-1) =
    -inf and a miss of one.
    """
    with np.errstate(divide="ignore"):
        log_ok = sum(np.log1p(-np.asarray(pe, dtype=float))
                     for pe in pe_user)
    return 0.0 - np.expm1(log_ok)     # 0.0 - keeps an exact zero unsigned


def network_outage_exact(miss, pe_relay, M: int):
    """Exact network outage from relay statistics, batched over periods.

    miss[j] is the probability relay j fails to decode some message (see
    relay_miss_prob), pe_relay[j] the probability its forwarded codeword
    fails; both have shape (N, ...) with the relay on axis 0.  Returns
    (pr_out, pr_A, pr_B) over the trailing axes.

    relay_recursion joins relays one at a time to the joint distribution
    of (decoders, relays that decode and forward), each count capped at
    M.  That is O(N M^2) per period, and
    every state probability is a sum of products of probabilities, so
    values far below one keep full relative accuracy: pr_A, a sum of
    products of misses, as far as the misses themselves do.
    """
    miss = np.asarray(miss, dtype=float)
    pe_relay = np.asarray(pe_relay, dtype=float)
    if miss.ndim < 1 or miss.shape != pe_relay.shape:
        raise ValueError("miss and pe_relay must share a shape (N, ...)")
    if np.any((miss < 0) | (miss > 1)) or np.any((pe_relay < 0)
                                                 | (pe_relay > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    if M < 1:
        raise ValueError("M must be >= 1")
    P = np.zeros((M + 1, M) + miss.shape[1:])
    P[0, 0] = 1.0
    pr_A, pr_B = relay_recursion(
        ((u, (1.0 - u) * e, (1.0 - u) * (1.0 - e))
         for u, e in zip(miss, pe_relay)), P)
    # pr_A + pr_B <= 1 in exact arithmetic, not always once rounded
    return np.minimum(pr_A + pr_B, 1.0), pr_A, pr_B


def _term_count(M: int, N: int, event: str) -> int:
    """Terms of the merged table of event A or B, without expanding it.

    A term multiplies one user monomial per relay that misses a decode, s
    of them, into one of C(s + M - 1, M - 1) user exponent rows, and B's
    terms also pick the r relays that decode but fail to forward.  A
    needs s > N - M; B needs s <= N - M and N - r - s < M.
    """
    def rows(s):
        return math.comb(s + M - 1, M - 1)
    if event == "A":
        return sum(rows(s) for s in range(max(0, N - M + 1), N + 1))
    return sum(math.comb(N, r) * rows(s) for r in range(N + 1)
               for s in range(max(0, N - r - M + 1), min(N - r, N - M) + 1))


def _transfer_patterns(M: int):
    """relay_recursion as matrices on the (M + 1) * M states, flattened.

    Returns (E, read): E[t] @ state folds in one relay whose (miss, dec,
    fwd) weights are the unit vector t, and read[0] @ state, read[1] @
    state are the sums relay_recursion returns for events A and B.  Both
    come from running relay_recursion on identity states, so its rules
    have no second copy.
    """
    S = (M + 1) * M
    eye = np.eye(S).reshape(M + 1, M, S)
    read = np.stack(relay_recursion((), eye.copy()))
    P = np.repeat(eye[..., None], 3, axis=-1)
    relay_recursion([tuple(np.eye(3))], P)
    E = np.ascontiguousarray(P.reshape(S, S, 3).transpose(2, 0, 1))
    return E, read


class OutageRecursion:
    """Approximate outage of one network by the relay recursion on floats.

    Evaluates the sum of the events A and/or B, n_terms monomials in all,
    straight from the link coefficients without expanding them: relay j
    weighs f_j = sum_i c_u[i, j] * p_i**-m and g_j = c_r[j] * q_j**-m, A
    runs on (f_j, 1, 0) and B on (f_j, g_j, 1).  With T_j the relay's
    transfer matrix, the value is read(T_N ... T_1 e_0), O(N M^2) per
    period at any table size.  It is multilinear in the relays' weights:
    prefix states a_j and suffix rows b_j give the first derivatives, and
    E_t a_j pushed through relays j+1..l-1 the pairwise second ones; the
    chain rule through f and g gives the Hessian in x = log powers.

    x, values, gradients and Hessians have MonomialTable's layouts.  Every
    product that sums runs per period (stacked matrix products), except
    the exact-up-to-one-rounding build of T, so a column of a batched call
    rounds exactly like the call on that column alone.  A weight or state
    that overflows reads as an infinite value, as the terms would.

    The network may be a group of a larger one's users and relays: coeffs
    are then the group's, x has width rows, of which the group's are
    x_rows, its users then its relays, and derivatives are zero outside
    them.
    """

    def __init__(self, coeffs: LinkCoefficients, events, x_rows, width):
        self.c_u, self.c_r, self.m = coeffs.c_u, coeffs.c_r, coeffs.m
        self.M, self.N = self.c_u.shape
        self.x_rows, self.width = x_rows, width
        self.user_rows, self.relay_rows = x_rows[:self.M], x_rows[self.M:]
        self.events = tuple(events)
        self.n_terms = sum(_term_count(self.M, self.N, e)
                           for e in self.events)
        E, read = _transfer_patterns(self.M)
        S = E.shape[-1]
        self.E = E.reshape(3, S * S)
        # b @ rows = (b E_miss, b E_dec); cols @ a = (E_miss a, E_dec a)
        self.rows = np.hstack([E[0], E[1]])
        self.cols = np.vstack([E[0], E[1]])
        self.read = read[["AB".index(e) for e in self.events]][:, None, None]
        # the constant parts of the (miss, dec, fwd) weights: A's (f, 1, 0)
        # and B's (f, g, 1); f and g are set per call
        self.fixed = np.array([[0.0, 1.0, 0.0] if e == "A" else [0.0, 0.0, 1.0]
                               for e in self.events])[:, None]
        self.with_g = np.array([e == "B" for e in self.events])

    def _transfers(self, x):
        """Transfer matrices T[j] of relay j, shape (N, events, K, S, S),
        the per-user terms c_u[i, j] * p_i**-m of f as (K, N, M), and g as
        (K, N).  E's entries are 0 or 1 and at most two of them are
        nonzero for a state pair, so T is exact up to one rounding however
        the product sums."""
        M, N, m = self.M, self.N, self.m
        xk = np.asarray(x, dtype=float).reshape(self.width, -1)[self.x_rows].T
        fu = self.c_u.T * np.exp(-m * xk[:, None, :M])
        g = self.c_r * np.exp(-m * xk[:, M:])
        w = np.empty((N, len(self.events), len(xk), 3))
        w[...] = self.fixed
        w[..., 0] = fu.sum(axis=-1).T[:, None]
        w[:, self.with_g, :, 1] = g.T
        S = self.rows.shape[0]
        return (w @ self.E).reshape(w.shape[:3] + (S, S)), fu, g

    @staticmethod
    def _prefix(T):
        """States a[j] before relay j, a[N] after the last."""
        a = np.zeros((T.shape[0] + 1,) + T.shape[1:-1] + (1,))
        a[0, ..., 0, 0] = 1.0
        for j, T_j in enumerate(T):
            np.matmul(T_j, a[j], out=a[j + 1])
        return a

    def _read(self, a):
        v = (self.read @ a[-1])[..., 0, 0].sum(axis=0)
        # a sum of products of positive weights is nan only once a weight
        # or state overflowed (inf * 0 in the transfer products)
        v[np.isnan(v)] = np.inf
        return v

    def value(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            v = self._read(self._prefix(self._transfers(x)[0]))
        return float(v[0]) if np.ndim(x) == 1 else v

    def value_grad_hess(self, x):
        N, m, width = self.N, self.m, self.width
        with np.errstate(over="ignore", invalid="ignore"):
            T, fu, g = self._transfers(x)
            _, P, K, S, _ = T.shape
            a = self._prefix(T)
            v = self._read(a)
            b = np.empty((N + 1, P, K, 1, S))
            b[N] = self.read
            for j in range(N - 1, -1, -1):
                np.matmul(b[j + 1], T[j], out=b[j])
            # R[j, ..., t, :] differentiates by relay j's weight t (miss,
            # dec); d1 and d2 take the weights in the order 2j + t
            R = (b[1:] @ self.rows).reshape(N, P, K, 2, S)
            d1 = (R @ a[:N]).transpose(1, 2, 4, 0, 3).reshape(P, K, 1, 2 * N)
            start = (self.cols @ a[:N]).reshape(N, P, K, 2, S)
            # W[..., 2j + t] holds E_t a[j] pushed through relays j+1..l-1
            W = np.zeros((P, K, S, 2 * N))
            d2 = np.zeros((N, P, K, 2, 2 * N))
            for l in range(N):
                if l:
                    np.matmul(R[l], W, out=d2[l])
                    W = T[l] @ W
                W[..., 2 * l:2 * l + 2] = start[l].transpose(0, 1, 3, 2)
            d2 = d2.transpose(1, 2, 0, 3, 4).reshape(P, K, 2 * N, 2 * N)
            # Jacobian of the weights in x; A's dec weight is the constant 1
            J = np.zeros((P, K, N, 2, width))
            J[:, :, :, 0, self.user_rows] = -m * fu
            J_g = np.zeros((K, N, width))
            J_g[:, np.arange(N), self.relay_rows] = -m * g
            J[self.with_g, :, :, 1] = J_g
            J = J.reshape(P, K, 2 * N, width)
            grad = (d1 @ J)[:, :, 0].sum(axis=0)
            G = (J.transpose(0, 1, 3, 2) @ (d2 @ J)).sum(axis=0)
            # every weight is a sum of single-power monomials p**-m, whose
            # second derivative in log p is -m times the first
            H = G + G.transpose(0, 2, 1)
            H[:, np.arange(width), np.arange(width)] -= m * grad
        if np.ndim(x) == 1:
            return float(v[0]), grad[0], H[0]
        return v, grad.T, H


@dataclass(frozen=True)
class MonomialTable:
    """Posynomial in the M user powers and N relay powers of one period.

    value(p) = sum_s coef[s] * prod_i p_i**(-m*e_u[s,i])
                             * prod_j q_j**(-m*e_r[s,j])
    stored through w = -m * [e_u, e_r] so that in log-power coordinates
    x = log p the value is coef @ exp(w @ x), a convex sum of exponentials
    with strictly positive coefficients.

    A table holds its terms or, when built too large to expand, the
    OutageRecursion that evaluates the same sum in O(N M^2) per period;
    value and value_grad_hess use whichever it holds.
    """

    coef: np.ndarray  # (S,) > 0, None with a recursion
    w: np.ndarray     # (S, M+N) exponents of exp(w @ x), None likewise
    M: int
    N: int
    m: float
    recursion: OutageRecursion = None

    def __post_init__(self):
        if self.recursion is None and np.any(self.coef <= 0.0):
            raise AssertionError("posynomial coefficients must be positive")

    @property
    def n_terms(self) -> int:
        if self.recursion is not None:
            return self.recursion.n_terms
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
        if self.recursion is not None:
            return self.recursion.value(x)
        with np.errstate(over="ignore"):
            return (self.coef * np.exp(self._exponents(x))).sum(axis=-1)

    def value_grad_hess(self, x):
        """Value, gradient and Hessian at log powers x.

        x of shape (M+N,) gives (float, (M+N,), (M+N, M+N)); x of shape
        (M+N, K) gives every period at once: values (K,), gradients
        (M+N, K) column-wise, Hessians (K, M+N, M+N).
        """
        if self.recursion is not None:
            return self.recursion.value_grad_hess(x)
        with np.errstate(over="ignore"):
            t = self.coef * np.exp(self._exponents(x))
        grad = np.matmul(self.w.T, t[..., None])[..., 0]
        # every period in one stacked product; its (K, M+N, S) temporary
        # is bounded, since a table expands to at most RECURSION_MIN_TERMS
        # terms
        hess = (self.w.T * np.atleast_2d(t)[:, None, :]) @ self.w
        if t.ndim == 1:
            return float(t.sum()), grad, hess[0]
        return t.sum(axis=-1), grad.T, hess


class _Posynomial:
    """Sparse posynomial in the powers of one period: sorted unique int64
    keys that pack exponent counts (_key_layout), so that multiplying
    monomials adds keys, and positive coefficients."""

    def __init__(self, keys, coef):
        self.keys, self.coef = keys, coef

    @classmethod
    def merged(cls, keys, coef):
        keys, inv = np.unique(keys, return_inverse=True)
        return cls(keys, np.bincount(inv, weights=coef, minlength=keys.size))

    def __add__(self, other):
        if not (self.keys.size and other.keys.size):
            return self if self.keys.size else other
        return _Posynomial.merged(np.concatenate([self.keys, other.keys]),
                                  np.concatenate([self.coef, other.coef]))

    def __mul__(self, other):
        if not other.keys.size:
            return other
        if other.keys.size == 1:  # a shift keeps the keys sorted and unique
            return _Posynomial(self.keys + other.keys[0],
                               self.coef * other.coef[0])
        return _Posynomial.merged(np.add.outer(self.keys, other.keys).ravel(),
                                  np.multiply.outer(self.coef,
                                                    other.coef).ravel())


_ZERO = _Posynomial(np.zeros(0, dtype=np.int64), np.zeros(0))
_ONE = _Posynomial(np.zeros(1, dtype=np.int64), np.ones(1))


def _key_layout(M: int, N: int):
    """Radices and per-power place values of the monomial keys: exponent
    counts as mixed-radix digits, users (at most N) then relays (at most
    1), most significant first, so sorted keys are count rows in
    lexicographic order.  Raises ValueError when keys would overflow."""
    dims = (N + 1,) * M + (2,) * N
    return dims, np.ravel_multi_index(tuple(np.eye(M + N, dtype=np.intp)),
                                      dims)


def _recursion_table(coeffs: LinkCoefficients, events, rows,
                     shape) -> MonomialTable:
    return MonomialTable(coef=None, w=None, M=shape[0], N=shape[1],
                         m=coeffs.m, recursion=OutageRecursion(
                             coeffs, events, rows, sum(shape)))


def _expanded_table(coeffs: LinkCoefficients, part, rows,
                    shape) -> MonomialTable:
    """relay_recursion of each event in part run on sparse posynomials;
    an event's rows are merged and sorted lexicographically by exponent
    counts, and A's rows come before B's.  coeffs are a group's, whose
    exponents go to the columns `rows` of a table over the (M, N) = shape
    network."""
    (M, N), m = coeffs.c_u.shape, coeffs.m
    dims, place = _key_layout(M, N)
    f = [_Posynomial.merged(place[:M], coeffs.c_u[:, j]) for j in range(N)]
    g = [_Posynomial(place[M + j:M + j + 1], coeffs.c_r[j:j + 1])
         for j in range(N)]
    sums = []
    for event in part:
        P = np.full((M + 1, M), _ZERO, dtype=object)
        P[0, 0] = _ONE
        weights = (((f_j, _ONE, _ZERO) for f_j in f) if event == "A"
                   else zip(f, g, [_ONE] * N))
        sums.append(relay_recursion(weights, P)["AB".index(event)])
    keys = np.concatenate([s.keys for s in sums])
    w = np.zeros((keys.size, sum(shape)))
    w[:, rows] = -m * np.stack(np.unravel_index(keys, dims), axis=-1)
    return MonomialTable(coef=np.concatenate([s.coef for s in sums]), w=w,
                         M=shape[0], N=shape[1], m=m)


def build_outage_tables(coeffs: LinkCoefficients, M: int, N: int,
                        parts=("A", "B"), group=None):
    """Monomial tables of the approximate outage, one per part.

    A part is "A", "B" or "AB", the sum of both, which loses all M
    messages of a period.  Relay j misses a decode with f_j = sum_i
    c_u[i, j] * p_i**-m and fails to forward with g_j = c_r[j] * q_j**-m.
    A is relay_recursion on the weights (f_j, 1, 0), B on (f_j, g_j, 1).
    A part of more than RECURSION_MIN_TERMS terms is never expanded and
    evaluates by OutageRecursion; a smaller one is expanded by running
    relay_recursion on sparse posynomials.

    group = (users, relays) builds the tables of the network made of those
    users and relays only, by default the whole network.  They take the
    whole network's log powers, read only the group's rows, and have zero
    derivatives and exponents outside them.
    """
    if coeffs.c_u.shape != (M, N) or coeffs.c_r.shape != (N,):
        raise ValueError("link coefficient shapes do not match (M, N)")
    users, relays = (range(M), range(N)) if group is None else group
    sub = LinkCoefficients(c_u=coeffs.c_u[np.ix_(users, relays)],
                           c_r=coeffs.c_r[relays], m=coeffs.m)
    rows = np.concatenate([users, np.add(M, relays)])
    return tuple(_recursion_table(sub, part, rows, (M, N))
                 if sum(_term_count(*sub.c_u.shape, e) for e in part)
                 > RECURSION_MIN_TERMS
                 else _expanded_table(sub, part, rows, (M, N))
                 for part in parts)


def outage_tables(coeffs: LinkCoefficients, M: int, N: int):
    """The solver's tables: parts A and B as one ("AB")."""
    return build_outage_tables(coeffs, M, N, parts=("AB",))


def network_outage_approx(p_u, p_r, coeffs: LinkCoefficients):
    """Approximate network outage at powers p_u (M,), p_r (N,).

    Columns of p_u (M, K) and p_r (N, K) are periods, evaluated at once.
    Returns (pr_out, pr_A, pr_B), one value per period.  Values are the raw
    posynomials and may exceed one outside the small-outage regime; they
    are deliberately not clamped so that the solver sees the true monomial
    landscape.
    """
    p_u = np.asarray(p_u, dtype=float)
    p_r = np.asarray(p_r, dtype=float)
    if np.any(p_u <= 0.0) or np.any(p_r <= 0.0):
        raise ValueError("approximate outage needs strictly positive powers")
    M, N = coeffs.c_u.shape
    table_A, table_B = build_outage_tables(coeffs, M, N)
    x = np.log(np.concatenate([p_u, p_r]))
    pr_A = table_A.value(x)
    pr_B = table_B.value(x)
    return pr_A + pr_B, pr_A, pr_B


@dataclass
class OutageReport:
    """Per-period outage summary for a full policy.

    In exact mode every field is a probability.  In approximate mode the
    per-link entries are the raw monomials and pr_A/pr_B the raw
    posynomials, which may exceed one.  pr_out, pr_A and pr_B hold one
    value per period, or, for plain relaying (one one-user network per
    user), one row of them per user.
    """

    mode: str              # "exact" or "approx"
    pr_out: np.ndarray     # (K,), per user (M, K)
    pr_A: np.ndarray       # likewise
    pr_B: np.ndarray       # likewise
    pe_user: np.ndarray    # (M, N, K)
    pe_relay: np.ndarray   # (N, K)


def network_outage_report(config: ScenarioConfig, policy: Policy,
                          mode: str = "exact") -> OutageReport:
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
        if np.any(policy.p_r < 0.0):
            raise ValueError("relay powers must be >= 0")
        f_u, f_r = link_b_factors(config)
        pe_user = link_outage(config.m,
                              f_u[:, :, None] / policy.p_u[:, None, :])
        # a relay switched off never forwards: b = inf, outage one
        pe_relay = link_outage(config.m, np.divide(
            f_r[:, None], policy.p_r, out=np.full((N, K), np.inf),
            where=policy.p_r > 0.0))
        pr_out, pr_A, pr_B = network_outage_exact(relay_miss_prob(pe_user),
                                                  pe_relay, M)
        return OutageReport(mode="exact", pr_out=pr_out, pr_A=pr_A, pr_B=pr_B,
                            pe_user=pe_user, pe_relay=pe_relay)

    if mode == "approx":
        if np.any(policy.p_r <= 0.0):
            raise ValueError("approximate mode needs strictly positive "
                             "relay powers")
        coeffs = compute_link_coefficients(config)
        pe_user = coeffs.c_u[:, :, None] * policy.p_u[:, None, :] ** (-config.m)
        pe_relay = coeffs.c_r[:, None] * policy.p_r ** (-config.m)
        pr_out, pr_A, pr_B = network_outage_approx(policy.p_u, policy.p_r,
                                                   coeffs)
        return OutageReport(mode="approx", pr_out=pr_out, pr_A=pr_A,
                            pr_B=pr_B, pe_user=pe_user, pe_relay=pe_relay)

    raise ValueError(f"unknown outage mode {mode!r}")
