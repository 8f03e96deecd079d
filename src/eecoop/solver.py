"""Energy-efficiency maximization by fractional programming.

The optimizer maximizes delivered-bits-per-joule over user powers, relay
powers and inter-user energy transfers.  Powers enter through their
logarithms, which turns every outage posynomial into a convex sum of
exponentials; transfers stay linear.  The outer loop is the classic
parametric (Dinkelbach) iteration on q = bits / joule; each inner problem

    minimize  sum_k per-period-outage-bits + q * total-energy
    s.t.      cumulative energy causality per user
              power box constraints, transfer bounds
              approximate outage <= target per period

is convex and solved with a log-barrier interior-point method using damped
Newton steps and a dense Cholesky factorization.  Solutions are audited
against the exact outage expression afterwards.

Every barrier evaluation assembles all periods in one pass.  Each outage
table is evaluated once for the whole (M+N, K) log-power matrix, giving
per-period values, gradients and (K, M+N, M+N) Hessians that the objective
and the outage constraints share; each table's Hessians enter the Newton
matrix in one block add over the periods' variable indices.  The depleted
variant's log-budget user coordinates are folded in by a Jacobian and a
curvature term.  Causality and budget rows are one coordinate-form
Jacobian whose Hessian is scattered in row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .model import (
    P_MIN,
    TOL_FEAS,
    LinkCoefficients,
    Policy,
    ScenarioConfig,
    compute_link_coefficients,
    energy_ledger,
    total_energy,
    validate_policy,
)
from .outage import MonomialTable, network_outage_report, outage_tables

INF = float("inf")


class InfeasibleError(Exception):
    """Raised when phase 1 certifies the constraint set has no interior."""

    def __init__(self, binding_class: str, detail: str = ""):
        self.binding_class = binding_class
        self.detail = detail
        super().__init__(f"infeasible ({binding_class}) {detail}".strip())


@dataclass
class SolverOptions:
    """Tolerances and loop limits for the fractional-programming solver."""

    q_tol: float = None        # |numerator - q*denominator| stop, bits;
                               # defaults to 1e-6 * M * K * alpha0 * T
    max_outer: int = 50        # Dinkelbach iterations
    kkt_tol: float = 1e-6      # duality-gap target of the barrier method
    barrier_mu: float = 10.0   # barrier parameter growth factor
    newton_tol: float = 1e-9   # half squared Newton decrement per stage
    max_newton: int = 80       # Newton iterations per barrier stage
    t0: float = 1.0            # initial barrier parameter
    p_min: float = P_MIN       # smallest representable power, W
    max_retries: int = 3       # internal threshold shrinks after audit fail
    phase1_margin: float = 1e-3  # scaled strict-feasibility margin

    def q_tol_abs(self, config: ScenarioConfig) -> float:
        if self.q_tol is not None:
            return self.q_tol
        return 1e-6 * config.M * config.K * config.alpha0 * config.T


@dataclass
class Layout:
    """Flat variable vector: [user log powers, relay log powers, transfers].

    Transfers are indexed by ordered user pairs (i, j), i != j, period-major
    inside each pair.  The depleted variant eliminates user powers, so the
    user block may be absent.
    """

    M: int
    N: int
    K: int
    with_users: bool
    with_transfers: bool

    def __post_init__(self):
        M, N, K = self.M, self.N, self.K
        self.pairs = [(i, j) for i in range(M) for j in range(M) if i != j]
        off = 0
        if self.with_users:
            self.user_idx = off + np.arange(M * K).reshape(M, K)
            off += M * K
        else:
            self.user_idx = None
        self.relay_idx = off + np.arange(N * K).reshape(N, K)
        off += N * K
        self.pair_idx = {}
        if self.with_transfers:
            for p, (i, j) in enumerate(self.pairs):
                self.pair_idx[(i, j)] = off + np.arange(K) + p * K
            off += len(self.pairs) * K
        # (pairs, K) index matrix in pair_idx order
        self.pair_mat = np.array(list(self.pair_idx.values()),
                                 dtype=int).reshape(-1, K)
        self.dim = off

    def transfer_array(self, z) -> np.ndarray:
        E = np.zeros((self.K, self.M, self.M))
        for (i, j), idx in self.pair_idx.items():
            E[:, i, j] = z[idx]
        return E

    def pack_transfers(self, E, z) -> None:
        for (i, j), idx in self.pair_idx.items():
            z[idx] = E[:, i, j]


def transform_policy(policy: Policy, p_min: float = P_MIN):
    """Log-power coordinates of a policy: (x_tilde, transfers).

    x_tilde stacks user rows then relay rows, shape (M+N, K).  Requires all
    powers >= p_min; a switched-off relay cannot be represented in log
    coordinates.
    """
    if np.any(policy.p_u < p_min) or np.any(policy.p_r < p_min):
        raise ValueError(f"all powers must be >= {p_min} to take logs")
    x = np.log(np.vstack([policy.p_u, policy.p_r]))
    return x, policy.transfers.copy()


def inverse_transform_policy(x_tilde, transfers, M: int) -> Policy:
    """Inverse of transform_policy."""
    x_tilde = np.asarray(x_tilde, dtype=float)
    p = np.exp(x_tilde)
    return Policy(p_u=p[:M], p_r=p[M:], transfers=np.array(transfers))


# ---------------------------------------------------------------------------
# constraint blocks
#
# Every inequality is written g(z) <= 0.  In phase 1 a block marked soft is
# relaxed to g(z) <= s * sigma with a shared slack variable s appended to z;
# the barrier denominator is then (s * sigma - g) instead of (-g).
#
# Row logs and squared denominators use the scalar libm routines (math.log,
# float **), which round a few arguments in 10^4 differently from np.log and
# np.square, and row barriers and per-period objective terms are summed left
# to right.  Once the barrier parameter is large the line search compares
# values in their last bits, so this rounding fixes the Newton iterate path.


def _denom(g, soft):
    if soft is None:
        return -g
    s_val, _s_idx, sigma = soft
    return s_val * sigma - g


def _log_barrier(d):
    """-sum(log d) over the rows of d, or INF when a row is not positive."""
    acc = 0.0
    for v in d.tolist():
        if not v > 0.0:
            return INF
        acc -= math.log(v)
    return acc


def _sum_in_order(start, terms):
    """start + terms[0] + terms[1] + ..., added left to right."""
    return float(np.cumsum(np.concatenate([[start], terms]))[-1])


def _squares(d):
    """d ** 2 entry by entry with float pow."""
    return np.array([v ** 2 for v in d.ravel().tolist()]).reshape(d.shape)


class Bounds:
    """Hard one-sided bounds sign * z[idx] - b <= 0 with diagonal barriers."""

    def __init__(self, idx, sign, b):
        self.idx = np.asarray(idx, dtype=int)
        self.sign = np.asarray(sign, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.n = self.idx.size

    def values(self, z):
        return self.sign * z[self.idx] - self.b

    def phi(self, z):
        denom = -self.values(z)
        if np.any(denom <= 0.0):
            return INF
        return -float(np.sum(np.log(denom)))

    def barrier(self, z, grad, H):
        denom = -self.values(z)
        if np.any(denom <= 0.0):
            return INF
        np.add.at(grad, self.idx, self.sign / denom)
        np.add.at(H, (self.idx, self.idx), 1.0 / denom ** 2)
        return -float(np.sum(np.log(denom)))


class EnergyRows:
    """Energy rows g = sum c * exp(z[e]) + a @ z[l] - rhs <= 0.

    Causality rows (cumulative user spending) and the depleted variant's
    budget rows.  The Jacobian is held in coordinate form, entries listed
    row by row with a row's exponential entries first.  The Hessian,
    outer(v, v) / d**2 per row plus the curvature v / d of its exponential
    entries, is scattered in unbuffered adds in row order, so every entry
    accumulates its rows in sequence.  Row values are reduced for all rows
    of one length at once, with the pairwise sum and dot product that a
    single row of that length gets.
    """

    # Hessian triples per scatter: causality has O(M K^3) in all, and a
    # chunk of this size keeps its index arrays in cache
    CHUNK = 1 << 16

    def __init__(self, rows, soft_class):
        # rows: list of (exp cols, exp coefs, lin cols, lin vals, rhs)
        self.n = len(rows)
        self.soft_class = soft_class
        self.n_exp = np.array([len(r[0]) for r in rows], dtype=int)
        self.size = self.n_exp + [len(r[2]) for r in rows]
        self.col = np.concatenate(
            [np.concatenate([r[0], r[2]]) for r in rows]).astype(int)
        self.coef = np.concatenate(
            [np.concatenate([r[1], r[3]]) for r in rows]).astype(float)
        start = np.cumsum(self.size) - self.size
        self.is_exp = np.arange(self.col.size) \
            < np.repeat(start + self.n_exp, self.size)
        self.rhs = np.array([float(r[4]) for r in rows])
        self.groups = []
        for ne, n in sorted(set(zip(self.n_exp, self.size))):
            rows_g = np.flatnonzero((self.n_exp == ne) & (self.size == n))
            pos = start[rows_g][:, None] + np.arange(n)
            self.groups.append((rows_g, pos[:, :ne], pos[:, ne:],
                                self.col[pos[:, ne:]]))

    def _entries(self, z):
        """Jacobian entry values: c * exp(z) or the linear coefficient."""
        vals = self.coef.copy()
        with np.errstate(over="ignore"):
            vals[self.is_exp] *= np.exp(z[self.col[self.is_exp]])
        return vals

    def _rows(self, z, vals):
        g = np.empty(self.n)
        for rows_g, epos, lpos, lcol in self.groups:
            lin = np.matmul(vals[lpos][:, None, :], z[lcol][:, :, None])
            g[rows_g] = (vals[epos].sum(axis=1) + lin[:, 0, 0]) \
                - self.rhs[rows_g]
        return g

    def values(self, z):
        return self._rows(z, self._entries(z))

    def phi(self, z, soft=None):
        return _log_barrier(_denom(self.values(z), soft))

    def barrier(self, z, grad, H, soft=None):
        vals = self._entries(z)
        d = _denom(self._rows(z, vals), soft)
        acc = _log_barrier(d)
        if not np.isfinite(acc):
            return INF
        # entries row by row, each row closed by its slack entry when soft
        size = self.size + (soft is not None)
        ent_row = np.repeat(np.arange(self.n), size)
        start = np.cumsum(size) - size
        ent = np.arange(ent_row.size)
        own = ent - start[ent_row] < self.size[ent_row]
        v = np.full(ent_row.size, 0.0 if soft is None else -soft[2])
        cols = np.full(ent_row.size, -1 if soft is None else soft[1])
        v[own] = vals
        cols[own] = self.col
        np.add.at(grad, cols, v / d[ent_row])
        # Hessian triples, whole rows per chunk: a row's outer-product
        # pairs (a-major), then the curvature of its exponential entries
        d2 = _squares(d)
        count = size ** 2 + self.n_exp
        chunk = (np.cumsum(count) - count) // self.CHUNK
        exp_ent = ent[own][self.is_exp]
        width = H.shape[1]
        for rows in np.split(np.arange(self.n),
                             np.flatnonzero(np.diff(chunk)) + 1):
            lo, hi = start[rows[0]], start[rows[-1]] + size[rows[-1]]
            part = ent[lo:hi]
            reps = size[ent_row[part]]
            a = np.repeat(part, reps)
            b = np.arange(a.size) + np.repeat(
                start[ent_row[part]] - np.cumsum(reps) + reps, reps)
            curv = exp_ent[(exp_ent >= lo) & (exp_ent < hi)]
            at = np.cumsum(size[rows] ** 2)[ent_row[curv] - rows[0]]
            hv = np.insert((v[a] * v[b]) / d2[ent_row[a]], at,
                           v[curv] / d[ent_row[curv]])
            flat = np.insert(cols[a] * width + cols[b], at,
                             cols[curv] * (width + 1))
            np.add.at(H.reshape(-1), flat, hv)
        return acc


@dataclass
class TableEval:
    """Every outage table at every period of one point.

    values[t, k] is table t in period k.  With derivatives, grads[t, k] and
    hessians[t, k] are taken with respect to the period's own variables
    z[idx[k]], chain rule and coordinate curvature included.
    """

    values: np.ndarray               # (tables, K)
    idx: np.ndarray                  # (K, V)
    grads: np.ndarray = None         # (tables, K, V)
    hessians: np.ndarray = None      # (tables, K, V, V)

    def add_hessian(self, H, blocks):
        """H[idx[k], idx[k]] += blocks[k] for every period k at once; the
        periods own disjoint variables."""
        H[self.idx[:, :, None], self.idx[:, None, :]] += blocks


class OutageCons:
    """Per-period outage constraints table(x_k) - thr <= 0, one row per
    (period, table), periods outermost."""

    soft_class = "outage"

    def __init__(self, n, thr):
        self.n = n
        self.thr = float(thr)

    def values(self, ev):
        if ev is None:
            return np.full(self.n, INF)
        return (ev.values - self.thr).T.ravel()

    def phi(self, ev, soft=None):
        if ev is None:
            return INF
        return _log_barrier(_denom(self.values(ev), soft))

    def barrier(self, ev, grad, H, soft=None):
        if ev is None:
            return INF
        d = _denom(ev.values - self.thr, soft)
        acc = _log_barrier(d.T.ravel())
        if not np.isfinite(acc):
            return INF
        d2 = _squares(d)
        for g_t, h_t, d_t, d2_t in zip(ev.grads, ev.hessians, d, d2):
            d_t, d2_t = d_t[:, None], d2_t[:, None]
            grad[ev.idx] += g_t / d_t
            ev.add_hessian(H, (g_t[:, :, None] * g_t[:, None, :])
                           / d2_t[:, :, None])
            ev.add_hessian(H, (1.0 / d_t)[:, :, None] * h_t)
            if soft is not None:
                cross = (g_t * -soft[2]) / d2_t
                H[ev.idx, soft[1]] += cross
                H[soft[1], ev.idx] += cross
        if soft is not None:
            # the slack entries are shared by every row: add in row order
            at = np.full(d.size, soft[1])
            np.add.at(grad, at, -soft[2] / d.T.ravel())
            np.add.at(H, (at, at), soft[2] * soft[2] / d2.T.ravel())
        return acc


class Objective:
    """Normalized inner objective (outage bits + q * energy) / scale.

    Carries the pieces separately so the Dinkelbach update can read the
    unscaled numerator and denominator at any point.  Outage enters through
    a TableEval shared with the outage constraints.
    """

    def __init__(self, scale, table_bits, exp_idx, exp_base,
                 lin_cols, lin_vals, energy_const):
        self.scale = float(scale)                 # M*K*alpha0*T, bits
        self.table_bits = np.asarray(table_bits, dtype=float)  # per table
        self.exp_idx = np.asarray(exp_idx, dtype=int)
        self.exp_base = np.asarray(exp_base, dtype=float)   # J per exp(z)
        self.lin_cols = np.asarray(lin_cols, dtype=int)
        self.lin_vals = np.asarray(lin_vals, dtype=float)   # J per unit z
        self.energy_const = float(energy_const)             # J

    def energy_and_bits(self, z, ev):
        """(total energy in J, expected delivered bits) at z."""
        with np.errstate(over="ignore"):
            energy = float(self.exp_base @ np.exp(z[self.exp_idx]))
        if self.lin_cols.size:
            energy += float(self.lin_vals @ z[self.lin_cols])
        energy += self.energy_const
        if ev is None:
            return energy, -INF
        lost = _sum_in_order(
            0.0, (self.table_bits[:, None] * ev.values).T.ravel())
        return energy, self.scale - lost

    def value(self, z, q, ev):
        energy, bits = self.energy_and_bits(z, ev)
        if not np.isfinite(bits):
            return INF
        return ((self.scale - bits) + q * energy) / self.scale

    def fgh(self, z, q, ev):
        D = z.shape[0]
        grad = np.zeros(D)
        H = np.zeros((D, D))
        with np.errstate(over="ignore"):
            e = self.exp_base * np.exp(z[self.exp_idx])
        f = q * (float(e.sum()) + self.energy_const)
        if self.lin_cols.size:
            f += q * float(self.lin_vals @ z[self.lin_cols])
            np.add.at(grad, self.lin_cols, q * self.lin_vals / self.scale)
        np.add.at(grad, self.exp_idx, q * e / self.scale)
        np.add.at(H, (self.exp_idx, self.exp_idx), q * e / self.scale)
        f /= self.scale
        if ev is None:
            return INF, grad, H
        w = self.table_bits / self.scale
        f = _sum_in_order(f, (w[:, None] * ev.values).T.ravel())
        for w_t, g_t, h_t in zip(w, ev.grads, ev.hessians):
            grad[ev.idx] += w_t * g_t
            ev.add_hessian(H, w_t * h_t)
        return f, grad, H


# ---------------------------------------------------------------------------
# problem assembly


class EEProblem:
    """One convex inner problem: layout, constraint blocks, objective.

    Period k sees the outage tables through its log powers x_k, users then
    relays.  In the standard variant these are plain variables.  The
    depleted variant eliminates user powers: x_k[i] is the log of the
    period budget over T, c0[i, k] + A[i] @ (transfers of period k).
    """

    def __init__(self, config: ScenarioConfig, coeffs: LinkCoefficients,
                 options: SolverOptions, *, threshold: float,
                 transfers: bool = True, depleted: bool = False,
                 tables_weights=None, relay_slot_factor: float = 1.0):
        M, N, K = config.M, config.N, config.K
        self.config = config
        self.coeffs = coeffs
        self.options = options
        self.threshold = float(threshold)
        self.depleted = depleted
        self.relay_slot_factor = float(relay_slot_factor)
        transfers = transfers and M > 1
        self.layout = Layout(M=M, N=N, K=K, with_users=not depleted,
                             with_transfers=transfers)
        lay = self.layout
        T = config.T

        if tables_weights is None:
            tA, tB = outage_tables(coeffs, M, N)
            combined = MonomialTable(
                coef=np.concatenate([tA.coef, tB.coef]),
                w=np.vstack([tA.w, tB.w]), M=M, N=N, m=coeffs.m)
            tables_weights = ([combined], [float(M)])
        self.tables, self.table_weights = tables_weights

        arrivals0 = config.arrivals.copy()
        arrivals0[:, 0] += config.Eu_0
        if depleted:
            # pair (i, j) takes 1/T from user i's budget, gives eta/T to j
            self.budget_c0 = arrivals0 / T
            self.budget_A = np.zeros((M, lay.pair_mat.shape[0]))
            for p, (i, j) in enumerate(lay.pair_idx):
                self.budget_A[i, p] = -1.0 / T
                self.budget_A[j, p] = config.eta / T
            self.period_idx = np.vstack([lay.pair_mat, lay.relay_idx]).T
        else:
            self.period_idx = np.vstack([lay.user_idx, lay.relay_idx]).T

        # Bounds: log-power boxes and transfer boxes.
        lo, hi = math.log(options.p_min), math.log(config.p_max)
        idx, sign, b = [], [], []
        power_idx = ([] if depleted else list(lay.user_idx.ravel())) \
            + list(lay.relay_idx.ravel())
        for d in power_idx:
            idx += [d, d]
            sign += [1.0, -1.0]
            b += [hi, -lo]
        total_energy_cap = float(config.arrivals.sum() + config.Eu_0.sum())
        self.e_cap = max(total_energy_cap * 1.001, 1e-3)
        for pidx in lay.pair_idx.values():
            for d in pidx:
                idx += [d, d]
                sign += [1.0, -1.0]
                b += [self.e_cap, 0.0]
        self.bounds = Bounds(idx, sign, b)

        rows = []
        lin_cols, lin_vals = [], []
        if not depleted:
            # Cumulative causality, one row per (user, period): spending
            # and net transfers through period k within arrivals through k.
            # The depleted equality makes it hold automatically.
            for i in range(M):
                for k in range(K):
                    ei = lay.user_idx[i, :k + 1]
                    ec = np.full(k + 1, T)
                    lc, lv = [], []
                    for j in range(M):
                        if j == i:
                            continue
                        if (i, j) in lay.pair_idx:
                            lc += list(lay.pair_idx[(i, j)][:k + 1])
                            lv += [1.0] * (k + 1)
                        if (j, i) in lay.pair_idx:
                            lc += list(lay.pair_idx[(j, i)][:k + 1])
                            lv += [-config.eta] * (k + 1)
                    rhs = float(arrivals0[i, :k + 1].sum())
                    rows.append((ei, ec, lc, lv, rhs))
            self.energy_rows = EnergyRows(rows, soft_class="causality")
        else:
            # eliminated powers must stay inside the power box
            for k in range(K):
                for i in range(M):
                    nz = np.flatnonzero(self.budget_A[i])
                    cols, vals = lay.pair_mat[nz, k], self.budget_A[i, nz]
                    c0 = self.budget_c0[i, k]
                    # budget/T >= p_min  ->  -vals @ z <= c0 - p_min
                    rows.append(((), (), cols, -vals, c0 - options.p_min))
                    # budget/T <= p_max  ->  vals @ z <= p_max - c0
                    rows.append(((), (), cols, vals, config.p_max - c0))
                    # user energy = sum of budgets: linear in transfers
                    lin_cols += list(cols)
                    lin_vals += list(vals * T)
            self.energy_rows = EnergyRows(rows, soft_class="power_budget")

        # Outage constraints: every table of every period under threshold.
        self.outage_cons = OutageCons(K * len(self.tables), self.threshold)
        self.n_con = self.bounds.n + self.energy_rows.n + self.outage_cons.n

        # Objective pieces.
        scale = M * K * config.alpha0 * T
        exp_idx = list(lay.relay_idx.ravel())
        exp_base = [T * self.relay_slot_factor] * (N * K)
        energy_const = 0.0
        if depleted:
            energy_const += float(arrivals0.sum())
        else:
            exp_idx += list(lay.user_idx.ravel())
            exp_base += [T] * (M * K)
        for pidx in lay.pair_idx.values():
            lin_cols += list(pidx)
            lin_vals += [1.0 - config.eta] * K
        self.objective = Objective(
            scale, [config.alpha0 * T * w for w in self.table_weights],
            exp_idx, exp_base, lin_cols, lin_vals, energy_const)
        self.scale = scale

        # phase-1 scaling per soft class
        self.soft_sigma = {
            "causality": max(1.0, total_energy_cap),
            "outage": self.threshold,
            "power_budget": max(config.p_max, 1.0),
        }

    # -- evaluation helpers -------------------------------------------------

    def budgets(self, z):
        """Depleted variant: eliminated user powers (M, K), budget / T."""
        return self.budget_c0 + self.budget_A @ z[self.layout.pair_mat]

    def tables_at(self, z, derivs=False):
        """Every outage table at every period of z, as one TableEval.

        Returns None when a depleted budget is not positive, which puts z
        outside the domain of the log coordinates.
        """
        x_relay = z[self.layout.relay_idx]
        if self.depleted:
            u = self.budgets(z)
            if not np.all(u > 0.0):
                return None
            x = np.vstack([np.log(u), x_relay])
        else:
            x = z[self.period_idx.T]
        if not derivs:
            return TableEval(np.array([tb.value(x) for tb in self.tables]),
                             self.period_idx)
        parts = [tb.value_grad_hess(x) for tb in self.tables]
        grads = np.stack([p[1].T for p in parts])
        hessians = np.stack([p[2] for p in parts])
        if self.depleted:
            grads, hessians = self._pull_back_budgets(u, grads, hessians)
        return TableEval(np.array([p[0] for p in parts]), self.period_idx,
                         grads, hessians)

    def _pull_back_budgets(self, u, grads, hessians):
        """Derivatives in (log budget, relay) coordinates, taken to the
        period's (transfer, relay) variables.

        x_i = log(c0_i + A_i @ e) has Jacobian J_ip = A_ip / u_i and
        curvature -J_ip J_iq, so the user block of the Hessian maps to
        J^T (H_uu - diag(g_u)) J.
        """
        M = self.config.M
        J = self.budget_A / u.T[:, :, None]                 # (K, M, P)
        Jt = J.swapaxes(-1, -2)
        g_u, g_r = grads[..., :M], grads[..., M:]
        H_uu, H_ur = hessians[..., :M, :M], hessians[..., :M, M:]
        H_pr = Jt @ H_ur
        return (np.concatenate([(g_u[..., None, :] @ J)[..., 0, :], g_r],
                               axis=-1),
                np.block([[Jt @ (H_uu - g_u[..., None] * np.eye(M)) @ J,
                           H_pr],
                          [H_pr.swapaxes(-1, -2), hessians[..., M:, M:]]]))

    def _blocks(self, z, ev, sig):
        """(block, argument, soft) for the energy rows, which read z, and
        the outage block, which reads the shared TableEval ev; sig (class
        -> scale) softens both with the slack z[-1]."""
        for blk, at in ((self.energy_rows, z), (self.outage_cons, ev)):
            yield blk, at, None if sig is None else \
                (z[-1], z.size - 1, sig[blk.soft_class])

    def _blocks_barrier(self, z, ev, f, grad, H, sig=None):
        """f plus the block barriers, derivatives added to grad and H."""
        for blk, at, soft in self._blocks(z, ev, sig):
            phi = blk.barrier(at, grad, H, soft)
            if not np.isfinite(phi):
                return INF
            f += phi
        return f

    def _blocks_phi(self, z, ev, f, sig=None):
        for blk, at, soft in self._blocks(z, ev, sig):
            phi = blk.phi(at, soft)
            if not np.isfinite(phi):
                return INF
            f += phi
        return f

    def barrier_fgh(self, z, q, t):
        ev = self.tables_at(z, derivs=True)
        f, grad, H = self.objective.fgh(z, q, ev)
        if not np.isfinite(f):
            return INF, grad, H
        f *= t
        grad *= t
        H *= t
        phi = self.bounds.barrier(z, grad, H)
        if not np.isfinite(phi):
            return INF, grad, H
        return self._blocks_barrier(z, ev, f + phi, grad, H), grad, H

    def barrier_value(self, z, q, t):
        ev = self.tables_at(z)
        f = self.objective.value(z, q, ev)
        if not np.isfinite(f):
            return INF
        f *= t
        phi = self.bounds.phi(z)
        if not np.isfinite(phi):
            return INF
        return self._blocks_phi(z, ev, f + phi)

    def soft_barrier_fgh(self, zs, t, sig):
        """Phase-1 barrier t * s + phi(z, s) at zs = [z, s], with its
        derivatives; sig scales the slack per constraint class."""
        grad = np.zeros(zs.size)
        H = np.zeros((zs.size, zs.size))
        grad[-1] = t
        phi = self.bounds.barrier(zs, grad, H)
        if not np.isfinite(phi):
            return INF, grad, H
        f = self._blocks_barrier(zs, self.tables_at(zs, derivs=True),
                                 t * zs[-1] + phi, grad, H, sig)
        return f, grad, H

    def soft_barrier_value(self, zs, t, sig):
        phi = self.bounds.phi(zs)
        if not np.isfinite(phi):
            return INF
        return self._blocks_phi(zs, self.tables_at(zs), t * zs[-1] + phi,
                                sig)

    def constraint_values(self, z):
        """(soft class, g) per constraint block; g < 0 is strictly inside."""
        return [(self.energy_rows.soft_class, self.energy_rows.values(z)),
                (self.outage_cons.soft_class,
                 self.outage_cons.values(self.tables_at(z)))]

    def strictly_feasible(self, z) -> bool:
        if np.any(self.bounds.values(z) >= 0.0):
            return False
        return not any(np.any(g >= 0.0) for _, g in self.constraint_values(z))

    def soft_values_scaled(self, z):
        return np.concatenate([g / self.soft_sigma[cls]
                               for cls, g in self.constraint_values(z)])

    def _uniform_outage_level(self):
        """Log power level at which every outage posynomial sits at half
        the threshold when all nodes transmit at that common level.

        Found by bisection (the posynomials are strictly decreasing in
        the common level).  Returns the ceiling when even full power
        cannot reach the target: phase 1 then starts from the best
        uniform point available and certifies infeasibility properly.
        """
        cfg = self.config
        target = 0.5 * self.threshold
        n_vars = cfg.M + cfg.N

        def worst(xval):
            x = np.full(n_vars, xval)
            return max(float(t.value(x)) for t in self.tables)

        lo = math.log(10.0 * self.options.p_min)
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

    def initial_point(self):
        """Interior point for the hard bounds; soft constraints may be
        violated here (phase 1 cleans that up).

        All powers start at the common level that parks the outage
        posynomials at half the threshold, so the stiff constraint class
        begins satisfied and phase 1 only has to negotiate the mildly
        scaled energy rows.  The depleted variant has no free user
        powers; its transfers are seeded per period instead.
        """
        cfg = self.config
        opt = self.options
        lo, hi = math.log(opt.p_min), math.log(cfg.p_max)
        margin = 1e-4 * (hi - lo)
        z = np.zeros(self.layout.dim)
        x_all = float(np.clip(self._uniform_outage_level(),
                              lo + margin, hi - margin))
        if self.layout.with_users:
            z[self.layout.user_idx.ravel()] = x_all
        z[self.layout.relay_idx.ravel()] = x_all
        if self.depleted:
            self._seed_depleted_transfers(z)
        else:
            e0 = min(1e-6, 0.25 * self.e_cap)
            for pidx in self.layout.pair_idx.values():
                z[pidx] = e0
        return z

    def _seed_depleted_transfers(self, z):
        """Start the depleted variant with every per-period budget above
        the power floor.

        The eliminated user power is budget/T, which the outage posynomial
        evaluates at the initial point, so nonpositive budgets are not
        merely soft violations: they put the start outside the barrier
        domain.  Periods whose arrivals cannot reach the floor even under
        loss-aware equalization are provably infeasible (within-period
        transfers cannot create energy) and raise InfeasibleError.
        """
        cfg = self.config
        M, K = cfg.M, cfg.K
        eta = cfg.eta
        floor = self.options.p_min * cfg.T
        arrivals0 = cfg.arrivals.copy()
        arrivals0[:, 0] += cfg.Eu_0
        for k in range(K):
            arr = arrivals0[:, k].copy()
            if M == 1 or not self.layout.with_transfers:
                if float(arr.min()) <= floor * 1.01:
                    raise InfeasibleError(
                        "power_budget",
                        f"period {k + 1}: a user's harvest cannot sustain "
                        f"the minimum power")
                continue
            # highest budget floor reachable by equalizing transfers,
            # accounting for the transfer loss, found by bisection
            lo_t, hi_t = 0.0, float(arr.max())
            for _ in range(60):
                mid = 0.5 * (lo_t + hi_t)
                surplus = eta * float(np.clip(arr - mid, 0.0, None).sum())
                deficit = float(np.clip(mid - arr, 0.0, None).sum())
                if surplus >= deficit:
                    lo_t = mid
                else:
                    hi_t = mid
            t_even = lo_t
            if t_even <= floor * 1.01:
                raise InfeasibleError(
                    "power_budget",
                    f"period {k + 1}: equalizing transfers cannot lift "
                    f"every user to the minimum power")
            pulls = np.zeros((M, M))
            target = max(2.0 * floor, 0.5 * t_even)
            if float(arr.min()) < target:
                give_room = np.clip(arr - target, 0.0, None)
                order = np.argsort(-give_room)
                for i in range(M):
                    need = target - arr[i]
                    for j in order:
                        if need <= 0.0:
                            break
                        if j == i or give_room[j] <= 0.0:
                            continue
                        pull = min(give_room[j], need / eta)
                        pulls[j, i] += pull
                        give_room[j] -= pull
                        need -= eta * pull
            budget = arr + eta * pulls.sum(axis=0) - pulls.sum(axis=1)
            # small uniform seed on every pair, sized so it cannot push
            # the tightest budget anywhere near the floor
            e0 = min(1e-6, 0.25 * self.e_cap,
                     0.05 * float(budget.min()) / max(M - 1, 1))
            for (i, j), pidx in self.layout.pair_idx.items():
                z[pidx[k]] = e0 + pulls[i, j]

    def extract_policy(self, z) -> Policy:
        cfg = self.config
        lay = self.layout
        E = lay.transfer_array(z)
        p_r = np.exp(z[lay.relay_idx])
        if self.depleted:
            p_u = self.budgets(z)
        else:
            p_u = np.exp(z[lay.user_idx])
        return Policy(p_u=p_u, p_r=p_r, transfers=E)


# ---------------------------------------------------------------------------
# Newton / barrier engines


def _solve_newton_system(H, g):
    n = H.shape[0]
    base = max(float(np.trace(H)) / n, 1e-300)
    jitter = 0.0
    for _ in range(14):
        try:
            M = H if jitter == 0.0 else H + jitter * base * np.eye(n)
            c = sla.cho_factor(M, lower=True, check_finite=False)
            return sla.cho_solve(c, g, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            jitter = 1e-12 if jitter == 0.0 else jitter * 100.0
    raise RuntimeError("Newton system could not be factorized")


def _damped_newton(z, fgh, value, tol, max_iter):
    """Backtracking Newton on a barrier objective.

    Returns (z, iters, converged); converged is True only when the
    Newton decrement dropped below tol, so callers can tell a genuine
    minimizer from a stall (line search exhausted or iteration cap).
    """
    f, g, H = fgh(z)
    if not np.isfinite(f):
        raise RuntimeError("Newton started at an infeasible point")
    iters = 0
    converged = False
    for _ in range(max_iter):
        step = _solve_newton_system(H, g)
        lam2 = float(g @ step)
        if not np.isfinite(lam2):
            break
        if lam2 < 0.0:
            # factorization jitter can flip the sign at convergence scale
            lam2 = abs(lam2)
        if 0.5 * lam2 <= tol:
            converged = True
            break
        alpha = 1.0
        accepted = False
        while alpha >= 1e-14:
            zt = z - alpha * step
            ft = value(zt)
            if np.isfinite(ft) and ft <= f - 0.25 * alpha * lam2:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        z = zt
        f, g, H = fgh(z)
        iters += 1
    return z, iters, converged


@dataclass
class InnerResult:
    z: np.ndarray
    v_prime_norm: float     # objective value (normalized by scale)
    newton_iters: int
    t_final: float


def inner_solve(problem: EEProblem, q: float, z0: np.ndarray,
                options: SolverOptions = None) -> InnerResult:
    """Barrier path following for the convex inner problem at parameter q.

    z0 must be strictly feasible.  Returns the central-path point whose
    duality-gap estimate (constraint count / barrier parameter) is at or
    below kkt_tol times the constraint count scale.
    """
    options = options or problem.options
    if not problem.strictly_feasible(z0):
        raise ValueError("inner_solve needs a strictly feasible start")
    z = z0.copy()
    t = options.t0
    total = 0
    while True:
        z, it, _conv = _damped_newton(
            z,
            lambda zz: problem.barrier_fgh(zz, q, t),
            lambda zz: problem.barrier_value(zz, q, t),
            options.newton_tol, options.max_newton)
        total += it
        if problem.n_con / t <= options.kkt_tol:
            break
        t *= options.barrier_mu
    return InnerResult(z=z, v_prime_norm=problem.objective.value(
                           z, q, problem.tables_at(z)),
                       newton_iters=total, t_final=t)


def phase1(problem: EEProblem, options: SolverOptions = None) -> np.ndarray:
    """Find a strictly feasible point or certify infeasibility.

    Minimizes a shared scaled slack s over the soft constraints g <= s*sigma
    while keeping hard bounds exact.  Succeeds once s drops below the
    margin; declares infeasibility once the duality gap proves s* > 0.
    """
    options = options or problem.options
    z = problem.initial_point()
    # Effective per-class scales.  Base sigmas make the classes mutually
    # comparable, but a hopeless threshold can leave a class violated by
    # many orders of magnitude, which turns its slack variable either
    # astronomically large or, after rescaling, denormal-small; widening
    # the scale to the seed's worst raw violation keeps the initial
    # scaled slack O(1).  The sign of s, hence feasibility and the
    # certificate, does not depend on the sigmas.
    sig = dict(problem.soft_sigma)
    blocks = problem.constraint_values(z)
    for cls, g in blocks:
        raw = float(np.max(g))
        if np.isfinite(raw):
            sig[cls] = max(sig[cls], raw)
    svals = np.concatenate([g / sig[cls] for cls, g in blocks])
    if float(svals.max()) < -options.phase1_margin:
        return z
    # the slack must exceed the worst violation by more than one ULP,
    # or the barrier evaluates ln(0) when violations are huge
    worst = float(svals.max())
    s0 = worst + max(1.0, 1e-9 * abs(worst))
    zs = np.append(z, s0)
    # the duality-gap certificate must count every barrier term, hard
    # bounds included, not just the softened rows
    n_ph1 = problem.n_con

    t = 1.0
    any_converged = False
    for _stage in range(24):
        zs, _it, conv = _damped_newton(
            zs,
            lambda zz: problem.soft_barrier_fgh(zz, t, sig),
            lambda zz: problem.soft_barrier_value(zz, t, sig),
            options.newton_tol, options.max_newton)
        any_converged = any_converged or conv
        s = zs[-1]
        if s < -options.phase1_margin:
            return zs[:-1]
        # the duality gap bounds the optimal slack: s* >= s - n/t, but
        # only at a converged central-path point; a stalled Newton
        # leaves s stale
        if conv and s - n_ph1 / t > 0.0:
            break
        if conv and s < 0.0 and s - n_ph1 / t > -options.phase1_margin:
            # strictly feasible, and provably no point clears the full
            # margin; pushing t further only drives the active slacks
            # below floating-point resolution, so accept this interior
            return zs[:-1]
        t *= options.barrier_mu
    if not any_converged:
        raise RuntimeError("phase 1 stalled: no barrier stage converged, "
                           "so feasibility could not be decided")
    # infeasible (or no strict interior): identify the binding class
    worst_class, worst_val = "outage", -INF
    for cls, g in problem.constraint_values(zs[:-1]):
        v = float(np.max(g / sig[cls]))
        if v > worst_val:
            worst_val, worst_class = v, cls
    raise InfeasibleError(worst_class,
                          f"phase-1 slack {zs[-1]:.3e} (scaled)")


# ---------------------------------------------------------------------------
# public evaluation op


def evaluate_V_prime(q: float, x_tilde, transfers, config: ScenarioConfig,
                     coeffs: LinkCoefficients = None):
    """Inner objective at a transformed point, with derivatives.

    x_tilde is (M+N, K) log powers (user rows first), transfers is
    (K, M, M) joules.  Returns (value, (grad_x, grad_E), hvp) where value
    is in bits (outage-weighted bits plus q times energy), grads match the
    input shapes, and hvp maps (vx, vE) to Hessian products of the same
    shapes.  The Hessian is positive semidefinite.
    """
    config_M, K = config.M, config.K
    coeffs = coeffs or compute_link_coefficients(config)
    x_tilde = np.asarray(x_tilde, dtype=float)
    transfers = np.asarray(transfers, dtype=float)
    if x_tilde.shape != (config.M + config.N, K):
        raise ValueError("x_tilde must have shape (M+N, K)")
    if transfers.shape != (K, config_M, config_M):
        raise ValueError("transfers must have shape (K, M, M)")
    options = SolverOptions()
    problem = EEProblem(config, coeffs, options, threshold=config.pr_out_0,
                        transfers=True)
    lay = problem.layout
    z = np.zeros(lay.dim)
    z[lay.user_idx] = x_tilde[:config.M]
    z[lay.relay_idx] = x_tilde[config.M:]
    lay.pack_transfers(transfers, z)
    f_norm, grad, H = problem.objective.fgh(
        z, q, problem.tables_at(z, derivs=True))
    value = f_norm * problem.scale
    grad = grad * problem.scale
    H = H * problem.scale

    def split(vec):
        gx = np.empty_like(x_tilde)
        gx[:config.M] = vec[lay.user_idx]
        gx[config.M:] = vec[lay.relay_idx]
        gE = np.zeros((K, config_M, config_M))
        for (i, j), idx in lay.pair_idx.items():
            gE[:, i, j] = vec[idx]
        return gx, gE

    def hvp(vx, vE):
        v = np.zeros(lay.dim)
        v[lay.user_idx] = np.asarray(vx, dtype=float)[:config.M]
        v[lay.relay_idx] = np.asarray(vx, dtype=float)[config.M:]
        lay.pack_transfers(np.asarray(vE, dtype=float), v)
        return split(H @ v)

    return value, split(grad), hvp


# ---------------------------------------------------------------------------
# Dinkelbach outer loop


@dataclass
class SolveResult:
    """Outcome of an energy-efficiency optimization run.

    status is one of converged, max_iterations, infeasible, audit_failed.
    q_star is the achieved bits-per-joule ratio of the approximate model;
    ee_exact re-evaluates the returned policy with exact outage.  trace
    holds one (q, V, newton_iterations) triple per outer iteration.
    """

    status: str
    policy: Policy = None
    q_star: float = None
    trace: list = field(default_factory=list)
    feasibility: object = None
    ee_exact: float = None
    e_tot: float = None
    outage_exact: object = None
    threshold_internal: float = None
    binding_class: str = None
    newton_iters_total: int = 0

    @property
    def feasible(self) -> bool:
        return self.status in ("converged", "max_iterations") \
            and self.feasibility is not None and self.feasibility.feasible


def _cleanup_transfers(config: ScenarioConfig, policy: Policy) -> Policy:
    """Cancel opposing transfers and drop solver dust.

    Cancelling min(send, return) inside a user pair never hurts causality
    (the receiver loses eta*c but also keeps c it would have sent).  Tiny
    residual transfers are zeroed only if causality still audits clean.
    """
    pol = policy.copy()
    E = pol.transfers
    for k in range(config.K):
        for i in range(config.M):
            for j in range(i + 1, config.M):
                c = min(E[k, i, j], E[k, j, i])
                if c > 0.0:
                    E[k, i, j] -= c
                    E[k, j, i] -= c
    tiny = (E > 0.0) & (E < 1e-9)
    if np.any(tiny):
        trial = pol.copy()
        trial.transfers[tiny] = 0.0
        ledger = energy_ledger(config, trial)
        if np.all(trial.p_u * config.T - ledger.available <= TOL_FEAS):
            pol = trial
    return pol


def _snap_relays(config: ScenarioConfig, policy: Policy, threshold: float,
                 p_min: float) -> Policy:
    """Zero relay powers that sit at the numerical floor, if outage allows."""
    near_zero = policy.p_r < 10.0 * p_min
    if not np.any(near_zero):
        return policy
    trial = policy.copy()
    trial.p_r[near_zero] = 0.0
    report = network_outage_report(config, trial, mode="exact")
    if np.all(report.pr_out <= threshold * (1.0 + 1e-6)):
        return trial
    return policy


def _nc_audit(config: ScenarioConfig, policy: Policy):
    feas = validate_policy(config, policy)
    report = network_outage_report(config, policy, mode="exact")
    from .model import energy_efficiency
    ee = energy_efficiency(config, policy, report.pr_out)
    return feas, report, ee


def dinkelbach_optimize(config: ScenarioConfig,
                        options: SolverOptions = None, *,
                        transfers: bool = True, depleted: bool = False,
                        tables_weights=None, relay_slot_factor: float = 1.0,
                        audit=None) -> SolveResult:
    """Maximize energy efficiency and audit the result with exact outage.

    The keyword switches select restricted variants used by the baseline
    policies: transfers=False removes inter-user energy transfer variables,
    depleted=True pins per-period consumption to per-period harvest.
    tables_weights and relay_slot_factor allow a different outage model
    (used by the orthogonal relaying baseline).  audit overrides the exact
    feasibility check; the default audits the network-coded outage.
    """
    options = options or SolverOptions()
    coeffs = compute_link_coefficients(config)
    q_tol = options.q_tol_abs(config)
    audit = audit or _nc_audit

    threshold = config.pr_out_0
    last_result = None
    for _attempt in range(1 + options.max_retries):
        problem = EEProblem(config, coeffs, options, threshold=threshold,
                            transfers=transfers, depleted=depleted,
                            tables_weights=tables_weights,
                            relay_slot_factor=relay_slot_factor)
        try:
            z = phase1(problem, options)
        except InfeasibleError as err:
            return SolveResult(status="infeasible",
                               binding_class=err.binding_class,
                               threshold_internal=threshold)
        energy, bits = problem.objective.energy_and_bits(
            z, problem.tables_at(z))
        q = max(bits, 0.0) / energy
        trace = []
        status = "max_iterations"
        total_iters = 0
        for _outer in range(options.max_outer):
            res = inner_solve(problem, q, z, options)
            z = res.z
            energy, bits = problem.objective.energy_and_bits(
                z, problem.tables_at(z))
            V = bits - q * energy
            trace.append((q, V, res.newton_iters))
            total_iters += res.newton_iters
            if abs(V) <= q_tol:
                status = "converged"
                break
            q = bits / energy

        # q_star is the achieved ratio of the approximate model at the
        # solver optimum, read off before cosmetic cleanup (which cannot be
        # represented in log coordinates once a relay snaps to zero).
        q_star = bits / energy
        policy = problem.extract_policy(z)
        if not depleted:
            # transfer netting changes per-period budgets, which would break
            # the depleted identity consumption == budget, so skip it there
            policy = _cleanup_transfers(config, policy)
        if tables_weights is None:
            # the snap test is phrased in terms of the network-coded outage,
            # so leave relays alone when a custom outage model is in use
            policy = _snap_relays(config, policy, config.pr_out_0,
                                  options.p_min)
        feas, outage_report, ee_exact = audit(config, policy)
        result = SolveResult(status=status, policy=policy, q_star=q_star,
                             trace=trace, feasibility=feas,
                             ee_exact=ee_exact,
                             e_tot=total_energy(
                                 config, policy,
                                 relay_slot_factor=relay_slot_factor),
                             outage_exact=outage_report,
                             threshold_internal=threshold,
                             newton_iters_total=total_iters)
        if feas.feasible:
            return result
        only_outage = all(v == 0.0 for cls, v in feas.worst.items()
                          if cls != "outage")
        last_result = result
        if not only_outage:
            result.status = "audit_failed"
            return result
        threshold *= 0.9

    last_result.status = "audit_failed"
    return last_result
