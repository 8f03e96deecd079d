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
Newton steps and a dense Cholesky factorization.  Each line-search trial
is one barrier pass with derivatives, and an accepted trial's gradient and
Hessian give the next Newton step, so no point is evaluated twice.  A
barrier stage ends when the Newton decrement is small or when the line
search's Armijo margin is below what the barrier value can resolve.  Only
a stage whose duality gap is read is centred tightly (NEWTON_TOL): the
last stage of an inner solve and a phase-1 stage that issues a
certificate.  Every other stage only has to bring the next one's start
near the central path, so it stops at STAGE_TOL (Boyd & Vandenberghe,
Sec. 11.3.1: computing x*(t) exactly at intermediate t is not necessary),
and phase 1 returns at its first iterate that clears the feasibility
margin.  Phase 1 and the first inner solve start their barrier paths at
t = T0 = 100, where the duality-gap estimate (constraint count / t) first
says something, from a start whose transfers sit at 1% of the energy cap,
near their centre: a full Newton step on -log z can at most double z, so a
start far below the centre costs one step per doubling.  Each later inner
solve starts from the previous solve's optimum at that solve's final t, so
it re-centres at the last stage instead of walking back to the t = T0
centre (Boyd & Vandenberghe, Convex Optimization, Sec. 9.5, 11.3, 11.3.1).
The outer loop stops once |bits - q * energy| <= q_tol(config); that
tolerance and the barrier method's are fixed, and no caller sets them.
Solutions are audited against the exact outage expression afterwards.

`optimize` is the entry point the CLI and the baselines use.  The periods
share their link statistics, power box and outage target, and only energy
causality couples them, so with causality dropped the problem is K copies
of one period, and a ratio of sums is at most the best per-period ratio
(Dinkelbach, Management Science 13(7), 1967).  `optimize` therefore first
solves one period with no causality rows and no transfers (M + N
variables), repeats those powers in every period with zero transfers and
audits the repetition on the full horizon.  A repetition that passes is
optimal for the full problem; any other outcome runs the full-horizon
solve of `dinkelbach_optimize` on the same outage tables and start level,
to the same result.  SolveResult.path names the path taken.  Where every
table binds at the relaxation's optimum, that optimum is the point of
least energy with every table at pr_out_0 (the Dinkelbach inner problem
differs from least energy only by the outage rows' multipliers), a few
Newton steps away; a repetition of it that breaks causality, or a
relaxation that full power cannot make feasible, skips the one-period
barrier solve.

A barrier pass assembles all periods and all rows at once.  Each outage
table is evaluated once for the whole (M+N, K) log-power matrix, giving
per-period values, gradients and (K, M+N, M+N) Hessians.  The box rows are
diagonal.  The causality rows (dense exponential and linear coefficient
matrices) and the outage rows, with phase 1's slack column, form one
Jacobian J of the soft rows, so their Hessian is one product
(J/d)^T (J/d) plus the causality curvature on the diagonal; each period's
table Hessians enter the Newton matrix in one scatter, weighted by the
objective's and the outage rows' shares together.  The rows are checked
box first, then causality, so a trial past either evaluates no table.
Every pass takes derivatives: the line search compares barrier_fgh values,
and an accepted trial's derivatives give the next Newton step.

The factorization is scipy.linalg.cho_factor, imported at the first one:
a process that never solves (`validate`, `simulate --policy`) never loads
SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import (
    P_MIN,
    TOL_FEAS,
    LinkCoefficients,
    Policy,
    ScenarioConfig,
    compute_link_coefficients,
    energy_efficiency,
    energy_ledger,
    outage_limit,
    total_energy,
    validate_policy,
)
from .outage import network_outage_report, outage_tables

INF = float("inf")
# A Newton stage has converged once its whole Armijo margin 0.25 * lambda^2
# is below this share of |f|: f cannot resolve further progress there.
F_RESOLUTION = 64.0 * np.finfo(float).eps
MAX_OUTER = 50          # Dinkelbach iterations
KKT_TOL = 1e-6          # duality-gap target of the barrier method
BARRIER_MU = 10.0       # barrier parameter growth factor
NEWTON_TOL = 1e-9       # half squared Newton decrement, certifying stages
STAGE_TOL = 0.25        # half squared Newton decrement, other stages
MAX_NEWTON = 80         # Newton iterations per barrier stage
T0 = 100.0              # initial barrier parameter, phase 1 included
PHASE1_MARGIN = 1e-3    # scaled strict-feasibility margin
LEAST_ENERGY_STEPS = 30  # Newton steps of the one-period least-energy point
# A least-energy user power this far over its causal limit (relative) is
# over it in the barrier solve too: on the bundled network and the (3, 8)
# benchmark networks the two agree to 1e-7 with the coded table and to
# 1e-5 with plain relaying's tables.
CAUSAL_RTOL = 1e-3


class InfeasibleError(Exception):
    """Raised when phase 1 certifies the constraint set has no interior."""

    def __init__(self, binding_class: str, detail: str = "",
                 newton_iters: int = 0):
        self.binding_class = binding_class
        self.detail = detail
        self.newton_iters = newton_iters    # phase-1 Newton iterations
        super().__init__(f"infeasible ({binding_class}) {detail}".strip())


def q_tol(config: ScenarioConfig) -> float:
    """The Dinkelbach stop: |numerator - q * denominator| in bits."""
    return 1e-6 * config.M * config.K * config.alpha0 * config.T


@dataclass
class Layout:
    """Flat variable vector: [user log powers, relay log powers, transfers].

    Transfers are indexed by ordered user pairs (i, j), i != j: row p of
    `pairs` is (i, j) and row p of `pair_mat` holds that pair's K
    coordinates.  The depleted variant pins user powers, so the user block
    may be absent.
    """

    M: int
    N: int
    K: int
    with_users: bool
    with_transfers: bool

    def __post_init__(self):
        M, N, K = self.M, self.N, self.K
        off = 0
        if self.with_users:
            self.user_idx = off + np.arange(M * K).reshape(M, K)
            off += M * K
        else:
            self.user_idx = None
        self.relay_idx = off + np.arange(N * K).reshape(N, K)
        off += N * K
        off_diag = ~np.eye(M if self.with_transfers else 0, dtype=bool)
        self.pairs = np.argwhere(off_diag)          # (P, 2), row-major
        self.pair_mat = off + np.arange(len(self.pairs) * K).reshape(-1, K)
        self.dim = off + self.pair_mat.size

    def transfer_array(self, z) -> np.ndarray:
        E = np.zeros((self.K, self.M, self.M))
        i, j = self.pairs.T
        E[:, i, j] = z[self.pair_mat].T
        return E


# ---------------------------------------------------------------------------
# constraint blocks
#
# Every inequality is written g(z) <= 0.  In phase 1 a soft row (causality
# or outage) is relaxed to g(z) <= s * sigma with a shared slack variable s
# appended to z; the barrier denominator is then (s * sigma - g) instead of
# (-g).  A block gives its row values; EEProblem._barrier assembles every
# block's barrier terms in one pass.


def _diagonal(H):
    """The diagonal of the square C-contiguous H as a writable view."""
    return H.reshape(-1)[::H.shape[0] + 1]


class Bounds:
    """Box lo < z < hi on every coordinate, as an (upper, lower) row pair
    z - hi <= 0, lo - z <= 0 each."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.n = 2 * self.lo.size

    def margins(self, z):
        """(coordinates, 2) barrier denominators hi - z and z - lo."""
        x = z[:self.lo.size]
        return np.column_stack([self.hi - x, x - self.lo])

    def values(self, z):
        return -self.margins(z).ravel()


class EnergyRows:
    """Causality rows g = C @ exp(z) + A @ z - rhs <= 0 of cumulative user
    spending, with C and A dense (rows, dim) over the problem's variables.

    exp is taken only on the columns C uses, so a large transfer
    coordinate cannot meet a zero coefficient as inf * 0.
    """

    def __init__(self, C, A, rhs):
        self.C, self.A, self.rhs = C, A, rhs
        self.n, self.dim = A.shape
        self.exp_cols = np.flatnonzero(C.any(axis=0))

    def terms(self, z):
        """(g, C * exp(z) entry by entry)."""
        e = np.zeros(self.dim)
        with np.errstate(over="ignore"):
            e[self.exp_cols] = np.exp(z[self.exp_cols])
        E = self.C * e
        return E.sum(axis=1) + self.A @ z[:self.dim] - self.rhs, E

    def values(self, z):
        return self.terms(z)[0]


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

    def add_hessians(self, H, weights):
        """H[idx[k], idx[k]] += sum_t weights[t, k] * hessians[t, k] for
        every period k in one scatter; the periods own disjoint
        variables."""
        H[self.idx[:, :, None], self.idx[:, None, :]] += (
            weights[..., None, None] * self.hessians).sum(axis=0)


class OutageCons:
    """Per-period outage constraints table(x_k) - thr <= 0, one row per
    (period, table), periods outermost."""

    def __init__(self, n, thr):
        self.n = n
        self.thr = float(thr)

    def values(self, ev):
        return (ev.values - self.thr).T.ravel()


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

    def _energy(self, z):
        """(total energy in J, its exponential terms exp_base * exp(z))."""
        with np.errstate(over="ignore"):
            e = self.exp_base * np.exp(z[self.exp_idx])
        energy = float(e.sum()) + self.energy_const
        if self.lin_cols.size:
            energy += float(self.lin_vals @ z[self.lin_cols])
        return energy, e

    def _lost_bits(self, ev):
        return float((self.table_bits[:, None] * ev.values).sum())

    def energy_and_bits(self, z, ev):
        """(total energy in J, expected delivered bits) at z."""
        return self._energy(z)[0], self.scale - self._lost_bits(ev)

    def fgh(self, z, q, ev, grad=None, H=None, t=1.0, hess_w=0.0):
        """t times the value at z.  With grad given, t times the gradient
        is added to grad and t times the Hessian to H; each period's table
        Hessians enter H in one scatter, weighted by t * table weight +
        hess_w (tables, K), so the outage rows can share it."""
        energy, e = self._energy(z)
        f = (self._lost_bits(ev) + q * energy) / self.scale * t
        if grad is None:
            return f
        c = t * q / self.scale
        grad[self.lin_cols] += c * self.lin_vals
        grad[self.exp_idx] += c * e
        _diagonal(H)[self.exp_idx] += c * e
        w = t / self.scale * self.table_bits[:, None]      # (tables, 1)
        grad[ev.idx] += (w[..., None] * ev.grads).sum(axis=0)
        ev.add_hessians(H, w + hess_w)
        return f


# ---------------------------------------------------------------------------
# problem assembly


def _coded_tables(coeffs: LinkCoefficients, M: int, N: int):
    """(tables, weights) of the network-coded outage: parts A and B as one
    table, which loses all M messages of a period."""
    return list(outage_tables(coeffs, M, N)), [float(M)]


class EEProblem:
    """One convex inner problem: layout, constraint blocks, objective.

    Period k sees the outage tables through its log powers x_k, users then
    relays.  In the standard variant these are plain variables.  The
    depleted variant pins user i's power in period k to its harvest over T,
    the initial battery counted in period 1, and has no transfers: its
    variables are the relay log powers, and its user rows of x_k are
    constants.  causality=False drops the causality rows and with them the
    transfers, the relaxation `optimize` solves on one period.
    """

    def __init__(self, config: ScenarioConfig, coeffs: LinkCoefficients,
                 *, transfers: bool = True, depleted: bool = False,
                 causality: bool = True, tables_weights=None):
        M, N, K = config.M, config.N, config.K
        self.config = config
        self.coeffs = coeffs
        self.depleted = depleted
        causality = causality and not depleted
        transfers = transfers and M > 1 and causality
        self.layout = Layout(M=M, N=N, K=K, with_users=not depleted,
                             with_transfers=transfers)
        lay = self.layout
        T = config.T

        if tables_weights is None:
            tables_weights = _coded_tables(coeffs, M, N)
        self.tables, self.table_weights = tables_weights

        # per-period harvest (J), the initial battery counted in period 1
        self.harvest = config.arrivals.copy()
        self.harvest[:, 0] += config.Eu_0
        if depleted:
            self.period_idx = lay.relay_idx.T
        else:
            self.period_idx = np.vstack([lay.user_idx, lay.relay_idx]).T

        # Bounds: log-power boxes first, then transfer boxes.
        lo, hi = math.log(P_MIN), math.log(config.p_max)
        total_energy_cap = float(config.arrivals.sum() + config.Eu_0.sum())
        self.e_cap = max(total_energy_cap * 1.001, 1e-3)
        n_power = lay.dim - lay.pair_mat.size
        self.bounds = Bounds(
            np.where(np.arange(lay.dim) < n_power, lo, 0.0),
            np.where(np.arange(lay.dim) < n_power, hi, self.e_cap))

        # Outage constraints: every table of every period under pr_out_0.
        self.outage_cons = OutageCons(K * len(self.tables), config.pr_out_0)
        self.n_con = self.bounds.n + self.outage_cons.n
        self.energy_rows = None
        if causality:
            # Cumulative causality, one row per (user, period): spending
            # and net transfers through period k within arrivals through k.
            # The depleted pin makes it hold automatically.
            through = np.tril(np.ones((K, K)))   # row k counts periods <= k
            C = np.zeros((M, K, lay.dim))
            A = np.zeros((M, K, lay.dim))
            for i in range(M):
                C[i][:, lay.user_idx[i]] = T * through
            sender, receiver = lay.pairs.T[:, :, None]   # (P, 1) by (P, K)
            A[sender, :, lay.pair_mat] += through.T
            A[receiver, :, lay.pair_mat] -= config.eta * through.T
            self.energy_rows = EnergyRows(
                C.reshape(M * K, -1), A.reshape(M * K, -1),
                np.cumsum(self.harvest, axis=1).ravel())
            self.n_con += self.energy_rows.n
        # row of the soft rows' Jacobian per (table, period): the outage
        # rows come after the causality rows, periods outermost
        n_tables = len(self.tables)
        self.outage_rows = (self.n_con - self.bounds.n - self.outage_cons.n
                            + n_tables * np.arange(K)[:, None]
                            + np.arange(n_tables)[:, None, None])

        # Objective pieces; the depleted users spend their whole harvest.
        exp_idx = list(lay.relay_idx.ravel())
        exp_base = [T] * (N * K)
        if depleted:
            energy_const = float(self.harvest.sum())
        else:
            energy_const = 0.0
            exp_idx += list(lay.user_idx.ravel())
            exp_base += [T] * (M * K)
        self.objective = Objective(
            M * K * config.alpha0 * T,
            [config.alpha0 * T * w for w in self.table_weights],
            exp_idx, exp_base, lay.pair_mat.ravel(),
            [1.0 - config.eta] * lay.pair_mat.size, energy_const)

        # phase-1 scaling per soft class
        self.soft_sigma = {
            "causality": max(1.0, total_energy_cap),
            "outage": config.pr_out_0,
        }

    # -- evaluation helpers -------------------------------------------------

    def tables_at(self, z, derivs=False):
        """Every outage table at every period of z, as one TableEval; its
        derivatives are taken with respect to the period's variables, so
        the depleted variant's pinned user rows drop out."""
        if self.depleted:
            x = np.vstack([np.log(self.harvest / self.config.T),
                           z[self.layout.relay_idx]])
        else:
            x = z[self.period_idx.T]
        if not derivs:
            return TableEval(np.array([tb.value(x) for tb in self.tables]),
                             self.period_idx)
        parts = [tb.value_grad_hess(x) for tb in self.tables]
        v = self.config.M if self.depleted else 0   # first variable row
        return TableEval(np.array([p[0] for p in parts]), self.period_idx,
                         np.array([p[1][v:].T for p in parts]),
                         np.array([p[2][:, v:, v:] for p in parts]))

    def _barrier(self, z, t, q=None, sig=None):
        """One barrier pass: (value, grad, H), or (INF, None, None) outside
        the domain.

        Without sig it is the inner barrier t * f0(z) + phi(z) at parameter
        q.  With sig (class -> slack scale) it is the phase-1 barrier
        t * s + phi(z, s) at z = [z, s].  The rows are checked in the order
        box, causality, outage, and the pass is INF at the first that
        fails, so outside the box or past a causality row no table is
        evaluated.

        The box rows are diagonal.  The causality and outage rows and the
        slack column form one Jacobian J, which adds J^T (1/d) to the
        gradient and (J/d)^T (J/d) to H over the rows' denominators d; the
        causality curvature goes on the diagonal, and each period's table
        Hessians enter H once, weighted by t * table weight + 1/d.
        """
        margins = self.bounds.margins(z)
        if not (margins > 0.0).all():
            return INF, None, None
        ds = [margins.ravel()]

        def inside(g, cls):
            """Append the rows' denominators; True when all are positive."""
            ds.append(-g if sig is None else z[-1] * sig[cls] - g)
            return (ds[-1] > 0.0).all()

        if self.energy_rows is not None:
            g, E = self.energy_rows.terms(z)
            if not inside(g, "causality"):
                return INF, None, None
        ev = self.tables_at(z, derivs=True)
        if not inside(self.outage_cons.values(ev), "outage"):
            return INF, None, None
        grad, H = np.zeros(z.size), np.zeros((z.size, z.size))
        hess_w = (1.0 / ds[-1]).reshape(ev.idx.shape[0], -1).T
        if sig is None:
            f = self.objective.fgh(z, q, ev, grad, H, t, hess_w)
        else:
            f = t * z[-1]
            grad[-1] = t
            ev.add_hessians(H, hess_w)
        for d in ds:
            f -= float(np.log(d).sum())
        inv = 1.0 / margins
        grad[:len(inv)] += inv[:, 0] - inv[:, 1]
        _diagonal(H)[:len(inv)] += inv[:, 0] ** 2 + inv[:, 1] ** 2
        J = np.zeros((self.n_con - self.bounds.n, z.size))
        J[self.outage_rows, ev.idx] = ev.grads
        if sig is not None:
            J[:, -1] = -sig["outage"]
        if self.energy_rows is not None:
            rows = self.energy_rows
            np.add(E, rows.A, out=J[:rows.n, :rows.dim])
            if sig is not None:
                J[:rows.n, -1] = -sig["causality"]
            _diagonal(H)[:rows.dim] += (1.0 / ds[1]) @ E
        J /= np.concatenate(ds[1:])[:, None]
        grad += J.sum(axis=0)
        H += J.T @ J
        return f, grad, H

    def barrier_fgh(self, z, q, t):
        return self._barrier(z, t, q)

    def barrier_value(self, z, q, t):
        # barrier_fgh's value by construction; no solver code calls it, and
        # it stays only because the benchmark's tracer wraps this name
        return self.barrier_fgh(z, q, t)[0]

    def soft_barrier_fgh(self, zs, t, sig):
        """Phase-1 barrier at zs = [z, s] with its derivatives; sig scales
        the slack per constraint class."""
        return self._barrier(zs, t, sig=sig)

    def constraint_values(self, z):
        """(soft class, g) per constraint block; g < 0 is strictly inside."""
        outage = [("outage", self.outage_cons.values(self.tables_at(z)))]
        if self.energy_rows is None:    # depleted or relaxed: none
            return outage
        return [("causality", self.energy_rows.values(z))] + outage

    def strictly_feasible(self, z) -> bool:
        if np.any(self.bounds.values(z) >= 0.0):
            return False
        return not any(np.any(g >= 0.0) for _, g in self.constraint_values(z))

    def _uniform_outage_level(self):
        """Log power level at which every outage posynomial sits at half
        the threshold when all nodes transmit at that common level.

        Found by 60 bisection steps (the posynomials are strictly
        decreasing in the common level), four at a time: the 15 mids of
        the next four levels of the bisection tree are the columns of one
        table call, and a column rounds like a call on that level alone.
        Returns the ceiling when even full power cannot reach the target:
        phase 1 then starts from the best uniform point available and
        certifies infeasibility properly.
        """
        cfg = self.config
        target = 0.5 * cfg.pr_out_0

        def above(levels):
            x = np.repeat([levels], cfg.M + cfg.N, axis=0)
            return np.max([t.value(x) for t in self.tables], axis=0) > target

        lo = math.log(10.0 * P_MIN)
        hi = math.log(0.999 * cfg.p_max)
        ceiling, floor = above([hi, lo])
        if ceiling:
            return hi
        if not floor:
            return lo
        for _ in range(15):
            # node i of the tree is the interval the loop reaches there;
            # its children 2i + 1 and 2i + 2 follow a mid above and below
            tree, mids = [(lo, hi)], []
            for node in range(15):
                a, b = tree[node]
                mids.append(0.5 * (a + b))
                tree += [(mids[-1], b), (a, mids[-1])]
            hits, node = above(mids), 0
            for _level in range(4):
                lo, hi = (mids[node], hi) if hits[node] else (lo, mids[node])
                node = 2 * node + (1 if hits[node] else 2)
        return hi

    def initial_point(self):
        """Interior point for the hard bounds; soft constraints may be
        violated here (phase 1 cleans that up).

        All powers start at the common level that parks the outage
        posynomials at half the threshold, so the stiff constraint class
        begins satisfied and phase 1 only has to negotiate the mildly
        scaled energy rows.  Transfers start at 1% of the energy cap,
        near their t = 1 centre (0.6-2.5 J on the (3, 8) benchmark
        networks), since a full Newton step at most doubles a transfer
        that starts below it.  The depleted variant's pinned user powers
        must lie inside the power box, or no point is feasible: a harvest
        at or below 1.01 * P_MIN * T, or at or above p_max * T, raises
        InfeasibleError.
        """
        cfg = self.config
        if self.depleted:
            outside = np.flatnonzero(np.any(
                (self.harvest <= P_MIN * cfg.T * 1.01)
                | (self.harvest >= cfg.p_max * cfg.T), axis=0))
            if outside.size:
                raise InfeasibleError(
                    "power_budget",
                    f"period {outside[0] + 1}: a user's harvest puts its "
                    f"power outside [P_MIN, p_max]")
        z = np.zeros(self.layout.dim)
        if self.layout.with_users:
            z[self.layout.user_idx.ravel()] = self.start_level
        z[self.layout.relay_idx.ravel()] = self.start_level
        z[self.layout.pair_mat] = 1e-2 * self.e_cap
        return z

    @cached_property
    def start_level(self) -> float:
        """The common log power of initial_point: the uniform outage level
        held inside the power box.  It depends on the tables, M, N,
        pr_out_0 and p_max only, so a problem over more periods with the
        same tables may take another's value."""
        lo, hi = math.log(P_MIN), math.log(self.config.p_max)
        margin = 1e-4 * (hi - lo)
        return float(np.clip(self._uniform_outage_level(),
                             lo + margin, hi - margin))

    def extract_policy(self, z) -> Policy:
        lay = self.layout
        if self.depleted:
            p_u = self.harvest / self.config.T
        else:
            p_u = np.exp(z[lay.user_idx])
        return Policy(p_u=p_u, p_r=np.exp(z[lay.relay_idx]),
                      transfers=lay.transfer_array(z))


# ---------------------------------------------------------------------------
# Newton / barrier engines


def _solve_newton_system(H, g):
    import scipy.linalg as sla
    n = H.shape[0]
    base = max(float(np.trace(H)) / n, 1e-300)
    jitter = 0.0
    for _ in range(14):
        try:
            M = H if jitter == 0.0 else H + jitter * base * np.eye(n)
            c = sla.cho_factor(M, lower=True, check_finite=False)
            return sla.cho_solve(c, g, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            if not np.isfinite(H).all():
                # no jitter mends a NaN or inf entry: return the NaN step
                # a potrf that passes NaN through gives, a stall either way
                return np.full_like(g, np.nan)
            jitter = 1e-12 if jitter == 0.0 else jitter * 100.0
    raise RuntimeError("Newton system could not be factorized")


def _damped_newton(z, fgh, tol, max_iter, stop=None):
    """Backtracking Newton on a barrier objective.

    A stage converges when half the squared Newton decrement lambda^2 is
    at most tol, or when the Armijo margin 0.25 * lambda^2 of a full step
    is at most F_RESOLUTION * |f|: below that the line search would only
    compare f's rounding errors (at t = 1e9 the barrier is about 1e9 and
    its last bits decide).  Each line-search trial is one fgh pass, and
    the accepted trial's (f, g, H) is the next step's, so no point is
    evaluated twice.  When stop is given, the stage ends at the first
    accepted iterate z with stop(z) true.  Returns (z, iters, converged);
    converged is False on a stall (line search exhausted or iteration
    cap) and on a stop, so callers can tell a minimizer from a stall.
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
        if 0.5 * lam2 <= tol or 0.25 * lam2 <= F_RESOLUTION * abs(f):
            converged = True
            break
        alpha = 1.0
        accepted = False
        while alpha >= 1e-14:
            zt = z - alpha * step
            trial = fgh(zt)
            if np.isfinite(trial[0]) and trial[0] <= f - 0.25 * alpha * lam2:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        z, (f, g, H) = zt, trial
        iters += 1
        if stop is not None and stop(z):
            break
    return z, iters, converged


@dataclass
class InnerResult:
    z: np.ndarray
    v_prime_norm: float     # objective value (normalized by scale)
    newton_iters: int
    t_final: float
    stalled_stages: int = 0  # stages that ended without converging


def inner_solve(problem: EEProblem, q: float, z0: np.ndarray,
                t0: float = T0) -> InnerResult:
    """Barrier path following for the convex inner problem at parameter q.

    z0 must be strictly feasible.  The path starts at barrier parameter t0
    and grows it by BARRIER_MU until the duality-gap estimate (constraint
    count / barrier parameter) is at or below KKT_TOL; it returns the
    point of that last stage, centred to NEWTON_TOL, whose gap the
    estimate reports.  The stages before it are centred only to
    STAGE_TOL: each just starts the next one near the central path.
    From T0 = 100 the path takes eight stages to t = 1e9 on the bundled
    network, seven of them loose.  Below T0 the estimate (about
    150-190 / t on the bundled and the (3, 8) benchmark networks) says
    nothing, and stages there would only walk toward the centre.  A
    start at the optimum of a nearby problem can pass that solve's
    t_final: its one stage, the last and tight one, then re-centres in
    place instead of walking back to the centre of t = T0.  Every stage
    runs on barrier_fgh alone: one pass per line-search trial.  A stage
    that stalls (line search exhausted or MAX_NEWTON reached) does not
    stop the path; it is counted in stalled_stages.
    """
    if not problem.strictly_feasible(z0):
        raise ValueError("inner_solve needs a strictly feasible start")
    z = z0.copy()
    t = t0
    total = stalled = 0
    while True:
        last = problem.n_con / t <= KKT_TOL
        z, it, converged = _damped_newton(
            z, lambda zz: problem.barrier_fgh(zz, q, t),
            NEWTON_TOL if last else STAGE_TOL, MAX_NEWTON)
        total += it
        stalled += not converged
        if last:
            break
        t *= BARRIER_MU
    return InnerResult(z=z, v_prime_norm=problem.objective.fgh(
                           z, q, problem.tables_at(z)),
                       newton_iters=total, t_final=t, stalled_stages=stalled)


def phase1(problem: EEProblem) -> tuple[np.ndarray, int]:
    """Find a strictly feasible point or certify infeasibility.

    Minimizes a shared scaled slack s over the soft constraints g <= s*sigma
    while keeping hard bounds exact.  Succeeds at the first Newton iterate
    whose s is below -PHASE1_MARGIN; declares infeasibility once the
    duality gap proves s* > 0.  The barrier path starts at t = T0, like
    the first inner solve's.  Its stages are centred to STAGE_TOL; a
    stage that would issue a certificate is centred again to NEWTON_TOL
    at the same t, and the certificate is read at that point.  Every
    stage runs on soft_barrier_fgh alone, one pass per line-search trial;
    an accepted iterate's pass is done before the margin test sees it.
    Returns (z, Newton iterations); the InfeasibleError carries its
    iterations too.
    """
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
    if float(svals.max()) < -PHASE1_MARGIN:
        return z, 0
    # the slack must exceed the worst violation by more than one ULP,
    # or the barrier evaluates ln(0) when violations are huge
    worst = float(svals.max())
    s0 = worst + max(1.0, 1e-9 * abs(worst))
    zs = np.append(z, s0)
    # the duality-gap certificate must count every barrier term, hard
    # bounds included, not just the softened rows
    n_ph1 = problem.n_con

    t = T0
    total = 0
    any_converged = False
    for _stage in range(24):
        for tol in (STAGE_TOL, NEWTON_TOL):
            zs, it, conv = _damped_newton(
                zs, lambda zz: problem.soft_barrier_fgh(zz, t, sig),
                tol, MAX_NEWTON, stop=lambda zz: zz[-1] < -PHASE1_MARGIN)
            total += it
            any_converged = any_converged or conv
            s = zs[-1]
            # the duality gap bounds the optimal slack, s* >= s - n/t, but
            # only at a converged central-path point (a stalled Newton
            # leaves s stale), so a loose stage that would certify is
            # centred again to NEWTON_TOL at this t, and that point decides
            infeasible = conv and s - n_ph1 / t > 0.0
            interior = conv and s < 0.0 and s - n_ph1 / t > -PHASE1_MARGIN
            if not (infeasible or interior):
                break
        if infeasible:
            break
        if s < -PHASE1_MARGIN or interior:
            # interior: strictly feasible, and provably no point clears
            # the full margin; pushing t further only drives the active
            # slacks below floating-point resolution
            return zs[:-1], total
        t *= BARRIER_MU
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
                          f"phase-1 slack {zs[-1]:.3e} (scaled)", total)


# ---------------------------------------------------------------------------
# Dinkelbach outer loop


@dataclass
class SolveResult:
    """Outcome of an energy-efficiency optimization run.

    status is one of converged, max_iterations, infeasible, audit_failed.
    audit_failed carries the policy that failed its one exact audit: the
    monomial tables bound exact outage from above, so a failure signals a
    defect, and there is no threshold retry.  q_star is the achieved
    bits-per-joule ratio of the approximate model; ee_exact re-evaluates
    the returned policy with exact outage.  trace holds one (q, V,
    newton_iterations) triple per outer iteration of the solve that
    produced the policy, and stalled_stages counts its inner barrier
    stages that ended without converging.  newton_iters_total sums the
    inner-solve counts and phase1_newton_iters phase 1's, on an infeasible
    result too; after a discarded one-period solve (optimize's fallback)
    both also count that solve's, so newton_iters_total then exceeds the
    trace's sum.  threshold_internal is the per-period outage bound the
    tables were solved for, pr_out_0.  path is "one_period" when the policy
    is `optimize`'s audited repetition of one period's optimum (its trace's
    V is then one period's bits) and "full" when a full-horizon solve
    produced it; the audit fields always cover the full horizon.
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
    phase1_newton_iters: int = 0
    stalled_stages: int = 0
    path: str = "full"

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
    E -= np.minimum(E, E.transpose(0, 2, 1))
    tiny = (E > 0.0) & (E < 1e-9)
    if np.any(tiny):
        trial = pol.copy()
        trial.transfers[tiny] = 0.0
        ledger = energy_ledger(config, trial)
        if np.all(trial.p_u * config.T - ledger.available <= TOL_FEAS):
            pol = trial
    return pol


def _snap_relays(config: ScenarioConfig, policy: Policy) -> Policy:
    """Zero relay powers that sit at the numerical floor, if exact outage
    still passes the audit's limit."""
    near_zero = policy.p_r < 10.0 * P_MIN
    if not np.any(near_zero):
        return policy
    trial = policy.copy()
    trial.p_r[near_zero] = 0.0
    report = network_outage_report(config, trial, mode="exact")
    if np.all(report.pr_out <= outage_limit(config)):
        return trial
    return policy


def _nc_audit(config: ScenarioConfig, policy: Policy):
    feas = validate_policy(config, policy)
    report = feas.outage_report
    ee = energy_efficiency(config, policy, report.pr_out)
    return feas, report, ee


def _solve(problem: EEProblem) -> tuple[SolveResult, np.ndarray]:
    """Phase 1 and the Dinkelbach iteration on one problem.

    Returns the result before its policy is extracted and audited, and the
    optimum z; z is None when phase 1 certified infeasibility.
    """
    config = problem.config
    try:
        z, phase1_iters = phase1(problem)
    except InfeasibleError as err:
        return SolveResult(status="infeasible",
                           binding_class=err.binding_class,
                           threshold_internal=config.pr_out_0,
                           phase1_newton_iters=err.newton_iters), None
    energy, bits = problem.objective.energy_and_bits(z, problem.tables_at(z))
    q = max(bits, 0.0) / energy
    v_tol = q_tol(config)
    trace = []
    status = "max_iterations"
    total_iters = stalled = 0
    # the phase-1 point is far from the central path, so the first solve
    # starts at T0; each later one starts at the last optimum
    t = T0
    for _outer in range(MAX_OUTER):
        res = inner_solve(problem, q, z, t)
        z, t = res.z, res.t_final
        energy, bits = problem.objective.energy_and_bits(
            z, problem.tables_at(z))
        V = bits - q * energy
        trace.append((q, V, res.newton_iters))
        total_iters += res.newton_iters
        stalled += res.stalled_stages
        if abs(V) <= v_tol:
            status = "converged"
            break
        q = bits / energy

    # q_star is the achieved ratio of the approximate model at the solver
    # optimum, read off before cosmetic cleanup (which cannot be
    # represented in log coordinates once a relay snaps to zero).
    return SolveResult(status=status, q_star=bits / energy, trace=trace,
                       threshold_internal=config.pr_out_0,
                       newton_iters_total=total_iters,
                       phase1_newton_iters=phase1_iters,
                       stalled_stages=stalled), z


def _audited(res: SolveResult, config: ScenarioConfig, policy: Policy,
             audit) -> SolveResult:
    """res with policy and its one exact audit on config filled in; a
    policy that fails the audit turns the status to audit_failed."""
    feas, outage_report, ee_exact = audit(config, policy)
    if not feas.feasible:
        res.status = "audit_failed"
    res.policy, res.feasibility = policy, feas
    res.ee_exact, res.outage_exact = ee_exact, outage_report
    res.e_tot = total_energy(config, policy)
    return res


def _full_horizon(problem: EEProblem, coded: bool, audit) -> SolveResult:
    """Solve problem over its whole horizon, clean the policy up and audit
    it once; coded says whether problem's tables are the network-coded
    ones, the only outage model whose relays may snap to zero."""
    config = problem.config
    res, z = _solve(problem)
    if z is None:
        return res
    policy = _cleanup_transfers(config, problem.extract_policy(z))
    if coded:
        # the snap test is phrased in terms of the network-coded outage, so
        # leave relays alone when a custom outage model is in use
        policy = _snap_relays(config, policy)
    return _audited(res, config, policy, audit)


def dinkelbach_optimize(config: ScenarioConfig, *,
                        transfers: bool = True, depleted: bool = False,
                        tables_weights=None, audit=None) -> SolveResult:
    """Maximize energy efficiency over the full horizon and audit the
    result with exact outage.

    One pass: build the problem, find a strictly feasible point (phase 1),
    run the Dinkelbach iteration, clean the policy up and audit it once.
    The solve holds every table under pr_out_0, and each table bounds its
    exact outage from above, so a policy that fails the audit is returned
    as audit_failed, a defect to report rather than retry.

    The keyword switches select restricted variants used by the baseline
    policies: transfers=False removes inter-user energy transfer variables;
    depleted=True pins each user's per-period consumption to its
    per-period harvest and builds no transfer variables, whatever
    transfers says.
    tables_weights allows a different outage model (used by the orthogonal
    relaying baseline).  audit overrides the exact feasibility check; the
    default audits the network-coded outage.
    """
    problem = EEProblem(config, compute_link_coefficients(config),
                        transfers=transfers, depleted=depleted,
                        tables_weights=tables_weights)
    return _full_horizon(problem, tables_weights is None, audit or _nc_audit)


def _least_energy_point(problem: EEProblem):
    """Log powers of the one-period relaxation's optimum, without the
    barrier, when every outage table binds there; None otherwise.

    problem is the relaxation (no causality rows, no transfers).  Newton
    on the optimality conditions of the least energy T * sum(exp(x)) with
    every log table at log pr_out_0, one multiplier mu per table, from the
    start level.  That point is the relaxation's energy-efficiency
    optimum when it lies inside the power box and q * mu >= lost bits *
    pr_out_0 for every table, at its own ratio q: then it solves the
    Dinkelbach inner problem at q (convex in log powers) with value zero,
    the table rows taking the rest of each multiplier.  None when Newton
    does not settle in LEAST_ENERGY_STEPS steps, leaves the box, or a
    multiplier falls short.
    """
    config = problem.config
    T, thr, n = config.T, config.pr_out_0, problem.layout.dim
    lo, hi = math.log(P_MIN), math.log(config.p_max)
    x = np.full(n, problem.start_level)
    mu = None
    for _ in range(LEAST_ENERGY_STEPS):
        parts = [tb.value_grad_hess(x) for tb in problem.tables]
        v = np.array([p[0] for p in parts])
        e = T * np.exp(x)
        with np.errstate(all="ignore"):    # a table at 0 or inf: no point
            G = np.array([p[1] for p in parts]) / v[:, None]  # d log table
            r = np.log(v / thr)
        try:
            if mu is None:    # least squares for e + G^T mu = 0
                mu = np.linalg.solve(G @ G.T, -G @ e)
            r = np.concatenate([e + G.T @ mu, r])
            if not np.isfinite(r).all():
                return None
            if np.abs(r).max() <= 1e-10 * e.max():
                break
            K = np.zeros((n + len(v), n + len(v)))
            K[:n, :n] = np.diag(e) + sum(
                m * (p[2] / vt - np.outer(g, g))
                for m, p, vt, g in zip(mu, parts, v, G))
            K[:n, n:], K[n:, :n] = G.T, G
            d = np.linalg.solve(K, -r)
        except np.linalg.LinAlgError:
            return None
        step = min(1.0, 1.0 / max(np.abs(d[:n]).max(), 1e-300))
        x, mu = x + step * d[:n], mu + step * d[n:]
        if not ((x > lo) & (x < hi)).all():
            return None
    else:
        return None
    energy, bits = problem.objective.energy_and_bits(x, problem.tables_at(x))
    if not (bits / energy * mu >= problem.objective.table_bits * thr).all():
        return None
    return x


def _causal_limit(config: ScenarioConfig) -> np.ndarray:
    """Each user's largest power that a repetition with no transfers can
    spend in every period: min over k of its harvest through period k,
    the initial battery included, over k * T."""
    through = np.cumsum(config.arrivals, axis=1) + config.Eu_0[:, None]
    return (through / (config.T * np.arange(1, config.K + 1))).min(axis=1)


def _one_period_may_pass(config: ScenarioConfig, problem: EEProblem) -> bool:
    """False when the one-period solve of the relaxation problem is known
    to end in a discard: no power in the box holds every table under
    pr_out_0 (each table is at its least with every node at p_max), or
    the relaxation's least-energy optimum puts a user more than
    CAUSAL_RTOL over its causal limit."""
    top = np.full(problem.layout.dim, math.log(config.p_max))
    if any(tb.value(top) > config.pr_out_0 for tb in problem.tables):
        return False
    x = _least_energy_point(problem)
    return x is None or bool((np.exp(x[:config.M]) <= _causal_limit(config)
                              * (1.0 + CAUSAL_RTOL)).all())


def optimize(config: ScenarioConfig, *, transfers: bool = True,
             tables_weights=None, audit=None) -> SolveResult:
    """Maximize energy efficiency: one period first, the full horizon when
    causality binds.

    The one-period relaxation keeps the box and the outage rows and drops
    causality and transfers; neither eta nor the arrivals enter it.  Its
    optimum, repeated in every period with zero transfers, is audited once
    on the full horizon with the caller's audit.  A repetition that passes
    is returned with path "one_period": it attains the relaxation's bound,
    so it is optimal with transfers or without.  Any other outcome (the
    one-period solve infeasible, stopped at max_iterations, raising
    RuntimeError, or the repetition failing the audit) returns what
    dinkelbach_optimize(config, ...) returns with the same arguments, so
    every status, binding class and policy is the full solve's; only its
    Newton counts also include the discarded one-period solve's.

    Most of those discards are known before the solve, which is then
    skipped (_one_period_may_pass): a table above pr_out_0 with every
    node at p_max leaves the relaxation infeasible, and otherwise the
    relaxation's optimum is its least-energy point when every table
    binds there (_least_energy_point, a few Newton steps on M + N +
    tables unknowns), whose user powers may exceed their causal limit.  The full solve reuses the one-period problem's outage
    tables and start level (neither depends on K).  The depleted variant
    pins powers per period and is not stationary: it has no one-period
    path.
    """
    M, K = config.M, config.K
    coeffs = compute_link_coefficients(config)
    coded = tables_weights is None
    if coded:
        tables_weights = _coded_tables(coeffs, M, config.N)
    audit = audit or _nc_audit
    one = EEProblem(config.replace(K=1, arrivals=np.zeros((M, 1))), coeffs,
                    causality=False, tables_weights=tables_weights)
    res = z = None
    if _one_period_may_pass(config, one):
        try:
            res, z = _solve(one)
        except RuntimeError:
            res = z = None
    if res is not None and res.status == "converged":
        period = one.extract_policy(z)
        policy = Policy(p_u=np.repeat(period.p_u, K, axis=1),
                        p_r=np.repeat(period.p_r, K, axis=1),
                        transfers=np.zeros((K, M, M)))
        if coded:
            policy = _snap_relays(config, policy)
        res = _audited(res, config, policy, audit)
        if res.status == "converged":
            res.path = "one_period"
            return res
    problem = EEProblem(config, coeffs, transfers=transfers,
                        tables_weights=tables_weights)
    problem.start_level = one.start_level
    full = _full_horizon(problem, coded, audit)
    if res is not None:
        full.newton_iters_total += res.newton_iters_total
        full.phase1_newton_iters += res.phase1_newton_iters
    return full
