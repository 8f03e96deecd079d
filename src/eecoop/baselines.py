"""Reference policies the optimizer is compared against.

Four cheap baselines (per-period depleted energy use, no inter-user
transfers, uniform power, decode-and-forward relaying without network
coding) and one expensive oracle: exhaustive grid search over transmit
powers with energy transfers completed greedily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammainc

from .model import (
    OUTAGE_AUDIT_RTOL,
    Policy,
    ScenarioConfig,
    compute_link_coefficients,
    energy_efficiency,
    link_b_factors,
    total_energy,
    validate_policy,
)
from .outage import (
    OutageReport,
    build_outage_tables,
    network_outage_exact,
    network_outage_report,
    relay_miss_prob,
)
from .solver import SolveResult, dinkelbach_optimize

# grid-oracle cells evaluated at once (a block of first-axis rows)
_MESH_SLICE_CELLS = 1 << 16


@dataclass
class PolicyEvaluation:
    """A policy together with its audited performance."""

    method: str
    status: str                  # ok | infeasible | audit_failed
    policy: Policy = None
    ee: float = None             # exact-outage energy efficiency, bits/J
    pr_out: np.ndarray = None    # exact outage used for the audit
    e_tot: float = None          # J
    feasible: bool = False
    extra: dict = field(default_factory=dict)


def no_transfer_policy(config: ScenarioConfig) -> SolveResult:
    """Optimized powers with inter-user energy transfer disabled."""
    return dinkelbach_optimize(config, transfers=False)


def depleted_energy_policy(config: ScenarioConfig) -> SolveResult:
    """Users spend each period exactly what that period provides.

    Each user's power is pinned to its per-period harvest over T (the
    initial battery counts in period 1), so no energy is banked between
    periods and none moves between users; relay powers are still
    optimized.  The gap between this baseline and the transfer-free
    optimum then isolates the value of scheduling energy across periods.
    """
    return dinkelbach_optimize(config, depleted=True)


def uniform_power_policy(config: ScenarioConfig,
                         relay_powers_from=None) -> PolicyEvaluation:
    """Every user transmits the horizon-average power in every period.

    The level spreads the total harvested arrivals over all user slots
    (capped at the power ceiling) and is made causal, where possible, by
    just-in-time transfers from users in surplus; the initial battery is
    the only slack that can pay for transfer losses.  Relay powers are not
    re-derived: they come from a reference optimized solve unless given.
    The outage target plays no role in the construction; the realized
    outage is reported as-is.
    """
    M, K, T = config.M, config.K, config.T
    level = min(float(config.arrivals.sum()) / (M * K * T), config.p_max)
    if relay_powers_from is None:
        relay_powers_from = dinkelbach_optimize(config)
    if isinstance(relay_powers_from, SolveResult):
        if relay_powers_from.status == "infeasible":
            return PolicyEvaluation(
                method="uniform_power", status="infeasible",
                extra={"binding_class": relay_powers_from.binding_class,
                       "reason": "reference solve infeasible"})
        relay_powers = relay_powers_from.policy.p_r
    elif isinstance(relay_powers_from, Policy):
        relay_powers = relay_powers_from.p_r
    else:
        relay_powers = relay_powers_from
    relay_powers = np.asarray(relay_powers, dtype=float)
    if relay_powers.shape != (config.N, K):
        raise ValueError("relay powers must have shape (N, K)")

    p_u = np.full((M, K), level)
    transfers = _just_in_time_transfers(config, p_u)
    if transfers is None:
        return PolicyEvaluation(method="uniform_power", status="infeasible",
                                extra={"binding_class": "causality",
                                       "reason": "deficits not coverable",
                                       "level": level})
    policy = Policy(p_u=p_u, p_r=relay_powers.copy(), transfers=transfers)
    report = validate_policy(config, policy, check_outage=False)
    outage = network_outage_report(config, policy, mode="exact")
    ee = energy_efficiency(config, policy, outage.pr_out)
    limit = config.pr_out_0 * (1.0 + OUTAGE_AUDIT_RTOL)
    return PolicyEvaluation(
        method="uniform_power",
        status="ok" if report.feasible else "audit_failed",
        policy=policy, ee=ee, pr_out=outage.pr_out,
        e_tot=total_energy(config, policy), feasible=report.feasible,
        extra={"level": level,
               "outage_ok": bool(np.all(outage.pr_out <= limit))})


def _just_in_time(config: ScenarioConfig, need):
    """Cover per-period deficits with transfers from users in surplus.

    need[i][k] is user i's energy use in period k, in J: a float, or an
    array broadcast over a mesh of schedules, each cell of which is then
    completed on its own.  Works period by period: each user short of
    energy pulls the missing amount (scaled by 1/eta) from donors in index
    order, donors keeping enough for their own transmission.  Deficits are
    met the moment they occur, which wastes no energy on transfers that
    later turn out to be unnecessary; a deficit of at most 1e-15 J is
    rounding dust and draws nothing.  Returns (feasible, loss, draws):
    whether every deficit was covered to within 1e-12 J, the energy lost
    in transfers (J), and draws[k][j][i], what user j sends user i in
    period k (0.0 for j == i).
    """
    M, K, eta = config.M, config.K, config.eta
    battery = list(config.Eu_0)
    feasible, loss, draws = True, 0.0, []

    def deficit(i, k):
        short = need[i][k] - battery[i]
        return np.where(short > 1e-15, short, 0.0)

    for k in range(K):
        battery = [b + config.arrivals[i, k] for i, b in enumerate(battery)]
        draws.append([[0.0] * M for _ in range(M)])
        for i in range(M):
            for j in range(M):
                if j == i:
                    continue
                spare = np.maximum(battery[j] - need[j][k], 0.0)
                draw = np.minimum(spare, deficit(i, k) / eta)
                battery[j] = battery[j] - draw
                battery[i] = battery[i] + eta * draw
                loss = loss + (1.0 - eta) * draw
                draws[k][j][i] = draw
            feasible = feasible & (deficit(i, k) <= 1e-12)
        battery = [np.maximum(b - need[i][k], 0.0)
                   for i, b in enumerate(battery)]
    return feasible, loss, draws


def _just_in_time_transfers(config: ScenarioConfig, p_u: np.ndarray):
    """The (K, M, M) just-in-time transfer array for user powers p_u, or
    None when some deficit cannot be covered."""
    feasible, _, draws = _just_in_time(config, p_u * config.T)
    return np.array(draws, dtype=float) if feasible else None


# ---------------------------------------------------------------------------
# decode-and-forward relaying without network coding


def relay_assignment(M: int, N: int):
    """Round-robin partition of the N relays among the M users.

    Without network coding a relay transmission carries one user's message,
    so the N second-hop slots are divided among the users: relay j serves
    user j mod M.  Requires N >= M so every user has at least one relay.
    """
    if N < M:
        raise ValueError(f"plain relaying needs at least one relay per "
                         f"user, got N={N} < M={M}")
    return [[j for j in range(N) if j % M == i] for i in range(M)]


def _per_user_report(config: ScenarioConfig,
                     policy: Policy) -> OutageReport:
    """Exact outage of per-message DF relaying: pr_out, pr_A and pr_B hold
    one row per user, shape (M, K).

    User i and its relays form a one-user network, whose message is lost
    in a period iff every relay either fails to decode it or fails its
    forwarding slot: network_outage_exact with M = 1, user i's per-link
    outages standing for the relays' misses.
    """
    rep = network_outage_report(config, policy, mode="exact")
    per_user = np.array([
        network_outage_exact(rep.pe_user[i, relays], rep.pe_relay[relays], 1)
        for i, relays in enumerate(relay_assignment(config.M, config.N))])
    pr_out, pr_A, pr_B = per_user.transpose(1, 0, 2)
    return replace(rep, pr_out=pr_out, pr_A=pr_A, pr_B=pr_B)


def per_user_outage_exact(config: ScenarioConfig, policy: Policy):
    """Exact per-user outage, shape (M, K), for per-message DF relaying."""
    return _per_user_report(config, policy).pr_out


def _nonc_audit(config: ScenarioConfig, policy: Policy):
    feas = validate_policy(config, policy, check_outage=False)
    report = _per_user_report(config, policy)
    out = report.pr_out
    limit = config.pr_out_0 * (1.0 + OUTAGE_AUDIT_RTOL)
    over = float(np.max(out - limit, initial=0.0))
    if over > 0.0:
        feas.worst["outage"] = over
        feas.feasible = False
        feas.messages.append(f"per-user outage exceeds target by {over:.3e}")
    e_tot = total_energy(config, policy)
    bits = config.alpha0 * config.T * float((1.0 - out).sum())
    return feas, report, bits / e_tot


def nonc_df_policy(config: ScenarioConfig) -> SolveResult:
    """Energy-efficiency optimum of plain decode-and-forward relaying.

    Without network coding a relay transmission carries a single user's
    message, so the second-hop slots are partitioned among the users
    (relay_assignment) and the outage target applies to every user
    separately.  Channel uses and energy slots match the network-coded
    protocol: every relay still transmits once per period.

    User i and its relays form a one-user network, so its outage is that
    network's A+B event, the product over its relays of (f_j + g_j): its
    table is the network-coded one of the group ([i], relays), and its
    exact outage network_outage_exact with M = 1.  The returned result's
    outage report holds one row per user.  With fewer relays than users
    some user has no relay and loses its message with probability one, so
    the result is infeasible with binding class outage.
    """
    M, N = config.M, config.N
    if N < M:
        return SolveResult(status="infeasible", binding_class="outage")
    coeffs = compute_link_coefficients(config)
    tables = [build_outage_tables(coeffs, M, N, parts=("AB",),
                                  group=([i], relays))[0]
              for i, relays in enumerate(relay_assignment(M, N))]
    return dinkelbach_optimize(config, tables_weights=(tables, [1.0] * M),
                               audit=_nonc_audit)


# ---------------------------------------------------------------------------
# brute-force grid oracle


@dataclass
class GridSpec:
    """Search controls for the exhaustive oracle."""

    points_per_dim: int = None   # default: sized to keep a round ~2e6 cells
    refine_rounds: int = 4
    shrink: float = 0.15         # log-range contraction per refinement
    p_floor: float = 1e-3        # W, lower edge of the first round
    cell_budget: float = 2e6     # target mesh size for the default sizing,
                                 # and the cap on an explicit one


@dataclass
class BruteForceResult:
    """Best feasible grid point and search bookkeeping."""

    status: str                  # ok | infeasible
    policy: Policy = None
    ee: float = None
    pr_out: np.ndarray = None
    evaluations: int = 0
    feasible: bool = False


def _per_link_pe_grids(config: ScenarioConfig, grids):
    """Exact per-link outage along each power axis.

    grids[n * K + k] is node n's period-k grid, users then relays.
    Returns pe_u[i, j, k] with shape (npts,) for user i's link to relay j
    on user i's period-k grid, and pe_r[j, k] with shape (npts,) on relay
    j's period-k grid.
    """
    f_u, f_r = link_b_factors(config)
    grids = np.reshape(grids, (config.M + config.N, config.K, -1))
    pe_u = gammainc(config.m, f_u[:, :, None, None] / grids[:config.M, None])
    pe_r = gammainc(config.m, f_r[:, None, None] / grids[config.M:])
    return pe_u, pe_r


def grid_dimension_guard(config: ScenarioConfig) -> int:
    """Nominal search dimension count; must stay at or below eight.

    Counts the power dimensions plus the net transfer schedule dimensions
    that the greedy completion replaces.
    """
    M, N, K = config.M, config.N, config.K
    return (M - 1) ** 2 * K + M * K + N * K


def brute_force_optimize(config: ScenarioConfig, grid: GridSpec = None,
                         enforce_outage: bool = True) -> BruteForceResult:
    """Exhaustive search over log-spaced power grids with refinement.

    Grids cover every (user, period) and (relay, period) power; inter-user
    transfers are not gridded but completed greedily (just-in-time, which
    is loss-optimal for two users).  Exact outage is used throughout.
    Each refinement round contracts every axis range around the incumbent.
    """
    grid = grid or GridSpec()
    M, N, K, T = config.M, config.N, config.K, config.T
    if grid_dimension_guard(config) > 8:
        raise ValueError(
            f"brute force limited to 8 nominal search dimensions, got "
            f"{grid_dimension_guard(config)}")
    ndim = (M + N) * K
    npts = grid.points_per_dim
    if npts is None:
        npts = max(4, min(64, int(round(grid.cell_budget ** (1.0 / ndim)))))
    elif npts ** ndim > grid.cell_budget:
        raise ValueError(
            f"{npts} points on {ndim} axes make {npts ** ndim} cells, above "
            f"the cell budget of {grid.cell_budget:g}")

    # one power axis per (node, period): node n, period k on axis
    # n * K + k, users first
    lo = np.full(ndim, grid.p_floor)
    hi = np.full(ndim, config.p_max)

    def on_axis(arr, ax, rows):
        if ax == 0:
            arr = arr[rows]
        view = [1] * ndim
        view[ax] = arr.shape[-1]
        return arr.reshape(view)

    def mesh_ee(rows, grids, pe_u, pe_r):
        """EE over the mesh cells whose first-axis index is in rows."""
        shape = (grids[0][rows].size,) + (npts,) * (ndim - 1)
        spend = [on_axis(grids[ax] * T, ax, rows) for ax in range(ndim)]
        causal_ok, loss, _ = _just_in_time(
            config, [spend[i * K:(i + 1) * K] for i in range(M)])
        bits = np.zeros(())
        out_ok = np.ones((), dtype=bool)
        for k in range(K):
            miss_list = []
            per_list = []
            for j in range(N):
                miss_j = relay_miss_prob([on_axis(pe_u[i, j, k], i * K + k,
                                                  rows) for i in range(M)])
                miss_list.append(np.broadcast_to(miss_j, shape))
                per_list.append(np.broadcast_to(
                    on_axis(pe_r[j, k], (M + j) * K + k, rows), shape))
            out_k = network_outage_exact(np.stack(miss_list),
                                         np.stack(per_list), M)[0]
            bits = bits + config.alpha0 * T * M * (1.0 - out_k)
            if enforce_outage:
                out_ok = out_ok & (out_k <= config.pr_out_0
                                   * (1.0 + OUTAGE_AUDIT_RTOL))
        mask = np.broadcast_to(causal_ok & out_ok, shape)
        return np.where(mask, bits / (sum(spend) + loss), -np.inf)

    # the mesh is evaluated a block of first-axis rows at a time, so no
    # per-cell array spans the whole mesh; rows ascend and only a strictly
    # larger value replaces the round's best, which keeps argmax's
    # first-index tie-breaking over the whole mesh
    step = max(1, _MESH_SLICE_CELLS // npts ** (ndim - 1))
    best = None
    best_ee = -np.inf
    evaluations = 0
    for _round in range(grid.refine_rounds):
        grids = [np.exp(np.linspace(math.log(lo[ax]), math.log(hi[ax]), npts))
                 for ax in range(ndim)]
        pe_u, pe_r = _per_link_pe_grids(config, grids)
        evaluations += npts ** ndim

        round_ee = -np.inf
        multi = None
        for start in range(0, npts, step):
            rows = slice(start, start + step)
            ee = mesh_ee(rows, grids, pe_u, pe_r)
            idx = int(np.argmax(ee))
            if ee.flat[idx] > round_ee:
                round_ee = float(ee.flat[idx])
                multi = np.unravel_index(idx, ee.shape)
                multi = (start + multi[0],) + multi[1:]
        if not np.isfinite(round_ee):
            continue  # nothing feasible on this mesh; keep the same range
        if round_ee > best_ee:
            best_ee = round_ee
            best = np.array([g[n] for g, n in zip(grids, multi)])

        for ax in range(ndim):
            width = (math.log(hi[ax]) - math.log(lo[ax])) * grid.shrink
            c = math.log(best[ax])
            lo[ax] = max(grid.p_floor * 1e-3, math.exp(c - width / 2))
            hi[ax] = min(config.p_max, math.exp(c + width / 2))

    if best is None:
        return BruteForceResult(status="infeasible", evaluations=evaluations)
    p_u = best[:M * K].reshape(M, K)
    # the rule that marked this cell causal, on the cell's powers alone
    transfers = np.array(_just_in_time(config, p_u * T)[2], dtype=float)
    policy = Policy(p_u=p_u, p_r=best[M * K:].reshape(N, K),
                    transfers=transfers)
    rep = network_outage_report(config, policy, mode="exact")
    ee = energy_efficiency(config, policy, rep.pr_out)
    return BruteForceResult(status="ok", policy=policy, ee=ee,
                            pr_out=rep.pr_out, evaluations=evaluations,
                            feasible=True)
