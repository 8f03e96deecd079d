"""Reference policies the optimizer is compared against.

Four cheap baselines: per-period depleted energy use, no inter-user
transfers, uniform power, and decode-and-forward relaying without network
coding.  All but the depleted one solve through solver.optimize, one
period first; the depleted one pins user powers per period, so it solves
the full horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    Policy,
    ScenarioConfig,
    compute_link_coefficients,
    energy_efficiency,
    outage_limit,
    total_energy,
    validate_policy,
)
from .outage import (
    OutageReport,
    build_outage_tables,
    network_outage_exact,
    network_outage_report,
)
from .solver import SolveResult, dinkelbach_optimize, optimize


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


def no_transfer_policy(config: ScenarioConfig,
                       optimized: SolveResult = None) -> SolveResult:
    """Optimized powers with inter-user energy transfer disabled.

    optimized is an optional optimize(config) result of the same scenario.
    Its one-period relaxation has no transfers, so it is this baseline's
    relaxation too: a result on the one_period path is returned as is, and
    after a full-path result the one-period solve, which would end the
    same way, is skipped for the full transfer-free solve.
    """
    if optimized is None:
        return optimize(config, transfers=False)
    if optimized.path == "one_period":
        return optimized
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
        relay_powers_from = optimize(config)
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
    outage_ok = bool(np.all(outage.pr_out <= outage_limit(config)))
    return PolicyEvaluation(
        method="uniform_power",
        status="ok" if report.feasible else "audit_failed",
        policy=policy, ee=ee, pr_out=outage.pr_out,
        e_tot=total_energy(config, policy), feasible=report.feasible,
        extra={"level": level, "outage_ok": outage_ok})


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


def _nonc_audit(config: ScenarioConfig, policy: Policy):
    feas = validate_policy(config, policy, check_outage=False)
    report = _per_user_report(config, policy)
    out = report.pr_out
    over = float(np.max(out - outage_limit(config), initial=0.0))
    if over > 0.0:
        feas.worst["outage"] = over
        feas.feasible = False
        feas.messages.append(f"per-user outage exceeds target by {over:.3e}")
    e_tot = total_energy(config, policy)
    bits = config.alpha0 * config.T * float((1.0 - out).sum())
    return feas, report, bits / e_tot


def nonc_df_arguments(config: ScenarioConfig) -> dict:
    """The solver keywords of plain relaying: one table per user (the A+B
    table of the one-user network of user i and its relays) and the
    per-user audit.  Needs N >= M."""
    M, N = config.M, config.N
    coeffs = compute_link_coefficients(config)
    tables = [build_outage_tables(coeffs, M, N, parts=("AB",),
                                  group=([i], relays))[0]
              for i, relays in enumerate(relay_assignment(M, N))]
    return {"tables_weights": (tables, [1.0] * M), "audit": _nonc_audit}


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
    if config.N < config.M:
        return SolveResult(status="infeasible", binding_class="outage")
    return optimize(config, **nonc_df_arguments(config))
