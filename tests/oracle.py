"""Exhaustive grid-search oracle the optimizer is checked against.

Grid search over transmit powers with energy transfers completed greedily
by the uniform baseline's just-in-time rule; exact outage throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from eecoop.baselines import _just_in_time
from eecoop.model import (
    Policy,
    ScenarioConfig,
    energy_efficiency,
    link_b_factors,
    link_outage,
    outage_limit,
)
from eecoop.outage import (
    network_outage_exact,
    network_outage_report,
    relay_miss_prob,
)

# grid-oracle cells evaluated at once (a block of first-axis rows)
_MESH_SLICE_CELLS = 1 << 16


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
    pe_u = link_outage(config.m,
                       f_u[:, :, None, None] / grids[:config.M, None])
    pe_r = link_outage(config.m, f_r[:, None, None] / grids[config.M:])
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
                out_ok = out_ok & (out_k <= outage_limit(config))
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
