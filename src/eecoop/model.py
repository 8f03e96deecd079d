"""Scenario description, policies, exact per-link outage, energy accounting
and feasibility checks.

Conventions used throughout the package:
  * M users transmit to a common destination through N decode-and-forward
    relays that combine the user messages with a maximum-diversity network
    code.  Time is slotted into K transmission periods of T seconds each.
  * Powers are in watts, energies in joules, rates in bits/s, bandwidth in Hz.
  * Squared channel envelopes follow a gamma law with shape m and mean omega
    (Nakagami-m magnitude fading), and path loss is d**(-beta).
  * arrays are indexed [user, relay], [user, period] or [period, from, to].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .outage import OutageReport


def _as_float_array(x, shape, name):
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass
class ScenarioConfig:
    """Full description of one network instance.

    Matrix entries follow [user, relay] for the first hop and plain relay
    vectors for the relay-to-destination hop.  arrivals[i, k] is the energy
    (J) harvested by user i at the start of period k; Eu_0[i] is energy
    already stored before the first period.
    """

    M: int                 # number of users
    N: int                 # number of relays
    K: int                 # number of transmission periods
    B: float               # bandwidth, Hz
    alpha0: float          # per-user target rate, bits/s
    T: float               # period duration, s
    p_max: float           # transmit power ceiling, W
    eta: float             # inter-user energy transfer efficiency, (0, 1]
    m: float               # fading shape parameter, >= 0.5
    omega_h: np.ndarray    # (M, N) mean squared envelope, user -> relay
    d_h: np.ndarray        # (M, N) distance, user -> relay
    beta_h: np.ndarray     # (M, N) path-loss exponent, user -> relay
    N0_h: np.ndarray       # (M, N) noise spectral density at relay, W/Hz
    omega_g: np.ndarray    # (N,) mean squared envelope, relay -> destination
    d_g: np.ndarray        # (N,) distance, relay -> destination
    beta_g: np.ndarray     # (N,) path-loss exponent, relay -> destination
    N0_g: np.ndarray       # (N,) noise spectral density at destination, W/Hz
    arrivals: np.ndarray   # (M, K) harvested energy per period, J
    pr_out_0: float        # network outage probability target per period
    Eu_0: np.ndarray = None  # (M,) initial battery, J; defaults to zeros

    def __post_init__(self):
        for name in ("M", "N", "K"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            setattr(self, name, int(v))
        for name in ("B", "alpha0", "T", "p_max"):
            v = float(getattr(self, name))
            if not v > 0:
                raise ValueError(f"{name} must be > 0, got {v}")
            setattr(self, name, v)
        self.eta = float(self.eta)
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        self.m = float(self.m)
        if not self.m >= 0.5:
            raise ValueError(f"m must be >= 0.5, got {self.m}")
        M, N, K = self.M, self.N, self.K
        self.omega_h = _as_float_array(self.omega_h, (M, N), "omega_h")
        self.d_h = _as_float_array(self.d_h, (M, N), "d_h")
        self.beta_h = _as_float_array(self.beta_h, (M, N), "beta_h")
        self.N0_h = _as_float_array(self.N0_h, (M, N), "N0_h")
        self.omega_g = _as_float_array(self.omega_g, (N,), "omega_g")
        self.d_g = _as_float_array(self.d_g, (N,), "d_g")
        self.beta_g = _as_float_array(self.beta_g, (N,), "beta_g")
        self.N0_g = _as_float_array(self.N0_g, (N,), "N0_g")
        for name in ("omega_h", "d_h", "beta_h", "N0_h",
                     "omega_g", "d_g", "beta_g", "N0_g"):
            a = getattr(self, name)
            if np.any(a <= 0):
                idx = tuple(int(v) for v in np.argwhere(a <= 0)[0])
                raise ValueError(f"{name}{list(idx)} must be > 0")
        self.arrivals = _as_float_array(self.arrivals, (M, K), "arrivals")
        if np.any(self.arrivals < 0):
            raise ValueError("arrivals must be >= 0")
        self.pr_out_0 = float(self.pr_out_0)
        if not (0.0 < self.pr_out_0 <= 1.0):
            raise ValueError(f"pr_out_0 must lie in (0, 1], got {self.pr_out_0}")
        if self.Eu_0 is None:
            self.Eu_0 = np.zeros(M)
        self.Eu_0 = _as_float_array(self.Eu_0, (M,), "Eu_0")
        if np.any(self.Eu_0 < 0):
            raise ValueError("Eu_0 must be >= 0")

    def replace(self, **kwargs) -> "ScenarioConfig":
        """Copy with some fields overridden (re-runs validation)."""
        d = {k: (v.copy() if isinstance(v, np.ndarray) else v)
             for k, v in self.__dict__.items()}
        d.update(kwargs)
        return ScenarioConfig(**d)

    def to_dict(self) -> dict:
        out = {}
        for k, v in asdict(self).items():
            out[k] = v.tolist() if isinstance(v, np.ndarray) else v
        return out


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario JSON file whose keys match ScenarioConfig fields."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: scenario file must hold a JSON object")
    known = set(ScenarioConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"{path}: unknown scenario keys {sorted(unknown)}")
    missing = known - set(raw) - {"Eu_0"}
    if missing:
        raise ValueError(f"{path}: missing scenario keys {sorted(missing)}")
    return ScenarioConfig(**raw)


def save_scenario(config: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class LinkCoefficients:
    """Per-link power coefficients of the small-outage monomial model.

    A link with coefficient c and transmit power p has outage approximately
    c * p**(-m).  c_u[i, j] covers user i to relay j, c_r[j] covers relay j
    to the destination.
    """

    c_u: np.ndarray   # (M, N)
    c_r: np.ndarray   # (N,)
    m: float


def snr_gap(config: ScenarioConfig) -> float:
    """Required SNR so that B*log2(1 + SNR) reaches alpha0."""
    return 2.0 ** (config.alpha0 / config.B) - 1.0


def link_b_factors(config: ScenarioConfig):
    """Numerators of the incomplete-gamma argument: b = factor / p.

    factor = m * gap * N0 * B / (d**(-beta) * omega), (M, N) for the first
    hop and (N,) for the second, where gap = 2**(alpha0 / B) - 1.
    """
    gap = snr_gap(config)
    f_u = config.m * gap * config.N0_h * config.B / (
        config.d_h ** (-config.beta_h) * config.omega_h)
    f_r = config.m * gap * config.N0_g * config.B / (
        config.d_g ** (-config.beta_g) * config.omega_g)
    return f_u, f_r


def link_outage(m: float, b) -> np.ndarray:
    """Exact outage of Nakagami-m links: P(m, b), the regularized lower
    incomplete gamma function, elementwise over b, for a scalar m > 0.

    A link with b = factor / p (link_b_factors) is in outage with
    probability P(m, b).  Below b = m + 1 P is its power series, above it
    1 - Q with Q Legendre's continued fraction (Press et al., Numerical
    Recipes, 3rd ed., 2007, section 6.2).  Both prefactors
    b**m e**(-b) / Gamma are taken in log space, so probabilities down to
    the smallest doubles keep their relative accuracy.  P(m, 0) = 0,
    P(m, inf) = 1 and NaN stays NaN; a negative b raises ValueError.
    """
    if not m > 0.0:
        raise ValueError(f"m must be > 0, got {m}")
    b = np.asarray(b, dtype=float)
    if (b < 0.0).any():
        raise ValueError("link outage needs b >= 0")
    positive = b > 0.0
    series = positive & (b < m + 1.0)
    if series.all() and b.size:
        return _lower_series(m, b)
    # 0 -> 0, inf -> 1 and NaN -> NaN; the masks below fill the rest
    p = np.where(positive, 1.0, b)
    fraction = (b >= m + 1.0) & (b < np.inf)
    if series.any():
        p[series] = _lower_series(m, b[series])
    if fraction.any():
        p[fraction] = 1.0 - _upper_fraction(m, b[fraction])
    return p


# Truncation level of both expansions, relative to their sums.  The Lentz
# ratio c * d of a converged fraction still rounds up to four ulps away
# from one, so a level below that might never be met.
_EXPANSION_TOL = 8.0 * np.finfo(float).eps


def _lower_series(m: float, x: np.ndarray) -> np.ndarray:
    """P(m, x) for 0 < x < m + 1:
    x**m e**(-x) / Gamma(m + 1) * sum_k x**k / ((m + 1) ... (m + k)).

    Every term grows with x, so the largest x sets the term count, found
    on scalars; the sum is then a Horner pass in u = x / (m + 1) <= 1 over
    coefficients prod_j (m + 1) / (m + j) <= 1, which neither overflow
    nor leave the array loop any work but a multiply and an add per term.
    """
    a = m + 1.0
    u_max = float(x.max()) / a
    coef, c, term, k = [1.0], 1.0, 1.0, 0
    while term > _EXPANSION_TOL:
        k += 1
        c *= a / (m + k)
        term = c * u_max ** k
        coef.append(c)
    u = x / a
    total = u * coef.pop()
    for c in reversed(coef[1:]):
        total += c
        total *= u
    total += 1.0
    return np.exp(m * np.log(x) - x - math.lgamma(a)) * total


def _upper_fraction(m: float, x: np.ndarray) -> np.ndarray:
    """Q(m, x) = 1 - P(m, x) for m + 1 <= x < inf:
    x**m e**(-x) / Gamma(m) / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))),
    with b_i = x + 1 - m + 2 i and a_i = i (m - i).

    The fraction converges faster as x grows, so the depth is where the
    modified Lentz recurrence stops changing on the smallest x, found on
    scalars.  It is then evaluated from that depth up, three array
    operations per level; every tail stays at least b_i / 2 > 0 there.
    """
    x_min = float(x.min())
    bb, c, depth = x_min + 1.0 - m, math.inf, 0
    d = 1.0 / bb
    while True:
        depth += 1
        an = depth * (m - depth)
        bb += 2.0
        d = 1.0 / (an * d + bb)
        c = bb + an / c
        if abs(c * d - 1.0) <= _EXPANSION_TOL:
            break
    tail = np.zeros(x.shape)
    for i in range(depth, 0, -1):
        tail += x
        tail += 1.0 - m + 2.0 * i
        np.divide(i * (m - i), tail, out=tail)
    tail += x
    tail += 1.0 - m
    return np.exp(m * np.log(x) - x - math.lgamma(m)) / tail


def compute_link_coefficients(config: ScenarioConfig) -> LinkCoefficients:
    """Closed-form monomial coefficients for every link of the scenario:
    c = factor**m / Gamma(m + 1), factor from link_b_factors."""
    m = config.m
    c_u, c_r = (f ** m / math.gamma(m + 1.0) for f in link_b_factors(config))
    if np.any(c_u <= 0) or np.any(c_r <= 0):
        raise ValueError("link coefficients must be strictly positive")
    return LinkCoefficients(c_u=c_u, c_r=c_r, m=m)


@dataclass
class Policy:
    """One resource allocation: user powers, relay powers, energy transfers.

    transfers[k, i, j] is the energy (J) user i hands to user j during
    period k.  The diagonal is identically zero.
    """

    p_u: np.ndarray        # (M, K) user transmit powers, W
    p_r: np.ndarray        # (N, K) relay transmit powers, W
    transfers: np.ndarray  # (K, M, M) inter-user energy transfers, J

    def __post_init__(self):
        self.p_u = np.asarray(self.p_u, dtype=float)
        self.p_r = np.asarray(self.p_r, dtype=float)
        self.transfers = np.asarray(self.transfers, dtype=float)
        if self.p_u.ndim != 2 or self.p_r.ndim != 2 or self.transfers.ndim != 3:
            raise ValueError("policy arrays must be (M,K), (N,K), (K,M,M)")
        M, K = self.p_u.shape
        if self.p_r.shape[1] != K or self.transfers.shape != (K, M, M):
            raise ValueError("policy array shapes are inconsistent")

    @property
    def M(self):
        return self.p_u.shape[0]

    @property
    def N(self):
        return self.p_r.shape[0]

    @property
    def K(self):
        return self.p_u.shape[1]

    @property
    def outage_defined(self) -> bool:
        """Exact outage needs every user power > 0 and no relay power < 0."""
        return bool(np.all(self.p_u > 0.0) and np.all(self.p_r >= 0.0))

    def copy(self) -> "Policy":
        return Policy(self.p_u.copy(), self.p_r.copy(), self.transfers.copy())

    def to_dict(self) -> dict:
        return {"p_u": self.p_u.tolist(), "p_r": self.p_r.tolist(),
                "transfers": self.transfers.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "Policy":
        return Policy(np.asarray(d["p_u"], dtype=float),
                      np.asarray(d["p_r"], dtype=float),
                      np.asarray(d["transfers"], dtype=float))


@dataclass
class EnergyLedger:
    """Per-user, per-period stored energy available for transmission.

    available[i, k] counts everything harvested through period k plus
    scaled receipts, minus energy sent away, minus transmit energy spent in
    periods before k.  The current period's own transmit energy has to fit
    inside available[i, k]; slack[i, k] is what remains once it is spent,
    so any negative slack entry marks a causality violation.
    """

    available: np.ndarray  # (M, K), J
    slack: np.ndarray      # (M, K), J

    @property
    def min_slack(self) -> float:
        return float(np.min(self.slack))


def energy_ledger(config: ScenarioConfig, policy: Policy) -> EnergyLedger:
    """Cumulative energy bookkeeping for a policy.

    available[i, k] = Eu_0[i] + sum_{l<=k} arrivals[i, l]
                      + eta * sum_{l<=k} received[i, l]
                      - sum_{l<=k} sent[i, l]
                      - sum_{l<k}  p_u[i, l] * T
    """
    M, K = config.M, config.K
    if policy.p_u.shape != (M, K) or policy.transfers.shape != (K, M, M):
        raise ValueError("policy does not match scenario dimensions")
    sent = policy.transfers.sum(axis=2).T      # (M, K)
    received = policy.transfers.sum(axis=1).T  # (M, K)
    harvested = np.cumsum(config.arrivals, axis=1) + config.Eu_0[:, None]
    inflow = config.eta * np.cumsum(received, axis=1)
    outflow = np.cumsum(sent, axis=1)
    spent_before = np.concatenate(
        [np.zeros((M, 1)), np.cumsum(policy.p_u * config.T, axis=1)[:, :-1]],
        axis=1)
    available = harvested + inflow - outflow - spent_before
    return EnergyLedger(available=available,
                        slack=available - policy.p_u * config.T)


def total_energy(config: ScenarioConfig, policy: Policy) -> float:
    """System energy drawn by a policy over the whole horizon, J.

    Counts user transmit energy, the fraction of transferred energy lost in
    transit, and relay transmit energy (one slot per relay and period).
    """
    e_users = float(policy.p_u.sum()) * config.T
    e_relays = float(policy.p_r.sum()) * config.T
    e_lost = (1.0 - config.eta) * float(policy.transfers.sum())
    return e_users + e_lost + e_relays


def energy_efficiency(config: ScenarioConfig, policy: Policy,
                      pr_out: np.ndarray) -> float:
    """Expected delivered bits per joule.

    pr_out holds the per-period network outage probabilities.  The numerator
    counts M messages of alpha0 * T bits per non-outage period.
    """
    pr_out = np.asarray(pr_out, dtype=float)
    if pr_out.shape != (config.K,):
        raise ValueError(f"pr_out must have shape ({config.K},)")
    e_tot = total_energy(config, policy)
    if e_tot <= 0.0:
        raise ValueError("total energy must be positive to define efficiency")
    bits = config.M * config.alpha0 * config.T * float(np.sum(1.0 - pr_out))
    return bits / e_tot


@dataclass
class FeasibilityReport:
    """Outcome of auditing a policy against every constraint class.

    worst maps a constraint class name to its largest violation magnitude
    (0.0 when satisfied).  Classes: power_bounds, transfer_bounds,
    causality, outage.  outage_report is the exact OutageReport that the
    outage check evaluated, or None when that check did not run.
    """

    feasible: bool
    worst: dict
    messages: list = field(default_factory=list)
    outage_report: OutageReport | None = None

    def summary(self) -> str:
        if self.feasible:
            return "feasible"
        bad = [f"{k}={v:.3e}" for k, v in self.worst.items() if v > 0]
        return "infeasible: " + ", ".join(bad)


# Absolute feasibility slack for energy quantities, J or W as appropriate.
TOL_FEAS = 1e-9
# Smallest admissible user transmit power, W.
P_MIN = 1e-9
# Relative slack allowed when auditing exact outage against the target.
OUTAGE_AUDIT_RTOL = 1e-6


def outage_limit(config: ScenarioConfig) -> float:
    """The largest exact outage per period that passes the audit."""
    return config.pr_out_0 * (1.0 + OUTAGE_AUDIT_RTOL)


def check_policy_arrays(config: ScenarioConfig, policy: Policy) -> None:
    """Raise ValueError unless the policy's arrays have the scenario's
    shapes and only finite entries."""
    M, N, K = config.M, config.N, config.K
    if policy.p_u.shape != (M, K) or policy.p_r.shape != (N, K) \
            or policy.transfers.shape != (K, M, M):
        raise ValueError(
            f"policy arrays p_u {policy.p_u.shape}, p_r {policy.p_r.shape}"
            f" and transfers {policy.transfers.shape} do not match the "
            f"scenario's ({M}, {K}), ({N}, {K}) and ({K}, {M}, {M})")
    for name, arr in (("p_u", policy.p_u), ("p_r", policy.p_r),
                      ("transfers", policy.transfers)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"policy.{name} contains non-finite entries")


def validate_policy(config: ScenarioConfig, policy: Policy,
                    check_outage: bool = True) -> FeasibilityReport:
    """Audit a policy: power bounds, transfer sanity, causality, exact outage.

    User powers must be strictly positive (a user transmits in every period);
    relay powers may be exactly zero (relay switched off).  The outage check
    evaluates the exact outage expression and allows a small relative slack
    on top of the configured target.
    """
    worst = {"power_bounds": 0.0, "transfer_bounds": 0.0,
             "causality": 0.0, "outage": 0.0}
    messages = []
    check_policy_arrays(config, policy)

    # Power bounds.  Strict positivity for users: a zero is flagged no
    # matter how small TOL_FEAS is.
    if np.any(policy.p_u <= 0.0):
        worst["power_bounds"] = max(worst["power_bounds"], P_MIN)
        messages.append("user power must be strictly positive")
    lo = np.maximum(0.0, P_MIN - policy.p_u[policy.p_u > 0.0])
    if lo.size and lo.max() > TOL_FEAS:
        worst["power_bounds"] = max(worst["power_bounds"], float(lo.max()))
        messages.append("user power below the minimum power floor")
    for name, arr in (("user", policy.p_u), ("relay", policy.p_r)):
        over = float(np.max(arr - config.p_max, initial=0.0))
        if over > TOL_FEAS:
            worst["power_bounds"] = max(worst["power_bounds"], over)
            messages.append(f"{name} power exceeds p_max by {over:.3e} W")
    neg_r = float(np.max(-policy.p_r, initial=0.0))
    if neg_r > 0.0:
        worst["power_bounds"] = max(worst["power_bounds"], neg_r)
        messages.append("relay power is negative")

    # Transfers: non-negative, zero diagonal.
    neg_t = float(np.max(-policy.transfers, initial=0.0))
    if neg_t > TOL_FEAS:
        worst["transfer_bounds"] = max(worst["transfer_bounds"], neg_t)
        messages.append("negative energy transfer")
    diag = np.abs(np.diagonal(policy.transfers, axis1=1, axis2=2))
    if float(diag.max(initial=0.0)) > TOL_FEAS:
        worst["transfer_bounds"] = max(worst["transfer_bounds"],
                                       float(diag.max()))
        messages.append("self transfer on the diagonal")

    # Causality.
    ledger = energy_ledger(config, policy)
    deficit = float(np.max(policy.p_u * config.T - ledger.available,
                           initial=0.0))
    if deficit > TOL_FEAS:
        worst["causality"] = deficit
        i, k = np.unravel_index(
            np.argmax(policy.p_u * config.T - ledger.available),
            ledger.available.shape)
        messages.append(
            f"energy causality violated by {deficit:.3e} J at user {i + 1}, "
            f"period {k + 1}")

    # Exact outage against the configured target.
    report = None
    if check_outage and policy.outage_defined:
        from .outage import network_outage_report
        report = network_outage_report(config, policy, mode="exact")
        over = float(np.max(report.pr_out - outage_limit(config),
                            initial=0.0))
        if over > 0.0:
            worst["outage"] = over
            k = int(np.argmax(report.pr_out))
            messages.append(
                f"exact outage {report.pr_out[k]:.3e} exceeds target "
                f"{config.pr_out_0:.3e} in period {k + 1}")
    elif check_outage:
        worst["outage"] = 1.0
        messages.append("outage undefined for out-of-range powers")

    feasible = all(v <= 0.0 for v in worst.values())
    return FeasibilityReport(feasible=feasible, worst=worst, messages=messages,
                             outage_report=report)
