"""Tests for per-link and network outage probabilities, both the exact
expressions and the posynomial approximation used by the optimizer."""

import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc

from eecoop import outage
from eecoop.baselines import relay_assignment
from eecoop.model import (
    LinkCoefficients,
    Policy,
    compute_link_coefficients,
    link_b_factors,
    link_outage,
    load_scenario,
)
from eecoop.outage import (
    MonomialTable,
    _term_count,
    build_outage_tables,
    network_outage_approx,
    network_outage_exact,
    network_outage_report,
    outage_tables,
    relay_miss_prob,
    relay_recursion,
)
from eecoop.solver import dinkelbach_optimize
from helpers import (
    expanded_outage_tables,
    expanded_per_user_tables,
    make_config,
    per_link_outage_approx,
    per_user_outage_exact,
    per_user_tables,
    tiled_config,
)

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" \
    / "reference_m2n4.json"


# ---------------------------------------------------------------------------
# independent oracle: enumerate every decode/forward outcome with rationals


def enumeration_oracle(pe_u, pe_r, M):
    """Exact network outage by brute-force outcome enumeration.

    pe_u[i][j] and pe_r[j] may be Fractions for exact arithmetic.  A period
    fails when fewer than M relays decode all M messages, or at least M
    decode but fewer than M of those forward successfully.
    """
    N = len(pe_r)
    rho = [1] * N
    for j in range(N):
        acc = Fraction(1) if isinstance(pe_u[0][0], Fraction) else 1.0
        for i in range(M):
            acc *= 1 - pe_u[i][j]
        rho[j] = acc
    pr_A = 0
    pr_B = 0
    for dec in product([0, 1], repeat=N):
        p_dec = 1
        for j in range(N):
            p_dec *= rho[j] if dec[j] else 1 - rho[j]
        decoders = [j for j in range(N) if dec[j]]
        if len(decoders) < M:
            pr_A += p_dec
            continue
        for fwd in product([0, 1], repeat=len(decoders)):
            if sum(fwd) >= M:
                continue
            p_f = 1
            for pos, j in enumerate(decoders):
                p_f *= (1 - pe_r[j]) if fwd[pos] else pe_r[j]
            pr_B += p_dec * p_f
    return pr_A + pr_B, pr_A, pr_B


class TestSubsetTables:
    """The relay-count recursion sums over relay subsets without listing
    them."""

    def test_counts(self):
        """With every probability one half, outage times 2**N counts
        subsets: decode sets of fewer than M of 4 relays (1, 4, 6, 4, 1
        of each size) and forwarding sets of fewer than 2 among 3 certain
        decoders (1 + 3)."""
        half = np.full(4, 0.5)
        for M, subsets in zip(range(1, 6), (1, 5, 11, 15, 16)):
            _, pr_a, _ = network_outage_exact(half, np.zeros(4), M)
            assert pr_a * 16 == subsets
        _, pr_a, pr_b = network_outage_exact(np.zeros(3), np.full(3, 0.5), 2)
        assert pr_a == 0.0
        assert pr_b * 8 == 1 + 3

    def test_no_relay_cap(self):
        """64 relays, far past what subset enumeration could list, against
        the i.i.d. binomial closed form."""
        N, M, r, e = 64, 3, 0.9, 0.05
        pr_a = math.fsum(math.comb(N, n) * r ** n * (1 - r) ** (N - n)
                         for n in range(M))
        pr_b = math.fsum(
            math.comb(N, n) * r ** n * (1 - r) ** (N - n)
            * math.comb(n, t) * (1 - e) ** t * e ** (n - t)
            for n in range(M, N + 1) for t in range(M))
        out, got_a, got_b = network_outage_exact(np.full(N, 1.0 - r),
                                                 np.full(N, e), M)
        assert got_a == pytest.approx(pr_a, rel=1e-13)
        assert got_b == pytest.approx(pr_b, rel=1e-13)
        assert out == pytest.approx(pr_a + pr_b, rel=1e-13)


class TestPerLinkOutage:
    # Regularized lower incomplete gamma P(a, b), frozen with mpmath at 40
    # digits.
    GAMMAINC_GOLDEN = [
        (0.5, 1e-12, 1.12837916709513645e-06),
        (0.5, 0.3, 0.561421973919000145),
        (1.0, 1e-9, 9.999999995e-10),
        (2.0, 1e-3, 4.99666791633340277e-07),
        (3.0, 0.1, 0.000154653070264671654),
        (3.5, 7.7, 0.968799523339970483),
        (10.0, 50.0, 0.999999999998740392),
        (0.7, 2.3, 0.945254299278364851),
        (5.0, 1e-12, 8.33333333332638889e-63),
    ]

    @pytest.mark.parametrize("m,b,expected", GAMMAINC_GOLDEN)
    def test_against_high_precision(self, m, b, expected):
        assert float(link_outage(m, b)) == pytest.approx(expected, rel=1e-12)

    def test_rejects_negative_b(self):
        with pytest.raises(ValueError, match="b >= 0"):
            link_outage(1.0, np.array([0.5, -1e-300]))
        with pytest.raises(ValueError, match="m must be > 0"):
            link_outage(0.0, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.5, 4.0, 6.0, 10.0])
    def test_agrees_with_scipy(self, m):
        """P within 1e-13 relative of SciPy over 20,000 log-uniform
        b in [1e-12, 100] and both neighbours of b = m + 1, where the
        series hands over to the continued fraction and each needs its
        most terms; Q = 1 - P likewise where Q > 1e-3.  The edge values
        follow SciPy: P(m, 0) = 0, P(m, inf) = 1 and NaN stays NaN, with
        no RuntimeWarning."""
        rng = np.random.default_rng(int(m * 10))
        b = np.concatenate([
            np.exp(rng.uniform(math.log(1e-12), math.log(100.0), 20_000)),
            [np.nextafter(m + 1.0, 0.0), np.nextafter(m + 1.0, np.inf),
             0.0, np.inf, np.nan]])
        p = link_outage(m, b)
        np.testing.assert_allclose(p, gammainc(m, b), rtol=1e-13, atol=0.0)
        assert p[-3] == 0.0 and p[-2] == 1.0 and math.isnan(p[-1])
        q_want = gammaincc(m, b)
        upper = q_want > 1e-3
        np.testing.assert_allclose(1.0 - p[upper], q_want[upper],
                                   rtol=1e-13, atol=0.0)

    def test_rayleigh_closed_form(self):
        """m = 1 reduces to 1 - exp(-b)."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = float(rng.uniform(0.05, 50.0))
            n0 = float(rng.uniform(1e-10, 1e-8))
            d = float(rng.uniform(2.0, 200.0))
            gap = 2.0 ** 0.8 - 1.0
            b = gap * n0 * 1.25e5 * d ** 3 / p
            assert float(link_outage(1.0, b)) == pytest.approx(
                -math.expm1(-b), rel=1e-12)

    @pytest.fixture(scope="class")
    def reference_optimum(self):
        cfg = load_scenario(REFERENCE)
        return cfg, dinkelbach_optimize(cfg).policy

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    def test_report_matches_scalar_link_by_link(self, reference_optimum, m):
        """The exact report's per-link outage equals SciPy's regularized
        incomplete gamma at b = factor / p, link_b_factors' factors, on
        every link of the reference's optimized policy."""
        cfg, pol = reference_optimum
        cfg = cfg.replace(m=m)
        rep = network_outage_report(cfg, pol, mode="exact")
        f_u, f_r = link_b_factors(cfg)
        for i, j, k in product(range(cfg.M), range(cfg.N), range(cfg.K)):
            want = gammainc(m, f_u[i, j] / pol.p_u[i, k])
            assert rep.pe_user[i, j, k] == pytest.approx(want, rel=1e-12)
        for j, k in product(range(cfg.N), range(cfg.K)):
            want = gammainc(m, f_r[j] / pol.p_r[j, k])
            assert rep.pe_relay[j, k] == pytest.approx(want, rel=1e-12)

    def test_approx_formula_and_bound(self):
        """The monomial equals c * p**-m and always sits above the exact
        per-link outage."""
        cfg = make_config(m=2.0)
        coeffs = compute_link_coefficients(cfg)
        factor = link_b_factors(cfg)[0][0, 0]
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = float(rng.uniform(1e-3, 100.0))
            approx = per_link_outage_approx(p, coeffs.c_u[0, 0], 2.0)
            assert approx == pytest.approx(coeffs.c_u[0, 0] * p ** -2.0)
            exact = float(link_outage(2.0, factor / p))
            assert approx >= exact - 1e-15

    def test_approx_tight_in_low_outage_regime(self):
        # m=1 relative error at b=0.01 is 0.0050083333194 (frozen); at
        # b=1e-3 it is 5.0008e-4.  Both well inside one percent.
        exact = -math.expm1(-0.01)
        assert (0.01 - exact) / exact == pytest.approx(
            0.0050083333194444775, rel=1e-9)
        exact = -math.expm1(-1e-3)
        assert (1e-3 - exact) / exact == pytest.approx(
            0.00050008333333194444, rel=1e-9)


class TestNetworkOutageExact:
    def test_enumeration_golden_m2n3(self):
        """Frozen rational-arithmetic value: 4305257/12500000."""
        pe_u = np.array([[0.1, 0.2, 0.15], [0.05, 0.25, 0.1]])
        pe_r = np.array([0.1, 0.3, 0.2])
        out, pr_a, pr_b = network_outage_exact(relay_miss_prob(pe_u), pe_r, 2)
        assert out == pytest.approx(0.34442056, abs=1e-12)
        assert pr_a == pytest.approx(0.158815, abs=1e-12)
        assert pr_b == pytest.approx(0.18560556, abs=1e-12)

    def test_enumeration_golden_m3n4(self):
        """Frozen rational-arithmetic value: 113730552979/160000000000."""
        pe_u = np.array([[0.1] * 4, [0.125] * 4, [0.2] * 4])
        pe_r = np.array([0.25, 0.1, 0.5, 0.05])
        out, pr_a, pr_b = network_outage_exact(relay_miss_prob(pe_u), pe_r, 3)
        assert out == pytest.approx(0.71081595611875, abs=1e-12)
        assert pr_a == pytest.approx(0.47240083, abs=1e-12)
        assert pr_b == pytest.approx(0.23841512611875, abs=1e-12)

    def test_single_user_single_relay(self):
        # fail = not decoded, or decoded but not forwarded:
        # 0.25 + 0.75 * 0.2 = 0.4
        out, pr_a, pr_b = network_outage_exact(
            np.array([0.25]), np.array([0.2]), 1)
        assert out == pytest.approx(0.4, abs=1e-15)
        assert pr_a == pytest.approx(0.25, abs=1e-15)
        assert pr_b == pytest.approx(0.15, abs=1e-15)

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            M = int(rng.integers(1, 4))
            N = int(rng.integers(1, 5))
            pe_u = rng.uniform(0.0, 1.0, size=(M, N))
            pe_r = rng.uniform(0.0, 1.0, size=N)
            out, pr_a, pr_b = network_outage_exact(relay_miss_prob(pe_u),
                                                   pe_r, M)
            ref, ref_a, ref_b = enumeration_oracle(pe_u, pe_r, M)
            assert out == pytest.approx(ref, abs=1e-12)
            assert pr_a == pytest.approx(ref_a, abs=1e-12)
            assert pr_b == pytest.approx(ref_b, abs=1e-12)
            assert out == pytest.approx(pr_a + pr_b, abs=1e-15)
            assert 0.0 <= out <= 1.0

    def test_fewer_relays_than_users_always_fails(self):
        out, pr_a, pr_b = network_outage_exact(
            np.array([0.1]), np.array([0.01]), 2)
        assert out == pytest.approx(1.0, abs=1e-15)
        assert pr_b == 0.0

    def test_batch_matches_scalar(self):
        """Relays on axis 0, any trailing axes: each trailing index equals
        the call on that column alone."""
        rng = np.random.default_rng(29)
        miss = rng.uniform(0.0, 1.0, size=(3, 6, 7))
        pe_r = rng.uniform(0.0, 1.0, size=(3, 6, 7))
        batch = network_outage_exact(miss, pe_r, 2)
        for part in batch:
            assert part.shape == (6, 7)
        for a in range(6):
            for b in range(7):
                ref = network_outage_exact(miss[:, a, b], pe_r[:, a, b], 2)
                for part, want in zip(batch, ref):
                    assert part[a, b] == pytest.approx(want, rel=1e-15,
                                                       abs=0.0)

    def test_certain_outage_stays_a_probability(self):
        """With fewer relays than users pr_A holds all the mass, one up to
        rounding, and pr_out must still not pass one."""
        rng = np.random.default_rng(61)
        miss = rng.uniform(0.0, 1.0, size=(2, 500))
        pe_r = rng.uniform(0.0, 1.0, size=(2, 500))
        out, _, pr_b = network_outage_exact(miss, pe_r, 3)
        assert np.all(out <= 1.0)
        np.testing.assert_allclose(out, 1.0, rtol=1e-15)
        assert np.all(pr_b == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            network_outage_exact(np.array([1.2]), np.array([0.1]), 1)
        with pytest.raises(ValueError):
            network_outage_exact(np.array([0.5]), np.array([0.1]), 0)
        with pytest.raises(ValueError):
            network_outage_exact(np.full(2, 0.5), np.full(3, 0.1), 1)


class TestMonomialTables:
    def hand_coeffs(self):
        c_u = np.array([[0.002, 0.005], [0.003, 0.007]])
        c_r = np.array([0.011, 0.013])
        return LinkCoefficients(c_u=c_u, c_r=c_r, m=1.0)

    def test_hand_expansion_m2n2(self):
        """For M=N=2 the split has a closed hand-checkable form.

        With s_j = sum_i c_ij / p_i and y_j = c_j / p'_j:
          part A = s1*s2 + s1 + s2   (no relay or exactly one decodes)
          part B = y1*y2 + y1 + y2   (both decode, fewer than two forward)
        """
        coeffs = self.hand_coeffs()
        tA, tB = build_outage_tables(coeffs, 2, 2)
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = rng.uniform(0.2, 15.0, size=2)
            q = rng.uniform(0.2, 15.0, size=2)
            x = np.log(np.concatenate([p, q]))
            s = (coeffs.c_u / p[:, None]).sum(axis=0)
            y = coeffs.c_r / q
            np.testing.assert_allclose(tA.value(x), s[0] * s[1] + s[0] + s[1],
                                       rtol=1e-14)
            np.testing.assert_allclose(tB.value(x), y[0] * y[1] + y[0] + y[1],
                                       rtol=1e-14)

    def test_merged_term_counts(self):
        """M=N=2 after merging identical exponent rows: part A keeps 5 rows
        (s1*s2 collapses its two cross products onto one (1,1) row; s1 and
        s2 share their single-power rows) and part B keeps 3."""
        tA, tB = build_outage_tables(self.hand_coeffs(), 2, 2)
        assert tA.n_terms == 5
        assert tB.n_terms == 3
        assert np.all(tA.coef > 0) and np.all(tB.coef > 0)
        # the merged (1,1) row carries c11*c22 + c21*c12
        cross = np.where((tA.w == -1.0).sum(axis=1) == 2)[0]
        assert tA.coef[cross[0]] == pytest.approx(
            0.002 * 0.007 + 0.003 * 0.005, rel=1e-15)

    @pytest.mark.parametrize("source", ["hand", "make_config"])
    def test_gradients_and_curvature(self, source):
        """Pushforward derivatives match finite differences and the
        Hessian is positive semidefinite (sum of exponentials)."""
        if source == "hand":
            coeffs = self.hand_coeffs()
        else:
            coeffs = compute_link_coefficients(make_config())
        tA, tB = build_outage_tables(coeffs, 2, 2)
        table = MonomialTable(coef=np.concatenate([tA.coef, tB.coef]),
                              w=np.vstack([tA.w, tB.w]), M=2, N=2,
                              m=coeffs.m)
        rng = np.random.default_rng(37)
        x = rng.uniform(-1.0, 2.0, size=4)
        v, g, H = table.value_grad_hess(x)
        assert v == pytest.approx(table.value(x), rel=1e-14)
        eps = 1e-6
        for d in range(4):
            e = np.zeros(4)
            e[d] = eps
            fd = (table.value(x + e) - table.value(x - e)) / (2 * eps)
            assert g[d] == pytest.approx(fd, rel=1e-6)
            _, g_plus, _ = table.value_grad_hess(x + e)
            _, g_minus, _ = table.value_grad_hess(x - e)
            np.testing.assert_allclose(H[:, d], (g_plus - g_minus) / (2 * eps),
                                       rtol=1e-6, atol=1e-9 * abs(H).max())
        eig = np.linalg.eigvalsh(H)
        assert eig.min() >= -1e-12 * max(1.0, eig.max())

    def test_batched_periods_match_single_calls(self):
        """A (M+N, K) call evaluates every period at once; column k equals
        the (M+N,) call on column k bit for bit, so batching periods does
        not change any rounding."""
        rng = np.random.default_rng(41)
        coeffs = LinkCoefficients(c_u=rng.uniform(1e-3, 1e-2, (2, 3)),
                                  c_r=rng.uniform(1e-3, 1e-2, 3), m=1.5)
        tA, tB = build_outage_tables(coeffs, 2, 3)
        table = MonomialTable(coef=np.concatenate([tA.coef, tB.coef]),
                              w=np.vstack([tA.w, tB.w]), M=2, N=3, m=1.5)
        x = rng.uniform(-1.0, 3.0, size=(5, 7))
        vals = table.value(x)
        v, g, H = table.value_grad_hess(x)
        assert vals.shape == v.shape == (7,)
        assert g.shape == (5, 7) and H.shape == (7, 5, 5)
        for k in range(7):
            assert vals[k] == table.value(x[:, k])
            v_k, g_k, H_k = table.value_grad_hess(x[:, k])
            assert v[k] == v_k
            np.testing.assert_array_equal(g[:, k], g_k)
            np.testing.assert_array_equal(H[k], H_k)


class TestRecursionTables:
    """The tables built by the relay recursion against the term-by-term
    expansions in helpers, and beyond the size the expansion could reach."""

    @staticmethod
    def assert_tables_match(got, expect):
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            assert g.w.shape == e.w.shape
            assert np.array_equal(g.w, e.w)
            np.testing.assert_allclose(g.coef, e.coef, rtol=1e-13, atol=0.0)

    @staticmethod
    def sorted_rows(tables):
        """The tables with their rows in lexicographic order of w."""
        orders = [np.lexsort(t.w.T[::-1]) for t in tables]
        return [MonomialTable(coef=t.coef[o], w=t.w[o], M=t.M, N=t.N, m=t.m)
                for t, o in zip(tables, orders)]

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("M,N", [(1, 1), (1, 3), (2, 1), (3, 2), (2, 2),
                                     (2, 4), (3, 3), (3, 5)])
    def test_matches_expansion(self, M, N, m):
        rng = np.random.default_rng([M, N, int(10 * m)])
        coeffs = LinkCoefficients(c_u=10.0 ** rng.uniform(-6, -1, (M, N)),
                                  c_r=10.0 ** rng.uniform(-6, -1, N), m=m)
        tA, tB = build_outage_tables(coeffs, M, N)
        self.assert_tables_match((tA, tB),
                                 expanded_outage_tables(coeffs, M, N))
        if N < M:
            # fewer than M relays: B is empty, and A holds the constant
            # monomial of every relay decoding
            assert tB.w.shape == (0, M + N)
            assert np.any(np.all(tA.w == 0.0, axis=1))
        else:
            # a user's rows come A's first, then B's: compared sorted
            self.assert_tables_match(
                self.sorted_rows(per_user_tables(coeffs, M, N)),
                self.sorted_rows(expanded_per_user_tables(
                    coeffs, relay_assignment(M, N), M, N)))

    @staticmethod
    def wide_coeffs(M, N):
        """Link coefficients of the bundled reference links tiled to
        (M, N) users and relays."""
        return compute_link_coefficients(
            tiled_config(load_scenario(REFERENCE), M, N, 1))

    def test_beyond_expansion_cap(self, monkeypatch):
        """The (4, 10) tables, expanded (118,998 terms in B) and evaluated
        term by term, equal the relay recursion run on float weights."""
        monkeypatch.setattr(outage, "RECURSION_MIN_TERMS", math.inf)
        M, N = 4, 10
        coeffs = self.wide_coeffs(M, N)
        tA, tB = build_outage_tables(coeffs, M, N)
        rng = np.random.default_rng(43)
        x = rng.uniform(-1.0, 3.0, size=(M + N, 5))
        f = (coeffs.c_u[:, :, None]
             * np.exp(-coeffs.m * x[:M, None, :])).sum(axis=0)
        g = coeffs.c_r[:, None] * np.exp(-coeffs.m * x[M:])

        def run(weights):
            P = np.zeros((M + 1, M, x.shape[1]))
            P[0, 0] = 1.0
            return relay_recursion(weights, P)

        pr_A, _ = run((f_j, 1.0, 0.0) for f_j in f)
        _, pr_B = run((f_j, g_j, 1.0) for f_j, g_j in zip(f, g))
        np.testing.assert_allclose(tA.value(x), pr_A, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(tB.value(x), pr_B, rtol=1e-12, atol=0.0)

    def test_term_count_matches_built_tables(self, monkeypatch):
        """The closed-form count equals every expanded table's size."""
        monkeypatch.setattr(outage, "RECURSION_MIN_TERMS", math.inf)
        rng = np.random.default_rng(59)
        for M, N in product(range(1, 6), range(1, 11)):
            coeffs = LinkCoefficients(c_u=rng.uniform(1e-3, 1e-2, (M, N)),
                                      c_r=rng.uniform(1e-3, 1e-2, N), m=1.0)
            tA, tB = build_outage_tables(coeffs, M, N)
            assert tA.recursion is None and tB.recursion is None
            assert (tA.n_terms, tB.n_terms) == (_term_count(M, N, "A"),
                                                _term_count(M, N, "B"))

    def test_large_part_is_never_expanded(self):
        """At (6, 16) both parts are far above RECURSION_MIN_TERMS: they
        hold their recursion and no terms, and report the counted size."""
        tA, tB = build_outage_tables(self.wide_coeffs(6, 16), 6, 16)
        for table, event in ((tA, "A"), (tB, "B")):
            assert table.coef is None and table.w is None
            assert table.recursion.events == (event,)
            assert table.n_terms == _term_count(6, 16, event)
        assert tB.n_terms == 236_449_923


class TestRecursionEvaluator:
    """Tables above RECURSION_MIN_TERMS terms are built as the relay
    recursion, smaller ones as terms; the same tables built with the
    threshold raised are the term-by-term reference."""

    @staticmethod
    def event_tables(coeffs, M, N):
        """Parts A and B, and the solver's A+B table."""
        return dict(zip(("A", "B", "A+B"), build_outage_tables(
            coeffs, M, N, parts=("A", "B", "AB"))))

    def by_recursion_and_terms(self, monkeypatch, coeffs, M, N):
        """event_tables built as recursions, even empty ones (part B with
        fewer than M relays), and built as terms."""
        built = []
        for threshold in (-1, math.inf):
            monkeypatch.setattr(outage, "RECURSION_MIN_TERMS", threshold)
            built.append(self.event_tables(coeffs, M, N))
        for event, table in built[0].items():
            terms = built[1][event]
            assert table.recursion is not None and table.coef is None
            assert terms.recursion is None
            assert table.n_terms == terms.n_terms
        return built

    @pytest.mark.parametrize("event", ["A", "B", "A+B"])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("M,N", [(1, 1), (2, 1), (3, 2), (2, 4), (3, 5),
                                     (3, 8)])
    def test_matches_terms(self, monkeypatch, M, N, m, event):
        """Value, gradient and Hessian of every period against the terms;
        each column of the batched call bit for bit against the call on
        that column alone, and value() bit for bit against
        value_grad_hess()."""
        rng = np.random.default_rng([M, N, int(10 * m), len(event)])
        coeffs = LinkCoefficients(c_u=10.0 ** rng.uniform(-6, -1, (M, N)),
                                  c_r=10.0 ** rng.uniform(-6, -1, N), m=m)
        table, terms = (t[event] for t in self.by_recursion_and_terms(
            monkeypatch, coeffs, M, N))
        x = rng.uniform(-1.0, 3.0, size=(M + N, 4))
        got, expect = table.value_grad_hess(x), terms.value_grad_hess(x)
        for g, e in zip(got, expect):
            np.testing.assert_allclose(g, e, rtol=1e-12, atol=0.0)
        v, grad, H = got
        assert np.array_equal(table.value(x), v)
        for k in range(x.shape[1]):
            v_k, grad_k, H_k = table.value_grad_hess(x[:, k])
            assert v_k == v[k] == table.value(x[:, k])
            assert np.array_equal(grad_k, grad[:, k])
            assert np.array_equal(H_k, H[k])

    def test_dispatch_by_terms(self):
        """The reference's 64-term table is built as terms; at the
        wide-network geometry part A's 109 terms are expanded, while part
        B's 7,299 and the A+B table's 7,408 are built as the recursion.
        Plain relaying's per-user tables there, of 8, 8 and 4 terms, are
        expanded."""
        ref = compute_link_coefficients(load_scenario(REFERENCE))
        wide = TestRecursionTables.wide_coeffs(3, 8)
        small = self.event_tables(ref, 2, 4)
        large = self.event_tables(wide, 3, 8)
        assert small["A+B"].n_terms == 64
        assert all(t.recursion is None for t in small.values())
        assert [large[e].n_terms for e in ("A", "B", "A+B")] \
            == [109, 7299, 7408]
        assert large["A"].recursion is None
        assert large["B"].recursion.events == ("B",)
        assert large["A+B"].recursion.events == ("A", "B")
        per_user = per_user_tables(wide, 3, 8)
        assert [t.n_terms for t in per_user] == [8, 8, 4]
        assert all(t.recursion is None for t in per_user)

    def test_solver_table_expands_no_unused_part(self, monkeypatch):
        """outage_tables gives the solver one table of parts A and B: at
        the wide-network geometry it is the recursion, and neither part is
        expanded; on the reference it holds A's rows, then B's."""
        expanded = []
        expand = outage._expanded_table
        monkeypatch.setattr(outage, "_expanded_table",
                            lambda *a: expanded.append(a[1]) or expand(*a))
        (wide,) = outage_tables(TestRecursionTables.wide_coeffs(3, 8), 3, 8)
        assert wide.recursion.events == ("A", "B") and expanded == []
        ref = compute_link_coefficients(load_scenario(REFERENCE))
        (table,) = outage_tables(ref, 2, 4)
        assert expanded == ["AB"]
        tA, tB = build_outage_tables(ref, 2, 4)
        assert np.array_equal(table.coef, np.concatenate([tA.coef, tB.coef]))
        assert np.array_equal(table.w, np.vstack([tA.w, tB.w]))

    def test_overflow_reads_inf(self, monkeypatch):
        """A weight that overflows makes the recursion's states inf or
        nan (inf * 0); the value then reads +inf, as the terms do, and the
        other periods keep their values."""
        coeffs = TestRecursionTables.wide_coeffs(2, 4)
        x = np.zeros((6, 2))
        x[0, 0] = -800.0
        tables, terms = self.by_recursion_and_terms(monkeypatch, coeffs, 2, 4)
        for event, table in tables.items():
            expect = terms[event].value(x)
            assert expect[0] == np.inf
            for v in (table.value(x), table.value_grad_hess(x)[0]):
                assert v[0] == np.inf
                np.testing.assert_allclose(v[1], expect[1], rtol=1e-12)
            assert table.value(x[:, 0]) == np.inf
            assert table.value_grad_hess(x[:, 0])[0] == np.inf


class TestNetworkOutageApprox:
    def test_matches_tables(self):
        cfg = make_config()
        coeffs = compute_link_coefficients(cfg)
        tA, tB = build_outage_tables(coeffs, 2, 2)
        rng = np.random.default_rng(41)
        p_u = rng.uniform(0.5, 10.0, size=2)
        p_r = rng.uniform(0.5, 10.0, size=2)
        out, pr_a, pr_b = network_outage_approx(p_u, p_r, coeffs)
        x = np.log(np.concatenate([p_u, p_r]))
        assert pr_a == pytest.approx(float(tA.value(x)), rel=1e-14)
        assert pr_b == pytest.approx(float(tB.value(x)), rel=1e-14)
        assert out == pytest.approx(pr_a + pr_b, rel=1e-14)

    def test_upper_bounds_exact(self):
        """The posynomial dominates the exact outage at every power level
        because each per-link monomial dominates its exact curve."""
        cfg = make_config()
        rng = np.random.default_rng(43)
        for _ in range(20):
            pol = Policy(p_u=rng.uniform(0.05, 20.0, size=(2, 2)),
                         p_r=rng.uniform(0.05, 20.0, size=(2, 2)),
                         transfers=np.zeros((2, 2, 2)))
            exact = network_outage_report(cfg, pol, mode="exact").pr_out
            approx = network_outage_report(cfg, pol, mode="approx").pr_out
            assert np.all(approx >= exact - 1e-15)

    def test_tightness_at_low_outage(self):
        """Within 5 percent of exact once per-link outages are <= 1e-3."""
        cfg = make_config()
        coeffs = compute_link_coefficients(cfg)
        # c / p <= 1e-3 for every link
        p_needed = max(float(coeffs.c_u.max()), float(coeffs.c_r.max())) / 1e-3
        pol = Policy(p_u=np.full((2, 2), p_needed),
                     p_r=np.full((2, 2), p_needed),
                     transfers=np.zeros((2, 2, 2)))
        exact = network_outage_report(cfg, pol, mode="exact").pr_out
        approx = network_outage_report(cfg, pol, mode="approx").pr_out
        assert np.all(approx <= exact * 1.05)
        assert np.all(approx >= exact)

    def test_monotone_in_power(self):
        """Exact and approximate outage both decrease when any power rises."""
        cfg = make_config()
        rng = np.random.default_rng(47)
        base = Policy(p_u=rng.uniform(0.5, 2.0, size=(2, 2)),
                      p_r=rng.uniform(0.5, 2.0, size=(2, 2)),
                      transfers=np.zeros((2, 2, 2)))
        for mode in ("exact", "approx"):
            ref = network_outage_report(cfg, base, mode=mode).pr_out
            for arr, idx in (("p_u", (0, 0)), ("p_u", (1, 1)),
                             ("p_r", (0, 1)), ("p_r", (1, 0))):
                pol = base.copy()
                getattr(pol, arr)[idx] *= 2.0
                new = network_outage_report(cfg, pol, mode=mode).pr_out
                assert new[idx[1]] < ref[idx[1]]

    def test_user_permutation_equivariance(self):
        """Swapping user labels (links, arrivals, powers) leaves the
        network outage unchanged."""
        cfg = make_config()
        rng = np.random.default_rng(53)
        d_h = rng.uniform(3.0, 9.0, size=(2, 2))
        cfg = cfg.replace(d_h=d_h)
        pol = Policy(p_u=rng.uniform(0.5, 5.0, size=(2, 2)),
                     p_r=rng.uniform(0.5, 5.0, size=(2, 2)),
                     transfers=np.zeros((2, 2, 2)))
        cfg_swapped = cfg.replace(d_h=d_h[::-1].copy(),
                                  arrivals=cfg.arrivals[::-1].copy())
        pol_swapped = Policy(p_u=pol.p_u[::-1].copy(), p_r=pol.p_r.copy(),
                             transfers=np.zeros((2, 2, 2)))
        for mode in ("exact", "approx"):
            a = network_outage_report(cfg, pol, mode=mode).pr_out
            b = network_outage_report(cfg_swapped, pol_swapped,
                                      mode=mode).pr_out
            np.testing.assert_allclose(a, b, rtol=1e-13)


class TestTablesBoundExact:
    """Each monomial table bounds its exact outage from above at any power.

    Per link, P(m, b) <= b**m / Gamma(m + 1); a relay's miss probability is
    at most the sum of its user-link outages, its success weights at most
    one, and the relay recursion only adds and multiplies.  So the solver's
    A+B table, under either evaluator, and the per-user tables of plain
    relaying are never below exact outage, including where the per-link
    outage nears one.  So is part A alone, whose exact value keeps its
    relative accuracy at any per-link outage: each relay's miss is
    -expm1(sum log1p(-pe)), not 1 - prod(1 - pe), which cancels below
    pe ~ 1e-13.
    """

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.5, 2.5, 4.0])
    def test_random_periods(self, monkeypatch, m):
        """300 draws of 3 reference periods: log powers uniform in [-6, 3],
        period 0 in [-25, -15], where every link is almost surely in
        outage."""
        ref = load_scenario(REFERENCE).replace(m=m)
        cfg = tiled_config(ref, ref.M, ref.N, 3)
        coeffs = compute_link_coefficients(cfg)
        M, N, K = cfg.M, cfg.N, cfg.K
        coded, part_a = [], []
        for threshold in (-1, math.inf):   # recursion, then terms
            monkeypatch.setattr(outage, "RECURSION_MIN_TERMS", threshold)
            a, ab = build_outage_tables(coeffs, M, N, parts=("A", "AB"))
            part_a.append(a)
            coded.append(ab)
        for tables in (coded, part_a):
            assert tables[0].recursion is not None
            assert tables[1].recursion is None
        per_user = per_user_tables(coeffs, M, N)
        rng = np.random.default_rng([16, int(100 * m)])
        for _ in range(300):
            x = rng.uniform(-6.0, 3.0, size=(M + N, K))
            x[:, 0] = rng.uniform(-25.0, -15.0, size=M + N)
            p = np.exp(x)
            policy = Policy(p_u=p[:M], p_r=p[M:],
                            transfers=np.zeros((K, M, M)))
            report = network_outage_report(cfg, policy, mode="exact")
            assert report.pe_user[:, :, 0].min() > 0.99
            for table in coded:
                assert np.all(report.pr_out
                              <= table.value(x) * (1.0 + 1e-12))
            for table in part_a:
                assert np.all(report.pr_A
                              <= table.value(x) * (1.0 + 1e-12))
            exact = per_user_outage_exact(cfg, policy)
            for i, table in enumerate(per_user):
                assert np.all(exact[i] <= table.value(x) * (1.0 + 1e-12))


class TestOutageReport:
    def test_exact_report_consistency(self):
        cfg = make_config()
        pol = Policy(p_u=np.full((2, 2), 0.7), p_r=np.full((2, 2), 0.9),
                     transfers=np.zeros((2, 2, 2)))
        rep = network_outage_report(cfg, pol, mode="exact")
        assert rep.mode == "exact"
        assert rep.pr_out.shape == (2,)
        np.testing.assert_allclose(rep.pr_out, rep.pr_A + rep.pr_B,
                                   atol=1e-15)
        # period independence: per-period recomputation matches
        for k in range(2):
            miss = relay_miss_prob(rep.pe_user[:, :, k])
            out, _, _ = network_outage_exact(miss, rep.pe_relay[:, k], 2)
            assert rep.pr_out[k] == pytest.approx(out, abs=1e-15)

    def test_relay_off_exact(self):
        """A relay at zero power never helps: its forward always fails."""
        cfg = make_config()
        pol = Policy(p_u=np.full((2, 2), 0.7), p_r=np.full((2, 2), 0.9),
                     transfers=np.zeros((2, 2, 2)))
        pol.p_r[0, :] = 0.0
        rep = network_outage_report(cfg, pol, mode="exact")
        assert np.all(rep.pe_relay[0, :] == 1.0)
        # worse than with the relay on
        pol_on = pol.copy()
        pol_on.p_r[0, :] = 0.9
        rep_on = network_outage_report(cfg, pol_on, mode="exact")
        assert np.all(rep.pr_out > rep_on.pr_out)

    def test_relay_off_approx_rejected(self):
        cfg = make_config()
        pol = Policy(p_u=np.full((2, 2), 0.7), p_r=np.full((2, 2), 0.9),
                     transfers=np.zeros((2, 2, 2)))
        pol.p_r[1, 1] = 0.0
        with pytest.raises(ValueError):
            network_outage_report(cfg, pol, mode="approx")

    def test_bad_mode(self):
        cfg = make_config()
        pol = zero_policy_like(cfg)
        with pytest.raises(ValueError):
            network_outage_report(cfg, pol, mode="surprise")


def zero_policy_like(cfg):
    return Policy(p_u=np.full((cfg.M, cfg.K), 1.0),
                  p_r=np.full((cfg.N, cfg.K), 1.0),
                  transfers=np.zeros((cfg.K, cfg.M, cfg.M)))
