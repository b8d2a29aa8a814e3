import itertools
import math
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from ldpfair import (
    InfeasibleGammaError,
    JointSourceUSX,
    PreconditionError,
    RandomizedResponse,
    SolverConfig,
    check_theorem1,
    compose,
    induced_joint,
    mutual_information,
    new_channel,
    random_channel,
    random_source,
    rr_channel,
    solve_G_bruteforce,
    solve_g,
    trace_frontier,
)
from ldpfair import ib_solver
from ldpfair.ib_solver import _batched_mi_terms, _log_ratio, _objective_graph

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")  # a zero cell's log must stay silent

FAST = SolverConfig(restarts=2, iterations=800)


def _replace(cfg, **kw):
    return replace(cfg, **kw)


def per_table_objective(logits, src, channel, weights):
    """The kernel's value and gradient written one table at a time, each
    table with its own p(z), from `_log_ratio`."""
    enc = ib_solver._softmax(logits)
    pzx = enc @ channel
    value, g_pzx = 0.0, 0.0
    for t, p_ax in enumerate((np.diag(src.p_x()), src.p_sx(), src.p_ux())):
        p_az, log_ratio = _log_ratio(p_ax, pzx)
        w = weights[:, t, None, None]
        value = value + w * (p_az * log_ratio).sum(axis=(1, 2), keepdims=True)
        g_pzx = g_pzx + w * np.einsum("ax,baz->bxz", p_ax, log_ratio)
    g_enc = g_pzx @ channel.T
    return value[:, 0, 0], enc * (g_enc - (enc * g_enc).sum(axis=2, keepdims=True))


# one row per objective: the solver's (1, -1, beta), each term alone, and mixed signs
WEIGHTS = np.array([[1, -1, 0.1], [1, -1, 2], [1, 0, 0], [0, 1, 0], [0, 0, 1], [-0.5, 2, 3]])


class TestObjectiveKernel:
    @pytest.mark.parametrize("card_x", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 3.0])
    def test_equals_per_table_formula(self, card_x, eps):
        channel = rr_channel(RandomizedResponse(epsilon=eps, k=card_x, d=1)).rows
        for seed in range(3):
            src = random_source(2, 2, card_x, seed=seed)
            logits = np.random.default_rng(seed).normal(size=(len(WEIGHTS), card_x, card_x))
            value, grad = _objective_graph(logits, ib_solver._tables(src), channel, WEIGHTS)
            ref_value, ref_grad = per_table_objective(logits, src, channel, WEIGHTS)
            np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-13)
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("empty", ["x", "s"])
    def test_empty_symbol_gives_finite_values_and_zero_terms(self, empty):
        probs = random_source(2, 2, 3, seed=1).probs.copy()
        if empty == "x":
            probs[:, :, 1] = 0.0  # p(x = 1) = 0: an empty row of diag p(x), an empty column everywhere
        else:
            probs[:, 1, :] = 0.0  # p(s = 1) = 0: an empty row of p(s, x)
        src = JointSourceUSX(probs / probs.sum())
        channel = rr_channel(RandomizedResponse(epsilon=1.0, k=3, d=1)).rows
        logits = np.random.default_rng(2).normal(size=(len(WEIGHTS), 3, 3))
        value, grad = _objective_graph(logits, ib_solver._tables(src), channel, WEIGHTS)
        assert np.isfinite(value).all() and np.isfinite(grad).all()
        ref_value, ref_grad = per_table_objective(logits, src, channel, WEIGHTS)
        np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-13)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-13)
        # each term alone is the exact mutual information of the induced joint
        for b, pair in ((2, "p_xz"), (3, "p_sz"), (4, "p_uz")):  # the rows (1, 0, 0), (0, 1, 0), (0, 0, 1)
            enc = new_channel(ib_solver._softmax(logits[b]))
            joint = induced_joint(src, compose(enc, new_channel(channel)))
            assert abs(value[b] - mutual_information(getattr(joint, pair)())) <= 1e-13
        if empty == "x":
            assert not grad[:, 1, :].any()  # no mass, no gradient
        pt = solve_g(src, RandomizedResponse(epsilon=1.0, k=3, d=1), _replace(FAST, iterations=200))
        assert all(np.isfinite([pt.Gamma, pt.Omega, pt.nu, pt.ixz, pt.objective]))
        if empty == "s":
            assert pt.Omega == 0.0


class TestGradient:
    @pytest.mark.parametrize("card_x", [3, 4])
    @pytest.mark.parametrize("eps", [0.5, 3.0, None])  # None: a random channel, not symmetric like rr
    def test_matches_finite_differences(self, card_x, eps):
        # one batch whose rows carry different weights, against single-row values
        src = random_source(2, 2, card_x, seed=0)
        tables = ib_solver._tables(src)
        rng = np.random.default_rng(1)
        weights = np.array([[1, -1, 0.1], [1, -1, 2.0], [1, -1, 50.0], [0, 1, 0], [-0.5, 2, 3]])
        logits = rng.normal(size=(len(weights), card_x, card_x))
        if eps is None:
            channel = random_channel(card_x, card_x, seed=2).rows
        else:
            channel = rr_channel(RandomizedResponse(epsilon=eps, k=card_x, d=1)).rows
        _, grads = _objective_graph(logits, tables, channel, weights)
        num = np.zeros_like(logits)
        for b in range(len(weights)):
            for i in range(card_x):
                for j in range(card_x):
                    for sign in (1, -1):
                        pert = logits[b].copy()
                        pert[i, j] += sign * 1e-6
                        v, _ = _objective_graph(pert[None], tables, channel, weights[b : b + 1])
                        num[b, i, j] += sign * v[0] / 2e-6
        np.testing.assert_allclose(grads, num, rtol=1e-4, atol=1e-10)


class TestSolveG:
    def test_zero_budget_collapses_everything(self):
        for seed in range(3):
            src = random_source(2, 2, 3, seed=seed)
            pt = solve_g(src, RandomizedResponse(epsilon=0.0, k=3, d=1), FAST)
            assert pt.Gamma <= 1e-12
            assert pt.Omega <= 1e-12
            assert pt.ixz <= 1e-12

    def test_budget_bounds_hold(self):
        src = random_source(2, 2, 3, seed=7)
        pt = solve_g(src, RandomizedResponse(epsilon=1.0, k=3, d=1), _replace(FAST, beta=5.0))
        ok, report = check_theorem1(pt, gamma=pt.Gamma)
        assert ok, report

    def test_large_beta_prioritizes_utility(self):
        src = random_source(2, 2, 3, seed=2)
        mech = RandomizedResponse(epsilon=2.0, k=3, d=1)
        low = solve_g(src, mech, _replace(FAST, beta=0.01))
        high = solve_g(src, mech, _replace(FAST, beta=100.0))
        # equal up to optimizer tolerance when even tiny beta saturates utility
        assert high.Gamma >= low.Gamma - 1e-4

    def test_alphabet_mismatch_rejected(self):
        src = random_source(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError):
            solve_g(src, RandomizedResponse(epsilon=1.0, k=4, d=1), FAST)

    def test_deterministic_given_seed(self):
        src = random_source(2, 2, 3, seed=4)
        mech = RandomizedResponse(epsilon=1.0, k=3, d=1)
        a = solve_g(src, mech, FAST)
        b = solve_g(src, mech, FAST)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.encoder.rows, b.encoder.rows)

    def test_objective_describes_returned_encoder(self):
        src = random_source(2, 2, 3, seed=7)
        mech = RandomizedResponse(epsilon=1.0, k=3, d=1)
        pt = solve_g(src, mech, _replace(FAST, beta=5.0, iterations=50))
        assert abs(pt.objective - (pt.nu + 5.0 * pt.Gamma)) <= 1e-12
        for p in trace_frontier(src, mech, [0.1, 1.0, 10.0], _replace(FAST, iterations=50)):
            assert abs(p.objective - (p.nu + p.beta * p.Gamma)) <= 1e-12


class TestFrontier:
    def test_one_point_per_beta(self):
        src = random_source(2, 2, 3, seed=1)
        mech = RandomizedResponse(epsilon=1.0, k=3, d=1)
        pts = trace_frontier(src, mech, [10.0, 0.1, 1.0], FAST)
        assert [p.beta for p in pts] == [0.1, 1.0, 10.0]

    @pytest.mark.parametrize("card_x, eps, iterations, tol", [(3, 1.0, 400, 1e-6), (4, 0.5, 800, 1e-7)])
    def test_each_point_equals_a_solo_solve(self, card_x, eps, iterations, tol):
        # some rows stop early while others run on; a stopped row that kept
        # stepping, or rows that leaked into each other, would move a point
        src = random_source(2, 2, card_x, seed=3)
        mech = RandomizedResponse(epsilon=eps, k=card_x, d=1)
        cfg = _replace(FAST, iterations=iterations, tol=tol)
        betas = [0.01, 0.1, 1.0, 10.0, 100.0]
        pts = trace_frontier(src, mech, betas, cfg)
        assert any(p.converged for p in pts) and not all(p.converged for p in pts)
        for beta, p in zip(betas, pts):
            solo = solve_g(src, mech, _replace(cfg, beta=beta))
            for f in fields(p):
                a, b = getattr(p, f.name), getattr(solo, f.name)
                if f.name == "encoder":
                    np.testing.assert_allclose(a.rows, b.rows, rtol=0, atol=1e-12)
                elif isinstance(a, float):
                    assert abs(a - b) <= 1e-12 or (np.isnan(a) and np.isnan(b)), f.name
                else:
                    assert a == b, f.name

    def test_utility_nondecreasing_in_beta(self):
        src = random_source(2, 2, 3, seed=12)
        mech = RandomizedResponse(epsilon=2.0, k=3, d=1)
        pts = trace_frontier(src, mech, [0.01, 0.1, 1.0, 10.0, 100.0], FAST)
        gammas = [p.Gamma for p in pts]
        for lo, hi in zip(gammas, gammas[1:]):
            assert hi >= lo - 1e-4  # optimizer tolerance


class TestBruteForceOracle:
    def test_gamma_zero_reaches_zero_leakage(self):
        src = random_source(2, 2, 3, seed=0)
        leak, ch = solve_G_bruteforce(src, gamma=0.0, budget=10_000, seed=0)
        assert leak <= 1e-12
        assert ch.out_card == src.card_x

    def test_infeasible_gamma_raises(self):
        src = random_source(2, 2, 3, seed=0)
        cap = mutual_information(src.p_ux())
        with pytest.raises(InfeasibleGammaError):
            solve_G_bruteforce(src, gamma=cap + 0.1, budget=10_000, seed=0)

    def test_identity_channel_included(self):
        # at gamma = I(U;X) only near-lossless channels qualify, and the
        # deterministic enumeration contains the identity, so a solution exists
        src = random_source(2, 2, 3, seed=5)
        cap = mutual_information(src.p_ux())
        leak, _ = solve_G_bruteforce(src, gamma=cap, budget=10_000, seed=0)
        full_leak = mutual_information(src.p_sx())
        assert leak <= full_leak + 1e-9

    def test_large_alphabet_rejected(self):
        src = random_source(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError):
            solve_G_bruteforce(src, gamma=0.0, budget=1000, card_z=5)

    def test_deterministic_given_seed(self):
        src = random_source(2, 2, 3, seed=8)
        a, _ = solve_G_bruteforce(src, gamma=0.02, budget=20_000, seed=0)
        b, _ = solve_G_bruteforce(src, gamma=0.02, budget=20_000, seed=0)
        assert a == b


def serial_oracle(src, gamma, budget, seed):
    """The oracle's search written as one serial pass: every deterministic
    channel, then one unchunked Dirichlet draw per concentration."""
    k = src.card_x
    # channel i sends x to digit x of i in base k, as the oracle enumerates them
    det = np.array([np.eye(k)[list(code[::-1])] for code in itertools.product(range(k), repeat=k)])
    rng = np.random.default_rng(seed)
    per_conc = (budget - len(det)) // 4
    draws = [rng.dirichlet(np.full(k, a), size=(per_conc, k)) for a in (0.05, 0.2, 1.0, 5.0)]
    cands = np.concatenate([det] + draws)
    feasible = cands[_batched_mi_terms(src.p_ux(), cands) >= gamma - 1e-6]
    leak = _batched_mi_terms(src.p_sx(), feasible)
    i = int(np.argmin(leak))  # the first minimum
    return float(leak[i]), new_channel(feasible[i]).rows


class TestOraclePipeline:
    # 57k candidates per concentration: three chunks each, the last one partial
    BUDGET = 230_000

    # at gamma = 0 every constant channel leaks nothing: a tie the first one wins
    @pytest.mark.parametrize("card_x, seed, frac", [(3, 1, 0.5), (4, 2, 0.5), (3, 5, 0.0)])
    def test_equals_serial_search(self, card_x, seed, frac):
        src = random_source(2, 2, card_x, seed=seed)
        gamma = frac * mutual_information(src.p_ux())
        leak, ch = solve_G_bruteforce(src, gamma, budget=self.BUDGET, seed=seed)
        ref_leak, ref_ch = serial_oracle(src, gamma, self.BUDGET, seed)
        assert leak == ref_leak
        np.testing.assert_array_equal(ch.rows, ref_ch)

    def test_chunk_size_does_not_matter(self, monkeypatch):
        src = random_source(2, 2, 4, seed=3)
        gamma = 0.5 * mutual_information(src.p_ux())
        leak, ch = solve_G_bruteforce(src, gamma, budget=self.BUDGET, seed=0)
        monkeypatch.setattr(ib_solver, "_CHUNK", 7_001)  # divides no per-concentration count here
        leak_small, ch_small = solve_G_bruteforce(src, gamma, budget=self.BUDGET, seed=0)
        assert leak_small == leak
        np.testing.assert_array_equal(ch_small.rows, ch.rows)

    def test_worker_thread_ends(self, monkeypatch):
        src = random_source(2, 2, 3, seed=4)
        cap = mutual_information(src.p_ux())
        before = threading.active_count()
        solve_G_bruteforce(src, 0.5 * cap, budget=60_000, seed=0)
        assert threading.active_count() == before
        # |Z| = 2 < |X| merges two inputs, so no candidate reaches I(U;X)
        with pytest.raises(InfeasibleGammaError, match="no candidate"):
            solve_G_bruteforce(src, cap, budget=60_000, seed=0, card_z=2)
        assert threading.active_count() == before

        calls = []

        def failing(probs, channels):
            calls.append(len(channels))
            if len(calls) == 3:
                raise RuntimeError("scoring failed")
            return _batched_mi_terms(probs, channels)

        monkeypatch.setattr(ib_solver, "_batched_mi_terms", failing)
        with pytest.raises(RuntimeError, match="scoring failed"):
            solve_G_bruteforce(src, 0.5 * cap, budget=60_000, seed=0)
        assert threading.active_count() == before


class TestLogRatio:
    def test_matches_per_cell_formula_with_zero_cells(self):
        src = random_source(2, 2, 4, seed=6)
        det = np.array([np.eye(4)[list(code)] for code in itertools.product(range(4), repeat=4)])
        for p_ax in (src.p_ux(), src.p_sx(), np.diag(src.p_x())):
            p_az, log_ratio = _log_ratio(p_ax, det)
            p_a = p_ax.sum(axis=1)
            for b, a, z in itertools.product(range(len(det)), range(len(p_a)), range(4)):
                joint = sum(p_ax[a, x] * det[b, x, z] for x in range(4))
                p_z = sum(p_ax[i, x] * det[b, x, z] for i in range(len(p_a)) for x in range(4))
                naive = math.log(joint / (p_a[a] * p_z)) if joint > 0 else 0.0
                assert p_az[b, a, z] == pytest.approx(joint, abs=1e-15)
                assert abs(log_ratio[b, a, z] - naive) <= 1e-15

    @pytest.mark.parametrize("card_x", [3, 4])
    def test_vanishes_under_zero_budget_rr(self, card_x):
        rows = rr_channel(RandomizedResponse(epsilon=0.0, k=card_x, d=1)).rows
        for seed in range(4):
            src = random_source(2, 2, card_x, seed=seed)
            for p_ax in (src.p_ux(), src.p_sx()):
                _, log_ratio = _log_ratio(p_ax, rows[None])
                assert np.abs(log_ratio).max() <= 1e-15
