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
    random_source,
    rr_channel,
    solve_G_bruteforce,
    solve_g,
    trace_frontier,
)
from ldpfair import autodiff as ad
from ldpfair import ib_solver
from ldpfair.ib_solver import _batched_mi_terms, _log_ratio, _objective_graph

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")  # a zero cell's log must stay silent

softmax = ad.ACTIVATIONS["softmax"][0]  # the solver's encoder p(z|x) from logits

FAST = SolverConfig(restarts=2, iterations=800)


def _replace(cfg, **kw):
    return replace(cfg, **kw)


def start(cfg, r, card_x, k):
    """The symbols of the search's start r above the cap, as documented."""
    return np.random.default_rng([cfg.seed, r]).integers(0, k, size=card_x)


# (|X|, eps, sweeps) above the cap where some betas converge and others run out of sweeps
SOLO_CASES = [(5, 1.0, 2), (5, 3.0, 2)]


def per_table_objective(channels, src, weights):
    """The kernel's value written one table at a time, each table with its
    own p(z), from `_log_ratio`."""
    value = 0.0
    for t, p_ax in enumerate((np.diag(src.p_x()), src.p_sx(), src.p_ux())):
        p_az, log_ratio = _log_ratio(p_ax, channels)
        value = value + weights[:, t] * (p_az * log_ratio).sum(axis=(0, 1))
    return value


# one row per objective: the solver's (1, -1, beta), each term alone, and mixed signs
WEIGHTS = np.array([[1, -1, 0.1], [1, -1, 2], [1, 0, 0], [0, 1, 0], [0, 0, 1], [-0.5, 2, 3]])


class TestObjectiveKernel:
    @pytest.mark.parametrize("card_x", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 3.0])
    def test_equals_per_table_formula(self, card_x, eps):
        channel = rr_channel(RandomizedResponse(epsilon=eps, k=card_x, d=1)).rows
        for seed in range(3):
            src = random_source(2, 2, card_x, seed=seed)
            channels = softmax(np.random.default_rng(seed).normal(size=(len(WEIGHTS), card_x, card_x))) @ channel
            value = _objective_graph(channels, ib_solver._tables(src), WEIGHTS)
            np.testing.assert_allclose(value, per_table_objective(channels, src, WEIGHTS), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("empty", ["x", "s"])
    def test_empty_symbol_gives_finite_values_and_zero_terms(self, empty):
        probs = random_source(2, 2, 3, seed=1).probs.copy()
        if empty == "x":
            probs[:, :, 1] = 0.0  # p(x = 1) = 0: an empty row of diag p(x), an empty column everywhere
        else:
            probs[:, 1, :] = 0.0  # p(s = 1) = 0: an empty row of p(s, x)
        src = JointSourceUSX(probs / probs.sum())
        channel = rr_channel(RandomizedResponse(epsilon=1.0, k=3, d=1)).rows
        encoders = softmax(np.random.default_rng(2).normal(size=(len(WEIGHTS), 3, 3)))
        value = _objective_graph(encoders @ channel, ib_solver._tables(src), WEIGHTS)
        assert np.isfinite(value).all()
        np.testing.assert_allclose(value, per_table_objective(encoders @ channel, src, WEIGHTS), rtol=0, atol=1e-13)
        # each term alone is the exact mutual information of the induced joint
        for b, pair in ((2, "p_xz"), (3, "p_sz"), (4, "p_uz")):  # the rows (1, 0, 0), (0, 1, 0), (0, 0, 1)
            joint = induced_joint(src, compose(new_channel(encoders[b]), new_channel(channel)))
            assert abs(value[b] - mutual_information(getattr(joint, pair)())) <= 1e-13
        pt = solve_g(src, RandomizedResponse(epsilon=1.0, k=3, d=1), _replace(FAST, iterations=200))
        assert all(np.isfinite([pt.Gamma, pt.Omega, pt.nu, pt.ixz, pt.objective]))
        if empty == "s":
            assert pt.Omega == 0.0


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

    def test_negative_seed_rejected(self):
        with pytest.raises(PreconditionError, match="seed"):
            SolverConfig(seed=-1)

    @pytest.mark.parametrize("restarts", [3, 4])
    def test_zero_budget_tie_goes_to_the_first_restart(self, restarts):
        # at eps = 0 every objective is 0 up to rounding; above the cap the
        # first restart wins by its position, not by which encoder it holds,
        # and every term collapses
        betas = [0.01, 0.1, 1.0, 10.0, 100.0]
        for card_x in (5, 6):
            src = random_source(2, 2, card_x, seed=restarts)
            mech = RandomizedResponse(epsilon=0.0, k=card_x, d=1)
            for seed in (0, 1, 2):  # other seeds, other starts
                cfg = _replace(FAST, restarts=restarts, iterations=50, seed=seed)
                for p in trace_frontier(src, mech, betas, cfg):
                    np.testing.assert_array_equal(p.encoder.rows, np.eye(card_x)[start(cfg, 0, card_x, card_x)])
                    assert max(p.Gamma, p.Omega, p.ixz) <= 1e-12

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

    @pytest.mark.parametrize("card_x, eps, iterations", SOLO_CASES)
    def test_each_point_equals_a_solo_solve(self, card_x, eps, iterations):
        # above the cap some rows stop early while others climb on; a stopped
        # row that kept moving, or rows that leaked into each other, would
        # move a point
        src = random_source(2, 2, card_x, seed=3)
        mech = RandomizedResponse(epsilon=eps, k=card_x, d=1)
        cfg = _replace(FAST, iterations=iterations)
        betas = [0.01, 0.1, 1.0, 10.0, 100.0]
        pts = trace_frontier(src, mech, betas, cfg)
        assert any(p.converged for p in pts) and not all(p.converged for p in pts)
        for p, again in zip(pts, trace_frontier(src, mech, betas, cfg)):  # the same seed, the same encoders
            np.testing.assert_array_equal(p.encoder.rows, again.encoder.rows)
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


def deterministic_objectives(src, mech, betas):
    """(len(betas), |Zhat|^|X|) objectives I(X;Z) - I(S;Z) + beta I(U;Z) of
    every deterministic encoder, each written out and scored on its joint."""
    k, rr = mech.k, rr_channel(mech)
    terms = []
    for choice in itertools.product(range(k), repeat=src.card_x):
        joint = induced_joint(src, compose(new_channel(np.eye(k)[list(choice)]), rr))
        terms.append([mutual_information(joint.p_xz()) - mutual_information(joint.p_sz()),
                      mutual_information(joint.p_uz())])
    nu, gamma = np.array(terms).T
    return nu + np.array(betas)[:, None] * gamma


class TestExactPath:
    BETAS = [0.01, 0.1, 1.0, 10.0, 100.0]

    @pytest.mark.parametrize("card_x", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
    def test_objective_is_the_best_deterministic_encoder(self, card_x, eps):
        mech = RandomizedResponse(epsilon=eps, k=card_x, d=1)
        for seed in range(10):
            src = random_source(2, 2, card_x, seed=seed)
            pts = trace_frontier(src, mech, self.BETAS, FAST)
            best = deterministic_objectives(src, mech, self.BETAS).max(axis=1)
            for p, b in zip(pts, best):
                assert p.converged
                assert abs(p.objective - b) <= 1e-12

    @pytest.mark.parametrize("card_x", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
    def test_no_random_encoder_beats_the_returned_point(self, card_x, eps):
        # the objective is convex in the encoder, so no mixed encoder beats every vertex
        mech = RandomizedResponse(epsilon=eps, k=card_x, d=1)
        channel = rr_channel(mech).rows
        for seed in range(10):
            src = random_source(2, 2, card_x, seed=seed)
            encoders = np.random.default_rng(seed).dirichlet(np.ones(card_x), size=(10_000, card_x))
            for p in trace_frontier(src, mech, self.BETAS, FAST):
                weights = np.tile([1.0, -1.0, p.beta], (len(encoders), 1))
                values = _objective_graph(encoders @ channel, ib_solver._tables(src), weights)
                assert values.max() <= p.objective + 1e-12

    @pytest.mark.parametrize("card_x", [2, 3, 4])
    def test_zero_budget_returns_the_constant_encoder(self, card_x):
        mech = RandomizedResponse(epsilon=0.0, k=card_x, d=1)
        constant = np.eye(card_x)[[0] * card_x]
        for seed in range(5):
            src = random_source(2, 2, card_x, seed=seed)
            for p in trace_frontier(src, mech, self.BETAS, FAST):
                np.testing.assert_array_equal(p.encoder.rows, constant)
                assert max(p.Gamma, p.Omega, p.ixz) <= 1e-12

    @pytest.mark.parametrize("field, value", [("beta", math.nan), ("beta", math.inf), ("beta", -1.0)])
    def test_config_rejects_a_value_that_is_not_finite(self, field, value):
        with pytest.raises(PreconditionError, match=field):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -0.5])
    def test_frontier_rejects_a_beta_that_is_not_finite(self, beta):
        src = random_source(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError, match="beta"):
            trace_frontier(src, RandomizedResponse(epsilon=1.0, k=3, d=1), [1.0, beta], FAST)


def best_deterministic_objectives(src, rr_rows, betas):
    """(len(betas),) best I(X;Z) - I(S;Z) + beta I(U;Z) over every
    deterministic encoder, each scored by the oracle's kernel in chunks."""
    k = len(rr_rows)
    symbols = np.indices((k,) * src.card_x).reshape(src.card_x, -1).T
    best = np.full(len(betas), -np.inf)
    for lo in range(0, len(symbols), 50_000):
        channels = rr_rows[symbols[lo:lo + 50_000]]
        nu = _batched_mi_terms(np.diag(src.p_x()), channels) - _batched_mi_terms(src.p_sx(), channels)
        values = nu + np.multiply.outer(betas, _batched_mi_terms(src.p_ux(), channels))
        best = np.maximum(best, values.max(axis=1))
    return best


class TestSearch:
    """Above 4^4 deterministic encoders: the steepest-ascent search."""

    BETAS = [0.01, 0.1, 1.0, 10.0, 100.0]

    @pytest.mark.parametrize("card_x, sources", [(5, 5), (6, 3), (7, 1)])
    def test_above_the_cap_the_search_is_exhaustive(self, card_x, sources):
        for seed in range(sources):
            src = random_source(2, 2, card_x, seed=seed)
            for eps in (0.5, 1.0, 3.0, 8.0):
                mech = RandomizedResponse(epsilon=eps, k=card_x, d=1)
                best = best_deterministic_objectives(src, rr_channel(mech).rows, np.array(self.BETAS))
                for p, b in zip(trace_frontier(src, mech, self.BETAS, SolverConfig()), best):
                    assert p.converged
                    assert abs(p.objective - b) <= 1e-12, (seed, eps, p.beta)

    def test_one_sweep_does_not_converge(self):
        # SOLO_CASES' source needs two sweeps or more at every beta
        src = random_source(2, 2, 5, seed=3)
        mech = RandomizedResponse(epsilon=1.0, k=5, d=1)
        assert not any(p.converged for p in trace_frontier(src, mech, self.BETAS, _replace(FAST, iterations=1)))
        assert all(p.converged for p in trace_frontier(src, mech, self.BETAS, FAST))

    def test_a_product_mechanism_returns_a_deterministic_encoder(self):
        # k = 2, d = 2: |Zhat| = 4 and 4^5 encoders, above the cap
        src = random_source(2, 2, 5, seed=1)
        mech = RandomizedResponse(epsilon=2.0, k=2, d=2)
        rr = rr_channel(mech)
        for p in trace_frontier(src, mech, self.BETAS, _replace(FAST, zhat_card=4)):
            rows = p.encoder.rows
            assert rows.shape == (5, 4) and set(np.unique(rows)) <= {0.0, 1.0}
            np.testing.assert_array_equal(rows.sum(axis=1), 1.0)
            joint = induced_joint(src, compose(p.encoder, rr))
            nu = mutual_information(joint.p_xz()) - mutual_information(joint.p_sz())
            assert abs(p.objective - (nu + p.beta * mutual_information(joint.p_uz()))) <= 1e-12


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


def exp_power_rows(stream, alpha, size, k):
    """`size` random k x k channels from `stream`, each row k draws of
    Exp(1)^(1/alpha) divided by their sum."""
    e = np.random.default_rng(stream).standard_exponential((size, k, k)) ** (1 / alpha)
    return e / e.sum(axis=2, keepdims=True)


def serial_oracle(src, gamma, budget, seed):
    """The oracle's search written as one serial pass: every deterministic
    channel, then each chunk drawn in order from its own spawned stream."""
    k = src.card_x
    # channel i sends x to digit x of i in base k, as the oracle enumerates them
    det = np.array([np.eye(k)[list(code[::-1])] for code in itertools.product(range(k), repeat=k)])
    per_conc = (budget - len(det)) // 4
    sizes = [(a, min(ib_solver._CHUNK, per_conc - done))
             for a in (0.05, 0.2, 1.0, 5.0) for done in range(0, per_conc, ib_solver._CHUNK)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    draws = [exp_power_rows(st, a, n, k) for st, (a, n) in zip(streams, sizes)]
    cands = np.concatenate([det] + draws)
    feasible = cands[_batched_mi_terms(src.p_ux(), cands) >= gamma - 1e-6]
    leak = _batched_mi_terms(src.p_sx(), feasible)
    i = int(np.argmin(leak))  # the first minimum
    return float(leak[i]), new_channel(feasible[i]).rows


class TestOraclePipeline:
    # 57k candidates per concentration: five chunks each, the last one partial
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

    def test_worker_count_does_not_matter(self, monkeypatch):
        src = random_source(2, 2, 4, seed=3)
        gamma = 0.5 * mutual_information(src.p_ux())
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(ib_solver, "_WORKERS", workers)
            results.append(solve_G_bruteforce(src, gamma, budget=self.BUDGET, seed=0))
        for leak, ch in results[1:]:
            assert leak == results[0][0]
            np.testing.assert_array_equal(ch.rows, results[0][1].rows)

    @pytest.mark.parametrize("seed", [0, 5, 12345])
    def test_chunk_streams_apart_from_solver_restarts(self, seed):
        # restart r of the solver draws from default_rng([seed, r]); SeedSequence
        # pads its entropy with zeros, so default_rng(seed) is restart 0's stream
        restarts = {tuple(np.random.SeedSequence([seed, r]).generate_state(8)) for r in range(8)}
        per_conc = (1_000_000 - 4**4) // 4
        n_chunks = 4 * -(-per_conc // ib_solver._CHUNK)
        # the oracle draws from these streams (test_equals_serial_search)
        for stream in np.random.SeedSequence(seed).spawn(n_chunks):
            assert tuple(stream.generate_state(8)) not in restarts

    @pytest.mark.parametrize("seed", [0, 7])
    def test_lazy_streams_are_the_spawned_children(self, monkeypatch, seed):
        src = random_source(2, 2, 3, seed=1)
        n_chunks = 4 * -(-((self.BUDGET - 27) // 4) // ib_solver._CHUNK)
        made, default_rng = [], np.random.default_rng

        def recording(stream):
            made.append((stream.spawn_key, tuple(stream.generate_state(8))))
            return default_rng(stream)

        monkeypatch.setattr(np.random, "default_rng", recording)
        solve_G_bruteforce(src, 0.5 * mutual_information(src.p_ux()), budget=self.BUDGET, seed=seed)
        children = np.random.SeedSequence(seed).spawn(n_chunks)
        assert sorted(made) == [((c,), tuple(children[c].generate_state(8))) for c in range(n_chunks)]

    def candidate_batches(self, monkeypatch, src, alpha, budget):
        """Every batch the oracle scores against p(u, x) at gamma = 0, with
        all random candidates drawn at one concentration `alpha`."""
        batches, mi_terms = [], ib_solver._batched_mi_terms

        def recording(probs, channels):
            if np.array_equal(probs, src.p_ux()):
                batches.append(channels.copy())
            return mi_terms(probs, channels)

        monkeypatch.setattr(ib_solver, "_CONCENTRATIONS", (alpha,))
        monkeypatch.setattr(ib_solver, "_batched_mi_terms", recording)
        solve_G_bruteforce(src, 0.0, budget=budget, seed=3)
        return batches

    @pytest.mark.parametrize("alpha", ib_solver._CONCENTRATIONS)
    def test_candidate_rows_are_distributions(self, monkeypatch, alpha):
        src = random_source(2, 2, 4, seed=2)
        batches = self.candidate_batches(monkeypatch, src, alpha, 256 + 2 * ib_solver._CHUNK)
        assert sum(map(len, batches)) == 256 + 2 * ib_solver._CHUNK
        for channels in batches:
            assert np.isfinite(channels).all() and (channels >= 0).all()
            np.testing.assert_allclose(channels.sum(axis=2), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", ib_solver._CONCENTRATIONS)
    def test_candidates_are_the_written_out_family(self, monkeypatch, alpha):
        monkeypatch.setattr(ib_solver, "_WORKERS", 1)  # the chunks scored in chunk order
        src = random_source(2, 2, 3, seed=2)
        sizes = [ib_solver._CHUNK, ib_solver._CHUNK, 100]
        batches = self.candidate_batches(monkeypatch, src, alpha, 27 + sum(sizes))
        assert [len(b) for b in batches] == [27] + sizes  # the deterministic channels first
        for stream, size, channels in zip(np.random.SeedSequence(3).spawn(3), sizes, batches[1:]):
            np.testing.assert_array_equal(channels, exp_power_rows(stream, alpha, size, 3))

    @pytest.mark.parametrize("card_x", [3, 4])
    def test_candidates_at_alpha_one_are_dirichlet_one(self, monkeypatch, card_x):
        # one entry of a Dirichlet(1) row over k outcomes has mean 1/k and
        # variance (k - 1) / (k^2 (k + 1)); 8 chunks give 10^5 rows per x
        src = random_source(2, 2, card_x, seed=2)
        k = card_x
        batches = self.candidate_batches(monkeypatch, src, 1.0, k**k + 8 * ib_solver._CHUNK)
        entry = np.concatenate([b[:, :, 0].ravel() for b in batches if len(b) == ib_solver._CHUNK])
        assert len(entry) == 8 * ib_solver._CHUNK * k
        assert abs(entry.mean() - 1 / k) < 2e-3  # standard error about 5e-4
        assert abs(entry.var() - (k - 1) / (k**2 * (k + 1))) < 1e-3  # standard error about 2e-4

    def test_huge_budget_makes_a_bounded_number_of_streams(self, monkeypatch):
        # 10^11 candidates make 8 * 10^6 chunks; a stream or a future for
        # each of them, made before the first draw, takes gigabytes
        src = random_source(2, 2, 3, seed=4)
        made, submitted = [], []

        class CountedSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                made.append(kwargs.get("spawn_key"))
                super().__init__(*args, **kwargs)

            def spawn(self, n_children):
                raise AssertionError(f"{n_children} streams spawned at once")

        class CountedPool(ib_solver.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(args[1:])
                if len(submitted) > 100:
                    raise AssertionError("a future for every chunk")
                return super().submit(*args, **kwargs)

        def first_draw_fails(stream):
            raise RuntimeError("draw stopped")

        monkeypatch.setattr(ib_solver, "_WORKERS", 2)
        monkeypatch.setattr(ib_solver, "ThreadPoolExecutor", CountedPool)
        monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
        monkeypatch.setattr(np.random, "default_rng", first_draw_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw stopped"):
            solve_G_bruteforce(src, 0.5 * mutual_information(src.p_ux()), budget=10**11, seed=0)
        assert threading.active_count() == before
        assert 1 <= len(made) <= 4 and len(submitted) <= 4  # 2 * _WORKERS chunks in flight
        assert set(made) <= {(c,) for c in range(4)}

    def test_negative_seed_rejected(self):
        src = random_source(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError, match="seed"):
            solve_G_bruteforce(src, 0.0, budget=10_000, seed=-1)

    @pytest.mark.parametrize("card_z", [0, -1])
    def test_output_alphabet_below_one_rejected(self, card_z):
        src = random_source(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError, match=r"1 <= \|Z\| <= 4"):
            solve_G_bruteforce(src, 0.0, budget=10_000, seed=0, card_z=card_z)

    @pytest.mark.parametrize("budget", [1e5, 10_000.5, "10000"])
    def test_budget_not_an_integer_rejected(self, budget):
        src = random_source(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError, match="budget must be an integer"):
            solve_G_bruteforce(src, 0.05, budget=budget, seed=0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        # a NaN floor fails every comparison silently: without the check the
        # search scores every candidate and then reports "no candidate"
        src = random_source(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError, match="gamma must be finite"):
            solve_G_bruteforce(src, gamma, budget=10_000, seed=0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0, -1.0])
    def test_corollary_rejects_a_floor_that_is_not_finite_and_positive(self, gamma):
        src = random_source(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError, match="gamma must be finite and > 0"):
            ib_solver.check_corollary2(src, gamma, budget=10_000, cfg=FAST)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        # a budget below the deterministic channels' count would search those alone
        src = random_source(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError, match="budget"):
            solve_G_bruteforce(src, 0.05, budget=budget, seed=0)

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

    @pytest.mark.parametrize("where", ["draw", "scorer"])
    def test_failure_stops_the_search(self, monkeypatch, where):
        # 500k candidates make 40 chunks; the third draw or the fifth scoring call fails
        src = random_source(2, 2, 3, seed=4)
        budget = 500_000
        n_chunks = 4 * -(-((budget - 27) // 4) // ib_solver._CHUNK)
        lock, draws, calls, at_failure = threading.Lock(), [], [], []
        default_rng, mi_terms = np.random.default_rng, ib_solver._batched_mi_terms

        def fail_if(hit):
            if hit:
                at_failure.append(len(calls))
                raise RuntimeError(f"{where} failed")

        def drawing(stream):
            with lock:
                draws.append(stream)
                fail_if(where == "draw" and len(draws) == 3)
            return default_rng(stream)

        def scoring(probs, channels):
            with lock:
                calls.append(len(channels))
                fail_if(where == "scorer" and len(calls) == 5)
            return mi_terms(probs, channels)

        monkeypatch.setattr(np.random, "default_rng", drawing)
        monkeypatch.setattr(ib_solver, "_batched_mi_terms", scoring)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{where} failed"):
            solve_G_bruteforce(src, 0.5 * mutual_information(src.p_ux()), budget=budget, seed=0)
        assert threading.active_count() == before
        # the chunks already running may finish; the pending ones never start
        assert len(at_failure) == 1
        assert len(draws) <= n_chunks // 4
        assert len(calls) - at_failure[0] <= 2 * (n_chunks // 4)  # at most two scoring calls a chunk


def previous_log_ratio(p_ax, channels):
    """`_log_ratio` as it was written with p(z) = p_az.sum(axis=1)."""
    p_az = p_ax @ channels
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(p_az)
        log_ratio -= np.log(p_az.sum(axis=1, keepdims=True))
        log_ratio -= np.log(p_ax.sum(axis=1))[:, None]
    np.copyto(log_ratio, 0.0, where=p_az == 0)
    return p_az, log_ratio


def table_and_channels(card_a, card_x, card_z, empty_cell=False):
    """A random table p(a, x), with p(a=0, x=0) = 0 if `empty_cell`, and a
    batch of every deterministic channel, then sparse and dense random ones."""
    rng = np.random.default_rng([card_a, card_x, card_z])
    p_ax = rng.dirichlet(np.ones(card_a * card_x)).reshape(card_a, card_x)
    if empty_cell:
        p_ax[0, 0] = 0.0
        p_ax /= p_ax.sum()
    det = np.eye(card_z)[np.array(list(itertools.product(range(card_z), repeat=card_x)))]
    return p_ax, np.concatenate([det] + [
        rng.dirichlet(np.full(card_z, alpha), size=(500, card_x)) for alpha in (0.05, 1.0)
    ])


def bits(values):
    return np.asarray(values).view(np.int64)


class TestLogRatio:
    @pytest.mark.parametrize("card_a, card_x, card_z", itertools.product([2, 3, 4], repeat=3))
    @pytest.mark.parametrize("empty_cell", [False, True])
    def test_equals_previous_formula_bit_for_bit(self, card_a, card_x, card_z, empty_cell):
        p_ax, channels = table_and_channels(card_a, card_x, card_z, empty_cell)
        p_az, log_ratio = _log_ratio(p_ax, channels)
        ref_p_az, ref_log_ratio = previous_log_ratio(p_ax, channels)
        np.testing.assert_array_equal(p_az, ref_p_az.transpose(1, 2, 0))  # the (A, Z, B) layout
        np.testing.assert_array_equal(log_ratio, ref_log_ratio.transpose(1, 2, 0))
        np.testing.assert_array_equal(
            _batched_mi_terms(p_ax, channels), (ref_p_az * ref_log_ratio).sum(axis=(1, 2))
        )

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
                assert p_az[a, z, b] == pytest.approx(joint, abs=1e-15)
                assert abs(log_ratio[a, z, b] - naive) <= 1e-15

    @pytest.mark.parametrize("card_x", [3, 4])
    def test_vanishes_under_zero_budget_rr(self, card_x):
        rows = rr_channel(RandomizedResponse(epsilon=0.0, k=card_x, d=1)).rows
        for seed in range(4):
            src = random_source(2, 2, card_x, seed=seed)
            for p_ax in (src.p_ux(), src.p_sx()):
                _, log_ratio = _log_ratio(p_ax, rows[None])
                assert np.abs(log_ratio).max() <= 1e-15

    # |A| |Z| = n rows to fold: n < 8, 8 <= n <= 128 with and without a rest,
    # and n = 132 > 128, which numpy splits into 64 + 68 rows
    @pytest.mark.parametrize("card_a, card_z", [
        *itertools.product(range(2, 11), [2, 3, 4]), (33, 4),
    ])
    @pytest.mark.parametrize("card_x", [2, 4])
    def test_mi_terms_have_the_bits_of_the_previous_sum(self, card_a, card_x, card_z):
        p_ax, channels = table_and_channels(card_a, card_x, card_z, empty_cell=card_a % 2 == 1)
        ref_p_az, ref_log_ratio = previous_log_ratio(p_ax, channels)
        expected = (ref_p_az * ref_log_ratio).sum(axis=(1, 2))
        np.testing.assert_array_equal(bits(_batched_mi_terms(p_ax, channels)), bits(expected))

    @pytest.mark.parametrize("card_a, card_x, card_z", [(2, 3, 3), (2, 4, 4), (4, 4, 2), (3, 2, 4)])
    def test_one_candidate_scores_as_in_a_batch(self, card_a, card_x, card_z):
        # numpy sends a one-column product to gemv, which rounds in another order
        p_ax, channels = table_and_channels(card_a, card_x, card_z)
        batch = _batched_mi_terms(p_ax, channels)
        p_az, log_ratio = _log_ratio(p_ax, channels)
        for b in range(0, len(channels), 37):
            one_p_az, one_log_ratio = _log_ratio(p_ax, channels[b : b + 1])
            np.testing.assert_array_equal(one_p_az[..., 0], p_az[..., b])
            np.testing.assert_array_equal(one_log_ratio[..., 0], log_ratio[..., b])
            assert bits(_batched_mi_terms(p_ax, channels[b : b + 1])) == bits(batch[b])

    @pytest.mark.parametrize("card_a, card_z", [(1, 4), (11, 3), (17, 2), (40, 3)])
    def test_large_or_single_row_tables_within_two_ulp(self, card_a, card_z):
        # the bits hold on the grid above; here the BLAS may add the same
        # |X| products in another rounding order: the stated tolerance
        p_ax, channels = table_and_channels(card_a, 4, card_z)
        ref_p_az, ref_log_ratio = previous_log_ratio(p_ax, channels)
        p_az, _ = _log_ratio(p_ax, channels)
        ref = ref_p_az.transpose(1, 2, 0)
        assert (np.abs(p_az - ref) <= 2 * np.spacing(ref)).all()
        np.testing.assert_allclose(
            _batched_mi_terms(p_ax, channels), (ref_p_az * ref_log_ratio).sum(axis=(1, 2)), rtol=0, atol=1e-14
        )

    def test_chunk_memory_stays_under_2_1_mib(self):
        import tracemalloc

        src = random_source(2, 2, 4, seed=1)
        channels = np.random.default_rng(0).dirichlet(np.ones(4), size=(ib_solver._CHUNK, 4))
        tracemalloc.start()
        try:
            _batched_mi_terms(src.p_ux(), channels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2.0 MiB measured; the (B, A, Z) scorer peaked at 2.35 MiB, and copying
        # the rows to fold instead of folding them in place costs 0.76 MiB more
        assert peak <= 2.1 * 2**20
