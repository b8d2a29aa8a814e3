import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpfair import (
    InvalidDistributionError,
    MineConfig,
    PreconditionError,
    compose,
    conditional_mi,
    entropy,
    induced_joint,
    laplace_mixture_mi,
    mine_estimate,
    mutual_information,
    new_channel,
    plugin_mi,
    random_channel,
    random_source,
)

# frozen oracle values (independent closed-form computation)
H_QUARTER = 0.5623351446188083  # -(0.25 ln 0.25 + 0.75 ln 0.75)
BSC_QUARTER_MI = 0.13081203594113694  # ln 2 - H_QUARTER


@st.composite
def distributions(draw, size):
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    arr = np.array(raw)
    return arr / arr.sum()


class TestEntropy:
    def test_uniform(self):
        assert entropy([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-12)

    def test_deterministic_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_quarter(self):
        assert entropy([0.25, 0.75]) == pytest.approx(H_QUARTER, abs=1e-12)

    def test_invalid_mass(self):
        with pytest.raises(InvalidDistributionError):
            entropy([0.5, 0.4])

    @given(distributions(4))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, p):
        h = entropy(p)
        assert 0.0 <= h <= np.log(len(p)) + 1e-12


class TestMutualInformation:
    def test_independent_is_zero(self):
        joint = np.outer([0.3, 0.7], [0.4, 0.6])
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_coupled(self):
        assert mutual_information(np.diag([0.5, 0.5])) == pytest.approx(np.log(2), abs=1e-12)

    def test_binary_symmetric_channel(self):
        # uniform input through a symbol-flip channel with flip rate 1/4
        flip = 0.25
        joint = 0.5 * np.array([[1 - flip, flip], [flip, 1 - flip]])
        assert mutual_information(joint) == pytest.approx(BSC_QUARTER_MI, abs=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_data_processing_inequality(self, data):
        src = random_source(2, 2, 3, seed=data.draw(st.integers(0, 10_000)))
        enc = random_channel(3, 3, seed=data.draw(st.integers(0, 10_000)))
        post = random_channel(3, 3, seed=data.draw(st.integers(0, 10_000)))
        mi_once = mutual_information(induced_joint(src, enc).p_xz())
        mi_twice = mutual_information(induced_joint(src, compose(enc, post)).p_xz())
        assert mi_twice <= mi_once + 1e-9


class TestConditionalMi:
    def test_chain_rule_exact(self):
        # I(S;Z) = I(X;Z) - I(X;Z|S) whenever (u,s) -> x -> z is Markov
        for seed in range(10):
            src = random_source(2, 2, 3, seed=seed)
            enc = random_channel(3, 4, seed=seed + 100)
            full = induced_joint(src, enc)
            isz = mutual_information(full.p_sz())
            ixz = mutual_information(full.p_xz())
            cmi = conditional_mi(full.p_xzs())
            assert isz == pytest.approx(ixz - cmi, abs=1e-10)

    def test_conditioning_on_independent_side(self):
        # s independent of (u, x): conditioning on s changes nothing
        from ldpfair import new_joint

        p_ux = np.array([[0.1, 0.3], [0.4, 0.2]])
        probs = np.zeros((2, 2, 2))
        for s in range(2):
            probs[:, s, :] = 0.5 * p_ux
        src_ind = new_joint(probs)
        enc = random_channel(2, 2, seed=4)
        full = induced_joint(src_ind, enc)
        assert conditional_mi(full.p_xzs()) == pytest.approx(
            mutual_information(full.p_xz()), abs=1e-10
        )


class TestPluginMi:
    def test_independent_labels(self):
        assert plugin_mi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_identical_labels(self):
        a = [0, 1] * 50
        assert plugin_mi(a, a) == pytest.approx(np.log(2), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            plugin_mi([0, 1], [0, 1, 0])

    def test_cardinality_violation(self):
        with pytest.raises(PreconditionError):
            plugin_mi([0, 3], [0, 1], card_a=2)

    def test_smoothing_shrinks_estimate(self):
        a = [0, 1] * 20
        assert plugin_mi(a, a, smoothing=1.0) < plugin_mi(a, a)

    def test_huge_declared_alphabet_equals_compact_codes(self):
        # only the codes that occur are counted: a 10^10-code alphabet on
        # 200 samples gives the value of the same codes relabeled 0, 1, ...
        rng = np.random.default_rng(0)
        a = rng.integers(0, 10**10, size=200)
        a[100:] = a[:100]  # codes shared by several rows
        s = rng.integers(0, 2, size=200)
        compact = np.unique(a, return_inverse=True)[1]
        assert plugin_mi(a, s, card_a=10**10, card_b=2) == plugin_mi(compact, s)

    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 2.0])
    def test_equals_dense_table(self, smoothing):
        # the declared table written out cell by cell, unseen labels included
        rng = np.random.default_rng(1)
        for _ in range(40):
            n, ka, kb = rng.integers(2, 60), int(rng.integers(1, 8)), int(rng.integers(1, 5))
            a, b = rng.integers(0, ka, n), rng.integers(0, kb, n)
            card_a, card_b = ka + int(rng.integers(0, 4)), kb + int(rng.integers(0, 3))
            counts = np.zeros((card_a, card_b))
            np.add.at(counts, (a, b), 1.0)
            counts += smoothing
            dense = mutual_information(counts / counts.sum())
            est = plugin_mi(a, b, card_a=card_a, card_b=card_b, smoothing=smoothing)
            assert est == pytest.approx(dense, abs=1e-14)

    def test_consistency_on_sampled_joint(self):
        src = random_source(2, 2, 2, seed=0)
        enc = random_channel(2, 3, seed=1)
        full = induced_joint(src, enc)
        exact = mutual_information(full.p_sz())
        rng = np.random.default_rng(0)
        flat = full.probs.reshape(-1)
        draws = rng.choice(flat.size, size=100_000, p=flat)
        u, s, x, z = np.unravel_index(draws, full.probs.shape)
        est = plugin_mi(s, z, card_a=2, card_b=3)
        assert est == pytest.approx(exact, abs=0.01)


class TestMine:
    def test_needs_enough_samples(self):
        with pytest.raises(PreconditionError):
            mine_estimate(np.zeros(100), np.zeros(100), MineConfig(iterations=200), seed=0)

    def test_config_validation(self):
        with pytest.raises(PreconditionError):
            MineConfig(ema_rate=0.0)
        with pytest.raises(PreconditionError):
            MineConfig(iterations=10, avg_window=100)

    @pytest.mark.parametrize(
        "activation", ["relu", "relu6", "tanh", "sigmoid", "softmax", "identity"]
    )
    def test_hand_gradient_equals_tape(self, activation):
        # mine_estimate differentiates its statistics network with the
        # buffered MlpPass; the gradient must equal the tape's bit for bit
        from ldpfair import autodiff as ad

        rng = np.random.default_rng(4)
        spec = ad.MlpSpec(widths=(3, 6, 5, 1), activations=(activation, activation, "identity"))
        net = ad.Mlp(spec, rng)
        x = 3.0 * rng.normal(size=(40, 3))
        upstream = rng.normal(size=(40, 1))

        ad.zero_grad(net.parameters())
        ad.backward(ad.tsum(ad.mul(net(ad.Tensor(x)), ad.Tensor(upstream))))
        taped = [p.grad for p in net.parameters()]

        mlp = ad.MlpPass(net)
        assert np.array_equal(mlp.forward(x), net(ad.Tensor(x)).data)
        grads = [np.empty(p.data.shape) for p in net.parameters()]
        mlp.backward(upstream.copy(), grads)
        assert all(np.array_equal(g, t) for g, t in zip(grads, taped))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=1000)
        b = a + rng.normal(size=1000)
        cfg = MineConfig(iterations=300, batch_size=128)
        assert mine_estimate(a, b, cfg, seed=1) == mine_estimate(a, b, cfg, seed=1)

    def test_orders_dependence(self):
        # strong dependence scores clearly above independence at equal budget
        rng = np.random.default_rng(2)
        n = 4000
        a = rng.normal(size=n)
        dep = 0.95 * a + np.sqrt(1 - 0.95**2) * rng.normal(size=n)
        ind = rng.normal(size=n)
        cfg = MineConfig(iterations=1500)
        assert mine_estimate(a, dep, cfg, seed=0) > mine_estimate(a, ind, cfg, seed=0) + 0.3


def _laplace_mixture_truth(points, p_sc, scale, grid):
    """I(S;Z) for Z = C + Laplace(scale)^d, C on finite support, by quadrature.

    points: (m, d) support of C; p_sc: (|S|, m) joint of (s, c).  A Riemann
    sum over a grid reaching 25 scales past the support is accurate to
    about 1e-4 nats here.
    """
    d = points.shape[1]
    lim = np.abs(points).max() + 25.0 * scale
    g = np.linspace(-lim, lim, grid)
    z = g[:, None] if d == 1 else np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    dens = np.exp(-np.abs(z[:, None, :] - points[None]).sum(-1) / scale) / (2 * scale) ** d
    p_zs = dens @ p_sc.T
    p_z = p_zs.sum(axis=1, keepdims=True)
    ratio = np.maximum(p_zs, 1e-300) / np.maximum(p_z * p_sc.sum(axis=1), 1e-300)
    return float((p_zs * np.log(ratio)).sum() * (g[1] - g[0]) ** d)


def _finite_support_draw(points, p_sc, scale, n, seed):
    """A clean vector holding each (s, c) pair in exact proportion, plus one noise draw."""
    idx = np.repeat(np.arange(p_sc.size), np.round(p_sc.reshape(-1) * n).astype(int))
    s, which = np.divmod(idx, points.shape[0])
    clean = points[which]
    noisy = clean + np.random.default_rng(seed).laplace(0.0, scale, size=clean.shape)
    return clean, s, noisy


def _previous_laplace_mixture_mi(clean, s, noisy, scale):
    """The estimator's former formula, kept to pin its bits: blocks of
    2^18 pairs, each step on a fresh array, each block's terms summed and
    added to the running total in order."""
    c, z = np.asarray(clean, dtype=np.float64), np.asarray(noisy, dtype=np.float64)
    c = c.reshape(-1, 1) if c.ndim == 1 else c
    z = z.reshape(-1, 1) if z.ndim == 1 else z
    labels = np.asarray(s).reshape(-1)
    classes, counts = np.unique(labels, return_counts=True)
    order = np.argsort(labels, kind="stable")
    c, z, labels = c[order], z[order], labels[order]
    bounds = np.concatenate([[0], np.cumsum(counts)])
    n = c.shape[0]
    rows_per_block = max(1, 2**18 // n)
    total = 0.0
    for lo in range(0, n, rows_per_block):
        hi = min(n, lo + rows_per_block)
        logk = np.abs(z[lo:hi, 0:1] - c[:, 0])
        for k in range(1, c.shape[1]):
            logk += np.abs(z[lo:hi, k : k + 1] - c[:, k])
        logk *= -1.0 / scale
        rows = np.arange(hi - lo)
        logk[rows, lo + rows] = -np.inf
        per_class = np.empty((hi - lo, classes.size))
        for m, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            block = logk[:, a:b]
            shift = block.max(axis=1, keepdims=True)
            per_class[:, m] = np.log(np.exp(block - shift).sum(axis=1)) + shift[:, 0]
        own = np.searchsorted(classes, labels[lo:hi])
        log_cond = per_class[rows, own] - np.log(counts[own] - 1)
        shift = per_class.max(axis=1, keepdims=True)
        log_marg = np.log(np.exp(per_class - shift).sum(axis=1)) + shift[:, 0] - np.log(n - 1)
        total += float((log_cond - log_marg).sum())
    return total / n


def _mixture_draw(n, d, classes, scale, seed):
    """Clean vectors uniform on [-1/2, 1/2]^d shifted by 0.2 s, s uniform
    over the classes (each at least twice), and one Laplace noise draw."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, classes, n)
    s[: 2 * classes] = np.arange(2 * classes) % classes
    clean = rng.uniform(-0.5, 0.5, size=(n, d)) + 0.2 * s[:, None]
    return clean, s, clean + rng.laplace(0.0, scale, size=(n, d))


class TestLaplaceMixture:
    # Over 40 noise seeds at n = 4000 the estimate's error against the
    # quadrature truth had standard deviation 0.0025 (d = 1) and 0.0031
    # (d = 2), with mean within 0.0004 of zero.
    CASES = {
        "d1": (np.array([[-0.5], [0.1], [0.5]]), [[0.25, 0.15, 0.10], [0.10, 0.15, 0.25]], 0.4, 4001),
        "d2": (
            np.array([[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.5, 0.5]]),
            [[0.20, 0.12, 0.12, 0.06], [0.06, 0.12, 0.12, 0.20]],
            0.5,
            801,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_quadrature_truth(self, case):
        points, p_sc, scale, grid = self.CASES[case]
        p_sc = np.array(p_sc)
        truth = _laplace_mixture_truth(points, p_sc, scale, grid)
        assert truth > 0.02
        clean, s, noisy = _finite_support_draw(points, p_sc, scale, 4000, seed=0)
        assert laplace_mixture_mi(clean, s, noisy, scale) == pytest.approx(truth, abs=0.01)

    def test_equals_naive_leave_one_out_mixtures(self):
        rng = np.random.default_rng(5)
        clean = rng.uniform(-0.5, 0.5, size=(30, 2))
        s = rng.integers(0, 3, size=30)
        noisy = clean + rng.laplace(0.0, 0.3, size=clean.shape)
        terms = []
        for j in range(30):
            dens = np.exp(-np.abs(noisy[j] - clean).sum(axis=1) / 0.3) / 0.6**2
            others = np.arange(30) != j
            same = others & (s == s[j])
            terms.append(np.log(dens[same].mean()) - np.log(dens[others].mean()))
        assert laplace_mixture_mi(clean, s, noisy, 0.3) == pytest.approx(np.mean(terms), abs=1e-12)

    def test_repeatable_bit_for_bit(self):
        points, p_sc, scale, _ = self.CASES["d2"]
        clean, s, noisy = _finite_support_draw(points, np.array(p_sc), scale, 1000, seed=1)
        assert laplace_mixture_mi(clean, s, noisy, scale) == laplace_mixture_mi(clean, s, noisy, scale)

    def test_row_order_and_block_size_do_not_matter(self, monkeypatch):
        from ldpfair import info_measures as im

        points, p_sc, scale, _ = self.CASES["d2"]
        clean, s, noisy = _finite_support_draw(points, np.array(p_sc), scale, 600, seed=2)
        ref = laplace_mixture_mi(clean, s, noisy, scale)
        perm = np.random.default_rng(0).permutation(s.size)
        assert laplace_mixture_mi(clean[perm], s[perm], noisy[perm], scale) == pytest.approx(ref, abs=1e-12)
        monkeypatch.setattr(im, "_PAIR_BUDGET", 7 * s.size)
        assert laplace_mixture_mi(clean, s, noisy, scale) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize(
        "n, d, classes, scale, block_pairs",
        [
            (50, 1, 3, 1e-3, None),  # one block holds every row
            (999, 2, 2, 0.05, None),  # 65-row blocks, the last one short
            (3001, 3, 3, 0.7, None),
            (2000, 2, 2, 0.3, None),
            (2000, 1, 2, 0.3, 1999),  # one row per block, as for n > 2^16
            (1500, 3, 3, 0.1, 7 * 1500 + 3),  # 7-row blocks
        ],
    )
    def test_equals_previous_formula_bit_for_bit(self, monkeypatch, n, d, classes, scale, block_pairs):
        from ldpfair import info_measures as im

        clean, s, noisy = _mixture_draw(n, d, classes, scale, seed=n + d)
        if block_pairs is not None:
            monkeypatch.setattr(im, "_BLOCK_PAIRS", block_pairs)
        got = laplace_mixture_mi(clean, s, noisy, scale)
        assert got.hex() == _previous_laplace_mixture_mi(clean, s, noisy, scale).hex()

    @pytest.mark.parametrize("leave_one_out", [False, True])
    @pytest.mark.parametrize("block_pairs", [None, 7 * 40 + 1, 1])
    def test_class_log_sums_equal_the_explicit_kernel_matrix(self, monkeypatch, leave_one_out, block_pairs):
        from ldpfair import info_measures as im

        if block_pairs is not None:
            monkeypatch.setattr(im, "_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(11)
        centers = rng.uniform(-0.5, 0.5, size=(40, 3))
        labels = rng.choice([2, 5, 9], size=40)  # labels need not be 0..m-1
        queries = centers + rng.laplace(0.0, 0.4, size=centers.shape) if leave_one_out else rng.normal(size=(25, 3))
        kernel = np.exp(-np.abs(queries[:, None, :] - centers[None]).sum(axis=2) / 0.4)
        if leave_one_out:
            np.fill_diagonal(kernel, 0.0)
        expected = np.log(np.stack([kernel[:, labels == v].sum(axis=1) for v in (2, 5, 9)], axis=1))
        got = im._laplace_class_log_sums(queries, centers, labels, 0.4, leave_one_out)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [4000, 8000])
    def test_memory_stays_under_two_mib(self, n):
        import tracemalloc

        clean, s, noisy = _mixture_draw(n, 2, 2, 0.1, seed=n)
        tracemalloc.start()
        try:
            laplace_mixture_mi(clean, s, noisy, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # the former 2^18-pair blocks peaked at 8.1 MiB

    @pytest.mark.parametrize("which", ["clean", "noisy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, which, bad):
        clean, s, noisy = _mixture_draw(40, 2, 2, 0.3, seed=1)
        (clean if which == "clean" else noisy)[3, 1] = bad
        with pytest.raises(PreconditionError, match=which):
            laplace_mixture_mi(clean, s, noisy, 0.3)

    def test_large_noise_is_near_zero(self):
        points, p_sc, _, _ = self.CASES["d1"]
        clean, s, noisy = _finite_support_draw(points, np.array(p_sc), 50.0, 2000, seed=3)
        assert abs(laplace_mixture_mi(clean, s, noisy, 50.0)) < 0.005

    def test_constant_s_or_singleton_class_rejected(self):
        clean = np.linspace(-0.5, 0.5, 20).reshape(-1, 1)
        with pytest.raises(PreconditionError):
            laplace_mixture_mi(clean, np.zeros(20, dtype=int), clean, 0.3)
        singleton = np.zeros(20, dtype=int)
        singleton[7] = 1
        with pytest.raises(PreconditionError):
            laplace_mixture_mi(clean, singleton, clean, 0.3)

    def test_shape_and_scale_validation(self):
        clean = np.zeros((10, 2))
        s = np.arange(10) % 2
        with pytest.raises(PreconditionError):
            laplace_mixture_mi(clean, s, np.zeros((10, 3)), 0.3)
        with pytest.raises(PreconditionError):
            laplace_mixture_mi(clean, s[:9], clean, 0.3)
        with pytest.raises(PreconditionError):
            laplace_mixture_mi(clean, s, clean, 0.0)
