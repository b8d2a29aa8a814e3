import gc
import weakref

import numpy as np
import pytest

from ldpfair import DatasetError, DimensionMismatchError, PreconditionError
from ldpfair import autodiff as ad


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def check_op(build, x, rtol=1e-6):
    """Compare analytic and numeric gradients of mean(build(Tensor(x)))."""
    t = ad.parameter(x)
    loss = ad.mean(build(t))
    ad.backward(loss)
    num = numeric_grad(lambda v: float(ad.mean(build(ad.Tensor(v))).data), x)
    np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=1e-8)


class TestForwardValues:
    def test_matmul_identity(self):
        v = ad.Tensor(np.array([[1.0, 2.0]]))
        out = ad.matmul(v, ad.Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, v.data)

    def test_softmax_symmetry(self):
        out = ad.softmax(ad.Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(out.data, 1.0 / 3)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            ad.log(ad.Tensor(np.array([1.0, 0.0])))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_relu6_saturates(self):
        out = ad.relu6(ad.Tensor(np.array([-1.0, 3.0, 9.0])))
        np.testing.assert_array_equal(out.data, [0.0, 3.0, 6.0])


class TestGradients:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(4, 3))

    def test_add_broadcast(self):
        b = np.array([0.3, -0.2, 0.1])
        check_op(lambda t: ad.add(t, ad.Tensor(b)), self.x)

    def test_mul(self):
        other = np.random.default_rng(1).normal(size=(4, 3))
        check_op(lambda t: ad.mul(t, ad.Tensor(other)), self.x)

    def test_matmul(self):
        w = np.random.default_rng(3).normal(size=(3, 2))
        check_op(lambda t: ad.matmul(t, ad.Tensor(w)), self.x)

    def test_exp(self):
        check_op(ad.exp, self.x)

    def test_log(self):
        check_op(ad.log, np.abs(self.x) + 0.5)

    def test_tanh(self):
        check_op(ad.tanh, self.x)

    def test_sigmoid(self):
        check_op(ad.sigmoid, self.x)

    def test_relu(self):
        check_op(ad.relu, self.x + 0.05)  # keep away from the kink

    def test_relu6(self):
        check_op(ad.relu6, 3.0 * self.x + 0.05)

    def test_softmax(self):
        w = np.random.default_rng(4).normal(size=(4, 3))
        check_op(lambda t: ad.mul(ad.softmax(t), ad.Tensor(w)), self.x)

    def test_log_softmax(self):
        w = np.random.default_rng(5).normal(size=(4, 3))
        check_op(lambda t: ad.mul(ad.log_softmax(t), ad.Tensor(w)), self.x)

    def test_tsum_axis(self):
        check_op(lambda t: ad.tsum(t, axis=1), self.x)

    def test_concat(self):
        other = np.random.default_rng(6).normal(size=(4, 2))
        check_op(lambda t: ad.concat([t, ad.Tensor(other)], axis=1), self.x)

    def test_square(self):
        check_op(ad.square, self.x)

    def test_reshape(self):
        check_op(lambda t: ad.reshape(t, (2, 6)), self.x)

    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_op(lambda t: ad.gather_rows(t, idx), self.x)

    def test_pick(self):
        idx = np.array([0, 1, 2, 0])
        check_op(lambda t: ad.pick(t, idx), self.x)

    @pytest.mark.parametrize("cols", [slice(1, 3), np.array([2, 0])], ids=["slice", "indices"])
    def test_take_cols(self, cols):
        w = np.random.default_rng(8).normal(size=(4, 2))
        check_op(lambda t: ad.mul(ad.take_cols(t, cols), ad.Tensor(w)), self.x)

    def test_mlp_end_to_end(self):
        rng = np.random.default_rng(7)
        net = ad.Mlp(ad.MlpSpec((3, 5, 2), ("tanh", "identity")), rng)
        xin = rng.normal(size=(6, 3))

        def run():
            return ad.mean(ad.square(net(ad.Tensor(xin))))

        loss = run()
        ad.zero_grad(net.parameters())
        ad.backward(loss)
        for p in net.parameters():
            analytic = p.grad.copy()
            num = np.zeros_like(p.data)
            it = np.nditer(p.data, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = p.data[i]
                p.data[i] = orig + 1e-6
                up = float(run().data)
                p.data[i] = orig - 1e-6
                down = float(run().data)
                p.data[i] = orig
                num[i] = (up - down) / 2e-6
            np.testing.assert_allclose(analytic, num, rtol=1e-4, atol=1e-8)


class TestDense:
    @pytest.mark.parametrize("act", sorted(ad.ACTIVATIONS))
    def test_equals_unfused_tape(self, act):
        # one fused node, the same float operations as matmul -> add -> act
        rng = np.random.default_rng(9)
        xv, wv, bv = rng.normal(size=(7, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        xv[0, :] *= 4.0  # some pre-activations above relu6's cap
        upstream = ad.Tensor(rng.normal(size=(7, 5)))
        unfused = {
            "relu": ad.relu, "relu6": ad.relu6, "tanh": ad.tanh, "sigmoid": ad.sigmoid,
            "softmax": ad.softmax, "identity": lambda t: t,
        }[act]
        results = []
        for fused in (True, False):
            x, w, b = ad.parameter(xv), ad.parameter(wv), ad.parameter(bv)
            out = ad.dense(x, w, b, act) if fused else unfused(ad.add(ad.matmul(x, w), b))
            ad.backward(ad.tsum(ad.mul(out, upstream)))
            results.append([out.data, w.grad, b.grad, x.grad])
        for fused, tape in zip(*results):
            assert np.array_equal(fused, tape)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ad.dense(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))), ad.Tensor(np.zeros(3)))


class TestMlpPass:
    """The buffered pass against the tape, bit for bit."""

    @staticmethod
    def taped(net, x, upstream):
        xt = ad.parameter(x)
        out = net(xt)
        ad.zero_grad(net.parameters())
        ad.backward(ad.tsum(ad.mul(out, ad.Tensor(upstream))))
        return out.data, [p.grad for p in net.parameters()], xt.grad

    @pytest.mark.parametrize("act", sorted(ad.ACTIVATIONS))
    def test_equals_tape_with_input_gradient(self, act):
        rng = np.random.default_rng(5)
        net = ad.Mlp(ad.MlpSpec((3, 6, 5, 2), (act, act, "identity")), rng)
        params = net.parameters()
        grad, views = ad.flat_grad(params)
        mlp = ad.MlpPass(net, input_grad=True)
        # alternate two batch sizes: each keeps its own buffers
        for n in (40, 17, 40, 17):
            x = 3.0 * rng.normal(size=(n, 3))
            upstream = rng.normal(size=(n, 2))
            out, grads, dx = self.taped(net, x, upstream)
            assert np.array_equal(mlp.forward(x), out)
            got_dx = mlp.backward(upstream.copy(), views)
            assert np.array_equal(got_dx, dx)
            assert all(np.array_equal(v, g) for v, g in zip(views, grads))
            assert np.array_equal(grad, np.concatenate([g.ravel() for g in grads]))

    def test_no_input_gradient_by_default(self):
        rng = np.random.default_rng(6)
        net = ad.Mlp(ad.MlpSpec((3, 4, 1), ("relu", "identity")), rng)
        mlp = ad.MlpPass(net)
        mlp.forward(rng.normal(size=(8, 3)))
        views = [np.empty(p.data.shape) for p in net.parameters()]
        assert mlp.backward(np.ones((8, 1)), views) is None

    def test_reads_rebound_weights(self):
        # after adam_step a parameter's .data is a view of the optimizer's buffer
        rng = np.random.default_rng(7)
        net = ad.Mlp(ad.MlpSpec((2, 4, 2), ("tanh", "identity")), rng)
        mlp, x = ad.MlpPass(net), rng.normal(size=(5, 2))
        first = mlp.forward(x).copy()
        ad.adam_step(net.parameters(), ad.AdamState(lr=0.1), [np.ones(p.data.shape) for p in net.parameters()])
        assert np.array_equal(mlp.forward(x), net(ad.Tensor(x)).data)
        assert not np.array_equal(first, mlp.forward(x))

    @pytest.mark.parametrize("scale", [1.0, 0.37])
    def test_nll_and_grad_equals_tape(self, scale):
        rng = np.random.default_rng(8)
        logits = 4.0 * rng.normal(size=(23, 3))
        labels = rng.integers(0, 3, 23)
        t = ad.parameter(logits)
        loss = ad.mean(ad.mul(ad.Tensor(-1.0), ad.pick(ad.log_softmax(t), labels)))
        ad.backward(ad.mul(ad.Tensor(scale), loss))
        nll, g = ad.nll_and_grad(logits, labels, scale)
        assert nll == float(loss.data)
        assert np.array_equal(g, t.grad)

    def test_flat_views_layout(self):
        params = [ad.parameter(np.zeros((2, 3))), ad.parameter(np.zeros(4))]
        flat = np.arange(10.0)
        views = ad.flat_views(params, flat)
        assert np.array_equal(views[0], [[0, 1, 2], [3, 4, 5]]) and np.array_equal(views[1], [6, 7, 8, 9])
        views[1][0] = -1.0
        assert flat[6] == -1.0
        with pytest.raises(DimensionMismatchError):
            ad.flat_views(params, np.zeros(9))


class TestStopgradient:
    def test_straight_through_identity(self):
        # x + sg(q - x) passes q forward but x's gradient through
        t = ad.parameter(np.array([0.3, 0.7]))
        q = np.array([0.0, 1.0])
        st = ad.add(t, ad.Tensor(q - t.data))
        np.testing.assert_array_equal(st.data, q)
        ad.backward(ad.mean(st))
        np.testing.assert_allclose(t.grad, [0.5, 0.5])


class TestBackward:
    def test_rejects_nonscalar(self):
        with pytest.raises(PreconditionError):
            ad.backward(ad.parameter(np.ones(3)))

    def test_diamond_graph_accumulates(self):
        t = ad.parameter(np.array(2.0))
        out = ad.add(ad.mul(t, t), t)  # t^2 + t, derivative 2t + 1
        ad.backward(out)
        np.testing.assert_allclose(t.grad, 5.0)

    @pytest.mark.parametrize("op", ["exp", "tanh", "sigmoid", "log_softmax", "dense"])
    def test_graph_freed_without_cycle_collector(self, op):
        # a graph must hold no reference cycle, so dropping its tensors frees
        # it at once instead of at the next cyclic collection
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            param = ad.parameter(np.random.default_rng(0).normal(size=(4, 3)))
            if op == "dense":
                out = ad.dense(param, ad.parameter(np.ones((3, 2))), ad.parameter(np.zeros(2)), "relu")
            else:
                out = getattr(ad, op)(param)
            loss = ad.mean(out)
            ad.backward(loss)
            ref = weakref.ref(out.data)
            del out, loss
            assert ref() is None
            assert param.grad is not None
        finally:
            if was_enabled:
                gc.enable()


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # with bias correction, |step 1| = lr regardless of gradient scale
        p = ad.parameter(np.array([1.0]))
        p.grad = np.array([123.0])
        st = ad.AdamState(lr=0.1)
        ad.adam_step([p], st)
        np.testing.assert_allclose(p.data, [1.0 - 0.1], atol=1e-7)

    def test_shape_mismatch_rejected(self):
        p = ad.parameter(np.ones(3))
        with pytest.raises(DimensionMismatchError):
            ad.adam_step([p], ad.AdamState(), grads=[np.ones(2)])

    @staticmethod
    def _reference_step(values, grads, m, v, t, lr):
        """Adam on each parameter separately, as the optimizer stood before
        its moments and parameters became one flat buffer."""
        for p, g, mi, vi in zip(values, grads, m, v):
            mi *= 0.9
            mi += (1 - 0.9) * g
            vi *= 0.999
            vi += (1 - 0.999) * g * g
            mhat = mi / (1 - 0.9**t)
            vhat = vi / (1 - 0.999**t)
            p -= lr * mhat / (np.sqrt(vhat) + 1e-8)

    @staticmethod
    def _grads(values, step):
        return [np.sin(3.0 * p + step) + 0.1 * p for p in values]

    def test_flat_buffer_equals_per_parameter_adam(self):
        rng = np.random.default_rng(11)
        shapes = [(3, 4), (4,), (2, 3, 2), (1,)]
        params = [ad.parameter(rng.normal(size=s)) for s in shapes]
        ref = [p.data.copy() for p in params]
        m, v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
        st = ad.AdamState(lr=0.05)
        for step in range(1, 51):
            if step == 30:
                # an assigned .data leaves the buffer; the next step adopts it
                params[2].data = params[2].data + 0.5
                ref[2] = ref[2] + 0.5
            for p, g in zip(params, self._grads(ref, step)):
                p.grad = g
            self._reference_step(ref, self._grads(ref, step), m, v, step, 0.05)
            ad.adam_step(params, st)
            for p, r in zip(params, ref):
                assert np.array_equal(p.data, r)
        assert all(p.data.base is st.flat for p in params)

    def test_row_drop_replaces_parameter(self):
        # the exact solver drops finished rows from its one parameter and
        # from the flat moments, then steps a new parameter
        rng = np.random.default_rng(12)
        param = ad.parameter(rng.normal(size=(5, 3, 3)))
        ref = param.data.copy()
        m, v = np.zeros_like(ref), np.zeros_like(ref)
        st = ad.AdamState(lr=0.05)
        for step in range(1, 51):
            if step in (20, 35):
                keep = np.arange(len(ref)) != 1
                ref, m, v = ref[keep], m[keep], v[keep]
                st.m, st.v = (a.reshape(param.data.shape)[keep].ravel() for a in (st.m, st.v))
                old, old_values = param, param.data.copy()
                param = ad.parameter(param.data[keep])
            (g,) = self._grads([ref], step)
            self._reference_step([ref], [g], [m], [v], step, 0.05)
            ad.adam_step([param], st, grads=[g])
            assert np.array_equal(param.data, ref)
            if step >= 20:
                assert np.array_equal(old.data, old_values)  # the replaced one stays put

    def test_flat_gradient_equals_per_parameter_list(self):
        rng = np.random.default_rng(3)
        shapes = [(3, 2), (2,), (4,)]
        start = [rng.normal(size=sh) for sh in shapes]
        runs = []
        for flat in (False, True):
            params = [ad.parameter(v) for v in start]
            st = ad.AdamState(lr=0.05)
            grng = np.random.default_rng(4)
            for _ in range(20):
                grads = [grng.normal(size=sh) for sh in shapes]
                ad.adam_step(params, st, np.concatenate([g.ravel() for g in grads]) if flat else grads)
            runs.append([p.data.copy() for p in params])
        assert all(np.array_equal(a, b) for a, b in zip(*runs))
        with pytest.raises(DimensionMismatchError):
            ad.adam_step(params, st, np.zeros(8))

    def test_moments_must_match_parameters(self):
        p = ad.parameter(np.ones(3))
        st = ad.AdamState()
        ad.adam_step([p], st, grads=[np.ones(3)])
        with pytest.raises(DimensionMismatchError):
            ad.adam_step([ad.parameter(np.ones(2))], st, grads=[np.ones(2)])

    def test_converges_on_quadratic(self):
        p = ad.parameter(np.array([5.0, -3.0]))
        st = ad.AdamState(lr=0.1)
        for _ in range(500):
            ad.adam_step([p], st, grads=[2.0 * p.data])
        np.testing.assert_allclose(p.data, 0.0, atol=1e-4)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        arrays = {"w": np.random.default_rng(0).normal(size=(3, 2)), "b": np.zeros(2)}
        path = tmp_path / "ck.npz"
        ad.save_checkpoint(path, {"note": "x"}, arrays)
        meta, loaded = ad.load_checkpoint(path)
        assert meta["note"] == "x"
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_version_checked(self, tmp_path):
        path = tmp_path / "ck.npz"
        ad.save_checkpoint(path, {}, {"w": np.zeros(2)})
        import json

        meta = {"checkpoint_version": 999}
        np.savez(
            path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), w=np.zeros(2)
        )
        with pytest.raises(DatasetError, match="version 999"):
            ad.load_checkpoint(path)
