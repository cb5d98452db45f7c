import warnings

import numpy as np
import pytest

from molrationale import numsub as ns


def finite_difference(loss_fn, params: dict[str, ns.Tensor], eps: float = 1e-5):
    """Central-difference gradient of a scalar loss over every parameter."""
    grads = {}
    for name, t in params.items():
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = float(loss_fn().data)
            flat[i] = saved - eps
            lo = float(loss_fn().data)
            flat[i] = saved
            gflat[i] = (hi - lo) / (2 * eps)
        grads[name] = g
    return grads


def max_rel_error(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def check_gradients(loss_fn, params, tol=1e-4):
    ns.zero_grads(params)
    loss = loss_fn()
    ns.backward(loss)
    analytic = {k: (t.grad if t.grad is not None else np.zeros_like(t.data)) for k, t in params.items()}
    numeric = finite_difference(loss_fn, params)
    err = max_rel_error(analytic, numeric)
    assert err < tol, f"gradient mismatch: {err}"


class TestForwardOps:
    def test_sigmoid_zero(self):
        assert ns.sigmoid(ns.const(0.0)).data == pytest.approx(0.5)

    def test_softmax_symmetry(self):
        out = ns.softmax(ns.const([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])
        assert out.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_kl_standard_normal_is_zero(self):
        mu = ns.const(np.zeros(4))
        log_sigma = ns.const(np.zeros(4))
        assert ns.gaussian_kl(mu, log_sigma).data == pytest.approx(0.0)

    def test_gaussian_kl_formula(self):
        mu = ns.const([0.5, -1.0])
        ls = ns.const([0.2, -0.3])
        expected = 0.5 * np.sum(
            np.array([0.5, -1.0]) ** 2
            + np.exp(2 * np.array([0.2, -0.3]))
            - 2 * np.array([0.2, -0.3])
            - 1.0
        )
        assert ns.gaussian_kl(mu, ls).data == pytest.approx(expected)

    def test_matmul_shapes(self):
        a = ns.const(np.ones((2, 3)))
        b = ns.const(np.ones((3, 4)))
        assert ns.matmul(a, b).shape == (2, 4)
        v = ns.const(np.ones(3))
        assert ns.matmul(v, b).shape == (4,)
        with pytest.raises(ns.ShapeError):
            ns.matmul(a, ns.const(np.ones((2, 2))))

    def test_add_requires_same_shape(self):
        with pytest.raises(ns.ShapeError):
            ns.add(ns.const(np.ones(2)), ns.const(np.ones(3)))

    def test_concat_and_row(self):
        out = ns.concat([ns.const([1.0, 2.0]), ns.const([3.0])])
        assert np.allclose(out.data, [1, 2, 3])
        m = ns.const([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(ns.row(m, 1).data, [3, 4])
        assert np.allclose(ns.row_sum(m).data, [4, 6])

    def test_cross_entropy_translation_invariance(self):
        logits = np.array([0.3, -1.2, 2.0, 0.0])
        a = ns.cross_entropy(ns.const(logits), 2).data
        b = ns.cross_entropy(ns.const(logits + 100.0), 2).data
        assert abs(a - b) < 1e-9

    def test_softmax_translation_invariance(self):
        x = np.array([0.1, 1.5, -2.0])
        a = ns.softmax(ns.const(x)).data
        b = ns.softmax(ns.const(x + 500.0)).data
        assert np.max(np.abs(a - b)) < 1e-9

    def test_rank3_rejected(self):
        with pytest.raises(ns.ShapeError):
            ns.Tensor(np.zeros((2, 2, 2)))

    def test_no_input_mutation(self):
        x = ns.param([1.0, -2.0, 3.0])
        snapshot = x.data.copy()
        ns.relu(x)
        ns.sigmoid(x)
        ns.softmax(x)
        assert np.array_equal(x.data, snapshot)


class TestBackward:
    def test_sigmoid_saturates_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = ns.param([1000.0, -1000.0])
            ns.backward(ns.sum_all(ns.add(ns.sigmoid(x), ns.logsigmoid(x))))
            assert ns.sigmoid(x).data.tolist() == [1.0, 0.0]
            assert ns.logsigmoid(x).data.tolist() == [0.0, -1000.0]
            assert x.grad.tolist() == [0.0, 1.0]

    def test_sigmoid_grad_at_zero(self):
        x = ns.param(0.0)
        ns.backward(ns.sigmoid(x))
        assert x.grad == pytest.approx(0.25)

    def test_square_grad(self):
        x = ns.param(3.0)
        ns.backward(ns.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        x = ns.param([1.0, 2.0])
        with pytest.raises(ns.ShapeError):
            ns.backward(ns.relu(x))

    def test_grad_accumulates_across_calls(self):
        x = ns.param(2.0)
        ns.backward(ns.mul(x, x))
        first = float(x.grad)
        ns.backward(ns.mul(x, x))
        assert x.grad == pytest.approx(2 * first)

    def test_two_layer_relu_network_gradcheck(self):
        rng = np.random.default_rng(12)
        params = {
            "w1": ns.param(rng.normal(size=(5, 7)) * 0.7),
            "b1": ns.param(rng.normal(size=7) * 0.3),
            "w2": ns.param(rng.normal(size=(7, 3)) * 0.7),
            "b2": ns.param(rng.normal(size=3) * 0.3),
        }
        x = ns.const(rng.normal(size=5))

        def loss_fn():
            h = ns.relu(ns.add(ns.matmul(x, params["w1"]), params["b1"]))
            out = ns.add(ns.matmul(h, params["w2"]), params["b2"])
            return ns.cross_entropy(out, 1)

        check_gradients(loss_fn, params)

    def test_gradcheck_matmul_gather_rowsum(self):
        rng = np.random.default_rng(4)
        params = {
            "emb": ns.param(rng.normal(size=(4, 6))),
            "w": ns.param(rng.normal(size=(6, 6))),
        }

        def loss_fn():
            rows = ns.gather_rows(params["emb"], [0, 2, 2, 3])
            h = ns.relu(ns.matmul(rows, params["w"]))
            return ns.sum_all(ns.mul(ns.row_sum(h), ns.row_sum(h)))

        check_gradients(loss_fn, params)

    def test_gradcheck_kl_exp_logsigmoid(self):
        rng = np.random.default_rng(42)
        params = {
            "mu": ns.param(rng.normal(size=5) * 0.5),
            "ls": ns.param(rng.normal(size=5) * 0.2),
            "s": ns.param(0.37),
        }

        def loss_fn():
            kl = ns.gaussian_kl(params["mu"], params["ls"])
            z = ns.add(params["mu"], ns.mul(ns.exp(params["ls"]), ns.const(np.ones(5))))
            reg = ns.sum_all(ns.mul(z, z))
            return ns.add(ns.add(kl, ns.scale(reg, 0.1)), ns.logsigmoid(params["s"]))

        check_gradients(loss_fn, params)


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = {"x": ns.param([1.0, 2.0])}
        state = {}
        ns.adam_step(p, {"x": np.zeros(2)}, state, lr=0.1)
        assert np.allclose(p["x"].data, [1.0, 2.0])

    def test_first_step_magnitude(self):
        # bias-corrected first step moves by ~lr against a unit gradient
        p = {"x": ns.param(1.0)}
        ns.adam_step(p, {"x": np.array(1.0)}, {}, lr=0.1)
        assert p["x"].data == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(3)
            p = {"a": ns.param(rng.normal(size=(3, 3)))}
            state = {}
            for i in range(20):
                g = {"a": np.full((3, 3), 0.1) * (i + 1)}
                ns.adam_step(p, g, state, lr=0.01)
            return p["a"].data.tobytes()

        assert run() == run()

    def test_nan_gradient_named(self):
        p = {"weird": ns.param(1.0)}
        with pytest.raises(ns.GradientError, match="weird"):
            ns.adam_step(p, {"weird": np.array(np.nan)}, {})


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        arrays = {
            "a": rng.normal(size=(3, 4)),
            "b": rng.normal(size=7),
            "c": np.array(2.5),
        }
        stem = str(tmp_path / "ckpt")
        ns.save_params(stem, arrays, extra={"note": 1})
        back, extra = ns.load_params(stem)
        assert extra == {"note": 1}
        for k in arrays:
            assert np.array_equal(back[k], arrays[k])

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"x": np.arange(6, dtype=np.float64).reshape(2, 3)}
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        ns.save_params(a, arrays)
        ns.save_params(b, arrays)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


class TestNoGrad:
    def test_no_tape_inside_block(self):
        x = ns.param(1.0)
        with ns.no_grad():
            y = ns.mul(x, x)
        assert y._backward is None and y._parents == ()

    def test_restored_after_block(self):
        x = ns.param(2.0)
        with ns.no_grad():
            pass
        y = ns.mul(x, x)
        ns.backward(y)
        assert x.grad == pytest.approx(4.0)
