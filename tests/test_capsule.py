"""Capsule head tests against hand-rolled numpy oracles.

The routing oracle below is an independent loop-based implementation of
the routing algorithm (plain numpy, no tensor engine); the production
path must agree with it to 1e-9.
"""

import math

import numpy as np
import pytest

from textcaps.adversarial import SeededRng
from textcaps.capsule import (
    CapsuleHeadConfig,
    baseline_head_batch,
    class_probabilities_batch,
    compress_batch,
    dynamic_routing_batch,
    init_capsule_head,
    predict,
    primary_capsules_batch,
    squash,
)
from textcaps.encoders import EncoderConfig, encoder_forward_batch, init_encoder
from textcaps.tensor import ShapeMismatchError, Tensor, grad_check


def squash_oracle(x: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return np.zeros_like(x)
    return (norm ** 2 / (1.0 + norm ** 2)) * (x / norm)


def routing_oracle(u: np.ndarray, w: np.ndarray, iterations: int):
    """Literal per-capsule dynamic routing: the independent reference."""
    n_cc, d = u.shape
    n_cls = w.shape[1]
    u_hat = np.zeros((n_cc, n_cls, d))
    for j in range(n_cc):
        for k in range(n_cls):
            u_hat[j, k] = w[j, k] @ u[j]
    logits = np.zeros((n_cc, n_cls))
    couplings = None
    v = np.zeros((n_cls, d))
    for iteration in range(iterations):
        couplings = np.exp(logits - logits.max(axis=1, keepdims=True))
        couplings /= couplings.sum(axis=1, keepdims=True)
        for k in range(n_cls):
            s_k = np.zeros(d)
            for j in range(n_cc):
                s_k += couplings[j, k] * u_hat[j, k]
            v[k] = squash_oracle(s_k)
        if iteration < iterations - 1:
            for j in range(n_cc):
                for k in range(n_cls):
                    logits[j, k] += u_hat[j, k] @ v[k]
    return v, logits, couplings


class TestSquash:
    def test_zero_maps_to_zero_exactly(self):
        out = squash(np.zeros(5))
        assert out.values.tobytes() == np.zeros(5).tobytes()

    def test_unit_vector_halves(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        out = squash(e1).values
        np.testing.assert_allclose(out, 0.5 * e1, rtol=0, atol=1e-15)

    def test_large_norm_saturates_below_one(self):
        e1 = np.zeros(3)
        e1[0] = 1000.0
        out = squash(e1).values
        norm = np.linalg.norm(out)
        assert norm < 1.0
        np.testing.assert_allclose(norm, 1e6 / (1.0 + 1e6), rtol=0, atol=1e-12)

    def test_property_suite(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            dim = int(rng.integers(1, 65))
            x = rng.uniform(-10, 10, size=dim)
            out = squash(x).values
            nx = np.linalg.norm(x)
            ns = np.linalg.norm(out)
            np.testing.assert_allclose(ns, nx ** 2 / (1.0 + nx ** 2), rtol=0, atol=1e-12)
            assert ns < 1.0
            if nx > 1e-6:
                cosine = float(np.dot(out, x) / (ns * nx))
                assert abs(cosine - 1.0) <= 1e-9

    def test_norm_strictly_increasing(self):
        direction = np.array([1.0, 2.0, -0.5])
        direction /= np.linalg.norm(direction)
        norms = [np.linalg.norm(squash(r * direction).values)
                 for r in np.linspace(0.1, 20, 40)]
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_matches_oracle_batched(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, size=(2, 7, 4))
        out = squash(Tensor(x)).values
        for b in range(2):
            for i in range(7):
                np.testing.assert_allclose(out[b, i], squash_oracle(x[b, i]),
                                           rtol=0, atol=1e-13)


def _head_config(**kw):
    defaults = dict(n_pc=2, n_cc=4, d=3, n_cls=2, routing_iterations=3)
    defaults.update(kw)
    return CapsuleHeadConfig(**defaults)


class TestPrimaryCapsules:
    def test_count_law_default_extents(self):
        # L=891 positions with 8 capsules each: 7128 primaries
        cfg = CapsuleHeadConfig(n_pc=8, n_cc=128, d=16)
        rng = np.random.default_rng(0)
        fm = Tensor(rng.normal(size=(1, 891, 12)))
        proj = Tensor(rng.normal(size=(12, 8 * 16)) * 0.05)
        assert primary_capsules_batch(fm, proj, cfg).shape == (1, 7128, 16)

    def test_zero_projection_gives_zero_capsules(self):
        cfg = _head_config()
        fm = Tensor(np.ones((1, 5, 4)))
        proj = Tensor(np.zeros((4, cfg.n_pc * cfg.d)))
        out = primary_capsules_batch(fm, proj, cfg)
        np.testing.assert_array_equal(out.values, np.zeros((1, 10, 3)))

    def test_norms_below_one(self):
        cfg = _head_config()
        rng = np.random.default_rng(1)
        fm = Tensor(rng.uniform(-2, 2, size=(3, 5, 4)))
        proj = Tensor(rng.uniform(-2, 2, size=(4, cfg.n_pc * cfg.d)))
        out = primary_capsules_batch(fm, proj, cfg)
        norms = np.linalg.norm(out.values, axis=-1)
        assert np.all(norms < 1.0)

    def test_grouping_is_contiguous_position_major(self):
        cfg = _head_config(n_pc=2, d=3)
        fm = Tensor(np.ones((1, 2, 1)))
        proj = Tensor(np.arange(6, dtype=float).reshape(1, 6))
        out = primary_capsules_batch(fm, proj, cfg).values[0]
        np.testing.assert_allclose(out[0], squash_oracle(np.array([0.0, 1.0, 2.0])),
                                   atol=1e-14)
        np.testing.assert_allclose(out[1], squash_oracle(np.array([3.0, 4.0, 5.0])),
                                   atol=1e-14)

    def test_shape_mismatch(self):
        cfg = _head_config()
        fm = Tensor(np.ones((1, 5, 4)))
        with pytest.raises(ShapeMismatchError):
            primary_capsules_batch(fm, Tensor(np.zeros((3, 6))), cfg)


class TestCompress:
    def test_one_hot_selects_primary(self):
        rng = np.random.default_rng(2)
        primary = rng.normal(size=(1, 5, 3))
        w = np.zeros((2, 5))
        w[0, 3] = 1.0
        w[1, 1] = 1.0
        out = compress_batch(Tensor(primary), Tensor(w)).values
        np.testing.assert_array_equal(out[0, 0], primary[0, 3])
        np.testing.assert_array_equal(out[0, 1], primary[0, 1])

    def test_zero_weights(self):
        out = compress_batch(Tensor(np.ones((1, 6, 3))), Tensor(np.zeros((4, 6))))
        np.testing.assert_array_equal(out.values, np.zeros((1, 4, 3)))

    def test_full_scale_shape(self):
        cfg = CapsuleHeadConfig(n_pc=8, n_cc=128, d=16)
        rng = np.random.default_rng(3)
        primary = Tensor(rng.normal(size=(1, 7128, 16)))
        w = Tensor(rng.normal(size=(128, 7128)) * 0.01)
        assert compress_batch(primary, w).shape == (1, 128, 16)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(3, 6)))
        p = rng.normal(size=(1, 6, 2))
        q = rng.normal(size=(1, 6, 2))
        a, b = 0.7, -1.3
        combined = compress_batch(Tensor(a * p + b * q), w).values
        separate = a * compress_batch(Tensor(p), w).values + b * compress_batch(Tensor(q), w).values
        np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-12)

    def test_no_squash_applied(self):
        # a big weighted sum keeps norm > 1, which squash would forbid
        out = compress_batch(Tensor(np.ones((1, 4, 3))), Tensor(np.full((1, 4), 2.0)))
        assert np.linalg.norm(out.values[0, 0]) > 1.0


class TestDynamicRouting:
    def test_zero_logits_give_half_couplings(self):
        cfg = _head_config(routing_iterations=1)
        rng = np.random.default_rng(6)
        u = Tensor(rng.normal(size=(1, cfg.n_cc, cfg.d)))
        w = Tensor(rng.normal(size=(cfg.n_cc, cfg.n_cls, cfg.d, cfg.d)))
        _, state = dynamic_routing_batch(u, w, cfg)
        np.testing.assert_allclose(state.couplings.values, 0.5, rtol=0, atol=1e-15)

    def test_coupling_rows_sum_to_one_each_iteration(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            cfg = _head_config(n_cc=int(rng.integers(1, 6)),
                               d=int(rng.integers(1, 5)),
                               routing_iterations=3)
            u = Tensor(rng.normal(size=(2, cfg.n_cc, cfg.d)))
            w = Tensor(rng.normal(size=(cfg.n_cc, cfg.n_cls, cfg.d, cfg.d)))
            _, state = dynamic_routing_batch(u, w, cfg)
            assert len(state.coupling_history) == 3
            for c in state.coupling_history:
                sums = c.values.sum(axis=-1)
                np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-9)
                assert np.all(c.values > 0.0) and np.all(c.values < 1.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(8):
            cfg = _head_config(n_cc=int(rng.integers(1, 5)),
                               d=int(rng.integers(1, 4)),
                               routing_iterations=int(rng.integers(1, 4)))
            u = rng.normal(size=(cfg.n_cc, cfg.d))
            w = rng.normal(size=(cfg.n_cc, cfg.n_cls, cfg.d, cfg.d))
            v_ref, logits_ref, c_ref = routing_oracle(u, w, cfg.routing_iterations)
            caps, state = dynamic_routing_batch(Tensor(u[None]), Tensor(w), cfg)
            np.testing.assert_allclose(caps.values[0], v_ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(state.logits.values[0], logits_ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(state.couplings.values[0], c_ref, rtol=0, atol=1e-9)

    def test_single_condensed_capsule_closed_form(self):
        # One input capsule: couplings stay uniform (softmax of a zero row at
        # iteration 1), so v_k = squash(0.5 * u_hat_k) for two classes.
        cfg = _head_config(n_cc=1, routing_iterations=1)
        rng = np.random.default_rng(9)
        u = rng.normal(size=(1, cfg.d))
        w = rng.normal(size=(1, 2, cfg.d, cfg.d))
        caps, _ = dynamic_routing_batch(Tensor(u[None]), Tensor(w), cfg)
        for k in range(2):
            expected = squash_oracle(0.5 * (w[0, k] @ u[0]))
            np.testing.assert_allclose(caps.values[0, k], expected, rtol=0, atol=1e-9)

    def test_uniform_coupling_closed_form_2x2(self):
        # 1 iteration on a 2-capsule / 2-class instance: couplings stay 1/2,
        # so v_k = squash(sum_j u_hat[j,k] / 2), checked by direct evaluation.
        cfg = _head_config(n_cc=2, d=2, routing_iterations=1)
        rng = np.random.default_rng(10)
        u = rng.normal(size=(2, 2))
        w = rng.normal(size=(2, 2, 2, 2))
        caps, _ = dynamic_routing_batch(Tensor(u[None]), Tensor(w), cfg)
        for k in range(2):
            s_k = 0.5 * (w[0, k] @ u[0]) + 0.5 * (w[1, k] @ u[1])
            np.testing.assert_allclose(caps.values[0, k], squash_oracle(s_k),
                                       rtol=0, atol=1e-12)

    def test_class_capsule_norms_in_unit_interval(self):
        cfg = _head_config()
        rng = np.random.default_rng(11)
        u = Tensor(rng.normal(size=(3, cfg.n_cc, cfg.d)) * 2)
        w = Tensor(rng.normal(size=(cfg.n_cc, cfg.n_cls, cfg.d, cfg.d)))
        v, _ = dynamic_routing_batch(u, w, cfg)
        norms = np.linalg.norm(v.values, axis=-1)
        assert np.all(norms >= 0.0) and np.all(norms < 1.0)


class TestClassProbabilities:
    def test_equal_norms_uniform(self):
        caps = Tensor(np.array([[[0.3, 0.0, 0.0], [0.0, 0.3, 0.0]]]))
        p = class_probabilities_batch(caps).values
        np.testing.assert_allclose(p, [[0.5, 0.5]], rtol=0, atol=1e-15)

    def test_hand_softmax_evaluation(self):
        data = np.zeros((2, 4))
        data[0, 0] = 0.9
        data[1, 1] = 0.1
        p = class_probabilities_batch(Tensor(data[None])).values[0]
        expected0 = math.exp(0.9) / (math.exp(0.9) + math.exp(0.1))
        np.testing.assert_allclose(p, [expected0, 1.0 - expected0], rtol=0, atol=1e-12)
        assert round(p[0], 3) == 0.690 and round(p[1], 3) == 0.310

    def test_argmax_agrees_with_norm_argmax(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            data = rng.normal(size=(2, 5)) * 0.4
            p = class_probabilities_batch(Tensor(data[None])).values[0]
            assert int(np.argmax(p)) == int(np.argmax(np.linalg.norm(data, axis=1)))


class TestPredict:
    @pytest.mark.parametrize("probs,expected", [
        ((0.7, 0.3), 0), ((0.5, 0.5), 0), ((0.1, 0.9), 1),
    ])
    def test_argmax_and_ties(self, probs, expected):
        assert predict(np.array(probs)) == expected


class TestBaselineHead:
    def test_zero_weights_uniform(self):
        fm = Tensor(np.random.default_rng(0).normal(size=(2, 5, 4)))
        p = baseline_head_batch(fm, Tensor(np.zeros((4, 2)))).values
        np.testing.assert_allclose(p, 0.5, rtol=0, atol=1e-15)

    def test_constant_feature_map_pooling_identity(self):
        row = np.array([1.0, -2.0, 0.5])
        fm = Tensor(np.tile(row, (1, 6, 1)))
        rng = np.random.default_rng(1)
        dense = rng.normal(size=(3, 2))
        p = baseline_head_batch(fm, Tensor(dense)).values[0]
        logits = row @ dense
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        np.testing.assert_allclose(p, expected, rtol=0, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        fm = Tensor(rng.normal(size=(4, 7, 3)))
        p = baseline_head_batch(fm, Tensor(rng.normal(size=(3, 2)))).values
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


class TestFullPipelineGradient:
    def test_encoder_capsule_chain_grad_check(self):
        enc_cfg = EncoderConfig(kind="bigru", kernel_sizes=(2,),
                                filters_per_kernel=2, hidden_dim=3)
        head_cfg = _head_config(n_pc=2, n_cc=4, d=3)
        e_d, t = 4, 6
        rng = SeededRng(33)
        params = init_encoder(enc_cfg, e_d, rng)
        channels = 2 * enc_cfg.hidden_dim
        params.update(init_capsule_head(head_cfg, t, channels, rng))
        data_rng = np.random.default_rng(33)
        x = data_rng.uniform(-1, 1, size=(1, t, e_d))

        def fn(ps):
            fm = encoder_forward_batch(enc_cfg, params, Tensor(x))
            prim = primary_capsules_batch(fm, params["head.primary.w"].tensor, head_cfg)
            cond = compress_batch(prim, params["head.compress.w"].tensor)
            v, _ = dynamic_routing_batch(cond, params["head.routing.w"].tensor, head_cfg)
            probs = class_probabilities_batch(v)
            target = probs.slice(axis=1, start=0, stop=1)
            from textcaps.tensor import log
            return log(target).sum().scale(-1.0)

        err = grad_check(fn, list(params.values()), epsilon=1e-5, sample_count=40,
                         rng=np.random.default_rng(12))
        assert err < 1e-4, f"relative error {err:.3e}"
