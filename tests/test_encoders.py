"""Encoder shape laws, zero-parameter fixed points, gradient checks, the
fused convolution bank against the composed CNN, and the fused recurrent
scans against the composed per-timestep reference."""

from typing import List

import numpy as np
import pytest

from textcaps.adversarial import SeededRng
from textcaps.encoders import (
    _GATE_NAMES,
    ENCODER_KINDS,
    EncoderConfig,
    _recurrent_forward,
    encoder_forward_batch,
    encoder_output_shape,
    encoder_parameter_shapes,
    init_parameters,
)
from textcaps.model import forward_batch, init_model
from textcaps.tensor import (
    Parameter,
    ShapeMismatchError,
    Tape,
    Tensor,
    apply_primitive,
    backward,
    grad_check,
    relu,
)


def _toy_config(kind):
    return EncoderConfig(kind=kind, kernel_sizes=(2, 3), filters_per_kernel=2, hidden_dim=3)


def _random_block(rng, b, t, e):
    return Tensor(rng.uniform(-1, 1, size=(b, t, e)))


class TestShapeLaw:
    def test_cnn_default_kernel_arithmetic(self):
        # T=300, kernels (3,4,5), 300 filters: L = 298+297+296 = 891
        cfg = EncoderConfig(kind="cnn")
        assert encoder_output_shape(cfg, t=300, e_d=300) == (891, 300)

    def test_bigru_default_width(self):
        cfg = EncoderConfig(kind="bigru")
        assert encoder_output_shape(cfg, t=180, e_d=100) == (180, 600)

    @pytest.mark.parametrize("kind", ENCODER_KINDS)
    def test_forward_matches_formula(self, kind):
        rng = np.random.default_rng(21)
        for trial in range(3):
            e_d = int(rng.integers(2, 5))
            t = int(rng.integers(4, 9))
            cfg = EncoderConfig(kind=kind, kernel_sizes=(2, int(rng.integers(3, 5))),
                                filters_per_kernel=int(rng.integers(1, 4)),
                                hidden_dim=int(rng.integers(1, 4)))
            params = init_parameters(encoder_parameter_shapes(cfg, e_d), SeededRng(trial))
            fm = encoder_forward_batch(cfg, params, _random_block(rng, 2, t, e_d))
            l, c = encoder_output_shape(cfg, t, e_d)
            assert fm.shape == (2, l, c)

    def test_kernel_larger_than_sequence_rejected(self):
        cfg = EncoderConfig(kind="cnn", kernel_sizes=(9,))
        with pytest.raises(ValueError):
            encoder_output_shape(cfg, t=4, e_d=3)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        cfg = _toy_config("cnn-bilstm")
        a = init_parameters(encoder_parameter_shapes(cfg, 4), SeededRng(99))
        b = init_parameters(encoder_parameter_shapes(cfg, 4), SeededRng(99))
        assert sorted(a) == sorted(b)
        for name in a:
            assert a[name].values.tobytes() == b[name].values.tobytes()

    def test_biases_zero(self):
        cfg = _toy_config("bigru")
        params = init_parameters(encoder_parameter_shapes(cfg, 4), SeededRng(0))
        for name, p in params.items():
            if ".b_" in name or name.endswith(".b"):
                assert np.all(p.values == 0.0)

    def test_cnn_kernel_shape(self):
        cfg = EncoderConfig(kind="cnn", kernel_sizes=(3,), filters_per_kernel=300)
        params = init_parameters(encoder_parameter_shapes(cfg, 100), SeededRng(0))
        assert params["encoder.cnn.k3.w"].shape == (300, 300)
        cfg5 = EncoderConfig(kind="cnn", kernel_sizes=(5,), filters_per_kernel=7)
        params = init_parameters(encoder_parameter_shapes(cfg5, 4), SeededRng(0))
        assert params["encoder.cnn.k5.w"].shape == (20, 7)

    def test_glorot_bounds(self):
        cfg = _toy_config("gru")
        params = init_parameters(encoder_parameter_shapes(cfg, 4), SeededRng(1))
        w = params["encoder.gru.w_z"].values
        limit = np.sqrt(6.0 / (4 + 3))
        assert np.all(np.abs(w) <= limit)


class TestForwardSemantics:
    def test_gru_zero_parameters_zero_states(self):
        cfg = _toy_config("gru")
        params = init_parameters(encoder_parameter_shapes(cfg, 4), SeededRng(0))
        for p in params.values():
            p.values[:] = 0.0
        rng = np.random.default_rng(5)
        fm = encoder_forward_batch(cfg, params, _random_block(rng, 2, 6, 4))
        np.testing.assert_array_equal(fm.values, np.zeros_like(fm.values))

    def test_lstm_zero_parameters_zero_states(self):
        cfg = _toy_config("lstm")
        params = init_parameters(encoder_parameter_shapes(cfg, 4), SeededRng(0))
        for p in params.values():
            p.values[:] = 0.0
        rng = np.random.default_rng(6)
        fm = encoder_forward_batch(cfg, params, _random_block(rng, 1, 5, 4))
        np.testing.assert_array_equal(fm.values, np.zeros_like(fm.values))

    def test_bidirectional_reversal_symmetry(self):
        cfg = _toy_config("bigru")
        params = init_parameters(encoder_parameter_shapes(cfg, 4), SeededRng(3))
        # tie backward-direction parameters to the forward ones so that
        # reversing the sequence swaps the two channel halves exactly
        for gate in ("z", "r", "n"):
            for piece in ("w", "u", "b"):
                src = params[f"encoder.bigru.fw.{piece}_{gate}"].values
                params[f"encoder.bigru.bw.{piece}_{gate}"].values[:] = src
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(1, 6, 4))
        fm = encoder_forward_batch(cfg, params, Tensor(x)).values[0]
        fm_rev = encoder_forward_batch(cfg, params, Tensor(x[:, ::-1].copy())).values[0]
        h = cfg.hidden_dim
        np.testing.assert_allclose(fm[:, :h], fm_rev[::-1, h:], rtol=0, atol=1e-14)
        np.testing.assert_allclose(fm[:, h:], fm_rev[::-1, :h], rtol=0, atol=1e-14)

    def test_forward_purity(self):
        cfg = _toy_config("cnn-bigru")
        params = init_parameters(encoder_parameter_shapes(cfg, 3), SeededRng(8))
        before = {n: p.values.copy() for n, p in params.items()}
        rng = np.random.default_rng(9)
        encoder_forward_batch(cfg, params, _random_block(rng, 2, 5, 3))
        for name, p in params.items():
            assert p.values.tobytes() == before[name].tobytes()

    def test_single_document_surface(self):
        # one 2x3-token document is a batch of one; its map is its row of a batch
        cfg = _toy_config("gru")
        params = init_parameters(encoder_parameter_shapes(cfg, 3), SeededRng(2))
        rng = np.random.default_rng(2)
        block = rng.uniform(-1, 1, size=(2, 6, 3))
        fm = encoder_forward_batch(cfg, params, Tensor(block[:1]))
        assert fm.shape == (1, 6, 3)
        both = encoder_forward_batch(cfg, params, Tensor(block))
        np.testing.assert_allclose(fm.values[0], both.values[0], rtol=0, atol=1e-14)

    # the model's entry checks every parameter against the inventory
    def test_missing_parameter_named(self):
        cfg = _toy_config("gru")
        params = init_model(cfg, None, 3, 4, SeededRng(2))
        del params["encoder.gru.u_r"]
        rng = np.random.default_rng(1)
        with pytest.raises(ShapeMismatchError, match="^parameter 'encoder.gru.u_r' "):
            forward_batch(cfg, None, params, _random_block(rng, 1, 4, 3))

    def test_wrong_parameter_shape_named(self):
        cfg = _toy_config("gru")
        params = init_model(cfg, None, 3, 4, SeededRng(2))
        params["encoder.gru.w_z"] = Parameter(np.zeros((5, 5)))
        rng = np.random.default_rng(1)
        with pytest.raises(ShapeMismatchError, match="^parameter 'encoder.gru.w_z' "):
            forward_batch(cfg, None, params, _random_block(rng, 1, 4, 3))

    @pytest.mark.parametrize("kind", ["bigru", "cnn-bilstm"])
    def test_backward_direction_parameter_named(self, kind):
        # the backward direction's weights sit in the middle of the one scan's
        # operands; a bad one is named as its forward twin is
        cfg = _toy_config(kind)
        name = f"encoder.{kind.removeprefix('cnn-')}.bw.u_{'r' if 'gru' in kind else 'f'}"
        rng = np.random.default_rng(1)
        for bad in (None, np.zeros((3, 4))):
            params = init_model(cfg, None, 3, 4, SeededRng(2))
            if bad is None:
                del params[name]
            else:
                params[name] = Parameter(bad)
            with pytest.raises(ShapeMismatchError, match=f"^parameter '{name}' "):
                forward_batch(cfg, None, params, _random_block(rng, 1, 4, 3))


class TestGradientLaw:
    @pytest.mark.parametrize("kind", ENCODER_KINDS)
    def test_grad_check_toy_config(self, kind):
        cfg = _toy_config(kind)
        e_d, t = 4, 6
        params = init_parameters(encoder_parameter_shapes(cfg, e_d), SeededRng(17))
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, size=(1, t, e_d))

        def fn(ps):
            fm = encoder_forward_batch(cfg, params, Tensor(x))
            return (fm * fm).sum()

        err = grad_check(fn, list(params.values()), epsilon=1e-5, sample_count=30,
                         rng=np.random.default_rng(3))
        assert err < 1e-4, f"{kind}: relative error {err:.3e}"

    @pytest.mark.parametrize("kind", [k for k in ENCODER_KINDS if k != "cnn"])
    def test_grad_check_batch_and_biases(self, kind):
        # two documents and non-zero biases: the checks cover the scan's batch
        # and direction axes and every bias gradient, sampled per parameter
        cfg = _toy_config(kind)
        e_d, t = 4, 6
        params = init_parameters(encoder_parameter_shapes(cfg, e_d), SeededRng(18))
        rng = np.random.default_rng(18)
        for name, p in params.items():
            if name.rpartition(".")[2].startswith("b"):
                p.values[:] = rng.uniform(-0.5, 0.5, size=p.shape)
        x = rng.uniform(-1, 1, size=(2, t, e_d))
        weights = Tensor(rng.uniform(-1, 1, size=(2,) + encoder_output_shape(cfg, t, e_d)))

        def fn(ps):
            return (encoder_forward_batch(cfg, params, Tensor(x)) * weights).sum()

        for name, p in params.items():
            err = grad_check(fn, [p], epsilon=1e-5, sample_count=6,
                             rng=np.random.default_rng(4))
            assert err < 1e-5, f"{kind} {name}: relative error {err:.3e}"


# The composed CNN that the fused conv1d primitive replaced, kept as the
# reference: per kernel, k slices and a concat build the windows, then a
# matmul, a bias add and a relu; a concat joins the kernels' maps.

def _cnn_forward_reference(config, params, x):
    t = x.shape[1]
    maps: List[Tensor] = []
    for k in config.kernel_sizes:
        l_k = t - k + 1
        w, bias = params[f"encoder.cnn.k{k}.w"], params[f"encoder.cnn.k{k}.b"]
        # valid 1-d convolution as concatenated shifted slices + one matmul;
        # the slices and windows of a constant block are not recorded
        windows = apply_primitive(
            "concat", [apply_primitive("slice", [x], axis=1, start=i, stop=l_k + i)
                       for i in range(k)], axis=2)
        maps.append(relu(windows @ w + bias.reshape((1, 1, config.filters_per_kernel))))
    return apply_primitive("concat", maps, axis=1) if len(maps) > 1 else maps[0]


def _composed_cnn_encoder(config, params, x):
    """The encoder with its CNN composed, its recurrence (if any) the fused scan."""
    x = _cnn_forward_reference(config, params, x)
    return x if config.kind == "cnn" else _recurrent_forward(config, params, x)


def _run_encoder(forward, cfg, params, x, weights):
    """Feature map, the gradients of sum(forward(x) * weights) by parameter
    name and, under "x", by the input (wrapped in a Parameter), and the
    tape's node count."""
    xt = Parameter(x)
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        fm = forward(cfg, params, xt)
        loss = (fm * Tensor(weights)).sum()
    backward(loss, tape)
    grads = {name: p.grad.copy() for name, p in params.items()}
    grads["x"] = xt.grad.copy()
    return fm.values, grads, len(tape.nodes)


CNN_KINDS = [kind for kind in ENCODER_KINDS if kind.startswith("cnn")]


class TestFusedConvReference:
    """The fused conv1d gives the composed CNN's feature map and parameter
    gradients to the byte; the input gradient, whose shifted slices it sums in
    another order, within INPUT_TOL of its largest entry."""

    INPUT_TOL = 1e-13

    # (B, T, E, kernel_sizes, F, zero-padded tail): the train-cnn-caps and
    # score-adv encoders, k = 1, k = T (one position), one kernel, unsorted
    # kernels, a padded tail, and one filter, where a product of the
    # overlapping window view instead of its copy would give other bytes
    CASES = {
        "train-cnn-caps": (32, 60, 16, (3, 4, 5), 64, 0),
        "score-adv": (32, 60, 16, (3, 4, 5), 16, 0),
        "k1": (3, 5, 2, (1, 2), 3, 0),
        "k-equals-T": (2, 4, 3, (4, 2), 3, 0),
        "one-kernel": (2, 6, 3, (3,), 4, 0),
        "unsorted": (2, 9, 3, (5, 3), 2, 0),
        "padded": (3, 8, 2, (2, 3), 3, 4),
        "one-filter": (3, 7, 2, (3, 1, 5), 1, 2),
    }

    @pytest.mark.parametrize("kind", CNN_KINDS)
    @pytest.mark.parametrize("case", CASES)
    def test_fused_matches_composed(self, kind, case):
        b, t, e_d, kernels, filters, pad = self.CASES[case]
        cfg = EncoderConfig(kind=kind, kernel_sizes=kernels, filters_per_kernel=filters,
                            hidden_dim=4)
        params = init_parameters(encoder_parameter_shapes(cfg, e_d), SeededRng(t + filters))
        rng = np.random.default_rng(t + filters)
        for name, p in params.items():  # non-zero biases exercise their gradients
            if name.rpartition(".")[2].startswith("b"):
                p.values[:] = rng.uniform(-0.3, 0.3, size=p.shape)
        x = rng.uniform(-1, 1, size=(b, t, e_d))
        if pad:
            x[:, t - pad:] = 0.0  # a zero-padded tail, as short documents give
        weights = rng.uniform(-1, 1, size=(b,) + encoder_output_shape(cfg, t, e_d))
        fused, fused_grads, fused_nodes = _run_encoder(encoder_forward_batch, cfg, params, x,
                                                       weights)
        ref, ref_grads, ref_nodes = _run_encoder(_composed_cnn_encoder, cfg, params, x, weights)
        fused_dx, ref_dx = fused_grads.pop("x"), ref_grads.pop("x")
        assert fused.tobytes() == ref.tobytes()
        cnn_map = _cnn_forward_reference(cfg, params, Tensor(x)).values
        assert np.any(cnn_map > 0) and np.any(cnn_map == 0)  # the ReLU cuts both ways
        assert sorted(fused_grads) == sorted(ref_grads)
        for name, grad in ref_grads.items():
            assert fused_grads[name].tobytes() == grad.tobytes(), name
        np.testing.assert_allclose(fused_dx, ref_dx, rtol=0,
                                   atol=self.INPUT_TOL * np.abs(ref_dx).max())
        # per kernel k slices, the windows' concat, matmul, bias reshape, add
        # and relu, then the maps' concat, become one node
        convolutions = sum(k + 5 for k in kernels) + (len(kernels) > 1)
        assert ref_nodes - fused_nodes == convolutions - 1


# The composed per-timestep recurrence that the fused gru_scan/lstm_scan
# primitives replaced, kept as the reference: about 21 engine primitives per
# step and direction, each gate with its own input and recurrent product.

def _reference_direction(config, params, x, prefix, reverse):
    kind = config.recurrent_kind
    hidden = config.hidden_dim
    b, t, e = x.shape
    gates = _GATE_NAMES[kind]
    flat = x.reshape((b * t, e))
    xproj = {g: apply_primitive(
                 "transpose", [(flat @ params[f"{prefix}.w_{g}"]
                                + params[f"{prefix}.b_{g}"]).reshape((b, t, hidden))],
                 perm=(1, 0, 2)) for g in gates}
    u = {g: params[f"{prefix}.u_{g}"] for g in gates}

    def step_in(gate, step):
        return apply_primitive("slice", [xproj[gate]], axis=0, start=step,
                               stop=step + 1).reshape((b, hidden))

    h = Tensor(np.zeros((b, hidden)))
    one = Tensor(np.ones((1, 1)))
    cell = Tensor(np.zeros((b, hidden)))  # lstm only
    outputs = [None] * t
    for step in (range(t - 1, -1, -1) if reverse else range(t)):
        if kind == "gru":
            z = apply_primitive("sigmoid", [step_in("z", step) + h @ u["z"]])
            r = apply_primitive("sigmoid", [step_in("r", step) + h @ u["r"]])
            n = apply_primitive("tanh", [step_in("n", step) + (r * h) @ u["n"]])
            h = z * h + (one - z) * n
        else:
            i = apply_primitive("sigmoid", [step_in("i", step) + h @ u["i"]])
            f = apply_primitive("sigmoid", [step_in("f", step) + h @ u["f"]])
            o = apply_primitive("sigmoid", [step_in("o", step) + h @ u["o"]])
            g = apply_primitive("tanh", [step_in("g", step) + h @ u["g"]])
            cell = f * cell + i * g
            h = o * apply_primitive("tanh", [cell])
        outputs[step] = h.reshape((b, 1, hidden))
    return outputs


def encoder_forward_reference(config, params, x):
    if config.uses_cnn:
        x = _cnn_forward_reference(config, params, x)
        if config.kind == "cnn":
            return x
    base = f"encoder.{'bi' if config.bidirectional else ''}{config.recurrent_kind}"
    if config.bidirectional:
        fw = _reference_direction(config, params, x, f"{base}.fw", reverse=False)
        bw = _reference_direction(config, params, x, f"{base}.bw", reverse=True)
        per_pos = [apply_primitive("concat", [f, r], axis=2) for f, r in zip(fw, bw)]
    else:
        per_pos = _reference_direction(config, params, x, base, reverse=False)
    return apply_primitive("concat", per_pos, axis=1) if len(per_pos) > 1 else per_pos[0]


RECURRENT_KINDS = [kind for kind in ENCODER_KINDS if kind != "cnn"]


class TestFusedScanReference:
    """gru_scan/lstm_scan agree with the composed graph to 1e-10, forward and
    gradients (every parameter and the input block), in both directions."""

    TOL = 1e-10

    def _case(self, kind, t, pad, seed):
        kernels = (1,) if t == 1 else (2, 3)
        cfg = EncoderConfig(kind=kind, kernel_sizes=kernels, filters_per_kernel=3, hidden_dim=4)
        e_d = 3
        params = init_parameters(encoder_parameter_shapes(cfg, e_d), SeededRng(seed))
        rng = np.random.default_rng(seed)
        for p in params.values():  # non-zero biases exercise every gradient
            p.values[:] = rng.uniform(-0.8, 0.8, size=p.shape)
        x = rng.uniform(-1, 1, size=(2, t, e_d))
        if pad:
            x[:, t - pad:] = 0.0  # a zero-padded tail, as short documents give
        return cfg, params, x, rng

    @pytest.mark.parametrize("kind", RECURRENT_KINDS)
    @pytest.mark.parametrize("t, pad", [(1, 0), (7, 0), (7, 3)], ids=["T1", "T7", "T7-padded"])
    def test_fused_matches_reference(self, kind, t, pad):
        cfg, params, x, rng = self._case(kind, t, pad, seed=31 + t + pad)
        l, c = encoder_output_shape(cfg, t, x.shape[2])
        weights = rng.uniform(-1, 1, size=(2, l, c))
        fused, fused_grads, fused_nodes = _run_encoder(encoder_forward_batch, cfg, params, x,
                                                       weights)
        ref, ref_grads, ref_nodes = _run_encoder(encoder_forward_reference, cfg, params, x,
                                                 weights)
        np.testing.assert_allclose(fused, ref, rtol=0, atol=self.TOL)
        assert sorted(fused_grads) == sorted(ref_grads)
        for name, grad in ref_grads.items():
            scale = max(1.0, float(np.abs(grad).max()))
            np.testing.assert_allclose(fused_grads[name], grad, rtol=0, atol=self.TOL * scale,
                                       err_msg=name)
        assert fused_nodes < ref_nodes

    @pytest.mark.parametrize("kind, directions", [("gru", 1), ("bigru", 2), ("lstm", 1),
                                                  ("bilstm", 2), ("cnn-bigru", 2),
                                                  ("cnn-bilstm", 2)])
    def test_one_scan_node_per_encoder(self, kind, directions):
        # every direction runs in the one scan node, which writes the whole
        # map: no concat joins directions (nor a hybrid's convolution banks,
        # which its one conv1d node writes)
        cfg, params, x, _ = self._case(kind, 6, 0, seed=5)
        with Tape() as tape:
            encoder_forward_batch(cfg, params, Tensor(x))
        kinds = [node.kind for node in tape.nodes]
        scan = f"{cfg.recurrent_kind}_scan"
        assert kinds.count(scan) == 1
        node = tape.nodes[kinds.index(scan)]
        assert len(node.inputs) == 1 + 3 * len(_GATE_NAMES[cfg.recurrent_kind]) * directions
        assert node.out.shape == (2,) + encoder_output_shape(cfg, 6, x.shape[2])
        assert node.out.shape[2] == cfg.hidden_dim * directions
        assert kinds.count("conv1d") == (1 if cfg.uses_cnn else 0)
        assert "concat" not in kinds
        assert "sigmoid" not in kinds and "tanh" not in kinds
