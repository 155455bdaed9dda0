"""Tensor engine tests: primitive semantics, backward rules, gradient checks.

Expected values for the non-trivial cases were derived by hand chain rule
and are frozen here; the randomized checks compare tape gradients against
central finite differences, which act as the independent oracle.
"""

import tracemalloc

import numpy as np
import pytest

import textcaps.capsule
import textcaps.tensor
from textcaps.tensor import (
    _PRIMITIVES,
    FOLD_MIN_ROWS,
    EmptyTapeError,
    NonScalarLossError,
    Parameter,
    ShapeMismatchError,
    Tape,
    Tensor,
    UnknownPrimitiveError,
    apply_primitive,
    backward,
    clear_grads,
    conv1d,
    grad_check,
    gru_scan,
    l2_norm,
    log,
    lstm_scan,
    relu,
    routing,
    softmax,
    squash,
)


def _scan_arrays(rng, gates, b=2, t=5, e=3, h=4, directions=1):
    """A (B, T, E) input, then per direction w_*, u_*, b_* per gate, all non-zero."""
    arrays = [rng.uniform(-1, 1, (b, t, e))]
    for _ in range(directions):
        arrays += ([rng.uniform(-1, 1, (e, h)) for _ in range(gates)]
                   + [rng.uniform(-1, 1, (h, h)) for _ in range(gates)]
                   + [rng.uniform(-1, 1, (1, h)) for _ in range(gates)])
    return arrays


def _conv_arrays(rng, b=2, t=6, e=3, kernels=(3, 1), f=4):
    """A (B, T, E) input, then w (k * E, F) and a non-zero b (1, F) per kernel."""
    arrays = [rng.uniform(-1, 1, (b, t, e))]
    for k in kernels:
        arrays += [rng.uniform(-1, 1, (k * e, f)), rng.uniform(-0.5, 0.5, (1, f))]
    return arrays


class TestForwardValues:
    def test_matmul_identity(self):
        eye = Tensor(np.eye(2))
        a = Tensor([[3.0, 4.0], [5.0, 6.0]])
        out = apply_primitive("matmul", [eye, a])
        np.testing.assert_array_equal(out.values, a.values)

    def test_sigmoid_at_origin(self):
        out = apply_primitive("sigmoid", [Tensor([0.0])])
        assert out.values[0] == 0.5

    def test_softmax_symmetry(self):
        out = softmax(Tensor([1.0, 1.0, 1.0]), axis=0)
        np.testing.assert_allclose(out.values, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)

    def test_softmax_distribution_invariants(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-8, 8, size=(5, 9)))
        y = softmax(x, axis=1).values
        np.testing.assert_allclose(y.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_sigmoid_tanh_form(self):
        x = np.linspace(-30.0, 30.0, 601)
        out = apply_primitive("sigmoid", [Tensor(x)]).values
        np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=3e-16)
        with np.errstate(all="raise"):  # saturates without overflow
            extreme = apply_primitive("sigmoid", [Tensor([-1e308, -800.0, 800.0, 1e308])]).values
        np.testing.assert_array_equal(extreme, [0.0, 0.0, 1.0, 1.0])

    def test_scan_runs_backwards_on_reversed_input(self):
        # a two-direction scan is a one-direction scan with the first
        # direction's weights beside one over the reversed input with the
        # second direction's, read back in position order
        rng = np.random.default_rng(15)
        for scan, gates in ((gru_scan, 3), (lstm_scan, 4)):
            x, *weights = [Tensor(a) for a in _scan_arrays(rng, gates, directions=2)]
            both = scan(x, weights).values
            forward = scan(x, weights[:3 * gates]).values
            flipped = scan(Tensor(x.values[:, ::-1]), weights[3 * gates:]).values
            want = np.concatenate([forward, flipped[:, ::-1]], axis=2)
            assert both.shape == (2, 5, 8) and both.tobytes() == want.tobytes()

    def test_conv1d_is_relu_of_window_products(self):
        # kernel i's block of rows: relu(x[b, p:p + k] flattened @ w + b), one
        # row per position p; the blocks follow the operand order
        rng = np.random.default_rng(28)
        x, *weights = _conv_arrays(rng, kernels=(3, 1, 6))
        out = conv1d(Tensor(x), [Tensor(a) for a in weights]).values
        want = [np.maximum(x[b, p:p + len(w) // 3].reshape(-1) @ w + bias[0], 0.0)
                for w, bias in zip(weights[::2], weights[1::2])
                for p in range(6 - len(w) // 3 + 1) for b in range(2)]
        assert out.shape == (2, 4 + 6 + 1, 4)
        np.testing.assert_allclose(out.transpose(1, 0, 2).reshape(-1, 4), want,
                                   rtol=0, atol=1e-15)
        assert np.any(out > 0) and np.any(out == 0)

    def test_purity_bitwise(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(3, 5)))
        first = apply_primitive("matmul", [a, b]).values
        second = apply_primitive("matmul", [a, b]).values
        assert first.tobytes() == second.tobytes()


class TestErrors:
    def test_unknown_primitive(self):
        with pytest.raises(UnknownPrimitiveError):
            apply_primitive("fused-gelu", [Tensor([1.0])])

    def test_shape_mismatch_names_primitive_and_shapes(self):
        with pytest.raises(ShapeMismatchError) as exc:
            apply_primitive("add", [Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))])
        msg = str(exc.value)
        assert "add" in msg and "(2, 3)" in msg and "(3, 2)" in msg

    @pytest.mark.parametrize("kind", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("left, right", [((2, 3), (3,)), ((2, 3), (3, 3)),
                                             ((2, 1, 4), (2, 3, 3))])
    def test_broadcast_needs_equal_rank_and_unit_extents(self, kind, left, right):
        with pytest.raises(ShapeMismatchError) as exc:
            apply_primitive(kind, [Tensor(np.ones(left)), Tensor(np.ones(right))])
        msg = str(exc.value)
        assert kind in msg and str(left) in msg and str(right) in msg

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeMismatchError) as exc:
            apply_primitive("matmul", [Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))])
        assert "matmul" in str(exc.value)

    @pytest.mark.parametrize("kind, gates", [("gru_scan", 3), ("lstm_scan", 4)])
    def test_scan_operands_checked(self, kind, gates):
        arrays = _scan_arrays(np.random.default_rng(0), gates, directions=2)
        per = 3 * gates
        for direction in (0, 1):
            bad = list(arrays)
            bad[1 + direction * per + gates + 1] = np.zeros((4, 5))
            with pytest.raises(ShapeMismatchError,
                               match=rf"direction {direction} u_\w must be \(4, 4\).*\(4, 5\)"):
                apply_primitive(kind, [Tensor(a) for a in bad])
        with pytest.raises(ShapeMismatchError, match="input must be"):
            apply_primitive(kind, [Tensor(arrays[0][0])] + [Tensor(a) for a in arrays[1:]])

    @pytest.mark.parametrize("kind, gates", [("gru_scan", 3), ("lstm_scan", 4)])
    def test_scan_operand_count_is_one_plus_weights_per_direction(self, kind, gates):
        # 1 + 3 * gates * D operands for D = 1 or 2 directions, nothing else
        arrays = _scan_arrays(np.random.default_rng(0), gates, directions=3)
        per = 3 * gates
        want = f"{kind}: expects 1 \\+ {per} or 1 \\+ {per} \\+ {per} operands"
        for count in (1, per, 2 + per, 2 * per, 2 + 2 * per, 1 + 3 * per):
            with pytest.raises(ShapeMismatchError, match=f"{want}, got {count}$"):
                apply_primitive(kind, [Tensor(a) for a in arrays[:count]])
        for directions in (1, 2):
            out = apply_primitive(kind, [Tensor(a) for a in arrays[:1 + directions * per]])
            assert out.shape == (2, 5, 4 * directions)

    @pytest.mark.parametrize("position, shape, match", [
        (0, (4, 3), r"input must be \(B, T, E >= 1\) \(\(4, 3\)\)"),
        (1, (21, 4), r"kernel 0 w must be \(k \* E, F\) with 1 <= k <= T "
                     r"\(\(2, 6, 3\) vs \(21, 4\)\)"),               # k = 7 > T
        (3, (4, 4), r"kernel 1 w must be \(k \* E, F\) with 1 <= k <= T"),  # 4 rows, E = 3
        (3, (12,), r"kernel 1 w must be \(k \* E, F\)"),
        (3, (3, 5), r"kernel 1 w must have kernel 0's F = 4 columns \(\(3, 5\)\)"),
        (4, (4,), r"kernel 1 b must be \(1, 4\) \(\(4,\)\)"),
        (2, (2, 4), r"kernel 0 b must be \(1, 4\) \(\(2, 4\)\)"),
    ])
    def test_conv1d_operands_checked(self, position, shape, match):
        arrays = _conv_arrays(np.random.default_rng(0))
        arrays[position] = np.ones(shape)
        with pytest.raises(ShapeMismatchError, match=f"^conv1d: {match}"):
            conv1d(Tensor(arrays[0]), [Tensor(a) for a in arrays[1:]])

    def test_conv1d_operand_count_is_one_plus_two_per_kernel(self):
        arrays = _conv_arrays(np.random.default_rng(0), kernels=(3, 1, 2))
        for count in (1, 2, 4, 6):
            with pytest.raises(ShapeMismatchError,
                               match=f"^conv1d: expects 1 \\+ 2 per kernel operands, got {count}$"):
                apply_primitive("conv1d", [Tensor(a) for a in arrays[:count]])
        for kernels in (1, 2, 3):
            out = apply_primitive("conv1d", [Tensor(a) for a in arrays[:1 + 2 * kernels]])
            assert out.shape == (2, (4, 10, 15)[kernels - 1], 4)

    @pytest.mark.parametrize("iterations", [True, False, 0, -1, 1.0, "3", None])
    def test_routing_iterations_int_not_bool(self, iterations):
        arrays, _ = _forward_cases()["routing"]
        with pytest.raises(ShapeMismatchError,
                           match=rf"routing: iterations must be an int >= 1, got {iterations!r}$"):
            routing(Tensor(arrays[0]), Tensor(arrays[1]), iterations)

    def test_routing_empty_class_axis_names_transform(self):
        # no class to route to: the softmax over classes would reduce an empty axis
        with pytest.raises(ShapeMismatchError,
                           match=r"routing: transform must have n_cls >= 1 \(\(4, 0, 3, 3\)\)$"):
            routing(Tensor(np.ones((2, 4, 3))), Tensor(np.ones((4, 0, 3, 3))), 3)

    def test_concat_axis_out_of_range(self):
        pair = [Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))]
        for axis in (2, 5, -3):
            with pytest.raises(ShapeMismatchError, match=f"concat: axis {axis} out of range"):
                apply_primitive("concat", pair, axis=axis)

    @pytest.mark.parametrize("shape", [(-2, -3), (-1, 6), (6, -1)])
    def test_reshape_negative_extent(self, shape):
        with pytest.raises(ShapeMismatchError, match="reshape: negative extent"):
            Tensor(np.zeros((2, 3))).reshape(shape)

    @pytest.mark.parametrize("kind", sorted(_PRIMITIVES))
    def test_operand_count_checked(self, kind):
        arrays, kw = _forward_cases()[kind]
        # concat takes one or more operands; every other kind a fixed count
        wrong = [[]] if kind == "concat" else [arrays[:-1], arrays + arrays[:1]]
        for bad in wrong:
            with pytest.raises(ShapeMismatchError, match=f"{kind}: expects .* got {len(bad)}"):
                apply_primitive(kind, [Tensor(a) for a in bad], **kw)

    def test_non_scalar_loss(self):
        with Tape() as tape:
            out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        with pytest.raises(NonScalarLossError):
            backward(out, tape)

    def test_empty_tape(self):
        with pytest.raises(EmptyTapeError):
            backward(Tensor([1.0]), Tape())

    def test_constants_only_record_nothing(self):
        x = Tensor([[1.0, -2.0]])
        w = Tensor(np.ones((2, 3)))
        with Tape() as tape:
            loss = apply_primitive("tanh", [x @ w]).sum()
        assert tape.nodes == [] and loss.node_id is None and not loss.needs_grad
        with pytest.raises(EmptyTapeError, match="depends on a Parameter"):
            backward(loss, tape)


class TestBackward:
    def test_sum_of_squares(self):
        x = Parameter(Tensor([1.0, 2.0, 3.0]), "x").tensor
        with Tape() as tape:
            loss = (x * x).sum()
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_matmul_weight_gradient(self):
        # loss = sum(x @ W), x = [[1, 1]], W = ones(2, 2)
        # dL/dW_ij = x_i, so every entry is 1 (hand chain rule).
        x = Tensor([[1.0, 1.0]])
        w = Parameter(Tensor(np.ones((2, 2))), "w").tensor
        with Tape() as tape:
            loss = (x @ w).sum()
        backward(loss, tape)
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_fanout_accumulates_by_summation(self):
        x = Parameter(Tensor([0.5, -1.5, 2.0]), "x").tensor
        with Tape() as tape:
            loss = x.sum() + (x * x).sum()
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, 1.0 + 2.0 * x.values, rtol=0, atol=1e-15)

    def test_replay_determinism_bitwise(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(3, 4))

        def run():
            x = Parameter(Tensor(base.copy()), "x").tensor
            w = Parameter(Tensor(np.linspace(-1, 1, 8).reshape(4, 2)), "w").tensor
            with Tape() as tape:
                loss = apply_primitive("tanh", [x @ w]).sum()
            backward(loss, tape)
            return x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()

    def test_broadcast_forward_matches_numpy(self):
        a = np.arange(6.0).reshape(2, 3, 1)
        b = np.linspace(1.0, 2.0, 4).reshape(1, 1, 4)
        for kind, expected in (("add", a + b), ("sub", a - b), ("mul", a * b), ("div", a / b)):
            out = apply_primitive(kind, [Tensor(a), Tensor(b)])
            assert out.values.tobytes() == expected.tobytes()

    def test_reshape_and_leading_slice_are_views(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.shares_memory(x.reshape((4, 3)).values, x.values)
        leading = apply_primitive("slice", [x], axis=0, start=1, stop=3).values
        assert np.shares_memory(leading, x.values)
        inner = apply_primitive("slice", [x], axis=1, start=1, stop=3).values
        assert inner.flags.c_contiguous and not np.shares_memory(inner, x.values)
        assert apply_primitive("transpose", [x], perm=(1, 0)).values.flags.c_contiguous

    def test_matmul_batch_fold_matches_broadcast_form(self):
        # weight @ batch and batch @ weight fold the batch into one 2-D product;
        # the broadcast form builds per-item products and sums them
        rng = np.random.default_rng(16)
        for a_shape, b_shape in (((5, 7), (6, 7, 3)), ((5, 7), (2, 3, 7, 4)),
                                 ((6, 4, 7), (7, 3)), ((2, 3, 4, 7), (7, 5))):
            a, b = rng.uniform(-1, 1, a_shape), rng.uniform(-1, 1, b_shape)
            g = rng.uniform(-1, 1, np.matmul(a, b).shape)  # d loss / d (a @ b)
            ta, tb = Parameter(Tensor(a), "a").tensor, Parameter(Tensor(b), "b").tensor
            with Tape() as tape:
                loss = ((ta @ tb) * Tensor(g)).sum()
            backward(loss, tape)
            want_a = np.matmul(g, np.swapaxes(b, -1, -2))
            want_b = np.matmul(np.swapaxes(a, -1, -2), g)
            want_a = want_a.reshape((-1,) + a_shape[-2:]).sum(axis=0) if a.ndim == 2 else want_a
            want_b = want_b.reshape((-1,) + b_shape[-2:]).sum(axis=0) if b.ndim == 2 else want_b
            for got, want in ((ta.grad, want_a), (tb.grad, want_b)):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0, 2.0])
        out = x + x
        assert out.node_id is None and x.grad is None


def _forward_cases():
    """One (arrays, kw) application per primitive kind."""
    rng = np.random.default_rng(25)

    def arr(*shape, low=-2.0):
        return rng.uniform(low, 2.0, shape)

    pair = [arr(2, 3, 1), arr(1, 3, 4, low=0.5)]
    return {
        "matmul": ([arr(3, 4), arr(4, 2)], {}),
        "add": (pair, {}),
        "sub": (pair, {}),
        "mul": (pair, {}),
        "div": (pair, {}),
        "scale": ([arr(3, 4)], {"factor": -1.7}),
        "concat": ([arr(2, 1, 3), arr(2, 4, 3), arr(2, 2, 3)], {"axis": 1}),
        "slice": ([arr(3, 5)], {"axis": 1, "start": 1, "stop": 4}),
        "reshape": ([arr(6, 2)], {"shape": (3, 4)}),
        "transpose": ([arr(2, 3, 4)], {"perm": (2, 0, 1)}),
        "sigmoid": ([arr(3, 4)], {}),
        "tanh": ([arr(3, 4)], {}),
        "relu": ([arr(3, 4)], {}),
        "softmax": ([arr(3, 4)], {"axis": 1}),
        "l2norm": ([arr(3, 4)], {"axis": 1}),
        "sum": ([arr(3, 4)], {"axis": 0}),
        "exp": ([arr(3, 4)], {}),
        "log": ([arr(3, 4, low=0.5)], {}),
        "conv1d": (_conv_arrays(rng), {}),
        "gru_scan": (_scan_arrays(rng, 3, directions=2), {}),
        "lstm_scan": (_scan_arrays(rng, 4, directions=2), {}),
        "squash": ([arr(2, 5, 4)], {}),
        "routing": ([arr(2, 4, 3), arr(4, 2, 3, 3)], {"iterations": 3}),
    }


class TestForwardIndependentOfTape:
    """A primitive's output is the same to the byte with no tape, with a tape
    and every operand a parameter, and with a tape and a constant first
    operand: recording a pullback does no forward arithmetic."""

    @pytest.mark.parametrize("kind", sorted(_PRIMITIVES))
    def test_output_bytes(self, kind):
        arrays, kw = _forward_cases()[kind]  # a new primitive needs a case here
        plain = apply_primitive(kind, [Tensor(a) for a in arrays], **kw)
        assert plain.node_id is None and not plain.needs_grad
        outputs = [plain.values.tobytes()]
        for first_constant in (False, True):
            operands = [Tensor(a) if i == 0 and first_constant
                        else Parameter(Tensor(a), f"p{i}").tensor
                        for i, a in enumerate(arrays)]
            recorded = len(arrays) > 1 or not first_constant
            with Tape() as tape:
                out = apply_primitive(kind, operands, **kw)
            assert len(tape.nodes) == int(recorded) and out.needs_grad == recorded
            outputs.append(out.values.tobytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def _param_grads(forward, arrays, constant):
    """Gradients of forward(*tensors) for every array not in ``constant``,
    whose tensors stay plain constants; those get no grad."""
    tensors = [Tensor(a) if i in constant else Parameter(Tensor(a), f"p{i}").tensor
               for i, a in enumerate(arrays)]
    with Tape() as tape:
        loss = forward(*tensors)
    backward(loss, tape)
    assert all(tensors[i].grad is None for i in constant)
    return [t.grad.tobytes() for i, t in enumerate(tensors) if i not in constant]


class TestGradientsOnlyForParameters:
    """An operand that needs no gradient gets none, and skipping it leaves the
    other operands' gradients unchanged to the byte."""

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 4), (4, 2)), ((2, 3, 4), (4, 5)),
                                                  ((5, 7), (6, 7, 3)), ((2, 1, 3, 4), (3, 4, 2))])
    def test_matmul_constant_left_operand(self, a_shape, b_shape):
        rng = np.random.default_rng(23)
        a, b = rng.uniform(-1, 1, a_shape), rng.uniform(-1, 1, b_shape)

        def forward(ta, tb):
            return apply_primitive("tanh", [ta @ tb]).sum()

        assert _param_grads(forward, [a, b], {0}) == _param_grads(forward, [a, b], set())[1:]

    @pytest.mark.parametrize("scan, gates", [(gru_scan, 3), (lstm_scan, 4)])
    def test_scan_over_constant_input_block(self, scan, gates):
        rng = np.random.default_rng(24)
        for directions in (1, 2):
            arrays = _scan_arrays(rng, gates, directions=directions)
            weights = Tensor(rng.uniform(-1, 1, arrays[0].shape[:2] + (4 * directions,)))

            def forward(x, *ws):
                return (scan(x, ws) * weights).sum()

            assert (_param_grads(forward, arrays, {0})
                    == _param_grads(forward, arrays, set())[1:])

    def test_conv1d_over_constant_input_block(self):
        rng = np.random.default_rng(29)
        arrays = _conv_arrays(rng)
        weights = Tensor(rng.uniform(-1, 1, (2, 10, 4)))

        def forward(x, *ws):
            return (conv1d(x, ws) * weights).sum()

        assert _param_grads(forward, arrays, {0}) == _param_grads(forward, arrays, set())[1:]


def reference_weight_times_batch(w: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """The replaced ``weight @ batch`` forward: numpy broadcasts the (m, k)
    weight over the batch axes and runs one (m, k) @ (k, n) product per item."""
    return np.matmul(w, batch)


# The compression layer's (n_cc, count, d) in each benchmark workload:
# train-cnn-caps, train-bigru-desk and score-adv.
BENCH_HEADS = [(128, 1368, 16), (32, 480, 8), (16, 684, 8)]


class TestWeightTimesBatch:
    """``weight @ batch`` runs the per-item products when the weight has
    fewer than FOLD_MIN_ROWS rows, and otherwise folds the batch axes into
    the columns of one 2-D product. BLAS may then sum in another order than
    the per-item products, so either way the forward agrees with them within
    FOLD_TOL of the largest |value| (measured for the fold: at most about
    2.5e-15, and 0 at train-cnn-caps shapes). The rule reads only shapes, so
    a taped forward gives the tape-free one's bytes."""

    FOLD_TOL = 1e-14

    def _assert_matches_reference(self, w, batch):
        want = reference_weight_times_batch(w, batch)
        out = apply_primitive("matmul", [Tensor(w), Tensor(batch)])
        assert out.shape == want.shape and out.values.flags.c_contiguous
        scale = np.abs(want).max() if want.size else 0.0
        np.testing.assert_allclose(out.values, want, rtol=0, atol=self.FOLD_TOL * scale)
        with Tape():
            recorded = apply_primitive("matmul", [Parameter(Tensor(w), "w").tensor,
                                                  Parameter(Tensor(batch), "b").tensor])
        assert recorded.values.tobytes() == out.values.tobytes()

    # the bench heads, then weights either side of the fold rule
    @pytest.mark.parametrize("n_cc, count, d", BENCH_HEADS + [(FOLD_MIN_ROWS - 1, 40, 8),
                                                              (FOLD_MIN_ROWS, 40, 8)])
    @pytest.mark.parametrize("b", [1, 9, 32])
    def test_bench_heads_match_per_item_products(self, n_cc, count, d, b):
        rng = np.random.default_rng(b * count)
        w = rng.uniform(-1, 1, (n_cc, count)) / np.sqrt(count)
        self._assert_matches_reference(w, rng.uniform(-1, 1, (b, count, d)))

    @pytest.mark.parametrize("rows, count, d", [(FOLD_MIN_ROWS - 1, 1368, 16),
                                                (FOLD_MIN_ROWS, 1368, 16), BENCH_HEADS[2]])
    def test_only_the_fold_copies_the_batch(self, rows, count, d):
        # numpy reports its buffers to tracemalloc. A tape-free forward keeps
        # only its output, and makes the batch's folded copy only when it
        # folds; at score-adv's head the output is 0.02 batches.
        rng = np.random.default_rng(rows)
        w, batch = rng.uniform(-1, 1, (rows, count)), rng.uniform(-1, 1, (32, count, d))
        operands, output = [Tensor(w), Tensor(batch)], 32 * rows * d * 8
        tracemalloc.start()
        try:
            out = apply_primitive("matmul", operands)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.values.nbytes == output and left < output + 0.01 * batch.nbytes, left
        assert (peak > 0.9 * batch.nbytes) == (rows >= FOLD_MIN_ROWS), peak / batch.nbytes

    def test_rank4_batch(self):
        rng = np.random.default_rng(31)
        self._assert_matches_reference(rng.uniform(-1, 1, (5, 7)),
                                       rng.uniform(-1, 1, (2, 3, 7, 4)))

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 5), (0, 5, 4)), ((3, 5), (2, 0, 5, 4)),
                                                  ((3, 5), (2, 5, 0)), ((3, 0), (2, 0, 4)),
                                                  ((0, 5), (2, 5, 4))])
    def test_zero_size_forward_and_gradients(self, a_shape, b_shape):
        self._assert_matches_reference(np.ones(a_shape), np.ones(b_shape))
        a = Parameter(Tensor(np.ones(a_shape)), "a").tensor
        b = Parameter(Tensor(np.ones(b_shape)), "b").tensor
        with Tape() as tape:
            loss = (a @ b).sum()
        backward(loss, tape)
        # d loss / d a[i, j] sums b's row j over every item; d / d b, a's column
        m, k = a_shape
        np.testing.assert_array_equal(a.grad, np.full(a_shape, b.size // k if k else 0))
        np.testing.assert_array_equal(b.grad, np.full(b_shape, m))

    def test_peak_memory(self):
        # train-cnn-caps compression. numpy reports its buffers to tracemalloc.
        # At most one batch-folded copy of the batch is alive: under a tape it
        # is held from the forward to the pullback, without one it is freed
        # with the unused pullback. Measured, in copies of the batch: 0.09
        # left after a tape-free forward (the output), 1.19 held after a taped
        # forward, 3.78 at the backward's peak (with gb and the parameter's own
        # C-ordered gradient).
        b, count, d, n_cc = 32, 1368, 16, 128
        rng = np.random.default_rng(15)
        w = Parameter(Tensor(rng.normal(size=(n_cc, count))), "w").tensor
        batch = Parameter(Tensor(rng.normal(size=(b, count, d))), "b").tensor
        g = Tensor(rng.uniform(-1, 1, (b, n_cc, d)))
        copy = batch.values.nbytes
        tracemalloc.start()
        try:
            out = apply_primitive("matmul", [w, batch])
            left, peak_free = tracemalloc.get_traced_memory()
            del out
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            with Tape() as tape:
                loss = ((w @ batch) * g).sum()
            held = tracemalloc.get_traced_memory()[0] - start
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert w.grad.shape == w.shape and batch.grad.shape == batch.shape
        assert left < 0.25 * copy and peak_free < 1.5 * copy, f"{left}, {peak_free}"
        assert held < 1.5 * copy, f"held {held / 2**20:.1f} MiB"
        assert peak < 4 * copy, f"peak {peak / 2**20:.1f} MiB"


class TestConv1dBank:
    """``conv1d`` over an empty batch, and what a taped one keeps alive."""

    def test_empty_batch(self):
        x, *weights = [Parameter(Tensor(a), f"p{i}").tensor
                       for i, a in enumerate(_conv_arrays(np.random.default_rng(30), b=0))]
        with Tape() as tape:
            out = conv1d(x, weights)
            loss = (out * out).sum()
        assert out.shape == (0, 10, 4)
        backward(loss, tape)
        assert x.grad.shape == x.shape
        for w in weights:
            assert w.grad.shape == w.shape and not np.any(w.grad)

    def test_peak_memory(self):
        # train-cnn-caps encoder. numpy reports its buffers to tracemalloc.
        # A taped conv1d keeps its windows and its output alive until the
        # pullback, which reads the ReLU mask from the output's sign; a
        # pre-activation copy would add another output. Measured: 1.0001
        # times the windows plus the output held after a taped forward,
        # 1.0006 outputs left after a tape-free one.
        b, t, e, f, kernels = 32, 60, 16, 64, (3, 4, 5)
        x, *weights = _conv_arrays(np.random.default_rng(31), b, t, e, kernels, f)
        weights = [Parameter(Tensor(a), f"p{i}").tensor for i, a in enumerate(weights)]
        x = Tensor(x)
        rows = sum(t - k + 1 for k in kernels)
        g = Tensor(np.random.default_rng(32).uniform(-1, 1, (b, rows, f)))
        output = b * rows * f * 8
        kept = output + sum(b * (t - k + 1) * k * e * 8 for k in kernels)
        tracemalloc.start()
        try:
            out = conv1d(x, [Tensor(w.values) for w in weights])
            left = tracemalloc.get_traced_memory()[0]
            del out
            start, _ = tracemalloc.get_traced_memory()
            with Tape() as tape:
                out = conv1d(x, weights)
                held = tracemalloc.get_traced_memory()[0] - start
                loss = (out * g).sum()
        finally:
            tracemalloc.stop()
        backward(loss, tape)
        assert all(w.grad.shape == w.shape for w in weights)
        assert left < 1.25 * output, f"left {left / 2**20:.2f} MiB"
        assert held < kept + 0.25 * output, f"held {held / 2**20:.2f} MiB"


class TestCapsuleZeroExtents:
    """``routing`` and ``squash`` run forward and backward over an empty batch,
    an empty capsule axis or zero-length vectors, with every shape kept."""

    @pytest.mark.parametrize("b, n_cc, d", [(0, 4, 3), (2, 0, 3), (2, 4, 0), (0, 0, 0)])
    @pytest.mark.parametrize("iterations", [1, 3])
    def test_routing(self, b, n_cc, d, iterations):
        n_cls = 2
        u = Parameter(Tensor(np.ones((b, n_cc, d))), "u").tensor
        w = Parameter(Tensor(np.ones((n_cc, n_cls, d, d))), "w").tensor
        with Tape() as tape:
            v, logits, couplings = routing(u, w, iterations)
            loss = (v * v).sum()
        assert v.shape == (b, n_cls, d)
        assert logits.shape == (b, n_cc, n_cls) and not np.any(logits)
        assert len(couplings) == iterations
        for c in couplings:
            assert c.shape == (b, n_cc, n_cls) and c.flags.c_contiguous
            np.testing.assert_array_equal(c, np.full((b, n_cc, n_cls), 0.5))
        # no capsule routes anything: the class capsules and gradients are 0
        np.testing.assert_array_equal(v.values, np.zeros((b, n_cls, d)))
        backward(loss, tape)
        np.testing.assert_array_equal(u.grad, np.zeros((b, n_cc, d)))
        np.testing.assert_array_equal(w.grad, np.zeros((n_cc, n_cls, d, d)))

    @pytest.mark.parametrize("shape", [(0, 5, 4), (2, 0, 4), (2, 5, 0), (0,)])
    def test_squash(self, shape):
        x = Parameter(Tensor(np.ones(shape)), "x").tensor
        with Tape() as tape:
            loss = squash(x).sum()
        backward(loss, tape)
        assert x.grad.shape == shape and not np.any(x.grad)


def _as_params(arrays):
    return [Parameter(Tensor(a), f"p{i}") for i, a in enumerate(arrays)]


class TestGradCheckPrimitives:
    """Every primitive's backward rule against finite differences."""

    TOL = 1e-6

    def _check(self, fn, arrays, seed=0):
        params = _as_params(arrays)
        err = grad_check(fn, params, epsilon=1e-5, sample_count=40,
                         rng=np.random.default_rng(seed))
        assert err < self.TOL, f"relative error {err:.3e}"

    def test_matmul(self):
        rng = np.random.default_rng(1)
        self._check(lambda ps: (ps[0].tensor @ ps[1].tensor).sum().scale(1.0),
                    [rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (4, 2))])

    def test_matmul_batched_rank3_rank2(self):
        rng = np.random.default_rng(2)
        self._check(lambda ps: apply_primitive("tanh", [ps[0].tensor @ ps[1].tensor]).sum(),
                    [rng.uniform(-2, 2, (2, 3, 4)), rng.uniform(-2, 2, (4, 3))])

    def test_matmul_batched_rank2_rank3(self):
        rng = np.random.default_rng(3)
        self._check(lambda ps: apply_primitive("tanh", [ps[0].tensor @ ps[1].tensor]).sum(),
                    [rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (5, 4, 2))])

    def test_matmul_broadcast_rank4(self):
        rng = np.random.default_rng(4)
        self._check(lambda ps: apply_primitive("tanh", [ps[0].tensor @ ps[1].tensor]).sum(),
                    [rng.uniform(-2, 2, (2, 3, 1, 1, 4)), rng.uniform(-2, 2, (3, 5, 4, 2))])

    def test_matmul_weight_times_batch_folded(self):
        # a 4-row weight: the per-item products, under the same pullback
        rng = np.random.default_rng(17)
        self._check(lambda ps: apply_primitive("tanh", [ps[0].tensor @ ps[1].tensor]).sum(),
                    [rng.uniform(-2, 2, (4, 6)), rng.uniform(-2, 2, (2, 3, 6, 2))])

    def test_matmul_weight_times_batch_fold_side(self):
        rng = np.random.default_rng(34)
        self._check(lambda ps: apply_primitive("tanh", [ps[0].tensor @ ps[1].tensor]).sum(),
                    [rng.uniform(-2, 2, (FOLD_MIN_ROWS, 6)) / FOLD_MIN_ROWS,
                     rng.uniform(-2, 2, (2, 3, 6, 2))], seed=34)

    def test_matmul_batch_times_weight_folded(self):
        rng = np.random.default_rng(18)
        self._check(lambda ps: apply_primitive("tanh", [ps[0].tensor @ ps[1].tensor]).sum(),
                    [rng.uniform(-2, 2, (2, 3, 4, 5)), rng.uniform(-2, 2, (5, 3))])

    def test_conv1d(self):
        # the input block, every w and every b, with pre-activations of both
        # signs, none near the ReLU's kink
        rng = np.random.default_rng(33)
        arrays = _conv_arrays(rng, kernels=(3, 1, 6))
        x = arrays[0]
        pre = np.concatenate([
            np.stack([x[:, p:p + len(w) // 3].reshape(2, -1) for p in range(7 - len(w) // 3)])
            @ w + b for w, b in zip(arrays[1::2], arrays[2::2])])
        assert np.any(pre > 0.1) and np.any(pre < -0.1) and np.abs(pre).min() > 1e-3
        weights = Tensor(rng.uniform(-1, 1, (2, 11, 4)))
        self._check(lambda ps: (conv1d(ps[0].tensor, [p.tensor for p in ps[1:]])
                                * weights).sum(), arrays, seed=33)

    def test_gru_scan(self):
        self._check_scan(gru_scan, 3, seed=19)

    def test_lstm_scan(self):
        self._check_scan(lstm_scan, 4, seed=20)

    def _check_scan(self, scan, gates, seed):
        # the input block is a parameter too: hybrids backpropagate into it
        rng = np.random.default_rng(seed)
        for directions in (1, 2):
            arrays = _scan_arrays(rng, gates, directions=directions)
            weights = Tensor(rng.uniform(-1, 1, arrays[0].shape[:2] + (4 * directions,)))
            self._check(lambda ps: (scan(ps[0].tensor, [p.tensor for p in ps[1:]])
                                    * weights).sum(), arrays, seed)

    def test_squash(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-2, 2, (2, 5, 4))
        x[1, 3] = 0.0  # an all-zero capsule
        weights = Tensor(rng.uniform(-1, 1, x.shape))

        # squared outputs keep the loss even in the zero row, whose central
        # differences are then exactly 0, as its gradient is
        def fn(ps):
            y = squash(ps[0].tensor)
            return (y * y * weights).sum()

        self._check(fn, [x], seed=21)
        (p,) = params = _as_params([x])
        with Tape() as tape:
            loss = fn(params)
        backward(loss, tape)
        assert np.all(np.isfinite(p.tensor.grad)) and not np.any(p.tensor.grad[1, 3])

    def test_routing(self):
        # n_cls = 3; one iteration (couplings stay uniform) and three
        rng = np.random.default_rng(22)
        for iterations in (1, 3):
            u = rng.uniform(-1, 1, (2, 4, 3))
            w = rng.uniform(-1, 1, (4, 3, 3, 3))
            weights = Tensor(rng.uniform(-1, 1, (2, 3, 3)))
            self._check(lambda ps: (routing(ps[0].tensor, ps[1].tensor, iterations)[0]
                                    * weights).sum(), [u, w], seed=22 + iterations)

    def test_add_sub_mul_div(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-2, 2, (3, 3))
        b = rng.uniform(0.5, 2, (3, 3))

        def fn(ps):
            s = ps[0].tensor + ps[1].tensor
            d = ps[0].tensor - ps[1].tensor
            m = ps[0].tensor * ps[1].tensor
            q = apply_primitive("div", [ps[0].tensor, ps[1].tensor])
            return (s + d + m + q).sum()

        self._check(fn, [a, b])

    def test_broadcast_elementwise(self):
        # a size-1 axis on the left operand, on the right, and on both
        rng = np.random.default_rng(14)
        for left, right in [((3, 1), (3, 4)), ((2, 3, 4), (1, 3, 1)), ((3, 1), (1, 4))]:
            for kind in ("add", "sub", "mul", "div"):
                a = rng.uniform(-2, 2, left)
                b = rng.uniform(0.5, 2, right)  # positive, so div stays smooth
                weights = Tensor(rng.uniform(-1, 1, np.broadcast_shapes(left, right)))
                self._check(lambda ps: (apply_primitive(kind, [ps[0].tensor, ps[1].tensor])
                                        * weights).sum(), [a, b])

    def test_scale(self):
        rng = np.random.default_rng(6)
        self._check(lambda ps: ps[0].tensor.scale(-1.7).sum(),
                    [rng.uniform(-2, 2, (4,))])

    def test_concat_and_slice(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2, 2, (2, 3))
        b = rng.uniform(-2, 2, (2, 4))

        def fn(ps):
            c = apply_primitive("concat", [ps[0].tensor, ps[1].tensor], axis=1)
            left = apply_primitive("slice", [c], axis=1, start=0, stop=2)
            right = apply_primitive("slice", [c], axis=1, start=2, stop=7)
            return (apply_primitive("tanh", [left]).sum() + (right * right).sum()).scale(0.5)

        self._check(fn, [a, b])

    def test_concat_three_rank3_operands(self):
        # the CNN encoder's shape: feature maps joined along the position axis
        rng = np.random.default_rng(26)
        weights = Tensor(rng.uniform(-1, 1, (2, 9, 3)))
        self._check(lambda ps: (apply_primitive("tanh", [apply_primitive(
                        "concat", [p.tensor for p in ps], axis=1)]) * weights).sum(),
                    [rng.uniform(-2, 2, (2, k, 3)) for k in (4, 3, 2)])

    def test_concat_negative_axis_matches_positive(self):
        rng = np.random.default_rng(27)
        arrays = [rng.uniform(-2, 2, (2, k)) for k in (3, 4)]
        weights = Tensor(rng.uniform(-1, 1, (2, 7)))
        results = []
        for axis in (1, -1):
            params = _as_params(arrays)
            with Tape() as tape:
                out = apply_primitive("concat", [p.tensor for p in params], axis=axis)
                loss = (apply_primitive("tanh", [out]) * weights).sum()
            backward(loss, tape)
            results.append([out.values.tobytes()] + [p.tensor.grad.tobytes() for p in params])
        assert results[0] == results[1]
        self._check(lambda ps: (apply_primitive("tanh", [apply_primitive(
                        "concat", [p.tensor for p in ps], axis=-1)]) * weights).sum(),
                    arrays)

    def test_reshape_transpose(self):
        rng = np.random.default_rng(8)

        def fn(ps):
            r = ps[0].tensor.reshape((3, 2, 2))
            t = apply_primitive("transpose", [r], perm=(1, 0, 2))
            return apply_primitive("sigmoid", [t]).sum()

        self._check(fn, [rng.uniform(-2, 2, (6, 2))])

    def test_activations(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, (5, 5))
        # keep relu inputs away from the kink so FD is valid
        x[np.abs(x) < 1e-2] += 0.05
        self._check(lambda ps: (apply_primitive("sigmoid", [ps[0].tensor]).sum()
                                + apply_primitive("tanh", [ps[0].tensor]).sum()
                                + relu(ps[0].tensor).sum()), [x])

    def test_softmax_axis(self):
        rng = np.random.default_rng(10)

        def fn(ps):
            y = softmax(ps[0].tensor, axis=1)
            w = Tensor(np.linspace(0.1, 1.0, 12).reshape(3, 4))
            return (y * w).sum()

        self._check(fn, [rng.uniform(-2, 2, (3, 4))])

    def test_l2norm(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, (4, 3))
        self._check(lambda ps: l2_norm(ps[0].tensor, axis=1).sum(), [x])

    def test_sum_axis(self):
        rng = np.random.default_rng(12)
        self._check(lambda ps: apply_primitive("tanh", [ps[0].tensor.sum(axis=0)]).sum(),
                    [rng.uniform(-2, 2, (3, 4))])

    def test_exp_log(self):
        rng = np.random.default_rng(13)
        self._check(lambda ps: (apply_primitive("exp", [ps[0].tensor]).sum()
                                + log(ps[1].tensor).sum()),
                    [rng.uniform(-2, 2, (3,)), rng.uniform(0.5, 2, (3,))])


class TestGradCheckHarness:
    def test_quadratic(self):
        p = Parameter(Tensor([3.0]), "theta")
        err = grad_check(lambda ps: (ps[0].tensor * ps[0].tensor).sum(),
                         [p], epsilon=1e-5, sample_count=5)
        assert err < 1e-8

    def test_constant_function(self):
        p = Parameter(Tensor([1.0, 2.0]), "theta")
        err = grad_check(lambda ps: ps[0].tensor.sum().scale(0.0),
                         [p], epsilon=1e-5, sample_count=5)
        assert err == 0.0

    def test_nan_error_is_reported(self):
        # log(-1) is NaN, so every finite difference is NaN
        p = Parameter(Tensor([-1.0]), "theta")
        with np.errstate(invalid="ignore"):
            err = grad_check(lambda ps: log(ps[0].tensor).sum(), [p], sample_count=3)
        assert np.isnan(err)

    def test_epsilon_validation(self):
        p = Parameter(Tensor([1.0]), "theta")
        with pytest.raises(ValueError):
            grad_check(lambda ps: ps[0].tensor.sum(), [p], epsilon=0.5)
        with pytest.raises(ValueError):
            grad_check(lambda ps: ps[0].tensor.sum(), [p], sample_count=0)

    def test_grads_cleared_between_uses(self):
        p = Parameter(Tensor([2.0]), "theta")
        grad_check(lambda ps: (ps[0].tensor * ps[0].tensor).sum(), [p])
        assert p.tensor.grad is None
        clear_grads([p])


class TestPublicSurface:
    def test_no_sugar_for_kinds_no_model_runs(self):
        # no model runs these kinds, so neither the engine nor Tensor wraps
        # them; they stay registered only because perfbench counts the calls
        # of every one of them (ROADMAP item 2)
        for name in ("sigmoid", "tanh", "exp", "div", "concat"):
            assert not hasattr(textcaps.tensor, name), name
            assert name in _PRIMITIVES
        for name in ("transpose", "slice"):
            assert not hasattr(Tensor, name), name
            assert name in _PRIMITIVES
        # the capsule layers call the engine's squash
        assert not hasattr(textcaps.capsule, "squash")
