"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

All values are float64 numpy arrays in row-major order. Gradients flow only
to parameters and to what is computed from them: a :class:`Parameter`'s tensor
needs a gradient, and a primitive's output needs one when any of its operands
does. Each primitive is a shape check plus one function that returns its
output and its pullback, the closure mapping an output gradient to operand
gradients (the vector-Jacobian product). A forward pass executed under an
active :class:`Tape` records one node, holding that pullback, per primitive
application that has such an operand; work on constants alone (input blocks,
labels) is never recorded. :func:`backward` replays the tape in reverse,
calls each node's pullback, accumulates gradients by summation wherever a
tensor fans out into several consumers, and writes ``grad`` on parameter
tensors only.

Broadcasting is deliberately narrow: ``add``/``sub``/``mul``/``div`` take
operands of equal rank whose extents are pairwise equal or 1, ``matmul``
broadcasts its leading batch axes (numpy semantics) and ``scale`` takes a
scalar. Ranks are never aligned implicitly, which keeps shape bugs loud in a
from-scratch engine. Values are always C-contiguous, so ``reshape`` and an
axis-0 ``slice`` are views while ``transpose`` copies.

Besides the elementwise, reduction and shape primitives there are fused ones
with hand-written pullbacks: ``gru_scan`` and ``lstm_scan`` run every
direction of a recurrent encoder, stacked along a direction axis D, in one
time loop and as one tape node (backpropagation through time),
``squash`` is the capsule non-linearity, and ``routing`` is the whole
iterated dynamic routing of a capsule head.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class TensorError(Exception):
    """Base class for tensor-engine failures."""


class ShapeMismatchError(TensorError):
    """Operand shapes do not satisfy a primitive's shape rule."""


class UnknownPrimitiveError(TensorError):
    """apply_primitive was handed a kind outside the primitive set."""


class NonScalarLossError(TensorError):
    """backward() requires a loss tensor with exactly one element."""


class EmptyTapeError(TensorError):
    """backward() was called on a tape that recorded nothing, because nothing
    computed under it depends on a Parameter."""


class Tensor:
    """An n-dimensional float64 array, optionally part of a tape.

    ``values`` is treated as immutable once the tensor participates in a
    forward pass; the optimizer mutates Parameter values in place only
    between passes.
    """

    __slots__ = ("values", "grad", "node_id", "needs_grad")

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.values: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.node_id: Optional[int] = None
        # True for a Parameter's tensor and for recorded outputs computed from one
        self.needs_grad = False

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape})"

    # Sugar over apply_primitive; tensor-only operands, no implicit casts.
    def __add__(self, other: "Tensor") -> "Tensor":
        return apply_primitive("add", [self, other])

    def __sub__(self, other: "Tensor") -> "Tensor":
        return apply_primitive("sub", [self, other])

    def __mul__(self, other: "Tensor") -> "Tensor":
        return apply_primitive("mul", [self, other])

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return apply_primitive("matmul", [self, other])

    def scale(self, factor: float) -> "Tensor":
        return apply_primitive("scale", [self], factor=float(factor))

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return apply_primitive("reshape", [self], shape=tuple(shape))

    def transpose(self, perm: Sequence[int]) -> "Tensor":
        return apply_primitive("transpose", [self], perm=tuple(perm))

    def slice(self, axis: int, start: int, stop: int) -> "Tensor":
        return apply_primitive("slice", [self], axis=axis, start=start, stop=stop)

    def sum(self, axis: Optional[int] = None) -> "Tensor":
        return apply_primitive("sum", [self], axis=axis)


class Parameter:
    """A named tensor that receives gradients. Names are unique per model."""

    __slots__ = ("tensor", "name")

    def __init__(self, tensor: Tensor, name: str) -> None:
        tensor.needs_grad = True
        self.tensor = tensor
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class _Node:
    __slots__ = ("kind", "out", "inputs", "backward_fn")

    def __init__(self, kind: str, out: Tensor, inputs: Sequence[Tensor],
                 backward_fn: Callable) -> None:
        self.kind = kind
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


_TAPES: list = []  # entered tapes, innermost last


def active_tape() -> Optional["Tape"]:
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Records primitive applications in execution (topological) order."""

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()

    def _record(self, kind: str, out: Tensor, inputs: Sequence[Tensor],
                backward_fn: Callable) -> None:
        out.node_id = len(self.nodes)
        self.nodes.append(_Node(kind, out, inputs, backward_fn))


def _shape_error(kind: str, message: str, *shapes) -> ShapeMismatchError:
    detail = " vs ".join(str(tuple(s)) for s in shapes)
    return ShapeMismatchError(f"{kind}: {message} ({detail})" if shapes else f"{kind}: {message}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down over the axes its operand was broadcast along."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """0.5 * (1 + tanh(x / 2)): one tanh, no overflow and no masks.

    Written into ``out`` when given, so a fused scan can fill a saved buffer.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


# ---------------------------------------------------------------------------
# Primitive definitions. Each entry: (count, check, fn). count is a tuple of
# the operand counts the primitive accepts, each written as a tuple of group
# sizes that sum to it, so that a message can show the groups (a scan takes
# its input plus 3 weights per gate for each of its 1 or 2 directions), or
# None for one or more; apply_primitive checks it first. check(arrays, kw),
# or None, raises on operands the primitive does not accept. fn(arrays, kw, needs)
# returns the output array and its pullback, a callable g_out -> per-operand
# gradient contributions (ndarray, or None). ``needs`` holds one bool per operand
# telling whether it needs a gradient: a pullback may skip the work for an
# operand that needs none, and backward drops whatever it returns for one.
# The forward does forward work only; anything only the backward reads is
# formed inside the pullback, so a tape-free pass never pays for it.
# ---------------------------------------------------------------------------


def _check_broadcast(kind):
    def check(arrays, kw):
        a, b = arrays[0].shape, arrays[1].shape
        if len(a) != len(b) or any(x != y and x != 1 and y != 1 for x, y in zip(a, b)):
            raise _shape_error(kind, "operands need equal rank and extents equal or 1", a, b)
    return check


def _prim_add(arrays, kw, needs):
    a, b = arrays
    return a + b, lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))


def _prim_sub(arrays, kw, needs):
    a, b = arrays
    return a - b, lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))


def _prim_mul(arrays, kw, needs):
    a, b = arrays
    return a * b, lambda g: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))


def _prim_div(arrays, kw, needs):
    a, b = arrays
    return a / b, lambda g: (_unbroadcast(g / b, a.shape),
                             _unbroadcast(-g * a / (b * b), b.shape))


def _check_matmul(arrays, kw):
    a, b = arrays
    if a.ndim < 2 or b.ndim < 2:
        raise _shape_error("matmul", "operands must have rank >= 2", a.shape, b.shape)
    if a.shape[-1] != b.shape[-2]:
        raise _shape_error("matmul", "inner extents differ", a.shape, b.shape)
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise _shape_error("matmul", "batch extents do not broadcast", a.shape, b.shape)


def _prim_matmul(arrays, kw, needs):
    a, b = arrays
    need_a, need_b = needs

    def pullback(g):
        if a.ndim == 2 and b.ndim > 2:
            # weight @ batch: the batch axes fold into the columns of one 2-D
            # product, (m, P*n), for both gradients instead of P products each.
            # gb comes out axis-swapped; it is made C-contiguous so that the
            # consumer's elementwise backward runs in memory order.
            m, k = a.shape
            cols = np.moveaxis(g, -2, 0).reshape(m, -1)
            ga = cols @ np.moveaxis(b, -2, 0).reshape(k, -1).T if need_a else None
            if not need_b:
                return ga, None
            gb = (a.T @ cols).reshape((k,) + b.shape[:-2] + b.shape[-1:])
            return ga, np.ascontiguousarray(np.moveaxis(gb, 0, -2))
        if b.ndim == 2 and a.ndim > 2:
            # batch @ weight: the batch rows are rows of one 2-D product.
            rows = g.reshape(-1, g.shape[-1])
            return ((rows @ b.T).reshape(a.shape) if need_a else None,
                    a.reshape(-1, a.shape[-1]).T @ rows if need_b else None)
        return (_unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape) if need_a else None,
                _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape) if need_b else None)

    return np.matmul(a, b), pullback


def _check_scale(arrays, kw):
    if "factor" not in kw:
        raise _shape_error("scale", "missing 'factor' argument")


def _prim_scale(arrays, kw, needs):
    factor = kw["factor"]
    return arrays[0] * factor, lambda g: (g * factor,)


def _check_axis(kind):
    def check(arrays, kw):
        axis = kw.get("axis")
        if axis is None:
            raise _shape_error(kind, "missing 'axis' argument")
        if not (-arrays[0].ndim <= axis < arrays[0].ndim):
            raise _shape_error(kind, f"axis {axis} out of range", arrays[0].shape)
    return check


_check_concat_axis = _check_axis("concat")


def _check_concat(arrays, kw):
    _check_concat_axis(arrays, kw)
    first = arrays[0]
    axis = kw["axis"] % first.ndim
    for arr in arrays[1:]:
        if arr.ndim != first.ndim:
            raise _shape_error("concat", "rank mismatch", first.shape, arr.shape)
        for ax in range(first.ndim):
            if ax != axis and arr.shape[ax] != first.shape[ax]:
                raise _shape_error("concat", f"extent mismatch off axis {axis}",
                                   first.shape, arr.shape)


def _prim_concat(arrays, kw, needs):
    axis = kw["axis"]

    def pullback(g):
        return np.split(g, np.cumsum([arr.shape[axis] for arr in arrays[:-1]]), axis=axis)

    return np.concatenate(arrays, axis=axis), pullback


def _check_slice(arrays, kw):
    axis, start, stop = kw.get("axis"), kw.get("start"), kw.get("stop")
    arr = arrays[0]
    if axis is None or start is None or stop is None:
        raise _shape_error("slice", "requires axis/start/stop")
    if not (0 <= axis < arr.ndim):
        raise _shape_error("slice", f"axis {axis} out of range", arr.shape)
    if not (0 <= start < stop <= arr.shape[axis]):
        raise _shape_error("slice", f"range [{start}:{stop}] invalid for axis {axis}", arr.shape)


def _prim_slice(arrays, kw, needs):
    x = arrays[0]
    index = tuple(slice(kw["start"], kw["stop"]) if ax == kw["axis"] else slice(None)
                  for ax in range(x.ndim))

    def pullback(g):
        grad = np.zeros(x.shape)
        grad[index] = g
        return (grad,)

    return x[index], pullback


def _check_reshape(arrays, kw):
    shape = kw.get("shape")
    if shape is None:
        raise _shape_error("reshape", "missing 'shape' argument")
    if any(extent < 0 for extent in shape):
        raise _shape_error("reshape", "negative extent", arrays[0].shape, shape)
    if int(np.prod(shape, dtype=np.int64)) != arrays[0].size:
        raise _shape_error("reshape", "element count differs", arrays[0].shape, shape)


def _prim_reshape(arrays, kw, needs):
    x = arrays[0]
    return x.reshape(kw["shape"]), lambda g: (g.reshape(x.shape),)


def _check_transpose(arrays, kw):
    perm = kw.get("perm")
    if perm is None or sorted(perm) != list(range(arrays[0].ndim)):
        raise _shape_error("transpose", f"perm {perm} is not a permutation of axes",
                           arrays[0].shape)


def _prim_transpose(arrays, kw, needs):
    perm = kw["perm"]
    return np.transpose(arrays[0], perm), lambda g: (np.transpose(g, np.argsort(perm)),)


def _prim_sigmoid(arrays, kw, needs):
    y = _sigmoid(arrays[0])
    return y, lambda g: (g * y * (1.0 - y),)


def _prim_tanh(arrays, kw, needs):
    y = np.tanh(arrays[0])
    return y, lambda g: (g * (1.0 - y * y),)


def _prim_relu(arrays, kw, needs):
    x = arrays[0]
    # Subgradient at the kink is taken as 0.
    return np.maximum(x, 0.0), lambda g: (g * (x > 0.0),)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    return (g - np.sum(g * out, axis=axis, keepdims=True)) * out


def _prim_softmax(arrays, kw, needs):
    axis = kw["axis"]
    y = _softmax(arrays[0], axis)
    return y, lambda g: (_softmax_grad(g, y, axis),)


def _prim_l2norm(arrays, kw, needs):
    x = arrays[0]
    axis = kw["axis"]
    norm = np.sqrt(np.sum(x * x, axis=axis))

    def pullback(g):
        # Guarded at zero norm: the contribution of an all-zero row is zero,
        # matching the limit of every composition used here (e.g. squash).
        safe = np.maximum(norm, 1e-300)
        return (np.expand_dims(g / safe, axis) * x,)

    return norm, pullback


def _check_sum(arrays, kw):
    axis = kw.get("axis")
    if axis is not None and not (-arrays[0].ndim <= axis < arrays[0].ndim):
        raise _shape_error("sum", f"axis {axis} out of range", arrays[0].shape)


def _prim_sum(arrays, kw, needs):
    x = arrays[0]
    axis = kw.get("axis")

    def pullback(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape),)

    return np.sum(x, axis=axis), pullback


def _prim_exp(arrays, kw, needs):
    y = np.exp(arrays[0])
    return y, lambda g: (g * y,)


def _prim_log(arrays, kw, needs):
    x = arrays[0]
    return np.log(x), lambda g: (g / x,)


# Fused recurrent scans: every direction of an encoder in one loop over time.
# Operands: the (B, T, E) input, then for each of D = 1 or 2 directions,
# forward first, the per-gate input weights w_* (E, H), recurrent weights
# u_* (H, H) and biases b_* (1, H), each group in gate order. The forward
# stacks each direction's groups into one (., G*H) matrix (the cuDNN layout)
# and the directions along a leading axis D, so one batched product per step
# serves them all (Appleyard et al. 2016). Direction 0 reads the positions
# first to last and direction 1 last to first, each from a zero state. Per-step
# buffers are (T, D, B, .), contiguous per step; buffers that feed one product
# per direction are (D, T, B, .). The output is the (B, T, D*H) feature map in
# position order, direction d in columns d*H:(d+1)*H. The pullback is
# hand-written BPTT over the gate activations and states the forward kept, in
# the same stacked layout. It transposes the recurrent weights as views: a
# contiguous copy takes another BLAS path, whose summation order differs.

_GRU_GATES = ("z", "r", "n")
_LSTM_GATES = ("i", "f", "o", "g")
_SCAN_ORDER = (slice(None), slice(None, None, -1))  # each direction's position order


def _check_scan(kind, gates):
    n = len(gates)

    def check(arrays, kw):
        x, u0 = arrays[0], arrays[1 + n]
        if x.ndim != 3 or x.shape[1] < 1:
            raise _shape_error(kind, "input must be (B, T >= 1, E)", x.shape)
        if u0.ndim != 2:
            raise _shape_error(kind, f"u_{gates[0]} must be rank 2", u0.shape)
        e, h = x.shape[2], u0.shape[1]
        for d in range((len(arrays) - 1) // (3 * n)):
            for k, (piece, want) in enumerate((("w", (e, h)), ("u", (h, h)), ("b", (1, h)))):
                first = 1 + (3 * d + k) * n
                for gate, arr in zip(gates, arrays[first:first + n]):
                    if arr.shape != want:
                        raise _shape_error(kind, f"direction {d} {piece}_{gate} must be {want}",
                                           arr.shape)
    return check


def _scan_counts(n_gates):
    """A scan's operand counts: the input, then 3 weights per gate per direction."""
    return tuple((1,) + (3 * n_gates,) * dirs for dirs in (1, 2))


def _from_steps(steps: np.ndarray) -> np.ndarray:
    """(T, D, B, H) in each direction's scan order -> the (B, T, D*H) map in
    position order."""
    t, dirs, b, h = steps.shape
    out = np.empty((b, t, dirs * h))
    for d, order in zip(range(dirs), _SCAN_ORDER):
        out[:, :, d * h:(d + 1) * h] = np.swapaxes(steps[order, d], 0, 1)
    return out


def _to_steps(g: np.ndarray, dirs: int) -> np.ndarray:
    """The (B, T, D*H) map's gradient -> (T, D, B, H) in each direction's scan order."""
    b, t, width = g.shape
    h = width // dirs
    steps = np.empty((t, dirs, b, h))
    for d, order in zip(range(dirs), _SCAN_ORDER):
        steps[:, d] = np.swapaxes(g[:, order, d * h:(d + 1) * h], 0, 1)
    return steps


def _by_direction(steps: np.ndarray) -> np.ndarray:
    """(T, D, B, k) -> contiguous (D, T*B, k): one block of rows per direction."""
    t, dirs, b, k = steps.shape
    return np.ascontiguousarray(np.swapaxes(steps, 0, 1)).reshape(dirs, t * b, k)


def _scan_inputs(arrays, n_gates):
    """The (D, T, B, E) input in each direction's scan order, the stacked
    (D, ., G*H) w and u, and the (T, D, B, G*H) input projection."""
    n = n_gates
    dirs = (len(arrays) - 1) // (3 * n)
    w, u, bias = (np.stack([np.concatenate(arrays[1 + (3 * d + k) * n:1 + (3 * d + k + 1) * n],
                                           axis=1) for d in range(dirs)]) for k in range(3))
    b, t, e = arrays[0].shape
    positions = np.swapaxes(arrays[0], 0, 1)
    xs = np.empty((dirs, t, b, e))
    for d, order in zip(range(dirs), _SCAN_ORDER):
        xs[d] = positions[order]
    proj = (np.matmul(xs.reshape(dirs, t * b, e), w) + bias).reshape(dirs, t, b, -1)
    return xs, w, u, np.swapaxes(proj, 0, 1)


def _scan_grads(dproj, xs, w, du, n_gates, need_x):
    """dx (None unless ``need_x``; the sum over directions), then each
    direction's dw, du and db split per gate, from the (D, T, B, G*H)
    projection grads and the (D, ., G*H) du."""
    dirs, t, b, width = dproj.shape
    flat = dproj.reshape(dirs, t * b, width)
    dw = np.matmul(np.swapaxes(xs.reshape(dirs, t * b, -1), 1, 2), flat)
    db = flat.sum(axis=1, keepdims=True)
    dx = None
    if need_x:
        steps = np.matmul(flat, np.swapaxes(w, 1, 2)).reshape(dirs, t, b, -1)
        dx = np.ascontiguousarray(np.swapaxes(steps[0], 0, 1))
        if dirs == 2:
            dx += np.swapaxes(steps[1, ::-1], 0, 1)
    grads = [dx]
    for d in range(dirs):
        for piece in (dw, du, db):
            grads += np.split(piece[d], n_gates, axis=1)
    return grads


def _prim_gru_scan(arrays, kw, needs):
    # z, r = sigmoid(x W_zr + b_zr + h U_zr); n = tanh(x W_n + b_n + (r * h) U_n)
    # h' = z * h + (1 - z) * n, written n + z * (h - n)
    xs, w, u, proj = _scan_inputs(arrays, 3)
    t, dirs, b, _ = proj.shape
    h = u.shape[1]
    u_zr, u_n = u[..., :2 * h], u[..., 2 * h:]
    states = np.zeros((t + 1, dirs, b, h))  # states[s] is the state before step s
    zr = np.empty((t, dirs, b, 2 * h))
    n = np.empty((t, dirs, b, h))
    for s in range(t):
        prev = states[s]
        _sigmoid(proj[s, ..., :2 * h] + prev @ u_zr, out=zr[s])
        np.tanh(proj[s, ..., 2 * h:] + (zr[s, ..., h:] * prev) @ u_n, out=n[s])
        np.add(n[s], zr[s, ..., :h] * (prev - n[s]), out=states[s + 1])

    def pullback(g):
        g = _to_steps(g, dirs)
        u_zr_t, u_n_t = np.swapaxes(u_zr, 1, 2), np.swapaxes(u_n, 1, 2)
        dproj = np.empty((dirs, t, b, 3 * h))
        dsteps = np.swapaxes(dproj, 0, 1)
        carry = np.zeros((dirs, b, h))
        prev = states[:-1]
        z, r = zr[..., :h], zr[..., h:]
        # per-step Jacobian factors, formed for every step at once
        dn_dh = (1.0 - z) * (1.0 - n * n)        # dh -> d n_pre
        dz_dh = (prev - n) * z * (1.0 - z)       # dh -> d z_pre
        dr_drh = prev * r * (1.0 - r)            # d(r * h) -> d r_pre
        for s in range(t - 1, -1, -1):
            dh = g[s] + carry
            d = dsteps[s]
            np.multiply(dh, dn_dh[s], out=d[..., 2 * h:])
            drh = d[..., 2 * h:] @ u_n_t
            np.multiply(dh, dz_dh[s], out=d[..., :h])
            np.multiply(drh, dr_drh[s], out=d[..., h:2 * h])
            carry = dh * z[s] + drh * r[s] + d[..., :2 * h] @ u_zr_t
        flat = dproj.reshape(dirs, t * b, 3 * h)
        du = np.concatenate([
            np.matmul(np.swapaxes(_by_direction(prev), 1, 2), flat[..., :2 * h]),
            np.matmul(np.swapaxes(_by_direction(r * prev), 1, 2), flat[..., 2 * h:])], axis=2)
        return _scan_grads(dproj, xs, w, du, 3, needs[0])

    return _from_steps(states[1:]), pullback


def _prim_lstm_scan(arrays, kw, needs):
    # i, f, o = sigmoid(.), g = tanh(.) of x W + b + h U (one (H, 4H) product)
    # c' = f * c + i * g; h' = o * tanh(c')
    xs, w, u, proj = _scan_inputs(arrays, 4)
    t, dirs, b, _ = proj.shape
    h = u.shape[1]
    states = np.zeros((t + 1, dirs, b, h))
    cells = np.zeros((t + 1, dirs, b, h))
    gates = np.empty((t, dirs, b, 4 * h))
    for s in range(t):
        pre = proj[s] + states[s] @ u
        act = gates[s]
        _sigmoid(pre[..., :3 * h], out=act[..., :3 * h])
        np.tanh(pre[..., 3 * h:], out=act[..., 3 * h:])
        np.multiply(act[..., h:2 * h], cells[s], out=cells[s + 1])
        cells[s + 1] += act[..., :h] * act[..., 3 * h:]
        np.multiply(act[..., 2 * h:3 * h], np.tanh(cells[s + 1]), out=states[s + 1])

    def pullback(g):
        g = _to_steps(g, dirs)
        i, f, o, gg = (gates[..., k * h:(k + 1) * h] for k in range(4))
        tc = np.tanh(cells[1:])
        # per-step Jacobian factors, formed for every step at once
        dc_dh = o * (1.0 - tc * tc)              # dh -> dc
        do_dh = tc * o * (1.0 - o)               # dh -> d o_pre
        di_dc = gg * i * (1.0 - i)               # dc -> d i_pre
        df_dc = cells[:-1] * f * (1.0 - f)       # dc -> d f_pre
        dg_dc = i * (1.0 - gg * gg)              # dc -> d g_pre
        u_t = np.swapaxes(u, 1, 2)
        dproj = np.empty((dirs, t, b, 4 * h))
        dsteps = np.swapaxes(dproj, 0, 1)
        carry_h = np.zeros((dirs, b, h))
        carry_c = np.zeros((dirs, b, h))
        for s in range(t - 1, -1, -1):
            dh = g[s] + carry_h
            dc = dh * dc_dh[s] + carry_c
            d = dsteps[s]
            np.multiply(dc, di_dc[s], out=d[..., :h])
            np.multiply(dc, df_dc[s], out=d[..., h:2 * h])
            np.multiply(dh, do_dh[s], out=d[..., 2 * h:3 * h])
            np.multiply(dc, dg_dc[s], out=d[..., 3 * h:])
            carry_c = dc * f[s]
            carry_h = d @ u_t
        du = np.matmul(np.swapaxes(_by_direction(states[:-1]), 1, 2),
                       dproj.reshape(dirs, t * b, 4 * h))
        return _scan_grads(dproj, xs, w, du, 4, needs[0])

    return _from_steps(states[1:]), pullback


# Fused capsule primitives. ``squash`` rescales vectors along the last axis to
# x * |x| / (1 + |x|^2). ``routing`` runs dynamic routing by agreement (Sabour
# et al. 2017) from (B, n_cc, d) capsules u through an (n_cc, n_cls, d, d)
# transform W to (B, n_cls, d) class capsules, as one tape node: the forward
# performs the same numpy operations, in the same order, as the composed graph
# it replaces, and the pullback walks the iterations in reverse by hand.


def _squash_factor(x: np.ndarray) -> tuple:
    """|x| and |x| / (1 + |x|^2) along the last axis, both kept as size-1 axes."""
    norm = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    return norm, norm / (1.0 + norm * norm)


def _squash_grad(g: np.ndarray, x: np.ndarray, norm: np.ndarray,
                 factor: np.ndarray) -> np.ndarray:
    """d/dx of sum(g * x * f(|x|)) with f(n) = n / (1 + n^2), f'(n) = (1 - n^2) / (1 + n^2)^2.

    The radial term (g . x) f'(n) / n * x is guarded at zero norm: an all-zero
    row gets a zero radial term, as the guarded l2norm rule gives it.
    """
    n2 = norm * norm
    den = 1.0 + n2
    radial = np.sum(g * x, axis=-1, keepdims=True)
    radial *= (1.0 - n2) / (den * den * np.maximum(norm, 1e-300))
    grad = x * radial
    grad += g * factor
    return grad


def _check_squash(arrays, kw):
    if arrays[0].ndim < 1:
        raise _shape_error("squash", "operand must have rank >= 1", arrays[0].shape)


def _prim_squash(arrays, kw, needs):
    x = arrays[0]
    norm, factor = _squash_factor(x)
    return x * factor, lambda g: (_squash_grad(g, x, norm, factor),)


def _check_routing(arrays, kw):
    iterations = kw.get("iterations")
    if not isinstance(iterations, int) or iterations < 1:
        raise _shape_error("routing", f"iterations must be an int >= 1, got {iterations!r}")
    u, w = arrays
    if u.ndim != 3:
        raise _shape_error("routing", "capsules must be (B, n_cc, d)", u.shape)
    _, n_cc, d = u.shape
    if w.ndim != 4 or w.shape[0] != n_cc or w.shape[2:] != (d, d):
        raise _shape_error("routing", "transform must be (n_cc, n_cls, d, d)", u.shape, w.shape)


def _prim_routing(arrays, kw, needs):
    # u_hat[b, j, k] = W[j, k] @ u[b, j]; logits start at zero. Each iteration:
    # c = softmax(logits) over classes, s = sum_j c * u_hat, v = squash(s),
    # then, except after the last, logits += u_hat . v.
    u, w = arrays
    b, n_cc, d = u.shape
    n_cls = w.shape[1]
    iterations = kw["iterations"]
    w_t = np.ascontiguousarray(np.transpose(w, (0, 1, 3, 2)))
    u_hat = np.matmul(u.reshape(b, n_cc, 1, 1, d), w_t).reshape(b, n_cc, n_cls, d)
    logits = np.zeros((b, n_cc, n_cls))
    couplings, steps = [], []
    for r in range(iterations):
        c = _softmax(logits, -1)
        s = (c.reshape(b, n_cc, n_cls, 1) * u_hat).sum(axis=1)
        norm, factor = _squash_factor(s)
        v = s * factor
        couplings.append(c)
        steps.append((s, norm, factor, v))
        if r < iterations - 1:
            logits = logits + (u_hat * v.reshape(b, 1, n_cls, d)).sum(axis=-1)
    sink = kw.get("diagnostics")
    if sink is not None:
        sink[:] = [logits, couplings]

    def pullback(g):
        du_hat = np.zeros_like(u_hat)
        scratch = np.empty_like(u_hat)
        gv, dlogits = g, None    # dlogits: gradient of the next iteration's logits
        for c, (s, norm, factor, v) in zip(reversed(couplings), reversed(steps)):
            if dlogits is not None:
                # this iteration's agreement u_hat . v was added to those logits
                np.multiply(u_hat, dlogits[..., None], out=scratch)
                gv = scratch.sum(axis=1)
                np.multiply(dlogits[..., None], v.reshape(b, 1, n_cls, d), out=scratch)
                du_hat += scratch
            gs = _squash_grad(gv, s, norm, factor)
            np.multiply(u_hat, gs.reshape(b, 1, n_cls, d), out=scratch)
            dc = scratch.sum(axis=-1)
            np.multiply(c[..., None], gs.reshape(b, 1, n_cls, d), out=scratch)
            du_hat += scratch
            dl = _softmax_grad(dc, c, -1)
            dlogits = dl if dlogits is None else dlogits + dl
        del scratch  # lowers the peak while the products below allocate
        # per condensed capsule j, u_hat[:, j] = u[:, j] @ W[j]^T with
        # W[j] as (n_cls*d, d): n_cc products of (B, d) by (d, n_cls*d)
        rows = du_hat.reshape(b, n_cc, n_cls * d).transpose(1, 0, 2)
        du = np.matmul(rows, w.reshape(n_cc, n_cls * d, d)).transpose(1, 0, 2)
        dw = np.matmul(rows.transpose(0, 2, 1), u.transpose(1, 0, 2))
        return du, dw.reshape(w.shape)

    return v, pullback


_ONE, _TWO = ((1,),), ((2,),)

_PRIMITIVES: dict = {
    "matmul": (_TWO, _check_matmul, _prim_matmul),
    "add": (_TWO, _check_broadcast("add"), _prim_add),
    "sub": (_TWO, _check_broadcast("sub"), _prim_sub),
    "mul": (_TWO, _check_broadcast("mul"), _prim_mul),
    "div": (_TWO, _check_broadcast("div"), _prim_div),
    "scale": (_ONE, _check_scale, _prim_scale),
    "concat": (None, _check_concat, _prim_concat),
    "slice": (_ONE, _check_slice, _prim_slice),
    "reshape": (_ONE, _check_reshape, _prim_reshape),
    "transpose": (_ONE, _check_transpose, _prim_transpose),
    "sigmoid": (_ONE, None, _prim_sigmoid),
    "tanh": (_ONE, None, _prim_tanh),
    "relu": (_ONE, None, _prim_relu),
    "softmax": (_ONE, _check_axis("softmax"), _prim_softmax),
    "l2norm": (_ONE, _check_axis("l2norm"), _prim_l2norm),
    "sum": (_ONE, _check_sum, _prim_sum),
    "exp": (_ONE, None, _prim_exp),
    "log": (_ONE, None, _prim_log),
    "gru_scan": (_scan_counts(len(_GRU_GATES)), _check_scan("gru_scan", _GRU_GATES),
                 _prim_gru_scan),
    "lstm_scan": (_scan_counts(len(_LSTM_GATES)), _check_scan("lstm_scan", _LSTM_GATES),
                  _prim_lstm_scan),
    "squash": (_ONE, _check_squash, _prim_squash),
    "routing": (_TWO, _check_routing, _prim_routing),
}


def apply_primitive(kind: str, operands: Sequence[Tensor], **kw) -> Tensor:
    """Apply a primitive to operand tensors.

    The application is recorded on the active tape, with the pullback its
    forward returned, and its output needs a gradient, when some operand
    needs one; otherwise nothing is recorded. Raises
    :class:`UnknownPrimitiveError` for kinds outside the primitive set and
    :class:`ShapeMismatchError` when operand shapes violate the primitive's
    shape rule.
    """
    entry = _PRIMITIVES.get(kind)
    if entry is None:
        raise UnknownPrimitiveError(
            f"unknown primitive {kind!r}; known: {sorted(_PRIMITIVES)}")
    count, check, fn = entry
    arrays = [t.values for t in operands]
    if (not arrays) if count is None else all(len(arrays) != sum(c) for c in count):
        want = ("one or more" if count is None
                else " or ".join(" + ".join(map(str, c)) for c in count))
        raise _shape_error(kind, f"expects {want} operand{'' if want == '1' else 's'}, "
                                 f"got {len(arrays)}")
    if check is not None:
        check(arrays, kw)
    needs = tuple(t.needs_grad for t in operands)
    result, pullback = fn(arrays, kw, needs)
    out = Tensor(result)
    tape = active_tape()
    if tape is not None and any(needs):
        out.needs_grad = True
        tape._record(kind, out, tuple(operands), pullback)
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every Parameter tensor that ``loss`` depends on.

    Gradients of tensors consumed by several nodes are accumulated by
    summation. Grads already present on parameters (e.g. from an earlier
    backward call before an optimizer step) are added to, not replaced.
    Raises :class:`EmptyTapeError` when the tape recorded nothing, which is
    also the case when nothing computed under it depends on a Parameter.
    """
    if loss.values.size != 1:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.values.shape}")
    if not tape.nodes:
        raise EmptyTapeError("tape recorded no nodes: nothing computed under it "
                             "depends on a Parameter")

    # Gradients of recorded outputs, keyed by id; sums are formed out of place,
    # because a rule may hand the same array to several operands.
    grads: dict = {id(loss): np.ones_like(loss.values)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        for tensor, contribution in zip(node.inputs, node.backward_fn(g)):
            if not tensor.needs_grad:
                continue
            if tensor.node_id is not None:
                key = id(tensor)
                grads[key] = grads[key] + contribution if key in grads else contribution
            elif tensor.grad is None:
                tensor.grad = np.array(contribution, order="C")
            else:
                tensor.grad = tensor.grad + contribution


def clear_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.tensor.grad = None


def grad_check(
    model_fn: Callable[[Sequence[Parameter]], Tensor],
    params: Sequence[Parameter],
    epsilon: float = 1e-5,
    sample_count: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Compare tape gradients against central finite differences.

    ``model_fn(params)`` must return a scalar Tensor computed from the
    current parameter values. For ``sample_count`` randomly chosen scalar
    parameter entries the relative error

        |g_tape - g_fd| / max(|g_tape|, |g_fd|, 1e-12)

    is evaluated with g_fd = (f(t+eps) - f(t-eps)) / (2 eps); the maximum
    over samples is returned.
    """
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError(f"epsilon must be in (0, 1e-2], got {epsilon}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    if rng is None:
        rng = np.random.default_rng(0)

    clear_grads(params)
    with Tape() as tape:
        loss = model_fn(params)
    backward(loss, tape)
    tape_grads = {
        p.name: (p.tensor.grad.copy() if p.tensor.grad is not None
                 else np.zeros_like(p.tensor.values))
        for p in params
    }
    clear_grads(params)

    candidates = [p for p in params if p.tensor.values.size > 0]
    if not candidates:
        return 0.0

    max_rel = 0.0
    for _ in range(sample_count):
        p = candidates[int(rng.integers(len(candidates)))]
        idx = int(rng.integers(p.tensor.values.size))
        flat = p.tensor.values.reshape(-1)
        original = flat[idx]
        flat[idx] = original + epsilon
        f_plus = model_fn(params).item()
        flat[idx] = original - epsilon
        f_minus = model_fn(params).item()
        flat[idx] = original
        g_fd = (f_plus - f_minus) / (2.0 * epsilon)
        g_tape = tape_grads[p.name].reshape(-1)[idx]
        rel = abs(g_tape - g_fd) / max(abs(g_tape), abs(g_fd), 1e-12)
        if not rel <= max_rel:  # a NaN error sticks, so it fails every tolerance
            max_rel = rel
    return max_rel


# Functional wrappers used throughout the model code.

def sigmoid(t: Tensor) -> Tensor:
    return apply_primitive("sigmoid", [t])


def tanh(t: Tensor) -> Tensor:
    return apply_primitive("tanh", [t])


def relu(t: Tensor) -> Tensor:
    return apply_primitive("relu", [t])


def softmax(t: Tensor, axis: int) -> Tensor:
    return apply_primitive("softmax", [t], axis=axis)


def l2_norm(t: Tensor, axis: int) -> Tensor:
    return apply_primitive("l2norm", [t], axis=axis)


def exp(t: Tensor) -> Tensor:
    return apply_primitive("exp", [t])


def log(t: Tensor) -> Tensor:
    return apply_primitive("log", [t])


def div(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("div", [a, b])


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    return apply_primitive("concat", list(tensors), axis=axis)


def gru_scan(x: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """Every GRU direction in one scan: (B, T, E) -> (B, T, D*H). ``weights``
    are, for each direction, forward first, w_z, w_r, w_n, u_z, u_r, u_n,
    b_z, b_r, b_n; a second direction runs from the last position."""
    return apply_primitive("gru_scan", [x, *weights])


def lstm_scan(x: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """Every LSTM direction in one scan: (B, T, E) -> (B, T, D*H). ``weights``
    are, for each direction, forward first, w_*, then u_*, then b_*, each in
    i, f, o, g order; a second direction runs from the last position."""
    return apply_primitive("lstm_scan", [x, *weights])


def squash(t: Tensor) -> Tensor:
    """x * |x| / (1 + |x|^2) along the last axis; the zero vector maps to zero."""
    return apply_primitive("squash", [t])


def routing(u: Tensor, w: Tensor, iterations: int) -> tuple:
    """Dynamic routing of (B, n_cc, d) capsules through an (n_cc, n_cls, d, d) transform.

    Returns the (B, n_cls, d) class capsules, then the final (B, n_cc, n_cls)
    logits and the list of per-iteration couplings as plain arrays: they are
    diagnostics, not differentiated.
    """
    diagnostics: list = []
    v = apply_primitive("routing", [u, w], iterations=iterations, diagnostics=diagnostics)
    logits, couplings = diagnostics
    return v, logits, couplings
