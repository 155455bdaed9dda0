"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

All values are float64 numpy arrays in row-major order. A forward pass
executed under an active :class:`Tape` records one node per primitive
application; :func:`backward` replays the tape in reverse and accumulates
gradients by summation wherever a tensor fans out into several consumers.

Broadcasting is deliberately narrow: ``add``/``sub``/``mul``/``div`` take
operands of equal rank whose extents are pairwise equal or 1, ``matmul``
broadcasts its leading batch axes (numpy semantics) and ``scale`` takes a
scalar. Ranks are never aligned implicitly, which keeps shape bugs loud in a
from-scratch engine. Values are always C-contiguous, so ``reshape`` and an
axis-0 ``slice`` are views while ``transpose`` copies.
"""

from __future__ import annotations

import threading
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
    """backward() was called on a tape that recorded nothing."""


class Tensor:
    """An n-dimensional float64 array, optionally part of a tape.

    ``values`` is treated as immutable once the tensor participates in a
    forward pass; the optimizer mutates Parameter values in place only
    between passes.
    """

    __slots__ = ("values", "grad", "node_id")

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.values: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.node_id: Optional[int] = None

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
    """A named, optionally trainable tensor. Names are unique per model."""

    __slots__ = ("tensor", "name", "trainable")

    def __init__(self, tensor: Tensor, name: str, trainable: bool = True) -> None:
        self.tensor = tensor
        self.name = name
        self.trainable = trainable

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> None:
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class _SliceGrad:
    """Gradient contribution touching only one region of the input array.

    Avoids materializing a full zeros array per slice node; accumulation
    adds the payload into the target region in place.
    """

    __slots__ = ("index", "grad")

    def __init__(self, index, grad: np.ndarray) -> None:
        self.index = index
        self.grad = grad


_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "tapes", None)
    if stack is None:
        stack = []
        _LOCAL.tapes = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Records primitive applications in execution (topological) order."""

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack().pop()

    def _record(self, out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> None:
        out.node_id = len(self.nodes)
        self.nodes.append(_Node(out, inputs, backward_fn))


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


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Primitive definitions. Each entry: (check, forward, make_backward).
# forward returns the output array; make_backward returns a callable
# g_out -> per-operand gradient contributions (ndarray, _SliceGrad, or None).
# ---------------------------------------------------------------------------


def _check_broadcast(kind):
    def check(arrays, kw):
        a, b = arrays[0].shape, arrays[1].shape
        if len(a) != len(b) or any(x != y and x != 1 and y != 1 for x, y in zip(a, b)):
            raise _shape_error(kind, "operands need equal rank and extents equal or 1", a, b)
    return check


def _op_add(arrays, kw):
    return arrays[0] + arrays[1]


def _bw_add(arrays, out, kw):
    a, b = arrays
    return lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))


def _op_sub(arrays, kw):
    return arrays[0] - arrays[1]


def _bw_sub(arrays, out, kw):
    a, b = arrays
    return lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))


def _op_mul(arrays, kw):
    return arrays[0] * arrays[1]


def _bw_mul(arrays, out, kw):
    a, b = arrays
    return lambda g: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))


def _op_div(arrays, kw):
    return arrays[0] / arrays[1]


def _bw_div(arrays, out, kw):
    a, b = arrays
    return lambda g: (_unbroadcast(g / b, a.shape), _unbroadcast(-g * a / (b * b), b.shape))


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


def _op_matmul(arrays, kw):
    return np.matmul(arrays[0], arrays[1])


def _bw_matmul(arrays, out, kw):
    a, b = arrays

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape)
        return ga, gb

    return backward


def _check_scale(arrays, kw):
    if "factor" not in kw:
        raise _shape_error("scale", "missing 'factor' argument")


def _op_scale(arrays, kw):
    return arrays[0] * kw["factor"]


def _bw_scale(arrays, out, kw):
    factor = kw["factor"]
    return lambda g: (g * factor,)


def _check_concat(arrays, kw):
    axis = kw.get("axis")
    if axis is None:
        raise _shape_error("concat", "missing 'axis' argument")
    first = arrays[0]
    for arr in arrays[1:]:
        if arr.ndim != first.ndim:
            raise _shape_error("concat", "rank mismatch", first.shape, arr.shape)
        for ax in range(first.ndim):
            if ax != axis and arr.shape[ax] != first.shape[ax]:
                raise _shape_error("concat", f"extent mismatch off axis {axis}",
                                   first.shape, arr.shape)


def _op_concat(arrays, kw):
    return np.concatenate(arrays, axis=kw["axis"])


def _bw_concat(arrays, out, kw):
    axis = kw["axis"]
    ndim = arrays[0].ndim
    sizes = [arr.shape[axis] for arr in arrays]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    indices = [
        tuple(slice(offsets[i], offsets[i + 1]) if ax == axis else slice(None)
              for ax in range(ndim))
        for i in range(len(sizes))
    ]

    def backward(g):
        return tuple(g[idx] for idx in indices)

    return backward


def _check_slice(arrays, kw):
    axis, start, stop = kw.get("axis"), kw.get("start"), kw.get("stop")
    arr = arrays[0]
    if axis is None or start is None or stop is None:
        raise _shape_error("slice", "requires axis/start/stop")
    if not (0 <= axis < arr.ndim):
        raise _shape_error("slice", f"axis {axis} out of range", arr.shape)
    if not (0 <= start < stop <= arr.shape[axis]):
        raise _shape_error("slice", f"range [{start}:{stop}] invalid for axis {axis}", arr.shape)


def _op_slice(arrays, kw):
    index = tuple(
        slice(kw["start"], kw["stop"]) if ax == kw["axis"] else slice(None)
        for ax in range(arrays[0].ndim)
    )
    return arrays[0][index]


def _bw_slice(arrays, out, kw):
    index = tuple(
        slice(kw["start"], kw["stop"]) if ax == kw["axis"] else slice(None)
        for ax in range(arrays[0].ndim)
    )
    return lambda g: (_SliceGrad(index, g),)


def _check_reshape(arrays, kw):
    shape = kw.get("shape")
    if shape is None:
        raise _shape_error("reshape", "missing 'shape' argument")
    if int(np.prod(shape, dtype=np.int64)) != arrays[0].size:
        raise _shape_error("reshape", "element count differs", arrays[0].shape, shape)


def _op_reshape(arrays, kw):
    return arrays[0].reshape(kw["shape"])


def _bw_reshape(arrays, out, kw):
    in_shape = arrays[0].shape
    return lambda g: (g.reshape(in_shape),)


def _check_transpose(arrays, kw):
    perm = kw.get("perm")
    if perm is None or sorted(perm) != list(range(arrays[0].ndim)):
        raise _shape_error("transpose", f"perm {perm} is not a permutation of axes",
                           arrays[0].shape)


def _op_transpose(arrays, kw):
    return np.transpose(arrays[0], kw["perm"])


def _bw_transpose(arrays, out, kw):
    perm = kw["perm"]
    inverse = np.argsort(perm)
    return lambda g: (np.transpose(g, inverse),)


def _op_sigmoid(arrays, kw):
    return _stable_sigmoid(arrays[0])


def _bw_sigmoid(arrays, out, kw):
    return lambda g: (g * out * (1.0 - out),)


def _op_tanh(arrays, kw):
    return np.tanh(arrays[0])


def _bw_tanh(arrays, out, kw):
    return lambda g: (g * (1.0 - out * out),)


def _op_relu(arrays, kw):
    return np.maximum(arrays[0], 0.0)


def _bw_relu(arrays, out, kw):
    # Subgradient at the kink is taken as 0.
    mask = arrays[0] > 0.0
    return lambda g: (g * mask,)


def _check_axis(kind):
    def check(arrays, kw):
        axis = kw.get("axis")
        if axis is None:
            raise _shape_error(kind, "missing 'axis' argument")
        if not (-arrays[0].ndim <= axis < arrays[0].ndim):
            raise _shape_error(kind, f"axis {axis} out of range", arrays[0].shape)
    return check


def _op_softmax(arrays, kw):
    x = arrays[0]
    axis = kw["axis"]
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _bw_softmax(arrays, out, kw):
    axis = kw["axis"]

    def backward(g):
        inner = np.sum(g * out, axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return backward


def _op_l2norm(arrays, kw):
    x = arrays[0]
    return np.sqrt(np.sum(x * x, axis=kw["axis"]))


def _bw_l2norm(arrays, out, kw):
    x = arrays[0]
    axis = kw["axis"]

    def backward(g):
        # Guarded at zero norm: the contribution of an all-zero row is zero,
        # matching the limit of every composition used here (e.g. squash).
        safe = np.maximum(out, 1e-300)
        return (np.expand_dims(g / safe, axis) * x,)

    return backward


def _check_sum(arrays, kw):
    axis = kw.get("axis")
    if axis is not None and not (-arrays[0].ndim <= axis < arrays[0].ndim):
        raise _shape_error("sum", f"axis {axis} out of range", arrays[0].shape)


def _op_sum(arrays, kw):
    return np.sum(arrays[0], axis=kw.get("axis"))


def _bw_sum(arrays, out, kw):
    shape = arrays[0].shape
    axis = kw.get("axis")

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return backward


def _op_exp(arrays, kw):
    return np.exp(arrays[0])


def _bw_exp(arrays, out, kw):
    return lambda g: (g * out,)


def _op_log(arrays, kw):
    return np.log(arrays[0])


def _bw_log(arrays, out, kw):
    x = arrays[0]
    return lambda g: (g / x,)


def _check_unary(kind):
    def check(arrays, kw):
        if len(arrays) != 1:
            raise _shape_error(kind, f"expects 1 operand, got {len(arrays)}")
    return check


_PRIMITIVES: dict = {
    "matmul": (_check_matmul, _op_matmul, _bw_matmul),
    "add": (_check_broadcast("add"), _op_add, _bw_add),
    "sub": (_check_broadcast("sub"), _op_sub, _bw_sub),
    "mul": (_check_broadcast("mul"), _op_mul, _bw_mul),
    "div": (_check_broadcast("div"), _op_div, _bw_div),
    "scale": (_check_scale, _op_scale, _bw_scale),
    "concat": (_check_concat, _op_concat, _bw_concat),
    "slice": (_check_slice, _op_slice, _bw_slice),
    "reshape": (_check_reshape, _op_reshape, _bw_reshape),
    "transpose": (_check_transpose, _op_transpose, _bw_transpose),
    "sigmoid": (_check_unary("sigmoid"), _op_sigmoid, _bw_sigmoid),
    "tanh": (_check_unary("tanh"), _op_tanh, _bw_tanh),
    "relu": (_check_unary("relu"), _op_relu, _bw_relu),
    "softmax": (_check_axis("softmax"), _op_softmax, _bw_softmax),
    "l2norm": (_check_axis("l2norm"), _op_l2norm, _bw_l2norm),
    "sum": (_check_sum, _op_sum, _bw_sum),
    "exp": (_check_unary("exp"), _op_exp, _bw_exp),
    "log": (_check_unary("log"), _op_log, _bw_log),
}


def apply_primitive(kind: str, operands: Sequence[Tensor], **kw) -> Tensor:
    """Apply a primitive to operand tensors, recording it on the active tape.

    Raises :class:`UnknownPrimitiveError` for kinds outside the primitive
    set and :class:`ShapeMismatchError` when operand shapes violate the
    primitive's shape rule.
    """
    entry = _PRIMITIVES.get(kind)
    if entry is None:
        raise UnknownPrimitiveError(
            f"unknown primitive {kind!r}; known: {sorted(_PRIMITIVES)}")
    check, forward, make_backward = entry
    arrays = [t.values for t in operands]
    check(arrays, kw)
    out = Tensor(forward(arrays, kw))
    tape = active_tape()
    if tape is not None:
        tape._record(out, tuple(operands), make_backward(arrays, out.values, kw))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every leaf tensor reachable from ``loss``.

    Gradients of tensors consumed by several nodes are accumulated by
    summation. Grads already present on leaves (e.g. from an earlier
    backward call before an optimizer step) are added to, not replaced.
    """
    if loss.values.size != 1:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.values.shape}")
    if not tape.nodes:
        raise EmptyTapeError("tape recorded no nodes")

    produced = {id(node.out) for node in tape.nodes}
    # id -> [array, owned_flag]; owned means we may mutate it in place.
    grads: dict = {id(loss): [np.ones_like(loss.values), True]}

    def accumulate(tensor: Tensor, contribution) -> None:
        key = id(tensor)
        slot = grads.get(key)
        if isinstance(contribution, _SliceGrad):
            if slot is None:
                buf = np.zeros(tensor.values.shape)
                grads[key] = [buf, True]
            elif not slot[1]:
                buf = np.array(slot[0])
                slot[0], slot[1] = buf, True
            else:
                buf = slot[0]
            buf[contribution.index] += contribution.grad
        elif slot is None:
            grads[key] = [contribution, False]
        elif slot[1]:
            slot[0] += contribution
        else:
            slot[0] = slot[0] + contribution
            slot[1] = True

    for node in reversed(tape.nodes):
        slot = grads.get(id(node.out))
        if slot is None:
            continue
        for tensor, contribution in zip(node.inputs, node.backward_fn(slot[0])):
            if contribution is not None:
                accumulate(tensor, contribution)

    seen: dict = {}
    for node in tape.nodes:
        for tensor in node.inputs:
            seen.setdefault(id(tensor), tensor)
    seen.setdefault(id(loss), loss)
    for key, tensor in seen.items():
        if key in produced and tensor is not loss:
            continue
        slot = grads.get(key)
        if slot is None:
            continue
        value = np.ascontiguousarray(slot[0])
        if tensor.grad is None:
            tensor.grad = value.copy() if not slot[1] else value
        else:
            tensor.grad = tensor.grad + value


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

    candidates = [p for p in params if p.trainable and p.tensor.values.size > 0]
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
        max_rel = max(max_rel, rel)
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


def constant(values) -> Tensor:
    return Tensor(values)
