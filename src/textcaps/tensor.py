"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

All values are float64 numpy arrays in row-major order. Gradients flow only
to parameters and to what is computed from them: a :class:`Parameter`, the
tensor subclass that a model's weights are, needs a gradient, and a
primitive's output needs one when any of its operands does. Each primitive
is a shape check plus one function that returns its output and its
pullback, the closure mapping an output gradient to operand gradients (the
vector-Jacobian product). A forward pass executed under an active
:class:`Tape` records one node, holding that pullback, per primitive
application that has such an operand; work on constants alone (input
blocks, labels) is never recorded. :func:`backward` replays the tape once,
in reverse, calls each node's pullback and then drops it, accumulates
gradients by summation wherever a tensor fans out into several consumers,
and writes ``grad`` on parameters only.

Broadcasting is deliberately narrow: ``add``/``sub``/``mul``/``div`` take
operands of equal rank whose extents are pairwise equal or 1, ``matmul``
broadcasts its leading batch axes (numpy semantics) and ``scale`` takes a
scalar. Ranks are never aligned implicitly, which keeps shape bugs loud in a
from-scratch engine. Values are always C-contiguous, so ``reshape`` and an
axis-0 ``slice`` are views while ``transpose`` copies. No model runs the
registered kinds ``sigmoid``, ``tanh``, ``exp``, ``div``, ``concat``,
``transpose`` and ``slice``; they are called through :func:`apply_primitive`.

Besides the elementwise, reduction and shape primitives there are fused ones
with hand-written pullbacks: ``conv1d`` is a CNN encoder's whole bank of
valid convolutions with their biases and ReLU, ``gru_scan`` and ``lstm_scan``
run every direction of a recurrent encoder, stacked along a direction axis D,
in one time loop and as one tape node (backpropagation through time),
``squash`` is the capsule non-linearity, and ``routing`` is the whole
iterated dynamic routing of a capsule head. Inside a :class:`Workspace` the
fused primitives and the batched matmul forms take their large arrays from
one pool of work arrays reused across calls.
"""

from __future__ import annotations

import bisect
import math
import sys
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
    forward pass; the optimizer mutates a Parameter's values in place only
    between passes.
    """

    __slots__ = ("values", "grad", "needs_grad")

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.values: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        # True for a Parameter and for recorded outputs computed from one
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
        return f"{type(self).__name__}(shape={self.values.shape})"

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

    def sum(self, axis: Optional[int] = None) -> "Tensor":
        return apply_primitive("sum", [self], axis=axis)


class Parameter(Tensor):
    """A tensor that receives gradients; a model names it by its dict key."""

    __slots__ = ()

    def __init__(self, values) -> None:
        super().__init__(values)
        self.needs_grad = True


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


_WORKSPACES: list = []  # entered workspaces, innermost last


class Workspace:
    """Work arrays that the hot primitives reuse across the calls made while
    the workspace is entered, so that a training or scoring loop stops
    allocating, and faulting in, the same large arrays at every step.

    The workspace keeps one pool of flat arrays, smallest first and, among
    arrays of one size, last used first. A request gets a view of the first
    elements of the first one that is large enough and that nothing but the
    pool references, or of a new one that joins the pool; so a result, a
    gradient or a tape that is still held keeps its bytes, and arrays whose
    lifetimes do not overlap share memory, as an epoch's last, shorter batch
    does with the full ones. Outside every workspace the primitives allocate
    afresh and keep nothing. The pool is dropped when the workspace exits.
    """

    __slots__ = ("arrays",)

    def __init__(self) -> None:
        self.arrays: list = []

    def __enter__(self) -> "Workspace":
        _WORKSPACES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _WORKSPACES.pop()
        self.arrays.clear()


def _work(shape: tuple) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of ``shape``, from the pool
    of the innermost entered workspace when there is one."""
    if not _WORKSPACES:
        return np.empty(shape)
    size = math.prod(shape)
    pool = _WORKSPACES[-1].arrays
    for i in range(len(pool)):
        # free: referenced by the pool and getrefcount's argument alone; a
        # view handed out earlier and still alive references it too
        if pool[i].size >= size and sys.getrefcount(pool[i]) == 2:
            flat = pool.pop(i)
            break
    else:
        flat = np.empty(size)
    # back in size order, first among its size: of equal candidates the one
    # used last, whose memory is likeliest still in cache, is handed out next
    bisect.insort_left(pool, flat, key=len)
    return flat[:size].reshape(shape)


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
# Primitive definitions. Each entry: (count, check, fn). count is the number of
# operands the primitive takes, which apply_primitive checks first, or None
# for a kind that takes a variable number (concat, conv1d, the scans), whose
# check counts them before it reads any. check(arrays, kw), or None, raises on
# operands the primitive does not accept. fn(arrays, kw, needs)
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


# weight @ batch folds its batch axes into one 2-D product from this many
# weight rows. Below it the relayout copy of the batch costs more than the
# per-item products it replaces: warm, on 32 items of (1368, 16), the per-item
# forward was faster at 96 rows and slower at 112.
FOLD_MIN_ROWS = 112


def _prim_matmul(arrays, kw, needs):
    a, b = arrays
    need_a, need_b = needs
    bt = None
    if a.ndim == 2 and b.ndim > 2:
        # weight @ batch. A weight of FOLD_MIN_ROWS or more rows runs one 2-D
        # product, (m, k) @ (k, P*n), over the batch copy bt with the batch
        # axes folded into its columns; a smaller one runs the P per-item
        # products. The rule reads only shapes, so a taped and a tape-free
        # forward give the same bytes. The pullback works on bt either way,
        # making it if the forward did not. The extents are spelled out
        # because reshape cannot infer a -1 extent of a zero-size array.
        m, k = a.shape
        batch = b.shape[:-2] + b.shape[-1:]
        size = math.prod(batch)

        def folded():
            bt = _work((k, size))
            np.copyto(bt.reshape((k,) + batch), np.moveaxis(b, -2, 0))
            return bt

        if m >= FOLD_MIN_ROWS:
            bt = folded()
            out = np.moveaxis(np.matmul(a, bt, out=_work((m, size)))
                              .reshape((m,) + batch), 0, -2)
        else:
            out = np.matmul(a, b, out=_work(b.shape[:-2] + (m, b.shape[-1])))
    elif b.ndim == 2 and a.ndim > 2:
        out = np.matmul(a, b, out=_work(a.shape[:-1] + b.shape[-1:]))
    else:
        out = np.matmul(a, b)

    def pullback(g):
        if a.ndim == 2 and b.ndim > 2:
            # The same fold for both gradients. gb is handed on axis-swapped,
            # as a view: a C-ordered copy for the consumer's elementwise
            # backward measured level end to end.
            cols = _work((m, size))
            np.copyto(cols.reshape((m,) + batch), np.moveaxis(g, -2, 0))
            ga = (np.matmul(cols, (folded() if bt is None else bt).T,
                            out=_work((m, k))) if need_a else None)
            if not need_b:
                return ga, None
            gb = np.matmul(a.T, cols, out=_work((k, size)))
            return ga, np.moveaxis(gb.reshape((k,) + batch), 0, -2)
        if b.ndim == 2 and a.ndim > 2:
            # batch @ weight: the batch rows are rows of one 2-D product.
            rows = g.reshape(-1, g.shape[-1])
            ga = (np.matmul(rows, b.T, out=_work((rows.shape[0], b.shape[0])))
                  .reshape(a.shape) if need_a else None)
            return ga, a.reshape(-1, a.shape[-1]).T @ rows if need_b else None
        return (_unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape) if need_a else None,
                _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape) if need_b else None)

    return out, pullback


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


def _check_concat(arrays, kw):
    if not arrays:
        raise _shape_error("concat", "expects one or more operands, got 0")
    _check_axis("concat")(arrays, kw)
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
    if math.prod(shape) != arrays[0].size:
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


# Fused convolution bank: every kernel of a CNN encoder as one tape node.
# Operands: the (B, T, E) input, then (w, b) per kernel, w (k * E, F) and b
# (1, F); the kernel size k is w's row count over E, and every kernel has the
# same F. Kernel i reads the windows x[:, p:p + k] flattened position-major,
# so its output rows are relu(windows @ w + b), written to its block of the
# (B, sum_i (T - k_i + 1), F) output in operand order. Each kernel's windows
# are one copy of an ``as_strided`` view of x, (B, T - k + 1, k * E)
# (Chellapilla et al. 2006), multiplied by the same numpy product as the
# composed slice-concat-matmul graph into its rows of the map. Then one pass
# adds every kernel's bias, through a (1, L, F) table holding each output
# row's bias, and one more applies the ReLU to the whole contiguous map: each
# element still takes the product, the bias add and the ReLU in that order.
# The pullback forms dw and db with that graph's reductions, so outputs and
# weight gradients equal its bytes. It keeps only the windows and the output,
# whose sign is the ReLU mask.


def _check_conv1d(arrays, kw):
    if len(arrays) < 3 or len(arrays) % 2 == 0:
        raise _shape_error("conv1d", f"expects 1 + 2 per kernel operands, got {len(arrays)}")
    x = arrays[0]
    if x.ndim != 3 or x.shape[2] < 1:
        raise _shape_error("conv1d", "input must be (B, T, E >= 1)", x.shape)
    _, t, e = x.shape
    for i, (w, bias) in enumerate(zip(arrays[1::2], arrays[2::2])):
        if w.ndim != 2 or w.shape[0] % e or not 1 <= w.shape[0] // e <= t:
            raise _shape_error("conv1d", f"kernel {i} w must be (k * E, F) with 1 <= k <= T",
                               x.shape, w.shape)
        f = arrays[1].shape[1]  # kernel 0's, checked first
        if w.shape[1] != f:
            raise _shape_error("conv1d", f"kernel {i} w must have kernel 0's F = {f} columns",
                               w.shape)
        if bias.shape != (1, f):
            raise _shape_error("conv1d", f"kernel {i} b must be {(1, f)}", bias.shape)


def _prim_conv1d(arrays, kw, needs):
    x = arrays[0]
    b, t, e = x.shape
    f = arrays[1].shape[1]
    sizes = [w.shape[0] // e for w in arrays[1::2]]
    length = sum(t - k + 1 for k in sizes)
    out = _work((b, length, f))
    biases = _work((1, length, f))  # row r holds the bias of the kernel that wrote it
    s_b, s_t, s_e = x.strides
    banks = []   # (windows, w, first output row, row count) per kernel
    start = 0
    for k, w, bias in zip(sizes, arrays[1::2], arrays[2::2]):
        rows = t - k + 1
        # window p is x[:, p:p + k]; the view's rows overlap, so the product
        # runs in BLAS on a copy (at F = 1, numpy multiplies the view itself
        # by another path, with other bytes than the composed graph's)
        view = np.lib.stride_tricks.as_strided(x, (b, rows, k, e), (s_b, s_t, s_t, s_e),
                                               writeable=False)
        windows = _work((b, rows, k * e))
        np.copyto(windows.reshape(b, rows, k, e), view)
        # the product rounded before the bias is added, as the composed graph
        # formed it; each item's rows of the block stay one BLAS product
        np.matmul(windows, w, out=out[:, start:start + rows])
        biases[0, start:start + rows] = bias
        banks.append((windows, w, start, rows))
        start += rows
    # every kernel's bias add and ReLU in one pass over the contiguous map
    np.add(out, biases, out=out)
    np.maximum(out, 0.0, out=out)

    def pullback(g):
        dx = None
        if needs[0]:
            dx = _work(x.shape)
            dx.fill(0.0)
        grads = [dx]
        for windows, w, start, rows in banks:
            # the composed graph's relu, add and matmul rules, in its order;
            # extents spelled out for zero-size arrays
            width = windows.shape[2]
            dpre = np.multiply(g[:, start:start + rows], out[:, start:start + rows] > 0.0,
                               out=_work((b, rows, f)))
            flat = dpre.reshape(b * rows, f)
            grads += [windows.reshape(b * rows, width).T @ flat,
                      _unbroadcast(dpre, (1, 1, f)).reshape(1, f)]
            if dx is not None:
                dwindows = np.matmul(flat, w.T,
                                     out=_work((b * rows, width)))
                for j in range(width // e):
                    dx[:, j:j + rows] += dwindows.reshape(b, rows, width)[..., j * e:(j + 1) * e]
        return grads

    return out, pullback


# Elements in a block of a blocked loop's work arrays, 256 KiB of float64:
# squash's rows, each Jacobian factor of a scan's steps and Adam's update.
_CHUNK = 1 << 15


def _blocks(count: int, item: int) -> list:
    """Slices covering range(count) in order, each of max(1, _CHUNK // item)
    items of ``item`` elements but the last, which may be shorter."""
    span = max(1, _CHUNK // max(1, item))
    return [slice(start, min(start + span, count)) for start in range(0, count, span)]


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
# the same stacked layout. It walks the steps last to first in blocks of
# min(T, _CHUNK // (D*B*H)) steps, at least one, and forms each block's
# Jacobian factors into (block, D, B, H) work arrays just before the block's
# steps read them, so no factor spans the sequence. Once the loop has read the
# map's (T, D, B, H) gradient, that buffer holds each du product's left
# operand in turn, (D, T, B, H) in its memory: the states before each step,
# then for the GRU r times them. It transposes the recurrent weights as views:
# a contiguous copy takes another BLAS path, whose summation order differs.

_GRU_GATES = ("z", "r", "n")
_LSTM_GATES = ("i", "f", "o", "g")
_SCAN_ORDER = (slice(None), slice(None, None, -1))  # each direction's position order


def _check_scan(kind, gates):
    n = len(gates)

    def check(arrays, kw):
        if len(arrays) not in (1 + 3 * n, 1 + 6 * n):
            raise _shape_error(kind, f"expects 1 + {3 * n} or 1 + {3 * n} + {3 * n} operands, "
                                     f"got {len(arrays)}")
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


def _from_steps(steps: np.ndarray) -> np.ndarray:
    """(T, D, B, H) in each direction's scan order -> the (B, T, D*H) map in
    position order."""
    t, dirs, b, h = steps.shape
    out = _work((b, t, dirs * h))
    for d, order in zip(range(dirs), _SCAN_ORDER):
        out[:, :, d * h:(d + 1) * h] = np.swapaxes(steps[order, d], 0, 1)
    return out


def _to_steps(g: np.ndarray, dirs: int) -> np.ndarray:
    """The (B, T, D*H) map's gradient -> (T, D, B, H) in each direction's scan order."""
    b, t, width = g.shape
    h = width // dirs
    steps = _work((t, dirs, b, h))
    for d, order in zip(range(dirs), _SCAN_ORDER):
        steps[:, d] = np.swapaxes(g[:, order, d * h:(d + 1) * h], 0, 1)
    return steps


def _staging(steps: np.ndarray) -> tuple:
    """A contiguous (T, D, B, k) buffer's memory read as (D, T, B, k), to be
    filled, and as the transposed (D, k, T*B) rows of a du product: one block
    of rows per direction."""
    t, dirs, b, k = steps.shape
    return steps.reshape(dirs, t, b, k), np.swapaxes(steps.reshape(dirs, t * b, k), 1, 2)


def _scan_inputs(arrays, n_gates):
    """The (D, T, B, E) input in each direction's scan order, the stacked
    (D, ., G*H) w and u, and the (T, D, B, G*H) input projection."""
    n = n_gates
    dirs = (len(arrays) - 1) // (3 * n)
    w, u, bias = (np.stack([np.concatenate(arrays[1 + (3 * d + k) * n:1 + (3 * d + k + 1) * n],
                                           axis=1) for d in range(dirs)]) for k in range(3))
    b, t, e = arrays[0].shape
    positions = np.swapaxes(arrays[0], 0, 1)
    xs = _work((dirs, t, b, e))
    for d, order in zip(range(dirs), _SCAN_ORDER):
        xs[d] = positions[order]
    proj = np.matmul(xs.reshape(dirs, t * b, e), w,
                     out=_work((dirs, t * b, w.shape[2])))
    proj += bias
    return xs, w, u, np.swapaxes(proj.reshape(dirs, t, b, w.shape[2]), 0, 1)


def _scan_grads(dproj, xs, w, du, n_gates, need_x):
    """dx (None unless ``need_x``; the sum over directions), then each
    direction's dw, du and db split per gate, from the (D, T, B, G*H)
    projection grads and the (D, ., G*H) du."""
    dirs, t, b, width = dproj.shape
    flat = dproj.reshape(dirs, t * b, width)
    dw = np.matmul(np.swapaxes(xs.reshape(dirs, t * b, xs.shape[3]), 1, 2), flat)
    db = flat.sum(axis=1, keepdims=True)
    dx = None
    if need_x:
        e = xs.shape[3]
        steps = np.matmul(flat, np.swapaxes(w, 1, 2), out=_work((dirs, t * b, e)))
        steps = steps.reshape(dirs, t, b, e)
        dx = _work((b, t, e))
        np.copyto(dx, np.swapaxes(steps[0], 0, 1))
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
    states = _work((t + 1, dirs, b, h))  # states[s] is the state before step s
    states[0] = 0.0
    zr = _work((t, dirs, b, 2 * h))
    n = _work((t, dirs, b, h))
    for s in range(t):
        prev = states[s]
        _sigmoid(proj[s, ..., :2 * h] + prev @ u_zr, out=zr[s])
        np.tanh(proj[s, ..., 2 * h:] + (zr[s, ..., h:] * prev) @ u_n, out=n[s])
        np.add(n[s], zr[s, ..., :h] * (prev - n[s]), out=states[s + 1])

    def pullback(g):
        g = _to_steps(g, dirs)
        u_zr_t, u_n_t = np.swapaxes(u_zr, 1, 2), np.swapaxes(u_n, 1, 2)
        dproj = _work((dirs, t, b, 3 * h))
        dsteps = np.swapaxes(dproj, 0, 1)
        carry = np.zeros((dirs, b, h))
        prev = states[:-1]
        z, r = zr[..., :h], zr[..., h:]
        blocks = _blocks(t, n[0].size)
        factors = _work((4, blocks[0].stop, dirs, b, h))
        for blk in reversed(blocks):
            start, stop = blk.start, blk.stop
            # this block's Jacobian factors, each product in the order
            # (1 - z) * (1 - n * n), (prev - n) * z * (1 - z) and prev * r * (1 - r)
            tmp, dn_dh, dz_dh, dr_drh = factors[:, :stop - start]
            np.subtract(1.0, z[blk], out=tmp)
            np.multiply(n[blk], n[blk], out=dn_dh)  # dh -> d n_pre
            np.subtract(1.0, dn_dh, out=dn_dh)
            np.multiply(tmp, dn_dh, out=dn_dh)
            np.subtract(prev[blk], n[blk], out=dz_dh)  # dh -> d z_pre
            dz_dh *= z[blk]
            dz_dh *= tmp
            np.multiply(prev[blk], r[blk], out=dr_drh)  # d(r * h) -> d r_pre
            dr_drh *= np.subtract(1.0, r[blk], out=tmp)
            for s in range(stop - 1, start - 1, -1):
                j = s - start
                dh = g[s] + carry
                d = dsteps[s]
                np.multiply(dh, dn_dh[j], out=d[..., 2 * h:])
                drh = d[..., 2 * h:] @ u_n_t
                np.multiply(dh, dz_dh[j], out=d[..., :h])
                np.multiply(drh, dr_drh[j], out=d[..., h:2 * h])
                carry = dh * z[s] + drh * r[s] + d[..., :2 * h] @ u_zr_t
        flat = dproj.reshape(dirs, t * b, 3 * h)
        staged, rows = _staging(g)
        np.copyto(staged, np.swapaxes(prev, 0, 1))
        du_zr = np.matmul(rows, flat[..., :2 * h])
        np.multiply(np.swapaxes(r, 0, 1), np.swapaxes(prev, 0, 1), out=staged)
        du = np.concatenate([du_zr, np.matmul(rows, flat[..., 2 * h:])], axis=2)
        del g, staged, rows  # the buffer goes back to the pool for _scan_grads
        return _scan_grads(dproj, xs, w, du, 3, needs[0])

    return _from_steps(states[1:]), pullback


def _prim_lstm_scan(arrays, kw, needs):
    # i, f, o = sigmoid(.), g = tanh(.) of x W + b + h U (one (H, 4H) product)
    # c' = f * c + i * g; h' = o * tanh(c')
    xs, w, u, proj = _scan_inputs(arrays, 4)
    t, dirs, b, _ = proj.shape
    h = u.shape[1]
    states = _work((t + 1, dirs, b, h))
    cells = _work((t + 1, dirs, b, h))
    states[0] = cells[0] = 0.0
    gates = _work((t, dirs, b, 4 * h))
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
        u_t = np.swapaxes(u, 1, 2)
        dproj = _work((dirs, t, b, 4 * h))
        dsteps = np.swapaxes(dproj, 0, 1)
        carry_h = np.zeros((dirs, b, h))
        carry_c = np.zeros((dirs, b, h))
        blocks = _blocks(t, states[0].size)
        factors = _work((7, blocks[0].stop, dirs, b, h))
        for blk in reversed(blocks):
            start, stop = blk.start, blk.stop
            # this block's Jacobian factors, each product in the order of the
            # formula beside it
            tc, tmp, dc_dh, do_dh, di_dc, df_dc, dg_dc = factors[:, :stop - start]
            np.tanh(cells[start + 1:stop + 1], out=tc)
            np.multiply(tc, tc, out=dc_dh)  # dh -> dc: o * (1 - tc^2)
            np.subtract(1.0, dc_dh, out=dc_dh)
            np.multiply(o[blk], dc_dh, out=dc_dh)
            np.multiply(tc, o[blk], out=do_dh)  # d o_pre: tc * o * (1 - o)
            do_dh *= np.subtract(1.0, o[blk], out=tmp)
            np.multiply(gg[blk], i[blk], out=di_dc)  # d i_pre: gg * i * (1 - i)
            di_dc *= np.subtract(1.0, i[blk], out=tmp)
            np.multiply(cells[blk], f[blk], out=df_dc)  # c * f * (1 - f)
            df_dc *= np.subtract(1.0, f[blk], out=tmp)
            np.multiply(gg[blk], gg[blk], out=dg_dc)  # d g_pre: i * (1 - gg^2)
            np.subtract(1.0, dg_dc, out=dg_dc)
            np.multiply(i[blk], dg_dc, out=dg_dc)
            for s in range(stop - 1, start - 1, -1):
                j = s - start
                dh = g[s] + carry_h
                dc = dh * dc_dh[j] + carry_c
                d = dsteps[s]
                np.multiply(dc, di_dc[j], out=d[..., :h])
                np.multiply(dc, df_dc[j], out=d[..., h:2 * h])
                np.multiply(dh, do_dh[j], out=d[..., 2 * h:3 * h])
                np.multiply(dc, dg_dc[j], out=d[..., 3 * h:])
                carry_c = dc * f[s]
                carry_h = d @ u_t
        staged, rows = _staging(g)
        np.copyto(staged, np.swapaxes(states[:-1], 0, 1))
        du = np.matmul(rows, dproj.reshape(dirs, t * b, 4 * h))
        del g, staged, rows  # the buffer goes back to the pool for _scan_grads
        return _scan_grads(dproj, xs, w, du, 4, needs[0])

    return _from_steps(states[1:]), pullback


# Fused capsule primitives. ``squash`` rescales vectors along the last axis to
# x * |x| / (1 + |x|^2); its norms and its pullback's radial term g . x are
# einsum dot products over the last axis. ``routing`` runs dynamic routing by
# agreement (Sabour et al. 2017) from (B, n_cc, d) capsules u through an
# (n_cc, n_cls, d, d) transform W to (B, n_cls, d) class capsules, as one tape
# node. It keeps the prediction vectors class-major, as a (B, n_cls, n_cc, d)
# array, so that each iteration's coupled sums and agreements are batched
# matrix-vector products, and its pullback forms their gradient as one batched
# GEMM over every iteration. Both agree with the composed graphs they replace
# up to rounding, not bit for bit: the sums run in another order.


def _squash_factor(x: np.ndarray) -> tuple:
    """|x| and |x| / (1 + |x|^2) along the last axis, both kept as size-1 axes."""
    norm = np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]
    return norm, norm / (1.0 + norm * norm)


def _squash_grad(g: np.ndarray, x: np.ndarray, norm: np.ndarray,
                 factor: np.ndarray) -> np.ndarray:
    """d/dx of sum(g * x * f(|x|)) with f(n) = n / (1 + n^2), f'(n) = (1 - n^2) / (1 + n^2)^2.

    The radial term (g . x) f'(n) / n * x is guarded at zero norm: an all-zero
    row gets a zero radial term, as the guarded l2norm rule gives it.
    """
    n2 = norm * norm
    den = 1.0 + n2
    radial = np.einsum("...i,...i->...", g, x)[..., None]
    radial *= (1.0 - n2) / (den * den * np.maximum(norm, 1e-300))
    grad = np.multiply(x, radial, out=_work(x.shape))
    # g * factor is added a block of leading rows at a time, through a work
    # array of about _CHUNK elements, not a second gradient-sized one
    blocks = _blocks(len(x), x[:1].size)
    part = _work(x[blocks[0]].shape) if blocks else None
    for rows in blocks:
        grad[rows] += np.multiply(g[rows], factor[rows], out=part[:rows.stop - rows.start])
    return grad


def _check_squash(arrays, kw):
    if arrays[0].ndim < 1:
        raise _shape_error("squash", "operand must have rank >= 1", arrays[0].shape)


def _prim_squash(arrays, kw, needs):
    x = arrays[0]
    norm, factor = _squash_factor(x)
    out = np.multiply(x, factor, out=_work(x.shape))
    return out, lambda g: (_squash_grad(g, x, norm, factor),)


def _check_routing(arrays, kw):
    iterations = kw.get("iterations")
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 1:
        raise _shape_error("routing", f"iterations must be an int >= 1, got {iterations!r}")
    u, w = arrays
    if u.ndim != 3:
        raise _shape_error("routing", "capsules must be (B, n_cc, d)", u.shape)
    _, n_cc, d = u.shape
    if w.ndim != 4 or w.shape[0] != n_cc or w.shape[2:] != (d, d):
        raise _shape_error("routing", "transform must be (n_cc, n_cls, d, d)", u.shape, w.shape)
    if w.shape[1] < 1:
        raise _shape_error("routing", "transform must have n_cls >= 1", w.shape)


def _prim_routing(arrays, kw, needs):
    # u_hat[b, k, j] = W[j, k] @ u[b, j]; logits start at zero. Each iteration:
    # c = softmax(logits) over classes, s = sum_j c * u_hat, v = squash(s),
    # then, except after the last, logits += u_hat . v. Class-major layout:
    # u_hat is (B, n_cls, n_cc, d), logits and c are (B, n_cls, n_cc). The
    # extents are spelled out because reshape cannot infer a -1 extent of a
    # zero-size array.
    u, w = arrays
    b, n_cc, d = u.shape
    n_cls = w.shape[1]
    iterations = kw["iterations"]
    # per condensed capsule j, W[j] as (n_cls*d, d): n_cc products of
    # (B, d) by (d, n_cls*d), the form the pullback uses for du and dw
    w_rows = w.reshape(n_cc, n_cls * d, d)
    u_cols = u.transpose(1, 0, 2)
    products = np.matmul(u_cols, w_rows.transpose(0, 2, 1),
                         out=_work((n_cc, b, n_cls * d)))
    u_hat = _work((b, n_cls, n_cc, d))
    np.copyto(u_hat, products.reshape(n_cc, b, n_cls, d).transpose(1, 2, 0, 3))
    logits = np.zeros((b, n_cls, n_cc))
    couplings, steps = [], []
    for r in range(iterations):
        c = _softmax(logits, 1)
        s = np.matmul(c.reshape(b, n_cls, 1, n_cc), u_hat).reshape(b, n_cls, d)
        norm, factor = _squash_factor(s)
        v = s * factor
        couplings.append(c)
        steps.append((s, norm, factor, v))
        if r < iterations - 1:
            logits = logits + np.matmul(u_hat, v.reshape(b, n_cls, d, 1)).reshape(b, n_cls, n_cc)
    sink = kw.get("diagnostics")
    if sink is not None:
        sink[:] = [np.ascontiguousarray(logits.transpose(0, 2, 1)),
                   [np.ascontiguousarray(c.transpose(0, 2, 1)) for c in couplings]]

    def pullback(g):
        # du_hat = sum_r c_r (x) gs_r + sum_{r < R-1} dlogits_{r+1} (x) v_r, as
        # one batched GEMM: left columns [c_r, dlogits_{r+1}], right rows
        # [gs_r, v_r], 2R - 1 of each.
        left = _work((b, n_cls, n_cc, 2 * iterations - 1))
        right = np.empty((b, n_cls, 2 * iterations - 1, d))
        gv, dlogits = g, None    # dlogits: gradient of the next iteration's logits
        for r in reversed(range(iterations)):
            c = couplings[r]
            s, norm, factor, v = steps[r]
            if dlogits is not None:
                # this iteration's agreement u_hat . v was added to those logits
                gv = np.matmul(dlogits.reshape(b, n_cls, 1, n_cc), u_hat).reshape(b, n_cls, d)
                left[..., iterations + r] = dlogits
                right[:, :, iterations + r] = v
            gs = _squash_grad(gv, s, norm, factor)
            left[..., r] = c
            right[:, :, r] = gs
            dc = np.matmul(u_hat, gs.reshape(b, n_cls, d, 1)).reshape(b, n_cls, n_cc)
            dl = _softmax_grad(dc, c, 1)
            dlogits = dl if dlogits is None else dlogits + dl
        # du_hat written straight into the (n_cc, B, n_cls, d) layout of the
        # n_cc products below, which give du and dw
        rows = _work((n_cc, b, n_cls * d))
        np.matmul(left, right, out=rows.reshape(n_cc, b, n_cls, d).transpose(1, 2, 0, 3))
        du = np.matmul(rows, w_rows, out=_work((n_cc, b, d))).transpose(1, 0, 2)
        dw = np.matmul(rows.transpose(0, 2, 1), u_cols)
        return du, dw.reshape(w.shape)

    return v, pullback


# No model runs sigmoid, tanh, exp, div, concat, transpose or slice; they stay
# registered because the benchmark counts every one of them.
_PRIMITIVES: dict = {
    "matmul": (2, _check_matmul, _prim_matmul),
    "add": (2, _check_broadcast("add"), _prim_add),
    "sub": (2, _check_broadcast("sub"), _prim_sub),
    "mul": (2, _check_broadcast("mul"), _prim_mul),
    "div": (2, _check_broadcast("div"), _prim_div),
    "scale": (1, _check_scale, _prim_scale),
    "concat": (None, _check_concat, _prim_concat),
    "slice": (1, _check_slice, _prim_slice),
    "reshape": (1, _check_reshape, _prim_reshape),
    "transpose": (1, _check_transpose, _prim_transpose),
    "sigmoid": (1, None, _prim_sigmoid),
    "tanh": (1, None, _prim_tanh),
    "relu": (1, None, _prim_relu),
    "softmax": (1, _check_axis("softmax"), _prim_softmax),
    "l2norm": (1, _check_axis("l2norm"), _prim_l2norm),
    "sum": (1, _check_sum, _prim_sum),
    "exp": (1, None, _prim_exp),
    "log": (1, None, _prim_log),
    "conv1d": (None, _check_conv1d, _prim_conv1d),
    "gru_scan": (None, _check_scan("gru_scan", _GRU_GATES), _prim_gru_scan),
    "lstm_scan": (None, _check_scan("lstm_scan", _LSTM_GATES), _prim_lstm_scan),
    "squash": (1, _check_squash, _prim_squash),
    "routing": (2, _check_routing, _prim_routing),
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
    if count is not None and len(arrays) != count:
        raise _shape_error(kind, f"expects {count} operand{'' if count == 1 else 's'}, "
                                 f"got {len(arrays)}")
    if check is not None:
        check(arrays, kw)
    needs = tuple(t.needs_grad for t in operands)
    result, pullback = fn(arrays, kw, needs)
    out = Tensor(result)
    tape = active_tape()
    if tape is not None and any(needs):
        out.needs_grad = True
        tape.nodes.append(_Node(kind, out, tuple(operands), pullback))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every Parameter that ``loss`` depends on.

    Gradients of tensors consumed by several nodes are accumulated by
    summation. Grads already present on parameters (e.g. from an earlier
    backward call before an optimizer step) are added to, not replaced.

    The replay consumes the tape: each node's pullback is dropped once it has
    run, or once the replay has passed a node that no gradient reaches, and
    each incoming gradient before its contributions are summed, so that the
    arrays only a finished pullback held go back to the innermost
    :class:`Workspace` before an earlier pullback asks for work arrays. The
    nodes keep their ``kind``, ``out`` and ``inputs``. A second call on the
    same tape raises :class:`TensorError` before it writes any gradient.
    Raises :class:`EmptyTapeError` when the tape recorded nothing, which is
    also the case when nothing computed under it depends on a Parameter.
    """
    if loss.values.size != 1:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.values.shape}")
    if not tape.nodes:
        raise EmptyTapeError("tape recorded no nodes: nothing computed under it "
                             "depends on a Parameter")
    # a replay drops the last node's pullback first
    if tape.nodes[-1].backward_fn is None:
        raise TensorError("tape was already replayed by backward: record a new one")

    # Gradients of recorded outputs, keyed by id; sums are formed out of place,
    # because a rule may hand the same array to several operands.
    grads: dict = {id(loss): np.ones_like(loss.values)}
    for node in reversed(tape.nodes):
        pullback, node.backward_fn = node.backward_fn, None
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        contributions = pullback(g)
        del pullback, g
        for tensor, contribution in zip(node.inputs, contributions):
            if not tensor.needs_grad:
                continue
            if not isinstance(tensor, Parameter):
                key = id(tensor)
                grads[key] = grads[key] + contribution if key in grads else contribution
            elif tensor.grad is None:
                tensor.grad = np.array(contribution, order="C")
            else:
                tensor.grad = tensor.grad + contribution
        # what the pullback handed back is released before the next one runs
        del contributions, contribution


def clear_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def grad_check(
    model_fn: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
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
    tape_grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
                  for p in params]
    clear_grads(params)

    candidates = [i for i, p in enumerate(params) if p.size > 0]
    if not candidates:
        return 0.0

    max_rel = 0.0
    for _ in range(sample_count):
        i = candidates[int(rng.integers(len(candidates)))]
        idx = int(rng.integers(params[i].size))
        flat = params[i].values.reshape(-1)
        original = flat[idx]
        flat[idx] = original + epsilon
        f_plus = model_fn(params).item()
        flat[idx] = original - epsilon
        f_minus = model_fn(params).item()
        flat[idx] = original
        g_fd = (f_plus - f_minus) / (2.0 * epsilon)
        g_tape = tape_grads[i].reshape(-1)[idx]
        rel = abs(g_tape - g_fd) / max(abs(g_tape), abs(g_fd), 1e-12)
        if not rel <= max_rel:  # a NaN error sticks, so it fails every tolerance
            max_rel = rel
    return max_rel


# Functional wrappers used throughout the model code.

def relu(t: Tensor) -> Tensor:
    return apply_primitive("relu", [t])


def softmax(t: Tensor, axis: int) -> Tensor:
    return apply_primitive("softmax", [t], axis=axis)


def l2_norm(t: Tensor, axis: int) -> Tensor:
    return apply_primitive("l2norm", [t], axis=axis)


def log(t: Tensor) -> Tensor:
    return apply_primitive("log", [t])


def conv1d(x: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """Every kernel of a CNN bank in one node: (B, T, E) -> (B, sum_k (T - k + 1), F).
    ``weights`` are w (k * E, F) then b (1, F) for each kernel, in output
    order; each block of rows is relu(valid convolution + b)."""
    return apply_primitive("conv1d", [x, *weights])


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
