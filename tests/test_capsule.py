"""Capsule head tests against hand-rolled numpy oracles.

The routing oracle below is an independent loop-based implementation of
the routing algorithm (plain numpy, no tensor engine); the production
path must agree with it to 1e-9. The composed tape graphs that the fused
``squash`` and ``routing`` primitives replaced are kept as references too,
and so is the first fused implementation, which summed in the composed
graphs' order. The class-major primitives sum in another order, so forward
values and gradients must match every reference within REF_TOL of its
largest |value|, not bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from textcaps.adversarial import SeededRng
from textcaps.capsule import (
    N_CLASSES,
    CapsuleHeadConfig,
    baseline_head_batch,
    class_probabilities_batch,
    compress_batch,
    dynamic_routing_batch,
    primary_capsules_batch,
)
from textcaps.encoders import EncoderConfig, encoder_forward_batch
from textcaps.model import init_model
from textcaps.tensor import (
    Parameter,
    ShapeMismatchError,
    Tape,
    Tensor,
    _softmax,
    _softmax_grad,
    apply_primitive,
    backward,
    grad_check,
    l2_norm,
    routing,
    softmax,
    squash,
)


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


def squash_ones_reference(t: Tensor) -> Tensor:
    """The squash that predates elementwise broadcasting: the scale factor is
    expanded to the vector width by a matmul with a ones row."""
    rank1 = t.values.ndim == 1
    if rank1:
        t = t.reshape((1, t.values.shape[0]))
    d = t.shape[-1]
    norm = l2_norm(t, axis=-1)
    one = Tensor(np.ones(norm.shape))
    factor = apply_primitive("div", [norm, one + norm * norm])
    expanded = factor.reshape(norm.shape + (1,)) @ Tensor(np.ones((1, d)))
    out = t * expanded
    return out.reshape((d,)) if rank1 else out


def routing_ones_reference(condensed: Tensor, transform: Tensor, iterations: int):
    """The routing that predates elementwise broadcasting: couplings and class
    capsules are expanded by matmuls with ones. Returns (v, logits, couplings)."""
    b, n_cc, d = condensed.shape
    n_cls = transform.shape[1]
    w_t = apply_primitive("transpose", [transform], perm=(0, 1, 3, 2))
    u_hat = (condensed.reshape((b, n_cc, 1, 1, d)) @ w_t).reshape((b, n_cc, n_cls, d))
    logits = Tensor(np.zeros((b, n_cc, n_cls)))
    ones_d = Tensor(np.ones((1, d)))
    ones_cc = Tensor(np.ones((n_cc, 1)))
    for iteration in range(iterations):
        couplings = softmax(logits, axis=-1)
        weighted = couplings.reshape((b, n_cc, n_cls, 1)) @ ones_d
        v = squash_ones_reference((weighted * u_hat).sum(axis=1))
        if iteration < iterations - 1:
            v_rows = (ones_cc @ v.reshape((b, 1, n_cls * d))).reshape((b, n_cc, n_cls, d))
            logits = logits + (u_hat * v_rows).sum(axis=-1)
    return v, logits, couplings


def squash_composed_reference(t: Tensor) -> Tensor:
    """The squash that predates the fused primitive: six tape nodes."""
    norm = l2_norm(t, axis=-1).reshape(t.shape[:-1] + (1,))
    one = Tensor(np.ones((1,) * norm.values.ndim))
    return t * apply_primitive("div", [norm, one + norm * norm])


def routing_composed_reference(condensed: Tensor, transform: Tensor, iterations: int):
    """The routing that predates the fused primitive, one tape node per
    operation. Returns (v, logits, coupling history)."""
    b, n_cc, d = condensed.shape
    n_cls = transform.shape[1]
    w_t = apply_primitive("transpose", [transform], perm=(0, 1, 3, 2))
    u_hat = (condensed.reshape((b, n_cc, 1, 1, d)) @ w_t).reshape((b, n_cc, n_cls, d))
    logits = Tensor(np.zeros((b, n_cc, n_cls)))
    history = []
    for iteration in range(iterations):
        couplings = softmax(logits, axis=-1)
        history.append(couplings)
        s = (couplings.reshape((b, n_cc, n_cls, 1)) * u_hat).sum(axis=1)
        v = squash_composed_reference(s)
        if iteration < iterations - 1:
            logits = logits + (u_hat * v.reshape((b, 1, n_cls, d))).sum(axis=-1)
    return v, logits, history


# The first fused ``squash`` and ``routing`` (textcaps.tensor before the
# class-major layout), kept verbatim as references. They perform the composed
# graphs' numpy operations in the same order; routing keeps u_hat as
# (B, n_cc, n_cls, d) and accumulates du_hat by 2R - 1 outer-product passes.


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


def _prim_squash(arrays, kw, needs):
    x = arrays[0]
    norm, factor = _squash_factor(x)
    return x * factor, lambda g: (_squash_grad(g, x, norm, factor),)


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


def _grads(fn, arrays):
    """Gradients of the scalar fn(*tensors) with respect to each array."""
    tensors = [Parameter(Tensor(a.copy()), f"p{i}").tensor for i, a in enumerate(arrays)]
    with Tape() as tape:
        loss = fn(*tensors)
    backward(loss, tape)
    return [t.grad for t in tensors]


# Forward values of the class-major primitives against every reference, and
# their gradients against the first fused primitive, relative to the
# reference's largest |value| (measured: at most about 2e-15). An all-zero
# reference, such as the logits after a single iteration, must be matched
# to within the smallest normal float.
REF_TOL = 1e-13


def _assert_within(got, want, tol=REF_TOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if want.size:
        bound = max(tol * np.max(np.abs(want)), np.finfo(float).tiny)
        err = np.max(np.abs(got - want))
        assert err <= bound, f"max error {err:.3e} > {bound:.3e}"


class TestOnesMatmulReference:
    """Broadcasting replaced ones-matmuls in squash and routing: the forward
    values and the gradients may move only by rounding."""

    SHAPES = [(5,), (1, 4), (3, 7, 4), (2, 3, 2, 6)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_squash_forward_bytes(self, shape):
        x = np.random.default_rng(len(shape)).uniform(-3, 3, size=shape)
        x.reshape(-1)[0] = 0.0
        _assert_within(squash(Tensor(x)).values, squash_ones_reference(Tensor(x)).values)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_squash_gradient(self, shape):
        rng = np.random.default_rng(10 + len(shape))
        x, weights = rng.uniform(-3, 3, size=shape), rng.uniform(-1, 1, size=shape)
        (got,) = _grads(lambda t: (squash(t) * Tensor(weights)).sum(), [x])
        (want,) = _grads(lambda t: (squash_ones_reference(t) * Tensor(weights)).sum(), [x])
        _assert_within(got, want, tol=1e-12)

    @pytest.mark.parametrize("b, n_cc, n_cls, d, iterations",
                             [(1, 1, 2, 1, 1), (2, 4, 2, 3, 3), (3, 5, 3, 4, 2)])
    def test_routing_forward_bytes_and_gradients(self, b, n_cc, n_cls, d, iterations):
        cfg = _head_config(n_cc=n_cc, d=d, routing_iterations=iterations)
        rng = np.random.default_rng(b * 100 + n_cc)
        u = rng.normal(size=(b, n_cc, d))
        w = rng.normal(size=(n_cc, n_cls, d, d))
        v, state = dynamic_routing_batch(Tensor(u), Tensor(w), cfg)
        v_ref, logits_ref, couplings_ref = routing_ones_reference(Tensor(u), Tensor(w),
                                                                  iterations)
        _assert_within(v.values, v_ref.values)
        _assert_within(state.logits, logits_ref.values)
        _assert_within(state.couplings[-1], couplings_ref.values)

        # RoutingState is a diagnostic off the tape: only v is differentiated
        wv = Tensor(rng.uniform(-1, 1, size=(b, n_cls, d)))
        got = _grads(lambda cu, tw: (dynamic_routing_batch(cu, tw, cfg)[0] * wv).sum(), [u, w])
        want = _grads(lambda cu, tw: (routing_ones_reference(cu, tw, iterations)[0] * wv).sum(),
                      [u, w])
        for g, r in zip(got, want):
            _assert_within(g, r, tol=1e-12)


class TestFusedReference:
    """squash and routing are fused primitives: forward values and the routing
    state must equal the composed graph's within REF_TOL, gradients to 1e-12."""

    SQUASH_SHAPES = [(5,), (1, 4), (3, 7, 4), (2, 3, 2, 6), (32, 171, 16)]
    ROUTING_CASES = [(1, 1, 2, 1, 1), (2, 4, 2, 3, 3), (3, 5, 3, 4, 2), (4, 16, 2, 8, 3),
                     (2, 6, 3, 5, 10)]

    @pytest.mark.parametrize("shape", SQUASH_SHAPES)
    def test_squash_forward_bytes_and_gradient(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.uniform(-3, 3, size=shape)
        if x.ndim > 1:
            x.reshape(-1, shape[-1])[0] = 0.0  # one all-zero vector
        weights = Tensor(rng.uniform(-1, 1, size=shape))
        with Tape() as tape:
            fused = squash(Parameter(Tensor(x), "x").tensor)
        assert [node.kind for node in tape.nodes] == ["squash"]
        _assert_within(fused.values, squash_composed_reference(Tensor(x)).values)
        (got,) = _grads(lambda t: (squash(t) * weights).sum(), [x])
        (want,) = _grads(lambda t: (squash_composed_reference(t) * weights).sum(), [x])
        _assert_within(got, want, tol=1e-12)

    @pytest.mark.parametrize("b, n_cc, n_cls, d, iterations", ROUTING_CASES)
    def test_routing_forward_bytes_and_state(self, b, n_cc, n_cls, d, iterations):
        cfg = _head_config(n_cc=n_cc, d=d, routing_iterations=iterations)
        rng = np.random.default_rng(b * 1000 + n_cc * 10 + iterations)
        u = rng.normal(size=(b, n_cc, d))
        w = rng.normal(size=(n_cc, n_cls, d, d))
        with Tape() as tape:
            v, state = dynamic_routing_batch(Tensor(u), Parameter(Tensor(w), "w").tensor, cfg)
        assert [node.kind for node in tape.nodes] == ["routing"]
        v_ref, logits_ref, history_ref = routing_composed_reference(Tensor(u), Tensor(w),
                                                                    iterations)
        _assert_within(v.values, v_ref.values)
        _assert_within(state.logits, logits_ref.values)
        assert len(state.couplings) == iterations
        for got, want in zip(state.couplings, history_ref):
            _assert_within(got, want.values)
        # the state is a diagnostic: plain arrays, never recorded on the tape
        for a in [state.logits, *state.couplings]:
            assert type(a) is np.ndarray and a.flags.c_contiguous

    @pytest.mark.parametrize("b, n_cc, n_cls, d, iterations", ROUTING_CASES)
    def test_routing_gradients(self, b, n_cc, n_cls, d, iterations):
        cfg = _head_config(n_cc=n_cc, d=d, routing_iterations=iterations)
        rng = np.random.default_rng(b * 1000 + n_cc * 10 + iterations + 1)
        u = rng.normal(size=(b, n_cc, d))
        w = rng.normal(size=(n_cc, n_cls, d, d)) / d
        wv = Tensor(rng.uniform(-1, 1, size=(b, n_cls, d)))
        got = _grads(lambda cu, tw: (dynamic_routing_batch(cu, tw, cfg)[0] * wv).sum(), [u, w])
        want = _grads(lambda cu, tw: (routing_composed_reference(cu, tw, iterations)[0]
                                      * wv).sum(), [u, w])
        for g, r in zip(got, want):
            assert g.shape == r.shape
            _assert_within(g, r, tol=1e-12)


# The routing head of each benchmark workload, (B, n_cc, d): train-cnn-caps,
# train-bigru-desk and score-adv; each has n_cls = 2 and 3 iterations.
BENCH_HEADS = [(32, 128, 16), (32, 32, 8), (16, 16, 8)]
BENCH_ROUTING_CASES = [(b, n_cc, N_CLASSES, d, 3) for b, n_cc, d in BENCH_HEADS]


def _routing_arrays(b, n_cc, n_cls, d, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(b, n_cc, d)), rng.normal(size=(n_cc, n_cls, d, d)) / d,
            rng.uniform(-1, 1, size=(b, n_cls, d)))


class TestClassMajorReference:
    """The class-major ``squash`` and ``routing`` against the first fused
    primitives, copied verbatim above: values, the routing state and the
    gradients within REF_TOL; routing's bytes stable from call to call."""

    @pytest.mark.parametrize("b, n_cc, n_cls, d, iterations",
                             BENCH_ROUTING_CASES + TestFusedReference.ROUTING_CASES)
    def test_routing_matches_fused_reference(self, b, n_cc, n_cls, d, iterations):
        u, w, g = _routing_arrays(b, n_cc, n_cls, d, seed=b * n_cc + d + iterations)
        sink: list = []
        v_ref, pullback = _prim_routing([u, w], {"iterations": iterations, "diagnostics": sink},
                                        (True, True))
        logits_ref, couplings_ref = sink
        du_ref, dw_ref = pullback(g)

        tu, tw = Parameter(Tensor(u), "u").tensor, Parameter(Tensor(w), "w").tensor
        with Tape() as tape:
            v, logits, couplings = routing(tu, tw, iterations)
            loss = (v * Tensor(g)).sum()
        backward(loss, tape)
        _assert_within(v.values, v_ref)
        _assert_within(logits, logits_ref)
        assert len(couplings) == iterations
        for got, want in zip(couplings, couplings_ref):
            _assert_within(got, want)
        _assert_within(tu.grad, du_ref)
        _assert_within(tw.grad, dw_ref)

    @pytest.mark.parametrize("shape", TestFusedReference.SQUASH_SHAPES + [(32, 1368, 16)])
    def test_squash_matches_fused_reference(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        x, g = rng.uniform(-3, 3, size=shape), rng.uniform(-1, 1, size=shape)
        if x.ndim > 1:
            x.reshape(-1, shape[-1])[0] = 0.0  # one all-zero vector
        want, pullback = _prim_squash([x], {}, (True,))
        (dx_ref,) = pullback(g)
        (got,) = _grads(lambda t: (squash(t) * Tensor(g)).sum(), [x])
        _assert_within(squash(Tensor(x)).values, want)
        _assert_within(got, dx_ref)

    @pytest.mark.parametrize("b, n_cc, n_cls, d, iterations", BENCH_ROUTING_CASES)
    def test_routing_bytes_stable(self, b, n_cc, n_cls, d, iterations):
        # two tape-free calls and a taped one give the same bytes, and the
        # diagnostics keep the (B, n_cc, n_cls) layout, C-contiguous
        u, w, _ = _routing_arrays(b, n_cc, n_cls, d, seed=7)
        runs = [routing(Tensor(u), Tensor(w), iterations) for _ in range(2)]
        with Tape() as tape:
            runs.append(routing(Tensor(u), Parameter(Tensor(w), "w").tensor, iterations))
        assert [node.kind for node in tape.nodes] == ["routing"]
        first = runs[0]
        for v, logits, couplings in runs:
            assert v.values.tobytes() == first[0].values.tobytes()
            assert logits.tobytes() == first[1].tobytes()
            assert [c.tobytes() for c in couplings] == [c.tobytes() for c in first[2]]
            for diag in [logits, *couplings]:
                assert diag.shape == (b, n_cc, n_cls) and diag.flags.c_contiguous


class TestSquash:
    def test_zero_maps_to_zero_exactly(self):
        out = squash(Tensor(np.zeros(5)))
        assert out.values.tobytes() == np.zeros(5).tobytes()

    def test_unit_vector_halves(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        out = squash(Tensor(e1)).values
        np.testing.assert_allclose(out, 0.5 * e1, rtol=0, atol=1e-15)

    def test_large_norm_saturates_below_one(self):
        e1 = np.zeros(3)
        e1[0] = 1000.0
        out = squash(Tensor(e1)).values
        norm = np.linalg.norm(out)
        assert norm < 1.0
        np.testing.assert_allclose(norm, 1e6 / (1.0 + 1e6), rtol=0, atol=1e-12)

    def test_property_suite(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            dim = int(rng.integers(1, 65))
            x = rng.uniform(-10, 10, size=dim)
            out = squash(Tensor(x)).values
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
        norms = [np.linalg.norm(squash(Tensor(r * direction)).values)
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
    defaults = dict(n_pc=2, n_cc=4, d=3, routing_iterations=3)
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

    def test_rank2_input_names_shape(self):
        cfg = _head_config()
        with pytest.raises(ShapeMismatchError, match=r"must be rank 3, got \(5, 4\)$"):
            primary_capsules_batch(Tensor(np.ones((5, 4))),
                                   Tensor(np.zeros((4, cfg.n_pc * cfg.d))), cfg)


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

    def test_rank2_input_names_shape(self):
        with pytest.raises(ShapeMismatchError, match=r"must be rank 3, got \(6, 3\)$"):
            compress_batch(Tensor(np.ones((6, 3))), Tensor(np.zeros((4, 6))))

    def test_no_squash_applied(self):
        # a big weighted sum keeps norm > 1, which squash would forbid
        out = compress_batch(Tensor(np.ones((1, 4, 3))), Tensor(np.full((1, 4), 2.0)))
        assert np.linalg.norm(out.values[0, 0]) > 1.0


class TestDynamicRouting:
    def test_zero_logits_give_half_couplings(self):
        cfg = _head_config(routing_iterations=1)
        rng = np.random.default_rng(6)
        u = Tensor(rng.normal(size=(1, cfg.n_cc, cfg.d)))
        w = Tensor(rng.normal(size=(cfg.n_cc, N_CLASSES, cfg.d, cfg.d)))
        _, state = dynamic_routing_batch(u, w, cfg)
        np.testing.assert_allclose(state.couplings[-1], 0.5, rtol=0, atol=1e-15)

    def test_coupling_rows_sum_to_one_each_iteration(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            cfg = _head_config(n_cc=int(rng.integers(1, 6)),
                               d=int(rng.integers(1, 5)),
                               routing_iterations=3)
            u = Tensor(rng.normal(size=(2, cfg.n_cc, cfg.d)))
            w = Tensor(rng.normal(size=(cfg.n_cc, N_CLASSES, cfg.d, cfg.d)))
            _, state = dynamic_routing_batch(u, w, cfg)
            assert len(state.couplings) == 3
            for c in state.couplings:
                sums = c.sum(axis=-1)
                np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-9)
                assert np.all(c > 0.0) and np.all(c < 1.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(8):
            cfg = _head_config(n_cc=int(rng.integers(1, 5)),
                               d=int(rng.integers(1, 4)),
                               routing_iterations=int(rng.integers(1, 4)))
            u = rng.normal(size=(cfg.n_cc, cfg.d))
            w = rng.normal(size=(cfg.n_cc, N_CLASSES, cfg.d, cfg.d))
            v_ref, logits_ref, c_ref = routing_oracle(u, w, cfg.routing_iterations)
            caps, state = dynamic_routing_batch(Tensor(u[None]), Tensor(w), cfg)
            np.testing.assert_allclose(caps.values[0], v_ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(state.logits[0], logits_ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(state.couplings[-1][0], c_ref, rtol=0, atol=1e-9)

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

    def test_rank2_input_names_shape(self):
        cfg = _head_config()
        w = Tensor(np.zeros((cfg.n_cc, N_CLASSES, cfg.d, cfg.d)))
        with pytest.raises(ShapeMismatchError, match=r"must be rank 3, got \(4, 3\)$"):
            dynamic_routing_batch(Tensor(np.ones((cfg.n_cc, cfg.d))), w, cfg)

    def test_backward_peak_memory(self):
        # train-cnn-caps head shapes. numpy reports its buffers to tracemalloc;
        # the backward must not build a (B, n_cc, n_cls, d, d) temporary.
        b, n_cc, n_cls, d = 32, 128, 2, 16
        cfg = _head_config(n_cc=n_cc, d=d, routing_iterations=3)
        rng = np.random.default_rng(14)
        u = Parameter(Tensor(rng.normal(size=(b, n_cc, d))), "u").tensor
        w = Parameter(Tensor(rng.normal(size=(n_cc, n_cls, d, d)) / d), "w").tensor
        wv = Tensor(rng.uniform(-1, 1, size=(b, n_cls, d)))
        with Tape() as tape:
            v, _ = dynamic_routing_batch(u, w, cfg)
            loss = (v * wv).sum()
        u_hat_bytes = b * n_cc * n_cls * d * 8
        tracemalloc.start()
        try:
            backward(loss, tape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert u.grad.shape == u.shape and w.grad.shape == w.shape
        assert peak < 6 * u_hat_bytes, f"peak {peak / 2**20:.1f} MiB"

    def test_class_capsule_norms_in_unit_interval(self):
        cfg = _head_config()
        rng = np.random.default_rng(11)
        u = Tensor(rng.normal(size=(3, cfg.n_cc, cfg.d)) * 2)
        w = Tensor(rng.normal(size=(cfg.n_cc, N_CLASSES, cfg.d, cfg.d)))
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
        params = init_model(enc_cfg, head_cfg, e_d, t, SeededRng(33))
        data_rng = np.random.default_rng(33)
        x = data_rng.uniform(-1, 1, size=(1, t, e_d))

        def fn(ps):
            fm = encoder_forward_batch(enc_cfg, params, Tensor(x))
            prim = primary_capsules_batch(fm, params["head.primary.w"].tensor, head_cfg)
            cond = compress_batch(prim, params["head.compress.w"].tensor)
            v, _ = dynamic_routing_batch(cond, params["head.routing.w"].tensor, head_cfg)
            probs = class_probabilities_batch(v)
            target = apply_primitive("slice", [probs], axis=1, start=0, stop=1)
            from textcaps.tensor import log
            return log(target).sum().scale(-1.0)

        err = grad_check(fn, list(params.values()), epsilon=1e-5, sample_count=40,
                         rng=np.random.default_rng(12))
        assert err < 1e-4, f"relative error {err:.3e}"
