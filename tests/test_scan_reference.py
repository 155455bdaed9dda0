"""The stacked-direction scans against the one-direction scans they replaced.

``gru_scan`` and ``lstm_scan`` once ran one recurrent direction each, with a
``reverse`` flag for the backward one, and a ``concat`` node joined a
bidirectional encoder's two directions. Those primitives are kept below as
the reference. The stacked scan, which runs every direction in one loop, must
give the same feature map, the same gradient for every weight and, summed
over the directions, the same gradient for its input.

The stacked scans' pullbacks once formed every step's Jacobian factors for
the whole sequence at once, and copied the states direction-major for the du
products. Those scans are kept below too, verbatim, as the byte reference for
the pullbacks that form the factors one block of steps at a time.
"""

import numpy as np
import pytest

from textcaps.adversarial import SeededRng
from textcaps.encoders import (
    _GATE_NAMES,
    ENCODER_KINDS,
    EncoderConfig,
    _cnn_forward,
    _recurrent_prefixes,
    encoder_forward_batch,
    encoder_parameter_shapes,
    init_parameters,
)
from textcaps.tensor import (
    _CHUNK,
    Parameter,
    Tape,
    Tensor,
    _from_steps,
    _prim_gru_scan,
    _prim_lstm_scan,
    _scan_grads,
    _scan_inputs,
    _sigmoid,
    _to_steps,
    _work,
    backward,
    gru_scan,
    lstm_scan,
)

# --- the one-direction scans: input (B, T, E), then w_*, u_*, b_* per gate ---


def _to_scan_order(a, reverse):
    """(B, T, ...) in position order -> contiguous (T, B, ...) in scan order."""
    a = np.swapaxes(a, 0, 1)
    return np.ascontiguousarray(a[::-1] if reverse else a)


def _to_position_order(a, reverse):
    """(T, B, ...) in scan order -> contiguous (B, T, ...) in position order."""
    return np.ascontiguousarray(np.swapaxes(a[::-1] if reverse else a, 0, 1))


def _one_direction_inputs(arrays, kw, n_gates):
    """Step-major input, stacked w and u, and the (T, B, G*H) input projection."""
    x = _to_scan_order(arrays[0], kw["reverse"])
    w, u, bias = (np.concatenate(arrays[1 + k * n_gates:1 + (k + 1) * n_gates], axis=1)
                  for k in range(3))
    t, b, e = x.shape
    proj = (x.reshape(t * b, e) @ w + bias).reshape(t, b, -1)
    return x, w, u, proj


def _one_direction_grads(dproj, x, w, du, reverse, n_gates, need_x):
    """dx (None unless ``need_x``), then dw, du and db split per gate, from the
    (T, B, G*H) projection grads."""
    t, b, width = dproj.shape
    flat = dproj.reshape(t * b, width)
    dw = x.reshape(t * b, -1).T @ flat
    db = flat.sum(axis=0, keepdims=True)
    dx = _to_position_order((flat @ w.T).reshape(t, b, -1), reverse) if need_x else None
    return (dx, *np.split(dw, n_gates, axis=1), *np.split(du, n_gates, axis=1),
            *np.split(db, n_gates, axis=1))


def reference_gru_scan(arrays, kw, needs):
    reverse = kw["reverse"]
    x, w, u, proj = _one_direction_inputs(arrays, kw, 3)
    t, b, _ = proj.shape
    h = u.shape[0]
    u_zr, u_n = u[:, :2 * h], u[:, 2 * h:]
    states = np.zeros((t + 1, b, h))
    zr = np.empty((t, b, 2 * h))
    n = np.empty((t, b, h))
    for s in range(t):
        prev = states[s]
        _sigmoid(proj[s, :, :2 * h] + prev @ u_zr, out=zr[s])
        np.tanh(proj[s, :, 2 * h:] + (zr[s, :, h:] * prev) @ u_n, out=n[s])
        states[s + 1] = n[s] + zr[s, :, :h] * (prev - n[s])

    def pullback(g):
        g = _to_scan_order(g, reverse)
        t, b, h = g.shape
        prev = states[:-1]
        z, r = zr[..., :h], zr[..., h:]
        dn_dh = (1.0 - z) * (1.0 - n * n)
        dz_dh = (prev - n) * z * (1.0 - z)
        dr_drh = prev * r * (1.0 - r)
        u_zr_t, u_n_t = u[:, :2 * h].T, u[:, 2 * h:].T
        dproj = np.empty((t, b, 3 * h))
        carry = np.zeros((b, h))
        for s in range(t - 1, -1, -1):
            dh = g[s] + carry
            d = dproj[s]
            np.multiply(dh, dn_dh[s], out=d[:, 2 * h:])
            drh = d[:, 2 * h:] @ u_n_t
            np.multiply(dh, dz_dh[s], out=d[:, :h])
            np.multiply(drh, dr_drh[s], out=d[:, h:2 * h])
            carry = dh * z[s] + drh * r[s] + d[:, :2 * h] @ u_zr_t
        du = np.concatenate([
            prev.reshape(t * b, h).T @ dproj[..., :2 * h].reshape(t * b, 2 * h),
            (r * prev).reshape(t * b, h).T @ dproj[..., 2 * h:].reshape(t * b, h)], axis=1)
        return _one_direction_grads(dproj, x, w, du, reverse, 3, needs[0])

    return _to_position_order(states[1:], reverse), pullback


def reference_lstm_scan(arrays, kw, needs):
    reverse = kw["reverse"]
    x, w, u, proj = _one_direction_inputs(arrays, kw, 4)
    t, b, _ = proj.shape
    h = u.shape[0]
    states = np.zeros((t + 1, b, h))
    cells = np.zeros((t + 1, b, h))
    gates = np.empty((t, b, 4 * h))
    for s in range(t):
        pre = proj[s] + states[s] @ u
        act = gates[s]
        _sigmoid(pre[:, :3 * h], out=act[:, :3 * h])
        np.tanh(pre[:, 3 * h:], out=act[:, 3 * h:])
        np.multiply(act[:, h:2 * h], cells[s], out=cells[s + 1])
        cells[s + 1] += act[:, :h] * act[:, 3 * h:]
        states[s + 1] = act[:, 2 * h:3 * h] * np.tanh(cells[s + 1])

    def pullback(g):
        g = _to_scan_order(g, reverse)
        t, b, h = g.shape
        i, f, o, gg = (gates[..., k * h:(k + 1) * h] for k in range(4))
        tc = np.tanh(cells[1:])
        dc_dh = o * (1.0 - tc * tc)
        do_dh = tc * o * (1.0 - o)
        di_dc = gg * i * (1.0 - i)
        df_dc = cells[:-1] * f * (1.0 - f)
        dg_dc = i * (1.0 - gg * gg)
        u_t = u.T
        dproj = np.empty((t, b, 4 * h))
        carry_h = np.zeros((b, h))
        carry_c = np.zeros((b, h))
        for s in range(t - 1, -1, -1):
            dh = g[s] + carry_h
            dc = dh * dc_dh[s] + carry_c
            d = dproj[s]
            np.multiply(dc, di_dc[s], out=d[:, :h])
            np.multiply(dc, df_dc[s], out=d[:, h:2 * h])
            np.multiply(dh, do_dh[s], out=d[:, 2 * h:3 * h])
            np.multiply(dc, dg_dc[s], out=d[:, 3 * h:])
            carry_c = dc * f[s]
            carry_h = d @ u_t
        du = states[:-1].reshape(t * b, h).T @ dproj.reshape(t * b, 4 * h)
        return _one_direction_grads(dproj, x, w, du, reverse, 4, needs[0])

    return _to_position_order(states[1:], reverse), pullback


# --- the comparison ---

RECURRENT_KINDS = [kind for kind in ENCODER_KINDS if kind != "cnn"]
TOL = 1e-12


def _case(kind, t, pad, seed):
    """A toy encoder with non-zero weights and biases, and the (2, T, E) block
    its scan reads: the embeddings, or a hybrid's convolution map."""
    kernels = (1,) if t == 1 else (2, 3)
    cfg = EncoderConfig(kind=kind, kernel_sizes=kernels, filters_per_kernel=3, hidden_dim=4)
    params = init_parameters(encoder_parameter_shapes(cfg, 3), SeededRng(seed))
    rng = np.random.default_rng(seed)
    for p in params.values():
        p.values[:] = rng.uniform(-0.8, 0.8, size=p.shape)
    x = rng.uniform(-1, 1, size=(2, t, 3))
    if pad:
        x[:, t - pad:] = 0.0  # a zero-padded tail, as short documents give
    scan_input = _cnn_forward(cfg, params, Tensor(x)).values if cfg.uses_cnn else x
    weights = [[params[f"{prefix}.{piece}_{gate}"].values
                for piece in ("w", "u", "b") for gate in _GATE_NAMES[cfg.recurrent_kind]]
               for prefix in _recurrent_prefixes(cfg)]
    return cfg, params, x, scan_input, weights, rng


def _assert_close(got, want, what):
    assert got.shape == want.shape, what
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL, err_msg=what)


@pytest.mark.parametrize("kind", RECURRENT_KINDS)
@pytest.mark.parametrize("t, pad", [(1, 0), (7, 0), (7, 3)], ids=["T1", "T7", "T7-padded"])
def test_stacked_scan_matches_one_direction_scans(kind, t, pad):
    cfg, params, x, scan_input, weights, rng = _case(kind, t, pad, seed=41 + t + pad)
    h = cfg.hidden_dim
    out_grad = rng.uniform(-1, 1, size=(2, scan_input.shape[1], h * len(weights)))

    # the stacked scan, input and weights all parameters
    operands = [Parameter(a.copy()) for a in [scan_input] + sum(weights, [])]
    scan = gru_scan if cfg.recurrent_kind == "gru" else lstm_scan
    with Tape() as tape:
        out = scan(operands[0], operands[1:])
        loss = (out * Tensor(out_grad)).sum()
    backward(loss, tape)
    assert [node.kind for node in tape.nodes].count(f"{cfg.recurrent_kind}_scan") == 1

    # the reference: one scan per direction, the second reversed
    reference = reference_gru_scan if cfg.recurrent_kind == "gru" else reference_lstm_scan
    needs = (True,) * (1 + len(weights[0]))
    ref_out, ref_weight_grads, ref_dx = [], [], 0.0
    for d, direction in enumerate(weights):
        values, pullback = reference([scan_input] + direction, {"reverse": d == 1}, needs)
        ref_out.append(values)
        dx, *grads = pullback(np.ascontiguousarray(out_grad[..., d * h:(d + 1) * h]))
        ref_dx = ref_dx + dx
        ref_weight_grads += grads

    _assert_close(out.values, np.concatenate(ref_out, axis=2), "feature map")
    _assert_close(encoder_forward_batch(cfg, params, Tensor(x)).values, out.values,
                  "encoder forward")
    _assert_close(operands[0].grad, ref_dx, "dx, summed over directions")
    assert len(ref_weight_grads) == len(operands) - 1
    for i, (tensor, want) in enumerate(zip(operands[1:], ref_weight_grads)):
        _assert_close(tensor.grad, want, f"weight operand {i}")


# --- the stacked scans with whole-sequence Jacobian factors, verbatim ---


def _by_direction(steps: np.ndarray) -> np.ndarray:
    """(T, D, B, k) -> contiguous (D, T*B, k): one block of rows per direction."""
    t, dirs, b, k = steps.shape
    rows = _work((dirs, t * b, k))
    np.copyto(rows.reshape(dirs, t, b, k), np.swapaxes(steps, 0, 1))
    return rows


def whole_sequence_gru_scan(arrays, kw, needs):
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
        # per-step Jacobian factors, formed for every step at once, each
        # product in the order (1 - z) * (1 - n * n), (prev - n) * z * (1 - z)
        # and prev * r * (1 - r)
        tmp = np.subtract(1.0, z, out=_work(n.shape))
        dn_dh = np.multiply(n, n, out=_work(n.shape))     # dh -> d n_pre
        np.subtract(1.0, dn_dh, out=dn_dh)
        np.multiply(tmp, dn_dh, out=dn_dh)
        dz_dh = np.subtract(prev, n, out=_work(n.shape))  # dh -> d z_pre
        dz_dh *= z
        dz_dh *= tmp
        dr_drh = np.multiply(prev, r, out=_work(n.shape))  # d(r * h) -> d r_pre
        dr_drh *= np.subtract(1.0, r, out=tmp)
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
            np.matmul(np.swapaxes(_by_direction(np.multiply(r, prev, out=tmp)), 1, 2),
                      flat[..., 2 * h:])], axis=2)
        return _scan_grads(dproj, xs, w, du, 3, needs[0])

    return _from_steps(states[1:]), pullback


def whole_sequence_lstm_scan(arrays, kw, needs):
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
        shape = (t, dirs, b, h)
        tc = np.tanh(cells[1:], out=_work(shape))
        tmp = _work(shape)
        # per-step Jacobian factors, formed for every step at once, each
        # product in the order of the formula beside it
        dc_dh = np.multiply(tc, tc, out=_work(shape))  # dh -> dc: o * (1 - tc^2)
        np.subtract(1.0, dc_dh, out=dc_dh)
        np.multiply(o, dc_dh, out=dc_dh)
        do_dh = np.multiply(tc, o, out=_work(shape))  # d o_pre: tc * o * (1 - o)
        do_dh *= np.subtract(1.0, o, out=tmp)
        di_dc = np.multiply(gg, i, out=_work(shape))  # d i_pre: gg * i * (1 - i)
        di_dc *= np.subtract(1.0, i, out=tmp)
        df_dc = np.multiply(cells[:-1], f, out=_work(shape))  # c * f * (1 - f)
        df_dc *= np.subtract(1.0, f, out=tmp)
        dg_dc = np.multiply(gg, gg, out=_work(shape))  # d g_pre: i * (1 - gg^2)
        np.subtract(1.0, dg_dc, out=dg_dc)
        np.multiply(i, dg_dc, out=dg_dc)
        u_t = np.swapaxes(u, 1, 2)
        dproj = _work((dirs, t, b, 4 * h))
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


# --- the comparison, to the byte ---

# D 2, B 64, H 64 makes a block of _CHUNK // (D * B * H) = 4 steps: T 1, 3 and
# 4 fit in one block, 5 and 11 end in a short one. The desk shape makes
# 16-step blocks at T 60.
BLOCK_SHAPES = [(64, t, 8, 64) for t in (1, 3, 4, 5, 11)] + [(32, 60, 16, 32)]


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("dirs", [1, 2])
@pytest.mark.parametrize("b, t, e, h", BLOCK_SHAPES,
                         ids=[f"B{b}-T{t}-H{h}" for b, t, _, h in BLOCK_SHAPES])
@pytest.mark.parametrize("need_x", [True, False], ids=["dx", "no-dx"])
def test_blocked_pullback_equals_whole_sequence_pullback(kind, dirs, b, t, e, h, need_x):
    assert _CHUNK // (2 * 64 * 64) == 4
    n_gates = 3 if kind == "gru" else 4
    rng = np.random.default_rng(7 * t + h + dirs)
    arrays = [rng.uniform(-1, 1, (b, t, e))]
    for _ in range(dirs):
        arrays += ([rng.uniform(-0.5, 0.5, (e, h)) for _ in range(n_gates)]
                   + [rng.uniform(-0.5, 0.5, (h, h)) for _ in range(n_gates)]
                   + [rng.uniform(-0.5, 0.5, (1, h)) for _ in range(n_gates)])
    g = rng.uniform(-1, 1, (b, t, dirs * h))
    needs = (need_x,) + (True,) * (len(arrays) - 1)
    blocked, whole = ((_prim_gru_scan, whole_sequence_gru_scan) if kind == "gru"
                      else (_prim_lstm_scan, whole_sequence_lstm_scan))
    out, pullback = blocked(arrays, {}, needs)
    want_out, want_pullback = whole(arrays, {}, needs)
    assert np.array_equal(out, want_out), "feature map"
    got, want = pullback(g), want_pullback(g)
    assert len(got) == len(want) == len(arrays)
    if need_x:
        assert np.array_equal(got[0], want[0]), "dx"
    else:
        assert got[0] is None and want[0] is None
    for i, (a, c) in enumerate(zip(got[1:], want[1:])):
        assert np.array_equal(a, c), f"weight operand {i}"
