"""The stacked-direction scans against the one-direction scans they replaced.

``gru_scan`` and ``lstm_scan`` once ran one recurrent direction each, with a
``reverse`` flag for the backward one, and a ``concat`` node joined a
bidirectional encoder's two directions. Those primitives are kept below as
the reference. The stacked scan, which runs every direction in one loop, must
give the same feature map, the same gradient for every weight and, summed
over the directions, the same gradient for its input.
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
    init_encoder,
)
from textcaps.tensor import Parameter, Tape, Tensor, _sigmoid, backward, gru_scan, lstm_scan

# --- the one-direction scans: input (B, T, E), then w_*, u_*, b_* per gate ---


def _to_steps(a, reverse):
    """(B, T, ...) in position order -> contiguous (T, B, ...) in scan order."""
    a = np.swapaxes(a, 0, 1)
    return np.ascontiguousarray(a[::-1] if reverse else a)


def _from_steps(a, reverse):
    """(T, B, ...) in scan order -> contiguous (B, T, ...) in position order."""
    return np.ascontiguousarray(np.swapaxes(a[::-1] if reverse else a, 0, 1))


def _scan_inputs(arrays, kw, n_gates):
    """Step-major input, stacked w and u, and the (T, B, G*H) input projection."""
    x = _to_steps(arrays[0], kw["reverse"])
    w, u, bias = (np.concatenate(arrays[1 + k * n_gates:1 + (k + 1) * n_gates], axis=1)
                  for k in range(3))
    t, b, e = x.shape
    proj = (x.reshape(t * b, e) @ w + bias).reshape(t, b, -1)
    return x, w, u, proj


def _scan_grads(dproj, x, w, du, reverse, n_gates, need_x):
    """dx (None unless ``need_x``), then dw, du and db split per gate, from the
    (T, B, G*H) projection grads."""
    t, b, width = dproj.shape
    flat = dproj.reshape(t * b, width)
    dw = x.reshape(t * b, -1).T @ flat
    db = flat.sum(axis=0, keepdims=True)
    dx = _from_steps((flat @ w.T).reshape(t, b, -1), reverse) if need_x else None
    return (dx, *np.split(dw, n_gates, axis=1), *np.split(du, n_gates, axis=1),
            *np.split(db, n_gates, axis=1))


def reference_gru_scan(arrays, kw, needs):
    reverse = kw["reverse"]
    x, w, u, proj = _scan_inputs(arrays, kw, 3)
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
        g = _to_steps(g, reverse)
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
        return _scan_grads(dproj, x, w, du, reverse, 3, needs[0])

    return _from_steps(states[1:], reverse), pullback


def reference_lstm_scan(arrays, kw, needs):
    reverse = kw["reverse"]
    x, w, u, proj = _scan_inputs(arrays, kw, 4)
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
        g = _to_steps(g, reverse)
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
        return _scan_grads(dproj, x, w, du, reverse, 4, needs[0])

    return _from_steps(states[1:], reverse), pullback


# --- the comparison ---

RECURRENT_KINDS = [kind for kind in ENCODER_KINDS if kind != "cnn"]
TOL = 1e-12


def _case(kind, t, pad, seed):
    """A toy encoder with non-zero weights and biases, and the (2, T, E) block
    its scan reads: the embeddings, or a hybrid's convolution map."""
    kernels = (1,) if t == 1 else (2, 3)
    cfg = EncoderConfig(kind=kind, kernel_sizes=kernels, filters_per_kernel=3, hidden_dim=4)
    params = init_encoder(cfg, 3, SeededRng(seed))
    rng = np.random.default_rng(seed)
    for p in params.values():
        p.tensor.values[:] = rng.uniform(-0.8, 0.8, size=p.tensor.shape)
    x = rng.uniform(-1, 1, size=(2, t, 3))
    if pad:
        x[:, t - pad:] = 0.0  # a zero-padded tail, as short documents give
    scan_input = _cnn_forward(cfg, params, Tensor(x)).values if cfg.uses_cnn else x
    weights = [[params[f"{prefix}.{piece}_{gate}"].tensor.values
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
    operands = [Parameter(Tensor(a.copy()), f"p{i}").tensor
                for i, a in enumerate([scan_input] + sum(weights, []))]
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
