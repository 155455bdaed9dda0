"""Pluggable sequence encoders: CNN, GRU, BiGRU, LSTM, BiLSTM, and hybrids.

The sentence/word grid is flattened to one token sequence of length
T = n_s * n_w in reading order; padding positions carry zero vectors and
are processed like ordinary tokens. Every encoder maps a (batch, T, E_d)
block to a (batch, L, C) feature map whose extents follow closed-form
shape rules:

    cnn        L = sum_k (T - k + 1)   C = filters_per_kernel
    gru/lstm   L = T                   C = hidden_dim
    bi*        L = T                   C = 2 * hidden_dim
    cnn-bi*    L = sum_k (T - k + 1)   C = 2 * hidden_dim

Hybrids feed the CNN map's position sequence into the bidirectional
recurrence. Convolutions are valid (no padding); recurrent initial states
are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .adversarial import SeededRng
from .tensor import (
    Parameter,
    ShapeMismatchError,
    Tensor,
    concat,
    relu,
    sigmoid,
    tanh,
)

ENCODER_KINDS = ("cnn", "gru", "bigru", "cnn-bigru", "lstm", "bilstm", "cnn-bilstm")


@dataclass(frozen=True)
class EncoderConfig:
    kind: str
    kernel_sizes: Tuple[int, ...] = (3, 4, 5)
    filters_per_kernel: int = 300
    hidden_dim: int = 300

    def __post_init__(self) -> None:
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}; choose from {ENCODER_KINDS}")
        if not self.kernel_sizes or any(k < 1 for k in self.kernel_sizes):
            raise ValueError("kernel_sizes must be non-empty positive integers")
        if self.filters_per_kernel < 1 or self.hidden_dim < 1:
            raise ValueError("filters_per_kernel and hidden_dim must be >= 1")

    @property
    def uses_cnn(self) -> bool:
        return self.kind in ("cnn", "cnn-bigru", "cnn-bilstm")

    @property
    def recurrent_kind(self) -> str:
        """'' for pure cnn; 'gru' or 'lstm' otherwise, with self.bidirectional."""
        if self.kind == "cnn":
            return ""
        return "gru" if "gru" in self.kind else "lstm"

    @property
    def bidirectional(self) -> bool:
        return self.kind.startswith("bi") or self.kind.startswith("cnn-bi")


def encoder_output_shape(config: EncoderConfig, t: int, e_d: int) -> Tuple[int, int]:
    """Closed-form (L, C) for a given sequence length and embedding size."""
    if config.uses_cnn:
        for k in config.kernel_sizes:
            if k > t:
                raise ValueError(f"kernel size {k} exceeds sequence length {t}")
        l_cnn = sum(t - k + 1 for k in config.kernel_sizes)
    if config.kind == "cnn":
        return l_cnn, config.filters_per_kernel
    width = 2 * config.hidden_dim if config.bidirectional else config.hidden_dim
    if config.uses_cnn:
        return l_cnn, width
    return t, width


def _glorot(rng: SeededRng, fan_in: int, fan_out: int, shape: Tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.generator.uniform(-limit, limit, size=shape)


_GATE_NAMES = {"gru": ("z", "r", "n"), "lstm": ("i", "f", "o", "g")}


def _init_recurrent(params: Dict[str, Parameter], rng: SeededRng,
                    prefix: str, kind: str, e_d: int, hidden: int) -> None:
    for gate in _GATE_NAMES[kind]:
        params[f"{prefix}.w_{gate}"] = Parameter(
            Tensor(_glorot(rng, e_d, hidden, (e_d, hidden))), f"{prefix}.w_{gate}")
        params[f"{prefix}.u_{gate}"] = Parameter(
            Tensor(_glorot(rng, hidden, hidden, (hidden, hidden))), f"{prefix}.u_{gate}")
        params[f"{prefix}.b_{gate}"] = Parameter(
            Tensor(np.zeros((1, hidden))), f"{prefix}.b_{gate}")


def init_encoder(config: EncoderConfig, e_d: int, rng: SeededRng) -> Dict[str, Parameter]:
    """Glorot-uniform weights, zero biases, zero initial states (implicit)."""
    params: Dict[str, Parameter] = {}
    rnn_input = e_d
    if config.uses_cnn:
        for k in config.kernel_sizes:
            fan_in = k * e_d
            name_w = f"encoder.cnn.k{k}.w"
            params[name_w] = Parameter(
                Tensor(_glorot(rng, fan_in, config.filters_per_kernel,
                               (fan_in, config.filters_per_kernel))), name_w)
            name_b = f"encoder.cnn.k{k}.b"
            params[name_b] = Parameter(
                Tensor(np.zeros((1, config.filters_per_kernel))), name_b)
        rnn_input = config.filters_per_kernel
    kind = config.recurrent_kind
    if kind:
        base = f"encoder.{'bi' if config.bidirectional else ''}{kind}"
        if config.bidirectional:
            _init_recurrent(params, rng, f"{base}.fw", kind, rnn_input, config.hidden_dim)
            _init_recurrent(params, rng, f"{base}.bw", kind, rnn_input, config.hidden_dim)
        else:
            _init_recurrent(params, rng, base, kind, rnn_input, config.hidden_dim)
    return params


def _require(params: Dict[str, Parameter], name: str, shape: Tuple[int, ...]) -> Tensor:
    p = params.get(name)
    if p is None:
        raise ShapeMismatchError(f"encoder parameter {name!r} is missing")
    if p.tensor.shape != shape:
        raise ShapeMismatchError(
            f"encoder parameter {name!r} has shape {p.tensor.shape}, expected {shape}")
    return p.tensor


def _cnn_forward(config: EncoderConfig, params: Dict[str, Parameter], x: Tensor) -> Tensor:
    b, t, e = x.shape
    maps: List[Tensor] = []
    for k in config.kernel_sizes:
        l_k = t - k + 1
        w = _require(params, f"encoder.cnn.k{k}.w", (k * e, config.filters_per_kernel))
        bias = _require(params, f"encoder.cnn.k{k}.b", (1, config.filters_per_kernel))
        # valid 1-d convolution as concatenated shifted slices + one matmul
        windows = concat([x.slice(axis=1, start=i, stop=l_k + i) for i in range(k)], axis=2)
        ones = Tensor(np.ones((b, l_k, 1)))
        maps.append(relu(windows @ w + ones @ bias))
    return concat(maps, axis=1) if len(maps) > 1 else maps[0]


def _precompute_input_projections(x: Tensor, params, prefix: str,
                                  gates: Tuple[str, ...], hidden: int) -> Dict[str, Tensor]:
    """x @ w_g + b_g for every gate, laid out (T, B, H) for cheap stepping."""
    b, t, e = x.shape
    flat = x.reshape((b * t, e))
    ones = Tensor(np.ones((b * t, 1)))
    out = {}
    for gate in gates:
        w = _require(params, f"{prefix}.w_{gate}", (e, hidden))
        bias = _require(params, f"{prefix}.b_{gate}", (1, hidden))
        out[gate] = (flat @ w + ones @ bias).reshape((b, t, hidden)).transpose((1, 0, 2))
    return out


def _step_slice(proj: Tensor, t: int, b: int, hidden: int) -> Tensor:
    return proj.slice(axis=0, start=t, stop=t + 1).reshape((b, hidden))


def _recurrent_direction(config: EncoderConfig, params: Dict[str, Parameter],
                         x: Tensor, prefix: str, reverse: bool) -> List[Tensor]:
    """Run one direction; returns per-position (B, 1, H) hidden states."""
    kind = config.recurrent_kind
    hidden = config.hidden_dim
    b, t, _ = x.shape
    gates = _GATE_NAMES[kind]
    xproj = _precompute_input_projections(x, params, prefix, gates, hidden)
    u = {g: _require(params, f"{prefix}.u_{g}", (hidden, hidden)) for g in gates}

    h = Tensor(np.zeros((b, hidden)))
    ones = Tensor(np.ones((b, hidden)))
    outputs: List[Tensor] = [None] * t  # type: ignore[list-item]
    cell = Tensor(np.zeros((b, hidden)))  # lstm only
    order = range(t - 1, -1, -1) if reverse else range(t)
    for step in order:
        if kind == "gru":
            z = sigmoid(_step_slice(xproj["z"], step, b, hidden) + h @ u["z"])
            r = sigmoid(_step_slice(xproj["r"], step, b, hidden) + h @ u["r"])
            n = tanh(_step_slice(xproj["n"], step, b, hidden) + (r * h) @ u["n"])
            h = z * h + (ones - z) * n
        else:
            i = sigmoid(_step_slice(xproj["i"], step, b, hidden) + h @ u["i"])
            f = sigmoid(_step_slice(xproj["f"], step, b, hidden) + h @ u["f"])
            o = sigmoid(_step_slice(xproj["o"], step, b, hidden) + h @ u["o"])
            g = tanh(_step_slice(xproj["g"], step, b, hidden) + h @ u["g"])
            cell = f * cell + i * g
            h = o * tanh(cell)
        outputs[step] = h.reshape((b, 1, hidden))
    return outputs


def encoder_forward_batch(config: EncoderConfig, params: Dict[str, Parameter],
                          x: Tensor) -> Tensor:
    """Map a (batch, T, E_d) block to the (batch, L, C) feature map."""
    if x.values.ndim != 3:
        raise ShapeMismatchError(f"encoder input must be rank 3, got {x.shape}")
    if config.uses_cnn:
        x = _cnn_forward(config, params, x)
        if config.kind == "cnn":
            return x
    kind = config.recurrent_kind
    base = f"encoder.{'bi' if config.bidirectional else ''}{kind}"
    if config.bidirectional:
        fw = _recurrent_direction(config, params, x, f"{base}.fw", reverse=False)
        bw = _recurrent_direction(config, params, x, f"{base}.bw", reverse=True)
        per_pos = [concat([f, r], axis=2) for f, r in zip(fw, bw)]
    else:
        per_pos = _recurrent_direction(config, params, x, base, reverse=False)
    return concat(per_pos, axis=1) if len(per_pos) > 1 else per_pos[0]

