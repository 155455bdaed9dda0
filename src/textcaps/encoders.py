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
are zero. The CNN is one fused ``conv1d`` primitive: per kernel, one strided
copy of the input's windows, one product, the bias and the ReLU, each
kernel's rows written in ``kernel_sizes`` order into the one (batch, L, C)
map. A recurrent encoder is one fused ``gru_scan``/``lstm_scan`` primitive
over the whole sequence. It stacks the per-gate parameters inside it, runs
its D = 1 or 2 directions along a direction axis in one time loop and writes
the (batch, T, D * hidden_dim) map; checkpoints keep one named tensor per
gate and direction, and one ``w`` and ``b`` per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .adversarial import SeededRng
from .tensor import (
    _GRU_GATES,
    _LSTM_GATES,
    Parameter,
    ShapeMismatchError,
    Tensor,
    conv1d,
    gru_scan,
    lstm_scan,
)

# A checkpoint stores the encoder kind as its index here: append new kinds, never reorder.
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
        if len(set(self.kernel_sizes)) != len(self.kernel_sizes):
            # each size names one encoder.cnn.k<size> bank, so a repeat would
            # read the same weights twice
            raise ValueError(f"kernel_sizes must be distinct, got {list(self.kernel_sizes)}")
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


# The scans read their weights by position, in the engine's gate order.
_GATE_NAMES = {"gru": _GRU_GATES, "lstm": _LSTM_GATES}


def _recurrent_prefixes(config: EncoderConfig) -> Tuple[str, ...]:
    """Parameter-name prefix of each recurrent direction, forward first."""
    kind = config.recurrent_kind
    if not kind:
        return ()
    base = f"encoder.{'bi' if config.bidirectional else ''}{kind}"
    return (f"{base}.fw", f"{base}.bw") if config.bidirectional else (base,)


def encoder_parameter_shapes(config: EncoderConfig, e_d: int) -> Dict[str, Tuple[int, ...]]:
    """Every encoder parameter's name and shape, in initialisation order."""
    shapes: Dict[str, Tuple[int, ...]] = {}
    rnn_input = e_d
    if config.uses_cnn:
        rnn_input = config.filters_per_kernel
        for k in config.kernel_sizes:
            shapes[f"encoder.cnn.k{k}.w"] = (k * e_d, rnn_input)
            shapes[f"encoder.cnn.k{k}.b"] = (1, rnn_input)
    hidden = config.hidden_dim
    for prefix in _recurrent_prefixes(config):
        for gate in _GATE_NAMES[config.recurrent_kind]:
            shapes[f"{prefix}.w_{gate}"] = (rnn_input, hidden)
            shapes[f"{prefix}.u_{gate}"] = (hidden, hidden)
            shapes[f"{prefix}.b_{gate}"] = (1, hidden)
    return shapes


def init_parameters(shapes: Dict[str, Tuple[int, ...]], rng: SeededRng) -> Dict[str, Parameter]:
    """Fill an inventory in order: zero biases, Glorot-uniform weights.

    A name whose last part is ``b`` or ``b_<gate>`` is a bias. Every other
    parameter draws from U(-l, l), l = sqrt(6 / (fan_in + fan_out)), its
    last two extents being the fans (Glorot & Bengio 2010).
    """
    params: Dict[str, Parameter] = {}
    for name, shape in shapes.items():
        last = name.rpartition(".")[2]
        if last == "b" or last.startswith("b_"):
            values = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
            values = rng.uniform(-limit, limit, size=shape)
        params[name] = Parameter(values)
    return params


def _cnn_forward(config: EncoderConfig, params: Dict[str, Parameter], x: Tensor) -> Tensor:
    """Every convolution bank as one fused ``conv1d``: (B, T, E) -> (B, L, F)."""
    return conv1d(x, [params[f"encoder.cnn.k{k}.{piece}"]
                      for k in config.kernel_sizes for piece in ("w", "b")])


def _recurrent_forward(config: EncoderConfig, params: Dict[str, Parameter],
                       x: Tensor) -> Tensor:
    """Run every direction as one fused scan: (B, T, E) -> (B, T, D * H)."""
    kind = config.recurrent_kind
    weights = [params[f"{prefix}.{piece}_{gate}"]
               for prefix in _recurrent_prefixes(config)
               for piece in ("w", "u", "b") for gate in _GATE_NAMES[kind]]
    scan = gru_scan if kind == "gru" else lstm_scan
    return scan(x, weights)


def encoder_forward_batch(config: EncoderConfig, params: Dict[str, Parameter],
                          x: Tensor) -> Tensor:
    """Map a (batch, T, E_d) block to the (batch, L, C) feature map. The
    parameters are not checked here: ``model.forward_batch`` checks them."""
    if x.values.ndim != 3:
        raise ShapeMismatchError(f"encoder input must be rank 3, got {x.shape}")
    if config.uses_cnn:
        x = _cnn_forward(config, params, x)
        if config.kind == "cnn":
            return x
    return _recurrent_forward(config, params, x)
