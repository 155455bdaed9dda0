#!/usr/bin/env python3
"""The seven interchangeable encoders, their feature-map shape laws and
parameter counts.

Run:  python3 demos/04_encoders_tour.py
"""

import numpy as np

from textcaps.adversarial import SeededRng
from textcaps.encoders import (
    ENCODER_KINDS,
    EncoderConfig,
    encoder_forward_batch,
    encoder_output_shape,
    encoder_parameter_shapes,
    init_parameters,
)
from textcaps.tensor import Tensor

E_D, T = 8, 12  # embedding size, flattened sequence length (n_s * n_w)
rng = np.random.default_rng(1)
block = Tensor(rng.uniform(-1, 1, size=(2, T, E_D)))

print(f"input block: batch=2, T={T}, E_d={E_D}\n")
print(f"{'kind':<12} {'L':>4} {'C':>4} {'params':>7}   notes")
for kind in ENCODER_KINDS:
    config = EncoderConfig(kind=kind, kernel_sizes=(3, 4, 5),
                           filters_per_kernel=6, hidden_dim=5)
    l, c = encoder_output_shape(config, T, E_D)
    shapes = encoder_parameter_shapes(config, E_D)
    n_params = sum(int(np.prod(shape)) for shape in shapes.values())
    fm = encoder_forward_batch(config, init_parameters(shapes, SeededRng(0)), block)
    assert fm.shape == (2, l, c)
    if config.kind == "cnn":
        note = "L = sum(T - k + 1) over kernels, C = filters"
    elif config.uses_cnn:
        note = "cnn positions fed to the bidirectional recurrence"
    elif config.bidirectional:
        note = "C doubles: forward and backward states concatenated"
    else:
        note = "one hidden state per token"
    print(f"{kind:<12} {l:>4} {c:>4} {n_params:>7}   {note}")

# Zero-parameter recurrences are exactly zero everywhere: gates open halfway
# onto a zero initial state and a zero candidate.
config = EncoderConfig(kind="gru", hidden_dim=5)
params = init_parameters(encoder_parameter_shapes(config, E_D), SeededRng(0))
for p in params.values():
    p.values[:] = 0.0
fm = encoder_forward_batch(config, params, block)
print("\nzero-parameter GRU output is the zero map:", bool(np.all(fm.values == 0.0)))
