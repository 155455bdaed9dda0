#!/usr/bin/env python3
"""A tour of the tensor engine: tapes, backward passes, gradient checking.

Run:  python3 demos/01_autodiff_engine.py
"""

import numpy as np

from textcaps.tensor import Parameter, Tape, Tensor, apply_primitive, backward, grad_check

# Gradients flow only to parameters. Every operation executed under an
# active Tape on a Parameter's tensor, or on something computed from one,
# records one node; work on constants alone records nothing. Calling
# backward() on a scalar loss walks those nodes in reverse and fills in
# .grad on the parameters.

x = Parameter(Tensor([1.0, 2.0, 3.0]), "x").tensor
with Tape() as tape:
    loss = (x * x).sum()
backward(loss, tape)
print("d(sum x^2)/dx =", x.grad, " (expect 2x = [2, 4, 6])")

# Fan-out accumulates: feed x into two branches and the gradients add.
x = Parameter(Tensor([0.5, -1.0]), "x").tensor
with Tape() as tape:
    loss = x.sum() + (x * x).sum()
backward(loss, tape)
print("two-branch gradient =", x.grad, " (expect 1 + 2x)")

# grad_check compares tape gradients against central finite differences.
# It is the same harness the test suite runs over every primitive.
rng = np.random.default_rng(0)
w = Parameter(Tensor(rng.normal(size=(4, 3))), "w")
v = Parameter(Tensor(rng.normal(size=(3, 2))), "v")


def two_layer(params):
    x = Tensor(rng.standard_normal((5, 4)) * 0 + 0.3)
    h = apply_primitive("tanh", [x @ params[0].tensor])
    return (h @ params[1].tensor).sum()


err = grad_check(two_layer, [w, v], epsilon=1e-5, sample_count=20)
print(f"two-layer matmul chain: max relative error {err:.3e} (want < 1e-6)")
