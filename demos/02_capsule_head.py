#!/usr/bin/env python3
"""Capsule mechanics: the squash curve, compression, and routing in action.

Run:  python3 demos/02_capsule_head.py
"""

import numpy as np

from textcaps.capsule import (
    CapsuleHeadConfig,
    class_probabilities_batch,
    dynamic_routing_batch,
    squash,
)
from textcaps.tensor import Tensor

# squash keeps direction and maps norm r to r^2 / (1 + r^2): short vectors
# shrink toward zero, long vectors saturate just below 1.
print("squash norm curve:")
for r in (0.1, 0.5, 1.0, 2.0, 10.0, 1000.0):
    x = np.zeros(4)
    x[0] = r
    print(f"  |x| = {r:7.1f}  ->  |squash(x)| = {np.linalg.norm(squash(x).values):.6f}")

# Dynamic routing: condensed capsules vote for class capsules through
# learned transforms; couplings (softmax over classes per input capsule)
# sharpen toward whichever class capsule agrees with the votes. One
# document is a batch of one: every array below has a leading axis of 1.
rng = np.random.default_rng(4)
config = CapsuleHeadConfig(n_pc=2, n_cc=5, d=4, routing_iterations=3)
condensed = Tensor(rng.normal(size=(1, 5, 4)))
transform = Tensor(rng.normal(size=(5, 2, 4, 4)))

class_caps, state = dynamic_routing_batch(condensed, transform, config)
print("\ncoupling rows after each iteration (sum to 1 across classes):")
for i, couplings in enumerate(state.couplings):
    print(f"  iteration {i}: first row = {np.round(couplings[0, 0], 4)}")

probs = class_probabilities_batch(class_caps).values[0]
print("\nclass-capsule norms:", np.round(np.linalg.norm(class_caps.values[0], axis=1), 4))
print("class probabilities:", np.round(probs, 4), "-> predicted label", int(np.argmax(probs)))
