"""The parameter inventory: one ordered {name: shape} per configuration,
which init_model fills and checkpoint loading checks against; and what a
forward pass hands back."""

import hashlib

import numpy as np
import pytest

from textcaps.adversarial import SeededRng
from textcaps.capsule import CapsuleHeadConfig, class_probabilities_batch, dynamic_routing_batch
from textcaps.encoders import ENCODER_KINDS, EncoderConfig, init_parameters
from textcaps.model import forward_batch, init_model, parameter_shapes
from textcaps.tensor import Tensor

HEAD = CapsuleHeadConfig(n_pc=2, n_cc=3, d=2, routing_iterations=2)
E_D, T = 5, 6
CASES = [(kind, capsule) for kind in ENCODER_KINDS for capsule in (True, False)]

# sha256 over (name, shape, little-endian float64 bytes) of every parameter,
# in order, of init_model(..., SeededRng(2024)), as drawn by the per-part
# initialisers that preceded the inventory.
PINNED = {
    ("cnn", True): "07bdaf6a1aeabb3868492180f27981a7a0bcefea8de742627a310828b1eec8bc",
    ("cnn", False): "d50602f0eb0514488c1be109cd900c7f98eba44c66d911f2ca9234485fd8e586",
    ("gru", True): "35dc6dbd7300f720a735d63abf3d2a44ac62cd9c37a1e206300a23f4b51b0d91",
    ("gru", False): "fa7e2ebac220f116e989df7b6a96dc96ae9781db70aa3d22e832f0010078162c",
    ("bigru", True): "b181e2b821746df6f70a726d5136204a6505eed2f4cbab2322e3272addf3e817",
    ("bigru", False): "53ae1ca14613fd2fba658682f8801236ebb8a48dea7c34735d621ba348dea1a2",
    ("cnn-bigru", True): "98e24345f44eba75bc424047ed1a5f8e4ce3f6ec34d1beff05b73adcce81caa8",
    ("cnn-bigru", False): "fb92bb23611245b74b927ef0f86d429685587f025bf04dfd882d5b8a853a46f2",
    ("lstm", True): "298c11b48dabb1b1e314e025a8668e73c474914810a3d21dc5174b9b44e8d403",
    ("lstm", False): "6cb2c14173a8ca7cd8933b2a69b116cc4183fa929b2df55a389a953d4154ae9d",
    ("bilstm", True): "7ad2eb624664050e9d47500b96079ed4c76968a4b1dca4091f89581b1d764eeb",
    ("bilstm", False): "bad40e0d10ceee849bc0d2528520952ef16110c63f007b5adc601b51b9fddd3b",
    ("cnn-bilstm", True): "b43e403e8dd9ce01f5f45f1d572a7c68203e9c1d3a1f9dc646421e5c180b85ee",
    ("cnn-bilstm", False): "a7ffa95a678189cb6bd83bc2cf696d3898bdd60b976dbcd448b9b2cda937c1bf",
}


def _encoder(kind):
    return EncoderConfig(kind=kind, kernel_sizes=(2, 3), filters_per_kernel=3, hidden_dim=4)


def _digest(params):
    h = hashlib.sha256()
    for name, p in params.items():
        h.update(name.encode())
        h.update(repr(p.tensor.shape).encode())
        h.update(np.ascontiguousarray(p.tensor.values, dtype="<f8").tobytes())
    return h.hexdigest()


class TestParameterInventory:
    @pytest.mark.parametrize("kind, capsule", CASES)
    def test_fixed_seed_draws_are_pinned(self, kind, capsule):
        params = init_model(_encoder(kind), HEAD if capsule else None, E_D, T, SeededRng(2024))
        assert _digest(params) == PINNED[(kind, capsule)]

    @pytest.mark.parametrize("kind, capsule", CASES)
    def test_inventory_is_what_init_fills(self, kind, capsule):
        head = HEAD if capsule else None
        params = init_model(_encoder(kind), head, E_D, T, SeededRng(0))
        shapes = parameter_shapes(_encoder(kind), head, E_D, T)
        assert list(shapes.items()) == [(n, p.tensor.shape) for n, p in params.items()]
        assert all(p.name == n for n, p in params.items())

    def test_fill_rules(self):
        shapes = {"a.b": (1, 3), "a.b_z": (1, 2), "a.bw.w_z": (4, 2), "a.w": (5, 2, 3, 3)}
        params = init_parameters(shapes, SeededRng(0))
        assert not params["a.b"].tensor.values.any()
        assert not params["a.b_z"].tensor.values.any()
        for name, limit in (("a.bw.w_z", np.sqrt(6.0 / 6)), ("a.w", np.sqrt(6.0 / 6))):
            values = params[name].tensor.values
            assert values.shape == shapes[name] and values.all()
            assert np.abs(values).max() <= limit


class TestForwardResult:
    @pytest.mark.parametrize("kind", ["cnn", "bigru"])
    def test_capsule_head_carries_its_routing(self, kind):
        params = init_model(_encoder(kind), HEAD, E_D, T, SeededRng(7))
        x = Tensor(np.random.default_rng(7).uniform(-1, 1, size=(3, T, E_D)))
        out = forward_batch(_encoder(kind), HEAD, params, x, want_stages=True)
        v, state = dynamic_routing_batch(out.condensed, params["head.routing.w"].tensor, HEAD)
        assert out.routing.couplings.values.tobytes() == state.couplings.values.tobytes()
        assert out.routing.logits.values.tobytes() == state.logits.values.tobytes()
        assert ([c.values.tobytes() for c in out.routing.coupling_history]
                == [c.values.tobytes() for c in state.coupling_history])
        assert out.routing.couplings.shape == (3, HEAD.n_cc, 2)
        # carrying the diagnostics changes no output
        assert out.probs.values.tobytes() == class_probabilities_batch(v).values.tobytes()
        plain = forward_batch(_encoder(kind), HEAD, params, x)
        assert plain.probs.values.tobytes() == out.probs.values.tobytes()
        assert plain.routing.couplings.values.tobytes() == state.couplings.values.tobytes()

    def test_baseline_head_has_no_routing(self):
        params = init_model(_encoder("gru"), None, E_D, T, SeededRng(7))
        x = Tensor(np.random.default_rng(7).uniform(-1, 1, size=(2, T, E_D)))
        assert forward_batch(_encoder("gru"), None, params, x).routing is None
