"""The parameter inventory: one ordered {name: shape} per configuration,
which init_model fills and checkpoint loading checks against; and what a
forward pass hands back."""

import hashlib

import numpy as np
import pytest

from textcaps.adversarial import SeededRng
from textcaps.capsule import (
    N_CLASSES,
    CapsuleHeadConfig,
    class_probabilities_batch,
    dynamic_routing_batch,
)
from textcaps.encoders import ENCODER_KINDS, EncoderConfig, encoder_forward_batch, init_parameters
from textcaps.model import forward_batch, init_model, parameter_shapes
from textcaps.tensor import _PRIMITIVES, Parameter, ShapeMismatchError, Tape, Tensor, grad_check
from textcaps.training import bce_loss_batch

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
        h.update(repr(p.shape).encode())
        h.update(np.ascontiguousarray(p.values, dtype="<f8").tobytes())
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
        assert list(shapes.items()) == [(n, p.shape) for n, p in params.items()]

    def test_fill_rules(self):
        shapes = {"a.b": (1, 3), "a.b_z": (1, 2), "a.bw.w_z": (4, 2), "a.w": (5, 2, 3, 3)}
        params = init_parameters(shapes, SeededRng(0))
        assert not params["a.b"].values.any()
        assert not params["a.b_z"].values.any()
        for name, limit in (("a.bw.w_z", np.sqrt(6.0 / 6)), ("a.w", np.sqrt(6.0 / 6))):
            values = params[name].values
            assert values.shape == shapes[name] and values.all()
            assert np.abs(values).max() <= limit


class TestForwardResult:
    @pytest.mark.parametrize("kind, capsule", CASES)
    def test_result_carries_every_stage_of_its_head(self, kind, capsule):
        head = HEAD if capsule else None
        params = init_model(_encoder(kind), head, E_D, T, SeededRng(7))
        x = Tensor(np.random.default_rng(7).uniform(-1, 1, size=(3, T, E_D)))
        out = forward_batch(_encoder(kind), head, params, x)
        fm = encoder_forward_batch(_encoder(kind), params, x)
        assert out.feature_map.values.tobytes() == fm.values.tobytes()
        capsule_stages = (out.condensed, out.class_capsules, out.routing)
        if not capsule:
            assert capsule_stages == (None, None, None)
            return
        assert all(stage is not None for stage in capsule_stages)
        assert out.condensed.shape == (3, HEAD.n_cc, HEAD.d)
        assert out.class_capsules.shape == (3, N_CLASSES, HEAD.d)
        assert len(out.routing.couplings) == HEAD.routing_iterations
        for a in (out.routing.logits, *out.routing.couplings):
            assert type(a) is np.ndarray and a.flags.c_contiguous
            assert a.shape == (3, HEAD.n_cc, N_CLASSES)
        want = class_probabilities_batch(out.class_capsules).values
        assert out.probs.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["cnn", "bigru"])
    def test_capsule_head_carries_its_routing(self, kind):
        params = init_model(_encoder(kind), HEAD, E_D, T, SeededRng(7))
        x = Tensor(np.random.default_rng(7).uniform(-1, 1, size=(3, T, E_D)))
        out = forward_batch(_encoder(kind), HEAD, params, x)
        v, state = dynamic_routing_batch(out.condensed, params["head.routing.w"], HEAD)
        assert out.class_capsules.values.tobytes() == v.values.tobytes()
        assert out.routing.logits.tobytes() == state.logits.tobytes()
        assert ([c.tobytes() for c in out.routing.couplings]
                == [c.tobytes() for c in state.couplings])

    def test_baseline_head_has_no_routing(self):
        params = init_model(_encoder("gru"), None, E_D, T, SeededRng(7))
        x = Tensor(np.random.default_rng(7).uniform(-1, 1, size=(2, T, E_D)))
        assert forward_batch(_encoder("gru"), None, params, x).routing is None


class TestLossGradient:
    """Finite differences of the loss a training step differentiates, the
    BCE of forward_batch's probabilities, over every parameter."""

    @pytest.mark.parametrize("kind, capsule", [("cnn", False), ("lstm", False),
                                               ("cnn", True)],
                             ids=["cnn-baseline", "lstm-baseline", "cnn-capsule"])
    def test_grad_check(self, kind, capsule):
        e_d, t, b = 4, 6, 3
        head = HEAD if capsule else None
        params = init_model(_encoder(kind), head, e_d, t, SeededRng(11))
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-1, 1, size=(b, t, e_d)))
        labels = rng.integers(0, 2, size=b)

        def loss(ps):
            probs = forward_batch(_encoder(kind), head, dict(zip(params, ps)), x).probs
            return bce_loss_batch(probs, labels)

        err = grad_check(loss, list(params.values()), epsilon=1e-5, sample_count=40,
                         rng=np.random.default_rng(12))
        assert err < 1e-6, f"relative error {err:.3e}"


class TestParameterCheck:
    """forward_batch checks the parameters against the inventory at x's shape."""

    @pytest.mark.parametrize("shape, extra, match", [
        ((2, 2, E_D), None, "^kernel size 3 exceeds sequence length 2$"),
        ((2, T, E_D - 1), None,
         r"^parameter 'encoder.cnn.k2.w' has shape \(10, 3\), expected \(8, 3\)$"),
        ((2, T + 1, E_D), None, r"^parameter 'head.compress.w' has shape \(3, 18\), expected \(3, 22\)$"),
        ((2, T, E_D), "head.extra.w", "^unexpected parameter 'head.extra.w'$"),
        ((T, E_D), None, r"^model input must be rank 3, got \(6, 5\)$"),
    ], ids=["kernel-longer-than-T", "wrong-E", "longer-T", "extra-parameter", "rank-2"])
    def test_mismatch_is_named(self, shape, extra, match):
        params = init_model(_encoder("cnn"), HEAD, E_D, T, SeededRng(7))
        if extra:
            params[extra] = Parameter(np.zeros((1, 1)))
        with pytest.raises(ShapeMismatchError, match=match):
            forward_batch(_encoder("cnn"), HEAD, params, Tensor(np.zeros(shape)))


# The benchmark workloads' encoders and heads over 60 tokens of 16 dimensions.
WORKLOAD_MODELS = [
    (EncoderConfig(kind="cnn", kernel_sizes=(3, 4, 5), filters_per_kernel=64),
     CapsuleHeadConfig(n_pc=8, n_cc=128, d=16)),
    (EncoderConfig(kind="bigru", hidden_dim=32), CapsuleHeadConfig(n_pc=8, n_cc=32, d=8)),
    (EncoderConfig(kind="cnn", kernel_sizes=(3, 4, 5), filters_per_kernel=16),
     CapsuleHeadConfig(n_pc=4, n_cc=16, d=8)),
]
WORKLOAD_IDS = ["train-cnn-caps", "train-bigru-desk", "score-adv"]


def _step_kinds(encoder, head, e_d=16, t=60):
    """The kind of every tape node a training step's forward and loss record."""
    params = init_model(encoder, head, e_d, t, SeededRng(7))
    x = Tensor(np.random.default_rng(3).uniform(-1, 1, size=(2, t, e_d)))
    with Tape() as tape:
        probs = forward_batch(encoder, head, params, x).probs
        bce_loss_batch(probs, np.array([0, 1]))
    return [node.kind for node in tape.nodes]


# The head and the loss of a capsule step, after the encoder's nodes.
CAPSULE_STEP_KINDS = {"matmul", "reshape", "squash", "routing", "l2norm", "softmax",
                      "sub", "relu", "add", "log", "mul", "sum"}


class TestTapeNodesPerStep:
    """A training step's forward and loss record a fixed number of tape nodes
    of fixed kinds; the stages a result carries add none."""

    @pytest.mark.parametrize("model, nodes", zip(WORKLOAD_MODELS, [14, 14, 14]),
                             ids=WORKLOAD_IDS)
    def test_forward_and_loss(self, model, nodes):
        assert len(_step_kinds(*model)) == nodes

    @pytest.mark.parametrize("model, encoder_kinds", zip(WORKLOAD_MODELS, [
        {"conv1d"}, {"gru_scan"}, {"conv1d"}]), ids=WORKLOAD_IDS)
    def test_kinds(self, model, encoder_kinds):
        kinds = _step_kinds(*model)
        assert set(kinds) == CAPSULE_STEP_KINDS | encoder_kinds
        assert kinds[-6:] == ["sub", "relu", "add", "log", "mul", "sum"]  # the loss
        assert "scale" not in kinds

    def test_kinds_no_model_runs(self, monkeypatch):
        # every application counts, recorded or not (a primitive applied to
        # constants alone records nothing)
        ran = set()
        for kind, (count, check, fn) in list(_PRIMITIVES.items()):
            def counted(arrays, kw, needs, kind=kind, fn=fn):
                ran.add(kind)
                return fn(arrays, kw, needs)
            monkeypatch.setitem(_PRIMITIVES, kind, (count, check, counted))
        for kind, capsule in CASES:
            _step_kinds(_encoder(kind), HEAD if capsule else None, E_D, T)
        assert set(_PRIMITIVES) - ran == {"concat", "div", "exp", "sigmoid", "slice", "tanh",
                                          "transpose"}


class TestBatchComposition:
    """A document scores the same alone and inside a 32-document batch,
    within COMPOSE_TOL of each stage's largest |value|. Folded products let
    BLAS pick its kernel by the batch size, so the last bits may differ
    (measured: at most about 1.7e-15, and 0 for the CNN capsule head). The
    compression's ``weight @ batch`` folds only from FOLD_MIN_ROWS weight
    rows; a smaller head runs the per-item products."""

    COMPOSE_TOL = 1e-14

    @pytest.mark.parametrize("encoder, head", WORKLOAD_MODELS, ids=WORKLOAD_IDS)
    def test_alone_and_in_batch_agree(self, encoder, head):
        params = init_model(encoder, head, 16, 60, SeededRng(7))
        x = np.random.default_rng(3).uniform(-1, 1, size=(32, 60, 16))
        whole = forward_batch(encoder, head, params, Tensor(x))
        for i in range(len(x)):
            alone = forward_batch(encoder, head, params, Tensor(x[i:i + 1]))
            for stage in ("condensed", "probs"):
                want = getattr(whole, stage).values[i]
                np.testing.assert_allclose(getattr(alone, stage).values[0], want, rtol=0,
                                           atol=self.COMPOSE_TOL * np.abs(want).max())
