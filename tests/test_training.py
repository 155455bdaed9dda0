"""Training engine tests: splits, BCE, Adam, LR decay, metrics, determinism."""

import json
import math
import re
import sys
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textcaps import training
from textcaps.adversarial import PerturbationPolicy, SeededRng, augment_dataset
from textcaps.capsule import CapsuleHeadConfig
from textcaps.encoders import EncoderConfig
from textcaps.model import forward_batch, init_model
from textcaps.tensor import _CHUNK, Tape, Tensor, backward, log, Parameter, relu
from textcaps.synth import generate_embeddings, generate_synthetic_corpus
from textcaps.text import Document, EmbeddingTable, encode_batch
from textcaps.training import (
    AdamState,
    EmptyDatasetError,
    EpochOutOfRangeError,
    MissingGradientError,
    NonFiniteLossError,
    TooFewDocumentsError,
    TrainConfig,
    adam_step,
    bce_loss_batch,
    best_epoch,
    compute_metrics,
    config_from_dict,
    config_to_dict,
    evaluate,
    lr_at,
    run_ablation,
    split_dataset,
    train,
)


def reference_adversarial_stream(train_docs, table, config, epoch):
    """An epoch's adversarial training stream as two whole (N, T, E) blocks
    and their concatenation, the construction that ``train``'s one encode of
    row ids, embedded a batch at a time, replaced."""
    clean_ids, clean_labels = encode_batch(train_docs, table, config.n_s, config.n_w)
    adv_docs = augment_dataset(train_docs, PerturbationPolicy(), config.seed, epoch)
    adv_ids, adv_labels = encode_batch(adv_docs, table, config.n_s, config.n_w)
    return (np.concatenate([table.matrix[clean_ids], table.matrix[adv_ids]]),
            np.concatenate([clean_labels, adv_labels]))


def _doc(tokens, label):
    return Document(" ".join(tokens), [list(tokens)], label)


def _toy_corpus(n=40):
    # class 1 says "pos", class 0 says "neg"; trivially separable
    docs = []
    for i in range(n):
        label = i % 2
        marker = "pos" if label else "neg"
        docs.append(_doc([marker, "zz", marker, "qq"], label))
    return docs


def _toy_table():
    rng = np.random.default_rng(0)
    entries = {tok: rng.normal(size=4) for tok in ["pos", "neg", "zz", "qq"]}
    return EmbeddingTable(dimension=4, entries=entries)


def _toy_config(**kw):
    defaults = dict(
        encoder=EncoderConfig(kind="cnn", kernel_sizes=(2,), filters_per_kernel=3,
                              hidden_dim=3),
        head=CapsuleHeadConfig(n_pc=2, n_cc=3, d=2, routing_iterations=2),
        learning_rate=0.01,
        epochs=2,
        batch_size=8,
        seed=7,
        n_s=1,
        n_w=4,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSplitDataset:
    def test_exact_fraction_sizes(self):
        docs = _toy_corpus(10)
        tr, va, te = split_dataset(docs, (0.7, 0.2, 0.1), seed=1)
        assert (len(tr), len(va), len(te)) == (7, 2, 1)

    def test_remainder_goes_to_train(self):
        docs = _toy_corpus(13)
        tr, va, te = split_dataset(docs, (0.7, 0.2, 0.1), seed=1)
        assert (len(tr), len(va), len(te)) == (13 - 2 - 1, 2, 1)

    def test_determinism(self):
        docs = _toy_corpus(20)
        first = split_dataset(docs, (0.7, 0.2, 0.1), seed=5)
        second = split_dataset(docs, (0.7, 0.2, 0.1), seed=5)
        assert all([a is b for pa, pb in zip(first, second) for a, b in zip(pa, pb)])

    def test_partition_law(self):
        docs = _toy_corpus(17)
        tr, va, te = split_dataset(docs, (0.7, 0.2, 0.1), seed=9)
        combined = sorted(id(d) for d in tr + va + te)
        assert combined == sorted(id(d) for d in docs)

    def test_too_few_documents(self):
        with pytest.raises(TooFewDocumentsError):
            split_dataset(_toy_corpus(2), (0.7, 0.2, 0.1), seed=0)

    @pytest.mark.parametrize("n,sizes", [(3, "train 3, valid 0, test 0"),
                                         (9, "train 8, valid 1, test 0")])
    def test_empty_part_rejected(self, n, sizes):
        with pytest.raises(TooFewDocumentsError) as exc:
            split_dataset(_toy_corpus(n), (0.7, 0.2, 0.1), seed=0)
        assert sizes in str(exc.value)

    def test_smallest_nonempty_split(self):
        parts = split_dataset(_toy_corpus(10), (0.7, 0.2, 0.1), seed=0)
        assert [len(p) for p in parts] == [7, 2, 1]


class TestBceLoss:
    def test_half_half(self):
        loss = bce_loss_batch(Tensor([[0.5, 0.5]]), np.array([1]))
        np.testing.assert_allclose(loss.item(), math.log(2.0), rtol=0, atol=1e-12)

    def test_perfect_confidence(self):
        loss = bce_loss_batch(Tensor([[0.0, 1.0]]), np.array([1]))
        assert loss.item() == 0.0

    def test_clamp_ceiling(self):
        loss = bce_loss_batch(Tensor([[1.0, 1e-300]]), np.array([1]))
        np.testing.assert_allclose(loss.item(), -math.log(1e-12), rtol=0, atol=1e-9)

    def test_batch_mean_matches_singles(self):
        probs = np.array([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]])
        labels = np.array([0, 1, 1])
        batch = bce_loss_batch(Tensor(probs), labels).item()
        singles = np.mean([bce_loss_batch(Tensor(probs[i:i + 1]), labels[i:i + 1]).item()
                           for i in range(len(labels))])
        np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)

    def test_differentiable(self):
        p = Parameter([[0.4, 0.6]])  # already a distribution for this check
        with Tape() as tape:
            loss = bce_loss_batch(p, np.array([1]))
        backward(loss, tape)
        # d(-log p1)/dp1 = -1/0.6
        np.testing.assert_allclose(p.grad, [[0.0, -1.0 / 0.6]], rtol=0, atol=1e-12)


# The composed BCE that the weighted log-sum replaced, kept as the reference:
# a one-hot pick, the clamped log of the picked column, then sum and scale.
def reference_bce_loss_batch(probs: Tensor, labels: np.ndarray) -> Tensor:
    b, n_cls = probs.shape
    onehot = np.zeros((b, n_cls))
    onehot[np.arange(b), labels] = 1.0
    picked = (probs * Tensor(onehot)).sum(axis=1)
    floor = Tensor(np.full((1,), 1e-12))
    return log(relu(picked - floor) + floor).sum().scale(-1.0 / b)


def _bce_cases():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(32, 2)) * 3.0
    random = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    below = np.array([[1e-13, 1.0], [0.0, 1.0], [1.0, 1e-300], [1e-12, 1.0], [0.3, 0.7]])
    ones = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    return {"random": (random, rng.integers(0, 2, size=32)),
            "below-floor": (below, np.array([0, 0, 1, 0, 1])),
            "exactly-one": (ones, np.array([0, 1, 0])),
            "three-classes": (rng.dirichlet(np.ones(3), size=7), rng.integers(0, 3, size=7))}


class TestBceMatchesReference:
    """The weighted log-sum and the composed reference: the same probs gradient
    at every label entry, byte for byte (zero elsewhere), and the same loss
    within 4 ulp; the sums run over different terms."""

    @pytest.mark.parametrize("case", sorted(_bce_cases()))
    def test_gradient_and_loss(self, case):
        probs, labels = _bce_cases()[case]
        results = []
        for loss_fn in (bce_loss_batch, reference_bce_loss_batch):
            p = Parameter(probs)
            with Tape() as tape:
                loss = loss_fn(p, labels)
            backward(loss, tape)
            results.append((loss.item(), p.grad))
        (loss, grad), (ref_loss, ref_grad) = results
        at_label = (np.arange(len(labels)), labels)
        assert grad[at_label].tobytes() == ref_grad[at_label].tobytes()
        off_label = np.ones(probs.shape, dtype=bool)
        off_label[at_label] = False
        assert not grad[off_label].any() and not ref_grad[off_label].any()
        assert abs(loss - ref_loss) <= 4 * np.spacing(abs(ref_loss))


# The per-name Adam that the flat-vector adam_step replaced, kept as the
# reference: both must move the parameters and moments by the same bytes.
@dataclass
class ReferenceAdamState:
    step_count: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    values: Optional[np.ndarray] = None  # set by reference_train_step only


def reference_adam_step(params, state: ReferenceAdamState, lr: float) -> None:
    state.step_count += 1
    t = state.step_count
    for name in sorted(params):
        p = params[name]
        grad = p.grad
        if grad is None:
            raise MissingGradientError(f"parameter {name!r} has no gradient")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.values)
            v = np.zeros_like(p.values)
        m = training._BETA1 * m + (1.0 - training._BETA1) * grad
        v = training._BETA2 * v + (1.0 - training._BETA2) * grad * grad
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - training._BETA1 ** t)
        v_hat = v / (1.0 - training._BETA2 ** t)
        p.values -= lr * m_hat / (np.sqrt(v_hat) + training._EPSILON)
        p.grad = None


# The whole-vector adam_step and its arena binding that the blocked update
# replaced, kept as the reference: the same bytes of values, m and v.
def _whole_vector_bind_arena(params, state: AdamState) -> None:
    size = sum(p.size for p in params.values())
    state.values = np.empty(size)
    state.m, state.v = np.zeros(size), np.zeros(size)
    state.work = (np.empty(size), np.empty(size))
    offset = 0
    for p in params.values():
        slot = state.values[offset:offset + p.size].reshape(p.shape)
        slot[...] = p.values
        p.values = slot
        offset += slot.size


def whole_vector_adam_step(params, state: AdamState, lr: float) -> None:
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise MissingGradientError(f"parameter {min(missing)!r} has no gradient")
    if state.values is None:
        _whole_vector_bind_arena(params, state)
    g, work = state.work
    np.concatenate([p.grad for p in params.values()], axis=None, out=g)
    training.clear_grads(params.values())
    state.step_count += 1
    t = state.step_count
    m, v = state.m, state.v
    # Each expression keeps the per-element order of the per-name form, which
    # fixes the bytes: m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g.
    m *= training._BETA1
    np.multiply(g, 1.0 - training._BETA1, out=work)
    m += work
    v *= training._BETA2
    np.multiply(g, 1.0 - training._BETA2, out=work)
    work *= g
    v += work
    # values -= (lr * m_hat) / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - training._BETA1 ** t, out=g)
    g *= lr
    np.divide(v, 1.0 - training._BETA2 ** t, out=work)
    np.sqrt(work, out=work)
    work += training._EPSILON
    g /= work
    state.values -= g


def reference_train_step(params, state: ReferenceAdamState, lr: float) -> None:
    """The reference step, then the parameters rebound as views of one
    vector, the layout that train's best-epoch snapshot copies."""
    reference_adam_step(params, state, lr)
    state.values = np.concatenate([p.values for p in params.values()], axis=None)
    offset = 0
    for p in params.values():
        p.values = state.values[offset:offset + p.size].reshape(p.shape)
        offset += p.size


def _slot_offsets(params, state) -> list:
    """Each parameter's element offset into state.values."""
    base = state.values.__array_interface__["data"][0]
    return [(p.values.__array_interface__["data"][0] - base) // state.values.itemsize
            for p in params.values()]


_SPECIAL_GRADS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
                           1.7e308, -1.7e308])


def _mixed_grads(rng, shape) -> np.ndarray:
    """Normals scaled across the float64 range, with signed zeros,
    subnormals and near-overflow values mixed in."""
    scaled = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    special = rng.choice(_SPECIAL_GRADS, size=shape)
    return np.where(rng.random(shape) < 0.3, special, scaled)


class TestAdam:
    def test_first_step_hand_arithmetic(self):
        p = Parameter(np.zeros(3))
        p.grad = np.ones(3)
        state = AdamState()
        adam_step({"w": p}, state, lr=0.1)
        # t=1: m_hat = v_hat = 1, update = -0.1 / (1 + 1e-8)
        expected = -0.1 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.values, expected, rtol=0, atol=1e-12)
        assert state.step_count == 1
        assert p.grad is None

    def test_zero_gradient_keeps_parameters(self):
        p = Parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        adam_step({"w": p}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_missing_gradient_names_parameter(self):
        p = Parameter(np.zeros(2))
        with pytest.raises(MissingGradientError) as exc:
            adam_step({"encoder.gru.w_z": p}, AdamState(), lr=0.1)
        assert "encoder.gru.w_z" in str(exc.value)

    def test_determinism(self):
        def run():
            p = Parameter(np.linspace(-1, 1, 4))
            state = AdamState()
            for step in range(5):
                p.grad = np.sin(np.arange(4) + step)
                adam_step({"w": p}, state, lr=0.05)
            return p.values.tobytes()

        assert run() == run()

    def test_missing_gradient_changes_nothing(self):
        # dict order z, a, b; a has a gradient and sorts before the missing b
        a = Parameter(np.ones(2))
        a.grad = np.full(2, 0.5)
        params = {"z": Parameter(np.zeros(2)), "a": a,
                  "b": Parameter(np.zeros(2))}
        state = AdamState()
        with pytest.raises(MissingGradientError, match=r"^parameter 'b' has no gradient$"):
            adam_step(params, state, lr=0.1)
        assert state.step_count == 0 and state.values is None
        np.testing.assert_array_equal(a.values, [1.0, 1.0])
        np.testing.assert_array_equal(a.grad, [0.5, 0.5])

    @settings(max_examples=100, deadline=None)
    @given(shapes=st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple),
                           min_size=1, max_size=4),
           steps=st.integers(1, 50), lr=st.floats(1e-6, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_bytes(self, shapes, steps, lr, seed):
        rng = np.random.default_rng(seed)
        # names sort in the reverse of params order
        init = {f"w{len(shapes) - i}": rng.standard_normal(shape)
                for i, shape in enumerate(shapes)}
        flat = {name: Parameter(values.copy()) for name, values in init.items()}
        ref = {name: Parameter(values.copy()) for name, values in init.items()}
        state, ref_state = AdamState(), ReferenceAdamState()
        with np.errstate(all="ignore"):
            for _ in range(steps):
                for name, values in init.items():
                    grad = _mixed_grads(rng, values.shape)
                    flat[name].grad = grad.copy()
                    ref[name].grad = grad.copy()
                adam_step(flat, state, lr)
                reference_adam_step(ref, ref_state, lr)
        assert state.step_count == ref_state.step_count == steps
        for got, want in [(state.values, {n: p.values for n, p in ref.items()}),
                          (state.m, ref_state.m), (state.v, ref_state.v)]:
            assert got.tobytes() == np.concatenate([want[n] for n in init], axis=None).tobytes()

    @pytest.mark.parametrize("sizes", [(40_000, 30_001, 7), (5,)], ids=["blocks", "small"])
    def test_matches_whole_vector_reference_bytes(self, sizes):
        # 40,000 + 30,001 + 7 elements span three blocks, the last one ragged
        rng = np.random.default_rng(41)
        init = {f"w{i}": rng.standard_normal(size) for i, size in enumerate(sizes)}
        blocked = {name: Parameter(values.copy()) for name, values in init.items()}
        whole = {name: Parameter(values.copy()) for name, values in init.items()}
        state, whole_state = AdamState(), AdamState()
        with np.errstate(all="ignore"):
            for _ in range(3):
                for name, values in init.items():
                    grad = _mixed_grads(rng, values.shape)
                    blocked[name].grad = grad.copy()
                    whole[name].grad = grad.copy()
                adam_step(blocked, state, 1e-3)
                whole_vector_adam_step(whole, whole_state, 1e-3)
        assert state.work[1].size == min(sum(sizes), _CHUNK)
        for got, want in [(state.values, whole_state.values), (state.m, whole_state.m),
                          (state.v, whole_state.v)]:
            assert got.tobytes() == want.tobytes()


class TestLrSchedule:
    def test_epoch_zero_is_base_rate(self):
        assert lr_at(0, _toy_config(learning_rate=5e-5, epochs=20)) == 5e-5

    def test_midpoint(self):
        np.testing.assert_allclose(lr_at(10, _toy_config(learning_rate=5e-5, epochs=20)),
                                   2.5e-5, rtol=1e-12)

    def test_final_epoch(self):
        np.testing.assert_allclose(lr_at(19, _toy_config(learning_rate=5e-5, epochs=20)),
                                   2.5e-6, rtol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(EpochOutOfRangeError):
            lr_at(20, _toy_config(epochs=20))


class TestMetrics:
    def test_hand_confusion_matrix(self):
        # TP=3, FP=1, FN=2, TN=4
        labels = np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 0])
        preds = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        m = compute_metrics(labels, preds, 0.0, "test")
        assert (m.tp, m.fp, m.fn, m.tn) == (3, 1, 2, 4)
        assert m.precision == 0.75 and m.recall == 0.6 and m.accuracy == 0.7

    def test_degenerate_conventions(self):
        all_neg_pred = compute_metrics(np.array([1, 0]), np.array([0, 0]), 0.0, "t")
        assert all_neg_pred.precision == 1.0 and all_neg_pred.recall == 0.0
        no_positives = compute_metrics(np.array([0, 0]), np.array([0, 1]), 0.0, "t")
        assert no_positives.recall == 1.0

    def test_identities_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            labels = rng.integers(0, 2, size=n)
            preds = rng.integers(0, 2, size=n)
            m = compute_metrics(labels, preds, 0.0, "t")
            assert round(m.accuracy * m.total) == m.tp + m.tn
            assert round(m.precision * (m.tp + m.fp)) == m.tp or (m.tp + m.fp) == 0
            assert round(m.recall * (m.tp + m.fn)) == m.tp or (m.tp + m.fn) == 0

    def test_degenerate_predictor_on_balanced_set(self):
        labels = np.array([0, 1] * 10)
        preds = np.zeros(20, dtype=int)
        m = compute_metrics(labels, preds, 0.0, "t")
        assert m.accuracy == 0.5 and m.recall == 0.0


class TestTrainLoop:
    def test_single_epoch_single_record(self):
        config = _toy_config(epochs=1)
        _, history = train(config, _toy_corpus(), _toy_table())
        assert len(history) == 1
        assert history[0].train.split == "train" and history[0].valid.split == "valid"

    def test_adversarial_doubles_stream(self):
        config = _toy_config(adversarial=True, epochs=1)
        docs = _toy_corpus()
        _, history = train(config, docs, _toy_table())
        n_train = len(split_dataset(docs, config.split, config.seed)[0])
        assert history[0].train.total == 2 * n_train

    def test_bitwise_determinism(self):
        config = _toy_config(adversarial=True)
        docs = _toy_corpus()

        def run():
            params, history = train(config, docs, _toy_table())
            payload = b"".join(params[n].values.tobytes() for n in sorted(params))
            stats = [(r.train.loss, r.valid.accuracy) for r in history]
            return payload, stats

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_one_step_decreases_loss_at_some_lr(self):
        docs = _toy_corpus(16)
        table = _toy_table()
        decreased = False
        for lr in (1e-2, 1e-3, 1e-4):
            config = _toy_config(learning_rate=lr, epochs=1, batch_size=16,
                                 split=(0.8, 0.1, 0.1))
            from textcaps.adversarial import SeededRng
            from textcaps.model import forward_batch, init_model
            from textcaps.text import encode_batch

            tr, _, _ = split_dataset(docs, config.split, config.seed)
            ids, labels = encode_batch(tr, table, config.n_s, config.n_w)
            blocks = table.embed(ids)
            params = init_model(config.encoder, config.head, table.dimension,
                                config.n_s * config.n_w, SeededRng(3))

            def batch_loss(record=False):
                if record:
                    with Tape() as tape:
                        out = forward_batch(config.encoder, config.head, params,
                                            Tensor(blocks))
                        loss = bce_loss_batch(out.probs, labels)
                    backward(loss, tape)
                else:
                    out = forward_batch(config.encoder, config.head, params,
                                        Tensor(blocks))
                    loss = bce_loss_batch(out.probs, labels)
                return loss.item()

            before = batch_loss(record=True)
            adam_step(params, AdamState(), lr)
            after = batch_loss(record=False)
            if after < before:
                decreased = True
                break
        assert decreased

    def test_augments_every_epoch(self, monkeypatch):
        config = _toy_config(adversarial=True, epochs=3)
        docs = _toy_corpus()
        calls = []
        augment = training.augment_dataset

        def counted(train_docs, policy, seed, epoch):
            calls.append(epoch)
            return augment(train_docs, policy, seed, epoch)

        monkeypatch.setattr(training, "augment_dataset", counted)

        def run():
            params, history = train(config, docs, _toy_table())
            payload = b"".join(params[n].values.tobytes() for n in sorted(params))
            return payload, [(r.train.loss, r.valid.loss) for r in history]

        first = run()
        assert calls == [0, 1, 2]  # fresh perturbations each epoch
        assert run() == first

    def test_adversarial_stream_matches_the_concatenated_encodings(self, monkeypatch):
        # train encodes each epoch's clean and adversarial documents in one call
        config = _toy_config(adversarial=True, epochs=3)
        docs, table = _toy_corpus(), _toy_table()
        train_docs, valid_docs, _ = split_dataset(docs, config.split, config.seed)
        encoded = []

        def recorded(*args):
            out = encode_batch(*args)
            encoded.append((len(args[0]), out))
            return out

        monkeypatch.setattr(training, "encode_batch", recorded)
        train(config, docs, table)
        assert [n for n, _ in encoded] == [len(valid_docs)] + [2 * len(train_docs)] * 3
        for epoch, (_, (ids, labels)) in enumerate(encoded[1:]):
            want_blocks, want_labels = reference_adversarial_stream(train_docs, table, config,
                                                                    epoch)
            blocks = table.matrix[ids]
            assert blocks.shape == want_blocks.shape and blocks.tobytes() == want_blocks.tobytes()
            assert labels.dtype == want_labels.dtype and labels.tobytes() == want_labels.tobytes()

    def test_clean_stream_is_encoded_once_before_validation(self, monkeypatch):
        config = _toy_config(epochs=3)
        docs = _toy_corpus()
        train_docs, valid_docs, _ = split_dataset(docs, config.split, config.seed)
        counts = []

        def counted(*args):
            counts.append(len(args[0]))
            return encode_batch(*args)

        monkeypatch.setattr(training, "encode_batch", counted)
        train(config, docs, _toy_table())
        assert counts == [len(train_docs), len(valid_docs)]

    def test_adversarial_peak_memory(self):
        # numpy reports its buffers to tracemalloc. In units of one clean
        # training block N: one epoch's stream is 2 N, the validation block
        # 0.29 N, and encoding a stream briefly holds its row ids beside it.
        # The previous epoch's stream is freed before the next is encoded.
        # Measured 2.58 N; holding the last stream across the encode reads
        # 4.52 N, and a clean block kept beside a concatenated stream 6.46 N.
        docs, vocab = generate_synthetic_corpus(1000, 500, 3)
        table = EmbeddingTable(dimension=64, entries=dict(zip(vocab, generate_embeddings(
            vocab, 64, 3))))
        config = TrainConfig(encoder=EncoderConfig(kind="cnn", kernel_sizes=(3,),
                                                   filters_per_kernel=8),
                             head=None, adversarial=True, epochs=3, n_s=5, n_w=20, seed=3)
        n_train = len(split_dataset(docs, config.split, config.seed)[0])
        block = n_train * config.n_s * config.n_w * table.dimension * 8
        tracemalloc.start()
        try:
            train(config, docs, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * block, f"peak {peak / block:.2f} clean blocks"

    def test_adversarial_train_peaks_below_one_clean_block(self):
        # numpy reports its buffers to tracemalloc. Splits are held as row
        # ids (1/E of a block each) and each step embeds only its batch; the
        # adversarial copies' documents and the work arrays come on top.
        # Measured 0.33 clean blocks; the whole-block path read 2.58.
        docs, vocab = generate_synthetic_corpus(1000, 500, 3)
        table = EmbeddingTable(dimension=64, entries=dict(zip(vocab, generate_embeddings(
            vocab, 64, 3))))
        config = TrainConfig(encoder=EncoderConfig(kind="cnn", kernel_sizes=(3,),
                                                   filters_per_kernel=8),
                             head=None, adversarial=True, epochs=3, n_s=5, n_w=20, seed=3)
        n_train = len(split_dataset(docs, config.split, config.seed)[0])
        block = n_train * config.n_s * config.n_w * table.dimension * 8
        tracemalloc.start()
        try:
            train(config, docs, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block, f"peak {peak / block:.2f} clean blocks"

    def test_evaluate_peaks_below_one_block(self):
        # 2,000 documents scored at score-adv's model shapes; the block their
        # (N, T, E) encoding would take is never built. Measured 0.54 blocks:
        # the row ids take 1/E of one, and the rest is one batch's arrays,
        # which do not grow with N.
        docs, vocab = generate_synthetic_corpus(2000, 500, 5)
        table = EmbeddingTable(dimension=16, entries=dict(zip(vocab, generate_embeddings(
            vocab, 16, 5))))
        config = config_from_dict({
            "encoder": {"kind": "cnn", "kernel_sizes": [3, 4, 5], "filters_per_kernel": 16},
            "head": {"type": "capsule", "n_pc": 4, "n_cc": 16, "d": 8}, "n_s": 5, "n_w": 12})
        params = init_model(config.encoder, config.head, table.dimension,
                            config.n_s * config.n_w, SeededRng(5))
        block = len(docs) * config.n_s * config.n_w * table.dimension * 8
        tracemalloc.start()
        try:
            metrics = evaluate(params, docs, table, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metrics.total == len(docs)
        assert peak < block, f"peak {peak / block:.2f} blocks"

    @pytest.mark.parametrize("kind", ["cnn", "bigru"])
    def test_only_parameters_get_gradients(self, monkeypatch, kind):
        # every train step: the input block, the label weights and the BCE
        # floor constant get no grad; every parameter gets one
        config = _toy_config(encoder=EncoderConfig(kind=kind, kernel_sizes=(2,),
                                                   filters_per_kernel=3, hidden_dim=3),
                             epochs=1)
        forward, real_backward = training.forward_batch, training.backward
        last = {}
        steps = []

        def recording_forward(encoder, head, params, x, **kw):
            last.update(params=params, x=x)
            return forward(encoder, head, params, x, **kw)

        def checked_backward(loss, tape):
            real_backward(loss, tape)
            tensors = {id(t): t for node in tape.nodes for t in (*node.inputs, node.out)}
            tensors[id(last["x"])] = last["x"]
            constants = [t for t in tensors.values() if not t.needs_grad]
            with_grad = {key for key, t in tensors.items() if t.grad is not None}
            steps.append((with_grad == {id(p) for p in last["params"].values()},
                          len(constants), any(t.grad is not None for t in constants)))

        monkeypatch.setattr(training, "forward_batch", recording_forward)
        monkeypatch.setattr(training, "backward", checked_backward)
        train(config, _toy_corpus(), _toy_table())
        # constants: the block, the label weights, the floor
        assert steps and steps == [(True, 3, False)] * len(steps)

    def test_baseline_head_runs(self):
        config = _toy_config(head=None, epochs=1)
        params, history = train(config, _toy_corpus(), _toy_table())
        assert "head.dense.w" in params
        assert len(history) == 1

    def test_evaluate_empty_dataset(self):
        config = _toy_config()
        params, _ = train(config, _toy_corpus(), _toy_table())
        with pytest.raises(EmptyDatasetError):
            evaluate(params, [], _toy_table(), config)

    def test_learns_separable_toy_corpus(self):
        config = _toy_config(epochs=6, learning_rate=0.02)
        docs = _toy_corpus(60)
        params, history = train(config, docs, _toy_table())
        _, _, test_docs = split_dataset(docs, config.split, config.seed)
        metrics = evaluate(params, test_docs, _toy_table(), config)
        assert metrics.accuracy >= 0.8

    @pytest.mark.parametrize("overrides", [
        pytest.param({"encoder": EncoderConfig(kind="cnn", kernel_sizes=(2, 3),
                                               filters_per_kernel=3),
                      "adversarial": True}, id="cnn-capsule-adv"),
        pytest.param({"encoder": EncoderConfig(kind="bigru", hidden_dim=3)},
                     id="bigru-capsule"),
        pytest.param({"encoder": EncoderConfig(kind="cnn-bilstm", kernel_sizes=(2,),
                                               filters_per_kernel=3, hidden_dim=3),
                      "head": None}, id="cnn-bilstm-baseline"),
    ])
    def test_matches_reference_adam(self, monkeypatch, overrides):
        config = _toy_config(epochs=3, **overrides)
        params, history = train(config, _toy_corpus(), _toy_table())
        monkeypatch.setattr(training, "AdamState", ReferenceAdamState)
        monkeypatch.setattr(training, "adam_step", reference_train_step)
        ref_params, ref_history = train(config, _toy_corpus(), _toy_table())
        assert history == ref_history
        assert list(params) == list(ref_params)
        for name, p in params.items():
            assert p.values.tobytes() == ref_params[name].values.tobytes()

    def test_returns_best_epoch_parameters(self, monkeypatch):
        states = []
        step = training.adam_step

        def spy(params, state, lr):
            step(params, state, lr)
            states.append(state)

        monkeypatch.setattr(training, "adam_step", spy)
        config = _toy_config(epochs=3)
        docs, table = _toy_corpus(), _toy_table()
        params, history = train(config, docs, table)
        best = best_epoch(history)
        # the best epoch is not the last, and the last one's parameters differ
        assert best is not history[-1]
        assert best.valid.loss != history[-1].valid.loss
        _, valid_docs, _ = split_dataset(docs, config.split, config.seed)
        assert replace(evaluate(params, valid_docs, table, config), split="valid") == best.valid
        state = states[0]
        assert all(s is state for s in states)
        sizes = [p.size for p in params.values()]
        assert _slot_offsets(params, state) == list(np.cumsum([0] + sizes[:-1]))
        assert all(p.values.base is state.values for p in params.values())


class TestAblation:
    def test_four_rows_with_table_labels(self):
        docs = _toy_corpus(40)
        rows = run_ablation(_toy_config(epochs=1), docs, _toy_table())
        labels = [r.label for r in rows]
        assert labels == ["CNN", "+Adv", "+Capsule", "+Adv+Capsule"]
        # all rows share identical test membership: same seed/split
        totals = {r.test.total for r in rows}
        assert len(totals) == 1

    def test_rerun_identical(self):
        docs = _toy_corpus(40)
        a = run_ablation(_toy_config(epochs=1), docs, _toy_table())
        b = run_ablation(_toy_config(epochs=1), docs, _toy_table())
        assert [(r.label, r.test.accuracy, r.valid.accuracy) for r in a] == \
               [(r.label, r.test.accuracy, r.valid.accuracy) for r in b]


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        config = _toy_config(adversarial=True, learning_rate=3e-3, epochs=4, batch_size=7,
                             split=(0.6, 0.3, 0.1), seed=9, n_s=3, n_w=5,
                             head=CapsuleHeadConfig(n_pc=3, n_cc=5, d=2, routing_iterations=2))
        assert config_from_dict(config_to_dict(config)) == config

    def test_baseline_marker(self):
        config = _toy_config(head=None)
        data = config_to_dict(config)
        assert data["head"] == {"type": "baseline"}
        assert config_from_dict(data).head is None

    def test_split_validation(self):
        with pytest.raises(ValueError):
            _toy_config(split=(0.5, 0.2, 0.2))


def _flat(data, prefix=""):
    out = {}
    for key, value in data.items():
        if isinstance(value, dict):
            out.update(_flat(value, prefix + key + "."))
        else:
            out[prefix + key] = value
    return out


class TestReadmeConfig:
    # the keys whose defaults README's text says differ from its example
    NOT_DEFAULTS = {"adversarial", "seed"}

    def test_example_shows_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert ("every other key takes the value shown above when absent, except "
                "`adversarial` and `seed`,") in " ".join(readme.split())
        example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        shown = _flat(config_to_dict(config_from_dict(example)))
        defaults = _flat(config_to_dict(config_from_dict(
            {"encoder": {"kind": example["encoder"]["kind"]}})))
        assert _flat(example).keys() == shown.keys() == defaults.keys()
        assert {key for key in shown if shown[key] != defaults[key]} == self.NOT_DEFAULTS


@pytest.fixture(scope="module")
def bench_workloads():
    """The benchmark's workload definitions, read from perfbench/bench.py."""
    home = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, home)
    try:
        import bench
    finally:
        sys.path.remove(home)
    return bench.WORKLOADS


class TestStrictConfig:
    @pytest.mark.parametrize("change, key", [
        ({"learning_rat": 1e-3}, "learning_rat"),
        ({"threads": 1}, "threads"),
        ({"seed": "abc"}, "seed"),
        ({"seed": True}, "seed"),
        ({"epochs": 2.0}, "epochs"),
        ({"learning_rate": "fast"}, "learning_rate"),
        ({"adversarial": 1}, "adversarial"),
        ({"split": 0.7}, "split"),
        ({"split": [0.7, "0.2", 0.1]}, "split"),
        ({"lr_decay": "cosine"}, "lr_decay"),
        ({"encoder": "cnn"}, "encoder"),
        ({"encoder": {"kind": "cnn", "hidden": 3}}, "encoder.hidden"),
        ({"encoder": {"kind": "rnn"}}, "encoder.kind"),
        ({"encoder": {"kernel_sizes": [2]}}, "encoder.kind"),
        ({"encoder": {"kind": "cnn", "kernel_sizes": [2.5]}}, "encoder.kernel_sizes"),
        ({"head": {"type": "baselin"}}, "head.type"),
        ({"head": {"type": "capsule", "n_pcc": 2}}, "head.n_pcc"),
        ({"head": {"type": "capsule", "d": None}}, "head.d"),
        ({"head": {"type": "baseline", "n_pc": 2}}, "head.n_pc"),
        ({"lr_decay": "epoch"}, "lr_decay"),
        ({"adversarial_resample": True}, "adversarial_resample"),
        ({"head": {"type": "capsule", "n_cls": 2}}, "head.n_cls"),
    ])
    def test_rejects_naming_the_key(self, change, key):
        data = {**config_to_dict(_toy_config()), **change}
        with pytest.raises(ValueError, match=f"'{key}'"):
            config_from_dict(data)

    @pytest.mark.parametrize("change, key", [
        ({"learning_rate": math.nan}, "learning_rate"),
        ({"learning_rate": math.inf}, "learning_rate"),
        ({"learning_rate": 0}, "learning_rate"),
        ({"learning_rate": -0.5}, "learning_rate"),
        ({"learning_rate": 10 ** 400}, "learning_rate"),
        ({"split": [math.nan, 0.3, 0.3]}, "split"),
        ({"split": [0.4, math.inf, 0.3]}, "split"),
        ({"split": [0.7, 0.2, -math.inf]}, "split"),
    ])
    def test_rejects_non_finite_or_non_positive(self, change, key):
        data = {**config_to_dict(_toy_config()), **change}
        with pytest.raises(ValueError, match=f"^config key '{key}' must be"):
            config_from_dict(data)

    def test_split_rule_shared_with_split_dataset(self):
        with pytest.raises(ValueError, match="^config key 'split' must be"):
            split_dataset(_toy_corpus(10), (math.nan, 0.3, 0.3), seed=0)

    def test_routing_iterations_bounded(self):
        data = {**config_to_dict(_toy_config())}
        data["head"] = {**data["head"], "routing_iterations": 11}
        with pytest.raises(ValueError, match="routing_iterations must be <= 10, got 11"):
            config_from_dict(data)
        data["head"]["routing_iterations"] = 10
        assert config_from_dict(data).head.routing_iterations == 10

    def test_missing_encoder(self):
        data = config_to_dict(_toy_config())
        del data["encoder"]
        with pytest.raises(ValueError, match="'encoder' is missing"):
            config_from_dict(data)

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            config_from_dict([1, 2])

    def test_defaults_and_int_for_float(self):
        config = config_from_dict({"encoder": {"kind": "gru"}, "learning_rate": 1})
        assert config.learning_rate == 1 and config.head == CapsuleHeadConfig()
        assert config == TrainConfig(encoder=EncoderConfig(kind="gru"),
                                     head=CapsuleHeadConfig(), learning_rate=1.0)

    def test_every_bench_workload_loads(self, bench_workloads):
        for workload in bench_workloads.values():
            config = config_from_dict({**workload.config, "seed": 1})
            assert config_from_dict(config_to_dict(config)) == config


class TestNonFiniteGuard:
    def test_training_step_loss(self):
        # lr 1e300 keeps every parameter finite but overflows the next forward
        config = _toy_config(learning_rate=1e300, batch_size=4)
        with pytest.raises(NonFiniteLossError,
                           match=r"^training loss is nan at epoch 0, step 1; "
                                 r"every parameter is finite$"):
            train(config, _toy_corpus(), _toy_table())

    def test_validation_loss(self):
        # one step per epoch, so the first NaN is met by validation
        config = _toy_config(learning_rate=1e300, batch_size=64)
        with pytest.raises(NonFiniteLossError,
                           match=r"^validation loss is nan at epoch 0, step 1; "):
            train(config, _toy_corpus(), _toy_table())

    def test_names_first_non_finite_parameter(self, monkeypatch):
        step = training.adam_step

        def poisoned_step(params, state, lr):
            step(params, state, lr)
            if state.step_count == 3:
                params["head.routing.w"].values[0, 0, 0, 0] = np.inf
                params["head.primary.w"].values[0, 0] = np.nan

        monkeypatch.setattr(training, "adam_step", poisoned_step)
        with pytest.raises(NonFiniteLossError,
                           match=r"^training loss is nan at epoch 0, step 3; "
                                 r"first non-finite parameter 'head.primary.w'$"):
            train(_toy_config(batch_size=4), _toy_corpus(), _toy_table())


class TestTapeShape:
    """One forward+loss on each benchmark training config: every matmul
    multiplies by a weight (no constant ones operand), the CNN encoder is one
    fused conv1d over weights that writes every kernel's map, the recurrent
    encoder is one fused scan over weights that runs both directions and
    writes the whole feature map (no concat joins either), routing is one
    fused node whose transform is a weight, and the node counts are those of
    the fused engine, which records nothing computed from constants alone."""

    @pytest.mark.parametrize("name, nodes, matmuls", [
        ("train-cnn-caps", 14, 2), ("train-bigru-desk", 14, 2)])
    def test_only_weight_products(self, bench_workloads, name, nodes, matmuls):
        config = config_from_dict({**bench_workloads[name].config, "seed": 0})
        e_d = 4
        params = init_model(config.encoder, config.head, e_d, config.n_s * config.n_w,
                            SeededRng(0))
        x = Tensor(np.random.default_rng(0).normal(size=(2, config.n_s * config.n_w, e_d)))
        with Tape() as tape:
            out = forward_batch(config.encoder, config.head, params, x)
            bce_loss_batch(out.probs, np.array([0, 1]))
        weights = {id(p) for p in params.values()}
        for node in tape.nodes:
            if node.kind in ("reshape", "transpose") and id(node.inputs[0]) in weights:
                weights.add(id(node.out))
            elif node.kind == "matmul":
                assert any(id(t) in weights for t in node.inputs)
            elif node.kind in ("conv1d", "gru_scan"):
                assert all(id(t) in weights for t in node.inputs[1:])
            elif node.kind == "routing":
                assert id(node.inputs[1]) in weights
        kinds = [node.kind for node in tape.nodes]
        assert (len(kinds), kinds.count("matmul")) == (nodes, matmuls)
        assert kinds.count("gru_scan") == (1 if config.encoder.kind == "bigru" else 0)
        assert kinds.count("conv1d") == (1 if config.encoder.kind == "cnn" else 0)
        assert "concat" not in kinds
        assert (kinds.count("routing"), kinds.count("squash")) == (1, 1)
