"""Training engine: Adam, binary cross-entropy, linear LR decay, splits,
metrics, and the ablation / hyperparameter-sweep harnesses.

Runs are deterministic for a fixed seed: parameter initialization,
dataset splitting, per-epoch shuffling, and adversarial augmentation all
derive their randomness from the config seed. Model selection keeps the
parameters of the epoch with the highest validation accuracy (earliest
epoch on ties), with validation always computed on clean data.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adversarial import PerturbationPolicy, SeededRng, augment_dataset
from .capsule import CapsuleHeadConfig
from .encoders import EncoderConfig
from .model import forward_batch, init_model
from .tensor import Parameter, Tape, Tensor, backward, log, relu
from .text import Document, EmbeddingTable, encode_batch

# Seed-mix tags keeping the independent random streams distinct.
_TAG_INIT = 11
_TAG_SHUFFLE = 23
_TAG_SWEEP = 37


class TrainingError(ValueError):
    pass


class TooFewDocumentsError(TrainingError):
    pass


class EmptyDatasetError(TrainingError):
    pass


class EpochOutOfRangeError(TrainingError):
    pass


class MissingGradientError(TrainingError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    encoder: EncoderConfig
    head: Optional[CapsuleHeadConfig]  # None selects the baseline dense head
    adversarial: bool = False
    learning_rate: float = 5e-5
    epochs: int = 20
    batch_size: int = 32
    split: Tuple[float, float, float] = (0.7, 0.2, 0.1)
    seed: int = 0
    n_s: int = 5
    n_w: int = 60
    lr_decay: str = "epoch"  # "epoch" or "step"
    adversarial_resample: bool = True  # fresh perturbations each epoch

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if len(self.split) != 3 or any(f <= 0 for f in self.split):
            raise ValueError("split must be three positive fractions")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(self.split)}")
        if self.lr_decay not in ("epoch", "step"):
            raise ValueError("lr_decay must be 'epoch' or 'step'")
        if self.n_s < 1 or self.n_w < 1:
            raise ValueError("n_s and n_w must be >= 1")


@dataclass
class Metrics:
    split: str
    loss: float
    accuracy: float
    precision: float
    recall: float
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    total: int = 0


@dataclass
class EpochRecord:
    epoch: int
    train: Metrics
    valid: Metrics


@dataclass
class AblationRow:
    label: str
    valid: Metrics
    test: Metrics


@dataclass
class SweepCell:
    parameter: str  # "n_pc" or "n_cc"
    value: int
    mean_accuracy: float
    accuracies: Tuple[float, ...]
    mean_runtime_s: float


def compute_metrics(labels: np.ndarray, preds: np.ndarray,
                    loss: float, split: str) -> Metrics:
    """Confusion-matrix metrics with label 1 as the positive class.

    Precision is 1.0 when nothing is predicted positive; recall is 1.0
    when no positives exist.
    """
    labels = np.asarray(labels)
    preds = np.asarray(preds)
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    tn = int(np.sum((preds == 0) & (labels == 0)))
    total = labels.size
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    return Metrics(split=split, loss=loss, accuracy=accuracy,
                   precision=precision, recall=recall,
                   tp=tp, fp=fp, fn=fn, tn=tn, total=total)


def split_dataset(docs: Sequence[Document], split: Sequence[float],
                  seed: int) -> Tuple[List[Document], List[Document], List[Document]]:
    """Seeded shuffle, then floor-boundary partition; train takes the remainder.

    Raises TooFewDocumentsError when any of the three parts would be empty.
    """
    if len(split) != 3 or any(f <= 0 for f in split) or abs(sum(split) - 1.0) > 1e-9:
        raise ValueError(f"invalid split fractions {split}")
    n_valid = math.floor(split[1] * len(docs))
    n_test = math.floor(split[2] * len(docs))
    n_train = len(docs) - n_valid - n_test
    if min(n_train, n_valid, n_test) < 1:
        raise TooFewDocumentsError(
            f"{len(docs)} documents split into empty parts: train {n_train}, "
            f"valid {n_valid}, test {n_test}")
    order = SeededRng(seed).generator.permutation(len(docs))
    shuffled = [docs[i] for i in order]
    return (shuffled[:n_train],
            shuffled[n_train:n_train + n_valid],
            shuffled[n_train + n_valid:])


_BCE_CLAMP = 1e-12


def _clamped_log(t: Tensor) -> Tensor:
    # max(t, 1e-12) built from primitives: relu(t - c) + c
    floor_const = Tensor(np.full(t.shape, _BCE_CLAMP))
    return log(relu(t - floor_const) + floor_const)


def bce_loss_batch(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of -log(probs[b, labels[b]]), each probability clamped at 1e-12."""
    b, n_cls = probs.shape
    onehot = np.zeros((b, n_cls))
    onehot[np.arange(b), labels] = 1.0
    picked = (probs * Tensor(onehot)).sum(axis=1)
    return _clamped_log(picked).sum().scale(-1.0 / b)


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params, state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update; clears grads afterward."""
    items = sorted(params.values() if isinstance(params, dict) else params,
                   key=lambda p: p.name)
    state.step_count += 1
    t = state.step_count
    for p in items:
        if not p.trainable:
            continue
        grad = p.tensor.grad
        if grad is None:
            raise MissingGradientError(f"parameter {p.name!r} has no gradient")
        m = state.m.get(p.name)
        v = state.v.get(p.name)
        if m is None:
            m = np.zeros_like(p.tensor.values)
            v = np.zeros_like(p.tensor.values)
        m = state.beta1 * m + (1.0 - state.beta1) * grad
        v = state.beta2 * v + (1.0 - state.beta2) * grad * grad
        state.m[p.name] = m
        state.v[p.name] = v
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        p.tensor.values -= lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
        p.tensor.grad = None


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Per-epoch linear decay from the base rate toward zero."""
    if not (0 <= epoch < config.epochs):
        raise EpochOutOfRangeError(f"epoch {epoch} outside [0, {config.epochs})")
    return config.learning_rate * (1.0 - epoch / config.epochs)


def _forward_metrics(encoder, head, params, blocks, labels, batch_size, split):
    """Tape-free forward over a dataset; returns Metrics."""
    n = len(labels)
    loss_sum = 0.0
    preds = np.empty(n, dtype=np.int64)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        out = forward_batch(encoder, head, params, Tensor(blocks[start:stop]))
        loss = bce_loss_batch(out.probs, labels[start:stop])
        loss_sum += loss.item() * (stop - start)
        preds[start:stop] = np.argmax(out.probs.values, axis=1)
    return compute_metrics(labels, preds, loss_sum / n, split)


def evaluate(params: Dict[str, Parameter], docs: Sequence[Document],
             table: EmbeddingTable, config: TrainConfig,
             split: str = "test") -> Metrics:
    if not docs:
        raise EmptyDatasetError("cannot evaluate on an empty dataset")
    blocks, labels = encode_batch(docs, table, config.n_s, config.n_w)
    return _forward_metrics(config.encoder, config.head, params, blocks,
                            labels, config.batch_size, split)


def train(config: TrainConfig, docs: Sequence[Document],
          table: EmbeddingTable) -> Tuple[Dict[str, Parameter], List[EpochRecord]]:
    """Mini-batch optimization; returns best-validation-epoch parameters.

    With config.adversarial, each epoch's training stream is the shuffled
    concatenation of the clean documents and their adversarial copies for
    that epoch (regenerated per epoch unless adversarial_resample is off).
    """
    if not docs:
        raise EmptyDatasetError("cannot train on an empty dataset")
    train_docs, valid_docs, _ = split_dataset(docs, config.split, config.seed)

    t = config.n_s * config.n_w
    params = init_model(config.encoder, config.head, table.dimension, t,
                        SeededRng.from_mix(config.seed, _TAG_INIT))
    state = AdamState()
    policy = PerturbationPolicy()

    clean_blocks, clean_labels = encode_batch(train_docs, table, config.n_s, config.n_w)
    valid_blocks, valid_labels = encode_batch(valid_docs, table, config.n_s, config.n_w)
    adv_blocks = adv_labels = None

    stream_len = 2 * len(train_docs) if config.adversarial else len(train_docs)
    steps_per_epoch = math.ceil(stream_len / config.batch_size)
    total_steps = steps_per_epoch * config.epochs

    history: List[EpochRecord] = []
    best_acc = -1.0
    best_snapshot: Dict[str, np.ndarray] = {}
    global_step = 0

    for epoch in range(config.epochs):
        lr_epoch = lr_at(epoch, config)
        if config.adversarial and (adv_blocks is None or config.adversarial_resample):
            adv_docs = augment_dataset(train_docs, policy, config.seed,
                                       epoch if config.adversarial_resample else 0)
            adv_blocks, adv_labels = encode_batch(adv_docs, table, config.n_s, config.n_w)
        if config.adversarial:
            blocks = np.concatenate([clean_blocks, adv_blocks])
            labels = np.concatenate([clean_labels, adv_labels])
        else:
            blocks, labels = clean_blocks, clean_labels

        order = SeededRng.from_mix(config.seed, _TAG_SHUFFLE, epoch).generator.permutation(
            len(labels))
        loss_sum = 0.0
        preds = np.empty(len(labels), dtype=np.int64)
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = Tensor(blocks[idx])
            yb = labels[idx]
            with Tape() as tape:
                out = forward_batch(config.encoder, config.head, params, xb)
                loss = bce_loss_batch(out.probs, yb)
            backward(loss, tape)
            if config.lr_decay == "step":
                lr = config.learning_rate * (1.0 - global_step / total_steps)
            else:
                lr = lr_epoch
            adam_step(params, state, lr)
            global_step += 1
            loss_sum += loss.item() * len(idx)
            preds[start:start + len(idx)] = np.argmax(out.probs.values, axis=1)
        stream_labels = labels[order]
        train_metrics = compute_metrics(stream_labels, preds,
                                        loss_sum / len(labels), "train")
        valid_metrics = _forward_metrics(config.encoder, config.head, params,
                                         valid_blocks, valid_labels,
                                         config.batch_size, "valid")
        history.append(EpochRecord(epoch=epoch, train=train_metrics,
                                   valid=valid_metrics))
        if valid_metrics.accuracy > best_acc:
            best_acc = valid_metrics.accuracy
            best_snapshot = {n: p.tensor.values.copy() for n, p in params.items()}

    for name, values in best_snapshot.items():
        params[name].tensor.values[:] = values
    return params, history


_KIND_LABELS = {"cnn": "CNN", "gru": "GRU", "bigru": "BiGRU",
                "cnn-bigru": "CNN-BiGRU", "lstm": "LSTM", "bilstm": "BiLSTM",
                "cnn-bilstm": "CNN-BiLSTM"}


def best_epoch(history: Sequence[EpochRecord]) -> EpochRecord:
    best = history[0]
    for record in history[1:]:
        if record.valid.accuracy > best.valid.accuracy:
            best = record
    return best


def run_ablation(base: TrainConfig, docs: Sequence[Document],
                 table: EmbeddingTable) -> List[AblationRow]:
    """Four variants sharing one seed and split: baseline, +Adv, +Capsule,
    +Adv+Capsule."""
    if base.head is None:
        raise ValueError("ablation base config must carry a capsule head")
    _, _, test_docs = split_dataset(docs, base.split, base.seed)
    variants = [
        (_KIND_LABELS[base.encoder.kind], None, False),
        ("+Adv", None, True),
        ("+Capsule", base.head, False),
        ("+Adv+Capsule", base.head, True),
    ]
    rows: List[AblationRow] = []
    for label, head, adversarial in variants:
        config = replace(base, head=head, adversarial=adversarial)
        params, history = train(config, docs, table)
        valid = best_epoch(history).valid
        test = evaluate(params, test_docs, table, config, split="test")
        rows.append(AblationRow(label=label, valid=valid, test=test))
    return rows


def _derived_seed(*components: int) -> int:
    return int(np.random.SeedSequence(list(components)).generate_state(1, np.uint64)[0])


def run_sweep(base: TrainConfig, n_pc_values: Sequence[int],
              n_cc_values: Sequence[int], repeats: int,
              docs: Sequence[Document], table: EmbeddingTable) -> List[SweepCell]:
    """Vary n_pc (n_cc fixed at base) then n_cc (n_pc fixed): one cell per
    value, each a mean over `repeats` runs with distinct derived seeds."""
    if base.head is None:
        raise ValueError("sweep base config must carry a capsule head")
    if not n_pc_values or not n_cc_values or repeats < 1:
        raise ValueError("sweep value lists must be non-empty and repeats >= 1")
    cells = [("n_pc", v) for v in n_pc_values] + [("n_cc", v) for v in n_cc_values]
    out: List[SweepCell] = []
    for cell_index, (parameter, value) in enumerate(cells):
        head = replace(base.head, **{parameter: value})
        accuracies = []
        runtimes = []
        for repeat in range(repeats):
            seed = _derived_seed(base.seed, _TAG_SWEEP, cell_index, repeat)
            config = replace(base, head=head, seed=seed)
            started = time.perf_counter()
            params, _ = train(config, docs, table)
            _, _, test_docs = split_dataset(docs, config.split, config.seed)
            test = evaluate(params, test_docs, table, config)
            runtimes.append(time.perf_counter() - started)
            accuracies.append(test.accuracy)
        out.append(SweepCell(parameter=parameter, value=value,
                             mean_accuracy=float(np.mean(accuracies)),
                             accuracies=tuple(accuracies),
                             mean_runtime_s=float(np.mean(runtimes))))
    return out


# --- TrainConfig <-> JSON dict -------------------------------------------

def config_to_dict(config: TrainConfig) -> dict:
    head = {"type": "baseline"} if config.head is None else {
        "type": "capsule",
        "n_pc": config.head.n_pc,
        "n_cc": config.head.n_cc,
        "d": config.head.d,
        "n_cls": config.head.n_cls,
        "routing_iterations": config.head.routing_iterations,
    }
    return {
        "encoder": {
            "kind": config.encoder.kind,
            "kernel_sizes": list(config.encoder.kernel_sizes),
            "filters_per_kernel": config.encoder.filters_per_kernel,
            "hidden_dim": config.encoder.hidden_dim,
        },
        "head": head,
        "adversarial": config.adversarial,
        "learning_rate": config.learning_rate,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "split": list(config.split),
        "seed": config.seed,
        "n_s": config.n_s,
        "n_w": config.n_w,
        "lr_decay": config.lr_decay,
        "adversarial_resample": config.adversarial_resample,
    }


def config_from_dict(data: dict) -> TrainConfig:
    enc = data["encoder"]
    encoder = EncoderConfig(
        kind=enc["kind"],
        kernel_sizes=tuple(enc.get("kernel_sizes", (3, 4, 5))),
        filters_per_kernel=enc.get("filters_per_kernel", 300),
        hidden_dim=enc.get("hidden_dim", 300),
    )
    head_data = data.get("head", {"type": "capsule"})
    if head_data.get("type") == "baseline":
        head = None
    else:
        head = CapsuleHeadConfig(
            n_pc=head_data.get("n_pc", 8),
            n_cc=head_data.get("n_cc", 128),
            d=head_data.get("d", 16),
            n_cls=head_data.get("n_cls", 2),
            routing_iterations=head_data.get("routing_iterations", 3),
        )
    return TrainConfig(
        encoder=encoder,
        head=head,
        adversarial=data.get("adversarial", False),
        learning_rate=data.get("learning_rate", 5e-5),
        epochs=data.get("epochs", 20),
        batch_size=data.get("batch_size", 32),
        split=tuple(data.get("split", (0.7, 0.2, 0.1))),
        seed=data.get("seed", 0),
        n_s=data.get("n_s", 5),
        n_w=data.get("n_w", 60),
        lr_decay=data.get("lr_decay", "epoch"),
        adversarial_resample=data.get("adversarial_resample", True),
    )
