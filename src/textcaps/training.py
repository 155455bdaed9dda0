"""Training engine: Adam, binary cross-entropy, linear LR decay, splits,
metrics, and the ablation / hyperparameter-sweep harnesses.

Every step of an epoch uses that epoch's learning rate (``lr_at``), and
adversarial training regenerates the perturbed copies each epoch. Runs
are deterministic for a fixed seed: parameter initialization, dataset
splitting, per-epoch shuffling, and adversarial augmentation all derive
their randomness from the config seed. Model selection keeps the
parameters of the epoch with the highest validation accuracy (earliest
epoch on ties), with validation always computed on clean data.

Adam keeps the parameter values and both moments as flat float64 vectors
in ``AdamState``. From the first step on, every parameter's values are a
view into ``AdamState.values``, so the update runs over whole vectors and
the best-epoch snapshot is one vector copy.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adversarial import PerturbationPolicy, SeededRng, augment_dataset, seed_sequence
from .capsule import CapsuleHeadConfig
from .encoders import ENCODER_KINDS, EncoderConfig
from .model import first_nonfinite, forward_batch, init_model
from .tensor import Parameter, Tape, Tensor, Workspace, backward, clear_grads, log, relu
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


class NonFiniteLossError(TrainingError):
    """A training or validation loss became NaN or infinite."""


def _check_split(split: Sequence[float]) -> None:
    """Require three (train, valid, test) fractions in (0, 1) summing to 1."""
    # chained comparisons are False for NaN
    if len(split) != 3 or not all(0 < f < 1 for f in split):
        raise ValueError(f"config key 'split' must be three fractions in (0, 1), "
                         f"got {list(split)}")
    if abs(sum(split) - 1.0) > 1e-9:
        raise ValueError(f"config key 'split' fractions must sum to 1, got {sum(split)}")


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

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ValueError(f"config key 'learning_rate' must be finite and > 0, "
                             f"got {self.learning_rate}")
        _check_split(self.split)
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
    _check_split(split)
    n_valid = math.floor(split[1] * len(docs))
    n_test = math.floor(split[2] * len(docs))
    n_train = len(docs) - n_valid - n_test
    if min(n_train, n_valid, n_test) < 1:
        raise TooFewDocumentsError(
            f"{len(docs)} documents split into empty parts: train {n_train}, "
            f"valid {n_valid}, test {n_test}")
    order = SeededRng(seed).permutation(len(docs))
    shuffled = [docs[i] for i in order]
    return (shuffled[:n_train],
            shuffled[n_train:n_train + n_valid],
            shuffled[n_train + n_valid:])


def bce_loss_batch(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of -log(probs[b, labels[b]]), each probability clamped at 1e-12
    as relu(p - c) + c (zero gradient below the floor): one log-sum weighted
    -1/B at each document's label and 0 elsewhere, picking and averaging."""
    b, n_cls = probs.shape
    weights = np.zeros((b, n_cls))
    weights[np.arange(b), labels] = -1.0 / b
    floor = Tensor(np.full((1, 1), 1e-12))
    return (log(relu(probs - floor) + floor) * Tensor(weights)).sum()


# Adam's published defaults (Kingma & Ba 2015).
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam's step count and its flat float64 vectors.

    The first ``adam_step`` allocates ``values``, the moments ``m`` and
    ``v`` and the two ``work`` buffers, each with one slot per parameter
    element in ``params`` order, copies every parameter into ``values`` and
    rebinds each parameter's ``values`` to a view of its slot. One state
    serves one ``params`` dict, always passed in the same order.
    """
    step_count: int = 0
    values: Optional[np.ndarray] = None
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    work: Tuple[np.ndarray, ...] = ()


def _bind_arena(params: Dict[str, Parameter], state: AdamState) -> None:
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


def adam_step(params: Dict[str, Parameter], state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update over the whole flat vectors;
    clears grads afterward. Raises MissingGradientError, before changing
    anything, when some parameter has no gradient."""
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise MissingGradientError(f"parameter {min(missing)!r} has no gradient")
    if state.values is None:
        _bind_arena(params, state)
    g, work = state.work
    np.concatenate([p.grad for p in params.values()], axis=None, out=g)
    clear_grads(params.values())
    state.step_count += 1
    t = state.step_count
    m, v = state.m, state.v
    # Each expression keeps the per-element order of the per-name form, which
    # fixes the bytes: m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g.
    m *= _BETA1
    np.multiply(g, 1.0 - _BETA1, out=work)
    m += work
    v *= _BETA2
    np.multiply(g, 1.0 - _BETA2, out=work)
    work *= g
    v += work
    # values -= (lr * m_hat) / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - _BETA1 ** t, out=g)
    g *= lr
    np.divide(v, 1.0 - _BETA2 ** t, out=work)
    np.sqrt(work, out=work)
    work += _EPSILON
    g /= work
    state.values -= g


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Per-epoch linear decay from the base rate toward zero."""
    if not (0 <= epoch < config.epochs):
        raise EpochOutOfRangeError(f"epoch {epoch} outside [0, {config.epochs})")
    return config.learning_rate * (1.0 - epoch / config.epochs)


def _forward_metrics(encoder, head, params, table, ids, labels, batch_size, split):
    """Tape-free forward over encoded documents, embedded a batch at a time;
    returns Metrics."""
    n = len(labels)
    loss_sum = 0.0
    preds = np.empty(n, dtype=np.int64)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        probs = forward_batch(encoder, head, params, Tensor(table.embed(ids[start:stop]))).probs
        loss = bce_loss_batch(probs, labels[start:stop])
        loss_sum += loss.item() * (stop - start)
        preds[start:stop] = np.argmax(probs.values, axis=1)
    return compute_metrics(labels, preds, loss_sum / n, split)


def _diverged(params: Dict[str, Parameter], what: str) -> NonFiniteLossError:
    first = first_nonfinite(params)
    culprit = (f"first non-finite parameter {first!r}" if first is not None
               else "every parameter is finite")
    return NonFiniteLossError(f"{what}; {culprit}")


# Overflow warnings would only repeat what the non-finite loss checks report.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def evaluate(params: Dict[str, Parameter], docs: Sequence[Document],
             table: EmbeddingTable, config: TrainConfig) -> Metrics:
    """Test metrics of params on docs; a non-finite loss raises NonFiniteLossError."""
    if not docs:
        raise EmptyDatasetError("cannot evaluate on an empty dataset")
    ids, labels = encode_batch(docs, table, config.n_s, config.n_w)
    with Workspace():
        metrics = _forward_metrics(config.encoder, config.head, params, table, ids,
                                   labels, config.batch_size, "test")
    if not math.isfinite(metrics.loss):
        raise _diverged(params, f"evaluation loss is {metrics.loss}")
    return metrics


def _step(config: TrainConfig, params: Dict[str, Parameter], state: AdamState, lr: float,
          x: Tensor, labels: np.ndarray, epoch: int, step: int) -> Tuple[float, np.ndarray]:
    """One Adam step on a batch; returns its loss and probabilities. The tape
    is dropped on return, so that its arrays are free for the next forward."""
    with Tape() as tape:
        probs = forward_batch(config.encoder, config.head, params, x).probs
        loss = bce_loss_batch(probs, labels)
    value = loss.item()
    if not math.isfinite(value):
        raise _diverged(params, f"training loss is {value} at epoch {epoch}, step {step}")
    backward(loss, tape)
    adam_step(params, state, lr)
    return value, probs.values


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(config: TrainConfig, docs: Sequence[Document],
          table: EmbeddingTable) -> Tuple[Dict[str, Parameter], List[EpochRecord]]:
    """Mini-batch optimization; returns best-validation-epoch parameters.

    Every step of epoch e uses the learning rate lr_at(e, config). With
    config.adversarial, each epoch's training stream is the clean documents
    followed by their adversarial copies for that epoch, encoded in one
    ``encode_batch`` call and shuffled. Splits are held as token row ids; each
    step and each validation batch embeds only its own documents, and the
    primitives reuse their work arrays from step to step inside one
    ``Workspace``. A NaN or infinite training-step or validation loss stops
    the run with NonFiniteLossError.
    """
    if not docs:
        raise EmptyDatasetError("cannot train on an empty dataset")
    train_docs, valid_docs, _ = split_dataset(docs, config.split, config.seed)

    t = config.n_s * config.n_w
    params = init_model(config.encoder, config.head, table.dimension, t,
                        SeededRng(config.seed, _TAG_INIT))
    state = AdamState()
    policy = PerturbationPolicy()

    if not config.adversarial:
        ids, labels = encode_batch(train_docs, table, config.n_s, config.n_w)
    valid_ids, valid_labels = encode_batch(valid_docs, table, config.n_s, config.n_w)

    history: List[EpochRecord] = []
    best_values: Optional[np.ndarray] = None
    global_step = 0

    with Workspace():
        for epoch in range(config.epochs):
            lr = lr_at(epoch, config)
            if config.adversarial:
                ids = labels = None  # the last epoch's stream is freed before the next is built
                ids, labels = encode_batch(
                    train_docs + augment_dataset(train_docs, policy, config.seed, epoch),
                    table, config.n_s, config.n_w)

            order = SeededRng(config.seed, _TAG_SHUFFLE, epoch).permutation(len(labels))
            loss_sum = 0.0
            preds = np.empty(len(labels), dtype=np.int64)
            for start in range(0, len(order), config.batch_size):
                idx = order[start:start + config.batch_size]
                step_loss, probs = _step(config, params, state, lr, Tensor(table.embed(ids[idx])),
                                         labels[idx], epoch, global_step)
                global_step += 1
                loss_sum += step_loss * len(idx)
                preds[start:start + len(idx)] = np.argmax(probs, axis=1)
            stream_labels = labels[order]
            train_metrics = compute_metrics(stream_labels, preds,
                                            loss_sum / len(labels), "train")
            valid_metrics = _forward_metrics(config.encoder, config.head, params, table,
                                             valid_ids, valid_labels,
                                             config.batch_size, "valid")
            if not math.isfinite(valid_metrics.loss):
                raise _diverged(params, f"validation loss is {valid_metrics.loss} "
                                        f"at epoch {epoch}, step {global_step}")
            record = EpochRecord(epoch=epoch, train=train_metrics, valid=valid_metrics)
            history.append(record)
            if best_epoch(history) is record:
                best_values = state.values.copy()

    state.values[:] = best_values
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
        test = evaluate(params, test_docs, table, config)
        rows.append(AblationRow(label=label, valid=valid, test=test))
    return rows


def _derived_seed(*components: int) -> int:
    return int(seed_sequence(*components).generate_state(1, np.uint64)[0])


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
    """Every config field as JSON values: tuples as lists, and the head
    tagged with its "type"."""
    data = asdict(config, dict_factory=lambda items: {
        key: list(value) if isinstance(value, tuple) else value for key, value in items})
    data["head"] = ({"type": "baseline"} if config.head is None
                    else {"type": "capsule", **data["head"]})
    return data


_ENCODER_SCHEMA = {"kind": ENCODER_KINDS, "kernel_sizes": [int],
                   "filters_per_kernel": int, "hidden_dim": int}
_HEAD_SCHEMA = {"type": ("capsule", "baseline"), "n_pc": int, "n_cc": int, "d": int,
                "routing_iterations": int}
_TOP_SCHEMA = {"encoder": dict, "head": dict, "adversarial": bool, "learning_rate": float,
               "epochs": int, "batch_size": int, "split": [float], "seed": int,
               "n_s": int, "n_w": int}


def _has_kind(value, kind) -> bool:
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_kind(v, kind[0]) for v in value)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return "one of " + ", ".join(repr(k) for k in kind)
    if isinstance(kind, list):
        return "a list of " + {int: "integers", float: "numbers"}[kind[0]]
    return {int: "an integer", float: "a number", bool: "true or false",
            dict: "an object"}[kind]


def _checked_section(data, schema: dict, prefix: str) -> dict:
    """The keys of one config object, each checked against its schema kind."""
    out = {}
    for key, value in data.items():
        if key not in schema:
            raise ValueError(f"config key {prefix + key!r} is unknown")
        if not _has_kind(value, schema[key]):
            raise ValueError(f"config key {prefix + key!r} must be "
                             f"{_describe(schema[key])}, got {value!r}")
        out[key] = tuple(value) if isinstance(value, list) else value
    return out


def config_from_dict(data: dict) -> TrainConfig:
    """Parse a config object strictly: unknown keys and wrong types raise
    ValueError naming the key; absent keys take the dataclass defaults."""
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    top = _checked_section(data, _TOP_SCHEMA, "")
    if "encoder" not in top:
        raise ValueError("config key 'encoder' is missing")
    enc = _checked_section(top.pop("encoder"), _ENCODER_SCHEMA, "encoder.")
    if "kind" not in enc:
        raise ValueError("config key 'encoder.kind' is missing")
    head_data = _checked_section(top.pop("head", {}), _HEAD_SCHEMA, "head.")
    if head_data.pop("type", "capsule") == "baseline":
        if head_data:
            raise ValueError(f"config key 'head.{min(head_data)}' does not apply "
                             "to a baseline head")
        head = None
    else:
        head = CapsuleHeadConfig(**head_data)
    return TrainConfig(encoder=EncoderConfig(**enc), head=head, **top)
