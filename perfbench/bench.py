"""The textcaps benchmark workloads: generated inputs, set-up, timed trials, checks.

Every input is generated here with ``textcaps.synth`` from the workload seed,
and the library receives it only as files: a JSONL corpus, a word2vec text
embedding table and a CAPS1 checkpoint. A run is a closed loop on one thread.
It repeats the set-up at least ``SETUPS`` times and for at least
``SETUP_SECONDS`` (``setup_s`` is their median), then
repeats trials until the time is up, at least ``MIN_TRIALS`` of them. Every
trial of a run must reproduce the first trial's losses and accuracy exactly,
which is the library's determinism promise.

A trial calls the library's own loops: on the training workloads one
``textcaps.training.train`` (split, init, encode, then per epoch augment,
encode, steps and validation), on ``score-adv`` one pass of the path
``textcaps augment`` plus ``textcaps eval`` take, ending in
``textcaps.training.evaluate``. Steps, scored batches and epochs are timed,
and losses and probability rows checked, by a ``Probe``: thin wrappers swapped
from outside onto the names ``textcaps.training`` calls.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from hostclock import REFERENCE_S, HostClock
from textcaps import adversarial, model, serialize, synth, tensor, text, training

N_DOCS = 2000          # training corpus of every workload
SCORE_DOCS = 4000      # extra documents scored by score-adv
VOCAB = 500
E_D = 16
SETUPS = 5
SETUP_SECONDS = 3.0   # short set-ups repeat more often, for a steadier median
MIN_TRIALS = 2         # so that every run compares two trials for determinism
ACCURACY_FLOOR = 0.75  # a trained model far below this has stopped learning
PROB_SUM_TOL = 1e-9

_DESK_GRID = {"n_s": 5, "n_w": 12, "batch_size": 32, "split": [0.7, 0.2, 0.1]}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "train" or "score"
    config: dict           # the body of a textcaps config.json, without the seed
    step_tail: float       # percentile reported as step_s_tail
    batch_tail: float      # percentile reported as score_batch_s_tail


# The learning rates are the desk config's scaled up so that two epochs reach a
# steady accuracy on every seed; they change no shape and so no timing.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Encoder- and Python-overhead-bound: the BiGRU records ~98% of the forward
    # tape. Fused recurrent scans show here; head changes barely do.
    Workload(
        name="train-bigru-desk", kind="train",
        config={"encoder": {"kind": "bigru", "hidden_dim": 32},
                "head": {"type": "capsule", "n_pc": 8, "n_cc": 32, "d": 8},
                "adversarial": True, "learning_rate": 3e-3, "epochs": 2, **_DESK_GRID},
        step_tail=95.0, batch_tail=80.0),
    # Head- and numpy-bound: primary capsules, compression and routing take
    # most of the forward time. Engine and routing work shows here.
    Workload(
        name="train-cnn-caps", kind="train",
        config={"encoder": {"kind": "cnn", "kernel_sizes": [3, 4, 5],
                            "filters_per_kernel": 64},
                "head": {"type": "capsule", "n_pc": 8, "n_cc": 128, "d": 16,
                         "routing_iterations": 3},
                "adversarial": False, "learning_rate": 2e-3, "epochs": 2, **_DESK_GRID},
        step_tail=90.0, batch_tail=80.0),
    # Tape-free: no backward, no Adam; reading, augmenting and encoding are a
    # large share, so text and adversarial work shows only here.
    Workload(
        name="score-adv", kind="score",
        config={"encoder": {"kind": "cnn", "kernel_sizes": [3, 4, 5],
                            "filters_per_kernel": 16},
                "head": {"type": "capsule", "n_pc": 4, "n_cc": 16, "d": 8},
                "adversarial": True, "learning_rate": 2e-3, "epochs": 2, **_DESK_GRID},
        step_tail=95.0, batch_tail=95.0),
)}


class CheckFailed(RuntimeError):
    """An output of the library is wrong; the run must not report metrics."""


Span = Tuple[float, float]   # (start, end) on time.perf_counter


@dataclass
class Samples:
    """Timed spans, step losses and operation counts of one phase of a run.

    Spans are kept raw; ``seconds`` gives them at the host clock's reference
    speed, which is what the metrics report.
    """

    clock: HostClock
    steps: List[Span] = field(default_factory=list)
    epochs: List[Span] = field(default_factory=list)
    batches: List[Span] = field(default_factory=list)
    passes: List[Tuple[Span, int]] = field(default_factory=list)  # scoring pass, documents
    trials: List[Span] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)  # every training step's loss
    attempted: int = 0
    failed: int = 0

    def seconds(self, spans: List[Span]) -> List[float]:
        return [self.clock.normalize(start, end) for start, end in spans]

    def docs_per_s(self) -> List[float]:
        return [docs / self.clock.normalize(*span) for span, docs in self.passes]


def _nonfinite_rows(probs: np.ndarray) -> int:
    """Rows that are not finite; a finite row that does not sum to 1 is a wrong output."""
    finite = np.isfinite(probs).all(axis=1)
    sums = probs[finite].sum(axis=1)
    if np.any(np.abs(sums - 1.0) > PROB_SUM_TOL):
        raise CheckFailed(f"probability rows sum to {sums.min()!r}..{sums.max()!r}")
    return int(np.count_nonzero(~finite))


class Probe:
    """Times and checks ``textcaps.training.train`` and ``evaluate`` from outside.

    While ``installed()`` is active, the names in ``PROBED`` are swapped on
    ``textcaps.training`` for wrappers that call what they replace:

    - a step runs from ``Tape()`` to the end of ``adam_step``; it fails when
      its loss is not finite;
    - a scored batch runs from a tape-free ``forward_batch`` to the end of its
      ``bce_loss_batch``; each of its documents fails when its probability row
      is not finite;
    - an epoch runs from one ``lr_at`` call to the next, or to the end of the
      block;
    - with ``group_passes``, the scored batches of one epoch form a validation
      pass, from the first batch's start to the last batch's end.

    The host clock is sampled before each step and each batch.
    """

    PROBED = ("Tape", "forward_batch", "bce_loss_batch", "adam_step", "lr_at")

    def __init__(self, samples: Samples, group_passes: bool = True) -> None:
        self.samples = samples
        self.group_passes = group_passes
        self._lib: Dict[str, Callable] = {}
        self._began = 0.0                     # start of the current step or batch
        self._step: Optional[Tuple[tensor.Tensor, tensor.Tensor]] = None  # (probs, loss)
        self._epoch_began: Optional[float] = None
        self._pass: Optional[List] = None     # [start, end, documents]

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        self._lib = {name: getattr(training, name) for name in self.PROBED}
        wrappers = {"Tape": self._tape, "forward_batch": self._forward,
                    "bce_loss_batch": self._loss, "adam_step": self._adam, "lr_at": self._lr_at}
        for name in self.PROBED:
            setattr(training, name, wrappers[name])
        try:
            yield self
        finally:
            self._end_epoch(time.perf_counter())
            for name, original in self._lib.items():
                setattr(training, name, original)

    def _tape(self):
        self.samples.clock.tick()
        self._began = time.perf_counter()
        return self._lib["Tape"]()

    def _forward(self, *args, **kwargs):
        if tensor.active_tape() is None:
            self.samples.clock.tick()
            self._began = time.perf_counter()
            if self.group_passes and self._pass is None:
                self._pass = [self._began, self._began, 0]
        return self._lib["forward_batch"](*args, **kwargs)

    def _loss(self, probs, labels):
        loss = self._lib["bce_loss_batch"](probs, labels)
        if tensor.active_tape() is not None:
            self._step = (probs, loss)
            return loss
        end = time.perf_counter()
        samples = self.samples
        samples.batches.append((self._began, end))
        samples.attempted += len(labels)
        samples.failed += _nonfinite_rows(probs.values)
        if self._pass is not None:
            self._pass[1] = end
            self._pass[2] += len(labels)
        return loss

    def _adam(self, params, state, lr):
        self._lib["adam_step"](params, state, lr)
        samples = self.samples
        samples.steps.append((self._began, time.perf_counter()))
        probs, loss = self._step
        value = loss.item()
        samples.attempted += 1
        if not math.isfinite(value):
            samples.failed += 1
        else:
            _nonfinite_rows(probs.values)
        samples.losses.append(value)

    def _lr_at(self, epoch, config):
        self._end_epoch(time.perf_counter())
        self._epoch_began = time.perf_counter()
        return self._lib["lr_at"](epoch, config)

    def _end_epoch(self, now: float) -> None:
        if self._epoch_began is not None:
            self.samples.epochs.append((self._epoch_began, now))
            self._epoch_began = None
        if self._pass is not None:
            start, end, docs = self._pass
            self.samples.passes.append(((start, end), docs))
            self._pass = None


@dataclass(frozen=True)
class Outcome:
    """What a trial produced; equal trials of one run must be identical."""

    losses: Tuple[float, ...]   # every step's, then each epoch's validation loss
    accuracy: float

    def digest(self) -> str:
        h = hashlib.sha256()
        for value in self.losses + (self.accuracy,):
            h.update(float(value).hex().encode())
        return h.hexdigest()[:16]


@dataclass
class Inputs:
    seed: int
    config: training.TrainConfig            # the workload's training config
    eval_config: training.TrainConfig       # rebuilt from the checkpoint, as `textcaps eval` does
    docs: List[text.Document]               # the training corpus, read back
    table: text.EmbeddingTable
    params: Dict[str, tensor.Parameter]     # as loaded from the checkpoint
    embeddings_path: Path
    score_path: Optional[Path]
    checkpoint_sha: str
    setup_outcome: Optional[Outcome]


def train(config: training.TrainConfig, docs, table, samples: Samples):
    """``textcaps.training.train`` under a probe; returns (params, Outcome)."""
    first = len(samples.losses)
    with Probe(samples).installed():
        params, history = training.train(config, docs, table)
    losses = tuple(samples.losses[first:]) + tuple(r.valid.loss for r in history)
    return params, Outcome(losses, training.best_epoch(history).valid.accuracy)


def setup(workload: Workload, seed: int, workdir: Path, samples: Samples) -> Inputs:
    """Generate and write the inputs, read them back, and checkpoint a model.

    The model is a fresh init on the training workloads. On score-adv it is
    trained by ``textcaps.training.train``, and its steps land in ``samples``.
    """
    config = training.config_from_dict({**workload.config, "seed": seed})
    extra = SCORE_DOCS if workload.kind == "score" else 0
    docs, vocab = synth.generate_synthetic_corpus(N_DOCS + extra, VOCAB, seed)
    vectors = synth.generate_embeddings(vocab, E_D, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    corpus_path = workdir / "corpus.jsonl"
    embeddings_path = workdir / "embeddings.txt"
    score_path = workdir / "score.jsonl" if extra else None
    text.write_dataset(corpus_path, docs[:N_DOCS])
    if score_path is not None:
        text.write_dataset(score_path, docs[N_DOCS:])
    synth.write_embeddings_file(embeddings_path, vocab, vectors)
    samples.clock.tick()

    docs = text.read_dataset(corpus_path)
    table = text.load_embeddings(embeddings_path)
    setup_outcome = None
    if workload.kind == "score":
        params, setup_outcome = train(config, docs, table, samples)
    else:
        params = model.init_model(config.encoder, config.head, table.dimension,
                                  config.n_s * config.n_w, adversarial.SeededRng(seed))
    checkpoint = workdir / "model.caps"
    serialize.save_model(checkpoint, params, serialize.model_meta(config, table.dimension))
    params, meta = serialize.load_model(checkpoint)
    encoder, head, n_s, n_w, e_d = serialize.config_parts_from_meta(meta)
    if (encoder, head, n_s, n_w, e_d) != (config.encoder, config.head, config.n_s,
                                          config.n_w, table.dimension):
        raise CheckFailed("checkpoint metadata does not rebuild the workload's model")
    return Inputs(seed=seed, config=config,
                  eval_config=training.TrainConfig(encoder=encoder, head=head, n_s=n_s, n_w=n_w),
                  docs=docs, table=table, params=params,
                  embeddings_path=embeddings_path, score_path=score_path,
                  checkpoint_sha=hashlib.sha256(checkpoint.read_bytes()).hexdigest(),
                  setup_outcome=setup_outcome)


def score_pass(inputs: Inputs, samples: Samples) -> Outcome:
    """Load the embeddings, read the file, add one adversarial copy per document,
    then evaluate the checkpoint on the clean and on the adversarial documents."""
    samples.clock.tick()
    began = time.perf_counter()
    with Probe(samples, group_passes=False).installed():
        table = text.load_embeddings(inputs.embeddings_path)
        docs = text.read_dataset(inputs.score_path)
        adv = adversarial.augment_dataset(docs, adversarial.PerturbationPolicy(), inputs.seed, 0)
        parts = [(training.evaluate(inputs.params, part, table, inputs.eval_config), len(part))
                 for part in (docs, adv)]
    n = len(docs) + len(adv)
    samples.passes.append(((began, time.perf_counter()), n))
    return Outcome(tuple(metrics.loss for metrics, _ in parts),
                   sum(metrics.accuracy * size for metrics, size in parts) / n)


def trial(workload: Workload, inputs: Inputs, samples: Samples) -> Outcome:
    began = time.perf_counter()
    if workload.kind == "score":
        outcome = score_pass(inputs, samples)
    else:
        _, outcome = train(inputs.config, inputs.docs, inputs.table, samples)
    samples.trials.append((began, time.perf_counter()))
    return outcome


def _short(values: list, pct: float) -> bool:
    """True while fewer than ten samples lie beyond the ``pct`` percentile."""
    return len(values) * (100.0 - pct) / 100.0 < 10.0


def run_trials(workload: Workload, inputs: Inputs, seconds: float, samples: Samples,
               outcomes: List[Outcome], enough: Callable[[], bool], least: int) -> None:
    """Repeat trials until ``seconds`` have passed, ``outcomes`` holds at least
    ``least`` of them and ``enough()`` holds."""
    began = time.perf_counter()
    while True:
        outcomes.append(trial(workload, inputs, samples))
        if (time.perf_counter() - began >= seconds and len(outcomes) >= least
                and enough()):
            return


def check_identical(outcomes: List[Outcome], what: str) -> Outcome:
    """Every outcome must equal the first: runs are deterministic."""
    first = outcomes[0]
    for index, other in enumerate(outcomes[1:], start=1):
        if other != first:
            raise CheckFailed(f"{what} {index} differs from {what} 0 "
                              f"({other.digest()} != {first.digest()}): not deterministic")
    return first


def percentile(values: List[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "1/s",
    "step_s_p50": "s",
    "step_s_tail": "s",
    "epoch_s": "s",
    "score_docs_per_s": "1/s",
    "score_batch_s_p50": "s",
    "score_batch_s_tail": "s",
    "accuracy": "ratio",
    "peak_rss_mb": "MiB",
}


@dataclass
class RunResult:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    digest: str
    report: List[str]


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> RunResult:
    """The untraced run behind the end-to-end metrics."""
    clock = HostClock()
    setup_samples = Samples(clock)
    setups: List[Span] = []
    checkpoints = set()
    setup_outcomes: List[Outcome] = []
    first = time.perf_counter()
    while len(setups) < SETUPS or time.perf_counter() - first < SETUP_SECONDS:
        clock.tick()
        began = time.perf_counter()
        inputs = setup(workload, seed, workdir / f"setup-{len(setups)}", setup_samples)
        setups.append((began, time.perf_counter()))
        checkpoints.add(inputs.checkpoint_sha)
        if inputs.setup_outcome is not None:
            setup_outcomes.append(inputs.setup_outcome)
    clock.tick()
    if len(checkpoints) != 1:
        raise CheckFailed(f"{len(setups)} identical set-ups wrote {len(checkpoints)} checkpoints")
    if setup_outcomes:
        check_identical(setup_outcomes, "set-up training")

    samples = Samples(clock)
    # score-adv trains only in set-up, so its training metrics come from there.
    trained = samples if workload.kind == "train" else setup_samples
    outcomes: List[Outcome] = []
    run_trials(workload, inputs, seconds, samples, outcomes,
               lambda: not (_short(trained.steps, workload.step_tail)
                            or _short(samples.batches, workload.batch_tail)), MIN_TRIALS)
    clock.tick()
    outcome = check_identical(outcomes, "trial")
    if outcome.accuracy < ACCURACY_FLOOR:
        raise CheckFailed(f"accuracy {outcome.accuracy:.4f} is below {ACCURACY_FLOOR}")

    steps = trained.seconds(trained.steps)
    batches = samples.seconds(samples.batches)
    metrics = {
        "setup_s": statistics.median(setup_samples.seconds(setups)),
        "train_steps_per_s": len(steps) / sum(steps),
        "step_s_p50": statistics.median(steps),
        "step_s_tail": percentile(steps, workload.step_tail),
        "epoch_s": statistics.median(trained.seconds(trained.epochs)),
        "score_docs_per_s": statistics.median(samples.docs_per_s()),
        "score_batch_s_p50": statistics.median(batches),
        "score_batch_s_tail": percentile(batches, workload.batch_tail),
        "accuracy": outcome.accuracy,
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = setup_samples.attempted + samples.attempted
    failed = setup_samples.failed + samples.failed
    raw_steps = [end - start for start, end in trained.steps]
    report = [
        f"{workload.name} seed {seed}: {len(outcomes)} trials in "
        f"{sum(end - start for start, end in samples.trials):.2f} s, {len(setups)} set-ups, "
        f"determinism digest {outcome.digest()}",
        f"step_s_tail is p{workload.step_tail:g} of {len(steps)} steps; "
        f"score_batch_s_tail is p{workload.batch_tail:g} of {len(batches)} batches; "
        f"failure_rate {failed}/{attempted}",
        f"host clock: kernel median {statistics.median(clock.kernel_s) * 1e3:.3f} ms "
        f"over {len(clock.kernel_s)} samples (reference {REFERENCE_S * 1e3:g} ms); "
        f"raw wall step_s_p50 {statistics.median(raw_steps):.6g} s",
    ]
    return RunResult(metrics, attempted, failed, outcome.digest(), report)


def measure_traced(workload: Workload, seed: int, seconds: float, workdir: Path,
                   tracer) -> RunResult:
    """The traced run behind the per-layer metrics.

    One traced set-up, untraced trials for ``seconds`` as the reference, then
    one traced trial. The per-layer metrics cover the traced set-up plus the
    traced trial; the tracing overhead is the traced trial against the reference.
    """
    clock = HostClock()
    setup_samples = Samples(clock)
    with tracer.traced("setup"):
        inputs = setup(workload, seed, workdir / "setup-0", setup_samples)
    reference = Samples(clock)
    outcomes: List[Outcome] = []
    run_trials(workload, inputs, seconds, reference, outcomes, lambda: True, 1)
    traced = Samples(clock)
    with tracer.traced("trial"):
        outcomes.append(trial(workload, inputs, traced))
    clock.tick()
    outcome = check_identical(outcomes, "trial")

    if workload.kind == "train":
        what = "step_s_p50"
        untraced_v = statistics.median(reference.seconds(reference.steps))
        traced_v = statistics.median(traced.seconds(traced.steps))
    else:
        what = "score_docs_per_s"
        untraced_v = statistics.median(reference.docs_per_s())
        traced_v = statistics.median(traced.docs_per_s())
    report = [f"{workload.name} seed {seed}: traced set-up plus one traced trial, "
              f"determinism digest {outcome.digest()}",
              f"tracing overhead on {what}: traced {traced_v:.6g} - untraced {untraced_v:.6g} "
              f"= {traced_v - untraced_v:+.6g} ({(traced_v - untraced_v) / untraced_v:+.1%})"]
    report += tracer.report(workload.kind, traced.trials[0][1] - traced.trials[0][0])
    attempted = setup_samples.attempted + reference.attempted + traced.attempted
    failed = setup_samples.failed + reference.failed + traced.failed
    return RunResult(tracer.metrics(), attempted, failed, outcome.digest(), report)
