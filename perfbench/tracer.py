"""Per-layer tracing of textcaps from outside the library.

While a ``Tracer.traced(phase)`` block runs, the public functions that
``textcaps.model``, ``textcaps.training`` and the benchmark call are swapped,
in every textcaps module that holds them, for wrappers that time each call and
count the tape nodes it records as ``len(active_tape().nodes)`` after minus
before. ``textcaps.tensor.apply_primitive`` is swapped for a call counter.
Every swapped attribute is restored when the block exits, so later untraced
work in the same process runs the library's own functions.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from textcaps import tensor

# (home module, function, span label). A label names the layer, then the part.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("textcaps.model", "forward_batch", "model.forward"),
    ("textcaps.encoders", "encoder_forward_batch", "encoders.forward"),
    ("textcaps.capsule", "primary_capsules_batch", "capsule.primary"),
    ("textcaps.capsule", "compress_batch", "capsule.compress"),
    ("textcaps.capsule", "dynamic_routing_batch", "capsule.routing"),
    ("textcaps.capsule", "class_probabilities_batch", "capsule.probs"),
    ("textcaps.training", "bce_loss_batch", "training.loss"),
    ("textcaps.training", "adam_step", "training.adam"),
    ("textcaps.tensor", "backward", "tensor.backward"),
    ("textcaps.text", "read_dataset", "text.read"),
    ("textcaps.text", "load_embeddings", "text.load_embeddings"),
    ("textcaps.text", "encode_batch", "text.encode"),
    ("textcaps.adversarial", "augment_dataset", "adversarial.augment"),
    ("textcaps.serialize", "save_model", "serialize.save"),
    ("textcaps.serialize", "load_model", "serialize.load"),
)

# The engine's 18 primitive kinds, each reported as tensor.prim.<kind>.calls.
PRIMITIVES: Tuple[str, ...] = (
    "add", "concat", "div", "exp", "l2norm", "log", "matmul", "mul", "relu",
    "reshape", "scale", "sigmoid", "slice", "softmax", "sub", "sum", "tanh", "transpose",
)

FORWARD_CHILDREN = ("encoders.forward", "capsule.primary", "capsule.compress",
                    "capsule.routing", "capsule.probs")
CAPSULE_PARTS = ("primary", "compress", "routing", "probs")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"encoders.forward_s": "s", "encoders.tape_nodes": "count"}
    for part in CAPSULE_PARTS:
        units[f"capsule.{part}_s"] = "s"
        units[f"capsule.{part}.tape_nodes"] = "count"
    units.update({"tensor.backward_s": "s", "tensor.tape_nodes": "count"})
    units.update({f"tensor.prim.{kind}.calls": "count" for kind in PRIMITIVES})
    units.update({
        "model.forward_s": "s", "model.forward.tape_nodes": "count",
        "model.glue_s": "s", "model.forward_notape_s": "s",
        "training.loss_s": "s", "training.adam_s": "s",
        "text.read_s": "s", "text.encode_s": "s", "text.load_embeddings_s": "s",
        "text.fill_ratio": "ratio",
        "adversarial.augment_s": "s",
        "serialize.save_s": "s", "serialize.load_s": "s",
    })
    return units


def _textcaps_modules() -> List[object]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "textcaps" or name.startswith("textcaps."))]


def _kept_tokens(docs, n_s: int, n_w: int) -> int:
    return sum(min(len(sentence), n_w) for doc in docs for sentence in doc.sentences[:n_s])


class Tracer:
    """Spans and counts per (phase, label), collected while ``traced`` is active."""

    def __init__(self) -> None:
        self.seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        self.nodes: Dict[Tuple[str, str], int] = defaultdict(int)
        self.prims: Dict[str, int] = defaultdict(int)
        self.kept_tokens = 0
        self.token_slots = 0
        self.phase = ""
        self._swapped: List[Tuple[object, str, object]] = []

    @contextmanager
    def traced(self, phase: str) -> Iterator["Tracer"]:
        self.phase = phase
        self._install()
        try:
            yield self
        finally:
            self._restore()

    # -- swapping ---------------------------------------------------------

    def _install(self) -> None:
        replacements = []
        for home, name, label in SPANS:
            original = getattr(sys.modules[home], name)
            replacements.append((original, self._span(label, original)))
        original = tensor.apply_primitive
        replacements.append((original, self._counter(original)))
        for module in _textcaps_modules():
            for attr, value in list(vars(module).items()):
                for orig, wrapper in replacements:
                    if value is orig:
                        self._swapped.append((module, attr, orig))
                        setattr(module, attr, wrapper)

    def _restore(self) -> None:
        while self._swapped:
            module, attr, orig = self._swapped.pop()
            setattr(module, attr, orig)

    def _span(self, label: str, func):
        active_tape = tensor.active_tape

        def wrapper(*args, **kwargs):
            tape = active_tape()
            before = len(tape.nodes) if tape is not None else 0
            began = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - began
                name = label
                if label == "model.forward" and tape is None:
                    name = "model.forward_notape"
                key = (self.phase, name)
                self.seconds[key] += elapsed
                if tape is not None:
                    self.nodes[key] += len(tape.nodes) - before
                if label == "tensor.backward":
                    used = args[1] if len(args) > 1 else kwargs["tape"]
                    self.nodes[(self.phase, "tensor.tape")] += len(used.nodes)
                elif label == "text.encode":
                    docs, n_s, n_w = args[0], args[2], args[3]
                    self.kept_tokens += _kept_tokens(docs, n_s, n_w)
                    self.token_slots += len(docs) * n_s * n_w

        wrapper.__wrapped__ = func
        return wrapper

    def _counter(self, func):
        def wrapper(kind, operands, **kw):
            self.prims[kind] += 1
            return func(kind, operands, **kw)

        wrapper.__wrapped__ = func
        return wrapper

    # -- results ----------------------------------------------------------

    def total(self, label: str, phase: str = "") -> float:
        return sum(v for (p, name), v in self.seconds.items()
                   if name == label and (not phase or p == phase))

    def total_nodes(self, label: str, phase: str = "") -> int:
        return sum(v for (p, name), v in self.nodes.items()
                   if name == label and (not phase or p == phase))

    def glue(self, phase: str = "") -> float:
        forward = self.total("model.forward", phase) + self.total("model.forward_notape", phase)
        return forward - sum(self.total(child, phase) for child in FORWARD_CHILDREN)

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics over everything traced, in ``per_layer_units`` order."""
        values = {
            "encoders.forward_s": self.total("encoders.forward"),
            "encoders.tape_nodes": self.total_nodes("encoders.forward"),
        }
        for part in CAPSULE_PARTS:
            values[f"capsule.{part}_s"] = self.total(f"capsule.{part}")
            values[f"capsule.{part}.tape_nodes"] = self.total_nodes(f"capsule.{part}")
        values["tensor.backward_s"] = self.total("tensor.backward")
        values["tensor.tape_nodes"] = self.total_nodes("tensor.tape")
        for kind in PRIMITIVES:
            values[f"tensor.prim.{kind}.calls"] = self.prims.get(kind, 0)
        values.update({
            "model.forward_s": self.total("model.forward"),
            "model.forward.tape_nodes": self.total_nodes("model.forward"),
            "model.glue_s": self.glue(),
            "model.forward_notape_s": self.total("model.forward_notape"),
            "training.loss_s": self.total("training.loss"),
            "training.adam_s": self.total("training.adam"),
            "text.read_s": self.total("text.read"),
            "text.encode_s": self.total("text.encode"),
            "text.load_embeddings_s": self.total("text.load_embeddings"),
            "text.fill_ratio": self.kept_tokens / self.token_slots,
            "adversarial.augment_s": self.total("adversarial.augment"),
            "serialize.save_s": self.total("serialize.save"),
            "serialize.load_s": self.total("serialize.load"),
        })
        return {name: values[name] for name in per_layer_units()}

    def report(self, kind: str, trial_s: float) -> List[str]:
        """Layer shares of the traced trial, as lines for a person to read."""
        t = "trial"

        def share(seconds: float, whole: float) -> str:
            return f"{seconds:.3f} s ({seconds / whole:.0%})" if whole > 0 else f"{seconds:.3f} s"

        text_adv = sum(self.total(label, t) for label in
                       ("text.read", "text.load_embeddings", "text.encode", "adversarial.augment"))
        lines = [f"traced trial: {trial_s:.3f} s; text plus adversarial work "
                 f"{share(text_adv, trial_s)}"]
        forward = self.total("model.forward", t) + self.total("model.forward_notape", t)
        parts = ", ".join(f"{label} {share(self.total(label, t), forward)}"
                          for label in FORWARD_CHILDREN)
        lines.append(f"forward {share(forward, trial_s)}: {parts}, "
                     f"glue {share(self.glue(t), forward)}")
        if kind == "train":
            nodes = self.total_nodes("model.forward", t)
            enc = self.total_nodes("encoders.forward", t)
            lines.append(f"forward tape nodes {nodes}, encoder {enc} "
                         f"({enc / nodes:.1%})" if nodes else "forward tape nodes 0")
            lines.append("backward " + share(self.total("tensor.backward", t), trial_s)
                         + ", adam " + share(self.total("training.adam", t), trial_s)
                         + ", loss " + share(self.total("training.loss", t), trial_s))
        else:
            lines.append("read " + share(self.total("text.read", t), trial_s)
                         + ", load_embeddings " + share(self.total("text.load_embeddings", t), trial_s)
                         + ", augment " + share(self.total("adversarial.augment", t), trial_s)
                         + ", encode " + share(self.total("text.encode", t), trial_s))
        return lines
