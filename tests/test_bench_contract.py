"""The names the benchmark in perfbench/ reaches for in textcaps all exist.

perfbench/ drives the library from outside: the tracer swaps functions by
(module, name), the probe swaps names on ``textcaps.training``, and
``bench.py`` calls library functions by attribute. A renamed or removed name
would otherwise surface only when the benchmark itself runs.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from textcaps import model, serialize, tensor, text, training
from textcaps.adversarial import PerturbationPolicy, SeededRng, augment_dataset
from textcaps.capsule import CapsuleHeadConfig
from textcaps.encoders import EncoderConfig
from textcaps.synth import generate_synthetic_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    """perfbench's ``bench`` and ``tracer`` modules; importing them runs nothing."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return bench, tracer


def test_traced_spans_exist(perfbench_modules):
    _, tracer = perfbench_modules
    for home, name, _ in tracer.SPANS:
        assert callable(getattr(importlib.import_module(home), name, None)), (home, name)


def test_probed_names_exist(perfbench_modules):
    bench, _ = perfbench_modules
    for name in bench.Probe.PROBED:
        assert hasattr(training, name), name


def test_probed_calls_bind():
    """The probe's wrappers pass these arguments positionally."""
    calls = {"adam_step": ("params", "state", "lr"), "lr_at": ("epoch", "config"),
             "bce_loss_batch": ("probs", "labels")}
    for name, args in calls.items():
        inspect.signature(getattr(training, name)).bind(*args)


def test_encode_batch_calls_are_positional():
    """The tracer reads encode_batch's docs, n_s and n_w as args[0], args[2]
    and args[3], so every call in textcaps passes all four positionally."""
    inspect.signature(text.encode_batch).bind("docs", "table", "n_s", "n_w")
    source = Path(text.__file__).parent
    calls = [(path.name, node.lineno, len(node.args), len(node.keywords))
             for path in sorted(source.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "encode_batch"]
    assert calls, "textcaps no longer calls encode_batch"
    assert [c for c in calls if c[2:] != (4, 0)] == []


def test_augment_call_binds():
    """bench.py's score pass calls augment_dataset(docs, policy, seed, epoch)."""
    inspect.signature(augment_dataset).bind("docs", "policy", "seed", "epoch")


def test_checkpoint_meta_calls_bind():
    """bench.py's setup writes serialize.model_meta(config, e_d) and unpacks
    config_parts_from_meta's result as encoder, head, n_s, n_w, e_d."""
    inspect.signature(serialize.model_meta).bind("config", "e_d")
    config = training.TrainConfig(encoder=EncoderConfig(kind="cnn"), head=CapsuleHeadConfig(),
                                  n_s=2, n_w=3)
    encoder, head, n_s, n_w, e_d = serialize.config_parts_from_meta(
        serialize.model_meta(config, 4))
    assert (encoder, head, n_s, n_w, e_d) == (config.encoder, config.head, 2, 3, 4)


def test_model_parameters_are_the_type_bench_names(tmp_path):
    """bench.py's Inputs.params holds init_model's and load_model's values
    as tensor.Parameter: tensors that need a gradient."""
    config = training.TrainConfig(encoder=EncoderConfig(kind="cnn"), head=CapsuleHeadConfig(),
                                  n_s=2, n_w=3)
    params = model.init_model(config.encoder, config.head, 4, 6, SeededRng(0))
    serialize.save_model(tmp_path / "m.caps", params, serialize.model_meta(config, 4))
    loaded, _ = serialize.load_model(tmp_path / "m.caps")
    assert issubclass(tensor.Parameter, tensor.Tensor)
    for values in (params, loaded):
        assert values and all(isinstance(p, tensor.Parameter) and p.needs_grad
                              for p in values.values())


def test_counted_primitives_exist(perfbench_modules):
    _, tracer = perfbench_modules
    assert set(tracer.PRIMITIVES) <= set(tensor._PRIMITIVES)


def test_library_attributes_used_by_bench_exist(perfbench_modules):
    bench, _ = perfbench_modules
    tree = ast.parse((PERFBENCH / "bench.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: f"textcaps.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "textcaps"
               for alias in node.names}
    used = {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert used, "bench.py no longer imports textcaps modules by name"
    missing = [pair for pair in sorted(used)
               if not hasattr(importlib.import_module(pair[0]), pair[1])]
    assert not missing


def test_default_policy_augments():
    docs, _ = generate_synthetic_corpus(6, 20, 1)
    out = augment_dataset(docs, PerturbationPolicy(), 1, 0)
    assert [d.label for d in out] == [d.label for d in docs]
