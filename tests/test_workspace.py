"""The pool of work arrays inside a ``Workspace``: what is reused, what is
kept intact, gradients under reuse, how large the pool grows, and the minor
page faults that reuse removes."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import textcaps
from textcaps import synth, tensor, training
from textcaps.adversarial import SeededRng
from textcaps.capsule import CapsuleHeadConfig
from textcaps.encoders import EncoderConfig
from textcaps.model import forward_batch, init_model
from textcaps.text import EmbeddingTable
from textcaps.tensor import (
    FOLD_MIN_ROWS,
    Parameter,
    Tape,
    Tensor,
    Workspace,
    apply_primitive,
    backward,
    conv1d,
    grad_check,
    gru_scan,
    lstm_scan,
    routing,
    squash,
)


def _scan_weights(rng, gates, e, h, directions):
    return [rng.uniform(-1, 1, shape) for _ in range(directions)
            for shape in [(e, h)] * gates + [(h, h)] * gates + [(1, h)] * gates]


def _cases(rng):
    """(name, arrays, fn) for each primitive form that takes work arrays; fn
    maps the operand tensors to the primitive's output tensor."""
    x = rng.uniform(-1, 1, (3, 7, 4))
    return [
        ("conv1d", [x, rng.uniform(-1, 1, (12, 5)), rng.uniform(-0.5, 0.5, (1, 5)),
                    rng.uniform(-1, 1, (8, 5)), rng.uniform(-0.5, 0.5, (1, 5))],
         lambda ts: conv1d(ts[0], ts[1:])),
        ("gru_scan", [x] + _scan_weights(rng, 3, 4, 3, 2), lambda ts: gru_scan(ts[0], ts[1:])),
        ("lstm_scan", [x] + _scan_weights(rng, 4, 4, 3, 2), lambda ts: lstm_scan(ts[0], ts[1:])),
        ("squash", [x], lambda ts: squash(ts[0])),
        ("routing", [rng.uniform(-1, 1, (3, 5, 4)), rng.uniform(-1, 1, (5, 2, 4, 4))],
         lambda ts: routing(ts[0], ts[1], 3)[0]),
        ("batch @ weight", [x, rng.uniform(-1, 1, (4, 6))], lambda ts: ts[0] @ ts[1]),
        ("weight @ batch, per item", [rng.uniform(-1, 1, (5, 7)), x],
         lambda ts: ts[0] @ ts[1]),
        ("weight @ batch, folded", [rng.uniform(-1, 1, (FOLD_MIN_ROWS, 7)) / 7, x],
         lambda ts: ts[0] @ ts[1]),
    ]


CASE_NAMES = [name for name, _, _ in _cases(np.random.default_rng(0))]


def _case(name, seed):
    return next(case for case in _cases(np.random.default_rng(seed)) if case[0] == name)


def _run(fn, arrays, g):
    """A taped application and its pullback's raw gradients, not copies."""
    tensors = [Parameter(a) for a in arrays]
    with Tape() as tape:
        out = fn(tensors)
    return out.values, tape.nodes[-1].backward_fn(g)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_held_outputs_and_gradients_keep_their_bytes(name):
    # an output and the pullback's gradients from one call, still held, are
    # not reused by the next call at the same shape; the next call's values
    # equal those of a call made outside any workspace
    _, first, fn = _case(name, 1)
    _, second, _ = _case(name, 2)
    shape = fn([Tensor(a) for a in first]).shape
    g1, g2 = (np.random.default_rng(seed).uniform(-1, 1, shape) for seed in (3, 4))
    want_out, want_grads = _run(fn, second, g2)
    with Workspace():
        out, grads = _run(fn, first, g1)
        kept = [out.tobytes()] + [grad.tobytes() for grad in grads]
        again, again_grads = _run(fn, second, g2)
        assert [out.tobytes()] + [grad.tobytes() for grad in grads] == kept
    assert again.tobytes() == want_out.tobytes()
    assert [g.tobytes() for g in again_grads] == [g.tobytes() for g in want_grads]


@pytest.mark.parametrize("name", CASE_NAMES)
def test_grad_check_inside_a_workspace(name):
    # grad_check's taped pass and its tape-free central differences all run
    # on reused work arrays
    _, arrays, fn = _case(name, 5)
    params = [Parameter(a) for a in arrays]
    shape = fn(params).shape
    weights = Tensor(np.random.default_rng(6).uniform(-1, 1, shape))
    with Workspace():
        err = grad_check(
            lambda ps: (apply_primitive("tanh", [fn(ps)]) * weights).sum(),
            params, epsilon=1e-5, sample_count=40, rng=np.random.default_rng(7))
    assert err < 1e-6, f"relative error {err:.3e}"


def test_a_dropped_output_is_reused_and_a_held_one_is_not():
    rng = np.random.default_rng(8)
    x = Tensor(rng.uniform(-1, 1, (4, 6, 3)))
    weights = [Tensor(rng.uniform(-1, 1, (6, 2))), Tensor(rng.uniform(-1, 1, (1, 2)))]
    with Workspace():
        first = conv1d(x, weights).values
        held = conv1d(x, weights).values
        assert not np.shares_memory(held, first)
        dropped = {first.ctypes.data, held.ctypes.data}
        del first, held
        assert conv1d(x, weights).values.ctypes.data in dropped


def _pool(workspace):
    """The arrays a workspace holds and their bytes."""
    return list(workspace.arrays), sum(a.nbytes for a in workspace.arrays)


_GRID = {"n_s": 5, "n_w": 12, "batch_size": 32, "split": [0.7, 0.2, 0.1]}
# the benchmark's train-cnn-caps and train-bigru-desk models
_CNN_CAPS = {"encoder": {"kind": "cnn", "kernel_sizes": [3, 4, 5], "filters_per_kernel": 64},
             "head": {"type": "capsule", "n_pc": 8, "n_cc": 128, "d": 16,
                      "routing_iterations": 3}}
_BIGRU_DESK = {"encoder": {"kind": "bigru", "hidden_dim": 32},
               "head": {"type": "capsule", "n_pc": 8, "n_cc": 32, "d": 8}, "adversarial": True}
# the bigru-desk model with a CNN-BiLSTM encoder, so that an LSTM pullback runs
_CNN_BILSTM = {**_BIGRU_DESK, "encoder": {"kind": "cnn-bilstm", "kernel_sizes": [3, 4, 5],
                                          "filters_per_kernel": 16, "hidden_dim": 32}}


@pytest.mark.parametrize("body, mib", [(_CNN_CAPS, 34), (_BIGRU_DESK, 16), (_CNN_BILSTM, 57)],
                         ids=["cnn-caps", "bigru-desk-adv", "cnn-bilstm-adv"])
def test_pool_is_fixed_after_the_first_step(monkeypatch, body, mib):
    # three epochs, the last batch of each shorter, with a validation pass
    # after each: after the first step no array joins or leaves the pool, so
    # the scans' pullbacks give their blocks of Jacobian factors back to it.
    # backward drops each pullback once it has run, so the arrays that only
    # its closure held, such as the compression's batch copy, serve the
    # earlier pullbacks. Measured: 15 arrays of 31.1 MiB (cnn-caps), 20 of
    # 15.4 MiB (bigru-desk), 25 of 56.1 MiB (cnn-bilstm). The bounds sit
    # below the 36.5 and 57.4 MiB read while every pullback lived as long as
    # its tape and the scans held their staging buffer to the end.
    docs, vocab = synth.generate_synthetic_corpus(300, 200, 5)
    table = EmbeddingTable(dimension=16, entries=dict(zip(vocab, synth.generate_embeddings(
        vocab, 16, 5))))
    config = training.config_from_dict({**body, **_GRID, "epochs": 3, "learning_rate": 2e-3})
    pools = []
    adam_step = training.adam_step

    def spy(*args):
        adam_step(*args)
        arrays, nbytes = _pool(tensor._WORKSPACES[-1])
        pools.append((sorted(map(id, arrays)), nbytes))

    monkeypatch.setattr(training, "adam_step", spy)
    training.train(config, docs, table)
    # 210 training documents, doubled by their adversarial copies
    assert len(pools) == 3 * (14 if body.get("adversarial") else 7)
    assert all(pool == pools[0] for pool in pools[1:])
    assert pools[0][1] < mib * 2**20, f"pool {pools[0][1] / 2**20:.1f} MiB"


def test_tape_free_forward_shares_arrays(monkeypatch):
    # each of the 11 work arrays a tape-free forward asks for at
    # train-cnn-caps shapes (conv1d's bias table among them) comes from
    # another call site, so one array per site held them all: 25.1 MB
    # (24.0 MiB). The pool reuses the arrays that earlier primitives dropped
    # and holds 7 arrays of 16.9 MB (16.1 MiB).
    config = training.config_from_dict({**_CNN_CAPS, **_GRID})
    params = init_model(config.encoder, config.head, 16, 60, SeededRng(4))
    x = Tensor(np.random.default_rng(11).uniform(-1, 1, (32, 60, 16)))
    asked = []
    work = tensor._work

    def spy(shape):
        asked.append(8 * math.prod(shape))
        return work(shape)

    with Workspace() as workspace:
        forward_batch(config.encoder, config.head, params, x)
        monkeypatch.setattr(tensor, "_work", spy)
        forward_batch(config.encoder, config.head, params, x)
        arrays, nbytes = _pool(workspace)
    assert len(asked) == 11
    assert len(arrays) < len(asked) and nbytes < 0.7 * sum(asked)


@pytest.mark.parametrize("kind, n_cc", [("cnn", FOLD_MIN_ROWS), ("bigru", 8)],
                         ids=["cnn-folded", "bigru-per-item"])
def test_held_forward_result_keeps_its_bytes(kind, n_cc):
    # a ForwardResult kept across the next forward and backward, as a
    # caller inspecting representations would keep it
    encoder = EncoderConfig(kind=kind, kernel_sizes=(2, 3), filters_per_kernel=4,
                            hidden_dim=3)
    head = CapsuleHeadConfig(n_pc=2, n_cc=n_cc, d=4)
    params = init_model(encoder, head, 5, 8, SeededRng(9))
    rng = np.random.default_rng(10)
    x1, x2 = (Tensor(rng.uniform(-1, 1, (3, 8, 5))) for _ in range(2))

    def stages(result):
        return [result.probs.values.tobytes(), result.feature_map.values.tobytes(),
                result.condensed.values.tobytes(), result.class_capsules.values.tobytes()]

    want = stages(forward_batch(encoder, head, params, x2))
    with Workspace():
        kept = forward_batch(encoder, head, params, x1)
        before = stages(kept)
        with Tape() as tape:
            loss = forward_batch(encoder, head, params, x2).probs.sum()
        backward(loss, tape)
        again = forward_batch(encoder, head, params, x2)
        assert stages(kept) == before
        assert stages(again) == want


# Trains a few steps at train-bigru-desk's shapes, then runs `textcaps eval`
# at score-adv's, in a fresh process as every CLI run is one; prints the
# minor page faults of each step (Tape() to the end of adam_step) and each
# scored batch (forward_batch to the end of bce_loss_batch), as the benchmark
# times them.
_FAULTS_SCRIPT = textwrap.dedent('''
    import json, resource, sys
    from pathlib import Path
    from textcaps import cli, serialize, synth, tensor, text, training
    from textcaps.adversarial import SeededRng
    from textcaps.model import init_model

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    out = Path(sys.argv[1])
    docs, vocab = synth.generate_synthetic_corpus(640, 500, 4)
    synth.write_embeddings_file(out / "emb.txt", vocab, synth.generate_embeddings(vocab, 16, 4))
    text.write_dataset(out / "docs.jsonl", docs)
    table = text.load_embeddings(out / "emb.txt")
    grid = {"n_s": 5, "n_w": 12, "batch_size": 32, "epochs": 1}

    lib = {name: getattr(training, name)
           for name in ("Tape", "adam_step", "forward_batch", "bce_loss_batch")}
    marks, steps, batches = [], [], []

    def tape():
        marks.append(faults())
        return lib["Tape"]()

    def adam_step(*args):
        lib["adam_step"](*args)
        steps.append(faults() - marks.pop())

    def forward_batch(*args):
        if tensor.active_tape() is None:
            marks.append(faults())
        return lib["forward_batch"](*args)

    def bce_loss_batch(probs, labels):
        loss = lib["bce_loss_batch"](probs, labels)
        if tensor.active_tape() is None:
            batches.append(faults() - marks.pop())
        return loss

    for name, wrapper in (("Tape", tape), ("adam_step", adam_step),
                          ("forward_batch", forward_batch), ("bce_loss_batch", bce_loss_batch)):
        setattr(training, name, wrapper)
    training.train(training.config_from_dict({
        "encoder": {"kind": "bigru", "hidden_dim": 32},
        "head": {"type": "capsule", "n_pc": 8, "n_cc": 32, "d": 8},
        "adversarial": True, "learning_rate": 3e-3, **grid}), docs, table)
    config = training.config_from_dict({
        "encoder": {"kind": "cnn", "kernel_sizes": [3, 4, 5], "filters_per_kernel": 16},
        "head": {"type": "capsule", "n_pc": 4, "n_cc": 16, "d": 8}, **grid})
    params = init_model(config.encoder, config.head, 16, 60, SeededRng(4))
    serialize.save_model(out / "model.caps", params, serialize.model_meta(config, 16))
    del batches[:]
    code = cli.main(["eval", "--model", str(out / "model.caps"),
                     "--data", str(out / "docs.jsonl"), "--embeddings", str(out / "emb.txt")])
    print(json.dumps({"code": code, "steps": steps, "batches": batches}))
''')

# Minor faults allowed in the median step and scored batch after the first
# few. Measured on a 2-vCPU Xeon: 0 with reused work arrays; about 1,400-2,100
# per step with per-batch embedding and fresh arrays; 996 per `eval` batch
# with whole-split blocks.
FAULT_BOUND = 100


def test_steps_and_scored_batches_do_not_fault(tmp_path):
    pytest.importorskip("resource")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(textcaps.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    steps, batches = result["steps"][3:], result["batches"][3:]
    assert result["code"] == 0 and len(steps) >= 20 and len(batches) >= 15
    assert np.median(steps) < FAULT_BOUND, result["steps"]
    assert np.median(batches) < FAULT_BOUND, result["batches"]
