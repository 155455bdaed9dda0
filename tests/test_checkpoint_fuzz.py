"""Corrupted checkpoints: every truncation or byte flip of a valid CAPS1 file
either loads and validates or raises ModelFormatError; the CLI turns the
error into exit 1 with a one-line diagnostic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textcaps.adversarial import SeededRng
from textcaps.capsule import CapsuleHeadConfig
from textcaps.cli import _rebuild_from_checkpoint, main
from textcaps.encoders import EncoderConfig
from textcaps.model import init_model
from textcaps.serialize import ModelFormatError, model_meta, save_model
from textcaps.synth import generate_embeddings, generate_synthetic_corpus, write_embeddings_file
from textcaps.text import write_dataset
from textcaps.training import TrainConfig

E_D = 4
CONFIGS = {
    "cnn-capsule": TrainConfig(
        encoder=EncoderConfig(kind="cnn", kernel_sizes=(2, 3), filters_per_kernel=3),
        head=CapsuleHeadConfig(n_pc=2, n_cc=3, d=2, routing_iterations=2), n_s=2, n_w=3),
    "bigru-baseline": TrainConfig(
        encoder=EncoderConfig(kind="bigru", hidden_dim=2), head=None, n_s=2, n_w=3),
}


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    blobs = {}
    for name, config in CONFIGS.items():
        params = init_model(config.encoder, config.head, E_D, config.n_s * config.n_w,
                            SeededRng(1))
        path = root / f"{name}.caps"
        save_model(path, params, model_meta(config, E_D))
        blobs[name] = path.read_bytes()
    docs, vocab = generate_synthetic_corpus(6, 10, 2)
    write_dataset(root / "docs.jsonl", docs)
    write_embeddings_file(root / "emb.txt", vocab, generate_embeddings(vocab, E_D, 2))
    return root, blobs


def _loads_or_format_error(path):
    try:
        _rebuild_from_checkpoint(path)
    except ModelFormatError:
        return False
    return True


def test_intact_checkpoints_validate(checkpoints):
    root, blobs = checkpoints
    for name in blobs:
        assert _loads_or_format_error(root / f"{name}.caps")


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)), data=st.data())
def test_truncated(checkpoints, name, data):
    root, blobs = checkpoints
    blob = blobs[name]
    cut = data.draw(st.integers(0, len(blob) - 1))
    path = root / "truncated.caps"
    path.write_bytes(blob[:cut])
    assert not _loads_or_format_error(path)  # every record is needed


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)), data=st.data())
def test_flipped_bytes(checkpoints, name, data):
    root, blobs = checkpoints
    blob = bytearray(blobs[name])
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(1, 255)), min_size=1, max_size=3))
    for position, mask in flips:
        blob[position] ^= mask
    path = root / "flipped.caps"
    path.write_bytes(bytes(blob))
    _loads_or_format_error(path)  # anything else propagates and fails the test


@pytest.mark.parametrize("corrupt", [
    lambda b: b[:len(b) // 2],
    lambda b: b[:5],
    lambda b: b[:9] + b"\xff" * 4 + b[13:],   # first record's name bytes
    lambda b: b[:-3],
], ids=["half", "magic-only", "name-not-utf8", "short-tail"])
def test_cli_one_line_error(checkpoints, capsys, corrupt):
    root, blobs = checkpoints
    path = root / "cli.caps"
    path.write_bytes(corrupt(blobs["cnn-capsule"]))
    code = main(["eval", "--model", str(path), "--data", str(root / "docs.jsonl"),
                 "--embeddings", str(root / "emb.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
