"""Corrupted datasets and embedding tables: every truncation or byte flip of a
valid file either loads (documents with 0/1 labels, or a finite table) or
raises DatasetError; the CLI turns the error into exit 1 with a one-line
diagnostic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textcaps.adversarial import SeededRng
from textcaps.capsule import CapsuleHeadConfig
from textcaps.cli import main
from textcaps.encoders import EncoderConfig
from textcaps.model import init_model
from textcaps.serialize import model_meta, save_model
from textcaps.synth import generate_embeddings, generate_synthetic_corpus, write_embeddings_file
from textcaps.text import DatasetError, Document, load_embeddings, read_dataset, write_dataset
from textcaps.training import TrainConfig

E_D = 4
CONFIG = TrainConfig(
    encoder=EncoderConfig(kind="cnn", kernel_sizes=(2, 3), filters_per_kernel=3),
    head=CapsuleHeadConfig(n_pc=2, n_cc=3, d=2, routing_iterations=2), n_s=2, n_w=3)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("input-fuzz")
    docs, vocab = generate_synthetic_corpus(6, 12, 3)
    write_dataset(root / "docs.jsonl", docs)
    write_embeddings_file(root / "emb.txt", vocab, generate_embeddings(vocab, E_D, 3))
    params = init_model(CONFIG.encoder, CONFIG.head, E_D, CONFIG.n_s * CONFIG.n_w, SeededRng(1))
    save_model(root / "model.caps", params, model_meta(CONFIG, E_D))
    blobs = {"dataset": (root / "docs.jsonl").read_bytes(),
             "embeddings": (root / "emb.txt").read_bytes()}
    return root, blobs


def _loads_or_dataset_error(kind, path):
    try:
        loaded = read_dataset(path) if kind == "dataset" else load_embeddings(path)
    except DatasetError:
        return False
    if kind == "dataset":
        assert all(isinstance(doc, Document) and isinstance(doc.raw_text, str)
                   and doc.label in (0, 1) for doc in loaded)
    else:
        assert loaded.matrix.shape == (len(loaded.ids) + 1, loaded.dimension)
        assert loaded.dimension >= 1 and np.isfinite(loaded.matrix).all()
        assert not loaded.matrix[-1].any()
    return True


def test_intact_inputs_load(inputs):
    root, _ = inputs
    assert _loads_or_dataset_error("dataset", root / "docs.jsonl")
    assert _loads_or_dataset_error("embeddings", root / "emb.txt")


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["dataset", "embeddings"]), data=st.data())
def test_truncated(inputs, kind, data):
    root, blobs = inputs
    blob = blobs[kind]
    path = root / f"truncated-{kind}"
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    _loads_or_dataset_error(kind, path)  # anything else propagates and fails the test


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["dataset", "embeddings"]), data=st.data())
def test_flipped_bytes(inputs, kind, data):
    root, blobs = inputs
    blob = bytearray(blobs[kind])
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(1, 255)), min_size=1, max_size=3))
    for position, mask in flips:
        blob[position] ^= mask
    path = root / f"flipped-{kind}"
    path.write_bytes(bytes(blob))
    _loads_or_dataset_error(kind, path)


def _first_number(blob):
    """Offset and length of the first value on the embedding file's second line."""
    line = blob.index(b"\n") + 1
    start = blob.index(b" ", line) + 1
    return start, blob.index(b" ", start) - start


@pytest.mark.parametrize("kind, corrupt", [
    ("dataset", lambda b: b[:len(b) // 2]),
    ("dataset", lambda b: b.replace(b'"label": 1', b'"label": 7', 1)),
    ("dataset", lambda b: b"\xff" + b[1:]),
    ("dataset", lambda b: b"[" * 100_000 + b"\n" + b),
    ("dataset", lambda b: b.replace(b'"label": 1', b'"label": 1' + b"0" * 5000, 1)),
    ("embeddings", lambda b: b""),
    ("embeddings", lambda b: b[:_first_number(b)[0]] + b"nan".ljust(_first_number(b)[1])
     + b[sum(_first_number(b)):]),
    ("embeddings", lambda b: b[:_first_number(b)[0]] + b"1e999"
     + b[sum(_first_number(b)):]),
], ids=["half-line", "bad-label", "not-utf8", "deep-nesting", "huge-integer", "empty", "nan",
        "overflow"])
def test_cli_one_line_error(inputs, tmp_path, capsys, kind, corrupt):
    root, blobs = inputs
    data, embeddings = root / "docs.jsonl", root / "emb.txt"
    broken = tmp_path / f"broken-{kind}"
    broken.write_bytes(corrupt(blobs[kind]))
    if kind == "dataset":
        data = broken
    else:
        embeddings = broken
    code = main(["eval", "--model", str(root / "model.caps"), "--data", str(data),
                 "--embeddings", str(embeddings)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
