"""Synthetic corpus generator: its reference draw loop and the pinned gen-synth files."""

import hashlib

import numpy as np
import pytest

from textcaps.adversarial import SeededRng
from textcaps.cli import main
from textcaps.synth import (
    _TAG_CORPUS,
    MARKER_FRACTION,
    SHARED_MASS,
    generate_synthetic_corpus,
)
from textcaps.text import Document, render_document

# sha256 of the files `gen-synth --docs 2000 --vocab 500 --seed 7
# --embedding-dim 16` writes (the acceptance corpus), computed with the
# per-sentence Generator.choice loop below. A numpy whose draws differ
# fails here instead of silently changing every corpus.
GEN_SYNTH_SHA256 = {
    "corpus": "59073254ae3bc2487f88b72e930b3128a65b288d88d53d9aad829dbcee126aca",
    "embeddings": "e1fe6289ad7d85d2b707067722681a43a258c2ff0f200feb23e8d538af6e3e93",
}


def generate_synthetic_corpus_reference(n_docs, vocab_size, seed):
    """The per-sentence ``Generator.choice`` loop that the class CDFs replaced,
    kept as their oracle."""
    vocab = [f"w{i}" for i in range(vocab_size)]
    n_markers = max(1, round(vocab_size * MARKER_FRACTION))
    shared_ids = np.arange(2 * n_markers, vocab_size)

    class_probs = np.zeros((2, vocab_size))
    for label in (0, 1):
        markers = np.arange(label * n_markers, (label + 1) * n_markers)
        class_probs[label, markers] = (1.0 - SHARED_MASS) / n_markers
        class_probs[label, shared_ids] = SHARED_MASS / len(shared_ids)

    rng = SeededRng(seed, _TAG_CORPUS)
    n_pos = n_docs // 2
    labels = np.array([0] * (n_docs - n_pos) + [1] * n_pos)
    rng.shuffle(labels)

    docs = []
    for label in labels:
        n_sentences = int(rng.integers(2, 6))
        sentences = []
        for _ in range(n_sentences):
            n_words = int(rng.integers(4, 13))
            ids = rng.choice(vocab_size, size=n_words, p=class_probs[label])
            sentences.append([vocab[i] for i in ids])
        docs.append(Document(raw_text=render_document(sentences),
                             sentences=sentences, label=int(label)))
    return docs, vocab


def _fields(docs):
    return [(d.raw_text, d.sentences, d.label, type(d.label)) for d in docs]


@pytest.mark.parametrize("vocab_size", [3, 10, 500, 5000])
@pytest.mark.parametrize("n_docs", [1, 2, 41, 300, 2000])
def test_matches_the_choice_loop(n_docs, vocab_size):
    for seed in (0, 7, -1, 2**70):
        docs, vocab = generate_synthetic_corpus(n_docs, vocab_size, seed)
        want_docs, want_vocab = generate_synthetic_corpus_reference(n_docs, vocab_size, seed)
        assert vocab == want_vocab
        assert _fields(docs) == _fields(want_docs)


def test_gen_synth_files_are_pinned(tmp_path, capsys):
    corpus, embeddings = tmp_path / "corpus.jsonl", tmp_path / "emb.txt"
    code = main(["gen-synth", "--docs", "2000", "--vocab", "500", "--seed", "7",
                 "--out", str(corpus), "--embeddings-out", str(embeddings),
                 "--embedding-dim", "16"])
    assert code == 0
    assert capsys.readouterr().out == (
        "wrote 2000 documents (1000 positive) and 500 embeddings of dimension 16\n")
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in (("corpus", corpus), ("embeddings", embeddings))}
    assert digests == GEN_SYNTH_SHA256
