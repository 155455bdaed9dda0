"""Synthetic two-class corpus and embedding generator for desk-scale runs.

Each class draws tokens from a class-biased multinomial over a shared
vocabulary: half of each class's probability mass sits on a shared token
pool, the other half on a small set of class-exclusive high-frequency
marker tokens, which makes the corpus linearly separable by bag-of-words
while keeping plenty of lexical overlap. Documents have 2-5 sentences of
4-12 words. Embeddings are unit-norm Gaussian vectors, one per token.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Tuple

import numpy as np

from .adversarial import SeededRng
from .text import Document, render_document, write_lines

_TAG_CORPUS = 71
_TAG_EMBED = 73

MARKER_FRACTION = 0.05
SHARED_MASS = 0.5


def generate_synthetic_corpus(
    n_docs: int, vocab_size: int, seed: int
) -> Tuple[List[Document], List[str]]:
    """Balanced labeled corpus; exactly n_docs // 2 documents carry label 1."""
    if n_docs < 1 or vocab_size < 1:
        raise ValueError("n_docs and vocab_size must be positive")
    if vocab_size < 3:
        raise ValueError("vocab_size must be >= 3 to fit two marker pools")
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

    docs: List[Document] = []
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


def generate_embeddings(vocab: List[str], e_d: int, seed: int) -> np.ndarray:
    """Unit-norm Gaussian embedding per vocabulary token, (V, e_d)."""
    if e_d < 1:
        raise ValueError("embedding dimension must be positive")
    rng = SeededRng(seed, _TAG_EMBED)
    vectors = rng.normal(size=(len(vocab), e_d))
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors / np.maximum(norms, 1e-12)


def write_embeddings_file(path, vocab: List[str], vectors: np.ndarray) -> None:
    """word2vec text format with a header line."""
    rows = (token + " " + " ".join(f"{v:.17g}" for v in vector)
            for token, vector in zip(vocab, vectors))
    write_lines(path, chain([f"{len(vocab)} {vectors.shape[1]}"], rows))
