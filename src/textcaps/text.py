"""Document tokenization, embedding tables, and fixed-shape input encoding.

Documents are split into a sentence/word grid, truncated to the first
``n_s`` sentences and ``n_w`` words per sentence, and embedded into a
dense block by one gather from the embedding table's matrix.
Out-of-vocabulary tokens and padding both embed as the matrix's zero row,
so they stay gradient-inert.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

SENTENCE_TERMINATORS = ".!?;"


class DatasetError(ValueError):
    """Base class for dataset / embedding file failures."""


class InvalidEncodingError(DatasetError):
    pass


class MalformedLineError(DatasetError):
    pass


class BadLabelError(DatasetError):
    pass


class EmbeddingFileError(DatasetError):
    pass


class RaggedLineError(EmbeddingFileError):
    pass


class UnparseableNumberError(EmbeddingFileError):
    pass


class EmptyEmbeddingsError(EmbeddingFileError):
    pass


@dataclass
class Document:
    raw_text: str
    sentences: List[List[str]]
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise BadLabelError(f"label must be 0 or 1, got {self.label!r}")


def _strip_edge_punct(token: str) -> str:
    start, stop = 0, len(token)
    while start < stop and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while stop > start and unicodedata.category(token[stop - 1]).startswith("P"):
        stop -= 1
    return token[start:stop]


def tokenize(raw_text: str) -> List[List[str]]:
    """Split text into sentences of word tokens.

    Sentences break at '.', '!', '?', ';' (the terminator is consumed).
    Within a sentence the text is lowercased, words are split on
    whitespace runs, punctuation is stripped from token edges, and empty
    sentences are dropped. Diacritics are preserved.
    """
    sentences: List[List[str]] = []
    segment_tokens: List[str] = []
    current: List[str] = []

    def flush_segment() -> None:
        if segment_tokens:
            sentences.append(list(segment_tokens))
            segment_tokens.clear()

    text = raw_text.lower()
    for ch in text + SENTENCE_TERMINATORS[0]:
        if ch in SENTENCE_TERMINATORS or ch.isspace():
            if current:
                token = _strip_edge_punct("".join(current))
                if token:
                    segment_tokens.append(token)
                current.clear()
            if ch in SENTENCE_TERMINATORS:
                flush_segment()
        else:
            current.append(ch)
    return sentences


@dataclass
class EmbeddingTable:
    """Token -> fixed-length vector map, stacked once into a dense matrix.

    ``matrix`` is (V + 1, dimension): row ``ids[token]`` holds the token's
    vector and the last row, index ``V``, is the zero vector shared by
    out-of-vocabulary tokens and padding.
    """

    dimension: int
    entries: Dict[str, np.ndarray]
    ids: Dict[str, int] = field(init=False, repr=False)
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.ids = {token: row for row, token in enumerate(self.entries)}
        self.matrix = np.zeros((len(self.entries) + 1, self.dimension))
        for row, vector in enumerate(self.entries.values()):
            self.matrix[row] = vector

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def load_embeddings(path) -> EmbeddingTable:
    """Load a word2vec-text-format embedding table.

    The file may start with a "vocab_count dimension" header line; otherwise
    the dimension is inferred from the first data line. Duplicate tokens keep
    their first occurrence; unknown tokens embed as zeros.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise InvalidEncodingError(f"{path}: not valid UTF-8: {exc}") from exc

    entries: Dict[str, np.ndarray] = {}
    dimension = None
    first_data = True
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split(" ")
        if first_data and len(fields) == 2:
            try:
                int(fields[0]), int(fields[1])
            except ValueError:
                pass
            else:
                dimension = int(fields[1])
                first_data = False
                continue
        token, raw_values = fields[0], fields[1:]
        try:
            vector = np.array([float(v) for v in raw_values])
        except ValueError as exc:
            raise UnparseableNumberError(
                f"line {lineno}: cannot parse embedding values: {exc}") from exc
        if dimension is None:
            dimension = len(raw_values)
            if dimension == 0:
                raise RaggedLineError(f"line {lineno}: token without values")
        if len(raw_values) != dimension:
            raise RaggedLineError(
                f"line {lineno}: expected {dimension} values, found {len(raw_values)}")
        first_data = False
        if token not in entries:
            entries[token] = vector
    if dimension is None or not entries:
        raise EmptyEmbeddingsError(f"{path}: no embedding vectors found")
    return EmbeddingTable(dimension=dimension, entries=entries)


def encode_batch(
    docs: Sequence[Document],
    table: EmbeddingTable,
    n_s: int,
    n_w: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode documents into a (batch, n_s * n_w, E_d) block plus labels.

    Keeps the first n_s sentences and the first n_w words of each, flattened
    in reading order. Tokens become row ids of ``table.matrix`` and the block
    is one gather; missing positions take the zero row, like unknown tokens.
    """
    if n_s < 1 or n_w < 1:
        raise ValueError(f"n_s and n_w must be >= 1, got {n_s}, {n_w}")
    zero_row = len(table.ids)
    ids: List[int] = []
    for doc in docs:
        kept = doc.sentences[:n_s]
        for sentence in kept:
            words = sentence[:n_w]
            ids.extend(table.ids.get(token, zero_row) for token in words)
            ids.extend([zero_row] * (n_w - len(words)))
        ids.extend([zero_row] * (n_w * (n_s - len(kept))))
    rows = np.array(ids, dtype=np.intp).reshape(len(docs), n_s * n_w)
    labels = np.array([doc.label for doc in docs], dtype=np.int64)
    return table.matrix[rows], labels


def read_dataset(path) -> List[Document]:
    """Read a JSON Lines dataset with "text" (string) and "label" (0/1) fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise InvalidEncodingError(f"{path}: not valid UTF-8: {exc}") from exc

    docs: List[Document] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLineError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
            raise MalformedLineError(
                f"line {lineno}: expected an object with 'text' and 'label'")
        text, label = obj["text"], obj["label"]
        if not isinstance(text, str):
            raise MalformedLineError(f"line {lineno}: 'text' must be a string")
        if not isinstance(label, int) or isinstance(label, bool) or label not in (0, 1):
            raise BadLabelError(f"line {lineno}: 'label' must be 0 or 1, got {label!r}")
        docs.append(Document(raw_text=text, sentences=tokenize(text), label=label))
    return docs


def render_document(sentences: Sequence[Sequence[str]]) -> str:
    """Serialize a sentence/token grid back to dataset text."""
    return " ".join(" ".join(sentence) + "." for sentence in sentences)


def write_dataset(path, docs: Sequence[Document]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            fh.write(json.dumps({"text": doc.raw_text, "label": doc.label},
                                ensure_ascii=False) + "\n")
