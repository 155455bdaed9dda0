"""Document tokenization, embedding tables, fixed-shape encoding, and text file IO.

Documents are split into a sentence/word grid, truncated to the first
``n_s`` sentences and ``n_w`` words per sentence, and encoded as row ids
of the embedding table's matrix; ``EmbeddingTable.embed`` gathers the
vectors of a batch's ids. Out-of-vocabulary tokens and padding both take
the matrix's zero row, so they stay gradient-inert.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import InitVar, dataclass, field
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# A sentence ends at any of . ! ? ; (the terminator is consumed).
_SENTENCE_END = re.compile("[.!?;]")


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
        # Exactly the int 0 or 1, the labels a written dataset reads back as.
        if type(self.label) is not int or self.label not in (0, 1):
            raise BadLabelError(f"'label' must be 0 or 1, got {self.label!r}")


def _strip_edge_punct(token: str) -> str:
    # No alphanumeric character is in a P* category, so most tokens return here.
    if token[:1].isalnum() and token[-1:].isalnum():
        return token
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
    for segment in _SENTENCE_END.split(raw_text.lower()):
        tokens = segment.split()
        # All-alphanumeric tokens have no punctuation edge to strip.
        if not "".join(tokens).isalnum():
            tokens = [token for token in map(_strip_edge_punct, tokens) if token]
        if tokens:
            sentences.append(tokens)
    return sentences


@dataclass
class EmbeddingTable:
    """Token -> fixed-length vector map, kept as ``ids`` and one dense matrix.

    ``matrix`` is (V + 1, dimension): row ``ids[token]`` holds the token's
    vector and the last row, index ``V``, is the zero vector shared by
    out-of-vocabulary tokens and padding. The ``entries`` mapping it is
    built from is copied into the matrix and not kept, so each vector is
    stored once; a vector that is not ``(dimension,)`` raises
    RaggedLineError naming the token.
    """

    dimension: int
    entries: InitVar[Mapping[str, np.ndarray]]
    ids: Dict[str, int] = field(init=False, repr=False)
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, entries: Mapping[str, np.ndarray]) -> None:
        self.ids = {token: row for row, token in enumerate(entries)}
        self.matrix = np.zeros((len(entries) + 1, self.dimension))
        for row, (token, vector) in enumerate(entries.items()):
            if np.shape(vector) != (self.dimension,):
                raise RaggedLineError(f"embedding of {token!r} has shape {np.shape(vector)}, "
                                      f"expected ({self.dimension},)")
            self.matrix[row] = vector

    def embed(self, rows: np.ndarray) -> np.ndarray:
        """The vectors at row ids ``rows``, shape ``rows.shape + (dimension,)``:
        the one gather from ``matrix``."""
        return self.matrix[rows]


def read_text(path) -> str:
    """The file decoded as UTF-8 without a leading BOM, every line ending read
    as ``\n``; undecodable bytes raise InvalidEncodingError naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidEncodingError(f"{path}: not valid UTF-8: {exc}") from exc


def read_lines(path) -> Iterator[Tuple[int, str]]:
    """``(line number, line)`` for every non-blank line of ``read_text(path)``."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip():
            yield lineno, line


def write_lines(path, lines: Iterable[str]) -> None:
    """Write ``lines`` as UTF-8, each ended by ``\n``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def load_embeddings(path) -> EmbeddingTable:
    """Load a word2vec-text-format embedding table.

    The file may start with a "vocab_count dimension" header line; otherwise
    the dimension is inferred from the first data line. Trailing whitespace,
    which word2vec writes, is dropped. Duplicate tokens keep their first
    occurrence; unknown tokens embed as zeros. Every value, a duplicate's
    too, must be finite: ``nan``, ``inf`` and overflowing literals such as
    ``1e999`` raise :class:`UnparseableNumberError`. Diagnostics read
    ``<path>: line <n>: ...``.
    """
    entries: Dict[str, np.ndarray] = {}
    dimension = None
    for lineno, line in read_lines(path):
        fields = line.rstrip().split(" ")
        try:
            if dimension is None and len(fields) == 2:
                try:
                    _, dimension = int(fields[0]), int(fields[1])
                except ValueError:
                    pass
                else:
                    if dimension < 1:
                        raise RaggedLineError(f"header dimension must be >= 1, got {dimension}")
                    continue
            token, raw_values = fields[0], fields[1:]
            try:
                vector = np.array([float(v) for v in raw_values])
            except ValueError as exc:
                raise UnparseableNumberError(f"cannot parse embedding values: {exc}") from exc
            if dimension is None:
                dimension = len(raw_values)
                if dimension == 0:
                    raise RaggedLineError("token without values")
            if len(raw_values) != dimension:
                raise RaggedLineError(f"expected {dimension} values, found {len(raw_values)}")
            if not np.isfinite(vector).all():
                raise UnparseableNumberError("embedding values must be finite")
        except EmbeddingFileError as exc:
            raise type(exc)(f"{path}: line {lineno}: {exc}") from exc
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
    """Encode documents into (batch, n_s * n_w) intp row ids of ``table.matrix``
    plus int64 labels.

    Keeps the first n_s sentences and the first n_w words of each, flattened
    in reading order; missing positions take the zero row, like unknown
    tokens. ``table.embed(ids[batch])`` gives a batch's (B, n_s * n_w, E_d) block.
    """
    if n_s < 1 or n_w < 1:
        raise ValueError(f"n_s and n_w must be >= 1, got {n_s}, {n_w}")
    # Padding is None, which no table key is; one map looks every token up.
    tokens: List[Optional[str]] = []
    for doc in docs:
        kept = doc.sentences[:n_s]
        for sentence in kept:
            words = sentence[:n_w]
            tokens.extend(words)
            tokens.extend([None] * (n_w - len(words)))
        tokens.extend([None] * (n_w * (n_s - len(kept))))
    ids = np.fromiter(map(table.ids.get, tokens, repeat(len(table.ids))), np.intp,
                      len(tokens)).reshape(len(docs), n_s * n_w)
    labels = np.array([doc.label for doc in docs], dtype=np.int64)
    return ids, labels


def _parse_document(line: str) -> Document:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer beyond Python's digit limit, or nesting beyond the stack
        raise MalformedLineError(f"unreadable JSON: {exc}") from exc
    if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
        raise MalformedLineError("expected an object with 'text' and 'label'")
    text = obj["text"]
    if not isinstance(text, str):
        raise MalformedLineError("'text' must be a string")
    return Document(raw_text=text, sentences=tokenize(text), label=obj["label"])


def read_dataset(path) -> List[Document]:
    """Read a JSON Lines dataset with "text" (string) and "label" (0/1) fields.

    A diagnostic reads ``<path>: line <n>: ...``.
    """
    docs: List[Document] = []
    for lineno, line in read_lines(path):
        try:
            docs.append(_parse_document(line))
        except DatasetError as exc:
            raise type(exc)(f"{path}: line {lineno}: {exc}") from exc
    return docs


def render_document(sentences: Sequence[Sequence[str]]) -> str:
    """Serialize a sentence/token grid back to dataset text."""
    return " ".join(" ".join(sentence) + "." for sentence in sentences)


def write_dataset(path, docs: Sequence[Document]) -> None:
    write_lines(path, (json.dumps({"text": doc.raw_text, "label": doc.label}, ensure_ascii=False)
                       for doc in docs))
