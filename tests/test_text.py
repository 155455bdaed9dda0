"""Tokenizer, embedding loader, document encoding, and text file IO tests."""

import ast
import re
import sys
import tracemalloc
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textcaps import text
from textcaps.serialize import (
    write_ablation_csv,
    write_json,
    write_metrics_csv,
    write_representations_csv,
    write_sweep_csv,
)
from textcaps.synth import generate_embeddings, write_embeddings_file
from textcaps.training import AblationRow, EpochRecord, Metrics, SweepCell
from textcaps.text import (
    BadLabelError,
    DatasetError,
    Document,
    EmptyEmbeddingsError,
    InvalidEncodingError,
    MalformedLineError,
    RaggedLineError,
    UnparseableNumberError,
    EmbeddingTable,
    _strip_edge_punct,
    encode_batch,
    load_embeddings,
    read_dataset,
    read_lines,
    render_document,
    tokenize,
    write_dataset,
    write_lines,
)

SENTENCE_TERMINATORS = ".!?;"


def strip_edge_punct_reference(token):
    """The edge scan without _strip_edge_punct's alphanumeric fast path."""
    start, stop = 0, len(token)
    while start < stop and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while stop > start and unicodedata.category(token[stop - 1]).startswith("P"):
        stop -= 1
    return token[start:stop]


def tokenize_reference(raw_text):
    """The character loop that tokenize's regex split replaced, kept as its oracle.

    A terminator or a whitespace character ends the current token; a
    terminator also ends the current sentence. Tokens lose their edge
    punctuation, and empty tokens and sentences are dropped.
    """
    sentences = []
    segment_tokens = []
    current = []

    def flush_segment():
        if segment_tokens:
            sentences.append(list(segment_tokens))
            segment_tokens.clear()

    text = raw_text.lower()
    for ch in text + SENTENCE_TERMINATORS[0]:
        if ch in SENTENCE_TERMINATORS or ch.isspace():
            if current:
                token = strip_edge_punct_reference("".join(current))
                if token:
                    segment_tokens.append(token)
                current.clear()
            if ch in SENTENCE_TERMINATORS:
                flush_segment()
        else:
            current.append(ch)
    return sentences


# Terminators, edge punctuation, Romanian diacritics in both cases, and
# whitespace that str.isspace accepts beyond ASCII (separators \x1c-\x1f,
# NEL, no-break space, line separator, ideographic space).
_TRICKY_TEXT = st.text(alphabet=st.sampled_from(list(
    "ab1 .!?;,:'\"-()[]«»„”…\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
    "ăâîșțĂÂÎȘȚİ")))


def encode_reference(doc, table, n_s, n_w):
    """The per-token loop that encode_batch's gather replaced, kept as its oracle.

    Embeds one document into an (n_s * n_w, E_d) block: the first n_s
    sentences and first n_w words, unknown tokens and padding as zeros.
    """
    block = np.zeros((n_s, n_w, table.dimension))
    for si, sentence in enumerate(doc.sentences[:n_s]):
        for wi, token in enumerate(sentence[:n_w]):
            block[si, wi] = (table.matrix[table.ids[token]] if token in table.ids
                             else np.zeros(table.dimension))
    return block.reshape(n_s * n_w, table.dimension)


def encode_batch_loop_reference(docs, table, n_s, n_w):
    """The per-token id loop that encode_batch's one map over a flat token
    list replaced, kept as its oracle: row ids and labels."""
    if n_s < 1 or n_w < 1:
        raise ValueError(f"n_s and n_w must be >= 1, got {n_s}, {n_w}")
    zero_row = len(table.ids)
    ids = []
    for doc in docs:
        kept = doc.sentences[:n_s]
        for sentence in kept:
            words = sentence[:n_w]
            ids.extend(table.ids.get(token, zero_row) for token in words)
            ids.extend([zero_row] * (n_w - len(words)))
        ids.extend([zero_row] * (n_w * (n_s - len(kept))))
    rows = np.array(ids, dtype=np.intp).reshape(len(docs), n_s * n_w)
    labels = np.array([doc.label for doc in docs], dtype=np.int64)
    return rows, labels


def _encode_one(doc, table, n_s, n_w):
    """A single document is a batch of one: (n_s, n_w, E_d) view of its
    embedded ids."""
    ids, labels = encode_batch([doc], table, n_s, n_w)
    assert ids.shape == (1, n_s * n_w)
    assert labels.tolist() == [doc.label]
    return table.embed(ids)[0].reshape(n_s, n_w, table.dimension)


class TestTokenize:
    def test_two_terminators(self):
        assert tokenize("Bun produs. Recomand!") == [["bun", "produs"], ["recomand"]]

    def test_no_terminator_is_one_sentence(self):
        assert tokenize("o boxa ok") == [["o", "boxa", "ok"]]

    def test_edge_punctuation_and_semicolon(self):
        # hand application of the stated rules
        assert tokenize("A, b; C.") == [["a", "b"], ["c"]]

    def test_empty_sentences_dropped(self):
        assert tokenize("!!! . ; x?") == [["x"]]

    def test_diacritics_preserved(self):
        assert tokenize("Știri mărețe!") == [["știri", "mărețe"]]

    def test_no_whitespace_or_terminators_in_tokens(self):
        rng = np.random.default_rng(42)
        chars = list("abc .!?;,\t\n\"'x1")
        for _ in range(200):
            text = "".join(rng.choice(chars, size=rng.integers(0, 60)))
            for sentence in tokenize(text):
                for token in sentence:
                    assert token
                    assert not any(c.isspace() for c in token)
                    assert not any(c in SENTENCE_TERMINATORS for c in token)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text())
    def test_matches_reference_on_any_text(self, text):
        assert tokenize(text) == tokenize_reference(text)

    @settings(max_examples=300, deadline=None)
    @given(text=_TRICKY_TEXT)
    def test_matches_reference_on_terminators_and_whitespace(self, text):
        assert tokenize(text) == tokenize_reference(text)

    @pytest.mark.parametrize("text", ["a_b c", "_x y_", "e\u0301 z", "x\u00a0y",
                                      "\u021aar\u0103 12", "   "],
                             ids=["inner-underscore", "edge-underscore", "combining-mark",
                                  "nbsp", "romanian-and-digits", "blank"])
    def test_matches_reference_at_the_alphanumeric_shortcut_boundary(self, text):
        assert tokenize(text) == tokenize_reference(text)

    def test_no_alphanumeric_character_is_punctuation(self):
        # _strip_edge_punct returns a token with alphanumeric ends unchanged, and
        # tokenize keeps the tokens of an all-alphanumeric segment as split.
        offenders = [hex(cp) for cp in range(sys.maxunicode + 1)
                     if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")]
        assert offenders == []

    @settings(max_examples=300, deadline=None)
    @given(token=st.text() | _TRICKY_TEXT)
    def test_strip_matches_the_edge_scan(self, token):
        assert _strip_edge_punct(token) == strip_edge_punct_reference(token)


class TestEmbeddings:
    def _write(self, tmp_path, content):
        path = tmp_path / "emb.txt"
        path.write_text(content, encoding="utf-8")
        return path

    @pytest.mark.parametrize("vector", [np.array([1.5]), np.ones(5), np.ones((1, 4)),
                                        np.float64(1.5)], ids=["short", "long", "2d", "scalar"])
    def test_table_rejects_vector_of_wrong_shape(self, vector):
        # a one-value vector would otherwise broadcast into a whole row
        with pytest.raises(DatasetError) as exc:
            EmbeddingTable(dimension=4, entries={"ok": np.zeros(4), "a": vector})
        message = str(exc.value)
        assert "'a'" in message and str(np.shape(vector)) in message and "(4,)" in message

    def test_header_and_lookup(self, tmp_path):
        table = load_embeddings(self._write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
        assert table.dimension == 3
        np.testing.assert_array_equal(table.matrix[table.ids["a"]], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(table.matrix[table.ids["a"]], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(table.matrix[table.ids["b"]], [0.0, 1.0, 0.0])

    def test_oov_is_zero(self, tmp_path):
        table = load_embeddings(self._write(tmp_path, "a 1 0 0\n"))
        assert "zzz" not in table.ids
        assert table.matrix.shape == (2, 3)
        np.testing.assert_array_equal(table.matrix[-1], [0.0, 0.0, 0.0])
        ids, _ = encode_batch([Document("", [["zzz"]], 0)], table, 1, 1)
        np.testing.assert_array_equal(table.embed(ids), [[[0.0, 0.0, 0.0]]])

    def test_headerless_dimension_inference(self, tmp_path):
        table = load_embeddings(self._write(tmp_path, "a 1 2\nb 3 4\n"))
        assert table.dimension == 2

    def test_duplicates_keep_first(self, tmp_path):
        table = load_embeddings(self._write(tmp_path, "a 1 2\na 9 9\n"))
        np.testing.assert_array_equal(table.matrix[table.ids["a"]], [1.0, 2.0])
        assert table.matrix.shape == (2, 2)

    def test_ragged_line_reports_line_number(self, tmp_path):
        with pytest.raises(RaggedLineError) as exc:
            load_embeddings(self._write(tmp_path, "3 3\na 1 0 0\nb 1 2\n"))
        assert "line 3" in str(exc.value)

    def test_unparseable_number(self, tmp_path):
        with pytest.raises(UnparseableNumberError):
            load_embeddings(self._write(tmp_path, "a 1 x 0\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyEmbeddingsError):
            load_embeddings(self._write(tmp_path, ""))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_names_the_line(self, tmp_path, value):
        with pytest.raises(UnparseableNumberError, match="line 3: .*finite"):
            load_embeddings(self._write(tmp_path, f"2 2\na 1 2\nb 0 {value}\n"))

    def test_header_dimension_must_be_positive(self, tmp_path):
        with pytest.raises(RaggedLineError, match="line 1: header dimension"):
            load_embeddings(self._write(tmp_path, "2 0\na\nb\n"))

    def test_trailing_whitespace_is_dropped(self, tmp_path):
        # word2vec's own text output ends every vector line with a space
        table = load_embeddings(self._write(tmp_path, "2 3 \na 1 0 0 \nb 0 1 0\t \n"))
        assert table.dimension == 3
        np.testing.assert_array_equal(table.matrix, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        with pytest.raises(UnparseableNumberError, match="line 2: "):
            load_embeddings(self._write(tmp_path, "2 3\na 1  0 0\n"))

    def test_leading_bom_is_dropped(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes("\ufeff2 3\na 1 0 0\n".encode("utf-8"))
        table = load_embeddings(path)
        assert table.dimension == 3 and list(table.ids) == ["a"]

    @pytest.mark.parametrize("content, message", [
        ("2 3\na 1 0 0\nb 1 2\n", "line 3: expected 3 values, found 2"),
        ("a 1 0\n\nb 1 x\n", "line 3: cannot parse embedding values: "),
        ("a 1\nb 1e999\n", "line 2: embedding values must be finite"),
        ("2 0\n", "line 1: header dimension must be >= 1, got 0"),
        ("a\n", "line 1: token without values"),
    ], ids=["ragged", "unparseable", "non-finite", "header", "no-values"])
    def test_diagnostic_names_the_file(self, tmp_path, content, message):
        path = self._write(tmp_path, content)
        with pytest.raises(DatasetError) as exc:
            load_embeddings(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_loaded_table_keeps_one_copy_of_its_vectors(self, tmp_path):
        vocab = [f"w{i}" for i in range(5000)]
        path = tmp_path / "big.txt"
        write_embeddings_file(path, vocab, generate_embeddings(vocab, 50, 3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = load_embeddings(path)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table.ids) == 5000 and "w4999" in table.ids
        # the matrix plus the ids dict; a second copy of every vector would
        # take the ratio past 2
        assert retained < 1.8 * table.matrix.nbytes


@pytest.fixture
def small_table(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
    return load_embeddings(path)


class TestEncodeDocument:
    def test_sentence_truncation(self, small_table):
        doc = Document("", [["a"] for _ in range(7)], 0)
        block = _encode_one(doc, small_table, n_s=5, n_w=4)
        assert block.shape == (5, 4, 3)
        assert np.count_nonzero(np.any(block != 0.0, axis=-1)) == 5

    def test_padding_mask(self, small_table):
        doc = Document("", [["a", "b"]], 1)
        block = _encode_one(doc, small_table, n_s=2, n_w=3)
        filled = np.any(block != 0.0, axis=-1)
        np.testing.assert_array_equal(filled, [[1, 1, 0], [0, 0, 0]])
        np.testing.assert_array_equal(block[0, 2], np.zeros(3))

    def test_lookup_passthrough(self, small_table):
        doc = Document("", [["a"]], 0)
        block = _encode_one(doc, small_table, n_s=1, n_w=1)
        np.testing.assert_array_equal(block[0, 0], [1.0, 0.0, 0.0])

    def test_total_shape_for_any_document(self, small_table):
        rng = np.random.default_rng(5)
        vocab = ["a", "b", "zz", "qq"]
        for _ in range(50):
            n_sent = int(rng.integers(0, 8))
            sentences = [
                [vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(1, 9)))]
                for _ in range(n_sent)
            ]
            doc = Document("", sentences, int(rng.integers(2)))
            block = _encode_one(doc, small_table, n_s=3, n_w=5)
            assert block.shape == (3, 5, 3)
            # kept in-vocabulary tokens round-trip exactly
            for si, sentence in enumerate(sentences[:3]):
                for wi, token in enumerate(sentence[:5]):
                    if token in small_table.ids:
                        np.testing.assert_array_equal(
                            block[si, wi], small_table.matrix[small_table.ids[token]])

    def test_encode_batch_matches_single(self, small_table):
        docs = [Document("", [["a", "b"], ["b"]], 1), Document("", [["zz"]], 0)]
        ids, labels = encode_batch(docs, small_table, n_s=2, n_w=3)
        blocks = small_table.embed(ids)
        assert blocks.shape == (2, 6, 3)
        np.testing.assert_array_equal(labels, [1, 0])
        for row, doc in zip(blocks, docs):
            single = _encode_one(doc, small_table, 2, 3).reshape(6, 3)
            assert single.tobytes() == row.tobytes()


class TestEncodeReference:
    """encode_batch's row ids, gathered, against the per-token reference
    loop, bit for bit."""

    def test_matches_reference_on_random_documents(self):
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(12)]
        table = EmbeddingTable(dimension=4, entries={
            tok: rng.normal(size=4) for tok in vocab[:8]})  # w8..w11 are OOV
        docs = []
        for _ in range(60):
            sentences = [
                [vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(1, 9)))]
                for _ in range(int(rng.integers(0, 7)))  # 0 sentences happens
            ]
            docs.append(Document("", sentences, int(rng.integers(2))))
        assert any(not doc.sentences for doc in docs)
        for n_s, n_w in [(3, 5), (1, 1), (6, 8), (2, 12)]:
            ids, labels = encode_batch(docs, table, n_s, n_w)
            blocks = table.embed(ids)
            expected = np.stack([encode_reference(d, table, n_s, n_w) for d in docs])
            assert blocks.shape == expected.shape
            assert blocks.dtype == expected.dtype
            assert blocks.tobytes() == expected.tobytes()
            assert labels.tolist() == [d.label for d in docs]
            loop_ids, _ = encode_batch_loop_reference(docs, table, n_s, n_w)
            assert ids.dtype == loop_ids.dtype and ids.tobytes() == loop_ids.tobytes()

    # Unknown tokens (zz, qq); sentences shorter and longer than n_w = 3;
    # documents with fewer and more than n_s = 2 sentences, and with none.
    LOOP_DOCS = [Document("", [["a", "zz"], ["b", "a", "qq", "b"], ["a"]], 1),
                 Document("", [["qq"]], 0), Document("", [], 1),
                 Document("", [["b", "b", "b"], ["zz", "a", "b"]], 0)]

    @pytest.mark.parametrize("docs", [LOOP_DOCS, LOOP_DOCS[2:3], []],
                             ids=["mixed", "no-sentences", "no-documents"])
    def test_matches_id_loop(self, small_table, docs):
        ids, labels = encode_batch(docs, small_table, n_s=2, n_w=3)
        want_ids, want_labels = encode_batch_loop_reference(docs, small_table, 2, 3)
        assert ids.shape == want_ids.shape and ids.dtype == want_ids.dtype
        assert ids.tobytes() == want_ids.tobytes()
        assert labels.dtype == want_labels.dtype and labels.tobytes() == want_labels.tobytes()

    def test_empty_document_list(self, small_table):
        ids, labels = encode_batch([], small_table, n_s=2, n_w=3)
        assert ids.shape == (0, 6) and small_table.embed(ids).shape == (0, 6, 3)
        assert labels.shape == (0,)

    def test_returns_integer_row_ids(self, small_table):
        # every kept token's row, and the zero row (index V) for unknown
        # tokens and padding; the vectors are gathered per batch
        ids, _ = encode_batch(self.LOOP_DOCS, small_table, n_s=2, n_w=3)
        assert ids.dtype == np.intp and ids.shape == (4, 6)
        zero = len(small_table.ids)
        assert ids[0].tolist() == [0, zero, zero, 1, 0, zero]
        assert ids[2].tolist() == [zero] * 6

    def test_matrix_is_gathered_at_one_site(self):
        # every read of an embedding matrix in the library goes through
        # EmbeddingTable.embed, so no split-sized block is built elsewhere
        source = Path(text.__file__).parent
        sites = [(path.name, node.lineno) for path in sorted(source.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                 and isinstance(node.value, ast.Attribute) and node.value.attr == "matrix"]
        embed = next(node for node in ast.walk(ast.parse(Path(text.__file__).read_text(
            encoding="utf-8"))) if isinstance(node, ast.FunctionDef) and node.name == "embed")
        assert len(sites) == 1 and sites[0][0] == "text.py", sites
        assert embed.lineno <= sites[0][1] <= embed.end_lineno

    @pytest.mark.parametrize("n_s,n_w", [(0, 3), (2, 0), (-1, -1)])
    def test_nonpositive_extents_rejected(self, small_table, n_s, n_w):
        with pytest.raises(ValueError):
            encode_batch([Document("", [["a"]], 0)], small_table, n_s, n_w)


class TestReadDataset:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text":"bun. ok","label":1}\n', encoding="utf-8")
        docs = read_dataset(path)
        assert len(docs) == 1
        assert docs[0].label == 1
        assert docs[0].sentences == [["bun"], ["ok"]]

    def test_bad_label(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text":"x","label":2}\n', encoding="utf-8")
        with pytest.raises(BadLabelError):
            read_dataset(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text":"x","label":1}\nnot json\n', encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            read_dataset(path)
        assert "line 2" in str(exc.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_dataset(path) == []

    def test_write_read_roundtrip(self, tmp_path):
        docs = [Document("bun produs. ok", [["bun", "produs"], ["ok"]], 1)]
        path = tmp_path / "out.jsonl"
        write_dataset(path, docs)
        back = read_dataset(path)
        assert back[0].raw_text == docs[0].raw_text
        assert back[0].sentences == docs[0].sentences

    @pytest.mark.parametrize("label", [True, False, 1.0, 0.0, np.int64(1), 2, -1, "1", None])
    def test_document_rejects_non_int_label(self, label):
        with pytest.raises(BadLabelError):
            Document("x", [["x"]], label)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text":"x","label":1}\n{"text":"y","label":true}\n', encoding="utf-8")
        with pytest.raises(BadLabelError) as exc:
            read_dataset(path)
        assert str(exc.value) == f"{path}: line 2: 'label' must be 0 or 1, got True"

    @pytest.mark.parametrize("content, message", [
        ('{"text":"x","label":1}\n\nnot json\n', "line 3: invalid JSON: Expecting value"),
        ('[1]\n', "line 1: expected an object with 'text' and 'label'"),
        ('{"text":5,"label":1}\n', "line 1: 'text' must be a string"),
        ('{"text":"x","label":1}\n{"text":"x","label":' + "9" * 5000 + '}\n',
         "line 2: unreadable JSON: Exceeds the limit"),
    ], ids=["invalid", "not-an-object", "text-not-a-string", "long-integer"])
    def test_diagnostic_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "data.jsonl"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            read_dataset(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_leading_bom_is_dropped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes('\ufeff{"text":"bun. ok","label":1}\n'.encode("utf-8"))
        assert [(d.sentences, d.label) for d in read_dataset(path)] == [([["bun"], ["ok"]], 1)]

    @settings(max_examples=60, deadline=None)
    @given(text=st.text(max_size=20),
           label=st.sampled_from([0, 1, True, False, 1.0, 0.0, np.int64(1), np.int8(0), 2]))
    def test_every_document_survives_write_read(self, tmp_path_factory, text, label):
        try:
            doc = Document(text, tokenize(text), label)
        except BadLabelError:
            return
        path = tmp_path_factory.mktemp("roundtrip") / "docs.jsonl"
        write_dataset(path, [doc])
        back = read_dataset(path)
        assert [(d.raw_text, d.sentences, d.label) for d in back] == [
            (doc.raw_text, doc.sentences, doc.label)]

    def test_render_tokenize_roundtrip(self):
        sentences = [["bun", "produs"], ["recomand"]]
        assert tokenize(render_document(sentences)) == sentences

    def test_invalid_encoding_reported(self, tmp_path):
        from textcaps.text import InvalidEncodingError

        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"text": "\xff\xfe broken", "label": 1}\n')
        with pytest.raises(InvalidEncodingError):
            read_dataset(bad)
        bad_emb = tmp_path / "bad_emb.txt"
        bad_emb.write_bytes(b"tok \xff 1 2\n")
        with pytest.raises(InvalidEncodingError):
            load_embeddings(bad_emb)


class TestLineCodec:
    """``read_lines`` and ``write_lines`` are the one reader and the one writer
    of text files; the writers built on them keep their bytes."""

    def test_read_lines_numbers_the_non_blank_lines(self, tmp_path):
        path = tmp_path / "f.txt"
        # a leading BOM is dropped, any line ending counts, and U+2028 ends no line
        path.write_bytes("\ufeffa\r\n\n  \nb\rc \u2028 d\n".encode("utf-8"))
        assert list(read_lines(path)) == [(1, "a"), (4, "b"), (5, "c \u2028 d")]

    def test_read_lines_names_an_undecodable_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(InvalidEncodingError, match=f"^{re.escape(str(path))}: not valid UTF-8"):
            list(read_lines(path))

    def test_write_lines_ends_every_line_with_newline(self, tmp_path):
        path = tmp_path / "f.txt"
        write_lines(path, ["\u0103", "", "b\u2028c\r"])
        assert path.read_bytes() == "\u0103\n\nb\u2028c\r\n".encode("utf-8")
        write_lines(path, [])
        assert path.read_bytes() == b""

    def test_write_dataset_bytes(self, tmp_path):
        path = tmp_path / "d.jsonl"
        raw = "\u0162ar\u0103\u2028 nou\u0103.\r"
        write_dataset(path, [Document(raw, tokenize(raw), 1), Document('"x"', [["x"]], 0)])
        assert path.read_bytes() == (
            b'{"text": "\xc5\xa2ar\xc4\x83\xe2\x80\xa8 nou\xc4\x83.\\r", "label": 1}\n'
            b'{"text": "\\"x\\"", "label": 0}\n')

    def test_write_embeddings_file_bytes(self, tmp_path):
        path = tmp_path / "e.txt"
        write_embeddings_file(path, ["\u0103", "b"], np.array([[0.1, -2.0], [3.0, 1e300]]))
        assert path.read_bytes() == (b"2 2\n\xc4\x83 0.10000000000000001 -2\n"
                                     b"b 3 1.0000000000000001e+300\n")

    def test_write_json_bytes(self, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, {"b": [1, 2.5], "a": {"\u0163": None}})
        assert path.read_bytes() == (b'{\n  "a": {\n    "\\u0163": null\n  },\n'
                                     b'  "b": [\n    1,\n    2.5\n  ]\n}\n')

    def test_csv_bytes(self, tmp_path):
        train = Metrics("train", 0.1, 0.75, 2 / 3, 1.0)
        valid = Metrics("valid", 0.5, 0.5, 0.0, 0.0)
        test = Metrics("test", 1e-20, 1.0, 1.0, 1.0)
        write_metrics_csv(tmp_path / "metrics.csv", [EpochRecord(0, train, valid)], test, 0)
        write_ablation_csv(tmp_path / "ablation.csv", [AblationRow("+Adv", valid, test)])
        write_sweep_csv(tmp_path / "sweep.csv", [SweepCell("n_pc", 4, 0.5, (0.25, 0.75), 1.5)])
        write_representations_csv(tmp_path / "repr.csv", np.array([1, 0]),
                                  np.array([[0.1, -2.0], [3.0, 1e300]]))
        assert (tmp_path / "metrics.csv").read_bytes() == (
            b"epoch,split,loss,accuracy,precision,recall\n"
            b"0,train,0.10000000000000001,0.75,0.66666666666666663,1\n"
            b"0,valid,0.5,0.5,0,0\n"
            b"0,test,9.9999999999999995e-21,1,1,1\n")
        assert (tmp_path / "ablation.csv").read_bytes() == (
            b"model,valid_accuracy,test_accuracy,test_precision,test_recall,test_loss\n"
            b"+Adv,0.5,1,1,1,9.9999999999999995e-21\n")
        assert (tmp_path / "sweep.csv").read_bytes() == (
            b"parameter,value,mean_accuracy,run_accuracies\n"
            b"n_pc,4,0.5,0.25;0.75\n")
        assert (tmp_path / "repr.csv").read_bytes() == (
            b"1,0.10000000000000001,-2\n0,3,1.0000000000000001e+300\n")

    def test_only_text_opens_files_in_text_mode(self):
        """Outside ``text``, files are opened in binary mode only (the
        checkpoint IO in ``serialize``): every text file goes through
        ``read_text``/``read_lines`` and ``write_lines``, one codec."""
        source = Path(text.__file__).parent
        found = []
        for path in sorted(source.glob("*.py")):
            if path.name == "text.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("read_text", "write_text") and isinstance(node.func, ast.Attribute):
                    found.append((path.name, node.lineno, name))
                elif name == "open":
                    mode = node.args[1] if len(node.args) > 1 else next(
                        (k.value for k in node.keywords if k.arg == "mode"), None)
                    if not (isinstance(mode, ast.Constant) and "b" in str(mode.value)):
                        found.append((path.name, node.lineno, name))
        assert found == []
