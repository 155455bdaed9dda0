"""Tokenizer, embedding loader, and document encoding tests."""

import numpy as np
import pytest

from textcaps.text import (
    BadLabelError,
    Document,
    EmptyEmbeddingsError,
    MalformedLineError,
    RaggedLineError,
    UnparseableNumberError,
    EmbeddingTable,
    encode_batch,
    load_embeddings,
    read_dataset,
    render_document,
    tokenize,
    write_dataset,
)

SENTENCE_TERMINATORS = ".!?;"


def encode_reference(doc, table, n_s, n_w):
    """The per-token loop that encode_batch's gather replaced, kept as its oracle.

    Embeds one document into an (n_s * n_w, E_d) block: the first n_s
    sentences and first n_w words, unknown tokens and padding as zeros.
    """
    block = np.zeros((n_s, n_w, table.dimension))
    for si, sentence in enumerate(doc.sentences[:n_s]):
        for wi, token in enumerate(sentence[:n_w]):
            block[si, wi] = table.entries.get(token, np.zeros(table.dimension))
    return block.reshape(n_s * n_w, table.dimension)


def _encode_one(doc, table, n_s, n_w):
    """A single document is a batch of one: (n_s, n_w, E_d) view of its block."""
    blocks, labels = encode_batch([doc], table, n_s, n_w)
    assert blocks.shape == (1, n_s * n_w, table.dimension)
    assert labels.tolist() == [doc.label]
    return blocks[0].reshape(n_s, n_w, table.dimension)


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


class TestEmbeddings:
    def _write(self, tmp_path, content):
        path = tmp_path / "emb.txt"
        path.write_text(content, encoding="utf-8")
        return path

    def test_header_and_lookup(self, tmp_path):
        table = load_embeddings(self._write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
        assert table.dimension == 3
        np.testing.assert_array_equal(table.entries["a"], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(table.matrix[table.ids["a"]], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(table.matrix[table.ids["b"]], [0.0, 1.0, 0.0])

    def test_oov_is_zero(self, tmp_path):
        table = load_embeddings(self._write(tmp_path, "a 1 0 0\n"))
        assert "zzz" not in table
        assert table.matrix.shape == (2, 3)
        np.testing.assert_array_equal(table.matrix[-1], [0.0, 0.0, 0.0])
        blocks, _ = encode_batch([Document("", [["zzz"]], 0)], table, 1, 1)
        np.testing.assert_array_equal(blocks, [[[0.0, 0.0, 0.0]]])

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
                    if token in small_table:
                        np.testing.assert_array_equal(
                            block[si, wi], small_table.entries[token])

    def test_encode_batch_matches_single(self, small_table):
        docs = [Document("", [["a", "b"], ["b"]], 1), Document("", [["zz"]], 0)]
        blocks, labels = encode_batch(docs, small_table, n_s=2, n_w=3)
        assert blocks.shape == (2, 6, 3)
        np.testing.assert_array_equal(labels, [1, 0])
        for row, doc in zip(blocks, docs):
            single = _encode_one(doc, small_table, 2, 3).reshape(6, 3)
            assert single.tobytes() == row.tobytes()


class TestEncodeReference:
    """encode_batch's gather against the per-token reference loop, bit for bit."""

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
            blocks, labels = encode_batch(docs, table, n_s, n_w)
            expected = np.stack([encode_reference(d, table, n_s, n_w) for d in docs])
            assert blocks.shape == expected.shape
            assert blocks.dtype == expected.dtype
            assert blocks.tobytes() == expected.tobytes()
            assert labels.tolist() == [d.label for d in docs]

    def test_empty_document_list(self, small_table):
        blocks, labels = encode_batch([], small_table, n_s=2, n_w=3)
        assert blocks.shape == (0, 6, 3)
        assert labels.shape == (0,)

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
