"""Adversarial perturbation policy laws: counts, edit distance, determinism."""

import hashlib

import numpy as np
import pytest

from textcaps.adversarial import (
    ROMANIAN_ALPHABET,
    PerturbationPolicy,
    SeededRng,
    augment_dataset,
    perturb_sentence,
    perturb_word,
)
from textcaps.synth import generate_synthetic_corpus
from textcaps.text import Document, read_dataset, write_dataset

# sha256 of the JSONL that write_dataset writes for the adversarial copies of
# a 200-document synthetic corpus (vocab 60, corpus seed 17, augment seed 29),
# computed with the configurable-threshold policy and character-loop
# tokenizer these replaced; the fixed rule must reproduce them to the byte.
AUGMENT_SHA256 = {
    0: "7161479aba09efc202ec15174e62636ac042ab830e7b2ce3cabac4a469c7620f",
    3: "e8f4d16cff9254daa44320eab772823e4126b5c9b1118b41d402107f44e33830",
}


def edit_distance_one_char(a: str, b: str) -> int:
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a, b) if x != y)


class TestPolicy:
    def test_alphabet_has_31_letters(self):
        assert len(ROMANIAN_ALPHABET) == 31
        assert len(set(ROMANIAN_ALPHABET)) == 31
        for ch in ("ă", "â", "î", "ș", "ț"):
            assert ch in ROMANIAN_ALPHABET

    @pytest.mark.parametrize("word_count,expected", [
        (1, 1), (4, 1), (5, 2), (12, 2), (20, 2), (21, 3), (25, 3), (100, 3),
    ])
    def test_threshold_rule(self, word_count, expected):
        assert PerturbationPolicy().replacements_for(word_count) == expected


class TestPerturbWord:
    def test_edit_distance_exactly_one(self):
        policy = PerturbationPolicy()
        rng = SeededRng(123)
        for word in ["bun", "x", "recomand", "mărețe", "abcdefghij"]:
            out = perturb_word(word, policy, rng)
            assert len(out) == len(word)
            assert edit_distance_one_char(word, out) == 1

    def test_deterministic_under_seed(self):
        policy = PerturbationPolicy()
        first = perturb_word("bun", policy, SeededRng(42))
        second = perturb_word("bun", policy, SeededRng(42))
        assert first == second

    def test_position_selection_uniformity(self):
        # 5-character word; each position should be hit ~0.2 of the time.
        policy = PerturbationPolicy()
        rng = SeededRng(2024)
        counts = np.zeros(5)
        for _ in range(10_000):
            out = perturb_word("abcde", policy, rng)
            diff = [i for i in range(5) if out[i] != "abcde"[i]]
            counts[diff[0]] += 1
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 0.2) <= 0.02), freqs


class TestPerturbSentence:
    @pytest.mark.parametrize("length,expected", [(3, 1), (12, 2), (25, 3)])
    def test_word_counts_perturbed(self, length, expected):
        policy = PerturbationPolicy()
        sentence = [f"word{i}" for i in range(length)]
        out = perturb_sentence(sentence, policy, SeededRng(7))
        changed = sum(1 for a, b in zip(sentence, out) if a != b)
        assert changed == expected
        for a, b in zip(sentence, out):
            assert len(a) == len(b)
            if a != b:
                assert edit_distance_one_char(a, b) == 1


def _docs():
    return [
        Document("bun produs. recomand", [["bun", "produs"], ["recomand"]], 1),
        Document("o boxa ok", [["o", "boxa", "ok"]], 0),
        Document("nu", [["nu"]], 0),
    ]


class TestAugmentDataset:
    def test_empty_input(self):
        assert augment_dataset([], PerturbationPolicy(), 1, 0) == []

    def test_labels_and_structure_preserved(self):
        out = augment_dataset(_docs(), PerturbationPolicy(), 9, 0)
        for original, copy in zip(_docs(), out):
            assert copy.label == original.label
            assert len(copy.sentences) == len(original.sentences)
            for s_orig, s_copy in zip(original.sentences, copy.sentences):
                assert [len(w) for w in s_orig] == [len(w) for w in s_copy]
                changed = sum(1 for a, b in zip(s_orig, s_copy) if a != b)
                expected = min(PerturbationPolicy().replacements_for(len(s_orig)),
                               len(s_orig))
                assert changed == expected

    def test_bitwise_determinism(self):
        a = augment_dataset(_docs(), PerturbationPolicy(), 77, 3)
        b = augment_dataset(_docs(), PerturbationPolicy(), 77, 3)
        assert [(d.raw_text, d.label) for d in a] == [(d.raw_text, d.label) for d in b]

    def test_epochs_differ(self):
        docs = [Document("", [[f"cuvant{i}" for i in range(10)]], 1) for _ in range(20)]
        e0 = augment_dataset(docs, PerturbationPolicy(), 5, 0)
        e1 = augment_dataset(docs, PerturbationPolicy(), 5, 1)
        assert [d.raw_text for d in e0] != [d.raw_text for d in e1]

    @pytest.mark.parametrize("epoch", sorted(AUGMENT_SHA256))
    def test_pinned_bytes(self, tmp_path, epoch):
        docs, _ = generate_synthetic_corpus(200, 60, 17)
        write_dataset(tmp_path / "corpus.jsonl", docs)
        docs = read_dataset(tmp_path / "corpus.jsonl")
        adversarial_copies = augment_dataset(docs, PerturbationPolicy(), 29, epoch)
        write_dataset(tmp_path / "adv.jsonl", adversarial_copies)
        digest = hashlib.sha256((tmp_path / "adv.jsonl").read_bytes()).hexdigest()
        assert digest == AUGMENT_SHA256[epoch]
