"""Character-level adversarial copies of training documents.

The rule is fixed: each augmented sentence gets a number of words perturbed
driven by its word count (1 below five words, 2 for five through twenty, 3
above twenty), and every chosen word receives exactly one random character
substitution drawn from the 31-letter Romanian lowercase alphabet. Word
lengths, sentence boundaries, and labels are never altered.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .text import Document, render_document

# 26 ASCII letters plus the five Romanian diacritic letters.
ROMANIAN_ALPHABET: Tuple[str, ...] = tuple("abcdefghijklmnopqrstuvwxyz") + (
    "ă",  # ă
    "â",  # â
    "î",  # î
    "ș",  # ș
    "ț",  # ț
)

_SEED_MASK = (1 << 64) - 1


class SeededRng:
    """Deterministic random source: numpy PCG64 seeded explicitly.

    Identical seeds produce identical draw sequences across runs and
    platforms (PCG64's stream is part of numpy's stability guarantee).
    """

    def __init__(self, seed: int) -> None:
        self.generator = np.random.Generator(np.random.PCG64(seed & _SEED_MASK))

    @classmethod
    def from_mix(cls, *components: int) -> "SeededRng":
        """Derive an rng from several integers via numpy's SeedSequence."""
        rng = cls.__new__(cls)
        rng.generator = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([c & _SEED_MASK for c in components])))
        return rng

    def below(self, n: int) -> int:
        return int(self.generator.integers(n))

    def sample_positions(self, n: int, k: int) -> List[int]:
        return sorted(int(i) for i in self.generator.choice(n, size=k, replace=False))


class PerturbationPolicy:
    """The paper's fixed rule, stated in the module docstring.

    Every character has at least 30 substitutes in the alphabet, and the
    rule never asks for more words than a sentence has.
    """

    alphabet = ROMANIAN_ALPHABET

    def replacements_for(self, word_count: int) -> int:
        """Words to perturb in a sentence of ``word_count`` (>= 1) words."""
        return 1 if word_count < 5 else 2 if word_count <= 20 else 3


def perturb_word(word: str, policy: PerturbationPolicy, rng: SeededRng) -> str:
    """Replace one uniformly chosen character by a different alphabet character."""
    if not word:
        raise ValueError("cannot perturb an empty word")
    position = rng.below(len(word))
    original = word[position]
    candidates = [c for c in policy.alphabet if c != original]
    replacement = candidates[rng.below(len(candidates))]
    return word[:position] + replacement + word[position + 1:]


def perturb_sentence(
    sentence: Sequence[str], policy: PerturbationPolicy, rng: SeededRng
) -> List[str]:
    """Perturb k distinct words, k given by the sentence-length rule."""
    if not sentence:
        raise ValueError("cannot perturb an empty sentence")
    chosen = rng.sample_positions(len(sentence), policy.replacements_for(len(sentence)))
    out = list(sentence)
    for position in chosen:
        out[position] = perturb_word(out[position], policy, rng)
    return out


def augment_dataset(
    docs: Sequence[Document],
    policy: PerturbationPolicy,
    base_seed: int,
    epoch: int,
) -> List[Document]:
    """One adversarial copy per document, reproducible per (seed, epoch).

    Document i draws from an rng seeded by SeedSequence([base_seed, epoch, i]),
    so augmentation is deterministic for a fixed epoch yet varies across
    epochs.
    """
    out: List[Document] = []
    for index, doc in enumerate(docs):
        rng = SeededRng.from_mix(base_seed, epoch, index)
        sentences = [perturb_sentence(s, policy, rng) for s in doc.sentences if s]
        out.append(Document(raw_text=render_document(sentences),
                            sentences=sentences, label=doc.label))
    return out
