"""Character-level adversarial copies of training documents.

The rule is fixed: each augmented sentence gets a number of words perturbed
driven by its word count (1 below five words, 2 for five through twenty, 3
above twenty), and every chosen word receives exactly one random character
substitution drawn from the 31-letter Romanian lowercase alphabet. Word
lengths, sentence boundaries, and labels are never altered.

Draw rule. Document i draws from PCG64 seeded by ``SeedSequence([seed,
epoch, i])``. Its raw 64-bit outputs are read in bulk and split into 32-bit
halves, low half first. A draw below ``n`` takes the next half ``u`` and
forms ``m = u * n``; while ``m mod 2**32 < (2**32 - n) mod n`` it takes
another half, and it returns ``m >> 32`` (Lemire 2019, arXiv:1805.10941).
``n == 1`` takes nothing. Per sentence, the words are picked by Floyd's
sample: for ``j`` in ``n - k .. n - 1`` draw ``v`` below ``j + 1`` and pick
``j`` if ``v`` is already picked, else ``v``; then ``k - 1`` draws with
bounds ``k .. 2`` follow. Per picked word, in position order, one draw
picks the character and one picks its substitute. This is the sequence
numpy's ``Generator.choice(n, k, replace=False)`` and
``Generator.integers(n)`` make on the same seed, so the copies match theirs
byte for byte.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

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
_LOW32 = (1 << 32) - 1
_RAW, _HALF = np.dtype("<u8"), np.dtype("<u4")  # little-endian: low half first

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_MASK = (1 << 128) - 1


def seed_sequence(*components: int) -> np.random.SeedSequence:
    """numpy's SeedSequence over the components, each reduced modulo 2**64.
    For one component s it seeds PCG64 as PCG64(s mod 2**64) does."""
    return np.random.SeedSequence([c & _SEED_MASK for c in components])


def _words(n: int) -> List[int]:
    """The uint32 entropy words SeedSequence makes of ``n`` >= 0, low first."""
    words = [n & _LOW32]
    while n >> 32:
        n >>= 32
        words.append(n & _LOW32)
    return words


def pcg64_states(base_seed: int, epoch: int, indices: np.ndarray) -> List[Tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(seed_sequence(base_seed, epoch, i))`` for
    every ``i`` of the uint64 array ``indices``, without building either.

    SeedSequence's hash is replayed over all indices at once in uint32
    arithmetic. Only the words of ``i`` differ between entries: one word,
    or two from ``2**32`` on. The high word comes last and is 0 where it is
    absent. In the pool of four, that hashes as SeedSequence's empty slot;
    past the pool, an entry without it skips its mixing round. So one code
    path serves every seed, epoch and index. PCG64 then seeds from the
    first two 64-bit output words (initstate) and the last two (initseq).
    """
    indices = np.asarray(indices, dtype=np.uint64)
    low = (indices & np.uint64(_LOW32)).astype(np.uint32)
    high = (indices >> np.uint64(32)).astype(np.uint32)
    entropy = [np.full(indices.shape, w, np.uint32)
               for w in _words(base_seed & _SEED_MASK) + _words(epoch & _SEED_MASK)]
    entropy += [low, high]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _LOW32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[i]) for i in range(_POOL)]  # there are at least 4 words
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(entropy)):
        present = src < len(entropy) - 1 or high != 0
        for dst in range(_POOL):
            pool[dst] = np.where(present, mix(pool[dst], hashmix(entropy[src])), pool[dst])
    const = _INIT_B
    words = []
    for i in range(2 * _POOL):  # generate_state(4, np.uint64)
        value = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _LOW32
        value = value * np.uint32(const)
        words.append(value ^ (value >> np.uint32(16)))
    seeds = np.stack(words, axis=-1).astype(_HALF).view(_RAW).tolist()
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in seeds:
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _STATE_MASK
        states.append((((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _STATE_MASK,
                       inc))
    return states


class SeededRng(np.random.Generator):
    """Deterministic random source: a numpy ``Generator`` over PCG64 seeded
    by ``seed_sequence(*components)``, the one seeding rule of every stream.

    numpy keeps the output streams of ``SeedSequence`` and of PCG64's raw
    bits stable across versions and platforms. It makes no such promise for
    the streams of ``Generator`` methods (``integers``, ``normal``,
    ``permutation``, ...), which a numpy release may change. Everything drawn
    through those methods reproduces for one numpy version; the adversarial
    copies read only the raw stream (:class:`BoundedDraws`).
    """

    def __init__(self, *components: int) -> None:
        super().__init__(np.random.PCG64(seed_sequence(*components)))


def _halves(bits: np.random.PCG64, count: int) -> Iterator[int]:
    """32-bit halves of ``bits``' raw outputs, low half first: the first
    ``count`` at once, then one output at a time."""
    while True:
        raw = bits.random_raw((count + 1) // 2)
        yield from raw.astype(_RAW, copy=False).view(_HALF).tolist()
        count = 2


class BoundedDraws:
    """Bounded integer draws on PCG64's raw stream, by the module's draw rule.

    ``bulk`` is how many 32-bit halves to read at the first draw; a draw past
    them reads more, so it only sets how often the bit generator is called.
    """

    __slots__ = ("_next",)

    def __init__(self, bits: np.random.PCG64, bulk: int = 2) -> None:
        self._next = _halves(bits, bulk).__next__

    def below(self, n: int) -> int:
        """Uniform in ``[0, n)`` for ``1 <= n <= 2**32``: ``Generator.integers(n)``."""
        if n == 1:
            return 0
        m = self._next() * n
        if (m & _LOW32) < n:
            threshold = ((1 << 32) - n) % n
            while (m & _LOW32) < threshold:
                m = self._next() * n
        return m >> 32

    def sample_positions(self, n: int, k: int) -> List[int]:
        """``k`` distinct positions of ``n``, sorted: ``Generator.choice(n, k,
        replace=False)`` for ``k <= 3``, including the draws of its shuffle."""
        picked: List[int] = []
        for j in range(n - k, n):
            v = self.below(j + 1)
            picked.append(j if v in picked else v)
        for bound in range(k, 1, -1):
            self.below(bound)
        picked.sort()
        return picked


# Each letter's substitutes: the alphabet without it. Any other character
# may become any letter.
_SUBSTITUTES: Dict[str, Tuple[str, ...]] = {
    letter: tuple(c for c in ROMANIAN_ALPHABET if c != letter) for letter in ROMANIAN_ALPHABET}


class PerturbationPolicy:
    """The paper's fixed rule, stated in the module docstring.

    Every character has at least 30 substitutes in the alphabet, and the
    rule never asks for more words than a sentence has.
    """

    alphabet = ROMANIAN_ALPHABET

    def replacements_for(self, word_count: int) -> int:
        """Words to perturb in a sentence of ``word_count`` (>= 1) words."""
        return 1 if word_count < 5 else 2 if word_count <= 20 else 3

    def substitutes(self, character: str) -> Tuple[str, ...]:
        """Alphabet letters that may replace ``character``."""
        return _SUBSTITUTES.get(character, self.alphabet)


def perturb_word(word: str, policy: PerturbationPolicy, draws: BoundedDraws) -> str:
    """Replace one uniformly chosen character by a different alphabet character."""
    if not word:
        raise ValueError("cannot perturb an empty word")
    position = draws.below(len(word))
    candidates = policy.substitutes(word[position])
    return word[:position] + candidates[draws.below(len(candidates))] + word[position + 1:]


def perturb_sentence(
    sentence: Sequence[str], policy: PerturbationPolicy, draws: BoundedDraws
) -> List[str]:
    """Perturb k distinct words, k given by the sentence-length rule."""
    if not sentence:
        raise ValueError("cannot perturb an empty sentence")
    chosen = draws.sample_positions(len(sentence), policy.replacements_for(len(sentence)))
    out = list(sentence)
    for position in chosen:
        out[position] = perturb_word(out[position], policy, draws)
    return out


def augment_dataset(
    docs: Sequence[Document],
    policy: PerturbationPolicy,
    base_seed: int,
    epoch: int,
) -> List[Document]:
    """One adversarial copy per document, reproducible per (seed, epoch).

    Document i draws from PCG64 seeded by ``seed_sequence(base_seed, epoch, i)``,
    so augmentation is deterministic for a fixed epoch yet varies across
    epochs. No generator is built per document: :func:`pcg64_states` replays
    the seeding for every index at once, and each document sets its state on
    one reused PCG64. Each document reads, in one call, the 32-bit halves its
    sentences take when no draw is rejected: at most ``4 k - 1`` for a
    sentence with ``k`` perturbed words.
    """
    bits = np.random.PCG64()
    out: List[Document] = []
    states = pcg64_states(base_seed, epoch, np.arange(len(docs), dtype=np.uint64))
    for doc, (state, inc) in zip(docs, states):
        sentences = [s for s in doc.sentences if s]
        bulk = sum(4 * policy.replacements_for(len(s)) - 1 for s in sentences)
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        draws = BoundedDraws(bits, bulk)
        sentences = [perturb_sentence(s, policy, draws) for s in sentences]
        out.append(Document(raw_text=render_document(sentences),
                            sentences=sentences, label=doc.label))
    return out
