"""Deterministic text preprocessing: narrative text in, fixed-length
integer sequences and integer class-code labels (``DamageLabel`` values
0-3) out.

The stage order is fixed: normalize -> tokenize -> stopword removal ->
lemmatize -> encode. Encoding keeps a sequence's first ``seq_len`` ids and
pads a shorter one at the end; padding is never placed in front. Every stage
is a pure function, so identical inputs produce bit-identical encodings on
every run and platform.

The lemmatizer is a rule-plus-exception stemmer rather than a wrapper around
an external linguistic model: an exception table handles irregular forms,
then the first matching suffix rule fires ("ies"->"y", "sses"->"ss",
trailing "s" dropped for tokens longer than three characters, and
"ing"/"ed" dropped when a vowel remains in the stem).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus_ingest import OccurrenceRecord
from .errors import DataError

PAD_INDEX = 0
OOV_INDEX = 1

DEFAULT_VOCAB_SIZE = 100_000
DEFAULT_SEQUENCE_LENGTH = 2000

_NON_ALNUM = re.compile(r"[^a-z0-9 ]")
_VOWELS = frozenset("aeiouy")


def normalize_text(text: str) -> str:
    """Lowercase, strip punctuation/special characters, collapse whitespace.

    Every character outside [a-z, 0-9, space] becomes a single space; runs of
    whitespace collapse to one space; the result carries no surrounding
    whitespace. Idempotent.
    """
    cleaned = _NON_ALNUM.sub(" ", text.lower())
    return " ".join(cleaned.split())


def tokenize(text: str) -> list[str]:
    """Split normalized text into tokens; normalizes first, so it is safe on
    raw input and idempotent on normalized input. Never yields empty tokens."""
    return normalize_text(text).split()


def remove_stopwords(tokens: Sequence[str], stoplist: frozenset[str] | set[str]) -> list[str]:
    """Drop every occurrence of a stoplist token, preserving relative order."""
    return [t for t in tokens if t not in stoplist]


@lru_cache(maxsize=1)
def default_stoplist() -> frozenset[str]:
    """Bundled English function-word stoplist."""
    return load_stoplist(resources.files("narrative_seq.data") / "stopwords.txt")


def load_stoplist(path) -> frozenset[str]:
    """Read a stoplist file: one token per line, ``#`` starts a comment."""
    tokens: set[str] = set()
    try:
        text = (Path(path) if isinstance(path, str) else path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
        raise DataError(f"cannot read stoplist {str(path)!r}: {exc}") from exc
    for line in text.splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            tokens.add(entry)
    return frozenset(tokens)


@lru_cache(maxsize=1)
def default_lemma_exceptions() -> Mapping[str, str]:
    """Bundled irregular-form table (``was -> be`` and friends)."""
    table: dict[str, str] = {}
    text = (resources.files("narrative_seq.data") / "lemma_exceptions.txt").read_text(
        encoding="utf-8"
    )
    for line in text.splitlines():
        entry = line.split("#", 1)[0].strip()
        if not entry:
            continue
        form, lemma = entry.split()
        table[form] = lemma
    return table


def _lemmatize_token(token: str, exceptions: Mapping[str, str]) -> str:
    if token in exceptions:
        return exceptions[token]
    # First matching suffix rule wins; later rules never reapply.
    if token.endswith("ies"):
        return token[:-3] + "y"
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("s") and len(token) > 3:
        return token[:-1]
    if token.endswith("ing") and any(c in _VOWELS for c in token[:-3]):
        return token[:-3]
    if token.endswith("ed") and any(c in _VOWELS for c in token[:-2]):
        return token[:-2]
    return token


def lemmatize(tokens: Sequence[str], exceptions: Mapping[str, str] | None = None) -> list[str]:
    """Map each token through the exception table, then the suffix rules.

    Output tokens are always nonempty: a rule only fires when it leaves a
    nonempty stem.
    """
    table = default_lemma_exceptions() if exceptions is None else exceptions
    return [_lemmatize_token(t, table) for t in tokens]


def process_narrative(text: str, stoplist: frozenset[str] | set[str] | None = None,
                      lemmas: dict[str, str] | None = None) -> list[str]:
    """Full token pipeline for one narrative in the fixed stage order.

    ``lemmas`` memoizes the lemma of each token across calls:
    ``preprocess_corpus`` shares one dict over a corpus, so each distinct
    token is lemmatized once.
    """
    stop = default_stoplist() if stoplist is None else stoplist
    tokens = remove_stopwords(tokenize(text), stop)
    lemmas = {} if lemmas is None else lemmas
    table = default_lemma_exceptions()
    for token in tokens:
        if token not in lemmas:
            lemmas[token] = _lemmatize_token(token, table)
    return [lemmas[token] for token in tokens]


@dataclass(frozen=True)
class Vocabulary:
    """Frequency-ranked token-to-index map with reserved indices.

    Index 0 is padding and index 1 is out-of-vocabulary; corpus tokens get
    contiguous indices from 2 upward, ordered by descending corpus frequency
    with ties broken by ascending lexicographic order.
    """

    tokens: tuple[str, ...]           # token at position i has index i + 2
    frequencies: Mapping[str, int]
    max_size: int

    def __post_init__(self):
        object.__setattr__(
            self, "_index_of", {t: i + 2 for i, t in enumerate(self.tokens)}
        )

    @property
    def size(self) -> int:
        """Total size including the two reserved indices."""
        return len(self.tokens) + 2

    @property
    def index_of(self) -> Mapping[str, int]:
        return self._index_of

    def index(self, token: str) -> int:
        """Index for ``token``; unknown tokens map to the OOV index."""
        return self._index_of.get(token, OOV_INDEX)

    def token_of(self, index: int) -> str:
        """Inverse lookup; ``IndexError`` for the reserved indices 0 and 1
        and for an index past the vocabulary."""
        if index < 2 or index >= self.size:
            raise IndexError(f"index {index} outside vocabulary of size {self.size}")
        return self.tokens[index - 2]


def build_vocabulary(
    corpus: Iterable[Sequence[str]], max_size: int = DEFAULT_VOCAB_SIZE
) -> Vocabulary:
    """Rank corpus tokens by frequency and assign indices from 2 upward.

    At most ``max_size`` entries total, the two reserved indices included.
    """
    if max_size < 2:
        raise ValueError(f"max_size must be at least 2, got {max_size}")
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = ranked[: max_size - 2]
    return Vocabulary(
        tokens=tuple(t for t, _ in kept),
        frequencies={t: c for t, c in kept},
        max_size=max_size,
    )


def encode_sequence(
    tokens: Sequence[str],
    vocab: Vocabulary,
    length: int = DEFAULT_SEQUENCE_LENGTH,
) -> np.ndarray:
    """Fixed-length integer encoding of a token list.

    Unknown tokens map to the OOV index. Sequences longer than ``length``
    keep their first ``length`` tokens; shorter ones are padded at the end
    with the padding index (the one padding mode).
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    lookup = vocab.index_of
    ids = [lookup.get(t, OOV_INDEX) for t in tokens[:length]]
    out = np.zeros(length, dtype=np.uint32)
    out[:len(ids)] = ids
    return out


def decode_sequence(ids: Sequence[int], vocab: Vocabulary) -> list[str]:
    """Tokens for the non-padding prefix of an encoded sequence.

    Stops at the first padding index; OOV positions decode to ``None``-free
    placeholder ``"<oov>"`` so callers can spot lossy positions.
    """
    tokens: list[str] = []
    for i in ids:
        if i == PAD_INDEX:
            break
        tokens.append("<oov>" if i == OOV_INDEX else vocab.token_of(int(i)))
    return tokens


def preprocess_corpus(
    records: Sequence[OccurrenceRecord],
    vocab_size: int = DEFAULT_VOCAB_SIZE,
    seq_len: int = DEFAULT_SEQUENCE_LENGTH,
    stoplist: frozenset[str] | set[str] | None = None,
) -> tuple[np.ndarray, np.ndarray, Vocabulary]:
    """Encode a whole corpus: (sequences [n, seq_len], labels [n], vocabulary).

    The vocabulary is built on the processed tokens of exactly these records,
    so encoding is self-consistent with the returned vocabulary. Each
    sequence is cut or post-padded to ``seq_len`` (``encode_sequence``);
    ``stoplist=None`` selects the bundled stoplist.
    """
    lemmas: dict[str, str] = {}
    token_lists = [process_narrative(r.narrative, stoplist, lemmas) for r in records]
    vocab = build_vocabulary(token_lists, max_size=vocab_size)
    sequences = np.stack(
        [encode_sequence(tokens, vocab, length=seq_len) for tokens in token_lists]
    ) if token_lists else np.zeros((0, seq_len), dtype=np.uint32)
    labels = np.array([int(r.damage_level) for r in records], dtype=np.uint8)
    return sequences, labels, vocab
