#!/usr/bin/env python3
"""Walkthrough: every text-preprocessing stage, one at a time.

normalize -> tokenize -> stopword removal -> lemmatize -> vocabulary ->
fixed-length encoding. All stages are pure functions, so the whole pipeline
is bit-reproducible.
"""

from narrative_seq import (
    build_vocabulary,
    encode_sequence,
    lemmatize,
    normalize_text,
    remove_stopwords,
    tokenize,
)
from narrative_seq.corpus_ingest import DamageLabel
from narrative_seq.text_pipeline import decode_sequence, default_stoplist

narrative = (
    "During the landing roll, the pilot applied BRAKES and the aircraft's "
    "left main gear collapsed; both wings were substantially damaged.\n"
)
print("raw narrative:")
print(" ", narrative.strip())

normalized = normalize_text(narrative)
print("\nnormalized (lowercase, punctuation to spaces, collapsed):")
print(" ", normalized)

tokens = tokenize(normalized)
print(f"\n{len(tokens)} tokens:", tokens)

content = remove_stopwords(tokens, default_stoplist())
print(f"\n{len(content)} tokens after stopword removal:", content)

lemmas = lemmatize(content)
print("\nlemmatized (exception table first, then one suffix rule):")
print(" ", lemmas)

# A vocabulary ranks tokens by corpus frequency; index 0 is padding and
# index 1 catches out-of-vocabulary tokens.
corpus = [lemmas, ["pilot", "report", "gear", "collapse"], ["wing", "strike"]]
vocab = build_vocabulary(corpus, max_size=100)
print(f"\nvocabulary of {vocab.size} entries (2 reserved):")
for token, index in sorted(vocab.index_of.items(), key=lambda kv: kv[1])[:8]:
    print(f"  {index:>3}  {token}  (freq {vocab.frequencies[token]})")

ids = encode_sequence(lemmas, vocab, length=16)
print("\nencoded to a fixed 16-long id vector (trailing zeros are padding):")
print(" ", ids)
print("decodes back to:", decode_sequence(ids, vocab))

unknown = encode_sequence(["pilot", "hydraulics"], vocab, length=6)
print("\nunknown tokens map to the OOV index 1:", unknown)

print("\nlabels are integer class codes, the byte stored per record in .nseq:")
for label in DamageLabel:
    print(f"  {label.display_name:<12} {int(label)}")
