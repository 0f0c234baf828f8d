import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrative_seq.text_pipeline import (
    OOV_INDEX,
    PAD_INDEX,
    Vocabulary,
    build_vocabulary,
    decode_sequence,
    default_lemma_exceptions,
    default_stoplist,
    encode_sequence,
    lemmatize,
    load_stoplist,
    normalize_text,
    remove_stopwords,
    tokenize,
)


class TestNormalize:
    def test_empty(self):
        assert normalize_text("") == ""

    def test_punctuation_stripped(self):
        assert normalize_text("Engine FAILED!!") == "engine failed"

    def test_mixed_case_punctuation_newline(self):
        # Derived by hand from the stated rules: lowercase, non-alnum to
        # space, collapse runs, trim.
        assert normalize_text("N123AB's left-wing struck.\n") == "n123ab s left wing struck"

    def test_whitespace_collapse(self):
        assert normalize_text("a \t b\n\nc") == "a b c"

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_output_alphabet(self, text):
        out = normalize_text(text)
        assert set(out) <= set("abcdefghijklmnopqrstuvwxyz0123456789 ")
        assert "  " not in out and out == out.strip()


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_forced_split(self):
        assert tokenize("engine failed") == ["engine", "failed"]

    def test_duplicates_preserved(self):
        assert tokenize("a a a") == ["a", "a", "a"]

    def test_normalizes_raw_input(self):
        assert tokenize("Engine, FAILED!") == ["engine", "failed"]


class TestStopwords:
    def test_defined_filter(self):
        assert remove_stopwords(["the", "pilot"], {"the"}) == ["pilot"]

    def test_empty_stoplist_identity(self):
        tokens = ["any", "tokens", "at", "all"]
        assert remove_stopwords(tokens, frozenset()) == tokens

    def test_all_occurrences_removed(self):
        assert remove_stopwords(["a", "pilot", "a"], {"a"}) == ["pilot"]

    def test_default_stoplist_has_function_words(self):
        stop = default_stoplist()
        assert {"the", "a", "of"} <= stop

    def test_load_stoplist_comments_and_blanks(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nthe\n\npilot # trailing\n", encoding="utf-8")
        assert load_stoplist(path) == frozenset({"the", "pilot"})


class TestLemmatize:
    def test_no_rule_applies(self):
        assert lemmatize(["engine"]) == ["engine"]

    def test_published_rule_order(self):
        # "landings": the s-rule fires first and the process stops, leaving
        # "landing"; "reported" takes the ed-rule because the stem keeps a
        # vowel.
        assert lemmatize(["landings", "reported"]) == ["landing", "report"]

    def test_exception_table_lookup(self):
        assert lemmatize(["was"], exceptions={"was": "be"}) == ["be"]

    def test_bundled_exception_table(self):
        table = default_lemma_exceptions()
        assert table["was"] == "be"
        assert lemmatize(["struck"]) == ["strike"]

    def test_ies_rule(self):
        assert lemmatize(["bodies"]) == ["body"]

    def test_sses_rule(self):
        assert lemmatize(["crosses"]) == ["cross"]

    def test_short_s_word_kept(self):
        assert lemmatize(["gas"]) == ["gas"]

    def test_ing_needs_vowel_in_stem(self):
        assert lemmatize(["wing", "landing"]) == ["wing", "land"]

    def test_ed_needs_vowel_in_stem(self):
        assert lemmatize(["red", "departed"]) == ["red", "depart"]

    @given(st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_outputs_nonempty(self, tokens):
        assert all(out for out in lemmatize(tokens))


class TestVocabulary:
    def test_empty_corpus_reserved_only(self):
        vocab = build_vocabulary([])
        assert vocab.size == 2
        assert vocab.index("anything") == OOV_INDEX

    def test_hand_ranked_example(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c"]])
        # b has frequency 2; a and c tie at 1 and break lexicographically.
        assert vocab.index("b") == 2
        assert vocab.index("a") == 3
        assert vocab.index("c") == 4
        assert vocab.size == 5

    def test_cap_applies(self):
        corpus = [[f"tok{i:06d}"] for i in range(120)]
        vocab = build_vocabulary(corpus, max_size=100)
        assert vocab.size == 100

    def test_default_cap_at_one_hundred_thousand(self):
        # 100,005 distinct tokens collapse to a vocabulary of exactly
        # 100,000 entries, reserved indices included.
        corpus = [[f"t{i:06d}" for i in range(100_005)]]
        vocab = build_vocabulary(corpus)
        assert vocab.size == 100_000

    def test_reserved_indices_never_assigned(self):
        vocab = build_vocabulary([["x", "y", "z"]])
        assert PAD_INDEX not in vocab.index_of.values()
        assert OOV_INDEX not in vocab.index_of.values()
        assert sorted(vocab.index_of.values()) == [2, 3, 4]

    def test_max_size_lower_bound(self):
        with pytest.raises(ValueError):
            build_vocabulary([], max_size=1)

    def test_indices_contiguous(self):
        vocab = build_vocabulary([["q", "w", "e", "r", "t", "y"]])
        assert sorted(vocab.index_of.values()) == list(range(2, vocab.size))

    def test_token_of_inverse(self):
        vocab = build_vocabulary([["alpha", "beta"]])
        for token, idx in vocab.index_of.items():
            assert vocab.token_of(idx) == token
        with pytest.raises(IndexError):
            vocab.token_of(0)


class TestEncodeSequence:
    @pytest.fixture()
    def vocab(self):
        return build_vocabulary([["a", "b"], ["b", "c"]])

    def test_empty_all_padding(self, vocab):
        npt.assert_array_equal(encode_sequence([], vocab, length=6), np.zeros(6))

    def test_lookup_then_pad(self, vocab):
        npt.assert_array_equal(
            encode_sequence(["b", "zzz"], vocab, length=5), [2, 1, 0, 0, 0]
        )

    def test_truncation_keeps_front(self, vocab):
        tokens = ["a", "b", "c", "a", "b"]
        out = encode_sequence(tokens, vocab, length=3)
        npt.assert_array_equal(out, [vocab.index(t) for t in tokens[:3]])

    def test_pre_padding_mode(self, vocab):
        npt.assert_array_equal(
            encode_sequence(["b"], vocab, length=4, pad="pre"), [0, 0, 0, 2]
        )

    def test_length_validation(self, vocab):
        with pytest.raises(ValueError):
            encode_sequence([], vocab, length=0)
        with pytest.raises(ValueError):
            encode_sequence([], vocab, pad="sideways")

    @given(
        st.lists(st.sampled_from(["a", "b", "c", "zzz"]), max_size=50),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_length_always_exact_and_in_bounds(self, tokens, length):
        vocab = build_vocabulary([["a", "b"], ["b", "c"]])
        out = encode_sequence(tokens, vocab, length=length)
        assert out.shape == (length,)
        assert np.all(out < vocab.size)

    def test_round_trip_in_vocab(self, vocab):
        tokens = ["a", "c", "b", "b"]
        ids = encode_sequence(tokens, vocab, length=10)
        assert decode_sequence(ids, vocab) == tokens


def test_pipeline_determinism():
    from narrative_seq.text_pipeline import process_narrative

    text = "The pilot REPORTED engine failures during landings!\n"
    first = process_narrative(text)
    second = process_narrative(text)
    assert first == second
    assert "the" not in first
    vocab = build_vocabulary([first])
    npt.assert_array_equal(
        encode_sequence(first, vocab, length=8),
        encode_sequence(second, vocab, length=8),
    )
