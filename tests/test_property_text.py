"""Property-based tests for the text pipeline."""

import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import STOP_WORDS, PorterStemmer, TfIdfVectorizer, clean_html, preprocess_document, tokenize

words = st.text(alphabet="abcdefghij", min_size=1, max_size=8)
texts = st.text(
    alphabet=string.ascii_letters + string.digits + " .,!<>&;/\"'=", max_size=300
)


class TestCleanHtmlProperties:
    @given(texts)
    @settings(max_examples=100, deadline=None)
    def test_output_has_no_markup(self, text):
        cleaned = clean_html(text)
        assert "<" not in cleaned
        # '&' survives only when it never started an entity that got eaten;
        # our cleaner always eats from '&', so none remain.
        assert "&" not in cleaned

    @given(st.lists(words, min_size=0, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_plain_words_survive(self, tokens):
        text = " ".join(tokens)
        assert clean_html(text).split() == [t for t in text.split()]

    @given(st.lists(words, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_tag_wrapped_words_recovered(self, tokens):
        html = "".join(f"<b>{t}</b> " for t in tokens)
        assert clean_html(html).split() == tokens


class TestTokenizeProperties:
    @given(texts)
    @settings(max_examples=100, deadline=None)
    def test_tokens_are_lowercase_alpha(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()
            assert tok.isalpha()

    @given(texts)
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        again = tokenize(" ".join(once))
        assert once == again


class TestStemmerProperties:
    @given(words)
    @settings(max_examples=200, deadline=None)
    def test_deterministic(self, word):
        s = PorterStemmer()
        assert s.stem(word) == s.stem(word)

    @given(words)
    @settings(max_examples=200, deadline=None)
    def test_output_stays_alpha_lowercase(self, word):
        out = PorterStemmer().stem(word)
        assert out.isalpha() or out == word
        assert out == out.lower()

    def test_inflection_families_collapse(self):
        """Different inflections of a word map to one stem (the property the
        tf-idf pipeline depends on)."""
        s = PorterStemmer()
        families = [
            ["connect", "connected", "connecting", "connection", "connections"],
            ["cluster", "clusters", "clustering", "clustered"],
        ]
        for family in families:
            stems = {s.stem(w) for w in family}
            assert len(stems) == 1, family


class TestPipelineProperties:
    @given(st.lists(words, min_size=1, max_size=30))
    @example(["a", "aed"])  # 'aed' stems onto the stop word 'a'
    @settings(max_examples=50, deadline=None)
    def test_no_stop_words_survive(self, tokens):
        text = " ".join(tokens) + " the and of is"
        out = preprocess_document(text)
        assert not (set(out) & STOP_WORDS)

    @given(st.integers(1, 6), st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_tfidf_matrix_dimensions_and_range(self, n_features, seed):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(10)]
        docs = [
            [vocab[j] for j in rng.integers(0, 10, size=rng.integers(2, 15))]
            for _ in range(8)
        ]
        X = TfIdfVectorizer(n_features=n_features, min_df=1).fit_transform(docs)
        assert X.shape[0] == 8
        assert X.shape[1] <= n_features
        assert X.min() >= 0.0 and X.max() <= 1.0 + 1e-12
