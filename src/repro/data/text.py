"""The paper's text pipeline (Section 5.2), from scratch.

The Wikipedia documents were processed by: (i) stripping HTML tags, (ii)
lower-casing, (iii) removing punctuation, (iv) removing stop words, (v)
Porter-stemming all terms; followed by tf-idf ranking and top-F term
selection. This module implements every step: a regex-free HTML stripper,
a tokenizer, a stop-word list concatenated from common lists, the full
Porter (1980) stemming algorithm, and a tf-idf vectorizer with top-F
feature selection.
"""

from __future__ import annotations

import string
from collections import Counter

import numpy as np

__all__ = [
    "STOP_WORDS",
    "clean_html",
    "tokenize",
    "PorterStemmer",
    "preprocess_document",
    "TfIdfVectorizer",
]

#: Stop words: "concatenated from several lists to capture the majority of
#: the stop words" (Section 5.2). This is the classic SMART-ish core.
STOP_WORDS = frozenset(
    """a about above after again against all am an and any are as at be because
    been before being below between both but by can could did do does doing down
    during each few for from further had has have having he her here hers herself
    him himself his how i if in into is it its itself just me more most my myself
    no nor not now of off on once only or other our ours ourselves out over own
    same she should so some such than that the their theirs them themselves then
    there these they this those through to too under until up very was we were
    what when where which while who whom why will with you your yours yourself
    yourselves shall may might must would also however thus hence upon via per
    among amongst onto toward towards within without across behind beyond
    ever never always often sometimes rather quite much many one two three first
    second new old et al etc ie eg""".split()
)

_VOWELS = frozenset("aeiou")


def clean_html(html: str) -> str:
    """Strip HTML tags, keeping only text content (steps (i) of the pipeline).

    A small state machine (no regex backtracking): characters between ``<``
    and ``>`` are dropped; entities ``&...;`` are replaced by a space.
    """
    out: list[str] = []
    in_tag = False
    in_entity = False
    for ch in html:
        if in_tag:
            if ch == ">":
                in_tag = False
                out.append(" ")
            continue
        if in_entity:
            if ch == ";" or ch.isspace():
                in_entity = False
                out.append(" ")
            continue
        if ch == "<":
            in_tag = True
        elif ch == "&":
            in_entity = True
        else:
            out.append(ch)
    return "".join(out)


def tokenize(text: str) -> list[str]:
    """Lower-case, strip punctuation/digits, split on whitespace (steps ii-iii)."""
    table = str.maketrans(
        string.ascii_uppercase, string.ascii_lowercase, string.punctuation + string.digits
    )
    return [tok for tok in text.translate(table).split() if tok]


class PorterStemmer:
    """The Porter (1980) suffix-stripping algorithm, steps 1a through 5b.

    Follows the original paper's rules, including the m() measure over the
    [C](VC)^m[V] form, the *v*, *d, and *o conditions, and the standard
    special cases. Words of length <= 2 are returned unchanged.
    """

    # -- character classes ---------------------------------------------------

    @staticmethod
    def _is_consonant(word: str, i: int) -> bool:
        ch = word[i]
        if ch in _VOWELS:
            return False
        if ch == "y":
            return i == 0 or not PorterStemmer._is_consonant(word, i - 1)
        return True

    @classmethod
    def _measure(cls, stem: str) -> int:
        """m(): the number of VC sequences in [C](VC)^m[V]."""
        forms = []
        for i in range(len(stem)):
            forms.append("c" if cls._is_consonant(stem, i) else "v")
        collapsed = "".join(forms)
        # Collapse runs, then count "vc" transitions.
        runs = []
        for ch in collapsed:
            if not runs or runs[-1] != ch:
                runs.append(ch)
        return "".join(runs).count("vc")

    @classmethod
    def _contains_vowel(cls, stem: str) -> bool:
        return any(not cls._is_consonant(stem, i) for i in range(len(stem)))

    @classmethod
    def _double_consonant(cls, stem: str) -> bool:
        return (
            len(stem) >= 2
            and stem[-1] == stem[-2]
            and cls._is_consonant(stem, len(stem) - 1)
        )

    @classmethod
    def _cvc(cls, stem: str) -> bool:
        """*o: ends consonant-vowel-consonant, final consonant not w/x/y."""
        if len(stem) < 3:
            return False
        return (
            cls._is_consonant(stem, len(stem) - 3)
            and not cls._is_consonant(stem, len(stem) - 2)
            and cls._is_consonant(stem, len(stem) - 1)
            and stem[-1] not in "wxy"
        )

    # -- rule application ------------------------------------------------------

    def _replace(self, word: str, suffix: str, replacement: str, min_measure: int) -> str | None:
        """Apply ``suffix -> replacement`` if m(stem) > min_measure; else None."""
        if not word.endswith(suffix):
            return None
        stem = word[: len(word) - len(suffix)]
        if self._measure(stem) > min_measure:
            return stem + replacement
        return word  # suffix matched but condition failed: rule consumed, no change

    def stem(self, word: str) -> str:
        """Stem one lower-case word."""
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    def __call__(self, word: str) -> str:
        return self.stem(word)

    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem = word[:-3]
            return stem + "ee" if self._measure(stem) > 0 else word
        flag = False
        if word.endswith("ed") and self._contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and self._contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if self._double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if self._measure(word) == 1 and self._cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_RULES = [
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ]

    def _step2(self, word: str) -> str:
        for suffix, repl in self._STEP2_RULES:
            result = self._replace(word, suffix, repl, 0)
            if result is not None:
                return result
        return word

    _STEP3_RULES = [
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ]

    def _step3(self, word: str) -> str:
        for suffix, repl in self._STEP3_RULES:
            result = self._replace(word, suffix, repl, 0)
            if result is not None:
                return result
        return word

    _STEP4_SUFFIXES = [
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ]

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if self._measure(stem) > 1:
                    return stem
                return word
        if word.endswith("ion"):
            stem = word[:-3]
            if stem and stem[-1] in "st" and self._measure(stem) > 1:
                return stem
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = self._measure(stem)
            if m > 1 or (m == 1 and not self._cvc(stem)):
                return stem
        return word

    def _step5b(self, word: str) -> str:
        if self._measure(word) > 1 and self._double_consonant(word) and word.endswith("l"):
            return word[:-1]
        return word


_DEFAULT_STEMMER = PorterStemmer()


def preprocess_document(raw: str, *, is_html: bool = False, stemmer: PorterStemmer | None = None) -> list[str]:
    """The full Section-5.2 pipeline: (html ->) tokens -> stop-word filter -> stems.

    A stem that is itself a stop word (``'aed'`` stems to ``'a'``) is dropped
    too, so no stop word survives the pipeline.
    """
    stemmer = stemmer or _DEFAULT_STEMMER
    text = clean_html(raw) if is_html else raw
    stems = (stemmer.stem(tok) for tok in tokenize(text) if tok not in STOP_WORDS)
    return [stem for stem in stems if stem not in STOP_WORDS]


class TfIdfVectorizer:
    """tf-idf vectorizer with the paper's top-F term selection.

    The paper ranks terms by "dividing the total number of documents by the
    number of documents containing the term" (i.e. raw inverse document
    frequency) and keeps the first F terms; per-document weights are then
    tf * log(idf).

    Parameters
    ----------
    n_features:
        F, the number of retained terms (the paper settles on 11).
    min_df:
        Ignore terms appearing in fewer than this many documents (guards the
        idf ranking from hapax noise).
    sublinear_tf:
        Use ``1 + log(tf)`` instead of raw counts.

    Attributes (after :meth:`fit`)
    ------------------------------
    vocabulary_ : dict term -> column index (the selected F terms)
    idf_ : (F,) idf weights for the selected terms
    """

    def __init__(self, n_features: int = 11, *, min_df: int = 2, sublinear_tf: bool = True):
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {min_df}")
        self.n_features = int(n_features)
        self.min_df = int(min_df)
        self.sublinear_tf = bool(sublinear_tf)
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None

    def fit(self, token_lists: list[list[str]]) -> "TfIdfVectorizer":
        """Select the top-F terms by idf x collection frequency and fix idf weights."""
        if not token_lists:
            raise ValueError("token_lists must be non-empty")
        df: Counter = Counter()
        cf: Counter = Counter()
        for tokens in token_lists:
            cf.update(tokens)
            df.update(set(tokens))
        n_docs = len(token_lists)
        candidates = [t for t, d in df.items() if d >= self.min_df]
        if not candidates:
            raise ValueError("no term passes min_df; lower min_df or supply more documents")
        # Paper's ranking: idf = n_docs / df. Scoring by cf * log(1 + idf)
        # (a tf-idf score at corpus level) keeps informative mid-frequency
        # terms ahead of hapaxes that share the same maximal idf.
        scores = {t: cf[t] * np.log(1.0 + n_docs / df[t]) for t in candidates}
        ranked = sorted(candidates, key=lambda t: (-scores[t], t))
        selected = ranked[: self.n_features]
        self.vocabulary_ = {t: j for j, t in enumerate(selected)}
        self.idf_ = np.array([np.log(1.0 + n_docs / df[t]) for t in selected])
        return self

    def transform(self, token_lists: list[list[str]]) -> np.ndarray:
        """(n_docs, F) tf-idf matrix, rows scaled to [0, 1] max-normalisation."""
        if self.vocabulary_ is None:
            raise RuntimeError("vectorizer is not fitted; call fit() first")
        n = len(token_lists)
        f = len(self.vocabulary_)
        X = np.zeros((n, f))
        for i, tokens in enumerate(token_lists):
            counts = Counter(tokens)
            for term, c in counts.items():
                j = self.vocabulary_.get(term)
                if j is not None:
                    tf = 1.0 + np.log(c) if self.sublinear_tf else float(c)
                    X[i, j] = tf * self.idf_[j]
        peak = X.max()
        if peak > 0:
            X /= peak  # dataset normalisation into [0, 1] (Section 5.2)
        return X

    def fit_transform(self, token_lists: list[list[str]]) -> np.ndarray:
        """Fit on the corpus and return its matrix."""
        return self.fit(token_lists).transform(token_lists)
