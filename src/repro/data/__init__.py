"""Datasets: synthetic point clouds and the Wikipedia-like document corpus.

The paper evaluates on (a) synthetic 64-dimensional vectors with entries in
[0, 1] and (b) 3.55M crawled Wikipedia documents pushed through an
HTML-cleaning + stop-word + Porter-stemming + tf-idf pipeline. Both are
reproduced here; the Wikipedia corpus is synthetic (see DESIGN.md's
substitution table) but flows through the full text pipeline, including a
simulated category-tree crawl.
"""

from repro.data.synthetic import make_blobs, make_uniform, make_rings, make_moons
from repro.data.text import (
    STOP_WORDS,
    tokenize,
    clean_html,
    PorterStemmer,
    preprocess_document,
    TfIdfVectorizer,
)
from repro.data.wikipedia import (
    WikipediaCorpusConfig,
    Document,
    Corpus,
    generate_corpus,
    vectorize_corpus,
    make_wikipedia_dataset,
)
from repro.data.crawler import SyntheticWikipedia, Crawler

__all__ = [
    "make_blobs",
    "make_uniform",
    "make_rings",
    "make_moons",
    "STOP_WORDS",
    "tokenize",
    "clean_html",
    "PorterStemmer",
    "preprocess_document",
    "TfIdfVectorizer",
    "WikipediaCorpusConfig",
    "Document",
    "Corpus",
    "generate_corpus",
    "vectorize_corpus",
    "make_wikipedia_dataset",
    "SyntheticWikipedia",
    "Crawler",
]
