"""Integration tests: cross-module scenarios mirroring the paper's workflows."""

import numpy as np
import pytest

from repro import DASC, PSC, NystromSpectralClustering, SpectralClustering
from repro.core import DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.data import (
    Crawler,
    SyntheticWikipedia,
    TfIdfVectorizer,
    make_blobs,
    make_wikipedia_dataset,
    preprocess_document,
)
from repro.kernels import GaussianKernel, gram_matrix
from repro.metrics import (
    average_squared_error,
    clustering_accuracy,
    davies_bouldin_index,
    fnorm_ratio,
)


class TestFigure3Shape:
    """All spectral variants accurate on documents; DASC tracks SC."""

    def test_accuracy_ordering_on_wikipedia(self):
        X, y = make_wikipedia_dataset(512, n_categories=8, seed=0)
        k = 8
        acc = {
            "DASC": clustering_accuracy(y, DASC(k, seed=0).fit_predict(X)),
            "SC": clustering_accuracy(y, SpectralClustering(k, sigma=0.5, seed=0).fit_predict(X)),
            "NYST": clustering_accuracy(
                y, NystromSpectralClustering(k, n_landmarks=100, sigma=0.5, seed=0).fit_predict(X)
            ),
        }
        assert acc["SC"] > 0.85
        assert acc["DASC"] > 0.85
        assert abs(acc["DASC"] - acc["SC"]) < 0.1  # DASC ~ SC (Figure 3)


class TestFigure5Shape:
    def test_fnorm_ratio_decreases_with_buckets(self):
        X, _ = make_blobs(600, n_clusters=6, n_features=32, cluster_std=0.05, seed=4)
        sigma = 0.5
        full = gram_matrix(X, GaussianKernel(sigma), zero_diagonal=True)
        ratios = []
        for n_bits in (2, 4, 6, 8):
            dasc = DASC(sigma=sigma, n_bits=n_bits, min_bucket_size=2, seed=0)
            approx = dasc.transform(X)
            ratios.append((dasc.buckets_.n_buckets, fnorm_ratio(approx, full)))
        buckets = [b for b, _ in ratios]
        values = [v for _, v in ratios]
        assert buckets[-1] > buckets[0]  # more bits -> more buckets
        assert values[-1] < values[0]  # more buckets -> lower ratio (Fig. 5)
        assert all(0.0 < v <= 1.0 for v in values)


class TestFigure6Shape:
    def test_dasc_memory_far_below_sc(self):
        X, _ = make_blobs(1500, n_clusters=8, n_features=32, cluster_std=0.03, seed=5)
        dasc = DASC(8, n_bits=8, min_bucket_size=4, seed=0).fit(X)
        sc_bytes = 4 * X.shape[0] ** 2
        assert dasc.approx_kernel_.nbytes < 0.6 * sc_bytes


class TestTable3Shape:
    def test_elasticity(self):
        X, y = make_wikipedia_dataset(1024, seed=1)
        k = 17
        rows = {}
        for nodes in (4, 16):
            cfg = DASCConfig(n_bits=9, min_bucket_size=4, seed=1)
            rows[nodes] = DistributedDASC(k, n_nodes=nodes, config=cfg).run(X)
        # Accuracy flat, memory identical, makespan non-increasing.
        acc4 = clustering_accuracy(y, rows[4].labels)
        acc16 = clustering_accuracy(y, rows[16].labels)
        assert acc4 == pytest.approx(acc16)
        assert rows[4].gram_bytes == rows[16].gram_bytes
        assert rows[16].makespan <= rows[4].makespan


class TestCrawlToClusterPipeline:
    def test_end_to_end(self):
        site = SyntheticWikipedia(n_documents=256, n_categories=6, seed=9)
        crawl = Crawler(site).crawl()
        urls = sorted(crawl.article_html)
        tokens = [preprocess_document(crawl.article_html[u], is_html=True) for u in urls]
        X = TfIdfVectorizer(n_features=11).fit_transform(tokens)
        y = np.array([site.category_of(u) for u in urls])
        labels = DASC(6, seed=0).fit_predict(X)
        assert clustering_accuracy(y, labels) > 0.8


class TestQualityMetricsAgree:
    def test_good_clustering_beats_random_on_all_metrics(self):
        X, y = make_blobs(300, n_clusters=5, n_features=16, cluster_std=0.03, seed=6)
        good = DASC(5, seed=0).fit_predict(X)
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 5, len(X))
        assert davies_bouldin_index(X, good) < davies_bouldin_index(X, random_labels)
        assert average_squared_error(X, good) < average_squared_error(X, random_labels)

    def test_psc_runs_on_documents(self):
        X, y = make_wikipedia_dataset(256, n_categories=4, seed=2)
        labels = PSC(4, n_neighbors=20, sigma=0.5, seed=0).fit_predict(X)
        assert clustering_accuracy(y, labels) > 0.6


class TestGrandPipeline:
    """Everything at once: crawl -> text pipeline -> distributed DASC on an
    EMR cluster, verified streamingly."""

    def test_end_to_end_distributed_and_streaming(self):
        from repro.core import DASCConfig
        from repro.core.streaming import StreamingDASC
        from repro.dasc_mr import DistributedDASC
        from repro.mapreduce.emr import ElasticMapReduce

        site = SyntheticWikipedia(n_documents=256, n_categories=6, seed=31)
        crawl = Crawler(site).crawl()
        urls = sorted(crawl.article_html)
        tokens = [preprocess_document(crawl.article_html[u], is_html=True) for u in urls]
        X = TfIdfVectorizer(n_features=11).fit_transform(tokens)
        y = np.array([site.category_of(u) for u in urls])

        # Distributed, on a plain EMR cluster.
        res = DistributedDASC(
            6, n_nodes=4, config=DASCConfig(seed=0), emr=ElasticMapReduce()
        ).run(X)
        assert clustering_accuracy(y, res.labels) > 0.8

        # The same data absorbed as a stream gives a consistent clustering.
        sd = StreamingDASC(6, config=DASCConfig(seed=0)).calibrate(X)
        for start in range(0, len(X), 64):
            sd.partial_fit(X[start : start + 64])
        stream_labels = sd.finalize()
        assert clustering_accuracy(y, stream_labels) > 0.8
