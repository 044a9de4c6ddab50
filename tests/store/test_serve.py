"""Multi-process serving from one mapped artifact, and crawler handles."""

from __future__ import annotations

import pytest

from repro.core.pipeline import LanguageIdentifier
from repro.store import save_identifier, score_urls
from repro.store.serve import batched


@pytest.fixture(scope="module")
def model_path(small_train, tmp_path_factory):
    identifier = LanguageIdentifier("words", "NB", seed=0).fit(
        small_train.subsample(0.4, seed=2)
    )
    path = tmp_path_factory.mktemp("serve") / "nb.urlmodel"
    save_identifier(identifier, path)
    return path, identifier


class TestBatching:
    def test_batched_partitions_in_order(self):
        assert batched(list("abcdefg"), 3) == [["a", "b", "c"], ["d", "e", "f"], ["g"]]
        assert batched([], 4) == []

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            batched(["x"], 0)


class TestScoring:
    def test_single_process_matches_identifier(self, model_path, small_bundle):
        path, identifier = model_path
        urls = small_bundle.odp_test.urls[:40]
        results = score_urls(path, urls, workers=1, batch_size=16)
        assert [result.url for result in results] == list(urls)
        best = identifier.classify_many(urls)
        for row, result in enumerate(results):
            expected = best[row].value if best[row] is not None else None
            assert result.best == expected

    def test_workers_share_one_artifact(self, model_path, small_bundle):
        """N pool workers mapping the same file must answer exactly like
        one in-process worker — order preserved, results identical."""
        path, _ = model_path
        urls = small_bundle.odp_test.urls[:60]
        single = score_urls(path, urls, workers=1, batch_size=13)
        multi = score_urls(path, urls, workers=3, batch_size=13)
        assert multi == single

    def test_positives_are_the_binary_answers(self, model_path):
        path, identifier = model_path
        url = "http://www.recherche.fr/produits1.html"
        (result,) = score_urls(path, [url], workers=1)
        expected = tuple(
            sorted(lang.value for lang in identifier.predict_languages(url))
        )
        assert result.positives == expected

    def test_workers_validated(self, model_path):
        path, _ = model_path
        with pytest.raises(ValueError, match="workers"):
            score_urls(path, ["http://a.de"], workers=-1)


class TestCrawlerHandles:
    def test_focused_crawl_accepts_artifact_path(self, model_path, small_bundle):
        from repro.api import open_model
        from repro.crawler import focused_crawl
        from repro.linkgraph import build_link_graph

        path, identifier = model_path
        graph = build_link_graph(small_bundle.wc_test, seed=5)
        seeds = list(graph.nodes)[:3]
        from_path = focused_crawl(graph, seeds, "de", budget=20, identifier=path)
        from_fitted = focused_crawl(
            graph, seeds, "de", budget=20, identifier=identifier
        )
        assert from_path.crawl_order == from_fitted.crawl_order
        assert (
            open_model(str(path)).name
            == open_model(identifier).name
        )

    def test_resolve_identifier_rejects_junk(self):
        from repro.api import open_model

        with pytest.raises(TypeError, match="identifier"):
            open_model(12345)

    def test_store_handle_resolves(self, small_train, tmp_path):
        from repro.api import open_model
        from repro.store import ModelStore

        identifier = LanguageIdentifier("words", "NB", seed=0).fit(
            small_train.subsample(0.3, seed=1)
        )
        handle = ModelStore(tmp_path / "store").save(identifier)
        resolved = open_model(handle)
        assert resolved.name == identifier.name
