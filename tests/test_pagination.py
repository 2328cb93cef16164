"""Pagination across the whole serving stack: ``from``/``size`` offset
paging and the stateless ``search_after`` cursor (OpenSearch deep
pagination), pinned to one unpaged ranking on the local reader, the
sharded fleet, and the HTTP layer."""

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("pageidx") / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(90, dup_every=0)),
        root,
        fingerprint="page",
        num_parts=4,
        chain="simple",
        field="body",
    )
    return IndexReader(root)


def _walk_after(rank_fn, n_pages: int, k: int):
    """Page through rank_fn(after) n_pages times, return the concat.
    Hits are (doc_id, score); the cursor convention is (score, doc_id)."""
    out, cursor = [], None
    for _ in range(n_pages):
        page = rank_fn(cursor)
        if not page:
            break
        out.extend(page)
        cursor = (page[-1][1], page[-1][0])
    return out


def test_topk_after_walk_equals_one_ranking(built):
    """Plain-match deep pagination: walking pages of 4 of the served
    planner ``bm25.topk`` via the (score, doc_id) cursor reproduces one
    ``score_topk`` top-12 ranking exactly — including across score
    ties (doc-id tiebreak)."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.bm25 import score_topk, topk

    terms = Analyzer(built.chain)("node pools quota")
    full = score_topk(built, terms, k=12)
    assert len(full) == 12
    walked = _walk_after(lambda c: topk(built, terms, k=4, after=c), 3, 4)
    assert walked == full


def test_query_string_after_walk_equals_one_ranking(built):
    """query_string (quantized ranking key) deep pagination: the
    cursor compares in round(s, 9) space — the space the returned
    scores live in — so feeding a page's last hit back is exact."""
    from docs_indexer_ray.query.qstring import query_string_topk

    qs = "node OR quota OR pools"
    full = query_string_topk(built, qs, k=12)
    assert len(full) == 12
    walked = _walk_after(
        lambda c: query_string_topk(built, qs, k=4, after=c), 3, 4
    )
    assert walked == full


def test_search_response_from_and_after_pages(built):
    """search_response offset paging slices the one unpaged ranking
    (rank column continues: from_+1…), and the search_after page
    matches the same slice with rank restarting at 1."""
    import pyarrow as pa

    from docs_indexer_ray.query.search import search_response

    for syntax in (False, True):
        full = search_response(
            built, "node pools quota", k=12, fields=("url",), syntax=syntax
        )
        page2 = search_response(
            built, "node pools quota", k=4, fields=("url",),
            syntax=syntax, from_=4,
        )
        assert page2["rank"].to_pylist() == [5, 6, 7, 8]
        assert page2["doc_id"].to_pylist() == full["doc_id"].to_pylist()[4:8]
        assert page2["url"].to_pylist() == full["url"].to_pylist()[4:8]

        cursor = (
            full["score"].to_pylist()[3],
            full["doc_id"].to_pylist()[3],
        )
        after_page = search_response(
            built, "node pools quota", k=4, fields=("url",),
            syntax=syntax, after=cursor,
        )
        assert after_page["rank"].to_pylist() == [1, 2, 3, 4]
        assert after_page["doc_id"].to_pylist() == full["doc_id"].to_pylist()[4:8]
        assert isinstance(after_page, pa.Table)

    with pytest.raises(ValueError):
        search_response(built, "node", k=3, from_=3, after=(1.0, 0))


def test_search_response_pinned_to_reference_kernels(ray_session, tmp_path):
    """search_response runs the served query-then-fetch; its page and
    its total are pinned to the reference kernels outside the query
    phase — query_string_topk / score_topk (a cursor page: its full
    ranking filtered to the hits strictly after the cursor) for the
    (doc_id, score) page, match_doc_ids or the dense ``_eval`` match
    mask for the live match count — on every page kind, on a clean
    build and again after tombstoning matching docs."""
    import numpy as np
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.index.deletes import add_deletes
    from docs_indexer_ray.query.bm25 import score_topk
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.qstring import (
        _eval,
        parse_query_string,
        query_string_topk,
    )
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.search import search_response
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(90, dup_every=0)),
        root,
        fingerprint="pin",
        num_parts=4,
        chain="simple",
        field="body",
    )
    queries = {
        False: ["node pools quotas", "page"],
        True: ["node OR quotas OR helm", "(node AND pools) OR helm -quotas"],
    }

    def reference(reader, q, syntax, k, from_=0, after=None):
        if syntax:
            hits = query_string_topk(reader, q, k=from_ + k, after=after)[from_:]
            _, match = _eval(reader, parse_query_string(q, reader.analyzer))
            live = match.copy()
            live[reader.deleted_ids()] = False
            return hits, int(np.count_nonzero(live))
        terms = reader.analyzer(q)
        if after is not None:
            a_s, a_d = after
            hits = [
                (d, s) for d, s in score_topk(reader, terms, k=reader.n_docs)
                if s < a_s or (s == a_s and d > a_d)
            ][:k]
        else:
            hits = score_topk(reader, terms, k=from_ + k)[from_:]
        return hits, len(match_doc_ids(reader, terms))

    def check(reader):
        for syntax, qs in queries.items():
            for q in qs:
                full, _ = reference(reader, q, syntax, 8)
                assert len(full) == 8
                cursor = (full[3][1], full[3][0])
                for from_, after in ((0, None), (3, None), (0, cursor)):
                    t, total = search_response(
                        reader, q, k=4, fields=("url",), syntax=syntax,
                        from_=from_, after=after, with_total=True,
                    )
                    want, want_total = reference(
                        reader, q, syntax, 4, from_, after
                    )
                    got = list(zip(t["doc_id"].to_pylist(),
                                   t["score"].to_pylist()))
                    assert got == want, (q, syntax, from_, after)
                    assert total == want_total, (q, syntax, from_, after)

    clean = IndexReader(root)
    check(clean)
    matching = match_doc_ids(clean, clean.analyzer("node pools quotas helm"))
    top = [d for d, _ in score_topk(clean, clean.analyzer("page"), k=2)]
    add_deletes(root, sorted({*matching[::4].tolist(), *top}))
    tombstoned = IndexReader(root)
    assert len(tombstoned.deleted_ids()) >= 3
    check(tombstoned)


def test_sharded_pagination_matches_local(built, ray_session):
    """The fleet's from_/after pages are pinned to the local
    search_response in both modes — each shard applies the same global
    cursor and the exact merge picks the page; the query phase keeps
    the FULL match count on every page."""
    import os

    from docs_indexer_ray.query.search import search_response
    from docs_indexer_ray.query.served import ShardedQueryService, page_rank

    root = os.path.dirname(built.index_dir)
    svc = ShardedQueryService(root, n_shards=3, chain=built.chain)
    try:
        for syntax in (False, True):
            full = search_response(
                built, "node pools quota", k=12, fields=("url",), syntax=syntax
            )
            local2 = search_response(
                built, "node pools quota", k=4, fields=("url",),
                syntax=syntax, from_=4,
            )
            got2 = svc.search(
                "node pools quota", k=4, fields=("url",),
                syntax=syntax, from_=4,
            )
            assert got2.equals(local2)

            cursor = (
                full["score"].to_pylist()[3],
                full["doc_id"].to_pylist()[3],
            )
            want = search_response(
                built, "node pools quota", k=4, fields=("url",),
                syntax=syntax, after=cursor,
            )
            got = svc.search(
                "node pools quota", k=4, fields=("url",),
                syntax=syntax, after=cursor,
            )
            assert got.equals(want)

            page, total, _ = svc.query_phase(
                "node pools quota", syntax, rank=page_rank(4, after=cursor)
            )
            t = svc.fetch_phase(
                page, "node pools quota", ("url",), None, 160, syntax
            )
            assert t.equals(want)
            assert total == svc.query_phase("node pools quota", syntax)[1]

        with pytest.raises(ValueError):
            svc.search("node", k=3, from_=3, after=(1.0, 0))
    finally:
        svc.shutdown()


def _get(port: int, path: str, **params):
    url = f"http://127.0.0.1:{port}{path}"
    if params:
        url += "?" + urllib.parse.urlencode(params)
    try:
        with urllib.request.urlopen(url) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_http_pagination(built, ray_session):
    """HTTP /_search pagination on both backends: from/size pages
    concatenate to one big page, the search_after walk (feeding each
    page's last `sort` back) reproduces it, and from+search_after is a
    400."""
    import os

    from docs_indexer_ray.serve_http import SearchServer

    root = os.path.dirname(built.index_dir)
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            _, big = _get(srv.port, "/_search", q="node pools quota", size=12)
            ids = [h["_id"] for h in big["hits"]["hits"]]
            assert len(ids) == 12
            # every hit carries its sort values (score, doc_id)
            h0 = big["hits"]["hits"][0]
            assert h0["sort"] == [h0["_score"], h0["_id"]]

            # offset pages concat to the big page; total never shrinks
            paged = []
            for from_ in (0, 4, 8):
                _, p = _get(
                    srv.port, "/_search", q="node pools quota",
                    size=4, **{"from": from_},
                )
                assert p["hits"]["total"] == big["hits"]["total"]
                paged.extend(h["_id"] for h in p["hits"]["hits"])
            assert paged == ids

            # search_after walk reproduces the same order
            walked, cursor = [], None
            for _ in range(3):
                params = dict(q="node pools quota", size=4)
                if cursor is not None:
                    params["search_after"] = f"{cursor[0]!r},{cursor[1]}"
                _, p = _get(srv.port, "/_search", **params)
                hits = p["hits"]["hits"]
                walked.extend(h["_id"] for h in hits)
                cursor = hits[-1]["sort"]
            assert walked == ids

            code, err = _get(
                srv.port, "/_search", q="node", size=3,
                search_after="1.0,0", **{"from": 3},
            )
            assert code == 400 and err["error"]["type"] == "ValueError"
        finally:
            srv.stop()
