"""OpenSearch `sort` clause (query/sortq.py): field-ordered search on
the local reader, the sharded fleet, and the HTTP front door — nulls
last, doc-asc ties, (key, doc_id) search_after cursors."""

import json
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("sortidx") / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(90, dup_every=0)),
        root,
        fingerprint="sort",
        num_parts=4,
        chain="simple",
        field="body",
    )
    return IndexReader(root)


def _docs_cols(reader, cols):
    import os

    import pyarrow.dataset as pads

    return pads.dataset(
        os.path.join(reader.index_dir, "docs"), partitioning="hive"
    ).to_table(columns=cols)


def _brute_order(reader, query, col, desc):
    """Independent reference: matched docs in (key, nulls last, doc asc)
    order, via Python sorting over the raw docs store."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.facets import match_doc_ids

    matched = set(
        int(d) for d in match_doc_ids(reader, Analyzer(reader.chain)(query))
    )
    t = _docs_cols(reader, ["doc_id", col])
    rows = [
        (int(d), v)
        for d, v in zip(t["doc_id"].to_pylist(), t[col].to_pylist())
        if int(d) in matched
    ]
    nonnull = [r for r in rows if r[1] is not None]
    nulls = sorted(r for r in rows if r[1] is None)
    nonnull.sort(key=lambda r: ((r[1],), r[0]) if not desc else r[0])
    if desc:
        # python can't reverse-sort mixed keys in one pass: sort by key
        # desc with doc asc = sort by doc asc, then stable by key desc
        nonnull.sort(key=lambda r: r[1], reverse=True)
    return nonnull + nulls


def test_sort_rows_range_matches_bruteforce(built):
    from docs_indexer_ray.query.served import live_matches
    from docs_indexer_ray.query.sortq import live_mask, sort_rows_range

    for col, desc in (("warc_ts", True), ("warc_ts", False),
                      ("extras", True), ("extras", False)):
        # "page" hits docs WITH extras (description/categories) and
        # plain/stub pages WITHOUT (null extras) — the mixed case
        q = "node pools" if col == "warc_ts" else "node page quotas"
        want = _brute_order(built, q, col, desc)
        _, matched = live_matches(built, q, live_mask(built))
        got = sort_rows_range(built, matched, col, desc=desc, n=len(want) + 5)
        assert len(matched) == len(want)
        assert got["doc_id"].to_pylist() == [d for d, _ in want], (col, desc)
        assert got["key"].to_pylist() == [v for _, v in want]
        # extras is genuinely mixed — nulls-last must actually bite
        if col == "extras":
            keys = got["key"].to_pylist()
            n_null = sum(1 for v in keys if v is None)
            assert 0 < n_null < len(keys)
            assert all(v is None for v in keys[-n_null:])


def test_sort_search_response_shape_and_pages(built):
    from docs_indexer_ray.query.search import search_response

    want = _brute_order(built, "node", "warc_ts", True)
    t = search_response(
        built, "node", k=8, fields=("url",), syntax=False,
        sort=("warc_ts", "desc"),
    )
    assert t.column_names == ["rank", "doc_id", "score", "url", "sort_key"]
    assert t["doc_id"].to_pylist() == [d for d, _ in want[:8]]
    assert t["sort_key"].to_pylist() == [v for _, v in want[:8]]
    assert all(s == 0.0 for s in t["score"].to_pylist())  # _score: null
    assert pa.types.is_timestamp(t["sort_key"].type)

    # offset paging: rank continues, slice matches the global order
    p2 = search_response(
        built, "node", k=4, from_=4, fields=("url",), syntax=False,
        sort=("warc_ts", "desc"),
    )
    assert p2["rank"].to_pylist() == [5, 6, 7, 8]
    assert p2["doc_id"].to_pylist() == t["doc_id"].to_pylist()[4:8]

    # cursor walk (key, doc_id) covers the full ranking exactly once
    seen = []
    after = None
    while True:
        page = search_response(
            built, "node", k=7, fields=(), syntax=False,
            sort=("warc_ts", "desc"), after=after,
        )
        if page.num_rows == 0:
            break
        seen += page["doc_id"].to_pylist()
        after = (
            page["sort_key"].to_pylist()[-1],
            page["doc_id"].to_pylist()[-1],
        )
    assert seen == [d for d, _ in want]

    # cursor walk across the NULL boundary (extras asc: non-nulls, then
    # the null block — the null-cursor branch must keep walking)
    want_x = _brute_order(built, "node page quotas", "extras", False)
    assert any(v is None for _, v in want_x) and any(
        v is not None for _, v in want_x
    )
    seen, after = [], None
    while True:
        page = search_response(
            built, "node page quotas", k=9, fields=(), syntax=False,
            sort=("extras", "asc"), after=after,
        )
        if page.num_rows == 0:
            break
        seen += page["doc_id"].to_pylist()
        after = (
            page["sort_key"].to_pylist()[-1],
            page["doc_id"].to_pylist()[-1],
        )
    assert seen == [d for d, _ in want_x]


def test_sort_sharded_matches_local(built, ray_session):
    import os

    from docs_indexer_ray.query.search import search_response
    from docs_indexer_ray.query.served import ShardedQueryService, page_rank

    root = os.path.dirname(built.index_dir)
    svc = ShardedQueryService(root, n_shards=3, chain=built.chain)
    try:
        for col, order, syntax, q in (
            ("warc_ts", "desc", False, "node pools"),
            ("warc_ts", "asc", False, "node"),
            ("extras", "asc", False, "node page quotas"),
            ("warc_ts", "desc", True, '+node -quota'),
        ):
            local = search_response(
                built, q, k=12, fields=("url",), syntax=syntax,
                sort=(col, order),
            )
            fleet = svc.search(
                q, k=12, fields=("url",), syntax=syntax, sort=(col, order),
            )
            assert fleet.equals(local), (col, order, syntax)
        # the query phase: same page + the true match count in one
        # fan-out
        page, total, _ = svc.query_phase(
            "node", rank=page_rank(5, sort=("warc_ts", "desc"))
        )
        t = svc.fetch_phase(page, "node", (), None, 160, False)
        assert total == len(_brute_order(built, "node", "warc_ts", True))
        assert t["doc_id"].to_pylist() == [
            d for d, _ in _brute_order(built, "node", "warc_ts", True)[:5]
        ]
        # cursor pages on the fleet ≡ local cursor pages
        after = (
            t["sort_key"].to_pylist()[-1],
            t["doc_id"].to_pylist()[-1],
        )
        nxt = svc.search(
            "node", k=5, fields=(), syntax=False,
            sort=("warc_ts", "desc"), after=after,
        )
        loc = search_response(
            built, "node", k=5, fields=(), syntax=False,
            sort=("warc_ts", "desc"), after=after,
        )
        assert nxt.equals(loc)
        # empty page keeps the typed sort_key column
        zero = svc.search(
            "zzznothing", k=5, fields=("url",), syntax=False,
            sort=("warc_ts", "desc"),
        )
        assert zero.num_rows == 0
        assert pa.types.is_timestamp(zero["sort_key"].type)
    finally:
        svc.shutdown()


def _req(port, path, body=None, **params):
    url = f"http://127.0.0.1:{port}{path}"
    if params:
        url += "?" + urllib.parse.urlencode(params)
    data = json.dumps(body).encode() if body is not None else None
    try:
        with urllib.request.urlopen(url, data=data) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_sort_http_both_backends(built, ray_session):
    import os

    from docs_indexer_ray.serve_http import SearchServer

    want = _brute_order(built, "node", "warc_ts", True)
    root = os.path.dirname(built.index_dir)
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            code, r = _req(srv.port, "/_search", q="node", size=6,
                           sort="warc_ts:desc", fields="url")
            assert code == 200, r
            hits = r["hits"]["hits"]
            assert [h["_id"] for h in hits] == [d for d, _ in want[:6]]
            assert all(h["_score"] is None for h in hits)
            assert r["hits"]["total"]["value"] == len(want)
            # sort values are [iso_key, doc_id] and feed the next page
            cur = hits[-1]["sort"]
            assert isinstance(cur[0], str) and "T" in cur[0]
            code, r2 = _req(
                srv.port, "/_search",
                body={"query": {"match": {"body": "node"}}, "size": 6,
                      "sort": [{"warc_ts": {"order": "desc"}}, "_id"],
                      "search_after": cur},
            )
            assert code == 200, r2
            assert [h["_id"] for h in r2["hits"]["hits"]] == \
                [d for d, _ in want[6:12]]
            # GET cursor spelling works too (ISO key string)
            code, r3 = _req(
                srv.port, "/_search", q="node", size=6,
                sort="warc_ts:desc", search_after=f"{cur[0]},{cur[1]}",
            )
            assert [h["_id"] for h in r3["hits"]["hits"]] == \
                [h["_id"] for h in r2["hits"]["hits"]]
            # default field order is ASC (OpenSearch)
            code, r4 = _req(srv.port, "/_search", q="node", size=3,
                            sort="warc_ts")
            asc = _brute_order(built, "node", "warc_ts", False)
            assert [h["_id"] for h in r4["hits"]["hits"]] == \
                [d for d, _ in asc[:3]]
            # "_score" sort = the default relevance ranking
            code, r5 = _req(srv.port, "/_search", q="node", size=3,
                            sort="_score")
            code, r6 = _req(srv.port, "/_search", q="node", size=3)
            assert r5["hits"]["hits"] == r6["hits"]["hits"]
            # multi-field ladders refuse loudly
            code, err = _req(
                srv.port, "/_search",
                body={"query": {"match": {"body": "node"}},
                      "sort": [{"warc_ts": "desc"}, {"url": "asc"}]},
            )
            assert code == 400 and "one sort field" in err["error"]["reason"]
        finally:
            srv.stop()


def test_sort_cursor_type_coercion_and_string_sort(built, ray_session):
    """Sorting by a STRING column (url) with a GET-style cursor whose
    value parses as a number must still cast to the column type; a
    scroll over a DSL body query round-trips the dict through the
    stateless id."""
    import json
    import os
    import urllib.parse
    import urllib.request

    from docs_indexer_ray.query.search import search_response
    from docs_indexer_ray.serve_http import SearchServer

    # string-column sort: url asc pages walk the whole match set
    want = _brute_order(built, "node", "url", False)
    seen, after = [], None
    while True:
        page = search_response(
            built, "node", k=11, fields=(), syntax=False,
            sort=("url", "asc"), after=after,
        )
        if page.num_rows == 0:
            break
        seen += page["doc_id"].to_pylist()
        after = (page["sort_key"].to_pylist()[-1],
                 page["doc_id"].to_pylist()[-1])
    assert seen == [d for d, _ in want]

    # numeric-looking string cursor against the string column: the
    # kernel coerces to str instead of erroring
    from docs_indexer_ray.query.served import live_matches
    from docs_indexer_ray.query.sortq import live_mask, sort_rows_range

    rows = sort_rows_range(
        built, live_matches(built, "node", live_mask(built))[1], "url",
        desc=False, n=5, after=(123, -1),
    )
    assert rows.num_rows > 0  # "123" < any https url → everything after

    root = os.path.dirname(built.index_dir)
    srv = SearchServer(root, backend="local").start()
    try:
        def req(path, body=None, **params):
            url = f"http://127.0.0.1:{srv.port}{path}"
            if params:
                url += "?" + urllib.parse.urlencode(params)
            data = json.dumps(body).encode() if body is not None else None
            with urllib.request.urlopen(
                urllib.request.Request(url, data=data)
            ) as r:
                return json.loads(r.read())

        # scroll over a DSL BODY query: the dict rides inside the id
        body = {"query": {"bool": {"must": [{"match": {"body": "node"}}],
                                   "must_not": [{"term": {"body": "quota"}}]}},
                "size": 6, "scroll": "1m"}
        ref = req("/_search", body={"query": body["query"], "size": 500})
        want_ids = [h["_id"] for h in ref["hits"]["hits"]]
        page = req("/_search", body=body)
        seen = [h["_id"] for h in page["hits"]["hits"]]
        sid = page["_scroll_id"]
        while True:
            page = req("/_search/scroll", body={"scroll_id": sid})
            if not page["hits"]["hits"]:
                break
            seen += [h["_id"] for h in page["hits"]["hits"]]
            sid = page["_scroll_id"]
        assert seen == want_ids
    finally:
        srv.stop()
