"""HTTP serving layer: OpenSearch-shaped endpoints over the query
tiers (local warm reader + sharded actor fleet)."""

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("httpidx") / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(80, dup_every=0)),
        root,
        fingerprint="http",
        num_parts=4,
        chain="simple",
        field="body",
        store_positions=True,
    )
    return root


def _get(port: int, path: str, **params) -> tuple[int, dict]:
    url = f"http://127.0.0.1:{port}{path}"
    if params:
        url += "?" + urllib.parse.urlencode(params)
    try:
        with urllib.request.urlopen(url) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_http_endpoints_local_backend(built, ray_session):
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(built, backend="local").start()
    try:
        # _search, plain match with highlight
        code, body = _get(
            srv.port, "/_search", q="node pools", k=3, highlight="body"
        )
        assert code == 200
        hits = body["hits"]["hits"]
        assert len(hits) == 3
        # total is the TRUE match count (not capped at k) — must agree
        # with the /_count endpoint
        _, cnt = _get(srv.port, "/_count", q="node pools")
        assert body["hits"]["total"]["value"] == cnt["count"] >= 3
        assert set(hits[0]["_source"]) == {"url", "title"}
        assert "<em>" in hits[0]["highlight"]["body"][0]
        assert hits[0]["_score"] >= hits[-1]["_score"]

        # _search with query_string syntax: prohibited term honored
        code, body = _get(
            srv.port, "/_search", q="+node -quota", k=5, syntax=1, fields="url"
        )
        assert code == 200
        assert all(set(h["_source"]) == {"url"} for h in body["hits"]["hits"])

        # _count
        code, body = _get(srv.port, "/_count", q="node")
        assert code == 200 and body["count"] > 0
        code, zero = _get(srv.port, "/_count", q="zzzunseen")
        assert code == 200 and zero["count"] == 0

        # _analyze
        code, body = _get(srv.port, "/_analyze", text="Node POOLS 42!")
        assert code == 200
        assert [t["token"] for t in body["tokens"]] == ["node", "pools", "42"]

        # _suggest
        code, body = _get(srv.port, "/_suggest", q="noode pols")
        assert code == 200 and body["suggestions"]
        assert "node" in body["suggestions"][0]["text"]

        # error envelopes: bad syntax → 400, unknown route → 404,
        # missing param → 400
        code, err = _get(srv.port, "/_search", q="(node", syntax=1)
        assert code == 400 and err["error"]["type"] == "QueryStringError"
        code, err = _get(srv.port, "/_nope")
        assert code == 404
        code, err = _get(srv.port, "/_search")
        assert code == 400 and err["error"]["type"] == "KeyError"
    finally:
        srv.stop()


def test_http_sharded_backend_matches_local(built, ray_session):
    from docs_indexer_ray.serve_http import SearchServer

    local = SearchServer(built, backend="local").start()
    fleet = SearchServer(built, backend="sharded", n_shards=3).start()
    try:
        for params in (
            dict(q="node pools quota", k=5, highlight="body"),
            dict(q='+node "node pools"', k=4, syntax=1),
        ):
            _, a = _get(local.port, "/_search", **params)
            _, b = _get(fleet.port, "/_search", **params)
            assert a["hits"]["hits"] == b["hits"]["hits"], params
        _, ca = _get(local.port, "/_count", q="node quota")
        _, cb = _get(fleet.port, "/_count", q="node quota")
        assert ca == cb
    finally:
        local.stop()
        fleet.stop()


def test_http_write_lifecycle(built, ray_session, tmp_path):
    """POST /_bulk indexes a batch through ONE incremental update and
    the backend reloads onto the merged build; POST /_delete_by_query
    tombstones; both immediately visible to reads."""
    import shutil

    from docs_indexer_ray.serve_http import SearchServer

    root = str(tmp_path / "wridx")
    shutil.copytree(built, root)
    srv = SearchServer(root, backend="local").start()
    try:
        _, before = _get(srv.port, "/_count", q="zebra")
        assert before["count"] == 0

        lines = []
        for i in range(3):
            lines.append(json.dumps({"index": {}}))
            lines.append(json.dumps({
                "url": f"https://docs.test/new/zebra-{i}/",
                "html": f"<html><body><h1>Zebra {i}</h1>"
                        f"<p>zebra stripes pattern {i}</p></body></html>",
                "warc_ts": 1_800_000_000_000_000 + i,
            }))
        body = ("\n".join(lines) + "\n").encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_bulk", data=body, method="POST"
        )
        with urllib.request.urlopen(req) as r:
            resp = json.loads(r.read())
        assert resp["errors"] is False and len(resp["items"]) == 3
        assert all(it["index"]["status"] == 201 for it in resp["items"])

        _, after = _get(srv.port, "/_count", q="zebra")
        assert after["count"] == 3
        _, s = _get(srv.port, "/_search", q="zebra stripes", k=5, fields="url")
        assert {h["_source"]["url"] for h in s["hits"]["hits"]} == {
            f"https://docs.test/new/zebra-{i}/" for i in range(3)
        }

        # idempotence: re-posting the same batch is a seen-url no-op
        with urllib.request.urlopen(urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_bulk", data=body, method="POST"
        )) as r:
            again = json.loads(r.read())
        assert again["n_docs"] == resp["n_docs"]

        # delete_by_query tombstones them
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_delete_by_query?q=zebra",
            data=b"", method="POST",
        )
        with urllib.request.urlopen(req) as r:
            assert json.loads(r.read())["deleted"] == 3
        _, gone = _get(srv.port, "/_count", q="zebra")
        assert gone["count"] == 0

        # malformed bulk → 400
        bad = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_bulk",
            data=b'{"index": {}}\n', method="POST",
        )
        try:
            urllib.request.urlopen(bad)
            raised = False
        except urllib.error.HTTPError as e:
            raised = e.code == 400
        assert raised
    finally:
        srv.stop()


def test_http_doc_and_msearch(built, ray_session):
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(built, backend="local").start()
    try:
        # fetch by id
        code, body = _get(srv.port, "/_doc", id=0, fields="url,title,body")
        assert code == 200 and body["found"] and body["_id"] == 0
        assert set(body["_source"]) == {"url", "title", "body"}
        code, missing = _get(srv.port, "/_doc", id=10_000)
        assert code == 200 and missing["found"] is False

        # multi-search: one NDJSON line per query, responses in order
        lines = [
            json.dumps({"q": "node pools", "k": 2, "fields": "url"}),
            json.dumps({"q": '+node -quota', "k": 3, "syntax": True}),
            json.dumps({"q": "zzzunseen"}),
        ]
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_msearch",
            data=("\n".join(lines) + "\n").encode(),
            method="POST",
        )
        with urllib.request.urlopen(req) as r:
            resp = json.loads(r.read())
        rs = resp["responses"]
        assert len(rs) == 3
        assert len(rs[0]["hits"]["hits"]) == 2
        assert rs[0]["hits"]["total"]["value"] >= 2  # true count, not k-cap
        assert set(rs[0]["hits"]["hits"][0]["_source"]) == {"url"}
        assert rs[2]["hits"]["total"]["value"] == 0
        # per-line results match the singleton endpoint
        _, single = _get(srv.port, "/_search", q="node pools", k=2, fields="url")
        assert rs[0] ["hits"]["hits"] == single["hits"]["hits"]
    finally:
        srv.stop()


def test_http_explain(built, ray_session):
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(built, backend="local").start()
    try:
        _, top = _get(srv.port, "/_search", q="node pools", k=1, fields="url")
        doc = top["hits"]["hits"][0]
        code, ex = _get(srv.port, "/_explain", id=doc["_id"], q="node pools")
        assert code == 200 and ex["matched"]
        assert ex["explanation"]["value"] == pytest.approx(doc["_score"])
        terms = {d["term"] for d in ex["explanation"]["details"]}
        assert terms == {"node", "pools"}
        # non-matching doc: matched false, value 0
        code, none = _get(srv.port, "/_explain", id=doc["_id"], q="zzzunseen")
        assert code == 200 and none["matched"] is False
        # out-of-range id → 400 (KeyError envelope)
        code, err = _get(srv.port, "/_explain", id=10_000, q="node")
        assert code == 400
    finally:
        srv.stop()


def test_http_count_syntax(built, ray_session):
    """`/_count?syntax=1` counts the full query_string match mask —
    identical on the local and sharded backends, and must_not
    actually shrinks the count."""
    from docs_indexer_ray.serve_http import SearchServer

    import numpy as np

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.qstring import _eval, parse_query_string
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(built)
    an = Analyzer("simple")

    def want(q):
        _, match = _eval(reader, parse_query_string(q, an))
        return int(np.count_nonzero(match))

    local = SearchServer(built, backend="local").start()
    fleet = SearchServer(built, backend="sharded", n_shards=3).start()
    try:
        queries = ["node AND pools", "+node -pool", "(node OR page) AND NOT quota",
                   '"node pools"', "nod*"]
        assert any(want(q) for q in queries)  # corpus sanity
        for q in queries:
            _, a = _get(local.port, "/_count", q=q, syntax=1)
            _, b = _get(fleet.port, "/_count", q=q, syntax=1)
            assert a["count"] == b["count"] == want(q), q
        # non-syntax counts agree across backends too
        _, a = _get(local.port, "/_count", q="node quota")
        _, b = _get(fleet.port, "/_count", q="node quota")
        assert a == b
    finally:
        local.stop()
        fleet.stop()


def test_http_aggregations_mapping_stats(built, ray_session):
    """/_search aggregations (terms + stats) agree across backends and
    against the library facet; /_mapping and /_stats expose the
    manifest surface."""
    from docs_indexer_ray.serve_http import SearchServer

    local = SearchServer(built, backend="local").start()
    fleet = SearchServer(built, backend="sharded", n_shards=3).start()
    try:
        p = dict(q="node pools quota", k=2, agg_terms="lang",
                 agg_stats="warc_ts")
        _, a = _get(local.port, "/_search", **p)
        _, b = _get(fleet.port, "/_search", **p)
        assert a["aggregations"] == b["aggregations"]
        buckets = a["aggregations"]["lang"]["buckets"]
        assert buckets and all({"key", "doc_count"} == set(x) for x in buckets)
        st = a["aggregations"]["warc_ts"]
        assert st["count"] == sum(x["doc_count"] for x in buckets)
        assert st["min"] <= st["avg"] <= st["max"]

        # library-facet oracle for the bucket counts
        import numpy as np

        from docs_indexer_ray.functions.analyzer import Analyzer
        from docs_indexer_ray.query.facets import match_doc_ids
        from docs_indexer_ray.query.reader import IndexReader

        reader = IndexReader(built)
        matched = match_doc_ids(reader, Analyzer("simple")("node pools quota"))
        assert st["count"] == len(matched)

        _, mapping = _get(local.port, "/_mapping")
        props = mapping["mappings"]["properties"]
        assert props["body"] == {"type": "text", "analyzer": "simple"}
        assert props["warc_ts"]["type"] == "date"
        assert props["url"]["type"] == "keyword"
        assert mapping["settings"]["store_positions"] is True

        _, stats = _get(local.port, "/_stats")
        assert stats["docs"] == {"count": 80, "deleted": 0}
        assert stats["avgdl"] > 0
    finally:
        local.stop()
        fleet.stop()


def test_http_request_cache_invalidated_by_writes(built, ray_session, tmp_path):
    """Repeated GETs hit the response cache; any write clears it so
    reads never serve stale results."""
    import shutil

    from docs_indexer_ray.serve_http import SearchServer

    root = str(tmp_path / "cidx")
    shutil.copytree(built, root)
    srv = SearchServer(root, backend="local").start()
    try:
        _, first = _get(srv.port, "/_count", q="cachetest")
        assert first["count"] == 0
        assert len(srv._cache) >= 1
        _, again = _get(srv.port, "/_count", q="cachetest")
        assert again == first  # served from cache (identical body)

        # a bulk write invalidates: the same GET now sees the new doc
        body = (
            json.dumps({"index": {}}) + "\n" +
            json.dumps({"url": "https://docs.test/new/c1/",
                        "html": "<html><body><p>cachetest doc</p></body></html>",
                        "warc_ts": 1_800_000_000_000_000}) + "\n"
        ).encode()
        with urllib.request.urlopen(urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_bulk", data=body, method="POST"
        )):
            pass
        _, after = _get(srv.port, "/_count", q="cachetest")
        assert after["count"] == 1
    finally:
        srv.stop()


def test_http_snapshot_restore(built, ray_session, tmp_path):
    """POST /_snapshot then a destructive delete then POST /_restore:
    the pre-snapshot result set comes back."""
    import shutil

    from docs_indexer_ray.serve_http import SearchServer

    root = str(tmp_path / "snidx")
    shutil.copytree(built, root)
    snaps = str(tmp_path / "snaps")
    srv = SearchServer(root, backend="local").start()
    try:
        _, before = _get(srv.port, "/_count", q="node")
        assert before["count"] > 0

        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_snapshot?"
            + urllib.parse.urlencode({"dir": snaps, "name": "s1"}),
            data=b"", method="POST",
        )
        with urllib.request.urlopen(req) as r:
            snap = json.loads(r.read())
        assert snap["accepted"]

        with urllib.request.urlopen(urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_delete_by_query?q=node",
            data=b"", method="POST",
        )) as r:
            assert json.loads(r.read())["deleted"] == before["count"]
        _, gone = _get(srv.port, "/_count", q="node")
        assert gone["count"] == 0

        with urllib.request.urlopen(urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_restore?"
            + urllib.parse.urlencode({"snapshot": snap["snapshot"], "force": 1}),
            data=b"", method="POST",
        )) as r:
            assert json.loads(r.read())["accepted"]
        _, back = _get(srv.port, "/_count", q="node")
        assert back == before
    finally:
        srv.stop()


def test_http_aggregations_follow_query_syntax(built, ray_session):
    """With syntax=1, /_search aggregations bucket the QUERY's match
    set (must/must_not semantics), not match-any — identical across
    backends and sized by the syntax /_count."""
    from docs_indexer_ray.serve_http import SearchServer

    local = SearchServer(built, backend="local").start()
    fleet = SearchServer(built, backend="sharded", n_shards=3).start()
    try:
        p = dict(q='node AND pools', syntax=1, k=1, agg_terms="lang",
                 agg_stats="warc_ts")
        _, a = _get(local.port, "/_search", **p)
        _, b = _get(fleet.port, "/_search", **p)
        assert a["aggregations"] == b["aggregations"]
        _, n = _get(local.port, "/_count", q='node AND pools', syntax=1)
        assert a["aggregations"]["warc_ts"]["count"] == n["count"]
        total = sum(x["doc_count"] for x in a["aggregations"]["lang"]["buckets"])
        assert total == n["count"] > 0
        # and the syntax mask differs from match-any when must_not bites
        _, any_n = _get(local.port, "/_count", q="node pools")
        _, m = _get(local.port, "/_search", q="+node -pools", syntax=1,
                    agg_terms="lang")
        neg_total = sum(
            x["doc_count"] for x in m["aggregations"]["lang"]["buckets"]
        )
        assert neg_total < any_n["count"]
    finally:
        local.stop()
        fleet.stop()


def test_http_bulk_upsert_and_write_after_delete(built, ray_session, tmp_path):
    """``?upsert=1`` re-indexes seen urls and tombstones the superseded
    base ids (OpenSearch overwrite semantics); default bulk reports an
    honest ``noop`` for seen urls instead of a silent 201; and a bulk
    AFTER a delete_by_query still works (the merge carries tombstones
    forward instead of refusing)."""
    import shutil

    from docs_indexer_ray.serve_http import SearchServer

    root = str(tmp_path / "upidx")
    shutil.copytree(built, root)
    srv = SearchServer(root, backend="local").start()
    srv.drain_grace_s = 0.0  # no parked-fleet naps in tests
    try:
        def bulk(docs, upsert=False):
            lines = []
            for d in docs:
                lines.append(json.dumps({"index": {}}))
                lines.append(json.dumps(d))
            url = f"http://127.0.0.1:{srv.port}/_bulk"
            if upsert:
                url += "?upsert=1"
            req = urllib.request.Request(
                url, data=("\n".join(lines) + "\n").encode(), method="POST"
            )
            with urllib.request.urlopen(req) as r:
                return json.loads(r.read())

        a_v1 = {"url": "https://docs.test/up/a/", "warc_ts": 1,
                "html": "<html><body><p>aardwolf alpha</p></body></html>"}
        b_v1 = {"url": "https://docs.test/up/b/", "warc_ts": 2,
                "html": "<html><body><p>bumblebee basket</p></body></html>"}
        r1 = bulk([a_v1, b_v1])
        assert [it["index"]["result"] for it in r1["items"]] == [
            "created", "created"
        ]
        _, c = _get(srv.port, "/_count", q="aardwolf")
        assert c["count"] == 1

        # re-post without upsert: honest noop, nothing indexed
        r2 = bulk([a_v1])
        assert r2["items"][0]["index"] == {"status": 200, "result": "noop"}
        assert r2["n_docs"] == r1["n_docs"]

        # upsert a new version of A: old content vanishes, new serves
        a_v2 = {"url": "https://docs.test/up/a/", "warc_ts": 3,
                "html": "<html><body><p>aardwolf beta</p></body></html>"}
        r3 = bulk([a_v2], upsert=True)
        assert r3["items"][0]["index"]["result"] == "updated"
        _, alpha = _get(srv.port, "/_count", q="alpha")
        _, beta = _get(srv.port, "/_count", q="beta")
        _, aard = _get(srv.port, "/_count", q="aardwolf")
        assert alpha["count"] == 0 and beta["count"] == 1 and aard["count"] == 1
        _, s = _get(srv.port, "/_search", q="aardwolf", k=5, fields="url")
        assert [h["_source"]["url"] for h in s["hits"]["hits"]] == [a_v2["url"]]
        _, st = _get(srv.port, "/_stats")
        assert st["docs"]["deleted"] >= 1  # the superseded version

        # a write AFTER a delete keeps working (tombstones carried)
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_delete_by_query?q=bumblebee",
            data=b"", method="POST",
        )
        with urllib.request.urlopen(req) as r:
            assert json.loads(r.read())["deleted"] == 1
        c_v1 = {"url": "https://docs.test/up/c/", "warc_ts": 4,
                "html": "<html><body><p>cassowary creek</p></body></html>"}
        r4 = bulk([c_v1])
        assert r4["items"][0]["index"]["result"] == "created"
        _, bb = _get(srv.port, "/_count", q="bumblebee")
        _, cc = _get(srv.port, "/_count", q="cassowary")
        assert bb["count"] == 0 and cc["count"] == 1  # delete survived the merge
        _, beta2 = _get(srv.port, "/_count", q="beta")
        assert beta2["count"] == 1  # upsert's tombstone survived too
    finally:
        srv.stop()


def test_http_msearch_json_native_params(built, ray_session):
    """_msearch accepts JSON-native param forms: list-valued fields,
    boolean syntax — no str() mangling, no case folding of names."""
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(built, backend="local").start()
    try:
        lines = [
            json.dumps({"q": "node pools", "k": 2,
                        "fields": ["url", "title"]}),
            json.dumps({"q": "+node -quota", "k": 3, "syntax": True}),
        ]
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_msearch",
            data=("\n".join(lines) + "\n").encode(),
            method="POST",
        )
        with urllib.request.urlopen(req) as r:
            rs = json.loads(r.read())["responses"]
        assert set(rs[0]["hits"]["hits"][0]["_source"]) == {"url", "title"}
        # the boolean syntax flag really engaged the query_string path
        _, single = _get(srv.port, "/_search", q="+node -quota", k=3, syntax=1)
        assert rs[1]["hits"]["hits"] == single["hits"]["hits"]
    finally:
        srv.stop()


def test_http_reindex_after_delete_default_mode(built, ray_session, tmp_path):
    """A deleted url is re-indexable via plain /_bulk (no upsert): the
    seen set and base_url_filter skip tombstoned docs, so the doc
    comes back instead of a permanent 200/noop ghost."""
    import shutil

    from docs_indexer_ray.serve_http import SearchServer

    root = str(tmp_path / "reidx")
    shutil.copytree(built, root)
    srv = SearchServer(root, backend="local").start()
    try:
        lines = [
            json.dumps({"index": {}}),
            json.dumps({
                "url": "https://docs.test/new/okapi-0/",
                "html": "<html><body><p>okapi stripes rare</p></body></html>",
                "warc_ts": 1_800_000_000_000_000,
            }),
        ]
        body = ("\n".join(lines) + "\n").encode()

        def post(path, data=b""):
            req = urllib.request.Request(
                f"http://127.0.0.1:{srv.port}{path}", data=data, method="POST"
            )
            with urllib.request.urlopen(req) as r:
                return json.loads(r.read())

        first = post("/_bulk", body)
        assert first["items"][0]["index"]["status"] == 201
        assert _get(srv.port, "/_count", q="okapi")[1]["count"] == 1

        assert post("/_delete_by_query?q=okapi")["deleted"] == 1
        assert _get(srv.port, "/_count", q="okapi")[1]["count"] == 0

        # default-mode re-index of the SAME url must create, not noop
        again = post("/_bulk", body)
        assert again["items"][0]["index"]["status"] == 201
        assert _get(srv.port, "/_count", q="okapi")[1]["count"] == 1
    finally:
        srv.stop()


def test_http_doc_and_explain_tombstone_aware(built, ray_session, tmp_path):
    """/_doc reports found:false and /_explain matched:false for a
    tombstoned doc — consistent with /_search and /_stats."""
    import shutil

    from docs_indexer_ray.serve_http import SearchServer

    root = str(tmp_path / "tombidx")
    shutil.copytree(built, root)
    srv = SearchServer(root, backend="local").start()
    try:
        _, s = _get(srv.port, "/_search", q="node", k=1, fields="url")
        doc_id = s["hits"]["hits"][0]["_id"]
        _, d = _get(srv.port, "/_doc", id=doc_id)
        assert d["found"] is True

        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_delete_by_query?q=node",
            data=b"", method="POST",
        )
        with urllib.request.urlopen(req) as r:
            assert json.loads(r.read())["deleted"] > 0

        _, d = _get(srv.port, "/_doc", id=doc_id)
        assert d["found"] is False
        _, e = _get(srv.port, "/_explain", id=doc_id, q="node")
        assert e["matched"] is False and e["explanation"]["details"] == []
    finally:
        srv.stop()


def test_query_phase_pins_to_search_and_count(built, ray_session):
    """query_phase + fetch_phase ≡ (search, count) — page, table and
    total identical to the separate calls, both modes."""
    from docs_indexer_ray.query.served import ShardedQueryService, page_rank

    svc = ShardedQueryService(built, n_shards=3, chain="simple")
    try:
        for q, syntax in (("node pools", False), ("+node -quota", True)):
            page, total, _ = svc.query_phase(q, syntax, rank=page_rank(5))
            t = svc.fetch_phase(page, q, ("url",), None, 160, syntax)
            want = svc.search(q, k=5, fields=("url",), syntax=syntax)
            assert t.to_pylist() == want.to_pylist()
            assert total == svc.query_phase(q, syntax)[1]
    finally:
        svc.shutdown()


def test_http_point_in_time(built, ray_session, tmp_path):
    """POST /_pit pins the current build: searches carrying the pit id
    keep seeing the PRE-write corpus after a /_bulk swaps the backend
    (OpenSearch PIT), compose with search_after for deep pagination,
    and 404 once deleted or expired."""
    import shutil

    from docs_indexer_ray.serve_http import SearchServer

    root = str(tmp_path / "pitidx")
    shutil.copytree(built, root)
    srv = SearchServer(root, backend="local").start()

    def post(path, body=None):
        data = b"" if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}{path}", data=data, method="POST"
        )
        try:
            with urllib.request.urlopen(req) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    try:
        code, pit = post("/_pit?keep_alive=5m")
        assert code == 200 and pit["pit_id"].startswith("pit-")
        pid = pit["pit_id"]
        _, before = _get(srv.port, "/_count", q="page")
        n_before = before["count"]

        # write: one bulk doc that matches the query
        lines = [json.dumps({"index": {}}), json.dumps({
            "url": "https://docs.test/new/pitpage/",
            "html": "<html><body><p>page page page</p></body></html>",
            "warc_ts": 1_800_000_000_000_000,
        })]
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_bulk",
            data=("\n".join(lines) + "\n").encode(), method="POST",
        )
        with urllib.request.urlopen(req) as r:
            assert json.loads(r.read())["errors"] is False

        # live search sees the new doc; the PIT search does not
        _, live = post("/_search", {"query": {"match": {"body": "page"}},
                                    "size": 1})
        assert live["hits"]["total"]["value"] == n_before + 1
        code, pinned = post("/_search", {
            "query": {"match": {"body": "page"}}, "size": 5,
            "pit": {"id": pid, "keep_alive": "5m"},
        })
        assert code == 200
        assert pinned["hits"]["total"]["value"] == n_before
        assert pinned["pit_id"] == pid
        assert all(
            "pitpage" not in h["_source"]["url"]
            for h in pinned["hits"]["hits"]
        )

        # pit + search_after pages the pinned build statelessly
        page1 = post("/_search", {
            "query": {"match": {"body": "page"}}, "size": 3,
            "pit": {"id": pid},
        })[1]["hits"]["hits"]
        page2 = post("/_search", {
            "query": {"match": {"body": "page"}}, "size": 3,
            "pit": {"id": pid}, "search_after": page1[-1]["sort"],
        })[1]["hits"]["hits"]
        flat = post("/_search", {
            "query": {"match": {"body": "page"}}, "size": 6,
            "pit": {"id": pid},
        })[1]["hits"]["hits"]
        assert [h["_id"] for h in page1 + page2] == [h["_id"] for h in flat]

        # pit + scroll refused; malformed pit refused
        code, _ = post("/_search", {"query": {"match_all": {}},
                                    "pit": {"id": pid}, "scroll": "1m"})
        assert code == 400
        code, _ = post("/_search", {"query": {"match_all": {}},
                                    "pit": "bare-string"})
        assert code == 400

        # delete → 404 afterwards, unknown id → 404
        code, out = post("/_pit/delete", {"pit_id": pid})
        assert code == 200 and out["pits"][0]["successful"] is True
        code, out = post("/_search", {"query": {"match_all": {}},
                                      "pit": {"id": pid}})
        assert code == 404
        assert out["error"]["type"] == "search_context_missing"
        code, out = post("/_pit/delete", {"pit_id": ["nope"]})
        assert out["pits"][0]["successful"] is False

        # expiry: a 0s pit is gone by its next use
        _, pit0 = post("/_pit?keep_alive=0s")
        import time as _t

        _t.sleep(0.01)
        code, _ = post("/_search", {"query": {"match_all": {}},
                                    "pit": {"id": pit0["pit_id"]}})
        assert code == 404
    finally:
        srv.stop()


def test_http_concurrent_reads_during_writes(built, ray_session, tmp_path):
    """Reads keep flowing — and never 5xx — while bulk writes swap the
    backend underneath them: hammer /_search (GET + DSL POST + pit)
    from threads across two /_bulk updates and a delete_by_query.
    Every response must be 200 and internally consistent (hits ≤
    total, one build per response)."""
    import shutil
    import threading

    from docs_indexer_ray.serve_http import SearchServer

    root = str(tmp_path / "ccidx")
    shutil.copytree(built, root)
    srv = SearchServer(root, backend="local").start()
    srv.drain_grace_s = 0.0  # keep the test fast; parking still happens

    def post(path, body):
        data = json.dumps(body).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}{path}", data=data, method="POST"
        )
        with urllib.request.urlopen(req) as r:
            return r.status, json.loads(r.read())

    errors: list = []
    stop = threading.Event()

    def reader_loop(kind: int):
        try:
            while not stop.is_set():
                if kind == 0:
                    code, out = _get(srv.port, "/_search", q="page", k=5)
                elif kind == 1:
                    code, out = post("/_search", {
                        "query": {"bool": {
                            "must": [{"match": {"body": "page"}}],
                            "should": [{"match_phrase": {"body": "node pools"}}],
                        }}, "size": 5})
                else:
                    code, out = _get(srv.port, "/_count", q="page")
                if code != 200:
                    errors.append((kind, code, out))
                    return
                if "hits" in out:
                    h = out["hits"]
                    if len(h["hits"]) > h["total"]["value"]:
                        errors.append((kind, "hits>total", out))
                        return
        except Exception as e:  # pragma: no cover - fail loudly below
            errors.append((kind, type(e).__name__, str(e)))

    try:
        _, pit = post("/_pit?keep_alive=5m", {})
        n0 = _get(srv.port, "/_count", q="page")[1]["count"]
        threads = [threading.Thread(target=reader_loop, args=(i % 3,))
                   for i in range(6)]
        for t in threads:
            t.start()
        # two bulk rounds + one delete while reads hammer
        for r in range(2):
            lines = []
            for i in range(2):
                lines.append(json.dumps({"index": {}}))
                lines.append(json.dumps({
                    "url": f"https://docs.test/cc/p{r}-{i}/",
                    "html": f"<html><body><p>page surge {r} {i}</p></body></html>",
                    "warc_ts": 1_800_000_000_000_000 + r * 10 + i,
                }))
            req = urllib.request.Request(
                f"http://127.0.0.1:{srv.port}/_bulk",
                data=("\n".join(lines) + "\n").encode(), method="POST",
            )
            with urllib.request.urlopen(req) as resp:
                assert json.loads(resp.read())["errors"] is False
        assert _get(srv.port, "/_count", q="page")[1]["count"] == n0 + 4
        # delete tombstones all four new docs (they all say "surge")
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/_delete_by_query?q=surge",
            data=b"", method="POST",
        )
        with urllib.request.urlopen(req) as resp:
            assert json.loads(resp.read())["deleted"] == 4
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors[:3]
        # final state: the delete took the 4 bulk docs back out,
        # and the PIT still serves the pre-write build
        assert _get(srv.port, "/_count", q="page")[1]["count"] == n0
        assert _get(srv.port, "/_count", q="surge")[1]["count"] == 0
        code, pinned = post("/_search", {
            "query": {"match": {"body": "page"}}, "size": 1,
            "pit": {"id": pit["pit_id"]}})
        assert code == 200 and pinned["hits"]["total"]["value"] == n0
    finally:
        stop.set()
        srv.stop()


def test_pit_ids_unique_per_open(built, ray_session, tmp_path):
    """Two PITs opened on the SAME build get distinct ids: one
    client's keep_alive or delete can't clobber the other's context."""
    import shutil

    from docs_indexer_ray.serve_http import SearchServer

    root = str(tmp_path / "pituniq")
    shutil.copytree(built, root)
    srv = SearchServer(root, backend="local").start()

    def post(path, body=None):
        data = b"" if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}{path}", data=data, method="POST"
        )
        try:
            with urllib.request.urlopen(req) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    try:
        _, a = post("/_pit?keep_alive=5m")
        _, b = post("/_pit?keep_alive=5m")
        assert a["pit_id"] != b["pit_id"]
        # deleting B leaves A serving
        _, out = post("/_pit/delete", {"pit_id": b["pit_id"]})
        assert out["pits"][0]["successful"] is True
        code, res = post("/_search", {"query": {"match_all": {}},
                                      "size": 1, "pit": {"id": a["pit_id"]}})
        assert code == 200 and res["pit_id"] == a["pit_id"]
        code, _ = post("/_search", {"query": {"match_all": {}},
                                    "pit": {"id": b["pit_id"]}})
        assert code == 404
    finally:
        srv.stop()
