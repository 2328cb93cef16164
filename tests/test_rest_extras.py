"""REST completeness round: stateless scroll, _mget, _field_caps,
_validate/query (serve_http.py)."""

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest


@pytest.fixture(scope="module")
def root(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("restidx") / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(90, dup_every=0)),
        root,
        fingerprint="rest",
        num_parts=4,
        chain="simple",
        field="body",
    )
    return root


def _req(port, path, body=None, method=None, **params):
    url = f"http://127.0.0.1:{port}{path}"
    if params:
        url += "?" + urllib.parse.urlencode(params)
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_scroll_walk_and_invalidation(root, ray_session):
    from docs_indexer_ray.serve_http import SearchServer

    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            # the reference ranking in one unpaged request
            code, big = _req(srv.port, "/_search", q="node", size=500)
            want = [h["_id"] for h in big["hits"]["hits"]]
            assert len(want) > 14

            # scroll through in pages of 7 — ids concatenate exactly
            code, page = _req(srv.port, "/_search", q="node", size=7,
                              scroll="1m")
            assert code == 200 and "_scroll_id" in page
            seen = [h["_id"] for h in page["hits"]["hits"]]
            sid = page["_scroll_id"]
            while True:
                code, page = _req(srv.port, "/_search/scroll",
                                  body={"scroll_id": sid})
                assert code == 200, page
                hits = page["hits"]["hits"]
                if not hits:
                    break
                seen += [h["_id"] for h in hits]
                sid = page["_scroll_id"]
            assert seen == want
            # the terminal page keeps returning empty (stable id)
            code, again = _req(srv.port, "/_search/scroll",
                               body={"scroll_id": sid})
            assert code == 200 and again["hits"]["hits"] == []

            # SORTED scroll: field order pages concatenate too
            code, page = _req(srv.port, "/_search", q="node", size=9,
                              scroll="1m", sort="warc_ts:desc")
            ssorted = [h["_id"] for h in page["hits"]["hits"]]
            sid = page["_scroll_id"]
            while True:
                code, page = _req(srv.port, "/_search/scroll",
                                  body={"scroll_id": sid})
                hits = page["hits"]["hits"]
                if not hits:
                    break
                ssorted += [h["_id"] for h in hits]
                sid = page["_scroll_id"]
            code, ref = _req(srv.port, "/_search", q="node", size=500,
                             sort="warc_ts:desc")
            assert ssorted == [h["_id"] for h in ref["hits"]["hits"]]

            # malformed id → 400; id from BEFORE a write → context gone
            code, err = _req(srv.port, "/_search/scroll",
                             body={"scroll_id": "not-base64!!"})
            assert code == 400
            code, live = _req(srv.port, "/_search", q="node", size=3,
                              scroll="1m")
            nd = (
                json.dumps({"index": {}}) + "\n"
                + json.dumps({
                    "url": f"https://docs.test/new-scroll-page-{backend}/",
                    "text": "node scroll invalidation page",
                }) + "\n"
            )
            req = urllib.request.Request(
                f"http://127.0.0.1:{srv.port}/_bulk",
                data=nd.encode(), method="POST",
            )
            with urllib.request.urlopen(req) as r:
                assert json.loads(r.read())["errors"] is False
            code, err = _req(srv.port, "/_search/scroll",
                             body={"scroll_id": live["_scroll_id"]})
            assert code == 400
            assert "search_context_missing" in err["error"]["reason"]

            # scroll + from are mutually exclusive
            code, err = _req(srv.port, "/_search", q="node", size=3,
                             scroll="1m", **{"from": "2"})
            assert code == 400
        finally:
            srv.stop()


def test_mget_field_caps_validate(root, ray_session):
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="local").start()
    try:
        code, r = _req(srv.port, "/_mget",
                       body={"ids": [5, 2, 999999, 5],
                             "_source": ["url", "warc_ts"]})
        assert code == 200
        assert [d["_id"] for d in r["docs"]] == [5, 2, 999999, 5]
        assert [d["found"] for d in r["docs"]] == [True, True, False, True]
        assert r["docs"][0]["_source"]["url"].startswith("http")
        assert "T" in r["docs"][0]["_source"]["warc_ts"]  # ISO timestamp
        # duplicate ids fetch once, answer twice
        assert r["docs"][0]["_source"] == r["docs"][3]["_source"]
        code, err = _req(srv.port, "/_mget", body={"ids": []})
        assert code == 400

        code, fc = _req(srv.port, "/_field_caps")
        assert code == 200
        assert fc["fields"]["body"]["text"]["searchable"] is True
        assert fc["fields"]["body"]["text"]["aggregatable"] is False
        assert fc["fields"]["warc_ts"]["date"]["aggregatable"] is True

        code, v = _req(srv.port, "/_validate/query",
                       body={"query": {"match": {"body": "node pools"}}})
        assert code == 200 and v == {"valid": True}
        code, v = _req(srv.port, "/_validate/query",
                       body={"query": {"intervals": {"body": "x"}}})
        assert code == 200 and v["valid"] is False
        assert v["error"]["type"] == "DslError"
        code, v = _req(srv.port, "/_validate/query",
                       body={"query": {"query_string": {"query": "(a OR"}}})
        assert code == 200 and v["valid"] is False
        code, err = _req(srv.port, "/_validate/query", body={})
        assert code == 400
    finally:
        srv.stop()


def test_extra_aggregations_both_backends(root, ray_session):
    """Body-only aggs (date_histogram / histogram / range / cardinality
    / percentiles): identical across backends, and every number checked
    against a brute-force pass over the raw docs store."""
    import datetime as dt
    import math
    import os

    import numpy as np
    import pyarrow.dataset as pads

    from docs_indexer_ray.serve_http import SearchServer

    body = {
        "query": {"match": {"body": "node"}},
        "size": 0,
        "aggs": {
            "per_minute": {"date_histogram": {"field": "warc_ts",
                                              "fixed_interval": "60s"}},
            "per_month": {"date_histogram": {"field": "warc_ts",
                                             "calendar_interval": "month"}},
            "ts_hist": {"histogram": {"field": "doc_id", "interval": 16}},
            "bands": {"range": {"field": "doc_id",
                                "ranges": [{"to": 30},
                                           {"from": 30, "to": 60},
                                           {"from": 60}]}},
            "n_urls": {"cardinality": {"field": "url"}},
            "id_pcts": {"percentiles": {"field": "doc_id",
                                        "percents": [25, 50, 75]}},
        },
    }
    results = {}
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            code, r = _req(srv.port, "/_search", body=body)
            assert code == 200, r
            results[backend] = r["aggregations"]
        finally:
            srv.stop()
    assert results["local"] == results["sharded"]
    aggs = results["local"]

    # brute force over the raw docs store
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(root)
    matched = set(
        int(d) for d in match_doc_ids(reader, Analyzer(reader.chain)(["node"][0]))
    )
    docs = pads.dataset(
        os.path.join(reader.index_dir, "docs"), partitioning="hive"
    ).to_table(columns=["doc_id", "warc_ts", "url"])
    rows = [
        (int(d), t, u)
        for d, t, u in zip(docs["doc_id"].to_pylist(),
                           docs["warc_ts"].to_pylist(),
                           docs["url"].to_pylist())
        if int(d) in matched
    ]
    assert rows

    # date_histogram: minute buckets, epoch-ms keys, ISO key_as_string
    want_dh = {}
    for _, t, _ in rows:
        b = int(t.timestamp() // 60) * 60
        want_dh[b] = want_dh.get(b, 0) + 1
    got_dh = {b["key"] // 1000: b["doc_count"]
              for b in aggs["per_minute"]["buckets"]}
    assert got_dh == want_dh
    first = aggs["per_minute"]["buckets"][0]
    assert first["key_as_string"] == dt.datetime.utcfromtimestamp(
        first["key"] // 1000
    ).isoformat()
    assert [b["key"] for b in aggs["per_minute"]["buckets"]] == sorted(
        b["key"] for b in aggs["per_minute"]["buckets"]
    )

    # calendar date_histogram: month buckets keyed by the CIVIL month
    # start (date_trunc semantics), not an epoch division
    want_m = {}
    for _, t, _ in rows:
        start = dt.datetime(t.year, t.month, 1, tzinfo=dt.timezone.utc)
        b = int(start.timestamp())
        want_m[b] = want_m.get(b, 0) + 1
    got_m = {b["key"] // 1000: b["doc_count"]
             for b in aggs["per_month"]["buckets"]}
    assert got_m == want_m
    mfirst = aggs["per_month"]["buckets"][0]
    assert mfirst["key_as_string"].endswith("-01T00:00:00")

    # histogram on doc_id, interval 16 (lower-edge keys)
    want_h = {}
    for d, _, _ in rows:
        k = (d // 16) * 16
        want_h[k] = want_h.get(k, 0) + 1
    assert {int(b["key"]): b["doc_count"]
            for b in aggs["ts_hist"]["buckets"]} == want_h

    # range: explicit bands, open edges omitted from the echo
    b0, b1, b2 = aggs["bands"]["buckets"]
    assert "from" not in b0 and b0["to"] == 30.0
    assert b1 == {"doc_count": sum(1 for d, _, _ in rows if 30 <= d < 60),
                  "from": 30.0, "to": 60.0}
    assert b0["doc_count"] == sum(1 for d, _, _ in rows if d < 30)
    assert "to" not in b2
    assert b2["doc_count"] == sum(1 for d, _, _ in rows if d >= 60)

    # cardinality (exact) + percentiles (quantile_cont rule)
    assert aggs["n_urls"]["value"] == len({u for _, _, u in rows})
    ids = np.sort(np.array([d for d, _, _ in rows], float))
    for pct in (25, 50, 75):
        want = float(np.quantile(ids, pct / 100.0, method="linear"))
        assert math.isclose(aggs["id_pcts"]["values"][f"{float(pct)}"],
                            want, rel_tol=0, abs_tol=1e-9)

    # unknown interval specs still refuse loudly (calendar month /
    # quarter / year are SUPPORTED now — asserted above)
    bad = {"query": {"match": {"body": "node"}},
           "aggs": {"m": {"date_histogram": {"field": "warc_ts",
                                             "calendar_interval": "fortnight"}}}}
    srv = SearchServer(root, backend="local").start()
    try:
        code, err = _req(srv.port, "/_search", body=bad)
        assert code == 400 and "fixed-width" in err["error"]["reason"]
    finally:
        srv.stop()


def test_pipeline_aggs_envelope_both_backends(root, ray_session):
    """date_histogram + sum metric + parent pipelines (cumulative_sum
    / derivative / serial_diff) and sibling *_bucket aggs through
    /_search bodies: identical across backends, every value checked
    against a brute-force pass; sibling-before-parent body order
    works; malformed buckets_path 400s."""
    import os

    import pyarrow.dataset as pads

    from docs_indexer_ray.serve_http import SearchServer

    body = {
        "query": {"match": {"body": "node"}},
        "size": 0,
        "aggs": {
            # sibling FIRST — order must not matter
            "avg_m": {"avg_bucket": {"buckets_path": "per_min>ids"}},
            "max_m": {"max_bucket": {"buckets_path": "per_min>ids"}},
            "stats_m": {"stats_bucket": {"buckets_path": "per_min>ids"}},
            "pcts_m": {"percentiles_bucket": {"buckets_path": "per_min>ids",
                                              "percents": [50.0, 90.0]}},
            "ext_m": {"extended_stats_bucket": {"buckets_path": "per_min>ids"}},
            # one doc per second bucket: docpart sums tie at the min
            "min_p": {"min_bucket": {"buckets_path": "per_sec>parts"}},
            "per_sec": {
                "date_histogram": {"field": "warc_ts", "fixed_interval": "1s"},
                "aggs": {"parts": {"sum": {"field": "docpart"}}},
            },
            "per_min": {
                "date_histogram": {"field": "warc_ts",
                                   "fixed_interval": "60s"},
                "aggs": {
                    "ids": {"sum": {"field": "doc_id"}},
                    "cum": {"cumulative_sum": {"buckets_path": "ids"}},
                    "rate": {"derivative": {"buckets_path": "ids"}},
                    "sdiff": {"serial_diff": {"buckets_path": "ids",
                                              "lag": 2}},
                    "mov": {"moving_fn": {
                        "buckets_path": "ids", "window": 3,
                        "script": "MovingFunctions.unweightedAvg(values)",
                    }},
                },
            },
        },
    }
    results = {}
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            code, r = _req(srv.port, "/_search", body=body)
            assert code == 200, r
            results[backend] = r["aggregations"]
        finally:
            srv.stop()
    assert results["local"] == results["sharded"]
    aggs = results["local"]

    # brute force: matched docs' (minute bucket, doc_id)
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(root)
    matched = set(
        int(d) for d in match_doc_ids(reader, Analyzer(reader.chain)("node"))
    )
    docs = pads.dataset(
        os.path.join(reader.index_dir, "docs"), partitioning="hive"
    ).to_table(columns=["doc_id", "warc_ts", "docpart"])
    import datetime as _dtz

    per, per_sec = {}, {}
    for d, t, part in zip(docs["doc_id"].to_pylist(),
                          docs["warc_ts"].to_pylist(),
                          docs["docpart"].to_pylist()):
        if int(d) in matched:
            ep = t.replace(tzinfo=_dtz.timezone.utc).timestamp()
            b = int(ep // 60) * 60
            n, s = per.get(b, (0, 0))
            per[b] = (n + 1, s + int(d))
            per_sec[t.isoformat()] = per_sec.get(t.isoformat(), 0) + int(part)
    want = [(k, per[k]) for k in sorted(per)]
    got = aggs["per_min"]["buckets"]
    assert [g["key"] // 1000 for g in got] == [k for k, _ in want]
    assert [g["doc_count"] for g in got] == [n for _, (n, _) in want]
    sums = [float(s) for _, (_, s) in want]
    assert [g["ids"]["value"] for g in got] == sums
    # parent pipelines
    cum = 0.0
    for i, g in enumerate(got):
        cum += sums[i]
        assert g["cum"]["value"] == cum
        if i == 0:
            assert "rate" not in g
        else:
            assert g["rate"]["value"] == sums[i] - sums[i - 1]
        if i < 2:
            assert "sdiff" not in g
        else:
            assert g["sdiff"]["value"] == sums[i] - sums[i - 2]
        lo_i = max(0, i - 2)
        assert g["mov"]["value"] == sum(sums[lo_i:i + 1]) / (i - lo_i + 1)
    # siblings
    assert aggs["avg_m"]["value"] == sum(sums) / len(sums)
    mx = max(sums)
    assert aggs["max_m"]["value"] == mx
    assert aggs["max_m"]["keys"] == [
        g["key_as_string"] for g, s in zip(got, sums) if s == mx
    ]
    mn = min(per_sec.values())
    tied = sorted(k for k, v in per_sec.items() if v == mn)
    assert len(tied) > 1
    assert aggs["min_p"] == {"value": float(mn), "keys": tied}
    assert aggs["stats_m"] == {
        "count": len(sums), "min": min(sums), "max": mx,
        "sum": sum(sums), "avg": sum(sums) / len(sums),
    }
    import numpy as np

    med = float(np.quantile(np.sort(np.array(sums)), 0.5, method="linear"))
    assert abs(aggs["pcts_m"]["values"]["50.0"] - med) < 1e-9
    n_b, s_b = len(sums), sum(sums)
    ss = sum(x * x for x in sums)
    assert aggs["ext_m"]["count"] == n_b
    assert abs(aggs["ext_m"]["variance"] - (ss / n_b - (s_b / n_b) ** 2)) < 1e-6

    # malformed buckets_path → clean 400
    bad = {"query": {"match": {"body": "node"}},
           "aggs": {"a": {"avg_bucket": {"buckets_path": "nope"}}}}
    srv = SearchServer(root, backend="local").start()
    try:
        code, err = _req(srv.port, "/_search", body=bad)
        assert code == 400 and "parent>metric" in err["error"]["reason"]
        bad2 = {"query": {"match": {"body": "node"}},
                "aggs": {"a": {"avg_bucket": {"buckets_path": "x>ids"}}}}
        code, err = _req(srv.port, "/_search", body=bad2)
        assert code == 400 and "not a bucket aggregation" in err["error"]["reason"]
    finally:
        srv.stop()


def test_highlight_options_and_suggest_body(root, ray_session):
    """highlight pre/post tags + fragment_size map through both
    backends; a body 'suggest' rides the search response (the
    /_suggest machinery, OpenSearch envelope)."""
    from docs_indexer_ray.serve_http import SearchServer

    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            body = {
                "query": {"match": {"body": "node"}},
                "size": 2,
                "highlight": {"fields": {"body": {"fragment_size": 60}},
                              "pre_tags": ["<b>"], "post_tags": ["</b>"]},
            }
            code, r = _req(srv.port, "/_search", body=body)
            assert code == 200, r
            snip = r["hits"]["hits"][0]["highlight"]["body"][0]
            assert "<b>" in snip and "</b>" in snip and "<em>" not in snip
            # fragment_size bounds the UNMARKED text length
            bare = snip.replace("<b>", "").replace("</b>", "")
            assert len(bare) <= 60 + 20  # width + boundary slack
            # default tags unchanged
            code, r2 = _req(srv.port, "/_search",
                            body={"query": body["query"], "size": 1,
                                  "highlight": {"fields": {"body": {}}}})
            assert "<em>" in r2["hits"]["hits"][0]["highlight"]["body"][0]
        finally:
            srv.stop()

    srv = SearchServer(root, backend="local").start()
    try:
        body = {"query": {"match": {"body": "node"}}, "size": 1,
                "suggest": {"fix": {"text": "nodde",
                                    "term": {"field": "body", "size": 2}}}}
        code, r = _req(srv.port, "/_search", body=body)
        assert code == 200, r
        opts = r["suggest"]["fix"][0]["options"]
        assert opts and opts[0]["text"] == "node"
        code, err = _req(srv.port, "/_search",
                         body={"query": body["query"],
                               "suggest": {"bad": {"term": {}}}})
        assert code == 400
    finally:
        srv.stop()


def test_nested_terms_stats_agg(root, ray_session):
    """terms bucket + stats sub-agg through /_search bodies: identical
    across backends and equal to a brute-force per-bucket fold."""
    import os

    import pyarrow.dataset as pads

    from docs_indexer_ray.serve_http import SearchServer

    body = {
        "query": {"match": {"body": "node"}},
        "size": 0,
        "aggs": {"by_lang": {
            "terms": {"field": "lang", "size": 5},
            "aggs": {"ids": {"stats": {"field": "doc_id"}}},
        }},
    }
    results = {}
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            code, r = _req(srv.port, "/_search", body=body)
            assert code == 200, r
            results[backend] = r["aggregations"]["by_lang"]["buckets"]
        finally:
            srv.stop()
    assert results["local"] == results["sharded"]
    buckets = results["local"]
    assert buckets

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(root)
    matched = set(
        int(d) for d in match_doc_ids(reader, Analyzer(reader.chain)("node"))
    )
    docs = pads.dataset(
        os.path.join(reader.index_dir, "docs"), partitioning="hive"
    ).to_table(columns=["doc_id", "lang"])
    per = {}
    for d, lg in zip(docs["doc_id"].to_pylist(), docs["lang"].to_pylist()):
        if int(d) in matched:
            per.setdefault(lg, []).append(int(d))
    for b in buckets:
        ids = per[b["key"]]
        assert b["doc_count"] == len(ids)
        s = b["ids"]
        assert s["min"] == min(ids) and s["max"] == max(ids)
        assert s["sum"] == float(sum(ids))
        assert s["avg"] == sum(ids) / len(ids)
    assert {b["key"] for b in buckets} == set(per)

    # single-metric sub-aggs (avg/sum/min/max) lower onto the same
    # terms_stats partial; the renderer projects {value: …}
    for metric, fold in (("avg", lambda x: sum(x) / len(x)),
                         ("sum", lambda x: float(sum(x))),
                         ("min", lambda x: float(min(x))),
                         ("max", lambda x: float(max(x)))):
        mb = {
            "query": {"match": {"body": "node"}},
            "size": 0,
            "aggs": {"by_lang": {
                "terms": {"field": "lang", "size": 5},
                "aggs": {"m": {metric: {"field": "doc_id"}}},
            }},
        }
        srv = SearchServer(root, backend="local").start()
        try:
            code, r = _req(srv.port, "/_search", body=mb)
            assert code == 200, r
            for b in r["aggregations"]["by_lang"]["buckets"]:
                assert b["m"] == {"value": fold(per[b["key"]])}, (metric, b)
        finally:
            srv.stop()


def test_terms_top_hits_agg(root, ray_session):
    """terms → top_hits sub-agg: per bucket the k best docs by one
    sort field (doc-id tie-break in the sort direction), identical
    across backends and equal to a brute-force per-bucket sort."""
    import os

    import pyarrow.dataset as pads

    from docs_indexer_ray.serve_http import SearchServer

    body = {
        "query": {"match": {"body": "node"}},
        "size": 0,
        "aggs": {"by_lang": {
            "terms": {"field": "lang", "size": 5},
            "aggs": {"newest": {"top_hits": {
                "size": 2,
                "sort": [{"warc_ts": {"order": "desc"}}],
            }}},
        }},
    }
    results = {}
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            code, r = _req(srv.port, "/_search", body=body)
            assert code == 200, r
            results[backend] = r["aggregations"]["by_lang"]["buckets"]
        finally:
            srv.stop()
    assert results["local"] == results["sharded"]
    buckets = results["local"]
    assert buckets

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(root)
    matched = set(
        int(d) for d in match_doc_ids(reader, Analyzer(reader.chain)("node"))
    )
    docs = pads.dataset(
        os.path.join(reader.index_dir, "docs"), partitioning="hive"
    ).to_table(columns=["doc_id", "lang", "warc_ts"])
    per = {}
    for d, lg, ts in zip(docs["doc_id"].to_pylist(), docs["lang"].to_pylist(),
                         docs["warc_ts"].to_pylist()):
        if int(d) in matched:
            per.setdefault(lg, []).append((ts, int(d)))
    for b in buckets:
        want = sorted(per[b["key"]], reverse=True)[:2]
        got = b["newest"]["hits"]["hits"]
        assert [int(h["_id"]) for h in got] == [d for _, d in want], b["key"]
        assert [h["sort"][0] for h in got] == [t.isoformat() for t, _ in want]
        assert b["newest"]["hits"]["total"] == {
            "value": b["doc_count"], "relation": "eq",
        }
    assert {b["key"] for b in buckets} == set(per)

    # default sort (_doc pseudo-field, no stored column) → doc-id asc
    srv = SearchServer(root, backend="local").start()
    try:
        code, r = _req(srv.port, "/_search", body={
            "query": {"match": {"body": "node"}},
            "size": 0,
            "aggs": {"by_lang": {
                "terms": {"field": "lang", "size": 5},
                "aggs": {"first": {"top_hits": {"size": 2}}},
            }},
        })
        assert code == 200, r
        for b in r["aggregations"]["by_lang"]["buckets"]:
            ids = sorted(d for _, d in per[b["key"]])[:2]
            assert [int(h["_id"]) for h in b["first"]["hits"]["hits"]] == ids
    finally:
        srv.stop()


def test_date_range_agg_both_backends(root, ray_session):
    """date_range: explicit ISO-bounded [from, to) bands over the
    date field — identical across backends, brute-force counts, ISO
    echo of the closed edges, zero-count bands kept."""
    import datetime as dt
    import os

    import pyarrow.dataset as pads

    from docs_indexer_ray.serve_http import SearchServer

    # find the corpus's ts span to build meaningful bands
    docs = pads.dataset(
        os.path.join(
            __import__("docs_indexer_ray.query.reader", fromlist=["IndexReader"])
            .IndexReader(root).index_dir,
            "docs",
        ),
        partitioning="hive",
    ).to_table(columns=["doc_id", "warc_ts"])
    tss = sorted(docs["warc_ts"].to_pylist())
    mid = tss[len(tss) // 2].isoformat()
    early = tss[0].isoformat()
    body = {
        "query": {"match": {"body": "node"}},
        "size": 0,
        "aggs": {"eras": {"date_range": {
            "field": "warc_ts",
            "ranges": [
                {"to": mid},
                {"from": mid},
                {"from": early, "to": mid},
                {"to": early},  # zero or tiny band — kept either way
            ],
        }}},
    }
    results = {}
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            code, r = _req(srv.port, "/_search", body=body)
            assert code == 200, r
            results[backend] = r["aggregations"]["eras"]["buckets"]
        finally:
            srv.stop()
    assert results["local"] == results["sharded"]
    buckets = results["local"]
    assert len(buckets) == 4

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(root)
    matched = set(
        int(d) for d in match_doc_ids(reader, Analyzer(reader.chain)("node"))
    )
    mts = [
        t
        for d, t in zip(docs["doc_id"].to_pylist(), docs["warc_ts"].to_pylist())
        if int(d) in matched
    ]
    mid_dt = dt.datetime.fromisoformat(mid)
    early_dt = dt.datetime.fromisoformat(early)
    want = [
        sum(1 for t in mts if t < mid_dt),
        sum(1 for t in mts if t >= mid_dt),
        sum(1 for t in mts if early_dt <= t < mid_dt),
        sum(1 for t in mts if t < early_dt),
    ]
    assert [b["doc_count"] for b in buckets] == want
    assert "from" not in buckets[0] and buckets[0]["to_as_string"] == mid
    assert buckets[1]["from_as_string"] == mid and "to" not in buckets[1]
    assert buckets[2]["from_as_string"] == early
    assert buckets[3]["doc_count"] == 0


def test_missing_and_histogram_metric_aggs(root, ray_session):
    """missing agg (two-count lowering) and histogram + sum metric
    parent, both backends, brute-forced."""
    import os

    import pyarrow.dataset as pads

    from docs_indexer_ray.serve_http import SearchServer

    body = {
        "query": {"match": {"body": "node"}},
        "size": 0,
        "aggs": {
            "no_lang": {"missing": {"field": "lang"}},
            "no_ghost": {"missing": {"field": "ghost_col"}},
            "hist": {"histogram": {"field": "doc_id", "interval": 16},
                     "aggs": {"ids": {"sum": {"field": "doc_id"}}}},
        },
    }
    results = {}
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            code, r = _req(srv.port, "/_search", body=body)
            assert code == 200, r
            results[backend] = r["aggregations"]
        finally:
            srv.stop()
    assert results["local"] == results["sharded"]
    aggs = results["local"]

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(root)
    matched = set(
        int(d) for d in match_doc_ids(reader, Analyzer(reader.chain)("node"))
    )
    # every doc has lang → 0 missing; an unmapped column → ALL missing
    assert aggs["no_lang"]["doc_count"] == 0
    assert aggs["no_ghost"]["doc_count"] == len(matched)
    # histogram + sum metric: doc counts AND per-bucket id sums
    per = {}
    for d in sorted(matched):
        k = (d // 16) * 16
        n, s = per.get(k, (0, 0))
        per[k] = (n + 1, s + d)
    got = {int(b["key"]): (b["doc_count"], b["ids"]["value"])
           for b in aggs["hist"]["buckets"]}
    assert got == {k: (n, float(s)) for k, (n, s) in per.items()}


def test_value_count_rare_adjacency_composite_aggs(root, ray_session):
    """The four long-tail envelope aggs — value_count, rare_terms,
    adjacency_matrix, composite (one terms source with after_key
    paging) — both backends, brute-forced."""
    import os

    import pyarrow.dataset as pads

    from docs_indexer_ray.serve_http import SearchServer

    body = {
        "query": {"match": {"body": "node"}},
        "size": 0,
        "aggs": {
            "n_langs": {"value_count": {"field": "lang"}},
            "rare": {"rare_terms": {"field": "lang", "max_doc_count": 1000}},
            "adj": {"adjacency_matrix": {"filters": {
                "early": {"range": {"doc_id": {"lt": 30}}},
                "node": {"match": {"body": "node"}},
            }}},
            "page1": {"composite": {
                "size": 2,
                "sources": [{"lg": {"terms": {"field": "lang"}}}],
            }},
        },
    }
    results = {}
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            code, r = _req(srv.port, "/_search", body=body)
            assert code == 200, r
            results[backend] = r["aggregations"]
        finally:
            srv.stop()
    assert results["local"] == results["sharded"]
    aggs = results["local"]

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(root)
    matched = set(
        int(d) for d in match_doc_ids(reader, Analyzer(reader.chain)("node"))
    )
    docs = pads.dataset(
        os.path.join(reader.index_dir, "docs"), partitioning="hive"
    ).to_table(columns=["doc_id", "lang"])
    langs = {
        int(d): lg
        for d, lg in zip(docs["doc_id"].to_pylist(), docs["lang"].to_pylist())
    }
    # value_count: every matched doc has a lang
    assert aggs["n_langs"]["value"] == len(matched)
    # rare_terms: count ASC then value asc, tail filter
    per = {}
    for d in matched:
        per[langs[d]] = per.get(langs[d], 0) + 1
    want = sorted(((n, v) for v, n in per.items() if n <= 1000))
    assert [(b["doc_count"], b["key"]) for b in aggs["rare"]["buckets"]] == want
    # adjacency_matrix: singles + the pairwise intersection
    early = {d for d in matched if d < 30}
    by_key = {b["key"]: b["doc_count"] for b in aggs["adj"]["buckets"]}
    assert by_key["early"] == len(early)
    assert by_key["node"] == len(matched)
    assert by_key.get("early&node", 0) == len(early)
    # extended_stats + percentile_ranks fold the exact value histogram
    srv = SearchServer(root, backend="local").start()
    try:
        code, r = _req(srv.port, "/_search", body={
            "query": {"match": {"body": "node"}}, "size": 0,
            "aggs": {
                "es": {"extended_stats": {"field": "doc_id"}},
                "pr": {"percentile_ranks": {"field": "doc_id",
                                            "values": [10, 45]}},
            },
        })
        assert code == 200, r
        import numpy as np

        ids = np.array(sorted(matched), float)
        es = r["aggregations"]["es"]
        assert es["count"] == len(ids) and es["min"] == ids.min()
        assert abs(es["variance"] - ids.var()) < 1e-6
        pr = r["aggregations"]["pr"]
        for x in (10.0, 45.0):
            assert abs(
                pr["values"][f"{x}"] - 100.0 * (ids <= x).sum() / len(ids)
            ) < 1e-9
    finally:
        srv.stop()

    # composite: key-ascending pages chained by after_key cover all keys
    seen = []
    after = None
    srv = SearchServer(root, backend="local").start()
    try:
        while True:
            comp = {"size": 2, "sources": [{"lg": {"terms": {"field": "lang"}}}]}
            if after is not None:
                comp["after"] = {"lg": after}
            code, r = _req(srv.port, "/_search", body={
                "query": {"match": {"body": "node"}}, "size": 0,
                "aggs": {"pg": {"composite": comp}},
            })
            assert code == 200, r
            pg = r["aggregations"]["pg"]
            seen += [(b["key"]["lg"], b["doc_count"]) for b in pg["buckets"]]
            if "after_key" not in pg:
                break
            after = pg["after_key"]["lg"]
    finally:
        srv.stop()
    assert seen == sorted((v, n) for v, n in per.items())


def test_pipeline_agg_edges(root, ray_session):
    """Edge semantics pinned: a 'meta' key beside a pipeline sub-agg
    parses; a sibling over a derivative metric gap-skips its empty
    first bucket; histogram parents refuse sub-aggs loudly."""
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="local").start()
    try:
        body = {
            "query": {"match": {"body": "node"}},
            "size": 0,
            "aggs": {
                "avg_rate": {"avg_bucket": {"buckets_path": "per_min>rate"}},
                "per_min": {
                    "date_histogram": {"field": "warc_ts",
                                       "fixed_interval": "60s"},
                    "aggs": {
                        "ids": {"sum": {"field": "doc_id"}},
                        "rate": {"meta": {"x": 1},
                                 "derivative": {"buckets_path": "ids"}},
                    },
                },
            },
        }
        code, r = _req(srv.port, "/_search", body=body)
        assert code == 200, r
        got = r["aggregations"]["per_min"]["buckets"]
        assert "rate" not in got[0] and all("rate" in g for g in got[1:])
        rates = [g["rate"]["value"] for g in got[1:]]
        if rates:  # sibling averaged over the PRESENT values only
            assert r["aggregations"]["avg_rate"]["value"] == sum(rates) / len(rates)

        # histogram parent + NON-sum sub-agg → loud 400, never a
        # silent drop (sum metrics are supported — see
        # test_missing_and_histogram_metric_aggs)
        code, err = _req(srv.port, "/_search", body={
            "query": {"match": {"body": "node"}},
            "aggs": {"h": {"histogram": {"field": "doc_id", "interval": 16},
                           "aggs": {"x": {"avg": {"field": "doc_id"}}}}},
        })
        assert code == 400 and "must be sum" in err["error"]["reason"]
    finally:
        srv.stop()


def test_pipeline_window_and_lag_below_one_refused_by_both_doors(
    root, ray_session
):
    """A moving_fn ``window`` or serial_diff ``lag`` below 1 is refused,
    as OpenSearch refuses it: REST answers a 400 naming the parameter
    on both backends (never a silent clamp to 1), and the Ray Data
    facets raise the same ValueError (never ZeroDivisionError or
    IndexError) — the one check of ``facets.parent_pipeline``."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from docs_indexer_ray.query.facets import pipeline_aggs, sibling_pipeline_aggs
    from docs_indexer_ray.serve_http import SearchServer

    def body(pipe):
        return {"query": {"match": {"body": "node"}}, "size": 0, "aggs": {
            "per_min": {
                "date_histogram": {"field": "warc_ts", "fixed_interval": "60s"},
                "aggs": {"ids": {"sum": {"field": "doc_id"}}, "p": pipe},
            },
        }}

    avg = "MovingFunctions.unweightedAvg(values)"
    bad = [
        ({"moving_fn": {"buckets_path": "ids", "window": w, "script": avg}},
         "window") for w in (0, -1)
    ] + [({"serial_diff": {"buckets_path": "ids", "lag": g}}, "lag")
         for g in (0, -2)]
    for kw in ({}, {"backend": "sharded", "n_shards": 3}):
        srv = SearchServer(root, **kw).start()
        try:
            for pipe, what in bad:
                code, out = _req(srv.port, "/_search", body=body(pipe))
                assert code == 400 and out["error"]["type"] == "ValueError", out
                assert f"{what} must be >= 1" in out["error"]["reason"], out
        finally:
            srv.stop()

    n = 6
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "warc_ts": pa.array(np.arange(n, dtype=np.int64) * 60_000_000,
                            pa.timestamp("us")),
        "m": pa.array(np.arange(n), pa.int64()),
    }))
    every = np.arange(n, dtype=np.int64)
    for window in (0, -1):
        with pytest.raises(ValueError, match="window must be >= 1"):
            pipeline_aggs(ds, every, "warc_ts", 60, "m", window=window)
    with pytest.raises(ValueError, match="lag must be >= 1"):
        sibling_pipeline_aggs(ds, every, "warc_ts", 60, "m", lag=0)


def test_aggs_envelope_fuzz_never_500s(root, ray_session):
    """The aggregation compiler's 400 contract, fuzzed: any
    JSON-shaped aggs body either computes (200) or refuses cleanly
    (400) — no exception class escapes as a 500 (the DSL fuzz's
    guarantee, extended to the agg surface)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from docs_indexer_ray.query.aggs import KINDS
    from docs_indexer_ray.serve_http import SearchServer

    keys = st.sampled_from(list(dict.fromkeys([
        "terms", "stats", "date_histogram", "histogram", "range",
        "date_range", "cardinality", "percentiles", "filters",
        "significant_terms", "missing", "top_hits", "sum", "avg",
        "value_count", "rare_terms", "adjacency_matrix", "composite",
        "sources", "max_doc_count", "after",
        "cumulative_sum", "derivative", "serial_diff", "moving_fn",
        "avg_bucket", "max_bucket", "stats_bucket",
        "percentiles_bucket", "extended_stats_bucket", "aggs",
        "field", "interval", "fixed_interval", "calendar_interval",
        "ranges", "from", "to", "size", "sort", "buckets_path",
        "lag", "window", "script", "percents", "meta", "x",
        "values", "separator", "min_doc_count", *KINDS,
    ])))
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 60),
        st.sampled_from([
            "warc_ts", "lang", "doc_id", "60s", "month", "fortnight",
            "per>ids", "ids", "2025-01-01T00:00:00", "", "1h",
            # round-5 robustness alphabet: non-ASCII numerals (isdigit-
            # True but int()-hostile or Nd), zero widths, BOM/noncharacter
            "²", "٢", "０", "0", "0s", "﻿", "￿", "1²h",
        ]),
        # overflow alphabet: JSON 1e999 → inf; 2^70 overflows C long;
        # 1e19 overflows the int64 bucket key
        st.sampled_from([1e999, -1e999, 2 ** 70, 1e19, 0.0, -0.5]),
    )
    json_obj = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=2),
            st.dictionaries(keys, inner, max_size=3),
        ),
        max_leaves=10,
    )

    srv = SearchServer(root, backend="local").start()
    try:
        @settings(max_examples=80, deadline=None)
        @given(st.dictionaries(keys, json_obj, min_size=1, max_size=2))
        def probe(aggs):
            code, r = _req(srv.port, "/_search", body={
                "query": {"match": {"body": "node"}},
                "size": 0,
                "aggs": aggs,
            })
            assert code in (200, 400), (code, aggs, r)

        probe()
    finally:
        srv.stop()


def test_unknown_agg_kind_400_names_every_kind(root, ray_session):
    """An aggregation body with no known kind key is a 400 whose reason
    lists every kind the registry accepts."""
    from docs_indexer_ray.query.aggs import KINDS
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="local").start()
    try:
        code, r = _req(srv.port, "/_search", body={
            "query": {"match": {"body": "node"}},
            "aggs": {"a": {"nope": {}}},
        })
    finally:
        srv.stop()
    assert code == 400, r
    named = r["error"]["reason"].rsplit("(", 1)[1].rstrip(")").split("|")
    assert sorted(named) == sorted(KINDS)


def test_search_body_fuzz_never_500s(root, ray_session):
    """The whole /_search body surface (sort / suggest / highlight /
    from / size / _source / scroll riders around a fixed valid query)
    under the same 200-or-400 contract."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from docs_indexer_ray.serve_http import SearchServer

    keys = st.sampled_from([
        "sort", "suggest", "highlight", "from", "size", "_source",
        "search_after", "collapse", "rescore", "min_score", "fields",
        "text", "term", "order", "warc_ts", "doc_id", "x",
    ])
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 30),
        st.sampled_from(["warc_ts:desc", "nope", "asc", "node", "", "url"]),
    )
    json_obj = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=2),
            st.dictionaries(keys, inner, max_size=2),
        ),
        max_leaves=8,
    )

    srv = SearchServer(root, backend="local").start()
    try:
        @settings(max_examples=60, deadline=None)
        @given(st.dictionaries(keys, json_obj, min_size=1, max_size=3))
        def probe(extra):
            body = {"query": {"match": {"body": "node"}}, **extra}
            code, r = _req(srv.port, "/_search", body=body)
            assert code in (200, 400, 404), (code, extra, r)

        probe()
    finally:
        srv.stop()


def test_get_params_fuzz_never_500s(root, ray_session):
    """GET /_search (and /_count, /_analyze) with random query params
    under the 200-or-400 contract — the param-string parse surface."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from docs_indexer_ray.serve_http import SearchServer

    pkeys = st.sampled_from([
        "q", "size", "from", "k", "sort", "fields", "agg_terms",
        "agg_stats", "agg_size", "highlight", "hl_width", "scroll",
        "syntax", "collapse", "min_score", "x",
    ])
    pvals = st.sampled_from([
        "node", "3", "-1", "0", "nope:desc", "warc_ts:desc", "", "1m",
        "true", "url,title", "lang", "1e9", "NaN", "*", '"a b"',
        "²", "٢", "０", "0s", "﻿", "node~²", "~٣", "9" * 40,
    ])

    srv = SearchServer(root, backend="local").start()
    try:
        @settings(max_examples=80, deadline=None)
        @given(st.dictionaries(pkeys, pvals, min_size=1, max_size=4))
        def probe(params):
            code, r = _req(srv.port, "/_search", **params)
            assert code in (200, 400, 404), (code, params, r)
            code, r = _req(srv.port, "/_count", **params)
            assert code in (200, 400, 404), (code, params, r)

        probe()
    finally:
        srv.stop()


def test_rest_self_heals_after_shard_actor_death(root, ray_session):
    """A /_search whose fan-out hits a killed shard actor revives the
    fleet once and answers identically — the REST layer's one-retry
    self-heal over ShardedQueryService.revive()."""
    import ray

    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="sharded", n_shards=3).start()
    try:
        code, before = _req(srv.port, "/_search", q="node", size=5)
        assert code == 200
        ray.kill(srv._svc._groups[1][0])
        # cache-missing spelling so the dead actor is actually hit
        code, after = _req(srv.port, "/_search", q="node", size=6)
        assert code == 200, after
        assert [h["_id"] for h in after["hits"]["hits"]][:5] == [
            h["_id"] for h in before["hits"]["hits"]
        ]
    finally:
        srv.stop()


def test_shard_errors_answer_like_the_local_backend(root, ray_session):
    """An error raised inside a Ray shard reaches the client as the
    local backend answers it — same status, error ``type`` and
    ``reason`` — never a ``RayTaskError(X)`` carrying the actor's
    traceback, pid and ip."""
    from docs_indexer_ray.serve_http import SearchServer

    q = {"match": {"body": "node"}}
    requests = [
        # a composite cursor of the wrong type for its integer source
        ({"query": q, "size": 0, "aggs": {"c": {"composite": {
            "sources": [{"s": {"terms": {"field": "doc_id"}}}],
            "after": {"s": "not-an-int"},
        }}}}, {}),
        # a stored field the docs store does not have
        ({"query": q, "_source": ["no_such_column"]}, {}),
        # a query string nested past the parser's 100-group guard
        (None, {"q": "(" * 101 + "node" + ")" * 101, "syntax": "1"}),
    ]
    answers = {}
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 2})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            answers[backend] = [
                _req(srv.port, "/_search", body=body, **params)
                for body, params in requests
            ]
        finally:
            srv.stop()
    for (lc, lerr), (sc, serr) in zip(answers["local"], answers["sharded"]):
        assert 400 <= lc < 500, lerr
        assert (sc, serr["error"]["type"], serr["error"]["reason"]) == (
            lc, lerr["error"]["type"], lerr["error"]["reason"]
        )


def test_rank_eval_and_cat_indices(root, ray_session):
    """POST /_rank_eval: per-request precision/MRR/DCG/NDCG against
    graded ratings through the REAL backend; /_cat/indices reports the
    served index's counts."""
    import math

    from docs_indexer_ray.serve_http import SearchServer

    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            # ground truth: the backend's own top-3 for 'node pools'
            code, top = _req(srv.port, "/_search", q="node pools", size=3,
                             syntax=1)
            ids = [h["_id"] for h in top["hits"]["hits"]]
            body = {
                "requests": [
                    {"id": "good", "request": {
                        "query": {"match": {"body": "node pools"}}},
                     "ratings": [{"_id": i, "rating": 1} for i in ids]},
                    {"id": "bad", "request": {
                        "query": {"match": {"body": "quota"}}},
                     "ratings": [{"_id": ids[0], "rating": 1}]},
                ],
                "metric": {"precision": {"k": 3}},
            }
            code, r = _req(srv.port, "/_rank_eval", body=body)
            assert code == 200, r
            good = r["details"]["good"]
            assert good["precision"] == 1.0  # its own top-3, all rated
            assert good["mrr"] == 1.0 and good["ndcg"] == 1.0
            assert good["unrated_docs"] == []
            bad = r["details"]["bad"]
            assert bad["precision"] < 1.0
            assert math.isclose(
                r["metric_score"],
                (good["precision"] + bad["precision"]) / 2,
            )
            # dcg + normalize → ndcg as the headline metric
            body["metric"] = {"dcg": {"k": 3, "normalize": True}}
            code, r2 = _req(srv.port, "/_rank_eval", body=body)
            assert r2["details"]["good"]["metric_score"] == 1.0
            code, err = _req(srv.port, "/_rank_eval",
                             body={"requests": [],
                                   "metric": {"precision": {}}})
            assert code == 400
            code, err = _req(srv.port, "/_rank_eval",
                             body={"requests": [{"id": "x"}],
                                   "metric": {"recall": {}}})
            assert code == 400

            code, cat = _req(srv.port, "/_cat/indices")
            assert code == 200
            row = cat["indices"][0]
            assert row["docs.count"] > 0 and row["docs.deleted"] == 0
            assert row["store.size_bytes"] > 0 and row["health"] == "green"
        finally:
            srv.stop()


def test_explain_tree_for_dsl_queries(root, ray_session):
    """/_explain with syntax/DSL bodies returns the per-clause
    explanation tree: the root value equals the doc's real score, bool
    children carry occur roles, and a prohibited clause explains a
    non-match."""
    import math

    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="local").start()
    try:
        code, top = _req(srv.port, "/_search", q='node pools', size=1,
                         syntax=1)
        doc = top["hits"]["hits"][0]["_id"]
        score = top["hits"]["hits"][0]["_score"]

        body = {"query": {"bool": {
            "must": [{"match": {"body": "node"}}],
            "should": [{"match": {"body": "pools"}}],
            "must_not": [{"term": {"body": "zzznope"}}],
        }}, "id": doc}
        code, r = _req(srv.port, "/_explain", body=body)
        assert code == 200, r
        tree = r["explanation"]
        assert r["matched"] is True and tree["description"] == "bool"
        roles = [d["occur"] for d in tree["details"]]
        assert roles == ["must", "should", "must_not"]
        assert tree["details"][0]["matched"] is True
        assert tree["details"][2]["matched"] is False  # prohibited absent
        # the tree's root value is the doc's real (unquantized) score:
        # quantized it equals the /_search score
        assert math.isclose(round(tree["value"], 9), score, abs_tol=1e-9)
        # children sum to the parent for a pure-sum bool
        kids = sum(d["value"] for d in tree["details"])
        assert math.isclose(kids, tree["value"], rel_tol=1e-12)

        # GET spelling with the query_string language
        code, r2 = _req(srv.port, "/_explain", id=doc,
                        q='+node pools^2', syntax=1)
        assert code == 200 and r2["explanation"]["details"]
        # the plain per-term path is unchanged
        code, r3 = _req(srv.port, "/_explain", id=doc, q="node pools")
        assert code == 200 and "details" in r3["explanation"]
        assert all("tf" in d for d in r3["explanation"]["details"])
    finally:
        srv.stop()


def test_significant_terms_agg(root, ray_session):
    """`{"aggs": {n: {"significant_terms": …}}}` on a search body runs
    the JLH kernel over the query's match set — pinned to the direct
    library call, on BOTH backends; wrong-field refused."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.significant import significant_terms
    from docs_indexer_ray.serve_http import SearchServer

    reader = IndexReader(root)
    matched = match_doc_ids(reader, Analyzer("simple")("node"))
    want = significant_terms(reader, matched, k=5).to_pylist()
    assert want, "fixture query must match"

    body = {
        "query": {"match": {"body": "node"}},
        "size": 0,
        "aggs": {"sig": {"significant_terms": {"field": "body",
                                               "size": 5}}},
    }
    for backend in ("local", "sharded"):
        srv = SearchServer(root, backend=backend, n_shards=3).start()
        try:
            code, out = _req(srv.port, "/_search", body=body)
            assert code == 200, out
            sig = out["aggregations"]["sig"]
            assert sig["doc_count"] == len(matched)
            assert sig["buckets"] == [
                {"key": r["term"], "doc_count": r["fg_df"],
                 "bg_count": r["bg_df"], "score": r["score"]}
                for r in want
            ]
            # significance is postings-space: non-indexed field refused
            code, _ = _req(srv.port, "/_search", body={
                "query": {"match": {"body": "node"}},
                "aggs": {"s": {"significant_terms": {"field": "title"}}},
            })
            assert code == 400
        finally:
            srv.stop()


def test_count_and_analyze_post_bodies(root, ray_session):
    """POST /_count {"query": <DSL>} and POST /_analyze {"text",
    "analyzer"} — the OpenSearch body forms."""
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="local").start()
    try:
        code, via_get = _req(srv.port, "/_count", q="node")
        code2, via_post = _req(srv.port, "/_count", body={
            "query": {"match": {"body": "node"}}})
        assert code == code2 == 200
        assert via_post["count"] == via_get["count"] > 0
        # bool body counts too; malformed query → 400
        code, out = _req(srv.port, "/_count", body={
            "query": {"bool": {"must": [{"match": {"body": "node"}}],
                               "must_not": [{"match": {"body": "quota"}}]}}})
        assert code == 200 and 0 < out["count"] <= via_get["count"]
        code, _ = _req(srv.port, "/_count", body={"query": "scalar"})
        assert code == 400

        # _analyze body: explicit chain override + list text
        code, out = _req(srv.port, "/_analyze", body={
            "text": "Node's pools", "analyzer": "english"})
        assert code == 200
        assert [t["token"] for t in out["tokens"]] == ["node", "pool"]
        code, out = _req(srv.port, "/_analyze", body={
            "text": ["alpha beta", "gamma"]})
        assert [(t["token"], t["position"]) for t in out["tokens"]] == [
            ("alpha", 0), ("beta", 1), ("gamma", 2)]
        code, _ = _req(srv.port, "/_analyze", body={
            "text": "x", "analyzer": "nochain"})
        assert code == 400
        code, _ = _req(srv.port, "/_analyze", body={})
        assert code == 400
    finally:
        srv.stop()


def test_root_banner_health_and_head(root, ray_session):
    """`GET /` version banner, `GET /_cluster/health` green status and
    HEAD liveness pings — the requests every OpenSearch client issues
    before its first real call."""
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="local").start()
    try:
        code, out = _req(srv.port, "/")
        assert code == 200 and out["version"]["number"]
        assert out["version"]["distribution"] == "docs-indexer-ray"
        code, h = _req(srv.port, "/_cluster/health")
        assert code == 200 and h["status"] == "green"
        # other tests in this module bulk-append to the shared fixture
        # — compare against the live reader, not a hard-coded size
        from docs_indexer_ray.query.reader import IndexReader

        assert h["docs"]["count"] == IndexReader(root).match_all_count() >= 90
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/", method="HEAD")
        with urllib.request.urlopen(req) as r:
            assert r.status == 200 and r.read() == b""
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/nope", method="HEAD")
        try:
            urllib.request.urlopen(req)
            raise AssertionError("HEAD /nope must 404")
        except urllib.error.HTTPError as e:
            assert e.code == 404
        assert h["active_primary_shards"] == 1
    finally:
        srv.stop()
    # a sharded server reports its fleet's shard count
    srv = SearchServer(root, backend="sharded", n_shards=3).start()
    try:
        code, h = _req(srv.port, "/_cluster/health")
        assert code == 200 and h["status"] == "green"
        assert h["active_primary_shards"] == h["active_shards"] == 3
    finally:
        srv.stop()


def test_search_evaluates_query_once_per_shard(root, ray_session, monkeypatch):
    """POST /_search takes rank, total and every aggregation from ONE
    query evaluation on each shard (the local backend is one
    in-process shard) — relevance-ranked or field-sorted, with or
    without aggs; an agg's own count legs are evaluated once each."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import dsl_to_node
    from docs_indexer_ray.serve_http import SearchServer

    _, _, roots = _count_shard_work(monkeypatch)
    srv = SearchServer(root, backend="local").start()
    try:
        for body, n_legs in (
            ({"query": {"match": {"body": "node pools"}}, "size": 3}, 0),
            ({"query": {"bool": {"must": [{"match": {"body": "node"}}],
                                 "must_not": [{"term": {"body": "quota"}}]}},
              "highlight": {"fields": {"body": {}}}}, 0),
            # filters: two legs; missing: one exists leg
            (_AGG_BODY, 3),
            (dict(_AGG_BODY, sort=[{"warc_ts": "desc"}]), 3),
        ):
            roots.clear()
            code, out = _req(srv.port, "/_search", body=body)
            assert code == 200, out
            assert out["hits"]["total"]["value"] > 0
            main = repr(dsl_to_node(body["query"], Analyzer("simple")))
            assert roots[main] == 1, roots
            assert sum(roots.values()) == 1 + n_legs, roots
    finally:
        srv.stop()


_AGG_BODY = {
    "query": {"match": {"body": "node"}},
    "size": 2,
    "aggs": {
        "langs": {"terms": {"field": "lang"}},
        "ids": {"stats": {"field": "doc_id"}},
        "pct": {"percentiles": {"field": "doc_id"}},
        "es": {"extended_stats": {"field": "doc_id"}},
        "n_urls": {"cardinality": {"field": "url"}},
        "legs": {"filters": {"filters": {
            "pools": {"match": {"body": "pools"}},
            "quota": {"match": {"body": "quota"}},
        }}},
        "no_lang": {"missing": {"field": "lang"}},
    },
}


def _count_shard_work(monkeypatch):
    """Record every fan-out of any ShardedQueryService as ``(method,
    args)``, plus the work of in-process shards: match-set builds
    (``served.live_matches``) per shard reader and top-level
    ``qstring._eval_range`` evaluations per query node
    (``_eval_range`` recurses into bool children)."""
    import collections

    import docs_indexer_ray.query.qstring as qs
    import docs_indexer_ray.query.served as served
    from docs_indexer_ray.query.served import ShardedQueryService

    fans, matched, roots = [], collections.Counter(), collections.Counter()
    real_gather = ShardedQueryService._gather
    real_matched = served.live_matches
    real_eval = qs._eval_range
    depth = [0]

    def gather(self, calls):
        fans.append((calls[0][1], calls[0][2]))
        return real_gather(self, calls)

    def live_matches(reader, *args):
        matched[id(reader)] += 1
        return real_matched(reader, *args)

    def eval_range(reader, node):
        if depth[0] == 0:
            roots[repr(node)] += 1
        depth[0] += 1
        try:
            return real_eval(reader, node)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ShardedQueryService, "_gather", gather)
    monkeypatch.setattr(served, "live_matches", live_matches)
    monkeypatch.setattr(qs, "_eval_range", eval_range)
    return fans, matched, roots


def _in_process_fleet(root, n_shards):
    """An ``n_shards`` doc-range service whose shards are in-process
    objects, so a test can count their work (a Ray actor's cannot be
    patched from the calling process)."""
    import numpy as np

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import (
        ShardedQueryService,
        ShardQueryActor,
    )

    bdir = mf.current_build(root) or root
    svc = ShardedQueryService.in_process(IndexReader(bdir))
    bounds = np.linspace(0, svc._bounds[-1], n_shards + 1).astype(np.int64)
    svc._bounds = bounds
    svc._groups = [
        [ShardQueryActor(bdir, int(bounds[i]), int(bounds[i + 1]))]
        for i in range(n_shards)
    ]
    return svc


def test_aggregations_take_one_scatter_round(root, ray_session, monkeypatch):
    """A _search's page, hits.total and all of its aggregations —
    terms, stats, percentiles, extended_stats, cardinality, a 2-leg
    filters and missing — take ONE query-phase fan-out, then the
    fetch, and each shard evaluates the query once for all of them;
    terms→top_hits adds exactly one query phase; a search without
    aggs makes one query phase with no ops; a field-sorted search
    with aggs takes the same two rounds; /_count is one query phase
    with no page and no ops.  Local backend, a 3-shard
    in-process fleet (work counted per shard) and the 3-shard Ray
    fleet (fan-outs counted) answer identically."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import dsl_to_node
    from docs_indexer_ray.serve_http import SearchServer

    fans, matched, roots = _count_shard_work(monkeypatch)
    main = repr(dsl_to_node(_AGG_BODY["query"], Analyzer("simple")))
    top_body = dict(_AGG_BODY, aggs=dict(_AGG_BODY["aggs"], by_lang={
        "terms": {"field": "lang", "size": 3},
        "aggs": {"first": {"top_hits": {"size": 1}}},
    }))
    plain = {"query": _AGG_BODY["query"], "size": 2}
    by_date = dict(_AGG_BODY, sort=[{"warc_ts": "desc"}], size=4)

    def run(srv, body, whole=False):
        fans.clear()
        matched.clear()
        roots.clear()
        code, out = _req(srv.port, "/_search", body=body)
        assert code == 200, out
        out.pop("took")
        return out if whole else out.get("aggregations")

    got = {}
    for name, n in (("local", 1), ("in_process_3", 3), ("sharded_3", 3)):
        kw = {"backend": "sharded", "n_shards": 3} if name == "sharded_3" else {}
        srv = SearchServer(root, **kw).start()
        try:
            if name == "in_process_3":
                srv._svc = _in_process_fleet(root, 3)
            counted = name != "sharded_3"

            got[name] = run(srv, _AGG_BODY)
            ops = [m for m, _ in fans]
            assert ops == ["query_phase", "fetch_partial"], ops
            # extended_stats shares the stats op: 7 aggs, 7 distinct
            # shard ops (terms, stats, the percentiles value histogram,
            # the cardinality histogram, three count legs)
            assert len(fans[0][1][4]) == 7, fans[0][1][4]
            if counted:
                assert len(matched) == n and set(matched.values()) == {1}
                # one evaluation serves the page, the count and every agg
                assert roots[main] == n, roots

            got[name + "_top"] = run(srv, top_body)
            ops = [m for m, _ in fans]
            assert ops == ["query_phase", "fetch_partial", "query_phase"], ops
            assert fans[2][1][3] is None  # the top_hits round ranks nothing
            if counted:
                assert set(matched.values()) == {2}

            assert run(srv, plain) is None
            assert [m for m, _ in fans] == ["query_phase", "fetch_partial"]
            assert fans[0][1][4] == []
            if counted:
                assert set(matched.values()) == {1}

            # field sort + aggs: the same two rounds, one evaluation
            got[name + "_sorted"] = run(srv, by_date, whole=True)
            assert [m for m, _ in fans] == ["query_phase", "fetch_partial"]
            assert fans[0][1][3][0] == "field"
            if counted:
                assert set(matched.values()) == {1} and roots[main] == n

            # /_count: one query phase, no page, no ops
            fans.clear()
            code, out = _req(srv.port, "/_count", body={"query": plain["query"]})
            assert code == 200 and out["count"] == (
                got[name + "_sorted"]["hits"]["total"]["value"]
            )
            assert [(m, a[3], a[4]) for m, a in fans] == [
                ("query_phase", None, [])
            ]
        finally:
            srv.stop()
    assert got["local"] == got["in_process_3"] == got["sharded_3"]
    assert got["local_top"] == got["in_process_3_top"] == got["sharded_3_top"]
    assert (
        got["local_sorted"] == got["in_process_3_sorted"]
        == got["sharded_3_sorted"]
    )
    assert got["local_sorted"]["aggregations"] == got["local"]
    assert [h["_score"] for h in got["local_sorted"]["hits"]["hits"]] == [None] * 4
    aggs = got["local"]
    assert aggs["no_lang"]["doc_count"] == 0
    assert aggs["es"]["count"] == aggs["ids"]["count"] > 0
    assert set(aggs["legs"]["buckets"]) == {"pools", "quota"}


def test_bad_agg_leg_fails_before_any_shard_call(root, ray_session, monkeypatch):
    """A filters or adjacency_matrix leg with an unknown DSL clause is
    a 400 carrying the DSL error, raised before ANY shard call (the
    query phase included), on both backends; the 8-filter
    adjacency_matrix cap stays."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.serve_http import SearchServer

    bad = {"no_such_clause": {"body": "node"}}
    with pytest.raises(DslError) as exc:
        dsl_to_node(bad, Analyzer("simple"))
    legs = {"ok": {"match": {"body": "pools"}}, "bad": bad}
    bodies = [
        {"query": {"match": {"body": "node"}}, "aggs": {
            "langs": {"terms": {"field": "lang"}},
            "f": {"filters": {"filters": legs}},
        }},
        {"query": {"match": {"body": "node"}}, "aggs": {
            "langs": {"terms": {"field": "lang"}},
            "am": {"adjacency_matrix": {"filters": legs}},
        }},
    ]
    nine = {f"f{i}": {"match": {"body": "node"}} for i in range(9)}
    fans, _, _ = _count_shard_work(monkeypatch)
    for kw in ({}, {"backend": "sharded", "n_shards": 3}):
        srv = SearchServer(root, **kw).start()
        try:
            for body in bodies:
                fans.clear()
                code, out = _req(srv.port, "/_search", body=body)
                assert code == 400, out
                assert out["error"] == {
                    "type": "DslError", "reason": str(exc.value),
                }
                assert fans == []
            code, out = _req(srv.port, "/_search", body={
                "query": {"match": {"body": "node"}},
                "aggs": {"am": {"adjacency_matrix": {"filters": nine}}},
            })
            assert code == 400 and "at most 8" in out["error"]["reason"]
        finally:
            srv.stop()


def test_value_aggs_on_a_date_field_fail_before_any_shard_call(
    root, ray_session, monkeypatch
):
    """percentiles, extended_stats and percentile_ranks fold numeric
    values: on the ``warc_ts`` timestamp (and the ``lang`` keyword)
    they are a 400 naming the field and the aggregation, raised before
    ANY shard call on both backends — never the 500 of a float64 cast
    inside the shard.  Every other kind that reads numbers does the
    same on a keyword (``stats``, a terms metric sub-agg, a
    histogram's ``sum``; a terms metric on the timestamp too), where
    the fleet used to answer a ``RayTaskError`` carrying the actor's
    traceback.  A numeric field still computes, a histogram ``sum``
    still reads a timestamp as epoch-us, and ``stats`` on the
    timestamp answers like OpenSearch: epoch millis plus ISO
    ``min/max/avg_as_string``, equal to the docs store's values."""
    import datetime as dt

    import numpy as np
    import pyarrow as pa

    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.serve_http import SearchServer

    q = {"match": {"body": "node"}}
    reader = IndexReader(root)
    live = np.setdiff1d(match_doc_ids(reader, ["node"]), reader.deleted_ids())
    us = [v for v in reader.fetch_docs(live.tolist(), ["warc_ts"])["warc_ts"]
          .cast(pa.int64()).to_pylist() if v is not None]
    epoch = dt.datetime(1970, 1, 1)

    def iso(v):
        return (epoch + dt.timedelta(microseconds=v)).isoformat()

    def sub(parent, kind, field):
        return dict(parent, aggs={"m": {kind: {"field": field}}})

    terms = {"terms": {"field": "lang"}}
    hist = {"histogram": {"field": "doc_id", "interval": 10}}
    dhist = {"date_histogram": {"field": "warc_ts", "fixed_interval": "60s"}}
    refused = [
        ({kind: {"field": field}}, field, kind) for kind, field in (
            ("percentiles", "warc_ts"), ("extended_stats", "warc_ts"),
            ("percentiles", "lang"), ("stats", "lang"),
            ("extended_stats", "lang"),
        )
    ] + [
        ({"percentile_ranks": {"field": "warc_ts", "values": [1]}},
         "warc_ts", "percentile_ranks"),
        (sub(terms, "avg", "lang"), "lang", "avg"),
        (sub(terms, "stats", "warc_ts"), "warc_ts", "stats"),
        (sub(terms, "max", "url"), "url", "max"),
        (sub(hist, "sum", "lang"), "lang", "sum"),
        (sub(dhist, "sum", "url"), "url", "sum"),
    ]
    computed = [
        {"percentiles": {"field": "doc_id"}},
        {"stats": {"field": "warc_ts"}},
        sub(hist, "sum", "warc_ts"),
        sub(terms, "avg", "doc_id"),
    ]
    fans, _, _ = _count_shard_work(monkeypatch)
    for kw in ({}, {"backend": "sharded", "n_shards": 3}):
        srv = SearchServer(root, **kw).start()
        try:
            for agg, field, kind in refused:
                fans.clear()
                code, out = _req(srv.port, "/_search", body={
                    "query": q, "aggs": {"a": agg},
                })
                assert code == 400, out
                assert out["error"]["type"] == "ValueError", out
                reason = out["error"]["reason"]
                assert f"[{field}]" in reason and f"[{kind}]" in reason
                assert fans == []
            for agg in computed:
                code, out = _req(srv.port, "/_search", body={
                    "query": q, "aggs": {"a": agg},
                })
                assert code == 200 and out["aggregations"]["a"], out
            code, out = _req(srv.port, "/_search", body={
                "query": q, "aggs": {"a": {"stats": {"field": "warc_ts"}}},
            })
            st = out["aggregations"]["a"]
            assert st["count"] == len(us) > 0
            assert (st["min"], st["max"]) == (min(us) // 1000, max(us) // 1000)
            assert (st["min_as_string"], st["max_as_string"]) == (
                iso(min(us)), iso(max(us))
            )
            assert st["sum"] == pytest.approx(sum(us) / 1000.0, rel=1e-12)
            assert abs(st["avg"] - sum(us) / len(us) / 1000.0) < 1
            avg_us = (dt.datetime.fromisoformat(st["avg_as_string"]) - epoch) / (
                dt.timedelta(microseconds=1)
            )
            assert abs(avg_us - sum(us) / len(us)) < 1
        finally:
            srv.stop()


def test_count_legs_stay_within_the_match_set(root, ray_session):
    """Count-leg aggs (filters, adjacency_matrix, missing,
    value_count) count inside the request's match set even when the
    query string analyzes to no terms: it matches nothing, so every
    leg is 0 — never the leg's corpus-wide count, never a 400."""
    from docs_indexer_ray.serve_http import SearchServer

    body = {"size": 0, "aggs": {
        "f": {"filters": {"filters": {"p": {"match": {"body": "page"}}}}},
        "am": {"adjacency_matrix": {"filters": {
            "a": {"match": {"body": "page"}}, "b": {"match": {"body": "node"}},
        }}},
        "miss": {"missing": {"field": "lang"}},
        "vc": {"value_count": {"field": "lang"}},
    }}
    for kw in ({}, {"backend": "sharded", "n_shards": 3}):
        srv = SearchServer(root, **kw).start()
        try:
            code, out = _req(srv.port, "/_search", body=body, q="!!!")
            assert code == 200, out
            assert out["hits"]["total"]["value"] == 0
            assert out["aggregations"] == {
                "f": {"buckets": {"p": {"doc_count": 0}}},
                "am": {"buckets": []},
                "miss": {"doc_count": 0},
                "vc": {"value": 0},
            }
        finally:
            srv.stop()


def test_local_reload_never_parks(root, ray_session, tmp_path):
    """An in-process backend owns no actors: a reload drops it instead
    of parking it, so back-to-back writes never wait out the fleet's
    drain grace."""
    import shutil
    import time

    from docs_indexer_ray.serve_http import SearchServer

    copy = str(tmp_path / "idx")
    shutil.copytree(root, copy)
    srv = SearchServer(copy, backend="local").start()
    try:
        t0 = time.perf_counter()
        for i in range(2):
            nd = (
                json.dumps({"index": {}}) + "\n"
                + json.dumps({
                    "url": f"https://docs.test/no-park-{i}/",
                    "text": "node parking page",
                }) + "\n"
            )
            req = urllib.request.Request(
                f"http://127.0.0.1:{srv.port}/_bulk",
                data=nd.encode(), method="POST",
            )
            with urllib.request.urlopen(req) as r:
                assert json.loads(r.read())["errors"] is False
            assert srv._parked is None
        # two merges + reloads; a parked service would add ≥ 5 s
        assert time.perf_counter() - t0 < srv.drain_grace_s
        code, out = _req(srv.port, "/_search", q="parking")
        assert code == 200 and out["hits"]["total"]["value"] == 2
    finally:
        srv.stop()


def test_filters_aggregation(root, ray_session):
    """`{"aggs": {n: {"filters": {"filters": {...}}}}}`: one bucket per
    named sub-query counting docs in the main query's scope — pinned
    to intersection counts, both backends."""
    from docs_indexer_ray.serve_http import SearchServer

    body = {
        "query": {"match": {"body": "node"}},
        "size": 0,
        "aggs": {"by_kind": {"filters": {"filters": {
            "pools": {"match": {"body": "pools"}},
            "recent": {"range": {"warc_ts": {"gte": "2025-01-01T00:00:40"}}},
            "never": {"match": {"body": "zzzznope"}},
        }}}},
    }
    for backend in ("local", "sharded"):
        srv = SearchServer(root, backend=backend, n_shards=3).start()
        try:
            code, out = _req(srv.port, "/_search", body=body)
            assert code == 200, out
            total = out["hits"]["total"]["value"]
            b = out["aggregations"]["by_kind"]["buckets"]
            assert set(b) == {"pools", "recent", "never"}
            assert b["never"]["doc_count"] == 0
            assert 0 < b["pools"]["doc_count"] <= total
            assert 0 < b["recent"]["doc_count"] <= total
            # pin to explicit intersection counts via /_count
            for name, sub in body["aggs"]["by_kind"]["filters"]["filters"].items():
                code, c = _req(srv.port, "/_count", body={"query": {
                    "bool": {"must": [body["query"], sub]}}})
                assert b[name]["doc_count"] == c["count"], name
            # malformed shapes
            code, _ = _req(srv.port, "/_search", body={
                "query": {"match_all": {}},
                "aggs": {"x": {"filters": {"filters": {}}}}})
            assert code == 400
            code, _ = _req(srv.port, "/_search", body={
                "query": {"match_all": {}},
                "aggs": {"x": {"filters": {"filters": {"a": "scalar"}}}}})
            assert code == 400
        finally:
            srv.stop()


def test_terms_family_aggs_drop_null_keys(root, ray_session):
    """Docs missing the field are ignored by every terms-family agg
    (OpenSearch): terms, rare_terms, terms→stats and terms→top_hits
    on the null-bearing ``extras`` column return no ``null`` bucket on
    the local backend and on 3 in-process shards, and the terms
    buckets equal the Ray Data ``terms_facet`` over the same docs."""
    import os

    import numpy as np
    import ray.data

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.query.facets import terms_facet
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.serve_http import SearchServer

    bdir = mf.current_build(root) or root
    n = IndexReader(bdir).n_docs
    ds = ray.data.read_parquet(
        os.path.join(bdir, "docs"), columns=["doc_id", "extras"]
    )
    want = terms_facet(ds, np.arange(n, dtype=np.int64), "extras")
    assert 0 < sum(want["n_docs"].to_pylist()) < n  # genuinely null-bearing
    terms = {"field": "extras", "size": 100}
    body = {"query": {"match_all": {}}, "size": 0, "aggs": {
        "t": {"terms": terms},
        "r": {"rare_terms": {"field": "extras", "max_doc_count": n}},
        "s": {"terms": terms, "aggs": {"st": {"stats": {"field": "doc_id"}}}},
        "h": {"terms": terms, "aggs": {"top": {"top_hits": {"size": 1}}}},
    }}
    got = {}
    for name in ("local", "in_process_3"):
        srv = SearchServer(root).start()
        try:
            if name == "in_process_3":
                srv._svc = _in_process_fleet(root, 3)
            code, out = _req(srv.port, "/_search", body=body)
            assert code == 200, out
            got[name] = aggs = out["aggregations"]
        finally:
            srv.stop()
        assert [(b["key"], b["doc_count"]) for b in aggs["t"]["buckets"]] == list(
            zip(want["value"].to_pylist(), want["n_docs"].to_pylist())
        )
        keys = {b["key"] for b in aggs["t"]["buckets"]}
        for agg in ("r", "s", "h"):
            assert {b["key"] for b in aggs[agg]["buckets"]} == keys, agg
        for b in aggs["h"]["buckets"]:
            assert len(b["top"]["hits"]["hits"]) == 1
    assert got["local"] == got["in_process_3"]


def test_every_shared_kind_agrees_across_doors(root, ray_session):
    """Every aggregation kind both front doors serve — REST ``_search``
    on the local backend and a 3-shard in-process fleet, and the Ray
    Data ``facets`` shells — gives the same values on one match set,
    once the two shapes are mapped onto each other: each kind has one
    op plan and one reduce; only the rendering differs.  Compared with
    ``==``, floats included (``extended_stats``' variance is the SQL
    oracle's form at both doors)."""
    import datetime as dt
    import os

    import numpy as np
    import pyarrow.compute as pc
    import ray.data

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.query import facets as fx
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.serve_http import SearchServer

    qs, ranks, ranges = [10.0, 50.0, 90.0], [3.0, 40.0, 12.5], [
        (float("-inf"), 20.0), (20.0, 50.0), (50.0, float("inf"))]
    ids = {"sum": {"field": "doc_id"}}
    siblings = ("avg_bucket", "max_bucket", "min_bucket", "sum_bucket",
                "stats_bucket", "percentiles_bucket", "extended_stats_bucket")
    body = {"query": {"match": {"body": "node page"}}, "size": 0, "aggs": {
        "terms": {"terms": {"field": "lang", "size": 100}},
        "stats": {"stats": {"field": "doc_id"}},
        "es": {"extended_stats": {"field": "doc_id"}},
        "hist": {"histogram": {"field": "doc_id", "interval": 10}},
        "fixed": {"date_histogram": {"field": "warc_ts", "fixed_interval": "10s"}},
        "month": {"date_histogram": {"field": "warc_ts",
                                     "calendar_interval": "month"}},
        "range": {"range": {"field": "doc_id", "ranges": [
            {"to": 20}, {"from": 20, "to": 50}, {"from": 50}]}},
        "card": {"cardinality": {"field": "url"}},
        "pcts": {"percentiles": {"field": "doc_id", "percents": qs}},
        "ranks": {"percentile_ranks": {"field": "doc_id", "values": ranks}},
        "comp": {"composite": {"size": 4, "after": {"d": 7}, "sources": [
            {"d": {"terms": {"field": "doc_id"}}}]}},
        "rare": {"rare_terms": {"field": "lang", "max_doc_count": 8}},
        "tstats": {"terms": {"field": "lang", "size": 100},
                   "aggs": {"s": {"stats": {"field": "doc_id"}}}},
        "top": {"terms": {"field": "lang", "size": 100},
                "aggs": {"t": {"top_hits": {
                    "size": 2, "sort": [{"doc_id": {"order": "desc"}}]}}}},
        "per": {"date_histogram": {"field": "warc_ts", "fixed_interval": "10s"},
                "aggs": {
                    "ids": ids,
                    "cum": {"cumulative_sum": {"buckets_path": "ids"}},
                    "der": {"derivative": {"buckets_path": "ids"}},
                    "sd": {"serial_diff": {"buckets_path": "ids", "lag": 2}},
                    "mov": {"moving_fn": {
                        "buckets_path": "ids", "window": 3,
                        "script": "MovingFunctions.unweightedAvg(values)"}},
                }},
        **{k: {k: {"buckets_path": "per>ids", "percents": qs}} for k in siblings},
    }}
    doors = []
    for fleet in (False, True):
        srv = SearchServer(root, backend="local").start()
        try:
            if fleet:
                srv._svc = _in_process_fleet(root, 3)
            code, out = _req(srv.port, "/_search", body=body)
            assert code == 200, out
            doors.append(out["aggregations"])
        finally:
            srv.stop()
    assert doors[0] == doors[1]
    rest = doors[0]

    bdir = mf.current_build(root) or root
    m = fx.match_doc_ids(IndexReader(bdir), ["node", "page"])
    assert 0 < len(m) < 90
    ds = ray.data.read_parquet(os.path.join(bdir, "docs"),
                               columns=["doc_id", "lang", "url", "warc_ts"])

    def rows(t):
        return t.to_pylist()

    def iso(epoch_s):
        return dt.datetime.utcfromtimestamp(epoch_s).isoformat()

    def us(col):
        return pc.cast(col, "int64").to_pylist()

    assert rest["terms"]["buckets"] == [
        {"key": r["value"], "doc_count": r["n_docs"]}
        for r in rows(fx.terms_facet(ds, m, "lang"))]
    (st,) = rows(fx.stats_facet(ds, m, "doc_id"))
    assert rest["stats"] == {"count": st["n_docs"], "min": st["min_v"],
                             "max": st["max_v"], "sum": st["sum_v"],
                             "avg": st["avg_v"]}
    (es,) = rows(fx.extended_stats_facet(ds, m, "doc_id"))
    assert rest["es"] == {
        "count": es["n_docs"], "min": es["min_v"], "max": es["max_v"],
        "sum": es["sum_v"], "avg": es["avg_v"], "sum_of_squares": es["sum_sq"],
        "variance": es["variance"], "std_deviation": es["std_dev"]}
    h = fx.histogram(ds, m, "doc_id", 10).sort_by("bucket")
    assert rest["hist"]["buckets"] == [
        {"key": float(r["bucket"]), "doc_count": r["n_docs"]} for r in rows(h)]
    h = fx.date_histogram(ds, m, "warc_ts", 10).sort_by("bucket")
    assert rest["fixed"]["buckets"] == [
        {"key": r["bucket"] * 10_000, "key_as_string": iso(r["bucket"] * 10),
         "doc_count": r["n_docs"]} for r in rows(h)]
    h = fx.date_histogram(ds, m, "warc_ts", "month").sort_by("bucket")
    assert rest["month"]["buckets"] == [
        {"key": b // 1000, "key_as_string": iso(b // 1_000_000), "doc_count": n}
        for b, n in zip(us(h["bucket"]), h["n_docs"].to_pylist())]
    want = []
    for r in rows(fx.range_facet(ds, m, "doc_id", ranges)):
        b = {"doc_count": r["n_docs"]}
        b.update({s: r[c] for s, c in (("from", "lo"), ("to", "hi"))
                  if abs(r[c]) != float("inf")})
        want.append(b)
    assert rest["range"]["buckets"] == want
    assert rest["card"]["value"] == fx.cardinality(ds, m, "url")["n_unique"][0].as_py()
    assert rest["pcts"]["values"] == {
        str(r["pct"]): r["value"] for r in rows(fx.percentiles(ds, m, "doc_id", qs))}
    assert rest["ranks"]["values"] == {
        str(r["value"]): r["rank_pct"]
        for r in rows(fx.percentile_ranks(ds, m, "doc_id", ranks))}
    page, after = fx.composite_facet(ds, m, "doc_id", size=4, after=7)
    assert rest["comp"] == {
        "buckets": [{"key": {"d": r["key"]}, "doc_count": r["n_docs"]}
                    for r in rows(page)],
        "after_key": {"d": after}}
    assert rest["rare"]["buckets"] == [
        {"key": r["value"], "doc_count": r["n_docs"]}
        for r in rows(fx.rare_terms_facet(ds, m, "lang", 8))]
    assert rest["tstats"]["buckets"] == [
        {"key": r["value"], "doc_count": r["n_docs"], "s": {
            "count": r["n_docs"], "min": r["min_v"], "max": r["max_v"],
            "sum": r["sum_v"], "avg": r["avg_v"]}}
        for r in rows(fx.terms_stats_facet(ds, m, "lang", "doc_id"))]
    tops = {}
    for r in rows(fx.top_hits(ds, m, "lang", "doc_id", k=2)):
        tops.setdefault(r["value"], []).append(r["doc_id"])
    assert {b["key"]: [int(x["_id"]) for x in b["t"]["hits"]["hits"]]
            for b in rest["top"]["buckets"]} == tops

    par = rows(fx.pipeline_aggs(ds, m, "warc_ts", 10, "doc_id", window=3))
    sib = rows(fx.sibling_pipeline_aggs(ds, m, "warc_ts", 10, "doc_id", lag=2))
    assert len(par) == len(sib) == len(rest["per"]["buckets"]) > 3
    for b, p, s in zip(rest["per"]["buckets"], par, sib):
        assert b["key"] == p["bucket"] * 10_000 and b["doc_count"] == p["n_docs"]
        got = {k: b[k]["value"] for k in ("ids", "cum", "der", "sd", "mov") if k in b}
        assert got == {k: v for k, v in (
            ("ids", p["sum_v"]), ("cum", p["cum_sum"]), ("der", p["deriv"]),
            ("sd", s["serial_diff"]), ("mov", p["moving_avg"])) if v is not None}
    s0, sums = sib[0], [p["sum_v"] for p in par]
    keys = [iso(p["bucket"] * 10) for p in par]
    assert rest["avg_bucket"] == {"value": s0["avg_bucket"]}
    assert rest["sum_bucket"] == {"value": s0["sum_bucket"]}
    for k in ("min", "max"):
        got = rest[f"{k}_bucket"]
        assert got["value"] == s0[f"{k}_bucket"]
        assert got["keys"][0] == iso(s0[f"{k}_bucket_key"] * 10)
    assert rest["stats_bucket"] == {
        "count": s0["stats_bucket_count"], "min": s0["min_bucket"],
        "max": s0["max_bucket"], "sum": s0["sum_bucket"], "avg": s0["avg_bucket"]}
    for k in ("percentiles_bucket", "extended_stats_bucket"):
        assert rest[k] == fx.bucket_metric(k, sums, keys, qs)
