"""Round-5 review regressions: Unicode-digit routing at every
``isdigit()``→``int()`` site, zero-interval rejection, composite
numeric ordering, sibling pct_of_sum zero-total, variance clamp."""

import json
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pyarrow as pa
import pytest


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


@pytest.fixture(scope="module")
def root(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("r5idx") / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(60, dup_every=0)),
        root,
        fingerprint="r5",
        num_parts=3,
        chain="simple",
        field="body",
    )
    return root


def test_sqs_unicode_digit_after_tilde_is_literal():
    """'²'.isdigit() is True but int('²') raises — the scanner must
    treat non-ASCII digits after '~' as ordinary word chars (the
    language's total-parse contract)."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.simpleqs import parse_simple_query_string

    an = Analyzer("simple")
    for q in ("~²", "word~²", "a~¹²³ b", "x~٢"):
        parse_simple_query_string(q, an)  # must not raise


def test_interval_routing_unicode_digit_and_zero():
    from docs_indexer_ray.query.facets import (
        is_fixed_interval,
        value_histogram,
        value_bucket_sums,
        date_histogram,
    )

    assert is_fixed_interval(3600) and is_fixed_interval("3600")
    assert not is_fixed_interval("month") and not is_fixed_interval("²")

    ts = pa.array(
        np.array([0, 10**15], np.int64).astype("datetime64[us]"),
        pa.timestamp("us"),
    )
    # unicode digit routes to the CALENDAR branch → unknown-unit error
    with pytest.raises(ValueError, match="calendar"):
        value_histogram(ts, "date_histogram", "²")
    # zero fixed width is refused, not silently bucket-0 (us // 0 == 0)
    for bad in (0, "0"):
        with pytest.raises(ValueError, match="> 0"):
            value_histogram(ts, "date_histogram", bad)
        with pytest.raises(ValueError, match="> 0"):
            value_bucket_sums(ts, pa.array([1, 2], pa.int64()),
                              "date_histogram", bad)
    with pytest.raises(ValueError, match="> 0"):
        value_histogram(pa.array([1.0, 2.0]), "histogram", 0)
    with pytest.raises(ValueError, match="> 0"):
        value_bucket_sums(pa.array([1.0, 2.0]),
                          pa.array([1, 2], pa.int64()), "histogram", 0)

    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "warc_ts": ts,
    }))
    with pytest.raises(ValueError, match="> 0"):
        date_histogram(ds, np.array([0, 1], np.int64), "warc_ts", 0)


def test_interval_seconds_rejects_zero():
    from docs_indexer_ray.query.dsl import _interval_seconds

    assert _interval_seconds("90s") == 90
    assert _interval_seconds("minute") == 60
    for bad in (0, "0s", "0m", -5):
        with pytest.raises(ValueError):
            _interval_seconds(bad)


def test_more_like_this_unicode_digit_id_is_dsl_error():
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node

    with pytest.raises(DslError, match="doc id"):
        dsl_to_node({"more_like_this": {"like": "²"}}, Analyzer("simple"))


def test_rest_bad_intervals_400_not_500(root, ray_session):
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="local").start()
    try:
        for iv in ("0s", "²", 0):
            code, r = _req(srv.port, "/_search", body={
                "query": {"match_all": {}}, "size": 0,
                "aggs": {"h": {"date_histogram":
                               {"field": "warc_ts", "fixed_interval": iv}}},
            })
            assert code == 400, (iv, code, r)
    finally:
        srv.stop()


def test_rest_composite_numeric_source_orders_numerically(root, ray_session):
    """A composite terms source over doc_id must page 9 < 10 (native
    numeric order), not "10" < "9" — and after_key resumption must
    cover every key exactly once in that order."""
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="local").start()
    try:
        seen, after = [], None
        while True:
            comp = {"size": 7,
                    "sources": [{"d": {"terms": {"field": "doc_id"}}}]}
            if after is not None:
                comp["after"] = {"d": after}
            code, r = _req(srv.port, "/_search", body={
                "query": {"match_all": {}}, "size": 0,
                "aggs": {"pg": {"composite": comp}},
            })
            assert code == 200, r
            pg = r["aggregations"]["pg"]
            seen += [b["key"]["d"] for b in pg["buckets"]]
            if "after_key" not in pg:
                break
            after = pg["after_key"]["d"]
        # keys must come back as INTS (not vacuously-sorted strings:
        # both facet backends stringify, so the renderer must parse
        # integer-literal key sets back) in numeric ascending order,
        # crossing the "9" < "10" boundary the lexicographic order
        # would flip
        assert all(isinstance(k, int) for k in seen), seen[:5]
        assert seen == sorted(seen), seen
        assert len(seen) == len(set(seen)) == 60
        assert seen.index(10) == seen.index(9) + 1
    finally:
        srv.stop()


def test_sibling_pct_of_sum_zero_total_is_null(ray_session):
    import ray.data

    from docs_indexer_ray.query.facets import sibling_pipeline_aggs

    n = 8
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "warc_ts": pa.array(
            (np.arange(n, dtype=np.int64) * 90_000_000)
            .astype("datetime64[us]"),
            pa.timestamp("us"),
        ),
        "zmetric": pa.array(np.zeros(n, np.int64), pa.int64()),
    }))
    t = sibling_pipeline_aggs(
        ds, np.arange(n, dtype=np.int64), ts_col="warc_ts",
        interval_s=60, metric_col="zmetric", lag=1,
    )
    assert len(t) > 0
    assert t["pct_of_sum"].null_count == len(t)  # not a ZeroDivisionError
    assert t["sum_bucket"].to_pylist() == [0] * len(t)


def test_extended_stats_variance_nonnegative(root, ray_session):
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="local").start()
    try:
        code, r = _req(srv.port, "/_search", body={
            "query": {"match_all": {}}, "size": 0,
            "aggs": {"es": {"extended_stats": {"field": "doc_id"}}},
        })
        assert code == 200, r
        es = r["aggregations"]["es"]
        assert es["variance"] >= 0.0
        assert abs(es["std_deviation"] - es["variance"] ** 0.5) < 1e-12
    finally:
        srv.stop()


def test_collapse_top_high_cardinality_and_null_groups(ray_session):
    """Post-k-cap collapse: a NEAR-UNIQUE collapse field (every doc
    its own group, plus a couple of shared groups and a null group)
    must still return exactly the brute-force top-k — the partial cap
    at k rows per block cannot change the answer."""
    import ray.data

    from docs_indexer_ray.query.facets import collapse_top

    n = 400
    rng = np.random.RandomState(7)
    scores = rng.rand(n) + 0.01
    # near-unique: 90% unique keys, docs 0-19 share "hot", 20-29 null
    vals = [f"u{i}" for i in range(n)]
    for i in range(20):
        vals[i] = "hot"
    for i in range(20, 30):
        vals[i] = None
    docs = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "grp": pa.array(vals, pa.string()),
    })
    k = 7
    got = collapse_top(
        ray.data.from_arrow(docs).repartition(11), scores, "grp", k=k
    )
    # brute force
    best = {}
    for d in range(n):
        g = vals[d]
        cur = best.get(g)
        if cur is None or (-scores[d], d) < (-scores[cur], cur):
            best[g] = d
    ranked = sorted(best.items(), key=lambda kv: (-scores[kv[1]], kv[1]))[:k]
    assert got["doc_id"].to_pylist() == [d for _, d in ranked]
    assert got["value"].to_pylist() == [str(g) for g, _ in ranked]
    # parallelism invariance with the cap in play
    got3 = collapse_top(
        ray.data.from_arrow(docs).repartition(3), scores, "grp", k=k
    )
    assert got.equals(got3)
    # no partial may exceed k rows: with 11 blocks the driver concat
    # is bounded by k*blocks even though the field is near-unique
    assert got.num_rows == k


def test_sketch_hashers_agree_on_planted_dups(ray_session):
    """The md5 base hash (the SQL-replayable driver mode) and the crc
    production default must find the same planted exact-dup pairs —
    the hash family changes bucket layout, not what a near-dup is."""
    import ray.data

    from docs_indexer_ray.ops.dedup import minhash_lsh_pairs, simhash_pairs

    n = 60
    texts = [
        f"alpha beta gamma delta epsilon zeta {i} eta theta iota kappa "
        f"lambda mu nu xi omicron pi rho sigma tau upsilon"
        for i in range(n)
    ]
    # plant exact copies of docs 0..9 at ids 100..109
    tbl = pa.table({
        "doc_id": pa.array(list(range(n)) + list(range(100, 110)), pa.int64()),
        "text": pa.array(texts + texts[:10], pa.string()),
    })
    ds = ray.data.from_arrow(tbl).repartition(4)
    planted = {(i, 100 + i) for i in range(10)}
    for hasher in ("crc", "md5"):
        mh = pa.concat_tables([
            t for t in __import__(
                "docs_indexer_ray.collect", fromlist=["tables_of"]
            ).tables_of(minhash_lsh_pairs(ds, threshold=0.9, hasher=hasher))
        ])
        got = set(zip(mh["a"].to_pylist(), mh["b"].to_pylist()))
        assert planted <= got, (hasher, planted - got)
        sh = pa.concat_tables([
            t for t in __import__(
                "docs_indexer_ray.collect", fromlist=["tables_of"]
            ).tables_of(simhash_pairs(ds, max_hamming=0, hasher=hasher))
        ])
        got_s = set(zip(sh["a"].to_pylist(), sh["b"].to_pylist()))
        assert planted <= got_s, (hasher, planted - got_s)


def test_scroll_size_edge_cases_never_500(root, ray_session):
    """Fuzz-found: GET scroll with size=0 (empty page has no last hit
    to cursor from) and size=-1 (negative paging) both 500ed; now a
    clean 200-with-exhausted-scroll and a 400 respectively."""
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(root, backend="local").start()
    try:
        code, r = _req(srv.port, "/_search", q="node", scroll="1m", size="0")
        assert code == 200, r
        sid = r["_scroll_id"]
        code, r2 = _req(srv.port, "/_search/scroll",
                        body={"scroll_id": sid})
        assert code == 200 and r2["hits"]["hits"] == []
        for bad in ({"size": "-1"}, {"from": "-3"}):
            code, r = _req(srv.port, "/_search", q="node", **bad)
            assert code == 400, (bad, code, r)
    finally:
        srv.stop()


def test_rest_composite_sharded_bounded_pages(root, ray_session):
    """The round-5 BOUNDED composite path on the shard fleet: pages
    over a numeric near-unique source (doc_id) and a string source
    (lang) must equal the local backend's pages — each shard ships
    only O(size) rows per page (the scatter's composite op)."""
    from docs_indexer_ray.serve_http import SearchServer

    def walk(srv, field, size):
        seen, after = [], None
        while True:
            comp = {"size": size,
                    "sources": [{"s": {"terms": {"field": field}}}]}
            if after is not None:
                comp["after"] = {"s": after}
            code, r = _req(srv.port, "/_search", body={
                "query": {"match_all": {}}, "size": 0,
                "aggs": {"pg": {"composite": comp}},
            })
            assert code == 200, r
            pg = r["aggregations"]["pg"]
            seen += [(b["key"]["s"], b["doc_count"]) for b in pg["buckets"]]
            if "after_key" not in pg:
                break
            after = pg["after_key"]["s"]
        return seen

    srv_l = SearchServer(root, backend="local").start()
    try:
        local_did = walk(srv_l, "doc_id", 7)
        local_lang = walk(srv_l, "lang", 2)
    finally:
        srv_l.stop()
    srv_s = SearchServer(root, backend="sharded", n_shards=3).start()
    try:
        assert walk(srv_s, "doc_id", 7) == local_did
        assert walk(srv_s, "lang", 2) == local_lang
    finally:
        srv_s.stop()
    assert [k for k, _ in local_did] == sorted(k for k, _ in local_did)
    assert len(local_did) == 60
    # an out-of-type cursor is a 400, not a 500
    srv_l = SearchServer(root, backend="local").start()
    try:
        code, r = _req(srv_l.port, "/_search", body={
            "query": {"match_all": {}}, "size": 0,
            "aggs": {"pg": {"composite": {"size": 3, "sources": [
                {"s": {"terms": {"field": "doc_id"}}}],
                "after": {"s": "not-an-int"}}}},
        })
        assert code == 400, (code, r)
    finally:
        srv_l.stop()


def test_second_review_fixes(root, ray_session):
    """Second self-review batch: any_of of never-matching alternatives
    must not widen bools; composite cursor validation is backend-
    independent (400 even on an empty match set, sharded too);
    composite size <= 0 is a 400; NaN histogram intervals refused."""
    import pytest as _pytest

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import dsl_to_node
    from docs_indexer_ray.query.facets import histogram, value_histogram
    from docs_indexer_ray.query.qstring import _Bool
    from docs_indexer_ray.serve_http import SearchServer

    # 1. any_of wrapping a never-matching all_of → match-nothing node
    en = Analyzer("english")
    nv = dsl_to_node({"intervals": {"body": {"any_of": {"intervals": [
        {"all_of": {"intervals": [
            {"match": {"query": "the"}}, {"match": {"query": "alpha"}},
        ]}},
    ]}}}}, en)
    assert isinstance(nv, _Bool) and not nv.must and not nv.should
    # …and (fourth pass: UNIFORM Lucene semantics) a stopword-only
    # alternative alone also matches NOTHING — an empty-analysis
    # intervals source never produces an interval at any level
    nv1 = dsl_to_node({"intervals": {"body": {"any_of": {"intervals": [
        {"match": {"query": "the"}},
    ]}}}}, en)
    assert isinstance(nv1, _Bool) and not nv1.must and not nv1.should

    # 4. NaN intervals refused everywhere the zero guard lives
    import ray.data
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "v": pa.array([1.0, 2.0]),
    }))
    with _pytest.raises(ValueError, match="> 0"):
        histogram(ds, np.array([0, 1], np.int64), "v", float("nan"))
    with _pytest.raises(ValueError, match="> 0"):
        value_histogram(pa.array([1.0, 2.0]), "histogram", float("nan"))

    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            # 2. out-of-type cursor is a 400 on BOTH backends even
            # when the query matches nothing
            code, r = _req(srv.port, "/_search", body={
                "query": {"match": {"body": "zzznotindexed"}}, "size": 0,
                "aggs": {"pg": {"composite": {"size": 3, "sources": [
                    {"s": {"terms": {"field": "doc_id"}}}],
                    "after": {"s": "not-an-int"}}}},
            })
            assert code == 400, (backend, code, r)
            # 3. size <= 0 is a 400, not an empty 200
            for bad in (0, -1):
                code, r = _req(srv.port, "/_search", body={
                    "query": {"match_all": {}}, "size": 0,
                    "aggs": {"pg": {"composite": {"size": bad, "sources": [
                        {"s": {"terms": {"field": "doc_id"}}}]}}},
                })
                assert code == 400, (backend, bad, code, r)
        finally:
            srv.stop()


def test_third_review_fixes(root, ray_session):
    """Third self-review batch: oversized/infinite numeric inputs map
    to 400 (OverflowError joins the 400 tuples), histogram intervals
    must be positive AND finite, and any_of stays union-monotone when
    mixing a no-op alternative with an impossible one."""
    import pytest as _pytest

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import dsl_to_node
    from docs_indexer_ray.query.facets import composite_page, value_histogram
    from docs_indexer_ray.serve_http import SearchServer

    # oversized int cursor → ValueError (→ 400), not OverflowError
    with _pytest.raises(ValueError, match="does not fit"):
        composite_page(pa.array(np.arange(5), pa.int64()), 2 ** 70, 3)

    # inf interval refused at the kernel
    with _pytest.raises(ValueError, match="finite"):
        value_histogram(pa.array([1.0, 2.0]), "histogram", float("inf"))

    # any_of over two never-matching alternatives: still match-nothing
    # (fourth pass: empty-analysis sources match nothing UNIFORMLY, so
    # unions stay monotone — adding the impossible all_of to the
    # never-matching stopword alternative changes nothing)
    from docs_indexer_ray.query.qstring import _Bool as _B

    en = Analyzer("english")
    nvm = dsl_to_node({"intervals": {"body": {"any_of": {"intervals": [
        {"match": {"query": "the"}},
        {"all_of": {"intervals": [
            {"match": {"query": "the"}}, {"match": {"query": "alpha"}},
        ]}},
    ]}}}}, en)
    assert isinstance(nvm, _B) and not nvm.must and not nvm.should

    srv = SearchServer(root, backend="local").start()
    try:
        # 1e999 parses as inf; int(inf) used to 500 via OverflowError
        for body in (
            {"aggs": {"h": {"histogram": {"field": "doc_id",
                                          "interval": 1e999}}}},
            {"aggs": {"pg": {"composite": {"size": 3, "sources": [
                {"s": {"terms": {"field": "doc_id"}}}],
                "after": {"s": 2 ** 70}}}}},
        ):
            code, r = _req(srv.port, "/_search", body={
                "query": {"match_all": {}}, "size": 0, **body})
            assert code == 400, (body, code, r)
    finally:
        srv.stop()


def test_fourth_review_fixes(root, ray_session):
    """Fourth self-review batch: 2^63-bounded histogram intervals;
    uniform matches-nothing for empty-analysis intervals (fast path
    AND extents, union-monotone by construction); filter specs are
    validated even on degenerate (never-matching) sources."""
    import pytest as _pytest

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.facets import value_histogram
    from docs_indexer_ray.query.qstring import _Bool, query_string_topk
    from docs_indexer_ray.query.reader import IndexReader

    # huge finite interval would overflow the int64 bucket key
    with _pytest.raises(ValueError, match="2\\^63"):
        value_histogram(pa.array([-5.0, 3.0]), "histogram", 1e19)

    en = Analyzer("english")
    # fast path: a stopword-only match is match-nothing, not dropped
    nv = dsl_to_node({"intervals": {"body": {"match": {
        "query": "the"}}}}, en)
    assert isinstance(nv, _Bool) and not nv.must and not nv.should
    # union monotonicity holds with a concrete alternative: ADDING a
    # never-matching alternative ("!!!" analyzes to no tokens on the
    # simple chain) must not change the union
    reader = IndexReader(root)
    only_node = {d for d, _ in query_string_topk(reader, {"intervals": {
        "body": {"match": {"query": "node"}}}}, k=1000)}
    union = {d for d, _ in query_string_topk(reader, {"intervals": {
        "body": {"any_of": {"intervals": [
            {"match": {"query": "node"}},
            {"match": {"query": "!!!"}},
        ]}}}}, k=1000)}
    assert union == only_node and only_node

    # malformed filter on a degenerate source still refuses loudly
    for bad in (
        {"intervals": {"body": {"any_of": {
            "intervals": [{"match": {"query": "the"}}],
            "filter": {"script": {"source": "x"}}}}}},
        {"intervals": {"body": {"match": {
            "query": "the", "filter": {"nonsense": {"match": {
                "query": "alpha"}}}}}}},
    ):
        with _pytest.raises(DslError):
            dsl_to_node(bad, en)
