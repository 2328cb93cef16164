"""OpenSearch JSON query DSL (query/dsl.py): lowering onto the
query_string AST, equivalence with the mini-language on every backend,
and the POST /_search body interface."""

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

    root = str(tmp_path_factory.mktemp("dslidx") / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(90, dup_every=0)),
        root,
        fingerprint="dsl",
        num_parts=4,
        chain="simple",
        field="body",
        store_positions=True,
    )
    return IndexReader(root)


def _an():
    from docs_indexer_ray.functions.analyzer import Analyzer

    return Analyzer("simple")


def test_dsl_lowering_shapes():
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import (
        _Bool,
        _Fuzzy,
        _Phrase,
        _Term,
        _Wildcard,
    )

    an = _an()
    # match OR (default) / AND / single-token / fuzziness / boost
    n = dsl_to_node({"match": {"body": "node pools"}}, an)
    assert isinstance(n, _Bool) and [t.term for t in n.should] == ["node", "pools"]
    n = dsl_to_node(
        {"match": {"body": {"query": "node pools", "operator": "and"}}}, an
    )
    assert isinstance(n, _Bool) and len(n.must) == 2 and not n.should
    n = dsl_to_node({"match": {"body": {"query": "node", "boost": 2.0}}}, an)
    assert isinstance(n, _Term) and n.boost == 2.0
    n = dsl_to_node(
        {"match": {"body": {"query": "node pools", "fuzziness": 1}}}, an
    )
    assert all(isinstance(c, _Fuzzy) and c.max_edits == 1 for c in n.should)
    # match_phrase with slop; single-token phrase degrades to a term
    n = dsl_to_node(
        {"match_phrase": {"body": {"query": "node pools", "slop": 2}}}, an
    )
    assert isinstance(n, _Phrase) and n.slop == 2
    assert isinstance(dsl_to_node({"match_phrase": {"body": "node"}}, an), _Term)
    # term is NOT analyzed (keyword semantics), only lowercased
    n = dsl_to_node({"term": {"body": {"value": "Nodes"}}}, an)
    assert isinstance(n, _Term) and n.term == "nodes"  # no stemming/analysis
    # terms → should-of-terms
    n = dsl_to_node({"terms": {"body": ["a", "B"]}}, an)
    assert [t.term for t in n.should] == ["a", "b"]
    # fuzzy AUTO / int; wildcard; prefix appends *
    assert dsl_to_node({"fuzzy": {"body": {"value": "noode"}}}, an).max_edits is None
    assert dsl_to_node(
        {"fuzzy": {"body": {"value": "noode", "fuzziness": 2}}}, an
    ).max_edits == 2
    assert dsl_to_node({"wildcard": {"body": "nod*"}}, an).pattern == "nod*"
    w = dsl_to_node({"prefix": {"body": "nod"}}, an)
    assert isinstance(w, _Wildcard) and w.pattern == "nod*"
    # bool: filter lowers to must; nesting; empty bool → None
    n = dsl_to_node(
        {"bool": {
            "must": {"match": {"body": "node"}},
            "filter": [{"term": {"body": "pools"}}],
            "must_not": [{"match": {"body": "quota"}}],
            "should": [{"match_phrase": {"body": "node pools"}}],
        }},
        an,
    )
    assert len(n.must) == 2 and len(n.must_not) == 1 and len(n.should) == 1
    assert dsl_to_node({"bool": {"must": []}}, an) is None
    # embedded query_string
    n = dsl_to_node({"query_string": {"query": "+node -quota"}}, an)
    assert isinstance(n, _Bool)
    # range: stored-field predicate leaf (gte/gt/lte/lt, boost)
    from docs_indexer_ray.query.qstring import _Range

    n = dsl_to_node(
        {"range": {"warc_ts": {"gte": "2025-01-01T00:00:00",
                               "lt": "2025-06-01T00:00:00", "boost": 2.0}}},
        an,
    )
    assert isinstance(n, _Range) and n.col == "warc_ts" and n.boost == 2.0
    assert sorted(op for op, _ in n.bounds) == ["<", ">="]
    with pytest.raises(DslError):
        dsl_to_node({"range": {"warc_ts": {"eq": 3}}}, an)
    with pytest.raises(DslError):
        dsl_to_node({"range": {"warc_ts": "2025"}}, an)
    # errors: unsupported clause / malformed shapes
    with pytest.raises(DslError):
        dsl_to_node({"intervals": {"body": "n"}}, an)
    with pytest.raises(DslError):
        dsl_to_node({"match": {"a": "x", "b": "y"}}, an)
    with pytest.raises(DslError):
        dsl_to_node({"bool": {"nope": []}}, an)
    with pytest.raises(DslError):
        dsl_to_node({"match": {"body": {"boost": 2.0}}}, an)  # no 'query'


DSL_VS_QS = [
    ({"match": {"body": "node pools quota"}}, "node pools quota"),
    (
        {"match": {"body": {"query": "node pools", "operator": "and"}}},
        "node AND pools",
    ),
    ({"match_phrase": {"body": "node pools"}}, '"node pools"'),
    (
        {"match_phrase": {"body": {"query": "node pools", "slop": 1}}},
        '"node pools"~1',
    ),
    ({"fuzzy": {"body": {"value": "noode", "fuzziness": 1}}}, "noode~1"),
    ({"wildcard": {"body": "nod*"}}, "nod*"),
    (
        {"bool": {
            "must": [{"match": {"body": "node"}}],
            "must_not": [{"match": {"body": "quota"}}],
            "should": [{"match_phrase": {"body": "node pools"}}],
        }},
        '+node -quota "node pools"',
    ),
    (
        {"query_string": {"query": '(node OR quota) AND NOT namespace'}},
        "(node OR quota) AND NOT namespace",
    ),
]


def test_dsl_ranking_equals_query_string(built):
    """Each DSL body ranks identically to its query_string spelling —
    same AST, same evaluation."""
    from docs_indexer_ray.query.qstring import query_string_topk

    for dsl, qs in DSL_VS_QS:
        got = query_string_topk(built, dsl, k=12)
        want = query_string_topk(built, qs, k=12)
        assert got == want, (dsl, qs)


def test_dsl_on_the_sharded_fleet(built, ray_session):
    """A DSL dict rides to the shard actors like a string: fleet
    results ≡ local for rank, count and facets."""
    import os

    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.served import ShardedQueryService

    root = os.path.dirname(built.index_dir)
    svc = ShardedQueryService(root, n_shards=3, chain=built.chain)
    try:
        for dsl, qs in DSL_VS_QS:
            assert svc.query_string(dsl, k=12) == query_string_topk(
                built, qs, k=12
            ), (dsl, qs)
        dsl = DSL_VS_QS[0][0]
        assert svc.query_phase(dsl, True)[1] == svc.query_phase(
            DSL_VS_QS[0][1], True
        )[1]
    finally:
        svc.shutdown()


def test_dsl_range_filter_local_and_sharded(built, ray_session):
    """``range`` over the stored ``warc_ts`` column: bool(must match +
    filter range) ranks exactly the BM25 order restricted to the
    allowed window — on the local reader AND the fleet (each shard
    builds only ITS slice of the mask via reader.stored_mask)."""
    import datetime as _dt
    import os

    import pyarrow.dataset as pads

    from docs_indexer_ray.query.bm25 import score_topk
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.served import ShardedQueryService

    docs = pads.dataset(
        os.path.join(built.index_dir, "docs"), partitioning="hive"
    ).to_table(columns=["doc_id", "warc_ts"])
    ts = sorted(docs["warc_ts"].to_pylist())
    lo_cut, hi_cut = ts[len(ts) // 4], ts[3 * len(ts) // 4]
    allowed = {
        int(d)
        for d, t in zip(docs["doc_id"].to_pylist(), docs["warc_ts"].to_pylist())
        if lo_cut <= t < hi_cut
    }
    assert 0 < len(allowed) < docs.num_rows

    # independent reference: full BM25 ranking filtered by the window
    full = score_topk(built, ["node"], k=built.n_docs)
    want_ids = [d for d, _ in full if d in allowed][:12]

    dsl = {"bool": {
        "must": [{"match": {"body": "node"}}],
        "filter": [{"range": {"warc_ts": {
            "gte": lo_cut.isoformat(), "lt": hi_cut.isoformat()}}}],
    }}
    got = query_string_topk(built, dsl, k=12)
    assert [d for d, _ in got] == want_ids
    # the filter clause scores a constant +1.0 on every hit (filter ≡
    # must here — documented); order is unchanged by a constant
    assert all(s > 1.0 for _, s in got)

    root = os.path.dirname(built.index_dir)
    svc = ShardedQueryService(root, n_shards=3, chain=built.chain)
    try:
        assert [d for d, _ in svc.query_string(dsl, k=12)] == want_ids
        assert svc.query_phase(dsl, True)[1] == len(
            {d for d, _ in full} & allowed
        )
        # memoized mask: second query reuses each shard's slice
        assert [d for d, _ in svc.query_string(dsl, k=12)] == want_ids
    finally:
        svc.shutdown()

    # a pure range query matches the window with constant scores
    got = query_string_topk(
        built,
        {"range": {"warc_ts": {"gte": lo_cut.isoformat(),
                               "lt": hi_cut.isoformat()}}},
        k=len(allowed) + 5,
    )
    assert {d for d, _ in got} == allowed
    assert all(s == 1.0 for _, s in got)
    assert isinstance(lo_cut, _dt.datetime)


def _req(port: int, path: str, body: dict | None = None, **params):
    url = f"http://127.0.0.1:{port}{path}"
    if params:
        url += "?" + urllib.parse.urlencode(params)
    data = json.dumps(body).encode() if body is not None else None
    try:
        with urllib.request.urlopen(url, data=data) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_http_post_search_dsl(built, ray_session):
    """POST /_search with a JSON body on both backends: DSL query ≡
    the GET query_string spelling; size/from/search_after/_source/
    highlight/aggs map through; aggs keyed by agg NAME; bad DSL → 400."""
    import os

    from docs_indexer_ray.serve_http import SearchServer

    root = os.path.dirname(built.index_dir)
    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            body = {
                "query": {"bool": {
                    "must": [{"match": {"body": "node"}}],
                    "should": [{"match_phrase": {"body": "node pools"}}],
                }},
                "size": 5,
                "_source": ["url"],
                "highlight": {"fields": {"body": {}}},
                "aggs": {"by_lang": {"terms": {"field": "lang", "size": 3}}},
            }
            code, post = _req(srv.port, "/_search", body=body)
            assert code == 200, post
            code, get = _req(
                srv.port, "/_search", q='+node "node pools"', syntax=1,
                k=5, fields="url", highlight="body", agg_terms="lang",
                agg_size=3,
            )
            assert post["hits"] == get["hits"]
            # aggs re-keyed by the agg name, values identical
            assert post["aggregations"]["by_lang"] == \
                get["aggregations"]["lang"]

            # body pagination: from/size slice, search_after continues
            big = _req(srv.port, "/_search",
                       body={"query": body["query"], "size": 9})[1]
            ids = [h["_id"] for h in big["hits"]["hits"]]
            p2 = _req(srv.port, "/_search",
                      body={"query": body["query"], "size": 3, "from": 3})[1]
            assert [h["_id"] for h in p2["hits"]["hits"]] == ids[3:6]
            cur = big["hits"]["hits"][5]["sort"]
            p3 = _req(srv.port, "/_search",
                      body={"query": body["query"], "size": 3,
                            "search_after": cur})[1]
            assert [h["_id"] for h in p3["hits"]["hits"]] == ids[6:9]

            # _msearch accepts DSL lines
            nd = json.dumps({"query": body["query"], "k": 3,
                             "fields": ["url"]}) + "\n"
            req = urllib.request.Request(
                f"http://127.0.0.1:{srv.port}/_msearch",
                data=nd.encode(), method="POST",
            )
            with urllib.request.urlopen(req) as r:
                ms = json.loads(r.read())
            assert [h["_id"] for h in ms["responses"][0]["hits"]["hits"]] \
                == ids[:3]

            code, err = _req(srv.port, "/_search",
                             body={"query": {"intervals": {"body": "n"}}})
            assert code == 400 and err["error"]["type"] == "DslError"
        finally:
            srv.stop()


# ------------------------------------------------- round-3 DSL additions


def test_dsl_new_clause_lowering_shapes():
    """match_all / ids / exists / constant_score / dis_max / boosting /
    match_bool_prefix / match_phrase_prefix / regexp lower onto the
    new AST leaves, with loud errors on malformed bodies."""
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import (
        _Bool,
        _Boosting,
        _ConstScore,
        _DisMax,
        _Ids,
        _MatchAll,
        _PhrasePrefix,
        _Range,
        _Regexp,
        _Term,
        _Wildcard,
    )

    an = _an()
    n = dsl_to_node({"match_all": {}}, an)
    assert isinstance(n, _MatchAll) and n.boost == 1.0
    assert dsl_to_node({"match_all": {"boost": 2.0}}, an).boost == 2.0
    with pytest.raises(DslError):
        dsl_to_node({"match_all": {"norm": True}}, an)

    n = dsl_to_node({"ids": {"values": [3, "7"]}}, an)
    assert isinstance(n, _Ids) and n.ids == [3, 7]
    with pytest.raises(DslError):
        dsl_to_node({"ids": {"values": 3}}, an)

    n = dsl_to_node({"exists": {"field": "extras"}}, an)
    assert isinstance(n, _Range) and n.bounds == [("exists", None)]
    with pytest.raises(DslError):
        dsl_to_node({"exists": {"feeld": "x"}}, an)

    n = dsl_to_node(
        {"constant_score": {"filter": {"match": {"body": "node"}},
                            "boost": 1.5}}, an
    )
    assert isinstance(n, _ConstScore) and n.boost == 1.5
    assert isinstance(n.child, _Term)
    # a filter that analyzes away → the whole clause vanishes
    assert dsl_to_node(
        {"constant_score": {"filter": {"match": {"body": "…"}}}}, an
    ) is None
    with pytest.raises(DslError):
        dsl_to_node({"constant_score": {"boost": 2.0}}, an)

    n = dsl_to_node(
        {"dis_max": {"queries": [{"match": {"body": "node"}},
                                 {"match": {"body": "pools"}}],
                     "tie_breaker": 0.3}}, an
    )
    assert isinstance(n, _DisMax) and n.tie_breaker == 0.3
    assert len(n.children) == 2
    with pytest.raises(DslError):
        dsl_to_node({"dis_max": {"tie_breaker": 0.3}}, an)

    n = dsl_to_node(
        {"boosting": {"positive": {"match": {"body": "node"}},
                      "negative": {"match": {"body": "quota"}},
                      "negative_boost": 0.25}}, an
    )
    assert isinstance(n, _Boosting) and n.negative_boost == 0.25
    # a negative that analyzes away → the positive stands alone
    n = dsl_to_node(
        {"boosting": {"positive": {"match": {"body": "node"}},
                      "negative": {"match": {"body": "…"}}}}, an
    )
    assert isinstance(n, _Term)
    with pytest.raises(DslError):
        dsl_to_node({"boosting": {"positive": {"match": {"body": "x"}}}}, an)

    n = dsl_to_node({"match_bool_prefix": {"body": "node poo"}}, an)
    assert isinstance(n, _Bool) and isinstance(n.should[0], _Term)
    assert isinstance(n.should[1], _Wildcard)
    assert n.should[1].pattern == "poo*"
    n = dsl_to_node({"match_bool_prefix": {"body": "poo"}}, an)
    assert isinstance(n, _Wildcard) and n.pattern == "poo*"

    n = dsl_to_node(
        {"match_phrase_prefix": {"body": {"query": "node poo",
                                          "max_expansions": 7}}}, an
    )
    assert isinstance(n, _PhrasePrefix) and n.terms == ["node", "poo"]
    assert n.max_expansions == 7

    n = dsl_to_node({"regexp": {"body": "nod.*"}}, an)
    assert isinstance(n, _Regexp) and n.pattern == "nod.*"


def test_dsl_match_all_ids_exists_semantics(built):
    """match_all = every doc at constant boost; ids = exact membership
    (out-of-range values silently don't match); exists = stored-column
    non-null (extras IS null on plain pages), unmapped field = nothing."""
    import numpy as np

    from docs_indexer_ray.query.qstring import query_string_topk

    n = built.n_docs
    got = query_string_topk(built, {"match_all": {}}, k=n + 5)
    assert len(got) == n
    assert all(s == 1.0 for _, s in got)
    assert [d for d, _ in got] == list(range(n))  # score ties → doc asc

    got = query_string_topk(
        built, {"ids": {"values": [5, 2, 999_999, 2]}}, k=10
    )
    assert [d for d, _ in got] == [2, 5] and all(s == 1.0 for _, s in got)

    # extras: null exactly on pages without unmapped front-matter keys
    import os

    import pyarrow.dataset as pads

    docs = pads.dataset(
        os.path.join(built.index_dir, "docs"), partitioning="hive"
    ).to_table(columns=["doc_id", "extras"])
    with_extras = {
        int(d)
        for d, e in zip(docs["doc_id"].to_pylist(), docs["extras"].to_pylist())
        if e is not None
    }
    assert 0 < len(with_extras) < n  # genuinely mixed on the rich corpus
    got = query_string_topk(built, {"exists": {"field": "extras"}}, k=n + 5)
    assert {d for d, _ in got} == with_extras

    # unmapped field: matches nothing (OpenSearch), never raises
    from docs_indexer_ray.query.qstring import QueryStringError

    with pytest.raises(QueryStringError):  # zero clauses match → empty
        query_string_topk(built, {"bool": {}}, k=5)
    got = query_string_topk(
        built,
        {"bool": {"must": [{"match": {"body": "node"}}],
                  "must_not": [{"exists": {"field": "no_such_col"}}]}},
        k=5,
    )
    assert got == query_string_topk(built, "node", k=5)
    assert np.all([s > 0 for _, s in got])


def test_dsl_constant_score_and_dismax(built):
    """constant_score: the filter's match set, every score == boost.
    dis_max: best child + tie_breaker × the rest, union membership —
    verified against an independent per-child evaluation."""
    import numpy as np

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.qstring import (
        _eval,
        parse_query_string,
        query_string_topk,
    )

    an = Analyzer(built.chain)
    inner = {"match": {"body": "node pools"}}
    got = query_string_topk(
        built, {"constant_score": {"filter": inner, "boost": 2.5}},
        k=built.n_docs,
    )
    want_match = {
        d for d, _ in query_string_topk(built, inner, k=built.n_docs)
    }
    assert {d for d, _ in got} == want_match
    assert all(s == 2.5 for _, s in got)

    legs = [{"match": {"body": "node"}},
            {"match": {"body": "pools"}},
            {"match_phrase": {"body": "node pools"}}]
    tie = 0.4
    dis = {"dis_max": {"queries": legs, "tie_breaker": tie, "boost": 1.0}}
    got = dict(query_string_topk(built, dis, k=built.n_docs))

    mats = [_eval(built, parse_query_string(leg, an)) for leg in legs]
    scores = np.stack([s for s, _ in mats])
    union = np.logical_or.reduce([m for _, m in mats])
    best = scores.max(axis=0)
    expect = best + tie * (scores.sum(axis=0) - best)
    for d in range(built.n_docs):
        if union[d]:
            assert got[d] == pytest.approx(round(expect[d], 9), abs=1e-12)
        else:
            assert d not in got


def test_dsl_boosting_and_regexp(built):
    """boosting: positive's scores × negative_boost where the negative
    matches (membership unchanged) — regexp ≡ the equivalent wildcard."""
    from docs_indexer_ray.query.qstring import query_string_topk

    pos = {"match": {"body": "node pools"}}
    neg = {"match": {"body": "namespace"}}
    base = dict(query_string_topk(built, pos, k=built.n_docs))
    negm = {d for d, _ in query_string_topk(built, neg, k=built.n_docs)}
    got = dict(query_string_topk(
        built,
        {"boosting": {"positive": pos, "negative": neg,
                      "negative_boost": 0.25}},
        k=built.n_docs,
    ))
    assert set(got) == set(base)
    for d, s in base.items():
        want = s * 0.25 if d in negm else s
        assert got[d] == pytest.approx(round(want, 9), abs=1e-12)

    rx = query_string_topk(built, {"regexp": {"body": "nod.*"}},
                           k=built.n_docs)
    wc = query_string_topk(built, {"wildcard": {"body": "nod*"}},
                           k=built.n_docs)
    assert rx == wc and len(rx) > 0


def test_dsl_phrase_and_bool_prefix(built):
    """match_bool_prefix ≡ its query_string spelling; match_phrase_prefix
    ≡ an explicit should-of-phrases over the dictionary expansions."""
    from docs_indexer_ray.query.qstring import query_string_topk

    got = query_string_topk(
        built, {"match_bool_prefix": {"body": "node poo"}}, k=20
    )
    want = query_string_topk(built, "node OR poo*", k=20)
    assert got == want

    exp = sorted(t for t, _ in built.prefix_terms("poo", limit=1 << 30))
    assert exp  # 'pools' at least
    manual = {"bool": {"should": [
        {"match_phrase": {"body": f"node {e}"}} for e in exp
    ]}}
    got = query_string_topk(
        built, {"match_phrase_prefix": {"body": "node poo"}}, k=30
    )
    # the manual bool analyzes each completed phrase through the chain —
    # identical leaves, identical ranking
    assert got == query_string_topk(built, manual, k=30)
    assert len(got) > 0

    # a prefix with no dictionary completions matches nothing
    assert query_string_topk(
        built,
        {"match_phrase_prefix": {"body": {"query": "node zzz"}}},
        k=5,
    ) == []


def test_dsl_new_clauses_on_the_sharded_fleet(built, ray_session):
    """Every new leaf rides to the shard actors and merges exactly:
    a composite body using all of them, fleet ≡ local."""
    import os

    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.served import ShardedQueryService

    bodies = [
        {"match_all": {}},
        {"ids": {"values": [1, 4, 40, 41]}},
        {"exists": {"field": "extras"}},
        {"constant_score": {"filter": {"match": {"body": "node"}},
                            "boost": 3.0}},
        {"dis_max": {"queries": [{"match": {"body": "node"}},
                                 {"match_phrase": {"body": "node pools"}}],
                     "tie_breaker": 0.5}},
        {"boosting": {"positive": {"match": {"body": "node pools"}},
                      "negative": {"match": {"body": "namespace"}},
                      "negative_boost": 0.3}},
        {"match_bool_prefix": {"body": "node poo"}},
        {"match_phrase_prefix": {"body": "node poo"}},
        {"regexp": {"body": "nod.*"}},
        {"bool": {"must": [{"match": {"body": "node"}}],
                  "should": [{"ids": {"values": [7, 8]}},
                             {"constant_score": {
                                 "filter": {"exists": {"field": "extras"}},
                                 "boost": 0.5}}]}},
    ]
    root = os.path.dirname(built.index_dir)
    svc = ShardedQueryService(root, n_shards=3, chain=built.chain)
    try:
        for dsl in bodies:
            assert svc.query_string(dsl, k=15) == query_string_topk(
                built, dsl, k=15
            ), dsl
    finally:
        svc.shutdown()


def test_dsl_function_score_exp_decay(built):
    """function_score(exp over warc_ts, boost_mode multiply) ≡ an
    independent brute force: the dense BM25 times ``exp(ln 0.5 / 30 ·
    max(age_s, 0))``, ages read from the docs store's ``warc_ts``;
    missing-field nulls weigh 1."""
    import math

    import numpy as np

    from docs_indexer_ray.query.bm25 import bm25_scores_dense
    from docs_indexer_ray.query.qstring import query_string_topk

    origin = "2025-01-01T00:02:00"  # just past the corpus's 90 s ts span
    dsl = {"function_score": {
        "query": {"match": {"body": "node pools"}},
        "functions": [{"exp": {"warc_ts": {
            "origin": origin, "scale": "30s", "decay": 0.5}}}],
    }}
    got = query_string_topk(built, dsl, k=15)
    dense = bm25_scores_dense(built, ["node", "pools"])
    t = built.fetch_docs(list(range(built.n_docs)), ["doc_id", "warc_ts"])
    ts = t["warc_ts"].to_numpy(zero_copy_only=False).astype("datetime64[s]")
    age = (np.datetime64(origin, "s") - ts).astype(np.int64)
    # the page's scores are its ranking key, quantized to 1e-9
    want = sorted(
        (
            (d, round(float(dense[d])
                      * math.exp(math.log(0.5) / 30 * max(a, 0)), 9))
            for d, a in zip(t["doc_id"].to_pylist(), age.tolist())
            if dense[d] > 0
        ),
        key=lambda h: (-h[1], h[0]),
    )[:15]
    assert len(want) == 15
    assert [d for d, _ in got] == [d for d, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a == pytest.approx(b, rel=1e-12)

    # decayed ≠ undecayed order on this corpus (the weight must bite)
    plain = query_string_topk(built, {"match": {"body": "node pools"}}, k=15)
    assert [d for d, _ in got] != [d for d, _ in plain]

    # single-function shorthand accepted; multiply-only enforced
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node

    an = _an()
    n = dsl_to_node({"function_score": {
        "query": {"match": {"body": "node"}},
        "exp": {"warc_ts": {"origin": origin, "scale": "600s"}},
    }}, an)
    assert n.scale_s == 600.0 and n.decay == 0.5
    with pytest.raises(DslError):
        dsl_to_node({"function_score": {
            "query": {"match": {"body": "node"}},
            "exp": {"warc_ts": {"origin": origin, "scale": "1h"}},
            "boost_mode": "sum",
        }}, an)
    with pytest.raises(DslError):
        dsl_to_node({"function_score": {"exp": {}}}, an)


def test_dsl_span_queries(built):
    """span_near (unordered, constant-score) ≡ phrase.span_near's match
    set; in_order=true lowers to the sloppy-phrase walk; span_first ≡
    phrase.span_first; standalone span_term scores like term."""
    from docs_indexer_ray.query.phrase import span_first, span_near
    from docs_indexer_ray.query.qstring import query_string_topk

    near = {"span_near": {
        "clauses": [{"span_term": {"body": "pools"}},
                    {"span_term": {"body": "node"}}],
        "slop": 2, "in_order": False,
    }}
    got = query_string_topk(built, near, k=built.n_docs)
    want = {d for d, _ in span_near(built, ["pools", "node"], slop=2)}
    assert {d for d, _ in got} == want and len(want) > 0
    assert all(s == 1.0 for _, s in got)

    ordered = {"span_near": {
        "clauses": [{"span_term": {"body": "node"}},
                    {"span_term": {"body": "pools"}}],
        "slop": 1, "in_order": True,
    }}
    got = query_string_topk(built, ordered, k=built.n_docs)
    want = query_string_topk(built, '"node pools"~1', k=built.n_docs)
    assert got == want

    first = {"span_first": {"match": {"span_term": {"body": "node"}},
                            "end": 3}}
    got = query_string_topk(built, first, k=built.n_docs)
    want = {d for d, _ in span_first(built, "node", 3)}
    assert {d for d, _ in got} == want and 0 < len(want) < built.n_docs

    got = query_string_topk(built, {"span_term": {"body": "node"}}, k=9)
    assert got == query_string_topk(built, {"term": {"body": "node"}}, k=9)


def test_span_first_range_unions_to_full(built):
    """``span_first`` on doc-range shard readers (block-pruned per-shard
    positional decode) concatenates over disjoint ranges to exactly the
    full reader's ``span_first``."""
    from docs_indexer_ray.query.phrase import span_first
    from docs_indexer_ray.query.reader import IndexReader

    full = span_first(built, "node", 3)
    assert full  # planted corpus has early 'node' occurrences
    n = built.n_docs
    edges = [0, n // 3, (2 * n) // 3, n]
    got = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        shard = IndexReader(built.index_dir, doc_range=(lo, hi))
        got.extend(span_first(shard, "node", 3))
    assert got == full
    # empty/edge cases on a shard reader
    assert span_first(shard, "zzz_not_a_term", 3) == []
    assert span_first(shard, "node", 0) == []


def test_dsl_span_inside_scoring_bool_pins_constant_score(built):
    """The span-scoring CONTRACT, pinned end-to-end: a span clause
    mixed with scoring clauses in a bool contributes exactly
    ``boost × 1[span matches]`` to the summed should-score — NOT
    Lucene's sloppy-frequency span weight (documented divergence on
    ``_SpanNear``).  If span scoring is ever upgraded to sloppy-freq,
    this pin must be replaced in the same change."""
    import numpy as np

    from docs_indexer_ray.query.bm25 import bm25_scores_dense
    from docs_indexer_ray.query.phrase import span_near
    from docs_indexer_ray.query.qstring import query_string_topk

    boost = 2.5
    q = {"bool": {"should": [
        {"match": {"body": "quota"}},
        {"span_near": {
            "clauses": [{"span_term": {"body": "pools"}},
                        {"span_term": {"body": "node"}}],
            "slop": 2, "in_order": False, "boost": boost,
        }},
    ]}}
    got = dict(query_string_topk(built, q, k=built.n_docs))

    bm25 = bm25_scores_dense(built, ["quota"])
    span_docs = {d for d, _ in span_near(built, ["pools", "node"], slop=2)}
    # a span-matching doc with several windows scores the SAME as one
    # with a single window (constant-score) — the pin's teeth
    want = {}
    for d in range(built.n_docs):
        s = bm25[d] + (boost if d in span_docs else 0.0)
        if s > 0.0:
            want[d] = s
    assert set(got) == set(want)
    for d, s in want.items():
        assert np.isclose(got[d], s, rtol=0, atol=1e-12), (d, got[d], s)
    # the ranking itself: descending score, doc asc tie-break
    ranked = sorted(want.items(), key=lambda kv: (-round(kv[1], 9), kv[0]))
    assert list(got) == [d for d, _ in ranked]


def test_dsl_funcscore_spans_on_the_fleet(built, ray_session):
    import os

    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.served import ShardedQueryService

    bodies = [
        {"function_score": {
            "query": {"match": {"body": "node pools"}},
            "exp": {"warc_ts": {"origin": "2025-06-01T00:00:00",
                                "scale": "1d"}},
        }},
        {"span_near": {"clauses": [{"span_term": {"body": "pools"}},
                                   {"span_term": {"body": "node"}}],
                       "slop": 2, "in_order": False}},
        {"span_first": {"match": {"span_term": {"body": "node"}},
                        "end": 3}},
        {"bool": {"must": [{"function_score": {
            "query": {"match": {"body": "node"}},
            "exp": {"warc_ts": {"origin": "2025-06-01T00:00:00",
                                "scale": "2h", "decay": 0.7}},
        }}], "should": [{"span_first": {
            "match": {"span_term": {"body": "pools"}}, "end": 5}}]}},
    ]
    root = os.path.dirname(built.index_dir)
    svc = ShardedQueryService(root, n_shards=3, chain=built.chain)
    try:
        for dsl in bodies:
            assert svc.query_string(dsl, k=15) == query_string_topk(
                built, dsl, k=15
            ), dsl
    finally:
        svc.shutdown()


def test_dsl_more_like_this(built, ray_session):
    """more_like_this DSL ≡ the query/mlt.py kernel (same term
    selection, source excluded), incl. the fleet — term selection uses
    global statistics so every shard expands identically."""
    import os

    from docs_indexer_ray.query.mlt import more_like_this
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.served import ShardedQueryService

    src = 0
    dsl = {"more_like_this": {"like": [{"_id": src}],
                              "max_query_terms": 10}}
    got = query_string_topk(built, dsl, k=12)
    want = more_like_this(built, src, k=12, max_query_terms=10)
    assert [d for d, _ in got] == want["doc_id"].to_pylist()
    assert src not in {d for d, _ in got}

    # like spellings: bare int, {"_id": N}, single-item list
    for like in (src, {"_id": src}, [src]):
        assert query_string_topk(
            built, {"more_like_this": {"like": like,
                                       "max_query_terms": 10}}, k=12
        ) == got

    from docs_indexer_ray.query.dsl import DslError, dsl_to_node

    with pytest.raises(DslError):
        dsl_to_node({"more_like_this": {"like": [1, 2]}}, _an())
    with pytest.raises(DslError):
        dsl_to_node({"more_like_this": {"like": "not-an-id"}}, _an())

    root = os.path.dirname(built.index_dir)
    svc = ShardedQueryService(root, n_shards=3, chain=built.chain)
    try:
        assert svc.query_string(dsl, k=12) == got
    finally:
        svc.shutdown()


def test_dsl_lowering_is_total_for_json():
    """Any JSON-shaped object either lowers to a node / None or raises
    DslError (a ValueError) — the server's 400 contract: no stray
    exception class can escape as a 500 from query parsing."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from docs_indexer_ray.query.dsl import dsl_to_node
    from docs_indexer_ray.query.qstring import QueryStringError

    an = _an()
    keys = st.sampled_from([
        "match", "match_phrase", "term", "terms", "fuzzy", "wildcard",
        "prefix", "range", "query_string", "bool", "match_all", "ids",
        "exists", "constant_score", "dis_max", "boosting",
        "match_bool_prefix", "match_phrase_prefix", "regexp",
        "simple_query_string", "function_score", "span_near",
        "span_first", "span_term", "more_like_this", "aggs", "knn",
        "field", "query", "values", "filter", "queries", "positive",
        "negative", "like", "boost", "slop", "gte", "lt", "origin",
        "scale", "body", "warc_ts", "x",
    ])
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-5, 5),
        st.floats(allow_nan=False, allow_infinity=False, width=16),
        st.sampled_from(["node", "2025-01-01T00:00:00", "a*", "", "3"]),
    )
    json_obj = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(keys, inner, max_size=3),
        ),
        max_leaves=12,
    )

    @settings(max_examples=400, deadline=None)
    @given(st.dictionaries(keys, json_obj, min_size=1, max_size=2))
    def probe(obj):
        try:
            dsl_to_node(obj, an)
        except (ValueError, QueryStringError):
            # DslError is a ValueError; query_string embeds may raise
            # QueryStringError — both map to the server's 400
            pass

    probe()


def test_dsl_terms_set(built, ray_session, tmp_path):
    """`terms_set` (Lucene CoveringQuery): constant and per-doc
    minimum_should_match, score = sum of matching terms' BM25,
    NULL-msm docs never match, fleet ≡ local, refusal shapes."""
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import _TermsSet, query_string_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import ShardedQueryService

    an = Analyzer("simple")
    node = dsl_to_node({"terms_set": {"body": {
        "terms": ["Node", "pools"], "minimum_should_match": 2,
        "boost": 2.0,
    }}}, an)
    assert isinstance(node, _TermsSet)
    assert node.terms == ["node", "pools"]  # lowercased, NOT analyzed
    assert node.msm_const == 2 and node.msm_field is None

    reader = built
    terms = ["node", "pools", "quota"]
    # ground truth: per-doc coverage + summed BM25 over stored bodies
    bodies = {
        r["doc_id"]: set(an(r["body"]))
        for r in reader.fetch_docs(
            list(range(reader.n_docs)), ["doc_id", "body"]
        ).to_pylist()
    }
    from docs_indexer_ray.query.bm25 import bm25_scores_dense

    per_term = {t: bm25_scores_dense(reader, [t]) for t in terms}

    for msm in (1, 2, 3):
        dsl = {"terms_set": {"body": {
            "terms": terms, "minimum_should_match": msm,
        }}}
        hits = query_string_topk(reader, dsl, k=1000)
        want_ids = {
            d for d, toks in bodies.items()
            if len(toks & set(terms)) >= msm
        }
        assert {d for d, _ in hits} == want_ids, msm
        for d, s in hits:
            expect = sum(
                float(per_term[t][d]) for t in terms if t in bodies[d]
            )
            assert abs(s - expect) < 1e-6

    # per-doc msm from a stored numeric column: augment the docs store
    # with `min_terms` = doc_id % 4 (stored fields are parquet columns
    # — any added column is readable by stored_column/msm_field)
    root2 = str(tmp_path / "tsidx")
    shutil.copytree(os.path.dirname(reader.index_dir), root2)
    bdir = os.path.join(root2, os.path.basename(reader.index_dir))
    docs_dir = os.path.join(bdir, "docs")
    for pd_ in os.listdir(docs_dir):
        pdir = os.path.join(docs_dir, pd_)
        if not os.path.isdir(pdir):
            continue
        for f in os.listdir(pdir):
            path = os.path.join(pdir, f)
            t = pq.read_table(path)
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            mt = (ids % 4).astype(np.float64)
            mt[ids % 11 == 0] = np.nan  # planted NULL msm docs
            t = t.append_column(
                "min_terms", pa.array(mt, pa.float64())
            )
            pq.write_table(t, path, compression="zstd")
    r2 = IndexReader(bdir)
    dsl_f = {"terms_set": {"body": {
        "terms": terms, "minimum_should_match_field": "min_terms",
    }}}
    hits = query_string_topk(r2, dsl_f, k=1000)
    got = {d for d, _ in hits}
    want = set()
    for d, toks in bodies.items():
        if d % 11 == 0:
            continue  # NULL msm never matches
        if len(toks & set(terms)) >= max(1, d % 4):
            want.add(d)
    assert got == want

    # fleet ≡ local for both spellings
    for dsl in (
        {"terms_set": {"body": {"terms": terms,
                                "minimum_should_match": 2}}},
        dsl_f,
    ):
        rdr = r2
        local = query_string_topk(rdr, dsl, k=10)
        svc = ShardedQueryService(bdir, n_shards=3, chain="simple")
        try:
            assert svc.query_string(dsl, k=10) == local, dsl
        finally:
            svc.shutdown()

    # refusals
    for bad in (
        {"terms_set": {"body": {"terms": []}}},
        {"terms_set": {"body": {"terms": ["x"]}}},  # no msm at all
        {"terms_set": {"body": {"terms": ["x"], "minimum_should_match": 1,
                                "minimum_should_match_field": "f"}}},
        {"terms_set": {"body": {"terms": ["x"],
                                "minimum_should_match_script": {}}}},
        {"terms_set": None},
        {"terms_set": {"body": "scalar"}},
    ):
        with pytest.raises(DslError):
            dsl_to_node(bad, an)


def test_dsl_rank_and_distance_feature(built, ray_session, tmp_path):
    """`rank_feature` (saturation/log/sigmoid over a positive stored
    column) and `distance_feature` (timestamp/numeric proximity):
    score math vs numpy, NULL semantics, fleet ≡ local, refusals."""
    import datetime as dt
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import ShardedQueryService

    an = Analyzer("simple")
    reader = built

    # ---- distance_feature over the REAL warc_ts timestamp column
    ts = reader.stored_column("warc_ts").cast(pa.int64()).to_numpy(
        zero_copy_only=False
    ).astype(np.float64)
    origin = "2025-06-01T12:00:00"
    o_us = (dt.datetime.fromisoformat(origin)
            - dt.datetime(1970, 1, 1)).total_seconds() * 1e6
    pivot_us = 86400.0 * 7 * 1e6
    want = 2.0 * pivot_us / (pivot_us + np.abs(ts - o_us))
    dsl = {"distance_feature": {"field": "warc_ts", "origin": origin,
                                "pivot": "7d", "boost": 2.0}}
    hits = dict(query_string_topk(reader, dsl, k=reader.n_docs))
    assert len(hits) == reader.n_docs  # every doc has a warc_ts
    for d in (0, 7, 42):
        assert abs(hits[d] - want[d]) < 1e-9

    # numeric origin/pivot spelling lowers too
    node = dsl_to_node({"distance_feature": {
        "field": "x", "origin": 100, "pivot": 10}}, an)
    assert node.origin == 100.0 and node.pivot == 10.0

    # ---- rank_feature over an added positive column (with NULLs)
    root2 = str(tmp_path / "rfidx")
    shutil.copytree(os.path.dirname(reader.index_dir), root2)
    bdir = os.path.join(root2, os.path.basename(reader.index_dir))
    docs_dir = os.path.join(bdir, "docs")
    for pd_ in os.listdir(docs_dir):
        pdir = os.path.join(docs_dir, pd_)
        if not os.path.isdir(pdir):
            continue
        for f in os.listdir(pdir):
            path = os.path.join(pdir, f)
            t = pq.read_table(path)
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            q = (ids % 9 + 1).astype(np.float64)  # positive feature
            q[ids % 13 == 0] = np.nan  # planted missing feature
            t = t.append_column("quality", pa.array(q, pa.float64()))
            pq.write_table(t, path, compression="zstd")
    r2 = IndexReader(bdir)
    qv = np.where(np.arange(r2.n_docs) % 13 == 0, np.nan,
                  np.arange(r2.n_docs) % 9 + 1).astype(np.float64)

    cases = {
        ("saturation",): lambda x: x / (x + 3.0),
        ("log",): lambda x: np.log(2.0 + x),
        ("sigmoid",): lambda x: x**2 / (x**2 + 4.0**2),
    }
    bodies = {
        "saturation": {"saturation": {"pivot": 3}},
        "log": {"log": {"scaling_factor": 2}},
        "sigmoid": {"sigmoid": {"pivot": 4, "exponent": 2}},
    }
    for (fn,), f in cases.items():
        dsl = {"rank_feature": {"field": "quality", **bodies[fn]}}
        hits = dict(query_string_topk(r2, dsl, k=r2.n_docs))
        missing = {d for d in range(r2.n_docs) if d % 13 == 0}
        assert missing.isdisjoint(hits), fn  # NULL feature never matches
        assert len(hits) == r2.n_docs - len(missing)
        for d in (1, 5, 20):
            assert abs(hits[d] - f(qv[d])) < 1e-9, fn

    # in a bool.should, the feature leg boosts without gating matches
    dsl = {"bool": {
        "must": [{"match": {"body": "node"}}],
        "should": [{"rank_feature": {"field": "quality",
                                     "saturation": {"pivot": 3}}}],
    }}
    local = query_string_topk(r2, dsl, k=10)
    svc = ShardedQueryService(bdir, n_shards=3, chain="simple")
    try:
        assert svc.query_string(dsl, k=10) == local
        assert svc.query_string(
            {"distance_feature": {"field": "warc_ts", "origin": origin,
                                  "pivot": "7d"}}, k=10
        ) == query_string_topk(r2, {"distance_feature": {
            "field": "warc_ts", "origin": origin, "pivot": "7d"}}, k=10)
    finally:
        svc.shutdown()

    # refusals
    for bad in (
        {"rank_feature": {"saturation": {"pivot": 1}}},  # no field
        {"rank_feature": {"field": "q", "saturation": {}}},  # no pivot
        {"rank_feature": {"field": "q", "log": {}}},
        {"rank_feature": {"field": "q", "sigmoid": {"pivot": 1}}},
        {"rank_feature": {"field": "q", "saturation": {"pivot": 1},
                          "log": {"scaling_factor": 1}}},  # two fns
        {"rank_feature": None},
        {"distance_feature": {"field": "x", "origin": "noniso",
                              "pivot": "7d"}},
        {"distance_feature": {"field": "x", "origin": [1, 2],
                              "pivot": 1}},  # geo refused
        {"distance_feature": {"field": "x", "origin": 5}},  # no pivot
        {"distance_feature": {"field": "x", "origin": 5, "pivot": 0}},
    ):
        with pytest.raises(DslError):
            dsl_to_node(bad, an)


def test_dsl_span_or(built, ray_session):
    """`span_or`: match set = union of the span children; lowers onto
    bool-should (documented scoring divergence); non-span children and
    empty clause lists refused; fleet ≡ local."""
    import numpy as np

    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import (
        _Bool,
        _Term,
        query_string_topk,
    )
    from docs_indexer_ray.query.served import ShardedQueryService

    an = _an()
    dsl = {"span_or": {"clauses": [
        {"span_term": {"body": "node"}},
        {"span_near": {"clauses": [
            {"span_term": {"body": "quota"}},
            {"span_term": {"body": "namespace"}},
        ], "slop": 3, "in_order": False}},
        {"span_first": {"match": {"span_term": {"body": "helm"}},
                        "end": 4}},
    ]}}
    node = dsl_to_node(dsl, an)
    assert isinstance(node, _Bool) and len(node.should) == 3

    reader = built
    union = set()
    for sub in dsl["span_or"]["clauses"]:
        union |= {d for d, _ in query_string_topk(reader, sub, k=1000)}
    got = {d for d, _ in query_string_topk(reader, dsl, k=1000)}
    assert got == union and got

    import os

    svc = ShardedQueryService(os.path.dirname(reader.index_dir),
                              n_shards=3, chain="simple")
    try:
        assert svc.query_string(dsl, k=10) == query_string_topk(
            reader, dsl, k=10)
    finally:
        svc.shutdown()

    # single child collapses; refusals
    single = dsl_to_node({"span_or": {"clauses": [
        {"span_term": {"body": "node"}}]}}, an)
    assert isinstance(single, _Term)
    for bad in (
        {"span_or": {"clauses": []}},
        {"span_or": {}},
        {"span_or": None},
        {"span_or": {"clauses": [{"match": {"body": "x"}}]}},
    ):
        with pytest.raises(DslError):
            dsl_to_node(bad, an)


def test_dsl_intervals(built, ray_session):
    """`intervals` lowers onto the positional kernels: match(ordered)
    ≡ sloppy phrase, match(unordered) ≡ span_near, any_of ≡ union;
    fleet ≡ local; malformed rule shapes refused (all_of and filter
    SUPPORT lives in test_extents.py since round 5)."""
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import (
        _Bool,
        _Phrase,
        _SpanNear,
        _Term,
        query_string_topk,
    )
    from docs_indexer_ray.query.served import ShardedQueryService

    an = _an()
    n = dsl_to_node({"intervals": {"body": {"match": {
        "query": "node pools", "max_gaps": 2, "ordered": True}}}}, an)
    assert isinstance(n, _Phrase) and n.slop == 2
    n = dsl_to_node({"intervals": {"body": {"match": {
        "query": "node pools", "max_gaps": 1}}}}, an)
    assert isinstance(n, _SpanNear) and n.slop == 1
    n = dsl_to_node({"intervals": {"body": {"match": {
        "query": "node"}}}}, an)
    assert isinstance(n, _Term)
    n = dsl_to_node({"intervals": {"body": {"any_of": {"intervals": [
        {"match": {"query": "node pools", "ordered": True}},
        {"match": {"query": "quota"}},
    ]}}}}, an)
    assert isinstance(n, _Bool) and len(n.should) == 2

    reader = built
    # ordered ≡ the match_phrase slop spelling; unordered ≡ span_near
    iv = {"intervals": {"body": {"match": {
        "query": "node pools", "max_gaps": 1, "ordered": True}}}}
    ph = {"match_phrase": {"body": {"query": "node pools", "slop": 1}}}
    assert query_string_topk(reader, iv, k=20) == \
        query_string_topk(reader, ph, k=20)
    ivu = {"intervals": {"body": {"match": {
        "query": "node pools", "max_gaps": 1}}}}
    sn = {"span_near": {"clauses": [
        {"span_term": {"body": "node"}}, {"span_term": {"body": "pools"}},
    ], "slop": 1, "in_order": False}}
    assert query_string_topk(reader, ivu, k=20) == \
        query_string_topk(reader, sn, k=20)

    import os

    svc = ShardedQueryService(os.path.dirname(reader.index_dir),
                              n_shards=3, chain="simple")
    try:
        for dsl in (iv, ivu):
            assert svc.query_string(dsl, k=10) == query_string_topk(
                reader, dsl, k=10), dsl
    finally:
        svc.shutdown()

    for bad in (
        {"intervals": {"body": {"all_of": {"intervals": []}}}},
        {"intervals": {"body": {"match": {"query": "a",
                                          "filter": {"before": {}}}}}},
        {"intervals": {"body": {"any_of": {"intervals": []}}}},
        {"intervals": {"body": "scalar"}},
        {"intervals": None},
    ):
        with pytest.raises(DslError):
            dsl_to_node(bad, an)


def test_review_fixes_intervals_spanor_rankfeature(built, ray_session):
    """Review-pass fixes: intervals' default max_gaps=-1 means NO
    width restriction (not adjacent-only); span_or single-child
    collapse keeps the boost; rank_feature refuses non-positive
    pivot/exponent and scaling_factor < 1; timestamp feature values
    normalize to µs regardless of the column's unit."""
    import pyarrow as pa

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import (
        _feature_values,
        query_string_topk,
    )

    an = _an()
    reader = built
    # default ordered intervals == unlimited-gap ordered co-occurrence
    got = {d for d, _ in query_string_topk(reader, {"intervals": {"body": {
        "match": {"query": "node pools", "ordered": True}}}}, k=1000)}
    want = set()
    simple = Analyzer("simple")
    for r in reader.fetch_docs(list(range(reader.n_docs)),
                               ["doc_id", "body"]).to_pylist():
        toks = simple(r["body"])
        pn = [i for i, t in enumerate(toks) if t == "node"]
        pp = [i for i, t in enumerate(toks) if t == "pools"]
        if pn and pp and min(pn) < max(pp):
            want.add(r["doc_id"])
    assert got == want and got
    # adjacent-only is the EXPLICIT max_gaps=0 spelling, a subset
    tight = {d for d, _ in query_string_topk(reader, {"intervals": {"body": {
        "match": {"query": "node pools", "ordered": True,
                  "max_gaps": 0}}}}, k=1000)}
    assert tight <= got

    # span_or single-child collapse keeps the clause boost
    n = dsl_to_node({"span_or": {"clauses": [
        {"span_term": {"body": "node"}}], "boost": 5.0}}, an)
    assert n.boost == 5.0

    # rank_feature parameter validation (Lucene FeatureField rules)
    for bad in (
        {"rank_feature": {"field": "q", "saturation": {"pivot": 0}}},
        {"rank_feature": {"field": "q", "saturation": {"pivot": -3}}},
        {"rank_feature": {"field": "q",
                          "sigmoid": {"pivot": 2, "exponent": 0}}},
        {"rank_feature": {"field": "q", "log": {"scaling_factor": 0.5}}},
    ):
        with pytest.raises(DslError):
            dsl_to_node(bad, an)

    # feature values normalize ms/ns timestamp columns to µs
    class _Stub:
        doc_lo, doc_hi = 0, 2

        def stored_column(self, col):
            return pa.array([1_000, 2_000], pa.timestamp("ms"))

    vals = _feature_values(_Stub(), "ts")
    assert vals.tolist() == [1_000_000.0, 2_000_000.0]


def test_review_fixes_round2(built, ray_session):
    """Second review pass: knn filter is NON-scoring (filtered top-k ==
    unfiltered ranking ∩ filter matches even for a SCORING filter);
    non-finite feature params refused; duplicate-token unordered
    intervals refused."""
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import query_string_topk

    an = _an()
    # non-finite params (json.loads accepts NaN/Infinity literals)
    for bad in (
        {"rank_feature": {"field": "q",
                          "saturation": {"pivot": float("inf")}}},
        {"rank_feature": {"field": "q",
                          "saturation": {"pivot": float("nan")}}},
        {"rank_feature": {"field": "q",
                          "log": {"scaling_factor": float("inf")}}},
        {"distance_feature": {"field": "x", "origin": 0,
                              "pivot": float("inf")}},
        {"distance_feature": {"field": "x", "origin": float("nan"),
                              "pivot": 1}},
        {"intervals": {"body": {"match": {"query": "node node",
                                          "ordered": False}}}},
    ):
        with pytest.raises(DslError):
            dsl_to_node(bad, an)
    # duplicate tokens stay fine when ordered
    dsl_to_node({"intervals": {"body": {"match": {
        "query": "node node", "ordered": True}}}}, an)
