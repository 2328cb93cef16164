"""Vector sidecar + serving-tier k-NN + hybrid (index/vectors.py,
qstring._Knn, serve_http hybrid coordinator)."""

import json
import os
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    """A small build + deterministic vectors (docs 5 and 17 have
    none) attached via the id path."""
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.index.vectors import attach_vectors
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("vecidx") / "idx")
    n = 100
    build_index(
        ray.data.from_arrow(rich_pages_table(n, dup_every=0)),
        root,
        fingerprint="vec",
        num_parts=4,
        chain="simple",
        field="body",
    )
    rng = np.random.RandomState(7)
    vecs = rng.randn(n, 16).astype(np.float32)
    missing = {5, 17}
    rows = [i for i in range(n) if i not in missing]
    emb = pa.table({
        "doc_id": pa.array(rows, pa.int64()),
        "embedding": pa.array(
            [vecs[i].tolist() for i in rows], pa.list_(pa.float32())
        ),
    })
    meta = attach_vectors(root, ray.data.from_arrow(emb), id_col="doc_id")
    assert meta["dim"] == 16 and meta["count"] == n - len(missing)
    return root, vecs, missing


def _true_order(vecs, missing, q, k=10):
    V = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    qn = np.asarray(q, np.float32)
    qn = qn / np.linalg.norm(qn)
    cos = (V.astype(np.float32) @ qn).astype(np.float64)
    sc = (1.0 + cos) / 2.0
    sc[list(missing)] = 0.0
    return np.lexsort((np.arange(len(sc)), -np.round(sc / 1e-9)))[:k].tolist()


def test_knn_local_matches_numpy_and_skips_missing(built, ray_session):
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.reader import IndexReader

    root, vecs, missing = built
    reader = IndexReader(root)
    q = vecs[3].tolist()
    hits = query_string_topk(
        reader, {"knn": {"emb": {"vector": q, "k": 10}}}, k=10
    )
    assert [d for d, _ in hits] == _true_order(vecs, missing, q)
    assert hits[0][0] == 3 and abs(hits[0][1] - 1.0) < 1e-9  # self-match
    # a vectorless doc never matches, even at k = corpus
    all_hits = query_string_topk(
        reader, {"knn": {"emb": {"vector": q}}}, k=1000
    )
    got = {d for d, _ in all_hits}
    assert missing.isdisjoint(got) and len(got) == 98


def test_knn_sharded_matches_local_and_composes_in_bool(built, ray_session):
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import ShardedQueryService

    root, vecs, _ = built
    reader = IndexReader(root)
    q = vecs[9].tolist()
    for dsl in (
        {"knn": {"emb": {"vector": q, "k": 10}}},
        {"bool": {
            "must": [{"match": {"body": "node"}}],
            "should": [{"knn": {"emb": {"vector": q}}}],
        }},
        {"bool": {
            "must": [{"knn": {"emb": {"vector": q}}}],
            "filter": [{"range": {"warc_ts": {"gte": "2023-01-01"}}}],
        }},
    ):
        local = query_string_topk(reader, dsl, k=10)
        svc = ShardedQueryService(root, n_shards=3, chain="simple")
        try:
            sharded = svc.query_string(dsl, k=10)
        finally:
            svc.shutdown()
        assert sharded == local, dsl


def test_knn_errors(built, ray_session):
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import (
        QueryStringError,
        query_string_topk,
    )
    from docs_indexer_ray.query.reader import IndexReader

    root, vecs, _ = built
    analyzer = lambda s: s.lower().split()  # noqa: E731
    with pytest.raises(DslError):
        dsl_to_node({"knn": {"emb": {}}}, analyzer)
    with pytest.raises(DslError):
        dsl_to_node({"knn": {"emb": {"vector": []}}}, analyzer)
    with pytest.raises(DslError):
        dsl_to_node({"knn": {"emb": {"vector": ["x"]}}}, analyzer)
    reader = IndexReader(root)
    with pytest.raises(QueryStringError):  # dim mismatch is a 400
        query_string_topk(reader, {"knn": {"emb": {"vector": [1.0, 2.0]}}})
    with pytest.raises(FileNotFoundError):  # unattached sidecar name
        query_string_topk(
            reader, {"knn": {"nosuch": {"vector": vecs[0].tolist()}}}
        )


def test_attach_via_url_join_matches_id_path(built, ray_session, tmp_path):
    """The crawl-native url-keyed attach (ONE hash-join shuffle) lands
    the same vectors as the id-keyed path."""
    import ray.data

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.index.vectors import attach_vectors
    from docs_indexer_ray.query.reader import IndexReader

    root, vecs, missing = built
    bdir = mf.current_build(root)
    docs = (
        ray.data.read_parquet(os.path.join(bdir, "docs"),
                              columns=["doc_id", "url"])
        .to_pandas()
        .sort_values("doc_id")
    )
    rows = [i for i in range(len(docs)) if i not in missing]
    emb = pa.table({
        "page_url": pa.array([docs["url"].iloc[i] for i in rows]),
        "embedding": pa.array(
            [vecs[i].tolist() for i in rows], pa.list_(pa.float32())
        ),
    })
    attach_vectors(
        root, ray.data.from_arrow(emb), url_col="page_url", name="emb2"
    )
    r = IndexReader(root)
    V1, m1 = r.vector_matrix("emb")
    V2, m2 = r.vector_matrix("emb2")
    assert np.array_equal(m1, m2) and np.allclose(V1, V2)
    # idempotence: a second attach short-circuits on the meta marker
    meta = attach_vectors(
        root, ray.data.from_arrow(emb), url_col="page_url", name="emb2"
    )
    assert meta["count"] == len(rows)


def test_shard_reader_slice_equals_full(built, ray_session):
    from docs_indexer_ray.query.reader import IndexReader

    root, _, _ = built
    full = IndexReader(root)
    Vf, mf_ = full.vector_matrix()
    shard = IndexReader(root, doc_range=(30, 70))
    Vs, ms = shard.vector_matrix()
    assert Vs.shape == (40, Vf.shape[1])
    assert np.array_equal(Vs, Vf[30:70]) and np.array_equal(ms, mf_[30:70])


def test_cli_attach_and_knn(built, ray_session, tmp_path, capsys):
    import pyarrow.parquet as pq

    from docs_indexer_ray.cli import main
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.reader import IndexReader

    root, vecs, missing = built
    rows = [i for i in range(len(vecs)) if i not in missing]
    emb = pa.table({
        "doc_id": pa.array(rows, pa.int64()),
        "embedding": pa.array(
            [vecs[i].tolist() for i in rows], pa.list_(pa.float32())
        ),
    })
    path = str(tmp_path / "emb.parquet")
    pq.write_table(emb, path)
    rc = main([
        "attach-vectors", "--index", root, "--parquet", path,
        "--id-col", "doc_id", "--name", "cli_emb",
    ])
    assert rc == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["count"] == len(rows)
    outs = []
    for shards in ("0", "2"):  # one in-process shard, then the actor fleet
        rc = main(["knn", "--index", root, "--doc", "3", "-k", "5",
                   "--name", "cli_emb", "--shards", shards])
        outs.append(capsys.readouterr().out)
        assert rc == 0
    out = outs[0]
    want = query_string_topk(
        IndexReader(root),
        {"knn": {"cli_emb": {"vector": vecs[3].tolist()}}}, k=5,
    )
    got_ids = [int(ln.split()[2]) for ln in out.strip().splitlines()]
    assert got_ids == [d for d, _ in want] and got_ids[0] == 3
    assert outs[1] == out
    # a vectorless doc refuses loudly, not garbage neighbors
    rc = main(["knn", "--index", root, "--doc", "5", "--name", "cli_emb"])
    assert rc == 2


def _req(port, path, body=None, **params):
    url = f"http://127.0.0.1:{port}{path}"
    if params:
        url += "?" + urllib.parse.urlencode(params)
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_knn_and_hybrid_over_http(built, ray_session):
    from docs_indexer_ray.query.hybrid import rrf_fuse
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.serve_http import SearchServer

    root, vecs, missing = built
    q = vecs[3].tolist()
    knn_leg = {"knn": {"emb": {"vector": q, "k": 50}}}
    lex_leg = {"match": {"body": "node"}}
    reader = IndexReader(root)
    # expected hybrid page: fuse the two legs' top-100 rank maps
    maps = [
        {int(d): r for r, (d, _) in enumerate(
            query_string_topk(reader, leg, k=100), 1)}
        for leg in (lex_leg, knn_leg)
    ]
    want = rrf_fuse(maps, k=60, topn=5)

    for backend, kw in (("local", {}), ("sharded", {"n_shards": 3})):
        srv = SearchServer(root, backend=backend, **kw).start()
        try:
            # plain knn body search
            code, out = _req(srv.port, "/_search", body={
                "query": knn_leg, "size": 5, "_source": ["url"],
            })
            assert code == 200, out
            got = [h["_id"] for h in out["hits"]["hits"]]
            assert got == _true_order(vecs, missing, q, k=5)
            assert out["hits"]["hits"][0]["_source"]["url"]
            # hybrid BM25 + knn
            code, out = _req(srv.port, "/_search", body={
                "query": {"hybrid": {
                    "queries": [lex_leg, knn_leg], "window_size": 100,
                }},
                "size": 5, "_source": ["url"],
            })
            assert code == 200, out
            hh = out["hits"]["hits"]
            assert [h["_id"] for h in hh] == want["doc_id"].to_pylist()
            assert [h["_score"] for h in hh] == want["rrf"].to_pylist()
            assert out["hits"]["total"]["relation"] == "gte"
            # refusal shapes
            code, _ = _req(srv.port, "/_search", body={
                "query": {"hybrid": {"queries": []}}})
            assert code == 400
            code, _ = _req(srv.port, "/_search", body={
                "query": {"hybrid": {"queries": [lex_leg]}},
                "sort": "warc_ts"})
            assert code == 400
            code, _ = _req(srv.port, "/_search", body={
                "query": {"knn": {"emb": {"vector": "nope"}}}})
            assert code == 400
        finally:
            srv.stop()


def test_merge_carries_vector_sidecars(ray_session, tmp_path):
    """An incremental merge re-homes every attached sidecar into the
    merged id space (carry_sidecars): knn keeps serving on the merged
    build, union-of-names semantics, dim mismatch refused."""
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.index.merge import merge_many
    from docs_indexer_ray.index.vectors import (
        attach_vectors,
        carry_sidecars,
        vectors_meta,
    )
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    pages = rich_pages_table(50, dup_every=0)
    kw = dict(num_parts=4, chain="simple", field="body")
    build_index(
        ray.data.from_arrow(pages.slice(0, 30)),
        str(tmp_path / "a"), fingerprint="a", **kw,
    )
    build_index(
        ray.data.from_arrow(pages.slice(30)),
        str(tmp_path / "b"), fingerprint="b", **kw,
    )

    rng = np.random.RandomState(11)
    vecs = rng.randn(50, 8).astype(np.float32)
    missing = {2, 41}  # one per input, in MERGED id space

    def _emb(lo, hi):
        rows = [i for i in range(lo, hi) if i not in missing]
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([i - lo for i in rows], pa.int64()),
            "embedding": pa.array(
                [vecs[i].tolist() for i in rows], pa.list_(pa.float32())
            ),
        }))

    # 'emb' on both inputs (different num_parts — merged takes the max);
    # 'solo' only on input a (union-of-names: b's docs just have no vector)
    attach_vectors(str(tmp_path / "a"), _emb(0, 30), id_col="doc_id",
                   num_parts=8)
    attach_vectors(str(tmp_path / "b"), _emb(30, 50), id_col="doc_id",
                   num_parts=16)
    attach_vectors(str(tmp_path / "a"), _emb(0, 30), id_col="doc_id",
                   name="solo", num_parts=8)

    merge_many([str(tmp_path / "a"), str(tmp_path / "b")],
               str(tmp_path / "m"))
    from docs_indexer_ray.index import manifest as mf

    bdir = mf.current_build(str(tmp_path / "m"))
    meta = vectors_meta(bdir, "emb")
    assert meta == {"name": "emb", "dim": 8, "n_docs": 50,
                    "num_parts": 16, "count": 48}
    assert vectors_meta(bdir, "solo")["count"] == 29

    # merged ids are input-a ids then input-b ids + 30 — exactly how
    # vecs was laid out, so the fixture's numpy oracle applies directly
    reader = IndexReader(str(tmp_path / "m"))
    q = vecs[35].tolist()
    hits = query_string_topk(
        reader, {"knn": {"emb": {"vector": q, "k": 10}}}, k=10
    )
    assert [d for d, _ in hits] == _true_order(vecs, missing, q)
    assert hits[0][0] == 35 and abs(hits[0][1] - 1.0) < 1e-6

    # 'solo' never matches input-b docs (no vector there)
    solo = query_string_topk(
        reader, {"knn": {"solo": {"vector": q}}}, k=1000
    )
    got = {d for d, _ in solo}
    assert got == set(range(30)) - missing

    # idempotent resume: a re-carry over the published merge is a no-op
    again = carry_sidecars(
        [mf.current_build(str(tmp_path / "a"))], [0], 50, bdir
    )
    assert again["emb"] == meta

    # dim mismatch across inputs is refused
    bad = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "embedding": pa.array([[1.0, 2.0]], pa.list_(pa.float32())),
    }))
    attach_vectors(str(tmp_path / "b"), bad, id_col="doc_id", name="solo")
    with pytest.raises(ValueError, match="dim"):
        merge_many([str(tmp_path / "a"), str(tmp_path / "b")],
                   str(tmp_path / "m2"))


def test_knn_filter_spelling(built, ray_session):
    """The k-NN plugin's filtered search: {"knn": {name: {"vector",
    "filter": <DSL>}}} ≡ bool(must=[knn, filter]) — exact scoring
    makes the restriction precise (no ANN candidate-list recall
    subtlety)."""
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.reader import IndexReader

    root, vecs, _ = built
    reader = IndexReader(root)
    q = vecs[4].tolist()
    flt = {"range": {"warc_ts": {"gte": "2023-01-01"}}}
    sugar = {"knn": {"emb": {"vector": q, "filter": flt}}}
    # the filter leg is NON-scoring (k-NN plugin contract): equivalent
    # to a zero-boost constant_score must leg, NOT a raw scoring must
    manual = {"bool": {"must": [
        {"knn": {"emb": {"vector": q}}},
        {"constant_score": {"filter": flt, "boost": 0}},
    ]}}
    assert query_string_topk(reader, sugar, k=20) == \
        query_string_topk(reader, manual, k=20)
    # filter restricts: ≤ unfiltered matches
    unf = {d for d, _ in query_string_topk(
        reader, {"knn": {"emb": {"vector": q}}}, k=1000)}
    fil = {d for d, _ in query_string_topk(reader, sugar, k=1000)}
    assert fil <= unf
    an = lambda s: s.lower().split()  # noqa: E731
    with pytest.raises(DslError):
        dsl_to_node({"knn": {"emb": {"vector": q, "filter": "x"}}}, an)


def test_knn_filter_is_non_scoring(built, ray_session):
    """A SCORING filter (match) must not perturb knn scores: filtered
    results are the unfiltered knn ranking restricted to the filter's
    match set, scores identical."""
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.reader import IndexReader

    root, vecs, _ = built
    reader = IndexReader(root)
    q = vecs[8].tolist()
    flt = {"match": {"body": "node pools"}}  # BM25-scoring clause
    filtered = query_string_topk(
        reader, {"knn": {"emb": {"vector": q, "filter": flt}}}, k=1000
    )
    unfiltered = dict(query_string_topk(
        reader, {"knn": {"emb": {"vector": q}}}, k=1000))
    flt_set = {d for d, _ in query_string_topk(reader, flt, k=1000)}
    assert {d for d, _ in filtered} == set(unfiltered) & flt_set
    for d, s in filtered:  # scores stay on the (1+cos)/2 scale
        assert s == unfiltered[d], d
