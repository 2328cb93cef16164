"""Filtered BM25 and facet aggregations (OpenSearch parity surface).

Python oracles: brute-force recomputation over the synthetic corpus —
the SQL oracles for the same queries live in ``__ray_entry__`` and are
driver-checked at sf0.01.
"""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("facetidx") / "idx")
    pages = rich_pages_table(80, dup_every=0)
    build_index(
        ray.data.from_arrow(pages),
        root,
        fingerprint="fc",
        num_parts=6,
        chain="simple",
        field="body",
    )
    return IndexReader(root), pages


def test_sharded_filtered_topk_matches_local(built, ray_session, tmp_path_factory):
    """The filtered path — a DSL ``bool`` must+filter through the query
    phase, on one in-process shard over the full reader and on a
    3-shard fleet (per-shard allowed bitmaps built from each shard's
    docs-store slice, exact cross-shard merge) — ranks the post-filtered
    dense BM25 ranking over an allowed set built from the docs store.
    Statistics stay global, so each hit scores its unfiltered dense
    score plus the filter clause's 1.0; a filter admitting no doc
    returns no hits."""
    import pyarrow.dataset as pads
    import os

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.bm25 import bm25_scores_dense
    from docs_indexer_ray.query.served import ShardedQueryService

    reader, _ = built
    query = "node pools quota"
    dense = bm25_scores_dense(reader, Analyzer("simple")(query))
    dset = pads.dataset(os.path.join(reader.index_dir, "docs"), partitioning="hive")
    t = dset.to_table(columns=["doc_id", "url", "warc_ts"])
    ids = t["doc_id"].to_pylist()
    # predicates over a stored keyword field (url >= some boundary) and
    # a timestamp field given as an ISO-8601 string (JSON has no
    # datetime type); each admits some of the query's hits
    urls = dict(zip(ids, t["url"].to_pylist()))
    cut = sorted(urls.values())[len(urls) // 4]
    stamps = dict(zip(ids, t["warc_ts"].to_pylist()))
    ts_cut = sorted(stamps.values())[len(stamps) // 2]
    cases = [
        (("url", cut), [d for d, u in urls.items() if u >= cut]),
        (("warc_ts", ts_cut.isoformat()),
         [d for d, v in stamps.items() if v >= ts_cut]),
    ]

    def dsl(col, gte):
        return {"bool": {"must": [{"match": {"body": query}}],
                         "filter": [{"range": {col: {"gte": gte}}}]}}

    fleet = ShardedQueryService(
        os.path.dirname(reader.index_dir), n_shards=3, chain="simple"
    )
    try:
        for svc in (ShardedQueryService.in_process(reader), fleet):
            for (col, gte), allowed in cases:
                assert 0 < len(allowed) < len(ids)
                cand = sorted(
                    ((d, dense[d]) for d in allowed if dense[d] != 0.0),
                    key=lambda x: (-x[1], x[0]),
                )[:5]
                assert cand
                got = svc.query_string(dsl(col, gte), k=5)
                assert [d for d, _ in got] == [d for d, _ in cand]
                for d, s in got:
                    assert s == round(dense[d] + 1.0, 9)  # the quantized key
                # memoized mask path: a second identical query hits the cache
                assert svc.query_string(dsl(col, gte), k=5) == got
            assert svc.query_string(dsl("warc_ts", "2999-01-01T00:00:00"), k=5) == []
    finally:
        fleet.shutdown()


def test_match_doc_ids_union_semantics(built):
    from docs_indexer_ray.query.facets import match_doc_ids

    reader, _ = built
    a = match_doc_ids(reader, ["node"])
    b = match_doc_ids(reader, ["quota"])
    both = match_doc_ids(reader, ["node", "quota", "node"])  # dup term folded
    assert np.array_equal(both, np.union1d(a, b))
    assert len(match_doc_ids(reader, ["zzz_not_a_term"])) == 0


def test_scan_partition_vectorized_equals_per_row(built):
    """The one-decode-per-partition scan kernel (global varint decode
    + arithmetic block restarts + reduceat fg fold) must equal the
    per-row reference decode on every partition — including salted /
    merged term rows and block boundaries."""
    import os

    from docs_indexer_ray.index.segments import read_segment, segment_path
    from docs_indexer_ray.query.facets import _member_mask, _pack_bitmap
    from docs_indexer_ray.query.significant import _decode_ids, _scan_partition

    reader, _ = built
    bits = _pack_bitmap(np.arange(0, reader.n_docs, 3))
    bs = int(reader.manifest.get("block_size", 128))
    checked = 0
    for rp in range(reader.num_parts):
        path = segment_path(reader._seg_dir, rp)
        if not os.path.exists(path):
            continue
        new = _scan_partition(reader._seg_dir, rp, bits, bs)
        t = read_segment(path, ["doc_ids_enc"])
        ref = [
            int(_member_mask(bits, _decode_ids(enc, bs).astype(np.int64)).sum())
            for enc in t["doc_ids_enc"].to_pylist()
        ]
        assert new["fg"].to_pylist() == ref, rp
        checked += t.num_rows
    assert checked > 0


def test_significant_terms_docs_mode_equals_scan(built, ray_session):
    """significant_terms' two fg strategies — full postings scan vs
    matched-doc re-tokenization (OpenSearch's fielddata path for
    selective queries) — produce the IDENTICAL table, and auto
    switches on the quarter-corpus threshold."""
    import numpy as np

    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.significant import significant_terms

    reader, _ = built
    terms, dfs = reader.term_dictionary()
    sel_term = str(terms[int(np.argmin(np.abs(dfs - reader.n_docs // 10)))])
    broad_term = str(terms[int(np.argmax(dfs))])

    sel = match_doc_ids(reader, [sel_term])
    assert 0 < len(sel) < reader.n_docs // 4
    a = significant_terms(reader, sel, k=10, mode="scan")
    b = significant_terms(reader, sel, k=10, mode="docs")
    # auto at this corpus size resolves to SCAN (the ≥200k-doc floor:
    # below it the scan is sub-0.1 s and docs-mode's fixed Ray Data
    # overhead would only add latency) — equality holds either way
    auto = significant_terms(reader, sel, k=10)
    assert a.equals(b) and a.equals(auto) and a.num_rows > 0

    broad = match_doc_ids(reader, [broad_term, sel_term])
    c = significant_terms(reader, broad, k=10, mode="scan")
    d = significant_terms(reader, broad, k=10, mode="docs")
    assert c.equals(d) and c.num_rows > 0

    with pytest.raises(ValueError, match="mode"):
        significant_terms(reader, sel, k=10, mode="nope")


def test_significant_terms_docs_mode_synthesized_text(
    ray_session, tmp_path_factory
):
    """docs mode on a build that indexed the SYNTHESIZED catch-all
    'text' field (the bench/production config — the docs store does
    not persist it): the per-batch synthesize_text rebuild must yield
    fg counts identical to the postings scan."""
    import os

    import numpy as np
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.significant import significant_terms
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("sigtext") / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(100, dup_every=0)),
        root,
        fingerprint="st",
        num_parts=4,
        chain="english",
        field="text",
    )
    r = IndexReader(root)
    assert "text" not in __import__("pyarrow.dataset", fromlist=["dataset"]).dataset(
        os.path.join(r.index_dir, "docs"), partitioning="hive"
    ).schema.names  # the premise: text is synthesized, not stored
    terms, dfs = r.term_dictionary()
    sel_term = str(terms[int(np.argmin(np.abs(dfs - r.n_docs // 5)))])
    sel = match_doc_ids(r, [sel_term])
    assert len(sel) > 0
    a = significant_terms(r, sel, k=10, mode="scan")
    b = significant_terms(r, sel, k=10, mode="docs")
    assert a.equals(b) and a.num_rows > 0


def test_sharded_service_death_is_loud_and_revivable(built, ray_session):
    """A dead shard actor fails queries LOUDLY (a silently-partial
    answer would mean silently missing doc ranges); revive() replaces
    exactly the dead replicas and the service returns the identical
    ranking."""
    import os

    import ray

    from docs_indexer_ray.query.served import ShardedQueryService

    reader, _ = built
    root = os.path.dirname(reader.index_dir)
    svc = ShardedQueryService(root, n_shards=3, chain="simple")
    try:
        before = svc.topk("node pools", k=5)
        assert before
        victim = svc._groups[1][0]
        ray.kill(victim)
        with pytest.raises(ray.exceptions.RayActorError):
            for _ in range(4):  # every fan-out must hit the dead shard
                svc.topk("node pools", k=5)
        assert svc.revive() == 1  # exactly the one dead replica
        assert svc.topk("node pools", k=5) == before
        assert svc.revive() == 0  # all live now — nothing replaced
    finally:
        svc.shutdown()


def test_match_set_never_decodes_postings_on_driver(built, ray_session, monkeypatch):
    """The facet entry path's match set is computed by RANGE TASKS on
    the workers (``match_doc_bitmap``) — planted guard: poison every
    postings decode in the DRIVER process and assert the distributed
    path still produces the exact match set and facet counts (the Ray
    workers import their own unpatched module copies; with any
    driver-side ``decode_all``/``decode_range`` the poisoned methods
    would raise)."""
    import ray.data

    from docs_indexer_ray.query import segments_io
    from docs_indexer_ray.query.facets import (
        match_doc_bitmap,
        match_doc_ids,
        terms_facet,
    )

    reader, pages = built
    expect = match_doc_ids(reader, ["node", "quota"])  # pre-poison reference

    def _boom(self, *a, **k):
        raise AssertionError("postings decoded in the driver process")

    monkeypatch.setattr(segments_io.TermPostings, "decode_all", _boom)
    monkeypatch.setattr(segments_io.TermPostings, "decode_range", _boom)

    from docs_indexer_ray.query.reader import IndexReader

    fresh = IndexReader(reader.index_dir)  # no memoized postings cache
    pm = match_doc_bitmap(fresh, ["node", "quota"], shards=3)
    assert np.array_equal(pm.ids(), expect)
    assert len(pm) == len(expect)

    # a full facet through the packed form — still no driver decode
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(len(pages["url"])), pa.int64()),
            "k": pa.array(
                (np.arange(len(pages["url"])) % 3).astype("U1")
            ),
        }
    )
    ds = ray.data.from_arrow(docs)
    t = terms_facet(ds, pm, field="k")
    t2 = terms_facet(ds, expect, field="k")  # id-array form, same counts
    assert t.equals(t2)
    assert int(pa.compute.sum(t["n_docs"]).as_py()) == len(expect)


def test_date_histogram_calendar_units(ray_session):
    """Calendar intervals bucket by CIVIL date_trunc (DuckDB/pandas
    period semantics), not epoch division: week starts Monday, month/
    quarter/year at their civil boundaries; buckets come back as
    timestamp[us] starts."""
    import pandas as pd
    import ray.data

    from docs_indexer_ray.query.facets import date_histogram

    n = 900
    ts = np.datetime64("2024-11-15T07:30:00", "us") + (
        np.arange(n) * 86_400
    ).astype("timedelta64[s]")
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    matched = np.arange(0, n, 3)
    df = t.to_pandas()
    df = df[df.doc_id.isin(matched)]
    for unit, period in (("week", "W-SUN"), ("month", "M"),
                         ("quarter", "Q"), ("year", "Y")):
        out = date_histogram(ds, matched, "warc_ts", unit)
        assert str(out.schema.field("bucket").type) == "timestamp[us]"
        if unit == "week":
            # pandas W-periods end Sunday → start Monday (ISO), like
            # DuckDB date_trunc('week')
            exp = df.groupby(
                df.warc_ts.dt.to_period(period).dt.start_time
            ).size()
        else:
            exp = df.groupby(
                df.warc_ts.dt.to_period(period).dt.to_timestamp()
            ).size()
        got = {
            pd.Timestamp(k): v
            for k, v in zip(out["bucket"].to_pylist(), out["n_docs"].to_pylist())
        }
        assert got == exp.to_dict(), (unit, got, exp.to_dict())
    with pytest.raises(ValueError, match="calendar"):
        date_histogram(ds, matched, "warc_ts", "fortnight")


def test_auto_date_histogram_ladder(ray_session):
    """auto_date_histogram picks the FINEST rung whose exact bucket
    count fits the target (fixed-seconds ladder, then calendar), and
    the buckets are the plain date_histogram at that rung."""
    import ray.data

    from docs_indexer_ray.query.facets import auto_date_histogram, date_histogram

    n = 1000
    ts = np.datetime64("2024-11-15T00:00:00", "us") + (
        np.arange(n) * 86_400
    ).astype("timedelta64[s]")
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)

    # 50-day span, target 10 → fixed 7-day weeks (day rung overflows)
    out = auto_date_histogram(ds, np.arange(50), target=10)
    assert out["interval"][0].as_py() == "604800s"
    assert out.num_rows <= 10
    assert int(pa.compute.sum(out["n_docs"]).as_py()) == 50

    # ~33-month span → quarter overflows (12 > 10), year fits
    out = auto_date_histogram(ds, np.arange(n), target=10)
    assert out["interval"][0].as_py() == "year"
    # …and a looser target stops at the finer calendar rung
    out2 = auto_date_histogram(ds, np.arange(n), target=40)
    assert out2["interval"][0].as_py() == "month"
    # month buckets ≡ the plain calendar date_histogram's
    plain = date_histogram(ds, np.arange(n), "warc_ts", "month")
    assert out2.select(["bucket", "n_docs"]).equals(plain.rename_columns(
        ["bucket", "n_docs"]
    ))

    # empty match set → empty three-column table
    out = auto_date_histogram(ds, np.empty(0, np.int64), target=10)
    assert out.num_rows == 0 and out.column_names == ["bucket", "n_docs", "interval"]


def test_value_bucket_sums_semantics():
    """The pipeline-agg shard primitive: histogram + date_histogram
    bucketing, null KEYS dropped, null METRICS counted with 0
    contribution (doc_count invariant under adding a metric)."""
    from docs_indexer_ray.query.facets import value_bucket_sums

    # histogram kind: lower-edge keys
    keys = pa.array([1.0, 9.0, 11.0, None, 25.0], pa.float64())
    vals = pa.array([10, 20, None, 99, 40], pa.int64())
    t = value_bucket_sums(keys, vals, "histogram", 10).sort_by("key")
    got = {
        r["key"]: (r["n"], r["sm"]) for r in t.to_pylist()
    }
    # null key dropped entirely; null metric counts but adds 0
    assert got == {0: (2, 30), 10: (1, 0), 20: (1, 40)}

    # date_histogram kind (fixed seconds), same null-metric rule
    ts = pa.array(
        np.array([60_000_000, 61_000_000, 130_000_000], np.int64),
        pa.timestamp("us"),
    )
    mv = pa.array([5, None, 7], pa.int64())
    t = value_bucket_sums(ts, mv, "date_histogram", 60).sort_by("key")
    assert [
        (r["key"], r["n"], r["sm"]) for r in t.to_pylist()
    ] == [(1, 2, 5), (2, 1, 7)]


def test_terms_facet_and_date_histogram(built, ray_session):
    import ray.data

    from docs_indexer_ray.query.facets import date_histogram, match_doc_ids, terms_facet

    reader, pages = built
    matched = match_doc_ids(reader, ["node", "quota"])
    n = 80
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "warc_ts": pa.array(
                [1_700_000_000_000_000 + i * 3_600_000_000 // 2 for i in range(n)],
                pa.timestamp("us"),
            ),
            "kind": pa.array(["even" if i % 2 == 0 else "odd" for i in range(n)]),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(4)

    tf = terms_facet(ds, matched, "kind")
    want = {}
    for d in matched:
        k = "even" if d % 2 == 0 else "odd"
        want[k] = want.get(k, 0) + 1
    got = dict(zip(tf["value"].to_pylist(), tf["n_docs"].to_pylist()))
    assert got == want
    # count desc, value asc ordering
    counts = tf["n_docs"].to_pylist()
    assert counts == sorted(counts, reverse=True)

    dh = date_histogram(ds, matched, ts_col="warc_ts", interval_s=3600)
    want_b = {}
    ts = docs["warc_ts"].cast(pa.int64()).to_pylist()
    for d in matched:
        b = ts[d] // 3_600_000_000
        want_b[b] = want_b.get(b, 0) + 1
    got_b = dict(zip(dh["bucket"].to_pylist(), dh["n_docs"].to_pylist()))
    assert got_b == want_b

    # empty matched set → empty facet with the right schema
    empty = terms_facet(ds, np.empty(0, np.int64), "kind")
    assert empty.num_rows == 0 and empty.column_names == ["value", "n_docs"]


def test_top_by_column_matches_full_sort(built, ray_session):
    import ray.data

    from docs_indexer_ray.query.facets import match_doc_ids, top_by_column

    reader, _ = built
    matched = match_doc_ids(reader, ["node", "quota"])
    n = 80
    rng = np.random.default_rng(7)
    base = 1_700_000_000_000_000
    # repeated timestamps to exercise the doc-id tie-break
    ts = base + rng.integers(0, 5, n) * 3_600_000_000
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(5)

    for ascending in (False, True):
        got = top_by_column(ds, matched, "warc_ts", k=7, ascending=ascending)
        want = sorted(
            ((int(ts[d]), int(d)) for d in matched),
            key=lambda x: (x[0] if ascending else -x[0], x[1]),
        )[:7]
        assert got.column_names == ["rank", "doc_id"]
        assert got["rank"].to_pylist() == list(range(1, len(want) + 1))
        assert got["doc_id"].to_pylist() == [d for _, d in want]

    # empty matched set → empty result with the right schema
    empty = top_by_column(ds, np.empty(0, np.int64), "warc_ts", k=5)
    assert empty.num_rows == 0 and empty.column_names == ["rank", "doc_id"]


def test_stats_and_cardinality_facets(built, ray_session):
    import ray.data

    from docs_indexer_ray.query.facets import cardinality, match_doc_ids, stats_facet

    reader, _ = built
    matched = match_doc_ids(reader, ["node", "quota"])
    n = 80
    vals = np.arange(n, dtype=np.int64) % 13 + 5
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(vals, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(5)

    st = stats_facet(ds, matched, "v")
    mv = vals[matched]
    assert st["n_docs"][0].as_py() == len(matched)
    assert st["min_v"][0].as_py() == float(mv.min())
    assert st["max_v"][0].as_py() == float(mv.max())
    assert st["sum_v"][0].as_py() == float(mv.sum())
    assert st["avg_v"][0].as_py() == pytest.approx(mv.sum() / len(mv))

    card = cardinality(ds, matched, "v")
    assert card["n_unique"][0].as_py() == len(np.unique(mv))

    # empty matched set
    st0 = stats_facet(ds, np.empty(0, np.int64), "v")
    assert st0["n_docs"][0].as_py() == 0 and st0["min_v"][0].as_py() is None
    assert cardinality(ds, np.empty(0, np.int64), "v")["n_unique"][0].as_py() == 0

    # missing values are ignored (DuckDB / OpenSearch), not NaN/inf
    from docs_indexer_ray.query.facets import extended_stats_facet

    nds, alld = _null_bearing(ray.data)
    st = stats_facet(nds, alld, "v")
    assert st.to_pylist() == [
        {"n_docs": 4, "min_v": 1.0, "max_v": 7.0, "sum_v": 16.0, "avg_v": 4.0}
    ]
    es = extended_stats_facet(nds, alld, "v").to_pylist()[0]
    assert (es["n_docs"], es["sum_sq"], es["variance"]) == (4, 84.0, 5.0)
    assert es["std_dev"] == pytest.approx(5.0 ** 0.5)
    assert cardinality(nds, alld, "v")["n_unique"][0].as_py() == 4


def _null_bearing(data):
    """The column ``[1, null, 3, null, 5, 7]`` over docs 0..5 → ``(ds,
    all doc ids)``."""
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(6), pa.int64()),
            "v": pa.array([1, None, 3, None, 5, 7], pa.int64()),
        }
    )
    return data.from_arrow(t).repartition(2), np.arange(6, dtype=np.int64)


def test_histogram_range_percentiles_facets(built, ray_session):
    import ray.data

    from docs_indexer_ray.query.facets import (
        histogram,
        match_doc_ids,
        percentiles,
        range_facet,
    )

    reader, _ = built
    matched = match_doc_ids(reader, ["node", "quota"])
    n = 80
    rng = np.random.default_rng(11)
    vals = rng.integers(-120, 400, n)
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(vals, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(5)
    mv = vals[matched]

    # histogram: floor-bucketed counts (incl. negatives), count desc
    h = histogram(ds, matched, "v", interval=50)
    want = {}
    for x in mv:
        want[int(np.floor(x / 50.0) * 50)] = want.get(int(np.floor(x / 50.0) * 50), 0) + 1
    got = dict(zip(h["bucket"].to_pylist(), h["n_docs"].to_pylist()))
    assert got == want
    counts = h["n_docs"].to_pylist()
    assert counts == sorted(counts, reverse=True)

    # range: explicit buckets, overlap allowed, empties kept as 0
    ranges = [(-200.0, 0.0), (0.0, 100.0), (50.0, 150.0), (1000.0, 2000.0)]
    r = range_facet(ds, matched, "v", ranges)
    assert r["lo"].to_pylist() == sorted(x[0] for x in ranges)
    for lo, hi, nd in zip(
        r["lo"].to_pylist(), r["hi"].to_pylist(), r["n_docs"].to_pylist()
    ):
        assert nd == int(((mv >= lo) & (mv < hi)).sum())
    assert r["n_docs"].to_pylist()[-1] == 0  # empty bucket kept

    # percentiles: exact path ≡ numpy linear interpolation; and
    # parallelism-invariant (histogram partials merge losslessly)
    qs = [10.0, 50.0, 90.0, 99.0]
    p = percentiles(ds, matched, "v", qs)
    for q, v in zip(p["pct"].to_pylist(), p["value"].to_pylist()):
        assert v == pytest.approx(
            float(np.quantile(mv.astype(np.float64), q / 100.0)), abs=1e-12
        )
    p2 = percentiles(ray.data.from_arrow(docs).repartition(13), matched, "v", qs)
    assert p["value"].to_pylist() == p2["value"].to_pylist()

    # empty matched set → null values, full pct column
    p0 = percentiles(ds, np.empty(0, np.int64), "v", qs)
    assert p0["pct"].to_pylist() == qs
    assert all(v is None for v in p0["value"].to_pylist())

    # t-digest path lands within the envelope on this small set
    pt = percentiles(ds, matched, "v", qs, approx=True)
    lo_v, hi_v = float(mv.min()), float(mv.max())
    for v in pt["value"].to_pylist():
        assert lo_v <= v <= hi_v

    # percentile_ranks: inverse percentiles, exact counts
    from docs_indexer_ray.query.facets import percentile_ranks

    probes = [-500.0, 0.0, 150.0, 1000.0]
    pr = percentile_ranks(ds, matched, "v", probes)
    for val, pct in zip(pr["value"].to_pylist(), pr["rank_pct"].to_pylist()):
        assert pct == pytest.approx(100.0 * (mv <= val).sum() / len(mv))
    assert pr["rank_pct"].to_pylist()[0] == 0.0
    assert pr["rank_pct"].to_pylist()[-1] == 100.0
    pr0 = percentile_ranks(ds, np.empty(0, np.int64), "v", probes)
    assert all(x is None for x in pr0["rank_pct"].to_pylist())

    # missing values are ignored: ranks and percentiles over the 4
    # present values only
    nds, alld = _null_bearing(ray.data)
    pr = percentile_ranks(nds, alld, "v", [3.0, 7.0])
    assert pr["rank_pct"].to_pylist() == [50.0, 100.0]
    assert percentiles(nds, alld, "v", [50.0])["value"].to_pylist() == [4.0]


def test_multi_terms_facet(built, ray_session):
    import ray.data

    from docs_indexer_ray.query.facets import match_doc_ids, multi_terms_facet

    reader, _ = built
    matched = match_doc_ids(reader, ["node", "quota"])
    n = 80
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "a": pa.array([f"a{i % 2}" for i in range(n)], pa.string()),
            "b": pa.array([f"b{i % 3}" for i in range(n)], pa.string()),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(5)
    got = multi_terms_facet(ds, matched, ["a", "b"])
    want = {}
    for d in matched:
        key = (f"a{d % 2}", f"b{d % 3}")
        want[key] = want.get(key, 0) + 1
    got_map = {
        (a, b): c
        for a, b, c in zip(
            got["a"].to_pylist(), got["b"].to_pylist(), got["n_docs"].to_pylist()
        )
    }
    assert got_map == want
    counts = got["n_docs"].to_pylist()
    assert counts == sorted(counts, reverse=True)
    empty = multi_terms_facet(ds, np.empty(0, np.int64), ["a", "b"])
    assert empty.num_rows == 0 and empty.column_names == ["a", "b", "n_docs"]


def test_top_hits_facet(built, ray_session):
    import ray.data

    from docs_indexer_ray.query.facets import match_doc_ids, top_hits

    reader, _ = built
    matched = match_doc_ids(reader, ["node", "quota"])
    n = 80
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "grp": pa.array([f"g{i % 3}" for i in range(n)], pa.string()),
            "v": pa.array((np.arange(n) * 37) % 50, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(5)
    got = top_hits(ds, matched, group_col="grp", sort_col="v", k=2)

    # brute force: per group, matched docs by (v desc, doc_id desc)
    rows = []
    for g in sorted({f"g{i % 3}" for i in range(n)}):
        members = [(int((d * 37) % 50), int(d)) for d in matched if f"g{d % 3}" == g]
        members.sort(key=lambda x: (-x[0], -x[1]))
        for r, (_, d) in enumerate(members[:2], 1):
            rows.append((g, r, d))
    assert list(
        zip(
            got["value"].to_pylist(),
            got["rank"].to_pylist(),
            got["doc_id"].to_pylist(),
        )
    ) == rows
    # parallelism invariance
    got13 = top_hits(
        ray.data.from_arrow(docs).repartition(13), matched, "grp", "v", k=2
    )
    assert got.equals(got13)
    # empty matched
    empty = top_hits(ds, np.empty(0, np.int64), "grp", "v", k=2)
    assert empty.num_rows == 0 and empty.column_names == ["value", "rank", "doc_id"]


def test_significant_terms_jlh(built, ray_session):
    """JLH scoring vs a brute-force Python recomputation over the
    fixture corpus, plus edge cases."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.significant import significant_terms

    reader, _ = built
    matched = match_doc_ids(reader, ["node", "quota"])
    got = significant_terms(reader, matched, k=15)

    # brute force: tokenize every indexed body with the build's chain
    fetched = reader.fetch_docs(list(range(reader.n_docs)), columns=["doc_id", "body"])
    bodies = dict(zip(fetched["doc_id"].to_pylist(), fetched["body"].to_pylist()))
    an = Analyzer("simple")
    docs_terms = [set(an(bodies[d])) for d in range(reader.n_docs)]
    mset = set(int(x) for x in matched)
    n_fg, n_docs = len(mset), len(docs_terms)
    from collections import Counter

    fg, bg = Counter(), Counter()
    for d, ts in enumerate(docs_terms):
        for t in ts:
            bg[t] += 1
            if d in mset:
                fg[t] += 1
    scored = []
    for t, f in fg.items():
        fgr, bgr = f / float(n_fg), bg[t] / float(n_docs)
        if fgr > bgr:
            scored.append((t, f, bg[t], (fgr - bgr) * (fgr / bgr)))
    scored.sort(key=lambda x: (-x[3], x[0]))
    want = scored[:15]
    assert got["term"].to_pylist() == [w[0] for w in want]
    assert got["fg_df"].to_pylist() == [w[1] for w in want]
    assert got["bg_df"].to_pylist() == [w[2] for w in want]
    for g, w in zip(got["score"].to_pylist(), want):
        assert g == pytest.approx(w[3], rel=1e-12)
    # a query term present in the corpus has fgr = 1 by construction
    # and must surface in the un-truncated ranking ("quota" has df 0
    # in this fixture — absent terms never appear)
    full = significant_terms(reader, matched, k=100_000)
    assert "node" in set(full["term"].to_pylist())
    assert "quota" not in set(full["term"].to_pylist())

    # empty matched set → empty result with the full schema
    empty = significant_terms(reader, np.empty(0, np.int64))
    assert empty.num_rows == 0
    assert empty.column_names == ["term", "fg_df", "bg_df", "score"]


def test_more_like_this(built):
    from docs_indexer_ray.query.mlt import more_like_this, select_mlt_terms

    reader, _ = built
    src = 3
    terms = select_mlt_terms(reader, src, max_query_terms=25)
    assert 0 < len(terms) <= 25
    # selected terms all exist in the vocabulary and come from the doc
    body = reader.fetch_docs([src], columns=["doc_id", "body"])["body"][0].as_py()
    from docs_indexer_ray.functions.analyzer import Analyzer

    doc_toks = set(Analyzer(reader.chain)(body))
    assert set(terms) <= doc_toks
    assert all(reader.term_df(t) > 0 for t in terms)
    # tf·idf ordering: the top selected term is no more frequent in the
    # corpus than the bottom one unless its tf compensates
    got = more_like_this(reader, src, k=5)
    ids = got["doc_id"].to_pylist()
    assert src not in ids
    assert len(ids) == len(set(ids)) <= 5
    assert got["rank"].to_pylist() == list(range(1, len(ids) + 1))
    # the best match shares terms with the source
    best_body = reader.fetch_docs([ids[0]], columns=["doc_id", "body"])["body"][0].as_py()
    assert set(Analyzer(reader.chain)(best_body)) & set(terms)

    with pytest.raises(KeyError):
        select_mlt_terms(reader, 10_000_000)


def test_soft_deletes(built, tmp_path):
    """Tombstone semantics: deleted docs vanish from every query
    surface; survivors keep their exact pre-delete scores; merge
    refuses un-compacted inputs."""
    import os
    import shutil

    from docs_indexer_ray.index.deletes import (
        add_deletes,
        clear_deletes,
        delete_by_terms,
        load_delete_ids,
    )
    from docs_indexer_ray.query.bm25 import topk
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader

    reader0, _ = built
    copy = str(tmp_path / "delidx")
    shutil.copytree(os.path.dirname(reader0.index_dir), copy)

    before = topk(IndexReader(copy), ["node", "pools"], k=10)
    assert before
    victims = [d for d, _ in before[:2]]
    assert add_deletes(copy, victims) == 2
    assert sorted(load_delete_ids(copy).tolist()) == sorted(victims)

    r = IndexReader(copy)
    assert r.match_all_count() == r.n_docs - 2
    after = topk(r, ["node", "pools"], k=10)
    assert not ({d for d, _ in after} & set(victims))
    # survivors keep their exact scores and relative order
    surv = [(d, s) for d, s in before if d not in victims]
    assert after[: len(surv)] == surv[: len(after)]
    # facet match sets exclude tombstones
    assert not (set(match_doc_ids(r, ["node"])) & set(victims))

    # delete_by_terms is incremental and idempotent
    n_new = delete_by_terms(copy, ["node"])
    assert n_new >= 1
    assert delete_by_terms(copy, ["node"]) == 0
    r2 = IndexReader(copy)
    assert topk(r2, ["node"], k=10) == []

    # out-of-range ids rejected loudly
    with pytest.raises(ValueError, match="outside"):
        add_deletes(copy, [10_000_000])

    # merge refuses tombstoned inputs
    from docs_indexer_ray.index.merge import merge_many

    with pytest.raises(ValueError, match="tombstones"):
        merge_many([copy, copy], str(tmp_path / "m"))

    # compaction reset restores full visibility
    clear_deletes(copy)
    assert IndexReader(copy).match_all_count() == r.n_docs
    assert topk(IndexReader(copy), ["node", "pools"], k=10) == before

    # sharded serving respects tombstones (per-shard live masks)
    add_deletes(copy, victims)
    from docs_indexer_ray.query.served import ShardedQueryService

    svc = ShardedQueryService(copy, n_shards=3, chain=reader0.chain)
    try:
        sharded = svc.topk("node pools", k=10)
    finally:
        svc.shutdown()
    local = topk(IndexReader(copy), ["node", "pools"], k=10)
    assert sharded == local
    assert not ({d for d, _ in sharded} & set(victims))


def test_collapse_top(built, ray_session):
    import ray.data

    from docs_indexer_ray.query.bm25 import bm25_scores_dense
    from docs_indexer_ray.query.facets import collapse_top

    reader, _ = built
    scores = bm25_scores_dense(reader, ["node", "pools", "the"])
    n = reader.n_docs
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "grp": pa.array([f"g{i % 4}" for i in range(n)], pa.string()),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(5)
    got = collapse_top(ds, scores, "grp", k=3)

    # brute force: best doc per group by (score desc, doc_id asc)
    best = {}
    for d in range(n):
        if scores[d] > 0:
            g = f"g{d % 4}"
            cur = best.get(g)
            if cur is None or (-scores[d], d) < (-scores[cur], cur):
                best[g] = d
    ranked = sorted(best.items(), key=lambda kv: (-scores[kv[1]], kv[1]))[:3]
    assert got["doc_id"].to_pylist() == [d for _, d in ranked]
    assert got["value"].to_pylist() == [g for g, _ in ranked]
    assert got["rank"].to_pylist() == [1, 2, 3][: len(ranked)]
    # one result per group value
    assert len(set(got["value"].to_pylist())) == got.num_rows
    # parallelism invariance
    got13 = collapse_top(
        ray.data.from_arrow(docs).repartition(13), scores, "grp", k=3
    )
    assert got.equals(got13)
    # zero scores everywhere → empty
    empty = collapse_top(ds, np.zeros(n), "grp", k=3)
    assert empty.num_rows == 0


def test_explain_breakdown_sums_to_score(built):
    from docs_indexer_ray.query.bm25 import bm25_scores_dense, explain

    reader, _ = built
    terms = ["node", "pools", "quota"]
    dense = bm25_scores_dense(reader, terms)
    doc = int(np.argmax(dense))
    ex = explain(reader, terms, doc)
    assert ex.num_rows >= 1
    assert sum(ex["weight"].to_pylist()) == pytest.approx(dense[doc], rel=1e-12)
    # absent terms and non-matching docs yield no rows / empty tables
    zero = int(np.flatnonzero(dense == 0)[0]) if (dense == 0).any() else None
    if zero is not None:
        assert explain(reader, terms, zero).num_rows == 0
    with pytest.raises(KeyError):
        explain(reader, terms, 10_000_000)


def test_term_vectors(built):
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.mlt import term_vectors

    reader, _ = built
    tv = term_vectors(reader, 3, with_positions=True)
    body = reader.fetch_docs([3], columns=["doc_id", "body"])["body"][0].as_py()
    toks = Analyzer(reader.chain)(body)
    from collections import Counter

    want_tf = Counter(toks)
    assert tv["term"].to_pylist() == sorted(want_tf)
    assert dict(zip(tv["term"].to_pylist(), tv["tf"].to_pylist())) == dict(want_tf)
    # df comes from the index dictionary
    for t, df in zip(tv["term"].to_pylist(), tv["df"].to_pylist()):
        assert df == reader.term_df(t) >= 1
    # positions are the 0-based token indices, ascending per term
    for t, pos in zip(tv["term"].to_pylist(), tv["positions"].to_pylist()):
        assert pos == [i for i, x in enumerate(toks) if x == t]
    with pytest.raises(KeyError):
        term_vectors(reader, 10_000_000)


def test_multi_match_modes(built, ray_session, tmp_path_factory):
    """multi_match over two fields of the same corpus: most_fields is
    the boosted sum of per-field dense scores, best_fields the
    DisjunctionMax — checked against manual per-field combination."""
    import ray.data

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.bm25 import bm25_scores_dense
    from docs_indexer_ray.query.multimatch import multi_match_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    reader_body, pages = built
    # a second field over the SAME corpus: title (same doc-id space)
    root_t = str(tmp_path_factory.mktemp("mmidx") / "idx")
    build_index(
        ray.data.from_arrow(pages),
        root_t,
        fingerprint="mt",
        num_parts=4,
        chain="simple",
        field="title",
    )
    reader_title = IndexReader(root_t)
    assert reader_title.n_docs == reader_body.n_docs

    query = "node pools quota"
    terms = Analyzer("simple")(query)
    sb = 1.0 * bm25_scores_dense(reader_body, terms)
    st = 2.0 * bm25_scores_dense(reader_title, terms)
    fields = [(reader_body, 1.0), (reader_title, 2.0)]

    got = multi_match_topk(fields, query, k=5, mode="most_fields")
    comb = sb + st
    want = sorted(
        ((d, comb[d]) for d in np.flatnonzero(comb)), key=lambda x: (-x[1], x[0])
    )[:5]
    assert [(d, pytest.approx(s)) for d, s in want] == got

    got_best = multi_match_topk(fields, query, k=5, mode="best_fields", tie_breaker=0.4)
    mx = np.maximum(sb, st)
    comb_b = mx + 0.4 * (sb + st - mx)
    want_b = sorted(
        ((d, comb_b[d]) for d in np.flatnonzero(comb_b)), key=lambda x: (-x[1], x[0])
    )[:5]
    assert [(d, pytest.approx(s)) for d, s in want_b] == got_best

    with pytest.raises(ValueError, match="mode"):
        multi_match_topk(fields, query, mode="cross_fields")
    assert multi_match_topk([], query) == []


def test_cross_fields_matches_bruteforce(built, ray_session, tmp_path_factory):
    """cross_fields = ONE blended virtual field: union df, boosted
    summed tf, summed dl — recomputed from the raw corpus in plain
    Python and compared rank-for-rank."""
    import math
    import re

    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.multimatch import cross_fields_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    reader_body, pages = built
    root_t = str(tmp_path_factory.mktemp("cfidx") / "idx")
    build_index(
        ray.data.from_arrow(pages),
        root_t,
        fingerprint="ct",
        num_parts=4,
        chain="simple",
        field="title",
    )
    reader_title = IndexReader(root_t)
    fields = [(reader_body, 1.0), (reader_title, 2.0)]
    query = "node pools quota"
    got = cross_fields_topk(fields, query, k=8)

    import os

    import pyarrow.dataset as pads

    docs = (
        pads.dataset(
            os.path.join(reader_body.index_dir, "docs"), partitioning="hive"
        )
        .to_table(columns=["doc_id", "body", "title"])
        .sort_by("doc_id")
    )
    tok = re.compile(r"[a-z0-9]+")
    n = reader_body.n_docs
    body = [tok.findall((x or "").lower()) for x in docs["body"].to_pylist()]
    title = [tok.findall((x or "").lower()) for x in docs["title"].to_pylist()]
    dl = np.array([len(b) + len(t) for b, t in zip(body, title)], np.float64)
    avgdl = dl[dl > 0].sum() / (dl > 0).sum()
    score = np.zeros(n)
    for term in tok.findall(query.lower()):
        tf = np.array(
            [
                1.0 * b.count(term) + 2.0 * t.count(term)
                for b, t in zip(body, title)
            ]
        )
        present = np.array(
            [term in b or term in t for b, t in zip(body, title)]
        )
        df = int(present.sum())
        if not df:
            continue
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        score[present] += (
            idf * tf[present] / (tf[present] + 1.2 * (1 - 0.75 + 0.75 * dl[present] / avgdl))
        )
    want = sorted(
        ((d, score[d]) for d in np.flatnonzero(score)), key=lambda x: (-x[1], x[0])
    )[:8]
    assert [(d, pytest.approx(s)) for d, s in want] == got

    # a term present ONLY in the title still contributes (union df)
    title_tok = next(t for ts in title if ts for t in ts)
    assert cross_fields_topk(fields, title_tok, k=3)

    # mixed analyzer chains refuse loudly
    root_e = str(tmp_path_factory.mktemp("cfidx_e") / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(10, dup_every=0)),
        root_e,
        fingerprint="ce",
        num_parts=2,
        chain="english",
        field="body",
    )
    with pytest.raises(ValueError, match="doc spaces|chain"):
        cross_fields_topk(
            [(reader_body, 1.0), (IndexReader(root_e), 1.0)], query
        )


def test_fuzzy_and_wildcard(built):
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.fuzzy import (
        auto_fuzziness,
        edit_distance,
        fuzzy_expand,
        fuzzy_match_doc_ids,
        wildcard_terms,
    )

    reader, _ = built
    terms, dfs = reader.term_dictionary()
    vocab = dict(zip(terms.tolist(), dfs.tolist()))

    # Python oracle: brute-force expansion in both distance modes
    for token, transpositions in [("nodes", True), ("qota", False), ("pols", True)]:
        for max_edits in (1, 2):
            got = fuzzy_expand(
                reader,
                token,
                max_edits=max_edits,
                transpositions=transpositions,
                max_expansions=10**6,
            )
            want = [
                (t, edit_distance(token, t, cap=max_edits, transpositions=transpositions), int(d))
                for t, d in vocab.items()
            ]
            want = [w for w in want if w[1] <= max_edits]
            want.sort(key=lambda c: (c[1], -c[2], c[0]))
            assert got == want, (token, max_edits, transpositions)

    # transpositions=True admits swap-typos that plain Levenshtein ranks worse
    assert edit_distance("ndoe", "node", cap=2, transpositions=True) == 1
    assert edit_distance("ndoe", "node", cap=2, transpositions=False) == 2

    # AUTO fuzziness bands
    assert [auto_fuzziness(t) for t in ("ab", "abc", "abcde", "abcdef")] == [0, 1, 1, 2]

    # prefix_length pins the head: candidates not sharing it are excluded
    pinned = fuzzy_expand(reader, "nodes", max_edits=2, prefix_length=2)
    assert pinned and all(t.startswith("no") for t, _, _ in pinned)

    # document-level fuzzy == union of expansion postings
    exp = fuzzy_expand(reader, "qota", max_edits=1, max_expansions=10**6)
    ids = fuzzy_match_doc_ids(reader, "qota", max_edits=1, max_expansions=10**6)
    assert np.array_equal(ids, match_doc_ids(reader, [t for t, _, _ in exp]))

    # max_expansions keeps the best-ranked head
    full = fuzzy_expand(reader, "nodes", max_edits=2, max_expansions=10**6)
    assert fuzzy_expand(reader, "nodes", max_edits=2, max_expansions=2) == full[:2]

    # wildcard: fnmatch oracle over the dictionary, df desc / term asc
    import fnmatch

    # mix of prefix-ranged, trigram-accelerated (leading/infix
    # wildcards with a ≥3-char literal run), unconstrained-scan
    # ("*a*"), ?-split runs, and no-match patterns — every plan leg
    for pattern in (
        "no?e*",
        "*ool*",
        "quota",
        "z*",
        "*ster",
        "*lust*r",
        "*a*",
        "?ode*",
        "*zzqx*",
        "*po?ls*",
    ):
        got = wildcard_terms(reader, pattern, limit=10**6)
        want = [
            (t, int(d))
            for t, d in vocab.items()
            if fnmatch.fnmatchcase(t, pattern)
        ]
        want.sort(key=lambda kv: (-kv[1], kv[0]))
        assert got == want, pattern
    # the trigram index is built once and cached on the reader
    assert hasattr(reader, "_wc_trigram_index")


def test_regexp_terms_scan_equality(built):
    """regexp_terms ≡ brute-force re.fullmatch over the dictionary,
    across every plan leg: pure literal, trigram-accelerated infix
    runs, class/quantifier retraction (conservative full scan),
    top-level alternation (acceleration disabled), dead trigram."""
    import re as _re

    from docs_indexer_ray.query.fuzzy import _regex_trigrams, regexp_terms

    reader, _ = built
    terms, dfs = reader.term_dictionary()
    vocab = dict(zip(terms.tolist(), dfs.tolist()))

    for pattern in (
        "quota",              # pure literal → anchored trigrams
        ".*ode.*",            # infix run → trigram leg
        ".*uste?r",           # quantifier retracts 'e' → run "ust"
        "n[aeiou]de.*",       # class splits runs
        "node|pool",          # top-level alternation → full scan
        "(no|po)[a-z]+",      # leading group, no ≥3 run → full scan
        ".*zzqx.*",           # dead trigram → []
        "x{2,3}y.*",          # brace quantifier retraction
    ):
        got = regexp_terms(reader, pattern, limit=10**6)
        rx = _re.compile(pattern)
        want = [(t, int(d)) for t, d in vocab.items() if rx.fullmatch(t)]
        want.sort(key=lambda kv: (-kv[1], kv[0]))
        assert got == want, pattern

    # extraction sanity: mandatory runs only, anchors honored
    assert _regex_trigrams("abc") == ["^ab", "abc", "bc$"]
    assert _regex_trigrams(".*merg(e|es)") == ["mer", "erg"]
    assert _regex_trigrams("ab?c") == []          # nothing ≥3 survives
    assert _regex_trigrams("a|b") is None         # alternation: unsafe
    assert _regex_trigrams("tab.*") == ["^ta", "tab"]


def test_synonym_query_semantics(built):
    """Lucene SynonymQuery: blended tf-sum + max-df, NOT a should-OR."""
    import math

    from docs_indexer_ray.query.bm25 import (
        bm25_idf,
        bm25_scores_dense,
        synonym_topk,
    )

    reader, _ = built

    # singleton groups ≡ plain BM25 (same quantized ranking)
    terms = ["node", "pools"]
    got = synonym_topk(reader, [[t] for t in terms], k=10**6)
    dense = bm25_scores_dense(reader, terms)
    want = sorted(
        ((-round(float(dense[d]), 9), int(d)) for d in range(len(dense)) if dense[d] > 0)
    )
    assert [(d, -s) for s, d in want] == got

    # pick two dictionary terms with DIFFERENT dfs so max-df blending
    # is observable
    dterms, ddfs = reader.term_dictionary()
    order = sorted(zip(ddfs.tolist(), dterms.tolist()))
    t_lo, t_hi = order[0][1], order[-1][1]
    assert order[0][0] != order[-1][0]
    terms = [t_lo, t_hi]
    dense = bm25_scores_dense(reader, terms)

    # blended group: a doc matching both synonyms gets ONE idf (the
    # max-df one), so its blended score is below the should-OR sum
    groups = [[t_lo, t_hi]]
    blended = dict(synonym_topk(reader, groups, k=10**6))
    or_sum = dict(
        (int(d), float(dense[d])) for d in range(len(dense)) if dense[d] > 0
    )
    assert set(blended) == set(or_sum)  # same matched docs
    n = reader.n_docs
    df_lo = reader.postings(t_lo).df
    df_hi = reader.postings(t_hi).df
    assert df_lo != df_hi
    # idf(max df) < idf(min df): blended can never exceed the OR sum
    assert all(blended[d] <= or_sum[d] + 1e-9 for d in blended)
    assert any(blended[d] < or_sum[d] - 1e-9 for d in blended)

    # unknown-term group contributes nothing; all-unknown returns []
    assert synonym_topk(reader, [["zzzznope"]], k=10) == []
    with_unknown = synonym_topk(reader, [["node", "zzzznope"]], k=10**6)
    only_node = synonym_topk(reader, [["node"]], k=10**6)
    assert with_unknown == only_node

    # a doc matching ONLY the low-df synonym is still scored with the
    # group's max-df idf — verify one such doc numerically
    lo_ids, lo_tfs = reader.postings(t_lo).decode_all()
    hi_ids, _ = reader.postings(t_hi).decode_all()
    only_lo = sorted(set(lo_ids.tolist()) - set(hi_ids.tolist()))
    if only_lo:
        d = only_lo[0]
        tf = float(lo_tfs[list(lo_ids.tolist()).index(d)])
        dl = float(reader.doclens[d])
        avgdl = reader.avgdl
        kf = 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)
        exp = bm25_idf(n, max(df_lo, df_hi)) * tf / (tf + kf)
        assert math.isclose(blended[d], round(exp, 9), rel_tol=1e-9)


def test_cross_encoder_rerank(built):
    """Retrieve→rerank: honest NotImplementedError without a model;
    fake path reorders by token Jaccard with doc-id ties; window
    bounds the scored set."""
    import pytest as _pytest

    from docs_indexer_ray.query.rerank import CrossEncoderStub, rerank_topk

    reader, _ = built
    with _pytest.raises(NotImplementedError, match="fake=True"):
        CrossEncoderStub().score(["node"], ["some text"])

    stub = CrossEncoderStub(fake=True)
    hits = rerank_topk(reader, ["node", "pools"], stub, window=20, k=5)
    assert 0 < len(hits) <= 5
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)
    assert all(0.0 <= s <= 1.0 for s in scores)

    # identical-score docs order by ascending doc_id
    for (d1, s1), (d2, s2) in zip(hits, hits[1:]):
        if s1 == s2:
            assert d1 < d2

    # empty retrieval -> empty rerank
    assert rerank_topk(reader, ["zzzznope"], stub) == []

    # scorer sanity: exact-overlap doc scores 1.0, disjoint scores 0.0
    s = stub.score(["alpha", "beta"], ["alpha beta", "gamma delta", ""])
    assert s.tolist() == [1.0, 0.0, 0.0]


def test_collapse_topk_matches_bruteforce(built):
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.bm25 import bm25_scores_dense, collapse_topk

    reader, _ = built
    terms = Analyzer("simple")("node pools quota")

    # external key source: planted 4-way grouping
    def fetch_keys(matched):
        return matched, np.asarray([f"g{d % 4}" for d in matched], object)

    got = collapse_topk(reader, terms, k=3, fetch_keys=fetch_keys)

    dense = bm25_scores_dense(reader, terms)
    ranked = sorted(
        (-round(float(dense[d]), 9), int(d))
        for d in np.flatnonzero(dense > 0.0).tolist()
    )
    best, seen = [], set()
    for negq, d in ranked:
        key = f"g{d % 4}"
        if key in seen:
            continue
        seen.add(key)
        best.append((d, -negq, key))
    assert got == best[:3]
    # one row per key, rank order preserved
    keys = [key for _, _, key in got]
    assert len(keys) == len(set(keys))
    scores = [s for _, s, _ in got]
    assert scores == sorted(scores, reverse=True)

    # stored-field mode reads the docs store and agrees with the same
    # keys supplied externally
    t = reader.fetch_docs(list(range(reader.n_docs)), ["doc_id", "breadcrumb_1"])
    by_id = dict(
        zip(t["doc_id"].to_pylist(), t["breadcrumb_1"].to_pylist())
    )

    def fetch_bc(matched):
        return matched, np.asarray([by_id[int(d)] for d in matched], object)

    assert collapse_topk(reader, terms, key_field="breadcrumb_1", k=5) == \
        collapse_topk(reader, terms, k=5, fetch_keys=fetch_bc)

    # no matches -> empty
    assert collapse_topk(reader, ["zzzznotaterm"], k=3, fetch_keys=fetch_keys) == []


def _collapse_rows_oracle(vals: np.ndarray, ids, s, cap: int) -> np.ndarray:
    """Reference collapse: group on a labeled ``"v" + str(x)`` proxy
    per row, null as its own ``"\\x00"`` group."""
    order = np.lexsort((ids, -s))
    grp = np.array(
        ["\x00" if x is None else "v" + str(x) for x in vals.tolist()],
        dtype=object,
    )
    _, first = np.unique(grp[order], return_index=True)
    return order[np.sort(first)[:cap]]


@pytest.mark.parametrize("kind", ["str", "int", "str_null", "int_null", "all_null"])
def test_collapse_rows_matches_proxy_kernel(kind):
    """Dictionary-code grouping picks the same rows as the per-row
    string-proxy kernel, on string, integer and null-containing keys
    (score ties broken by doc id), chunked or not."""
    from docs_indexer_ray.query.bm25 import collapse_rows

    rng = np.random.default_rng(11)
    n = 500
    ints = rng.integers(0, 40, n)
    vals = [f"k{x}" for x in ints] if kind.startswith("str") else ints.tolist()
    if kind.endswith("null"):
        vals = [
            None if (kind == "all_null" or x % 7 == 0) else v
            for x, v in zip(ints, vals)
        ]
    ids = rng.permutation(n).astype(np.int64)
    s = rng.integers(1, 30, n).astype(np.float64) / 7.0  # many ties
    keys = pa.array(vals)
    for cap in (1, 5, 1000):
        want = _collapse_rows_oracle(np.asarray(vals, dtype=object), ids, s, cap)
        assert collapse_rows(keys, ids, s, cap).tolist() == want.tolist()
        chunked = pa.chunked_array([keys.slice(0, 123), keys.slice(123)])
        assert collapse_rows(chunked, ids, s, cap).tolist() == want.tolist()


def test_terms_facet_approx_tracks_exact(built, ray_session):
    import ray.data

    from docs_indexer_ray.query.facets import (
        match_doc_ids,
        terms_facet,
        terms_facet_approx,
    )

    reader, _ = built
    matched = match_doc_ids(reader, ["node", "quota"])
    n = 80
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "kind": pa.array([f"k{i % 7}" for i in range(n)]),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(4)

    exact = terms_facet(ds, matched, "kind")
    # m above per-block distinct -> identical to the exact facet top-k
    approx = terms_facet_approx(ds, matched, "kind", k=5, m=64)
    assert approx["value"].to_pylist() == exact["value"].to_pylist()[:5]
    assert approx["n_docs"].to_pylist() == exact["n_docs"].to_pylist()[:5]
    assert approx["n_docs"].to_pylist() == approx["n_docs_hi"].to_pylist()
    assert all(approx["guaranteed"].to_pylist())

    # bounded m: true counts inside [lo, hi] for every reported value
    truth = dict(zip(exact["value"].to_pylist(), exact["n_docs"].to_pylist()))
    tight = terms_facet_approx(ds, matched, "kind", k=5, m=2)
    for v, lo, hi in zip(
        tight["value"].to_pylist(),
        tight["n_docs"].to_pylist(),
        tight["n_docs_hi"].to_pylist(),
    ):
        assert lo <= truth[v] <= hi


def test_terms_stats_facet_matches_bruteforce(built, ray_session):
    import ray.data

    from docs_indexer_ray.query.facets import match_doc_ids, terms_stats_facet

    reader, _ = built
    matched = match_doc_ids(reader, ["node", "quota"])
    n = 80
    rng_vals = (np.arange(n) * 37 + 11) % 101  # deterministic int values
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "kind": pa.array([f"k{i % 5}" for i in range(n)]),
            "v": pa.array(rng_vals, pa.int64()),
        }
    )
    for parts in (1, 4, 9):  # parallelism invariance
        ds = ray.data.from_arrow(docs).repartition(parts)
        got = terms_stats_facet(ds, matched, "kind", "v")

        # brute force
        mset = set(int(d) for d in matched)
        buckets: dict[str, list[int]] = {}
        for i in range(n):
            if i in mset:
                buckets.setdefault(f"k{i % 5}", []).append(int(rng_vals[i]))
        rows = sorted(
            (
                (k, len(vs), float(min(vs)), float(max(vs)), float(sum(vs)))
                for k, vs in buckets.items()
            ),
            key=lambda r: (-r[1], r[0]),
        )
        assert got["value"].to_pylist() == [r[0] for r in rows]
        assert got["n_docs"].to_pylist() == [r[1] for r in rows]
        assert got["min_v"].to_pylist() == [r[2] for r in rows]
        assert got["max_v"].to_pylist() == [r[3] for r in rows]
        assert got["sum_v"].to_pylist() == [r[4] for r in rows]
        assert got["avg_v"].to_pylist() == [r[4] / r[1] for r in rows]

    # empty match set -> empty table with the full schema
    empty = terms_stats_facet(
        ray.data.from_arrow(docs), np.array([], np.int64), "kind", "v"
    )
    assert empty.num_rows == 0
    assert empty.column_names == ["value", "n_docs", "min_v", "max_v", "sum_v", "avg_v"]


def test_all_query_surfaces_exclude_tombstones(built, ray_session, tmp_path):
    """Every match surface — dense scorers, pagination, phrase/span
    family, multi_match — drops tombstoned docs (the `_zero_deleted`
    / `_drop_deleted` sweep)."""
    import os
    import shutil

    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.index.deletes import add_deletes
    from docs_indexer_ray.query.bm25 import score_topk, topk
    from docs_indexer_ray.query.multimatch import multi_match_topk
    from docs_indexer_ray.query.phrase import (
        match_phrase,
        match_phrase_slop,
        span_first,
        span_near,
    )
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    pages = rich_pages_table(50, dup_every=0)
    root = str(tmp_path / "tsidx")
    build_index(
        ray.data.from_arrow(pages),
        root,
        fingerprint="ts",
        num_parts=4,
        chain="simple",
        field="body",
        store_positions=True,
    )
    phrase = ["node", "pools"]
    r0 = IndexReader(root)
    hits0 = match_phrase(r0, phrase)
    assert hits0
    victim = hits0[0][0]
    sf0 = {d for d, _ in span_first(r0, "node", 50)}
    assert victim in sf0  # "node" occurs early somewhere in the doc
    assert add_deletes(root, [victim]) == 1

    r = IndexReader(root)
    assert victim not in {d for d, _ in match_phrase(r, phrase)}
    assert victim not in {d for d, _ in match_phrase_slop(r, phrase, 3)}
    assert victim not in {d for d, _ in span_near(r, phrase, 5)}
    assert victim not in {d for d, _ in span_first(r, "node", 50)}
    assert victim not in {d for d, _ in score_topk(r, phrase, k=50)}
    assert victim not in {d for d, _ in topk(r, phrase, k=50)}
    from docs_indexer_ray.query.bm25 import synonym_topk
    from docs_indexer_ray.query.qstring import query_string_topk

    assert victim not in {d for d, _ in synonym_topk(r, [phrase], k=50)}
    assert victim not in {d for d, _ in query_string_topk(r, "node pools", k=50)}
    # survivors of the phrase match are unchanged
    assert match_phrase(r, phrase) == [h for h in hits0 if h[0] != victim]

    # multi_match over two fields: a delete in EITHER index masks
    root_t = str(tmp_path / "tsidx_t")
    build_index(
        ray.data.from_arrow(pages),
        root_t,
        fingerprint="tt",
        num_parts=4,
        chain="simple",
        field="title",
    )
    fields = [(r, 1.0), (IndexReader(root_t), 0.5)]
    assert victim not in {
        d for d, _ in multi_match_topk(fields, "node pools", k=50)
    }

    from docs_indexer_ray.query.multimatch import cross_fields_topk

    assert victim not in {d for d, _ in cross_fields_topk(fields, "node pools", k=50)}


def test_sharded_facets_match_local(built, ray_session):
    """Serving-tier facets: per-shard matched counts over disjoint doc
    ranges sum to EXACTLY the Ray-Data ``terms_facet`` (same schema,
    same count-desc/value-asc order) — on a dense keyword column and
    on the null-bearing ``extras`` (docs missing the field are
    ignored by both drivers) — and the per-shard constant-size stats
    partials fold to the brute-force numbers."""
    import os

    import pyarrow.dataset as pads
    import ray.data

    from docs_indexer_ray.query.facets import match_doc_ids, terms_facet
    from docs_indexer_ray.query.served import ShardedQueryService

    reader, _ = built
    query = "node quota"
    docs_dir = os.path.join(reader.index_dir, "docs")
    matched = match_doc_ids(reader, query.split())

    svc = ShardedQueryService(
        os.path.dirname(reader.index_dir), n_shards=3, chain="simple"
    )
    try:
        # extras: null on pages without unmapped front-matter keys
        for q, col in ((query, "lang"), ("node quotas", "extras")):
            m = match_doc_ids(reader, q.split())
            ds = ray.data.read_parquet(docs_dir, columns=["doc_id", col])
            want = terms_facet(ds, m, col)
            _, _, (got,) = svc.query_phase(q, ops=[("terms", col)])
            assert got.to_pylist() == want.to_pylist()
            # memoized column slice: a second call returns the same thing
            again = svc.query_phase(q, ops=[("terms", col)])[2][0]
            assert again.slice(0, 2).to_pylist() == want.to_pylist()[:2]
            # brute-force independent check (a missing value is no bucket)
            t = pads.dataset(docs_dir, partitioning="hive").to_table(
                columns=["doc_id", col]
            )
            key_of = dict(zip(t["doc_id"].to_pylist(), t[col].to_pylist()))
            brute: dict = {}
            for d in m.tolist():
                if key_of[d] is not None:
                    brute[key_of[d]] = brute.get(key_of[d], 0) + 1
            assert dict(zip(got["value"].to_pylist(), got["n_docs"].to_pylist())) == brute
        assert 0 < sum(brute.values()) < len(m)  # extras is null-bearing

        # stats over a numeric-castable stored field
        import numpy as np

        ts = pads.dataset(docs_dir, partitioning="hive").to_table(
            columns=["doc_id", "warc_ts"]
        )
        ts_of = dict(
            zip(ts["doc_id"].to_pylist(), ts["warc_ts"].cast(pa.int64()).to_pylist())
        )
        vals = np.array([ts_of[d] for d in matched.tolist()], np.float64)
        _, _, (st,) = svc.query_phase(query, ops=[("stats", "warc_ts")])
        assert st["n_docs"][0].as_py() == len(vals)
        assert st["min_v"][0].as_py() == pytest.approx(vals.min())
        assert st["max_v"][0].as_py() == pytest.approx(vals.max())
        assert st["sum_v"][0].as_py() == pytest.approx(vals.sum())
        assert st["avg_v"][0].as_py() == pytest.approx(vals.mean())

        # _count on the fleet: per-shard counts sum to the match set
        assert svc.query_phase(query)[1] == len(matched)
        _, n0, (empty, st0) = svc.query_phase(
            "zzzunseen", ops=[("terms", col), ("stats", "warc_ts")]
        )
        assert n0 == 0

        # no-hit query → empty terms facet / null stats, right schemas
        assert empty.num_rows == 0 and empty.column_names == ["value", "n_docs"]
        assert st0["n_docs"][0].as_py() == 0 and st0["avg_v"][0].as_py() is None
    finally:
        svc.shutdown()


def test_facet_degenerate_inputs_never_crash(ray_session):
    """Empty match sets, null field values, zero weights and constant
    columns return OpenSearch's null/ignored shapes — never a crash
    (pa.concat_tables([]) / ZeroDivisionError / NaN.astype(int64))."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from docs_indexer_ray.query.facets import (
        date_histogram,
        extended_stats_facet,
        histogram,
        matrix_stats,
        weighted_avg_facet,
    )

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "v": pa.array([1.0, None, 300.0], pa.float64()),
            "w": pa.array([0.0, 0.0, 0.0], pa.float64()),
            "c": pa.array([5, 5, 5], pa.int64()),
            "d": pa.array([1, 2, 3], pa.int64()),
            "ts": pa.array([1_000_000, None, 7_200_000_000], pa.timestamp("us")),
        }
    )
    ds = ray.data.from_arrow(t)
    empty = np.array([], np.int64)
    allm = np.array([0, 1, 2], np.int64)

    es = extended_stats_facet(ds, empty, "v")
    assert es["n_docs"][0].as_py() == 0 and es["variance"][0].as_py() is None

    wa = weighted_avg_facet(ds, empty, "v", "w")
    assert wa["weighted_avg"][0].as_py() is None
    wz = weighted_avg_facet(ds, np.array([0, 2], np.int64), "v", "w")
    assert wz["weighted_avg"][0].as_py() is None  # Σw = 0 → null

    h = histogram(ds, allm, "v", interval=100)
    buckets = h["bucket"].to_pylist()
    assert sorted(buckets) == [0, 300]  # null v ignored, no INT64_MIN
    assert sum(h["n_docs"].to_pylist()) == 2

    dh = date_histogram(ds, allm, ts_col="ts", interval_s=3600)
    assert sum(dh["n_docs"].to_pylist()) == 2  # null ts ignored
    assert None not in dh["bucket"].to_pylist()

    ms = matrix_stats(ds, allm, "c", "d")  # constant x → var 0
    assert ms["var_x"][0].as_py() == 0.0
    assert ms["corr_xy"][0].as_py() is None  # undefined, not a crash


def test_search_fields_doc_id_and_empty_schema(ray_session, built):
    """fields containing doc_id must not crash (no duplicate fetch
    column), and a zero-hit response keeps the docs store's column
    TYPES (not an all-string placeholder schema)."""
    from docs_indexer_ray.query.search import search_response

    reader, _ = built
    r = search_response(reader, "node pools", k=3,
                        fields=("doc_id", "url", "warc_ts"))
    assert r.num_rows == 3 and set(
        ("doc_id", "url", "warc_ts")
    ) <= set(r.column_names)
    empty = search_response(reader, "zzzunseen", k=3,
                            fields=("url", "warc_ts"))
    assert empty.num_rows == 0
    assert empty.schema.field("warc_ts").type == r.schema.field("warc_ts").type
    assert empty.schema.field("url").type == r.schema.field("url").type


def test_collapse_topk_null_keys_one_group(ray_session, built):
    """Docs whose collapse key is null form ONE null group (OpenSearch
    semantics) instead of crashing np.unique on a mixed None/str
    array."""
    import numpy as np

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.bm25 import collapse_topk

    reader, _ = built
    terms = Analyzer("simple")("node pools")

    def fetch_keys(matched):
        # every other matched doc is missing the key
        keys = [None if i % 2 else f"g{int(d) % 3}"
                for i, d in enumerate(matched)]
        return np.asarray(matched, np.int64), np.asarray(keys, dtype=object)

    rows = collapse_topk(reader, terms, key_field="x", k=10,
                         fetch_keys=fetch_keys)
    assert rows  # did not crash
    keys_out = [k for _, _, k in rows]
    assert keys_out.count(None) <= 1  # all null-key docs collapsed to one
    non_null = [k for k in keys_out if k is not None]
    assert len(non_null) == len(set(non_null))


def test_prefix_terms_astral_plane_upper_bound(ray_session, built):
    """prefix_terms must include terms whose char after the prefix is
    an astral-plane codepoint (> U+FFFF) — the old prefix+'\\uffff'
    bound excluded them."""
    import numpy as np

    reader, _ = built
    reader.term_dictionary()  # build, then splice a synthetic term in
    terms, dfs = reader._term_dict[0], reader._term_dict[1]
    weird = "ca" + chr(0x1F600) + "grin"
    terms2 = np.sort(np.append(terms, weird))
    i = int(np.searchsorted(terms2, weird))
    dfs2 = np.insert(dfs, i, 7)
    reader._term_dict = (terms2, dfs2)
    hits = reader.prefix_terms("ca", limit=1000)
    assert any(t == weird for t, _ in hits)
