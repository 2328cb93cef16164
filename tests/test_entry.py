"""Driver-contract conformance: queries() vs oracle_sql() via DuckDB.

A local replica of the driver's correctness gate at sf0.001 (50 docs,
fast): every SQL-backed query must match its oracle on row count,
column names, and values; rows-only queries must return stable
non-degenerate schemas.
"""

from __future__ import annotations

from pathlib import Path

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import os
    import shutil
    import sys

    # fresh index cache for this run
    cache = "/tmp/dixr_cache_test"
    shutil.rmtree(cache, ignore_errors=True)
    os.environ["DIXR_CACHE"] = cache
    import docs_indexer_ray.pipelines.flagship as fl

    fl.CACHE_ROOT = cache
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as e

    return e


def _oracle_db():
    c = duckdb.connect()
    for t in ["documents", "embeddings", "events", "lineitem", "orders"]:
        c.execute(
            f"create view {t} as select * from read_parquet('{SF}/{t}.parquet')"
        )
    return c


@pytest.fixture(scope="module")
def con():
    return _oracle_db()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), ignore_index=True)


def _to_df(res) -> pd.DataFrame:
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


SQL_BACKED = [
    "extract_text",
    "docs_table",
    "token_count",
    "token_count_bpe",
    "token_count_ws",
    "term_df",
    "sample_hash",
    "seeded_shuffle",
    "quality_score",
    "lang_id",
    "fingerprint_md5",
    "dedup_exact",
    "minhash_pairs",
    "simhash_pairs",
    "ngram_jaccard",
    "dup_components",
    "dedup_apply",
    "substring_dedup",
    "dsir",
    "knn_cosine",
    "knn_cosine_filtered",
    "knn_cosine_q8",
    "knn_pca",
    "knn_lsh",
    "did_you_mean",
    "intervals_allof",
    "intervals_filtered",
    "embedding_dups_exact",
    "index_stats",
    "match_all_count",
    "bm25_topk",
    "bm25_knn_rrf",
    "gopher_quality",
    "budget_select",
    "pack_sequences",
    "pack_ids",
    "url_canonical",
    "decontaminate",
    "temperature_resample",
    "bm25_topk_sharded",
    "knn_dsl_sharded",
    "bm25_topk_filtered",
    "bm25_bool",
    "rank_eval",
    "boosting",
    "bm25_bool_msm",
    "bm25_search_after",
    "search_page_sharded",
    "dsl_bool_sharded",
    "dsl_range_sharded",
    "dsl_dismax",
    "terms_set_covering",
    "distance_feature",
    "dsl_ids_matchall",
    "dsl_constscore_range",
    "dsl_phrase_prefix",
    "dsl_match_bool_prefix",
    "dsl_boosting_regexp",
    "search_sort_sharded",
    "simple_qs_sharded",
    "dsl_function_score_sharded",
    "dsl_mlt_sharded",
    "bm25_topk_merged",
    "facet_date_histogram",
    "facet_date_histogram_month",
    "facet_date_histogram_week",
    "facet_auto_date_histogram",
    "facet_pipeline_siblings",
    "pca_transform",
    "facet_pipeline",
    "facet_matrix_stats",
    "facet_terms",
    "facet_terms_served",
    "facet_stats",
    "facet_extended_stats",
    "facet_weighted_avg",
    "facet_missing",
    "facet_cardinality",
    "facet_histogram",
    "facet_range",
    "facet_percentiles",
    "facet_percentile_ranks",
    "facet_significant_terms",
    "more_like_this",
    "match_phrase_slop",
    "facet_top_hits",
    "term_vectors",
    "term_vectors_stats",
    "export_shards",
    "bm25_topk_deleted",
    "facet_multi_terms",
    "bm25_explain",
    "bm25_topk_compacted",
    "bm25_topk_incremental",
    "bm25_collapse",
    "bm25_collapse_source",
    "heavy_hitters",
    "facet_terms_stats",
    "facet_terms_approx",
    "mm_decode_dims",
    "mm_frames",
    "facet_rare_terms",
    "facet_date_range",
    "analyze",
    "sample_stratified",
    "redact_pii",
    "line_filter",
    "dedup_lines",
    "extract_links",
    "chunk_documents",
    "sort_by_date",
    "fuzzy_terms",
    "fuzzy_match",
    "wildcard",
    "regexp",
    "function_score",
    "search_as_you_type",
    "synonym",
    "rescore",
    "span_first",
    "span_near",
    "facet_filters",
    "facet_adjacency",
    "facet_composite",
    "rerank_ce",
    "percolate",
    "pagerank",
    "lm_perplexity",
    "ccnet_buckets",
    "textcat",
    "warc_ingest",
    "jsonl_ingest",
    "query_string",
    "query_string_sharded",
    "search_fetch",
    "bm25_multimatch",
    "bm25_multimatch_best",
    "bm25_multimatch_cross",
    "term_prefix",
    "mm_decode_docs",
    "winnow",
    "reverse_suggest",
    "trigram_suggest",
    "match_phrase",
    "match_phrase_sharded",
    "keyword_date_filter",
    "window_agg",
    "window_hopping",
    "topk_per_group",
    "sessionize",
    "curate",
    "curate_then_index",
    "broadcast_join",
    "hash_join",
    "asof_join",
    "range_join",
]


@pytest.mark.parametrize("name", SQL_BACKED)
def test_sql_backed_query_matches_oracle(entry_mod, con, name):
    got = _norm(_to_df(entry_mod.queries()[name](SF)))
    want = _norm(con.execute(entry_mod.oracle_sql()[name]).df())
    assert len(got) == len(want), (len(got), len(want))
    assert list(got.columns) == list(want.columns)
    want = want.astype(got.dtypes.to_dict())
    pd.testing.assert_frame_equal(got, want, check_exact=True)


@pytest.mark.parametrize(
    "name, rows",
    [("curate", 294), ("curate_then_index", 10), ("dedup_apply", 476),
     ("dup_components", 183)],
)
def test_recursive_dedup_oracles_run_in_bounded_memory(entry_mod, name, rows):
    """The oracles with a recursive near-dup `walk` each peak near
    230 MB; if DuckDB inlines their shared CTEs again (one copy of the
    chain per reader) they need many GiB, so they must finish under a
    1 GB limit."""
    c = _oracle_db()
    c.execute("SET memory_limit='1GB'")
    assert len(c.execute(entry_mod.oracle_sql()[name]).fetchall()) == rows


# driver queries whose SQL oracles check the served code, and the
# served entry point each one must call
SERVED_ENTRY = {
    "bm25_bool": "query_phase",
    "bm25_bool_msm": "query_phase",
    "boosting": "query_phase",
    "function_score": "query_phase",
    "bm25_topk_filtered": "query_phase",
    "bm25_search_after": "topk",
    "intervals_allof": "_eval_range",
    "intervals_filtered": "_eval_range",
}


@pytest.mark.parametrize("name", sorted(SERVED_ENTRY))
def test_oracled_query_runs_the_served_path(entry_mod, monkeypatch, name):
    from docs_indexer_ray.query import bm25, qstring
    from docs_indexer_ray.query.served import ShardedQueryService

    called = []
    for owner, attr in ((ShardedQueryService, "query_phase"),
                        (bm25, "topk"), (qstring, "_eval_range")):
        def spy(*a, _f=getattr(owner, attr), _n=attr, **kw):
            called.append(_n)
            return _f(*a, **kw)

        monkeypatch.setattr(owner, attr, spy)
    assert entry_mod.queries()[name](SF).num_rows > 0
    assert SERVED_ENTRY[name] in called, called


def test_every_query_has_oracle_or_is_marked(entry_mod):
    qs = set(entry_mod.queries())
    oracles = set(entry_mod.oracle_sql())
    assert oracles <= qs
    assert set(SQL_BACKED) == oracles


ROWS_ONLY_MIN = {
    "bm25_topk_english": 10,
    "mm_embed_knn": 10,
    "embedding_dups": 1,
    "knn_ivf": 1,
    "knn_pq": 10,
    "knn_ivfpq": 10,
    "kmeans_clusters": 100,
    "mm_decode": 64,
    "highlight": 3,
    "facet_cardinality_hll": 1,
    "facet_percentiles_tdigest": 5,
    "bloom_url_filter": 1,
    "bpe_merges": 20,
    "bpe_encode": 100,
    "semdedup": 1,
}


def test_quantized_knn_recall_vs_exact(entry_mod):
    """int8-quantized kNN must recover ≥80 % of the exact float
    neighbors at k=5 (quantization rounding is the only difference)."""
    exact = _to_df(entry_mod.queries()["knn_cosine"](SF))
    q8 = _to_df(entry_mod.queries()["knn_cosine_q8"](SF))
    hits = tot = 0
    for qid in exact.query_id.unique():
        a = set(exact[exact.query_id == qid].neighbor_id)
        b = set(q8[q8.query_id == qid].neighbor_id)
        hits += len(a & b)
        tot += len(a)
    assert tot > 0 and hits / tot >= 0.8, (hits, tot)


def test_embedding_dups_lsh_recall_vs_exact(entry_mod):
    """The LSH-blocked near-dup pass must (a) emit NO pair the exact
    all-pairs reference rejects and (b) recover ≥90 % of true pairs
    (hyperplane-straddle misses are the documented loss)."""
    exact = _to_df(entry_mod.queries()["embedding_dups_exact"](SF))
    lsh = _to_df(entry_mod.queries()["embedding_dups"](SF))
    e = set(zip(exact.a, exact.b))
    l = set(zip(lsh.a, lsh.b))
    assert l <= e
    assert len(e) > 0 and len(l & e) / len(e) >= 0.9, (len(l), len(e))


def test_semdedup_vs_exact_pairs(entry_mod):
    """SemDeDup's removals must be justified by the exact all-pairs
    reference (every removed id appears in a true ≥-threshold pair)
    and every planted exact copy must be caught (copies land in the
    same cluster as their original by construction — identical
    vectors share a nearest centroid)."""
    exact = _to_df(entry_mod.queries()["embedding_dups_exact"](SF))
    removed = set(_to_df(entry_mod.queries()["semdedup"](SF)).vec_id)
    dup_ids = set(exact.a) | set(exact.b)
    assert removed <= dup_ids
    planted = {i for i in dup_ids if i >= 1000000}
    assert planted <= removed | {i - 1000000 for i in removed}
    assert len(removed) > 0


def test_bloom_url_filter_contract(entry_mod):
    """Admission-filter invariants: every seen url is rejected (no
    false negatives → n_admitted ≤ n_new) and ≥95 % of genuinely-new
    urls are admitted at the 1 % fp sizing."""
    row = _to_df(entry_mod.queries()["bloom_url_filter"](SF)).iloc[0]
    assert row.n_probed == row.n_seen + row.n_new
    assert row.n_admitted <= row.n_new
    assert row.n_admitted >= 0.95 * row.n_new


def test_sketch_facets_track_exact(entry_mod):
    """The HLL / t-digest variants must land inside their documented
    accuracy envelopes of the exact (SQL-oracled) aggregations."""
    exact_card = entry_mod.queries()["facet_cardinality"](SF)["n_unique"][0].as_py()
    hll = entry_mod.queries()["facet_cardinality_hll"](SF)["n_unique"][0].as_py()
    assert abs(hll - exact_card) / exact_card < 0.05

    exact_p = _to_df(entry_mod.queries()["facet_percentiles"](SF))
    td = _to_df(entry_mod.queries()["facet_percentiles_tdigest"](SF))
    merged = exact_p.merge(td, on="pct", suffixes=("_exact", "_td"))
    assert len(merged) == 5
    for _, row in merged.iterrows():
        assert abs(row.value_td - row.value_exact) / max(row.value_exact, 1) < 0.08, (
            row.pct,
            row.value_exact,
            row.value_td,
        )


@pytest.mark.parametrize("name", sorted(ROWS_ONLY_MIN))
def test_rows_only_queries_run(entry_mod, name):
    got = _to_df(entry_mod.queries()[name](SF))
    assert len(got) >= ROWS_ONLY_MIN[name], name
    assert len(got.columns) >= 2


def test_entry_smoke(entry_mod):
    res = entry_mod.entry()
    df = _to_df(res)
    assert len(df) > 0
    assert {"query", "rank", "doc_id", "score"} <= set(df.columns)


def test_pq_knn_recall_vs_exact(entry_mod):
    """ADC over 8-byte PQ codes (32× compression) + the exact refine
    stage (shortlist-only float re-rank) must recover ≥80 % of the
    exact float neighbors at k=5 (measured 0.96 at sf0.001 — the
    deterministic training makes this exactly reproducible)."""
    exact = _to_df(entry_mod.queries()["knn_cosine"](SF))
    pqk = _to_df(entry_mod.queries()["knn_pq"](SF))
    hits = tot = 0
    for qid in exact.query_id.unique():
        a = set(exact[exact.query_id == qid].neighbor_id)
        b = set(pqk[pqk.query_id == qid].neighbor_id)
        hits += len(a & b)
        tot += len(a)
    assert tot > 0 and hits / tot >= 0.8, hits / tot


def test_ivfpq_knn_recall_vs_exact(entry_mod):
    """IVF-PQ (8 probes of 16 cells, residual codes, refine) must
    recover ≥70 % of the exact neighbors at k=5 — deterministic
    training makes the measured value exactly reproducible."""
    exact = _to_df(entry_mod.queries()["knn_cosine"](SF))
    apx = _to_df(entry_mod.queries()["knn_ivfpq"](SF))
    hits = tot = 0
    for qid in exact.query_id.unique():
        a = set(exact[exact.query_id == qid].neighbor_id)
        b = set(apx[apx.query_id == qid].neighbor_id)
        hits += len(a & b)
        tot += len(a)
    assert tot > 0 and hits / tot >= 0.7, hits / tot


def test_pca_knn_recall_vs_exact(entry_mod):
    """kNN in the 56-dim Hadamard-compressed space (the SQL-oracled
    `knn_pca` surface) must recover ≥60 % of the exact full-space
    neighbors at k=5 (the compression trade)."""
    exact = _to_df(entry_mod.queries()["knn_cosine"](SF))
    pcak = _to_df(entry_mod.queries()["knn_pca"](SF))
    hits = tot = 0
    for qid in exact.query_id.unique():
        a = set(exact[exact.query_id == qid].neighbor_id)
        b = set(pcak[pcak.query_id == qid].neighbor_id)
        hits += len(a & b)
        tot += len(a)
    assert tot > 0 and hits / tot >= 0.6, hits / tot


def test_eigh_pca_knn_recall_vs_exact(entry_mod, ray_session):
    """The DATA-DEPENDENT eigh basis path (fit_pca → transform_pca →
    knn_cosine — the round-4 `knn_pca` pipeline, kept pytest-pinned
    after the driver surface moved to the SQL-replayable Hadamard
    basis): ≥60 % recall@5 vs the exact full-space ranking at 48
    components."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from docs_indexer_ray.ops.ann import knn_cosine
    from docs_indexer_ray.ops.pca import fit_pca, transform_pca

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    mean, comps, _ = fit_pca(ds, k=48, center=False)
    proj = transform_pca(
        ray.data.read_parquet(f"{SF}/embeddings.parquet"), mean, comps
    ).map_batches(
        lambda t: t.drop_columns(["embedding"]).rename_columns(
            ["vec_id", "label", "embedding"]
        ),
        batch_format="pyarrow",
    )
    qt = pq.read_table(f"{SF}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    qsel = qt.filter(pc.less(qt["vec_id"], 5))
    queries = (
        np.array(qsel["embedding"].to_pylist(), np.float64) - mean
    ) @ comps.T
    qids = qsel["vec_id"].to_numpy(zero_copy_only=False)
    from docs_indexer_ray.collect import tables_of

    pcak = pa.concat_tables(
        tables_of(knn_cosine(proj, queries, qids, k=5))
    ).to_pandas()
    exact = _to_df(entry_mod.queries()["knn_cosine"](SF))
    hits = tot = 0
    for qid in exact.query_id.unique():
        a = set(exact[exact.query_id == qid].neighbor_id)
        b = set(pcak[pcak.query_id == qid].neighbor_id)
        hits += len(a & b)
        tot += len(a)
    assert tot > 0 and hits / tot >= 0.6, hits / tot
