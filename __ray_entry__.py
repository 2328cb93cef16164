"""Driver contract: flagship entry, per-operator queries, DuckDB oracles.

Ray is initialised by the driver before this module is imported — no
``ray.init``/``ray.shutdown`` anywhere below.

The fulltext engine's input table (``pages``) is synthesised
deterministically from ``{sf_dir}/documents.parquet`` with
SQL-replicable rules (``docs_indexer_ray/synth.py``): every oracle
below recomputes the same derivation in ANSI SQL over the registered
``documents`` / ``embeddings`` views.  Ray-side result values are
integers, strings, or single-division doubles so value-hashes match
bit-exactly; BM25 *scores* are excluded from hashed results (summation
order differs between engines) — rank-identity is the contract, and
scores are pinned by the pytest conformance oracle instead.

Queries without an ``oracle_sql`` entry (english-analyzer BM25,
MinHash/SimHash/LSH, suggesters, multimodal stub) are
non-SQL-expressible; each is covered by a Python oracle in ``tests/``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# --- SQL fragments shared by the oracles (must mirror synth.py) -----------
_URL = "'https://docs.test/d/' || lpad(CAST(doc_id AS VARCHAR), 6, '0') || '/'"
_URI = "'/d/' || lpad(CAST(doc_id AS VARCHAR), 6, '0') || '/'"
_CRUMB = "'d ' || lpad(CAST(doc_id AS VARCHAR), 6, '0')"
_BODY = "CASE WHEN doc_id % 10 = 0 THEN text || ' refresh' ELSE text END"


def _toks(col: str) -> str:
    return f"list_filter(string_split_regex(lower({col}), '[^a-z0-9]+'), x -> x <> '')"


_STOP10_SQL = "['a','the','and','of','to','in','is','it','that','for']"
_BM25_TERMS = ("table", "scan", "merge", "slow")
# two DSL bodies, each run on one in-process shard and on the 4-shard
# fleet against one SQL replay
_DSL_RANGE = {"bool": {
    "must": [{"match": {"body": " ".join(_BM25_TERMS)}}],
    "filter": [{"range": {"warc_ts": {"gte": "2025-01-01T00:05:00"}}}],
}}
_DSL_FUNCTION_SCORE = {"function_score": {
    "query": {"match": {"body": " ".join(_BM25_TERMS)}},
    "functions": [{"exp": {"warc_ts": {
        "origin": "2025-01-01T00:10:00", "scale": "600s", "decay": 0.5}}}],
}}
_DUP_UNION = (
    "SELECT doc_id, text FROM documents "
    "UNION ALL SELECT doc_id + 1000000 AS doc_id, text FROM documents WHERE doc_id % 7 = 0"
)


def _documents_ds(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet")


def _documents_with_copies_ds(sf_dir: str):
    """documents ∪ exact copies at doc_id+1000000 for doc_id%7==0."""
    import ray.data

    base = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def shift(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % 7 == 0))
        return t.set_column(
            t.schema.get_field_index("doc_id"), "doc_id", pc.add(t["doc_id"], 1000000)
        )

    return base.union(base.map_batches(shift, batch_format="pyarrow"))


def _as_i64(t: pa.Table, cols: list[str]) -> pa.Table:
    for c in cols:
        if c in t.column_names:
            t = t.set_column(
                t.schema.get_field_index(c), c, pc.cast(t[c], pa.int64())
            )
    return t


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------

def q_extract_text(sf_dir: str) -> pa.Table:
    """Per-url byte-identical extraction over every crawl row (T1)."""
    from docs_indexer_ray.functions.htmltext import html_to_text
    from docs_indexer_ray.synth import pages_from_documents

    def extract(batch: pa.Table) -> pa.Table:
        texts = [html_to_text(h) for h in batch["html"].to_pylist()]
        return pa.table(
            {"url": batch["url"], "text_out": pa.array(texts, pa.string())}
        )

    ds = pages_from_documents(sf_dir).map_batches(extract, batch_format="pyarrow")
    return _concat(ds)


def q_jsonl_ingest(sf_dir: str) -> pa.Table:
    """JSONL source round trip (`sources/jsonl.py`): the documents
    table serialized to sharded ``.jsonl.gz`` (deterministic writer,
    fixture at oracle scale), re-ingested file-wise parallel with
    loud-missing-key schema handling — identical to reading the
    Parquet directly, so a plain SELECT pins the whole round trip."""
    import tempfile

    from docs_indexer_ray.sources.jsonl import read_jsonl, write_jsonl_shards

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    )
    tmp = tempfile.mkdtemp(prefix="dixr_jsonl_")
    paths = write_jsonl_shards(t, tmp, n_shards=4)
    ds = read_jsonl(paths, required=("doc_id", "text", "lang", "source"))
    out = _concat(ds).drop_columns(["extras"])
    return _as_i64(out, ["doc_id"]).sort_by("doc_id")


def q_warc_ingest(sf_dir: str) -> pa.Table:
    """WARC source end-to-end: the synthetic crawl serialized to
    sharded ``.warc.gz`` archives (byte-deterministic writer, fixture
    setup at oracle scale), re-ingested via ``read_warc`` file-wise
    parallel parsing, html extracted per record — byte-identical to
    the Parquet-path ``extract_text``, so the SAME SQL oracle pins the
    whole WARC round trip."""
    import tempfile

    from docs_indexer_ray.functions.htmltext import html_to_text
    from docs_indexer_ray.sources.warc import read_warc, synth_warc_bytes
    from docs_indexer_ray.synth import pages_from_documents

    pages = _concat(pages_from_documents(sf_dir))
    tmp = tempfile.mkdtemp(prefix="dixr_warc_")
    n_shards = 4
    per = (pages.num_rows + n_shards - 1) // n_shards
    paths = []
    for i in range(n_shards):
        shard = pages.slice(i * per, per)
        if shard.num_rows == 0:
            break
        p = os.path.join(tmp, f"crawl-{i:05d}.warc.gz")
        with open(p, "wb") as f:
            f.write(synth_warc_bytes(shard))
        paths.append(p)

    def extract(batch: pa.Table) -> pa.Table:
        texts = [html_to_text(h) for h in batch["html"].to_pylist()]
        return pa.table(
            {"url": batch["url"], "text_out": pa.array(texts, pa.string())}
        )

    return _concat(read_warc(paths).map_batches(extract, batch_format="pyarrow"))


def q_docs_table(sf_dir: str) -> pa.Table:
    """Full phase-1: extract → dedup(last-writer-wins) → dense doc ids →
    reference assembly recipe (T4), served from the on-disk docs store
    (same code path as the index build — ``stages/docstore.py``)."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset

    ds, _ = docs_store_dataset(
        sf_dir, columns=["doc_id", "url", "uri", "title", "body", "text"]
    )
    return _as_i64(_concat(ds).select(
        ["doc_id", "url", "uri", "title", "body", "text"]
    ), ["doc_id"])


def q_token_count(sf_dir: str) -> pa.Table:
    from docs_indexer_ray.ops.textstats import token_count

    return _concat(token_count(_documents_ds(sf_dir)))


def q_term_df(sf_dir: str) -> pa.Table:
    """Top-20 terms by document frequency (simple analyzer)."""
    import re

    import ray.data
    from ray.data.aggregate import Sum

    tok_re = re.compile(r"[a-z0-9]+")

    def explode(batch: pa.Table) -> pa.Table:
        # per-batch partial df → tiny shuffle
        from collections import Counter

        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            c.update(set(tok_re.findall((t or "").lower())))
        return pa.table(
            {
                "term": pa.array(list(c.keys()), pa.string()),
                "df_part": pa.array(np.fromiter(c.values(), np.int64, len(c)), pa.int64()),
            }
        )

    agg = (
        _documents_ds(sf_dir)
        .map_batches(explode, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df_part", alias_name="df"))
    )
    df = agg.to_pandas().sort_values(["df", "term"], ascending=[False, True]).head(20)
    return pa.table(
        {"term": pa.array(df["term"], pa.string()), "df": pa.array(df["df"], pa.int64())}
    )


def q_token_count_bpe(sf_dir: str) -> pa.Table:
    """BPE-style pre-tokenizer counts (GPT-2-like RE2-safe pattern)."""
    from docs_indexer_ray.ops.textstats import token_count

    return _concat(token_count(_documents_ds(sf_dir), mode="bpe"))


def q_token_count_ws(sf_dir: str) -> pa.Table:
    """Whitespace-run token counts."""
    from docs_indexer_ray.ops.textstats import token_count

    return _concat(token_count(_documents_ds(sf_dir), mode="whitespace"))


def q_sample_hash(sf_dir: str) -> pa.Table:
    """Deterministic 1/16 corpus subsample by content hash — the
    reproducible "take a slice of the crawl" op; any parallelism level
    selects the identical rows."""
    from docs_indexer_ray.ops.sample import sample_by_hash

    ds = sample_by_hash(_documents_ds(sf_dir), key="text", rate=1 / 16)
    t = _concat(ds)
    return t.select(["doc_id", "text"])


def q_quality_score(sf_dir: str) -> pa.Table:
    from docs_indexer_ray.ops.textstats import quality_score

    return _concat(quality_score(_documents_ds(sf_dir)))


def q_budget_select(sf_dir: str) -> pa.Table:
    """Token-budget data selection (`ops/select.py::budget_select`):
    rank the corpus by stop-word ratio (the quality prior) desc with
    doc_id tie-break, keep documents while the cumulative token count
    fits a 1000-token budget.  Global sort + block-scalar prefix sum;
    the selection pass touches only the blocks that start under
    budget."""
    from docs_indexer_ray.ops.select import budget_select
    from docs_indexer_ray.ops.textstats import quality_score

    scored = quality_score(_documents_ds(sf_dir)).map_batches(
        lambda t: t.select(["doc_id", "stop_ratio", "n_tokens"]).rename_columns(
            ["doc_id", "score", "n_tokens"]
        ),
        batch_format="pyarrow",
    )
    out = budget_select(scored, budget=1000, score_col="score", cost_col="n_tokens")
    return _as_i64(out, ["doc_id", "n_tokens", "cum_cost"]).sort_by("doc_id")


def q_extract_links(sf_dir: str) -> pa.Table:
    """Anchor-text link extraction (`ops/links.py::extract_links`):
    PLANT two deterministic anchors (one absolute with nested inline
    markup gated on doc_id%4, one always-present absolute) around each
    doc's text, parse with the real HTML parser in an actor pool, and
    emit the (src, href, anchor) link table.  The oracle GENERATES the
    same triples from doc_id arithmetic — exact by construction."""
    import ray.data

    from docs_indexer_ray.ops.links import extract_links

    n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        txts = t["text"].to_pylist()
        htmls = []
        for d, x in zip(ids, txts):
            h = (
                f"<p>{x}</p>"
                f'<a href="https://s{d % 7}.example/p{(3 * d + 1) % n}">go {d % 5}</a>'
            )
            if d % 4 == 0:
                h += f'<a href="/rel{d % 9}">more <b>info</b> {d}</a>'
            htmls.append(h)
        return pa.table(
            {"doc_id": t["doc_id"], "html": pa.array(htmls, pa.string())}
        )

    out = _concat(extract_links(ds.map_batches(plant, batch_format="pyarrow")))
    return _as_i64(out, ["src"]).sort_by(
        [("src", "ascending"), ("href", "ascending")]
    )


def q_chunk_documents(sf_dir: str) -> pa.Table:
    """Sliding-window chunking (`ops/chunk.py::chunk_documents`):
    16-token windows at stride 8 over each doc's whitespace tokens —
    the embedding/pretraining window prep, one streaming pass.  The
    DuckDB oracle replays it with generate_series starts and
    end-inclusive list slicing."""
    import ray.data

    from docs_indexer_ray.ops.chunk import chunk_documents

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = _concat(chunk_documents(ds, window=16, stride=8))
    return _as_i64(out, ["doc_id", "chunk_idx", "start_tok", "n_tokens"]).sort_by(
        [("doc_id", "ascending"), ("chunk_idx", "ascending")]
    )


def q_seeded_shuffle(sf_dir: str) -> pa.Table:
    """Deterministic seeded shuffle (`ops/sample.py::seeded_shuffle`):
    the first 50 documents of the seed-42 training order — a pure
    function of (seed, data), identical at any parallelism, unlike
    random_shuffle."""
    import ray.data

    from docs_indexer_ray.ops.sample import seeded_shuffle

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    head = _concat(seeded_shuffle(ds, seed=42).limit(50))
    return pa.table(
        {
            "pos": pa.array(np.arange(1, head.num_rows + 1, dtype=np.int64)),
            "doc_id": pa.array(
                [int(v) for v in head["doc_id"].to_pylist()], pa.int64()
            ),
        }
    )


def q_dedup_lines(sf_dir: str) -> pa.Table:
    """C4 corpus-wide line dedup (`ops/dedup.py::dedup_lines`): the
    same planted multi-line view as `line_filter` (the boilerplate
    line repeats across every doc_id%3==0 doc — real cross-doc dups),
    keep each line content's global-first occurrence, rebuild docs."""
    import ray.data

    from docs_indexer_ray.ops.dedup import dedup_lines

    def planted(sf):
        ds = ray.data.read_parquet(
            os.path.join(sf, "documents.parquet"), columns=["doc_id", "text"]
        )

        def plant(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_pylist()
            txts = t["text"].to_pylist()
            rows = []
            for d, x in zip(ids, txts):
                s = ("Click here to subscribe now!\n" if d % 3 == 0 else "") + x
                if d % 2 == 0:
                    s += "\nok btn"
                if d % 5 == 0:
                    s += "\nthe quick brown fox jumps over the lazy dog again"
                rows.append(s)
            return pa.table(
                {"doc_id": t["doc_id"], "text": pa.array(rows, pa.string())}
            )

        return ds.map_batches(plant, batch_format="pyarrow")

    out = _concat(dedup_lines(planted(sf_dir)))
    return _as_i64(out, ["doc_id", "n_lines", "n_kept"]).sort_by("doc_id")


def q_gopher_quality(sf_dir: str) -> pa.Table:
    """Gopher-rule quality filter (Rae et al. 2021, Table A1, adapted
    to word level — see ``ops/textstats.py::gopher_quality``).
    ``min_words`` lowered to 20 so the ~35-word synthetic docs split
    both ways; all ratios single int/int divisions → the DuckDB
    oracle hash-matches every double."""
    from docs_indexer_ray.ops.textstats import gopher_quality

    return _concat(gopher_quality(_documents_ds(sf_dir), min_words=20))


def q_heavy_hitters(sf_dir: str) -> pa.Table:
    """Mergeable heavy-hitters summary (``ops/sketch.py::heavy_hitters``)
    over the corpus word stream: per-block exact top-``m`` counters +
    truncation bound, output-scale combine — the ``terms`` aggregation
    scale path for unbounded key domains.  ``m`` is sized above the
    sf vocabulary so every block's ``thr`` is 0, ``lo == hi`` == the
    exact count, and the DuckDB group-by oracle pins the top-20
    bit-exactly; the bounded small-``m`` regime (lo ≤ true ≤ hi,
    guarantee flag) is property-pinned in ``test_ops``."""
    import pyarrow.compute as pc_
    import ray.data

    from docs_indexer_ray.ops.sketch import heavy_hitters

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )

    def words(t: pa.Table) -> pa.Table:
        return pa.table(
            {"w": pc_.list_flatten(pc_.split_pattern(t["text"], " "))}
        )

    return heavy_hitters(
        ds.map_batches(words, batch_format="pyarrow"), "w", k=20, m=200_000
    )


def q_temperature_resample(sf_dir: str) -> pa.Table:
    """α-temperature mixture resampling (α=0.5, out_frac=0.5) over a
    planted skewed grouping ``g(doc_id) = (doc_id % 17) % 5`` (group
    sizes ~118/118/88/88/88): rare groups keep a HIGHER rate, chosen
    docs are the md5-prefix value property (`ops/sample.py::
    temperature_resample`).  Output = per-group in/out counts."""
    from ray.data.aggregate import Count

    from docs_indexer_ray.ops.sample import temperature_resample

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        grp = [f"g{(int(d) % 17) % 5}" for d in ids.tolist()]
        return pa.table(
            {"doc_id": t["doc_id"], "text": t["text"],
             "grp": pa.array(grp, pa.string())}
        )

    ds = _documents_ds(sf_dir).map_batches(plant, batch_format="pyarrow")
    sampled, _rates = temperature_resample(
        ds, group_col="grp", key="text", alpha=0.5, out_frac=0.5, bits=2
    )
    n_in = _concat(ds.groupby("grp").aggregate(Count(alias_name="n_docs")))
    n_out = _concat(sampled.groupby("grp").aggregate(Count(alias_name="n_sampled")))
    joined = n_in.join(n_out, keys="grp", join_type="left outer")
    ns = pc.coalesce(joined["n_sampled"], pa.scalar(0, joined["n_sampled"].type))
    joined = joined.set_column(
        joined.schema.get_field_index("n_sampled"), "n_sampled", ns
    )
    return _as_i64(joined, ["n_docs", "n_sampled"]).sort_by("grp")


def q_decontaminate(sf_dir: str) -> pa.Table:
    """Benchmark decontamination (GPT-3 dirty-n-gram rule, n=8 at
    this corpus' ~35-token docs): eval set = docs with
    ``doc_id % 97 == 0``; corpus = documents ∪ exact copies — copies
    of eval docs are TRUE cross-doc contamination, eval docs flag
    themselves by construction.  Eval grams broadcast once
    (``ray.put``), corpus streams (`ops/decontaminate.py`)."""
    from docs_indexer_ray.ops.decontaminate import flag_contaminated, ngram_set

    et = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = et["doc_id"].to_numpy(zero_copy_only=False)
    eval_texts = et.filter(pa.array(ids % 97 == 0))["text"].to_pylist()
    grams = ngram_set(eval_texts, n=8)
    out = flag_contaminated(
        _documents_with_copies_ds(sf_dir), grams, n=8
    )
    return _as_i64(_concat(out), ["doc_id", "n_hits", "contaminated"]).sort_by(
        "doc_id"
    )


def q_url_canonical(sf_dir: str) -> pa.Table:
    """Crawl-URL canonicalization + exact URL dedup: each doc pair
    (2k, 2k+1) gets the SAME page under two decorations (default
    port + utm params vs trailing-slash + fbclid + fragment); the
    `URL_CANON_STEPS` RE2 chain collapses them and a
    ``groupby(url_canon)`` keeps count + first doc — the
    crawl-recrawl dedup shape.  Construction is the deterministic
    fixture; canonicalization is the vectorized op under test."""
    import ray.data
    from ray.data.aggregate import Count, Min

    from docs_indexer_ray.ops.textclean import canonicalize_urls

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        urls = []
        for d in ids.tolist():
            base = f"https://www.site{(d // 2) % 50}.com"
            if d % 2 == 0:
                urls.append(f"{base}:443/page/{d // 2}?utm_source=feed&utm_medium=rss")
            else:
                urls.append(f"{base}/page/{d // 2}/?fbclid=abc123#frag")
        return pa.table({"doc_id": t["doc_id"], "url": pa.array(urls, pa.string())})

    ds = _documents_ds(sf_dir).map_batches(plant, batch_format="pyarrow")
    ds = canonicalize_urls(ds, col="url", out_col="url_canon")
    out = (
        ds.groupby("url_canon")
        .aggregate(Count(on="doc_id", alias_name="n_crawls"),
                   Min(on="doc_id", alias_name="first_doc"))
    )
    return _as_i64(_concat(out), ["n_crawls", "first_doc"]).sort_by("url_canon")


def q_pack_sequences(sf_dir: str) -> pa.Table:
    """Training-sequence packing digest: docs tokenized (simple
    chain), ids = sorted-vocab rank (EOS = |V|), stream packed into
    64-token sequences per 100-doc bucket (`ops/pack.py`).  The SQL
    oracle replays it with dense_rank + row_number window partitions —
    every digest column is an exact integer."""
    from docs_indexer_ray.ops.pack import collect_vocab, pack_sequences

    ds = _documents_ds(sf_dir)
    vocab = collect_vocab(ds, text_col="text", chain="simple")
    out = pack_sequences(
        _documents_ds(sf_dir), vocab, seq_len=64, bucket_size=100,
        text_col="text", chain="simple",
    )
    return _as_i64(
        _concat(out),
        ["bucket", "seq", "n_tokens", "sum_ids", "first_id", "last_id"],
    ).sort_by([("bucket", "ascending"), ("seq", "ascending")])


def q_pack_ids(sf_dir: str) -> pa.Table:
    """REAL training-sequence packing (`ops/pack.py::pack_ids`): docs
    → `tokenize_to_ids` (vocab-rank id lists) → actual fixed-length
    `input_ids` arrays.  The driver-checked result is the digest of
    those REAL arrays — same columns and SQL replay as
    `pack_sequences`, so the two independent paths (digest-only
    kernel vs materialized arrays) must agree bit-exactly."""
    from docs_indexer_ray.collect import tables_of
    from docs_indexer_ray.ops.pack import collect_vocab, pack_ids, tokenize_to_ids

    ds = _documents_ds(sf_dir)
    vocab = collect_vocab(ds, text_col="text", chain="simple")
    enc = tokenize_to_ids(_documents_ds(sf_dir), vocab, chain="simple")
    packed = pack_ids(enc, seq_len=64, eos_id=len(vocab), bucket_size=100)

    def digest(t: pa.Table) -> pa.Table:
        ids = t["input_ids"].combine_chunks()
        flat = ids.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        offs = ids.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        counts = np.diff(offs)
        doc_of = np.repeat(np.arange(n), counts)
        sums = np.bincount(doc_of, weights=flat, minlength=n).astype(np.int64)
        return pa.table(
            {
                "bucket": t["bucket"],
                "seq": t["seq"],
                "n_tokens": t["n_tokens"],
                "sum_ids": pa.array(sums),
                "first_id": pa.array(flat[offs[:-1]]),
                "last_id": pa.array(flat[offs[1:] - 1]),
            }
        )

    out = pa.concat_tables(
        tables_of(packed.map_batches(digest, batch_format="pyarrow"))
    )
    return _as_i64(
        out, ["bucket", "seq", "n_tokens", "sum_ids", "first_id", "last_id"]
    ).sort_by([("bucket", "ascending"), ("seq", "ascending")])


def q_lang_id(sf_dir: str) -> pa.Table:
    from docs_indexer_ray.ops.textstats import lang_id

    return _concat(lang_id(_documents_ds(sf_dir)))


def q_fingerprint_md5(sf_dir: str) -> pa.Table:
    from docs_indexer_ray.ops.textstats import fingerprint

    t = _concat(fingerprint(_documents_ds(sf_dir)))
    return t.select(["doc_id", "md5"])


def q_dedup_exact(sf_dir: str) -> pa.Table:
    from docs_indexer_ray.ops.dedup import exact_dedup

    t = _concat(exact_dedup(_documents_with_copies_ds(sf_dir)))
    return _as_i64(t.select(["md5", "doc_id"]), ["doc_id"])


def q_ngram_jaccard(sf_dir: str) -> pa.Table:
    from docs_indexer_ray.ops.dedup import ngram_jaccard_pairs

    t = _concat(ngram_jaccard_pairs(_documents_with_copies_ds(sf_dir), n=3, threshold=0.5))
    return _as_i64(t, ["a", "b", "inter", "na", "nb"])


def q_substring_dedup(sf_dir: str) -> pa.Table:
    """EXACT substring dedup (Lee et al. 2021, fixed-gram variant):
    per-affected-doc duplicated-char stats over documents ∪ planted
    exact copies — every length-25 gram occurring ≥2× in the corpus
    is masked except its globally-first occurrence; masked_chars is
    the per-doc interval-union size (``ops/substr.py``)."""
    from docs_indexer_ray.ops.substr import substring_dedup_stats

    return substring_dedup_stats(
        _documents_with_copies_ds(sf_dir), text_col="text", gram_len=25
    )


def q_dsir(sf_dir: str) -> pa.Table:
    """DSIR (Xie et al. 2023): importance-resample the raw corpus
    toward the ``source = 'src0'`` target domain — exact unigram+
    bigram variant, add-one smoothing, top-20 by quantized importance
    weight (rank-identity contract, ``ops/dsir.py``)."""
    import ray.data

    from docs_indexer_ray.ops.dsir import dsir_topk, fit_dsir

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    target = ds.map_batches(
        lambda t: t.filter(pc.equal(t["source"], "src0")), batch_format="pyarrow"
    )
    model = fit_dsir(target, ds)
    return dsir_topk(ds, model, k=20)


def q_bpe_merges(sf_dir: str) -> pa.Table:
    """Distributed BPE tokenizer training (Sennrich et al. 2016):
    ONE word-counting shuffle over the corpus, then the merge loop on
    the vocabulary-scale word-frequency table — first 60 merge rules
    as ``(rank, left, right)``.  Non-SQL by nature (data-dependent
    iterative merges); pinned by the from-scratch recount reference
    in ``tests/test_ops.py``."""
    import ray.data

    from docs_indexer_ray.ops.bpe import train_bpe, word_counts

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    merges = train_bpe(word_counts(ds), n_merges=60)
    return pa.table(
        {
            "rank": pa.array(range(1, len(merges) + 1), pa.int64()),
            "left": pa.array([m[0] for m in merges], pa.string()),
            "right": pa.array([m[1] for m in merges], pa.string()),
        }
    )


def q_range_join(sf_dir: str) -> pa.Table:
    """Distributed range (interval) join: events banded by OVERLAPPING
    value intervals (`ops/join.py::range_join` — broadcast interval
    side, one argsort + per-interval searchsorted slice per batch).
    A row lands in every containing band."""
    import ray.data

    from docs_indexer_ray.collect import tables_of
    from docs_indexer_ray.ops.join import range_join

    events = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "value"]
    )
    bands = pa.table(
        {
            "band": pa.array(["low", "mid", "high", "huge"]),
            "lo": pa.array([0.0, 25.0, 75.0, 100.0], pa.float64()),
            "hi": pa.array([50.0, 100.0, 150.0, 100000.0], pa.float64()),
        }
    )
    out = pa.concat_tables(
        tables_of(range_join(events, bands, on="value"))
    )
    return out.select(["event_id", "band", "value", "lo", "hi"]).sort_by(
        [("event_id", "ascending"), ("band", "ascending")]
    )


def q_bpe_encode(sf_dir: str) -> pa.Table:
    """Distributed tokenization with the TRAINED merges
    (``ops/bpe.py::bpe_encode``): train on the corpus's word counts,
    broadcast merges + the deterministic vocab, stream the corpus to
    per-doc id lists; returned as a stable per-doc digest
    ``(doc_id, n_tokens, sum_ids, first_id, last_id)`` (the list
    column itself is pinned by the scalar-reference pytest).
    Non-SQL by nature — the merge application is iterative."""
    import ray.data

    from docs_indexer_ray.ops.bpe import bpe_encode, bpe_vocab, train_bpe, word_counts

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    wc = word_counts(ds)
    merges = train_bpe(wc, n_merges=60)
    vocab = bpe_vocab(wc, merges)
    enc = bpe_encode(ds, merges, vocab)

    def digest(t: pa.Table) -> pa.Table:
        ids = t["token_ids"].combine_chunks()
        flat = ids.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        offs = ids.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        counts = np.diff(offs)
        doc_of = np.repeat(np.arange(n), counts)
        sums = np.bincount(doc_of, weights=flat, minlength=n).astype(np.int64)
        empty = counts == 0
        safe_first = np.minimum(offs[:-1], max(len(flat) - 1, 0))
        safe_last = np.maximum(offs[1:] - 1, 0)
        first = np.where(empty | (len(flat) == 0), -1, flat[safe_first] if len(flat) else -1).astype(np.int64)
        last = np.where(empty | (len(flat) == 0), -1, flat[safe_last] if len(flat) else -1).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": t["n_tokens"],
                "sum_ids": pa.array(sums),
                "first_id": pa.array(first),
                "last_id": pa.array(last),
            }
        )

    from docs_indexer_ray.collect import tables_of

    out = pa.concat_tables(tables_of(enc.map_batches(digest, batch_format="pyarrow")))
    return out.sort_by("doc_id")


def q_dup_components(sf_dir: str) -> pa.Table:
    """The dedup ENDGAME: n-gram-Jaccard near-dup pairs → transitive
    closure via distributed hash-to-min label propagation
    (``ops/components.py``) → one ``(node, component)`` row per
    clustered doc, component = the cluster's minimum doc id.  The SQL
    oracle recomputes the closure with a recursive CTE over the same
    pair set."""
    from docs_indexer_ray.ops.components import connected_components
    from docs_indexer_ray.ops.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _documents_with_copies_ds(sf_dir), n=3, threshold=0.5
    )
    cc = connected_components(pairs, a="a", b="b")  # driver mode: Arrow table
    return _as_i64(cc, ["node", "component"]).sort_by("node")


def q_dedup_apply(sf_dir: str) -> pa.Table:
    """The FULL dedup pipeline end-to-end: near-dup pairs (n-gram
    Jaccard) → transitive closure (`ops/components.py`) → corpus
    filter keeping only unclustered docs and each cluster's canonical
    (minimum-id) member (`canonical_docs`).  Composes three oracled
    ops; the SQL replays the closure and applies the same keep rule."""
    from docs_indexer_ray.ops.components import canonical_docs, connected_components
    from docs_indexer_ray.ops.dedup import ngram_jaccard_pairs

    docs = _documents_with_copies_ds(sf_dir)
    pairs = ngram_jaccard_pairs(docs, n=3, threshold=0.5)
    cc = connected_components(pairs, a="a", b="b")
    kept = _concat(canonical_docs(_documents_with_copies_ds(sf_dir), cc))
    return (
        _as_i64(kept.select(["doc_id"]), ["doc_id"]).sort_by("doc_id")
    )


def q_curate(sf_dir: str) -> pa.Table:
    """The COMPOSED five-stage curation pipeline
    (`pipelines/curate.py`): exact dedup → n-gram-Jaccard near-dup
    components → Gopher quality filter → benchmark decontamination →
    seeded training order, over documents ∪ planted copies, eval set
    = docs with ``doc_id % 97 == 0``.  Every stage is deterministic
    and SQL-replayable, so the WHOLE pipeline is one hash-exact
    oracle: output = (pos, doc_id) in training order."""
    from docs_indexer_ray.pipelines.curate import curate_corpus

    et = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = et["doc_id"].to_numpy(zero_copy_only=False)
    eval_texts = et.filter(pa.array(ids % 97 == 0))["text"].to_pylist()
    out = curate_corpus(
        _documents_with_copies_ds(sf_dir),
        eval_texts,
        jaccard_n=3,
        jaccard_threshold=0.5,
        min_words=20,
        decontam_n=8,
        seed=42,
    )
    t = _concat(out.select_columns(["doc_id"]))
    return pa.table(
        {
            "pos": pa.array(np.arange(1, t.num_rows + 1, dtype=np.int64)),
            "doc_id": pa.array(
                [int(v) for v in t["doc_id"].to_pylist()], pa.int64()
            ),
        }
    )


def q_curate_then_index(sf_dir: str) -> pa.Table:
    """The full 100 TB story in ONE pipeline: the five-stage curation
    chain (``pipelines/curate.py`` — exact dedup → near-dup components
    → Gopher → decontamination → seeded order) feeds the from-scratch
    INDEX BUILD, and the flagship BM25 query runs over the curated
    corpus — training-data curation and the search index from one
    engine, end-to-end.  Statistics (N, df, avgdl) are the SURVIVOR
    corpus's own, so the SQL oracle replays the whole composition:
    the curate CTE defines the survivor set, the standard BM25 CTE
    ranks over exactly those rows.  Hits map back to ORIGINAL doc ids
    via the stored url (zero-padded, so url order ≡ id order — the
    engine's dense-id tie-break equals the oracle's doc-id asc)."""
    import shutil

    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.pipelines.curate import curate_corpus
    from docs_indexer_ray.pipelines.flagship import CACHE_ROOT
    from docs_indexer_ray.query.bm25 import score_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import url_for, wrap_html

    et = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = et["doc_id"].to_numpy(zero_copy_only=False)
    eval_texts = et.filter(pa.array(ids % 97 == 0))["text"].to_pylist()
    out = curate_corpus(
        _documents_with_copies_ds(sf_dir),
        eval_texts,
        jaccard_n=3,
        jaccard_threshold=0.5,
        min_words=20,
        decontam_n=8,
        seed=42,
    )

    def to_pages(t: pa.Table) -> pa.Table:
        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t["text"].to_pylist()
        return pa.table(
            {
                "url": pa.array([url_for(int(d)) for d in dids], pa.string()),
                "warc_ts": pa.array(
                    dids * 1_000_000 + 1_735_689_600_000_000,
                    pa.timestamp("us"),
                ),
                "html": pa.array([wrap_html(x) for x in texts], pa.binary()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(dids), pa.string()),
            }
        )

    pages = out.map_batches(to_pages, batch_format="pyarrow")
    root = os.path.join(CACHE_ROOT, f"curated-{os.path.basename(sf_dir)}")
    shutil.rmtree(root, ignore_errors=True)
    build_index(
        pages, root, prefix="curated", field="body", chain="simple",
        fingerprint=f"curated-{os.path.basename(sf_dir)}", num_parts=8,
    )
    reader = IndexReader(root)
    hits = score_topk(reader, list(_BM25_TERMS), k=10)
    urls = reader.fetch_docs([d for d, _ in hits], ["doc_id", "url"])
    by_id = {
        int(i): u for i, u in zip(urls["doc_id"].to_pylist(),
                                  urls["url"].to_pylist())
    }
    orig = [int(by_id[int(d)].rstrip("/").rsplit("/", 1)[-1]) for d, _ in hits]
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array(orig, pa.int64()),
        }
    )


def q_rank_eval(sf_dir: str) -> pa.Table:
    """OpenSearch ``_rank_eval`` (`query/rank_eval.py`): three
    single-term queries scored at k=10 against PLANTED judgments
    (relevance 1 for doc_id%5==0, upgraded to 2 for doc_id%10==0) —
    precision@10 / MRR / DCG / NDCG, 1e-9-quantized."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.rank_eval import rank_eval
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    judged_ids = [d for d in range(n) if d % 5 == 0]
    rows = []
    for qname in ("q_merge", "q_scan", "q_table"):
        for d in judged_ids:
            rows.append((qname, d, 2 if d % 10 == 0 else 1))
    judgments = pa.table(
        {
            "query": pa.array([r[0] for r in rows], pa.string()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "relevance": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    return rank_eval(
        IndexReader(root),
        {"q_table": ["table"], "q_scan": ["scan"], "q_merge": ["merge"]},
        judgments,
        k=10,
    ).sort_by("query")


def q_knn_cosine(sf_dir: str) -> pa.Table:
    import ray.data

    from docs_indexer_ray.ops.ann import knn_cosine

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    mask = pc.less(qt["vec_id"], 5)
    qt = qt.filter(mask)
    queries = np.array(qt["embedding"].to_pylist(), np.float64)
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return _concat(knn_cosine(ds, queries, qids, k=5))


def q_pca_transform(sf_dir: str) -> pa.Table:
    """The PCA PROJECTION step, SQL-oracled: ``transform_pca``'s
    broadcast-basis matmul over every embedding, against a FIXED
    deterministic integer basis (``B[j,i] = ((i·7 + j·13) mod 5) − 2``,
    k=4) on embeddings quantized to integers (``floor(x·1000 + 0.5)``)
    so every product and partial sum is an exact float32-representable
    integer — the matmul replays bit-for-bit as a SQL lateral-unnest
    GROUP BY sum.  This shrinks the engine's no-oracle surface to the
    eigendecomposition alone (``knn_pca`` stays rows-only by nature;
    the projection machinery it shares is driver-checked here)."""
    import ray.data

    from docs_indexer_ray.ops.pca import transform_pca

    k, d = 4, 64
    basis = (((np.arange(d)[None, :] * 7 + np.arange(k)[:, None] * 13) % 5) - 2).astype(
        np.float64
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(_quantize_embeddings_tbl, batch_format="pyarrow")
    proj = transform_pca(ds, np.zeros(d), basis, out_col="pca")

    def explode(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = t["pca"].combine_chunks()
        vals = p.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, k), pa.int64()),
                "j": pa.array(np.tile(np.arange(k, dtype=np.int64), len(ids))),
                "p": pa.array(vals, pa.int64()),
            }
        )

    from docs_indexer_ray.collect import tables_of

    out = pa.concat_tables(tables_of(proj.map_batches(explode, batch_format="pyarrow")))
    return out.sort_by([("vec_id", "ascending"), ("j", "ascending")])


def _hadamard_basis(k: int, d: int = 64) -> np.ndarray:
    """First ``k`` rows of the ``d``-point Walsh–Hadamard matrix,
    ``H[j,i] = (-1)^popcount(i & j)`` — a DETERMINISTIC orthogonal
    ±1 basis (row dot products are exactly 0, row norms √d).  ONE
    construction shared with the LSH plane family so the engine and
    the SQL oracles can never diverge on the sign convention."""
    from docs_indexer_ray.ops.ann import _Planes

    return _Planes(d, k, "hadamard").planes


def _quantize_embeddings_tbl(t: pa.Table) -> pa.Table:
    """``floor(x·1000 + 0.5)`` integer quantization of the embedding
    list column — THE shared driver-side quantizer (every quantized
    oracle replays exactly this expression in SQL; one definition so
    the constant/rounding can never fork between surfaces)."""
    emb = t["embedding"].combine_chunks()
    flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    q = np.floor(flat * 1000.0 + 0.5)
    return pa.table(
        {
            "vec_id": t["vec_id"],
            "embedding": pa.ListArray.from_arrays(
                emb.offsets, pa.array(q, pa.float32())
            ),
        }
    )


def q_knn_pca(sf_dir: str) -> pa.Table:
    """Exact-cosine kNN in an orthogonally COMPRESSED space (64 → 56
    dims), driver-checkable end-to-end: the data-dependent eigh basis
    (which has no SQL replay — the round-4 `no_oracle` gap) is
    replaced on this surface by a deterministic ORTHOGONAL integer
    basis, the first 56 rows of the 64-point Walsh–Hadamard matrix
    ``H[j,i] = (-1)^popcount(i & j)``, over integer-quantized
    embeddings (``floor(x·1000 + 0.5)``): projection is exact integer
    arithmetic (|p| < 2^24, float32-exact) and the cosine top-k
    replays in SQL via DuckDB ``bit_count``.  Orthogonality is what
    makes the subspace cosine faithful (pytest pins ≥0.6 recall@5 vs
    the full-space exact ranking); the eigh-FIT path keeps its own
    pytest pins (`tests/test_ops.py` on `fit_pca`, plus the eigh
    recall test in `tests/test_entry.py`)."""
    import ray.data

    from docs_indexer_ray.ops.ann import knn_cosine
    from docs_indexer_ray.ops.pca import transform_pca

    k, d = 56, 64
    basis = _hadamard_basis(k, d)
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(_quantize_embeddings_tbl, batch_format="pyarrow")
    proj = transform_pca(ds, np.zeros(d), basis).map_batches(
        lambda t: t.drop_columns(["embedding"]).rename_columns(
            ["vec_id", "embedding"]
        ),
        batch_format="pyarrow",
    )
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qsel = qt.filter(pc.less(qt["vec_id"], 5))
    queries = (
        np.floor(np.array(qsel["embedding"].to_pylist(), np.float64) * 1000.0 + 0.5)
        @ basis.T
    )
    qids = qsel["vec_id"].to_numpy(zero_copy_only=False)
    return _concat(knn_cosine(proj, queries, qids, k=5))


def q_knn_cosine_q8(sf_dir: str) -> pa.Table:
    """Exact-cosine kNN over the int8-QUANTIZED corpus (4× smaller
    vectors, per-vector symmetric scale).  Rows-only: rank flips come
    only from quantization rounding; pytest pins recall@5 vs the exact
    float path."""
    import ray.data

    from docs_indexer_ray.ops.ann import knn_cosine_quantized, quantize_embeddings

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = qt.filter(pc.less(qt["vec_id"], 5))
    queries = np.array(qt["embedding"].to_pylist(), np.float64)
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return _concat(knn_cosine_quantized(quantize_embeddings(ds), queries, qids, k=5))


def q_knn_cosine_filtered(sf_dir: str) -> pa.Table:
    """Filtered vector search: exact cosine kNN restricted to the
    allowed subset ``vec_id % 3 == 0`` (metadata-filtered retrieval —
    the allowed set is broadcast once; excluded rows drop BEFORE the
    matmul)."""
    import ray.data

    from docs_indexer_ray.ops.ann import knn_cosine_filtered

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qsel = qt.filter(pc.less(qt["vec_id"], 5))
    queries = np.array(qsel["embedding"].to_pylist(), np.float64)
    qids = qsel["vec_id"].to_numpy(zero_copy_only=False)
    all_ids = qt["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    allowed = all_ids[all_ids % 3 == 0]
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return _concat(knn_cosine_filtered(ds, queries, qids, allowed, k=5))


def q_index_stats(sf_dir: str) -> pa.Table:
    from docs_indexer_ray.pipelines.flagship import ensure_index

    res, _ = ensure_index(sf_dir, chain="simple", field="body")
    return pa.table(
        {
            "n_docs": pa.array([int(res["n_docs"])], pa.int64()),
            "total_tokens": pa.array([int(res["total_tokens"])], pa.int64()),
            "avgdl": pa.array([float(res["avgdl"])], pa.float64()),
        }
    )


def q_match_all_count(sf_dir: str) -> pa.Table:
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    return pa.table(
        {"n_docs": pa.array([IndexReader(root).match_all_count()], pa.int64())}
    )


def q_export_shards(sf_dir: str) -> pa.Table:
    """Training-shard export (``ops/export.py``): the corpus written
    as 8 deterministic shard files — value-property shard assignment
    ``int(md5(seed:key)[:8], 16) % 8`` + the seeded-shuffle order
    within each shard, one atomic file per shard, resume-skip.  The
    manifest (shard, row count, first/last key in shuffled order)
    replays in SQL via the same md5 rule."""
    import tempfile

    import ray.data

    from docs_indexer_ray.ops.export import export_shards

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = tempfile.mkdtemp(prefix="dixr_export_")
    try:
        mf = export_shards(ds, out, n_shards=8, seed=0)
        return pa.table(
            {
                "shard": mf["shard"],
                "n_rows": mf["n_rows"],
                "first_doc": mf["first_key"].cast(pa.int64()),
                "last_doc": mf["last_key"].cast(pa.int64()),
            }
        )
    finally:
        import shutil

        shutil.rmtree(out, ignore_errors=True)


def q_term_vectors_stats(sf_dir: str) -> pa.Table:
    """OpenSearch Term Vectors API for one doc (doc_id 42) over the
    simple body index (``query/termvectors.py``): per-term in-doc
    frequency, corpus ``doc_freq`` (term dictionary), collection
    ``ttf`` (cf dictionary) and first token position — all from the
    REAL reader, SQL-replicable because the simple chain is."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.termvectors import term_vectors

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    out = term_vectors(IndexReader(root), doc_id=42, term_statistics=True)
    terms = out["term_vectors"]["body"]["terms"]
    names = sorted(terms)
    return pa.table(
        {
            "term": pa.array(names, pa.string()),
            "term_freq": pa.array(
                [terms[t]["term_freq"] for t in names], pa.int64()
            ),
            "doc_freq": pa.array(
                [terms[t]["doc_freq"] for t in names], pa.int64()
            ),
            "ttf": pa.array([terms[t]["ttf"] for t in names], pa.int64()),
            "first_pos": pa.array(
                [terms[t]["tokens"][0]["position"] for t in names], pa.int64()
            ),
        }
    )


def q_bm25_topk(sf_dir: str) -> pa.Table:
    """WAND top-10 over the simple-analyzer body index (SQL-checkable)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import wand_topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    hits = wand_topk(IndexReader(root), list(_BM25_TERMS), k=10)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def q_search_fetch(sf_dir: str) -> pa.Table:
    """OpenSearch query-then-fetch response assembly
    (`query/search.py::search_response`): rank the flagship terms via
    the query_string path, then fetch the STORED url for only the k
    hits (row-group-pruned) — the `_search` hits shape the reference's
    docs UI consumes (rank, doc_id, _source.url).  Scores stay
    engine-side; the oracle replays rank + the stored-field join."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.search import search_response

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    t = search_response(
        IndexReader(root), "table scan merge slow", k=10, fields=("url",)
    )
    return t.select(["rank", "doc_id", "url"])


def q_collapse(sf_dir: str) -> pa.Table:
    """OpenSearch ``collapse`` (field collapsing): the flagship BM25
    top-10 keeping only the BEST hit per ``documents.source`` (one
    result per crawl source — ``query/bm25.py::collapse_topk``).
    Keys come from an external side table pruned to the matched set
    (2-column read, joined by doc id — index doc ids are 1:1 with
    ``documents.doc_id`` by the url-order assignment); the SQL oracle
    replays score → round(·,9) → per-key row_number → global top-10."""
    import pyarrow.parquet as pq_

    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import collapse_topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    src_t = pq_.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source"]
    )
    all_ids = src_t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    all_src = np.asarray(src_t["source"].to_pylist(), dtype=object)
    by_id = np.empty(int(all_ids.max()) + 1, dtype=object)
    by_id[all_ids] = all_src

    def fetch_keys(matched):
        return matched, by_id[matched]

    hits = collapse_topk(
        IndexReader(root), list(_BM25_TERMS), k=10, fetch_keys=fetch_keys
    )
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([d for d, _, _ in hits], pa.int64()),
            "ckey": pa.array([key for _, _, key in hits], pa.string()),
        }
    )


def q_bm25_knn_rrf(sf_dir: str) -> pa.Table:
    """Hybrid retrieval: reciprocal-rank fusion (Cormack et al., SIGIR
    2009; OpenSearch's hybrid-query RRF processor) of a BM25 top-100
    leg and an exact-cosine kNN top-100 leg for the same information
    need, fused to a top-10 with ``rrf(d) = Σ 1/(60 + rank_leg(d))``.

    ``embeddings.vec_id`` is modeled as the embedding of document
    ``doc_id`` (the synthetic tables are row-aligned); the vector leg
    ranks neighbors of doc 0's embedding.  Each leg is the distributed
    part (WAND / broadcast-matmul ``knn_cosine``); fusion sees only
    ≤ 200 candidate rows — output-scale by construction
    (``query/hybrid.py``).  The fused double is bit-identical to the
    SQL ``COALESCE(1.0/(60+r),0) + COALESCE(...)`` expression shape."""
    import ray.data

    from docs_indexer_ray.ops.ann import knn_cosine
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import wand_topk
    from docs_indexer_ray.query.hybrid import rrf_fuse
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    hits = wand_topk(IndexReader(root), list(_BM25_TERMS), k=100)
    bm_rank = {int(d): r for r, (d, _) in enumerate(hits, 1)}

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    q0 = qt.filter(pc.equal(qt["vec_id"], 0))
    queries = np.array(q0["embedding"].to_pylist(), np.float64)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    knn = _concat(knn_cosine(ds, queries, np.array([0], np.int64), k=100))
    kn_rank = {
        int(n): int(r)
        for n, r in zip(
            knn["neighbor_id"].to_pylist(), knn["rank"].to_pylist()
        )
    }
    return rrf_fuse([bm_rank, kn_rank], k=60, topn=10)


def q_bm25_topk_filtered(sf_dir: str) -> pa.Table:
    """Filtered BM25 (Lucene filtered-query semantics: GLOBAL
    statistics, post-scoring date predicate): the ``bm25_topk`` terms
    restricted to docs with ``warc_ts >= cutoff`` — a DSL ``bool`` with
    a ``range`` filter through one in-process shard over the full
    reader.  The filter clause adds a constant +1.0 to every hit, so
    the (rank, doc_id) page equals the raw filtered-BM25 replay;
    ``dsl_range_sharded`` sends the same body to the 4-shard fleet."""
    return _fleet_dsl_page(sf_dir, _DSL_RANGE, n_shards=0)


def q_bm25_bool(sf_dir: str) -> pa.Table:
    """OpenSearch ``bool`` query (must / should / must_not) through
    one in-process shard: docs must contain BOTH 'table' and 'scan',
    must NOT contain 'hash'; 'merge' and 'slow' add relevance when
    present.  Score = BM25 sum over matched must+should clauses
    (Lucene: no coord, pure-negative clauses never score)."""
    dsl = {"bool": {
        "must": [{"term": {"body": "table"}}, {"term": {"body": "scan"}}],
        "should": [{"term": {"body": "merge"}}, {"term": {"body": "slow"}}],
        "must_not": [{"term": {"body": "hash"}}],
    }}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=0)


def q_query_string(sf_dir: str) -> pa.Table:
    """Lucene/OpenSearch ``query_string`` syntax end-to-end
    (`query/qstring.py`): ``+table -hash (merge OR slow^2) "table
    scan"`` — a required term, a prohibited term, a boosted OR group
    and a phrase clause, parsed and lowered onto the engine's bool /
    phrase scorers.  Score = bm25(table) + bm25(merge) + 2·bm25(slow)
    + phrase-pseudo-term score, over docs containing 'table' and not
    'hash'; ranking key quantized 1e-9 (both sides)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(
        sf_dir, chain="simple", field="body", store_positions=True
    )
    hits = query_string_topk(
        IndexReader(root), '+table -hash (merge OR slow^2) "table scan"', k=10
    )
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def q_boosting(sf_dir: str) -> pa.Table:
    """OpenSearch ``boosting`` query through one in-process shard:
    rank by BM25 over positive terms 'merge'+'slow', demoting docs
    that also contain 'hash' by negative_boost=0.5 (a power of two —
    the demoted scores replay bit-exactly in SQL)."""
    dsl = {"boosting": {
        "positive": {"bool": {"should": [
            {"term": {"body": "merge"}}, {"term": {"body": "slow"}},
        ]}},
        "negative": {"term": {"body": "hash"}},
        "negative_boost": 0.5,
    }}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=0)


def q_bm25_topk_merged(sf_dir: str) -> pa.Table:
    """Incremental-build parity through the driver gate: the corpus is
    split at the median url into two independent builds, merged with
    ``merge_many`` (id-shifted docs store + single-pass k-way segment
    merge), and the flagship query runs against the MERGED index.
    Because doc ids are assigned in url order and the split is a url
    range, merged ids equal the full build's — the same ``bm25_topk``
    SQL oracle pins the whole merge path (K-way encode, varint
    patching, df/stats recombination) end-to-end."""
    import pyarrow.parquet as pq

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.index.merge import merge_many
    from docs_indexer_ray.pipelines.flagship import CACHE_ROOT, pages_dataset
    from docs_indexer_ray.query.bm25 import topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import url_for

    doc_path = os.path.join(sf_dir, "documents.parquet")
    fp = mf.input_fingerprint([doc_path], config="mergedemo")
    n = pq.read_metadata(doc_path).num_rows
    cut = url_for(n // 2)
    mroot = os.path.join(CACHE_ROOT, "merged-demo")
    halves = []
    for name, keep_lo in (("lo", True), ("hi", False)):
        root = os.path.join(mroot, name)
        os.makedirs(root, exist_ok=True)

        def split(t: pa.Table, lo=keep_lo) -> pa.Table:
            m = pc.less(t["url"], cut) if lo else pc.greater_equal(t["url"], cut)
            return t.filter(m)

        build_index(
            pages_dataset(sf_dir).map_batches(split, batch_format="pyarrow"),
            root,
            prefix="h",
            fingerprint=f"{fp}-{name}",
            num_parts=16,
            chain="simple",
            field="body",
        )
        halves.append(root)
    mr = os.path.join(mroot, "m")
    os.makedirs(mr, exist_ok=True)
    mfp = "m" + fp
    if not mf.is_current(mr, "m", mfp):
        merge_many(halves, mr, prefix="m", fingerprint=mfp)
    hits = topk(IndexReader(mr), list(_BM25_TERMS), k=10)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def q_bm25_bool_msm(sf_dir: str) -> pa.Table:
    """``bool`` with a minimum-should-match count, through one
    in-process shard: docs must contain 'table' AND at least 2 of
    {'merge', 'slow', 'vector'}; score = BM25 sum over matched clauses
    (global statistics).  The count gate is a zero-boost
    ``constant_score`` over a ``terms_set`` (Lucene CoveringQuery) in
    ``must``, so it adds 0.0 and the scores sum table, then the
    present should terms in order."""
    should = ["merge", "slow", "vector"]
    dsl = {"bool": {
        "must": [
            {"term": {"body": "table"}},
            {"constant_score": {
                "filter": {"terms_set": {"body": {
                    "terms": should, "minimum_should_match": 2,
                }}},
                "boost": 0,
            }},
        ],
        "should": [{"term": {"body": t}} for t in should],
    }}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=0)


def q_bm25_search_after(sf_dir: str) -> pa.Table:
    """Deep pagination (OpenSearch ``search_after``): page 2 of the
    flagship query — the 10 hits after page 1's ``(score, doc_id)``
    cursor, from the served plain-text planner ``bm25.topk`` (a cursor
    takes its dense range pass).  Stateless: the page is one
    independent query."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    reader = IndexReader(root)
    page1 = topk(reader, list(_BM25_TERMS), k=10)
    cursor = (page1[-1][1], page1[-1][0]) if page1 else None
    page2 = topk(reader, list(_BM25_TERMS), k=10, after=cursor)
    return pa.table(
        {
            "rank": pa.array(
                np.arange(len(page1) + 1, len(page1) + len(page2) + 1, dtype=np.int64)
            ),
            "doc_id": pa.array([int(d) for d, _ in page2], pa.int64()),
        }
    )


def q_facet_terms(sf_dir: str) -> pa.Table:
    """OpenSearch ``terms`` aggregation: doc counts per ``lang`` among
    docs matching ANY of the bm25 query terms."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap, terms_facet
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "lang"])
    return terms_facet(ds, matched, field="lang")


def q_facet_terms_stats(sf_dir: str) -> pa.Table:
    """OpenSearch ``terms`` bucket + ``stats`` sub-aggregation: per
    ``lang`` bucket of the matched docs, doc count and
    min/max/sum/avg of the body length (integer field → every sum
    float-exact, one division per bucket)."""
    import pyarrow.compute as _pc

    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap, terms_stats_facet
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "lang", "body"])
    ds = ds.map_batches(
        lambda t: t.append_column(
            "blen", _pc.utf8_length(t["body"]).cast(pa.int64())
        ).select(["doc_id", "lang", "blen"]),
        batch_format="pyarrow",
    )
    return terms_stats_facet(ds, matched, key_field="lang", val_col="blen")


def q_facet_terms_approx(sf_dir: str) -> pa.Table:
    """``terms`` aggregation through the heavy-hitters sketch
    (``terms_facet_approx``) — at the oracle's scale every block's
    matched-distinct ``lang`` count fits ``m``, so the result equals
    the exact facet's top-k with ``lo == hi`` and ``guaranteed``
    true, which is exactly what the SQL replays."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap, terms_facet_approx
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "lang"])
    return terms_facet_approx(ds, matched, field="lang", k=5, m=1024)


def q_sort_by_date(sf_dir: str) -> pa.Table:
    """OpenSearch ``sort`` clause (D7's sort capability): the 10 newest
    docs matching ANY of the flagship terms, ordered ``warc_ts`` desc,
    doc id asc tie-break — per-batch partial top-k, no full sort."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap, top_by_column
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "warc_ts"])
    return top_by_column(ds, matched, "warc_ts", k=10, ascending=False)


def q_term_prefix(sf_dir: str) -> pa.Table:
    """Prefix query over the term dictionary (the primitive behind
    OpenSearch prefix/wildcard-'s*' queries and the suggesters): every
    term starting with 's' with its document frequency."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    hits = IndexReader(root).prefix_terms("s", limit=1_000_000)
    return pa.table(
        {
            "term": pa.array([t for t, _ in hits], pa.string()),
            "df": pa.array([d for _, d in hits], pa.int64()),
        }
    )


def _multimatch(sf_dir: str, mode: str, tie_breaker: float = 0.0) -> pa.Table:
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.multimatch import multi_match_topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root_b = ensure_index(sf_dir, chain="simple", field="body")
    _, root_t = ensure_index(sf_dir, chain="simple", field="text")
    hits = multi_match_topk(
        [(IndexReader(root_b), 1.0), (IndexReader(root_t), 0.5)],
        " ".join(_BM25_TERMS),
        k=10,
        mode=mode,
        tie_breaker=tie_breaker,
    )
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def q_bm25_multimatch(sf_dir: str) -> pa.Table:
    """OpenSearch ``multi_match`` (``most_fields``): the flagship
    query scored over ``body``^1.0 + catch-all ``text``^0.5 (two
    per-field indexes, summed per-field BM25)."""
    return _multimatch(sf_dir, "most_fields")


def q_bm25_multimatch_best(sf_dir: str) -> pa.Table:
    """OpenSearch ``multi_match`` (``best_fields``, tie_breaker 0.3):
    DisjunctionMax over the same two fields."""
    return _multimatch(sf_dir, "best_fields", tie_breaker=0.3)


def q_bm25_multimatch_cross(sf_dir: str) -> pa.Table:
    """OpenSearch ``multi_match`` (``cross_fields``): the same two
    fields scored as ONE blended virtual field — union df,
    boost-weighted summed tf, summed dl
    (`query/multimatch.py::cross_fields_topk`)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.multimatch import cross_fields_topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root_b = ensure_index(sf_dir, chain="simple", field="body")
    _, root_t = ensure_index(sf_dir, chain="simple", field="text")
    hits = cross_fields_topk(
        [(IndexReader(root_b), 1.0), (IndexReader(root_t), 0.5)],
        " ".join(_BM25_TERMS),
        k=10,
    )
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def q_fuzzy_terms(sf_dir: str) -> pa.Table:
    """OpenSearch ``fuzzy`` query, expansion level: every vocabulary
    term within plain-Levenshtein distance 2 of the typo 'tble'
    (→ 'table' at distance 1), with distance and df — ranked the way
    Lucene ranks fuzzy expansions.  ``transpositions=False`` matches
    DuckDB ``levenshtein()`` bit-for-bit (the engine's default, OSA,
    is pinned by pytest instead)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.fuzzy import fuzzy_expand
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    exp = fuzzy_expand(
        IndexReader(root),
        "tble",
        max_edits=2,
        transpositions=False,
        max_expansions=1_000_000,
    )
    return pa.table(
        {
            "term": pa.array([t for t, _, _ in exp], pa.string()),
            "distance": pa.array([d for _, d, _ in exp], pa.int64()),
            "df": pa.array([f for _, _, f in exp], pa.int64()),
        }
    )


def q_fuzzy_match(sf_dir: str) -> pa.Table:
    """OpenSearch ``fuzzy`` query, document level: ids of docs
    containing ANY term within Levenshtein distance 2 of 'tble'."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.fuzzy import fuzzy_match_doc_ids
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    ids = fuzzy_match_doc_ids(
        IndexReader(root),
        "tble",
        max_edits=2,
        transpositions=False,
        max_expansions=1_000_000,
    )
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


def q_wildcard(sf_dir: str) -> pa.Table:
    """OpenSearch ``wildcard`` query over the term dictionary:
    pattern ``sc?n*`` (one char + any tail, e.g. scan/scans/
    scanning) with df, ranked df desc / term asc."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.fuzzy import wildcard_terms
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    hits = wildcard_terms(IndexReader(root), "sc?n*", limit=1_000_000)
    return pa.table(
        {
            "term": pa.array([t for t, _ in hits], pa.string()),
            "df": pa.array([d for _, d in hits], pa.int64()),
        }
    )


def q_synonym(sf_dir: str) -> pa.Table:
    """Query-time synonyms (Lucene SynonymQuery): groups
    ``[merge, join]`` (blended tf-sum, max-df) + ``[slow]`` over the
    flagship index, top-10 by the 1e-9-quantized blended score."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import synonym_topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    hits = synonym_topk(IndexReader(root), [["merge", "join"], ["slow"]], k=10)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def q_search_as_you_type(sf_dir: str) -> pa.Table:
    """OpenSearch ``search_as_you_type``: the typed prefix ``sca``
    becomes an EXACT term lookup in the edge-ngram chain's index
    (edge 2..15 per token), ranked by BM25 over that field's own
    statistics — top-10 (rank, doc_id).  Single query term ⇒ no SUM
    association; the oracle replays edge-ngramming with
    substr + generate_series."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import wand_topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="edge", field="body")
    hits = wand_topk(IndexReader(root), ["sca"], k=10)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def q_function_score(sf_dir: str) -> pa.Table:
    """OpenSearch ``function_score`` recency decay through one
    in-process shard: the flagship BM25 query re-ranked by ``score *
    exp(ln(0.5)/600 * age_s)`` (10-minute half-life against origin
    2025-01-01 00:10; the %10 bumped docs sit in the future and
    exercise the age clamp).  Ranking key quantized to 1e-9 so the SQL
    oracle reproduces the order regardless of SUM association; only
    rank+doc_id are emitted (`round()` half-mode differs between
    engines at measure-zero boundaries)."""
    return _fleet_dsl_page(sf_dir, _DSL_FUNCTION_SCORE, n_shards=0)


def q_regexp(sf_dir: str) -> pa.Table:
    """OpenSearch ``regexp`` query over the term dictionary:
    anchored RE2-compatible pattern ``(s|b)[a-z]*a(n|ll|rk)``
    (matches scan/small/spark) with df, ranked df desc / term asc —
    trigram-accelerated when the pattern carries a ≥3-char mandatory
    literal run (``query/fuzzy.py::regexp_terms``)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.fuzzy import regexp_terms
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    hits = regexp_terms(IndexReader(root), "(s|b)[a-z]*a(n|ll|rk)", limit=1_000_000)
    return pa.table(
        {
            "term": pa.array([t for t, _ in hits], pa.string()),
            "df": pa.array([d for _, d in hits], pa.int64()),
        }
    )


def _blen_ds_and_matched(sf_dir: str):
    """Shared facet fixture: the (doc_id, blen) dataset (body length
    in chars) + the match-any doc set of the flagship query terms."""
    import pyarrow.compute as _pc

    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "body"])
    ds = ds.map_batches(
        lambda t: t.append_column("blen", _pc.utf8_length(t["body"]).cast(pa.int64())).select(
            ["doc_id", "blen"]
        ),
        batch_format="pyarrow",
    )
    return ds, matched


def q_facet_filters(sf_dir: str) -> pa.Table:
    """OpenSearch ``filters`` aggregation: independent NAMED buckets —
    "early" (warc_ts before 00:04:10), "big"/"small" (body length
    thresholds) — each counted in ONE shared streaming pass
    (`query/facets.py::filters_facet`); overlapping membership is the
    API's semantics."""
    import datetime as _dt

    import pyarrow.compute as _pc

    from docs_indexer_ray.pipelines.flagship import docs_store_dataset
    from docs_indexer_ray.query.facets import filters_facet

    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "body", "warc_ts"])
    ds = ds.map_batches(
        lambda t: t.append_column(
            "blen", _pc.utf8_length(t["body"]).cast(pa.int64())
        ).select(["doc_id", "blen", "warc_ts"]),
        batch_format="pyarrow",
    )
    return filters_facet(
        ds,
        {
            "early": ("warc_ts", "<", _dt.datetime(2025, 1, 1, 0, 4, 10)),
            "big": ("blen", ">", 300),
            "small": ("blen", "<=", 200),
        },
    )


def q_facet_adjacency(sf_dir: str) -> pa.Table:
    """OpenSearch ``adjacency_matrix`` aggregation
    (`query/facets.py::adjacency_matrix_facet`): named filters "early"
    / "big" / "small" plus every pairwise intersection ("big&early",
    …), all counted in ONE shared streaming pass; zero buckets
    omitted per the API."""
    import datetime as _dt

    import pyarrow.compute as _pc

    from docs_indexer_ray.pipelines.flagship import docs_store_dataset
    from docs_indexer_ray.query.facets import adjacency_matrix_facet

    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "body", "warc_ts"])
    ds = ds.map_batches(
        lambda t: t.append_column(
            "blen", _pc.utf8_length(t["body"]).cast(pa.int64())
        ).select(["doc_id", "blen", "warc_ts"]),
        batch_format="pyarrow",
    )
    return adjacency_matrix_facet(
        ds,
        {
            "early": ("warc_ts", "<", _dt.datetime(2025, 1, 1, 0, 4, 10)),
            "big": ("blen", ">", 300),
            "small": ("blen", "<=", 200),
        },
    )


def q_facet_composite(sf_dir: str) -> pa.Table:
    """OpenSearch ``composite`` aggregation: the matched docs' body
    lengths exported in after_key-paged bucket pages (size=7), all
    pages concatenated with their page index — exercising the full
    cursor protocol (`query/facets.py::composite_facet`)."""
    from docs_indexer_ray.query.facets import composite_facet

    ds, matched = _blen_ds_and_matched(sf_dir)
    pages, after, page_no = [], None, 0
    while True:
        tbl, after = composite_facet(ds, matched, "blen", size=7, after=after)
        if tbl.num_rows == 0:
            break
        pages.append(
            tbl.append_column(
                "page", pa.array(np.full(tbl.num_rows, page_no, np.int64))
            )
        )
        page_no += 1
        if after is None:
            break
    out = pa.concat_tables(pages) if pages else pa.table(
        {"key": pa.array([], pa.int64()), "n_docs": pa.array([], pa.int64()),
         "page": pa.array([], pa.int64())}
    )
    return out.select(["page", "key", "n_docs"])


def q_facet_stats(sf_dir: str) -> pa.Table:
    """OpenSearch ``stats`` aggregation: count/min/max/sum/avg of the
    matched docs' body length (chars)."""
    from docs_indexer_ray.query.facets import stats_facet

    ds, matched = _blen_ds_and_matched(sf_dir)
    return stats_facet(ds, matched, "blen")


def q_facet_extended_stats(sf_dir: str) -> pa.Table:
    """OpenSearch ``extended_stats``: stats + sum_of_squares /
    variance / std_deviation (population, the ``(Σx² − (Σx)²/n)/n``
    wire formula) of the matched docs' body length — integer field,
    so every sum is float-exact."""
    from docs_indexer_ray.query.facets import extended_stats_facet

    ds, matched = _blen_ds_and_matched(sf_dir)
    return extended_stats_facet(ds, matched, "blen")


def q_facet_weighted_avg(sf_dir: str) -> pa.Table:
    """OpenSearch ``weighted_avg``: body length weighted by the
    planted per-doc weight ``doc_id % 5 + 1`` over the matched docs
    — Σ(v·w)/Σw, both sums integer-exact."""
    from docs_indexer_ray.query.facets import weighted_avg_facet

    ds, matched = _blen_ds_and_matched(sf_dir)

    def add_w(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("w", pa.array(d % 5 + 1, pa.int64()))

    return weighted_avg_facet(
        ds.map_batches(add_w, batch_format="pyarrow"), matched, "blen", "w"
    )


def q_facet_missing(sf_dir: str) -> pa.Table:
    """OpenSearch ``missing`` aggregation: docs lacking a field —
    blen is PLANTED null when doc_id % 7 == 0 and the agg counts the
    nulls in one streaming pass."""
    from docs_indexer_ray.query.facets import missing_facet

    ds, _ = _blen_ds_and_matched(sf_dir)

    def plant_null(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        blen = t["blen"].to_numpy(zero_copy_only=False).astype(np.int64)
        arr = pa.array(
            [None if dd % 7 == 0 else int(v) for dd, v in zip(d, blen)],
            pa.int64(),
        )
        return t.set_column(t.schema.get_field_index("blen"), "blen", arr)

    return missing_facet(ds.map_batches(plant_null, batch_format="pyarrow"), "blen")


def q_facet_cardinality(sf_dir: str) -> pa.Table:
    """OpenSearch ``cardinality`` aggregation (exact variant): number
    of distinct body lengths among the matched docs."""
    from docs_indexer_ray.query.facets import cardinality

    ds, matched = _blen_ds_and_matched(sf_dir)
    return cardinality(ds, matched, "blen")


def q_facet_cardinality_hll(sf_dir: str) -> pa.Table:
    """``cardinality`` via the HyperLogLog sketch path (constant-size
    partials; OpenSearch's own algorithm).  Deterministic (fixed hash,
    max-merge) but approximate, so rows-only: the pytest oracle pins
    it within the ±0.8 % p=14 envelope of the exact answer."""
    from docs_indexer_ray.query.facets import cardinality

    ds, matched = _blen_ds_and_matched(sf_dir)
    out = cardinality(ds, matched, "blen", approx=True)
    return out.append_column("precision", pa.array([14] * out.num_rows, pa.int64()))


def q_facet_histogram(sf_dir: str) -> pa.Table:
    """OpenSearch numeric ``histogram`` aggregation: matched-doc
    counts per 100-char body-length bucket."""
    from docs_indexer_ray.query.facets import histogram

    ds, matched = _blen_ds_and_matched(sf_dir)
    return histogram(ds, matched, "blen", interval=100)


_RANGES = [(0.0, 500.0), (500.0, 1000.0), (1000.0, 2000.0), (2000.0, 1e9)]


def q_facet_range(sf_dir: str) -> pa.Table:
    """OpenSearch ``range`` aggregation: matched-doc counts per
    explicit [from, to) body-length bucket (empty buckets kept)."""
    from docs_indexer_ray.query.facets import range_facet

    ds, matched = _blen_ds_and_matched(sf_dir)
    return range_facet(ds, matched, "blen", _RANGES)


_PCTS = [25.0, 50.0, 75.0, 95.0, 99.0]


def q_facet_percentiles(sf_dir: str) -> pa.Table:
    """OpenSearch ``percentiles`` aggregation (exact variant): body-
    length percentiles of the matched docs via distributed value-count
    histogram partials + the continuous ``h = (n−1)q`` interpolation —
    bit-identical to DuckDB ``quantile_cont``."""
    from docs_indexer_ray.query.facets import percentiles

    ds, matched = _blen_ds_and_matched(sf_dir)
    return percentiles(ds, matched, "blen", _PCTS)


def q_facet_percentiles_tdigest(sf_dir: str) -> pa.Table:
    """``percentiles`` via the t-digest sketch path (constant
    ``O(delta)`` partials — OpenSearch's own algorithm for unbounded
    value cardinalities).  Approximate, so rows-only: pytest pins each
    estimate within a relative-error band of the exact answer."""
    from docs_indexer_ray.query.facets import percentiles

    ds, matched = _blen_ds_and_matched(sf_dir)
    return percentiles(ds, matched, "blen", _PCTS, approx=True)


_RANK_VALUES = [100.0, 250.0, 400.0, 550.0]


def q_facet_percentile_ranks(sf_dir: str) -> pa.Table:
    """OpenSearch ``percentile_ranks``: % of matched docs whose body
    length is ≤ each probe value (exact, constant-size partials)."""
    from docs_indexer_ray.query.facets import percentile_ranks

    ds, matched = _blen_ds_and_matched(sf_dir)
    return percentile_ranks(ds, matched, "blen", _RANK_VALUES)


def q_facet_significant_terms(sf_dir: str) -> pa.Table:
    """OpenSearch ``significant_terms`` aggregation (JLH scoring):
    the 10 terms most overrepresented in the flagship query's match
    set vs the whole corpus — a distributed scan of the term-
    partitioned segment files, one task per partition, no
    re-tokenization (``query/significant.py``)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.significant import significant_terms

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    reader = IndexReader(root)
    matched = match_doc_bitmap(reader, list(_BM25_TERMS))
    return significant_terms(reader, matched, k=10)


_MLT_DOC = 7


def q_more_like_this(sf_dir: str) -> pa.Table:
    """OpenSearch ``more_like_this``: top-10 docs similar to doc 7 —
    tf·idf term selection from the source doc (25 terms) + a BM25
    OR-query excluding the source (``query/mlt.py``)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.mlt import more_like_this
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    return more_like_this(IndexReader(root), _MLT_DOC, k=10)


def q_facet_top_hits(sf_dir: str) -> pa.Table:
    """OpenSearch ``top_hits`` sub-aggregation: per language bucket,
    the 3 newest matched docs (sort by ``warc_ts`` desc)."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap, top_hits
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "lang", "warc_ts"])
    return top_hits(ds, matched, group_col="lang", sort_col="warc_ts", k=3)


def q_facet_date_range(sf_dir: str) -> pa.Table:
    """OpenSearch ``date_range`` aggregation: matched-doc counts per
    explicit [from, to) timestamp bucket — composition of the
    epoch-seconds derivation and ``range_facet`` (same partial-count
    machinery; empty buckets kept)."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap, range_facet
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "warc_ts"])

    def to_epoch(t: pa.Table) -> pa.Table:
        us = t["warc_ts"].cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "epoch_s": pc.divide(us, pa.scalar(1_000_000, pa.int64())),
            }
        )

    base = 1735689600  # 2025-01-01T00:00:00Z
    ranges = [
        (float(base), float(base + 120)),
        (float(base + 120), float(base + 300)),
        (float(base + 300), float(base + 100000)),
    ]
    return range_facet(
        ds.map_batches(to_epoch, batch_format="pyarrow"), matched, "epoch_s", ranges
    )


def q_facet_rare_terms(sf_dir: str) -> pa.Table:
    """OpenSearch ``rare_terms``: long-tail body lengths (≤ 2 matched
    docs per value) among the flagship query's matches."""
    from docs_indexer_ray.query.facets import rare_terms_facet

    ds, matched = _blen_ds_and_matched(sf_dir)
    return rare_terms_facet(ds, matched, "blen", max_doc_count=2)


_ANALYZE_TEXT = "The Table-Scan: merges 42 SLOW paths, re-scanned!"


def q_analyze(sf_dir: str) -> pa.Table:
    """OpenSearch ``_analyze`` API: the simple chain's token stream
    for a fixed string → (position, token), 0-based positions."""
    from docs_indexer_ray.functions.analyzer import Analyzer

    toks = Analyzer("simple")(_ANALYZE_TEXT)
    return pa.table(
        {
            "position": pa.array(np.arange(len(toks), dtype=np.int64)),
            "token": pa.array(toks, pa.string()),
        }
    )


def q_sample_stratified(sf_dir: str) -> pa.Table:
    """Per-stratum deterministic subsample of events: keep 4/16 of
    'click' rows, 1/16 of 'view' rows, drop other types — hash value
    property, parallelism-invariant and SQL-replicable."""
    import ray.data

    from docs_indexer_ray.ops.sample import stratified_sample_by_hash

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type", "props"],
    )
    out = stratified_sample_by_hash(
        ds, key="props", group_col="event_type",
        rates={"click": 4 / 16, "view": 1 / 16},
    )
    t = _concat(out)
    return _as_i64(t.select(["event_id", "event_type"]), ["event_id"]).sort_by(
        "event_id"
    )


def q_redact_pii(sf_dir: str) -> pa.Table:
    """PII scrub over the corpus: PLANT deterministic emails/IPs/phone
    runs into each doc's text (SQL-replicable synthesis — the synth
    corpus itself is [a-z0-9 ]-clean), then redact with the sequential
    email → ip → phone RE2 pipeline."""
    import ray.data

    from docs_indexer_ray.ops.textclean import redact_pii

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        txts = t["text"].to_pylist()
        planted = [
            f"{x} contact user{d}@example{d % 7}.com or 10.0.{d % 256}.7 "
            f"tel +1 202 555 {d % 10000:04d} end"
            for d, x in zip(ids, txts)
        ]
        return pa.table(
            {"doc_id": t["doc_id"], "text": pa.array(planted, pa.string())}
        )

    out = redact_pii(ds.map_batches(plant, batch_format="pyarrow"), "text")
    t = _concat(out)
    return _as_i64(t.select(["doc_id", "text"]), ["doc_id"]).sort_by("doc_id")


def q_line_filter(sf_dir: str) -> pa.Table:
    """C4/RefinedWeb line-wise correction filter
    (`ops/textclean.py::line_filter`): PLANT deterministic boilerplate
    and too-short lines around each doc's (single-line) body by
    doc_id arithmetic, then drop lines with <3 words or a boilerplate
    match and flag docs that keep >=1/2 of their lines.  One streaming
    map_batches, no shuffle; every kernel is vectorized Arrow/RE2, so
    the DuckDB oracle (split -> per-line regex -> ordered string_agg)
    hash-matches bit-exactly."""
    import ray.data

    from docs_indexer_ray.ops.textclean import line_filter

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        txts = t["text"].to_pylist()
        rows = []
        for d, x in zip(ids, txts):
            s = ("Click here to subscribe now!\n" if d % 3 == 0 else "") + x
            if d % 2 == 0:
                s += "\nok btn"
            if d % 5 == 0:
                s += "\nthe quick brown fox jumps over the lazy dog again"
            rows.append(s)
        return pa.table(
            {"doc_id": t["doc_id"], "text": pa.array(rows, pa.string())}
        )

    out = line_filter(ds.map_batches(plant, batch_format="pyarrow"))
    t = _concat(out)
    return _as_i64(t, ["doc_id", "n_lines", "n_kept"]).sort_by("doc_id")


def q_bm25_collapse(sf_dir: str) -> pa.Table:
    """OpenSearch ``collapse``: flagship BM25 ranking collapsed to the
    best doc per ``lang`` → top 5 languages by their best doc."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.bm25 import bm25_scores_dense
    from docs_indexer_ray.query.facets import collapse_top
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    scores = bm25_scores_dense(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "lang"])
    return collapse_top(ds, scores, field="lang", k=5)


def q_facet_multi_terms(sf_dir: str) -> pa.Table:
    """OpenSearch ``multi_terms`` aggregation: matched-doc counts per
    (lang, 200-char body-length bucket) composite key."""
    import pyarrow.compute as _pc

    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap, multi_terms_facet
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "lang", "body"])

    def derive(t: pa.Table) -> pa.Table:
        blen = _pc.utf8_length(t["body"]).cast(pa.int64())
        bucket = _pc.multiply(
            _pc.divide(blen, pa.scalar(200, pa.int64())), pa.scalar(200, pa.int64())
        )
        return pa.table(
            {"doc_id": t["doc_id"], "lang": t["lang"], "blen_bucket": bucket}
        )

    return multi_terms_facet(
        ds.map_batches(derive, batch_format="pyarrow"), matched, ["lang", "blen_bucket"]
    )


def q_bm25_topk_deleted(sf_dir: str) -> pa.Table:
    """Soft deletes (OpenSearch ``delete_by_query``): tombstone every
    doc containing "refresh" on an isolated copy of the index, then
    run the flagship BM25 query — deleted docs vanish from results
    while survivors keep their exact pre-delete scores (statistics are
    not rewritten until compaction, Lucene tombstone semantics)."""
    import shutil
    import tempfile

    from docs_indexer_ray.index.deletes import delete_by_terms
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    tmp = tempfile.mkdtemp(prefix="dixr_deltest_")
    try:
        copy = os.path.join(tmp, "idx")
        shutil.copytree(root, copy)
        n_deleted = delete_by_terms(copy, ["refresh"])
        reader = IndexReader(copy)
        assert reader.match_all_count() == reader.n_docs - n_deleted
        hits = topk(reader, list(_BM25_TERMS), k=10)
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
                "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
            }
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def q_bm25_topk_compacted(sf_dir: str) -> pa.Table:
    """Full soft-delete lifecycle: delete_by_query("refresh") on an
    isolated index copy, then COMPACT (filtered + re-id'd docs store,
    phase-2 rebuild — no re-extraction) and query the compacted build.
    Statistics are recomputed over the survivors, so scores move — the
    SQL oracle recomputes BM25 over the filtered corpus.  Results keyed
    by url (compaction re-ids docs densely)."""
    import shutil
    import tempfile

    from docs_indexer_ray.index.compact import compact_index
    from docs_indexer_ray.index.deletes import delete_by_terms
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    tmp = tempfile.mkdtemp(prefix="dixr_compact_")
    try:
        copy = os.path.join(tmp, "idx")
        shutil.copytree(root, copy)
        delete_by_terms(copy, ["refresh"])
        out = os.path.join(tmp, "compacted")
        compact_index(copy, out)
        reader = IndexReader(out)
        hits = topk(reader, list(_BM25_TERMS), k=10)
        urls = reader.fetch_docs([int(d) for d, _ in hits], columns=["doc_id", "url"])
        url_of = dict(zip(urls["doc_id"].to_pylist(), urls["url"].to_pylist()))
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
                "url": pa.array([url_of[int(d)] for d, _ in hits], pa.string()),
            }
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def q_bm25_topk_incremental(sf_dir: str) -> pa.Table:
    """The nightly-delta flow end-to-end: base index over the url-range
    first half, ``incremental_update`` with the FULL pages stream (the
    seen half must be filtered out, not duplicated), flagship BM25 over
    the merged result — ranks keyed by url, pinned to the full-corpus
    SQL."""
    import shutil
    import tempfile

    from docs_indexer_ray.index import manifest as _mf
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.pipelines.flagship import pages_dataset
    from docs_indexer_ray.pipelines.incremental import incremental_update
    from docs_indexer_ray.query.bm25 import topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import synthetic_url_boundaries

    tmp = tempfile.mkdtemp(prefix="dixr_incr_")
    try:
        mid = synthetic_url_boundaries(sf_dir, 2, 1)[0]
        pages = pages_dataset(sf_dir)
        first_half = pages.map_batches(
            lambda t: t.filter(pc.less(t["url"], pa.scalar(mid))),
            batch_format="pyarrow",
        )
        base_root = os.path.join(tmp, "base")
        build_index(
            first_half,
            base_root,
            prefix="docs",
            field="body",
            chain="simple",
            fingerprint="half",
            num_parts=8,
        )
        out_root = os.path.join(tmp, "merged")
        man = incremental_update(base_root, pages_dataset(sf_dir), out_root,
                                 fingerprint="delta")
        reader = IndexReader(_mf.current_build(out_root))
        assert reader.n_docs == man["n_docs"]
        # the url-range split makes merged doc ids ≡ the full build's
        # (base = first-half urls in url order, delta shifted by n1) —
        # so the full-corpus bm25 SQL pins this query directly
        hits = topk(reader, list(_BM25_TERMS), k=10)
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
                "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
            }
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def q_bm25_explain(sf_dir: str) -> pa.Table:
    """OpenSearch ``_explain``: per-term BM25 score breakdown of doc 7
    for the flagship query (idf / weight are single IEEE expressions —
    bit-reproducible by the SQL oracle, unlike summed scores)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import explain
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    return explain(IndexReader(root), list(_BM25_TERMS), _MLT_DOC)


def q_term_vectors(sf_dir: str) -> pa.Table:
    """OpenSearch ``_termvectors`` for doc 7: every term of the stored
    body with its in-doc ``tf`` and index-wide ``df``."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.mlt import term_vectors
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    return term_vectors(IndexReader(root), _MLT_DOC)


def q_mm_decode_docs(sf_dir: str) -> pa.Table:
    """The multimodal decode stage over REAL corpus payloads (document
    text bytes as the opaque binary column) with the SQL-expressible
    fake decode (``dims_from="size"``, md5 checksum) — gives the
    actor-pool decode plumbing a value-hash oracle, unlike the
    synthetic-media ``mm_decode`` smoke."""
    import ray.data

    from docs_indexer_ray.ops.multimodal import decode_images

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def to_media(t: pa.Table) -> pa.Table:
        payload = pc.cast(t["text"], pa.binary())
        return pa.table(
            {
                "media_id": pc.cast(t["doc_id"], pa.int64()),
                "kind": pa.array(["image"] * t.num_rows, pa.string()),
                "payload": payload,
                "n_bytes": pc.cast(pc.binary_length(payload), pa.int64()),
            }
        )

    media = ds.map_batches(to_media, batch_format="pyarrow")
    out = _concat(decode_images(media, fake=True, dims_from="size"))
    return pa.table(
        {
            "doc_id": out["media_id"].cast(pa.int64()),
            "width": out["width"],
            "height": out["height"],
            "channels": out["channels"],
            "resized_to": out["resized_to"],
            "checksum": out["checksum"],
        }
    )


def q_facet_date_histogram(sf_dir: str) -> pa.Table:
    """OpenSearch-style date_histogram aggregation: hourly doc counts
    among docs matching ANY of the bm25 query terms (OR candidate
    set); partial counts per batch → tiny driver combine."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import date_histogram, match_doc_bitmap
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "warc_ts"])
    return date_histogram(ds, matched, ts_col="warc_ts", interval_s=3600)


def q_facet_date_histogram_month(sf_dir: str) -> pa.Table:
    """OpenSearch ``date_histogram`` with a CALENDAR interval —
    monthly doc counts among docs matching ANY of the bm25 query
    terms: the "docs per month" dashboard query.  Buckets are civil
    ``date_trunc('month', …)`` starts (variable-width months, numpy
    ``datetime64[M]`` integer month arithmetic — not epoch division),
    mirroring DuckDB exactly so the oracle replays it bit-for-bit.
    Reference analog: the ``date`` field of
    ``/root/reference/mappings/hugo.json:51-53``."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import date_histogram, match_doc_bitmap
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "warc_ts"])

    # the synthetic warc_ts spans minutes — spread docs one day apart
    # (ts + doc_id·1d) so the month histogram has real multi-bucket
    # structure at every sf; the oracle applies the same shift
    def _spread(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        base = t["warc_ts"].cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
        shifted = base + ids.astype("timedelta64[D]").astype("timedelta64[us]")
        return t.set_column(
            t.schema.get_field_index("warc_ts"),
            "warc_ts",
            pa.array(shifted, pa.timestamp("us")),
        )

    ds = ds.map_batches(_spread, batch_format="pyarrow")
    return date_histogram(ds, matched, ts_col="warc_ts", interval_s="month")


def q_facet_date_histogram_week(sf_dir: str) -> pa.Table:
    """Calendar ``week`` date_histogram (ISO Monday weeks — DuckDB
    ``date_trunc('week', …)``), same day-spread corpus as the month
    variant; completes the calendar family week/month/quarter/year."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import date_histogram, match_doc_bitmap
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "warc_ts"])

    def _spread(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        base = t["warc_ts"].cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
        shifted = base + ids.astype("timedelta64[D]").astype("timedelta64[us]")
        return t.set_column(
            t.schema.get_field_index("warc_ts"),
            "warc_ts",
            pa.array(shifted, pa.timestamp("us")),
        )

    ds = ds.map_batches(_spread, batch_format="pyarrow")
    return date_histogram(ds, matched, ts_col="warc_ts", interval_s="week")


def q_facet_auto_date_histogram(sf_dir: str) -> pa.Table:
    """OpenSearch ``auto_date_histogram``: the engine picks the
    coarsest-needed interval (fixed-seconds ladder, then calendar
    month/quarter/year) so the histogram fits ``target=10`` buckets —
    two bitmap-broadcast passes (min/max endpoints, then the chosen
    rung's histogram).  The oracle replays the LADDER SELECTION
    ITSELF as a SQL CASE over the same endpoint arithmetic, so the
    driver hash-checks both the chosen interval and the buckets."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import auto_date_histogram, match_doc_bitmap
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "warc_ts"])

    def _spread(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        base = t["warc_ts"].cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
        shifted = base + ids.astype("timedelta64[D]").astype("timedelta64[us]")
        return t.set_column(
            t.schema.get_field_index("warc_ts"),
            "warc_ts",
            pa.array(shifted, pa.timestamp("us")),
        )

    ds = ds.map_batches(_spread, batch_format="pyarrow")
    return auto_date_histogram(ds, matched, ts_col="warc_ts", target=10)


def q_facet_pipeline_siblings(sf_dir: str) -> pa.Table:
    """The SIBLING / remaining-parent pipeline aggregation family
    (serial_diff, normalize percent_of_sum, bucket_sort rank,
    avg/sum/min/max/stats_bucket with extreme-bucket keys) over the
    1-minute variant of the date_histogram + sum(body-length) parent of
    ``facet_pipeline`` — every function an O(n_buckets) reduce-side
    pass over the shared parent partial, replayed in SQL as window
    functions over the bucket CTE."""
    import pyarrow.compute as _pc

    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap, sibling_pipeline_aggs
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "warc_ts", "body"])
    ds = ds.map_batches(
        lambda t: t.append_column(
            "blen", _pc.utf8_length(t["body"]).cast(pa.int64())
        ).select(["doc_id", "warc_ts", "blen"]),
        batch_format="pyarrow",
    )
    return sibling_pipeline_aggs(
        ds, matched, ts_col="warc_ts", interval_s=60, metric_col="blen", lag=2
    )


def q_facet_pipeline(sf_dir: str) -> pa.Table:
    """OpenSearch PIPELINE aggregations (cumulative_sum / derivative /
    moving_fn avg / bucket_script) over a 10-minute date_histogram
    parent with a sum(body-length) metric; the distributed phase is
    the parent's partial groupby, the pipeline functions run on the
    reduce side over the bucket list (OpenSearch's own shape)."""
    import pyarrow.compute as _pc

    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap, pipeline_aggs
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "warc_ts", "body"])
    ds = ds.map_batches(
        lambda t: t.append_column(
            "blen", _pc.utf8_length(t["body"]).cast(pa.int64())
        ).select(["doc_id", "warc_ts", "blen"]),
        batch_format="pyarrow",
    )
    return pipeline_aggs(
        ds, matched, ts_col="warc_ts", interval_s=600, metric_col="blen", window=3
    )


def q_facet_matrix_stats(sf_dir: str) -> pa.Table:
    """OpenSearch ``matrix_stats`` aggregation over two integral
    fields of the matched docs — x = body length (chars), y = count
    of 'e' in the body: population mean/variance per field plus
    covariance and Pearson correlation, from constant-size integer
    moment partials (order-independent, bit-exact vs SQL)."""
    import pyarrow.compute as _pc

    from docs_indexer_ray.pipelines.flagship import docs_store_dataset, ensure_index
    from docs_indexer_ray.query.facets import match_doc_bitmap, matrix_stats
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    matched = match_doc_bitmap(IndexReader(root), list(_BM25_TERMS))
    ds, _ = docs_store_dataset(sf_dir, columns=["doc_id", "body"])
    ds = ds.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "x": _pc.utf8_length(t["body"]).cast(pa.int64()),
                "y": _pc.count_substring(t["body"], "e").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    return matrix_stats(ds, matched, "x", "y")


def q_bm25_topk_sharded(sf_dir: str) -> pa.Table:
    """Same query as ``bm25_topk`` but served through the doc-range-
    sharded actor fleet (``ShardedQueryService``): per-shard exact
    top-k with GLOBAL statistics + exact merge — the SQL oracle
    double-checks shard-exactness through the driver gate."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.served import ShardedQueryService

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    svc = ShardedQueryService(root, n_shards=4)
    try:
        hits = svc.topk(" ".join(_BM25_TERMS), k=10)
    finally:
        svc.shutdown()
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def q_knn_dsl_sharded(sf_dir: str) -> pa.Table:
    """Serving-tier vector search: the OpenSearch k-NN plugin's ``knn``
    DSL clause over a doc-aligned vector sidecar
    (``index/vectors.py::attach_vectors`` — ``embeddings.vec_id`` IS
    the build's dense doc id, the same alignment ``bm25_knn_rrf``
    models), served through the doc-range-sharded fleet: each shard
    holds only ITS normalized ``float32`` matrix slice (vpart
    hive-pruned read, memoized per actor) and scores ``(1 + cos)/2``
    — the OpenSearch ``cosinesimil`` space function — over its range;
    per-doc-local scores make the cross-shard top-k merge exact.  The
    SQL oracle replays the ranking with DuckDB's
    ``list_cosine_similarity`` (the (1+cos)/2 transform is monotone,
    so cosine order IS the serving order)."""
    from docs_indexer_ray.index.vectors import attach_vectors
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.served import ShardedQueryService

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    import ray.data

    attach_vectors(
        root,
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ),
        id_col="vec_id",
    )
    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    q0 = qt.filter(pc.equal(qt["vec_id"], 0))["embedding"].to_pylist()[0]
    svc = ShardedQueryService(root, n_shards=4, chain="simple")
    try:
        hits = svc.query_string(
            {"knn": {"emb": {"vector": [float(x) for x in q0], "k": 10}}},
            k=10,
        )
    finally:
        svc.shutdown()
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def q_search_page_sharded(sf_dir: str) -> pa.Table:
    """Offset pagination (OpenSearch ``from``/``size``) through the
    sharded serving tier: page 3 (``from_=20, size=10``) of the
    flagship query via ``ShardedQueryService.search`` — each shard
    ranks ``from_+k``, the exact merge slices, and the rank column
    continues at ``from_+1``.  The oracle replays the global ranking
    and takes ranks 21..30."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.served import ShardedQueryService

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    svc = ShardedQueryService(root, n_shards=4)
    try:
        t = svc.search(
            " ".join(_BM25_TERMS), k=10, fields=("url",), from_=20
        )
    finally:
        svc.shutdown()
    return t.select(["rank", "doc_id"])


def q_match_phrase_sharded(sf_dir: str) -> pa.Table:
    """Same phrase as ``match_phrase`` but over four doc-range shard
    readers: each decodes only its overlapping posting blocks
    (positions included) and the disjoint-range results concatenate.
    The fleet's DSL ``match_phrase`` query phase (``("ids",)`` op) must
    return exactly those doc ids, so the SQL oracle checks the
    DISTRIBUTED phrase path through the driver gate."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.phrase import match_phrase
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import ShardedQueryService

    _, root = ensure_index(
        sf_dir, chain="simple", field="body", store_positions=True
    )
    svc = ShardedQueryService(root, n_shards=4)
    try:
        _, _, (ids,) = svc.query_phase(
            {"match_phrase": {"body": "table hash"}}, True, ops=[("ids",)]
        )
    finally:
        svc.shutdown()
    terms = Analyzer("simple")("table hash")
    edges = np.linspace(0, IndexReader(root).n_docs, 5).astype(np.int64)
    hits = [
        hit
        for lo, hi in zip(edges[:-1], edges[1:])
        for hit in match_phrase(
            IndexReader(root, doc_range=(int(lo), int(hi))), terms
        )
    ]
    if ids.tolist() != [d for d, _ in hits]:
        raise AssertionError("fleet match_phrase ids differ from the shards'")
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in hits], pa.int64()),
            "phrase_freq": pa.array([f for _, f in hits], pa.int64()),
        }
    )


def q_query_string_sharded(sf_dir: str) -> pa.Table:
    """The ``query_string`` driver query served through the fleet
    (per-shard range-limited leaf evaluation + exact quantized merge)
    — SQL-oracled with the same replay as ``query_string``."""
    return _fleet_dsl_page(
        sf_dir, '+table -hash (merge OR slow^2) "table scan"',
        n_shards=4, positions=True,
    )


def q_dsl_range_sharded(sf_dir: str) -> pa.Table:
    """The DSL ``range`` clause on the fleet: ``bool(must: match,
    filter: range(warc_ts >= cutoff))`` — each shard evaluates the
    stored-field mask over ITS doc range only (memoized
    ``reader.stored_mask``; corpus-wide filter state never leaves the
    fleet).  ``bm25_topk_filtered``'s body and SQL, on 4 shards."""
    return _fleet_dsl_page(sf_dir, _DSL_RANGE, n_shards=4)


def q_dsl_bool_sharded(sf_dir: str) -> pa.Table:
    """The OpenSearch JSON query DSL (``query/dsl.py``) served through
    the sharded fleet: a ``bool`` body lowering to EXACTLY the
    ``query_string_sharded`` query's AST (`+table -hash (merge OR
    slow^2) "table scan"`), so it shares that entry's SQL replay —
    the DSL dict rides to the shard actors like a string and the
    quantized merge is identical."""
    dsl = {
        "bool": {
            "must": [{"match": {"body": "table"}}],
            "should": [
                {"query_string": {"query": "(merge OR slow^2)"}},
                {"match_phrase": {"body": "table scan"}},
            ],
            "must_not": [{"match": {"body": "hash"}}],
        }
    }
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4, positions=True)


def _fleet_dsl_page(sf_dir: str, dsl, *, n_shards: int,
                    positions: bool = False, k: int = 10) -> pa.Table:
    """Run one DSL body (or query_string text) through the served
    query phase → (rank, doc_id): a Ray fleet of ``n_shards`` shards,
    or with ``n_shards=0`` ONE in-process shard over the full reader
    (the REST local backend and ``search_response``)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import ShardedQueryService

    kw = {"store_positions": True} if positions else {}
    _, root = ensure_index(sf_dir, chain="simple", field="body", **kw)
    svc = (
        ShardedQueryService(root, n_shards=n_shards)
        if n_shards
        else ShardedQueryService.in_process(IndexReader(root))
    )
    try:
        hits = svc.query_string(dsl, k=k)
    finally:
        svc.shutdown()
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def q_terms_set_covering(sf_dir: str) -> pa.Table:
    """Lucene CoveringQuery (``terms_set`` with a constant
    minimum_should_match) through the 4-shard fleet: docs containing
    ≥ 3 of the flagship terms, scored as the SUM of the present
    terms' BM25 contributions (CoveringQuery sums its matching
    sub-scorers).  SQL replays coverage count + score bit-exactly."""
    dsl = {"terms_set": {"body": {
        "terms": list(_BM25_TERMS), "minimum_should_match": 3,
    }}}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4)


def q_distance_feature(sf_dir: str) -> pa.Table:
    """OpenSearch ``distance_feature`` recency boost through the
    4-shard fleet: BM25('table') + 5 × pivot/(pivot + |warc_ts −
    origin|) with a 1-hour pivot — the canonical newest-first nudge.
    Per-doc-local stored-column arithmetic ⇒ exact shard merge; SQL
    replays the epoch-microsecond proximity term bit-exactly."""
    dsl = {"bool": {
        "must": [{"match": {"body": "table"}}],
        "should": [{"distance_feature": {
            "field": "warc_ts", "origin": "2025-01-01T00:30:00",
            "pivot": "1h", "boost": 5.0,
        }}],
    }}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4)


def q_dsl_dismax(sf_dir: str) -> pa.Table:
    """Lucene DisjunctionMaxQuery through the fleet: per doc the best
    of (match merge, match slow, phrase "table scan") plus 0.3 × the
    other matching legs — per-doc-local over dense child evals, so the
    cross-shard quantized merge is exact.  SQL replays all three legs
    and the greatest+tie fold bit-exactly."""
    dsl = {"dis_max": {
        "queries": [
            {"match": {"body": "merge"}},
            {"match": {"body": "slow"}},
            {"match_phrase": {"body": "table scan"}},
        ],
        "tie_breaker": 0.3,
    }}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4, positions=True)


def q_dsl_ids_matchall(sf_dir: str) -> pa.Table:
    """``match_all`` + ``ids`` on the fleet: every live doc scores the
    1.0 floor, docs containing 'table' add BM25, ids {3,7,11} add a
    2.5 constant — the top page mixes all three score sources and the
    all-docs tie tail breaks doc-asc (the quantized rank contract)."""
    dsl = {"bool": {
        "must": [{"match_all": {}}],
        "should": [
            {"ids": {"values": [3, 7, 11], "boost": 2.5}},
            {"match": {"body": "table"}},
        ],
    }}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4)


def q_dsl_constscore_range(sf_dir: str) -> pa.Table:
    """``constant_score`` over a stored-field ``range`` filter, as a
    should-leg beside a scoring match: hits in the warc_ts window get
    a flat +0.5 (OpenSearch constant-score semantics — NOT the
    filter≡must constant this engine's bool.filter applies), which
    re-orders the page around the window boundary.  Each shard builds
    only ITS slice of the stored mask (``reader.stored_mask``)."""
    dsl = {"bool": {
        "must": [{"match": {"body": " ".join(_BM25_TERMS)}}],
        "should": [{"constant_score": {
            "filter": {"range": {"warc_ts": {"gte": "2025-01-01T00:05:00"}}},
            "boost": 0.5,
        }}],
    }}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4)


def q_dsl_phrase_prefix(sf_dir: str) -> pa.Table:
    """``match_phrase_prefix`` "table s" on the fleet: the prefix
    expands against the GLOBAL term dictionary (identical on every
    shard — scan/slow/small/sort/spark/stream here), each completion
    scores as its own phrase pseudo-term and a doc sums over the
    completions it contains (the documented MultiPhraseQuery
    divergence).  The SQL oracle derives the same expansion set with
    ``LIKE 's%'`` over the token stream."""
    dsl = {"match_phrase_prefix": {
        "body": {"query": "table s", "max_expansions": 50}
    }}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4, positions=True)


def q_dsl_match_bool_prefix(sf_dir: str) -> pa.Table:
    """``match_bool_prefix`` "merge s" on the fleet: 'merge' scores
    BM25, the trailing token is a constant-score prefix wildcard
    (Lucene's multi-term rewrite — +1.0 for any doc holding an
    s-prefixed term), membership is the should-union."""
    dsl = {"match_bool_prefix": {"body": "merge s"}}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4)


def q_dsl_boosting_regexp(sf_dir: str) -> pa.Table:
    """DSL ``boosting`` demotion with a ``regexp`` negative: positive
    BM25 over the flagship terms, demoted ×0.25 wherever a term
    matches ``h.*h`` (→ 'hash'); regexp expansion runs on the term
    dictionary (trigram-accelerated), RE2-compatible so DuckDB's
    ``regexp_full_match`` replays the match set."""
    dsl = {"boosting": {
        "positive": {"match": {"body": " ".join(_BM25_TERMS)}},
        "negative": {"regexp": {"body": "h.*h"}},
        "negative_boost": 0.25,
    }}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4)


def q_simple_qs_sharded(sf_dir: str) -> pa.Table:
    """The LENIENT ``simple_query_string`` language
    (``query/simpleqs.py`` — Lucene SimpleQueryParser: never 400s)
    through the 4-shard fleet: ``merge +slow | "table scan" -hash``
    parses to should( must(merge, slow), phrase ) · must_not(hash)
    — '+' binds tighter than '|', and a bare '-clause' joins the
    GROUP's must_not (the Lucene rule: it excludes docs from every
    leg, same as the query_string parser's '-').  Both OR legs, the
    phrase pseudo-term and the group exclusion replay bit-exactly in
    SQL."""
    dsl = {"simple_query_string": {
        "query": 'merge +slow | "table scan" -hash'
    }}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4, positions=True)


def q_dsl_function_score_sharded(sf_dir: str) -> pa.Table:
    """The DSL ``function_score`` (exp recency decay) through the
    4-shard fleet: the ``function_score`` entry's body on the
    ``_FuncScore`` AST leaf — per-shard decay weights come from each
    shard's memoized ``stored_column`` slice and the quantized merge
    is exact, so it shares that entry's SQL replay."""
    return _fleet_dsl_page(sf_dir, _DSL_FUNCTION_SCORE, n_shards=4)


def q_dsl_mlt_sharded(sf_dir: str) -> pa.Table:
    """DSL ``more_like_this`` through the 4-shard fleet: same source
    doc and term budget as the SQL-oracled ``more_like_this`` entry,
    lowered from a JSON body onto the ``_MoreLikeThis`` AST leaf —
    term selection reads the shared docs store with GLOBAL statistics,
    so every shard expands identically and the quantized merge matches
    that entry's replay (minus its score column: the AST surface ranks
    on the quantized key, so only rank+doc_id are emitted)."""
    dsl = {"more_like_this": {"like": [{"_id": _MLT_DOC}],
                              "max_query_terms": 25}}
    return _fleet_dsl_page(sf_dir, dsl, n_shards=4)


def q_search_sort_sharded(sf_dir: str) -> pa.Table:
    """The OpenSearch ``sort`` clause on the fleet (query/sortq.py):
    page 2 (from_=3) of the flagship match set ordered by the stored
    ``warc_ts`` DESC — each shard ranks its top-(from_+k) over its
    memoized ``stored_column`` slice, the page-scale re-sort merge is
    exact, and the fetch phase routes per owning shard.  The response
    carries the ordering key (``sort_key``); hits score 0.0
    (OpenSearch ``_score: null`` under field sort)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.served import ShardedQueryService

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    svc = ShardedQueryService(root, n_shards=4)
    try:
        t = svc.search(
            " ".join(_BM25_TERMS), k=10, from_=3, fields=("url",),
            syntax=False, sort=("warc_ts", "desc"),
        )
    finally:
        svc.shutdown()
    return t.select(["rank", "doc_id", "url", "sort_key"])


def q_facet_terms_served(sf_dir: str) -> pa.Table:
    """The ``terms`` aggregation served by the SHARD FLEET
    (``ShardedQueryService.query_phase`` with one ``terms`` op: per-shard
    matched counts over memoized docs-column slices, exact sum merge) — same SQL
    replay as the Ray-Data ``facet_terms`` path, so the driver gate
    checks both implementations against one oracle."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.served import ShardedQueryService

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    svc = ShardedQueryService(root, n_shards=4)
    try:
        return svc.query_phase(
            " ".join(_BM25_TERMS), ops=[("terms", "lang")]
        )[2][0]
    finally:
        svc.shutdown()


def q_match_phrase(sf_dir: str) -> pa.Table:
    """Exact phrase query over a positions build (the reference's
    with_positions_offsets term vectors, mappings/hugo.json:6,48,60):
    every doc containing "table hash" consecutively + occurrence count."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.phrase import match_phrase
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(
        sf_dir, chain="simple", field="body", store_positions=True
    )
    hits = match_phrase(IndexReader(root), ["table", "hash"])
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in hits], pa.int64()),
            "phrase_freq": pa.array([f for _, f in hits], pa.int64()),
        }
    )


def q_intervals_allof(sf_dir: str) -> pa.Table:
    """`intervals.all_of` (ordered) through the extent-algebra engine
    (`query/extents.py`, round 5): docs holding an ordered chain —
    a "table … scan" interval followed strictly after by "merge".
    With unlimited gaps the doc-level semantics replay in SQL as a
    positional triple-EXISTS (any p1 < p2 < p3 witness ⇔ a greedy
    minimal chain witness — greedy only shrinks ends)."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.dsl import dsl_to_node
    from docs_indexer_ray.query.qstring import _eval_range
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(
        sf_dir, chain="simple", field="body", store_positions=True
    )
    node = dsl_to_node({"intervals": {"body": {"all_of": {"intervals": [
        {"match": {"query": "table scan", "ordered": True}},
        {"match": {"query": "merge"}},
    ], "ordered": True}}}}, Analyzer("simple"))
    _, match = _eval_range(IndexReader(root), node)
    return pa.table({"doc_id": pa.array(np.flatnonzero(match), pa.int64())})


def q_intervals_filtered(sf_dir: str) -> pa.Table:
    """`intervals` filter rules through the extent algebra: the
    minimal "table … merge" chains filtered by CONTAINING "scan" and,
    second column, by NOT_CONTAINING "scan".  The SQL replay leans on
    the minimal-chain characterization (greedy end per start, then
    max-start per end = the pruned minimal set) — the `containing`
    relation is NOT witness-hereditary, so the oracle must filter the
    true minimal set, unlike `not_containing`/`all_of`."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.dsl import dsl_to_node
    from docs_indexer_ray.query.qstring import _eval_range
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(
        sf_dir, chain="simple", field="body", store_positions=True
    )
    reader = IndexReader(root)
    an = Analyzer("simple")
    out = {}
    for col, rel in (("containing", "containing"),
                     ("not_containing", "not_containing")):
        node = dsl_to_node({"intervals": {"body": {"match": {
            "query": "table merge", "ordered": True,
            "filter": {rel: {"match": {"query": "scan"}}}}}}}, an)
        _, match = _eval_range(reader, node)
        out[col] = np.flatnonzero(match)
    n = reader.n_docs
    return pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "containing": pa.array(np.isin(np.arange(n), out["containing"])),
        "not_containing": pa.array(
            np.isin(np.arange(n), out["not_containing"])
        ),
    })


def q_span_first(sf_dir: str) -> pa.Table:
    """Lucene SpanFirstQuery: docs where "table" occurs within the
    first 5 positions of the body, with the early-occurrence count
    (`query/phrase.py::span_first`)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.phrase import span_first
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(
        sf_dir, chain="simple", field="body", store_positions=True
    )
    hits = span_first(IndexReader(root), "table", end=5)
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in hits], pa.int64()),
            "n_early": pa.array([c for _, c in hits], pa.int64()),
        }
    )


def q_span_near(sf_dir: str) -> pa.Table:
    """Lucene SpanNearQuery(inOrder=false): docs where "table",
    "scan" and "merge" all occur within an unordered window of
    width ≤ 3 + slop(4), with the minimal covering window width
    (`query/phrase.py::span_near`)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.phrase import span_near
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(
        sf_dir, chain="simple", field="body", store_positions=True
    )
    hits = span_near(IndexReader(root), ["table", "scan", "merge"], slop=4)
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in hits], pa.int64()),
            "min_window": pa.array([w for _, w in hits], pa.int64()),
        }
    )


def q_rescore(sf_dir: str) -> pa.Table:
    """OpenSearch ``rescore``: flagship BM25 top-50 window re-ranked
    by a phrase-proximity boost (``+ 2·ln(1+pf)`` for "table hash"),
    top-10 out (`query/phrase.py::rescore_topk`)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.phrase import rescore_topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(
        sf_dir, chain="simple", field="body", store_positions=True
    )
    hits = rescore_topk(
        IndexReader(root), list(_BM25_TERMS), ["table", "hash"],
        window=50, weight=2.0, k=10,
    )
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        }
    )


def _pagerank_sql(iters: int) -> str:
    """Unroll the damped power iteration as chained CTEs — the exact
    float shapes of `ops/pagerank.py` ((1.0-0.85)/n base, rank/2 edge
    contributions, COALESCE 0 for in-degree-0 nodes)."""
    parts = [
        "WITH nn AS (SELECT count(*) AS n FROM documents)",
        "nodes AS (SELECT doc_id AS node FROM documents)",
        "e AS (SELECT doc_id AS src, (doc_id*doc_id+3) % (SELECT n FROM nn) AS dst FROM documents"
        " UNION ALL SELECT doc_id, (7*doc_id+3) % (SELECT n FROM nn) FROM documents)",
        "r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS rank FROM nodes)",
    ]
    for i in range(iters):
        parts.append(
            f"r{i + 1} AS (SELECT nodes.node, "
            f"(1.0 - 0.85) / (SELECT n FROM nn) + 0.85 * COALESCE(c.s, 0.0) AS rank "
            f"FROM nodes LEFT JOIN (SELECT e.dst AS node, SUM(r{i}.rank / 2) AS s "
            f"FROM e JOIN r{i} ON r{i}.node = e.src GROUP BY e.dst) c "
            f"ON c.node = nodes.node)"
        )
    return (
        ",\n".join(parts)
        + f"\nSELECT CAST(node AS BIGINT) AS node, round(rank, 9) AS pr "
        f"FROM r{iters} ORDER BY node"
    )


def q_pagerank(sf_dir: str) -> pa.Table:
    """Distributed PageRank (10 damped power iterations, each ONE
    hash shuffle — `ops/pagerank.py`) over a planted deterministic
    link graph: doc ``d`` links to ``(d²+3) % N`` and ``(7d+3) % N``
    (out-degree exactly 2, skewed in-degree).  Ranks quantized to
    1e-9; the oracle unrolls the same 10 iterations as chained
    CTEs."""
    from docs_indexer_ray.ops.pagerank import pagerank

    n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows

    def edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([d, d])),
                "dst": pa.array(
                    np.concatenate([(d * d + 3) % n, (7 * d + 3) % n])
                ),
            }
        )

    import ray.data

    eds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(edges, batch_format="pyarrow")
    out = pagerank(eds, n_nodes=n, iterations=10, damping=0.85)
    pr = np.array([round(float(v), 9) for v in out["rank"].to_pylist()])
    return pa.table({"node": out["node"], "pr": pa.array(pr, pa.float64())})


def q_lm_perplexity(sf_dir: str) -> pa.Table:
    """CCNet-style quality filter (`ops/lm.py`): bigram LM trained in
    one counting shuffle over `documents.text`, then every doc scored
    streaming against the broadcast model — per-doc add-one-smoothed
    avg negative log-likelihood (1e-9-quantized) and perplexity
    (1e-6).  Docs with <2 tokens drop (no bigram evidence)."""
    import ray.data

    from docs_indexer_ray.ops.lm import perplexity_scores, train_bigram_lm

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    model = train_bigram_lm(docs, text_col="text")
    out = perplexity_scores(docs, model).sort("doc_id")
    return _concat(out)


def q_ccnet_buckets(sf_dir: str) -> pa.Table:
    """CCNet head/middle/tail perplexity split (Wenzek et al. 2020):
    bigram-LM perplexity per doc, tertile cutoffs from the 1/16
    md5-hash sample (CCNet's own sampled-threshold procedure),
    streaming value-based bucket assignment (``ops/lm.py::
    ppl_buckets``)."""
    import ray.data

    from docs_indexer_ray.ops.lm import ppl_buckets, train_bigram_lm

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    model = train_bigram_lm(docs, text_col="text")
    return ppl_buckets(docs, model)


def q_textcat(sf_dir: str) -> pa.Table:
    """Trained char-trigram language classifier (Cavnar & Trenkle
    1994, TextCat): top-100 per-label profiles from one counting
    shuffle, streaming out-of-place-distance prediction — all-integer
    math, bit-exact vs SQL (``ops/textcat.py``; see its honesty note
    on the synthetic labels)."""
    import ray.data

    from docs_indexer_ray.ops.textcat import fit_textcat, textcat_predict

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    model = fit_textcat(docs, label_col="lang")
    return _concat(textcat_predict(docs, model)).sort_by("doc_id")


def q_percolate(sf_dir: str) -> pa.Table:
    """Percolator (reverse search): four registered conjunctive term
    queries matched against every incoming doc — the alerting
    primitive (`query/percolate.py`; stored-query set broadcast once,
    corpus streams)."""
    from docs_indexer_ray.query.percolate import percolate

    stored = {
        1: ["table", "scan"],
        2: ["merge", "slow"],
        3: ["spark", "stream"],
        4: ["table", "scan", "merge", "slow"],
    }
    out = percolate(_documents_ds(sf_dir), stored, text_col="text")
    return _as_i64(_concat(out), ["doc_id", "query_id"]).sort_by(
        [("doc_id", "ascending"), ("query_id", "ascending")]
    )


def q_rerank_ce(sf_dir: str) -> pa.Table:
    """Retrieve→rerank stack: BM25 top-50 window re-ordered by the
    cross-encoder stage (`query/rerank.py`; deterministic
    token-Jaccard stand-in, `fake=True` — the real model would ride
    the same actor-pool stage).  ``ce`` is a single int/int division,
    so the oracle hash-matches it."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.rerank import CrossEncoderStub, rerank_topk

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    hits = rerank_topk(
        IndexReader(root),
        list(_BM25_TERMS),
        CrossEncoderStub(fake=True),
        window=50,
        k=10,
    )
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
            "ce": pa.array([s for _, s in hits], pa.float64()),
        }
    )


def q_match_phrase_slop(sf_dir: str) -> pa.Table:
    """Proximity phrase (``match_phrase`` + ``slop: 1``, ordered
    span-near): docs where "table" is followed by "hash" with at most
    one intervening token, with the count of matching start
    positions."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.phrase import match_phrase_slop
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(
        sf_dir, chain="simple", field="body", store_positions=True
    )
    hits = match_phrase_slop(IndexReader(root), ["table", "hash"], slop=1)
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in hits], pa.int64()),
            "phrase_freq": pa.array([f for _, f in hits], pa.int64()),
        }
    )


def q_bloom_url_filter(sf_dir: str) -> pa.Table:
    """Incremental-crawl admission via a Bloom filter: build the
    seen-set over every existing doc url (streaming per-block
    partials, OR-merge), probe a half-seen/half-new url batch with
    ``filter_unseen``.  Deterministic (fixed hashes) but FP-lossy by
    design, so rows-only: pytest pins zero false negatives and the
    admission rate."""
    import pyarrow.compute as _pc
    import ray.data

    from docs_indexer_ray.ops.sketch import bloom_from_dataset, filter_unseen

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )

    def to_url(t: pa.Table, shift: int = 0) -> pa.Table:
        ids = _pc.add(t["doc_id"].cast(pa.int64()), pa.scalar(shift, pa.int64()))
        padded = _pc.utf8_lpad(_pc.cast(ids, pa.string()), 6, "0")
        url = _pc.binary_join_element_wise(
            pa.array(["https://docs.test/d/"] * t.num_rows),
            padded,
            pa.array(["/"] * t.num_rows),
            "",
        )
        return pa.table({"url": url})

    seen_ds = ds.map_batches(to_url, batch_format="pyarrow")
    n_seen = seen_ds.count()
    bloom = bloom_from_dataset(seen_ds, "url", capacity=max(n_seen, 1), fp_rate=0.01)

    probe = ds.map_batches(
        lambda t: pa.concat_tables([to_url(t), to_url(t, 1_000_000)]),
        batch_format="pyarrow",
    )
    n_probed = probe.count()
    admitted = filter_unseen(probe, "url", bloom)
    n_admitted = admitted.count()
    return pa.table(
        {
            "n_seen": pa.array([n_seen], pa.int64()),
            "n_probed": pa.array([n_probed], pa.int64()),
            "n_new": pa.array([n_probed - n_seen], pa.int64()),
            "n_admitted": pa.array([n_admitted], pa.int64()),
        }
    )


def q_keyword_date_filter(sf_dir: str) -> pa.Table:
    """Keyword + date-range predicate over the docs table (D6/D7)."""
    from docs_indexer_ray.pipelines.flagship import docs_store_dataset

    ds, _ = docs_store_dataset(
        sf_dir, columns=["doc_id", "url", "warc_ts", "breadcrumb_1"]
    )
    cutoff = pa.scalar(np.datetime64("2025-01-01T00:05:00", "us"), pa.timestamp("us"))

    def flt(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t["warc_ts"], cutoff), pc.equal(t["breadcrumb_1"], "d")
        )
        t = t.filter(keep)
        return t.select(["doc_id", "url"])

    return _as_i64(_concat(ds.map_batches(flt, batch_format="pyarrow")), ["doc_id"])


# ---- rows-only (non-SQL-expressible) queries -----------------------------

def q_bm25_topk_english(sf_dir: str) -> pa.Table:
    """The flagship: english analyzer over the catch-all text field."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import wand_topk
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="english", field="text")
    reader = IndexReader(root)
    an = Analyzer("english")
    rows_q, rows_r, rows_d, rows_s = [], [], [], []
    for q in ("table scan merge slow", "customer order data", "refresh"):
        for rank, (doc_id, score) in enumerate(wand_topk(reader, an(q), k=10), 1):
            rows_q.append(q)
            rows_r.append(rank)
            rows_d.append(int(doc_id))
            rows_s.append(float(score))
    return pa.table(
        {
            "query": pa.array(rows_q, pa.string()),
            "rank": pa.array(rows_r, pa.int64()),
            "doc_id": pa.array(rows_d, pa.int64()),
            "score": pa.array(rows_s, pa.float64()),
        }
    )


def q_minhash_pairs(sf_dir: str) -> pa.Table:
    """MinHash-LSH near-dup pairs, SQL-oracled end-to-end (round 5):
    the driver surface runs with ``hasher="md5"`` so the 64-bit base
    shingle hash replays in DuckDB (``('0x'||substr(md5(s),1,16))::
    UBIGINT``); the permutation family (RandomState(42) affine maps,
    exact mod-2^64 via HUGEINT), the 16-band FNV-1a fold, banded
    candidate generation and the 64-perm est_jaccard all replay
    exactly — candidate-pair SET and estimates hash-checked, not just
    rows.  The crc production hasher stays the library default
    (pytest-pinned)."""
    from docs_indexer_ray.ops.dedup import minhash_lsh_pairs

    t = _concat(minhash_lsh_pairs(
        _documents_with_copies_ds(sf_dir), threshold=0.5, hasher="md5"
    ))
    return _as_i64(t.select(["a", "b", "est_jaccard"]), ["a", "b"])


def q_simhash_pairs(sf_dir: str) -> pa.Table:
    """SimHash near-dup pairs, SQL-oracled end-to-end (round 5): with
    ``hasher="md5"`` the per-token 64-lane ±1 contributions, the
    count-weighted lane sums, the sign bits, the 4×16-bit band
    blocking AND the exact Hamming verification all replay in DuckDB
    (bit ops + ``bit_count``); the crc production hasher stays the
    library default (pytest-pinned)."""
    from docs_indexer_ray.ops.dedup import simhash_pairs

    t = _concat(simhash_pairs(
        _documents_with_copies_ds(sf_dir), max_hamming=3, hasher="md5"
    ))
    return _as_i64(t, ["a", "b", "hamming"])


def q_embedding_dups(sf_dir: str) -> pa.Table:
    """Near-dup vectors (cosine ≥ 0.95) with planted exact copies at
    vec_id+1000000 for vec_id%7==0 (random vectors alone have none)."""
    import ray.data

    from docs_indexer_ray.ops.ann import embedding_dup_pairs

    base = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def shift(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % 7 == 0))
        return t.set_column(
            t.schema.get_field_index("vec_id"), "vec_id", pc.add(t["vec_id"], 1000000)
        )

    ds = base.union(base.map_batches(shift, batch_format="pyarrow"))
    t = _concat(embedding_dup_pairs(ds, threshold=0.95))
    if t.num_rows == 0:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    return _as_i64(t.select(["a", "b"]), ["a", "b"])


def q_embedding_dups_exact(sf_dir: str) -> pa.Table:
    """EXACT all-pairs cosine near-dup reference (``ops/ann.py::
    embedding_dup_pairs_exact``) over the same planted-copy set as
    ``embedding_dups`` — SQL-oracled, and the recall pin for the LSH
    variant (see ``tests/test_entry.py``)."""
    import ray.data

    from docs_indexer_ray.ops.ann import embedding_dup_pairs_exact

    base = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def shift(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % 7 == 0))
        return t.set_column(
            t.schema.get_field_index("vec_id"), "vec_id", pc.add(t["vec_id"], 1000000)
        )

    ds = base.union(base.map_batches(shift, batch_format="pyarrow"))
    t = _concat(embedding_dup_pairs_exact(ds, threshold=0.95))
    if t.num_rows == 0:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    return _as_i64(t.select(["a", "b"]), ["a", "b"]).sort_by(
        [("a", "ascending"), ("b", "ascending")]
    )


def q_semdedup(sf_dir: str) -> pa.Table:
    """SemDeDup (Abbas et al. 2023): k-means clusters + in-cluster
    cosine dedup over the planted-copy embedding set → removed
    ``(vec_id, cluster)`` rows.  Non-SQL (k-means assignment);
    pytest-pinned against the exact all-pairs reference
    (``test_entry.py::test_semdedup_vs_exact_pairs``)."""
    import ray.data

    from docs_indexer_ray.ops.ann import semdedup

    base = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def shift(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % 7 == 0))
        return t.set_column(
            t.schema.get_field_index("vec_id"), "vec_id", pc.add(t["vec_id"], 1000000)
        )

    ds = base.union(base.map_batches(shift, batch_format="pyarrow"))
    t = _concat(semdedup(ds, threshold=0.95))
    if t.num_rows == 0:
        return pa.table(
            {"vec_id": pa.array([], pa.int64()), "cluster": pa.array([], pa.int64())}
        )
    return _as_i64(t, ["vec_id", "cluster"]).sort_by("vec_id")


def q_knn_lsh(sf_dir: str) -> pa.Table:
    """LSH-bucketed ANN, SQL-oracled end-to-end (round 5): with
    integer-quantized embeddings and the ±1 Walsh–Hadamard plane
    family (``plane_kind="hadamard"``) every sign dot product is an
    exact integer, so bucket assignment AND the in-bucket exact-cosine
    ranking both replay in DuckDB (``bit_count`` parity + the
    ``knn_cosine`` ranking idiom).  The Gaussian production planes
    stay the library default (bucket-subset property pytest-pinned in
    ``test_ops.py::test_knn_lsh_subset_and_self_bucket``)."""
    import ray.data

    from docs_indexer_ray.ops.ann import knn_lsh

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qsel = qt.filter(pc.less(qt["vec_id"], 5))
    queries = np.floor(
        np.array(qsel["embedding"].to_pylist(), np.float64) * 1000.0 + 0.5
    )
    qids = qsel["vec_id"].to_numpy(zero_copy_only=False)
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(_quantize_embeddings_tbl, batch_format="pyarrow")
    return _concat(knn_lsh(ds, queries, qids, k=5, plane_kind="hadamard"))


def q_knn_ivf(sf_dir: str) -> pa.Table:
    import ray.data

    from docs_indexer_ray.ops.ann import knn_ivf

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = qt.filter(pc.less(qt["vec_id"], 5))
    queries = np.array(qt["embedding"].to_pylist(), np.float64)
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return _concat(knn_ivf(ds, queries, qids, k=5, n_centroids=16, n_probe=4))


def q_knn_pq(sf_dir: str) -> pa.Table:
    """Product-quantization ANN (Jégou et al. 2011): 8 bytes/vector
    (vs 256 B float32), ADC lookup-table scoring over the codes
    Dataset.  Rows-only: the per-subspace k-means training is non-SQL;
    recall vs the SQL-oracled ``knn_cosine`` is pinned in pytest."""
    import ray.data

    from docs_indexer_ray.ops.pq import knn_pq, pq_encode, train_pq

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = qt.filter(pc.less(qt["vec_id"], 5))
    queries = np.array(qt["embedding"].to_pylist(), np.float64)
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    cb = train_pq(ds, m=8, ks=256, train_sample=4096)
    return _concat(
        knn_pq(
            pq_encode(ds, cb), cb, queries, qids, k=5,
            refine_ds=ds, refine_factor=4,
        )
    )


def q_knn_ivfpq(sf_dir: str) -> pa.Table:
    """IVF-PQ ANN (FAISS IVFx,PQy): coarse cells prune candidates,
    residual PQ codes score them (12 B/vector of index state), exact
    refine re-ranks the shortlist.  Rows-only (k-means); recall pinned
    vs the SQL-oracled ``knn_cosine`` in pytest."""
    import ray.data

    from docs_indexer_ray.ops.pq import ivfpq_encode, knn_ivfpq, train_ivfpq

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = qt.filter(pc.less(qt["vec_id"], 5))
    queries = np.array(qt["embedding"].to_pylist(), np.float64)
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    coarse, cb = train_ivfpq(ds, n_centroids=16, m=8, ks=256, train_sample=4096)
    return _concat(
        knn_ivfpq(
            ivfpq_encode(ds, coarse, cb), coarse, cb, queries, qids,
            k=5, n_probe=8, refine_ds=ds, refine_factor=4,
        )
    )


def q_kmeans_clusters(sf_dir: str) -> pa.Table:
    """Distributed full-corpus Lloyd k-means + streaming assignment
    (cluster-balanced curation primitive).  Rows-only: iterative
    k-means is non-SQL; the per-block-moment loop is pinned against a
    single-process numpy Lloyd in pytest."""
    import ray.data

    from docs_indexer_ray.ops.cluster import assign_clusters, fit_kmeans

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    cent = fit_kmeans(ds, n_clusters=8, iters=4, train_sample=2048)
    t = _concat(assign_clusters(ds, cent))
    return _as_i64(t, ["vec_id", "cluster"]).sort_by("vec_id").drop_columns(["sim"])


def q_trigram_suggest(sf_dir: str) -> pa.Table:
    """Phrase suggester (D2): most frequent shingles extending 'table'."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="trigram", field="body")
    reader = IndexReader(root)
    top = reader.prefix_terms("table ", limit=5)
    return pa.table(
        {
            "shingle": pa.array([t for t, _ in top], pa.string()),
            "df": pa.array([int(d) for _, d in top], pa.int64()),
        }
    )


def q_reverse_suggest(sf_dir: str) -> pa.Table:
    """Leading-wildcard suggester (D3): terms ending in 'ow'."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="reverse", field="body")
    reader = IndexReader(root)
    top = reader.prefix_terms("wo", limit=10)  # reversed suffix
    return pa.table(
        {
            "term": pa.array([t[::-1] for t, _ in top], pa.string()),
            "df": pa.array([int(d) for _, d in top], pa.int64()),
        }
    )


def q_did_you_mean(sf_dir: str) -> pa.Table:
    """Phrase suggester (the reference's OpenSearch 'did you mean'
    surface, common.py:10-27): misspelled flagship query → corrected
    phrase candidates ranked by trigram similarity then df.

    SQL-oracled end-to-end (round 5) over the SIMPLE chain, whose
    vocabulary is the `_toks` idiom DuckDB can rebuild: the oracle
    replays the padded-trigram Jaccard candidate generation, the
    (sim desc, df desc, term) top-3 ranking, the best-plus-single-
    alternate phrase beam, the seen-set dedup and the product scores.
    The oracle covers the trigram leg only — at both driver scales
    every misspelled token has trigram candidates, so the bounded
    Damerau fallback never fires (that leg stays pinned by
    `test_windows_highlight.py`'s transposition cases, as is the
    english-chain stemmed-vocabulary path)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.suggest import Suggester

    _, root = ensure_index(sf_dir, chain="simple", field="body")
    sug = Suggester(IndexReader(root))
    rows_q, rows_s, rows_sc = [], [], []
    for q in ("tabel scan merje slow", "custmer order data"):
        for phrase, score in sug.suggest(q):
            rows_q.append(q)
            rows_s.append(phrase)
            rows_sc.append(float(score))
    return pa.table(
        {
            "query": pa.array(rows_q, pa.string()),
            "suggestion": pa.array(rows_s, pa.string()),
            "score": pa.array(rows_sc, pa.float64()),
        }
    )


def q_mm_decode(sf_dir: str) -> pa.Table:
    import ray.data

    from docs_indexer_ray.ops.multimodal import decode_images, synth_media_table

    ds = ray.data.from_arrow(synth_media_table(64))
    return _concat(decode_images(ds, fake=True))


def q_mm_decode_dims(sf_dir: str) -> pa.Table:
    """The SQL-checkable slice of the decode stage: the
    ``dims_from="size"`` variant's dimensions are pure arithmetic on
    the payload byte length, so DuckDB replays the whole actor-pool
    stage minus the md5 (DuckDB's md5 is VARCHAR-only; the checksum
    column stays pinned by ``mm_decode``'s pytest oracle)."""
    import ray.data

    from docs_indexer_ray.ops.multimodal import decode_images, synth_media_table

    ds = ray.data.from_arrow(synth_media_table(64))
    out = _concat(decode_images(ds, fake=True, dims_from="size"))
    return pa.table(
        {
            "media_id": out["media_id"].cast(pa.int64()),
            "width": out["width"].cast(pa.int64()),
            "height": out["height"].cast(pa.int64()),
            "channels": out["channels"].cast(pa.int64()),
            "resized_to": out["resized_to"].cast(pa.int64()),
        }
    ).sort_by("media_id")


def q_mm_embed_knn(sf_dir: str) -> pa.Table:
    """Full multimodal pipeline shape: media → actor-pool embed stage
    (deterministic fake model) → exact cosine kNN over the produced
    embedding column.  Exercises the decode→feature-extract→ANN
    composition end-to-end."""
    import ray.data

    from docs_indexer_ray.ops.ann import knn_cosine
    from docs_indexer_ray.ops.multimodal import (
        ImageEmbedStub,
        embed_images,
        synth_media_table,
    )

    media = synth_media_table(64)
    ds = embed_images(ray.data.from_arrow(media), dim=16, fake=True)
    q_rows = ImageEmbedStub(dim=16, fake=True)(media.slice(0, 3))
    queries = np.array(q_rows["embedding"].to_pylist(), np.float64)
    qids = q_rows["media_id"].to_numpy(zero_copy_only=False)
    out = knn_cosine(ds, queries, qids, k=5, id_col="media_id")
    return _concat(out)


def q_mm_frames(sf_dir: str) -> pa.Table:
    """Video frame sampling: one media row → N frame rows (actor-pool
    flat-map shape, deterministic fake demux)."""
    import ray.data

    from docs_indexer_ray.ops.multimodal import sample_frames, synth_media_table

    ds = ray.data.from_arrow(synth_media_table(48, kind="video"))
    return _concat(sample_frames(ds, every_n=4, fake=True)).sort_by(
        [("media_id", "ascending"), ("frame", "ascending")]
    )


def q_window_agg(sf_dir: str) -> pa.Table:
    """Tumbling 1h windows over the events log (partial-agg combiner →
    tiny shuffle).  ``sum_v1000`` sums FLOOR(value*1000) as integers so
    the oracle comparison is exact (float sum order differs)."""
    import ray.data

    from docs_indexer_ray.ops.windows import tumbling_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def int_value(t: pa.Table) -> pa.Table:
        v = np.floor(t["value"].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        return t.set_column(t.schema.get_field_index("value"), "value", pa.array(v))

    agg = tumbling_window(ds.map_batches(int_value, batch_format="pyarrow"))
    t = _concat(agg)
    t = t.rename_columns(
        ["user_id", "window", "n_events", "sum_v1000"]
    )
    return _as_i64(t, ["user_id", "window", "n_events", "sum_v1000"])


def q_window_hopping(sf_dir: str) -> pa.Table:
    """Hopping 1h/15min windows (overlapping): combiner explodes events
    to their covering windows INSIDE the partial agg, shuffle carries
    (key, window) partials only."""
    import ray.data

    from docs_indexer_ray.ops.windows import hopping_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def int_value(t: pa.Table) -> pa.Table:
        v = np.floor(t["value"].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        return t.set_column(t.schema.get_field_index("value"), "value", pa.array(v))

    agg = hopping_window(
        ds.map_batches(int_value, batch_format="pyarrow"), size_s=3600, hop_s=900
    )
    t = _concat(agg)
    t = t.rename_columns(["user_id", "window", "n_events", "sum_v1000"])
    return _as_i64(t, ["user_id", "window", "n_events", "sum_v1000"])


def q_topk_per_group(sf_dir: str) -> pa.Table:
    """Top-3 events per event_type by integerized value (deterministic
    tie-break on user_id desc) — partial top-k before the shuffle."""
    import ray.data

    from docs_indexer_ray.ops.windows import topk_per_group

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id", "value"]
    )

    def project(t: pa.Table) -> pa.Table:
        v = np.floor(t["value"].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        return pa.table(
            {
                "event_type": t["event_type"],
                "user_id": t["user_id"],
                "v1000": pa.array(v),
            }
        )

    out = topk_per_group(
        ds.map_batches(project, batch_format="pyarrow"),
        key="event_type",
        order_col="v1000",
        k=3,
    )
    t = _concat(out).select(["event_type", "rank", "user_id", "v1000"])
    return _as_i64(t, ["rank", "user_id", "v1000"])


def q_sessionize(sf_dir: str) -> pa.Table:
    """Gap-based sessions (30 min timeout) over the events log."""
    import ray.data

    from docs_indexer_ray.ops.windows import sessionize

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    t = _concat(sessionize(ds, timeout_s=1800))
    return _as_i64(
        t, ["user_id", "session_id", "n_events", "session_start", "session_end"]
    )


def q_broadcast_join(sf_dir: str) -> pa.Table:
    """Map-side broadcast join: events × a small event_type weight
    lookup (weight = type-name length, derivable in SQL), aggregated
    per type with integer-exact sums."""
    import ray.data

    from docs_indexer_ray.ops.join import broadcast_join

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    types = pq.read_table(f"{sf_dir}/events.parquet", columns=["event_type"])
    uniq = sorted(set(types["event_type"].to_pylist()))
    lookup = pd.DataFrame({"event_type": uniq, "weight": [len(t) for t in uniq]})

    def to_int(t: pa.Table) -> pa.Table:
        v = np.floor(t["value"].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        return t.set_column(t.schema.get_field_index("value"), "value", pa.array(v))

    joined = broadcast_join(
        ds.map_batches(to_int, batch_format="pyarrow"), lookup, on="event_type"
    )

    def agg(batch: pd.DataFrame) -> pd.DataFrame:
        batch["weighted"] = batch["value"] * batch["weight"]
        g = batch.groupby("event_type", sort=False).agg(
            n_part=("value", "size"), w_part=("weighted", "sum")
        )
        return g.reset_index()

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(agg, batch_format="pandas")
        .groupby("event_type")
        .aggregate(
            Sum("n_part", alias_name="n_events"),
            Sum("w_part", alias_name="weighted_v1000"),
        )
    )
    return _as_i64(_concat(out), ["n_events", "weighted_v1000"])


def q_hash_join(sf_dir: str) -> pa.Table:
    """Partitioned hash join lineitem ⋈ orders → revenue per order
    priority (revenue in integer cents so the comparison is exact)."""
    import ray.data

    from docs_indexer_ray.ops.join import hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def rev(t: pa.Table) -> pa.Table:
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1.0 - disc) * 100.0).astype(np.int64)
        return pa.table(
            {"orderkey": t["l_orderkey"], "rev_cents": pa.array(cents)}
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(
        lambda t: t.rename_columns(["orderkey", "o_orderpriority"]),
        batch_format="pyarrow",
    )

    joined = hash_join(
        li.map_batches(rev, batch_format="pyarrow"),
        orders,
        on="orderkey",
        left_schema=pa.schema(
            [("orderkey", pa.int64()), ("rev_cents", pa.int64())]
        ),
        right_schema=pa.schema(
            [("orderkey", pa.int64()), ("o_orderpriority", pa.string())]
        ),
    )

    def agg(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("o_orderpriority", sort=False).agg(
            n_part=("rev_cents", "size"), r_part=("rev_cents", "sum")
        )
        return g.reset_index()

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(agg, batch_format="pandas")
        .groupby("o_orderpriority")
        .aggregate(
            Sum("n_part", alias_name="n_items"),
            Sum("r_part", alias_name="revenue_cents"),
        )
    )
    return _as_i64(_concat(out), ["n_items", "revenue_cents"])


def q_asof_join(sf_dir: str) -> pa.Table:
    """Distributed AS-OF join: each event picks the user's most recent
    order at-or-before the event timestamp (point-in-time lookup —
    ``ops/join.py::asof_join``: one hash-bucket shuffle, per-bucket
    vectorized ``merge_asof``).  Right side pre-aggregated to one row
    per (custkey, orderdate); unmatched events dropped (inner asof) so
    the result is null-free for the value-hash gate."""
    import pyarrow.compute as _pc
    import ray.data

    from docs_indexer_ray.ops.join import asof_join

    events = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "ts", "user_id"]
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate", "o_orderkey"],
    )
    right = (
        orders.groupby(["o_custkey", "o_orderdate"])
        .max("o_orderkey")
        .map_batches(
            lambda t: pa.table(
                {
                    "user_id": t["o_custkey"].cast(pa.int64()),
                    "ots": t["o_orderdate"].cast(pa.timestamp("us")),
                    "o_orderkey": t["max(o_orderkey)"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    out = asof_join(
        events,
        right,
        on="user_id",
        left_ts="ts",
        right_ts="ots",
        right_schema=pa.schema(
            [
                ("user_id", pa.int64()),
                ("ots", pa.timestamp("us")),
                ("o_orderkey", pa.int64()),
            ]
        ),
    )
    t = _concat(out)
    t = t.filter(pc.is_valid(t["o_orderkey"]))
    return pa.table(
        {
            "event_id": t["event_id"].cast(pa.int64()),
            "user_id": t["user_id"].cast(pa.int64()),
            "o_orderkey": t["o_orderkey"].cast(pa.int64()),
        }
    ).sort_by("event_id")


def q_highlight(sf_dir: str) -> pa.Table:
    """Top-3 hits with highlighted best snippets (D9/term-vector
    parity via query-time re-analysis)."""
    from docs_indexer_ray.pipelines.flagship import ensure_index
    from docs_indexer_ray.query.bm25 import topk
    from docs_indexer_ray.query.highlight import best_snippet
    from docs_indexer_ray.query.reader import IndexReader

    _, root = ensure_index(sf_dir, chain="english", field="text")
    reader = IndexReader(root)
    q = "table scan merge"
    hits = topk(reader, reader.analyzer(q), k=3)
    docs = reader.fetch_docs([d for d, _ in hits], columns=["doc_id", "body"])
    bodies = {r["doc_id"]: r["body"] for r in docs.to_pylist()}
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
            "snippet": pa.array(
                [best_snippet(bodies[d], q, reader.analyzer) for d, _ in hits], pa.string()
            ),
        }
    )


def q_winnow(sf_dir: str) -> pa.Table:
    from docs_indexer_ray.ops.textstats import fingerprint

    t = _concat(fingerprint(_documents_ds(sf_dir)))
    return t.select(["doc_id", "n_winnow"])


def _concat(ds) -> pa.Table:
    """Small-result materialization (driver-checked outputs only).

    Coerces any non-Arrow blocks (Ray can hand back pandas blocks for
    stages that ran in pandas format) before concatenating."""
    import ray

    blocks = ray.get(ds.materialize().to_arrow_refs())
    tables = [
        t if isinstance(t, pa.Table) else pa.Table.from_pandas(t, preserve_index=False)
        for t in blocks
    ]
    tables = [t for t in tables if t.num_rows > 0]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


# --------------------------------------------------------------------------
# driver contract
# --------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: build english index over sf0.001 pages, answer queries."""
    from docs_indexer_ray.pipelines.flagship import entry_flagship

    return entry_flagship("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "extract_text": q_extract_text,
        "warc_ingest": q_warc_ingest,
        "jsonl_ingest": q_jsonl_ingest,
        "docs_table": q_docs_table,
        "token_count": q_token_count,
        "token_count_bpe": q_token_count_bpe,
        "token_count_ws": q_token_count_ws,
        "term_df": q_term_df,
        "sample_hash": q_sample_hash,
        "seeded_shuffle": q_seeded_shuffle,
        "quality_score": q_quality_score,
        "budget_select": q_budget_select,
        "gopher_quality": q_gopher_quality,
        "heavy_hitters": q_heavy_hitters,
        "pack_sequences": q_pack_sequences,
        "pack_ids": q_pack_ids,
        "url_canonical": q_url_canonical,
        "decontaminate": q_decontaminate,
        "temperature_resample": q_temperature_resample,
        "lang_id": q_lang_id,
        "fingerprint_md5": q_fingerprint_md5,
        "dedup_exact": q_dedup_exact,
        "ngram_jaccard": q_ngram_jaccard,
        "dup_components": q_dup_components,
        "dedup_apply": q_dedup_apply,
        "curate": q_curate,
        "curate_then_index": q_curate_then_index,
        "substring_dedup": q_substring_dedup,
        "dsir": q_dsir,
        "knn_cosine": q_knn_cosine,
        "knn_pca": q_knn_pca,
        "pca_transform": q_pca_transform,
        "index_stats": q_index_stats,
        "match_all_count": q_match_all_count,
        "bm25_topk": q_bm25_topk,
        "term_vectors_stats": q_term_vectors_stats,
        "export_shards": q_export_shards,
        "bm25_collapse_source": q_collapse,
        "bm25_knn_rrf": q_bm25_knn_rrf,
        "bm25_topk_sharded": q_bm25_topk_sharded,
        "knn_dsl_sharded": q_knn_dsl_sharded,
        "search_page_sharded": q_search_page_sharded,
        "bm25_topk_filtered": q_bm25_topk_filtered,
        "bm25_bool": q_bm25_bool,
        "rank_eval": q_rank_eval,
        "boosting": q_boosting,
        "query_string": q_query_string,
        "query_string_sharded": q_query_string_sharded,
        "dsl_bool_sharded": q_dsl_bool_sharded,
        "dsl_range_sharded": q_dsl_range_sharded,
        "dsl_dismax": q_dsl_dismax,
        "terms_set_covering": q_terms_set_covering,
        "distance_feature": q_distance_feature,
        "dsl_ids_matchall": q_dsl_ids_matchall,
        "dsl_constscore_range": q_dsl_constscore_range,
        "dsl_phrase_prefix": q_dsl_phrase_prefix,
        "dsl_match_bool_prefix": q_dsl_match_bool_prefix,
        "dsl_boosting_regexp": q_dsl_boosting_regexp,
        "search_sort_sharded": q_search_sort_sharded,
        "simple_qs_sharded": q_simple_qs_sharded,
        "dsl_function_score_sharded": q_dsl_function_score_sharded,
        "dsl_mlt_sharded": q_dsl_mlt_sharded,
        "search_fetch": q_search_fetch,
        "bm25_bool_msm": q_bm25_bool_msm,
        "bm25_search_after": q_bm25_search_after,
        "bm25_topk_merged": q_bm25_topk_merged,
        "facet_date_histogram": q_facet_date_histogram,
        "facet_date_histogram_month": q_facet_date_histogram_month,
        "facet_date_histogram_week": q_facet_date_histogram_week,
        "facet_auto_date_histogram": q_facet_auto_date_histogram,
        "facet_pipeline": q_facet_pipeline,
        "facet_pipeline_siblings": q_facet_pipeline_siblings,
        "facet_matrix_stats": q_facet_matrix_stats,
        "facet_terms": q_facet_terms,
        "facet_terms_served": q_facet_terms_served,
        "facet_terms_stats": q_facet_terms_stats,
        "facet_terms_approx": q_facet_terms_approx,
        "sort_by_date": q_sort_by_date,
        "term_prefix": q_term_prefix,
        "bm25_multimatch": q_bm25_multimatch,
        "bm25_multimatch_best": q_bm25_multimatch_best,
        "bm25_multimatch_cross": q_bm25_multimatch_cross,
        "fuzzy_terms": q_fuzzy_terms,
        "fuzzy_match": q_fuzzy_match,
        "wildcard": q_wildcard,
        "regexp": q_regexp,
        "function_score": q_function_score,
        "search_as_you_type": q_search_as_you_type,
        "synonym": q_synonym,
        "facet_stats": q_facet_stats,
        "facet_extended_stats": q_facet_extended_stats,
        "facet_weighted_avg": q_facet_weighted_avg,
        "facet_missing": q_facet_missing,
        "facet_filters": q_facet_filters,
        "facet_adjacency": q_facet_adjacency,
        "facet_composite": q_facet_composite,
        "facet_cardinality": q_facet_cardinality,
        "facet_histogram": q_facet_histogram,
        "facet_range": q_facet_range,
        "facet_percentiles": q_facet_percentiles,
        "facet_percentile_ranks": q_facet_percentile_ranks,
        "facet_significant_terms": q_facet_significant_terms,
        "more_like_this": q_more_like_this,
        "match_phrase_slop": q_match_phrase_slop,
        "rescore": q_rescore,
        "span_first": q_span_first,
        "span_near": q_span_near,
        "rerank_ce": q_rerank_ce,
        "percolate": q_percolate,
        "pagerank": q_pagerank,
        "lm_perplexity": q_lm_perplexity,
        "ccnet_buckets": q_ccnet_buckets,
        "textcat": q_textcat,
        "facet_top_hits": q_facet_top_hits,
        "term_vectors": q_term_vectors,
        "bm25_topk_deleted": q_bm25_topk_deleted,
        "facet_multi_terms": q_facet_multi_terms,
        "bm25_explain": q_bm25_explain,
        "bm25_collapse": q_bm25_collapse,
        "facet_rare_terms": q_facet_rare_terms,
        "facet_date_range": q_facet_date_range,
        "analyze": q_analyze,
        "sample_stratified": q_sample_stratified,
        "redact_pii": q_redact_pii,
        "line_filter": q_line_filter,
        "dedup_lines": q_dedup_lines,
        "extract_links": q_extract_links,
        "chunk_documents": q_chunk_documents,
        "knn_cosine_q8": q_knn_cosine_q8,
        "knn_cosine_filtered": q_knn_cosine_filtered,
        "bm25_topk_compacted": q_bm25_topk_compacted,
        "bm25_topk_incremental": q_bm25_topk_incremental,
        "mm_decode_docs": q_mm_decode_docs,
        "match_phrase": q_match_phrase,
        "intervals_allof": q_intervals_allof,
        "intervals_filtered": q_intervals_filtered,
        "match_phrase_sharded": q_match_phrase_sharded,
        "keyword_date_filter": q_keyword_date_filter,
        "window_agg": q_window_agg,
        "window_hopping": q_window_hopping,
        "topk_per_group": q_topk_per_group,
        "sessionize": q_sessionize,
        "broadcast_join": q_broadcast_join,
        "asof_join": q_asof_join,
        "range_join": q_range_join,
        "hash_join": q_hash_join,
        # rows-only (no SQL equivalent; Python oracles in tests/)
        "bm25_topk_english": q_bm25_topk_english,
        "minhash_pairs": q_minhash_pairs,
        "simhash_pairs": q_simhash_pairs,
        "embedding_dups": q_embedding_dups,
        "embedding_dups_exact": q_embedding_dups_exact,
        "semdedup": q_semdedup,
        "knn_lsh": q_knn_lsh,
        "knn_ivf": q_knn_ivf,
        "knn_pq": q_knn_pq,
        "knn_ivfpq": q_knn_ivfpq,
        "kmeans_clusters": q_kmeans_clusters,
        "trigram_suggest": q_trigram_suggest,
        "reverse_suggest": q_reverse_suggest,
        "did_you_mean": q_did_you_mean,
        "mm_decode": q_mm_decode,
        "mm_decode_dims": q_mm_decode_dims,
        "mm_embed_knn": q_mm_embed_knn,
        "mm_frames": q_mm_frames,
        "winnow": q_winnow,
        "highlight": q_highlight,
        "facet_cardinality_hll": q_facet_cardinality_hll,
        "facet_percentiles_tdigest": q_facet_percentiles_tdigest,
        "bloom_url_filter": q_bloom_url_filter,
        "bpe_merges": q_bpe_merges,
        "bpe_encode": q_bpe_encode,
    }


def oracle_sql() -> dict[str, str]:
    toks_body = _toks("body")
    terms_in = ", ".join(f"'{t}'" for t in _BM25_TERMS)
    sqls = {
        "extract_text": f"""
            SELECT {_URL} AS url, text AS text_out FROM documents
            UNION ALL
            SELECT {_URL} AS url, text || ' refresh' AS text_out
            FROM documents WHERE doc_id % 10 = 0
        """,
        "docs_table": f"""
            WITH base AS (SELECT doc_id, {_BODY} AS body FROM documents)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   {_URL} AS url,
                   {_URI} AS uri,
                   '' AS title,
                   body,
                   ' ' || body || ' ' || {_URI} || ' ' || {_CRUMB} AS text
            FROM base
        """,
        "token_count": f"""
            SELECT doc_id, CAST(len({_toks('text')}) AS BIGINT) AS n_tokens
            FROM documents
        """,
        "token_count_bpe": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(text),
                     '''(?:s|t|re|ve|m|ll|d)| ?[a-z]+| ?[0-9]+| ?[^a-z0-9\s'']+|\s+'))
                     AS BIGINT) AS n_tokens
            FROM documents
        """,
        "token_count_ws": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
            FROM documents
        """,
        "term_df": f"""
            WITH t AS (
              SELECT doc_id, unnest(list_distinct({_toks('text')})) AS term
              FROM documents)
            SELECT term, CAST(count(*) AS BIGINT) AS df
            FROM t GROUP BY term ORDER BY df DESC, term ASC LIMIT 20
        """,
        "sample_hash": """
            SELECT doc_id, text FROM documents
            WHERE substr(md5(text), 1, 1) = '0'
        """,
        "sample_stratified": """
            SELECT CAST(event_id AS BIGINT) AS event_id, event_type
            FROM events
            WHERE (event_type = 'click' AND substr(md5(props), 1, 1) IN ('0','1','2','3'))
               OR (event_type = 'view'  AND substr(md5(props), 1, 1) = '0')
            ORDER BY event_id
        """,
        "line_filter": """
            WITH planted AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 3 = 0
                          THEN 'Click here to subscribe now!' || chr(10) ELSE '' END
                     || text
                     || CASE WHEN doc_id % 2 = 0 THEN chr(10) || 'ok btn' ELSE '' END
                     || CASE WHEN doc_id % 5 = 0
                          THEN chr(10) || 'the quick brown fox jumps over the lazy dog again'
                          ELSE '' END AS text
              FROM documents),
            lines AS (
              SELECT doc_id,
                     unnest(string_split(text, chr(10))) AS line,
                     unnest(generate_series(1, len(string_split(text, chr(10))))) AS ord
              FROM planted),
            flags AS (
              SELECT doc_id, line, ord,
                     (len(regexp_extract_all(line, '\\S+')) >= 3
                      AND NOT regexp_matches(lower(line),
                        'click here|subscribe|cookie|javascript|sign in|log in|privacy policy|terms of use|all rights reserved|read more')) AS keep
              FROM lines)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(count(*) FILTER (WHERE keep) AS BIGINT) AS n_kept,
                   coalesce(string_agg(CASE WHEN keep THEN line END, chr(10) ORDER BY ord), '') AS cleaned,
                   (count(*) FILTER (WHERE keep)) * 2 >= count(*) AS kept
            FROM flags GROUP BY doc_id ORDER BY doc_id
        """,
        "redact_pii": """
            WITH planted AS (
              SELECT doc_id,
                     text || ' contact user' || doc_id || '@example'
                       || (doc_id % 7) || '.com or 10.0.' || (doc_id % 256)
                       || '.7 tel +1 202 555 ' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                       || ' end' AS text
              FROM documents)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   regexp_replace(
                     regexp_replace(
                       regexp_replace(text,
                         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                       '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b', '<IP>', 'g'),
                     '\\+?\\d[\\d() -]{7,}\\d', '<PHONE>', 'g') AS text
            FROM planted ORDER BY doc_id
        """,
        "analyze": """
            WITH toks AS (
              SELECT unnest(list_filter(string_split_regex(
                       lower('The Table-Scan: merges 42 SLOW paths, re-scanned!'),
                       '[^a-z0-9]+'), x -> x <> '')) AS token,
                     generate_subscripts(list_filter(string_split_regex(
                       lower('The Table-Scan: merges 42 SLOW paths, re-scanned!'),
                       '[^a-z0-9]+'), x -> x <> ''), 1) AS pos)
            SELECT CAST(pos - 1 AS BIGINT) AS position, token FROM toks
        """,
        "quality_score": f"""
            WITH t AS (SELECT doc_id, text, {_toks('text')} AS toks FROM documents),
            s AS (SELECT doc_id,
                         CAST(length(text) AS BIGINT) AS n_chars,
                         CAST(len(toks) AS BIGINT) AS n_tokens,
                         CAST(len(list_filter(toks, x -> list_contains({_STOP10_SQL}, x))) AS BIGINT) AS hits,
                         CAST(len(list_filter(toks, x -> TRUE)) AS BIGINT) AS nt,
                         (SELECT SUM(length(x)) FROM unnest(toks) AS u(x)) AS charsum
                  FROM t)
            SELECT doc_id, n_chars, n_tokens,
                   CASE WHEN n_tokens > 0 THEN CAST(hits AS DOUBLE) / n_tokens ELSE 0.0 END AS stop_ratio,
                   CASE WHEN n_tokens > 0 THEN CAST(charsum AS DOUBLE) / n_tokens ELSE 0.0 END AS mean_token_len
            FROM s
        """,
        "budget_select": f"""
            WITH t AS (SELECT doc_id, text, {_toks('text')} AS toks FROM documents),
            s AS (SELECT doc_id,
                         CAST(len(toks) AS BIGINT) AS n_tokens,
                         CAST(len(list_filter(toks, x -> list_contains({_STOP10_SQL}, x))) AS BIGINT) AS hits
                  FROM t),
            scored AS (SELECT doc_id, n_tokens,
                              CASE WHEN n_tokens > 0 THEN CAST(hits AS DOUBLE) / n_tokens ELSE 0.0 END AS score
                       FROM s),
            pref AS (SELECT doc_id, score, n_tokens,
                            SUM(n_tokens) OVER (ORDER BY score DESC, doc_id ASC
                                                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS cum_cost
                     FROM scored)
            SELECT CAST(doc_id AS BIGINT) AS doc_id, score,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(cum_cost AS BIGINT) AS cum_cost
            FROM pref WHERE cum_cost <= 1000 ORDER BY doc_id
        """,
        "extract_links": """
            WITH nn AS (SELECT count(*) AS n FROM documents),
            l1 AS (SELECT doc_id AS src,
                          'https://s' || (doc_id % 7) || '.example/p' || ((3 * doc_id + 1) % (SELECT n FROM nn)) AS href,
                          'go ' || (doc_id % 5) AS anchor
                   FROM documents),
            l2 AS (SELECT doc_id AS src,
                          '/rel' || (doc_id % 9) AS href,
                          'more info ' || doc_id AS anchor
                   FROM documents WHERE doc_id % 4 = 0)
            SELECT CAST(src AS BIGINT) AS src, href, anchor
            FROM (SELECT * FROM l1 UNION ALL SELECT * FROM l2)
            ORDER BY src, href
        """,
        "chunk_documents": """
            WITH t AS (SELECT doc_id, string_split_regex(trim(text), '\\s+') AS toks FROM documents),
            st AS (SELECT doc_id, toks,
                          unnest(generate_series(0, len(toks) - 1, 8)) AS s
                   FROM t
                   WHERE len(toks) > 0 AND NOT (len(toks) = 1 AND toks[1] = ''))
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(s / 8 AS BIGINT) AS chunk_idx,
                   CAST(s AS BIGINT) AS start_tok,
                   CAST(least(16, len(toks) - s) AS BIGINT) AS n_tokens,
                   array_to_string(toks[s + 1:s + 16], ' ') AS chunk_text
            FROM st ORDER BY doc_id, chunk_idx
        """,
        "seeded_shuffle": """
            SELECT CAST(row_number() OVER (ORDER BY md5('42:' || doc_id), doc_id) AS BIGINT) AS pos,
                   CAST(doc_id AS BIGINT) AS doc_id
            FROM documents
            ORDER BY md5('42:' || doc_id), doc_id
            LIMIT 50
        """,
        "jsonl_ingest": """
            SELECT CAST(doc_id AS BIGINT) AS doc_id, text, lang, source
            FROM documents ORDER BY doc_id
        """,
        "rank_eval": f"""
            WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
            toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
            dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
            stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                             (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
                   WHERE term IN ('merge', 'scan', 'table') GROUP BY doc_id, term),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            judged AS (SELECT doc_id, CASE WHEN doc_id % 10 = 0 THEN 2 ELSE 1 END AS relevance
                       FROM documents WHERE doc_id % 5 = 0),
        sel_merge AS (
          SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rnk
          FROM (SELECT tf.doc_id,
                       SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
                FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
                WHERE tf.term = 'merge' GROUP BY tf.doc_id)
          QUALIFY rnk <= 10),
        m_merge AS (
          SELECT 'q_merge' AS query,
                 CAST(count_if(j.relevance > 0) AS DOUBLE) / 10 AS precision_k,
                 coalesce(1.0 / min(CASE WHEN j.relevance > 0 THEN rnk END), 0.0) AS mrr,
                 round(SUM(coalesce(pow(2, j.relevance) - 1, 0.0) / log2(rnk + 1)), 9) AS dcg,
                 round(SUM(coalesce(pow(2, j.relevance) - 1, 0.0) / log2(rnk + 1))
                       / (SELECT SUM((pow(2, relevance) - 1) / log2(irnk + 1))
                          FROM (SELECT relevance,
                                       row_number() OVER (ORDER BY relevance DESC) AS irnk
                                FROM judged QUALIFY irnk <= 10)), 9) AS ndcg
          FROM sel_merge LEFT JOIN judged j ON j.doc_id = sel_merge.doc_id),
        sel_scan AS (
          SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rnk
          FROM (SELECT tf.doc_id,
                       SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
                FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
                WHERE tf.term = 'scan' GROUP BY tf.doc_id)
          QUALIFY rnk <= 10),
        m_scan AS (
          SELECT 'q_scan' AS query,
                 CAST(count_if(j.relevance > 0) AS DOUBLE) / 10 AS precision_k,
                 coalesce(1.0 / min(CASE WHEN j.relevance > 0 THEN rnk END), 0.0) AS mrr,
                 round(SUM(coalesce(pow(2, j.relevance) - 1, 0.0) / log2(rnk + 1)), 9) AS dcg,
                 round(SUM(coalesce(pow(2, j.relevance) - 1, 0.0) / log2(rnk + 1))
                       / (SELECT SUM((pow(2, relevance) - 1) / log2(irnk + 1))
                          FROM (SELECT relevance,
                                       row_number() OVER (ORDER BY relevance DESC) AS irnk
                                FROM judged QUALIFY irnk <= 10)), 9) AS ndcg
          FROM sel_scan LEFT JOIN judged j ON j.doc_id = sel_scan.doc_id),
        sel_table AS (
          SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rnk
          FROM (SELECT tf.doc_id,
                       SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
                FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
                WHERE tf.term = 'table' GROUP BY tf.doc_id)
          QUALIFY rnk <= 10),
        m_table AS (
          SELECT 'q_table' AS query,
                 CAST(count_if(j.relevance > 0) AS DOUBLE) / 10 AS precision_k,
                 coalesce(1.0 / min(CASE WHEN j.relevance > 0 THEN rnk END), 0.0) AS mrr,
                 round(SUM(coalesce(pow(2, j.relevance) - 1, 0.0) / log2(rnk + 1)), 9) AS dcg,
                 round(SUM(coalesce(pow(2, j.relevance) - 1, 0.0) / log2(rnk + 1))
                       / (SELECT SUM((pow(2, relevance) - 1) / log2(irnk + 1))
                          FROM (SELECT relevance,
                                       row_number() OVER (ORDER BY relevance DESC) AS irnk
                                FROM judged QUALIFY irnk <= 10)), 9) AS ndcg
          FROM sel_table LEFT JOIN judged j ON j.doc_id = sel_table.doc_id)
            SELECT query, round(precision_k, 9) AS precision_k, round(mrr, 9) AS mrr, dcg, ndcg
            FROM (SELECT * FROM m_merge UNION ALL SELECT * FROM m_scan UNION ALL SELECT * FROM m_table)
            ORDER BY query
        """,
        "dedup_lines": """
            WITH planted AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 3 = 0
                          THEN 'Click here to subscribe now!' || chr(10) ELSE '' END
                     || text
                     || CASE WHEN doc_id % 2 = 0 THEN chr(10) || 'ok btn' ELSE '' END
                     || CASE WHEN doc_id % 5 = 0
                          THEN chr(10) || 'the quick brown fox jumps over the lazy dog again'
                          ELSE '' END AS text
              FROM documents),
            lines AS (
              SELECT doc_id,
                     unnest(string_split(text, chr(10))) AS line,
                     unnest(generate_series(1, len(string_split(text, chr(10))))) AS ord
              FROM planted),
            ranked AS (
              SELECT doc_id, line, ord,
                     row_number() OVER (PARTITION BY line ORDER BY doc_id, ord) AS rn
              FROM lines)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(count(*) FILTER (WHERE rn = 1) AS BIGINT) AS n_kept,
                   coalesce(string_agg(CASE WHEN rn = 1 THEN line END, chr(10) ORDER BY ord), '') AS cleaned
            FROM ranked GROUP BY doc_id ORDER BY doc_id
        """,
        "pagerank": _pagerank_sql(10),
        "lm_perplexity": f"""
            WITH d AS (SELECT doc_id, {_toks('text')} AS toks FROM documents),
            big AS (SELECT doc_id,
                           unnest(toks[1:len(toks)-1]) AS w1,
                           unnest(toks[2:len(toks)]) AS w2
                    FROM d WHERE len(toks) >= 2),
            bc AS (SELECT w1, w2, count(*) AS c FROM big GROUP BY 1, 2),
            ctx AS (SELECT w1, count(*) AS n FROM big GROUP BY 1),
            v AS (SELECT count(DISTINCT t) AS v
                  FROM (SELECT unnest(toks) AS t FROM d)),
            nll AS (SELECT b.doc_id,
                           -ln((bc.c + 1.0) / (ctx.n + (SELECT v FROM v))) AS x
                    FROM big b
                    JOIN bc ON b.w1 = bc.w1 AND b.w2 = bc.w2
                    JOIN ctx ON b.w1 = ctx.w1)
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
                   round(avg(x), 9) AS avg_nll,
                   round(exp(avg(x)), 6) AS ppl
            FROM nll GROUP BY doc_id ORDER BY doc_id
        """,
        "ccnet_buckets": f"""
            WITH d AS (SELECT doc_id, {_toks('text')} AS toks FROM documents),
            big AS (SELECT doc_id,
                           unnest(toks[1:len(toks)-1]) AS w1,
                           unnest(toks[2:len(toks)]) AS w2
                    FROM d WHERE len(toks) >= 2),
            bc AS (SELECT w1, w2, count(*) AS c FROM big GROUP BY 1, 2),
            ctx AS (SELECT w1, count(*) AS n FROM big GROUP BY 1),
            v AS (SELECT count(DISTINCT t) AS v
                  FROM (SELECT unnest(toks) AS t FROM d)),
            nll AS (SELECT b.doc_id,
                           -ln((bc.c + 1.0) / (ctx.n + (SELECT v FROM v))) AS x
                    FROM big b
                    JOIN bc ON b.w1 = bc.w1 AND b.w2 = bc.w2
                    JOIN ctx ON b.w1 = ctx.w1),
            ppl AS (SELECT doc_id, round(exp(avg(x)), 6) AS ppl
                    FROM nll GROUP BY doc_id),
            samp AS (SELECT p.ppl FROM ppl p JOIN documents dd USING (doc_id)
                     WHERE substr(md5(dd.text), 1, 1) = '0'),
            cut AS (SELECT quantile_cont(ppl, 1.0/3) AS c1,
                           quantile_cont(ppl, 2.0/3) AS c2 FROM samp)
            SELECT CAST(p.doc_id AS BIGINT) AS doc_id, p.ppl,
                   CASE WHEN p.ppl <= cut.c1 THEN 'head'
                        WHEN p.ppl <= cut.c2 THEN 'middle'
                        ELSE 'tail' END AS bucket
            FROM ppl p, cut ORDER BY doc_id
        """,
        "textcat": """
            WITH docs AS (SELECT doc_id, lang, lower(text) AS lt FROM documents),
            g AS (SELECT doc_id, lang, substr(lt, CAST(i AS INTEGER), 3) AS gram
                  FROM (SELECT doc_id, lang, lt,
                               unnest(generate_series(1, length(lt) - 2)) AS i
                        FROM docs)),
            tc AS (SELECT lang, gram, count(*) AS c FROM g GROUP BY 1, 2),
            prof AS (SELECT lang, gram,
                            row_number() OVER (PARTITION BY lang
                                               ORDER BY c DESC, gram ASC) AS rnk
                     FROM tc QUALIFY rnk <= 100),
            dgc AS (SELECT doc_id, gram, count(*) AS c FROM g GROUP BY 1, 2),
            doctop AS (SELECT doc_id, gram,
                              row_number() OVER (PARTITION BY doc_id
                                                 ORDER BY c DESC, gram ASC) AS rnk
                       FROM dgc QUALIFY rnk <= 20),
            langs AS (SELECT DISTINCT lang FROM documents),
            dist AS (SELECT dt.doc_id, l.lang,
                            SUM(CASE WHEN pr.rnk IS NULL THEN 100
                                     ELSE abs(dt.rnk - pr.rnk) END) AS dd
                     FROM doctop dt CROSS JOIN langs l
                     LEFT JOIN prof pr ON pr.lang = l.lang AND pr.gram = dt.gram
                     GROUP BY 1, 2),
            pred AS (SELECT doc_id, lang AS pred_label,
                            row_number() OVER (PARTITION BY doc_id
                                               ORDER BY dd ASC, lang ASC) AS rn
                     FROM dist)
            SELECT CAST(doc_id AS BIGINT) AS doc_id, pred_label
            FROM pred WHERE rn = 1 ORDER BY doc_id
        """,
        "percolate": f"""
            WITH dt AS (SELECT DISTINCT doc_id, unnest({_toks('text')}) AS term
                        FROM documents),
            q(query_id, term) AS (VALUES
              (1, 'table'), (1, 'scan'),
              (2, 'merge'), (2, 'slow'),
              (3, 'spark'), (3, 'stream'),
              (4, 'table'), (4, 'scan'), (4, 'merge'), (4, 'slow')),
            qn AS (SELECT query_id, count(*) AS nq FROM q GROUP BY query_id),
            hit AS (SELECT dt.doc_id, q.query_id, count(*) AS nh
                    FROM dt JOIN q USING (term) GROUP BY dt.doc_id, q.query_id)
            SELECT CAST(h.doc_id AS BIGINT) AS doc_id,
                   CAST(h.query_id AS BIGINT) AS query_id
            FROM hit h JOIN qn USING (query_id)
            WHERE h.nh = qn.nq
            ORDER BY doc_id, query_id
        """,
        "temperature_resample": """
            WITH d AS (SELECT doc_id, text,
                              'g' || CAST((doc_id % 17) % 5 AS VARCHAR) AS grp
                       FROM documents),
            c AS (SELECT grp, count(*) AS cnt FROM d GROUP BY grp),
            t AS (SELECT SUM(cnt) AS total, SUM(pow(cnt, 0.5)) AS sumw FROM c),
            s AS (SELECT c.grp,
                         CAST(round(256 * least(1.0,
                           0.5 * t.total * pow(c.cnt, 0.5) / t.sumw / c.cnt)) AS BIGINT) AS slots
                  FROM c, t),
            k AS (SELECT d.grp, count(*) AS n_sampled
                  FROM d JOIN s USING (grp)
                  WHERE s.slots >= 256
                     OR substr(md5(d.text), 1, 2) < lpad(to_hex(s.slots), 2, '0')
                  GROUP BY d.grp)
            SELECT c.grp, CAST(c.cnt AS BIGINT) AS n_docs,
                   CAST(COALESCE(k.n_sampled, 0) AS BIGINT) AS n_sampled
            FROM c LEFT JOIN k USING (grp) ORDER BY c.grp
        """,
        "decontaminate": f"""
            WITH corpus AS ({_DUP_UNION}),
            w AS (SELECT doc_id, unnest({_toks('text')}) AS term,
                         generate_subscripts({_toks('text')}, 1) AS pos
                  FROM corpus),
            g8 AS (SELECT doc_id, pos,
                          term || ' ' || lead(term, 1) OVER win || ' ' || lead(term, 2) OVER win
                            || ' ' || lead(term, 3) OVER win || ' ' || lead(term, 4) OVER win
                            || ' ' || lead(term, 5) OVER win || ' ' || lead(term, 6) OVER win
                            || ' ' || lead(term, 7) OVER win AS gram,
                          lead(term, 7) OVER win AS l7
                   FROM w WINDOW win AS (PARTITION BY doc_id ORDER BY pos)),
            g8v AS (SELECT doc_id, gram FROM g8 WHERE l7 IS NOT NULL),
            ew AS (SELECT doc_id, unnest({_toks('text')}) AS term,
                          generate_subscripts({_toks('text')}, 1) AS pos
                   FROM documents WHERE doc_id % 97 = 0),
            eg AS (SELECT doc_id, pos,
                          term || ' ' || lead(term, 1) OVER win || ' ' || lead(term, 2) OVER win
                            || ' ' || lead(term, 3) OVER win || ' ' || lead(term, 4) OVER win
                            || ' ' || lead(term, 5) OVER win || ' ' || lead(term, 6) OVER win
                            || ' ' || lead(term, 7) OVER win AS gram,
                          lead(term, 7) OVER win AS l7
                   FROM ew WINDOW win AS (PARTITION BY doc_id ORDER BY pos)),
            eval AS (SELECT DISTINCT gram FROM eg WHERE l7 IS NOT NULL),
            hits AS (SELECT g.doc_id, count(*) AS n_hits
                     FROM g8v g JOIN eval USING (gram) GROUP BY g.doc_id)
            SELECT CAST(c.doc_id AS BIGINT) AS doc_id,
                   CAST(COALESCE(h.n_hits, 0) AS BIGINT) AS n_hits,
                   CAST(CASE WHEN COALESCE(h.n_hits, 0) > 0 THEN 1 ELSE 0 END AS BIGINT) AS contaminated
            FROM corpus c LEFT JOIN hits h ON h.doc_id = c.doc_id
            ORDER BY c.doc_id
        """,
        "url_canonical": """
            WITH planted AS (
              SELECT doc_id,
                     'https://www.site' || ((doc_id // 2) % 50) || '.com'
                     || CASE WHEN doc_id % 2 = 0
                             THEN ':443/page/' || (doc_id // 2) || '?utm_source=feed&utm_medium=rss'
                             ELSE '/page/' || (doc_id // 2) || '/?fbclid=abc123#frag' END AS url
              FROM documents),
            canon AS (
              SELECT doc_id,
                regexp_replace(
                  regexp_replace(
                    regexp_replace(
                      regexp_replace(
                        regexp_replace(
                          regexp_replace(
                            regexp_replace(
                              regexp_replace(url, '#.*$', '', 'g'),
                              '([?&])(?:(?:utm_[a-z]+|fbclid|gclid|ref)=[^&]*&)+', '\\1', 'g'),
                            '[?&](utm_[a-z]+|fbclid|gclid|ref)=[^&]*$', '', 'g'),
                          '^(http://[^/:?#]*):80([/?]|$)', '\\1\\2', 'g'),
                        '^(https://[^/:?#]*):443([/?]|$)', '\\1\\2', 'g'),
                      '^(https?://)www\\.', '\\1', 'g'),
                    '\\?$', '', 'g'),
                  '^(https?://[^/]+/.+)/$', '\\1', 'g') AS url_canon
              FROM planted)
            SELECT url_canon,
                   CAST(count(*) AS BIGINT) AS n_crawls,
                   CAST(min(doc_id) AS BIGINT) AS first_doc
            FROM canon GROUP BY url_canon ORDER BY url_canon
        """,
        "pack_sequences": f"""
            WITH toks AS (SELECT doc_id, unnest({_toks('text')}) AS term,
                                 generate_subscripts({_toks('text')}, 1) AS pos
                          FROM documents),
            vocab AS (SELECT term,
                             CAST(dense_rank() OVER (ORDER BY term) - 1 AS BIGINT) AS tid
                      FROM (SELECT DISTINCT term FROM toks)),
            eos AS (SELECT CAST(count(*) AS BIGINT) AS tid FROM vocab),
            stream AS (SELECT doc_id, pos, tid FROM toks JOIN vocab USING (term)
                       UNION ALL
                       SELECT doc_id, 2147483647 AS pos, (SELECT tid FROM eos)
                       FROM documents),
            g AS (SELECT doc_id // 100 AS bucket,
                         row_number() OVER (PARTITION BY doc_id // 100
                                            ORDER BY doc_id, pos) - 1 AS gidx,
                         tid
                  FROM stream)
            SELECT CAST(bucket AS BIGINT) AS bucket,
                   CAST(gidx // 64 AS BIGINT) AS seq,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(tid) AS BIGINT) AS sum_ids,
                   CAST(arg_min(tid, gidx) AS BIGINT) AS first_id,
                   CAST(arg_max(tid, gidx) AS BIGINT) AS last_id
            FROM g GROUP BY bucket, gidx // 64 ORDER BY bucket, seq
        """,
        "heavy_hitters": """
            SELECT w AS item,
                   count(*) AS lo,
                   count(*) AS hi,
                   true AS guaranteed
            FROM (SELECT unnest(string_split(text, ' ')) AS w FROM documents)
            GROUP BY w
            ORDER BY lo DESC, item ASC
            LIMIT 20
        """,
        "gopher_quality": f"""
            WITH t AS (SELECT doc_id, {_toks('text')} AS toks FROM documents),
            w AS (SELECT doc_id, unnest(toks) AS w,
                         generate_subscripts(toks, 1) AS pos
                  FROM t),
            base AS (SELECT doc_id,
                            count(*) AS n,
                            SUM(length(w)) AS cchars,
                            count(*) FILTER (WHERE regexp_matches(w, '[a-z]')) AS n_alpha,
                            count(DISTINCT w) FILTER (WHERE list_contains({_STOP10_SQL}, w)) AS nstop
                     FROM w GROUP BY doc_id),
            bg AS (SELECT doc_id, pos, w AS w1,
                          lead(w) OVER (PARTITION BY doc_id ORDER BY pos) AS w2
                   FROM w),
            bgc AS (SELECT doc_id, w1, w2, count(*) AS c
                    FROM bg WHERE w2 IS NOT NULL GROUP BY doc_id, w1, w2),
            topbg AS (SELECT doc_id, c * (length(w1) + length(w2)) AS covered2,
                             row_number() OVER (PARTITION BY doc_id
                                 ORDER BY c DESC, w1 || ' ' || w2 ASC) AS rn
                      FROM bgc),
            g5 AS (SELECT doc_id, pos,
                          w || ' ' || lead(w, 1) OVER win || ' ' || lead(w, 2) OVER win
                            || ' ' || lead(w, 3) OVER win || ' ' || lead(w, 4) OVER win AS gram,
                          lead(w, 4) OVER win AS l4
                   FROM w WINDOW win AS (PARTITION BY doc_id ORDER BY pos)),
            g5v AS (SELECT doc_id, pos, gram FROM g5 WHERE l4 IS NOT NULL),
            dupg AS (SELECT doc_id, gram FROM g5v
                     GROUP BY doc_id, gram HAVING count(*) > 1),
            cov AS (SELECT DISTINCT g.doc_id, g.pos + s.k AS cpos
                    FROM g5v g JOIN dupg d USING (doc_id, gram),
                         (SELECT unnest(generate_series(0, 4)) AS k) s),
            covc AS (SELECT c.doc_id, SUM(length(w.w)) AS covered5
                     FROM cov c JOIN w ON w.doc_id = c.doc_id AND w.pos = c.cpos
                     GROUP BY c.doc_id),
            m AS (SELECT base.doc_id,
                         CAST(base.n AS BIGINT) AS n_words,
                         CAST(base.cchars AS DOUBLE) / base.n AS mean_word_len,
                         CAST(base.n_alpha AS DOUBLE) / base.n AS alpha_frac,
                         CAST(base.nstop AS BIGINT) AS n_stop_distinct,
                         CASE WHEN base.n >= 2 AND base.cchars > 0
                              THEN CAST(tb.covered2 AS DOUBLE) / base.cchars
                              ELSE 0.0 END AS top2gram_frac,
                         CASE WHEN base.cchars > 0
                              THEN CAST(COALESCE(cc.covered5, 0) AS DOUBLE) / base.cchars
                              ELSE 0.0 END AS dup5gram_frac
                  FROM base
                  LEFT JOIN (SELECT doc_id, covered2 FROM topbg WHERE rn = 1) tb USING (doc_id)
                  LEFT JOIN covc cc USING (doc_id))
            SELECT doc_id, n_words, mean_word_len, alpha_frac, n_stop_distinct,
                   top2gram_frac, dup5gram_frac,
                   CAST(CASE WHEN n_words BETWEEN 20 AND 100000
                              AND mean_word_len BETWEEN 3.0 AND 10.0
                              AND alpha_frac >= 0.8
                              AND n_stop_distinct >= 2
                              AND top2gram_frac <= 0.20
                              AND dup5gram_frac <= 0.15
                        THEN 1 ELSE 0 END AS BIGINT) AS passes
            FROM m ORDER BY doc_id
        """,
        "lang_id": f"""
            WITH t AS (SELECT doc_id, {_toks('text')} AS toks FROM documents)
            SELECT doc_id,
                   CASE WHEN len(toks) > 0
                         AND CAST(len(list_filter(toks, x -> list_contains({_STOP10_SQL}, x))) AS DOUBLE) / len(toks) >= 0.05
                        THEN 'en' ELSE 'und' END AS pred_lang
            FROM t
        """,
        "fingerprint_md5": "SELECT doc_id, md5(text) AS md5 FROM documents",
        "dedup_exact": f"""
            WITH all_rows AS ({_DUP_UNION})
            SELECT md5(text) AS md5, CAST(MIN(doc_id) AS BIGINT) AS doc_id
            FROM all_rows GROUP BY md5(text)
        """,
        "ngram_jaccard": f"""
            WITH all_rows AS MATERIALIZED ({_DUP_UNION}),
            t AS (SELECT doc_id, {_toks('text')} AS toks FROM all_rows),
            g AS MATERIALIZED (SELECT doc_id,
                                      unnest(list_distinct(list_transform(
                                        generate_series(1, len(toks) - 2),
                                        i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))) AS gram
                               FROM t WHERE len(toks) >= 3),
            cnt AS MATERIALIZED (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
            pair AS (SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS inter
                     FROM g ga JOIN g gb ON ga.gram = gb.gram AND ga.doc_id < gb.doc_id
                     GROUP BY ga.doc_id, gb.doc_id)
            SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
                   CAST(inter AS BIGINT) AS inter,
                   CAST(ca.n AS BIGINT) AS na, CAST(cb.n AS BIGINT) AS nb,
                   CAST(inter AS DOUBLE) / (ca.n + cb.n - inter) AS jaccard
            FROM pair JOIN cnt ca ON ca.doc_id = pair.a JOIN cnt cb ON cb.doc_id = pair.b
            WHERE CAST(inter AS DOUBLE) / (ca.n + cb.n - inter) >= 0.5
        """,
        "dedup_apply": f"""
            WITH RECURSIVE all_rows AS MATERIALIZED ({_DUP_UNION}),
            t AS (SELECT doc_id, {_toks('text')} AS toks FROM all_rows),
            g AS MATERIALIZED (SELECT doc_id,
                                      unnest(list_distinct(list_transform(
                                        generate_series(1, len(toks) - 2),
                                        i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))) AS gram
                               FROM t WHERE len(toks) >= 3),
            cnt AS MATERIALIZED (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
            pair AS (SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS inter
                     FROM g ga JOIN g gb ON ga.gram = gb.gram AND ga.doc_id < gb.doc_id
                     GROUP BY ga.doc_id, gb.doc_id),
            p2 AS (SELECT a, b FROM pair
                   JOIN cnt ca ON ca.doc_id = pair.a JOIN cnt cb ON cb.doc_id = pair.b
                   WHERE CAST(inter AS DOUBLE) / (ca.n + cb.n - inter) >= 0.5),
            edges AS MATERIALIZED (SELECT a AS src, b AS dst FROM p2
                                   UNION ALL SELECT b, a FROM p2),
            walk(node, label) AS (
              SELECT src, src FROM edges
              UNION
              SELECT e.dst, w.label FROM walk w JOIN edges e ON e.src = w.node),
            comp AS (SELECT node, min(label) AS component FROM walk GROUP BY node)
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id
            FROM all_rows d LEFT JOIN comp c ON c.node = d.doc_id
            WHERE c.node IS NULL OR c.component = d.doc_id
            ORDER BY doc_id
        """,
        # DuckDB inlines a CTE at every place that reads it, so without
        # MATERIALIZED each reader of a stage re-plans the chain beneath
        # it — the recursive `walk` and the `edges` it reads on every
        # iteration included (hundreds of parquet scans, out of memory
        # at 12 GiB).  MATERIALIZED evaluates each shared stage once; it
        # changes the plan only, not the rows.
        "curate": f"""
            WITH RECURSIVE all_rows AS MATERIALIZED ({_DUP_UNION}),
            ex AS (SELECT min(doc_id) AS keeper FROM all_rows GROUP BY text),
            s1 AS MATERIALIZED (SELECT a.doc_id, a.text FROM all_rows a JOIN ex ON ex.keeper = a.doc_id),
            t AS (SELECT doc_id, {_toks('text')} AS toks FROM s1),
            g AS MATERIALIZED (SELECT doc_id,
                                      unnest(list_distinct(list_transform(
                                        generate_series(1, len(toks) - 2),
                                        i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))) AS gram
                               FROM t WHERE len(toks) >= 3),
            cnt AS MATERIALIZED (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
            pair AS (SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS inter
                     FROM g ga JOIN g gb ON ga.gram = gb.gram AND ga.doc_id < gb.doc_id
                     GROUP BY ga.doc_id, gb.doc_id),
            p2 AS MATERIALIZED (SELECT a, b FROM pair
                                JOIN cnt ca ON ca.doc_id = pair.a JOIN cnt cb ON cb.doc_id = pair.b
                                WHERE CAST(inter AS DOUBLE) / (ca.n + cb.n - inter) >= 0.5),
            edges AS MATERIALIZED (SELECT a AS src, b AS dst FROM p2
                                   UNION ALL SELECT b, a FROM p2),
            walk(node, label) AS (
              SELECT src, src FROM edges
              UNION
              SELECT e.dst, w.label FROM walk w JOIN edges e ON e.src = w.node),
            comp AS MATERIALIZED (SELECT node, min(label) AS component FROM walk GROUP BY node),
            s2 AS MATERIALIZED (SELECT d.doc_id, d.text FROM s1 d LEFT JOIN comp c ON c.node = d.doc_id
                                WHERE c.node IS NULL OR c.component = d.doc_id),
            t2 AS (SELECT doc_id, {_toks('text')} AS toks FROM s2),
            w AS MATERIALIZED (SELECT doc_id, unnest(toks) AS w,
                                      generate_subscripts(toks, 1) AS pos
                               FROM t2),
            base AS (SELECT doc_id,
                            count(*) AS n,
                            SUM(length(w)) AS cchars,
                            count(*) FILTER (WHERE regexp_matches(w, '[a-z]')) AS n_alpha,
                            count(DISTINCT w) FILTER (WHERE list_contains({_STOP10_SQL}, w)) AS nstop
                     FROM w GROUP BY doc_id),
            bg AS (SELECT doc_id, pos, w AS w1,
                          lead(w) OVER (PARTITION BY doc_id ORDER BY pos) AS w2
                   FROM w),
            bgc AS (SELECT doc_id, w1, w2, count(*) AS c
                    FROM bg WHERE w2 IS NOT NULL GROUP BY doc_id, w1, w2),
            topbg AS (SELECT doc_id, c * (length(w1) + length(w2)) AS covered2,
                             row_number() OVER (PARTITION BY doc_id
                                 ORDER BY c DESC, w1 || ' ' || w2 ASC) AS rn
                      FROM bgc),
            g5 AS (SELECT doc_id, pos,
                          w || ' ' || lead(w, 1) OVER win5 || ' ' || lead(w, 2) OVER win5
                            || ' ' || lead(w, 3) OVER win5 || ' ' || lead(w, 4) OVER win5 AS gram,
                          lead(w, 4) OVER win5 AS l4
                   FROM w WINDOW win5 AS (PARTITION BY doc_id ORDER BY pos)),
            g5v AS MATERIALIZED (SELECT doc_id, pos, gram FROM g5 WHERE l4 IS NOT NULL),
            dupg AS (SELECT doc_id, gram FROM g5v
                     GROUP BY doc_id, gram HAVING count(*) > 1),
            cov AS (SELECT DISTINCT gg.doc_id, gg.pos + sk.k AS cpos
                    FROM g5v gg JOIN dupg dd USING (doc_id, gram),
                         (SELECT unnest(generate_series(0, 4)) AS k) sk),
            covc AS (SELECT c.doc_id, SUM(length(w.w)) AS covered5
                     FROM cov c JOIN w ON w.doc_id = c.doc_id AND w.pos = c.cpos
                     GROUP BY c.doc_id),
            m AS MATERIALIZED (SELECT base.doc_id,
                                      CAST(base.n AS BIGINT) AS n_words,
                                      CAST(base.cchars AS DOUBLE) / base.n AS mean_word_len,
                                      CAST(base.n_alpha AS DOUBLE) / base.n AS alpha_frac,
                                      CAST(base.nstop AS BIGINT) AS n_stop_distinct,
                                      CASE WHEN base.n >= 2 AND base.cchars > 0
                                           THEN CAST(tb.covered2 AS DOUBLE) / base.cchars
                                           ELSE 0.0 END AS top2gram_frac,
                                      CASE WHEN base.cchars > 0
                                           THEN CAST(COALESCE(cc.covered5, 0) AS DOUBLE) / base.cchars
                                           ELSE 0.0 END AS dup5gram_frac
                               FROM base
                               LEFT JOIN (SELECT doc_id, covered2 FROM topbg WHERE rn = 1) tb USING (doc_id)
                               LEFT JOIN covc cc USING (doc_id)),
            s3 AS MATERIALIZED (SELECT s2.doc_id, s2.text FROM s2 JOIN m USING (doc_id)
                                WHERE m.n_words BETWEEN 20 AND 100000
                                  AND m.mean_word_len BETWEEN 3.0 AND 10.0
                                  AND m.alpha_frac >= 0.8
                                  AND m.n_stop_distinct >= 2
                                  AND m.top2gram_frac <= 0.20
                                  AND m.dup5gram_frac <= 0.15),
            w3 AS (SELECT doc_id, unnest({_toks('text')}) AS term,
                          generate_subscripts({_toks('text')}, 1) AS pos
                   FROM s3),
            g8 AS (SELECT doc_id, pos,
                          term || ' ' || lead(term, 1) OVER win8 || ' ' || lead(term, 2) OVER win8
                            || ' ' || lead(term, 3) OVER win8 || ' ' || lead(term, 4) OVER win8
                            || ' ' || lead(term, 5) OVER win8 || ' ' || lead(term, 6) OVER win8
                            || ' ' || lead(term, 7) OVER win8 AS gram,
                          lead(term, 7) OVER win8 AS l7
                   FROM w3 WINDOW win8 AS (PARTITION BY doc_id ORDER BY pos)),
            g8v AS (SELECT doc_id, gram FROM g8 WHERE l7 IS NOT NULL),
            ew AS (SELECT doc_id, unnest({_toks('text')}) AS term,
                          generate_subscripts({_toks('text')}, 1) AS pos
                   FROM documents WHERE doc_id % 97 = 0),
            eg AS (SELECT doc_id, pos,
                          term || ' ' || lead(term, 1) OVER wine || ' ' || lead(term, 2) OVER wine
                            || ' ' || lead(term, 3) OVER wine || ' ' || lead(term, 4) OVER wine
                            || ' ' || lead(term, 5) OVER wine || ' ' || lead(term, 6) OVER wine
                            || ' ' || lead(term, 7) OVER wine AS gram,
                          lead(term, 7) OVER wine AS l7
                   FROM ew WINDOW wine AS (PARTITION BY doc_id ORDER BY pos)),
            eval AS MATERIALIZED (SELECT DISTINCT gram FROM eg WHERE l7 IS NOT NULL),
            dirty AS MATERIALIZED (SELECT DISTINCT g8v.doc_id FROM g8v JOIN eval USING (gram)),
            s4 AS (SELECT s3.doc_id FROM s3 LEFT JOIN dirty d USING (doc_id)
                   WHERE d.doc_id IS NULL)
            SELECT CAST(row_number() OVER (ORDER BY md5('42:' || doc_id), doc_id) AS BIGINT) AS pos,
                   CAST(doc_id AS BIGINT) AS doc_id
            FROM s4
            ORDER BY md5('42:' || doc_id), doc_id
        """,
        "dup_components": f"""
            WITH RECURSIVE all_rows AS MATERIALIZED ({_DUP_UNION}),
            t AS (SELECT doc_id, {_toks('text')} AS toks FROM all_rows),
            g AS MATERIALIZED (SELECT doc_id,
                                      unnest(list_distinct(list_transform(
                                        generate_series(1, len(toks) - 2),
                                        i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))) AS gram
                               FROM t WHERE len(toks) >= 3),
            cnt AS MATERIALIZED (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
            pair AS (SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS inter
                     FROM g ga JOIN g gb ON ga.gram = gb.gram AND ga.doc_id < gb.doc_id
                     GROUP BY ga.doc_id, gb.doc_id),
            p2 AS (SELECT a, b FROM pair
                   JOIN cnt ca ON ca.doc_id = pair.a JOIN cnt cb ON cb.doc_id = pair.b
                   WHERE CAST(inter AS DOUBLE) / (ca.n + cb.n - inter) >= 0.5),
            edges AS MATERIALIZED (SELECT a AS src, b AS dst FROM p2
                                   UNION ALL SELECT b, a FROM p2),
            walk(node, label) AS (
              SELECT src, src FROM edges
              UNION
              SELECT e.dst, w.label FROM walk w JOIN edges e ON e.src = w.node)
            SELECT CAST(node AS BIGINT) AS node,
                   CAST(min(label) AS BIGINT) AS component
            FROM walk GROUP BY node ORDER BY node
        """,
        "substring_dedup": f"""
            WITH docs AS ({_DUP_UNION}),
            g AS (SELECT doc_id, i, substr(text, CAST(i AS INTEGER), 25) AS gram
                  FROM (SELECT doc_id, text,
                               unnest(generate_series(1, length(text) - 24)) AS i
                        FROM docs)),
            r AS (SELECT doc_id, i,
                         row_number() OVER (PARTITION BY gram ORDER BY doc_id, i) AS rn,
                         count(*) OVER (PARTITION BY gram) AS c
                  FROM g),
            masked AS (SELECT doc_id, i FROM r WHERE c > 1 AND rn > 1),
            offs AS (SELECT DISTINCT doc_id, off FROM
                       (SELECT doc_id, i + unnest(generate_series(0, 24)) AS off
                        FROM masked)),
            mc AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS masked_chars
                   FROM offs GROUP BY doc_id)
            SELECT CAST(mc.doc_id AS BIGINT) AS doc_id, mc.masked_chars,
                   CAST(length(d.text) - mc.masked_chars AS BIGINT) AS kept_chars
            FROM mc JOIN docs d ON d.doc_id = mc.doc_id
            ORDER BY doc_id
        """,
        "dsir": f"""
            WITH t AS (SELECT doc_id, source, {_toks('text')} AS toks FROM documents),
            uni AS (SELECT doc_id, source, unnest(toks) AS f FROM t),
            bi AS (SELECT doc_id, source,
                          unnest(list_transform(generate_series(1, len(toks) - 1),
                                                i -> toks[i] || ' ' || toks[i+1])) AS f
                   FROM t WHERE len(toks) >= 2),
            feats AS (SELECT * FROM uni UNION ALL SELECT * FROM bi),
            tc AS (SELECT f, count(*) AS c FROM feats WHERE source = 'src0' GROUP BY f),
            tt AS (SELECT CAST(count(*) AS BIGINT) AS total FROM feats WHERE source = 'src0'),
            rt AS (SELECT CAST(count(*) AS BIGINT) AS total FROM feats),
            vv AS (SELECT CAST(count(*) AS BIGINT) AS v FROM tc),
            rc AS (SELECT f, count(*) AS c FROM feats
                   WHERE f IN (SELECT f FROM tc) GROUP BY f),
            lr AS (SELECT tc.f,
                          ln(CAST(tc.c + 1 AS DOUBLE) / (tt.total + vv.v))
                          - ln(CAST(rc.c + 1 AS DOUBLE) / (rt.total + vv.v)) AS r
                   FROM tc JOIN rc USING (f), tt, rt, vv),
            dc AS (SELECT doc_id, f, count(*) AS c FROM feats GROUP BY doc_id, f),
            w AS (SELECT dc.doc_id, round(SUM(dc.c * lr.r), 9) AS wq
                  FROM dc JOIN lr USING (f) GROUP BY dc.doc_id)
            SELECT CAST(row_number() OVER (ORDER BY wq DESC, doc_id ASC) AS BIGINT) AS rank,
                   CAST(doc_id AS BIGINT) AS doc_id
            FROM w ORDER BY wq DESC, doc_id ASC LIMIT 20
        """,
        "embedding_dups_exact": """
            WITH base AS (SELECT vec_id, embedding FROM embeddings
                          UNION ALL
                          SELECT vec_id + 1000000 AS vec_id, embedding
                          FROM embeddings WHERE vec_id % 7 = 0)
            SELECT CAST(a.vec_id AS BIGINT) AS a, CAST(b.vec_id AS BIGINT) AS b
            FROM base a JOIN base b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.95
            ORDER BY a, b
        """,
        "knn_pca": """
            WITH q AS (
              SELECT vec_id, i.range AS i,
                     CAST(floor(CAST(embedding[CAST(i.range AS INT)+1] AS DOUBLE)
                                * 1000 + 0.5) AS BIGINT) AS v
              FROM embeddings, range(64) i),
            p AS (
              SELECT vec_id, j.range AS j,
                     CAST(sum(v * (CASE WHEN bit_count(CAST(i AS BIGINT)
                                                       & CAST(j.range AS BIGINT)) % 2 = 0
                                        THEN 1 ELSE -1 END)) AS BIGINT) AS p
              FROM q, range(56) j GROUP BY 1, 2),
            vecs AS (SELECT vec_id, list(CAST(p AS DOUBLE) ORDER BY j) AS pv
                     FROM p GROUP BY 1),
            qs AS (SELECT vec_id AS qid, pv AS qv FROM vecs WHERE vec_id < 5),
            sims AS (SELECT qid, v.vec_id AS nid,
                            list_cosine_similarity(qv, v.pv) AS sim
                     FROM qs, vecs v WHERE v.vec_id != qid),
            ranked AS (SELECT qid, nid,
                              row_number() OVER (PARTITION BY qid
                                                 ORDER BY sim DESC, nid ASC) AS rnk
                       FROM sims)
            SELECT CAST(qid AS BIGINT) AS query_id, CAST(rnk AS BIGINT) AS rank,
                   CAST(nid AS BIGINT) AS neighbor_id
            FROM ranked WHERE rnk <= 5
        """,
        "knn_cosine": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 5),
            sims AS (SELECT qid, vec_id AS nid, list_cosine_similarity(qe, embedding) AS sim
                     FROM q, embeddings WHERE vec_id != qid),
            ranked AS (SELECT qid, nid, row_number() OVER (PARTITION BY qid ORDER BY sim DESC, nid ASC) AS rnk
                       FROM sims)
            SELECT CAST(qid AS BIGINT) AS query_id, CAST(rnk AS BIGINT) AS rank,
                   CAST(nid AS BIGINT) AS neighbor_id
            FROM ranked WHERE rnk <= 5
        """,
        "knn_cosine_q8": """
            WITH sc AS (
              SELECT vec_id, embedding,
                     CASE WHEN list_max(list_transform(embedding, x -> abs(x))) / 127.0 = 0
                          THEN 1.0
                          ELSE list_max(list_transform(embedding, x -> abs(x))) / 127.0 END AS scale64
              FROM embeddings),
            deq AS (
              SELECT vec_id,
                     list_transform(embedding,
                       x -> CAST(greatest(-127.0, least(127.0, round(x / scale64))) AS DOUBLE)
                            * CAST(CAST(scale64 AS FLOAT) AS DOUBLE)) AS emb_deq
              FROM sc),
            q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 5),
            sims AS (SELECT qid, d.vec_id AS nid, list_cosine_similarity(qe, d.emb_deq) AS sim
                     FROM q, deq d WHERE d.vec_id != qid),
            ranked AS (SELECT qid, nid, row_number() OVER (PARTITION BY qid ORDER BY sim DESC, nid ASC) AS rnk
                       FROM sims)
            SELECT CAST(qid AS BIGINT) AS query_id, CAST(rnk AS BIGINT) AS rank,
                   CAST(nid AS BIGINT) AS neighbor_id
            FROM ranked WHERE rnk <= 5
        """,
        "knn_cosine_filtered": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 5),
            sims AS (SELECT qid, vec_id AS nid, list_cosine_similarity(qe, embedding) AS sim
                     FROM q, embeddings WHERE vec_id != qid AND vec_id % 3 = 0),
            ranked AS (SELECT qid, nid, row_number() OVER (PARTITION BY qid ORDER BY sim DESC, nid ASC) AS rnk
                       FROM sims)
            SELECT CAST(qid AS BIGINT) AS query_id, CAST(rnk AS BIGINT) AS rank,
                   CAST(nid AS BIGINT) AS neighbor_id
            FROM ranked WHERE rnk <= 5
        """,
        "index_stats": f"""
            WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
            dl AS (SELECT doc_id, len({toks_body}) AS dl FROM docs)
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(SUM(dl) AS BIGINT) AS total_tokens,
                   CAST(SUM(dl) AS DOUBLE) / count(*) AS avgdl
            FROM dl WHERE dl > 0
        """,
        "match_all_count": "SELECT CAST(count(*) AS BIGINT) AS n_docs FROM documents",
        "export_shards": """
            WITH h AS (SELECT doc_id, md5('0:' || doc_id) AS h FROM documents),
            s AS (SELECT doc_id, h,
                         ('0x' || substr(h, 1, 8))::UBIGINT % 8 AS shard
                  FROM h),
            o AS (SELECT shard, doc_id,
                         row_number() OVER (PARTITION BY shard ORDER BY h, doc_id) AS rn,
                         count(*) OVER (PARTITION BY shard) AS n
                  FROM s)
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(max(n) AS BIGINT) AS n_rows,
                   CAST(max(CASE WHEN rn = 1 THEN doc_id END) AS BIGINT) AS first_doc,
                   CAST(max(CASE WHEN rn = n THEN doc_id END) AS BIGINT) AS last_doc
            FROM o GROUP BY shard ORDER BY shard
        """,
        "term_vectors_stats": f"""
            WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
            tk AS (SELECT doc_id, {toks_body} AS toks FROM docs),
            p AS (SELECT doc_id, unnest(toks) AS term,
                         unnest(range(len(toks))) AS pos FROM tk),
            tgt AS (SELECT term, CAST(count(*) AS BIGINT) AS term_freq,
                           CAST(min(pos) AS BIGINT) AS first_pos
                    FROM p WHERE doc_id = 42 GROUP BY term),
            stats AS (SELECT term,
                             CAST(count(DISTINCT doc_id) AS BIGINT) AS doc_freq,
                             CAST(count(*) AS BIGINT) AS ttf
                      FROM p GROUP BY term)
            SELECT t.term, t.term_freq, s.doc_freq, s.ttf, t.first_pos
            FROM tgt t JOIN stats s USING (term) ORDER BY t.term
        """,
        "bm25_topk": f"""
            WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
            toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
            dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
            stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                             (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
                   WHERE term IN ({terms_in}) GROUP BY doc_id, term),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
              SELECT tf.doc_id,
                     SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                         * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
              FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id)
            SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
                   CAST(doc_id AS BIGINT) AS doc_id
            FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10
        """,
        "bm25_collapse_source": f"""
            WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
            toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
            dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
            stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                             (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
                   WHERE term IN ({terms_in}) GROUP BY doc_id, term),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
              SELECT tf.doc_id,
                     SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                         * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
              FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id),
            r AS (SELECT s.doc_id, round(s.score, 9) AS q, d.source AS ckey
                  FROM scores s JOIN documents d USING (doc_id)),
            best AS (SELECT doc_id, ckey, q,
                            row_number() OVER (PARTITION BY ckey
                                ORDER BY q DESC, doc_id ASC) AS rn
                     FROM r)
            SELECT CAST(row_number() OVER (ORDER BY q DESC, doc_id ASC) AS BIGINT) AS rank,
                   CAST(doc_id AS BIGINT) AS doc_id,
                   ckey
            FROM best WHERE rn = 1 ORDER BY q DESC, doc_id ASC LIMIT 10
        """,
        "match_phrase": f"""
            WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
            tok AS (SELECT doc_id, unnest({toks_body}) AS term,
                           generate_subscripts({toks_body}, 1) AS pos
                    FROM docs)
            SELECT CAST(a.doc_id AS BIGINT) AS doc_id,
                   CAST(count(*) AS BIGINT) AS phrase_freq
            FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
            WHERE a.term = 'table' AND b.term = 'hash'
            GROUP BY a.doc_id ORDER BY a.doc_id
        """,
        "match_phrase_slop": f"""
            WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
            tok AS (SELECT doc_id, unnest({toks_body}) AS term,
                           generate_subscripts({toks_body}, 1) AS pos
                    FROM docs),
            a AS (SELECT doc_id, pos FROM tok WHERE term = 'table'),
            b AS (SELECT doc_id, pos FROM tok WHERE term = 'hash'),
            g AS (SELECT a.doc_id, a.pos AS p1, min(b.pos) AS p2
                  FROM a JOIN b ON b.doc_id = a.doc_id AND b.pos > a.pos
                  GROUP BY a.doc_id, a.pos)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(count(*) AS BIGINT) AS phrase_freq
            FROM g WHERE p2 - p1 - 1 <= 1
            GROUP BY doc_id ORDER BY doc_id
        """,
        "intervals_allof": f"""
            WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
            tok AS (SELECT doc_id, unnest({toks_body}) AS term,
                           generate_subscripts({toks_body}, 1) AS pos
                    FROM docs)
            SELECT DISTINCT CAST(a.doc_id AS BIGINT) AS doc_id
            FROM tok a
            JOIN tok b ON b.doc_id = a.doc_id AND b.pos > a.pos
            JOIN tok c ON c.doc_id = a.doc_id AND c.pos > b.pos
            WHERE a.term = 'table' AND b.term = 'scan' AND c.term = 'merge'
            ORDER BY doc_id
        """,
        "intervals_filtered": f"""
            WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
            tok AS (SELECT doc_id, unnest({toks_body}) AS term,
                           generate_subscripts({toks_body}, 1) AS pos
                    FROM docs),
            ta AS (SELECT doc_id, pos FROM tok WHERE term = 'table'),
            tm AS (SELECT doc_id, pos FROM tok WHERE term = 'merge'),
            ts AS (SELECT doc_id, pos FROM tok WHERE term = 'scan'),
            -- greedy chains: per table-pos the FIRST merge after it
            g AS (SELECT ta.doc_id, ta.pos AS p1, min(tm.pos) AS p2
                  FROM ta JOIN tm ON tm.doc_id = ta.doc_id
                                 AND tm.pos > ta.pos
                  GROUP BY ta.doc_id, ta.pos),
            -- minimal chains: max start per end (starts/ends then both
            -- strictly increase — the pruned minimal interval set)
            g2 AS (SELECT doc_id, max(p1) AS p1, p2
                   FROM g GROUP BY doc_id, p2),
            cont AS (SELECT DISTINCT g2.doc_id FROM g2
                     WHERE EXISTS (SELECT 1 FROM ts
                                   WHERE ts.doc_id = g2.doc_id
                                     AND ts.pos BETWEEN g2.p1 AND g2.p2)),
            ncont AS (SELECT DISTINCT g2.doc_id FROM g2
                      WHERE NOT EXISTS (SELECT 1 FROM ts
                                        WHERE ts.doc_id = g2.doc_id
                                          AND ts.pos BETWEEN g2.p1 AND g2.p2))
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   (cont.doc_id IS NOT NULL) AS containing,
                   (ncont.doc_id IS NOT NULL) AS not_containing
            FROM docs d
            LEFT JOIN cont ON cont.doc_id = d.doc_id
            LEFT JOIN ncont ON ncont.doc_id = d.doc_id
            ORDER BY doc_id
        """,
        "window_agg": """
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(floor(epoch_us(ts) / 3600000000) AS BIGINT) AS window,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(floor(value * 1000) AS BIGINT)) AS BIGINT) AS sum_v1000
            FROM events WHERE ts IS NOT NULL GROUP BY 1, 2
        """,
        "window_hopping": """
            WITH hops AS (
              SELECT user_id,
                     CAST(floor(epoch_us(ts) / 900000000) AS BIGINT) - s.i AS "window",
                     CAST(floor(value * 1000) AS BIGINT) AS v1000
              FROM events CROSS JOIN generate_series(0, 3) s(i)
              WHERE ts IS NOT NULL)
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   "window",
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(SUM(v1000) AS BIGINT) AS sum_v1000
            FROM hops WHERE "window" >= 0 GROUP BY 1, 2
        """,
        "topk_per_group": """
            WITH e AS (SELECT event_type, user_id,
                              CAST(floor(value * 1000) AS BIGINT) AS v1000
                       FROM events WHERE event_type IS NOT NULL),
            r AS (SELECT event_type, user_id, v1000,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY v1000 DESC, user_id DESC) AS rank
                  FROM e)
            SELECT event_type, CAST(rank AS BIGINT) AS rank,
                   CAST(user_id AS BIGINT) AS user_id, v1000
            FROM r WHERE rank <= 3
        """,
        "sessionize": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS ts FROM events
                       WHERE ts IS NOT NULL),
            l AS (SELECT user_id, ts,
                         CASE WHEN lag(ts) OVER w IS NULL
                               OR ts - lag(ts) OVER w > 1800000000
                              THEN 1 ELSE 0 END AS new_s
                  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
            s AS (SELECT user_id, ts,
                         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts
                                          ROWS UNBOUNDED PRECEDING) - 1 AS session_id
                  FROM l)
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(session_id AS BIGINT) AS session_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(MIN(ts) AS BIGINT) AS session_start,
                   CAST(MAX(ts) AS BIGINT) AS session_end
            FROM s GROUP BY user_id, session_id
        """,
        "broadcast_join": """
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(floor(value * 1000) AS BIGINT) * length(event_type)) AS BIGINT)
                     AS weighted_v1000
            FROM events GROUP BY event_type
        """,
        "hash_join": """
            SELECT o.o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT)) AS BIGINT)
                     AS revenue_cents
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderpriority
        """,
        "asof_join": """
            WITH r AS (SELECT o_custkey AS user_id, o_orderdate AS ots,
                              max(o_orderkey) AS o_orderkey
                       FROM orders GROUP BY 1, 2)
            SELECT CAST(e.event_id AS BIGINT) AS event_id,
                   CAST(e.user_id AS BIGINT) AS user_id,
                   CAST(r.o_orderkey AS BIGINT) AS o_orderkey
            FROM events e ASOF JOIN r
              ON e.user_id = r.user_id AND e.ts >= r.ots
            ORDER BY e.event_id
        """,
        "keyword_date_filter": f"""
            WITH base AS (
              SELECT doc_id,
                     TIMESTAMP '2025-01-01 00:00:00'
                       + to_microseconds(doc_id * 1000000)
                       + CASE WHEN doc_id % 10 = 0 THEN INTERVAL 1 HOUR ELSE INTERVAL 0 SECOND END AS warc_ts
              FROM documents)
            SELECT CAST(doc_id AS BIGINT) AS doc_id, {_URL} AS url
            FROM base WHERE warc_ts >= TIMESTAMP '2025-01-01 00:05:00'
        """,
    }
    # sharded serving is rank-identical to the local path by design —
    # the same SQL oracle pins both; the merged two-half index likewise
    # reproduces the full build's doc ids (url-range split + url-order
    # id assignment), so the same oracle pins the merge path too
    # the WARC round trip reproduces the Parquet extract byte-for-byte
    sqls["warc_ingest"] = sqls["extract_text"]
    sqls["bm25_topk_sharded"] = sqls["bm25_topk"]
    # serving-tier knn: the sidecar keys vectors by the build's dense
    # doc ids (vec_id == doc_id, the synthetic alignment); score
    # (1+cos)/2 is a monotone transform of cosine, so cosine order
    # (sim DESC, doc ASC — the engine's quantized tie-break) IS the
    # fleet's serving order; the self-match (vec_id 0) ranks first
    sqls["knn_dsl_sharded"] = """
        WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0),
        sims AS (SELECT vec_id AS did,
                        list_cosine_similarity(embedding, qe) AS sim
                 FROM embeddings, q),
        ranked AS (SELECT did,
                          row_number() OVER (ORDER BY sim DESC, did ASC)
                            AS rnk
                   FROM sims)
        SELECT CAST(rnk AS BIGINT) AS rank, CAST(did AS BIGINT) AS doc_id
        FROM ranked WHERE rnk <= 10
    """
    sqls["match_phrase_sharded"] = sqls["match_phrase"]
    sqls["bm25_topk_merged"] = sqls["bm25_topk"]
    sqls["bm25_topk_incremental"] = sqls["bm25_topk"]
    _WARC = (
        "TIMESTAMP '2025-01-01 00:00:00' + to_microseconds(doc_id * 1000000) "
        "+ CASE WHEN doc_id % 10 = 0 THEN INTERVAL 1 HOUR ELSE INTERVAL 0 SECOND END"
    )
    sqls["bm25_topk_filtered"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        allowed AS (SELECT doc_id FROM documents WHERE {_WARC} >= TIMESTAMP '2025-01-01 00:05:00')
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM scores JOIN allowed USING (doc_id)
        ORDER BY score DESC, doc_id ASC LIMIT 10
    """
    # hybrid RRF: BM25 leg ranks (top-100) fused with a kNN leg
    # (neighbors of vec 0's embedding, self excluded, top-100) by
    # 1/(60+rank) sums — the engine computes the same doubles in the
    # same left-to-right expression shape (query/hybrid.py)
    sqls["bm25_knn_rrf"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        bm AS (SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rnk
               FROM scores ORDER BY score DESC, doc_id ASC LIMIT 100),
        q0 AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0),
        knn AS (SELECT vec_id AS doc_id,
                       row_number() OVER (ORDER BY list_cosine_similarity(qe, embedding) DESC, vec_id ASC) AS rnk
                FROM embeddings, q0 WHERE vec_id != 0
                QUALIFY rnk <= 100),
        ids AS (SELECT doc_id FROM bm UNION SELECT doc_id FROM knn),
        fused AS (SELECT ids.doc_id,
                         COALESCE(1.0 / (60 + bm.rnk), 0.0)
                           + COALESCE(1.0 / (60 + knn.rnk), 0.0) AS rrf
                  FROM ids LEFT JOIN bm USING (doc_id) LEFT JOIN knn USING (doc_id))
        SELECT CAST(row_number() OVER (ORDER BY rrf DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id, rrf
        FROM fused ORDER BY rrf DESC, doc_id ASC LIMIT 10
    """
    sqls["boosting"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ('merge', 'slow') GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        neg AS (SELECT DISTINCT doc_id FROM toks WHERE term = 'hash'),
        boosted AS (
          SELECT s.doc_id,
                 CASE WHEN s.doc_id IN (SELECT doc_id FROM neg)
                      THEN s.score * 0.5 ELSE s.score END AS score
          FROM scores s)
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM boosted ORDER BY score DESC, doc_id ASC LIMIT 10
    """
    sqls["search_fetch"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        hits AS (SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
                        doc_id
                 FROM scores ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10)
        SELECT rank, CAST(doc_id AS BIGINT) AS doc_id, {_URL} AS url
        FROM hits ORDER BY rank
    """
    sqls["query_string"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ('table', 'merge', 'slow', 'scan') GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        wts(term, w) AS (VALUES ('table', 1.0), ('merge', 1.0), ('slow', 2.0)),
        scores AS (
          SELECT tf.doc_id,
                 SUM(wts.w * ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN wts USING (term) JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        tokpos AS (SELECT doc_id, unnest({toks_body}) AS term,
                          generate_subscripts({toks_body}, 1) AS pos FROM docs),
        pf AS (SELECT a.doc_id, count(*) AS pf
               FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
               WHERE a.term = 'table' AND b.term = 'scan' GROUP BY a.doc_id),
        pidf AS (SELECT SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))) AS idf
                 FROM df, stats WHERE df.term IN ('table', 'scan')),
        pscores AS (
          SELECT pf.doc_id,
                 pidf.idf * pf.pf
                   / (pf.pf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl)) AS pscore
          FROM pf JOIN dl USING (doc_id), pidf, stats),
        must_hit AS (SELECT DISTINCT doc_id FROM toks WHERE term = 'table'),
        excl AS (SELECT DISTINCT doc_id FROM toks WHERE term = 'hash'),
        hits AS (SELECT m.doc_id,
                        COALESCE(s.score, 0.0) + COALESCE(p.pscore, 0.0) AS score
                 FROM must_hit m
                 LEFT JOIN scores s USING (doc_id)
                 LEFT JOIN pscores p USING (doc_id)
                 WHERE m.doc_id NOT IN (SELECT doc_id FROM excl))
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM hits ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    sqls["bm25_bool"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        must_hit AS (SELECT doc_id FROM toks WHERE term IN ('table', 'scan')
                     GROUP BY doc_id HAVING count(DISTINCT term) = 2),
        excl AS (SELECT DISTINCT doc_id FROM toks WHERE term = 'hash'),
        hits AS (SELECT s.doc_id, s.score FROM scores s JOIN must_hit USING (doc_id)
                 WHERE s.doc_id NOT IN (SELECT doc_id FROM excl))
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM hits ORDER BY score DESC, doc_id ASC LIMIT 10
    """
    _msm_terms = "'table', 'merge', 'slow', 'vector'"
    sqls["bm25_bool_msm"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({_msm_terms}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        must_hit AS (SELECT DISTINCT doc_id FROM toks WHERE term = 'table'),
        should_ok AS (SELECT doc_id FROM toks WHERE term IN ('merge', 'slow', 'vector')
                      GROUP BY doc_id HAVING count(DISTINCT term) >= 2),
        hits AS (SELECT s.doc_id, s.score FROM scores s
                 JOIN must_hit USING (doc_id) JOIN should_ok USING (doc_id))
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM hits ORDER BY score DESC, doc_id ASC LIMIT 10
    """
    sqls["bm25_search_after"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        ranked AS (SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank
                   FROM scores)
        SELECT CAST(rank AS BIGINT) AS rank, CAST(doc_id AS BIGINT) AS doc_id
        FROM ranked WHERE rank BETWEEN 11 AND 20 ORDER BY rank
    """
    # offset paging through the sharded fleet: page 3 (from=20, size=10)
    # = the same global ranking's ranks 21..30
    sqls["search_page_sharded"] = (
        sqls["bm25_search_after"].replace("BETWEEN 11 AND 20", "BETWEEN 21 AND 30")
    )
    sqls["facet_terms"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in}))
        SELECT d.lang AS value, CAST(count(*) AS BIGINT) AS n_docs
        FROM documents d JOIN m USING (doc_id)
        GROUP BY d.lang ORDER BY n_docs DESC, value ASC
    """
    sqls["facet_terms_stats"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT d.lang, length(docs.body) AS blen
              FROM documents d JOIN m USING (doc_id) JOIN docs USING (doc_id))
        SELECT lang AS value,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(min(blen) AS DOUBLE) AS min_v,
               CAST(max(blen) AS DOUBLE) AS max_v,
               CAST(sum(blen) AS DOUBLE) AS sum_v,
               CAST(sum(blen) AS DOUBLE) / count(*) AS avg_v
        FROM v GROUP BY lang ORDER BY n_docs DESC, value ASC
    """
    sqls["facet_terms_approx"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in}))
        SELECT d.lang AS value, CAST(count(*) AS BIGINT) AS n_docs,
               CAST(count(*) AS BIGINT) AS n_docs_hi, TRUE AS guaranteed
        FROM documents d JOIN m USING (doc_id)
        GROUP BY d.lang ORDER BY n_docs DESC, value ASC LIMIT 5
    """
    sqls["sort_by_date"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        w AS (SELECT doc_id, {_WARC} AS warc_ts FROM m)
        SELECT CAST(row_number() OVER (ORDER BY warc_ts DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM w ORDER BY warc_ts DESC, doc_id ASC LIMIT 10
    """
    # ---- multi_match: per-field BM25 CTEs (body + catch-all text) ----
    def _field_ctes(tag: str, col: str) -> str:
        return f"""
        t{tag} AS (SELECT doc_id, unnest({_toks(col)}) AS term FROM docs2),
        dl{tag} AS (SELECT doc_id, count(*) AS dl FROM t{tag} GROUP BY doc_id),
        st{tag} AS (SELECT (SELECT count(*) FROM docs2) AS n,
                    (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl{tag} WHERE dl > 0) AS avgdl),
        tf{tag} AS (SELECT doc_id, term, count(*) AS tf FROM t{tag}
                    WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df{tag} AS (SELECT term, count(*) AS df FROM tf{tag} GROUP BY term),
        s{tag} AS (
          SELECT tf{tag}.doc_id,
                 SUM(ln(1 + (st{tag}.n - df{tag}.df + 0.5) / (df{tag}.df + 0.5))
                     * tf{tag}.tf / (tf{tag}.tf + 1.2 * (1 - 0.75 + 0.75 * dl{tag}.dl / st{tag}.avgdl))) AS score
          FROM tf{tag} JOIN df{tag} USING (term) JOIN dl{tag} USING (doc_id), st{tag}
          GROUP BY tf{tag}.doc_id)"""

    _mm_prefix = f"""
        WITH base AS (SELECT doc_id, {_BODY} AS body FROM documents),
        docs2 AS (SELECT doc_id, body,
                  ' ' || body || ' ' || {_URI} || ' ' || {_CRUMB} AS text FROM base),
        {_field_ctes('b', 'body')},
        {_field_ctes('t', 'text')},
        comb AS (SELECT COALESCE(sb.doc_id, st.doc_id) AS doc_id,
                        COALESCE(sb.score, 0) * 1.0 AS fb,
                        COALESCE(st.score, 0) * 0.5 AS ft
                 FROM sb FULL OUTER JOIN st ON sb.doc_id = st.doc_id)
    """
    _mm_select = """
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM scored ORDER BY score DESC, doc_id ASC LIMIT 10
    """
    sqls["bm25_multimatch"] = (
        _mm_prefix
        + ", scored AS (SELECT doc_id, fb + ft AS score FROM comb)"
        + _mm_select
    )
    sqls["bm25_multimatch_best"] = (
        _mm_prefix
        + """, scored AS (SELECT doc_id,
               GREATEST(fb, ft) + 0.3 * ((fb + ft) - GREATEST(fb, ft)) AS score
           FROM comb)"""
        + _mm_select
    )
    # cross_fields: ONE blended virtual field — union df, boost-weighted
    # summed tf, summed dl (the documented BlendedTermQuery simplification)
    sqls["bm25_multimatch_cross"] = (
        _mm_prefix
        + """, dlu AS (SELECT COALESCE(dlb.doc_id, dlt.doc_id) AS doc_id,
                      COALESCE(dlb.dl, 0) + COALESCE(dlt.dl, 0) AS dl
               FROM dlb FULL OUTER JOIN dlt ON dlb.doc_id = dlt.doc_id),
        stu AS (SELECT (SELECT count(*) FROM docs2) AS n,
                    (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dlu WHERE dl > 0) AS avgdl),
        tfu AS (SELECT COALESCE(b.doc_id, t.doc_id) AS doc_id,
                       COALESCE(b.term, t.term) AS term,
                       COALESCE(b.tf, 0) * 1.0 + COALESCE(t.tf, 0) * 0.5 AS tf
                FROM tfb b FULL OUTER JOIN tft t
                  ON b.doc_id = t.doc_id AND b.term = t.term),
        dfu AS (SELECT term, count(*) AS df FROM tfu GROUP BY term),
        scored AS (
          SELECT tfu.doc_id,
                 SUM(ln(1 + (stu.n - dfu.df + 0.5) / (dfu.df + 0.5))
                     * tfu.tf / (tfu.tf + 1.2 * (1 - 0.75 + 0.75 * dlu.dl / stu.avgdl))) AS score
          FROM tfu JOIN dfu USING (term) JOIN dlu USING (doc_id), stu
          GROUP BY tfu.doc_id)"""
        + _mm_select
    )
    sqls["fuzzy_terms"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        v AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term)
        SELECT term,
               CAST(levenshtein(term, 'tble') AS BIGINT) AS distance,
               CAST(df AS BIGINT) AS df
        FROM v WHERE levenshtein(term, 'tble') <= 2
        ORDER BY distance ASC, df DESC, term ASC
    """
    sqls["fuzzy_match"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs)
        SELECT DISTINCT CAST(doc_id AS BIGINT) AS doc_id
        FROM toks WHERE levenshtein(term, 'tble') <= 2
        ORDER BY doc_id
    """
    sqls["wildcard"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs)
        SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
        FROM toks WHERE term LIKE 'sc_n%' GROUP BY term ORDER BY df DESC, term ASC
    """
    # SynonymQuery: per group tf = SUM over member terms, df = MAX of
    # member dfs (Lucene's blended docFreq); groups then sum like
    # plain BM25 terms, ranked on the 1e-9-quantized score
    # rescore: BM25 top-50 window (same unquantized ordering contract
    # as bm25_topk), then + 2*ln(1+phrase_freq) on window rows only,
    # final ordering on the 1e-9-quantized combined score
    sqls["rescore"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        win AS (SELECT doc_id, score FROM scores
                ORDER BY score DESC, doc_id ASC LIMIT 50),
        tokp AS (SELECT doc_id, unnest({toks_body}) AS term,
                        generate_subscripts({toks_body}, 1) AS pos
                 FROM docs),
        pf AS (SELECT a.doc_id, count(*) AS pf
               FROM tokp a JOIN tokp b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
               WHERE a.term = 'table' AND b.term = 'hash'
               GROUP BY a.doc_id),
        fin AS (SELECT w.doc_id,
                       round(w.score + 2.0 * ln(1 + COALESCE(pf.pf, 0)), 9) AS fscore
                FROM win w LEFT JOIN pf USING (doc_id))
        SELECT CAST(row_number() OVER (ORDER BY fscore DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM fin ORDER BY fscore DESC, doc_id ASC LIMIT 10
    """
    # span_first: engine positions are 0-based (< 5), SQL
    # generate_subscripts is 1-based (<= 5)
    sqls["span_first"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        tok AS (SELECT doc_id, unnest({toks_body}) AS term,
                       generate_subscripts({toks_body}, 1) AS pos
                FROM docs)
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(count(*) AS BIGINT) AS n_early
        FROM tok WHERE term = 'table' AND pos <= 5
        GROUP BY doc_id ORDER BY doc_id
    """
    # span_near: brute-force minimal window over all (a,b,c) position
    # combos — exact at oracle scale; window test is width − k ≤ slop
    sqls["span_near"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        tok AS (SELECT doc_id, unnest({toks_body}) AS term,
                       generate_subscripts({toks_body}, 1) AS pos
                FROM docs),
        w AS (SELECT a.doc_id,
                     min(greatest(a.pos, b.pos, c.pos)
                         - least(a.pos, b.pos, c.pos) + 1) AS min_window
              FROM tok a JOIN tok b USING (doc_id) JOIN tok c USING (doc_id)
              WHERE a.term = 'table' AND b.term = 'scan' AND c.term = 'merge'
              GROUP BY a.doc_id)
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(min_window AS BIGINT) AS min_window
        FROM w WHERE min_window - 3 <= 4 ORDER BY doc_id
    """
    # rerank_ce: same BM25 top-50 window, final order owned by the
    # distinct-token Jaccard (single int/int division → exact double)
    sqls["rerank_ce"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        win AS (SELECT doc_id FROM scores ORDER BY score DESC, doc_id ASC LIMIT 50),
        dt AS (SELECT DISTINCT doc_id, term FROM toks),
        nd AS (SELECT doc_id, count(*) AS nd FROM dt GROUP BY doc_id),
        ni AS (SELECT doc_id, count(*) AS ni FROM dt
               WHERE term IN ({terms_in}) GROUP BY doc_id),
        j AS (SELECT w.doc_id,
                     CAST(COALESCE(ni.ni, 0) AS DOUBLE)
                       / (nd.nd + {len(_BM25_TERMS)} - COALESCE(ni.ni, 0)) AS ce
              FROM win w JOIN nd USING (doc_id) LEFT JOIN ni USING (doc_id))
        SELECT CAST(row_number() OVER (ORDER BY ce DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id, ce
        FROM j ORDER BY ce DESC, doc_id ASC LIMIT 10
    """
    sqls["synonym"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        syn(grp, term) AS (VALUES (0, 'merge'), (0, 'join'), (1, 'slow')),
        tf AS (SELECT t.doc_id, s.grp, count(*) AS tf
               FROM toks t JOIN syn s ON t.term = s.term
               GROUP BY t.doc_id, s.grp),
        tdf AS (SELECT t.term, count(DISTINCT t.doc_id) AS df
                FROM toks t JOIN syn s ON t.term = s.term GROUP BY t.term),
        gdf AS (SELECT s.grp, max(tdf.df) AS df
                FROM syn s JOIN tdf ON tdf.term = s.term GROUP BY s.grp),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - gdf.df + 0.5) / (gdf.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN gdf USING (grp) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id)
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM scores ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    sqls["search_as_you_type"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        edge AS (SELECT doc_id,
                        substr(term, 1, CAST(unnest(generate_series(2, least(15, length(term)))) AS INT)) AS term
                 FROM toks),
        dl AS (SELECT doc_id, count(*) AS dl FROM edge GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, count(*) AS tf FROM edge WHERE term = 'sca' GROUP BY doc_id),
        df AS (SELECT count(*) AS df FROM tf),
        scores AS (
          SELECT tf.doc_id,
                 ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                   * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl)) AS score
          FROM tf JOIN dl USING (doc_id), df, stats)
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10
    """
    sqls["function_score"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        aged AS (SELECT s.doc_id,
                        round(s.score * exp(ln(0.5) / 600.0 *
                          greatest(date_diff('second',
                            TIMESTAMP '2025-01-01 00:00:00'
                              + to_microseconds(s.doc_id * 1000000)
                              + CASE WHEN s.doc_id % 10 = 0 THEN INTERVAL 1 HOUR
                                     ELSE INTERVAL 0 SECOND END,
                            TIMESTAMP '2025-01-01 00:10:00'), 0)), 9) AS fscore
                 FROM scores s)
        SELECT CAST(row_number() OVER (ORDER BY fscore DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM aged ORDER BY fscore DESC, doc_id ASC LIMIT 10
    """
    sqls["regexp"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs)
        SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
        FROM toks WHERE regexp_full_match(term, '(s|b)[a-z]*a(n|ll|rk)')
        GROUP BY term ORDER BY df DESC, term ASC
    """
    sqls["facet_composite"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT CAST(length(d.body) AS BIGINT) AS key
              FROM docs d JOIN m USING (doc_id)),
        b AS (SELECT key, CAST(count(*) AS BIGINT) AS n_docs FROM v GROUP BY key),
        r AS (SELECT key, n_docs,
                     row_number() OVER (ORDER BY key ASC) AS rn FROM b)
        SELECT CAST((rn - 1) // 7 AS BIGINT) AS page, key, n_docs
        FROM r ORDER BY key
    """
    sqls["facet_filters"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        v AS (SELECT doc_id, length(body) AS blen, {_WARC} AS warc_ts FROM docs)
        SELECT * FROM (
          SELECT 'big' AS bucket, CAST(count_if(blen > 300) AS BIGINT) AS n_docs FROM v
          UNION ALL
          SELECT 'early', CAST(count_if(warc_ts < TIMESTAMP '2025-01-01 00:04:10') AS BIGINT) FROM v
          UNION ALL
          SELECT 'small', CAST(count_if(blen <= 200) AS BIGINT) FROM v)
        ORDER BY bucket
    """
    sqls["facet_adjacency"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        v AS (SELECT doc_id, length(body) AS blen, {_WARC} AS warc_ts FROM docs)
        SELECT * FROM (
          SELECT 'big' AS bucket, CAST(count_if(blen > 300) AS BIGINT) AS n_docs FROM v
          UNION ALL
          SELECT 'early', CAST(count_if(warc_ts < TIMESTAMP '2025-01-01 00:04:10') AS BIGINT) FROM v
          UNION ALL
          SELECT 'small', CAST(count_if(blen <= 200) AS BIGINT) FROM v
          UNION ALL
          SELECT 'big&early', CAST(count_if(blen > 300 AND warc_ts < TIMESTAMP '2025-01-01 00:04:10') AS BIGINT) FROM v
          UNION ALL
          SELECT 'big&small', CAST(count_if(blen > 300 AND blen <= 200) AS BIGINT) FROM v
          UNION ALL
          SELECT 'early&small', CAST(count_if(warc_ts < TIMESTAMP '2025-01-01 00:04:10' AND blen <= 200) AS BIGINT) FROM v)
        WHERE n_docs > 0
        ORDER BY bucket
    """
    sqls["facet_stats"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT length(d.body) AS blen FROM docs d JOIN m USING (doc_id))
        SELECT CAST(count(*) AS BIGINT) AS n_docs,
               CAST(min(blen) AS DOUBLE) AS min_v,
               CAST(max(blen) AS DOUBLE) AS max_v,
               CAST(sum(blen) AS DOUBLE) AS sum_v,
               CAST(sum(blen) AS DOUBLE) / count(*) AS avg_v
        FROM v
    """
    sqls["facet_extended_stats"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT length(d.body) AS blen FROM docs d JOIN m USING (doc_id)),
        agg AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                       CAST(min(blen) AS DOUBLE) AS min_v,
                       CAST(max(blen) AS DOUBLE) AS max_v,
                       CAST(sum(blen) AS DOUBLE) AS sum_v,
                       CAST(sum(blen) AS DOUBLE) / count(*) AS avg_v,
                       CAST(sum(blen * blen) AS DOUBLE) AS sum_sq
                FROM v)
        SELECT n_docs, min_v, max_v, sum_v, avg_v, sum_sq,
               (sum_sq - sum_v * sum_v / n_docs) / n_docs AS variance,
               sqrt((sum_sq - sum_v * sum_v / n_docs) / n_docs) AS std_dev
        FROM agg
    """
    sqls["facet_weighted_avg"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT length(d.body) AS blen, d.doc_id % 5 + 1 AS w
              FROM docs d JOIN m USING (doc_id))
        SELECT CAST(sum(blen * w) AS DOUBLE) / CAST(sum(w) AS DOUBLE) AS weighted_avg
        FROM v
    """
    sqls["facet_missing"] = f"""
        SELECT CAST(count_if(doc_id % 7 = 0) AS BIGINT) AS n_missing FROM documents
    """
    sqls["facet_cardinality"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in}))
        SELECT CAST(count(DISTINCT length(d.body)) AS BIGINT) AS n_unique
        FROM docs d JOIN m USING (doc_id)
    """
    sqls["more_like_this"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        nn AS (SELECT count(*) AS n FROM docs),
        dfall AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
        src AS (SELECT term, count(*) AS tf FROM toks WHERE doc_id = 7 GROUP BY term),
        qt AS (SELECT src.term
               FROM src JOIN dfall USING (term), nn
               ORDER BY src.tf * ln(1 + (nn.n - dfall.df + 0.5) / (dfall.df + 0.5)) DESC,
                        src.term ASC
               LIMIT 25),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN (SELECT term FROM qt) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          WHERE tf.doc_id <> 7
          GROUP BY tf.doc_id)
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM scores ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    rank_vals = ", ".join(f"({v!r})" for v in [100.0, 250.0, 400.0, 550.0])
    sqls["facet_percentile_ranks"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT CAST(length(d.body) AS DOUBLE) AS blen
              FROM docs d JOIN m USING (doc_id)),
        probes(value) AS (VALUES {rank_vals})
        SELECT CAST(p.value AS DOUBLE) AS value,
               100.0 * (SELECT count(*) FROM v WHERE v.blen <= p.value)
                 / (SELECT count(*) FROM v) AS rank_pct
        FROM probes p ORDER BY p.value
    """
    sqls["facet_significant_terms"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        sizes AS (SELECT (SELECT count(*) FROM m) AS n_fg,
                         (SELECT count(*) FROM documents) AS n_docs),
        fg AS (SELECT term, count(DISTINCT t.doc_id) AS fg_df
               FROM toks t JOIN m USING (doc_id) GROUP BY term),
        bg AS (SELECT term, count(DISTINCT doc_id) AS bg_df
               FROM toks GROUP BY term),
        scored AS (
          SELECT fg.term, fg.fg_df, bg.bg_df,
                 (fg.fg_df / CAST(sizes.n_fg AS DOUBLE)
                  - bg.bg_df / CAST(sizes.n_docs AS DOUBLE))
                 * ((fg.fg_df / CAST(sizes.n_fg AS DOUBLE))
                    / (bg.bg_df / CAST(sizes.n_docs AS DOUBLE))) AS score
          FROM fg JOIN bg USING (term), sizes
          WHERE fg.fg_df / CAST(sizes.n_fg AS DOUBLE)
                > bg.bg_df / CAST(sizes.n_docs AS DOUBLE))
        SELECT term, CAST(fg_df AS BIGINT) AS fg_df,
               CAST(bg_df AS BIGINT) AS bg_df, score
        FROM scored ORDER BY score DESC, term ASC LIMIT 10
    """
    sqls["bm25_topk_compacted"] = f"""
        WITH all_docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        all_toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM all_docs),
        docs AS (SELECT * FROM all_docs
                 WHERE doc_id NOT IN (SELECT DISTINCT doc_id FROM all_toks WHERE term = 'refresh')),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id)
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
               {_URL} AS url
        FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10
    """
    sqls["bm25_explain"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
               WHERE term IN ({terms_in}) GROUP BY term),
        tf AS (SELECT term, count(*) AS tf FROM toks
               WHERE doc_id = 7 AND term IN ({terms_in}) GROUP BY term)
        SELECT tf.term, CAST(tf.tf AS BIGINT) AS tf, CAST(df.df AS BIGINT) AS df,
               CAST(dl.dl AS BIGINT) AS dl,
               ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5)) AS idf,
               ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                 * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * (dl.dl / stats.avgdl))) AS weight
        FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = 7, stats
        ORDER BY tf.term
    """
    _B = 1735689600
    dr_rows = ", ".join(
        f"({float(a)!r}, {float(b)!r})"
        for a, b in [(_B, _B + 120), (_B + 120, _B + 300), (_B + 300, _B + 100000)]
    )
    sqls["facet_date_range"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT CAST(epoch_us({_WARC}) // 1000000 AS DOUBLE) AS es
              FROM documents JOIN m USING (doc_id)),
        r(lo, hi) AS (VALUES {dr_rows})
        SELECT CAST(r.lo AS DOUBLE) AS lo, CAST(r.hi AS DOUBLE) AS hi,
               CAST(count(v.es) AS BIGINT) AS n_docs
        FROM r LEFT JOIN v ON v.es >= r.lo AND v.es < r.hi
        GROUP BY r.lo, r.hi ORDER BY r.lo
    """
    sqls["facet_rare_terms"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        counts AS (SELECT CAST(length(d.body) AS VARCHAR) AS value,
                          CAST(count(*) AS BIGINT) AS n_docs
                   FROM docs d JOIN m USING (doc_id) GROUP BY 1)
        SELECT value, n_docs FROM counts WHERE n_docs <= 2
        ORDER BY n_docs ASC, value ASC
    """
    sqls["bm25_collapse"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id),
        best AS (
          SELECT d.lang AS value, s.doc_id, s.score,
                 row_number() OVER (PARTITION BY d.lang
                                    ORDER BY s.score DESC, s.doc_id ASC) AS rn
          FROM scores s JOIN documents d USING (doc_id))
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id, value
        FROM best WHERE rn = 1 ORDER BY score DESC, doc_id ASC LIMIT 5
    """
    sqls["facet_multi_terms"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in}))
        SELECT d.lang,
               CAST((length(dd.body) // 200) * 200 AS BIGINT) AS blen_bucket,
               CAST(count(*) AS BIGINT) AS n_docs
        FROM documents d JOIN docs dd USING (doc_id) JOIN m USING (doc_id)
        GROUP BY d.lang, blen_bucket
        ORDER BY n_docs DESC, d.lang ASC, blen_bucket ASC
    """
    sqls["bm25_topk_deleted"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dead AS (SELECT DISTINCT doc_id FROM toks WHERE term = 'refresh'),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          WHERE tf.doc_id NOT IN (SELECT doc_id FROM dead)
          GROUP BY tf.doc_id)
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10
    """
    sqls["term_vectors"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        tf AS (SELECT term, count(*) AS tf FROM toks WHERE doc_id = 7 GROUP BY term),
        df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term)
        SELECT tf.term, CAST(tf.tf AS BIGINT) AS tf, CAST(df.df AS BIGINT) AS df
        FROM tf JOIN df USING (term) ORDER BY tf.term
    """
    sqls["facet_top_hits"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        w AS (SELECT d.doc_id, d.lang, {_WARC} AS warc_ts
              FROM documents d JOIN m USING (doc_id)),
        r AS (SELECT lang, doc_id,
                     row_number() OVER (PARTITION BY lang
                                        ORDER BY warc_ts DESC, doc_id DESC) AS rank
              FROM w)
        SELECT lang AS value, CAST(rank AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM r WHERE rank <= 3 ORDER BY value, rank
    """
    sqls["facet_histogram"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in}))
        SELECT CAST(floor(length(d.body) / 100.0) * 100 AS BIGINT) AS bucket,
               CAST(count(*) AS BIGINT) AS n_docs
        FROM docs d JOIN m USING (doc_id)
        GROUP BY bucket ORDER BY n_docs DESC, bucket ASC
    """
    range_rows = ", ".join(
        f"({lo!r}, {hi!r})" for lo, hi in [(0.0, 500.0), (500.0, 1000.0), (1000.0, 2000.0), (2000.0, 1e9)]
    )
    sqls["facet_range"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT CAST(length(d.body) AS DOUBLE) AS blen
              FROM docs d JOIN m USING (doc_id)),
        r(lo, hi) AS (VALUES {range_rows})
        SELECT CAST(r.lo AS DOUBLE) AS lo, CAST(r.hi AS DOUBLE) AS hi,
               CAST(count(v.blen) AS BIGINT) AS n_docs
        FROM r LEFT JOIN v ON v.blen >= r.lo AND v.blen < r.hi
        GROUP BY r.lo, r.hi ORDER BY r.lo
    """
    pct_rows = " UNION ALL ".join(
        f"SELECT CAST({q!r} AS DOUBLE) AS pct, quantile_cont(blen, {q / 100.0!r}) AS value FROM v"
        for q in [25.0, 50.0, 75.0, 95.0, 99.0]
    )
    sqls["facet_percentiles"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT length(d.body) AS blen FROM docs d JOIN m USING (doc_id))
        {pct_rows}
    """
    sqls["term_prefix"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs)
        SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
        FROM toks WHERE term LIKE 's%' GROUP BY term ORDER BY df DESC, term ASC
    """
    # the corpus is pure [a-z0-9 ] text (verified property of the synth
    # tables), so the standard tokenizer's output equals the simple
    # chain's — the same toks CTE serves the reverse/trigram chains
    sqls["reverse_suggest"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        d AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
              WHERE term LIKE '%ow' GROUP BY term)
        SELECT term, CAST(df AS BIGINT) AS df
        FROM d ORDER BY df DESC, reverse(term) ASC LIMIT 10
    """
    sqls["trigram_suggest"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        t AS (SELECT doc_id, {toks_body} AS toks FROM docs),
        sh AS (
          SELECT doc_id, array_to_string(toks[i:i+1], ' ') AS shingle
          FROM t, unnest(range(1, len(toks))) AS u(i)
          UNION ALL
          SELECT doc_id, array_to_string(toks[i:i+2], ' ') AS shingle
          FROM t, unnest(range(1, len(toks) - 1)) AS u(i)),
        d AS (SELECT shingle, count(DISTINCT doc_id) AS df FROM sh
              WHERE shingle LIKE 'table %' GROUP BY shingle)
        SELECT shingle, CAST(df AS BIGINT) AS df
        FROM d ORDER BY df DESC, shingle ASC LIMIT 5
    """
    # winnowing fingerprints (Schleimer et al.): FNV-1a 64 over word
    # 5-grams reproduced bit-exactly in SQL — tokens are [a-z0-9 ]
    # (ASCII, 1 byte/char), so per-char ascii() IS the UTF-8 byte, and
    # the xor-low-7-bits identity (b < 128) keeps the fold in HUGEINT
    sqls["winnow"] = """
        WITH docs AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '[^a-z0-9]+'), x -> x <> '') AS toks
          FROM documents),
        g AS (
          SELECT doc_id, i, array_to_string(toks[i:i+4], ' ') AS gram
          FROM docs, unnest(range(1, len(toks) - 3)) AS t(i)),
        h AS (
          SELECT doc_id, i,
                 list_reduce(
                   list_prepend(14695981039346656037::HUGEINT,
                     list_transform(range(1, length(gram) + 1),
                                    j -> ascii(substr(gram, j, 1))::HUGEINT)),
                   (acc, b) -> ((acc - acc % 128 + xor((acc % 128)::BIGINT, b::BIGINT)::HUGEINT)
                                * 1099511628211::HUGEINT) % 18446744073709551616::HUGEINT
                 ) AS hash
          FROM g),
        w AS (
          SELECT doc_id, i,
                 min(hash) OVER (PARTITION BY doc_id ORDER BY i
                                 ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS wmin,
                 count(*) OVER (PARTITION BY doc_id) AS ngrams,
                 row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn
          FROM h),
        counts AS (
          SELECT doc_id,
                 CASE WHEN max(ngrams) <= 4 THEN 1
                      ELSE count(DISTINCT CASE WHEN rn >= 4 THEN wmin END) END AS n_winnow
          FROM w GROUP BY doc_id)
        SELECT d.doc_id, CAST(COALESCE(c.n_winnow, 0) AS BIGINT) AS n_winnow
        FROM documents d LEFT JOIN counts c USING (doc_id) ORDER BY d.doc_id
    """
    sqls["mm_decode_docs"] = """
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(16 + octet_length(encode(text)) % 64 AS INTEGER) AS width,
               CAST(16 + (octet_length(encode(text)) // 7) % 64 AS INTEGER) AS height,
               CAST(3 AS INTEGER) AS channels,
               CAST(64 AS INTEGER) AS resized_to,
               md5(text) AS checksum
        FROM documents ORDER BY doc_id
    """
    sqls["facet_date_histogram"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        w AS (SELECT doc_id, {_WARC} AS warc_ts FROM m)
        SELECT CAST(floor(epoch_us(warc_ts) / 3600000000) AS BIGINT) AS bucket,
               CAST(count(*) AS BIGINT) AS n_docs
        FROM w GROUP BY 1 ORDER BY n_docs DESC, bucket ASC
    """
    sqls["pca_transform"] = """
        WITH q AS (
          SELECT vec_id, i.range AS i,
                 CAST(floor(CAST(embedding[CAST(i.range AS INT)+1] AS DOUBLE)
                            * 1000 + 0.5) AS BIGINT) AS v
          FROM embeddings, range(64) i),
        p AS (
          SELECT vec_id, j.range AS j,
                 CAST(sum(v * (((i*7 + j.range*13) % 5) - 2)) AS BIGINT) AS p
          FROM q, range(4) j GROUP BY 1, 2)
        SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(j AS BIGINT) AS j, p
        FROM p ORDER BY vec_id, j
    """
    # MinHash / SimHash replay (round 5): the md5 base-hash mode makes
    # both sketches exact integer pipelines DuckDB can reproduce —
    # affine permutations in HUGEINT mod-2^64, FNV-1a band folds, bit
    # ops + bit_count for Hamming.  Coefficients are the engine's own
    # RandomState(42) family, embedded as literals.
    _mh_rs = np.random.RandomState(42)
    _mh_a = (_mh_rs.randint(1, 1 << 62, size=64, dtype=np.int64)
             .astype(np.uint64) | 1)
    _mh_b = _mh_rs.randint(0, 1 << 62, size=64, dtype=np.int64).astype(np.uint64)
    _mh_perms = ", ".join(
        f"({i}, {int(_mh_a[i])}, {int(_mh_b[i])})" for i in range(64)
    )

    def _fnv_fold(cols):
        acc = "CAST(14695981039346656037 AS UBIGINT)"
        for c in cols:
            acc = (
                f"CAST((CAST(xor({acc}, {c}) AS HUGEINT) * 1099511628211) "
                f"% 18446744073709551616 AS UBIGINT)"
            )
        return acc

    sqls["minhash_pairs"] = f"""
        WITH all_rows AS ({_DUP_UNION}),
        t AS (SELECT doc_id, {_toks('text')} AS toks FROM all_rows),
        g AS (SELECT doc_id,
                     unnest(list_distinct(list_transform(
                       generate_series(1, len(toks) - 2),
                       i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))) AS gram
              FROM t WHERE len(toks) >= 3),
        gh AS (SELECT doc_id,
                      CAST(('0x' || substr(md5(gram), 1, 16)) AS UBIGINT) AS hv
               FROM g),
        perms(i, a, b) AS (VALUES {_mh_perms}),
        sig AS (SELECT doc_id, p.i AS perm,
                       MIN(CAST((CAST(hv AS HUGEINT) * p.a + p.b)
                                % 18446744073709551616 AS UBIGINT)) AS sv
                FROM gh, perms p GROUP BY 1, 2),
        bv AS (SELECT doc_id, perm // 4 AS band,
                      MAX(CASE WHEN perm % 4 = 0 THEN sv END) AS s0,
                      MAX(CASE WHEN perm % 4 = 1 THEN sv END) AS s1,
                      MAX(CASE WHEN perm % 4 = 2 THEN sv END) AS s2,
                      MAX(CASE WHEN perm % 4 = 3 THEN sv END) AS s3
               FROM sig GROUP BY 1, 2),
        bh AS (SELECT doc_id, band,
                      {_fnv_fold(['s0', 's1', 's2', 's3'])} AS bandhash
               FROM bv),
        cand AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
                 FROM bh x JOIN bh y
                   ON x.band = y.band AND x.bandhash = y.bandhash
                  AND x.doc_id < y.doc_id),
        est AS (SELECT c.a, c.b,
                       CAST(SUM(CASE WHEN sa.sv = sb.sv THEN 1 ELSE 0 END)
                            AS DOUBLE) / 64 AS est_jaccard
                FROM cand c
                JOIN sig sa ON sa.doc_id = c.a
                JOIN sig sb ON sb.doc_id = c.b AND sb.perm = sa.perm
                GROUP BY 1, 2)
        SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b, est_jaccard
        FROM est WHERE est_jaccard >= 0.5
    """
    sqls["simhash_pairs"] = f"""
        WITH all_rows AS ({_DUP_UNION}),
        t AS (SELECT doc_id, {_toks('text')} AS toks FROM all_rows),
        occ AS (SELECT doc_id, unnest(toks) AS tok FROM t),
        h AS (SELECT doc_id, tok,
                     CAST(('0x' || substr(md5(tok), 1, 16)) AS UBIGINT) AS hv
              FROM occ),
        lanes AS (SELECT doc_id, L.range AS lane,
                         SUM(CASE WHEN (hv >> CAST(L.range AS INTEGER)) & 1 = 1
                                  THEN 1 ELSE -1 END) AS s
                  FROM h, range(64) L GROUP BY 1, 2),
        sh AS (SELECT doc_id,
                      SUM(CASE WHEN s > 0
                               THEN CAST(1 AS UBIGINT) << CAST(lane AS INTEGER)
                               ELSE CAST(0 AS UBIGINT) END) AS simhash
               FROM lanes GROUP BY doc_id),
        pairs AS (
          SELECT a.doc_id AS a, b.doc_id AS b,
                 bit_count(xor(a.simhash, b.simhash)) AS hamming
          FROM sh a JOIN sh b ON a.doc_id < b.doc_id
          WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
            AND EXISTS (
              SELECT 1 FROM range(4) bi
              WHERE (a.simhash >> CAST(16*bi.range AS INTEGER)) & 65535
                  = (b.simhash >> CAST(16*bi.range AS INTEGER)) & 65535)
        )
        SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
               CAST(hamming AS BIGINT) AS hamming
        FROM pairs
    """
    sqls["mm_frames"] = """
        WITH m AS (
          SELECT i.range AS media_id,
                 8 + i.range % 24 AS n_frames,
                 'FAKEVID' || chr(CAST(8 + i.range % 24 AS INTEGER))
                   || repeat(chr(CAST(32 + i.range % 95 AS INTEGER)),
                             CAST(200 + 53 * (i.range % 11) AS INTEGER)) AS payload
          FROM range(48) i),
        fr AS (
          SELECT media_id, CAST(4 * f.range AS INTEGER) AS frame,
                 md5(payload || ':' || CAST(4 * f.range AS VARCHAR)) AS checksum
          FROM m, range(8) f WHERE 4 * f.range < n_frames)
        SELECT CAST(media_id AS BIGINT) AS media_id, frame, checksum
        FROM fr ORDER BY media_id, frame
    """
    sqls["knn_lsh"] = """
        WITH q AS (
          SELECT vec_id, i.range AS i,
                 CAST(floor(CAST(embedding[CAST(i.range AS INT)+1] AS DOUBLE)
                            * 1000 + 0.5) AS BIGINT) AS v
          FROM embeddings, range(64) i),
        dots AS (
          SELECT vec_id, j.range AS j,
                 SUM(v * (CASE WHEN bit_count(CAST(i AS BIGINT)
                                              & CAST(j.range AS BIGINT)) % 2 = 0
                               THEN 1 ELSE -1 END)) AS d
          FROM q, range(8) j GROUP BY 1, 2),
        keys AS (
          SELECT vec_id,
                 SUM(CASE WHEN d > 0 THEN 1 << CAST(j AS INTEGER) ELSE 0 END) AS key
          FROM dots GROUP BY 1),
        vecs AS (SELECT vec_id, list(CAST(v AS DOUBLE) ORDER BY i) AS qv
                 FROM q GROUP BY 1),
        qs AS (SELECT k.vec_id AS qid, k.key, v.qv
               FROM keys k JOIN vecs v ON v.vec_id = k.vec_id
               WHERE k.vec_id < 5),
        cands AS (
          SELECT qs.qid, k2.vec_id AS nid,
                 list_cosine_similarity(qs.qv, v2.qv) AS sim
          FROM qs JOIN keys k2 ON k2.key = qs.key AND k2.vec_id != qs.qid
          JOIN vecs v2 ON v2.vec_id = k2.vec_id),
        ranked AS (SELECT qid, nid,
                          row_number() OVER (PARTITION BY qid
                                             ORDER BY sim DESC, nid ASC) AS rnk
                   FROM cands)
        SELECT CAST(qid AS BIGINT) AS query_id, CAST(rnk AS BIGINT) AS rank,
               CAST(nid AS BIGINT) AS neighbor_id
        FROM ranked WHERE rnk <= 5
    """
    # did_you_mean replay (round 5): per-token padded-trigram Jaccard
    # candidates over the simple-chain vocabulary + the phrase beam.
    # The trigram literals per query token are static strings, computed
    # here and inlined.
    def _dym_trigrams(term):
        p = f"^{term}$"
        if len(p) < 3:
            return [p]
        return sorted({p[i:i + 3] for i in range(len(p) - 2)})

    def _dym_tok_choice(pos, tok):
        tris = _dym_trigrams(tok)
        glits = ", ".join(f"'{g}'" for g in tris)
        ntri = len(tris)
        cand = f"""
          SELECT vt.term, CAST(g.cnt AS DOUBLE) / ({ntri} + c.n - g.cnt) AS sim, vt.df
          FROM (SELECT term, COUNT(*) AS cnt FROM vg
                WHERE gram IN ({glits}) GROUP BY term) g
          JOIN vtc c ON c.term = g.term
          JOIN vterm vt ON vt.term = g.term
          WHERE abs(length(vt.term) - {len(tok)}) <= 2
            AND vt.term <> '{tok}'
            AND CAST(g.cnt AS DOUBLE) / ({ntri} + c.n - g.cnt) >= 0.25
        """
        return f"""
      SELECT {pos} AS pos, t.term, t.sim, t.is_corr, t.rnk FROM (
        SELECT '{tok}' AS term, 1.0 AS sim, 0 AS is_corr, 1 AS rnk
        WHERE EXISTS (SELECT 1 FROM vterm WHERE term = '{tok}')
        UNION ALL
        SELECT term, sim, 1 AS is_corr, rnk FROM (
          SELECT term, sim, df,
                 row_number() OVER (ORDER BY sim DESC, df DESC, term ASC) AS rnk
          FROM ({cand})
        ) WHERE rnk <= 3
          AND NOT EXISTS (SELECT 1 FROM vterm WHERE term = '{tok}')
        UNION ALL
        SELECT '{tok}' AS term, 1.0, 0, 1
        WHERE NOT EXISTS (SELECT 1 FROM vterm WHERE term = '{tok}')
          AND NOT EXISTS (SELECT 1 FROM ({cand}))
      ) t"""

    def _dym_query_block(qi, qtext):
        toks = qtext.split()
        chs = "\n      UNION ALL\n".join(
            _dym_tok_choice(p, t) for p, t in enumerate(toks)
        )
        return f"""
    ch{qi} AS (
    {chs}
    ),
    base{qi} AS (SELECT pos, term, sim FROM ch{qi} WHERE rnk = 1),
    vars{qi} AS (SELECT -1 AS vpos, 1 AS vrnk, 0 AS vord
                 UNION ALL
                 SELECT pos, rnk, pos * 10 + rnk FROM ch{qi} WHERE rnk > 1),
    asm{qi} AS (
      SELECT v.vord,
             string_agg(coalesce(a.term, b.term), ' ' ORDER BY b.pos) AS suggestion,
             product(coalesce(a.sim, b.sim)) AS score
      FROM vars{qi} v
      JOIN base{qi} b ON TRUE
      LEFT JOIN ch{qi} a ON a.pos = b.pos AND a.pos = v.vpos AND a.rnk = v.vrnk
      GROUP BY v.vord),
    ded{qi} AS (
      SELECT suggestion, score,
             row_number() OVER (PARTITION BY suggestion ORDER BY vord) AS dup
      FROM asm{qi}),
    out{qi} AS (
      SELECT '{qtext}' AS query, suggestion, score
      FROM ded{qi}
      WHERE dup = 1 AND suggestion <> '{qtext}'
        AND EXISTS (SELECT 1 FROM ch{qi} WHERE is_corr = 1)
      ORDER BY score DESC, suggestion ASC
      LIMIT 3)
    """

    _dym_queries = ["tabel scan merje slow", "custmer order data"]
    _dym_blocks = ",".join(
        _dym_query_block(i, q) for i, q in enumerate(_dym_queries)
    )
    sqls["did_you_mean"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        vq AS (SELECT doc_id, unnest(list_distinct({_toks('body')})) AS term
               FROM docs),
        vterm AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df
                  FROM vq GROUP BY term),
        vgraw AS (SELECT term,
                         unnest(CASE WHEN length('^' || term || '$') < 3
                                     THEN ['^' || term || '$']
                                     ELSE list_transform(
                                       generate_series(1, length('^' || term || '$') - 2),
                                       i -> substr('^' || term || '$', CAST(i AS INTEGER), 3))
                                END) AS gram
                  FROM vterm),
        vg AS (SELECT DISTINCT term, gram FROM vgraw),
        vtc AS (SELECT term, COUNT(*) AS n FROM vg GROUP BY term),
        {_dym_blocks}
        SELECT * FROM out0 UNION ALL SELECT * FROM out1
    """
    sqls["facet_auto_date_histogram"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        w AS (SELECT doc_id,
                     {_WARC} + to_days(CAST(doc_id AS INTEGER)) AS ts
              FROM m),
        mm AS (SELECT epoch_us(min(ts)) AS a, epoch_us(max(ts)) AS b,
                      min(ts) AS ta, max(ts) AS tb FROM w),
        sel AS (SELECT CASE
          WHEN b // 1000000 - a // 1000000 + 1 <= 10 THEN '1s'\n          WHEN b // 5000000 - a // 5000000 + 1 <= 10 THEN '5s'\n          WHEN b // 10000000 - a // 10000000 + 1 <= 10 THEN '10s'\n          WHEN b // 30000000 - a // 30000000 + 1 <= 10 THEN '30s'\n          WHEN b // 60000000 - a // 60000000 + 1 <= 10 THEN '60s'\n          WHEN b // 300000000 - a // 300000000 + 1 <= 10 THEN '300s'\n          WHEN b // 600000000 - a // 600000000 + 1 <= 10 THEN '600s'\n          WHEN b // 1800000000 - a // 1800000000 + 1 <= 10 THEN '1800s'\n          WHEN b // 3600000000 - a // 3600000000 + 1 <= 10 THEN '3600s'\n          WHEN b // 10800000000 - a // 10800000000 + 1 <= 10 THEN '10800s'\n          WHEN b // 43200000000 - a // 43200000000 + 1 <= 10 THEN '43200s'\n          WHEN b // 86400000000 - a // 86400000000 + 1 <= 10 THEN '86400s'\n          WHEN b // 604800000000 - a // 604800000000 + 1 <= 10 THEN '604800s'
          WHEN date_diff('month', date_trunc('month', ta),
                         date_trunc('month', tb)) + 1 <= 10 THEN 'month'
          WHEN date_diff('quarter', date_trunc('quarter', ta),
                         date_trunc('quarter', tb)) + 1 <= 10 THEN 'quarter'
          ELSE 'year' END AS rung FROM mm),
        bk AS (SELECT CASE WHEN s.rung SIMILAR TO '[0-9]+s' THEN
                 make_timestamp((epoch_us(w.ts) //
                   (CAST(rtrim(s.rung, 's') AS BIGINT) * 1000000)) *
                   (CAST(rtrim(s.rung, 's') AS BIGINT) * 1000000))
               ELSE date_trunc(s.rung, w.ts) END AS bucket,
               s.rung AS interval
              FROM w, sel s)
        SELECT CAST(bucket AS TIMESTAMP) AS bucket,
               CAST(count(*) AS BIGINT) AS n_docs, interval
        FROM bk GROUP BY 1, 3 ORDER BY n_docs DESC, bucket ASC
    """
    sqls["facet_date_histogram_week"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        w AS (SELECT doc_id,
                     {_WARC} + to_days(CAST(doc_id AS INTEGER)) AS warc_ts
              FROM m)
        SELECT CAST(date_trunc('week', warc_ts) AS TIMESTAMP) AS bucket,
               CAST(count(*) AS BIGINT) AS n_docs
        FROM w GROUP BY 1 ORDER BY n_docs DESC, bucket ASC
    """
    sqls["facet_date_histogram_month"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        w AS (SELECT doc_id,
                     {_WARC} + to_days(CAST(doc_id AS INTEGER)) AS warc_ts
              FROM m)
        SELECT CAST(date_trunc('month', warc_ts) AS TIMESTAMP) AS bucket,
               CAST(count(*) AS BIGINT) AS n_docs
        FROM w GROUP BY 1 ORDER BY n_docs DESC, bucket ASC
    """
    sqls["facet_pipeline_siblings"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT length(d.body) AS blen, {_WARC} AS warc_ts
              FROM docs d JOIN m USING (doc_id)),
        b AS (SELECT CAST(floor(epoch_us(warc_ts) / 60000000) AS BIGINT) AS bucket,
                     CAST(count(*) AS BIGINT) AS n_docs,
                     CAST(sum(blen) AS BIGINT) AS sum_v
              FROM v GROUP BY 1)
        SELECT bucket, n_docs, sum_v,
               CAST(sum_v - LAG(sum_v, 2) OVER (ORDER BY bucket) AS BIGINT)
                 AS serial_diff,
               100.0 * CAST(sum_v AS DOUBLE) / SUM(sum_v) OVER () AS pct_of_sum,
               CAST(row_number() OVER (ORDER BY sum_v DESC, bucket ASC) AS BIGINT)
                 AS sort_rank,
               CAST(SUM(sum_v) OVER () AS DOUBLE) / COUNT(*) OVER () AS avg_bucket,
               CAST(SUM(sum_v) OVER () AS BIGINT) AS sum_bucket,
               CAST(MIN(sum_v) OVER () AS BIGINT) AS min_bucket,
               CAST(MAX(sum_v) OVER () AS BIGINT) AS max_bucket,
               CAST(FIRST_VALUE(bucket) OVER (ORDER BY sum_v ASC, bucket ASC
                 ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
                 AS BIGINT) AS min_bucket_key,
               CAST(FIRST_VALUE(bucket) OVER (ORDER BY sum_v DESC, bucket ASC
                 ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
                 AS BIGINT) AS max_bucket_key,
               CAST(COUNT(*) OVER () AS BIGINT) AS stats_bucket_count
        FROM b ORDER BY bucket
    """
    sqls["facet_pipeline"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT length(d.body) AS blen, {_WARC} AS warc_ts
              FROM docs d JOIN m USING (doc_id)),
        b AS (SELECT CAST(floor(epoch_us(warc_ts) / 600000000) AS BIGINT) AS bucket,
                     CAST(count(*) AS BIGINT) AS n_docs,
                     CAST(sum(blen) AS BIGINT) AS sum_v
              FROM v GROUP BY 1)
        SELECT bucket, n_docs, sum_v,
               CAST(SUM(sum_v) OVER (ORDER BY bucket) AS BIGINT) AS cum_sum,
               CAST(sum_v - LAG(sum_v) OVER (ORDER BY bucket) AS BIGINT) AS deriv,
               CAST(SUM(sum_v) OVER w AS DOUBLE) / COUNT(*) OVER w AS moving_avg,
               CAST(sum_v AS DOUBLE) / n_docs AS avg_v
        FROM b
        WINDOW w AS (ORDER BY bucket ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
        ORDER BY bucket
    """
    sqls["facet_matrix_stats"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms_in})),
        v AS (SELECT length(d.body) AS x,
                     length(d.body) - length(replace(d.body, 'e', '')) AS y
              FROM docs d JOIN m USING (doc_id)),
        s AS (SELECT CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
                     CAST(sum(x * x) AS BIGINT) AS sxx,
                     CAST(sum(y * y) AS BIGINT) AS syy,
                     CAST(sum(x * y) AS BIGINT) AS sxy
              FROM v)
        SELECT n AS n_docs,
               CAST(sx AS DOUBLE) / n AS mean_x,
               CAST(sy AS DOUBLE) / n AS mean_y,
               (CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) * sx / n) / n AS var_x,
               (CAST(syy AS DOUBLE) - CAST(sy AS DOUBLE) * sy / n) / n AS var_y,
               (CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE) * sy / n) / n AS cov_xy,
               ((CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE) * sy / n) / n)
                 / (sqrt((CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) * sx / n) / n)
                    * sqrt((CAST(syy AS DOUBLE) - CAST(sy AS DOUBLE) * sy / n) / n))
                 AS corr_xy
        FROM s
    """
    # pack_ids materializes the REAL sequences; its digest must equal
    # the digest-only pack_sequences kernel, so they share one replay
    sqls["pack_ids"] = sqls["pack_sequences"]
    sqls["range_join"] = """
        WITH bands(band, lo, hi) AS (VALUES
            ('low', 0.0, 50.0), ('mid', 25.0, 100.0),
            ('high', 75.0, 150.0), ('huge', 100.0, 100000.0))
        SELECT CAST(e.event_id AS BIGINT) AS event_id, b.band AS band,
               e.value AS value, CAST(b.lo AS DOUBLE) AS lo,
               CAST(b.hi AS DOUBLE) AS hi
        FROM events e JOIN bands b ON e.value >= b.lo AND e.value < b.hi
        ORDER BY event_id, band
    """
    # mm_decode_dims: the dims-from-size decode variant is pure
    # arithmetic on the synthetic payload length 7 + 100 + 37*(i%13)
    sqls["mm_decode_dims"] = """
        WITH s AS (SELECT unnest(range(0, 64)) AS i),
        p AS (SELECT i, 107 + 37 * (i % 13) AS nb FROM s)
        SELECT CAST(i AS BIGINT) AS media_id,
               CAST(16 + nb % 64 AS BIGINT) AS width,
               CAST(16 + (nb // 7) % 64 AS BIGINT) AS height,
               CAST(3 AS BIGINT) AS channels,
               CAST(64 AS BIGINT) AS resized_to
        FROM p ORDER BY media_id
    """
    # fleet-served variants share their local path's replay — ONE
    # oracle checks both implementations through the driver gate
    sqls["query_string_sharded"] = sqls["query_string"]
    # the DSL body lowers to the SAME AST -> same SQL replay
    sqls["dsl_bool_sharded"] = sqls["query_string"]
    # the range-filter DSL ranks the same page as the raw filtered replay
    sqls["dsl_range_sharded"] = sqls["bm25_topk_filtered"]
    sqls["facet_terms_served"] = sqls["facet_terms"]
    sqls["dsl_function_score_sharded"] = sqls["function_score"]
    sqls["dsl_mlt_sharded"] = sqls["more_like_this"]
    # the full composition: the curate pipeline's survivor set (its
    # ENTIRE five-stage SQL as a subquery) defines the corpus the BM25
    # replay ranks over — statistics are the survivors' own.  As in
    # `curate`, MATERIALIZED keeps DuckDB from inlining (and so
    # re-planning) the whole curate chain, recursive `walk` included,
    # under each reader of `surv`; it changes the plan, not the rows.
    sqls["curate_then_index"] = f"""
        WITH surv AS MATERIALIZED (SELECT doc_id FROM ({sqls['curate']})),
        docs AS MATERIALIZED (SELECT u.doc_id, u.text AS body
                              FROM ({_DUP_UNION}) u JOIN surv USING (doc_id)),
        toks AS MATERIALIZED (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS MATERIALIZED (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scores AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          GROUP BY tf.doc_id)
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10
    """
    # shared scaffolding for the round-3 DSL-clause oracles: tokenized
    # body, doc lengths, corpus stats, per-term tf/df (the established
    # BM25 replay shape)
    _DSL_BASE = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
               WHERE term IN ({terms_in}) GROUP BY doc_id, term),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
    """
    _TERM_SCORE = """
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          {where}
          GROUP BY tf.doc_id
    """
    sqls["terms_set_covering"] = f"""
        {_DSL_BASE},
        cover AS (SELECT tf.doc_id,
                         SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                             * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score,
                         count(DISTINCT tf.term) AS c
                  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
                  GROUP BY tf.doc_id)
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM cover WHERE c >= 3
        ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    sqls["distance_feature"] = f"""
        {_DSL_BASE},
        s1 AS ({_TERM_SCORE.format(where="WHERE tf.term = 'table'")}),
        w AS (SELECT doc_id,
                     TIMESTAMP '2025-01-01 00:00:00'
                       + to_microseconds(doc_id * 1000000)
                       + CASE WHEN doc_id % 10 = 0 THEN INTERVAL 1 HOUR
                              ELSE INTERVAL 0 SECOND END AS warc_ts
              FROM documents),
        sc AS (SELECT s1.doc_id,
                      s1.score
                        + 5.0 * 3600000000.0
                          / (3600000000.0
                             + abs(epoch_us(w.warc_ts)
                                   - epoch_us(TIMESTAMP '2025-01-01 00:30:00'))) AS score
               FROM s1 JOIN w USING (doc_id))
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM sc ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    sqls["dsl_dismax"] = f"""
        {_DSL_BASE},
        s1 AS ({_TERM_SCORE.format(where="WHERE tf.term = 'merge'")}),
        s2 AS ({_TERM_SCORE.format(where="WHERE tf.term = 'slow'")}),
        tokpos AS (SELECT doc_id, unnest({toks_body}) AS term,
                          generate_subscripts({toks_body}, 1) AS pos FROM docs),
        pf AS (SELECT a.doc_id, count(*) AS pf
               FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
               WHERE a.term = 'table' AND b.term = 'scan' GROUP BY a.doc_id),
        pidf AS (SELECT SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))) AS idf
                 FROM df, stats WHERE df.term IN ('table', 'scan')),
        s3 AS (SELECT pf.doc_id,
                      pidf.idf * pf.pf
                        / (pf.pf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl)) AS score
               FROM pf JOIN dl USING (doc_id), pidf, stats),
        ids AS (SELECT doc_id FROM s1 UNION SELECT doc_id FROM s2
                UNION SELECT doc_id FROM s3),
        legs AS (SELECT ids.doc_id,
                        COALESCE(s1.score, 0.0) AS v1,
                        COALESCE(s2.score, 0.0) AS v2,
                        COALESCE(s3.score, 0.0) AS v3
                 FROM ids LEFT JOIN s1 USING (doc_id)
                          LEFT JOIN s2 USING (doc_id)
                          LEFT JOIN s3 USING (doc_id)),
        dism AS (SELECT doc_id,
                        greatest(v1, v2, v3)
                          + 0.3 * (v1 + v2 + v3 - greatest(v1, v2, v3)) AS score
                 FROM legs)
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM dism ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    sqls["dsl_ids_matchall"] = f"""
        {_DSL_BASE},
        st AS ({_TERM_SCORE.format(where="WHERE tf.term = 'table'")}),
        hits AS (SELECT d.doc_id,
                        1.0 + COALESCE(st.score, 0.0)
                            + CASE WHEN d.doc_id IN (3, 7, 11)
                                   THEN 2.5 ELSE 0.0 END AS score
                 FROM docs d LEFT JOIN st USING (doc_id))
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM hits ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    sqls["dsl_constscore_range"] = f"""
        {_DSL_BASE},
        scores AS ({_TERM_SCORE.format(where="")}),
        hits AS (SELECT s.doc_id,
                        s.score + CASE WHEN {_WARC} >= TIMESTAMP '2025-01-01 00:05:00'
                                       THEN 0.5 ELSE 0.0 END AS score
                 FROM scores s JOIN documents USING (doc_id))
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM hits ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    sqls["dsl_phrase_prefix"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                         (SELECT CAST(SUM(dl) AS DOUBLE) / count(*) FROM dl WHERE dl > 0) AS avgdl),
        -- the engine expands the prefix against the term dictionary =
        -- the corpus's distinct tokens (dictionary order, cap 50 — the
        -- expansion set here is far smaller)
        fdf AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
                WHERE term = 'table' OR term LIKE 's%' GROUP BY term),
        tokpos AS (SELECT doc_id, unnest({toks_body}) AS term,
                          generate_subscripts({toks_body}, 1) AS pos FROM docs),
        pf AS (SELECT a.doc_id, b.term AS etail, count(*) AS pf
               FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
               WHERE a.term = 'table' AND b.term LIKE 's%'
               GROUP BY a.doc_id, b.term),
        pscore AS (SELECT pf.doc_id,
                          SUM((idf1.idf + ln(1 + (stats.n - fdf.df + 0.5) / (fdf.df + 0.5)))
                              * pf.pf / (pf.pf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
                   FROM pf
                   JOIN fdf ON fdf.term = pf.etail
                   JOIN dl USING (doc_id),
                   (SELECT ln(1 + (stats.n - fdf.df + 0.5) / (fdf.df + 0.5)) AS idf
                    FROM fdf, stats WHERE fdf.term = 'table') idf1,
                   stats
                   GROUP BY pf.doc_id)
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM pscore ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    sqls["dsl_match_bool_prefix"] = f"""
        {_DSL_BASE},
        sm AS ({_TERM_SCORE.format(where="WHERE tf.term = 'merge'")}),
        pref AS (SELECT DISTINCT doc_id FROM toks WHERE term LIKE 's%'),
        ids AS (SELECT doc_id FROM sm UNION SELECT doc_id FROM pref),
        hits AS (SELECT ids.doc_id,
                        COALESCE(sm.score, 0.0)
                          + CASE WHEN ids.doc_id IN (SELECT doc_id FROM pref)
                                 THEN 1.0 ELSE 0.0 END AS score
                 FROM ids LEFT JOIN sm USING (doc_id))
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM hits ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    sqls["simple_qs_sharded"] = f"""
        {_DSL_BASE},
        leg1 AS (
          SELECT tf.doc_id,
                 SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))) AS score
          FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
          WHERE tf.term IN ('merge', 'slow')
          GROUP BY tf.doc_id
          HAVING count(DISTINCT tf.term) = 2),
        tokpos AS (SELECT doc_id, unnest({toks_body}) AS term,
                          generate_subscripts({toks_body}, 1) AS pos FROM docs),
        pf AS (SELECT a.doc_id, count(*) AS pf
               FROM tokpos a JOIN tokpos b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
               WHERE a.term = 'table' AND b.term = 'scan' GROUP BY a.doc_id),
        pidf AS (SELECT SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))) AS idf
                 FROM df, stats WHERE df.term IN ('table', 'scan')),
        excl AS (SELECT DISTINCT doc_id FROM toks WHERE term = 'hash'),
        leg2 AS (SELECT pf.doc_id,
                        pidf.idf * pf.pf
                          / (pf.pf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl)) AS score
                 FROM pf JOIN dl USING (doc_id), pidf, stats),
        ids AS (SELECT doc_id FROM leg1 UNION SELECT doc_id FROM leg2),
        hits AS (SELECT ids.doc_id,
                        COALESCE(leg1.score, 0.0) + COALESCE(leg2.score, 0.0) AS score
                 FROM ids LEFT JOIN leg1 USING (doc_id)
                          LEFT JOIN leg2 USING (doc_id)
                 WHERE ids.doc_id NOT IN (SELECT doc_id FROM excl))
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM hits ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    sqls["search_sort_sharded"] = f"""
        WITH docs AS (SELECT doc_id, {_BODY} AS body FROM documents),
        toks AS (SELECT doc_id, unnest({toks_body}) AS term FROM docs),
        matched AS (SELECT DISTINCT doc_id FROM toks
                    WHERE term IN ({terms_in})),
        ordered AS (SELECT m.doc_id, {_WARC} AS sort_key, {_URL} AS url,
                           row_number() OVER (
                               ORDER BY {_WARC} DESC, m.doc_id ASC) AS rn
                    FROM matched m JOIN documents USING (doc_id))
        SELECT CAST(rn AS BIGINT) AS rank, CAST(doc_id AS BIGINT) AS doc_id,
               url, sort_key
        FROM ordered WHERE rn BETWEEN 4 AND 13 ORDER BY rn
    """
    sqls["dsl_boosting_regexp"] = f"""
        {_DSL_BASE},
        scores AS ({_TERM_SCORE.format(where="")}),
        neg AS (SELECT DISTINCT doc_id FROM toks
                WHERE regexp_full_match(term, 'h.*h')),
        hits AS (SELECT s.doc_id,
                        CASE WHEN s.doc_id IN (SELECT doc_id FROM neg)
                             THEN s.score * 0.25 ELSE s.score END AS score
                 FROM scores s)
        SELECT CAST(row_number() OVER (ORDER BY round(score, 9) DESC, doc_id ASC) AS BIGINT) AS rank,
               CAST(doc_id AS BIGINT) AS doc_id
        FROM hits ORDER BY round(score, 9) DESC, doc_id ASC LIMIT 10
    """
    return sqls
