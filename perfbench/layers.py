"""Per-layer metrics: where spans go, and how spans become numbers.

``instrument`` wraps the driver-side entry points of each layer (module
and class attributes of ``docs_indexer_ray``) with spans.  Ray workers
are never patched; worker-side stage times come from the records the
build already writes into its manifest (``partitions[].wall_s``,
``n_postings``, ``bytes``, ``total_tokens``).  On one CPU the encode
tasks run one at a time, so their walls add up to the encode phase.

``PER_LAYER`` lists every per-layer metric with its unit, its better
direction and the end-to-end metric and workload it should move.  A
traced run reports all of them; a layer the workload never enters
reads 0.
"""

from __future__ import annotations

import os
import statistics

from spans import Tracer

# name, unit, better, end-to-end metric (workload) it should move
PER_LAYER = [
    ("stages.docstore.wall_s", "s", "lower", "throughput_per_cpu_s (build, bulk_mixed)"),
    ("stages.docstore.dedup_kept_ratio", "ratio", "higher", "throughput_per_cpu_s (build, bulk_mixed)"),
    ("stages.docstore.bytes", "B", "lower", "index_bytes_per_input_byte (build)"),
    ("stages.tokenize.wall_s", "s", "lower", "throughput_per_cpu_s (build, bulk_mixed)"),
    ("stages.tokenize.tokens_per_s", "1/s", "higher", "throughput_per_cpu_s (build, bulk_mixed)"),
    ("index.segments.busy_s", "s", "lower", "throughput_per_cpu_s (build)"),
    ("index.segments.max_s", "s", "lower", "throughput_per_cpu_s (build)"),
    ("index.segments.median_s", "s", "lower", "throughput_per_cpu_s (build)"),
    ("index.segments.postings", "count", "lower", "throughput_per_cpu_s (build)"),
    ("index.segments.bytes_per_posting", "B", "lower", "index_bytes_per_input_byte (build); trade-off on p50_cpu_ms (topk_longtail)"),
    ("index.manifest.publish_s", "s", "lower", "throughput_per_cpu_s (build)"),
    ("stages.docstore.fixed_s", "s", "lower", "throughput_per_cpu_s (build)"),
    ("stages.docstore.per_kdoc_ms", "ms", "lower", "throughput_per_cpu_s (build)"),
    ("stages.tokenize.fixed_s", "s", "lower", "throughput_per_cpu_s (build)"),
    ("stages.tokenize.per_kdoc_ms", "ms", "lower", "throughput_per_cpu_s (build)"),
    ("index.segments.fixed_s", "s", "lower", "throughput_per_cpu_s (build)"),
    ("index.segments.per_kdoc_ms", "ms", "lower", "throughput_per_cpu_s (build)"),
    ("query.dsl.lower_ms", "ms", "lower", "p50_cpu_ms (search_hot)"),
    ("query.qstring.eval_ms", "ms", "lower", "p50_cpu_ms (search_hot)"),
    ("query.search.fetch_ms", "ms", "lower", "p50_cpu_ms (search_hot)"),
    ("query.highlight.snippet_ms", "ms", "lower", "p50_cpu_ms (search_hot)"),
    ("serve_http.overhead_ms", "ms", "lower", "p50_cpu_ms (search_hot)"),
    ("query.reader.postings_ms", "ms", "lower", "p50_cpu_ms (topk_longtail); tail_cpu_ms (bulk_mixed)"),
    ("query.reader.postings_hit_ratio", "ratio", "higher", "p50_cpu_ms (topk_longtail); tail_cpu_ms (bulk_mixed)"),
    ("query.segments_io.decode_ms", "ms", "lower", "p50_cpu_ms (topk_longtail)"),
    ("query.bm25.wand_ms", "ms", "lower", "p50_cpu_ms (topk_longtail)"),
    ("query.bm25.taat_ms", "ms", "lower", "p50_cpu_ms (topk_longtail)"),
    ("query.reader.open_s", "s", "lower", "setup_s (all); throughput_per_cpu_s (bulk_mixed)"),
    ("pipelines.incremental.filter_s", "s", "lower", "throughput_per_cpu_s (bulk_mixed)"),
    ("pipelines.incremental.delta_build_s", "s", "lower", "throughput_per_cpu_s (bulk_mixed)"),
    ("pipelines.incremental.docs_indexed_ratio", "ratio", "higher", "throughput_per_cpu_s (bulk_mixed)"),
    ("index.merge.merge_s", "s", "lower", "throughput_per_cpu_s (bulk_mixed)"),
    ("serve_http.reload_s", "s", "lower", "throughput_per_cpu_s (bulk_mixed)"),
    ("search.first_after_reload_ms", "ms", "lower", "tail_cpu_ms (bulk_mixed)"),
    ("trace.overhead_s", "s", "lower", "none: traced wall minus untraced wall"),
    ("trace.remainder_s", "s", "lower", "none: traced time no layer span covers"),
    ("trace.unattributed_s", "s", "lower", "none: untraced wall minus the layer self times"),
]

def instrument(tr: Tracer) -> None:
    """Wrap every layer entry point the benchmark reaches with spans."""
    import docs_indexer_ray.index.build as build_mod
    import docs_indexer_ray.index.manifest as mf
    import docs_indexer_ray.pipelines.incremental as inc
    import docs_indexer_ray.query.bm25 as bm25
    import docs_indexer_ray.query.dsl as dsl
    import docs_indexer_ray.query.highlight as hl
    import docs_indexer_ray.query.qstring as qs
    import docs_indexer_ray.query.search as search
    import docs_indexer_ray.stages.docstore as docstore
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.segments_io import TermPostings
    from docs_indexer_ray.serve_http import SearchServer

    first_lookups: set = set()
    requests = {"query.bm25.topk", "query.search.response", "serve_http.search"}

    def count_postings(reader, term):
        # a request's first lookup of a term decides hit or miss; its
        # repeat lookups (plan choice, then scoring) always hit
        key = (tr.enclosing(requests), id(reader), term)
        if key not in first_lookups:
            first_lookups.add(key)
            tr.count("postings.hit" if term in reader._postings_cache else "postings.miss")

    tr.wrap(build_mod, "build_index", "index.build")
    tr.wrap(docstore, "build_docs_store", "stages.docstore")
    tr.wrap(build_mod, "_build_segments_all_chains", "index.segments.phase")
    tr.wrap(build_mod, "_detect_heavy_terms_all", "stages.tokenize.heavy_sample")
    tr.wrap(mf, "write_manifest", "index.manifest.write")
    tr.wrap(mf, "publish", "index.manifest.publish")
    tr.wrap(inc, "incremental_update", "pipelines.incremental.update")
    tr.wrap(inc, "build_index", "pipelines.incremental.delta_build")
    tr.wrap(inc, "merge_many", "index.merge")
    tr.wrap(dsl, "dsl_to_node", "query.dsl.lower")
    tr.wrap(qs, "_eval", "query.qstring.eval")
    tr.wrap(search, "search_response", "query.search.response")
    tr.wrap(hl, "best_snippet", "query.highlight.snippet")
    tr.wrap(bm25, "topk", "query.bm25.topk")
    tr.wrap(bm25, "wand_topk", "query.bm25.wand")
    tr.wrap(bm25, "score_topk", "query.bm25.taat")
    tr.wrap(IndexReader, "__init__", "query.reader.open")
    tr.wrap(IndexReader, "postings", "query.reader.postings", before=count_postings)
    tr.wrap(IndexReader, "fetch_docs", "query.search.fetch")
    for attr in ("decode_all", "decode_block", "decode_range"):
        tr.wrap(TermPostings, attr, "query.segments_io.decode")
    tr.wrap(SearchServer, "_search_post", "serve_http.search")
    tr.wrap(SearchServer, "_bulk", "serve_http.bulk")
    tr.wrap(SearchServer, "_reload", "serve_http.reload")


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


def build_split(tr: Tracer, root: dict, man: dict) -> dict[str, float]:
    """Self time of each build layer under one ``index.build`` span,
    plus the root's own time under ``index.build``; the values add up
    to the root's duration.

    The segments phase span covers tokenize + spill and the encode
    wave; the encode tasks' own walls (manifest ``partitions``) are
    ``index.segments`` and the rest of the phase is ``stages.tokenize``.
    """
    st = Tracer.self_times(tr.under(root))
    busy = sum(p["wall_s"] for p in man["partitions"])
    split = {
        "stages.docstore": st.get("stages.docstore", 0.0),
        "stages.tokenize": st.get("index.segments.phase", 0.0)
        + st.get("stages.tokenize.heavy_sample", 0.0)
        - busy,
        "index.segments": busy,
        "index.manifest": st.get("index.manifest.write", 0.0)
        + st.get("index.manifest.publish", 0.0),
    }
    split["index.build"] = (root["end"] - root["start"]) - sum(split.values())
    return split


def build_metrics(split: dict, man: dict, bdir: str, input_rows: int) -> dict[str, float]:
    parts = man["partitions"]
    walls = [p["wall_s"] for p in parts]
    postings = sum(p["n_postings"] for p in parts)
    return {
        "stages.docstore.wall_s": split["stages.docstore"],
        "stages.docstore.dedup_kept_ratio": man["n_docs"] / input_rows,
        "stages.docstore.bytes": dir_bytes(os.path.join(bdir, "docs")),
        "stages.tokenize.wall_s": split["stages.tokenize"],
        "stages.tokenize.tokens_per_s": man["total_tokens"] / split["stages.tokenize"],
        "index.segments.busy_s": split["index.segments"],
        "index.segments.max_s": max(walls),
        "index.segments.median_s": statistics.median(walls),
        "index.segments.postings": postings,
        "index.segments.bytes_per_posting": sum(p["bytes"] for p in parts) / postings,
        "index.manifest.publish_s": split["index.manifest"],
    }


def fit_fixed_per_doc(small: tuple[int, dict], big: tuple[int, dict]) -> dict[str, float]:
    """Two-point fit of ``wall = fixed + per_doc × n_docs`` per build
    layer, from build splits at two corpus sizes."""
    (n0, s0), (n1, s1) = small, big
    out = {}
    for layer in ("stages.docstore", "stages.tokenize", "index.segments"):
        per_doc = (s1[layer] - s0[layer]) / (n1 - n0)
        out[f"{layer}.fixed_s"] = s1[layer] - per_doc * n1
        out[f"{layer}.per_kdoc_ms"] = per_doc * 1e6
    return out


def query_metrics(st: dict[str, float], n_requests: int) -> dict[str, float]:
    """Per-request self times (ms) of the query layers."""
    names = {
        "query.dsl.lower_ms": "query.dsl.lower",
        "query.qstring.eval_ms": "query.qstring.eval",
        "query.search.fetch_ms": "query.search.fetch",
        "query.highlight.snippet_ms": "query.highlight.snippet",
        "query.reader.postings_ms": "query.reader.postings",
        "query.segments_io.decode_ms": "query.segments_io.decode",
    }
    return {m: st.get(span, 0.0) / n_requests * 1e3 for m, span in names.items()}


def hit_ratio(tr: Tracer) -> float:
    hit, miss = tr.counts["postings.hit"], tr.counts["postings.miss"]
    return hit / (hit + miss) if hit + miss else 0.0
