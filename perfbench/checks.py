"""Correctness gates, run outside the timed region.

Each gate returns the number of mismatching items it found; the
workload adds them to ``failed`` and the run exits nonzero when any
gate fails.
"""

from __future__ import annotations

import math
import os

SCORE_REL = 1e-9


def same_hits(got: list[tuple[int, float]], want: list[tuple[int, float]]) -> bool:
    """Same doc ids in the same order, scores equal to ``SCORE_REL``."""
    if [int(d) for d, _ in got] != [int(d) for d, _ in want]:
        return False
    return all(
        math.isclose(float(a), float(b), rel_tol=SCORE_REL, abs_tol=1e-12)
        for (_, a), (_, b) in zip(got, want)
    )


def rest_hits(response: dict) -> list[tuple[int, float]]:
    """``(doc_id, score)`` pairs of a ``/_search`` response body."""
    return [(h["_id"], h["_score"]) for h in response["hits"]["hits"]]


def search_mismatches(reader, pairs) -> int:
    """REST hit lists against in-process ``query_string_topk`` on the
    same build.  ``pairs`` is ``[(request_body, response_body)]``."""
    from docs_indexer_ray.query.qstring import query_string_topk

    bad = 0
    for body, resp in pairs:
        want = query_string_topk(reader, body["query"], k=body["size"])
        bad += not same_hits(rest_hits(resp), want)
    return bad


def topk_mismatches(reader, results: dict) -> int:
    """``bm25.topk`` results (``terms tuple → hits``) against exact TAAT
    ``score_topk``."""
    from docs_indexer_ray.query.bm25 import score_topk

    return sum(
        not same_hits(got, score_topk(reader, list(terms), k=10))
        for terms, got in results.items()
    )


def oracle_mismatches(index_dir: str, probes: list[str]) -> int:
    """Probe queries through ``score_topk`` against the independent
    in-memory ``MemoryBM25`` built from the docs store."""
    import pyarrow.dataset as pads

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.query.bm25 import score_topk
    from docs_indexer_ray.query.oracle import MemoryBM25
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.stages.extract import SYNTHESIS_INPUT_COLUMNS, synthesize_text

    bdir = mf.current_build(index_dir) or index_dir
    reader = IndexReader(bdir)
    if reader.has_deletes:
        raise ValueError("oracle probe expects a build without tombstones")
    docs = pads.dataset(os.path.join(bdir, "docs"), partitioning="hive").to_table(
        columns=["doc_id", *SYNTHESIS_INPUT_COLUMNS]
    )
    docs = synthesize_text(docs)
    mem = MemoryBM25(reader.chain)
    for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        mem.add(d, t)
    an = Analyzer(reader.chain)
    return sum(
        not same_hits(score_topk(reader, an(q), k=10), mem.search(q, k=10))
        for q in probes
    )
