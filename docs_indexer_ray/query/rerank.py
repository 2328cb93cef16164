"""Neural rerank stage: retrieve wide, re-score a window, return few.

The modern retrieval stack is BM25/ANN retrieval (cheap, corpus-scale)
→ a CROSS-ENCODER re-scoring only the top window (expensive,
output-scale).  This module supplies the window plumbing plus an
honest model stand-in:

* :class:`CrossEncoderStub` — the actor-pool inference stage shape:
  model load belongs in ``__init__`` (once per actor), batched
  ``(query, doc)`` scoring in ``__call__``.  With ``fake=False`` (the
  default) it raises ``NotImplementedError`` — no transformer runtime
  ships in this sandbox.  ``fake=True`` scores by DISTINCT-token
  Jaccard overlap between query and document — deterministic, a real
  relevance proxy, and a single int/int division, so the driver's
  DuckDB oracle pins the whole rerank path bit-exactly (the fake is
  not a toy: it exercises the identical window/rank/tie machinery the
  real model would).
* :func:`rerank_topk` — BM25 top-``window`` → stored-field fetch for
  ONLY those docs (row-group-pruned) → scorer → final order
  ``(ce_score desc, doc_id asc)``.

Scale shape: the scorer sees ≤ ``window`` rows per query by
construction; at fleet scale the same class rides
``map_batches(CrossEncoderStub, concurrency=N, num_gpus=…)`` over a
dataset of (query, candidate) pairs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.analyzer import Analyzer

__all__ = ["CrossEncoderStub", "rerank_topk"]


class CrossEncoderStub:
    def __init__(self, fake: bool = False, chain: str = "simple"):
        self.fake = fake
        # real path: load the cross-encoder weights HERE, once per actor
        self._an = Analyzer(chain)

    def score(self, query_terms: list[str], bodies: list[str]) -> np.ndarray:
        """One score per (query, body) pair, batched."""
        if not self.fake:
            raise NotImplementedError(
                "cross-encoder inference requires a model runtime (not "
                "available); construct with fake=True for the deterministic "
                "token-Jaccard stand-in"
            )
        q = set(query_terms)
        nq = len(q)
        out = np.empty(len(bodies), np.float64)
        for i, b in enumerate(bodies):
            d = set(self._an(b or ""))
            ni = len(q & d)
            denom = len(d) + nq - ni
            out[i] = ni / denom if denom else 0.0
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Dataset-stage form: expects ``query`` + ``body`` columns."""
        scores = []
        for qtext, body in zip(
            batch["query"].to_pylist(), batch["body"].to_pylist()
        ):
            scores.append(float(self.score(self._an(qtext or ""), [body])[0]))
        return batch.append_column("ce_score", pa.array(scores, pa.float64()))


def rerank_topk(
    reader,
    terms: list[str],
    scorer: CrossEncoderStub,
    window: int = 50,
    k: int = 10,
    body_col: str = "body",
) -> list[tuple[int, float]]:
    """Retrieve → rerank: BM25 top-``window`` candidates re-ordered by
    the scorer, ``(ce_score desc, doc_id asc)``, top-``k`` out.  Only
    window docs' stored fields are fetched; BM25 order breaks no ties
    (the cross-encoder owns the final ranking, OpenSearch
    ``rescore``-with-``query_weight: 0`` semantics)."""
    from .bm25 import topk

    base = topk(reader, terms, k=window)
    if not base:
        return []
    ids = [int(d) for d, _ in base]
    t = reader.fetch_docs(ids, ["doc_id", body_col])
    fetched = {
        int(d): b
        for d, b in zip(t["doc_id"].to_pylist(), t[body_col].to_pylist())
    }
    bodies = [fetched.get(d, "") for d in ids]
    scores = scorer.score(terms, bodies)
    ranked = sorted(zip(ids, scores.tolist()), key=lambda p: (-p[1], p[0]))
    return [(d, s) for d, s in ranked[:k]]
