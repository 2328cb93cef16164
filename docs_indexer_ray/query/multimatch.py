"""OpenSearch ``multi_match`` — one query scored across several
fields with per-field boosts.

The reference's search UI issues ``multi_match`` queries against the
document's sub-fields (the four-analyzer family of D8,
``mappings/hugo.json:54-72``) and stored fields, letting OpenSearch
combine per-field BM25 scores.  This module rebuilds both combination
modes on the engine's per-field indexes:

* ``most_fields`` — score(doc) = Σ_f boost_f × BM25_f(q, doc): fields
  reinforce each other (the sub-field recall shape);
* ``best_fields`` — score(doc) = max_f + tie_breaker × (Σ_f − max_f):
  Lucene's ``DisjunctionMaxQuery`` (the "best matching field wins"
  shape, default for OpenSearch ``multi_match``).

Each field is an :class:`~.reader.IndexReader` over its own posting
space (own df / doclens / avgdl — field statistics are per-field,
exactly as Lucene keeps them) plus a boost; the query text is
analyzed per field with THAT field's chain, so a stemmed sub-field
sees stemmed query terms.

Scale note: per-field scoring here is the exact dense-TAAT path; at
10^12 docs the same combination runs per DOC-RANGE SHARD via
``score_topk_range`` (global per-field stats make shard scores
globally comparable) with the exact cross-shard ``merge_shard_topk``
— the serving tier's existing machinery composes unchanged because
score combination is pointwise per doc.  The single-field WAND upper
bound generalizes too (Σ_f boost_f × maxscore_f) for a pruned path.
Library-only: no DSL lowering, no served caller (the driver's
``bm25_multimatch*`` oracles check all three modes).
"""

from __future__ import annotations

import numpy as np

from ..functions.analyzer import Analyzer
from .bm25 import B, K1, _rank_top, bm25_scores_dense

__all__ = ["multi_match_topk", "cross_fields_topk"]


def multi_match_topk(
    fields: list[tuple[object, float]],
    query: str,
    k: int = 10,
    mode: str = "most_fields",
    tie_breaker: float = 0.0,
    k1: float = K1,
    b: float = B,
) -> list[tuple[int, float]]:
    """Exact top-k ``[(doc_id, score)]`` of a multi-field query.

    ``fields`` — ``[(reader, boost), ...]``; every reader must index
    the SAME doc-id space (one corpus, different fields/chains — the
    flagship's builds share url-order id assignment, so any two of
    its indexes align).  ``mode`` — ``"most_fields"`` (sum) or
    ``"best_fields"`` (max + ``tie_breaker`` × rest).  Ranking is
    score desc, doc id asc — identical tie rules to ``score_topk``.
    """
    if not fields:
        return []
    n = {r.n_docs for r, _ in fields}
    if len(n) != 1:
        raise ValueError(f"fields index different doc spaces: n_docs={sorted(n)}")
    per_field = []
    for reader, boost in fields:
        terms = Analyzer(reader.chain)(query)
        per_field.append(boost * bm25_scores_dense(reader, terms, k1, b))
    stack = np.stack(per_field)
    if mode == "most_fields":
        combined = stack.sum(axis=0)
    elif mode == "best_fields":
        mx = stack.max(axis=0)
        combined = mx + tie_breaker * (stack.sum(axis=0) - mx)
    else:
        raise ValueError(f"unknown multi_match mode: {mode!r}")
    return _rank_top(_zero_deleted_union(fields, combined), k)


def _zero_deleted_union(fields, scores: np.ndarray) -> np.ndarray:
    """Soft deletes across a field GROUP: the constituent per-field
    indexes are separate physical builds, so a doc tombstoned in ANY
    of them is non-live for the combined query (the conservative
    union — deletes are applied per index, compaction re-aligns)."""
    for reader, _ in fields:
        if reader.has_deletes:
            scores[reader.deleted_ids()] = 0.0
    return scores

def cross_fields_topk(
    fields: list[tuple[object, float]],
    query: str,
    k: int = 10,
    k1: float = K1,
    b: float = B,
) -> list[tuple[int, float]]:
    """OpenSearch ``multi_match`` ``cross_fields``: the field group is
    scored as ONE blended virtual field, so a query whose terms are
    split across fields ("first name in one field, last name in
    another") isn't punished by per-field idf the way
    ``most_fields``/``best_fields`` are.

    Documented blending semantics (a deterministic simplification of
    Lucene's ``BlendedTermQuery``, which perturbs stats
    heuristically):

    * ``tf_v(doc)  = Σ_f boost_f × tf_f(doc)``  (boosts weight term
      frequency, the knob cross_fields exposes),
    * ``dl_v(doc)  = Σ_f dl_f(doc)``, ``avgdl`` over docs with
      ``dl_v > 0``,
    * ``df_v(term) = |docs containing the term in ANY field|``
      (the union df — the whole point of the mode),
    * score = Σ_t ``idf(df_v) × tf_v / (tf_v + k1·(1 − b + b·dl_v/avgdl))``
      with the engine's Lucene idf.

    All fields must share ONE analyzer chain (Lucene groups
    cross_fields fields by analyzer; mixed chains raise) and the same
    doc-id space.  Exact dense evaluation — the oracle path; the
    doc-range-shard composition note on :func:`multi_match_topk`
    applies unchanged since blended stats are global.
    """
    import math

    if not fields:
        return []
    n_set = {r.n_docs for r, _ in fields}
    if len(n_set) != 1:
        raise ValueError(f"fields index different doc spaces: n_docs={sorted(n_set)}")
    chains = {r.chain for r, _ in fields}
    if len(chains) != 1:
        raise ValueError(
            f"cross_fields requires one shared analyzer chain, got {sorted(chains)}"
        )
    n = n_set.pop()
    dl = np.zeros(n, np.float64)
    for reader, _ in fields:
        dl += np.asarray(reader.doclens, np.float64)
    nz = dl > 0
    avgdl = float(dl[nz].sum()) / int(nz.sum()) if nz.any() else 1.0

    terms = Analyzer(chains.pop())(query)
    score = np.zeros(n, np.float64)
    for t in terms:
        tfv = np.zeros(n, np.float64)
        present = np.zeros(n, bool)
        for reader, boost in fields:
            tp = reader.postings(t)
            if tp is None:
                continue
            ids, tfs = tp.decode_all()
            tfv[ids] += boost * tfs.astype(np.float64)
            present[ids] = True
        df = int(present.sum())
        if df == 0:
            continue
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        tf_m = tfv[present]
        score[present] += idf * tf_m / (tf_m + k1 * (1 - b + b * dl[present] / avgdl))
    return _rank_top(_zero_deleted_union(fields, score), k)
