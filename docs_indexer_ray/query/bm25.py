"""BM25 scoring and top-k retrieval (exact TAAT + block-max WAND).

Algorithms from the public literature: WAND pruning (Broder et al.,
CIKM 2003) with block-max refinement (Ding & Suel, SIGIR 2011); BM25
(Robertson & Zaragoza) in Lucene's parameterization.

The scoring the reference got from OpenSearch's default similarity
(D5 of SURVEY §2.2 — single shard ⇒ exact global statistics,
``/root/reference/common.py:6``; k1/b never overridden):

    idf(t)  = ln(1 + (N - df + 0.5) / (df + 0.5))          (Lucene BM25)
    tfn     = tf / (tf + k1 * (1 - b + b * dl / avgdl))
    score   = Σ_t idf(t) · tfn                              k1=1.2 b=0.75

(Lucene drops the classic ``(k1+1)`` numerator factor — it does not
affect ranking; we follow Lucene.)  Norms here are exact ``dl`` rather
than Lucene's lossy byte-encoded norm — a documented divergence that
only sharpens scores.

Ranking is fully deterministic: ties broken by ascending ``doc_id``
(Lucene's doc-order behavior).  ``wand_topk`` must return *exactly*
``score_topk``'s answer — the pruning bound is inflated by a 1e-10
relative margin so float rounding can never prune a true top-k doc,
and because WAND visits candidates in ascending doc-id order, a
later equal-score doc always loses the tie-break to a heap incumbent,
which makes ``ub <= θ`` pruning rank-safe.  :func:`topk` is the served
planner; ``score_topk`` and ``wand_topk`` are its reference kernels.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "bm25_idf",
    "score_topk",
    "score_topk_range",
    "merge_shard_topk",
    "wand_topk",
    "topk",
    "bm25_scores_dense",
]

K1 = 1.2
B = 0.75
_MARGIN = 1e-10


def bm25_idf(n_docs: int, df: int) -> float:
    return float(np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)))


def _k_factor(dl: np.ndarray, avgdl: float, k1: float, b: float) -> np.ndarray:
    return k1 * (1.0 - b + b * (dl.astype(np.float64) / avgdl))


def bm25_scores_dense(
    reader, terms: list[str], k1: float = K1, b: float = B
) -> np.ndarray:
    """Exact dense score vector over all docs (TAAT) — the oracle path.

    Duplicate query terms contribute once per occurrence, like Lucene's
    BooleanQuery over repeated TermQuery clauses.
    """
    n = reader.n_docs
    scores = np.zeros(n, dtype=np.float64)
    avgdl = reader.avgdl if reader.avgdl > 0 else 1.0
    for term in terms:
        tp = reader.postings(term)
        if tp is None:
            continue
        doc_ids, tfs = tp.decode_all()
        idf = bm25_idf(n, tp.df)
        dl = reader.doclens[doc_ids]
        tf = tfs.astype(np.float64)
        scores[doc_ids] += idf * tf / (tf + _k_factor(dl, avgdl, k1, b))
    return scores


def score_topk_range(
    reader,
    terms: list[str],
    k: int = 10,
    k1: float = K1,
    b: float = B,
    after: tuple[float, int] | None = None,
) -> list[tuple[int, float]]:
    """Exact top-k within the reader's doc-id range shard
    (``IndexReader(doc_range=(lo, hi))``): the dense TAAT buffer is
    shard-sized and each posting list decodes only its overlapping
    blocks (``TermPostings.decode_range``).  Scores use GLOBAL
    N/avgdl/df, so they are identical to the unsharded scores and a
    cross-shard top-k merge is exact."""
    lo, hi = reader.doc_lo, reader.doc_hi
    scores = np.zeros(max(0, hi - lo), dtype=np.float64)
    avgdl = reader.avgdl if reader.avgdl > 0 else 1.0
    for term in terms:
        tp = reader.postings(term)
        if tp is None:
            continue
        doc_ids, tfs = tp.decode_range(lo, hi)
        if len(doc_ids) == 0:
            continue
        idf = bm25_idf(reader.n_docs, tp.df)  # df is global — exact scores
        dl = reader.doclens[doc_ids]
        tf = tfs.astype(np.float64)
        scores[(doc_ids - np.uint64(lo)).astype(np.int64)] += (
            idf * tf / (tf + _k_factor(dl, avgdl, k1, b))
        )
    # soft deletes apply here like on every other ranked surface
    dels = reader.deleted_ids()
    if len(dels):
        in_rng = dels[(dels >= lo) & (dels < hi)]
        scores[(in_rng - lo).astype(np.int64)] = 0.0
    if after is not None:
        # deep pagination (search_after): keep only docs strictly AFTER
        # the (score, doc_id) cursor in (score desc, doc asc) order.
        # Exact float equality is correct — the cursor is a score this
        # same engine produced.  Each shard applies the same global
        # cursor, so the cross-shard merge stays exact.
        a_s, a_d = float(after[0]), int(after[1])
        gids = np.arange(lo, hi, dtype=np.int64)
        keep = (scores < a_s) | ((scores == a_s) & (gids > a_d))
        scores = np.where(keep, scores, 0.0)
    return [(d + lo, s) for d, s in _rank_top(scores, k)]


def merge_shard_topk(
    shard_results: list[list[tuple[int, float]]], k: int
) -> list[tuple[int, float]]:
    """Exact merge of per-shard top-k lists (scores globally comparable
    because every shard used global statistics): score desc, doc asc."""
    all_hits = [hit for part in shard_results for hit in part]
    all_hits.sort(key=lambda x: (-x[1], x[0]))
    return all_hits[:k]


def _rank_top(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    nz = np.flatnonzero(scores)
    if len(nz) == 0 or k <= 0:
        return []
    take = min(k, len(nz))
    vals = scores[nz]
    if len(nz) > 4 * k:
        # select the top-k score threshold first (O(n)), lexsort only
        # the candidates — a dense query has ~n_docs nonzero scores and
        # a full lexsort dominates query latency otherwise.  Ties AT
        # the threshold are all kept, so (score desc, doc asc) ranking
        # is identical to the full sort.
        kth = np.partition(vals, len(vals) - take)[len(vals) - take]
        keep = vals >= kth
        nz, vals = nz[keep], vals[keep]
    # order: score desc, doc_id asc — np.lexsort keys last-is-primary
    order = np.lexsort((nz, -vals))[:take]
    return [(int(nz[i]), float(vals[i])) for i in order]


def after_mask_quantized(
    vals: np.ndarray, gids: np.ndarray, after: tuple[float, int]
) -> np.ndarray:
    """Cursor filter in the QUANTIZED ranking key space (the key
    ``rank_top_quantized`` sorts on is ``round(score, 9)``, and that is
    also the score value it RETURNS — so a ``search_after`` cursor fed
    back from a previous page compares against ``round(v, 9)``, not the
    raw float).  Vectorized outside a ±2e-9 band around the cursor
    score (raw values there cannot round across the boundary); the band
    itself — genuine score ties, O(ties) rows — gets the exact Python
    ``round`` plus the doc-id tiebreak."""
    a_s, a_d = round(float(after[0]), 9), int(after[1])
    keep = vals < a_s - 2e-9
    band = np.flatnonzero(np.abs(vals - a_s) <= 2e-9)
    for i in band.tolist():
        vq = round(float(vals[i]), 9)
        if vq < a_s or (vq == a_s and int(gids[i]) > a_d):
            keep[i] = True
    return keep


def rank_top_quantized(
    scores: np.ndarray,
    matched: np.ndarray,
    k: int,
    after: tuple[float, int] | None = None,
    id_offset: int = 0,
) -> list[tuple[int, float]]:
    """Top-k under the 1e-9-QUANTIZED ranking key (score desc, doc
    asc) — identical output to ``sorted((-round(s, 9), d))[:k]`` but
    partition-then-refine: the kth-largest unquantized score minus a
    2e-9 safety margin bounds every doc the quantized order could
    still admit, so the Python sort touches O(k + ties) rows instead
    of the full match set (a hot dense query matches ~n_docs rows —
    the full sorted() was the next latency floor after the vectorized
    walks).

    ``after`` (optional ``(score, doc_id)`` cursor, score in the
    quantized key space, doc_id GLOBAL) keeps only docs strictly after
    the cursor — ``search_after`` for the query_string surfaces.
    ``id_offset`` maps shard-local ``matched`` indices to global doc
    ids for the cursor's tiebreak (the returned ids stay local, as
    before — range callers add ``lo`` themselves)."""
    if len(matched) == 0 or k <= 0:
        # k=0 is the OpenSearch "size: 0" aggregations-only idiom
        return []
    vals = scores[matched]
    if after is not None:
        keep = after_mask_quantized(vals, matched + id_offset, after)
        matched, vals = matched[keep], vals[keep]
        if len(matched) == 0:
            return []
    if len(matched) > 4 * k:
        kth = np.partition(vals, len(vals) - k)[len(vals) - k]
        keep = vals >= kth - 2e-9
        matched, vals = matched[keep], vals[keep]
    ranked = sorted(
        (-round(float(v), 9), int(d)) for v, d in zip(vals.tolist(), matched.tolist())
    )
    return [(d, -negs) for negs, d in ranked[:k]]


def _zero_deleted(reader, scores: np.ndarray) -> np.ndarray:
    """Soft-delete mask shared by every dense query surface:
    tombstoned docs can't be hits; survivor scores stay untouched
    (global statistics keep pre-delete values until compaction —
    Lucene tombstone semantics).  No-op without deletes."""
    if reader.has_deletes:
        scores[reader.deleted_ids()] = 0.0
    return scores


def explain(reader, terms: list[str], doc_id: int, k1: float = K1, b: float = B):
    """OpenSearch ``_explain``: the per-term BM25 score breakdown of
    one document for a query → Arrow table ``(term, tf, df, dl, idf,
    weight)``, term ascending; ``Σ weight`` is the doc's score.

    Each row decodes ONE term's postings (reader-cached) and reads one
    norm — nothing corpus-scale.  ``idf`` and ``weight`` are single
    IEEE expressions (no summation) computed with ``math.log`` — the
    libm call DuckDB's ``ln`` also makes — so they are bit-reproducible
    by the SQL oracle (numpy's vectorized log differs in the last ulp
    for some arguments)."""
    import math

    import pyarrow as pa

    doc_id = int(doc_id)
    if not 0 <= doc_id < reader.n_docs:
        raise KeyError(f"doc_id {doc_id} outside [0, {reader.n_docs})")
    avgdl = reader.avgdl if reader.avgdl > 0 else 1.0
    dl = float(reader.doclens[doc_id])
    rows = []
    # one row per query OCCURRENCE in query order — sum(weight) then
    # reproduces the dense score's exact float accumulation even for
    # queries with repeated terms (dedup would halve their weight)
    for term in terms:
        tp = reader.postings(term)
        if tp is None:
            continue
        ids, tfs = tp.decode_all()
        j = int(np.searchsorted(ids, doc_id))
        if j >= len(ids) or ids[j] != doc_id:
            continue
        tf = float(tfs[j])
        idf = math.log(
            1.0 + (reader.n_docs - tp.df + 0.5) / (tp.df + 0.5)
        )
        weight = idf * tf / (tf + k1 * (1.0 - b + b * (dl / avgdl)))
        rows.append((term, int(tfs[j]), int(tp.df), idf, weight))
    return pa.table(
        {
            "term": pa.array([r[0] for r in rows], pa.string()),
            "tf": pa.array([r[1] for r in rows], pa.int64()),
            "df": pa.array([r[2] for r in rows], pa.int64()),
            "dl": pa.array([int(dl)] * len(rows), pa.int64()),
            "idf": pa.array([r[3] for r in rows], pa.float64()),
            "weight": pa.array([r[4] for r in rows], pa.float64()),
        }
    )


def score_topk(reader, terms: list[str], k: int = 10, k1: float = K1, b: float = B):
    """Exact top-k ``[(doc_id, score)]`` by full TAAT scoring."""
    return _rank_top(_zero_deleted(reader, bm25_scores_dense(reader, terms, k1, b)), k)


def synonym_topk(
    reader,
    groups: list[list[str]],
    k: int = 10,
    k1: float = K1,
    b: float = B,
) -> list[tuple[int, float]]:
    """Query-time synonyms with Lucene ``SynonymQuery`` semantics:
    each group of synonymous terms scores as ONE pseudo-term whose
    ``tf(doc) = Σ tf_t(doc)`` over the group and whose ``df = max
    df_t`` (Lucene's blended docFreq) — not a should-OR, so a doc
    matching two synonyms is not double-idf'd.  Groups sum like
    ordinary BM25 terms; a singleton group ≡ a plain term query.

    Ranking key quantized to 1e-9 so SUM association in a SQL replay
    cannot flip near-ties.  Dense TAAT over the groups' postings —
    the same per-query floor and sharding story as
    :func:`bm25_scores_dense`.  Library-only: no DSL lowering, no
    served caller (the driver's ``synonym`` oracle checks it)."""
    n = reader.n_docs
    avgdl = reader.avgdl if reader.avgdl > 0 else 1.0
    scores = np.zeros(n, dtype=np.float64)
    for group in groups:
        tfacc = np.zeros(n, dtype=np.float64)
        dfmax = 0
        for term in group:
            tp = reader.postings(term)
            if tp is None:
                continue
            doc_ids, tfs = tp.decode_all()
            tfacc[doc_ids] += tfs
            dfmax = max(dfmax, tp.df)
        if dfmax == 0:
            continue
        idf = bm25_idf(n, dfmax)
        docs = np.flatnonzero(tfacc)
        tf = tfacc[docs]
        dl = reader.doclens[docs]
        scores[docs] += idf * tf / (tf + _k_factor(dl, avgdl, k1, b))
    scores = _zero_deleted(reader, scores)
    matched = np.flatnonzero(scores > 0.0)
    return rank_top_quantized(scores, matched, k)


def collapse_topk(
    reader,
    terms: list[str],
    key_field: str = "breadcrumb_1",
    k: int = 10,
    k1: float = K1,
    b: float = B,
    fetch_keys=None,
) -> list[tuple[int, float, str]]:
    """OpenSearch ``collapse``: top-``k`` search hits keeping only the
    BEST-scoring doc per distinct collapse-key value (one result per
    site / section / source) — rank order score desc, doc asc, the
    ranking key quantized to 1e-9 (the ``more_like_this`` trick) so a
    SQL oracle reproduces the order regardless of SUM association.

    Keys come from the docs store's ``key_field`` for matched docs
    only (row-group-pruned ``fetch_docs``), or from ``fetch_keys(matched_ids) -> (ids, keys)`` for
    an external key source (e.g. a crawl-metadata side table joined by
    doc id).  The group-then-rank is one vectorized pass
    (:func:`collapse_rows`): lexsort by (-score, doc),
    ``np.unique(return_index=True)`` over the keys' dictionary codes
    picks each key's first (= best) row — no per-group Python.
    Per-query cost floor is dense TAAT; at corpus scale this runs per
    doc-range shard and the shard top-k lists merge by the same
    (score, doc) order — collapse keys need not be co-located because
    each shard returns its own per-key best and the merge re-collapses
    ≤ shards × k rows.

    Returns ``[(doc_id, score, key)]``, ≤ k rows.  Library-only: no
    DSL lowering, no served caller (oracle ``bm25_collapse_source``).
    """
    import pyarrow as pa

    scores = _zero_deleted(reader, bm25_scores_dense(reader, terms, k1, b))
    matched = np.flatnonzero(scores > 0.0)
    if len(matched) == 0:
        return []
    if fetch_keys is None:
        t = reader.fetch_docs(matched.tolist(), ["doc_id", key_field])
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = t[key_field]
    else:
        ids, keys = fetch_keys(matched)
        ids = np.asarray(ids, np.int64)
        keys = pa.array(keys)
    sq = np.round(scores[ids], 9)
    rows = collapse_rows(keys, ids, sq, k)
    return [
        (int(ids[r]), float(sq[r]), None if key is None else str(key))
        for r, key in zip(rows, keys.take(rows).to_pylist())
    ]


def collapse_rows(keys, ids: np.ndarray, scores: np.ndarray, cap: int) -> np.ndarray:
    """The collapse kernel: indices of the best row per distinct key
    (an Arrow array), ranked (score desc, doc_id asc), truncated to
    ``cap`` rows.  Rows group by dictionary code; docs missing the key
    form ONE null group (OpenSearch field-collapsing semantics)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    codes = pc.dictionary_encode(keys, null_encoding="encode").indices.to_numpy()
    order = np.lexsort((ids, -scores))
    _, first = np.unique(codes[order], return_index=True)
    return order[np.sort(first)[:cap]]


def topk(
    reader,
    terms: list[str],
    k: int = 10,
    k1: float = K1,
    b: float = B,
    after: tuple[float, int] | None = None,
) -> list[tuple[int, float]]:
    """The BM25 top-k planner over ``[reader.doc_lo, reader.doc_hi)``
    (a full reader is the shard ``[0, n_docs)``): block-max WAND
    (:func:`wand_topk` with the reader's ``doc_range``) when skipping
    beats the range-sized dense pass, :func:`score_topk_range`
    otherwise.  WAND replays the dense accumulation exactly, so both
    plans return identical hits and a fleet mixing them merges exactly.

    Rule: WAND only when there is no ``after`` cursor, no tombstone in
    the range (WAND's skip structure has no delete awareness) and the
    range's expected postings ``Σdf · (hi − lo) / n_docs ≤ (hi − lo) //
    1024`` — dense costs ~5 ns per doc of the range, a WAND cursor step
    ~6 µs.  There is no floor: from 600 to 200,000 docs on long-tail
    queries WAND never beat the dense pass, so below ~1M docs only the
    rarest terms take it."""
    lo, hi = reader.doc_lo, reader.doc_hi
    dels = reader.deleted_ids()
    if after is None and np.searchsorted(dels, lo) == np.searchsorted(dels, hi):
        sum_df = 0
        for t in set(terms):
            tp = reader.postings(t)
            if tp is not None:
                sum_df += tp.df
        if sum_df * (hi - lo) / max(1, reader.n_docs) <= (hi - lo) // 1024:
            return wand_topk(reader, terms, k, k1, b, doc_range=(lo, hi))
    return score_topk_range(reader, terms, k, k1, b, after=after)


class _TermIter:
    """Cursor over one term's flat block sequence (see segments_io)."""

    __slots__ = (
        "tp", "idf", "block", "ids", "tfs", "pos", "ub", "block_ub",
        "term", "idf1",
    )

    def __init__(self, tp, idf: float, avgdl: float, k1: float, b: float, doclens):
        self.tp = tp
        self.idf = idf
        # per-block upper bound: tf_max / (tf_max + K(dl_min)) is an
        # upper bound for every posting in the block because tfn is
        # monotone ↑ in tf and ↓ in dl (codec docstring).
        tf_max = tp.block_max_tf.astype(np.float64)
        dl_min = tp.block_min_dl.astype(np.float64)
        kf = k1 * (1.0 - b + b * (dl_min / avgdl))
        self.block_ub = idf * tf_max / (tf_max + kf)
        self.ub = float(self.block_ub.max())
        self.block = -1
        self.ids = self.tfs = None
        self.pos = 0
        self._load_block(0)

    def _load_block(self, bidx: int) -> None:
        if bidx >= self.tp.n_blocks:
            self.block = self.tp.n_blocks
            self.ids = None
            return
        self.block = bidx
        self.ids, self.tfs = self.tp.decode_block(bidx)
        self.pos = 0

    @property
    def exhausted(self) -> bool:
        return self.ids is None

    @property
    def doc(self) -> int:
        return int(self.ids[self.pos]) if self.ids is not None else 1 << 62

    def advance_to(self, target: int) -> None:
        """Skip to the first posting with doc_id >= target."""
        if self.ids is None:
            return
        if target > int(self.tp.block_last[self.block]):
            nxt = int(np.searchsorted(self.tp.block_last, target, side="left"))
            self._load_block(nxt)
            if self.ids is None:
                return
        self.pos = int(np.searchsorted(self.ids, target, side="left"))
        if self.pos >= len(self.ids):  # can only happen via stale pos
            self._load_block(self.block + 1)

    def next(self) -> None:
        self.pos += 1
        if self.pos >= len(self.ids):
            self._load_block(self.block + 1)

    def current_block_ub(self, up_to_doc: int) -> float:
        """Max block ub over blocks that could contain docs <= up_to_doc
        starting from the current block (block-max WAND refinement)."""
        if self.ids is None:
            return 0.0
        hi = int(np.searchsorted(self.tp.block_last, up_to_doc, side="left"))
        hi = min(hi, self.tp.n_blocks - 1)
        return float(self.block_ub[self.block : hi + 1].max())


def wand_topk(
    reader,
    terms: list[str],
    k: int = 10,
    k1: float = K1,
    b: float = B,
    doc_range: tuple[int, int] | None = None,
):
    """Block-max WAND top-k — identical output to :func:`score_topk`.

    Duplicate query terms are folded into a per-term weight (idf ×
    multiplicity), which is algebraically the same sum.

    ``doc_range=(lo, hi)``: the SHARD variant — cursors skip straight
    to ``lo`` (block metadata, no decode of earlier blocks) and the
    pivot loop stops at ``hi``, so a shard visits only its own
    positions while scores stay the global-statistics exact replay
    (bit-identical to ``score_topk_range``; the cross-shard merge is
    exact).  The per-iterator ``ub`` stays the GLOBAL block max — a
    valid (looser) bound; the block-max refinement re-tightens it
    per pivot."""
    from collections import Counter

    avgdl = reader.avgdl if reader.avgdl > 0 else 1.0
    n = reader.n_docs
    lo, hi = doc_range if doc_range is not None else (0, 1 << 62)
    iters: list[_TermIter] = []
    for term, mult in Counter(terms).items():
        tp = reader.postings(term)
        if tp is None or tp.df == 0:
            continue
        # ub uses idf × multiplicity (a valid bound within _MARGIN);
        # the FINAL score replays the dense scorer's per-occurrence
        # accumulation below, so output is bit-identical to score_topk
        it = _TermIter(tp, bm25_idf(n, tp.df) * mult, avgdl, k1, b, reader.doclens)
        it.term = term
        it.idf1 = bm25_idf(n, tp.df)  # unmultiplied, for exact replay
        if lo > 0:
            it.advance_to(lo)
        if not it.exhausted:
            iters.append(it)
    if not iters:
        return []

    heap: list[tuple[float, int]] = []  # (score, -doc_id) min-heap
    theta = -np.inf

    def beats_theta(score: float, doc: int) -> bool:
        if len(heap) < k:
            return True
        s0, nd0 = heap[0]
        return score > s0 or (score == s0 and doc < -nd0)

    live = [it for it in iters if not it.exhausted]
    while live:
        live.sort(key=lambda it: it.doc)
        # pivot: smallest prefix whose Σ ub could beat θ
        acc = 0.0
        pivot = -1
        for i, it in enumerate(live):
            acc += it.ub
            if len(heap) < k or acc * (1.0 + _MARGIN) >= theta:
                pivot = i
                break
        if pivot < 0:
            break
        pivot_doc = live[pivot].doc
        if pivot_doc >= hi:
            break  # every remaining posting is past the shard's range

        if live[0].doc == pivot_doc:
            # block-max refinement: tighter bound from current blocks
            pivot_set = [it for it in live if it.doc == pivot_doc]
            bub = sum(it.current_block_ub(pivot_doc) for it in pivot_set)
            if len(heap) == k and bub * (1.0 + _MARGIN) < theta:
                # BMW skip: every doc in [pivot_doc, d_skip) keeps the
                # same current blocks (d_skip ≤ every pivot-set block
                # boundary) and gets no contribution from iterators
                # beyond pivot_doc (d_skip ≤ their current doc), so the
                # failed bound covers the whole range — advance the
                # pivot set past it without scoring.
                d_skip = (
                    min(int(it.tp.block_last[it.block]) for it in pivot_set) + 1
                )
                beyond = [it.doc for it in live if it.doc > pivot_doc]
                if beyond:
                    d_skip = min(d_skip, min(beyond))
                for it in pivot_set:
                    it.advance_to(d_skip)
            else:
                dl = float(reader.doclens[pivot_doc])
                # replay the dense scorer's float accumulation EXACTLY:
                # one contribution per query OCCURRENCE, added in query
                # order (idf × multiplicity folds are only algebraically
                # equal — they round differently in the last ulp for
                # multiplicity ≥ 3, and iterator order differs from
                # query order for distinct terms)
                cur: dict[str, float] = {}
                for it in live:
                    if it.doc == pivot_doc:
                        tf = float(it.tfs[it.pos])
                        cur[it.term] = it.idf1 * tf / (
                            tf + k1 * (1.0 - b + b * (dl / avgdl))
                        )
                        it.next()
                score = 0.0
                for term in terms:
                    c = cur.get(term)
                    if c is not None:
                        score += c
                if beats_theta(score, pivot_doc):
                    if len(heap) == k:
                        heapq.heapreplace(heap, (score, -pivot_doc))
                    else:
                        heapq.heappush(heap, (score, -pivot_doc))
                    if len(heap) == k:
                        theta = heap[0][0]
        else:
            # advance all pre-pivot iterators to the pivot doc
            for it in live:
                if it.doc >= pivot_doc:
                    break
                it.advance_to(pivot_doc)
        live = [it for it in live if not it.exhausted]

    out = [(-nd, s) for s, nd in heap]
    out.sort(key=lambda x: (-x[1], x[0]))
    return [(int(d), float(s)) for d, s in out]
