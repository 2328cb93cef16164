"""Exact phrase matching over position postings (D4 positions parity).

The reference stores ``"term_vector": "with_positions_offsets"``
(``/root/reference/mappings/hugo.json:6,48,60``) so OpenSearch can run
``match_phrase``.  With a positions build
(``build_index(store_positions=True)``) this module recovers that
capability: a phrase of analyzed terms matches a document when the
terms occur at consecutive positions, and ``phrase_freq`` counts the
occurrences (overlaps included — positional semantics, not substring
replace counting).

Algorithm: decode each term's postings + positions once (reader-cached
``TermPostings``), intersect the doc-id lists, then per surviving doc
intersect ``positions(term_i) + 1`` with ``positions(term_{i+1})`` —
the classic positional-intersection phrase walk, vectorized per doc.

Every primitive reads the doc range its reader holds, ``[doc_lo,
doc_hi)``, through ``TermPostings.decode_range_positions``: a shard
reader (``served.py``) decodes only its overlapping posting blocks —
O(its share) of the positional data — and a full reader is the one
shard ``[0, n_docs)``, whose decode is the whole-list one.  Positional
matching is per-doc local, so results over disjoint ranges concatenate
to exactly the full-reader answer (as a Lucene query runs per segment
over that segment's docs).
"""

from __future__ import annotations

import numpy as np

from .reader import IndexReader

__all__ = [
    "match_phrase",
    "match_phrase_slop",
    "phrase_topk",
    "rescore_topk",
    "span_first",
    "span_near",
]


def _drop_deleted(reader, hits: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Soft-delete filter for positional hit lists: tombstoned docs
    can't match (the dense surfaces' ``_zero_deleted`` counterpart).
    Vectorized sorted-membership test; no-op without deletes."""
    if not hits or not reader.has_deletes:
        return hits
    dels = reader.deleted_ids()
    ids = np.array([h[0] for h in hits], np.int64)
    j = np.searchsorted(dels, ids)
    dead = (j < len(dels)) & (dels[np.minimum(j, len(dels) - 1)] == ids)
    return [h for h, d in zip(hits, dead) if not d]


def _gather_segments(flat, offs, j):
    """Concatenate ``flat[offs[j_r] : offs[j_r + 1]]`` for every row
    ``r`` → ``(values, row_of_value)`` — one vectorized gather, no
    per-row Python."""
    starts = offs[j]
    lens = (offs[j + 1] - starts).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, flat.dtype), np.empty(0, np.int64)
    out_offs = np.concatenate(([0], np.cumsum(lens)[:-1]))
    idx = np.arange(total, dtype=np.int64) - np.repeat(out_offs, lens) + np.repeat(
        starts.astype(np.int64), lens
    )
    return flat[idx], np.repeat(np.arange(len(j), dtype=np.int64), lens)


def _decode_positions(reader, terms: list[str]) -> list | None:
    """One ``(sorted_ids, flat_positions, posting_offsets)`` triple per
    term over the reader's doc range, or ``None`` when a term is absent
    or has no posting in the range (no doc can match then)."""
    tps = [reader.postings(t) for t in terms]
    if any(tp is None for tp in tps):
        return None
    decoded = []
    for tp in tps:
        ids, _, flat, offs = tp.decode_range_positions(reader.doc_lo, reader.doc_hi)
        if len(ids) == 0:
            return None
        decoded.append((ids, flat, offs))
    return decoded


def _phrase_walk(decoded) -> list[tuple[int, int]]:
    """The positional-intersection walk: ``decoded`` is one
    ``(sorted_ids, flat_positions, posting_offsets)`` triple per query
    term.

    Fully vectorized: phrase freq per doc is ``|∩ᵢ (posᵢ − i)|``, so
    each term's positions over the common docs become SEGMENTED KEYS
    ``(doc_rank << 34) | (pos − i + m)`` — globally sorted because
    docs are sorted and positions ascend within a doc — and the walk
    is one ``np.intersect1d`` chain over the key arrays plus one
    ``np.unique`` for the per-doc counts.  The per-doc Python loop
    this replaces measured ~5 s p50 on a hot phrase at 500k docs;
    this kernel is a handful of numpy passes over the same data."""
    common = decoded[0][0]
    for ids, _, _ in decoded[1:]:
        common = np.intersect1d(common, ids, assume_unique=True)
    if len(common) == 0:
        return []
    if len(common) >= (1 << 29):  # key packing: rank << 34 must fit int64
        raise ValueError(
            f"{len(common)} candidate docs in one phrase walk — shard the "
            "query (ShardedQueryService) before the 2^29-doc key limit"
        )
    m = len(decoded)
    inter = None
    for i, (ids, flat, offs) in enumerate(decoded):
        j = np.searchsorted(ids, common)
        vals, rank = _gather_segments(flat, offs, j)
        keys = (rank << np.int64(34)) + (vals.astype(np.int64) - i + m)
        inter = keys if inter is None else np.intersect1d(
            inter, keys, assume_unique=True
        )
        if len(inter) == 0:
            return []
    ranks, counts = np.unique(inter >> np.int64(34), return_counts=True)
    docs = common[ranks]
    return [(int(d), int(c)) for d, c in zip(docs.tolist(), counts.tolist())]


def match_phrase(reader: IndexReader, terms: list[str]) -> list[tuple[int, int]]:
    """All ``(doc_id, phrase_freq)`` with freq ≥ 1 in the reader's doc
    range, doc_id ascending."""
    decoded = _decode_positions(reader, terms)
    if not decoded:
        return []
    return _drop_deleted(reader, _phrase_walk(decoded))


def match_phrase_slop(
    reader: IndexReader, terms: list[str], slop: int = 0
) -> list[tuple[int, int]]:
    """Proximity phrase (OpenSearch ``match_phrase`` with ``slop``),
    ORDERED span-near semantics: a start position ``p₁`` matches when
    the remaining terms can be chained at strictly increasing
    positions with total gap ``Σ(pᵢ₊₁ − pᵢ − 1) ≤ slop``;
    ``phrase_freq`` counts matching start positions.  ``slop=0``
    reduces exactly to :func:`match_phrase` (consecutive terms).

    Unlike Lucene's sloppy phrase this does not pay a transposition
    cost to match out-of-order terms — ordered-only is the documented
    engine semantic (Lucene ``SpanNearQuery(inOrder=true)``).

    Vectorized greedy chain per doc: for every start, each step takes
    the SMALLEST next-term position after the current one
    (``np.searchsorted``) — greedy minimizes the final position, so
    the window test is exact for each start."""
    if len(terms) == 1:
        tp = reader.postings(terms[0])
        if tp is None:
            return []
        ids, tfs = tp.decode_range(reader.doc_lo, reader.doc_hi)
        return _drop_deleted(reader, [(int(d), int(f)) for d, f in zip(ids, tfs)])
    decoded = _decode_positions(reader, terms)
    if not decoded:
        return []
    return _drop_deleted(reader, _slop_walk(decoded, len(terms), slop))


def _slop_walk(decoded, m: int, slop: int) -> list[tuple[int, int]]:
    """Vectorized greedy chain over ALL candidate starts of all docs
    at once: the per-step "smallest next-term position after cur
    within the same doc" is one searchsorted over segmented keys
    ``(doc_rank << 34 | pos)`` — same kernel family as
    :func:`_phrase_walk` (which replaced a ~5 s-p50 per-doc Python
    loop at 500k docs).  Greedy minimizes the final position, so the
    window test is exact for each start."""
    common = decoded[0][0]
    for ids, _, _ in decoded[1:]:
        common = np.intersect1d(common, ids, assume_unique=True)
    if len(common) == 0:
        return []
    if len(common) >= (1 << 29):
        raise ValueError(
            f"{len(common)} candidate docs in one sloppy-phrase walk — "
            "shard the query before the 2^29-doc key limit"
        )
    ids0, flat0, offs0 = decoded[0]
    j0 = np.searchsorted(ids0, common)
    starts, rank = _gather_segments(flat0, offs0, j0)
    starts = starts.astype(np.int64)
    shift = np.int64(34)
    cur = starts
    ok = np.ones(len(starts), bool)
    for ids, flat, offs in decoded[1:]:
        j = np.searchsorted(ids, common)
        pl, plrank = _gather_segments(flat, offs, j)
        kt = (plrank << shift) + pl.astype(np.int64)
        qk = (rank << shift) + cur + 1
        idx = np.searchsorted(kt, qk)
        hit = np.minimum(idx, len(kt) - 1)
        found = (idx < len(kt)) & ((kt[hit] >> shift) == rank)
        ok &= found
        cur = kt[hit] - (rank << shift)
    good = ok & (cur - starts - (m - 1) <= slop)
    if not good.any():
        return []
    ranks, counts = np.unique(rank[good], return_counts=True)
    return [
        (int(d), int(c))
        for d, c in zip(common[ranks].tolist(), counts.tolist())
    ]


def span_first(
    reader: IndexReader, term: str, end: int
) -> list[tuple[int, int]]:
    """Lucene ``SpanFirstQuery``: docs where ``term`` occurs at a
    position strictly below ``end`` (0-based), with the count of such
    early occurrences — "term appears in the first N words" (title-ish
    matching without a separate field).  One positional decode of the
    term's postings; vectorized per-doc count via searchsorted on the
    sorted position lists."""
    tp = reader.postings(term)
    if tp is None or end <= 0:
        return []
    ids, _, flat, offs = tp.decode_range_positions(reader.doc_lo, reader.doc_hi)
    # per-doc early-occurrence count without a per-doc Python loop:
    # positions are sorted within each doc's segment, so the count is
    # one (flat < end) mask + one reduceat over the segment offsets
    early = (flat < end).astype(np.int64)
    counts = (
        np.add.reduceat(early, offs[:-1])
        if len(flat)
        else np.zeros(len(ids), np.int64)
    )
    counts[offs[:-1] == offs[1:]] = 0  # reduceat quirk: empty segments
    keep = np.flatnonzero(counts)
    out = [(int(d), int(c)) for d, c in zip(ids[keep].tolist(), counts[keep].tolist())]
    return _drop_deleted(reader, out)


def span_near(
    reader: IndexReader, terms: list[str], slop: int = 0
) -> list[tuple[int, int]]:
    """Lucene ``SpanNearQuery(inOrder=false)``: docs where ONE
    occurrence of EACH (distinct) term fits inside a window of width
    ``≤ len(terms) + slop``, in any order.  Complements
    :func:`match_phrase_slop` (the ordered variant).  Emits
    ``(doc_id, min_window)`` — the smallest covering window width —
    for matching docs, doc_id ascending; the window test is
    ``min_window − len(terms) ≤ slop`` (Lucene's span length
    accounting for unordered spans without repeats).

    Per surviving doc the minimal covering window over the k sorted
    position lists is the classic smallest-range merge: one argsort
    of the doc's ≤Σtf labeled positions + a two-pointer sweep —
    O(p log p) in the doc's position count, independent of corpus
    size.  Postings/positions decode once via the reader cache, docs
    intersect before any position work (same shape as
    :func:`match_phrase`)."""
    terms = list(dict.fromkeys(terms))  # distinct, order-preserving
    if len(terms) == 1:
        tp = reader.postings(terms[0])
        if tp is None:
            return []
        ids, _ = tp.decode_range(reader.doc_lo, reader.doc_hi)
        return _drop_deleted(reader, [(int(d), 1) for d in ids])
    decoded = _decode_positions(reader, terms)
    if not decoded:
        return []
    return _drop_deleted(reader, _span_near_walk(decoded, len(terms), slop))


def _span_near_walk(decoded, m: int, slop: int) -> list[tuple[int, int]]:
    common = decoded[0][0]
    for ids, _, _ in decoded[1:]:
        common = np.intersect1d(common, ids, assume_unique=True)
    if len(common) == 0:
        return []
    if len(common) >= (1 << 29):
        raise ValueError(
            f"{len(common)} candidate docs in one span_near walk — "
            "shard the query before the 2^29-doc key limit"
        )
    # vectorized smallest-range merge across ALL docs at once: for a
    # right edge at merged position h, the minimal covering window is
    # [min over labels of that label's LAST occurrence ≤ h, pos[h]] —
    # per-label last-occurrence is one maximum.accumulate over doc-
    # offset keys (rank << 34 | pos; a carried value from an earlier
    # doc is below the current doc's key base, which is exactly the
    # "label not yet seen in this doc" test), min over the m cummax
    # rows gives every window in one pass, and the per-doc best is one
    # minimum.reduceat.  Replaces a per-doc Python two-pointer.
    shift = np.int64(34)
    key_parts, lab_parts, rank_parts = [], [], []
    seg_lens = np.zeros(len(common), np.int64)
    for lab_idx, (ids, flat, offs) in enumerate(decoded):
        j = np.searchsorted(ids, common)
        vals, rank = _gather_segments(flat, offs, j)
        key_parts.append((rank << shift) + vals.astype(np.int64))
        lab_parts.append(np.full(len(vals), lab_idx, np.int64))
        rank_parts.append(rank)
        seg_lens += (offs[j + 1] - offs[j]).astype(np.int64)
    key = np.concatenate(key_parts)
    lab = np.concatenate(lab_parts)
    rank = np.concatenate(rank_parts)
    order = np.argsort(key, kind="stable")
    key, lab, rank = key[order], lab[order], rank[order]
    minlast = None
    for lab_idx in range(m):
        cum = np.maximum.accumulate(np.where(lab == lab_idx, key, np.int64(-1)))
        minlast = cum if minlast is None else np.minimum(minlast, cum)
    base = rank << shift
    window = np.where(minlast >= base, key - minlast + 1, np.iinfo(np.int64).max)
    seg_starts = np.concatenate(([0], np.cumsum(seg_lens)[:-1]))
    best = np.minimum.reduceat(window, seg_starts)
    good = best - m <= slop
    return [
        (int(d), int(w))
        for d, w in zip(common[good].tolist(), best[good].tolist())
    ]


def rescore_topk(
    reader,
    terms: list[str],
    phrase: list[str],
    window: int = 50,
    weight: float = 2.0,
    k: int = 10,
):
    """OpenSearch ``rescore``: cheap BM25 retrieval picks a top
    ``window``, then only those docs are re-ranked with a costlier
    phrase-proximity signal — ``final = bm25 + weight * ln(1 + pf)``
    where ``pf`` is the exact phrase frequency from position postings;
    window docs without the phrase keep their base score.

    Requires a positions build.  The rescore COMBINE touches only the
    ≤ ``window`` retrieved rows (output scale); the phrase pass here
    decodes the phrase terms' postings once (same cost class as
    ``match_phrase``) — at corpus scale the sharded tier runs it with
    range-limited positional decode per shard, so each shard pays only
    its slice.  Ranking key quantized to 1e-9 (the established oracle
    trick), ``math.log`` per window doc."""
    import math

    from .bm25 import topk

    base = topk(reader, terms, k=window)
    if not base:
        return []
    pf = dict(match_phrase(reader, phrase))
    ranked = sorted(
        (
            -round(s + weight * math.log(1 + pf.get(d, 0)), 9),
            d,
        )
        for d, s in base
    )[:k]
    return [(d, -negs) for negs, d in ranked]


def phrase_topk(
    reader: IndexReader, terms: list[str], k: int = 10
) -> list[tuple[int, float]]:
    """BM25-scored phrase top-k: the phrase acts as one pseudo-term
    with ``tf = phrase_freq`` and ``idf = Σ idf(term_i)`` (Lucene's
    phrase-query scoring recipe), doc-id tiebreak ascending."""
    import math

    hits = match_phrase(reader, terms)
    if not hits:
        return []
    n = reader.n_docs
    avgdl = reader.avgdl or 1.0
    idf = 0.0
    for t in terms:
        df = reader.term_df(t)
        idf += math.log(1 + (n - df + 0.5) / (df + 0.5))
    k1, b = 1.2, 0.75
    scored = []
    for doc, freq in hits:
        dl = float(reader.doclens[doc])
        tfn = freq / (freq + k1 * (1 - b + b * dl / avgdl))
        scored.append((doc, idf * tfn))
    scored.sort(key=lambda h: (-h[1], h[0]))
    return scored[:k]
