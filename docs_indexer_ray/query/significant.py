"""``significant_terms`` aggregation — terms overrepresented in a
match set versus the whole corpus (OpenSearch's "what is unusual
about these documents" aggregation; the reference gets it from
OpenSearch for free, mappings expose text fields to it).

Scoring is JLH (OpenSearch's classic default): with foreground rate
``fgr = fg_df / n_fg`` and background rate ``bgr = bg_df / n_docs``,

    score = (fgr - bgr) * (fgr / bgr)

— only terms with ``fgr > bgr`` (more common in the matches than in
the background) are significant.

Shape at scale — an INDEX scan, not a corpus scan:

* the segment files already partition the vocabulary by term hash
  (``stages/tokenize.py::term_part``), so the scan is one task per
  segment partition — no shuffle, no re-tokenization of stored text
  (the tokens were computed once at build time);
* each task reads ONLY ``(term, df, doc_ids_enc)`` of its partition
  file (``index/segments.py::read_segment``), decodes each term's
  doc ids and counts members of the broadcast match BITMAP (the same
  packed-bitmap broadcast as ``facets.py`` — ≤ n_docs/8 bytes once in
  plasma, zero-copy per task);
* a task emits one ``(term, fg_partial, df_partial)`` row per term
  ROW — vocabulary-partition-scale, never posting-scale; the driver
  sums per term (a heavy/salted/merged term's runs live as several
  rows, possibly in several partitions) and ranks top-k.

OpenSearch itself documents this aggregation as expensive and offers
``sampler`` wrappers; the same applies here — cost is one full read
of the posting lists, distributed across ``num_parts`` tasks.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..functions.codec import varint_decode
from ..index.segments import read_segment, segment_path
from .facets import _member_mask, _pack_bitmap

__all__ = ["significant_terms"]


def _decode_ids(enc: bytes, block_size: int) -> np.ndarray:
    """Absolute doc ids of one posting row (delta varints with
    per-block restarts — ``functions/codec.py`` layout) without
    touching the tf stream."""
    deltas = varint_decode(enc)
    n = len(deltas)
    if n <= block_size:
        return np.cumsum(deltas, dtype=np.uint64)
    out = np.empty(n, np.uint64)
    for lo in range(0, n, block_size):
        hi = min(lo + block_size, n)
        out[lo:hi] = np.cumsum(deltas[lo:hi], dtype=np.uint64)
    return out


def _scan_partition(
    seg_dir: str, rpart: int, bits: np.ndarray, block_size: int
) -> pa.Table:
    """Task body: one segment partition → per-term-row (term, fg, df).

    ``bits`` is passed as an ObjectRef by the caller — Ray resolves it
    per task from the node-local plasma copy (zero-copy numpy)."""
    path = segment_path(seg_dir, rpart)
    empty = pa.table(
        {
            "term": pa.array([], pa.string()),
            "fg": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
        }
    )
    if not os.path.exists(path):
        return empty
    t = read_segment(path, ["term", "df", "doc_ids_enc"])
    if t.num_rows == 0:
        return empty
    # ONE decode per row WINDOW, not one per term row: slices of the
    # binary column's flat buffer decode in bulk (the per-row loop
    # this replaces spent ~90 µs/row of Python overhead — 4.5 s at a
    # 50k-term english vocabulary; this path measured 3.4× at 2M
    # docs).  Work proceeds chunk by chunk (a >2 GiB column arrives
    # chunked — never combine_chunks a binary column) and, within a
    # chunk, in row windows of ≤64 MB of encoded bytes, so temporaries
    # stay window-bounded (~30 B/posting over ≤64 MB of input) no
    # matter how big the partition is.
    col = t["doc_ids_enc"]
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    fg_parts = [
        _fg_of_chunk(c, bits, block_size) for c in chunks if len(c)
    ]
    fg = (
        np.concatenate(fg_parts) if fg_parts else np.empty(0, np.int64)
    )
    return pa.table(
        {
            "term": t["term"],
            "fg": pa.array(fg.astype(np.int64), pa.int64()),
            "df": t["df"].cast(pa.int64()),
        }
    )


_WINDOW_BYTES = 64 << 20


def _fg_of_chunk(
    enc: pa.Array, bits: np.ndarray, block_size: int
) -> np.ndarray:
    """Per-row matched counts for ONE binary-array chunk — bulk varint
    decode per ≤64 MB row window: per-row varint counts from the
    posting-scale end-byte positions (``searchsorted``, no byte-scale
    temporaries), per-block restart positions rebuilt arithmetically
    (delta streams restart per block with an ABSOLUTE first value —
    ``functions/codec.py`` layout), absolute ids via one cumsum minus
    repeated segment bases, fg via one reduceat-shaped cumsum fold."""
    odt = np.int64 if pa.types.is_large_binary(enc.type) else np.int32
    o0 = enc.offset
    offs_all = (
        np.frombuffer(enc.buffers()[1], odt)[o0: o0 + len(enc) + 1]
        .astype(np.int64)
    )
    data = np.frombuffer(enc.buffers()[2], np.uint8)
    n_rows = len(enc)
    fg = np.empty(n_rows, np.int64)
    row = 0
    while row < n_rows:
        # widest row range whose byte span fits the window (≥1 row)
        hi = int(
            np.searchsorted(offs_all, offs_all[row] + _WINDOW_BYTES, "right")
        ) - 1
        hi = max(hi, row + 1)
        hi = min(hi, n_rows)
        offs = offs_all[row: hi + 1]
        b = data[offs[0]: offs[-1]]
        offs = offs - offs[0]
        deltas = varint_decode(b)
        ends = np.flatnonzero((b & 0x80) == 0)  # posting-scale
        n_before = np.searchsorted(ends, offs)  # ends < row-start byte
        n_per_row = np.diff(n_before)
        row_starts = n_before[:-1]
        blocks_per_row = (n_per_row + block_size - 1) // block_size
        total_blocks = int(blocks_per_row.sum())
        if total_blocks:
            rep_starts = np.repeat(row_starts, blocks_per_row)
            within = np.arange(total_blocks, dtype=np.int64) - np.repeat(
                np.concatenate(([0], np.cumsum(blocks_per_row)))[:-1],
                blocks_per_row,
            )
            restarts = rep_starts + within * block_size
            cs = np.cumsum(deltas, dtype=np.uint64)
            cs_before = np.concatenate(([np.uint64(0)], cs))[restarts]
            seg_lens = np.diff(np.append(restarts, len(deltas)))
            ids = (cs - np.repeat(cs_before, seg_lens)).astype(np.int64)
        else:
            ids = np.empty(0, np.int64)
        mask = _member_mask(bits, ids).astype(np.int64)
        cum_m = np.concatenate(([0], np.cumsum(mask)))
        row_ends = np.concatenate((row_starts[1:], [len(deltas)]))
        fg[row:hi] = cum_m[row_ends] - cum_m[row_starts]
        row = hi
    return fg


#: per-worker-process analyzer cache for the docs-mode partials — a
#: fresh Analyzer per batch would reset the Porter stem memo every
#: batch (functions/analyzer.py's instantiate-once rule)
_AN_CACHE: dict = {}


def _cached_analyzer(chain: str):
    an = _AN_CACHE.get(chain)
    if an is None:
        from ..functions.analyzer import Analyzer

        an = _AN_CACHE[chain] = Analyzer(chain)
    return an


def _fg_by_retokenize(reader, bits_ref) -> pa.Table:
    """Foreground dfs via MATCHED-DOC re-analysis — the OpenSearch
    fielddata strategy for SELECTIVE queries: instead of decoding
    EVERY posting list (cost ∝ total postings), tasks re-run the
    build's analyzer over only the matched docs' stored bodies (cost
    ∝ the matched share).  Exactness: the docs store holds the exact
    text the tokenizer analyzed at build time with the same chain, so
    per-doc distinct terms — and therefore per-term matched-doc
    counts — are identical to the postings intersection (equality-
    tested across modes).  One streaming pass: per-batch distinct
    (term, fg_partial) rows (batch-distinct-scale) → driver sum
    (vocabulary-scale, same as the scan output)."""
    import ray
    import ray.data

    from ..functions.analyzer import Analyzer
    from .facets import _member_mask

    import pyarrow.dataset as pads

    from ..stages.extract import SYNTHESIS_INPUT_COLUMNS

    chain = reader.chain
    body_field = reader.manifest["field"]
    docs_dir = os.path.join(reader.index_dir, "docs")
    stored = set(pads.dataset(docs_dir, partitioning="hive").schema.names)
    # the catch-all "text" field is SYNTHESIZED from stored parts, not
    # persisted (reader.fetch_docs contract) — read its inputs and
    # rebuild it per batch, exactly like the fetch path
    synthesize = body_field not in stored
    cols = (
        ["doc_id", body_field]
        if not synthesize
        else ["doc_id", *SYNTHESIS_INPUT_COLUMNS]
    )

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, ids)))
        if synthesize:
            from ..stages.extract import synthesize_text

            t = synthesize_text(t)
        an = _cached_analyzer(chain)
        counts: dict[str, int] = {}
        for body in t[body_field].to_pylist():
            for term in set(an(body or "")):
                counts[term] = counts.get(term, 0) + 1
        return pa.table(
            {
                "term": pa.array(list(counts), pa.string()),
                "fg": pa.array(list(counts.values()), pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        docs_dir, columns=cols
    ).map_batches(partial, batch_format="pyarrow")
    parts = [ray.get(r) for r in ds.materialize().to_arrow_refs()]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table(
            {"term": pa.array([], pa.string()), "fg": pa.array([], pa.int64())}
        )
    t = pa.concat_tables(parts)
    agg = t.group_by("term").aggregate([("fg", "sum")])
    return pa.table(
        {"term": agg["term"], "fg": agg["fg_sum"].cast(pa.int64())}
    )


def significant_terms(
    reader,
    matched: np.ndarray,
    k: int = 10,
    min_doc_count: int = 1,
    mode: str = "auto",
) -> pa.Table:
    """Top-``k`` JLH-significant terms of the ``matched`` doc set →
    ``(term, fg_df, bg_df, score)``, score desc / term asc.

    ``reader`` is an :class:`~docs_indexer_ray.query.reader.IndexReader`
    (its segment dir + manifest supply the partition layout and
    ``n_docs``); ``matched`` is the foreground doc-id set (e.g. from
    :func:`~docs_indexer_ray.query.facets.match_doc_ids`).

    ``mode``: ``"scan"`` decodes every posting list (one task per
    segment partition — cost ∝ total postings, right for BROAD match
    sets); ``"docs"`` re-analyzes only the matched docs' stored
    bodies and reads background dfs from the term dictionary (cost ∝
    the matched share — OpenSearch's fielddata strategy, right for
    SELECTIVE queries); ``"auto"`` (default) picks ``docs`` when
    under a quarter of the corpus matches.  Both modes are
    equality-tested: same fg/bg/score table bit-for-bit."""
    import ray

    n_fg = int(len(matched))
    n_docs = int(reader.n_docs)
    if n_fg == 0 or n_docs == 0:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "fg_df": pa.array([], pa.int64()),
                "bg_df": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            }
        )
    from .facets import _broadcast

    bits_ref = _broadcast(matched)
    if mode == "auto":
        # the scan pays O(total postings); re-tokenization pays
        # O(matched share of the corpus) plus ~0.5 s of fixed Ray Data
        # pipeline overhead.  Switch to docs when the query is
        # SELECTIVE (<1/4 of docs) on a corpus big enough that the
        # scan actually hurts (measured: english/text at 2M docs —
        # scan 4.5 s, docs 0.84 s at 1 % selectivity, bit-equal; at
        # 50k docs the scan is 0.06 s and the fixed overhead would
        # only add latency)
        mode = (
            "docs" if n_fg * 4 < n_docs and n_docs >= 200_000 else "scan"
        )
    if mode == "docs":
        fg_t = _fg_by_retokenize(reader, bits_ref)
        fg = fg_t["fg"].to_numpy(zero_copy_only=False).astype(np.int64)
        terms = fg_t["term"].to_numpy(zero_copy_only=False)
        # background dfs from the loaded term dictionary (one searchsorted)
        dterms, ddfs = reader.term_dictionary()
        pos_d = np.searchsorted(dterms, terms)
        pos_c = np.clip(pos_d, 0, max(0, len(dterms) - 1))
        found = (
            (dterms[pos_c] == terms)
            if len(dterms)
            else np.zeros(len(terms), bool)
        )
        # every re-tokenized term of a stored body was indexed, but be
        # defensive: an unknown term gets df = fg (its minimum)
        df = np.where(found, ddfs[pos_c] if len(dterms) else 0, fg).astype(
            np.int64
        )
        keep = fg >= max(1, min_doc_count)
        fg, df, terms = fg[keep], df[keep], terms[keep]
    elif mode == "scan":
        block_size = int(reader.manifest.get("block_size", 128))
        task = ray.remote(num_cpus=1)(_scan_partition)
        parts = ray.get(
            [
                task.remote(reader._seg_dir, rp, bits_ref, block_size)
                for rp in range(reader.num_parts)
            ]
        )
        t = pa.concat_tables([p for p in parts if p.num_rows])
        agg = t.group_by("term").aggregate([("fg", "sum"), ("df", "sum")])
        fg = agg["fg_sum"].to_numpy().astype(np.int64)
        df = agg["df_sum"].to_numpy().astype(np.int64)
        keep = fg >= max(1, min_doc_count)
        fg, df = fg[keep], df[keep]
        terms = agg["term"].to_numpy(zero_copy_only=False)[keep]
    else:
        raise ValueError(f"mode must be auto|docs|scan, got {mode!r}")
    # JLH — expression shape mirrored exactly by the SQL oracle so the
    # double is bit-identical
    fgr = fg / float(n_fg)
    bgr = df / float(n_docs)
    score = (fgr - bgr) * (fgr / bgr)
    pos = fgr > bgr
    out = pa.table(
        {
            "term": pa.array(terms[pos], pa.string()),
            "fg_df": pa.array(fg[pos], pa.int64()),
            "bg_df": pa.array(df[pos], pa.int64()),
            "score": pa.array(score[pos], pa.float64()),
        }
    )
    return out.sort_by([("score", "descending"), ("term", "ascending")]).slice(0, k)
