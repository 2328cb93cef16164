"""OpenSearch ``sort`` clause — field-ordered search.

The reference's UI sorts results by date ("newest docs first for this
query") through OpenSearch's ``sort`` body clause; this module
rebuilds that surface on the engine: rank the QUERY'S MATCH SET by a
stored docs-store column instead of BM25.

Semantics (OpenSearch defaults):

* one sort field + the implicit ``_id`` ascending tie-break (the
  multi-field ladder is out of scope — documented);
* ``missing: _last`` — docs with a null key sort after every non-null
  key regardless of direction;
* ``track_scores`` is effectively false: hits score 0.0 (OpenSearch
  reports ``_score: null`` when sorting by field; this engine's fixed
  response schema uses 0.0) and the response carries the ordering key
  in a ``sort_key`` column — the per-hit ``sort`` values the HTTP
  layer feeds to ``search_after``;
* ``search_after`` on a ``(key, doc_id)`` cursor: the next page is
  everything STRICTLY after the cursor in sort order — constant cost
  per page (each shard ranks only ``k``), the deep-pagination path.

Scale shape: the sort column lives WITH the reader (memoized
``reader.stored_column`` — ONE row-group-pruned docs-store scan per
column, one slice per shard on the fleet, never driver-resident);
the match set is the query phase's one range-limited evaluation
(``served.live_matches``); each shard returns only its top-``n``
``(doc_id, key)`` rows, so the driver merge is page-scale.  Sorting
the match set is a ``pyarrow.compute.sort_indices`` over matched rows
only — O(m log m) per shard on m matches, never a corpus sort.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["sort_rows_range", "merge_sorted_pages", "live_mask"]


def _cast_cursor(value, typ):
    """Coerce a cursor key to the sort column's type: ISO-8601 strings
    for timestamp keys (cursors arrive through JSON, which has no
    datetime type — the ``reader.stored_mask`` convention), str for
    string columns (a GET-param cursor that LOOKS numeric must not
    stay an int against a string column), float/int for numerics."""
    if value is None:
        return None  # the null-block cursor — never coerced
    if isinstance(value, str) and pa.types.is_timestamp(typ):
        import datetime as _dt

        return _dt.datetime.fromisoformat(value)
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return str(value)
    if isinstance(value, str) and (
        pa.types.is_integer(typ) or pa.types.is_floating(typ)
    ):
        return float(value) if pa.types.is_floating(typ) else int(value)
    return value


def _sort_keys(desc: bool):
    return [
        ("key", "descending" if desc else "ascending"),
        ("doc_id", "ascending"),
    ]


def _after_mask(
    keys: pa.Array, docs: np.ndarray, after: tuple, desc: bool
) -> np.ndarray:
    """Bool mask of rows STRICTLY after the ``(key, doc_id)`` cursor in
    (key desc|asc, nulls last, doc asc) order.  A null cursor key means
    the cursor sits in the trailing null block — only null-key docs
    with a larger doc id follow it."""
    ck, cd = after
    ck = _cast_cursor(ck, keys.type)
    isnull = pc.is_null(keys).to_numpy(zero_copy_only=False)
    if ck is None:
        eq = isnull
        later = np.zeros(len(docs), bool)
    else:
        scalar = pa.scalar(ck, keys.type)
        cmp = pc.less(keys, scalar) if desc else pc.greater(keys, scalar)
        later = (
            cmp.fill_null(False).to_numpy(zero_copy_only=False).astype(bool)
        )
        later |= isnull  # nulls sort last → after every non-null cursor
        eq = (
            pc.equal(keys, scalar)
            .fill_null(False)
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )
    return later | (eq & (docs > int(cd)))


def live_mask(reader) -> np.ndarray | None:
    """Bool live mask over the reader's doc range (None when no
    tombstone falls in it) — a shard's ``_live``, or the full
    reader's."""
    lo, hi = reader.doc_lo, reader.doc_hi
    deleted = reader.deleted_ids()
    deleted = deleted[(deleted >= lo) & (deleted < hi)]
    if not len(deleted):
        return None
    mask = np.ones(max(0, hi - lo), bool)
    mask[deleted.astype(np.int64) - lo] = False
    return mask


def sort_rows_range(
    reader,
    matched: np.ndarray,
    col: str,
    *,
    desc: bool = True,
    n: int = 10,
    after: tuple | None = None,
) -> pa.Table:
    """Top-``n`` ``(doc_id, key)`` of a match set in field order — the
    shard primitive (the full reader is the one-shard case).
    ``matched`` are the query's live doc offsets within the reader's
    range (``served.live_matches``); per-shard pages over disjoint doc
    ranges merge exactly via :func:`merge_sorted_pages` because the
    comparator is per-doc-local."""
    keys = reader.stored_column(col).take(pa.array(matched, pa.int64()))
    docs = matched + reader.doc_lo
    if after is not None:
        keep = _after_mask(keys, docs, after, desc)
        keys = keys.filter(pa.array(keep))
        docs = docs[keep]
    tbl = pa.table({"doc_id": pa.array(docs, pa.int64()), "key": keys})
    idx = pc.sort_indices(
        tbl, sort_keys=_sort_keys(desc), null_placement="at_end"
    )
    return tbl.take(idx[: max(0, n)])


def merge_sorted_pages(parts: list[pa.Table], n: int, desc: bool) -> pa.Table:
    """Exact cross-shard merge of per-shard ``(doc_id, key)`` pages —
    re-sort the union (page-scale: ≤ shards × n rows) with the same
    comparator and keep the first ``n``."""
    tbl = pa.concat_tables(parts, promote_options="default")
    idx = pc.sort_indices(
        tbl, sort_keys=_sort_keys(desc), null_placement="at_end"
    )
    return tbl.take(idx[: max(0, n)])
