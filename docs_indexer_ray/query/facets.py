"""Aggregations over query matches — OpenSearch's aggregation surface.

The reference delegates every aggregation to OpenSearch's one
implementation; this module holds the engine's ONE set of
aggregation kernels and the Ray Data driver that runs them:

* :func:`op_partial` / :func:`merge_partials` — the column kernels
  (``terms``, ``stats``, ``hist``, ``bucket_sums``, ``composite``,
  ``terms_stats``, ``top_hits``): one op's partial over a match set's
  rows, and the exact merge of partials over disjoint row sets.  The
  serving tier runs them per shard (``served.ShardQueryActor.
  query_phase``) and this module runs them per docs-store block.
* :func:`_scatter` — the Dataset driver: the match set is broadcast
  ONCE (``ray.put``) as a PACKED BITMAP — ≤ n_docs/8 bytes no matter
  how many docs match, read zero-copy from the node-local object
  store by every task — each block is filtered once, every op's
  partial is computed on it, and the driver merges the
  (output-scale) partials: the combiner-before-collect rule.
* the shared reduces (:func:`interpolate_quantiles`,
  :func:`extended_stats`, :func:`rank_ops` / :func:`rank_pcts`,
  :func:`parent_pipeline`, :func:`bucket_metric`) — with the ops, ONE
  plan and one fold per aggregation kind both front doors serve:
  REST (``query/aggs.py`` ``KINDS``) and the facets below call them
  and differ only in rendering (OpenSearch JSON, an Arrow table).
  The exceptions: ``filters`` / ``adjacency_matrix`` (column
  predicates over the corpus here, DSL legs inside the match set on
  REST), ``missing`` (no match set here), ``significant_terms`` (REST
  only) and the sketch variants (t-digest, HLL, heavy hitters: here
  only).
* the facet functions (:func:`terms_facet`, :func:`date_histogram`,
  :func:`stats_facet`, …) — shells over :func:`_scatter` that only
  rename, cast and sort a merged result; facets without a shared op
  (``weighted_avg_facet``, ``matrix_stats``, the sketch variants, …)
  pass their own per-block partial and merge to the same driver.
* :func:`match_doc_ids` / :func:`match_doc_bitmap` — the match-any
  doc set of a term list (union of posting lists).

The shared kernels ignore missing values (OpenSearch and SQL
semantics): bucket kernels drop null keys, value kernels null values.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "match_doc_ids",
    "match_doc_bitmap",
    "PackedMatches",
    "date_histogram",
    "auto_date_histogram",
    "histogram",
    "range_facet",
    "percentiles",
    "percentile_ranks",
    "terms_facet",
    "rare_terms_facet",
    "multi_terms_facet",
    "top_hits",
    "top_by_column",
    "collapse_top",
    "stats_facet",
    "cardinality",
    "filters_facet",
    "extended_stats_facet",
    "weighted_avg_facet",
    "missing_facet",
    "adjacency_matrix_facet",
    "composite_facet",
    "pipeline_aggs",
    "sibling_pipeline_aggs",
    "value_bucket_sums",
    "matrix_stats",
    "op_partial",
    "merge_partials",
]


#: per-byte popcount lookup (uint8 → number of set bits); uint8 so the
#: fancy-index temp really is 1 byte per bitmap byte
_POPCOUNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.uint8)


class PackedMatches:
    """A match set as a PACKED uint8 bitmap (bit ``d`` set ⇔ doc ``d``
    matched, little bit order) — the driver-side representation of a
    corpus-scale match set: ≤ ``n_docs/8`` bytes regardless of how many
    docs match, and the facet functions broadcast it as-is (no unpack
    to an id list ever happens on the driver for the facet path)."""

    __slots__ = ("bits", "n_docs")

    def __init__(self, bits: np.ndarray, n_docs: int):
        self.bits = np.ascontiguousarray(bits, np.uint8)
        self.n_docs = int(n_docs)

    def ids(self) -> np.ndarray:
        """Sorted matched doc ids — MATCH-scale; only for small result
        consumption (tests, fuzzy expansion), never the facet path."""
        if len(self.bits) == 0:
            return np.empty(0, np.int64)
        return np.flatnonzero(
            np.unpackbits(self.bits, bitorder="little")
        ).astype(np.int64)

    def __len__(self) -> int:
        # true popcount via a 256-entry table — 1 temp byte per bitmap
        # byte, never the 8× unpack a corpus-scale bitmap can't afford
        # (int64 accumulator: a uint8 sum would wrap)
        return int(_POPCOUNT8[self.bits].sum(dtype=np.int64))


def _match_bits_range(
    index_dir: str, chain: str | None, terms: list[str], lo: int, hi: int
) -> np.ndarray:
    """Worker-side kernel: this doc range's slice of the match bitmap.

    Runs INSIDE a Ray task — builds a doc-range shard reader, whose
    :func:`match_doc_ids` decodes only the posting blocks overlapping
    ``[lo, hi)``, and packs it into a ``(hi-lo)/8``-byte local bitmap.
    ``lo`` is byte-aligned (multiple of 8) so disjoint slices
    concatenate into the global bitmap with no driver-side OR."""
    from .reader import IndexReader

    r = IndexReader(index_dir, chain=chain, doc_range=(lo, hi))
    return _pack_bitmap_sized(match_doc_ids(r, terms) - lo, hi - lo)


_match_bits_remote = None  # lazily-created ray.remote wrapper


def match_doc_bitmap(reader, terms: list[str], shards: int | None = None) -> PackedMatches:
    """DISTRIBUTED match-any (OR) bitmap of LIVE docs containing ≥1 of
    ``terms`` — the facet entry point.

    No postings are ever decoded in the driver process: one Ray task
    per byte-aligned doc-id range decodes only its range's posting
    blocks (``decode_range``) and returns a ``range/8``-byte bitmap
    slice; the driver concatenates slices (bitmap-scale,
    ``n_docs/8`` bytes total — NEVER match-scale) and the facet
    functions broadcast the result once via ``ray.put``.  At 10^12
    docs the slices would instead stay sharded with the serving fleet
    (``query/served.py`` computes per-shard match sets natively); this
    path is the single-broadcast Dataset tier.

    Falls back to a local decode only when Ray is not initialised
    (standalone utility use at small scale)."""
    import ray

    terms = sorted(set(terms))
    n = int(reader.n_docs)
    if not terms or n == 0:
        return PackedMatches(np.zeros((n + 7) >> 3, np.uint8), n)
    if not ray.is_initialized():
        return PackedMatches(
            _pack_bitmap_sized(match_doc_ids(reader, terms), n), n
        )
    if shards is None:
        shards = max(1, min(64, -(-n // 16384)))
    # byte-aligned disjoint ranges: each lo is a multiple of 8, so the
    # returned slices concatenate into the global bitmap directly
    edges = sorted({((n * i // shards) >> 3) << 3 for i in range(shards)} | {n})
    if edges[0] != 0:
        edges.insert(0, 0)
    global _match_bits_remote
    if _match_bits_remote is None:
        _match_bits_remote = ray.remote(num_cpus=1)(_match_bits_range)
    parts = ray.get(
        [
            _match_bits_remote.remote(reader.index_dir, reader.chain, terms, lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
    )
    bits = np.concatenate(parts) if parts else np.zeros(0, np.uint8)
    return PackedMatches(bits, n)


def match_doc_ids(reader, terms: list[str]) -> np.ndarray:
    """Sorted LIVE GLOBAL doc ids in the reader's doc range containing
    ≥1 of ``terms`` (match-any / OR); tombstoned docs
    (``index/deletes``) are excluded.  A shard reader decodes only the
    posting blocks overlapping its range; a full reader (the one shard
    ``[0, n_docs)``) decodes whole lists.

    LOCAL in-process decode through the reader's memoized postings
    cache — this is a SERVING primitive (wildcard and regexp
    expansion inside query actors call it per request), so it must
    stay sub-ms-warm and must never spawn Ray tasks: a query
    evaluator may itself be a ``num_cpus=1`` actor, and blocking on
    subtasks from inside one deadlocks when the fleet has reserved
    every CPU (nested-parallelism hazard).
    The DATASET facet tier uses :func:`match_doc_bitmap` instead —
    range tasks, bitmap-scale driver traffic — for corpus-scale
    match sets."""
    parts = []
    for term in set(terms):
        tp = reader.postings(term)
        if tp is not None:
            ids, _ = tp.decode_range(reader.doc_lo, reader.doc_hi)
            parts.append(ids.astype(np.int64))
    if not parts:
        return np.empty(0, np.int64)
    out = np.unique(np.concatenate(parts))
    if reader.has_deletes:
        out = np.setdiff1d(out, reader.deleted_ids(), assume_unique=True)
    return out


def _pack_bitmap(ids: np.ndarray) -> np.ndarray:
    """Sorted doc-id set → uint8 bitmap (bit d set ⇔ d in ids)."""
    ids = np.asarray(ids, np.int64)
    if len(ids) == 0:
        return np.zeros(0, np.uint8)
    bits = np.zeros((int(ids.max()) >> 3) + 1, np.uint8)
    np.bitwise_or.at(bits, ids >> 3, np.uint8(1) << (ids & 7).astype(np.uint8))
    return bits


def _pack_bitmap_sized(ids: np.ndarray, n_docs: int) -> np.ndarray:
    """Like :func:`_pack_bitmap` but sized to cover ``[0, n_docs)``."""
    ids = np.asarray(ids, np.int64)
    bits = np.zeros((n_docs + 7) >> 3, np.uint8)
    if len(ids):
        np.bitwise_or.at(bits, ids >> 3, np.uint8(1) << (ids & 7).astype(np.uint8))
    return bits


def _as_bits(matched) -> np.ndarray:
    """Facet-input normalizer: a :class:`PackedMatches` passes its
    bitmap through UNCHANGED (the distributed entry path — nothing
    match-scale ever materialized on the driver); a plain id array
    (tests / small sets) is packed here."""
    if isinstance(matched, PackedMatches):
        return matched.bits
    return _pack_bitmap(np.asarray(matched, np.int64))


def _member_mask(bits: np.ndarray, doc_ids: np.ndarray) -> np.ndarray:
    """Vectorized bitmap membership test."""
    out = np.zeros(len(doc_ids), bool)
    ok = (doc_ids >= 0) & (doc_ids < (len(bits) << 3))
    d = doc_ids[ok]
    out[ok] = (bits[d >> 3] >> (d & 7).astype(np.uint8)) & 1
    return out


def _broadcast(matched):
    """The match set as ONE object-store bitmap: every task's
    ``ray.get`` is a zero-copy read of the node-local copy.  An
    ObjectRef from an earlier call passes through, so a facet with two
    passes (``auto_date_histogram``) broadcasts once."""
    import ray

    if isinstance(matched, ray.ObjectRef):
        return matched
    return ray.put(_as_bits(matched))


def _scatter(docs_ds, matched, ops: list) -> list:
    """THE Dataset aggregation driver → ``[merged result per op]``.

    One ``map_batches`` pass: each block is filtered ONCE to the match
    set (``matched`` — ids, a :class:`PackedMatches` or a
    :func:`_broadcast` ref; ``None`` keeps every row) and every op's
    partial is computed on the filtered rows; the driver merges the
    per-block partials (output-scale, never doc-scale).  An op is a
    shared kernel op (:func:`op_partial` / :func:`merge_partials`) or
    a facet's own ``(partial(table), merge(parts))`` pair."""
    import pickle

    import ray

    from ..collect import tables_of

    bits_ref = None if matched is None else _broadcast(matched)

    def block(t: pa.Table) -> pa.Table:
        if bits_ref is not None:
            doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            t = t.filter(pa.array(_member_mask(ray.get(bits_ref), doc_ids)))
        parts = [
            op[0](t) if callable(op[0]) else op_partial(op, t.column)
            for op in ops
        ]
        return pa.table({"parts": pa.array([pickle.dumps(parts)], pa.binary())})

    blocks = [
        pickle.loads(b)
        for t in tables_of(docs_ds.map_batches(block, batch_format="pyarrow"))
        for b in t["parts"].to_pylist()
    ]
    return [
        op[1]([b[i] for b in blocks])
        if callable(op[0])
        else merge_partials(op, [b[i] for b in blocks])
        for i, op in enumerate(ops)
    ]


def _counts(merged: pa.Table, key: str) -> pa.Table:
    """A merged ``(key, n_docs)`` count table renamed to the facet's
    key column, count desc / key asc — the ``terms`` order every
    bucket-count facet returns."""
    merged = merged.rename_columns([key, "n_docs"])
    return merged.sort_by([("n_docs", "descending"), (key, "ascending")])


def op_partial(op: tuple, col):
    """One aggregation op's partial over a match set's rows — THE
    column kernels, run per shard by ``served.ShardQueryActor.
    query_phase`` and per docs-store block by :func:`_scatter`.
    ``col(name)`` returns the matched rows' stored column ``name``
    (``doc_id`` included).  Every partial is
    distinct-key-scale (never doc-scale) or constant-size, and the
    partials of disjoint row sets merge exactly
    (:func:`merge_partials`).  Missing keys and values are ignored.
    The ops:

    * ``("terms", col)`` → ``(value: string, partial)`` counts.
    * ``("stats", col)`` → ``(n, min, max, sum, sum_of_squares)`` over
      the non-null values (``(0, None, …)`` when there are none).
    * ``("hist", col, kind, arg)`` → ``(key, partial)`` from
      :func:`value_histogram` (date_histogram / histogram / range /
      date_range / ``values`` / ``distinct``).
    * ``("bucket_sums", col, kind, arg, val_col)`` → ``(key, n, sm)``
      from :func:`value_bucket_sums`.
    * ``("composite", col, after, size)`` → the ``size`` smallest
      matched keys after the cursor with their counts
      (:func:`composite_page`): a key cut from this window has ≥ size
      smaller keys in these rows alone, so it cannot be on the global
      page, and every key on the global page lies in every holding
      window — its count sums exactly.
    * ``("terms_stats", key_col, val_col)`` → ``(value, n, mn, mx,
      sm)`` per bucket.
    * ``("top_hits", group_col, sort_col, k, ascending, values)`` → ≤ k
      ``(value, s, doc_id)`` rows per bucket
      (``ops/windows.head_k_per_key``; ``sort_col`` ``_doc``/``_id``
      sorts by doc id; ``values``, when set, keeps only those
      buckets)."""
    kind = op[0]
    if kind == "terms":
        agg = (
            pa.table({"value": col(op[1])})
            .drop_null()
            .group_by("value")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "value": agg["value"].cast(pa.string()),
                "partial": agg["count_all"].cast(pa.int64()),
            }
        )
    if kind == "stats":
        v = col(op[1]).drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
        if not len(v):
            return (0, None, None, None, None)
        return (len(v), float(v.min()), float(v.max()), float(v.sum()),
                float((v * v).sum()))
    if kind == "hist":
        return value_histogram(col(op[1]), op[2], op[3])
    if kind == "bucket_sums":
        return value_bucket_sums(col(op[1]), col(op[4]), op[2], op[3])
    if kind == "composite":
        # validates the cursor even on an empty match, so an
        # out-of-type cursor fails identically everywhere
        return composite_page(col(op[1]), op[2], op[3])
    if kind == "terms_stats":
        t = pa.table(
            {
                "value": col(op[1]).cast(pa.string()),
                "v": col(op[2]).cast(pa.float64()),
            }
        )
        agg = t.filter(pc.is_valid(t["value"])).group_by("value").aggregate(
            [([], "count_all"), ("v", "min"), ("v", "max"), ("v", "sum")]
        )
        return pa.table(
            {
                "value": agg["value"],
                "n": agg["count_all"].cast(pa.int64()),
                "mn": agg["v_min"],
                "mx": agg["v_max"],
                "sm": agg["v_sum"],
            }
        )
    if kind == "top_hits":
        from ..ops.windows import head_k_per_key

        _, group_col, sort_col, k, ascending, values = op
        ids = col("doc_id").cast(pa.int64())
        t = pa.table(
            {
                "value": col(group_col).cast(pa.string()),
                "s": ids if sort_col in ("_doc", "_id") else col(sort_col),
                "doc_id": ids,
            }
        )
        if values is not None:
            t = t.filter(pc.is_in(t["value"], value_set=pa.array(
                [str(v) for v in values], pa.string()
            )))
        return head_k_per_key(t, "value", "s", k, ascending)
    raise ValueError(f"unknown aggregation op {op!r}")


def _sum_by(parts: list, key: str, cols: list[str]):
    """Concatenate the non-empty partials and SUM ``cols`` per ``key``
    — the one exact merge every additive partial shares (counts and
    sums over disjoint row sets add).  ``None`` when no partial has a
    row."""
    live = [p for p in parts if p.num_rows]
    if not live:
        return None
    t = pa.concat_tables(live, promote_options="default")
    return t.group_by(key).aggregate([(c, "sum") for c in cols])


def merge_partials(op: tuple, parts: list):
    """The exact merge of one op's partials over disjoint row sets
    (shards or blocks) → the op's result table:

    * ``terms`` → ``(value, n_docs)``, count desc / value asc.
    * ``stats`` → one row ``(n_docs, min_v, max_v, sum_v, avg_v,
      sum_sq)`` (null values when nothing matched).
    * ``hist`` → ``(key, n_docs)`` by key.
    * ``bucket_sums`` → ``(key, n, sm)`` by key.
    * ``composite`` → the page ``(value, n_docs)`` by value, or
      ``None`` when no partial has a row.
    * ``terms_stats`` → :func:`fold_terms_stats`.
    * ``top_hits`` → ``(value, rank, doc_id, s)``, buckets ascending —
      the partials' head-k re-applied (exact by idempotence).
    * the serving tier's query ops: ``count`` → the summed count;
      ``ids`` → the concatenated doc ids."""
    kind = op[0]
    if kind == "count":
        return int(sum(parts))
    if kind == "ids":
        return np.concatenate(parts)
    if kind == "stats":
        parts = [p for p in parts if p[0]]
        n = sum(p[0] for p in parts)
        if n == 0:
            return pa.table(
                {
                    "n_docs": pa.array([0], pa.int64()),
                    **{c: pa.array([None], pa.float64()) for c in
                       ("min_v", "max_v", "sum_v", "avg_v", "sum_sq")},
                }
            )
        sm = float(sum(p[3] for p in parts))
        return pa.table(
            {
                "n_docs": pa.array([n], pa.int64()),
                "min_v": pa.array([min(p[1] for p in parts)], pa.float64()),
                "max_v": pa.array([max(p[2] for p in parts)], pa.float64()),
                "sum_v": pa.array([sm], pa.float64()),
                "avg_v": pa.array([sm / n], pa.float64()),
                "sum_sq": pa.array([float(sum(p[4] for p in parts))], pa.float64()),
            }
        )
    if kind == "terms_stats":
        return fold_terms_stats(parts)
    if kind == "top_hits":
        from ..ops.windows import head_k_per_key

        live = [p for p in parts if p.num_rows]
        if not live:
            return pa.table(
                {
                    "value": pa.array([], pa.string()),
                    "rank": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "s": parts[0]["s"],
                }
            )
        t = pa.concat_tables(live, promote_options="default")
        out = head_k_per_key(t, "value", "s", op[3], op[4], with_rank=True)
        return out.select(["value", "rank", "doc_id", "s"])
    if kind == "bucket_sums":
        agg = _sum_by(parts, "key", ["n", "sm"])
        if agg is None:
            return pa.table(
                {
                    "key": parts[0]["key"],
                    "n": pa.array([], pa.int64()),
                    "sm": pa.array([], pa.int64()),
                }
            )
        agg = agg.sort_by("key")
        return pa.table(
            {
                "key": agg["key"],
                "n": agg["n_sum"].cast(pa.int64()),
                "sm": agg["sm_sum"].cast(pa.int64()),
            }
        )
    # terms / hist / composite: (key, partial) counts
    key = "key" if kind == "hist" else "value"
    agg = _sum_by(parts, key, ["partial"])
    if agg is None:
        if kind == "composite":
            return None
        return pa.table(
            {
                key: parts[0][key] if kind == "hist" else pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
            }
        )
    out = pa.table({key: agg[key], "n_docs": agg["partial_sum"].cast(pa.int64())})
    if kind == "terms":
        return out.sort_by([("n_docs", "descending"), ("value", "ascending")])
    if kind == "hist":
        return out.sort_by("key")
    return out.sort_by("value").slice(0, op[3])  # composite page


_CALENDAR_UNITS = ("week", "month", "quarter", "year")


def check_histogram_interval(arg) -> float:
    """Validate a numeric ``histogram`` interval ONCE for every
    bucketing layer: must be > 0, finite, and below 2^63 — zero/NaN
    divisions yield silent garbage buckets, and a ≥2^63 width makes
    ``floor(v/iv)*iv`` overflow the int64 bucket key (INT64_MIN with a
    200).  Returns the float width."""
    fv = float(arg)
    if not (0 < fv < float(2 ** 63)):
        raise ValueError(
            f"histogram interval must be > 0 and finite (< 2^63), "
            f"got {arg!r}"
        )
    return fv


def _float_histogram_keys(vals, arg) -> pa.Array:
    """THE shared numeric-histogram bucket-key kernel (OpenSearch
    ``histogram`` lower-edge semantics) — one definition for all three
    bucketing layers (`histogram`, `value_histogram`,
    `value_bucket_sums`) so key semantics can never diverge: validate
    the width, cast to float64, floor (not truncate — negative values
    bucket correctly), null/NaN inputs become null keys (a NaN would
    otherwise ``.astype(int64)`` into a garbage INT64_MIN bucket)."""
    iv = check_histogram_interval(arg)
    v = (
        vals
        if isinstance(vals, np.ndarray)
        else pa.chunked_array([vals]).cast(pa.float64()).to_numpy(
            zero_copy_only=False
        )
    )
    missing = np.isnan(v)
    with np.errstate(invalid="ignore"):
        edges = np.floor(v / iv) * iv
    return pa.array(
        np.where(missing, 0.0, edges).astype(np.int64),
        pa.int64(),
        mask=missing,
    )


def is_fixed_interval(arg) -> bool:
    """True when a ``date_histogram`` interval argument names a FIXED
    width (int, or an ASCII-digit string) rather than a calendar unit.
    ``str.isdigit()`` alone is the wrong routing test: it accepts
    Unicode digits like ``'²'`` that ``int()`` rejects, which would
    send a calendar-branch string down the numeric branch and raise a
    confusing ``invalid literal`` instead of the calendar-unit error."""
    if not isinstance(arg, str):
        return True
    return arg.isascii() and arg.isdigit()


def _fixed_interval_us(arg) -> int:
    """Positive fixed interval → width in MICROSECONDS; rejects 0/
    negative widths (``us // 0`` under numpy silently returns 0 and
    would land every doc in bucket 0 with a 200)."""
    iv = int(arg)
    if iv <= 0:
        raise ValueError(f"date_histogram interval must be > 0, got {arg!r}")
    return iv * 1_000_000


def _check_date_interval(arg) -> bool:
    """Validate a ``date_histogram`` interval on the driver, before any
    block runs → ``True`` for a calendar unit, ``False`` for a fixed
    width."""
    if is_fixed_interval(arg):
        _fixed_interval_us(arg)
        return False
    if arg not in _CALENDAR_UNITS:
        raise ValueError(
            f"unknown calendar interval {arg!r} — one of {_CALENDAR_UNITS}"
        )
    return True


def _ts_us_masked(t: pa.Table, ts_col: str) -> tuple[np.ndarray, np.ndarray]:
    """``(epoch_us int64, valid mask)`` of a timestamp column — the
    shared extraction behind every date-bucketing key_of (NaT-safe:
    invalid rows carry 0 in the int array and False in the mask)."""
    ts64 = (
        t[ts_col]
        .cast(pa.timestamp("us"))
        .combine_chunks()
        .to_numpy(zero_copy_only=False)
    )
    valid = ~np.isnat(ts64)
    us = np.zeros(len(ts64), np.int64)
    us[valid] = ts64[valid].astype(np.int64)
    return us, valid


def _calendar_trunc_us(ts64: np.ndarray, unit: str) -> np.ndarray:
    """Vectorized civil-calendar truncation: ``datetime64[us]`` array →
    epoch-us of each value's bucket START (``date_trunc`` semantics,
    mirroring DuckDB exactly so the SQL oracle replays it).  Calendar
    months/years are variable-width, so this is integer month
    arithmetic via numpy's ``datetime64[M]/[Y]`` casts — no epoch
    division, no Python datetime loop."""
    if unit == "week":
        # ISO weeks start MONDAY (DuckDB date_trunc('week')); numpy's
        # datetime64[W] weeks start on the epoch's Thursday, so
        # truncate by day index: 1970-01-01 was a Thursday → Monday-
        # indexed weekday = (days + 3) mod 7 (floor-mod, pre-1970 safe)
        d = ts64.astype("datetime64[D]").astype(np.int64)
        m = (d - (d + 3) % 7).astype("datetime64[D]")
    elif unit == "month":
        m = ts64.astype("datetime64[M]")
    elif unit == "year":
        m = ts64.astype("datetime64[Y]")
    elif unit == "quarter":
        mi = ts64.astype("datetime64[M]").astype(np.int64)
        # months-since-1970 floored to the quarter boundary (exact for
        # pre-1970 too: floor division rounds toward -inf)
        m = ((mi // 3) * 3).astype("datetime64[M]")
    else:
        raise ValueError(
            f"unknown calendar interval {unit!r} — one of {_CALENDAR_UNITS}"
        )
    return m.astype("datetime64[us]").astype(np.int64)


def date_histogram(
    docs_ds,
    matched: np.ndarray,
    ts_col: str = "warc_ts",
    interval_s: int | str = 3600,
) -> pa.Table:
    """Doc counts per bucket of ``ts_col`` among the matched docs →
    ``(bucket, n_docs)``, count desc / bucket asc.

    ``interval_s`` is either a FIXED width in seconds (``bucket`` =
    ``floor(epoch_seconds / interval_s)``, int64 — OpenSearch
    ``fixed_interval``) or a CALENDAR unit ``"month"``/``"quarter"``/
    ``"year"`` (OpenSearch ``calendar_interval``; ``bucket`` = the
    civil bucket-start ``timestamp[us]``, exactly DuckDB
    ``date_trunc`` — the docs-site operator's "docs per month"
    dashboard query)."""
    calendar = _check_date_interval(interval_s)
    (h,) = _scatter(
        docs_ds, matched, [("hist", ts_col, "date_histogram", interval_s)]
    )
    if calendar:
        h = h.set_column(0, "key", h["key"].cast(pa.timestamp("us")))
    return _counts(h, "bucket")


#: auto_date_histogram's interval ladder, coarsest-last: fixed widths
#: in seconds (OpenSearch's second/minute/hour/day rungs + the fixed
#: 7-day week), then the civil calendar rungs.  Selection = the first
#: rung whose EXACT bucket count fits the target; a span wider than
#: `target` years falls back to `year` (documented cap — OpenSearch
#: continues into multi-year rungs).
_AUTO_LADDER_FIXED = (1, 5, 10, 30, 60, 300, 600, 1800,
                      3600, 10800, 43200, 86400, 604800)
_AUTO_LADDER_CALENDAR = ("month", "quarter", "year")


def auto_date_histogram(
    docs_ds,
    matched: np.ndarray,
    ts_col: str = "warc_ts",
    target: int = 10,
) -> pa.Table:
    """OpenSearch ``auto_date_histogram``: pick the coarsest-needed
    interval so the histogram has at most ``target`` buckets, then
    bucket — two streaming passes, both broadcast-bitmap partials.

    Pass 1 collects ONE ``(min_ts, max_ts)`` row per block (constant
    size); the driver walks the ladder computing each rung's EXACT
    bucket count from the two endpoints (fixed rungs by epoch
    division, calendar rungs by civil month arithmetic — no data
    touched).  Pass 2 is the ordinary :func:`date_histogram` partial
    at the chosen rung.  Output: ``(bucket: timestamp[us] start,
    n_docs, interval: string)`` — fixed rungs spell seconds
    (``"3600s"``), calendar rungs their unit — count desc / bucket
    asc, deterministic and SQL-replayable (the oracle reproduces the
    ladder selection as a CASE over the same endpoint arithmetic)."""

    def mm_partial(t: pa.Table):
        us = t[ts_col].cast(pa.timestamp("us")).cast(pa.int64()).drop_null()
        if len(us) == 0:
            return None
        v = us.to_numpy(zero_copy_only=False)
        return int(v.min()), int(v.max())

    def mm_merge(parts: list):
        parts = [p for p in parts if p is not None]
        if not parts:
            return None
        return min(p[0] for p in parts), max(p[1] for p in parts)

    bits_ref = _broadcast(matched)
    (mm,) = _scatter(docs_ds, bits_ref, [(mm_partial, mm_merge)])
    if mm is None:
        return pa.table(
            {
                "bucket": pa.array([], pa.timestamp("us")),
                "n_docs": pa.array([], pa.int64()),
                "interval": pa.array([], pa.string()),
            }
        )
    amin, amax = mm

    def _cal_count(unit: str) -> int:
        ends = np.array([amin, amax], "datetime64[us]")
        tr = _calendar_trunc_us(ends, unit)
        if unit == "year":
            per = 12
        elif unit == "quarter":
            per = 3
        else:
            per = 1
        m0, m1 = (
            tr.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
        )
        return int((m1 - m0) // per) + 1

    chosen: int | str = "year"
    for iv in _AUTO_LADDER_FIXED:
        ivus = iv * 1_000_000
        if amax // ivus - amin // ivus + 1 <= target:
            chosen = iv
            break
    else:
        for unit in _AUTO_LADDER_CALENDAR:
            if _cal_count(unit) <= target:
                chosen = unit
                break

    # the date_histogram key at the chosen rung: a fixed rung's key is
    # the FLOOR-divided bucket index (matching the ladder selection's
    # Python floor; the SQL oracle's `//` truncates — it replays
    # exactly on non-negative epochs, which the corpus contract
    # guarantees), a calendar rung's the bucket-start epoch-us
    (h,) = _scatter(
        docs_ds, bits_ref, [("hist", ts_col, "date_histogram", chosen)]
    )
    key = h["key"]
    if isinstance(chosen, int):
        key = pc.multiply(key, pa.scalar(chosen * 1_000_000, pa.int64()))
    out = _counts(h.set_column(0, "key", key.cast(pa.timestamp("us"))), "bucket")
    label = f"{chosen}s" if isinstance(chosen, int) else chosen
    return out.append_column(
        "interval", pa.array([label] * out.num_rows, pa.string())
    )


def histogram(
    docs_ds,
    matched: np.ndarray,
    col: str,
    interval: int,
) -> pa.Table:
    """OpenSearch numeric ``histogram`` aggregation: doc counts per
    fixed-width bucket of numeric column ``col`` among the matched
    docs → ``(bucket, n_docs)``, count desc / bucket asc.  ``bucket``
    is the bucket's lower edge ``floor(v / interval) * interval``
    (OpenSearch key semantics).  Same partial-count shape as
    :func:`date_histogram`; empty buckets are omitted (OpenSearch
    ``min_doc_count: 1``)."""
    check_histogram_interval(interval)
    (h,) = _scatter(docs_ds, matched, [("hist", col, "histogram", interval)])
    return _counts(h, "bucket")


def range_facet(
    docs_ds,
    matched: np.ndarray,
    col: str,
    ranges: list[tuple[float, float]],
) -> pa.Table:
    """OpenSearch ``range`` aggregation: doc counts per explicit
    ``[from, to)`` bucket of numeric ``col`` among the matched docs →
    ``(lo, hi, n_docs)`` sorted by ``lo``.  Buckets may overlap (each
    is counted independently, as in OpenSearch) and empty buckets are
    KEPT with ``n_docs = 0`` (range buckets are explicit, unlike
    histogram's).

    Shape at scale: the ``range`` value histogram — ONE partial row
    per (block, bucket), constant-size final."""
    lows = np.array([r[0] for r in ranges], np.float64)
    highs = np.array([r[1] for r in ranges], np.float64)
    (h,) = _scatter(docs_ds, matched, [("hist", col, "range", list(ranges))])
    tot = np.zeros(len(ranges), np.int64)
    tot[h["key"].to_numpy()] = h["n_docs"].to_numpy()
    order = np.argsort(lows, kind="stable")
    return pa.table(
        {
            "lo": pa.array(lows[order], pa.float64()),
            "hi": pa.array(highs[order], pa.float64()),
            "n_docs": pa.array(tot[order], pa.int64()),
        }
    )


def percentiles(
    docs_ds,
    matched: np.ndarray,
    col: str,
    qs: list[float] = (25.0, 50.0, 75.0, 95.0, 99.0),
    approx: bool = False,
    delta: int = 200,
) -> pa.Table:
    """OpenSearch ``percentiles`` aggregation over numeric ``col`` of
    the matched docs → ``(pct, value)`` rows, one per requested
    percentile.

    ``approx=False`` (exact): per-batch **value-count histogram**
    partials (``group_by(value).count`` — ≤ distinct-per-block rows
    move, never docs), driver merge, then linear interpolation over
    the merged histogram with the standard ``h = (n-1)·q`` continuous
    rule — bit-identical to DuckDB/Postgres ``quantile_cont`` (the
    SQL-oracle pin).  Output-scale in DISTINCT values: right for
    bounded-cardinality metrics (lengths, counts, scores at fixed
    precision); for unbounded doubles use the sketch path.
    ``approx=True``: per-batch t-digest sketches (``ops/sketch.py``,
    CONSTANT ``O(delta)`` size) merged on the driver — OpenSearch's
    own algorithm (Dunning & Ertl) for unbounded cardinalities."""
    if approx:
        from ..ops.sketch import TDigest

        def sk_partial(t: pa.Table) -> TDigest:
            v = t[col].cast(pa.float64()).drop_null().to_numpy(zero_copy_only=False)
            return TDigest(delta).add(v)

        def sk_merge(parts: list) -> TDigest:
            acc = TDigest(delta)
            for sk in parts:
                acc.merge(sk)
            return acc

        (acc,) = _scatter(docs_ds, matched, [(sk_partial, sk_merge)])
        vals = [acc.quantile(q / 100.0) for q in qs]
    else:
        (h,) = _scatter(docs_ds, matched, [("hist", col, "values", None)])
        vals = interpolate_quantiles(
            h["key"].to_numpy(zero_copy_only=False),
            h["n_docs"].to_numpy(zero_copy_only=False), qs,
        )
    return pa.table(
        {
            "pct": pa.array([float(q) for q in qs], pa.float64()),
            "value": pa.array(vals, pa.float64()),
        }
    )


def interpolate_quantiles(
    v: np.ndarray, c: np.ndarray, qs: list[float]
) -> list[float]:
    """Continuous quantiles from a merged value-count histogram
    (``v`` sorted distinct values, ``c`` their counts): the standard
    ``h = (n-1)·q`` linear-interpolation rule, bit-identical to
    DuckDB/Postgres ``quantile_cont`` — shared by the Dataset facet
    and the serving tier's per-shard-histogram percentiles.  No value
    → ``None`` each."""
    if not len(c):
        return [None] * len(qs)
    cum = np.cumsum(c.astype(np.int64))  # cum[i] = # values <= v[i]
    n = int(cum[-1])
    out = []
    for q in qs:
        h = (n - 1) * (float(q) / 100.0)
        lo = int(np.floor(h))
        # index of the histogram bin holding sorted position `lo`
        # (0-based): first i with cum[i] > lo
        i = int(np.searchsorted(cum, lo, side="right"))
        x_lo = float(v[i])
        if h == lo or cum[i] > lo + 1:  # next sorted value is the same bin
            x_hi = x_lo
        else:
            x_hi = float(v[i + 1])
        out.append(x_lo + (h - lo) * (x_hi - x_lo))
    return out


def extended_stats(n: int, mn, mx, s, ss) -> dict:
    """OpenSearch ``extended_stats`` of ``n > 0`` values from their
    min, max, sum and sum of squares: the POPULATION variance in the
    SQL oracle's form ``(Σx² − (Σx)²/n)/n``, clamped at 0 where float
    cancellation lands it below, and its correctly rounded root."""
    var = (ss - s * s / n) / n
    var = var if var > 0 else 0.0
    return {
        "count": n, "min": mn, "max": mx, "sum": s, "avg": s / n,
        "sum_of_squares": ss, "variance": var, "std_deviation": math.sqrt(var),
    }


def rank_ops(col: str, values) -> list:
    """The ops of ``percentile_ranks`` of ``values`` over ``col``: the
    ``range`` value histogram over the bands ``[-inf, v]`` (``[lo, hi)``
    with ``hi`` the next double above ``v``) and the ``stats`` op's
    value count — constant-size partials, like :func:`range_facet`."""
    his = np.nextafter(np.asarray(values, np.float64), np.inf)
    return [("hist", col, "range", [(-np.inf, float(x)) for x in his]),
            ("stats", col)]


def rank_pcts(values, hist: pa.Table, stats: pa.Table) -> list:
    """``percentile_ranks`` folded from the merged :func:`rank_ops`
    results → per value, in ``values`` order, the percentage of the
    present values ≤ it (``100·count/total``: one division, the SQL
    oracle's expression shape); all ``None`` when none is present."""
    le = np.zeros(len(values), np.int64)
    le[hist["key"].to_numpy()] = hist["n_docs"].to_numpy()
    n = int(stats["n_docs"][0].as_py())
    return (100.0 * le / n).tolist() if n else [None] * len(values)


#: the parent pipelines of a histogram's ``sum`` metric
PARENT_PIPELINES = ("cumulative_sum", "derivative", "serial_diff", "moving_fn")


def parent_pipeline(kind: str, sums, lag: int = 1, window: int = 3) -> list:
    """One parent pipeline over a histogram's int64 bucket sums (bucket
    ascending) → one value per bucket, ``None`` where OpenSearch's skip
    gap policy leaves a bucket without one: ``cumulative_sum``,
    ``derivative`` (``s[i] − s[i−1]``), ``serial_diff`` (``s[i] −
    s[i−lag]``) as exact ints, and ``moving_fn`` (``unweightedAvg``
    over a trailing ``window`` of buckets, current included, partial
    at the head) as one division of exact ints.  A ``lag`` or
    ``window`` below 1 is refused, as OpenSearch does."""
    sm = np.asarray(sums, np.int64)
    if kind == "cumulative_sum":
        return np.cumsum(sm).tolist()
    if kind == "moving_fn":
        if window < 1:
            raise ValueError(f"moving_fn window must be >= 1, got {window}")
        cum = np.concatenate([[0], np.cumsum(sm)])
        hi = np.arange(1, len(sm) + 1)
        lo = np.maximum(hi - window, 0)
        return [float(int(s)) / int(c) for s, c in zip(cum[hi] - cum[lo], hi - lo)]
    if kind == "derivative":
        lag = 1
    elif kind != "serial_diff":
        raise ValueError(f"unknown parent pipeline {kind!r}")
    if lag < 1:
        raise ValueError(f"serial_diff lag must be >= 1, got {lag}")
    return [None] * min(lag, len(sm)) + (sm[lag:] - sm[:-lag]).tolist()


def bucket_metric(kind: str, vals: list, keys: list, percents=()) -> dict:
    """One sibling ``*_bucket`` pipeline over a parent's bucket values
    ``vals`` and their ``keys`` (bucket order), in OpenSearch's shape.
    Sums keep the values' type (Ray Data's int64 sums stay exact,
    REST's metric floats stay floats); ``min``/``max_bucket`` carry
    every key at the extreme.  No value → ``{"value": None}``."""
    if not vals:
        return {"value": None}
    if kind in ("min_bucket", "max_bucket"):
        mv = min(vals) if kind == "min_bucket" else max(vals)
        return {"value": mv, "keys": [k for k, v in zip(keys, vals) if v == mv]}
    if kind == "percentiles_bucket":
        uq, cnt = np.unique(np.asarray(vals, np.float64), return_counts=True)
        qs = [float(x) for x in percents]
        return {"values": dict(zip(map(str, qs), interpolate_quantiles(uq, cnt, qs)))}
    n, s = len(vals), sum(vals)
    if kind == "sum_bucket":
        return {"value": s}
    if kind == "avg_bucket":
        return {"value": float(s) / n}
    if kind == "extended_stats_bucket":
        return extended_stats(n, min(vals), max(vals), s, sum(x * x for x in vals))
    return {"count": n, "min": min(vals), "max": max(vals), "sum": s,
            "avg": float(s) / n}


def _bucket_keys(vals, kind: str, arg) -> pa.Array:
    """int64 bucket keys of a ``date_histogram`` or ``histogram``, null
    where the value is missing — the ONE date-key branch.  A date key
    is ``floor(epoch_us / interval_us)`` for a fixed width (numpy FLOOR
    division, the engine-wide date-bucket rule: ``pc.divide`` truncates
    toward zero and would disagree pre-1970) or the civil bucket
    start's epoch-us for a calendar unit (week/month/quarter/year);
    a numeric key is the bucket's lower edge.  Identical keys sum
    exactly across blocks and shards."""
    if isinstance(vals, pa.ChunkedArray):
        vals = vals.combine_chunks()
    if kind == "histogram":
        return _float_histogram_keys(vals, arg)
    us, valid = _ts_us_masked(pa.table({"_ts": vals}), "_ts")
    if is_fixed_interval(arg):
        keys = us // _fixed_interval_us(arg)
    else:
        keys = np.zeros(len(us), np.int64)
        keys[valid] = _calendar_trunc_us(
            us[valid].astype("datetime64[us]"), str(arg)
        )
    return pa.array(keys, pa.int64(), mask=~valid)


def value_histogram(vals, kind: str, arg=None) -> pa.Table:
    """``(key, partial)`` bucket-count histogram of one value array —
    the ``hist`` op of :func:`op_partial` behind every bucket
    aggregation: bucketing is vectorized here, histograms are
    distinct-key-scale, and disjoint-range partials SUM exactly on the
    driver.

    ``kind``:

    * ``date_histogram`` — ``arg`` = interval seconds; key =
      ``floor(epoch_us / interval_us)`` (the Dataset facet's key).
    * ``histogram`` — ``arg`` = integer interval; key = the bucket's
      lower edge (OpenSearch key semantics, nulls/NaNs dropped).
    * ``range`` — ``arg`` = ``[(lo, hi), …]``; key = bucket INDEX
      (buckets may overlap; zero-count buckets kept).
    * ``date_range`` — ``arg`` = ``[(lo_us, hi_us), …]`` epoch-us
      bounds over a timestamp column (±inf open edges); same
      index-key semantics as ``range``, null timestamps dropped.
    * ``values`` — raw value-count histogram (float64) — the exact
      percentiles / exact cardinality primitive; distinct-value-scale,
      never doc-scale.
    """
    vals = vals.combine_chunks() if isinstance(vals, pa.ChunkedArray) else vals
    if kind in ("date_histogram", "histogram"):
        keys = _bucket_keys(vals, kind, arg)
    elif kind == "range":
        v = pa.chunked_array([vals]).cast(pa.float64()).to_numpy(
            zero_copy_only=False
        )
        lows = np.array([r[0] for r in arg], np.float64)
        highs = np.array([r[1] for r in arg], np.float64)
        counts = ((v[:, None] >= lows) & (v[:, None] < highs)).sum(axis=0)
        return pa.table(
            {
                "key": pa.array(np.arange(len(arg)), pa.int64()),
                "partial": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )
    elif kind == "date_range":
        # OpenSearch date_range: explicit [from, to) bands over a DATE
        # field — ``arg`` = [(lo_us, hi_us), …] epoch-us bounds
        # (±inf for open edges); lowers onto the ``range`` band kernel
        # after a NaT-dropping epoch-us conversion (ONE copy of the
        # band-count logic)
        us, valid = _ts_us_masked(pa.table({"_ts": vals}), "_ts")
        return value_histogram(
            pa.array(us[valid].astype(np.float64), pa.float64()), "range", arg
        )
    elif kind == "values":
        keys = pa.chunked_array([vals]).cast(pa.float64()).combine_chunks()
    elif kind == "distinct":
        # any-typed value-count histogram (keyword cardinality)
        keys = vals
    else:
        raise ValueError(f"unknown value_histogram kind {kind!r}")
    agg = (
        pa.table({"key": keys})
        .drop_null()
        .group_by("key")
        .aggregate([([], "count_all")])
    )
    return pa.table(
        {"key": agg["key"], "partial": agg["count_all"].cast(pa.int64())}
    )


def value_bucket_sums(key_vals, metric_vals, kind: str, arg=None) -> pa.Table:
    """``(key, n, sm)`` bucket count + metric-sum histogram — the
    ``bucket_sums`` op of :func:`op_partial` behind every pipeline
    aggregation (a ``date_histogram``/``histogram`` parent with a
    ``sum`` metric):
    bucketing reuses :func:`value_histogram`'s key semantics; rows
    with a null KEY are dropped, rows with a null METRIC still count
    toward ``n`` but contribute 0 to ``sm`` (OpenSearch: adding a
    metric sub-agg never changes ``doc_count``); per-shard partials
    are distinct-key-scale and both columns SUM exactly across
    disjoint doc ranges (the metric is cast to int64 — the engine's
    integral-metric contract for order-independent exactness)."""
    if kind not in ("date_histogram", "histogram"):
        raise ValueError(f"unknown value_bucket_sums kind {kind!r}")
    t = pa.table(
        {
            "key": _bucket_keys(key_vals, kind, arg),
            "v": (
                metric_vals.combine_chunks()
                if isinstance(metric_vals, pa.ChunkedArray)
                else metric_vals
            ).cast(pa.int64()),
        }
    )
    if t["key"].null_count:
        t = t.filter(pc.is_valid(t["key"]))
    # count_all + null-skipping sum: a null metric counts the doc but
    # adds 0 — doc_count is invariant under adding the metric
    agg = t.group_by("key").aggregate([([], "count_all"), ("v", "sum")])
    return pa.table(
        {
            "key": agg["key"],
            "n": agg["count_all"].cast(pa.int64()),
            "sm": agg["v_sum"].fill_null(0).cast(pa.int64()),
        }
    )


def percentile_ranks(
    docs_ds,
    matched: np.ndarray,
    col: str,
    values: list[float],
) -> pa.Table:
    """OpenSearch ``percentile_ranks`` (inverse percentiles): for each
    requested value, the percentage of matched docs whose ``col`` is ≤
    that value → ``(value, rank_pct)``, value ascending — the shared
    :func:`rank_ops` / :func:`rank_pcts` plan and fold.  Docs missing
    ``col`` are ignored (they count in neither term)."""
    vals = sorted(float(v) for v in values)
    h, st = _scatter(docs_ds, matched, rank_ops(col, vals))
    return pa.table(
        {
            "value": pa.array(vals, pa.float64()),
            "rank_pct": pa.array(rank_pcts(vals, h, st), pa.float64()),
        }
    )


def top_by_column(
    docs_ds,
    matched: np.ndarray,
    col: str,
    k: int = 10,
    ascending: bool = False,
) -> pa.Table:
    """OpenSearch ``sort`` clause over a match set: the top ``k``
    matched docs ordered by a stored field (e.g. newest first), doc id
    ascending as tie-break → ``(rank, doc_id)``.

    Shape at scale: bitmap membership + per-batch PARTIAL top-k (each
    block contributes ≤ k rows), tiny driver final — the same
    combiner-before-collect shape as ``ops/windows.topk_per_group``;
    no full sort, no corpus-scale rows to the driver."""

    def top(t: pa.Table) -> pa.Table:
        t = t.select(["doc_id", col])
        if t.num_rows == 0:
            return t
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = t[col].to_numpy(zero_copy_only=False)
        key = vals if ascending else _neg_key(vals)
        return t.take(pa.array(np.lexsort((ids, key))[:k]))

    def merge(parts: list) -> pa.Table:
        parts = [p for p in parts if p.num_rows]
        ids = np.empty(0, np.int64)
        if parts:
            ids = top(pa.concat_tables(parts, promote_options="default"))[
                "doc_id"
            ].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(ids) + 1, dtype=np.int64)),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    return _scatter(docs_ds, matched, [(top, merge)])[0]


def rare_terms_facet(
    docs_ds,
    matched: np.ndarray,
    field: str,
    max_doc_count: int = 3,
) -> pa.Table:
    """OpenSearch ``rare_terms`` aggregation: the LONG-TAIL values of
    ``field`` among the matched docs — buckets with ``n_docs ≤
    max_doc_count`` → ``(value, n_docs)``, count ASC then value asc
    (rarest first, the inverse of ``terms_facet``).  Same
    partial-count shuffle-free shape; the tail filter runs on the
    already-output-scale combined counts."""
    (t,) = _scatter(docs_ds, matched, [("terms", field)])
    t = t.filter(pc.less_equal(t["n_docs"], pa.scalar(max_doc_count, pa.int64())))
    return t.sort_by([("n_docs", "ascending"), ("value", "ascending")])


def multi_terms_facet(
    docs_ds, matched: np.ndarray, cols: list[str]
) -> pa.Table:
    """OpenSearch ``multi_terms`` aggregation: doc counts per COMPOSITE
    key of ``cols`` among the matched docs → ``(*cols, n_docs)``,
    count desc then keys asc.  Same partial-count shape as
    :func:`terms_facet`, with the whole key tuple riding the partial
    rows (≤ distinct-tuples-per-block move)."""

    def partial(t: pa.Table) -> pa.Table:
        agg = t.select(cols).group_by(cols).aggregate([([], "count_all")])
        return agg.rename_columns([*cols, "partial"])

    def merge(parts: list) -> pa.Table:
        parts = [p for p in parts if p.num_rows]
        if not parts:
            return pa.table(
                {**{c: pa.array([], pa.string()) for c in cols},
                 "n_docs": pa.array([], pa.int64())}
            )
        t = pa.concat_tables(parts, promote_options="default")
        agg = t.group_by(cols).aggregate([("partial", "sum")])
        out = agg.rename_columns([*cols, "n_docs"]).set_column(
            len(cols), "n_docs", agg["partial_sum"].cast(pa.int64())
        )
        return out.sort_by(
            [("n_docs", "descending"), *[(c, "ascending") for c in cols]]
        )

    return _scatter(docs_ds, matched, [(partial, merge)])[0]


def top_hits(
    docs_ds,
    matched: np.ndarray,
    group_col: str,
    sort_col: str,
    k: int = 3,
    ascending: bool = False,
) -> pa.Table:
    """OpenSearch ``top_hits`` sub-aggregation: for every bucket of
    ``group_col``, the top ``k`` matched docs by ``sort_col`` →
    ``(value, rank, doc_id)``, buckets ascending.

    Tie-break: docs equal on ``sort_col`` order by doc_id in the SAME
    direction as the sort (``ops/windows.topk_per_group`` semantics) —
    deterministic, mirrored by the SQL oracle.

    Shape at scale: bitmap broadcast + the ``top_hits`` op (≤ k rows
    per (block, bucket) reach the driver, whose merge re-applies the
    same per-key head-k)."""
    (t,) = _scatter(
        docs_ds, matched,
        [("top_hits", group_col, sort_col, k, ascending, None)],
    )
    return pa.table(
        {
            "value": t["value"],
            "rank": t["rank"],
            "doc_id": t["doc_id"].cast(pa.int64()),
        }
    )


def collapse_top(
    docs_ds,
    scores: np.ndarray,
    field: str,
    k: int = 10,
) -> pa.Table:
    """OpenSearch ``collapse``: rank by score but keep only the BEST
    doc per distinct value of ``field``, then top ``k`` →
    ``(rank, doc_id, value)``.  Ordering: score desc, doc_id asc
    (ties inside a group and across groups alike).

    Shape at scale: the dense score vector is broadcast ONCE
    (``ray.put`` — 8 bytes/doc, the same budget as the norms the
    scorer already holds); each docs-store batch runs the vectorized
    collapse kernel (``bm25.collapse_rows``: lexsort by score desc /
    doc asc + ``np.unique(return_index=True)`` first-per-group over
    the keys' dictionary codes, no pandas conversion) and emits
    AT MOST ``k`` rows: only the global top-``k`` collapsed rows are
    returned, and a block row outranked by ``k`` same-block group
    winners can never reach the global top-``k`` (any group it could
    represent is already beaten by ``k`` better global group bests) —
    the driver fold is ``k·blocks``-scale even when the collapse
    field is near-unique.  On the sharded tier each shard folds its
    own range and the merge is the same driver fold."""
    import ray

    from .bm25 import collapse_rows

    scores_ref = ray.put(np.asarray(scores, np.float64))

    def partial(t: pa.Table) -> pa.Table:
        sc = ray.get(scores_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = (doc_ids >= 0) & (doc_ids < len(sc))
        s = np.where(ok, sc[np.clip(doc_ids, 0, len(sc) - 1)], 0.0)
        keep = s > 0.0
        ids = doc_ids[keep]
        if not len(ids):
            return None
        vals = t[field].filter(pa.array(keep))
        rows = collapse_rows(vals, ids, s[keep], k)
        top = vals.take(rows).to_pylist()
        return pa.table(
            {
                "value": pa.array(
                    [None if v is None else str(v) for v in top], pa.string()
                ),
                "doc_id": pa.array(ids[rows], pa.int64()),
                "s": pa.array(s[keep][rows], pa.float64()),
            }
        )

    def merge(parts: list) -> pa.Table:
        parts = [p for p in parts if p is not None]
        if not parts:
            return pa.table(
                {
                    "rank": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "value": pa.array([], pa.string()),
                }
            )
        merged = pa.concat_tables(parts, promote_options="default")
        ids = merged["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = merged["s"].to_numpy(zero_copy_only=False)
        rows = collapse_rows(merged["value"], ids, s, k)
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(rows) + 1, dtype=np.int64)),
                "doc_id": pa.array(ids[rows], pa.int64()),
                "value": pa.array(
                    [str(v) for v in merged["value"].take(rows).to_pylist()],
                    pa.string(),
                ),
            }
        )

    # the score vector is this facet's broadcast: no bitmap filter
    return _scatter(docs_ds, None, [(partial, merge)])[0]


def _neg_key(vals: np.ndarray) -> np.ndarray:
    """Descending sort key for lexsort (negate; datetimes via int64)."""
    if np.issubdtype(vals.dtype, np.datetime64):
        return -vals.astype("datetime64[us]").astype(np.int64)
    return -vals


def composite_page(keys, after, size: int) -> pa.Table:
    """ONE composite-agg page over a matched key array — the shared
    kernel behind every composite agg (the ``composite`` op of
    :func:`op_partial`): drop null keys
    (OpenSearch ``missing_bucket: false``), cast the request cursor to
    the COLUMN's type (an unrepresentable cursor is a 400 — validated
    even on an empty match set so no shard can diverge),
    keep keys strictly after it, and return the ``size`` smallest
    with counts → ``(value: native type, partial: int64)``."""
    keys = (
        keys if isinstance(keys, pa.ChunkedArray) else pa.chunked_array([keys])
    )
    t = pa.table({"value": keys})
    after_sc = None
    if after is not None:
        try:
            after_sc = pa.scalar(after).cast(t["value"].type)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError,
                pa.ArrowTypeError, OverflowError) as e:
            # OverflowError: pa.scalar(2**70) raises before Arrow ever
            # sees the value — same 400, not a 500
            raise ValueError(
                f"composite after key {after!r} does not fit the "
                f"{t['value'].type} source column: {e}"
            ) from None
    if t["value"].null_count:
        t = t.filter(pc.is_valid(t["value"]))
    if after_sc is not None:
        t = t.filter(pc.greater(t["value"], after_sc))
    agg = t.group_by("value").aggregate([([], "count_all")])
    agg = agg.sort_by("value").slice(0, size)
    return pa.table(
        {"value": agg["value"], "partial": agg["count_all"].cast(pa.int64())}
    )


def composite_facet(
    docs_ds,
    matched: np.ndarray,
    col: str,
    size: int = 10,
    after=None,
):
    """OpenSearch ``composite`` aggregation over one numeric source:
    key-ordered bucket pages with ``after_key`` cursor resumption —
    the agg built for EXPORTING a large-cardinality facet without a
    giant single response.

    Returns ``(table, after_key)`` where the table is the next
    ``size`` buckets ``(key, n_docs)`` in ascending key order
    strictly AFTER ``after`` (None = from the start), and
    ``after_key`` is the cursor for the next page (None when
    exhausted).

    Shape at scale: the ``composite`` op — per block, only the
    ``size`` SMALLEST matched keys after the cursor leave the task
    (the global first-``size`` keys are always within the union of
    per-block first-``size`` sets); the driver merges output-scale
    partials.  Each page is one streaming pass — the cursor protocol
    is what bounds response size, exactly the API's contract.  Keys
    are int64 (the source is numeric)."""
    (t,) = _scatter(docs_ds, matched, [("composite", col, after, size)])
    if t is None:
        t = pa.table({"value": pa.array([], pa.int64()),
                      "n_docs": pa.array([], pa.int64())})
    tbl = pa.table({"key": t["value"].cast(pa.int64()), "n_docs": t["n_docs"]})
    after_key = (
        int(tbl["key"][-1].as_py()) if size and tbl.num_rows == size else None
    )
    return tbl, after_key


_FILTER_OPS = {
    "==": pc.equal,
    "!=": pc.not_equal,
    ">": pc.greater,
    ">=": pc.greater_equal,
    "<": pc.less,
    "<=": pc.less_equal,
}


def filters_facet(docs_ds, filters: dict[str, tuple[str, str, object]]) -> pa.Table:
    """OpenSearch ``filters`` aggregation: one NAMED bucket per
    predicate, each counting the docs it matches (buckets are
    independent — a doc can land in several, exactly the API's
    semantics).  ``filters`` maps name → ``(column, op, value)`` with
    op in ``== != > >= < <=``.

    Shape at scale: per-batch vectorized predicate eval (Arrow compare
    kernels) → ONE partial-count row per (block, bucket) to a tiny
    driver fold.  One streaming pass total for ALL buckets — not one
    scan per filter."""
    specs = sorted(filters.items())
    for _, (_, op, _) in specs:
        if op not in _FILTER_OPS:
            raise ValueError(f"unsupported filter op: {op!r}")

    def partial(t: pa.Table) -> list[int]:
        return [
            int(pc.sum(pc.cast(_FILTER_OPS[op](t[col], pa.scalar(val)),
                               pa.int64())).as_py() or 0)
            for _, (col, op, val) in specs
        ]

    (counts,) = _scatter(docs_ds, None, [(partial, _vector_sum(len(specs)))])
    return pa.table(
        {
            "bucket": pa.array([name for name, _ in specs], pa.string()),
            "n_docs": pa.array(counts, pa.int64()),
        }
    )


def _vector_sum(n: int):
    """The merge of per-block length-``n`` count vectors: their sum."""
    return lambda parts: np.sum([np.zeros(n, np.int64), *parts], axis=0)


def adjacency_matrix_facet(
    docs_ds, filters: dict[str, tuple[str, str, object]], separator: str = "&"
) -> pa.Table:
    """OpenSearch ``adjacency_matrix`` aggregation: one bucket per
    named filter plus one per pairwise intersection (key
    ``a<separator>b``, names in sorted order — the API's contract),
    counting docs that match both.  Zero-count buckets are omitted,
    matching the API.

    Shape at scale: the named predicates evaluate ONCE per batch
    (vectorized Arrow compare kernels); every intersection is an
    ``and_`` of two already-computed masks, so the pass stays one
    streaming scan with O(F²) mask-ANDs per block and ONE tiny
    partial-count row per (block, bucket) to the driver fold — the
    same constant-size-partial contract as ``filters_facet``."""
    specs = sorted(filters.items())
    for _, (_, op, _) in specs:
        if op not in _FILTER_OPS:
            raise ValueError(f"unsupported filter op: {op!r}")
    names = [name for name, _ in specs]
    keys = list(names) + [
        f"{names[i]}{separator}{names[j]}"
        for i in range(len(names))
        for j in range(i + 1, len(names))
    ]

    def partial(t: pa.Table) -> list[int]:
        masks = [
            pc.cast(_FILTER_OPS[op](t[col], pa.scalar(val)), pa.int64())
            for _, (col, op, val) in specs
        ]
        counts = [int(pc.sum(m).as_py() or 0) for m in masks]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                counts.append(
                    int(pc.sum(pc.multiply(masks[i], masks[j])).as_py() or 0)
                )
        return counts

    (counts,) = _scatter(docs_ds, None, [(partial, _vector_sum(len(keys)))])
    agg = dict(zip(keys, counts.tolist()))
    kept = sorted(k for k in keys if agg[k] > 0)
    return pa.table(
        {
            "bucket": pa.array(kept, pa.string()),
            "n_docs": pa.array([agg[k] for k in kept], pa.int64()),
        }
    )


def stats_facet(docs_ds, matched: np.ndarray, col: str) -> pa.Table:
    """OpenSearch ``stats`` aggregation over a numeric stored field of
    the matched docs → one row ``(n_docs, min_v, max_v, sum_v,
    avg_v)`` (values as float64, the aggregation's wire type; docs
    missing the field are ignored).

    Shape at scale: the ``stats`` op — ONE constant-size partial per
    block to the driver, a constant-size final fold.  Nothing
    corpus-scale moves."""
    (st,) = _scatter(docs_ds, matched, [("stats", col)])
    return st.select(["n_docs", "min_v", "max_v", "sum_v", "avg_v"])


def extended_stats_facet(docs_ds, matched: np.ndarray, col: str) -> pa.Table:
    """OpenSearch ``extended_stats``: stats + sum_of_squares +
    variance + std_dev — the ``stats`` op of :func:`stats_facet` (it
    carries Σx²) folded by the shared :func:`extended_stats`; an empty
    match set keeps the stats' null row (OpenSearch shape)."""
    (st,) = _scatter(docs_ds, matched, [("stats", col)])
    row = st.to_pylist()[0]
    es = extended_stats(*(row[c] for c in (
        "n_docs", "min_v", "max_v", "sum_v", "sum_sq"))) if row["n_docs"] else {}
    return st.append_column(
        "variance", pa.array([es.get("variance")], pa.float64())
    ).append_column("std_dev", pa.array([es.get("std_deviation")], pa.float64()))


def weighted_avg_facet(
    docs_ds, matched: np.ndarray, val_col: str, weight_col: str
) -> pa.Table:
    """OpenSearch ``weighted_avg``: ``Σ(v·w) / Σw`` over the matched
    docs — two exact scalar partials per block, one final division."""

    def partial(t: pa.Table):
        if t.num_rows == 0:
            return None
        v = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return float((v * w).sum()), float(w.sum())

    def merge(parts: list):
        parts = [p for p in parts if p is not None]
        if not parts:  # empty match set → null (OpenSearch returns null)
            return None
        vw, w = float(sum(p[0] for p in parts)), float(sum(p[1] for p in parts))
        # all-zero weights: the average is undefined → null, not a crash
        return vw / w if w != 0.0 else None

    (avg,) = _scatter(docs_ds, matched, [(partial, merge)])
    return pa.table({"weighted_avg": pa.array([avg], pa.float64())})


def missing_facet(docs_ds, col: str) -> pa.Table:
    """OpenSearch ``missing`` aggregation: how many docs lack ``col``
    (null) — one streaming pass, one int partial per block."""
    (n,) = _scatter(
        docs_ds, None, [(lambda t: int(t[col].null_count), sum)]
    )
    return pa.table({"n_missing": pa.array([int(n)], pa.int64())})


def cardinality(
    docs_ds, matched: np.ndarray, field: str, approx: bool = False, p: int = 14
) -> pa.Table:
    """OpenSearch ``cardinality`` aggregation: the number of distinct
    values of ``field`` among the matched docs → one row
    ``(n_unique,)``.

    ``approx=False`` (exact): the ``distinct`` value histogram (≤
    distinct-per-block values move, never rows), merged on the driver
    — output-scale, like ``terms_facet``'s final.
    ``approx=True``: per-batch HyperLogLog sketches
    (``ops/sketch.py``, ±1.04/√2^p) max-merged on the driver —
    CONSTANT-size partials, the OpenSearch answer for unbounded
    cardinalities at 10^12 docs.

    Nulls are ignored in both modes — SQL ``count(DISTINCT)`` /
    OpenSearch missing-value semantics."""
    if not approx:
        (h,) = _scatter(docs_ds, matched, [("hist", field, "distinct", None)])
        return pa.table({"n_unique": pa.array([h.num_rows], pa.int64())})
    from ..ops.sketch import HLL

    def merge(parts: list) -> HLL:
        acc = HLL(p)
        for sk in parts:
            acc.merge(sk)
        return acc

    (acc,) = _scatter(
        docs_ds, matched, [(lambda t: HLL(p).add_column(t[field]), merge)]
    )
    n = 0 if len(matched) == 0 else int(round(acc.estimate()))
    return pa.table({"n_unique": pa.array([n], pa.int64())})


def terms_facet(docs_ds, matched: np.ndarray, field: str) -> pa.Table:
    """Doc counts per distinct value of keyword column ``field`` among
    the matched docs → ``(value, n_docs)``, count desc / value asc —
    the ``terms`` op (docs missing the field are ignored)."""
    return _scatter(docs_ds, matched, [("terms", field)])[0]


def terms_facet_approx(
    docs_ds, matched: np.ndarray, field: str, k: int = 10, m: int = 1024
) -> pa.Table:
    """``terms_facet`` through the heavy-hitters summary
    (``ops/sketch.py::heavy_hitters``) — the sketch path for unbounded
    key domains, mirroring the ``approx=True`` variants of
    ``cardinality``/``percentiles``: the exact facet ships
    distinct-per-block partial rows, corpus-scale wrong when the
    domain is distinct-URL-sized; this caps driver state at
    blocks × (m+1) counters with deterministic ``[lo, hi]`` bounds
    and a completeness flag.  Columns ``(value, n_docs, n_docs_hi,
    guaranteed)``; when every block's matched-distinct fits ``m`` the
    result equals ``terms_facet``'s top-``k`` exactly."""
    from ..ops.sketch import _topm_partial, fold_heavy_hitters

    (hh,) = _scatter(
        docs_ds, matched,
        [(lambda t: _topm_partial(t, field, m),
          lambda parts: fold_heavy_hitters(parts, k))],
    )
    return hh.rename_columns(["value", "n_docs", "n_docs_hi", "guaranteed"])


def terms_stats_facet(
    docs_ds, matched: np.ndarray, key_field: str, val_col: str
) -> pa.Table:
    """OpenSearch ``terms`` bucket with a ``stats`` sub-aggregation
    (the canonical nested-agg request shape: ``aggs: {by: {terms:
    {field}, aggs: {s: {stats: {field}}}}}``) — per bucket of
    ``key_field`` over the matched docs: doc count and
    min/max/sum/avg of ``val_col``.

    Scale shape: the ``terms_stats`` op — each block emits ONE partial
    row per in-block distinct key (Arrow ``group_by``
    count/min/max/sum — the distributive combiners), the driver folds
    blocks × distinct-keys rows (:func:`fold_terms_stats`) and does
    the avg division ONCE per bucket.  Like ``terms_facet`` this is
    exact and output-scale; for unbounded key domains use the
    ``terms_facet_approx`` sketch and fetch stats per surviving
    bucket.

    Sums travel as float64 (the aggregation's wire type): for
    integer-valued ``val_col`` below 2^53 every partial and total is
    exact regardless of fold order, and ``avg_v = sum_v / n_docs`` is
    a single IEEE division — the SQL oracle hash-matches bit-exactly.
    Ordered ``n_docs`` desc, key asc (the ``terms`` convention)."""
    return _scatter(docs_ds, matched, [("terms_stats", key_field, val_col)])[0]


def fold_terms_stats(parts: list[pa.Table]) -> pa.Table:
    """Exact fold of ``(value, n, mn, mx, sm)`` partials → the terms+
    stats response table — count/min/max/sum are the distributive
    combiners, so Dataset blocks and fleet shards merge identically
    (the ``terms_stats`` merge of :func:`merge_partials`)."""
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table(
            {
                "value": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
                "min_v": pa.array([], pa.float64()),
                "max_v": pa.array([], pa.float64()),
                "sum_v": pa.array([], pa.float64()),
                "avg_v": pa.array([], pa.float64()),
            }
        )
    t = pa.concat_tables(parts, promote_options="default")
    agg = t.group_by("value").aggregate(
        [("n", "sum"), ("mn", "min"), ("mx", "max"), ("sm", "sum")]
    )
    n = agg["n_sum"].cast(pa.int64())
    sm = agg["sm_sum"]
    out = pa.table(
        {
            "value": agg["value"],
            "n_docs": n,
            "min_v": agg["mn_min"],
            "max_v": agg["mx_max"],
            "sum_v": sm,
            "avg_v": pc.divide(sm, n.cast(pa.float64())),
        }
    )
    return out.sort_by([("n_docs", "descending"), ("value", "ascending")])


def _bucket_sums(
    docs_ds, matched, ts_col: str, interval_s: int, metric_col: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The PARENT histogram every pipeline aggregation reduces over:
    the ``bucket_sums`` op (fixed date interval) → ``(bucket, n,
    sum)`` int64 arrays, bucket ascending.  Shared by
    :func:`pipeline_aggs` and :func:`sibling_pipeline_aggs`."""
    (t,) = _scatter(
        docs_ds, matched,
        [("bucket_sums", ts_col, "date_histogram", interval_s, metric_col)],
    )
    return tuple(
        t[c].to_numpy(zero_copy_only=False).astype(np.int64)
        for c in ("key", "n", "sm")
    )


def pipeline_aggs(
    docs_ds,
    matched: np.ndarray,
    ts_col: str,
    interval_s: int,
    metric_col: str,
    window: int = 3,
) -> pa.Table:
    """OpenSearch PIPELINE aggregations over a ``date_histogram``
    parent with a ``sum(metric_col)`` sub-aggregation:

    * ``cum_sum``    — ``cumulative_sum`` of the bucket sums;
    * ``deriv``      — ``derivative`` (null for the first bucket);
    * ``moving_avg`` — ``moving_fn: MovingFunctions.unweightedAvg``
      over a TRAILING window of ``window`` buckets (current included,
      partial windows at the head — OpenSearch semantics);
    * ``avg_v``      — ``bucket_script: sum_v / n_docs``.

    Output: one row per non-empty bucket, bucket ascending —
    ``(bucket, n_docs, sum_v, cum_sum, deriv, moving_avg, avg_v)``.

    Shape at scale: EXACTLY where OpenSearch runs pipeline aggs — the
    distributed phase is the parent histogram's partial ``(bucket,
    count, sum)`` groupby per batch (output-scale rows to the driver),
    and the pipelines are the shared O(n_buckets) reduce
    (:func:`parent_pipeline`).  ``metric_col`` must be integral so the
    partial sums combine exactly regardless of batch order; the only
    float ops are single divisions of exact integers (bit-stable, see
    float-oracle rules).
    """
    bucket, n, sm = _bucket_sums(docs_ds, matched, ts_col, interval_s, metric_col)
    return pa.table(
        {
            "bucket": pa.array(bucket, pa.int64()),
            "n_docs": pa.array(n, pa.int64()),
            "sum_v": pa.array(sm, pa.int64()),
            "cum_sum": pa.array(parent_pipeline("cumulative_sum", sm), pa.int64()),
            "deriv": pa.array(parent_pipeline("derivative", sm), pa.int64()),
            "moving_avg": pa.array(
                parent_pipeline("moving_fn", sm, window=window), pa.float64()
            ),
            "avg_v": pa.array(
                [float(int(s)) / int(c) for s, c in zip(sm, n)], pa.float64()
            ),
        }
    )


def sibling_pipeline_aggs(
    docs_ds,
    matched: np.ndarray,
    ts_col: str,
    interval_s: int,
    metric_col: str,
    lag: int = 2,
) -> pa.Table:
    """The SIBLING / remaining-parent pipeline aggregation family over
    a ``date_histogram`` parent with a ``sum(metric_col)`` metric —
    one row per non-empty bucket, bucket ascending, carrying:

    * ``serial_diff``     — ``serial_diff`` with ``lag`` (null for the
      first ``lag`` buckets);
    * ``pct_of_sum``      — ``normalize`` method ``percent_of_sum``
      (×100, OpenSearch's unit);
    * ``sort_rank``       — ``bucket_sort`` rank (metric desc, bucket
      asc tie-break);
    * sibling single-value aggs repeated on every row (the OpenSearch
      response nests them beside the parent; a flat column is the
      table-shaped equivalent): ``avg_bucket``, ``sum_bucket``,
      ``min_bucket``, ``max_bucket``, ``min_bucket_key`` /
      ``max_bucket_key`` (SMALLEST bucket achieving the extreme —
      OpenSearch returns the full tied-keys list; first-key is the
      deterministic table projection), and ``stats_bucket_count``
      (= bucket count; min/max/sum/avg are the four columns above).

    Shape at scale: identical to :func:`pipeline_aggs` — the
    distributed phase is the shared parent-histogram partial
    (:func:`_bucket_sums`); every function is the shared O(n_buckets)
    reduce (:func:`parent_pipeline`, :func:`bucket_metric`).
    ``metric_col`` integral ⇒ all sums exact; the two float columns
    are single divisions of exact ints (the float-oracle
    expression-shape rule)."""
    bucket, n, sm = _bucket_sums(docs_ds, matched, ts_col, interval_s, metric_col)
    nb, total = len(bucket), int(sm.sum())
    vals, keys = sm.tolist(), bucket.tolist()

    def flat(kind, typ, pick=lambda m: m["value"]):
        # a sibling value repeated on every row
        return pa.array([pick(bucket_metric(kind, vals, keys))] * nb if nb else [], typ)

    def first_key(m):
        return m["keys"][0]

    # rank by (metric desc, bucket asc): buckets are ascending already,
    # so a stable argsort on -metric preserves the bucket tie-break
    rank = np.empty(nb, np.int64)
    rank[np.argsort(-sm, kind="mergesort")] = np.arange(1, nb + 1)
    return pa.table(
        {
            "bucket": pa.array(bucket, pa.int64()),
            "n_docs": pa.array(n, pa.int64()),
            "sum_v": pa.array(sm, pa.int64()),
            "serial_diff": pa.array(
                parent_pipeline("serial_diff", sm, lag=lag), pa.int64()
            ),
            # total == 0 (every matched doc carries a zero metric) →
            # percent-of-nothing is undefined: null, not a crash
            # (OpenSearch's normalize emits nulls for an empty window)
            "pct_of_sum": pa.array(
                [100.0 * float(s) / total for s in vals]
                if total != 0 else [None] * nb,
                pa.float64(),
            ),
            "sort_rank": pa.array(rank, pa.int64()),
            "avg_bucket": flat("avg_bucket", pa.float64()),
            "sum_bucket": flat("sum_bucket", pa.int64()),
            "min_bucket": flat("min_bucket", pa.int64()),
            "max_bucket": flat("max_bucket", pa.int64()),
            "min_bucket_key": flat("min_bucket", pa.int64(), first_key),
            "max_bucket_key": flat("max_bucket", pa.int64(), first_key),
            "stats_bucket_count": flat(
                "stats_bucket", pa.int64(), lambda m: m["count"]
            ),
        }
    )


def matrix_stats(docs_ds, matched: np.ndarray, x_col: str, y_col: str) -> pa.Table:
    """OpenSearch ``matrix_stats`` aggregation over two INTEGRAL
    numeric fields of the matched docs → one row ``(n_docs, mean_x,
    mean_y, var_x, var_y, cov_xy, corr_xy)`` (population variance /
    covariance / Pearson correlation, OpenSearch's definitions).

    Shape at scale: per-batch CONSTANT-SIZE integer moment partials
    ``(n, Σx, Σy, Σx², Σy², Σxy)`` — exact int64 arithmetic, so the
    combine is order-independent and the final float expressions are
    single division trees over exact integers (bit-stable vs a SQL
    oracle; the float-oracle expression-shape rule).  A float-typed
    production variant would swap the partials for Chan/Welford moment
    merges — the combiner stays constant-size either way.
    """

    def partial(t: pa.Table):
        if t.num_rows == 0:
            return None
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return (len(x), int(x.sum()), int(y.sum()), int((x * x).sum()),
                int((y * y).sum()), int((x * y).sum()))

    def merge(parts: list):
        parts = [p for p in parts if p is not None]
        return tuple(sum(col) for col in zip(*parts)) if parts else None

    (sums,) = _scatter(docs_ds, matched, [(partial, merge)])
    if sums is None:
        return pa.table(
            {
                "n_docs": pa.array([0], pa.int64()),
                **{c: pa.array([None], pa.float64())
                   for c in ("mean_x", "mean_y", "var_x", "var_y",
                             "cov_xy", "corr_xy")},
            }
        )
    n, sx, sy, sxx, syy, sxy = sums
    import math

    # expression trees mirror the SQL oracle EXACTLY (bit-stable):
    # population moments from exact integer power sums
    mean_x = float(sx) / n
    mean_y = float(sy) / n
    var_x = (float(sxx) - float(sx) * sx / n) / n
    var_y = (float(syy) - float(sy) * sy / n) / n
    cov_xy = (float(sxy) - float(sx) * sy / n) / n
    # degenerate variance (constant column / single doc): correlation
    # is undefined → null, matching SQL corr() — never a crash
    denom = math.sqrt(var_x) * math.sqrt(var_y)
    corr_xy = cov_xy / denom if denom > 0.0 else None
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "mean_x": pa.array([mean_x], pa.float64()),
            "mean_y": pa.array([mean_y], pa.float64()),
            "var_x": pa.array([var_x], pa.float64()),
            "var_y": pa.array([var_y], pa.float64()),
            "cov_xy": pa.array([cov_xy], pa.float64()),
            "corr_xy": pa.array([corr_xy], pa.float64()),
        }
    )
