"""Aggregations over query matches — OpenSearch's facet surface.

The reference delegates search-UI facets (terms aggregation, date
histogram) to OpenSearch; this module rebuilds the two aggregation
shapes directly on the engine:

* :func:`match_doc_ids` — the match-any doc set of a term list
  (union of posting lists, the BooleanQuery-OR candidate set);
* :func:`date_histogram` — per-interval doc counts of the matches
  over a timestamp column (OpenSearch ``date_histogram``);
* :func:`terms_facet` — per-value doc counts of the matches over a
  keyword column (OpenSearch ``terms`` aggregation).

Shape at scale: the matched set is broadcast ONCE (``ray.put``) as a
PACKED BITMAP — ≤ n_docs/8 bytes no matter how many docs match (an
int64 id list for a frequent term is 64× larger), read zero-copy from
the node-local plasma store by every task — and each docs-store batch
tests membership with vectorized bit ops; per-batch PARTIAL counts
are the only thing entering the final (tiny) groupby — the
combiner-before-shuffle rule, same as ``ops/windows.py``.
"""

from __future__ import annotations

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

    Runs INSIDE a Ray task — builds a doc-range shard reader, decodes
    only the posting blocks overlapping ``[lo, hi)`` per term
    (``TermPostings.decode_range`` binary-searches ``block_last``), ORs
    into a ``(hi-lo)/8``-byte local bitmap, and clears tombstoned bits.
    ``lo`` is byte-aligned (multiple of 8) so disjoint slices
    concatenate into the global bitmap with no driver-side OR."""
    from .reader import IndexReader

    r = IndexReader(index_dir, chain=chain, doc_range=(lo, hi))
    bits = np.zeros((hi - lo + 7) >> 3, np.uint8)
    for term in terms:
        tp = r.postings(term)
        if tp is None:
            continue
        ids, _ = tp.decode_range(lo, hi)
        if len(ids):
            d = ids.astype(np.int64) - lo
            np.bitwise_or.at(bits, d >> 3, np.uint8(1) << (d & 7).astype(np.uint8))
    dels = r.deleted_ids()
    if len(dels):
        dels = dels[(dels >= lo) & (dels < hi)].astype(np.int64) - lo
        if len(dels):
            np.bitwise_and.at(
                bits, dels >> 3, ~(np.uint8(1) << (dels & 7).astype(np.uint8))
            )
    return bits


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
    """Sorted LIVE doc ids containing ≥1 of ``terms`` (match-any /
    OR); tombstoned docs (``index/deletes``) are excluded.

    LOCAL in-process decode through the reader's memoized postings
    cache — this is the SERVING primitive (``/_count``, ``/_search``
    ``with_total``, wildcard expansion inside query actors call it
    per request), so it must stay sub-ms-warm and must never spawn
    Ray tasks: a query evaluator may itself be a ``num_cpus=1``
    actor, and blocking on subtasks from inside one deadlocks when
    the fleet has reserved every CPU (nested-parallelism hazard).
    The DATASET facet tier uses :func:`match_doc_bitmap` instead —
    range tasks, bitmap-scale driver traffic — for corpus-scale
    match sets."""
    parts = []
    for term in set(terms):
        tp = reader.postings(term)
        if tp is not None:
            parts.append(tp.decode_all()[0].astype(np.int64))
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


def _facet(docs_ds, matched: np.ndarray, key_of_batch, key_field: pa.Field,
           bits_ref=None):
    """Shared partial-count skeleton: per-batch filter + count, tiny
    final groupby over (n_blocks × distinct keys) partial rows.
    ``bits_ref`` lets a caller that already broadcast the bitmap
    (auto_date_histogram's endpoint pass) reuse its ObjectRef."""
    import ray

    # broadcast ONCE; every task's ray.get is a zero-copy read of the
    # node-local object-store copy (numpy over plasma)
    if bits_ref is None:
        bits_ref = ray.put(_as_bits(matched))

    def partial_counts(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        if t.num_rows == 0:
            return pa.table(
                {
                    key_field.name: pa.array([], key_field.type),
                    "partial": pa.array([], pa.int64()),
                }
            )
        keys = key_of_batch(t)
        kt = pa.table({key_field.name: keys})
        if kt[key_field.name].null_count:
            # docs missing the field are ignored, as in OpenSearch
            kt = kt.filter(pc.is_valid(kt[key_field.name]))
        agg = kt.group_by(key_field.name).aggregate([([], "count_all")])
        return pa.table(
            {
                key_field.name: agg[key_field.name].cast(key_field.type),
                "partial": agg["count_all"].cast(pa.int64()),
            }
        )

    partials = docs_ds.map_batches(partial_counts, batch_format="pyarrow")
    # final combine is OUTPUT-scale (blocks × distinct keys partial
    # rows, not docs) — a driver-side Arrow groupby, not a shuffle
    parts = [ray.get(r) for r in partials.materialize().to_arrow_refs()]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table(
            {key_field.name: pa.array([], key_field.type),
             "n_docs": pa.array([], pa.int64())}
        )
    t = pa.concat_tables(parts, promote_options="default")
    agg = t.group_by(key_field.name).aggregate([("partial", "sum")])
    out = pa.table(
        {
            key_field.name: agg[key_field.name],
            "n_docs": agg["partial_sum"].cast(pa.int64()),
        }
    )
    return out.sort_by([("n_docs", "descending"), (key_field.name, "ascending")])


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


def _ts_bucket_array(starts_us: np.ndarray, valid: np.ndarray) -> pa.Array:
    """Masked ``timestamp[us]`` bucket-start array from epoch-us."""
    return pa.array(
        starts_us.astype("datetime64[us]"), pa.timestamp("us"), mask=~valid
    )


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

    if not is_fixed_interval(interval_s):
        unit = interval_s
        if unit not in _CALENDAR_UNITS:
            raise ValueError(
                f"unknown calendar interval {unit!r} — one of {_CALENDAR_UNITS}"
            )

        def key_of(t: pa.Table) -> pa.Array:
            us, valid = _ts_us_masked(t, ts_col)
            out = np.zeros(len(us), np.int64)
            out[valid] = _calendar_trunc_us(
                us[valid].astype("datetime64[us]"), unit
            )
            return _ts_bucket_array(out, valid)

        return _facet(docs_ds, matched, key_of, pa.field("bucket", pa.timestamp("us")))

    interval_us = _fixed_interval_us(interval_s)

    def key_of(t: pa.Table) -> pa.Array:
        # numpy FLOOR division — matches the SQL oracle's
        # floor(epoch_us/iv) exactly, including pre-1970 timestamps
        # (Arrow's pc.divide truncates toward zero)
        us, valid = _ts_us_masked(t, ts_col)
        return pa.array(us // interval_us, pa.int64(), mask=~valid)

    return _facet(docs_ds, matched, key_of, pa.field("bucket", pa.int64()))


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
    import ray

    bits_ref = ray.put(_as_bits(matched))

    def mm_partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        us = (
            t[ts_col]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .drop_null()
            .combine_chunks()
        )
        if len(us) == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        v = us.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "lo": pa.array([int(v.min())], pa.int64()),
                "hi": pa.array([int(v.max())], pa.int64()),
            }
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(mm_partial, batch_format="pyarrow")
        .materialize()
        .to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    empty = pa.table(
        {
            "bucket": pa.array([], pa.timestamp("us")),
            "n_docs": pa.array([], pa.int64()),
            "interval": pa.array([], pa.string()),
        }
    )
    if not parts:
        return empty
    mm = pa.concat_tables(parts)
    amin = int(pc.min(mm["lo"]).as_py())
    amax = int(pc.max(mm["hi"]).as_py())

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

    if isinstance(chosen, int):
        ivus = chosen * 1_000_000

        def key_of(t: pa.Table) -> pa.Array:
            # numpy FLOOR division, matching the ladder selection's
            # Python floor exactly (Arrow's pc.divide truncates toward
            # zero, which would disagree for pre-1970 timestamps; the
            # SQL oracle's `//` also truncates — it replays exactly on
            # non-negative epochs, which the corpus contract guarantees)
            us, valid = _ts_us_masked(t, ts_col)
            return _ts_bucket_array((us // ivus) * ivus, valid)

        label = f"{chosen}s"
    else:
        unit = chosen

        def key_of(t: pa.Table) -> pa.Array:
            us, valid = _ts_us_masked(t, ts_col)
            out = np.zeros(len(us), np.int64)
            out[valid] = _calendar_trunc_us(
                us[valid].astype("datetime64[us]"), unit
            )
            return _ts_bucket_array(out, valid)

        label = unit

    out = _facet(
        docs_ds, matched, key_of, pa.field("bucket", pa.timestamp("us")),
        bits_ref=bits_ref,
    )
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

    def key_of(t: pa.Table) -> pa.Array:
        return _float_histogram_keys(t[col], interval)

    return _facet(docs_ds, matched, key_of, pa.field("bucket", pa.int64()))


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

    Shape at scale: the bitmap broadcast + ONE partial row per
    (block, bucket) — len(ranges) counts per block, a vectorized
    comparison per bucket, constant-size final."""
    import ray

    bits_ref = ray.put(_as_bits(matched))
    lows = np.array([r[0] for r in ranges], np.float64)
    highs = np.array([r[1] for r in ranges], np.float64)

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        v = t[col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        counts = ((v[:, None] >= lows) & (v[:, None] < highs)).sum(axis=0)
        return pa.table(
            {
                "b": pa.array(np.arange(len(ranges)), pa.int64()),
                "partial": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    tot = np.zeros(len(ranges), np.int64)
    for p in parts:
        tot[p["b"].to_numpy()] += p["partial"].to_numpy()
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
    import ray

    bits_ref = ray.put(_as_bits(matched))

    if approx:
        from ..ops.sketch import TDigest

        def sk_partial(t: pa.Table) -> pa.Table:
            bits = ray.get(bits_ref)
            doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            t = t.filter(pa.array(_member_mask(bits, doc_ids)))
            v = t[col].cast(pa.float64()).drop_null().to_numpy(zero_copy_only=False)
            return TDigest(delta).add(v).to_row()

        acc = TDigest(delta)
        for part in [
            ray.get(r)
            for r in docs_ds.map_batches(
                sk_partial, batch_format="pyarrow"
            ).materialize().to_arrow_refs()
        ]:
            if "means" in part.column_names:  # empty block passthrough
                acc.merge(TDigest.from_row(part, delta))
        vals = [acc.quantile(q / 100.0) for q in qs]
        return pa.table(
            {
                "pct": pa.array([float(q) for q in qs], pa.float64()),
                "value": pa.array(vals, pa.float64()),
            }
        )

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        vals = t.select([col]).drop_null()
        agg = (
            pa.table({"v": vals[col].cast(pa.float64()).combine_chunks()})
            .group_by("v")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"v": agg["v"], "partial": agg["count_all"].cast(pa.int64())}
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table(
            {
                "pct": pa.array([float(q) for q in qs], pa.float64()),
                "value": pa.array([None] * len(qs), pa.float64()),
            }
        )
    t = pa.concat_tables(parts)
    agg = t.group_by("v").aggregate([("partial", "sum")]).sort_by("v")
    v = agg["v"].to_numpy(zero_copy_only=False)
    c = agg["partial_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    out = interpolate_quantiles(v, c, qs)
    return pa.table(
        {
            "pct": pa.array([float(q) for q in qs], pa.float64()),
            "value": pa.array(out, pa.float64()),
        }
    )


def interpolate_quantiles(
    v: np.ndarray, c: np.ndarray, qs: list[float]
) -> list[float]:
    """Continuous quantiles from a merged value-count histogram
    (``v`` sorted distinct values, ``c`` their counts): the standard
    ``h = (n-1)·q`` linear-interpolation rule, bit-identical to
    DuckDB/Postgres ``quantile_cont`` — shared by the Dataset facet
    and the serving tier's per-shard-histogram percentiles."""
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


def value_histogram(vals, kind: str, arg=None) -> pa.Table:
    """``(key, partial)`` bucket-count histogram of one value array —
    the SHARD primitive behind the serving tier's bucket aggregations
    (the ``hist`` op of ``served.ShardQueryActor.query_phase``):
    bucketing is vectorized here, per-shard histograms are
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
    if kind == "date_histogram":
        if not is_fixed_interval(arg):
            # calendar interval (week/month/quarter/year): key =
            # epoch-us of the civil bucket start — partials with
            # identical keys sum exactly across shards, same as the
            # fixed-width path
            us, valid = _ts_us_masked(pa.table({"_ts": vals}), "_ts")
            out = np.zeros(len(us), np.int64)
            out[valid] = _calendar_trunc_us(
                us[valid].astype("datetime64[us]"), str(arg)
            )
            keys = pa.array(out, pa.int64(), mask=~valid)
        else:
            # numpy FLOOR division (the engine-wide date-bucket rule;
            # pc.divide truncates toward zero and would disagree with
            # the Dataset facet pre-1970)
            us, valid = _ts_us_masked(pa.table({"_ts": vals}), "_ts")
            keys = pa.array(
                us // _fixed_interval_us(arg), pa.int64(), mask=~valid
            )
    elif kind == "histogram":
        keys = _float_histogram_keys(vals, arg)
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
    SHARD primitive behind the serving tier's pipeline aggregations
    (a ``date_histogram``/``histogram`` parent with a ``sum`` metric):
    bucketing reuses :func:`value_histogram`'s key semantics; rows
    with a null KEY are dropped, rows with a null METRIC still count
    toward ``n`` but contribute 0 to ``sm`` (OpenSearch: adding a
    metric sub-agg never changes ``doc_count``); per-shard partials
    are distinct-key-scale and both columns SUM exactly across
    disjoint doc ranges (the metric is cast to int64 — the engine's
    integral-metric contract for order-independent exactness)."""
    key_vals = (
        key_vals.combine_chunks()
        if isinstance(key_vals, pa.ChunkedArray)
        else key_vals
    )
    if kind == "date_histogram":
        if not is_fixed_interval(arg):
            us, valid = _ts_us_masked(pa.table({"_ts": key_vals}), "_ts")
            out = np.zeros(len(us), np.int64)
            out[valid] = _calendar_trunc_us(
                us[valid].astype("datetime64[us]"), str(arg)
            )
            keys = pa.array(out, pa.int64(), mask=~valid)
        else:
            us, valid = _ts_us_masked(pa.table({"_ts": key_vals}), "_ts")
            keys = pa.array(
                us // _fixed_interval_us(arg), pa.int64(), mask=~valid
            )
    elif kind == "histogram":
        keys = _float_histogram_keys(key_vals, arg)
    else:
        raise ValueError(f"unknown value_bucket_sums kind {kind!r}")
    t = pa.table(
        {
            "key": keys,
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
    that value → ``(value, rank_pct)``.  Exact, single-division double
    (``100·count/total`` — the SQL oracle's expression shape).

    Shape at scale: per-block partial ``(count ≤ v per v, n)`` — ONE
    constant-size row per block, like :func:`range_facet`."""
    import ray

    bits_ref = ray.put(_as_bits(matched))
    vals = np.array(sorted(values), np.float64)

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        v = t[col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        counts = (v[:, None] <= vals[None, :]).sum(axis=0)
        return pa.table(
            {
                "i": pa.array(np.arange(len(vals)), pa.int64()),
                "le": pa.array(counts.astype(np.int64), pa.int64()),
                "n": pa.array(np.full(len(vals), len(v), np.int64), pa.int64()),
            }
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    le = np.zeros(len(vals), np.int64)
    n = 0
    for p in parts:
        le[p["i"].to_numpy()] += p["le"].to_numpy()
        if p.num_rows:
            n += int(p["n"][0].as_py())
    if n == 0:
        return pa.table(
            {
                "value": pa.array(vals, pa.float64()),
                "rank_pct": pa.array([None] * len(vals), pa.float64()),
            }
        )
    return pa.table(
        {
            "value": pa.array(vals, pa.float64()),
            "rank_pct": pa.array(100.0 * le / n, pa.float64()),
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
    import ray

    bits_ref = ray.put(_as_bits(matched))

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        if t.num_rows == 0:
            return t.select(["doc_id", col])
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = t[col].to_numpy(zero_copy_only=False)
        key = vals if ascending else _neg_key(vals)
        order = np.lexsort((ids, key))[:k]
        return t.select(["doc_id", col]).take(pa.array(order))

    parts = [
        ray.get(r) for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table(
            {"rank": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64())}
        )
    t = pa.concat_tables(parts, promote_options="default")
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    vals = t[col].to_numpy(zero_copy_only=False)
    key = vals if ascending else _neg_key(vals)
    order = np.lexsort((ids, key))[:k]
    out_ids = ids[order]
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(out_ids) + 1, dtype=np.int64)),
            "doc_id": pa.array(out_ids, pa.int64()),
        }
    )


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

    def key_of(t: pa.Table) -> pa.Array:
        return t[field].cast(pa.string()).combine_chunks()

    t = _facet(docs_ds, matched, key_of, pa.field("value", pa.string()))
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
    import ray

    bits_ref = ray.put(_as_bits(matched))

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids))).select(cols)
        agg = t.group_by(cols).aggregate([([], "count_all")])
        return agg.rename_columns([*cols, "partial"])

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
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

    Shape at scale: bitmap broadcast + the ``topk_per_group`` combiner
    (≤ k rows per (block, bucket) enter the one shuffle)."""
    import ray

    from ..ops.windows import topk_per_group

    bits_ref = ray.put(_as_bits(matched))

    def flt(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(_member_mask(bits, doc_ids))).select(
            ["doc_id", group_col, sort_col]
        )

    sel = topk_per_group(
        docs_ds.map_batches(flt, batch_format="pyarrow"),
        key=group_col,
        order_col=sort_col,
        k=k,
        ascending=ascending,
    )
    parts = [ray.get(r) for r in sel.materialize().to_arrow_refs()]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table(
            {
                "value": pa.array([], pa.string()),
                "rank": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
            }
        )
    t = pa.concat_tables(parts, promote_options="default")
    return pa.table(
        {
            "value": t[group_col].cast(pa.string()),
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
        }
    ).sort_by([("value", "ascending"), ("rank", "ascending")])


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
        empty = pa.table(
            {
                "value": pa.array([], pa.string()),
                "doc_id": pa.array([], pa.int64()),
                "s": pa.array([], pa.float64()),
            }
        )
        if not len(ids):
            return empty
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

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
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
                [str(v) for v in merged["value"].take(rows).to_pylist()], pa.string()
            ),
        }
    )


def _neg_key(vals: np.ndarray) -> np.ndarray:
    """Descending sort key for lexsort (negate; datetimes via int64)."""
    if np.issubdtype(vals.dtype, np.datetime64):
        return -vals.astype("datetime64[us]").astype(np.int64)
    return -vals


def composite_page(keys, after, size: int) -> pa.Table:
    """ONE composite-agg page over a matched key array — the shared
    kernel behind the REST composite (the ``composite`` op of
    ``served.ShardQueryActor.query_phase``): drop null keys
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

    Shape at scale: per block, matched rows with key > after are
    bucket-counted locally and only the ``size`` SMALLEST keys'
    partial rows leave the task (the global first-``size`` keys are
    always within the union of per-block first-``size`` sets); the
    driver merges output-scale partials.  Each page is one streaming
    pass — the cursor protocol is what bounds response size, exactly
    the API's contract."""
    import ray

    bits_ref = ray.put(_as_bits(matched))

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        v = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
        if after is not None:
            v = v[v > after]
        if len(v) == 0:
            return pa.table(
                {"key": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        keys, counts = np.unique(v, return_counts=True)
        keys, counts = keys[:size], counts[:size]
        return pa.table(
            {"key": pa.array(keys), "n": pa.array(counts.astype(np.int64))}
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return (
            pa.table(
                {"key": pa.array([], pa.int64()), "n_docs": pa.array([], pa.int64())}
            ),
            None,
        )
    allp = pa.concat_tables(parts)
    keys = allp["key"].to_numpy(zero_copy_only=False)
    ns = allp["n"].to_numpy(zero_copy_only=False)
    uk = np.unique(keys)[:size]
    mask = np.isin(keys, uk)
    agg = {}
    for k, n in zip(keys[mask].tolist(), ns[mask].tolist()):
        agg[k] = agg.get(k, 0) + n
    out_keys = sorted(agg)
    tbl = pa.table(
        {
            "key": pa.array(np.array(out_keys, np.int64)),
            "n_docs": pa.array(np.array([agg[k] for k in out_keys], np.int64)),
        }
    )
    after_key = int(out_keys[-1]) if len(out_keys) == size else None
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

    def partial(t: pa.Table) -> pa.Table:
        names, counts = [], []
        for name, (col, op, val) in specs:
            m = _FILTER_OPS[op](t[col], pa.scalar(val))
            names.append(name)
            counts.append(int(pc.sum(pc.cast(m, pa.int64())).as_py() or 0))
        return pa.table(
            {
                "bucket": pa.array(names, pa.string()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    import ray

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    agg: dict[str, int] = {name: 0 for name, _ in specs}
    for p in parts:
        for name, n in zip(p["bucket"].to_pylist(), p["n"].to_pylist()):
            agg[name] += int(n)
    names = [name for name, _ in specs]
    return pa.table(
        {
            "bucket": pa.array(names, pa.string()),
            "n_docs": pa.array([agg[n] for n in names], pa.int64()),
        }
    )


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

    def partial(t: pa.Table) -> pa.Table:
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
        return pa.table(
            {
                "bucket": pa.array(keys, pa.string()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    import ray

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    agg: dict[str, int] = {k: 0 for k in keys}
    for p in parts:
        for name, n in zip(p["bucket"].to_pylist(), p["n"].to_pylist()):
            agg[name] += int(n)
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
    avg_v)`` (values as float64, the aggregation's wire type).

    Shape at scale: bitmap broadcast + per-batch partial
    ``(count, min, max, sum)`` — ONE tiny row per block to the driver,
    a constant-size final fold.  Nothing corpus-scale moves."""
    import ray

    bits_ref = ray.put(_as_bits(matched))

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        if t.num_rows == 0:
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.float64()),
                    "mx": pa.array([], pa.float64()),
                    "sm": pa.array([], pa.float64()),
                }
            )
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "n": pa.array([len(v)], pa.int64()),
                "mn": pa.array([float(v.min())], pa.float64()),
                "mx": pa.array([float(v.max())], pa.float64()),
                "sm": pa.array([float(v.sum())], pa.float64()),
            }
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table(
            {
                "n_docs": pa.array([0], pa.int64()),
                "min_v": pa.array([None], pa.float64()),
                "max_v": pa.array([None], pa.float64()),
                "sum_v": pa.array([None], pa.float64()),
                "avg_v": pa.array([None], pa.float64()),
            }
        )
    t = pa.concat_tables(parts)
    n = int(pc.sum(t["n"]).as_py())
    sm = float(pc.sum(t["sm"]).as_py())
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "min_v": pa.array([float(pc.min(t["mn"]).as_py())], pa.float64()),
            "max_v": pa.array([float(pc.max(t["mx"]).as_py())], pa.float64()),
            "sum_v": pa.array([sm], pa.float64()),
            "avg_v": pa.array([sm / n], pa.float64()),
        }
    )


def extended_stats_facet(docs_ds, matched: np.ndarray, col: str) -> pa.Table:
    """OpenSearch ``extended_stats``: stats + sum_of_squares +
    variance + std_deviation (population, OpenSearch's
    ``(Σx² − (Σx)²/n)/n`` formula — mirrored exactly so the SQL
    oracle hash-matches; integer-valued fields keep every sum exact).

    Same constant-size-partial shape as ``stats_facet`` with one extra
    Σx² scalar per block."""
    import ray

    bits_ref = ray.put(_as_bits(matched))

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        if t.num_rows == 0:
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.float64()),
                    "mx": pa.array([], pa.float64()),
                    "sm": pa.array([], pa.float64()),
                    "ss": pa.array([], pa.float64()),
                }
            )
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "n": pa.array([len(v)], pa.int64()),
                "mn": pa.array([float(v.min())], pa.float64()),
                "mx": pa.array([float(v.max())], pa.float64()),
                "sm": pa.array([float(v.sum())], pa.float64()),
                "ss": pa.array([float((v * v).sum())], pa.float64()),
            }
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:  # empty match set → null stats row (OpenSearch shape)
        return pa.table(
            {
                "n_docs": pa.array([0], pa.int64()),
                **{
                    c: pa.array([None], pa.float64())
                    for c in (
                        "min_v", "max_v", "sum_v", "avg_v",
                        "sum_sq", "variance", "std_dev",
                    )
                },
            }
        )
    t = pa.concat_tables(parts)
    n = int(pc.sum(t["n"]).as_py())
    sm = float(pc.sum(t["sm"]).as_py())
    ss = float(pc.sum(t["ss"]).as_py())
    var = (ss - sm * sm / n) / n
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "min_v": pa.array([float(pc.min(t["mn"]).as_py())], pa.float64()),
            "max_v": pa.array([float(pc.max(t["mx"]).as_py())], pa.float64()),
            "sum_v": pa.array([sm], pa.float64()),
            "avg_v": pa.array([sm / n], pa.float64()),
            "sum_sq": pa.array([ss], pa.float64()),
            "variance": pa.array([var], pa.float64()),
            "std_dev": pa.array([float(np.sqrt(var))], pa.float64()),
        }
    )


def weighted_avg_facet(
    docs_ds, matched: np.ndarray, val_col: str, weight_col: str
) -> pa.Table:
    """OpenSearch ``weighted_avg``: ``Σ(v·w) / Σw`` over the matched
    docs — two exact scalar partials per block, one final division."""
    import ray

    bits_ref = ray.put(_as_bits(matched))

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        if t.num_rows == 0:
            return pa.table(
                {"vw": pa.array([], pa.float64()), "w": pa.array([], pa.float64())}
            )
        v = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "vw": pa.array([float((v * w).sum())], pa.float64()),
                "w": pa.array([float(w.sum())], pa.float64()),
            }
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:  # empty match set → null (OpenSearch returns null)
        return pa.table({"weighted_avg": pa.array([None], pa.float64())})
    t = pa.concat_tables(parts)
    vw = float(pc.sum(t["vw"]).as_py())
    w = float(pc.sum(t["w"]).as_py())
    # all-zero weights: the average is undefined → null, not a crash
    avg = vw / w if w != 0.0 else None
    return pa.table({"weighted_avg": pa.array([avg], pa.float64())})


def missing_facet(docs_ds, col: str) -> pa.Table:
    """OpenSearch ``missing`` aggregation: how many docs lack ``col``
    (null) — one streaming pass, one int partial per block."""
    import ray

    def partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {"n": pa.array([int(t[col].null_count)], pa.int64())}
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    t = pa.concat_tables([p for p in parts if p.num_rows])
    return pa.table(
        {"n_missing": pa.array([int(pc.sum(t["n"]).as_py() or 0)], pa.int64())}
    )


def cardinality(
    docs_ds, matched: np.ndarray, field: str, approx: bool = False, p: int = 14
) -> pa.Table:
    """OpenSearch ``cardinality`` aggregation: the number of distinct
    values of ``field`` among the matched docs → one row
    ``(n_unique,)``.

    ``approx=False`` (exact): per-batch ``unique`` partials (≤
    distinct-per-block values move, never rows), then a driver-side
    unique of the union — output-scale, like ``terms_facet``'s final.
    ``approx=True``: per-batch HyperLogLog sketches
    (``ops/sketch.py``, ±1.04/√2^p) max-merged on the driver —
    CONSTANT-size partials, the OpenSearch answer for unbounded
    cardinalities at 10^12 docs.

    Nulls are ignored in both modes — SQL ``count(DISTINCT)`` /
    OpenSearch missing-value semantics."""
    import ray

    bits_ref = ray.put(_as_bits(matched))

    if approx:
        from ..ops.sketch import HLL, hll_sketch_batch

        def sk_partial(t: pa.Table) -> pa.Table:
            bits = ray.get(bits_ref)
            doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            return hll_sketch_batch(
                t.filter(pa.array(_member_mask(bits, doc_ids))), field, p
            )

        acc = HLL(p)
        for part in [
            ray.get(r)
            for r in docs_ds.map_batches(
                sk_partial, batch_format="pyarrow"
            ).materialize().to_arrow_refs()
        ]:
            for buf in part["sketch"].to_pylist():
                acc.merge(HLL(p, np.frombuffer(buf, np.uint8)))
        if len(matched) == 0:
            return pa.table({"n_unique": pa.array([0], pa.int64())})
        return pa.table(
            {"n_unique": pa.array([int(round(acc.estimate()))], pa.int64())}
        )

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        return pa.table(
            {"v": pc.unique(t[field].combine_chunks().drop_null())}
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table({"n_unique": pa.array([0], pa.int64())})
    t = pa.concat_tables(parts, promote_options="default")
    return pa.table(
        {"n_unique": pa.array([len(pc.unique(t["v"].combine_chunks()))], pa.int64())}
    )


def terms_facet(docs_ds, matched: np.ndarray, field: str) -> pa.Table:
    """Doc counts per distinct value of keyword column ``field`` among
    the matched docs → ``(value, n_docs)``, count desc / value asc."""

    def key_of(t: pa.Table) -> pa.Array:
        return t[field].combine_chunks()

    return _facet(docs_ds, matched, key_of, pa.field("value", pa.string()))


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
    import ray

    from ..ops.sketch import heavy_hitters

    bits_ref = ray.put(_as_bits(matched))

    def keep_matched(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(_member_mask(bits, doc_ids))).select([field])

    hh = heavy_hitters(
        docs_ds.map_batches(keep_matched, batch_format="pyarrow"),
        field,
        k=k,
        m=m,
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

    Scale shape: the match set rides the packed-bitmap broadcast;
    each block emits ONE partial row per in-block distinct key
    (Arrow ``group_by`` count/min/max/sum — the distributive
    combiners), the driver folds blocks × distinct-keys rows with a
    second Arrow groupby and does the avg division ONCE per bucket.
    Like ``terms_facet`` this is exact and output-scale; for
    unbounded key domains use the ``terms_facet_approx`` sketch and
    fetch stats per surviving bucket.

    Sums travel as float64 (the aggregation's wire type): for
    integer-valued ``val_col`` below 2^53 every partial and total is
    exact regardless of fold order, and ``avg_v = sum_v / n_docs`` is
    a single IEEE division — the SQL oracle hash-matches bit-exactly.
    Ordered ``n_docs`` desc, key asc (the ``terms`` convention)."""
    import ray

    from ..collect import tables_of

    bits_ref = ray.put(_as_bits(matched))

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        if t.num_rows == 0:
            return pa.table(
                {
                    "value": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.float64()),
                    "mx": pa.array([], pa.float64()),
                    "sm": pa.array([], pa.float64()),
                }
            )
        agg = (
            pa.table(
                {
                    "value": t[key_field].cast(pa.string()),
                    "v": t[val_col].cast(pa.float64()),
                }
            )
            .group_by("value")
            .aggregate([([], "count_all"), ("v", "min"), ("v", "max"), ("v", "sum")])
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

    parts = tables_of(docs_ds.map_batches(partial, batch_format="pyarrow"))
    return fold_terms_stats(parts)


def fold_terms_stats(parts: list[pa.Table]) -> pa.Table:
    """Exact fold of ``(value, n, mn, mx, sm)`` partials → the terms+
    stats response table — count/min/max/sum are the distributive
    combiners, so Dataset blocks and fleet shards merge identically
    (shared by :func:`terms_stats_facet` and the serving tier)."""
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
    per-batch ``(bucket, count, sum)`` partials (output-scale rows to
    the driver), exact int64 combine → ``(bucket, n, sum)`` arrays,
    bucket ascending.  Shared by :func:`pipeline_aggs` and
    :func:`sibling_pipeline_aggs`."""
    import ray

    bits_ref = ray.put(_as_bits(matched))
    div = pa.scalar(interval_s * 1_000_000, pa.int64())

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        if t.num_rows == 0:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sm": pa.array([], pa.int64()),
                }
            )
        # FLOOR division + null-ts drop — the engine-wide date-bucket
        # rule (pc.divide truncates toward zero; a null ts would
        # otherwise survive as a null bucket and turn into a garbage
        # INT64_MIN id in the driver fold's astype)
        us, valid = _ts_us_masked(t, ts_col)
        b = pa.table(
            {
                "bucket": pa.array(
                    us // int(div.as_py()), pa.int64(), mask=~valid
                ),
                "v": t[metric_col].cast(pa.int64()),
            }
        ).filter(pa.array(valid))
        # count_all (docs per bucket) + sum (Arrow sum skips null
        # metrics) — doc_count must not change when a metric is added
        agg = b.group_by("bucket").aggregate([([], "count_all"), ("v", "sum")])
        return pa.table(
            {
                "bucket": agg["bucket"],
                "n": agg["count_all"].cast(pa.int64()),
                "sm": agg["v_sum"].fill_null(0).cast(pa.int64()),
            }
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow")
        .materialize()
        .to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        z = np.empty(0, np.int64)
        return z, z, z
    t = pa.concat_tables(parts)
    agg = t.group_by("bucket").aggregate([("n", "sum"), ("sm", "sum")])
    agg = agg.sort_by("bucket")
    return (
        agg["bucket"].to_numpy(zero_copy_only=False).astype(np.int64),
        agg["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64),
        agg["sm_sum"].to_numpy(zero_copy_only=False).astype(np.int64),
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
    and the pipeline functions are an O(n_buckets) pass on the reduce
    side.  ``metric_col`` must be integral so the partial sums combine
    exactly regardless of batch order; the only float ops are single
    divisions of exact integers (bit-stable, see float-oracle rules).
    """
    bucket, n, sm = _bucket_sums(docs_ds, matched, ts_col, interval_s, metric_col)
    empty = pa.table(
        {
            "bucket": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
            "sum_v": pa.array([], pa.int64()),
            "cum_sum": pa.array([], pa.int64()),
            "deriv": pa.array([], pa.int64()),
            "moving_avg": pa.array([], pa.float64()),
            "avg_v": pa.array([], pa.float64()),
        }
    )
    if len(bucket) == 0:
        return empty
    cum = np.cumsum(sm)
    deriv = np.empty(len(sm), np.int64)
    deriv[1:] = sm[1:] - sm[:-1]
    # trailing-window sums via the cumulative array: ws[i] = cum[i] -
    # cum[i-window]; head windows are partial (OpenSearch keeps them)
    idx = np.arange(len(sm))
    lo = idx - window
    ws = cum - np.where(lo >= 0, cum[np.clip(lo, 0, None)], 0)
    wc = np.minimum(idx + 1, window)
    moving = np.array(
        [float(int(s)) / int(c) for s, c in zip(ws, wc)], np.float64
    )
    avg_v = np.array(
        [float(int(s)) / int(c) for s, c in zip(sm, n)], np.float64
    )
    return pa.table(
        {
            "bucket": pa.array(bucket, pa.int64()),
            "n_docs": pa.array(n, pa.int64()),
            "sum_v": pa.array(sm, pa.int64()),
            "cum_sum": pa.array(cum, pa.int64()),
            "deriv": pa.array(
                [None] + [int(d) for d in deriv[1:]], pa.int64()
            ),
            "moving_avg": pa.array(moving, pa.float64()),
            "avg_v": pa.array(avg_v, pa.float64()),
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
    (:func:`_bucket_sums`); every sibling function is an O(n_buckets)
    reduce-side pass.  ``metric_col`` integral ⇒ all sums exact; the
    two float columns are single divisions of exact ints (the
    float-oracle expression-shape rule)."""
    if lag < 1:
        raise ValueError(f"serial_diff lag must be >= 1, got {lag}")
    bucket, n, sm = _bucket_sums(docs_ds, matched, ts_col, interval_s, metric_col)
    if len(bucket) == 0:
        return pa.table(
            {
                "bucket": pa.array([], pa.int64()),
                "n_docs": pa.array([], pa.int64()),
                "sum_v": pa.array([], pa.int64()),
                "serial_diff": pa.array([], pa.int64()),
                "pct_of_sum": pa.array([], pa.float64()),
                "sort_rank": pa.array([], pa.int64()),
                "avg_bucket": pa.array([], pa.float64()),
                "sum_bucket": pa.array([], pa.int64()),
                "min_bucket": pa.array([], pa.int64()),
                "max_bucket": pa.array([], pa.int64()),
                "min_bucket_key": pa.array([], pa.int64()),
                "max_bucket_key": pa.array([], pa.int64()),
                "stats_bucket_count": pa.array([], pa.int64()),
            }
        )
    nb = len(bucket)
    total = int(sm.sum())
    sdiff = [None] * min(lag, nb) + [int(d) for d in (sm[lag:] - sm[:-lag])]
    # rank by (metric desc, bucket asc): buckets are ascending already,
    # so a stable argsort on -metric preserves the bucket tie-break
    order = np.argsort(-sm, kind="mergesort")
    rank = np.empty(nb, np.int64)
    rank[order] = np.arange(1, nb + 1)
    i_min = int(np.flatnonzero(sm == sm.min())[0])
    i_max = int(np.flatnonzero(sm == sm.max())[0])
    return pa.table(
        {
            "bucket": pa.array(bucket, pa.int64()),
            "n_docs": pa.array(n, pa.int64()),
            "sum_v": pa.array(sm, pa.int64()),
            "serial_diff": pa.array(sdiff, pa.int64()),
            # total == 0 (every matched doc carries a zero metric) →
            # percent-of-nothing is undefined: null, not a crash
            # (OpenSearch's normalize emits nulls for an empty window)
            "pct_of_sum": pa.array(
                [100.0 * float(int(s)) / total for s in sm]
                if total != 0 else [None] * nb,
                pa.float64(),
            ),
            "sort_rank": pa.array(rank, pa.int64()),
            "avg_bucket": pa.array([float(total) / nb] * nb, pa.float64()),
            "sum_bucket": pa.array([total] * nb, pa.int64()),
            "min_bucket": pa.array([int(sm.min())] * nb, pa.int64()),
            "max_bucket": pa.array([int(sm.max())] * nb, pa.int64()),
            "min_bucket_key": pa.array([int(bucket[i_min])] * nb, pa.int64()),
            "max_bucket_key": pa.array([int(bucket[i_max])] * nb, pa.int64()),
            "stats_bucket_count": pa.array([nb] * nb, pa.int64()),
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
    import ray

    bits_ref = ray.put(_as_bits(matched))

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(_member_mask(bits, doc_ids)))
        if t.num_rows == 0:
            return pa.table({c: pa.array([], pa.int64()) for c in
                             ("n", "sx", "sy", "sxx", "syy", "sxy")})
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxx": pa.array([int((x * x).sum())], pa.int64()),
                "syy": pa.array([int((y * y).sum())], pa.int64()),
                "sxy": pa.array([int((x * y).sum())], pa.int64()),
            }
        )

    parts = [
        ray.get(r)
        for r in docs_ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table(
            {
                "n_docs": pa.array([0], pa.int64()),
                **{c: pa.array([None], pa.float64())
                   for c in ("mean_x", "mean_y", "var_x", "var_y",
                             "cov_xy", "corr_xy")},
            }
        )
    t = pa.concat_tables(parts)
    n = int(pc.sum(t["n"]).as_py())
    sx = int(pc.sum(t["sx"]).as_py())
    sy = int(pc.sum(t["sy"]).as_py())
    sxx = int(pc.sum(t["sxx"]).as_py())
    syy = int(pc.sum(t["syy"]).as_py())
    sxy = int(pc.sum(t["sxy"]).as_py())
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
