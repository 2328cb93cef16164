"""Index reader: manifest + doclens + per-term posting access.

Replaces the read side of what the reference delegated to OpenSearch
(D4/D9 of SURVEY §2.2).  An :class:`IndexReader` holds the loaded term
→ partition routing (``crc32(term) % num_parts`` — same function the
tokenizer used), the doc-length (norms) array, and one
:class:`~docs_indexer_ray.index.segments.SegmentFile` handle per
touched partition (its sparse block index, loaded on first touch);
instantiate it once per query actor (``__init__`` does the loading,
queries are per-call), never per query.  Opening a build written in an
older segment layout raises.

Term lookup touches **one** segment file per term (or ``n_salt_runs``
files for a salted heavy term), and in each reads and decompresses the
one ~16 KB block the sparse index points at (``index/segments.py``).
Reads are positional, so the server's threads share one reader.  A
heavy term's salted runs are doc-id **ranges** (``stages/tokenize.py``),
so concatenating runs in first-doc-id order yields a globally
doc-id-sorted posting list — the reader stitches blocks, it never
re-sorts.

Scale note: ``doclens`` is loaded as one numpy array indexed by
``doc_id`` (exact norms; Lucene stores a lossy byte-encoded norm —
documented divergence in this engine's favor).  At 10^12 docs norms
are sharded with the query actors — each actor serves a doc-id range
and holds only its shard's norms; the sandbox single-node reader holds
them all.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.analyzer import Analyzer
from ..index import manifest as mf
from ..index.segments import SegmentFile, check_layout, read_segment, segment_path
from ..stages.tokenize import term_part
from . import highlight
from .segments_io import TermPostings

__all__ = ["IndexReader", "prefix_upper_bound"]

_MISS = object()  # postings-cache sentinel: a cached None is an absent term


def prefix_upper_bound(prefix: str) -> str | None:
    """The smallest string greater than EVERY string with this prefix
    (increment the last non-U+10FFFF char) — the sound searchsorted
    upper bound for a sorted-dictionary prefix range.  A plain
    ``prefix + '\\uffff'`` misses terms whose next char is an
    astral-plane codepoint.  ``None`` means unbounded (use
    ``len(terms)``)."""
    up = prefix
    while up and ord(up[-1]) == 0x10FFFF:
        up = up[:-1]
    return up[:-1] + chr(ord(up[-1]) + 1) if up else None


def _as_column(chunks: list, typ: pa.DataType) -> pa.ChunkedArray:
    """One page column typed ``typ`` from its per-row-group chunks,
    cast once as a whole (per chunk only where files disagree)."""
    if len({c.type for c in chunks}) > 1:
        chunks = [c.cast(typ) for c in chunks]
    col = pa.chunked_array(chunks, chunks[0].type if chunks else typ)
    return col if col.type == typ else col.cast(typ)


class _ShardNorms:
    """Doc-length lookup for a doc-id-range shard: holds only the
    shard's slice, indexed by GLOBAL doc id (scalar or ndarray)."""

    __slots__ = ("lo", "arr")

    def __init__(self, lo: int, arr: np.ndarray):
        self.lo = lo
        self.arr = arr

    def __getitem__(self, idx):
        return self.arr[idx - self.lo]

    def __len__(self) -> int:
        return len(self.arr)


class IndexReader:
    def __init__(
        self,
        index_dir: str,
        chain: str | None = None,
        doc_range: tuple[int, int] | None = None,
    ):
        """``chain`` selects an extra analyzer chain's posting table
        (``segments-<chain>/``, D8 multi-field builds); default is the
        build's main chain.

        ``doc_range=(lo, hi)`` loads a doc-id-range SHARD of the index:
        only the range's norms are held in memory (``doclens`` becomes
        a :class:`_ShardNorms`) while the manifest's global statistics
        (N, avgdl, per-term df) stay global — per-shard BM25 scores are
        therefore exactly the unsharded scores, so a top-k merge across
        shards is exact.  Use :func:`bm25.score_topk_range` to score a
        shard (the dense TAAT buffer is shard-sized, not corpus-sized)."""
        if os.path.exists(os.path.join(index_dir, "CURRENT")):
            index_dir = mf.current_build(index_dir)  # accept the root too
        self.index_dir = index_dir
        self.manifest = mf.read_manifest(index_dir)
        check_layout(index_dir, self.manifest)
        stats = self.manifest
        seg_dirname = "segments"
        if chain is not None and chain != self.manifest.get("analyzer"):
            extras = self.manifest.get("chains", {})
            if chain not in extras:
                raise KeyError(
                    f"chain {chain!r} not in this build (has: "
                    f"{self.manifest.get('analyzer')!r} + {sorted(extras)})"
                )
            stats = extras[chain]
            seg_dirname = f"segments-{chain}"
        self.chain = chain or self.manifest.get("analyzer")
        # the reader's analyzer: query analysis and snippet term vectors
        # (its memos are the chain's, shared by the whole process)
        self.analyzer = Analyzer(self.chain)
        self.n_docs = int(self.manifest["n_docs"])
        self.avgdl = float(stats["avgdl"])
        self.num_parts = int(self.manifest["num_parts"])
        self.heavy = frozenset(stats.get("heavy_terms", ()))
        self.n_salt_runs = int(stats.get("n_salt_runs", 1))
        self.run_width = int(stats.get("run_width", 1 << 60))
        self._seg_dir = os.path.join(index_dir, seg_dirname)
        self._segments: dict[int, SegmentFile | None] = {}
        # hot-postings cache (term dictionary + postings page cache of a
        # real engine); bounded FIFO — query sets re-hit the same terms
        self._postings_cache: dict[str, TermPostings | None] = {}
        self._cache_cap = 4096
        # decoded docs-store columns by (row group, column name) and
        # hits' term vectors by (field, doc id), each kept with the
        # bytes it is charged: the store is immutable for this reader's
        # lifetime, so a page's repeat fetch reads no file and analyzes
        # no text; one FIFO bounded by the charged bytes
        self._docs_cache: dict[tuple, tuple[object, int]] = {}
        self._docs_cache_bytes = 0
        self._docs_cache_cap = 64 << 20
        self._projections: dict = {}  # fetch columns -> (schema, synth)
        # server threads share a reader: both caches evict under it
        self._cache_lock = threading.Lock()

        # norms: dl per doc_id (0 for docs that analyzed to no tokens);
        # a doc_range shard holds only its slice
        if doc_range is None:
            self.doc_lo, self.doc_hi = 0, self.n_docs
            dl_arr = np.zeros(self.n_docs, dtype=np.uint32)
        else:
            self.doc_lo, self.doc_hi = int(doc_range[0]), int(doc_range[1])
            dl_arr = np.zeros(max(0, self.doc_hi - self.doc_lo), dtype=np.uint32)
        for fname in sorted(os.listdir(self._seg_dir)):
            # exact-suffix match: a crashed encode task can leave a
            # stale 'dl-*.parquet.tmp-<pid>' beside the real file —
            # reading it would crash (truncated) or double-count df
            if fname.startswith("dl-") and fname.endswith(".parquet"):
                t = pq.read_table(os.path.join(self._seg_dir, fname))
                ids = t["doc_id"].to_numpy()
                dls = t["dl"].to_numpy()
                if doc_range is not None:
                    keep = (ids >= self.doc_lo) & (ids < self.doc_hi)
                    ids, dls = ids[keep] - np.uint64(self.doc_lo), dls[keep]
                dl_arr[ids] = dls
        self.doclens = dl_arr if doc_range is None else _ShardNorms(self.doc_lo, dl_arr)

    # -- postings access ---------------------------------------------------
    def _segment(self, rpart: int) -> SegmentFile | None:
        """Partition ``rpart``'s handle (None: the partition is empty),
        opened on first touch; a racing thread's duplicate is dropped."""
        seg = self._segments.get(rpart, False)
        if seg is False:
            path = segment_path(self._seg_dir, rpart)
            seg = self._segments.setdefault(
                rpart, SegmentFile(path) if os.path.exists(path) else None
            )
        return seg

    def _term_rows(self, term: str) -> list[dict]:
        part = term_part(term, self.num_parts)
        rparts = {part}
        if term in self.heavy:
            max_run = (self.n_docs - 1) // self.run_width if self.n_docs else 0
            rparts = {(part + r) % self.num_parts for r in range(max_run + 1)}
        rows: list[dict] = []
        for rp in sorted(rparts):
            seg = self._segment(rp)
            if seg is not None:
                rows.extend(seg.rows(term))
        # salted runs are disjoint doc-id ranges: first-block order is
        # global doc-id order (collided runs already merged at encode)
        rows.sort(key=lambda r: r["block_last"][0] if len(r["block_last"]) else 0)
        return rows

    def postings(self, term: str) -> TermPostings | None:
        """Full postings + block metadata for one term (None if absent)."""
        cache = self._postings_cache
        tp = cache.get(term, _MISS)
        if tp is not _MISS:
            return tp
        rows = self._term_rows(term)
        tp = TermPostings.from_rows(term, rows) if rows else None
        with self._cache_lock:
            if term not in cache:
                if len(cache) >= self._cache_cap:
                    cache.pop(next(iter(cache)))
                cache[term] = tp
        return tp

    def decode_all(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(doc_ids, tfs) fully decoded — the TAAT path."""
        tp = self.postings(term)
        return None if tp is None else tp.decode_all()

    # -- doc store ---------------------------------------------------------
    def _docs_dataset(self):
        """The docs-store dataset, memoized: the store is immutable for
        this reader's lifetime, so every read skips the per-call
        directory walk and schema inference."""
        dset = getattr(self, "_docs_dset", None)
        if dset is None:
            import pyarrow.dataset as pads

            dset = self._docs_dset = pads.dataset(
                os.path.join(self.index_dir, "docs"), partitioning="hive"
            )
        return dset

    def _docs_row_groups(self) -> list[tuple]:
        """``[(ParquetFile, row group, first doc_id, n_rows, partition
        keys, file column names)]`` for every non-empty docs-store row
        group, in the dataset's fragment order — read once from the
        footers and memoized.  Raises if a row group's doc ids are not
        dense."""
        rgs = getattr(self, "_docs_rgs", None)
        if rgs is None:
            import pyarrow.dataset as pads

            rgs = []
            for frag in self._docs_dataset().get_fragments():
                pf = pq.ParquetFile(frag.path)
                md = pf.metadata
                col = [md.schema.column(j).path for j in range(md.num_columns)].index(
                    "doc_id"
                )
                keys = pads.get_partition_keys(frag.partition_expression)
                names = frozenset(pf.schema_arrow.names)
                for i in range(md.num_row_groups):
                    n = md.row_group(i).num_rows
                    if n == 0:
                        continue
                    st = md.row_group(i).column(col).statistics
                    if st is None or not st.has_min_max or st.max - st.min + 1 != n:
                        raise ValueError(
                            f"docs store file {frag.path} row group {i}: doc "
                            f"ids are not dense (need max - min + 1 == {n} rows)"
                        )
                    rgs.append((pf, i, int(st.min), n, keys, names))
            self._docs_rgs = rgs
        return rgs

    def _keep(self, fresh: dict) -> None:
        """Keep ``{key: (value, charged bytes)}`` in the decoded-docs
        cache, evicting the oldest entries while the cached bytes would
        exceed ``_docs_cache_cap``; an entry a racing thread kept first
        is left as it is."""
        cache, cap = self._docs_cache, self._docs_cache_cap
        with self._cache_lock:
            for key, entry in fresh.items():
                if key in cache:
                    continue
                while self._docs_cache_bytes + entry[1] > cap:
                    self._docs_cache_bytes -= cache.pop(next(iter(cache)))[1]
                cache[key] = entry
                self._docs_cache_bytes += entry[1]

    def _row_group_columns(self, g: int, names: list[str]) -> dict:
        """``{name: decoded column}`` of docs-store row group ``g`` (its
        index in :meth:`_docs_row_groups`).  Only the columns the
        reader's cache lacks are read from the file; they are kept,
        charged their decoded buffer bytes, while the cached bytes stay
        within ``_docs_cache_cap``.  A row group whose requested
        columns decode to more than the cap is read for this call and
        not kept."""
        cache = self._docs_cache
        cols = {c: cache.get((g, c), (None,))[0] for c in names}
        missing = [c for c, a in cols.items() if a is None]
        if not missing:
            return cols
        pf, i = self._docs_row_groups()[g][:2]
        t = pf.read_row_group(i, columns=missing)
        fresh = {c: t[c] for c in missing}
        cols.update(fresh)
        size = {c: a.get_total_buffer_size() for c, a in cols.items()}
        if sum(size.values()) <= self._docs_cache_cap:
            self._keep({(g, c): (a, size[c]) for c, a in fresh.items()})
        return cols

    def term_vector(self, field: str, doc_id: int, text: str) -> tuple:
        """``highlight.term_vector(text, self.analyzer)`` of stored
        field ``field`` of doc ``doc_id`` (``text`` is that field's
        value), built once per reader and kept in the decoded-docs
        cache, charged its containers' bytes (the stem strings belong
        to the chain's normalize memo)."""
        entry = self._docs_cache.get((field, doc_id))
        if entry is not None:
            return entry[0]
        vec = highlight.term_vector(text, self.analyzer)
        size = sum(map(sys.getsizeof, vec))
        if size <= self._docs_cache_cap:
            self._keep({(field, doc_id): (vec, size)})
        return vec

    def _projection(self, columns: list[str] | None) -> tuple:
        """``(schema, synthesize text?)`` of a fetch of ``columns``,
        memoized per reader.  The schema is arrow's own projection (and
        its unknown-column error) of a dataset scan reading these
        columns, or the synthesized ``text``'s stored inputs."""
        key = None if columns is None else tuple(columns)
        proj = self._projections.get(key)
        if proj is None:
            import pyarrow.dataset as pads

            dset = self._docs_dataset()
            synth = (
                columns is not None
                and "text" in columns
                and "text" not in dset.schema.names
            )
            read_cols = columns
            if synth:
                from ..stages.extract import SYNTHESIS_INPUT_COLUMNS

                read_cols = list(
                    dict.fromkeys(
                        [c for c in columns if c != "text"]
                        + list(SYNTHESIS_INPUT_COLUMNS)
                    )
                )
            schema = pads.Scanner.from_batches(
                iter(()), schema=dset.schema, columns=read_cols
            ).projected_schema
            if len(self._projections) >= 256:  # _source lists are caller-chosen
                self._projections.clear()
            proj = self._projections[key] = (schema, synth)
        return proj

    def fetch_docs(self, doc_ids: list[int], columns: list[str] | None = None):
        """Stored-field lookup (D9): rows from the docs store by id.
        The derivable catch-all ``text`` is synthesized on demand when
        requested (the store doesn't persist it).

        A positional read: doc ids are dense and ascending within every
        docs-store row group (each writer assigns ``offset + arange``;
        merge and compaction shift or re-densify whole files), so a
        row group covering ``[first, first + n)`` holds doc ``d`` at
        row ``d - first``.  The row-group map comes from the footers
        once per reader (:meth:`_docs_row_groups` checks the density
        from the ``doc_id`` statistics and raises naming the file
        otherwise).  Each call touches only the row groups holding a
        requested id and only the requested columns, and ``take``s the
        rows from the reader's decoded columns
        (:meth:`_row_group_columns`): a column is read and decoded
        from the file once per reader, not once per call.  Every
        writer keeps pyarrow's default row-group size, so a docs-store
        file is one row group and a hit decodes its whole partition's
        requested columns on the reader's first touch.  The page is
        assembled per column: each column's per-group ``take``s are
        joined and cast to the dataset type once.  Rows come back like
        a ``doc_id`` filter over the dataset: fragment order, ascending
        id within a fragment, duplicates once, unknown ids dropped,
        typed by the dataset schema (hive partition values
        included)."""
        schema, synth = self._projection(columns)
        ids = np.unique(np.asarray([int(d) for d in doc_ids], dtype=np.int64))
        rgs = self._docs_row_groups() if len(ids) else []
        chunks: dict[str, list] = {f.name: [] for f in schema}
        if rgs:
            firsts = np.array([r[2] for r in rgs], dtype=np.int64)
            sizes = np.array([r[3] for r in rgs], dtype=np.int64)
            by_first = np.argsort(firsts, kind="stable")
            j = np.searchsorted(firsts[by_first], ids, side="right") - 1
            owner = by_first[np.maximum(j, 0)]
            hit = (j >= 0) & (ids < firsts[owner] + sizes[owner])
            ids, owner = ids[hit], owner[hit]
            for g in np.unique(owner).tolist():  # ascending = fragment order
                _, _, first, _, keys, have = rgs[g]
                pos = pa.array(ids[owner == g] - first)
                cols = self._row_group_columns(
                    g, [c for c in schema.names if c in have and c not in keys]
                )
                # conform to the dataset schema like a scan does: hive
                # partition values win over the file's column, columns
                # the file lacks are null
                for f in schema:
                    chunks[f.name].extend(
                        [pa.array([keys[f.name]] * len(pos), f.type)]
                        if f.name in keys
                        else cols[f.name].take(pos).chunks if f.name in have
                        else [pa.nulls(len(pos), f.type)]
                    )
        out = pa.table(
            [_as_column(chunks[f.name], f.type) for f in schema], schema=schema
        )
        if synth:
            from ..stages.extract import synthesize_text

            return synthesize_text(out).select(columns)
        return out

    def stored_mask(self, col: str, op: str, value) -> np.ndarray:
        """Bool mask over this reader's doc range for a stored-field
        predicate — the docs-store half of Lucene range/term filters
        (query-DSL ``range`` clauses lower onto this).  Position ``i``
        answers for doc ``doc_lo + i``; the scan is row-group-pruned
        to the range (doc ids are written sorted) and the mask is
        memoized for the reader's lifetime, so corpus-wide filter
        state stays WITH the reader (one slice per shard on the
        sharded tier — never driver-resident).

        ISO-8601 strings are accepted for timestamp columns (query
        DSL bodies arrive as JSON, which has no datetime type)."""
        key = (col, op, repr(value))
        masks = getattr(self, "_stored_masks", None)
        if masks is None:
            masks = self._stored_masks = {}
        mask = masks.get(key)
        if mask is None:
            import pyarrow.dataset as pads

            dset = self._docs_dataset()
            if op == "exists" and col not in dset.schema.names:
                # OpenSearch `exists` on an unmapped field matches
                # nothing (every OTHER op on a missing column raises)
                mask = np.zeros(max(0, self.doc_hi - self.doc_lo), bool)
                masks[key] = mask
                return mask
            if isinstance(value, str) and pa.types.is_timestamp(
                dset.schema.field(col).type
            ):
                import datetime as _dt

                value = _dt.datetime.fromisoformat(value)
            f = pads.field(col)
            try:
                expr = {
                    ">=": f >= value,
                    ">": f > value,
                    "<=": f <= value,
                    "<": f < value,
                    "==": f == value,
                    "!=": f != value,
                    "exists": f.is_valid(),
                }[op]
            except KeyError:
                raise ValueError(f"unknown predicate op {op!r}") from None
            lo, hi = self.doc_lo, self.doc_hi
            t = dset.to_table(
                filter=(pads.field("doc_id") >= lo)
                & (pads.field("doc_id") < hi)
                & expr,
                columns=["doc_id"],
            )
            mask = np.zeros(max(0, hi - lo), dtype=bool)
            mask[t["doc_id"].to_numpy().astype(np.int64) - lo] = True
            masks[key] = mask
        return mask

    def stored_column(self, col: str):
        """This reader's doc-range slice of stored column ``col``,
        aligned so position ``i`` holds doc ``doc_lo + i``'s value —
        read ONCE from the docs store (row-group stats prune the scan
        to the range) and memoized for the reader's lifetime, like
        the norms and ``stored_mask``.  On the sharded tier every
        shard holds only ITS slice — corpus-wide column state lives
        with the fleet, never on the driver.  The field-``sort``
        surface (``query/sortq.py``) and the serving facets read
        through this."""
        import pyarrow as pa

        cols = getattr(self, "_stored_cols", None)
        if cols is None:
            cols = self._stored_cols = {}
        arr = cols.get(col)
        if arr is None:
            import pyarrow.dataset as pads

            dset = self._docs_dataset()
            lo, hi = self.doc_lo, self.doc_hi
            t = dset.to_table(
                filter=(pads.field("doc_id") >= lo)
                & (pads.field("doc_id") < hi),
                columns=["doc_id"] if col == "doc_id" else ["doc_id", col],
            )
            if t.num_rows != hi - lo:
                raise ValueError(
                    f"docs store has {t.num_rows} rows in [{lo}, {hi}) — "
                    f"expected {hi - lo} (one per doc id)"
                )
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            perm = np.empty(hi - lo, np.int64)
            perm[ids - lo] = np.arange(hi - lo)
            arr = t[col].combine_chunks().take(pa.array(perm))
            cols[col] = arr
        return arr

    def vector_matrix(self, name: str = "emb") -> tuple[np.ndarray, np.ndarray]:
        """This reader's doc-range slice of the vector sidecar ``name``
        (``index/vectors.py``): ``(V, valid)`` where ``V`` is a
        ``float32 (range, dim)`` matrix of L2-normalized vectors
        aligned like ``stored_column`` (row ``i`` = doc ``doc_lo+i``;
        missing docs are zero rows) and ``valid`` the has-a-vector
        mask.  Loaded ONCE (vpart hive pruning restricts the read to
        the range) and memoized — a shard actor of the serving fleet
        holds only ITS slice, the k-NN analog of the sharded norms.
        Raises ``FileNotFoundError`` when no sidecar is attached."""
        mats = getattr(self, "_vec_mats", None)
        if mats is None:
            mats = self._vec_mats = {}
        got = mats.get(name)
        if got is None:
            from ..index.vectors import load_vector_slice

            got = mats[name] = load_vector_slice(
                self.index_dir, name, self.doc_lo, self.doc_hi
            )
        return got

    def deleted_ids(self) -> np.ndarray:
        """Sorted tombstoned doc ids (soft deletes — ``index/deletes``),
        loaded once per reader like the norms."""
        if not hasattr(self, "_deleted"):
            from ..index.deletes import load_delete_ids

            self._deleted = load_delete_ids(self.index_dir)
        return self._deleted

    @property
    def has_deletes(self) -> bool:
        return len(self.deleted_ids()) > 0

    def match_all_count(self) -> int:
        """The reference integration test's only query (D10) — LIVE
        docs only (tombstones excluded, OpenSearch count semantics)."""
        return self.n_docs - len(self.deleted_ids())

    def term_dictionary(self) -> tuple[np.ndarray, np.ndarray]:
        """The loaded term dictionary: ``(sorted_terms, total_dfs)``.

        Loaded ONCE per reader (the term-dictionary state of a query
        actor — SURVEY §7 step 7) from each segment file's (term, df,
        cf) columns; df and cf sum across a term's runs (salted /
        merged rows), and the cfs serve :meth:`term_cf`.  At 10^12 docs
        the dictionary shards with the query actors — each actor
        serves a term-hash range and loads only its partitions'
        dictionaries; this single-node reader loads all.
        """
        if getattr(self, "_term_dict", None) is None:
            paths = [segment_path(self._seg_dir, rp) for rp in range(self.num_parts)]
            parts = [read_segment(p, ["term", "df", "cf"]) for p in paths if os.path.exists(p)]
            t = pa.concat_tables(parts) if parts else None
            if t is None or t.num_rows == 0:
                self._term_dict = (np.empty(0, object), np.empty(0, np.int64))
                self._term_cfs = np.empty(0, np.int64)
                return self._term_dict
            terms = np.asarray(t["term"].to_pylist(), dtype=object)
            order = np.argsort(terms, kind="mergesort")
            terms = terms[order]
            starts = np.flatnonzero(np.concatenate(([True], terms[1:] != terms[:-1])))

            def total(col: str) -> np.ndarray:
                v = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
                return np.add.reduceat(v[order], starts)

            self._term_dict = (terms[starts], total("df"))
            self._term_cfs = total("cf")
        return self._term_dict

    def _term_stat(self, term: str, values: np.ndarray) -> int:
        terms = self._term_dict[0]
        i = np.searchsorted(terms, term)
        if i < len(terms) and terms[i] == term:
            return int(values[i])
        return 0

    def term_df(self, term: str) -> int:
        """Total df of one term (0 if absent) via the dictionary."""
        return self._term_stat(term, self.term_dictionary()[1])

    def term_cf(self, term: str) -> int:
        """Total collection frequency (OpenSearch ``ttf``) of one term
        (0 if absent) via the dictionary."""
        self.term_dictionary()
        return self._term_stat(term, self._term_cfs)

    def prefix_terms(self, prefix: str, limit: int = 10) -> list[tuple[str, int]]:
        """Terms starting with ``prefix``, by descending total df (term
        asc tie-break) — the suggester primitive behind the trigram /
        reverse sub-fields (D2/D3).  A binary-search range over the
        loaded term dictionary: O(log V + hits) per call instead of a
        per-call scan of every segment file."""
        terms, dfs = self.term_dictionary()
        lo = np.searchsorted(terms, prefix)
        ub = prefix_upper_bound(prefix)
        hi = np.searchsorted(terms, ub) if ub is not None else len(terms)
        top = sorted(
            zip(terms[lo:hi].tolist(), dfs[lo:hi].tolist()),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return [(t, int(d)) for t, d in top[:limit]]
