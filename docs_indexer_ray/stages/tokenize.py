"""Tokenize stage: docs batches → postings rows ``(term, doc_id, tf, dl, rpart)``.

Replaces the analysis half of what OpenSearch did for the reference
(D1–D3 of SURVEY.md §2.2; analyzer config ``/root/reference/common.py:4-31``,
``mappings/hugo.json``).  Runs as a ``map_batches`` callable: Ray
ships the instance to each task, and every task's analyzer uses its
worker process's per-chain stem memo (``functions/analyzer.py``), so
a surface form is stemmed once per worker process, not once per task.

Per input row the whole analysis happens inside the batch function:

* analyze the chosen field → token list;
* ``dl`` = number of emitted tokens (Lucene norm semantics: length
  *after* the analysis chain — stopwords don't count);
* term frequencies via one hash pass per doc;
* one output row per distinct ``(term, doc)``; ``dl`` rides along on
  every posting row because the segment encoder needs per-posting
  ``dl`` for block-max metadata (``codec.encode_postings``).

**Shuffle key and skew**: the reduce key is a single column ``rpart``:

    part  = crc32(term) % num_parts              (hash partition by term)
    run   = doc_id // run_width  if term is heavy else 0
    rpart = (part + run) % num_parts

Heavy terms (df estimated over a deterministic doc sample in
``index/build.py``) are *salted* across reducers by contiguous doc-id
range, so one hot term's posting list is built as several
independently encoded runs — note the salt stays **within** the fixed
``num_parts`` reducer space, and the ``+run`` stride is injective
while the run count stays below ``num_parts`` (the build clamps
``n_salt_runs`` accordingly), so one term's runs never collide into
the same reducer.  Runs are doc-id **ranges**, so the reader stitches
a term's runs back in first-doc-id order without re-sorting.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from ..functions.analyzer import Analyzer

__all__ = ["Tokenizer", "TokenizeSpill", "MultiChainTokenizeSpill", "term_part"]


def term_part(term: str, num_parts: int) -> int:
    """Stable (process-independent) term → reducer partition."""
    return zlib.crc32(term.encode("utf-8")) % num_parts


class TokenizeSpill:
    """Tokenize + map-side shuffle write, one spill file per batch.

    Each batch's postings are sorted by ``rpart`` and written as ONE
    Parquet file with one row group per rpart slice, so the reduce
    side reads with ``filter rpart == k`` and Parquet row-group
    statistics prune everything else — the Spark-style map-output-file
    shuffle.  Total file count = number of batches, independent of the
    partition count (a ``write_parquet(partition_cols=...)`` spill
    creates tasks × partitions files, which dominates wall time once
    either number grows).

    Returns a one-row lineage table per batch (file, rows).

    File names are **content-derived** (the batch's min doc_id — doc
    ids are unique and batches partition the rows, so names are
    collision-free) rather than per-process sequence numbers: Ray may
    re-deserialize this callable per *task*, so instance counters
    restart while the worker pid persists — pid+seq names silently
    overwrite earlier tasks' spills.  Content names are also
    idempotent under task retries (a retried batch rewrites its own
    file instead of duplicating rows).
    """

    def __init__(self, spill_dir: str, **tok_kwargs):
        self.spill_dir = spill_dir
        self.tok_kwargs = tok_kwargs
        self._tok: Tokenizer | None = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import os

        import pyarrow.parquet as pq

        if self._tok is None:
            self._tok = Tokenizer(**self.tok_kwargs)
        min_doc = int(batch["doc_id"].to_numpy(zero_copy_only=False).min()) if batch.num_rows else 0
        post = self._tok(batch)
        order = np.argsort(post["rpart"].to_numpy(zero_copy_only=False), kind="stable")
        post = post.take(pa.array(order))
        rparts = post["rpart"].to_numpy(zero_copy_only=False)
        bounds = np.flatnonzero(np.concatenate(([True], rparts[1:] != rparts[:-1])))
        bounds = np.append(bounds, len(rparts))

        name = f"spill-{min_doc:012d}-{batch.num_rows}"
        path = os.path.join(self.spill_dir, name + ".parquet")
        tmp = f"{path}.tmp-{os.getpid()}"
        writer = pq.ParquetWriter(tmp, post.schema)
        for i in range(len(bounds) - 1):
            writer.write_table(post.slice(bounds[i], bounds[i + 1] - bounds[i]))
        writer.close()
        os.replace(tmp, path)
        return pa.table(
            {
                "file": pa.array([name], pa.string()),
                "rows": pa.array([post.num_rows], pa.int64()),
            }
        )


class MultiChainTokenizeSpill:
    """One docs pass feeding EVERY analyzer chain's shuffle (D8).

    The reference indexes ``text`` four ways (default / .english /
    .trigram / .reverse sub-fields, ``mappings/hugo.json:54-72``) from
    one stored value; this stage analogously reads each docs batch
    once and runs every chain's tokenize+spill on it — one Ray Data
    execution for a multi-field build instead of one per chain.

    ``per_chain``: chain name → ``TokenizeSpill`` kwargs (each with its
    own ``spill_dir``).  Lineage rows gain a ``chain`` column.
    """

    def __init__(self, per_chain: dict[str, dict]):
        self._spills = {c: TokenizeSpill(**kw) for c, kw in per_chain.items()}
        fields = {kw.get("field", "text") for kw in per_chain.values()}
        self._field = next(iter(fields)) if len(fields) == 1 else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if (
            self._field == "text"
            and "text" not in batch.column_names
            and "title" in batch.column_names
        ):
            # docs stores don't persist the derivable catch-all
            from .extract import synthesize_text

            batch = synthesize_text(batch)
        tabs = []
        for cname, spill in self._spills.items():
            lin = spill(batch)
            tabs.append(
                lin.append_column(
                    "chain", pa.array([cname] * lin.num_rows, pa.string())
                )
            )
        return pa.concat_tables(tabs)


class Tokenizer:
    """Docs batch → postings rows.

    Per-actor state: a growing term→id vocabulary with each term's
    shuffle partition and heavy flag computed ONCE on first sight.
    Per doc, ``Counter`` (a C hot loop) computes tfs; per posting only
    three integer appends remain, and the batch's columns (rpart,
    heavy salting, dl, dl-carrier flags) are assembled with numpy.
    The term column is emitted as an Arrow dictionary array over a
    per-batch compacted vocabulary slice — postings never materialize
    per-row term strings.
    """

    def __init__(
        self,
        field: str = "text",
        chain: str = "english",
        num_parts: int = 32,
        heavy_terms: frozenset[str] | set[str] | None = None,
        run_width: int = 1 << 60,
        store_positions: bool = False,
    ):
        self.field = field
        self.analyzer = Analyzer(chain)
        self.num_parts = num_parts
        self.heavy = frozenset(heavy_terms or ())
        self.run_width = max(1, run_width)
        self.store_positions = store_positions
        self._vocab: dict[str, int] = {}
        self._terms: list[str] = []
        self._parts: list[int] = []
        self._is_heavy: list[bool] = []
        self._np_len = -1  # length the cached arrays were built at

    def _vocab_np(self):
        """Cached numpy views of the actor vocab — rebuilt only when
        the vocab GREW since the last batch.  Rebuilding per batch made
        every batch pay three O(cumulative-vocabulary) list→array
        conversions late in a large build."""
        if self._np_len != len(self._terms):
            self._terms_np = np.asarray(self._terms, dtype=object)
            self._parts_np = np.asarray(self._parts, np.int64)
            self._heavy_np = np.asarray(self._is_heavy, bool)
            self._np_len = len(self._terms)
        return self._terms_np, self._parts_np, self._heavy_np

    def _tid(self, term: str) -> int:
        i = self._vocab.get(term)
        if i is None:
            i = len(self._terms)
            self._vocab[term] = i
            self._terms.append(term)
            self._parts.append(term_part(term, self.num_parts))
            self._is_heavy.append(term in self.heavy)
        return i

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch[self.field].to_pylist()
        if self.store_positions:
            return self._call_positions(doc_ids, texts)

        from collections import Counter

        analyze = self.analyzer
        tid = self._tid
        tok_ids: list[int] = []
        doc_pos: list[int] = []
        tfs: list[int] = []
        dls = np.zeros(len(texts), np.int64)
        for i, text in enumerate(texts):
            toks = analyze(text if text is not None else "")
            dls[i] = len(toks)
            # Counter is the fast per-doc tf kernel (C hot loop); only
            # ~distinct-terms-per-doc python appends follow it
            for term, tf in Counter(toks).items():
                tok_ids.append(tid(term))
                doc_pos.append(i)
                tfs.append(tf)

        if not tok_ids:
            empty = pa.table(
                {
                    "term": pa.array([], pa.string()).dictionary_encode(),
                    "doc_id": pa.array([], pa.uint64()),
                    "tf": pa.array([], pa.uint32()),
                    "dl": pa.array([], pa.uint32()),
                    "rpart": pa.array([], pa.int32()),
                    "dlc": pa.array([], pa.bool_()),
                }
            )
            return empty

        d = np.asarray(doc_pos, np.int64)
        t = np.asarray(tok_ids, np.int64)
        tf = np.asarray(tfs, np.int64)

        # per-batch compacted dictionary (the actor vocab keeps growing;
        # each spill batch only ships the terms it uses)
        used = np.unique(t)
        terms_np, parts_np, heavy_np = self._vocab_np()
        codes = np.searchsorted(used, t).astype(np.int32)
        term_col = pa.DictionaryArray.from_arrays(
            pa.array(codes), pa.array(terms_np[used].tolist(), pa.string())
        )

        parts = parts_np[t]
        dids = doc_ids[d].astype(np.uint64)
        if self.heavy:
            hv = heavy_np[t]
            runs = (dids // np.uint64(self.run_width)).astype(np.int64)
            rpart = np.where(hv, (parts + runs) % self.num_parts, parts).astype(
                np.int32
            )
        else:
            rpart = parts.astype(np.int32)

        # dl-carrier: exactly one posting row per doc (first of each
        # contiguous d-run — uniq is sorted by (d, t))
        dlc = np.zeros(len(d), bool)
        dlc[np.flatnonzero(np.concatenate(([True], d[1:] != d[:-1])))] = True

        return pa.table(
            {
                "term": term_col,
                "doc_id": pa.array(dids),
                "tf": pa.array(tf.astype(np.uint32)),
                "dl": pa.array(dls[d].astype(np.uint32)),
                "rpart": pa.array(rpart),
                "dlc": pa.array(dlc),
            }
        )

    def _call_positions(self, doc_ids: np.ndarray, texts: list) -> pa.Table:
        """Positions variant (opt-in) — per-doc loop, positions are
        0-based token offsets AFTER the analysis chain (Lucene
        positions semantics — "with_positions", mappings/hugo.json)."""
        analyze = self.analyzer
        heavy = self.heavy
        num_parts = self.num_parts
        rw = self.run_width
        terms: list[str] = []
        out_doc: list[int] = []
        out_tf: list[int] = []
        out_dl: list[int] = []
        out_rpart: list[int] = []
        out_dlc: list[bool] = []
        out_pos: list[list[int]] = []
        for i, text in enumerate(texts):
            toks = analyze(text if text is not None else "")
            dl = len(toks)
            did = int(doc_ids[i])
            run_of_doc = did // rw
            first = True
            posmap: dict[str, list[int]] = {}
            for p, term in enumerate(toks):
                posmap.setdefault(term, []).append(p)
            for term, plist in posmap.items():
                terms.append(term)
                out_doc.append(did)
                out_tf.append(len(plist))
                out_dl.append(dl)
                out_dlc.append(first)
                first = False
                out_pos.append(plist)
                tid = self._tid(term)
                part = self._parts[tid]
                out_rpart.append(
                    (part + run_of_doc) % num_parts
                    if self._is_heavy[tid]
                    else part
                )
        return pa.table(
            {
                "term": pa.array(terms, pa.string()).dictionary_encode(),
                "doc_id": pa.array(np.array(out_doc, np.uint64)),
                "tf": pa.array(np.array(out_tf, np.uint32)),
                "dl": pa.array(np.array(out_dl, np.uint32)),
                "rpart": pa.array(np.array(out_rpart, np.int32)),
                "dlc": pa.array(out_dlc, pa.bool_()),
                "pos": pa.array(out_pos, pa.list_(pa.uint32())),
            }
        )
