"""Compaction and docs-store reindexing — the second half of the
soft-delete lifecycle (``index/deletes.py``) and OpenSearch's
``_forcemerge``(expunge deletes) / ``_reindex`` surfaces.

Both operations exploit the build's phase seam: phase 1 (extract →
docs store) and phase 2 (tokenize → shuffle → segments,
``build._build_segments_all_chains``) communicate ONLY through the
docs-store directory.  So:

* :func:`compact_index` — rewrite the docs store WITHOUT the
  tombstoned docs (one Ray task per docpart: filter + dense re-id —
  ``new_id = old_id − |deleted < old_id|``, a broadcast
  ``searchsorted`` against the sorted tombstone array), then re-run
  phase 2 over the filtered store.  Extraction — the expensive phase
  in the reference's full-reindex flow — is never repeated.  The
  result is IDENTICAL to a from-scratch build over the surviving
  pages (equivalence-tested): statistics (N, df, avgdl) take their
  post-delete values, scores move accordingly — exactly what a Lucene
  merge that expunges deletes does.
* :func:`reindex_index` — hardlink the docs store unchanged and
  re-run phase 2 with a DIFFERENT analyzer chain / field /
  positions flag: OpenSearch ``_reindex`` into a new mapping, minus
  the re-crawl.

Doc-id density invariant: doc ids are dense and ascending in docpart
order (``stages/docid.py``), so the per-partition filter + subtract
preserves global order and density — the compacted store is
indistinguishable from a fresh phase-1 output.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import manifest as mf
from .build import _build_segments_all_chains
from .deletes import load_delete_ids
from .segments import SEGMENT_LAYOUT

__all__ = ["compact_index", "reindex_index"]


def _parquet_names(src_dir: str) -> list[str]:
    """Only ``.parquet`` files count as data — a crashed task's
    ``*.tmp-<pid>`` or any stray file must never be read or linked
    (same contract as the segment reader's suffix-filtered globs)."""
    return sorted(x for x in os.listdir(src_dir) if x.endswith(".parquet"))


def _clear_stale_tmp(out_dir: str) -> None:
    """Remove leftover ``*.tmp-<pid>`` files from a crashed prior run:
    downstream directory-discovery readers (phase 2, stored-field
    fetch) would otherwise ingest them as data on resume."""
    for fname in os.listdir(out_dir):
        if ".tmp-" in fname:
            try:
                os.remove(os.path.join(out_dir, fname))
            except FileNotFoundError:
                pass


def _filter_docpart(src_dir: str, out_dir: str, deleted: np.ndarray) -> int:
    """Task body: one docpart directory → filtered + re-id'd copy.
    Returns surviving row count.  Hardlink fast-path when no tombstone
    touches this partition's files."""
    os.makedirs(out_dir, exist_ok=True)
    _clear_stale_tmp(out_dir)
    n = 0
    for fname in _parquet_names(src_dir):
        src_f = os.path.join(src_dir, fname)
        dst_f = os.path.join(out_dir, fname)
        if os.path.exists(dst_f):  # resume skip
            n += pq.read_metadata(dst_f).num_rows
            continue
        t = pq.read_table(src_f)
        ids = t["doc_id"].to_numpy().astype(np.int64)
        dead = np.isin(ids, deleted, assume_unique=False)
        shift_all = np.searchsorted(deleted, ids, side="left").astype(np.int64)
        if not dead.any() and not shift_all.any():
            try:
                os.link(src_f, dst_f)
            except OSError:
                shutil.copy2(src_f, dst_f)
            n += t.num_rows
            continue
        keep = ~dead
        t = t.filter(pa.array(keep))
        new_ids = ids[keep] - shift_all[keep]
        t = t.set_column(
            t.schema.get_field_index("doc_id"),
            "doc_id",
            pa.array(new_ids.astype(np.uint64), pa.uint64()),
        )
        if t.num_rows:
            tmp = dst_f + f".tmp-{os.getpid()}"
            pq.write_table(t, tmp, compression="zstd")
            os.replace(tmp, dst_f)
        n += t.num_rows
    return n


def _rebuild_from_docs(
    src_bdir: str,
    out_root: str,
    fingerprint: str,
    *,
    docs_task,
    chain: str,
    field: str,
    extra_chains: tuple,
    store_positions: bool,
    num_parts: int,
    block_size: int,
    publish: bool,
    scratch_dir: str | None,
    prefix: str,
):
    """Shared tail: docs-store tasks → phase 2 → manifest → publish."""
    import ray

    t0 = time.time()
    bdir = mf.build_dir(out_root, prefix, fingerprint)
    docs_dir = os.path.join(bdir, "docs")
    os.makedirs(docs_dir, exist_ok=True)

    src_docs = os.path.join(src_bdir, "docs")
    parts = sorted(x for x in os.listdir(src_docs) if x.startswith("docpart="))
    task = ray.remote(num_cpus=1)(docs_task)
    counts = ray.get(
        [
            task.remote(os.path.join(src_docs, p), os.path.join(docs_dir, p))
            for p in parts
        ]
    )
    n_docs = int(sum(counts))
    t1 = time.time()

    scratch = scratch_dir if scratch_dir is not None else bdir
    all_chains = [chain, *extra_chains]
    all_stats = _build_segments_all_chains(
        docs_dir,
        bdir,
        scratch,
        field=field,
        chains=all_chains,
        num_parts=num_parts,
        block_size=block_size,
        n_docs=n_docs,
        salt_heavy=True,
        heavy_df_ratio=0.25,
        n_salt_runs=8,
        store_positions=store_positions,
    )
    man = {
        "prefix": prefix,
        "fingerprint": fingerprint,
        "field": field,
        "analyzer": chain,
        "num_parts": num_parts,
        "block_size": block_size,
        "n_docs": n_docs,
        "bm25_k1": 1.2,
        "bm25_b": 0.75,
        "store_positions": bool(store_positions),
        "segment_layout": SEGMENT_LAYOUT,
        **all_stats[chain],
        "chains": {c: all_stats[c] for c in extra_chains},
        "timings_s": {
            "docs_store": round(t1 - t0, 3),
            "index": round(time.time() - t1, 3),
            "total": round(time.time() - t0, 3),
        },
    }
    mf.write_manifest(bdir, man)
    if publish:
        mf.publish(out_root, f"{prefix}-{fingerprint}")
    return man


def compact_index(
    index_root: str,
    out_root: str,
    *,
    fingerprint: str | None = None,
    publish: bool = True,
    scratch_dir: str | None = None,
):
    """Expunge soft deletes into a NEW published build (OpenSearch
    ``_forcemerge`` with ``only_expunge_deletes``): filtered + re-id'd
    docs store, phase-2 rebuild, fresh statistics.  Equivalent to a
    from-scratch build over the surviving pages (tested).  Returns the
    new manifest; the source build is untouched."""
    src_bdir = mf.current_build(index_root) or index_root
    src_man = mf.read_manifest(src_bdir)
    deleted = load_delete_ids(src_bdir)
    if fingerprint is None:
        h = hashlib.sha1(
            src_man["fingerprint"].encode()
            + b"|"
            + np.ascontiguousarray(deleted, np.int64).tobytes()
        ).hexdigest()[:16]
        fingerprint = "c" + h

    # broadcast the tombstone array ONCE (ray.put) — a closure-captured
    # numpy array is re-deserialized per task, tombstone-scale × docparts
    import ray

    deleted_ref = ray.put(deleted)

    def docs_task(src_dir: str, out_dir: str) -> int:
        import ray

        return _filter_docpart(src_dir, out_dir, ray.get(deleted_ref))

    return _rebuild_from_docs(
        src_bdir,
        out_root,
        fingerprint,
        docs_task=docs_task,
        chain=src_man["analyzer"],
        field=src_man["field"],
        extra_chains=tuple(sorted(src_man.get("chains", {}))),
        store_positions=bool(src_man.get("store_positions", False)),
        num_parts=int(src_man["num_parts"]),
        block_size=int(src_man["block_size"]),
        publish=publish,
        scratch_dir=scratch_dir,
        prefix=src_man.get("prefix", "docs"),
    )


def reindex_index(
    index_root: str,
    out_root: str,
    *,
    chain: str | None = None,
    field: str | None = None,
    extra_chains: tuple = (),
    store_positions: bool | None = None,
    fingerprint: str | None = None,
    publish: bool = True,
    scratch_dir: str | None = None,
):
    """Re-index the stored docs under a different analyzer chain /
    field / positions setting WITHOUT re-extraction (OpenSearch
    ``_reindex`` into a new mapping).  The docs store is hardlinked,
    so the new build shares page data with the source.  Refuses a
    source with live tombstones — compact first (otherwise the
    deleted docs would resurrect)."""
    src_bdir = mf.current_build(index_root) or index_root
    src_man = mf.read_manifest(src_bdir)
    if len(load_delete_ids(src_bdir)):
        raise ValueError(
            "source has live tombstones: reindex would resurrect deleted "
            "docs — run compact_index first"
        )
    chain = chain or src_man["analyzer"]
    field = field or src_man["field"]
    if store_positions is None:
        store_positions = bool(src_man.get("store_positions", False))
    if fingerprint is None:
        cfg = f"{chain}|{field}|{','.join(extra_chains)}|{int(store_positions)}"
        h = hashlib.sha1((src_man["fingerprint"] + "|" + cfg).encode()).hexdigest()[:16]
        fingerprint = "r" + h

    def docs_task(src_dir: str, out_dir: str) -> int:
        os.makedirs(out_dir, exist_ok=True)
        n = 0
        for fname in _parquet_names(src_dir):
            src_f, dst_f = os.path.join(src_dir, fname), os.path.join(out_dir, fname)
            if not os.path.exists(dst_f):
                try:
                    os.link(src_f, dst_f)
                except OSError:
                    shutil.copy2(src_f, dst_f)
            n += pq.read_metadata(dst_f).num_rows
        return n

    return _rebuild_from_docs(
        src_bdir,
        out_root,
        fingerprint,
        docs_task=docs_task,
        chain=chain,
        field=field,
        extra_chains=tuple(extra_chains),
        store_positions=store_positions,
        num_parts=int(src_man["num_parts"]),
        block_size=int(src_man["block_size"]),
        publish=publish,
        scratch_dir=scratch_dir,
        prefix=src_man.get("prefix", "docs"),
    )
