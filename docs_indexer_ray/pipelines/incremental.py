"""Incremental indexing — the reference's cron re-run, done as a
delta build instead of a full reindex.

The reference cronjob re-crawls and re-indexes EVERYTHING every run
(``cronjob-docs.yaml``, alias swap at the end).  This pipeline makes
the nightly run's extraction and tokenizing proportional to the NEW
data:

1. the base build's url set becomes the seen-set — EXACT (broadcast
   sorted array, right while urls × 40 B fit in worker memory) or a
   Bloom filter (``ops/sketch.py`` — constant size at any corpus;
   ~fp_rate of genuinely-new pages is missed this run and caught the
   next, never duplicated: Bloom has no false negatives);
2. the incoming pages stream drops seen urls (map_batches filter —
   this is the "url filter" ``index/merge.py``'s disjointness
   contract refers to);
3. unseen pages build a DELTA index (full pipeline, but only over
   the delta);
4. ``merge_many`` combines base + delta in one posting-patch pass
   (no re-extraction, no posting re-encode) and publishes.

Cost: O(new docs) extract/tokenize, plus a merge that reads and
rewrites every base partition — Parquet I/O O(base segment bytes),
with vectorized Arrow per-row work and no re-extraction or posting
re-encode.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..index import manifest as mf
from ..index.build import build_index
from ..index.merge import merge_many

__all__ = ["incremental_update", "base_url_filter"]


def base_url_filter(base_build_dir: str, mode: str = "exact", fp_rate: float = 1e-3):
    """A pages-Dataset → pages-Dataset transform dropping urls already
    in the base build's docs store.

    ``mode="exact"``: broadcast the sorted url array (exact; memory =
    corpus urls on each node — fine to ~10^8 urls).
    ``mode="bloom"``: constant-size Bloom seen-set; ≈``fp_rate`` of
    NEW urls are wrongly dropped this run (caught next run), seen urls
    are never re-admitted.

    Tombstoned docs do NOT count as seen: a url whose every base doc
    is soft-deleted is re-admitted (otherwise a deleted page could
    never be re-indexed except via upsert)."""
    import ray
    import ray.data

    from ..index.deletes import load_delete_ids

    docs_dir = os.path.join(base_build_dir, "docs")
    deleted = load_delete_ids(base_build_dir)
    if len(deleted):
        dead_ref = ray.put(np.sort(deleted.astype(np.int64)))

        def live_urls(t: pa.Table) -> pa.Table:
            d = ray.get(dead_ref)
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            idx = np.clip(np.searchsorted(d, ids), 0, len(d) - 1)
            return t.filter(pa.array(d[idx] != ids, pa.bool_())).select(
                ["url"]
            )

        urls_ds = ray.data.read_parquet(
            docs_dir, columns=["doc_id", "url"]
        ).map_batches(live_urls, batch_format="pyarrow")
    else:
        urls_ds = ray.data.read_parquet(docs_dir, columns=["url"])

    if mode == "bloom":
        from ..ops.sketch import bloom_from_dataset, filter_unseen

        n = mf.read_manifest(base_build_dir)["n_docs"]
        bloom = bloom_from_dataset(urls_ds, "url", capacity=max(int(n), 1), fp_rate=fp_rate)
        return lambda pages_ds: filter_unseen(pages_ds, "url", bloom)

    if mode != "exact":
        raise ValueError(f"mode must be exact|bloom, got {mode!r}")
    from ..collect import tables_of

    parts = tables_of(urls_ds)
    seen = np.sort(
        np.concatenate(
            [p["url"].to_numpy(zero_copy_only=False) for p in parts]
        )
        if parts
        else np.empty(0, object)
    )
    seen_ref = ray.put(seen)

    def flt(t: pa.Table) -> pa.Table:
        s = ray.get(seen_ref)
        urls = t["url"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(s, urls)
        idx = np.clip(idx, 0, max(len(s) - 1, 0))
        hit = (s[idx] == urls) if len(s) else np.zeros(len(urls), bool)
        return t.filter(pa.array(~hit))

    return lambda pages_ds: pages_ds.map_batches(flt, batch_format="pyarrow")


def incremental_update(
    index_root: str,
    new_pages_ds,
    out_root: str,
    *,
    filter_mode: str = "exact",
    fingerprint: str | None = None,
    publish: bool = True,
    reindex_seen: bool = False,
    **build_kw,
):
    """Delta-index the unseen pages of ``new_pages_ds`` and merge into
    the base at ``index_root`` → the merged manifest (published under
    ``out_root``).  Returns the BASE manifest unchanged when nothing
    new arrived (the reference's check_index no-op).

    ``reindex_seen=True`` skips the seen-url filter: every incoming
    page is indexed as a NEW doc even if its url exists in the base —
    the upsert path (the caller tombstones the superseded base ids
    afterwards; the merge preserves base ids since the base is the
    shift-0 input).  The merge carries any live base tombstones
    forward (``carry_deletes``), so updates keep working after
    deletes — Lucene's soft-delete-across-merge model."""
    import time

    base_bdir = mf.current_build(index_root) or index_root
    base_man = mf.read_manifest(base_bdir)

    if reindex_seen:
        unseen = new_pages_ds
    else:
        unseen = base_url_filter(base_bdir, mode=filter_mode)(new_pages_ds)
    # pre-count the delta: a fully-seen input must no-op BEFORE the
    # build (an empty build has no spill files to reduce), and the
    # count is one cheap url-filter pass over the delta-scale stream
    if unseen.count() == 0:
        return base_man
    delta_root = os.path.join(out_root, "_delta")
    # collision-proof delta fingerprint: second-resolution time alone
    # made two updates within one second share a delta build dir, and
    # the resume-skip then silently served the FIRST batch's segment
    # files for the second batch (wrong docs indexed, no error)
    fp = fingerprint or (
        "d"
        + time.strftime("%Y%m%d%H%M%S")
        + f"-{time.time_ns() % 1_000_000_000}-{os.getpid()}"
    )
    build_kw.setdefault("num_parts", int(base_man["num_parts"]))
    build_kw.setdefault("block_size", int(base_man["block_size"]))
    build_kw.setdefault("store_positions", bool(base_man.get("store_positions", False)))
    build_kw.setdefault("extra_chains", tuple(sorted(base_man.get("chains", {}))))
    res = build_index(
        unseen,
        delta_root,
        prefix=base_man.get("prefix", "docs"),
        field=base_man["field"],
        chain=base_man["analyzer"],
        fingerprint=fp,
        skip_if_current=False,
        **build_kw,
    )
    if int(res["n_docs"]) == 0:
        return base_man  # nothing new — keep serving the base build
    return merge_many(
        [base_bdir, res.index_dir],
        out_root,
        prefix=base_man.get("prefix", "docs"),
        publish=publish,
        carry_deletes=True,
    )
