"""Docs-store build: range-partitioned spill + per-partition reduce.

The scalable phase-1 layout (extract → dedup → dense doc ids → store)
as ONE map pass over pages plus one per-partition task round — no Ray
sort shuffle, no ``materialize()``:

1. **Boundary sample** — urls with ``crc32(url) % sample_mod == 0``
   (a value property, parallelism-invariant) collected to the driver,
   sorted, quantiled into ``num_parts-1`` range boundaries.  Callers
   that can derive boundaries more cheaply (e.g. the synthetic-pages
   flagship, whose url set is a pure function of the seed table) pass
   them in via ``boundaries=`` and skip this pass.  Boundaries affect
   only partition *balance*: doc ids are the global url rank and come
   out identical for any boundary choice.
2. **Extract + spill** — pages → ``ExtractAssemble`` → ``docpart =
   searchsorted(boundaries, url)``, each batch written as ONE spill
   file sorted by docpart with a row group per docpart slice (the
   map-output-file shuffle layout — file count tracks batch count, not
   tasks × partitions).  The pass returns the **lineage file list**;
   every downstream read is restricted to exactly those files, so
   stale spill files from an earlier crashed attempt are ignored (they
   could otherwise double rows silently) and a missing file — e.g. a
   non-shared ``scratch_dir`` on a multi-node cluster — fails loudly
   instead of silently dropping a partition's rows.
3. **Count round** (one ``ray.remote`` task per partition) — deduped
   row count = ``n_distinct(url)``, reading ONLY the ``url`` column of
   the partition's row groups (a tiny fraction of the spill bytes).
   The driver cumsums counts in part order (= url order, because
   partitions are url *ranges*) into dense doc-id offsets — the only
   barrier, O(num_parts) driver state.
4. **Finalize round** — per partition: keep the max ``(warc_ts,
   body)`` row per url, a null sorting lowest (one sort-indices + one
   gather), assign
   ``doc_id = offset + arange`` and atomically write
   ``docs/docpart=K/part.parquet``.  Spill → final file in one read,
   one gather, one write; an object-store round-trip here would cost
   two extra full copies of every partition, which saturates shared
   memory bandwidth when all cores run reduce tasks at once.

Plain task rounds (not Ray Data executions) on purpose: these are
O(num_parts) fan-outs with driver-side sequencing between them, and a
Ray Data plan adds planner/stage-startup constants per execution that
dominate at the small end — the round-trip count here is what bounds
job-level scaling efficiency.

Determinism: boundaries, dedup winners and id ranks are all functions
of row *values*, so any parallelism level yields identical ids — the
property the reference's rank-identity requirement rests on.  Each
partition file write is atomic; a rerun skips finished partitions
(their parked-ref is ``None`` and the count comes from file metadata).
"""

from __future__ import annotations

import hashlib
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .extract import ExtractAssemble

__all__ = ["build_docs_store", "sample_url_boundaries"]


def _crc_sample_urls(batch: pa.Table, mod: int) -> pa.Table:
    urls = batch["url"].to_pylist()
    keep = [u for u in urls if zlib.crc32(u.encode()) % mod == 0]
    return pa.table({"url": pa.array(keep, pa.string())})


def _quantile_boundaries(sample_urls: list[str], num_parts: int) -> list[str]:
    sample_urls = sorted(sample_urls)
    if len(sample_urls) >= num_parts * 4:
        idx = np.linspace(0, len(sample_urls) - 1, num_parts + 1).astype(int)[1:-1]
        return [sample_urls[i] for i in idx]
    return sample_urls[: num_parts - 1]


def sample_url_boundaries(pages_ds, num_parts: int, sample_mod: int = 16) -> list[str]:
    """Generic boundary sampling (one url-only pass over pages)."""
    sample = pages_ds.map_batches(
        lambda t: _crc_sample_urls(t, sample_mod), batch_format="pyarrow"
    )
    return _quantile_boundaries([r["url"] for r in sample.take_all()], num_parts)


class _ExtractSpill:
    """Map side: extract+assemble, tag docpart, write one rpart-sorted
    spill file per batch (row group per docpart).

    File names are content-derived (digest of the batch's first/last
    (url, warc_ts) + row count): per-process sequence numbers overwrite
    earlier tasks' files when Ray re-deserializes the callable per
    task, and content names stay idempotent under task retries."""

    def __init__(self, spill_dir: str, boundaries: list[str], type_label: str):
        self.spill_dir = spill_dir
        self.bounds = np.array(boundaries, dtype=object)
        # the catch-all `text` is a pure function of stored fields —
        # derived on read (stages/extract.py::synthesize_text) instead
        # of being spilled + stored (~40% of row bytes saved through
        # the whole phase-1 data path)
        self.extract = ExtractAssemble(type_label=type_label, emit_text=False)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        # tag over the FULL url and warc_ts columns: endpoints + row
        # count alone can collide across distinct batches (a hot url
        # spanning batch boundaries), and a collision means the second
        # os.replace silently drops the first batch's rows
        h = hashlib.sha1()
        if batch.num_rows:
            h.update("\x00".join(batch["url"].to_pylist()).encode("utf-8"))
            h.update(
                batch["warc_ts"]
                .cast(pa.int64())
                .combine_chunks()
                .to_numpy(zero_copy_only=False)
                .tobytes()
            )
        h.update(str(batch.num_rows).encode())
        tag = h.hexdigest()[:16]

        out = self.extract(batch)
        urls = np.array(out["url"].to_pylist(), dtype=object)
        part = np.searchsorted(self.bounds, urls, side="right").astype(np.int32)
        out = out.append_column("docpart", pa.array(part, pa.int32()))
        order = np.argsort(part, kind="stable")
        out = out.take(pa.array(order))
        parts_sorted = part[order]
        bounds = np.flatnonzero(
            np.concatenate(([True], parts_sorted[1:] != parts_sorted[:-1]))
        )
        bounds = np.append(bounds, len(parts_sorted))

        name = f"dspill-{tag}.parquet"
        path = os.path.join(self.spill_dir, name)
        tmp = f"{path}.tmp-{os.getpid()}"
        writer = pq.ParquetWriter(tmp, out.schema)
        for i in range(len(bounds) - 1):
            writer.write_table(out.slice(bounds[i], bounds[i + 1] - bounds[i]))
        writer.close()
        os.replace(tmp, path)
        return pa.table({"file": pa.array([name]), "rows": pa.array([out.num_rows])})


def _check_spill_files(spill_files: list[str], what: str) -> None:
    missing = [f for f in spill_files if not os.path.exists(f)]
    if missing:
        raise FileNotFoundError(
            f"spill files missing for {what}: {missing[:3]}… — "
            "scratch_dir must be on storage shared between map and reduce "
            "tasks (shared FS, or node-local only on a single node)"
        )


def _count_part(spill_files: list[str], docpart: int, docs_dir: str) -> dict:
    """Task: deduped (distinct-url) row count of one partition.

    Reads ONLY the ``url`` column of the partition's row groups — a
    tiny fraction of the spill bytes — so the barrier the dense-id
    offsets need is nearly free."""
    import pyarrow.dataset as pads

    out_file = os.path.join(docs_dir, f"docpart={docpart}", "part.parquet")
    if os.path.exists(out_file):  # resume: count from the finished file
        return {
            "docpart": docpart,
            "n": pq.read_metadata(out_file).num_rows,
            "resumed": True,
        }
    _check_spill_files(spill_files, f"docpart {docpart}")
    dset = pads.dataset(spill_files, format="parquet")
    t = dset.to_table(filter=pads.field("docpart") == docpart, columns=["url"])
    return {
        "docpart": docpart,
        "n": len(pc.unique(t["url"].combine_chunks())),
        "resumed": False,
    }


def _finalize_part(
    spill_files: list[str], docpart: int, offset: int, docs_dir: str
) -> dict:
    """Task: dedup last-writer-wins, dense ids, atomic partition write.

    Spill → final file in ONE read + ONE gather + ONE write — no
    intermediate materialization (an object-store round-trip here costs
    two extra full copies of the partition, which saturates shared
    memory bandwidth when every core runs a reduce task)."""
    import pyarrow.dataset as pads

    out_dir = os.path.join(docs_dir, f"docpart={docpart}")
    out_file = os.path.join(out_dir, "part.parquet")
    if os.path.exists(out_file):  # resume
        return {"docpart": docpart, "n": pq.read_metadata(out_file).num_rows, "n_err": 0}
    _check_spill_files(spill_files, f"docpart {docpart}")
    dset = pads.dataset(spill_files, format="parquet")
    t = dset.to_table(filter=pads.field("docpart") == docpart)
    if t.num_rows == 0:
        return {"docpart": docpart, "n": 0, "n_err": 0}
    sort_keys = [("url", "ascending"), ("warc_ts", "ascending")] + (
        [("body", "ascending")] if "body" in t.column_names else []
    )
    # last-of-run winners with ONE full-table take: compute the sorted
    # order, find run ends on the (cheap) sorted url column only, and
    # gather the winners straight from the unsorted table — no Python
    # string materialization, no sort-then-filter double copy.  The
    # winners stay in sorted-url order, which the dense-id rank needs.
    # nulls sort FIRST so a null warc_ts (missing crawl header) always
    # loses to a real timestamp under keep-last — pyarrow's default
    # at_end placement made the unknown-age row the winner
    order = pc.sort_indices(t, sort_keys=sort_keys, null_placement="at_start")
    urls_sorted = pc.take(t["url"], order).combine_chunks()
    n = len(urls_sorted)
    is_last = np.empty(n, dtype=bool)
    is_last[-1] = True
    is_last[:-1] = pc.not_equal(
        urls_sorted.slice(0, n - 1), urls_sorted.slice(1, n)
    ).to_numpy(zero_copy_only=False)
    winners = order.to_numpy(zero_copy_only=False)[np.flatnonzero(is_last)]
    t = t.take(pa.array(winners))
    n_err = (
        t.num_rows - t["extract_error"].null_count
        if "extract_error" in t.column_names
        else 0
    )
    ids = np.arange(t.num_rows, dtype=np.uint64) + offset
    t = t.append_column("doc_id", pa.array(ids, pa.uint64()))
    os.makedirs(out_dir, exist_ok=True)
    tmp = out_file + f".tmp-{os.getpid()}"
    pq.write_table(t, tmp, compression="zstd")
    os.replace(tmp, out_file)
    return {"docpart": docpart, "n": t.num_rows, "n_err": int(n_err)}


def build_docs_store(
    pages_ds,
    spill_dir: str,
    docs_dir: str,
    *,
    num_parts: int = 32,
    type_label: str = "page",
    sample_mod: int = 16,
    batch_size: int | None = None,
    boundaries: list[str] | None = None,
) -> tuple[int, int]:
    """Run phases 1–4 (module docstring); returns ``(n_docs,
    n_extract_errors)`` — rows that degrade (SURVEY §4 never-fail
    rule) are kept, tagged in ``extract_error``, and counted."""
    import ray

    if boundaries is None:
        boundaries = sample_url_boundaries(pages_ds, num_parts, sample_mod)

    # docpart resume is only valid against the same boundary plan
    # (num_parts defaults scale with cluster size) — wipe stale-config
    # partials instead of mixing docpart schemes
    from ..index.manifest import ensure_phase_config

    ensure_phase_config(
        docs_dir,
        dict(
            phase="docs",
            type_label=type_label,
            n_parts=len(boundaries) + 1,
            boundaries=hashlib.sha1("\n".join(boundaries).encode()).hexdigest(),
        ),
    )

    os.makedirs(spill_dir, exist_ok=True)
    lineage = pages_ds.map_batches(
        _ExtractSpill(spill_dir, boundaries, type_label),
        batch_format="pyarrow",
        batch_size=batch_size,
    ).take_all()
    spill_files = sorted({os.path.join(spill_dir, r["file"]) for r in lineage})

    n_parts_total = len(boundaries) + 1
    count_task = ray.remote(num_cpus=1)(_count_part)
    files_ref = ray.put(spill_files)
    counts = ray.get(
        [count_task.remote(files_ref, k, docs_dir) for k in range(n_parts_total)]
    )

    counts.sort(key=lambda r: r["docpart"])
    offsets: dict[int, int] = {}
    acc = 0
    for r in counts:
        offsets[r["docpart"]] = acc
        acc += r["n"]
    n_docs = acc

    finalize_task = ray.remote(num_cpus=1)(_finalize_part)
    fin = ray.get(
        [
            finalize_task.remote(files_ref, k, offsets[k], docs_dir)
            for k in range(n_parts_total)
        ]
    )
    n_errors = int(sum(r["n_err"] for r in fin))
    return n_docs, n_errors
