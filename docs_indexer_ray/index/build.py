"""End-to-end index build: ``pages`` Dataset → published on-disk index.

The Ray-Data-shaped rebuild of the reference's run loop
(``/root/reference/hugo.py:397-483`` — SURVEY §3.1/§3.3), with the
OpenSearch-delegated index construction done explicitly:

    pages ─ map_batches(extract + url-range docpart) ─ stateless tasks
          ─ spill: ONE docpart-sorted file per batch ── shuffle #1 write
          ─ count round (url column only) → dense-id offsets (driver
            cumsum — the only barrier, O(parts) state)
          ─ finalize round: dedup → ids → docs store ── checkpoint A
    docs  ─ map_batches(multi-chain tokenizer) ──────── analyzer, D1-D3
          ─ spill: ONE rpart-sorted file per batch per chain
            (rpart = crc32(term) % P, heavy terms salted by doc range)
          ─ encode round: segments per (chain, part) ── checkpoint B
          ─ stats from the encode tasks ── manifest ── atomic publish

Both all-to-all exchanges are *map-output-file shuffles* (one sorted
spill file per batch, a row group per partition) followed by
per-partition reduce rounds run as plain ``ray.remote`` tasks over
exactly the lineage file list the map pass returned — the
external-shuffle shape: no global sort, every partition independently
resumable, the spill is the shuffle's checkpoint, stale files from
crashed attempts are ignored, and none of the O(parts) reduce rounds
pays a Ray Data execution's planning constant.  Measured 3× faster
than the sort-based ``groupby().map_groups`` equivalent on this
workload (see ``stages/docstore.py`` / ``segments.py``).

Scale notes (the 100 TB story):

* The postings exchange is keyed ``crc32(term) % P`` with df-heavy
  terms salted across doc-id-range runs (learned from a deterministic
  ~1/64 doc sample — a tiny pre-pass, not a second full tokenization).
* The docs store is written before tokenization, so the expensive
  extraction runs exactly once per build; a resumed build re-reads the
  checkpoint instead of re-extracting (per-partition lineage in the
  manifest; segment and docs part files skip themselves).
* Nothing materializes a full dataset on the driver — driver-side
  state is only the url boundary sample and the per-partition counts.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np
import pyarrow as pa

from ..stages.tokenize import MultiChainTokenizeSpill
from . import manifest as mf
from .segments import SEGMENT_LAYOUT

__all__ = ["build_index", "IndexBuildResult"]


class IndexBuildResult(dict):
    """manifest dict + .index_dir attribute."""

    index_dir: str


_TEXT_SYNTH_COLS = ["title", "body", "uri", "breadcrumb"]


def _field_columns(docs_dir: str, field: str) -> list[str]:
    """Columns to read for ``field`` — the synthesis inputs when the
    docs store doesn't persist the derivable catch-all ``text``."""
    import pyarrow.dataset as pads

    names = pads.dataset(docs_dir, partitioning="hive").schema.names
    if field == "text" and "text" not in names:
        return ["doc_id", *_TEXT_SYNTH_COLS]
    return ["doc_id", field]


def _sample_heavy_file(path: str, field: str, chain: str, per_file: int) -> tuple[dict, int]:
    """One sampling task: df Counter over ≤``per_file`` docs of the
    file's first row group (a slice of one url range)."""
    from collections import Counter

    import pyarrow.parquet as pq

    from ..functions.analyzer import Analyzer

    pf = pq.ParquetFile(path)
    names = pf.schema_arrow.names
    if field == "text" and "text" not in names:
        from ..stages.extract import synthesize_text

        t = synthesize_text(pf.read_row_group(0, columns=_TEXT_SYNTH_COLS))
    else:
        t = pf.read_row_group(0, columns=[field])
    col = t[field].to_pylist()
    step = max(1, len(col) // per_file)
    texts = col[::step][:per_file]
    analyzer = Analyzer(chain)
    c: Counter = Counter()
    for text in texts:
        c.update(set(analyzer(text or "")))
    return dict(c), len(texts)


def _detect_heavy_terms_all(
    docs_dir: str,
    field: str,
    chains: list[str],
    heavy_df_ratio: float,
    sample_docs: int = 2048,
) -> dict[str, set[str]]:
    """Deterministic sampled df pre-pass → per chain, the terms with
    estimated df/N above ``heavy_df_ratio`` (the salting candidates).

    One Ray task per (docs-store partition file × chain) reads only
    that file's FIRST row group (a slice of every url range, not just
    one part — bounded bias) and subsamples to ~``sample_docs`` docs
    total; the driver merges the tiny per-file Counters.  All chains'
    sampling tasks run in one parallel wave.  The sample is a pure
    function of the stored rows → parallelism-invariant.
    """
    from collections import Counter

    import ray

    files = sorted(
        os.path.join(docs_dir, d, f)
        for d in os.listdir(docs_dir)
        if d.startswith("docpart=")
        for f in os.listdir(os.path.join(docs_dir, d))
        if f.endswith(".parquet")
    )
    if not files:
        return {c: set() for c in chains}
    per_file = max(1, sample_docs // len(files))
    task = ray.remote(num_cpus=1)(_sample_heavy_file)
    refs = {
        chain: [task.remote(p, field, chain, per_file) for p in files]
        for chain in chains
    }
    out: dict[str, set[str]] = {}
    for chain, chain_refs in refs.items():
        c: Counter = Counter()
        n_texts = 0
        for d, n in ray.get(chain_refs):
            c.update(d)
            n_texts += n
        thresh = heavy_df_ratio * max(1, n_texts)
        out[chain] = {term for term, df in c.items() if df >= thresh}
    return out


def _build_segments_all_chains(
    docs_dir: str,
    bdir: str,
    scratch: str,
    *,
    field: str,
    chains: list[str],
    num_parts: int,
    block_size: int,
    n_docs: int,
    salt_heavy: bool,
    heavy_df_ratio: float,
    n_salt_runs: int,
    store_positions: bool = False,
) -> dict[str, dict]:
    """Tokenize → map-output-file postings spill → per-partition encode
    for EVERY analyzer chain in one docs pass; returns chain → manifest
    fragment.  ``chains[0]`` is the main chain (``segments/``); extras
    get ``segments-<chain>/`` (D8 multi-field parity — the reference's
    text/.english/.trigram/.reverse sub-fields, mappings/hugo.json:54-72).

    The spill layout: each tokenize batch writes one rpart-sorted file
    per chain with a row group per rpart; reduce tasks filter-read
    their partition's row groups from exactly the lineage file list.
    File count tracks batch count — independent of partition count (a
    ``partition_cols`` write creates tasks × partitions files, a
    sort-based groupby pays a global sort).  All chains' encode tasks
    run in one parallel wave.
    """
    import ray
    import ray.data

    heavies: dict[str, set[str]] = {c: set() for c in chains}
    run_width = 1 << 60
    if salt_heavy and n_docs > 0:
        heavies = _detect_heavy_terms_all(docs_dir, field, chains, heavy_df_ratio)
        n_salt_runs = min(n_salt_runs, num_parts)  # +run salt must stay injective
        run_width = max(1, -(-n_docs // n_salt_runs))  # ceil

    spill_dirs: dict[str, str] = {}
    seg_dirs: dict[str, str] = {}
    per_chain_cfg: dict[str, dict] = {}
    for i, c in enumerate(chains):
        sd = os.path.join(scratch, f"spill-{c}")
        os.makedirs(sd, exist_ok=True)
        segd = os.path.join(bdir, "segments" if i == 0 else f"segments-{c}")
        # per-partition resume is only valid if the interrupted run used
        # the same layout (num_parts is derived from cluster size!) —
        # wipe stale-config partials instead of mixing schemes
        mf.ensure_phase_config(
            segd,
            dict(
                phase="segments",
                layout=SEGMENT_LAYOUT,
                num_parts=num_parts,
                block_size=block_size,
                store_positions=bool(store_positions),
                field=field,
                chain=c,
                run_width=run_width,
                heavy=hashlib.sha1(
                    "\n".join(sorted(heavies[c])).encode()
                ).hexdigest(),
            ),
        )
        spill_dirs[c], seg_dirs[c] = sd, segd
        per_chain_cfg[c] = dict(
            spill_dir=sd,
            field=field,
            chain=c,
            num_parts=num_parts,
            heavy_terms=frozenset(heavies[c]),
            run_width=run_width,
            store_positions=store_positions,
        )

    docs_ds = ray.data.read_parquet(
        docs_dir, columns=_field_columns(docs_dir, field)
    )
    lineage = docs_ds.map_batches(
        MultiChainTokenizeSpill(per_chain_cfg),
        batch_format="pyarrow",
        # None = one batch per input block: an explicit row-count batch
        # size is interpreted by the task bundler as a MINIMUM rows per
        # task and caps tokenize parallelism at total_rows/batch_size
        # tasks (measured: 3 tasks for the 50k-doc bench at any CPU
        # count with batch_size=16384); docs-store part files are the
        # natural batch granularity
        batch_size=None,
    ).take_all()

    # reduce: one plain Ray task per (chain, partition) over exactly the
    # lineage file list (no Ray Data execution constant, no stale-spill
    # reads), all chains in one wave
    from .segments import encode_spill_files

    encode_task = ray.remote(num_cpus=1)(encode_spill_files)
    refs_by_chain: dict[str, list] = {}
    for c in chains:
        spill_files = sorted(
            {
                os.path.join(spill_dirs[c], r["file"] + ".parquet")
                for r in lineage
                if r["chain"] == c
            }
        )
        files_ref = ray.put(spill_files)
        refs_by_chain[c] = [
            encode_task.remote(seg_dirs[c], block_size, k, files_ref)
            for k in range(num_parts)
        ]

    out: dict[str, dict] = {}
    for c in chains:
        lineage_rows = ray.get(refs_by_chain[c])
        shutil.rmtree(spill_dirs[c], ignore_errors=True)
        dl_sum = sum(r["dl_sum"] for r in lineage_rows)
        dl_n = sum(r["dl_n"] for r in lineage_rows)
        out[c] = {
            "n_docs_with_terms": dl_n,
            "total_tokens": dl_sum,
            "avgdl": (dl_sum / dl_n) if dl_n else 0.0,
            "heavy_terms": sorted(heavies[c]),
            "n_salt_runs": n_salt_runs if heavies[c] else 1,
            "run_width": run_width,
            "partitions": [
                {k: (int(v) if isinstance(v, (np.integer,)) else v) for k, v in r.items()}
                for r in sorted(lineage_rows, key=lambda r: r["rpart"])
            ],
        }
    return out


def build_index(
    pages_ds,
    out_root: str,
    *,
    prefix: str = "docs",
    field: str = "text",
    chain: str = "english",
    num_parts: int | None = None,
    block_size: int = 128,
    type_label: str = "page",
    input_paths: list[str] | None = None,
    fingerprint: str | None = None,
    salt_heavy: bool = True,
    heavy_df_ratio: float = 0.25,
    n_salt_runs: int = 8,
    skip_if_current: bool = True,
    publish: bool = True,
    docpart_boundaries: list[str] | None = None,
    scratch_dir: str | None = None,
    extra_chains: list[str] | tuple[str, ...] = (),
    store_positions: bool = False,
) -> IndexBuildResult:
    """Build (or resume) an index from a pages Dataset; returns manifest.

    ``fingerprint`` names the build (default: digest of ``input_paths``
    or a timestamp — the blog indexer's datetime naming,
    ``blog.py:180-181``).  If the published CURRENT already points at
    this fingerprint the build short-circuits like the reference's
    ``check_index`` (``hugo.py:424-427``).
    """
    import ray

    t0 = time.time()
    if fingerprint is None:
        fingerprint = (
            mf.input_fingerprint(input_paths) if input_paths else time.strftime("%Y%m%d%H%M%S")
        )
    if skip_if_current and mf.is_current(out_root, prefix, fingerprint):
        bdir = mf.current_build(out_root)
        res = IndexBuildResult(mf.read_manifest(bdir))
        res.index_dir = bdir
        res["resumed_current"] = True
        return res

    cpus = int(ray.cluster_resources().get("CPU", 8))
    if num_parts is None:
        num_parts = max(8, 2 * cpus)

    bdir = mf.build_dir(out_root, prefix, fingerprint)
    seg_dir = os.path.join(bdir, "segments")
    docs_dir = os.path.join(bdir, "docs")
    os.makedirs(seg_dir, exist_ok=True)
    # shuffle spills: durable next to the build by default; point
    # scratch_dir at fast local storage (node-local NVMe / /dev/shm)
    # when rerun-from-scratch beats re-reading a slow disk
    scratch = scratch_dir if scratch_dir is not None else bdir
    os.makedirs(scratch, exist_ok=True)

    # ---- phase 1: extract → dedup → doc ids → docs store ---------------
    docs_done = os.path.join(bdir, "_DOCS_DONE")
    if os.path.exists(docs_done):
        import json

        with open(docs_done) as f:
            docs_meta = json.load(f)
        n_docs = docs_meta["n_docs"]
    else:
        from ..stages.docstore import build_docs_store

        docs_spill = os.path.join(scratch, "docs_spill")
        n_docs, n_extract_errors = build_docs_store(
            pages_ds,
            docs_spill,
            docs_dir,
            # 3 partitions per core: reduce-round stragglers idle the
            # other cores for a whole task otherwise
            num_parts=max(8, 3 * cpus),
            type_label=type_label,
            boundaries=docpart_boundaries,
        )
        shutil.rmtree(docs_spill, ignore_errors=True)
        import json

        docs_meta = {
            "n_docs": n_docs,
            "n_extract_errors": n_extract_errors,
            "wall_s": time.time() - t0,
        }
        tmp = docs_done + ".tmp"
        with open(tmp, "w") as f:
            json.dump(docs_meta, f)
        os.replace(tmp, docs_done)

    # ---- phase 2: tokenize → postings shuffle → segments ---------------
    import ray.data

    t1 = time.time()

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
        salt_heavy=salt_heavy,
        heavy_df_ratio=heavy_df_ratio,
        n_salt_runs=n_salt_runs,
        store_positions=store_positions,
    )
    chain_stats = all_stats[chain]
    extras = {c: all_stats[c] for c in extra_chains}

    man = {
        "prefix": prefix,
        "fingerprint": fingerprint,
        "field": field,
        "analyzer": chain,
        "num_parts": num_parts,
        "block_size": block_size,
        "n_docs": n_docs,
        "n_extract_errors": docs_meta.get("n_extract_errors", 0),
        "bm25_k1": 1.2,
        "bm25_b": 0.75,
        "store_positions": bool(store_positions),
        "segment_layout": SEGMENT_LAYOUT,
        **chain_stats,
        "chains": extras,
        # throughput metrics: job-level docs/s plus the per-partition
        # lineage records already carried under chains' "partitions"
        # (n_terms / n_postings / bytes / resumed / wall_s per rpart) —
        # the checkpoint+metrics contract: a resumed build reports
        # which partitions were skipped and what each one cost
        "timings_s": {
            "docs_store": round(t1 - t0, 3),
            "index": round(time.time() - t1, 3),
            "total": round(time.time() - t0, 3),
            "docs_per_sec": round(n_docs / max(time.time() - t0, 1e-9), 1),
        },
    }
    mf.write_manifest(bdir, man)
    if publish:
        mf.publish(out_root, f"{prefix}-{fingerprint}")

    res = IndexBuildResult(man)
    res.index_dir = bdir
    return res
