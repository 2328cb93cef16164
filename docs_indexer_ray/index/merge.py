"""Index merge: combine k published indexes into one, in one pass.

The reference gets incrementality for free from OpenSearch (segment
merges happen inside Lucene; the indexer just feeds docs).  Here the
merge is explicit — the piece that makes **incremental builds** work:
index yesterday's crawl once, build a small delta index for today's
pages, merge instead of rebuilding.  The merge reads and rewrites
every base partition: its segment I/O is O(base segment bytes), and
the per-row work on those bytes is vectorized Arrow/numpy (no
extraction, tokenizing or posting re-encode).

Design — the merge never decodes or re-encodes postings:

* input ``i``'s doc ids are shifted by ``Σ n_docs`` of inputs before
  it (dense ids stay dense; the first input is untouched);
* the reader already stitches a term stored as SEVERAL rows (salted
  runs — ``query/segments_io.py``): runs are disjoint ascending doc-id
  ranges presented as one flat block sequence.  The merged segment
  file therefore simply contains every input's rows for the term,
  sorted by (term, first block doc id) — a term that exists in k
  inputs has k rows, exactly like a salted heavy term;
* shifting a row's encoded ids by a constant only changes each
  block's FIRST varint (blocks restart delta-encoding at an absolute
  doc id — ``functions/codec.py``); intra-block deltas are invariant.
  The merge patches those varints byte-level and adds the shift to
  ``block_last``; ``tfs_enc``, ``block_max_tf``, ``block_min_dl``,
  ``df``/``cf`` are untouched.  No per-posting ``dl`` is ever needed,
  so the O(n_docs) driver-side dl map of the naive design disappears;
* per reduce partition ``k``, a merge task collects each input's home
  rows (including a heavy term's salted runs from their ``(part + r)
  % P`` files), patches, concatenates, sorts by (term, first block doc
  id) and writes the output segment file atomically — one parallel
  ``ray.remote`` round;
* the merged index is **unsalted on disk** (a term's runs live as
  multiple rows in its home partition, which the reader stitches),
  so merged manifests need no heavy-term routing;
* extra analyzer chains (D8 multi-field builds) merge the same way,
  per ``segments-<chain>/`` dir, and their stats carry into the
  merged manifest — a multi-field merge loses nothing;
* global stats are exact: N and token counts add; df adds per term
  (url sets are expected disjoint — the caller dedups across builds
  by using the delta pipeline's url filter);
* doclens concatenate with the shift (dl files are per-partition
  carrier sets).

Constraint: all inputs must share ``num_parts``, ``analyzer``,
``field``, ``block_size`` and the extra-chain set (checked).  BM25
scores after merge are identical to a from-scratch build over the
union corpus — same postings, same stats; only block *boundaries*
differ, which affects WAND skipping, never scores (tested — ranks
compared by url since doc ids differ).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.codec import varint_encode_with_lengths
from ..stages.tokenize import term_part
from . import manifest as mf
from .segments import (
    SEGMENT_LAYOUT,
    SEGMENT_SCHEMA,
    SegmentFile,
    _concat_ranges,
    _list_parts,
    _offsets,
    check_layout,
    doclen_path,
    read_segment,
    segment_path,
    write_segment,
)

__all__ = ["merge_many"]


def _load_home_rows(seg_dir: str, stats: dict, k: int) -> pa.Table | None:
    """One input's segment rows whose home partition is ``k`` — the
    rows in file k plus salted runs of k's heavy terms found in files
    ``(k + r) % P`` (and *minus* other terms' salted runs parked in
    file k).  Only heavy terms ever leave their home file
    (``stages/tokenize.py``), so rows are routed by heavy-set
    membership and ``term_part`` runs on the heavy terms alone."""
    num_parts = int(stats["num_parts"])
    heavy = stats.get("heavy_terms", ())
    n_salt = int(stats.get("n_salt_runs", 1))
    home = [term_part(x, num_parts) for x in heavy]
    mine = pa.array([x for x, h in zip(heavy, home) if h == k], pa.string())
    others = pa.array([x for x, h in zip(heavy, home) if h != k], pa.string())
    candidates = (
        sorted({(k + r) % num_parts for r in range(n_salt)}) if len(mine) else [k]
    )
    tabs = []
    for rp in candidates:
        path = segment_path(seg_dir, rp)
        if not os.path.exists(path):
            continue
        t = read_segment(path)
        if rp != k:
            t = t.filter(pc.is_in(t["term"], value_set=mine))
        elif len(others):
            t = t.filter(pc.invert(pc.is_in(t["term"], value_set=others)))
        if t.num_rows:
            tabs.append(t)
    if not tabs:
        return None
    return pa.concat_tables(tabs)


def _shift_rows(t: pa.Table, shift: int, k: int) -> pa.Table:
    """Patch one input's rows to the merged id space (see module doc).

    Vectorized over every block of every row: the blocks' first
    varints are decoded in at most 10 byte-position passes, re-encoded
    shifted in one ``varint_encode_with_lengths`` call, and gathered
    with each block's verbatim tail into one output buffer."""
    n = t.num_rows
    t = t.set_column(
        t.schema.get_field_index("rpart"),
        "rpart",
        pa.array(np.full(n, k, np.int32), pa.int32()),
    )
    if shift == 0:
        return t
    enc = t["doc_ids_enc"].combine_chunks()
    _, row_off, data = enc.buffers()
    row_off = np.frombuffer(row_off, np.int32)[enc.offset : enc.offset + n + 1]
    data = np.frombuffer(data or b"", np.uint8)
    # a row's ``block_id_offsets`` are its blocks' starts plus its end,
    # so entry j of row i is the start of block j - i (or row i's end)
    lo, ent = _list_parts(t["block_id_offsets"])
    ent = ent.astype(np.int64)
    row_of = np.repeat(np.arange(n), np.diff(lo))
    blk_lo = lo - np.arange(n + 1)
    opens = np.ones(len(ent), bool)
    opens[lo[1:] - 1] = False
    start = row_off[row_of[opens]] + ent[opens]
    size = np.diff(ent)[opens[:-1]]

    first = np.zeros(len(start), np.uint64)
    old_len = np.zeros(len(start), np.int64)
    live = np.arange(len(start))
    for pos in range(10):
        if not len(live):
            break
        byte = data[start[live] + pos]
        first[live] |= (byte & 0x7F).astype(np.uint64) << np.uint64(7 * pos)
        done = byte < 0x80
        old_len[live[done]] = pos + 1
        live = live[~done]
    new_enc, new_len = varint_encode_with_lengths(first + np.uint64(shift))
    tail = size - old_len

    # output = per block, its new varint then its tail; both are byte
    # ranges of ``data + new_enc``
    src = np.concatenate((data, np.frombuffer(new_enc, np.uint8)))
    varint_at = len(data) + _offsets(new_len)[:-1]
    out = src[
        _concat_ranges(
            np.column_stack((varint_at, start + old_len)).ravel(),
            np.column_stack((new_len, tail)).ravel(),
        )
    ]
    cum = _offsets(new_len + tail)
    new_row_off = cum[blk_lo]
    new_ent = cum[np.arange(len(ent)) - row_of] - new_row_off[row_of]

    bl_off, bl = _list_parts(t["block_last"])
    for name, col in (
        (
            "doc_ids_enc",
            pa.Array.from_buffers(
                pa.binary(),
                n,
                [None, pa.py_buffer(new_row_off.astype(np.int32)), pa.py_buffer(out)],
            ),
        ),
        (
            "block_id_offsets",
            pa.ListArray.from_arrays(
                pa.array(lo, pa.int32()), pa.array(new_ent, pa.uint32())
            ),
        ),
        (
            "block_last",
            pa.ListArray.from_arrays(
                pa.array(bl_off, pa.int32()), pa.array(bl + np.uint64(shift))
            ),
        ),
    ):
        t = t.set_column(t.schema.get_field_index(name), name, col)
    return t


def _merge_part(inputs: list[dict], k: int, out_seg_dir: str) -> dict:
    """Task: merge partition ``k`` of all inputs (segment + dl file).

    ``inputs``: per input ``{seg_dir, stats, shift}`` in merge order.
    """
    seg_file = segment_path(out_seg_dir, k)
    dl_file = doclen_path(out_seg_dir, k)
    if not (os.path.exists(seg_file) and os.path.exists(dl_file)):  # resume skip
        tabs = []
        for inp in inputs:
            t = _load_home_rows(inp["seg_dir"], inp["stats"], k)
            if t is not None:
                tabs.append(_shift_rows(t, inp["shift"], k))
        if tabs:
            merged = pa.concat_tables(tabs)
            # (term, first block doc id); UTF-8 byte order is code-point
            # order, the sort is stable, and a row without blocks sorts
            # as first id 0
            bl_off, bl = _list_parts(merged["block_last"])
            has = np.diff(bl_off) > 0
            firsts = np.zeros(merged.num_rows, np.uint64)
            firsts[has] = bl[bl_off[:-1][has]]
            order = pc.sort_indices(
                pa.table({"term": merged["term"], "first": firsts}),
                sort_keys=[("term", "ascending"), ("first", "ascending")],
            )
            merged = merged.take(order)
        else:
            merged = SEGMENT_SCHEMA.empty_table()
        write_segment(merged, seg_file)

        dl_tabs = []
        for inp in inputs:
            path = doclen_path(inp["seg_dir"], k)
            if not os.path.exists(path):
                continue
            td = pq.read_table(path)
            if inp["shift"]:
                td = pa.table(
                    {
                        "doc_id": pa.array(
                            td["doc_id"].to_numpy() + np.uint64(inp["shift"]),
                            pa.uint64(),
                        ),
                        "dl": td["dl"],
                    }
                )
            dl_tabs.append(td)
        dlt = (
            pa.concat_tables(dl_tabs)
            if dl_tabs
            else pa.table(
                {"doc_id": pa.array([], pa.uint64()), "dl": pa.array([], pa.uint32())}
            )
        )
        tmp = dl_file + f".tmp-{os.getpid()}"
        pq.write_table(dlt, tmp, compression="zstd")
        os.replace(tmp, dl_file)

    return {"rpart": k, "n_terms": SegmentFile(seg_file).num_rows}


def _chain_stats(stats_list: list[dict]) -> dict:
    tot = sum(int(s.get("total_tokens", 0)) for s in stats_list)
    nwt = sum(int(s.get("n_docs_with_terms", 0)) for s in stats_list)
    return {
        "n_docs_with_terms": nwt,
        "total_tokens": tot,
        "avgdl": tot / nwt if nwt else 0.0,
        "heavy_terms": [],
        "n_salt_runs": 1,
        "run_width": 1 << 60,
    }


def merge_many(
    index_dirs: list[str],
    out_root: str,
    *,
    prefix: str = "docs",
    fingerprint: str | None = None,
    publish: bool = True,
    carry_deletes: bool = False,
):
    """Single-pass k-way merge of published builds; returns the merged
    manifest dict.  Each partition is merged by one task reading the
    partition's rows from every input once — no left-fold re-encode.

    ``carry_deletes=False`` (the compaction-intent default) REFUSES
    inputs with live tombstones; ``carry_deletes=True`` carries them
    forward instead — a merge only SHIFTS ids (never compacts holes),
    so each input's tombstoned ids map to ``id + shift`` exactly, and
    their union becomes the merged build's ``deletes.parquet``
    (Lucene keeps deleted docs across merges the same way until a
    rewrite reclaims them).  The serving write path uses this so
    ``_bulk`` keeps working after a ``_delete_by_query``."""
    import ray

    if len(index_dirs) < 2:
        raise ValueError("merge_many needs >= 2 indexes")
    dirs = [mf.current_build(d) or d for d in index_dirs]
    mans = [mf.read_manifest(d) for d in dirs]
    for d, m in zip(dirs, mans):
        check_layout(d, m)
    from .deletes import load_delete_ids

    input_deletes = [load_delete_ids(d) for d in dirs]
    if not carry_deletes:
        for d, dels in zip(dirs, input_deletes):
            if len(dels):
                raise ValueError(
                    f"input {d} has live tombstones (deletes.parquet): a merge "
                    "re-ids docs densely, so soft deletes must be compacted "
                    "first — rebuild from the filtered source, then merge "
                    "(or pass carry_deletes=True to shift them forward)"
                )
    for key in ("num_parts", "analyzer", "field", "block_size", "store_positions"):
        vals = {str(m.get(key, False if key == "store_positions" else None)) for m in mans}
        if len(vals) > 1:
            raise ValueError(f"merge inputs disagree on {key}: {sorted(vals)}")
    store_positions = bool(mans[0].get("store_positions", False))
    chain_sets = {tuple(sorted(m.get("chains", {}))) for m in mans}
    if len(chain_sets) > 1:
        raise ValueError(
            f"merge inputs disagree on extra chains: {sorted(chain_sets)}"
        )
    extra_chains = sorted(next(iter(chain_sets)))
    num_parts = int(mans[0]["num_parts"])

    if fingerprint is None:
        # hash the FULL concatenation — truncating the concatenation
        # itself collides for >8 inputs sharing a prefix, and the
        # resume-skip in _merge_part would then silently reuse another
        # merge's segment files
        import hashlib

        cat = "\0".join(m["fingerprint"] for m in mans)
        fingerprint = "m" + hashlib.sha1(cat.encode()).hexdigest()[:16]
    bdir = mf.build_dir(out_root, prefix, fingerprint)

    shifts = []
    acc = 0
    for m in mans:
        shifts.append(acc)
        acc += int(m["n_docs"])
    n_total = acc

    merge_task = ray.remote(num_cpus=1)(_merge_part)
    chains_out: dict[str, dict] = {}
    for chain_name in [None, *extra_chains]:
        seg_name = "segments" if chain_name is None else f"segments-{chain_name}"
        out_seg = os.path.join(bdir, seg_name)
        os.makedirs(out_seg, exist_ok=True)
        inputs = []
        for d, m, s in zip(dirs, mans, shifts):
            stats = m if chain_name is None else m["chains"][chain_name]
            stats = {**stats, "num_parts": num_parts}
            inputs.append(
                {"seg_dir": os.path.join(d, seg_name), "stats": stats, "shift": s}
            )
        inputs_ref = ray.put(inputs)
        ray.get([merge_task.remote(inputs_ref, k, out_seg) for k in range(num_parts)])
        if chain_name is not None:
            chains_out[chain_name] = _chain_stats(
                [m["chains"][chain_name] for m in mans]
            )

    # merged docs store: hardlink the first input's partitions (shift
    # 0), rewrite the rest with shifted ids — one task per
    # (input, docpart), mirroring the segment round above.  The driver
    # only lists directories; all corpus-scale bytes move in workers.
    docs_dir = os.path.join(bdir, "docs")
    os.makedirs(docs_dir, exist_ok=True)
    copy_task = ray.remote(num_cpus=1)(_copy_docpart)
    jobs = []
    part_off = 0
    for d, s in zip(dirs, shifts):
        src = os.path.join(d, "docs")
        parts = sorted(x for x in os.listdir(src) if x.startswith("docpart="))
        for pd in parts:
            k = int(pd.split("=")[1]) + part_off
            jobs.append(
                copy_task.remote(
                    os.path.join(src, pd), os.path.join(docs_dir, f"docpart={k}"), s
                )
            )
        part_off += len(parts)
    ray.get(jobs)

    # vector sidecars ride along: knn/hybrid keep serving on the merged
    # build instead of silently dying after an incremental update
    from .vectors import carry_sidecars

    carry_sidecars(dirs, shifts, n_total, bdir)

    man = {
        **{
            k: mans[0][k]
            for k in (
                "prefix",
                "field",
                "analyzer",
                "num_parts",
                "block_size",
                "bm25_k1",
                "bm25_b",
            )
        },
        "store_positions": store_positions,
        "segment_layout": SEGMENT_LAYOUT,
        "fingerprint": fingerprint,
        "n_docs": n_total,
        **_chain_stats(mans),
        "chains": chains_out,
        "merged_from": [m["fingerprint"] for m in mans],
        "partitions": [],
    }
    if carry_deletes:
        shifted = [
            dels.astype(np.int64) + s
            for dels, s in zip(input_deletes, shifts)
            if len(dels)
        ]
        if shifted:
            from .deletes import DELETES_FILE

            merged_dels = np.unique(np.concatenate(shifted))
            tmp = os.path.join(bdir, DELETES_FILE + f".tmp-{os.getpid()}")
            pq.write_table(
                pa.table({"doc_id": pa.array(merged_dels, pa.int64())}),
                tmp,
                compression="zstd",
            )
            os.replace(tmp, os.path.join(bdir, DELETES_FILE))
    mf.write_manifest(bdir, man)
    if publish:
        mf.publish(out_root, f"{prefix}-{fingerprint}")
    return man


def _copy_docpart(src_dir: str, out_dir: str, id_offset: int) -> int:
    """Task body: copy ONE input docpart directory into the merged docs
    store — hardlink fast-path for shift 0, id-shift rewrite otherwise.
    Atomic per file (tmp + replace); existing outputs are a resume skip."""
    import shutil

    os.makedirs(out_dir, exist_ok=True)
    n = 0
    for f in sorted(os.listdir(src_dir)):
        src_f = os.path.join(src_dir, f)
        dst_f = os.path.join(out_dir, f)
        if os.path.exists(dst_f):
            continue
        if id_offset == 0:
            try:
                os.link(src_f, dst_f)
            except OSError:
                shutil.copy2(src_f, dst_f)
        else:
            t = pq.read_table(src_f)
            idx = t.schema.get_field_index("doc_id")
            t = t.set_column(
                idx,
                "doc_id",
                pa.array(t["doc_id"].to_numpy() + np.uint64(id_offset), pa.uint64()),
            )
            tmp = dst_f + f".tmp-{os.getpid()}"
            pq.write_table(t, tmp, compression="zstd")
            os.replace(tmp, dst_f)
        n += 1
    return n
