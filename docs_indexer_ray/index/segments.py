"""Per-partition segment encoding and atomic segment-file writes.

One reducer group (= one ``rpart`` from the postings shuffle,
``stages/tokenize.py``) becomes one **segment file**
``seg-{rpart:05d}.parquet`` holding every term of that partition as one
row of delta+varint-encoded postings with per-block skip metadata
(``functions/codec.py``), rows sorted by ``term`` so Parquet row-group
statistics prune term lookups at query time.

This replaces Lucene's segment write that the reference delegated to
OpenSearch (``/root/reference/mappings/hugo.json`` — D4 of SURVEY §2.2).
Differences are deliberate: Parquet instead of a custom container (free
compression, statistics, predicate pushdown, splittable reads), and one
segment per shuffle partition instead of per-writer-flush (no
background merges needed — the shuffle already globally groups terms).

Writes are **atomic + resumable**: encode to ``<name>.tmp-<pid>``, then
``os.replace`` onto the final name; a rerun skips groups whose segment
file already exists (per-partition lineage lives in the manifest).

Doc lengths: the tokenizer marks exactly one posting row per document
as the *dl-carrier* (``dlc``); each group writes its carriers to
``dl-{rpart:05d}.parquet`` so the union of the dl files holds each
``(doc_id, dl)`` exactly once with no extra shuffle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.codec import encode_postings

__all__ = [
    "encode_spill_files",
    "SEGMENT_SCHEMA",
    "segment_path",
    "doclen_path",
]

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("rpart", pa.int32()),
        ("df", pa.uint64()),
        ("cf", pa.uint64()),
        ("doc_ids_enc", pa.binary()),
        ("tfs_enc", pa.binary()),
        ("block_last", pa.list_(pa.uint64())),
        ("block_id_offsets", pa.list_(pa.uint32())),
        ("block_tf_offsets", pa.list_(pa.uint32())),
        ("block_max_tf", pa.list_(pa.uint32())),
        ("block_min_dl", pa.list_(pa.uint32())),
        ("max_tf", pa.uint32()),
        ("min_dl", pa.uint32()),
    ]
)

# positions variant (build flag store_positions — the reference's
# "term_vector": "with_positions_offsets", mappings/hugo.json:6,48,60)
SEGMENT_SCHEMA_POS = SEGMENT_SCHEMA.append(
    pa.field("pos_enc", pa.binary())
).append(pa.field("block_pos_offsets", pa.list_(pa.uint32())))


def segment_path(seg_dir: str, rpart: int) -> str:
    return os.path.join(seg_dir, f"seg-{rpart:05d}.parquet")


def doclen_path(seg_dir: str, rpart: int) -> str:
    return os.path.join(seg_dir, f"dl-{rpart:05d}.parquet")


def _atomic_write(table: pa.Table, path: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(table, tmp, compression="zstd")
    os.replace(tmp, path)


def _list_array(flat: np.ndarray, counts: np.ndarray, typ) -> pa.ListArray:
    offs = np.zeros(len(counts) + 1, np.int32)
    np.cumsum(counts, out=offs[1:])
    return pa.ListArray.from_arrays(pa.array(offs), pa.array(flat, typ))


def _binary_from_partition(data: bytes, boundaries: np.ndarray) -> pa.Array:
    """Binary array whose row i is ``data[boundaries[i]:boundaries[i+1]]``
    — rows partition the buffer contiguously, so this is zero-copy:
    one int32 offsets buffer over the encoded stream itself."""
    if len(data) > (1 << 31) - 1:
        # Arrow binary() carries int32 offsets; a >2 GB encoded
        # partition means num_parts is sized far too small for the
        # corpus — fail with the remedy rather than overflow silently
        raise ValueError(
            f"encoded posting stream is {len(data)} bytes (> 2 GB) in one "
            "partition — increase build_index(num_parts=...) so partitions "
            "shrink"
        )
    offs = boundaries.astype(np.int32)
    return pa.Array.from_buffers(
        pa.binary(),
        len(boundaries) - 1,
        [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(data)],
    )


def encode_partition_codes(
    codes: np.ndarray,
    sorted_terms: np.ndarray,
    doc_id: np.ndarray,
    tf: np.ndarray,
    dl: np.ndarray,
    rpart: int,
    block_size: int = 128,
    positions: np.ndarray | None = None,
) -> pa.Table:
    """Fully vectorized encode of one partition's postings → segment
    rows: ONE varint pass over all doc-id deltas and one over all tfs
    (block/term boundaries computed with numpy index arithmetic), then
    columnar slicing into per-term rows — no Python loop over terms.

    ``codes`` are ranks into lexicographically ``sorted_terms``.
    ``positions`` (object array of per-posting position lists, aligned
    with ``doc_id``) adds the position streams of the SCHEMA_POS
    variant via the (looped) reference encoder — the positions build
    is opt-in and not the hot path.
    """
    from ..functions.codec import (
        encode_positions,
        varint_encode_with_lengths,
    )

    order = np.lexsort((doc_id, codes))
    codes, doc_id, tf, dl = codes[order], doc_id[order], tf[order], dl[order]
    if positions is not None:
        positions = positions[order]
    n = len(codes)
    # term run boundaries
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(codes[1:], codes[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    lengths = ends - starts
    n_terms = len(starts)

    if positions is not None:
        # reference (per-term) path for the positions variant
        rows = {name: [] for name in SEGMENT_SCHEMA_POS.names}
        term = sorted_terms[codes]
        for s, e in zip(starts, ends):
            enc = encode_postings(doc_id[s:e], tf[s:e], dl[s:e], block_size)
            rows["term"].append(term[s])
            rows["rpart"].append(rpart)
            for name in (
                "df", "cf", "doc_ids_enc", "tfs_enc", "block_last",
                "block_id_offsets", "block_tf_offsets", "block_max_tf",
                "block_min_dl", "max_tf", "min_dl",
            ):
                rows[name].append(enc[name])
            pos_enc, pos_offs = encode_positions(list(positions[s:e]), block_size)
            rows["pos_enc"].append(pos_enc)
            rows["block_pos_offsets"].append(pos_offs)
        return pa.Table.from_pydict(rows, schema=SEGMENT_SCHEMA_POS)

    # ---- block structure (per term, blocks of block_size postings) ----
    pos_in_term = np.arange(n, dtype=np.int64) - np.repeat(starts, lengths)
    is_bstart = (pos_in_term % block_size) == 0
    B = np.flatnonzero(is_bstart)  # global block start indices
    block_end = np.append(B[1:], n) - 1
    nb = -(-lengths // block_size)  # blocks per term (ceil)
    total_blocks = len(B)

    # ---- one varint pass for ids (delta, absolute restart per block) --
    deltas = np.empty(n, np.uint64)
    deltas[0] = doc_id[0]
    np.subtract(doc_id[1:], doc_id[:-1], out=deltas[1:])
    deltas[B] = doc_id[B]
    id_bytes, id_lens = varint_encode_with_lengths(deltas)
    id_off = np.zeros(n + 1, np.int64)
    np.cumsum(id_lens, out=id_off[1:])

    tf64 = tf.astype(np.uint64)
    tf_bytes, tf_lens = varint_encode_with_lengths(tf64)
    tf_off = np.zeros(n + 1, np.int64)
    np.cumsum(tf_lens, out=tf_off[1:])

    # ---- per-block metadata (vectorized reduceat over block runs) -----
    block_last = doc_id[block_end].astype(np.uint64)
    block_max_tf = np.maximum.reduceat(tf, B).astype(np.uint32)
    block_min_dl = np.minimum.reduceat(dl, B).astype(np.uint32)

    # ---- per-term scalars ---------------------------------------------
    df = lengths.astype(np.uint64)
    cf = np.add.reduceat(tf64, starts).astype(np.uint64)
    term_first_block = np.zeros(n_terms, np.int64)
    np.cumsum(nb[:-1], out=term_first_block[1:])
    max_tf = np.maximum.reduceat(block_max_tf, term_first_block).astype(np.uint32)
    min_dl = np.minimum.reduceat(block_min_dl, term_first_block).astype(np.uint32)

    # ---- per-term byte offsets lists (n_blocks + 1 entries each) ------
    def offset_lists(global_off: np.ndarray) -> pa.ListArray:
        term_base = np.repeat(global_off[starts], nb)
        run_len = global_off[ends] - global_off[starts]
        if run_len.max(initial=0) > 0xFFFFFFFF:
            raise ValueError(
                f"encoded posting run exceeds the uint32 block-offset budget "
                f"({int(run_len.max())} bytes): split the term run across "
                "more partitions/salt"
            )
        block_vals = (global_off[B] - term_base).astype(np.uint32)
        list_offs = np.zeros(n_terms + 1, np.int64)
        np.cumsum(nb + 1, out=list_offs[1:])
        vals = np.empty(int(list_offs[-1]), np.uint32)
        slot = np.arange(total_blocks, dtype=np.int64) + np.repeat(
            np.arange(n_terms, dtype=np.int64), nb
        )
        vals[slot] = block_vals
        vals[list_offs[1:] - 1] = (global_off[ends] - global_off[starts]).astype(
            np.uint32
        )
        return pa.ListArray.from_arrays(
            pa.array(list_offs.astype(np.int32)), pa.array(vals, pa.uint32())
        )

    cols = {
        "term": pa.array(sorted_terms[codes[starts]].tolist(), pa.string()),
        "rpart": pa.array(np.full(n_terms, rpart, np.int32), pa.int32()),
        "df": pa.array(df, pa.uint64()),
        "cf": pa.array(cf, pa.uint64()),
        "doc_ids_enc": _binary_from_partition(id_bytes, id_off[np.append(starts, n)]),
        "tfs_enc": _binary_from_partition(tf_bytes, tf_off[np.append(starts, n)]),
        "block_last": _list_array(block_last, nb, pa.uint64()),
        "block_id_offsets": offset_lists(id_off),
        "block_tf_offsets": offset_lists(tf_off),
        "block_max_tf": _list_array(block_max_tf, nb, pa.uint32()),
        "block_min_dl": _list_array(block_min_dl, nb, pa.uint32()),
        "max_tf": pa.array(max_tf, pa.uint32()),
        "min_dl": pa.array(min_dl, pa.uint32()),
    }
    return pa.Table.from_pydict(cols, schema=SEGMENT_SCHEMA)


def encode_spill_files(
    seg_dir: str,
    block_size: int,
    rpart: int,
    spill_files: list[str],
) -> dict:
    """Reduce task: encode one shuffle partition from an explicit
    lineage file list → one segment file + one dl file.

    Reading ONLY the just-written lineage files (not the spill
    directory) makes resumed builds immune to stale content-named
    spill files from an earlier crashed attempt with different batch
    boundaries (those would silently double-count postings), and turns
    a non-shared ``scratch_dir`` on multi-node clusters into a loud
    ``FileNotFoundError`` instead of silently missing rows.

    Returns the partition's lineage record incl. ``dl_sum``/``dl_n``
    so the build's global stats need no extra driver-side dl scan.
    Arrow-native: term strings stay dictionary-encoded; sorting uses
    integer dictionary ranks (an object-dtype lexsort over hundreds of
    thousands of strings dominates the reduce otherwise).
    """
    import time as _time

    import pyarrow.compute as _pc
    import pyarrow.dataset as pads

    _t0 = _time.time()
    seg_file = segment_path(seg_dir, rpart)
    dl_file = doclen_path(seg_dir, rpart)
    if os.path.exists(seg_file) and os.path.exists(dl_file):
        meta = pq.read_metadata(seg_file)
        dlt = pq.read_table(dl_file, columns=["dl"])
        return {
            "rpart": rpart,
            "n_terms": meta.num_rows,
            "n_postings": -1,
            "bytes": os.path.getsize(seg_file),
            "resumed": True,
            "dl_sum": int(_pc.sum(dlt["dl"]).as_py() or 0),
            "dl_n": dlt.num_rows,
            "wall_s": round(_time.time() - _t0, 3),
        }

    missing = [f for f in spill_files if not os.path.exists(f)]
    if missing:
        raise FileNotFoundError(
            f"spill files missing for rpart {rpart}: {missing[:3]}… — "
            "scratch_dir must be on storage shared between map and reduce "
            "tasks (shared FS, or node-local only on a single node)"
        )
    dset = pads.dataset(spill_files, format="parquet")
    has_pos = "pos" in dset.schema.names
    cols = ["term", "doc_id", "tf", "dl", "dlc"] + (["pos"] if has_pos else [])
    t = dset.to_table(filter=pads.field("rpart") == rpart, columns=cols)
    if t.num_rows == 0:
        return {
            "rpart": rpart,
            "n_terms": 0,
            "n_postings": 0,
            "bytes": 0,
            "resumed": False,
            "dl_sum": 0,
            "dl_n": 0,
            "wall_s": round(_time.time() - _t0, 3),
        }
    term_dict = _pc.dictionary_encode(t["term"].cast(pa.string()).combine_chunks())
    uniq = np.asarray(term_dict.dictionary.to_pylist(), dtype=object)
    codes = term_dict.indices.to_numpy(zero_copy_only=False)
    rank_of = np.empty(len(uniq), np.int64)
    order_terms = np.argsort(uniq)
    rank_of[order_terms] = np.arange(len(uniq))
    sorted_uniq = uniq[order_terms]

    positions = None
    if has_pos:
        positions = np.empty(t.num_rows, dtype=object)
        positions[:] = [np.asarray(p, np.uint64) for p in t["pos"].to_pylist()]
    seg = encode_partition_codes(
        rank_of[codes],
        sorted_uniq,
        t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
        t["tf"].to_numpy(zero_copy_only=False).astype(np.uint64),
        t["dl"].to_numpy(zero_copy_only=False).astype(np.uint64),
        rpart,
        block_size,
        positions=positions,
    )
    _atomic_write(seg, seg_file)

    dlc = t["dlc"].to_numpy(zero_copy_only=False)
    dls = t["dl"].to_numpy(zero_copy_only=False)[dlc].astype(np.uint32)
    dl_tbl = pa.table(
        {
            "doc_id": pa.array(
                t["doc_id"].to_numpy(zero_copy_only=False)[dlc].astype(np.uint64),
                pa.uint64(),
            ),
            "dl": pa.array(dls, pa.uint32()),
        }
    )
    _atomic_write(dl_tbl, dl_file)

    return {
        "rpart": rpart,
        "n_terms": seg.num_rows,
        "n_postings": int(t.num_rows),
        "bytes": os.path.getsize(seg_file),
        "resumed": False,
        "dl_sum": int(dls.sum()),
        "dl_n": int(len(dls)),
        "wall_s": round(_time.time() - _t0, 3),
    }
