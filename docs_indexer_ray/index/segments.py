"""Per-partition segment encoding and the packed postings file format.

One reducer group (= one ``rpart`` from the postings shuffle,
``stages/tokenize.py``) becomes one **segment file**
``seg-{rpart:05d}.postings`` holding every term of that partition as
delta+varint-encoded postings with per-block skip metadata
(``functions/codec.py``), in term order.

This replaces Lucene's segment write that the reference delegated to
OpenSearch (the reference's ``mappings/hugo.json`` — D4 of SURVEY §2.2),
with one segment per shuffle partition instead of per-writer-flush (no
background merges needed — the shuffle already globally groups terms).

**File layout** (:func:`write_segment` / :func:`read_segment`, point
lookups through :class:`SegmentFile`).  A segment row — one term run,
``SEGMENT_SCHEMA`` — is one varint *record*: a header (the block count,
``df``, ``cf``, the stream lengths, then the per-block ``block_last``
(delta-coded), ``block_max_tf`` and ``block_min_dl`` and each stream's
inner block offsets), then ``doc_ids_enc``, ``tfs_enc`` and, in a
positions build, ``pos_enc``.  What a row implies is not stored: the
first offset (0), the last (the stream length), ``max_tf``/``min_dl``
(the block maxima) and ``rpart`` (one per file, in the footer);
:func:`write_segment` refuses rows that break these rules.  Records are
stored in term order in zstd blocks of about ``BLOCK_BYTES``
uncompressed bytes; a record is never split, and a record bigger than
the bound gets a block of its own.  Each block carries its own term
list.  A sparse index — each block's first term, byte offset and
whether it continues the previous block's last term — sits at the end
of the file before a fixed-size footer, and is loaded the first time a
reader touches the partition.  A cold term lookup is then one
positional read and one decompression per (term, salt run).

Why not Parquet (the layout before): every writer used one row group
per file, so a lookup read and decompressed the whole partition and
converted one row with ``.as_py()``.  Prototypes measured on the
600-url ``topk_longtail`` benchmark fixture (seed 5: 8 partitions of
~58 KB, ~2,900 terms each; 800 cold non-heavy terms, decoded postings
identical), and this layout as built (same fixture, same 800-term
protocol, one-core VM):

  ==============================================  ============  =========
  layout                                          cold lookup   bytes
  ==============================================  ============  =========
  Parquet, one row group (before)                 2.37–2.72 ms  1×
  Parquet, 256 / 64 / 16-row groups               0.97 / 0.87   ×1.9 /
                                                  / 0.83 ms     ×4.2 /
                                                                ×12.2
  zstd Arrow IPC blocks                           0.24–0.43 ms  +41–52%
  Parquet metadata + raw postings blob            0.19 ms       +44%
  packed varint records, ≤16 KB zstd blocks,      0.18–0.20 ms  −27%
  sparse index (this module)
  ==============================================  ============  =========

Writes are **atomic + resumable**: write ``<name>.tmp-<pid>``, then
``os.replace`` onto the final name; a rerun skips groups whose segment
file already exists (per-partition lineage lives in the manifest).
Readers open only exact segment names, never a ``*.tmp-<pid>``.

Doc lengths: the tokenizer marks exactly one posting row per document
as the *dl-carrier* (``dlc``); each group writes its carriers to
``dl-{rpart:05d}.parquet`` so the union of the dl files holds each
``(doc_id, dl)`` exactly once with no extra shuffle.
"""

from __future__ import annotations

import bisect
import os
import struct
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.codec import encode_postings, varint_decode, varint_encode_with_lengths

__all__ = [
    "encode_spill_files",
    "SEGMENT_SCHEMA",
    "SEGMENT_LAYOUT",
    "SegmentFile",
    "check_layout",
    "read_segment",
    "write_segment",
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

# the manifest's "segment_layout": readers refuse builds without it
SEGMENT_LAYOUT = "zstd-blocks-1"
# uncompressed bytes per block (Lucene's stored-fields chunks are ~16 KB)
BLOCK_BYTES = 16 << 10

_CODEC = pa.Codec("zstd", compression_level=3)
_MAGIC = b"DIXRPST1"
# index offset, index bytes, index raw bytes, blocks, rows, rpart,
# flags, magic
_FOOTER = struct.Struct("<QQQQQiI8s")
_HAS_POS = 1
# per-block lists of a record, in order: (column, dtype, delta-coded)
_BLOCK_LISTS = (
    ("block_last", np.uint64, True),
    ("block_max_tf", np.uint32, False),
    ("block_min_dl", np.uint32, False),
)
# (stream, its block offsets) — a record stores only the inner offsets
_STREAMS = (("doc_ids_enc", "block_id_offsets"), ("tfs_enc", "block_tf_offsets"))
_POS_STREAMS = _STREAMS + (("pos_enc", "block_pos_offsets"),)


def check_layout(bdir: str, manifest: dict) -> None:
    """Raise unless the build at ``bdir`` stores its postings in this
    module's layout — an older build's segment files have other names,
    and reading it would silently answer every term as absent."""
    if manifest.get("segment_layout") != SEGMENT_LAYOUT:
        raise ValueError(
            f"index build {bdir} has no {SEGMENT_LAYOUT!r} postings (its "
            "manifest records an older segment layout): rebuild it with "
            "build_index, or rewrite it with compact_index"
        )


def segment_path(seg_dir: str, rpart: int) -> str:
    return os.path.join(seg_dir, f"seg-{rpart:05d}.postings")


def doclen_path(seg_dir: str, rpart: int) -> str:
    return os.path.join(seg_dir, f"dl-{rpart:05d}.parquet")


def _atomic_write(table: pa.Table, path: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(table, tmp, compression="zstd")
    os.replace(tmp, path)


def _offsets(lens: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum with the total appended: ``len(lens) + 1``
    offsets of consecutive ranges of the given lengths."""
    return np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))


def _concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices ``starts[i] .. starts[i] + lens[i]`` of every range, in
    order — one gather builds a buffer from many byte ranges."""
    off = _offsets(lens)
    return np.repeat(starts - off[:-1], lens) + np.arange(off[-1])


def _list_parts(col) -> tuple[np.ndarray, np.ndarray]:
    """A list column's offsets (rebased to 0) and its flat values."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off = arr.offsets.to_numpy().astype(np.int64)
    return off - off[0], arr.flatten().to_numpy()


def _binary_parts(col) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A binary/string column's per-row value starts and lengths into
    its data buffer, and that buffer as uint8."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    _, offs, data = arr.buffers()[:3]
    offs = np.frombuffer(offs, np.int32)[arr.offset : arr.offset + len(arr) + 1]
    offs = offs.astype(np.int64)
    return offs[:-1], np.diff(offs), np.frombuffer(data or b"", np.uint8)


def _undelta(d: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-list prefix sums of consecutive lists of the given lengths
    (uint64 wrap-around makes delta + sum exact for any values)."""
    if not len(d):
        return d
    c = np.cumsum(d, dtype=np.uint64)
    lo = _offsets(lens)[:-1]
    prev = np.where(lo > 0, c[np.maximum(lo - 1, 0)], np.uint64(0))
    return c - np.repeat(prev.astype(np.uint64), lens)


def _delta(v: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_undelta`: each list's first value, then its
    successive differences."""
    v = v.astype(np.uint64)
    d = v.copy()
    d[1:] -= v[:-1]
    first = _offsets(lens)[:-1][lens > 0]
    d[first] = v[first]
    return d


def _header_counts(nb: np.ndarray, has_pos: bool) -> np.ndarray:
    """Varints in each record header: the scalars (``nb``, ``df``,
    ``cf``, one length per stream), ``max_tf``/``min_dl`` only when the
    row has no blocks (else they are the block maxima), the three
    per-block lists, and each stream's ``nb - 1`` inner block offsets
    (the first offset is 0 and the last the stream length)."""
    k = len(_POS_STREAMS if has_pos else _STREAMS)
    none = nb == 0
    return 3 + k + 2 * none + 3 * nb + k * (nb - 1 + none)


def _check_rows(table: pa.Table, has_pos: bool) -> None:
    """Refuse rows the compact record header cannot restore exactly:
    nulls, block lists of unequal length, offsets that do not run from
    0 to the stream length in ``nb + 1`` entries, ``max_tf``/``min_dl``
    other than the block maxima, more than one ``rpart``, and rows out
    of term order (the sparse index bisects first terms)."""
    for name in table.column_names:
        if table[name].null_count:
            raise ValueError(f"segment column {name!r} has nulls")
    lo, mtf = _list_parts(table["block_max_tf"])
    nb = np.diff(lo)
    bad = [c for c, _, _ in _BLOCK_LISTS if (np.diff(_list_parts(table[c])[0]) != nb).any()]
    for stream, offs in _POS_STREAMS if has_pos else _STREAMS:
        olo, flat = _list_parts(table[offs])
        _, slen, _ = _binary_parts(table[stream])
        if (
            (np.diff(olo) != nb + 1).any()
            or (flat[olo[:-1]] != 0).any()
            or (flat[olo[1:] - 1] != slen).any()
        ):
            bad.append(offs)
    has = nb > 0
    for col, red, flat in (
        ("max_tf", np.maximum, mtf),
        ("min_dl", np.minimum, _list_parts(table["block_min_dl"])[1]),
    ):
        want = red.reduceat(flat, lo[:-1][has]) if has.any() else flat[:0]
        if (table[col].to_numpy()[has] != want).any():
            bad.append(col)
    if len(pc.unique(table["rpart"])) > 1:
        bad.append("rpart")
    if bad:
        raise ValueError(f"segment rows are not in canonical form: {bad}")
    term = table["term"]
    if len(term) > 1 and not pc.all(pc.less_equal(term[:-1], term[1:])).as_py():
        raise ValueError("segment rows must be sorted by term")


def _encode_records(table: pa.Table, has_pos: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every row's record bytes, concatenated, and the record offsets —
    one varint pass over all header values of all rows, one gather."""
    streams = _POS_STREAMS if has_pos else _STREAMS
    parts = [_binary_parts(table[c]) for c, _ in streams]
    lo, _ = _list_parts(table["block_last"])
    nb = np.diff(lo)
    inner = np.maximum(nb - 1, 0)
    none = nb == 0
    hoff = _offsets(_header_counts(nb, has_pos))
    vals = np.empty(int(hoff[-1]), np.uint64)
    at = hoff[:-1]
    for v in [nb, table["df"].to_numpy(), table["cf"].to_numpy()] + [ln for _, ln, _ in parts]:
        vals[at] = v.astype(np.uint64)
        at = at + 1
    for c in ("max_tf", "min_dl"):
        vals[at[none]] = table[c].to_numpy()[none].astype(np.uint64)
        at = at + none
    for c, _, delta in _BLOCK_LISTS:
        flat = _list_parts(table[c])[1]
        vals[_concat_ranges(at, nb)] = _delta(flat, nb) if delta else flat
        at = at + nb
    for _, offs in streams:
        olo, flat = _list_parts(table[offs])
        flat = flat.astype(np.uint64)
        idx = _concat_ranges(olo[:-1] + 1, inner)
        vals[_concat_ranges(at, inner)] = flat[idx] - flat[idx - 1]
        at = at + inner
    hdr, vlen = varint_encode_with_lengths(vals)
    hlen = np.add.reduceat(vlen, hoff[:-1])
    # a record = header | streams: byte ranges of one source buffer,
    # gathered in record order
    srcs = [np.frombuffer(hdr, np.uint8)] + [data for _, _, data in parts]
    base = _offsets([len(x) for x in srcs])
    starts = [base[0] + _offsets(hlen)[:-1]] + [
        base[1 + i] + st for i, (st, _, _) in enumerate(parts)
    ]
    lens = [hlen] + [ln for _, ln, _ in parts]
    rec = np.concatenate(srcs)[
        _concat_ranges(np.column_stack(starts).ravel(), np.column_stack(lens).ravel())
    ]
    return rec, _offsets(np.sum(lens, axis=0))


def _pack_blocks(cost: np.ndarray) -> np.ndarray:
    """Greedy block starts: as many whole records as fit the byte
    bound, at least one — one ``searchsorted`` per block."""
    cum = _offsets(cost)
    starts = []
    s, n = 0, len(cost)
    while s < n:
        starts.append(s)
        e = int(np.searchsorted(cum, cum[s] + BLOCK_BYTES, side="right")) - 1
        s = max(e, s + 1)
    return np.asarray(starts + [n], np.int64)


def write_segment(table: pa.Table, path: str) -> None:
    """Write ``table`` (``SEGMENT_SCHEMA`` or ``SEGMENT_SCHEMA_POS``,
    rows in term order) as one packed postings file, atomically."""
    has_pos = "pos_enc" in table.column_names
    n = table.num_rows
    if n:
        _check_rows(table, has_pos)
        rec, roff = _encode_records(table, has_pos)
        t_start, t_len, t_data = _binary_parts(table["term"])
        t_data = t_data[_concat_ranges(t_start, t_len)]
    else:
        rec, roff = np.empty(0, np.uint8), np.zeros(1, np.int64)
        t_len, t_data = np.empty(0, np.int64), np.empty(0, np.uint8)
    toff = _offsets(t_len)
    bounds = _pack_blocks(np.diff(roff) + t_len + 8)  # + the two uint32 lengths
    firsts, lasts = bounds[:-1], bounds[1:] - 1
    cont = np.zeros(len(firsts), np.uint8)
    if len(firsts) > 1:
        term = table["term"]
        cont[1:] = pc.equal(term.take(firsts[1:]), term.take(lasts[:-1])).to_numpy(
            zero_copy_only=False
        )
    tmp = f"{path}.tmp-{os.getpid()}"
    file_offs, raw_lens = [0], []
    with open(tmp, "wb") as f:
        for s, e in zip(firsts, bounds[1:]):
            lens = np.concatenate(([e - s], t_len[s:e], np.diff(roff[s : e + 1])))
            raw = b"".join((
                lens.astype("<u4").tobytes(),
                t_data[toff[s] : toff[e]].tobytes(), rec[roff[s] : roff[e]].tobytes(),
            ))
            comp = _CODEC.compress(raw, asbytes=True)
            f.write(comp)
            file_offs.append(file_offs[-1] + len(comp))
            raw_lens.append(len(raw))
        ftoff = _offsets(t_len[firsts])
        index = b"".join((
            np.asarray(file_offs, "<u8").tobytes(),
            np.asarray(raw_lens, "<u4").tobytes(),
            ftoff.astype("<u4").tobytes(),
            cont.tobytes(),
            t_data[_concat_ranges(toff[firsts], t_len[firsts])].tobytes(),
        ))
        comp = _CODEC.compress(index, asbytes=True)
        f.write(comp)
        rpart = int(table["rpart"][0].as_py()) if n else 0
        f.write(_FOOTER.pack(
            file_offs[-1], len(comp), len(index), len(firsts), n, rpart,
            _HAS_POS if has_pos else 0, _MAGIC,
        ))
    os.replace(tmp, path)


def _read_footer(read, size: int, path: str) -> tuple:
    """``(index bytes, n_blocks, n_rows, rpart, has_pos)`` through
    ``read(n, offset)``; raises on a file that is not a packed postings
    file."""
    if size < _FOOTER.size:
        raise ValueError(f"{path}: not a packed postings file (too short)")
    i_off, i_len, i_raw, nblk, nrows, rpart, flags, magic = _FOOTER.unpack(
        read(_FOOTER.size, size - _FOOTER.size)
    )
    if magic != _MAGIC or i_off + i_len + _FOOTER.size != size:
        raise ValueError(f"{path}: not a packed postings file (bad footer)")
    index = _CODEC.decompress(read(i_len, i_off), i_raw, asbytes=True)
    return index, nblk, nrows, rpart, bool(flags & _HAS_POS)


def _split_index(index: bytes, nblk: int) -> tuple:
    """``(block file offsets, block raw lengths, continues flags,
    first-term offsets, first-term bytes)`` of a sparse index."""
    a = 8 * (nblk + 1)
    b = a + 4 * nblk
    c = b + 4 * (nblk + 1)
    return (
        np.frombuffer(index, "<u8", nblk + 1, 0).astype(np.int64),
        np.frombuffer(index, "<u4", nblk, a),
        np.frombuffer(index, np.uint8, nblk, c),
        np.frombuffer(index, "<u4", nblk + 1, b).astype(np.int64),
        index[c + nblk :],
    )


def _split_block(raw: bytes) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``(term offsets, record offsets, term area start, record area
    start)`` of one decompressed block: a uint32 row count ``n``, the
    ``n`` term lengths and the ``n`` record lengths as uint32, the
    terms, the records."""
    n = int.from_bytes(raw[:4], "little")
    lens = np.frombuffer(raw, "<u4", 2 * n, 4)
    toff, roff = _offsets(lens[:n]), _offsets(lens[n:])
    t0 = 4 + 8 * n
    return toff, roff, t0, t0 + int(toff[-1])


def _varint_at(buf: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The varint starting at each of ``starts`` — at most 10
    byte-position passes over all of them at once."""
    val = np.zeros(len(starts), np.uint64)
    live = np.arange(len(starts))
    for pos in range(10):
        if not len(live):
            break
        byte = buf[starts[live] + pos]
        val[live] |= (byte & 0x7F).astype(np.uint64) << np.uint64(7 * pos)
        live = live[byte >= 0x80]
    return val


def read_segment(path: str, columns: list[str] | None = None) -> pa.Table:
    """A whole packed postings file as a ``SEGMENT_SCHEMA`` (or
    ``SEGMENT_SCHEMA_POS``) table — per block and per column, no loop
    over terms.  ``columns`` selects (and skips building) columns."""
    with open(path, "rb") as f:
        data = f.read()
    index, nblk, n, rpart, has_pos = _read_footer(
        lambda k, o: data[o : o + k], len(data), path
    )
    schema = SEGMENT_SCHEMA_POS if has_pos else SEGMENT_SCHEMA
    names = schema.names if columns is None else list(columns)
    if n == 0:
        return schema.empty_table().select(names)
    foff, raw_len, _, _, _ = _split_index(index, nblk)
    term_parts, toffs, rec_parts, roffs = [], [], [], []
    tbase = rbase = 0
    for b in range(nblk):
        raw = _CODEC.decompress(data[foff[b] : foff[b + 1]], int(raw_len[b]), asbytes=True)
        to, ro, t0, r0 = _split_block(raw)
        term_parts.append(raw[t0:r0])
        rec_parts.append(raw[r0:])
        toffs.append(to[:-1] + tbase)
        roffs.append(ro[:-1] + rbase)
        tbase += int(to[-1])
        rbase += int(ro[-1])
    toff = np.concatenate(toffs + [[tbase]])
    rs = np.concatenate(roffs)
    rec = np.frombuffer(b"".join(rec_parts), np.uint8)

    # header = the first _header_counts(nb) varints of a record: find
    # the byte after its last varint by counting terminator bytes
    nb = _varint_at(rec, rs).astype(np.int64)
    hc = _header_counts(nb, has_pos)
    ends = np.cumsum(rec < 0x80)
    before = np.where(rs > 0, ends[np.maximum(rs - 1, 0)], 0)
    hlen = np.searchsorted(ends, before + hc) + 1 - rs
    vals = varint_decode(rec[_concat_ranges(rs, hlen)])
    at = _offsets(hc)[:-1] + 1
    streams = _POS_STREAMS if has_pos else _STREAMS
    sc = {}
    for c in ["df", "cf"] + [c for c, _ in streams]:
        sc[c] = vals[at]
        at = at + 1
    none = nb == 0
    for c in ("max_tf", "min_dl"):
        sc[c] = np.zeros(n, np.uint64)
        sc[c][none] = vals[at[none]]
        at = at + none
    lists = {}  # column -> (flat values, per-row lengths)
    for c, dtype, delta in _BLOCK_LISTS:
        flat = vals[_concat_ranges(at, nb)]
        lists[c] = ((_undelta(flat, nb) if delta else flat).astype(dtype), nb)
        at = at + nb
    has = ~none
    lo = _offsets(nb)[:-1][has]
    if len(lo):
        sc["max_tf"][has] = np.maximum.reduceat(lists["block_max_tf"][0], lo)
        sc["min_dl"][has] = np.minimum.reduceat(lists["block_min_dl"][0], lo)
    # offsets: 0, the nb - 1 stored inner offsets, the stream length
    inner = np.maximum(nb - 1, 0)
    olo = _offsets(nb + 1)
    for c, offs in streams:
        d = np.zeros(int(olo[-1]), np.uint64)
        d[_concat_ranges(olo[:-1] + 1, inner)] = vals[_concat_ranges(at, inner)]
        full = _undelta(d, nb + 1)
        full[(olo[1:] - 1)[has]] = sc[c][has]
        lists[offs] = (full.astype(np.uint32), nb + 1)
        at = at + inner

    cols: dict[str, pa.Array] = {}
    if "term" in names:
        cols["term"] = pa.Array.from_buffers(
            pa.string(), n,
            [None, pa.py_buffer(toff.astype(np.int32)), pa.py_buffer(b"".join(term_parts))],
        )
    if "rpart" in names:
        cols["rpart"] = pa.array(np.full(n, rpart, np.int32))
    for c, typ in (("df", pa.uint64()), ("cf", pa.uint64()),
                   ("max_tf", pa.uint32()), ("min_dl", pa.uint32())):
        if c in names:
            cols[c] = pa.array(sc[c].astype(typ.to_pandas_dtype()), typ)
    for c, (flat, lens) in lists.items():
        if c in names:
            cols[c] = pa.ListArray.from_arrays(
                pa.array(_offsets(lens).astype(np.int32)), pa.array(flat)
            )
    at = rs + hlen
    for c, _ in streams:
        lens = sc[c].astype(np.int64)
        if c in names:
            cols[c] = _binary_from_partition(
                rec[_concat_ranges(at, lens)].tobytes(), _offsets(lens)
            )
        at = at + lens
    return pa.table([cols[c] for c in names], schema=pa.schema([schema.field(c) for c in names]))


class SegmentFile:
    """One packed postings file opened for point lookups.

    Opening reads the footer and the sparse index (two positional
    reads).  :meth:`rows` reads and decompresses only the blocks that
    can hold the term.  Every read is an ``os.pread`` on the handle's
    own descriptor, so threads can share one handle; the descriptor is
    closed by :meth:`close` or when the handle is garbage-collected."""

    def __init__(self, path: str):
        self.path = path
        fd = os.open(path, os.O_RDONLY)
        self._fd = fd
        self.close = weakref.finalize(self, os.close, fd)
        index, nblk, self.num_rows, self.rpart, self.has_positions = _read_footer(
            lambda k, o: os.pread(fd, k, o), os.fstat(fd).st_size, path
        )
        self._foff, self._raw_len, cont, ft_off, ft = _split_index(index, nblk)
        self._cont = cont.tolist()
        self._first = [
            ft[a:b].decode() for a, b in zip(ft_off[:-1].tolist(), ft_off[1:].tolist())
        ]

    def _read_block(self, b: int) -> bytes:
        """Block ``b``, decompressed — one positional read."""
        lo, hi = int(self._foff[b]), int(self._foff[b + 1])
        return _CODEC.decompress(
            os.pread(self._fd, hi - lo, lo), int(self._raw_len[b]), asbytes=True
        )

    def rows(self, term: str) -> list[dict]:
        """Every row of ``term`` in file order, as dicts keyed like
        ``SEGMENT_SCHEMA`` (numpy arrays for the lists, bytes for the
        streams); ``[]`` if absent.  Reads the block the term's first
        row can be in, plus the blocks that start with the term."""
        lo = bisect.bisect_left(self._first, term)
        hi = bisect.bisect_right(self._first, term, lo)
        blocks = list(range(lo, hi))
        if lo and (lo == hi or self._cont[lo]):
            blocks.insert(0, lo - 1)
        key = term.encode()
        out: list[dict] = []
        for b in blocks:
            raw = self._read_block(b)
            to, ro, t0, r0 = _split_block(raw)
            n = len(to) - 1
            i = bisect.bisect_left(range(n), key, key=lambda j: raw[t0 + to[j] : t0 + to[j + 1]])
            while i < n and raw[t0 + to[i] : t0 + to[i + 1]] == key:
                row = _record(raw[r0 + ro[i] : r0 + ro[i + 1]], self.has_positions)
                out.append({"term": term, "rpart": self.rpart, **row})
                i += 1
        return out


def _record(rec: bytes, has_pos: bool) -> dict:
    """One record's fields (see :meth:`SegmentFile.rows`)."""
    # the header's varints: a short header (a rare term's one or two
    # blocks) decodes faster in plain Python than through numpy
    v: list[int] = []
    x = shift = p = 0
    count = 1
    while len(v) < count:
        byte = rec[p]
        p += 1
        x |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            v.append(x)
            x = shift = 0
            if len(v) == 1:
                count = _header_counts(v[0], has_pos)
                if count > 64:
                    ends = np.flatnonzero(np.frombuffer(rec, np.uint8) < 0x80)
                    p = int(ends[count - 1]) + 1
                    v = varint_decode(rec[:p]).tolist()
    nb = v[0]
    streams = _POS_STREAMS if has_pos else _STREAMS
    a = 3 + len(streams)
    row = {"df": v[1], "cf": v[2]}
    if nb == 0:
        row["max_tf"], row["min_dl"] = v[a : a + 2]
        a += 2
    arr = np.asarray(v[a:], np.uint64)
    a = 0
    for c, dtype, delta in _BLOCK_LISTS:
        row[c] = (np.cumsum(arr[a : a + nb], dtype=np.uint64) if delta else arr[a : a + nb]).astype(dtype)
        a += nb
    if nb:
        row["max_tf"] = int(row["block_max_tf"].max())
        row["min_dl"] = int(row["block_min_dl"].min())
    inner = max(nb - 1, 0)
    for (c, offs), ln in zip(streams, v[3 : 3 + len(streams)]):
        offsets = np.zeros(nb + 1, np.uint32)
        offsets[1:nb] = np.cumsum(arr[a : a + inner], dtype=np.uint64)
        offsets[nb] = ln
        row[offs] = offsets
        row[c] = rec[p : p + ln]
        a += inner
        p += ln
    return row


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
        dlt = pq.read_table(dl_file, columns=["dl"])
        return {
            "rpart": rpart,
            "n_terms": SegmentFile(seg_file).num_rows,
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
    write_segment(seg, seg_file)

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
