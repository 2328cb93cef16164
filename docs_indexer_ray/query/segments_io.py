"""Decoded-posting views over segment rows (possibly multiple salted runs).

A heavy term's posting list is stored as several runs (one per salted
reducer, ``stages/tokenize.py``); runs partition the doc-id space into
ordered ranges, so this module presents them as ONE logical block
sequence: flat arrays of per-block metadata plus a mapping flat-block →
(run, local block) used to decode a single block on demand — exactly
what block-max WAND needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..functions.codec import varint_decode

__all__ = ["TermPostings"]


@dataclass
class _Run:
    doc_ids_enc: bytes
    tfs_enc: bytes
    id_offsets: np.ndarray  # uint32, n_blocks+1
    tf_offsets: np.ndarray
    pos_enc: bytes | None = None  # positions build only
    pos_offsets: np.ndarray | None = None


@dataclass
class TermPostings:
    term: str
    df: int
    cf: int
    max_tf: int
    min_dl: int
    block_last: np.ndarray      # uint64, flat over runs (ascending)
    block_max_tf: np.ndarray    # uint32, flat
    block_min_dl: np.ndarray    # uint32, flat
    _runs: list[_Run]
    _run_of_block: np.ndarray   # int32, flat → run index
    _local_block: np.ndarray    # int32, flat → block index within run
    _decoded: tuple[np.ndarray, np.ndarray] | None = None
    _range_memo: dict | None = None

    @classmethod
    def from_rows(cls, term: str, rows: list[dict]) -> "TermPostings":
        runs, last, mtf, mdl, rob, lob = [], [], [], [], [], []
        df = cf = 0
        for ri, r in enumerate(rows):
            df += int(r["df"])
            cf += int(r["cf"])
            nb = len(r["block_last"])
            runs.append(
                _Run(
                    r["doc_ids_enc"],
                    r["tfs_enc"],
                    np.asarray(r["block_id_offsets"], np.uint32),
                    np.asarray(r["block_tf_offsets"], np.uint32),
                    r.get("pos_enc"),
                    np.asarray(r["block_pos_offsets"], np.uint32)
                    if r.get("block_pos_offsets") is not None
                    else None,
                )
            )
            last.append(np.asarray(r["block_last"], np.uint64))
            mtf.append(np.asarray(r["block_max_tf"], np.uint32))
            mdl.append(np.asarray(r["block_min_dl"], np.uint32))
            rob.append(np.full(nb, ri, np.int32))
            lob.append(np.arange(nb, dtype=np.int32))
        return cls(
            term=term,
            df=df,
            cf=cf,
            max_tf=max(int(r["max_tf"]) for r in rows),
            min_dl=min(int(r["min_dl"]) for r in rows),
            block_last=np.concatenate(last),
            block_max_tf=np.concatenate(mtf),
            block_min_dl=np.concatenate(mdl),
            _runs=runs,
            _run_of_block=np.concatenate(rob),
            _local_block=np.concatenate(lob),
        )

    @property
    def n_blocks(self) -> int:
        return len(self.block_last)

    def decode_block(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, tfs) of flat block ``b`` (delta restart per block)."""
        run = self._runs[self._run_of_block[b]]
        lb = int(self._local_block[b])
        ids = varint_decode(
            memoryview(run.doc_ids_enc)[run.id_offsets[lb] : run.id_offsets[lb + 1]]
        )
        tfs = varint_decode(
            memoryview(run.tfs_enc)[run.tf_offsets[lb] : run.tf_offsets[lb + 1]]
        )
        return np.cumsum(ids, dtype=np.uint64), tfs

    @property
    def has_positions(self) -> bool:
        return bool(self._runs) and self._runs[0].pos_enc is not None

    def decode_all_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat_positions, posting_offsets)`` across all runs, in the
        same posting order as :meth:`decode_all`; posting ``j``'s
        positions are ``flat[offs[j]:offs[j+1]]``.  Requires a
        positions build (``store_positions=True``)."""
        from ..functions.codec import decode_positions_block

        if not self.has_positions:
            raise ValueError(
                f"term {self.term!r}: index was built without positions "
                "(build_index(store_positions=True))"
            )
        flat_parts, len_parts = [], []
        for run in self._runs:
            nb = len(run.id_offsets) - 1
            for b in range(nb):
                tfs = varint_decode(
                    memoryview(run.tfs_enc)[run.tf_offsets[b] : run.tf_offsets[b + 1]]
                )
                flat, _ = decode_positions_block(
                    memoryview(run.pos_enc)[
                        run.pos_offsets[b] : run.pos_offsets[b + 1]
                    ],
                    tfs,
                )
                flat_parts.append(flat)
                len_parts.append(tfs.astype(np.int64))
        flat_all = np.concatenate(flat_parts) if flat_parts else np.empty(0, np.uint64)
        lens = np.concatenate(len_parts) if len_parts else np.empty(0, np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        return flat_all, offs

    def decode_range(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, tfs) restricted to ``lo <= doc_id < hi`` — decodes
        ONLY the blocks overlapping the range (binary search on
        ``block_last``), the shard-reader primitive: a doc-range shard
        pays O(its share) of the posting list, not O(df).

        Memoized per (lo, hi): a shard reader queries one fixed range
        for its lifetime, so hot terms decode once per actor — the
        shard analog of :meth:`decode_all`'s memo (without it, every
        query re-pays varint decode and sharded p50 LOSES to the
        unsharded reader at 1M docs).  A range covering the whole
        list (the one in-process shard over ``[0, n_docs)``) is
        :meth:`decode_all` and shares its memo."""
        if self.n_blocks and lo <= 0 and hi > int(self.block_last[-1]):
            return self.decode_all()
        if self._range_memo is None:
            self._range_memo = {}
        hit = self._range_memo.get((lo, hi))
        if hit is not None:
            return hit
        out = self._decode_range(lo, hi)
        if len(self._range_memo) < 8:  # a shard asks one range; cap defensively
            self._range_memo[(lo, hi)] = out
        return out

    def _decode_range(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        nb = self.n_blocks
        if nb == 0 or hi <= lo:
            return np.empty(0, np.uint64), np.empty(0, np.uint64)
        b0 = int(np.searchsorted(self.block_last, lo, side="left"))
        b1 = int(np.searchsorted(self.block_last, hi - 1, side="left"))
        b1 = min(b1, nb - 1)
        if b0 > b1:
            return np.empty(0, np.uint64), np.empty(0, np.uint64)
        ids_parts, tf_parts = [], []
        for b in range(b0, b1 + 1):
            i, t = self.decode_block(b)
            ids_parts.append(i)
            tf_parts.append(t)
        ids = np.concatenate(ids_parts)
        tfs = np.concatenate(tf_parts)
        keep = (ids >= lo) & (ids < hi)
        return ids[keep], tfs[keep]

    def decode_range_positions(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(doc_ids, tfs, flat_positions, posting_offsets)`` restricted
        to ``lo <= doc_id < hi`` — the positional primitive: decodes
        ONLY the blocks overlapping the range (positions included), so
        a doc-range shard pays O(its share) of the positional data,
        not O(cf).  Memoized alongside :meth:`decode_range` (a reader
        asks one fixed range for its lifetime).  A range covering the
        whole list (a full reader, the one shard over ``[0, n_docs)``)
        is :meth:`decode_all`'s memoized arrays plus
        :meth:`decode_all_positions`."""
        if not self.has_positions:
            raise ValueError(
                f"term {self.term!r}: index was built without positions "
                "(build_index(store_positions=True))"
            )
        if self._range_memo is None:
            self._range_memo = {}
        key = ("pos", lo, hi)
        hit = self._range_memo.get(key)
        if hit is not None:
            return hit
        if self.n_blocks and lo <= 0 and hi > int(self.block_last[-1]):
            out = (*self.decode_all(), *self.decode_all_positions())
        else:
            out = self._decode_range_positions(lo, hi)
        if len(self._range_memo) < 8:
            self._range_memo[key] = out
        return out

    def _decode_range_positions(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        from ..functions.codec import decode_positions_block

        empty = (
            np.empty(0, np.uint64),
            np.empty(0, np.uint64),
            np.empty(0, np.uint64),
            np.zeros(1, np.int64),
        )
        nb = self.n_blocks
        if nb == 0 or hi <= lo:
            return empty
        b0 = int(np.searchsorted(self.block_last, lo, side="left"))
        b1 = min(int(np.searchsorted(self.block_last, hi - 1, side="left")), nb - 1)
        if b0 > b1:
            return empty
        ids_parts, tf_parts, flat_parts = [], [], []
        for b in range(b0, b1 + 1):
            ids, tfs = self.decode_block(b)
            run = self._runs[self._run_of_block[b]]
            lb = int(self._local_block[b])
            flat, _ = decode_positions_block(
                memoryview(run.pos_enc)[run.pos_offsets[lb] : run.pos_offsets[lb + 1]],
                tfs,
            )
            ids_parts.append(ids)
            tf_parts.append(tfs)
            flat_parts.append(flat)
        ids = np.concatenate(ids_parts)
        tfs = np.concatenate(tf_parts)
        flat = np.concatenate(flat_parts)
        lens = tfs.astype(np.int64)
        keep = (ids >= lo) & (ids < hi)
        return (
            ids[keep],
            tfs[keep],
            flat[np.repeat(keep, lens)],
            np.concatenate(([0], np.cumsum(lens[keep]))),
        )

    def decode_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Fully decoded (doc_ids, tfs); memoized — the reader caches
        TermPostings, so hot terms decode once per reader lifetime."""
        if self._decoded is None:
            ids_parts, tf_parts = [], []
            for run in self._runs:
                nb = len(run.id_offsets) - 1
                for b in range(nb):
                    i = varint_decode(
                        memoryview(run.doc_ids_enc)[
                            run.id_offsets[b] : run.id_offsets[b + 1]
                        ]
                    )
                    t = varint_decode(
                        memoryview(run.tfs_enc)[
                            run.tf_offsets[b] : run.tf_offsets[b + 1]
                        ]
                    )
                    ids_parts.append(np.cumsum(i, dtype=np.uint64))
                    tf_parts.append(t)
            self._decoded = (np.concatenate(ids_parts), np.concatenate(tf_parts))
        return self._decoded
