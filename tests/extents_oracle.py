"""Scalar per-doc minimal-interval enumeration — the test ORACLE for the
segmented ``intervals`` evaluator (``query/extents.py`` ``_seg_eval``).

Each rule evaluates on ONE doc from that doc's per-term sorted position
arrays, with plain loops that follow the semantics documented in the
``query/extents.py`` module docstring; the randomized tests check the
vectorized evaluator against it.
"""

from __future__ import annotations

import numpy as np

from docs_indexer_ray.query.extents import (
    ExtAllOf,
    ExtAnyOf,
    ExtFilter,
    ExtMatch,
    ExtTerm,
)


def _minimal(iv: np.ndarray) -> np.ndarray:
    """Prune to minimal intervals: drop duplicates and any interval
    properly containing another.  Result sorted by start (ends then
    strictly increase — the property the combiners rely on)."""
    if len(iv) == 0:
        return iv.reshape(0, 2)
    iv = np.unique(iv, axis=0)  # sorts by (start, end), dedupes
    # within equal starts keep only the smallest end
    first = np.ones(len(iv), bool)
    first[1:] = iv[1:, 0] != iv[:-1, 0]
    iv = iv[first]
    # starts strictly increase; an interval is non-minimal iff some
    # LATER interval has end <= its end → suffix-min of ends
    ends = iv[:, 1]
    suffix_min = np.minimum.accumulate(ends[::-1])[::-1]
    keep = np.ones(len(iv), bool)
    keep[:-1] = ends[:-1] < suffix_min[1:]
    return iv[keep]


def _ordered_combine(sub_ivs: list, max_gaps: int) -> np.ndarray:
    """One interval per sub, in order, non-overlapping, greedy-minimal
    per start; gap sum filtered against ``max_gaps``."""
    if any(len(s) == 0 for s in sub_ivs):
        return np.empty((0, 2), np.int64)
    out = []
    for s0, e0 in sub_ivs[0]:
        cur_end = e0
        gaps = 0
        ok = True
        for nxt in sub_ivs[1:]:
            # minimal lists have strictly increasing starts AND ends →
            # the first interval starting after cur_end is the greedy-
            # optimal choice
            j = int(np.searchsorted(nxt[:, 0], cur_end + 1))
            if j >= len(nxt):
                ok = False
                break
            gaps += int(nxt[j, 0]) - cur_end - 1
            cur_end = int(nxt[j, 1])
        if ok and (max_gaps < 0 or gaps <= max_gaps):
            out.append((int(s0), cur_end))
    return _minimal(np.asarray(out, np.int64).reshape(-1, 2))


def _unordered_combine(sub_ivs: list, max_gaps: int) -> np.ndarray:
    """One interval per sub, any order (overlaps allowed): the classic
    min-window sweep — at each step the window is (min start, max end)
    over the current pointer combo; advance the pointer holding the
    minimal start."""
    m = len(sub_ivs)
    if any(len(s) == 0 for s in sub_ivs):
        return np.empty((0, 2), np.int64)
    ptr = [0] * m
    out = []
    while True:
        starts = np.array([sub_ivs[i][ptr[i], 0] for i in range(m)])
        ends = np.array([sub_ivs[i][ptr[i], 1] for i in range(m)])
        w_s, w_e = int(starts.min()), int(ends.max())
        if max_gaps < 0:
            out.append((w_s, w_e))
        else:
            # uncovered positions inside the window
            covered = np.zeros(w_e - w_s + 1, bool)
            for i in range(m):
                covered[sub_ivs[i][ptr[i], 0] - w_s:
                        sub_ivs[i][ptr[i], 1] - w_s + 1] = True
            if int((~covered).sum()) <= max_gaps:
                out.append((w_s, w_e))
        adv = int(starts.argmin())
        ptr[adv] += 1
        if ptr[adv] >= len(sub_ivs[adv]):
            break
    return _minimal(np.asarray(out, np.int64).reshape(-1, 2))


def _apply_filter(src: np.ndarray, rel: str, flt: np.ndarray) -> np.ndarray:
    if len(src) == 0:
        return src
    if rel in ("containing", "not_containing"):
        hit = np.array([
            bool(len(flt)) and bool(
                ((flt[:, 0] >= s) & (flt[:, 1] <= e)).any()
            )
            for s, e in src
        ])
        return src[hit] if rel == "containing" else src[~hit]
    if rel in ("contained_by", "not_contained_by"):
        hit = np.array([
            bool(len(flt)) and bool(
                ((flt[:, 0] <= s) & (flt[:, 1] >= e)).any()
            )
            for s, e in src
        ])
        return src[hit] if rel == "contained_by" else src[~hit]
    if rel in ("overlapping", "not_overlapping"):
        hit = np.array([
            bool(len(flt)) and bool(
                ((flt[:, 0] <= e) & (flt[:, 1] >= s)).any()
            )
            for s, e in src
        ])
        return src[hit] if rel == "overlapping" else src[~hit]
    if rel == "before":
        hit = np.array([
            bool(len(flt)) and bool((flt[:, 0] > e).any()) for _, e in src
        ])
        return src[hit]
    if rel == "after":
        hit = np.array([
            bool(len(flt)) and bool((flt[:, 1] < s).any()) for s, _ in src
        ])
        return src[hit]
    raise ValueError(f"unknown interval filter relation {rel!r}")


def _doc_intervals(rule, pos: dict) -> np.ndarray:
    """Minimal intervals of ``rule`` on one doc, given that doc's
    per-term sorted position arrays (missing term → empty)."""
    if isinstance(rule, ExtTerm):
        p = pos.get(rule.term)
        if p is None or len(p) == 0:
            return np.empty((0, 2), np.int64)
        return np.stack([p, p], axis=1).astype(np.int64)
    if isinstance(rule, ExtMatch):
        subs = [_doc_intervals(ExtTerm(t), pos) for t in rule.terms]
        if len(subs) == 1:
            return subs[0]
        comb = _ordered_combine if rule.ordered else _unordered_combine
        return comb(subs, rule.max_gaps)
    if isinstance(rule, ExtAnyOf):
        parts = [_doc_intervals(s, pos) for s in rule.subs]
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.empty((0, 2), np.int64)
        return _minimal(np.concatenate(parts, axis=0))
    if isinstance(rule, ExtAllOf):
        subs = [_doc_intervals(s, pos) for s in rule.subs]
        comb = _ordered_combine if rule.ordered else _unordered_combine
        return comb(subs, rule.max_gaps)
    if isinstance(rule, ExtFilter):
        src = _doc_intervals(rule.source, pos)
        if len(src) == 0:
            return src
        flt = _doc_intervals(rule.filter, pos)
        return _apply_filter(src, rule.relation, flt)
    raise TypeError(f"unknown extent rule {rule!r}")

