"""Aggregation kinds of the REST envelope, each declared once.

:data:`KINDS` maps each body key to its entry class: ``parse`` builds
a typed spec, ``ops`` plans its shard ops (``ShardQueryActor.
query_phase`` lists them) and raises plan errors before any shard
call, ``render`` shapes the OpenSearch response from the merged
results.  ``second_ops`` (terms→top_hits asks for a second query
phase) and ``late`` (sibling pipelines render after the rest) drive
the request loop in ``serve_http._search``.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import NamedTuple

from . import facets


class RenderCtx(NamedTuple):
    total: int  # the request's live match count
    reader: object  # the request's snapshot IndexReader
    aggs: dict  # the aggregations rendered so far, by name


@dataclass
class Agg:
    """One named aggregation of a request, as its entry parsed it."""

    name: str

    keys = ()  # the body keys that name this kind
    late = False  # render after every agg that is not late

    @classmethod
    def parse(cls, name, key, agg):
        return cls(name, agg[key]["field"])

    def ops(self, reader, analyzer) -> list:
        return []

    def second_ops(self, got: list) -> list:
        """Ops of a second query phase over the first one's merged
        results; their results are appended to ``got``."""
        return []

    def render(self, got: list, ctx: RenderCtx) -> dict:
        raise NotImplementedError


def _sub(agg: dict):
    return agg.get("aggs") or agg.get("aggregations")


def _count_ops(legs: list, analyzer) -> list:
    """``|q ∧ leg|`` count ops (each leg a list of DSL objects),
    validated here: a malformed leg is a clean 400, never a shard
    round trip."""
    from .dsl import dsl_to_node

    for fs in legs:
        for dsl in fs:
            dsl_to_node(dsl, analyzer)
    return [("count", tuple(fs)) for fs in legs]


def _key_counts(t) -> list:
    return list(zip(t["key"].to_pylist(), t["n_docs"].to_pylist()))


def _date_bucket_key(k, arg) -> dict:
    """A date bucket's epoch-ms ``key`` and ISO ``key_as_string``: a
    fixed-interval key is the bucket ordinal, a calendar key is
    already the civil bucket start in epoch-us."""
    fixed = facets.is_fixed_interval(arg)
    epoch_s = int(k) * int(arg) if fixed else int(k) // 1_000_000
    return {
        "key": epoch_s * 1000,
        "key_as_string": _dt.datetime.utcfromtimestamp(epoch_s).isoformat(),
    }


def _numeric(reader, field: str, kind: str, dates: bool = False) -> str:
    """``field``, refused unless numeric (a timestamp too with
    ``dates``, read as epoch-us): a 400 naming the field and the
    aggregation, raised before any shard call — never a cast error
    inside a shard."""
    import pyarrow.types as pt

    schema = reader._docs_dataset().schema
    typ = schema.field(field).type if field in schema.names else None
    if typ is not None and not (
        pt.is_integer(typ) or pt.is_floating(typ) or pt.is_decimal(typ)
        or (dates and pt.is_temporal(typ))
    ):
        raise ValueError(
            f"field [{field}] of type [{typ}] is not supported for "
            f"aggregation [{kind}]"
        )
    return field


def _stats(r: dict) -> dict:
    return {
        "count": r["n_docs"], "min": r["min_v"], "max": r["max_v"],
        "sum": r["sum_v"], "avg": r["avg_v"],
    }


@dataclass
class Terms(Agg):
    """``terms``; one sub-agg makes it :class:`TermsTopHits` or
    :class:`TermsStats`."""

    field: str
    size: int
    keys = ("terms",)

    @classmethod
    def parse(cls, name, key, agg):
        sub = _sub(agg)
        if not sub:
            return cls(name, agg["terms"]["field"],
                       int(agg["terms"].get("size", 10)))
        if len(sub) != 1:
            raise ValueError("one sub-aggregation supported")
        subname, subspec = next(iter(sub.items()))
        if "top_hits" in subspec:
            # per bucket, the k best docs by ONE sort field
            th = subspec["top_hits"]
            sort = th.get("sort") or [{"_doc": {"order": "asc"}}]
            if len(sort) != 1 or not isinstance(sort[0], dict):
                raise ValueError(f"top_hits supports one sort field: {sort!r}")
            scol, order = next(iter(sort[0].items()))
            order = (order.get("order", "asc") if isinstance(order, dict)
                     else str(order))
            return TermsTopHits(
                name, agg["terms"]["field"], int(agg["terms"].get("size", 10)),
                subname, int(th.get("size", 3)), scol, order == "asc",
            )
        # stats, or one metric it subsumes: all lower onto the ONE
        # terms_stats partial and the renderer projects the metric
        metric = next(
            (k for k in ("stats", "avg", "sum", "min", "max") if k in subspec),
            None,
        )
        if metric is None:
            raise ValueError(
                f"terms sub-agg must be stats|avg|sum|min|max|top_hits: "
                f"{subspec!r}"
            )
        field = agg["terms"]["field"]
        val = subspec[metric]["field"]
        return TermsStats(name, field, int(agg["terms"].get("size", 10)),
                          subname, val, metric)

    def ops(self, reader, analyzer):
        return [("terms", self.field)]

    def render(self, got, ctx):
        return {"buckets": [
            {"key": r["value"], "doc_count": r["n_docs"]}
            for r in got[0].slice(0, self.size).to_pylist()
        ]}


@dataclass
class TermsTopHits(Terms):
    sub: str
    k: int
    sort_col: str
    asc: bool

    def second_ops(self, got):
        keys = got[0].slice(0, self.size)["value"].to_pylist()
        return [("top_hits", self.field, self.sort_col, self.k, self.asc, keys)]

    def render(self, got, ctx):
        t, th = got
        counts = {
            r["value"]: r["n_docs"] for r in t.slice(0, self.size).to_pylist()
        }
        hits_by = {}
        for r in th.to_pylist():
            sv = r["s"]
            sv = sv.isoformat() if hasattr(sv, "isoformat") else sv
            hits_by.setdefault(r["value"], []).append(
                {"_id": str(r["doc_id"]), "sort": [sv]}
            )
        return {"buckets": [
            {"key": v, "doc_count": counts[v], self.sub: {"hits": {
                "total": {"value": counts[v], "relation": "eq"},
                "hits": hits_by.get(v, []),
            }}}
            for v in sorted(counts, key=lambda x: (-counts[x], x))
        ]}


@dataclass
class TermsStats(Terms):
    sub: str
    val: str
    metric: str

    def ops(self, reader, analyzer):
        return [("terms_stats", self.field, _numeric(reader, self.val, self.metric))]

    def render(self, got, ctx):
        buckets = []
        for r in got[0].slice(0, self.size).to_pylist():
            full = _stats(r)
            buckets.append({
                "key": r["value"], "doc_count": r["n_docs"],
                self.sub: (full if self.metric == "stats"
                           else {"value": full[self.metric]}),
            })
        return {"buckets": buckets}


@dataclass
class Stats(Agg):
    field: str
    keys = ("stats",)
    dates = True  # a timestamp: epoch-us values, rendered in epoch-ms

    def ops(self, reader, analyzer):
        return [("stats", _numeric(reader, self.field, self.keys[0], self.dates))]

    def render(self, got, ctx):
        import pyarrow.types as pt

        out = _stats(got[0].to_pylist()[0])
        schema = ctx.reader._docs_dataset().schema
        if out["count"] and pt.is_temporal(schema.field(self.field).type):
            for side in ("min", "max", "avg"):  # as date_range's bounds
                DateRange._edge(out, side, out[side])
            out["sum"] /= 1000.0
        return out


@dataclass
class _Hist(Agg):
    """Kinds over one ``("hist", field, hist, arg)`` key-count op."""

    field: str
    arg: object = None
    hist = ""

    def ops(self, reader, analyzer):
        return [("hist", self.field, self.hist, self.arg)]


@dataclass
class Histogram(_Hist):
    """Numeric ``histogram``, lower-edge keys.  With a ``sum`` metric
    (named ``sub``, over the field ``val``) it runs one (key, count,
    sum) op instead, and each bucket carries the sum and its parent
    ``pipes`` (only a date_histogram parses pipes)."""

    sub: str | None = None
    val: str | None = None
    pipes: list = ()
    keys = ("histogram",)
    hist = "histogram"

    @classmethod
    def parse(cls, name, key, agg):
        field = agg["histogram"]["field"]
        arg = int(agg["histogram"]["interval"])
        sub = _sub(agg)
        if not sub:
            return cls(name, field, arg)
        if len(sub) != 1:
            raise ValueError("one sub-aggregation supported")
        hname, hspec = next(iter(sub.items()))
        if "sum" not in hspec:
            raise ValueError(f"histogram sub-agg must be sum: {hspec!r}")
        return cls(name, field, arg, hname, hspec["sum"]["field"])

    def key(self, k) -> dict:
        return {"key": float(k)}

    def ops(self, reader, analyzer):
        if self.sub is None:
            return super().ops(reader, analyzer)
        val = _numeric(reader, self.val, "sum", dates=True)
        return [("bucket_sums", self.field, self.hist, self.arg, val)]

    def render(self, got, ctx):
        t = got[0]
        if self.sub is None:
            return {"buckets": [
                {**self.key(k), "doc_count": int(n)} for k, n in _key_counts(t)
            ]}
        # each pipeline is an O(n_buckets) coordinator pass over the
        # exact int64 sums (OpenSearch's own reduce-side placement)
        sums = t["sm"].to_numpy(zero_copy_only=False)
        pipes = [(pname, facets.parent_pipeline(pkind, sums, lag, window))
                 for pname, pkind, _, lag, window in self.pipes]
        buckets = []
        for i, (k, n, s) in enumerate(zip(
            t["key"].to_pylist(), t["n"].to_pylist(), sums.tolist()
        )):
            b = {**self.key(k), "doc_count": int(n), self.sub: {"value": float(s)}}
            for pname, vals in pipes:
                if vals[i] is not None:
                    b[pname] = {"value": float(vals[i])}
            buckets.append(b)
        return {"buckets": buckets}


@dataclass
class DateHistogram(Histogram):
    """``date_histogram`` (``arg``: a width in seconds or a calendar
    unit): epoch-ms keys with ISO ``key_as_string``; its ``sum`` metric
    may carry parent pipelines, ``(name, kind, buckets_path, lag,
    window)`` each."""

    keys = ("date_histogram",)
    hist = "date_histogram"

    @classmethod
    def parse(cls, name, key, agg):
        from .dsl import _interval_seconds

        dh = agg["date_histogram"]
        iv = dh.get(
            "fixed_interval", dh.get("calendar_interval", dh.get("interval"))
        )
        # only a `calendar_interval` week/month/quarter/year (or its
        # 1-suffixed spelling) buckets by civil date_trunc: a
        # `fixed_interval` "1w" keeps epoch-division 604800 s weeks
        arg = None
        if "fixed_interval" not in dh and "calendar_interval" in dh:
            iv_cal = {
                "1w": "week", "1M": "month", "1q": "quarter", "1y": "year",
            }.get(str(iv), str(iv))
            if iv_cal in facets._CALENDAR_UNITS:
                arg = iv_cal
        field = dh["field"]
        arg = arg if arg is not None else _interval_seconds(iv)
        sub = _sub(agg)
        if not sub:
            return cls(name, field, arg)
        metric, pipes = None, []
        for sname, sspec in sub.items():
            if "sum" in sspec:
                if metric is not None:
                    raise ValueError("one sum metric per date_histogram")
                metric = (sname, sspec["sum"]["field"])
                continue
            # the MATCHED pipeline key, not the first dict key (bodies
            # may carry "meta" etc.)
            pkind = next((k for k in facets.PARENT_PIPELINES if k in sspec), None)
            if pkind is None:
                raise ValueError(
                    "date_histogram sub-agg must be "
                    f"sum|{'|'.join(facets.PARENT_PIPELINES)}"
                    f": {sspec!r}"
                )
            body = sspec[pkind]
            if pkind == "moving_fn":
                script = str(body.get("script", ""))
                if "unweightedAvg" not in script:
                    raise ValueError(
                        "moving_fn supports only the MovingFunctions."
                        f"unweightedAvg script: {script!r}"
                    )
            pipes.append((
                sname, pkind, str(body.get("buckets_path", "")),
                int(body.get("lag", 1)), int(body.get("window", 3)),
            ))
        if metric is None:
            raise ValueError("date_histogram pipelines need a sum metric")
        for _, _, path, _, _ in pipes:
            if path != metric[0]:
                raise ValueError(
                    f"buckets_path {path!r} does not name the sum metric "
                    f"{metric[0]!r}"
                )
        return cls(name, field, arg, *metric, pipes)

    def key(self, k) -> dict:
        return _date_bucket_key(k, self.arg)


@dataclass
class Missing(Agg):
    """Matched docs with no value: the match count minus the
    ``|q ∧ exists|`` count leg."""

    field: str
    keys = ("missing",)

    def ops(self, reader, analyzer):
        return _count_ops([[{"exists": {"field": self.field}}]], analyzer)

    def render(self, got, ctx):
        return {"doc_count": ctx.total - got[0]}


@dataclass
class ValueCount(Missing):
    keys = ("value_count",)

    def render(self, got, ctx):
        return {"value": got[0]}


@dataclass
class RareTerms(Agg):
    """The terms count's tail, sorted count asc, value asc."""

    field: str
    max_doc_count: int
    keys = ("rare_terms",)

    @classmethod
    def parse(cls, name, key, agg):
        rt = agg["rare_terms"]
        return cls(name, rt["field"], int(rt.get("max_doc_count", 1)))

    def ops(self, reader, analyzer):
        return [("terms", self.field)]

    def render(self, got, ctx):
        rows = [
            (r["value"], int(r["n_docs"]))
            for r in got[0].to_pylist()
            if int(r["n_docs"]) <= self.max_doc_count
        ]
        rows.sort(key=lambda kv: (kv[1], kv[0]))
        return {"buckets": [{"key": v, "doc_count": n} for v, n in rows]}


def _named_filters(named, what: str, body) -> dict:
    if not isinstance(named, dict) or not named:
        raise ValueError(
            f"{what} expects {{'filters': {{name: <DSL>, …}}}}: {body!r}"
        )
    return named


@dataclass
class AdjacencyMatrix(Agg):
    """A count per named filter and per pairwise intersection, zero
    counts omitted."""

    filters: dict
    separator: str
    keys = ("adjacency_matrix",)

    @classmethod
    def parse(cls, name, key, agg):
        am = agg["adjacency_matrix"]
        named = _named_filters(am.get("filters"), "adjacency_matrix", am)
        if len(named) > 8:
            raise ValueError(
                "adjacency_matrix supports at most 8 filters (the "
                "intersection legs grow quadratically)"
            )
        for sub in named.values():
            if not isinstance(sub, dict):
                raise ValueError(
                    f"adjacency_matrix filter must be a DSL object: {sub!r}"
                )
        return cls(name, named, str(am.get("separator", "&")))

    def legs(self) -> list:
        """``(bucket key, [filter DSL, …])``: each named filter, then
        its intersection with every later name (names sorted)."""
        names = sorted(self.filters)
        legs = []
        for i, a in enumerate(names):
            legs.append((a, [self.filters[a]]))
            for b in names[i + 1:]:
                legs.append((f"{a}{self.separator}{b}",
                             [self.filters[a], self.filters[b]]))
        return legs

    def ops(self, reader, analyzer):
        return _count_ops([fs for _, fs in self.legs()], analyzer)

    def render(self, got, ctx):
        buckets = [
            {"key": key, "doc_count": n}
            for (key, _), n in zip(self.legs(), got) if n > 0
        ]
        return {"buckets": sorted(buckets, key=lambda b: b["key"])}


@dataclass
class Filters(Agg):
    """One ``|q ∧ filter|`` bucket per named sub-query."""

    filters: dict
    keys = ("filters",)

    @classmethod
    def parse(cls, name, key, agg):
        flt = agg["filters"]
        named = _named_filters(
            flt.get("filters") if isinstance(flt, dict) else None,
            "filters agg", flt,
        )
        for sub in named.values():
            if not isinstance(sub, dict):
                raise ValueError(
                    f"filters agg sub-query must be a DSL object: {sub!r}"
                )
        return cls(name, named)

    def ops(self, reader, analyzer):
        return _count_ops([[sub] for sub in self.filters.values()], analyzer)

    def render(self, got, ctx):
        return {"buckets": {
            bname: {"doc_count": n} for bname, n in zip(self.filters, got)
        }}


@dataclass
class Composite(Agg):
    """Key-ordered bucket pages over ONE terms source, resumed by
    ``after_key``.  Each shard computes only the ``size`` smallest
    matched keys after the cursor, in the column's native order and
    type (an int source pages 9 < 10), so a page costs O(size)."""

    field: str
    size: int
    source: str
    after: object
    keys = ("composite",)

    @classmethod
    def parse(cls, name, key, agg):
        comp = agg["composite"]
        sources = comp.get("sources")
        if (
            not isinstance(sources, list)
            or len(sources) != 1
            or not isinstance(sources[0], dict)
            or len(sources[0]) != 1
        ):
            raise ValueError(
                f"composite supports exactly one terms source: {sources!r}"
            )
        sname, sspec = next(iter(sources[0].items()))
        if "terms" not in sspec:
            raise ValueError(f"composite source must be terms: {sspec!r}")
        after = comp.get("after")
        if after is not None and (
            not isinstance(after, dict) or sname not in after
        ):
            raise ValueError(
                f"composite after must be {{{sname!r}: <key>}}: {after!r}"
            )
        csize = int(comp.get("size", 10))
        if csize <= 0:
            raise ValueError(f"composite size must be > 0, got {csize}")
        # after keeps its NATIVE value ("10" < "9" as strings)
        return cls(name, sspec["terms"]["field"], csize, sname,
                   None if after is None else after[sname])

    def ops(self, reader, analyzer):
        return [("composite", self.field, self.after, self.size)]

    def render(self, got, ctx):
        t = got[0]
        if t is None or t.num_rows == 0:
            return {"buckets": []}
        page = list(zip(
            t["value"].to_pylist(), [int(x) for x in t["n_docs"].to_pylist()]
        ))
        out = {"buckets": [
            {"key": {self.source: v}, "doc_count": n} for v, n in page
        ]}
        # a FULL page carries after_key; an empty next page is the
        # terminal signal (OpenSearch semantics)
        if len(page) == self.size:
            out["after_key"] = {self.source: page[-1][0]}
        return out


@dataclass
class Range(_Hist):
    """``range`` (``arg``: ``[(from, to)]``, open edges ±inf)."""

    keys = ("range",)
    hist = "range"

    @classmethod
    def parse(cls, name, key, agg):
        rng = agg["range"]
        ranges = [
            (float(r.get("from", "-inf")), float(r.get("to", "inf")))
            for r in rng["ranges"]
        ]
        if not ranges:
            raise ValueError("range aggregation needs ranges")
        return cls(name, rng["field"], ranges)

    @staticmethod
    def _edge(b: dict, side: str, v) -> None:
        b[side] = v

    def render(self, got, ctx):
        counts = dict(_key_counts(got[0]))
        buckets = []
        for i, (lo, hi) in enumerate(self.arg):
            b = {"doc_count": int(counts.get(i, 0))}
            if lo != float("-inf"):
                self._edge(b, "from", lo)
            if hi != float("inf"):
                self._edge(b, "to", hi)
            buckets.append(b)
        return {"buckets": buckets}


def _edge_us(v, default):
    """A date_range edge → epoch-us: epoch millis, or ISO-8601 (naive
    is UTC, the engine's timestamp contract; an explicit offset
    converts)."""
    if v is None:
        return default
    if isinstance(v, (int, float)):
        return float(v) * 1000.0
    d = _dt.datetime.fromisoformat(str(v))
    if d.tzinfo is None:
        d = d.replace(tzinfo=_dt.timezone.utc)
    return d.timestamp() * 1_000_000.0


@dataclass
class DateRange(Range):
    """``date_range``: epoch-us bands, echoed as epoch millis and the
    exact micro-second ISO string."""

    keys = ("date_range",)
    hist = "date_range"

    @classmethod
    def parse(cls, name, key, agg):
        dr = agg["date_range"]
        ranges = [
            (_edge_us(r.get("from"), float("-inf")),
             _edge_us(r.get("to"), float("inf")))
            for r in dr.get("ranges", [])
        ]
        if not ranges:
            raise ValueError("date_range aggregation needs ranges")
        return cls(name, dr["field"], ranges)

    @staticmethod
    def _edge(b: dict, side: str, v) -> None:
        b[side] = int(v) // 1000
        b[f"{side}_as_string"] = (
            _dt.datetime(1970, 1, 1) + _dt.timedelta(microseconds=int(v))
        ).isoformat()


@dataclass
class Cardinality(_Hist):
    keys = ("cardinality",)
    hist = "distinct"

    def render(self, got, ctx):
        return {"value": int(got[0].num_rows)}


@dataclass
class SignificantTerms(Agg):
    """JLH-significant terms of the match set (``query/significant.py``:
    one Ray task per segment partition — an analytics agg, never a
    hot search path) over the snapshot reader."""

    field: str
    size: int
    min_doc_count: int
    keys = ("significant_terms",)

    @classmethod
    def parse(cls, name, key, agg):
        st = agg["significant_terms"]
        return cls(name, st.get("field", ""), int(st.get("size", 10)),
                   int(st.get("min_doc_count", 1)))

    def ops(self, reader, analyzer):
        # significance runs over the chain's postings: the field must
        # be the build's indexed source field
        idx_field = reader.manifest["field"]
        if self.field and self.field != idx_field:
            raise ValueError(
                f"significant_terms runs over the indexed field "
                f"{idx_field!r}, not {self.field!r}"
            )
        return [("ids",)]

    def render(self, got, ctx):
        from .significant import significant_terms

        matched = got[0]
        t = significant_terms(
            ctx.reader, matched, k=self.size, min_doc_count=self.min_doc_count
        )
        return {"doc_count": int(len(matched)), "buckets": [
            {"key": r["term"], "doc_count": r["fg_df"],
             "bg_count": r["bg_df"], "score": r["score"]}
            for r in t.to_pylist()
        ]}


@dataclass
class Percentiles(Agg):
    """Exact percentiles of a numeric field: ``quantile_cont`` over its
    merged value-count histogram."""

    field: str
    percents: list
    keys = ("percentiles",)

    @classmethod
    def parse(cls, name, key, agg):
        pc = agg["percentiles"]
        return cls(name, pc["field"],
                   pc.get("percents", [1, 5, 25, 50, 75, 95, 99]))

    def ops(self, reader, analyzer):
        return [("hist", _numeric(reader, self.field, self.keys[0]), "values", None)]

    def render(self, got, ctx):
        h, qs = got[0], [float(x) for x in self.percents]
        out = facets.interpolate_quantiles(
            h["key"].to_numpy(zero_copy_only=False),
            h["n_docs"].to_numpy(zero_copy_only=False), qs,
        )
        return {"values": {f"{x}": val for x, val in zip(qs, out)}}


@dataclass
class PercentileRanks(Agg):
    """The shared ``facets.rank_ops`` plan and ``rank_pcts`` fold; keys
    in request order."""

    field: str
    values: list
    keys = ("percentile_ranks",)

    @classmethod
    def parse(cls, name, key, agg):
        pr = agg["percentile_ranks"]
        vals = pr.get("values")
        if not isinstance(vals, list) or not vals:
            raise ValueError(f"percentile_ranks needs values: {pr!r}")
        return cls(name, pr["field"], [float(v) for v in vals])

    def ops(self, reader, analyzer):
        return facets.rank_ops(_numeric(reader, self.field, self.keys[0]), self.values)

    def render(self, got, ctx):
        pcts = facets.rank_pcts(self.values, *got)
        return {"values": {f"{x}": p for x, p in zip(self.values, pcts)}}


@dataclass
class ExtendedStats(Stats):
    """The ``stats`` op (shared with a ``stats`` agg on the field)
    folded by ``facets.extended_stats``; numeric fields only."""

    keys = ("extended_stats",)
    dates = False

    def render(self, got, ctx):
        r = got[0].to_pylist()[0]
        if not r["n_docs"]:
            return {"count": 0}
        return facets.extended_stats(
            *(r[c] for c in ("n_docs", "min_v", "max_v", "sum_v", "sum_sq"))
        )


@dataclass
class SiblingBucket(Agg):
    """One value over a rendered parent's bucket metric, addressed
    ``parent>metric`` (OpenSearch ``buckets_path``): O(n_buckets),
    driver-side, where OpenSearch runs sibling aggs."""

    op: str
    parent: str
    metric: str
    percents: list
    keys = ("avg_bucket", "max_bucket", "min_bucket", "sum_bucket",
            "stats_bucket", "percentiles_bucket", "extended_stats_bucket")
    late = True

    @classmethod
    def parse(cls, name, key, agg):
        path = str(agg[key].get("buckets_path", ""))
        if ">" not in path:
            raise ValueError(
                f"{key} buckets_path must be 'parent>metric': {path!r}"
            )
        parent, metric = path.split(">", 1)
        return cls(name, key, parent, metric, agg[key].get(
            "percents", [1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0]
        ))

    def render(self, got, ctx):
        parent = ctx.aggs.get(self.parent)
        if parent is None or "buckets" not in parent:
            raise ValueError(
                f"buckets_path parent {self.parent!r} is not a bucket "
                "aggregation in this request"
            )
        vals, keys = [], []
        for b in parent["buckets"]:
            m = b.get(self.metric)
            # a pipeline metric (derivative/serial_diff) is absent in
            # its first bucket(s): OpenSearch's skip gap policy
            if isinstance(m, dict) and "value" in m:
                vals.append(m["value"])
                keys.append(b.get("key_as_string", b.get("key")))
        if parent["buckets"] and not vals:
            raise ValueError(f"parent buckets carry no metric {self.metric!r}")
        return facets.bucket_metric(self.op, vals, keys, self.percents)


# body key → entry, in key precedence: a body that carries two kind
# keys resolves to the first one listed
KINDS = {
    key: entry
    for entry in (
        Terms, Stats, DateHistogram, Histogram, Missing, ValueCount,
        RareTerms, AdjacencyMatrix, Composite, DateRange, Range,
        Cardinality, Filters, SignificantTerms, Percentiles,
        PercentileRanks, ExtendedStats, SiblingBucket,
    )
    for key in entry.keys
}


def parse_one(name, agg: dict) -> Agg:
    """One named agg body → its typed spec."""
    key = next((k for k in KINDS if k in agg), None)
    if key is None:
        raise ValueError(f"unsupported aggregation {agg!r} ({'|'.join(KINDS)})")
    # parsing is pure dict access: a wrongly shaped slot ({"terms":
    # null}, {"range": {"ranges": 3}}) is input error, a 400, never a
    # 500 (fuzz-enforced)
    try:
        return KINDS[key].parse(name, key, agg)
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed aggregation {name!r}: {e}") from e


def parse(aggs) -> list:
    """A body's ``aggs`` object → one spec per name, in body order."""
    if not isinstance(aggs, dict):
        raise ValueError(f"aggs must be an object: {aggs!r}")
    specs = []
    for name, agg in aggs.items():
        if not isinstance(agg, dict):
            raise ValueError(f"aggregation {name!r} must be an object: {agg!r}")
        specs.append(parse_one(name, agg))
    return specs


def shorthand(params) -> list:
    """The GET ``agg_terms=col[&agg_size=n]`` / ``agg_stats=col``
    parameters → specs named by their column."""
    specs = []
    if params.get("agg_terms"):
        col = params["agg_terms"]
        specs.append(parse_one(col, {"terms": {
            "field": col, "size": params.get("agg_size", "10"),
        }}))
    if params.get("agg_stats"):
        col = params["agg_stats"]
        specs.append(parse_one(col, {"stats": {"field": col}}))
    return specs
