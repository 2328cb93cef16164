"""The four benchmark workloads.

Each workload function takes a :class:`Run` and returns a
:class:`Result`.  Set-up (fixture build, reader or server open,
warm-up) is repeated ``SETUP_REPS`` times and timed on its own.  Every
timed quantity is CPU time, as ``proc`` explains; wall times are kept
for reference.  The
closed loops of ``search_hot`` and ``topk_longtail`` then run for at
least ``run.seconds`` and at least the sample count their tail
percentile needs (ten samples beyond it); ``build`` and ``bulk_mixed``
run a fixed number of operations, because each of theirs changes what
the next one costs or measures.  Correctness gates run outside every
timer.

With ``run.tracer`` set the workload instead makes the traced run:
it keeps the same set-up and correctness gates, measures the same
operations once untraced and once traced, and fills
``Result.layers`` with every per-layer metric.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import gen
import layers
import proc
from spans import Tracer

SETUP_REPS = 2
FIXTURE_URLS = 600  # query fixture: 600 urls + 60 newer duplicate crawls
BUILD_URLS = 1_500  # build workload corpus
N_BUILDS = 3
WARM_BUILD_URLS = 200  # build workload set-up: fixed cost of one build
N_SEARCH_BODIES = 100
N_TAIL_QUERIES = 4_000
BULK_DOCS = 200
SEARCHES_PER_BULK = 40
BULK_CYCLES = 2
# tail percentile per workload, with ten samples beyond it; build's
# tail_cpu_ms is the mean build, since no percentile of N_BUILDS has that
TAIL_PCT = {"build": None, "search_hot": 90, "topk_longtail": 95, "bulk_mixed": 85}
# traced-run sizes
TRACE_SEARCHES = 100
TRACE_TOPK = 1_000
TRACE_PLANS = 300
TRACE_CYCLES = 2


@dataclass
class Run:
    seed: int
    seconds: float
    work: str
    tracer: Tracer | None = None

    def __post_init__(self):
        self.corpus = gen.Corpus(self.seed)

    @functools.cached_property
    def fixture_rows(self) -> list[dict]:
        """Pages of the query fixture."""
        return gen.pages(self.seed, FIXTURE_URLS, self.corpus)


@dataclass
class Result:
    setup_s: float
    throughput_per_s: float
    latencies_s: list[float]
    tail_pct: int | None
    index_bytes: int
    input_bytes: int
    attempted: int = 0
    failed: int = 0
    wall_s: list[float] = field(default_factory=list)  # per operation, for reference
    layers: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


def min_samples(pct: int) -> int:
    """Samples needed for ten of them to lie beyond percentile ``pct``."""
    return int(np.ceil(10 / (1 - pct / 100)))


def index_bytes(index_root: str) -> int:
    """Bytes of the published build's segments and docs store."""
    from docs_indexer_ray.index import manifest as mf

    bdir = mf.current_build(index_root)
    return layers.dir_bytes(os.path.join(bdir, "segments")) + layers.dir_bytes(
        os.path.join(bdir, "docs")
    )


def build(table, out: str) -> dict:
    """One from-scratch build of ``table`` published under ``out``."""
    import ray.data

    import docs_indexer_ray.index.build as build_mod

    return build_mod.build_index(
        ray.data.from_arrow(table),
        out,
        fingerprint="bench",
        skip_if_current=False,
        scratch_dir=os.path.join(out, "_scratch"),
    )


def build_mismatches(res: dict, rows: list[dict]) -> int:
    """``n_docs`` equals the unique-url count and nothing failed to extract."""
    return int(res["n_docs"] != len({r["url"] for r in rows})) + int(
        res["n_extract_errors"] != 0
    )


def _probe(run: Run, r: Result, index_dir: str, rows: list[dict]) -> None:
    """16 probe queries (8 head, 8 tail terms of ``rows``) against ``MemoryBM25``."""
    head = [b["query"]["match"]["text"] for b in gen.search_bodies(run.seed, 8, run.corpus, "probe")]
    ranks = gen.indexed_ranks(rows, run.corpus)
    tail = [" ".join(t) for t in gen.tail_queries(run.seed, 8, ranks, run.corpus, "probe-tail")]
    r.attempted += len(head) + len(tail)
    r.failed += checks.oracle_mismatches(index_dir, head + tail)


@contextlib.contextmanager
def _timed(r: Result, cpu=time.process_time):
    """Times the block as one operation: its CPU time (read from ``cpu``)
    into ``r.latencies_s`` and its wall time into ``r.wall_s``."""
    c0, w0 = cpu(), time.perf_counter()
    yield
    r.latencies_s.append(cpu() - c0)
    r.wall_s.append(time.perf_counter() - w0)


@contextlib.contextmanager
def _traced(run: Run):
    """A region whose layer calls are recorded as spans (traced run only)."""
    if run.tracer is None:
        yield
        return
    layers.instrument(run.tracer)
    try:
        yield
    finally:
        run.tracer.restore()


def setup_fixture(run: Run, open_fn):
    """Build the query fixture, open it and warm it, ``SETUP_REPS`` times.

    Returns ``(rows, manifest, index_root, state, setup_s, build_split)``:
    the last repetition's fixture stays open for the timed loop."""
    rows = run.fixture_rows
    table = gen.pages_table(rows)
    times, state, out, res, split = [], None, None, None, None
    for rep in range(SETUP_REPS):
        if state is not None:
            state.close()
            shutil.rmtree(out)
        out = os.path.join(run.work, f"fixture{rep}")
        n_spans = len(run.tracer.spans) if run.tracer else 0
        with _traced(run):
            t0 = proc.tree_cpu_s()
            res = build(table, out)
            state = open_fn(out)
            times.append(proc.tree_cpu_s() - t0)
        if run.tracer is not None:
            root = next(s for s in run.tracer.spans[n_spans:] if s["name"] == "index.build")
            split = layers.build_split(run.tracer, root, res)
    return rows, res, out, state, statistics.median(times), split


# ---------------------------------------------------------------- build


def run_build(run: Run) -> Result:
    rows = gen.pages(run.seed, BUILD_URLS, run.corpus)
    table = gen.pages_table(rows)
    warm_table = gen.pages_table(gen.pages(run.seed, WARM_BUILD_URLS, run.corpus, prefix="warm"))
    setup = []
    for rep in range(SETUP_REPS):
        t0 = proc.tree_cpu_s()
        build(warm_table, os.path.join(run.work, f"warm{rep}"))
        setup.append(proc.tree_cpu_s() - t0)
    r = Result(
        setup_s=statistics.median(setup),
        throughput_per_s=0.0,
        latencies_s=[],
        tail_pct=TAIL_PCT["build"],
        index_bytes=0,
        input_bytes=gen.input_bytes(rows),
    )
    if run.tracer is not None:
        return _trace_build(run, r, rows, table)
    docs, out = 0, None
    for k in range(N_BUILDS):
        if out is not None:
            shutil.rmtree(out)
        out = os.path.join(run.work, f"build{k}")
        with _timed(r, proc.tree_cpu_s):
            res = build(table, out)
        docs += int(res["n_docs"])
        r.attempted += 1
        r.failed += build_mismatches(res, rows)
    r.throughput_per_s = docs / sum(r.latencies_s)
    r.index_bytes = index_bytes(out)
    _probe(run, r, out, rows)
    return r


def _trace_build(run: Run, r: Result, rows, table) -> Result:
    tr = run.tracer
    t0 = time.perf_counter()
    res = build(table, os.path.join(run.work, "untraced"))
    untraced = time.perf_counter() - t0
    r.failed += build_mismatches(res, rows)
    half = gen.pages(run.seed, BUILD_URLS // 2, run.corpus, prefix="half")
    traced = {}
    for name, rws in (("half", half), ("full", rows)):
        with _traced(run):
            res = build(gen.pages_table(rws), os.path.join(run.work, f"traced-{name}"))
        r.failed += build_mismatches(res, rws)
        traced[name] = (int(res["n_docs"]), layers.build_split(tr, tr.spans[-1], res))
    root = tr.spans[-1]
    split = traced["full"][1]
    r.layers.update(layers.build_metrics(split, res, res.index_dir, len(rows)))
    r.layers.update(layers.fit_fixed_per_doc(traced["half"], traced["full"]))
    _summarize(r, split, "index.build", root["end"] - root["start"], untraced)
    r.attempted += 3
    _probe(run, r, res.index_dir, rows)
    return r


# ---------------------------------------------------------------- search


class _Served:
    """A started local-backend ``SearchServer``, warmed, and its client
    side: one HTTP/1.0 connection at a time."""

    def __init__(self, out: str, warm_bodies: list[dict]):
        from docs_indexer_ray.serve_http import SearchServer

        self.server = SearchServer(out).start()
        # head terms into the postings cache (decoded), then the HTTP path
        an, reader = self.server._analyzer, self.server._reader
        for t in sorted({t for b in warm_bodies for t in an(b["query"]["match"]["text"])}):
            tp = reader.postings(t)
            if tp is not None:
                tp.decode_all()
        for b in warm_bodies[:5]:
            status, _ = self.post("/_search", json.dumps(b).encode())
            if status != 200:
                raise RuntimeError(f"warm-up search failed with HTTP {status}")

    def post(self, path: str, data: bytes) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=170)
        try:
            conn.request("POST", path, body=data, headers={"Content-Type": "application/json"})
            r = conn.getresponse()
            return r.status, json.loads(r.read())
        finally:
            conn.close()

    def close(self):
        self.server.stop()


def run_search_hot(run: Run) -> Result:
    bodies = gen.search_bodies(run.seed, N_SEARCH_BODIES, run.corpus)
    datas = [json.dumps(b).encode() for b in bodies]
    rows, man, out, srv, setup_s, split = setup_fixture(run, lambda o: _Served(o, bodies))
    r = Result(
        setup_s=setup_s,
        throughput_per_s=0.0,
        latencies_s=[],
        tail_pct=TAIL_PCT["search_hot"],
        index_bytes=index_bytes(out),
        input_bytes=gen.input_bytes(rows),
    )
    try:
        if run.tracer is not None:
            _trace_search(run, r, srv, bodies, datas, man, split, len(rows))
        else:
            # closed loop; the first response of each body goes to the gate
            pairs, min_n = [], min_samples(r.tail_pct)
            i, t_start = 0, time.perf_counter()
            while time.perf_counter() - t_start < run.seconds or i < min_n:
                with _timed(r):
                    status, resp = srv.post("/_search", datas[i % len(datas)])
                r.attempted += 1
                if status != 200:
                    r.failed += 1
                elif i < len(bodies):
                    pairs.append((bodies[i], resp))
                i += 1
            r.throughput_per_s = i / sum(r.latencies_s)
            r.failed += checks.search_mismatches(srv.server._reader, pairs)
    finally:
        srv.close()
    _probe(run, r, out, rows)
    return r


def _in_process(reader, body):
    import docs_indexer_ray.query.search as search_mod

    return search_mod.search_response(
        reader, body["query"], k=body["size"], fields=tuple(body["_source"]),
        highlight_field="body", syntax=True, with_total=True,
    )


def _trace_search(run, r, srv, bodies, datas, man, split, n_rows):
    tr = run.tracer
    reader = srv.server._reader
    sample = bodies[:TRACE_SEARCHES]
    rest, pairs = [], []
    for b, d in zip(sample, datas):
        t0 = time.perf_counter()
        status, resp = srv.post("/_search", d)
        rest.append(time.perf_counter() - t0)
        r.failed += status != 200
        pairs.append((b, resp))
    t_start = time.perf_counter()
    inproc = []
    for b in sample:
        t0 = time.perf_counter()
        _in_process(reader, b)
        inproc.append(time.perf_counter() - t0)
    untraced = time.perf_counter() - t_start
    tr.counts.clear()
    with _traced(run):
        with tr.span("workload.replay") as root:
            for b in sample:
                _in_process(reader, b)
    traced = root["end"] - root["start"]
    st = Tracer.self_times(tr.under(root))
    r.attempted += len(sample)
    r.failed += checks.search_mismatches(reader, pairs)
    r.layers.update(layers.build_metrics(split, man, man.index_dir, n_rows))
    r.layers.update(layers.query_metrics(st, len(sample)))
    r.layers["serve_http.overhead_ms"] = (statistics.median(rest) - statistics.median(inproc)) * 1e3
    r.layers["query.reader.postings_hit_ratio"] = layers.hit_ratio(tr)
    r.layers["query.reader.open_s"] = tr.mean("query.reader.open")
    _summarize(r, st, "workload.replay", traced, untraced)


def _summarize(r: Result, st: dict, root_name: str, traced: float, untraced: float) -> None:
    """Layer self times of one traced region; with ``remainder`` (the
    root's own time) they add up to ``traced``."""
    own = {k: v for k, v in st.items() if k != root_name}
    r.layers["trace.overhead_s"] = traced - untraced
    r.layers["trace.remainder_s"] = st.get(root_name, 0.0)
    r.layers["trace.unattributed_s"] = untraced - sum(own.values())
    r.summary = {
        "layers_self_s": {**own, "remainder": st.get(root_name, 0.0)},
        "traced_s": traced,
        "untraced_s": untraced,
    }


# ---------------------------------------------------------------- topk


class _Opened:
    def __init__(self, out: str, warm: list[list[str]]):
        import docs_indexer_ray.query.bm25 as bm25_mod
        from docs_indexer_ray.query.reader import IndexReader

        self.reader = IndexReader(out)
        for terms in warm:
            bm25_mod.topk(self.reader, terms, k=10)

    def close(self):
        pass


def _analyzed(run: Run, n: int, stream: str) -> list[list[str]]:
    """Long-tail queries over the fixture's indexed words, analyzed."""
    from docs_indexer_ray.functions.analyzer import Analyzer

    an = Analyzer("english")
    ranks = gen.indexed_ranks(run.fixture_rows, run.corpus)
    return [an(" ".join(t)) for t in gen.tail_queries(run.seed, n, ranks, run.corpus, stream)]


def run_topk_longtail(run: Run) -> Result:
    import docs_indexer_ray.query.bm25 as bm25_mod

    queries = _analyzed(run, N_TAIL_QUERIES, "tail")
    warm = _analyzed(run, 200, "tail-warm")
    rows, man, out, opened, setup_s, split = setup_fixture(run, lambda o: _Opened(o, warm))
    r = Result(
        setup_s=setup_s,
        throughput_per_s=0.0,
        latencies_s=[],
        tail_pct=TAIL_PCT["topk_longtail"],
        index_bytes=index_bytes(out),
        input_bytes=gen.input_bytes(rows),
    )
    if run.tracer is not None:
        _trace_topk(run, r, out, queries, warm, man, split, len(rows))
    else:
        reader, min_n = opened.reader, min_samples(r.tail_pct)
        checked: set = set()
        i = 0
        while sum(r.latencies_s) < run.seconds or i < min_n:
            terms = queries[i % len(queries)]
            with _timed(r):
                hits = bm25_mod.topk(reader, terms, k=10)
            # gate each distinct query right away, untimed, while its
            # postings are still cached (the long tail evicts them soon)
            if tuple(terms) not in checked:
                checked.add(tuple(terms))
                r.failed += checks.topk_mismatches(reader, {tuple(terms): hits})
            i += 1
        r.throughput_per_s = i / sum(r.latencies_s)
        r.attempted += i
    _probe(run, r, out, rows)
    return r


def _trace_topk(run, r, out, queries, warm, man, split, n_rows):
    import docs_indexer_ray.query.bm25 as bm25_mod

    tr = run.tracer
    sample = queries[:TRACE_TOPK]

    def replay():
        opened = _Opened(out, warm)
        lat, results = [], {}
        for terms in sample:
            t0 = time.perf_counter()
            results[tuple(terms)] = bm25_mod.topk(opened.reader, terms, k=10)
            lat.append(time.perf_counter() - t0)
        return opened.reader, lat, results

    t0 = time.perf_counter()
    _, lat, results = replay()
    untraced = time.perf_counter() - t0
    tr.counts.clear()
    with _traced(run):
        with tr.span("workload.replay") as root:
            reader, _, _ = replay()
        hits = layers.hit_ratio(tr)
        # both plans on the same queries, postings already loaded
        with tr.span("workload.plans") as plans:
            for terms in sample[:TRACE_PLANS]:
                for t in terms:
                    reader.postings(t)
                bm25_mod.wand_topk(reader, terms, k=10)
                bm25_mod.score_topk(reader, terms, k=10)
    traced = root["end"] - root["start"]
    st = Tracer.self_times(tr.under(root))
    plan_spans = tr.under(plans)
    r.attempted += len(sample)
    r.failed += checks.topk_mismatches(reader, results)
    r.layers.update(layers.build_metrics(split, man, man.index_dir, n_rows))
    r.layers.update(layers.query_metrics(st, len(sample)))
    r.layers["query.reader.postings_hit_ratio"] = hits
    r.layers["query.bm25.wand_ms"] = tr.total("query.bm25.wand", plan_spans) / TRACE_PLANS * 1e3
    r.layers["query.bm25.taat_ms"] = tr.total("query.bm25.taat", plan_spans) / TRACE_PLANS * 1e3
    r.layers["query.reader.open_s"] = tr.mean("query.reader.open")
    _summarize(r, st, "workload.replay", traced, untraced)


# ---------------------------------------------------------------- bulk


def run_bulk_mixed(run: Run) -> Result:
    bodies = gen.search_bodies(run.seed, N_SEARCH_BODIES, run.corpus)
    rows, man, out, srv, setup_s, split = setup_fixture(run, lambda o: _Served(o, bodies))
    base_urls = sorted({row["url"] for row in rows})
    n_cycles = max(BULK_CYCLES, 2 * TRACE_CYCLES)
    batches = gen.bulk_batches(run.seed, n_cycles, BULK_DOCS, base_urls, run.corpus)
    searches = gen.search_bodies(run.seed, SEARCHES_PER_BULK * n_cycles, run.corpus, "bulk-search")
    r = Result(
        setup_s=setup_s,
        throughput_per_s=0.0,
        latencies_s=[],
        tail_pct=TAIL_PCT["bulk_mixed"],
        index_bytes=0,
        input_bytes=gen.input_bytes(rows),
    )
    base = set(base_urls)
    n_docs = int(man["n_docs"])
    bulk_s, first_s, cycle_s = [], [], []
    served: list[tuple[str, list]] = []  # (build dir, [(body, response)]) per cycle

    def cycle(c: int) -> int:
        """One bulk then its searches; returns the docs the bulk added."""
        nonlocal n_docs
        n_before = n_docs
        batch = batches[c]
        t_cycle = time.perf_counter()
        t0 = proc.tree_cpu_s()
        status, resp = srv.post("/_bulk", gen.bulk_body(batch))
        bulk_s.append(proc.tree_cpu_s() - t0)
        new = [d for d in batch if d["url"] not in base]
        results = [it["index"]["result"] for it in resp.get("items", [])]
        r.attempted += 1
        r.failed += int(
            status != 200
            or resp["errors"]
            or results.count("created") != len(new)
            or results.count("noop") != len(batch) - len(new)
            or resp["n_docs"] != n_docs + len(new)
        )
        n_docs += len(new)
        r.input_bytes += gen.input_bytes(new)
        pairs = []
        for j, b in enumerate(searches[c * SEARCHES_PER_BULK : (c + 1) * SEARCHES_PER_BULK]):
            with _timed(r):
                st, sresp = srv.post("/_search", json.dumps(b).encode())
            if j == 0:
                first_s.append(r.wall_s[-1])
            r.attempted += 1
            if st != 200:
                r.failed += 1
            else:
                pairs.append((b, sresp))
        cycle_s.append(time.perf_counter() - t_cycle)
        served.append((srv.server._reader.index_dir, pairs))
        return int(resp.get("n_docs", n_docs)) - n_before

    try:
        if run.tracer is not None:
            _trace_bulk(run, r, cycle, cycle_s, first_s, split, man, len(rows))
        else:
            for c in range(BULK_CYCLES):
                cycle(c)
            r.throughput_per_s = BULK_DOCS * len(bulk_s) / sum(bulk_s)
    finally:
        srv.close()
    from docs_indexer_ray.query.reader import IndexReader

    # builds are immutable directories: a fresh reader on the build that
    # served a cycle answers exactly as the server's reader did
    for bdir, pairs in served:
        r.failed += checks.search_mismatches(IndexReader(bdir), pairs)
    r.index_bytes = index_bytes(out)
    _probe(run, r, out, rows)
    return r


def _trace_bulk(run, r, cycle, cycle_s, first_s, split, man, n_rows):
    tr = run.tracer
    for c in range(TRACE_CYCLES):
        cycle(c)
    untraced = sum(cycle_s)
    first_ms = statistics.median(first_s) * 1e3
    tr.counts.clear()
    n0 = len(tr.spans)
    with _traced(run):
        indexed = sum(cycle(c) for c in range(TRACE_CYCLES, 2 * TRACE_CYCLES))
    traced = sum(cycle_s[TRACE_CYCLES:])
    server_roots = [
        s for s in tr.spans[n0:] if s["parent"] is None and s["name"].startswith("serve_http.")
    ]
    server_spans = [s for root_s in server_roots for s in tr.under(root_s)]
    st = Tracer.self_times(server_spans)
    n_bulk = tr.n("serve_http.bulk", server_roots)
    n_search = tr.n("serve_http.search", server_roots)
    # client side of the traced cycles: HTTP, JSON and the benchmark loop
    st["workload.replay"] = traced - sum(s["end"] - s["start"] for s in server_roots)
    r.layers.update(layers.build_metrics(split, man, man.index_dir, n_rows))
    r.layers.update(layers.query_metrics(st, n_search))
    r.layers["query.reader.postings_hit_ratio"] = layers.hit_ratio(tr)
    r.layers["query.reader.open_s"] = tr.mean("query.reader.open", server_spans)
    r.layers["pipelines.incremental.filter_s"] = st.get("pipelines.incremental.update", 0.0) / n_bulk
    r.layers["pipelines.incremental.delta_build_s"] = tr.total(
        "pipelines.incremental.delta_build", server_spans
    ) / n_bulk
    r.layers["pipelines.incremental.docs_indexed_ratio"] = indexed / (n_bulk * BULK_DOCS)
    r.layers["index.merge.merge_s"] = tr.total("index.merge", server_spans) / n_bulk
    r.layers["serve_http.reload_s"] = tr.total("serve_http.reload", server_spans) / n_bulk
    r.layers["search.first_after_reload_ms"] = first_ms
    _summarize(r, st, "workload.replay", traced, untraced)
