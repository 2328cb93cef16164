"""Tests for the benchmark itself (not for the program it measures).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, ROOT)

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _inputs(seed: int) -> bytes:
    corpus = gen.Corpus(seed)
    rows = gen.pages(seed, 300, corpus)
    base = sorted({r["url"] for r in rows})
    parts = [
        json.dumps(rows, sort_keys=True),
        json.dumps(gen.search_bodies(seed, 50, corpus), sort_keys=True),
        json.dumps(gen.tail_queries(seed, 50, gen.indexed_ranks(rows, corpus), corpus)),
        b"".join(gen.bulk_body(b) for b in gen.bulk_batches(seed, 2, 40, base, corpus)).decode(),
    ]
    return "\n".join(parts).encode()


def test_same_seed_same_bytes():
    assert _inputs(7) == _inputs(7)


def test_other_seed_other_bytes():
    assert _inputs(7) != _inputs(8)


def test_generator_shapes():
    corpus = gen.Corpus(3)
    rows = gen.pages(3, 500, corpus)
    urls = [r["url"] for r in rows]
    assert len(set(urls)) == 500
    assert len(rows) == 500 + 500 // gen.DUP_EVERY  # one newer crawl per 10th url
    base = sorted(set(urls))
    for batch in gen.bulk_batches(3, 3, 200, base, corpus):
        assert len(batch) == 200
        assert sum(d["url"] in set(base) for d in batch) == 20
    lo, hi = gen.TAIL_RANKS
    rank = {w: i + 1 for i, w in enumerate(corpus.words)}
    ranks = gen.indexed_ranks(rows, corpus)
    assert len(ranks) > 1000 and lo <= ranks[0] and ranks[-1] <= hi
    assert all(rank[t] in set(ranks) for q in gen.tail_queries(3, 200, ranks, corpus) for t in q)
    lo, hi = gen.HEAD_RANKS
    for b in gen.search_bodies(3, 200, corpus):
        assert all(lo <= rank[t] <= hi for t in b["query"]["match"]["text"].split())


def test_vocabulary_survives_the_analyzer():
    from docs_indexer_ray.functions.analyzer import Analyzer

    an = Analyzer("english")
    words = gen.vocabulary(5)[:3000]
    assert [an(w) for w in words] == [[w] for w in words]


def test_printed_metric_names_match_benchmark_json():
    spec = _spec()
    r = workloads.Result(
        setup_s=1.0, throughput_per_s=2.0, latencies_s=[0.001 * i for i in range(1, 101)],
        tail_pct=90, index_bytes=5, input_bytes=10,
    )
    printed = run.end_to_end(r, rss_mb=100.0)
    assert list(printed) == [m["name"] for m in spec["end_to_end"]]
    assert run.END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert [(n, u, b) for n, u, b, _ in layers.PER_LAYER] == [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.TAIL_PCT)


def test_benchmark_json_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])


def test_tail_has_ten_samples_beyond():
    for pct in (90, 95, 99):
        n = workloads.min_samples(pct)
        assert n * (1 - pct / 100) >= 10 - 1e-9
    # bulk_mixed runs a fixed number of cycles; build reports no percentile
    bulk_searches = workloads.BULK_CYCLES * workloads.SEARCHES_PER_BULK
    assert bulk_searches >= workloads.min_samples(workloads.TAIL_PCT["bulk_mixed"])
    assert workloads.TAIL_PCT["build"] is None


def test_same_hits_detects_corruption():
    want = [(3, 2.5), (1, 2.0), (7, 1.0)]
    assert checks.same_hits(list(want), want)
    assert not checks.same_hits([want[1], want[0], want[2]], want)  # order
    assert not checks.same_hits(want[:2], want)  # a hit dropped
    assert not checks.same_hits([(3, 2.5), (1, 2.1), (7, 1.0)], want)  # a score
    assert not checks.same_hits([(3, 2.5), (1, 2.0), (8, 1.0)], want)  # a doc id


@pytest.fixture(scope="module")
def small_index(tmp_path_factory):
    import ray

    started = not ray.is_initialized()
    if started:
        ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
    out = str(tmp_path_factory.mktemp("perfbench-idx"))
    rows = gen.pages(11, 120)
    res = workloads.build(gen.pages_table(rows), out)
    yield out, rows, res
    if started:
        ray.shutdown()


def test_gates_pass_on_true_results_and_fail_on_corrupted(small_index):
    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.reader import IndexReader

    out, rows, res = small_index
    assert workloads.build_mismatches(res, rows) == 0
    reader = IndexReader(out)
    bodies = gen.search_bodies(11, 5)
    pairs = []
    for b in bodies:
        hits = query_string_topk(reader, b["query"], k=b["size"])
        pairs.append((b, {"hits": {"hits": [{"_id": d, "_score": s} for d, s in hits]}}))
    assert checks.search_mismatches(reader, pairs) == 0
    hits = pairs[0][1]["hits"]["hits"]
    assert len(hits) >= 2
    hits[0], hits[1] = hits[1], hits[0]  # corrupt one hit list
    assert checks.search_mismatches(reader, pairs) == 1
    assert checks.oracle_mismatches(out, ["zzz " + bodies[0]["query"]["match"]["text"]]) == 0


def test_topk_gate_fails_on_corrupted(small_index):
    import docs_indexer_ray.query.bm25 as bm25
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.reader import IndexReader

    out, rows, _ = small_index
    reader = IndexReader(out)
    an = Analyzer("english")
    corpus = gen.Corpus(11)
    results = {
        tuple(an(" ".join(q))): bm25.topk(reader, an(" ".join(q)), k=10)
        for q in gen.tail_queries(11, 20, gen.indexed_ranks(rows, corpus), corpus)
        + [b["query"]["match"]["text"].split() for b in gen.search_bodies(11, 5)]
    }
    assert checks.topk_mismatches(reader, results) == 0
    key = next(k for k, v in results.items() if len(v) >= 2)
    results[key] = results[key][::-1]
    assert checks.topk_mismatches(reader, results) == 1


def test_tail_terms_are_indexed(small_index):
    from docs_indexer_ray.query.reader import IndexReader

    out, rows, _ = small_index
    reader = IndexReader(out)
    corpus = gen.Corpus(11)
    ranks = gen.indexed_ranks(rows, corpus)
    assert all(reader.postings(str(corpus.words[r - 1])) is not None for r in ranks)
