"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import querygen
from perfbench.pace import Pace
from perfbench.oracle import GrowingOracle, OracleProcess, matches
from perfbench.run import E2E_UNITS, LAYER_UNITS, SIZES, Run
from searchengine_ray.query.oracle import FullScanOracle
from searchengine_ray.sources.webpages import build_vocab

ROOT = Path(__file__).resolve().parent.parent

DOCS = {
    1: "cat dog toy house",
    2: "cat cat pizza summer",
    3: "dog pig toy",
    4: "summer house pizza pizza dog",
}
DELTA = {10: "cat pig winter", 11: "toy toy house garden", 12: "pizza cat"}


def _run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    p = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["serve_hot", "serve_refresh"])
def test_smoke_untraced(workload):
    detail, result = _run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(E2E_UNITS)
    for name, m in result["metrics"].items():
        assert m["unit"] == E2E_UNITS[name] and m["value"] > 0, name
    assert detail["failed_op_frac"] == 0.0
    assert detail["pace_ms"]["n"] > 0
    assert set(detail["wall_clock_metrics"]) == set(E2E_UNITS)


@pytest.mark.parametrize("workload", ["serve_hot", "serve_refresh"])
def test_smoke_traced_spans_cover_wall_time(workload):
    detail, result = _run_bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(LAYER_UNITS)
    # the layer spans split the wall time of the call they sit in
    assert detail["query_span_sum_frac"] == pytest.approx(1.0, abs=0.1)
    assert detail["build_span_sum_frac"] == pytest.approx(1.0, abs=0.1)
    assert "trace_overhead_pct" in detail
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "serve_refresh":
        # query.score is the rest of the call, so the sum above holds by
        # construction; the wrapped reads and decodes must have fired too
        assert m["query.shard_io.reads"] > 0 and m["query.shard_io.bytes"] > 0
        assert m["codec.decode.blocks"] > 0 and m["codec.decode.us"] > 0
        assert 0 < detail["query_span_measured_frac"] < 1
        assert detail["query_generations"] == [1, 2, 3]
    if workload == "serve_hot":
        # the warmed engine answers the stream from its caches
        assert m["query.shard_io.reads"] == 0
        assert m["query.generations"] == 1
    trace = ROOT / ".perfbench_work" / "traces" / f"{workload}-seed3.jsonl"
    assert trace.exists() and trace.stat().st_size > 0


class _Engine:
    """Stands in for SearchEngine: returns canned answers."""

    class manifest:
        codec = "delta_varbyte"
        generations = ["postings"]

    def __init__(self, answers):
        self.answers = answers

    def search_bm25(self, q, topk=10):
        return self.answers[q]


def test_corrupted_answer_counts_as_failed():
    o = FullScanOracle(DOCS)
    queries = ["cat", "pizza house", "dog toy"]
    expected = {q: o.search_bm25(q, 10) for q in queries}
    answers = dict(expected)
    (d0, s0), rest = answers["pizza house"][0], answers["pizza house"][1:]
    answers["pizza house"] = [(d0, s0 * (1 + 1e-6))] + rest  # score off
    answers["dog toy"] = list(reversed(expected["dog toy"]))  # rank off
    args = argparse.Namespace(workload="serve_hot", seed=1, seconds=1, trace=0, size="tiny")
    run = Run(args, SIZES["tiny"])
    run.query_block(_Engine(answers), queries, expected)
    assert (run.attempted, run.failed) == (3, 2)
    assert matches(expected["cat"], expected["cat"])
    assert not matches(expected["cat"], expected["cat"][:-1])


def test_query_generator_is_deterministic():
    o = FullScanOracle(DOCS)
    analyze = o.analyzer.analyze
    rare = build_vocab()[-4:]
    df = {analyze(w)[0]: 3 for w in ("search", "engine", "index")}
    df.update({analyze(w)[0]: 1 for w in rare})
    head, tail = querygen.split_vocab(analyze, df, n_docs=40)  # head: df >= 2
    # head: every vocabulary word that stems to a frequent term
    assert {"search", "engine", "index"} <= set(head)
    assert {analyze(w)[0] for w in head} == {analyze(w)[0] for w in ("search", "engine", "index")}
    assert sorted(tail) == sorted(rare)
    a = querygen.distinct_queries(7, head, tail, 12)
    assert a == querygen.distinct_queries(7, head, tail, 12)
    assert a != querygen.distinct_queries(8, head, tail, 12)
    assert len(set(a)) == 12
    assert all(1 <= len(q.split()) <= 4 for q in a)
    # every seed gets the same shapes in the same rank order
    n = 400
    order = querygen.shapes(n)
    assert len(order) == n
    lengths = Counter(length for length, _ in order)
    for length, p in enumerate(querygen.LENGTH_P, start=1):
        assert abs(lengths[length] - p * n) < 2
    assert order[:3] == [(1, 0), (2, 1), (1, 1)]
    s = querygen.zipf_stream(7, 12, 500)
    assert (s == querygen.zipf_stream(7, 12, 500)).all()
    assert querygen.is_selective([100, 20]) and not querygen.is_selective([100, 30])


def test_pace_child_times_the_reference():
    pace = Pace()
    try:
        got = pace.sample(3)
    finally:
        pace.close()
    assert len(got) == 3 and all(0 < t < 1 for t in got)
    assert pace.samples == got
    assert pace._proc.returncode == 0


def test_oracle_process_forwards_calls(tmp_path):
    ids = sorted(DOCS)
    pq.write_table(
        pa.table({"url": [f"http://x/{d}.html" for d in ids], "text": [DOCS[d] for d in ids]}),
        tmp_path / "part-0.parquet",
    )
    g = GrowingOracle(DOCS)
    o = OracleProcess(tmp_path)
    try:
        assert o.expected(["cat", "dog toy"]) == g.expected(["cat", "dog toy"])
        assert o.delete("pig") == g.delete("pig") == 1
        assert o.has_tombstones()
        with pytest.raises(RuntimeError):
            o.no_such_method()
    finally:
        o.close()


def _same_stats(grown: FullScanOracle, fresh: FullScanOracle) -> None:
    assert grown.n == fresh.n
    assert grown.avgdl == fresh.avgdl
    assert grown.df == fresh.df
    assert grown.tf == fresh.tf


def test_growing_oracle_matches_a_fresh_oracle():
    g = GrowingOracle(DOCS)
    g.add(DELTA)
    union = {**DOCS, **DELTA}
    _same_stats(g.oracle, FullScanOracle(union))
    for q in ("cat", "toy house", "pizza pig winter", "zebra"):
        assert g.top10(q) == FullScanOracle(union).search_bm25(q, 10), q
    assert g.delete("pig") == 2  # docs 3 and 10
    assert g.delete("pig") == 0  # already tombstoned
    # tombstoned docs leave the results but stay in the statistics
    fresh = FullScanOracle(union)
    want = [(d, s) for d, s in fresh.search_bm25("pig toy", None) if d not in (3, 10)]
    assert g.top10("pig toy") == want[:10]
    g.compact()
    live = {d: t for d, t in union.items() if d not in (3, 10)}
    _same_stats(g.oracle, FullScanOracle(live))
    assert g.top10("toy") == FullScanOracle(live).search_bm25("toy", 10)
    assert g.text_bytes() == sum(len(t.encode()) for t in live.values())
