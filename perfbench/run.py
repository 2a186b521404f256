#!/usr/bin/env python3
"""Repo benchmark: index build and BM25 serving, end to end and per layer.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``serve_hot``, ``serve_refresh``. Each times
repeated full builds of its corpus before it serves. The engine runs on
one CPU (Ray with ``num_cpus=1``, its workers and the client pinned to
it); Ray's control-plane daemons and the oracle run on the others. Load
is one closed-loop client thread. The engine is driven only through
``build_index``, ``build_increment``, ``compact``,
``SearchEngine.search_bm25``, ``delete_by_keyword`` and
``doc_frequency``; every answer is checked against ``FullScanOracle``,
which runs in a child process of its own.

Build and query times are reported at a fixed host pace (``pace.py``):
wall-clock time scaled by a reference piece of work timed between the
benchmark's own operations, so a slow stretch of the shared host does
not read as a slower program.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (every other query is traced, so the traced run also
reports its own overhead). The line before the last is a detail record
(corpus size, CPU layout, steal, pace, raw wall-clock metrics, operation
counts, tracing overhead); the last line is the result record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
NUM_CPUS = 1
NUM_SHARDS = 16
PACE_EVERY = 10  # queries between two pace samples

# corpus and schedule sizes; "tiny" is for the self-tests
SIZES = {
    "full": dict(
        base_docs=2000, delta_docs=200, builds=5, hot_distinct=400,
        epilogue_block=100, refresh_cycles=2, refresh_block=667, block_readers=3,
        cycle_deletes=3, epilogue_deletes=6, replay_docs=500,
    ),
    "tiny": dict(
        base_docs=300, delta_docs=40, builds=2, hot_distinct=30,
        epilogue_block=20, refresh_cycles=2, refresh_block=20, block_readers=2,
        cycle_deletes=2, epilogue_deletes=2, replay_docs=50,
    ),
}

E2E_UNITS = {
    "setup_s": "s",
    "build_docs_per_s": "docs/s",
    "index_bytes_per_text_byte": "B/B",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "query_qps": "1/s",
}
LAYER_UNITS = {
    "build.analyze.map_s": "s",
    "build.analyze.stats_s": "s",
    "build.postings_s": "s",
    "build.spill_bytes": "B",
    "build.postings.shard_s_median": "s",
    "build.postings.shard_s_max": "s",
    "extract.s": "s",
    "extract.bytes_in": "B",
    "analysis.s": "s",
    "analysis.tokens": "count",
    "stages.explode.s": "s",
    "stages.explode.rows_out": "count",
    "stages.shard_write.s": "s",
    "codec.encode.s": "s",
    "codec.encode.bytes_out": "B",
    "build.increment.build_s": "s",
    "build.increment.docs_per_s": "docs/s",
    "build.attach.s": "s",
    "build.compact.s": "s",
    "build.compact.bytes_rewritten": "B",
    "query.delete.ms": "ms",
    "query.analyze.us": "us",
    "query.shard_io.us": "us",
    "query.shard_io.reads": "count",
    "query.shard_io.bytes": "B",
    "codec.decode.us": "us",
    "codec.decode.blocks": "count",
    "query.score.us": "us",
    "query.selective_frac": "fraction",
    "query.generations": "count",
    "host.steal_pct": "%",
}


def _cpu_ticks() -> tuple[int, int]:
    """(steal, busy) jiffies from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    steal = v[7] if len(v) > 7 else 0
    return steal, v[0] + v[1] + v[2] + steal


def _proc_status(pid: str) -> dict[str, str]:
    out = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, val = line.partition(":")
            out[key] = val.strip()
    return out


def _proc_stat(pid: str) -> list[str]:
    """Fields of /proc/<pid>/stat after the command name: state, ppid, ..."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def descendants() -> dict[str, list[str]]:
    """pid → stat fields of every process this one started, directly or not."""
    stats: dict[str, list[str]] = {}
    for p in Path("/proc").iterdir():
        if p.name.isdigit():
            try:
                stats[p.name] = _proc_stat(p.name)
            except OSError:
                continue
    children: dict[str, list[str]] = {}
    for pid, fields in stats.items():
        children.setdefault(fields[1], []).append(pid)
    out, stack = {}, list(children.get(str(os.getpid()), []))
    while stack:
        pid = stack.pop()
        out[pid] = stats[pid]
        stack.extend(children.get(pid, []))
    return out


def wait_ended(procs: dict[str, list[str]], timeout: float = 30.0) -> None:
    """Wait until each process in ``procs`` (from :func:`descendants`) has
    ended; kill the ones still running after ``timeout`` seconds."""

    def running() -> list[str]:
        alive = []
        for pid, fields in procs.items():
            try:
                now = _proc_stat(pid)
            except OSError:
                continue
            # same start time: not a new process that reused the pid
            if now[19] == fields[19] and now[0] not in "ZX":
                alive.append(pid)
        return alive

    deadline = time.monotonic() + timeout
    while (alive := running()) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in alive:
        with contextlib.suppress(OSError):
            os.kill(int(pid), signal.SIGKILL)
    deadline = time.monotonic() + 10
    while running() and time.monotonic() < deadline:
        time.sleep(0.1)


def ray_workers() -> list[str]:
    """Pids of the Ray worker processes this one started (descendants whose
    command line names a Ray worker)."""
    out = []
    for pid in descendants():
        try:
            cmd = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if b"ray::" in cmd or b"default_worker" in cmd:
            out.append(pid)
    return out


def pin_workers(cpus: set[int]) -> None:
    """Move each Ray worker's main thread, which runs its tasks, to
    ``cpus``; threads it starts later inherit that."""
    for pid in ray_workers():
        with contextlib.suppress(OSError):
            os.sched_setaffinity(int(pid), cpus)


def peak_rss_mb() -> float:
    """Peak resident memory of this process, which hosts the engine, plus
    the Ray worker processes it started. The oracle's and the pace's child
    processes are not counted."""
    total_kb = int(_proc_status(str(os.getpid()))["VmHWM"].split()[0])
    for pid in ray_workers():
        with contextlib.suppress(OSError):
            total_kb += int(_proc_status(pid).get("VmHWM", "0 kB").split()[0])
    return total_kb / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(-(-q * len(s) // 100)) - 1))]


def dir_bytes(path: Path, pattern: str = "*.parquet") -> int:
    return sum(f.stat().st_size for f in path.glob(pattern))


class Run:
    def __init__(
        self, args, size: dict,
        engine_cpus: set[int] | None = None, other_cpus: set[int] | None = None,
    ):
        self.args = args
        self.size = size
        self.traced = bool(args.trace)
        self.work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.fail_kinds: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.layers: dict[str, list[float]] = {}
        self.query_splits: list[dict] = []
        self.query_gens: list[int] = []
        # wall seconds per search_bm25 call of the workload's own blocks
        self.latency = {"traced": [], "untraced": []}
        self.tracer = None
        self.oracle = None
        self.pace = None
        # the engine's CPU and the one(s) for Ray's daemons and the oracle
        self.engine_cpus = engine_cpus
        self.other_cpus = other_cpus
        # pace samples taken among the timed queries
        self.query_pace: list[float] = []
        self.n_queries = 0
        self.detail: dict = {}
        if self.traced:
            from perfbench.trace import Tracer

            self.tracer = Tracer()

    # ---------- bookkeeping ----------

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def layer(self, key: str, value: float) -> None:
        self.layers.setdefault(key, []).append(value)

    def op(self, kind: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.fail_kinds[kind] = self.fail_kinds.get(kind, 0) + 1

    def pace_sample(self, n: int = 1) -> list[float]:
        """``n`` pace samples, or none when the run has no pace (unit
        tests that drive one method)."""
        return self.pace.sample(n) if self.pace is not None else []

    def pin(self, pid: int | str, cpus: set[int] | None) -> None:
        if cpus is not None:
            os.sched_setaffinity(int(pid), cpus)

    def guarded(self, kind: str, fn, *args, **kwargs):
        """Call ``fn``; an exception counts ``kind`` as a failed op."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.op(kind, False)
            return None

    # ---------- set-up pieces ----------

    def start_ray(self) -> float:
        import ray
        import ray.data

        t0 = time.perf_counter()
        # Ray's daemons start from this thread and keep its CPUs; the
        # client and the workers then move to the engine's CPU
        self.pin(0, self.other_cpus)
        # an absolute path under the checkout that stays short enough for
        # Ray's AF_UNIX sockets wherever the checkout lives
        ray.init(
            address="local", num_cpus=NUM_CPUS, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False,
            object_store_memory=256 << 20,
            _temp_dir="/proc/self/cwd/.perfbench_work/ray",
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.pin(0, self.engine_cpus)
        # start the worker and import the package there before any build
        ray.data.range(1).map_batches(_warm_worker).materialize()
        if self.engine_cpus is not None:
            pin_workers(self.engine_cpus)
        return time.perf_counter() - t0

    def generate(self, n_docs: int, seed_offset: int = 0) -> Path:
        from searchengine_ray.sources import generate_corpus

        out = self.work / f"corpus-{seed_offset}"
        generate_corpus(out, n_docs, seed=self.args.seed)
        return out

    def generate_delta(self, k: int) -> Path:
        """Delta ``k``: chunk ids past the base corpus, so url_index doc ids
        stay disjoint from every other generation."""
        import pyarrow.parquet as pq

        from searchengine_ray.sources.webpages import CHUNK, generate_chunk

        out = self.work / f"delta-{k}"
        out.mkdir(parents=True, exist_ok=True)
        chunk = (self.size["base_docs"] + CHUNK - 1) // CHUNK + k
        pq.write_table(
            generate_chunk(chunk, self.size["delta_docs"], self.args.seed),
            out / "part-00000.parquet",
        )
        return out

    # ---------- timed operations ----------

    def build(self, corpus: Path, index: Path):
        """One full build; records docs/s, the pace around it and the
        manifest lineage."""
        from searchengine_ray.build import build_index

        shutil.rmtree(index, ignore_errors=True)
        if self.engine_cpus is not None:
            pin_workers(self.engine_cpus)  # any worker Ray started since
        pace = self.pace_sample(5)
        t0 = time.perf_counter()
        m = build_index(
            str(corpus), index, html_column="html", doc_id_mode="url_index",
            num_shards=NUM_SHARDS, resume=False,
        )
        secs = time.perf_counter() - t0
        pace += self.pace_sample(5)
        self.sample("build_docs", m.n_docs)
        self.sample("build_s", secs)
        if pace:
            self.sample("build_pace", statistics.median(pace))
        if self.traced:
            from perfbench.trace import lineage_layers

            spans = lineage_layers(m)
            for k, v in spans.items():
                self.layer(k, v)
            self.layer("build.span_cover", (spans["build.analyze_s"] + spans["build.postings_s"]) / secs)
        return m

    def query_block(self, engine, queries, expected: dict, order=None, record=True) -> None:
        """Closed loop: each query is sent when the previous answer is back,
        and timed by the wall clock. In traced runs every other query runs
        with probes installed. With ``record`` false the answers are
        checked but the times and layer splits are not kept; with it, a
        pace sample is taken before every ``PACE_EVERY`` queries."""
        from perfbench.oracle import matches

        codec = engine.manifest.codec
        gens = len(engine.manifest.generations)
        for i, qi in enumerate(order if order is not None else range(len(queries))):
            if record and i % PACE_EVERY == 0:
                self.query_pace += self.pace_sample()
            q = queries[qi]
            traced = self.traced and i % 2 == 0
            try:
                if traced:
                    from perfbench.trace import query_probes, query_split

                    with query_probes(self.tracer, codec):
                        t0 = time.perf_counter()
                        with self.tracer.request("query", q=q) as rid:
                            got = engine.search_bm25(q, topk=10)
                        wall = time.perf_counter() - t0
                    split = query_split(self.tracer, rid)
                else:
                    t0 = time.perf_counter()
                    got = engine.search_bm25(q, topk=10)
                    wall = time.perf_counter() - t0
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.op("query", False)
                continue
            if record:
                self.latency["traced" if traced else "untraced"].append(wall)
                self.query_gens.append(gens)
                if traced:
                    self.query_splits.append(split)
                self.n_queries += 1
            self.op("query", matches(got, expected[q]))

    def increment(self, index: Path, delta: Path, k: int) -> None:
        from searchengine_ray.build.merge import build_increment

        def run():
            return build_increment(
                str(delta), index, self.work / f"scratch-{k}",
                html_column="html", doc_id_mode="url_index",
            )

        t0 = time.perf_counter()
        if self.traced:
            from perfbench.trace import increment_probes

            with increment_probes(self.tracer), self.tracer.request("increment") as rid:
                self.guarded("increment", run)
            for s in self.tracer.children(rid):
                if s["name"] in ("build.increment.build", "build.attach"):
                    self.layer(s["name"] + ("_s" if s["name"].endswith("build") else ".s"), s["t1"] - s["t0"])
        else:
            self.guarded("increment", run)
        self.layer("build.increment.docs_per_s", self.size["delta_docs"] / (time.perf_counter() - t0))
        shutil.rmtree(self.work / f"scratch-{k}", ignore_errors=True)

    def deletes(self, index: Path, keywords: list[str]) -> None:
        from searchengine_ray.query.engine import SearchEngine

        with SearchEngine(index) as writer:
            for kw in keywords:
                want = self.oracle.delete(kw)
                t0 = time.perf_counter()
                got = self.guarded("delete", writer.delete_by_keyword, kw)
                self.layer("query.delete.ms", 1e3 * (time.perf_counter() - t0))
                if got is not None:
                    self.op("delete", got == want)

    def compact(self, index: Path) -> None:
        from searchengine_ray.build.merge import compact

        had_tombs = self.oracle.has_tombstones()
        t0 = time.perf_counter()
        self.guarded("compact", compact, index)
        secs = time.perf_counter() - t0
        self.oracle.compact()
        self.layer("build.compact.s", secs)
        rewritten = dir_bytes(index / "postings")
        if had_tombs:
            rewritten += dir_bytes(index / "analyzed")
        self.layer("build.compact.bytes_rewritten", rewritten)

    def cold_block(self, index: Path, queries: list[str], readers: int, record=True) -> None:
        """Readers opened after a commit, each a fresh engine with empty
        caches answering its own slice of ``queries``. A reader's first
        queries load its shard files; with several readers per block the
        p99 samples many such loads, not the few slowest queries of one."""
        from searchengine_ray.query.engine import SearchEngine

        expected = self.oracle.expected(queries)
        for k in range(readers):
            with SearchEngine(index) as engine:
                self.query_block(engine, queries[k::readers], expected, record=record)

    def index_ratio(self, index: Path) -> None:
        self.sample(
            "index_bytes_per_text_byte",
            dir_bytes(index / "postings") / self.oracle.text_bytes(),
        )

    # ---------- shared pieces of the workloads ----------

    def make_queries(self, corpus: Path, n: int) -> list[str]:
        """Start the oracle on ``corpus`` and draw ``n`` distinct queries."""
        from perfbench import querygen
        from perfbench.oracle import OracleProcess

        self.oracle = OracleProcess(corpus)
        self.pin(self.oracle.pid, self.other_cpus)
        head, tail, self._rare = self.oracle.vocabulary()
        self.detail["vocab_head"], self.detail["vocab_tail"] = len(head), len(tail)
        return querygen.distinct_queries(self.args.seed, head, tail, n)

    def delete_keywords(self, k: int, n: int) -> list[str]:
        import numpy as np

        rng = np.random.default_rng((self.args.seed, 0xDE, k))
        return [self._rare[int(i)] for i in rng.integers(len(self._rare), size=n)]

    def write_epilogue(self, index: Path, queries: list[str]) -> None:
        """One commit of each write path on ``index``: an increment, a
        batch of deletes, a reader's cold block, a compaction and a cold
        block on the compacted index. The blocks check answers only: their
        times and splits stay out of the workload's query metrics."""
        delta = self.generate_delta(0)
        self.increment(index, delta, 0)
        self.oracle.add_file(delta)
        self.deletes(index, self.delete_keywords(0, self.size["epilogue_deletes"]))
        self.cold_block(index, queries, 1, record=False)
        self.compact(index)
        self.cold_block(index, queries, 1, record=False)

    def selective(self, index: Path, queries: list[str]) -> None:
        if not self.traced:
            return
        from perfbench.querygen import selective_frac
        from searchengine_ray.query.engine import SearchEngine

        with SearchEngine(index) as engine:
            self.layer("query.selective_frac", selective_frac(engine, queries))

    def replay(self, corpus: Path) -> None:
        if not self.traced:
            return
        from perfbench.trace import replay_build

        first = sorted(corpus.glob("*.parquet"))[0]
        for k, v in replay_build(first, self.size["replay_docs"], NUM_SHARDS).items():
            self.layer(k, v)

    # ---------- workloads ----------

    def timed_builds(self, corpus: Path) -> list[float]:
        """``builds`` full builds of ``corpus`` into index-0, index-1, ...;
        each later build must write the same posting bytes as the first,
        and is then removed. Returns each build's seconds from its start
        to an open engine; the first index is kept."""
        from searchengine_ray.query.engine import SearchEngine

        first, secs = self.work / "index-0", []
        for r in range(self.size["builds"]):
            index = self.work / f"index-{r}"
            t0 = time.perf_counter()
            if self.guarded("build", self.build, corpus, index) is None:
                continue
            SearchEngine(index).close()
            secs.append(time.perf_counter() - t0)
            if r:
                self.op("build", _same_postings(first, index))
                shutil.rmtree(index, ignore_errors=True)
        return secs

    def wl_serve_hot(self, seconds: float) -> None:
        """A Zipf stream of top-10 queries on one warmed engine."""
        from perfbench import querygen
        from searchengine_ray.query.engine import SearchEngine

        s = self.size
        t0 = time.perf_counter()
        corpus = self.generate(s["base_docs"])
        gen_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        queries = self.make_queries(corpus, s["hot_distinct"])
        expected = self.oracle.expected(queries)
        self.detail["oracle_s"] = time.perf_counter() - t0
        self.replay(corpus)

        unit_s = self.timed_builds(corpus)
        index = self.work / "index-0"
        engine = SearchEngine(index)
        t0 = time.perf_counter()
        for q in queries:  # warm-up: every distinct query once
            engine.search_bm25(q, topk=10)
        self.setup_unit = gen_s + statistics.median(unit_s) + time.perf_counter() - t0
        self.index_ratio(index)

        stream = querygen.zipf_stream(self.args.seed, len(queries), 200_000)
        self.window_start = time.perf_counter()
        deadline = self.window_start + seconds
        pos = 0
        while pos < 1000 or time.perf_counter() < deadline:
            self.query_block(engine, queries, expected, stream[pos : pos + 100])
            pos += 100
        self.window_end = time.perf_counter()
        engine.close()
        self.selective(index, queries)
        if self.traced:
            self.write_epilogue(index, queries[: s["epilogue_block"]])

    def wl_serve_refresh(self, seconds: float) -> None:
        """Commits beside reads: increment, deletes, a fresh reader's cold
        block, repeated on a fixed schedule; then compact and a last block.
        The schedule is fixed (not time-bounded) so every commit of the
        parent and the change sees the same generations and tombstones."""
        s = self.size
        t0 = time.perf_counter()
        corpus = self.generate(s["base_docs"])
        deltas = [self.generate_delta(k) for k in range(s["refresh_cycles"])]
        gen_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        # a new slice of distinct queries for each block, so p99 samples the
        # tail of a wide query mix rather than a few queries repeated
        block = s["refresh_block"]
        queries = self.make_queries(corpus, block * (len(deltas) + 1))
        self.detail["oracle_s"] = time.perf_counter() - t0
        self.replay(corpus)

        unit_s = self.timed_builds(corpus)
        index = self.work / "index-0"
        self.setup_unit = gen_s + statistics.median(unit_s)
        self.selective(index, queries)

        self.window_start = time.perf_counter()
        for k, delta in enumerate(deltas):
            self.increment(index, delta, k)
            self.oracle.add_file(delta)
            self.deletes(index, self.delete_keywords(k, s["cycle_deletes"]))
            self.cold_block(index, queries[k * block : (k + 1) * block], s["block_readers"])
        self.compact(index)
        self.index_ratio(index)
        self.cold_block(index, queries[-block:], s["block_readers"])
        self.window_end = time.perf_counter()

    # ---------- results ----------

    def e2e(self, setup_s: float, paced: bool) -> dict[str, float]:
        """The end-to-end metrics; with ``paced``, the build and query
        times are scaled to the pace ``NOMINAL_S``: each build by the
        median of the pace samples taken just before and after it, the
        queries by the median of the samples taken among them. Host speed
        moves between the builds of one run, so each build has its own.
        ``setup_s`` stays wall-clock: most of it is Ray's start-up, spread
        over every CPU, which the engine CPU's pace does not describe."""
        from perfbench.pace import NOMINAL_S

        def scale(samples: list[float]) -> float:
            return NOMINAL_S / statistics.median(samples) if paced else 1.0

        q = [t * scale(self.query_pace) for t in self.latency["untraced"]]
        return {
            "setup_s": setup_s,
            "index_bytes_per_text_byte": statistics.median(self.samples["index_bytes_per_text_byte"]),
            "peak_rss_mb": peak_rss_mb(),
            # median over the builds of each build's docs/s
            "build_docs_per_s": statistics.median(
                n / (t * scale([p]))
                for n, t, p in zip(
                    self.samples["build_docs"], self.samples["build_s"],
                    self.samples.get("build_pace", [1.0] * len(self.samples["build_s"])),
                )
            ),
            "query_p50_ms": 1e3 * percentile(q, 50),
            # p99 of each run of 1000 consecutive queries (10 samples beyond
            # it), median over those runs: one burst of host noise moves
            # one block's tail, not the whole run's
            "query_p99_ms": 1e3 * statistics.median(
                percentile(q[i : i + 1000], 99) for i in range(0, max(len(q) - 999, 1), 1000)
            ),
            "query_qps": len(q) / sum(q),
        }

    def per_layer(self, steal_pct: float) -> dict[str, float]:
        out = {k: statistics.median(v) for k, v in self.layers.items() if k in LAYER_UNITS}
        splits = self.query_splits
        n = max(len(splits), 1)
        for key, field, scale in (
            ("query.analyze.us", "query.analyze", 1e6),
            ("query.shard_io.us", "query.shard_io", 1e6),
            ("codec.decode.us", "codec.decode", 1e6),
            ("query.score.us", "query.score", 1e6),
            ("query.shard_io.reads", "reads", 1),
            ("query.shard_io.bytes", "bytes", 1),
            ("codec.decode.blocks", "blocks", 1),
        ):
            out[key] = scale * sum(s[field] for s in splits) / n
        out["query.generations"] = sum(self.query_gens) / max(len(self.query_gens), 1)
        out["host.steal_pct"] = steal_pct
        return out


def _warm_worker(batch):
    import searchengine_ray.stages.postings  # noqa: F401
    import searchengine_ray.stages.tokenize  # noqa: F401

    return batch


def _same_postings(a: Path, b: Path) -> bool:
    fa = sorted(p.name for p in (a / "postings").glob("*.parquet"))
    fb = sorted(p.name for p in (b / "postings").glob("*.parquet"))
    return fa == fb and all(
        (a / "postings" / f).read_bytes() == (b / "postings" / f).read_bytes() for f in fa
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["serve_hot", "serve_refresh"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    # the engine gets the highest CPU this process may use; Ray's daemons
    # and the oracle get the rest, or share it on a one-CPU host
    host_cpus = os.sched_getaffinity(0)
    engine_cpus = {max(host_cpus)}
    other_cpus = (host_cpus - engine_cpus) or engine_cpus
    os.chdir(ROOT)
    # Ray workers import the package from the repository root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    sys.path.insert(0, str(ROOT))
    try:
        import searchengine_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return 2
    # temporary files of Ray, pyarrow and the engine stay in the checkout
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")

    import ray

    from perfbench.pace import Pace

    run = Run(args, SIZES[args.size], engine_cpus, other_cpus)
    run.work.mkdir(parents=True, exist_ok=True)
    ticks0 = _cpu_ticks()
    session_dir = None
    try:
        ray_s = run.start_ray()
        session_dir = ray._private.worker.global_worker.node.get_session_dir_path()
        run.pace = Pace()  # a child on the engine's CPU, as this thread is now
        getattr(run, f"wl_{args.workload}")(args.seconds)
        steal1 = _cpu_ticks()
        steal_pct = 100.0 * (steal1[0] - ticks0[0]) / max(steal1[1] - ticks0[1], 1)
        setup_s = ray_s + run.setup_unit
        if args.trace:
            metrics, units = run.per_layer(steal_pct), LAYER_UNITS
            run.tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
            lat = run.latency
            if lat["traced"] and lat["untraced"]:
                run.detail["trace_overhead_pct"] = 100.0 * (
                    statistics.median(lat["traced"]) / statistics.median(lat["untraced"]) - 1
                )
            walls = sum(s["wall"] for s in run.query_splits)
            measured = sum(
                s["query.analyze"] + s["query.shard_io"] + s["codec.decode"] for s in run.query_splits
            )
            run.detail["query_span_sum_frac"] = (
                measured + sum(s["query.score"] for s in run.query_splits)
            ) / walls
            # the share the wrapped calls cover, query.score being the rest
            run.detail["query_span_measured_frac"] = measured / walls
            run.detail["build_span_sum_frac"] = statistics.median(run.layers["build.span_cover"])
        else:
            metrics, units = run.e2e(setup_s, paced=True), E2E_UNITS
            run.detail["wall_clock_metrics"] = run.e2e(setup_s, paced=False)
        pace = run.pace.samples
        run.detail.update(
            workload=args.workload, seed=args.seed, size=args.size,
            base_docs=run.size["base_docs"], num_cpus=NUM_CPUS,
            engine_cpus=sorted(engine_cpus), other_cpus=sorted(other_cpus),
            host_cpus=len(host_cpus), host_steal_pct=steal_pct,
            ray_start_s=ray_s, window_s=run.window_end - run.window_start,
            queries=run.n_queries, failed_op_frac=run.failed / max(run.attempted, 1),
            failed_by_kind=run.fail_kinds,
            samples=run.samples,
            query_generations=sorted(set(run.query_gens)),
            pace_ms={
                "median": 1e3 * statistics.median(pace),
                "quartiles": [1e3 * v for v in statistics.quantiles(pace, n=4)],
                "n": len(pace),
            },
        )
    finally:
        if run.oracle is not None:
            run.oracle.close()
        if run.pace is not None:
            run.pace.close()
        started = descendants()
        ray.shutdown()
        wait_ended(started)
        shutil.rmtree(run.work, ignore_errors=True)
        if session_dir:
            shutil.rmtree(session_dir, ignore_errors=True)

    print(json.dumps({"detail": run.detail}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
