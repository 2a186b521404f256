"""Spans and counts for the traced run, recorded from outside the package.

Nothing in ``searchengine_ray/`` is edited. While a :func:`query_probes`
or :func:`increment_probes` context is active, the benchmark swaps in
timing wrappers for the functions one layer calls in the next, and puts
the originals back on exit:

- ``SearchEngine.analyze`` (query analysis);
- ``read_table`` on the ``pyarrow.parquet`` module the engine imported
  (shard I/O, including reads made on the engine's I/O thread pool);
- the posting codec's ``dec_*`` calls (block decode);
- ``build_index`` and ``attach_generation`` as ``build_increment`` calls
  them.

Build-phase times come from the manifest lineage ``build_index`` already
writes. :func:`replay_build` runs a corpus slice through the same stage
functions in-process, so extract, analysis, explode, shard write and
encode can be timed one by one.

Spans are kept in memory and written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import tempfile
import threading
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from searchengine_ray.build import indexer as _indexer
from searchengine_ray.build import merge as _merge
from searchengine_ray.codec.posting import get_posting_codec
from searchengine_ray.extract.html import extract_batch
from searchengine_ray.query import engine as _engine
from searchengine_ray.stages.postings import PostingShardWriter, explode_partials
from searchengine_ray.stages.tokenize import AnalyzeStage


class Tracer:
    """In-memory spans: (name, request id, start, end, thread, attrs)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._by_rid: dict[int, list[dict]] = {}
        self.rid = 0  # request id the next child span belongs to
        self._next_rid = 0
        self._lock = threading.Lock()

    def add(self, name: str, t0: float, t1: float, **attrs) -> None:
        span = {"name": name, "rid": self.rid, "t0": t0, "t1": t1,
                "thread": threading.get_ident(), **attrs}
        with self._lock:
            self.spans.append(span)
            self._by_rid.setdefault(span["rid"], []).append(span)

    @contextlib.contextmanager
    def request(self, name: str, **attrs):
        """Top-level span; spans recorded inside it share its id."""
        with self._lock:
            self._next_rid += 1
            self.rid = self._next_rid
        t0 = time.perf_counter()
        try:
            yield self.rid
        finally:
            self.add(name, t0, time.perf_counter(), **attrs)

    def children(self, rid: int) -> list[dict]:
        return self._by_rid.get(rid, [])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _timed(tracer: Tracer, name: str, fn, measure=None):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        tracer.add(name, t0, time.perf_counter(), **(measure(args, out) if measure else {}))
        return out

    return wrapper


@contextlib.contextmanager
def _patched(patches: list[tuple[object, str, object]]):
    """Set ``obj.attr = value`` for each patch; restore the originals."""
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


class _TimedParquet:
    """The ``pyarrow.parquet`` module with ``read_table`` timed."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(pq, name)

    def read_table(self, source, *args, **kwargs):
        t0 = time.perf_counter()
        out = pq.read_table(source, *args, **kwargs)
        self._tracer.add("query.shard_io", t0, time.perf_counter(),
                         bytes=os.path.getsize(source))
        return out


def _blocks(args, out) -> dict:
    # dec_sorted decodes one block's ids; dec_sorted_many one per buffer;
    # tf/dl/position decodes belong to blocks already counted
    return {"blocks": len(args[0]) if isinstance(args[0], list) else 1}


@contextlib.contextmanager
def query_probes(tracer: Tracer, codec_name: str):
    codec = get_posting_codec(codec_name)
    patches = [
        (_engine.SearchEngine, "analyze",
         _timed(tracer, "query.analyze", _engine.SearchEngine.analyze)),
        (_engine, "pq", _TimedParquet(tracer)),
    ]
    for name in ("dec_sorted", "dec_sorted_many"):
        patches.append((codec, name, staticmethod(
            _timed(tracer, "codec.decode", getattr(codec, name), _blocks))))
    for name in ("dec_plain", "dec_plain_many", "dec_grouped"):
        patches.append((codec, name, staticmethod(
            _timed(tracer, "codec.decode", getattr(codec, name)))))
    with _patched(patches):
        yield


@contextlib.contextmanager
def increment_probes(tracer: Tracer):
    with _patched([
        (_indexer, "build_index",
         _timed(tracer, "build.increment.build", _indexer.build_index)),
        (_merge, "attach_generation",
         _timed(tracer, "build.attach", _merge.attach_generation)),
    ]):
        yield


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def query_split(tracer: Tracer, rid: int) -> dict:
    """Per-layer split of one traced ``search_bm25`` call. Each layer's
    time is the union of its spans clipped to the call; ``score`` is the
    call's time not covered by any child span (term slice, assemble,
    scoring and top-k)."""
    spans = tracer.children(rid)
    top = next(s for s in spans if s["name"] == "query")
    q0, q1 = top["t0"], top["t1"]
    by_layer: dict[str, list] = {"query.analyze": [], "query.shard_io": [], "codec.decode": []}
    out = {"wall": q1 - q0, "reads": 0, "bytes": 0, "blocks": 0}
    for s in spans:
        if s["name"] in by_layer:
            by_layer[s["name"]].append((max(s["t0"], q0), min(s["t1"], q1)))
        if s["name"] == "query.shard_io":
            out["reads"] += 1
            out["bytes"] += s["bytes"]
        elif s["name"] == "codec.decode":
            out["blocks"] += s.get("blocks", 0)
    for name, ivs in by_layer.items():
        out[name] = _union(ivs)
    out["query.score"] = out["wall"] - _union([iv for ivs in by_layer.values() for iv in ivs])
    return out


def lineage_layers(manifest) -> dict:
    """Per-phase build times the indexer records in the manifest."""
    analyze, postings = manifest.phases["analyze"], manifest.phases["postings"]
    shard_s = [v["seconds"] for v in postings.get("shards", {}).values()] or [0.0]
    spill = sum(
        ph.get("spill", {}).get("bytes_currently_spilled", 0) for ph in (analyze, postings)
    )
    return {
        "build.analyze.map_s": analyze["map_seconds"],
        "build.analyze.stats_s": analyze["stats_seconds"],
        "build.analyze_s": analyze["seconds"],
        "build.postings_s": postings["seconds"],
        "build.postings.shard_s_median": statistics.median(shard_s),
        "build.postings.shard_s_max": max(shard_s),
        "build.spill_bytes": spill,
    }


def replay_build(corpus_file, n_docs: int, num_shards: int, block_size: int = 128) -> dict:
    """Run ``n_docs`` of one corpus file through the build's stage
    functions in-process, timing each: ``extract_batch`` → the analyze
    stage → ``explode_partials`` → ``PostingShardWriter`` per shard, with
    the codec's ``enc_*`` calls timed inside the writer."""
    tracer = Tracer()
    batch = pq.read_table(corpus_file, columns=["url", "html"]).slice(0, n_docs)
    out = {"extract.bytes_in": sum(len(h) for h in batch["html"].to_pylist())}
    t0 = time.perf_counter()
    text = extract_batch(batch["html"])
    t1 = time.perf_counter()
    analyzed = AnalyzeStage(doc_id_mode="url_index")(
        pa.table({"text": text, "url": batch["url"]})
    )
    t2 = time.perf_counter()
    partials = explode_partials(analyzed, num_shards, True, {})
    t3 = time.perf_counter()
    codec = get_posting_codec("delta_varbyte")

    def _bytes_out(args, out):
        return {"bytes": sum(len(b) for b in out if b is not None)}

    encoders = [
        (codec, name, staticmethod(_timed(tracer, "codec.encode", getattr(codec, name), _bytes_out)))
        for name in ("enc_sorted_blocks", "enc_plain_blocks", "enc_grouped_blocks")
    ]
    dl = analyzed["dl"].to_numpy()
    with tempfile.TemporaryDirectory(dir=Path(corpus_file).parent) as tmp:
        writer = PostingShardWriter(
            tmp, block_size=block_size, avgdl=float(dl.mean()), k1=1.2, b=0.75,
            positional=True, resume=False,
        )
        with _patched(encoders):
            t4 = time.perf_counter()
            for s in pc.unique(partials["shard"]).to_pylist():
                writer(partials.filter(pc.equal(partials["shard"], s)))
            t5 = time.perf_counter()
    encode = [s for s in tracer.spans if s["name"] == "codec.encode"]
    encode_s = sum(s["t1"] - s["t0"] for s in encode)
    out.update({
        "extract.s": t1 - t0,
        "analysis.s": t2 - t1,
        "analysis.tokens": int(dl.sum()),
        "stages.explode.s": t3 - t2,
        "stages.explode.rows_out": partials.num_rows,
        # shard write self time: the writer's span minus its encode spans
        "stages.shard_write.s": (t5 - t4) - encode_s,
        "codec.encode.s": encode_s,
        "codec.encode.bytes_out": sum(s["bytes"] for s in encode),
        "replay.wall_s": t5 - t0,
    })
    return out
