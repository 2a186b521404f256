"""Expected answers from ``query.oracle.FullScanOracle``, and the check.

The oracle scans every document in Python, so it runs outside every
timed window. An index that grows by increments is followed with
:class:`GrowingOracle`, which keeps one ``FullScanOracle`` and updates
its per-document tables and global statistics in place instead of
re-analysing the whole corpus at every commit. Scoring is always the
unmodified ``FullScanOracle.search_bm25``, run over the documents that
hold a query term (the others score nothing).

Tombstone semantics (as asserted in ``tests/test_merge.py``): a deleted
document disappears from results but still counts in N, df and avgdl
until ``compact``; after ``compact`` the statistics cover live documents
only.

:class:`OracleProcess` runs a ``GrowingOracle`` in a child process, so
the benchmark process, which hosts the engine and whose peak memory is
measured, never holds the oracle's tables.
"""

from __future__ import annotations

import contextlib
import math
import pickle
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pyarrow.parquet as pq

from perfbench import querygen
from searchengine_ray.query.oracle import FullScanOracle

TOPK = 10
SCORE_TOL = 1e-9
_URL_ID = re.compile(r"(\d+)\.html$")


def read_docs(path) -> dict[int, str]:
    """doc_id → text of a generated corpus, with the ``url_index`` ids the
    benchmark builds with."""
    tbl = pq.read_table(path, columns=["url", "text"])
    return {
        int(_URL_ID.search(u).group(1)): t
        for u, t in zip(tbl["url"].to_pylist(), tbl["text"].to_pylist())
    }


class GrowingOracle:
    """A ``FullScanOracle`` over a document set that gains increments,
    loses tombstoned documents to deletes, and drops them at compaction."""

    def __init__(self, docs: dict[int, str]):
        self.oracle = FullScanOracle(docs)
        self.tombstones: set[int] = set()
        self.holders: dict[str, set[int]] = {}  # term → docs holding it
        for d, tf in self.oracle.tf.items():
            for t in tf:
                self.holders.setdefault(t, set()).add(d)

    def add_file(self, path) -> None:
        self.add(read_docs(path))

    def add(self, docs: dict[int, str]) -> None:
        o = self.oracle
        o.docs = {**o.docs, **docs}
        for d, text in docs.items():
            toks = o.analyzer.analyze(text)
            o.tokens[d] = toks
            o.tf[d] = dict(Counter(toks))
            for t in o.tf[d]:
                o.df[t] = o.df.get(t, 0) + 1
                self.holders.setdefault(t, set()).add(d)
        self._restat()

    def delete(self, keyword: str) -> int:
        """Tombstone the live documents containing ``keyword``; returns how
        many, which is what ``SearchEngine.delete_by_keyword`` must return."""
        hit = set(self.oracle.search_and([keyword])) - self.tombstones
        self.tombstones |= hit
        return len(hit)

    def compact(self) -> None:
        o = self.oracle
        for d in self.tombstones:
            for t in o.tf.pop(d):
                o.df[t] -= 1
                self.holders[t].discard(d)
                if not o.df[t]:
                    del o.df[t], self.holders[t]
            del o.tokens[d]
        o.docs = {d: t for d, t in o.docs.items() if d not in self.tombstones}
        self.tombstones = set()
        self._restat()

    def _restat(self) -> None:
        # the same expressions as FullScanOracle.__init__, so stats are
        # bit-identical to an oracle built from scratch over o.docs
        o = self.oracle
        o.n = len(o.docs)
        o.avgdl = (sum(len(t) for t in o.tokens.values()) / o.n) if o.n else 0.0

    def top10(self, query: str) -> list[tuple[int, float]]:
        if not self.tombstones:
            return self._scan(query, TOPK)
        ranked = self._scan(query, None)
        return [(d, s) for d, s in ranked if d not in self.tombstones][:TOPK]

    def _scan(self, query: str, topk: int | None) -> list[tuple[int, float]]:
        # search_bm25 iterates self.docs and reads N, df and avgdl from
        # attributes, so scanning only the term holders gives the answer
        # of the scan over every document
        o = self.oracle
        terms = o.analyzer.analyze(query)
        every = o.docs
        o.docs = set().union(*(self.holders.get(t, ()) for t in terms))
        try:
            return o.search_bm25(query, topk)
        finally:
            o.docs = every

    def expected(self, queries: list[str]) -> dict[str, list[tuple[int, float]]]:
        return {q: self.top10(q) for q in queries}

    def has_tombstones(self) -> bool:
        return bool(self.tombstones)

    def vocabulary(self) -> tuple[list[str], list[str], list[str]]:
        """(head, tail, rare) query words on the current corpus: the
        :func:`querygen.split_vocab` split, and the tail words in at most
        1 % of the documents (delete keywords that tombstone a few
        documents rather than a share of the corpus)."""
        o = self.oracle
        head, tail = querygen.split_vocab(o.analyzer.analyze, o.df, o.n)
        rare = [w for w in tail if o.df[o.analyzer.analyze(w)[0]] <= 0.01 * o.n]
        return head, tail, rare

    def text_bytes(self) -> int:
        """UTF-8 bytes of extracted text over the live documents."""
        return sum(
            len(t.encode()) for d, t in self.oracle.docs.items() if d not in self.tombstones
        )


def matches(got, want) -> bool:
    """Rank-identical doc ids and scores within ``SCORE_TOL`` (relative)."""
    if len(got) != len(want):
        return False
    for (gd, gs), (wd, ws) in zip(got, want):
        if int(gd) != wd or not math.isclose(gs, ws, rel_tol=SCORE_TOL, abs_tol=SCORE_TOL):
            return False
    return True


class OracleProcess:
    """A :class:`GrowingOracle` over ``corpus`` in a child process
    (``python3 -m perfbench.oracle CORPUS``). Each method call is pickled
    to its standard input and waits for the answer on its standard
    output."""

    def __init__(self, corpus):
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.oracle", str(corpus)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=Path(__file__).resolve().parent.parent,
        )
        self.pid = self._proc.pid

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)

        def call(*args):
            pickle.dump((name, args), self._proc.stdin)
            self._proc.stdin.flush()
            ok, value = pickle.load(self._proc.stdout)
            if not ok:
                raise RuntimeError(f"oracle.{name}: {value}")
            return value

        return call

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._proc.stdin.close()  # end of input: the child exits
        try:
            self._proc.wait(30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve(corpus: str) -> None:
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not reach the channel
    oracle = GrowingOracle(read_docs(corpus))
    while True:
        try:
            name, args = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        try:
            reply = (True, getattr(oracle, name)(*args))
        except Exception as e:  # the caller re-raises it
            reply = (False, repr(e))
        pickle.dump(reply, out)
        out.flush()


if __name__ == "__main__":
    _serve(sys.argv[1])
