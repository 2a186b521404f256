"""Seeded BM25 query generator.

Query terms come from ``sources.webpages.build_vocab()``, the vocabulary
the synthetic corpus is sampled from. Because the corpus permutes that
vocabulary per seed before Zipf sampling, "head" and "tail" are defined
on the generated corpus itself: a word is *head* when its analysed term
is in at least ``HEAD_DF`` of the documents, *tail* when it occurs in at
least one document but fewer than that. Words absent from the corpus are
never drawn, so every query has matches.

Traffic shape, from published web query-log studies:

- Query length. Silverstein, Henzinger, Marais and Moricz, "Analysis of
  a very large web search engine query log", SIGIR Forum 33(1), 1999,
  count terms per query over about a billion AltaVista queries: 0 terms
  20.6 %, 1 term 25.8 %, 2 terms 26.0 %, 3 terms 15.0 %, more than 3
  12.6 %. ``LENGTH_P`` is that table without the empty queries, with
  "more than 3" drawn as 4 terms.
- Popularity. Query popularity in web logs is Zipf-like (Xie and
  O'Hallaron, "Locality in search engine queries and its implications
  for caching", INFOCOM 2002). Lempel and Moran, "Predictive caching and
  prefetching of query results in search engines", WWW 2003, find on an
  AltaVista log that the number of queries submitted x times falls as
  x^-2.4. A rank-frequency law f(r) ~ r^-s gives counts falling as
  x^-(1 + 1/s), so ``ZIPF_S`` = 1 / (2.4 - 1), about 0.71.

Scorer mix, a design choice of the benchmark rather than a traffic
measurement: a term is a head word with probability ``HEAD_P``, else a
tail word. Head-plus-tail queries are the ones the engine's ``auto``
rule sends to the block-max MaxScore path; single-term and same-class
queries take the exhaustive path. ``HEAD_P`` = 0.4 puts a large share on
each path; ``selective_frac`` reports the share actually selective
against a given engine.

The shares are met exactly, not drawn: every seed gets the same number
of queries of each shape (length, head terms), and the shapes take the
popularity ranks in the same interleaved order. A seed changes which
words a query holds, not how many long or head-heavy queries the stream
sends, so query cost does not move with the seed's luck.
"""

from __future__ import annotations

import math

import numpy as np

from searchengine_ray.sources.webpages import build_vocab

HEAD_DF = 0.05
HEAD_P = 0.4
_LENGTH_PCT = (25.8, 26.0, 15.0, 12.6)  # 1, 2, 3, >3 terms (Silverstein et al.)
LENGTH_P = tuple(p / sum(_LENGTH_PCT) for p in _LENGTH_PCT)
ZIPF_S = 1 / (2.4 - 1)  # from Lempel and Moran's x^-2.4


def split_vocab(analyze, df: dict[str, int], n_docs: int) -> tuple[list[str], list[str]]:
    """(head, tail) vocabulary words by the document frequency of their
    analysed term in the corpus (``df`` maps analysed term → df)."""
    head, tail = [], []
    for word in build_vocab():
        terms = analyze(word)
        if len(terms) != 1 or not df.get(terms[0]):
            continue
        (head if df[terms[0]] >= HEAD_DF * n_docs else tail).append(word)
    return head, tail


def shapes(n: int) -> list[tuple[int, int]]:
    """(length, head terms) of ``n`` queries in popularity order: each
    shape's share of ``LENGTH_P`` times the binomial head mix, rounded to
    whole queries by largest remainder, and spread evenly over the ranks."""
    weight = {}
    for length, p_len in enumerate(LENGTH_P, start=1):
        for h in range(length + 1):
            weight[(length, h)] = p_len * math.comb(length, h) * HEAD_P**h * (1 - HEAD_P) ** (length - h)
    exact = {s: n * w for s, w in weight.items()}
    count = {s: int(v) for s, v in exact.items()}
    for s in sorted(exact, key=lambda s: count[s] - exact[s])[: n - sum(count.values())]:
        count[s] += 1
    slots = [((j + 0.5) / c, i, s) for i, (s, c) in enumerate(count.items()) for j in range(c)]
    return [s for _, _, s in sorted(slots)]


def distinct_queries(
    seed: int, head: list[str], tail: list[str], n: int
) -> list[str]:
    """``n`` distinct queries, most popular first, deterministic for
    (seed, head, tail). A shape whose word pools are too small for a new
    distinct query gives its rank to the next shape."""
    rng = np.random.default_rng((seed, 0x51))
    order = shapes(n)
    out: dict[str, None] = {}
    i = 0
    while len(out) < n:
        length, n_head = order[i % n]
        i += 1
        for _ in range(100):
            kinds = [True] * n_head + [False] * (length - n_head)
            rng.shuffle(kinds)
            words = [
                pool[int(rng.integers(len(pool)))]
                for pool in (head if (k or not tail) else tail for k in kinds)
            ]
            q = " ".join(dict.fromkeys(words))
            if q not in out:
                out[q] = None
                break
    return list(out)


def zipf_stream(seed: int, n_distinct: int, length: int) -> np.ndarray:
    """Indices into the distinct queries (most popular first), drawn
    Zipf-popular by rank, in closed-loop order."""
    rng = np.random.default_rng((seed, 0x5A))
    p = 1.0 / np.arange(1, n_distinct + 1) ** ZIPF_S
    return rng.choice(n_distinct, size=length, p=p / p.sum())


def is_selective(dfs: list[int], topk: int = 10) -> bool:
    """The engine's ``method="auto"`` rule for block-max MaxScore."""
    return topk <= 1000 and len(dfs) >= 2 and min(dfs) * 4 <= max(dfs)


def selective_frac(engine, queries: list[str], topk: int = 10) -> float:
    """Share of ``queries`` the engine scores on the selective path, from
    the public ``analyze`` and ``doc_frequency`` calls."""
    if not queries:
        return 0.0
    hits = 0
    for q in queries:
        terms = dict.fromkeys(engine.analyze(q))
        dfs = [d for d in (engine.doc_frequency(t) for t in terms) if d]
        hits += is_selective(dfs, topk)
    return hits / len(queries)
