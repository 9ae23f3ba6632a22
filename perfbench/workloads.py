"""The benchmark's workloads: sizes, engine configuration and seeded inputs.

Each workload fixes a corpus (a registry dataset at a fixed generator seed),
a base method, the cache geometry and how its query stream is drawn.  The
``--seed`` argument decides the arrival order of a fixed query multiset
(and, for the mixed workload, which queries go in which direction); the
corpus and the query pool are fixed.  Two seeds therefore replay the same
work in different orders, which is what the cache is sensitive to.

Why these three (also recorded in ``BENCHMARK.json``):

* ``hot-zipf`` — the working set fits the cache, so most queries hit Isub /
  Isuper; window maintenance and the probe dominate.  A verification change
  should read "no change" here.
* ``cold-scan`` — every query is new and the working set dwarfs the cache,
  so filtering, feature extraction and verification dominate.  A cache-side
  change should read "no change" here.
* ``wire-mixed-durable`` — two tenants over the socket front door, both
  query directions on one mixed-mode engine, every window flush journalled
  to the WAL: the write path (maintenance + persistence) beside reads, plus
  the scheduler and the NDJSON codecs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.core.config import (
    MIXED_MODE,
    SUBGRAPH_MODE,
    SUPERGRAPH_MODE,
    CacheConfig,
    EngineConfig,
    PersistConfig,
)
from repro.datasets.registry import load_dataset
from repro.methods import create_method
from repro.workloads.generator import QueryGenerator, WorkloadSpec
from repro.workloads.zipf import ZipfSampler

#: generator seed of every corpus: the index is the same for every ``--seed``
CORPUS_SEED = 11
#: generator seed of every query pool.  ``--seed`` orders the stream over
#: it: with a Zipf stream a handful of queries carry most of the traffic,
#: and per-query costs are heavy-tailed, so a pool drawn per seed would make
#: each seed a different workload, not another arrival order of the same one
POOL_SEED = 7


def zipf_counts(items: int, alpha: float, total: int) -> list[int]:
    """``total`` ranks in Zipf proportions, as a sorted multiset.

    Rank ``r`` appears ``total * p(r)`` times, rounded by largest remainder.
    Shuffling this fixed multiset (rather than drawing ``total`` ranks
    independently) keeps how often each pool query recurs — and so how many
    distinct queries a pass holds — the same for every seed; the seed
    decides the arrival order.
    """
    sampler = ZipfSampler(items, alpha=alpha)
    shares = [total * sampler.probability(rank) for rank in range(items)]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(items), key=lambda rank: (counts[rank] - shares[rank], rank))
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return [rank for rank in range(items) for _ in range(counts[rank])]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring for the why)."""

    name: str
    dataset: str
    scale: float
    max_path_length: int
    cache_size: int
    window: int
    #: distinct queries in the pool the stream draws from
    pool: int
    #: queries per tenant in one pass of the stream
    stream: int
    #: Zipf exponent of the stream's popularity over the pool (see
    #: :func:`zipf_counts`); ``None`` plays the first ``stream`` pool
    #: queries once each
    alpha: float | None
    query_sizes: tuple[int, ...]
    #: pool generator: ``(graph, node)`` popularity distributions
    pool_distribution: tuple[str, str]
    mode: str = SUBGRAPH_MODE
    tenants: int = 1
    wire: bool = False
    durable: bool = False
    #: nominal seconds of one round on a 2-CPU host; ``--seconds`` buys
    #: ``round(seconds / round_s)`` rounds, so a seed always plays the same
    #: rounds whatever the host's speed
    round_s: float = 10.0

    def engine_config(self, persist_dir: str | None = None) -> EngineConfig:
        """Default ``EngineConfig`` except for cache, window, mode, persist."""
        config = EngineConfig(
            mode=self.mode, cache=CacheConfig(size=self.cache_size, window=self.window)
        )
        if self.durable:
            config = replace(config, persist=PersistConfig(dir=persist_dir, fsync="flush"))
        return config

    def load_corpus(self):
        """Generate the corpus (excluded from ``setup_s``)."""
        return load_dataset(self.dataset, scale=self.scale, seed=CORPUS_SEED)

    def create_method(self):
        """A fresh, unbuilt base method."""
        return create_method("ggsx", max_path_length=self.max_path_length)

    def make_pool(self, database) -> list:
        """The workload's fixed query pool."""
        spec = WorkloadSpec(
            name=self.name,
            graph_distribution=self.pool_distribution[0],
            node_distribution=self.pool_distribution[1],
            alpha=self.alpha if self.alpha is not None else 1.4,
            query_sizes=self.query_sizes,
            seed=POOL_SEED,
        )
        return QueryGenerator(database, spec).generate(self.pool)

    def make_streams(self, pool: list, seed: int, round_: int) -> list[list[tuple]]:
        """Per tenant, the items of round ``round_`` of seed ``seed``.

        An item is ``(query graph, mode, pool index)``.  Each round is
        another arrival order of the same ``(query, mode)`` multiset.
        Embedded single-client streams repeat the pool's graph objects (what
        an in-process caller replaying popular queries does).  Over the wire
        each item is a copy named ``t<tenant>-<position>`` so every request
        in flight carries a distinct name; the server decodes fresh graphs
        either way.
        """
        rng = random.Random(f"{self.name}/{seed}/{round_}")
        streams = []
        for tenant in range(self.tenants):
            if self.alpha is None:
                picks = list(range(self.stream))
            else:
                picks = zipf_counts(len(pool), self.alpha, self.stream)
            if self.mode == MIXED_MODE:
                # a query's occurrences alternate direction (starting by
                # index and tenant), so the (query, direction) multiset is
                # fixed and each tenant's split is even
                occurrence: dict[int, int] = {}
                modes = []
                for index in picks:
                    seen = occurrence.get(index, 0)
                    occurrence[index] = seen + 1
                    modes.append((SUBGRAPH_MODE, SUPERGRAPH_MODE)[(seen + index + tenant) % 2])
            else:
                modes = [self.mode] * len(picks)
            pairs = list(zip(picks, modes))
            rng.shuffle(pairs)
            items = []
            for position, (index, mode) in enumerate(pairs):
                graph = pool[index]
                if self.wire:
                    graph = graph.copy(name=f"t{tenant}-{position}")
                items.append((graph, mode, index))
            streams.append(items)
        return streams

    def tiny(self) -> "Workload":
        """A seconds-long variant with the same shape (for self-tests)."""
        return replace(
            self,
            scale=0.2 if self.dataset == "aids" else 0.05,
            cache_size=max(self.cache_size // 10, 4),
            window=max(self.window // 5, 2),
            pool=min(self.pool, 40),
            stream=min(self.stream, 40),
            round_s=0.3,
        )

    def describe(self) -> dict:
        """The sizes recorded next to every result."""
        return {
            "dataset": f"{self.dataset} x{self.scale}",
            "method": f"ggsx path<={self.max_path_length}",
            "cache": self.cache_size,
            "window": self.window,
            "pool": self.pool,
            "stream_per_tenant": self.stream,
            "alpha": self.alpha,
            "query_edges": list(self.query_sizes),
            "mode": self.mode,
            "tenants": self.tenants,
            "wire": self.wire,
            "durable": self.durable,
        }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="hot-zipf",
            dataset="synthetic",
            scale=0.25,
            max_path_length=3,
            cache_size=300,
            window=20,
            pool=400,
            stream=1200,
            alpha=1.1,
            query_sizes=(4, 8, 12, 16, 20),
            pool_distribution=("zipf", "zipf"),
            round_s=9.5,
        ),
        Workload(
            name="cold-scan",
            dataset="aids",
            scale=2.0,
            max_path_length=4,
            cache_size=100,
            window=25,
            pool=700,
            stream=700,
            alpha=None,
            query_sizes=(12, 16, 20),
            pool_distribution=("uniform", "uniform"),
            round_s=7.0,
        ),
        Workload(
            name="wire-mixed-durable",
            dataset="aids",
            scale=1.0,
            max_path_length=4,
            cache_size=200,
            window=20,
            pool=300,
            stream=500,
            alpha=1.1,
            query_sizes=(4, 8, 12, 16, 20),
            pool_distribution=("zipf", "zipf"),
            mode=MIXED_MODE,
            tenants=2,
            wire=True,
            durable=True,
            round_s=8.5,
        ),
    )
}
