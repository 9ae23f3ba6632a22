"""Set-up, the closed-loop drivers and the correctness gate.

A run of one workload plays *rounds*.  Each round sets the service up from
scratch — corpus, base method, ``GraphQueryService``, index build,
precompile, persister and, over the wire, ``serve()`` — timing that as one
``setup_s`` sample, then drives one pass of the stream through it in a
closed loop: every caller waits for its answer before sending the next
query.  Rounds of one seed are different arrival orders of the same query
multiset.

Before the first round is driven, the reference answers are computed with
the base method alone — no iGQ — over that round's built index (untimed);
the method then gets a fresh verifier, so no memo or counter of that work
carries into the round.  Every answer is checked against the reference.
Queries that raise count as failed; a wrong answer fails the run.
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time
from dataclasses import dataclass, field

from repro.core.config import MIXED_MODE, SUPERGRAPH_MODE
from repro.core.engine import IGQ
from repro.isomorphism._ckernel_loader import native_kernel_available
from repro.service import GraphQueryService
from repro.service.client import connect
from repro.service.server import serve

from . import instrument
from .tracing import SpanProxy, Tracer, uninstall
from .workloads import Workload


@dataclass
class Built:
    """One set-up: the built method and its open service (and server)."""

    method: object
    service: GraphQueryService
    server: object
    persist_dir: str | None
    seconds: float
    tokens: list = field(default_factory=list)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.service.close()
        uninstall(self.tokens)


@dataclass
class RoundResult:
    """One pass of the stream: per tenant, results and caller latencies."""

    #: per tenant, per stream position: the result, or ``None`` if it failed
    results: list[list]
    #: per tenant, caller-side latency (ns) of each successful query
    latencies_ns: list[list[int]]
    #: per tenant, the exceptions raised
    errors: list[list[str]]
    #: round wall time (ns): first send to last answer
    wall_ns: int
    #: per tenant, that client's own loop time (ns)
    client_wall_ns: list[int]
    #: the round's set-up time (s)
    setup_s: float
    #: first query id of the round (ids number stream positions run-wide)
    qid_base: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(len(tenant) for tenant in self.results)

    @property
    def completed(self) -> list:
        return [result for tenant in self.results for result in tenant if result is not None]


def warm_native_kernel() -> bool:
    """Build (once per checkout) and load the native VF2 kernel, untimed."""
    return native_kernel_available()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def set_up(workload: Workload, persist_dir: str | None, tracer: Tracer | None = None) -> Built:
    """Construct, build and open the service; time it to ready.

    With a tracer the method's proxies go in before the build (so the build
    is traced) and the engine's before the service opens.
    """
    database = workload.load_corpus()
    method = workload.create_method()
    tokens = []
    if tracer is not None:
        tokens.extend(instrument.instrument_method(tracer, method))
    gc.collect()
    start = time.perf_counter()
    service = GraphQueryService(
        method, workload.engine_config(persist_dir), database=database
    )
    if tracer is not None:
        tokens.extend(instrument.instrument_engine(tracer, service.engine, service))
    service.open()
    mode = workload.mode
    database.precompile(targets=mode != SUPERGRAPH_MODE,
                        plans=mode in (SUPERGRAPH_MODE, MIXED_MODE))
    server = serve(service) if workload.wire else None
    seconds = time.perf_counter() - start
    if tracer is not None:
        tokens.extend(instrument.instrument_feature_memo(tracer, service))
    return Built(method, service, server, persist_dir, seconds, tokens)


def reference_answers(method, pool, rounds_streams) -> dict:
    """``(pool index, mode) -> answer set`` from the base method alone."""
    reference = {}
    for streams in rounds_streams:
        for tenant in streams:
            for _graph, mode, index in tenant:
                key = (index, mode)
                if key not in reference:
                    query = pool[index]
                    result = (method.supergraph_query(query) if mode == SUPERGRAPH_MODE
                              else method.query(query))
                    reference[key] = frozenset(result.answers)
    return reference


def check_answers(round_result: RoundResult, streams, reference) -> list[str]:
    """Every completed answer must equal the base method's; list mismatches."""
    mismatches = []
    for tenant, items in enumerate(streams):
        for (graph, mode, index), result in zip(items, round_result.results[tenant]):
            if result is None:
                continue
            expected = reference[(index, mode)]
            got = frozenset(result.answers)
            if got != expected:
                mismatches.append(
                    f"{mode} query {graph.name} (pool #{index}): expected "
                    f"{len(expected)} answers, got {len(got)} "
                    f"(missing {sorted(map(repr, expected - got))[:3]}, "
                    f"extra {sorted(map(repr, got - expected))[:3]})"
                )
    return mismatches


def _client_loop(call, items, tracer, qid_base, results, latencies, errors, walls, slot,
                 barrier=None) -> None:
    if barrier is not None:
        barrier.wait()
    clock = time.perf_counter_ns
    began = clock()
    for position, (graph, mode, _index) in enumerate(items):
        if tracer is not None:
            tracer.register(graph.name, qid_base + position)
        start = clock()
        try:
            result = call(graph, mode)
        except Exception as exc:  # noqa: BLE001 - a failed query is counted, not fatal
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - start)
        results.append(result)
    walls[slot] = (began, clock())


def run_round(workload: Workload, built: Built, streams, tracer: Tracer | None,
              qid_base: int) -> RoundResult:
    """Drive one pass of ``streams`` through ``built``'s open service."""
    tenants = len(streams)
    results = [[] for _ in range(tenants)]
    latencies = [[] for _ in range(tenants)]
    errors = [[] for _ in range(tenants)]
    walls = [None] * tenants
    before = dict(tracer.counters) if tracer is not None else {}
    qid_bases = [qid_base + sum(len(items) for items in streams[:tenant])
                 for tenant in range(tenants)]
    resolve = instrument.qid_resolver(tracer) if tracer is not None else None
    if workload.wire:
        clients = [connect(built.server.host, built.server.port, tenant=f"t{tenant}")
                   for tenant in range(tenants)]
        try:
            calls = [client.query for client in clients]
            if tracer is not None:
                calls = [SpanProxy(tracer, "service.client_query", call, qid_of=resolve)
                         for call in calls]
            barrier = threading.Barrier(tenants + 1)
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(calls[tenant], streams[tenant], tracer, qid_bases[tenant],
                          results[tenant], latencies[tenant], errors[tenant], walls, tenant,
                          barrier),
                    name=f"bench-client-{tenant}",
                )
                for tenant in range(tenants)
            ]
            gc.collect()
            for thread in threads:
                thread.start()
            barrier.wait()
            for thread in threads:
                thread.join()
        finally:
            for client in clients:
                client.close()
    else:
        call = built.service.query
        if tracer is not None:
            call = SpanProxy(tracer, "service.query", call, qid_of=resolve)
        gc.collect()
        _client_loop(call, streams[0], tracer, qid_bases[0], results[0], latencies[0],
                     errors[0], walls, 0)
    counters = {}
    if tracer is not None:
        counters = {key: value - before.get(key, 0) for key, value in tracer.counters.items()}
    return RoundResult(
        results=results,
        latencies_ns=latencies,
        errors=errors,
        wall_ns=max(end for _, end in walls) - min(start for start, _ in walls),
        client_wall_ns=[end - start for start, end in walls],
        setup_s=built.seconds,
        qid_base=qid_base,
        counters=counters,
    )


def measure_recovery(workload: Workload, built: Built, tracer: Tracer) -> tuple[float, list]:
    """Close a durable service, reopen its directory, time the recovery.

    The reopened engine must hold exactly the closed one's cache entries at
    the same query counter.
    """
    engine = built.service.engine
    entries = engine.cache.entry_ids()
    counter = engine.cache.query_counter
    built.close()
    reopen = SpanProxy(tracer, "persist.recover", IGQ.from_config)
    start = time.perf_counter()
    recovered = reopen(built.method, workload.engine_config(built.persist_dir))
    seconds = time.perf_counter() - start
    problems = []
    if recovered.cache.entry_ids() != entries or recovered.cache.query_counter != counter:
        problems.append(
            f"recovery from {built.persist_dir} restored "
            f"{len(recovered.cache.entry_ids())} entries at query "
            f"{recovered.cache.query_counter}; closed with {len(entries)} at query {counter}"
        )
    recovered.close()
    return seconds, problems


def play(workload: Workload, pool, rounds_streams, reference: dict, tracer: Tracer | None,
         run_dir, label: str, recover: bool = False) -> dict:
    """Set up and drive every round of ``rounds_streams``.

    ``reference`` is filled from the first round's built method when empty.
    Returns the rounds, answer mismatches and (with ``recover``) the last
    round's recovery time.
    """
    played, problems = [], []
    recover_s = 0.0
    qid_base = 0
    for index, streams in enumerate(rounds_streams):
        persist_dir = None
        if workload.durable:
            persist_dir = fresh_dir(os.path.join(run_dir, f"{label}{index}"))
        built = set_up(workload, persist_dir, tracer)
        if not reference:
            reference.update(reference_answers(built.method, pool, rounds_streams))
            built.method.verifier = built.method.verifier.fresh_clone()
        try:
            round_result = run_round(workload, built, streams, tracer, qid_base)
        except BaseException:
            built.close()
            raise
        qid_base += round_result.attempted
        played.append(round_result)
        problems.extend(check_answers(round_result, streams, reference))
        if recover and workload.durable and index == len(rounds_streams) - 1:
            recover_s, recovery_problems = measure_recovery(workload, built, tracer)
            problems.extend(recovery_problems)
        else:
            built.close()
        del built
        gc.collect()
    return {"rounds": played, "problems": problems, "recover_s": recover_s}
