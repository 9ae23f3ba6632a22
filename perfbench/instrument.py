"""The public calls of each layer that the traced run proxies.

Every proxy is installed on an object the benchmark itself created (the base
method, its extractor, the engine and its components, the service) or on a
module attribute the program looks up at call time (the wire codecs, the WAL
record framer), and is removed again when the traced phase ends.
"""

from __future__ import annotations

from repro.graphs.graph import LabeledGraph
from repro.persist import wal
from repro.service import protocol

from .tracing import CountingProxy, SpanProxy, Tracer, install

#: wire codecs timed as ``wire.<function>`` spans
CODECS = (
    "graph_to_dict",
    "graph_from_dict",
    "result_to_dict",
    "result_from_dict",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "encode_frame",
    "decode_frame",
)


def query_name(value, depth: int = 0):
    """The query name carried by a graph, plan, result or wire envelope."""
    if depth > 3 or value is None:
        return None
    if isinstance(value, LabeledGraph):
        return value.name
    if isinstance(value, dict):
        if isinstance(value.get("query_name"), str):
            return value["query_name"]
        if "vertices" in value and isinstance(value.get("name"), str):
            return value["name"]
        for key in ("payload", "graph", "result"):
            found = query_name(value.get(key), depth + 1)
            if found is not None:
                return found
        return None
    for attribute in ("query_name", "query", "payload", "result"):
        inner = getattr(value, attribute, None)
        if inner is not None:
            if isinstance(inner, str):
                return inner
            found = query_name(inner, depth + 1)
            if found is not None:
                return found
    return None


def qid_resolver(tracer: Tracer):
    """Resolve a call's query id from its arguments, else its result."""

    def resolve(args, kwargs, result):
        candidates = (result,) if result is not None else (*args, *kwargs.values())
        for value in candidates:
            if isinstance(value, (bytes, str, int, bool)):
                continue
            name = query_name(value)
            if name is not None:
                return tracer.qid_of_name(name)
        return None

    return resolve


def instrument_method(tracer: Tracer, method) -> list:
    """Proxy the base method: build, extraction, filtering, verification."""
    qid = qid_resolver(tracer)

    def verifier_delta(field):
        # read through the method: each round installs a fresh verifier
        return lambda: getattr(method.verifier.stats, field)

    tokens = [
        install(method, "build_index",
                SpanProxy(tracer, "methods.build_index", method.build_index)),
        install(method.extractor, "extract",
                SpanProxy(tracer, "features.extract", method.extractor.extract, qid_of=qid)),
        install(method, "filter_candidates",
                SpanProxy(tracer, "methods.filter", method.filter_candidates, qid_of=qid)),
        install(method, "filter_supergraph_candidates",
                SpanProxy(tracer, "methods.filter_supergraph",
                          method.filter_supergraph_candidates, qid_of=qid)),
    ]
    deltas = {"tests": verifier_delta("tests"), "positives": verifier_delta("positives")}
    for attribute, name in (("verify", "isomorphism.verify"),
                            ("verify_supergraph", "isomorphism.verify_supergraph")):
        tokens.append(install(method, attribute, SpanProxy(
            tracer, name, getattr(method, attribute), qid_of=qid, deltas=deltas)))
    return tokens


def instrument_engine(tracer: Tracer, engine, service) -> list:
    """Proxy one round's engine stages, components, maintenance, persister."""
    qid = qid_resolver(tracer)
    tokens = [
        install(service, "submit",
                SpanProxy(tracer, "service.submit", service.submit, qid_of=qid)),
    ]
    for stage in ("plan_query", "verify_plan", "complete_query"):
        tokens.append(install(engine, stage, SpanProxy(
            tracer, f"engine.{stage}", getattr(engine, stage), qid_of=qid)))
    igq_tests = {"tests": lambda: engine.igq_verifier.stats.tests}
    if engine.isub is not None:
        tokens.append(install(engine.isub, "find_supergraphs", SpanProxy(
            tracer, "containment.find_supergraphs", engine.isub.find_supergraphs,
            qid_of=qid, deltas=igq_tests)))
    if engine.isuper is not None:
        tokens.append(install(engine.isuper, "find_subgraphs", SpanProxy(
            tracer, "containment.find_subgraphs", engine.isuper.find_subgraphs,
            qid_of=qid, deltas=igq_tests)))
    tokens.append(install(engine.maintenance, "flush", SpanProxy(
        tracer, "maintenance.flush", engine.maintenance.flush,
        attrs_of=lambda report: {"evicted": report.evicted, "inserted": report.inserted})))
    if engine.persister is not None:
        tokens.append(install(engine.persister, "record_flush", SpanProxy(
            tracer, "persist.record_flush", engine.persister.record_flush)))
    return tokens


def instrument_feature_memo(tracer: Tracer, service) -> list:
    """Proxy the service executor's query-feature memo (once it is open).

    The memo canonicalises every query before deciding whether to extract;
    the executor holds it privately, so this is the one proxy reached
    through a private attribute.
    """
    memo = getattr(getattr(service, "_executor", None), "_memo", None)
    if memo is None:
        return []
    return [install(memo, "extract", SpanProxy(
        tracer, "features.memo_extract", memo.extract, qid_of=qid_resolver(tracer)))]


def instrument_modules(tracer: Tracer, wire: bool, durable: bool) -> list:
    """Proxy the wire codecs and count the bytes the WAL/snapshots frame."""
    tokens = []
    if wire:
        qid = qid_resolver(tracer)
        for function in CODECS:
            tokens.append(install(protocol, function, SpanProxy(
                tracer, f"wire.{function}", getattr(protocol, function), qid_of=qid)))
    if durable:
        tokens.append(install(wal, "encode_record", CountingProxy(
            tracer, "persist.bytes", wal.encode_record, len)))
    return tokens
