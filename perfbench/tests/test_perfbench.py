"""Self-tests of the benchmark harness (tiny inputs; about a minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from perfbench import harness, run
from perfbench.tracing import END, ID, START, SpanProxy, Tracer, link, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _bench(*arguments, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _tiny(workload: str, trace: int):
    completed = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny")
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_every_named_metric_with_its_unit(workload, trace):
    details, result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    if trace:
        spans = [json.loads(line) for line in (ROOT / details["spans_file"]).open()]
        timed = [span for span in spans if span["qid"] is not None]
        assert timed
        assert all(span["self_ns"] >= 0 for span in spans)
        # every timed span hangs under its query's caller span, so the self
        # times of a run's queries sum to no more than the clients' wall time
        assert sum(span["self_ns"] for span in timed) <= details["traced_client_wall_s"] * 1e9


def test_self_times_split_each_instant_once_across_threads():
    # root [0, 100] in the caller thread; two overlapping cross-thread
    # children [10, 60] and [50, 90]; a same-thread grandchild [20, 30].
    spans = [
        [1, "service.query", 0, 100, None, 7, "caller", None],
        [2, "engine.plan_query", 10, 60, None, 7, "driver", None],
        [3, "methods.filter", 20, 30, 2, 7, "driver", None],
        [4, "wire.encode_response", 50, 90, None, 7, "driver", None],
    ]
    parents = link(spans, {7: 1})
    assert parents == {1: None, 2: 1, 3: 2, 4: 1}
    selves = self_times(spans, parents)
    assert all(value >= 0 for value in selves.values())
    assert sum(selves.values()) == 100
    assert selves == {1: 20, 2: 30, 3: 10, 4: 40}


def test_span_proxy_nests_per_thread_and_resolves_query_ids():
    tracer = Tracer()
    tracer.register("q1", 41)

    class Graphish:
        name = "q1"

    inner = SpanProxy(tracer, "methods.filter", lambda graph: "filtered")
    outer = SpanProxy(tracer, "engine.plan_query", lambda graph: inner(graph),
                      qid_of=lambda args, kwargs, result: tracer.qid_of_name(args[0].name))
    worker = threading.Thread(target=outer, args=(Graphish(),))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["methods.filter"][4] == by_name["engine.plan_query"][ID]
    assert by_name["methods.filter"][5] == by_name["engine.plan_query"][5] == 41
    assert by_name["engine.plan_query"][START] <= by_name["methods.filter"][START]
    assert by_name["methods.filter"][END] <= by_name["engine.plan_query"][END]


def test_correctness_gate_fails_on_a_corrupted_reference(monkeypatch, capsys):
    honest = harness.reference_answers

    def corrupted(method, pool, streams):
        reference = honest(method, pool, streams)
        key = next(iter(reference))
        reference[key] = reference[key] ^ {"not-a-graph"}
        return reference

    monkeypatch.setattr(harness, "reference_answers", corrupted)
    # main() points these into the checkout; give them back afterwards
    for variable in ("XDG_CACHE_HOME", "TMPDIR"):
        monkeypatch.setenv(variable, os.environ.get(variable, ""))
    status = run.main(["--workload", "hot-zipf", "--seed", "3", "--seconds", "0.2",
                       "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False


def test_exits_nonzero_without_printing_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
