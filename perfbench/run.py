"""The repository's end-to-end benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced rounds.
``--trace 1`` plays the same rounds untraced, traced, then untraced again,
and reports the per-layer metrics of the traced ones; the spans are written
to ``.bench_build/perfbench/``.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; earlier
lines describe the run.  Any wrong answer exits with status 1.

Everything the run writes (the on-demand native kernel build, WAL
directories, span dumps) stays under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: least rounds of an untraced run: each round sets up from scratch, and
#: ``setup_s`` is the median of the rounds' set-ups
SETUPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs of the same shape (self-tests)")
    return parser.parse_args(argv)


def _prepare_environment() -> Path:
    """Keep every file the run writes inside the checkout."""
    build = ROOT / ".bench_build"
    cache = build / "cache"
    tmp = build / "tmp"
    for path in (cache, tmp):
        path.mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(cache)
    os.environ["TMPDIR"] = str(tmp)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    out = build / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    return out


def answers_of(round_result) -> list:
    return [[None if r is None else frozenset(r.answers) for r in tenant]
            for tenant in round_result.results]


def run(args, out_dir: Path) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the run details."""
    from perfbench import harness, instrument
    from perfbench import metrics as measures
    from perfbench.tracing import Tracer, uninstall
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of "
                         f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = workload.tiny()
    native = harness.warm_native_kernel()
    run_dir = str(out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}")
    pool = workload.make_pool(workload.load_corpus())
    details = {"workload": workload.name, "sizes": workload.describe(), "seed": args.seed,
               "native_kernel": native}
    reference: dict = {}
    if args.trace == 0:
        count = max(SETUPS, round(args.seconds / workload.round_s))
        orders = [workload.make_streams(pool, args.seed, index) for index in range(count)]
        outcome = harness.play(workload, pool, orders, reference, None, run_dir, "round")
        rounds = outcome["rounds"]
        problems = outcome["problems"]
        values, facts = measures.end_to_end(rounds)
        details.update(facts)
    else:
        # untraced, traced, untraced again: the tracing overhead compares the
        # traced rounds with untraced ones on both sides of them in time
        count = max(1, int(args.seconds / (3 * workload.round_s)))
        orders = [workload.make_streams(pool, args.seed, index) for index in range(count)]
        before = harness.play(workload, pool, orders, reference, None, run_dir, "before")
        tracer = Tracer()
        module_tokens = instrument.instrument_modules(tracer, workload.wire, workload.durable)
        try:
            traced = harness.play(workload, pool, orders, reference, tracer, run_dir,
                                  "traced", recover=True)
        finally:
            uninstall(module_tokens)
        after = harness.play(workload, pool, orders, reference, None, run_dir, "after")
        rounds = traced["rounds"]
        problems = before["problems"] + traced["problems"] + after["problems"]
        if [answers_of(r) for r in before["rounds"]] != [answers_of(r) for r in rounds]:
            problems.append("traced and untraced rounds of one seed returned different answers")
        values, self_ns, breakdown = measures.per_layer(
            tracer, rounds, measures.qps(before["rounds"] + after["rounds"]),
            traced["recover_s"])
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(spans_path, self_ns)
        details.update({
            "rounds": len(rounds),
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "traced_client_wall_s": sum(sum(r.client_wall_ns) for r in rounds) / 1e9,
            "self_s_per_pass_by_layer": {
                layer: round(seconds, 4) for layer, seconds in sorted(
                    breakdown.items(), key=lambda item: -item[1])
            },
        })
    attempted = sum(round_.attempted for round_ in rounds)
    failed = attempted - sum(len(round_.completed) for round_ in rounds)
    errors = [error for round_ in rounds for tenant in round_.errors for error in tenant]
    details["errors"] = errors[:5]
    details["problems"] = problems[:10]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    return result, details


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    out_dir = _prepare_environment()
    result, details = run(args, out_dir)
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
