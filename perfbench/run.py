#!/usr/bin/env python3
"""Benchmark command: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload parse --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/`` directory and nothing is installed. The run generates its
inputs from the seed (set-up), then asks the workload's questions in
whole rounds until ``--seconds`` would be exceeded (always at least one
round), then checks the outputs against the independent re-implementation
in ``checks.py``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` every layer
function is wrapped and the metrics are the per-layer ones, as counts and
seconds per round. Each run also writes its result, and a traced run its
spans, under ``perfbench/results/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from layertrace import MEMO_QUERIES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"


class Run:
    """Counts and times the operations of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def query(self, ask):
        """Ask one question; returns the answer, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer:
                with self.tracer.span("bench.question"):
                    answer = ask()
            else:
                answer = ask()
        except Exception:  # one failed question must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        took = time.perf_counter() - start
        self.latencies.append(took)
        self.timed_s += took
        return answer

    def timed(self, work):
        start = time.perf_counter()
        result = work()
        self.timed_s += time.perf_counter() - start
        return result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, run, setup_s, rounds, peak_rss_mb):
    lat = run.latencies
    return {
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "round_s": _metric(run.timed_s / rounds, "s"),
        "q_per_s": _metric(len(lat) / math.fsum(lat), "1/s"),
        "q_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "q_p90_ms": _metric(percentile(lat, 90) * 1e3, "ms"),
        "coverage": _metric(workload.coverage(), "share"),
    }


def per_layer(tracer, setup_spans, rounds, memo_new, memo_last):
    metrics = {name: _metric(value, "s") for name, value in setup_spans.items()}
    timed = (
        "nnkernel.backward", "nnkernel.gru_step", "nnkernel.attention",
        "programmer.program_logprob", "trainer.sgd_step",
        "nnkernel.gru_step_np", "nnkernel.attention_np",
        "programmer.beam_search", "programmer.sample_programs",
        "assist.valid_tokens", "assist.feed", "interpreter.apply_function",
        "kb.forward", "kb.reachable_properties", "kb.comparable_properties",
        "kb.connecting_properties",
    )
    for name in timed:
        metrics[f"{name}.calls"] = _metric(tracer.calls(name) / rounds, "count")
        metrics[f"{name}.self_s"] = _metric(tracer.self_s(name) / rounds, "s")
    metrics["programmer.encode.calls"] = _metric(tracer.calls("programmer.encode") / rounds, "count")
    for name in ("trainer.iterative_ml", "trainer.augmented_reinforce", "trainer.evaluate"):
        metrics[f"{name}.s"] = _metric(tracer.total_s(name) / rounds, "s")
    metrics["trainer.replay_distinct_ratio"] = _metric(
        tracer.distinct_replays / tracer.replays if tracer.replays else 0.0, "ratio")
    for name, (candidates, feeds) in tracer.searches.items():
        metrics[f"{name}.candidates_per_feed"] = _metric(
            candidates / feeds if feeds else 0.0, "ratio")
    queries = sum(tracer.calls(name) for name in MEMO_QUERIES)
    metrics["kb.memo_entries"] = _metric(memo_last, "count")
    metrics["kb.memo_hit_ratio"] = _metric(1.0 - memo_new / queries if queries else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lisplab" / "__init__.py").is_file():
        print(f"error: no lisplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lisplab

    if Path(lisplab.__file__).resolve().parent != SRC / "lisplab":
        print(f"error: lisplab imported from {lisplab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - START
    setup_spans = {}
    if tracer:
        setup_spans = {f"{n}.s": tracer.total_s(n)
                       for n in ("taskgen.gen_kb", "taskgen.gen_dataset")}
        tracer.reset()

    run = Run(tracer)
    rounds, memo_new, memo_last, round_walls = 0, 0, 0, []
    while True:
        wall = time.perf_counter()
        if tracer:
            with tracer.span("bench.round"):
                workload.round(run)
        else:
            workload.round(run)
        round_walls.append(time.perf_counter() - wall)
        rounds += 1
        memo_last = workloads.memo_entries(workload.round_kb)
        memo_new += memo_last
        if sum(round_walls) + round_walls[-1] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    problems = run.problems + workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer:
        metrics = per_layer(tracer, setup_spans, rounds, memo_new, memo_last)
    else:
        metrics = end_to_end(workload, run, setup_s, rounds, peak_rss_mb)
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                   **workload.details,
                   round_wall_s=round_walls, problems=problems,
                   latencies_ms=[t * 1e3 for t in run.latencies])
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
