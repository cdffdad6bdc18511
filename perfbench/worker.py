"""One run of one workload in a fresh process; started by run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Set-up (interpreter start, ``import pseudocurve``, input generation) ends
with a line ``READY`` on stdout; ``--setup-only`` exits there, which is how
run.py times set-up.  Otherwise the worker runs whole rounds in a closed
loop with one caller until ``--seconds`` have passed and prints one JSON
line with every operation's latency and outcome.

With ``--trace 1`` it runs rounds untraced for half the time, then the very
same rounds traced, and adds the per-layer aggregates and trace sanity
checks to the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads
from workloads import CliRunner, Outcome

ROOT = Path(__file__).resolve().parent.parent
# rational_inertia calls in one verify.run_all at the seed code: 21 (k, l)
# pairs x 50 cases x 3 inertia calls (one direct, two in a0_equivalence_check).
SEED_CODE_INERTIA_CALLS = 3150


def build(workload: str, seed: int, runner: CliRunner) -> list[list[workloads.Op]]:
    workdir = Path("perfbench", "out", "inputs")  # relative: the CLI sees short paths
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = random.Random(f"{seed}:{workload}")
    if workload == "verify_all":
        return workloads.build_verify_all(rng, workdir)
    if workload == "exact_scaling":
        return workloads.build_exact_scaling(rng, workdir)
    return workloads.build_cli_mix(rng, workdir, runner)


def run_rounds(rounds, seconds=None, count=None, before_op=None):
    """As many whole rounds as fit in ``seconds`` (at least one), or ``count``."""
    records: list[tuple] = []
    start = time.perf_counter()
    done = 0
    while True:
        if count is not None:
            if done == count:
                break
        elif done:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                break
        for op in rounds[done % len(rounds)]:
            if before_op is not None:
                before_op(len(records))
            t0 = time.perf_counter()
            try:
                outcome = op.run()
            except Exception as exc:  # an operation that raises is a wrong answer
                outcome = Outcome("wrong", f"raised {type(exc).__name__}: {exc}")
            records.append((op.label, t0, time.perf_counter(), outcome))
        done += 1
    return records, done


def summary(records) -> list[list]:
    return [[label, t1 - t0, out.status, out.note] for label, t0, t1, out in records]


def peak_rss_kb() -> int:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def traced_run(workload: str, rounds, seconds: float, runner: CliRunner) -> dict:
    from tracer import Tracer

    plain, count = run_rounds(rounds, seconds=seconds / 2)
    tracer = Tracer()
    if workload == "cli_mix":
        runner.traced = True
        traced, _ = run_rounds(rounds, count=count)
        runner.traced = False
    else:
        tracer.install()
        try:
            traced, _ = run_rounds(rounds, count=count, before_op=lambda i: setattr(tracer, "op_id", i))
        finally:
            tracer.uninstall()

    sanity: list[str] = []
    mismatched = [p[0] for p, t in zip(plain, traced) if p[3].output != t[3].output]
    if mismatched:
        sanity.append(f"traced output differs from untraced for {mismatched[:3]}")
    self_s: dict = defaultdict(float, tracer.self_times())
    calls: Counter = tracer.calls()
    counts: Counter = Counter(tracer.counts)
    leftover = tracer.leftover_wrappers()
    main_ms: dict = defaultdict(list)
    for child in runner.child_traces:
        for name, value in child["self_s"].items():
            self_s[name] += value
        calls.update(child["calls"])
        counts.update(child["counts"])
        leftover += child["leftover"]
        main_ms[child["subcommand"]].append(child["main_ms"])
    if leftover:
        sanity.append(f"wrappers left installed: {sorted(set(leftover))}")
    inertia_per_op = []
    if workload == "verify_all":
        inertia_per_op = [
            sum(1 for s in tracer.spans if s[5] == i and ".rational_inertia." in s[2])
            for i in range(len(traced))
        ]
    return {
        "plain": summary(plain),
        "traced": summary(traced),
        "rounds": count,
        "plain_s": sum(r[2] - r[1] for r in plain),
        "traced_s": sum(r[2] - r[1] for r in traced),
        "self_s": dict(self_s),
        "calls": dict(calls),
        "counts": dict(counts),
        "main_ms": dict(main_ms),
        "sanity": sanity,
        "inertia_calls_per_op": inertia_per_op,
        "inertia_calls_expected": SEED_CODE_INERTIA_CALLS,
        "first_op_spans": [s for s in tracer.spans if s[5] == 0][:20000],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)

    import pseudocurve  # noqa: F401  (part of set-up by definition)

    runner = CliRunner(ROOT, dict(os.environ))
    rounds = build(args.workload, args.seed, runner)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_run(args.workload, rounds, args.seconds, runner)
    else:
        records, count = run_rounds(rounds, seconds=args.seconds)
        result = {"plain": summary(records), "rounds": count}
    result["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
