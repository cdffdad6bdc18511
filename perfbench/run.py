"""The pseudocurve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one report

Run it from the root of a checkout.  Each workload runs in a fresh worker
process (worker.py), one caller in a closed loop, with PSEUDOCURVE_JOBS
removed from its environment.  Set-up is timed separately over several fresh
processes.  With ``--trace 0`` the last stdout line is the JSON result with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate traced pass.  The lines before it are the human report: every
metric with its unit, the failing operation inputs, the run record, and for
traced runs the per-layer table.  Metric names and units come from
BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from workloads import DEFECTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("residues", "branches", "cusps", "indices", "cylinders", "verify")
SETUP_SAMPLES = 5
PROBE_SAMPLES = 5
RUN_LIMIT_S = 170  # the whole run, set-up samples included, ends before this


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PSEUDOCURVE_JOBS"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker_cmd(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]


def time_setup(cmd: list[str], env: dict, deadline: float) -> float:
    """Seconds from process start to the worker's READY line."""
    start = time.perf_counter()
    with subprocess.Popen(
        cmd + ["--setup-only"], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("set-up timed out")
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"set-up failed (exit {proc.returncode}):\n{err.strip()[-2000:]}")
    return elapsed


def run_worker(cmd: list[str], env: dict, deadline: float) -> dict:
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "READY":
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def probe_ms(code: str, env: dict, deadline: float, report_inner: bool) -> float:
    """Median over fresh interpreters: wall time of ``python -c code``, or
    the milliseconds the code itself prints."""
    samples = []
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        wall = (time.perf_counter() - start) * 1e3
        if proc.returncode != 0:
            raise BenchError(f"probe {code!r} failed:\n{proc.stderr.strip()[-2000:]}")
        samples.append(float(proc.stdout) if report_inner else wall)
    return statistics.median(samples)


def p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, size = _read(base + "level").strip(), _read(base + "size").strip()
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpu_model": cpu, "L2": caches.get("L2"),
        "L3": caches.get("L3"), "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def slowest_by_position(ops: list, rounds: int) -> list[float]:
    """Each position's slowest latency across the run's rounds.

    Position j holds the same kind of operation in every round.  On a shared
    machine other tenants make the same operation up to twice as fast for
    seconds to minutes at a time; the slowest round of each position is the
    loaded state, which repeats from run to run where medians do not."""
    per_round = len(ops) // rounds
    return [max(ops[r * per_round + j][1] for r in range(rounds)) for j in range(per_round)]


def end_to_end(result: dict, setup: list[float]) -> dict:
    ops = result["plain"]
    slowest = slowest_by_position(ops, result["rounds"])
    return {
        "ops_per_s": len(slowest) / sum(slowest),
        "op_ms_p50": statistics.median(slowest) * 1e3,
        "ok_share": sum(op[2] == "ok" for op in ops) / len(ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def layer_self_s(self_s: dict, layer: str) -> float:
    return sum(v for k, v in self_s.items() if k.startswith(layer + "."))


def per_layer(result: dict, names: list[str], probes: dict) -> dict:
    rounds = result["rounds"]
    self_s, calls, counts = result["self_s"], result["calls"], result["counts"]
    out = {}
    for name in names:
        key, _, kind = name.rpartition(".")
        if name in probes:
            value = probes[name]
        elif name == "trace.overhead_share":
            value = 1 - result["plain_s"] / result["traced_s"]
        elif kind == "main_ms":
            samples = result["main_ms"].get(key.split(".", 1)[1], [])
            value = statistics.median(samples) if samples else 0.0
        elif kind == "self_s":
            total = layer_self_s(self_s, key) if key in LAYERS else self_s.get(key, 0.0)
            value = total / rounds
        elif kind == "calls" and name not in counts:
            value = calls.get(key, 0) / rounds
        else:
            value = counts.get(name, 0) / rounds
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def failing_inputs(ops: list) -> list[str]:
    tally = Counter((op[2], op[3], op[0]) for op in ops if op[2] != "ok")
    return [f"    {status:6} {note[:60]:30} x{n}  {label[:110]}"
            for (status, note, label), n in sorted(tally.items())]


def expectation(name: str, layer_map: list[dict]) -> str:
    for entry in layer_map:
        if name.startswith(entry["prefix"]):
            moves = ", ".join(entry["moves"]) or "layer level only"
            stays = ", ".join(entry["stays"])
            return moves + (f"; no change on {stays}" if stays else "")
    return ""


def report(workload: str, result: dict, metrics: dict, units: dict, record: dict,
           trace: int, problems: list[str]) -> list[str]:
    ops = result["plain"]
    lines = [f"== {workload}: {len(ops)} ops in {result['rounds']} rounds, "
             f"closed loop, 1 caller (seed {record['seed']}, trace {trace})"]
    for name, value in metrics.items():
        share = ""
        if trace and units[name] == "s" and result.get("traced_s"):
            share = f"{100 * value * result['rounds'] / result['traced_s']:6.1f}% of traced wall"
        note = expectation(name, result.get("layer_map", [])) if trace else ""
        lines.append(f"  {name:58} {value:14.6f} {units[name]:6} {share:22} {note}")
    latencies = [op[1] for op in ops]
    if not trace:
        if len(ops) >= 100:
            beyond = len(ops) - math.ceil(0.9 * len(ops))
            tail = f"{p90(latencies) * 1e3:14.6f} ms     ({len(ops)} ops, {beyond} beyond it)"
        else:
            tail = f"{'not reported':>14} ms     (only {len(ops)} ops; needs 100)"
        lines.append(f"  {'op_ms_p90':58} {tail}")
        lines.append(f"  {'as measured: ops / sum of latencies':58} "
                     f"{len(ops) / sum(latencies):14.6f} 1/s")
        lines.append(f"  {'as measured: median latency':58} "
                     f"{statistics.median(latencies) * 1e3:14.6f} ms")
    bad = failing_inputs(ops + result.get("traced", []))
    lines.append(f"  {'error_share':58} {1 - sum(o[2] == 'ok' for o in ops) / len(ops):14.6f} share"
                 f"  failing operation inputs ({len(bad)} distinct):")
    lines += bad or ["    none"]
    seen = sorted({op[3] for op in ops + result.get("traced", []) if op[2] == "defect"})
    lines += [f"    known defect {note}: {DEFECTS[note]}" for note in seen]
    if trace:
        lines += trace_verdicts(workload, result)
    lines += [f"  problem: {p}" for p in problems]
    lines.append("  run record: " + json.dumps(record, sort_keys=True))
    return lines


def trace_verdicts(workload: str, result: dict) -> list[str]:
    wall = result["traced_s"]
    shares = {layer: layer_self_s(result["self_s"], layer) / wall for layer in LAYERS}
    lines = ["  layer self time as share of traced wall: "
             + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items())]
    if workload == "verify_all":
        top = max(shares, key=shares.get)
        saddle = result["self_s"].get("verify.suite_saddle", 0.0) + sum(
            v for k, v in result["self_s"].items() if k.startswith("residues."))
        lines.append(
            f"  residues has the largest self-time share on verify_all: {top == 'residues'} "
            f"(residues {100 * shares['residues']:.1f}%, largest {top}); the saddle suite "
            f"with its residues calls is {100 * saddle / wall:.1f}% of wall (ROADMAP: about 93%)")
        per_op = result["inertia_calls_per_op"]
        want = result["inertia_calls_expected"]
        lines.append(
            f"  rational_inertia calls per traced verify_all op: {sorted(set(per_op))} "
            f"(seed code: {want}; {'same' if set(per_op) == {want} else 'differs'})")
    return lines


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    cmd = worker_cmd(workload, seed, seconds, trace)
    time_setup(cmd, env, deadline)  # warm-up: fills the bytecode cache
    setup = [time_setup(cmd, env, deadline) for _ in range(SETUP_SAMPLES)]
    result = run_worker(cmd, env, deadline)
    record = run_record(workload, seed, seconds, trace)
    problems = [f"{op[3]}: {op[0][:120]}" for op in result["plain"] + result.get("traced", [])
                if op[2] == "wrong"]
    if trace:
        result["layer_map"] = json.loads((HERE / "layer_map.json").read_text())["entries"]
        problems += result["sanity"]
        probes = {
            "cli.interpreter_ms": probe_ms("pass", env, deadline, report_inner=False),
            "cli.import_ms": probe_ms(
                "import time; t = time.perf_counter(); import pseudocurve.cli; "
                "print((time.perf_counter() - t) * 1e3)", env, deadline, report_inner=True),
        }
        entries = spec["per_layer"]
        metrics = per_layer(result, [m["name"] for m in entries], probes)
    else:
        entries = spec["end_to_end"]
        metrics = end_to_end(result, setup)
        metrics = {m["name"]: metrics[m["name"]] for m in entries}
    units = {m["name"]: m["unit"] for m in entries}
    if not all(math.isfinite(v) for v in metrics.values()):
        problems.append("a metric is not finite")
    lines = report(workload, result, metrics, units, record, trace, problems)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    dump = {"record": record, "metrics": metrics, "setup_samples_s": setup,
            "ops": result["plain"], "problems": problems}
    if trace:
        dump.update({k: result[k] for k in ("self_s", "calls", "counts", "first_op_spans")})
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(dump))
    ops = len(result["plain"]) + len(result.get("traced", []))
    wrong = sum(op[2] == "wrong" for op in result["plain"] + result.get("traced", []))
    final = {
        "correct": not problems,
        "attempted": ops,
        "failed": wrong,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return final, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pseudocurve" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout that has src/pseudocurve and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    finals = {}
    try:
        for name in names:
            final, lines = run_one(name, args.seed, seconds, args.trace, spec)
            print("\n".join(lines), flush=True)
            finals[name] = final
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(finals[names[0]] if len(names) == 1 else finals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
