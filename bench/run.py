"""Benchmark of the averager pipeline, end to end and layer by layer.

One run of one workload:

    python3 bench/run.py --workload orbits-cold --seed 1 --seconds 30 --trace 0

Everything (all workloads, untraced then traced, every metric with its
unit; exits 1 if any correctness gate fails):

    python3 bench/run.py --all

A run generates its configs from the seed, times a fresh interpreter's
`import averager.cli` (set-up), then starts one more fresh interpreter
(bench/child.py) that issues the workload's commands back to back, in
as many whole passes as take about --seconds on the reference machine,
and finally checks every output. Every time is divided by the host's
slowness, probed next to it (bench/speed.py), so times are in reference
seconds; the raw seconds are printed too. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Run files go to .bench_runs/ in the checkout. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import verify
import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"

SETUP_REPS = 3
IMPORT_REPS = 3
SUBPROCESS_TIMEOUT = 60
CHILD_TIMEOUT = 140
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verified_per_s": "1/s",
    "command_s.p50": "s",
    "command_s.tail": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_us_per_point"):
        return "us"
    if name.endswith(("_s", "_s.p50")):
        return "s"
    if name.endswith(("_share", "_per_attempt")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class BenchError(RuntimeError):
    """The benchmark itself could not run to a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(args, env, timeout=SUBPROCESS_TIMEOUT):
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc


def setup_times(env) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that only import averager.cli.

    Returns the raw seconds and the host slowness around each of them.
    """
    times, slow = [], [speed.slowness()]
    for _ in range(SETUP_REPS):
        start = perf_counter()
        _python(["-c", "import averager.cli"], env)
        times.append(perf_counter() - start)
        slow.append(speed.slowness())
    return times, [(a * b) ** 0.5 for a, b in zip(slow, slow[1:])]


def import_profile(env) -> dict:
    """Median scipy share and total of `import averager.cli`, by -X importtime.

    In reference seconds, like every time of the benchmark.
    """
    scipy_s, total_s = [], []
    for _ in range(IMPORT_REPS):
        before = speed.slowness()
        proc = _python(["-X", "importtime", "-c", "import averager.cli"], env)
        slowness = (before * speed.slowness()) ** 0.5
        scipy_us = total_us = 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name.partition(".")[0] == "scipy":
                scipy_us += int(fields[0])
            if name == "averager":
                total_us = int(fields[1])
        scipy_s.append(scipy_us / 1e6 / slowness)
        total_s.append(total_us / 1e6 / slowness)
    return {"import.scipy_s": statistics.median(scipy_s),
            "import.total_s": statistics.median(total_s)}


def code_hash() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu": cpu, **versions,
            "threads": {var: "1" for var in THREAD_VARS}}


def op_seconds(s: dict, reference: bool = True) -> float:
    """An operation's time, in reference seconds or in raw seconds."""
    raw = s["cmd_s"] + s["extra_s"]
    return raw / s["slowness"] if reference else raw


def op_wall(samples, reference: bool = True) -> float:
    """Sum over operations of each operation's median time across passes."""
    per_op: dict[int, list] = {}
    for s in samples:
        per_op.setdefault(s["op"], []).append(op_seconds(s, reference))
    return sum(statistics.median(v) for v in per_op.values())


def tail(values):
    """(value, percentile, n): highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*")
               if p.is_file() and p.name != "find_roots.json")


def check_determinism(workload, seed, code, digests, counts) -> list[str]:
    """Compare with earlier runs of the same seed and code, then record."""
    path = RUNS / "determinism" / f"{workload}-seed{seed}.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    rec = store.setdefault(code, {"runs": 0, "digests": digests,
                                  "counts": None})
    problems = []
    if rec["digests"] != digests:
        bad = [i for i, (a, b) in enumerate(zip(rec["digests"], digests))
               if a != b]
        problems.append(f"output digests differ from earlier runs at ops {bad}")
    if counts is not None:
        if rec["counts"] is None:
            rec["counts"] = counts
        elif rec["counts"] != counts:
            keys = sorted(k for k in set(rec["counts"]) | set(counts)
                          if rec["counts"].get(k) != counts.get(k))
            problems.append(f"count metrics differ from earlier runs: {keys}")
    rec["runs"] += 1
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(store, indent=1) + "\n")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result document (see bench/README.md)."""
    run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    (run_dir / "configs").mkdir(parents=True)
    ops = W.make_plan(workload, seed)
    for i, op in enumerate(ops):
        path = run_dir / "configs" / f"op{i}.json"
        path.write_text(json.dumps(op["config"], indent=1) + "\n")
        op["config_path"] = str(path)
    plan = {"ops": ops, "passes": W.passes_for(workload, seconds, trace),
            "trace": trace,
            "out": str(run_dir / "out"), "spans": str(run_dir / "spans.json"),
            "grid_r": W.GRID_R, "grid_w": W.GRID_W,
            "find_roots_grid": W.FIND_ROOTS_GRID}
    (run_dir / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")

    env = child_env()
    setup = import_profile(env) if trace else dict(zip(
        ("samples", "slowness"), setup_times(env)))
    _python([str(BENCH / "child.py"), str(run_dir / "plan.json"),
             str(run_dir / "child.json")], env, timeout=CHILD_TIMEOUT)
    child = json.loads((run_dir / "child.json").read_text())
    samples = child["samples"]

    # pass 0 is untraced and keeps its outputs: gate every operation on it,
    # then require every later execution to reproduce it byte for byte
    first = {s["op"]: s for s in samples if s["pass"] == 0}
    op_errors, units = {}, 0
    for i, op in enumerate(ops):
        s = first[i]
        if s["error"]:
            errors, got = [s["error"].strip().splitlines()[-1]], 0
        else:
            errors, got = verify.check(op, run_dir / "out" / "p0" / f"op{i}",
                                       s["code"])
        if errors:
            op_errors[i] = errors
        units += got
    failed = sum(1 for s in samples
                 if s["op"] in op_errors or s["digest"] != first[s["op"]]["digest"]
                 or s["code"] != first[s["op"]]["code"])
    digests = [first[i]["digest"] for i in range(len(ops))]
    traced_passes = [p for p in child["passes"] if p["traced"]]
    counts = traced_passes[0]["counts"] if traced_passes else None
    problems = [f"traced pass {k} counts differ from the first traced pass"
                for k, p in enumerate(traced_passes) if p["counts"] != counts]
    code = code_hash()
    problems += check_determinism(workload, seed, code, digests, counts)

    plain = [s for s in samples if not s["traced"]]
    wall_s = op_wall(plain)
    cmd_times = [s["cmd_s"] / s["slowness"] for s in plain]
    tail_s, tail_pct, n_cmd = tail(cmd_times)
    unit_name = "grid_points_per_s" if workload == "average-grid" else "orbits_per_s"
    doc = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "seconds": seconds, "passes": len(child["passes"]),
        "ops_per_pass": len(ops), "attempted": len(samples), "failed": failed,
        "failed_ratio": failed / len(samples),
        "verified_units_per_pass": units, "verified_unit": unit_name,
        "command_s.tail_percentile": tail_pct, "command_s.samples": n_cmd,
        "op_errors": op_errors, "determinism_problems": problems,
        "op_seconds": [[op_seconds(x) for x in plain if x["op"] == i]
                       for i in range(len(ops))],
        "op_raw_seconds": [[op_seconds(x, False) for x in plain
                            if x["op"] == i] for i in range(len(ops))],
        "slowness": statistics.median(s["slowness"] for s in samples),
        "digests": digests, "counts": counts,
        "run_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "child_import_s": child["import_s"],
        "environment": environment(child["versions"]),
        "code_hash": code,
    }
    doc["correct"] = failed == 0 and not problems
    if trace:
        layers = {}
        for key in traced_passes[0]["layers"]:
            layers[key] = statistics.median(p["layers"][key]
                                            for p in traced_passes)
        layers.update(setup)
        layers["cli.output_bytes"] = sum(
            output_bytes(run_dir / "out" / "p0" / f"op{i}")
            for i in range(len(ops)))
        traced_wall = op_wall([s for s in samples if s["traced"]])
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - wall_s
        doc["metrics"] = {k: {"value": v, "unit": layer_unit(k)}
                          for k, v in layers.items()}
    else:
        setup_ref = [t / f for t, f in zip(setup["samples"],
                                           setup["slowness"])]
        values = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": wall_s,
            "verified_per_s": units / wall_s,
            "command_s.p50": statistics.median(cmd_times),
            "command_s.tail": tail_s,
            "peak_rss_mb": child["peak_rss_mb"],
        }
        doc["setup_samples_s"] = setup_ref
        doc["raw"] = {
            "setup_s": statistics.median(setup["samples"]),
            "wall_s": op_wall(plain, reference=False),
            "command_s.p50": statistics.median(s["cmd_s"] for s in plain),
        }
        doc["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                          for k, v in values.items()}
        doc["throughput"] = {unit_name: units / wall_s}
    out = RUNS / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


# -- reporting --------------------------------------------------------------

# expectations the traced run confirms: the layer whose outermost spans
# cover most of the traced wall time, and the layer that must not run
DESIGN = {
    "orbits-cold": ("shooting", 0.9, "averaging"),
    "eps-sweep": ("shooting", 0.9, "averaging"),
    "average-grid": ("averaging", 0.8, "shooting"),
}


def report(doc: dict) -> None:
    """Human-readable lines: every metric with its unit."""
    print(f"== {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}  "
          f"passes {doc['passes']} x {doc['ops_per_pass']} ops  "
          f"correct {doc['correct']}")
    for name, m in doc["metrics"].items():
        extra = ""
        if name == "command_s.tail":
            extra = (f"  (p{doc['command_s.tail_percentile']:.0f} of "
                     f"{doc['command_s.samples']} commands)")
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}{extra}")
    for name, value in doc.get("throughput", {}).items():
        print(f"  {name:42s} {value:.6g} 1/s")
    for name, value in doc.get("raw", {}).items():
        print(f"  {name + ' (raw seconds)':42s} {value:.6g} s")
    print(f"  {'host slowness (median)':42s} {doc['slowness']:.4g}  "
          f"(times above are raw seconds / slowness)")
    print(f"  {'failed_ratio':42s} {doc['failed_ratio']:.6g} ratio  "
          f"({doc['failed']} of {doc['attempted']} operations)")
    if doc["trace"]:
        layer, share, idle = DESIGN[doc["workload"]]
        got = doc["metrics"][f"{layer}.wall_share"]["value"]
        calls = sum(v for k, v in doc["counts"].items()
                    if k.startswith(idle + "."))
        print(f"  design check: {layer} spans cover {got:.1%} of traced wall "
              f"(expected >= {share:.0%}): {'met' if got >= share else 'NOT MET'}")
        print(f"  design check: {idle} counts {calls} (expected 0): "
              f"{'met' if calls == 0 else 'NOT MET'}")
    for i, errors in sorted(doc["op_errors"].items()):
        for error in errors:
            print(f"  FAIL op {i}: {error}")
    for problem in doc["determinism_problems"]:
        print(f"  FAIL determinism: {problem}")
    env = doc["environment"]
    print(f"  env: nproc {env['nproc']} (pinned to CPU {env['pinned_cpus']}), "
          f"{env['cpu']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, threads pinned to 1 "
          f"({', '.join(env['threads'])})")
    print(f"  outputs sha256 {doc['run_digest']}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "averager" / "cli.py").is_file():
        print(f"error: no averager sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    # a terminated run raises, so that subprocess.run kills and reaps the
    # interpreter it is waiting for instead of leaving it running
    signal.signal(signal.SIGTERM, _terminate)
    # one CPU for the whole run: the host's speed swings per CPU, and the
    # speed probes must see the CPU that the work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runs = ([(w, t) for w in W.WORKLOADS for t in (False, True)] if args.all
            else [(args.workload, bool(args.trace))])
    docs = []
    try:
        for workload, trace in runs:
            docs.append(run_workload(workload, args.seed, args.seconds, trace))
            report(docs[-1])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = docs[-1]
    if args.all:
        correct = all(d["correct"] for d in docs)
        print("all workloads correct" if correct else "CORRECTNESS GATE FAILED")
        return 0 if correct else 1
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
