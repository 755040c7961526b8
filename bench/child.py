"""One benchmark run inside a fresh interpreter.

Usage: python3 bench/child.py PLAN.json RESULT.json

Imports averager.cli, then issues the plan's operations back to back
(a closed loop: one command starts only after the previous one returned)
in the plan's number of whole passes. An operation is
one averager.cli.main call and, where the plan asks for it, one
find_roots call on the numeric second averaged function. Each operation's
outputs get a sha256 digest; only the first pass's outputs are kept for
the correctness check.

With tracing on, passes alternate untraced and traced, starting
untraced, so the same process yields both the per-layer numbers and the
tracing overhead.

The host speed probe (speed.py) runs before every operation and after
the last one of a pass. Each sample records the host's slowness around
its operation, the geometric mean of the probes before and after it.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import replace
from importlib.metadata import version
from pathlib import Path
from time import perf_counter


def digest(out: Path) -> str:
    """sha256 over the relative paths and bytes of every file under out."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def is_time(name: str) -> bool:
    """Whether a per-layer metric is a time (seconds or microseconds)."""
    return name.endswith(("_s", "_s.p50", "_us_per_point"))


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    started = perf_counter()
    import averager.cli as cli
    import_s = perf_counter() - started
    from averager import averaging, config, normal_form, shooting

    import speed
    from tracer import Tracer

    box = [tuple(plan["grid_r"]), tuple(plan["grid_w"])]
    out_root = Path(plan["out"])
    samples, passes, spans = [], [], []
    for k in range(plan["passes"]):
        traced = plan["trace"] and k % 2 == 1
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install([cli, shooting, averaging])
        fun_evals = 0
        pass_wall = 0.0
        pass_samples = []
        pass_start = perf_counter()
        slow_before = speed.slowness()
        try:
            for i, op in enumerate(plan["ops"]):
                out = out_root / f"p{k}" / f"op{i}"
                if out.exists():
                    shutil.rmtree(out)
                if tracer is not None:
                    tracer.op = i
                argv = [op["command"], "--config", op["config_path"],
                        "--out", str(out), "--quiet"]
                error = None
                t0 = perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # a traceback is a failed operation
                    code, error = -1, traceback.format_exc(limit=4)
                cmd_s = perf_counter() - t0
                extra_s = 0.0
                if op["find_roots"] and error is None:
                    cfg = config.load_config(op["config_path"])
                    system = normal_form.jerk_standard_form(
                        replace(cfg.unfolding, a1=0.0, b1=0.0))
                    if tracer is not None:
                        system = tracer.instrument_system(system)
                    quad = cfg.quadrature
                    evals = [0]

                    def fun(z, system=system, quad=quad, evals=evals):
                        evals[0] += 1
                        return averaging.average_second(system, z, quad)

                    t0 = perf_counter()
                    try:
                        roots = averaging.find_roots(
                            fun, box, grid=plan["find_roots_grid"])
                    except Exception:
                        roots, error = [], traceback.format_exc(limit=4)
                    extra_s = perf_counter() - t0
                    fun_evals += evals[0]
                    out.mkdir(parents=True, exist_ok=True)
                    (out / "find_roots.json").write_text(json.dumps(
                        [{"z": r.z.tolist(), "jac_det": r.jac_det,
                          "degree_sign": r.degree_sign.value,
                          "residual": r.residual} for r in roots]) + "\n",
                        encoding="utf-8")
                pass_wall += cmd_s + extra_s
                slow_after = speed.slowness()
                pass_samples.append({
                    "pass": k, "op": i, "traced": traced,
                    "cmd_s": cmd_s, "extra_s": extra_s,
                    "slowness": math.sqrt(slow_before * slow_after),
                    "code": code, "error": error, "digest": digest(out)})
                slow_before = slow_after
                if k > 0:
                    shutil.rmtree(out)
        finally:
            if tracer is not None:
                tracer.restore()
        samples += pass_samples
        slowness = statistics.median(s["slowness"] for s in pass_samples)
        record = {"traced": traced, "wall_s": pass_wall, "slowness": slowness,
                  "elapsed_s": perf_counter() - pass_start}
        if tracer is not None:
            # per-layer times in reference seconds, like every other time
            record["layers"] = {
                key: value / slowness if is_time(key) else value
                for key, value in
                tracer.layer_metrics(pass_wall, fun_evals).items()}
            record["counts"] = dict(sorted(tracer.counts.items()))
            spans.append(tracer.dump_spans())
        passes.append(record)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spans:
        Path(plan["spans"]).write_text(json.dumps(spans) + "\n",
                                       encoding="utf-8")
    result = {
        "import_s": import_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "samples": samples,
        "passes": passes,
        "versions": {"python": sys.version.split()[0],
                     "numpy": version("numpy"), "scipy": version("scipy")},
    }
    Path(result_path).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
