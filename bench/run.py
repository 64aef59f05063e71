"""simpcrit benchmark: four seeded workloads, end-to-end and per-layer.

    python3 bench/run.py --workload census|torsion|spectra|flows|all
                         [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload is a fresh ``bench/worker.py`` process, so no
module-level state carries over from one pass into the next.  Passes run
one after another until the next one would end after ``--seconds``; at
least one runs (with ``--trace 1``, one untraced and one traced).  Every
output is checked exactly.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it
record the environment, the inputs, the reference loop's drift, every pass
(CPU and wall seconds) and every metric with its unit and sample count.
Metric times are CPU seconds of the worker process in reference seconds:
each job's time is multiplied by speed.REF_S over the median time of the
reference loop sampled while it ran and just before and after (see
speed.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, with
``trace.overhead_frac`` from the two kinds of pass.  The exit code is 0
only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("census", "torsion", "spectra", "flows")
END_TO_END = (
    ("ref_cpu_s", "s"),
    ("query_ref_cpu_s_p50", "s"),
    ("query_ref_cpu_s_p95", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PASS_TIMEOUT_S = 150
# samples on each side of a job that count towards its slowness, so that
# a job of a few milliseconds still gets about 0.8 s of samples around it
WINDOW = 4


class BenchError(Exception):
    pass


def git_commit():
    """The checkout's commit from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def calibrate():
    """(CPU, wall) seconds of the reference loop; medians of 50 runs."""
    cpu, wall = [], []
    for _ in range(50):
        w0, c0 = time.perf_counter(), time.process_time()
        speed.loop()
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - w0)
    return statistics.median(cpu), statistics.median(wall)


def run_pass(cfg):
    cfg = dict(cfg, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cfg['workload']} pass timed out after {PASS_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{cfg['workload']} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["traced"] = cfg["trace"]
    out["pass_s"] = time.monotonic() - cfg["t_spawn"]
    return out


def run_workload(workload, seed, seconds, trace, size):
    """Passes until the next would overrun ``seconds``."""
    passes = []
    start = time.monotonic()
    min_passes = 2 if trace else 1
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass({"workload": workload, "seed": seed, "size": size, "trace": traced}))
        elapsed = time.monotonic() - start
        longest = max(p["pass_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + longest > seconds:
            return passes


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def slowness(samples):
    """How many times slower than reference the machine ran over ``samples``."""
    return statistics.median(samples) / speed.REF_S


def job_slowness(p, i0, i1):
    """Slowness over the samples pass ``p`` took while a job ran, from
    sample ``i0`` to ``i1``, and ``WINDOW`` more on each side."""
    return slowness(p["speed_samples_s"][max(0, i0 - WINDOW):i1 + WINDOW])


def scaled_jobs(p):
    """Latencies of the timed jobs of pass ``p``, in reference seconds."""
    return [j["latency_s"] / job_slowness(p, *j["samples"]) for j in p["jobs"] if j["timed"]]


def end_to_end(passes):
    """Metric name -> (value, unit, sample count) from the untraced passes,
    in reference seconds.  Set-up is scaled by the first samples after it.

    Every pass runs the same job list, so a job's latency differs between
    passes only as the machine does: each job's latency is its median
    over the passes, and the query percentiles are taken over the list.
    """
    plain = [p for p in passes if not p["traced"]]
    per_pass = [scaled_jobs(p) for p in plain]
    latencies = [statistics.median(job) for job in zip(*per_pass, strict=True)]
    measured = len(latencies) * len(plain)
    values = {
        "ref_cpu_s": (statistics.median(sum(jobs) for jobs in per_pass), len(plain)),
        "query_ref_cpu_s_p50": (statistics.median(latencies), measured),
        "query_ref_cpu_s_p95": (percentile(latencies, 95), measured),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), len(plain)),
        "setup_s": (statistics.median(p["setup_s"] / job_slowness(p, 0, 0) for p in passes),
                    len(passes)),
    }
    return {name: (*values[name], unit) for name, unit in END_TO_END}


def per_layer(passes):
    """Metric name -> (value, unit, sample count) from the traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name, unit, _ in tracing.per_layer_specs():
        if name == "trace.overhead_frac":
            value = (
                statistics.median(sum(scaled_jobs(p)) for p in traced)
                / statistics.median(sum(scaled_jobs(p)) for p in plain)
                - 1
            )
        else:
            value = statistics.median(p["layers"][name] for p in traced)
        out[name] = (value, len(traced), unit)
    return out


def layer_shares(passes):
    """Self time per layer as a share of traced wall time, largest first."""
    traced = [p for p in passes if p["traced"]]
    wall = sum(p["wall_s"] for p in traced)
    totals = {}
    for p in traced:
        for name, value in p["layers"].items():
            if name.endswith(".self_s"):
                fn = name[: -len(".self_s")]
                totals[fn] = totals.get(fn, 0.0) + value
    return sorted(((v / wall, k) for k, v in totals.items()), reverse=True)


def report(workload, passes, trace, seed):
    """Print the human-readable block; return (metrics, attempted, failed)."""
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [(j["name"], j["failure"]) for p in passes for j in p["jobs"] if j["failure"]]
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'} run)")
    for item in passes[0]["inputs"]:
        hom = item.get("reduced_homology")
        print(f"input {item['name']}: f = {tuple(item['f_vector'])}"
              + (f", reduced homology {hom}" if hom else ""))
    for k, p in enumerate(passes, 1):
        print(f"pass {k}{' traced' if p['traced'] else ''}: "
              f"setup {p['setup_s']:.4f} s cpu / {p['setup_wall_s']:.4f} s wall, "
              f"jobs {p['cpu_s']:.4f} s cpu / {p['wall_s']:.4f} s wall, "
              f"{slowness(p['speed_samples_s']):.3f}x reference time "
              f"({len(p['speed_samples_s'])} samples), peak rss {p['peak_rss_mb']:.1f} MB, "
              f"{sum(j['timed'] for j in p['jobs'])} timed and "
              f"{sum(not j['timed'] for j in p['jobs'])} probe jobs, "
              f"{sum(1 for j in p['jobs'] if j['failure'])} failed")
    print(f"checks ran on {sum(p['checked'] for p in passes)}/{len(passes)} passes")
    for name, why in failures[:10]:
        print(f"FAILED {name}: {why}")
    print(f"error_rate = {len(failures)}/{attempted} = {len(failures) / attempted:.6f}")
    metrics = per_layer(passes) if trace else end_to_end(passes)
    for name, (value, count, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={count})")
    if trace:
        for share, fn in layer_shares(passes)[:6]:
            print(f"self time {fn}: {100 * share:.1f}% of traced wall")
    return {k: {"value": v, "unit": u} for k, (v, _, u) in metrics.items()}, attempted, len(failures)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    # exit through SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "simpcrit" / "__init__.py").is_file():
        print(f"error: no simpcrit package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"env python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"platform {platform.platform()}, commit {git_commit()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in names:
            before = calibrate()
            passes = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.size)
            after = calibrate()
            print(f"reference loop, cpu/wall: {1e3 * before[0]:.3f}/{1e3 * before[1]:.3f} ms "
                  f"before, {1e3 * after[0]:.3f}/{1e3 * after[1]:.3f} ms after "
                  f"({100 * (after[0] / before[0] - 1):+.1f}% cpu drift)")
            m, a, f = report(workload, passes, bool(args.trace), args.seed)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
