"""Self-test of the benchmark at tiny sizes: ``python3 bench/selftest.py``.

Runs all four workloads untraced and traced with ``--size smoke``, and
asserts that every metric BENCHMARK.json names is reported with its
unit, that every pass ran its output checks and found nothing wrong,
that a wrong answer does get caught, that tracing leaves every simpcrit
binding as it found it, and that the speed sampler samples while armed
and then disarms.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def check_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_specs()
    return spec


def check_unpatched_after_tracing():
    import simpcrit
    import simpcrit.cli  # noqa: F401

    def snapshot():
        out = {}
        for m in tracing._package_modules():
            for key, value in vars(m).items():
                out[(m.__name__, key)] = value
                if isinstance(value, type):
                    out.update({(m.__name__, key, a): v for a, v in vars(value).items()})
        return out

    before = snapshot()
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    try:
        import simpcrit.trees

        assert "simpcrit.trees.invariant_factors" in tracing.find_patched()
        simpcrit.trees.enumerate_trees(simpcrit.bipyramid(), 2)
        assert rec.calls["intlinalg.invariant_factors"] > 0, "intra-package calls were missed"
    finally:
        tracing.uninstall(patches)
    assert not tracing.find_patched()
    after = snapshot()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed, f"bindings changed by tracing: {changed}"


def check_sampler_disarms():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        deadline = time.monotonic() + 3 * speed.INTERVAL_S
        while time.monotonic() < deadline:
            speed.loop()
    assert len(sampler.samples) >= 3, "the sampler did not sample while armed"
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def check_wrong_answer_is_caught():
    p = worker.Pass({"workload": "census", "seed": 1, "size": "smoke"})
    p.jobs.append({"name": "census", "latency_s": 0.0, "failure": None})
    bad = {"input": {"f_vector": [1, 5, 10, 10]},
           "result": {"complete": True, "count": 1, "tau": "124", "torsion_histogram": {"1": 1}}}
    worker.check_census(p, [(0, bad)])
    assert p.jobs[0]["failure"], "a wrong tau passed the census check"


def check_runs(spec):
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--size", "smoke",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
            assert any(line.startswith("checks ran on") for line in lines)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            assert {m["name"]: m["unit"] for m in wanted} == {
                k: v["unit"] for k, v in result["metrics"].items()
            }
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok {workload} trace={trace}: {result['attempted']} jobs checked")


def main():
    spec = check_spec()
    check_unpatched_after_tracing()
    check_sampler_disarms()
    check_wrong_answer_is_caught()
    check_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
