"""Check that the benchmark is steady and that its trace shows the known profile.

Usage (from the repository root):

    python3 perfbench/selfcheck.py

Runs perfbench/run.py --trace 0 ten times per workload of BENCHMARK.json,
each with another seed, and repeats the whole set twice on the same code.
For every end-to-end metric it prints, per set, the median and the
spread (distance between the quartiles of `statistics.quantiles(n=4)`
as a share of the median), and fails when a spread exceeds the metric's
bound in BENCHMARK.json or when the two sets' medians differ, in either
direction, by more than the bound (larger median over smaller, minus 1).

It then makes one traced run per workload, and one of the ungated
large_q workload, and fails unless the trace reproduces the profile
measured when the benchmark was written:

- paper: local.reduce_mod_wp has the largest self time of any name, and
  the tower layer's self time is most of cli.main time in the prolong
  and commutators reports;
- large_q: ff.make_field takes at least 90% of cli.main time in the
  verify reports;
- cached: no make_field calls and a cache hit ratio of 1.0;
- every workload: no wp_solve calls and no failed report.

The results are written to .perfbench/selfcheck.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
TRACE_SEED = 1
RUNS = 10   # seeds per workload and set
SETS = 2    # sets of runs on the same code
# traced for its profile only; BENCHMARK.json does not gate it
PROFILE_ONLY = ["large_q"]


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def check_steady(spec: dict, sets) -> list:
    """sets[i][workload][metric] -> values; returns failure messages."""
    failures = []
    for workload in sets[0]:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for i, by_workload in enumerate(sets):
                values = by_workload[workload][name]
                med, sp = statistics.median(values), spread(values)
                medians.append(med)
                flag = ""
                if sp > bound:
                    flag = "  SPREAD OVER BOUND"
                    failures.append(f"{workload} {name} set {i + 1}: spread "
                                    f"{sp:.3f} > bound {bound}")
                elif sp > bound / 3:
                    flag = "  (spread over a third of the bound)"
                print(f"{workload:8s} {name:18s} set {i + 1}: median "
                      f"{med:.4f} spread {sp:.4f} bound {bound}{flag}")
            apart = max(medians) / min(medians) - 1
            print(f"{workload:8s} {name:18s} sets differ by {apart:.4f}")
            if apart > bound:
                failures.append(f"{workload} {name}: set medians differ by "
                                f"{apart:.3f} > bound {bound}")
    return failures


def trace_totals(workload: str, seed: int, prefix="") -> dict:
    """Sum [calls, s, self_s] per wrapped name over a traced run's reports
    whose key starts with `prefix` (a string or a tuple of strings)."""
    totals = {}
    trace = STATE_DIR / "traces" / f"{workload}-seed{seed}.jsonl"
    for line in trace.read_text().splitlines():
        report = json.loads(line)
        if not report["report"].startswith(prefix):
            continue
        for name, values in report["stats"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
    return totals


def check_profile(workload: str, seed: int, result: dict) -> list:
    m = result["metrics"]
    failures = []
    if not result["correct"] or m.get("error_rate", 1) != 0:
        failures.append(f"{workload}: traced run had failed reports")
    if m.get("tower.wp_solve.calls", 0) != 0:
        failures.append(f"{workload}: wp_solve was called")
    if workload == "paper":
        totals = trace_totals(workload, seed)
        top = max(totals, key=lambda k: totals[k][2])
        print(f"paper: largest self time {top} "
              f"({totals[top][2] / totals['cli.main'][1]:.3f} of cli.main)")
        if top != "local.reduce_mod_wp":
            failures.append(f"paper: largest self time is {top}")
        totals = trace_totals(workload, seed, ("prolong ", "commutators "))
        tower = sum(v[2] for k, v in totals.items() if k.startswith("tower."))
        share = tower / totals["cli.main"][1]
        print(f"paper: tower self-time share of prolong/commutators "
              f"in-process time {share:.3f}")
        if share <= 0.5:
            failures.append(f"paper: tower self-time share {share:.3f}")
    elif workload == "large_q":
        totals = trace_totals(workload, seed, "verify ")
        share = totals["ff.make_field"][1] / totals["cli.main"][1]
        print(f"large_q: make_field share of verify in-process time {share:.3f}")
        if share < 0.9:
            failures.append(f"large_q: make_field share {share:.3f} < 0.9")
    elif workload == "cached":
        if m["ff.make_field.calls"] != 0 or m["cli.cache_hit_ratio"] != 1.0:
            failures.append("cached: reports computed instead of hitting")
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    failures = []
    sets = []
    started = time.time()
    for s in range(SETS):
        by_workload = {}
        for workload in workloads:
            values = {}
            for i in range(RUNS):
                seed = 100 * (s + 1) + i + 1
                result = run_bench(workload, seed, seconds, 0)
                if not result["correct"]:
                    failures.append(f"{workload} seed {seed}: incorrect")
                for k, v in result["metrics"].items():
                    values.setdefault(k, []).append(v)
            by_workload[workload] = values
            print(f"set {s + 1} {workload}: {RUNS} runs done at "
                  f"{time.time() - started:.0f}s", flush=True)
        sets.append(by_workload)
    failures += check_steady(spec, sets)

    traced = {}
    for workload in workloads + PROFILE_ONLY:
        result = run_bench(workload, TRACE_SEED, seconds, 1)
        traced[workload] = result["metrics"]
        print(f"{workload}: trace_overhead "
              f"{result['metrics'].get('trace_overhead', 0):.3f}")
        failures += check_profile(workload, TRACE_SEED, result)

    STATE_DIR.mkdir(exist_ok=True)
    (STATE_DIR / "selfcheck.json").write_text(json.dumps(
        {"untraced": sets, "traced": traced, "failures": failures},
        indent=1, sort_keys=True))
    for f in failures:
        print(f"FAIL {f}")
    print("selfcheck " + ("failed" if failures else "passed")
          + f" in {time.time() - started:.0f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
