"""The benchmark's fixed report lists and the reason each exists.

A report is (command, p, s, extra CLI arguments).  Every report also
gets the benchmark's --seed as the CLI's --seed; no workload passes
--threads.  The reasons are repeated, shortened, in BENCHMARK.json.

BENCHMARK.json gates paper and cached.  large_q is not gated: its
memory-bound table builds spread too widely between runs on a shared
2-core host to hold a 25% bound, but selfcheck.py traces it for the
field-table profile and it can be run by hand for field-table work.
"""

PAPER = [(cmd, p, s, ()) for cmd in
         ("verify", "conductor", "genus", "audit", "commutators", "prolong")
         for p, s in ((3, 1), (5, 1), (3, 2))]

WORKLOADS = {
    # The parameters users run.  conductor (3,2) enumerates 29,524 lines
    # twice, so local/genus carry close to half the pass; most of the
    # rest is interpreter start.  Field tables stay small.
    "paper": PAPER,
    # Field-table construction dominates in-process time and local is
    # idle: the one workload where peak RSS moves.  q = 16807..78125 is
    # above the q <= 1024 ADD-table cutoff (digitwise addition), while
    # paper's q <= 243 is below it, so the two cover both branches.
    "large_q": [
        ("verify", 3, 4, ()), ("verify", 7, 2, ()), ("verify", 5, 3, ()),
        ("prolong", 3, 4, ()), ("commutators", 3, 4, ()),
        ("prolong", 7, 2, ()),
    ],
    # The paper list against a cache directory the set-up pass filled:
    # every report is a hit, so only the cache read path and interpreter
    # start do work.  The cold pass is charged to setup_s.
    "cached": PAPER,
}


def report_key(report) -> str:
    cmd, p, s, extra = report
    return " ".join([cmd, "--p", str(p), "--s", str(s), *extra])


def cli_args(report, seed: int):
    cmd, p, s, extra = report
    return [cmd, "--p", str(p), "--s", str(s), *extra, "--seed", str(seed)]
