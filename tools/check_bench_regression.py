#!/usr/bin/env python3
"""Gate one google-benchmark results file by ratios between its own rows.

Usage:
    check_bench_regression.py RESULTS.json

Every gate divides one row of the file by another row of the same file
and fails when the quotient exceeds its bound. Both rows ran in one
process on one host, so a gate measures the code, not the machine. A
sweep is gated by its largest row over its smallest; a kernel by the
in-binary reference it replaced (the tests/property/reference_* oracles
or the from-scratch rows of the same bench). A gate reads a row's
real_time, or a named user counter such as bench_replay's peak_rss_mb.

The gates are chosen by the benchmark binary that wrote the file, as
recorded in its `context.executable`. A row that appears more than once
(--benchmark_repetitions, or Repetitions(n) in the binary, which names
each run `<row>/repeats:n`) counts under its plain name with its median;
aggregate rows are ignored.

Exit status: 0 when every gate holds; 1 when a ratio exceeds its bound;
2 when the file cannot be gated: it is missing or is not benchmark JSON,
no gates are declared for its binary, or a gated row is absent or
reported an error. A missing row fails, so renaming a row cannot drop it
from its gate silently.
"""

import json
import os
import re
import statistics
import sys

TIME = "real_time"


def ratio(numerator, denominator, bound, field=TIME):
    """Row `numerator` over row `denominator`, both read at `field`, must
    stay at or under `bound`."""
    return ((numerator, field), (denominator, field), bound)


def sweep(family, smallest, largest, bound, field=TIME):
    """A sweep's largest row over its smallest; `family` holds `{}` where
    the size label goes."""
    return ratio(family.format(largest), family.format(smallest), bound, field)


HOLDS = (16, 64, 256)
NODES = (16, 1024, 16384, 65536)
INGEST = "bm_ingest/producers:{}/wal:{}/iterations:3/manual_time"
PUSH = "bm_ingest_push/{}/iterations:10/manual_time"
REPLAY = "bm_replay_stream/{}/iterations:1/manual_time"

GATES = {
    "bench_core_micro": [
        # The flat profile against the std::map profile it replaced
        # (tests/property/reference_profile.hpp), at equal holds.
        *(ratio(f"bm_profile_{kernel}/{n}",
                f"bm_profile_{kernel}/reference/{n}", 0.75)
          for kernel in ("subtract", "earliest_fit") for n in HOLDS),
        # Holds appended in time order take the push_back fast path.
        *(ratio(f"bm_profile_subtract_append/{n}",
                f"bm_profile_subtract/{n}", 0.5) for n in HOLDS),
        # The tail walk judged from its staircase against the same walk
        # running earliest_fit for every tail job.
        ratio("bm_plan_tail/staircase/1000", "bm_plan_tail/generic/1000",
              0.3),
        # One priority per job against priorities inside the comparator.
        ratio("bm_prioritize/500", "bm_prioritize/reference/500", 0.5),
        # Growth across sizes catches a worse complexity. The plan walk
        # grows ~20x from 50 to 1,000 jobs; a per-job scan of the input
        # (O(n^2)) reads 141-256.
        sweep("bm_plan_jobs/{}", 50, 1000, 60),
        sweep("bm_prioritize/{}", 50, 500, 25),
        sweep("bm_dfs_admit/{}", 5, 100, 12),
    ],
    "bench_scale": [
        # The indexed allocation kernels stay near-flat from 16 to 64k
        # nodes; an O(nodes) term grows ~4,000x.
        *(sweep(f"bm_scale_{kernel}/indexed/{{}}", 16, 65536, 50)
          for kernel in ("alloc_release", "spread_release_all", "held_by",
                         "measure_request", "sched_iteration")),
        # The one-pass invariant check against the check it replaced
        # (tests/property/reference_invariants.hpp), on the same state.
        *(ratio(f"bm_scale_check_invariants/{n}",
                f"bm_scale_check_invariants/reference/{n}", 0.75)
          for n in NODES),
        # Incremental planning against the from-scratch rebuild on the
        # same queue.
        *(ratio(f"bm_scale_queue_depth/incremental/{d}",
                f"bm_scale_queue_depth/rebuild/{d}", 0.3)
          for d in (1000, 10000, 100000)),
        *(ratio(f"bm_scale_queue_frag/incremental/{d}",
                f"bm_scale_queue_frag/rebuild/{d}", 0.3)
          for d in (10000, 100000)),
        ratio("bm_scale_queue_churn/incremental/100000",
              "bm_scale_queue_churn/rebuild/100000", 0.3),
    ],
    "bench_recorder": [
        # The recorded ESP run against the same run detached.
        ratio("bm_esp_run/1", "bm_esp_run/0", 2.5),
    ],
    "bench_replay": [
        # real_time is the per-job wall time: jobs/s and peak RSS stay
        # within 2x over a 100x larger trace.
        sweep(REPLAY, 100000, 10000000, 2.0),
        sweep(REPLAY, 100000, 10000000, 2.0, "peak_rss_mb"),
    ],
    "bench_ingest": [
        # 16 producers against 1, with the consumer draining alongside,
        # catches a convoy that stalls the drain; the same pair pushing
        # alone catches a push path that degrades under contention, which
        # the consumer's rate hides in the first pair. One lock serializes
        # 1 and 16 producers alike, so a constant cost added to every push
        # shows only against one producer pushing into a bare mutex and
        # vector. The WAL-on row against WAL-off catches a slower
        # WalWriter append or fsync.
        ratio(INGEST.format(16, 0), INGEST.format(1, 0), 2.0),
        ratio(PUSH.format("producers:16"), PUSH.format("producers:1"), 3.0),
        ratio(PUSH.format("producers:1"), PUSH.format("reference"), 1.3),
        ratio(INGEST.format(1, 1), INGEST.format(1, 0), 4.0),
    ],
    "bench_shard": [
        # real_time is the per-shard share of the wall: it stays flat or
        # falls as shards are added.
        sweep("bm_shard_iter/{}/64/manual_time", 1, 8, 1.5),
        sweep("bm_shard_iter/{}/256/manual_time", 1, 8, 1.5),
        sweep("bm_shard_route/{}", 1, 8, 30),
    ],
}


class GateError(Exception):
    """The file cannot be gated."""


def load_rows(path):
    """{(row name, field): value} for every real_time and numeric user
    counter of the file's non-aggregate rows, and the binary's name."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise GateError(f"cannot read {path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise GateError(f"invalid JSON in {path}: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("benchmarks"),
                                                   list):
        raise GateError(f"{path} is not google-benchmark JSON")
    context = doc.get("context")
    if not isinstance(context, dict):
        context = {}
    executable = str(context.get("executable", ""))
    samples = {}
    for row in doc["benchmarks"]:
        if not isinstance(row, dict):
            raise GateError(f"{path}: a benchmark row is not an object")
        if row.get("run_type") == "aggregate":
            continue
        name = re.sub(r"/repeats:\d+$", "", str(row.get("name")))
        if row.get("error_occurred"):
            raise GateError(f"{path}: row '{name}' reported an error: "
                            f"{row.get('error_message', '')}")
        for field, value in row.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                samples.setdefault((name, field), []).append(float(value))
    rows = {key: statistics.median(v) for key, v in samples.items()}
    return os.path.basename(executable), rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = argv[1]
    try:
        bench, rows = load_rows(path)
        gates = GATES.get(bench)
        if gates is None:
            raise GateError(f"{path}: no gates for binary '{bench}'")
        missing = sorted({f"{name} [{field}]"
                          for num, den, _ in gates
                          for name, field in (num, den)
                          if (name, field) not in rows})
        if missing:
            raise GateError(f"{path}: gated rows missing: " +
                            ", ".join(missing))
    except GateError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    failed = []
    print(f"{bench}: {len(gates)} gates")
    print(f"{'ratio':>8}  {'bound':>6}  gate")
    for num, den, bound in gates:
        base = rows[den]
        quotient = rows[num] / base if base > 0 else float("inf")
        gate = " / ".join(name + ("" if field == TIME else f" [{field}]")
                          for name, field in (num, den))
        flag = ""
        if quotient > bound:
            failed.append(f"{gate}: {quotient:.3g} > {bound}")
            flag = "  << FAIL"
        print(f"{quotient:8.3g}  {bound:>6}  {gate}{flag}")
    if failed:
        print(f"\nFAIL: {len(failed)} of {len(gates)} gates exceeded:",
              file=sys.stderr)
        for line in failed:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"OK: {len(gates)} gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
