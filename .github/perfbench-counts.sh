#!/usr/bin/env bash
# Prints perfbench's exact work counts: one short traced run per
# workload (seed 1, one pass), one `workload metric value` line per
# count. The counts depend on the engine's code and the arguments only,
# never on host speed or core count, so CI diffs this output against
# the committed .github/perfbench-counts.txt. A change that moves the
# engine's work shows the new counts in its diff; regenerate with
#
#     .github/perfbench-counts.sh > .github/perfbench-counts.txt
#
# `alloc.count_per_op` goes to stderr: it is printed for the record but
# not gated, because it also depends on the Rust toolchain's standard
# library.
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in ctp_search bgp_join served_hot live_mixed; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1 |
        python3 -c '
import json, sys

workload = sys.argv[1]
# Keep the numbers exactly as perfbench printed them.
result = json.loads(sys.stdin.read(), parse_float=str, parse_int=str)
metrics = {name: m["value"] for name, m in result["metrics"].items()}

gated = ["search.provenances_per_op", "search.queue_pushes_per_op",
         "search.results_per_op", "bgp.rows_per_op"]
if workload == "live_mixed":
    gated += ["mutate.compactions"]
    gated += sorted(n for n in metrics if n.startswith("watch.skip."))
    gated += ["watch.reeval"]
if workload == "served_hot":
    gated += ["result_cache.hit_ratio", "result_cache.subsumed_ratio"]

for key in ["correct", "attempted", "failed"]:
    value = result[key]
    print(workload, key, json.dumps(value) if isinstance(value, bool) else value)
for name in gated:
    print(workload, name, metrics[name])
print(workload, "alloc.count_per_op", metrics["alloc.count_per_op"], file=sys.stderr)
' "$workload"
done
