#!/bin/sh
# Every workload, tracing off: prints `workload metric value unit` rows and
# writes perf/out/result.json. Other subcommands pass through, e.g.
#   perf/run.sh trace --seed 7
#   perf/run.sh compare perf/out/a.json perf/out/b.json
here=$(dirname "$0")
[ $# -eq 0 ] && set -- run
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
