#!/bin/sh
# Print the end-to-end metrics of every workload, one JSON line each.
# Usage, from the repository root: perfbench/run_all.sh [SEED] [SECONDS]
set -e
for workload in serial-social paged-evict parallel-web dist-loopback; do
    printf '%s ' "$workload"
    cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml --bin perfbench -- \
        --workload "$workload" --seed "${1:-1}" --seconds "${2:-15}" --trace 0 | tail -n 1
done
