#!/bin/sh
# loadgen's --bench-json record counts the events its lanes processed:
# the record's events_processed must equal the `events_processed`
# figure loadgen prints on stdout, and must not be zero.
#
#   loadgen_bench_json_test.sh RUN_CAMPAIGN
set -u
bin="$1"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

printf '%s\n' \
    'eaao-scenario v2' \
    '[campaign]' \
    'name = tiny_loadgen' \
    'program = loadgen' \
    '[platform]' \
    'seed = 7' \
    'profile = us-east1' \
    'hosts = 550' \
    '[tenants]' \
    'account 0 1000' \
    'account 1 1000' \
    'service 0 0 1' \
    'service 1 0 1' \
    '[workload]' \
    'warm_connections = 4' \
    'concurrency = 2' \
    'drain_s = 30' \
    'stream 0 poisson 200 2.0 100 60 0 0' \
    'stream 1 pareto 150 3.0 50 60 20 5' > "$dir/tiny.scenario"

if ! "$bin" "$dir/tiny.scenario" --threads 2 \
        --bench-json "$dir/bench.json" > "$dir/stdout"; then
    echo "run_campaign failed"
    exit 1
fi
want=$(sed -n 's/.*events_processed \([0-9]*\).*/\1/p' "$dir/stdout")
got=$(sed -n 's/.*"events_processed": \([0-9]*\).*/\1/p' "$dir/bench.json")
if [ -z "$want" ] || [ "$want" -eq 0 ] || [ "$got" != "$want" ]; then
    echo "bench-json events_processed '$got', stdout says '$want':"
    cat "$dir/bench.json"
    exit 1
fi
if grep -q '"events_per_s": 0.0,' "$dir/bench.json"; then
    echo "events_per_s not recomputed:"
    cat "$dir/bench.json"
    exit 1
fi
