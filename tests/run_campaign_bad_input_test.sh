#!/bin/sh
# run_campaign refuses malformed input the way every binary must: exit
# 2, nothing on stdout, and exactly one stderr line naming the
# offending `file:line:`. A loadgen shard pin beyond the fleet is not
# malformed: it wraps modulo the shard count and the campaign runs.
#
#   run_campaign_bad_input_test.sh RUN_CAMPAIGN
set -u
bin="$1"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
status=0

# replay FILE ACCOUNT_LINE HOSTS: a replay campaign whose `account`
# directive is on line 9.
replay() {
    printf '%s\n' \
        '# A one-account replay.' \
        'eaao-scenario v2' \
        '' \
        '[campaign]' \
        'name = replay' \
        'program = replay' \
        '' \
        '[tenants]' \
        "$2" \
        'service 0 0 1' \
        '' \
        '[platform]' \
        "hosts = $3" \
        '' \
        '[script]' \
        'route 0 5 0' > "$dir/$1"
}

# loadgen FILE ACCOUNT_LINE SERVICE_LINE [STREAM_LINE]: a 550-host
# loadgen campaign whose tenant directives are on lines 11 and 12 and
# whose stream is on line 15.
loadgen() {
    printf '%s\n' \
        'eaao-scenario v2' \
        '[campaign]' \
        'name = tiny_loadgen' \
        'program = loadgen' \
        '' \
        '[platform]' \
        'seed = 1' \
        'profile = us-east1' \
        'hosts = 550' \
        '[tenants]' \
        "$2" \
        "$3" \
        '[workload]' \
        'drain_s = 10' \
        "${4:-stream 0 poisson 10 2.0 100 10 0 0}" > "$dir/$1"
}

# reject FILE WANT: exit 2, empty stdout, one stderr line matching WANT.
reject() {
    out="$("$bin" "$dir/$1" --threads 1 2>"$dir/stderr")"
    rc=$?
    lines=$(wc -l < "$dir/stderr")
    if [ "$rc" -ne 2 ] || [ -n "$out" ] || [ "$lines" -ne 1 ] ||
        ! grep -q -- "$2" "$dir/stderr"; then
        echo "$1: rc=$rc, stdout ${#out} bytes, $lines stderr line(s)" \
             "(want rc=2, empty stdout, one line matching '$2'):"
        cat "$dir/stderr"
        status=1
    fi
}

replay bad_tenants.scenario 'account 0 x' 550
reject bad_tenants.scenario 'bad_tenants.scenario:9: '

replay huge_fleet.scenario 'account 0 10' 4000000000
reject huge_fleet.scenario 'huge_fleet.scenario:13: '

loadgen bad_size.scenario 'account 0 1000' 'service 0 0 9'
reject bad_size.scenario 'bad_size.scenario:12: '

loadgen bad_quota.scenario 'account 0 4.5' 'service 0 0 1'
reject bad_quota.scenario 'bad_quota.scenario:11: '

loadgen bad_stream.scenario 'account 0 1000' 'service 0 0 1' \
    'stream 0.5 poisson 10 2.0 100 10 0 0'
reject bad_stream.scenario 'bad_stream.scenario:15: '

# fig08 reads its own one-argument `account <shard>` lines.
printf '%s\n' 'eaao-scenario v2' '[campaign]' 'name = fig08' \
    'program = fig08_exp3_accounts' '[platform]' 'profile = us-east1' \
    'seed = 1' '[tenants]' 'account x' > "$dir/fig08.scenario"
reject fig08.scenario 'fig08.scenario:9: '

printf '%s\n' 'eaao-scenario v1' 'seed 1' 'account -1 1000' \
    'service 0 0 1' 'step route 0 5 0' > "$dir/v1.scenario"
reject v1.scenario 'v1.scenario:1: '

loadgen far_pin.scenario 'account 99 1000' 'service 0 0 1'
if ! "$bin" "$dir/far_pin.scenario" --threads 1 > /dev/null 2>&1; then
    echo "far_pin.scenario: a shard pin beyond the fleet must wrap, not fail"
    status=1
fi
exit $status
