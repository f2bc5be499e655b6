#!/bin/sh
# run_campaign refuses a flag it does not know, in both the
# `--flag value` and the `--flag=value` spelling: exit 2, nothing on
# stdout, and one stderr line.
#
#   run_campaign_flags_test.sh RUN_CAMPAIGN CAMPAIGN_FILE
set -u
bin="$1"
file="$2"
err="$(mktemp)"
trap 'rm -f "$err"' EXIT
status=0
for args in "--shards 4" "--shards=4" "--bogus=1"; do
    # $args is split on purpose: "--shards 4" is a flag and its value.
    out="$("$bin" "$file" $args 2>"$err")"
    rc=$?
    lines="$(wc -l < "$err")"
    if [ "$rc" -ne 2 ] || [ -n "$out" ] || [ "$lines" -ne 1 ]; then
        echo "run_campaign $args: rc=$rc, stdout ${#out} bytes," \
             "$lines stderr lines (want rc=2, empty stdout, one line)"
        status=1
    fi
done
exit $status
