#!/bin/sh
# run_campaign refuses a flag it does not know, in both the
# `--flag value` and the `--flag=value` spelling: exit 2, and nothing
# on stdout.
#
#   run_campaign_flags_test.sh RUN_CAMPAIGN CAMPAIGN_FILE
set -u
bin="$1"
file="$2"
status=0
for args in "--shards 4" "--shards=4" "--bogus=1"; do
    # $args is split on purpose: "--shards 4" is a flag and its value.
    out="$("$bin" "$file" $args 2>/dev/null)"
    rc=$?
    if [ "$rc" -ne 2 ] || [ -n "$out" ]; then
        echo "run_campaign $args: rc=$rc, stdout ${#out} bytes" \
             "(want rc=2, empty stdout)"
        status=1
    fi
done
exit $status
