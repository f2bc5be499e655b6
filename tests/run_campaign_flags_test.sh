#!/bin/sh
# run_campaign refuses a flag it does not know, in both the
# `--flag value` and the `--flag=value` spelling: exit 2, nothing on
# stdout, and one stderr line. `--trace-json` / `--metrics-json` are
# known, but only programs that write those outputs take them: for any
# other program they exit 2 the same way, with a line naming the
# program, and write no file. An obs-aware program writes both files
# and prints its golden stdout.
#
#   run_campaign_flags_test.sh RUN_CAMPAIGN CAMPAIGN_FILE OBS_CAMPAIGN_FILE
set -u
bin="$1"
file="$2"
obs_file="$3"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
err="$dir/stderr"
status=0

# refuse WANT ARGS...: exit 2, empty stdout, one stderr line holding WANT.
refuse() {
    want="$1"
    shift
    out="$("$bin" "$@" 2>"$err")"
    rc=$?
    lines="$(wc -l < "$err")"
    if [ "$rc" -ne 2 ] || [ -n "$out" ] || [ "$lines" -ne 1 ] ||
       ! grep -q -F -e "$want" "$err"; then
        echo "run_campaign $*: rc=$rc, stdout ${#out} bytes," \
             "$lines stderr lines (want rc=2, empty stdout, one line" \
             "with '$want')"
        sed 's/^/  stderr: /' "$err"
        status=1
    fi
}

refuse "unknown flag --shards" "$file" --shards 4
refuse "unknown flag --shards=4" "$file" --shards=4
refuse "unknown flag --bogus=1" "$file" --bogus=1

program="$(basename "$file" .scenario)"
refuse "program '$program'" "$file" --metrics-json "$dir/m.json"
refuse "program '$program'" "$file" --trace-json="$dir/t.json"
if [ -e "$dir/m.json" ] || [ -e "$dir/t.json" ]; then
    echo "run_campaign $file: a refused run wrote an output file"
    status=1
fi

golden="$(dirname "$obs_file")/expected/$(basename "$obs_file" .scenario).txt"
if ! "$bin" "$obs_file" --threads 2 --metrics-json "$dir/m.json" \
        --trace-json="$dir/t.json" > "$dir/out.txt" 2>"$err"; then
    echo "run_campaign $obs_file with trace/metrics output failed"
    sed 's/^/  stderr: /' "$err"
    status=1
elif ! cmp -s "$dir/out.txt" "$golden" || [ ! -s "$dir/m.json" ] ||
     [ ! -s "$dir/t.json" ]; then
    echo "run_campaign $obs_file: stdout differs from $golden or an" \
         "output file is missing"
    status=1
fi
exit $status
