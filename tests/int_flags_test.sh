#!/bin/sh
# macro_campaign and fuzz_scenarios refuse a bad flag value the way
# every binary must: exit 2, nothing on stdout, and exactly one stderr
# line naming the flag. An integer value is bad unless the whole token
# is decimal digits inside the flag's range, so a sign, a suffix, an
# overflow or an out-of-range number is refused before any work
# starts; `--time-budget` must be a finite, non-negative number of
# seconds. An unknown flag is refused the same way, and so is a
# macro_campaign flag that belongs to another mode than the one
# `--sharded` / `--open-loop` selects.
#
#   int_flags_test.sh MACRO_CAMPAIGN FUZZ_SCENARIOS
set -u
macro="$1"
fuzz="$2"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
status=0

# reject FLAG BIN ARGS...: exit 2, empty stdout, one stderr line that
# names FLAG.
reject() {
    flag="$1"
    shift
    out="$("$@" 2>"$dir/stderr")"
    rc=$?
    lines="$(wc -l < "$dir/stderr")"
    if [ "$rc" -ne 2 ] || [ -n "$out" ] || [ "$lines" -ne 1 ] ||
       ! grep -q -e "^$flag " "$dir/stderr"; then
        echo "$*: rc=$rc, stdout ${#out} bytes, $lines stderr lines" \
             "(want rc=2, empty stdout, one '$flag' line)"
        sed 's/^/  stderr: /' "$dir/stderr"
        status=1
    fi
}

# unknown FLAG BIN ARGS...: exit 2, empty stdout, one stderr line
# that names FLAG as unknown.
unknown() {
    flag="$1"
    shift
    out="$("$@" 2>"$dir/stderr")"
    rc=$?
    lines="$(wc -l < "$dir/stderr")"
    if [ "$rc" -ne 2 ] || [ -n "$out" ] || [ "$lines" -ne 1 ] ||
       ! grep -q -e ": unknown flag $flag\$" "$dir/stderr"; then
        echo "$*: rc=$rc, stdout ${#out} bytes, $lines stderr lines" \
             "(want rc=2, empty stdout, one 'unknown flag $flag' line)"
        sed 's/^/  stderr: /' "$dir/stderr"
        status=1
    fi
}

# misplaced FLAG BIN ARGS...: exit 2, empty stdout, one stderr line
# saying FLAG does not apply to the selected mode (or needs one).
misplaced() {
    flag="$1"
    shift
    out="$("$@" 2>"$dir/stderr")"
    rc=$?
    lines="$(wc -l < "$dir/stderr")"
    if [ "$rc" -ne 2 ] || [ -n "$out" ] || [ "$lines" -ne 1 ] ||
       ! grep -q -e ": $flag \(does not apply to\|needs\) --" \
            "$dir/stderr"; then
        echo "$*: rc=$rc, stdout ${#out} bytes, $lines stderr lines" \
             "(want rc=2, empty stdout, one '$flag does not apply' line)"
        sed 's/^/  stderr: /' "$dir/stderr"
        status=1
    fi
}

# --requests -1 used to wrap to 2^64-1 (strtoull) and overflow the
# open-loop span; 12x used to read as 12.
reject --requests "$macro" --open-loop --requests -1
reject --requests "$macro" --open-loop --requests 12x
reject --requests "$macro" --open-loop --requests 0
reject --requests "$macro" --open-loop --requests 10000001
reject --requests "$macro" --open-loop --requests 99999999999999999999999
reject --requests "$macro" --sharded --requests -1
reject --requests "$macro" --sharded --requests 1000000001
reject --hosts "$macro" --sharded --hosts 0
reject --hosts "$macro" --sharded --hosts 1000001
reject --hosts "$macro" --sharded --hosts " 5000"
reject --prime-rounds "$macro" --sharded --prime-rounds +3
reject --prime-traffic "$macro" --sharded --prime-traffic 1e3
reject --forked-storms "$macro" --sharded --forked-storms 0
reject --straight-storms "$macro" --sharded --straight-storms x

reject --seed "$fuzz" --seed 12x
reject --seed "$fuzz" --seed -1
reject --seed "$fuzz" --seed ""
reject --seed "$fuzz" --seed 18446744073709551616
reject --max-scenarios "$fuzz" --max-scenarios 0
reject --threads "$fuzz" --threads 0
reject --threads "$fuzz" --threads 4x
reject --verify-every "$fuzz" --verify-every -2
reject --snapshot-every "$fuzz" --snapshot-every 0x10
reject --inject-fault "$fuzz" --inject-fault 7
reject --fork-at "$fuzz" --fork-at 1.5
reject --forks "$fuzz" --forks 0
reject --fork-budget "$fuzz" --fork-budget 99999999999
# --time-budget x used to read as 0 s and report a clean, empty run.
reject --time-budget "$fuzz" --time-budget x
reject --time-budget "$fuzz" --time-budget -1
reject --time-budget "$fuzz" --time-budget 5s
reject --time-budget "$fuzz" --time-budget ""
reject --time-budget "$fuzz" --time-budget nan

# An unknown flag used to be ignored (macro_campaign ran its default
# campaign) or answered with the whole usage text (fuzz_scenarios).
unknown --bogus "$macro" --sharded --hosts 5000 --requests 1000 --bogus 1
unknown --bogus "$macro" --bogus 1
unknown --shards "$macro" --shards 4
unknown --bogus "$fuzz" --bogus 1
unknown --shards "$fuzz" --shards 4

# A flag of another mode used to be ignored: --open-loop --hosts 7 ran
# the 4M-request kernel duel and exited 0.
misplaced --hosts "$macro" --open-loop --hosts 7
misplaced --hosts "$macro" --open-loop --requests 1000 --hosts 7
misplaced --threads "$macro" --open-loop --threads 4
misplaced --threads "$macro" --open-loop --threads=4
misplaced --legacy "$macro" --sharded --legacy
misplaced --open-loop "$macro" --sharded --open-loop
misplaced --sharded "$macro" --open-loop --sharded
misplaced --prime-rounds "$macro" --prime-rounds 3
misplaced --requests "$macro" --requests 1000
misplaced --checkpoint "$macro" --checkpoint "$dir/never.snap"
misplaced --forked-storms "$macro" --sharded --checkpoint "$dir/never.snap" \
    --forked-storms 2
misplaced --from-checkpoint "$macro" --sharded --straight-storms 2 \
    --from-checkpoint "$dir/never.snap"
if [ -e "$dir/never.snap" ]; then
    echo "a refused --checkpoint run wrote its image"
    status=1
fi

exit $status
