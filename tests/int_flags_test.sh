#!/bin/sh
# macro_campaign and fuzz_scenarios refuse a bad integer flag value the
# way every binary must: exit 2, nothing on stdout, and exactly one
# stderr line naming the flag. A value is bad unless the whole token
# is decimal digits inside the flag's range, so a sign, a suffix, an
# overflow or an out-of-range number is refused before any work
# starts.
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

exit $status
