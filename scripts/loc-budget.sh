#!/bin/sh
# The round's design exit is a line count: `crates/service/src` plus
# `crates/cli/src`, 20.0k at the 89f85ee baseline, at most 17.0k at the
# exit (ROADMAP item 15). Prints both `wc -l` totals and fails when their
# sum is above the number in `.github/loc-ceiling`. A PR that shrinks the
# two crates lowers the ceiling to its own result, so the needle only
# moves one way; a PR that has to grow them raises it and says why.
# Its second line gates `crates/net/src` + `crates/workload/src` the same
# way against `.github/loc-ceiling-net-workload`, so ROADMAP item 22's
# shrinking of the two crates cannot regrow unnoticed (the first step of
# item 14's ratchet on the non-service total).
set -eu
cd "$(dirname "$0")/.."
status=0
budget() {
    if [ "$2" -gt "$3" ]; then
        echo "$1 line budget exceeded by $(($2 - $3)) lines" >&2
        status=1
    fi
}
service=$(cat crates/service/src/*.rs | wc -l)
cli=$(cat crates/cli/src/*.rs | wc -l)
total=$((service + cli))
ceiling=$(cat .github/loc-ceiling)
echo "crates/service/src $service"
echo "crates/cli/src     $cli"
echo "total              $total (ceiling $ceiling)"
budget "service + cli" "$total" "$ceiling"
net=$(cat crates/net/src/*.rs | wc -l)
workload=$(cat crates/workload/src/*.rs | wc -l)
lower=$((net + workload))
lower_ceiling=$(cat .github/loc-ceiling-net-workload)
echo "crates/net/src + crates/workload/src $lower (net $net, workload $workload; ceiling $lower_ceiling)"
budget "net + workload" "$lower" "$lower_ceiling"
exit $status
