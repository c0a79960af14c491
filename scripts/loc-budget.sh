#!/bin/sh
# The round's design exit is a line count: `crates/service/src` plus
# `crates/cli/src`, 20.0k at the 89f85ee baseline, at most 17.0k at the
# exit (ROADMAP item 15). Prints both `wc -l` totals and fails when their
# sum is above the number in `.github/loc-ceiling`. A PR that shrinks the
# two crates lowers the ceiling to its own result, so the needle only
# moves one way; a PR that has to grow them raises it and says why.
# It also prints `crates/net/src` + `crates/workload/src`, whose shrinking
# is ROADMAP item 22's exit; that total is for information and has no
# ceiling.
set -eu
cd "$(dirname "$0")/.."
service=$(cat crates/service/src/*.rs | wc -l)
cli=$(cat crates/cli/src/*.rs | wc -l)
total=$((service + cli))
ceiling=$(cat .github/loc-ceiling)
echo "crates/service/src $service"
echo "crates/cli/src     $cli"
echo "total              $total (ceiling $ceiling)"
net=$(cat crates/net/src/*.rs | wc -l)
workload=$(cat crates/workload/src/*.rs | wc -l)
echo "crates/net/src + crates/workload/src $((net + workload)) (net $net, workload $workload; no ceiling)"
if [ "$total" -gt "$ceiling" ]; then
    echo "line budget exceeded by $((total - ceiling)) lines" >&2
    exit 1
fi
