#!/bin/sh
# loc.sh prints the repo's size figure: lines of non-test Go source outside
# benchmark/ (the benchmark harness is frozen and not part of the system),
# plus the same count for each directory given as an argument, and — as
# its own figure, so hand-written assembly is on the ledger rather than
# outside it — the lines of Go assembly.
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l
}

echo "non-test Go lines (benchmark/ excluded): $(count .)"
for d in internal/simdb "$@"; do
    echo "  of which under $d: $(count "./$d")"
done
echo "assembly lines (*.s): $(find . -name '*.s' ! -path './benchmark/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)"
