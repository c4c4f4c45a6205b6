#!/usr/bin/env bash
# Single entry point of the benchmark of record.
#
#   bash benchmark/run.sh                      all four workloads, untraced then traced,
#                                              one process each -> benchmark/out/results.json
#   bash benchmark/run.sh --workload NAME ...  one run; arguments go to the driver as they are
#                                              (this is the form BENCHMARK.json's command takes)
#   bash benchmark/run.sh --agree              two untraced sets, compared within the bounds
#
# --seed N, --seconds S and --smoke pass through in every form. The binary,
# the Go build cache and all scratch data stay inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark

for arg in "$@"; do
	case "$arg" in
	-workload | --workload | -workload=* | --workload=* | -agree | --agree)
		exec "$build/benchmark" "$@"
		;;
	esac
done

out=benchmark/out
mkdir -p "$out"
lines="$out/results.jsonl"
: >"$lines"
status=0
for workload in rank_narrow session_wide ingest_durable serve_mixed; do
	for trace in 0 1; do
		# One process per run, so peak RSS is per workload and mode.
		if "$build/benchmark" "$@" --workload "$workload" --trace "$trace" | tee "$out/last-run.txt"; then
			:
		else
			status=1
		fi
		printf '{"workload":"%s","trace":%s,"result":%s}\n' "$workload" "$trace" "$(tail -n 1 "$out/last-run.txt")" >>"$lines"
	done
done
rm -f "$out/last-run.txt"
{
	echo '['
	sed '$!s/$/,/' "$lines"
	echo ']'
} >"$out/results.json"
rm -f "$lines"
echo "wrote $out/results.json and $out/trace-<workload>.json"
exit "$status"
