#!/usr/bin/env bash
# traffic-audit.sh: the audit of DESIGN.md "What counts as traffic". It builds
# every main and the Example functions' test binaries with statement
# coverage, runs the shipped workload list below, and reports what none of
# it enters, outside bench/perf:
#
#   - a summary line: statements entered of statements, and functions at 0%;
#   - every function at 0.0% (go tool covdata func), one per line.
#
# Usage: bash bench/traffic-audit.sh [OUT]   (OUT defaults to standard output)
#
# It is report-only: whatever it finds, it exits 0 once the workloads ran.
# A hit is a candidate, not a verdict: check it with `git grep` first (a
# test may be its only caller, a guard may be there for hostile input).
set -euo pipefail

out=${1:-/dev/stdout}
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
run=$work/run
mkdir -p "$bin" "$run" "$work/cov"

build() { go build -cover -coverpkg=./... -o "$bin/$1" "$2"; }
build mptcpbench ./cmd/mptcpbench
build tracereport ./cmd/tracereport
build perf ./bench/perf
examples() { go test -c -cover -coverpkg=./... -o "$bin/examples-$1.test" "$2"; }
examples facade .
examples experiments ./internal/experiments

export GOCOVERDIR=$work/cov
mb() { "$bin/mptcpbench" -quick "$@" > /dev/null; }

# The workload list. Every figure, and the design-rationale demonstration
# with capture and tracing on.
mb -list
mb -run all
mb -run rationale -pcap-dir "$run/rationale" -trace-dir "$run/rationale" -probe-interval 100ms

# Every scenario with each flag group it accepts.
mb -scenario list
mb -scenario fleet-http -pcap-dir "$run/http" -trace-dir "$run/http" -probe-interval 100ms
mb -scenario fleet-http -shared-link core:20mbps:50ms -format csv
mb -scenario fleet-openloop -arrival onoff -sizedist pareto:1.2,1000,1000000 -rate 80 -duration 1s
mb -scenario fleet-openloop -arrival fixed -sizedist lognormal:9,1.5 -pcap-dir "$run/openloop" -trace-dir "$run/openloop"
mb -scenario fleet-corelink -shared-link 20mbps -sizedist fixed:16384 -trace-dir "$run/corelink" -probe-interval 100ms
mb -scenario fleet-cdn -shared-link egress:40mbps -pcap-dir "$run/cdn"
mb -scenario incast -pcap-dir "$run/incast"
mb -scenario mixed -pcap-dir "$run/mixed" -format json -out "$run/mixed.json"
mb -scenario fleet-http -cpuprofile "$run/cpu.prof" -memprofile "$run/mem.prof"

# fleet-chaos under every fault preset and every adversary preset, traced;
# tracereport reads each trace directory in text and in JSON.
faults=$("$bin/mptcpbench" -h 2>&1 | sed -n 's/.*a preset name (\([^)]*\)).*/\1/p' | tr -d ,)
advs=$("$bin/mptcpbench" -h 2>&1 | sed -n 's/.*adversarial middlebox preset: \(.*\)$/\1/p' | tr -d '|')
for f in $faults; do
	for a in $advs; do
		d=$run/chaos-$f-$a
		mb -scenario fleet-chaos -faults "$f" -adversary "$a" -shards 2 -trace-dir "$d" -probe-interval 100ms
		"$bin/tracereport" "$d" > /dev/null
		"$bin/tracereport" -format json "$d" > /dev/null
	done
done

# Every Example function, and the benchmark harness at smoke-test sizes.
for t in "$bin"/examples-*.test; do
	"$t" -test.run '^Example' -test.gocoverdir="$GOCOVERDIR" > /dev/null
done
"$bin/perf" run -quick -out "$run/perf.json" > /dev/null

# The report. textfmt lists each block once per run that covered it, so the
# statement counts key blocks by position and keep the largest count.
keep='^mptcpgo/bench/perf/'
go tool covdata textfmt -i="$GOCOVERDIR" -o "$work/profile.txt"
go tool covdata func -i="$GOCOVERDIR" | grep -Ev "$keep" | grep -v '^total' > "$work/func.txt"
{
	awk -v skip="$keep" 'NR > 1 && $1 !~ skip {
		n[$1] = $2; if ($3 > c[$1]) c[$1] = $3
	}
	END {
		for (b in n) { all += n[b]; if (c[b] > 0) hit += n[b] }
		printf "statements entered: %d of %d (%.1f%%)\n", hit, all, 100 * hit / all
	}' "$work/profile.txt"
	printf 'functions at 0%%: %d of %d\n' "$(awk '$NF == "0.0%"' "$work/func.txt" | wc -l)" "$(wc -l < "$work/func.txt")"
	echo
	awk '$NF == "0.0%"' "$work/func.txt"
} > "$out"
