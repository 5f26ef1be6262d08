#!/bin/bash
# Tier-1 gate: release build, full test suite, perfbench's unit tests
# (including a tiny smoke of every benchmark workload: zero failed ops,
# stable digests), a warning-free clippy pass, the workspace's own
# static-analysis gate (the tree must self-lint clean, the
# deliberately-dirty fixture corpus must keep matching its golden
# diagnostics, diagnostics must be byte-identical at --jobs 1
# and --jobs 4, and the SARIF export must parse with run-to-run stable
# ordering), the simulator conformance harness (closed-form
# queueing theory cross-check + per-run invariant audit of every Fig. 4
# cell), the executor's determinism contract (fig4 --quick must be
# byte-identical on stdout at --jobs 1 and --jobs 4), an observability
# smoke (the --trace / --json exports must be well-formed JSON with the
# expected schema while auditing stays clean), an engine-throughput
# smoke (bench_engine --quick: the committed BENCH_engine.json must
# pass its schema check and the measured events/sec must stay within
# 20% of the committed trajectory), a resilience smoke (a faulted
# sweep with conservation auditing armed must exit 0 with a
# byte-identical RunReport at any job width), a fleet smoke: the
# 64-server sharded-fleet sweep must be byte-identical at any job width
# and its v4 RunReport must carry balanced per-shard roll-ups, a
# diurnal smoke: the 24 h multi-tenant sweep must be byte-identical at
# any job width, export a v4 RunReport, keep its admission books
# conserved per cell, and show AIMD admission beating the static client
# on SLO-violation fraction on at least the host platform, and a chaos
# smoke: a seeded fleet run with 4 of 64 servers crashed for a third of
# the run must exit 0, stay byte-identical at any job width, keep the
# extended conservation law (sent == completed + dropped +
# remapped_in_flight) exact on every shard of every variant while nodes
# die mid-run, beat the no-rebalancing baseline on SLO-violating
# shards, and improve p99 via hedging on at least one cell.
set -euo pipefail
cd "$(dirname "$0")"

# --workspace: the root package doesn't depend on snicbench-bench, so a
# bare `cargo build` would leave the ./target/release binaries below stale.
cargo build --release --workspace
cargo test -q
# perfbench is a package of its own (an empty [workspace] beside its
# manifest), so the workspace test run above does not reach it.
cargo test -q --manifest-path crates/bench/src/bin/perfbench/Cargo.toml
cargo clippy --workspace -- -D warnings

echo "==== static analysis: workspace self-lint + fixture goldens ===="
# The tree itself must be clean (exit 0, nothing on stdout).
./target/release/lint
# The fixture corpus must stay dirty in exactly the recorded way: exit 1
# and diagnostics byte-identical to the golden transcript.
fixture_out=$(mktemp)
if ./target/release/lint --fixtures > "$fixture_out" 2>/dev/null; then
  echo "FAIL: lint --fixtures exited 0; the corpus must trip every rule" >&2
  rm -f "$fixture_out"
  exit 1
fi
if ! diff -u tests/golden/lint_fixtures.txt "$fixture_out"; then
  echo "FAIL: fixture diagnostics drifted from tests/golden/lint_fixtures.txt" >&2
  rm -f "$fixture_out"
  exit 1
fi
rm -f "$fixture_out"
echo "OK: workspace lint-clean, fixture diagnostics match golden"

# The analyzer itself must honor the executor's determinism contract:
# fixture diagnostics byte-identical at --jobs 1 and --jobs 4 (cache
# off, so both runs exercise the parallel phase-1 path for real).
lint_j1=$(mktemp)
lint_j4=$(mktemp)
./target/release/lint --fixtures --no-cache --jobs 1 > "$lint_j1" 2>/dev/null || true
./target/release/lint --fixtures --no-cache --jobs 4 > "$lint_j4" 2>/dev/null || true
if ! diff -u "$lint_j1" "$lint_j4"; then
  echo "FAIL: lint diagnostics differ between --jobs 1 and --jobs 4" >&2
  rm -f "$lint_j1" "$lint_j4"
  exit 1
fi
rm -f "$lint_j1" "$lint_j4"
echo "OK: lint byte-identical across job counts"

# SARIF export: well-formed JSON, stable across runs (ordering must not
# depend on traversal or cache state — the second run is cache-warm on
# purpose).
sarif1=$(mktemp)
sarif2=$(mktemp)
./target/release/lint --fixtures --no-cache --sarif "$sarif1" > /dev/null 2>&1 || true
./target/release/lint --fixtures --sarif "$sarif2" > /dev/null 2>&1 || true
if ! jq -e '.version == "2.1.0" and (.runs | length == 1)
       and (.runs[0].results | length > 0)' "$sarif1" > /dev/null; then
  echo "FAIL: --sarif output is not a SARIF 2.1.0 document" >&2
  rm -f "$sarif1" "$sarif2"
  exit 1
fi
if ! diff -u "$sarif1" "$sarif2"; then
  echo "FAIL: SARIF output is not stable across runs" >&2
  rm -f "$sarif1" "$sarif2"
  exit 1
fi
rm -f "$sarif1" "$sarif2"
echo "OK: SARIF parses, ordering stable run-to-run"

echo "==== conformance: simulator vs queueing theory + invariant audit ===="
# Exits non-zero if any probe case leaves the tolerance band or any run
# violates a conservation invariant.
./target/release/conformance --quick --jobs 4

echo "==== determinism + observability smoke: fig4 --quick ===="
out1=$(mktemp)
out4=$(mktemp)
trace=$(mktemp)
report=$(mktemp)
trap 'rm -f "$out1" "$out4" "$trace" "$report"' EXIT
./target/release/fig4 --quick --jobs 1 > "$out1" 2>/dev/null
# The jobs-4 run doubles as the observability smoke: auditing armed,
# both export files requested (neither may perturb stdout).
./target/release/fig4 --quick --jobs 4 --audit \
  --trace "$trace" --json "$report" > "$out4" 2>/dev/null
if ! diff -u "$out1" "$out4"; then
  echo "FAIL: fig4 --quick output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "OK: byte-identical across job counts"

jq -e '.traceEvents | length > 0' "$trace" > /dev/null \
  || { echo "FAIL: --trace output is not a Chrome trace" >&2; exit 1; }
jq -e '.schema == "snicbench.run-report.v4" and (.runs | length > 0)' \
  "$report" > /dev/null \
  || { echo "FAIL: --json output is not a v4 RunReport" >&2; exit 1; }
jq -e '[.runs[].conformance.clean] | all' "$report" > /dev/null \
  || { echo "FAIL: RunReport records a conformance violation" >&2; exit 1; }
echo "OK: trace + RunReport parse, schema v4, audit clean"

echo "==== engine throughput smoke: bench_engine --quick ===="
# Validates the committed BENCH_engine.json schema and fails when the
# measured events/sec regresses more than 20% against the committed
# trajectory's last entry.
./target/release/bench_engine --quick
echo "OK: engine events/sec within 20% of the committed baseline"

echo "==== resilience smoke: faults on, audit on, deterministic ===="
# A faulted sweep with conservation auditing armed must finish cleanly,
# and its full JSON artifact must be byte-identical at any job width.
res1=$(mktemp)
res4=$(mktemp)
trap 'rm -f "$out1" "$out4" "$trace" "$report" "$res1" "$res4"' EXIT
./target/release/resilience --quick --audit --jobs 1 --json "$res1" > /dev/null 2>&1
./target/release/resilience --quick --audit --jobs 4 --json "$res4" > /dev/null 2>&1
if ! diff -u "$res1" "$res4"; then
  echo "FAIL: resilience RunReport differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
jq -e '.schema == "snicbench.run-report.v4" and (.failed_jobs | length == 0)' \
  "$res1" > /dev/null \
  || { echo "FAIL: resilience RunReport malformed or has failed jobs" >&2; exit 1; }
jq -e '[.results[] | select(.intensity > 0)] | length > 0' "$res1" > /dev/null \
  || { echo "FAIL: resilience report has no faulted cells" >&2; exit 1; }
echo "OK: resilience smoke clean, byte-identical across job counts"

echo "==== fleet smoke: N x M sharded fleet, deterministic v4 shards ===="
# The fleet sweep must be byte-identical at any job width — stdout and
# the full JSON artifact — and every run in the v4 report must carry a
# populated per-shard section (64 servers in the default rack).
fleet1=$(mktemp)
fleet4=$(mktemp)
fleetj1=$(mktemp)
fleetj4=$(mktemp)
trap 'rm -f "$out1" "$out4" "$trace" "$report" "$res1" "$res4" "$fleet1" "$fleet4" "$fleetj1" "$fleetj4"' EXIT
./target/release/fleet --quick --jobs 1 --json "$fleetj1" > "$fleet1" 2>/dev/null
./target/release/fleet --quick --jobs 4 --json "$fleetj4" > "$fleet4" 2>/dev/null
if ! diff -u "$fleet1" "$fleet4"; then
  echo "FAIL: fleet --quick output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
if ! diff -u "$fleetj1" "$fleetj4"; then
  echo "FAIL: fleet RunReport differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
jq -e '.schema == "snicbench.run-report.v4"' "$fleetj1" > /dev/null \
  || { echo "FAIL: fleet report is not a v4 RunReport" >&2; exit 1; }
jq -e '(.runs | length > 0) and ([.runs[].shards | length == 64] | all)' \
  "$fleetj1" > /dev/null \
  || { echo "FAIL: fleet runs must carry 64 per-shard roll-ups each" >&2; exit 1; }
jq -e '[.runs[].shards[] | .sent == .completed + .dropped + .remapped_in_flight] | all' \
  "$fleetj1" > /dev/null \
  || { echo "FAIL: a fleet shard's books do not balance" >&2; exit 1; }
echo "OK: fleet smoke clean, byte-identical, v4 shard sections populated"

echo "==== diurnal smoke: 24h multi-tenant day, AIMD vs static ===="
# The diurnal sweep must be byte-identical at any job width, its JSON a
# v4 RunReport whose cells keep admission books conserved, and adaptive
# admission must beat the static client at the peak on the host platform.
di1=$(mktemp)
di4=$(mktemp)
dij1=$(mktemp)
dij4=$(mktemp)
trap 'rm -f "$out1" "$out4" "$trace" "$report" "$res1" "$res4" "$fleet1" "$fleet4" "$fleetj1" "$fleetj4" "$di1" "$di4" "$dij1" "$dij4"' EXIT
./target/release/diurnal --quick --jobs 1 --json "$dij1" > "$di1" 2>/dev/null
./target/release/diurnal --quick --jobs 4 --json "$dij4" > "$di4" 2>/dev/null
if ! diff -u "$di1" "$di4"; then
  echo "FAIL: diurnal --quick output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
if ! diff -u "$dij1" "$dij4"; then
  echo "FAIL: diurnal RunReport differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
jq -e '.schema == "snicbench.run-report.v4" and (.runs | length == 6)' \
  "$dij1" > /dev/null \
  || { echo "FAIL: diurnal report is not a v4 RunReport with 6 cells" >&2; exit 1; }
jq -e '[.results.cells[] | .hours[] | .offered == .admitted + .rejected
        and .admitted == .completed + .dropped] | all' "$dij1" > /dev/null \
  || { echo "FAIL: a diurnal cell's admission books do not conserve" >&2; exit 1; }
jq -e '[.results.cells[].tenants[] |
        .offered == .admitted + .rejected] | all' "$dij1" > /dev/null \
  || { echo "FAIL: a tenant's admission gate does not conserve" >&2; exit 1; }
jq -e '
  ([.results.cells[] | select(.platform == "host" and .admission == "static")
     | .violation_fraction] | first) as $static |
  ([.results.cells[] | select(.platform == "host" and .admission == "adaptive")
     | .violation_fraction] | first) as $adaptive |
  ($static > 0) and ($adaptive < $static)' "$dij1" > /dev/null \
  || { echo "FAIL: AIMD admission must beat the static client at the peak" >&2; exit 1; }
echo "OK: diurnal smoke clean, byte-identical, books conserved, AIMD pays"

echo "==== chaos smoke: 4 of 64 servers crash mid-run, mitigations staged ===="
# One seeded cell (64 servers, 16 SNICs, 65 Gb/s per server) with four
# servers crashed for a third of the run. The run must exit 0 and stay
# byte-identical at any job width; every shard of every variant must
# keep the extended conservation law exact while nodes die mid-run;
# rebalancing must strictly beat the blackholing baseline on
# SLO-violating shards; and hedging must cut cluster p99 below
# rebalancing alone on at least one cell.
ch1=$(mktemp)
ch4=$(mktemp)
chj1=$(mktemp)
chj4=$(mktemp)
trap 'rm -f "$out1" "$out4" "$trace" "$report" "$res1" "$res4" "$fleet1" "$fleet4" "$fleetj1" "$fleetj4" "$di1" "$di4" "$dij1" "$dij4" "$ch1" "$ch4" "$chj1" "$chj4"' EXIT
./target/release/fleet --quick --servers 64 --snics 16 --gbps 65 \
  --chaos crash4 --jobs 1 --json "$chj1" > "$ch1" 2>/dev/null
./target/release/fleet --quick --servers 64 --snics 16 --gbps 65 \
  --chaos crash4 --jobs 4 --json "$chj4" > "$ch4" 2>/dev/null
if ! diff -u "$ch1" "$ch4"; then
  echo "FAIL: fleet --chaos output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
if ! diff -u "$chj1" "$chj4"; then
  echo "FAIL: fleet --chaos RunReport differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
jq -e '.schema == "snicbench.run-report.v4" and (.results | length == 4)' \
  "$chj1" > /dev/null \
  || { echo "FAIL: chaos report is not a v4 RunReport with 4 variants" >&2; exit 1; }
jq -e '[.runs[].shards[] | .sent == .completed + .dropped + .remapped_in_flight] | all' \
  "$chj1" > /dev/null \
  || { echo "FAIL: the extended conservation law broke under chaos" >&2; exit 1; }
jq -e '[.results[] | select(.variant != "healthy") | .down_windows == 4] | all' \
  "$chj1" > /dev/null \
  || { echo "FAIL: chaos variants must see all 4 crash windows" >&2; exit 1; }
jq -e '
  ([.results[] | select(.variant == "chaos-base")  | .shards_meeting_slo] | first) as $base |
  ([.results[] | select(.variant == "chaos-rebal") | .shards_meeting_slo] | first) as $rebal |
  ($rebal > $base)' "$chj1" > /dev/null \
  || { echo "FAIL: rebalancing must cut the SLO-violation fraction vs blackholing" >&2; exit 1; }
jq -e '
  ([.results[] | select(.variant == "chaos-rebal") | .remapped] | first) as $remapped |
  ($remapped > 0)' "$chj1" > /dev/null \
  || { echo "FAIL: rebalancing must re-home flows off the crashed shards" >&2; exit 1; }
jq -e '
  ([.results[] | select(.variant == "chaos-hedge") | .hedge_wins] | first) as $wins |
  ([.results[] | select(.variant == "chaos-hedge") | .p99_us] | first) as $hp99 |
  ([.results[] | select(.variant == "chaos-rebal") | .p99_us] | first) as $rp99 |
  ($wins > 0) and ($hp99 < $rp99)' "$chj1" > /dev/null \
  || { echo "FAIL: hedging must win races and cut p99 below rebalancing alone" >&2; exit 1; }
echo "OK: chaos smoke clean — law extended, rebalancing pays, hedging cuts p99"
