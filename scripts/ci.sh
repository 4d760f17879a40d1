#!/usr/bin/env bash
# Full local CI: format check, lints, tests, experiment regeneration.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test --workspace
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== static analysis (lint + audit + check) =="
cargo run --release -- lint --deny-warnings
cargo run --release -- audit --deny-warnings
cargo run --release -q -- audit --json --jobs 1 > /tmp/pruneperf-audit-seq.json
cargo run --release -q -- audit --json --jobs 8 > /tmp/pruneperf-audit-par.json
cmp /tmp/pruneperf-audit-seq.json /tmp/pruneperf-audit-par.json
cargo run --release -- check --deny-warnings
cargo run --release -q -- check --json --jobs 1 > /tmp/pruneperf-check-seq.json
cargo run --release -q -- check --json --jobs 8 > /tmp/pruneperf-check-par.json
cmp /tmp/pruneperf-check-seq.json /tmp/pruneperf-check-par.json

echo "== analyzer coverage delta (informational) =="
./scripts/coverage_delta.sh /tmp/pruneperf-check-seq.json CHECK_COVERAGE.json

echo "== chaos drill (fault injection, byte-identical across worker counts) =="
for seed in 1 2 3; do
  cargo run --release -q -- chaos --seed "$seed" --jobs 1 > "/tmp/pruneperf-chaos-$seed-seq.txt"
  cargo run --release -q -- chaos --seed "$seed" --jobs 8 > "/tmp/pruneperf-chaos-$seed-par.txt"
  cmp "/tmp/pruneperf-chaos-$seed-seq.txt" "/tmp/pruneperf-chaos-$seed-par.txt"
  cargo run --release -q -- chaos --seed "$seed" --json --jobs 1 > "/tmp/pruneperf-chaos-$seed-seq.json"
  cargo run --release -q -- chaos --seed "$seed" --json --jobs 8 > "/tmp/pruneperf-chaos-$seed-par.json"
  cmp "/tmp/pruneperf-chaos-$seed-seq.json" "/tmp/pruneperf-chaos-$seed-par.json"
done
cargo run --release -q -- chaos --seed 4 --faults 0.5 > /dev/null

echo "== search (differential suite + determinism + persist/resume) =="
cargo test -q --release -p pruneperf-core --test search_differential
# --include-ignored adds the §V greedy's differential on the 64-layer wide net
cargo test -q --release -p pruneperf-core --lib pruner -- --include-ignored
# --include-ignored adds the check of all 32 recorded ResNet-50 fronts
cargo test -q --release --test search_cli -- --include-ignored
# --include-ignored adds the plan audit's map-oracle differential on those 32 fronts
cargo test -q --release -p pruneperf-analysis --lib network_verify -- --include-ignored
cargo run --release -q -- search --network alexnet --json --jobs 1 > /tmp/pruneperf-search-seq.json
cargo run --release -q -- search --network alexnet --json --jobs 8 > /tmp/pruneperf-search-par.json
cmp /tmp/pruneperf-search-seq.json /tmp/pruneperf-search-par.json
cargo run --release -q -- search --network resnet50 --json --jobs 1 > /tmp/pruneperf-search-r50-seq.json
cargo run --release -q -- search --network resnet50 --json --jobs 2 > /tmp/pruneperf-search-r50-par.json
cmp /tmp/pruneperf-search-r50-seq.json /tmp/pruneperf-search-r50-par.json
rm -f /tmp/pruneperf-search-cache.txt
cargo run --release -q -- search --network alexnet --json \
  --persist /tmp/pruneperf-search-cache.txt > /tmp/pruneperf-search-cold.json
cp /tmp/pruneperf-search-cache.txt /tmp/pruneperf-search-cache-cold.txt
cargo run --release -q -- search --network alexnet --json \
  --persist /tmp/pruneperf-search-cache.txt > /tmp/pruneperf-search-resumed.json
cmp /tmp/pruneperf-search-seq.json /tmp/pruneperf-search-cold.json
cmp /tmp/pruneperf-search-cold.json /tmp/pruneperf-search-resumed.json
cmp /tmp/pruneperf-search-cache-cold.txt /tmp/pruneperf-search-cache.txt

echo "== micro-benchmarks (regression gate + determinism) =="
cargo run --release -q -- bench --check BENCH_PR10.json
cargo run --release -q -- bench --json --jobs 1 > /tmp/pruneperf-bench-seq.json
cargo run --release -q -- bench --json --jobs 8 > /tmp/pruneperf-bench-par.json
cmp /tmp/pruneperf-bench-seq.json /tmp/pruneperf-bench-par.json
cmp /tmp/pruneperf-bench-seq.json BENCH_PR10.json

echo "== chrome-trace export (byte-identical across worker counts) =="
cargo run --release -q -- chaos --seed 1 --jobs 1 --trace-out /tmp/pruneperf-trace-seq.json > /dev/null
cargo run --release -q -- chaos --seed 1 --jobs 8 --trace-out /tmp/pruneperf-trace-par.json > /dev/null
cmp /tmp/pruneperf-trace-seq.json /tmp/pruneperf-trace-par.json

echo "== serve (replay golden + loadgen golden, byte-identical across worker counts) =="
cargo run --release -q -- serve --replay tests/goldens/serve_trace.jsonl \
  --workers 2 --queue 1 --service-ms 5 --jobs 1 > /tmp/pruneperf-serve-seq.jsonl
cargo run --release -q -- serve --replay tests/goldens/serve_trace.jsonl \
  --workers 2 --queue 1 --service-ms 5 --jobs 8 > /tmp/pruneperf-serve-par.jsonl
cmp /tmp/pruneperf-serve-seq.jsonl /tmp/pruneperf-serve-par.jsonl
cmp /tmp/pruneperf-serve-seq.jsonl tests/goldens/serve_replay.golden.jsonl
# --include-ignored adds the check of all 1,440 recorded plan bodies
cargo test -q --release --test serve_replay -- --include-ignored
cargo run --release -q -- loadgen --seed 42 --requests 32 --jobs 1 > /tmp/pruneperf-loadgen-seq.txt
cargo run --release -q -- loadgen --seed 42 --requests 32 --jobs 8 > /tmp/pruneperf-loadgen-par.txt
cmp /tmp/pruneperf-loadgen-seq.txt /tmp/pruneperf-loadgen-par.txt
cmp /tmp/pruneperf-loadgen-seq.txt tests/goldens/loadgen-seed42.txt

echo "== paper experiments (parallel == sequential, and artifact freshness) =="
# stdout echoes the --json path, so both runs must name the same file
cargo run --release -q -p pruneperf-bench --bin repro -- all --jobs 1 \
  --json /tmp/pruneperf-repro.json > /tmp/pruneperf-repro-seq.txt
cp /tmp/pruneperf-repro.json /tmp/pruneperf-repro-seq.json
cargo run --release -q -p pruneperf-bench --bin repro -- all --jobs 8 \
  --json /tmp/pruneperf-repro.json > /tmp/pruneperf-repro-par.txt
cmp /tmp/pruneperf-repro-seq.txt /tmp/pruneperf-repro-par.txt
cmp /tmp/pruneperf-repro-seq.json /tmp/pruneperf-repro.json
cargo run --release -p pruneperf-bench --bin repro -- all --json repro_results.json > repro_output.txt
git diff --exit-code -- repro_output.txt repro_results.json

echo "CI OK"
