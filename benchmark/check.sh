#!/bin/sh
# Smoke check of the benchmark itself, ready to be wired into CI: builds
# kar-perf and runs every workload timed and traced at --smoke scale
# (about 5 s after the build). `all` exits non-zero when a workload or
# metric name in ../BENCHMARK.json is not printed, a printed name is not
# in ../BENCHMARK.json, or any correctness check fails. The numbers it
# prints are not comparable with anything.
set -eu
cd "$(dirname "$0")"
mkdir -p out
cargo run --release --quiet --offline -- all --smoke --out out/smoke.json
