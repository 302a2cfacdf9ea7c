#!/usr/bin/env bash
# CI gate: formatting, lints, and the full test suite.
# Run locally before pushing; .github/workflows/ci.yml runs the same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== perfbench tests (separate workspace, path deps on crates/*) =="
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== sweep byte-identity (sequential vs 2/8 threads) =="
cargo test -q -p optimus-bench --test sweep_identity

echo "== sim event-loop bench smoke (small config) =="
cargo bench -p optimus-bench --bench sim_event_loop -- --small

echo "== exp_plan_warmup (small CI config) =="
cargo run --release -q -p optimus-bench --bin exp_plan_warmup -- --small

echo "== exp_store (small CI config, parallel sweep) =="
cargo run --release -q -p optimus-bench --bin exp_store -- --small --threads 2

echo "== exp_chaos (small CI config, fault-injection sweep) =="
cargo run --release -q -p optimus-bench --bin exp_chaos -- --small --threads 2

echo "== exp_scale_out (small CI config, elastic multicast sweep) =="
cargo run --release -q -p optimus-bench --bin exp_scale_out -- --small --threads 2

echo "== exp_serve_scale (small CI config, live serving front-end trajectory) =="
cargo run --release -q -p optimus-bench --bin exp_serve_scale -- --small

echo "== exp_prewarm_predict (small CI config, arrival-prediction sweep) =="
cargo run --release -q -p optimus-bench --bin exp_prewarm_predict -- --small --threads 2

echo "== exp_catalog_scale (small CI config, sharded plan-cache checks) =="
cargo run --release -q -p optimus-bench --bin exp_catalog_scale -- --small

echo "== exp_llm_transform (small CI config, decoder transformation checks) =="
cargo run --release -q -p optimus-bench --bin exp_llm_transform -- --small --threads 2

echo "== decide-path bench smoke (small config) =="
cargo bench -p optimus-bench --bench decide_path -- --small

echo "all checks passed"
