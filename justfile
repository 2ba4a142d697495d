# Developer entry points; `just --list` shows this menu.

# Build everything in release mode.
# `--locked` fails on a Cargo.lock that lags the manifests instead of
# rewriting it.
build:
    cargo build --release --locked

# The tier-1 verify: release build plus the full test suite.
test: build
    cargo test -q --locked

# The repo benchmark's self-tests, built against the workspace crates:
# a public-API change that breaks the benchmark fails here.
perfbench-test:
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

# End-to-end oracle smoke: each workload `BENCHMARK.json` lists, for one
# second. The command exits 1 when a warm-up differs from its
# `SpanMode::PerOp` reference, so a bit-exactness break in a fast path
# fails here too. The `jq -e` line fails the recipe when jq is missing
# or the list is empty, instead of letting the loop run zero times.
perfbench-smoke:
    jq -e '.workloads | length > 0' BENCHMARK.json > /dev/null
    for w in $(jq -r '.workloads[].name' BENCHMARK.json); do \
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload $w --seconds 1 --trace 0 || exit 1; \
    done

# Run the user-facing 70B examples once in release: a panic on the
# FCFS, round-robin, batched or fleet paths they drive fails here.
examples:
    cargo run --release --locked --example serving_70b
    cargo run --release --locked --example chatbot_70b

# Regenerate every paper table/figure ("full" for full-resolution sweeps).
repro target="all":
    cargo run --release -p bench --bin repro -- {{target}}

# Format + lint exactly as CI runs them.
lint:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
    just simlint

# The determinism lint: self-test the rule corpus, then lint the tree
# (see README "Determinism lint" for the D1–D5 rule catalog).
simlint:
    cargo run --release -p simlint -- --fixtures
    cargo run --release -p simlint

# Auto-format the workspace.
fmt:
    cargo fmt
