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

# End-to-end smoke: each workload `BENCHMARK.json` lists, for one
# second. The command exits 1 when a warm-up differs from its
# `SpanMode::PerOp` run, so a span that breaks bit-exactness fails here
# too. Under FCFS and round-robin that run differs only by solo spans;
# the independent check of the serving engine is `tests/oracle.rs`.
# A second one-second pass per workload with `--trace 1` runs the
# traced variant, the workload's work-count checks and every per-layer
# probe. The `jq -e` line fails the recipe when jq is missing or the
# list is empty, instead of letting the loop run zero times.
perfbench-smoke:
    jq -e '.workloads | length > 0' BENCHMARK.json > /dev/null
    for w in $(jq -r '.workloads[].name' BENCHMARK.json); do \
        for t in 0 1; do \
            cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
                --workload $w --seconds 1 --trace $t || exit 1; \
        done; \
    done

# A/B one benchmark workload against another revision: builds
# perfbench at `rev` in a git worktree under target/, then alternates
# its runs with the working tree's on the held-out seed 8675309 (each
# pair flips which side runs first, so a drift in the host's speed
# lands on both). Prints each pair's `sim_tokens_per_wall_s`, then
# both medians with their interquartile ranges. The working tree's
# perfbench/Cargo.lock is restored if the build rewrites it.
bench-ab rev workload pairs="5" seconds="25":
    #!/usr/bin/env bash
    set -euo pipefail
    dir=target/bench-ab
    wt="$dir/worktree"
    mkdir -p "$dir"
    git worktree remove --force "$wt" 2>/dev/null || true
    git worktree add --detach --quiet "$wt" "{{rev}}"
    cp perfbench/Cargo.lock "$dir/Cargo.lock.keep"
    trap 'git worktree remove --force "$wt"; cp "$dir/Cargo.lock.keep" perfbench/Cargo.lock' EXIT
    CARGO_TARGET_DIR="$dir/base" cargo build --release --quiet --offline \
        --manifest-path "$wt/perfbench/Cargo.toml"
    CARGO_TARGET_DIR="$dir/head" cargo build --release --quiet --offline \
        --manifest-path perfbench/Cargo.toml
    run() {
        "$dir/$1/release/perfbench" --workload "{{workload}}" --seed 8675309 \
            --seconds "{{seconds}}" --trace 0 2>/dev/null \
            | tail -n 1 | jq -e '.metrics.sim_tokens_per_wall_s.value'
    }
    : > "$dir/base.txt"
    : > "$dir/head.txt"
    for i in $(seq 1 "{{pairs}}"); do
        if [ $((i % 2)) -eq 1 ]; then
            b=$(run base); h=$(run head)
        else
            h=$(run head); b=$(run base)
        fi
        echo "$b" >> "$dir/base.txt"
        echo "$h" >> "$dir/head.txt"
        printf 'pair %d: {{rev}} %.0f  working tree %.0f  (x%.3f)\n' "$i" "$b" "$h" \
            "$(jq -n "$h / $b")"
    done
    for side in base head; do
        label=$([ "$side" = base ] && echo "{{rev}}" || echo "working tree")
        jq -s -r --arg side "$label" 'sort as $v | length as $n
            | def q(p): (($n - 1) * p) as $h | ($h | floor) as $lo
                | $v[$lo] + ($h - $lo) * ($v[[$lo + 1, $n - 1] | min] - $v[$lo]);
            "\($side): median \(q(0.5) | round) tok/s, IQR \(q(0.25) | round)..\(q(0.75) | round)"' \
            "$dir/$side.txt"
    done

# Non-test line count of each library crate (every crate but simlint)
# and their total: the lines of `crates/*/src/**/*.rs` that come before
# a file's first top-level `#[cfg(test)]`.
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    total=0
    for dir in crates/*/; do
        crate=$(basename "$dir")
        [ "$crate" = simlint ] && continue
        n=$(find "$dir/src" -name '*.rs' -exec awk '
                FNR == 1 { counting = 1 }
                /^#\[cfg\(test\)\]/ { counting = 0 }
                counting { n++ }
                END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
        printf '%-14s %6d\n' "$crate" "$n"
        total=$((total + n))
    done
    printf '%-14s %6d\n' total "$total"

# Run the user-facing 70B examples once in release: a panic on the
# FCFS, round-robin, batched or fleet paths they drive fails here.
examples:
    cargo run --release --locked --example serving_70b
    cargo run --release --locked --example chatbot_70b

# Regenerate every paper table/figure ("full" for full-resolution sweeps).
repro target="all":
    cargo run --release --locked -p bench --bin repro -- {{target}}

# Format + lint exactly as CI runs them.
lint:
    cargo fmt --check
    cargo clippy --workspace --all-targets --locked -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --locked
    just simlint

# The determinism lint: self-test the rule corpus, then lint the tree
# (see README "Determinism lint" for the D1–D5 rule catalog).
simlint:
    cargo run --release --locked -p simlint -- --fixtures
    cargo run --release --locked -p simlint

# Auto-format the workspace.
fmt:
    cargo fmt
