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
# too. Under FCFS and round-robin that run differs only by solo spans
# and layer-period jumps, so on `overload_rr` it checks the jumps; the
# independent check of the serving engine is `tests/oracle.rs`.
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
# perfbench from a `git archive` of `rev` under target/, then alternates
# its runs with the working tree's on the held-out seed 8675309 (each
# pair flips which side runs first, so a drift in the host's speed
# lands on both). Prints each pair's `sim_tokens_per_wall_s`, then, for
# every `end_to_end` metric `BENCHMARK.json` lists, both medians with
# their interquartile ranges and the pairs the working tree won and
# lost. A metric whose median moved the wrong way by more than its
# `bound` (a share of `rev`'s median) is flagged `WORSE`. The working
# tree's perfbench/Cargo.lock is restored if the build rewrites it.
bench-ab rev workload pairs="5" seconds="25":
    #!/usr/bin/env bash
    set -euo pipefail
    dir=target/bench-ab
    src="$dir/src"
    rm -rf "$src"
    mkdir -p "$src"
    git archive "{{rev}}" | tar -x -C "$src"
    cp perfbench/Cargo.lock "$dir/Cargo.lock.keep"
    trap 'cp "$dir/Cargo.lock.keep" perfbench/Cargo.lock' EXIT
    CARGO_TARGET_DIR="$dir/base" cargo build --release --quiet --offline \
        --manifest-path "$src/perfbench/Cargo.toml"
    CARGO_TARGET_DIR="$dir/head" cargo build --release --quiet --offline \
        --manifest-path perfbench/Cargo.toml
    # One run's end-to-end metrics as a flat `{name: value}` object.
    run() {
        "$dir/$1/release/perfbench" --workload "{{workload}}" --seed 8675309 \
            --seconds "{{seconds}}" --trace 0 2>/dev/null \
            | tail -n 1 | jq -e -c '.metrics | map_values(.value)' | tee -a "$dir/$1.jsonl"
    }
    : > "$dir/base.jsonl"
    : > "$dir/head.jsonl"
    for i in $(seq 1 "{{pairs}}"); do
        if [ $((i % 2)) -eq 1 ]; then
            b=$(run base); h=$(run head)
        else
            h=$(run head); b=$(run base)
        fi
        b=$(jq '.sim_tokens_per_wall_s' <<< "$b")
        h=$(jq '.sim_tokens_per_wall_s' <<< "$h")
        printf 'pair %d: {{rev}} %.0f  working tree %.0f  (x%.3f)\n' "$i" "$b" "$h" \
            "$(jq -n "$h / $b")"
    done
    echo "medians (IQR) of {{pairs}} pairs, {{rev}} -> working tree:"
    jq -n -r --slurpfile spec BENCHMARK.json \
        --slurpfile base "$dir/base.jsonl" --slurpfile head "$dir/head.jsonl" '
        def q(p): sort as $v | length as $n | (($n - 1) * p) as $h | ($h | floor) as $lo
            | $v[$lo] + ($h - $lo) * ($v[[$lo + 1, $n - 1] | min] - $v[$lo]);
        def won($m): if $m.better == "higher" then .[1] > .[0] else .[1] < .[0] end;
        $spec[0].end_to_end[] as $m
        | ($base | map(.[$m.name])) as $b | ($head | map(.[$m.name])) as $h
        | ($b | q(0.5)) as $bm | ($h | q(0.5)) as $hm
        | [$m.name, $m.unit, $bm, ($b | q(0.25)), ($b | q(0.75)),
           $hm, ($h | q(0.25)), ($h | q(0.75)),
           ([$b, $h] | transpose | map(select(won($m))) | length),
           ([$h, $b] | transpose | map(select(won($m))) | length),
           (if $m.better == "higher" then $hm < $bm * (1 - $m.bound)
            else $hm > $bm * (1 + $m.bound) end
            | if . then "WORSE by more than \($m.bound * 100)%" else "" end)]
        | @tsv' \
    | while IFS=$'\t' read -r name unit bm b25 b75 hm h25 h75 won lost flag; do
        printf '%-22s %.6g (%.6g..%.6g) -> %.6g (%.6g..%.6g) %s, won %d lost %d %s\n' \
            "$name" "$bm" "$b25" "$b75" "$hm" "$h25" "$h75" "$unit" "$won" "$lost" "$flag"
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
