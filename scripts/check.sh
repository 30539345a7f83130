#!/usr/bin/env bash
# Repo gate: formatting, lints, the tier-1 build+test pass, and the
# parallel/serial determinism properties, which sweep thread counts
# in-test.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== full workspace tests"
cargo test --workspace -q

echo "== ambient-config gate: no environment reads below the binaries"
# Every GTPIN_* knob is parsed once, into gtpin_par::RunConfig, by the
# binary that runs, and passed down as explicit values. Only that
# parser and the two process-wide registries below gtpin-par
# (telemetry, fault injection) may read the environment. The pattern
# catches `env::var`, `env::vars` and their `_os` forms, with or
# without a `std::` path, so `use std::env;` cannot hide a read.
AMBIENT_ALLOWED='^crates/(par/src/config|obs/src/registry|faults/src/lib)\.rs:'
AMBIENT_HITS="$(grep -rnE 'env::vars?(_os)?|configured_(sim_)?threads' src crates/*/src \
    | grep -vE "$AMBIENT_ALLOWED" || true)"
if [ -n "$AMBIENT_HITS" ]; then
    echo "$AMBIENT_HITS"
    echo "FAIL: library code reads the environment; take the value from RunConfig instead"
    exit 1
fi
echo "only RunConfig and the obs/faults registries read the environment"

echo "== one-memo gate: every sealed cache goes through gtpin_faults::Memo"
# A sealed cache verifies its canary on every read and heals on a
# mismatch; the chaos digests fold that read schedule. Memo is the one
# place that seals, so no cache can hand-roll its own lookup/heal path.
SEALED_HITS="$(grep -rn 'Sealed::new(' src crates/*/src \
    | grep -v '^crates/faults/src/sealed\.rs:' || true)"
if [ -n "$SEALED_HITS" ]; then
    echo "$SEALED_HITS"
    echo "FAIL: a cache seals entries outside gtpin_faults::Memo; use Memo instead"
    exit 1
fi
echo "only gtpin_faults::Memo seals cache entries"

echo "== determinism properties: parallel vs serial at 1..=8 threads"
# The thread counts are swept inside each property; the gate above
# proves nothing they reach reads GTPIN_THREADS, so one run suffices.
cargo test -q -p simpoint --test prop_parallel
cargo test -q -p simpoint --test prop_lloyd_oracle
cargo test -q -p subset-select --test prop_parallel

echo "== sharded-simulator gate: detailed sim serial vs 4 workers, digests diffed"
SIM_DIR="$(pwd)/target/sim-check"
rm -rf "$SIM_DIR"
mkdir -p "$SIM_DIR"
SIM_APP=sandra-crypt-aes128
GTPIN_SIM_THREADS=1 ./target/release/gtpin sim "$SIM_APP" \
    > "$SIM_DIR/serial.txt" 2>/dev/null
GTPIN_SIM_THREADS=4 ./target/release/gtpin sim "$SIM_APP" \
    > "$SIM_DIR/sharded.txt" 2>/dev/null
diff -u "$SIM_DIR/serial.txt" "$SIM_DIR/sharded.txt" || {
    echo "FAIL: 4-worker detailed simulation diverged from serial"
    exit 1
}
grep -q "stats digest:" "$SIM_DIR/serial.txt" || {
    cat "$SIM_DIR/serial.txt"
    echo "FAIL: gtpin sim did not emit a stats digest"
    exit 1
}
echo "4-worker stats digest is byte-identical to serial"

echo "== telemetry smoke: tier-1 tests under GTPIN_OBS=1"
# Absolute dir: test binaries run with per-crate working directories.
OBS_DIR="$(pwd)/target/obs-check"
rm -rf "$OBS_DIR"
GTPIN_OBS=1 GTPIN_OBS_DIR="$OBS_DIR" cargo test -q
test -s "$OBS_DIR/journal.gtobs" || {
    echo "FAIL: GTPIN_OBS=1 test run left no binary journal at $OBS_DIR/journal.gtobs"
    exit 1
}

echo "== GTOBS01 gate: flushed sim journal verifies, converts, matches artifacts"
OBS_SIM_DIR="$(pwd)/target/obs-sim-check"
rm -rf "$OBS_SIM_DIR"
mkdir -p "$OBS_SIM_DIR"
GTPIN_OBS=1 GTPIN_OBS_DIR="$OBS_SIM_DIR" GTPIN_SIM_THREADS=4 \
    ./target/release/gtpin sim sandra-crypt-aes128 >/dev/null 2>&1
# CRC + version + structure verification of the binary journal.
./target/release/gtpin obs-verify "$OBS_SIM_DIR/journal.gtobs"
# Legacy JSONL verification still works on the converted artifact.
./target/release/gtpin obs-verify "$OBS_SIM_DIR/journal.jsonl"
# The standalone converter must reproduce the artifact writer's output
# byte-for-byte (both derive from the same binary journal).
./target/release/gtpin obs-convert "$OBS_SIM_DIR/journal.gtobs" \
    --jsonl "$OBS_SIM_DIR/converted.jsonl" --trace "$OBS_SIM_DIR/converted-trace.json" \
    2>/dev/null
diff -q "$OBS_SIM_DIR/journal.jsonl" "$OBS_SIM_DIR/converted.jsonl" || {
    echo "FAIL: obs-convert JSONL differs from the write_artifacts journal"
    exit 1
}
diff -q "$OBS_SIM_DIR/trace.json" "$OBS_SIM_DIR/converted-trace.json" || {
    echo "FAIL: obs-convert Chrome trace differs from the write_artifacts trace"
    exit 1
}
# Pinned goldens: the binary->text converters must stay byte-identical
# to the legacy direct exporters.
cargo test -q -p gtpin-obs --test golden

echo "== obs-timeline determinism: per-EU report diffed across 1/2/4/8 sim threads"
TL_DIR="$(pwd)/target/obs-timeline-check"
rm -rf "$TL_DIR"
mkdir -p "$TL_DIR"
for T in 1 2 4 8; do
    rm -rf "$TL_DIR/run-$T"
    mkdir -p "$TL_DIR/run-$T"
    GTPIN_OBS=1 GTPIN_OBS_DIR="$TL_DIR/run-$T" GTPIN_SIM_THREADS=$T \
        ./target/release/gtpin sim sandra-crypt-aes128 >/dev/null 2>&1
    ./target/release/gtpin obs-timeline "$TL_DIR/run-$T/journal.gtobs" \
        > "$TL_DIR/timeline-$T.txt" 2>/dev/null
done
for T in 2 4 8; do
    diff -u "$TL_DIR/timeline-1.txt" "$TL_DIR/timeline-$T.txt" || {
        echo "FAIL: obs-timeline at GTPIN_SIM_THREADS=$T diverged from serial"
        exit 1
    }
done
grep -q "eu" "$TL_DIR/timeline-1.txt" || {
    cat "$TL_DIR/timeline-1.txt"
    echo "FAIL: obs-timeline emitted no per-EU table"
    exit 1
}
echo "obs-timeline is byte-identical at 1/2/4/8 sim threads"

echo "== paper report: digest pinned, 1 vs 4 threads diffed"
# Every table and figure of the paper at test scale, rendered from one
# profiling pass. The digest folds every printed byte, so it pins the
# whole report; the driver also exits nonzero when Table II's
# large -> medium -> small ordering or Figure 7's monotone speedup
# breaks. Re-pin only after reviewing what changed.
REPORT_DIGEST=0xdf9c228a0a1306c6
REPORT_DIR="$(pwd)/target/report-check"
rm -rf "$REPORT_DIR"
mkdir -p "$REPORT_DIR"
cargo build -q --release -p bench-suite --bin paper-report
GTPIN_THREADS=1 ./target/release/paper-report --scale test > "$REPORT_DIR/t1.txt"
GTPIN_THREADS=4 ./target/release/paper-report --scale test > "$REPORT_DIR/t4.txt"
diff -u "$REPORT_DIR/t1.txt" "$REPORT_DIR/t4.txt" || {
    echo "FAIL: paper report is not independent of GTPIN_THREADS"
    exit 1
}
grep -q "report digest: $REPORT_DIGEST" "$REPORT_DIR/t1.txt" || {
    tail -3 "$REPORT_DIR/t1.txt"
    echo "FAIL: paper report digest drifted from pinned $REPORT_DIGEST"
    exit 1
}
echo "paper report digest matches pinned $REPORT_DIGEST at 1 and 4 threads"

echo "== pipeline benchmark: its tests, then a serve-mix smoke"
# The smoke's own checks cover warm == cold answers and three journal
# records per cold session; any failed check exits nonzero.
cargo test -q --release --offline --manifest-path pipeline-bench/Cargo.toml
cargo run -q --release --offline --manifest-path pipeline-bench/Cargo.toml \
    --bin pipeline -- --workload serve-mix --seconds 1 --trace 0 >/dev/null

echo "== static analysis: lint + instrumentation-safety verifier over all builtin workloads"
LINT_OUT="$(cargo run -q --release --bin gtpin -- lint --all 2>&1)" || {
    echo "$LINT_OUT"
    echo "FAIL: gtpin lint --all reported errors or an unsafe rewrite"
    exit 1
}
echo "$LINT_OUT" | grep -q "0 error(s)" || {
    echo "$LINT_OUT"
    echo "FAIL: gtpin lint --all did not emit its zero-error summary"
    exit 1
}

echo "== analyze gate: structural analysis over all builtin workloads, digest pinned"
# The digest folds every kernel's rendered analysis (dominators,
# loop forest, trip bounds, value ranges, static cycle estimate), so
# any behavioral drift in the analyzer shows up here. Re-pin only
# after reviewing the new output.
ANALYZE_DIGEST=11e584116b5aecc7
ANALYZE_OUT="$(./target/release/gtpin analyze --all 2>&1)" || {
    echo "$ANALYZE_OUT"
    echo "FAIL: gtpin analyze --all reported an error"
    exit 1
}
echo "$ANALYZE_OUT" | grep -q "across 25 app(s)" || {
    echo "$ANALYZE_OUT" | tail -5
    echo "FAIL: gtpin analyze --all did not cover all 25 builtin apps"
    exit 1
}
echo "$ANALYZE_OUT" | grep -q "analysis digest: $ANALYZE_DIGEST" || {
    echo "$ANALYZE_OUT" | tail -5
    echo "FAIL: gtpin analyze --all digest drifted from pinned $ANALYZE_DIGEST"
    exit 1
}
echo "analysis digest matches pinned $ANALYZE_DIGEST"

echo "== unwrap/expect self-lint: crates/**/src vs scripts/unwrap_allowlist.txt"
# Production code threads errors; unwrap()/expect( budgets are pinned
# per file (test modules account for nearly all of them). A file over
# budget — or a new file with any calls — fails the gate.
UNWRAP_FAIL=0
while IFS= read -r SRC; do
    N=$(grep -c '\.unwrap()\|\.expect(' "$SRC" || true)
    [ "$N" -eq 0 ] && continue
    BUDGET=$(awk -v f="$SRC" '$1 == f { print $2 }' scripts/unwrap_allowlist.txt)
    if [ -z "$BUDGET" ]; then
        echo "FAIL: $SRC has $N unwrap()/expect( call(s) but no allowlist entry"
        UNWRAP_FAIL=1
    elif [ "$N" -gt "$BUDGET" ]; then
        echo "FAIL: $SRC has $N unwrap()/expect( call(s), budget is $BUDGET"
        UNWRAP_FAIL=1
    fi
done < <(find crates -path 'crates/*/src/*' -name '*.rs' | sort)
if [ "$UNWRAP_FAIL" -ne 0 ]; then
    echo "FAIL: unwrap/expect budget exceeded; thread the error or justify a budget bump"
    exit 1
fi
echo "unwrap/expect budgets hold"

echo "== armed-but-quiescent smoke: tier-1 tests under GTPIN_FAULTS=1"
# Armed with all rates zero: every instrumented seam runs its check
# path but nothing fires, so results must stay green and bit-identical.
GTPIN_FAULTS=1 GTPIN_FAULTS_SEED=42 cargo test -q

echo "== pinned chaos set: one scenario per fault contract, digest pinned"
# Thirteen named scenarios (zero-rate, one per site, journal.crash at
# a heavier rate, all sites): lossless recoveries must match a
# fault-free run, lossy ones must replay identically, and every row
# must fire a site. The digest pins every row's outcome and fault
# accounting. Re-pin only after reviewing what changed.
PINNED_DIGEST=0x740d8a7e9674d197
PINNED_OUT="$(./target/release/gtpin chaos --pinned --seed-base 42 2>&1)" || {
    echo "$PINNED_OUT"
    echo "FAIL: the pinned chaos set reported contract violations"
    exit 1
}
echo "$PINNED_OUT" | grep -q "13 scenario(s), 0 failure(s)" || {
    echo "$PINNED_OUT"
    echo "FAIL: the pinned chaos set did not run 13 passing scenarios"
    exit 1
}
echo "$PINNED_OUT" | grep -q "digest $PINNED_DIGEST" || {
    echo "$PINNED_OUT" | tail -3
    echo "FAIL: pinned chaos digest drifted from pinned $PINNED_DIGEST"
    exit 1
}
echo "pinned chaos set passes with digest $PINNED_DIGEST"

echo "== kill-and-resume smoke: SIGKILL mid-sweep, resume, diff vs uninterrupted"
RESUME_DIR="$(pwd)/target/resume-check"
rm -rf "$RESUME_DIR"
mkdir -p "$RESUME_DIR"
SMOKE_APPS=(sandra-crypt-aes128 sandra-crypt-aes256)
./target/release/gtpin explore "${SMOKE_APPS[@]}" \
    > "$RESUME_DIR/baseline.txt" 2>/dev/null
./target/release/gtpin explore "${SMOKE_APPS[@]}" \
    --journal "$RESUME_DIR/journal" >/dev/null 2>&1 &
SWEEP_PID=$!
# Kill only once real progress is journaled (>= 2 sealed segments); if
# the sweep finishes first, resume degenerates to a full replay — the
# diff below must hold either way.
for _ in $(seq 1 200); do
    if ! kill -0 "$SWEEP_PID" 2>/dev/null; then
        break
    fi
    SEGS=$(ls "$RESUME_DIR/journal" 2>/dev/null | grep -c '^seg-.*\.log$' || true)
    if [ "$SEGS" -ge 2 ]; then
        kill -9 "$SWEEP_PID" 2>/dev/null || true
        break
    fi
    sleep 0.01
done
wait "$SWEEP_PID" 2>/dev/null || true
./target/release/gtpin explore "${SMOKE_APPS[@]}" \
    --resume "$RESUME_DIR/journal" \
    > "$RESUME_DIR/resumed.txt" 2>"$RESUME_DIR/resume-stderr.txt"
diff -u "$RESUME_DIR/baseline.txt" "$RESUME_DIR/resumed.txt" || {
    echo "FAIL: resumed sweep report differs from the uninterrupted baseline"
    exit 1
}
grep -q "replayed from the journal" "$RESUME_DIR/resume-stderr.txt" || {
    cat "$RESUME_DIR/resume-stderr.txt"
    echo "FAIL: resume did not report replayed units on stderr"
    exit 1
}
echo "resumed report is byte-identical to the uninterrupted baseline"

echo "== chaos gate: fixed seeds, digest pinned, 1 vs 4 threads diffed, kill/resume diffed"
# Four seeded scenarios through the full pipeline (profile, sweep
# crash/resume, serve kill/resume) under multi-site fault plans. The
# digest folds every stage digest plus fault accounting, so it pins
# scenario derivation, fault injection, recovery, and the oracles all
# at once. Re-pin only after reviewing what changed.
CHAOS_DIGEST=0x21c5752636e97fa7
CHAOS_DIR="$(pwd)/target/chaos-check"
rm -rf "$CHAOS_DIR"
mkdir -p "$CHAOS_DIR"
GTPIN_THREADS=1 ./target/release/gtpin chaos --seeds 4 --seed-base 42 \
    > "$CHAOS_DIR/t1.txt"
GTPIN_THREADS=4 ./target/release/gtpin chaos --seeds 4 --seed-base 42 \
    > "$CHAOS_DIR/t4.txt"
diff -u "$CHAOS_DIR/t1.txt" "$CHAOS_DIR/t4.txt" || {
    echo "FAIL: chaos digest is not independent of GTPIN_THREADS"
    exit 1
}
grep -q "digest $CHAOS_DIGEST" "$CHAOS_DIR/t1.txt" || {
    tail -3 "$CHAOS_DIR/t1.txt"
    echo "FAIL: chaos digest drifted from pinned $CHAOS_DIGEST"
    exit 1
}
# Kill/resume identity of the chaos run itself: journal two scenarios,
# then resume the full range — completed scenarios replay from the
# journal and the output must be byte-identical to the uninterrupted
# run above.
./target/release/gtpin chaos --seeds 2 --seed-base 42 \
    --journal "$CHAOS_DIR/journal" >/dev/null
./target/release/gtpin chaos --seeds 4 --seed-base 42 \
    --resume "$CHAOS_DIR/journal" > "$CHAOS_DIR/resumed.txt"
diff -u "$CHAOS_DIR/t1.txt" "$CHAOS_DIR/resumed.txt" || {
    echo "FAIL: resumed chaos run diverged from the uninterrupted run"
    exit 1
}
# The shrinker self-test: a seeded multi-site failure must reduce to
# its single guilty site.
./target/release/gtpin chaos --self-test
echo "chaos digest matches pinned $CHAOS_DIGEST at 1 and 4 threads, kill/resume identical"

echo "== serve gate: daemon, 4 concurrent clients, SIGKILL mid-session, --resume, diff"
SERVE_DIR="$(pwd)/target/serve-check"
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
SOCK="$SERVE_DIR/gtpin.sock"
SERVE_REQS=(
    "explore sandra-crypt-aes128 --scale test"
    "sim sandra-crypt-aes128 --launches 2"
    "lint sandra-crypt-aes128"
    "sim sandra-crypt-aes256 --launches 2"
)
# A SIGKILL'd daemon leaves a stale socket file behind; the daemon's
# liveness probe detects the corpse and rebinds on its own, so no
# stage removes the socket — a still-live daemon stays protected.
wait_for_sock() {
    for _ in $(seq 1 3000); do
        [ -S "$SOCK" ] && return 0
        sleep 0.01
    done
    echo "FAIL: daemon never bound $SOCK"
    exit 1
}

# Uninterrupted baseline daemon: serve the four requests, then drain
# it with SIGTERM (the graceful path).
./target/release/gtpin serve --socket "$SOCK" 2>"$SERVE_DIR/baseline-daemon.log" &
DAEMON_PID=$!
wait_for_sock
for i in 0 1 2 3; do
    # shellcheck disable=SC2086
    ./target/release/gtpin request ${SERVE_REQS[$i]} --socket "$SOCK" \
        > "$SERVE_DIR/baseline-$i.txt"
done
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || {
    cat "$SERVE_DIR/baseline-daemon.log"
    echo "FAIL: daemon did not drain cleanly on SIGTERM"
    exit 1
}
[ -S "$SOCK" ] && {
    echo "FAIL: drained daemon left its socket behind"
    exit 1
}

# Journaled daemon: the same four requests as concurrent clients, then
# SIGKILL once sessions are journaled. Clients cut off mid-delivery
# may fail; their responses are re-fetched after resume.
./target/release/gtpin serve --socket "$SOCK" --journal "$SERVE_DIR/journal" \
    2>"$SERVE_DIR/killed-daemon.log" &
DAEMON_PID=$!
wait_for_sock
for i in 0 1 2 3; do
    # shellcheck disable=SC2086
    ./target/release/gtpin request ${SERVE_REQS[$i]} --socket "$SOCK" \
        >/dev/null 2>&1 &
done
# Kill only once real progress is journaled (>= 5 sealed records: the
# four Starts plus at least one Finish, so resume exercises replay and
# recompute together); if the daemon gets every session durable first,
# resume degenerates to a full replay — the diff below must hold
# either way.
for _ in $(seq 1 2000); do
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        break
    fi
    SEGS=$(ls "$SERVE_DIR/journal" 2>/dev/null | grep -c '^seg-.*\.log$' || true)
    if [ "$SEGS" -ge 5 ]; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
        break
    fi
    sleep 0.01
done
wait "$DAEMON_PID" 2>/dev/null || true
wait || true

# Restart with --resume, over the SIGKILL'd daemon's stale socket —
# the liveness probe must reclaim it. Completed sessions replay from
# the journal, interrupted ones recompute; every response must be
# byte-identical to the uninterrupted baseline.
./target/release/gtpin serve --socket "$SOCK" --resume "$SERVE_DIR/journal" \
    2>"$SERVE_DIR/resumed-daemon.log" &
DAEMON_PID=$!
wait_for_sock
for i in 0 1 2 3; do
    # shellcheck disable=SC2086
    ./target/release/gtpin request ${SERVE_REQS[$i]} --socket "$SOCK" \
        > "$SERVE_DIR/resumed-$i.txt"
    diff -u "$SERVE_DIR/baseline-$i.txt" "$SERVE_DIR/resumed-$i.txt" || {
        echo "FAIL: resumed daemon response $i differs from the uninterrupted baseline"
        exit 1
    }
done
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || true
echo "resumed daemon responses are byte-identical to the uninterrupted baseline"

echo "== obs drain bench: binary >=3x legacy JSONL, disabled path ~free"
# The bench asserts speedup >= 3x, byte-identical conversion, and a
# single-branch disabled path, then writes its fresh numbers to
# target/bench/; the checked-in BENCH_obsdrain.json is the baseline
# and is never overwritten.
OBSDRAIN_FRESH=target/bench/BENCH_obsdrain.json
rm -f "$OBSDRAIN_FRESH"
cargo bench -q -p bench-suite --bench obsdrain >/dev/null
grep -q '"jsonl_identical": true' "$OBSDRAIN_FRESH" || {
    cat "$OBSDRAIN_FRESH"
    echo "FAIL: $OBSDRAIN_FRESH does not attest byte-identical conversion"
    exit 1
}
echo "fresh obs drain numbers (baseline: BENCH_obsdrain.json):"
cat "$OBSDRAIN_FRESH"
echo

echo "OK"
