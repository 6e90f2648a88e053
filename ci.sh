#!/usr/bin/env sh
# Local CI: exactly what .github/workflows/ci.yml runs.
#
# The workspace is offline-first: it has no cargo features and no
# external crates, so every step below works without network access, and
# every test — the seeded property suites included — runs in tier-1.
set -eu

cd "$(dirname "$0")"

# Exposition lint for a scraped Prometheus body: no duplicate series, and
# every counter family ends in `_total`. The Rust suites run the full lint
# (tests/common); this keeps the two scrapes below honest against the
# release binaries.
lint_exposition() {
    awk '/^#/ || /^$/ { next }
         seen[$1]++ { print "duplicate series: " $1; exit 1 }' "$1"
    awk '$2 == "TYPE" && $4 == "counter" && $3 !~ /_total$/ {
             print "counter without _total suffix: " $3; exit 1
         }' "$1"
}

echo "== cargo fmt --check"
cargo fmt --check

# A feature-gated test or source file compiles to nothing in the default
# build, so tier-1 would silently stop running it.
echo "== no feature-gated tests or sources"
if grep -rnE '#!\[cfg\(feature|cfg\(feature = "external-deps"\)' tests crates/*/tests src; then
    echo "feature-gated code above compiles out of the default build"
    exit 1
fi

# An observer callback that the engine never calls is interface every
# observer must carry for nothing: each `fn` of `pub trait EngineObserver`
# must appear as a `.name(` call in the non-test part of engine.rs (the
# file up to its first `#[cfg(test)]`).
echo "== every EngineObserver callback has a producer in engine.rs"
ENGINE_SRC=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/engine.rs)
CALLBACKS=$(awk '/^pub trait EngineObserver/ { t = 1; next }
                 t && /^}/ { exit }
                 t && match($0, /^    fn [a-z_0-9]+/) { print substr($0, 8, RLENGTH - 7) }' \
    crates/core/src/obs.rs)
test -n "$CALLBACKS" || { echo "no EngineObserver callbacks found in obs.rs"; exit 1; }
for cb in $CALLBACKS; do
    printf '%s\n' "$ENGINE_SRC" | grep -qF ".$cb(" \
        || { echo "EngineObserver::$cb is never called in crates/core/src/engine.rs"; exit 1; }
done

# A phase the engine never times is a row every profile, exposition and
# `rvmon top` table carries for nothing: each variant of `Phase::ALL` in
# obs.rs must appear as `Phase::X` in the non-test part of engine.rs.
echo "== every Phase has a producer in engine.rs"
PHASES=$(awk '/pub const ALL: \[Phase;/ { t = 1; next }
              t && /\];/ { exit }
              t && match($0, /Phase::[A-Za-z]+/) { print substr($0, RSTART + 7, RLENGTH - 7) }' \
    crates/core/src/obs.rs)
test -n "$PHASES" || { echo "no Phase::ALL variants found in obs.rs"; exit 1; }
PHASES_OK=1
for phase in $PHASES; do
    printf '%s\n' "$ENGINE_SRC" | grep -qE "Phase::$phase([^A-Za-z]|$)" \
        || { echo "Phase::$phase is never timed in crates/core/src/engine.rs"; PHASES_OK=0; }
done
test "$PHASES_OK" = 1

# A client frame kind that no shipped client sends is protocol the
# server keeps for tests alone: each client → server `pub const FRAME_*:
# u8 = 0x0…` in service.rs must appear as a `write_frame(…, FRAME_X` or
# a `request(FRAME_X` call in the non-test part (up to the first
# `#[cfg(test)]`) of crates/core/src/client.rs, the one shipped client.
echo "== every client frame kind has a shipped sender"
SENDERS=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/client.rs)
KINDS=$(sed -n 's/^pub const \(FRAME_[A-Z_]*\): u8 = 0x0.*/\1/p' crates/core/src/service.rs)
test -n "$KINDS" || { echo "no client frame kinds found in service.rs"; exit 1; }
for kind in $KINDS; do
    printf '%s\n' "$SENDERS" | grep -qE "(write_frame\([^,]*, |request\()$kind[,)]" \
        || { echo "$kind has no write_frame or request sender in client.rs"; exit 1; }
done

# One request path: every reply the client awaits is read in one place,
# where a reply deadline can go, and rvmonctl speaks only through
# `ResilientClient`. The non-test part of client.rs calls `read_frame(`
# exactly once; that of rvmonctl.rs calls neither `read_frame(` nor
# `write_frame(`.
echo "== one reply reader in client.rs, no raw frames in rvmonctl.rs"
READS=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/client.rs \
    | grep -o 'read_frame(' | wc -l | tr -d ' ')
PATH_OK=1
test "$READS" = 1 \
    || { echo "crates/core/src/client.rs calls read_frame( $READS times, want 1"; PATH_OK=0; }
RAW=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' src/bin/rvmonctl.rs \
    | grep -nE '(read|write)_frame\(' || true)
if [ -n "$RAW" ]; then
    printf '%s\n' "$RAW" | while IFS=: read -r line _; do
        echo "src/bin/rvmonctl.rs:$line speaks raw frames instead of ResilientClient"
    done
    PATH_OK=0
fi
test "$PATH_OK" = 1

# A journal record made outside the journal writer is a second writer,
# and a second vocabulary recovery must replay: each `pub const AUX_*: u8`
# tag in journal.rs must be constructed (`tag: AUX_X, bytes: …`, the tag
# maybe path-qualified, `bytes` maybe shorthand) in the non-test part (up
# to the first `#[cfg(test)]`) of the writer module
# crates/core/src/ingest.rs, and in the non-test part of no other file
# under crates/*/src or src/. Patterns (`let Record::…`, `=>`) are reads.
# Likewise a journal opened outside them is a second writer: a
# `JournalWriter::create`, `create_with` or `resume` call may appear in
# the non-test part of journal.rs and ingest.rs only.
echo "== every journal record tag is written by the one journal writer"
WRITER=crates/core/src/ingest.rs
TAGS=$(sed -n 's/^pub const \(AUX_[A-Z_]*\): u8 = .*/\1/p' crates/core/src/journal.rs)
test -n "$TAGS" || { echo "no AUX_* tags found in journal.rs"; exit 1; }
NON_TEST='/#\[cfg\(test\)\]/ { exit } { print }'
# Prints the non-test lines of file $2 that construct a record tagged $1.
constructs() {
    awk "$NON_TEST" "$2" | grep -E "tag: ([A-Za-z_]+::)*$1, bytes( \}|:)" \
        | grep -vE 'tag: [^}]*\} *=>|let Record::'
}
WRITERS_OK=1
for tag in $TAGS; do
    for f in $(find crates/*/src src -name '*.rs' | sort); do
        test "$f" = "$WRITER" && continue
        if constructs "$tag" "$f" >/dev/null; then
            echo "$tag is constructed in $f, outside the journal writer $WRITER"
            WRITERS_OK=0
        fi
    done
    constructs "$tag" "$WRITER" >/dev/null \
        || { echo "$tag is never constructed in $WRITER"; WRITERS_OK=0; }
done
for f in $(find crates/*/src src -name '*.rs' | sort); do
    case "$f" in crates/core/src/journal.rs | "$WRITER") continue ;; esac
    OPENS=$(awk "$NON_TEST" "$f" | grep -nE 'JournalWriter::(create|create_with|resume)\(' || true)
    if [ -n "$OPENS" ]; then
        printf '%s\n' "$OPENS" | while IFS=: read -r line _; do
            echo "$f:$line opens a JournalWriter outside journal.rs and $WRITER"
        done
        WRITERS_OK=0
    fi
done
test "$WRITERS_OK" = 1

# A table keyed by `Binding` on the default SipHash pays a slower hash
# than the engine's own tables, and makes Fig. 9A's columns pay different
# hashes: every `HashMap<Binding` or `HashSet<Binding` in the
# non-test part of a file under crates/*/src or src/ must name
# `BindingHash` on the same line.
echo "== every Binding-keyed table hashes with BindingHash"
HASHERS_OK=1
for f in $(find crates/*/src src -name '*.rs' | sort); do
    SIP=$(awk "$NON_TEST" "$f" | grep -nE 'Hash(Map|Set)<Binding\b' | grep -v 'BindingHash' || true)
    if [ -n "$SIP" ]; then
        printf '%s\n' "$SIP" | while IFS=: read -r line _; do
            echo "$f:$line keys a table by Binding without BindingHash"
        done
        HASHERS_OK=0
    fi
done
test "$HASHERS_OK" = 1

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== cargo build --workspace --no-default-features (offline honesty)"
cargo build --workspace --no-default-features

# Chaos smoke: seeded fault injection must leave verdicts oracle-equal.
# Fixed seeds keep the stage deterministic; a failure prints the exact
# `rvmon chaos ... --seed N` line that reproduces it locally.
echo "== chaos smoke (fixed seeds, release)"
for seed in 7 41; do
    cargo run -q --release --bin rvmon -- chaos specs/unsafe_iter.rv \
        --seed "$seed" --events 256 >/dev/null
    cargo run -q --release --bin rvmon -- chaos specs/unsafe_sync_map.rv \
        --seed "$seed" --events 256 >/dev/null
done
cargo run -q --release -p rv-bench --bin fig10 -- --scale 0.05 --chaos-seed 7 >/dev/null

# Fig. 10 oracle: the scale-1 engine counts (E, M, FM, CM, peak live,
# triggers, skipped creations, dead keys, cache hits) are deterministic and
# must match the committed file byte for byte. A dispatch optimisation may
# not move them; only a change that sets out to alter the lazy-GC schedule
# may regenerate the file, and it must say so.
echo "== fig10 oracle (scale 1 stats vs tests/data/fig10_scale1.json, release)"
FIG10_JSON="${TMPDIR:-/tmp}/rv-ci-fig10-$$.json"
cargo run -q --release -p rv-bench --bin fig10 -- --scale 1 --stats-json "$FIG10_JSON" >/dev/null
cmp "$FIG10_JSON" tests/data/fig10_scale1.json \
    || { echo "fig10 --scale 1 counts differ from tests/data/fig10_scale1.json"; exit 1; }
rm -f "$FIG10_JSON"

# Recovery smoke: journal a run, crash it by chopping the journal tail,
# recover, and audit the repaired journal. `recover`/`replay` exit
# nonzero if the state fails the invariant check, and the corrupt-corpus
# suite asserts typed errors (exit 2, never a panic) on unusable inputs.
echo "== recovery smoke (journal + kill + recover, release)"
RVJ_DIR="${TMPDIR:-/tmp}/rv-ci-journal-$$"
rm -rf "$RVJ_DIR"
cargo run -q --release --bin rvmon -- run specs/unsafe_iter.rv \
    examples/unsafe_iter.events --journal "$RVJ_DIR" --checkpoint-every 4 >/dev/null
SEG="$RVJ_DIR/journal-00000000"
SIZE=$(wc -c <"$SEG")
head -c "$((SIZE - 13))" "$SEG" >"$SEG.torn" && mv "$SEG.torn" "$SEG"
cargo run -q --release --bin rvmon -- recover "$RVJ_DIR" >/dev/null
cargo run -q --release --bin rvmon -- replay "$RVJ_DIR" >/dev/null
rm -rf "$RVJ_DIR"
cargo test -q --release --test recovery_corrupt >/dev/null
cargo run -q --release -p rv-bench --bin recovery -- --scale 0.02 >/dev/null

# Reused journal directory: journal the example into a directory that
# already holds a longer, densely checkpointed run; `recover` must print
# the `stats:` line a fresh directory gives. A double free is a rejected
# trace line (exit 1), never a panic (exit 101).
echo "== reused journal directory + double free (release)"
RVR_DIR="${TMPDIR:-/tmp}/rv-ci-reuse-$$"
rm -rf "$RVR_DIR" && mkdir -p "$RVR_DIR"
for k in $(seq 1 40); do
    printf 'create c%s i%s\nupdate c%s\nnext i%s\n' "$k" "$k" "$k" "$k"
done >"$RVR_DIR/long.events"
./target/release/rvmon run specs/unsafe_iter.rv "$RVR_DIR/long.events" \
    --journal "$RVR_DIR/reused" --checkpoint-every 2 >/dev/null
for dir in reused fresh; do
    ./target/release/rvmon run specs/unsafe_iter.rv examples/unsafe_iter.events \
        --journal "$RVR_DIR/$dir" >/dev/null
done
REUSED=$(./target/release/rvmon recover "$RVR_DIR/reused" | grep '^stats:')
FRESH=$(./target/release/rvmon recover "$RVR_DIR/fresh" | grep '^stats:')
[ "$REUSED" = "$FRESH" ] \
    || { echo "reused directory recovered '$REUSED', fresh '$FRESH'"; exit 1; }
printf 'create c i\nnext i\n!free i\n!free i\n' >"$RVR_DIR/double_free.events"
CODE=0
./target/release/rvmon trace specs/unsafe_iter.rv "$RVR_DIR/double_free.events" \
    >/dev/null 2>&1 || CODE=$?
[ "$CODE" -eq 1 ] || { echo "rvmon trace on a double free exited $CODE, want 1"; exit 1; }
rm -rf "$RVR_DIR"

# Profiling smoke: the provenance ledger must re-derive the engine's
# E/M/FM/CM exactly (`explain` exits 1 on any accounting mismatch), the
# phase-profiler bench report must emit per-phase histograms, and the
# Prometheus endpoint must answer a raw-TCP scrape (the curl-less
# `cli_serve` integration test).
echo "== profiling smoke (explain identity + profile JSON + serve, release)"
cargo run -q --release --bin rvmon -- explain specs/unsafe_iter.rv \
    examples/unsafe_iter.events --summary >/dev/null
PROF_JSON="${TMPDIR:-/tmp}/rv-ci-profile-$$.json"
cargo run -q --release -p rv-bench --bin fig10 -- --scale 0.02 \
    --profile-json "$PROF_JSON" >/dev/null
grep -q '"enabled_overhead_pct"' "$PROF_JSON"
grep -q '"index_lookup"' "$PROF_JSON"
rm -f "$PROF_JSON"
cargo test -q --release --test cli_serve >/dev/null

# Observability smoke: a journaled run must leave AUX_GC_CYCLE records
# that `gc-log` can render (with its MMU curve), the Chrome-trace
# exporter must emit JSON a real parser accepts, and a live scrape of
# the exposition must pass the lints Prometheus scrapers depend on —
# no duplicate series, counters suffixed `_total`. python3 does the
# strict JSON parse and the scrape where available; the cli_timeline /
# cli_serve integration tests cover the same ground hermetically.
echo "== observability smoke (gc-log + timeline + exposition lint, release)"
RVG_DIR="${TMPDIR:-/tmp}/rv-ci-gclog-$$"
rm -rf "$RVG_DIR"
cargo run -q --release --bin rvmon -- run specs/unsafe_iter.rv \
    examples/unsafe_iter.events --journal "$RVG_DIR" >/dev/null
GC_LOG="${TMPDIR:-/tmp}/rv-ci-gclog-$$.txt"
cargo run -q --release --bin rvmon -- gc-log "$RVG_DIR" >"$GC_LOG"
grep -q 'GC cycle' "$GC_LOG"
grep -q 'mmu (span' "$GC_LOG"
rm -rf "$RVG_DIR" "$GC_LOG"
TRACE_JSON="${TMPDIR:-/tmp}/rv-ci-trace-$$.json"
cargo run -q --release --bin rvmon -- timeline specs/unsafe_iter.rv \
    examples/unsafe_iter.events --out "$TRACE_JSON" >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["traceEvents"], "empty traceEvents"
assert any(e.get("ph") == "X" for e in doc["traceEvents"]), "no GC cycles"
' "$TRACE_JSON"
else
    grep -q '"traceEvents"' "$TRACE_JSON"
    grep -q '"ph":"X"' "$TRACE_JSON"
fi
rm -f "$TRACE_JSON"
if command -v python3 >/dev/null 2>&1; then
    SRV_OUT="${TMPDIR:-/tmp}/rv-ci-serve-$$.txt"
    EXPO="${TMPDIR:-/tmp}/rv-ci-expo-$$.txt"
    cargo run -q --release --bin rvmon -- serve specs/unsafe_iter.rv \
        examples/unsafe_iter.events --port 0 --once >"$SRV_OUT" &
    SRV_PID=$!
    for _ in $(seq 1 100); do
        grep -q 'http://' "$SRV_OUT" 2>/dev/null && break
        sleep 0.1
    done
    URL=$(sed -n 's/.*\(http:\/\/[^ ]*\).*/\1/p' "$SRV_OUT" | head -1)
    python3 -c 'import sys, urllib.request
open(sys.argv[2], "wb").write(urllib.request.urlopen(sys.argv[1], timeout=10).read())
' "$URL" "$EXPO"
    wait "$SRV_PID"
    lint_exposition "$EXPO"
    grep -q 'rvmon_events_total' "$EXPO"
    rm -f "$SRV_OUT" "$EXPO"
fi
cargo test -q --release --test cli_timeline >/dev/null

# Daemon smoke: start rvmond, drive two tenants over the real socket —
# one with a trigger handler that panics on every report — and assert
# the healthy tenant is unaffected (fault containment), then
# SIGTERM-drain, restart over the same root, and verify every tenant
# recovered with its exact counters (exactly-once delivery: a drain
# checkpoints at the journal tail, so restart replays nothing). The
# cli_rvmond / service_isolation integration tests cover the same
# ground hermetically, SIGKILL path included.
echo "== daemon smoke (rvmond + loadgen + drain + restart, release)"
if command -v python3 >/dev/null 2>&1; then
    RVD_DIR="${TMPDIR:-/tmp}/rv-ci-rvmond-$$"
    RVD_OUT="${TMPDIR:-/tmp}/rv-ci-rvmond-$$.out"
    HEALTH="${TMPDIR:-/tmp}/rv-ci-rvmond-$$.health"
    rm -rf "$RVD_DIR"
    cargo run -q --release --bin rvmond -- --root "$RVD_DIR" \
        --port 0 --http-port 0 >"$RVD_OUT" 2>/dev/null &
    RVD_PID=$!
    for _ in $(seq 1 100); do
        grep -q 'http://' "$RVD_OUT" 2>/dev/null && break
        sleep 0.1
    done
    INGEST=$(sed -n 's/.*ingest on \([^ ]*\).*/\1/p' "$RVD_OUT" | head -1)
    HEALTH_URL=$(sed -n 's#.*\(http://[^ ]*\)#\1#p' "$RVD_OUT" | head -1)
    cargo run -q --release -p rv-bench --bin loadgen -- --addr "$INGEST" \
        --tenant good=fop --tenant bad=batik,panic --events 2000 >/dev/null
    python3 -c 'import sys, urllib.request
open(sys.argv[2], "wb").write(urllib.request.urlopen(sys.argv[1], timeout=10).read())
' "$HEALTH_URL" "$HEALTH"
    grep -q '^ok$' "$HEALTH"
    grep -q '^tenants 2$' "$HEALTH"
    grep -q 'tenant bad state=running' "$HEALTH"
    grep 'tenant bad ' "$HEALTH" | grep -vq 'quarantined=0 ' \
        || { echo "panicking tenant never quarantined a monitor"; exit 1; }
    grep 'tenant good ' "$HEALTH" | grep -q 'state=running .*quarantined=0 budget_trips=0' \
        || { echo "faulty neighbor perturbed the healthy tenant"; exit 1; }
    # The drain about to happen writes one more checkpoint per tenant,
    # so the restart comparison excludes the checkpoints counter.
    GOOD_LINE=$(grep 'tenant good ' "$HEALTH" | sed 's/ checkpoints=[0-9]*//')
    BAD_LINE=$(grep 'tenant bad ' "$HEALTH" | sed 's/ checkpoints=[0-9]*//')
    kill -TERM "$RVD_PID"
    wait "$RVD_PID" || { echo "rvmond SIGTERM drain exited nonzero"; exit 1; }
    # Restart over the same root: both tenants must come back verbatim.
    cargo run -q --release --bin rvmond -- --root "$RVD_DIR" \
        --port 0 --http-port 0 >"$RVD_OUT" 2>/dev/null &
    RVD_PID=$!
    for _ in $(seq 1 100); do
        grep -q 'http://' "$RVD_OUT" 2>/dev/null && break
        sleep 0.1
    done
    HEALTH_URL=$(sed -n 's#.*\(http://[^ ]*\)#\1#p' "$RVD_OUT" | head -1)
    python3 -c 'import sys, urllib.request
open(sys.argv[2], "wb").write(urllib.request.urlopen(sys.argv[1], timeout=10).read())
' "$HEALTH_URL" "$HEALTH"
    grep -q '^tenants 2$' "$HEALTH"
    test "$(grep 'tenant good ' "$HEALTH" | sed 's/ checkpoints=[0-9]*//')" = "$GOOD_LINE" \
        || { echo "tenant good counters drifted across restart"; exit 1; }
    test "$(grep 'tenant bad ' "$HEALTH" | sed 's/ checkpoints=[0-9]*//')" = "$BAD_LINE" \
        || { echo "tenant bad counters drifted across restart"; exit 1; }
    kill -TERM "$RVD_PID"
    wait "$RVD_PID"
    rm -rf "$RVD_DIR" "$RVD_OUT" "$HEALTH"
fi
cargo test -q --release --test cli_rvmond --test service_isolation >/dev/null

# Self-healing smoke: the same seeded loadgen workload runs twice — once
# straight into a supervised rvmond, once through `rvmon netchaos`
# injecting seeded drops/dups/corruption — and both runs carry a
# worker-fatal fault the supervisor must absorb. The client-observed
# trigger hashes must be identical (exactly-once through chaos), the
# daemons must report the supervised restart, and a SIGHUP spec reload
# fired mid-run on the chaos side must land as spec v2 while dropping
# zero acked events (event/trigger counters stay equal to the clean
# run). The netchaos_differential / self_healing integration tests
# cover the same ground hermetically.
echo "== self-healing smoke (netchaos + supervised restart + SIGHUP reload, release)"
NCH_CLEAN="${TMPDIR:-/tmp}/rv-ci-nch-clean-$$"
NCH_CHAOS="${TMPDIR:-/tmp}/rv-ci-nch-chaos-$$"
NCH_SPECS="${TMPDIR:-/tmp}/rv-ci-nch-specs-$$"
NCH_OUT1="${TMPDIR:-/tmp}/rv-ci-nch-$$.d1"
NCH_OUT2="${TMPDIR:-/tmp}/rv-ci-nch-$$.d2"
NCH_PROXY="${TMPDIR:-/tmp}/rv-ci-nch-$$.proxy"
NCH_FIFO="${TMPDIR:-/tmp}/rv-ci-nch-$$.fifo"
NCH_J1="${TMPDIR:-/tmp}/rv-ci-nch-$$.clean.json"
NCH_J2="${TMPDIR:-/tmp}/rv-ci-nch-$$.chaos.json"
NCH_H1="${TMPDIR:-/tmp}/rv-ci-nch-$$.h1"
NCH_H2="${TMPDIR:-/tmp}/rv-ci-nch-$$.h2"
rm -rf "$NCH_CLEAN" "$NCH_CHAOS" "$NCH_SPECS"
mkdir -p "$NCH_SPECS"
# The reload payload: byte-identical automaton, so the SIGHUP cutover
# exercises the full drain/checkpoint/swap path without perturbing the
# differential. Its content token differs from the boot token (0), so
# the reload is applied, not deduplicated.
printf '%s\n' \
    'UnsafeIter(Collection c, Iterator i) {' \
    '    event create(c, i);' \
    '    event update(c);' \
    '    event next(i);' \
    '    ere: update* create next* update+ next' \
    '    @match { report "improper Concurrent Modification found!"; }' \
    '}' >"$NCH_SPECS/t.spec"
cp "$NCH_SPECS/t.spec" "$NCH_SPECS/u.spec"
# The daemons run as the direct binaries (built above) so SIGHUP and
# SIGTERM reach rvmond itself, not a cargo wrapper.
./target/release/rvmond --root "$NCH_CLEAN" --port 0 --http-port 0 \
    --restart-budget 5 --restart-backoff-ms 20 --spec-dir "$NCH_SPECS" \
    >"$NCH_OUT1" 2>/dev/null &
CLEAN_PID=$!
./target/release/rvmond --root "$NCH_CHAOS" --port 0 --http-port 0 \
    --restart-budget 5 --restart-backoff-ms 20 --spec-dir "$NCH_SPECS" \
    >"$NCH_OUT2" 2>/dev/null &
CHAOS_PID=$!
for OUT in "$NCH_OUT1" "$NCH_OUT2"; do
    for _ in $(seq 1 100); do
        grep -q 'http://' "$OUT" 2>/dev/null && break
        sleep 0.1
    done
done
CLEAN_INGEST=$(sed -n 's/.*ingest on \([^ ]*\).*/\1/p' "$NCH_OUT1" | head -1)
CHAOS_INGEST=$(sed -n 's/.*ingest on \([^ ]*\).*/\1/p' "$NCH_OUT2" | head -1)
CLEAN_HTTP=$(sed -n 's#.*\(http://[^ ]*\)/healthz.*#\1#p' "$NCH_OUT1" | head -1)
CHAOS_HTTP=$(sed -n 's#.*\(http://[^ ]*\)/healthz.*#\1#p' "$NCH_OUT2" | head -1)
# The chaos proxy reads stdin to stay alive: feed it a fifo and close
# the write end to shut it down (it prints its fault stats on exit).
mkfifo "$NCH_FIFO"
./target/release/rvmon netchaos --upstream "$CHAOS_INGEST" \
    --profile 'drop=10,dup=5,corrupt=5,delay=10,delay_ms=2,seed=42' \
    <"$NCH_FIFO" >"$NCH_PROXY" &
NCH_PID=$!
exec 9>"$NCH_FIFO"
for _ in $(seq 1 100); do
    grep -q 'listening on' "$NCH_PROXY" 2>/dev/null && break
    sleep 0.1
done
PROXY_ADDR=$(sed -n 's/.*listening on \([^ ]*\).*/\1/p' "$NCH_PROXY" | head -1)
# Phase A — differential with a supervised restart: the identical
# seeded workload (mid-run `!fatal` included) direct vs through the
# proxy must yield byte-identical client-observed trigger streams.
# No reload in this phase: an AUX_RELOAD shifts journal seqs, so the
# hot-reload invariant is phase B's count-based check instead.
cargo run -q --release -p rv-bench --bin loadgen -- --addr "$CLEAN_INGEST" \
    --tenant t=fop --events 2400 --fatal-at 700 --json >"$NCH_J1"
cargo run -q --release -p rv-bench --bin loadgen -- --addr "$PROXY_ADDR" \
    --tenant t=fop --events 2400 --fatal-at 700 --json >"$NCH_J2"
CLEAN_HASH=$(sed -n 's/.*"trigger_hash":"\([0-9a-f]*\)".*/\1/p' "$NCH_J1" | head -1)
CHAOS_HASH=$(sed -n 's/.*"trigger_hash":"\([0-9a-f]*\)".*/\1/p' "$NCH_J2" | head -1)
test -n "$CLEAN_HASH" || { echo "no trigger hash in clean loadgen JSON"; exit 1; }
test "$CLEAN_HASH" = "$CHAOS_HASH" \
    || { echo "trigger streams diverged under chaos: $CLEAN_HASH vs $CHAOS_HASH"; exit 1; }
grep -q '"reconnects":0[,}]' "$NCH_J2" \
    && { echo "chaos run never reconnected — proxy was not in the path"; exit 1; }
# Phase B — SIGHUP hot reload mid-run on the chaos side (fresh tenant,
# so session dedup marks start clean). The reload resets monitor state
# by design, so the invariant is on the events counter: the chaos side
# must process exactly the clean side's line count — zero acked events
# dropped across faults plus the cutover — and land on spec v2.
cargo run -q --release -p rv-bench --bin loadgen -- --addr "$CLEAN_INGEST" \
    --tenant u=fop --events 1600 --json >/dev/null
cargo run -q --release -p rv-bench --bin loadgen -- --addr "$PROXY_ADDR" \
    --tenant u=fop --events 1600 --json >/dev/null &
LG_PID=$!
sleep 1
kill -HUP "$CHAOS_PID"
wait "$LG_PID" || { echo "chaos-side loadgen failed across the reload"; exit 1; }
exec 9>&-
wait "$NCH_PID" || true
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import sys, urllib.request
open(sys.argv[2], "wb").write(urllib.request.urlopen(sys.argv[1] + "/healthz", timeout=10).read())
' "$CLEAN_HTTP" "$NCH_H1"
    python3 -c 'import sys, urllib.request
open(sys.argv[2], "wb").write(urllib.request.urlopen(sys.argv[1] + "/healthz", timeout=10).read())
' "$CHAOS_HTTP" "$NCH_H2"
    grep 'tenant t ' "$NCH_H2" | grep -q 'state=running' \
        || { echo "chaos tenant did not heal"; cat "$NCH_H2"; exit 1; }
    grep 'tenant t ' "$NCH_H2" | grep -q 'restarts=[1-9]' \
        || { echo "supervised restart not recorded"; cat "$NCH_H2"; exit 1; }
    grep 'tenant u ' "$NCH_H2" | grep -q 'spec_version=2' \
        || { echo "SIGHUP reload did not land as spec v2"; cat "$NCH_H2"; exit 1; }
    # Zero events dropped: per tenant, the chaos side processed exactly
    # the clean side's line total despite faults (and, for `u`, the
    # mid-run reload). Phase A's tenant also keeps trigger parity.
    for T in t u; do
        CLEAN_EV=$(grep "tenant $T " "$NCH_H1" | sed -n 's/.* events=\([0-9]*\).*/\1/p')
        CHAOS_EV=$(grep "tenant $T " "$NCH_H2" | sed -n 's/.* events=\([0-9]*\).*/\1/p')
        test -n "$CLEAN_EV" && test "$CLEAN_EV" = "$CHAOS_EV" \
            || { echo "tenant $T event counts diverged: $CLEAN_EV vs $CHAOS_EV"; exit 1; }
    done
    CLEAN_TR=$(grep 'tenant t ' "$NCH_H1" | sed -n 's/.* triggers=\([0-9]*\).*/\1/p')
    CHAOS_TR=$(grep 'tenant t ' "$NCH_H2" | sed -n 's/.* triggers=\([0-9]*\).*/\1/p')
    test "$CLEAN_TR" = "$CHAOS_TR" \
        || { echo "trigger counts diverged: $CLEAN_TR vs $CHAOS_TR"; exit 1; }
fi
kill -TERM "$CLEAN_PID" "$CHAOS_PID"
wait "$CLEAN_PID" || { echo "clean rvmond drain exited nonzero"; exit 1; }
wait "$CHAOS_PID" || { echo "chaos rvmond drain exited nonzero"; exit 1; }
# Offline audit of the drained chaos root, SIGHUP-reloaded tenant `u`
# included: both commands run the daemon's own journal replayer.
./target/release/rvmon top "$NCH_CHAOS" >/dev/null
./target/release/rvmon replay "$NCH_CHAOS/u" >/dev/null
rm -rf "$NCH_CLEAN" "$NCH_CHAOS" "$NCH_SPECS" "$NCH_OUT1" "$NCH_OUT2" \
    "$NCH_PROXY" "$NCH_FIFO" "$NCH_J1" "$NCH_J2" "$NCH_H1" "$NCH_H2"
cargo test -q --release --test netchaos_differential --test self_healing \
    --test wire_reject_matrix >/dev/null

# Lossy-daemon smoke: the daemon-lossy benchmark workload streams one
# tenant through a frame-dropping chaos proxy into rvmond, SIGKILLs and
# recovers it, and gates the run on an in-process replay's trigger
# digests. A frame lost inside the connection is repaired at the next
# barrier without a reconnect, so three seconds carry thousands of
# barriers. `--inject-mismatch` corrupts the reference digests: the
# gate must then fail the run with exit 1.
echo "== lossy-daemon smoke (daemon-lossy workload + correctness gate, release)"
LOSSY_JSON=$(bash rvbench/run.sh --workload daemon-lossy --seconds 3 --trace 0 | tail -1)
echo "$LOSSY_JSON" | grep -q '"correct":true' \
    || { echo "daemon-lossy failed its correctness gate: $LOSSY_JSON"; exit 1; }
echo "$LOSSY_JSON" | grep -q '"failed":0[,}]' \
    || { echo "daemon-lossy failed operations: $LOSSY_JSON"; exit 1; }
LOSSY_RC=0
bash rvbench/run.sh --workload daemon-lossy --seconds 3 --trace 0 --inject-mismatch \
    >/dev/null 2>&1 || LOSSY_RC=$?
test "$LOSSY_RC" = 1 \
    || { echo "daemon-lossy --inject-mismatch exited $LOSSY_RC, not 1"; exit 1; }

# Tracing smoke: rvmond runs with SLO objectives under loadgen traffic
# that injects a mid-run worker fatal. The scrape must expose the
# rvmond_slo_* / rvmond_stage_* / rvmond_build_info series, the worker
# failure must leave a flight-recorder dump that `rvmon flight` renders
# with the per-stage breakdown, and `rvmon timeline --daemon` must turn
# the same dump into Chrome-trace JSON a real parser accepts. The
# observability integration test covers the same ground hermetically.
echo "== tracing smoke (slo scrape + flight dump + daemon timeline, release)"
if command -v python3 >/dev/null 2>&1; then
    TRC_DIR="${TMPDIR:-/tmp}/rv-ci-trace-$$"
    TRC_OUT="${TMPDIR:-/tmp}/rv-ci-trace-$$.out"
    TRC_EXPO="${TMPDIR:-/tmp}/rv-ci-trace-$$.expo"
    TRC_HEALTH="${TMPDIR:-/tmp}/rv-ci-trace-$$.health"
    TRC_CHROME="${TMPDIR:-/tmp}/rv-ci-trace-$$.chrome.json"
    TRC_JSON="${TMPDIR:-/tmp}/rv-ci-trace-$$.loadgen.json"
    TRC_FLIGHT="${TMPDIR:-/tmp}/rv-ci-trace-$$.flight.txt"
    rm -rf "$TRC_DIR"
    ./target/release/rvmond --root "$TRC_DIR" --port 0 --http-port 0 \
        --restart-budget 5 --restart-backoff-ms 20 \
        --slo 'latency_target_us=500000,latency_goal=0.9,availability=0.99,window=256' \
        >"$TRC_OUT" 2>/dev/null &
    TRC_PID=$!
    for _ in $(seq 1 100); do
        grep -q 'http://' "$TRC_OUT" 2>/dev/null && break
        sleep 0.1
    done
    TRC_INGEST=$(sed -n 's/.*ingest on \([^ ]*\).*/\1/p' "$TRC_OUT" | head -1)
    TRC_HTTP=$(sed -n 's#.*\(http://[^ ]*\)/healthz.*#\1#p' "$TRC_OUT" | head -1)
    cargo run -q --release -p rv-bench --bin loadgen -- --addr "$TRC_INGEST" \
        --tenant t=fop --events 1500 --fatal-at 500 --json >"$TRC_JSON"
    grep -q '"stages":{' "$TRC_JSON" \
        || { echo "loadgen --json carries no server stage stats"; exit 1; }
    python3 -c 'import sys, urllib.request
open(sys.argv[2], "wb").write(urllib.request.urlopen(sys.argv[1] + "/metrics", timeout=10).read())
' "$TRC_HTTP" "$TRC_EXPO"
    grep -q '^rvmond_build_info{' "$TRC_EXPO"
    grep -q '^rvmond_slo_error_budget_remaining{tenant="t",objective="latency"}' "$TRC_EXPO"
    grep -q '^rvmond_slo_burn_rate{tenant="t",objective="availability"}' "$TRC_EXPO"
    grep -q '^rvmond_stage_latency_us{tenant="t",stage="engine",quantile="0.99"}' "$TRC_EXPO"
    lint_exposition "$TRC_EXPO"
    python3 -c 'import sys, urllib.request
open(sys.argv[2], "wb").write(urllib.request.urlopen(sys.argv[1] + "/healthz", timeout=10).read())
' "$TRC_HTTP" "$TRC_HEALTH"
    grep -q '^slo t ' "$TRC_HEALTH" \
        || { echo "/healthz carries no slo line"; cat "$TRC_HEALTH"; exit 1; }
    # The --fatal-at worker panic must have left a black-box dump; a
    # SIGQUIT adds the whole-service one next to it.
    TRC_DUMP=$(ls "$TRC_DIR"/flight-t-worker-fatal-*.rvfr 2>/dev/null | head -1)
    test -n "$TRC_DUMP" || { echo "worker fatal left no flight dump"; exit 1; }
    kill -QUIT "$TRC_PID"
    for _ in $(seq 1 100); do
        ls "$TRC_DIR"/flight-sigquit-*.rvfr >/dev/null 2>&1 && break
        sleep 0.1
    done
    ls "$TRC_DIR"/flight-sigquit-*.rvfr >/dev/null 2>&1 \
        || { echo "SIGQUIT produced no flight dump"; exit 1; }
    ./target/release/rvmon flight "$TRC_DUMP" >"$TRC_FLIGHT"
    grep -q 'wire_read=' "$TRC_FLIGHT" \
        || { echo "rvmon flight lost the stage breakdown"; exit 1; }
    ./target/release/rvmon timeline --daemon "$TRC_DUMP" --out "$TRC_CHROME" >/dev/null
    python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["traceEvents"], "empty traceEvents"
assert any(e.get("ph") == "X" for e in doc["traceEvents"]), "no stage spans"
' "$TRC_CHROME"
    kill -TERM "$TRC_PID"
    wait "$TRC_PID" || { echo "rvmond drain exited nonzero"; exit 1; }
    rm -rf "$TRC_DIR" "$TRC_OUT" "$TRC_EXPO" "$TRC_HEALTH" "$TRC_CHROME" \
        "$TRC_JSON" "$TRC_FLIGHT"
fi
cargo test -q --release --test observability >/dev/null

echo "CI OK"
