#!/usr/bin/env bash
# Full offline verification: build, test, lint. This is what CI (and the
# repo's tier-1 gate) runs; it must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> determinism contract (release)"
# Same config + seed => same bits on both kernels, run after run, is
# the load engine's core promise, and crates/load/tests/determinism.rs is
# its one statement: every family (plain, cross-shard, faults, surge,
# trunk chaos, snapshots) on {wheel,heap} plus a rerun, the inert
# `threads` field, the zero-plan identities and the monotone-damage
# checks. `cargo test`
# above ran it in debug; run it in release too so the optimized schedule
# is also covered — and with it the media cut-through's oracle test
# (hop-by-hop vs cut-through on a cross-shard media world, plus the
# queued-events-per-frame tripwire).
cargo test --release -q -p vgprs-load --test determinism --test cut_through

echo "==> KPI regression gate (fresh small run vs committed baseline)"
# A fresh canonical small-population run is structurally diffed against
# baselines/load_small.json under diff-thresholds.toml. A regressed,
# missing or drifted KPI exits nonzero. After an *intentional* KPI
# change, refresh the baseline with scripts/update-baselines.sh and
# commit it with the change.
cargo run --release -q -p vgprs-bench --bin harness -- diff --check

# A tripwire fails when its pattern occurs under its paths — and when a
# path names no file: `grep` then exits 2, which a bare `if grep` reads as
# "clean", so a renamed file would switch its tripwire off.
tripwire() { # tripwire MESSAGE GREP-ARGS...
    local message=$1 status=0
    shift
    grep -n "$@" || status=$?
    case $status in
        0) echo "error: $message (listed above)" >&2; exit 1 ;;
        1) ;;
        *) echo "error: tripwire cannot search (grep $*)" >&2; exit 1 ;;
    esac
}

echo "==> no ignored tests"
# An #[ignore]d test is a silently skipped promise. Fail loudly instead.
tripwire "ignored tests found" -r '#\[ignore' crates tests

echo "==> no threads in the simulator"
# The load engine is one loop: a per-epoch thread pool ran every measured
# workload slower (ROADMAP, "Threads pay or go") and was deleted with the
# thread axis of the determinism contract.
tripwire "std::thread under crates/*/src: parallelism comes back together \
with a benchmark workload that can measure it" -r 'std::thread\|thread::scope' crates/*/src

echo "==> one hasher"
# Every key a table holds was issued by the simulator, so every table is
# an IdMap / IdSet over the one fixed hasher in crates/sim/src/idmap.rs.
# A std table would pay SipHash again; a private hasher would be the
# fourth of its kind.
grep -q 'impl Hasher for IdHasher' crates/sim/src/idmap.rs || {
    echo "error: crates/sim/src/idmap.rs no longer holds the hasher" >&2; exit 1; }
tripwire "a hash table or a hasher outside crates/sim/src/idmap.rs" -rE \
    '\bHash(Map|Set)\b|RandomState|impl (std::hash::)?Hasher for' \
    --exclude=idmap.rs crates/*/src

echo "==> no uncalled public functions"
# A `pub fn` whose name occurs exactly once as a whole word in everything
# that could call it is only its own definition: a model nobody calls
# (ROADMAP aim 2). Wire it or delete it. A file's own `#[cfg(test)] mod
# tests` is not a caller — a function only its unit tests use is still a
# model nobody calls — so those modules are cut before counting;
# integration tests, benchmark/src, examples and doc-tests stay callers.
production() {
    find crates/*/src src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { held = ""; skip = 0 }
        skip { next }
        /^#\[cfg\(test\)\]$/ { held = $0; next }
        held != "" { if ($0 ~ /^mod tests/) { skip = 1; held = ""; next } print held; held = "" }
        { print }'
}
uncalled=$(comm -12 \
    <(grep -rhoE 'pub fn [A-Za-z_0-9]+' crates/*/src | awk '{print $3}' | sort -u) \
    <({ production; find crates/*/tests benchmark/src tests examples -name '*.rs' -print0 | xargs -0 cat; } \
        | grep -owE '[A-Za-z_][A-Za-z_0-9]*' | sort | uniq -c | awk '$1 == 1 {print $2}' | sort))
if [ -n "$uncalled" ]; then
    echo "error: public functions nothing calls:" $uncalled >&2
    exit 1
fi

echo "==> the GSM side exists once"
# Toward the radio network and the VLR a VMSC *is* an MSC (paper Figure
# 2(a)); crates/gsm/src/side.rs is that MSC, owned by both. The security
# relay, the page broadcast, the handover command and the registries they
# need must not grow back into either owner.
tripwire "GSM-side handling outside crates/gsm/src/side.rs" -E \
    'Dtap::(AuthenticationRequest|AuthenticationResponse|CipherModeCommand|CipherModeComplete|HandoverCommand)\b|Dtap::Paging \{|MapMessage::(Authenticate|StartCiphering)(Ack)?\b|\b(neighbor_cells|target_handoffs|next_ho_ref|conn_of_bsc)\b' \
    crates/core/src/vmsc/*.rs crates/gsm/src/msc.rs

echo "==> the MS row exists once"
# The VMSC keeps one row per MS, call leg included (paper §2); a second
# map of calls beside it is how both legs of a mobile-to-mobile call came
# to share one entry. Its guards are keys of one timer table, and the
# one-second window is `vgprs_sim::Throttle`, not a copy per node.
tripwire "a call table beside the MS table" -rE \
    'HashMap<CallId, VmscCall>|call: Option<CallId>' crates/core/src
tripwire "hand-packed timer tags or a private throttle" -rE \
    'TAG_SHIFT|ras_guard_imsi|GkGuard|admission_window|paging_window' \
    crates/*/src
# The procedures stay readable: no file over 600 lines, no function over
# 100 (from its `fn` line to the closing brace at the same indent). The
# same holds for the load driver, which is split by concern the same way.
long=$(awk '
    FNR == 1 && NR > 1 && lines > 600 { print file ": " lines " lines" }
    { file = FILENAME; lines = FNR }
    match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) {
        indent = $0; sub(/[^ ].*/, "", indent); start = FNR; name = $0; sub(/^ */, "", name)
    }
    start && $0 == indent "}" {
        if (FNR - start + 1 > 100) print FILENAME ":" start ": " FNR - start + 1 " lines: " name
        start = 0
    }
    END { if (lines > 600) print file ": " lines " lines" }' \
    crates/core/src/vmsc/*.rs crates/load/src/shard/*.rs)
if [ -n "$long" ]; then
    echo "error: too long under crates/core/src/vmsc/ or crates/load/src/shard/:" >&2
    echo "$long" >&2
    exit 1
fi

echo "==> the subscriber row exists once"
# The load driver keeps one row per subscriber, one route per trunk call
# and one entry per visiting radio leg (crates/load/src/shard/mod.rs): a
# side table keyed by a local index, a second map of calls or a second
# kind of dial is how "abandon this call" came to exist twice.
tripwire "a side table beside the subscriber row" -rE \
    'pending_interrupt|trunk_torn|call_src|conn_globals|visitor_conns|ms_index|AnchoredLeg|Action::Redial|too_many_arguments' \
    crates/load/src

echo "==> the kernel stays compact"
# A wheel slot is a list through the wheel's one slab and a link is a
# port at each end (DESIGN §2.13, §2.1): a buffer per slot or a table
# keyed by node pairs is a third of a shard's heap again, touched at a
# random line by every send.
tripwire "a vector per wheel slot" 'Vec<Vec<' crates/sim/src/wheel.rs
tripwire "a link table keyed by node pairs" -E \
    'IdMap<\(NodeId, NodeId\)|link_key' crates/sim/src/net.rs

echo "==> committed sweeps are current"
# BENCH_chaos.json and BENCH_surge.json are what a fresh sweep of this
# tree writes: everything but the commit named in `meta.git`.
for sweep in chaos surge; do
    fresh=$(mktemp)
    ./target/release/harness "$sweep" --out "$fresh" > /dev/null
    if ! diff <(sed 's/"git": "[^"]*"//' "BENCH_$sweep.json") <(sed 's/"git": "[^"]*"//' "$fresh") > /dev/null; then
        echo "error: BENCH_$sweep.json is stale: regenerate it with 'harness $sweep'" >&2
        rm -f "$fresh"
        exit 1
    fi
    rm -f "$fresh"
done

echo "==> benchmark smoke (standalone package builds against the public API)"
# benchmark/ is its own workspace with path dependencies on crates/*; it
# is outside `cargo test`, so build it and run its quick mode here. A
# public-API break in vgprs-load / vgprs-sim fails this step.
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --quick
# Its own tests replay every workload through the traced driver and
# through `run_load` and require one identity from both, so a change to
# engine.rs / trunk.rs that the driver's mirror of the loop no longer
# matches fails here, not in the next benchmark run.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> OK"
