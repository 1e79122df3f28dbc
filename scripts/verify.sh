#!/usr/bin/env bash
# Full offline verification: build, test, lint. This is what CI (and the
# repo's tier-1 gate) runs; it must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

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

echo "==> the paper's ladders"
# Figures 4, 5, 6 and 9 are stated once, as rungs and worlds in
# crates/core/src/figures.rs. Each figure's harness run checks its own
# trace against its table and exits nonzero on a missing rung. Each label
# below occurs on one of those ladders only, so finding it in a test or
# in the bench crate means a second copy of a ladder.
for fig in fig4 fig5 fig6 fig9; do
    ./target/release/harness "$fig" | grep 'rungs in order'
done
tripwire "a paper ladder stated outside crates/core/src/figures.rs" -rE \
    '(MAP_Prepare_Handover_ack|LLC:Q931_Call_Proceeding|MAP_Send_Info_For_Outgoing_Call_ack|GTP:Q931_Setup|MAP_Send_End_Signal_ack)' \
    crates/*/tests tests crates/bench/src

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
# is also covered — and with it the two oracle tests beside it: the
# media cut-through's (hop-by-hop vs cut-through on a cross-shard media
# world, plus the queued-events-per-frame tripwire) and the provisioned
# start's (every node of shard 0 of each benchmark world and three
# armed ones, written vs registered by the Figure 4 ladder, then one
# busy hour each; and Figure 4 on the ladder at scale). And one big
# cell: the dense-paging world at the benchmark's quick size, pinned, the
# one pinned world whose pages fan out to a thousand handsets. And voice
# trains against frame-by-frame voice, their oracle, on the benchmark's
# four shapes, a world whose cells clip and worlds under trunk chaos.
cargo test --release -q -p vgprs-load --test determinism --test cut_through --test provision \
    --test dense_paging --test voice_trains

echo "==> one codec contract"
# Every byte decoder in vgprs-wire is held to the properties of
# crates/wire/tests/codec_roundtrip.rs (round trip, refused prefixes,
# seeded mutants that never panic and decode the same after a
# re-encode). A decoder whose type has no `Codec` impl there is checked
# by nothing; the per-codec never-panics loops the contract replaced
# must not grow back beside it.
decoders=$(awk 'FNR == 1 { ty = "" }
    /^impl [A-Za-z0-9_]+ \{/ { ty = $2 }
    /^impl .* for / { ty = "" }
    /pub fn decode[A-Za-z0-9_]*\(/ {
        if (ty == "") {
            print "error: " FILENAME ":" FNR ": a decoder outside an inherent impl" > "/dev/stderr"
            exit 1
        }
        print ty
    }' \
    crates/wire/src/*.rs | sort -u)
[ -n "$decoders" ] || { echo "error: no pub fn decode* under crates/wire/src" >&2; exit 1; }
unheld=$(for ty in $decoders; do
    grep -q "^impl Codec for $ty {" crates/wire/tests/codec_roundtrip.rs || echo "$ty"
done)
if [ -n "$unheld" ]; then
    echo "error: decoders with no Codec impl in crates/wire/tests/codec_roundtrip.rs:" $unheld >&2
    exit 1
fi
tripwire "a per-codec never-panics loop: the codec contract fuzzes every decoder" \
    -r '_decode_never_panics' crates
# The contract wants every accepted mutant to re-encode to the bytes it
# was read from, with no per-codec flag. The fixed headers meet it by
# re-encoding what they decoded and refusing a difference as
# `NonCanonical`, as Q.931 does; without it a spare bit is read as zero.
for codec in gtp rtp; do
    grep -q 'NonCanonical' "crates/wire/src/$codec.rs" || {
        echo "error: a decoder that skips its re-encode: crates/wire/src/$codec.rs" >&2; exit 1; }
done

echo "==> no ignored tests"
# An #[ignore]d test is a silently skipped promise. Fail loudly instead.
tripwire "ignored tests found" -r '#\[ignore' crates tests

echo "==> one crew"
# run_load starts one crew of scoped workers per run, in the load engine:
# they build the shards, then run each epoch's blocks between barriers
# (a flit posted in epoch k lands in epoch k+1, so one epoch is exact
# lookahead). A pool started at every barrier ran every measured
# workload slower (ROADMAP, "Threads pay or go") and must not return:
# one thread::scope, no thread::spawn, and safe Rust only.
scopes=$(grep -rn 'thread::scope' crates/*/src || true)
if [ "$(printf '%s' "$scopes" | grep -c .)" -ne 1 ] \
    || [ "${scopes#crates/load/src/engine.rs:}" = "$scopes" ]; then
    printf '%s\n' "$scopes"
    echo "error: want exactly one thread::scope under crates/*/src, in \
crates/load/src/engine.rs (listed above)" >&2
    exit 1
fi
tripwire "thread::spawn under crates/*/src: the engine's crew is the one \
place threads run" -r 'thread::spawn' crates/*/src
tripwire "unsafe under crates/load/src: the crew is safe Rust" -rw 'unsafe' crates/load/src
grep -q '^#!\[forbid(unsafe_code)\]' crates/load/src/lib.rs || {
    echo "error: crates/load/src/lib.rs no longer forbids unsafe code" >&2; exit 1; }

echo "==> one hasher"
# Every key a table holds was issued by the simulator, so every table is
# one of the three types in crates/sim/src/idmap.rs: an IdMap / IdSet
# over its one fixed hasher, or a NumberBlock, whose keys outside their
# declared number series fall through to an IdMap. A std table would pay
# SipHash again; a private hasher would be the fourth of its kind.
grep -q 'impl Hasher for IdHasher' crates/sim/src/idmap.rs || {
    echo "error: crates/sim/src/idmap.rs no longer holds the hasher" >&2; exit 1; }
tripwire "a hash table or a hasher outside crates/sim/src/idmap.rs" -rE \
    '\bHash(Map|Set)\b|RandomState|impl (std::hash::)?Hasher for' \
    --exclude=idmap.rs crates/*/src

echo "==> home registers are number blocks"
# A home population is provisioned from contiguous number series, so the
# registers that keep a row per subscriber (HLR with its AuC and MSISDN
# index, VLR, the VMSC's MS table, the SGSN's MM contexts, the
# gatekeeper's alias table) are NumberBlocks: a dense slot per home
# number instead of a half-empty hash table.
tripwire "a home register hashed again: use vgprs_sim::NumberBlock" -E \
    'IdMap<Imsi, (HlrRecord|VlrRecord|MsEntry|MmContext|Ki)>' \
    crates/gsm/src/hlr.rs crates/gsm/src/auth.rs crates/gsm/src/vlr.rs \
    crates/core/src/vmsc/mod.rs crates/gprs/src/sgsn.rs
tripwire "a home number index hashed again: use vgprs_sim::NumberBlock" -E \
    'IdMap<Msisdn, (Imsi|TransportAddr)>' crates/gsm/src/hlr.rs crates/h323/src/gatekeeper.rs

echo "==> what registration issues is a number block"
# Registering the home population issues each node's IDs from a counter,
# one per handset in handset order, so the tables keyed by one (the VLR's
# and the GSM side's TMSI index, the connection maps of BTS, BSC and GSM
# side, the SGSN's and GGSN's TEID tables, the GGSN's and VMSC's address
# indexes, the router's host routes) and the signalling PDP context rows
# are NumberBlocks declared with the series the counter will issue.
issuers="crates/gsm/src/vlr.rs crates/gsm/src/bts.rs crates/gsm/src/bsc.rs \
    crates/gsm/src/side.rs crates/gprs/src/sgsn.rs crates/gprs/src/ggsn.rs \
    crates/gprs/src/router.rs crates/core/src/vmsc/mod.rs"
# shellcheck disable=SC2086 # the list is meant to split
tripwire "a table keyed by an issued ID hashed again: use vgprs_sim::NumberBlock" -E \
    'IdMap<(Tmsi, Imsi|Teid, |ConnRef, |Ipv4Addr, (Teid|Imsi|NodeId)>)' $issuers
# shellcheck disable=SC2086
tripwire "the PDP contexts hashed again: use the gprs crate's Contexts" -E \
    'IdMap<\(Imsi, Nsapi\), (SgsnPdp|Teid)>' $issuers

echo "==> no uncalled public functions"
# A `pub fn` whose name occurs exactly once as a whole word in everything
# that could call it is only its own definition: a model nobody calls
# (ROADMAP aim 2). Wire it or delete it. A file's own `#[cfg(test)] mod
# tests` is not a caller — a function only its unit tests use is still a
# model nobody calls — so those modules are cut before counting. Nor is a
# `pub use` re-export: it names a function without calling it, so those
# statements are cut too. Integration tests, benchmark/src, examples and
# doc-tests stay callers.
production() {
    find crates/*/src src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { held = ""; skip = 0; reexport = 0 }
        skip { next }
        /^#\[cfg\(test\)\]$/ { held = $0; next }
        held != "" { if ($0 ~ /^mod tests/) { skip = 1; held = ""; next } print held; held = "" }
        reexport || /^[[:space:]]*pub(\([a-z]+\))? use / { reexport = ($0 !~ /;/); next }
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
# Where a subscriber is on its trip across the border is one `Trip`
# (crates/load/src/shard/trip.rs): home, visiting with its HLR record
# moved, or handed off with its return perhaps due. Three flags held the
# same fact, and nothing said which of their eight combinations were
# legal.
tripwire "a trip held as flags" -rE \
    '\b(handed_off|pending_return)\b|\.away\b|\baway: (true|false)' crates/load/src
# A call's mute instant is worked out by one function, `mute_after_ms`
# in crates/load/src/shard/driver.rs, which the dial, its voice promise
# and the handoff's "settled" test call.
tripwire "the mute worked out twice" -rE \
    'CONNECT_GRACE_MS \+ self\.cfg\.voice_sample_ms' crates/load/src

echo "==> the driver judges every dial"
# Each dial is judged once, by its probe, from the endpoint that dialed:
# it connected, or it failed for one named cause (`Outcome` in
# crates/load/src/shard/driver.rs). A drop filed under no cause, or a
# drop counter whose name is built from a key, is the guesswork that
# list replaced.
tripwire "a dial filed under no cause" -rE 'dropped_baseline|format!\("load\.dropped_' \
    crates/*/src crates/*/tests tests
# Every planned hold outlasts the probe (a const assertion in driver.rs),
# so a hangup only hangs up: a call the probe skips, or one judged at its
# hangup, is a second judging path no run reaches.
tripwire "a second judging path" -rE '\bprobed:|\.probed\b|too short to probe' crates/load/src
# A counter is named by a literal, so every name a run can count is in
# the source; a name built at run time is also a string built per count.
tripwire "a counter name built at run time" -rE '(count|count_by|observe)\(&format!' \
    crates/*/src
# A call the driver gives up on is torn down at both ends, so voice
# sampled past the probe point drains: this run used to leave abandoned
# calls talking until the engine's epoch cap, and exit 1.
./target/release/harness load --subscribers 6144 --rate 16 --voice-sample-ms 3000 > /dev/null

echo "==> the scripted peer exists once"
# A node's unit test plays its ladder step against vgprs_sim::ScriptedPeer
# (crates/sim/src/peer.rs): a script, a reply rule and a log. A
# hand-written test node is the twenty-seventh copy of it.
tripwire "a hand-written test node: use vgprs_sim::ScriptedPeer" -rE \
    'struct (Probe|Feeder|Sender|Driver|ScriptedBts|SgsnStub|GgsnStub|Tunneler|GiFeeder|Activator|Host|MiniRouter|HangingCaller|Stranger|Endpoint|Peer)\b' \
    crates/gsm/src crates/gprs/src crates/h323/src crates/pstn/src crates/core/tests

echo "==> the report has exact pins only"
# The golden report and armed_run_identity_is_pinned hold the report to
# the bit, so a tolerance gate re-running one of their worlds against a
# committed baseline catches nothing they miss. Its baseline, threshold
# file and update script must not come back; `harness diff` reads its
# rules from crates/bench/src/diff.rs. scripts/ is not searched: this
# file names the pattern.
tripwire "a name of the retired KPI gate" -rE \
    'diff-thresholds|load_small|update-baselines|--update-baseline' crates README.md

echo "==> the kernel stays compact"
# A wheel slot is a list through the wheel's one slab and a link is a
# port at each end (DESIGN §2.13, §2.1): a buffer per slot or a table
# keyed by node pairs is a third of a shard's heap again, touched at a
# random line by every send. Node names are one string (DESIGN §2.1): a
# string per node is an allocation per node of every shard.
tripwire "a vector per wheel slot" 'Vec<Vec<' crates/sim/src/wheel.rs
tripwire "a link table keyed by node pairs" -E \
    'IdMap<\(NodeId, NodeId\)|link_key' crates/sim/src/net.rs
tripwire "a string per node name" 'Vec<String>' crates/sim/src/trace.rs
# A hub's ports past its inline two are a list in a side table only hubs
# use, and a leaf's row keeps the spill list's index and length: a
# vector in every row is 16 bytes per node that only hubs fill.
tripwire "a spill vector in every node's row" 'spill: Vec<Port>' crates/sim/src/net.rs
# A link is an interface and one quality (DESIGN §2.1): the paper's
# reference points have none per direction, and every world built both
# ways alike. A configuration per direction, the constructor that took
# one, and the port bit that chose between them must not come back.
tripwire "a link quality per direction" -rE 'LinkConfig|connect_with|quality_from|class_dir' \
    crates tests examples

echo "==> a subscriber at rest holds no call"
# A row keeps what outlives a call (DESIGN §2.3): a handset's neighbor
# cells inline, and the VLR record's triplet under verification by its
# slot among the held vectors. A vector in every handset is 24 bytes
# and a heap chunk for every mover; a spare triplet is 32 bytes in
# every record.
tripwire "a neighbour vector in every handset" 'neighbors: Vec<' crates/gsm/src/ms.rs
tripwire "a spare triplet in every VLR record" 'current: Option<AuthTriplet>' \
    crates/gsm/src/vlr.rs
# Nor does a row keep a count that Stats keeps already: a handset's
# frames, connected calls and handoffs are `ms.voice_frames_received`,
# `ms.calls_connected` and `ms.handoffs`, an endpoint's its
# `rtp_received` and `calls_connected` names, a fixed-line phone's
# `phone.voice_frames_received` and `phone.calls_connected`. Six such
# tallies were 48 bytes per subscriber and moved both node boxes up a
# malloc chunk.
tripwire "a tally in a subscriber's node" -E \
    'pub (frames_received|calls_connected|calls_failed|handoffs_completed): u64' \
    crates/gsm/src/ms.rs crates/h323/src/terminal.rs crates/pstn/src/phone.rs

echo "==> one voice source"
# The 20 ms tick, the frame numbering, talking, start and stop, and the
# receive tally are written once, as vgprs_media's VoiceSource, Talk and
# VoiceSink (crates/media/src/voice.rs, which names neither below): a
# handset, an H.323 endpoint and a phone keep only their framing. These
# names were each endpoint's own copy.
tripwire "a voice source outside crates/media/src/voice.rs" -rE 'TIMER_VOICE|voice_seq' \
    crates/*/src crates/*/tests tests examples

echo "==> voice rides trains under trunk chaos"
# An armed trunk keeps a call frame by frame only while a trunk casualty
# can still reach one of its parties (DESIGN §2.19); every other call
# rides trains. A change that switched armed worlds back to one frame
# per message would still pass the oracle tests, so a small armed world
# must carry some.
armed=$(./target/release/harness load --subscribers 1024 --shards 8 --cross-shard-rate 0.35 \
    --trunk-intensity 1.0 | grep '^voice trains')
echo "$armed"
if [[ $armed == *": 0 carried"* ]]; then
    echo "error: an armed trunk world sent no voice train" >&2
    exit 1
fi

echo "==> an option has two callers"
# A setting every caller gives one value is a constant: the VLR
# authenticates every access, a cell clips voice past 8 queued packets
# or 8 pages a second, every phone answers vgprs_wire::ANSWER_DELAY
# after it rings and talks once connected, and a held call lasts at
# least 8 s. These names were such settings (with the packed word and
# the answer command that carried two of them); one coming back is a
# knob that no two callers set apart.
tripwire "a one-value setting: make it a constant" -rE \
    'auth_on_access|voice_clip_backlog|pch_capacity_per_s|answer_after|talk_on_connect|Habits|min_hold_secs|Command::Answer' \
    crates/*/src crates/*/tests tests examples
# A setting is also stated once between a flag and the node that reads
# it: a sweep's defaults are a LoadConfig that the flags override, a plan
# config is an intensity and a class filter (no bool per class), a zone
# holds its OverloadControls whole, and only main exits. These names were
# the second statements.
tripwire "a setting stated twice between a flag and its node" -rE \
    'RunDefaults|load_config_from|usage_exit|flags\.(get|parse)\(|pub (link_degrade|node_crash|blackhole|loss|dup|reorder|partition): bool|cfg\.(paging_rate_per_s|gk_shed_utilization|pdp_rate_per_s)\b' \
    crates/*/src crates/*/tests tests examples

echo "==> a page goes over the cell's links"
# A broadcast goes to the sender's links on one interface
# (Context::broadcast), and the cell's handsets are its Um links. A
# list of them beside the links is a second copy the builder must keep
# in step, and an event that carries one is 8 bytes per Effect.
tripwire "a paging list beside the cell's links" -rE \
    'Arc<Vec<NodeId>>|register_ms' crates/*/src crates/*/tests tests

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
# through `run_load` and require one identity from both. The driver runs
# every epoch, the ones the engine skips included, so it is the engine's
# every-epoch oracle: a change to engine.rs / trunk.rs that leaves the
# every-epoch loop fails here, not in the next benchmark run.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
# A public doc that links to a private item, or to nothing, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> OK"
