//! What one shard holds on the heap, as a count.
//!
//! Peak RSS is the end-to-end memory figure, but it moves with the
//! allocator, the page size and the order shards were visited in. This
//! is the same question in the form that cannot be noisy: a counting
//! `#[global_allocator]` (hence a test binary of its own, with one test)
//! around one shard of the
//! benchmark's `busy_hour` world — shard 0 of 64, 256 subscribers, a
//! tenth of the movers crossing shards, seed 42 — read after
//! `Shard::new` and after the shard's last epoch; then the bytes each
//! extra subscriber costs, from a 128- and a 256-subscriber shard.
//!
//! It counts only what the test's own thread allocates inside
//! `measured`: the harness's main thread still allocates while a test
//! runs, and neither it nor the test's own printing is the shard.
//!
//! Beside the bytes asked for, it prints what those allocations take in
//! glibc malloc chunks (the request plus an 8-byte header, rounded up
//! to 16, at least 32): a row trimmed inside its chunk saves no memory,
//! and only that figure shows it. The chunk figure is printed, not
//! gated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use vgprs_load::{
    subscriber_plan, LoadConfig, PopulationConfig, Shard, ShardConfig, SubscriberPlan,
};

/// (bytes, allocations) one shard may hold once built and registered.
/// Measured: 203 552 in 632, plus 5 %, with no handset or terminal
/// keeping a tally of a `Stats` counter, the IDs a row holds in niches,
/// the VLR's vectors packed and a schedule entry 72 bytes (245 552 in
/// 632 before). That one had a handset, a terminal, a
/// VLR record and the driver's row holding only what outlives a call
/// (301 712 in 661 with a call's fields in every row, the same whether
/// every thread is counted or only this one). That one had a node's
/// ports row 24 bytes (its spilled ports a list in a side table only
/// hubs use) beside its 8-byte tuning word, and the cell's paging list
/// gone (309 816 in 665
/// with a spill vector in every row and the list). The tables keyed by
/// what registration issues (TMSI, TEID, PDP address, connection
/// reference, LAN address) are number blocks too and the VLR's vectors
/// inline (401 132 in 907 with those hashed). The registration is written rather than
/// run (404 772 in 953 when the ladder ran, its dialogue tables left
/// grown and empty, before issued IDs were dense). The home registers
/// are number blocks, a dense row per subscriber, and a GGSN PDP record
/// holds only what routing reads (510 612 in 945 with half-empty hash
/// tables and the dead record fields). A drained event queue gives back
/// the slab its registration burst sized (590 484 in 948 before). An
/// IMSI or MSISDN is one word (16 bytes before, in every row, key and
/// message that holds one) and a started network gives back its growth
/// slack and keeps its node names in one string: 757 936 in 1 479
/// before those, and with a buffer per wheel slot and a hash table of
/// links 921 932 in 1 797.
const AFTER_NEW: (isize, isize) = (213_000, 663);
/// The same once its busy hour has drained. Measured: 244 364 in 854,
/// plus 5 % (287 320 in 855 with the tallies, `Option` IDs and 24-byte
/// vectors; 343 608 in 884 with a call's fields in every row; 351 968
/// in 888 with a spill vector per row; 431 316 in
/// 1 118 with issued IDs hashed; 431 616 in 1 118 when the ladder ran;
/// 537 552 in 1 110 before number blocks for home numbers; 613 296 in
/// 1 110 with the registration slab kept; 781 932 in 1 641 and 976 200
/// in 2 219 before that, the parked slot buffers having grown).
const AFTER_RUN: (isize, isize) = (256_000, 896);
/// Bytes a built shard holds per subscriber beyond the 128th — the
/// per-subscriber figure that peak RSS only estimates. Measured: 751,
/// 767 in malloc chunks (915, 931 in chunks, with the tallies, `Option`
/// IDs and 24-byte vectors; 1 135 with a call's fields in every row; 1 165 with a spill vector
/// per row and the cell's paging list),
/// whether the registration is written or run (1 527 with issued IDs
/// hashed, the VLR's vectors in a `Vec` and the driver's row holding
/// both numbers; 1 943 before number blocks; 2 255 with the
/// registration slab kept; 2 913 before one-word IDs).
const PER_SUBSCRIBER: isize = 788;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_CHUNK_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_ALLOCATIONS: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Set on the measuring thread while it measures.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// The glibc malloc chunk a request of `size` bytes takes.
fn chunk(size: usize) -> isize {
    ((size + 8).next_multiple_of(16)).max(32) as isize
}

/// Counts `bytes` (`chunks` in malloc chunks) in `allocations` if this
/// thread is measuring.
fn count(bytes: isize, chunks: isize, allocations: isize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        LIVE_BYTES.fetch_add(bytes, Relaxed);
        LIVE_CHUNK_BYTES.fetch_add(chunks, Relaxed);
        LIVE_ALLOCATIONS.fetch_add(allocations, Relaxed);
    }
}

/// Runs `f` with this thread's allocations counted.
fn measured<T>(f: impl FnOnce() -> T) -> T {
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    out
}

struct Counting;

// SAFETY: every request goes to `System` unchanged; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, chunk(layout.size()), 1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), -chunk(layout.size()), -1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let chunks = chunk(new_size) - chunk(layout.size());
        count(new_size as isize - layout.size() as isize, chunks, 0);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> (isize, isize) {
    (LIVE_BYTES.load(Relaxed), LIVE_ALLOCATIONS.load(Relaxed))
}

fn live_chunks() -> isize {
    LIVE_CHUNK_BYTES.load(Relaxed)
}

fn shard_config(subscribers: usize) -> ShardConfig {
    let run = LoadConfig::default();
    let population = PopulationConfig {
        cross_shard_fraction: 0.1,
        ..PopulationConfig::default()
    };
    ShardConfig {
        shard_index: 0,
        base_index: 0,
        subscribers,
        total_shards: 64,
        master_seed: 42,
        population: population.clone(),
        tch_capacity: run.tch_capacity,
        pdch_bps: run.pdch_bps,
        gk_bandwidth: run.gk_bandwidth,
        voice_sample_ms: run.voice_sample_ms,
        kernel: run.kernel,
        faults: run.faults,
        scenario: run.scenario,
        controls: run.controls,
        snapshot_secs: run.snapshot_secs,
    }
}

fn plans_for(cfg: &ShardConfig) -> Vec<SubscriberPlan> {
    (0..cfg.subscribers)
        .map(|i| subscriber_plan(&cfg.population, cfg.master_seed, i))
        .collect()
}

#[test]
fn a_shard_stays_within_its_footprint() {
    let cfg = shard_config(256);
    let plans = plans_for(&cfg);

    let ((bytes0, allocations0), chunks0) = (live(), live_chunks());
    let held = |what: &str, max_bytes: isize, max_allocations: isize| {
        let (bytes, allocations) = live();
        let (bytes, allocations) = (bytes - bytes0, allocations - allocations0);
        let chunks = live_chunks() - chunks0;
        println!("{what}: {bytes} bytes live in {allocations} allocations ({chunks} in chunks)");
        assert!(
            bytes <= max_bytes && allocations <= max_allocations,
            "{what}: {bytes} bytes in {allocations} allocations, \
             over the bound of {max_bytes} in {max_allocations}"
        );
    };

    let mut shard = measured(|| Shard::new(&cfg, &plans));
    held("after Shard::new", AFTER_NEW.0, AFTER_NEW.1);
    measured(|| {
        let mut epoch = 0;
        while shard.is_busy() && epoch <= shard.max_epoch_hint() {
            // The other 63 shards are not there: what leaves is dropped.
            drop(shard.run_epoch(epoch, Vec::new()));
            epoch += 1;
        }
    });
    assert!(!shard.is_busy(), "the shard drains");
    held("after the last epoch", AFTER_RUN.0, AFTER_RUN.1);
    measured(|| drop(shard));

    // Bytes per extra subscriber: two more shards, built after the first
    // so the one-time statics it allocated (census keys, stat names) are
    // in neither, and compared once built.
    let built = |subscribers| {
        let cfg = shard_config(subscribers);
        let plans = plans_for(&cfg);
        let before = (live().0, live_chunks());
        let shard = measured(|| Shard::new(&cfg, &plans));
        let bytes = (live().0 - before.0, live_chunks() - before.1);
        measured(|| drop(shard));
        bytes
    };
    let ((small, small_chunks), (large, large_chunks)) = (built(128), built(256));
    let per_subscriber = (large - small) / 128;
    let chunks_per_subscriber = (large_chunks - small_chunks) / 128;
    println!(
        "per extra subscriber: {per_subscriber} bytes, {chunks_per_subscriber} in chunks \
         (128: {small}, 256: {large})"
    );
    assert!(
        per_subscriber <= PER_SUBSCRIBER,
        "{per_subscriber} bytes per extra subscriber, over the bound of {PER_SUBSCRIBER}"
    );
}
