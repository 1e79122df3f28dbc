//! What one shard holds on the heap, as a count.
//!
//! Peak RSS is the end-to-end memory figure, but it moves with the
//! allocator, the page size and the order shards were visited in. This
//! is the same question in the form that cannot be noisy: a counting
//! `#[global_allocator]` (hence a test binary of its own, with one test,
//! so nothing else allocates meanwhile) around one shard of the
//! benchmark's `busy_hour` world — shard 0 of 64, 256 subscribers, a
//! tenth of the movers crossing shards, seed 42 — read after
//! `Shard::new` and after the shard's last epoch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use vgprs_load::{subscriber_plan, LoadConfig, PopulationConfig, Shard, ShardConfig};

/// (bytes, allocations) one shard may hold once built and registered.
/// Measured: 757 936 in 1 479. The bound is PR 23's 754 364 in 1 478
/// plus 5 %; since then the subscriber row took in the three side tables
/// that were keyed by its index (+40 B a row, −1 table) and the home
/// zone's handles moved into the shard. With a buffer per wheel slot and
/// a hash table of links (PR 22) it held 921 932 in 1 797.
const AFTER_NEW: (isize, isize) = (792_000, 1_552);
/// The same once its busy hour has drained. Measured: 781 932 in 1 641,
/// under PR 23's 778 360 in 1 640 plus 5 % (PR 22: 976 200 in 2 219, the
/// parked slot buffers having grown).
const AFTER_RUN: (isize, isize) = (817_000, 1_722);

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_ALLOCATIONS: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every request goes to `System` unchanged; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        LIVE_ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        LIVE_ALLOCATIONS.fetch_sub(1, Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> (isize, isize) {
    (LIVE_BYTES.load(Relaxed), LIVE_ALLOCATIONS.load(Relaxed))
}

#[test]
fn a_shard_stays_within_its_footprint() {
    let run = LoadConfig::default();
    let population = PopulationConfig {
        cross_shard_fraction: 0.1,
        ..PopulationConfig::default()
    };
    let cfg = ShardConfig {
        shard_index: 0,
        base_index: 0,
        subscribers: 256,
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
    };
    let plans: Vec<_> = (0..cfg.subscribers)
        .map(|i| subscriber_plan(&population, cfg.master_seed, i))
        .collect();

    let (bytes0, allocations0) = live();
    let held = |what: &str, max_bytes: isize, max_allocations: isize| {
        let (bytes, allocations) = live();
        let (bytes, allocations) = (bytes - bytes0, allocations - allocations0);
        println!("{what}: {bytes} bytes live in {allocations} allocations");
        assert!(
            bytes <= max_bytes && allocations <= max_allocations,
            "{what}: {bytes} bytes in {allocations} allocations, \
             over the bound of {max_bytes} in {max_allocations}"
        );
    };

    let mut shard = Shard::new(&cfg, &plans);
    held("after Shard::new", AFTER_NEW.0, AFTER_NEW.1);
    let mut epoch = 0;
    while shard.is_busy() && epoch <= shard.max_epoch_hint() {
        // The other 63 shards are not there: what leaves is dropped.
        drop(shard.run_epoch(epoch, Vec::new()));
        epoch += 1;
    }
    assert!(!shard.is_busy(), "the shard drains");
    held("after the last epoch", AFTER_RUN.0, AFTER_RUN.1);
}
