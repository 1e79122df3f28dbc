//! What an armed trunk fabric still holds once nothing is in flight, as
//! a count.
//!
//! A counting `#[global_allocator]` (hence a test binary of its own,
//! with one test) around a fabric
//! over 8 shards under full trunk chaos, driven through a chaos walk —
//! posts on every pair for 520 barriers, seals, inboxes drained at
//! random — until `in_flight()` is zero. What it holds then beyond its
//! post-construction bytes is its directed channels' sequence counters
//! and its transport counters; a drained channel's retransmit queue and
//! reorder buffer give their trees back.
//!
//! It counts only what the test's own thread allocates while its
//! `MEASURING` flag is set: the harness's main thread still allocates
//! while a test runs, and counted every thread's requests made the
//! gate fail about one run in thirty.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use vgprs_load::{Envelope, Flit, HlrDirectory, TrunkFabric, TrunkPlanConfig, EPOCH_MS};
use vgprs_sim::SimRng;

/// Bytes a drained fabric may hold beyond what it held once built.
/// Measured: 10 684, plus 5 % (the same whether every thread is counted
/// or only this one). When every emptied retransmit queue and
/// reorder buffer kept its tree's root leaf it was 91 324: about a
/// hundred leaves of 808 B.
const DRAINED_GROWTH: isize = 11_218;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Set on the measuring thread while it measures.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Counts `delta` bytes if this thread is measuring.
fn count(delta: isize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        LIVE_BYTES.fetch_add(delta, Relaxed);
    }
}

struct Counting;

// SAFETY: every request goes to `System` unchanged; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SHARDS: usize = 8;
const SUBSCRIBERS_PER_SHARD: usize = 8;

#[test]
fn a_drained_fabric_gives_back_its_channel_trees() {
    MEASURING.set(true);
    let parts: Vec<(usize, usize)> = (0..SHARDS)
        .map(|s| (s * SUBSCRIBERS_PER_SHARD, SUBSCRIBERS_PER_SHARD))
        .collect();
    let mut dir = HlrDirectory::new(&parts);
    let mut rng = SimRng::derive(42, 0xB00C);
    let mut fabric = TrunkFabric::new(SHARDS, 42, &TrunkPlanConfig::all(4.0), 30);
    assert!(fabric.armed());
    let built = LIVE_BYTES.load(Relaxed);

    let mut peak = 0;
    let mut k = 0;
    while k < 520 || fabric.in_flight() > 0 {
        k += 1;
        if k <= 520 {
            for from in 0..SHARDS {
                let batch: Vec<Envelope> = (0..rng.range(0, 4))
                    .map(|_| {
                        let hop = 1 + rng.range(0, SHARDS as u64 - 1) as usize;
                        let global = rng.range(0, (SHARDS * SUBSCRIBERS_PER_SHARD) as u64);
                        Envelope {
                            to_shard: (from + hop) % SHARDS,
                            flit: Flit::Arrive {
                                global: global as usize,
                            },
                        }
                    })
                    .collect();
                fabric.post(from, batch, &mut dir);
            }
        }
        fabric.seal(k * EPOCH_MS, &mut dir);
        peak = peak.max(fabric.in_flight());
        for shard in 0..SHARDS {
            // Past the traffic, drain everything so the walk ends empty.
            if k > 520 || rng.range(0, 3) > 0 {
                fabric.take_inbox(shard);
            }
        }
    }
    assert!(peak > 40, "the walk never loaded the fabric (peak {peak})");
    for name in [
        "trunk.retransmits",
        "trunk.dup_drops",
        "trunk.expired",
        "trunk.heals",
    ] {
        assert!(fabric.stats().counter(name) > 0, "{name} never fired");
    }

    let growth = LIVE_BYTES.load(Relaxed) - built;
    MEASURING.set(false);
    println!("drained after {k} barriers: {growth} bytes held beyond the built {built}");
    assert!(
        growth <= DRAINED_GROWTH,
        "a drained fabric holds {growth} bytes beyond its built {built}, over {DRAINED_GROWTH}"
    );
}
