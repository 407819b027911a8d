//! A GAM-family search allocates nothing per provenance: every tree's
//! edge and node sets live in the store's two pools, so heap traffic is
//! the pools' and maps' amortised growth plus a few boxes per result. A
//! counting global allocator pins this on a `MAX 3` MoLESP search that
//! builds about ten thousand provenances; one box per tree would blow
//! the budget many times over. It also sums the bytes those calls ask
//! for and holds them to [`BYTES_PER_PROVENANCE`], and tracks the most
//! bytes live at once, held to [`PEAK_BYTES_PER_PROVENANCE`]. The search
//! runs until its queue is empty, so the peak includes every queued
//! pair the search ever kept.
//!
//! Lives in its own integration-test binary because the counting
//! allocator is process-global.

use cs_core::algo::GamEngine;
use cs_core::{Filters, GamConfig, QueueOrder, QueuePolicy, SeedSets};
use cs_graph::generate::{scale_free, ScaleFreeParams};
use cs_graph::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

/// Calls to `alloc` and `realloc`.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes those calls asked for: a `realloc` counts its new size.
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most [`LIVE`] has reached since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Adds `n` live bytes and raises [`PEAK`] to match.
fn grow_live(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        grow_live(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // Counted as the new block allocated before the old one is
        // freed, which is the most a moving `realloc` holds.
        grow_live(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes a `MAX 3` search may request per provenance. A stored tree
/// keeps about 120 bytes live: its 48-byte record, 12 bytes of Hist and
/// merge links, 28 bytes of pool ids for three edges and four nodes, one
/// 16-byte queued pair, and up to 16 bytes of Hist bucket heads. Buffers
/// grown by doubling from empty request about three times what they end
/// up holding; the search measured here asks for 346 bytes.
const BYTES_PER_PROVENANCE: usize = 384;

/// Bytes a `MAX 3` search may hold live at once per provenance. Pools
/// grown by doubling briefly hold both their old and new block, and the
/// pair log keeps every queued pair to the end of the search. The search
/// measured here peaks at 186 bytes per provenance; per-pair queue
/// entries that were freed as they were popped peaked at 199.
const PEAK_BYTES_PER_PROVENANCE: usize = 200;

#[test]
fn search_allocations_do_not_scale_with_provenances() {
    let g = scale_free(&ScaleFreeParams {
        nodes: 2000,
        edges_per_node: 3,
        labels: 20,
        types: 10,
        seed: 7,
    });
    let seeds = SeedSets::from_sets(vec![
        vec![NodeId(10)],
        vec![NodeId(100)],
        vec![NodeId(1000)],
    ])
    .unwrap();

    let before = ALLOCS.load(Ordering::Relaxed);
    let bytes_before = BYTES.load(Ordering::Relaxed);
    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let out = GamEngine::new(
        &g,
        &seeds,
        GamConfig::MOLESP,
        Filters::none().with_max_edges(3),
        QueueOrder::SmallestFirst,
        QueuePolicy::Single,
    )
    .run();
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;
    let peak = PEAK.load(Ordering::Relaxed) - live_before;

    let provenances = out.stats.provenances;
    assert!(provenances >= 2000, "too small a search: {}", out.stats);
    assert!(
        !out.stats.timed_out && !out.stats.budget_exhausted,
        "the search must drain its queue: {}",
        out.stats
    );
    assert!(
        (during as u64) < provenances / 10,
        "{during} allocations for {provenances} provenances: the search allocates per tree ({})",
        out.stats
    );
    assert!(
        bytes <= BYTES_PER_PROVENANCE * provenances as usize,
        "{bytes} bytes for {provenances} provenances, over {BYTES_PER_PROVENANCE} per provenance ({})",
        out.stats
    );
    assert!(
        peak <= PEAK_BYTES_PER_PROVENANCE * provenances as usize,
        "{peak} bytes live at once for {provenances} provenances, over {PEAK_BYTES_PER_PROVENANCE} per provenance ({})",
        out.stats
    );
}
