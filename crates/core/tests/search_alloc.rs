//! A GAM-family search allocates nothing per provenance: every tree's
//! edge and node sets live in the store's two pools, so heap traffic is
//! the pools' and maps' amortised growth plus a few boxes per result. A
//! counting global allocator pins this on a `MAX 3` MoLESP search that
//! builds about ten thousand provenances; one box per tree would blow
//! the budget many times over.
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

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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

    let provenances = out.stats.provenances;
    assert!(provenances >= 2000, "too small a search: {}", out.stats);
    assert!(
        (during as u64) < provenances / 10,
        "{during} allocations for {provenances} provenances: the search allocates per tree ({})",
        out.stats
    );
}
