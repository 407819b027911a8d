//! BGP evaluation allocates nothing per row: rows live in one flat
//! buffer per step, and each step extends the rows built so far in
//! place of materialising a table per pattern. A counting global
//! allocator pins this on `bgp_join`-shaped BGPs over a YAGO-like
//! graph; one allocation per row, as a boxed row or a join key is,
//! would blow the budget many times over.
//!
//! Lives in its own integration-test binary because the counting
//! allocator is process-global.

use cs_engine::{eval_bgp_with_plan, plan_bgp, Bgp, Term};
use cs_graph::generate::{yago_like, YagoLikeParams};
use cs_graph::Predicate;
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

/// A BGP of labelled patterns `(src, label, dst)` over plain variables.
fn bgp(patterns: &[(&str, &str, &str)]) -> Bgp {
    let mut b = Bgp::new();
    for (i, &(s, label, d)) in patterns.iter().enumerate() {
        let e = Term::pred(&format!("_e{i}"), Predicate::label(label));
        b.push(Term::var(s), e, Term::var(d));
    }
    b
}

/// Budget of allocations for one evaluation: the plan's per-step
/// buffers and the row buffers' amortised growth, whatever the rows.
const BUDGET: usize = 100;

#[test]
fn bgp_allocations_do_not_scale_with_rows() {
    let g = yago_like(&YagoLikeParams {
        persons: 2000,
        organisations: 40,
        places: 30,
        works: 200,
        seed: 0xB69,
    });
    // `bgp_join`'s person-centred shapes with the constants freed, so
    // that they answer from a few dozen to over a thousand rows.
    let cases = [
        bgp(&[
            ("x", "citizenOf", "c"),
            ("x", "bornIn", "p"),
            ("x", "worksFor", "o"),
            ("o", "locatedIn", "p"),
        ]),
        bgp(&[
            ("x", "citizenOf", "c"),
            ("x", "livesIn", "p"),
            ("x", "worksFor", "o"),
            ("o", "locatedIn", "q"),
        ]),
        bgp(&[
            ("x", "knows", "y"),
            ("x", "worksFor", "o"),
            ("y", "worksFor", "o2"),
            ("o", "locatedIn", "p"),
            ("y", "citizenOf", "c"),
        ]),
    ];
    let mut most_rows = 0;
    for b in &cases {
        let plan = plan_bgp(&g, b);
        let before = ALLOCS.load(Ordering::Relaxed);
        let t = eval_bgp_with_plan(&g, b, &plan);
        let during = ALLOCS.load(Ordering::Relaxed) - before;
        most_rows = most_rows.max(t.len());
        assert!(
            during <= BUDGET,
            "{during} allocations for {} rows: BGP evaluation allocates per row\n{plan}",
            t.len()
        );
    }
    assert!(most_rows >= 1000, "too few rows to tell: {most_rows}");
}
