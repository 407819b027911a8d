//! Process and host figures read from outside the engine: a counting
//! global allocator and `/proc` readings (peak RSS, on-CPU time, steal).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    // ORDERING: Relaxed — statistics only, publishing no data.
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    // ORDERING: Relaxed — statistics only.
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// The system allocator, counting allocations, requested bytes, and the
/// peak of live (allocated, not yet freed) bytes.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ORDERING: Relaxed — statistics only, publishing no data.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ORDERING: Relaxed — statistics only.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and allocated bytes since process start.
pub fn alloc_counts() -> (u64, u64) {
    // ORDERING: Relaxed — statistics only.
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the live-heap peak from the bytes live now, so that
/// [`peak_heap_mib`] covers only what follows.
pub fn reset_peak_heap() {
    // ORDERING: Relaxed — statistics only.
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak_heap`], in MiB.
/// Unlike `VmHWM` it does not depend on what the C allocator keeps
/// mapped after a free, so it repeats from run to run.
pub fn peak_heap_mib() -> f64 {
    // ORDERING: Relaxed — statistics only.
    PEAK_LIVE_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// On-CPU time of every live thread of this process, in milliseconds
/// (sum of `/proc/self/task/*/schedstat` run times).
pub fn cpu_ms() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ns = 0u64;
    for t in tasks.flatten() {
        if let Ok(s) = std::fs::read_to_string(t.path().join("schedstat")) {
            ns += s
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    ns as f64 / 1e6
}

/// Host steal time since boot in milliseconds (the `steal` column of
/// `/proc/stat`, in USER_HZ = 100 ticks per second).
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks * 10.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The code a run measured, read from the working directory.
pub struct Source {
    /// Lines of Rust in the system under test (`crates/` and `src/`, the
    /// vendored stand-ins excluded).
    pub rust_loc: u64,
    /// Crates under `crates/`.
    pub crates: u64,
    /// FNV-1a hash of the paths and contents of every `.rs` file under
    /// `crates/`, `src/` and `perfbench/src/`: runs with the same
    /// digest ran the same engine and the same benchmark.
    pub digest: u64,
}

/// Reads [`Source`] from the working directory.
pub fn source() -> Source {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs") {
                files.push(p);
            }
        }
    }
    let mut rust_loc = 0;
    let mut digest = crate::check::FNV_START;
    for (root, counted) in [("crates", true), ("src", true), ("perfbench/src", false)] {
        let mut files = Vec::new();
        walk(std::path::Path::new(root), &mut files);
        files.sort();
        for p in files {
            let Ok(text) = std::fs::read_to_string(&p) else {
                continue;
            };
            if counted {
                rust_loc += text.lines().count() as u64;
            }
            digest = crate::check::fnv1a(digest, p.to_string_lossy().as_bytes());
            digest = crate::check::fnv1a(digest, text.as_bytes());
        }
    }
    let crates = std::fs::read_dir("crates")
        .map(|d| {
            d.flatten()
                .filter(|e| e.path().join("Cargo.toml").is_file())
                .count() as u64
        })
        .unwrap_or(0);
    Source {
        rust_loc,
        crates,
        digest,
    }
}
