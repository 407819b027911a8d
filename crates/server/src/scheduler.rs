//! Admission-controlled fair-share scheduling.
//!
//! The scheduler generalises the engine's `threads` knob (which shares
//! one *query's* work) to sharing the *server* across tenants: a
//! bounded global run queue feeds a fixed pool of executor workers, and
//! dispatch round-robins over the tenants that still have headroom
//! under their in-flight cap. Three rules:
//!
//! 1. **Admission** — a submit beyond [`SchedulerConfig::queue_capacity`]
//!    queued jobs is rejected with [`AdmitError::QueueFull`] (the
//!    `Overloaded` error frame), so a flood degrades into fast failures
//!    instead of unbounded memory growth.
//! 2. **Fair share** — `next` round-robins over tenants; a tenant at
//!    its [`SchedulerConfig::tenant_inflight`] cap is skipped until one
//!    of its jobs completes, so one chatty tenant cannot occupy every
//!    worker while others wait.
//! 3. **Drain on shutdown** — after [`Scheduler::shutdown`], submits
//!    are rejected but already-admitted jobs still run; `next` returns
//!    `None` once the queues are empty, letting workers exit.
//!
//! The scheduler is purely a data structure (a mutex-guarded state and
//! a condvar) — it owns no threads, which keeps it unit-testable and
//! keeps thread spawning confined to `server.rs`. Lock poisoning is
//! absorbed with `unwrap_or_else(PoisonError::into_inner)`: the state
//! transitions below are each atomic under the lock, so a panicking
//! peer cannot leave the counters half-updated.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Admission and fairness knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum queued (admitted, not yet running) jobs across all
    /// tenants.
    pub queue_capacity: usize,
    /// Maximum concurrently *running* jobs per tenant.
    pub tenant_inflight: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            queue_capacity: 256,
            tenant_inflight: 2,
        }
    }
}

/// Why a submit was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The global run queue is at capacity.
    QueueFull,
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull => write!(f, "run queue full"),
            AdmitError::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Per-tenant queue and in-flight accounting.
#[derive(Default)]
struct Tenant<T> {
    queue: VecDeque<T>,
    inflight: usize,
}

struct State<T> {
    /// Tenants keyed by name; entries persist for the scheduler's
    /// lifetime (tenant cardinality is small — it is a client-supplied
    /// *name*, not a connection).
    tenants: HashMap<String, Tenant<T>>,
    /// Round-robin order over tenant names, extended on first submit.
    order: Vec<String>,
    /// Next position in `order` to consider.
    cursor: usize,
    /// Total queued jobs (admission bound).
    queued: usize,
    shutdown: bool,
}

/// Counters for the `stats` opcode, snapshot under the lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs currently admitted and waiting.
    pub queued: usize,
    /// Jobs currently running on workers.
    pub inflight: usize,
    /// Tenants seen since start.
    pub tenants: usize,
}

/// The bounded, tenant-fair run queue. `T` is the job payload; the
/// server uses one scheduler of connection-tagged query jobs.
pub struct Scheduler<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    cfg: SchedulerConfig,
}

impl<T> Scheduler<T> {
    /// An empty scheduler with the given knobs (capacities are clamped
    /// to at least 1).
    pub fn new(cfg: SchedulerConfig) -> Scheduler<T> {
        let cfg = SchedulerConfig {
            queue_capacity: cfg.queue_capacity.max(1),
            tenant_inflight: cfg.tenant_inflight.max(1),
        };
        Scheduler {
            state: Mutex::new(State {
                tenants: HashMap::new(),
                order: Vec::new(),
                cursor: 0,
                queued: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
            cfg,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one job for `tenant`, or rejects it at the door.
    pub fn submit(&self, tenant: &str, job: T) -> Result<(), AdmitError> {
        let mut s = self.lock();
        if s.shutdown {
            return Err(AdmitError::ShuttingDown);
        }
        if s.queued >= self.cfg.queue_capacity {
            return Err(AdmitError::QueueFull);
        }
        if !s.tenants.contains_key(tenant) {
            s.order.push(tenant.to_string());
        }
        s.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Tenant {
                queue: VecDeque::new(),
                inflight: 0,
            })
            .queue
            .push_back(job);
        s.queued += 1;
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Picks the next runnable job, round-robin over tenants under
    /// their in-flight cap. Blocks while the queues are empty; returns
    /// `None` only when shut down *and* drained.
    pub fn next(&self) -> Option<(String, T)> {
        let mut s = self.lock();
        loop {
            // One full rotation over the tenant order, starting at the
            // cursor, picking the first tenant with queued work and
            // in-flight headroom.
            let n = s.order.len();
            for i in 0..n {
                let pos = (s.cursor + i) % n;
                let name = s.order[pos].clone();
                let Some(t) = s.tenants.get_mut(&name) else {
                    continue;
                };
                if t.inflight >= self.cfg.tenant_inflight || t.queue.is_empty() {
                    continue;
                }
                let job = t.queue.pop_front()?; // non-empty by the check above
                t.inflight += 1;
                s.queued -= 1;
                s.cursor = (pos + 1) % n;
                return Some((name, job));
            }
            if s.shutdown && s.queued == 0 {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks one of `tenant`'s running jobs complete, freeing its
    /// in-flight slot.
    pub fn done(&self, tenant: &str) {
        let mut s = self.lock();
        if let Some(t) = s.tenants.get_mut(tenant) {
            t.inflight = t.inflight.saturating_sub(1);
        }
        drop(s);
        // A freed slot can unblock a worker waiting on this tenant's
        // queued jobs — and shutdown waits for inflight to drain.
        self.ready.notify_all();
    }

    /// Stops admission; queued jobs still drain through `next`.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.ready.notify_all();
    }

    /// True after [`Scheduler::shutdown`].
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Snapshot of queue depth and in-flight totals.
    pub fn stats(&self) -> SchedulerStats {
        let s = self.lock();
        SchedulerStats {
            queued: s.queued,
            inflight: s.tenants.values().map(|t| t.inflight).sum(),
            tenants: s.tenants.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(queue: usize, inflight: usize) -> Scheduler<u32> {
        Scheduler::new(SchedulerConfig {
            queue_capacity: queue,
            tenant_inflight: inflight,
        })
    }

    #[test]
    fn fifo_within_one_tenant() {
        let s = sched(8, 4);
        for j in 0..3 {
            s.submit("a", j).unwrap();
        }
        for j in 0..3 {
            assert_eq!(s.next(), Some(("a".into(), j)));
        }
    }

    #[test]
    fn round_robin_across_tenants() {
        let s = sched(16, 4);
        for j in 0..2 {
            s.submit("a", j).unwrap();
            s.submit("b", 10 + j).unwrap();
        }
        let order: Vec<String> = (0..4).map(|_| s.next().unwrap().0).collect();
        assert_eq!(order, ["a", "b", "a", "b"]);
    }

    #[test]
    fn inflight_cap_skips_saturated_tenant() {
        let s = sched(16, 1);
        s.submit("a", 1).unwrap();
        s.submit("a", 2).unwrap();
        s.submit("b", 3).unwrap();
        assert_eq!(s.next(), Some(("a".into(), 1)));
        // "a" is at its cap: its second job must wait behind "b".
        assert_eq!(s.next(), Some(("b".into(), 3)));
        s.done("a");
        assert_eq!(s.next(), Some(("a".into(), 2)));
    }

    #[test]
    fn queue_capacity_rejects_at_admission() {
        let s = sched(2, 4);
        s.submit("a", 1).unwrap();
        s.submit("b", 2).unwrap();
        assert_eq!(s.submit("c", 3), Err(AdmitError::QueueFull));
        // Dispatching (not completing) frees queue space: admission
        // bounds *waiting* jobs.
        s.next().unwrap();
        s.submit("c", 3).unwrap();
    }

    #[test]
    fn shutdown_rejects_submits_but_drains_queue() {
        let s = sched(8, 4);
        s.submit("a", 1).unwrap();
        s.shutdown();
        assert_eq!(s.submit("a", 2), Err(AdmitError::ShuttingDown));
        assert_eq!(s.next(), Some(("a".into(), 1)));
        assert_eq!(s.next(), None);
        assert_eq!(s.next(), None, "drained shutdown stays terminal");
    }

    #[test]
    fn next_blocks_until_submit() {
        let s = sched(8, 4);
        std::thread::scope(|scope| {
            let h = scope.spawn(|| s.next());
            std::thread::sleep(std::time::Duration::from_millis(20));
            s.submit("a", 7).unwrap();
            assert_eq!(h.join().unwrap(), Some(("a".into(), 7)));
        });
    }

    #[test]
    fn stats_snapshot_tracks_counts() {
        let s = sched(8, 4);
        s.submit("a", 1).unwrap();
        s.submit("b", 2).unwrap();
        assert_eq!(
            s.stats(),
            SchedulerStats {
                queued: 2,
                inflight: 0,
                tenants: 2
            }
        );
        s.next().unwrap();
        let st = s.stats();
        assert_eq!((st.queued, st.inflight), (1, 1));
    }
}
