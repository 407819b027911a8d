//! Admission control and tenant-fair execution slots.
//!
//! The scheduler shares the *server* across tenants. It holds no jobs:
//! the connection thread that admitted a job keeps it, and asks the
//! scheduler for a slot to run it in. A job's CTP searches run one
//! after another on that thread, so the slot count is also the bound
//! on concurrent searches. Three rules:
//!
//! 1. **Admission** — [`Scheduler::admit`] counts a job as waiting;
//!    beyond [`SchedulerConfig::queue_capacity`] waiting (admitted, not
//!    yet running) jobs it is rejected with [`AdmitError::QueueFull`]
//!    (the `Overloaded` error frame), so a flood degrades into fast
//!    failures instead of unbounded memory growth.
//! 2. **Fair share** — [`Scheduler::acquire`] blocks until it is
//!    granted an execution slot. At most `slots` jobs run at once and
//!    no tenant runs more than [`SchedulerConfig::tenant_inflight`];
//!    while slots are scarce, grants round-robin over the tenants that
//!    have waiters (FIFO within a tenant), so one chatty tenant cannot
//!    occupy every slot while others wait. [`Scheduler::release`] frees
//!    the slot and grants it on.
//! 3. **Drain on shutdown** — after [`Scheduler::shutdown`], admission
//!    is refused but already-admitted jobs are still granted slots.
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
    /// Maximum waiting (admitted, not yet running) jobs across all
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

/// Why a job was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// As many jobs as the queue capacity are already waiting.
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

/// Per-tenant waiters and running count.
#[derive(Default)]
struct Tenant {
    /// Tickets of this tenant's blocked `acquire` calls, oldest first.
    waiting: VecDeque<u64>,
    running: usize,
}

struct State {
    /// Tenants in round-robin order, in order of first admission;
    /// entries persist for the scheduler's lifetime (tenant cardinality
    /// is small — it is a client-supplied *name*, not a connection).
    tenants: Vec<Tenant>,
    /// Tenant name → position in `tenants`.
    index: HashMap<String, usize>,
    /// Next position in `tenants` to consider for a grant.
    cursor: usize,
    /// Admitted jobs not yet granted a slot (admission bound).
    queued: usize,
    /// Slots granted and not yet released.
    running: usize,
    /// Blocked `acquire` calls across all tenants.
    waiters: usize,
    next_ticket: u64,
    /// Tickets granted a slot whose `acquire` has not returned yet.
    granted: Vec<u64>,
    shutdown: bool,
}

impl State {
    /// `tenant`'s position, registering it on first sight.
    fn tenant(&mut self, tenant: &str) -> usize {
        if let Some(&i) = self.index.get(tenant) {
            return i;
        }
        let i = self.tenants.len();
        self.tenants.push(Tenant::default());
        self.index.insert(tenant.to_string(), i);
        i
    }
}

/// Counters for the `stats` opcode, snapshot under the lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs currently admitted and waiting for a slot.
    pub queued: usize,
    /// Jobs currently holding a slot.
    pub inflight: usize,
    /// Tenants seen since start.
    pub tenants: usize,
}

/// Admission control plus tenant-fair execution slots.
pub struct Scheduler {
    state: Mutex<State>,
    granted: Condvar,
    cfg: SchedulerConfig,
    slots: usize,
}

impl Scheduler {
    /// A scheduler granting at most `slots` concurrent executions, with
    /// the given knobs (`slots` and both capacities are clamped to at
    /// least 1).
    pub fn new(cfg: SchedulerConfig, slots: usize) -> Scheduler {
        let cfg = SchedulerConfig {
            queue_capacity: cfg.queue_capacity.max(1),
            tenant_inflight: cfg.tenant_inflight.max(1),
        };
        Scheduler {
            state: Mutex::new(State {
                tenants: Vec::new(),
                index: HashMap::new(),
                cursor: 0,
                queued: 0,
                running: 0,
                waiters: 0,
                next_ticket: 0,
                granted: Vec::new(),
                shutdown: false,
            }),
            granted: Condvar::new(),
            cfg,
            slots: slots.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one job for `tenant`, or rejects it at the door. Every
    /// admitted job must later [`acquire`](Scheduler::acquire) a slot.
    pub fn admit(&self, tenant: &str) -> Result<(), AdmitError> {
        let mut s = self.lock();
        if s.shutdown {
            return Err(AdmitError::ShuttingDown);
        }
        if s.queued >= self.cfg.queue_capacity {
            return Err(AdmitError::QueueFull);
        }
        s.tenant(tenant);
        s.queued += 1;
        Ok(())
    }

    /// Blocks until one of `tenant`'s admitted jobs is granted a slot.
    /// The caller runs the job, then calls [`Scheduler::release`].
    pub fn acquire(&self, tenant: &str) {
        let mut s = self.lock();
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        let t = s.tenant(tenant);
        s.tenants[t].waiting.push_back(ticket);
        s.waiters += 1;
        self.grant(&mut s);
        if s.granted.iter().any(|&g| g != ticket) {
            self.granted.notify_all();
        }
        loop {
            if let Some(i) = s.granted.iter().position(|&g| g == ticket) {
                s.granted.swap_remove(i);
                return;
            }
            s = self.granted.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Frees the slot a job of `tenant` held, granting it to the next
    /// waiter in round-robin order.
    pub fn release(&self, tenant: &str) {
        let mut s = self.lock();
        if let Some(&t) = s.index.get(tenant) {
            let t = &mut s.tenants[t];
            t.running = t.running.saturating_sub(1);
        }
        s.running = s.running.saturating_sub(1);
        self.grant(&mut s);
        if !s.granted.is_empty() {
            self.granted.notify_all();
        }
    }

    /// Grants free slots to waiters: one full rotation over the tenants
    /// per grant, starting at the cursor, picking the first tenant with
    /// a waiter and in-flight headroom.
    fn grant(&self, s: &mut State) {
        while s.running < self.slots && s.waiters > 0 {
            let n = s.tenants.len();
            let Some(pos) = (0..n).map(|i| (s.cursor + i) % n).find(|&p| {
                let t = &s.tenants[p];
                !t.waiting.is_empty() && t.running < self.cfg.tenant_inflight
            }) else {
                return;
            };
            let t = &mut s.tenants[pos];
            let Some(ticket) = t.waiting.pop_front() else {
                return; // non-empty by the check above
            };
            t.running += 1;
            s.running += 1;
            s.waiters -= 1;
            s.queued = s.queued.saturating_sub(1);
            s.granted.push(ticket);
            s.cursor = (pos + 1) % n;
        }
    }

    /// Stops admission; admitted jobs are still granted slots.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
    }

    /// Snapshot of waiting and running totals.
    pub fn stats(&self) -> SchedulerStats {
        let s = self.lock();
        SchedulerStats {
            queued: s.queued,
            inflight: s.running,
            tenants: s.tenants.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn sched(queue: usize, inflight: usize, slots: usize) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                queue_capacity: queue,
                tenant_inflight: inflight,
            },
            slots,
        )
    }

    /// Spins until `n` `acquire` calls are blocked.
    fn until_waiters(s: &Scheduler, n: usize) {
        let since = Instant::now();
        while s.lock().waiters != n {
            assert!(since.elapsed() < Duration::from_secs(10), "no {n} waiters");
            std::thread::yield_now();
        }
    }

    /// Blocks one `acquire(tenant)` per `(tenant, tag)`, in order, on a
    /// scheduler whose slots are all held; then releases the holder
    /// `holder` and returns the tags in the order their grants ran.
    /// Each granted job releases its own slot once it has reported.
    fn grant_order(s: &Scheduler, holder: &str, jobs: &[(&str, u32)]) -> Vec<u32> {
        let (tx, rx) = mpsc::channel();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test blocks acquirers on threads to observe grant order"
        )]
        std::thread::scope(|scope| {
            for (k, &(tenant, tag)) in jobs.iter().enumerate() {
                let tx = tx.clone();
                scope.spawn(move || {
                    s.acquire(tenant);
                    tx.send(tag).unwrap();
                    s.release(tenant);
                });
                until_waiters(s, k + 1);
            }
            s.release(holder);
            (0..jobs.len()).map(|_| rx.recv().unwrap()).collect()
        })
    }

    #[test]
    fn fifo_within_one_tenant() {
        let s = sched(8, 4, 1);
        for _ in 0..4 {
            s.admit("a").unwrap();
        }
        s.acquire("a");
        assert_eq!(
            grant_order(&s, "a", &[("a", 1), ("a", 2), ("a", 3)]),
            [1, 2, 3]
        );
    }

    #[test]
    fn round_robin_across_tenants() {
        let s = sched(16, 4, 1);
        for t in ["x", "a", "a", "a", "b", "b"] {
            s.admit(t).unwrap();
        }
        s.acquire("x");
        // "a" queued three before "b" queued any; grants still alternate.
        let order = grant_order(
            &s,
            "x",
            &[("a", 1), ("a", 2), ("a", 3), ("b", 10), ("b", 11)],
        );
        assert_eq!(order, [1, 10, 2, 11, 3]);
    }

    #[test]
    fn inflight_cap_skips_saturated_tenant() {
        let s = &sched(16, 1, 2);
        for t in ["a", "a", "b"] {
            s.admit(t).unwrap();
        }
        s.acquire("a");
        // A free slot, but "a" is at its cap: its second job waits…
        let (tx, rx) = mpsc::channel();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test blocks acquirers on threads to observe grant order"
        )]
        std::thread::scope(|scope| {
            let tx2 = tx.clone();
            scope.spawn(move || {
                s.acquire("a");
                tx2.send("a").unwrap();
            });
            until_waiters(s, 1);
            // …while "b" is granted the free slot at once.
            s.acquire("b");
            assert!(rx.try_recv().is_err(), "capped tenant granted");
            s.release("a");
            assert_eq!(rx.recv().unwrap(), "a");
        });
        assert_eq!(s.stats().inflight, 2);
    }

    #[test]
    fn queue_capacity_rejects_at_admission() {
        let s = sched(2, 4, 4);
        s.admit("a").unwrap();
        s.admit("b").unwrap();
        assert_eq!(s.admit("c"), Err(AdmitError::QueueFull));
        // Granting (not completing) frees queue space: admission
        // bounds *waiting* jobs.
        s.acquire("a");
        s.admit("c").unwrap();
        assert_eq!(s.admit("c"), Err(AdmitError::QueueFull));
    }

    #[test]
    fn shutdown_rejects_admission_but_grants_admitted_work() {
        let s = sched(8, 4, 1);
        s.admit("a").unwrap();
        s.admit("a").unwrap();
        s.shutdown();
        assert_eq!(s.admit("a"), Err(AdmitError::ShuttingDown));
        s.acquire("a");
        s.release("a");
        s.acquire("a");
        s.release("a");
        assert_eq!(
            s.stats(),
            SchedulerStats {
                queued: 0,
                inflight: 0,
                tenants: 1
            }
        );
    }

    #[test]
    fn acquire_blocks_until_release() {
        let s = sched(8, 4, 1);
        s.admit("a").unwrap();
        s.admit("b").unwrap();
        s.acquire("a");
        let (tx, rx) = mpsc::channel();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test blocks acquirers on threads to observe grant order"
        )]
        std::thread::scope(|scope| {
            scope.spawn(|| {
                s.acquire("b");
                tx.send(()).unwrap();
            });
            until_waiters(&s, 1);
            assert!(rx.try_recv().is_err(), "granted past the slot limit");
            s.release("a");
            rx.recv().unwrap();
        });
    }

    #[test]
    fn stats_snapshot_tracks_counts() {
        let s = sched(8, 4, 2);
        s.admit("a").unwrap();
        s.admit("b").unwrap();
        assert_eq!(
            s.stats(),
            SchedulerStats {
                queued: 2,
                inflight: 0,
                tenants: 2
            }
        );
        s.acquire("a");
        let st = s.stats();
        assert_eq!((st.queued, st.inflight), (1, 1));
    }
}
