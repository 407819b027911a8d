//! `csqd`'s connection and execution machinery.
//!
//! Threading model (all spawning in this file, inside one
//! [`std::thread::scope`]):
//!
//! * the **accept loop** (the calling thread) polls a non-blocking
//!   listener and gives each connection **two threads** running one
//!   loop, `serve_connection`;
//! * whichever of the two holds the connection's read half reads the
//!   next frame. Control frames (`ping`, `stats`, `cancel`,
//!   `shutdown`) are answered by that thread in-line. A query job is
//!   admitted by the [`Scheduler`]; if none of the connection's jobs is
//!   running, the thread releases the read half and runs the job
//!   itself, so the other thread reads on and `cancel` frames and
//!   disconnects are still seen at once. Otherwise the job joins the
//!   connection's FIFO, which the running thread drains in request
//!   order;
//! * the scheduler holds no jobs: before running one, a thread blocks
//!   in [`Scheduler::acquire`] until granted an execution slot —
//!   round-robin over waiting tenants, under the per-tenant in-flight
//!   cap, at most [`ServerConfig::workers`] at once.
//!
//! A request thus runs on the thread that read it, with no hand-off to
//! a worker on its critical path, while one connection still never
//! runs two of its jobs at once.
//!
//! Every connection shares one `Arc<Graph>` (e.g. an mmap-loaded
//! snapshot), so the graph is loaded once, and owns its session, which
//! it rebuilds when the graph epoch changes. The cross-query *result*
//! cache is one [`SharedResultCache`] made at [`Server::bind`] (unless
//! configured off), so one connection's completed CTP searches answer
//! any connection's repeats; its counters ride the `stats` opcode.
//! Responses are written under a per-connection writer lock — control
//! replies from the reading thread and query replies from the running
//! thread interleave as whole frames.
//!
//! **Live graphs** are served by *epoch swap*: the current graph sits
//! behind an `RwLock<Arc<Graph>>`, and a `mutate` request clones it,
//! applies the batch (one generation bump), and swaps the `Arc` —
//! readers running against the old epoch finish undisturbed on their
//! pinned `Arc`. Each connection notices the swap by `Arc::ptr_eq`
//! before its next job and rebuilds the session over the new epoch
//! (the shared result cache needs no flush because entries are keyed
//! by graph generation).
//! `subscribe` registers a standing query ([`cs_eql::Watch`]) on the
//! connection; `poll` re-emits its result delta, riding the watch's
//! generation / label-footprint / reach-probe skip layers. Writers are
//! serialised by a dedicated mutate lock, so batches never race each
//! other's clones.
//!
//! Deadlines and cancellation ride the typed path built into the
//! engine: a deadline is fixed at admission, the running thread arms
//! [`ExecOptions::deadline`] / [`ExecOptions::cancel`], the search's
//! cooperative checks stop it mid-flight, and the resulting
//! [`EqlError::DeadlineExceeded`] / [`EqlError::Cancelled`] becomes an
//! error frame with the matching [`ErrorCode`]. A `cancel` frame only
//! raises the target's [`CancelFlag`] — the *cancelled request itself*
//! answers with the error frame, so the client never waits on a dropped
//! reply. A disconnect raises the flags of every job the connection
//! still has, running or waiting.

use crate::proto::{
    read_frame, write_frame, BatchRequest, Cursor, DeltaReply, ErrorCode, ErrorReply, Frame,
    MutateReply, MutateRequest, Opcode, PollRequest, PollSkip, ProtoError, QueryReply,
    QueryRequest, WireMutation,
};
use crate::scheduler::{AdmitError, Scheduler, SchedulerConfig};
use cs_core::CancelFlag;
use cs_eql::{
    CacheCounters, EqlError, ExecOptions, ResultCacheMode, Session, SharedResultCache, Watch,
    WatchSkip, DEFAULT_RESULT_CACHE_CAPACITY,
};
use cs_graph::{Graph, MutationBatch};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// How long the accept loop sleeps between polls, and the granularity
/// at which a thread blocked reading a connection notices shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent executions across all connections (clamped
    /// to at least 1). Jobs run on their connections' threads, each
    /// searching one CTP at a time, so this bounds the searches that
    /// run at once.
    pub workers: usize,
    /// Admission control and tenant fairness knobs.
    pub scheduler: SchedulerConfig,
    /// Deadline applied to requests that do not carry one
    /// (`deadline_ms == 0`). `None` = no default deadline.
    pub default_deadline: Option<Duration>,
    /// Base execution options for every connection's session (default
    /// algorithm, soft timeout, result cache).
    /// Per-request deadline/cancel are overlaid per job. A
    /// [`ResultCacheMode::On`] here (the default) is upgraded by
    /// [`Server::bind`] to one [`ResultCacheMode::Shared`] cache for
    /// the whole server; `Off` disables caching.
    pub exec: ExecOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            scheduler: SchedulerConfig::default(),
            default_deadline: None,
            exec: ExecOptions::default(),
        }
    }
}

/// Serving counters, exposed through the `stats` opcode.
#[derive(Default)]
struct ServerCounters {
    connections: AtomicU64,
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    rejected: AtomicU64,
    mutations: AtomicU64,
}

impl ServerCounters {
    fn bump(counter: &AtomicU64) {
        // ORDERING: Relaxed — monotonic statistics counters; readers
        // only format them into a report, no data is published through
        // them.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn get(counter: &AtomicU64) -> u64 {
        // ORDERING: Relaxed — see `bump`.
        counter.load(Ordering::Relaxed)
    }
}

/// One admitted query job, held by the connection that admitted it.
struct Job {
    request_id: u64,
    tenant: String,
    kind: JobKind,
    /// Absolute deadline, fixed at admission so waiting time counts
    /// against the budget.
    deadline: Option<Instant>,
    cancel: CancelFlag,
}

enum JobKind {
    Query(String),
    Ask(String),
    Batch(Vec<String>),
    Mutate(Vec<WireMutation>),
    Subscribe(String),
    Poll(u64),
}

/// What a successfully executed job answers with.
enum ReplyKind {
    Query(QueryReply),
    Mutate(MutateReply),
    Subscribe(crate::proto::SubscribeReply),
    Delta(DeltaReply),
}

/// What the reading thread does after dispatching a frame.
enum Dispatch {
    /// Read the next frame.
    Continue,
    /// Release the read half and run this job.
    Run(Job),
    /// Close the connection.
    Close,
}

/// A connection's session pinned to the graph epoch it was built over,
/// plus its standing queries. Watches outlive session rebuilds — a
/// rebuilt session serves a *clone-descendant* of the same graph, and
/// generations survive cloning, so a watch's incremental poll stays
/// valid across epochs.
struct ConnState {
    session: Session<'static>,
    /// The epoch the session was built over; compared by `Arc::ptr_eq`
    /// against the server's current epoch before every job.
    epoch: Arc<Graph>,
    /// Standing queries, keyed by subscription id.
    subs: HashMap<u64, Watch>,
    next_sub: u64,
}

/// The connection's read half. `open` turns false once a reading
/// thread meets a disconnect, a protocol desync, a `shutdown` frame or
/// server shutdown; the other thread then exits instead of reading.
struct ReadHalf {
    stream: TcpStream,
    open: bool,
}

/// The connection's admitted jobs: the one running and those waiting
/// behind it. Their ids and flags are the `cancel` opcode's targets.
#[derive(Default)]
struct ConnJobs {
    /// Id and cancel flag of the job running now, if any.
    running: Option<(u64, CancelFlag)>,
    /// Jobs admitted while one was running, in request order.
    waiting: VecDeque<Job>,
}

impl ConnJobs {
    /// Every admitted job's id and cancel flag.
    fn flags(&self) -> impl Iterator<Item = (u64, &CancelFlag)> {
        let running = self.running.iter().map(|(id, flag)| (*id, flag));
        running.chain(self.waiting.iter().map(|j| (j.request_id, &j.cancel)))
    }

    /// Raises the flags of every job with id `request_id`.
    fn cancel(&self, request_id: u64) {
        for (_, flag) in self.flags().filter(|(id, _)| *id == request_id) {
            flag.cancel();
        }
    }

    /// Raises every flag: the connection is gone, so whatever it still
    /// has is for nobody, and the searches can stop early instead of
    /// computing into a closed socket.
    fn cancel_all(&self) {
        for (_, flag) in self.flags() {
            flag.cancel();
        }
    }
}

/// Per-connection state shared by the connection's two threads.
struct Conn {
    reader: Mutex<ReadHalf>,
    writer: Mutex<TcpStream>,
    /// The connection's session and subscriptions. The running thread
    /// takes them under a mutex, since a job may rebuild the session or
    /// change the subscriptions; `jobs` already keeps one connection's
    /// jobs from running at once, so the lock is never contended.
    state: Mutex<ConnState>,
    jobs: Mutex<ConnJobs>,
}

/// Locks `m`, absorbing poisoning: every update under the server's
/// locks leaves its data valid, so a panicked peer leaves nothing
/// half-done.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Conn {
    fn send(&self, frame: &Frame) {
        // A failed write means the client is gone; the reading thread
        // notices on its next read and tears the connection down.
        let _ = write_frame(&mut *lock(&self.writer), frame);
    }

    fn send_error(&self, request_id: u64, code: ErrorCode, message: impl Into<String>) {
        self.send(&Frame {
            request_id,
            opcode: Opcode::Error,
            payload: ErrorReply {
                code,
                message: message.into(),
            }
            .encode(),
        });
    }
}

/// Wraps a read-timeout socket so `read_frame` blocks *interruptibly*:
/// each timeout tick re-checks the server's shutdown flag instead of
/// surfacing a spurious mid-frame error.
struct InterruptibleReader<'a> {
    stream: &'a TcpStream,
    shutdown: &'a AtomicBool,
}

impl Read for InterruptibleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // ORDERING: Relaxed — advisory stop signal; no data
                    // is published through the flag.
                    if self.shutdown.load(Ordering::Relaxed) {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::ConnectionAborted,
                            "server shutting down",
                        ));
                    }
                }
                r => return r,
            }
        }
    }
}

/// The `csqd` server: a bound listener plus the shared graph.
pub struct Server {
    listener: TcpListener,
    /// The current graph epoch. `mutate` swaps the `Arc`; readers pin
    /// the epoch they started on.
    epoch: RwLock<Arc<Graph>>,
    /// Serialises mutation batches (clone → apply → swap), so two
    /// writers never race each other's clones.
    mutate_lock: Mutex<()>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    counters: ServerCounters,
    /// The server-wide result cache every connection's session shares
    /// (`None` when caching is configured off). Kept here so the
    /// `stats` opcode can report its counters.
    result_cache: Option<SharedResultCache>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over
    /// the shared graph. A [`ResultCacheMode::On`] in `cfg.exec` is
    /// upgraded to one [`ResultCacheMode::Shared`] cache (of
    /// [`DEFAULT_RESULT_CACHE_CAPACITY`] entries) handed to every
    /// connection's session.
    pub fn bind(addr: &str, graph: Arc<Graph>, mut cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let result_cache = match &cfg.exec.result_cache {
            ResultCacheMode::Off => None,
            ResultCacheMode::On => {
                let shared = SharedResultCache::new(DEFAULT_RESULT_CACHE_CAPACITY);
                cfg.exec.result_cache = ResultCacheMode::Shared(shared.clone());
                Some(shared)
            }
            ResultCacheMode::Shared(shared) => Some(shared.clone()),
        };
        Ok(Server {
            listener,
            epoch: RwLock::new(graph),
            mutate_lock: Mutex::new(()),
            cfg,
            shutdown: AtomicBool::new(false),
            counters: ServerCounters::default(),
            result_cache,
        })
    }

    /// The current graph epoch.
    fn current_graph(&self) -> Arc<Graph> {
        self.epoch
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Asks the serve loop to stop: stops accepting, drains admitted
    /// work, unblocks readers. Callable from any thread (e.g. a test
    /// harness holding the `Server` in an `Arc`).
    pub fn request_shutdown(&self) {
        // ORDERING: Relaxed — advisory stop signal polled by the
        // accept loop and the per-connection readers; the `thread::scope`
        // join below is what synchronises their actual teardown.
        self.shutdown.store(true, Ordering::Relaxed);
    }

    fn shutting_down(&self) -> bool {
        // ORDERING: Relaxed — see `request_shutdown`.
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Serves until a `shutdown` frame (or [`Server::request_shutdown`])
    /// arrives, then drains and returns. Blocks the calling thread.
    pub fn run(&self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let sched = &Scheduler::new(self.cfg.scheduler.clone(), self.cfg.workers);
        #[expect(
            clippy::disallowed_methods,
            reason = "L004: cs_server::server is the one library module that spawns threads"
        )]
        std::thread::scope(|scope| {
            while !self.shutting_down() {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        ServerCounters::bump(&self.counters.connections);
                        if let Some(conn) = self.open_connection(stream) {
                            let conn = Arc::new(conn);
                            let other = Arc::clone(&conn);
                            scope.spawn(move || self.serve_connection(&conn, sched));
                            scope.spawn(move || self.serve_connection(&other, sched));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    // Transient accept failures (e.g. a connection reset
                    // before accept) must not kill the server.
                    Err(_) => std::thread::sleep(POLL_INTERVAL),
                }
            }
            sched.shutdown();
        });
        Ok(())
    }

    /// Sets up a fresh connection's halves and session; `None` if the
    /// socket cannot be configured (the client is already gone).
    fn open_connection(&self, stream: TcpStream) -> Option<Conn> {
        stream.set_read_timeout(Some(READ_TIMEOUT)).ok()?;
        let writer = stream.try_clone().ok()?;
        let epoch = self.current_graph();
        Some(Conn {
            reader: Mutex::new(ReadHalf { stream, open: true }),
            writer: Mutex::new(writer),
            state: Mutex::new(ConnState {
                session: Session::from_shared_with(Arc::clone(&epoch), self.cfg.exec.clone()),
                epoch,
                subs: HashMap::new(),
                next_sub: 1,
            }),
            jobs: Mutex::new(ConnJobs::default()),
        })
    }

    /// The loop both of a connection's threads run, until the
    /// connection closes: take the read half, read and dispatch one
    /// frame, and run the job it admitted (plus the jobs admitted
    /// behind it) after releasing the read half.
    fn serve_connection(&self, conn: &Conn, sched: &Scheduler) {
        loop {
            let mut read = lock(&conn.reader);
            if !read.open {
                return;
            }
            let mut frames = InterruptibleReader {
                stream: &read.stream,
                shutdown: &self.shutdown,
            };
            let dispatch = match read_frame(&mut frames) {
                Ok(frame) => self.handle_frame(conn, frame, sched),
                // Disconnect (or shutdown): tear this connection down.
                Err(ProtoError::Io(_)) => Dispatch::Close,
                // Framing desync: the byte stream is unrecoverable, so
                // report once and close — but only this connection.
                Err(e) => {
                    conn.send_error(0, ErrorCode::Protocol, e.to_string());
                    Dispatch::Close
                }
            };
            match dispatch {
                Dispatch::Continue => {}
                Dispatch::Run(job) => {
                    drop(read);
                    self.run_jobs(conn, job, sched);
                }
                Dispatch::Close => {
                    read.open = false;
                    lock(&conn.jobs).cancel_all();
                    return;
                }
            }
        }
    }

    /// Runs `job`, then the connection's waiting jobs in request order,
    /// each in a scheduler slot, until none is left.
    fn run_jobs(&self, conn: &Conn, mut job: Job, sched: &Scheduler) {
        loop {
            sched.acquire(&job.tenant);
            let frame = self.run_job(conn, &job);
            sched.release(&job.tenant);
            // Reply before giving up the running role, so a job the
            // other thread starts next cannot overtake this reply.
            conn.send(&frame);
            let mut jobs = lock(&conn.jobs);
            match jobs.waiting.pop_front() {
                Some(next) => {
                    jobs.running = Some((next.request_id, next.cancel.clone()));
                    job = next;
                }
                None => {
                    jobs.running = None;
                    return;
                }
            }
        }
    }

    /// Runs one job on the connection's session and builds its reply.
    fn run_job(&self, conn: &Conn, job: &Job) -> Frame {
        let mut state = lock(&conn.state);
        // Epoch check: a mutation may have swapped the graph since this
        // connection's last job. Rebuild the session over the current
        // epoch (subscriptions carry over — generations survive the
        // clone the swap was built from).
        let current = self.current_graph();
        if !Arc::ptr_eq(&state.epoch, &current) {
            state.session = Session::from_shared_with(Arc::clone(&current), self.cfg.exec.clone());
            state.epoch = current;
        }
        // Overlay the per-request controls; the remaining budget is
        // measured from *now*, so time spent waiting has already been
        // charged against the absolute deadline.
        let opts = state.session.options_mut();
        opts.cancel = Some(job.cancel.clone());
        opts.deadline = job
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()));

        let graph = Arc::clone(&state.epoch);
        let graph = graph.as_ref();
        let session = &state.session;
        let reply = match &job.kind {
            JobKind::Query(text) => session.run(text).map(|r| {
                ReplyKind::Query(QueryReply {
                    rows: r.rows() as u64,
                    boolean: r.boolean,
                    text: r.render(graph),
                })
            }),
            JobKind::Ask(text) => session.ask(text).map(|b| {
                ReplyKind::Query(QueryReply {
                    rows: u64::from(b),
                    boolean: Some(b),
                    text: format!("{b}\n"),
                })
            }),
            JobKind::Batch(texts) => {
                let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
                let results = session.execute_batch(&refs);
                let mut rows = 0u64;
                let mut text = String::new();
                let mut first_err: Option<EqlError> = None;
                for r in results {
                    match r {
                        Ok(q) => {
                            rows += q.rows() as u64;
                            text.push_str(&q.render(graph));
                        }
                        // Typed control errors fail the whole batch —
                        // the deadline/flag applies to the batch, not
                        // one member.
                        Err(e @ (EqlError::DeadlineExceeded | EqlError::Cancelled)) => {
                            first_err = Some(e);
                            break;
                        }
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    }
                }
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(ReplyKind::Query(QueryReply {
                        rows,
                        boolean: None,
                        text,
                    })),
                }
            }
            JobKind::Mutate(ops) => self.apply_mutations(ops).map(ReplyKind::Mutate),
            JobKind::Subscribe(text) => state.session.watch(text).map(|w| {
                let sub = state.next_sub;
                state.next_sub += 1;
                let reply = crate::proto::SubscribeReply {
                    sub,
                    generation: w.generation(),
                    rows: w.rows().len() as u64,
                };
                state.subs.insert(sub, w);
                ReplyKind::Subscribe(reply)
            }),
            JobKind::Poll(sub) => {
                let ConnState { session, subs, .. } = &mut *state;
                match subs.get_mut(sub) {
                    None => Err(EqlError::Validate(format!(
                        "unknown subscription {sub} (subscriptions are per-connection)"
                    ))),
                    Some(w) => w.poll(session).map(|d| {
                        ReplyKind::Delta(DeltaReply {
                            generation: d.generation,
                            skip: match d.skipped {
                                None => PollSkip::Reran,
                                Some(WatchSkip::Unchanged) => PollSkip::Unchanged,
                                Some(WatchSkip::LabelsDisjoint) => PollSkip::LabelsDisjoint,
                                Some(WatchSkip::DeltaUnreachable) => PollSkip::DeltaUnreachable,
                            },
                            added: d.added,
                            removed: d.removed,
                        })
                    }),
                }
            }
        };
        let opts = state.session.options_mut();
        opts.cancel = None;
        opts.deadline = None;
        drop(state);

        match reply {
            Ok(r) => {
                ServerCounters::bump(&self.counters.queries_ok);
                let (opcode, payload) = match r {
                    ReplyKind::Query(q) => (Opcode::Reply, q.encode()),
                    ReplyKind::Mutate(m) => (Opcode::MutateReply, m.encode()),
                    ReplyKind::Subscribe(s) => (Opcode::SubscribeReply, s.encode()),
                    ReplyKind::Delta(d) => (Opcode::DeltaReply, d.encode()),
                };
                Frame {
                    request_id: job.request_id,
                    opcode,
                    payload,
                }
            }
            Err(e) => {
                let code = match e {
                    EqlError::Cancelled => {
                        ServerCounters::bump(&self.counters.cancelled);
                        ErrorCode::Cancelled
                    }
                    EqlError::DeadlineExceeded => {
                        ServerCounters::bump(&self.counters.deadline_exceeded);
                        ErrorCode::DeadlineExceeded
                    }
                    _ => {
                        ServerCounters::bump(&self.counters.queries_failed);
                        ErrorCode::Query
                    }
                };
                Frame {
                    request_id: job.request_id,
                    opcode: Opcode::Error,
                    payload: ErrorReply {
                        code,
                        message: e.to_string(),
                    }
                    .encode(),
                }
            }
        }
    }

    /// Applies one mutation batch by epoch swap: resolve the symbolic
    /// references against the current graph ([`MutationBatch`]), clone
    /// it, apply (one generation bump), and publish the clone as the
    /// new epoch.
    /// Serialised by the mutate lock; resolution failures reject the
    /// whole batch before anything is applied.
    fn apply_mutations(&self, ops: &[WireMutation]) -> Result<MutateReply, EqlError> {
        let _writer = lock(&self.mutate_lock);
        let base = self.current_graph();
        let mut batch = MutationBatch::new(&base);
        for op in ops {
            match op {
                WireMutation::InsertNode { label, types } => {
                    batch.insert_node(label, types.clone());
                    Ok(())
                }
                WireMutation::InsertEdge { src, label, dst } => batch.insert_edge(src, label, dst),
                WireMutation::RemoveEdge { src, label, dst } => batch.remove_edge(src, label, dst),
            }
            .map_err(EqlError::Mutate)?;
        }
        let mut g: Graph = (*base).clone();
        let applied = g.apply(batch.into_ops());
        *self.epoch.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(g);
        ServerCounters::bump(&self.counters.mutations);
        Ok(MutateReply {
            generation: applied.generation,
            nodes: applied.nodes.len() as u64,
            edges: applied.edges.len() as u64,
            removed: applied.removed as u64,
            compacted: applied.compacted,
        })
    }

    /// Dispatches one decoded frame: answers control frames in-line,
    /// and admits job frames.
    fn handle_frame(&self, conn: &Conn, frame: Frame, sched: &Scheduler) -> Dispatch {
        let job = match frame.opcode {
            Opcode::Query | Opcode::Ask | Opcode::Subscribe => QueryRequest::decode(&frame.payload)
                .map(|req| {
                    let kind = match frame.opcode {
                        Opcode::Query => JobKind::Query(req.text),
                        Opcode::Ask => JobKind::Ask(req.text),
                        _ => JobKind::Subscribe(req.text),
                    };
                    (req.header, kind)
                }),
            Opcode::Batch => BatchRequest::decode(&frame.payload)
                .map(|req| (req.header, JobKind::Batch(req.queries))),
            Opcode::Mutate => MutateRequest::decode(&frame.payload)
                .map(|req| (req.header, JobKind::Mutate(req.ops))),
            Opcode::Poll => {
                PollRequest::decode(&frame.payload).map(|req| (req.header, JobKind::Poll(req.sub)))
            }
            Opcode::Cancel => {
                // Fire-and-forget: the cancelled request itself answers
                // with its Cancelled error frame.
                if let Ok(target) = Cursor::new(&frame.payload).u64() {
                    lock(&conn.jobs).cancel(target);
                }
                return Dispatch::Continue;
            }
            Opcode::Ping => {
                conn.send(&Frame {
                    request_id: frame.request_id,
                    opcode: Opcode::Pong,
                    payload: frame.payload,
                });
                return Dispatch::Continue;
            }
            Opcode::Stats => {
                conn.send(&Frame {
                    request_id: frame.request_id,
                    opcode: Opcode::StatsReply,
                    payload: self.stats_text(sched).into_bytes(),
                });
                return Dispatch::Continue;
            }
            Opcode::Shutdown => {
                conn.send(&Frame::empty(frame.request_id, Opcode::ShutdownAck));
                self.request_shutdown();
                return Dispatch::Close;
            }
            // A client sending response opcodes is off-protocol.
            Opcode::Reply
            | Opcode::Error
            | Opcode::Pong
            | Opcode::StatsReply
            | Opcode::ShutdownAck
            | Opcode::MutateReply
            | Opcode::SubscribeReply
            | Opcode::DeltaReply => {
                conn.send_error(
                    frame.request_id,
                    ErrorCode::Protocol,
                    "response opcode sent by client",
                );
                return Dispatch::Close;
            }
        };
        match job {
            Ok((header, kind)) => self.admit(conn, frame.request_id, header, kind, sched),
            Err(e) => {
                conn.send_error(frame.request_id, ErrorCode::Protocol, e.to_string());
                Dispatch::Continue
            }
        }
    }

    /// Admission: fixes the deadline and admits the job, or answers
    /// with the typed rejection. An admitted job runs on this thread if
    /// none of the connection's jobs is running, else it waits in the
    /// connection's FIFO.
    fn admit(
        &self,
        conn: &Conn,
        request_id: u64,
        header: crate::proto::RequestHeader,
        kind: JobKind,
        sched: &Scheduler,
    ) -> Dispatch {
        if let Err(e) = sched.admit(&header.tenant) {
            ServerCounters::bump(&self.counters.rejected);
            let code = match e {
                AdmitError::QueueFull => ErrorCode::Overloaded,
                AdmitError::ShuttingDown => ErrorCode::ShuttingDown,
            };
            conn.send_error(request_id, code, e.to_string());
            return Dispatch::Continue;
        }
        let deadline = if header.deadline_ms > 0 {
            Some(Duration::from_millis(u64::from(header.deadline_ms)))
        } else {
            self.cfg.default_deadline
        };
        let job = Job {
            request_id,
            tenant: header.tenant,
            kind,
            deadline: deadline.map(|d| Instant::now() + d),
            cancel: CancelFlag::new(),
        };
        let mut jobs = lock(&conn.jobs);
        if jobs.running.is_some() {
            jobs.waiting.push_back(job);
            return Dispatch::Continue;
        }
        jobs.running = Some((request_id, job.cancel.clone()));
        Dispatch::Run(job)
    }

    fn stats_text(&self, sched: &Scheduler) -> String {
        let s = sched.stats();
        let c = &self.counters;
        let (rc, rc_entries) = match &self.result_cache {
            Some(shared) => (shared.counters(), shared.len()),
            None => (CacheCounters::default(), 0),
        };
        let g = self.current_graph();
        format!(
            "graph: {} nodes, {} edges, generation {} ({} mutation batch(es))\n\
             scheduler: {} queued, {} inflight, {} tenant(s)\n\
             served: {} ok, {} failed, {} cancelled, {} deadline_exceeded, {} rejected\n\
             result_cache: {} hits, {} misses, {} entries\n\
             connections: {}\n",
            g.node_count(),
            g.edge_count(),
            g.generation(),
            ServerCounters::get(&c.mutations),
            s.queued,
            s.inflight,
            s.tenants,
            ServerCounters::get(&c.queries_ok),
            ServerCounters::get(&c.queries_failed),
            ServerCounters::get(&c.cancelled),
            ServerCounters::get(&c.deadline_exceeded),
            ServerCounters::get(&c.rejected),
            rc.hits,
            rc.misses,
            rc_entries,
            ServerCounters::get(&c.connections),
        )
    }
}
