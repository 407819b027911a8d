//! The four workloads. Each is one client in a closed loop over a
//! seeded, fixed-length operation stream, split into passes that repeat
//! the same operations; throughput and latency percentiles come from
//! each operation's median over the passes (see [`Keyed`]).

use crate::check::{Digest, Tally};
use crate::data::{self, Dataset, Round, Scratch, SetupTimes};
use crate::inproc::{self, ReadCounters};
use crate::stats::{median, percentile};
use crate::sys;
use crate::trace::{self, Tracer};
use cs_eql::{ExecOptions, ResultCacheMode, Session, Watch, WatchSkip};
use cs_graph::{Graph, Mutation, NodeId};
use cs_server::{Client, RequestHeader, Server, ServerConfig};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. One set-up takes about
/// 0.1 s, short enough for a burst of host noise to double it, so the
/// median is over several.
const SETUPS: usize = 9;
/// Provenance band of the `ctp_search` reads and the number of
/// equal-width log₂ bins it is split into. Each bin receives the same
/// number of queries, so every seed gets the same spread of search
/// effort, and with five bins p50 and p90 fall in the middle of the
/// third and fifth bin rather than on a bin boundary.
const PROV_LO: u64 = 4_000;
const PROV_HI: u64 = 16_000;
const PROV_BINS: usize = 5;

/// One run's settings.
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Nominal measuring time; sets the number of passes.
    pub seconds: u64,
    /// Record spans and report the per-layer figures.
    pub trace: bool,
}

/// What a run reports.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Median set-up time.
    pub setup_s: f64,
    /// Operations per second at each operation's median latency.
    pub ops_per_s: f64,
    /// Read latency percentiles over the untraced phase.
    pub op_p50_ms: f64,
    /// Tail read latency.
    pub op_p90_ms: f64,
    /// Read latency samples behind the percentiles.
    pub samples: usize,
    /// Per-layer figures (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Counts that must repeat exactly for one seed (traced runs).
    pub exact: Vec<(&'static str, f64)>,
    /// The traced phase's spans.
    pub tracer: Option<Tracer>,
}

/// Passes for `seconds` of measuring when one pass takes about
/// `pass_s` on the reference host. Fixed by the arguments alone, so a
/// slow host runs the same stream, not a shorter one.
fn passes_for(seconds: u64, pass_s: f64) -> usize {
    ((seconds as f64 / pass_s).round() as usize).max(3)
}

/// Passes of a traced run's traced phase: half the untraced ones, which
/// is plenty for per-operation layer figures and keeps a traced run
/// well inside its time limit.
fn traced_passes(passes: usize) -> usize {
    (passes / 2).max(3)
}

/// A seeded permutation of `0..n`.
fn shuffled(n: usize, rng: &mut rand::rngs::StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// Runs `one` `SETUPS` times, keeping the last result.
fn setup_many<T>(
    mut one: impl FnMut(usize) -> Result<(T, SetupTimes), String>,
) -> Result<(T, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let (v, t) = one(i)?;
        times.push(t);
        kept = Some(v); // drops (and for servers, stops) the previous one
    }
    Ok((kept.expect("SETUPS > 0"), times))
}

fn setup_layers(r: &mut Report, times: &[SetupTimes]) {
    let pick = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    r.setup_s = pick(SetupTimes::total_s);
    r.layers.insert("graph.build_s", pick(|t| t.build_s));
    r.layers.insert("snapshot.save_s", pick(|t| t.save_s));
    r.layers.insert("snapshot.load_s", pick(|t| t.load_s));
}

/// Latencies keyed by operation identity: every pass runs each key the
/// same number of times, so the median of a key is its typical cost,
/// and a burst of host noise that hits a minority of its runs drops out.
#[derive(Clone)]
struct Keyed {
    by_key: Vec<Vec<f64>>,
}

impl Keyed {
    fn new(keys: usize) -> Keyed {
        Keyed {
            by_key: vec![Vec::new(); keys],
        }
    }

    fn push(&mut self, key: usize, start: Instant) {
        self.by_key[key].push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Each key's median latency, in milliseconds.
    fn medians(&self) -> Vec<f64> {
        self.by_key.iter().map(|v| median(v)).collect()
    }

    /// Operations recorded.
    fn ops(&self) -> usize {
        self.by_key.iter().map(Vec::len).sum()
    }

    /// Milliseconds the operations take when each takes its key's
    /// median time.
    fn median_ms(&self) -> f64 {
        self.by_key.iter().map(|v| median(v) * v.len() as f64).sum()
    }

    /// Operations per second when every operation takes its key's
    /// median time: the closed loop's throughput with noise bursts
    /// filtered out.
    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.median_ms() * 1e3
    }
}

/// Process figures over one timed phase.
#[derive(Default)]
struct Phase {
    ops: u64,
    cpu_ms: f64,
    steal_ms: f64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Runs `passes` passes; `pass(p)` returns the operations it completed.
fn timed(
    passes: usize,
    mut pass: impl FnMut(usize) -> Result<u64, String>,
) -> Result<Phase, String> {
    let (cpu0, steal0) = (sys::cpu_ms(), sys::steal_ms());
    let (a0, b0) = sys::alloc_counts();
    let mut ph = Phase::default();
    for p in 0..passes {
        ph.ops += pass(p)?;
    }
    let (a1, b1) = sys::alloc_counts();
    ph.allocs = a1 - a0;
    ph.alloc_bytes = b1 - b0;
    ph.cpu_ms = sys::cpu_ms() - cpu0;
    ph.steal_ms = sys::steal_ms() - steal0;
    Ok(ph)
}

/// Per-layer figures common to every workload; `overhead` is traced
/// over untraced throughput.
fn process_layers(r: &mut Report, untraced: &Phase, overhead: f64) {
    let ops = untraced.ops.max(1) as f64;
    r.layers
        .insert("alloc.count_per_op", untraced.allocs as f64 / ops);
    r.layers.insert(
        "alloc.kb_per_op",
        untraced.alloc_bytes as f64 / 1024.0 / ops,
    );
    r.layers.insert("proc.cpu_ms_per_op", untraced.cpu_ms / ops);
    r.layers.insert("host.steal_ms", untraced.steal_ms);
    r.layers.insert("trace.overhead_ratio", overhead);
    r.exact
        .push(("alloc.count_per_op", untraced.allocs as f64 / ops));
}

/// Per-layer figures of in-process reads.
fn read_layers(r: &mut Report, c: &ReadCounters, spans: &BTreeMap<&'static str, trace::Layer>) {
    let ops = c.ops.max(1) as f64;
    let span_us = |name: &str, own: bool| {
        spans.get(name).map_or(0.0, |l| {
            (if own { l.self_ns } else { l.total_ns }) as f64 / 1e3 / ops
        })
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / ops;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let rc_probes = c.rc_hits + c.rc_misses + c.rc_subsumed;
    let l = &mut r.layers;
    l.insert("parse.us_per_op", span_us("prepare", false));
    l.insert("plan.us_per_op", span_us("plan", false));
    l.insert(
        "plan_cache.hit_ratio",
        ratio(c.plan_hits, c.plan_hits + c.plan_misses),
    );
    l.insert("bgp.ms_per_op", ms(c.bgp));
    l.insert("bgp.rows_per_op", c.bgp_rows as f64 / ops);
    l.insert("search.ms_per_op", ms(c.search));
    l.insert("search.provenances_per_op", c.provenances as f64 / ops);
    l.insert("search.queue_pushes_per_op", c.queue_pushes as f64 / ops);
    l.insert("search.results_per_op", c.results as f64 / ops);
    l.insert(
        "search.pruned_ratio",
        ratio(c.pruned, c.provenances + c.pruned),
    );
    l.insert("search.incomplete_ops", c.incomplete as f64);
    l.insert("join.ms_per_op", ms(c.join));
    l.insert(
        "seed.narrowing_ratio",
        if c.narrow_from == 0 {
            1.0
        } else {
            ratio(c.narrow_to, c.narrow_from)
        },
    );
    l.insert("exec.ms_per_op", span_us("execute", false) / 1e3);
    l.insert("exec.other_ms_per_op", span_us("execute", true) / 1e3);
    l.insert("result_cache.hit_ratio", ratio(c.rc_hits, rc_probes));
    l.insert(
        "result_cache.subsumed_ratio",
        ratio(c.rc_subsumed, rc_probes),
    );
    l.insert(
        "result_cache.trees_filtered_per_op",
        c.rc_filtered as f64 / ops,
    );
    l.insert("render.us_per_op", span_us("render", false));
    let (prov, rows) = c.exact();
    r.exact.push(("search.provenances_per_op", prov));
    r.exact.push(("bgp.rows_per_op", rows));
}

fn cache_off() -> ExecOptions {
    ExecOptions {
        result_cache: ResultCacheMode::Off,
        ..ExecOptions::default()
    }
}

/// The session that computes expected digests: fresh, cache off, and
/// with a 0.5 s safety timeout so that a runaway candidate is dropped
/// instead of stalling set-up. Candidates kept are far below it, and
/// the timed sessions carry no timeout at all.
fn screening_session(g: &Graph) -> Session<'_> {
    Session::with_options(
        g,
        ExecOptions {
            default_timeout: Some(Duration::from_millis(500)),
            ..cache_off()
        },
    )
}

/// Draws `ctp_search` candidates until every provenance bin holds
/// `per_bin` complete, non-failing queries; returns them in draw order
/// with their expected digests.
fn select_ctp(g: &Graph, seed: u64, per_bin: usize) -> Result<Vec<(String, Digest)>, String> {
    let screen = screening_session(g);
    let mut gen = data::CtpQueries::new(seed);
    let mut bins = [0usize; PROV_BINS];
    let mut out = Vec::new();
    let span = (PROV_HI as f64 / PROV_LO as f64).log2();
    for _ in 0..100_000 {
        if bins.iter().all(|&b| b >= per_bin) {
            return Ok(out);
        }
        let Some(q) = gen.next(g) else { continue };
        let Ok((digest, prov)) = inproc::expect(&screen, &q) else {
            continue;
        };
        if !(PROV_LO..PROV_HI).contains(&prov) {
            continue;
        }
        let bin = (((prov as f64 / PROV_LO as f64).log2() / span) * PROV_BINS as f64) as usize;
        if bins[bin] < per_bin {
            bins[bin] += 1;
            out.push((q, digest));
        }
    }
    Err("could not fill the ctp_search provenance bins".into())
}

/// `bgp_join`'s queries with their expected digests. A draw whose
/// label-filtered seed set comes out empty is an error the engine
/// reports at validation; it is skipped, like any failing draw.
fn select_bgp(g: &Graph, seed: u64, n: usize) -> Result<Vec<(String, Digest)>, String> {
    let screen = screening_session(g);
    let mut gen = data::BgpQueries::new(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..100 * n {
        if out.len() == n {
            return Ok(out);
        }
        let q = gen.next();
        if let Ok((d, _)) = inproc::expect(&screen, &q) {
            out.push((q, d));
        }
    }
    Err("could not draw the bgp_join queries".into())
}

/// One pass of in-process reads in the order `order`.
fn read_pass(
    session: &Session<'_>,
    queries: &[(String, Digest)],
    order: &[usize],
    tr: &mut Tracer,
    c: &mut ReadCounters,
    tally: &mut Tally,
    lat: &mut Keyed,
) -> u64 {
    for &i in order {
        let (q, expected) = &queries[i];
        let t = Instant::now();
        let got = inproc::read(session, q, tr, c);
        lat.push(i, t);
        tally.check(*expected, got, q);
    }
    order.len() as u64
}

/// `ctp_search` and `bgp_join`: one in-process, cache-off session
/// reading a fixed query set once per pass, in a per-pass order.
fn inproc_workload(
    cfg: &Config,
    ds: Dataset,
    pass_s: f64,
    select: impl Fn(&Graph) -> Result<Vec<(String, Digest)>, String>,
) -> Result<Report, String> {
    let scratch = Scratch::new()?;
    let (session, setups) = setup_many(|i| {
        let (g, mut t) = data::materialise(ds, &scratch, &format!("g{i}.csg"))?;
        let start = Instant::now();
        let s = Session::from_graph_with(g, cache_off());
        t.start_s = start.elapsed().as_secs_f64();
        Ok((s, t))
    })?;
    let mut r = Report::default();
    setup_layers(&mut r, &setups);
    let queries = select(session.graph())?;
    let passes = passes_for(cfg.seconds, pass_s);
    let mut rng = data::rng(cfg.seed, 0x0D);
    let orders: Vec<Vec<usize>> = (0..passes)
        .map(|_| shuffled(queries.len(), &mut rng))
        .collect();

    let mut lat = Keyed::new(queries.len());
    let mut c = ReadCounters::default();
    let mut off = Tracer::new(false);
    let mut tally = Tally::default();
    sys::reset_peak_heap();
    let untraced = timed(passes, |p| {
        Ok(read_pass(
            &session, &queries, &orders[p], &mut off, &mut c, &mut tally, &mut lat,
        ))
    })?;
    // A query's latency is the median of its runs (one per pass); the
    // percentiles are over the distinct queries.
    let per_query = lat.medians();
    r.ops_per_s = lat.ops_per_s();
    r.op_p50_ms = percentile(&per_query, 50.0);
    r.op_p90_ms = percentile(&per_query, 90.0);
    r.samples = per_query.len();
    if cfg.trace {
        let mut tr = Tracer::new(true);
        let mut tc = ReadCounters::default();
        let mut tlat = Keyed::new(queries.len());
        timed(traced_passes(passes), |p| {
            Ok(read_pass(
                &session, &queries, &orders[p], &mut tr, &mut tc, &mut tally, &mut tlat,
            ))
        })?;
        read_layers(&mut r, &tc, &tr.layers());
        process_layers(&mut r, &untraced, tlat.ops_per_s() / lat.ops_per_s());
        if tc.exact() != c.exact() {
            eprintln!("perfbench: traced and untraced passes differ in search/BGP counts");
            r.layers.insert("determinism.diffs", 1.0);
        }
        r.tracer = Some(tr);
    }
    r.tally = tally;
    Ok(r)
}

/// `ctp_search`: keyword-style and set-based CTPs on the scale-free graph.
pub fn ctp_search(cfg: &Config) -> Result<Report, String> {
    inproc_workload(cfg, Dataset::ScaleFree, 2.2, |g| {
        select_ctp(g, cfg.seed, 40)
    })
}

/// `bgp_join`: planned 4–5 pattern joins (a quarter with two small
/// CTPs) on the YAGO-like graph.
pub fn bgp_join(cfg: &Config) -> Result<Report, String> {
    inproc_workload(cfg, Dataset::YagoLike, 0.8, |g| {
        select_bgp(g, cfg.seed, 100)
    })
}

/// A `csqd` server bound on loopback inside this process, with one
/// client connection. Dropping it shuts the server down and joins it.
struct Served {
    server: Arc<Server>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    client: Option<Client>,
    graph: Arc<Graph>,
}

impl Served {
    fn start(graph: Arc<Graph>) -> Result<Served, String> {
        let server = Arc::new(
            Server::bind("127.0.0.1:0", Arc::clone(&graph), ServerConfig::default())
                .map_err(|e| format!("bind: {e}"))?,
        );
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let runner = Arc::clone(&server);
        let thread = std::thread::spawn(move || runner.run());
        let mut served = Served {
            server,
            thread: Some(thread),
            client: None,
            graph,
        };
        served.client = Some(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
        Ok(served)
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("client connected in start")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.client = None;
        self.server.request_shutdown();
        if let Some(t) = self.thread.take() {
            if let Ok(Err(e)) = t.join() {
                eprintln!("perfbench: server stopped with an error: {e}");
            }
        }
    }
}

/// Reads `"<n> <word>"` counters from one line of the `stats` reply.
fn stat_counter(stats: &str, line: &str, word: &str) -> f64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(line))
        .and_then(|rest| {
            rest.split(',')
                .map(str::trim)
                .find(|part| part.ends_with(&format!(" {word}")))
                .and_then(|part| part.split_whitespace().next())
                .and_then(|n| n.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Requests per `served_hot` pass: the pool, this many times over.
const SERVED_REPEAT: usize = 40;

/// `served_hot`: one connection to an in-process `csqd` asking a small
/// pool that the shared result cache holds, so a request costs the
/// daemon's fixed path plus a cache probe.
pub fn served_hot(cfg: &Config) -> Result<Report, String> {
    let scratch = Scratch::new()?;
    let (mut served, setups) = setup_many(|i| {
        let (g, mut t) = data::materialise(Dataset::ScaleFree, &scratch, &format!("g{i}.csg"))?;
        let start = Instant::now();
        let s = Served::start(Arc::new(g))?;
        t.start_s = start.elapsed().as_secs_f64();
        Ok((s, t))
    })?;
    let mut r = Report::default();
    setup_layers(&mut r, &setups);

    let graph = Arc::clone(&served.graph);
    let local = Session::from_shared_with(Arc::clone(&graph), cache_off());
    let pool: Vec<(String, Digest)> = data::served_pool(&graph, cfg.seed, 20)
        .into_iter()
        .map(|q| inproc::expect(&local, &q).map(|(d, _)| (q, d)))
        .collect::<Result<_, _>>()?;
    drop(local);

    let header = RequestHeader::default();
    let mut tally = Tally::default();
    let ask = |client: &mut Client, i: usize, tr: &mut Tracer, tally: &mut Tally| {
        let (q, expected) = &pool[i];
        let op = tr.begin_op();
        let s = tr.enter("client.query", op);
        let got = client
            .query(q, &header)
            .map(|rep| Digest::of(rep.rows, &rep.text))
            .map_err(|e| e.to_string());
        tr.exit(s);
        tr.exit(op);
        // Remote ≡ local: the reply must render exactly as the local session does.
        tally.check(*expected, got, q);
    };
    // Warm-up: the first request of each query searches and fills the cache.
    let mut off = Tracer::new(false);
    for i in 0..pool.len() {
        ask(served.client(), i, &mut off, &mut tally);
    }

    let passes = passes_for(cfg.seconds, 0.2);
    let mut rng = data::rng(cfg.seed, 0x0E);
    let orders: Vec<Vec<usize>> = (0..passes)
        .map(|_| {
            shuffled(pool.len() * SERVED_REPEAT, &mut rng)
                .into_iter()
                .map(|k| k % pool.len())
                .collect()
        })
        .collect();
    let mut lat = Keyed::new(pool.len());
    sys::reset_peak_heap();
    let untraced = timed(passes, |p| {
        for &i in &orders[p] {
            let t = Instant::now();
            ask(served.client(), i, &mut off, &mut tally);
            lat.push(i, t);
        }
        Ok(orders[p].len() as u64)
    })?;
    // As for the in-process reads, a query's latency is the median of
    // its requests and the percentiles are over the pool: the tail of
    // single requests here is set by how fast the host wakes threads.
    let per_query = lat.medians();
    r.ops_per_s = lat.ops_per_s();
    r.op_p50_ms = percentile(&per_query, 50.0);
    r.op_p90_ms = percentile(&per_query, 90.0);
    r.samples = per_query.len();

    if cfg.trace {
        let mut tr = Tracer::new(true);
        let mut tlat = Keyed::new(pool.len());
        let traced = timed(traced_passes(passes), |p| {
            for &i in &orders[p] {
                let t = Instant::now();
                ask(served.client(), i, &mut tr, &mut tally);
                tlat.push(i, t);
            }
            Ok(orders[p].len() as u64)
        })?;
        // The in-process twin: the same stream through a warm session
        // with its own result cache, plus render.
        let twin = Session::from_shared(Arc::clone(&graph));
        let mut c = ReadCounters::default();
        let mut twin_tr = Tracer::new(true);
        let mut twin_lat = Keyed::new(pool.len());
        let each: Vec<usize> = (0..pool.len()).collect();
        let mut twin_tally = Tally::default();
        read_pass(
            &twin,
            &pool,
            &each,
            &mut Tracer::new(false),
            &mut ReadCounters::default(),
            &mut twin_tally,
            &mut Keyed::new(pool.len()),
        );
        for order in &orders[..traced_passes(passes)] {
            read_pass(
                &twin,
                &pool,
                order,
                &mut twin_tr,
                &mut c,
                &mut twin_tally,
                &mut twin_lat,
            );
        }
        tally.add(twin_tally);
        read_layers(&mut r, &c, &twin_tr.layers());
        process_layers(&mut r, &untraced, tlat.ops_per_s() / lat.ops_per_s());
        // The count includes the server's threads, whose allocations
        // depend on timing (read time-outs of the idle connection), so
        // it is reported but not held to repeat exactly.
        r.exact.retain(|&(name, _)| name != "alloc.count_per_op");
        let rtt_us = r.op_p50_ms * 1e3;
        let inproc_us = percentile(&twin_lat.medians(), 50.0) * 1e3;
        r.layers.insert("server.rtt_us_p50", rtt_us);
        r.layers.insert("server.inproc_us_p50", inproc_us);
        r.layers
            .insert("server.overhead_us_per_op", rtt_us - inproc_us);
        let stats = served.client().stats().map_err(|e| e.to_string())?;
        r.layers.insert(
            "server.rejected",
            stat_counter(&stats, "served:", "rejected"),
        );
        r.layers
            .insert("server.failed", stat_counter(&stats, "served:", "failed"));
        let (h, m, s) = (
            stat_counter(&stats, "result_cache:", "hits"),
            stat_counter(&stats, "result_cache:", "misses"),
            stat_counter(&stats, "result_cache:", "subsumed"),
        );
        let probes = (h + m + s).max(1.0);
        r.layers.insert("result_cache.hit_ratio", h / probes);
        r.layers.insert("result_cache.subsumed_ratio", s / probes);
        r.layers.insert(
            "result_cache.trees_filtered_per_op",
            stat_counter(&stats, "result_cache:", "trees_filtered")
                / (pool.len() as u64 + untraced.ops + traced.ops) as f64,
        );
        r.tracer = Some(tr);
    }
    r.tally = tally;
    Ok(r)
}

/// Rounds per `live_mixed` pass and reads per round. A pass reads each
/// of the 200 selected queries once, in an order drawn per pass.
const LIVE_ROUNDS_PER_PASS: usize = 100;
const LIVE_READS_PER_ROUND: usize = 2;
const LIVE_READ_QUERIES: usize = 200;
/// Standing queries polled every round.
const LIVE_WATCHES: usize = 4;

/// Turns a script round into a `Session::mutate` batch, resolving the
/// edges it removes against the current graph.
fn batch(g: &Graph, round: &Round) -> Result<Vec<Mutation>, String> {
    let mut ops: Vec<Mutation> = round
        .new_nodes
        .iter()
        .map(|l| Mutation::InsertNode {
            label: l.clone(),
            types: Vec::new(),
        })
        .collect();
    ops.extend(round.insert.iter().map(|e| Mutation::InsertEdge {
        src: e.src,
        label: e.label.to_string(),
        dst: e.dst,
    }));
    for e in &round.remove {
        let edge = g
            .label_id(e.label)
            .and_then(|l| {
                g.out_edges_labelled(e.src, l)
                    .iter()
                    .copied()
                    .find(|&id| g.edge(id).dst == e.dst)
            })
            .ok_or_else(|| format!("script edge {e:?} is not in the graph"))?;
        ops.push(Mutation::RemoveEdge { edge });
    }
    Ok(ops)
}

/// Node constants (`"v123"`) of a query text.
fn constants(g: &Graph, text: &str) -> Vec<NodeId> {
    text.split('"')
        .skip(1)
        .step_by(2)
        .filter_map(|s| g.node_by_label(s))
        .collect()
}

/// Watch and write figures of a `live_mixed` phase.
#[derive(Default)]
struct LiveCounters {
    write_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    poll_ms: f64,
    rounds: u64,
    skips: [u64; 3],
    reeval: u64,
}

/// Everything one `live_mixed` phase accumulates.
struct LivePhase {
    tracer: Tracer,
    reads: ReadCounters,
    live: LiveCounters,
    /// Poll latencies, keyed by round of the pass and standing query.
    polls: Keyed,
    /// Read latencies, keyed by query.
    read_lat: Keyed,
}

impl LivePhase {
    fn new(trace: bool) -> LivePhase {
        LivePhase {
            tracer: Tracer::new(trace),
            reads: ReadCounters::default(),
            live: LiveCounters::default(),
            polls: Keyed::new(LIVE_ROUNDS_PER_PASS * LIVE_WATCHES),
            read_lat: Keyed::new(LIVE_READ_QUERIES),
        }
    }

    /// The closed loop's throughput: reads and polls at their keys'
    /// median times, writes at their whole time, so that the few
    /// batches that compact the overlay count in full.
    fn ops_per_s(&self) -> f64 {
        let ops = self.read_lat.ops() + self.polls.ops() + self.live.write_ms.len();
        let write_ms: f64 = self.live.write_ms.iter().sum();
        ops as f64 / (self.read_lat.median_ms() + self.polls.median_ms() + write_ms) * 1e3
    }
}

/// `live_mixed`: per round one `mutate` batch, a poll of every
/// standing query, then reads from `ctp_search`'s query set, on an
/// owned session with default options (result cache on) over a graph
/// with the engine's default compaction threshold.
pub fn live_mixed(cfg: &Config) -> Result<Report, String> {
    let passes = passes_for(cfg.seconds, 2.4);
    let traced = if cfg.trace { traced_passes(passes) } else { 0 };
    let rounds = (passes + traced) * LIVE_ROUNDS_PER_PASS;
    let scratch = Scratch::new()?;
    let (mut session, setups) = setup_many(|i| {
        let (g, mut t) = data::materialise(Dataset::ScaleFree, &scratch, &format!("g{i}.csg"))?;
        let start = Instant::now();
        let s = Session::from_graph(g);
        t.start_s = start.elapsed().as_secs_f64();
        Ok((s, t))
    })?;
    let mut r = Report::default();
    setup_layers(&mut r, &setups);

    let reads = select_ctp(session.graph(), cfg.seed, LIVE_READ_QUERIES / PROV_BINS)?;
    let hot: Vec<NodeId> = {
        let g = session.graph();
        let mut h: Vec<NodeId> = reads.iter().flat_map(|(q, _)| constants(g, q)).collect();
        h.sort_unstable();
        h.dedup();
        h
    };
    let script = data::mutation_script(cfg.seed, session.graph().node_count(), &hot, rounds);
    let label = |n: NodeId| session.graph().node_label(n).to_string();
    let watch_texts: [String; LIVE_WATCHES] = [
        r#"SELECT x, y WHERE { (x, "live0", y) }"#.to_string(),
        r#"SELECT x, y WHERE { (x, "live1", y) }"#.to_string(),
        format!(
            r#"SELECT w WHERE {{ CONNECT("{}", "{}" -> w) LABEL "live0", "rel0" MAX 2 }}"#,
            label(hot[0]),
            label(hot[hot.len() / 2])
        ),
        format!(
            r#"SELECT w WHERE {{ CONNECT("{}", "{}" -> w) MAX 2 }}"#,
            label(hot[1]),
            label(hot[hot.len() - 1])
        ),
    ];
    let mut watches: Vec<Watch> = watch_texts
        .iter()
        .map(|q| session.watch(q).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let mut rng = data::rng(cfg.seed, 0x0F);
    let orders: Vec<Vec<usize>> = (0..passes)
        .map(|_| shuffled(reads.len(), &mut rng))
        .collect();

    let mut tally = Tally::default();
    let mut next_round = 0usize;
    let mut run_phase = |passes: usize,
                         session: &mut Session<'static>,
                         watches: &mut Vec<Watch>,
                         ph: &mut LivePhase,
                         tally: &mut Tally|
     -> Result<Phase, String> {
        timed(passes, |p| {
            let mut ops = 0;
            for k in 0..LIVE_ROUNDS_PER_PASS {
                let round = &script[next_round];
                next_round += 1;
                let ops_batch = batch(session.graph(), round)?;
                let tr = &mut ph.tracer;
                let op = tr.begin_op();
                let start = Instant::now();
                let s = tr.enter("mutate", op);
                let applied = session.mutate(ops_batch).map_err(|e| e.to_string())?;
                tr.exit(s);
                ops += 1;
                let write_ms = start.elapsed().as_secs_f64() * 1e3;
                let ids_ok = applied.nodes.len() == round.new_nodes.len()
                    && applied
                        .nodes
                        .iter()
                        .zip(&round.new_nodes)
                        .all(|(n, l)| format!("nv{}", n.0) == *l);
                tally.record(ids_ok);
                for (wi, w) in watches.iter_mut().enumerate() {
                    let t = Instant::now();
                    let s = tr.enter("poll", op);
                    let delta = w.poll(session);
                    tr.exit(s);
                    ph.polls.push(k * LIVE_WATCHES + wi, t);
                    ops += 1;
                    ph.live.poll_ms += t.elapsed().as_secs_f64() * 1e3;
                    let ok = match delta {
                        Ok(d) => {
                            match d.skipped {
                                Some(WatchSkip::Unchanged) => ph.live.skips[0] += 1,
                                Some(WatchSkip::LabelsDisjoint) => ph.live.skips[1] += 1,
                                Some(WatchSkip::DeltaUnreachable) => ph.live.skips[2] += 1,
                                None => ph.live.reeval += 1,
                            }
                            true
                        }
                        Err(e) => {
                            eprintln!("perfbench: poll failed: {e}");
                            false
                        }
                    };
                    tally.record(ok);
                }
                tr.exit(op);
                ph.live.fresh_ms.push(start.elapsed().as_secs_f64() * 1e3);
                ph.live.write_ms.push(write_ms);
                if applied.compacted {
                    ph.live.compact_ms.push(write_ms);
                }
                ph.live.rounds += 1;
                for j in 0..LIVE_READS_PER_ROUND {
                    let qi = orders[p][k * LIVE_READS_PER_ROUND + j];
                    let (q, expected) = &reads[qi];
                    let t = Instant::now();
                    let got = inproc::read(session, q, &mut ph.tracer, &mut ph.reads);
                    ph.read_lat.push(qi, t);
                    ops += 1;
                    tally.check(*expected, got, q);
                }
            }
            Ok(ops)
        })
    };

    let mut un = LivePhase::new(false);
    sys::reset_peak_heap();
    let untraced = run_phase(passes, &mut session, &mut watches, &mut un, &mut tally)?;
    // Reads are keyed by query as in `ctp_search`; throughput counts
    // writes and polls too.
    let per_query = un.read_lat.medians();
    r.ops_per_s = un.ops_per_s();
    r.op_p50_ms = percentile(&per_query, 50.0);
    r.op_p90_ms = percentile(&per_query, 90.0);
    r.samples = per_query.len();
    if cfg.trace {
        let mut tp = LivePhase::new(true);
        run_phase(traced, &mut session, &mut watches, &mut tp, &mut tally)?;
        let spans = tp.tracer.layers();
        read_layers(&mut r, &tp.reads, &spans);
        process_layers(&mut r, &untraced, tp.ops_per_s() / un.ops_per_s());
        let (lc, tlc) = (&un.live, &tp.live);
        let l = &mut r.layers;
        let rounds = tlc.rounds.max(1) as f64;
        l.insert("write_p50_ms", percentile(&lc.write_ms, 50.0));
        l.insert("freshness_p50_ms", percentile(&lc.fresh_ms, 50.0));
        l.insert("freshness_p90_ms", percentile(&lc.fresh_ms, 90.0));
        l.insert(
            "mutate.us_per_batch",
            spans
                .get("mutate")
                .map_or(0.0, |s| s.total_ns as f64 / 1e3 / rounds),
        );
        l.insert("mutate.compactions", tlc.compact_ms.len() as f64);
        l.insert(
            "mutate.compact_ms",
            if tlc.compact_ms.is_empty() {
                0.0
            } else {
                median(&tlc.compact_ms)
            },
        );
        l.insert("watch.poll_ms_per_round", tlc.poll_ms / rounds);
        l.insert("watch.skip.unchanged", tlc.skips[0] as f64);
        l.insert("watch.skip.labels_disjoint", tlc.skips[1] as f64);
        l.insert("watch.skip.delta_unreachable", tlc.skips[2] as f64);
        l.insert("watch.reeval", tlc.reeval as f64);
        for name in [
            "mutate.compactions",
            "watch.skip.unchanged",
            "watch.skip.labels_disjoint",
            "watch.skip.delta_unreachable",
            "watch.reeval",
        ] {
            r.exact.push((name, r.layers[name]));
        }
        r.tracer = Some(tp.tracer);
    }
    // The standing queries must agree with a cache-off re-run on the
    // final graph.
    let fresh = Session::with_options(session.graph(), cache_off());
    for (w, q) in watches.iter().zip(&watch_texts) {
        let ok = fresh
            .watch(q)
            .map(|f| f.rows() == w.rows())
            .unwrap_or(false);
        if !ok {
            eprintln!("perfbench: standing query diverged from a fresh re-run: {q}");
        }
        tally.record(ok);
    }
    r.tally = tally;
    Ok(r)
}
