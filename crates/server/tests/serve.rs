//! End-to-end tests of `csqd`: concurrent-client parity against a
//! local [`Session`], server-side deadlines and cooperative
//! cancellation, admission control, per-connection request order, and
//! the shutdown drain.

use cs_eql::Session;
use cs_graph::generate::random_connected;
use cs_graph::Graph;
use cs_server::proto::{read_frame, write_frame, ErrorReply, Frame, Opcode, QueryRequest};
use cs_server::{Client, ClientError, ErrorCode, QueryReply, RequestHeader, Server, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The shared dataset: the `random64_molesp_max5` workload graph —
/// small enough to serve instantly, dense enough that `MAX 5` searches
/// run long (the deadline/cancel target).
fn graph() -> Arc<Graph> {
    Arc::new(random_connected(64, 192, 42))
}

const LONG_QUERY: &str = r#"SELECT w WHERE { CONNECT("n0", "n63" -> w) MAX 5 }"#;

/// A search that stays slow in optimised builds too (about a second
/// untimed, where `LONG_QUERY` takes tens of milliseconds, no longer
/// than the 25–30 ms these tests give a deadline or a cancel): the
/// target of every test that needs a query still running when its
/// deadline, cancel, probe or disconnect arrives.
const SLOW_QUERY: &str = r#"SELECT w WHERE { CONNECT("n0", "n63" -> w) MAX 6 }"#;

/// Binds an ephemeral-port server and runs it on a background thread.
fn start(cfg: ServerConfig) -> (Arc<Server>, SocketAddr, JoinHandle<()>) {
    let server = Arc::new(Server::bind("127.0.0.1:0", graph(), cfg).expect("bind"));
    let addr = server.local_addr().expect("local addr");
    #[expect(
        clippy::disallowed_methods,
        reason = "the test runs the server loop on a background thread"
    )]
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            server.run().expect("serve loop");
        })
    };
    (server, addr, handle)
}

/// Stops a started server and joins its serve loop.
fn stop(server: &Server, handle: JoinHandle<()>) {
    server.request_shutdown();
    handle.join().expect("serve loop joins");
}

/// The acceptance bar: ≥ 8 concurrent connections, every reply
/// byte-identical to what a local session produces for the same query
/// on the same graph.
#[test]
fn eight_concurrent_clients_match_local_session() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 4;
    let (server, addr, handle) = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });

    // Each client runs its own query set; expectations come from a
    // fresh local session over the identical graph.
    let queries: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| {
            (0..QUERIES_PER_CLIENT)
                .map(|q| {
                    format!(
                        r#"SELECT w WHERE {{ CONNECT("n{}", "n{}" -> w) MAX 3 }}"#,
                        c,
                        63 - q
                    )
                })
                .collect()
        })
        .collect();

    let g = graph();
    let expected: Vec<Vec<(u64, String)>> = queries
        .iter()
        .map(|qs| {
            let session = Session::from_shared(Arc::clone(&g));
            qs.iter()
                .map(|q| {
                    let r = session.run(q).expect("local run");
                    (r.rows() as u64, r.render(&g))
                })
                .collect()
        })
        .collect();

    #[expect(
        clippy::disallowed_methods,
        reason = "one client thread per connection drives the concurrent load"
    )]
    std::thread::scope(|scope| {
        for (c, (qs, exp)) in queries.iter().zip(&expected).enumerate() {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let header = RequestHeader {
                    tenant: format!("tenant{}", c % 3),
                    deadline_ms: 0,
                };
                for (q, (rows, text)) in qs.iter().zip(exp) {
                    let reply = client.query(q, &header).expect("server reply");
                    assert_eq!(reply.rows, *rows, "client {c}: row count parity");
                    assert_eq!(&reply.text, text, "client {c}: rendered-text parity");
                }
            });
        }
    });
    stop(&server, handle);
}

#[test]
fn batch_over_server_matches_local_batch() {
    let (server, addr, handle) = start(ServerConfig::default());
    let qs = [
        r#"SELECT w WHERE { CONNECT("n1", "n62" -> w) MAX 3 }"#,
        r#"SELECT w WHERE { CONNECT("n2", "n61" -> w) MAX 3 }"#,
    ];
    let g = graph();
    let session = Session::from_shared(Arc::clone(&g));
    let mut rows = 0u64;
    let mut text = String::new();
    for r in session.execute_batch(&qs) {
        let r = r.expect("local batch member");
        rows += r.rows() as u64;
        text.push_str(&r.render(&g));
    }

    let mut client = Client::connect(addr).expect("connect");
    let reply = client
        .batch(&qs, &RequestHeader::default())
        .expect("batch reply");
    assert_eq!(reply.rows, rows);
    assert_eq!(reply.text, text);
    stop(&server, handle);
}

#[test]
fn ask_opcode_returns_boolean() {
    let (server, addr, handle) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let header = RequestHeader::default();
    assert!(client
        .ask(r#"ASK WHERE { CONNECT("n0", "n1" -> w) MAX 5 }"#, &header)
        .expect("ask"));
    stop(&server, handle);
}

/// A query error (here: an empty seed set) is a typed `Query` error
/// frame, and the connection keeps serving afterwards.
#[test]
fn query_error_does_not_poison_the_connection() {
    let (server, addr, handle) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let header = RequestHeader::default();
    let err = client
        .query(
            r#"SELECT w WHERE { CONNECT("NoSuchNode", "n0" -> w) }"#,
            &header,
        )
        .expect_err("empty seed set must fail");
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Query, "{}", e.message),
        other => panic!("want server error, got {other}"),
    }
    // Same connection, next query succeeds.
    let reply = client
        .query(
            r#"SELECT w WHERE { CONNECT("n0", "n1" -> w) MAX 3 }"#,
            &header,
        )
        .expect("connection still serves");
    assert!(reply.rows > 0);
    stop(&server, handle);
}

/// The acceptance bar: a long search under a short per-request
/// deadline returns `DeadlineExceeded` well before the untimed
/// runtime.
#[test]
fn server_deadline_exceeded_well_before_untimed_runtime() {
    let g = graph();
    let t0 = Instant::now();
    let full = Session::from_shared(Arc::clone(&g))
        .run(SLOW_QUERY)
        .expect("untimed local run");
    let untimed = t0.elapsed();
    assert!(full.rows() > 0);

    let (server, addr, handle) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let t = Instant::now();
    let err = client
        .query(
            SLOW_QUERY,
            &RequestHeader {
                tenant: String::new(),
                deadline_ms: 25,
            },
        )
        .expect_err("deadline must fail the query");
    let elapsed = t.elapsed();
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::DeadlineExceeded, "{}", e.message);
            assert_eq!(e.message, "deadline exceeded");
        }
        other => panic!("want server error, got {other}"),
    }
    assert!(
        elapsed < untimed / 3,
        "deadline stop took {elapsed:?}, untimed runtime {untimed:?}"
    );
    stop(&server, handle);
}

/// The server-wide default deadline applies when the request carries
/// none.
#[test]
fn default_deadline_applies_to_unmarked_requests() {
    let (server, addr, handle) = start(ServerConfig {
        default_deadline: Some(Duration::from_millis(25)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .query(SLOW_QUERY, &RequestHeader::default())
        .expect_err("default deadline must fail the query");
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
        other => panic!("want server error, got {other}"),
    }
    stop(&server, handle);
}

/// A `cancel` frame sent mid-query stops the search cooperatively; the
/// cancelled request answers with a `Cancelled` error frame.
#[test]
fn cancel_frame_stops_running_query() {
    let (server, addr, handle) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let id = client
        .send_query(SLOW_QUERY, &RequestHeader::default())
        .expect("send");
    let mut canceller = client.canceller().expect("canceller");
    #[expect(
        clippy::disallowed_methods,
        reason = "the cancel frame is sent from a timer thread while the query runs"
    )]
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        canceller.cancel(id).expect("cancel frame");
    });
    let err = client.wait_query(id).expect_err("cancel must fail it");
    killer.join().expect("killer joins");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::Cancelled, "{}", e.message);
            assert_eq!(e.message, "cancelled");
        }
        other => panic!("want server error, got {other}"),
    }
    // The connection survives its own cancelled query.
    let reply = client
        .query(
            r#"SELECT w WHERE { CONNECT("n0", "n1" -> w) MAX 3 }"#,
            &RequestHeader::default(),
        )
        .expect("connection still serves");
    assert!(reply.rows > 0);
    stop(&server, handle);
}

/// Admission control: with a single worker, a full run queue answers
/// `Overloaded` instead of queueing without bound.
#[test]
fn full_run_queue_rejects_with_overloaded() {
    let (server, addr, handle) = start(ServerConfig {
        workers: 1,
        scheduler: cs_server::SchedulerConfig {
            queue_capacity: 1,
            tenant_inflight: 1,
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    // Bounded deadlines so the flood drains by itself.
    let header = RequestHeader {
        tenant: String::new(),
        deadline_ms: 200,
    };
    // First long query occupies the worker, second fills the queue,
    // third must bounce at admission. The second is sent only once the
    // worker has taken the first off the queue: were the first still
    // queued, the second would bounce instead, and the third could be
    // admitted after the worker drains the first.
    let _id1 = client.send_query(SLOW_QUERY, &header).expect("send 1");
    let mut probe = Client::connect(addr).expect("connect probe");
    let since = Instant::now();
    while !probe
        .stats()
        .expect("stats")
        .contains("scheduler: 0 queued, 1 inflight")
    {
        assert!(
            since.elapsed() < Duration::from_secs(5),
            "the worker never picked up the first query"
        );
        std::thread::yield_now();
    }
    let _id2 = client.send_query(SLOW_QUERY, &header).expect("send 2");
    let id3 = client.send_query(SLOW_QUERY, &header).expect("send 3");
    let err = client.wait_query(id3).expect_err("admission must reject");
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Overloaded, "{}", e.message),
        other => panic!("want overloaded, got {other}"),
    }
    stop(&server, handle);
}

#[test]
fn ping_stats_and_shutdown_roundtrip() {
    let (server, addr, handle) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    assert!(client.ping().expect("ping") < Duration::from_secs(5));
    client
        .query(
            r#"SELECT w WHERE { CONNECT("n0", "n1" -> w) MAX 3 }"#,
            &RequestHeader {
                tenant: "alice".into(),
                deadline_ms: 0,
            },
        )
        .expect("query");
    let stats = client.stats().expect("stats");
    assert!(stats.contains("graph: 64 nodes"), "{stats}");
    assert!(stats.contains("scheduler:"), "{stats}");
    assert!(stats.contains("1 ok"), "{stats}");

    // Protocol shutdown: the serve loop drains and returns, so the
    // join below completes without request_shutdown().
    client.shutdown().expect("shutdown ack");
    handle.join().expect("serve loop drains");
    drop(server);
}

/// The shared result cache: a query repeated across two connections is
/// byte-identical on every run (first run a miss, repeats replayed from
/// the server-wide cache) and still matches an uncached local session.
#[test]
fn shared_result_cache_replays_identically_across_connections() {
    let (server, addr, handle) = start(ServerConfig::default());
    let q = r#"SELECT w WHERE { CONNECT("n3", "n60" -> w) MAX 3 }"#;

    // The ground truth: a local session with caching off.
    let g = graph();
    let local = Session::from_shared_with(
        Arc::clone(&g),
        cs_eql::ExecOptions {
            result_cache: cs_eql::ResultCacheMode::Off,
            ..cs_eql::ExecOptions::default()
        },
    );
    let expect = local.run(q).expect("local run");
    let (rows, text) = (expect.rows() as u64, expect.render(&g));

    let header = RequestHeader::default();
    let mut first = Client::connect(addr).expect("connect 1");
    let mut second = Client::connect(addr).expect("connect 2");
    for client in [&mut first, &mut second] {
        for run in 0..2 {
            let reply = client.query(q, &header).expect("server reply");
            assert_eq!(reply.rows, rows, "run {run}: row count parity");
            assert_eq!(reply.text, text, "run {run}: rendered-text parity");
        }
    }

    // One miss (the very first run), three shared-cache hits.
    let stats = first.stats().expect("stats");
    assert!(
        stats.contains("result_cache: 3 hits, 1 misses, 0 subsumed, 0 trees_filtered, 1 entries"),
        "{stats}"
    );
    stop(&server, handle);
}

/// `--result-cache off` (ServerConfig with `Off`) serves without a
/// cache and reports all-zero counters in the stats reply.
#[test]
fn result_cache_off_reports_zero_counters() {
    let (server, addr, handle) = start(ServerConfig {
        exec: cs_eql::ExecOptions {
            result_cache: cs_eql::ResultCacheMode::Off,
            ..cs_eql::ExecOptions::default()
        },
        ..ServerConfig::default()
    });
    let q = r#"SELECT w WHERE { CONNECT("n0", "n1" -> w) MAX 3 }"#;
    let mut client = Client::connect(addr).expect("connect");
    let header = RequestHeader::default();
    let a = client.query(q, &header).expect("first run");
    let b = client.query(q, &header).expect("second run");
    assert_eq!(a.text, b.text, "uncached repeats stay deterministic");
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("result_cache: 0 hits, 0 misses, 0 subsumed, 0 trees_filtered, 0 entries"),
        "{stats}"
    );
    stop(&server, handle);
}

/// The live-graph loop over the wire: subscribe, mutate, poll. The
/// mutation swaps the epoch server-side; the poll after it reports
/// exactly the appeared row, and a second poll reports no change.
#[test]
fn mutate_then_poll_reports_result_delta() {
    use cs_server::{PollSkip, WireMutation};
    let (server, addr, handle) = start(ServerConfig::default());
    let header = RequestHeader::default();
    let mut client = Client::connect(addr).expect("connect");

    // n0's direct neighbourhood, as a standing query.
    let sub = client
        .subscribe(r#"SELECT x WHERE { (x, "r0", "n0") }"#, &header)
        .expect("subscribe");
    assert_eq!(sub.generation, 0);

    // A new node wired into n0 under the watched edge label.
    let m = client
        .mutate(
            vec![
                WireMutation::InsertNode {
                    label: "fresh".into(),
                    types: vec![],
                },
                WireMutation::InsertEdge {
                    src: "fresh".into(),
                    label: "r0".into(),
                    dst: "n0".into(),
                },
            ],
            &header,
        )
        .expect("mutate");
    assert_eq!(m.generation, 1);
    assert_eq!((m.nodes, m.edges, m.removed), (1, 1, 0));

    let delta = client.poll(sub.sub, &header).expect("poll");
    assert_eq!(delta.generation, 1);
    assert_eq!(delta.skip, PollSkip::Reran);
    assert_eq!(delta.added.len(), 1, "added: {:?}", delta.added);
    assert!(delta.added[0].contains("fresh"), "added: {:?}", delta.added);
    assert!(delta.removed.is_empty());

    // Nothing happened since: the generation layer skips.
    let delta = client.poll(sub.sub, &header).expect("second poll");
    assert!(delta.added.is_empty() && delta.removed.is_empty());
    assert_eq!(delta.skip, PollSkip::Unchanged);

    // Removing the edge takes the row back out.
    let m = client
        .mutate(
            vec![WireMutation::RemoveEdge {
                src: "fresh".into(),
                label: "r0".into(),
                dst: "n0".into(),
            }],
            &header,
        )
        .expect("remove");
    assert_eq!(m.removed, 1);
    let delta = client.poll(sub.sub, &header).expect("poll after remove");
    assert_eq!(delta.removed.len(), 1, "removed: {:?}", delta.removed);
    assert!(delta.removed[0].contains("fresh"));

    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("generation 2 (2 mutation batch(es))"),
        "{stats}"
    );
    stop(&server, handle);
}

/// Mutations are visible to plain queries from *other* connections
/// (each rebuilds its session over the swapped epoch), and a dangling
/// symbolic reference rejects the whole batch.
#[test]
fn mutation_visible_across_connections_and_bad_refs_reject() {
    use cs_server::WireMutation;
    let (server, addr, handle) = start(ServerConfig::default());
    let header = RequestHeader::default();
    let mut writer = Client::connect(addr).expect("connect writer");
    let mut reader = Client::connect(addr).expect("connect reader");

    // The reader has already served a query on epoch 0.
    let q = r#"ASK WHERE { ("n7", "brandNew", "n9") }"#;
    assert!(!reader.ask(q, &header).expect("ask before"));

    writer
        .mutate(
            vec![WireMutation::InsertEdge {
                src: "n7".into(),
                label: "brandNew".into(),
                dst: "n9".into(),
            }],
            &header,
        )
        .expect("mutate");
    assert!(
        reader.ask(q, &header).expect("ask after"),
        "epoch swap must reach other connections"
    );

    let err = writer
        .mutate(
            vec![WireMutation::InsertEdge {
                src: "NoSuchNode".into(),
                label: "r".into(),
                dst: "n0".into(),
            }],
            &header,
        )
        .expect_err("dangling reference must reject");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::Query, "{}", e.message);
            assert!(e.message.contains("NoSuchNode"), "{}", e.message);
        }
        other => panic!("want server error, got {other}"),
    }
    stop(&server, handle);
}

/// Polling an unknown subscription id is a typed query error, not a
/// dropped connection.
#[test]
fn poll_unknown_subscription_is_typed_error() {
    let (server, addr, handle) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .poll(99, &RequestHeader::default())
        .expect_err("unknown sub must fail");
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Query, "{}", e.message),
        other => panic!("want server error, got {other}"),
    }
    // Connection still serves.
    assert!(client.ping().expect("ping") < Duration::from_secs(5));
    stop(&server, handle);
}

/// Two tenants, one worker: round-robin dispatch interleaves their
/// queued jobs rather than running one tenant's backlog to completion.
#[test]
fn tenants_share_the_worker_fairly() {
    let (server, addr, handle) = start(ServerConfig {
        workers: 1,
        scheduler: cs_server::SchedulerConfig {
            queue_capacity: 64,
            tenant_inflight: 1,
        },
        ..ServerConfig::default()
    });
    let quick = r#"SELECT w WHERE { CONNECT("n0", "n1" -> w) MAX 2 }"#;
    // Tenant A floods first; tenant B's single query must not wait for
    // the whole backlog (round-robin puts it second, not seventh).
    let mut flood = Client::connect(addr).expect("connect A");
    let header_a = RequestHeader {
        tenant: "a".into(),
        deadline_ms: 0,
    };
    let mut ids = Vec::new();
    for _ in 0..6 {
        ids.push(flood.send_query(quick, &header_a).expect("flood"));
    }
    let mut other = Client::connect(addr).expect("connect B");
    let reply = other
        .query(
            quick,
            &RequestHeader {
                tenant: "b".into(),
                deadline_ms: 0,
            },
        )
        .expect("tenant B served");
    assert!(reply.rows > 0);
    // Drain tenant A so shutdown is clean.
    for id in ids {
        let _ = flood.wait_query(id);
    }
    stop(&server, handle);
}

/// A raw connection, for tests that pipeline frames or read replies in
/// arrival order (the blocking [`Client`] waits for one id at a time).
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    // A server that never answers fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream
}

fn send_raw(stream: &mut TcpStream, request_id: u64, opcode: Opcode, payload: Vec<u8>) {
    write_frame(
        stream,
        &Frame {
            request_id,
            opcode,
            payload,
        },
    )
    .expect("send frame");
}

fn query_payload(text: &str) -> Vec<u8> {
    QueryRequest {
        header: RequestHeader::default(),
        text: text.to_string(),
    }
    .encode()
}

/// A `stats` frame on a connection whose own query is still running is
/// answered before that query ends: the thread running the query has
/// left the socket to the connection's other thread.
#[test]
fn stats_answered_while_the_connection_runs_a_query() {
    let (server, addr, handle) = start(ServerConfig::default());
    let mut stream = raw_connect(addr);
    send_raw(&mut stream, 1, Opcode::Query, query_payload(SLOW_QUERY));
    send_raw(&mut stream, 2, Opcode::Stats, Vec::new());

    let first = read_frame(&mut stream).expect("first frame");
    assert_eq!(
        (first.request_id, first.opcode),
        (2, Opcode::StatsReply),
        "the stats reply must overtake the running query"
    );
    let stats = String::from_utf8(first.payload).expect("utf-8 stats");
    assert!(
        stats.contains("served: 0 ok, 0 failed, 0 cancelled"),
        "{stats}"
    );

    // End the query early: it answers with its own Cancelled frame.
    send_raw(&mut stream, 3, Opcode::Cancel, 1u64.to_le_bytes().to_vec());
    let second = read_frame(&mut stream).expect("second frame");
    assert_eq!((second.request_id, second.opcode), (1, Opcode::Error));
    let err = ErrorReply::decode(&second.payload).expect("error reply");
    assert_eq!(err.code, ErrorCode::Cancelled, "{}", err.message);
    stop(&server, handle);
}

/// Queries pipelined on one connection reply in request order, each
/// with the local session's answer — a slow first query included.
#[test]
fn pipelined_queries_reply_in_request_order() {
    let (server, addr, handle) = start(ServerConfig::default());
    let mut queries = vec![LONG_QUERY.to_string()];
    queries.extend((1..6).map(|k| {
        format!(
            r#"SELECT w WHERE {{ CONNECT("n{k}", "n{}" -> w) MAX 3 }}"#,
            60 - k
        )
    }));
    let g = graph();
    let session = Session::from_shared(Arc::clone(&g));
    let expected: Vec<(u64, String)> = queries
        .iter()
        .map(|q| {
            let r = session.run(q).expect("local run");
            (r.rows() as u64, r.render(&g))
        })
        .collect();

    let mut stream = raw_connect(addr);
    for (id, q) in (1u64..).zip(&queries) {
        send_raw(&mut stream, id, Opcode::Query, query_payload(q));
    }
    for (id, (rows, text)) in (1u64..).zip(&expected) {
        let frame = read_frame(&mut stream).expect("reply frame");
        assert_eq!((frame.request_id, frame.opcode), (id, Opcode::Reply));
        let reply = QueryReply::decode(&frame.payload).expect("query reply");
        assert_eq!((&reply.rows, &reply.text), (rows, text), "query {id}");
    }
    stop(&server, handle);
}

/// A disconnect while one of the connection's jobs runs and another
/// waits behind it raises both cancel flags, and the server still stops
/// promptly.
#[test]
fn disconnect_cancels_running_and_waiting_jobs() {
    let (server, addr, handle) = start(ServerConfig::default());
    let header = RequestHeader::default();
    let mut client = Client::connect(addr).expect("connect");
    client.send_query(SLOW_QUERY, &header).expect("send 1");
    client.send_query(SLOW_QUERY, &header).expect("send 2");
    let mut probe = Client::connect(addr).expect("connect probe");
    let wait_for = |probe: &mut Client, want: &str| {
        let since = Instant::now();
        loop {
            let stats = probe.stats().expect("stats");
            if stats.contains(want) {
                return;
            }
            assert!(
                since.elapsed() < Duration::from_secs(10),
                "never saw {want:?}: {stats}"
            );
            std::thread::yield_now();
        }
    };
    wait_for(&mut probe, "scheduler: 1 queued, 1 inflight");
    drop(client);
    wait_for(&mut probe, "0 ok, 0 failed, 2 cancelled");
    drop(probe);

    let t = Instant::now();
    stop(&server, handle);
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "stop took {:?}",
        t.elapsed()
    );
}
