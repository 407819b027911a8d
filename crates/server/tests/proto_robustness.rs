//! Robustness tests for the csq/1 wire protocol: no byte sequence —
//! fuzzed, truncated, oversized, or cut off mid-frame — may panic the
//! codec, crash the server, or poison other connections.

use cs_server::proto::{
    read_frame, write_frame, BatchRequest, ErrorCode, ErrorReply, Frame, Opcode, QueryReply,
    QueryRequest, RequestHeader, MAGIC,
};
use cs_server::{Client, ClientError, Server, ServerConfig};
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Codec-level fuzzing: decoders are total functions over arbitrary bytes.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `read_frame` over arbitrary bytes returns an error or a valid
    /// frame — it never panics and never reads past the input.
    #[test]
    fn read_frame_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut cursor = &bytes[..];
        let _ = read_frame(&mut cursor);
    }

    /// Every payload decoder is total over arbitrary bytes.
    #[test]
    fn payload_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = QueryRequest::decode(&bytes);
        let _ = BatchRequest::decode(&bytes);
        let _ = QueryReply::decode(&bytes);
        let _ = ErrorReply::decode(&bytes);
    }

    /// A well-formed frame round-trips exactly through write/read.
    #[test]
    fn frame_roundtrip(
        request_id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let frame = Frame { request_id, opcode: Opcode::Query, payload };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let decoded = read_frame(&mut &wire[..]).unwrap();
        prop_assert_eq!(decoded.request_id, frame.request_id);
        prop_assert_eq!(decoded.opcode, frame.opcode);
        prop_assert_eq!(decoded.payload, frame.payload);
    }

    /// A query request round-trips through encode/decode, including
    /// non-ASCII tenant names (any valid UTF-8 is legal on the wire).
    #[test]
    fn query_request_roundtrip(
        tenant_bytes in proptest::collection::vec(any::<u8>(), 0..24),
        deadline_ms in any::<u32>(),
        text_bytes in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let req = QueryRequest {
            header: RequestHeader {
                tenant: String::from_utf8_lossy(&tenant_bytes).into_owned(),
                deadline_ms,
            },
            text: String::from_utf8_lossy(&text_bytes).into_owned(),
        };
        let decoded = QueryRequest::decode(&req.encode()).unwrap();
        prop_assert_eq!(decoded, req);
    }

    /// A truncated frame decodes to an error, never a bogus frame: for
    /// every proper prefix of a valid frame, `read_frame` fails.
    #[test]
    fn every_frame_prefix_fails_cleanly(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut_fraction in 0.0f64..1.0,
    ) {
        let frame = Frame { request_id: 7, opcode: Opcode::Batch, payload };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let cut = ((wire.len() as f64) * cut_fraction) as usize;
        let cut = cut.min(wire.len().saturating_sub(1));
        prop_assert!(read_frame(&mut &wire[..cut]).is_err());
    }
}

// ---------------------------------------------------------------------------
// Server-level abuse: a live server fed malformed traffic keeps
// serving well-behaved connections.
// ---------------------------------------------------------------------------

fn start_server() -> (Arc<Server>, SocketAddr, std::thread::JoinHandle<()>) {
    let graph = Arc::new(cs_graph::figure1());
    let server =
        Arc::new(Server::bind("127.0.0.1:0", graph, ServerConfig::default()).expect("bind"));
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

fn stop_server(server: &Server, handle: std::thread::JoinHandle<()>) {
    server.request_shutdown();
    handle.join().expect("serve loop joins");
}

/// One healthy query over a fresh connection — the post-abuse probe.
fn assert_healthy(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("fresh connection");
    let reply = client
        .query(
            r#"SELECT x WHERE { (x : type = "entrepreneur", "citizenOf", "USA") }"#,
            &RequestHeader::default(),
        )
        .expect("healthy query");
    assert!(reply.rows > 0);
}

#[test]
fn garbage_bytes_do_not_take_down_the_server() {
    let (server, addr, handle) = start_server();
    // Bad magic: the server answers a Protocol error frame and closes.
    let mut bad = TcpStream::connect(addr).expect("connect");
    bad.write_all(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n")
        .expect("write garbage");
    bad.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let frame = read_frame(&mut bad).expect("protocol error frame");
    assert_eq!(frame.opcode, Opcode::Error);
    let err = ErrorReply::decode(&frame.payload).expect("decode error reply");
    assert_eq!(err.code, ErrorCode::Protocol);
    drop(bad);
    assert_healthy(addr);
    stop_server(&server, handle);
}

#[test]
fn oversized_length_prefix_is_rejected_not_allocated() {
    let (server, addr, handle) = start_server();
    let mut bad = TcpStream::connect(addr).expect("connect");
    // Valid magic, then a length far past MAX_FRAME_LEN: must be
    // rejected up front, not buffered to exhaustion.
    let mut wire = Vec::new();
    wire.extend_from_slice(&MAGIC.to_le_bytes());
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    bad.write_all(&wire).expect("write oversized header");
    bad.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let frame = read_frame(&mut bad).expect("protocol error frame");
    assert_eq!(frame.opcode, Opcode::Error);
    let err = ErrorReply::decode(&frame.payload).expect("decode error reply");
    assert_eq!(err.code, ErrorCode::Protocol);
    drop(bad);
    assert_healthy(addr);
    stop_server(&server, handle);
}

#[test]
fn mid_frame_disconnect_does_not_poison_other_connections() {
    let (server, addr, handle) = start_server();
    // A client that was mid-query when it vanished must not stall a
    // reader thread or hurt its neighbours.
    #[expect(
        clippy::disallowed_methods,
        reason = "a healthy client runs beside the vanishing one"
    )]
    let healthy_before = std::thread::spawn(move || assert_healthy(addr));
    {
        let mut flaky = TcpStream::connect(addr).expect("connect");
        let frame = Frame {
            request_id: 1,
            opcode: Opcode::Query,
            payload: vec![0u8; 64],
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("encode");
        // Send the header plus half the body, then hang up.
        flaky
            .write_all(&wire[..wire.len() / 2])
            .expect("partial write");
    } // flaky drops here, mid-frame
    healthy_before.join().expect("concurrent healthy client");
    assert_healthy(addr);
    stop_server(&server, handle);
}

#[test]
fn malformed_payload_keeps_the_connection_alive() {
    let (server, addr, handle) = start_server();
    // A structurally valid frame whose payload fails to decode is a
    // per-request Protocol error — the connection itself survives.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let frame = Frame {
        request_id: 42,
        opcode: Opcode::Query,
        // Truncated: claims an 8-byte tenant string, supplies none.
        payload: vec![0, 0, 0, 0, 8, 0, 0, 0],
    };
    write_frame(&mut stream, &frame).expect("write");
    let reply = read_frame(&mut stream).expect("error frame");
    assert_eq!(reply.opcode, Opcode::Error);
    assert_eq!(reply.request_id, 42);
    let err = ErrorReply::decode(&reply.payload).expect("decode");
    assert_eq!(err.code, ErrorCode::Protocol);
    // Same socket, now a well-formed query.
    let good = QueryRequest {
        header: RequestHeader::default(),
        text: r#"SELECT x WHERE { (x : type = "entrepreneur", "citizenOf", "USA") }"#.into(),
    };
    let frame = Frame {
        request_id: 43,
        opcode: Opcode::Query,
        payload: good.encode(),
    };
    write_frame(&mut stream, &frame).expect("write good");
    let reply = read_frame(&mut stream).expect("reply frame");
    assert_eq!(reply.opcode, Opcode::Reply);
    assert_eq!(reply.request_id, 43);
    let decoded = QueryReply::decode(&reply.payload).expect("decode reply");
    assert!(decoded.rows > 0);
    stop_server(&server, handle);
}

#[test]
fn client_sent_response_opcode_is_a_protocol_error() {
    let (server, addr, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let frame = Frame {
        request_id: 9,
        opcode: Opcode::Reply,
        payload: Vec::new(),
    };
    write_frame(&mut stream, &frame).expect("write");
    let reply = read_frame(&mut stream).expect("error frame");
    assert_eq!(reply.opcode, Opcode::Error);
    let err = ErrorReply::decode(&reply.payload).expect("decode");
    assert_eq!(err.code, ErrorCode::Protocol);
    assert_healthy(addr);
    stop_server(&server, handle);
}

/// `ClientError` surfaces transport failures distinctly from server
/// error frames (csq relies on this to classify bench-serve outcomes).
#[test]
fn client_error_classification() {
    let (server, addr, handle) = start_server();
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .query("THIS IS NOT EQL", &RequestHeader::default())
        .expect_err("parse error");
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Query),
        other => panic!("want server error, got {other}"),
    }
    stop_server(&server, handle);
}
