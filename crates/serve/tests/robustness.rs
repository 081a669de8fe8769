//! Protocol robustness: hostile or broken clients get structured
//! errors (or a clean drop) and never wedge a worker.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mia_serve::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use mia_serve::protocol::{kind, Reply, Request, PROTOCOL_VERSION};
use mia_serve::testkit::{ServeHandle, ToyEngine};
use mia_serve::{ClientError, ServeConfig};

fn raw_connect(handle: &ServeHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    stream
}

fn send_raw(stream: &mut TcpStream, payload: &[u8]) -> Reply {
    write_frame(stream, payload).expect("send frame");
    let reply = read_frame(stream, MAX_FRAME_LEN)
        .expect("read reply")
        .expect("server replied");
    serde_json::from_str(&String::from_utf8(reply).expect("utf8 reply")).expect("reply parses")
}

fn error_kind(reply: &Reply) -> &str {
    &reply.error.as_ref().expect("error reply").kind
}

#[test]
fn malformed_json_gets_a_parse_error_and_the_connection_survives() {
    let handle = ServeHandle::spawn_default(Arc::new(ToyEngine::instant()));
    let mut stream = raw_connect(&handle);

    // Truncated JSON document (framing intact).
    let reply = send_raw(&mut stream, b"{\"id\": 3, \"meth");
    assert_eq!(error_kind(&reply), kind::PARSE);
    assert_eq!(reply.id, 0, "no id is recoverable from broken JSON");
    assert_eq!(reply.version, PROTOCOL_VERSION);

    // Valid JSON, wrong shape.
    let reply = send_raw(&mut stream, b"[1, 2, 3]");
    assert_eq!(error_kind(&reply), kind::PARSE);

    // Not UTF-8 at all.
    let reply = send_raw(&mut stream, &[0xFF, 0xFE, 0x00, 0x80]);
    assert_eq!(error_kind(&reply), kind::PARSE);

    // The same connection still serves real requests afterwards.
    let request = serde_json::to_string(&Request::new(9, "ping")).unwrap();
    let reply = send_raw(&mut stream, request.as_bytes());
    assert_eq!(reply.id, 9);
    assert_eq!(reply.ok.expect("pong").output, "pong");
}

#[test]
fn oversized_length_prefix_is_answered_then_dropped() {
    let handle = ServeHandle::spawn_default(Arc::new(ToyEngine::instant()));
    let mut stream = raw_connect(&handle);

    // A hand-written prefix claiming 1 GiB; no payload follows.
    let giant = (1u32 << 30).to_be_bytes();
    stream.write_all(&giant).expect("send prefix");
    stream.flush().expect("flush");
    let reply = read_frame(&mut stream, MAX_FRAME_LEN)
        .expect("read reply")
        .expect("server answers before dropping");
    let reply: Reply =
        serde_json::from_str(&String::from_utf8(reply).expect("utf8")).expect("parses");
    assert_eq!(error_kind(&reply), kind::PARSE);
    assert!(
        reply.error.unwrap().message.contains("exceeds"),
        "message names the limit"
    );
    // The stream cannot be resynchronized, so the server closes it.
    let eof = read_frame(&mut stream, MAX_FRAME_LEN).expect("clean close");
    assert!(eof.is_none(), "connection dropped after an oversized frame");
}

#[test]
fn unknown_method_and_unknown_handle_are_structured_errors() {
    let handle = ServeHandle::spawn_default(Arc::new(ToyEngine::instant()));
    let mut client = handle.client();

    let err = client
        .request(Request::new(0, "frobnicate"))
        .expect_err("unknown method");
    match err {
        ClientError::Server { kind: k, message } => {
            assert_eq!(k, kind::UNKNOWN_METHOD);
            assert!(
                message.contains("analyze"),
                "lists served methods: {message}"
            );
        }
        other => panic!("expected server error, got {other}"),
    }

    let err = client
        .run_resident("analyze", 777, &[])
        .expect_err("unknown handle");
    match err {
        ClientError::Server { kind: k, .. } => assert_eq!(k, kind::UNKNOWN_HANDLE),
        other => panic!("expected server error, got {other}"),
    }
}

#[test]
fn engine_failures_map_to_their_error_kinds() {
    let handle = ServeHandle::spawn_default(Arc::new(ToyEngine::instant()));
    let mut client = handle.client();

    // A load the engine refuses.
    let err = client.load("bad", &[]).expect_err("refused load");
    match err {
        ClientError::Server { kind: k, .. } => assert_eq!(k, kind::USAGE),
        other => panic!("expected server error, got {other}"),
    }

    // A method that fails mid-run.
    let err = client
        .run("fail", "anything", &[])
        .expect_err("failing method");
    match err {
        ClientError::Server { kind: k, .. } => assert_eq!(k, kind::ANALYSIS),
        other => panic!("expected server error, got {other}"),
    }

    // A load-class method without a workload.
    let err = client
        .request(Request::new(0, "load"))
        .expect_err("load without workload");
    match err {
        ClientError::Server { kind: k, .. } => assert_eq!(k, kind::USAGE),
        other => panic!("expected server error, got {other}"),
    }
}

/// A served `load` of an empty family problem is a usage error, not a
/// panic in the daemon's only worker: the same daemon keeps answering.
#[test]
fn empty_family_load_is_a_usage_error_and_the_daemon_survives() {
    let handle = ServeHandle::spawn(
        Arc::new(mia_cli::CliEngine),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut client = handle.client();
    let args = ["-n".to_owned(), "0".to_owned()];
    match client.load("LS4", &args).expect_err("empty problem") {
        ClientError::Server { kind: k, .. } => assert_eq!(k, kind::USAGE),
        other => panic!("expected server error, got {other}"),
    }
    assert_eq!(client.ping().expect("daemon alive"), "pong");
    let reply = client
        .run("analyze", "rosace", &[])
        .expect("analyze rosace");
    assert!(reply.output.contains("makespan"), "{}", reply.output);
}

#[test]
fn version_mismatch_is_rejected_before_any_work() {
    let handle = ServeHandle::spawn_default(Arc::new(ToyEngine::instant()));
    let mut stream = raw_connect(&handle);

    // A request from "the future" (and one with no version at all,
    // which defaults to 0): both rejected with the version kind.
    for bad_version in [PROTOCOL_VERSION + 1, 0] {
        let mut request = Request::new(4, "ping");
        request.version = bad_version;
        let payload = serde_json::to_string(&request).unwrap();
        let reply = send_raw(&mut stream, payload.as_bytes());
        assert_eq!(error_kind(&reply), kind::VERSION);
        assert_eq!(reply.id, 4, "the id is still echoed");
        assert_eq!(
            reply.version, PROTOCOL_VERSION,
            "replies pin the server version"
        );
    }
    // Version-less JSON (missing field) behaves like version 0.
    let reply = send_raw(&mut stream, br#"{"id": 5, "method": "ping"}"#);
    assert_eq!(error_kind(&reply), kind::VERSION);

    // The stats counters saw no admitted work.
    assert_eq!(handle.stats().replies_ok, 0);
}

#[test]
fn mid_request_disconnect_does_not_wedge_the_worker_pool() {
    // One worker, a slow engine: the disconnecting client's request
    // holds the only worker, then vanishes. The worker must swallow the
    // failed reply write and serve the next client normally.
    let engine = Arc::new(ToyEngine::with_delay(Duration::from_millis(150)));
    let handle = ServeHandle::spawn(
        engine,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );

    {
        let mut stream = raw_connect(&handle);
        let request = serde_json::to_string(&Request::new(1, "analyze").workload("w")).unwrap();
        write_frame(&mut stream, request.as_bytes()).expect("send");
        // Drop the connection while the request is in flight.
    }

    let mut client = handle.client();
    let body = client.run("analyze", "other", &[]).expect("pool alive");
    assert_eq!(body.output, "analyze other\n");
    let stats = handle.shutdown();
    assert!(stats.requests >= 2);
}

#[test]
fn shutdown_via_client_stops_the_daemon_and_reports_final_stats() {
    let handle = ServeHandle::spawn_default(Arc::new(ToyEngine::instant()));
    let mut client = handle.client();
    assert_eq!(client.ping().expect("ping"), "pong");
    let ack = client.shutdown().expect("shutdown acknowledged");
    assert!(ack.contains("shutting down"), "{ack}");
    // The daemon refuses new connections once stopped; shutting the
    // handle down joins every thread without hanging.
    let stats = handle.shutdown();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.replies_ok, 2);
}
