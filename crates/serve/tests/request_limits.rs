//! Hostile input: a request line past the server's cap is refused and its
//! connection closed, and a spec asking for more physics threads than the
//! server allows is refused at `submit` — neither harms the server.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use sinr_core::sim::{ProtocolSpec, ScenarioSpec, TopologySpec};
use sinr_serve::{request_shutdown, Client, Server, MAX_PHYSICS_THREADS, MAX_REQUEST_BYTES};

#[test]
fn over_long_line_gets_error_then_close_and_the_server_survives() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));

    // The line's newline lands one byte past the cap. Read on another
    // thread with a bounded wait: a server that kept the connection open
    // must fail the test, not hang it.
    let (events_tx, events_rx) = mpsc::channel();
    thread::spawn(move || {
        let mut hostile = Client::connect(addr).expect("connect");
        hostile
            .send_line(&"x".repeat(MAX_REQUEST_BYTES as usize))
            .expect("send");
        let mut kinds = Vec::new();
        while let Some(event) = hostile.next_event().expect("read") {
            kinds.push(event.kind);
        }
        let _ = events_tx.send(kinds);
    });
    let kinds = events_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the server must close the connection after an over-long line");
    assert_eq!(kinds, ["error"]);

    // A line of exactly the cap is read whole (and is an ordinary
    // parse error, not a closed connection).
    let mut client = Client::connect(addr).expect("connect");
    client
        .send_line(&"y".repeat(MAX_REQUEST_BYTES as usize - 1))
        .expect("send");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "error");
    client.send_line("{\"op\":\"ping\"}").expect("ping");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "pong", "a line at the cap keeps the connection");

    // A new connection is served normally.
    let mut fresh = Client::connect(addr).expect("connect");
    fresh.send_line("{\"op\":\"ping\"}").expect("ping");
    let event = fresh.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "pong");

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn physics_threads_above_the_cap_are_refused_at_submit() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));

    let mut spec = ScenarioSpec::new(
        TopologySpec::UniformSquare { n: 20, side: 2.0 },
        ProtocolSpec::SBroadcast { source: 0 },
    );
    spec.budget = Some(20);
    let mut client = Client::connect(addr).expect("connect");
    // One past the cap, and a count whose shard scratch alone would not
    // fit in memory.
    for threads in [MAX_PHYSICS_THREADS + 1, 4_000_000_000] {
        spec.physics_threads = threads;
        client.submit(&spec, &[1], false).expect("submit");
        let event = client.next_event().expect("read").expect("event");
        assert_eq!(
            event.kind, "error",
            "physics_threads {threads} was accepted"
        );
    }
    client.send_line("{\"op\":\"ping\"}").expect("ping");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "pong", "the server survives a refused submit");

    // The cap itself is allowed.
    spec.physics_threads = MAX_PHYSICS_THREADS;
    client.submit(&spec, &[1], false).expect("submit");
    let job = client.expect_accepted().expect("accepted at the cap");
    let result = client.collect_job(job).expect("collect");
    assert_eq!(result.reports.len(), 1);

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}
