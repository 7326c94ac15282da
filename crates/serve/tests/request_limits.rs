//! Hostile input at the line layer: a request line past the server's cap
//! is refused and its connection closed, without harming other clients.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use sinr_serve::{request_shutdown, Client, Server, MAX_REQUEST_BYTES};

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
