//! A connection the client has closed gives back its server threads and
//! sockets while the server keeps running.
//!
//! This file holds exactly one test: it counts the whole process's
//! threads and open file descriptors, so no other test may run in this
//! binary (integration-test binaries are separate processes).

#![cfg(target_os = "linux")]

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use sinr_serve::{request_shutdown, Client, Server};

/// This process's thread count, from the `Threads:` line of
/// `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

/// This process's open file descriptors.
fn fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

fn ping(client: &mut Client) {
    client.send_line("{\"op\":\"ping\"}").expect("ping");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "pong");
}

fn connect_and_ping(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    ping(&mut client);
    client
}

// The bounded wait below reads the clock and sleeps; neither reaches a
// report, so the workspace-wide clock rule of clippy.toml is allowed here.
#[allow(clippy::disallowed_methods)]
#[test]
fn closed_connections_release_their_threads_and_sockets() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));

    // The baseline is taken with one connection open and answered, so
    // the server's accept loop and worker are already running.
    let first = connect_and_ping(addr);
    let (threads_open, fds_open) = (threads(), fds());
    drop(first);
    for _ in 0..49 {
        drop(connect_and_ping(addr));
    }

    // Every connection is closed now, the first one included, so the
    // counts must fall to at most the one-open-connection baseline.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (now_threads, now_fds) = (threads(), fds());
        if now_threads <= threads_open && now_fds <= fds_open {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "50 closed connections still hold server resources after 10 s: \
             {now_threads} threads and {now_fds} fds, against {threads_open} and \
             {fds_open} with one connection open"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // The server still serves after releasing them.
    let mut client = connect_and_ping(addr);
    ping(&mut client);
    drop(client);
    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}
