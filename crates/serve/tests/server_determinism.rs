//! The server-side determinism contract: reports read off the socket
//! are byte-identical to in-process runs, for any number of concurrent
//! clients and subscribers.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use sinr_core::sim::{ProtocolSpec, ScenarioSpec, TopologySpec};
use sinr_phy::InterferenceMode;
use sinr_serve::{reference_report, request_shutdown, Client, Server};
use sinr_wire::Value;

fn test_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        TopologySpec::UniformSquare { n: 30, side: 2.0 },
        ProtocolSpec::ReFloodBroadcast {
            source: 0,
            p: 0.25,
            burst_rounds: 24,
        },
    );
    spec.budget = Some(300);
    spec.record = true;
    spec
}

#[test]
fn concurrent_clients_get_byte_identical_reports() {
    let server = Server::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));

    let spec = test_spec();
    let seeds: [u64; 2] = [11, 2014];
    let reference: Vec<String> = seeds
        .iter()
        .map(|&s| reference_report(&spec, s).expect("in-process run"))
        .collect();

    // Three clients submit the same spec concurrently; trials from all
    // three jobs interleave on the two shared arena-reusing workers.
    thread::scope(|scope| {
        for client_idx in 0..3 {
            let spec = &spec;
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Every other client declines round streaming: report-only
                // subscribers must see identical bytes too.
                let stream = client_idx % 2 == 0;
                client.submit(spec, &seeds, stream).expect("submit");
                let job = client.expect_accepted().expect("accepted");
                let result = client.collect_job(job).expect("collect");
                assert_eq!(result.reports.len(), seeds.len());
                for (i, &seed) in seeds.iter().enumerate() {
                    assert_eq!(
                        result.report_for(seed).expect("report for seed"),
                        reference[i],
                        "client {client_idx}: server bytes differ from in-process run"
                    );
                }
                if !stream {
                    assert_eq!(result.rounds_seen, 0, "report-only client saw rounds");
                }
            });
        }
    });

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn accepted_precedes_every_round_of_its_job() {
    // One worker and a job of a few milliseconds: its first rounds are
    // emitted while its `accepted` may still be queued, so an ordering
    // bug shows within a few of these submits.
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));
    let mut client = Client::connect(addr).expect("connect");
    let spec = test_spec();
    let mut rounds = 0u64;
    for seed in 1..=60u64 {
        client.submit(&spec, &[seed], true).expect("submit");
        let mut job = None;
        loop {
            let event = client.next_event().expect("read").expect("event");
            let event_job = event.body.get("job").and_then(Value::as_u64);
            match event.kind.as_str() {
                "accepted" => job = event_job,
                "round" => {
                    assert!(
                        job.is_some() && event_job == job,
                        "submit {seed}: round of job {event_job:?} before its accepted"
                    );
                    rounds += 1;
                }
                "report" => assert_eq!(event_job, job, "submit {seed}: stray report"),
                "done" => {
                    assert_eq!(event_job, job, "submit {seed}: stray done");
                    break;
                }
                other => panic!("submit {seed}: unexpected `{other}` event"),
            }
        }
    }
    assert!(rounds > 0, "no round events streamed at all");

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn attached_subscriber_sees_the_same_reports() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));

    let spec = test_spec();
    let seeds: [u64; 3] = [1, 2, 3];

    let mut submitter = Client::connect(addr).expect("connect submitter");
    submitter.submit(&spec, &seeds, true).expect("submit");
    let job = submitter.expect_accepted().expect("accepted");

    // Second subscriber on the same job from a separate connection —
    // whether it attaches mid-run or after completion, it must end up
    // with the same report bytes (late attaches replay from the log).
    let mut watcher = Client::connect(addr).expect("connect watcher");
    watcher.attach(job).expect("attach");
    watcher.expect_accepted().expect("attach accepted");

    let submitted = submitter.collect_job(job).expect("submitter collect");
    let watched = watcher.collect_job(job).expect("watcher collect");

    assert_eq!(submitted.reports.len(), seeds.len());
    assert_eq!(watched.reports.len(), seeds.len());
    for &seed in &seeds {
        let a = submitted.report_for(seed).expect("submitter report");
        let b = watched.report_for(seed).expect("watcher report");
        assert_eq!(a, b, "subscribers disagree on seed {seed}");
        let reference = reference_report(&spec, seed).expect("in-process run");
        assert_eq!(a, reference, "server bytes differ from in-process run");
    }

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn bad_submissions_fail_fast_with_error_events() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(addr).expect("connect");

    // Malformed line → error event, connection stays usable.
    client.send_line("this is not json").expect("send");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "error");

    // Spec that fails validation (no budget for a budgeted protocol).
    let spec = ScenarioSpec::new(
        TopologySpec::UniformSquare { n: 10, side: 1.5 },
        ProtocolSpec::FloodBroadcast { source: 0, p: 0.5 },
    );
    client.submit(&spec, &[1], false).expect("submit");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(
        event.kind, "error",
        "invalid spec must be rejected at submit"
    );

    // An interference mode the network would reject: caught by build()
    // at submit, not by a panicking worker.
    let mut spec = test_spec();
    spec.mode = InterferenceMode::GridNative { near_radius: 1.5 };
    client.submit(&spec, &[1], false).expect("submit");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "error", "near_radius 1.5 must be rejected");

    // And the connection still works afterwards.
    client.send_line("{\"op\":\"ping\"}").expect("ping");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "pong");

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn panicking_trial_yields_error_then_done_and_the_worker_survives() {
    // One worker: if the panic killed it, the valid job below would be
    // accepted and never run.
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));
    let mut client = Client::connect(addr).expect("connect");

    // Passes build(), then panics in the uniform generator's assert.
    let mut bad = test_spec();
    bad.topology = TopologySpec::UniformSquare { n: 30, side: -2.0 };
    client.submit(&bad, &[5], false).expect("submit");
    let job = client.expect_accepted().expect("accepted");
    // Read on another thread with a bounded wait: if the panic took the
    // worker down, `done` never comes and the test must fail, not hang.
    let (kinds_tx, kinds_rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut kinds = Vec::new();
        while let Some(event) = client.next_event().expect("read") {
            if event.body.get("job").and_then(Value::as_u64) == Some(job) || event.kind == "error" {
                kinds.push(event.kind.clone());
            }
            if event.kind == "done" {
                break;
            }
        }
        let _ = kinds_tx.send(kinds);
        client
    });
    let kinds = kinds_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("no `done` within 60 s: the panicking trial took its worker down");
    assert_eq!(kinds, ["error", "done"], "panicking trial");
    let mut client = reader.join().expect("reader thread");

    let spec = test_spec();
    client.submit(&spec, &[11], false).expect("submit");
    let job = client.expect_accepted().expect("accepted");
    let result = client.collect_job(job).expect("collect");
    assert_eq!(
        result.report_for(11).expect("report"),
        reference_report(&spec, 11).expect("in-process run"),
        "the surviving worker's report differs from an in-process run"
    );

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}
