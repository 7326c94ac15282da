//! Request latency and job retention: a round trip costs no TCP timer,
//! a job's streamed rounds all arrive in order though the writer batches
//! them, `accepted.trials` is the job's trial count whenever a client
//! attaches, and the server forgets all but the last [`RETAINED_JOBS`]
//! finished jobs.

use std::thread;
use std::time::{Duration, Instant};

use sinr_core::sim::{decode_run_report, ProtocolSpec, ScenarioSpec, TopologySpec};
use sinr_serve::{reference_report, request_shutdown, Client, Server, RETAINED_JOBS};
use sinr_wire::Value;

fn small_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        TopologySpec::UniformSquare { n: 20, side: 2.0 },
        ProtocolSpec::SBroadcast { source: 0 },
    );
    spec.budget = Some(40);
    spec
}

/// The `job` and `trials` of the `accepted` event that answers the last
/// request.
fn accepted(client: &mut Client) -> (u64, u64) {
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "accepted", "{:?}", event.body);
    let field = |key| event.body.get(key).and_then(Value::as_u64);
    (
        field("job").expect("accepted carries job"),
        field("trials").expect("accepted carries trials"),
    )
}

// The wall-clock bound below is the point of the test; it reaches no
// report, so the workspace-wide clock rule of clippy.toml is allowed here.
#[allow(clippy::disallowed_methods)]
#[test]
fn fifty_sequential_pings_take_no_tcp_timer() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));
    let mut client = Client::connect(addr).expect("connect");

    // A round trip that waits on a delayed ACK costs about 40 ms, so 50 of
    // them would take about 2 s.
    let start = Instant::now();
    for _ in 0..50 {
        client.send_line("{\"op\":\"ping\"}").expect("ping");
        let event = client.next_event().expect("read").expect("event");
        assert_eq!(event.kind, "pong");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 ping round trips took {elapsed:?}"
    );

    drop(client);
    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

/// The writer holds rounds for a short linger and sends them in batches;
/// every round of a streamed job still arrives, once and in order,
/// between `accepted` and `report`, and none is dropped.
#[test]
fn batched_rounds_all_arrive_in_order() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));
    let mut spec = ScenarioSpec::new(
        TopologySpec::ConnectedSquareDensity {
            n: 200,
            density: 30.0,
        },
        ProtocolSpec::SBroadcast { source: 0 },
    );
    spec.budget = Some(1_000_000);
    let seed = 3;

    let mut client = Client::connect(addr).expect("connect");
    client.submit(&spec, &[seed], true).expect("submit");
    let (job, _) = accepted(&mut client);
    let mut rounds = Vec::new();
    let report = loop {
        let event = client.next_event().expect("read").expect("event");
        assert_eq!(event.body.get("job").and_then(Value::as_u64), Some(job));
        match event.kind.as_str() {
            "round" => rounds.push(event.body.get("round").and_then(Value::as_u64)),
            "report" => break event.body.get("report").expect("report body").encode(),
            other => panic!("unexpected {other} event before the report"),
        }
    };
    let done = client.next_event().expect("read").expect("event");
    assert_eq!(done.kind, "done");
    assert_eq!(
        done.body.get("dropped_rounds").and_then(Value::as_u64),
        Some(0)
    );

    assert_eq!(
        report,
        reference_report(&spec, seed).expect("in-process run")
    );
    let ran = decode_run_report(&report).expect("report decodes").rounds;
    assert!(ran > 2 * 64, "{ran} rounds are too few to fill a batch");
    let expected: Vec<_> = (0..ran).map(Some).collect();
    assert_eq!(rounds, expected);

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn a_late_attach_reads_the_submitted_trial_count() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));
    let spec = small_spec();
    let seeds: [u64; 3] = [4, 5, 6];

    let mut client = Client::connect(addr).expect("connect");
    client.submit(&spec, &seeds, false).expect("submit");
    let (job, trials) = accepted(&mut client);
    assert_eq!(trials, seeds.len() as u64);
    client.collect_job(job).expect("collect");

    // Every trial has finished, so none remains; `trials` still counts
    // them, and the replay delivers that many reports.
    client.attach(job).expect("attach");
    assert_eq!(accepted(&mut client), (job, seeds.len() as u64));
    let replay = client.collect_job(job).expect("replay");
    assert_eq!(replay.reports.len(), seeds.len());
    for seed in seeds {
        assert_eq!(
            replay.report_for(seed).expect("report"),
            reference_report(&spec, seed).expect("in-process run")
        );
    }

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn only_the_last_retained_jobs_can_be_attached() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));
    let spec = small_spec();

    let mut client = Client::connect(addr).expect("connect");
    let mut jobs = Vec::new();
    for seed in 0..(RETAINED_JOBS + 2) as u64 {
        client.submit(&spec, &[seed], false).expect("submit");
        let job = client.expect_accepted().expect("accepted");
        client.collect_job(job).expect("collect");
        jobs.push(job);
    }
    let (first, last) = (jobs[0], jobs[jobs.len() - 1]);

    // The first job finished `RETAINED_JOBS + 1` jobs ago: forgotten.
    client.attach(first).expect("attach");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "error", "job {first} is still attachable");
    let message = event.body.get("message").and_then(Value::as_str);
    assert_eq!(message, Some(format!("no such job {first}").as_str()));

    // The last one is retained, with its report.
    client.attach(last).expect("attach");
    assert_eq!(accepted(&mut client), (last, 1));
    let replay = client.collect_job(last).expect("replay");
    let seed = (RETAINED_JOBS + 1) as u64;
    assert_eq!(
        replay.report_for(seed).expect("report"),
        reference_report(&spec, seed).expect("in-process run")
    );

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}
