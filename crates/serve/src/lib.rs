//! `sinr-serve`: a persistent simulation server over plain TCP.
//!
//! The server holds a pool of worker threads, each owning a persistent
//! [`EngineArena`] so consecutive trials reuse the reception oracle,
//! kernel pool, round-outcome and graph-scratch allocations across
//! *jobs*, not just within one sweep. Clients speak a line-delimited
//! protocol of canonical-JSON objects (grammar in
//! [`sinr_core::sim`]'s "Simulation as a service" section): `submit` a
//! [`ScenarioSpec`] plus seeds, get one trial per seed scheduled on the
//! shared pool, and receive `round` events live plus one `report` event
//! per finished trial.
//!
//! # Backpressure
//!
//! Round events reach each subscriber through a bounded lossy
//! [`RoundSink`] channel: a reader that falls behind loses round events
//! (counted, reported in its `done` event) but **never stalls the
//! engine** — and always still receives every `report`, which travels
//! on a separate unbounded control channel whose sends never block.
//!
//! # Failure isolation
//!
//! Specs are validated at `submit`, so a bad one is an `error` event for
//! the submitting client and never reaches a worker. A trial that still
//! fails — a scenario error, or a panic in a generator or the engine —
//! becomes an `error` event for its job; the job still ends with `done`,
//! and the worker carries on with a fresh arena.
//!
//! # Determinism
//!
//! A trial's report is a pure function of `(spec, seed)` — arena reuse,
//! worker count, subscriber count and drop patterns cannot perturb it.
//! The `report` event embeds the canonical
//! [`sinr_core::sim::wire`] bytes, so what a client reads off the
//! socket is byte-identical to [`encode_run_report`] of an in-process
//! run (`tests/server_determinism.rs` pins this with concurrent
//! clients).
//!
//! No wall-clock is read anywhere in this crate's library: scheduling
//! blocks on condition variables and channel receives with fixed tick
//! durations, keeping `sinr-lint`'s determinism rules trivially green.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use sinr_core::sim::wire::run_report_to_value;
use sinr_core::sim::{
    encode_run_report, EngineArena, Observer, RoundSink, ScenarioSpec, Simulation,
};
use sinr_geometry::Point2;
use sinr_runtime::RoundStats;
use sinr_wire::Value;

/// Round events buffered per subscriber before the lossy sink starts
/// dropping. Sized to absorb normal writer-thread scheduling jitter;
/// a genuinely slow reader degrades to report-only.
pub const ROUND_CHANNEL_CAPACITY: usize = 1024;

/// How often blocked writer loops re-check the shutdown flag.
const TICK: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------
// Protocol lines
// ---------------------------------------------------------------------

fn event_line(fields: Vec<(String, Value)>) -> String {
    let mut line = Value::Object(fields).encode();
    line.push('\n');
    line
}

fn error_line(message: &str) -> String {
    event_line(vec![
        ("event".into(), Value::str("error")),
        ("message".into(), Value::str(message)),
    ])
}

fn round_line(job: u64, seed: u64, stats: &RoundStats, informed: usize) -> String {
    event_line(vec![
        ("event".into(), Value::str("round")),
        ("job".into(), Value::UInt(job)),
        ("seed".into(), Value::UInt(seed)),
        ("round".into(), Value::UInt(stats.round)),
        (
            "transmitters".into(),
            Value::UInt(stats.transmitters as u64),
        ),
        ("receptions".into(), Value::UInt(stats.receptions as u64)),
        ("informed".into(), Value::UInt(informed as u64)),
    ])
}

fn done_line(job: u64, dropped: u64) -> String {
    event_line(vec![
        ("event".into(), Value::str("done")),
        ("job".into(), Value::UInt(job)),
        ("dropped_rounds".into(), Value::UInt(dropped)),
        ("degraded".into(), Value::Bool(dropped > 0)),
    ])
}

// ---------------------------------------------------------------------
// Subscribers and jobs
// ---------------------------------------------------------------------

/// One registration of a connection on a job: a lossy bounded round
/// channel plus a reliable unbounded control channel. Both receivers
/// are drained by the connection's writer thread.
struct Subscriber {
    stream_rounds: bool,
    round: Mutex<RoundSink<String>>,
    control: Sender<String>,
}

impl Subscriber {
    /// Lossy: a full channel or departed reader counts a drop.
    fn offer_round(&self, line: &str) {
        if self.stream_rounds {
            self.round.lock().unwrap().offer(line.to_string());
        }
    }

    /// Reliable and non-blocking (unbounded channel); a departed reader
    /// just discards.
    fn push_control(&self, line: String) {
        let _ = self.control.send(line);
    }

    fn dropped(&self) -> u64 {
        self.round.lock().unwrap().dropped()
    }
}

/// One submitted sweep: a spec, its outstanding trial count, the
/// subscribers to fan events out to, and the report lines already
/// produced (replayed to late `attach`ers).
struct Job {
    id: u64,
    spec: ScenarioSpec,
    remaining: AtomicUsize,
    subscribers: Mutex<Vec<Arc<Subscriber>>>,
    reports: Mutex<Vec<String>>,
}

impl Job {
    fn fan_round(&self, line: &str) {
        for sub in self.subscribers.lock().unwrap().iter() {
            sub.offer_round(line);
        }
    }

    fn fan_control(&self, line: &str) {
        for sub in self.subscribers.lock().unwrap().iter() {
            sub.push_control(line.to_string());
        }
    }

    fn push_report(&self, line: String) {
        // Record before fanning out, under the reports lock an attach
        // also takes: a racing subscriber either replays this report
        // from the log or receives it live, never both, never neither.
        let mut reports = self.reports.lock().unwrap();
        reports.push(line.clone());
        self.fan_control(&line);
        drop(reports);
    }

    /// Per-subscriber completion notice carrying that subscriber's own
    /// round-drop count.
    fn finish(&self) {
        for sub in self.subscribers.lock().unwrap().iter() {
            let dropped = sub.dropped();
            sub.push_control(done_line(self.id, dropped));
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) == 0
    }
}

/// A unit of work: one seed of one job.
struct Trial {
    job: Arc<Job>,
    seed: u64,
}

// ---------------------------------------------------------------------
// Shared server state
// ---------------------------------------------------------------------

struct Shared {
    /// The server's own bound address, for the shutdown self-connect.
    addr: SocketAddr,
    queue: Mutex<VecDeque<Trial>>,
    available: Condvar,
    shutdown: AtomicBool,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_job: AtomicU64,
    /// Clones of every live connection, shut down on server shutdown so
    /// blocked `read_line`s return EOF.
    conns: Mutex<Vec<TcpStream>>,
}

impl Shared {
    fn new(addr: SocketAddr) -> Self {
        Shared {
            addr,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
        for conn in self.conns.lock().unwrap().iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // Wake the accept loop. The connect happens strictly after the
        // flag store, so the accepted wake connection (or any racing
        // real one) observes is_shutdown() and breaks the loop.
        let _ = TcpStream::connect(self.addr);
    }

    fn enqueue(&self, job: &Arc<Job>, seeds: &[u64]) {
        let mut queue = self.queue.lock().unwrap();
        for &seed in seeds {
            queue.push_back(Trial {
                job: Arc::clone(job),
                seed,
            });
        }
        drop(queue);
        self.available.notify_all();
    }

    fn next_trial(&self) -> Option<Trial> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(trial) = queue.pop_front() {
                return Some(trial);
            }
            if self.is_shutdown() {
                return None;
            }
            queue = self.available.wait(queue).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// The engine-side observer: encodes each resolved round once and fans
/// it out through every subscriber's lossy sink.
struct FanoutObserver {
    job: Arc<Job>,
    seed: u64,
}

impl Observer for FanoutObserver {
    fn on_round(&mut self, stats: &RoundStats, informed: usize) {
        let line = round_line(self.job.id, self.seed, stats, informed);
        self.job.fan_round(&line);
    }

    fn finish(&mut self, _report: &mut sinr_core::sim::RunReport) {}
}

fn build_simulation(job: &Arc<Job>, seed: u64) -> Result<Simulation<Point2>, String> {
    let job_for_observer = Arc::clone(job);
    job.spec
        .to_scenario()
        .and_then(|scenario| {
            scenario
                .observe(move || {
                    Box::new(FanoutObserver {
                        job: Arc::clone(&job_for_observer),
                        seed,
                    }) as Box<dyn Observer>
                })
                .build()
        })
        .map_err(|e| e.to_string())
}

fn run_trial(trial: &Trial, arena: &mut EngineArena) {
    let job = &trial.job;
    let outcome = build_simulation(job, trial.seed).and_then(|sim| {
        sim.run_reusing(trial.seed, arena)
            .map_err(|e| e.to_string())
    });
    match outcome {
        Ok(report) => {
            let line = event_line(vec![
                ("event".into(), Value::str("report")),
                ("job".into(), Value::UInt(job.id)),
                ("seed".into(), Value::UInt(trial.seed)),
                ("report".into(), run_report_to_value(&report)),
            ]);
            job.push_report(line);
        }
        Err(message) => {
            job.fan_control(&error_line(&format!(
                "job {} seed {}: {message}",
                job.id, trial.seed
            )));
        }
    }
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// format string; anything else is reported generically).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn worker(shared: &Shared) {
    // The persistent arena: trials of *different* jobs landing on this
    // worker reuse the same oracle/pool/outcome/scratch allocations.
    let mut arena = EngineArena::new();
    while let Some(trial) = shared.next_trial() {
        // A panicking trial (a spec that passes `build()` but trips an
        // assert deeper down) becomes that trial's `error` event; the
        // worker survives with a fresh arena, and `remaining` still
        // counts the trial so subscribers get their `done`.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| run_trial(&trial, &mut arena)));
        if let Err(payload) = ran {
            arena = EngineArena::new();
            trial.job.fan_control(&error_line(&format!(
                "job {} seed {}: trial panicked: {}",
                trial.job.id,
                trial.seed,
                panic_message(payload.as_ref())
            )));
        }
        if trial.job.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            trial.job.finish();
        }
    }
}

// ---------------------------------------------------------------------
// Connection side
// ---------------------------------------------------------------------

/// The per-connection outgoing half shared between the reader (which
/// registers new subscriptions) and the writer thread (which drains
/// them into the socket).
struct Outgoing {
    control_tx: Sender<String>,
    /// Receivers of every round channel subscribed on this connection.
    round_rxs: Mutex<Vec<Receiver<String>>>,
}

impl Outgoing {
    fn drain_rounds(&self, out: &mut impl Write) -> io::Result<()> {
        for rx in self.round_rxs.lock().unwrap().iter() {
            for line in rx.try_iter() {
                out.write_all(line.as_bytes())?;
            }
        }
        Ok(())
    }
}

fn flush_outgoing(
    stream: &mut TcpStream,
    outgoing: &Outgoing,
    line: Option<String>,
) -> io::Result<()> {
    // Rounds queued before a control event was sent are already in
    // their channels (channel sends happen-before), so draining rounds
    // first keeps `report`/`done` after the rounds they trail.
    outgoing.drain_rounds(stream)?;
    if let Some(line) = line {
        stream.write_all(line.as_bytes())?;
    }
    stream.flush()
}

fn writer_loop(
    shared: &Shared,
    outgoing: &Outgoing,
    control_rx: &Receiver<String>,
    mut stream: TcpStream,
) {
    loop {
        match control_rx.recv_timeout(TICK) {
            Ok(line) => {
                if flush_outgoing(&mut stream, outgoing, Some(line)).is_err() {
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if flush_outgoing(&mut stream, outgoing, None).is_err() || shared.is_shutdown() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                let _ = flush_outgoing(&mut stream, outgoing, None);
                return;
            }
        }
    }
}

fn subscribe(job: &Arc<Job>, outgoing: &Arc<Outgoing>, stream_rounds: bool) {
    let (sink, rx) = RoundSink::bounded(ROUND_CHANNEL_CAPACITY);
    outgoing.round_rxs.lock().unwrap().push(rx);
    let sub = Arc::new(Subscriber {
        stream_rounds,
        round: Mutex::new(sink),
        control: outgoing.control_tx.clone(),
    });
    // Lock order mirrors push_report (reports, then subscribers), so
    // replay plus live fan-out hand each report to this subscriber
    // exactly once. The done-check happens *inside* the subscribers
    // lock: either this subscriber registers before a finishing worker
    // takes the lock (and gets `done` from it), or it observes the job
    // already done and synthesizes its own.
    let reports = job.reports.lock().unwrap();
    let mut subs = job.subscribers.lock().unwrap();
    for line in reports.iter() {
        sub.push_control(line.clone());
    }
    if job.is_done() {
        sub.push_control(done_line(job.id, 0));
    } else {
        subs.push(sub);
    }
    drop(subs);
    drop(reports);
}

fn handle_submit(shared: &Shared, outgoing: &Arc<Outgoing>, req: &Value) -> Result<(), String> {
    let spec_value = req.get("spec").ok_or("submit is missing 'spec'")?;
    let spec = ScenarioSpec::from_value(spec_value).map_err(|e| e.to_string())?;
    let seeds_value = req
        .get("seeds")
        .and_then(Value::as_array)
        .ok_or("submit is missing a 'seeds' array")?;
    if seeds_value.is_empty() {
        return Err("submit needs at least one seed".into());
    }
    let mut seeds = Vec::with_capacity(seeds_value.len());
    for s in seeds_value {
        seeds.push(s.as_u64().ok_or("seeds must be u64")?);
    }
    let stream_rounds = match req.get("stream") {
        None => true,
        Some(v) => v.as_bool().ok_or("'stream' must be a bool")?,
    };
    // Validate the whole spec up front so a bad submission fails at the
    // submitting client, not inside a worker.
    spec.to_scenario()
        .and_then(|s| s.build())
        .map_err(|e| e.to_string())?;

    let id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    let job = Arc::new(Job {
        id,
        spec,
        remaining: AtomicUsize::new(seeds.len()),
        subscribers: Mutex::new(Vec::new()),
        reports: Mutex::new(Vec::new()),
    });
    subscribe(&job, outgoing, stream_rounds);
    shared.jobs.lock().unwrap().insert(id, Arc::clone(&job));
    outgoing
        .control_tx
        .send(event_line(vec![
            ("event".into(), Value::str("accepted")),
            ("job".into(), Value::UInt(id)),
            ("trials".into(), Value::UInt(seeds.len() as u64)),
        ]))
        .map_err(|_| "connection closed".to_string())?;
    shared.enqueue(&job, &seeds);
    Ok(())
}

fn handle_attach(shared: &Shared, outgoing: &Arc<Outgoing>, req: &Value) -> Result<(), String> {
    let id = req
        .get("job")
        .and_then(Value::as_u64)
        .ok_or("attach is missing a 'job' id")?;
    let job = shared
        .jobs
        .lock()
        .unwrap()
        .get(&id)
        .cloned()
        .ok_or_else(|| format!("no such job {id}"))?;
    outgoing
        .control_tx
        .send(event_line(vec![
            ("event".into(), Value::str("accepted")),
            ("job".into(), Value::UInt(id)),
            (
                "trials".into(),
                Value::UInt(job.remaining.load(Ordering::SeqCst) as u64),
            ),
        ]))
        .map_err(|_| "connection closed".to_string())?;
    subscribe(&job, outgoing, true);
    Ok(())
}

/// Returns `false` when the connection should stop serving (shutdown).
fn handle_request(shared: &Shared, outgoing: &Arc<Outgoing>, line: &str) -> bool {
    let parsed = match Value::parse(line) {
        Ok(v) => v,
        Err(e) => {
            let _ = outgoing.control_tx.send(error_line(&e.to_string()));
            return true;
        }
    };
    let op = parsed.get("op").and_then(Value::as_str).unwrap_or("");
    let result = match op {
        "ping" => outgoing
            .control_tx
            .send(event_line(vec![("event".into(), Value::str("pong"))]))
            .map_err(|_| "connection closed".to_string()),
        "submit" => handle_submit(shared, outgoing, &parsed),
        "attach" => handle_attach(shared, outgoing, &parsed),
        "shutdown" => {
            shared.begin_shutdown();
            return false;
        }
        other => Err(format!("unknown op '{other}'")),
    };
    if let Err(message) = result {
        let _ = outgoing.control_tx.send(error_line(&message));
    }
    true
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    if let Ok(shutdown_handle) = stream.try_clone() {
        let mut conns = shared.conns.lock().unwrap();
        conns.retain(|c| c.peer_addr().is_ok());
        conns.push(shutdown_handle);
    }
    let (control_tx, control_rx) = std::sync::mpsc::channel();
    let outgoing = Arc::new(Outgoing {
        control_tx,
        round_rxs: Mutex::new(Vec::new()),
    });
    let writer_outgoing = Arc::clone(&outgoing);
    thread::scope(|scope| {
        scope.spawn(move || writer_loop(shared, &writer_outgoing, &control_rx, write_half));
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    if !handle_request(shared, &outgoing, trimmed) {
                        break;
                    }
                }
            }
        }
        // Reader done. The writer exits on its next tick once shutdown
        // is set or its socket write fails (client gone); until then it
        // keeps draining events for jobs this connection subscribed.
    });
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A bound, not-yet-running server. [`Server::run`] blocks serving until
/// a client sends `{"op":"shutdown"}`.
pub struct Server {
    listener: TcpListener,
    workers: usize,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) with a pool of
    /// `workers` trial threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            workers: workers.max(1),
        })
    }

    /// The bound address — what clients connect to.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown: accepts connections, one handler pair
    /// (reader + writer thread) per client, over a shared pool of
    /// `workers` arena-reusing trial threads. Every thread is scoped —
    /// when this returns, all of them have exited.
    ///
    /// # Errors
    ///
    /// Never fails today; the signature reserves accept-loop I/O errors.
    pub fn run(self) -> io::Result<()> {
        let shared = Shared::new(self.local_addr()?);
        thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| worker(&shared));
            }
            // begin_shutdown's self-connect unblocks accept() after the
            // flag flips, so this loop always terminates on shutdown.
            for stream in self.listener.incoming() {
                if shared.is_shutdown() {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        scope.spawn(|| handle_connection(&shared, stream));
                    }
                    Err(_) => continue,
                }
            }
            Ok(())
        })
    }
}

/// Requests a shutdown of the server at `addr`: connects, sends the
/// `shutdown` op, returns. Used by hosts that run the server on a
/// background thread.
///
/// # Errors
///
/// Propagates connect/write failures.
pub fn request_shutdown(addr: SocketAddr) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"{\"op\":\"shutdown\"}\n")?;
    stream.flush()
}

// ---------------------------------------------------------------------
// Client helper
// ---------------------------------------------------------------------

/// A minimal blocking client for the line protocol — what the smoke
/// binary, the determinism test and `examples/serve_demo.rs` use; real
/// deployments can speak the protocol with anything that writes lines.
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

/// One server→client event, pre-split on the `event` tag with the raw
/// [`Value`] retained for field access.
#[derive(Debug)]
pub struct Event {
    /// The `event` tag: `accepted`, `round`, `report`, `done`, `pong`
    /// or `error`.
    pub kind: String,
    /// The whole event object.
    pub body: Value,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, stream })
    }

    /// Submits `spec` across `seeds`; `stream` requests live round
    /// events. Returns after writing — read the `accepted` event (and
    /// everything after it) with [`Client::next_event`].
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn submit(&mut self, spec: &ScenarioSpec, seeds: &[u64], stream: bool) -> io::Result<()> {
        let line = Value::Object(vec![
            ("op".into(), Value::str("submit")),
            ("spec".into(), spec.to_value()),
            (
                "seeds".into(),
                Value::Array(seeds.iter().map(|&s| Value::UInt(s)).collect()),
            ),
            ("stream".into(), Value::Bool(stream)),
        ])
        .encode();
        self.send_line(&line)
    }

    /// Attaches to an existing job as an additional live subscriber.
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn attach(&mut self, job: u64) -> io::Result<()> {
        let line = Value::Object(vec![
            ("op".into(), Value::str("attach")),
            ("job".into(), Value::UInt(job)),
        ])
        .encode();
        self.send_line(&line)
    }

    /// Sends one raw request line.
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }

    /// Blocks for the next event; `None` on a closed connection.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the server sends a non-protocol line.
    pub fn next_event(&mut self) -> io::Result<Option<Event>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let body = Value::parse(trimmed)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let kind = body
                .get("event")
                .and_then(Value::as_str)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing event tag"))?
                .to_string();
            return Ok(Some(Event { kind, body }));
        }
    }

    /// Waits for the `accepted` event of a just-sent request and
    /// returns its job id.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an error event or protocol violation.
    pub fn expect_accepted(&mut self) -> io::Result<u64> {
        while let Some(event) = self.next_event()? {
            match event.kind.as_str() {
                "accepted" => {
                    return event
                        .body
                        .get("job")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "accepted missing job id")
                        });
                }
                "error" => {
                    let message = event
                        .body
                        .get("message")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown server error");
                    return Err(io::Error::new(io::ErrorKind::InvalidData, message));
                }
                _ => continue,
            }
        }
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before accepted",
        ))
    }

    /// Reads events until this job's `done`, returning the collected
    /// reports plus stream accounting. Round events are counted, not
    /// stored.
    ///
    /// # Errors
    ///
    /// `InvalidData` on protocol violations (error events, malformed
    /// reports) and `UnexpectedEof` when the connection closes first.
    pub fn collect_job(&mut self, job: u64) -> io::Result<JobResult> {
        let mut result = JobResult {
            reports: Vec::new(),
            rounds_seen: 0,
            dropped_rounds: 0,
            degraded: false,
        };
        while let Some(event) = self.next_event()? {
            let event_job = event.body.get("job").and_then(Value::as_u64);
            match event.kind.as_str() {
                "error" => {
                    let message = event
                        .body
                        .get("message")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown server error");
                    return Err(io::Error::new(io::ErrorKind::InvalidData, message));
                }
                "round" if event_job == Some(job) => result.rounds_seen += 1,
                "report" if event_job == Some(job) => {
                    let seed = event
                        .body
                        .get("seed")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "report missing seed")
                        })?;
                    let report = event.body.get("report").ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "report missing body")
                    })?;
                    // Re-encoding the parsed value is byte-identity (the
                    // wire format is canonical), so these bytes are
                    // exactly what the server's encoder produced.
                    result.reports.push((seed, report.encode()));
                }
                "done" if event_job == Some(job) => {
                    result.dropped_rounds = event
                        .body
                        .get("dropped_rounds")
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                    result.degraded = event
                        .body
                        .get("degraded")
                        .and_then(Value::as_bool)
                        .unwrap_or(false);
                    return Ok(result);
                }
                _ => {}
            }
        }
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before done",
        ))
    }
}

/// What [`Client::collect_job`] gathered for one job.
#[derive(Debug)]
pub struct JobResult {
    /// `(seed, canonical report bytes)` in completion order.
    pub reports: Vec<(u64, String)>,
    /// Live round events this subscriber received.
    pub rounds_seen: u64,
    /// Round events the server dropped for this subscriber.
    pub dropped_rounds: u64,
    /// Whether any round event was dropped (reports are unaffected).
    pub degraded: bool,
}

impl JobResult {
    /// The canonical report bytes for `seed`, if present.
    pub fn report_for(&self, seed: u64) -> Option<&str> {
        self.reports
            .iter()
            .find(|(s, _)| *s == seed)
            .map(|(_, r)| r.as_str())
    }
}

/// The canonical report bytes an in-process run of `spec` at `seed`
/// produces — the reference side of the server byte-identity contract.
///
/// # Errors
///
/// The scenario error, stringified.
pub fn reference_report(spec: &ScenarioSpec, seed: u64) -> Result<String, String> {
    let sim = spec
        .to_scenario()
        .and_then(|s| s.build())
        .map_err(|e| e.to_string())?;
    let report = sim.run(seed).map_err(|e| e.to_string())?;
    Ok(encode_run_report(&report))
}
