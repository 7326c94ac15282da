//! `sinr-serve`: a persistent simulation server over plain TCP.
//!
//! The server holds a pool of worker threads, each running one trial at
//! a time through [`Simulation::run`]. Clients speak a line-delimited
//! protocol of canonical-JSON objects (grammar in
//! [`sinr_core::sim`]'s "Simulation as a service" section): `submit` a
//! [`ScenarioSpec`] plus seeds, get one trial per seed scheduled on the
//! shared pool, and receive `round` events live plus one `report` event
//! per finished trial.
//!
//! # Ordering and backpressure
//!
//! Each connection has one outgoing queue, and its writer thread sends
//! the queued events in the order they were emitted: a job's `accepted`
//! precedes its rounds, and its rounds precede the `report` and `done`
//! that trail them. Round events are lossy: once a subscriber has
//! [`ROUND_CHANNEL_CAPACITY`] round lines queued but not yet written,
//! further rounds are dropped (counted, reported in its `done` event), so
//! a reader that falls behind **never stalls the engine**. Every other
//! event is always queued, so a slow reader still receives every
//! `report`.
//!
//! # Failure isolation
//!
//! A request line longer than [`MAX_REQUEST_BYTES`] is an `error` event
//! and closes its connection. Specs are validated at `submit`, so a bad
//! one is an `error` event for the submitting client and never reaches a
//! worker. A trial that still fails — a scenario error, or a panic in a
//! generator or the engine — becomes an `error` event for its job; the
//! job still ends with `done`, and the worker carries on with the next
//! trial.
//!
//! # Determinism
//!
//! A trial's report is a pure function of `(spec, seed)` — worker
//! count, subscriber count and drop patterns cannot perturb it.
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
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use sinr_core::sim::wire::run_report_to_value;
use sinr_core::sim::{encode_run_report, Observer, ScenarioSpec, Simulation};
use sinr_geometry::Point2;
use sinr_runtime::RoundStats;
use sinr_wire::Value;

/// Round lines a subscriber may have queued but not yet written before
/// further rounds are dropped. Sized to absorb normal writer-thread
/// scheduling jitter; a genuinely slow reader degrades to report-only.
pub const ROUND_CHANNEL_CAPACITY: usize = 1024;

/// How often blocked writer loops re-check the shutdown flag.
const TICK: Duration = Duration::from_millis(25);

/// Longest request line the server reads, its newline included. A longer
/// line gets one `error` event and the connection is closed, so no client
/// can grow server memory past this per connection.
pub const MAX_REQUEST_BYTES: u64 = 16 << 20;

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

/// One line on a connection's outgoing queue.
enum Line {
    /// A line that is always delivered (`accepted`, `report`, `done`,
    /// `pong`, `error`).
    Control(String),
    /// A round line, with its subscriber's count of unwritten round lines
    /// for the writer to release once the line is out.
    Round(String, Arc<AtomicUsize>),
    /// The reader refused the connection's input: the writer delivers
    /// the lines queued ahead of this one, then closes the socket.
    Close,
}

/// One registration of a connection on a job. Every event goes through
/// the connection's one outgoing queue, so the connection receives them
/// in emission order.
struct Subscriber {
    stream_rounds: bool,
    /// Round lines queued on the connection and not yet written.
    unwritten_rounds: Arc<AtomicUsize>,
    dropped_rounds: AtomicU64,
    tx: Sender<Line>,
}

impl Subscriber {
    /// Lossy: past [`ROUND_CHANNEL_CAPACITY`] unwritten round lines, or
    /// with the connection gone, the round is dropped and counted.
    fn offer_round(&self, line: &str) {
        if !self.stream_rounds {
            return;
        }
        let queued = self.unwritten_rounds.fetch_add(1, Ordering::SeqCst) < ROUND_CHANNEL_CAPACITY
            && self
                .tx
                .send(Line::Round(
                    line.to_string(),
                    Arc::clone(&self.unwritten_rounds),
                ))
                .is_ok();
        if !queued {
            self.unwritten_rounds.fetch_sub(1, Ordering::SeqCst);
            self.dropped_rounds.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Reliable and non-blocking (unbounded queue); a departed reader
    /// just discards.
    fn push_control(&self, line: String) {
        let _ = self.tx.send(Line::Control(line));
    }

    fn dropped(&self) -> u64 {
        self.dropped_rounds.load(Ordering::SeqCst)
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
    /// round-drop count. The job then lets go of its subscribers, so a
    /// connection whose reader has ended stops once its jobs are done.
    fn finish(&self) {
        for sub in std::mem::take(&mut *self.subscribers.lock().unwrap()) {
            sub.push_control(done_line(self.id, sub.dropped()));
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
    /// A clone of every live connection by connection number, shut down
    /// on server shutdown so blocked reads return EOF and blocked writes
    /// fail.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    next_conn: AtomicU64,
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
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(0),
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
        for conn in self.conns.lock().unwrap().values() {
            let _ = conn.shutdown(Shutdown::Both);
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

fn run_trial(trial: &Trial) {
    let job = &trial.job;
    let outcome = build_simulation(job, trial.seed)
        .and_then(|sim| sim.run(trial.seed).map_err(|e| e.to_string()));
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
    while let Some(trial) = shared.next_trial() {
        // A panicking trial (a spec that passes `build()` but trips an
        // assert deeper down) becomes that trial's `error` event; the
        // worker survives, and `remaining` still counts the trial so
        // subscribers get their `done`.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| run_trial(&trial)));
        if let Err(payload) = ran {
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

/// The reader's end of its connection's outgoing queue, through which it
/// queues responses and registers subscriptions; the writer thread
/// writes the queue to the socket.
struct Outgoing {
    tx: Sender<Line>,
}

impl Outgoing {
    fn send(&self, line: String) -> Result<(), String> {
        self.tx
            .send(Line::Control(line))
            .map_err(|_| "connection closed".to_string())
    }
}

/// Writes one line; `Ok(false)` at [`Line::Close`].
fn write_line(out: &mut impl Write, line: Line) -> io::Result<bool> {
    match line {
        Line::Control(text) => out.write_all(text.as_bytes()).map(|()| true),
        Line::Round(text, unwritten) => {
            let written = out.write_all(text.as_bytes());
            unwritten.fetch_sub(1, Ordering::SeqCst);
            written.map(|()| true)
        }
        Line::Close => Ok(false),
    }
}

/// Writes `first` and everything queued behind it up to a
/// [`Line::Close`], then flushes once. `Ok(false)` if it met the close.
fn write_queued(out: &mut impl Write, first: Line, rx: &Receiver<Line>) -> io::Result<bool> {
    let mut open = write_line(out, first)?;
    while open {
        let Ok(line) = rx.try_recv() else { break };
        open = write_line(out, line)?;
    }
    out.flush()?;
    Ok(open)
}

/// Writes the connection's queue to the socket until the queue closes:
/// the reader has ended and every job the connection subscribed to has
/// sent its `done` (each sender is gone), the reader queued
/// [`Line::Close`], a write failed, or the server shuts down.
fn writer_loop(shared: &Shared, rx: Receiver<Line>, stream: TcpStream) {
    let mut out = BufWriter::new(stream);
    loop {
        match rx.recv_timeout(TICK) {
            Ok(first) => match write_queued(&mut out, first, &rx) {
                Ok(true) => {}
                Ok(false) => {
                    let _ = out.get_ref().shutdown(Shutdown::Both);
                    return;
                }
                Err(_) => return,
            },
            Err(RecvTimeoutError::Timeout) if !shared.is_shutdown() => {}
            Err(_) => return,
        }
    }
}

fn subscribe(job: &Arc<Job>, outgoing: &Outgoing, stream_rounds: bool) {
    let sub = Arc::new(Subscriber {
        stream_rounds,
        unwritten_rounds: Arc::new(AtomicUsize::new(0)),
        dropped_rounds: AtomicU64::new(0),
        tx: outgoing.tx.clone(),
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

fn handle_submit(shared: &Shared, outgoing: &Outgoing, req: &Value) -> Result<(), String> {
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
    // Queued before any trial is, so `accepted` precedes every round.
    outgoing.send(event_line(vec![
        ("event".into(), Value::str("accepted")),
        ("job".into(), Value::UInt(id)),
        ("trials".into(), Value::UInt(seeds.len() as u64)),
    ]))?;
    shared.enqueue(&job, &seeds);
    Ok(())
}

fn handle_attach(shared: &Shared, outgoing: &Outgoing, req: &Value) -> Result<(), String> {
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
    // Queued before the subscription exists, so `accepted` precedes
    // every round this connection receives for the job.
    outgoing.send(event_line(vec![
        ("event".into(), Value::str("accepted")),
        ("job".into(), Value::UInt(id)),
        (
            "trials".into(),
            Value::UInt(job.remaining.load(Ordering::SeqCst) as u64),
        ),
    ]))?;
    subscribe(&job, outgoing, true);
    Ok(())
}

/// Returns `false` when the connection should stop serving (shutdown).
fn handle_request(shared: &Shared, outgoing: &Outgoing, line: &str) -> bool {
    let parsed = match Value::parse(line) {
        Ok(v) => v,
        Err(e) => {
            let _ = outgoing.send(error_line(&e.to_string()));
            return true;
        }
    };
    let op = parsed.get("op").and_then(Value::as_str).unwrap_or("");
    let result = match op {
        "ping" => outgoing.send(event_line(vec![("event".into(), Value::str("pong"))])),
        "submit" => handle_submit(shared, outgoing, &parsed),
        "attach" => handle_attach(shared, outgoing, &parsed),
        "shutdown" => {
            shared.begin_shutdown();
            return false;
        }
        other => Err(format!("unknown op '{other}'")),
    };
    if let Err(message) = result {
        let _ = outgoing.send(error_line(&message));
    }
    true
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let (Ok(write_half), Ok(shutdown_handle)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let conn = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    shared.conns.lock().unwrap().insert(conn, shutdown_handle);
    let (tx, rx) = std::sync::mpsc::channel();
    thread::scope(|scope| {
        scope.spawn(move || writer_loop(shared, rx, write_half));
        // Owned by the reader, so its sender goes when the reader ends.
        let outgoing = Outgoing { tx };
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        loop {
            line.clear();
            match (&mut reader)
                .take(MAX_REQUEST_BYTES + 1)
                .read_until(b'\n', &mut line)
            {
                Ok(0) | Err(_) => break,
                Ok(len) if len as u64 > MAX_REQUEST_BYTES => {
                    let _ = outgoing.send(error_line(&format!(
                        "request line exceeds {MAX_REQUEST_BYTES} bytes; closing the connection"
                    )));
                    let _ = outgoing.tx.send(Line::Close);
                    break;
                }
                Ok(_) => {
                    let Ok(text) = std::str::from_utf8(&line) else {
                        break;
                    };
                    let trimmed = text.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    if !handle_request(shared, &outgoing, trimmed) {
                        break;
                    }
                }
            }
        }
        // Reader done: dropping `outgoing` leaves the queue to the jobs
        // this connection subscribed to, and the writer drains their
        // events until the last one sends `done`.
    });
    shared.conns.lock().unwrap().remove(&conn);
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
    /// `workers` trial threads. Every thread is scoped —
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
