//! A minimal timing harness for the `benches/` targets.
//!
//! The offline build environment cannot fetch criterion, so the bench
//! binaries use this instead: warm up, run a fixed number of timed
//! iterations, and print min/mean/max wall-clock per iteration. Benches
//! are declared `harness = false` and excluded from `cargo test`.
//!
//! Besides printing, a [`Session`] collects machine-readable
//! [`BenchRecord`]s and — when the binary is invoked with `--json <path>`
//! — writes them as a JSON array, so benchmark results can be tracked
//! across commits (`BENCH.json` at the repository root holds the
//! committed trajectory; CI regenerates and uploads it per run).

use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under the criterion-familiar
/// name.
pub use std::hint::black_box;

/// One benchmark measurement: wall-clock per iteration over `iters`
/// timed iterations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Benchmark name, `group/case` style.
    pub name: String,
    /// Problem size the case ran at (stations, items, …).
    pub n: usize,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u128,
    /// Mean iteration, nanoseconds.
    pub mean_ns: u128,
    /// Slowest iteration, nanoseconds.
    pub max_ns: u128,
}

impl BenchRecord {
    fn to_json(&self) -> String {
        // Benchmark names are plain identifiers with '/', so escaping
        // quotes/backslashes suffices.
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\"name\":\"{}\",\"n\":{},\"min_ns\":{},\"mean_ns\":{},\"max_ns\":{}}}",
            esc(&self.name),
            self.n,
            self.min_ns,
            self.mean_ns,
            self.max_ns
        )
    }
}

/// Runs `f` for `iters` timed iterations (after `warmup` untimed ones),
/// prints one line of statistics and returns the measurement.
// bench is the one crate whose job is reading the wall clock
// (clippy.toml mirrors sinr-lint's wall-clock rule workspace-wide).
#[allow(clippy::disallowed_methods)]
pub fn bench_record(
    name: &str,
    n: usize,
    warmup: usize,
    iters: usize,
    mut f: impl FnMut(),
) -> BenchRecord {
    assert!(iters > 0, "need at least one timed iteration");
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples.push(start.elapsed());
    }
    let total: Duration = samples.iter().sum();
    let mean = total / iters as u32;
    let min = *samples.iter().min().expect("non-empty");
    let max = *samples.iter().max().expect("non-empty");
    println!("{name:<40} iters {iters:>3}  min {min:>10.2?}  mean {mean:>10.2?}  max {max:>10.2?}");
    BenchRecord {
        name: name.to_string(),
        n,
        min_ns: min.as_nanos(),
        mean_ns: mean.as_nanos(),
        max_ns: max.as_nanos(),
    }
}

/// Runs `f` for `iters` timed iterations (after `warmup` untimed ones)
/// and prints one line of statistics.
pub fn bench_n(name: &str, warmup: usize, iters: usize, f: impl FnMut()) {
    let _ = bench_record(name, 0, warmup, iters, f);
}

/// [`bench_n`] with the default 2 warmup + 10 timed iterations.
pub fn bench(name: &str, f: impl FnMut()) {
    bench_n(name, 2, 10, f);
}

/// Collects [`BenchRecord`]s and optionally writes them as JSON.
///
/// Construct with [`Session::from_args`] so every bench binary uniformly
/// understands `--json <path>` (and `--quick` for CI smoke runs).
#[derive(Debug, Default)]
pub struct Session {
    records: Vec<BenchRecord>,
    json_path: Option<std::path::PathBuf>,
    /// Whether `--quick` was passed: benches should shrink sizes and
    /// iteration counts to smoke-test levels.
    pub quick: bool,
    /// `--suite <name>` if passed: binaries hosting several suites run
    /// only the named one (`all` or absent runs everything).
    pub suite: Option<String>,
}

impl Session {
    /// A session with no JSON output.
    pub fn new() -> Self {
        Session::default()
    }

    /// Parses `--json <path>`, `--quick` and `--suite <name>` from the
    /// process arguments.
    ///
    /// # Panics
    ///
    /// Panics if `--json` or `--suite` is passed without its value (a
    /// usage error in a bench invocation).
    pub fn from_args() -> Self {
        let mut session = Session::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => {
                    let path = args.next().expect("--json requires a path argument");
                    session.json_path = Some(path.into());
                }
                "--quick" => session.quick = true,
                "--suite" => {
                    let name = args.next().expect("--suite requires a name argument");
                    session.suite = Some(name);
                }
                other => {
                    if let Some(path) = other.strip_prefix("--json=") {
                        session.json_path = Some(path.into());
                    } else if let Some(name) = other.strip_prefix("--suite=") {
                        session.suite = Some(name.into());
                    }
                    // Ignore the harness arguments `cargo bench` forwards
                    // (e.g. `--bench`) and any filter strings.
                }
            }
        }
        session
    }

    /// Sets the JSON output path unless `--json` already provided one
    /// (binaries that always emit a report call this after
    /// [`Session::from_args`]).
    pub fn default_json(&mut self, path: impl Into<std::path::PathBuf>) {
        if self.json_path.is_none() {
            self.json_path = Some(path.into());
        }
    }

    /// Picks `full` normally, `quick` under `--quick`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Runs and records one case (default 2 warmup + 10 timed iterations,
    /// halved under `--quick`).
    pub fn bench(&mut self, name: &str, n: usize, f: impl FnMut()) {
        let iters = self.pick(10, 5);
        self.bench_n(name, n, 2, iters, f);
    }

    /// Runs and records one case with explicit warmup/iteration counts.
    pub fn bench_n(&mut self, name: &str, n: usize, warmup: usize, iters: usize, f: impl FnMut()) {
        let record = bench_record(name, n, warmup, iters, f);
        self.records.push(record);
    }

    /// The records collected so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Mean nanoseconds of the named record, if it ran.
    pub fn mean_ns(&self, name: &str) -> Option<u128> {
        self.records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.mean_ns)
    }

    /// Renders all records as a JSON array (one record per line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&r.to_json());
            if i + 1 < self.records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Writes the JSON report if `--json` was given; returns the path
    /// written to.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the report cannot be written.
    pub fn finish(self) -> std::io::Result<Option<std::path::PathBuf>> {
        let json = self.to_json();
        let Some(path) = self.json_path else {
            return Ok(None);
        };
        std::fs::write(&path, json)?;
        println!("wrote {} records to {}", self.records.len(), path.display());
        Ok(Some(path))
    }
}

/// Parses a JSON array of benchmark records as written by
/// [`Session::finish`] — the reader half of
/// the tracked-benchmark loop (the CI regression gate uses it to compare
/// a fresh report against the committed baseline).
///
/// Tolerant by construction: anything that does not look like a record
/// object is skipped, so partial or hand-edited files degrade to fewer
/// records rather than an error. Record names must not contain `{` or
/// `}` (ours never do).
pub fn parse_records(json: &str) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(start) = rest.find('{') {
        let Some(end) = rest[start..].find('}') else {
            break;
        };
        let obj = &rest[start..=start + end];
        rest = &rest[start + end + 1..];
        let record = (|| {
            Some(BenchRecord {
                name: extract_str(obj, "name")?,
                n: usize::try_from(extract_num(obj, "n")?).ok()?,
                min_ns: extract_num(obj, "min_ns")?,
                mean_ns: extract_num(obj, "mean_ns")?,
                max_ns: extract_num(obj, "max_ns")?,
            })
        })();
        if let Some(r) = record {
            out.push(r);
        }
    }
    out
}

/// Position just past `"key":` (tolerating whitespace around the colon)
/// in a record object, or `None` if the key is absent.
fn after_key(obj: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\"");
    let mut at = obj.find(&pat)? + pat.len();
    let bytes = obj.as_bytes();
    while bytes.get(at).is_some_and(|b| b.is_ascii_whitespace()) {
        at += 1;
    }
    if bytes.get(at) != Some(&b':') {
        return None;
    }
    at += 1;
    while bytes.get(at).is_some_and(|b| b.is_ascii_whitespace()) {
        at += 1;
    }
    Some(at)
}

/// Extracts the string value of `"key": "..."` from a record object,
/// unescaping `\"` and `\\`.
fn extract_str(obj: &str, key: &str) -> Option<String> {
    let at = after_key(obj, key)?;
    let rest = obj[at..].strip_prefix('"')?;
    let mut value = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => value.push(chars.next()?),
            '"' => return Some(value),
            _ => value.push(c),
        }
    }
    None
}

/// Extracts the unsigned integer value of `"key": <digits>` from a
/// record object.
fn extract_num(obj: &str, key: &str) -> Option<u128> {
    let at = after_key(obj, key)?;
    let end = obj[at..]
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(obj.len() - at);
    obj[at..at + end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_expected_iteration_count() {
        let mut count = 0u32;
        bench_n("noop", 1, 3, || count += 1);
        assert_eq!(count, 4, "1 warmup + 3 timed");
    }

    #[test]
    fn session_records_and_serializes() {
        let mut s = Session::new();
        s.bench_n("group/case", 128, 0, 2, || {});
        assert_eq!(s.records().len(), 1);
        assert_eq!(s.records()[0].n, 128);
        assert!(s.mean_ns("group/case").is_some());
        assert_eq!(s.mean_ns("missing"), None);
        let json = s.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"name\":\"group/case\""));
        assert!(json.contains("\"n\":128"));
        assert!(json.trim_end().ends_with(']'));
        // A session without --json writes nothing.
        assert_eq!(s.finish().unwrap(), None);
    }

    #[test]
    fn record_json_escapes_quotes() {
        let r = BenchRecord {
            name: "a\"b".into(),
            n: 1,
            min_ns: 1,
            mean_ns: 2,
            max_ns: 3,
        };
        assert!(r.to_json().contains("a\\\"b"));
    }

    #[test]
    fn pick_respects_quick() {
        let mut s = Session::new();
        assert_eq!(s.pick(10, 2), 10);
        s.quick = true;
        assert_eq!(s.pick(10, 2), 2);
    }

    #[test]
    fn parse_round_trips_serialized_records() {
        let mut s = Session::new();
        s.bench_n("phy/case_a/1", 128, 0, 2, || {});
        s.bench_n("broadcast/ca\"se_b", 64, 0, 2, || {});
        let parsed = parse_records(&s.to_json());
        assert_eq!(parsed, s.records());
    }

    #[test]
    fn parse_skips_malformed_objects() {
        let json = r#"[
  {"name":"ok","n":1,"min_ns":10,"mean_ns":20,"max_ns":30},
  {"name":"missing fields","n":2},
  {"garbage":true}
]"#;
        let parsed = parse_records(json);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "ok");
        assert_eq!(parsed[0].min_ns, 10);
        assert_eq!(parsed[0].max_ns, 30);
        assert!(parse_records("").is_empty());
        assert!(parse_records("[not json").is_empty());
    }

    #[test]
    fn parse_tolerates_whitespace_around_colons() {
        // Hand-edited or pretty-printed baselines still gate correctly.
        let json = r#"[{"name": "a/b", "n": 4, "min_ns": 7, "mean_ns": 8, "max_ns": 9}]"#;
        let parsed = parse_records(json);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "a/b");
        assert_eq!(parsed[0].n, 4);
        assert_eq!(parsed[0].mean_ns, 8);
    }
}
