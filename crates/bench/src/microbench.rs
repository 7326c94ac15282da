//! A minimal timing harness for the `microbench` binary and the
//! `substrate` bench target.
//!
//! The offline build environment cannot fetch criterion, so the
//! benchmarks use this instead: warm up, run a fixed number of timed
//! iterations, and print min/mean/max wall-clock per iteration. The
//! `substrate` bench is declared `harness = false` and excluded from
//! `cargo test`; every other suite runs through
//! `microbench --suite <name>`.
//!
//! Besides printing, a [`Session`] collects machine-readable
//! [`BenchRecord`]s and — when the binary is invoked with `--json <path>`
//! — writes them as a JSON array, one canonical [`sinr_wire`] object per
//! line, so benchmark results can be tracked across commits
//! (`BENCH.json` at the repository root holds the committed trajectory;
//! CI regenerates and uploads it per run). [`parse_records`] reads such a
//! file back and rejects a malformed one.

use std::time::{Duration, Instant};

use sinr_wire::Value;

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
    pub min_ns: u64,
    /// Mean iteration, nanoseconds.
    pub mean_ns: u64,
    /// Slowest iteration, nanoseconds.
    pub max_ns: u64,
}

impl BenchRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::str(self.name.as_str())),
            ("n".into(), Value::UInt(self.n as u64)),
            ("min_ns".into(), Value::UInt(self.min_ns)),
            ("mean_ns".into(), Value::UInt(self.mean_ns)),
            ("max_ns".into(), Value::UInt(self.max_ns)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("missing '{key}'"));
        let uint = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("'{key}' is not an unsigned integer"))
        };
        Ok(BenchRecord {
            name: field("name")?
                .as_str()
                .ok_or("'name' is not a string")?
                .to_string(),
            n: usize::try_from(uint("n")?).map_err(|e| e.to_string())?,
            min_ns: uint("min_ns")?,
            mean_ns: uint("mean_ns")?,
            max_ns: uint("max_ns")?,
        })
    }
}

/// Whole nanoseconds in `d`, saturating (at ~584 years).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` for `iters` timed iterations (after `warmup` untimed ones),
/// prints one line of statistics and returns the measurement.
// bench is the one crate whose job is reading the wall clock (clippy.toml
// disallows it workspace-wide).
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
        min_ns: nanos(min),
        mean_ns: nanos(mean),
        max_ns: nanos(max),
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
    /// Panics on any other argument, and if `--json` or `--suite` is
    /// passed without its value (usage errors: a mistyped `--json` must
    /// not fall back to overwriting the default report).
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
                other => panic!(
                    "unknown argument {other}; expected --json <path>, --quick or --suite <name>"
                ),
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
    pub fn mean_ns(&self, name: &str) -> Option<u64> {
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
            r.to_value().encode_into(&mut out);
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
/// [`Session::finish`] — the reader half of the tracked-benchmark loop
/// (the CI regression gate uses it to compare a fresh report against the
/// committed baseline).
///
/// # Errors
///
/// Input that is not a JSON array of records, or any record that lacks a
/// field or has one of the wrong type, is an error naming the first
/// problem, so a damaged report can never gate fewer rows than it holds.
pub fn parse_records(json: &str) -> Result<Vec<BenchRecord>, String> {
    let value = Value::parse(json).map_err(|e| e.to_string())?;
    let rows = value
        .as_array()
        .ok_or("a benchmark report is a JSON array of records")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| BenchRecord::from_value(row).map_err(|e| format!("record {i}: {e}")))
        .collect()
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
        assert!(r.to_value().encode().contains("a\\\"b"));
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
        let parsed = parse_records(&s.to_json()).unwrap();
        assert_eq!(parsed, s.records());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        let ok = r#"{"name":"ok","n":1,"min_ns":10,"mean_ns":20,"max_ns":30}"#;
        assert_eq!(parse_records(&format!("[{ok}]")).unwrap().len(), 1);
        for bad in [
            "",
            "[not json",
            r#"{"name":"not an array"}"#,
            r#"[{"name":"missing fields","n":2}]"#,
            r#"[{"garbage":true}]"#,
            r#"[{"name":"neg","n":1,"min_ns":-1,"mean_ns":2,"max_ns":3}]"#,
            r#"[{"name":"frac","n":1,"min_ns":1.5,"mean_ns":2,"max_ns":3}]"#,
            r#"[{"name":7,"n":1,"min_ns":1,"mean_ns":2,"max_ns":3}]"#,
        ] {
            assert!(parse_records(bad).is_err(), "accepted {bad:?}");
        }
        // One damaged row fails the whole file instead of vanishing.
        let damaged = format!("[{ok},\n{{\"name\":\"cut\",\"n\":1}}]");
        let err = parse_records(&damaged).unwrap_err();
        assert!(err.contains("record 1"), "{err}");
    }

    #[test]
    fn committed_report_reencodes_byte_identically() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let records = parse_records(&text).unwrap();
        assert!(!records.is_empty());
        let session = Session {
            records,
            ..Session::default()
        };
        assert_eq!(session.to_json(), text);
    }

    #[test]
    fn parse_tolerates_whitespace_around_colons() {
        // Hand-edited or pretty-printed baselines still gate correctly.
        let json = r#"[{"name": "a/b", "n": 4, "min_ns": 7, "mean_ns": 8, "max_ns": 9}]"#;
        let parsed = parse_records(json).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "a/b");
        assert_eq!(parsed[0].n, 4);
        assert_eq!(parsed[0].mean_ns, 8);
    }
}
