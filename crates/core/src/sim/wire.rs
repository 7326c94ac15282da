//! Wire codecs: scenario submissions and run reports as canonical JSON.
//!
//! This module is the serialization seam between the in-process
//! [`Scenario`] API and the `sinr-serve` network protocol (and any
//! future checkpointed-sweep or cross-process sharding layer): a
//! [`ScenarioSpec`] is the *data* form of a scenario — every builder
//! knob that is plain data, no closures — and [`encode_run_report`] /
//! [`decode_run_report`] carry results back.
//!
//! Everything encodes through [`sinr_wire::Value`] in **canonical
//! form**: fields in fixed schema order, no whitespace, `u64` exact.
//! Encoding a decoded value reproduces the input bytes, so
//! byte-identity of reports — the determinism contract — survives the
//! wire; `tests` below and `crates/serve/tests/server_determinism.rs`
//! pin this.
//!
//! Enums are tagged objects: `{"kind":"<tag>", ...fields}`. Protocol
//! tags reuse [`ProtocolSpec::name`]. Optional fields are always
//! present, `null` when absent, keeping the schema self-describing.

use std::collections::BTreeMap;

use sinr_geometry::{Point2, RepairPolicy};
use sinr_phy::{Accumulation, InterferenceMode, KernelDispatch, SinrParams};
use sinr_runtime::{RoundStats, WakeSchedule};
use sinr_wire::Value;

use crate::constants::Constants;
use crate::verify::Coloring;

use super::{
    AdversaryModel, AdversarySpec, ChurnModel, ChurnSpec, CoveragePoint, FaultReport,
    MobilityModel, MobilitySpec, Outcome, ProtocolSpec, RunReport, Scenario, SimError,
    TopologySpec,
};

/// A decode failure: the wire text did not describe a well-formed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was malformed.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

impl From<sinr_wire::ParseError> for WireError {
    fn from(e: sinr_wire::ParseError) -> Self {
        WireError::new(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::new(format!("missing field '{key}'")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, WireError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| WireError::new(format!("field '{key}' is not a u64")))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, WireError> {
    field(v, key)?
        .as_usize()
        .ok_or_else(|| WireError::new(format!("field '{key}' is not a usize")))
}

fn u32_field(v: &Value, key: &str) -> Result<u32, WireError> {
    u64_field(v, key)?
        .try_into()
        .map_err(|_| WireError::new(format!("field '{key}' exceeds u32")))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, WireError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| WireError::new(format!("field '{key}' is not a number")))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, WireError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| WireError::new(format!("field '{key}' is not a bool")))
}

fn array_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], WireError> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| WireError::new(format!("field '{key}' is not an array")))
}

fn opt_u64_field(v: &Value, key: &str) -> Result<Option<u64>, WireError> {
    let f = field(v, key)?;
    if f.is_null() {
        Ok(None)
    } else {
        f.as_u64()
            .map(Some)
            .ok_or_else(|| WireError::new(format!("field '{key}' is not a u64 or null")))
    }
}

fn kind(v: &Value) -> Result<&str, WireError> {
    field(v, "kind")?
        .as_str()
        .ok_or_else(|| WireError::new("field 'kind' is not a string"))
}

fn opt_u64_value(o: Option<u64>) -> Value {
    o.map_or(Value::Null, Value::UInt)
}

fn usize_value(u: usize) -> Value {
    Value::UInt(u as u64)
}

fn tagged(tag: &str, mut fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("kind".to_string(), Value::str(tag))];
    all.append(&mut fields);
    Value::Object(all)
}

// ---------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------

fn topology_to_value(t: &TopologySpec) -> Value {
    let f = |k: &str, v: Value| (k.to_string(), v);
    match *t {
        TopologySpec::UniformSquare { n, side } => tagged(
            "uniform-square",
            vec![f("n", usize_value(n)), f("side", Value::Float(side))],
        ),
        TopologySpec::ConnectedSquare { n, side } => tagged(
            "connected-square",
            vec![f("n", usize_value(n)), f("side", Value::Float(side))],
        ),
        TopologySpec::ConnectedSquareDensity { n, density } => tagged(
            "connected-square-density",
            vec![f("n", usize_value(n)), f("density", Value::Float(density))],
        ),
        TopologySpec::UniformDisk { n, radius } => tagged(
            "uniform-disk",
            vec![f("n", usize_value(n)), f("radius", Value::Float(radius))],
        ),
        TopologySpec::Lattice {
            rows,
            cols,
            spacing,
        } => tagged(
            "lattice",
            vec![
                f("rows", usize_value(rows)),
                f("cols", usize_value(cols)),
                f("spacing", Value::Float(spacing)),
            ],
        ),
        TopologySpec::JitteredLattice {
            rows,
            cols,
            spacing,
            amplitude,
        } => tagged(
            "jittered-lattice",
            vec![
                f("rows", usize_value(rows)),
                f("cols", usize_value(cols)),
                f("spacing", Value::Float(spacing)),
                f("amplitude", Value::Float(amplitude)),
            ],
        ),
        TopologySpec::UniformLine { n, gap } => tagged(
            "uniform-line",
            vec![f("n", usize_value(n)), f("gap", Value::Float(gap))],
        ),
        TopologySpec::HalvingLine {
            n,
            first_gap,
            ratio,
            min_gap,
        } => tagged(
            "halving-line",
            vec![
                f("n", usize_value(n)),
                f("first_gap", Value::Float(first_gap)),
                f("ratio", Value::Float(ratio)),
                f("min_gap", Value::Float(min_gap)),
            ],
        ),
        TopologySpec::GranularityLine {
            n,
            max_gap,
            rs_target,
            min_gap,
        } => tagged(
            "granularity-line",
            vec![
                f("n", usize_value(n)),
                f("max_gap", Value::Float(max_gap)),
                f("rs_target", Value::Float(rs_target)),
                f("min_gap", Value::Float(min_gap)),
            ],
        ),
        TopologySpec::GranularityLineFixedD {
            n,
            max_gap,
            rs_target,
            d_hops,
            min_gap,
        } => tagged(
            "granularity-line-fixed-d",
            vec![
                f("n", usize_value(n)),
                f("max_gap", Value::Float(max_gap)),
                f("rs_target", Value::Float(rs_target)),
                f("d_hops", usize_value(d_hops)),
                f("min_gap", Value::Float(min_gap)),
            ],
        ),
        TopologySpec::ClusterChain {
            diameter,
            per_cluster,
        } => tagged(
            "cluster-chain",
            vec![
                f("diameter", Value::UInt(u64::from(diameter))),
                f("per_cluster", usize_value(per_cluster)),
            ],
        ),
        TopologySpec::GaussianClusters {
            k,
            per_cluster,
            side,
            sigma,
        } => tagged(
            "gaussian-clusters",
            vec![
                f("k", usize_value(k)),
                f("per_cluster", usize_value(per_cluster)),
                f("side", Value::Float(side)),
                f("sigma", Value::Float(sigma)),
            ],
        ),
        TopologySpec::CoreAndSatellites {
            core_n,
            sat_n,
            core_radius,
            sat_distance,
        } => tagged(
            "core-and-satellites",
            vec![
                f("core_n", usize_value(core_n)),
                f("sat_n", usize_value(sat_n)),
                f("core_radius", Value::Float(core_radius)),
                f("sat_distance", Value::Float(sat_distance)),
            ],
        ),
        TopologySpec::Ring { n, radius } => tagged(
            "ring",
            vec![f("n", usize_value(n)), f("radius", Value::Float(radius))],
        ),
        TopologySpec::Bridge {
            blob_n,
            corridor_n,
            blob_side,
        } => tagged(
            "bridge",
            vec![
                f("blob_n", usize_value(blob_n)),
                f("corridor_n", usize_value(corridor_n)),
                f("blob_side", Value::Float(blob_side)),
            ],
        ),
        TopologySpec::TwoTier {
            dense_n,
            ratio,
            side,
        } => tagged(
            "two-tier",
            vec![
                f("dense_n", usize_value(dense_n)),
                f("ratio", usize_value(ratio)),
                f("side", Value::Float(side)),
            ],
        ),
    }
}

fn topology_from_value(v: &Value) -> Result<TopologySpec, WireError> {
    Ok(match kind(v)? {
        "uniform-square" => TopologySpec::UniformSquare {
            n: usize_field(v, "n")?,
            side: f64_field(v, "side")?,
        },
        "connected-square" => TopologySpec::ConnectedSquare {
            n: usize_field(v, "n")?,
            side: f64_field(v, "side")?,
        },
        "connected-square-density" => TopologySpec::ConnectedSquareDensity {
            n: usize_field(v, "n")?,
            density: f64_field(v, "density")?,
        },
        "uniform-disk" => TopologySpec::UniformDisk {
            n: usize_field(v, "n")?,
            radius: f64_field(v, "radius")?,
        },
        "lattice" => TopologySpec::Lattice {
            rows: usize_field(v, "rows")?,
            cols: usize_field(v, "cols")?,
            spacing: f64_field(v, "spacing")?,
        },
        "jittered-lattice" => TopologySpec::JitteredLattice {
            rows: usize_field(v, "rows")?,
            cols: usize_field(v, "cols")?,
            spacing: f64_field(v, "spacing")?,
            amplitude: f64_field(v, "amplitude")?,
        },
        "uniform-line" => TopologySpec::UniformLine {
            n: usize_field(v, "n")?,
            gap: f64_field(v, "gap")?,
        },
        "halving-line" => TopologySpec::HalvingLine {
            n: usize_field(v, "n")?,
            first_gap: f64_field(v, "first_gap")?,
            ratio: f64_field(v, "ratio")?,
            min_gap: f64_field(v, "min_gap")?,
        },
        "granularity-line" => TopologySpec::GranularityLine {
            n: usize_field(v, "n")?,
            max_gap: f64_field(v, "max_gap")?,
            rs_target: f64_field(v, "rs_target")?,
            min_gap: f64_field(v, "min_gap")?,
        },
        "granularity-line-fixed-d" => TopologySpec::GranularityLineFixedD {
            n: usize_field(v, "n")?,
            max_gap: f64_field(v, "max_gap")?,
            rs_target: f64_field(v, "rs_target")?,
            d_hops: usize_field(v, "d_hops")?,
            min_gap: f64_field(v, "min_gap")?,
        },
        "cluster-chain" => TopologySpec::ClusterChain {
            diameter: u32_field(v, "diameter")?,
            per_cluster: usize_field(v, "per_cluster")?,
        },
        "gaussian-clusters" => TopologySpec::GaussianClusters {
            k: usize_field(v, "k")?,
            per_cluster: usize_field(v, "per_cluster")?,
            side: f64_field(v, "side")?,
            sigma: f64_field(v, "sigma")?,
        },
        "core-and-satellites" => TopologySpec::CoreAndSatellites {
            core_n: usize_field(v, "core_n")?,
            sat_n: usize_field(v, "sat_n")?,
            core_radius: f64_field(v, "core_radius")?,
            sat_distance: f64_field(v, "sat_distance")?,
        },
        "ring" => TopologySpec::Ring {
            n: usize_field(v, "n")?,
            radius: f64_field(v, "radius")?,
        },
        "bridge" => TopologySpec::Bridge {
            blob_n: usize_field(v, "blob_n")?,
            corridor_n: usize_field(v, "corridor_n")?,
            blob_side: f64_field(v, "blob_side")?,
        },
        "two-tier" => TopologySpec::TwoTier {
            dense_n: usize_field(v, "dense_n")?,
            ratio: usize_field(v, "ratio")?,
            side: f64_field(v, "side")?,
        },
        other => return Err(WireError::new(format!("unknown topology kind '{other}'"))),
    })
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

fn wake_schedule_to_value(s: &WakeSchedule) -> Value {
    match s {
        WakeSchedule::AllAt(round) => tagged("all-at", vec![("round".into(), Value::UInt(*round))]),
        WakeSchedule::Selected(entries) => tagged(
            "selected",
            vec![(
                "entries".into(),
                Value::Array(
                    entries
                        .iter()
                        .map(|&(station, round)| {
                            Value::Array(vec![usize_value(station), Value::UInt(round)])
                        })
                        .collect(),
                ),
            )],
        ),
        WakeSchedule::Staggered { start, gap } => tagged(
            "staggered",
            vec![
                ("start".into(), Value::UInt(*start)),
                ("gap".into(), Value::UInt(*gap)),
            ],
        ),
    }
}

fn wake_schedule_from_value(v: &Value) -> Result<WakeSchedule, WireError> {
    Ok(match kind(v)? {
        "all-at" => WakeSchedule::AllAt(u64_field(v, "round")?),
        "selected" => {
            let mut entries = Vec::new();
            for e in array_field(v, "entries")? {
                let pair = e
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| WireError::new("wake entry is not a [station, round] pair"))?;
                let station = pair[0]
                    .as_usize()
                    .ok_or_else(|| WireError::new("wake entry station is not a usize"))?;
                let round = pair[1]
                    .as_u64()
                    .ok_or_else(|| WireError::new("wake entry round is not a u64"))?;
                entries.push((station, round));
            }
            WakeSchedule::Selected(entries)
        }
        "staggered" => WakeSchedule::Staggered {
            start: u64_field(v, "start")?,
            gap: u64_field(v, "gap")?,
        },
        other => {
            return Err(WireError::new(format!(
                "unknown wake-schedule kind '{other}'"
            )))
        }
    })
}

fn coloring_to_value(c: &Coloring) -> Value {
    Value::Array(c.colors.iter().map(|&x| Value::Float(x)).collect())
}

fn coloring_from_value(v: &Value, what: &str) -> Result<Coloring, WireError> {
    let items = v
        .as_array()
        .ok_or_else(|| WireError::new(format!("{what} is not an array")))?;
    let mut colors = Vec::with_capacity(items.len());
    for item in items {
        colors.push(
            item.as_f64()
                .ok_or_else(|| WireError::new(format!("{what} entry is not a number")))?,
        );
    }
    Ok(Coloring::new(colors))
}

fn protocol_to_value(p: &ProtocolSpec) -> Value {
    let f = |k: &str, v: Value| (k.to_string(), v);
    let tag = p.name();
    match p {
        ProtocolSpec::NoSBroadcast { source }
        | ProtocolSpec::SBroadcast { source }
        | ProtocolSpec::LocalBroadcast { source }
        | ProtocolSpec::GpsOracleBroadcast { source } => {
            tagged(tag, vec![f("source", usize_value(*source))])
        }
        ProtocolSpec::NoSBroadcastWithEstimate { source, nu }
        | ProtocolSpec::SBroadcastWithEstimate { source, nu } => tagged(
            tag,
            vec![f("source", usize_value(*source)), f("nu", usize_value(*nu))],
        ),
        ProtocolSpec::Coloring => tagged(tag, vec![]),
        ProtocolSpec::DaumBroadcast {
            source,
            granularity,
        } => tagged(
            tag,
            vec![
                f("source", usize_value(*source)),
                f("granularity", granularity.map_or(Value::Null, Value::Float)),
            ],
        ),
        ProtocolSpec::FloodBroadcast { source, p } => tagged(
            tag,
            vec![f("source", usize_value(*source)), f("p", Value::Float(*p))],
        ),
        ProtocolSpec::ReFloodBroadcast {
            source,
            p,
            burst_rounds,
        } => tagged(
            tag,
            vec![
                f("source", usize_value(*source)),
                f("p", Value::Float(*p)),
                f("burst_rounds", Value::UInt(*burst_rounds)),
            ],
        ),
        ProtocolSpec::ReFloodBroadcastEstimate {
            source,
            nu0,
            burst_rounds,
        } => tagged(
            tag,
            vec![
                f("source", usize_value(*source)),
                f("nu0", usize_value(*nu0)),
                f("burst_rounds", Value::UInt(*burst_rounds)),
            ],
        ),
        ProtocolSpec::NoSBroadcastOnlineEstimate { source, nu0 }
        | ProtocolSpec::SBroadcastOnlineEstimate { source, nu0 } => tagged(
            tag,
            vec![
                f("source", usize_value(*source)),
                f("nu0", usize_value(*nu0)),
            ],
        ),
        ProtocolSpec::AdhocWakeup { schedule } => {
            tagged(tag, vec![f("schedule", wake_schedule_to_value(schedule))])
        }
        ProtocolSpec::EstablishedWakeup {
            coloring,
            initiators,
        } => tagged(
            tag,
            vec![
                f("coloring", coloring_to_value(coloring)),
                f(
                    "initiators",
                    Value::Array(initiators.iter().map(|&b| Value::Bool(b)).collect()),
                ),
            ],
        ),
        ProtocolSpec::Consensus {
            values,
            bits,
            d_bound,
        } => tagged(
            tag,
            vec![
                f(
                    "values",
                    Value::Array(values.iter().map(|&x| Value::UInt(x)).collect()),
                ),
                f("bits", Value::UInt(u64::from(*bits))),
                f("d_bound", Value::UInt(u64::from(*d_bound))),
            ],
        ),
        ProtocolSpec::LeaderElection { d_bound } => {
            tagged(tag, vec![f("d_bound", Value::UInt(u64::from(*d_bound)))])
        }
        ProtocolSpec::Alert {
            coloring,
            alerts,
            d_bound,
        } => tagged(
            tag,
            vec![
                f("coloring", coloring_to_value(coloring)),
                f(
                    "alerts",
                    Value::Array(
                        alerts
                            .iter()
                            .map(|&(station, round)| {
                                Value::Array(vec![usize_value(station), Value::UInt(round)])
                            })
                            .collect(),
                    ),
                ),
                f("d_bound", Value::UInt(u64::from(*d_bound))),
            ],
        ),
    }
}

fn protocol_from_value(v: &Value) -> Result<ProtocolSpec, WireError> {
    let source = || usize_field(v, "source");
    Ok(match kind(v)? {
        "nos-broadcast" => ProtocolSpec::NoSBroadcast { source: source()? },
        "nos-broadcast-nu" => ProtocolSpec::NoSBroadcastWithEstimate {
            source: source()?,
            nu: usize_field(v, "nu")?,
        },
        "s-broadcast" => ProtocolSpec::SBroadcast { source: source()? },
        "s-broadcast-nu" => ProtocolSpec::SBroadcastWithEstimate {
            source: source()?,
            nu: usize_field(v, "nu")?,
        },
        "coloring" => ProtocolSpec::Coloring,
        "daum" => ProtocolSpec::DaumBroadcast {
            source: source()?,
            granularity: {
                let g = field(v, "granularity")?;
                if g.is_null() {
                    None
                } else {
                    Some(g.as_f64().ok_or_else(|| {
                        WireError::new("field 'granularity' is not a number or null")
                    })?)
                }
            },
        },
        "flood" => ProtocolSpec::FloodBroadcast {
            source: source()?,
            p: f64_field(v, "p")?,
        },
        "local-broadcast" => ProtocolSpec::LocalBroadcast { source: source()? },
        "re-flood" => ProtocolSpec::ReFloodBroadcast {
            source: source()?,
            p: f64_field(v, "p")?,
            burst_rounds: u64_field(v, "burst_rounds")?,
        },
        "re-flood-online-nu" => ProtocolSpec::ReFloodBroadcastEstimate {
            source: source()?,
            nu0: usize_field(v, "nu0")?,
            burst_rounds: u64_field(v, "burst_rounds")?,
        },
        "nos-broadcast-online-nu" => ProtocolSpec::NoSBroadcastOnlineEstimate {
            source: source()?,
            nu0: usize_field(v, "nu0")?,
        },
        "s-broadcast-online-nu" => ProtocolSpec::SBroadcastOnlineEstimate {
            source: source()?,
            nu0: usize_field(v, "nu0")?,
        },
        "gps-oracle" => ProtocolSpec::GpsOracleBroadcast { source: source()? },
        "adhoc-wakeup" => ProtocolSpec::AdhocWakeup {
            schedule: wake_schedule_from_value(field(v, "schedule")?)?,
        },
        "established-wakeup" => ProtocolSpec::EstablishedWakeup {
            coloring: coloring_from_value(field(v, "coloring")?, "coloring")?,
            initiators: {
                let mut out = Vec::new();
                for b in array_field(v, "initiators")? {
                    out.push(
                        b.as_bool()
                            .ok_or_else(|| WireError::new("initiator flag is not a bool"))?,
                    );
                }
                out
            },
        },
        "consensus" => ProtocolSpec::Consensus {
            values: {
                let mut out = Vec::new();
                for x in array_field(v, "values")? {
                    out.push(
                        x.as_u64()
                            .ok_or_else(|| WireError::new("consensus value is not a u64"))?,
                    );
                }
                out
            },
            bits: u32_field(v, "bits")?,
            d_bound: u32_field(v, "d_bound")?,
        },
        "leader-election" => ProtocolSpec::LeaderElection {
            d_bound: u32_field(v, "d_bound")?,
        },
        "alert" => ProtocolSpec::Alert {
            coloring: coloring_from_value(field(v, "coloring")?, "coloring")?,
            alerts: {
                let mut out = Vec::new();
                for e in array_field(v, "alerts")? {
                    let pair = e
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| WireError::new("alert is not a [station, round] pair"))?;
                    let station = pair[0]
                        .as_usize()
                        .ok_or_else(|| WireError::new("alert station is not a usize"))?;
                    let round = pair[1]
                        .as_u64()
                        .ok_or_else(|| WireError::new("alert round is not a u64"))?;
                    out.push((station, round));
                }
                out
            },
            d_bound: u32_field(v, "d_bound")?,
        },
        other => return Err(WireError::new(format!("unknown protocol kind '{other}'"))),
    })
}

// ---------------------------------------------------------------------
// Execution knobs
// ---------------------------------------------------------------------

fn mode_to_value(m: InterferenceMode) -> Value {
    match m {
        InterferenceMode::Exact => tagged("exact", vec![]),
        InterferenceMode::GridNative { near_radius } => tagged(
            "grid-native",
            vec![("near_radius".into(), Value::Float(near_radius))],
        ),
    }
}

fn mode_from_value(v: &Value) -> Result<InterferenceMode, WireError> {
    Ok(match kind(v)? {
        "exact" => InterferenceMode::Exact,
        "grid-native" => InterferenceMode::GridNative {
            near_radius: f64_field(v, "near_radius")?,
        },
        other => {
            return Err(WireError::new(format!(
                "unknown interference mode '{other}'"
            )))
        }
    })
}

fn repair_to_value(r: RepairPolicy) -> Value {
    match r {
        RepairPolicy::Auto { threshold } => {
            tagged("auto", vec![("threshold".into(), Value::Float(threshold))])
        }
        RepairPolicy::AlwaysFull => tagged("always-full", vec![]),
        RepairPolicy::AlwaysIncremental => tagged("always-incremental", vec![]),
    }
}

fn repair_from_value(v: &Value) -> Result<RepairPolicy, WireError> {
    Ok(match kind(v)? {
        "auto" => RepairPolicy::Auto {
            threshold: f64_field(v, "threshold")?,
        },
        "always-full" => RepairPolicy::AlwaysFull,
        "always-incremental" => RepairPolicy::AlwaysIncremental,
        other => return Err(WireError::new(format!("unknown repair policy '{other}'"))),
    })
}

fn dispatch_to_value(d: KernelDispatch) -> Value {
    Value::str(d.label())
}

fn dispatch_from_value(v: &Value) -> Result<KernelDispatch, WireError> {
    match v.as_str() {
        Some("auto") => Ok(KernelDispatch::Auto),
        Some("scalar") => Ok(KernelDispatch::ForceScalar),
        Some(other) => Err(WireError::new(format!("unknown kernel dispatch '{other}'"))),
        None => Err(WireError::new("field 'kernel_dispatch' is not a string")),
    }
}

fn accumulation_to_value(a: Accumulation) -> Value {
    Value::str(a.label())
}

fn accumulation_from_value(v: &Value) -> Result<Accumulation, WireError> {
    match v.as_str() {
        Some("f64") => Ok(Accumulation::F64),
        Some("f32") => Ok(Accumulation::F32),
        Some(other) => Err(WireError::new(format!("unknown accumulation '{other}'"))),
        None => Err(WireError::new("field 'accumulation' is not a string")),
    }
}

fn constants_to_value(c: &Constants) -> Value {
    Value::Object(vec![
        ("c1_cap".into(), Value::Float(c.c1_cap)),
        ("c2_mass".into(), Value::Float(c.c2_mass)),
        ("p_max".into(), Value::Float(c.p_max)),
        ("c0".into(), Value::Float(c.c0)),
        ("c1".into(), Value::Float(c.c1)),
        ("c2".into(), Value::Float(c.c2)),
        ("c3".into(), Value::Float(c.c3)),
        ("c_prime".into(), Value::UInt(u64::from(c.c_prime))),
        ("c_eps".into(), Value::Float(c.c_eps)),
        ("c_bcast".into(), Value::Float(c.c_bcast)),
        ("dissem_factor".into(), Value::Float(c.dissem_factor)),
        ("hop_factor".into(), Value::Float(c.hop_factor)),
    ])
}

fn constants_from_value(v: &Value) -> Result<Constants, WireError> {
    Ok(Constants {
        c1_cap: f64_field(v, "c1_cap")?,
        c2_mass: f64_field(v, "c2_mass")?,
        p_max: f64_field(v, "p_max")?,
        c0: f64_field(v, "c0")?,
        c1: f64_field(v, "c1")?,
        c2: f64_field(v, "c2")?,
        c3: f64_field(v, "c3")?,
        c_prime: u32_field(v, "c_prime")?,
        c_eps: f64_field(v, "c_eps")?,
        c_bcast: f64_field(v, "c_bcast")?,
        dissem_factor: f64_field(v, "dissem_factor")?,
        hop_factor: f64_field(v, "hop_factor")?,
    })
}

fn mobility_to_value(s: &MobilitySpec) -> Value {
    let model = match s.model {
        MobilityModel::RandomWaypoint {
            speed,
            pause_epochs,
        } => tagged(
            "random-waypoint",
            vec![
                ("speed".into(), Value::Float(speed)),
                ("pause_epochs".into(), Value::UInt(pause_epochs)),
            ],
        ),
        MobilityModel::Drift { speed } => {
            tagged("drift", vec![("speed".into(), Value::Float(speed))])
        }
        MobilityModel::TeleportChurn { fraction } => tagged(
            "teleport-churn",
            vec![("fraction".into(), Value::Float(fraction))],
        ),
    };
    Value::Object(vec![
        ("model".into(), model),
        ("epoch_rounds".into(), Value::UInt(s.epoch_rounds)),
    ])
}

fn mobility_from_value(v: &Value) -> Result<MobilitySpec, WireError> {
    let m = field(v, "model")?;
    let model = match kind(m)? {
        "random-waypoint" => MobilityModel::RandomWaypoint {
            speed: f64_field(m, "speed")?,
            pause_epochs: u64_field(m, "pause_epochs")?,
        },
        "drift" => MobilityModel::Drift {
            speed: f64_field(m, "speed")?,
        },
        "teleport-churn" => MobilityModel::TeleportChurn {
            fraction: f64_field(m, "fraction")?,
        },
        other => return Err(WireError::new(format!("unknown mobility model '{other}'"))),
    };
    Ok(MobilitySpec {
        model,
        epoch_rounds: u64_field(v, "epoch_rounds")?,
    })
}

fn churn_to_value(s: &ChurnSpec) -> Value {
    Value::Object(vec![
        ("arrival_rate".into(), Value::Float(s.model.arrival_rate)),
        ("mean_lifetime".into(), Value::Float(s.model.mean_lifetime)),
        ("epoch_rounds".into(), Value::UInt(s.epoch_rounds)),
    ])
}

fn churn_from_value(v: &Value) -> Result<ChurnSpec, WireError> {
    Ok(ChurnSpec {
        model: ChurnModel {
            arrival_rate: f64_field(v, "arrival_rate")?,
            mean_lifetime: f64_field(v, "mean_lifetime")?,
        },
        epoch_rounds: u64_field(v, "epoch_rounds")?,
    })
}

fn adversary_to_value(s: &AdversarySpec) -> Value {
    let models = s
        .models
        .iter()
        .map(|m| match *m {
            AdversaryModel::CutVertexKill { fraction, at_epoch } => tagged(
                "cut-vertex-kill",
                vec![
                    ("fraction".into(), Value::Float(fraction)),
                    ("at_epoch".into(), Value::UInt(at_epoch)),
                ],
            ),
            AdversaryModel::PhaseCrashBurst {
                kills,
                every_phases,
            } => tagged(
                "phase-crash-burst",
                vec![
                    ("kills".into(), usize_value(kills)),
                    ("every_phases".into(), Value::UInt(every_phases)),
                ],
            ),
            AdversaryModel::Jam { jammers } => {
                tagged("jam", vec![("jammers".into(), usize_value(jammers))])
            }
            AdversaryModel::Blackout {
                fraction,
                outage_epochs,
            } => tagged(
                "blackout",
                vec![
                    ("fraction".into(), Value::Float(fraction)),
                    ("outage_epochs".into(), Value::UInt(outage_epochs)),
                ],
            ),
        })
        .collect();
    Value::Object(vec![
        ("models".into(), Value::Array(models)),
        ("epoch_rounds".into(), Value::UInt(s.epoch_rounds)),
    ])
}

fn adversary_from_value(v: &Value) -> Result<AdversarySpec, WireError> {
    let mut models = Vec::new();
    for m in array_field(v, "models")? {
        models.push(match kind(m)? {
            "cut-vertex-kill" => AdversaryModel::CutVertexKill {
                fraction: f64_field(m, "fraction")?,
                at_epoch: u64_field(m, "at_epoch")?,
            },
            "phase-crash-burst" => AdversaryModel::PhaseCrashBurst {
                kills: usize_field(m, "kills")?,
                every_phases: u64_field(m, "every_phases")?,
            },
            "jam" => AdversaryModel::Jam {
                jammers: usize_field(m, "jammers")?,
            },
            "blackout" => AdversaryModel::Blackout {
                fraction: f64_field(m, "fraction")?,
                outage_epochs: u64_field(m, "outage_epochs")?,
            },
            other => return Err(WireError::new(format!("unknown adversary model '{other}'"))),
        });
    }
    Ok(AdversarySpec {
        models,
        epoch_rounds: u64_field(v, "epoch_rounds")?,
    })
}

// ---------------------------------------------------------------------
// ScenarioSpec
// ---------------------------------------------------------------------

/// The wire form of a scenario: every [`Scenario`] builder knob that is
/// plain data (topology, protocol, physics parameters, constants,
/// execution knobs, dynamics). Observers are deliberately absent — they
/// are process-local closures; hosts attach their own (e.g. the
/// `sinr-serve` streaming observer) after [`ScenarioSpec::to_scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Deployment family.
    pub topology: TopologySpec,
    /// Protocol to run.
    pub protocol: ProtocolSpec,
    /// Path-loss exponent α.
    pub alpha: f64,
    /// Decode threshold β.
    pub beta: f64,
    /// Ambient noise N.
    pub noise: f64,
    /// Communication-graph slack ε.
    pub eps: f64,
    /// Weak-sensitivity parameter γ.
    pub gamma: f64,
    /// Protocol constants.
    pub constants: Constants,
    /// Round budget (`None` only for fixed-schedule protocols).
    pub budget: Option<u64>,
    /// Interference kernel.
    pub mode: InterferenceMode,
    /// Physics threads per trial.
    pub physics_threads: usize,
    /// Whether to record per-round traces into the report.
    pub record: bool,
    /// Kernel tier of the batched physics kernels (bit-neutral knob).
    pub kernel_dispatch: KernelDispatch,
    /// Precision of the grid-native interference tail sum.
    pub accumulation: Accumulation,
    /// Epoch-boundary structure repair policy.
    pub repair: RepairPolicy,
    /// Motion model, if the topology is dynamic.
    pub mobility: Option<MobilitySpec>,
    /// Population model, if stations churn.
    pub churn: Option<ChurnSpec>,
    /// Fault injection, if adversarial.
    pub adversary: Option<AdversarySpec>,
}

impl ScenarioSpec {
    /// A spec with the default execution knobs ([`SinrParams::default_plane`]
    /// physics, tuned constants, exact interference, one physics thread,
    /// no recording, default repair, no dynamics).
    pub fn new(topology: TopologySpec, protocol: ProtocolSpec) -> Self {
        let params = SinrParams::default_plane();
        ScenarioSpec {
            topology,
            protocol,
            alpha: params.alpha(),
            beta: params.beta(),
            noise: params.noise(),
            eps: params.eps(),
            gamma: params.gamma(),
            constants: Constants::tuned(),
            budget: None,
            mode: InterferenceMode::Exact,
            physics_threads: 1,
            record: false,
            kernel_dispatch: KernelDispatch::default(),
            accumulation: Accumulation::default(),
            repair: RepairPolicy::default(),
            mobility: None,
            churn: None,
            adversary: None,
        }
    }

    /// The spec as a wire value (canonical field order).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("topology".into(), topology_to_value(&self.topology)),
            ("protocol".into(), protocol_to_value(&self.protocol)),
            ("alpha".into(), Value::Float(self.alpha)),
            ("beta".into(), Value::Float(self.beta)),
            ("noise".into(), Value::Float(self.noise)),
            ("eps".into(), Value::Float(self.eps)),
            ("gamma".into(), Value::Float(self.gamma)),
            ("constants".into(), constants_to_value(&self.constants)),
            ("budget".into(), opt_u64_value(self.budget)),
            ("mode".into(), mode_to_value(self.mode)),
            ("physics_threads".into(), usize_value(self.physics_threads)),
            ("record".into(), Value::Bool(self.record)),
            (
                "kernel_dispatch".into(),
                dispatch_to_value(self.kernel_dispatch),
            ),
            (
                "accumulation".into(),
                accumulation_to_value(self.accumulation),
            ),
            ("repair".into(), repair_to_value(self.repair)),
            (
                "mobility".into(),
                self.mobility
                    .as_ref()
                    .map_or(Value::Null, mobility_to_value),
            ),
            (
                "churn".into(),
                self.churn.as_ref().map_or(Value::Null, churn_to_value),
            ),
            (
                "adversary".into(),
                self.adversary
                    .as_ref()
                    .map_or(Value::Null, adversary_to_value),
            ),
        ])
    }

    /// Decodes a spec from a wire value.
    ///
    /// # Errors
    ///
    /// [`WireError`] on missing/mistyped fields or unknown enum tags.
    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        let opt = |key: &str| -> Result<Option<&Value>, WireError> {
            let f = field(v, key)?;
            Ok(if f.is_null() { None } else { Some(f) })
        };
        Ok(ScenarioSpec {
            topology: topology_from_value(field(v, "topology")?)?,
            protocol: protocol_from_value(field(v, "protocol")?)?,
            alpha: f64_field(v, "alpha")?,
            beta: f64_field(v, "beta")?,
            noise: f64_field(v, "noise")?,
            eps: f64_field(v, "eps")?,
            gamma: f64_field(v, "gamma")?,
            constants: constants_from_value(field(v, "constants")?)?,
            budget: opt_u64_field(v, "budget")?,
            mode: mode_from_value(field(v, "mode")?)?,
            physics_threads: usize_field(v, "physics_threads")?,
            record: bool_field(v, "record")?,
            kernel_dispatch: dispatch_from_value(field(v, "kernel_dispatch")?)?,
            accumulation: accumulation_from_value(field(v, "accumulation")?)?,
            repair: repair_from_value(field(v, "repair")?)?,
            mobility: opt("mobility")?.map(mobility_from_value).transpose()?,
            churn: opt("churn")?.map(churn_from_value).transpose()?,
            adversary: opt("adversary")?.map(adversary_from_value).transpose()?,
        })
    }

    /// Canonical text encoding.
    pub fn encode(&self) -> String {
        self.to_value().encode()
    }

    /// Parses and decodes a spec from canonical (or any well-formed)
    /// text.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed JSON or schema mismatches.
    pub fn decode(text: &str) -> Result<Self, WireError> {
        Self::from_value(&Value::parse(text)?)
    }

    /// Rebuilds the in-process [`Scenario`] this spec describes. The
    /// caller may attach observers before `build()` — exactly what the
    /// server does with its streaming observer.
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] when the physics parameters are invalid;
    /// later validation happens at [`Scenario::build`].
    pub fn to_scenario(&self) -> Result<Scenario<Point2>, SimError> {
        let params = SinrParams::builder()
            .alpha(self.alpha)
            .beta(self.beta)
            .noise(self.noise)
            .eps(self.eps)
            .build(self.gamma)
            .map_err(|e| SimError::Spec(format!("invalid SINR parameters: {e}")))?;
        let mut sc = Scenario::new(self.topology.clone())
            .protocol(self.protocol.clone())
            .params(params)
            .constants(self.constants)
            .interference_mode(self.mode)
            .physics_threads(self.physics_threads)
            .kernel_dispatch(self.kernel_dispatch)
            .accumulation(self.accumulation)
            .repair_policy(self.repair);
        if let Some(budget) = self.budget {
            sc = sc.budget(budget);
        }
        if self.record {
            sc = sc.record_rounds();
        }
        if let Some(mobility) = self.mobility {
            sc = sc.mobility(mobility);
        }
        if let Some(churn) = self.churn {
            sc = sc.churn(churn);
        }
        if let Some(adversary) = self.adversary.clone() {
            sc = sc.adversary(adversary);
        }
        Ok(sc)
    }
}

// ---------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------

fn outcome_to_value(o: &Outcome) -> Value {
    match o {
        Outcome::Broadcast => tagged("broadcast", vec![]),
        Outcome::Coloring { coloring } => tagged(
            "coloring",
            vec![("colors".into(), coloring_to_value(coloring))],
        ),
        Outcome::Wakeup {
            first_wake,
            rounds_from_first_wake,
        } => tagged(
            "wakeup",
            vec![
                ("first_wake".into(), Value::UInt(*first_wake)),
                (
                    "rounds_from_first_wake".into(),
                    Value::UInt(*rounds_from_first_wake),
                ),
            ],
        ),
        Outcome::Consensus {
            decided,
            agreement,
            valid,
        } => tagged(
            "consensus",
            vec![
                (
                    "decided".into(),
                    Value::Array(decided.iter().map(|&d| opt_u64_value(d)).collect()),
                ),
                ("agreement".into(), Value::Bool(*agreement)),
                ("valid".into(), Value::Bool(*valid)),
            ],
        ),
        Outcome::Leader { leaders, unique } => tagged(
            "leader",
            vec![
                (
                    "leaders".into(),
                    Value::Array(leaders.iter().map(|&l| usize_value(l)).collect()),
                ),
                ("unique".into(), Value::Bool(*unique)),
            ],
        ),
        Outcome::Alert { learned_at } => tagged(
            "alert",
            vec![(
                "learned_at".into(),
                Value::Array(learned_at.iter().map(|&r| opt_u64_value(r)).collect()),
            )],
        ),
    }
}

fn opt_u64_array(v: &Value, key: &str, what: &str) -> Result<Vec<Option<u64>>, WireError> {
    let mut out = Vec::new();
    for item in array_field(v, key)? {
        if item.is_null() {
            out.push(None);
        } else {
            out.push(Some(item.as_u64().ok_or_else(|| {
                WireError::new(format!("{what} entry is not a u64 or null"))
            })?));
        }
    }
    Ok(out)
}

fn outcome_from_value(v: &Value) -> Result<Outcome, WireError> {
    Ok(match kind(v)? {
        "broadcast" => Outcome::Broadcast,
        "coloring" => Outcome::Coloring {
            coloring: coloring_from_value(field(v, "colors")?, "colors")?,
        },
        "wakeup" => Outcome::Wakeup {
            first_wake: u64_field(v, "first_wake")?,
            rounds_from_first_wake: u64_field(v, "rounds_from_first_wake")?,
        },
        "consensus" => Outcome::Consensus {
            decided: opt_u64_array(v, "decided", "decided")?,
            agreement: bool_field(v, "agreement")?,
            valid: bool_field(v, "valid")?,
        },
        "leader" => {
            let mut leaders = Vec::new();
            for l in array_field(v, "leaders")? {
                leaders.push(
                    l.as_usize()
                        .ok_or_else(|| WireError::new("leader id is not a usize"))?,
                );
            }
            Outcome::Leader {
                leaders,
                unique: bool_field(v, "unique")?,
            }
        }
        "alert" => Outcome::Alert {
            learned_at: opt_u64_array(v, "learned_at", "learned_at")?,
        },
        other => return Err(WireError::new(format!("unknown outcome kind '{other}'"))),
    })
}

fn fault_report_to_value(f: &FaultReport) -> Value {
    Value::Object(vec![
        ("kills".into(), Value::UInt(f.kills)),
        ("returns".into(), Value::UInt(f.returns)),
        ("jam_rounds".into(), Value::UInt(f.jam_rounds)),
        ("recovery_rounds".into(), opt_u64_value(f.recovery_rounds)),
        (
            "coverage".into(),
            Value::Array(
                f.coverage
                    .iter()
                    .map(|c| {
                        Value::Object(vec![
                            ("round".into(), Value::UInt(c.round)),
                            ("informed".into(), usize_value(c.informed)),
                            ("live".into(), usize_value(c.live)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn fault_report_from_value(v: &Value) -> Result<FaultReport, WireError> {
    let mut coverage = Vec::new();
    for c in array_field(v, "coverage")? {
        coverage.push(CoveragePoint {
            round: u64_field(c, "round")?,
            informed: usize_field(c, "informed")?,
            live: usize_field(c, "live")?,
        });
    }
    Ok(FaultReport {
        kills: u64_field(v, "kills")?,
        returns: u64_field(v, "returns")?,
        jam_rounds: u64_field(v, "jam_rounds")?,
        recovery_rounds: opt_u64_field(v, "recovery_rounds")?,
        coverage,
    })
}

/// A run report as a wire value (canonical field order).
pub fn run_report_to_value(r: &RunReport) -> Value {
    Value::Object(vec![
        ("seed".into(), Value::UInt(r.seed)),
        ("n".into(), usize_value(r.n)),
        ("rounds".into(), Value::UInt(r.rounds)),
        ("completed".into(), Value::Bool(r.completed)),
        ("informed".into(), usize_value(r.informed)),
        (
            "total_transmissions".into(),
            Value::UInt(r.total_transmissions),
        ),
        ("outcome".into(), outcome_to_value(&r.outcome)),
        (
            "per_round".into(),
            r.per_round.as_ref().map_or(Value::Null, |rounds| {
                Value::Array(
                    rounds
                        .iter()
                        .map(|s| {
                            Value::Object(vec![
                                ("round".into(), Value::UInt(s.round)),
                                ("transmitters".into(), usize_value(s.transmitters)),
                                ("receptions".into(), usize_value(s.receptions)),
                            ])
                        })
                        .collect(),
                )
            }),
        ),
        (
            "tx_counts".into(),
            r.tx_counts.as_ref().map_or(Value::Null, |counts| {
                Value::Array(counts.iter().map(|&c| Value::UInt(c)).collect())
            }),
        ),
        (
            "measurements".into(),
            Value::Object(
                // BTreeMap iterates in key order: deterministic bytes.
                r.measurements
                    .iter()
                    .map(|(k, &x)| (k.clone(), Value::Float(x)))
                    .collect(),
            ),
        ),
        (
            "faults".into(),
            r.faults.as_ref().map_or(Value::Null, fault_report_to_value),
        ),
    ])
}

/// Decodes a run report from a wire value.
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields or unknown enum tags.
pub fn run_report_from_value(v: &Value) -> Result<RunReport, WireError> {
    let per_round = {
        let f = field(v, "per_round")?;
        if f.is_null() {
            None
        } else {
            let mut rounds = Vec::new();
            for s in f
                .as_array()
                .ok_or_else(|| WireError::new("field 'per_round' is not an array or null"))?
            {
                rounds.push(RoundStats {
                    round: u64_field(s, "round")?,
                    transmitters: usize_field(s, "transmitters")?,
                    receptions: usize_field(s, "receptions")?,
                });
            }
            Some(rounds)
        }
    };
    let tx_counts = {
        let f = field(v, "tx_counts")?;
        if f.is_null() {
            None
        } else {
            let mut counts = Vec::new();
            for c in f
                .as_array()
                .ok_or_else(|| WireError::new("field 'tx_counts' is not an array or null"))?
            {
                counts.push(
                    c.as_u64()
                        .ok_or_else(|| WireError::new("tx count is not a u64"))?,
                );
            }
            Some(counts)
        }
    };
    let mut measurements = BTreeMap::new();
    for (k, x) in field(v, "measurements")?
        .as_object()
        .ok_or_else(|| WireError::new("field 'measurements' is not an object"))?
    {
        measurements.insert(
            k.clone(),
            x.as_f64()
                .ok_or_else(|| WireError::new(format!("measurement '{k}' is not a number")))?,
        );
    }
    let faults = {
        let f = field(v, "faults")?;
        if f.is_null() {
            None
        } else {
            Some(fault_report_from_value(f)?)
        }
    };
    Ok(RunReport {
        seed: u64_field(v, "seed")?,
        n: usize_field(v, "n")?,
        rounds: u64_field(v, "rounds")?,
        completed: bool_field(v, "completed")?,
        informed: usize_field(v, "informed")?,
        total_transmissions: u64_field(v, "total_transmissions")?,
        outcome: outcome_from_value(field(v, "outcome")?)?,
        per_round,
        tx_counts,
        measurements,
        faults,
    })
}

/// Canonical text encoding of a run report — the bytes the server
/// streams; byte-equality of two encodings is exactly report equality.
pub fn encode_run_report(r: &RunReport) -> String {
    run_report_to_value(r).encode()
}

/// Parses and decodes a run report.
///
/// # Errors
///
/// [`WireError`] on malformed JSON or schema mismatches.
pub fn decode_run_report(text: &str) -> Result<RunReport, WireError> {
    run_report_from_value(&Value::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report() -> RunReport {
        let mut measurements = BTreeMap::new();
        measurements.insert("load/mean".to_string(), 0.125);
        measurements.insert("load/max".to_string(), 3.0);
        RunReport {
            seed: u64::MAX - 7,
            n: 40,
            rounds: 611,
            completed: true,
            informed: 39,
            total_transmissions: 12_345,
            outcome: Outcome::Broadcast,
            per_round: Some(vec![
                RoundStats {
                    round: 1,
                    transmitters: 1,
                    receptions: 3,
                },
                RoundStats {
                    round: 2,
                    transmitters: 4,
                    receptions: 0,
                },
            ]),
            tx_counts: Some(vec![7, 0, 2, 9]),
            measurements,
            faults: Some(FaultReport {
                kills: 8,
                returns: 2,
                jam_rounds: 96,
                recovery_rounds: Some(62),
                coverage: vec![
                    CoveragePoint {
                        round: 0,
                        informed: 1,
                        live: 40,
                    },
                    CoveragePoint {
                        round: 24,
                        informed: 17,
                        live: 36,
                    },
                ],
            }),
        }
    }

    #[test]
    fn run_report_roundtrip_bytes_and_value() {
        let report = full_report();
        let text = encode_run_report(&report);
        let back = decode_run_report(&text).expect("canonical report decodes");
        assert_eq!(back, report, "report value corrupted by the wire");
        assert_eq!(
            encode_run_report(&back),
            text,
            "encode -> decode -> encode not byte-identical"
        );
    }

    #[test]
    fn run_report_golden_bytes() {
        // A small report with every Option absent: the canonical bytes
        // are part of the wire contract (changing them breaks clients).
        let report = RunReport {
            seed: 2014,
            n: 3,
            rounds: 5,
            completed: false,
            informed: 2,
            total_transmissions: 9,
            outcome: Outcome::Broadcast,
            per_round: None,
            tx_counts: None,
            measurements: BTreeMap::new(),
            faults: None,
        };
        assert_eq!(
            encode_run_report(&report),
            "{\"seed\":2014,\"n\":3,\"rounds\":5,\"completed\":false,\"informed\":2,\
             \"total_transmissions\":9,\"outcome\":{\"kind\":\"broadcast\"},\
             \"per_round\":null,\"tx_counts\":null,\"measurements\":{},\"faults\":null}"
        );
    }

    #[test]
    fn outcome_variants_roundtrip() {
        let outcomes = vec![
            Outcome::Broadcast,
            Outcome::Coloring {
                coloring: Coloring::new(vec![0.5, 0.25, 0.0]),
            },
            Outcome::Wakeup {
                first_wake: 3,
                rounds_from_first_wake: 41,
            },
            Outcome::Consensus {
                decided: vec![Some(4), None, Some(4)],
                agreement: false,
                valid: false,
            },
            Outcome::Leader {
                leaders: vec![11],
                unique: true,
            },
            Outcome::Alert {
                learned_at: vec![None, Some(17)],
            },
        ];
        for outcome in outcomes {
            let v = outcome_to_value(&outcome);
            let text = v.encode();
            let back = outcome_from_value(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(back, outcome);
            assert_eq!(outcome_to_value(&back).encode(), text);
        }
    }

    #[test]
    fn scenario_spec_roundtrip() {
        let mut spec = ScenarioSpec::new(
            TopologySpec::UniformSquare { n: 60, side: 2.0 },
            ProtocolSpec::ReFloodBroadcastEstimate {
                source: 0,
                nu0: 60,
                burst_rounds: 48,
            },
        );
        spec.budget = Some(600);
        spec.mode = InterferenceMode::grid_native();
        spec.record = true;
        spec.kernel_dispatch = KernelDispatch::ForceScalar;
        spec.mobility = Some(MobilitySpec::random_waypoint(0.2, 8));
        spec.churn = Some(ChurnSpec::poisson(1.0, 10.0, 8));
        spec.adversary = Some(AdversarySpec::cut_vertex_kill(0.2, 1, 24));
        let text = spec.encode();
        let back = ScenarioSpec::decode(&text).expect("canonical spec decodes");
        assert_eq!(back, spec);
        assert_eq!(back.encode(), text, "spec encode not byte-stable");
        // And it still builds a runnable scenario.
        let report = back.to_scenario().unwrap().build().unwrap().run(7).unwrap();
        assert_eq!(report.seed, 7);
        assert!(report.per_round.is_some(), "record knob survived the wire");
    }

    #[test]
    fn kernel_knobs_roundtrip_and_reject_unknown_tags() {
        let mut spec = ScenarioSpec::new(
            TopologySpec::UniformSquare { n: 20, side: 1.0 },
            ProtocolSpec::NoSBroadcast { source: 0 },
        );
        spec.budget = Some(50);
        assert_eq!(spec.kernel_dispatch, KernelDispatch::Auto);
        assert_eq!(spec.accumulation, Accumulation::F64);
        spec.kernel_dispatch = KernelDispatch::ForceScalar;
        spec.accumulation = Accumulation::F32;
        let text = spec.encode();
        assert!(text.contains("\"kernel_dispatch\":\"scalar\""));
        assert!(text.contains("\"accumulation\":\"f32\""));
        let back = ScenarioSpec::decode(&text).unwrap();
        assert_eq!(back, spec);
        // The F32 build()-rejection applies to wire-decoded scenarios too.
        let sim = back.to_scenario().unwrap().record_rounds().build();
        assert!(matches!(sim, Err(SimError::Spec(_))));
        assert!(back.to_scenario().unwrap().build().is_ok());
        for bad in [
            text.replace(
                "\"kernel_dispatch\":\"scalar\"",
                "\"kernel_dispatch\":\"avx9\"",
            ),
            text.replace("\"accumulation\":\"f32\"", "\"accumulation\":\"f16\""),
        ] {
            assert!(ScenarioSpec::decode(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn scenario_spec_covers_every_protocol_tag() {
        // Each ProtocolSpec variant must survive the wire: `name()` is
        // the tag, so a new variant without a codec arm fails here.
        let coloring = Coloring::new(vec![0.5, 0.25]);
        let protocols = vec![
            ProtocolSpec::NoSBroadcast { source: 0 },
            ProtocolSpec::NoSBroadcastWithEstimate { source: 0, nu: 8 },
            ProtocolSpec::SBroadcast { source: 1 },
            ProtocolSpec::SBroadcastWithEstimate { source: 1, nu: 9 },
            ProtocolSpec::Coloring,
            ProtocolSpec::DaumBroadcast {
                source: 0,
                granularity: Some(2.5),
            },
            ProtocolSpec::DaumBroadcast {
                source: 0,
                granularity: None,
            },
            ProtocolSpec::FloodBroadcast { source: 0, p: 0.1 },
            ProtocolSpec::LocalBroadcast { source: 2 },
            ProtocolSpec::ReFloodBroadcast {
                source: 0,
                p: 0.25,
                burst_rounds: 24,
            },
            ProtocolSpec::ReFloodBroadcastEstimate {
                source: 0,
                nu0: 2,
                burst_rounds: 48,
            },
            ProtocolSpec::NoSBroadcastOnlineEstimate { source: 0, nu0: 2 },
            ProtocolSpec::SBroadcastOnlineEstimate { source: 0, nu0: 4 },
            ProtocolSpec::GpsOracleBroadcast { source: 0 },
            ProtocolSpec::AdhocWakeup {
                schedule: WakeSchedule::AllAt(0),
            },
            ProtocolSpec::AdhocWakeup {
                schedule: WakeSchedule::Selected(vec![(0, 3), (4, 1)]),
            },
            ProtocolSpec::AdhocWakeup {
                schedule: WakeSchedule::Staggered { start: 2, gap: 5 },
            },
            ProtocolSpec::EstablishedWakeup {
                coloring: coloring.clone(),
                initiators: vec![true, false],
            },
            ProtocolSpec::Consensus {
                values: vec![3, 1],
                bits: 2,
                d_bound: 4,
            },
            ProtocolSpec::LeaderElection { d_bound: 3 },
            ProtocolSpec::Alert {
                coloring,
                alerts: vec![(0, 5)],
                d_bound: 4,
            },
        ];
        for protocol in protocols {
            let v = protocol_to_value(&protocol);
            let back = protocol_from_value(&Value::parse(&v.encode()).unwrap()).unwrap();
            assert_eq!(back, protocol);
        }
    }

    #[test]
    fn scenario_spec_covers_every_topology_tag() {
        let topologies = vec![
            TopologySpec::UniformSquare { n: 4, side: 1.0 },
            TopologySpec::ConnectedSquare { n: 4, side: 1.0 },
            TopologySpec::ConnectedSquareDensity {
                n: 4,
                density: 40.0,
            },
            TopologySpec::UniformDisk { n: 4, radius: 2.0 },
            TopologySpec::Lattice {
                rows: 2,
                cols: 2,
                spacing: 0.5,
            },
            TopologySpec::JitteredLattice {
                rows: 2,
                cols: 2,
                spacing: 0.5,
                amplitude: 0.1,
            },
            TopologySpec::UniformLine { n: 4, gap: 0.5 },
            TopologySpec::HalvingLine {
                n: 4,
                first_gap: 0.9,
                ratio: 0.5,
                min_gap: 0.01,
            },
            TopologySpec::GranularityLine {
                n: 4,
                max_gap: 0.9,
                rs_target: 8.0,
                min_gap: 0.01,
            },
            TopologySpec::GranularityLineFixedD {
                n: 4,
                max_gap: 0.9,
                rs_target: 8.0,
                d_hops: 3,
                min_gap: 0.01,
            },
            TopologySpec::ClusterChain {
                diameter: 3,
                per_cluster: 8,
            },
            TopologySpec::GaussianClusters {
                k: 2,
                per_cluster: 4,
                side: 2.0,
                sigma: 0.1,
            },
            TopologySpec::CoreAndSatellites {
                core_n: 4,
                sat_n: 2,
                core_radius: 0.5,
                sat_distance: 2.0,
            },
            TopologySpec::Ring { n: 6, radius: 1.0 },
            TopologySpec::Bridge {
                blob_n: 4,
                corridor_n: 2,
                blob_side: 1.0,
            },
            TopologySpec::TwoTier {
                dense_n: 4,
                ratio: 2,
                side: 1.5,
            },
        ];
        for topology in topologies {
            let v = topology_to_value(&topology);
            let back = topology_from_value(&Value::parse(&v.encode()).unwrap()).unwrap();
            assert_eq!(back, topology);
        }
    }

    #[test]
    fn malformed_specs_rejected() {
        assert!(ScenarioSpec::decode("not json").is_err());
        assert!(ScenarioSpec::decode("{}").is_err());
        let mut spec = ScenarioSpec::new(
            TopologySpec::UniformSquare { n: 4, side: 1.0 },
            ProtocolSpec::SBroadcast { source: 0 },
        )
        .encode();
        // Corrupt the protocol tag.
        spec = spec.replace("s-broadcast", "no-such-protocol");
        assert!(ScenarioSpec::decode(&spec).is_err());
        assert!(decode_run_report("{\"seed\":1}").is_err());
    }

    #[test]
    fn only_exact_and_grid_native_modes_decode() {
        let mut spec = ScenarioSpec::new(
            TopologySpec::UniformSquare { n: 4, side: 1.0 },
            ProtocolSpec::SBroadcast { source: 0 },
        );
        spec.mode = InterferenceMode::grid_native();
        let text = spec.encode();
        let mode = mode_to_value(spec.mode).encode();
        assert!(text.contains(&mode));
        for gone in [
            "{\"kind\":\"truncated\",\"radius\":4.0}",
            "{\"kind\":\"cell-aggregate\",\"near_radius\":4.0}",
        ] {
            let err = ScenarioSpec::decode(&text.replace(&mode, gone)).unwrap_err();
            assert!(
                err.to_string().contains("unknown interference mode"),
                "{err}"
            );
        }
    }
}
