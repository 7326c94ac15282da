//! Seeded fuzz of the served request path.
//!
//! A few thousand mutations of valid `submit`, `attach` and `ping` lines
//! and of one canonical report go through [`Value::parse`], then through
//! what `sinr-serve` runs on them: a `submit`'s spec through
//! [`ScenarioSpec::from_value`], `to_scenario()` and `build()` (the
//! server runs that chain outside any `catch_unwind`, so a panic there
//! would take down a connection's handler), and a report through
//! [`decode_run_report`]. Nothing may panic, and every value that decodes
//! re-encodes to a fixed point. The mutated specs are built, never run.

use std::panic::{self, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sinr_core::sim::{
    decode_run_report, encode_run_report, AdversarySpec, ChurnSpec, MobilitySpec, ProtocolSpec,
    ScenarioSpec, TopologySpec,
};
use sinr_phy::InterferenceMode;
use sinr_runtime::WakeSchedule;
use sinr_wire::Value;

/// Mutated inputs per run.
const CASES: usize = 4_000;

/// What a mutated numeric field is set to.
const NUMBERS: [&str; 4] = ["0", "-1", "18446744073709551615", "1e300"];

fn dynamic_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        TopologySpec::UniformSquare { n: 40, side: 2.0 },
        ProtocolSpec::ReFloodBroadcastEstimate {
            source: 0,
            nu0: 40,
            burst_rounds: 48,
        },
    );
    spec.budget = Some(200);
    spec.mode = InterferenceMode::grid_native();
    spec.record = true;
    spec.mobility = Some(MobilitySpec::random_waypoint(0.2, 8));
    spec.churn = Some(ChurnSpec::poisson(1.0, 10.0, 8));
    spec.adversary = Some(AdversarySpec::cut_vertex_kill(0.2, 1, 24));
    spec
}

fn valid_specs() -> Vec<ScenarioSpec> {
    let mut served = ScenarioSpec::new(
        TopologySpec::ConnectedSquareDensity {
            n: 500,
            density: 30.0,
        },
        ProtocolSpec::SBroadcast { source: 0 },
    );
    served.budget = Some(100_000);
    served.mode = InterferenceMode::grid_native();
    let mut wakeup = ScenarioSpec::new(
        TopologySpec::HalvingLine {
            n: 16,
            first_gap: 0.9,
            ratio: 0.5,
            min_gap: 0.01,
        },
        ProtocolSpec::AdhocWakeup {
            schedule: WakeSchedule::Selected(vec![(0, 3), (4, 1)]),
        },
    );
    wakeup.budget = Some(500);
    let consensus = ScenarioSpec::new(
        TopologySpec::Lattice {
            rows: 3,
            cols: 4,
            spacing: 0.5,
        },
        ProtocolSpec::Consensus {
            values: vec![3, 1, 2],
            bits: 2,
            d_bound: 4,
        },
    );
    vec![dynamic_spec(), served, wakeup, consensus]
}

fn submit_line(spec: &ScenarioSpec, seeds: &[u64]) -> String {
    Value::Object(vec![
        ("op".into(), Value::str("submit")),
        ("spec".into(), spec.to_value()),
        (
            "seeds".into(),
            Value::Array(seeds.iter().map(|&s| Value::UInt(s)).collect()),
        ),
        ("stream".into(), Value::Bool(true)),
    ])
    .encode()
}

/// Byte offsets of the number literals in canonical JSON text.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_string = true;
            i += 1;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// One random edit of `text`: a byte flip, a truncation, a duplicated
/// span, or (twice as likely, since it keeps the text well-formed) a
/// numeric field set to an extreme.
fn mutate(rng: &mut SmallRng, text: &mut Vec<u8>) {
    if text.is_empty() {
        return;
    }
    let len = text.len();
    match rng.gen_range(0..5u32) {
        0 => {
            // Flip one of the low seven bits, so the text stays ASCII.
            let at = rng.gen_range(0..len);
            text[at] ^= 1 << rng.gen_range(0..7u32);
        }
        1 => text.truncate(rng.gen_range(0..len)),
        2 => {
            let start = rng.gen_range(0..len);
            let end = rng.gen_range(start..=len.min(start + 64));
            let span = text[start..end].to_vec();
            let at = rng.gen_range(0..=len);
            text.splice(at..at, span);
        }
        _ => {
            let Ok(current) = std::str::from_utf8(text) else {
                return;
            };
            let spans = number_spans(current);
            if spans.is_empty() {
                return;
            }
            let (start, end) = spans[rng.gen_range(0..spans.len())];
            let number = NUMBERS[rng.gen_range(0..NUMBERS.len())];
            text.splice(start..end, number.bytes());
        }
    }
}

fn assert_value_fixed_point(value: &Value) {
    let once = value.encode();
    let again = Value::parse(&once)
        .expect("a re-encoded value parses")
        .encode();
    assert_eq!(again, once, "Value re-encoding is not a fixed point");
}

/// What `sinr-serve` does with a `submit`'s spec, short of running it.
/// Returns whether the spec decoded.
fn check_spec(spec_value: &Value) -> bool {
    let Ok(spec) = ScenarioSpec::from_value(spec_value) else {
        return false;
    };
    let once = spec.encode();
    let again = ScenarioSpec::decode(&once)
        .expect("a re-encoded spec decodes")
        .encode();
    assert_eq!(again, once, "spec re-encoding is not a fixed point");
    let _ = spec.to_scenario().and_then(|scenario| scenario.build());
    true
}

/// Returns whether the report decoded.
fn check_report(text: &str) -> bool {
    let Ok(report) = decode_run_report(text) else {
        return false;
    };
    let once = encode_run_report(&report);
    let again = encode_run_report(&decode_run_report(&once).expect("a re-encoded report decodes"));
    assert_eq!(again, once, "report re-encoding is not a fixed point");
    true
}

/// `None` when `text` does not parse, else whether it decoded past
/// [`Value::parse`] (a spec or a report).
fn check(text: &str, is_report: bool) -> Option<bool> {
    let value = Value::parse(text).ok()?;
    assert_value_fixed_point(&value);
    Some(if is_report {
        check_report(text)
    } else {
        value.get("spec").is_some_and(check_spec)
    })
}

#[test]
fn mutated_requests_and_reports_never_panic_and_reencode_to_fixed_points() {
    let specs = valid_specs();
    let mut requests: Vec<String> = specs
        .iter()
        .map(|spec| submit_line(spec, &[1, 2, u64::MAX]))
        .collect();
    requests.push(r#"{"op":"attach","job":7}"#.to_string());
    requests.push(r#"{"op":"ping"}"#.to_string());
    let report = dynamic_spec()
        .to_scenario()
        .and_then(|scenario| scenario.build())
        .and_then(|sim| sim.run(3))
        .expect("the unmutated dynamic spec runs");
    let report = encode_run_report(&report);

    // The unmutated inputs decode and are fixed points already.
    for line in &requests[..specs.len()] {
        assert_eq!(check(line, false), Some(true), "{line}");
    }
    for line in &requests[specs.len()..] {
        assert_eq!(check(line, false), Some(false), "{line}");
    }
    assert_eq!(check(&report, true), Some(true));

    let mut rng = SmallRng::seed_from_u64(0x5eed_f022);
    let (mut parsed, mut decoded) = (0usize, 0usize);
    for case in 0..CASES {
        let is_report = case % 4 == 0;
        let base = if is_report {
            &report
        } else {
            &requests[rng.gen_range(0..requests.len())]
        };
        let mut bytes = base.clone().into_bytes();
        for _ in 0..rng.gen_range(1..=2u32) {
            mutate(&mut rng, &mut bytes);
        }
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        let ran = panic::catch_unwind(AssertUnwindSafe(|| check(&text, is_report)));
        let Ok(outcome) = ran else {
            panic!("case {case} panicked on input {text:?}");
        };
        if let Some(decodes) = outcome {
            parsed += 1;
            decoded += usize::from(decodes);
        }
    }
    // The mutations must leave enough inputs well-formed for the decoders
    // past `Value::parse` to see them.
    assert!(parsed > CASES / 4, "only {parsed} of {CASES} inputs parsed");
    assert!(
        decoded > CASES / 10,
        "only {decoded} of {CASES} inputs decoded"
    );
}
