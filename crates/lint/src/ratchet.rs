//! The panic-surface ratchet: a committed baseline of `unwrap()`/`expect(`
//! counts per hot crate that may shrink but never grow.
//!
//! The baseline lives in `lint-ratchet.toml` at the workspace root. The
//! parser handles exactly the subset of TOML the file uses (comments, one
//! `[panic-surface]` table, `key = integer` entries) — the build has no
//! registry, so no toml crate.

use std::collections::BTreeMap;
use std::fmt;

use crate::rules::{Diagnostic, Rule};

/// File name of the committed baseline, relative to the linted root.
pub const RATCHET_FILE: &str = "lint-ratchet.toml";

/// Parsed baseline: crate name → allowed `unwrap()`/`expect(` count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ratchet {
    /// Per-crate ceilings.
    pub counts: BTreeMap<String, u64>,
}

/// A baseline entry whose measured count moved, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// Crate whose count moved.
    pub krate: String,
    /// Committed ceiling.
    pub baseline: u64,
    /// Measured count.
    pub actual: u64,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: baseline {} -> actual {}",
            self.krate, self.baseline, self.actual
        )
    }
}

impl Ratchet {
    /// Parses the baseline file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on any syntax it does
    /// not understand — the file is hand-maintained, so fail loudly.
    pub fn parse(text: &str) -> Result<Ratchet, String> {
        let mut counts = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with('[') {
                if line != "[panic-surface]" {
                    return Err(format!(
                        "{RATCHET_FILE}:{}: unknown table `{line}` (expected `[panic-surface]`)",
                        idx + 1
                    ));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "{RATCHET_FILE}:{}: expected `crate = count`, got `{line}`",
                    idx + 1
                ));
            };
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim();
            // Strip a trailing same-line comment.
            let value = value.split('#').next().unwrap_or("").trim();
            let count: u64 = value.parse().map_err(|_| {
                format!(
                    "{RATCHET_FILE}:{}: count for `{key}` is not an integer: `{value}`",
                    idx + 1
                )
            })?;
            counts.insert(key, count);
        }
        Ok(Ratchet { counts })
    }

    /// Renders the baseline back to its canonical committed form.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Panic-surface ratchet: `unwrap()`/`expect(` counts in non-test code\n\
             # per hot crate. `sinr-lint --check` fails if any count GROWS; shrink\n\
             # the debt, then lower the ceiling with `sinr-lint --ratchet-update`.\n\
             # See README.md \"Static analysis\".\n\
             \n\
             [panic-surface]\n",
        );
        for (krate, count) in &self.counts {
            out.push_str(&format!("{krate} = {count}\n"));
        }
        out
    }

    /// Compares measured counts against the baseline. Returns ratchet
    /// violations (count grew) as diagnostics pointing at the baseline
    /// file, and improvements (count shrank) separately so the caller can
    /// suggest `--ratchet-update` without failing.
    pub fn compare(&self, actual: &BTreeMap<String, u64>) -> (Vec<Diagnostic>, Vec<Drift>) {
        let mut violations = Vec::new();
        let mut improvements = Vec::new();
        for (krate, &measured) in actual {
            let baseline = self.counts.get(krate).copied();
            let entry_line = self.entry_line(krate);
            match baseline {
                Some(ceiling) if measured > ceiling => violations.push(Diagnostic {
                    path: RATCHET_FILE.to_string(),
                    line: entry_line,
                    rule: Rule::PanicRatchet,
                    message: format!(
                        "crate `{krate}` has {measured} `unwrap()`/`expect(` calls in \
                         non-test code, above the committed ceiling of {ceiling}; handle \
                         the error instead, or shrink debt elsewhere first"
                    ),
                }),
                Some(ceiling) if measured < ceiling => improvements.push(Drift {
                    krate: krate.clone(),
                    baseline: ceiling,
                    actual: measured,
                }),
                Some(_) => {}
                None => violations.push(Diagnostic {
                    path: RATCHET_FILE.to_string(),
                    line: 1,
                    rule: Rule::PanicRatchet,
                    message: format!(
                        "hot crate `{krate}` has no committed baseline (measured \
                         {measured}); run `sinr-lint --ratchet-update`"
                    ),
                }),
            }
        }
        (violations, improvements)
    }

    /// 1-based line of a crate's entry in the canonical rendering, so
    /// ratchet diagnostics carry a real `file:line`.
    fn entry_line(&self, krate: &str) -> usize {
        // Canonical render: 4 comment lines + blank + `[panic-surface]`,
        // entries start at line 7 in BTreeMap order.
        self.counts
            .keys()
            .position(|k| k == krate)
            .map_or(1, |i| 7 + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn parse_render_roundtrip() {
        let r = Ratchet {
            counts: counts(&[("geometry", 6), ("phy", 31), ("runtime", 14)]),
        };
        let parsed = Ratchet::parse(&r.render()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_accepts_comments_and_quoted_keys() {
        let text = "# header\n[panic-surface]\n\"phy\" = 3 # inline note\n";
        let r = Ratchet::parse(text).unwrap();
        assert_eq!(r.counts.get("phy"), Some(&3));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Ratchet::parse("[other-table]\n").is_err());
        assert!(Ratchet::parse("phy three\n").is_err());
        assert!(Ratchet::parse("phy = many\n").is_err());
    }

    #[test]
    fn growth_is_a_violation_shrink_is_an_improvement() {
        let r = Ratchet {
            counts: counts(&[("phy", 5), ("runtime", 2), ("geometry", 1)]),
        };
        let measured = counts(&[("phy", 6), ("runtime", 1), ("geometry", 1)]);
        let (violations, improvements) = r.compare(&measured);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, Rule::PanicRatchet);
        assert!(violations[0].message.contains("`phy`"));
        assert_eq!(
            improvements,
            vec![Drift {
                krate: "runtime".into(),
                baseline: 2,
                actual: 1
            }]
        );
    }

    #[test]
    fn missing_entry_is_a_violation() {
        let r = Ratchet::default();
        let (violations, _) = r.compare(&counts(&[("phy", 0)]));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("no committed baseline"));
    }

    #[test]
    fn entry_lines_point_into_canonical_render() {
        let r = Ratchet {
            counts: counts(&[("geometry", 6), ("phy", 31), ("runtime", 14)]),
        };
        let rendered = r.render();
        let (violations, _) = r.compare(&counts(&[("phy", 99)]));
        let line = violations[0].line;
        let text: Vec<&str> = rendered.lines().collect();
        assert!(text[line - 1].starts_with("phy ="), "{:?}", text[line - 1]);
    }
}
