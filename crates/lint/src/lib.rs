//! `sinr-lint`: in-tree static analysis for the workspace's determinism
//! and invariant rules.
//!
//! The workspace's load-bearing guarantee is that a `RunReport` is a pure
//! function of its seed — byte-identical at any physics-thread count,
//! under mobility and churn. The test suite pins that *dynamically*
//! (differential and golden tests); this crate enforces the source-level
//! discipline that makes the property hold, so the next `HashMap`-ordered
//! floating-point sum is caught in review rather than bisected out of a
//! flaky golden pin. Rules (see [`rules::Rule`] and the root `README.md`):
//!
//! 1. **unordered-collections** — no `HashMap`/`HashSet` in non-test code
//!    of the deterministic crates; iteration order randomises FP sums.
//! 2. **forbid-unsafe** — every library crate root carries
//!    `#![forbid(unsafe_code)]`, and `unsafe` appears in test code only,
//!    always with `// SAFETY:`.
//! 3. **wall-clock** — kernels never read clocks; timing belongs to bench.
//! 4. **parallelism-resolver** — one `available_parallelism` call site.
//! 5. **quiet-libraries** — libraries return data, binaries print.
//! 6. **panic-ratchet** — `unwrap()`/`expect(` ceilings per hot crate,
//!    committed in `lint-ratchet.toml`, monotonically shrinking.
//!
//! Any finding of rules 1–5 can be suppressed at its site with
//! `// lint: allow(<rule>) -- <reason>` on the same or preceding line;
//! the reason is mandatory and unused suppressions are themselves flagged.
//!
//! Dependency-free by design (the build container has no registry): the
//! token scanner in [`lexer`] correctly skips strings, raw strings, char
//! literals, and (nested) comments, so rule matching never fires on text.
//! Known limitation: `#[cfg(test)]` detection is token-based — an
//! attribute mixing `test` with `not(...)` in unusual shapes may be
//! misclassified; the workspace uses only plain `#[cfg(test)]`.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod ratchet;
pub mod rules;
pub mod workspace;

use std::path::Path;

pub use ratchet::{Drift, Ratchet, RATCHET_FILE};
pub use rules::{check_files, CheckResult, Config, Diagnostic, Rule};
pub use workspace::{SourceFile, Workspace};

/// Everything `--check` produces: rule diagnostics (ratchet violations
/// included) plus non-failing ratchet improvements.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All failures, sorted by path/line/rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Crates whose panic surface shrank below the committed ceiling —
    /// not a failure, but the baseline should be lowered.
    pub improvements: Vec<Drift>,
    /// Measured `unwrap()`/`expect(` counts per hot crate.
    pub panic_counts: std::collections::BTreeMap<String, u64>,
}

impl LintReport {
    /// True when `--check` should exit 0.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints an in-memory file set against `cfg` and a parsed ratchet
/// baseline (`None` = baseline file missing, which is itself a failure
/// when any hot crate is present).
pub fn lint_files(files: &[SourceFile], cfg: &Config, baseline: Option<&Ratchet>) -> LintReport {
    let result = check_files(files, cfg);
    let mut diagnostics = result.diagnostics;
    let mut improvements = Vec::new();
    match baseline {
        Some(b) => {
            let (violations, drifts) = b.compare(&result.panic_counts);
            diagnostics.extend(violations);
            improvements = drifts;
        }
        None if !result.panic_counts.is_empty() => diagnostics.push(Diagnostic {
            path: RATCHET_FILE.to_string(),
            line: 1,
            rule: Rule::PanicRatchet,
            message: format!("missing `{RATCHET_FILE}` baseline; run `sinr-lint --ratchet-update`"),
        }),
        None => {}
    }
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    LintReport {
        diagnostics,
        improvements,
        panic_counts: result.panic_counts,
    }
}

/// Loads the workspace under `root` and lints it, reading the ratchet
/// baseline from `<root>/lint-ratchet.toml` if present.
///
/// # Errors
///
/// Returns a printable message on filesystem errors or an unparsable
/// baseline file.
pub fn lint_root(root: &Path, cfg: &Config) -> Result<LintReport, String> {
    let ws = Workspace::load(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let baseline_path = root.join(RATCHET_FILE);
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Some(Ratchet::parse(&text)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("reading {}: {e}", baseline_path.display())),
    };
    Ok(lint_files(&ws.files, cfg, baseline.as_ref()))
}
