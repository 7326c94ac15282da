//! The six workspace invariants, as token-level checks.
//!
//! Every rule exists because a *dynamic* test already pins the property it
//! guards; the rule catches the violation at the source level, before it
//! costs a differential-test bisection. See the root `README.md` ("Static
//! analysis") for the rationale of each rule, and `ISSUE`/PR history for
//! the founding incident: a std `HashMap` iteration randomising the order
//! of floating-point interference sums in `CellAggregate`.

use std::collections::BTreeMap;
use std::fmt;

use crate::lexer::{lex, Token, TokenKind};
use crate::workspace::SourceFile;

/// The rule identifiers, as used in diagnostics and
/// `// lint: allow(<rule>) -- <reason>` annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `HashMap`/`HashSet` in non-test code of the deterministic
    /// crates: unordered iteration reorders FP accumulation.
    UnorderedCollections,
    /// Library crate roots carry `#![forbid(unsafe_code)]`, and `unsafe`
    /// is a violation anywhere outside test code, with or without a
    /// `// SAFETY:` comment. In test code every occurrence needs an
    /// immediately preceding `// SAFETY:` comment.
    ForbidUnsafe,
    /// No `Instant::now`/`SystemTime`/`thread::sleep` anywhere except the
    /// explicitly exempt crates — timing belongs to `bench`, and the
    /// server (`serve`) may block on sockets but never reads clocks into
    /// results.
    WallClock,
    /// `available_parallelism` may appear in exactly one resolver file,
    /// so the thread budget stays resolved once per `Simulation`.
    ParallelismResolver,
    /// No `println!`/`eprintln!`/`dbg!` in library code.
    QuietLibraries,
    /// Per-crate `unwrap()`/`expect(` counts must not exceed the
    /// committed `lint-ratchet.toml` baseline.
    PanicRatchet,
    /// Meta-rule: malformed or unused `// lint: allow` annotations.
    LintAnnotation,
}

impl Rule {
    /// The kebab-case name used in annotations and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedCollections => "unordered-collections",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::WallClock => "wall-clock",
            Rule::ParallelismResolver => "parallelism-resolver",
            Rule::QuietLibraries => "quiet-libraries",
            Rule::PanicRatchet => "panic-ratchet",
            Rule::LintAnnotation => "lint-annotation",
        }
    }

    /// Parses an annotation rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        [
            Rule::UnorderedCollections,
            Rule::ForbidUnsafe,
            Rule::WallClock,
            Rule::ParallelismResolver,
            Rule::QuietLibraries,
            Rule::PanicRatchet,
            Rule::LintAnnotation,
        ]
        .into_iter()
        .find(|r| r.name() == name)
    }
}

/// One finding, pointing at a root-relative `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Root-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Which crates each rule applies to. The defaults encode this
/// workspace's layout; fixture tests inject the same config against a
/// mini-tree.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose non-test code must avoid unordered collections.
    pub deterministic_crates: Vec<String>,
    /// Crates permitted to read wall clocks; everything else is denied.
    /// An exempt-list (not an applies-list) so new crates are covered by
    /// default instead of silently escaping the rule.
    pub wallclock_exempt_crates: Vec<String>,
    /// Crates under the panic-surface ratchet.
    pub hot_crates: Vec<String>,
    /// Crates exempt from `quiet-libraries` (the measurement/reporting
    /// harness prints by design).
    pub quiet_exempt_crates: Vec<String>,
    /// The single file allowed to call `available_parallelism`.
    pub parallelism_resolver: String,
}

impl Default for Config {
    fn default() -> Self {
        let v = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        Config {
            deterministic_crates: v(&[
                "geometry", "phy", "runtime", "netgen", "core", "wire", "serve",
            ]),
            wallclock_exempt_crates: v(&["bench", "serve"]),
            hot_crates: v(&["phy", "geometry", "runtime"]),
            quiet_exempt_crates: v(&["bench", "lint"]),
            parallelism_resolver: "crates/core/src/sim/scenario.rs".to_string(),
        }
    }
}

/// Result of checking a set of files: diagnostics (before ratchet
/// comparison) plus the measured panic-surface counts per hot crate.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// All findings, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// `unwrap()`/`expect(` call counts in non-test code per hot crate.
    pub panic_counts: BTreeMap<String, u64>,
}

/// Runs every rule over `files`. Ratchet *comparison* happens in
/// [`crate::ratchet`]; this only measures the counts.
pub fn check_files(files: &[SourceFile], cfg: &Config) -> CheckResult {
    let mut diagnostics = Vec::new();
    let mut panic_counts: BTreeMap<String, u64> = BTreeMap::new();
    for c in &cfg.hot_crates {
        panic_counts.insert(c.clone(), 0);
    }
    for file in files {
        check_file(file, cfg, &mut diagnostics, &mut panic_counts);
    }
    diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    CheckResult {
        diagnostics,
        panic_counts,
    }
}

/// A parsed `// lint: allow(<rule>) -- <reason>` annotation.
struct Allow {
    line: usize,
    rule: Rule,
    used: bool,
}

fn check_file(
    file: &SourceFile,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
    panic_counts: &mut BTreeMap<String, u64>,
) {
    let tokens = lex(&file.text);
    let krate = file.crate_name().to_string();

    // --- Comment-derived context -----------------------------------
    let mut comment_lines: BTreeMap<usize, String> = BTreeMap::new();
    let mut allows: Vec<Allow> = Vec::new();
    for t in &tokens {
        if let Some(text) = t.comment() {
            for (i, piece) in text.split('\n').enumerate() {
                comment_lines.entry(t.line + i).or_default().push_str(piece);
            }
            match parse_allow(text) {
                AllowParse::None => {}
                AllowParse::Ok(rule) => allows.push(Allow {
                    line: t.line,
                    rule,
                    used: false,
                }),
                AllowParse::Malformed(why) => out.push(Diagnostic {
                    path: file.rel_path.clone(),
                    line: t.line,
                    rule: Rule::LintAnnotation,
                    message: format!("malformed lint annotation: {why}"),
                }),
            }
        }
    }

    // Code tokens only (comments stripped) for sequence matching.
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();
    let test_lines = test_region_lines(&code);
    let in_test_region = |line: usize| test_lines.iter().any(|&(lo, hi)| line >= lo && line <= hi);

    // Raw findings, suppressed at the end of this function.
    let mut findings: Vec<Diagnostic> = Vec::new();
    let push = |findings: &mut Vec<Diagnostic>, line: usize, rule: Rule, message: String| {
        findings.push(Diagnostic {
            path: file.rel_path.clone(),
            line,
            rule,
            message,
        });
    };

    let lib_context = !file.in_test_tree() && !file.is_bin() && !file.is_example();

    // --- Rule 1: unordered-collections -----------------------------
    if cfg.deterministic_crates.contains(&krate) && lib_context {
        for t in &code {
            if let Some(id @ ("HashMap" | "HashSet")) = t.ident() {
                if !in_test_region(t.line) {
                    push(
                        &mut findings,
                        t.line,
                        Rule::UnorderedCollections,
                        format!(
                            "`{id}` in deterministic crate `{krate}`: unordered iteration \
                             reorders FP accumulation (the historical hash-map cell-order bug); use \
                             `BTreeMap`/`BTreeSet` or a sorted vec"
                        ),
                    );
                }
            }
        }
    }

    // --- Rule 2a: crate roots forbid unsafe ------------------------
    if file.is_lib_root() && !has_forbid_unsafe(&code) {
        push(
            &mut findings,
            1,
            Rule::ForbidUnsafe,
            "library crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }

    // --- Rule 2b: unsafe only in test code, with SAFETY ------------
    for t in &code {
        if t.ident() != Some("unsafe") {
            continue;
        }
        // One diagnostic per token: outside test code the token itself
        // is the violation; a SAFETY comment cannot excuse it.
        if !file.in_test_tree() && !in_test_region(t.line) {
            push(
                &mut findings,
                t.line,
                Rule::ForbidUnsafe,
                "`unsafe` outside test code: the workspace has no unsafe code; find a \
                 safe formulation"
                    .to_string(),
            );
        } else if !has_safety_comment(&comment_lines, t.line) {
            push(
                &mut findings,
                t.line,
                Rule::ForbidUnsafe,
                "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
            );
        }
    }

    // --- Rule 3: wall-clock-free by default ------------------------
    if !cfg.wallclock_exempt_crates.contains(&krate) {
        for (i, t) in code.iter().enumerate() {
            let flagged = match t.ident() {
                Some("Instant") | Some("SystemTime") => true,
                Some("sleep") => code[i.saturating_sub(3)..i]
                    .iter()
                    .any(|p| p.ident() == Some("thread")),
                _ => false,
            };
            if flagged {
                push(
                    &mut findings,
                    t.line,
                    Rule::WallClock,
                    format!(
                        "wall-clock access (`{}`) in non-exempt crate `{krate}`: results must \
                         be a pure function of the seed; timing belongs to `bench`",
                        t.ident().unwrap_or("?")
                    ),
                );
            }
        }
    }

    // --- Rule 4: single parallelism resolver -----------------------
    if file.rel_path != cfg.parallelism_resolver {
        for t in &code {
            if t.ident() == Some("available_parallelism") {
                push(
                    &mut findings,
                    t.line,
                    Rule::ParallelismResolver,
                    format!(
                        "`available_parallelism` outside `{}`: the thread budget is \
                         resolved exactly once per `Simulation` so sweep workers and \
                         physics threads cannot oversubscribe",
                        cfg.parallelism_resolver
                    ),
                );
            }
        }
    }

    // --- Rule 5: quiet libraries -----------------------------------
    if lib_context && !cfg.quiet_exempt_crates.contains(&krate) {
        for (i, t) in code.iter().enumerate() {
            if let Some(id @ ("println" | "eprintln" | "dbg")) = t.ident() {
                let is_macro = code.get(i + 1).map(|n| n.punct()) == Some(Some('!'));
                if is_macro && !in_test_region(t.line) {
                    push(
                        &mut findings,
                        t.line,
                        Rule::QuietLibraries,
                        format!(
                            "`{id}!` in library crate `{krate}`: return data, let binaries \
                             print"
                        ),
                    );
                }
            }
        }
    }

    // --- Rule 6: panic-surface measurement -------------------------
    if cfg.hot_crates.contains(&krate) && lib_context {
        for (i, t) in code.iter().enumerate() {
            if let Some("unwrap" | "expect") = t.ident() {
                let is_call = code.get(i + 1).map(|n| n.punct()) == Some(Some('('));
                if is_call && !in_test_region(t.line) {
                    *panic_counts.entry(krate.clone()).or_insert(0) += 1;
                }
            }
        }
    }

    // --- Suppression and annotation hygiene ------------------------
    for d in findings {
        let suppressed = allows
            .iter_mut()
            .find(|a| a.rule == d.rule && (a.line == d.line || a.line + 1 == d.line));
        match suppressed {
            Some(a) => a.used = true,
            None => out.push(d),
        }
    }
    for a in &allows {
        if !a.used {
            out.push(Diagnostic {
                path: file.rel_path.clone(),
                line: a.line,
                rule: Rule::LintAnnotation,
                message: format!(
                    "unused `lint: allow({})` — nothing on this or the next line \
                     triggers the rule; remove the annotation",
                    a.rule.name()
                ),
            });
        }
    }
}

enum AllowParse {
    /// Not a lint annotation at all.
    None,
    /// Well-formed: suppresses `rule`.
    Ok(Rule),
    /// Meant to be an annotation but does not parse.
    Malformed(String),
}

/// Parses `// lint: allow(<rule>) -- <reason>`; the reason is mandatory —
/// suppressions double as documentation.
fn parse_allow(comment: &str) -> AllowParse {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim();
    let Some(rest) = body.strip_prefix("lint:") else {
        return AllowParse::None;
    };
    let rest = rest.trim();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return AllowParse::Malformed("expected `lint: allow(<rule>) -- <reason>`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Malformed("unterminated `allow(`".to_string());
    };
    let name = rest[..close].trim();
    let Some(rule) = Rule::from_name(name) else {
        return AllowParse::Malformed(format!("unknown rule `{name}`"));
    };
    let tail = rest[close + 1..].trim();
    let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return AllowParse::Malformed(format!(
            "`allow({name})` needs a justification: `-- <reason>`"
        ));
    }
    AllowParse::Ok(rule)
}

/// True if the token stream contains `# ! [ forbid ( unsafe_code ) ]`.
fn has_forbid_unsafe(code: &[&Token]) -> bool {
    let want: [&dyn Fn(&Token) -> bool; 8] = [
        &|t| t.punct() == Some('#'),
        &|t| t.punct() == Some('!'),
        &|t| t.punct() == Some('['),
        &|t| t.ident() == Some("forbid"),
        &|t| t.punct() == Some('('),
        &|t| t.ident() == Some("unsafe_code"),
        &|t| t.punct() == Some(')'),
        &|t| t.punct() == Some(']'),
    ];
    code.windows(8)
        .any(|w| w.iter().zip(&want).all(|(t, m)| m(t)))
}

/// True if the contiguous comment block ending on the line above `line`
/// (or a comment on `line` itself) contains `SAFETY:`.
fn has_safety_comment(comment_lines: &BTreeMap<usize, String>, line: usize) -> bool {
    if comment_lines
        .get(&line)
        .is_some_and(|t| t.contains("SAFETY:"))
    {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        match comment_lines.get(&l) {
            Some(text) if text.contains("SAFETY:") => return true,
            Some(_) => continue,
            None => return false,
        }
    }
    false
}

/// Line ranges covered by `#[cfg(test)]`-gated items and `#[test]`
/// functions: attributes are located, then the following brace block is
/// matched. Known limitation (documented in the crate docs): `not(test)`
/// inside a `cfg` is treated as non-test only via the `not` escape below.
fn test_region_lines(code: &[&Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].punct() == Some('#') && code.get(i + 1).map(|t| t.punct()) == Some(Some('[')) {
            // Collect the attribute's tokens up to its closing `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut idents: Vec<&str> = Vec::new();
            while j < code.len() && depth > 0 {
                match code[j].punct() {
                    Some('[') => depth += 1,
                    Some(']') => depth -= 1,
                    _ => {
                        if let Some(id) = code[j].ident() {
                            idents.push(id);
                        }
                    }
                }
                j += 1;
            }
            let is_test_attr =
                (idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not"))
                    || idents == ["test"];
            if is_test_attr {
                // Find the gated item's body: first `{` before any `;`.
                let mut k = j;
                while k < code.len() {
                    match code[k].punct() {
                        Some(';') => break, // `mod foo;` — out-of-line, skip
                        Some('{') => {
                            let start_line = code[i].line;
                            let end_line = match_brace(code, k);
                            regions.push((start_line, end_line));
                            break;
                        }
                        _ => k += 1,
                    }
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

/// Given the index of a `{`, returns the line of its matching `}` (or the
/// last token's line if unbalanced).
fn match_brace(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for t in &code[open..] {
        match t.punct() {
            Some('{') => depth += 1,
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return t.line;
                }
            }
            _ => {}
        }
    }
    code.last().map_or(0, |t| t.line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, text: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            text: text.to_string(),
        }
    }

    fn rules_of(result: &CheckResult) -> Vec<(Rule, usize)> {
        result
            .diagnostics
            .iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn hashmap_flagged_in_deterministic_crate_only() {
        let cfg = Config::default();
        let src = "use std::collections::HashMap;\n";
        let det = check_files(&[file("crates/phy/src/a.rs", src)], &cfg);
        assert_eq!(rules_of(&det), vec![(Rule::UnorderedCollections, 1)]);
        let non = check_files(&[file("crates/stats/src/a.rs", src)], &cfg);
        assert!(non.diagnostics.is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let cfg = Config::default();
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        let r = check_files(&[file("crates/phy/src/a.rs", src)], &cfg);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let cfg = Config::default();
        let src = "#[cfg(not(test))]\nmod real {\n    use std::collections::HashSet;\n}\n";
        let r = check_files(&[file("crates/phy/src/a.rs", src)], &cfg);
        assert_eq!(rules_of(&r), vec![(Rule::UnorderedCollections, 3)]);
    }

    #[test]
    fn allow_annotation_suppresses_and_is_marked_used() {
        let cfg = Config::default();
        let src = "// lint: allow(unordered-collections) -- scratch map, iteration never observed\nuse std::collections::HashMap;\n";
        let r = check_files(&[file("crates/phy/src/a.rs", src)], &cfg);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let cfg = Config::default();
        let src = "// lint: allow(unordered-collections)\nuse std::collections::HashMap;\n";
        let r = check_files(&[file("crates/phy/src/a.rs", src)], &cfg);
        let rules: Vec<Rule> = r.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&Rule::LintAnnotation), "{:?}", r.diagnostics);
        assert!(
            rules.contains(&Rule::UnorderedCollections),
            "malformed allow must not suppress: {:?}",
            r.diagnostics
        );
    }

    #[test]
    fn unused_allow_is_flagged() {
        let cfg = Config::default();
        let src = "// lint: allow(wall-clock) -- stale justification\npub fn f() {}\n";
        let r = check_files(&[file("crates/phy/src/a.rs", src)], &cfg);
        assert_eq!(rules_of(&r), vec![(Rule::LintAnnotation, 1)]);
    }

    #[test]
    fn missing_forbid_flagged_on_lib_roots_only() {
        let cfg = Config::default();
        let r = check_files(&[file("crates/stats/src/lib.rs", "pub fn f() {}\n")], &cfg);
        assert_eq!(rules_of(&r), vec![(Rule::ForbidUnsafe, 1)]);
        let ok = check_files(
            &[file(
                "crates/stats/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {}\n",
            )],
            &cfg,
        );
        assert!(ok.diagnostics.is_empty());
        // `deny` is not enough: it can be overridden by a scoped allow.
        let deny = check_files(
            &[file(
                "crates/phy/src/lib.rs",
                "#![deny(unsafe_code)]\npub fn f() {}\n",
            )],
            &cfg,
        );
        assert_eq!(rules_of(&deny), vec![(Rule::ForbidUnsafe, 1)]);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let cfg = Config::default();
        // In test code, SAFETY-less unsafe is flagged...
        let bad = "fn t() { unsafe { std::hint::unreachable_unchecked() } }\n";
        let r = check_files(&[file("crates/phy/tests/a.rs", bad)], &cfg);
        assert_eq!(rules_of(&r), vec![(Rule::ForbidUnsafe, 1)]);
        assert!(r.diagnostics[0].message.contains("SAFETY"));
        // ...and a SAFETY comment satisfies the rule.
        let good = "// SAFETY: guarded by the match above.\nfn t() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let r = check_files(&[file("crates/phy/tests/a.rs", good)], &cfg);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn safety_comment_block_may_sit_several_lines_up() {
        let cfg = Config::default();
        let good = "// SAFETY: all indices are in bounds by construction;\n// the caller checked the length.\nunsafe fn g() {}\n";
        let r = check_files(&[file("crates/geometry/tests/a.rs", good)], &cfg);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unsafe_outside_test_code_is_flagged_even_with_safety() {
        let cfg = Config::default();
        // A SAFETY comment cannot excuse unsafe outside test code, in any
        // crate, module, binary or example; exactly one diagnostic fires
        // per token.
        let src = "// SAFETY: looks justified but no library code may be unsafe.\npub fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        for path in [
            "crates/stats/src/a.rs",
            "crates/geometry/src/simd/mod.rs",
            "crates/bench/src/bin/tool.rs",
            "examples/demo.rs",
        ] {
            let r = check_files(&[file(path, src)], &cfg);
            assert_eq!(rules_of(&r), vec![(Rule::ForbidUnsafe, 2)], "{path}");
            assert!(
                r.diagnostics[0].message.contains("outside test code"),
                "{:?}",
                r.diagnostics
            );
        }
        // A `#[cfg(test)]` module keeps the SAFETY-comment contract.
        let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    // SAFETY: exercising the FFI shim.\n    fn t() { unsafe { ffi() } }\n}\n";
        let r = check_files(&[file("crates/stats/src/a.rs", test_src)], &cfg);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn wallclock_flagged_everywhere_but_exempt_crates() {
        let cfg = Config::default();
        let src = "use std::time::Instant;\npub fn t() { let _ = Instant::now(); std::thread::sleep(d); }\n";
        let r = check_files(&[file("crates/geometry/src/a.rs", src)], &cfg);
        let rules: Vec<Rule> = r.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![Rule::WallClock; 3], "{:?}", r.diagnostics);
        // A brand-new crate is covered without any config change.
        let r = check_files(&[file("crates/brand_new/src/a.rs", src)], &cfg);
        let rules: Vec<Rule> = r.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![Rule::WallClock; 3], "{:?}", r.diagnostics);
        // Only the exempt-list escapes: bench (measures) and serve (blocks
        // on sockets/timeouts, never folds time into results).
        let r = check_files(&[file("crates/bench/src/a.rs", src)], &cfg);
        assert!(r.diagnostics.is_empty());
        let r = check_files(&[file("crates/serve/src/a.rs", src)], &cfg);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn parallelism_allowed_only_in_resolver() {
        let cfg = Config::default();
        let src = "let n = std::thread::available_parallelism();\n";
        let r = check_files(&[file("crates/core/src/sim/scenario.rs", src)], &cfg);
        assert!(r.diagnostics.is_empty());
        let r = check_files(&[file("crates/runtime/src/engine.rs", src)], &cfg);
        assert_eq!(rules_of(&r), vec![(Rule::ParallelismResolver, 1)]);
    }

    #[test]
    fn quiet_libraries_allows_bins_and_bench() {
        let cfg = Config::default();
        let src = "pub fn report() { println!(\"x\"); }\n";
        let r = check_files(&[file("crates/stats/src/a.rs", src)], &cfg);
        assert_eq!(rules_of(&r), vec![(Rule::QuietLibraries, 1)]);
        assert!(check_files(&[file("crates/bench/src/a.rs", src)], &cfg)
            .diagnostics
            .is_empty());
        assert!(
            check_files(&[file("crates/stats/src/bin/cli.rs", src)], &cfg)
                .diagnostics
                .is_empty()
        );
        assert!(check_files(&[file("examples/demo.rs", src)], &cfg)
            .diagnostics
            .is_empty());
    }

    #[test]
    fn panic_counts_measured_outside_tests_only() {
        let cfg = Config::default();
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\npub fn g(x: Option<u8>) -> u8 { x.expect(\"set\") }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::f(Some(1)); None::<u8>.unwrap_or(0); Some(2).unwrap(); }\n}\n";
        let r = check_files(&[file("crates/phy/src/a.rs", src)], &cfg);
        assert_eq!(r.panic_counts.get("phy"), Some(&2), "{:?}", r.panic_counts);
        // Test-tree files don't count at all.
        let r = check_files(
            &[file("crates/phy/tests/a.rs", "fn t() { x.unwrap(); }")],
            &cfg,
        );
        assert_eq!(r.panic_counts.get("phy"), Some(&0));
    }

    #[test]
    fn tokens_inside_literals_never_trigger() {
        let cfg = Config::default();
        let src = "pub fn f() -> &'static str { \"HashMap Instant::now println! unsafe\" }\n// HashMap in a comment\nconst R: &str = r#\"HashSet dbg!(x)\"#;\n";
        let r = check_files(&[file("crates/phy/src/a.rs", src)], &cfg);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }
}
