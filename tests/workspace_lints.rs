//! The workspace's source rules cover every crate by default. Each
//! manifest inherits `[workspace.lints]` (no `unsafe` code, and a
//! `// SAFETY:` comment on any `unsafe` block a test needs), every library
//! root forbids `unsafe` outright, and every library root but the bench
//! harness denies printing outside tests. A new crate that skips one of
//! these fails here, under `cargo test`, and not only in CI's clippy job.
//! README.md "Static analysis" lists the rules.

use std::fs;
use std::path::{Path, PathBuf};

/// The root package and every package under `crates/`.
fn packages() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs.insert(0, root.to_path_buf());
    dirs
}

/// Library roots as `(package dir, source)`.
fn library_roots() -> Vec<(PathBuf, String)> {
    let roots: Vec<_> = packages()
        .into_iter()
        .filter_map(|dir| {
            let src = fs::read_to_string(dir.join("src/lib.rs")).ok()?;
            Some((dir, src))
        })
        .collect();
    assert!(roots.len() > 1, "no library roots found");
    roots
}

/// Whether the manifest's `[lints]` table is `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[lints]")
        .skip(1)
        .find(|line| !line.is_empty() && !line.starts_with('#'))
        == Some("workspace = true")
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    for dir in packages() {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        assert!(
            inherits_workspace_lints(&manifest),
            "{}/Cargo.toml lacks `[lints] workspace = true`",
            dir.display()
        );
    }
}

#[test]
fn every_library_root_forbids_unsafe_code() {
    for (dir, src) in library_roots() {
        assert!(
            src.contains("#![forbid(unsafe_code)]"),
            "{}/src/lib.rs lacks #![forbid(unsafe_code)]",
            dir.display()
        );
    }
}

#[test]
fn every_library_but_bench_denies_printing() {
    for (dir, src) in library_roots() {
        if dir.ends_with("crates/bench") {
            continue;
        }
        assert!(
            src.contains("deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)"),
            "{}/src/lib.rs does not deny printing outside tests",
            dir.display()
        );
    }
}
