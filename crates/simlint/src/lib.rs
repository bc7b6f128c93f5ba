//! `simlint` — the workspace contract linter.
//!
//! Every result the engine reports rests on contracts the compiler cannot
//! see: artifacts must be byte-identical at any `--jobs` for a fixed master
//! seed, all randomness must derive from `(master seed, scenario,
//! replication)` stream keys, wall time must never reach artifacts, and
//! engine/core code must fail through typed errors rather than panics.
//! This crate enforces the known *classes* of violation statically, as a
//! compile-gate, instead of hoping the dynamic differential batteries catch
//! each instance after the fact.
//!
//! The pass is deliberately lightweight and self-contained — a hand-rolled
//! token-level lexer plus a scope/attribute tracker, in the same in-house
//! style as `workload::json`; no crates.io, no `syn`. Rules are documented
//! in [`rules::RULES`] and pinned by the fixture corpus under
//! `tests/fixtures/`.
//!
//! # Suppressions
//!
//! A finding that is audited-and-safe is suppressed in place:
//!
//! ```text
//! // simlint: allow(D001, "lookup-only: insertion order never escapes")
//! let mut index: HashMap<State, usize> = HashMap::new();
//! ```
//!
//! A trailing directive suppresses its own line; a directive on its own
//! line suppresses the next code line. The reason string is mandatory, and
//! suppressions are themselves linted: a directive whose rule did not fire
//! on the target line is an `A001` error, so stale allows cannot
//! accumulate and the allowlisted count can only shrink.

pub mod audit;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

pub use diag::{Diagnostic, Severity};

use source::SourceFile;
use std::io;
use std::path::{Path, PathBuf};

/// Lints a set of `(workspace-relative path, contents)` pairs: per-file
/// rules on linted paths, cross-file audits over the whole set, suppression
/// resolution, and unused-allow detection. Returns diagnostics in
/// deterministic `(path, line, col, rule)` order.
#[must_use]
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let files: Vec<SourceFile<'_>> = sources
        .iter()
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect();

    let mut diags = Vec::new();
    for f in &files {
        if !rules::is_linted(&f.path) {
            continue;
        }
        diags.extend(f.malformed.iter().cloned());
        diags.extend(rules::file_rules(f));
    }
    diags.extend(audit::run_default(&files));

    // Resolve suppressions: an allow eats every same-rule diagnostic on its
    // target line. Allows live in linted files only (test-only files have
    // nothing to suppress).
    let mut used: Vec<Vec<bool>> = files.iter().map(|f| vec![false; f.allows.len()]).collect();
    diags.retain(|d| {
        let Some(fi) = files.iter().position(|f| f.path == d.path) else {
            return true;
        };
        let mut suppressed = false;
        for (ai, allow) in files[fi].allows.iter().enumerate() {
            if allow.rule == d.rule && allow.target_line == d.line {
                used[fi][ai] = true;
                suppressed = true;
            }
        }
        !suppressed
    });

    // Unused allows are errors: the contract they excuse no longer exists.
    for (fi, f) in files.iter().enumerate() {
        if !rules::is_linted(&f.path) {
            continue;
        }
        for (ai, allow) in f.allows.iter().enumerate() {
            if !used[fi][ai] {
                diags.push(Diagnostic {
                    rule: "A001",
                    severity: Severity::Error,
                    path: f.path.clone(),
                    line: allow.comment_line,
                    col: 1,
                    message: format!(
                        "unused `simlint: allow({})` — the rule did not fire on line {}; \
                         remove the stale directive",
                        allow.rule, allow.target_line
                    ),
                });
            }
        }
    }

    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    diags
}

/// Collects and lints the workspace rooted at `root` (the directory holding
/// the top-level `Cargo.toml`).
///
/// The source set is `src/**`, `crates/*/src/**` (linted), plus
/// `crates/*/tests/**` (never linted, but available as cross-file audit
/// targets). `shims/`, `examples/`, and root `tests/` are excluded: shims
/// are inert vendored stand-ins and the rest is test or demo code by
/// construction.
///
/// # Errors
///
/// Propagates I/O failures from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut sources = Vec::new();
    collect_dir(root, &root.join("src"), &mut sources)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_entries(&crates_dir)? {
            collect_dir(root, &krate.join("src"), &mut sources)?;
            collect_dir(root, &krate.join("tests"), &mut sources)?;
        }
    }
    sources.sort();
    Ok(lint_sources(&sources))
}

/// Directory entries, sorted by name so walks (and everything downstream)
/// are deterministic regardless of filesystem order.
fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    Ok(entries)
}

/// Recursively collects `.rs` files under `dir` (skipped when absent) as
/// `(root-relative path, contents)` pairs.
fn collect_dir(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in sorted_entries(dir)? {
        if entry.is_dir() {
            collect_dir(root, &entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            let rel = entry
                .strip_prefix(root)
                .unwrap_or(&entry)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, std::fs::read_to_string(&entry)?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, text: &str) -> Vec<Diagnostic> {
        lint_sources(&[(path.to_string(), text.to_string())])
    }

    #[test]
    fn unlinted_paths_produce_nothing() {
        let violating = "fn f() { let x: Option<u32> = None; x.unwrap(); thread_rng(); }";
        assert!(one("crates/core/tests/some_test.rs", violating).is_empty());
        assert!(one("shims/rand/src/lib.rs", violating).is_empty());
    }

    #[test]
    fn suppression_eats_the_diagnostic_and_counts_as_used() {
        let src = "fn f(x: Option<u32>) {\n    // simlint: allow(E001, \"checked above\")\n    \
                   x.unwrap();\n}\n";
        assert!(one("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn unused_allow_is_an_a001_error() {
        let src = "// simlint: allow(E001, \"nothing here\")\nfn f() {}\n";
        let diags = one("crates/engine/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "A001");
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn one_allow_covers_every_same_rule_hit_on_its_line() {
        let src = "fn f(x: Option<u32>, y: Option<u32>) {\n    \
                   // simlint: allow(E001, \"both checked\")\n    \
                   x.unwrap(); y.unwrap();\n}\n";
        assert!(one("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn diagnostics_are_sorted_and_deterministic() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); }\nfn g() { thread_rng(); }\n";
        let a = one("crates/engine/src/x.rs", src);
        let b = one("crates/engine/src/x.rs", src);
        assert_eq!(a.len(), b.len());
        assert!(a.len() >= 2);
        let keys: Vec<_> = a.iter().map(Diagnostic::sort_key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
