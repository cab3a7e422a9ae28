//! # pim-audit
//!
//! An in-tree, dependency-free static-analysis pass that enforces the
//! workspace's load-bearing invariants — bit-identical parallel-vs-serial
//! execution, deterministic seeded generation, audit-grid certification —
//! at the source level, where end-to-end tests can only catch them after
//! the fact:
//!
//! - [`lexer`]: a comment- and string-aware Rust lexer (raw strings,
//!   nested block comments, char-vs-lifetime disambiguation),
//! - [`lints`]: the lint catalog (L1 `unsafe-safety` … L7
//!   `partial-cmp-unwrap`, and the cross-file L8 `dead-pub`) and the
//!   `// audit:allow(<lint>): <reason>` suppression protocol.
//!
//! Run it over the workspace with `cargo run -p pim-audit -- --check`
//! (the CI step), or without `--check` for a report that never fails.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lexer;
pub mod lints;

use std::path::{Path, PathBuf};

/// One file's diagnostics, with its workspace-relative path attached.
#[derive(Debug)]
pub struct FileReport {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The per-file audit (diagnostics, unused allows).
    pub audit: lints::FileAudit,
}

/// The whole-workspace audit result.
#[derive(Debug)]
pub struct WorkspaceAudit {
    /// Per-file reports, sorted by path, files with findings only.
    pub reports: Vec<FileReport>,
    /// Number of files audited (`perfbench/src` is read for `dead-pub`
    /// callers only).
    pub files_scanned: usize,
}

impl WorkspaceAudit {
    /// Total number of violations (diagnostics + unused suppressions).
    pub fn violations(&self) -> usize {
        self.reports.iter().map(|r| r.audit.diagnostics.len() + r.audit.unused_allows.len()).sum()
    }
}

/// Recursively collects `.rs` files under `root`'s source directories,
/// skipping build output and VCS metadata.
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = ["src", "crates", "tests", "examples", "perfbench/src"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != ".git" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs the full audit over the workspace rooted at `root`.
///
/// # Errors
///
/// Returns an error string when a source file cannot be read.
pub fn audit_workspace(root: &Path) -> Result<WorkspaceAudit, String> {
    let files = collect_sources(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&file).map_err(|e| format!("reading {rel}: {e}"))?;
        sources.push((rel, source));
    }
    let sources: Vec<(&str, &str)> =
        sources.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    Ok(audit_sources(&sources))
}

/// Audits in-memory `(workspace-relative path, source)` files as one
/// workspace: the single-file lints on each audited file, and `dead-pub`
/// across all of them.
pub fn audit_sources(sources: &[(&str, &str)]) -> WorkspaceAudit {
    let lexed: Vec<_> = sources.iter().map(|&(rel, source)| (rel, lexer::lex(source))).collect();
    let token_slices: Vec<_> =
        lexed.iter().map(|(rel, tokens)| (*rel, tokens.as_slice())).collect();
    let dead = lints::dead_pub(&token_slices, lints::is_library_source);
    let mut reports = Vec::new();
    let mut files_scanned = 0;
    for ((rel, tokens), dead) in token_slices.into_iter().zip(dead) {
        // The benchmark package is read only to find `dead-pub` callers.
        if rel.starts_with("perfbench/") {
            continue;
        }
        files_scanned += 1;
        let audit = lints::audit_tokens(rel, tokens, dead);
        if !audit.diagnostics.is_empty() || !audit.unused_allows.is_empty() {
            reports.push(FileReport { path: rel.to_string(), audit });
        }
    }
    WorkspaceAudit { reports, files_scanned }
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
