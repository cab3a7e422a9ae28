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
//! - [`lints`]: the lint catalog (L1 `unsafe-safety` … L5 `thread-spawn`,
//!   L7 `partial-cmp-unwrap`, plus the report-only L6 `unwrap-ratchet`) and the
//!   `// audit:allow(<lint>): <reason>` suppression protocol,
//! - [`baseline`]: the committed `audit_baseline.txt` shrink-only gate.
//!
//! Run it over the workspace with `cargo run -p pim-audit -- --check`
//! (the CI step), or without `--check` for a report that never fails.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod lexer;
pub mod lints;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Library crates whose `src/` trees count against the unwrap ratchet.
/// Tools (`pim-audit` itself, `pim-bench`) and the offline dependency
/// shims are deliberately outside: they are not shipped numeric code.
const RATCHET_CRATES: [&str; 9] =
    ["circuit", "core", "linalg", "passivity", "pdn", "rfdata", "runtime", "statespace", "vectfit"];

/// One file's diagnostics, with its workspace-relative path attached.
#[derive(Debug)]
pub struct FileReport {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The per-file audit (diagnostics, unwrap count, unused allows).
    pub audit: lints::FileAudit,
}

/// The whole-workspace audit result.
#[derive(Debug)]
pub struct WorkspaceAudit {
    /// Per-file reports, sorted by path, files with findings only.
    pub reports: Vec<FileReport>,
    /// `unwrap-ratchet` counts for every in-scope file (zeros included,
    /// so the baseline comparison sees files that became clean).
    pub unwrap_counts: BTreeMap<String, usize>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl WorkspaceAudit {
    /// Total number of violations (diagnostics + unused suppressions).
    pub fn violations(&self) -> usize {
        self.reports.iter().map(|r| r.audit.diagnostics.len() + r.audit.unused_allows.len()).sum()
    }
}

/// Whether `rel` (workspace-relative, `/` separators) is in the
/// unwrap-ratchet scope: library crate `src/` trees plus the root facade.
fn in_ratchet_scope(rel: &str) -> bool {
    if rel.starts_with("src/") {
        return true;
    }
    RATCHET_CRATES.iter().any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// Recursively collects `.rs` files under `root`'s source directories,
/// skipping build output and VCS metadata.
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> =
        ["src", "crates", "tests", "examples"].iter().map(|d| root.join(d)).collect();
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
    let mut reports = Vec::new();
    let mut unwrap_counts = BTreeMap::new();
    let files_scanned = files.len();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&file).map_err(|e| format!("reading {rel}: {e}"))?;
        let in_scope = in_ratchet_scope(&rel);
        let audit = lints::audit_file(&rel, &source, in_scope);
        if let Some(count) = audit.unwrap_count {
            unwrap_counts.insert(rel.clone(), count);
        }
        if !audit.diagnostics.is_empty() || !audit.unused_allows.is_empty() {
            reports.push(FileReport { path: rel, audit });
        }
    }
    Ok(WorkspaceAudit { reports, unwrap_counts, files_scanned })
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
