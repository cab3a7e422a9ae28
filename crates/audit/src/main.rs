//! The `pim-audit` command-line driver.
//!
//! ```text
//! cargo run -p pim-audit --              # report, always exits 0
//! cargo run -p pim-audit -- --check      # CI gate: exit 1 on any finding
//! cargo run -p pim-audit -- --root <dir> # audit another workspace
//! ```
//!
//! `--check` fails on any L1–L8 diagnostic (L6 `unwrap-ratchet` included)
//! and on malformed or unused `audit:allow` markers. `perfbench/src` is
//! read for `dead-pub` callers but never audited.

use std::path::PathBuf;
use std::process::ExitCode;

use pim_audit::{audit_workspace, find_workspace_root};

fn main() -> ExitCode {
    let mut check = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory argument"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "pim-audit: workspace invariant lints\n\
                     usage: pim-audit [--check] [--root <dir>]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root_arg
        .or_else(|| std::env::current_dir().ok().and_then(|cwd| find_workspace_root(&cwd)))
    {
        Some(root) => root,
        None => return usage("no workspace root found (run from the workspace or pass --root)"),
    };

    let audit = match audit_workspace(&root) {
        Ok(audit) => audit,
        Err(e) => {
            eprintln!("pim-audit: {e}");
            return ExitCode::FAILURE;
        }
    };

    for report in &audit.reports {
        for d in &report.audit.diagnostics {
            println!("{}:{}: [{}] {}", report.path, d.line, d.lint, d.message);
        }
        for (line, lint) in &report.audit.unused_allows {
            println!(
                "{}:{}: [audit-marker] unused audit:allow({lint}) — remove the stale marker",
                report.path, line
            );
        }
    }

    println!(
        "pim-audit: {} files scanned, {} violation(s)",
        audit.files_scanned,
        audit.violations()
    );
    if check && audit.violations() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("pim-audit: {msg} (try --help)");
    ExitCode::FAILURE
}
