//! The `pim-audit` command-line driver.
//!
//! ```text
//! cargo run -p pim-audit --              # report, always exits 0
//! cargo run -p pim-audit -- --check      # CI gate: exit 1 on any finding
//! cargo run -p pim-audit -- --write-baseline   # regenerate audit_baseline.txt
//! cargo run -p pim-audit -- --root <dir> # audit another workspace
//! ```
//!
//! `--check` fails on: any L1–L5, L7 or L8 (`dead-pub`) diagnostic,
//! malformed or unused `audit:allow` markers, a missing baseline file, or
//! any unwrap-ratchet count above the committed `audit_baseline.txt`.
//! `perfbench/src` is read for `dead-pub` callers but never audited.

use std::path::PathBuf;
use std::process::ExitCode;

use pim_audit::{audit_workspace, baseline, find_workspace_root};

/// Name of the committed ratchet baseline at the workspace root.
const BASELINE_FILE: &str = "audit_baseline.txt";

fn main() -> ExitCode {
    let mut check = false;
    let mut write_baseline = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--write-baseline" => write_baseline = true,
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory argument"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "pim-audit: workspace invariant lints\n\
                     usage: pim-audit [--check] [--write-baseline] [--root <dir>]"
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

    let mut failed = false;
    for report in &audit.reports {
        for d in &report.audit.diagnostics {
            println!("{}:{}: [{}] {}", report.path, d.line, d.lint, d.message);
            failed = true;
        }
        for (line, lint) in &report.audit.unused_allows {
            println!(
                "{}:{}: [audit-marker] unused audit:allow({lint}) — remove the stale marker",
                report.path, line
            );
            failed = true;
        }
    }

    let baseline_path = root.join(BASELINE_FILE);
    if write_baseline {
        let text = baseline::format(&audit.unwrap_counts);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("pim-audit: writing {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", baseline_path.display());
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match baseline::parse(&text) {
                Ok(committed) => {
                    let ratchet = baseline::compare(&audit.unwrap_counts, &committed);
                    for err in &ratchet.errors {
                        println!("[unwrap-ratchet] {err}");
                        failed = true;
                    }
                    for note in &ratchet.stale {
                        println!("[unwrap-ratchet] stale baseline: {note} — regenerate with --write-baseline");
                    }
                }
                Err(e) => {
                    println!("[unwrap-ratchet] {BASELINE_FILE}: {e}");
                    failed = true;
                }
            },
            Err(_) => {
                println!(
                    "[unwrap-ratchet] {BASELINE_FILE} missing — create it with --write-baseline"
                );
                failed = true;
            }
        }
    }

    let total: usize = audit.unwrap_counts.values().sum();
    println!(
        "pim-audit: {} files scanned, {} violation(s), {} unwrap/expect(\"\") in library code",
        audit.files_scanned,
        audit.violations(),
        total
    );
    if check && failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("pim-audit: {msg} (try --help)");
    ExitCode::FAILURE
}
