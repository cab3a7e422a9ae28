//! Stress-corpus report: certification-gated batch run over generated
//! boards.
//!
//! Runs the seeded corpus (`pim_core::corpus`) over `N` boards (default
//! 100, seeds `0..N`), prints one line per scenario plus a class summary,
//! and optionally:
//!
//! * `--check <known_adverse_file>` — exit non-zero if any non-Certified
//!   verdict is **not** listed in the committed known-adverse file, or if a
//!   listed verdict of a seed below `N` no longer reproduces (the CI
//!   corpus-smoke gate: new failures must be triaged, known ones must not
//!   block, and the list only shrinks — a listed board that now certifies
//!   means the list must be regenerated with `--emit-known-adverse`);
//! * `--emit-known-adverse` — print the known-adverse lines for the run
//!   (used to regenerate the committed list);
//! * `--pin-dense-decap <path>` — classify the canonical 5×5 dense-decap
//!   regime (historically the flagship divergence; the reduced-order retry
//!   now delivers it, adverse) and write the replayable fixture with its
//!   fresh verdict to `path` (used to regenerate
//!   `tests/fixtures/corpus/dense-decap-5x5.fixture`);
//! * `--minimize-failures <dir>` — auto-minimize every non-Certified corpus
//!   scenario and write one fixture per seed into `dir`.
//!
//! The header's gate is the default corpus flow's accuracy contract
//! (`CorpusConfig::default().flow.contract`). The report is reproducible
//! from its seed list: same binary, same `N`, same verdicts, bit for bit.

use pim_core::corpus::{
    dense_decap_divergence_case, minimize, Corpus, CorpusClass, CorpusConfig, CorpusVerdict,
    MinimizedFixture,
};
use pim_core::RecoveryRung;
use std::collections::BTreeSet;
use std::time::Instant;

fn fmt_opt(x: Option<f64>) -> String {
    x.map_or("-".to_string(), |v| format!("{v:.6}"))
}

fn known_adverse_line(v: &CorpusVerdict) -> String {
    format!("{} {}", v.seed, v.class)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut n: usize = 100;
    let mut check: Option<String> = None;
    let mut emit_known = false;
    let mut pin_dense: Option<String> = None;
    let mut minimize_failures: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = Some(it.next().expect("--check needs a path").clone()),
            "--emit-known-adverse" => emit_known = true,
            "--pin-dense-decap" => {
                pin_dense = Some(it.next().expect("--pin-dense-decap needs a path").clone());
            }
            "--minimize-failures" => {
                minimize_failures =
                    Some(it.next().expect("--minimize-failures needs a directory").clone());
            }
            other => n = other.parse().expect("board count must be an integer"),
        }
    }

    if let Some(path) = &pin_dense {
        // The canonical case is pinned as-is (no shrinking): now that the
        // reduced-order retry converges it, minimizing toward the convergent
        // class would collapse the board to a trivial one and lose the
        // historically-adversarial regime the fixture exists to exercise.
        let case = dense_decap_divergence_case();
        eprintln!("classifying the canonical dense-decap 5x5 regime (pin, no minimization)");
        let t0 = Instant::now();
        let verdict = case.classify();
        let fixture = MinimizedFixture {
            name: "dense-decap-5x5".to_string(),
            class: verdict.class,
            pinned_iterations: verdict.iterations,
            detail: verdict.detail.clone(),
            case,
        };
        std::fs::write(path, fixture.serialize()).expect("write fixture");
        eprintln!(
            "wrote {path}: {}x{} board, {} decaps, order {}, class {} via rung {} after {} iteration(s) ({:.1}s)",
            fixture.case.board.spec.nx,
            fixture.case.board.spec.ny,
            fixture.case.board.spec.decap_ports.len(),
            fixture.case.flow.vf.n_poles,
            verdict.class.name(),
            verdict.rung.map_or("-", |r| r.name()),
            verdict.iterations,
            t0.elapsed().as_secs_f64()
        );
        return;
    }

    let config = CorpusConfig::default();
    let seeds: Vec<u64> = (0..n as u64).collect();
    let t0 = Instant::now();
    let verdicts = Corpus::run(&config, &seeds);
    let seconds = t0.elapsed().as_secs_f64();

    println!("# Corpus report: {n} boards, seeds 0..{n}, default CorpusConfig");
    println!(
        "# gate: sigma_max <= 1+{:.0e} on {}x audit grid AND weighted beats standard",
        config.flow.contract.sigma_tolerance, config.flow.contract.audit_multiplier
    );
    println!("# seed | class | board | ports | order | iters | rung | audit sigma | Z err weighted | Z err standard | detail");
    for v in &verdicts {
        println!(
            "{:>4} | {:<9} | {}x{} | {} | {} | {:>2} | {:<13} | {} | {} | {} | {}",
            v.seed,
            v.class.name(),
            v.nx,
            v.ny,
            v.ports,
            v.order,
            v.iterations,
            v.rung.map_or("-", |r| r.name()),
            fmt_opt(v.audit_sigma_max),
            fmt_opt(v.weighted_error),
            fmt_opt(v.standard_error),
            v.detail
        );
    }
    let count = |c: CorpusClass| verdicts.iter().filter(|v| v.class == c).count();
    // Wall-clock goes to stderr: the stdout report must be reproducible
    // from its seed list, bit for bit.
    println!(
        "# summary: {} certified, {} adverse, {} diverged, {} failed",
        count(CorpusClass::Certified),
        count(CorpusClass::Adverse),
        count(CorpusClass::Diverged),
        count(CorpusClass::Failed)
    );
    let rung_count = |r: RecoveryRung| verdicts.iter().filter(|v| v.rung == Some(r)).count();
    println!(
        "# recovery: {} primary, {} reduced-order",
        rung_count(RecoveryRung::Primary),
        rung_count(RecoveryRung::ReducedOrder)
    );
    eprintln!("corpus run: {n} boards in {seconds:.1}s");

    let non_certified: Vec<&CorpusVerdict> =
        verdicts.iter().filter(|v| v.class != CorpusClass::Certified).collect();

    if emit_known {
        println!("# known-adverse lines (seed class):");
        for v in &non_certified {
            println!("{}", known_adverse_line(v));
        }
    }

    if let Some(dir) = &minimize_failures {
        std::fs::create_dir_all(dir).expect("create fixture directory");
        for v in &non_certified {
            let case = Corpus::case(&config, v.seed).expect("case rebuild");
            match minimize(&case, v.class) {
                Ok((fixture, mv)) => {
                    let path = format!("{dir}/{}.fixture", fixture.name);
                    std::fs::write(&path, fixture.serialize()).expect("write fixture");
                    eprintln!(
                        "minimized seed {} ({}): {}x{} board, {} decaps, order {} -> {path} (iters {})",
                        v.seed,
                        v.class.name(),
                        fixture.case.board.spec.nx,
                        fixture.case.board.spec.ny,
                        fixture.case.board.spec.decap_ports.len(),
                        fixture.case.flow.vf.n_poles,
                        mv.iterations
                    );
                }
                Err(e) => eprintln!("seed {}: minimization failed: {e}", v.seed),
            }
        }
    }

    if let Some(path) = &check {
        let text = std::fs::read_to_string(path).expect("read known-adverse file");
        let known: BTreeSet<String> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        let new: Vec<&CorpusVerdict> = non_certified
            .iter()
            .copied()
            .filter(|v| !known.contains(&known_adverse_line(v)))
            .collect();
        if !new.is_empty() {
            eprintln!("# check FAILED: {} verdict(s) not in {path}:", new.len());
            for v in &new {
                eprintln!("#   seed {} {}: {}", v.seed, v.class.name(), v.detail);
            }
            std::process::exit(1);
        }
        // Shrinkage gate: every listed verdict of a seed this run covered
        // must still reproduce. A listed board that now certifies (or changed
        // class) makes the list stale; it must shrink, not linger.
        let current: BTreeSet<String> =
            non_certified.iter().map(|v| known_adverse_line(v)).collect();
        let stale: Vec<&String> = known
            .iter()
            .filter(|line| {
                let seed = line.split_whitespace().next().and_then(|s| s.parse::<usize>().ok());
                seed.is_some_and(|s| s < n) && !current.contains(*line)
            })
            .collect();
        if !stale.is_empty() {
            eprintln!(
                "# check FAILED: {} listed verdict(s) in {path} no longer reproduce; \
                 regenerate the list with --emit-known-adverse:",
                stale.len()
            );
            for line in &stale {
                eprintln!("#   {line}");
            }
            std::process::exit(1);
        }
        println!(
            "# check: {} non-certified verdict(s), all within {path} ({} listed)",
            non_certified.len(),
            known.len()
        );
    }
}
