//! Quickstart: run the staged macromodeling pipeline on a small synthetic
//! PDN — fit, check passivity, enforce it with the sensitivity-weighted norm
//! and print the resulting accuracy summary, the per-iteration enforcement
//! traces recorded by a `TraceObserver`, and the accuracy contract (the 16x
//! audit of the delivered model).
//!
//! Run with `cargo run --release --example quickstart`.

use pim_repro::core_flow::{FlowConfig, Pipeline, ScenarioPreset, Stage, TraceObserver};
use pim_repro::passivity::NormKind;
use pim_repro::PimError;

fn main() -> Result<(), PimError> {
    let scenario = ScenarioPreset::Reduced.build()?;
    println!(
        "scenario: {} ports, {} frequency samples ({:.0} Hz - {:.2e} Hz)",
        scenario.data.ports(),
        scenario.data.len(),
        scenario.data.grid().freqs_hz()[1],
        scenario.data.grid().max_hz()
    );
    let mut trace = TraceObserver::new();
    let report = Pipeline::from_scenario(&scenario, FlowConfig::default())?
        .with_observer(&mut trace)
        .report()?;
    println!(
        "standard fit   : S rms {:.3e}, target-impedance error {:.1}%",
        report.standard_model_eval.scattering_rms_error,
        100.0 * report.standard_model_eval.impedance_relative_error
    );
    println!(
        "weighted fit   : S rms {:.3e}, target-impedance error {:.1}%",
        report.weighted_model_eval.scattering_rms_error,
        100.0 * report.weighted_model_eval.impedance_relative_error
    );
    println!("sigma_max before enforcement: {:.6}", report.sigma_max_before);
    if let Some(out) = &report.weighted_enforcement {
        println!(
            "weighted enforcement: {} iterations, final sigma_max {:.6}",
            out.trace.len(),
            out.report.sigma_max
        );
    } else {
        println!("weighted model was already passive");
    }
    println!(
        "final passive model: target-impedance error {:.1}%",
        100.0 * report.weighted_passive_eval.impedance_relative_error
    );
    if let Some(std_eval) = &report.standard_passive_eval {
        println!(
            "standard-norm baseline: target-impedance error {:.1}%",
            100.0 * std_eval.impedance_relative_error
        );
    }
    // iterations_report: the per-iteration enforcement traces the observer
    // recorded, weighted vs standard norm (the diagnostic of the Fig. 5
    // anomaly, which adaptive sampling resolved).
    let weighted = trace.trace(NormKind::SensitivityWeighted);
    let standard = trace.trace(NormKind::Standard);
    if !weighted.is_empty() || !standard.is_empty() {
        println!("iterations_report: per-iteration trace, weighted vs standard norm");
        println!(
            "  {:>4} {:>10} {:>10} {:>11} | {:>10} {:>10} {:>11}",
            "iter", "w sigma", "w step", "w |dS|^2", "s sigma", "s step", "s |dS|^2"
        );
        for k in 0..weighted.len().max(standard.len()) {
            let fmt = |t: &[&pim_repro::passivity::EnforcementIteration]| match t.get(k) {
                Some(ev) => format!(
                    "{:>10.6} {:>10.4} {:>11.3e}",
                    ev.sigma_after, ev.step, ev.norm_increment
                ),
                None => format!("{:>10} {:>10} {:>11}", "(done)", "", ""),
            };
            println!("  {:>4} {} | {}", k + 1, fmt(&weighted), fmt(&standard));
        }
        let total = |t: &[&pim_repro::passivity::EnforcementIteration]| -> f64 {
            t.iter().map(|ev| ev.norm_increment).sum()
        };
        println!(
            "  accumulated perturbation norm: weighted {:.3e}, standard {:.3e}",
            total(&weighted),
            total(&standard)
        );
        if trace.failed.contains(&Stage::Enforcement(NormKind::Standard)) {
            println!(
                "  note: the standard-norm baseline did NOT converge; its trace is the \
                 failed attempt (shown for diagnosis)"
            );
        }
    }

    // The accuracy contract: the delivered model audited on a 16x fixed-log
    // grid it was never constrained on, plus its target-impedance error.
    if let Some(contract) = &report.contract {
        println!("accuracy contract: {contract}");
    }
    Ok(())
}
