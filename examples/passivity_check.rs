//! Passivity assessment demo (Fig. 4), running only the pipeline stages it
//! needs: weighted fit → assessment → weighted enforcement — no standard
//! fit, no baseline enforcement, no evaluation phase.
//!
//! Run with `cargo run --release --example passivity_check`.

use pim_repro::core_flow::{FitKind, FlowConfig, Pipeline, ScenarioPreset};
use pim_repro::passivity::check::singular_value_sweep_with;
use pim_repro::passivity::NormKind;
use pim_repro::PimError;

fn main() -> Result<(), PimError> {
    let sc = ScenarioPreset::Reduced.build()?;
    let mut pipeline = Pipeline::from_scenario(&sc, FlowConfig::default())?;
    let fit = pipeline.fit(FitKind::Weighted)?;
    let enforcement = pipeline.enforce(NormKind::SensitivityWeighted)?;
    let final_model = match &enforcement {
        Some(out) => &out.model,
        None => &fit.result.model,
    };
    let omegas = sc.data.grid().omegas();
    let pool = pim_repro::runtime::global();
    let before = singular_value_sweep_with(pool, &fit.result.model, &omegas)?;
    let after = singular_value_sweep_with(pool, final_model, &omegas)?;
    println!("{:>12} {:>16} {:>16}", "freq (Hz)", "sigma_max before", "sigma_max after");
    for (k, &f) in sc.data.grid().freqs_hz().iter().enumerate().step_by(6) {
        println!("{:>12.3e} {:>16.9} {:>16.9}", f, before[k][0], after[k][0]);
    }
    if let Some(out) = &enforcement {
        println!("\nenforcement iterations: {}", out.trace.len());
        let history: Vec<f64> =
            out.trace.iter().map(|it| it.sigma_before).chain([out.report.sigma_max]).collect();
        println!("sigma_max history: {history:?}");
    }
    Ok(())
}
