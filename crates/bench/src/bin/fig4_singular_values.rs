//! Figure 4: singular values of the weighted model before / after the
//! sensitivity-weighted passivity enforcement.
use pim_passivity::check::singular_value_sweep_with;

fn main() {
    let (scenario, report) = pim_bench::run_reduced_flow();
    let omegas = scenario.data.grid().omegas();
    let sweep = |model| singular_value_sweep_with(pim_runtime::global(), model, &omegas);
    let before = sweep(&report.weighted_fit.model).expect("sweep");
    let after = sweep(report.final_model()).expect("sweep");
    println!("# Figure 4: worst singular value before/after weighted enforcement");
    println!("{:>12} {:>14} {:>14}", "freq_Hz", "sigma_before", "sigma_after");
    for (k, &f) in scenario.data.grid().freqs_hz().iter().enumerate() {
        println!("{:>12.4e} {:>14.9} {:>14.9}", f, before[k][0], after[k][0]);
    }
    if let Some(out) = &report.weighted_enforcement {
        println!("# enforcement iterations: {}", out.trace.len());
    }
}
