//! Kernel unit costs of one board, timed from the benchmark on the board's
//! own weighted-fit model and data, so matrix sizes match the workload.

use crate::trace::SpanLog;
use pim_circuit::SyntheticPdn;
use pim_core::{FlowConfig, SensitivityWeightedNorm};
use pim_linalg::eig::eigenvalues;
use pim_passivity::check::singular_value_sweep_with;
use pim_passivity::check::{assess_on, assess_with_sampling, hamiltonian_matrix};
use pim_passivity::constraints::build_constraints;
use pim_passivity::enforce::enforce_asymptotic_passivity;
use pim_passivity::grid::{FrequencyGrid, PointProvenance};
use pim_passivity::qp::{solve_block_qp_factored, BlockQpFactors};
use pim_passivity::NormBuilder;
use pim_pdn::{analytic_sensitivity, target_impedance, TerminationNetwork};
use pim_rfdata::NetworkData;
use pim_runtime::ThreadPool;
use pim_statespace::{PoleResidueModel, StateSpace};
use pim_vectfit::{fit_magnitude, vector_fit, MagnitudeFitConfig, SensitivityModel};
use std::time::Instant;

/// Everything a board's kernel probes need.
pub struct ProbeInput<'a> {
    /// The synthetic board (for the S-parameter solve).
    pub pdn: &'a SyntheticPdn,
    /// Its scattering data.
    pub data: &'a NetworkData,
    /// Its termination network.
    pub network: &'a TerminationNetwork,
    /// The observation port.
    pub port: usize,
    /// The flow configuration the board ran under.
    pub config: &'a FlowConfig,
    /// Sensitivity samples.
    pub sensitivity: &'a [f64],
    /// Fitting weights.
    pub weights: &'a [f64],
    /// The weighting model.
    pub weighting: &'a SensitivityModel,
    /// The weighted fit.
    pub model: &'a PoleResidueModel,
}

/// Kernel names and units, in metric order.
pub const KERNELS: [(&str, &str); 17] = [
    ("statespace.realize_us", "us"),
    ("passivity.hamiltonian_assembly_ms", "ms"),
    ("linalg.eig_ms", "ms"),
    ("linalg.eig_dim", "count"),
    ("passivity.assess_ms", "ms"),
    ("passivity.grid_points", "count"),
    ("passivity.bisection_points", "count"),
    ("passivity.sv_point_us", "us"),
    ("passivity.audit_ms", "ms"),
    ("passivity.constraint_build_ms", "ms"),
    ("passivity.qp_factor_ms", "ms"),
    ("passivity.qp_solve_ms", "ms"),
    ("vectfit.vf_ms", "ms"),
    ("vectfit.magnitude_fit_ms", "ms"),
    ("pdn.target_impedance_ms", "ms"),
    ("pdn.sensitivity_ms", "ms"),
    ("circuit.scattering_solve_ms", "ms"),
];

/// Time budget per kernel: repetitions stop after this much time (at least
/// one, at most [`MAX_REPS`]).
const BUDGET_S: f64 = 0.05;
const MAX_REPS: usize = 5;

/// Median wall time of repeated calls of `f` (seconds) and its last result.
fn median_time<T, E: std::fmt::Display>(
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let t = Instant::now();
        let out = f().map_err(|e| e.to_string())?;
        let dt = t.elapsed().as_secs_f64();
        times.push(dt);
        total += dt;
        if times.len() >= MAX_REPS || total >= BUDGET_S {
            return Ok((crate::median(&mut times), out));
        }
    }
}

/// Times every kernel once (median of a few repetitions each) and returns
/// the values in [`KERNELS`] order. Each kernel gets a span under `parent`.
///
/// # Errors
///
/// Returns the first kernel failure.
pub fn probe(
    input: &ProbeInput<'_>,
    log: &mut SpanLog,
    op: u64,
    parent: u64,
) -> Result<Vec<f64>, String> {
    let cfg = input.config;
    let model = input.model;
    let pool = pim_runtime::global();
    let mut values = Vec::with_capacity(KERNELS.len());
    let span = |log: &mut SpanLog, name: &str, start: f64| {
        let id = log.reserve();
        log.push(id, parent, op, name, start);
    };

    let start = log.now();
    let (realize, sys) = median_time(|| StateSpace::from_pole_residue(model))?;
    span(log, "statespace.realize", start);
    let start = log.now();
    let (assembly, ham) = median_time(|| hamiltonian_matrix(&sys))?;
    span(log, "passivity.hamiltonian_matrix", start);
    let start = log.now();
    let (eig, _) = median_time(|| eigenvalues(&ham))?;
    span(log, "linalg.eig", start);
    values.extend([realize * 1e6, assembly * 1e3, eig * 1e3, ham.rows() as f64]);

    // The assessment stage's call: the data grid refined by the configured
    // sampling strategy.
    let data_grid = FrequencyGrid::from_omegas(&input.data.grid().omegas());
    let strategy = cfg.enforcement.sampling.as_ref();
    let start = log.now();
    let (assess, report) = median_time(|| assess_with_sampling(pool, model, &data_grid, strategy))?;
    span(log, "passivity.assess", start);
    values.extend([
        assess * 1e3,
        report.grid.len() as f64,
        report.grid.count_of(PointProvenance::Bisection) as f64,
    ]);

    // Per-point σ cost on the serial path, over the contract audit grid;
    // then the audit call itself on the global pool.
    let audit = crate::workload::audit_grid(input.data, cfg);
    let serial = ThreadPool::new(1);
    let start = log.now();
    let (sweep, _) = median_time(|| singular_value_sweep_with(&serial, model, audit.points()))?;
    span(log, "passivity.sv_sweep_serial", start);
    let start = log.now();
    let (audit_s, _) = median_time(|| assess_on(model, &audit))?;
    span(log, "passivity.audit", start);
    values.extend([sweep / audit.len() as f64 * 1e6, audit_s * 1e3]);

    // The first enforcement iteration's kernels, set up the way the loop
    // sets them up: clipped feedthrough, working-grid assessment, constraint
    // frequencies from the violation bands and the Hamiltonian crossings.
    let ec = &cfg.enforcement;
    let current =
        enforce_asymptotic_passivity(model, 1.0 - ec.sigma_margin).map_err(|e| e.to_string())?;
    let element =
        StateSpace::from_pole_residue_element(&current, 0, 0).map_err(|e| e.to_string())?;
    let working = strategy.working_grid(input.data.grid().max_omega(), ec.sweep_points);
    let report =
        assess_with_sampling(pool, &current, &working, strategy).map_err(|e| e.to_string())?;
    let mut freqs: Vec<f64> = report
        .bands
        .iter()
        .flat_map(|b| [b.omega_peak, b.omega_low, b.omega_high, 0.5 * (b.omega_low + b.omega_high)])
        .chain(report.hamiltonian_crossings.iter().copied())
        .filter(|w| w.is_finite() && *w >= 0.0)
        .collect();
    if freqs.is_empty() {
        freqs.push(report.omega_at_sigma_max);
    }
    freqs.sort_by(f64::total_cmp);
    freqs.dedup_by(|a, b| (*a - *b).abs() <= 1e-9 * a.abs().max(1.0));
    let start = log.now();
    let (constraint_build, cons) = median_time(|| {
        build_constraints(&current, &element, &freqs, ec.sigma_threshold, ec.sigma_margin)
    })?;
    span(log, "passivity.build_constraints", start);
    let norm = SensitivityWeightedNorm::new(input.weighting.clone())
        .build(model)
        .map_err(|e| e.to_string())?;
    let start = log.now();
    let (qp_factor, factors) = median_time(|| {
        BlockQpFactors::new_adaptive(norm.gramians(), ec.qp.regularization, ec.qp.max_condition)
    })?;
    span(log, "passivity.qp_factor", start);
    let start = log.now();
    let (qp_solve, _) =
        median_time(|| solve_block_qp_factored(&factors, &cons.f, &cons.g, &ec.qp))?;
    span(log, "passivity.qp_solve", start);
    values.extend([constraint_build * 1e3, qp_factor * 1e3, qp_solve * 1e3]);

    let start = log.now();
    let (vf, _) = median_time(|| vector_fit(input.data, Some(input.weights), &cfg.vf))?;
    span(log, "vectfit.vector_fit", start);
    let (omegas, xi): (Vec<f64>, Vec<f64>) = input
        .data
        .grid()
        .omegas()
        .into_iter()
        .zip(input.sensitivity.iter().copied())
        .filter(|&(w, _)| w > 0.0)
        .unzip();
    let mag_cfg = MagnitudeFitConfig { order: cfg.sensitivity_order, ..Default::default() };
    let start = log.now();
    let (magnitude, _) = median_time(|| fit_magnitude(&omegas, &xi, &mag_cfg))?;
    span(log, "vectfit.fit_magnitude", start);
    values.extend([vf * 1e3, magnitude * 1e3]);

    let start = log.now();
    let (zt, _) = median_time(|| target_impedance(input.data, input.network, input.port))?;
    span(log, "pdn.target_impedance", start);
    let start = log.now();
    let (sens, _) = median_time(|| analytic_sensitivity(input.data, input.network, input.port))?;
    span(log, "pdn.analytic_sensitivity", start);
    let start = log.now();
    let (solve, _) = median_time(|| {
        input.pdn.circuit.scattering_parameters(input.data.grid(), input.data.z_ref())
    })?;
    span(log, "circuit.scattering_parameters", start);
    values.extend([zt * 1e3, sens * 1e3, solve * 1e3]);

    debug_assert_eq!(values.len(), KERNELS.len());
    Ok(values)
}
