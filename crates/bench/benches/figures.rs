//! Criterion benchmarks timing the computational kernels behind each figure.
//!
//! Besides the printed table, `cargo bench` writes a machine-readable
//! `BENCH_PIM.json` (benchmark name → mean/min/max ns + sample count) into
//! the working directory via the criterion shim's `criterion_main!`; see
//! EXPERIMENTS.md for the `PIM_BENCH_JSON` / `PIM_BENCH_SAMPLES` knobs.

use criterion::{criterion_group, criterion_main, Criterion};
use pim_core::flow::FlowConfig;
use pim_core::pipeline::{FitKind, Pipeline};
use pim_core::scenario::ScenarioPreset;
use pim_core::weighting::sensitivity_weighted_norm;
use pim_passivity::check::{assess_with_crossings, assess_with_sampling, hamiltonian_crossings};
use pim_passivity::enforce::{enforce_passivity, EnforcementConfig, PerturbationNorm};
use pim_passivity::grid::{Adaptive, FixedLog, FrequencyGrid, SamplingStrategy};
use pim_pdn::{
    analytic_sensitivity, monte_carlo_sensitivity_with, target_impedance, SensitivityOptions,
};
use pim_runtime::ThreadPool;
use pim_statespace::StateSpace;
use pim_vectfit::{fit_magnitude, vector_fit, MagnitudeFitConfig, VfConfig};

fn bench_figures(c: &mut Criterion) {
    let sc = ScenarioPreset::Reduced.build().expect("scenario");
    let vf_cfg = VfConfig { n_poles: 14, n_iterations: 4 };
    let xi = analytic_sensitivity(&sc.data, &sc.network, sc.observation_port).expect("xi");
    let weights = pim_pdn::sensitivity::sensitivity_to_weights(&xi, 1e-2).expect("weights");
    let weighted = vector_fit(&sc.data, Some(&weights), &vf_cfg).expect("weighted fit");
    let omegas = sc.data.grid().omegas();
    let (fo, fx): (Vec<f64>, Vec<f64>) =
        omegas.iter().zip(&xi).filter(|(&w, _)| w > 0.0).map(|(&w, &x)| (w, x)).unzip();
    let xi_model = fit_magnitude(&fo, &fx, &MagnitudeFitConfig { order: 6 }).expect("xi model");

    c.bench_function("fig1_standard_vector_fit", |b| {
        b.iter(|| vector_fit(&sc.data, None, &vf_cfg).expect("fit"))
    });
    c.bench_function("fig2_target_impedance", |b| {
        b.iter(|| target_impedance(&sc.data, &sc.network, sc.observation_port).expect("zt"))
    });
    c.bench_function("fig3_sensitivity_and_magnitude_fit", |b| {
        b.iter(|| {
            let xi = analytic_sensitivity(&sc.data, &sc.network, sc.observation_port).expect("xi");
            let (fo, fx): (Vec<f64>, Vec<f64>) =
                omegas.iter().zip(&xi).filter(|(&w, _)| w > 0.0).map(|(&w, &x)| (w, x)).unzip();
            fit_magnitude(&fo, &fx, &MagnitudeFitConfig { order: 6 }).expect("fit")
        })
    });
    // The default (adaptive) assessment, and the same sweep without any
    // refinement for comparison.
    let base_grid = FrequencyGrid::from_omegas(&omegas);
    let assess_base = |strategy: &dyn SamplingStrategy| {
        assess_with_sampling(pim_runtime::global(), &weighted.model, &base_grid, strategy)
            .expect("assess")
    };
    c.bench_function("fig4_passivity_assessment", |b| b.iter(|| assess_base(&Adaptive)));
    c.bench_function("assess_fixed_log", |b| b.iter(|| assess_base(&FixedLog)));
    // The two per-layer kernels of an assessment on the weighted fits of the
    // Reduced (P = 4, 2n = 144) and Paper (P = 8, 2n = 288) presets under
    // their flow configs, the first models the benchmark's flow and
    // read-only workloads assess: the Hamiltonian eigensolve by size, and
    // the σ sweep over the preset's 16× contract audit grid on one thread
    // (no crossings, so no eigensolve and no refinement).
    let serial_pool = ThreadPool::new(1);
    for (eig_name, sweep_name, preset) in [
        ("eig_hamiltonian_crossings_reduced", "sigma_sweep_reduced", ScenarioPreset::Reduced),
        ("eig_hamiltonian_crossings_paper", "sigma_sweep_paper", ScenarioPreset::Paper),
    ] {
        let sc = preset.build().expect("scenario");
        let config = preset.flow_config();
        let audit_grid = FrequencyGrid::enforcement_log(
            sc.data.grid().max_omega(),
            config.enforcement.sweep_points * config.contract.audit_multiplier,
        );
        let fit = Pipeline::from_scenario(&sc, config)
            .expect("pipeline")
            .fit(FitKind::Weighted)
            .expect("weighted fit");
        let sys = StateSpace::from_pole_residue(&fit.result.model).expect("realization");
        c.bench_function(eig_name, |b| b.iter(|| hamiltonian_crossings(&sys).expect("crossings")));
        c.bench_function(sweep_name, |b| {
            b.iter(|| {
                assess_with_crossings(&serial_pool, &fit.result.model, &[], &audit_grid, &FixedLog)
                    .expect("audit sweep")
            })
        });
    }
    let mut slow = c.benchmark_group("enforcement");
    slow.sample_size(10);
    slow.bench_function("fig5_weighted_enforcement", |b| {
        b.iter(|| {
            let norm = sensitivity_weighted_norm(&weighted.model, &xi_model).expect("norm");
            let cfg = EnforcementConfig {
                sweep_points: 120,
                max_iterations: 60,
                sigma_margin: 1e-3,
                ..Default::default()
            };
            enforce_passivity(&weighted.model, &norm, sc.data.grid().max_omega(), &cfg)
        })
    });
    slow.bench_function("ablation_standard_norm_enforcement", |b| {
        b.iter(|| {
            let norm = PerturbationNorm::standard(&weighted.model).expect("norm");
            let cfg = EnforcementConfig {
                sweep_points: 120,
                max_iterations: 60,
                sigma_margin: 1e-3,
                ..Default::default()
            };
            enforce_passivity(&weighted.model, &norm, sc.data.grid().max_omega(), &cfg)
        })
    });
    slow.finish();
    c.bench_function("fig6_model_resampling", |b| {
        b.iter(|| {
            weighted
                .model
                .sample(sc.data.grid(), pim_rfdata::ParameterKind::Scattering, 50.0)
                .expect("sample")
        })
    });
    c.bench_function("ablation_sensitivity_order_4_vs_8", |b| {
        b.iter(|| {
            for order in [4usize, 8] {
                fit_magnitude(&fo, &fx, &MagnitudeFitConfig { order }).expect("fit");
            }
        })
    });

    // --- pim-runtime: the same work mapped on a 1-thread pool and on a wide
    // one. The preset sweep maps its presets one at a time or at once; each
    // preset's report() runs its two enforcement passes and its assessment
    // sweeps on the global pool either way, so neither variant is serial.
    // The Monte Carlo estimator maps its frequencies on the given pool, so
    // its pair is serial against parallel. Every variant is bit-identical to
    // its partner (pinned by the integration/property suites); these benches
    // track the wall-clock ratio, ~1 on a single-core host (the pool
    // degrades to near-serial scheduling); see EXPERIMENTS.md.
    // At least 2 threads so the parallel variants exercise the pooled path
    // even on a single-core host (where the ratio is then ~1 by necessity).
    let wide_pool =
        ThreadPool::new(std::thread::available_parallelism().map_or(2, usize::from).max(2));
    let sweep_presets = [ScenarioPreset::Reduced, ScenarioPreset::Minimal];
    let sweep_config = FlowConfig {
        vf: VfConfig { n_poles: 14, n_iterations: 4 },
        sensitivity_order: 6,
        enforcement: EnforcementConfig {
            sweep_points: 120,
            sigma_margin: 1e-3,
            max_iterations: 60,
            ..Default::default()
        },
        ..FlowConfig::default()
    };
    let sweep = |pool: &ThreadPool| {
        pool.par_map(&sweep_presets, |_, &preset| {
            let scenario = preset.build().expect("scenario");
            Pipeline::from_scenario(&scenario, sweep_config.clone())
                .expect("pipeline")
                .report()
                .expect("report")
        })
    };
    let mut sweeps = c.benchmark_group("runtime");
    sweeps.sample_size(5);
    sweeps.bench_function("sweep_presets_one_at_a_time", |b| b.iter(|| sweep(&serial_pool)));
    sweeps.bench_function("sweep_presets_at_once", |b| b.iter(|| sweep(&wide_pool)));
    sweeps.finish();
    let mc_options = SensitivityOptions { sigma: 1e-5, trials: 64, seed: 0x5EED_CAFE };
    c.bench_function("mc_sensitivity_serial", |b| {
        b.iter(|| {
            monte_carlo_sensitivity_with(
                &serial_pool,
                &sc.data,
                &sc.network,
                sc.observation_port,
                &mc_options,
            )
            .expect("mc")
        })
    });
    c.bench_function("mc_sensitivity_parallel", |b| {
        b.iter(|| {
            monte_carlo_sensitivity_with(
                &wide_pool,
                &sc.data,
                &sc.network,
                sc.observation_port,
                &mc_options,
            )
            .expect("mc")
        })
    });
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
