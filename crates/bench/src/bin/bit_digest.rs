//! Bit-identity digests of the flow's numerical artifacts.
//!
//! Prints one 64-bit FNV-1a digest of the f64 bit patterns per item:
//!
//! * for every preset under its recommended flow configuration: the
//!   standard and weighted fits, the weighting model `Ξ̃`, the full
//!   realization of the weighted fit, the realization of its element
//!   `(0, 0)` and the Hamiltonian matrix of the full realization;
//! * the weighted fit and `Ξ̃` of corpus seeds `0..100`;
//! * for each reduced-flow preset (reduced, dense-decap, bulk-decap) under
//!   its recommended flow configuration, the `report()`: the delivered
//!   model, each enforcement outcome (model, final `σ_max` and every trace
//!   field), the four evaluations and the accuracy contract (its rung in
//!   words, then the audit `σ_max` and the impedance error).
//!
//! A refactor that claims bit-identical numerics runs this binary before
//! and after the change and diffs the two outputs. Digests depend on the
//! platform's libm, so none is pinned; compare runs on one machine only.
//!
//! ```text
//! cargo run --release -p pim-bench --bin bit_digest > after.txt
//! ```

use pim_core::corpus::{Corpus, CorpusConfig};
use pim_core::flow::{FlowReport, ModelEvaluation};
use pim_core::pipeline::{FitKind, Pipeline};
use pim_core::scenario::ScenarioPreset;
use pim_passivity::check::hamiltonian_matrix;
use pim_passivity::EnforcementOutcome;
use pim_statespace::{PoleResidueModel, StateSpace};
use pim_vectfit::VfResult;
use std::error::Error;

/// FNV-1a over the little-endian bytes of each f64's bit pattern.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, values: impl IntoIterator<Item = f64>) -> &mut Self {
        for x in values {
            for byte in x.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self
    }

    fn model(&mut self, model: &PoleResidueModel) -> &mut Self {
        self.push(model.poles().iter().flat_map(|p| [p.re, p.im]));
        for r in model.residues() {
            self.push(r.as_slice().iter().flat_map(|z| [z.re, z.im]));
        }
        self.push(model.d().as_slice().iter().copied())
    }

    fn fit(&mut self, fit: &VfResult) -> &mut Self {
        self.model(&fit.model).push([fit.rms_error, fit.weighted_rms_error])
    }

    fn system(&mut self, sys: &StateSpace) -> &mut Self {
        for m in [sys.a(), sys.b(), sys.c(), sys.d()] {
            self.push(m.as_slice().iter().copied());
        }
        self
    }

    /// The model, the final `σ_max` and every field of every iteration
    /// (the counts as exact f64s).
    fn enforcement(&mut self, outcome: &EnforcementOutcome) -> &mut Self {
        self.model(&outcome.model).push([outcome.report.sigma_max]);
        for it in &outcome.trace {
            self.push([
                it.iteration as f64,
                it.sigma_before,
                it.sigma_after,
                it.step,
                it.norm_increment,
                it.constraints as f64,
                it.grid_points as f64,
                it.qp_lambda,
            ]);
        }
        self
    }

    fn evaluation(&mut self, eval: &ModelEvaluation) -> &mut Self {
        self.push([eval.scattering_rms_error, eval.impedance_relative_error])
            .push(eval.impedance.freqs_hz.iter().copied())
            .push(eval.impedance.values.iter().flat_map(|z| [z.re, z.im]))
    }
}

fn line(name: &str, digest: Result<u64, Box<dyn Error>>) {
    match digest {
        Ok(d) => println!("{name:<28} {d:016x}"),
        Err(e) => println!("{name:<28} error: {e}"),
    }
}

/// A digest line for an item that may be absent.
fn optional(name: &str, digest: Option<u64>) {
    match digest {
        Some(d) => line(name, Ok(d)),
        None => println!("{name:<28} none"),
    }
}

fn report_lines(name: &str, report: &FlowReport) {
    line(&format!("{name} delivered"), Ok(Fnv::new().model(report.final_model()).0));
    let enforcements = [
        ("weighted-enf", &report.weighted_enforcement),
        ("standard-enf", &report.standard_enforcement),
    ];
    for (item, outcome) in enforcements {
        optional(&format!("{name} {item}"), outcome.as_ref().map(|o| Fnv::new().enforcement(o).0));
    }
    let evaluations = [
        ("standard-eval", Some(&report.standard_model_eval)),
        ("weighted-eval", Some(&report.weighted_model_eval)),
        ("passive-eval", Some(&report.weighted_passive_eval)),
        ("baseline-eval", report.standard_passive_eval.as_ref()),
    ];
    for (item, eval) in evaluations {
        optional(&format!("{name} {item}"), eval.map(|e| Fnv::new().evaluation(e).0));
    }
    let contract = format!("{name} contract");
    match &report.contract {
        Some(c) => {
            let d = Fnv::new().push([c.audit_sigma_max, c.impedance_error]).0;
            println!("{contract:<28} {} {d:016x}", c.rung);
        }
        None => println!("{contract:<28} none"),
    }
}

fn main() {
    for preset in ScenarioPreset::ALL {
        let name = preset.name();
        let run = || -> Result<Vec<(&str, u64)>, Box<dyn Error>> {
            let scenario = preset.build()?;
            let mut pipeline = Pipeline::from_scenario(&scenario, preset.flow_config())?;
            let standard = pipeline.fit(FitKind::Standard)?.result;
            let weighted = pipeline.fit(FitKind::Weighted)?.result;
            let xi = pipeline.weighting_model()?;
            let sys = StateSpace::from_pole_residue(&weighted.model)?;
            let element = StateSpace::from_pole_residue_element(&weighted.model, 0, 0)?;
            let ham = hamiltonian_matrix(&sys)?;
            Ok(vec![
                ("standard-fit", Fnv::new().fit(&standard).0),
                ("weighted-fit", Fnv::new().fit(&weighted).0),
                ("xi", Fnv::new().model(xi.model()).0),
                ("realization", Fnv::new().system(&sys).0),
                ("element-0-0", Fnv::new().system(&element).0),
                ("hamiltonian", Fnv::new().push(ham.as_slice().iter().copied()).0),
            ])
        };
        match run() {
            Ok(items) => {
                for (item, d) in items {
                    line(&format!("{name} {item}"), Ok(d));
                }
            }
            Err(e) => line(name, Err(e)),
        }
    }

    let corpus = CorpusConfig::default();
    for seed in 0..100u64 {
        let run = || -> Result<u64, Box<dyn Error>> {
            let case = Corpus::case(&corpus, seed)?;
            let (_pdn, data, network, port) = case.assemble()?;
            let mut pipeline = Pipeline::from_data(&data, &network, port, case.flow.clone())?;
            let weighted = pipeline.fit(FitKind::Weighted)?.result;
            let xi = pipeline.weighting_model()?;
            Ok(Fnv::new().fit(&weighted).model(xi.model()).0)
        };
        line(&format!("corpus {seed} fits"), run());
    }

    for preset in [ScenarioPreset::Reduced, ScenarioPreset::DenseDecap, ScenarioPreset::BulkDecap] {
        let run = || -> Result<FlowReport, Box<dyn Error>> {
            let scenario = preset.build()?;
            Ok(Pipeline::from_scenario(&scenario, preset.flow_config())?.report()?)
        };
        match run() {
            Ok(report) => report_lines(preset.name(), &report),
            Err(e) => line(&format!("{} report", preset.name()), Err(e)),
        }
    }
}
