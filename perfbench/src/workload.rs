//! The three workloads: which boards each one runs, how one op runs them,
//! and the output checks that decide whether an op failed.
//!
//! An op is one pass over the workload's board set. Every seed runs the same
//! board set, so runs with different seeds do the same work and their figures
//! are comparable: the flow workloads take their board order from the seed,
//! and `corpus-block` runs one fixed block.

use pim_circuit::SyntheticPdn;
use pim_core::corpus::{Corpus, CorpusCase, CorpusClass, CorpusConfig, CorpusVerdict};
use pim_core::{FitKind, FlowConfig, FlowObserver, FlowReport, Pipeline, ScenarioPreset};
use pim_core::{ModelEvaluation, StandardScenario};
use pim_passivity::check::assess_on;
use pim_passivity::grid::FrequencyGrid;
use pim_pdn::TerminationNetwork;
use pim_rfdata::NetworkData;
use pim_statespace::PoleResidueModel;
use pim_vectfit::SensitivityModel;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The whole paper flow (`Pipeline::report`) on the 4×4 presets.
    ReducedFlow,
    /// The read-only path (sensitivity, both fits, weighting model,
    /// assessment, 16× audit, evaluation) on the paper-size presets.
    FitAudit,
    /// `Corpus::run` over a block of generated boards.
    CorpusBlock,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::ReducedFlow, Workload::FitAudit, Workload::CorpusBlock];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReducedFlow => "reduced-flow",
            Workload::FitAudit => "fit-audit",
            Workload::CorpusBlock => "corpus-block",
        }
    }

    /// Parses [`Workload::name`] output.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The presets of `reduced-flow`: the reduced board and its two 4×4
/// siblings. Seed `s` starts the round at preset `s mod 3`, so seed 0
/// leads with `Reduced`.
const REDUCED_FLOW_PRESETS: [ScenarioPreset; 3] =
    [ScenarioPreset::Reduced, ScenarioPreset::DenseDecap, ScenarioPreset::BulkDecap];

/// The presets of `fit-audit`: the paper's own board and the multi-VRM
/// board. Seed `s` starts the round at preset `s mod 2`.
const FIT_AUDIT_PRESETS: [ScenarioPreset; 2] = [ScenarioPreset::Paper, ScenarioPreset::MultiVrm];

/// The generator seeds of the `corpus-block` block: boards of 4 to 7 ports
/// that `tests/fixtures/corpus/report.txt` lists as certified by the primary
/// enforcement, ordered by decreasing cost so that the boards batched
/// together cost about the same. Per-board cost across generator seeds spans 0.2 s to 37 s (the
/// ladder-delivered boards are the slowest), so a seed-chosen block would
/// make `boards_per_min` a property of the block rather than of the code:
/// the block is the same for every seed.
const CORPUS_SEEDS: [u64; 7] = [4, 9, 16, 24, 8, 11, 10];

/// The committed 100-board corpus report: the verdict every population
/// board must keep.
const CORPUS_REPORT: &str = include_str!("../../tests/fixtures/corpus/report.txt");

/// A preset and its solved scenario.
pub type Scenario = (ScenarioPreset, StandardScenario);

/// The boards of one run, built before the timed loop.
pub enum Boards {
    /// `reduced-flow` scenarios, solved once and shared by every op.
    Flow(Vec<Scenario>),
    /// `fit-audit` scenarios, solved once and shared by every op.
    FitAudit(Vec<Scenario>),
    /// A corpus block: `Corpus::run` regenerates and re-solves each board
    /// inside the op, so the set-up keeps only the seeds and the cases.
    Corpus { config: Box<CorpusConfig>, seeds: Vec<u64>, cases: Vec<CorpusCase> },
}

impl Boards {
    /// Number of boards one op processes.
    pub fn len(&self) -> usize {
        match self {
            Boards::Flow(s) | Boards::FitAudit(s) => s.len(),
            Boards::Corpus { seeds, .. } => seeds.len(),
        }
    }
}

/// Rotates `items` left by `by`.
fn rotated<T: Copy>(items: &[T], by: u64) -> Vec<T> {
    let k = (by % items.len() as u64) as usize;
    items[k..].iter().chain(&items[..k]).copied().collect()
}

/// Builds the boards of `workload` for `seed`: scenario construction (board
/// netlist and S-parameter solve), or corpus board generation plus assembly.
///
/// # Errors
///
/// Returns the first construction failure.
pub fn setup(workload: Workload, seed: u64) -> Result<Boards, String> {
    let build = |presets: Vec<ScenarioPreset>| -> Result<Vec<Scenario>, String> {
        presets
            .into_iter()
            .map(|p| p.build().map(|sc| (p, sc)).map_err(|e| format!("{}: {e}", p.name())))
            .collect()
    };
    match workload {
        Workload::ReducedFlow => build(rotated(&REDUCED_FLOW_PRESETS, seed)).map(Boards::Flow),
        Workload::FitAudit => build(rotated(&FIT_AUDIT_PRESETS, seed)).map(Boards::FitAudit),
        Workload::CorpusBlock => {
            let config = CorpusConfig::default();
            let seeds = CORPUS_SEEDS.to_vec();
            let cases = seeds
                .iter()
                .map(|&s| {
                    let case = Corpus::case(&config, s).map_err(|e| format!("seed {s}: {e}"))?;
                    case.assemble().map_err(|e| format!("seed {s}: {e}"))?;
                    Ok(case)
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Boards::Corpus { config: Box::new(config), seeds, cases })
        }
    }
}

/// What one board of an op produced, after its checks.
#[derive(Debug, Clone)]
pub struct BoardOutcome {
    /// Board label (preset name or corpus seed).
    pub board: String,
    /// Every output check passed.
    pub ok: bool,
    /// The board passed its workload's certification gate (see
    /// `certified_fraction` in the README).
    pub certified: bool,
    /// Target-impedance relative error of the delivered model (fit-audit:
    /// of the weighted fit).
    pub z_err: Option<f64>,
    /// Why a check failed (empty when `ok`).
    pub detail: String,
}

impl BoardOutcome {
    fn failed(board: String, detail: String) -> Self {
        BoardOutcome { board, ok: false, certified: false, z_err: None, detail }
    }
}

/// Runs the whole flow on one preset scenario.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn reduced_flow(
    preset: ScenarioPreset,
    scenario: &StandardScenario,
    observer: Option<&mut dyn FlowObserver>,
) -> Result<FlowReport, String> {
    let mut pipeline =
        Pipeline::from_scenario(scenario, preset.flow_config()).map_err(|e| e.to_string())?;
    if let Some(obs) = observer {
        pipeline = pipeline.with_observer(obs);
    }
    pipeline.report().map_err(|e| e.to_string())
}

/// Check of a `reduced-flow` board: the report exists and its delivered model
/// passes the contract's passivity audit.
pub fn check_flow(board: String, report: &Result<FlowReport, String>) -> BoardOutcome {
    let report = match report {
        Ok(r) => r,
        Err(e) => return BoardOutcome::failed(board, format!("report: {e}")),
    };
    match &report.contract {
        Some(c) if c.passivity_ok() => BoardOutcome {
            board,
            ok: true,
            certified: true,
            z_err: Some(c.impedance_error),
            detail: String::new(),
        },
        Some(c) => BoardOutcome::failed(board, format!("contract audit failed: {c}")),
        None => BoardOutcome::failed(board, "report carries no accuracy contract".into()),
    }
}

/// Everything the read-only `fit-audit` path produced on one board.
pub struct FitAudit {
    /// Evaluation of the standard fit.
    pub standard: ModelEvaluation,
    /// Evaluation of the weighted fit.
    pub weighted: ModelEvaluation,
    /// The assessment stage's passivity verdict on the weighted fit.
    pub assessed_passive: bool,
    /// The 16× audit grid's passivity verdict on the weighted fit.
    pub audited_passive: bool,
    /// The weighted fit, for the kernel probes.
    pub model: PoleResidueModel,
    /// The sensitivity samples, for the kernel probes.
    pub sensitivity: Vec<f64>,
    /// The fitting weights, for the kernel probes.
    pub weights: Vec<f64>,
    /// The weighting model, for the kernel probes.
    pub weighting: SensitivityModel,
}

/// The contract audit grid of a flow: `sweep_points × audit_multiplier`
/// fixed-log points up to the data band edge (the grid `Pipeline::report`
/// audits on).
pub fn audit_grid(data: &NetworkData, config: &FlowConfig) -> FrequencyGrid {
    FrequencyGrid::enforcement_log(
        data.grid().max_omega(),
        config.enforcement.sweep_points * config.contract.audit_multiplier,
    )
}

/// Runs the read-only path on one preset scenario: sensitivity, standard
/// and weighted fit, weighting model, assessment, the 16× audit of the
/// weighted fit, and the evaluation of both fits.
///
/// # Errors
///
/// Propagates stage failures.
pub fn fit_audit(
    preset: ScenarioPreset,
    scenario: &StandardScenario,
    observer: Option<&mut dyn FlowObserver>,
) -> Result<FitAudit, String> {
    let config = preset.flow_config();
    let grid = audit_grid(&scenario.data, &config);
    let mut pipeline = Pipeline::from_scenario(scenario, config).map_err(|e| e.to_string())?;
    if let Some(obs) = observer {
        pipeline = pipeline.with_observer(obs);
    }
    fit_audit_stages(&mut pipeline, &grid).map_err(|e| e.to_string())
}

fn fit_audit_stages(
    pipeline: &mut Pipeline<'_>,
    grid: &FrequencyGrid,
) -> pim_core::Result<FitAudit> {
    let sensitivity = pipeline.sensitivity()?;
    let standard = pipeline.fit(FitKind::Standard)?.result.model;
    let weighted = pipeline.fit(FitKind::Weighted)?.result.model;
    let weighting = pipeline.weighting_model()?;
    let assessed_passive = pipeline.assess()?.report.passive;
    let audited_passive = assess_on(&weighted, grid)?.passive;
    Ok(FitAudit {
        standard: pipeline.evaluate(&standard)?,
        weighted: pipeline.evaluate(&weighted)?,
        assessed_passive,
        audited_passive,
        model: weighted,
        sensitivity: sensitivity.sensitivity,
        weights: sensitivity.weights,
        weighting,
    })
}

/// Check of a `fit-audit` board: the weighted fit beats the standard fit on
/// target-impedance error (the paper's Fig. 2 claim), and the assessment and
/// the audit agree on the passivity verdict.
pub fn check_fit_audit(board: String, out: &Result<FitAudit, String>) -> BoardOutcome {
    let out = match out {
        Ok(o) => o,
        Err(e) => return BoardOutcome::failed(board, format!("fit-audit: {e}")),
    };
    let (w, s) = (out.weighted.impedance_relative_error, out.standard.impedance_relative_error);
    let mut reasons = Vec::new();
    if w.partial_cmp(&s) != Some(std::cmp::Ordering::Less) {
        reasons.push(format!("weighted fit error {w} does not beat standard {s}"));
    }
    if out.assessed_passive != out.audited_passive {
        reasons.push(format!(
            "assessment says passive={} but the audit says passive={}",
            out.assessed_passive, out.audited_passive
        ));
    }
    BoardOutcome {
        board,
        ok: reasons.is_empty(),
        certified: reasons.is_empty(),
        z_err: Some(w),
        detail: reasons.join("; "),
    }
}

/// The committed verdict class of a corpus seed, if the report covers it.
fn committed_class(seed: u64) -> Option<&'static str> {
    CORPUS_REPORT
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut cols = l.split('|').map(str::trim);
            Some((cols.next()?.parse::<u64>().ok()?, cols.next()?))
        })
        .find(|&(s, _)| s == seed)
        .map(|(_, class)| class)
}

/// Check of a corpus verdict: neither failed nor diverged, and a board the
/// committed report lists as certified is still certified.
pub fn check_verdict(v: &CorpusVerdict) -> BoardOutcome {
    check_class(v.seed, v.class, &v.detail, v.weighted_error)
}

fn check_class(
    seed: u64,
    class: CorpusClass,
    detail: &str,
    weighted_error: Option<f64>,
) -> BoardOutcome {
    let certified = class == CorpusClass::Certified;
    let mut reasons = Vec::new();
    if matches!(class, CorpusClass::Failed | CorpusClass::Diverged) {
        reasons.push(format!("{class}: {detail}"));
    }
    if committed_class(seed) == Some(CorpusClass::Certified.name()) && !certified {
        reasons.push(format!("fell from certified to {class}: {detail}"));
    }
    BoardOutcome {
        board: format!("seed-{seed}"),
        ok: reasons.is_empty(),
        certified,
        z_err: weighted_error,
        detail: reasons.join("; "),
    }
}

/// Check of a corpus board run outside `Corpus::run` (the traced op): its
/// report is classified by the certification gate of `CorpusCase::classify`
/// (σ_max on the contract's audit grid within the gate's tolerance, and the
/// weighted model beats the standard baseline), then checked like a verdict.
/// A flow error counts as `Failed`.
pub fn check_corpus_report(case: &CorpusCase, report: &Result<FlowReport, String>) -> BoardOutcome {
    let seed = case.board.seed;
    let report = match report {
        Ok(r) => r,
        Err(e) => return check_class(seed, CorpusClass::Failed, &format!("flow: {e}"), None),
    };
    let Some(contract) = &report.contract else {
        return check_class(seed, CorpusClass::Failed, "report carries no accuracy contract", None);
    };
    let weighted = report.weighted_passive_eval.impedance_relative_error;
    let standard = match (&report.weighted_enforcement, &report.standard_passive_eval) {
        (_, Some(eval)) => Some(eval.impedance_relative_error),
        (None, None) => Some(report.standard_model_eval.impedance_relative_error),
        (Some(_), None) => None,
    };
    let audit_pass = contract.audit_sigma_max <= 1.0 + case.sigma_tolerance;
    let beats_standard = standard.is_none_or(|s| weighted < s);
    let class =
        if audit_pass && beats_standard { CorpusClass::Certified } else { CorpusClass::Adverse };
    let detail = format!(
        "audit sigma_max {:.9}; weighted {weighted:.4} vs standard {standard:?}",
        contract.audit_sigma_max
    );
    check_class(seed, class, &detail, Some(weighted))
}

/// The parts of an assembled corpus board.
pub struct Assembled {
    /// The synthetic board.
    pub pdn: SyntheticPdn,
    /// Its scattering data.
    pub data: NetworkData,
    /// Its termination network.
    pub network: TerminationNetwork,
    /// The observation port.
    pub port: usize,
}

/// Assembles a corpus case (board build and S-parameter solve).
///
/// # Errors
///
/// Propagates assembly failures.
pub fn assemble(case: &CorpusCase) -> Result<Assembled, String> {
    let (pdn, data, network, port) = case.assemble().map_err(|e| e.to_string())?;
    Ok(Assembled { pdn, data, network, port })
}

/// The flow configuration `CorpusCase::classify` runs a case under: the
/// case's flow with the contract audit synced to the certification gate.
pub fn corpus_flow(case: &CorpusCase) -> FlowConfig {
    let mut flow = case.flow.clone();
    flow.contract.audit_multiplier = case.audit_multiplier;
    flow.contract.sigma_tolerance = case.sigma_tolerance;
    flow
}

/// Runs the flow of one assembled corpus board the way
/// `CorpusCase::classify` does, with an observer attached (the traced
/// counterpart of one board of `Corpus::run`).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn corpus_flow_observed(
    parts: &Assembled,
    flow: FlowConfig,
    observer: &mut dyn FlowObserver,
) -> Result<FlowReport, String> {
    Pipeline::from_data(&parts.data, &parts.network, parts.port, flow)
        .map_err(|e| e.to_string())?
        .with_observer(observer)
        .report()
        .map_err(|e| e.to_string())
}

fn flow_board((preset, sc): &Scenario) -> BoardOutcome {
    check_flow(preset.name().to_string(), &reduced_flow(*preset, sc, None))
}

fn fit_audit_board((preset, sc): &Scenario) -> BoardOutcome {
    check_fit_audit(preset.name().to_string(), &fit_audit(*preset, sc, None))
}

/// One timed unit of an untraced op.
pub type Unit<'b> = Box<dyn Fn() -> Vec<BoardOutcome> + 'b>;

/// The units of one untraced op, in the run's order: each board of a flow
/// workload, run one after another on the calling thread (single-board
/// latency), or each `Corpus::run` batch of the corpus block.
///
/// A corpus batch holds as many boards as the global pool has threads. With
/// exactly one board per thread the pool never hands a whole board to a
/// thread that is waiting for its own board's inner tasks; with more, it
/// does, and the block's time then depends on which board got stolen when
/// (measured: 2.3–3.7 s for the same block in one run).
pub fn op_units(boards: &Boards) -> Vec<Unit<'_>> {
    match boards {
        Boards::Flow(scenarios) => {
            scenarios.iter().map(|b| Box::new(move || vec![flow_board(b)]) as Unit<'_>).collect()
        }
        Boards::FitAudit(scenarios) => scenarios
            .iter()
            .map(|b| Box::new(move || vec![fit_audit_board(b)]) as Unit<'_>)
            .collect(),
        Boards::Corpus { config, seeds, .. } => seeds
            .chunks(pim_runtime::global().threads())
            .map(|batch| {
                Box::new(move || Corpus::run(config, batch).iter().map(check_verdict).collect())
                    as Unit<'_>
            })
            .collect(),
    }
}
