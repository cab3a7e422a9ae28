//! The stress-corpus harness: certification-gated batch runs over generated
//! boards, with automatic minimization of failing scenarios.
//!
//! [`Corpus::run`] pushes every seed of a seed list through the full
//! fit → assess → enforce flow on a board drawn by
//! [`pim_circuit::generator::BoardGenerator`], then classifies the outcome
//! against the certification gate (the downstream gates decide pass/fail —
//! failures must produce actionable artifacts, not log lines):
//!
//! * **Certified** — the flow completed, the delivered model holds
//!   `σ_max ≤ 1 + tol` on an `audit_multiplier`× fixed-log audit grid it was
//!   never constrained on (both taken from the flow's
//!   [`crate::recovery::ContractConfig`]), and the weighted enforcement
//!   beats the standard baseline on target-impedance error;
//! * **Adverse** — the flow completed but a gate failed (audit violation, or
//!   weighted no better than standard): the paper's method underperforms in
//!   this regime;
//! * **Diverged** — the weighted enforcement returned
//!   [`PassivityError::NotConverged`]: it ran out of its iteration budget or
//!   stalled on the primary pass and on the reduced-order retry. The verdict
//!   notes whether a best-so-far model came back;
//! * **Failed** — any other error (fit breakdown, solver failure, …).
//!
//! For any non-Certified case, [`minimize`] shrinks the scenario — grid
//! size, decap count, model order — while the failure class reproduces
//! (proptest-style greedy shrinking) and the result serializes as a
//! self-contained [`MinimizedFixture`] text file (see
//! `tests/fixtures/corpus/` at the workspace root) that replays without the
//! generator: board, electrical models, flow numerics and expected outcome
//! are all in the file.

use crate::flow::FlowConfig;
use crate::pipeline::Pipeline;
use crate::recovery::RecoveryRung;
use crate::scenario::{ScenarioConfig, StandardScenario};
use crate::{CoreError, Result};
use pim_circuit::board::{StackStage, SyntheticPdn};
use pim_circuit::generator::{BoardGenerator, DecapPart, DieModel, GeneratedBoard, VrmModel};
use pim_circuit::PdnBoardSpec;
use pim_passivity::{EnforcementConfig, PassivityError};
use pim_pdn::TerminationNetwork;
use pim_rfdata::NetworkData;
use pim_vectfit::VfConfig;

pub use pim_circuit::generator::GeneratorConfig;

/// Outcome class of one corpus scenario against the certification gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusClass {
    /// Passed every gate: audit-grid passivity and weighted-beats-standard.
    Certified,
    /// The flow completed but a certification gate failed.
    Adverse,
    /// The weighted enforcement ran out of its iteration budget or stalled
    /// on the primary pass and on the reduced-order retry.
    Diverged,
    /// The flow failed outright (fit, solver or assembly error).
    Failed,
}

impl CorpusClass {
    /// Stable lowercase identifier (reports, fixtures, CLI).
    pub fn name(self) -> &'static str {
        match self {
            CorpusClass::Certified => "certified",
            CorpusClass::Adverse => "adverse",
            CorpusClass::Diverged => "diverged",
            CorpusClass::Failed => "failed",
        }
    }

    /// Parses [`CorpusClass::name`] output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for an unknown class name.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "certified" => Ok(CorpusClass::Certified),
            "adverse" => Ok(CorpusClass::Adverse),
            "diverged" => Ok(CorpusClass::Diverged),
            "failed" => Ok(CorpusClass::Failed),
            other => Err(CoreError::InvalidInput(format!("unknown corpus class '{other}'"))),
        }
    }
}

impl std::fmt::Display for CorpusClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a corpus run: the board space, the flow numerics and the
/// sample count. Every board is solved on the scenario band (see
/// [`ScenarioConfig`]), and the certification gate is the flow's accuracy
/// contract (`flow.contract`).
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// The generated-board parameter space.
    pub generator: GeneratorConfig,
    /// Flow numerics applied to every scenario (see
    /// [`corpus_flow_config`]); its contract is the certification gate.
    pub flow: FlowConfig,
    /// Log-spaced frequency samples per scenario (the DC point is added on
    /// top, as everywhere else).
    pub frequency_samples: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            generator: GeneratorConfig::default(),
            flow: corpus_flow_config(14),
            frequency_samples: 60,
        }
    }
}

/// The corpus flow numerics at a given fitting order: the trimmed
/// fixture-class configuration (default adaptive sampling on every
/// assessment and enforcement grid).
pub fn corpus_flow_config(n_poles: usize) -> FlowConfig {
    FlowConfig {
        vf: VfConfig { n_poles, n_iterations: 5 },
        sensitivity_order: 6,
        enforcement: EnforcementConfig {
            sweep_points: 200,
            sigma_margin: 1e-3,
            max_iterations: 60,
            ..Default::default()
        },
        ..FlowConfig::default()
    }
}

/// One fully materialized corpus scenario: a generated board plus the flow
/// and gate numerics to run it under, on the scenario band (see
/// [`ScenarioConfig`]). Self-contained — classification and fixture
/// serialization need nothing else.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// The board and its per-port electrical models.
    pub board: GeneratedBoard,
    /// Flow numerics.
    pub flow: FlowConfig,
    /// Log-spaced frequency samples (plus DC).
    pub frequency_samples: usize,
    /// Audit grid density multiplier ([`CorpusCase::classify`] copies it
    /// into `flow.contract`).
    pub audit_multiplier: usize,
    /// Audit passivity tolerance ([`CorpusCase::classify`] copies it into
    /// `flow.contract`).
    pub sigma_tolerance: f64,
}

/// Per-scenario verdict of a corpus run.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusVerdict {
    /// The generator seed the board came from.
    pub seed: u64,
    /// The certification-gate class.
    pub class: CorpusClass,
    /// Grid cells along x.
    pub nx: usize,
    /// Grid cells along y.
    pub ny: usize,
    /// Total port count.
    pub ports: usize,
    /// Fitting order the flow ran at.
    pub order: usize,
    /// `σ_max` on the audit grid: the delivered model's for completed
    /// flows, the best-so-far model's (from the failure diagnostics) for
    /// [`CorpusClass::Diverged`].
    pub audit_sigma_max: Option<f64>,
    /// Target-impedance error of the delivered weighted passive model.
    pub weighted_error: Option<f64>,
    /// Target-impedance error of the standard baseline, when it exists
    /// (`None` when the baseline enforcement itself diverged — a weighted
    /// win by default).
    pub standard_error: Option<f64>,
    /// Weighted enforcement iterations (0 = the fit was already passive;
    /// for `Diverged`, the primary pass's count when it stopped).
    pub iterations: usize,
    /// The enforcement pass that delivered the model (completed flows only;
    /// [`RecoveryRung::Primary`] when the retry never engaged).
    pub rung: Option<RecoveryRung>,
    /// Human-readable reason / failure message.
    pub detail: String,
}

impl CorpusCase {
    /// Builds the synthetic PDN, solves it, and assembles the per-port
    /// termination network: [`StandardScenario::build`] on the case's board
    /// and sample count, returned as its parts.
    ///
    /// # Errors
    ///
    /// Propagates board construction, solver and termination failures.
    pub fn assemble(&self) -> Result<(SyntheticPdn, NetworkData, TerminationNetwork, usize)> {
        let sc = StandardScenario::build(ScenarioConfig {
            board: self.board.clone(),
            frequency_samples: self.frequency_samples,
        })?;
        Ok((sc.pdn, sc.data, sc.network, sc.observation_port))
    }

    /// Runs the flow and classifies the outcome against the certification
    /// gate. Never returns an error: failures are verdicts.
    pub fn classify(&self) -> CorpusVerdict {
        let spec = &self.board.spec;
        let mut verdict = CorpusVerdict {
            seed: self.board.seed,
            class: CorpusClass::Failed,
            nx: spec.nx,
            ny: spec.ny,
            ports: spec.die_ports.len() + spec.decap_ports.len() + spec.vrm_ports.len(),
            order: self.flow.vf.n_poles,
            audit_sigma_max: None,
            weighted_error: None,
            standard_error: None,
            iterations: 0,
            rung: None,
            detail: String::new(),
        };
        let (_pdn, data, network, observation_port) = match self.assemble() {
            Ok(parts) => parts,
            Err(e) => {
                verdict.detail = format!("assembly: {e}");
                return verdict;
            }
        };
        // The contract audit and the certification gate must sweep the
        // identical grid: sync the flow's contract parameters with the
        // gate's before the pipeline runs.
        let mut flow = self.flow.clone();
        flow.contract.audit_multiplier = self.audit_multiplier;
        flow.contract.sigma_tolerance = self.sigma_tolerance;
        let mut pipeline = match Pipeline::from_data(&data, &network, observation_port, flow) {
            Ok(p) => p,
            Err(e) => {
                verdict.detail = format!("pipeline: {e}");
                return verdict;
            }
        };
        let report = match pipeline.report() {
            Ok(report) => report,
            Err(CoreError::Passivity(PassivityError::NotConverged { diagnostics, .. })) => {
                verdict.class = CorpusClass::Diverged;
                verdict.iterations = diagnostics.trace.len();
                verdict.audit_sigma_max = diagnostics.best_sigma_max;
                verdict.detail = format!(
                    "weighted enforcement diverged at iteration {} (sigma_max {:.6}); {diagnostics}",
                    verdict.iterations, diagnostics.sigma_max
                );
                return verdict;
            }
            Err(e) => {
                verdict.detail = format!("flow: {e}");
                return verdict;
            }
        };

        // Certification gate 1: σ_max ≤ 1 + tol on a dense fixed-log audit
        // grid the enforcement never constrained — the grid of the
        // pipeline's accuracy contract (parameters synced above).
        let contract = report
            .contract
            .as_ref()
            .expect("Pipeline::report always attaches the accuracy contract");
        let audit_sigma_max = contract.audit_sigma_max;
        verdict.audit_sigma_max = Some(audit_sigma_max);
        verdict.rung = Some(contract.rung);
        verdict.iterations = report.weighted_enforcement.as_ref().map_or(0, |out| out.trace.len());
        let weighted_error = report.weighted_passive_eval.impedance_relative_error;
        verdict.weighted_error = Some(weighted_error);

        // Certification gate 2: weighted beats standard on target-impedance
        // error. The baseline is the standard-norm enforced model when the
        // weighted model needed enforcement; the plain standard fit when it
        // did not; absent (weighted win by default) when the baseline
        // enforcement itself diverged.
        let standard_error = match (&report.weighted_enforcement, &report.standard_passive_eval) {
            (_, Some(eval)) => Some(eval.impedance_relative_error),
            (None, None) => Some(report.standard_model_eval.impedance_relative_error),
            (Some(_), None) => None,
        };
        verdict.standard_error = standard_error;

        let audit_pass = contract.passivity_ok();
        let beats_standard = standard_error.is_none_or(|s| weighted_error < s);
        if audit_pass && beats_standard {
            verdict.class = CorpusClass::Certified;
            verdict.detail = format!(
                "audit sigma_max {:.9}; weighted {:.4} vs standard {}",
                audit_sigma_max,
                weighted_error,
                standard_error.map_or("n/a (baseline diverged)".into(), |s| format!("{s:.4}"))
            );
        } else {
            verdict.class = CorpusClass::Adverse;
            let mut reasons = Vec::new();
            if !audit_pass {
                reasons.push(format!(
                    "audit sigma_max {:.9} > 1+{:.0e}",
                    audit_sigma_max, contract.sigma_tolerance
                ));
            }
            if !beats_standard {
                reasons.push(format!(
                    "weighted {:.4} does not beat standard {:.4}",
                    weighted_error,
                    standard_error.expect("beats_standard false implies a baseline")
                ));
            }
            verdict.detail = reasons.join("; ");
        }
        verdict
    }
}

/// The corpus runner: generates, runs and classifies a seed list in
/// parallel.
pub struct Corpus;

impl Corpus {
    /// Materializes the case for one seed (board generation + numerics
    /// bundling, the gate taken from `config.flow.contract`);
    /// classification is [`CorpusCase::classify`].
    ///
    /// # Errors
    ///
    /// Propagates generator failures (infeasible configuration).
    pub fn case(config: &CorpusConfig, seed: u64) -> Result<CorpusCase> {
        let board = BoardGenerator::new(config.generator.clone()).generate(seed)?;
        Ok(CorpusCase {
            board,
            flow: config.flow.clone(),
            frequency_samples: config.frequency_samples,
            audit_multiplier: config.flow.contract.audit_multiplier,
            sigma_tolerance: config.flow.contract.sigma_tolerance,
        })
    }

    /// Runs the corpus over `seeds` on the global thread pool. One verdict
    /// per seed, in seed-list order; generation failures classify as
    /// [`CorpusClass::Failed`] rather than aborting the run.
    pub fn run(config: &CorpusConfig, seeds: &[u64]) -> Vec<CorpusVerdict> {
        Corpus::run_with(pim_runtime::global(), config, seeds)
    }

    /// [`Corpus::run`] on an explicit pool — results are bit-identical for
    /// every thread count (verdicts are collected by seed index).
    pub fn run_with(
        pool: &pim_runtime::ThreadPool,
        config: &CorpusConfig,
        seeds: &[u64],
    ) -> Vec<CorpusVerdict> {
        pool.par_map(seeds, |_, &seed| match Corpus::case(config, seed) {
            Ok(case) => case.classify(),
            Err(e) => CorpusVerdict {
                seed,
                class: CorpusClass::Failed,
                nx: 0,
                ny: 0,
                ports: 0,
                order: config.flow.vf.n_poles,
                audit_sigma_max: None,
                weighted_error: None,
                standard_error: None,
                iterations: 0,
                rung: None,
                detail: format!("generator: {e}"),
            },
        })
    }
}

/// Greedily shrinks a failing case — grid size, decap count, then fitting
/// order — while the failure class reproduces, proptest-style. Every
/// accepted shrink re-runs the full flow, so the result is the smallest
/// scenario (under these moves) that still exhibits the failure.
///
/// Returns the minimized fixture together with the verdict of the minimized
/// case (whose class equals `class` by construction).
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] when the starting case does not
/// exhibit `class` in the first place.
pub fn minimize(
    case: &CorpusCase,
    class: CorpusClass,
) -> Result<(MinimizedFixture, CorpusVerdict)> {
    let start = case.classify();
    if start.class != class {
        return Err(CoreError::InvalidInput(format!(
            "cannot minimize: case classifies as {} rather than {}",
            start.class, class
        )));
    }
    let mut current = case.clone();
    let mut verdict = start;
    'outer: loop {
        for candidate in shrink_candidates(&current) {
            let v = candidate.classify();
            if v.class == class {
                current = candidate;
                verdict = v;
                continue 'outer;
            }
        }
        break;
    }
    let fixture = MinimizedFixture {
        name: format!("seed-{}-{}", current.board.seed, class.name()),
        class,
        pinned_iterations: verdict.iterations,
        detail: verdict.detail.clone(),
        case: current,
    };
    Ok((fixture, verdict))
}

/// The shrink moves tried at each greedy step, in order: drop the last grid
/// column, drop the last grid row, drop the last decap port (and its
/// model), lower the fitting order by one conjugate pair.
fn shrink_candidates(case: &CorpusCase) -> Vec<CorpusCase> {
    let mut out = Vec::new();
    let spec = &case.board.spec;
    let fits = |coords: &[(usize, usize)], nx: usize, ny: usize| {
        coords.iter().all(|&(ix, iy)| ix < nx && iy < ny)
    };
    let all_ports = |spec: &PdnBoardSpec| -> Vec<(usize, usize)> {
        spec.die_ports.iter().chain(&spec.decap_ports).chain(&spec.vrm_ports).copied().collect()
    };
    if spec.nx > 2 && fits(&all_ports(spec), spec.nx - 1, spec.ny) {
        let mut c = case.clone();
        c.board.spec.nx -= 1;
        out.push(c);
    }
    if spec.ny > 2 && fits(&all_ports(spec), spec.nx, spec.ny - 1) {
        let mut c = case.clone();
        c.board.spec.ny -= 1;
        out.push(c);
    }
    if spec.decap_ports.len() > 1 {
        let mut c = case.clone();
        c.board.spec.decap_ports.pop();
        c.board.decap_models.pop();
        out.push(c);
    }
    if case.flow.vf.n_poles > 6 {
        let mut c = case.clone();
        c.flow.vf.n_poles -= 2;
        out.push(c);
    }
    out
}

/// A minimized failing scenario, serializable as a self-contained text
/// fixture: the board, every electrical model, the flow numerics and the
/// expected outcome — replayable without the generator or any non-default
/// configuration.
#[derive(Debug, Clone)]
pub struct MinimizedFixture {
    /// Fixture identifier (used in reports and file names).
    pub name: String,
    /// The failure class the fixture must reproduce.
    pub class: CorpusClass,
    /// Iteration count observed at minimization time; a replay must fail
    /// within this budget (`iterations ≤ pinned_iterations` for
    /// [`CorpusClass::Diverged`]).
    pub pinned_iterations: usize,
    /// Human-readable provenance note.
    pub detail: String,
    /// The minimized case itself.
    pub case: CorpusCase,
}

/// Formats an `f64` as exact bits plus a human-readable comment value.
fn fmt_f64(x: f64) -> String {
    format!("0x{:016x}", x.to_bits())
}

fn parse_f64(s: &str) -> Result<f64> {
    if let Some(hex) = s.strip_prefix("0x") {
        let bits = u64::from_str_radix(hex, 16)
            .map_err(|e| CoreError::InvalidInput(format!("bad f64 bits '{s}': {e}")))?;
        Ok(f64::from_bits(bits))
    } else {
        s.parse::<f64>().map_err(|e| CoreError::InvalidInput(format!("bad f64 '{s}': {e}")))
    }
}

fn parse_usize(s: &str) -> Result<usize> {
    s.parse::<usize>().map_err(|e| CoreError::InvalidInput(format!("bad integer '{s}': {e}")))
}

fn fmt_coords(coords: &[(usize, usize)]) -> String {
    coords.iter().map(|&(x, y)| format!("{x},{y}")).collect::<Vec<_>>().join(";")
}

fn parse_coords(s: &str) -> Result<Vec<(usize, usize)>> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|pair| {
            let (x, y) = pair
                .split_once(',')
                .ok_or_else(|| CoreError::InvalidInput(format!("bad coordinate '{pair}'")))?;
            Ok((parse_usize(x.trim())?, parse_usize(y.trim())?))
        })
        .collect()
}

fn fmt_triples(rows: &[[f64; 3]]) -> String {
    rows.iter()
        .map(|r| format!("{},{},{}", fmt_f64(r[0]), fmt_f64(r[1]), fmt_f64(r[2])))
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_triples(s: &str) -> Result<Vec<[f64; 3]>> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|row| {
            let parts: Vec<&str> = row.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return Err(CoreError::InvalidInput(format!("bad triple '{row}'")));
            }
            Ok([parse_f64(parts[0])?, parse_f64(parts[1])?, parse_f64(parts[2])?])
        })
        .collect()
}

impl MinimizedFixture {
    /// Serializes the fixture to the committed text format. Floats are
    /// written as exact bit patterns (with decimal comments), so a replay
    /// reruns the identical scenario.
    pub fn serialize(&self) -> String {
        let case = &self.case;
        let spec = &case.board.spec;
        let mut lines = vec![
            "# pim corpus minimized fixture v2".to_string(),
            "# floats are exact f64 bit patterns; decimal values are comments".to_string(),
            format!("name = {}", self.name),
            format!("class = {}", self.class),
            format!("pinned_iterations = {}", self.pinned_iterations),
            format!("detail = {}", self.detail.replace('\n', " ")),
            format!("seed = {}", case.board.seed),
            format!("nx = {}", spec.nx),
            format!("ny = {}", spec.ny),
            format!("die_ports = {}", fmt_coords(&spec.die_ports)),
            format!("decap_ports = {}", fmt_coords(&spec.decap_ports)),
            format!("vrm_ports = {}", fmt_coords(&spec.vrm_ports)),
        ];
        let scalars: [(&str, f64); 6] = [
            ("segment_inductance", spec.segment_inductance),
            ("segment_resistance", spec.segment_resistance),
            ("cell_capacitance", spec.cell_capacitance),
            ("cell_conductance", spec.cell_conductance),
            ("via_inductance", spec.via_inductance),
            ("via_resistance", spec.via_resistance),
        ];
        for (key, value) in scalars {
            lines.push(format!("{key} = {} # {value:e}", fmt_f64(value)));
        }
        lines.push(format!(
            "die_stack = {}",
            fmt_triples(
                &spec
                    .die_stack
                    .iter()
                    .map(|s| [s.inductance, s.resistance, s.shunt_capacitance])
                    .collect::<Vec<_>>()
            )
        ));
        lines.push(format!(
            "decap_models = {}",
            fmt_triples(
                &case
                    .board
                    .decap_models
                    .iter()
                    .map(|m| [m.capacitance, m.esr, m.esl])
                    .collect::<Vec<_>>()
            )
        ));
        lines.push(format!(
            "vrm = {},{}",
            fmt_f64(case.board.vrm.resistance),
            fmt_f64(case.board.vrm.inductance)
        ));
        lines.push(format!(
            "die = {},{}",
            fmt_f64(case.board.die.resistance),
            fmt_f64(case.board.die.capacitance)
        ));
        lines.push(format!("n_poles = {}", case.flow.vf.n_poles));
        lines.push(format!("vf_iterations = {}", case.flow.vf.n_iterations));
        lines.push(format!("sensitivity_order = {}", case.flow.sensitivity_order));
        lines.push(format!("sweep_points = {}", case.flow.enforcement.sweep_points));
        lines.push(format!(
            "sigma_margin = {} # {:e}",
            fmt_f64(case.flow.enforcement.sigma_margin),
            case.flow.enforcement.sigma_margin
        ));
        lines.push(format!("max_iterations = {}", case.flow.enforcement.max_iterations));
        lines.push(format!("frequency_samples = {}", case.frequency_samples));
        lines.push(format!("audit_multiplier = {}", case.audit_multiplier));
        lines.push(format!(
            "sigma_tolerance = {} # {:e}",
            fmt_f64(case.sigma_tolerance),
            case.sigma_tolerance
        ));
        lines.join("\n") + "\n"
    }

    /// Parses a serialized fixture (format v2: the band, reference and
    /// excitation are the scenario constants, not keys). The sampling
    /// strategy is always the default adaptive one (it is not a fixture
    /// parameter).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on malformed or incomplete input,
    /// and on a key the format does not have or one given twice (naming
    /// it): a v1 fixture's band keys are rejected, not ignored.
    pub fn parse(text: &str) -> Result<Self> {
        let mut fields = std::collections::BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| CoreError::InvalidInput(format!("bad fixture line '{line}'")))?;
            // Strip trailing comments (detail is free text and keeps them).
            let key = key.trim();
            let value = if key == "detail" || key == "name" {
                value.trim().to_string()
            } else {
                value.split('#').next().unwrap_or("").trim().to_string()
            };
            if fields.insert(key.to_string(), value).is_some() {
                return Err(CoreError::InvalidInput(format!("duplicate fixture key '{key}'")));
            }
        }
        // Every read consumes its key, so a key left over at the end is one
        // the format does not have.
        let mut take = |key: &str| -> Result<String> {
            fields
                .remove(key)
                .ok_or_else(|| CoreError::InvalidInput(format!("fixture is missing '{key}'")))
        };
        let die_stack: Vec<StackStage> = parse_triples(&take("die_stack")?)?
            .into_iter()
            .map(|[inductance, resistance, shunt_capacitance]| StackStage {
                inductance,
                resistance,
                shunt_capacitance,
            })
            .collect();
        let decap_models: Vec<DecapPart> = parse_triples(&take("decap_models")?)?
            .into_iter()
            .map(|[capacitance, esr, esl]| DecapPart { capacitance, esr, esl })
            .collect();
        let mut pair = |key: &str| -> Result<(f64, f64)> {
            let raw = take(key)?;
            let (a, b) = raw
                .split_once(',')
                .ok_or_else(|| CoreError::InvalidInput(format!("bad pair '{raw}' for {key}")))?;
            Ok((parse_f64(a.trim())?, parse_f64(b.trim())?))
        };
        let (vrm_resistance, vrm_inductance) = pair("vrm")?;
        let (die_resistance, die_capacitance) = pair("die")?;
        let spec = PdnBoardSpec {
            nx: parse_usize(&take("nx")?)?,
            ny: parse_usize(&take("ny")?)?,
            segment_inductance: parse_f64(&take("segment_inductance")?)?,
            segment_resistance: parse_f64(&take("segment_resistance")?)?,
            cell_capacitance: parse_f64(&take("cell_capacitance")?)?,
            cell_conductance: parse_f64(&take("cell_conductance")?)?,
            via_inductance: parse_f64(&take("via_inductance")?)?,
            via_resistance: parse_f64(&take("via_resistance")?)?,
            die_ports: parse_coords(&take("die_ports")?)?,
            decap_ports: parse_coords(&take("decap_ports")?)?,
            vrm_ports: parse_coords(&take("vrm_ports")?)?,
            die_stack,
        };
        let seed = take("seed")?;
        let board = GeneratedBoard {
            seed: seed
                .parse::<u64>()
                .map_err(|e| CoreError::InvalidInput(format!("bad seed '{seed}': {e}")))?,
            spec,
            decap_models,
            vrm: VrmModel { resistance: vrm_resistance, inductance: vrm_inductance },
            die: DieModel { resistance: die_resistance, capacitance: die_capacitance },
        };
        // Fixtures must stay buildable without running the flow.
        board.build()?;
        let mut flow = corpus_flow_config(parse_usize(&take("n_poles")?)?);
        flow.vf.n_iterations = parse_usize(&take("vf_iterations")?)?;
        flow.sensitivity_order = parse_usize(&take("sensitivity_order")?)?;
        flow.enforcement.sweep_points = parse_usize(&take("sweep_points")?)?;
        flow.enforcement.sigma_margin = parse_f64(&take("sigma_margin")?)?;
        flow.enforcement.max_iterations = parse_usize(&take("max_iterations")?)?;
        let case = CorpusCase {
            board,
            flow,
            frequency_samples: parse_usize(&take("frequency_samples")?)?,
            audit_multiplier: parse_usize(&take("audit_multiplier")?)?,
            sigma_tolerance: parse_f64(&take("sigma_tolerance")?)?,
        };
        let fixture = MinimizedFixture {
            name: take("name")?,
            class: CorpusClass::parse(&take("class")?)?,
            pinned_iterations: parse_usize(&take("pinned_iterations")?)?,
            detail: take("detail")?,
            case,
        };
        match fields.keys().next() {
            Some(key) => Err(CoreError::InvalidInput(format!("unknown fixture key '{key}'"))),
            None => Ok(fixture),
        }
    }

    /// Replays the fixture: reruns the flow and returns the fresh verdict
    /// (callers assert `class` and the pinned iteration budget).
    pub fn replay(&self) -> CorpusVerdict {
        self.case.classify()
    }
}

/// The known 5×5 dense-decap divergence regime expressed as a corpus case:
/// a 5×5 board ringed by four bulk decap banks, one central die block, an
/// order-22 fit. The *primary* weighted enforcement walks into the
/// divergence regime here; the reduced-order retry now converges it
/// (adverse: the delivered model does not beat the standard baseline), so
/// the committed `tests/fixtures/corpus/dense-decap-5x5.fixture` is this
/// case pinned with its fresh verdict (`corpus_report --pin-dense-decap`),
/// not a [`minimize`] output — shrinking toward the convergent class would
/// collapse the historically-adversarial board.
pub fn dense_decap_divergence_case() -> CorpusCase {
    let bulk = DecapPart { capacitance: 47e-6, esr: 8e-3, esl: 1.2e-9 };
    let spec = PdnBoardSpec {
        nx: 5,
        ny: 5,
        die_ports: vec![(2, 2)],
        decap_ports: vec![(0, 0), (0, 4), (4, 0), (4, 4)],
        vrm_ports: vec![(2, 0)],
        ..PdnBoardSpec::default()
    };
    let decap_models = vec![bulk; 4];
    CorpusCase {
        board: GeneratedBoard {
            seed: 0,
            spec,
            decap_models,
            vrm: VrmModel { resistance: 0.8e-3, inductance: 15e-9 },
            die: DieModel { resistance: 30e-3, capacitance: 60e-9 },
        },
        // The historical regime diverges under the paper-default flow
        // numerics at order 22; the trimmed corpus numerics
        // (`corpus_flow_config`) soften the walk enough to converge, so the
        // fixture pins the defaults.
        flow: FlowConfig { vf: VfConfig { n_poles: 22, n_iterations: 6 }, ..FlowConfig::default() },
        frequency_samples: 80,
        audit_multiplier: 16,
        sigma_tolerance: 1e-8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_round_trip() {
        for class in [
            CorpusClass::Certified,
            CorpusClass::Adverse,
            CorpusClass::Diverged,
            CorpusClass::Failed,
        ] {
            assert_eq!(CorpusClass::parse(class.name()).unwrap(), class);
        }
        assert!(CorpusClass::parse("bogus").is_err());
    }

    #[test]
    fn fixture_serialization_round_trips_bit_exactly() {
        let case = dense_decap_divergence_case();
        let fixture = MinimizedFixture {
            name: "round-trip".into(),
            class: CorpusClass::Diverged,
            pinned_iterations: 9,
            detail: "unit test".into(),
            case,
        };
        let text = fixture.serialize();
        let parsed = MinimizedFixture::parse(&text).unwrap();
        assert_eq!(parsed.name, fixture.name);
        assert_eq!(parsed.class, fixture.class);
        assert_eq!(parsed.pinned_iterations, fixture.pinned_iterations);
        assert_eq!(parsed.case.board, fixture.case.board);
        assert_eq!(parsed.case.flow.vf.n_poles, fixture.case.flow.vf.n_poles);
        assert_eq!(
            parsed.case.flow.enforcement.sweep_points,
            fixture.case.flow.enforcement.sweep_points
        );
        assert_eq!(parsed.case.sigma_tolerance.to_bits(), fixture.case.sigma_tolerance.to_bits());
        // Re-serialization is byte-stable.
        assert_eq!(parsed.serialize(), text);
    }

    #[test]
    fn shrink_candidates_respect_port_bounds() {
        let case = dense_decap_divergence_case();
        // Corner decaps at (…,4)/(4,…) pin the 5×5 grid: no grid shrink is
        // proposed, only decap drop and order reduction.
        let candidates = shrink_candidates(&case);
        assert_eq!(candidates.len(), 2);
        assert!(candidates.iter().all(|c| c.board.spec.nx == 5 && c.board.spec.ny == 5));
        assert!(candidates
            .iter()
            .any(|c| c.board.spec.decap_ports.len() == 3 && c.board.decap_models.len() == 3));
        assert!(candidates.iter().any(|c| c.flow.vf.n_poles == 20));
    }

    #[test]
    fn case_gate_comes_from_the_flow_contract() {
        let mut config = CorpusConfig::default();
        config.flow.contract.audit_multiplier = 8;
        config.flow.contract.sigma_tolerance = 1e-6;
        let case = Corpus::case(&config, 0).unwrap();
        assert_eq!(case.audit_multiplier, 8);
        assert_eq!(case.sigma_tolerance.to_bits(), 1e-6f64.to_bits());
    }

    #[test]
    fn generator_failure_is_a_failed_verdict_not_an_abort() {
        let mut config = CorpusConfig::default();
        config.generator.nx = (1, 1);
        let verdicts = Corpus::run(&config, &[0, 1]);
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| v.class == CorpusClass::Failed));
        assert!(verdicts[0].detail.starts_with("generator:"));
    }
}
