//! Integration tests of the stress-corpus harness: the committed pinned
//! dense-decap fixture, its convergence-regression replay and the rejection
//! of garbled copies, a seeded corpus smoke run with classification
//! invariants, and the robustness-layer properties (backtracking descent,
//! the stall stop, thread-count determinism of the smoke verdicts, the
//! reduced-order retry's deliveries of corpus boards 81 and 83), and a
//! report on a fit that needs no enforcement.

use pim_repro::core_flow::corpus::dense_decap_divergence_case;
use pim_repro::core_flow::{
    CoreError, Corpus, CorpusClass, CorpusConfig, CorpusVerdict, MinimizedFixture, Pipeline,
    RecoveryRung, Stage, TraceObserver,
};
use pim_repro::passivity::check::assess_on;
use pim_repro::passivity::grid::FrequencyGrid;
use pim_repro::passivity::{EnforcementIteration, NormKind, PassivityError};
use pim_runtime::ThreadPool;

/// The committed fixture of the historical 5×5 dense-decap divergence
/// regime, pinned with its fresh verdict (the reduced-order retry now
/// converges it). Regenerate with
/// `cargo run --release -p pim-bench --bin corpus_report -- --pin-dense-decap tests/fixtures/corpus/dense-decap-5x5.fixture`.
const DENSE_DECAP_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/corpus/dense-decap-5x5.fixture");

/// Fast guard on the committed artifact: it must parse, describe the known
/// (historically diverging) regime, re-serialize byte-identically, assemble
/// into a solvable scenario, and stay in sync with the in-code regime
/// description it was pinned from.
#[test]
fn committed_dense_decap_fixture_parses_builds_and_round_trips() {
    let text = std::fs::read_to_string(DENSE_DECAP_FIXTURE)
        .expect("committed fixture missing; regenerate with corpus_report --pin-dense-decap");
    let fixture = MinimizedFixture::parse(&text).unwrap();
    // The regime used to classify Diverged; the reduced-order retry converts
    // it into a completed, contract-carrying delivery. It stays Adverse (the
    // delivered model passes its 16x audit but does not beat the standard
    // baseline) — but a model is delivered (see EXPERIMENTS.md).
    assert_eq!(fixture.class, CorpusClass::Adverse);
    // The canonical regime: the full 5×5 ring with four bulk banks at
    // order 22 (pinned as-is, not minimized — shrinking toward the
    // convergent class would collapse the historically-adversarial board).
    let spec = &fixture.case.board.spec;
    assert_eq!((spec.nx, spec.ny), (5, 5));
    assert_eq!(spec.die_ports, vec![(2, 2)]);
    assert_eq!(spec.decap_ports.len(), 4);
    assert_eq!(fixture.case.board.decap_models.len(), 4);
    assert_eq!(fixture.case.flow.vf.n_poles, 22);
    assert!(fixture.pinned_iterations > 0);
    // Byte-stable round trip: parse ∘ serialize = identity on the file.
    assert_eq!(fixture.serialize(), text);
    // The scenario assembles and solves without running the flow.
    let (pdn, data, _network, observation_port) = fixture.case.assemble().unwrap();
    assert_eq!(pdn.ports(), 6);
    assert_eq!(observation_port, pdn.die_ports[0]);
    assert_eq!(data.grid().len(), fixture.case.frequency_samples + 1);
    // The committed fixture pins the in-code regime; the two must not
    // drift apart.
    let regime = dense_decap_divergence_case();
    assert_eq!(regime.board.spec, fixture.case.board.spec);
    assert_eq!(regime.flow.vf.n_poles, fixture.case.flow.vf.n_poles);
}

/// Garbled copies of the committed fixture must fail to parse, naming
/// what is wrong, instead of replaying a different scenario:
/// - one decap model fewer than decap ports would leave the last decap
///   port open;
/// - the four band keys of the v1 format are constants now, so a v1 file
///   is rejected rather than read with its band silently ignored;
/// - a repeated key would otherwise keep its last value.
#[test]
fn garbled_fixtures_are_rejected() {
    let text = std::fs::read_to_string(DENSE_DECAP_FIXTURE).unwrap();
    let models = text.lines().find(|l| l.starts_with("decap_models = ")).expect("decap models");
    let v1_band = "f_min_hz = 0x408f400000000000 # 1e3\n\
                   f_max_hz = 0x41ddcd6500000000 # 2e9\n\
                   z_ref = 0x4049000000000000 # 50\n\
                   total_current = 0x3ff0000000000000 # 1\n";
    let cases = [
        (
            text.replace(models, models.rsplit_once(';').expect("four decap models").0),
            "3 decap models for 4 decap ports",
        ),
        (
            text.replace("frequency_samples = 80\n", &format!("frequency_samples = 80\n{v1_band}")),
            "unknown fixture key 'f_max_hz'",
        ),
        (text.replace("nx = 5\n", "nx = 5\nnx = 4\n"), "duplicate fixture key 'nx'"),
    ];
    for (garbled, expected) in cases {
        let err = MinimizedFixture::parse(&garbled).expect_err(expected);
        assert!(err.to_string().contains(expected), "{err}");
    }
}

/// The promoted convergence regression (formerly the divergence replay):
/// replaying the committed fixture must *converge* through the
/// reduced-order retry — a delivered model, the delivery rung and the audit
/// recorded — reproducing the pinned verdict exactly.
#[test]
fn dense_decap_fixture_replays_to_convergence() {
    let text = std::fs::read_to_string(DENSE_DECAP_FIXTURE).unwrap();
    let fixture = MinimizedFixture::parse(&text).unwrap();
    let verdict = fixture.replay();
    assert_ne!(
        verdict.class,
        CorpusClass::Diverged,
        "the historical divergence regime must converge through the \
         reduced-order retry ({}) — if this regressed, the robustness layer \
         changed; re-pin the fixture and update the EXPERIMENTS story",
        verdict.detail
    );
    assert_eq!(verdict.class, fixture.class, "replay must reproduce the pinned class");
    assert_eq!(
        verdict.iterations, fixture.pinned_iterations,
        "the delivering enforcement must match the pinned iteration count"
    );
    assert_eq!(verdict.detail, fixture.detail, "replay must reproduce the pinned detail");
    let rung = verdict.rung.expect("a completed flow carries its delivery rung");
    assert_eq!(
        rung,
        RecoveryRung::ReducedOrder,
        "the regime diverges under the primary enforcement; delivery must \
         come from the reduced-order retry"
    );
    let sigma = verdict.audit_sigma_max.expect("completed flows carry the 16x audit");
    assert!(sigma.is_finite() && sigma > 0.0, "audit sigma_max {sigma}");
}

/// Seeded corpus smoke run: every seed of the trimmed configuration yields
/// a verdict whose fields are self-consistent with its class, and repeating
/// the run reproduces the verdicts exactly.
#[test]
fn seeded_corpus_run_classifies_consistently_and_reproduces() {
    let config = pim_bench::corpus_smoke_config();
    let seeds: Vec<u64> = (0..4).collect();
    let verdicts = Corpus::run(&config, &seeds);
    assert_eq!(verdicts.len(), seeds.len());
    for (v, &seed) in verdicts.iter().zip(&seeds) {
        assert_eq!(v.seed, seed);
        match v.class {
            CorpusClass::Certified => {
                let sigma = v.audit_sigma_max.expect("certified implies an audit");
                assert!(
                    sigma <= 1.0 + config.flow.contract.sigma_tolerance,
                    "seed {seed}: {sigma}"
                );
                let weighted = v.weighted_error.expect("certified implies evaluation");
                if let Some(standard) = v.standard_error {
                    assert!(weighted < standard, "seed {seed}: gate 2 must hold");
                }
                assert!(v.rung.is_some(), "seed {seed}: completed flows carry the rung");
            }
            CorpusClass::Adverse => {
                assert!(v.audit_sigma_max.is_some(), "adverse implies a completed flow");
                assert!(v.rung.is_some(), "seed {seed}: completed flows carry the rung");
                assert!(!v.detail.is_empty());
            }
            CorpusClass::Diverged => {
                assert!(v.iterations > 0, "divergence carries the failing iteration");
                assert!(v.rung.is_none(), "diverged flows deliver no model, hence no rung");
            }
            CorpusClass::Failed => {
                assert!(!v.detail.is_empty(), "failures must carry a reason");
            }
        }
    }
    // The corpus is deterministic: the same (config, seeds) run reproduces
    // every verdict, bit for bit (PartialEq covers the f64 fields).
    let again = Corpus::run(&config, &seeds);
    assert_eq!(verdicts, again);
}

/// Backtracking descent invariant, swept across corpus seeds: every
/// accepted enforcement iteration either decreases `σ_max` or had its
/// backtracking bottom out at the minimum step (1/1024) — growth at larger
/// steps would mean the line search accepted a worsening move, which it
/// never does. Two such bottomed-out steps in a row stop the run as stalled.
/// Converged enforcements additionally show strict net descent.
#[test]
fn enforcement_iterations_descend_or_bottom_out_across_corpus_seeds() {
    let config = pim_bench::corpus_smoke_config();
    for seed in (0..64).step_by(8) {
        let case = Corpus::case(&config, seed).expect("generator");
        let (_pdn, data, network, observation_port) = case.assemble().expect("assemble");
        let mut trace = TraceObserver::new();
        let mut pipeline =
            Pipeline::from_data(&data, &network, observation_port, case.flow.clone())
                .unwrap()
                .with_observer(&mut trace);
        // Failures are fine here (some seeds legitimately diverge): the
        // invariant is on the recorded iterations either way.
        let converged = pipeline.report().is_ok();
        drop(pipeline);
        for (kind, ev) in &trace.iterations {
            assert!(
                ev.sigma_after < ev.sigma_before || ev.step <= 1.0 / 1024.0 + 1e-15,
                "seed {seed} {kind} iteration {}: sigma grew {} -> {} at step {}",
                ev.iteration,
                ev.sigma_before,
                ev.sigma_after,
                ev.step
            );
        }
        if converged && !trace.iterations.is_empty() {
            let first = trace.iterations.first().unwrap().1.sigma_before;
            let last = trace.iterations.last().unwrap().1.sigma_after;
            assert!(
                last < first,
                "seed {seed}: converged enforcement must show net descent ({first} -> {last})"
            );
        }
    }
}

/// Corpus verdicts are deterministic. The smoke-config boards 0..4 classify
/// to the same verdicts — every f64 field bit for bit — on pools of 1 and 4
/// threads. The dense-decap regime (primary divergence, then delivery by
/// the reduced-order retry) classifies twice on the global pool to the same
/// verdict; its identity across thread counts comes from the pinned fixture
/// replay, which CI runs both on the default pool and under
/// `PIM_THREADS=1`.
#[test]
fn corpus_smoke_and_dense_decap_verdicts_are_deterministic() {
    let config = pim_bench::corpus_smoke_config();
    let seeds: Vec<u64> = (0..4).collect();
    let serial = Corpus::run_with(&ThreadPool::new(1), &config, &seeds);
    let parallel = Corpus::run_with(&ThreadPool::new(4), &config, &seeds);
    assert_eq!(serial, parallel, "corpus verdicts drifted across thread counts");
    let bits = |v: &CorpusVerdict| {
        [v.audit_sigma_max, v.weighted_error, v.standard_error].map(|x| x.map(f64::to_bits))
    };
    assert_eq!(
        serial.iter().map(bits).collect::<Vec<_>>(),
        parallel.iter().map(bits).collect::<Vec<_>>(),
        "verdict floats drifted across thread counts"
    );

    let case = dense_decap_divergence_case();
    let a = case.classify();
    let b = case.classify();
    assert_eq!(a, b, "dense-decap classification must be deterministic");
    assert!(a.rung.is_some_and(|r| r > RecoveryRung::Primary));
}

/// The weighted primary pass on corpus board 81 stalls: its first two
/// iterations both bottom out at the minimum step with `σ_max` still
/// growing, and the loop stops there with `NotConverged` instead of
/// spending the rest of its 60-iteration budget. The failed stage replays
/// those two iterations to the observer before its failure, bit for bit as
/// the error's trace records them.
#[test]
fn stalled_enforcement_stops_early_on_corpus_board_81() {
    let case = Corpus::case(&CorpusConfig::default(), 81).expect("generator");
    let (_pdn, data, network, observation_port) = case.assemble().expect("assemble");
    let mut trace = TraceObserver::new();
    let mut pipeline = Pipeline::from_data(&data, &network, observation_port, case.flow.clone())
        .unwrap()
        .with_observer(&mut trace);
    let diagnostics = match pipeline.enforce(NormKind::SensitivityWeighted) {
        Err(CoreError::Passivity(PassivityError::NotConverged { diagnostics, .. })) => {
            assert!(
                diagnostics.trace.len() < case.flow.enforcement.max_iterations,
                "the stalled run spent its whole budget ({diagnostics})"
            );
            assert_eq!(diagnostics.bottomed_out, 2, "{diagnostics}");
            diagnostics
        }
        Ok(_) => panic!("board 81's weighted primary pass converged"),
        Err(e) => panic!("expected NotConverged, got {e}"),
    };
    drop(pipeline);
    // Only the weighted stage ran an enforcement, so every iteration event
    // came before its failure.
    assert_eq!(trace.failed, vec![Stage::Enforcement(NormKind::SensitivityWeighted)]);
    let bits = |it: &EnforcementIteration| {
        let floats = [it.sigma_before, it.sigma_after, it.step, it.norm_increment, it.qp_lambda];
        (it.iteration, it.constraints, it.grid_points, floats.map(f64::to_bits))
    };
    let observed: Vec<_> =
        trace.trace(NormKind::SensitivityWeighted).into_iter().map(bits).collect();
    assert_eq!(observed, diagnostics.trace.iter().map(bits).collect::<Vec<_>>());
    assert_eq!(diagnostics.trace.len(), 2, "{diagnostics}");
    for it in &diagnostics.trace {
        assert_eq!(it.step.to_bits(), (1.0f64 / 1024.0).to_bits(), "{it:?}");
        assert!(it.sigma_after > it.sigma_before, "{it:?}");
    }
}

/// Boards 81 and 83 of the committed corpus are delivered by the
/// reduced-order retry after their primary passes fail: without the retry
/// both would classify Diverged. Board 83 certifies through it. Each verdict
/// matches the board's row in the committed report.
#[test]
fn reduced_order_retry_delivers_corpus_boards_81_and_83() {
    let cases = [
        (81, CorpusClass::Adverse, 5, "weighted 2.5621 does not beat standard 2.5511"),
        (
            83,
            CorpusClass::Certified,
            6,
            "audit sigma_max 0.999901710; weighted 0.0726 vs standard 2.6337",
        ),
    ];
    for (seed, class, iterations, detail) in cases {
        let case = Corpus::case(&CorpusConfig::default(), seed).expect("generator");
        let verdict = case.classify();
        assert_eq!(verdict.class, class, "board {seed}: {}", verdict.detail);
        assert_eq!(verdict.rung, Some(RecoveryRung::ReducedOrder), "board {seed}");
        assert_eq!(verdict.iterations, iterations, "board {seed}: {}", verdict.detail);
        assert_eq!(verdict.detail, detail, "board {seed}");
    }
}

/// Smoke board 10's weighted fit is passive as fitted, so `report()` runs
/// no enforcement: both enforcements and the baseline's evaluation are
/// absent, no enforcement or recovery stage starts and no iteration event
/// arrives. The primary rung delivers the fit itself, and the contract
/// audits it on the 16x grid.
#[test]
fn report_on_an_already_passive_fit_runs_no_enforcement() {
    let case = Corpus::case(&pim_bench::corpus_smoke_config(), 10).expect("generator");
    let (_pdn, data, network, observation_port) = case.assemble().expect("assemble");
    let mut trace = TraceObserver::new();
    let report = Pipeline::from_data(&data, &network, observation_port, case.flow.clone())
        .unwrap()
        .with_observer(&mut trace)
        .report()
        .unwrap();
    assert!(report.weighted_enforcement.is_none());
    assert!(report.standard_enforcement.is_none());
    assert!(report.standard_passive_eval.is_none());
    assert!(
        !trace.started.iter().any(|s| matches!(s, Stage::Enforcement(_) | Stage::Recovery(_))),
        "{:?}",
        trace.started
    );
    assert!(trace.iterations.is_empty());
    let contract = report.contract.as_ref().expect("report() attaches the contract");
    assert_eq!(contract.rung, RecoveryRung::Primary);
    let audit_grid = FrequencyGrid::enforcement_log(
        data.grid().max_omega(),
        case.flow.enforcement.sweep_points * case.flow.contract.audit_multiplier,
    );
    let audit = assess_on(&report.weighted_fit.model, &audit_grid).unwrap();
    assert_eq!(contract.audit_sigma_max.to_bits(), audit.sigma_max.to_bits());
}
