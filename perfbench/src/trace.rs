//! In-memory spans and the stage observer of the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (ops, boards, kernel probes) and, through [`StageTimer`], around every
//! pipeline stage. They stay in memory and are written as JSON lines when
//! the run ends.

use pim_core::{FitKind, FlowObserver, Stage};
use pim_passivity::enforce::EnforcementIteration;
use pim_passivity::NormKind;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are seconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span identifier (unique within the run, never 0).
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// The op the span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `core.enforce_weighted` or `linalg.eig`.
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// The run's span store.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new(), next_id: 1 }
    }

    /// Seconds since the log's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Reserves an identifier for a span whose children are recorded before
    /// it closes.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved identifier.
    pub fn push(&mut self, id: u64, parent: u64, op: u64, name: &str, start: f64) {
        let end = self.now();
        self.spans.push(Span { id, parent, op, name: name.to_string(), start, end });
    }

    /// Runs `f` inside a new span and returns its result and duration.
    pub fn time<T>(&mut self, parent: u64, op: u64, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.reserve();
        let start = self.now();
        let out = f();
        self.push(id, parent, op, name, start);
        (out, self.now() - start)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.id, s.parent, s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// The `core.*` stage buckets, in metric order.
pub const STAGES: [&str; 9] = [
    "core.sensitivity",
    "core.fit_standard",
    "core.fit_weighted",
    "core.weighting_model",
    "core.assessment",
    "core.enforce_weighted",
    "core.enforce_standard",
    "core.recovery",
    "core.evaluation",
];

fn bucket(stage: Stage) -> usize {
    match stage {
        Stage::Sensitivity => 0,
        Stage::Fit(FitKind::Standard) => 1,
        Stage::Fit(FitKind::Weighted) => 2,
        Stage::WeightingModel => 3,
        Stage::Assessment => 4,
        Stage::Enforcement(NormKind::Standard) => 6,
        Stage::Enforcement(_) => 5,
        Stage::Recovery(_) => 7,
        Stage::Evaluation => 8,
    }
}

/// Exact work counts of the enforcement layer and the recovery ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Outer iterations under the sensitivity-weighted family (primary
    /// weighted enforcement and every ladder rung).
    pub iterations_weighted: u64,
    /// Outer iterations of the standard-norm baseline.
    pub iterations_standard: u64,
    /// Assessed backtracking candidates: `1 + log2(1/step)` per iteration.
    pub candidates: u64,
    /// Linearized constraints, summed over iterations.
    pub constraints: u64,
    /// Working-grid points, summed over iterations.
    pub grid_points: u64,
    /// Recovery rungs started.
    pub rungs_tried: u64,
    /// Recovery rungs that delivered a model.
    pub rungs_delivered: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.iterations_weighted += other.iterations_weighted;
        self.iterations_standard += other.iterations_standard;
        self.candidates += other.candidates;
        self.constraints += other.constraints;
        self.grid_points += other.grid_points;
        self.rungs_tried += other.rungs_tried;
        self.rungs_delivered += other.rungs_delivered;
    }
}

/// A [`FlowObserver`] that reads the clock at every stage boundary, records
/// one span per stage and counts the enforcement work.
pub struct StageTimer<'l> {
    log: &'l mut SpanLog,
    op: u64,
    parent: u64,
    open: Option<(u64, f64)>,
    /// Seconds spent in each [`STAGES`] bucket.
    pub seconds: [f64; 9],
    /// Work counts.
    pub counts: Counts,
}

impl<'l> StageTimer<'l> {
    /// A timer recording into `log`, under span `parent` of op `op`.
    pub fn new(log: &'l mut SpanLog, op: u64, parent: u64) -> Self {
        StageTimer { log, op, parent, open: None, seconds: [0.0; 9], counts: Counts::default() }
    }

    fn close(&mut self, stage: Stage) {
        if let Some((id, start)) = self.open.take() {
            let b = bucket(stage);
            self.log.push(id, self.parent, self.op, STAGES[b], start);
            self.seconds[b] += self.log.now() - start;
        }
    }
}

impl FlowObserver for StageTimer<'_> {
    fn on_stage_start(&mut self, stage: Stage) {
        self.open = Some((self.log.reserve(), self.log.now()));
        if matches!(stage, Stage::Recovery(_)) {
            self.counts.rungs_tried += 1;
        }
    }

    fn on_stage_done(&mut self, stage: Stage) {
        self.close(stage);
        if matches!(stage, Stage::Recovery(_)) {
            self.counts.rungs_delivered += 1;
        }
    }

    fn on_stage_failed(&mut self, stage: Stage) {
        self.close(stage);
    }

    fn on_enforcement_iteration(&mut self, norm: NormKind, event: &EnforcementIteration) {
        let c = &mut self.counts;
        match norm {
            NormKind::Standard => c.iterations_standard += 1,
            _ => c.iterations_weighted += 1,
        }
        // Backtracking halves the step from 1, so `step = 2^-k` after k
        // rejected candidates.
        c.candidates += 1 + (1.0 / event.step).log2().round() as u64;
        c.constraints += event.constraints as u64;
        c.grid_points += event.grid_points as u64;
    }
}
