//! `perfbench`: the end-to-end and per-layer benchmark of the
//! sensitivity-weighted passivity flow.
//!
//! ```text
//! perfbench --workload <reduced-flow|fit-audit|corpus-block> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds the workload's boards (timed as `setup_s`), then runs ops in
//! a closed loop, one at a time, for `--seconds` seconds, checking every
//! op's output. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it runs each op untraced and traced (the corpus block also on
//! a 1-thread pool) and prints the per-layer metrics, and writes the spans
//! to `perfbench/spans/<workload>-seed<n>.jsonl`. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits non-zero when any check fails. See `README.md` for the
//! metric definitions.

mod probe;
mod speed;
mod trace;
mod workload;

use pim_core::corpus::Corpus;
use probe::{ProbeInput, KERNELS};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Counts, SpanLog, StageTimer, STAGES};
use workload::{BoardOutcome, Boards, Workload};

/// Set-up repetitions before the timed loop. One more runs after every op,
/// so the reps spread over the whole run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The end-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("boards_per_min", "1/min"),
    ("certified_fraction", "ratio"),
    ("z_err_weighted", "ratio"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| bad("expected a number"))?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's result line.
struct RunResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts an op and reports its failing boards on standard error.
fn tally(outcomes: &[BoardOutcome], attempted: &mut usize, failed: &mut usize) {
    *attempted += 1;
    let bad: Vec<&BoardOutcome> = outcomes.iter().filter(|o| !o.ok).collect();
    if !bad.is_empty() {
        *failed += 1;
        for o in bad {
            eprintln!("perfbench: check failed on {}: {}", o.board, o.detail);
        }
    }
}

/// The plain run: timed set-ups around a timed closed loop of ops; yields the
/// end-to-end metrics.
fn run_plain(args: &Args) -> Result<RunResult, String> {
    let mut setup_times = Vec::new();
    let mut timed_setup = || -> Result<Boards, String> {
        let (boards, scaled, _) = speed::scaled(|| workload::setup(args.workload, args.seed));
        setup_times.push(scaled);
        boards
    };
    for _ in 1..SETUP_REPS {
        timed_setup()?;
    }
    let boards = timed_setup()?;

    let (mut attempted, mut failed) = (0, 0);
    let mut op_times = Vec::new();
    let mut raw_times = Vec::new();
    let mut outcomes = Vec::new();
    let units = workload::op_units(&boards);
    let start = Instant::now();
    while op_times.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        // Each unit is scaled by the reference sampled right around it, so
        // the scaling follows speed drift within a long op.
        let (mut op, mut scaled, mut raw) = (Vec::new(), 0.0, 0.0);
        for unit in &units {
            let (out, unit_scaled, unit_raw) = speed::scaled(unit);
            op.extend(out);
            scaled += unit_scaled;
            raw += unit_raw;
        }
        op_times.push(scaled);
        raw_times.push(raw);
        tally(&op, &mut attempted, &mut failed);
        outcomes.extend(op);
        timed_setup()?;
    }
    let busy: f64 = raw_times.iter().sum();
    let certified = outcomes.iter().filter(|o| o.certified).count();
    let mut z_errs: Vec<f64> = outcomes.iter().filter_map(|o| o.z_err).collect();
    let latency = median(&mut op_times);
    let metrics = [
        median(&mut setup_times),
        latency,
        60.0 * boards.len() as f64 / latency,
        certified as f64 / outcomes.len() as f64,
        median(&mut z_errs),
        peak_rss_mb(),
    ];
    eprintln!(
        "perfbench: {} seed {}: {} ops of {} boards in {:.2} s wall (raw median op {:.4} s), \
         {} failed (error_rate {})",
        args.workload.name(),
        args.seed,
        attempted,
        boards.len(),
        busy,
        median(&mut raw_times),
        failed,
        ratio(failed as f64, attempted as f64)
    );
    Ok(RunResult {
        attempted,
        failed,
        metrics: END_TO_END.iter().zip(metrics).map(|(&(n, u), v)| (n.to_string(), v, u)).collect(),
    })
}

/// Sums over the traced run.
#[derive(Default)]
struct TraceTotals {
    rounds: usize,
    untraced_s: f64,
    serial_s: f64,
    traced_s: f64,
    stage_s: [f64; 9],
    counts: Counts,
    probes: Vec<Vec<f64>>,
}

/// Runs one board traced: `call` runs the board's library entry point with
/// the observer; the board span and the traced time cover only that call.
fn traced_board<T>(
    log: &mut SpanLog,
    totals: &mut TraceTotals,
    op: u64,
    parent: u64,
    name: &str,
    call: impl FnOnce(&mut StageTimer<'_>) -> T,
) -> T {
    let id = log.reserve();
    let start = log.now();
    let mut timer = StageTimer::new(log, op, id);
    let out = call(&mut timer);
    let (seconds, counts) = (timer.seconds, timer.counts);
    log.push(id, parent, op, name, start);
    totals.traced_s += log.now() - start;
    for (acc, s) in totals.stage_s.iter_mut().zip(seconds) {
        *acc += s;
    }
    totals.counts.add(&counts);
    out
}

/// One traced op: every board through its library entry point with a
/// [`StageTimer`] attached, one after another.
fn traced_op(
    boards: &Boards,
    log: &mut SpanLog,
    totals: &mut TraceTotals,
    op: u64,
    probe_kernels: bool,
) -> Result<Vec<BoardOutcome>, String> {
    let op_span = log.reserve();
    let op_start = log.now();
    let mut outcomes = Vec::new();
    let probe_one = |log: &mut SpanLog, input: &ProbeInput<'_>, totals: &mut TraceTotals| {
        if !probe_kernels {
            return Ok(());
        }
        let id = log.reserve();
        let start = log.now();
        let values = probe::probe(input, log, op, id)?;
        log.push(id, op_span, op, "bench.kernel_probes", start);
        totals.probes.push(values);
        Ok::<(), String>(())
    };
    match boards {
        Boards::Flow(scenarios) => {
            for (preset, sc) in scenarios {
                let report = traced_board(log, totals, op, op_span, preset.name(), |t| {
                    workload::reduced_flow(*preset, sc, Some(t))
                });
                outcomes.push(workload::check_flow(preset.name().to_string(), &report));
                if let Ok(r) = &report {
                    let config = preset.flow_config();
                    let input = ProbeInput {
                        pdn: &sc.pdn,
                        data: &sc.data,
                        network: &sc.network,
                        port: sc.observation_port,
                        config: &config,
                        sensitivity: &r.sensitivity,
                        weights: &r.weights,
                        weighting: &r.sensitivity_model,
                        model: &r.weighted_fit.model,
                    };
                    probe_one(log, &input, totals)?;
                }
            }
        }
        Boards::FitAudit(scenarios) => {
            for (preset, sc) in scenarios {
                let out = traced_board(log, totals, op, op_span, preset.name(), |t| {
                    workload::fit_audit(*preset, sc, Some(t))
                });
                outcomes.push(workload::check_fit_audit(preset.name().to_string(), &out));
                if let Ok(fa) = &out {
                    let config = preset.flow_config();
                    let input = ProbeInput {
                        pdn: &sc.pdn,
                        data: &sc.data,
                        network: &sc.network,
                        port: sc.observation_port,
                        config: &config,
                        sensitivity: &fa.sensitivity,
                        weights: &fa.weights,
                        weighting: &fa.weighting,
                        model: &fa.model,
                    };
                    probe_one(log, &input, totals)?;
                }
            }
        }
        Boards::Corpus { seeds, cases, .. } => {
            for (seed, case) in seeds.iter().zip(cases) {
                let name = format!("seed-{seed}");
                let flow = workload::corpus_flow(case);
                // Assembly runs inside the op, as it does inside
                // `Corpus::run`; it is timed as a span of its own.
                let (parts, seconds) =
                    log.time(op_span, op, "corpus.assemble", || workload::assemble(case));
                totals.traced_s += seconds;
                let parts = parts?;
                let report = traced_board(log, totals, op, op_span, &name, |t| {
                    workload::corpus_flow_observed(&parts, flow.clone(), t)
                });
                outcomes.push(workload::check_corpus_report(case, &report));
                if let Ok(r) = &report {
                    let input = ProbeInput {
                        pdn: &parts.pdn,
                        data: &parts.data,
                        network: &parts.network,
                        port: parts.port,
                        config: &flow,
                        sensitivity: &r.sensitivity,
                        weights: &r.weights,
                        weighting: &r.sensitivity_model,
                        model: &r.weighted_fit.model,
                    };
                    probe_one(log, &input, totals)?;
                }
            }
        }
    }
    log.push(op_span, 0, op, "bench.op", op_start);
    Ok(outcomes)
}

/// The traced run that yields the per-layer metrics.
fn run_traced(args: &Args) -> Result<RunResult, String> {
    let boards = workload::setup(args.workload, args.seed)?;
    let mut log = SpanLog::new();
    let serial_pool = pim_runtime::ThreadPool::new(1);
    let units = workload::op_units(&boards);
    let mut totals = TraceTotals::default();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while totals.rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        totals.rounds += 1;
        let op = totals.rounds as u64;
        let t = Instant::now();
        let outcomes: Vec<BoardOutcome> = units.iter().flat_map(|unit| unit()).collect();
        totals.untraced_s += t.elapsed().as_secs_f64();
        tally(&outcomes, &mut attempted, &mut failed);
        // The corpus block also runs on a 1-thread pool, for the pool speed-up.
        if let Boards::Corpus { config, seeds, .. } = &boards {
            let t = Instant::now();
            let verdicts = Corpus::run_with(&serial_pool, config, seeds);
            totals.serial_s += t.elapsed().as_secs_f64();
            let outcomes: Vec<BoardOutcome> =
                verdicts.iter().map(workload::check_verdict).collect();
            tally(&outcomes, &mut attempted, &mut failed);
        }
        let outcomes = traced_op(&boards, &mut log, &mut totals, op, op == 1)?;
        tally(&outcomes, &mut attempted, &mut failed);
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match log.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }

    let rounds = totals.rounds as f64;
    let staged: f64 = totals.stage_s.iter().sum();
    let c = &totals.counts;
    let iterations = (c.iterations_weighted + c.iterations_standard) as f64;
    let candidates = c.candidates as f64;
    let enforce_s = totals.stage_s[5] + totals.stage_s[6] + totals.stage_s[7];
    let mut metrics: Vec<(String, f64, &'static str)> = STAGES
        .iter()
        .zip(totals.stage_s)
        .map(|(name, s)| (format!("{name}_s"), s / rounds, "s"))
        .collect();
    metrics.extend([
        ("core.unstaged_s".to_string(), (totals.traced_s - staged) / rounds, "s"),
        ("core.stage_coverage".to_string(), ratio(staged, totals.traced_s), "ratio"),
        ("core.rungs_tried".to_string(), c.rungs_tried as f64 / rounds, "count"),
        (
            "core.rung_success_ratio".to_string(),
            ratio(c.rungs_delivered as f64, c.rungs_tried as f64),
            "ratio",
        ),
        (
            "passivity.iterations_weighted".to_string(),
            c.iterations_weighted as f64 / rounds,
            "count",
        ),
        (
            "passivity.iterations_standard".to_string(),
            c.iterations_standard as f64 / rounds,
            "count",
        ),
        ("passivity.candidates".to_string(), candidates / rounds, "count"),
        ("passivity.accept_ratio".to_string(), ratio(iterations, candidates), "ratio"),
        (
            "passivity.constraints_mean".to_string(),
            ratio(c.constraints as f64, iterations),
            "count",
        ),
        (
            "passivity.grid_points_mean".to_string(),
            ratio(c.grid_points as f64, iterations),
            "count",
        ),
        (
            "passivity.enforce_ms_per_candidate".to_string(),
            ratio(enforce_s * 1e3, candidates),
            "ms",
        ),
    ]);
    for (k, (name, unit)) in KERNELS.iter().enumerate() {
        let values: Vec<f64> = totals.probes.iter().map(|p| p[k]).collect();
        metrics.push((name.to_string(), ratio(values.iter().sum(), values.len() as f64), unit));
    }
    // Board-serial untraced time: the flows' own op; the corpus block's
    // 1-thread run. Pool speed-up is defined on the corpus block only.
    let (serial_s, pool_speedup) = match boards {
        Boards::Corpus { .. } => (totals.serial_s, ratio(totals.serial_s, totals.untraced_s)),
        _ => (totals.untraced_s, 1.0),
    };
    metrics.extend([
        ("runtime.pool_speedup".to_string(), pool_speedup, "ratio"),
        ("trace.overhead_ratio".to_string(), ratio(totals.traced_s, serial_s), "ratio"),
    ]);
    eprintln!(
        "perfbench: {} seed {} traced: {} rounds, {} ops checked, {} failed",
        args.workload.name(),
        args.seed,
        totals.rounds,
        attempted,
        failed
    );
    Ok(RunResult { attempted, failed, metrics })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <reduced-flow|fit-audit|corpus-block> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.trace { run_traced(&args) } else { run_plain(&args) };
    match result {
        Ok(result) => {
            println!("{}", result.json());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload.name(), args.seed);
            ExitCode::FAILURE
        }
    }
}
