//! Machine-speed calibration of the end-to-end times.
//!
//! The shared 2-vCPU hosts this benchmark runs on drift in speed by ±25 %
//! over tens of seconds, and their two vCPUs do not always run at the same
//! speed, which swamps the differences a change makes. A fixed reference
//! kernel is timed on every CPU at once right before and right after every
//! timed step; each step's time is rescaled to the speed at which the
//! reference takes [`REFERENCE_S`]. The reference is plain arithmetic on
//! buffers of its own, run on the calling thread and on benchmark-owned
//! scoped threads: it calls no library code, not even the `pim-runtime`
//! pool, so no library change can move it, and the scaled times still
//! compare two versions of the library, without the drift.

use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The nominal time of one reference run (about its time on the 2-vCPU
/// development container): scaled times are seconds at that speed.
pub const REFERENCE_S: f64 = 3.0e-3;

const N: usize = 64;

/// Reference units per thread in one reference run.
const UNITS: usize = 2;

/// Reference runs per sample; their median is the sample.
const RUNS: usize = 3;

/// One thread's reference buffers.
struct Buffers {
    a: Vec<f64>,
    c: Vec<f64>,
    stream: Vec<f64>,
}

impl Buffers {
    fn new() -> Self {
        Buffers {
            a: (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect(),
            c: vec![0.0; N * N],
            stream: vec![1.0; 1 << 18],
        }
    }

    /// One reference unit: dense 64×64 products (floating-point work in
    /// cache) plus streaming passes over a 2 MiB buffer (memory traffic).
    fn unit(&mut self) -> f64 {
        let (a, c) = (&self.a, &mut self.c);
        c.fill(0.0);
        for _ in 0..6 {
            for i in 0..N {
                for k in 0..N {
                    let aik = a[i * N + k];
                    for j in 0..N {
                        c[i * N + j] += aik * a[k * N + j];
                    }
                }
            }
        }
        let mut sum = 0.0;
        for _ in 0..3 {
            for (i, x) in self.stream.iter_mut().enumerate() {
                *x = *x * 0.5 + (i & 15) as f64;
                sum += *x;
            }
        }
        black_box(sum + c[7])
    }
}

/// One buffer set per CPU, allocated once: the reference allocates nothing
/// while it runs, so it adds the same to the process's peak memory in every
/// run.
fn buffers() -> &'static [Mutex<Buffers>] {
    static BUFFERS: OnceLock<Vec<Mutex<Buffers>>> = OnceLock::new();
    BUFFERS.get_or_init(|| {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        (0..cpus).map(|_| Mutex::new(Buffers::new())).collect()
    })
}

/// Wall time of [`UNITS`] reference units on every CPU at once: on the
/// calling thread and on one scoped thread per other CPU, so that every vCPU
/// takes part, as it does in the pool-parallel parts of an op.
fn reference() -> f64 {
    let (own, others) = buffers().split_first().expect("at least one CPU");
    let units = |b: &Mutex<Buffers>| {
        let mut b = b.lock().expect("reference buffers");
        black_box((0..UNITS).map(|_| b.unit()).sum::<f64>())
    };
    let t = Instant::now();
    std::thread::scope(|s| {
        for b in others {
            s.spawn(move || units(b));
        }
        units(own);
    });
    t.elapsed().as_secs_f64()
}

/// The median of [`RUNS`] reference runs: it drops the run that starts with
/// cold caches after a large op, or one that a late thread start delays.
fn sample() -> f64 {
    let mut t = [0.0; RUNS];
    for ti in &mut t {
        *ti = reference();
    }
    t.sort_by(f64::total_cmp);
    t[RUNS / 2]
}

/// Runs `f` and returns its result, its time rescaled by the reference
/// sampled before and after it, and its raw time.
pub fn scaled<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = sample();
    let t = Instant::now();
    let out = f();
    let raw = t.elapsed().as_secs_f64();
    let after = sample();
    (out, raw * REFERENCE_S / (0.5 * (before + after)), raw)
}
