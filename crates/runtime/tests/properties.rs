//! Property-based tests of the determinism invariant: `par_map` must return
//! results that are **bit-identical** to the serial evaluation, for every
//! thread count.

use pim_runtime::ThreadPool;
use proptest::prelude::*;

/// The thread counts the determinism suites sweep (`1` is the serial
/// fallback path; `8` oversubscribes any test machine).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A deliberately non-associative floating-point kernel: re-ordering or
/// re-chunking the accumulation would change the result bits.
fn mix(i: usize, x: f64) -> f64 {
    ((x * 1.000_000_119 + i as f64).sin() * 1e3).mul_add(x, 1.0 / (i as f64 + 0.5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn par_map_is_bit_identical_to_serial(
        len in 1usize..33,
        v in prop::collection::vec(-1.0f64..1.0, 33),
    ) {
        let items = &v[..len];
        let serial: Vec<f64> = items.iter().enumerate().map(|(i, &x)| mix(i, x)).collect();
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            let parallel = pool.par_map(items, |i, &x| mix(i, x));
            prop_assert!(parallel.len() == serial.len());
            for (k, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "threads={threads} index={k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn fallible_par_map_reports_the_first_error_by_index(
        len in 2usize..33,
        bad in prop::collection::vec(0usize..33, 3),
    ) {
        let items: Vec<usize> = (0..len).collect();
        let bad: Vec<usize> = bad.into_iter().filter(|b| *b < len).collect();
        let expected: Result<Vec<usize>, usize> = items
            .iter()
            .map(|&i| if bad.contains(&i) { Err(i) } else { Ok(i * 2) })
            .collect();
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            // The in-tree error-handling idiom: map to Result, then collect in
            // index order — the reported error is the lowest failing index no
            // matter which task finished first.
            let got: Result<Vec<usize>, usize> = pool
                .par_map(&items, |_, &i| if bad.contains(&i) { Err(i) } else { Ok(i * 2) })
                .into_iter()
                .collect();
            prop_assert!(got == expected, "threads={threads}");
        }
    }
}
