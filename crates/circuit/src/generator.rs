//! Seeded, parameterized board generation: the scenario-diversity engine.
//!
//! The hand-built [`PdnBoardSpec`] presets cover six topologies; production
//! coverage needs thousands. [`BoardGenerator`] samples the full parameter
//! space of the plane-pair model — N×M grids, die/decap/VRM port placement,
//! decap libraries with mixed ESL/ESR populations, multi-VRM feeds, and
//! package+die stacking — from a deterministic SplitMix64 stream, so every
//! generated board is exactly reproducible from `(GeneratorConfig, seed)`.
//!
//! The generator emits a [`GeneratedBoard`]: the [`PdnBoardSpec`] plus the
//! per-port electrical models (decap library picks, VRM and die parameters)
//! that a downstream scenario assembler turns into a termination network.
//! `pim-circuit` stays free of termination types — the models are plain
//! numbers here.
//!
//! The **draw order is part of the determinism contract**: grid size, port
//! counts, placement, plane electricals, stack, per-decap library picks, VRM
//! and die parameters, in that order. Changing it invalidates committed
//! corpus artifacts (see `tests/fixtures/corpus/` at the workspace root).

use crate::board::{build_board, PdnBoardSpec, StackStage, SyntheticPdn};
use crate::{CircuitError, Result};

/// SplitMix64 pseudo-random number generator.
///
/// Twin of `pim_pdn::rng::SplitMix64` and `proptest::TestRng` in
/// `crates/proptest-shim` (`pim-circuit` sits below `pim-pdn` in the crate
/// graph, so it keeps its own copy) — keep the mixing constants and the
/// float conversion in sync with those copies.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, 1)` using the 53 high bits of `next_u64`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in the **inclusive** range `[lo, hi]`.
    fn next_range(&mut self, (lo, hi): (usize, usize)) -> usize {
        if lo >= hi {
            return lo;
        }
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as usize
    }

    /// Log-uniform sample in the **inclusive** interval `[lo, hi]`.
    ///
    /// Degenerate intervals return `lo` exactly (bit-identical — no
    /// `exp(ln x)` round trip), so a pinned parameter takes exactly the
    /// pinned value.
    fn next_log_uniform(&mut self, (lo, hi): (f64, f64)) -> f64 {
        if lo >= hi {
            return lo;
        }
        let u = self.next_f64();
        (lo.ln() + u * (hi.ln() - lo.ln())).exp()
    }
}

/// One part in a decoupling-capacitor library: the vendor-style C/ESR/ESL
/// triple of [`PdnBoardSpec`]-level realism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecapPart {
    /// Capacitance in farad (positive).
    pub capacitance: f64,
    /// Equivalent series resistance in ohms (positive).
    pub esr: f64,
    /// Equivalent series inductance in henry (positive).
    pub esl: f64,
}

/// VRM electrical model drawn by the generator (one shared by all VRM legs;
/// multi-VRM boards split the regulation across identical phases, as in the
/// `MultiVrm` preset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrmModel {
    /// Series resistance in ohms.
    pub resistance: f64,
    /// Series inductance in henry.
    pub inductance: f64,
}

/// Die block electrical model drawn by the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieModel {
    /// Series resistance in ohms.
    pub resistance: f64,
    /// Block capacitance in farad.
    pub capacitance: f64,
}

/// The sampled parameter space of [`BoardGenerator`].
///
/// Integer pairs are inclusive `(lo, hi)` count ranges; float pairs are
/// inclusive log-uniform value ranges. A degenerate pair `(v, v)` pins the
/// parameter to exactly `v` (bit-identical, no rounding through `ln`/`exp`).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Grid cells along x.
    pub nx: (usize, usize),
    /// Grid cells along y.
    pub ny: (usize, usize),
    /// Number of die ports.
    pub die_ports: (usize, usize),
    /// Number of decap ports.
    pub decap_ports: (usize, usize),
    /// Number of VRM ports.
    pub vrm_ports: (usize, usize),
    /// Segment inductance range (henry).
    pub segment_inductance: (f64, f64),
    /// Segment resistance range (ohms).
    pub segment_resistance: (f64, f64),
    /// Cell capacitance range (farad).
    pub cell_capacitance: (f64, f64),
    /// Cell conductance range (siemens).
    pub cell_conductance: (f64, f64),
    /// Via inductance range (henry).
    pub via_inductance: (f64, f64),
    /// Via resistance range (ohms).
    pub via_resistance: (f64, f64),
    /// Number of package+die stack stages cascaded under every die pad.
    pub stack_stages: (usize, usize),
    /// Per-stage series inductance range (henry).
    pub stack_inductance: (f64, f64),
    /// Per-stage series resistance range (ohms).
    pub stack_resistance: (f64, f64),
    /// Per-stage package decoupling capacitance range (farad); drawn only
    /// for stages the stream marks as decoupled (every other stage).
    pub stack_capacitance: (f64, f64),
    /// The decap library; each decap port picks one part uniformly, giving
    /// mixed ESL/ESR populations across the board. Must not be empty when
    /// decap ports are possible.
    pub decap_library: Vec<DecapPart>,
    /// VRM series resistance range (ohms).
    pub vrm_resistance: (f64, f64),
    /// VRM series inductance range (henry).
    pub vrm_inductance: (f64, f64),
    /// Die block resistance range (ohms).
    pub die_resistance: (f64, f64),
    /// Die block capacitance range (farad).
    pub die_capacitance: (f64, f64),
}

/// The built-in decap library: four vendor-style populations from small
/// ceramic through bulk electrolytic — deliberately including the bulk part
/// of the known 5×5 dense-decap divergence regime.
pub fn default_decap_library() -> Vec<DecapPart> {
    vec![
        DecapPart { capacitance: 100e-9, esr: 10e-3, esl: 0.3e-9 },
        DecapPart { capacitance: 1e-6, esr: 5e-3, esl: 0.4e-9 },
        DecapPart { capacitance: 10e-6, esr: 3e-3, esl: 0.6e-9 },
        DecapPart { capacitance: 47e-6, esr: 8e-3, esl: 1.2e-9 },
    ]
}

impl Default for GeneratorConfig {
    /// The corpus-default space: 3×3 – 6×6 grids, 1–4 die, 1–4 decap and
    /// 1–2 VRM ports, electrical parameters within roughly a factor of 3 of
    /// the [`PdnBoardSpec::default`] values, up to two stack stages, and the
    /// [`default_decap_library`].
    fn default() -> Self {
        GeneratorConfig {
            nx: (3, 6),
            ny: (3, 6),
            die_ports: (1, 4),
            decap_ports: (1, 4),
            vrm_ports: (1, 2),
            segment_inductance: (0.1e-9, 0.9e-9),
            segment_resistance: (3e-3, 24e-3),
            cell_capacitance: (70e-12, 600e-12),
            cell_conductance: (2e-5, 1.5e-4),
            via_inductance: (0.03e-9, 0.3e-9),
            via_resistance: (1.5e-3, 12e-3),
            stack_stages: (0, 2),
            stack_inductance: (0.05e-9, 0.5e-9),
            stack_resistance: (1e-3, 10e-3),
            stack_capacitance: (1e-9, 20e-9),
            decap_library: default_decap_library(),
            vrm_resistance: (0.5e-3, 3e-3),
            vrm_inductance: (10e-9, 50e-9),
            die_resistance: (20e-3, 80e-3),
            die_capacitance: (30e-9, 150e-9),
        }
    }
}

/// A fully materialized generated scenario source: the board spec plus the
/// per-port electrical models a scenario assembler needs. Self-contained —
/// rebuilding the [`SyntheticPdn`] needs nothing but this value.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedBoard {
    /// The seed the board was drawn from (bookkeeping; the spec and models
    /// below are already fully materialized).
    pub seed: u64,
    /// The board description, buildable via [`GeneratedBoard::build`].
    pub spec: PdnBoardSpec,
    /// One decap model per decap port, in `spec.decap_ports` order.
    pub decap_models: Vec<DecapPart>,
    /// The VRM electrical model (shared by every VRM leg).
    pub vrm: VrmModel,
    /// The die block electrical model (shared by every die port).
    pub die: DieModel,
}

impl GeneratedBoard {
    /// Builds the synthetic PDN for this board.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidInput`] when the number of decap models
    /// differs from the number of decap ports; otherwise see [`build_board`].
    pub fn build(&self) -> Result<SyntheticPdn> {
        if self.decap_models.len() != self.spec.decap_ports.len() {
            return Err(CircuitError::InvalidInput(format!(
                "{} decap models for {} decap ports",
                self.decap_models.len(),
                self.spec.decap_ports.len()
            )));
        }
        build_board(&self.spec)
    }
}

/// The seeded board generator (see the module docs).
#[derive(Debug, Clone)]
pub struct BoardGenerator {
    config: GeneratorConfig,
}

impl BoardGenerator {
    /// Creates a generator over the given parameter space.
    pub fn new(config: GeneratorConfig) -> Self {
        BoardGenerator { config }
    }

    /// Draws the board for `seed`. Equal `(config, seed)` pairs produce
    /// bit-identical [`GeneratedBoard`]s.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidInput`] when the configuration cannot
    /// produce a valid board (grid too small for the port counts, empty
    /// decap library, non-positive range bounds).
    pub fn generate(&self, seed: u64) -> Result<GeneratedBoard> {
        let cfg = &self.config;
        let mut rng = SplitMix64::seed_from_u64(seed);

        // 1. Grid size.
        let nx = rng.next_range(cfg.nx);
        let ny = rng.next_range(cfg.ny);
        if nx < 2 || ny < 2 {
            return Err(CircuitError::InvalidInput(format!(
                "generated grid {nx}x{ny} below the 2x2 minimum; fix the nx/ny ranges"
            )));
        }

        // 2. Port counts, clamped so every port gets a distinct cell (die
        //    first, then VRM, then decap — decaps yield first because a
        //    board stays meaningful with fewer of them).
        let cells = nx * ny;
        if cells < 3 {
            return Err(CircuitError::InvalidInput(
                "the grid must offer at least 3 cells (die + decap + VRM)".into(),
            ));
        }
        let n_die = rng.next_range(cfg.die_ports).clamp(1, cells - 2);
        let n_vrm = rng.next_range(cfg.vrm_ports).clamp(1, cells - n_die - 1);
        let n_decap = rng.next_range(cfg.decap_ports).clamp(1, cells - n_die - n_vrm);

        // 3. Placement. Die ports take the cells nearest the grid center
        //    (the flip-chip footprint), ordered by squared distance with a
        //    stable (ix, iy) tie-break; the remaining cells are shuffled
        //    (Fisher–Yates) and decap, then VRM ports draw from the shuffle,
        //    so every board is connected and collision-free by construction.
        let cx = (nx as f64 - 1.0) / 2.0;
        let cy = (ny as f64 - 1.0) / 2.0;
        let mut by_center: Vec<(usize, usize)> =
            (0..nx).flat_map(|ix| (0..ny).map(move |iy| (ix, iy))).collect();
        by_center.sort_by(|&(ax, ay), &(bx, by)| {
            let da = (ax as f64 - cx).powi(2) + (ay as f64 - cy).powi(2);
            let db = (bx as f64 - cx).powi(2) + (by as f64 - cy).powi(2);
            da.total_cmp(&db).then((ax, ay).cmp(&(bx, by)))
        });
        let die_ports = by_center[..n_die].to_vec();
        let mut rest = by_center[n_die..].to_vec();
        for i in (1..rest.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            rest.swap(i, j);
        }
        let decap_ports = rest[..n_decap].to_vec();
        let vrm_ports = rest[n_decap..n_decap + n_vrm].to_vec();

        // 4. Plane and via electricals.
        let segment_inductance = rng.next_log_uniform(cfg.segment_inductance);
        let segment_resistance = rng.next_log_uniform(cfg.segment_resistance);
        let cell_capacitance = rng.next_log_uniform(cfg.cell_capacitance);
        let cell_conductance = rng.next_log_uniform(cfg.cell_conductance);
        let via_inductance = rng.next_log_uniform(cfg.via_inductance);
        let via_resistance = rng.next_log_uniform(cfg.via_resistance);

        // 5. Package+die stack: every other stage (counting from the plane)
        //    carries a package decoupling capacitor.
        let n_stages = rng.next_range(cfg.stack_stages);
        let mut die_stack = Vec::with_capacity(n_stages);
        for level in 0..n_stages {
            let inductance = rng.next_log_uniform(cfg.stack_inductance);
            let resistance = rng.next_log_uniform(cfg.stack_resistance);
            let shunt_capacitance =
                if level % 2 == 0 { rng.next_log_uniform(cfg.stack_capacitance) } else { 0.0 };
            die_stack.push(StackStage { inductance, resistance, shunt_capacitance });
        }

        // 6. Per-decap library picks (mixed ESL/ESR population).
        if cfg.decap_library.is_empty() {
            return Err(CircuitError::InvalidInput(
                "the decap library is empty but decap ports were requested".into(),
            ));
        }
        let decap_models: Vec<DecapPart> = (0..n_decap)
            .map(|_| cfg.decap_library[(rng.next_u64() % cfg.decap_library.len() as u64) as usize])
            .collect();

        // 7. VRM and die electricals.
        let vrm = VrmModel {
            resistance: rng.next_log_uniform(cfg.vrm_resistance),
            inductance: rng.next_log_uniform(cfg.vrm_inductance),
        };
        let die = DieModel {
            resistance: rng.next_log_uniform(cfg.die_resistance),
            capacitance: rng.next_log_uniform(cfg.die_capacitance),
        };

        let spec = PdnBoardSpec {
            nx,
            ny,
            segment_inductance,
            segment_resistance,
            cell_capacitance,
            cell_conductance,
            via_inductance,
            via_resistance,
            die_ports,
            decap_ports,
            vrm_ports,
            die_stack,
        };
        // Validate eagerly: a generated board must always build (pinned
        // ranges can carry non-physical element values).
        build_board(&spec)?;
        Ok(GeneratedBoard { seed, spec, decap_models, vrm, die })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_bit_identical() {
        let generator = BoardGenerator::new(GeneratorConfig::default());
        let a = generator.generate(123).unwrap();
        let b = generator.generate(123).unwrap();
        assert_eq!(a, b);
        // Distinct seeds explore the space (not a constant generator).
        let c = generator.generate(124).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn generated_ports_are_distinct_and_inside_the_grid() {
        let generator = BoardGenerator::new(GeneratorConfig::default());
        for seed in 0..64 {
            let board = generator.generate(seed).unwrap();
            let spec = &board.spec;
            let mut seen = std::collections::BTreeSet::new();
            for &(ix, iy) in spec.die_ports.iter().chain(&spec.decap_ports).chain(&spec.vrm_ports) {
                assert!(ix < spec.nx && iy < spec.ny, "seed {seed}: ({ix},{iy}) out of grid");
                assert!(seen.insert((ix, iy)), "seed {seed}: duplicate port ({ix},{iy})");
            }
            assert_eq!(board.decap_models.len(), spec.decap_ports.len());
        }
    }

    #[test]
    fn infeasible_configs_are_rejected() {
        let cfg = GeneratorConfig { nx: (1, 1), ..GeneratorConfig::default() };
        assert!(BoardGenerator::new(cfg).generate(0).is_err());
        let cfg = GeneratorConfig { decap_library: Vec::new(), ..GeneratorConfig::default() };
        assert!(BoardGenerator::new(cfg).generate(0).is_err());
        // A pinned non-physical element value fails at build validation.
        let cfg = GeneratorConfig { via_inductance: (0.0, 0.0), ..GeneratorConfig::default() };
        assert!(BoardGenerator::new(cfg).generate(0).is_err());
    }
}
