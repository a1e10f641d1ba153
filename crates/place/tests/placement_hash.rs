//! Placement regression: one hash over a fixed set of seeded problems.
//!
//! The annealer is a deterministic function of `(problem, opts)`, and the
//! compile flow's bit-identity (routing, configuration bits, area and delay
//! reports) rests on that. This test places about forty problems covering
//! random multi-context workloads at several sizes, change rates and DFF
//! fractions, the circuit library, and the degenerate trivial and one-block
//! cases, then folds every `(position, cost)` into one FNV-1a hash. Any
//! change to the move loop, the RNG draws or the cost function that alters a
//! single placement changes the hash.

use mcfpga_arch::{ArchSpec, Coord};
use mcfpga_map::map_netlist;
use mcfpga_netlist::{library, library2, workload, Netlist, RandomNetlistParams};
use mcfpga_obs::Recorder;
use mcfpga_place::{place, place_with, AnnealOptions, Placement, PlacementProblem};

/// FNV-1a over every placement of [`problems`], in order, as produced by the
/// annealer when this test was written.
const EXPECTED_HASH: u64 = 0xfa74_ad04_4d02_ecc6;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn placement(&mut self, p: &Placement) {
        self.bytes(&(p.position.len() as u64).to_le_bytes());
        for c in &p.position {
            self.bytes(&c.x.to_le_bytes());
            self.bytes(&c.y.to_le_bytes());
        }
        self.bytes(&p.cost.to_le_bytes());
    }
}

/// A square fabric with about two logic sites per block and an I/O ring
/// large enough for the circuit.
fn sized_problem(circuit: &Netlist) -> PlacementProblem {
    let base = ArchSpec::paper_default();
    let mapped = map_netlist(circuit, base.lut.min_inputs).unwrap();
    let blocks = mapped.luts.len().div_ceil(base.lut.outputs).max(1);
    let ios = mapped.n_inputs + mapped.outputs.len();
    let mut side = ((blocks as f64 * 2.0).sqrt().ceil() as u16).max(3);
    while 4 * (side as usize) < ios {
        side += 1;
    }
    PlacementProblem::from_mapped(&mapped, &base.with_grid(side, side)).unwrap()
}

/// The fixed problem set, each with its anneal seed.
fn problems() -> Vec<(String, PlacementProblem, u64)> {
    let mut out = Vec::new();
    let strata = [
        (30, 0.05, 0.0),
        (30, 0.25, 0.3),
        (80, 0.50, 0.0),
        (80, 0.05, 0.1),
        (150, 0.25, 0.0),
        (150, 0.50, 0.1),
        (250, 0.05, 0.3),
        (250, 0.25, 0.0),
    ];
    for (i, &(gates, rate, dff)) in strata.iter().enumerate() {
        let params = RandomNetlistParams {
            n_inputs: 6 + gates / 40,
            n_gates: gates,
            n_outputs: 6,
            dff_fraction: dff,
        };
        for (c, circuit) in workload(params, 3, rate, 100 + i as u64).iter().enumerate() {
            out.push((
                format!("rand-g{gates}-r{rate}-d{dff}-c{c}"),
                sized_problem(circuit),
                (i * 3 + c) as u64,
            ));
        }
    }
    let mut circuits = library::benchmark_suite();
    circuits.extend([
        library2::one_hot_decoder(3),
        library2::hamming74_decoder(),
        library2::mac(3, 6),
        library::alu(6),
    ]);
    for (i, circuit) in circuits.iter().enumerate() {
        out.push((
            format!("lib-{}", circuit.name()),
            sized_problem(circuit),
            0xF1A9 + i as u64,
        ));
    }
    // Trivial: a single LUT fed by the inputs.
    out.push((
        "trivial-parity4".into(),
        sized_problem(&library::parity(4)),
        5,
    ));
    // One block and no nets: the annealer returns the initial placement.
    let mut one = sized_problem(&library::parity(4));
    one.kinds.truncate(1);
    one.n_logic = 1;
    one.nets.clear();
    out.push(("one-block".into(), one, 6));
    out
}

fn opts(seed: u64) -> AnnealOptions {
    AnnealOptions {
        seed,
        ..Default::default()
    }
}

#[test]
fn placements_hash_to_the_recorded_constant() {
    let problems = problems();
    assert!(problems.len() >= 40, "{} problems", problems.len());
    let mut hash = Fnv1a::new();
    for (label, problem, seed) in &problems {
        let placement = place(problem, &opts(*seed));
        placement
            .validate(problem)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        hash.placement(&placement);
    }
    assert_eq!(
        hash.0, EXPECTED_HASH,
        "placement drifted: hash {:#018x}",
        hash.0
    );
}

#[test]
fn recording_does_not_change_placements() {
    for (label, problem, seed) in problems().iter().step_by(4) {
        let rec = Recorder::enabled();
        let traced = place_with(problem, &opts(*seed), &rec);
        let plain = place_with(problem, &opts(*seed), &Recorder::disabled());
        assert_eq!(traced, plain, "{label}");
        assert_eq!(traced, place(problem, &opts(*seed)), "{label}");
        if problem.n_blocks() >= 2 && !problem.nets.is_empty() {
            assert!(rec.counter("place.moves_attempted") > 0, "{label}");
        }
    }
}

#[test]
fn one_block_problem_keeps_its_initial_site() {
    let problems = problems();
    let (_, problem, seed) = problems.last().unwrap();
    let placement = place(problem, &opts(*seed));
    assert_eq!(placement.position, vec![Coord::new(1, 1)]);
    assert_eq!(placement.cost, 0);
}
