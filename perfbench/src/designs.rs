//! Design draws shared by the workloads.
//!
//! Every draw is *stratified*: the strata (size, context count, change rate,
//! sequential or not, library group shape) are fixed lists, and a seed only
//! picks the random gates and library members inside each stratum. The
//! `compile-cold` draw takes the run's seed, so the mix of sizes and change
//! rates is the same at every seed while the designs differ. The designs of
//! `sim-stream` and the base pool of `serve-sessions` are fixed: there the
//! run's seed drives the vectors, arrivals and tenant choices, and the
//! measured kernel and queue costs do not depend on which netlists the seed
//! happened to draw.

use mcfpga::arch::ArchSpec;
use mcfpga::map::map_netlist;
use mcfpga::netlist::{library, library2, perturb_netlist, workload, Netlist, RandomNetlistParams};

use crate::rng::SplitMix;

/// One multi-context design: a circuit per context on a sized fabric.
#[derive(Debug, Clone)]
pub struct Design {
    pub label: String,
    pub arch: ArchSpec,
    pub circuits: Vec<Netlist>,
}

/// Gate counts of the random strata.
pub const GATE_SIZES: [usize; 5] = [60, 120, 200, 300, 400];
/// Change rates between consecutive contexts of the random strata.
pub const CHANGE_RATES: [f64; 3] = [0.05, 0.25, 0.50];

/// Logic-block sites per used block: the fabric is sized so about half of
/// its logic sites hold a block, which every stratum routes at the default
/// channel width.
const SITES_PER_BLOCK: f64 = 2.0;

/// A square grid large enough for `circuits`, from their mapped LUT counts.
pub fn sized_arch(circuits: &[Netlist]) -> ArchSpec {
    let base = ArchSpec::paper_default();
    let k = base.lut.min_inputs;
    let outs = base.lut.outputs;
    let mut blocks = 1usize;
    let mut ios = 1usize;
    for c in circuits {
        let m = map_netlist(c, k).expect("generated circuits map");
        blocks = blocks.max(m.luts.len().div_ceil(outs));
        ios = ios.max(m.n_inputs + m.outputs.len());
    }
    let mut side = ((blocks as f64 * SITES_PER_BLOCK).sqrt().ceil() as u16).max(4);
    // The I/O ring of a side x side grid has 4 * (side + 1) sites.
    while 4 * (side as usize + 1) < ios * 2 {
        side += 1;
    }
    base.with_grid(side, side)
        .with_contexts(circuits.len().max(2))
}

/// A random multi-context design from `netlist::workload`.
pub fn random_design(gates: usize, contexts: usize, rate: f64, dff: bool, seed: u64) -> Design {
    let params = RandomNetlistParams {
        n_inputs: 8 + gates / 40,
        n_gates: gates,
        n_outputs: 8,
        dff_fraction: if dff { 0.08 } else { 0.0 },
    };
    let circuits = workload(params, contexts, rate, seed);
    Design {
        label: format!(
            "rand-g{gates}-c{contexts}-r{}{}",
            (rate * 100.0).round(),
            if dff { "-seq" } else { "" }
        ),
        arch: sized_arch(&circuits),
        circuits,
    }
}

/// Every circuit of the two library suites.
pub fn library_pool() -> Vec<Netlist> {
    let mut pool = library::benchmark_suite();
    pool.extend(library2::extended_suite());
    pool
}

/// A group of `contexts` distinct library circuits picked by `rng`.
pub fn library_design(contexts: usize, rng: &mut SplitMix) -> Design {
    let pool = library_pool();
    let mut picked: Vec<usize> = Vec::with_capacity(contexts);
    while picked.len() < contexts {
        let i = rng.below(pool.len());
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    let circuits: Vec<Netlist> = picked.iter().map(|&i| pool[i].clone()).collect();
    let names: Vec<&str> = circuits.iter().map(|c| c.name()).collect();
    Design {
        label: format!("lib-{}", names.join("+")),
        arch: sized_arch(&circuits),
        circuits,
    }
}

/// Random designs drawn per (size, change rate) stratum of `compile-cold`.
const PER_STRATUM: usize = 6;

/// The `compile-cold` draw: [`PER_STRATUM`] random designs for every size
/// and change rate, each instance with its own context count (2, 3, 4) and
/// every other one sequential, plus library groups of 2, 3 and 4 contexts.
pub fn compile_cold_draw(seed: u64) -> Vec<Design> {
    let mut rng = SplitMix::new(seed ^ 0xC01D);
    let mut out = Vec::new();
    for (si, &gates) in GATE_SIZES.iter().enumerate() {
        for (ri, &rate) in CHANGE_RATES.iter().enumerate() {
            for instance in 0..PER_STRATUM {
                let contexts = 2 + (si + ri + instance) % 3;
                let dff = (si + ri + instance) % 2 == 1;
                out.push(random_design(gates, contexts, rate, dff, rng.next()));
            }
        }
    }
    for contexts in [2, 3, 4].repeat(4) {
        out.push(library_design(contexts, &mut rng));
    }
    out
}

/// Seed of the fixed `sim-stream` designs and `serve-sessions` pool.
const FIXED_DESIGN_SEED: u64 = 0x5173_9001;

/// The `sim-stream` designs, twice over: two combinational random designs,
/// one sequential random design, and one library group.
pub fn sim_stream_designs() -> Vec<Design> {
    let mut rng = SplitMix::new(FIXED_DESIGN_SEED);
    let mut out = Vec::new();
    for _ in 0..2 {
        out.push(random_design(300, 2, 0.25, false, rng.next()));
        out.push(random_design(150, 3, 0.05, false, rng.next()));
        out.push(random_design(200, 2, 0.25, true, rng.next()));
        out.push(library_design(3, &mut rng));
    }
    out
}

/// The `serve-sessions` base pool: `n` random 3-context designs of
/// similar size, every change rate, every other one sequential. Similar
/// sizes keep a tenant's sim cost and a cold compile's cost from hinging on
/// which designs a seed's schedule happens to compile.
pub fn serve_pool(n: usize) -> Vec<Design> {
    let mut rng = SplitMix::new(FIXED_DESIGN_SEED ^ 0x9001);
    (0..n)
        .map(|i| {
            let gates = [70, 80, 90][i % 3];
            let rate = CHANGE_RATES[(i / 3) % 3];
            random_design(gates, 3, rate, i % 2 == 1, rng.next())
        })
        .collect()
}

/// A copy of `design` with context `context` perturbed at `rate`: the
/// one-context change that the serving layer's delta path recompiles.
pub fn perturb_one(design: &Design, context: usize, rate: f64, seed: u64) -> Design {
    let mut circuits = design.circuits.clone();
    circuits[context] = perturb_netlist(&circuits[context], rate, seed);
    Design {
        label: format!("{}-p{context}", design.label),
        arch: design.arch.clone(),
        circuits,
    }
}
