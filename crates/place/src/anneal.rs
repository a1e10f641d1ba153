//! The simulated-annealing engine (VPR-style adaptive schedule).

use mcfpga_arch::Coord;
use mcfpga_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::problem::{BlockKind, PlacementProblem};

/// Annealer knobs.
#[derive(Debug, Clone, Copy)]
pub struct AnnealOptions {
    pub seed: u64,
    /// Moves per temperature step, per block.
    pub moves_per_block: usize,
    /// Stop when the temperature falls to this absolute value. (The start
    /// temperature scales with `cost/nets`; the floor does not.)
    pub t_min_factor: f64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            seed: 0xF1A9,
            moves_per_block: 12,
            t_min_factor: 0.005,
        }
    }
}

/// A finished placement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Full-grid coordinate of every block.
    pub position: Vec<Coord>,
    /// Final HPWL cost.
    pub cost: u64,
}

impl Placement {
    /// Verify legality against a problem: logic on logic sites, I/O on ring
    /// sites, no two blocks sharing a site.
    pub fn validate(&self, problem: &PlacementProblem) -> Result<(), String> {
        if self.position.len() != problem.n_blocks() {
            return Err("position count mismatch".into());
        }
        let mut used = std::collections::HashSet::new();
        for (b, &pos) in self.position.iter().enumerate() {
            match problem.kinds[b] {
                BlockKind::Logic if !problem.grid.is_logic(pos) => {
                    return Err(format!("logic block {b} on non-logic site {pos}"));
                }
                BlockKind::Io if !problem.grid.is_io(pos) => {
                    return Err(format!("I/O block {b} off the ring at {pos}"));
                }
                _ => {}
            }
            if !used.insert(pos) {
                return Err(format!("two blocks share site {pos}"));
            }
        }
        Ok(())
    }
}

/// Half-perimeter of the bounding box of `pins`; 0 for an empty net.
#[inline]
fn bbox_hpwl(mut pins: impl Iterator<Item = usize>, position: &[Coord]) -> u64 {
    // An empty net has no bounding box: seed the box from the first pin
    // rather than from (u16::MAX, 0), which would underflow below.
    let Some(first) = pins.next() else {
        return 0;
    };
    let p = position[first];
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (p.x, p.x, p.y, p.y);
    for b in pins {
        let p = position[b];
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    (max_x - min_x) as u64 + (max_y - min_y) as u64
}

fn net_hpwl(net: &[usize], position: &[Coord]) -> u64 {
    bbox_hpwl(net.iter().copied(), position)
}

fn total_cost(problem: &PlacementProblem, position: &[Coord]) -> u64 {
    problem.nets.iter().map(|n| net_hpwl(n, position)).sum()
}

/// Compressed-sparse-row adjacency: row `r` is `items[start[r]..start[r + 1]]`.
struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    fn from_rows<'a>(rows: impl Iterator<Item = &'a [usize]>) -> Csr {
        let mut start = vec![0u32];
        let mut items = Vec::new();
        for row in rows {
            items.extend(row.iter().map(|&i| i as u32));
            start.push(items.len() as u32);
        }
        Csr { start, items }
    }

    /// The transpose: row `i` lists every row of `self` that contains `i`,
    /// in ascending order.
    fn transpose(&self, n_rows: usize) -> Csr {
        let mut start = vec![0u32; n_rows + 1];
        for &i in &self.items {
            start[i as usize + 1] += 1;
        }
        for r in 0..n_rows {
            start[r + 1] += start[r];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; self.items.len()];
        for r in 0..self.start.len() - 1 {
            for &i in self.row(r) {
                items[fill[i as usize] as usize] = r as u32;
                fill[i as usize] += 1;
            }
        }
        Csr { start, items }
    }

    #[inline]
    fn row(&self, r: usize) -> &[u32] {
        &self.items[self.start[r] as usize..self.start[r + 1] as usize]
    }

    #[inline]
    fn hpwl(&self, net: usize, position: &[Coord]) -> u32 {
        bbox_hpwl(self.row(net).iter().map(|&b| b as usize), position) as u32
    }
}

/// No block on this site.
const EMPTY: u32 = u32::MAX;

/// Place a problem with simulated annealing. Deterministic in the seed.
pub fn place(problem: &PlacementProblem, opts: &AnnealOptions) -> Placement {
    place_with(problem, opts, &Recorder::disabled())
}

/// Delta entry point: place `problem`, reusing a stale placement when it is
/// provably still the answer.
///
/// Annealing is a deterministic pure function of `(problem, opts)` — the RNG
/// is seeded from `opts.seed` and every move decision follows from it — so
/// when the problem is identical to the one `stale_placement` was produced
/// from (with the same options, which the caller guarantees; compile
/// pipelines derive the seed from the context index, stable across
/// recompiles of the same slot), the stale placement *is* the cold result.
/// An incremental anneal seeded from the stale positions would converge to a
/// different (if equally good) placement and break downstream bit-identity,
/// which is why this is an equality-gated memo and not a warm restart.
///
/// Returns the placement plus whether the stale result was reused.
pub fn place_delta(
    problem: &PlacementProblem,
    opts: &AnnealOptions,
    stale_problem: &PlacementProblem,
    stale_placement: &Placement,
    rec: &Recorder,
) -> (Placement, bool) {
    if problem == stale_problem {
        rec.incr("place.delta_reused", 1);
        return (stale_placement.clone(), true);
    }
    (place_with(problem, opts, rec), false)
}

/// As [`place`], recording the annealing schedule into `rec`: a `place` span,
/// per-temperature-step acceptance statistics, and move counters. The result
/// is identical to [`place`] for the same problem and options.
pub fn place_with(problem: &PlacementProblem, opts: &AnnealOptions, rec: &Recorder) -> Placement {
    let _span = rec.span("place");
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let logic_sites = problem.grid.logic_sites();
    let io_sites = problem.grid.io_sites();

    // Initial placement: blocks in site order.
    let mut position: Vec<Coord> = Vec::with_capacity(problem.n_blocks());
    let mut logic_cursor = 0usize;
    let mut io_cursor = 0usize;
    for kind in &problem.kinds {
        match kind {
            BlockKind::Logic => {
                position.push(logic_sites[logic_cursor]);
                logic_cursor += 1;
            }
            BlockKind::Io => {
                position.push(io_sites[io_cursor]);
                io_cursor += 1;
            }
        }
    }

    let mut cost = total_cost(problem, &position);
    if problem.nets.is_empty() || problem.n_blocks() < 2 {
        return Placement { position, cost };
    }

    // Per-site occupancy for swap moves, dense over the full grid.
    let dim = problem.grid.full;
    let mut occupant = vec![EMPTY; dim.width as usize * dim.height as usize];
    for (b, &p) in position.iter().enumerate() {
        occupant[dim.index(p)] = b as u32;
    }

    // Pins of each net and nets touching each block, for incremental cost.
    let pins = Csr::from_rows(problem.nets.iter().map(Vec::as_slice));
    let nets_of = pins.transpose(problem.n_blocks());
    // Current HPWL of every net; a move's "before" cost is read from here.
    let mut net_cost: Vec<u32> = (0..problem.nets.len())
        .map(|n| pins.hpwl(n, &position))
        .collect();

    // Scratch for the move loop: the affected nets with their cost after the
    // move. The set is rebuilt every move, deduplicated with a generation
    // stamp per net; summation order over it does not matter.
    let mut affected: Vec<(u32, u32)> = Vec::with_capacity(16);
    let mut net_stamp: Vec<u64> = vec![0; problem.nets.len()];
    let mut move_stamp: u64 = 0;

    // Initial temperature: spread of random-move deltas.
    let mut t = (cost as f64 / problem.nets.len() as f64).max(1.0) * 2.0;
    let t_min = opts.t_min_factor;
    let moves_per_t = opts.moves_per_block * problem.n_blocks();
    let n_blocks = problem.n_blocks() as u64;

    while t > t_min {
        let mut accepted = 0usize;
        // Acceptance probability of small uphill deltas at this temperature,
        // filled on first use: the same expression, evaluated once.
        let mut uphill_p: [Option<f64>; 64] = [None; 64];
        for _ in 0..moves_per_t {
            // Pick a block and a target site of the same kind. Both draws are
            // `next_u64() % n`, the value `gen_range(0..n)` returns.
            let b = (rng.next_u64() % n_blocks) as usize;
            let sites = match problem.kinds[b] {
                BlockKind::Logic => &logic_sites,
                BlockKind::Io => &io_sites,
            };
            let target = sites[(rng.next_u64() % sites.len() as u64) as usize];
            let old = position[b];
            if target == old {
                continue;
            }
            let target_site = dim.index(target);
            let other = occupant[target_site];
            // Collect the affected nets and their cached cost before the move.
            move_stamp += 1;
            affected.clear();
            let mut before = 0u64;
            let mut touch = |block: u32| {
                for &n in nets_of.row(block as usize) {
                    let n = n as usize;
                    if net_stamp[n] != move_stamp {
                        net_stamp[n] = move_stamp;
                        before += net_cost[n] as u64;
                        affected.push((n as u32, 0));
                    }
                }
            };
            touch(b as u32);
            if other != EMPTY {
                touch(other);
            }
            // Apply, and price the affected nets after the move.
            position[b] = target;
            if other != EMPTY {
                position[other as usize] = old;
            }
            let mut after = 0u64;
            for (n, c) in affected.iter_mut() {
                *c = pins.hpwl(*n as usize, &position);
                after += *c as u64;
            }
            let delta = after as i64 - before as i64;
            let accept = delta <= 0 || {
                let uphill = |delta: i64| (-(delta as f64) / t).exp().min(1.0);
                let p = match uphill_p.get_mut(delta as usize) {
                    Some(slot) => *slot.get_or_insert_with(|| uphill(delta)),
                    None => uphill(delta),
                };
                rng.gen_bool(p)
            };
            if accept {
                for &(n, c) in &affected {
                    net_cost[n as usize] = c;
                }
                occupant[dim.index(old)] = other;
                occupant[target_site] = b as u32;
                cost = (cost as i64 + delta) as u64;
                accepted += 1;
            } else {
                // Revert.
                position[b] = old;
                if other != EMPTY {
                    position[other as usize] = target;
                }
            }
        }
        // Adaptive cooling: cool faster when the acceptance rate strays from
        // the productive band (VPR's rule of thumb).
        let rate = accepted as f64 / moves_per_t as f64;
        rec.incr("anneal.temperature_steps", 1);
        rec.incr("place.moves_accepted", accepted as u64);
        rec.incr("place.moves_attempted", moves_per_t as u64);
        rec.observe("place.acceptance_rate", rate);
        rec.set_gauge("anneal.temperature", t);
        rec.instant(
            "anneal_step",
            &[
                ("temperature", t.into()),
                ("acceptance_rate", rate.into()),
                ("moves_accepted", (accepted as u64).into()),
                ("cost", cost.into()),
            ],
        );
        let alpha = if rate > 0.96 {
            0.5
        } else if rate > 0.8 {
            0.9
        } else if rate > 0.15 {
            0.95
        } else {
            0.8
        };
        t *= alpha;
    }
    debug_assert_eq!(cost, total_cost(problem, &position));
    debug_assert!(
        (0..problem.nets.len())
            .all(|n| net_cost[n] as u64 == net_hpwl(&problem.nets[n], &position)),
        "cached net cost diverged from recomputation"
    );
    Placement { position, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use mcfpga_arch::ArchSpec;
    use mcfpga_map::map_netlist;
    use mcfpga_netlist::library;

    fn placed(circuit: mcfpga_netlist::Netlist, seed: u64) -> (PlacementProblem, Placement) {
        let arch = ArchSpec::paper_default();
        let mapped = map_netlist(&circuit, 6).unwrap();
        let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
        let placement = place(
            &problem,
            &AnnealOptions {
                seed,
                ..Default::default()
            },
        );
        (problem, placement)
    }

    #[test]
    fn placements_are_legal() {
        for circuit in [library::adder(4), library::alu(4), library::multiplier(3)] {
            let (problem, placement) = placed(circuit, 1);
            placement.validate(&problem).unwrap();
        }
    }

    #[test]
    fn annealing_beats_the_initial_placement() {
        let arch = ArchSpec::paper_default();
        let mapped = map_netlist(&library::multiplier(3), 6).unwrap();
        let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
        // Initial cost: blocks in site order.
        let sites = problem.grid.logic_sites();
        let ios = problem.grid.io_sites();
        let mut pos = Vec::new();
        let (mut lc, mut ic) = (0, 0);
        for k in &problem.kinds {
            match k {
                crate::problem::BlockKind::Logic => {
                    pos.push(sites[lc]);
                    lc += 1;
                }
                crate::problem::BlockKind::Io => {
                    pos.push(ios[ic]);
                    ic += 1;
                }
            }
        }
        let initial = super::total_cost(&problem, &pos);
        let placement = place(&problem, &AnnealOptions::default());
        assert!(
            placement.cost <= initial,
            "annealed {} vs initial {initial}",
            placement.cost
        );
    }

    #[test]
    fn empty_net_costs_zero_instead_of_underflowing() {
        // Regression: an empty net used to leave min = u16::MAX, max = 0 and
        // panic on `max - min` in debug builds.
        let positions = vec![Coord::new(3, 4), Coord::new(1, 2)];
        assert_eq!(super::net_hpwl(&[], &positions), 0);
        assert_eq!(super::net_hpwl(&[0], &positions), 0);
        assert_eq!(super::net_hpwl(&[0, 1], &positions), 4);
    }

    #[test]
    fn placement_is_deterministic_in_seed() {
        let (_, a) = placed(library::alu(4), 7);
        let (_, b) = placed(library::alu(4), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn reported_cost_matches_recomputation() {
        let (problem, placement) = placed(library::adder(6), 3);
        assert_eq!(
            placement.cost,
            super::total_cost(&problem, &placement.position)
        );
    }

    #[test]
    fn trivial_problem_places() {
        let arch = ArchSpec::paper_default();
        let mapped = map_netlist(&library::parity(4), 6).unwrap();
        let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
        let placement = place(&problem, &AnnealOptions::default());
        placement.validate(&problem).unwrap();
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use mcfpga_arch::ArchSpec;
    use mcfpga_map::map_netlist;
    use mcfpga_netlist::{random_netlist, RandomNetlistParams};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Every random circuit places legally at every seed, and the
        /// reported cost matches recomputation.
        #[test]
        fn random_placements_are_legal(seed in 0u64..1000, anneal_seed in 0u64..1000) {
            let arch = ArchSpec::paper_default();
            let params = RandomNetlistParams {
                n_inputs: 6,
                n_gates: 50,
                n_outputs: 6,
                dff_fraction: 0.1,
            };
            let netlist = random_netlist(params, seed);
            let mapped = map_netlist(&netlist, 6).unwrap();
            let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
            let placement = place(
                &problem,
                &AnnealOptions {
                    seed: anneal_seed,
                    moves_per_block: 4, // keep the property run fast
                    ..Default::default()
                },
            );
            placement.validate(&problem).unwrap();
            prop_assert_eq!(placement.cost, super::total_cost(&problem, &placement.position));
        }
    }
}
