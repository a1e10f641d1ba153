//! Simulated-annealing placement for the MC-FPGA.
//!
//! The fabric is modelled as the logic-block grid of Fig. 1 surrounded by a
//! ring of I/O sites: a `W x H` architecture becomes a `(W+2) x (H+2)`
//! placement grid whose interior cells are logic-block sites and whose ring
//! cells hold primary inputs/outputs. Placement minimises total net
//! half-perimeter wirelength (HPWL) with the classic VPR-style adaptive
//! annealing schedule.
//!
//! Placement is per-fabric, not per-context: a multi-context workload shares
//! one placement (the whole point of an MC-FPGA is that contexts share the
//! physical array), so the placement problem aggregates the nets of every
//! context.
//!
//! # Data layout of the annealer
//!
//! [`place_with`] builds flat, index-addressed tables once per call and
//! spends its move loop on them:
//!
//! * **Occupancy** is a dense `Vec<u32>` over the full placement grid,
//!   indexed by [`GridDim::index`](mcfpga_arch::GridDim::index), holding the
//!   block on each site or `u32::MAX` for an empty one.
//! * **Adjacency** is two compressed-sparse-row tables of `u32`: net → pins
//!   (block ids) and its transpose, block → nets. Each is an offsets vector
//!   plus one items vector.
//! * **Net costs** are cached: every net's HPWL is kept in a `Vec<u32>`. A
//!   move's cost before the swap is the sum of the cached costs of the nets
//!   it touches; only the cost after is recomputed, and it replaces the
//!   cached values when the move is accepted.
//!
//! Block and site draws are `next_u64() % n`, one draw each, and the uphill
//! acceptance test draws once more, so a placement is a pure function of
//! `(problem, options)`. `tests/placement_hash.rs` pins the placements of a
//! fixed problem set to one hash.

pub mod anneal;
pub mod problem;

pub use anneal::{place, place_delta, place_with, AnnealOptions, Placement};
pub use problem::{lb_of_lut, PlaceError, PlacementGrid, PlacementProblem};
