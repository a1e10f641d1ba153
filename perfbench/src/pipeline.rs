//! The compile pipeline as a user runs it, its layer-by-layer
//! reconstruction for the traced run, and the independent correctness
//! checks.

use mcfpga::area::{area_comparison, AreaParams, FabricWeights, Technology};
use mcfpga::config::{Bitstream, ColumnSetStats};
use mcfpga::map::{map_netlist, MappedNetlist};
use mcfpga::netlist::Netlist;
use mcfpga::obs::Recorder;
use mcfpga::place::{place_with, AnnealOptions, PlacementProblem};
use mcfpga::rcm::synthesize;
use mcfpga::route::{
    nets_from_placement, route_context_with, switch_columns, RoutedContext, RoutingGraph,
};
use mcfpga::sim::{CompileOptions, MultiDevice};

use crate::designs::Design;
use crate::rng::SplitMix;
use crate::trace::{SpanId, Tracer};

/// What one pass of the compile pipeline produced.
pub struct Compiled {
    pub device: MultiDevice,
    pub model: ModelOutputs,
}

/// Modelled figures of a compiled design: unvalidated against hardware,
/// and exactly repeatable for a given design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelOutputs {
    /// RCM cell area over conventional n-plane cell area, CMOS.
    pub area_ratio_cmos: f64,
    /// The same for ferroelectric pass-gates.
    pub area_ratio_fepg: f64,
    /// Routed delay of the worst context (simulated time, not host time).
    pub critical_delay: f64,
}

/// Netlists to configured device: `MultiDevice::compile_opts`, then the
/// model outputs.
pub fn compile_pipeline(design: &Design, opts: &CompileOptions) -> Result<Compiled, String> {
    let device =
        MultiDevice::compile_opts(&design.arch, &design.circuits, opts, &Recorder::disabled())
            .map_err(|e| format!("{}: compile: {e}", design.label))?;
    let model = model_outputs(&device, design);
    Ok(Compiled { device, model })
}

/// RCM decoder synthesis of every switch column of `device`, and the CMOS
/// and FePG area comparisons at the change rate those columns measure.
pub fn model_outputs(device: &MultiDevice, design: &Design) -> ModelOutputs {
    let ctx = design.arch.context_id();
    let columns = device.switch_usage().columns();
    let stats = ColumnSetStats::measure(&columns, ctx);
    let ses: u64 = columns
        .iter()
        .map(|&c| synthesize(c, ctx).cost().n_ses as u64)
        .sum();
    std::hint::black_box(ses);
    let (cmos, fepg) = area_layer(design, stats.change_rate);
    ModelOutputs {
        area_ratio_cmos: cmos,
        area_ratio_fepg: fepg,
        critical_delay: device.critical_delay(),
    }
}

fn area_layer(design: &Design, change_rate: f64) -> (f64, f64) {
    let params = AreaParams::default();
    let weights = FabricWeights::default();
    let ratio = |tech| area_comparison(&design.arch, change_rate, tech, &params, &weights).ratio;
    (ratio(Technology::Cmos), ratio(Technology::Fepg))
}

/// Counts and unit sizes from one layered reconstruction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCounts {
    pub luts: u64,
    pub blocks: u64,
    pub nets: u64,
    pub columns: u64,
    pub ses: u64,
    pub change_rate_sum: f64,
}

impl LayerCounts {
    pub fn add(&mut self, o: &LayerCounts) {
        self.luts += o.luts;
        self.blocks += o.blocks;
        self.nets += o.nets;
        self.columns += o.columns;
        self.ses += o.ses;
        self.change_rate_sum += o.change_rate_sum;
    }
}

/// Run the compile pipeline layer by layer through each crate's public
/// entry points, spanning each call: `map_netlist`, then
/// `PlacementProblem::from_mapped` + `place_with`, then
/// `nets_from_placement` + `route_context_with`, then `switch_columns`,
/// RCM synthesis and the area model. Per-context seeds and options are the
/// ones `MultiDevice::compile_opts` uses, so the switch bitstream must be
/// identical to the device's. Logic-block assembly has no public entry
/// point and is left to the caller's residual.
pub fn reconstruct(
    design: &Design,
    rec: &Recorder,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    job: u64,
) -> Result<(Bitstream, LayerCounts), String> {
    let arch = &design.arch;
    let k = arch.lut.min_inputs;
    let ctx = arch.context_id();
    let opts = CompileOptions::default();
    let err = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage}: {e}", design.label);
    let mut counts = LayerCounts::default();

    let mapped: Vec<MappedNetlist> = tracer
        .time("map", parent, job, || {
            design
                .circuits
                .iter()
                .map(|c| map_netlist(c, k))
                .collect::<Result<_, _>>()
        })
        .map_err(|e| err("map", &e))?;
    counts.luts = mapped.iter().map(|m| m.luts.len() as u64).sum();

    let graph = tracer.time("route", parent, job, || RoutingGraph::build(arch));
    let mut routed: Vec<RoutedContext> = Vec::with_capacity(mapped.len());
    for (c, m) in mapped.iter().enumerate() {
        let (problem, placement) = tracer
            .time("place", parent, job, || {
                let problem = PlacementProblem::from_mapped(m, arch)?;
                let anneal = AnnealOptions {
                    seed: 0xC0FFEE ^ c as u64,
                    ..Default::default()
                };
                let placement = place_with(&problem, &anneal, rec);
                Ok::<_, mcfpga::place::PlaceError>((problem, placement))
            })
            .map_err(|e| err("place", &e))?;
        counts.blocks += problem.n_blocks() as u64;
        let r = tracer
            .time("route", parent, job, || {
                let nets = nets_from_placement(&problem, &placement);
                route_context_with(&graph, &nets, &opts.route, rec)?.require_converged()
            })
            .map_err(|e| err("route", &e))?;
        counts.nets += r.nets.len() as u64;
        routed.push(r);
    }

    let usage = tracer.time("columns", parent, job, || {
        while routed.len() < arch.n_contexts {
            routed.push(RoutedContext {
                nets: vec![],
                trees: vec![],
                delays: vec![],
                iterations: 0,
                converged: true,
                overused_edges: 0,
                edge_occupancy: vec![],
                edge_history: vec![],
            });
        }
        switch_columns(&graph, &routed)
    });
    let bitstream = usage.to_bitstream(&graph, arch);

    let change_rate = tracer.time("rcm", parent, job, || {
        let columns = usage.columns();
        let stats = ColumnSetStats::measure(&columns, ctx);
        counts.columns = columns.len() as u64;
        counts.ses = columns
            .iter()
            .map(|&c| synthesize(c, ctx).cost().n_ses as u64)
            .sum();
        stats.change_rate
    });
    counts.change_rate_sum = change_rate;
    tracer.time("area", parent, job, || area_layer(design, change_rate));
    Ok((bitstream, counts))
}

/// Drive every context of `device` with `cycles` seeded random vectors from
/// reset and compare each output with the netlist's own `Netlist::step`,
/// so the reference never goes through the compiler under test.
pub fn check_against_netlists(
    device: &mut MultiDevice,
    circuits: &[Netlist],
    cycles: usize,
    seed: u64,
) -> Result<(), String> {
    device.check_routing()?;
    device.reset();
    let mut rng = SplitMix::new(seed);
    for (c, netlist) in circuits.iter().enumerate() {
        device
            .try_switch_context(c)
            .map_err(|e| format!("context {c}: {e}"))?;
        let mut state = netlist.initial_state();
        for cycle in 0..cycles {
            let inputs: Vec<bool> = (0..netlist.inputs().len())
                .map(|_| rng.next() & 1 == 1)
                .collect();
            let want = netlist
                .step(&inputs, &mut state)
                .map_err(|e| format!("context {c}: reference: {e}"))?;
            let got = device
                .try_step(&inputs)
                .map_err(|e| format!("context {c}: {e}"))?;
            if got != want {
                return Err(format!("context {c} cycle {cycle}: outputs diverge"));
            }
        }
    }
    device.reset();
    Ok(())
}
