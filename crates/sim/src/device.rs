//! The compiled multi-context device.

use mcfpga_arch::{ArchError, ArchSpec, ContextId, LutMode};
use mcfpga_config::{Bitstream, ColumnSetStats};
use mcfpga_lut::{AdaptiveLogicBlock, LocalSizeController, SizeControl, TruthTable};
use mcfpga_map::{
    map_workload, share_workload, MapError, MappedNetlist, MappedSource, SharedDesign,
};
use mcfpga_netlist::Netlist;
use mcfpga_obs::Recorder;
use mcfpga_place::{lb_of_lut, place, AnnealOptions, PlaceError, Placement, PlacementProblem};
use mcfpga_route::{
    nets_from_placement, route_context, switch_columns, RouteError, RouteOptions, RoutedContext,
    RoutingGraph, SwitchUsage,
};

use crate::faults::LutFault;
use crate::kernel::{self, CompiledKernel, KernelScratch, LANES};
use crate::multi::SimError;
use crate::optimize::KernelOptions;

/// Compile-flow failure.
#[derive(Debug)]
pub enum CompileError {
    Map(MapError),
    Place(PlaceError),
    Route(RouteError),
    /// The workload needs more planes somewhere than the LUT pool offers.
    PlaneOverflow {
        lb: usize,
        needed: usize,
        available: usize,
    },
    /// Workloads must contain at least one context.
    EmptyWorkload,
    /// The architecture failed [`ArchSpec::validate`].
    InvalidArch(ArchError),
    /// The workload has more circuits than the device has contexts.
    TooManyCircuits {
        circuits: usize,
        contexts: usize,
    },
    /// A cancellation hook (see [`crate::MultiDevice::compile_delta`])
    /// reported the budget exhausted between per-context compile phases;
    /// the partial result was discarded.
    DeadlineExceeded,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Map(e) => write!(f, "mapping failed: {e}"),
            CompileError::Place(e) => write!(f, "placement failed: {e}"),
            CompileError::Route(e) => write!(f, "routing failed: {e}"),
            CompileError::PlaneOverflow {
                lb,
                needed,
                available,
            } => write!(
                f,
                "logic block {lb} needs {needed} planes but the pool offers {available}"
            ),
            CompileError::EmptyWorkload => write!(f, "workload has no contexts"),
            CompileError::InvalidArch(e) => write!(f, "invalid architecture: {e}"),
            CompileError::TooManyCircuits { circuits, contexts } => write!(
                f,
                "workload has {circuits} circuits but the device has {contexts} contexts"
            ),
            CompileError::DeadlineExceeded => {
                write!(f, "compile cancelled: deadline exceeded between contexts")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ArchError> for CompileError {
    fn from(e: ArchError) -> Self {
        CompileError::InvalidArch(e)
    }
}

impl From<MapError> for CompileError {
    fn from(e: MapError) -> Self {
        CompileError::Map(e)
    }
}

impl From<PlaceError> for CompileError {
    fn from(e: PlaceError) -> Self {
        CompileError::Place(e)
    }
}

impl From<RouteError> for CompileError {
    fn from(e: RouteError) -> Self {
        CompileError::Route(e)
    }
}

/// Reject an invalid architecture, or a workload of more circuits than it
/// has contexts, before any compile work starts.
pub(crate) fn check_workload_fits(arch: &ArchSpec, circuits: usize) -> Result<(), CompileError> {
    arch.validate()?;
    if circuits > arch.n_contexts {
        return Err(CompileError::TooManyCircuits {
            circuits,
            contexts: arch.n_contexts,
        });
    }
    Ok(())
}

/// Summary statistics of a compiled device, consumed by the experiments.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// The LUT input count the workload was mapped at (Fig. 12 mode).
    pub granularity: usize,
    pub n_luts: usize,
    pub n_lbs: usize,
    pub mean_planes: f64,
    pub plane_histogram: Vec<usize>,
    pub controller_ses: usize,
    pub switch_stats: ColumnSetStats,
    pub routing_iterations: usize,
    pub critical_delay: f64,
}

/// Word-level (64-lane) simulation state carried alongside the scalar
/// state. Lane 0 always mirrors the scalar registers; the remaining lanes
/// are independent stimulus streams that exist only between batched steps.
#[derive(Default)]
struct BatchLanes {
    /// Lane-parallel register words.
    regs: Vec<u64>,
    /// Lane-parallel previous LUT values (toggle accounting).
    prev_lut_words: Vec<u64>,
    scratch: KernelScratch,
    /// False whenever the scalar state has moved since the last batched
    /// step; the next batched step re-broadcasts it to every lane.
    synced: bool,
}

/// A compiled, runnable multi-context device.
pub struct Device {
    arch: ArchSpec,
    ctx: ContextId,
    shared: SharedDesign,
    /// Per-context mapped netlists (aligned).
    mapped: Vec<MappedNetlist>,
    /// One adaptive logic block per LB site used.
    lbs: Vec<AdaptiveLogicBlock>,
    /// LUT position -> (lb, output slot).
    slot_of: Vec<(usize, usize)>,
    /// Register state (device-wide; survives context switches).
    state: Vec<bool>,
    active: usize,
    /// Signal-activity accounting: previous LUT values, toggles, cycles.
    prev_lut_vals: Vec<bool>,
    toggles: u64,
    cycles: u64,
    placement: Placement,
    problem: PlacementProblem,
    graph: RoutingGraph,
    routed: RoutedContext,
    usage: SwitchUsage,
    /// Per-context compiled kernels tagged with the configuration epoch
    /// they snapshot; rebuilt lazily when stale.
    kernels: Vec<Option<(u64, CompiledKernel)>>,
    /// Bumped on every configuration mutation (fault injection,
    /// reprogramming) so cached kernels invalidate.
    config_epoch: u64,
    /// Kernel lowering knobs; [`Device::ensure_kernel`] rebuilds cached
    /// kernels whose optimization variant no longer matches.
    kernel_options: KernelOptions,
    batch: BatchLanes,
    /// Scalar hot-path scratch, persistent across cycles.
    scratch_lut_vals: Vec<bool>,
    scratch_in_bits: Vec<bool>,
    scratch_next: Vec<bool>,
    /// Observability sink; disabled (no-op) unless attached.
    recorder: Recorder,
}

impl Device {
    /// Compile a workload (one netlist per context, aligned structure) onto
    /// an architecture, mapping at the smallest LUT granularity so the
    /// maximum plane count is available everywhere.
    pub fn compile(arch: &ArchSpec, workload: &[Netlist]) -> Result<Device, CompileError> {
        Self::compile_at_granularity(arch, workload, arch.lut.min_inputs)
    }

    /// Adaptive granularity (the Fig. 12 trade, made automatically): try
    /// the *largest* LUT size first — fewer, bigger LUTs but fewer planes —
    /// and fall back towards `min_inputs` until every logic block's plane
    /// demand fits the pool. Workloads whose contexts share heavily compile
    /// at large `k`; divergent workloads need the full plane count and land
    /// at `min_inputs`.
    pub fn compile_adaptive(arch: &ArchSpec, workload: &[Netlist]) -> Result<Device, CompileError> {
        let mut last_err = None;
        for k in (arch.lut.min_inputs..=arch.lut.max_inputs).rev() {
            match Self::compile_at_granularity(arch, workload, k) {
                Ok(dev) => return Ok(dev),
                Err(e @ CompileError::PlaneOverflow { .. }) => last_err = Some(e),
                Err(other) => return Err(other),
            }
        }
        Err(last_err.expect("min_inputs attempt ran"))
    }

    /// Compile mapping at a specific LUT input count `k`
    /// (`min_inputs ..= max_inputs`); the plane budget is what the pool
    /// leaves: `2^(max_inputs - k)`.
    pub fn compile_at_granularity(
        arch: &ArchSpec,
        workload: &[Netlist],
        k: usize,
    ) -> Result<Device, CompileError> {
        assert!(
            (arch.lut.min_inputs..=arch.lut.max_inputs).contains(&k),
            "granularity {k} outside the pool's mode range"
        );
        if workload.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        check_workload_fits(arch, workload.len())?;
        let ctx = arch.context_id();
        let n_contexts = arch.n_contexts;
        // Pad the workload by repeating the last context so every device
        // context is programmed.
        let mut contexts: Vec<Netlist> = workload.to_vec();
        while contexts.len() < n_contexts {
            contexts.push(contexts.last().expect("non-empty").clone());
        }

        let mapped = map_workload(&contexts, k)?;
        let shared = share_workload(&mapped);

        // Build logic blocks: positions pack `outputs` per block; an LB's
        // plane map groups contexts by the tuple of its slots' tables.
        let outs = arch.lut.outputs;
        let n_lbs = shared.luts.len().div_ceil(outs).max(1);
        let p_max = 1usize << (arch.lut.max_inputs - k);
        let mode = LutMode {
            inputs: k,
            planes: p_max,
        };
        let mut lbs: Vec<AdaptiveLogicBlock> = Vec::with_capacity(n_lbs);
        let mut slot_of = Vec::with_capacity(shared.luts.len());
        for (i, _) in shared.luts.iter().enumerate() {
            slot_of.push((lb_of_lut(i, outs), i % outs));
        }
        for lb_index in 0..n_lbs {
            let members: Vec<usize> = (0..shared.luts.len())
                .filter(|&i| lb_of_lut(i, outs) == lb_index)
                .collect();
            // Group contexts by the tuple of member tables.
            let mut groups: Vec<(Vec<u64>, Vec<usize>)> = Vec::new();
            for c in 0..n_contexts {
                let key: Vec<u64> = members
                    .iter()
                    .map(|&i| {
                        let l = &shared.luts[i];
                        l.planes[l.plane_of_context[c]].table
                    })
                    .collect();
                match groups.iter_mut().find(|(k2, _)| *k2 == key) {
                    Some((_, ctxs)) => ctxs.push(c),
                    None => groups.push((key, vec![c])),
                }
            }
            if groups.len() > p_max {
                return Err(CompileError::PlaneOverflow {
                    lb: lb_index,
                    needed: groups.len(),
                    available: p_max,
                });
            }
            let mut plane_of_context = vec![0usize; n_contexts];
            for (p, (_, ctxs)) in groups.iter().enumerate() {
                for &c in ctxs {
                    plane_of_context[c] = p;
                }
            }
            let controller = LocalSizeController::new(ctx, &plane_of_context, mode);
            let mut lb = AdaptiveLogicBlock::new(arch.lut, mode, SizeControl::Local(controller))
                .expect("mode fits geometry");
            for (p, (key, _)) in groups.iter().enumerate() {
                for (slot, &i) in members.iter().enumerate() {
                    let _ = i;
                    let table = TruthTable::from_packed(mode.inputs, key[slot]);
                    lb.program(slot, p, &table);
                }
            }
            lbs.push(lb);
        }

        // Place once (shared structure) and route once; every context uses
        // the same routes because the netlist structure is shared.
        let problem = PlacementProblem::from_mapped(&mapped[0], arch)?;
        let placement = place(&problem, &AnnealOptions::default());
        let graph = RoutingGraph::build(arch);
        let nets = nets_from_placement(&problem, &placement);
        let routed = route_context(&graph, &nets, &RouteOptions::default())?.require_converged()?;
        let per_context: Vec<RoutedContext> = vec![routed.clone(); n_contexts];
        let usage = switch_columns(&graph, &per_context);

        let state = mapped[0].initial_state().bits;
        let n_positions = shared.luts.len();
        Ok(Device {
            arch: arch.clone(),
            ctx,
            shared,
            mapped,
            lbs,
            slot_of,
            state,
            active: 0,
            placement,
            problem,
            graph,
            routed,
            usage,
            prev_lut_vals: vec![false; n_positions],
            toggles: 0,
            cycles: 0,
            kernels: vec![None; n_contexts],
            config_epoch: 0,
            // Batched steps count per-LUT toggles: keep LUT positions.
            kernel_options: KernelOptions::default().with_optimize(false),
            batch: BatchLanes::default(),
            scratch_lut_vals: Vec::new(),
            scratch_in_bits: Vec::new(),
            scratch_next: Vec::new(),
            recorder: Recorder::disabled(),
        })
    }

    /// Route simulation telemetry (`sim_kernel_build` spans, `sim.cycles` /
    /// `sim.words` counters) into `rec` for all later stepping.
    pub fn attach_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    /// The architecture this device was compiled for.
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// The currently active context.
    pub fn active_context(&self) -> usize {
        self.active
    }

    /// Switch the active context (takes effect on the next evaluation —
    /// fast context switching is the MC-FPGA's raison d'être).
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`Device::try_switch_context`]; use the fallible form on serving
    /// paths that must survive bad input.
    #[inline]
    pub fn switch_context(&mut self, context: usize) {
        self.try_switch_context(context)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Switch the active context, reporting an out-of-range index in-band.
    pub fn try_switch_context(&mut self, context: usize) -> Result<(), SimError> {
        if context >= self.ctx.n_contexts() {
            return Err(SimError::ContextNotProgrammed {
                context,
                programmed: self.ctx.n_contexts(),
            });
        }
        self.active = context;
        Ok(())
    }

    /// One clock cycle in the active context.
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`Device::try_step`]; use the fallible form on serving paths that
    /// must survive bad input.
    #[inline]
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        self.try_step(inputs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// One clock cycle in the active context, reporting an input-arity
    /// mismatch in-band instead of aborting the process.
    pub fn try_step(&mut self, inputs: &[bool]) -> Result<Vec<bool>, SimError> {
        if inputs.len() != self.mapped[self.active].n_inputs {
            return Err(SimError::InputArity {
                context: self.active,
                expected: self.mapped[self.active].n_inputs,
                got: inputs.len(),
            });
        }
        // Evaluate LUT positions in topological (emission) order, but pull
        // each value through the physical logic block hardware model. All
        // scratch is persistent — the only allocation left on this path is
        // the returned output vector.
        let mut lut_vals = std::mem::take(&mut self.scratch_lut_vals);
        let mut in_bits = std::mem::take(&mut self.scratch_in_bits);
        lut_vals.clear();
        lut_vals.resize(self.shared.luts.len(), false);
        for i in 0..self.shared.luts.len() {
            let srcs = &self.shared.luts[i].inputs;
            in_bits.clear();
            in_bits.extend(srcs.iter().map(|s| self.resolve(*s, inputs, &lut_vals)));
            let (lb, slot) = self.slot_of[i];
            lut_vals[i] = self.lbs[lb].output(self.ctx, self.active, &in_bits, slot);
        }
        let m = &self.mapped[self.active];
        let outs: Vec<bool> = m
            .outputs
            .iter()
            .map(|(_, s)| self.resolve(*s, inputs, &lut_vals))
            .collect();
        let mut next = std::mem::take(&mut self.scratch_next);
        next.clear();
        next.extend(
            self.mapped[self.active]
                .dffs
                .iter()
                .map(|d| self.resolve(d.d, inputs, &lut_vals)),
        );
        std::mem::swap(&mut self.state, &mut next);
        self.scratch_next = next;
        // Signal-activity accounting (dynamic-power proxy): LUT-output
        // toggles against the previous cycle, context switches included.
        self.toggles += lut_vals
            .iter()
            .zip(&self.prev_lut_vals)
            .filter(|(a, b)| a != b)
            .count() as u64;
        std::mem::swap(&mut self.prev_lut_vals, &mut lut_vals);
        self.scratch_lut_vals = lut_vals;
        self.scratch_in_bits = in_bits;
        self.cycles += 1;
        self.recorder.incr("sim.cycles", 1);
        self.batch.synced = false;
        Ok(outs)
    }

    /// One clock edge over [`LANES`] independent stimulus lanes: bit `l` of
    /// every input, output, and register word is one complete stimulus
    /// stream. Lane 0 is bit-for-bit the scalar path (and is written back to
    /// the scalar state after every batched step, so scalar and batched
    /// stepping interleave coherently).
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`Device::try_step_batch`].
    #[inline]
    pub fn step_batch(&mut self, inputs: &[u64]) -> Vec<u64> {
        self.try_step_batch(inputs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`Device::step_batch`], reporting an input-arity mismatch in-band.
    pub fn try_step_batch(&mut self, inputs: &[u64]) -> Result<Vec<u64>, SimError> {
        let mut out = Vec::new();
        self.try_step_batch_into(inputs, &mut out)?;
        Ok(out)
    }

    /// Allocation-free batched step: `out` is cleared and refilled with one
    /// word per primary output.
    pub fn try_step_batch_into(
        &mut self,
        inputs: &[u64],
        out: &mut Vec<u64>,
    ) -> Result<(), SimError> {
        let c = self.active;
        let n_inputs = self.mapped[c].n_inputs;
        if inputs.len() != n_inputs {
            return Err(SimError::InputArity {
                context: c,
                expected: n_inputs,
                got: inputs.len(),
            });
        }
        self.ensure_kernel(c);
        if !self.batch.synced {
            // The scalar state moved since the last batched step: every
            // lane resumes from the same (scalar) registers.
            kernel::broadcast(&self.state, &mut self.batch.regs);
            kernel::broadcast(&self.prev_lut_vals, &mut self.batch.prev_lut_words);
            self.batch.synced = true;
        }
        let kernel = &self.kernels[c].as_ref().expect("kernel built above").1;
        let optimized = kernel.optimized();
        kernel.step(inputs, &mut self.batch.regs, &mut self.batch.scratch, out);
        if !optimized {
            // Toggle accounting across all lanes: popcount of per-word XORs,
            // so a batched run counts exactly the sum of its lanes' scalar
            // toggles. Optimized kernels reorder and drop instructions, so
            // their words no longer align position-for-position with the
            // mapped LUTs — activity accounting pauses while they run (see
            // [`Device::set_kernel_options`]).
            let cur = self.batch.scratch.lut_words();
            for (p, &w) in self.batch.prev_lut_words.iter_mut().zip(cur) {
                self.toggles += (*p ^ w).count_ones() as u64;
                *p = w;
            }
            kernel::extract_lane(&self.batch.prev_lut_words, 0, &mut self.prev_lut_vals);
        }
        self.cycles += LANES as u64;
        // Lane 0 writes back so the scalar view stays coherent.
        kernel::extract_lane(&self.batch.regs, 0, &mut self.state);
        self.recorder.incr("sim.words", 1);
        self.recorder.incr("sim.cycles", LANES as u64);
        Ok(())
    }

    /// Build (or reuse) the compiled kernel for `context`. Kernels snapshot
    /// the configuration: any mutation through [`Device::lb_mut`] bumps the
    /// epoch, and stale kernels rebuild here before their next use.
    fn ensure_kernel(&mut self, context: usize) {
        let want = self.kernel_options.optimize;
        if let Some((epoch, k)) = &self.kernels[context] {
            if *epoch == self.config_epoch && k.optimized() == want {
                return;
            }
        }
        let _span = self.recorder.span("sim_kernel_build");
        let mut kernel = self.build_kernel(context);
        if want {
            kernel = kernel.optimize();
        }
        self.kernels[context] = Some((self.config_epoch, kernel));
    }

    /// The kernel lowering knobs batched stepping compiles with.
    pub fn kernel_options(&self) -> KernelOptions {
        self.kernel_options
    }

    /// Change the kernel lowering knobs. Cached kernels whose optimization
    /// variant no longer matches rebuild lazily on their next use; the
    /// configuration epoch is untouched, so an unchanged variant keeps its
    /// cache. While an *optimized* kernel runs, batched steps skip LUT
    /// toggle accounting ([`Device::toggles`] freezes): eliminated and
    /// reordered instructions no longer align with mapped LUT positions.
    pub fn set_kernel_options(&mut self, options: KernelOptions) {
        self.kernel_options = options;
    }

    /// Lower `context` to a fresh instruction stream: the mapped netlist
    /// gives sources and emission (= topological) order, the logic blocks
    /// give each position's active plane and its packed truth table as the
    /// hardware currently holds it — faults included.
    pub(crate) fn build_kernel(&self, context: usize) -> CompiledKernel {
        let m = &self.mapped[context];
        CompiledKernel::build(
            m.n_inputs,
            self.state.len(),
            self.shared.luts.iter().enumerate().map(|(i, l)| {
                let (lb, slot) = self.slot_of[i];
                let block = &self.lbs[lb];
                let plane = block.active_plane(self.ctx, context);
                (l.inputs.as_slice(), block.plane_packed(slot, plane))
            }),
            m.outputs.iter().map(|(_, s)| *s),
            m.dffs.iter().map(|d| d.d),
        )
    }

    /// Clone every context's compiled kernel (building stale ones), for
    /// consumers that run many configuration variants in parallel — the
    /// fault campaign flips table bits on clones instead of mutating the
    /// device. Always *unoptimized*: campaign fault sites address
    /// pre-optimization LUT positions, so when the device is configured to
    /// optimize these are lowered fresh instead of read from the cache.
    pub(crate) fn compiled_kernels(&mut self) -> Vec<CompiledKernel> {
        (0..self.ctx.n_contexts())
            .map(|c| {
                if self.kernel_options.optimize {
                    return self.build_kernel(c);
                }
                self.ensure_kernel(c);
                self.kernels[c]
                    .as_ref()
                    .expect("kernel built above")
                    .1
                    .clone()
            })
            .collect()
    }

    /// Every `(context, LUT position)` whose compiled-kernel table images
    /// the given LUT-memory fault: positions mapped onto
    /// (`fault.lb`, `fault.output`) in contexts whose active plane is
    /// `fault.plane`.
    pub(crate) fn fault_kernel_sites(&self, fault: &LutFault) -> Vec<(usize, usize)> {
        let mut sites = Vec::new();
        for (i, &(lb, slot)) in self.slot_of.iter().enumerate() {
            if lb != fault.lb || slot != fault.output {
                continue;
            }
            for c in 0..self.ctx.n_contexts() {
                if self.lbs[lb].active_plane(self.ctx, c) == fault.plane {
                    sites.push((c, i));
                }
            }
        }
        sites
    }

    /// Number of device contexts (programmed or padded).
    pub fn n_contexts(&self) -> usize {
        self.ctx.n_contexts()
    }

    /// The current register values (lane 0 of a batched run).
    pub fn registers(&self) -> &[bool] {
        &self.state
    }

    /// Lane-cycles simulated since the last reset (a batched word counts
    /// [`LANES`]).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total LUT-output toggles since the last reset, summed over lanes.
    pub fn toggles(&self) -> u64 {
        self.toggles
    }

    /// Mean LUT-output toggles per signal per cycle since the last reset —
    /// the activity factor a dynamic-power estimate multiplies with.
    pub fn toggle_rate(&self) -> f64 {
        if self.cycles == 0 || self.prev_lut_vals.is_empty() {
            return 0.0;
        }
        self.toggles as f64 / (self.cycles as f64 * self.prev_lut_vals.len() as f64)
    }

    /// Configuration bits that change when switching `from` -> `to`
    /// (switch columns only): what a context switch costs dynamically.
    pub fn context_switch_toggles(&self, from: usize, to: usize) -> usize {
        self.usage
            .columns()
            .iter()
            .filter(|c| c.value_in(from) != c.value_in(to))
            .count()
    }

    fn resolve(&self, src: MappedSource, inputs: &[bool], lut_vals: &[bool]) -> bool {
        match src {
            MappedSource::Input(i) => inputs[i],
            MappedSource::Register(r) => self.state[r],
            MappedSource::Lut(l) => lut_vals[l],
            MappedSource::Const(c) => c,
        }
    }

    /// Reset all registers to their initial values and clear the activity
    /// counters.
    pub fn reset(&mut self) {
        self.state = self.mapped[0].initial_state().bits;
        self.prev_lut_vals.iter_mut().for_each(|b| *b = false);
        self.toggles = 0;
        self.cycles = 0;
        self.batch.synced = false;
    }

    /// Verify that every placed net is connected through switch state in
    /// every context: breadth-first search over cells using only switches
    /// that conduct in that context.
    pub fn check_routing(&self) -> Result<(), String> {
        use std::collections::{HashSet, VecDeque};
        let nets = nets_from_placement(&self.problem, &self.placement);
        for context in 0..self.ctx.n_contexts() {
            // Collect conducting edges once.
            let mut on: HashSet<usize> = HashSet::new();
            for (&(edge, _t), &mask) in &self.usage.switches {
                if (mask >> context) & 1 == 1 {
                    on.insert(edge);
                }
            }
            for (ni, net) in nets.iter().enumerate() {
                let start = self.graph.node(net.source);
                let mut seen = HashSet::new();
                seen.insert(start);
                let mut q = VecDeque::from([start]);
                while let Some(node) = q.pop_front() {
                    for &e in self.graph.incident(node) {
                        if !on.contains(&e) {
                            continue;
                        }
                        let next = self.graph.other_end(e, node);
                        if seen.insert(next) {
                            q.push_back(next);
                        }
                    }
                }
                for &sink in &net.sinks {
                    if !seen.contains(&self.graph.node(sink)) {
                        return Err(format!(
                            "net {ni} sink {sink} unreachable in context {context}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The routing-switch bitstream of this device.
    pub fn switch_bitstream(&self) -> Bitstream {
        self.usage.to_bitstream(&self.graph, &self.arch)
    }

    /// Compile-quality report for the experiments.
    pub fn report(&self) -> CompileReport {
        CompileReport {
            granularity: self.shared.k,
            n_luts: self.shared.luts.len(),
            n_lbs: self.lbs.len(),
            mean_planes: self.shared.mean_planes(),
            plane_histogram: self.shared.plane_histogram(),
            controller_ses: self.lbs.iter().map(|l| l.controller_se_cost()).sum(),
            switch_stats: ColumnSetStats::measure(&self.usage.columns(), self.ctx),
            routing_iterations: self.routed.iterations,
            critical_delay: self.routed.critical_delay(),
        }
    }

    /// Number of physical logic blocks in use.
    pub fn n_lbs(&self) -> usize {
        self.lbs.len()
    }

    /// The LUT mode every logic block runs in.
    pub fn lb_mode(&self) -> LutMode {
        self.lbs.first().map(|lb| lb.mode()).unwrap_or(LutMode {
            inputs: self.arch.lut.min_inputs,
            planes: 1,
        })
    }

    /// Mutable logic-block access (fault injection). Any access is assumed
    /// to mutate configuration, so cached compiled kernels invalidate.
    pub(crate) fn lb_mut(&mut self, lb: usize) -> &mut AdaptiveLogicBlock {
        self.config_epoch += 1;
        &mut self.lbs[lb]
    }

    /// The shared design (for the area model).
    pub fn shared_design(&self) -> &SharedDesign {
        &self.shared
    }

    /// Per-switch usage (for the area model).
    pub fn switch_usage(&self) -> &SwitchUsage {
        &self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_netlist::{library, workload, RandomNetlistParams};

    fn arch() -> ArchSpec {
        ArchSpec::paper_default()
    }

    #[test]
    fn compile_and_run_single_circuit() {
        let add = library::adder(4);
        let mut dev = Device::compile(&arch(), std::slice::from_ref(&add)).unwrap();
        dev.check_routing().unwrap();
        // 3 + 5 = 8 with carry bit.
        let mut inputs = vec![true, true, false, false]; // a = 3
        inputs.extend([true, false, true, false]); // b = 5
        inputs.push(false); // cin
        let out = dev.step(&inputs);
        let sum: u64 = out[..4]
            .iter()
            .enumerate()
            .map(|(i, &b)| (b as u64) << i)
            .sum();
        let carry = out[4];
        assert_eq!(sum + ((carry as u64) << 4), 8);
    }

    #[test]
    fn context_switching_changes_behaviour() {
        let w = workload(
            RandomNetlistParams {
                n_inputs: 6,
                n_gates: 40,
                n_outputs: 4,
                dff_fraction: 0.0,
            },
            4,
            0.5,
            77,
        );
        let mut dev = Device::compile(&arch(), &w).unwrap();
        let inputs = vec![true, false, true, true, false, true];
        let mut outs = Vec::new();
        for c in 0..4 {
            dev.switch_context(c);
            outs.push(dev.step(&inputs));
        }
        // With a 50% change rate, at least one pair of contexts must differ.
        assert!(
            outs.windows(2).any(|w| w[0] != w[1]),
            "contexts produced identical outputs: {outs:?}"
        );
    }

    #[test]
    fn registers_survive_context_switches() {
        let cnt = library::counter(4);
        let mut dev = Device::compile(&arch(), &[cnt.clone(), cnt]).unwrap();
        // Count three times in context 0.
        for _ in 0..3 {
            dev.step(&[true]);
        }
        // Switch to context 1 (same counter) and read: state continues.
        dev.switch_context(1);
        let out = dev.step(&[false]); // hold
        let v: u64 = out.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum();
        assert_eq!(v, 3, "register state crossed the context switch");
    }

    #[test]
    fn report_is_coherent() {
        let w = workload(RandomNetlistParams::default(), 4, 0.05, 5);
        let dev = Device::compile(&arch(), &w).unwrap();
        let r = dev.report();
        assert!(r.n_luts > 0);
        assert_eq!(r.plane_histogram.iter().sum::<usize>(), r.n_luts);
        assert!(r.mean_planes >= 1.0 && r.mean_planes <= 4.0);
        assert!(r.switch_stats.n_columns > 0);
        assert!(r.critical_delay > 0.0);
        // 5% change keeps most planes shared.
        assert!(r.mean_planes < 2.0, "mean planes {}", r.mean_planes);
    }

    #[test]
    fn adaptive_granularity_grows_with_sharing() {
        let arch = ArchSpec::paper_default();
        // Identical contexts: one plane suffices everywhere, so the
        // adaptive compile lands at the largest LUT size (6).
        let circuit = library::alu(4);
        let shared_dev = Device::compile_adaptive(&arch, &vec![circuit.clone(); 4]).unwrap();
        assert_eq!(shared_dev.report().granularity, 6);
        // And uses fewer LUTs than the fixed k=4 compile.
        let fixed = Device::compile(&arch, &vec![circuit.clone(); 4]).unwrap();
        assert!(shared_dev.report().n_luts < fixed.report().n_luts);

        // Divergent contexts need planes and fall back towards k=4.
        let w = workload(
            RandomNetlistParams {
                n_inputs: 6,
                n_gates: 50,
                n_outputs: 5,
                dff_fraction: 0.0,
            },
            4,
            0.5,
            3,
        );
        let divergent = Device::compile_adaptive(&arch, &w).unwrap();
        assert!(divergent.report().granularity < 6);
    }

    #[test]
    fn adaptive_devices_stay_equivalent() {
        let arch = ArchSpec::paper_default();
        let contexts = vec![library::popcount(6); 4];
        let mut dev = Device::compile_adaptive(&arch, &contexts).unwrap();
        crate::equivalence::check_device_equivalence(&mut dev, &contexts, 40, 9).unwrap();
    }

    #[test]
    fn empty_workload_is_rejected() {
        assert!(matches!(
            Device::compile(&arch(), &[]),
            Err(CompileError::EmptyWorkload)
        ));
    }

    #[test]
    fn reset_restores_initial_state() {
        let cnt = library::counter(3);
        let mut dev = Device::compile(&arch(), &[cnt]).unwrap();
        dev.step(&[true]);
        dev.step(&[true]);
        dev.reset();
        let out = dev.step(&[false]);
        assert!(out.iter().all(|&b| !b), "counter back at zero");
    }
}

#[cfg(test)]
mod activity_tests {
    use super::*;
    use mcfpga_netlist::library;

    #[test]
    fn toggle_rate_tracks_activity() {
        let arch = ArchSpec::paper_default();
        let contexts = vec![library::parity(8); 4];
        let mut dev = Device::compile(&arch, &contexts).unwrap();
        // Constant inputs: after the first cycle nothing toggles.
        for _ in 0..10 {
            dev.step(&[false; 8]);
        }
        let quiet = dev.toggle_rate();
        dev.reset();
        // Pseudo-random inputs: the XOR tree churns.
        let mut lfsr = 0xACE1u16;
        for _ in 0..40 {
            let inputs: Vec<bool> = (0..8).map(|i| (lfsr >> i) & 1 == 1).collect();
            dev.step(&inputs);
            let bit = (lfsr ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1;
            lfsr = (lfsr >> 1) | (bit << 15);
        }
        let busy = dev.toggle_rate();
        assert!(busy > quiet, "busy {busy} vs quiet {quiet}");
        assert!(quiet < 0.1);
        assert!(busy > 0.2);
    }

    #[test]
    fn toggle_rate_is_zero_not_nan_before_any_cycle() {
        // Regression: cycles == 0 must short-circuit, never divide.
        let arch = ArchSpec::paper_default();
        let dev = Device::compile(&arch, &vec![library::parity(4); 2]).unwrap();
        let rate = dev.toggle_rate();
        assert!(!rate.is_nan(), "zero-cycle device produced NaN");
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn toggle_rate_is_zero_not_nan_on_a_lut_less_device() {
        // A pure-passthrough netlist maps to zero LUTs; with cycles > 0 the
        // rate divides by the LUT count, which must be guarded too. Covers
        // both the scalar and batched accounting paths (shared counters).
        let arch = ArchSpec::paper_default();
        let mut wire = mcfpga_netlist::Netlist::new("wire");
        let a = wire.input("a");
        wire.output("y", a);
        let mut dev = Device::compile(&arch, &vec![wire; 2]).unwrap();
        let out = dev.step(&[true]);
        assert_eq!(out, vec![true]);
        dev.step_batch(&[u64::MAX]);
        let rate = dev.toggle_rate();
        assert!(!rate.is_nan(), "LUT-less device produced NaN");
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn context_switch_toggles_match_column_changes() {
        let arch = ArchSpec::paper_default();
        let contexts = vec![library::adder(4); 4];
        let dev = Device::compile(&arch, &contexts).unwrap();
        // Identical contexts: switching costs zero configuration toggles.
        assert_eq!(dev.context_switch_toggles(0, 3), 0);
        assert_eq!(dev.context_switch_toggles(1, 2), 0);
    }
}
