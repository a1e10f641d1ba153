#![allow(clippy::needless_range_loop)]
//! The compiled multi-context device: one fabric runtime for the two kinds
//! of workload the paper's MC-FPGA runs.
//!
//! * **Aligned** ([`MultiDevice::compile_aligned`],
//!   [`MultiDevice::compile_adaptive`]): one netlist per context, all
//!   sharing one structure (Figs. 12–14). The workload is mapped with one
//!   shared cover, placed and routed once, and every context reads and
//!   writes one register file, so state survives context switches.
//! * **Heterogeneous** ([`MultiDevice::compile`] and its variants): one
//!   independent circuit per context, time-multiplexed on one fabric — the
//!   paper's motivating DPGA use case ("sequentially configured as
//!   different processors in real time"). Each context is mapped, placed
//!   and routed on its own and owns its register file. Routing switches
//!   genuinely differ between contexts, so the extracted configuration
//!   columns exhibit the real mixed statistics of Table 1.
//!
//! Both flows end in the same assembly: the physical logic blocks collect,
//! per site, the truth tables each context put there, and contexts that
//! agree on all of a block's tables share one plane.

use std::collections::HashMap;

use mcfpga_arch::{ArchSpec, ContextId, LutMode};
use mcfpga_config::{Bitstream, ColumnSetStats};
use mcfpga_lut::{AdaptiveLogicBlock, LocalSizeController, SizeControl, TruthTable};
use mcfpga_map::{map_netlist, map_workload, MappedNetlist, MappedSource};
use mcfpga_netlist::Netlist;
use mcfpga_obs::Recorder;
use mcfpga_place::{
    lb_of_lut, place, place_delta, place_with, AnnealOptions, Placement, PlacementProblem,
};
use mcfpga_route::{
    nets_from_placement, route_context, route_context_delta, route_context_with, switch_columns,
    RouteOptions, RoutedContext, RoutingGraph, SwitchUsage,
};

use crate::error::{check_workload_fits, CompileError};
use crate::faults::LutFault;
use crate::kernel::{self, CompiledKernel, Isa, KernelScratch, LANES};
use crate::observe::{
    self, ActivityCensus, ActivityReport, ContextProbes, ProbeCapture, ProbeSet, ReconfigEnergy,
};
use crate::optimize::{KernelOptions, OptimizeStats};
use serde::{Deserialize, Serialize};

/// Compile-pipeline knobs.
///
/// Marked `#[non_exhaustive]`: construct via [`CompileOptions::default`]
/// and the `with_*` builders so future knobs stay non-breaking.
///
/// ```
/// use mcfpga_sim::CompileOptions;
/// let opts = CompileOptions::default().with_parallel(false);
/// assert!(!opts.parallel);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct CompileOptions {
    /// Fan the per-context map/place/route work out across scoped threads:
    /// one per programmed context, capped at `available_parallelism` (see
    /// [`CompileOptions::resolved_workers`]). Contexts are fully independent — each
    /// gets its own derived annealing seed and its own routing pass on the
    /// shared (immutable) graph — and results are merged back in context
    /// order, so the compiled device is bit-for-bit identical to the serial
    /// path.
    pub parallel: bool,
    /// Router knobs applied to every context.
    pub route: RouteOptions,
    /// Simulation-kernel lowering knobs (optimizer pass). Unlike `parallel`,
    /// these *do* change the compiled artifact (the kernel instruction
    /// stream), so the serving layer folds them into the design fingerprint.
    pub kernel: KernelOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            parallel: true,
            route: RouteOptions::default(),
            kernel: KernelOptions::default(),
        }
    }
}

impl CompileOptions {
    /// Fan the per-context compile out across scoped threads (default on).
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Router knobs applied to every context.
    pub fn with_route(mut self, route: RouteOptions) -> Self {
        self.route = route;
        self
    }

    /// Simulation-kernel lowering knobs applied to every context.
    pub fn with_kernel_options(mut self, kernel: KernelOptions) -> Self {
        self.kernel = kernel;
        self
    }

    /// Worker threads the compile pipeline will actually use for `n_tasks`
    /// independent per-context jobs: 1 when serial, otherwise capped by both
    /// the machine's available parallelism and the task count. The
    /// `flow.parallelism` gauge reports exactly this value.
    pub fn resolved_workers(&self, n_tasks: usize) -> usize {
        if self.parallel {
            effective_workers(n_tasks)
        } else {
            1
        }
    }
}

/// Runtime failure of the compiled-device serving API ([`MultiDevice::try_step`]
/// and friends): bad caller input reported in-band instead of aborting the
/// process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The requested context index has no programmed circuit.
    ContextNotProgrammed { context: usize, programmed: usize },
    /// `step` was driven with the wrong number of primary inputs.
    InputArity {
        context: usize,
        expected: usize,
        got: usize,
    },
    /// `set_registers` was given the wrong number of register bits.
    RegisterCount {
        context: usize,
        expected: usize,
        got: usize,
    },
    /// `arm_probes` was given a signal name the context cannot resolve.
    UnknownProbe { context: usize, name: String },
    /// A throughput run asked for a chunk width the kernel dispatcher does
    /// not instantiate (see [`crate::kernel::SUPPORTED_WIDTHS`]).
    UnsupportedWidth { width: usize },
    /// A throughput run targeted a context without primary inputs: its run
    /// length is counted in input chunks, so such a context cannot stream.
    ThroughputNoInputs { context: usize },
    /// A throughput run's stimulus length is not a whole number of chunks
    /// (`n_inputs * width` words each).
    ThroughputStimulus {
        context: usize,
        chunk_words: usize,
        got: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ContextNotProgrammed {
                context,
                programmed,
            } => write!(
                f,
                "context {context} not programmed ({programmed} circuits loaded)"
            ),
            SimError::InputArity {
                context,
                expected,
                got,
            } => write!(f, "context {context} expects {expected} inputs, got {got}"),
            SimError::RegisterCount {
                context,
                expected,
                got,
            } => write!(
                f,
                "context {context} has {expected} registers, got {got} bits"
            ),
            SimError::UnknownProbe { context, name } => write!(
                f,
                "context {context} has no probe-able signal named {name:?}"
            ),
            SimError::UnsupportedWidth { width } => write!(
                f,
                "chunk width {width} unsupported (use one of {:?})",
                crate::kernel::SUPPORTED_WIDTHS
            ),
            SimError::ThroughputNoInputs { context } => write!(
                f,
                "context {context} has no primary inputs, so it cannot be \
                 streamed (a throughput run is counted in input chunks)"
            ),
            SimError::ThroughputStimulus {
                context,
                chunk_words,
                got,
            } => write!(
                f,
                "context {context} throughput stimulus must be a multiple of \
                 {chunk_words} words (n_inputs * width), got {got}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Worker threads worth spawning for `n_tasks` independent jobs: never more
/// than the machine exposes, never more than there are jobs.
pub(crate) fn effective_workers(n_tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(n_tasks)
}

/// Run `f(worker, task)` for every task `0..n` across up to `workers` scoped
/// threads via an atomic work queue. Workers claim tasks in nondeterministic
/// order, but the returned `Vec` is slot-indexed by task id, so callers
/// always see results in task order — the basis of the parallel compile's
/// bit-for-bit determinism. The `worker` argument is the stable index of the
/// claiming thread (0 on the serial path), so instrumentation can attribute
/// work to pool members. With `workers <= 1` this is a plain serial loop
/// (no threads spawned).
pub(crate) fn fan_out<T: Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    if workers <= 1 || n <= 1 {
        return (0..n).map(|c| f(0, c)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|s| {
        let slots = &slots;
        let next = &next;
        for w in 0..workers {
            s.spawn(move || loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n {
                    break;
                }
                let value = f(w, c);
                *slots[c].lock().unwrap() = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every slot filled once the scope joins")
        })
        .collect()
}

/// Run the per-context compile `f(worker, context)` for every context:
/// fanned across `workers` threads, or on one thread stopping at the first
/// failing context instead of computing the rest. Results come back in
/// context order, and both paths report the same first in-order error.
fn compile_contexts<T: Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize, usize) -> Result<T, CompileError> + Sync,
) -> Result<Vec<T>, CompileError> {
    if workers > 1 {
        fan_out(n, workers, f).into_iter().collect()
    } else {
        (0..n).map(|c| f(0, c)).collect()
    }
}

/// One context's intermediate compile products, retained from a finished
/// compile so a later [`MultiDevice::compile_delta`] can reuse them. Opaque
/// outside this crate: callers obtain them from
/// [`MultiDevice::context_artifacts`] and hand references back as
/// [`DeltaSeed`]s — the equality gates that make reuse sound live inside
/// the compile pipeline, not in the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextArtifacts {
    pub(crate) mapped: MappedNetlist,
    pub(crate) problem: PlacementProblem,
    pub(crate) placement: Placement,
    pub(crate) routed: RoutedContext,
}

/// Per-context seed for [`MultiDevice::compile_delta`]: what (if anything)
/// a prior compile of this context slot left behind.
#[derive(Debug, Clone, Copy)]
pub enum DeltaSeed<'a> {
    /// No usable prior artifact: run the cold per-context pipeline.
    Cold,
    /// The circuit is byte-identical to the one `0` was compiled from
    /// (the caller vouches for this, e.g. via a per-context content hash):
    /// every artifact is reused verbatim without recomputation.
    Unchanged(&'a ContextArtifacts),
    /// The circuit changed: the context is re-mapped, and each downstream
    /// artifact is reused only when its inputs are *provably identical* to
    /// the stale compile's (placement when the placement problem is equal,
    /// routing when the derived nets are equal). Each per-context compile
    /// is a deterministic pure function of its inputs, so these equality
    /// gates keep the delta result bit-identical to a cold compile.
    Changed(&'a ContextArtifacts),
}

/// What [`MultiDevice::compile_delta`] reused versus recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Programmed contexts in the workload.
    pub contexts_total: usize,
    /// Contexts reused wholesale from an [`DeltaSeed::Unchanged`] seed.
    pub contexts_reused: usize,
    /// *Changed* contexts whose placement survived re-mapping (identical
    /// placement problem, so the stale placement is the cold answer).
    pub placements_reused: usize,
    /// *Changed* contexts whose routing survived re-placement (identical
    /// nets, so the stale routing trees are the cold answer).
    pub routes_reused: usize,
}

/// Paper-grounded quantities attached to each `context_switch` trace event:
/// per-context switch bitstreams (for bit-flip counts and measured change
/// rate), the pattern-class census of the switch columns (Figs. 3–5), and
/// the total SE decoder cost of realising them in the RCM (Fig. 9).
///
/// Built once per device, and only when the recorder is enabled, so the
/// uninstrumented `switch_context` path stays cheap.
struct ReconfigMeta {
    /// Per context: every routing switch's on/off state, in the
    /// deterministic order of [`SwitchUsage::columns`].
    state_bits: Vec<Vec<bool>>,
    n_columns: usize,
    n_constant: usize,
    n_single_bit: usize,
    n_general: usize,
    se_cost_total: u64,
}

impl ReconfigMeta {
    fn build(usage: &SwitchUsage, ctx: ContextId) -> ReconfigMeta {
        let columns = usage.columns();
        let stats = mcfpga_config::ColumnSetStats::measure(&columns, ctx);
        let se_cost_total = columns
            .iter()
            .map(|&col| mcfpga_rcm::synthesize(col, ctx).cost().n_ses as u64)
            .sum();
        let state_bits = (0..ctx.n_contexts())
            .map(|c| columns.iter().map(|col| col.value_in(c)).collect())
            .collect();
        ReconfigMeta {
            state_bits,
            n_columns: stats.n_columns,
            n_constant: stats.n_constant,
            n_single_bit: stats.n_single_bit,
            n_general: stats.n_general,
            se_cost_total,
        }
    }
}

/// Build the physical logic blocks of a design. LUT position `i` of
/// context `c` lands in the block keyed `block_of(c, i)` — a grid site, or
/// before placement the position's block index — at output slot
/// `i % outputs`. Blocks are numbered densely in first-use order. Within a
/// block, device contexts that put the same tables into its slots share one
/// plane (contexts beyond the programmed ones hold all-zero tables), and a
/// block needing more planes than the pool offers at the design's LUT size
/// is a [`CompileError::PlaneOverflow`]. Returns the blocks and, per
/// context, each LUT position's (block, slot).
#[allow(clippy::type_complexity)]
fn group_logic_blocks(
    arch: &ArchSpec,
    mapped: &[MappedNetlist],
    block_of: impl Fn(usize, usize) -> usize,
) -> Result<(Vec<AdaptiveLogicBlock>, Vec<Vec<(usize, usize)>>), CompileError> {
    let (n_contexts, outs, k) = (arch.n_contexts, arch.lut.outputs, mapped[0].k);
    let mode = LutMode {
        inputs: k,
        planes: 1 << (arch.lut.max_inputs - k),
    };
    let mut dense: HashMap<usize, usize> = HashMap::new();
    // `[block][context][slot]` truth tables.
    let mut tables: Vec<Vec<Vec<u64>>> = Vec::new();
    let mut slot_of = Vec::with_capacity(mapped.len());
    for (c, m) in mapped.iter().enumerate() {
        let mut slots = Vec::with_capacity(m.luts.len());
        for (i, lut) in m.luts.iter().enumerate() {
            let next = tables.len();
            let lb = *dense.entry(block_of(c, i)).or_insert(next);
            if lb == next {
                tables.push(vec![vec![0; outs]; n_contexts]);
            }
            tables[lb][c][i % outs] = lut.table;
            slots.push((lb, i % outs));
        }
        slot_of.push(slots);
    }
    let mut lbs = Vec::with_capacity(tables.len());
    for (lb, tables) in tables.iter().enumerate() {
        // Group contexts by their table tuple, in first-appearance order.
        let mut groups: Vec<(&[u64], Vec<usize>)> = Vec::new();
        for (c, key) in tables.iter().enumerate() {
            match groups.iter_mut().find(|(k2, _)| *k2 == key.as_slice()) {
                Some((_, cs)) => cs.push(c),
                None => groups.push((key, vec![c])),
            }
        }
        if groups.len() > mode.planes {
            return Err(CompileError::PlaneOverflow {
                lb,
                needed: groups.len(),
                available: mode.planes,
            });
        }
        let mut plane_of_context = vec![0usize; n_contexts];
        for (p, (_, cs)) in groups.iter().enumerate() {
            for &c in cs {
                plane_of_context[c] = p;
            }
        }
        let controller = LocalSizeController::new(arch.context_id(), &plane_of_context, mode);
        let mut block = AdaptiveLogicBlock::new(arch.lut, mode, SizeControl::Local(controller))
            .expect("mode fits geometry");
        for (p, (key, _)) in groups.iter().enumerate() {
            for (slot, &table) in key.iter().enumerate() {
                block.program(slot, p, &TruthTable::from_packed(k, table));
            }
        }
        lbs.push(block);
    }
    Ok((lbs, slot_of))
}

/// Summary statistics of a compiled device, consumed by the experiments.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// The LUT input count the workload was mapped at (Fig. 12 mode).
    pub granularity: usize,
    /// Physical LUT slots in use (LUT positions of an aligned design).
    pub n_luts: usize,
    pub n_lbs: usize,
    /// Mean distinct truth tables the device contexts put into one used
    /// LUT slot: the planes it needs.
    pub mean_planes: f64,
    /// `plane_histogram[p - 1]` = used LUT slots needing `p` planes.
    pub plane_histogram: Vec<usize>,
    pub controller_ses: usize,
    pub switch_stats: ColumnSetStats,
    /// PathFinder iterations of the slowest-converging context.
    pub routing_iterations: usize,
    pub critical_delay: f64,
}

/// A compiled multi-context device (see the module docs for its two
/// compile flows).
pub struct MultiDevice {
    arch: ArchSpec,
    ctx: ContextId,
    mapped: Vec<MappedNetlist>,
    problems: Vec<PlacementProblem>,
    placements: Vec<Placement>,
    routed: Vec<RoutedContext>,
    graph: RoutingGraph,
    usage: SwitchUsage,
    /// Physical logic blocks, numbered densely in first-use order (context
    /// by context, LUT position by LUT position) — the numbering
    /// [`LutFault::lb`] addresses.
    lbs: Vec<AdaptiveLogicBlock>,
    /// Per context: LUT position -> (logic block, output slot).
    slot_of: Vec<Vec<(usize, usize)>>,
    /// The register-bank rule, fixed by the compile flow: aligned contexts
    /// share one register file (bank 0), heterogeneous context `c` owns
    /// bank `c`.
    shared_registers: bool,
    /// Per-bank register state.
    states: Vec<Vec<bool>>,
    active: usize,
    /// Per-context compiled bit-parallel kernels, tagged with the
    /// configuration epoch they snapshot and built on first batched use. A
    /// cached kernel is stale when the epoch moved (fault injection) or the
    /// wanted variant changed: optimized when [`KernelOptions::optimize`] is
    /// set and no observability consumer is armed, unoptimized otherwise
    /// (probes and the census address pre-optimization LUT positions).
    kernels: Vec<Option<(u64, CompiledKernel)>>,
    /// Bumped on every configuration mutation, so cached kernels invalidate.
    config_epoch: u64,
    /// Kernel lowering knobs from the compile options (mutable afterwards
    /// via [`MultiDevice::set_kernel_options`]).
    kernel_options: KernelOptions,
    /// Per-bank lane-parallel register words; valid only while the
    /// matching `batch_synced` flag holds.
    batch_regs: Vec<Vec<u64>>,
    /// Per bank: false whenever the scalar state moved since the last
    /// batched step, forcing a re-broadcast on the next one.
    batch_synced: Vec<bool>,
    batch_scratch: KernelScratch,
    /// Scalar hot-path scratch, persistent across cycles.
    scratch_lut_vals: Vec<bool>,
    scratch_in_bits: Vec<bool>,
    scratch_next: Vec<bool>,
    /// Observability sink; disabled (no-op) unless compiled via `*_with`.
    recorder: Recorder,
    /// Lazily built on the first traced context switch (enabled recorders
    /// only); `None` forever on the uninstrumented path.
    reconfig_meta: Option<ReconfigMeta>,
    /// Per-context armed signal probes; `None` everywhere until
    /// [`MultiDevice::arm_probes`], so the batched hot path pays a single
    /// branch when probing is off.
    probes: Vec<Option<ContextProbes>>,
    /// Per-LUT activity accounting; `None` until
    /// [`MultiDevice::enable_activity_census`].
    census: Option<ActivityCensus>,
    /// Context switches with energy accounting (see
    /// [`MultiDevice::reconfig_energy`]).
    switch_count: u64,
    /// Configuration bits flipped across those switches.
    switch_bits_flipped: u64,
}

impl MultiDevice {
    /// Compile one circuit per context onto the architecture.
    pub fn compile(arch: &ArchSpec, circuits: &[Netlist]) -> Result<MultiDevice, CompileError> {
        Self::compile_with(arch, circuits, &Recorder::disabled())
    }

    /// As [`MultiDevice::compile`], recording phase spans and metrics into
    /// `rec`. The device keeps a clone of the recorder, so later
    /// `switch_context` / `step` calls count into the same collector.
    pub fn compile_with(
        arch: &ArchSpec,
        circuits: &[Netlist],
        rec: &Recorder,
    ) -> Result<MultiDevice, CompileError> {
        Self::compile_opts(arch, circuits, &CompileOptions::default(), rec)
    }

    /// As [`MultiDevice::compile_with`], with explicit pipeline knobs
    /// ([`CompileOptions::parallel`] and the shared [`RouteOptions`]).
    pub fn compile_opts(
        arch: &ArchSpec,
        circuits: &[Netlist],
        opts: &CompileOptions,
        rec: &Recorder,
    ) -> Result<MultiDevice, CompileError> {
        if circuits.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        let k = arch.lut.min_inputs;
        let mapped: Vec<MappedNetlist> = {
            let _span = rec.span("map");
            let workers = opts.resolved_workers(circuits.len());
            // Mapping is per-circuit independent; fan it out and merge
            // results in context order (first in-order error wins, exactly
            // as the serial collect would report).
            fan_out(circuits.len(), workers, |_, c| map_netlist(&circuits[c], k))
                .into_iter()
                .collect::<Result<_, _>>()?
        };
        Self::compile_mapped_opts(arch, &mapped, opts, rec)
    }

    /// Compile pre-mapped netlists, one per context (used directly by the
    /// temporal-execution flow, whose stages are built at the mapped level).
    pub fn compile_mapped(
        arch: &ArchSpec,
        circuits: &[MappedNetlist],
    ) -> Result<MultiDevice, CompileError> {
        Self::compile_mapped_with(arch, circuits, &Recorder::disabled())
    }

    /// As [`MultiDevice::compile_mapped`], with observability.
    pub fn compile_mapped_with(
        arch: &ArchSpec,
        circuits: &[MappedNetlist],
        rec: &Recorder,
    ) -> Result<MultiDevice, CompileError> {
        Self::compile_mapped_opts(arch, circuits, &CompileOptions::default(), rec)
    }

    /// As [`MultiDevice::compile_mapped_with`], with explicit pipeline knobs.
    pub fn compile_mapped_opts(
        arch: &ArchSpec,
        circuits: &[MappedNetlist],
        opts: &CompileOptions,
        rec: &Recorder,
    ) -> Result<MultiDevice, CompileError> {
        if circuits.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        check_workload_fits(arch, circuits.len())?;
        let k = arch.lut.min_inputs;
        if let Some((context, m)) = circuits.iter().enumerate().find(|(_, m)| m.k != k) {
            return Err(CompileError::MappedGranularity {
                context,
                expected: k,
                got: m.k,
            });
        }

        // Per-context flows: each context is placed (with its own derived
        // seed) and routed independently on the shared immutable graph, so
        // the work fans out across threads when `opts.parallel` is set. The
        // per-context results are merged back in context order either way,
        // making the parallel device bit-for-bit identical to the serial one
        // (including which error is reported: the first failing context).
        let graph = RoutingGraph::build(arch);
        let per_context =
            |worker: usize,
             c: usize|
             -> Result<(PlacementProblem, Placement, RoutedContext), CompileError> {
                // Begin/End trace events make the pool's fan-out visible in the
                // trace viewer, attributed to the claiming worker.
                let _ev = rec.begin(
                    "compile_context",
                    &[("context", c.into()), ("worker", worker.into())],
                );
                let problem = PlacementProblem::from_mapped(&circuits[c], arch)?;
                let placement = place_with(
                    &problem,
                    &AnnealOptions {
                        seed: 0xC0FFEE ^ c as u64,
                        ..Default::default()
                    },
                    rec,
                );
                let nets = nets_from_placement(&problem, &placement);
                let r = route_context_with(&graph, &nets, &opts.route, rec)?.require_converged()?;
                Ok((problem, placement, r))
            };
        let workers = opts.resolved_workers(circuits.len());
        rec.set_gauge("flow.parallelism", workers as f64);
        let mut problems = Vec::with_capacity(circuits.len());
        let mut placements = Vec::with_capacity(circuits.len());
        let mut routed = Vec::with_capacity(circuits.len());
        for (problem, placement, r) in compile_contexts(circuits.len(), workers, per_context)? {
            problems.push(problem);
            placements.push(placement);
            routed.push(r);
        }
        Self::assemble(
            arch,
            graph,
            circuits.to_vec(),
            problems,
            placements,
            routed,
            opts.kernel,
            false,
            rec,
        )
    }

    /// Compile with per-context artifact reuse from a prior compile of a
    /// near-identical workload — the delta path behind `mcfpga-serve`'s
    /// near-match design cache.
    ///
    /// `seeds` carries one [`DeltaSeed`] per circuit. Each per-context
    /// pipeline stage (map → place → route) is a deterministic pure function
    /// of that context's inputs, independent of every other context, so a
    /// stale artifact is reused **only** when its inputs are identical:
    /// wholesale for [`DeltaSeed::Unchanged`] slots, and per-stage behind
    /// the equality gates of [`mcfpga_place::place_delta`] and
    /// [`mcfpga_route::route_context_delta`] for [`DeltaSeed::Changed`]
    /// slots. The resulting device is bit-for-bit identical to
    /// [`MultiDevice::compile_opts`] on the same inputs — never merely
    /// equivalent — which is what lets cached designs be shared between the
    /// cold and delta paths.
    ///
    /// `cancel` is polled between per-context compile phases (and once more
    /// before device assembly); when it reports `true` the compile stops
    /// with [`CompileError::DeadlineExceeded`] instead of burning a worker
    /// on a result nobody is waiting for. With `seeds` all
    /// [`DeltaSeed::Cold`] this is exactly a cancellable cold compile.
    pub fn compile_delta(
        arch: &ArchSpec,
        circuits: &[Netlist],
        opts: &CompileOptions,
        rec: &Recorder,
        seeds: &[DeltaSeed<'_>],
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<(MultiDevice, DeltaStats), CompileError> {
        if circuits.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        if seeds.len() != circuits.len() {
            return Err(CompileError::DeltaSeedCount {
                seeds: seeds.len(),
                circuits: circuits.len(),
            });
        }
        check_workload_fits(arch, circuits.len())?;
        let k = arch.lut.min_inputs;
        let graph = RoutingGraph::build(arch);
        let expired = || cancel.is_some_and(|f| f());

        struct CtxOut {
            mapped: MappedNetlist,
            problem: PlacementProblem,
            placement: Placement,
            routed: RoutedContext,
            context_reused: bool,
            placement_reused: bool,
            route_reused: bool,
        }
        let per_context = |worker: usize, c: usize| -> Result<CtxOut, CompileError> {
            // The budget check between per-context phases: a job whose
            // deadline lapsed mid-service stops before the next context.
            if expired() {
                return Err(CompileError::DeadlineExceeded);
            }
            let _ev = rec.begin(
                "compile_context",
                &[("context", c.into()), ("worker", worker.into())],
            );
            if let DeltaSeed::Unchanged(a) = seeds[c] {
                return Ok(CtxOut {
                    mapped: a.mapped.clone(),
                    problem: a.problem.clone(),
                    placement: a.placement.clone(),
                    routed: a.routed.clone(),
                    context_reused: true,
                    placement_reused: true,
                    route_reused: true,
                });
            }
            let stale = match seeds[c] {
                DeltaSeed::Changed(a) => Some(a),
                _ => None,
            };
            let mapped = map_netlist(&circuits[c], k)?;
            let problem = PlacementProblem::from_mapped(&mapped, arch)?;
            let anneal = AnnealOptions {
                seed: 0xC0FFEE ^ c as u64,
                ..Default::default()
            };
            let (placement, placement_reused) = match stale {
                Some(a) => place_delta(&problem, &anneal, &a.problem, &a.placement, rec),
                None => (place_with(&problem, &anneal, rec), false),
            };
            let nets = nets_from_placement(&problem, &placement);
            let (routed, route_reused) = match stale {
                Some(a) => route_context_delta(&graph, &nets, &opts.route, &a.routed, rec)?,
                None => (route_context_with(&graph, &nets, &opts.route, rec)?, false),
            };
            let routed = routed.require_converged()?;
            Ok(CtxOut {
                mapped,
                problem,
                placement,
                routed,
                context_reused: false,
                placement_reused,
                route_reused,
            })
        };

        let mut mapped = Vec::with_capacity(circuits.len());
        let mut problems = Vec::with_capacity(circuits.len());
        let mut placements = Vec::with_capacity(circuits.len());
        let mut routed = Vec::with_capacity(circuits.len());
        let mut stats = DeltaStats {
            contexts_total: circuits.len(),
            ..Default::default()
        };
        let workers = opts.resolved_workers(circuits.len());
        rec.set_gauge("flow.parallelism", workers as f64);
        for out in compile_contexts(circuits.len(), workers, per_context)? {
            stats.contexts_reused += out.context_reused as usize;
            if !out.context_reused {
                stats.placements_reused += out.placement_reused as usize;
                stats.routes_reused += out.route_reused as usize;
            }
            mapped.push(out.mapped);
            problems.push(out.problem);
            placements.push(out.placement);
            routed.push(out.routed);
        }
        // Last budget check before the (serial) assembly tail.
        if expired() {
            return Err(CompileError::DeadlineExceeded);
        }
        let device = Self::assemble(
            arch,
            graph,
            mapped,
            problems,
            placements,
            routed,
            opts.kernel,
            false,
            rec,
        )?;
        Ok((device, stats))
    }

    /// Clone out every programmed context's intermediate compile products,
    /// in context order — the seeds a later [`MultiDevice::compile_delta`]
    /// of a perturbed workload reuses.
    pub fn context_artifacts(&self) -> Vec<ContextArtifacts> {
        (0..self.mapped.len())
            .map(|c| ContextArtifacts {
                mapped: self.mapped[c].clone(),
                problem: self.problems[c].clone(),
                placement: self.placements[c].clone(),
                routed: self.routed[c].clone(),
            })
            .collect()
    }

    /// Compile an aligned workload (one netlist per context, all sharing
    /// one structure) at the fabric's smallest LUT size, so every logic
    /// block gets the full plane count.
    pub fn compile_aligned(
        arch: &ArchSpec,
        workload: &[Netlist],
    ) -> Result<MultiDevice, CompileError> {
        Self::compile_aligned_at(arch, workload, arch.lut.min_inputs)
    }

    /// Adaptive granularity (the Fig. 12 trade, made automatically): try
    /// the *largest* LUT size first — fewer, bigger LUTs but fewer planes —
    /// and fall back towards `min_inputs` until every logic block's plane
    /// demand fits the pool. Workloads whose contexts share heavily compile
    /// at large `k`; divergent workloads need the full plane count and land
    /// at `min_inputs`. An overflowing size is rejected before it is placed
    /// and routed.
    pub fn compile_adaptive(
        arch: &ArchSpec,
        workload: &[Netlist],
    ) -> Result<MultiDevice, CompileError> {
        let mut last_err = None;
        for k in (arch.lut.min_inputs..=arch.lut.max_inputs).rev() {
            match Self::compile_aligned_at(arch, workload, k) {
                Ok(dev) => return Ok(dev),
                Err(e @ CompileError::PlaneOverflow { .. }) => last_err = Some(e),
                Err(other) => return Err(other),
            }
        }
        Err(last_err.expect("min_inputs attempt ran"))
    }

    /// The aligned flow at LUT size `k` (`min_inputs ..= max_inputs`; the
    /// plane budget is what the pool leaves, `2^(max_inputs - k)`): pad the
    /// workload by repeating its last netlist, map every context with one
    /// shared cover, check the plane demand, then place and route once and
    /// give every context the same routes.
    fn compile_aligned_at(
        arch: &ArchSpec,
        workload: &[Netlist],
        k: usize,
    ) -> Result<MultiDevice, CompileError> {
        if workload.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        check_workload_fits(arch, workload.len())?;
        let mut contexts = workload.to_vec();
        while contexts.len() < arch.n_contexts {
            contexts.push(workload[workload.len() - 1].clone());
        }
        let mapped = map_workload(&contexts, k)?;
        let outs = arch.lut.outputs;
        group_logic_blocks(arch, &mapped, |_, i| lb_of_lut(i, outs))?;
        let problem = PlacementProblem::from_mapped(&mapped[0], arch)?;
        let placement = place(&problem, &AnnealOptions::default());
        let graph = RoutingGraph::build(arch);
        let nets = nets_from_placement(&problem, &placement);
        let routed = route_context(&graph, &nets, &RouteOptions::default())?.require_converged()?;
        let n = mapped.len();
        Self::assemble(
            arch,
            graph,
            mapped,
            vec![problem; n],
            vec![placement; n],
            vec![routed; n],
            KernelOptions::default(),
            true,
            &Recorder::disabled(),
        )
    }

    /// Shared assembly tail of every compile flow: pad unprogrammed
    /// contexts, extract switch columns, group per-site truth tables into
    /// LUT planes, and build the device. Deterministic in its inputs, so
    /// the cold and delta paths produce identical devices from identical
    /// per-context results.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        arch: &ArchSpec,
        graph: RoutingGraph,
        mapped: Vec<MappedNetlist>,
        problems: Vec<PlacementProblem>,
        placements: Vec<Placement>,
        routed: Vec<RoutedContext>,
        kernel_options: KernelOptions,
        shared_registers: bool,
        rec: &Recorder,
    ) -> Result<MultiDevice, CompileError> {
        // Pad unused contexts with empty routing so columns cover every
        // device context.
        let mut all_routes = routed.clone();
        all_routes.resize_with(arch.n_contexts, || RoutedContext {
            nets: vec![],
            trees: vec![],
            delays: vec![],
            iterations: 0,
            converged: true,
            overused_edges: 0,
            edge_occupancy: vec![],
            edge_history: vec![],
        });
        let usage = {
            let _span = rec.span("columns");
            switch_columns(&graph, &all_routes)
        };
        let (lbs, slot_of) = {
            let _span = rec.span("logic_blocks");
            let outs = arch.lut.outputs;
            let grid = &graph.grid.full;
            group_logic_blocks(arch, &mapped, |c, i| {
                grid.index(placements[c].position[lb_of_lut(i, outs)])
            })?
        };
        let n_programmed = mapped.len();
        let n_banks = if shared_registers { 1 } else { n_programmed };
        let states = mapped[..n_banks]
            .iter()
            .map(|m| m.initial_state().bits)
            .collect();
        Ok(MultiDevice {
            arch: arch.clone(),
            ctx: arch.context_id(),
            mapped,
            problems,
            placements,
            routed,
            graph,
            usage,
            lbs,
            slot_of,
            shared_registers,
            states,
            active: 0,
            kernels: vec![None; n_programmed],
            config_epoch: 0,
            kernel_options,
            batch_regs: vec![Vec::new(); n_banks],
            batch_synced: vec![false; n_banks],
            batch_scratch: KernelScratch::new(),
            scratch_lut_vals: Vec::new(),
            scratch_in_bits: Vec::new(),
            scratch_next: Vec::new(),
            recorder: rec.clone(),
            reconfig_meta: None,
            probes: (0..n_programmed).map(|_| None).collect(),
            census: None,
            switch_count: 0,
            switch_bits_flipped: 0,
        })
    }

    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    pub fn active_context(&self) -> usize {
        self.active
    }

    /// Switch the active context.
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`MultiDevice::try_switch_context`]; use the fallible form on
    /// serving paths that must survive bad input.
    #[inline]
    pub fn switch_context(&mut self, context: usize) {
        self.try_switch_context(context)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Switch the active context, reporting an unprogrammed context in-band.
    pub fn try_switch_context(&mut self, context: usize) -> Result<(), SimError> {
        self.check_context(context)?;
        if context != self.active {
            self.recorder.incr("sim.context_switches", 1);
            // Energy accounting needs the per-context switch bitstreams;
            // build them lazily and only when someone is looking (a traced
            // run or an enabled census), so the uninstrumented hot path
            // never pays for the column synthesis.
            if self.recorder.is_enabled() || self.census.is_some() {
                let from = self.active;
                let meta = self
                    .reconfig_meta
                    .get_or_insert_with(|| ReconfigMeta::build(&self.usage, self.ctx));
                let a = &meta.state_bits[from];
                let b = &meta.state_bits[context];
                let bits_flipped = a.iter().zip(b).filter(|(x, y)| x != y).count();
                let change_rate = mcfpga_config::measure_change_rate(a, b);
                self.switch_count += 1;
                self.switch_bits_flipped += bits_flipped as u64;
                self.recorder
                    .incr("sim.switch.bits_flipped", bits_flipped as u64);
                if self.recorder.is_enabled() {
                    self.recorder.instant(
                        "context_switch",
                        &[
                            ("from", from.into()),
                            ("to", context.into()),
                            ("bits_flipped", bits_flipped.into()),
                            ("change_rate", change_rate.into()),
                            (
                                "energy_pj",
                                observe::switch_energy_pj(bits_flipped as u64).into(),
                            ),
                            (
                                "energy_pj_cum",
                                observe::switch_energy_pj(self.switch_bits_flipped).into(),
                            ),
                            ("n_columns", meta.n_columns.into()),
                            ("n_constant", meta.n_constant.into()),
                            ("n_single_bit", meta.n_single_bit.into()),
                            ("n_general", meta.n_general.into()),
                            ("se_cost_total", meta.se_cost_total.into()),
                        ],
                    );
                }
            }
        }
        self.active = context;
        Ok(())
    }

    /// One clock cycle in the active context.
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`MultiDevice::try_step`]; use the fallible form on serving paths
    /// that must survive bad input.
    #[inline]
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        self.try_step(inputs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// One clock cycle in the active context, reporting an input-arity
    /// mismatch in-band instead of aborting the process.
    pub fn try_step(&mut self, inputs: &[bool]) -> Result<Vec<bool>, SimError> {
        let c = self.active;
        let m = &self.mapped[c];
        if inputs.len() != m.n_inputs {
            return Err(SimError::InputArity {
                context: c,
                expected: m.n_inputs,
                got: inputs.len(),
            });
        }
        self.recorder.incr("sim.steps", 1);
        self.recorder.incr("sim.cycles", 1);
        let bank = self.register_bank(c);
        // Evaluate LUT positions in topological (emission) order, pulling
        // each value through the physical logic block hardware model.
        // Persistent scratch: the only allocation left is the returned
        // output vector.
        let n_luts = self.mapped[c].luts.len();
        let mut lut_vals = std::mem::take(&mut self.scratch_lut_vals);
        let mut in_bits = std::mem::take(&mut self.scratch_in_bits);
        lut_vals.clear();
        lut_vals.resize(n_luts, false);
        for i in 0..n_luts {
            in_bits.clear();
            in_bits.extend(
                self.mapped[c].luts[i]
                    .inputs
                    .iter()
                    .map(|s| self.resolve(bank, *s, inputs, &lut_vals)),
            );
            let (lb, slot) = self.slot_of[c][i];
            lut_vals[i] = self.lbs[lb].output(self.ctx, c, &in_bits, slot);
        }
        let m = &self.mapped[c];
        let outs: Vec<bool> = m
            .outputs
            .iter()
            .map(|(_, s)| self.resolve(bank, *s, inputs, &lut_vals))
            .collect();
        let mut next = std::mem::take(&mut self.scratch_next);
        next.clear();
        next.extend(
            self.mapped[c]
                .dffs
                .iter()
                .map(|d| self.resolve(bank, d.d, inputs, &lut_vals)),
        );
        std::mem::swap(&mut self.states[bank], &mut next);
        if let Some(census) = self.census.as_mut() {
            census.record_bits(c, bank, &lut_vals);
        }
        self.scratch_next = next;
        self.scratch_lut_vals = lut_vals;
        self.scratch_in_bits = in_bits;
        self.batch_synced[bank] = false;
        Ok(outs)
    }

    /// One clock edge over [`LANES`] independent stimulus lanes in the
    /// active context: bit `l` of every input, output, and register word is
    /// one complete stimulus stream. Lane 0 is bit-for-bit the scalar path
    /// and is written back to the scalar state after every batched step.
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`MultiDevice::try_step_batch`].
    #[inline]
    pub fn step_batch(&mut self, inputs: &[u64]) -> Vec<u64> {
        self.try_step_batch(inputs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`MultiDevice::step_batch`], reporting an input-arity mismatch
    /// in-band.
    pub fn try_step_batch(&mut self, inputs: &[u64]) -> Result<Vec<u64>, SimError> {
        let mut out = Vec::new();
        self.try_step_batch_into(inputs, &mut out)?;
        Ok(out)
    }

    /// Allocation-free batched step: `out` is cleared and refilled with one
    /// word per primary output of the active context.
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
        let bank = self.register_bank(c);
        if !self.batch_synced[bank] {
            // The bank's scalar state moved since its last batched step:
            // every lane resumes from the same registers.
            kernel::broadcast(&self.states[bank], &mut self.batch_regs[bank]);
            self.batch_synced[bank] = true;
        }
        // Register probes report the in-cycle (pre-edge) values — what the
        // outputs and downstream logic saw — so snapshot before the kernel
        // commits the next state in place. One branch when disarmed.
        if let Some(probes) = self.probes[c].as_mut() {
            probes.snapshot_regs(&self.batch_regs[bank]);
        }
        let (_, kernel) = self.kernels[c].as_ref().expect("kernel built above");
        kernel.step(
            inputs,
            &mut self.batch_regs[bank],
            &mut self.batch_scratch,
            out,
        );
        // Lane 0 writes back so the scalar view stays coherent.
        kernel::extract_lane(&self.batch_regs[bank], 0, &mut self.states[bank]);
        // Observability taps, each one branch when disarmed: the census
        // reads the LUT words the kernel just computed, probes record
        // inputs / pre-edge registers / LUT outputs into their rings.
        if let Some(census) = self.census.as_mut() {
            census.record_wide(c, bank, self.batch_scratch.lut_words(), 1);
        }
        if let Some(probes) = self.probes[c].as_mut() {
            probes.sample(inputs, self.batch_scratch.lut_words());
        }
        self.recorder.incr("sim.words", 1);
        self.recorder.incr("sim.cycles", LANES as u64);
        Ok(())
    }

    /// Lower `context` to a fresh instruction stream: the mapped netlist
    /// gives sources and emission (= topological) order, the logic blocks
    /// give each position's active plane and its packed truth table as the
    /// hardware currently holds it — faults included.
    pub(crate) fn build_kernel(&self, context: usize) -> CompiledKernel {
        let m = &self.mapped[context];
        CompiledKernel::build(
            m.n_inputs,
            m.dffs.len(),
            m.luts.iter().enumerate().map(|(i, lut)| {
                let (lb, slot) = self.slot_of[context][i];
                let lb = &self.lbs[lb];
                let plane = lb.active_plane(self.ctx, context);
                (lut.inputs.as_slice(), lb.plane_packed(slot, plane))
            }),
            m.outputs.iter().map(|(_, s)| *s),
            m.dffs.iter().map(|d| d.d),
        )
    }

    /// Throughput-mode batched run: drive `context` through a whole stimulus
    /// stream at chunk width `width` (64·width lanes per step), optionally
    /// fanning independent word blocks across up to `threads` workers.
    ///
    /// Panicking convenience wrapper over the canonical
    /// [`MultiDevice::try_run_throughput`].
    pub fn run_throughput(
        &mut self,
        context: usize,
        stimulus: &[u64],
        width: usize,
        threads: usize,
    ) -> Vec<u64> {
        self.try_run_throughput(context, stimulus, width, threads)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Throughput-mode batched run over a prepared stimulus stream.
    ///
    /// `stimulus` is chunk-major and input-major within each chunk: step `t`
    /// of input `i`, chunk word `w`, lives at
    /// `stimulus[(t * n_inputs + i) * width + w]`; lane `l` of a chunk is
    /// bit `l % 64` of word `l / 64`, one independent stimulus stream. The
    /// returned buffer has the same shape over the context's outputs:
    /// `out[(t * n_outputs + o) * width + w]`.
    ///
    /// Every lane starts from the context's current scalar register state
    /// (broadcast), and — unlike [`MultiDevice::step_batch`] — the run does
    /// **not** write state back: this is the "no mid-batch feedback
    /// observation" streaming mode, a pure function of the stimulus that
    /// leaves the device's scalar and batched state untouched.
    ///
    /// With `threads > 1` (and no probes or census armed) the chunk stream
    /// is split into one block per worker and fanned across the compile
    /// pool's scoped threads. Sequential circuits first run a cheap
    /// register-cone-only prologue to seed each block's starting registers,
    /// so the parallel run is bit-for-bit identical to the serial one.
    /// Armed probes or an enabled census force `threads = 1` and the
    /// unoptimized kernel (their samples address pre-optimization LUT
    /// positions, in stream order), and sample all 64·width lanes. The
    /// unobserved paths run the streaming loop built for the best vector
    /// instruction set the host supports ([`crate::kernel_isa`]); every
    /// build returns the same words.
    ///
    /// A context without primary inputs cannot be streamed (the run is
    /// counted in input chunks) and returns
    /// [`SimError::ThroughputNoInputs`].
    pub fn try_run_throughput(
        &mut self,
        context: usize,
        stimulus: &[u64],
        width: usize,
        threads: usize,
    ) -> Result<Vec<u64>, SimError> {
        self.run_throughput_at(context, stimulus, width, threads, Isa::host())
    }

    /// [`MultiDevice::try_run_throughput`] with the streaming loop built for
    /// `isa`, which the host must support (see [`Isa::supported`]).
    pub(crate) fn run_throughput_at(
        &mut self,
        context: usize,
        stimulus: &[u64],
        width: usize,
        threads: usize,
        isa: Isa,
    ) -> Result<Vec<u64>, SimError> {
        self.check_context(context)?;
        if !kernel::SUPPORTED_WIDTHS.contains(&width) {
            return Err(SimError::UnsupportedWidth { width });
        }
        match width {
            1 => self.run_throughput_inner::<1>(context, stimulus, threads, isa),
            2 => self.run_throughput_inner::<2>(context, stimulus, threads, isa),
            4 => self.run_throughput_inner::<4>(context, stimulus, threads, isa),
            _ => self.run_throughput_inner::<8>(context, stimulus, threads, isa),
        }
    }

    fn run_throughput_inner<const W: usize>(
        &mut self,
        c: usize,
        stimulus: &[u64],
        threads: usize,
        isa: Isa,
    ) -> Result<Vec<u64>, SimError> {
        let n_inputs = self.mapped[c].n_inputs;
        if n_inputs == 0 {
            return Err(SimError::ThroughputNoInputs { context: c });
        }
        let chunk_words = n_inputs * W;
        if !stimulus.len().is_multiple_of(chunk_words) {
            return Err(SimError::ThroughputStimulus {
                context: c,
                chunk_words,
                got: stimulus.len(),
            });
        }
        let n_chunks = stimulus.len() / chunk_words;
        let observed = self.census.is_some() || self.probes[c].is_some();
        self.ensure_kernel(c);
        let (epoch, kernel) = self.kernels[c].take().expect("kernel built above");
        let n_outputs = kernel.n_outputs();
        let bank = self.register_bank(c);
        // Every lane starts from the scalar register state.
        let mut regs = Vec::new();
        kernel::broadcast_wide(&self.states[bank], &mut regs, W);
        // `threads` is an explicit caller knob (bench cells sweep it), so it
        // is honored even past `available_parallelism` — oversubscription
        // just timeslices, and the block-split path stays exercised on small
        // machines. Observability forces the serial path: samples are
        // stream-ordered.
        let workers = if observed {
            1
        } else {
            threads.clamp(1, n_chunks.max(1))
        };
        let out = if workers > 1 {
            // Sequential prologue: advance only the registers' fanin cone
            // to find each block's starting register chunks. Combinational
            // contexts skip it entirely.
            let block_len = n_chunks.div_ceil(workers);
            let n_blocks = n_chunks.div_ceil(block_len);
            let mut block_regs: Vec<Vec<u64>> = Vec::with_capacity(n_blocks);
            if kernel.n_regs() == 0 {
                block_regs.resize(n_blocks, Vec::new());
            } else {
                let cone = kernel.state_cone();
                let mut scratch = KernelScratch::new();
                let mut r = regs.clone();
                for b in 0..n_blocks {
                    block_regs.push(r.clone());
                    if b + 1 == n_blocks {
                        break;
                    }
                    for t in b * block_len..(b + 1) * block_len {
                        kernel.step_state_cone_wide::<W>(
                            &cone,
                            &stimulus[t * chunk_words..][..chunk_words],
                            &mut r,
                            &mut scratch,
                        );
                    }
                }
            }
            let blocks = fan_out(n_blocks, workers, |_, b| {
                let lo = b * block_len;
                let hi = ((b + 1) * block_len).min(n_chunks);
                let mut regs = block_regs[b].clone();
                let mut block_out = vec![0u64; (hi - lo) * n_outputs * W];
                kernel.stream_wide::<W>(
                    isa,
                    &stimulus[lo * chunk_words..hi * chunk_words],
                    &mut regs,
                    &mut KernelScratch::new(),
                    &mut block_out,
                );
                block_out
            });
            blocks.concat()
        } else if !observed {
            let mut out = vec![0u64; n_chunks * n_outputs * W];
            kernel.stream_wide::<W>(isa, stimulus, &mut regs, &mut self.batch_scratch, &mut out);
            out
        } else {
            let mut out = vec![0u64; n_chunks * n_outputs * W];
            let mut scratch = std::mem::take(&mut self.batch_scratch);
            let mut step_out = Vec::with_capacity(n_outputs * W);
            for t in 0..n_chunks {
                let stim = &stimulus[t * chunk_words..][..chunk_words];
                if let Some(probes) = self.probes[c].as_mut() {
                    probes.snapshot_regs(&regs);
                }
                kernel.step_wide::<W>(stim, &mut regs, &mut scratch, &mut step_out);
                out[t * n_outputs * W..][..n_outputs * W].copy_from_slice(&step_out);
                if let Some(census) = self.census.as_mut() {
                    census.record_wide(c, bank, scratch.lut_words(), W);
                }
                if let Some(probes) = self.probes[c].as_mut() {
                    probes.sample_wide(stim, scratch.lut_words(), W);
                }
            }
            self.batch_scratch = scratch;
            out
        };
        self.kernels[c] = Some((epoch, kernel));
        self.recorder
            .incr("sim.throughput_words", (n_chunks * W) as u64);
        self.recorder
            .incr("sim.cycles", (n_chunks * W * LANES) as u64);
        Ok(out)
    }

    fn resolve(&self, bank: usize, src: MappedSource, inputs: &[bool], lut_vals: &[bool]) -> bool {
        match src {
            MappedSource::Input(i) => inputs[i],
            MappedSource::Register(r) => self.states[bank][r],
            MappedSource::Lut(l) => lut_vals[l],
            MappedSource::Const(v) => v,
        }
    }

    /// Read the register file `context` steps on — its own on a
    /// heterogeneous device, the one shared file on an aligned device
    /// (temporal execution shuttles the shared transfer file through here).
    pub fn registers(&self, context: usize) -> &[bool] {
        &self.states[self.register_bank(context)]
    }

    /// The register bank `context` reads and writes (see the module docs).
    pub(crate) fn register_bank(&self, context: usize) -> usize {
        if self.shared_registers {
            0
        } else {
            context
        }
    }

    /// Number of programmed contexts.
    pub fn n_contexts(&self) -> usize {
        self.mapped.len()
    }

    /// Primary-input count of `context`'s netlist.
    pub fn n_inputs(&self, context: usize) -> Result<usize, SimError> {
        self.check_context(context)?;
        Ok(self.mapped[context].n_inputs)
    }

    /// Primary-output count of `context`'s netlist.
    pub fn n_outputs(&self, context: usize) -> Result<usize, SimError> {
        self.check_context(context)?;
        Ok(self.mapped[context].outputs.len())
    }

    /// The power-on register state of `context` — what [`MultiDevice::reset`]
    /// restores, independent of any stepping done since compile.
    pub fn initial_registers(&self, context: usize) -> Result<Vec<bool>, SimError> {
        self.check_context(context)?;
        Ok(self.mapped[self.register_bank(context)]
            .initial_state()
            .bits)
    }

    /// Build (and cache) `context`'s compiled batch kernel, returning a
    /// shared reference. Serving layers clone the kernel out once per
    /// design so sessions can step it without holding the device. The
    /// kernel is optimized exactly when [`MultiDevice::kernel_options`]
    /// asks for it and no probes or census are armed.
    pub fn kernel(&mut self, context: usize) -> Result<&CompiledKernel, SimError> {
        self.check_context(context)?;
        self.ensure_kernel(context);
        Ok(&self.kernels[context]
            .as_ref()
            .expect("kernel built above")
            .1)
    }

    /// Current kernel lowering knobs.
    pub fn kernel_options(&self) -> KernelOptions {
        self.kernel_options
    }

    /// Change the kernel lowering knobs after compile. Cached kernels of the
    /// wrong variant are rebuilt lazily on their next use.
    pub fn set_kernel_options(&mut self, options: KernelOptions) {
        self.kernel_options = options;
    }

    /// What one optimizer run does to `context`'s kernel — exact counts for
    /// bench reporting, computed on a fresh unoptimized lowering without
    /// touching the kernel cache.
    pub fn kernel_optimize_stats(&self, context: usize) -> Result<OptimizeStats, SimError> {
        self.check_context(context)?;
        Ok(self.build_kernel(context).optimize_with_stats().1)
    }

    /// Should `context`'s kernel be optimized right now? Only when the
    /// options ask for it *and* nothing that addresses pre-optimization LUT
    /// positions (armed probes, the activity census) is watching.
    fn want_optimized(&self, context: usize) -> bool {
        self.kernel_options.optimize && self.census.is_none() && self.probes[context].is_none()
    }

    /// Make the cached kernel for `context` exist in the wanted variant
    /// and at the current configuration epoch.
    fn ensure_kernel(&mut self, context: usize) {
        let optimized = self.want_optimized(context);
        if let Some((epoch, k)) = &self.kernels[context] {
            if *epoch == self.config_epoch && k.optimized() == optimized {
                return;
            }
        }
        let _span = self.recorder.span("sim_kernel_build");
        let mut kernel = self.build_kernel(context);
        if optimized {
            kernel = kernel.optimize();
        }
        self.kernels[context] = Some((self.config_epoch, kernel));
    }

    fn check_context(&self, context: usize) -> Result<(), SimError> {
        if context >= self.mapped.len() {
            return Err(SimError::ContextNotProgrammed {
                context,
                programmed: self.mapped.len(),
            });
        }
        Ok(())
    }

    /// Overwrite a context's register state.
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`MultiDevice::try_set_registers`]; use the fallible form on
    /// serving paths that must survive bad input.
    #[inline]
    pub fn set_registers(&mut self, context: usize, bits: &[bool]) {
        self.try_set_registers(context, bits)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Overwrite a context's register state, reporting a bad context index
    /// or register-count mismatch in-band.
    pub fn try_set_registers(&mut self, context: usize, bits: &[bool]) -> Result<(), SimError> {
        self.check_context(context)?;
        let bank = self.register_bank(context);
        if bits.len() != self.states[bank].len() {
            return Err(SimError::RegisterCount {
                context,
                expected: self.states[bank].len(),
                got: bits.len(),
            });
        }
        self.states[bank].copy_from_slice(bits);
        self.batch_synced[bank] = false;
        Ok(())
    }

    /// Read `context`'s register state as 64-lane batch words (one `u64`
    /// per register, one stimulus lane per bit) — the context-extraction
    /// half of a checkpoint/migration protocol. When the context has only
    /// been stepped scalar, the scalar state is broadcast across all lanes,
    /// exactly as [`MultiDevice::try_step_batch`] would seed them.
    pub fn lane_registers(&self, context: usize) -> Result<Vec<u64>, SimError> {
        self.check_context(context)?;
        let bank = self.register_bank(context);
        if self.batch_synced[bank] {
            Ok(self.batch_regs[bank].clone())
        } else {
            let mut words = Vec::new();
            kernel::broadcast(&self.states[bank], &mut words);
            Ok(words)
        }
    }

    /// Overwrite `context`'s register state from 64-lane batch words — the
    /// context-restoration half: a state extracted with
    /// [`MultiDevice::lane_registers`] on one device resumes bit-identically
    /// on another device compiled from the same request. The scalar view
    /// ([`MultiDevice::registers`]) tracks lane 0, matching what a batch
    /// step leaves behind.
    pub fn try_set_lane_registers(
        &mut self,
        context: usize,
        words: &[u64],
    ) -> Result<(), SimError> {
        self.check_context(context)?;
        let bank = self.register_bank(context);
        if words.len() != self.states[bank].len() {
            return Err(SimError::RegisterCount {
                context,
                expected: self.states[bank].len(),
                got: words.len(),
            });
        }
        self.batch_regs[bank].clear();
        self.batch_regs[bank].extend_from_slice(words);
        self.batch_synced[bank] = true;
        kernel::extract_lane(&self.batch_regs[bank], 0, &mut self.states[bank]);
        Ok(())
    }

    /// Reset every register bank to its power-on state and clear the
    /// activity census's counters.
    pub fn reset(&mut self) {
        for (m, s) in self.mapped.iter().zip(&mut self.states) {
            *s = m.initial_state().bits;
        }
        self.batch_synced.fill(false);
        if self.census.is_some() {
            self.census = Some(self.new_census());
        }
    }

    /// Per-switch usage across contexts (real mixed columns).
    pub fn switch_usage(&self) -> &SwitchUsage {
        &self.usage
    }

    /// On/off state of every routing switch when `context` is active, in the
    /// deterministic order of [`SwitchUsage::columns`]. The `context_switch`
    /// trace events measure `bits_flipped` and `change_rate` between exactly
    /// these vectors, so tests can recompute the payloads independently via
    /// `mcfpga_config::measure_change_rate`.
    pub fn switch_state_bits(&self, context: usize) -> Vec<bool> {
        self.usage
            .columns()
            .iter()
            .map(|col| col.value_in(context))
            .collect()
    }

    /// The routing-switch bitstream.
    pub fn switch_bitstream(&self) -> Bitstream {
        self.usage.to_bitstream(&self.graph, &self.arch)
    }

    /// Verify that every context's placed nets are connected through the
    /// switches that conduct in that context: breadth-first search over
    /// cells, re-deriving connectivity purely from configuration state.
    pub fn check_routing(&self) -> Result<(), String> {
        use std::collections::{HashSet, VecDeque};
        for (c, (problem, placement)) in self.problems.iter().zip(&self.placements).enumerate() {
            let nets = nets_from_placement(problem, placement);
            let mut on: HashSet<usize> = HashSet::new();
            for (&(edge, _t), &mask) in &self.usage.switches {
                if (mask >> c) & 1 == 1 {
                    on.insert(edge);
                }
            }
            for (ni, net) in nets.iter().enumerate() {
                let start = self.graph.node(net.source);
                let mut seen = HashSet::from([start]);
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
                        return Err(format!("context {c}: net {ni} sink {sink} unreachable"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Routing statistics per programmed context.
    pub fn routing_stats(&self) -> Vec<mcfpga_route::RoutingStats> {
        self.routed
            .iter()
            .map(|r| mcfpga_route::routing_stats(&self.graph, r))
            .collect()
    }

    /// Worst routed delay over programmed contexts.
    pub fn critical_delay(&self) -> f64 {
        self.routed
            .iter()
            .map(|r| r.critical_delay())
            .fold(0.0, f64::max)
    }

    /// Compile-quality report for the experiments.
    pub fn report(&self) -> CompileReport {
        // Plane demand per used LUT slot: the distinct tables the device
        // contexts put there (unprogrammed contexts hold all-zero tables).
        let n = self.ctx.n_contexts();
        let mut slots: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
        for (c, (m, slot_of)) in self.mapped.iter().zip(&self.slot_of).enumerate() {
            for (lut, &slot) in m.luts.iter().zip(slot_of) {
                slots.entry(slot).or_insert_with(|| vec![0; n])[c] = lut.table;
            }
        }
        let mut plane_histogram = vec![0usize; n];
        let mut planes = 0usize;
        for tables in slots.values_mut() {
            tables.sort_unstable();
            tables.dedup();
            plane_histogram[tables.len() - 1] += 1;
            planes += tables.len();
        }
        CompileReport {
            granularity: self.mapped[0].k,
            n_luts: slots.len(),
            n_lbs: self.lbs.len(),
            mean_planes: if slots.is_empty() {
                0.0
            } else {
                planes as f64 / slots.len() as f64
            },
            plane_histogram,
            controller_ses: self.lbs.iter().map(|l| l.controller_se_cost()).sum(),
            switch_stats: ColumnSetStats::measure(&self.usage.columns(), self.ctx),
            routing_iterations: self.routed.iter().map(|r| r.iterations).max().unwrap_or(0),
            critical_delay: self.critical_delay(),
        }
    }

    /// Number of physical logic blocks in use.
    pub fn n_lbs(&self) -> usize {
        self.lbs.len()
    }

    /// The LUT mode every logic block runs in (`None` without blocks).
    pub(crate) fn lb_mode(&self) -> Option<LutMode> {
        self.lbs.first().map(|lb| lb.mode())
    }

    /// Mutable logic-block access (fault injection). Any access is assumed
    /// to mutate configuration, so cached compiled kernels invalidate.
    pub(crate) fn lb_mut(&mut self, lb: usize) -> &mut AdaptiveLogicBlock {
        self.config_epoch += 1;
        &mut self.lbs[lb]
    }

    /// Every `(context, LUT position)` whose compiled-kernel table images
    /// the given LUT-memory fault: positions mapped onto
    /// (`fault.lb`, `fault.output`) in contexts whose active plane is
    /// `fault.plane`.
    pub(crate) fn fault_kernel_sites(&self, fault: &LutFault) -> Vec<(usize, usize)> {
        let mut sites = Vec::new();
        for (c, slots) in self.slot_of.iter().enumerate() {
            for (i, &(lb, slot)) in slots.iter().enumerate() {
                if (lb, slot) == (fault.lb, fault.output)
                    && self.lbs[lb].active_plane(self.ctx, c) == fault.plane
                {
                    sites.push((c, i));
                }
            }
        }
        sites
    }

    // ---- fabric observability ------------------------------------------

    /// Congestion heatmap of one programmed context: per-edge final
    /// occupancy and PathFinder history cost, rankable via
    /// [`CongestionMap::hottest`](mcfpga_route::CongestionMap::hottest) and
    /// diffable across delta-compiles.
    pub fn congestion_map(&self, context: usize) -> Result<mcfpga_route::CongestionMap, SimError> {
        self.check_context(context)?;
        Ok(mcfpga_route::CongestionMap::measure(
            &self.graph,
            &self.routed[context],
        ))
    }

    /// Congestion heatmaps for every programmed context, in context order.
    pub fn congestion_maps(&self) -> Vec<mcfpga_route::CongestionMap> {
        self.routed
            .iter()
            .map(|r| mcfpga_route::CongestionMap::measure(&self.graph, r))
            .collect()
    }

    /// Every signal name `context` can resolve for [`MultiDevice::arm_probes`]:
    /// the netlist's primary-output names, then the `in*` / `reg*` / `lut*`
    /// index families.
    pub fn probe_signals(&self, context: usize) -> Result<Vec<String>, SimError> {
        self.check_context(context)?;
        Ok(observe::probe_names(&self.mapped[context]))
    }

    /// Arm `set`'s probes on `context`, replacing any previously armed set
    /// (and discarding its samples). Armed probes sample on every *batched*
    /// step of that context — all [`LANES`] lanes per word — into bounded
    /// per-probe rings; the scalar [`MultiDevice::step`] path is never
    /// sampled. Fails on the first unresolvable name.
    pub fn arm_probes(&mut self, context: usize, set: &ProbeSet) -> Result<(), SimError> {
        self.check_context(context)?;
        self.probes[context] = Some(ContextProbes::arm(&self.mapped[context], set, context)?);
        Ok(())
    }

    /// Disarm `context`'s probes, discarding buffered samples. Idempotent.
    pub fn disarm_probes(&mut self, context: usize) -> Result<(), SimError> {
        self.check_context(context)?;
        self.probes[context] = None;
        Ok(())
    }

    /// Buffered samples of `context`'s armed probes, in tap order (empty
    /// when nothing is armed).
    pub fn probe_captures(&self, context: usize) -> Result<Vec<ProbeCapture>, SimError> {
        self.check_context(context)?;
        Ok(self.probes[context]
            .as_ref()
            .map(|p| p.captures())
            .unwrap_or_default())
    }

    /// Render `context`'s probe captures as a [`Waveform`](mcfpga_obs::Waveform)
    /// — one 64-wide signal per probe (bit = stimulus lane), or one 1-wide
    /// signal per probe when `lane` is given — ready for
    /// [`to_vcd`](mcfpga_obs::Waveform::to_vcd).
    pub fn probe_waveform(
        &self,
        context: usize,
        lane: Option<usize>,
    ) -> Result<mcfpga_obs::Waveform, SimError> {
        let captures = self.probe_captures(context)?;
        Ok(observe::captures_to_waveform(
            &self.mapped[context].name,
            &captures,
            lane,
        ))
    }

    /// Start per-LUT activity accounting on the scalar and batched paths
    /// (idempotent; counters persist until [`MultiDevice::reset`]). Also
    /// enables context-switch energy accounting even without a recorder.
    pub fn enable_activity_census(&mut self) {
        if self.census.is_none() {
            self.census = Some(self.new_census());
        }
    }

    fn new_census(&self) -> ActivityCensus {
        ActivityCensus::new(self.mapped.len(), self.states.len())
    }

    /// Activity census of `context`: per-LUT toggles, static probability,
    /// and the `toggle_rate × fanout` power proxy. All-zero (and NaN-free)
    /// when the census is disabled or the context never stepped.
    pub fn activity_census(&self, context: usize) -> Result<ActivityReport, SimError> {
        self.check_context(context)?;
        let m = &self.mapped[context];
        Ok(match &self.census {
            Some(census) => census.report(context, m),
            None => self.new_census().report(context, m),
        })
    }

    /// Mean per-LUT toggle rate of `context`; 0.0 (never NaN) for
    /// zero-cycle, zero-LUT, or census-disabled devices.
    pub fn toggle_rate(&self, context: usize) -> f64 {
        match &self.census {
            Some(census) if context < self.mapped.len() => census.toggle_rate(context),
            _ => 0.0,
        }
    }

    /// Cumulative context-switch energy under the per-bit proxy model
    /// (accounted on traced or census-enabled devices; all-zero otherwise).
    pub fn reconfig_energy(&self) -> ReconfigEnergy {
        ReconfigEnergy::from_totals(self.switch_count, self.switch_bits_flipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_config::ColumnSetStats;
    use mcfpga_netlist::library;
    use mcfpga_netlist::words::{bits_to_u64, u64_to_bits};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn arch() -> ArchSpec {
        ArchSpec::paper_default()
    }

    #[test]
    fn four_distinct_circuits_time_multiplex_correctly() {
        let circuits = vec![
            library::adder(4),
            library::parity(8),
            library::comparator(4),
            library::gray_encoder(6),
        ];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        dev.check_routing().unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..40 {
            let c = rng.gen_range(0..circuits.len());
            dev.switch_context(c);
            let n_in = circuits[c].inputs().len();
            let inputs: Vec<bool> = (0..n_in).map(|_| rng.gen_bool(0.5)).collect();
            let expect = circuits[c].eval_comb(&inputs).unwrap();
            let got = dev.step(&inputs);
            assert_eq!(got, expect, "context {c}");
        }
    }

    #[test]
    fn sequential_circuits_keep_independent_state() {
        let circuits = vec![library::counter(4), library::lfsr(8, 0x8E)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        // Advance the counter to 2.
        dev.switch_context(0);
        dev.step(&[true]);
        dev.step(&[true]);
        // Run the LFSR a bit; counter state must be untouched.
        dev.switch_context(1);
        dev.step(&[]);
        dev.step(&[]);
        dev.switch_context(0);
        let out = dev.step(&[false]);
        assert_eq!(bits_to_u64(&out), 2);
    }

    #[test]
    fn switch_columns_show_real_mixed_statistics() {
        let circuits = vec![
            library::adder(4),
            library::multiplier(3),
            library::alu(4),
            library::popcount(6),
        ];
        let dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        let stats = ColumnSetStats::measure(&dev.switch_usage().columns(), dev.ctx);
        assert!(stats.n_columns > 20);
        assert!(stats.n_constant < stats.n_columns, "mixed circuits differ");
        assert!(stats.change_rate > 0.0 && stats.change_rate < 1.0);
    }

    #[test]
    fn adder_still_adds_on_the_fabric() {
        let circuits = vec![library::adder(4), library::subtractor(4)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        for (x, y) in [(3u64, 9u64), (15, 1), (0, 0), (7, 7)] {
            dev.switch_context(0);
            let mut inp = u64_to_bits(x, 4);
            inp.extend(u64_to_bits(y, 4));
            inp.push(false);
            let out = dev.step(&inp);
            assert_eq!(bits_to_u64(&out[..4]) + ((out[4] as u64) << 4), x + y);
            dev.switch_context(1);
            let mut inp = u64_to_bits(x, 4);
            inp.extend(u64_to_bits(y, 4));
            let out = dev.step(&inp);
            assert_eq!(bits_to_u64(&out[..4]), x.wrapping_sub(y) & 0xF);
        }
    }

    #[test]
    fn critical_delay_is_positive() {
        let circuits = vec![library::adder(4)];
        let dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        assert!(dev.critical_delay() > 0.0);
    }

    fn compile_both_ways(circuits: &[Netlist]) -> (MultiDevice, MultiDevice) {
        let serial = MultiDevice::compile_opts(
            &arch(),
            circuits,
            &CompileOptions {
                parallel: false,
                ..Default::default()
            },
            &Recorder::disabled(),
        )
        .unwrap();
        let parallel = MultiDevice::compile_opts(
            &arch(),
            circuits,
            &CompileOptions {
                parallel: true,
                ..Default::default()
            },
            &Recorder::disabled(),
        )
        .unwrap();
        (serial, parallel)
    }

    fn assert_devices_identical(serial: &MultiDevice, parallel: &MultiDevice) {
        assert_eq!(serial.mapped, parallel.mapped);
        assert_eq!(serial.placements, parallel.placements);
        assert_eq!(serial.routed, parallel.routed);
        assert_eq!(serial.usage, parallel.usage);
        assert_eq!(serial.slot_of, parallel.slot_of);
        assert_eq!(serial.states, parallel.states);
        assert_eq!(serial.switch_bitstream(), parallel.switch_bitstream());
    }

    #[test]
    fn parallel_compile_is_bit_identical_to_serial() {
        let circuits = vec![
            library::adder(4),
            library::multiplier(3),
            library::alu(4),
            library::popcount(6),
        ];
        let (mut serial, mut parallel) = compile_both_ways(&circuits);
        assert_devices_identical(&serial, &parallel);
        // And the devices behave identically under stimulus.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let c = rng.gen_range(0..circuits.len());
            serial.switch_context(c);
            parallel.switch_context(c);
            let n_in = circuits[c].inputs().len();
            let inputs: Vec<bool> = (0..n_in).map(|_| rng.gen_bool(0.5)).collect();
            assert_eq!(serial.step(&inputs), parallel.step(&inputs));
        }
    }

    #[test]
    fn parallelism_gauge_matches_resolved_workers() {
        let rec = Recorder::enabled();
        let circuits = vec![library::adder(4), library::parity(8)];
        let opts = CompileOptions::default();
        MultiDevice::compile_opts(&arch(), &circuits, &opts, &rec).unwrap();
        // The gauge must report the worker count the options actually
        // resolve to (capped by the machine and the task count), not a
        // recomputation that can drift.
        let expected = opts.resolved_workers(circuits.len());
        assert!(expected >= 1 && expected <= circuits.len());
        assert_eq!(rec.gauge("flow.parallelism"), Some(expected as f64));
        // Serial compile always resolves to (and reports) 1.
        let serial = CompileOptions {
            parallel: false,
            ..Default::default()
        };
        assert_eq!(serial.resolved_workers(circuits.len()), 1);
        let rec = Recorder::enabled();
        MultiDevice::compile_opts(&arch(), &circuits, &serial, &rec).unwrap();
        assert_eq!(rec.gauge("flow.parallelism"), Some(1.0));
    }

    #[test]
    fn compile_emits_worker_tagged_events_per_context() {
        use mcfpga_obs::TracePhase;
        let rec = Recorder::enabled();
        let circuits = vec![library::adder(4), library::parity(8)];
        MultiDevice::compile_with(&arch(), &circuits, &rec).unwrap();
        let events = rec.trace_events();
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.name == "compile_context" && e.phase == TracePhase::Begin)
            .collect();
        let ends = events
            .iter()
            .filter(|e| e.name == "compile_context" && e.phase == TracePhase::End)
            .count();
        assert_eq!(begins.len(), circuits.len());
        assert_eq!(ends, circuits.len());
        let contexts: std::collections::BTreeSet<u64> = begins
            .iter()
            .map(|e| e.arg_u64("context").expect("context arg"))
            .collect();
        assert_eq!(contexts, (0..circuits.len() as u64).collect());
        let workers = CompileOptions::default().resolved_workers(circuits.len());
        for b in &begins {
            let w = b.arg_u64("worker").expect("worker arg") as usize;
            assert!(w < workers, "worker {w} out of pool of {workers}");
        }
    }

    #[test]
    fn context_switch_events_carry_paper_grounded_payloads() {
        let rec = Recorder::enabled();
        let circuits = vec![
            library::adder(4),
            library::parity(8),
            library::comparator(4),
        ];
        let mut dev = MultiDevice::compile_with(&arch(), &circuits, &rec).unwrap();
        dev.switch_context(1);
        dev.switch_context(2);
        dev.switch_context(2); // same context: no switch, no event
        let events: Vec<_> = rec
            .trace_events()
            .into_iter()
            .filter(|e| e.name == "context_switch")
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].arg_u64("from"), Some(1));
        assert_eq!(events[1].arg_u64("to"), Some(2));

        // The traced change rate and flip count must agree with a direct
        // measurement on the device's own switch bitstreams.
        let ev = &events[0];
        assert_eq!(ev.arg_u64("from"), Some(0));
        assert_eq!(ev.arg_u64("to"), Some(1));
        let a = dev.switch_state_bits(0);
        let b = dev.switch_state_bits(1);
        let flipped = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
        assert!(flipped > 0, "distinct circuits must flip some switches");
        assert_eq!(ev.arg_u64("bits_flipped"), Some(flipped));
        assert_eq!(
            ev.arg_f64("change_rate"),
            Some(mcfpga_config::measure_change_rate(&a, &b))
        );

        // Pattern classes partition the columns, and the SE decoder cost
        // agrees with synthesizing each column directly.
        let n_columns = ev.arg_u64("n_columns").expect("n_columns");
        assert_eq!(n_columns as usize, dev.switch_usage().columns().len());
        assert_eq!(
            ev.arg_u64("n_constant").unwrap()
                + ev.arg_u64("n_single_bit").unwrap()
                + ev.arg_u64("n_general").unwrap(),
            n_columns
        );
        let se: u64 = dev
            .switch_usage()
            .columns()
            .iter()
            .map(|&col| mcfpga_rcm::synthesize(col, dev.ctx).cost().n_ses as u64)
            .sum();
        assert_eq!(ev.arg_u64("se_cost_total"), Some(se));
    }

    #[test]
    fn every_isa_level_streams_the_same_words_as_the_portable_loop() {
        use mcfpga_netlist::{random_netlist, RandomNetlistParams};
        let params = |dff_fraction| RandomNetlistParams {
            n_inputs: 6,
            n_gates: 60,
            n_outputs: 5,
            dff_fraction,
        };
        // Context 0 is combinational, context 1 sequential.
        let circuits = vec![
            random_netlist(params(0.0), 11),
            random_netlist(params(0.25), 12),
        ];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        let mut rng = StdRng::seed_from_u64(0x15A);
        let init: Vec<bool> = (0..dev.registers(1).len())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        assert!(!init.is_empty(), "context 1 must be sequential");
        dev.set_registers(1, &init);
        let levels = Isa::supported();
        // An odd chunk count leaves the last of three blocks short.
        let n_chunks = 13;
        for optimize in [false, true] {
            dev.set_kernel_options(KernelOptions::new().with_optimize(optimize));
            for c in 0..circuits.len() {
                let n_in = dev.n_inputs(c).unwrap();
                let kernel = dev.kernel(c).unwrap().clone();
                for &width in kernel::SUPPORTED_WIDTHS {
                    let stimulus: Vec<u64> = (0..n_chunks * n_in * width)
                        .map(|_| rng.next_u64())
                        .collect();
                    // The portable loop against one step_wide per chunk.
                    let portable = dev
                        .run_throughput_at(c, &stimulus, width, 1, Isa::Portable)
                        .unwrap();
                    let mut regs = Vec::new();
                    kernel::broadcast_wide(dev.registers(c), &mut regs, width);
                    let mut scratch = KernelScratch::new();
                    let (mut stepped, mut out) = (Vec::new(), Vec::new());
                    for chunk in stimulus.chunks_exact(n_in * width) {
                        match width {
                            1 => kernel.step_wide::<1>(chunk, &mut regs, &mut scratch, &mut out),
                            2 => kernel.step_wide::<2>(chunk, &mut regs, &mut scratch, &mut out),
                            4 => kernel.step_wide::<4>(chunk, &mut regs, &mut scratch, &mut out),
                            _ => kernel.step_wide::<8>(chunk, &mut regs, &mut scratch, &mut out),
                        }
                        stepped.extend_from_slice(&out);
                    }
                    assert_eq!(
                        portable, stepped,
                        "optimize {optimize} ctx {c} width {width}"
                    );
                    for &isa in &levels {
                        for threads in [1, 3] {
                            let got = dev
                                .run_throughput_at(c, &stimulus, width, threads, isa)
                                .unwrap();
                            assert_eq!(
                                got, portable,
                                "{isa:?} optimize {optimize} ctx {c} width {width} \
                                 threads {threads}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn throughput_rejects_a_context_without_inputs() {
        let circuits = vec![library::adder(2), library::lfsr(8, 0x8E)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        assert_eq!(dev.n_inputs(1).unwrap(), 0);
        for width in [1, 8] {
            let err = dev.try_run_throughput(1, &[], width, 1).unwrap_err();
            assert_eq!(err, SimError::ThroughputNoInputs { context: 1 });
            assert!(err.to_string().contains("no primary inputs"), "{err}");
        }
        // The context with inputs still streams.
        let n_in = dev.n_inputs(0).unwrap();
        assert!(dev.try_run_throughput(0, &vec![0; n_in], 1, 1).is_ok());
    }

    #[test]
    fn try_step_rejects_bad_input_arity_without_panicking() {
        let circuits = vec![library::adder(4)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        // adder(4) takes 9 inputs (a, b, cin); drive it with 3.
        let err = dev.try_step(&[false; 3]).unwrap_err();
        assert_eq!(
            err,
            SimError::InputArity {
                context: 0,
                expected: 9,
                got: 3
            }
        );
        // The failed step must not count as a simulated cycle.
        let rec = Recorder::enabled();
        let mut dev = MultiDevice::compile_with(&arch(), &circuits, &rec).unwrap();
        assert!(dev.try_step(&[false; 3]).is_err());
        assert_eq!(rec.counter("sim.steps"), 0);
        // A correct step still works afterwards.
        assert!(dev.try_step(&[false; 9]).is_ok());
        assert_eq!(rec.counter("sim.steps"), 1);
    }

    #[test]
    fn try_switch_context_rejects_unprogrammed_contexts() {
        let circuits = vec![library::adder(4)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        let err = dev.try_switch_context(3).unwrap_err();
        assert_eq!(
            err,
            SimError::ContextNotProgrammed {
                context: 3,
                programmed: 1
            }
        );
        assert_eq!(dev.active_context(), 0);
        dev.try_switch_context(0).unwrap();
    }

    #[test]
    fn try_set_registers_rejects_bad_counts() {
        let circuits = vec![library::counter(4)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        let err = dev.try_set_registers(0, &[true; 17]).unwrap_err();
        assert_eq!(
            err,
            SimError::RegisterCount {
                context: 0,
                expected: 4,
                got: 17
            }
        );
        let err = dev.try_set_registers(5, &[true; 4]).unwrap_err();
        assert!(matches!(err, SimError::ContextNotProgrammed { .. }));
        dev.try_set_registers(0, &[true, false, true, false])
            .unwrap();
        assert_eq!(dev.registers(0), &[true, false, true, false]);
    }

    #[test]
    fn sim_errors_display_the_offending_values() {
        let e = SimError::InputArity {
            context: 2,
            expected: 9,
            got: 3,
        };
        assert_eq!(e.to_string(), "context 2 expects 9 inputs, got 3");
        let e = SimError::UnknownProbe {
            context: 1,
            name: "bogus".into(),
        };
        assert_eq!(
            e.to_string(),
            "context 1 has no probe-able signal named \"bogus\""
        );
    }

    #[test]
    fn unknown_probe_names_error_in_band() {
        let mut dev = MultiDevice::compile(&arch(), &[library::adder(4)]).unwrap();
        let err = dev
            .arm_probes(0, &ProbeSet::new().tap("no_such_wire"))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownProbe {
                context: 0,
                name: "no_such_wire".into()
            }
        );
        // Every advertised name arms cleanly.
        let names = dev.probe_signals(0).unwrap();
        let mut set = ProbeSet::new();
        for n in &names {
            set = set.tap(n);
        }
        dev.arm_probes(0, &set).unwrap();
        assert_eq!(dev.probe_captures(0).unwrap().len(), names.len());
    }

    #[test]
    fn output_probes_match_batched_outputs_on_every_lane() {
        let circuits = vec![library::adder(4), library::parity(8)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        // Tap every primary output of context 0 by name.
        let n_outs = dev.n_outputs(0).unwrap();
        let names = dev.probe_signals(0).unwrap();
        let mut set = ProbeSet::new();
        for n in &names[..n_outs] {
            set = set.tap(n);
        }
        dev.arm_probes(0, &set).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut expected: Vec<Vec<u64>> = vec![Vec::new(); n_outs];
        for step in 0..12 {
            // Interleave the other context: its steps must not sample.
            dev.switch_context(step % 2);
            let n_in = dev.n_inputs(step % 2).unwrap();
            let words: Vec<u64> = (0..n_in).map(|_| rng.next_u64()).collect();
            let out = dev.step_batch(&words);
            if step % 2 == 0 {
                for (o, word) in out.iter().enumerate() {
                    expected[o].push(*word);
                }
            }
        }
        for (o, cap) in dev.probe_captures(0).unwrap().iter().enumerate() {
            assert_eq!(cap.samples, expected[o], "probe {} ({})", o, cap.name);
            assert_eq!(cap.dropped, 0);
        }
        // The waveform export carries the same words, one 64-wide signal
        // per probe, and a chosen lane extracts to 1-wide signals.
        let wave = dev.probe_waveform(0, None).unwrap();
        assert_eq!(wave.signals().len(), n_outs);
        assert_eq!(wave.signals()[0].samples, expected[0]);
        let lane0 = dev.probe_waveform(0, Some(0)).unwrap();
        assert!(lane0.signals().iter().all(|s| s.width == 1));
    }

    #[test]
    fn census_counts_activity_and_switch_energy_together() {
        let circuits = vec![library::adder(4), library::multiplier(3)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        dev.enable_activity_census();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..20 {
            dev.switch_context(step % 2);
            let n_in = dev.n_inputs(step % 2).unwrap();
            let words: Vec<u64> = (0..n_in).map(|_| rng.next_u64()).collect();
            dev.step_batch(&words);
        }
        for c in 0..2 {
            let report = dev.activity_census(c).unwrap();
            assert_eq!(report.lane_cycles, 10 * LANES as u64);
            assert!(report.toggles_total > 0, "random stimulus must toggle");
            for row in &report.luts {
                assert!((row.power_proxy - row.toggle_rate * row.fanout as f64).abs() < 1e-12);
                assert!(!row.static_probability.is_nan());
            }
            let ranked = report.ranked();
            assert!(ranked
                .windows(2)
                .all(|w| w[0].power_proxy >= w[1].power_proxy));
            assert!(dev.toggle_rate(c) > 0.0);
        }
        // Census-enabled devices account switch energy without a recorder:
        // 19 switches, each flipping the same 0<->1 bit distance.
        let a = dev.switch_state_bits(0);
        let b = dev.switch_state_bits(1);
        let dist = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
        let energy = dev.reconfig_energy();
        assert_eq!(energy.switches, 19);
        assert_eq!(energy.bits_flipped, 19 * dist);
        assert!((energy.energy_pj - observe::switch_energy_pj(19 * dist)).abs() < 1e-9);
        assert_eq!(energy.mean_bits_per_switch, dist as f64);
    }

    #[test]
    fn traced_switch_events_carry_the_energy_model() {
        let rec = Recorder::enabled();
        let circuits = vec![library::adder(4), library::parity(8)];
        let mut dev = MultiDevice::compile_with(&arch(), &circuits, &rec).unwrap();
        dev.switch_context(1);
        dev.switch_context(0);
        let events: Vec<_> = rec
            .trace_events()
            .into_iter()
            .filter(|e| e.name == "context_switch")
            .collect();
        assert_eq!(events.len(), 2);
        let mut cum = 0.0;
        for e in &events {
            let bits = e.arg_u64("bits_flipped").unwrap();
            let pj = e.arg_f64("energy_pj").unwrap();
            assert!((pj - observe::switch_energy_pj(bits)).abs() < 1e-9);
            cum += pj;
            assert!((e.arg_f64("energy_pj_cum").unwrap() - cum).abs() < 1e-9);
        }
        assert_eq!(
            rec.counter("sim.switch.bits_flipped"),
            dev.reconfig_energy().bits_flipped
        );
    }

    #[test]
    fn congestion_maps_expose_per_context_occupancy() {
        let circuits = vec![library::adder(4), library::multiplier(3)];
        let dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        let maps = dev.congestion_maps();
        assert_eq!(maps.len(), 2);
        for (c, map) in maps.iter().enumerate() {
            assert_eq!(map, &dev.congestion_map(c).unwrap());
            assert!(!map.edges.is_empty(), "routed context uses edges");
            let total: usize = map.edges.iter().map(|e| e.occupancy).sum();
            assert_eq!(total, dev.routing_stats()[c].total_wirelength);
            assert!(map.peak_utilization() <= 1.0, "converged routing");
            assert!(!map.hottest(4).is_empty());
        }
    }

    #[test]
    fn compile_mapped_rejects_a_foreign_granularity() {
        let arch = arch();
        let k = arch.lut.min_inputs;
        let good = map_netlist(&library::parity(8), k).unwrap();
        let wrong = map_netlist(&library::adder(4), k + 1).unwrap();
        let result = MultiDevice::compile_mapped(&arch, &[good, wrong]);
        let err = result.err().expect("k + 1 is not the fabric's k");
        assert!(
            matches!(
                err,
                CompileError::MappedGranularity { context: 1, expected, got }
                    if expected == k && got == k + 1
            ),
            "{err}"
        );
    }

    #[test]
    fn compile_delta_rejects_a_seed_count_mismatch() {
        let circuits = vec![library::adder(4), library::parity(8)];
        let result = MultiDevice::compile_delta(
            &arch(),
            &circuits,
            &CompileOptions::default(),
            &Recorder::disabled(),
            &[DeltaSeed::Cold],
            None,
        );
        let err = result.err().expect("one seed for two circuits");
        assert!(
            matches!(
                err,
                CompileError::DeltaSeedCount {
                    seeds: 1,
                    circuits: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn register_banks_follow_the_compile_flow() {
        // Aligned contexts share one register file: a count made in
        // context 0 is visible from context 3, and writing through one
        // context writes them all.
        let counter = library::counter(4);
        let mut aligned =
            MultiDevice::compile_aligned(&arch(), std::slice::from_ref(&counter)).unwrap();
        aligned.step(&[true]);
        aligned.switch_context(3);
        assert_eq!(bits_to_u64(&aligned.step(&[false])), 1);
        aligned.set_registers(2, &[true, true, false, false]);
        assert_eq!(aligned.registers(0), &[true, true, false, false]);
        aligned.reset();
        assert_eq!(aligned.lane_registers(1).unwrap(), vec![0; 4]);
        // Heterogeneous contexts own one each.
        let mut hetero = MultiDevice::compile(&arch(), &[counter.clone(), counter]).unwrap();
        hetero.step(&[true]);
        hetero.switch_context(1);
        assert_eq!(bits_to_u64(&hetero.step(&[false])), 0);
        assert_eq!(bits_to_u64(hetero.registers(0)), 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use mcfpga_netlist::{random_netlist, RandomNetlistParams};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Parallel compile produces a MultiDevice identical to serial
        /// compile across random workloads and seeds: same placements,
        /// routing trees, switch usage, logic-block assignment, and initial
        /// state.
        #[test]
        fn parallel_equals_serial_on_random_workloads(seed in 0u64..10_000, n_ctx in 1usize..=4) {
            let arch = ArchSpec::paper_default();
            let circuits: Vec<_> = (0..n_ctx)
                .map(|c| {
                    random_netlist(
                        RandomNetlistParams {
                            n_inputs: 6,
                            n_gates: 30,
                            n_outputs: 4,
                            dff_fraction: 0.1,
                        },
                        seed.wrapping_add(c as u64),
                    )
                })
                .collect();
            let serial = MultiDevice::compile_opts(
                &arch,
                &circuits,
                &CompileOptions { parallel: false, ..Default::default() },
                &Recorder::disabled(),
            );
            let parallel = MultiDevice::compile_opts(
                &arch,
                &circuits,
                &CompileOptions { parallel: true, ..Default::default() },
                &Recorder::disabled(),
            );
            match (serial, parallel) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(&s.mapped, &p.mapped);
                    prop_assert_eq!(&s.placements, &p.placements);
                    prop_assert_eq!(&s.routed, &p.routed);
                    prop_assert_eq!(&s.usage, &p.usage);
                    prop_assert_eq!(&s.slot_of, &p.slot_of);
                    prop_assert_eq!(&s.states, &p.states);
                    prop_assert_eq!(s.switch_bitstream(), p.switch_bitstream());
                }
                // Both paths must agree on failure too (first in-order error).
                (Err(se), Err(pe)) => prop_assert_eq!(se.to_string(), pe.to_string()),
                (s, p) => prop_assert!(
                    false,
                    "serial {:?} vs parallel {:?} disagree on success",
                    s.map(|_| ()), p.map(|_| ())
                ),
            }
        }
    }
}
