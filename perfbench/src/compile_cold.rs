//! `compile-cold`: a stratified, seeded draw of multi-context designs, each
//! compiled cold with default options, then RCM synthesis of every switch
//! column and the CMOS/FePG area comparison.

use std::time::{Duration, Instant};

use mcfpga::config::Bitstream;
use mcfpga::obs::Recorder;
use mcfpga::sim::{CompileOptions, MultiDevice};

use crate::designs::{compile_cold_draw, Design};
use crate::layers::Layers;
use crate::machine::Clock;
use crate::pipeline::{
    check_against_netlists, compile_pipeline, reconstruct, Compiled, LayerCounts, ModelOutputs,
};
use crate::report::Report;
use crate::rng::SplitMix;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{timed_setup, Args, Machine};

/// Tail percentile of per-design compile time.
const TAIL_Q: f64 = 0.95;
/// Passes over the draw per measurement window.
const WINDOW_PASSES: usize = 2;
/// Cycles per context in the netlist-reference check.
const CHECK_CYCLES: usize = 24;

/// Visit order of the draw in every pass: a seeded shuffle, so no size
/// class runs as a block.
pub fn pass_order(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed ^ 0x0DE5);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

pub fn run(args: &Args, machine: &Machine, report: &mut Report) {
    let (setup_s, designs) = timed_setup(|| compile_cold_draw(args.seed));
    report.note(format!(
        "compile-cold: {} designs, setup {:.4} s",
        designs.len(),
        setup_s
    ));
    if args.trace {
        traced(args, machine, &designs, report);
    } else {
        untraced(args, &designs, setup_s, report);
    }
}

/// The first compile of a design: the reference for its recompiles and
/// the source of its model outputs.
struct Baseline {
    bitstream: Bitstream,
    model: ModelOutputs,
}

/// Check a first compile (routing reaches every sink, every context matches
/// its netlist on a seeded vector sample) and keep it as the baseline.
fn baseline(mut c: Compiled, design: &Design, seed: u64, report: &mut Report) -> Baseline {
    if let Err(e) = check_against_netlists(&mut c.device, &design.circuits, CHECK_CYCLES, seed) {
        report.fail(format!("{}: {e}", design.label));
    }
    Baseline {
        bitstream: c.device.switch_bitstream(),
        model: c.model,
    }
}

fn untraced(args: &Args, designs: &[Design], setup_s: f64, report: &mut Report) {
    let opts = CompileOptions::default();
    let order = pass_order(designs.len(), args.seed);
    let mut base: Vec<Option<Baseline>> = designs.iter().map(|_| None).collect();
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    'measure: for pass in 0.. {
        if pass % WINDOW_PASSES == 0 {
            windows.push(Vec::new());
        }
        for &i in &order {
            if t0.elapsed() >= budget {
                break 'measure;
            }
            let start = Instant::now();
            let result = compile_pipeline(&designs[i], &opts);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let Some(compiled) = report.op(result) else {
                continue;
            };
            windows.last_mut().expect("window opened").push(ms);
            match &base[i] {
                Some(b) if b.bitstream != compiled.device.switch_bitstream() => {
                    report.fail(format!(
                        "{}: recompile changed the switch bitstream",
                        designs[i].label
                    ))
                }
                Some(_) => {}
                None => {
                    base[i] = Some(baseline(
                        compiled,
                        &designs[i],
                        args.seed ^ i as u64,
                        report,
                    ))
                }
            }
        }
    }
    let measured_s = t0.elapsed().as_secs_f64();
    // Designs the window never reached still count in the model outputs, so
    // those stay a function of the seed alone.
    for (i, d) in designs.iter().enumerate() {
        if base[i].is_none() {
            if let Some(c) = report.op(compile_pipeline(d, &opts)) {
                base[i] = Some(baseline(c, d, args.seed ^ i as u64, report));
            }
        }
    }
    let models: Vec<ModelOutputs> = base.iter().flatten().map(|b| b.model).collect();
    let summary = Summary::windowed(&windows, TAIL_Q);
    report.note(format!(
        "compile-cold: {} compiles in {measured_s:.2} s",
        windows.iter().map(Vec::len).sum::<usize>()
    ));
    report.note("compile-cold: op = one design through compile_opts, RCM synthesis and area");
    let rss_mb = crate::machine::peak_rss_mb();
    crate::end_to_end(report, setup_s, rss_mb, summary, |s| s.p50, &models);
}

fn traced(args: &Args, machine: &Machine, designs: &[Design], report: &mut Report) {
    let order = pass_order(designs.len(), args.seed);
    let mut spans = Tracer::new(true);
    let mut l = Layers::new(machine);
    let budget = Duration::from_secs_f64(args.seconds);
    let (overhead, residual) =
        compile_layers(designs, &order, Some(budget), &mut spans, &mut l, report);
    l.set("obs.overhead_frac", overhead);
    l.set("trace.residual_frac", residual);
    crate::write_spans(args, &spans, report);
    l.emit(report);
}

/// The compile layers of `designs`, visited in `order`: whole passes until
/// `budget` runs out (one pass when `None`). Each design is compiled with
/// default options (for CPU per wall), serially (for the parallel speed-up
/// and the assembly residual), and reconstructed layer by layer three
/// times: with no tracing, with the benchmark's spans only (the layer self
/// times), and with spans and an enabled program recorder (the counters,
/// and the traced side of the overhead). Every reconstruction's switch
/// bitstream must equal the device's. Fills the compile rows of `l` and
/// returns `(tracing overhead, unspanned share of the traced root)`.
pub fn compile_layers(
    designs: &[Design],
    order: &[usize],
    budget: Option<Duration>,
    traced_spans: &mut Tracer,
    l: &mut Layers,
    report: &mut Report,
) -> (f64, f64) {
    let default_opts = CompileOptions::default();
    let serial_opts = CompileOptions::default().with_parallel(false);
    let mut quiet = Tracer::new(false);
    let mut layer_spans = Tracer::new(true);
    let t0 = Instant::now();
    let mut passes = 0u64;
    let (mut default_wall, mut default_cpu, mut serial_wall) = (0.0, 0.0, 0.0);
    let (mut off_wall, mut on_wall) = (0.0, 0.0);
    let mut counts = LayerCounts::default();
    let (mut anneal_steps, mut route_iterations) = (0u64, 0u64);
    // Whole passes only, so every layer total covers the same designs.
    while passes == 0 || budget.is_some_and(|b| t0.elapsed() < b) {
        for (j, &i) in order.iter().enumerate() {
            let d = &designs[i];
            let job = passes * designs.len() as u64 + j as u64;
            let compile = |opts: &CompileOptions| {
                MultiDevice::compile_opts(&d.arch, &d.circuits, opts, &Recorder::disabled())
                    .map(|dev| dev.switch_bitstream())
                    .map_err(|e| format!("{}: {e}", d.label))
            };
            let clock = Clock::start();
            let want = report.op(compile(&default_opts));
            let (wall, cpu) = clock.read();
            default_wall += wall;
            default_cpu += cpu;
            let Some(want) = want else { continue };
            let start = Instant::now();
            let serial = compile(&serial_opts);
            serial_wall += start.elapsed().as_secs_f64();

            let start = Instant::now();
            let off = reconstruct(d, &Recorder::disabled(), &mut quiet, None, job);
            off_wall += start.elapsed().as_secs_f64();
            let root = layer_spans.open("compile", None, job);
            let timed = reconstruct(d, &Recorder::disabled(), &mut layer_spans, root, job);
            layer_spans.close(root);
            let rec = Recorder::enabled();
            let start = Instant::now();
            let root = traced_spans.open("compile", None, job);
            let on = reconstruct(d, &rec, traced_spans, root, job);
            traced_spans.close(root);
            on_wall += start.elapsed().as_secs_f64();

            if let Some(bits) = report.op(serial) {
                if bits != want {
                    report.fail(format!("{}: serial compile differs from parallel", d.label));
                }
            }
            for (k, r) in [off, timed, on].into_iter().enumerate() {
                let Some((bits, c)) = report.op(r) else {
                    continue;
                };
                if bits != want {
                    report.fail(format!(
                        "{}: layered reconstruction differs from compile_opts",
                        d.label
                    ));
                }
                if k == 1 && passes == 0 {
                    counts.add(&c);
                }
            }
            if passes == 0 {
                let run = rec.report("compile");
                anneal_steps += run.counter("anneal.temperature_steps");
                route_iterations += run.counter("route.iterations");
            }
        }
        passes += 1;
    }
    let p = passes as f64;
    let totals = layer_spans.layers();
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ms()) / p;
    let root_ms = totals
        .get("compile")
        .map_or(0.0, |t| t.wall_ns as f64 / 1e6)
        / p;
    l.set("map.self_ms", self_ms("map"));
    l.set("map.luts", counts.luts as f64);
    l.set("place.self_ms", self_ms("place"));
    l.set("place.share", self_ms("place") / root_ms);
    l.set(
        "place.us_per_block",
        self_ms("place") * 1e3 / counts.blocks as f64,
    );
    l.set("place.anneal_steps", anneal_steps as f64);
    l.set("route.self_ms", self_ms("route"));
    l.set("route.iterations", route_iterations as f64);
    l.set(
        "route.us_per_net",
        self_ms("route") * 1e3 / counts.nets as f64,
    );
    l.set("columns.self_ms", self_ms("columns"));
    l.set("columns.count", counts.columns as f64);
    l.set(
        "columns.change_rate",
        counts.change_rate_sum / designs.len() as f64,
    );
    let compile_layers: f64 = ["map", "place", "route", "columns"]
        .iter()
        .map(|n| self_ms(n))
        .sum();
    l.set(
        "assemble.residual_ms",
        serial_wall * 1e3 / p - compile_layers,
    );
    l.set("rcm.self_ms", self_ms("rcm"));
    l.set("rcm.ses_total", counts.ses as f64);
    l.set("area.self_ms", self_ms("area"));
    l.set("compile.cpu_per_wall", default_cpu / default_wall);
    l.set("compile.parallel_speedup", serial_wall / default_wall);
    report.note(format!(
        "compile layers: {passes} passes over {} designs; per pass divide by {passes}",
        designs.len(),
    ));
    for line in layer_spans.table() {
        report.note(line);
    }
    (on_wall / off_wall - 1.0, self_ms("compile") / root_ms)
}
