//! `sim-stream`: compile a few designs during set-up, then stream seeded
//! random vectors through `MultiDevice::run_throughput` with default kernel
//! options at a fixed chunk width on one thread.

use std::time::{Duration, Instant};

use mcfpga::obs::Recorder;
use mcfpga::sim::{CompileOptions, KernelOptions, MultiDevice, LANES};

use crate::compile_cold::compile_layers;
use crate::designs::{sim_stream_designs, Design};
use crate::layers::Layers;
use crate::machine::{thread_cpu_s, Clock};
use crate::pipeline::{check_against_netlists, model_outputs};
use crate::report::Report;
use crate::rng::SplitMix;
use crate::stats::{percentile, Summary};
use crate::trace::Tracer;
use crate::{timed_setup, Args, Machine};

/// Chunk width: 8 words, 512 lanes per step.
const WIDTH: usize = 8;
/// Chunks (clock steps) per `run_throughput` call.
const CHUNKS: usize = 64;
/// Vectors one call simulates.
const VECTORS_PER_CALL: usize = CHUNKS * WIDTH * LANES;
/// Tail percentile of per-round time: the highest with 10 rounds beyond
/// it in a window.
const TAIL_Q: f64 = 0.95;
/// Rounds (one call per stream) per measurement window. Each window runs
/// on its own memory layout (see [`FLOOR_Q`]).
const WINDOW_ROUNDS: usize = 200;
/// The share of a run's rounds faster than the figure it reports.
///
/// How fast a round runs depends on more than the program. On a 2-vCPU
/// Xeon VM round times fell into a fast mode near 1.5 ms and a slow one
/// of 2.5-3.3 ms. Which one a stretch of rounds ran in changed with the
/// memory layout (within one process, between freshly compiled devices)
/// and with what else ran on the machine, so a run's median, mean and p95
/// moved by a fifth or more from one set of runs to the next. The fast
/// mode held within a few percent. So every CPU streams at once, each on
/// its own devices, each window runs on its own layout, and the figure is
/// this low percentile of all rounds: the round time when nothing
/// interferes, which a kernel change moves like any other round.
const FLOOR_Q: f64 = 0.02;
/// Largest heap spacer allocated before a window's devices.
const SPACER_BYTES: usize = 8192;
/// Stack depths (in frames of [`at_stack_depth`]) a window may run at.
const STACK_DEPTHS: usize = 64;

/// One stimulus stream: a design's context, its chunk-major input words,
/// and the outputs the width-1 unoptimized reference computed for them.
struct Stream {
    design: usize,
    context: usize,
    stimulus: Vec<u64>,
    expected: Vec<u64>,
}

/// Set-up as a user pays it: compile every design and build its kernels.
fn compile_all(designs: &[Design], rec: &Recorder) -> Result<Vec<MultiDevice>, String> {
    designs
        .iter()
        .map(|d| {
            let mut dev =
                MultiDevice::compile_opts(&d.arch, &d.circuits, &CompileOptions::default(), rec)
                    .map_err(|e| format!("{}: {e}", d.label))?;
            for c in 0..d.circuits.len() {
                dev.kernel(c).map_err(|e| format!("{}: {e}", d.label))?;
            }
            Ok(dev)
        })
        .collect()
}

/// Run `f` with `depth` extra frames of 64 bytes on the stack.
#[inline(never)]
fn at_stack_depth(depth: usize, f: &mut dyn FnMut()) {
    let mut frame = [0u8; 64];
    std::hint::black_box(&mut frame);
    if depth == 0 {
        f();
    } else {
        at_stack_depth(depth - 1, f);
    }
    std::hint::black_box(&frame);
}

/// Word `w` of every chunk of a width-[`WIDTH`] chunk-major buffer: one
/// independent 64-lane stream, laid out as a width-1 buffer.
fn column(buf: &[u64], w: usize) -> Vec<u64> {
    buf.iter().skip(w).step_by(WIDTH).copied().collect()
}

/// Seeded stimulus per (design, context) and its reference outputs: each
/// of the [`WIDTH`] words of a chunk is an independent 64-lane stream, run
/// separately at width 1 through the unoptimized kernel of a device
/// compiled apart from the one under test.
fn streams(designs: &[Design], seed: u64) -> Result<Vec<Stream>, String> {
    let mut rng = SplitMix::new(seed ^ 0x57EA);
    let mut out = Vec::new();
    for (di, d) in designs.iter().enumerate() {
        let mut reference = MultiDevice::compile_opts(
            &d.arch,
            &d.circuits,
            &CompileOptions::default(),
            &Recorder::disabled(),
        )
        .map_err(|e| format!("{}: {e}", d.label))?;
        check_against_netlists(&mut reference, &d.circuits, 16, seed ^ di as u64)
            .map_err(|e| format!("{}: {e}", d.label))?;
        reference.set_kernel_options(KernelOptions::default().with_optimize(false));
        for c in 0..d.circuits.len() {
            let n_in = reference.n_inputs(c).map_err(|e| e.to_string())?;
            let n_out = reference.n_outputs(c).map_err(|e| e.to_string())?;
            // `run_throughput` counts chunks from the stimulus length, so a
            // context without primary inputs cannot be streamed at all.
            if n_in == 0 {
                continue;
            }
            let stimulus = rng.words(CHUNKS * n_in * WIDTH);
            let mut expected = vec![0u64; CHUNKS * n_out * WIDTH];
            for w in 0..WIDTH {
                let lane_words = column(&stimulus, w);
                let got = reference
                    .try_run_throughput(c, &lane_words, 1, 1)
                    .map_err(|e| format!("{}: {e}", d.label))?;
                for (k, word) in got.into_iter().enumerate() {
                    expected[k * WIDTH + w] = word;
                }
            }
            out.push(Stream {
                design: di,
                context: c,
                stimulus,
                expected,
            });
        }
    }
    Ok(out)
}

/// Stream rounds until `budget` is spent, one window at a time, each on its
/// own layout: freshly compiled devices and stimulus copies behind seeded
/// heap spacers, run at a seeded stack depth. Returns the windows' round
/// times in ms, the wall seconds spent streaming, and the checks' report.
fn stream_windows(
    designs: &[Design],
    streams: &[Stream],
    seed: u64,
    budget: Duration,
) -> (Vec<Vec<f64>>, f64, Report) {
    let mut report = Report::default();
    let mut rng = SplitMix::new(seed ^ 0x1A70);
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut stream_s = 0.0;
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        // Freed with the window, so memory does not grow with the run.
        let mut spacers = vec![vec![0u8; 1 + rng.below(SPACER_BYTES)]];
        let Some(mut devices) = report.op(compile_all(designs, &Recorder::disabled())) else {
            break;
        };
        let stimuli: Vec<Vec<u64>> = streams
            .iter()
            .map(|s| {
                spacers.push(vec![0; 1 + rng.below(SPACER_BYTES)]);
                s.stimulus.clone()
            })
            .collect();
        let mut window = Vec::with_capacity(WINDOW_ROUNDS);
        at_stack_depth(rng.below(STACK_DEPTHS), &mut || {
            for _ in 0..WINDOW_ROUNDS {
                let mut round_cpu_s = 0.0;
                for (s, stimulus) in streams.iter().zip(&stimuli) {
                    let (wall, cpu) = (Instant::now(), thread_cpu_s());
                    let out = devices[s.design].try_run_throughput(s.context, stimulus, WIDTH, 1);
                    round_cpu_s += thread_cpu_s() - cpu;
                    stream_s += wall.elapsed().as_secs_f64();
                    check(&mut report, out, s, designs);
                }
                window.push(round_cpu_s * 1e3);
            }
        });
        windows.push(window);
    }
    (windows, stream_s, report)
}

pub fn run(args: &Args, machine: &Machine, report: &mut Report) {
    let designs = sim_stream_designs();
    let (setup_s, devices) = timed_setup(|| compile_all(&designs, &Recorder::disabled()));
    let Some(devices) = report.op(devices) else {
        return;
    };
    let Some(streams) = report.op(streams(&designs, args.seed)) else {
        return;
    };
    report.note(format!(
        "sim-stream: {} designs, {} streams of {VECTORS_PER_CALL} vectors at width {WIDTH}, setup {setup_s:.4} s",
        designs.len(),
        streams.len()
    ));
    if args.trace {
        traced(args, machine, &designs, &streams, report);
        return;
    }
    // One op is a round: every stream once, so each sample has the same mix.
    // Every CPU streams at once (see `WINDOW_ROUNDS`).
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut windows, mut stream_s) = (Vec::new(), 0.0);
    let streamed: Vec<(Vec<Vec<f64>>, f64, Report)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..machine.nproc as u64)
            .map(|k| {
                let (designs, streams) = (&designs, &streams);
                scope.spawn(move || stream_windows(designs, streams, args.seed ^ k << 32, budget))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a streaming thread panicked"))
            .collect()
    });
    for (w, s, r) in streamed {
        windows.extend(w);
        stream_s += s;
        report.absorb(r);
    }
    let rounds = windows.len() * WINDOW_ROUNDS;
    let mut all: Vec<f64> = windows.concat();
    all.sort_by(f64::total_cmp);
    let floor = percentile(&all, FLOOR_Q).unwrap_or(f64::NAN);
    report.note(format!(
        "sim-stream: op = one round of {} run_throughput calls, {} vectors, in thread CPU time; {rounds} rounds on {} threads and {} layouts, {:.2} Mvectors/s per thread of wall time while streaming; op_ms is the p{} round",
        streams.len(),
        streams.len() * VECTORS_PER_CALL,
        machine.nproc,
        windows.len(),
        (rounds * streams.len() * VECTORS_PER_CALL) as f64 / stream_s / 1e6,
        FLOOR_Q * 100.0
    ));
    let models: Vec<_> = devices
        .iter()
        .zip(&designs)
        .map(|(dev, d)| model_outputs(dev, d))
        .collect();
    let rss_mb = crate::machine::peak_rss_mb();
    crate::end_to_end(
        report,
        setup_s,
        rss_mb,
        Summary::windowed(&windows, TAIL_Q),
        |_| floor,
        &models,
    );
}

fn traced(
    args: &Args,
    machine: &Machine,
    designs: &[Design],
    streams: &[Stream],
    report: &mut Report,
) {
    let mut l = Layers::new(machine);
    let mut spans = Tracer::new(true);
    let order: Vec<usize> = (0..designs.len()).collect();
    compile_layers(designs, &order, None, &mut spans, &mut l, report);

    // Kernel build and optimizer counts on fresh devices.
    let mut kernel_ms = 0.0;
    let (mut ops_before, mut ops_after) = (0u64, 0u64);
    for d in designs {
        let Some(mut dev) = report.op(MultiDevice::compile_opts(
            &d.arch,
            &d.circuits,
            &CompileOptions::default(),
            &Recorder::disabled(),
        )
        .map_err(|e| e.to_string())) else {
            continue;
        };
        for c in 0..d.circuits.len() {
            let start = Instant::now();
            let built = dev.kernel(c).map(|_| ());
            kernel_ms += start.elapsed().as_secs_f64() * 1e3;
            let stats = dev.kernel_optimize_stats(c);
            if let Some(s) = report.op(built.and(stats).map_err(|e| e.to_string())) {
                ops_before += s.word_ops_before as u64;
                ops_after += s.word_ops_after as u64;
            }
        }
    }
    l.set("sim.kernel_build_ms", kernel_ms);
    l.set("sim.optimize.word_ops_before", ops_before as f64);
    l.set("sim.optimize.word_ops_after", ops_after as f64);

    // Alternate untraced rounds (recorder off, no spans) with traced rounds
    // (enabled recorder, a span per call) on separately compiled devices.
    let quiet_devs = compile_all(designs, &Recorder::disabled());
    let rec = Recorder::enabled();
    let traced_devs = compile_all(designs, &rec);
    let (Some(mut quiet_devs), Some(mut traced_devs)) =
        (report.op(quiet_devs), report.op(traced_devs))
    else {
        return;
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let (mut rounds, mut quiet_s, mut traced_s, mut traced_cpu) = (0u64, 0.0, 0.0, 0.0);
    while rounds == 0 || t0.elapsed() < budget {
        let start = Instant::now();
        for s in streams {
            let out = quiet_devs[s.design].try_run_throughput(s.context, &s.stimulus, WIDTH, 1);
            check(report, out, s, designs);
        }
        quiet_s += start.elapsed().as_secs_f64();
        let clock = Clock::start();
        let root = spans.open("round", None, rounds);
        for (k, s) in streams.iter().enumerate() {
            let span = spans.open("stream", root, rounds * streams.len() as u64 + k as u64);
            let out = traced_devs[s.design].try_run_throughput(s.context, &s.stimulus, WIDTH, 1);
            spans.close(span);
            check(report, out, s, designs);
        }
        spans.close(root);
        let (wall, cpu) = clock.read();
        traced_s += wall;
        traced_cpu += cpu;
        rounds += 1;
    }
    let totals = spans.layers();
    let stream = totals.get("stream").copied().unwrap_or_default();
    let round = totals.get("round").copied().unwrap_or_default();
    let vectors = rounds as f64 * streams.len() as f64 * VECTORS_PER_CALL as f64;
    // Chunk-ops each step executes in the kernel variant the devices run;
    // one chunk-op covers WIDTH words of 64 lanes, so a vector costs
    // chunk-ops / 64 word operations.
    let mut chunk_ops = 0.0;
    for s in streams {
        let dev = &quiet_devs[s.design];
        if let Some(st) = report.op(dev
            .kernel_optimize_stats(s.context)
            .map_err(|e| e.to_string()))
        {
            chunk_ops += if dev.kernel_options().optimize {
                st.word_ops_after
            } else {
                st.word_ops_before
            } as f64;
        }
    }
    l.set("sim.stream.self_ms", stream.self_ms() / rounds as f64);
    l.set("sim.stream.ns_per_vector", stream.self_ns as f64 / vectors);
    l.set(
        "sim.stream.word_ops_per_vector",
        chunk_ops / streams.len() as f64 / LANES as f64,
    );
    l.set("sim.cpu_per_wall", traced_cpu / traced_s);
    l.set("obs.overhead_frac", traced_s / quiet_s - 1.0);
    l.set(
        "trace.residual_frac",
        round.self_ns as f64 / round.wall_ns.max(1) as f64,
    );
    report.note(format!(
        "sim-stream traced: {rounds} rounds, {} program words counted",
        rec.report("sim").counter("sim.throughput_words")
    ));
    for line in spans.table() {
        report.note(line);
    }
    crate::write_spans(args, &spans, report);
    l.emit(report);
}

fn check(
    report: &mut Report,
    out: Result<Vec<u64>, mcfpga::sim::SimError>,
    s: &Stream,
    designs: &[Design],
) {
    if let Some(out) = report.op(out.map_err(|e| e.to_string())) {
        if out != s.expected {
            report.fail(format!(
                "{} context {}: stream diverges from the width-1 reference",
                designs[s.design].label, s.context
            ));
        }
    }
}
