//! `serve-sessions`: an open loop of tenant sessions into a `Server` with
//! default config.
//!
//! Arrivals follow a seeded Poisson schedule at a fixed offered rate, from
//! one generator thread; one collector thread waits on the job handles and
//! stamps each completion with the client's clock. Each tenant's jobs run
//! in order: a job
//! whose tenant still has one in flight waits client-side and is submitted
//! when that one completes, because a session's sim outputs depend on its
//! earlier jobs. Latency counts from each job's due time. Most jobs are
//! short `Sim` bursts that switch contexts; a share are `Compile` jobs that
//! are exact repeats, one-context perturbations or new designs; a share are
//! `Checkpoint` jobs, each followed by a `Restore` of its snapshot.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use mcfpga::obs::Recorder;
use mcfpga::sim::{CompileOptions, MultiDevice};
use mcfpga_serve::{
    CheckpointJob, CompileJob, JobHandle, Outcome, Request, RestoreJob, ServeConfig, ServeError,
    Server, SessionId, SessionSnapshot, SimJob,
};

use crate::compile_cold::compile_layers;
use crate::designs::{perturb_one, serve_pool, Design};
use crate::layers::Layers;
use crate::pipeline::compile_pipeline;
use crate::report::Report;
use crate::rng::SplitMix;
use crate::stats::{percentile, DueTiming, Summary};
use crate::trace::Tracer;
use crate::{timed_setup, Args, Machine};

/// Tenants, each with one live session at a time.
const TENANTS: usize = 8;
/// Distinct base designs: more than the default cache capacity (32).
const POOL: usize = 40;
/// Offered load, jobs per second, over all tenants.
const RATE_PER_S: f64 = 300.0;
/// Shares of arrivals; the rest are checkpoint/restore pairs. Compiles are
/// rare enough that they occupy the workers a minority of the time, so the
/// median job is a sim burst that did not queue behind one.
const SIM_SHARE: f64 = 0.91;
const COMPILE_SHARE: f64 = 0.05;
/// Shares of compile jobs that repeat an earlier design exactly, or
/// perturb one context of the current one; the rest load a new design.
const REPEAT_SHARE: f64 = 0.4;
const PERTURB_SHARE: f64 = 0.3;
/// Cycles per sim burst (each cycle is one 64-lane input word per input).
const BURST_CYCLES: (usize, usize) = (256, 1024);
/// A job is late beyond this latency from its due time.
const LATE_MS: f64 = 50.0;
/// Tail percentile of job latency.
const TAIL_Q: f64 = 0.99;
/// Measurement windows by due time, in nanoseconds: about 1500 jobs each.
const WINDOW_NS: u64 = 5_000_000_000;
/// How often the collector looks at the jobs behind the oldest one in
/// flight. The oldest is waited on directly, so its completion is stamped
/// when it is signalled; a later job that completes first is stamped at
/// most this late.
const POLL: Duration = Duration::from_micros(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Sim,
    Compile,
    Checkpoint,
    Restore,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Sim => "sim",
            Kind::Compile => "compile",
            Kind::Checkpoint => "checkpoint",
            Kind::Restore => "restore",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    due: u64,
    tenant: usize,
    kind: Kind,
}

/// Poisson arrivals over `seconds` (nanoseconds from the run's origin).
/// Checkpoints carry no restore here: the restore is submitted when its
/// checkpoint completes.
fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed ^ 0x5E55);
    let end = (seconds * 1e9) as u64;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / RATE_PER_S * 1e9;
        if t as u64 >= end {
            return out;
        }
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        let kind = if u < SIM_SHARE {
            Kind::Sim
        } else if u < SIM_SHARE + COMPILE_SHARE {
            Kind::Compile
        } else {
            Kind::Checkpoint
        };
        out.push(Arrival {
            due: t as u64,
            tenant: rng.below(TENANTS),
            kind,
        });
    }
}

/// A sim burst's input words, regenerated from a seed when needed.
#[derive(Debug, Clone, Copy)]
struct Stimulus {
    seed: u64,
    cycles: usize,
    inputs: usize,
}

impl Stimulus {
    fn words(&self) -> Vec<Vec<u64>> {
        let mut rng = SplitMix::new(self.seed);
        (0..self.cycles).map(|_| rng.words(self.inputs)).collect()
    }
}

/// FNV-1a over a burst's output words.
fn hash_outputs(outputs: &[Vec<u64>]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for word in outputs.iter().flatten() {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// What a tenant's session did, in order, for the replay check.
enum Event {
    /// A fresh session on `design` (registry index).
    Open(usize),
    /// A sim burst: its stimulus seed and length, and a hash of the
    /// served outputs.
    Sim {
        context: usize,
        stimulus: Stimulus,
        outputs: u64,
    },
    /// A checkpoint's per-context register lanes.
    Checkpoint(Vec<Vec<u64>>),
    /// The restored session continues from the last checkpoint.
    Restore,
}

/// What a submitted job needs when it completes.
enum Detail {
    Sim { context: usize, stimulus: Stimulus },
    Compile { design: usize },
    Checkpoint,
    Restore { switch_fp: u64 },
}

/// A submitted job's client-side record, kept by its tenant while the
/// collector holds its handle.
struct InFlight {
    kind: Kind,
    due: u64,
    submitted: u64,
    submit_end: u64,
    on_arrival: bool,
    detail: Detail,
}

/// A job the collector saw complete: its tenant, result and the client's
/// clock (ns from the run's origin) when the result was taken.
struct Completion {
    tenant: usize,
    result: Result<Outcome, ServeError>,
    done: u64,
}

/// The collector thread: wait on every handle `jobs` delivers, in submit
/// order, and send each result back as soon as it is taken. Ends when
/// `jobs` is closed and nothing is left in flight.
fn collect(t0: Instant, jobs: Receiver<(usize, JobHandle<Outcome>)>, done: Sender<Completion>) {
    let now = || t0.elapsed().as_nanos() as u64;
    let mut waiting: VecDeque<(usize, JobHandle<Outcome>)> = VecDeque::new();
    loop {
        if waiting.is_empty() {
            match jobs.recv() {
                Ok(job) => waiting.push_back(job),
                Err(_) => return,
            }
        }
        waiting.extend(jobs.try_iter());
        let (tenant, oldest) = waiting.front().expect("one job in flight");
        if let Some(result) = oldest.wait_timeout(POLL) {
            let tenant = *tenant;
            let _ = done.send(Completion {
                tenant,
                result,
                done: now(),
            });
            waiting.pop_front();
        }
        waiting.retain(|(tenant, handle)| match handle.try_wait() {
            Some(result) => {
                let _ = done.send(Completion {
                    tenant: *tenant,
                    result,
                    done: now(),
                });
                false
            }
            None => true,
        });
    }
}

struct Tenant {
    name: String,
    rng: SplitMix,
    session: SessionId,
    /// Registry index of the live session's design.
    design: usize,
    /// Last context simulated.
    context: usize,
    history: Vec<usize>,
    new_designs: usize,
    snapshot: Option<SessionSnapshot>,
    inflight: Option<InFlight>,
    /// Jobs not yet submitted: `(due, kind, on_arrival)`, where
    /// `on_arrival` marks a job nothing of its tenant was ahead of.
    pending: VecDeque<(u64, Kind, bool)>,
    log: Vec<Event>,
    switches: u64,
}

/// One finished job.
#[derive(Debug, Clone, Copy)]
struct JobRecord {
    kind: Kind,
    job: u64,
    timing: DueTiming,
    submit_ns: u64,
    wait_us: u64,
    service_us: u64,
    on_arrival: bool,
    ok: bool,
    /// Refused at `submit` (never queued).
    refused: bool,
}

/// What one load phase produced.
struct Load {
    tenants: Vec<Tenant>,
    registry: Vec<Design>,
    records: Vec<JobRecord>,
    backlog_max: usize,
    elapsed_s: f64,
}

/// Start a server and open one session per tenant on its first pool design.
fn start(registry: &[Design], rec: &Recorder, seed: u64) -> Result<(Server, Vec<Tenant>), String> {
    let server = Server::with_recorder(ServeConfig::default(), rec);
    let mut tenants = Vec::with_capacity(TENANTS);
    for (t, d) in registry.iter().enumerate().take(TENANTS) {
        let name = format!("tenant{t}");
        let outcome = server
            .submit(CompileJob::new(d.arch.clone(), d.circuits.clone()).with_tenant(name.clone()))
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| e.to_string())?
            .into_compile()
            .ok_or("compile job returned another outcome")?;
        tenants.push(Tenant {
            name,
            rng: SplitMix::new(seed ^ (t as u64 + 1) << 20),
            session: outcome.session,
            design: t,
            context: 0,
            history: vec![t],
            new_designs: 1,
            snapshot: None,
            inflight: None,
            pending: VecDeque::new(),
            log: vec![Event::Open(t)],
            switches: 0,
        });
    }
    Ok((server, tenants))
}

/// Build and submit tenant `tn`'s next job; the handle of an accepted job
/// is returned for the collector.
fn submit(
    server: &Server,
    tn: &mut Tenant,
    tenant_index: usize,
    registry: &mut Vec<Design>,
    (due, kind, on_arrival): (u64, Kind, bool),
    now: &dyn Fn() -> u64,
    records: &mut Vec<JobRecord>,
) -> Option<JobHandle<Outcome>> {
    let (request, detail): (Request, Detail) = match kind {
        Kind::Sim => {
            let d = &registry[tn.design];
            let n = d.circuits.len();
            let context = if tn.rng.chance(0.5) {
                (tn.context + 1 + tn.rng.below(n - 1)) % n
            } else {
                tn.context
            };
            let stimulus = Stimulus {
                seed: tn.rng.next(),
                cycles: BURST_CYCLES.0 + tn.rng.below(BURST_CYCLES.1 - BURST_CYCLES.0 + 1),
                inputs: d.circuits[context].inputs().len(),
            };
            let job =
                SimJob::new(tn.session, context, stimulus.words()).with_tenant(tn.name.clone());
            (job.into(), Detail::Sim { context, stimulus })
        }
        Kind::Compile => {
            let repeat = tn.rng.chance(REPEAT_SHARE) && tn.history.len() > 1;
            let design = if repeat {
                tn.history[tn.rng.below(tn.history.len())]
            } else if tn.rng.chance(PERTURB_SHARE / (1.0 - REPEAT_SHARE)) {
                let base = &registry[tn.design];
                let context = tn.rng.below(base.circuits.len());
                let perturbed = perturb_one(base, context, 0.1, tn.rng.next());
                registry.push(perturbed);
                registry.len() - 1
            } else {
                let d = (tenant_index + TENANTS * tn.new_designs) % POOL;
                tn.new_designs += 1;
                d
            };
            let d = &registry[design];
            let job =
                CompileJob::new(d.arch.clone(), d.circuits.clone()).with_tenant(tn.name.clone());
            (job.into(), Detail::Compile { design })
        }
        Kind::Checkpoint => (
            CheckpointJob::new(tn.session)
                .with_tenant(tn.name.clone())
                .into(),
            Detail::Checkpoint,
        ),
        Kind::Restore => {
            let snapshot = tn
                .snapshot
                .take()
                .expect("a restore is queued only by a completed checkpoint");
            let switch_fp = snapshot.switch_fp;
            (
                RestoreJob::new(snapshot)
                    .with_tenant(tn.name.clone())
                    .into(),
                Detail::Restore { switch_fp },
            )
        }
    };
    let submitted = now();
    let result = server.submit(request);
    let submit_end = now();
    match result {
        Ok(handle) => {
            tn.inflight = Some(InFlight {
                kind,
                due,
                submitted,
                submit_end,
                on_arrival,
                detail,
            });
            Some(handle)
        }
        // Refused: a failed job, late by definition.
        Err(_) => {
            records.push(JobRecord {
                kind,
                job: 0,
                timing: DueTiming {
                    due,
                    submitted,
                    done: submit_end,
                },
                submit_ns: submit_end - submitted,
                wait_us: 0,
                service_us: 0,
                on_arrival,
                ok: false,
                refused: true,
            });
            None
        }
    }
}

/// Account a completed job and advance its tenant's session.
fn finish(
    server: &Server,
    tn: &mut Tenant,
    f: InFlight,
    Completion { result, done, .. }: Completion,
    report: &mut Report,
) -> JobRecord {
    // The server's own wait and service times feed only the per-layer rows.
    let (job, wait_us, service_us) = match &result {
        Ok(o) => (o.job().raw(), o.wait_us(), o.service_us()),
        Err(_) => (0, 0, 0),
    };
    let mut ok = true;
    match (f.detail, result) {
        (Detail::Sim { context, stimulus }, Ok(Outcome::Sim(o))) => {
            if context != tn.context {
                tn.switches += 1;
            }
            tn.context = context;
            tn.log.push(Event::Sim {
                context,
                stimulus,
                outputs: hash_outputs(&o.outputs),
            });
        }
        (Detail::Compile { design }, Ok(Outcome::Compile(o))) => {
            server.close_session(tn.session);
            tn.session = o.session;
            tn.design = design;
            tn.context = 0;
            if !tn.history.contains(&design) {
                tn.history.push(design);
            }
            tn.log.push(Event::Open(design));
        }
        (Detail::Checkpoint, Ok(Outcome::Checkpoint(o))) => {
            tn.log.push(Event::Checkpoint(o.snapshot.regs.clone()));
            tn.snapshot = Some(o.snapshot);
            // The restore goes next, due the moment its checkpoint is done.
            tn.pending.push_front((done, Kind::Restore, false));
        }
        (Detail::Restore { switch_fp }, Ok(Outcome::Restore(o))) => {
            if o.design.fingerprint() != switch_fp {
                report.fail(format!(
                    "{}: restore resolved a design with other switch bits",
                    tn.name
                ));
            }
            server.close_session(tn.session);
            tn.session = o.session;
            tn.log.push(Event::Restore);
        }
        (_, Err(e)) => {
            ok = false;
            report.fail(format!("{} {} job failed: {e}", tn.name, f.kind.name()));
        }
        (_, Ok(_)) => {
            ok = false;
            report.fail(format!(
                "{} {} job: wrong outcome kind",
                tn.name,
                f.kind.name()
            ));
        }
    }
    JobRecord {
        kind: f.kind,
        job,
        timing: DueTiming {
            due: f.due,
            submitted: f.submitted,
            done,
        },
        submit_ns: f.submit_end - f.submitted,
        wait_us,
        service_us,
        on_arrival: f.on_arrival,
        ok,
        refused: false,
    }
}

/// Sleep until `target` ns from `t0`. Timer slack makes the generator a
/// little late; that lag is measured and counted in every job's latency.
fn sleep_until(t0: Instant, target: u64) {
    if let Some(nap) = Duration::from_nanos(target).checked_sub(t0.elapsed()) {
        std::thread::sleep(nap);
    }
}

/// Drive `arrivals` into `server` and wait for every job.
fn drive(
    server: &Server,
    arrivals: &[Arrival],
    mut tenants: Vec<Tenant>,
    mut registry: Vec<Design>,
    report: &mut Report,
) -> Load {
    let t0 = Instant::now();
    let now = || t0.elapsed().as_nanos() as u64;
    let mut records: Vec<JobRecord> = Vec::with_capacity(arrivals.len() * 2);
    let mut next = 0usize;
    let mut backlog_max = 0usize;
    let (jobs, collector_jobs) = mpsc::channel();
    let (collector_done, done) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || collect(t0, collector_jobs, collector_done));
        loop {
            let n = now();
            while next < arrivals.len() && arrivals[next].due <= n {
                let a = arrivals[next];
                next += 1;
                let tn = &mut tenants[a.tenant];
                let direct = tn.inflight.is_none() && tn.pending.is_empty();
                tn.pending.push_back((a.due, a.kind, direct));
            }
            // Submit each idle tenant's next waiting job.
            for (t, tn) in tenants.iter_mut().enumerate() {
                while tn.inflight.is_none() {
                    let Some(job) = tn.pending.pop_front() else {
                        break;
                    };
                    if let Some(handle) =
                        submit(server, tn, t, &mut registry, job, &now, &mut records)
                    {
                        jobs.send((t, handle))
                            .expect("the collector runs until the generator ends");
                    }
                }
            }
            backlog_max = backlog_max.max(tenants.iter().map(|t| t.pending.len()).sum());
            if tenants.iter().all(|t| t.inflight.is_none()) {
                if next == arrivals.len() {
                    break;
                }
                sleep_until(t0, arrivals[next].due);
                continue;
            }
            // Wait for a completion or the next arrival, whichever is first.
            let timeout = arrivals.get(next).map_or(Duration::MAX, |a| {
                Duration::from_nanos(a.due.saturating_sub(now()))
            });
            match done.recv_timeout(timeout) {
                Ok(c) => {
                    let tn = &mut tenants[c.tenant];
                    let f = tn.inflight.take().expect("a completed job was in flight");
                    records.push(finish(server, tn, f, c, report));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("the collector outlives the generator's sender")
                }
            }
        }
        // Closing the job channel ends the collector.
        drop(jobs);
    });
    Load {
        tenants,
        registry,
        records,
        backlog_max,
        elapsed_s: t0.elapsed().as_secs_f64(),
    }
}

/// Replay every session's jobs on private `MultiDevice`s compiled apart
/// from the server: each sim burst must produce the served outputs, and
/// each checkpoint must hold exactly the replayed register lanes, so the
/// restored session continues bit-identically. Returns the devices per
/// registry index and the `(switches, seconds)` spent in `switch_context`.
fn replay(load: &Load, report: &mut Report) -> (BTreeMap<usize, MultiDevice>, u64, f64) {
    let mut devices: BTreeMap<usize, MultiDevice> = BTreeMap::new();
    let (mut switches, mut switch_s) = (0u64, 0.0);
    for tn in &load.tenants {
        let mut current: Option<usize> = None;
        for ev in &tn.log {
            if let Event::Open(design) = ev {
                let d = &load.registry[*design];
                if !devices.contains_key(design) {
                    let compiled = MultiDevice::compile_opts(
                        &d.arch,
                        &d.circuits,
                        &CompileOptions::default(),
                        &Recorder::disabled(),
                    )
                    .map_err(|e| format!("{}: replay compile: {e}", d.label));
                    match compiled {
                        Ok(dev) => {
                            devices.insert(*design, dev);
                        }
                        Err(e) => report.fail(e),
                    }
                }
                current = devices.contains_key(design).then_some(*design);
                if let Some(dev) = current.and_then(|k| devices.get_mut(&k)) {
                    dev.reset();
                }
                continue;
            }
            let Some(dev) = current.and_then(|k| devices.get_mut(&k)) else {
                continue;
            };
            match ev {
                Event::Sim {
                    context,
                    stimulus,
                    outputs,
                } => {
                    if dev.active_context() != *context {
                        let start = Instant::now();
                        let switched = dev.try_switch_context(*context);
                        switch_s += start.elapsed().as_secs_f64();
                        switches += 1;
                        if let Err(e) = switched {
                            report.fail(format!("{}: replay switch: {e}", tn.name));
                            continue;
                        }
                    }
                    let replayed: Result<Vec<Vec<u64>>, _> = stimulus
                        .words()
                        .iter()
                        .map(|w| dev.try_step_batch(w))
                        .collect();
                    if replayed.map(|r| hash_outputs(&r)).ok() != Some(*outputs) {
                        report.fail(format!(
                            "{}: served sim outputs diverge from the replay",
                            tn.name
                        ));
                    }
                }
                Event::Checkpoint(regs) => {
                    for (c, lanes) in regs.iter().enumerate() {
                        if dev.lane_registers(c).ok().as_ref() != Some(lanes) {
                            report.fail(format!(
                                "{}: checkpoint registers differ from the replay in context {c}",
                                tn.name
                            ));
                        }
                    }
                }
                Event::Open(_) | Event::Restore => {}
            }
        }
    }
    (devices, switches, switch_s)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Due-time latencies in ms of the successful jobs matching `keep`.
fn latencies(records: &[JobRecord], keep: impl Fn(&JobRecord) -> bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.ok && keep(r))
        .map(|r| ms(r.timing.latency()))
        .collect()
}

fn p99(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.99).unwrap_or(0.0)
}

fn account(load: &Load, report: &mut Report) {
    report.attempted += load.records.len() as u64;
    for r in load.records.iter().filter(|r| r.refused) {
        report.fail(format!("{} job refused at submit", r.kind.name()));
    }
    let late = load
        .records
        .iter()
        .filter(|r| !r.ok || ms(r.timing.latency()) > LATE_MS)
        .count();
    let mut by_kind: BTreeMap<Kind, usize> = BTreeMap::new();
    for r in &load.records {
        *by_kind.entry(r.kind).or_default() += 1;
    }
    report.note(format!(
        "serve-sessions: {} jobs in {:.2} s ({:?}); late (> {LATE_MS} ms or failed) {:.4}; backlog max {}",
        load.records.len(),
        load.elapsed_s,
        by_kind,
        late as f64 / load.records.len().max(1) as f64,
        load.backlog_max
    ));
}

pub fn run(args: &Args, machine: &Machine, report: &mut Report) {
    let base = serve_pool(POOL);
    let workers = ServeConfig::default().resolved_workers();
    if workers > machine.nproc {
        report.fail(format!(
            "{workers} serve workers exceed nproc {}",
            machine.nproc
        ));
    }
    if args.trace {
        traced(args, machine, base, report);
        return;
    }
    let (setup_s, started) = timed_setup(|| start(&base, &Recorder::disabled(), args.seed));
    let Some((server, tenants)) = report.op(started) else {
        return;
    };
    let arrivals = schedule(args.seed, args.seconds);
    let load = drive(&server, &arrivals, tenants, base, report);
    drop(server);
    // Before the replay, whose private devices are the benchmark's own.
    let rss_mb = crate::machine::peak_rss_mb();
    account(&load, report);
    replay(&load, report);
    // Model outputs of the fixed base pool, so they do not depend on which
    // perturbations a seed happened to draw.
    let models: Vec<_> = load.registry[..POOL]
        .iter()
        .filter_map(|d| report.op(compile_pipeline(d, &CompileOptions::default())))
        .map(|c| c.model)
        .collect();
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for r in load.records.iter().filter(|r| r.ok) {
        let w = (r.timing.due / WINDOW_NS) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(ms(r.timing.latency()));
    }
    report.note(format!(
        "serve-sessions: op = one job, due time to completion; {workers} workers, {TENANTS} tenants, {RATE_PER_S}/s offered"
    ));
    crate::end_to_end(
        report,
        setup_s,
        rss_mb,
        Summary::windowed(&windows, TAIL_Q),
        |s| s.p50,
        &models,
    );
}

fn traced(args: &Args, machine: &Machine, base: Vec<Design>, report: &mut Report) {
    let arrivals = schedule(args.seed, args.seconds / 2.0);
    // Untraced half: a server with a disabled recorder.
    let quiet = start(&base, &Recorder::disabled(), args.seed).map(|(server, tenants)| {
        let load = drive(&server, &arrivals, tenants, base.clone(), report);
        drop(server);
        load
    });
    // Traced half: the same schedule into a server recording into `rec`.
    let rec = Recorder::enabled();
    let traced = start(&base, &rec, args.seed).map(|(server, tenants)| {
        let load = drive(&server, &arrivals, tenants, base.clone(), report);
        let serve = server.report();
        drop(server);
        (load, serve)
    });
    let (Some(quiet), Some((load, serve))) = (report.op(quiet), report.op(traced)) else {
        return;
    };
    account(&quiet, report);
    account(&load, report);
    replay(&quiet, report);
    let (devices, replay_switches, switch_s) = replay(&load, report);

    let mut spans = Tracer::new(true);
    for r in &load.records {
        let t = r.timing;
        let root = spans.record("job", None, r.job, t.due, t.done);
        spans.record(
            "submit",
            root,
            r.job,
            t.submitted,
            t.submitted + r.submit_ns,
        );
        let queued = t.submitted + r.submit_ns;
        let served = queued + r.wait_us * 1_000;
        spans.record("wait", root, r.job, queued, served);
        let serviced = served + r.service_us * 1_000;
        spans.record("service", root, r.job, served, serviced);
        // From the end of service, as the server stamps it, to the client
        // taking the result.
        spans.record("complete", root, r.job, serviced, t.done.max(serviced));
    }
    let totals = spans.layers();
    let job = totals.get("job").copied().unwrap_or_default();

    let mut l = Layers::new(machine);
    // Compile layers over every distinct design the traced half compiled.
    let designs: Vec<Design> = devices.keys().map(|&k| load.registry[k].clone()).collect();
    let order: Vec<usize> = (0..designs.len()).collect();
    let mut compile_spans = Tracer::new(true);
    compile_layers(&designs, &order, None, &mut compile_spans, &mut l, report);

    let kind_p99 = |k: Kind| p99(latencies(&load.records, |r| r.kind == k));
    l.set(
        "serve.submit_us_p99",
        p99(load
            .records
            .iter()
            .map(|r| r.submit_ns as f64 / 1e3)
            .collect()),
    );
    l.set(
        "serve.wait_ms_p99",
        p99(load
            .records
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.wait_us as f64 / 1e3)
            .collect()),
    );
    l.set("serve.compile.job_ms_p99", kind_p99(Kind::Compile));
    l.set("serve.sim.job_ms_p99", kind_p99(Kind::Sim));
    l.set("serve.checkpoint.job_ms_p99", kind_p99(Kind::Checkpoint));
    l.set("serve.restore.job_ms_p99", kind_p99(Kind::Restore));
    let lookups = (serve.cache_hits + serve.cache_misses).max(1) as f64;
    l.set("serve.cache.hit_ratio", serve.cache_hits as f64 / lookups);
    l.set(
        "serve.cache.near_hit_ratio",
        serve.cache_near_hits as f64 / lookups,
    );
    l.set("serve.cache.evictions", serve.cache_evictions as f64);
    l.set(
        "serve.delta.contexts_reused",
        serve.delta_contexts_reused as f64,
    );
    l.set(
        "serve.restore.recompile_ratio",
        serve.restore_recompiles as f64 / serve.restores.max(1) as f64,
    );
    l.set(
        "load.lag_ms_p99",
        p99(load
            .records
            .iter()
            .filter(|r| r.on_arrival)
            .map(|r| ms(r.timing.lag()))
            .collect()),
    );
    l.set("load.backlog_max", load.backlog_max as f64);
    l.set(
        "sim.switch.count",
        load.tenants.iter().map(|t| t.switches).sum::<u64>() as f64,
    );
    l.set(
        "sim.switch.self_us",
        switch_s * 1e6 / replay_switches.max(1) as f64,
    );
    let median = |records: &[JobRecord]| {
        crate::stats::median(&latencies(records, |_| true)).unwrap_or(f64::NAN)
    };
    l.set(
        "obs.overhead_frac",
        median(&load.records) / median(&quiet.records) - 1.0,
    );
    l.set(
        "trace.residual_frac",
        job.self_ns as f64 / job.wall_ns.max(1) as f64,
    );
    report.note(format!(
        "serve-sessions traced: server report hits {} misses {} near {} evictions {} restores {}",
        serve.cache_hits,
        serve.cache_misses,
        serve.cache_near_hits,
        serve.cache_evictions,
        serve.restores
    ));
    for line in spans.table() {
        report.note(line);
    }
    crate::write_spans(args, &spans, report);
    l.emit(report);
}
