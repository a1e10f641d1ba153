//! One benchmark for the mcfpga compile, sim and serve pipelines.
//!
//! ```text
//! perfbench --workload <compile-cold|sim-stream|serve-sessions> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is a separate run that spans the calls into each layer and prints the
//! per-layer table. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and any divergence from
//! a reference makes the process exit non-zero.

mod compile_cold;
mod designs;
mod layers;
mod machine;
mod pipeline;
mod report;
mod rng;
mod serve_sessions;
mod sim_stream;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use machine::Machine;
use report::Report;
use stats::Summary;
use trace::Tracer;

/// `(name, unit)` of every end-to-end metric. Must match `end_to_end` in
/// `BENCHMARK.json` (checked by a unit test).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_ms", "ms"),
    ("area_ratio_cmos_geomean", "ratio"),
    ("critical_delay_geomean", "delay_unit"),
];

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 11;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where traced runs write their spans: `out/` beside this package's
/// manifest.
const SPANS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Run `setup` [`SETUP_REPEATS`] times; return the median wall time in
/// seconds and the last result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let value = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    let median = stats::median(&times).expect("at least one repeat");
    (median, last.expect("at least one repeat"))
}

/// Push every end-to-end metric: `rss_mb` is the peak resident size when
/// the measured work ended, `op` the workload's per-operation latency
/// summary and `headline` the figure of it that `op_ms` reports,
/// `models` the model outputs of its compiled designs.
pub fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    rss_mb: Option<f64>,
    op: Option<Summary>,
    headline: impl FnOnce(&Summary) -> f64,
    models: &[pipeline::ModelOutputs],
) {
    let Some(op) = op else {
        report.fail("too few samples for the tail percentile".into());
        return;
    };
    let geo = |f: fn(&pipeline::ModelOutputs) -> f64| {
        stats::geomean(&models.iter().map(f).collect::<Vec<_>>())
    };
    let (Some(area), Some(delay), Some(fepg)) = (
        geo(|m| m.area_ratio_cmos),
        geo(|m| m.critical_delay),
        geo(|m| m.area_ratio_fepg),
    ) else {
        report.fail("model outputs have no geometric mean".into());
        return;
    };
    report.note(format!(
        "op latency: n={} in {} windows; medians over windows of the window mean {:.4} ms, p50 {:.4} ms, p{} {:.4} ms; {} designs, FePG area ratio geomean {fepg:.4}",
        op.n,
        op.windows,
        op.mean,
        op.p50,
        op.tail_q * 100.0,
        op.tail,
        models.len()
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss_mb.unwrap_or(f64::NAN), "MiB");
    report.metric("op_ms", headline(&op), "ms");
    report.metric("area_ratio_cmos_geomean", area, "ratio");
    report.metric("critical_delay_geomean", delay, "delay_unit");
}

/// Write the traced run's spans, kept in memory until now, to
/// [`SPANS_DIR`].
pub fn write_spans(args: &Args, tracer: &Tracer, report: &mut Report) {
    let path = std::path::Path::new(SPANS_DIR)
        .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(SPANS_DIR).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => report.note(format!("spans: {} -> {}", tracer.len(), path.display())),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::calibrate();
    let mut report = Report::default();
    report.note(format!(
        "workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        machine.describe()
    ));
    match args.workload.as_str() {
        "compile-cold" => compile_cold::run(&args, &machine, &mut report),
        "sim-stream" => sim_stream::run(&args, &machine, &mut report),
        "serve-sessions" => serve_sessions::run(&args, &machine, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::END_TO_END;

    #[test]
    fn end_to_end_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = json
            .split("\"end_to_end\"")
            .nth(1)
            .and_then(|s| s.split("\"per_layer\"").next())
            .expect("end_to_end section");
        for &(name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(section.matches("\"name\"").count(), END_TO_END.len());
    }
}
