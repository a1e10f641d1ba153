//! The per-layer metric table printed by a traced run.
//!
//! Every traced run prints every name below, whatever its workload; a layer
//! the workload never enters reads 0 (see the table in the README for which
//! layers each workload reaches).

use std::collections::BTreeMap;

use crate::machine::Machine;
use crate::report::Report;

/// `(name, unit)` of every per-layer metric, in output order. Must match
/// `per_layer` in `BENCHMARK.json` (checked by a unit test).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("map.self_ms", "ms"),
    ("map.luts", "count"),
    ("place.self_ms", "ms"),
    ("place.share", "fraction"),
    ("place.us_per_block", "us"),
    ("place.anneal_steps", "count"),
    ("route.self_ms", "ms"),
    ("route.iterations", "count"),
    ("route.us_per_net", "us"),
    ("columns.self_ms", "ms"),
    ("columns.count", "count"),
    ("columns.change_rate", "fraction"),
    ("assemble.residual_ms", "ms"),
    ("rcm.self_ms", "ms"),
    ("rcm.ses_total", "count"),
    ("area.self_ms", "ms"),
    ("compile.cpu_per_wall", "ratio"),
    ("compile.parallel_speedup", "ratio"),
    ("sim.kernel_build_ms", "ms"),
    ("sim.optimize.word_ops_before", "count"),
    ("sim.optimize.word_ops_after", "count"),
    ("sim.stream.self_ms", "ms"),
    ("sim.stream.ns_per_vector", "ns"),
    ("sim.stream.word_ops_per_vector", "count"),
    ("sim.cpu_per_wall", "ratio"),
    ("sim.switch.count", "count"),
    ("sim.switch.self_us", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.compile.job_ms_p99", "ms"),
    ("serve.sim.job_ms_p99", "ms"),
    ("serve.checkpoint.job_ms_p99", "ms"),
    ("serve.restore.job_ms_p99", "ms"),
    ("serve.cache.hit_ratio", "fraction"),
    ("serve.cache.near_hit_ratio", "fraction"),
    ("serve.cache.evictions", "count"),
    ("serve.delta.contexts_reused", "count"),
    ("serve.restore.recompile_ratio", "fraction"),
    ("load.lag_ms_p99", "ms"),
    ("load.backlog_max", "count"),
    ("obs.overhead_frac", "fraction"),
    ("trace.residual_frac", "fraction"),
    ("machine.nproc", "count"),
    ("machine.available_parallelism", "count"),
    ("machine.effective_parallelism", "ratio"),
];

/// Per-layer values being filled in by a traced run; unset names read 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new(machine: &Machine) -> Layers {
        let mut l = Layers::default();
        l.set("machine.nproc", machine.nproc as f64);
        l.set(
            "machine.available_parallelism",
            machine.available_parallelism as f64,
        );
        l.set(
            "machine.effective_parallelism",
            machine.effective_parallelism,
        );
        l
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Move every per-layer metric into `report`, in table order.
    pub fn emit(self, report: &mut Report) {
        for &(name, unit) in PER_LAYER {
            report.metric(name, self.get(name), unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table above and `BENCHMARK.json` name the same metrics in the
    /// same units.
    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = json
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section");
        for &(name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            section.matches("\"name\"").count(),
            PER_LAYER.len(),
            "BENCHMARK.json lists per-layer metrics the code does not emit"
        );
    }
}
