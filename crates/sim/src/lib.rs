//! Configured-fabric simulation: the end-to-end device model.
//!
//! [`MultiDevice`] is the one compiled device. It compiles a multi-context
//! workload onto an architecture in either of two flows — an aligned
//! workload (one netlist per context, sharing one structure) with a shared
//! cover, cross-context plane sharing and one placement and routing, or
//! independent circuits mapped, placed and routed per context — and builds
//! logic blocks with locally controlled MCMG-LUTs (plane selection through
//! real RCM decoder netlists) and extracts the switch columns. It then
//! *runs*: clock it with inputs, one vector at a time or 64 lanes per word
//! through a compiled bit-parallel kernel, and switch contexts at any
//! cycle — the DPGA execution model the paper builds on.
//!
//! The simulator is the reproduction's correctness anchor: integration
//! tests drive the same stimuli through the device and through each
//! context's reference netlist and require bit-exact agreement, and the
//! routing check re-derives net connectivity purely from per-switch
//! configuration state.

pub mod equivalence;
pub mod error;
pub mod faults;
pub mod kernel;
pub mod multi;
pub mod observe;
pub mod optimize;
pub mod temporal;

pub use equivalence::{
    check_device_equivalence, check_device_equivalence_batch, EquivalenceCheckError,
    EquivalenceError,
};
pub use error::{CompileError, Error};
pub use faults::{lut_fault_campaign, CampaignReport, LutFault};
pub use kernel::{kernel_isa, CompiledKernel, KernelScratch, LANES, SUPPORTED_WIDTHS};
pub use multi::{
    CompileOptions, CompileReport, ContextArtifacts, DeltaSeed, DeltaStats, MultiDevice, SimError,
};
pub use observe::{
    captures_to_waveform, switch_energy_pj, ActivityReport, LutActivity, ProbeCapture, ProbeSet,
    ReconfigEnergy, DEFAULT_PROBE_CAPACITY, SWITCH_ENERGY_PJ_PER_BIT,
};
pub use optimize::{KernelOptions, OptimizeStats};
pub use temporal::FabricTemporalExecutor;

/// Device-level tests of the aligned compile flow
/// ([`MultiDevice::compile_aligned`], [`MultiDevice::compile_adaptive`]).
#[cfg(test)]
mod device {
    mod tests {
        use crate::*;
        use mcfpga_arch::ArchSpec;
        use mcfpga_netlist::{library, workload, RandomNetlistParams};

        fn arch() -> ArchSpec {
            ArchSpec::paper_default()
        }

        #[test]
        fn compile_and_run_single_circuit() {
            let add = library::adder(4);
            let mut dev =
                MultiDevice::compile_aligned(&arch(), std::slice::from_ref(&add)).unwrap();
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
            let mut dev = MultiDevice::compile_aligned(&arch(), &w).unwrap();
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
            let mut dev = MultiDevice::compile_aligned(&arch(), &[cnt.clone(), cnt]).unwrap();
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
            let dev = MultiDevice::compile_aligned(&arch(), &w).unwrap();
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
            let shared_dev =
                MultiDevice::compile_adaptive(&arch, &vec![circuit.clone(); 4]).unwrap();
            assert_eq!(shared_dev.report().granularity, 6);
            // And uses fewer LUTs than the fixed k=4 compile.
            let fixed = MultiDevice::compile_aligned(&arch, &vec![circuit.clone(); 4]).unwrap();
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
            let divergent = MultiDevice::compile_adaptive(&arch, &w).unwrap();
            assert!(divergent.report().granularity < 6);
        }

        #[test]
        fn adaptive_devices_stay_equivalent() {
            let arch = ArchSpec::paper_default();
            let contexts = vec![library::popcount(6); 4];
            let mut dev = MultiDevice::compile_adaptive(&arch, &contexts).unwrap();
            crate::equivalence::check_device_equivalence(&mut dev, &contexts, 40, 9).unwrap();
        }

        #[test]
        fn empty_workload_is_rejected() {
            assert!(matches!(
                MultiDevice::compile_aligned(&arch(), &[]),
                Err(CompileError::EmptyWorkload)
            ));
        }

        #[test]
        fn reset_restores_initial_state() {
            let cnt = library::counter(3);
            let mut dev = MultiDevice::compile_aligned(&arch(), &[cnt]).unwrap();
            dev.step(&[true]);
            dev.step(&[true]);
            dev.reset();
            let out = dev.step(&[false]);
            assert!(out.iter().all(|&b| !b), "counter back at zero");
        }
    }

    mod activity_tests {
        use crate::*;
        use mcfpga_arch::ArchSpec;
        use mcfpga_netlist::library;

        #[test]
        fn toggle_rate_tracks_activity() {
            let arch = ArchSpec::paper_default();
            let contexts = vec![library::parity(8); 4];
            let mut dev = MultiDevice::compile_aligned(&arch, &contexts).unwrap();
            dev.enable_activity_census();
            // Constant inputs: after the first cycle nothing toggles.
            for _ in 0..10 {
                dev.step(&[false; 8]);
            }
            let quiet = dev.toggle_rate(0);
            dev.reset();
            // Pseudo-random inputs: the XOR tree churns.
            let mut lfsr = 0xACE1u16;
            for _ in 0..40 {
                let inputs: Vec<bool> = (0..8).map(|i| (lfsr >> i) & 1 == 1).collect();
                dev.step(&inputs);
                let bit = (lfsr ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1;
                lfsr = (lfsr >> 1) | (bit << 15);
            }
            let busy = dev.toggle_rate(0);
            assert!(busy > quiet, "busy {busy} vs quiet {quiet}");
            assert!(quiet < 0.1);
            assert!(busy > 0.2);
        }

        #[test]
        fn toggle_rate_is_zero_not_nan_before_any_cycle() {
            // Regression: cycles == 0 must short-circuit, never divide.
            let arch = ArchSpec::paper_default();
            let mut dev =
                MultiDevice::compile_aligned(&arch, &vec![library::parity(4); 2]).unwrap();
            dev.enable_activity_census();
            let rate = dev.toggle_rate(0);
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
            let mut dev = MultiDevice::compile_aligned(&arch, &vec![wire; 2]).unwrap();
            assert_eq!(dev.n_lbs(), 0, "no LUTs, no logic blocks");
            dev.enable_activity_census();
            let out = dev.step(&[true]);
            assert_eq!(out, vec![true]);
            dev.step_batch(&[u64::MAX]);
            assert_eq!(
                dev.activity_census(0).unwrap().lane_cycles,
                1 + LANES as u64
            );
            let rate = dev.toggle_rate(0);
            assert!(!rate.is_nan(), "LUT-less device produced NaN");
            assert_eq!(rate, 0.0);
        }

        #[test]
        fn context_switch_toggles_match_column_changes() {
            let arch = ArchSpec::paper_default();
            let contexts = vec![library::adder(4); 4];
            let dev = MultiDevice::compile_aligned(&arch, &contexts).unwrap();
            // Identical contexts: switching flips no configuration bit.
            assert_eq!(dev.switch_state_bits(0), dev.switch_state_bits(3));
            assert_eq!(dev.switch_state_bits(1), dev.switch_state_bits(2));
        }

        #[test]
        fn census_baseline_is_shared_across_aligned_contexts() {
            // Aligned contexts share LUT positions and one register file, so
            // each step is compared with the previous one whichever context
            // ran it: the same inputs in another context toggle nothing.
            let arch = ArchSpec::paper_default();
            let contexts = vec![library::parity(8); 4];
            let mut dev = MultiDevice::compile_aligned(&arch, &contexts).unwrap();
            dev.enable_activity_census();
            let mut inputs = [false; 8];
            inputs[0] = true;
            dev.step(&inputs);
            assert!(dev.activity_census(0).unwrap().toggles_total > 0);
            dev.switch_context(1);
            dev.step(&inputs);
            let mut words = [0u64; 8];
            words[0] = u64::MAX;
            dev.step_batch(&words);
            let report = dev.activity_census(1).unwrap();
            assert_eq!(report.lane_cycles, 1 + LANES as u64);
            assert_eq!(report.toggles_total, 0);
            // `reset` clears the counters.
            dev.reset();
            assert_eq!(dev.activity_census(0).unwrap().lane_cycles, 0);
        }
    }
}
