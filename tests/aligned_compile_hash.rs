//! Aligned-compile regression: one hash over a fixed set of seeded designs.
//!
//! The aligned flow (shared-cover mapping, one placement and one routing
//! replicated to every context, plane grouping per logic block) is a
//! deterministic function of `(arch, workload)`. This test compiles fixed-`k`
//! and adaptive designs over random workloads at several change rates and
//! DFF fractions, library circuits replicated in every context, a
//! two-circuit workload padded to four contexts and a LUT-less netlist, then
//! folds into one FNV-1a hash every `CompileReport` field, the switch
//! bitstream, each context's unoptimized kernel and the counts of a seeded
//! LUT fault campaign. Any change that moves one configuration bit, kernel
//! table or campaign outcome changes the hash.

use mcfpga::map::{map_workload, share_workload};
use mcfpga::netlist::{library, workload, Netlist, RandomNetlistParams};
use mcfpga::prelude::*;
use mcfpga::sim::{lut_fault_campaign, CompileReport, KernelOptions};

/// FNV-1a over every design of [`cases`], in order, as the aligned flow
/// produced them when this test was written.
const EXPECTED_HASH: u64 = 0x9ca5_de44_aa47_8942;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

fn params(n_gates: usize, dff_fraction: f64) -> RandomNetlistParams {
    RandomNetlistParams {
        n_inputs: 6,
        n_gates,
        n_outputs: 5,
        dff_fraction,
    }
}

/// A pure pass-through: maps to zero LUTs.
fn wire() -> Netlist {
    let mut n = Netlist::new("wire");
    let a = n.input("a");
    n.output("y", a);
    n
}

/// `(name, workload, adaptive)`, in hash order.
fn cases() -> Vec<(String, Vec<Netlist>, bool)> {
    let mut out = Vec::new();
    let strata = [
        (40, 0.05, 0.0),
        (40, 0.2, 0.2),
        (120, 0.5, 0.0),
        (120, 0.1, 0.1),
    ];
    for (i, &(gates, rate, dff)) in strata.iter().enumerate() {
        let w = workload(params(gates, dff), 4, rate, 40 + i as u64);
        out.push((format!("fixed {i}"), w.clone(), false));
        out.push((format!("adaptive {i}"), w, true));
    }
    for circuit in [library::alu(4), library::popcount(6), library::parity(8)] {
        out.push((
            format!("adaptive {}", circuit.name()),
            vec![circuit; 4],
            true,
        ));
    }
    let two = workload(params(60, 0.2), 2, 0.2, 7);
    out.push(("padded fixed".into(), two.clone(), false));
    out.push(("padded adaptive".into(), two, true));
    out.push(("lut-less fixed".into(), vec![wire(); 2], false));
    out.push(("lut-less adaptive".into(), vec![wire(); 2], true));
    out
}

fn padded(w: &[Netlist], n: usize) -> Vec<Netlist> {
    let mut p = w.to_vec();
    while p.len() < n {
        p.push(p.last().unwrap().clone());
    }
    p
}

/// Every report field. A LUT-less design has no logic block, so its block
/// count and controller cost are asserted separately instead.
fn hash_report(h: &mut Fnv1a, r: &CompileReport, lut_less: bool) {
    h.u64(r.granularity as u64);
    h.u64(r.n_luts as u64);
    if !lut_less {
        h.u64(r.n_lbs as u64);
        h.u64(r.controller_ses as u64);
    }
    h.u64(r.mean_planes.to_bits());
    h.debug(&r.plane_histogram);
    h.debug(&r.switch_stats);
    h.u64(r.routing_iterations as u64);
    h.u64(r.critical_delay.to_bits());
}

fn compile(arch: &ArchSpec, w: &[Netlist], adaptive: bool) -> MultiDevice {
    if adaptive {
        MultiDevice::compile_adaptive(arch, w).unwrap()
    } else {
        MultiDevice::compile_aligned(arch, w).unwrap()
    }
}

fn unoptimized_kernels(dev: &mut MultiDevice) -> Vec<String> {
    dev.set_kernel_options(KernelOptions::new().with_optimize(false));
    (0..dev.n_contexts())
        .map(|c| format!("{:?}", dev.kernel(c).unwrap()))
        .collect()
}

#[test]
fn aligned_compiles_hash_to_the_recorded_constant() {
    let arch = ArchSpec::paper_default();
    let mut h = Fnv1a::new();
    for (i, (name, w, adaptive)) in cases().into_iter().enumerate() {
        let lut_less = name.starts_with("lut-less");
        let mut dev = compile(&arch, &w, adaptive);
        let report = dev.report();
        hash_report(&mut h, &report, lut_less);
        h.debug(&dev.switch_bitstream());
        for k in unoptimized_kernels(&mut dev) {
            h.bytes(k.as_bytes());
        }
        let campaign = lut_fault_campaign(&mut dev, &w, 16, 40, 500 + i as u64);
        if lut_less {
            assert_eq!((report.n_lbs, report.controller_ses), (0, 0), "{name}");
            assert_eq!(campaign.injected, 0, "{name}: no block to upset");
        } else {
            h.u64(campaign.injected as u64);
            h.u64(campaign.detected as u64);
            h.u64(campaign.silent as u64);
        }
        // The report's plane demand is the cross-context sharing of the
        // workload mapped with one shared cover.
        let shared = share_workload(
            &map_workload(&padded(&w, arch.n_contexts), report.granularity).unwrap(),
        );
        assert_eq!(report.mean_planes, shared.mean_planes(), "{name}");
        assert_eq!(report.plane_histogram, shared.plane_histogram(), "{name}");
    }
    assert_eq!(h.0, EXPECTED_HASH, "got {:#018x}", h.0);
}
