//! Machine calibration and process accounting: CPU counts, a measured
//! effective-parallelism probe, process CPU time and peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// What the machine reports and what it delivers.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// CPUs this process may run on (`Cpus_allowed_list`, as `nproc`).
    pub nproc: usize,
    /// `std::thread::available_parallelism()`.
    pub available_parallelism: usize,
    /// Measured: the throughput of `nproc` threads spinning at once over
    /// that of one thread alone; 1.0 means the extra CPUs deliver nothing.
    pub effective_parallelism: f64,
}

impl Machine {
    pub fn calibrate() -> Machine {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let nproc = allowed_cpus().unwrap_or(available_parallelism).max(1);
        Machine {
            nproc,
            available_parallelism,
            effective_parallelism: spin_probe(nproc),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} available_parallelism={} effective_parallelism={:.2}",
            self.nproc, self.available_parallelism, self.effective_parallelism
        )
    }
}

/// Count of CPUs in this process's affinity list.
fn allowed_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut n = 0;
    for part in list.split(',') {
        match part.split_once('-') {
            Some((a, b)) => n += b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                n += 1;
            }
        }
    }
    Some(n)
}

fn spin(units: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..units * 2_000_000 {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    x
}

/// Throughput of `threads` concurrent spinners relative to one, best of
/// three short trials each (about 0.1 s in all).
fn spin_probe(threads: usize) -> f64 {
    const UNITS: u64 = 4;
    let best = |n: usize| -> f64 {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    for _ in 0..n {
                        s.spawn(|| black_box(spin(UNITS)));
                    }
                });
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let one = best(1);
    let all = best(threads);
    threads as f64 * one / all
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // defines; clock_gettime writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed by every thread of this process so far.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run so far. Time the hypervisor
/// steals from the vCPU, or the scheduler gives to other threads, is not
/// counted.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Wall and CPU time of a stretch of work.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// `(wall seconds, CPU seconds)` since [`Clock::start`].
    pub fn read(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu,
        )
    }
}
