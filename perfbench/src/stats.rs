//! The benchmark's own arithmetic: percentiles with their sample counts,
//! geometric means, span self time, and due-time latency.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of the `q` percentile among `n > 0` samples. The
/// epsilon keeps `0.95 * 200` at rank 190 despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Minimum samples beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A latency distribution: its mean, median and one tail percentile, with
/// the sample count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub tail_q: f64,
    pub tail: f64,
    /// Windows the figures are medians over (1 for a plain summary).
    pub windows: usize,
}

/// Fewest windows [`Summary::windowed`] reports a median over.
pub const MIN_WINDOWS: usize = 3;

impl Summary {
    /// Summarize `values` at the fixed tail percentile `tail_q`. `None`
    /// when there are too few samples to put [`TAIL_MIN_BEYOND`] beyond it.
    pub fn of(values: &[f64], tail_q: f64) -> Option<Summary> {
        if samples_beyond(values.len(), tail_q) < TAIL_MIN_BEYOND {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile(&sorted, 0.5)?,
            tail_q,
            tail: percentile(&sorted, tail_q)?,
            windows: 1,
        })
    }

    /// The median over consecutive measurement windows of each window's
    /// mean, p50 and tail percentile, so one disturbed stretch of a run
    /// moves none of them. Windows too small for their own tail (the last,
    /// partial one, typically) are left out; `None` below [`MIN_WINDOWS`]
    /// usable windows.
    pub fn windowed(windows: &[Vec<f64>], tail_q: f64) -> Option<Summary> {
        let each: Vec<Summary> = windows
            .iter()
            .filter_map(|w| Summary::of(w, tail_q))
            .collect();
        if each.len() < MIN_WINDOWS {
            return None;
        }
        Some(Summary {
            n: each.iter().map(|s| s.n).sum(),
            mean: median(&each.iter().map(|s| s.mean).collect::<Vec<_>>())?,
            p50: median(&each.iter().map(|s| s.p50).collect::<Vec<_>>())?,
            tail_q,
            tail: median(&each.iter().map(|s| s.tail).collect::<Vec<_>>())?,
            windows: each.len(),
        })
    }
}

/// Median of `values` (nearest rank), `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive (a geometric mean is undefined there).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// A closed span interval in nanoseconds with its parent's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children that overlap each other (parallel
/// work) are merged first, so overlap is never subtracted twice, and each
/// child is clipped to its parent's interval.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut run: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// One open-loop request's timing, in nanoseconds from the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueTiming {
    /// When the schedule said to send it.
    pub due: u64,
    /// When the generator actually submitted it (`>= due` once it ran late).
    pub submitted: u64,
    /// When its result was complete.
    pub done: u64,
}

impl DueTiming {
    /// Latency counted from the due time, so a generator or client stall is
    /// charged to every request it delayed.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> u64 {
        self.submitted.saturating_sub(self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(Summary::of(&few, 0.95).is_none());
        let enough: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let s = Summary::of(&enough, 0.95).expect("200 samples carry a p95");
        assert_eq!(s.n, 200);
        assert_eq!(s.mean, 99.5);
        assert_eq!(s.p50, 99.0);
        assert_eq!(s.tail, 189.0);
    }

    #[test]
    fn windowed_summary_is_the_median_over_full_windows() {
        let window = |scale: f64| -> Vec<f64> { (1..=200).map(|i| i as f64 * scale).collect() };
        // One disturbed window (x10) and one too short for a p95 tail.
        let windows = vec![window(1.0), window(10.0), window(2.0), vec![1.0; 50]];
        let s = Summary::windowed(&windows, 0.95).expect("three full windows");
        assert_eq!(s.windows, 3);
        assert_eq!(s.n, 600);
        assert_eq!(s.mean, 201.0);
        assert_eq!(s.p50, 200.0);
        assert_eq!(s.tail, 380.0);
        assert!(Summary::windowed(&windows[..2], 0.95).is_none());
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5]).unwrap() - 0.5).abs() < 1e-15);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,70)
        let spans = [
            Interval {
                start: 0,
                end: 100,
                parent: None,
            },
            Interval {
                start: 10,
                end: 40,
                parent: Some(0),
            },
            Interval {
                start: 15,
                end: 25,
                parent: Some(1),
            },
            Interval {
                start: 50,
                end: 70,
                parent: Some(0),
            },
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        // Two parallel children [10,60) and [30,80) cover [10,80) once; a
        // child running past its parent is clipped to it.
        let spans = [
            Interval {
                start: 0,
                end: 100,
                parent: None,
            },
            Interval {
                start: 10,
                end: 60,
                parent: Some(0),
            },
            Interval {
                start: 30,
                end: 80,
                parent: Some(0),
            },
            Interval {
                start: 90,
                end: 130,
                parent: Some(0),
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 70 - 10);
        assert_eq!(st[1..], [50, 50, 40]);
        // Parallel children longer in sum than the parent never drive its
        // self time negative.
        let busy = [
            Interval {
                start: 0,
                end: 10,
                parent: None,
            },
            Interval {
                start: 0,
                end: 10,
                parent: Some(0),
            },
            Interval {
                start: 0,
                end: 10,
                parent: Some(0),
            },
        ];
        assert_eq!(self_times(&busy)[0], 0);
    }

    #[test]
    fn due_time_latency_charges_generator_lag() {
        let on_time = DueTiming {
            due: 1_000,
            submitted: 1_000,
            done: 1_500,
        };
        assert_eq!(on_time.latency(), 500);
        assert_eq!(on_time.lag(), 0);
        // The generator stalled 2000 ns: the request is charged for it even
        // though the server finished it 500 ns after it was sent.
        let late = DueTiming {
            due: 1_000,
            submitted: 3_000,
            done: 3_500,
        };
        assert_eq!(late.lag(), 2_000);
        assert_eq!(late.latency(), 2_500);
    }
}
