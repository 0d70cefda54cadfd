//! Virtual time: per-processor clocks and elapsed-time reports.
//!
//! Every processor owns a [`ProcClock`] that separately accumulates compute
//! time and communication time. The separation matters because the paper's
//! tables break each experiment into *partitioner*, *inspector*, *remap* and
//! *executor* rows: the harness samples the clocks around each phase and
//! reports the difference.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Sub};

/// A duration of simulated time, in seconds. A thin newtype so that modeled
/// time cannot silently be confused with wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero simulated seconds.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds.
    #[inline]
    pub fn seconds(s: f64) -> Self {
        SimTime(s)
    }

    /// The value in seconds.
    #[inline]
    pub fn as_seconds(self) -> f64 {
        self.0
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

/// Virtual clock of a single processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ProcClock {
    /// Accumulated local computation time.
    pub compute: SimTime,
    /// Accumulated communication time (message send/recv + collectives).
    pub comm: SimTime,
    /// Time spent waiting at barriers (difference between this processor's
    /// arrival time and the phase maximum).
    pub idle: SimTime,
}

impl ProcClock {
    /// Total elapsed virtual time on this processor.
    #[inline]
    pub fn total(&self) -> SimTime {
        self.compute + self.comm + self.idle
    }

    /// Charge `seconds` of computation.
    #[inline]
    pub fn charge_compute(&mut self, seconds: f64) {
        self.compute += SimTime(seconds);
    }

    /// Charge `seconds` of communication.
    #[inline]
    pub fn charge_comm(&mut self, seconds: f64) {
        self.comm += SimTime(seconds);
    }

    /// Charge `seconds` of idle (barrier wait) time.
    #[inline]
    pub fn charge_idle(&mut self, seconds: f64) {
        self.idle += SimTime(seconds);
    }
}

/// A snapshot of the whole machine's clocks, used to report elapsed time over
/// a region of execution ("the executor phase took X modeled seconds").
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ElapsedReport {
    /// Per-processor total elapsed time in seconds over the sampled region.
    pub per_proc: Vec<f64>,
    /// Per-processor compute portion.
    pub compute: Vec<f64>,
    /// Per-processor communication portion.
    pub comm: Vec<f64>,
    /// Per-processor idle portion.
    pub idle: Vec<f64>,
}

impl ElapsedReport {
    /// Parallel (critical-path) time: the maximum over processors. This is
    /// what the paper's tables report.
    pub fn max_seconds(&self) -> f64 {
        self.per_proc.iter().copied().fold(0.0, f64::max)
    }

    /// Average time over processors.
    pub fn mean_seconds(&self) -> f64 {
        if self.per_proc.is_empty() {
            0.0
        } else {
            self.per_proc.iter().sum::<f64>() / self.per_proc.len() as f64
        }
    }

    /// Total (summed) processor-seconds — a proxy for work.
    pub fn total_proc_seconds(&self) -> f64 {
        self.per_proc.iter().sum()
    }

    /// Max communication time over processors.
    pub fn max_comm_seconds(&self) -> f64 {
        self.comm.iter().copied().fold(0.0, f64::max)
    }

    /// Max compute time over processors.
    pub fn max_compute_seconds(&self) -> f64 {
        self.compute.iter().copied().fold(0.0, f64::max)
    }

    /// Load imbalance of the compute portion: max / mean (1.0 = perfectly
    /// balanced). Returns 1.0 for an empty or all-zero report.
    pub fn compute_imbalance(&self) -> f64 {
        let max = self.max_compute_seconds();
        let mean = if self.compute.is_empty() {
            0.0
        } else {
            self.compute.iter().sum::<f64>() / self.compute.len() as f64
        };
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Machine-readable JSON form of the report (the harness-facing
    /// counterpart of the text tables): per-processor vectors plus the
    /// derived aggregates.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&serde_json::ToValue::to_value(self)).unwrap_or_default()
    }

    /// Element-wise difference `self - earlier`, used to isolate a phase.
    pub fn since(&self, earlier: &ElapsedReport) -> ElapsedReport {
        fn diff(a: &[f64], b: &[f64]) -> Vec<f64> {
            a.iter()
                .zip(b.iter().chain(std::iter::repeat(&0.0)))
                .map(|(x, y)| x - y)
                .collect()
        }
        ElapsedReport {
            per_proc: diff(&self.per_proc, &earlier.per_proc),
            compute: diff(&self.compute, &earlier.compute),
            comm: diff(&self.comm, &earlier.comm),
            idle: diff(&self.idle, &earlier.idle),
        }
    }
}

impl serde_json::ToValue for ElapsedReport {
    fn to_value(&self) -> serde_json::Value {
        serde_json::json!({
            "per_proc": self.per_proc.clone(),
            "compute": self.compute.clone(),
            "comm": self.comm.clone(),
            "idle": self.idle.clone(),
            "max_seconds": self.max_seconds(),
            "mean_seconds": self.mean_seconds(),
            "total_proc_seconds": self.total_proc_seconds(),
            "compute_imbalance": self.compute_imbalance(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates() {
        let mut c = ProcClock::default();
        c.charge_compute(1.0);
        c.charge_comm(2.0);
        c.charge_idle(0.5);
        assert!((c.total().as_seconds() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::seconds(1.5);
        let b = SimTime::seconds(2.0);
        assert_eq!((a + b).as_seconds(), 3.5);
        assert_eq!((b - a).as_seconds(), 0.5);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn elapsed_report_aggregates() {
        let r = ElapsedReport {
            per_proc: vec![1.0, 3.0, 2.0],
            compute: vec![1.0, 2.0, 1.5],
            comm: vec![0.0, 1.0, 0.5],
            idle: vec![0.0, 0.0, 0.0],
        };
        assert_eq!(r.max_seconds(), 3.0);
        assert_eq!(r.mean_seconds(), 2.0);
        assert_eq!(r.total_proc_seconds(), 6.0);
        assert_eq!(r.max_comm_seconds(), 1.0);
        assert_eq!(r.max_compute_seconds(), 2.0);
        assert!((r.compute_imbalance() - 2.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn elapsed_report_since() {
        let early = ElapsedReport {
            per_proc: vec![1.0, 1.0],
            compute: vec![1.0, 1.0],
            comm: vec![0.0, 0.0],
            idle: vec![0.0, 0.0],
        };
        let late = ElapsedReport {
            per_proc: vec![2.0, 4.0],
            compute: vec![1.5, 2.0],
            comm: vec![0.5, 2.0],
            idle: vec![0.0, 0.0],
        };
        let d = late.since(&early);
        assert_eq!(d.per_proc, vec![1.0, 3.0]);
        assert_eq!(d.max_seconds(), 3.0);
    }

    #[test]
    fn imbalance_of_empty_is_one() {
        assert_eq!(ElapsedReport::default().compute_imbalance(), 1.0);
    }

    #[test]
    fn elapsed_report_emits_json() {
        let r = ElapsedReport {
            per_proc: vec![1.0, 3.0],
            compute: vec![1.0, 2.0],
            comm: vec![0.0, 1.0],
            idle: vec![0.0, 0.0],
        };
        let json = r.to_json();
        assert!(json.contains("\"per_proc\""));
        assert!(json.contains("\"max_seconds\":3"));
        assert!(json.contains("\"compute_imbalance\""));
    }
}
