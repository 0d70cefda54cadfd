//! Virtual time: per-processor clocks and elapsed-time reports, in plain
//! modeled seconds.
//!
//! Every processor owns a [`ProcClock`] that separately accumulates compute,
//! communication and idle time. The separation matters because the paper's
//! tables break each experiment into *partitioner*, *inspector*, *remap* and
//! *executor* rows: the harness samples the clocks around each phase and
//! reports the difference.

/// Virtual clock of a single processor, in modeled seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcClock {
    /// Accumulated local computation time.
    pub compute: f64,
    /// Accumulated communication time (message send/recv + collectives).
    pub comm: f64,
    /// Time spent waiting at barriers (difference between this processor's
    /// arrival time and the phase maximum).
    pub idle: f64,
}

impl ProcClock {
    /// Total elapsed virtual time on this processor.
    #[inline]
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.idle
    }

    /// Charge `seconds` of computation.
    #[inline]
    pub fn charge_compute(&mut self, seconds: f64) {
        self.compute += seconds;
    }

    /// Charge `seconds` of communication.
    #[inline]
    pub fn charge_comm(&mut self, seconds: f64) {
        self.comm += seconds;
    }

    /// Charge `seconds` of idle (barrier wait) time.
    #[inline]
    pub fn charge_idle(&mut self, seconds: f64) {
        self.idle += seconds;
    }
}

/// A snapshot of the whole machine's clocks, used to report elapsed time over
/// a region of execution ("the executor phase took X modeled seconds").
#[derive(Debug, Clone, PartialEq, Default)]
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

    /// Max communication time over processors.
    pub fn max_comm_seconds(&self) -> f64 {
        self.comm.iter().copied().fold(0.0, f64::max)
    }

    /// Max compute time over processors.
    pub fn max_compute_seconds(&self) -> f64 {
        self.compute.iter().copied().fold(0.0, f64::max)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates() {
        let mut c = ProcClock::default();
        c.charge_compute(1.0);
        c.charge_comm(2.0);
        c.charge_idle(0.5);
        assert!((c.total() - 3.5).abs() < 1e-12);
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
        assert_eq!(r.max_comm_seconds(), 1.0);
        assert_eq!(r.max_compute_seconds(), 2.0);
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
}
