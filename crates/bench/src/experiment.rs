//! Experiment configuration and the phase-time record the tables report.

use chaos_dmsim::{Machine, PhaseKind};

/// Data-mapping method used by an experiment (the columns of Table 2 and the
/// row groups of Tables 3 / 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Naive HPF BLOCK distribution of the node arrays (Table 4).
    Block,
    /// Compiler-linked recursive (binary) coordinate bisection (Table 3).
    Rcb,
    /// Recursive spectral bisection (Table 2, "Spectral Bisection").
    Rsb,
}

impl Method {
    /// Printable name.
    pub fn label(self) -> &'static str {
        match self {
            Method::Block => "Block Partition",
            Method::Rcb => "Binary Coordinate Bisection",
            Method::Rsb => "Spectral Bisection",
        }
    }

    /// The partitioner registry name (`None` for BLOCK, which keeps the
    /// default distribution).
    pub fn partitioner_name(self) -> Option<&'static str> {
        match self {
            Method::Block => None,
            Method::Rcb => Some("RCB"),
            Method::Rsb => Some("RSB"),
        }
    }
}

/// Full description of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Data-mapping method.
    pub method: Method,
    /// Whether the schedule-reuse mechanism is enabled.
    pub reuse: bool,
    /// Number of executor sweeps (the paper uses 100).
    pub executor_iterations: usize,
}

impl ExperimentConfig {
    /// Paper-style configuration: given processors and method, 100 executor
    /// iterations with schedule reuse on.
    pub fn paper(nprocs: usize, method: Method) -> Self {
        ExperimentConfig {
            nprocs,
            method,
            reuse: true,
            executor_iterations: 100,
        }
    }

    /// Builder-style: disable or enable schedule reuse.
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        self
    }

    /// Builder-style: set the executor iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.executor_iterations = iterations;
        self
    }

    /// Both drivers' entry check: panics unless the experiment sweeps at
    /// least once, since the compiler-generated program runs its FORALL.
    pub fn assert_sweeps(&self) {
        assert!(
            self.executor_iterations > 0,
            "ExperimentConfig::executor_iterations must be at least 1"
        );
    }
}

/// Modeled time (seconds) spent in each phase, plus bookkeeping counters.
/// These are the rows of the paper's tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimes {
    /// GeoCoL graph generation time.
    pub graph_generation: f64,
    /// Partitioner execution time.
    pub partitioner: f64,
    /// Inspector time (accumulated over re-runs when reuse is off).
    pub inspector: f64,
    /// Array / iteration remap time.
    pub remap: f64,
    /// Executor time summed over all sweeps.
    pub executor: f64,
    /// End-to-end modeled time.
    pub total: f64,
    /// Number of inspector executions.
    pub inspector_runs: usize,
    /// Number of executor sweeps.
    pub executor_sweeps: usize,
    /// Total point-to-point messages.
    pub messages: usize,
    /// Total bytes moved.
    pub bytes: usize,
    /// Fraction of loop references that stayed on-processor.
    pub local_fraction: f64,
    /// Wall-clock seconds the experiment took to simulate (not a modeled
    /// quantity; reported for transparency).
    pub wall_seconds: f64,
}

impl serde_json::ToValue for PhaseTimes {
    fn to_value(&self) -> serde_json::Value {
        serde_json::json!({
            "graph_generation": self.graph_generation,
            "partitioner": self.partitioner,
            "inspector": self.inspector,
            "remap": self.remap,
            "executor": self.executor,
            "total": self.total,
            "inspector_runs": self.inspector_runs,
            "executor_sweeps": self.executor_sweeps,
            "messages": self.messages,
            "bytes": self.bytes,
            "local_fraction": self.local_fraction,
            "wall_seconds": self.wall_seconds,
        })
    }
}

impl PhaseTimes {
    /// The five phase rows (`Machine::phase_elapsed`), `total`, `messages`
    /// and `bytes` of a finished experiment, as both drivers report them;
    /// the other fields are the driver's to fill.
    pub fn from_machine(machine: &Machine) -> PhaseTimes {
        let totals = machine.stats().grand_totals();
        PhaseTimes {
            graph_generation: machine.phase_elapsed(PhaseKind::GraphGeneration),
            partitioner: machine.phase_elapsed(PhaseKind::Partitioner),
            inspector: machine.phase_elapsed(PhaseKind::Inspector),
            remap: machine.phase_elapsed(PhaseKind::Remap),
            executor: machine.phase_elapsed(PhaseKind::Executor),
            total: machine.elapsed().max_seconds(),
            messages: totals.messages,
            bytes: totals.bytes,
            ..PhaseTimes::default()
        }
    }

    /// Executor time per sweep.
    #[cfg(test)]
    pub(crate) fn executor_per_iteration(&self) -> f64 {
        if self.executor_sweeps == 0 {
            0.0
        } else {
            self.executor / self.executor_sweeps as f64
        }
    }

    /// Sum of the phase rows (may differ slightly from `total`, which also
    /// includes barrier idle time outside the tagged phases).
    #[cfg(test)]
    pub(crate) fn phase_sum(&self) -> f64 {
        self.graph_generation + self.partitioner + self.inspector + self.remap + self.executor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_defaults() {
        let c = ExperimentConfig::paper(32, Method::Rcb);
        assert_eq!(c.nprocs, 32);
        assert!(c.reuse);
        assert_eq!(c.executor_iterations, 100);
        let c = c.with_reuse(false).with_iterations(10);
        assert!(!c.reuse);
        assert_eq!(c.executor_iterations, 10);
    }

    #[test]
    fn method_labels_and_partitioners() {
        assert_eq!(Method::Block.partitioner_name(), None);
        assert_eq!(Method::Rcb.partitioner_name(), Some("RCB"));
        assert_eq!(Method::Rsb.partitioner_name(), Some("RSB"));
        assert!(Method::Rsb.label().contains("Spectral"));
    }

    #[test]
    fn phase_times_helpers() {
        let t = PhaseTimes {
            executor: 10.0,
            executor_sweeps: 4,
            inspector: 1.0,
            remap: 0.5,
            ..Default::default()
        };
        assert_eq!(t.executor_per_iteration(), 2.5);
        assert_eq!(t.phase_sum(), 11.5);
        assert_eq!(PhaseTimes::default().executor_per_iteration(), 0.0);
    }
}
