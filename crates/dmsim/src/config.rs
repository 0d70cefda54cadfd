//! Machine configuration: processor count, interconnect topology and the
//! communication / computation cost model.
//!
//! The default parameters are loosely calibrated to the Intel iPSC/860
//! hypercube used in the paper (≈ 70 µs message start-up, ≈ 2.8 MB/s
//! per-link bandwidth, ≈ 10 Mflop/s sustained per node on irregular code).
//! Absolute numbers are *not* expected to match the 1993 tables — only the
//! relative shapes matter — but starting from realistic constants keeps the
//! inspector : executor : partitioner ratios in a familiar regime.

/// Interconnect topology used to derive hop counts between processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Hypercube of dimension `log2(P)` (the iPSC/860). Hop count is the
    /// Hamming distance between processor numbers.
    Hypercube,
    /// Fully connected network: every pair of processors is one hop apart.
    FullyConnected,
}

/// The α–β(–hop) communication and per-operation computation cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Message start-up latency in seconds (α).
    pub alpha: f64,
    /// Per-byte transfer cost in seconds (β = 1 / bandwidth).
    pub beta_per_byte: f64,
    /// Additional per-hop, per-message cost in seconds.
    pub per_hop: f64,
    /// Cost of one "unit" of local computation in seconds. A unit is what the
    /// caller says it is — the CHAOS runtime charges one unit per flop-like
    /// operation and a configurable number of units for table lookups.
    pub compute_unit: f64,
    /// Cost charged per word for purely local memory traffic (copying data
    /// into / out of communication buffers).
    pub memory_word: f64,
}

impl CostModel {
    /// Cost model loosely calibrated to the Intel iPSC/860.
    pub fn ipsc860() -> Self {
        CostModel {
            alpha: 70e-6,
            beta_per_byte: 0.36e-6,
            per_hop: 10e-6,
            compute_unit: 0.1e-6,
            memory_word: 0.025e-6,
        }
    }

    /// A unit-cost model useful in tests: α = 1, β = 1 per byte, 1 per hop,
    /// 1 per compute unit, 1 per word of memory traffic. Makes hand-computed
    /// expectations easy.
    pub fn unit() -> Self {
        CostModel {
            alpha: 1.0,
            beta_per_byte: 1.0,
            per_hop: 1.0,
            compute_unit: 1.0,
            memory_word: 1.0,
        }
    }

    /// Time to send one message of `bytes` bytes across `hops` hops.
    #[inline]
    pub fn message_cost(&self, bytes: usize, hops: usize) -> f64 {
        self.alpha + self.beta_per_byte * bytes as f64 + self.per_hop * hops as f64
    }
}

/// Complete description of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of virtual processors.
    pub nprocs: usize,
    /// Interconnect topology.
    pub topology: Topology,
    /// Cost model constants.
    pub cost: CostModel,
    /// Number of bytes occupied by one array element / message word. The
    /// paper's arrays are REAL*8, so the default is 8.
    pub word_bytes: usize,
}

impl MachineConfig {
    /// An iPSC/860-like hypercube with `nprocs` processors.
    pub fn ipsc860(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            topology: Topology::Hypercube,
            cost: CostModel::ipsc860(),
            word_bytes: 8,
        }
    }

    /// Unit-cost machine for tests.
    pub fn unit(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            topology: Topology::FullyConnected,
            cost: CostModel::unit(),
            word_bytes: 8,
        }
    }

    /// Validate the configuration, returning a description of the problem if
    /// it is unusable.
    pub fn validate(&self) -> Result<(), String> {
        if self.nprocs == 0 {
            return Err("machine must have at least one processor".to_string());
        }
        if self.word_bytes == 0 {
            return Err("word_bytes must be non-zero".to_string());
        }
        if self.topology == Topology::Hypercube && !self.nprocs.is_power_of_two() {
            return Err(format!(
                "hypercube topology requires a power-of-two processor count, got {}",
                self.nprocs
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipsc_config_is_valid() {
        for p in [1, 2, 4, 8, 16, 32, 64] {
            assert!(MachineConfig::ipsc860(p).validate().is_ok(), "p={p}");
        }
    }

    #[test]
    fn hypercube_rejects_non_power_of_two() {
        assert!(MachineConfig::ipsc860(6).validate().is_err());
        let fully_connected = MachineConfig {
            topology: Topology::FullyConnected,
            ..MachineConfig::ipsc860(6)
        };
        assert!(fully_connected.validate().is_ok());
    }

    #[test]
    fn zero_procs_invalid() {
        assert!(MachineConfig::unit(0).validate().is_err());
    }

    #[test]
    fn message_cost_monotone_in_size() {
        let c = CostModel::ipsc860();
        assert!(c.message_cost(8, 1) < c.message_cost(800, 1));
        assert!(c.message_cost(8, 1) < c.message_cost(8, 3));
    }

    #[test]
    fn unit_cost_model_is_sum() {
        let c = CostModel::unit();
        assert_eq!(c.message_cost(10, 2), 1.0 + 10.0 + 2.0);
    }
}
