use std::fmt;

/// Per-node accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Time the node's engine(s) spent moving data (ns).
    pub engine_busy_ns: u64,
    /// Number of transfers this node originated.
    pub sends: u64,
    /// Number of messages delivered to this node.
    pub recvs: u64,
    /// Bytes delivered directly into posted application buffers.
    pub direct_bytes: u64,
    /// Bytes that had to pass through the system buffer (and be copied).
    pub buffered_bytes: u64,
    /// Peak system-buffer occupancy (bytes).
    pub peak_buffer_bytes: u64,
    /// Simulated time at which this node's program finished (ns).
    pub finish_ns: u64,
}

/// Whole-run accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Per-node breakdown.
    pub nodes: Vec<NodeStats>,
    /// Total number of data transfers (fused exchanges count once).
    pub transfers: u64,
    /// Transfers that could not start immediately on request.
    pub transfers_blocked: u64,
    /// Total request-to-start delay over all transfers (ns).
    pub blocked_ns_total: u64,
    /// Largest single request-to-start delay (ns).
    pub blocked_ns_max: u64,
    /// Aggregate busy time over all directed links (ns).
    pub link_busy_ns_total: u64,
    /// Busiest single link's busy time (ns).
    pub link_busy_ns_max: u64,
    /// Number of application-buffer copies performed (buffered arrivals).
    pub copies: u64,
    /// Number of events processed.
    pub events: u64,
    /// Feasibility examinations of pending transfers under the atomic
    /// claim policy — host work, not simulated behaviour: the count that
    /// guards the rescan's complexity.
    pub claim_checks: u64,
    /// High-water mark of concurrently in-flight transfers (the arena's
    /// peak slot occupancy — what live memory actually tracks).
    pub peak_transfers_live: u64,
    /// Heap bytes the event engine holds at completion — the scale bench's
    /// RSS proxy: the message-slot table and the ops' slot numbers, the
    /// resource table with its waiting lists and candidates, the transfer
    /// arena, and the event queue's capacity.
    pub state_bytes: u64,
}

/// Result of a successful simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Completion time of the slowest node (ns) — the quantity the paper
    /// reports ("the maximum time spent by any processor").
    pub makespan_ns: u64,
    /// Detailed accounting.
    pub stats: SimStats,
}

impl SimReport {
    /// Makespan in milliseconds, the unit of the paper's tables.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ns as f64 / 1e6
    }

    /// Mean link utilization relative to the makespan (0..=1 per link).
    pub fn mean_link_utilization(&self, link_count: usize) -> f64 {
        if self.makespan_ns == 0 || link_count == 0 {
            return 0.0;
        }
        self.stats.link_busy_ns_total as f64 / (self.makespan_ns as f64 * link_count as f64)
    }
}

/// Why a simulation could not complete.
#[derive(Clone, Debug)]
pub enum SimError {
    /// No event can fire but some program has not finished: the run is
    /// deadlocked (e.g. bounded buffers full, or mismatched programs).
    /// Carries a human-readable diagnosis per stuck node.
    Deadlock {
        /// `(node index, description of what it is stuck on)`.
        stuck: Vec<(usize, String)>,
    },
    /// A program referenced an impossible operation (self-send, node out of
    /// range, duplicate posts, wait without post, ...).
    ProgramError {
        /// Offending node.
        node: usize,
        /// Description.
        msg: String,
    },
    /// Event budget exhausted (runaway simulation); indicates a bug in the
    /// caller's programs or in the simulator itself.
    EventBudgetExhausted,
    /// Parameters failed validation.
    BadParams(
        /// Description.
        String,
    ),
    /// A transfer's route crosses a down link (a [`crate::LinkCostModel`]
    /// fault) and the topology offers no detour around it.
    LinkDown {
        /// The down directed link's index.
        link: usize,
        /// Sending node of the stranded transfer.
        src: usize,
        /// Receiving node of the stranded transfer.
        dst: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { stuck } => {
                write!(f, "simulation deadlocked; {} node(s) stuck", stuck.len())?;
                for (n, why) in stuck.iter().take(4) {
                    write!(f, "; P{n}: {why}")?;
                }
                Ok(())
            }
            SimError::ProgramError { node, msg } => {
                write!(f, "program error on P{node}: {msg}")
            }
            SimError::EventBudgetExhausted => write!(f, "event budget exhausted"),
            SimError::BadParams(msg) => write!(f, "invalid machine parameters: {msg}"),
            SimError::LinkDown { link, src, dst } => write!(
                f,
                "link {link} is down and no detour exists for P{src} -> P{dst}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_ms_conversion() {
        let r = SimReport {
            makespan_ns: 2_500_000,
            stats: SimStats::default(),
        };
        assert!((r.makespan_ms() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_handles_degenerate_inputs() {
        let r = SimReport {
            makespan_ns: 0,
            stats: SimStats::default(),
        };
        assert_eq!(r.mean_link_utilization(10), 0.0);
        assert_eq!(r.mean_link_utilization(0), 0.0);
    }

    #[test]
    fn errors_display() {
        let e = SimError::Deadlock {
            stuck: vec![(3, "waiting for buffer space at P7".into())],
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("P3"));
        assert!(SimError::EventBudgetExhausted
            .to_string()
            .contains("budget"));
    }
}
