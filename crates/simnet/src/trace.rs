use hypercube::NodeId;

use crate::Tag;

/// What a trace record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A transfer was requested (entered the pending set).
    Requested,
    /// A transfer acquired its circuit and started moving data.
    Started,
    /// A transfer finished and released its circuit.
    Finished,
    /// A message was parked in the receiver's system buffer.
    Buffered,
    /// A buffered message was copied into its application buffer.
    Copied,
    /// A node's program completed.
    NodeDone,
}

/// One record of the optional execution trace (see
/// [`crate::simulate_with`]); used by diagnostics and the contention
/// visualization example.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Simulated time (ns).
    pub time_ns: u64,
    /// Record type.
    pub kind: TraceKind,
    /// Source node of the transfer (or the node itself for `NodeDone`).
    pub src: NodeId,
    /// Destination node (same as `src` for `NodeDone`).
    pub dst: NodeId,
    /// Message tag (Tag(0) for `NodeDone`).
    pub tag: Tag,
    /// Message size in bytes (0 for `NodeDone`).
    pub bytes: u32,
}

impl TraceEvent {
    /// Stable one-line rendering, e.g. `t=75000 Started P0->P1 tag=2 64B`.
    ///
    /// This format is a compatibility surface: the golden-trace suite
    /// (`tests/trace_golden.rs`) pins whole event sequences rendered this
    /// way, so engine refactors diff against exact event order. Change it
    /// only together with the golden files.
    pub fn compact(&self) -> String {
        format!(
            "t={} {:?} P{}->P{} tag={} {}B",
            self.time_ns,
            self.kind,
            self.src.index(),
            self.dst.index(),
            self.tag.0,
            self.bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_is_stable() {
        let ev = TraceEvent {
            time_ns: 75_000,
            kind: TraceKind::Started,
            src: NodeId(0),
            dst: NodeId(1),
            tag: Tag(2),
            bytes: 64,
        };
        assert_eq!(ev.compact(), "t=75000 Started P0->P1 tag=2 64B");
    }

    #[test]
    fn trace_event_debug_and_clone() {
        let ev = TraceEvent {
            time_ns: 42,
            kind: TraceKind::Started,
            src: NodeId(1),
            dst: NodeId(2),
            tag: Tag(7),
            bytes: 128,
        };
        let copy = ev.clone();
        assert_eq!(copy.kind, TraceKind::Started);
        assert!(format!("{ev:?}").contains("Started"));
    }
}
