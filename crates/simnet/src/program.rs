use hypercube::NodeId;

/// Message tag disambiguating multiple messages between the same pair of
/// nodes (the runtime layer encodes phase number and message kind here).
/// `(src, dst, tag)` uniquely identifies a message within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tag(pub u32);

/// One instruction of a node's communication program.
///
/// Programs are the interface between the scheduling/runtime layer and the
/// simulator: the runtime compiles a communication schedule plus a protocol
/// (S1 or S2) into one `Program` per node; the simulator executes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Post an application receive buffer for the message `(src, tag)`.
    /// Arrivals with a posted buffer are delivered directly (no copy).
    PostRecv {
        /// Sending node.
        src: NodeId,
        /// Message tag.
        tag: Tag,
    },
    /// Blocking send: the program resumes when the transfer completes.
    Send {
        /// Destination node.
        dst: NodeId,
        /// Message size in bytes.
        bytes: u32,
        /// Message tag.
        tag: Tag,
    },
    /// Non-blocking send: the transfer is handed to the engine and the
    /// program continues (pair with [`Op::WaitAllSends`]).
    SendAsync {
        /// Destination node.
        dst: NodeId,
        /// Message size in bytes.
        bytes: u32,
        /// Message tag.
        tag: Tag,
    },
    /// Block until the message `(src, tag)` has been delivered into its
    /// application buffer.
    WaitRecv {
        /// Sending node.
        src: NodeId,
        /// Message tag.
        tag: Tag,
    },
    /// Block until every receive this node has posted so far is delivered.
    WaitAllRecvs,
    /// Block until every asynchronous send this node has issued completes.
    WaitAllSends,
    /// Synchronized pairwise exchange: both partners block until the other
    /// reaches its matching `Exchange`, then the two transfers proceed
    /// concurrently (full-duplex), costing a single engine occupancy under
    /// [`crate::PortModel::Unified`]. Either direction may carry 0 bytes
    /// (pure synchronization).
    Exchange {
        /// The partner node (its program must contain the mirror op with
        /// the same tag).
        partner: NodeId,
        /// Bytes this node sends to the partner.
        send_bytes: u32,
        /// Bytes this node receives from the partner.
        recv_bytes: u32,
        /// Tag shared by both directions.
        tag: Tag,
    },
    /// Local computation or software overhead of `ns` nanoseconds.
    Compute {
        /// Duration in nanoseconds.
        ns: u64,
    },
}

/// A node's complete communication program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// An empty program (the node participates only passively).
    pub fn empty() -> Self {
        Program { ops: Vec::new() }
    }

    /// Start building a program.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder { ops: Vec::new() }
    }

    /// The instruction sequence.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl From<Vec<Op>> for Program {
    fn from(ops: Vec<Op>) -> Self {
        Program { ops }
    }
}

/// Fluent builder for [`Program`]s.
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Append [`Op::PostRecv`].
    pub fn post_recv(&mut self, src: NodeId, tag: Tag) -> &mut Self {
        self.ops.push(Op::PostRecv { src, tag });
        self
    }

    /// Append [`Op::Send`].
    pub fn send(&mut self, dst: NodeId, bytes: u32, tag: Tag) -> &mut Self {
        self.ops.push(Op::Send { dst, bytes, tag });
        self
    }

    /// Append [`Op::SendAsync`].
    pub fn send_async(&mut self, dst: NodeId, bytes: u32, tag: Tag) -> &mut Self {
        self.ops.push(Op::SendAsync { dst, bytes, tag });
        self
    }

    /// Append [`Op::WaitRecv`].
    pub fn wait_recv(&mut self, src: NodeId, tag: Tag) -> &mut Self {
        self.ops.push(Op::WaitRecv { src, tag });
        self
    }

    /// Append [`Op::WaitAllRecvs`].
    pub fn wait_all_recvs(&mut self) -> &mut Self {
        self.ops.push(Op::WaitAllRecvs);
        self
    }

    /// Append [`Op::WaitAllSends`].
    pub fn wait_all_sends(&mut self) -> &mut Self {
        self.ops.push(Op::WaitAllSends);
        self
    }

    /// Append [`Op::Exchange`].
    pub fn exchange(
        &mut self,
        partner: NodeId,
        send_bytes: u32,
        recv_bytes: u32,
        tag: Tag,
    ) -> &mut Self {
        self.ops.push(Op::Exchange {
            partner,
            send_bytes,
            recv_bytes,
            tag,
        });
        self
    }

    /// Append [`Op::Compute`].
    pub fn compute(&mut self, ns: u64) -> &mut Self {
        self.ops.push(Op::Compute { ns });
        self
    }

    /// Finish building.
    pub fn build(self) -> Program {
        Program { ops: self.ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_order() {
        let mut b = Program::builder();
        b.post_recv(NodeId(1), Tag(0))
            .send(NodeId(2), 64, Tag(1))
            .wait_all_recvs();
        let p = b.build();
        assert_eq!(p.len(), 3);
        assert!(matches!(p.ops()[0], Op::PostRecv { .. }));
        assert!(matches!(p.ops()[1], Op::Send { .. }));
        assert!(matches!(p.ops()[2], Op::WaitAllRecvs));
    }

    #[test]
    fn empty_program() {
        assert!(Program::empty().is_empty());
        assert_eq!(Program::empty().len(), 0);
    }

    #[test]
    fn from_vec() {
        let p: Program = vec![Op::Compute { ns: 5 }].into();
        assert_eq!(p.len(), 1);
    }
}
