use std::fmt;

/// Identifier of a compute node (processor) in a topology.
///
/// Nodes are numbered `0..n`. On the hypercube the binary representation of
/// the id *is* the node's position: bit `d` selects the side of dimension
/// `d`, and neighbours differ in exactly one bit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index as a `usize`, for direct table indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Hamming distance to `other` — the hypercube hop distance.
    #[inline]
    pub fn hamming(self, other: NodeId) -> u32 {
        (self.0 ^ other.0).count_ones()
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for NodeId {
    #[inline]
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_distance() {
        assert_eq!(NodeId(0).hamming(NodeId(0)), 0);
        assert_eq!(NodeId(0).hamming(NodeId(0b111)), 3);
        assert_eq!(NodeId(0b101).hamming(NodeId(0b011)), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NodeId(7)), "P7");
        assert_eq!(format!("{:?}", NodeId(7)), "P7");
    }
}
