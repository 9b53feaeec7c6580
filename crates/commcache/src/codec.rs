//! The little-endian byte vocabulary shared by the `schedd` wire frames,
//! the schedule artifact ([`crate::encode_artifact`]: the `.sched` file
//! and a reply's payload) and the layout a [`crate::Fingerprint`] hashes.
//!
//! A string is a `u32` byte length and its UTF-8 bytes. A **matrix
//! block** is the paper's `CCOM`: `u64 n`, a `u64` message count, then one
//! 12-byte `(u32 src, u32 dst, u32 bytes)` record per message, row-major.
//! A `Submit` frame and the fingerprint write theirs with the same
//! [`put_matrix`], so the two are the same bytes by construction; and a
//! block read off the wire in that canonical form is a [`MatrixBlock`],
//! which keys the instance from the bytes as they arrived
//! ([`crate::InstanceKey::of_block`]) without building the matrix.
//! [`Reader`] checks every length against the bytes present: hostile
//! input is a typed [`CodecError`], which each format maps into its own.

use commsched::CommMatrix;
use hypercube::NodeId;

/// One message record: `(src, dst, bytes)`.
pub type Message = (NodeId, NodeId, u32);

/// Why a [`Reader`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended inside a field, or a count claims more than they hold.
    Truncated,
    /// Bytes remain after the last field.
    TrailingBytes,
    /// The named string field is not UTF-8 or is longer than its cap.
    BadString(&'static str),
}

/// Append a `u32` length and the UTF-8 bytes of `s`.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Append a `u64` count and then `count` message records.
pub fn put_messages(out: &mut Vec<u8>, count: usize, messages: impl IntoIterator<Item = Message>) {
    out.extend_from_slice(&(count as u64).to_le_bytes());
    // `for_each`: a matrix's row-by-row walk folds faster than it steps.
    messages.into_iter().for_each(|(src, dst, bytes)| {
        // Assembled first, so the output grows once per message.
        let mut record = [0u8; 12];
        record[..4].copy_from_slice(&src.0.to_le_bytes());
        record[4..8].copy_from_slice(&dst.0.to_le_bytes());
        record[8..].copy_from_slice(&bytes.to_le_bytes());
        out.extend_from_slice(&record);
    });
}

/// Append the matrix block of `com`: `u64 n`, then its messages.
pub fn put_matrix(out: &mut Vec<u8>, com: &CommMatrix) {
    out.extend_from_slice(&(com.n() as u64).to_le_bytes());
    put_messages(out, com.message_count(), com.messages());
}

/// The message in one 12-byte record.
#[inline]
fn message(record: &[u8]) -> Message {
    let word = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().expect("4 bytes"));
    (NodeId(word(0)), NodeId(word(4)), word(8))
}

/// A bounds-checked little-endian cursor: a read past the end is [`CodecError::Truncated`].
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.bytes.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// The next `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A string of at most `cap` bytes. A longer length (checked before
    /// the bytes are read) or bytes that are not UTF-8 are
    /// [`CodecError::BadString`] naming `field`.
    pub fn str(&mut self, field: &'static str, cap: usize) -> Result<String, CodecError> {
        self.str_ref(field, cap).map(str::to_owned)
    }

    /// [`str`](Self::str), borrowed from the bytes.
    pub fn str_ref(&mut self, field: &'static str, cap: usize) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(CodecError::BadString(field));
        }
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::BadString(field))
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// A `u64` count of `record`-byte entries, refused unless the bytes
    /// left can hold that many.
    fn count(&mut self, record: usize) -> Result<usize, CodecError> {
        match usize::try_from(self.u64()?) {
            Ok(count) if count <= self.remaining() / record => Ok(count),
            _ => Err(CodecError::Truncated),
        }
    }

    /// A count of `record`-byte entries, then each entry as `entry` reads
    /// it. Nothing is allocated for a count the bytes cannot back.
    pub fn list<T>(
        &mut self,
        record: usize,
        mut entry: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let count = self.count(record)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(entry(self)?);
        }
        Ok(entries)
    }

    /// A [`put_messages`] run, decoded lazily from the borrowed records.
    pub fn messages(&mut self) -> Result<impl ExactSizeIterator<Item = Message> + 'a, CodecError> {
        let count = self.count(12)?;
        Ok(self.take(12 * count)?.chunks_exact(12).map(message))
    }

    /// A [`put_messages`] run over `n` nodes, borrowed as a
    /// [`MatrixBlock`] when it is already canonical: every endpoint below
    /// `n`, no self-message, no zero size, and `(src, dst)` strictly
    /// ascending, which also rules out a cell listed twice. Those are
    /// exactly the runs [`CommMatrix::from_messages`] accepts and
    /// [`put_matrix`] writes back unchanged. `None` for a run that is cut
    /// short or not canonical; such a run may still decode (any order
    /// does), so the caller decodes it the long way.
    pub fn canonical_messages(&mut self, n: usize) -> Option<MatrixBlock<'a>> {
        let count = self.count(12).ok()?;
        let records = self.take(12 * count).ok()?;
        // The smallest row-major key the next record may carry.
        let mut next = 0u64;
        for record in records.chunks_exact(12) {
            let (src, dst, bytes) = message(record);
            let (s, d) = (src.0 as usize, dst.0 as usize);
            let key = u64::from(src.0) << 32 | u64::from(dst.0);
            if s >= n || d >= n || s == d || bytes == 0 || key < next {
                return None;
            }
            // No overflow: `src != dst`, so the key is below `u64::MAX`.
            next = key + 1;
        }
        Some(MatrixBlock {
            n: n as u64,
            records,
        })
    }

    /// [`CodecError::TrailingBytes`] unless every byte was read.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// A matrix block borrowed from bytes that already hold it in canonical
/// form ([`Reader::canonical_messages`]): its [`head`](Self::head)
/// followed by its [`records`](Self::records) are what [`put_matrix`]
/// writes for the matrix they decode to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatrixBlock<'a> {
    n: u64,
    records: &'a [u8],
}

impl<'a> MatrixBlock<'a> {
    /// Nodes the matrix spans.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Messages in the block.
    pub fn message_count(&self) -> usize {
        self.records.len() / 12
    }

    /// The block's first 16 bytes: the `u64` node and message counts.
    pub fn head(&self) -> [u8; 16] {
        let mut head = [0u8; 16];
        head[..8].copy_from_slice(&self.n.to_le_bytes());
        head[8..].copy_from_slice(&(self.message_count() as u64).to_le_bytes());
        head
    }

    /// The rest: the 12-byte records, verbatim.
    pub fn records(&self) -> &'a [u8] {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_and_strings_roundtrip_little_endian() {
        let mut out = vec![7];
        out.extend_from_slice(&0x0403_0201u32.to_le_bytes());
        out.extend_from_slice(&u64::MAX.to_le_bytes());
        put_str(&mut out, "RS_NL");
        assert_eq!(out[1..5], [1, 2, 3, 4]);
        assert_eq!(out[13..22], *b"\x05\0\0\0RS_NL");
        let mut rd = Reader::new(&out);
        assert_eq!(rd.u8(), Ok(7));
        assert_eq!(rd.u32(), Ok(0x0403_0201));
        assert_eq!(rd.u64(), Ok(u64::MAX));
        assert_eq!(rd.str("name", 5).as_deref(), Ok("RS_NL"));
        assert_eq!(rd.finish(), Ok(()));
    }

    #[test]
    fn every_short_read_is_truncated_and_leftovers_are_trailing() {
        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(CodecError::Truncated));
        assert_eq!(Reader::new(&[]).u8(), Err(CodecError::Truncated));
        assert_eq!(
            Reader::new(&[0; 4]).take(usize::MAX),
            Err(CodecError::Truncated)
        );
        let mut rd = Reader::new(&[1, 2]);
        rd.u8().unwrap();
        assert_eq!(rd.remaining(), 1);
        assert_eq!(rd.finish(), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn strings_are_capped_before_they_are_read_and_must_be_utf8() {
        let mut long = Vec::new();
        put_str(&mut long, "toolong");
        assert_eq!(
            Reader::new(&long).str("f", 6),
            Err(CodecError::BadString("f"))
        );
        // A cap breach is reported even when the bytes are missing.
        assert_eq!(
            Reader::new(&long[..6]).str("f", 6),
            Err(CodecError::BadString("f"))
        );
        let bad = [2, 0, 0, 0, 0xff, 0xfe];
        assert_eq!(
            Reader::new(&bad).str("g", 64),
            Err(CodecError::BadString("g"))
        );
        assert_eq!(
            Reader::new(&bad[..5]).str("g", 64),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn a_matrix_block_roundtrips_and_hostile_counts_allocate_nothing() {
        let mut com = CommMatrix::new(4);
        com.set(0, 3, 1);
        com.set(2, 1, u32::MAX);
        let mut out = Vec::new();
        put_matrix(&mut out, &com);
        assert_eq!(out.len(), 8 + 8 + 2 * 12);
        assert_eq!(out[16..28], [0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0]);
        let mut rd = Reader::new(&out);
        assert_eq!(rd.u64(), Ok(4));
        let messages: Vec<Message> = rd.messages().unwrap().collect();
        assert_eq!(messages, com.messages().collect::<Vec<_>>());
        assert_eq!(rd.finish(), Ok(()));

        // A count one record past the bytes present, and one that does
        // not fit a usize, are refused before anything is taken.
        for count in [3u64, u64::MAX] {
            out[8..16].copy_from_slice(&count.to_le_bytes());
            let mut rd = Reader::new(&out[8..]);
            assert!(matches!(rd.messages(), Err(CodecError::Truncated)));
        }
        let mut rd = Reader::new(&out[8..]);
        assert_eq!(rd.list(1, Reader::u8), Err(CodecError::Truncated));
    }

    /// The record of `src -> dst` carrying `bytes`.
    fn record(src: u32, dst: u32, bytes: u32) -> Vec<u8> {
        [src, dst, bytes]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()
    }

    /// A message run: the `u64` count, then `records`.
    fn run(records: &[Vec<u8>]) -> Vec<u8> {
        let mut out = (records.len() as u64).to_le_bytes().to_vec();
        records.iter().for_each(|r| out.extend_from_slice(r));
        out
    }

    #[test]
    fn a_canonical_run_is_what_put_matrix_writes() {
        let mut com = CommMatrix::new(5);
        com.set(0, 4, 7);
        com.set(3, 1, u32::MAX);
        com.set(3, 2, 1);
        let mut out = Vec::new();
        put_matrix(&mut out, &com);
        let block = Reader::new(&out[8..])
            .canonical_messages(5)
            .expect("put_matrix writes canonical runs");
        assert_eq!((block.n(), block.message_count()), (5, 3));
        assert_eq!([&block.head()[..], block.records()].concat(), out);
        let empty = run(&[]);
        let block = Reader::new(&empty).canonical_messages(1).unwrap();
        assert_eq!((block.message_count(), block.records()), (0, &[][..]));
    }

    #[test]
    fn every_run_from_messages_rejects_or_reorders_is_not_canonical() {
        let ok = |a: Vec<u8>, b: Vec<u8>| run(&[a, b]);
        let cases = [
            ("out of range src", ok(record(0, 1, 1), record(4, 1, 1))),
            ("out of range dst", ok(record(0, 1, 1), record(1, 4, 1))),
            ("self-message", ok(record(0, 1, 1), record(2, 2, 1))),
            ("zero bytes", ok(record(0, 1, 1), record(1, 2, 0))),
            ("duplicate", ok(record(1, 2, 1), record(1, 2, 9))),
            ("descending dst", ok(record(1, 3, 1), record(1, 2, 1))),
            ("descending src", ok(record(2, 0, 1), record(1, 3, 1))),
            (
                "huge endpoints",
                ok(record(u32::MAX, 0, 1), record(0, u32::MAX, 1)),
            ),
        ];
        for (what, bytes) in cases {
            assert_eq!(Reader::new(&bytes).canonical_messages(4), None, "{what}");
        }
        // Cut short anywhere, or a count past the bytes: not canonical.
        let whole = ok(record(0, 1, 1), record(1, 0, 1));
        assert!(Reader::new(&whole).canonical_messages(4).is_some());
        for cut in 0..whole.len() {
            assert_eq!(Reader::new(&whole[..cut]).canonical_messages(4), None);
        }
    }
}
