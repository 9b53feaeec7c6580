//! The two hashes of the stack, both the same on every host. Wire frames
//! (`schedd`) and schedule artifacts (`store`) end in [`checksum64`] of
//! what they carry; cache keys ([`crate::Fingerprint`],
//! [`crate::InstanceKey`]) are [`hash128`] of their canonical bytes.
//! Corruption detection and key spreading, not security.

const K: u64 = 0x9e37_79b9_7f4a_7c15;
const SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// One lane step: a bijection of `lane` for a fixed `word` and injective
/// in `word` for a fixed `lane` (xor, odd multiply and rotate all are).
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(K).rotate_left(29)
}

/// 64-bit checksum of `bytes`, the same on every host.
///
/// The input is read as little-endian `u64` words dealt round-robin over
/// four independent lanes (one multiply latency per 32 bytes, not per
/// byte); the last partial block is zero-padded, the lanes are chained
/// into one word, the length is folded in and a bijective finaliser
/// spreads the result.
///
/// Guarantee: two inputs of equal length that differ only inside one
/// aligned 8-byte word — so any single flipped bit or byte — *always*
/// have different sums, because that word enters one injective lane step
/// and everything after it is a bijection of the state. Wider damage
/// goes undetected with probability 2⁻⁶⁴.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.split_at(bytes.len() & !31);
    let mut padded = [0u8; 32];
    padded[..tail.len()].copy_from_slice(tail);
    let mut lanes = SEEDS;
    let last = (!tail.is_empty()).then_some(&padded[..]);
    // `for_each`, not `for`: a chain folds each half in its own loop.
    blocks.chunks_exact(32).chain(last).for_each(|block| {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    });
    let [a, b, c, d] = lanes;
    let mut h = step(step(step(a, b), c), d) ^ bytes.len() as u64;
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

const K128: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835;
const SEEDS128: [u128; 4] = [
    0x243f_6a88_85a3_08d3_1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0_082e_fa98_ec4e_6c89,
    0x4528_21e6_38d0_1377_be54_66cf_34e9_0c6c,
    0xc0ac_29b7_c97c_50dd_3f84_d5b5_b547_0917,
];

/// [`step`] at twice the width, with the same two properties.
fn step128(lane: u128, word: u128) -> u128 {
    (lane ^ word).wrapping_mul(K128).rotate_left(67)
}

/// 128-bit hash of `bytes`, the same on every host: the key function of
/// the cache. [`checksum64`]'s construction at twice the width — 16-byte
/// little-endian words over four independent `u128` lanes, a zero-padded
/// last block, the lanes chained, the length folded in, a bijective
/// finaliser — so there are 128 bits of state from the first word to the
/// last and an accidental collision stays at 2⁻¹²⁸.
///
/// Guarantee: two inputs of equal length that differ only inside one
/// aligned 16-byte word *always* hash differently (one injective lane
/// step, bijections after it). The finaliser ends in a fold of the high
/// bits onto the low ones, so every bit range of the digest — the
/// sharded LRU picks its shard from the lowest — is as spread as the
/// whole.
pub fn hash128(bytes: &[u8]) -> u128 {
    let mut hash = Hash128::new();
    hash.update(bytes);
    hash.finish()
}

/// [`hash128`] of a concatenation, fed one piece at a time: a cache key
/// hashed from a header and bytes that arrived elsewhere, without
/// copying them into one buffer. Whole blocks are read in place; only a
/// block that straddles two pieces is assembled.
pub(crate) struct Hash128 {
    lanes: [u128; 4],
    /// The bytes of the block not yet complete.
    pending: [u8; 64],
    filled: usize,
    len: usize,
}

impl Hash128 {
    pub(crate) fn new() -> Self {
        Hash128 {
            lanes: SEEDS128,
            pending: [0; 64],
            filled: 0,
            len: 0,
        }
    }

    fn block(lanes: &mut [u128; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(16)) {
            *lane = step128(
                *lane,
                u128::from_le_bytes(word.try_into().expect("16 bytes")),
            );
        }
    }

    /// Append `bytes` to the input.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len();
        if self.filled > 0 {
            let take = bytes.len().min(64 - self.filled);
            self.pending[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 64 {
                return;
            }
            Self::block(&mut self.lanes, &self.pending);
            self.filled = 0;
        }
        let (blocks, tail) = bytes.split_at(bytes.len() & !63);
        let lanes = &mut self.lanes;
        blocks
            .chunks_exact(64)
            .for_each(|block| Self::block(lanes, block));
        self.pending[..tail.len()].copy_from_slice(tail);
        self.filled = tail.len();
    }

    /// The digest of everything appended.
    pub(crate) fn finish(mut self) -> u128 {
        if self.filled > 0 {
            self.pending[self.filled..].fill(0);
            Self::block(&mut self.lanes, &self.pending);
        }
        let [a, b, c, d] = self.lanes;
        let mut h = step128(step128(step128(a, b), c), d) ^ self.len as u128;
        h = (h ^ (h >> 65)).wrapping_mul(0xff51_afd7_ed55_8ccd_c4ce_b9fe_1a85_ec53);
        h = (h ^ (h >> 65)).wrapping_mul(0x9fb2_1c65_1e98_df25_a076_1d64_78bd_642f);
        h ^ (h >> 65)
    }
}

#[cfg(test)]
mod tests {
    use super::{checksum64, hash128};

    fn ramp(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    /// The body of a `serve_hot` request, assembled field by field the way
    /// `schedd::SubmitRequest::encode` does (`schedd` pins the same sum on
    /// the real encoder's output): a 64-node 8-regular 1 KiB pattern on
    /// `cube:d=6` for RS_NL, schedule wanted.
    fn serve_hot_body() -> Vec<u8> {
        let matrix = workloads::Generator::dregular(64, 8, 1024).generate(1);
        let mut body = vec![0x01]; // Submit
        body.extend_from_slice(&0u64.to_le_bytes()); // request_id
        body.push(1); // want_schedule
        body.push(0); // hypercube
        body.extend_from_slice(&6u32.to_le_bytes()); // dims
        body.extend_from_slice(&5u32.to_le_bytes());
        body.extend_from_slice(b"RS_NL");
        body.push(2); // scheme default
        body.push(1); // backend analytic
        body.extend_from_slice(&0u64.to_le_bytes()); // seed
        body.extend_from_slice(&64u64.to_le_bytes());
        body.extend_from_slice(&(matrix.message_count() as u64).to_le_bytes());
        for (src, dst, bytes) in matrix.messages() {
            body.extend_from_slice(&src.0.to_le_bytes());
            body.extend_from_slice(&dst.0.to_le_bytes());
            body.extend_from_slice(&bytes.to_le_bytes());
        }
        body
    }

    #[test]
    fn known_answers() {
        // Cross-checked against an independent big-integer implementation;
        // a change to any of these is a change of the wire and disk formats.
        let body = serve_hot_body();
        assert_eq!(body.len(), 6194);
        let cases: [(Vec<u8>, u64); 9] = [
            (vec![], 0x599b_d6e8_533e_3462),
            (vec![0xa5], 0x2a97_1618_1236_9939),
            (ramp(7), 0x898b_08a0_2a29_dccc),
            (ramp(8), 0xb1f5_7ee6_e8d5_49b4),
            (ramp(31), 0xbb3d_1b40_5e6c_fbc8),
            (ramp(32), 0xe558_e97e_9b44_cc62),
            (ramp(33), 0xa4ca_e367_5712_1896),
            (ramp(1024), 0x83d9_e830_abf6_ef69),
            (body, 0xb354_61c2_70f2_5801),
        ];
        for (input, sum) in cases {
            assert_eq!(
                checksum64(&input),
                sum,
                "{} bytes: {:#018x}",
                input.len(),
                checksum64(&input)
            );
        }
    }

    #[test]
    fn hash128_known_answers() {
        // Cross-checked against an independent big-integer implementation
        // (python3 integers: the same seeds, multiplier, rotation and
        // finaliser written from this file's description); a change to any
        // of these is a change of every cache key, so of `LAYOUT_VERSION`.
        let body = serve_hot_body();
        assert_eq!(body.len(), 6194);
        let cases: [(Vec<u8>, u128); 10] = [
            (vec![], 0xd250_6276_d800_a336_5648_832f_ef07_4764),
            (vec![0xa5], 0xdbea_5dc5_8e9e_b98c_8ef7_6332_59bb_49a6),
            (ramp(15), 0x9afb_c440_111a_313a_0cd7_f9cf_c26d_739a),
            (ramp(16), 0xef57_c860_ace2_fba5_fd00_2588_9ec6_94ac),
            (ramp(17), 0x0ecc_df7a_c6d6_dc9e_0a53_4425_ebc8_6942),
            (ramp(63), 0x20c4_e41f_836d_5908_a12a_dccd_90c8_8785),
            (ramp(64), 0x0c85_5972_3080_f6c5_08c7_b256_30ea_c290),
            (ramp(65), 0x18cd_9a82_d757_b5eb_246e_33fa_1a3f_9cc7),
            (ramp(1024), 0xb5bc_ec3b_863e_22ca_dcf1_7b91_e167_de78),
            (body, 0x23b2_8d21_7868_a02a_6419_73a5_7b7a_8ad2),
        ];
        for (input, digest) in cases {
            assert_eq!(
                hash128(&input),
                digest,
                "{} bytes: {:#034x}",
                input.len(),
                hash128(&input)
            );
        }
    }

    /// Every single-bit and single-byte change at every offset, a dropped
    /// last byte and an appended zero all change `digest`, at lengths
    /// `0..=max_len` — every tail length in and around a few blocks: every
    /// lane, every position in the padded block.
    fn assert_detects_small_corruption<T: PartialEq + std::fmt::Debug>(
        digest: fn(&[u8]) -> T,
        max_len: usize,
    ) {
        for len in 0..=max_len {
            let clean: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let sum = digest(&clean);
            let mut bad = clean.clone();
            for at in 0..len {
                for bit in 0..8 {
                    bad[at] = clean[at] ^ (1 << bit);
                    assert_ne!(digest(&bad), sum, "len {len}: bit {bit} of byte {at}");
                }
                for delta in [1u8, 0x5a, 0xff] {
                    bad[at] = clean[at].wrapping_add(delta);
                    assert_ne!(digest(&bad), sum, "len {len}: byte {at} + {delta}");
                }
                bad[at] = clean[at];
            }
            if len > 0 {
                assert_ne!(
                    digest(&clean[..len - 1]),
                    sum,
                    "len {len}: last byte dropped"
                );
            }
            bad.push(0);
            assert_ne!(digest(&bad), sum, "len {len}: zero byte appended");
        }
    }

    #[test]
    fn every_small_corruption_changes_the_sum_at_every_alignment() {
        // Three 32-byte blocks and a byte.
        assert_detects_small_corruption(checksum64, 97);
    }

    #[test]
    fn a_hash_fed_in_pieces_is_the_hash_of_their_concatenation() {
        // Every split of a 150-byte input into three pieces (empty ones
        // included) straddles the 64-byte blocks every way there is.
        let input = ramp(150);
        let whole = hash128(&input);
        for i in 0..=input.len() {
            for j in (i..=input.len()).step_by(7).chain([input.len()]) {
                let mut hash = super::Hash128::new();
                for piece in [&input[..i], &input[i..j], &input[j..]] {
                    hash.update(piece);
                }
                assert_eq!(hash.finish(), whole, "split at {i} and {j}");
            }
        }
    }

    #[test]
    fn hash128_changes_with_every_small_change_at_every_alignment() {
        // Two 64-byte blocks and two bytes.
        assert_detects_small_corruption(hash128, 130);
    }
}
