//! The one integrity checksum of the stack: wire frames (`schedd`) and
//! schedule artifacts (`store`) both end in [`checksum64`] of what they
//! carry. Corruption detection, not security.

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

#[cfg(test)]
mod tests {
    use super::checksum64;

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
    fn every_small_corruption_changes_the_sum_at_every_alignment() {
        // Lengths 0..=97 cover every tail length in and around three
        // 32-byte blocks: every lane, every position in the padded block.
        for len in 0..=97usize {
            let clean: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let sum = checksum64(&clean);
            let mut bad = clean.clone();
            for at in 0..len {
                for bit in 0..8 {
                    bad[at] = clean[at] ^ (1 << bit);
                    assert_ne!(checksum64(&bad), sum, "len {len}: bit {bit} of byte {at}");
                }
                for delta in [1u8, 0x5a, 0xff] {
                    bad[at] = clean[at].wrapping_add(delta);
                    assert_ne!(checksum64(&bad), sum, "len {len}: byte {at} + {delta}");
                }
                bad[at] = clean[at];
            }
            if len > 0 {
                assert_ne!(
                    checksum64(&clean[..len - 1]),
                    sum,
                    "len {len}: last byte dropped"
                );
            }
            bad.push(0);
            assert_ne!(checksum64(&bad), sum, "len {len}: zero byte appended");
        }
    }
}
