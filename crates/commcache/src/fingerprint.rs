//! Canonical 128-bit fingerprints over scheduling requests (the full
//! layout contract is documented on [`Fingerprint`], the public face of
//! this private module). Its strings and matrix block are written by the
//! [`codec`](crate::codec) the wire frames and the artifact share.

use std::fmt;

use commsched::CommMatrix;
use hypercube::Topology;

use crate::checksum::{hash128, Hash128};
use crate::codec::{put_matrix, put_str, MatrixBlock};

/// Append the instance section's header: everything before the matrix
/// block.
fn put_instance_header(out: &mut Vec<u8>, topo: &dyn Topology) {
    out.extend_from_slice(b"CCFP");
    out.push(LAYOUT_VERSION);
    put_str(out, topo.name());
    out.extend_from_slice(&(topo.num_nodes() as u64).to_le_bytes());
    out.extend_from_slice(&(topo.link_count() as u64).to_le_bytes());
}

/// The instance section of the canonical layout, materialized.
fn instance_section(com: &CommMatrix, topo: &dyn Topology) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 12 * com.message_count());
    put_instance_header(&mut out, topo);
    put_matrix(&mut out, com);
    out
}

/// Append the request section of the canonical layout.
fn request_section(out: &mut Vec<u8>, scheduler_name: &str, seed: u64) {
    put_str(out, scheduler_name);
    out.extend_from_slice(&seed.to_le_bytes());
}

/// The canonical 128-bit key of one scheduling request.
///
/// A schedule is a pure function of *(communication matrix, topology,
/// scheduler, seed)*. The fingerprint is a 128-bit hash
/// ([`hash128`](crate::hash128)) over a
/// **documented, stable byte serialization** of exactly those inputs, so
/// a key computed today equals the key computed by another process,
/// another build, or another machine tomorrow — the property the
/// persistent artifact store needs to survive restarts.
///
/// # Canonical byte layout (version [`LAYOUT_VERSION`])
///
/// All integers are little-endian. Strings are UTF-8, length-prefixed
/// with a `u32`.
///
/// | field | encoding |
/// |-------|----------|
/// | tag | the 4 bytes `b"CCFP"` |
/// | layout version | `u8` = 2 |
/// | topology name | `u32` length + bytes ([`Topology::name`]) |
/// | topology nodes | `u64` ([`Topology::num_nodes`]) |
/// | topology links | `u64` ([`Topology::link_count`]) |
/// | matrix nodes | `u64` (`CommMatrix::n`) |
/// | message count | `u64` |
/// | messages | per message, row-major: `u32` src, `u32` dst, `u32` bytes |
/// | scheduler name | `u32` length + bytes ([`commsched::Scheduler::name`]) |
/// | seed | `u64` |
/// | cost section | *only for non-uniform link costs*: the 4 bytes `b"COST"`, then `u32` length + canonical cost string |
///
/// The matrix nodes, message count and messages are the
/// [`codec`](crate::codec)'s matrix block, the same bytes a `schedd`
/// `Submit` frame carries for a row-major matrix. So a block that arrives
/// in that canonical form ([`crate::codec::MatrixBlock`]) keys its
/// instance straight from the bytes ([`InstanceKey::of_block`]), and the
/// daemon recognises a repeat without building its matrix.
///
/// Everything up to and including the messages is the **instance
/// section**, the scheduler name and seed form the **request section**,
/// and the keys are a chain of three hashes, each over the 16
/// little-endian bytes of the one before followed by the next section:
///
/// | key | value |
/// |-----|-------|
/// | [`InstanceKey`] | `hash128(instance section)` |
/// | [`Fingerprint`] | `hash128(instance key ‖ request section)` |
/// | [`with_cost_model`](Fingerprint::with_cost_model) | `hash128(fingerprint ‖ cost section)`, the identity for `"uniform"` |
///
/// [`Fingerprint::compute`] *is* [`InstanceKey::compute`] followed by
/// [`InstanceKey::schedule_key`], so the one-shot and two-step
/// derivations can never disagree, and a grid hashes the long instance
/// section once per matrix however many schedulers and seeds it asks
/// for. [`canonical_bytes`](crate::canonical_bytes) returns the
/// instance and request sections, which are built by the same code the
/// keys hash.
///
/// Keys are scoped to a [`LAYOUT_VERSION`]: an artifact stored, or a
/// delta `base` computed, under another layout is never asked for again —
/// a miss or an `UnknownBase` and a full resubmit, never a wrong answer.
///
/// The scheduler **name stands in for the scheduler's options**:
/// registry entries bake their [`commsched::RsOptions`] configuration
/// into unique names (`RS_NL`, `RS_NL_NOPAIR`, ...). Ad-hoc schedulers
/// must follow the same discipline — two differently-behaving schedulers
/// sharing a name would alias in the cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Fingerprint the full request in one shot.
    pub fn compute(
        com: &CommMatrix,
        topo: &dyn Topology,
        scheduler_name: &str,
        seed: u64,
    ) -> Fingerprint {
        InstanceKey::compute(com, topo).schedule_key(scheduler_name, seed)
    }

    /// The 32-digit lowercase hex rendering (artifact file names).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse a [`Fingerprint::to_hex`] rendering. `None` for anything that
    /// is not exactly 32 ASCII hex digits (no sign, no prefix).
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }

    /// Extend this fingerprint with a link-cost-model section: the hash
    /// of this fingerprint's bytes, `b"COST"` and the canonical cost
    /// string (length-prefixed).
    ///
    /// The `"uniform"` model returns the fingerprint **unchanged**: a
    /// uniform request's estimate key is its schedule key (the one
    /// persisted artifacts and daemon cache entries are stored under),
    /// and only non-uniform requests branch into fresh keys.
    ///
    /// `canonical` must be the model's canonical rendering (its `Display`
    /// output, which its parser round-trips), never raw user input — two
    /// spellings of one model must share a key.
    pub fn with_cost_model(self, canonical: &str) -> Fingerprint {
        if canonical == "uniform" {
            return self;
        }
        let mut bytes = self.to_bytes().to_vec();
        bytes.extend_from_slice(b"COST");
        put_str(&mut bytes, canonical);
        Fingerprint(hash128(&bytes))
    }

    /// The 16 little-endian bytes (artifact header field).
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Inverse of [`Fingerprint::to_bytes`].
    pub fn from_bytes(bytes: [u8; 16]) -> Fingerprint {
        Fingerprint(u128::from_le_bytes(bytes))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

/// Hash of the instance section only — the *(matrix, topology)* pair.
///
/// Grids that schedule one sampled matrix under many schedulers can hash
/// the instance once and derive each scheduler's [`Fingerprint`] with
/// [`InstanceKey::schedule_key`], which only hashes the short request
/// section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InstanceKey(u128);

impl InstanceKey {
    /// Hash the instance section of the canonical layout.
    pub fn compute(com: &CommMatrix, topo: &dyn Topology) -> InstanceKey {
        InstanceKey(hash128(&instance_section(com, topo)))
    }

    /// Hash the instance section whose matrix block is `block`, read from
    /// the bytes it arrived in. A canonical block is byte for byte what
    /// [`put_matrix`] writes for the matrix it decodes to, so this is
    /// [`compute`](Self::compute) of that matrix, without building it.
    pub fn of_block(block: MatrixBlock<'_>, topo: &dyn Topology) -> InstanceKey {
        let mut header = Vec::with_capacity(64);
        put_instance_header(&mut header, topo);
        header.extend_from_slice(&block.head());
        let mut hash = Hash128::new();
        hash.update(&header);
        hash.update(block.records());
        InstanceKey(hash.finish())
    }

    /// Hash this key's bytes followed by the request section, producing
    /// the full [`Fingerprint`] — [`Fingerprint::compute`] is this call.
    pub fn schedule_key(self, scheduler_name: &str, seed: u64) -> Fingerprint {
        let mut bytes = self.to_bytes().to_vec();
        request_section(&mut bytes, scheduler_name, seed);
        Fingerprint(hash128(&bytes))
    }

    /// The 16 little-endian bytes (the daemon's `SubmitDelta` frame names
    /// its base instance this way).
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Inverse of [`InstanceKey::to_bytes`].
    pub fn from_bytes(bytes: [u8; 16]) -> InstanceKey {
        InstanceKey(u128::from_le_bytes(bytes))
    }

    /// The 32-digit lowercase hex rendering (logs and error details).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// The raw 128-bit value, for crate-internal keying.
    pub(crate) fn raw(self) -> u128 {
        self.0
    }
}

/// Version byte of the canonical layout. Bump it when the serialization
/// or the hash over it changes — every key (and thus every persisted
/// artifact) is invalidated at once, which is the correct failure mode.
pub const LAYOUT_VERSION: u8 = 2;

/// The canonical byte serialization of a full request: the instance
/// section followed by the request section, from the same two builders
/// the keys hash, so tests (and tooling) can assert the documented layout
/// byte for byte.
pub fn canonical_bytes(
    com: &CommMatrix,
    topo: &dyn Topology,
    scheduler_name: &str,
    seed: u64,
) -> Vec<u8> {
    let mut out = instance_section(com, topo);
    request_section(&mut out, scheduler_name, seed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::Hypercube;
    use topo::Torus;

    fn sample_com() -> CommMatrix {
        let mut com = CommMatrix::new(16);
        com.set(0, 5, 1024);
        com.set(5, 0, 1024);
        com.set(3, 7, 64);
        com
    }

    #[test]
    fn keys_are_hash128_of_the_documented_bytes() {
        // The instance key is the hash of the instance section exactly as
        // `canonical_bytes` returns it, and the fingerprint is the hash of
        // that key's bytes followed by the request section.
        let com = sample_com();
        let cube = Hypercube::new(4);
        let bytes = canonical_bytes(&com, &cube, "RS_NL", 9);
        let (instance, request) = bytes.split_at(bytes.len() - (4 + "RS_NL".len() + 8));
        let key = InstanceKey::compute(&com, &cube);
        assert_eq!(key.raw(), hash128(instance));
        let chained = [&key.to_bytes()[..], request].concat();
        assert_eq!(
            Fingerprint::compute(&com, &cube, "RS_NL", 9).0,
            hash128(&chained)
        );
    }

    #[test]
    fn a_canonical_block_keys_its_instance_from_the_bytes() {
        for (com, topo) in [
            (sample_com(), &Hypercube::new(4) as &dyn Topology),
            (CommMatrix::new(16), &Torus::mesh(4, 4)),
            (
                workloads::random_dregular(64, 8, 1024, 3),
                &Hypercube::new(6),
            ),
        ] {
            let mut block = Vec::new();
            put_matrix(&mut block, &com);
            let view = crate::codec::Reader::new(&block[8..])
                .canonical_messages(com.n())
                .expect("canonical");
            assert_eq!(
                InstanceKey::of_block(view, topo),
                InstanceKey::compute(&com, topo)
            );
        }
    }

    #[test]
    fn two_step_derivation_equals_one_shot() {
        let com = sample_com();
        let cube = Hypercube::new(4);
        let one_shot = Fingerprint::compute(&com, &cube, "RS_N", 3);
        let two_step = InstanceKey::compute(&com, &cube).schedule_key("RS_N", 3);
        assert_eq!(one_shot, two_step);
    }

    #[test]
    fn every_input_perturbs_the_key() {
        let com = sample_com();
        let cube = Hypercube::new(4);
        let base = Fingerprint::compute(&com, &cube, "RS_NL", 9);
        // Weight perturbation.
        let mut com2 = com.clone();
        com2.set(3, 7, 65);
        assert_ne!(Fingerprint::compute(&com2, &cube, "RS_NL", 9), base);
        // Pattern perturbation (extra message).
        let mut com3 = com.clone();
        com3.set(1, 2, 1);
        assert_ne!(Fingerprint::compute(&com3, &cube, "RS_NL", 9), base);
        // Scheduler, seed, topology dimension, topology family.
        assert_ne!(Fingerprint::compute(&com, &cube, "RS_N", 9), base);
        assert_ne!(Fingerprint::compute(&com, &cube, "RS_NL", 10), base);
        assert_ne!(
            Fingerprint::compute(&com, &Hypercube::new(5), "RS_NL", 9),
            base
        );
        assert_ne!(
            Fingerprint::compute(&com, &Torus::mesh(4, 4), "RS_NL", 9),
            base
        );
    }

    #[test]
    fn hex_roundtrip_and_rendering() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(format!("{fp}"), hex);
        assert!(Fingerprint::from_hex("xyz").is_none());
        assert!(Fingerprint::from_hex(&hex[1..]).is_none());
        assert_eq!(Fingerprint::from_bytes(fp.to_bytes()), fp);
    }

    #[test]
    fn from_hex_takes_hex_digits_only() {
        // `u128::from_str_radix` alone takes a leading `+`.
        let signed = format!("+{}", "0".repeat(30) + "1");
        assert_eq!(signed.len(), 32);
        assert_eq!(Fingerprint::from_hex(&signed), None);
        assert_eq!(Fingerprint::from_hex(&format!("-{}", "0".repeat(31))), None);
        assert_eq!(Fingerprint::from_hex(&format!(" {}", "0".repeat(31))), None);
        // Upper-case digits are digits: they parse, to the same key.
        let fp = Fingerprint(0xabcd);
        assert_eq!(Fingerprint::from_hex(&fp.to_hex().to_uppercase()), Some(fp));
    }

    #[test]
    fn uniform_cost_section_is_the_identity() {
        // A uniform request's estimate key is its schedule key: the
        // uniform model adds nothing to hash.
        let com = sample_com();
        let cube = Hypercube::new(4);
        let base = Fingerprint::compute(&com, &cube, "RS_NL", 9);
        assert_eq!(base.with_cost_model("uniform"), base);
    }

    #[test]
    fn non_uniform_cost_models_branch_the_key() {
        let com = sample_com();
        let cube = Hypercube::new(4);
        let base = Fingerprint::compute(&com, &cube, "RS_NL", 9);
        let faulty = base.with_cost_model("faulty:p=0.05,seed=7");
        let loggp = base.with_cost_model("loggp:o=2000,g=500,G=1.25");
        assert_ne!(faulty, base);
        assert_ne!(loggp, base);
        assert_ne!(faulty, loggp);
        // Different parameters of one preset also diverge.
        assert_ne!(faulty, base.with_cost_model("faulty:p=0.05,seed=8"));
        // And the extension matches the documented byte stream.
        let mut bytes = base.to_bytes().to_vec();
        bytes.extend_from_slice(b"COST");
        bytes.extend_from_slice(&20u32.to_le_bytes());
        bytes.extend_from_slice(b"faulty:p=0.05,seed=7");
        assert_eq!(faulty.0, hash128(&bytes));
    }

    #[test]
    fn empty_matrix_still_keys_deterministically() {
        let com = CommMatrix::new(8);
        let cube = Hypercube::new(3);
        let a = Fingerprint::compute(&com, &cube, "AC", 0);
        let b = Fingerprint::compute(&com, &cube, "AC", 0);
        assert_eq!(a, b);
        assert_ne!(a, Fingerprint::compute(&com, &cube, "LP", 0));
    }
}
