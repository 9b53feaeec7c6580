//! The persistent schedule artifact store.
//!
//! Compiled schedules serialize to a versioned on-disk format, one file
//! per [`Fingerprint`] (`<32-hex>.sched`) under the store directory
//! (conventionally `results/cache/`). The format is hand-rolled — the
//! workspace builds offline with no serde — and hardened the way an
//! artifact cache must be: reads of corrupted, truncated, renamed, or
//! foreign files return typed [`StoreError`]s instead of panicking, and
//! files written by an unknown format version are **skipped, not
//! trusted**.
//!
//! # On-disk format (version 4)
//!
//! All integers little-endian.
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0 | 8 | magic `b"CCSCHED\0"` |
//! | 8 | 4 | format version `u32` = 4 |
//! | 12 | 16 | fingerprint (`u128`, LE) |
//! | 28 | 8 | payload length `u64` |
//! | 36 | len | payload (below) |
//! | 36+len | 8 | [`checksum64`] of the payload |
//!
//! Payload: `u8` schedule kind (0 async, 1 phased), `u8` algorithm family
//! (0 AC, 1 LP, 2 RS_N, 3 RS_NL), `u64` node count `n`, `u64` scheduling
//! ops, `u64` compression ops, `u64` phase count, then per phase `n`
//! destination words (`u32`; `0xffff_ffff` encodes "silent"), then a
//! topology section: `u8` presence flag — when 1, the topology kind
//! string (`u32` length + bytes), `u64` node count, and `u64` link count
//! of the fabric the schedule was compiled for — then a link-cost
//! section: `u8` presence flag — when 1, a cost-model string (`u32`
//! length + bytes). The encoder always writes the link-cost section
//! absent (flag 0); the decoder validates a present one and skips it.
//! Versions 1–3 summed the payload differently and are foreign versions
//! like any other. Strings and bounds-checked reads are the
//! [`codec`](crate::codec)'s, which the wire and the fingerprint share.
//!
//! The phase words are the schedule's in-memory phase table verbatim
//! ([`Schedule::table`]: `phases × n` words, row-major, [`SILENT`] for a
//! silent node), so encoding writes the table out word by word and
//! decoding reads it into one allocation, checking each word against `n`.
//!
//! Writes go through a same-directory temp file plus rename, so a crashed
//! writer leaves no half-written `.sched` file behind.

use std::fmt;
use std::path::{Path, PathBuf};

use commsched::{Schedule, ScheduleKind, SchedulerKind, SILENT};
use hypercube::Topology;

use crate::codec::{put_str, CodecError, Reader};
use crate::{checksum64, Fingerprint};

/// Leading magic of every artifact file.
pub const MAGIC: [u8; 8] = *b"CCSCHED\0";

/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 4;

/// The topology section of an artifact: which fabric a schedule was
/// compiled for, at-a-glance (`schedctl inspect`) without rebuilding the
/// topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyMeta {
    /// The topology's report name (e.g. `torus(4x4)`), exactly the string
    /// hashed into the fingerprint.
    pub kind: String,
    /// Compute-node count.
    pub nodes: u64,
    /// Directed-link id space size.
    pub links: u64,
}

impl TopologyMeta {
    /// Snapshot the identifying fields of a live topology.
    pub fn of(topo: &dyn Topology) -> TopologyMeta {
        TopologyMeta {
            kind: topo.name().to_string(),
            nodes: topo.num_nodes() as u64,
            links: topo.link_count() as u64,
        }
    }
}

/// Artifact file extension (without the dot).
pub const EXTENSION: &str = "sched";

/// Size of the fixed header before the payload.
const HEADER_LEN: usize = 8 + 4 + 16 + 8;

/// Why an artifact could not be written or trusted.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not an artifact at all.
    BadMagic,
    /// The file is a different format version. Callers treat this as a
    /// cache miss (skip, recompute, overwrite) — never as data.
    UnsupportedVersion(u32),
    /// The file ends before its own declared length.
    Truncated,
    /// Structurally invalid content (bad checksum, codes, or indices).
    Corrupt(String),
    /// The artifact's embedded fingerprint does not match the requested
    /// key (e.g. a renamed file).
    FingerprintMismatch {
        /// Key the caller asked for.
        requested: Fingerprint,
        /// Key the file claims.
        found: Fingerprint,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "artifact I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a schedule artifact (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact format version {v}")
            }
            StoreError::Truncated => write!(f, "truncated schedule artifact"),
            StoreError::Corrupt(what) => write!(f, "corrupt schedule artifact: {what}"),
            StoreError::FingerprintMismatch { requested, found } => write!(
                f,
                "artifact fingerprint mismatch: requested {requested}, file claims {found}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

fn kind_code(kind: ScheduleKind) -> u8 {
    match kind {
        ScheduleKind::Async => 0,
        ScheduleKind::Phased => 1,
    }
}

fn kind_from_code(code: u8) -> Option<ScheduleKind> {
    [ScheduleKind::Async, ScheduleKind::Phased]
        .into_iter()
        .find(|&kind| kind_code(kind) == code)
}

fn family_code(kind: SchedulerKind) -> u8 {
    match kind {
        SchedulerKind::Ac => 0,
        SchedulerKind::Lp => 1,
        SchedulerKind::RsN => 2,
        SchedulerKind::RsNl => 3,
    }
}

fn family_from_code(code: u8) -> Option<SchedulerKind> {
    use SchedulerKind::*;
    [Ac, Lp, RsN, RsNl]
        .into_iter()
        .find(|&kind| family_code(kind) == code)
}

/// Serialize one schedule into a complete artifact (header + payload +
/// checksum) keyed by `fp`, without a topology section. This is the wire
/// encoding the daemon streams; the store's write path attaches topology
/// metadata via [`encode_artifact_with`].
pub fn encode_artifact(fp: Fingerprint, schedule: &Schedule) -> Vec<u8> {
    encode_artifact_with(fp, schedule, None)
}

/// [`encode_artifact`] with an optional topology section describing the
/// fabric the schedule was compiled for. The link-cost section is always
/// written absent.
pub fn encode_artifact_with(
    fp: Fingerprint,
    schedule: &Schedule,
    topology: Option<&TopologyMeta>,
) -> Vec<u8> {
    let table = schedule.table();
    // The header first, its length word patched once the payload is
    // written after it in place.
    let mut out = Vec::with_capacity(HEADER_LEN + 36 + table.len() * 4 + 64 + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&fp.to_bytes());
    out.extend_from_slice(&[0; 8]);
    out.push(kind_code(schedule.kind()));
    out.push(family_code(schedule.algorithm()));
    out.extend_from_slice(&(schedule.n() as u64).to_le_bytes());
    out.extend_from_slice(&schedule.ops().to_le_bytes());
    out.extend_from_slice(&schedule.compress_ops().to_le_bytes());
    out.extend_from_slice(&(schedule.num_phases() as u64).to_le_bytes());
    out.extend(table.iter().flat_map(|w| w.to_le_bytes()));
    match topology {
        None => out.push(0),
        Some(meta) => {
            out.push(1);
            put_str(&mut out, &meta.kind);
            out.extend_from_slice(&meta.nodes.to_le_bytes());
            out.extend_from_slice(&meta.links.to_le_bytes());
        }
    }
    out.push(0); // no link-cost section
    let payload = &out[HEADER_LEN..];
    let (len, sum) = (payload.len() as u64, checksum64(payload));
    out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => StoreError::Truncated,
            CodecError::TrailingBytes => StoreError::Corrupt("trailing payload bytes".into()),
            CodecError::BadString(what) => StoreError::Corrupt(format!("{what} not UTF-8")),
        }
    }
}

/// An optional section: a presence flag, then — when 1 — the string
/// (`u32` length + UTF-8 bytes) the section opens with.
fn section(p: &mut Reader<'_>, what: &'static str) -> Result<Option<String>, StoreError> {
    match p.u8()? {
        0 => Ok(None),
        1 => Ok(Some(p.str(what, usize::MAX)?)),
        flag => Err(StoreError::Corrupt(format!("{what} presence flag {flag}"))),
    }
}

/// Parse a complete artifact back into its fingerprint and schedule,
/// discarding the topology section ([`decode_artifact_full`] keeps it).
///
/// # Errors
///
/// Every malformation maps to a typed [`StoreError`]; this function never
/// panics on untrusted bytes.
pub fn decode_artifact(bytes: &[u8]) -> Result<(Fingerprint, Schedule), StoreError> {
    decode_artifact_full(bytes).map(|(fp, schedule, _)| (fp, schedule))
}

/// Parse a complete artifact, including its topology section (`None` for
/// wire artifacts, which carry none). A link-cost section is validated
/// and skipped.
///
/// # Errors
///
/// Every malformation maps to a typed [`StoreError`]; this function never
/// panics on untrusted bytes.
pub fn decode_artifact_full(
    bytes: &[u8],
) -> Result<(Fingerprint, Schedule, Option<TopologyMeta>), StoreError> {
    let mut header = Reader::new(bytes);
    if header.take(MAGIC.len())? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = header.u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let fp = Fingerprint::from_bytes(header.array()?);
    let payload_len = header.u64()? as usize;
    let payload = header.take(payload_len)?;
    if checksum64(payload) != header.u64()? {
        return Err(StoreError::Corrupt("payload checksum mismatch".into()));
    }

    let mut p = Reader::new(payload);
    let kind = p.u8()?;
    let kind =
        kind_from_code(kind).ok_or_else(|| StoreError::Corrupt(format!("schedule kind {kind}")))?;
    let family = p.u8()?;
    let family = family_from_code(family)
        .ok_or_else(|| StoreError::Corrupt(format!("algorithm family {family}")))?;
    let n = p.u64()? as usize;
    if n == 0 || n > u32::MAX as usize {
        return Err(StoreError::Corrupt(format!("node count {n}")));
    }
    let ops = p.u64()?;
    let compress_ops = p.u64()?;
    let phase_count = p.u64()? as usize;
    // A phase is n words; bound the claimed count by the payload actually
    // present before allocating anything proportional to it.
    if phase_count > p.remaining() / (n * 4).max(1) {
        return Err(StoreError::Truncated);
    }
    let words = p.take(phase_count * n * 4)?;
    let table: Vec<u32> = words
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
        .collect();
    // A branch-free sweep first; the first bad word is looked for only
    // once there is one.
    let out_of_range = |w: u32| w != SILENT && w as usize >= n;
    if table.iter().fold(false, |bad, &w| bad | out_of_range(w)) {
        let word = table
            .iter()
            .find(|&&w| out_of_range(w))
            .expect("a word is out of range");
        return Err(StoreError::Corrupt(format!(
            "destination {word} out of {n} nodes"
        )));
    }
    let topology = match section(&mut p, "topology kind")? {
        Some(kind) => Some(TopologyMeta {
            kind,
            nodes: p.u64()?,
            links: p.u64()?,
        }),
        None => None,
    };
    section(&mut p, "cost model")?;
    p.finish()?;
    Ok((
        fp,
        Schedule::from_parts(kind, family, n, table, ops, compress_ops),
        topology,
    ))
}

/// A directory of schedule artifacts, one file per fingerprint.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// A store rooted at `dir`. The directory is created lazily on the
    /// first write, so constructing a store never touches the filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore { dir: dir.into() }
    }

    /// The conventional store location, `results/cache/`.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results").join("cache")
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The artifact path of `fp` (whether or not it exists).
    pub fn path_for(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.{EXTENSION}", fp.to_hex()))
    }

    /// Persist `schedule` under `fp`, atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn store(&self, fp: Fingerprint, schedule: &Schedule) -> Result<PathBuf, StoreError> {
        self.store_with(fp, schedule, None)
    }

    /// [`ArtifactStore::store`] with a topology section, so the cache
    /// directory records which fabric each schedule was compiled for.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn store_with(
        &self,
        fp: Fingerprint,
        schedule: &Schedule,
        topology: Option<&TopologyMeta>,
    ) -> Result<PathBuf, StoreError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Process id + process-wide counter: concurrent writers of one key
        // — other processes *or* sibling threads (the cache documents that
        // two threads may race the same miss) — never share a temp file,
        // so the rename is genuinely atomic per writer.
        static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(fp);
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            fp.to_hex(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, encode_artifact_with(fp, schedule, topology))?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            std::fs::remove_file(&tmp).ok();
            return Err(e.into());
        }
        Ok(path)
    }

    /// Load the artifact of `fp`. `Ok(None)` when no artifact exists;
    /// typed errors when one exists but cannot be trusted.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnsupportedVersion`] for foreign format versions
    /// (callers treat as a miss), [`StoreError::FingerprintMismatch`] when
    /// the file's embedded key disagrees with `fp`, and the
    /// corruption/truncation/IO variants otherwise.
    pub fn load(&self, fp: Fingerprint) -> Result<Option<Schedule>, StoreError> {
        let bytes = match std::fs::read(self.path_for(fp)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (found, schedule) = decode_artifact(&bytes)?;
        if found != fp {
            return Err(StoreError::FingerprintMismatch {
                requested: fp,
                found,
            });
        }
        Ok(Some(schedule))
    }

    /// Enumerate the fingerprints with an artifact file present, sorted.
    /// Files whose names are not exactly some fingerprint's
    /// [`path_for`](Self::path_for) name (`<32 lowercase hex>.sched`) are
    /// ignored (they are not artifacts); decoding is up to the caller.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on directory-read failure. A missing directory
    /// is an empty store, not an error.
    pub fn entries(&self) -> Result<Vec<Fingerprint>, StoreError> {
        let read = match std::fs::read_dir(&self.dir) {
            Ok(read) => read,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut fps = Vec::new();
        for entry in read {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EXTENSION) {
                continue;
            }
            let stem = path.file_stem().and_then(|s| s.to_str());
            if let Some(fp) = stem.and_then(Fingerprint::from_hex) {
                if stem == Some(fp.to_hex().as_str()) {
                    fps.push(fp);
                }
            }
        }
        fps.sort_unstable();
        Ok(fps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched::{rs_nl, CommMatrix};
    use hypercube::Hypercube;

    fn sample_schedule() -> Schedule {
        let mut com = CommMatrix::new(8);
        com.set(0, 3, 512);
        com.set(3, 0, 512);
        com.set(1, 6, 64);
        rs_nl(&com, &Hypercube::new(3), 5)
    }

    fn tmp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("commcache_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ArtifactStore::new(dir)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample_schedule();
        let fp = Fingerprint(0xdead_beef);
        let bytes = encode_artifact(fp, &s);
        let (got_fp, got) = decode_artifact(&bytes).unwrap();
        assert_eq!(got_fp, fp);
        assert_eq!(got, s);
    }

    /// `bytes` with its payload's last byte (the link-cost flag) replaced
    /// by `tail`, the length and checksum rewritten to match.
    fn with_cost_section(bytes: &[u8], tail: &[u8]) -> Vec<u8> {
        let mut payload = bytes[HEADER_LEN..bytes.len() - 9].to_vec();
        payload.extend_from_slice(tail);
        let mut out = bytes[..HEADER_LEN - 8].to_vec();
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&checksum64(&payload).to_le_bytes());
        out
    }

    #[test]
    fn the_format_is_pinned_byte_for_byte() {
        // One phase on two nodes — 0 sends to 1, 1 is silent — for RS_NL,
        // 3 scheduling ops, compiled for `ring(2)`.
        let s = Schedule::from_parts(
            ScheduleKind::Phased,
            SchedulerKind::RsNl,
            2,
            vec![1, SILENT],
            3,
            0,
        );
        let meta = TopologyMeta {
            kind: "ring(2)".into(),
            nodes: 2,
            links: 4,
        };
        let fp = Fingerprint(0x0f0e_0d0c_0b0a_0908_0706_0504_0302_0100);
        let mut want = b"CCSCHED\0\x04\0\0\0".to_vec();
        want.extend(0u8..16); // fingerprint, LE
        want.extend_from_slice(&[71, 0, 0, 0, 0, 0, 0, 0]); // payload length
        want.extend_from_slice(&[1, 3]); // phased, RS_NL
        want.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0]); // n
        want.extend_from_slice(&[3, 0, 0, 0, 0, 0, 0, 0]); // scheduling ops
        want.extend_from_slice(&[0; 8]); // compression ops
        want.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]); // phases
        want.extend_from_slice(&[1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]); // 0 -> 1, silent
        want.extend_from_slice(b"\x01\x07\0\0\0ring(2)"); // topology present
        want.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]);
        want.push(0); // no cost model
        want.extend_from_slice(&0xd722_33e9_f527_d4feu64.to_le_bytes()); // checksum64(payload)
        assert_eq!(encode_artifact_with(fp, &s, Some(&meta)), want);
        let decoded = decode_artifact_full(&want).unwrap();
        assert_eq!(decoded, (fp, s.clone(), Some(meta.clone())));

        // A present cost section, as version 4 allows, decodes to the
        // same schedule.
        let costed = with_cost_section(&want, b"\x01\x0a\0\0\0faulty:p=1");
        assert_eq!(costed[28], 85); // payload length
        assert_eq!(
            costed[costed.len() - 8..],
            0x29b6_315b_e04d_be01u64.to_le_bytes()
        );
        assert_eq!(decode_artifact_full(&costed).unwrap(), decoded);
    }

    #[test]
    fn store_load_roundtrip_and_missing_is_none() {
        let store = tmp_store("roundtrip");
        let s = sample_schedule();
        let fp = Fingerprint(42);
        assert!(store.load(fp).unwrap().is_none());
        let path = store.store(fp, &s).unwrap();
        assert!(path.ends_with(format!("{}.sched", fp.to_hex())));
        assert_eq!(store.load(fp).unwrap().unwrap(), s);
        assert_eq!(store.entries().unwrap(), vec![fp]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn renamed_artifacts_are_rejected() {
        let store = tmp_store("renamed");
        let s = sample_schedule();
        store.store(Fingerprint(1), &s).unwrap();
        std::fs::rename(
            store.path_for(Fingerprint(1)),
            store.path_for(Fingerprint(2)),
        )
        .unwrap();
        match store.load(Fingerprint(2)) {
            Err(StoreError::FingerprintMismatch { requested, found }) => {
                assert_eq!(requested, Fingerprint(2));
                assert_eq!(found, Fingerprint(1));
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn entries_ignores_foreign_files() {
        let store = tmp_store("foreign");
        store.store(Fingerprint(9), &sample_schedule()).unwrap();
        std::fs::write(store.dir().join("README.txt"), b"not an artifact").unwrap();
        std::fs::write(store.dir().join("short.sched"), b"bad name").unwrap();
        assert_eq!(store.entries().unwrap(), vec![Fingerprint(9)]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn entries_lists_only_names_that_are_their_own_path() {
        // Both names parse to a fingerprint whose `path_for` is another
        // file: a signed one and an upper-case one.
        let store = tmp_store("noncanonical");
        let fp = Fingerprint(0xab);
        store.store(fp, &sample_schedule()).unwrap();
        let signed = format!("+{}.{EXTENSION}", &fp.to_hex()[1..]);
        let upper = format!("{}.{EXTENSION}", Fingerprint(0xcd).to_hex().to_uppercase());
        for name in [&signed, &upper] {
            std::fs::write(store.dir().join(name), b"foreign").unwrap();
        }
        assert_eq!(store.entries().unwrap(), vec![fp]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn missing_directory_is_an_empty_store() {
        let store = tmp_store("missing");
        assert!(store.entries().unwrap().is_empty());
        assert!(store.load(Fingerprint(3)).unwrap().is_none());
    }

    #[test]
    fn topology_section_roundtrips() {
        let s = sample_schedule();
        let cube = Hypercube::new(3);
        let meta = TopologyMeta::of(&cube);
        assert_eq!(meta.kind, "hypercube(dims=3, nodes=8)");
        assert_eq!(meta.nodes, 8);
        assert_eq!(meta.links, 24);
        let bytes = encode_artifact_with(Fingerprint(77), &s, Some(&meta));
        let (fp, got, topo) = decode_artifact_full(&bytes).unwrap();
        assert_eq!(fp, Fingerprint(77));
        assert_eq!(got, s);
        assert_eq!(topo, Some(meta));
        // The wire encoding carries no section and reads back as None.
        let wire = encode_artifact(Fingerprint(77), &s);
        let (_, _, none) = decode_artifact_full(&wire).unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn old_format_versions_are_skipped_recompiled_and_overwritten() {
        // A version-3 file: the current bytes with the version word
        // rewritten. Versions 1-3 summed the payload differently, so the
        // decoder refuses them before it looks at the checksum.
        let s = sample_schedule();
        let fp = Fingerprint(5);
        let mut v3 = encode_artifact(fp, &s);
        v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            decode_artifact(&v3),
            Err(StoreError::UnsupportedVersion(3))
        ));

        // Through a persistent cache the file is a miss, not an error:
        // one skip, one compile, and a current-version file left behind.
        let store = tmp_store("oldversion");
        std::fs::create_dir_all(store.dir()).unwrap();
        std::fs::write(store.path_for(fp), &v3).unwrap();
        let cache = crate::SchedCache::new(crate::CacheConfig::persistent(store.dir()));
        let cube = Hypercube::new(3);
        assert_eq!(*cache.get_or_compute_on(fp, &cube, || s.clone()), s);
        let stats = cache.stats();
        assert_eq!((stats.store_skips, stats.store_errors), (1, 0));
        assert_eq!((stats.misses, stats.store_writes), (1, 1));
        let healed = std::fs::read(store.path_for(fp)).unwrap();
        assert_eq!(healed[8..12], FORMAT_VERSION.to_le_bytes());

        // The next process loads it as a store hit and compiles nothing.
        let next = crate::SchedCache::new(crate::CacheConfig::persistent(store.dir()));
        let loaded = next.get_or_compute_on(fp, &cube, || -> Schedule {
            panic!("the healed artifact must load")
        });
        assert_eq!(*loaded, s);
        assert_eq!((next.stats().store_hits, next.stats().misses), (1, 0));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn a_cost_section_is_validated_and_skipped() {
        let s = sample_schedule();
        let bytes = encode_artifact(Fingerprint(31), &s);
        assert_eq!(bytes[bytes.len() - 9], 0); // written absent
        let present = with_cost_section(&bytes, b"\x01\x14\0\0\0faulty:p=0.05,seed=7");
        assert_eq!(decode_artifact(&present).unwrap(), (Fingerprint(31), s));
        // A presence flag outside {0, 1}, a string that is not UTF-8 and
        // one cut short are each typed.
        for (tail, want) in [
            (&b"\x09"[..], "Corrupt(\"cost model presence flag 9\")"),
            (
                b"\x01\x02\0\0\0\xff\xfe",
                "Corrupt(\"cost model not UTF-8\")",
            ),
            (b"\x01\x09\0\0\0short", "Truncated"),
        ] {
            let err = decode_artifact(&with_cost_section(&bytes, tail)).unwrap_err();
            assert_eq!(format!("{err:?}"), want);
        }
    }

    #[test]
    fn corrupt_topology_section_is_typed() {
        let s = sample_schedule();
        let meta = TopologyMeta {
            kind: "torus(4x4)".into(),
            nodes: 16,
            links: 64,
        };
        // A presence flag outside {0, 1} is Corrupt (after fixing the
        // checksum so the flag itself is what the decoder sees).
        let mut bytes = encode_artifact_with(Fingerprint(8), &s, Some(&meta));
        let payload_start = HEADER_LEN;
        let payload_end = bytes.len() - 8;
        // The topology flag sits before the topology body and the trailing
        // cost presence byte.
        let flag_at = payload_end - 1 - (4 + meta.kind.len() + 8 + 8) - 1;
        bytes[flag_at] = 7;
        let sum = checksum64(&bytes[payload_start..payload_end]);
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_artifact_full(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn store_with_persists_the_fabric() {
        let store = tmp_store("fabric");
        let s = sample_schedule();
        let meta = TopologyMeta {
            kind: "fattree(k=4, hosts=16)".into(),
            nodes: 16,
            links: 96,
        };
        let path = store.store_with(Fingerprint(21), &s, Some(&meta)).unwrap();
        let bytes = std::fs::read(path).unwrap();
        let (_, got, topo) = decode_artifact_full(&bytes).unwrap();
        assert_eq!(got, s);
        assert_eq!(topo, Some(meta));
        assert_eq!(store.load(Fingerprint(21)).unwrap().unwrap(), s);
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
