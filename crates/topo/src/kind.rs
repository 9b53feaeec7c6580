use std::fmt;
use std::sync::Arc;

use hypercube::{Hypercube, Topology};

use crate::table::CircuitTable;
use crate::{FatTree, Torus};

/// A topology as *data*: a parsed, validated description that can be
/// stored, printed, compared, sent over a wire, and built into a live
/// [`Topology`] on demand.
///
/// The string grammar (one kind tag, a colon, a kind-specific spec):
///
/// | string | builds |
/// |--------|--------|
/// | `cube:d=6` | [`Hypercube::new`]`(6)` — 64 nodes |
/// | `mesh:4x8` | [`Torus::mesh`]`(4, 8)` — 32 nodes, a torus without wraparound |
/// | `torus:4x4x4x4` | [`Torus::new`]`(&[4, 4, 4, 4])` — 256 nodes |
/// | `fattree:k=8` | [`FatTree::new`]`(8)` — 128 hosts |
///
/// Every structural bound lives in [`TopologyKind::validate`]; `parse`,
/// [`TopologyKind::try_build`] and the `schedd` wire decoder all call
/// it, so a kind that passed any of them builds without panicking.
/// [`fmt::Display`] renders the canonical string back, and
/// parse ∘ display is the identity.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Binary hypercube of `dims` dimensions under e-cube routing.
    Hypercube {
        /// Number of dimensions (`2^dims` nodes), 1..=20.
        dims: u32,
    },
    /// 2-D mesh, XY-routed: a torus without wraparound.
    Mesh2d {
        /// Rows, >= 1.
        rows: u32,
        /// Columns, >= 1.
        cols: u32,
    },
    /// k-ary n-cube torus.
    Torus {
        /// Per-dimension ring sizes, each >= 2, 1..=8 dimensions.
        extents: Vec<u32>,
    },
    /// k-ary fat-tree.
    FatTree {
        /// Arity (even, 2..=64); `k^3/4` hosts.
        k: u32,
    },
}

/// Why a kind string failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KindError {
    /// The text before the colon names no known kind.
    UnknownKind(String),
    /// The kind is known but its spec is malformed or out of bounds.
    BadSpec {
        /// The kind tag that was recognized.
        kind: &'static str,
        /// What is wrong with the spec.
        detail: String,
    },
}

impl fmt::Display for KindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KindError::UnknownKind(s) => write!(
                f,
                "unknown topology kind {s:?} (expected cube:d=N, mesh:RxC, torus:AxBx..., or fattree:k=N)"
            ),
            KindError::BadSpec { kind, detail } => write!(f, "bad {kind} spec: {detail}"),
        }
    }
}

impl std::error::Error for KindError {}

impl std::str::FromStr for TopologyKind {
    type Err = KindError;

    fn from_str(s: &str) -> Result<TopologyKind, KindError> {
        TopologyKind::parse(s)
    }
}

fn parse_u32(kind: &'static str, s: &str) -> Result<u32, KindError> {
    s.parse().map_err(|_| KindError::BadSpec {
        kind,
        detail: format!("expected a number, got {s:?}"),
    })
}

impl TopologyKind {
    /// Parse a kind string (see the type-level grammar table).
    ///
    /// # Errors
    ///
    /// [`KindError::UnknownKind`] for an unrecognized tag,
    /// [`KindError::BadSpec`] for a malformed or out-of-bounds spec.
    pub fn parse(s: &str) -> Result<TopologyKind, KindError> {
        let (kind, spec) = s
            .split_once(':')
            .ok_or_else(|| KindError::UnknownKind(s.to_string()))?;
        let shape = |kind, want: &str| KindError::BadSpec {
            kind,
            detail: format!("expected {want}, got {spec:?}"),
        };
        let parsed = match kind {
            "cube" => {
                let dims = spec
                    .strip_prefix("d=")
                    .ok_or_else(|| shape("cube", "d=N"))?;
                TopologyKind::Hypercube {
                    dims: parse_u32("cube", dims)?,
                }
            }
            "mesh" => {
                let (rows, cols) = spec.split_once('x').ok_or_else(|| shape("mesh", "RxC"))?;
                TopologyKind::Mesh2d {
                    rows: parse_u32("mesh", rows)?,
                    cols: parse_u32("mesh", cols)?,
                }
            }
            "torus" => TopologyKind::Torus {
                extents: spec
                    .split('x')
                    .map(|e| parse_u32("torus", e))
                    .collect::<Result<_, _>>()?,
            },
            "fattree" => {
                let k = spec
                    .strip_prefix("k=")
                    .ok_or_else(|| shape("fattree", "k=N"))?;
                TopologyKind::FatTree {
                    k: parse_u32("fattree", k)?,
                }
            }
            other => return Err(KindError::UnknownKind(other.to_string())),
        };
        parsed.validate()?;
        Ok(parsed)
    }

    /// The one statement of every structural bound on a kind: exactly
    /// what the constructors accept, with every family capped at `2^20`
    /// nodes. The variant fields are public, so a kind can reach here
    /// hand-built or decoded from a hostile wire frame; nothing on this
    /// path wraps, allocates or panics.
    ///
    /// # Errors
    ///
    /// [`KindError::BadSpec`] naming the violated bound.
    pub fn validate(&self) -> Result<(), KindError> {
        let too_large = || format!("larger than 2^20 nodes: {self}");
        let (kind, detail) = match self {
            TopologyKind::Hypercube { dims } if !(1..=20).contains(dims) => {
                ("cube", format!("dimension must be in 1..=20, got {dims}"))
            }
            TopologyKind::Mesh2d { rows, cols } if *rows == 0 || *cols == 0 => {
                ("mesh", "extents must be positive".to_string())
            }
            TopologyKind::Mesh2d { .. } if self.num_nodes() > 1 << 20 => ("mesh", too_large()),
            TopologyKind::Torus { extents } if !(1..=8).contains(&extents.len()) => (
                "torus",
                format!("must have 1..=8 dimensions, got {}", extents.len()),
            ),
            TopologyKind::Torus { extents } if extents.iter().any(|&k| k < 2) => {
                ("torus", "every extent must be >= 2".to_string())
            }
            TopologyKind::Torus { .. } if self.num_nodes() > 1 << 20 => ("torus", too_large()),
            TopologyKind::FatTree { k } if !(2..=64).contains(k) || k % 2 != 0 => (
                "fattree",
                format!("arity must be even and in 2..=64, got {k}"),
            ),
            _ => return Ok(()),
        };
        Err(KindError::BadSpec { kind, detail })
    }

    /// Node count without building the topology, saturating at
    /// `usize::MAX` on overflow (a hostile hand-built kind then fails
    /// [`TopologyKind::validate`]; it never wraps or panics here).
    pub fn num_nodes(&self) -> usize {
        match self {
            TopologyKind::Hypercube { dims } => 1usize.checked_shl(*dims).unwrap_or(usize::MAX),
            TopologyKind::Mesh2d { rows, cols } => (*rows as usize).saturating_mul(*cols as usize),
            TopologyKind::Torus { extents } => extents
                .iter()
                .try_fold(1usize, |n, &k| n.checked_mul(k as usize))
                .unwrap_or(usize::MAX),
            TopologyKind::FatTree { k } => {
                let k = *k as usize;
                k.saturating_mul(k).saturating_mul(k) / 4
            }
        }
    }

    /// Build the live topology this kind describes.
    ///
    /// # Panics
    ///
    /// On a kind [`TopologyKind::validate`] rejects; parsed and decoded
    /// kinds never do.
    pub fn build(&self) -> Box<dyn Topology> {
        match self.try_build() {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`TopologyKind::build`] for kinds that may not have been
    /// validated yet (hand-built ones).
    ///
    /// # Errors
    ///
    /// Whatever [`TopologyKind::validate`] returns.
    pub fn try_build(&self) -> Result<Box<dyn Topology>, KindError> {
        self.validate()?;
        Ok(match self {
            TopologyKind::Hypercube { dims } => Box::new(Hypercube::new(*dims)),
            TopologyKind::Mesh2d { rows, cols } => {
                Box::new(Torus::mesh(*rows as usize, *cols as usize))
            }
            TopologyKind::Torus { extents } => {
                let extents: Vec<usize> = extents.iter().map(|&k| k as usize).collect();
                Box::new(Torus::new(&extents))
            }
            TopologyKind::FatTree { k } => Box::new(FatTree::new(*k as usize)),
        })
    }

    /// [`TopologyKind::build`], shared, for a fabric that routes many
    /// requests: grid axes, and the daemon's one fabric per kind.
    ///
    /// A walked fabric (mesh, torus, fat-tree) whose table fits in the
    /// 8x8 torus's 80 KiB comes back with every circuit routed once, up
    /// front, into an all-pairs table, so `route_into` is a slice copy
    /// instead of a walk. The table holds `4 · (n² + 1)` bytes of offsets
    /// and 4 bytes per hop of every ordered pair, worked out from the hop
    /// counts before it is built: 16 KiB and 64 KiB on an 8x8 torus, the
    /// one walked fabric whose table was timed end to end. Every other
    /// answer, fault detours included, is the walked fabric's. The e-cube
    /// hypercube keeps its closed-form router, which a table did not beat
    /// end to end; a larger table (an 8x8 mesh's is 100 KiB, a line of
    /// 256 nodes' about 22 MiB) is not built, and the fabric comes back as
    /// [`TopologyKind::build`] builds it.
    ///
    /// # Panics
    ///
    /// On a kind [`TopologyKind::validate`] rejects, as `build` does.
    pub fn build_arc(&self) -> Arc<dyn Topology> {
        let fabric = self.build();
        if fabric.is_ecube_hypercube() || !CircuitTable::fits(fabric.as_ref()) {
            Arc::from(fabric)
        } else {
            Arc::new(CircuitTable::new(fabric))
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::Hypercube { dims } => write!(f, "cube:d={dims}"),
            TopologyKind::Mesh2d { rows, cols } => write!(f, "mesh:{rows}x{cols}"),
            TopologyKind::Torus { extents } => {
                write!(f, "torus:")?;
                for (i, k) in extents.iter().enumerate() {
                    if i > 0 {
                        write!(f, "x")?;
                    }
                    write!(f, "{k}")?;
                }
                Ok(())
            }
            TopologyKind::FatTree { k } => write!(f, "fattree:k={k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_builds_what_it_names() {
        for (s, nodes, name) in [
            ("cube:d=4", 16, "hypercube(dims=4, nodes=16)"),
            ("mesh:3x5", 15, "mesh2d(3x5)"),
            ("torus:4x4", 16, "torus(4x4)"),
            ("torus:2x2x2x2", 16, "torus(2x2x2x2)"),
            ("fattree:k=4", 16, "fattree(k=4, hosts=16)"),
        ] {
            let kind = TopologyKind::parse(s).unwrap();
            assert_eq!(kind.num_nodes(), nodes, "{s}");
            let topo = kind.build();
            assert_eq!(topo.num_nodes(), nodes, "{s}");
            assert_eq!(topo.name(), name, "{s}");
        }
    }

    #[test]
    fn display_roundtrips() {
        for s in ["cube:d=6", "mesh:4x8", "torus:4x4x4x4", "fattree:k=8"] {
            let kind = TopologyKind::parse(s).unwrap();
            assert_eq!(kind.to_string(), s);
            assert_eq!(TopologyKind::parse(&kind.to_string()).unwrap(), kind);
        }
    }

    #[test]
    fn typed_errors_never_panics() {
        for (s, want_unknown) in [
            ("ring:8", true),
            ("cube", true),
            ("cube:d=0", false),
            ("cube:d=21", false),
            ("cube:n=6", false),
            ("mesh:0x4", false),
            ("mesh:4", false),
            ("torus:4x1", false),
            ("torus:", false),
            ("torus:4x4x4x4x4x4x4x4x4", false),
            ("torus:1024x1024x1024", false),
            ("fattree:k=5", false),
            ("fattree:k=66", false),
            ("fattree:8", false),
        ] {
            match TopologyKind::parse(s) {
                Err(KindError::UnknownKind(_)) => assert!(want_unknown, "{s}"),
                Err(KindError::BadSpec { .. }) => assert!(!want_unknown, "{s}"),
                Ok(k) => panic!("{s} parsed as {k:?}"),
            }
        }
    }

    #[test]
    fn error_display_is_actionable() {
        let e = TopologyKind::parse("ring:8").unwrap_err();
        assert!(e.to_string().contains("unknown topology kind"));
        let e = TopologyKind::parse("fattree:k=5").unwrap_err();
        assert!(e.to_string().contains("even"));
    }

    #[test]
    fn hostile_hand_built_kinds_fail_typed_never_panic() {
        // Variant fields are public: a kind that skipped `parse` (e.g.
        // decoded from a hostile wire frame) must saturate its node
        // count and fail `try_build` with a typed error — the unchecked
        // arithmetic here used to wrap in release and panic in debug.
        let k = TopologyKind::Torus {
            extents: vec![u32::MAX; 8],
        };
        assert_eq!(k.num_nodes(), usize::MAX, "saturates, never wraps");
        assert!(matches!(
            k.try_build(),
            Err(KindError::BadSpec { kind: "torus", .. })
        ));
        let k = TopologyKind::Mesh2d {
            rows: u32::MAX,
            cols: u32::MAX,
        };
        assert!(k.num_nodes() > 1 << 20);
        assert!(matches!(
            k.try_build(),
            Err(KindError::BadSpec { kind: "mesh", .. })
        ));
        let k = TopologyKind::Hypercube { dims: 64 };
        assert_eq!(k.num_nodes(), usize::MAX);
        assert!(matches!(
            k.try_build(),
            Err(KindError::BadSpec { kind: "cube", .. })
        ));
        let k = TopologyKind::FatTree { k: u32::MAX };
        assert!(matches!(
            k.try_build(),
            Err(KindError::BadSpec {
                kind: "fattree",
                ..
            })
        ));
        // Parsed kinds still build infallibly through the same path.
        assert!(TopologyKind::parse("torus:4x4")
            .unwrap()
            .try_build()
            .is_ok());
    }

    #[test]
    fn equal_node_count_family() {
        // The fig_topo comparison set: 16 nodes under four fabrics.
        let kinds = [
            "cube:d=4",
            "mesh:4x4",
            "torus:4x4",
            "torus:2x2x2x2",
            "fattree:k=4",
        ];
        for s in kinds {
            assert_eq!(TopologyKind::parse(s).unwrap().num_nodes(), 16, "{s}");
        }
    }
}
