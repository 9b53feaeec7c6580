//! Heterogeneous link-cost models: per-link (latency, bandwidth, up/down)
//! maps over any [`Topology`], with named presets parsed by a kind-string
//! grammar like `topo`'s `TopologyKind`.
//!
//! The paper's machine is uniform — every channel of the iPSC/860 prices
//! identically under [`MachineParams`] — but real fabrics are not: links
//! degrade, mis-trained SerDes run below nominal bandwidth, and torus
//! wires die outright (the QCDSP experience report lives with all
//! three). A [`LinkCostModel`] layers that non-uniformity *on top of*
//! the machine calibration without touching it:
//!
//! | string | model |
//! |--------|-------|
//! | `uniform` | the paper's machine — every link nominal, every link up |
//! | `loggp:o=500,g=200,G=1.5` | LogGP overlay: per-transfer overhead `o` ns, per-link gap `g` ns, per-byte factor `G` |
//! | `hetero:factor=4,frac=0.25,lat=1000,seed=7` | a seeded fraction of links run `factor`× slower with `lat` ns extra latency |
//! | `faulty:p=0.05,seed=42` | each link is down with probability `p`, seeded |
//!
//! **Map layout.** The model is a *lazy* map keyed by directed
//! [`LinkId`]: per-link costs are evaluated on demand from a seeded
//! [splitmix64](https://prng.di.unimi.it/splitmix64.c) draw over the
//! link index, so the map is O(1) memory on any fabric (a d=20 cube has
//! ~20M directed links; materializing was never an option) and the same
//! `(model, link)` pair always yields the same [`LinkCost`] — across
//! runs, threads, and backends. Probabilities and rate factors are
//! parts-per-million integers ([`PPM`]), never floats, so models are
//! `Eq + Hash`, canonical under [`fmt::Display`], and fingerprintable.
//!
//! **Pricing.** Both backends price and route through this one type:
//! [`LinkCostModel::route_into`] routes a circuit,
//! [`LinkCostModel::transfer_ns`] prices a message over it and
//! [`LinkCostModel::exchange_ns`] prices a fused exchange over two. On
//! [`LinkCostModel::Uniform`] each is exactly the untouched
//! [`MachineParams`] arithmetic over the topology's own route, so uniform
//! runs are byte-identical to a build without this module (the
//! conformance suite pins that). Non-uniform models add on top of the
//! base price:
//!
//! ```text
//! transfer = params.transfer_ns(bytes, hops)            // the paper's price
//!          + payload_ns · (max_link bw_ppm − 1e6)/1e6   // bottleneck slowdown
//!          + Σ_link latency_ns                          // per-link adders
//!          + o_ns                                        // per-transfer overhead
//! ```
//!
//! **Fault semantics.** A route that crosses a down link either detours
//! — [`LinkCostModel::route_into`] asks the topology for a
//! [`Topology::route_avoiding`] path (tori reroute the long way around
//! each ring) — or surfaces a typed [`SimError::LinkDown`]. Never a
//! panic, and deterministically: the same seed downs the same links.

use std::fmt;

use hypercube::{LinkId, NodeId, Topology};

use crate::{MachineParams, SimError};

/// One million — the fixed-point denominator for probabilities and
/// bandwidth factors (`1_500_000` ppm = 1.5×).
pub const PPM: u64 = 1_000_000;

/// Domain-separation salts for the per-link draws: the same seed must
/// give *independent* up/down and slow/nominal decisions.
const FAULT_SALT: u64 = 0x6661_756c_745f_6c6e; // "fault_ln"
const SLOW_SALT: u64 = 0x736c_6f77_5f6c_696e; // "slow_lin"

/// Evaluated cost of one directed link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkCost {
    /// Additive latency per traversal (ns), on top of the machine's
    /// uniform `hop_ns`.
    pub latency_ns: u64,
    /// Per-byte time scale in ppm of nominal: `1_000_000` is the
    /// machine's calibrated rate, `4_000_000` a 4× slower link.
    pub bw_ppm: u64,
    /// Whether the link is up at all.
    pub up: bool,
}

/// A nominal, healthy link — what every link costs under `uniform`.
pub const NOMINAL: LinkCost = LinkCost {
    latency_ns: 0,
    bw_ppm: PPM,
    up: true,
};

/// A link-cost model as *data*: parsed, validated, canonical under
/// `Display`, and evaluated lazily per link (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LinkCostModel {
    /// Every link nominal and up — the paper's machine, and exactly the
    /// legacy pricing path.
    #[default]
    Uniform,
    /// LogGP overlay: per-transfer overhead `o`, per-link gap `g`, and a
    /// uniform per-byte slowdown factor `G` (ppm) on every link.
    LogGp {
        /// Per-transfer software overhead (ns), charged once.
        o_ns: u64,
        /// Per-link gap (ns), charged per traversal.
        g_ns: u64,
        /// Per-byte bandwidth factor in ppm (>= [`PPM`]).
        big_g_ppm: u64,
    },
    /// A seeded fraction of links is degraded: `factor_ppm`× slower with
    /// `lat_ns` extra latency; the rest are nominal. All links are up.
    Hetero {
        /// Slowdown of a degraded link (ppm, >= [`PPM`]).
        factor_ppm: u64,
        /// Fraction of links degraded (ppm of all links).
        frac_ppm: u64,
        /// Extra latency of a degraded link (ns).
        lat_ns: u64,
        /// Seed of the membership draw.
        seed: u64,
    },
    /// Each link is independently down with probability `p_ppm`/1e6;
    /// surviving links are nominal.
    Faulty {
        /// Per-link failure probability (ppm).
        p_ppm: u64,
        /// Seed of the failure draw.
        seed: u64,
    },
}

/// Why a cost-model string failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostModelError {
    /// The text before the colon names no known model.
    UnknownKind(String),
    /// The model is known but its spec is malformed or out of bounds.
    BadSpec {
        /// The model tag that was recognized.
        kind: &'static str,
        /// What is wrong with the spec.
        detail: String,
    },
}

impl fmt::Display for CostModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostModelError::UnknownKind(s) => write!(
                f,
                "unknown cost model {s:?} (expected uniform, loggp:o=..,g=..,G=.., \
                 hetero:factor=..,frac=..,lat=..,seed=.., or faulty:p=..,seed=..)"
            ),
            CostModelError::BadSpec { kind, detail } => write!(f, "bad {kind} spec: {detail}"),
        }
    }
}

impl std::error::Error for CostModelError {}

fn bad(kind: &'static str, detail: String) -> CostModelError {
    CostModelError::BadSpec { kind, detail }
}

/// Parse a plain nanosecond count, bounded to keep hostile wire input
/// from smuggling astronomically large durations into u64 arithmetic.
fn parse_ns(kind: &'static str, key: &str, s: &str) -> Result<u64, CostModelError> {
    let v: u64 = s
        .parse()
        .map_err(|_| bad(kind, format!("{key} expects a number of ns, got {s:?}")))?;
    if v > 1_000_000_000_000 {
        return Err(bad(kind, format!("{key}={v} exceeds 1e12 ns")));
    }
    Ok(v)
}

fn parse_seed(kind: &'static str, s: &str) -> Result<u64, CostModelError> {
    s.parse()
        .map_err(|_| bad(kind, format!("seed expects a u64, got {s:?}")))
}

/// Parse a non-negative fixed-point decimal (`"2"`, `"1.5"`, `"0.05"`)
/// into ppm. At most six fractional digits — the grammar's resolution —
/// and a bounded integer part, so parse ∘ display is the identity and
/// hostile input cannot overflow.
fn parse_ppm(kind: &'static str, key: &str, s: &str) -> Result<u64, CostModelError> {
    let (int, frac) = s.split_once('.').unwrap_or((s, ""));
    let expects = || bad(kind, format!("{key} expects a decimal like 1.5, got {s:?}"));
    if int.is_empty() || !int.bytes().all(|b| b.is_ascii_digit()) {
        return Err(expects());
    }
    if frac.len() > 6 || (s.contains('.') && frac.is_empty()) {
        return Err(bad(
            kind,
            format!("{key}={s:?} has more than 6 decimal places or a bare point"),
        ));
    }
    if !frac.bytes().all(|b| b.is_ascii_digit()) {
        return Err(expects());
    }
    let int: u64 = int.parse().map_err(|_| expects())?;
    if int > 1_000_000 {
        return Err(bad(kind, format!("{key}={s} exceeds 1e6")));
    }
    let mut frac_ppm = 0u64;
    for b in frac.bytes() {
        frac_ppm = frac_ppm * 10 + u64::from(b - b'0');
    }
    frac_ppm *= 10u64.pow(6 - frac.len() as u32);
    Ok(int * PPM + frac_ppm)
}

/// Render ppm back as the minimal decimal `parse_ppm` accepts.
fn fmt_ppm(f: &mut fmt::Formatter<'_>, ppm: u64) -> fmt::Result {
    write!(f, "{}", ppm / PPM)?;
    let mut frac = ppm % PPM;
    if frac > 0 {
        let mut digits = 6;
        while frac.is_multiple_of(10) {
            frac /= 10;
            digits -= 1;
        }
        write!(f, ".{frac:0digits$}")?;
    }
    Ok(())
}

/// Split a `key=value,key=value` spec, checking the keys against the
/// expected sequence (`required` leading keys mandatory, the rest may be
/// omitted from the tail but never reordered).
fn split_fields<'a>(
    kind: &'static str,
    spec: &'a str,
    keys: &[&'static str],
    required: usize,
) -> Result<Vec<Option<&'a str>>, CostModelError> {
    let mut out = vec![None; keys.len()];
    let mut next = 0;
    for field in spec.split(',') {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| bad(kind, format!("expected key=value, got {field:?}")))?;
        let pos = keys[next..]
            .iter()
            .position(|&k| k == key)
            .map(|p| p + next)
            .ok_or_else(|| {
                bad(
                    kind,
                    format!(
                        "unexpected field {key:?} (fields, in order: {})",
                        keys.join(", ")
                    ),
                )
            })?;
        out[pos] = Some(value);
        next = pos + 1;
    }
    for (i, &key) in keys.iter().enumerate().take(required) {
        if out[i].is_none() {
            return Err(bad(kind, format!("missing required field {key}=")));
        }
    }
    Ok(out)
}

impl std::str::FromStr for LinkCostModel {
    type Err = CostModelError;

    fn from_str(s: &str) -> Result<LinkCostModel, CostModelError> {
        LinkCostModel::parse(s)
    }
}

impl LinkCostModel {
    /// Parse a model string (see the module-level grammar table).
    ///
    /// # Errors
    ///
    /// [`CostModelError::UnknownKind`] for an unrecognized tag,
    /// [`CostModelError::BadSpec`] for a malformed or out-of-bounds spec.
    pub fn parse(s: &str) -> Result<LinkCostModel, CostModelError> {
        if s == "uniform" {
            return Ok(LinkCostModel::Uniform);
        }
        let (kind, spec) = s
            .split_once(':')
            .ok_or_else(|| CostModelError::UnknownKind(s.to_string()))?;
        match kind {
            "loggp" => {
                let f = split_fields("loggp", spec, &["o", "g", "G"], 3)?;
                let big_g_ppm = parse_ppm("loggp", "G", f[2].unwrap())?;
                if big_g_ppm < PPM {
                    return Err(bad("loggp", "G must be >= 1 (slowdowns only)".into()));
                }
                Ok(LinkCostModel::LogGp {
                    o_ns: parse_ns("loggp", "o", f[0].unwrap())?,
                    g_ns: parse_ns("loggp", "g", f[1].unwrap())?,
                    big_g_ppm,
                })
            }
            "hetero" => {
                let f = split_fields("hetero", spec, &["factor", "frac", "lat", "seed"], 2)?;
                let factor_ppm = parse_ppm("hetero", "factor", f[0].unwrap())?;
                if factor_ppm < PPM {
                    return Err(bad("hetero", "factor must be >= 1 (slowdowns only)".into()));
                }
                let frac_ppm = parse_ppm("hetero", "frac", f[1].unwrap())?;
                if frac_ppm > PPM {
                    return Err(bad("hetero", "frac is a probability, must be <= 1".into()));
                }
                Ok(LinkCostModel::Hetero {
                    factor_ppm,
                    frac_ppm,
                    lat_ns: f[2]
                        .map(|v| parse_ns("hetero", "lat", v))
                        .transpose()?
                        .unwrap_or(0),
                    seed: f[3]
                        .map(|v| parse_seed("hetero", v))
                        .transpose()?
                        .unwrap_or(0),
                })
            }
            "faulty" => {
                let f = split_fields("faulty", spec, &["p", "seed"], 1)?;
                let p_ppm = parse_ppm("faulty", "p", f[0].unwrap())?;
                if p_ppm > PPM {
                    return Err(bad("faulty", "p is a probability, must be <= 1".into()));
                }
                Ok(LinkCostModel::Faulty {
                    p_ppm,
                    seed: f[1]
                        .map(|v| parse_seed("faulty", v))
                        .transpose()?
                        .unwrap_or(0),
                })
            }
            other => Err(CostModelError::UnknownKind(other.to_string())),
        }
    }

    /// Whether this is the paper's uniform machine, on which every price
    /// is the machine's own.
    #[inline]
    pub fn is_uniform(&self) -> bool {
        matches!(self, LinkCostModel::Uniform)
    }

    /// Per-transfer software overhead (LogGP's `o`), charged once per
    /// transfer regardless of route length.
    #[inline]
    pub fn overhead_ns(&self) -> u64 {
        match self {
            LinkCostModel::LogGp { o_ns, .. } => *o_ns,
            _ => 0,
        }
    }

    /// The evaluated cost of one directed link — a pure function of
    /// `(self, link)`.
    pub fn link_cost(&self, link: LinkId) -> LinkCost {
        match *self {
            LinkCostModel::Uniform => NOMINAL,
            LinkCostModel::LogGp {
                g_ns, big_g_ppm, ..
            } => LinkCost {
                latency_ns: g_ns,
                bw_ppm: big_g_ppm,
                up: true,
            },
            LinkCostModel::Hetero {
                factor_ppm,
                frac_ppm,
                lat_ns,
                seed,
            } => {
                if link_draw(seed, SLOW_SALT, link) < frac_ppm {
                    LinkCost {
                        latency_ns: lat_ns,
                        bw_ppm: factor_ppm,
                        up: true,
                    }
                } else {
                    NOMINAL
                }
            }
            LinkCostModel::Faulty { p_ppm, seed } => LinkCost {
                up: link_draw(seed, FAULT_SALT, link) >= p_ppm,
                ..NOMINAL
            },
        }
    }

    /// Whether `link` is up under this model.
    #[inline]
    pub fn link_up(&self, link: LinkId) -> bool {
        match *self {
            LinkCostModel::Faulty { p_ppm, seed } => link_draw(seed, FAULT_SALT, link) >= p_ppm,
            _ => true,
        }
    }

    /// First down link along a route, if any.
    fn first_down(&self, links: &[LinkId]) -> Option<LinkId> {
        if matches!(self, LinkCostModel::Faulty { .. }) {
            links.iter().copied().find(|&l| !self.link_up(l))
        } else {
            None
        }
    }

    /// Write the route a `src -> dst` transfer travels under this model
    /// into `out` (cleared first): the topology's deterministic route —
    /// exactly [`Topology::route_into`] on the uniform machine — or,
    /// when that route crosses a down link, a detour from
    /// [`Topology::route_avoiding`] where the fabric permits one.
    ///
    /// # Errors
    ///
    /// [`SimError::LinkDown`] when the route crosses a down link and no
    /// detour exists (or the topology routes deterministically with no
    /// alternative paths).
    pub fn route_into<T: Topology + ?Sized>(
        &self,
        topo: &T,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), SimError> {
        topo.route_into(src, dst, out);
        if let Some(link) = self.first_down(out) {
            let down = |l: LinkId| !self.link_up(l);
            let detour = topo
                .route_avoiding(src, dst, &down)
                .ok_or(SimError::LinkDown {
                    link: link.index(),
                    src: src.index(),
                    dst: dst.index(),
                })?;
            out.clear();
            out.extend_from_slice(detour.links());
        }
        Ok(())
    }

    /// What this model adds on top of the machine's uniform price for a
    /// transfer crossing `links`: per-transfer overhead, per-link latency
    /// adders, and the payload scaled by the bottleneck (slowest) link's
    /// bandwidth factor. Exactly zero for `uniform`.
    pub fn extra_ns(&self, params: &MachineParams, bytes: u32, links: &[LinkId]) -> u64 {
        if self.is_uniform() {
            return 0;
        }
        let mut latency = self.overhead_ns();
        let mut bw_ppm = PPM;
        for &l in links {
            let c = self.link_cost(l);
            latency += c.latency_ns;
            bw_ppm = bw_ppm.max(c.bw_ppm);
        }
        // Integer ppm math keeps the price an exact function of the
        // inputs; u128 so a 4 GiB payload at 1000x cannot overflow.
        let payload = params.wire_payload_ns(bytes) as u128;
        latency + (payload * (bw_ppm - PPM) as u128 / PPM as u128) as u64
    }

    /// Full price of a transfer over an already-resolved route: the
    /// machine's uniform `transfer_ns` plus [`LinkCostModel::extra_ns`].
    /// For `uniform` this is *exactly* `params.transfer_ns(bytes,
    /// links.len())` — the legacy price.
    pub fn transfer_ns(&self, params: &MachineParams, bytes: u32, links: &[LinkId]) -> u64 {
        params.transfer_ns(bytes, links.len()) + self.extra_ns(params, bytes, links)
    }

    /// Price of a fused pairwise exchange (Observation 1): one rendezvous,
    /// then both directions at once over their routed circuits, so
    /// `exchange_sync_ns` plus the slower direction's
    /// [`LinkCostModel::transfer_ns`]. Each side is `(bytes, links)`.
    pub fn exchange_ns(
        &self,
        params: &MachineParams,
        (fwd_bytes, fwd_links): (u32, &[LinkId]),
        (rev_bytes, rev_links): (u32, &[LinkId]),
    ) -> u64 {
        let fwd = self.transfer_ns(params, fwd_bytes, fwd_links);
        params.exchange_sync_ns + fwd.max(self.transfer_ns(params, rev_bytes, rev_links))
    }
}

impl fmt::Display for LinkCostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LinkCostModel::Uniform => f.write_str("uniform"),
            LinkCostModel::LogGp {
                o_ns,
                g_ns,
                big_g_ppm,
            } => {
                write!(f, "loggp:o={o_ns},g={g_ns},G=")?;
                fmt_ppm(f, big_g_ppm)
            }
            LinkCostModel::Hetero {
                factor_ppm,
                frac_ppm,
                lat_ns,
                seed,
            } => {
                f.write_str("hetero:factor=")?;
                fmt_ppm(f, factor_ppm)?;
                f.write_str(",frac=")?;
                fmt_ppm(f, frac_ppm)?;
                write!(f, ",lat={lat_ns},seed={seed}")
            }
            LinkCostModel::Faulty { p_ppm, seed } => {
                f.write_str("faulty:p=")?;
                fmt_ppm(f, p_ppm)?;
                write!(f, ",seed={seed}")
            }
        }
    }
}

/// One splitmix64 step — the standard finalizer, good enough to make
/// per-link draws statistically independent of the link numbering.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-link draw in `[0, PPM)`.
fn link_draw(seed: u64, salt: u64, link: LinkId) -> u64 {
    splitmix64(splitmix64(seed ^ salt).wrapping_add(u64::from(link.0))) % PPM
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::Hypercube;

    #[test]
    fn grammar_parses_what_it_names() {
        assert_eq!(
            LinkCostModel::parse("uniform").unwrap(),
            LinkCostModel::Uniform
        );
        assert_eq!(
            LinkCostModel::parse("loggp:o=500,g=200,G=1.5").unwrap(),
            LinkCostModel::LogGp {
                o_ns: 500,
                g_ns: 200,
                big_g_ppm: 1_500_000
            }
        );
        assert_eq!(
            LinkCostModel::parse("hetero:factor=4,frac=0.25,lat=1000,seed=7").unwrap(),
            LinkCostModel::Hetero {
                factor_ppm: 4_000_000,
                frac_ppm: 250_000,
                lat_ns: 1000,
                seed: 7
            }
        );
        assert_eq!(
            LinkCostModel::parse("faulty:p=0.05,seed=42").unwrap(),
            LinkCostModel::Faulty {
                p_ppm: 50_000,
                seed: 42
            }
        );
        // Optional tail fields default.
        assert_eq!(
            LinkCostModel::parse("faulty:p=0.01").unwrap(),
            LinkCostModel::Faulty {
                p_ppm: 10_000,
                seed: 0
            }
        );
        assert_eq!(
            LinkCostModel::parse("hetero:factor=2,frac=1").unwrap(),
            LinkCostModel::Hetero {
                factor_ppm: 2_000_000,
                frac_ppm: 1_000_000,
                lat_ns: 0,
                seed: 0
            }
        );
    }

    #[test]
    fn display_roundtrips_canonically() {
        for s in [
            "uniform",
            "loggp:o=500,g=200,G=1.5",
            "loggp:o=0,g=0,G=1",
            "hetero:factor=4,frac=0.25,lat=1000,seed=7",
            "hetero:factor=1.000001,frac=0,lat=0,seed=0",
            "faulty:p=0.05,seed=42",
            "faulty:p=0,seed=0",
            "faulty:p=1,seed=18446744073709551615",
        ] {
            let m = LinkCostModel::parse(s).unwrap();
            assert_eq!(m.to_string(), s, "canonical string must roundtrip");
            assert_eq!(LinkCostModel::parse(&m.to_string()).unwrap(), m);
        }
        // Non-canonical accepted spellings normalize.
        assert_eq!(
            LinkCostModel::parse("faulty:p=0.050000")
                .unwrap()
                .to_string(),
            "faulty:p=0.05,seed=0"
        );
    }

    #[test]
    fn typed_errors_never_panics() {
        for (s, want_unknown) in [
            ("ring", true),
            ("loggp", true),
            ("weird:x=1", true),
            ("loggp:o=1,g=2", false),                 // missing G
            ("loggp:G=1,o=1,g=2", false),             // reordered
            ("loggp:o=1,g=2,G=0.5", false),           // speedup rejected
            ("loggp:o=9999999999999,g=0,G=1", false), // ns bound
            ("hetero:factor=0.5,frac=0.1", false),
            ("hetero:factor=2,frac=1.5", false),
            ("hetero:factor=2,frac=0.1,seed=abc", false),
            ("faulty:p=1.5", false),
            ("faulty:p=0.0000001", false), // 7 decimal places
            ("faulty:p=.5", false),
            ("faulty:p=1.", false),
            ("faulty:p=1e-3", false),
            ("faulty:p=-0.1", false),
            ("faulty:p=0.1,p=0.2", false),
            ("faulty:seed=1", false), // missing p
            ("faulty:p=1000001", false),
        ] {
            match LinkCostModel::parse(s) {
                Err(CostModelError::UnknownKind(_)) => assert!(want_unknown, "{s}"),
                Err(CostModelError::BadSpec { .. }) => assert!(!want_unknown, "{s}"),
                Ok(m) => panic!("{s} parsed as {m:?}"),
            }
        }
    }

    #[test]
    fn error_display_is_actionable() {
        let e = LinkCostModel::parse("ring").unwrap_err();
        assert!(e.to_string().contains("unknown cost model"));
        let e = LinkCostModel::parse("faulty:p=1.5").unwrap_err();
        assert!(e.to_string().contains("probability"));
    }

    #[test]
    fn uniform_prices_exactly_like_the_machine() {
        let params = MachineParams::ipsc860();
        let cube = Hypercube::new(4);
        let m = LinkCostModel::Uniform;
        for (s, d, bytes) in [(0u32, 15u32, 4096u32), (3, 9, 64), (1, 2, 0)] {
            let path = cube.route(NodeId(s), NodeId(d));
            assert_eq!(m.extra_ns(&params, bytes, path.links()), 0);
            assert_eq!(
                m.transfer_ns(&params, bytes, path.links()),
                params.transfer_ns(bytes, path.hops())
            );
        }
    }

    #[test]
    fn loggp_adds_overhead_gap_and_bottleneck() {
        let params = MachineParams::ipsc860();
        let cube = Hypercube::new(4);
        let m = LinkCostModel::parse("loggp:o=500,g=200,G=2").unwrap();
        let path = cube.route(NodeId(0), NodeId(15)); // 4 hops
        let bytes = 4096;
        let base = params.transfer_ns(bytes, 4);
        let got = m.transfer_ns(&params, bytes, path.links());
        // o + 4g + payload doubled (G=2 => +1x payload).
        assert_eq!(got, base + 500 + 4 * 200 + params.wire_payload_ns(bytes));
    }

    #[test]
    fn hetero_draws_are_deterministic_and_seed_sensitive() {
        let a = LinkCostModel::parse("hetero:factor=4,frac=0.5,lat=100,seed=1").unwrap();
        let b = LinkCostModel::parse("hetero:factor=4,frac=0.5,lat=100,seed=2").unwrap();
        let costs_a: Vec<_> = (0..64).map(|l| a.link_cost(LinkId(l))).collect();
        let costs_a2: Vec<_> = (0..64).map(|l| a.link_cost(LinkId(l))).collect();
        assert_eq!(costs_a, costs_a2, "same model, same draws");
        let costs_b: Vec<_> = (0..64).map(|l| b.link_cost(LinkId(l))).collect();
        assert_ne!(costs_a, costs_b, "different seeds diverge");
        let slowed = costs_a.iter().filter(|c| c.bw_ppm > PPM).count();
        assert!(
            (16..=48).contains(&slowed),
            "frac=0.5 should slow roughly half of 64 links, got {slowed}"
        );
        assert!(costs_a.iter().all(|c| c.up), "hetero never downs links");
    }

    #[test]
    fn faulty_downs_roughly_p_of_links_deterministically() {
        let m = LinkCostModel::parse("faulty:p=0.25,seed=9").unwrap();
        let down = (0..1000).filter(|&l| !m.link_up(LinkId(l))).count();
        assert!((150..=350).contains(&down), "p=0.25 of 1000, got {down}");
        // p=0 downs nothing; p=1 downs everything.
        let none = LinkCostModel::parse("faulty:p=0,seed=9").unwrap();
        assert!((0..1000).all(|l| none.link_up(LinkId(l))));
        let all = LinkCostModel::parse("faulty:p=1,seed=9").unwrap();
        assert!((0..1000).all(|l| !all.link_up(LinkId(l))));
    }

    #[test]
    fn route_into_uniform_is_the_plain_route() {
        let cube = Hypercube::new(3);
        let mut links = Vec::new();
        LinkCostModel::Uniform
            .route_into(&cube, NodeId(0), NodeId(5), &mut links)
            .unwrap();
        assert_eq!(links, cube.route(NodeId(0), NodeId(5)).links());
    }

    #[test]
    fn route_into_surfaces_link_down_on_detourless_fabrics() {
        // The hypercube routes deterministically (e-cube) and has no
        // route_avoiding override, so a down link on the route is fatal.
        let cube = Hypercube::new(3);
        let all_down = LinkCostModel::parse("faulty:p=1,seed=0").unwrap();
        let err = all_down
            .route_into(&cube, NodeId(0), NodeId(5), &mut Vec::new())
            .unwrap_err();
        assert!(
            matches!(err, SimError::LinkDown { src: 0, dst: 5, .. }),
            "{err}"
        );
    }
}
