//! The YCSB-load workload generator (§VI-A).
//!
//! The paper evaluates each benchmark with the *load* phase of YCSB:
//! 1,000 insert operations, each carrying an 8-byte key and a value of
//! configurable size (256 bytes by default; the sensitivity studies
//! sweep 16–256 bytes). Keys are unique and pseudo-random; values are
//! deterministic functions of the key so runs are reproducible and
//! post-crash checks can recompute the expected payload.

use slpmt_prng::{splitmix64, SimRng, Zipf};

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YcsbOp {
    /// 8-byte key (unique within the run).
    pub key: u64,
    /// Value payload (`value_size` bytes, a whole number of words).
    pub value: Vec<u8>,
}

/// Deterministic value payload for `key` — recomputable by checkers.
pub fn value_for(key: u64, value_size: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(value_size);
    let mut x = key ^ 0xA5A5_5A5A_DEAD_BEEF;
    while v.len() < value_size {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(value_size);
    v
}

/// Generates the YCSB-load insert stream: `ops` unique keys in a
/// seeded shuffle, each with a `value_size`-byte payload.
///
/// # Panics
///
/// Panics if `value_size` is not a multiple of 8 (stores are issued a
/// word at a time).
///
/// ```
/// let ops = slpmt_workloads::ycsb_load(1000, 256, 42);
/// assert_eq!(ops.len(), 1000);
/// assert!(ops.iter().all(|o| o.value.len() == 256));
/// ```
pub fn ycsb_load(ops: usize, value_size: usize, seed: u64) -> Vec<YcsbOp> {
    assert!(
        value_size.is_multiple_of(8),
        "value size must be whole words"
    );
    let mut rng = SimRng::seed_from_u64(seed);
    // Unique keys: dense per-seed IDs pushed through the (bijective)
    // SplitMix64 finaliser, so keys look random, never collide within
    // a run, and differ across seeds.
    let mut ids: Vec<u64> = (1..=ops as u64).collect();
    rng.shuffle(&mut ids);
    ids.into_iter()
        .map(|i| {
            let mut z = (seed << 32) ^ i;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let key = z ^ (z >> 31);
            YcsbOp {
                key,
                value: value_for(key, value_size),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generates_requested_count_and_size() {
        let ops = ycsb_load(1000, 256, 7);
        assert_eq!(ops.len(), 1000);
        assert!(ops.iter().all(|o| o.value.len() == 256));
    }

    #[test]
    fn keys_are_unique() {
        let ops = ycsb_load(1000, 16, 7);
        let keys: BTreeSet<u64> = ops.iter().map(|o| o.key).collect();
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(ycsb_load(100, 64, 3), ycsb_load(100, 64, 3));
        assert_ne!(ycsb_load(100, 64, 3), ycsb_load(100, 64, 4));
    }

    #[test]
    fn values_recomputable() {
        let ops = ycsb_load(10, 32, 9);
        for op in &ops {
            assert_eq!(op.value, value_for(op.key, 32));
        }
    }

    #[test]
    fn value_sizes_sweep() {
        for size in [16, 32, 64, 128, 256] {
            let ops = ycsb_load(10, size, 1);
            assert!(ops.iter().all(|o| o.value.len() == size));
        }
    }

    #[test]
    #[should_panic(expected = "whole words")]
    fn ragged_value_size_rejected() {
        let _ = ycsb_load(1, 20, 0);
    }
}

/// Deterministic value payload for the `version`-th mutation of the
/// run when it lands on `key` — collision-free per `(key, version)`.
///
/// The first two words carry `key` and `version ^ DOMAIN` verbatim, so
/// two distinct `(key, version)` pairs can never produce equal
/// payloads for `value_size >= 16`; the remaining words are an LCG
/// stream over the mixed pair. (The previous derivation,
/// `value_for(key ^ version.rotate_left(32), _)`, aliased whenever
/// `key_a ^ key_b` equaled `(v_a ^ v_b) << 32` — real collisions under
/// long update-heavy runs, which blinded the recovery oracle to
/// cross-key value swaps.)
///
/// # Panics
///
/// Panics if `value_size` is not a multiple of 8 or is smaller than 16
/// bytes (one word cannot carry both coordinates).
pub fn update_value_for(key: u64, version: u64, value_size: usize) -> Vec<u8> {
    const DOMAIN: u64 = 0x5EED_FACE_CAFE_D00D;
    assert!(
        value_size.is_multiple_of(8) && value_size >= 16,
        "update values need at least two whole words"
    );
    let mut v = Vec::with_capacity(value_size);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&(version ^ DOMAIN).to_le_bytes());
    let mut x = key ^ version.rotate_left(32) ^ DOMAIN;
    while v.len() < value_size {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(value_size);
    v
}

/// One operation of a mixed (post-load) workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixedOp {
    /// Insert a fresh key.
    Insert(YcsbOp),
    /// Read an existing key.
    Read(u64),
    /// Remove an existing key.
    Remove(u64),
    /// Replace an existing key's value.
    Update(YcsbOp),
    /// Read an existing key, then replace its value (YCSB F).
    Rmw(YcsbOp),
    /// Range scan. `keys` are the live keys the scan must observe, in
    /// ascending order starting at the scan cursor — materialised at
    /// generation time so executors and oracles can check the result
    /// set exactly. Ordered indexes serve it with one range walk;
    /// hash-style indexes degrade to point lookups.
    Scan {
        /// Expected result keys, ascending; never empty.
        keys: Vec<u64>,
    },
}

/// Key-popularity distribution for operations that target live keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Every live key equally likely.
    Uniform,
    /// Scrambled zipfian: ranks are drawn from a zeta-based sampler
    /// ([`slpmt_prng::Zipf`]) over a fixed rank space and pushed
    /// through the SplitMix64 finaliser before indexing the live set,
    /// so the hot set is a pseudo-random subset of keys rather than
    /// the smallest ones. `theta_milli` is the skew in thousandths
    /// (990 = YCSB's 0.99). When `churn > 0` the scramble salt is
    /// re-derived every `churn` operations, migrating the hot set
    /// mid-run (hot-key churn phases).
    Zipfian {
        /// Skew `theta` in thousandths, in `1..=999`.
        theta_milli: u16,
        /// Operations per hot-set phase; `0` disables churn.
        churn: u32,
    },
    /// Zipfian over recency: rank 0 is the most recently inserted
    /// still-live key (YCSB D's "latest" distribution).
    Latest {
        /// Skew `theta` in thousandths, in `1..=999`.
        theta_milli: u16,
    },
}

impl std::fmt::Display for KeyDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyDist::Uniform => write!(f, "uni"),
            KeyDist::Zipfian { theta_milli, churn } => write!(f, "zipf{theta_milli}c{churn}"),
            KeyDist::Latest { theta_milli } => write!(f, "latest{theta_milli}"),
        }
    }
}

impl std::str::FromStr for KeyDist {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "uni" || s == "uniform" {
            return Ok(KeyDist::Uniform);
        }
        let num = |t: &str, what: &str| {
            t.parse::<u32>()
                .map_err(|_| format!("bad {what} in key distribution {s:?}"))
        };
        if let Some(rest) = s.strip_prefix("zipf") {
            let (theta, churn) = match rest.split_once('c') {
                Some((t, c)) => (num(t, "theta")?, num(c, "churn")?),
                None => (num(rest, "theta")?, 0),
            };
            return Ok(KeyDist::Zipfian {
                theta_milli: theta as u16,
                churn,
            });
        }
        if let Some(rest) = s.strip_prefix("latest") {
            return Ok(KeyDist::Latest {
                theta_milli: num(rest, "theta")? as u16,
            });
        }
        Err(format!(
            "unknown key distribution {s:?} (want uni, zipf<theta>[c<churn>], latest<theta>)"
        ))
    }
}

/// Operation shares of a mixed workload, in percent; the insert share
/// is the remainder. `Copy + Eq` on purpose: sweep case descriptors
/// embed it, and failure lines must round-trip through
/// [`Display`](std::fmt::Display)/[`FromStr`](std::str::FromStr) for
/// CLI replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixSpec {
    /// Point-read share.
    pub read_pct: u8,
    /// Blind-update share.
    pub update_pct: u8,
    /// Read-modify-write share (YCSB F).
    pub rmw_pct: u8,
    /// Range-scan share (YCSB E).
    pub scan_pct: u8,
    /// Remove share — the Pattern-1 free-path hammer.
    pub remove_pct: u8,
    /// Longest scan, in keys (each scan draws 1..=max uniformly).
    pub max_scan_len: u8,
    /// Key-popularity distribution for live-key operations.
    pub dist: KeyDist,
}

/// YCSB's default zipfian skew, in thousandths.
const YCSB_THETA: u16 = 990;

impl MixSpec {
    /// YCSB A: 50% reads / 50% updates, zipfian.
    pub const YCSB_A: MixSpec = MixSpec::point(50, 50, 0, 0, KeyDist::zipf());
    /// YCSB B: 95% reads / 5% updates, zipfian.
    pub const YCSB_B: MixSpec = MixSpec::point(95, 5, 0, 0, KeyDist::zipf());
    /// YCSB C: 100% reads, zipfian.
    pub const YCSB_C: MixSpec = MixSpec::point(100, 0, 0, 0, KeyDist::zipf());
    /// YCSB D: 95% reads / 5% inserts, reads skewed to latest keys.
    pub const YCSB_D: MixSpec = MixSpec::point(
        95,
        0,
        0,
        0,
        KeyDist::Latest {
            theta_milli: YCSB_THETA,
        },
    );
    /// YCSB E: 95% scans / 5% inserts, zipfian scan cursors.
    pub const YCSB_E: MixSpec = MixSpec {
        read_pct: 0,
        update_pct: 0,
        rmw_pct: 0,
        scan_pct: 95,
        remove_pct: 0,
        max_scan_len: 16,
        dist: KeyDist::zipf(),
    };
    /// YCSB F: 50% reads / 50% read-modify-writes, zipfian.
    pub const YCSB_F: MixSpec = MixSpec::point(50, 0, 50, 0, KeyDist::zipf());
    /// Delete-heavy: 35% removes balanced by 35% inserts over a
    /// uniform live set — every third operation exercises the
    /// Pattern-1 free path or re-allocates over freed lines.
    pub const DELETE_HEAVY: MixSpec = MixSpec::point(15, 15, 0, 35, KeyDist::Uniform);
    /// [`DELETE_HEAVY`](Self::DELETE_HEAVY) under churning zipfian
    /// skew: removes concentrate on a migrating hot set, so the same
    /// lines are freed, re-allocated and re-freed across phases.
    pub const DELETE_HEAVY_ZIPF: MixSpec = MixSpec::point(
        15,
        15,
        0,
        35,
        KeyDist::Zipfian {
            theta_milli: YCSB_THETA,
            churn: 64,
        },
    );
    /// The legacy crash-sweep churn mix (5% reads / 15% updates / 20%
    /// removes / 60% inserts, uniform) — PR 2's sweep traffic, kept as
    /// the default [`SweepCase`](crate::crashsweep::SweepCase) mix.
    pub const CHURN: MixSpec = MixSpec::point(5, 15, 0, 20, KeyDist::Uniform);

    /// Name → spec table for the CLI and the bench matrix.
    pub const NAMED: &'static [(&'static str, MixSpec)] = &[
        ("a", MixSpec::YCSB_A),
        ("b", MixSpec::YCSB_B),
        ("c", MixSpec::YCSB_C),
        ("d", MixSpec::YCSB_D),
        ("e", MixSpec::YCSB_E),
        ("f", MixSpec::YCSB_F),
        ("delete-heavy", MixSpec::DELETE_HEAVY),
        ("delete-heavy-zipf", MixSpec::DELETE_HEAVY_ZIPF),
        ("churn", MixSpec::CHURN),
    ];

    /// A scan-free mix (most of the named family).
    const fn point(read: u8, update: u8, rmw: u8, remove: u8, dist: KeyDist) -> MixSpec {
        MixSpec {
            read_pct: read,
            update_pct: update,
            rmw_pct: rmw,
            scan_pct: 0,
            remove_pct: remove,
            max_scan_len: 0,
            dist,
        }
    }

    /// The insert share (the remainder after the explicit shares).
    pub fn insert_pct(&self) -> u8 {
        100 - self.read_pct - self.update_pct - self.rmw_pct - self.scan_pct - self.remove_pct
    }

    /// The registry name of this spec, if it has one.
    pub fn name(&self) -> Option<&'static str> {
        MixSpec::NAMED
            .iter()
            .find(|(_, m)| m == self)
            .map(|(n, _)| *n)
    }

    /// Checks share arithmetic; called by the generator.
    fn validate(&self) {
        assert!(
            self.read_pct as u16
                + self.update_pct as u16
                + self.rmw_pct as u16
                + self.scan_pct as u16
                + self.remove_pct as u16
                <= 100,
            "percentages exceed 100"
        );
        if self.scan_pct > 0 {
            assert!(self.max_scan_len > 0, "scan mix needs max_scan_len > 0");
        }
    }
}

impl std::fmt::Display for MixSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(name) = self.name() {
            return write!(f, "{name}");
        }
        write!(
            f,
            "r{}u{}w{}s{}d{}l{}:{}",
            self.read_pct,
            self.update_pct,
            self.rmw_pct,
            self.scan_pct,
            self.remove_pct,
            self.max_scan_len,
            self.dist
        )
    }
}

impl std::str::FromStr for MixSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((_, m)) = MixSpec::NAMED.iter().find(|(n, _)| *n == s) {
            return Ok(*m);
        }
        // r<read>u<update>w<rmw>s<scan>d<remove>l<maxscan>:<dist>
        let (shares, dist) = s
            .split_once(':')
            .ok_or_else(|| format!("unknown mix {s:?} (not a name, no ':<dist>' suffix)"))?;
        let mut rest = shares;
        let mut take = |tag: char| -> Result<u8, String> {
            rest = rest
                .strip_prefix(tag)
                .ok_or_else(|| format!("mix {s:?}: expected '{tag}' at {rest:?}"))?;
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            let (digits, tail) = rest.split_at(end);
            rest = tail;
            digits
                .parse()
                .map_err(|_| format!("mix {s:?}: bad share after '{tag}'"))
        };
        let spec = MixSpec {
            read_pct: take('r')?,
            update_pct: take('u')?,
            rmw_pct: take('w')?,
            scan_pct: take('s')?,
            remove_pct: take('d')?,
            max_scan_len: take('l')?,
            dist: dist.parse()?,
        };
        if !rest.is_empty() {
            return Err(format!("mix {s:?}: trailing {rest:?}"));
        }
        let shares = spec.read_pct as u16
            + spec.update_pct as u16
            + spec.rmw_pct as u16
            + spec.scan_pct as u16
            + spec.remove_pct as u16;
        if shares > 100 {
            return Err(format!("mix {s:?}: shares sum to {shares} > 100"));
        }
        if spec.scan_pct > 0 && spec.max_scan_len == 0 {
            return Err(format!("mix {s:?}: scan share needs l > 0"));
        }
        Ok(spec)
    }
}

impl KeyDist {
    /// YCSB's default zipfian (theta 0.99, no churn).
    pub const fn zipf() -> KeyDist {
        KeyDist::Zipfian {
            theta_milli: YCSB_THETA,
            churn: 0,
        }
    }
}

/// Picks a live-set index for one operation under `spec.dist`.
fn pick_live(
    rng: &mut SimRng,
    zipf: Option<&Zipf>,
    dist: &KeyDist,
    len: usize,
    op_index: usize,
    seed: u64,
) -> usize {
    match dist {
        KeyDist::Uniform => rng.gen_usize(0..len),
        KeyDist::Zipfian { churn, .. } => {
            let rank = zipf.expect("zipf sampler").sample(rng);
            // Scramble the rank so the hot set is a pseudo-random
            // subset of live keys; re-salt per churn phase so the hot
            // set migrates mid-run.
            let phase = if *churn > 0 {
                (op_index / *churn as usize) as u64
            } else {
                0
            };
            let mut s = seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let salt = splitmix64(&mut s);
            let mut m = rank ^ salt;
            (splitmix64(&mut m) % len as u64) as usize
        }
        KeyDist::Latest { .. } => {
            // Rank 0 = most recently inserted live key (tail of the
            // insertion-ordered live vector).
            let rank = zipf.expect("zipf sampler").sample(rng) % len as u64;
            len - 1 - rank as usize
        }
    }
}

/// Generates a full YCSB-style mixed workload: a load phase of `load`
/// inserts, then `ops` operations drawn from `spec`'s shares under its
/// key-popularity distribution. Reads, updates, read-modify-writes,
/// scans and removes target live keys; inserts draw from a disjoint
/// fresh-key pool; the whole trace is deterministic for a seed.
///
/// Scans materialise their expected result keys (the live keys at that
/// point in the trace, ascending from the cursor), so executors can
/// check range results exactly and recovery oracles can replay scans
/// as no-ops.
///
/// Removal-tolerant note: when the live set is empty, every roll falls
/// back to an insert.
///
/// # Panics
///
/// Panics if the shares exceed 100, `value_size` is not a multiple of
/// 8 (or is below 16 with update/rmw shares — see
/// [`update_value_for`]), or a scan share comes with
/// `max_scan_len == 0`.
pub fn ycsb_mix(
    load: usize,
    ops: usize,
    value_size: usize,
    seed: u64,
    spec: &MixSpec,
) -> (Vec<YcsbOp>, Vec<MixedOp>) {
    spec.validate();
    let loaded = ycsb_load(load, value_size, seed);
    let extra = ycsb_load(load + ops, value_size, seed ^ 0x5EED);
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
    let mut live: Vec<u64> = loaded.iter().map(|o| o.key).collect();
    let initial: std::collections::BTreeSet<u64> = live.iter().copied().collect();
    let mut fresh = extra.into_iter().filter(move |o| !initial.contains(&o.key));
    // Ordered mirror of the live set, only maintained when scans can
    // occur (delete-heavy million-op traces skip the O(log n) upkeep).
    let mut sorted: std::collections::BTreeSet<u64> = if spec.scan_pct > 0 {
        live.iter().copied().collect()
    } else {
        Default::default()
    };
    let zipf = match spec.dist {
        KeyDist::Zipfian { theta_milli, .. } | KeyDist::Latest { theta_milli } => Some(Zipf::new(
            (load + ops).max(2) as u64,
            u32::from(theta_milli),
        )),
        KeyDist::Uniform => None,
    };
    let t_read = spec.read_pct;
    let t_update = t_read + spec.update_pct;
    let t_rmw = t_update + spec.rmw_pct;
    let t_scan = t_rmw + spec.scan_pct;
    let t_remove = t_scan + spec.remove_pct;
    let mut out = Vec::with_capacity(ops);
    let mut version = 0u64;
    for op_index in 0..ops {
        let roll = rng.gen_range(0..100) as u8;
        if roll >= t_remove || live.is_empty() {
            let op = fresh.next().expect("fresh key pool exhausted");
            live.push(op.key);
            if spec.scan_pct > 0 {
                sorted.insert(op.key);
            }
            out.push(MixedOp::Insert(op));
            continue;
        }
        let i = pick_live(
            &mut rng,
            zipf.as_ref(),
            &spec.dist,
            live.len(),
            op_index,
            seed,
        );
        if roll < t_read {
            out.push(MixedOp::Read(live[i]));
        } else if roll < t_update {
            version += 1;
            let key = live[i];
            out.push(MixedOp::Update(YcsbOp {
                key,
                value: update_value_for(key, version, value_size),
            }));
        } else if roll < t_rmw {
            version += 1;
            let key = live[i];
            out.push(MixedOp::Rmw(YcsbOp {
                key,
                value: update_value_for(key, version, value_size),
            }));
        } else if roll < t_scan {
            let want = 1 + rng.gen_usize(0..spec.max_scan_len as usize);
            let keys: Vec<u64> = sorted.range(live[i]..).take(want).copied().collect();
            debug_assert!(!keys.is_empty());
            out.push(MixedOp::Scan { keys });
        } else {
            let key = live.swap_remove(i);
            if spec.scan_pct > 0 {
                sorted.remove(&key);
            }
            out.push(MixedOp::Remove(key));
        }
    }
    (loaded, out)
}

#[cfg(test)]
mod mixed_tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A uniform-key point mix: reads, blind updates and removes; the
    /// rest are inserts.
    pub(super) fn uniform(read: u8, update: u8, remove: u8) -> MixSpec {
        MixSpec::point(read, update, 0, remove, KeyDist::Uniform)
    }

    #[test]
    fn mixed_ops_respect_liveness() {
        let (load, ops) = ycsb_mix(50, 200, 16, 3, &uniform(40, 0, 20));
        let mut live: BTreeSet<u64> = load.iter().map(|o| o.key).collect();
        for op in &ops {
            match op {
                MixedOp::Insert(o) => {
                    assert!(live.insert(o.key), "insert of live key");
                }
                MixedOp::Read(k) => assert!(live.contains(k), "read of dead key"),
                MixedOp::Remove(k) => {
                    assert!(live.remove(k), "remove of dead key");
                }
                MixedOp::Update(o) => assert!(live.contains(&o.key), "update of dead key"),
                MixedOp::Rmw(_) | MixedOp::Scan { .. } => {
                    unreachable!("a point mix without rmw never emits rmw/scan")
                }
            }
        }
    }

    #[test]
    fn mixed_is_deterministic() {
        assert_eq!(
            ycsb_mix(10, 50, 16, 9, &uniform(50, 0, 10)),
            ycsb_mix(10, 50, 16, 9, &uniform(50, 0, 10))
        );
    }

    #[test]
    fn pure_read_mix_has_no_mutations() {
        let (_, ops) = ycsb_mix(20, 100, 16, 1, &uniform(100, 0, 0));
        assert!(ops.iter().all(|o| matches!(o, MixedOp::Read(_))));
    }

    #[test]
    #[should_panic(expected = "percentages exceed 100")]
    fn overfull_mix_rejected() {
        let _ = ycsb_mix(10, 10, 16, 0, &uniform(80, 0, 30));
    }
}

#[cfg(test)]
mod update_tests {
    use super::mixed_tests::uniform;
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ycsb_a_style_mix() {
        let (_, ops) = ycsb_mix(50, 400, 16, 2, &uniform(50, 50, 0));
        let updates = ops
            .iter()
            .filter(|o| matches!(o, MixedOp::Update(_)))
            .count();
        let reads = ops.iter().filter(|o| matches!(o, MixedOp::Read(_))).count();
        assert_eq!(updates + reads, 400, "50/50 read-update mix");
        assert!(updates > 120 && reads > 120);
    }

    #[test]
    fn updates_carry_fresh_values() {
        let (_, ops) = ycsb_mix(5, 50, 16, 3, &uniform(0, 100, 0));
        for op in &ops {
            let MixedOp::Update(o) = op else {
                panic!("pure update mix")
            };
            assert_eq!(o.value.len(), 16);
        }
    }

    #[test]
    fn update_values_never_alias_across_keys() {
        // The old derivation (`key ^ version.rotate_left(32)`) aliased
        // whenever key_a ^ key_b == (v_a ^ v_b) << 32. The new payload
        // carries (key, version) verbatim, so all update values in a
        // run are pairwise distinct and distinct from insert values.
        let (load, ops) = ycsb_mix(40, 400, 16, 8, &uniform(0, 60, 20));
        let mut seen: BTreeSet<Vec<u8>> = load.iter().map(|o| o.value.clone()).collect();
        assert_eq!(seen.len(), 40);
        for op in &ops {
            match op {
                MixedOp::Update(o) | MixedOp::Insert(o) | MixedOp::Rmw(o) => {
                    assert!(seen.insert(o.value.clone()), "aliased value for {}", o.key);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn update_value_embeds_coordinates() {
        let v = update_value_for(0xDEAD_BEEF, 7, 32);
        assert_eq!(v.len(), 32);
        assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), 0xDEAD_BEEF);
        assert_ne!(update_value_for(1, 2, 16), update_value_for(2, 1, 16));
        assert_ne!(update_value_for(1, 2, 16), update_value_for(1, 3, 16));
    }

    #[test]
    #[should_panic(expected = "two whole words")]
    fn single_word_update_values_rejected() {
        let _ = update_value_for(1, 1, 8);
    }
}

#[cfg(test)]
mod mix_tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Replays a generated trace against a model map, checking every
    /// op is legal at its point in the sequence.
    fn check_liveness(load: &[YcsbOp], ops: &[MixedOp]) {
        let mut live: BTreeMap<u64, Vec<u8>> =
            load.iter().map(|o| (o.key, o.value.clone())).collect();
        for op in ops {
            match op {
                MixedOp::Insert(o) => {
                    assert!(
                        live.insert(o.key, o.value.clone()).is_none(),
                        "insert of live key"
                    );
                }
                MixedOp::Read(k) => assert!(live.contains_key(k), "read of dead key"),
                MixedOp::Remove(k) => {
                    assert!(live.remove(k).is_some(), "remove of dead key");
                }
                MixedOp::Update(o) | MixedOp::Rmw(o) => {
                    assert!(
                        live.insert(o.key, o.value.clone()).is_some(),
                        "update of dead key"
                    );
                }
                MixedOp::Scan { keys } => {
                    assert!(!keys.is_empty(), "empty scan");
                    // Result keys must be exactly the live keys in
                    // [first, last] — contiguous in key order.
                    let lo = keys[0];
                    let hi = *keys.last().unwrap();
                    let expect: Vec<u64> = live.range(lo..=hi).map(|(k, _)| *k).collect();
                    assert_eq!(&expect, keys, "scan result not contiguous-live");
                }
            }
        }
    }

    #[test]
    fn named_mixes_are_legal_traces() {
        for (name, spec) in MixSpec::NAMED {
            let (load, ops) = ycsb_mix(60, 300, 16, 11, spec);
            assert_eq!(ops.len(), 300, "mix {name}");
            check_liveness(&load, &ops);
        }
    }

    #[test]
    fn mixes_are_deterministic() {
        for (_, spec) in MixSpec::NAMED {
            assert_eq!(
                ycsb_mix(40, 200, 16, 5, spec),
                ycsb_mix(40, 200, 16, 5, spec)
            );
        }
        assert_ne!(
            ycsb_mix(40, 200, 16, 5, &MixSpec::YCSB_A),
            ycsb_mix(40, 200, 16, 6, &MixSpec::YCSB_A)
        );
    }

    #[test]
    fn delete_heavy_hits_the_free_path() {
        let (_, ops) = ycsb_mix(100, 1000, 16, 3, &MixSpec::DELETE_HEAVY);
        let removes = ops
            .iter()
            .filter(|o| matches!(o, MixedOp::Remove(_)))
            .count();
        assert!(
            removes >= 300,
            "delete-heavy produced {removes}/1000 removes"
        );
    }

    #[test]
    fn zipfian_mix_skews_key_popularity() {
        let (_, ops) = ycsb_mix(500, 4000, 16, 7, &MixSpec::YCSB_C);
        let mut hits: BTreeMap<u64, usize> = BTreeMap::new();
        for op in &ops {
            if let MixedOp::Read(k) = op {
                *hits.entry(*k).or_default() += 1;
            }
        }
        let mut counts: Vec<usize> = hits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts.iter().take(10).sum();
        // Uniform over 500 keys would put ~2% in any 10 keys; zipfian
        // theta 0.99 concentrates far more.
        assert!(
            top10 * 100 / 4000 >= 20,
            "top-10 keys got {top10}/4000 reads — not skewed"
        );
    }

    #[test]
    fn latest_mix_prefers_recent_inserts() {
        let (load, ops) = ycsb_mix(200, 2000, 16, 9, &MixSpec::YCSB_D);
        // Keys inserted during the run (recent) should absorb a large
        // share of reads despite being a minority of the live set.
        let initial: BTreeSet<u64> = load.iter().map(|o| o.key).collect();
        let reads = ops.iter().filter(|o| matches!(o, MixedOp::Read(_))).count();
        let recent_reads = ops
            .iter()
            .filter(|o| matches!(o, MixedOp::Read(k) if !initial.contains(k)))
            .count();
        assert!(reads > 1500);
        assert!(
            recent_reads * 100 / reads >= 10,
            "latest dist read fresh keys only {recent_reads}/{reads} times"
        );
    }

    #[test]
    fn churn_migrates_the_hot_set() {
        let spec = MixSpec {
            read_pct: 100,
            update_pct: 0,
            rmw_pct: 0,
            scan_pct: 0,
            remove_pct: 0,
            max_scan_len: 0,
            dist: KeyDist::Zipfian {
                theta_milli: 990,
                churn: 500,
            },
        };
        let (_, ops) = ycsb_mix(400, 1000, 16, 13, &spec);
        let top_key = |slice: &[MixedOp]| -> u64 {
            let mut hits: BTreeMap<u64, usize> = BTreeMap::new();
            for op in slice {
                if let MixedOp::Read(k) = op {
                    *hits.entry(*k).or_default() += 1;
                }
            }
            hits.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        assert_ne!(
            top_key(&ops[..500]),
            top_key(&ops[500..]),
            "hot set did not migrate across churn phases"
        );
    }

    #[test]
    fn mix_spec_display_round_trips() {
        for (name, spec) in MixSpec::NAMED {
            assert_eq!(spec.to_string(), *name);
            assert_eq!(name.parse::<MixSpec>().unwrap(), *spec);
        }
        let custom = MixSpec {
            read_pct: 10,
            update_pct: 20,
            rmw_pct: 5,
            scan_pct: 15,
            remove_pct: 30,
            max_scan_len: 8,
            dist: KeyDist::Zipfian {
                theta_milli: 750,
                churn: 32,
            },
        };
        let s = custom.to_string();
        assert_eq!(s, "r10u20w5s15d30l8:zipf750c32");
        assert_eq!(s.parse::<MixSpec>().unwrap(), custom);
        let latest = MixSpec {
            dist: KeyDist::Latest { theta_milli: 990 },
            ..custom
        };
        assert_eq!(latest.to_string().parse::<MixSpec>().unwrap(), latest);
        assert!("nope".parse::<MixSpec>().is_err());
        assert!("r10:uni".parse::<MixSpec>().is_err());
    }

    #[test]
    fn insert_share_is_remainder() {
        assert_eq!(MixSpec::DELETE_HEAVY.insert_pct(), 35);
        assert_eq!(MixSpec::YCSB_C.insert_pct(), 0);
        assert_eq!(MixSpec::CHURN.insert_pct(), 60);
    }

    #[test]
    fn scan_mix_walks_ordered_ranges() {
        let (_, ops) = ycsb_mix(100, 300, 16, 21, &MixSpec::YCSB_E);
        let scans: Vec<_> = ops
            .iter()
            .filter_map(|o| match o {
                MixedOp::Scan { keys } => Some(keys),
                _ => None,
            })
            .collect();
        assert!(scans.len() > 200, "E mix produced {} scans", scans.len());
        assert!(scans.iter().any(|k| k.len() > 1), "only singleton scans");
        for keys in scans {
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "scan not ascending");
            assert!(keys.len() <= MixSpec::YCSB_E.max_scan_len as usize);
        }
    }
}
