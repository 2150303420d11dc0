//! Deterministic media-fault injection plans.
//!
//! Real persistent memory does not fail as cleanly as a prefix cut of
//! the persist-event trace: a 64-byte line persist tears at 8-byte
//! store granularity when power fails mid-write, and the medium
//! suffers bit-flips and uncorrectable-ECC poisoning. A [`FaultPlan`]
//! describes one such failure deterministically — the same
//! `(seed, plan)` always injects exactly the same faults, so every
//! fault-sweep failure is replayable from its printed tuple.
//!
//! The plan is armed on a [`PmDevice`](crate::PmDevice) via
//! `set_fault_plan` and takes effect together with the persist-event
//! crash scheduler:
//!
//! * **tear** — the crash-boundary event `k` itself lands partially
//!   (word granularity) instead of the power failing cleanly between
//!   events `k` and `k + 1`.
//! * **poison** — after the crash, whole lines of the durable image
//!   become uncorrectable: reads *detect* the loss (they are not
//!   silent), modelling ECC poison consumption.
//! * **flip** — after the crash, single payload bits of durable log
//!   records flip; the record's CRC32 exposes them as corrupt.
//! * **jitter** — WPQ drain completions are perturbed within a bounded
//!   window, reordering drains without changing ADR durability
//!   semantics (acceptance still equals persistence).
//!
//! An empty plan ([`FaultPlan::NONE`]) is the default and injects
//! nothing: the device behaves bit-identically to a plan-free build.

use std::fmt;
use std::str::FromStr;

/// A splitmix64 finaliser step: a cheap, statistically strong 64-bit
/// mixer used to derive every fault-injection choice from the plan
/// seed. Stateless, so replay needs no generator object.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reflected IEEE 802.3 CRC32 generator polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC32_TABLES[0][b]` is the classic
/// byte-at-a-time table, and `CRC32_TABLES[k][b]` is that entry pushed
/// through `k` further zero bytes, so eight input bytes fold in with
/// eight independent lookups. Built at compile time (8 KiB).
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Extends the finished CRC32 `crc` of some byte string with `bytes`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, and
/// `crc32_update(0, b) == crc32(b)`. Lets callers checksum several
/// fields in place without concatenating them first.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
/// This is the checksum stored in every durable log record and commit
/// marker tag; recovery recomputes it to classify records.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// A deterministic, replayable media-fault plan.
///
/// Encodes as a compact tuple string (`s<seed>:t<0|1>[:w<word>]:p<n>:f<n>:j<n>`)
/// that round-trips through [`FromStr`], so a fault-sweep failure line
/// can be re-run verbatim with `slpmt faults --plan`.
///
/// ```
/// use slpmt_pmem::FaultPlan;
/// let plan = FaultPlan { seed: 7, tear: true, poison_lines: 2, ..FaultPlan::NONE };
/// let round: FaultPlan = plan.to_string().parse().unwrap();
/// assert_eq!(plan, round);
/// assert!(FaultPlan::NONE.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed every injection choice derives from (via [`mix64`]).
    pub seed: u64,
    /// Tear the crash-boundary persist event at word granularity.
    pub tear: bool,
    /// Pin the torn word index instead of deriving it from the seed
    /// (used by the torn-marker matrix tests); clamped to the event's
    /// valid tear range.
    pub tear_word: Option<u8>,
    /// Number of touched image lines to poison after the crash
    /// (uncorrectable-ECC model: reads are detectably lost).
    pub poison_lines: u32,
    /// Number of durable log records to bit-flip after the crash.
    pub flip_records: u32,
    /// WPQ drain-jitter window in cycles (0 = no perturbation).
    pub jitter: u32,
}

impl FaultPlan {
    /// The empty plan: injects nothing, perturbs nothing.
    pub const NONE: FaultPlan = FaultPlan {
        seed: 0,
        tear: false,
        tear_word: None,
        poison_lines: 0,
        flip_records: 0,
        jitter: 0,
    };

    /// `true` when the plan injects no fault of any kind — the device
    /// must behave bit-identically to a plan-free run.
    pub fn is_empty(&self) -> bool {
        !self.tear && self.poison_lines == 0 && self.flip_records == 0 && self.jitter == 0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}:t{}", self.seed, self.tear as u8)?;
        if let Some(w) = self.tear_word {
            write!(f, ":w{w}")?;
        }
        write!(
            f,
            ":p{}:f{}:j{}",
            self.poison_lines, self.flip_records, self.jitter
        )
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Parses the `s<seed>:t<0|1>[:w<word>]:p<n>:f<n>:j<n>` form
    /// printed by [`Display`](fmt::Display). Fields may appear in any
    /// order; missing fields default to the [`NONE`](Self::NONE) value.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::NONE;
        for field in s.split(':') {
            let tag_len = field.chars().next().map_or(0, char::len_utf8);
            let (tag, num) = field.split_at(tag_len);
            let parse = |what: &str| {
                num.parse::<u64>()
                    .map_err(|e| format!("bad {what} in fault plan field {field:?}: {e}"))
            };
            match tag {
                "s" => plan.seed = parse("seed")?,
                "t" => {
                    plan.tear = match parse("tear flag")? {
                        0 => false,
                        1 => true,
                        other => return Err(format!("tear flag must be 0 or 1, got {other}")),
                    }
                }
                "w" => plan.tear_word = Some(parse("tear word")?.min(u8::MAX as u64) as u8),
                "p" => plan.poison_lines = parse("poison count")?.min(u32::MAX as u64) as u32,
                "f" => plan.flip_records = parse("flip count")?.min(u32::MAX as u64) as u32,
                "j" => plan.jitter = parse("jitter window")?.min(u32::MAX as u64) as u32,
                _ => return Err(format!("unknown fault plan field {field:?}")),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time definition the tables are derived from: the
    /// reference every table-driven value must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_bitwise_reference() {
        let bytes: Vec<u8> = (0..=96u64).map(|i| mix64(i) as u8).collect();
        for len in 0..=bytes.len() {
            let data = &bytes[..len];
            let want = crc32_bitwise(data);
            assert_eq!(crc32(data), want, "len {len}");
            // Streaming: every single cut point, plus a seeded second
            // cut, must give the one-shot value.
            for cut in 0..=len {
                let (a, b) = data.split_at(cut);
                assert_eq!(crc32_update(crc32(a), b), want, "len {len} cut {cut}");
                let cut2 = cut + (mix64((len * 97 + cut) as u64) as usize) % (len - cut + 1);
                let (b1, b2) = data[cut..].split_at(cut2 - cut);
                let three = crc32_update(crc32_update(crc32(a), b1), b2);
                assert_eq!(three, want, "len {len} cuts {cut}/{cut2}");
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = [0x5Au8; 24];
        let before = crc32(&data);
        data[13] ^= 1 << 3;
        assert_ne!(before, crc32(&data));
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::NONE.is_empty());
        assert!(FaultPlan::default().is_empty());
        let mut p = FaultPlan::NONE;
        p.seed = 99; // a seed alone injects nothing
        assert!(p.is_empty());
        p.jitter = 1;
        assert!(!p.is_empty());
    }

    #[test]
    fn codec_round_trips() {
        let plans = [
            FaultPlan::NONE,
            FaultPlan {
                seed: 1234,
                tear: true,
                tear_word: None,
                poison_lines: 3,
                flip_records: 1,
                jitter: 500,
            },
            FaultPlan {
                seed: u64::MAX,
                tear: true,
                tear_word: Some(1),
                poison_lines: 0,
                flip_records: 0,
                jitter: 0,
            },
        ];
        for plan in plans {
            let text = plan.to_string();
            assert_eq!(text.parse::<FaultPlan>().unwrap(), plan, "{text}");
        }
    }

    #[test]
    fn parse_accepts_partial_and_rejects_garbage() {
        let p: FaultPlan = "s7:p2".parse().unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.poison_lines, 2);
        assert!(!p.tear);
        assert!("s7:q1".parse::<FaultPlan>().is_err());
        assert!("sx".parse::<FaultPlan>().is_err());
        assert!("s1:t2".parse::<FaultPlan>().is_err());
        // A multi-byte first character is an unknown tag, not a panic.
        assert!("s7:é1".parse::<FaultPlan>().is_err());
        assert!("é".parse::<FaultPlan>().is_err());
    }
}
