//! Streaming canonical digests: content hashes without serialisation.
//!
//! The batch engine keys every solve by the canonical JSON of its inputs.
//! Serialising a full [`Configuration`](crate::Configuration) to a `String`
//! just to hash it costs a heap-allocated string per lookup — on
//! memo-hit-heavy sweeps that *is* the per-item cost. The
//! [`CanonicalHasher`] removes it: it implements [`serde::Serializer`], so
//! [`serde::Serialize::serialize_canonical`] — the stream `serde_json`
//! writes its text from — feeds the canonical bytes straight into two
//! FNV-1a-style lanes with zero allocation.
//!
//! The low lane is *defined* to equal
//! [`fnv1a`](crate::fnv1a)`(canonical_json.as_bytes())` — property-tested —
//! so digests interoperate with every place the 64-bit fingerprint already
//! appears (store entries, logs). The high lane is an independently seeded
//! multiplicative hash over the same bytes; together they form a 128-bit
//! structural digest whose accidental collision probability is negligible
//! (~2⁻⁶⁴ even across billions of distinct instances).

use serde::{Serialize, Serializer};

/// 64-bit FNV-1a offset basis (the low lane; matches [`crate::fnv1a`]).
const LO_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV prime (the low lane).
const LO_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Offset basis of the independent high lane.
const HI_OFFSET: u64 = 0x517c_c1b7_2722_0a95;
/// Odd multiplier of the high lane (the splitmix64 golden gamma).
const HI_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

/// A 128-bit streaming digest of a value's canonical JSON.
///
/// `lo` equals `fnv1a(canonical_json)`; `hi` is an independent second lane
/// over the same byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalDigest {
    /// The FNV-1a lane — interchangeable with
    /// [`Configuration::canonical_fingerprint`](crate::Configuration::canonical_fingerprint).
    pub lo: u64,
    /// The independent second lane.
    pub hi: u64,
}

/// A streaming canonical hasher: a [`serde::Serializer`] that folds the
/// canonical JSON byte stream into a [`CanonicalDigest`] instead of storing
/// it.
///
/// Both lanes run per byte — the low lane because its defining identity
/// with [`fnv1a`](crate::fnv1a) demands it, the high lane because the
/// canonical byte stream arrives as many tiny chunks (one per JSON token),
/// where block-buffering schemes measure *slower* than the straight
/// dependent-multiply loop.
///
/// Beyond serialised values, callers may fold raw bytes and integers into
/// the running state ([`CanonicalHasher::write`] /
/// [`CanonicalHasher::write_u64`]) — that is how the engine folds
/// per-scenario constants into hoisted cache-key seeds.
///
/// # Example
///
/// ```
/// use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
/// use bbs_taskgraph::{fnv1a, CanonicalHasher};
/// use serde::Serialize as _;
///
/// let configuration = producer_consumer(PaperParameters::default(), None);
/// let mut hasher = CanonicalHasher::new();
/// configuration.serialize_canonical(&mut hasher);
/// let digest = hasher.finish();
/// assert_eq!(digest.lo, fnv1a(configuration.canonical_json().as_bytes()));
/// ```
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    lo: u64,
    hi: u64,
}

impl CanonicalHasher {
    /// A hasher in its initial state.
    pub fn new() -> Self {
        Self {
            lo: LO_OFFSET,
            hi: HI_OFFSET,
        }
    }

    /// Folds raw bytes into both lanes.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut lo = self.lo;
        let mut hi = self.hi;
        for &byte in bytes {
            lo = (lo ^ u64::from(byte)).wrapping_mul(LO_PRIME);
            hi = (hi ^ u64::from(byte)).wrapping_mul(HI_PRIME);
        }
        self.lo = lo;
        self.hi = hi;
    }

    /// Folds a `u64` (little-endian) into both lanes.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Folds a whole digest into both lanes (16 little-endian bytes).
    pub fn write_digest(&mut self, digest: CanonicalDigest) {
        self.write_u64(digest.lo);
        self.write_u64(digest.hi);
    }

    /// The digest of everything written so far (the hasher itself is not
    /// consumed and can keep folding).
    pub fn finish(&self) -> CanonicalDigest {
        CanonicalDigest {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Serializer for CanonicalHasher {
    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

/// The [`CanonicalDigest`] of any canonically-serialisable value, computed
/// by streaming — no string, no allocation.
pub fn canonical_digest_of<T: Serialize + ?Sized>(value: &T) -> CanonicalDigest {
    let mut hasher = CanonicalHasher::new();
    value.serialize_canonical(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a;

    #[test]
    fn empty_digest_is_the_offset_bases() {
        let digest = CanonicalHasher::new().finish();
        assert_eq!(digest.lo, fnv1a(b""));
        assert_eq!(digest.hi, HI_OFFSET);
    }

    #[test]
    fn high_lane_separates_prefixes_from_extensions() {
        let mut a = CanonicalHasher::new();
        a.write(b"abc");
        let mut b = CanonicalHasher::new();
        b.write(b"abc\0");
        assert_ne!(a.finish().hi, b.finish().hi);
        // Finishing is non-destructive: keep writing, digest keeps moving.
        let snapshot = a.finish();
        a.write(b"more");
        assert_ne!(a.finish(), snapshot);
    }

    #[test]
    fn low_lane_matches_fnv1a_reference_vectors() {
        for input in [&b""[..], b"a", b"foobar"] {
            let mut hasher = CanonicalHasher::new();
            hasher.write(input);
            assert_eq!(hasher.finish().lo, fnv1a(input));
        }
    }

    #[test]
    fn lanes_are_independent() {
        // Two inputs engineered to agree on neither lane; more importantly,
        // the two lanes of one input must differ from each other and from
        // the other input's lanes.
        let mut a = CanonicalHasher::new();
        a.write(b"lane test A");
        let mut b = CanonicalHasher::new();
        b.write(b"lane test B");
        let (a, b) = (a.finish(), b.finish());
        assert_ne!(a.lo, b.lo);
        assert_ne!(a.hi, b.hi);
        assert_ne!(a.lo, a.hi);
    }

    #[test]
    fn chunking_does_not_change_the_digest() {
        let mut whole = CanonicalHasher::new();
        whole.write(b"split me anywhere");
        let mut parts = CanonicalHasher::new();
        parts.write(b"split ");
        parts.write(b"");
        parts.write(b"me anywhere");
        assert_eq!(whole.finish(), parts.finish());
    }

    #[test]
    fn streaming_digest_of_serialisable_values_matches_json_bytes() {
        let values: Vec<(String, Vec<u64>)> = vec![
            ("first \"quoted\"\n".to_string(), vec![1, 2, 3]),
            (String::new(), Vec::new()),
        ];
        let digest = canonical_digest_of(&values);
        let json = serde_json::to_string(&values).unwrap();
        assert_eq!(digest.lo, fnv1a(json.as_bytes()));
    }

    #[test]
    fn write_u64_folds_little_endian_bytes() {
        let mut via_int = CanonicalHasher::new();
        via_int.write_u64(0x0102_0304_0506_0708);
        let mut via_bytes = CanonicalHasher::new();
        via_bytes.write(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]);
        assert_eq!(via_int.finish(), via_bytes.finish());
    }
}
