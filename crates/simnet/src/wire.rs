//! A tiny deterministic binary framing layer.
//!
//! Protocol crates persist recovery state and ship snapshots as byte blobs;
//! this module provides the encoding. It is deliberately minimal — fixed
//! little-endian integers and length-prefixed sequences — so encoded bytes
//! are stable across runs and easy to reason about in tests.
//!
//! ```
//! use simnet::wire::{self, Wire};
//! let mut buf = Vec::new();
//! (7u64, "hello".to_owned()).encode(&mut buf);
//! let mut slice = buf.as_slice();
//! let decoded = <(u64, String)>::decode(&mut slice).unwrap();
//! assert_eq!(decoded, (7, "hello".to_owned()));
//! assert!(slice.is_empty());
//! ```

use crate::sim::NodeId;

/// CRC-32C (Castagnoli, polynomial `0x1EDC6F41`): the checksum guarding
/// every byte boundary in the workspace — TCP frames, WAL records and
/// snapshot records all carry one. Software slicing-by-8 (the eight
/// tables are built at compile time), reflected, initial value and
/// final XOR of `!0`, matching the SSE4.2 `crc32` instruction and
/// iSCSI/ext4. Every frame is checksummed twice (once per side), so
/// this sits on the transport hot path; slicing-by-8 processes eight
/// bytes per step instead of one, which keeps the check well under a
/// cycle per byte.
pub mod crc32c {
    const fn build_tables() -> [[u32; 256]; 8] {
        // Reflected polynomial of 0x1EDC6F41.
        const POLY: u32 = 0x82F6_3B78;
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        // tables[k][b] is the CRC of byte b followed by k zero bytes:
        // each level feeds the previous one through one more byte step.
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        tables
    }

    static TABLES: [[u32; 256]; 8] = build_tables();

    /// Continues a checksum over `bytes` from a previous [`checksum`]
    /// value (pass the previous result directly; the pre/post
    /// conditioning is handled internally).
    pub fn extend(crc: u32, bytes: &[u8]) -> u32 {
        let mut crc = !crc;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// The CRC-32C of `bytes`.
    pub fn checksum(bytes: &[u8]) -> u32 {
        extend(0, bytes)
    }
}

/// Types that can be framed to and from bytes.
///
/// `decode` consumes from the front of the slice and returns `None` on
/// malformed or truncated input (never panics).
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `buf`, advancing it past the
    /// consumed bytes. Returns `None` on malformed input.
    fn decode(buf: &mut &[u8]) -> Option<Self>;

    /// The exact number of bytes [`Wire::encode`] would append, computed
    /// without encoding. The default round-trips through a scratch buffer;
    /// implementations on the sizing hot path (message cost models,
    /// snapshot accounting) override it with arithmetic.
    fn encoded_size(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Appends the encodings of `items`, back to back: the body of a
    /// `Vec<Self>` after its length prefix. The default encodes one item
    /// at a time; `u8` overrides it with one copy of the whole run.
    fn encode_run(items: &[Self], buf: &mut Vec<u8>) {
        for item in items {
            item.encode(buf);
        }
    }

    /// Decodes `len` back-to-back items from the front of `buf`: the body
    /// of a `Vec<Self>`. The default decodes one item at a time and caps
    /// its preallocation, so a hostile `len` fails at the end of the input
    /// instead of allocating for it; `u8` overrides it with one copy,
    /// after checking that `len` bytes remain.
    fn decode_run(buf: &mut &[u8], len: usize) -> Option<Vec<Self>> {
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(Self::decode(buf)?);
        }
        Some(out)
    }
}

/// Encodes a value into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decodes a value from a buffer, requiring that every byte is consumed.
pub fn from_bytes<T: Wire>(mut bytes: &[u8]) -> Option<T> {
    let v = T::decode(&mut bytes)?;
    if bytes.is_empty() {
        Some(v)
    } else {
        None
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Some(head)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                let bytes = take(buf, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
            fn encoded_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

wire_int!(u16, u32, u64, i64);

// Byte runs (values, pages, chunks) are copied, never walked: a
// `Vec<u8>` is the bulk of every frame and WAL record, and one call per
// byte cost more than the rest of the codec together.
impl Wire for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&first, rest) = buf.split_first()?;
        *buf = rest;
        Some(first)
    }
    fn encoded_size(&self) -> usize {
        1
    }
    fn encode_run(items: &[Self], buf: &mut Vec<u8>) {
        buf.extend_from_slice(items);
    }
    fn decode_run(buf: &mut &[u8], len: usize) -> Option<Vec<Self>> {
        take(buf, len).map(<[u8]>::to_vec)
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn encoded_size(&self) -> usize {
        1
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn encoded_size(&self) -> usize {
        8
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::decode(buf)?).ok()
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn encoded_size(&self) -> usize {
        8 + self.len()
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = usize::decode(buf)?;
        let bytes = take(buf, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        T::encode_run(self, buf);
    }
    fn encoded_size(&self) -> usize {
        8 + self.iter().map(Wire::encoded_size).sum::<usize>()
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = usize::decode(buf)?;
        T::decode_run(buf, len)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(None),
            1 => Some(Some(T::decode(buf)?)),
            _ => None,
        }
    }
    fn encoded_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_size)
    }
}

impl<T: Wire> Wire for std::sync::Arc<T> {
    // Transparent: `Arc<T>` encodes exactly like `T`, so shared protocol
    // payloads round-trip without a copy on encode.
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        T::decode(buf).map(std::sync::Arc::new)
    }
    fn encoded_size(&self) -> usize {
        (**self).encoded_size()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
    fn encoded_size(&self) -> usize {
        self.0.encoded_size() + self.1.encoded_size()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
    fn encoded_size(&self) -> usize {
        self.0.encoded_size() + self.1.encoded_size() + self.2.encoded_size()
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((
            A::decode(buf)?,
            B::decode(buf)?,
            C::decode(buf)?,
            D::decode(buf)?,
        ))
    }
    fn encoded_size(&self) -> usize {
        self.0.encoded_size()
            + self.1.encoded_size()
            + self.2.encoded_size()
            + self.3.encoded_size()
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire, E: Wire> Wire for (A, B, C, D, E) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
        self.4.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((
            A::decode(buf)?,
            B::decode(buf)?,
            C::decode(buf)?,
            D::decode(buf)?,
            E::decode(buf)?,
        ))
    }
    fn encoded_size(&self) -> usize {
        self.0.encoded_size()
            + self.1.encoded_size()
            + self.2.encoded_size()
            + self.3.encoded_size()
            + self.4.encoded_size()
    }
}

impl Wire for NodeId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(NodeId(u64::decode(buf)?))
    }
    fn encoded_size(&self) -> usize {
        8
    }
}

impl Wire for crate::time::SimTime {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_micros().encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(crate::time::SimTime::from_micros(u64::decode(buf)?))
    }
    fn encoded_size(&self) -> usize {
        8
    }
}

impl Wire for crate::time::SimDuration {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_micros().encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(crate::time::SimDuration::from_micros(u64::decode(buf)?))
    }
    fn encoded_size(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes), Some(v));
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // The iSCSI/ext4 check value — pins the polynomial, reflection
        // and conditioning against the published CRC-32C definition.
        assert_eq!(crc32c::checksum(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c::checksum(b""), 0);
        assert_eq!(crc32c::checksum(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c::checksum(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn crc32c_extend_composes_like_one_pass() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32c::extend(crc32c::checksum(a), b),
                crc32c::checksum(data),
                "split at {split}"
            );
        }
    }

    #[test]
    fn crc32c_detects_every_single_bit_flip() {
        let mut rng = crate::SimRng::seed_from_u64(0xC32C);
        let data: Vec<u8> = (0..64).map(|_| rng.gen_range(0..u64::MAX) as u8).collect();
        let clean = crc32c::checksum(&data);
        let mut mangled = data.clone();
        for byte in 0..data.len() {
            for bit in 0..8 {
                mangled[byte] ^= 1 << bit;
                assert_ne!(crc32c::checksum(&mangled), clean, "missed {byte}:{bit}");
                mangled[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(true);
        round_trip(false);
        round_trip(usize::MAX);
        round_trip(crate::time::SimTime::from_micros(123_456_789));
        round_trip(crate::time::SimDuration::from_millis(42));
    }

    #[test]
    fn composites_round_trip() {
        round_trip(String::from("héllo, wörld"));
        round_trip(String::new());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(42u32));
        round_trip(Option::<u32>::None);
        round_trip((7u64, String::from("x")));
        round_trip((1u8, 2u16, vec![NodeId(3)]));
        for len in [0, 1, 70_000] {
            round_trip((0..len).map(|i| i as u8).collect::<Vec<u8>>());
        }
        round_trip(vec![vec![1u8, 2], Vec::new(), vec![3]]);
        round_trip(std::sync::Arc::new(vec![9u8; 300]));
        round_trip(Some(vec![4u8, 5, 6]));
        round_trip(Option::<Vec<u8>>::None);
    }

    #[test]
    fn byte_vectors_keep_the_length_prefixed_format() {
        assert_eq!(
            to_bytes(&vec![1u8, 2, 3]),
            [3, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3]
        );
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = to_bytes(&12345u64);
        assert_eq!(from_bytes::<u64>(&bytes[..7]), None);
        let s = to_bytes(&String::from("abcdef"));
        assert_eq!(from_bytes::<String>(&s[..s.len() - 1]), None);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = to_bytes(&1u64);
        bytes.push(0xFF);
        assert_eq!(from_bytes::<u64>(&bytes), None);
    }

    #[test]
    fn invalid_discriminants_are_rejected() {
        assert_eq!(from_bytes::<bool>(&[2]), None);
        assert_eq!(from_bytes::<Option<u8>>(&[9, 1]), None);
    }

    #[test]
    fn hostile_length_does_not_allocate_the_moon() {
        let mut bytes = Vec::new();
        (u64::MAX).encode(&mut bytes); // declared length
        assert_eq!(from_bytes::<Vec<u64>>(&bytes), None);
        assert_eq!(from_bytes::<Vec<u8>>(&bytes), None);
        // One byte more than remains.
        let mut bytes = Vec::new();
        4usize.encode(&mut bytes);
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(from_bytes::<Vec<u8>>(&bytes), None);
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut bytes = Vec::new();
        2usize.encode(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(from_bytes::<String>(&bytes), None);
    }

    /// The composite shape the fuzzers mangle — nested enough to exercise
    /// every decoder path (ints, bool/option discriminants, length
    /// prefixes, UTF-8, tuples, byte runs).
    type FuzzTarget = (u64, String, Vec<(NodeId, Option<u32>)>, bool, Vec<u8>);

    fn fuzz_corpus(rng: &mut crate::SimRng) -> Vec<u8> {
        let n = rng.gen_range(0..4usize);
        let v: FuzzTarget = (
            rng.gen_range(0..u64::MAX),
            "abcdefgh"[..rng.gen_range(0..8usize)].to_owned(),
            (0..n)
                .map(|_| {
                    let opt = rng.gen_bool(0.5).then(|| rng.gen_range(0..u32::MAX));
                    (NodeId(rng.gen_range(0u64..64)), opt)
                })
                .collect(),
            rng.gen_bool(0.5),
            (0..rng.gen_range(0..12usize))
                .map(|_| rng.gen_range(0..u64::MAX) as u8)
                .collect(),
        );
        to_bytes(&v)
    }

    /// Seeded fuzz: random truncations of valid encodings must decode to
    /// `None`, never panic, and never consume past the slice.
    #[test]
    fn fuzz_truncations_never_panic() {
        let mut rng = crate::SimRng::seed_from_u64(0xF0221);
        for _ in 0..200 {
            let bytes = fuzz_corpus(&mut rng);
            for cut in 0..bytes.len() {
                // A strict prefix can never satisfy `from_bytes` (the
                // outer tuple consumes everything or fails).
                assert_eq!(from_bytes::<FuzzTarget>(&bytes[..cut]), None);
            }
        }
    }

    /// Seeded fuzz: single-bit flips either still decode (flipped a value
    /// byte) or cleanly return `None` — decoding must never panic or
    /// over-allocate.
    #[test]
    fn fuzz_bit_flips_never_panic() {
        let mut rng = crate::SimRng::seed_from_u64(0xF0222);
        for _ in 0..200 {
            let mut bytes = fuzz_corpus(&mut rng);
            let byte = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u32);
            bytes[byte] ^= 1 << bit;
            let _ = from_bytes::<FuzzTarget>(&bytes);
        }
    }

    /// Seeded fuzz: trailing garbage after a valid encoding is always
    /// rejected by `from_bytes` (full-consumption contract).
    #[test]
    fn fuzz_trailing_garbage_is_always_rejected() {
        let mut rng = crate::SimRng::seed_from_u64(0xF0223);
        for _ in 0..200 {
            let mut bytes = fuzz_corpus(&mut rng);
            let extra = rng.gen_range(1..16usize);
            for _ in 0..extra {
                bytes.push(rng.gen_range(0..u64::MAX) as u8);
            }
            assert_eq!(from_bytes::<FuzzTarget>(&bytes), None);
        }
    }

    /// Seeded fuzz: fully random byte soup must never panic the decoder.
    #[test]
    fn fuzz_random_bytes_never_panic() {
        let mut rng = crate::SimRng::seed_from_u64(0xF0224);
        for _ in 0..500 {
            let len = rng.gen_range(0..96usize);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..u64::MAX) as u8).collect();
            let _ = from_bytes::<FuzzTarget>(&bytes);
        }
    }
}
