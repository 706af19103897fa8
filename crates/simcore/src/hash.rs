//! Keyed tables for the per-event path: [`HashMap`] / [`HashSet`] with
//! one fixed, deterministic hash function.
//!
//! std's default `RandomState` is SipHash-1-3 keyed from OS entropy. The
//! simulator and the monitor look up small integer keys (pids, ports,
//! flow keys, event sequence numbers) several times per kernel event, so
//! that hash was most of the fixed cost of an instrumentation point, and
//! its seed was the one entropy source analyzer rule D0003 otherwise
//! forbids. [`FixedHasher`] mixes each word in one rotate-xor-multiply
//! step and folds the well-mixed high half onto the low half at the end,
//! so both ends of the result are usable: the table takes the bucket
//! index from the low bits and its 7 control bits from the top.
//!
//! The function is fixed, so a table's layout is a pure function of its
//! insertion history — but code must still not *observe* iteration
//! order (analyzer rule D0002 keeps flagging these aliases by name).
//! It has no HashDoS resistance: use it for keys the program mints or
//! bounds, never for an unbounded table keyed by outside input (see
//! DESIGN.md §8 "Keyed tables").

use std::hash::{BuildHasherDefault, Hasher};

/// [`std::collections::HashMap`] on the fixed hasher. Construct with
/// `HashMap::default()`.
pub type HashMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// [`std::collections::HashSet`] on the fixed hasher. Construct with
/// `HashSet::default()`.
pub type HashSet<K> = std::collections::HashSet<K, FixedState>;

/// The `BuildHasher` of [`HashMap`] / [`HashSet`].
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// 2^64 / φ, odd: multiplying by it spreads consecutive integers evenly
/// over the high bits (Fibonacci hashing). Changing it reshuffles every
/// table; the known-answer test below pins it.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One multiply per word, no key, no per-process state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A multiply only carries upward: the top bits depend on every
        // input bit, the low bits on few. Fold the top half down.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(key: T) -> u64 {
        FixedState::default().hash_one(key)
    }

    /// A silent change of the constant, the step or the fold would
    /// reshuffle every table; nothing may depend on the layout, but if
    /// something ever does, this is where the change shows first.
    #[test]
    fn known_answers() {
        assert_eq!(hash(0u64), 0);
        assert_eq!(hash(1u64), 0x9E37_79B9_E17D_05AC);
        assert_eq!(hash(80u16), 0x7156_09F7_B610_CF67);
        assert_eq!(hash(0xFFFF_FFFFu32), 0xE113_025B_61A6_81B0);
        assert_eq!(hash((7u32, 2049u16)), 0xE3D7_8567_A8B5_FBA0);
        // ip, port, ip, port — the write sequence of a flow key.
        assert_eq!(
            hash((0x0A00_0001u32, 40_000u16, 0x0A00_0002u32, 2049u16)),
            0x1B00_AD65_69D2_B44E
        );
        assert_eq!(hash(u128::MAX), 0xDFB4_75EE_8DF6_9FE1);
        let mut h = FixedHasher::default();
        h.write(b"sysprof/interactions");
        assert_eq!(h.finish(), 0x8034_CF0B_D7DB_C76D);
    }

    /// `n` keys into a table of `2n` buckets (what a growing hashbrown
    /// table has between resizes): the table reads the bucket from the
    /// low bits and a 7-bit tag from the top. Asserts both are within a
    /// stated factor of what a uniform random function gives.
    fn assert_spread(what: &str, hashes: &[u64]) {
        let n = hashes.len();
        let buckets = (2 * n).next_power_of_two();
        let mut load = vec![0u32; buckets];
        let mut tags = [0usize; 128];
        for h in hashes {
            load[(*h as usize) & (buckets - 1)] += 1;
            tags[(*h >> 57) as usize] += 1;
        }
        // Uniform: m(1 - e^(-n/m)) buckets occupied; demand 90 % of it.
        let uniform = buckets as f64 * (1.0 - (-(n as f64) / buckets as f64).exp());
        let occupied = load.iter().filter(|&&l| l > 0).count();
        assert!(
            occupied as f64 >= 0.9 * uniform,
            "{what}: {occupied} buckets occupied, uniform gives {uniform:.0}"
        );
        // Uniform at load 1/2 peaks at 6-7 per bucket for 65,536 keys;
        // the table probes 16 slots at a time, so up to 16 cost one probe.
        let max = load.iter().max().copied().unwrap_or(0);
        assert!(max <= 16, "{what}: {max} keys share one bucket");
        // Every tag value within 2x of its uniform share either way.
        let share = n / 128;
        for (tag, &count) in tags.iter().enumerate() {
            assert!(
                count >= share / 2 && count <= share * 2,
                "{what}: tag {tag} seen {count} times, uniform share {share}"
            );
        }
    }

    #[test]
    fn sequential_integer_keys_spread() {
        const N: u64 = 65_536;
        let ports: Vec<u64> = (0..N).map(|p| hash(p as u16)).collect();
        assert_spread("sequential ports", &ports);
        let pids: Vec<u64> = (1..=N).map(|p| hash(p as u32)).collect();
        assert_spread("sequential pids", &pids);
        let seqs: Vec<u64> = (0..N).map(|s| hash(1_000_000 + s)).collect();
        assert_spread("sequential event seqs", &seqs);
        // A counter under a fixed tag in the high half.
        let tagged: Vec<u64> = (0..N).map(|s| hash((3u64 << 32) | s)).collect();
        assert_spread("tagged counters", &tagged);
    }

    #[test]
    fn composite_keys_spread() {
        const N: u32 = 65_536;
        // (node, port) class keys: 16 nodes x 4,096 ports.
        let classes: Vec<u64> = (0..N)
            .map(|i| hash((i >> 12, (i & 0xFFF) as u16)))
            .collect();
        assert_spread("(node, port)", &classes);
        // Flow keys (ip, port, ip, port — `simnet::FlowKey` hashes as this
        // tuple, which its own tests pin) that differ only in the client's
        // ephemeral port, with the client on either side.
        let (client, server) = (0x0A00_0001u32, 0x0A00_0002u32);
        let out: Vec<u64> = (0..N)
            .map(|p| hash((client, p as u16, server, 2049u16)))
            .collect();
        assert_spread("flows by source port", &out);
        let back: Vec<u64> = (0..N)
            .map(|p| hash((server, 2049u16, client, p as u16)))
            .collect();
        assert_spread("flows by destination port", &back);
        // (pid, file) open-file keys.
        let opened: Vec<u64> = (0..N)
            .map(|i| hash((i & 0xFF, u64::from(i >> 8))))
            .collect();
        assert_spread("(pid, file)", &opened);
    }

    #[test]
    fn byte_strings_hash_all_their_bytes() {
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..=24usize {
            for flip in 0..len {
                let mut bytes = vec![0x55u8; len];
                bytes[flip] ^= 1;
                let mut h = FixedHasher::default();
                h.write(&bytes);
                h.write_usize(len);
                assert!(seen.insert(h.finish()), "len {len} flip {flip} collides");
            }
        }
    }

    #[test]
    fn tables_behave_like_std() {
        let mut m: HashMap<u32, u32> = HashMap::default();
        let mut s: HashSet<(u32, u16)> = HashSet::default();
        for i in 0..10_000u32 {
            m.insert(i, i * 2);
            s.insert((i, (i % 7) as u16));
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u32).all(|i| m.get(&i) == Some(&(i * 2))));
        assert!(s.contains(&(9_999, (9_999 % 7) as u16)));
        assert!(!s.contains(&(9_999, 7)));
        assert_eq!(m.remove(&5), Some(10));
        assert_eq!(m.get(&5), None);
    }
}
