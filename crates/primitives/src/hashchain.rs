//! Lamport hash chains (the paper's `h^l`, citing Lamport 1981).
//!
//! Scheme 2 keys its posting-list generations with
//! `k_j(w) = h^{l-ctr}(w || k_w)`: the *client* walks the chain backwards
//! (it knows the seed `w || k_w`), while the *server*, given some chain
//! element, can only walk *forwards* by re-applying `h`. This module
//! provides both walks plus the exhaustion bookkeeping of §5.6.

use crate::error::{CryptoError, Result};
use crate::sha256::{digest_padded_block, Sha256, BLOCK_LEN};

/// A single chain element (32 bytes).
pub type ChainKey = [u8; 32];

/// Domain-separation prefix of [`chain_step`]'s input.
const STEP_PREFIX: &[u8] = b"sse/chain-step";
/// Length of [`chain_step`]'s input: prefix plus element (46 bytes).
const STEP_INPUT_LEN: usize = STEP_PREFIX.len() + 32;

/// One application of the chain function `h`: SHA-256 of
/// `"sse/chain-step" || element`.
///
/// Domain-separated from every other SHA-256 use in the workspace. The
/// 46-byte input always fits one padded block, so the step is a single
/// compression with no hasher buffering.
#[must_use]
pub fn chain_step(element: &ChainKey) -> ChainKey {
    // The padded block (FIPS 180-4 §5.1.1): input, 0x80, zeros, and the
    // input's bit length as a 64-bit big-endian integer.
    let mut block = [0u8; BLOCK_LEN];
    block[..STEP_PREFIX.len()].copy_from_slice(STEP_PREFIX);
    block[STEP_PREFIX.len()..STEP_INPUT_LEN].copy_from_slice(element);
    block[STEP_INPUT_LEN] = 0x80;
    block[BLOCK_LEN - 8..].copy_from_slice(&((STEP_INPUT_LEN as u64) * 8).to_be_bytes());
    digest_padded_block(&block)
}

/// Derive the chain's base element `h^0` from arbitrary seed material
/// (the paper's `w || k_w`).
#[must_use]
pub fn chain_seed(material: &[&[u8]]) -> ChainKey {
    // Stream the domain-separation prefix and each material part straight
    // into the hasher: same bytes as hashing the concatenation, but no
    // intermediate `Vec<&[u8]>` per call.
    let mut h = Sha256::new();
    h.update(b"sse/chain-seed");
    for part in material {
        h.update(part);
    }
    h.finalize()
}

/// Walk `steps` applications of `h` forward from `start`.
#[must_use]
pub fn walk_forward(start: &ChainKey, steps: usize) -> ChainKey {
    let mut cur = *start;
    for _ in 0..steps {
        cur = chain_step(&cur);
    }
    cur
}

/// A hash chain of fixed length `l`, owned by the party that knows the seed
/// (the client). Element `i` is `h^i(seed)` for `i in 0..=l`.
///
/// The client hands out elements with *decreasing* index over time
/// (`l - ctr`), so anyone holding an older (higher-index) element can verify
/// forward but cannot derive the newer (lower-index) ones.
///
/// Deriving element `l - ctr` from the seed alone costs `l - ctr` hash
/// applications; [`HashChain::with_checkpoints`] trades `O(√l)` memory for
/// `O(√l)` derivation (the classic pebbling compromise — Lamport chains in
/// deployed one-time-password systems do the same).
#[derive(Clone)]
pub struct HashChain {
    seed: ChainKey,
    length: usize,
    /// Element at index `i * interval` for each `i` (empty = no pebbling).
    checkpoints: Vec<ChainKey>,
    interval: usize,
}

impl HashChain {
    /// Build a chain of `length` steps from seed material (no pebbling:
    /// O(1) memory, O(l - ctr) per derivation).
    #[must_use]
    pub fn new(material: &[&[u8]], length: usize) -> Self {
        HashChain {
            seed: chain_seed(material),
            length,
            checkpoints: Vec::new(),
            interval: 0,
        }
    }

    /// Build a chain with `√l`-spaced checkpoints: one O(l) precomputation,
    /// then O(√l) per derivation. This is what the Scheme 2 client uses for
    /// its per-keyword chain cache.
    #[must_use]
    pub fn with_checkpoints(material: &[&[u8]], length: usize) -> Self {
        let seed = chain_seed(material);
        let interval = ((length as f64).sqrt().ceil() as usize).max(1);
        let mut checkpoints = Vec::with_capacity(length / interval + 1);
        let mut cur = seed;
        for i in 0..=length {
            if i % interval == 0 {
                checkpoints.push(cur);
            }
            if i < length {
                cur = chain_step(&cur);
            }
        }
        HashChain {
            seed,
            length,
            checkpoints,
            interval,
        }
    }

    /// Chain length `l`.
    #[must_use]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Element at absolute index `idx` (`h^idx(seed)`).
    fn element_at(&self, idx: usize) -> ChainKey {
        debug_assert!(idx <= self.length);
        if self.checkpoints.is_empty() {
            return walk_forward(&self.seed, idx);
        }
        let cp = idx / self.interval;
        walk_forward(&self.checkpoints[cp], idx - cp * self.interval)
    }

    /// Element `h^{l - ctr}(seed)` — the key for counter value `ctr`
    /// (the paper's `k_j(w) = h^{l-ctr}(w || k_w)`).
    ///
    /// # Errors
    /// [`CryptoError::ChainExhausted`] once `ctr > l`: the chain cannot
    /// supply further keys and must be re-seeded (paper §5.6, Opt. 2
    /// discussion).
    pub fn key_for_counter(&self, ctr: u64) -> Result<ChainKey> {
        let ctr = usize::try_from(ctr).map_err(|_| CryptoError::ChainExhausted)?;
        if ctr > self.length {
            return Err(CryptoError::ChainExhausted);
        }
        Ok(self.element_at(self.length - ctr))
    }

    /// Remaining number of usable counter values after `ctr`.
    #[must_use]
    pub fn remaining(&self, ctr: u64) -> u64 {
        (self.length as u64).saturating_sub(ctr)
    }
}

/// Server-side forward walk: starting from a *claimed* newer element
/// `candidate`, find how many forward steps reach a commitment equality.
///
/// Scheme 2's server holds `f'(k_j(w))` (a commitment to the latest
/// generation key) and receives `t'_w = k_{latest}(w)` in the trapdoor; it
/// steps `candidate` forward until `commit(candidate) == stored`, learning
/// the per-generation keys along the way. Returns the number of steps taken,
/// or `None` within `max_steps`.
pub fn forward_search<F>(
    candidate: &ChainKey,
    matches: F,
    max_steps: usize,
) -> Option<(usize, ChainKey)>
where
    F: Fn(&ChainKey) -> bool,
{
    let mut cur = *candidate;
    for step in 0..=max_steps {
        if matches(&cur) {
            return Some((step, cur));
        }
        cur = chain_step(&cur);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_step_is_sha256_of_prefix_and_element() {
        use crate::sha256::sha256_concat;
        let mut k = [0u8; 32];
        for i in 0..64u8 {
            assert_eq!(
                chain_step(&k),
                sha256_concat(&[STEP_PREFIX, &k]),
                "step {i}"
            );
            k = chain_step(&k);
            k[0] ^= i;
        }
    }

    #[test]
    fn chain_is_deterministic() {
        let c1 = HashChain::new(&[b"word", b"key"], 16);
        let c2 = HashChain::new(&[b"word", b"key"], 16);
        assert_eq!(
            c1.key_for_counter(3).unwrap(),
            c2.key_for_counter(3).unwrap()
        );
    }

    #[test]
    fn seed_material_is_unambiguous_enough() {
        // Different material gives different chains.
        let a = HashChain::new(&[b"w1", b"k"], 8);
        let b = HashChain::new(&[b"w2", b"k"], 8);
        assert_ne!(a.key_for_counter(0).unwrap(), b.key_for_counter(0).unwrap());
    }

    #[test]
    fn forward_step_links_consecutive_counters() {
        // key(ctr) steps forward to key(ctr - 1): the server can go from a
        // newer key to all older ones.
        let c = HashChain::new(&[b"w", b"k"], 32);
        for ctr in 1..=32u64 {
            let newer = c.key_for_counter(ctr).unwrap();
            let older = c.key_for_counter(ctr - 1).unwrap();
            assert_eq!(chain_step(&newer), older, "ctr {ctr}");
        }
    }

    #[test]
    fn exhaustion_is_detected() {
        let c = HashChain::new(&[b"w", b"k"], 4);
        assert!(c.key_for_counter(4).is_ok());
        assert_eq!(c.key_for_counter(5), Err(CryptoError::ChainExhausted));
        assert_eq!(c.remaining(1), 3);
        assert_eq!(c.remaining(9), 0);
    }

    #[test]
    fn forward_search_finds_older_element() {
        let c = HashChain::new(&[b"w", b"k"], 64);
        let newest = c.key_for_counter(40).unwrap();
        let older = c.key_for_counter(25).unwrap();
        // Searching forward from the newest key must reach the older one in
        // exactly 15 steps.
        let (steps, found) = forward_search(&newest, |k| k == &older, 64).expect("must be found");
        assert_eq!(steps, 15);
        assert_eq!(found, older);
    }

    #[test]
    fn forward_search_respects_bound() {
        let c = HashChain::new(&[b"w", b"k"], 64);
        let newest = c.key_for_counter(40).unwrap();
        let older = c.key_for_counter(20).unwrap();
        assert!(forward_search(&newest, |k| k == &older, 10).is_none());
    }

    #[test]
    fn backward_is_infeasible_by_construction() {
        // Sanity statement of the one-wayness *interface*: stepping forward
        // from key(ctr) never reproduces key(ctr + 1).
        let c = HashChain::new(&[b"w", b"k"], 16);
        let newer = c.key_for_counter(10).unwrap();
        let older = c.key_for_counter(9).unwrap();
        assert!(forward_search(&older, |k| k == &newer, 64).is_none());
    }

    #[test]
    fn checkpointed_chain_matches_plain_chain() {
        for l in [1usize, 2, 7, 16, 100, 1000] {
            let plain = HashChain::new(&[b"w", b"k"], l);
            let pebbled = HashChain::with_checkpoints(&[b"w", b"k"], l);
            for ctr in [0u64, 1, (l / 2) as u64, l as u64] {
                assert_eq!(
                    plain.key_for_counter(ctr).unwrap(),
                    pebbled.key_for_counter(ctr).unwrap(),
                    "l={l}, ctr={ctr}"
                );
            }
            assert_eq!(
                pebbled.key_for_counter(l as u64 + 1),
                Err(CryptoError::ChainExhausted)
            );
        }
    }

    #[test]
    fn checkpoint_memory_is_sublinear() {
        let l = 10_000usize;
        let pebbled = HashChain::with_checkpoints(&[b"w", b"k"], l);
        // interval = ceil(sqrt(10000)) = 100 -> ~101 checkpoints.
        assert!(
            pebbled.checkpoints.len() <= 110,
            "{}",
            pebbled.checkpoints.len()
        );
    }

    #[test]
    fn zero_counter_is_chain_tip() {
        let c = HashChain::new(&[b"w", b"k"], 8);
        assert_eq!(
            c.key_for_counter(0).unwrap(),
            walk_forward(&chain_seed(&[b"w", b"k"]), 8)
        );
    }
}
