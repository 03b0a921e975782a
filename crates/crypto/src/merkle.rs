//! Binary Merkle tree over fixed-size chunks (SHA-256).
//!
//! The paper's threat model delegates device-memory confidentiality *and
//! integrity* to the developer ("there are many research efforts
//! targeting to provide efficient and flexible memory integrity and
//! confidentiality protection", §3.1 — citing Bonsai-Merkle-tree
//! designs). This module provides the integrity half for the
//! reproduction's DRAM shim: a keyed Merkle tree whose root functions as
//! the authenticated state of an untrusted memory region, with
//! incremental single-chunk updates.

use crate::hmac::HmacSha256;
use crate::parallel;
use crate::sha256::{Digest, Sha256};

/// A Merkle tree over `chunk_count` fixed-size chunks.
///
/// Leaves are keyed hashes (preventing cross-tree confusion), inner
/// nodes are SHA-256 over child pairs with domain separation. The tree
/// is stored as a flat array of `2 * padded_leaves` digests.
///
/// The tree keeps the key only as a keyed [`HmacSha256`] (whose
/// `Debug` prints no state), cloned per leaf: a 256-byte leaf costs 6
/// SHA-256 compressions instead of the 8 a fresh re-keying would.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    mac: HmacSha256,
    chunk_size: usize,
    leaves: usize,
    /// nodes[1] is the root; nodes[i] has children nodes[2i], nodes[2i+1].
    nodes: Vec<Digest>,
}

impl MerkleTree {
    /// Builds a tree over `data`, split into `chunk_size`-byte chunks
    /// (the last chunk may be short), keyed by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn build(key: &[u8; 32], data: &[u8], chunk_size: usize) -> MerkleTree {
        assert!(chunk_size > 0, "chunk size must be positive");
        let leaves = data.len().div_ceil(chunk_size).max(1);
        let padded = leaves.next_power_of_two();
        let mut nodes = vec![[0u8; 32]; 2 * padded];

        let mut tree = MerkleTree {
            mac: HmacSha256::new(key),
            chunk_size,
            leaves,
            nodes: Vec::new(),
        };
        for i in 0..padded {
            let start = i * chunk_size;
            let chunk = data
                .get(start..data.len().min(start + chunk_size))
                .unwrap_or(&[]);
            nodes[padded + i] = tree.leaf_hash(i, chunk);
        }
        for i in (1..padded).rev() {
            nodes[i] = Self::inner_hash(&nodes[2 * i], &nodes[2 * i + 1]);
        }
        tree.nodes = nodes;
        tree
    }

    /// Builds the same tree as [`build`](MerkleTree::build), striping
    /// leaf hashing and the inner rebuild across scoped worker threads.
    ///
    /// Workers each build one aligned subtree (a power-of-two leaf
    /// range) bottom-up in private storage; the main thread stitches
    /// the subtrees into the flat node array and finishes the top
    /// `log2(workers)` levels. Output is bit-identical to the serial
    /// build — the tests pin that differentially.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn build_parallel(key: &[u8; 32], data: &[u8], chunk_size: usize) -> MerkleTree {
        Self::build_with_workers(key, data, chunk_size, parallel::worker_count(data.len()))
    }

    /// [`build_parallel`](MerkleTree::build_parallel) with an explicit
    /// worker budget (rounded down to a power of two and capped at the
    /// leaf row, since workers own aligned subtrees).
    fn build_with_workers(
        key: &[u8; 32],
        data: &[u8],
        chunk_size: usize,
        workers: usize,
    ) -> MerkleTree {
        assert!(chunk_size > 0, "chunk size must be positive");
        let leaves = data.len().div_ceil(chunk_size).max(1);
        let padded = leaves.next_power_of_two();
        let workers = if workers.is_power_of_two() {
            workers
        } else {
            workers.next_power_of_two() / 2
        }
        .min(padded);
        if workers <= 1 {
            return MerkleTree::build(key, data, chunk_size);
        }

        let mut tree = MerkleTree {
            mac: HmacSha256::new(key),
            chunk_size,
            leaves,
            nodes: vec![[0u8; 32]; 2 * padded],
        };
        let sub = padded / workers;
        let locals: Vec<Vec<Digest>> = std::thread::scope(|scope| {
            let tree = &tree;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut local = vec![[0u8; 32]; 2 * sub];
                        for i in 0..sub {
                            let leaf = w * sub + i;
                            let start = leaf * chunk_size;
                            let chunk = data
                                .get(start..data.len().min(start + chunk_size))
                                .unwrap_or(&[]);
                            local[sub + i] = tree.leaf_hash(leaf, chunk);
                        }
                        for i in (1..sub).rev() {
                            local[i] = Self::inner_hash(&local[2 * i], &local[2 * i + 1]);
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect()
        });

        // Stitch: local node `2^d + k` of worker `w`'s subtree is main
        // node `(workers + w) · 2^d + k`.
        for (w, local) in locals.into_iter().enumerate() {
            let root = workers + w;
            for (j, digest) in local.into_iter().enumerate().skip(1) {
                let d = j.ilog2();
                let k = j - (1 << d);
                tree.nodes[(root << d) + k] = digest;
            }
        }
        for i in (1..workers).rev() {
            tree.nodes[i] = Self::inner_hash(&tree.nodes[2 * i], &tree.nodes[2 * i + 1]);
        }
        tree
    }

    fn padded(&self) -> usize {
        self.nodes.len() / 2
    }

    /// The chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of (real) leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The authenticated root.
    pub fn root(&self) -> Digest {
        self.nodes[1]
    }

    fn leaf_hash(&self, index: usize, chunk: &[u8]) -> Digest {
        let mut mac = self.mac.clone();
        mac.update(b"merkle-leaf-v1");
        mac.update(&(index as u64).to_le_bytes());
        mac.update(chunk);
        mac.finalize()
    }

    fn inner_hash(left: &Digest, right: &Digest) -> Digest {
        Sha256::digest_parts(&[b"merkle-node-v1", left, right])
    }

    /// Recomputes the path after chunk `index` changed to `chunk`,
    /// returning the new root.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn update_chunk(&mut self, index: usize, chunk: &[u8]) -> Digest {
        assert!(index < self.padded(), "chunk index out of range");
        let padded = self.padded();
        let mut node = padded + index;
        self.nodes[node] = self.leaf_hash(index, chunk);
        while node > 1 {
            node /= 2;
            self.nodes[node] = Self::inner_hash(&self.nodes[2 * node], &self.nodes[2 * node + 1]);
        }
        self.root()
    }

    /// Batched [`update_chunk`](MerkleTree::update_chunk): re-hashes
    /// every listed leaf, then refreshes each dirty interior node
    /// exactly once per level (two dirty siblings share one parent
    /// recomputation), returning the new root. Cost is O(k·log n) for
    /// `k` dirty chunks instead of k separate O(log n) walks re-hashing
    /// shared ancestors repeatedly — and far below the O(n) full
    /// rebuild the integrity hot path used to pay.
    ///
    /// Duplicate indices are permitted; the later entry wins, matching
    /// a sequence of single updates. Leaf hashing runs on scoped
    /// worker threads when the batch is large enough to pay for them.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn update_chunks(&mut self, updates: &[(usize, &[u8])]) -> Digest {
        let padded = self.padded();
        for &(index, _) in updates {
            assert!(index < padded, "chunk index out of range");
        }
        if updates.is_empty() {
            return self.root();
        }

        let total_bytes: usize = updates.iter().map(|(_, c)| c.len()).sum();
        let workers = parallel::worker_count(total_bytes).min(updates.len());
        let digests: Vec<Digest> = if workers <= 1 {
            updates
                .iter()
                .map(|&(index, chunk)| self.leaf_hash(index, chunk))
                .collect()
        } else {
            let this = &*self;
            std::thread::scope(|scope| {
                let handles: Vec<_> = parallel::split_ranges(updates.len(), workers)
                    .into_iter()
                    .map(|range| {
                        scope.spawn(move || {
                            updates[range]
                                .iter()
                                .map(|&(index, chunk)| this.leaf_hash(index, chunk))
                                .collect::<Vec<Digest>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("no panics"))
                    .collect()
            })
        };

        let mut dirty: Vec<usize> = Vec::with_capacity(updates.len());
        for (&(index, _), digest) in updates.iter().zip(&digests) {
            self.nodes[padded + index] = *digest;
            dirty.push(padded + index);
        }
        dirty.sort_unstable();
        dirty.dedup();
        while dirty[0] > 1 {
            for node in dirty.iter_mut() {
                *node /= 2;
            }
            dirty.dedup();
            for &node in &dirty {
                self.nodes[node] =
                    Self::inner_hash(&self.nodes[2 * node], &self.nodes[2 * node + 1]);
            }
        }
        self.root()
    }

    /// Verifies that `chunk` is the current contents of `index` under
    /// `root` — the check a verifier with only the root performs, using
    /// the authentication path.
    pub fn verify_chunk(&self, root: &Digest, index: usize, chunk: &[u8]) -> bool {
        if index >= self.padded() {
            return false;
        }
        let mut acc = self.leaf_hash(index, chunk);
        let mut node = self.padded() + index;
        while node > 1 {
            let sibling = self.nodes[node ^ 1];
            acc = if node.is_multiple_of(2) {
                Self::inner_hash(&acc, &sibling)
            } else {
                Self::inner_hash(&sibling, &acc)
            };
            node /= 2;
        }
        crate::ct::eq(&acc, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    fn tree(data: &[u8]) -> MerkleTree {
        MerkleTree::build(&[7; 32], data, 16)
    }

    #[test]
    fn root_changes_with_any_chunk() {
        let data = vec![1u8; 100];
        let t = tree(&data);
        for i in 0..t.leaf_count() {
            let mut modified = data.clone();
            modified[i * 16] ^= 1;
            let m = tree(&modified);
            assert_ne!(t.root(), m.root(), "chunk {i}");
        }
    }

    #[test]
    fn incremental_update_matches_rebuild() {
        let mut data = vec![2u8; 200];
        let mut t = tree(&data);
        data[37] = 99;
        let chunk_index = 37 / 16;
        let chunk = &data[chunk_index * 16..(chunk_index + 1) * 16];
        let updated_root = t.update_chunk(chunk_index, chunk);
        assert_eq!(updated_root, tree(&data).root());
    }

    #[test]
    fn verify_chunk_accepts_current_and_rejects_stale() {
        let data = vec![3u8; 64];
        let mut t = tree(&data);
        let root = t.root();
        assert!(t.verify_chunk(&root, 1, &data[16..32]));
        assert!(!t.verify_chunk(&root, 1, &[0u8; 16]));
        // Stale root after an update.
        let new_root = t.update_chunk(1, &[9u8; 16]);
        assert!(!t.verify_chunk(&root, 1, &[9u8; 16]));
        assert!(t.verify_chunk(&new_root, 1, &[9u8; 16]));
    }

    #[test]
    fn different_keys_different_roots() {
        let data = vec![4u8; 64];
        let a = MerkleTree::build(&[1; 32], &data, 16);
        let b = MerkleTree::build(&[2; 32], &data, 16);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn non_power_of_two_and_ragged_tail() {
        // 5 chunks, last one short.
        let data = vec![5u8; 16 * 4 + 7];
        let t = tree(&data);
        assert_eq!(t.leaf_count(), 5);
        assert!(t.verify_chunk(&t.root(), 4, &data[64..]));
    }

    #[test]
    fn empty_data_builds() {
        let t = tree(&[]);
        assert_eq!(t.leaf_count(), 1);
        assert!(t.verify_chunk(&t.root(), 0, &[]));
    }

    #[test]
    fn batched_update_matches_sequential_updates_and_rebuild() {
        let mut data = vec![6u8; 16 * 11 + 3]; // 12 leaves, padded to 16
        let mut batched = tree(&data);
        let mut sequential = batched.clone();

        // Touch chunks 0, 3, 7, 11 (the ragged tail) plus a duplicate
        // of 3 — later entry must win.
        for (i, v) in [
            (0usize, 0x11u8),
            (3, 0x22),
            (7, 0x33),
            (11, 0x44),
            (3, 0x55),
        ] {
            let start = i * 16;
            let end = data.len().min(start + 16);
            data[start..end].fill(v);
        }
        let chunks: Vec<(usize, Vec<u8>)> = [0usize, 3, 7, 11, 3]
            .iter()
            .map(|&i| {
                let start = i * 16;
                (i, data[start..data.len().min(start + 16)].to_vec())
            })
            .collect();
        let mut updates: Vec<(usize, &[u8])> = Vec::new();
        // Replay duplicates in order, with the final contents last.
        for (i, (index, chunk)) in chunks.iter().enumerate() {
            let payload: &[u8] = if i == 1 { &[0x22; 16] } else { chunk };
            updates.push((*index, payload));
        }
        let batched_root = batched.update_chunks(&updates);
        for (index, chunk) in &updates {
            sequential.update_chunk(*index, chunk);
        }
        assert_eq!(batched_root, sequential.root());
        assert_eq!(batched_root, tree(&data).root());
    }

    #[test]
    fn empty_update_batch_is_a_no_op() {
        let mut t = tree(&[1u8; 100]);
        let before = t.root();
        assert_eq!(t.update_chunks(&[]), before);
    }

    #[test]
    #[should_panic(expected = "chunk index out of range")]
    fn update_chunks_rejects_out_of_range_index() {
        let mut t = tree(&[1u8; 64]); // 4 leaves
        t.update_chunks(&[(99, &[0u8; 16])]);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // Sizes straddling the worker threshold, ragged tails, and a
        // single-leaf tree; several chunk sizes.
        for len in [
            0usize,
            5,
            256,
            4096,
            2 * crate::parallel::MIN_BYTES_PER_THREAD + 13,
            4 * crate::parallel::MIN_BYTES_PER_THREAD,
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            for chunk_size in [16usize, 256, 1000] {
                let serial = MerkleTree::build(&[7; 32], &data, chunk_size);
                // An explicit worker budget exercises the subtree
                // stitching even on a single-core host; build_parallel
                // itself covers the hardware-derived budget.
                for workers in [1usize, 2, 4, 8, 13] {
                    let par = MerkleTree::build_with_workers(&[7; 32], &data, chunk_size, workers);
                    assert_eq!(
                        serial.nodes, par.nodes,
                        "len={len} chunk={chunk_size} workers={workers}"
                    );
                    assert_eq!(serial.leaf_count(), par.leaf_count());
                }
                let par = MerkleTree::build_parallel(&[7; 32], &data, chunk_size);
                assert_eq!(serial.nodes, par.nodes, "len={len} chunk={chunk_size}");
            }
        }
    }

    #[test]
    fn parallel_build_supports_incremental_updates() {
        let len = 2 * crate::parallel::MIN_BYTES_PER_THREAD;
        let mut data: Vec<u8> = (0..len).map(|i| (i % 127) as u8).collect();
        let mut t = MerkleTree::build_parallel(&[9; 32], &data, 256);
        data[777] ^= 0xFF;
        let chunk = 777 / 256;
        t.update_chunks(&[(chunk, &data[chunk * 256..(chunk + 1) * 256])]);
        assert_eq!(t.root(), MerkleTree::build(&[9; 32], &data, 256).root());
    }

    // Golden roots, pinned from the per-leaf-rekeying implementation
    // and cross-checked against an independent Python model
    // (`hmac`/`hashlib`). Any change to leaf or node hashing — even one
    // applied consistently to the serial, parallel and incremental
    // paths — breaks these.
    const GOLDEN_KEY: [u8; 32] = [0x42; 32];

    #[test]
    fn golden_root_1mib_bench_window() {
        // `bench_crypto`'s key and window: the `merkle_root_1mib` pin.
        let data: Vec<u8> = (0..1usize << 20).map(|i| (i % 251) as u8).collect();
        let expect = "a4cd0dfff7c6b5688b6df52e593c58b2cbd700dd0a9a1e5ddc246c32460f3b56";
        assert_eq!(
            to_hex(&MerkleTree::build(&GOLDEN_KEY, &data, 256).root()),
            expect
        );
        assert_eq!(
            to_hex(&MerkleTree::build_with_workers(&GOLDEN_KEY, &data, 256, 4).root()),
            expect
        );
    }

    #[test]
    fn golden_root_4kib_ragged_tail() {
        // 16 full chunks plus a 77-byte tail: 17 leaves padded to 32,
        // the size class a served request hashes.
        let data: Vec<u8> = (0..4096 + 77).map(|i| (i * 7 + 3) as u8).collect();
        let expect = "e42b041838e15e778961dd8a7e369b9c4c0442e6bed30ff7a0b121d9e5259f73";
        let mut t = MerkleTree::build(&GOLDEN_KEY, &data, 256);
        assert_eq!(to_hex(&t.root()), expect);
        assert_eq!(
            to_hex(&MerkleTree::build_with_workers(&GOLDEN_KEY, &data, 256, 2).root()),
            expect
        );
        // Re-hashing every leaf in place lands on the same root.
        let updates: Vec<(usize, &[u8])> = data.chunks(256).enumerate().collect();
        assert_eq!(to_hex(&t.update_chunks(&updates)), expect);
        assert!(t.verify_chunk(&t.root(), 16, &data[4096..]));
    }

    #[test]
    fn debug_output_carries_no_key_bytes() {
        let key: [u8; 32] = core::array::from_fn(|i| 0xA0 + i as u8);
        let t = MerkleTree::build(&key, &[1u8; 600], 256);
        let shown = format!("{t:?} {t:#?}");
        assert!(!shown.contains(&to_hex(&key)), "{shown}");
        assert!(!shown.contains(&format!("{key:?}")), "{shown}");
        assert!(!shown.contains(&format!("{:?}", &key[..8])), "{shown}");
    }

    #[test]
    fn swapped_chunks_detected() {
        // Chunk-index binding: swapping two equal-looking positions of
        // different content fails verification.
        let mut data = vec![0u8; 64];
        data[0..16].fill(0xAA);
        data[16..32].fill(0xBB);
        let t = tree(&data);
        let root = t.root();
        assert!(!t.verify_chunk(&root, 0, &data[16..32]));
        assert!(!t.verify_chunk(&root, 1, &data[0..16]));
    }
}
