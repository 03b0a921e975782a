//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! The SM enclave encrypts the manipulated CL bitstream with
//! AES-GCM-256 under `Key_device` — the paper states its enclave-side
//! routine "aligns with the one used in Vivado" (XAPP1267). The FPGA's
//! internal configuration decryptor in `salus-fpga` opens the same
//! format.
//!
//! Ciphertext layout produced by [`seal`](AesGcm256::seal):
//! `ciphertext || 16-byte tag`.

use crate::aes::{Aes128, Aes256, Block, BLOCK_SIZE};
use crate::{parallel, CryptoError};

/// Length of the GCM authentication tag in bytes.
pub const TAG_SIZE: usize = 16;

/// Length of the standard GCM nonce in bytes.
pub const NONCE_SIZE: usize = 12;

/// Reduction constants for shifting a nibble out the bottom:
/// `R4[i] = mulx⁴(i)` — the fold contribution of low bits `i` after
/// four single-bit shifts, so `z·x⁴ = (z >> 4) ^ R4[z & 0xF]`.
const R4: [u128; 16] = {
    const R: u128 = 0xe1000000_00000000_00000000_00000000;
    let mut table = [0u128; 16];
    let mut i = 0usize;
    while i < 16 {
        let mut v = i as u128;
        let mut step = 0;
        while step < 4 {
            let lsb = v & 1;
            v >>= 1;
            if lsb != 0 {
                v ^= R;
            }
            step += 1;
        }
        table[i] = v;
        i += 1;
    }
    table
};

/// Byte-granularity reduction constants: `R8[i] = mulx⁸(i)`, so
/// `z·x⁸ = (z >> 8) ^ R8[z & 0xFF]`.
const R8: [u128; 256] = {
    const R: u128 = 0xe1000000_00000000_00000000_00000000;
    let mut table = [0u128; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut v = i as u128;
        let mut step = 0;
        while step < 8 {
            let lsb = v & 1;
            v >>= 1;
            if lsb != 0 {
                v ^= R;
            }
            step += 1;
        }
        table[i] = v;
        i += 1;
    }
    table
};

/// Per-key GHASH state: precomputed multiple tables for hash key `h`.
///
/// The fast path is Shoup's 8-bit table method (`m8`, 4 KiB): 256
/// precomputed multiples of `h`, one table lookup per message *byte*.
/// The original 4-bit method (`m4`, 256 bytes) is retained as the
/// auditable reference — [`GhashKey::mul_h_reference`] — and the two
/// are cross-checked differentially in the tests (plus against a
/// bit-by-bit multiply). Data-independent lookups by secret bytes are
/// out of scope for the simulation's threat model, which excludes side
/// channels per §3.1.
///
/// Built once per GCM key and reused across seal/open calls, so the
/// table fill cost is off the per-message path.
#[derive(Debug, Clone)]
struct GhashKey {
    /// m4[i] = (i as 4-bit poly) * h in the bit-reflected field
    /// (index bit 3 ↔ coefficient x^0).
    m4: [u128; 16],
    /// m8[b] = (b as 8-bit poly) * h; `m8[hi<<4|lo] = mulx⁴(m4[lo]) ^ m4[hi]`.
    m8: [u128; 256],
}

impl GhashKey {
    fn new(h: &Block) -> GhashKey {
        let h = u128::from_be_bytes(*h);
        // m4[1] = ... careful: in the reflected field, multiplying by x
        // is a right shift.
        let mut m4 = [0u128; 16];
        m4[8] = h; // 8 = 0b1000 represents x^0 ... build by halving.
        let mut i = 4;
        while i >= 1 {
            m4[i] = Self::mulx(m4[i * 2]);
            i /= 2;
        }
        // Fill remaining entries by XOR of components.
        for i in [3usize, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15] {
            let high_bit = 1 << (usize::BITS - 1 - i.leading_zeros());
            m4[i] = m4[high_bit] ^ m4[i ^ high_bit];
        }
        // One byte is two nibble steps: absorb the low nibble, shift it
        // up four coefficient positions, absorb the high nibble.
        let mut m8 = [0u128; 256];
        for (b, entry) in m8.iter_mut().enumerate() {
            let lo = m4[b & 0xF];
            *entry = (lo >> 4) ^ R4[(lo & 0xF) as usize] ^ m4[b >> 4];
        }
        GhashKey { m4, m8 }
    }

    /// Multiply by x in the bit-reflected field (right shift + fold).
    fn mulx(v: u128) -> u128 {
        const R: u128 = 0xe1000000_00000000_00000000_00000000;
        let lsb = v & 1;
        (v >> 1) ^ if lsb != 0 { R } else { 0 }
    }

    /// Multiplies `x` by `h` using the 8-bit tables (fast path).
    fn mul_h(&self, x: u128) -> u128 {
        let mut z = 0u128;
        // Process bytes from least significant to most significant.
        for i in 0..16 {
            let byte = ((x >> (8 * i)) & 0xFF) as usize;
            if i > 0 {
                // Shift the accumulator right by 8 with reduction.
                z = (z >> 8) ^ R8[(z & 0xFF) as usize];
            }
            z ^= self.m8[byte];
        }
        z
    }

    /// The hash key `h` itself (the table entry for the polynomial 1).
    fn h(&self) -> u128 {
        self.m4[8]
    }

    /// `x · hᵉ` by square-and-multiply over the generic bit-by-bit
    /// field multiply. Used once per worker stripe when GHASH runs in
    /// parallel — off the per-block path, so the slow generic multiply
    /// does not matter.
    fn mul_h_pow(&self, x: u128, e: u64) -> u128 {
        let mut acc = x;
        let mut base = self.h();
        let mut e = e;
        while e > 0 {
            if e & 1 != 0 {
                acc = gf_mul(acc, base);
            }
            base = gf_mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Multiplies `x` by `h` using the original 4-bit tables. Reference
    /// path, cross-checked against [`mul_h`](Self::mul_h) in tests
    /// (its only callers, hence the non-test `dead_code` allowance).
    #[cfg_attr(not(test), allow(dead_code))]
    fn mul_h_reference(&self, x: u128) -> u128 {
        let mut z = 0u128;
        // Process nibbles from least significant to most significant.
        for i in 0..32 {
            let nibble = ((x >> (4 * i)) & 0xF) as usize;
            if i > 0 {
                // Shift the accumulator right by 4 with reduction.
                let low = (z & 0xF) as usize;
                z = (z >> 4) ^ R4[low];
            }
            z ^= self.m4[nibble];
        }
        z
    }
}

/// Generic GF(2¹²⁸) multiply in the bit-reflected GCM field, one bit
/// at a time. Far slower than the Shoup tables — used only to derive
/// the per-stripe hash-key powers that combine parallel GHASH
/// partials, a handful of calls per large message.
fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1000000_00000000_00000000_00000000;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 != 0 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb != 0 {
            v ^= R;
        }
    }
    z
}

/// A GHASH accumulation in progress, borrowing the per-key tables.
#[derive(Debug, Clone)]
struct Ghash<'k> {
    key: &'k GhashKey,
    acc: u128,
}

impl<'k> Ghash<'k> {
    fn new(key: &'k GhashKey) -> Ghash<'k> {
        Ghash { key, acc: 0 }
    }

    fn update_block(&mut self, block: &Block) {
        self.acc = self.key.mul_h(self.acc ^ u128::from_be_bytes(*block));
    }

    /// Absorbs `data` zero-padded to a block multiple. Aligned chunks
    /// feed the accumulator directly; only a ragged tail is copied.
    fn update_padded(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(BLOCK_SIZE);
        for chunk in &mut chunks {
            let block: &Block = chunk.try_into().expect("exact chunk");
            self.update_block(block);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut b = [0u8; BLOCK_SIZE];
            b[..rem.len()].copy_from_slice(rem);
            self.update_block(&b);
        }
    }

    /// [`update_padded`](Ghash::update_padded) with the full-block
    /// prefix striped across scoped worker threads for large inputs —
    /// the GHASH half of the seekable-CTR trick. Each worker folds its
    /// stripe from a zero accumulator; linearity gives
    /// `acc' = acc·Hⁿ ⊕ partial` per stripe, with the per-stripe `Hⁿ`
    /// derived once by square-and-multiply. The result is identical to
    /// the serial absorption, which the tests pin differentially.
    fn update_padded_parallel(&mut self, data: &[u8]) {
        self.update_padded_striped(data, crate::parallel::worker_count(data.len()));
    }

    /// [`update_padded_parallel`](Ghash::update_padded_parallel) with
    /// an explicit worker budget (testable on single-core hosts).
    fn update_padded_striped(&mut self, data: &[u8], workers: usize) {
        let full_blocks = data.len() / BLOCK_SIZE;
        if workers <= 1 || full_blocks < 2 {
            self.update_padded(data);
            return;
        }
        let ranges = crate::parallel::split_ranges(full_blocks, workers);
        let key = self.key;
        let partials: Vec<(u128, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|r| {
                    scope.spawn(move || {
                        let mut g = Ghash::new(key);
                        g.update_padded(&data[r.start * BLOCK_SIZE..r.end * BLOCK_SIZE]);
                        (g.acc, (r.end - r.start) as u64)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect()
        });
        for (partial, blocks) in partials {
            self.acc = self.key.mul_h_pow(self.acc, blocks) ^ partial;
        }
        let tail = &data[full_blocks * BLOCK_SIZE..];
        if !tail.is_empty() {
            self.update_padded(tail);
        }
    }

    fn finalize(mut self, aad_len: usize, ct_len: usize) -> Block {
        let mut lengths = [0u8; BLOCK_SIZE];
        lengths[..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
        lengths[8..].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
        self.update_block(&lengths);
        self.acc.to_be_bytes()
    }
}

macro_rules! gcm_variant {
    ($name:ident, $aes:ident, $key_len:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone)]
        pub struct $name {
            cipher: $aes,
            ghash_key: GhashKey,
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name)).finish_non_exhaustive()
            }
        }

        impl $name {
            /// Creates a GCM context from `key`. The GHASH multiple
            /// tables are precomputed here, once per key.
            pub fn new(key: &[u8; $key_len]) -> $name {
                let cipher = $aes::new(key);
                let mut h = [0u8; BLOCK_SIZE];
                cipher.encrypt_block(&mut h);
                $name {
                    cipher,
                    ghash_key: GhashKey::new(&h),
                }
            }

            fn j0(&self, nonce: &[u8]) -> Block {
                if nonce.len() == NONCE_SIZE {
                    let mut j0 = [0u8; BLOCK_SIZE];
                    j0[..NONCE_SIZE].copy_from_slice(nonce);
                    j0[15] = 1;
                    j0
                } else {
                    let mut g = Ghash::new(&self.ghash_key);
                    g.update_padded(nonce);
                    g.finalize(0, nonce.len())
                }
            }

            /// GCTR over `data`: keystream blocks are `E(j0 + i)` with
            /// the 32-bit big-endian increment on the last word (inc32),
            /// starting at `i = 1`. Large inputs are split across scoped
            /// worker threads — inc32 counters are position-addressable,
            /// so each worker derives its chunk's starting counter
            /// independently. Output is identical to the serial path.
            fn ctr_apply(&self, j0: &Block, data: &mut [u8]) {
                let workers = parallel::worker_count(data.len());
                if workers <= 1 {
                    self.ctr_apply_from(j0, 1, data);
                    return;
                }
                let chunk_bytes = parallel::chunk_size(data.len(), workers, BLOCK_SIZE);
                let blocks_per_chunk = (chunk_bytes / BLOCK_SIZE) as u32;
                std::thread::scope(|scope| {
                    for (i, chunk) in data.chunks_mut(chunk_bytes).enumerate() {
                        let start = 1u32.wrapping_add((i as u32).wrapping_mul(blocks_per_chunk));
                        scope.spawn(move || self.ctr_apply_from(j0, start, chunk));
                    }
                });
            }

            /// Serial GCTR starting `block_offset` inc32 steps past `j0`.
            fn ctr_apply_from(&self, j0: &Block, block_offset: u32, data: &mut [u8]) {
                let base = u32::from_be_bytes([j0[12], j0[13], j0[14], j0[15]]);
                let full_blocks = data.len() / BLOCK_SIZE;
                let mut counter = *j0;
                let mut chunks = data.chunks_exact_mut(BLOCK_SIZE);
                for (i, chunk) in (&mut chunks).enumerate() {
                    let c = base.wrapping_add(block_offset.wrapping_add(i as u32));
                    counter[12..].copy_from_slice(&c.to_be_bytes());
                    let mut ks = counter;
                    self.cipher.encrypt_block(&mut ks);
                    let block: &mut Block = chunk.try_into().expect("exact chunk");
                    let x = u128::from_ne_bytes(*block) ^ u128::from_ne_bytes(ks);
                    *block = x.to_ne_bytes();
                }
                let tail = chunks.into_remainder();
                if !tail.is_empty() {
                    let c = base.wrapping_add(block_offset.wrapping_add(full_blocks as u32));
                    counter[12..].copy_from_slice(&c.to_be_bytes());
                    let mut ks = counter;
                    self.cipher.encrypt_block(&mut ks);
                    for (b, k) in tail.iter_mut().zip(ks.iter()) {
                        *b ^= k;
                    }
                }
            }

            fn tag(&self, j0: &Block, aad: &[u8], ciphertext: &[u8]) -> Block {
                let mut g = Ghash::new(&self.ghash_key);
                g.update_padded(aad);
                g.update_padded_parallel(ciphertext);
                let mut tag = g.finalize(aad.len(), ciphertext.len());
                let mut e_j0 = *j0;
                self.cipher.encrypt_block(&mut e_j0);
                for (t, e) in tag.iter_mut().zip(e_j0.iter()) {
                    *t ^= e;
                }
                tag
            }

            /// Encrypts `plaintext` with associated data `aad`, returning
            /// `ciphertext || tag`.
            pub fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
                let mut out = Vec::with_capacity(plaintext.len() + TAG_SIZE);
                out.extend_from_slice(plaintext);
                let tag = self.seal_in_place(nonce, aad, &mut out);
                out.extend_from_slice(&tag);
                out
            }

            /// Encrypts `buf` in place with associated data `aad` and
            /// returns the detached tag. [`seal`](Self::seal) is this
            /// plus a copy: its output is `buf || tag`.
            pub fn seal_in_place(
                &self,
                nonce: &[u8],
                aad: &[u8],
                buf: &mut [u8],
            ) -> [u8; TAG_SIZE] {
                let j0 = self.j0(nonce);
                self.ctr_apply(&j0, buf);
                self.tag(&j0, aad, buf)
            }

            /// Decrypts and verifies `sealed` (`ciphertext || tag`).
            ///
            /// # Errors
            ///
            /// Returns [`CryptoError::AuthenticationFailed`] if the tag does
            /// not verify, and [`CryptoError::InvalidInput`] if `sealed` is
            /// shorter than a tag.
            pub fn open(
                &self,
                nonce: &[u8],
                aad: &[u8],
                sealed: &[u8],
            ) -> Result<Vec<u8>, CryptoError> {
                if sealed.len() < TAG_SIZE {
                    return Err(CryptoError::InvalidInput("sealed text shorter than tag"));
                }
                let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_SIZE);
                let mut out = ciphertext.to_vec();
                self.open_in_place(nonce, aad, &mut out, tag.try_into().expect("tag size"))?;
                Ok(out)
            }

            /// Verifies the detached `tag` over ciphertext `buf`, then
            /// decrypts `buf` in place. The tag is checked before any
            /// byte is decrypted: on an error `buf` still holds the
            /// ciphertext.
            ///
            /// # Errors
            ///
            /// Returns [`CryptoError::AuthenticationFailed`] if the tag does
            /// not verify.
            pub fn open_in_place(
                &self,
                nonce: &[u8],
                aad: &[u8],
                buf: &mut [u8],
                tag: &[u8; TAG_SIZE],
            ) -> Result<(), CryptoError> {
                let j0 = self.j0(nonce);
                let expected = self.tag(&j0, aad, buf);
                if !crate::ct::eq(&expected, tag) {
                    return Err(CryptoError::AuthenticationFailed);
                }
                self.ctr_apply(&j0, buf);
                Ok(())
            }
        }
    };
}

gcm_variant!(AesGcm128, Aes128, 16, "AES-128-GCM.");
gcm_variant!(
    AesGcm256,
    Aes256,
    32,
    "AES-256-GCM, the bitstream-encryption cipher (`Key_device`)."
);

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // NIST GCM spec test case 1: empty everything, AES-128.
    #[test]
    fn nist_case1_empty() {
        let key = [0u8; 16];
        let nonce = [0u8; 12];
        let g = AesGcm128::new(&key);
        let sealed = g.seal(&nonce, b"", b"");
        assert_eq!(sealed, unhex("58e2fccefa7e3061367f1d57a4e7455a"));
        assert_eq!(g.open(&nonce, b"", &sealed).unwrap(), b"");
    }

    // NIST GCM spec test case 2: one zero block, AES-128.
    #[test]
    fn nist_case2_one_block() {
        let key = [0u8; 16];
        let nonce = [0u8; 12];
        let g = AesGcm128::new(&key);
        let sealed = g.seal(&nonce, b"", &[0u8; 16]);
        assert_eq!(
            sealed,
            unhex("0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf")
        );
    }

    // NIST GCM spec test case 4: AAD + partial final block, AES-128.
    #[test]
    fn nist_case4_aad() {
        let key = unhex("feffe9928665731c6d6a8f9467308308");
        let nonce = unhex("cafebabefacedbaddecaf888");
        let plaintext = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let g = AesGcm128::new(key[..16].try_into().unwrap());
        let sealed = g.seal(&nonce, &aad, &plaintext);
        let expected_ct = unhex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        );
        let expected_tag = unhex("5bc94fbc3221a5db94fae95ae7121a47");
        assert_eq!(&sealed[..expected_ct.len()], &expected_ct[..]);
        assert_eq!(&sealed[expected_ct.len()..], &expected_tag[..]);
        assert_eq!(g.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    }

    // NIST test case 16 (AES-256 with AAD).
    #[test]
    fn nist_case16_aes256() {
        let key = unhex("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
        let nonce = unhex("cafebabefacedbaddecaf888");
        let plaintext = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let g = AesGcm256::new(key[..32].try_into().unwrap());
        let sealed = g.seal(&nonce, &aad, &plaintext);
        let expected_ct = unhex(
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        );
        let expected_tag = unhex("76fc6ece0f4e1768cddf8853bb2d551b");
        assert_eq!(&sealed[..expected_ct.len()], &expected_ct[..]);
        assert_eq!(&sealed[expected_ct.len()..], &expected_tag[..]);
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let g = AesGcm256::new(&[1u8; 32]);
        let nonce = [2u8; 12];
        let mut sealed = g.seal(&nonce, b"aad", b"secret bitstream");
        sealed[3] ^= 0x01;
        assert_eq!(
            g.open(&nonce, b"aad", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampered_aad_rejected() {
        let g = AesGcm256::new(&[1u8; 32]);
        let nonce = [2u8; 12];
        let sealed = g.seal(&nonce, b"dna-A", b"payload");
        assert_eq!(
            g.open(&nonce, b"dna-B", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn short_input_rejected() {
        let g = AesGcm128::new(&[0u8; 16]);
        assert!(matches!(
            g.open(&[0u8; 12], b"", &[0u8; 8]),
            Err(CryptoError::InvalidInput(_))
        ));
    }

    #[test]
    fn table_ghash_matches_bitwise_reference() {
        // Independent bit-by-bit GF(2^128) multiply to cross-check both
        // Shoup-table implementations across many keys and inputs.
        fn gf_mul_ref(x: u128, y: u128) -> u128 {
            const R: u128 = 0xe1000000_00000000_00000000_00000000;
            let mut z = 0u128;
            let mut v = y;
            for i in 0..128 {
                if (x >> (127 - i)) & 1 != 0 {
                    z ^= v;
                }
                let lsb = v & 1;
                v >>= 1;
                if lsb != 0 {
                    v ^= R;
                }
            }
            z
        }

        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state as u128) << 64) | state.rotate_left(17) as u128
        };
        for _ in 0..200 {
            let h = next().to_be_bytes();
            let x = next();
            let key = GhashKey::new(&h);
            let expected = gf_mul_ref(x, u128::from_be_bytes(h));
            assert_eq!(key.mul_h(x), expected, "8-bit table path diverged");
            assert_eq!(
                key.mul_h_reference(x),
                expected,
                "4-bit reference path diverged"
            );
        }
    }

    #[test]
    fn byte_table_matches_nibble_reference_exhaustive_bytes() {
        // Every single-byte input, a few keys: the 8-bit table must agree
        // with the 4-bit reference entry-by-entry.
        for seed in [
            1u128,
            0xfe,
            u128::MAX,
            0x0123_4567_89ab_cdef_0011_2233_4455_6677,
        ] {
            let key = GhashKey::new(&seed.to_be_bytes());
            for b in 0u128..256 {
                for shift in [0u32, 56, 120] {
                    let x = b << shift;
                    assert_eq!(key.mul_h(x), key.mul_h_reference(x), "x={x:032x}");
                }
            }
        }
    }

    #[test]
    fn parallel_gctr_matches_serial() {
        // Above the parallel threshold the scoped-thread GCTR must be
        // byte-identical to a forced-serial evaluation.
        let g = AesGcm256::new(&[0x5au8; 32]);
        let j0 = g.j0(&[7u8; 12]);
        let len = 3 * crate::parallel::MIN_BYTES_PER_THREAD + 13;
        let mut par: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut serial = par.clone();
        g.ctr_apply(&j0, &mut par);
        g.ctr_apply_from(&j0, 1, &mut serial);
        assert_eq!(par, serial);
    }

    #[test]
    fn mul_h_pow_matches_repeated_multiplication() {
        let key = GhashKey::new(&0x0123_4567_89ab_cdef_1122_3344_5566_7788u128.to_be_bytes());
        let x = 0xdead_beef_cafe_f00d_0102_0304_0506_0708u128;
        let mut expected = x;
        for e in 0u64..40 {
            assert_eq!(key.mul_h_pow(x, e), expected, "e={e}");
            expected = gf_mul(expected, key.h());
        }
        assert_eq!(key.mul_h_pow(0, 17), 0);
    }

    #[test]
    fn striped_ghash_matches_serial() {
        // The stripe-and-combine absorption must match the serial Horner
        // fold bit-for-bit, for every worker budget, from both a zero
        // accumulator and one that already absorbed AAD — a single-core
        // host never picks workers > 1 on its own, so the budgets are
        // explicit here.
        let key = GhashKey::new(&0x00f0_e0d0_c0b0_a090_8070_6050_4030_2010u128.to_be_bytes());
        for len in [0usize, 15, 16, 17, 32, 16 * 5 + 7, 4096, 16 * 1000 + 3] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            for workers in [1usize, 2, 3, 7, 64] {
                let mut serial = Ghash::new(&key);
                serial.update_padded(&data);
                let mut striped = Ghash::new(&key);
                striped.update_padded_striped(&data, workers);
                assert_eq!(serial.acc, striped.acc, "len={len} workers={workers}");

                let mut serial = Ghash::new(&key);
                serial.update_padded(b"associated data!"); // one full block
                serial.update_padded(&data);
                let mut striped = Ghash::new(&key);
                striped.update_padded(b"associated data!");
                striped.update_padded_striped(&data, workers);
                assert_eq!(
                    serial.acc, striped.acc,
                    "aad-seeded len={len} workers={workers}"
                );
            }
            let mut serial = Ghash::new(&key);
            serial.update_padded(&data);
            let mut auto = Ghash::new(&key);
            auto.update_padded_parallel(&data);
            assert_eq!(serial.acc, auto.acc, "hardware budget len={len}");
        }
    }

    #[test]
    fn large_seal_open_roundtrip() {
        let g = AesGcm256::new(&[0x21u8; 32]);
        let nonce = [3u8; 12];
        let plain: Vec<u8> = (0..3 * crate::parallel::MIN_BYTES_PER_THREAD + 5)
            .map(|i| (i * 7 % 256) as u8)
            .collect();
        let sealed = g.seal(&nonce, b"dna", &plain);
        assert_eq!(g.open(&nonce, b"dna", &sealed).unwrap(), plain);
    }

    #[test]
    fn non_96bit_nonce_supported() {
        let g = AesGcm128::new(&[5u8; 16]);
        let nonce = [9u8; 20];
        let sealed = g.seal(&nonce, b"", b"hello");
        assert_eq!(g.open(&nonce, b"", &sealed).unwrap(), b"hello");
        assert!(g.open(&[9u8; 19], b"", &sealed).is_err());
    }

    #[test]
    fn in_place_seal_open_agree_with_copying_api() {
        let g = AesGcm256::new(&[0x33u8; 32]);
        let nonce = [4u8; 12];
        let big = 3 * crate::parallel::MIN_BYTES_PER_THREAD + 5;
        for len in [0usize, 1, 15, 16, 17, 100, big] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let sealed = g.seal(&nonce, b"aad", &plain);
            let mut buf = plain.clone();
            let tag = g.seal_in_place(&nonce, b"aad", &mut buf);
            assert_eq!(&sealed[..len], &buf[..], "ciphertext len={len}");
            assert_eq!(&sealed[len..], &tag[..], "tag len={len}");

            g.open_in_place(&nonce, b"aad", &mut buf, &tag).unwrap();
            assert_eq!(buf, plain, "len={len}");
            assert_eq!(g.open(&nonce, b"aad", &sealed).unwrap(), plain);
        }
    }

    #[test]
    fn tampered_tag_leaves_buffer_undecrypted() {
        let g = AesGcm256::new(&[0x44u8; 32]);
        let nonce = [5u8; 12];
        let mut buf = b"a bitstream that must stay sealed".to_vec();
        let mut tag = g.seal_in_place(&nonce, b"dna", &mut buf);
        let ciphertext = buf.clone();
        tag[0] ^= 0x80;
        assert_eq!(
            g.open_in_place(&nonce, b"dna", &mut buf, &tag),
            Err(CryptoError::AuthenticationFailed)
        );
        assert_eq!(buf, ciphertext, "no byte decrypted behind the error");
        tag[0] ^= 0x80;
        assert_eq!(
            g.open_in_place(&nonce, b"other", &mut buf, &tag),
            Err(CryptoError::AuthenticationFailed)
        );
        assert_eq!(buf, ciphertext);
    }
}
