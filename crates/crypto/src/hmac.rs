//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//!
//! HMAC backs the SM logic's "HMAC engine" (Figure 5) protecting the
//! secure register channel, and HKDF is the key-derivation function used
//! by the TEE model for `EGETKEY`-style report-key derivation.
//!
//! ```
//! use salus_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//! ```

use crate::sha256::{Digest, Sha256, DIGEST_SIZE};

/// Computes HMAC-SHA256 of `message` under `key` (any key length).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA256.
///
/// Keying absorbs `K ⊕ ipad` into the inner hash and `K ⊕ opad` into
/// the outer one, so a context holds both midstates. Cloning a keyed
/// context therefore skips both pad compressions: callers that MAC many
/// messages under one key (Merkle leaves, the register channel, HKDF
/// blocks) key once and clone per message, paying only for the message
/// blocks plus one outer compression.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key`.
    pub fn new(key: &[u8]) -> HmacSha256 {
        let mut block_key = [0u8; 64];
        if key.len() > 64 {
            block_key[..DIGEST_SIZE].copy_from_slice(&Sha256::digest(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..64 {
            ipad[i] ^= block_key[i];
            opad[i] ^= block_key[i];
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Finishes and verifies the tag against `expected` in constant time.
    pub fn verify(self, expected: &[u8]) -> bool {
        crate::ct::eq(&self.finalize(), expected)
    }
}

/// HKDF-Extract (RFC 5869 §2.2).
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> Digest {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand (RFC 5869 §2.3).
///
/// # Panics
///
/// Panics if `len > 255 * 32`, the RFC limit.
pub fn hkdf_expand(prk: &Digest, info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_SIZE, "hkdf output too long");
    let keyed = HmacSha256::new(prk);
    let mut output = Vec::with_capacity(len);
    let mut previous: Option<Digest> = None;
    let mut counter = 1u8;
    while output.len() < len {
        let mut mac = keyed.clone();
        if let Some(prev) = &previous {
            mac.update(prev);
        }
        mac.update(info);
        mac.update(&[counter]);
        let block = mac.finalize();
        let take = (len - output.len()).min(DIGEST_SIZE);
        output.extend_from_slice(&block[..take]);
        previous = Some(block);
        counter += 1;
    }
    output
}

/// One-shot HKDF (extract-then-expand).
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 6: key longer than block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let okm = hkdf(&salt, &ikm, &info, 42);
        assert_eq!(
            to_hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 test case 2: 82 output bytes span three expand blocks,
    // so every block after the first runs on a clone of the keyed PRK
    // context.
    #[test]
    fn rfc5869_case2_multi_block() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let okm = hkdf(&salt, &ikm, &info, 82);
        assert_eq!(
            to_hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    /// Textbook HMAC over concatenated buffers, `SHA256((K ⊕ opad) ‖
    /// SHA256((K ⊕ ipad) ‖ m))` — no midstates, no incremental state.
    /// The differential reference for [`HmacSha256`].
    fn naive_hmac(key: &[u8], message: &[u8]) -> Digest {
        let mut k = if key.len() > 64 {
            Sha256::digest(key).to_vec()
        } else {
            key.to_vec()
        };
        k.resize(64, 0);
        let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        let inner = Sha256::digest(&[ipad, message.to_vec()].concat());
        Sha256::digest(&[opad, inner.to_vec()].concat())
    }

    #[test]
    fn keyed_state_matches_naive_reference() {
        // Message lengths straddle the inner hash's padding edges once
        // the 64-byte ipad block is absorbed (55/56 spill the length
        // field, 64 fills a block), plus multi-block messages.
        let lengths = [
            0usize, 1, 31, 32, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 300,
        ];
        for key_len in [0usize, 32, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 13 + 5) as u8).collect();
            let keyed = HmacSha256::new(&key);
            for &len in &lengths {
                let message: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
                let expect = naive_hmac(&key, &message);
                assert_eq!(
                    hmac_sha256(&key, &message),
                    expect,
                    "one-shot k={key_len} m={len}"
                );
                let mut mac = keyed.clone();
                mac.update(&message);
                assert_eq!(mac.finalize(), expect, "cloned k={key_len} m={len}");
                // Split feeding across the block boundary.
                let mut mac = keyed.clone();
                let (a, b) = message.split_at(len / 3);
                mac.update(a);
                mac.update(b);
                assert_eq!(mac.finalize(), expect, "split k={key_len} m={len}");
            }
        }
    }

    #[test]
    fn verify_rejects_wrong_tag() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"m");
        assert!(!mac.clone().verify(&[0u8; 32]));
        let good = mac.clone().finalize();
        assert!(mac.verify(&good));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"key", b"hello world"));
    }
}
