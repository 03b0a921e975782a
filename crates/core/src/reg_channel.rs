//! The secure register channel (§4.5).
//!
//! Register transactions between the SM enclave and the SM logic are
//! protected by `Key_session` + `Ctr_session`, both injected alongside
//! `Key_attest` during bitstream manipulation. Each transaction is
//! AES-CTR-encrypted and HMAC-authenticated with the monotonically
//! increasing counter bound in — so shell-level confidentiality,
//! integrity *and replay* attacks on PCIe all fail closed. The SM logic
//! "transparently decrypts, verifies, and forwards the register
//! transaction to the accelerator."

use salus_crypto::aes::Aes256;
use salus_crypto::ctr::AesCtr256;
use salus_crypto::hmac::HmacSha256;

use crate::keys::KeySession;
use crate::SalusError;

/// A register operation as seen by the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOp {
    /// Write `value` to register `addr`.
    Write {
        /// Register address.
        addr: u32,
        /// Value to write.
        value: u64,
    },
    /// Read register `addr`.
    Read {
        /// Register address.
        addr: u32,
    },
}

impl RegisterOp {
    fn to_bytes(self) -> [u8; 13] {
        let mut out = [0u8; 13];
        match self {
            RegisterOp::Write { addr, value } => {
                out[0] = 1;
                out[1..5].copy_from_slice(&addr.to_le_bytes());
                out[5..].copy_from_slice(&value.to_le_bytes());
            }
            RegisterOp::Read { addr } => {
                out[0] = 2;
                out[1..5].copy_from_slice(&addr.to_le_bytes());
            }
        }
        out
    }

    fn from_bytes(bytes: &[u8]) -> Result<RegisterOp, SalusError> {
        if bytes.len() != 13 {
            return Err(SalusError::Malformed("register op"));
        }
        let addr = u32::from_le_bytes(bytes[1..5].try_into().expect("4"));
        match bytes[0] {
            1 => Ok(RegisterOp::Write {
                addr,
                value: u64::from_le_bytes(bytes[5..].try_into().expect("8")),
            }),
            2 => Ok(RegisterOp::Read { addr }),
            _ => Err(SalusError::Malformed("register op tag")),
        }
    }
}

/// One protected message (either direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedRegMsg {
    /// The counter value this message was sealed at.
    pub ctr: u64,
    /// AES-CTR ciphertext of the payload.
    pub ciphertext: Vec<u8>,
    /// Truncated HMAC-SHA256 over `(direction, ctr, ciphertext)`.
    pub mac: [u8; 16],
}

impl SealedRegMsg {
    /// Canonical byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 + self.ciphertext.len() + 16);
        out.extend_from_slice(&self.ctr.to_le_bytes());
        out.extend_from_slice(&(self.ciphertext.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.ciphertext);
        out.extend_from_slice(&self.mac);
        out
    }

    /// Decodes [`to_bytes`](SealedRegMsg::to_bytes) output.
    ///
    /// # Errors
    ///
    /// [`SalusError::Malformed`] on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<SealedRegMsg, SalusError> {
        if bytes.len() < 12 + 16 {
            return Err(SalusError::Malformed("sealed reg msg"));
        }
        let ctr = u64::from_le_bytes(bytes[..8].try_into().expect("8"));
        let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4")) as usize;
        if bytes.len() != 12 + len + 16 {
            return Err(SalusError::Malformed("sealed reg msg length"));
        }
        Ok(SealedRegMsg {
            ctr,
            ciphertext: bytes[12..12 + len].to_vec(),
            mac: bytes[12 + len..].try_into().expect("16"),
        })
    }
}

/// Direction of a message, bound into nonce and MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    HostToLogic,
    LogicToHost,
}

/// `Key_session` expanded once per endpoint: the AES-256 schedule for
/// the payload keystream and a keyed HMAC context for the tag. Every
/// message clones these instead of re-deriving them, so a seal or open
/// costs one keystream block and two HMAC compressions rather than a
/// fresh key expansion plus four compressions.
struct ChannelKeys {
    cipher: Aes256,
    mac: HmacSha256,
}

impl std::fmt::Debug for ChannelKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChannelKeys(<redacted>)")
    }
}

impl ChannelKeys {
    fn new(key: &KeySession) -> ChannelKeys {
        ChannelKeys {
            cipher: Aes256::new(key.as_bytes()),
            mac: HmacSha256::new(key.as_bytes()),
        }
    }

    fn seal(&self, dir: Direction, ctr: u64, payload: &[u8]) -> SealedRegMsg {
        let mut ciphertext = payload.to_vec();
        self.apply_keystream(dir, ctr, &mut ciphertext);
        let mac = self.compute_mac(dir, ctr, &ciphertext);
        SealedRegMsg {
            ctr,
            ciphertext,
            mac,
        }
    }

    fn open(
        &self,
        dir: Direction,
        expected_ctr: u64,
        msg: &SealedRegMsg,
    ) -> Result<Vec<u8>, SalusError> {
        if msg.ctr != expected_ctr {
            return Err(SalusError::RegisterChannelViolation("counter mismatch"));
        }
        let mac = self.compute_mac(dir, msg.ctr, &msg.ciphertext);
        if !salus_crypto::ct::eq(&mac, &msg.mac) {
            return Err(SalusError::RegisterChannelViolation("MAC mismatch"));
        }
        let mut plaintext = msg.ciphertext.clone();
        self.apply_keystream(dir, msg.ctr, &mut plaintext);
        Ok(plaintext)
    }

    fn apply_keystream(&self, dir: Direction, ctr: u64, data: &mut [u8]) {
        let mut nonce = [0u8; 16];
        nonce[0] = dir as u8 + 1;
        nonce[8..].copy_from_slice(&ctr.to_le_bytes());
        AesCtr256::from_cipher(self.cipher.clone(), &nonce).apply_keystream(data);
    }

    fn compute_mac(&self, dir: Direction, ctr: u64, ciphertext: &[u8]) -> [u8; 16] {
        let mut mac = self.mac.clone();
        mac.update(&[dir as u8 + 1]);
        mac.update(&ctr.to_le_bytes());
        mac.update(ciphertext);
        mac.finalize()[..16].try_into().expect("16")
    }
}

/// The host (SM enclave) endpoint of the channel.
#[derive(Debug)]
pub struct HostRegChannel {
    keys: ChannelKeys,
    ctr: u64,
}

impl HostRegChannel {
    /// Creates the host endpoint from the injected secrets.
    pub fn new(key: KeySession, ctr_seed: u64) -> HostRegChannel {
        HostRegChannel {
            keys: ChannelKeys::new(&key),
            ctr: ctr_seed,
        }
    }

    /// Seals the next register operation.
    pub fn seal_op(&mut self, op: RegisterOp) -> SealedRegMsg {
        let msg = self
            .keys
            .seal(Direction::HostToLogic, self.ctr, &op.to_bytes());
        self.ctr = self.ctr.wrapping_add(1);
        msg
    }

    /// Opens the logic's response to the operation just sent
    /// (the response echoes the request counter).
    ///
    /// # Errors
    ///
    /// [`SalusError::RegisterChannelViolation`] on tampering or replay.
    pub fn open_response(&self, msg: &SealedRegMsg) -> Result<u64, SalusError> {
        let plain = self
            .keys
            .open(Direction::LogicToHost, self.ctr.wrapping_sub(1), msg)?;
        if plain.len() != 8 {
            return Err(SalusError::Malformed("register response"));
        }
        Ok(u64::from_le_bytes(plain.try_into().expect("8")))
    }
}

/// The SM-logic endpoint of the channel.
#[derive(Debug)]
pub struct LogicRegChannel {
    keys: ChannelKeys,
    expected_ctr: u64,
}

impl LogicRegChannel {
    /// Creates the logic endpoint from the BRAM-loaded secrets.
    pub fn new(key: KeySession, ctr_seed: u64) -> LogicRegChannel {
        LogicRegChannel {
            keys: ChannelKeys::new(&key),
            expected_ctr: ctr_seed,
        }
    }

    /// Verifies and decrypts the next host operation.
    ///
    /// # Errors
    ///
    /// [`SalusError::RegisterChannelViolation`] on tampering or replay.
    pub fn open_op(&mut self, msg: &SealedRegMsg) -> Result<RegisterOp, SalusError> {
        let plain = self
            .keys
            .open(Direction::HostToLogic, self.expected_ctr, msg)?;
        let op = RegisterOp::from_bytes(&plain)?;
        self.expected_ctr = self.expected_ctr.wrapping_add(1);
        Ok(op)
    }

    /// Seals the response value for the operation just opened.
    pub fn seal_response(&self, value: u64) -> SealedRegMsg {
        self.keys.seal(
            Direction::LogicToHost,
            self.expected_ctr.wrapping_sub(1),
            &value.to_le_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (HostRegChannel, LogicRegChannel) {
        let key = KeySession::from_bytes([0x33; 32]);
        (
            HostRegChannel::new(key, 1000),
            LogicRegChannel::new(key, 1000),
        )
    }

    #[test]
    fn write_read_roundtrip() {
        let (mut host, mut logic) = pair();
        let sealed = host.seal_op(RegisterOp::Write { addr: 4, value: 99 });
        let op = logic.open_op(&sealed).unwrap();
        assert_eq!(op, RegisterOp::Write { addr: 4, value: 99 });
        let rsp = logic.seal_response(0);
        assert_eq!(host.open_response(&rsp).unwrap(), 0);

        let sealed = host.seal_op(RegisterOp::Read { addr: 4 });
        assert_eq!(
            logic.open_op(&sealed).unwrap(),
            RegisterOp::Read { addr: 4 }
        );
        let rsp = logic.seal_response(99);
        assert_eq!(host.open_response(&rsp).unwrap(), 99);
    }

    #[test]
    fn replay_rejected() {
        let (mut host, mut logic) = pair();
        let sealed = host.seal_op(RegisterOp::Read { addr: 1 });
        logic.open_op(&sealed).unwrap();
        assert!(matches!(
            logic.open_op(&sealed),
            Err(SalusError::RegisterChannelViolation("counter mismatch"))
        ));
    }

    #[test]
    fn tampering_rejected() {
        let (mut host, mut logic) = pair();
        let mut sealed = host.seal_op(RegisterOp::Write { addr: 1, value: 2 });
        sealed.ciphertext[0] ^= 1;
        assert!(matches!(
            logic.open_op(&sealed),
            Err(SalusError::RegisterChannelViolation("MAC mismatch"))
        ));
    }

    #[test]
    fn ctr_forgery_rejected() {
        let (mut host, mut logic) = pair();
        let mut sealed = host.seal_op(RegisterOp::Write { addr: 1, value: 2 });
        sealed.ctr += 1; // attacker advances the counter field
        assert!(logic.open_op(&sealed).is_err());
    }

    #[test]
    fn mismatched_seeds_fail() {
        let key = KeySession::from_bytes([0x33; 32]);
        let mut host = HostRegChannel::new(key, 5);
        let mut logic = LogicRegChannel::new(key, 6);
        let sealed = host.seal_op(RegisterOp::Read { addr: 1 });
        assert!(logic.open_op(&sealed).is_err());
    }

    #[test]
    fn reflected_message_rejected() {
        // A host→logic message replayed back to the host as a response
        // must fail: directions are domain-separated.
        let (mut host, _logic) = pair();
        let sealed = host.seal_op(RegisterOp::Read { addr: 1 });
        assert!(host.open_response(&sealed).is_err());
    }

    #[test]
    fn confidentiality_of_payload() {
        let (mut host, _) = pair();
        let value: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let sealed = host.seal_op(RegisterOp::Write { addr: 1, value });
        let bytes = sealed.to_bytes();
        assert!(
            !bytes.windows(8).any(|w| w == value.to_le_bytes()),
            "plaintext value must not appear on the bus"
        );
    }

    /// Wire bytes for a fixed session, pinned from the implementation
    /// that re-expanded `Key_session` on every message. One write and
    /// one read, each with its response.
    #[test]
    fn golden_wire_bytes() {
        let key = KeySession::from_bytes(core::array::from_fn(|i| (i as u8).wrapping_mul(37)));
        let seed = 0x1122_3344_5566_7788;
        let mut host = HostRegChannel::new(key, seed);
        let mut logic = LogicRegChannel::new(key, seed);
        let value = 0x0123_4567_89ab_cdef;
        let hex = |m: &SealedRegMsg| salus_crypto::sha256::to_hex(&m.to_bytes());

        let write = host.seal_op(RegisterOp::Write { addr: 0x10, value });
        assert_eq!(
            hex(&write),
            "88776655443322110d0000004a27fec477d67f598b90500313547bf9b972a0edb8a804d1c6ffc4f523"
        );
        logic.open_op(&write).unwrap();
        let write_rsp = logic.seal_response(0);
        assert_eq!(
            hex(&write_rsp),
            "88776655443322110800000052d2023031356e5bdf902ab0b8c1fdb32fbbfbf5041c921e"
        );
        assert_eq!(host.open_response(&write_rsp).unwrap(), 0);

        let read = host.seal_op(RegisterOp::Read { addr: 0x10 });
        assert_eq!(
            hex(&read),
            "89776655443322110d000000ad8ec495576307dfab3b9829e5d5a43899b72bd348ca4d851c8490de0f"
        );
        logic.open_op(&read).unwrap();
        let read_rsp = logic.seal_response(value);
        assert_eq!(
            hex(&read_rsp),
            "897766554433221108000000853f29a78dd142ac0df01582670495b7447e0ce9bc09ad0d"
        );
        assert_eq!(host.open_response(&read_rsp).unwrap(), value);
    }

    #[test]
    fn debug_output_carries_no_key_bytes() {
        let raw: [u8; 32] = core::array::from_fn(|i| 0xC0 + i as u8);
        let key = KeySession::from_bytes(raw);
        let host = HostRegChannel::new(key, 7);
        let logic = LogicRegChannel::new(key, 7);
        for shown in [
            format!("{host:?} {host:#?}"),
            format!("{logic:?} {logic:#?}"),
        ] {
            assert!(shown.contains("<redacted>"), "{shown}");
            assert!(
                !shown.contains(&salus_crypto::sha256::to_hex(&raw)),
                "{shown}"
            );
            assert!(!shown.contains(&format!("{:?}", &raw[..8])), "{shown}");
        }
    }

    #[test]
    fn byte_roundtrip() {
        let (mut host, _) = pair();
        let sealed = host.seal_op(RegisterOp::Read { addr: 7 });
        assert_eq!(
            SealedRegMsg::from_bytes(&sealed.to_bytes()).unwrap(),
            sealed
        );
        assert!(SealedRegMsg::from_bytes(&[0; 4]).is_err());
    }
}
