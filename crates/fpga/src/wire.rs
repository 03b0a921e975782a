//! Bitstream wire format: sync word, configuration packets, CRC, and the
//! encrypted envelope.
//!
//! The format is a simplified Xilinx UltraScale stream: dummy padding, a
//! sync word, then type-1/type-2 packets addressing configuration
//! registers (CMD, FAR, FDRI, CRC, ...). Encrypted bitstreams wrap the
//! whole inner plaintext stream in one AES-GCM envelope addressed to the
//! `ENC` register; only the internal configuration engine (which alone
//! can read the fused key) can open it — the property Salus repurposes
//! to keep the RoT confidential from the shell.

use salus_crypto::gcm::{AesGcm256, TAG_SIZE};

use crate::FpgaError;

/// The Xilinx sync word.
pub const SYNC_WORD: u32 = 0xAA99_5566;

/// Dummy padding word.
pub const DUMMY_WORD: u32 = 0xFFFF_FFFF;

/// Configuration registers addressable by type-1 packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
#[allow(missing_docs)]
pub enum Reg {
    Crc = 0x00,
    Far = 0x01,
    Fdri = 0x02,
    Fdro = 0x03,
    Cmd = 0x04,
    Idcode = 0x0C,
    /// Encrypted-payload envelope (Salus: carries the GCM-sealed inner
    /// stream).
    Enc = 0x1A,
}

impl Reg {
    fn from_addr(addr: u16) -> Option<Reg> {
        Some(match addr {
            0x00 => Reg::Crc,
            0x01 => Reg::Far,
            0x02 => Reg::Fdri,
            0x03 => Reg::Fdro,
            0x04 => Reg::Cmd,
            0x0C => Reg::Idcode,
            0x1A => Reg::Enc,
            _ => return None,
        })
    }
}

/// CMD register command codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
#[allow(missing_docs)]
pub enum Cmd {
    Null = 0x0,
    Wcfg = 0x1,
    Rcfg = 0x4,
    Rcrc = 0x7,
    Desync = 0xD,
}

impl Cmd {
    pub(crate) fn from_word(w: u32) -> Option<Cmd> {
        Some(match w {
            0x0 => Cmd::Null,
            0x1 => Cmd::Wcfg,
            0x4 => Cmd::Rcfg,
            0x7 => Cmd::Rcrc,
            0xD => Cmd::Desync,
            _ => return None,
        })
    }
}

/// A parsed configuration packet that owns its payload words.
///
/// This is an owned view of [`PacketRef`]: [`parse`] runs
/// [`parse_ref`] and copies each payload out of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Write `payload` words to `reg`.
    Write {
        /// Target register.
        reg: Reg,
        /// Payload words.
        payload: Vec<u32>,
    },
    /// Request a read of `words` words from `reg` (readback).
    Read {
        /// Source register.
        reg: Reg,
        /// Number of words requested.
        words: usize,
    },
    /// A no-op packet.
    Nop,
}

/// A parsed configuration packet whose payload borrows the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketRef<'a> {
    /// Write `payload` to `reg`.
    Write {
        /// Target register.
        reg: Reg,
        /// Byte offset of `payload` within the parsed stream.
        offset: usize,
        /// The payload's big-endian word bytes (a multiple of 4 long).
        payload: &'a [u8],
    },
    /// Request a read of `words` words from `reg` (readback).
    Read {
        /// Source register.
        reg: Reg,
        /// Number of words requested.
        words: usize,
    },
    /// A no-op packet.
    Nop,
}

impl PacketRef<'_> {
    /// Copies the packet into an owned [`Packet`].
    pub fn to_packet(&self) -> Packet {
        match *self {
            PacketRef::Write { reg, payload, .. } => Packet::Write {
                reg,
                payload: payload
                    .chunks_exact(4)
                    .map(|w| u32::from_be_bytes(w.try_into().expect("word")))
                    .collect(),
            },
            PacketRef::Read { reg, words } => Packet::Read { reg, words },
            PacketRef::Nop => Packet::Nop,
        }
    }
}

/// The first big-endian word of a [`PacketRef::Write`] payload, if any.
pub fn first_word(payload: &[u8]) -> Option<u32> {
    payload
        .get(..4)
        .map(|w| u32::from_be_bytes(w.try_into().expect("word")))
}

const TYPE1: u32 = 0b001 << 29;
const TYPE2: u32 = 0b010 << 29;
const OP_NOP: u32 = 0b00 << 27;
const OP_READ: u32 = 0b01 << 27;
const OP_WRITE: u32 = 0b10 << 27;
const TYPE1_COUNT_MASK: u32 = 0x7FF;
const TYPE2_COUNT_MASK: u32 = 0x07FF_FFFF;

/// Dummy words before the sync word at the start of every stream.
const PREAMBLE_DUMMY_WORDS: usize = 8;

/// Serializes configuration packets straight into a byte stream.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    bytes: Vec<u8>,
}

impl WireWriter {
    /// Starts a stream with dummy padding and the sync word.
    pub fn new() -> WireWriter {
        WireWriter::with_capacity(0)
    }

    /// Like [`new`](WireWriter::new), with room reserved for `capacity`
    /// further bytes, so a stream of known size is written into one
    /// allocation.
    pub fn with_capacity(capacity: usize) -> WireWriter {
        let mut w = WireWriter {
            bytes: Vec::with_capacity((PREAMBLE_DUMMY_WORDS + 1) * 4 + capacity),
        };
        for _ in 0..PREAMBLE_DUMMY_WORDS {
            w.push_word(DUMMY_WORD);
        }
        w.push_word(SYNC_WORD);
        w
    }

    fn push_word(&mut self, word: u32) {
        self.bytes.extend_from_slice(&word.to_be_bytes());
    }

    fn type1_header(op: u32, reg: Reg, count: u32) -> u32 {
        debug_assert!(count <= TYPE1_COUNT_MASK);
        TYPE1 | op | ((reg as u32) << 13) | count
    }

    /// Writes `payload` to `reg` via a type-1 packet (≤ 2047 words).
    pub fn write_reg(&mut self, reg: Reg, payload: &[u32]) -> &mut Self {
        assert!(
            payload.len() as u32 <= TYPE1_COUNT_MASK,
            "type-1 payload too long"
        );
        self.push_word(Self::type1_header(OP_WRITE, reg, payload.len() as u32));
        for &w in payload {
            self.push_word(w);
        }
        self
    }

    /// Writes a command to the CMD register.
    pub fn write_cmd(&mut self, cmd: Cmd) -> &mut Self {
        self.write_reg(Reg::Cmd, &[cmd as u32])
    }

    /// Writes the headers of a long write to `reg`: a type-1 header
    /// followed by a type-2 packet announcing `words` payload words.
    /// The caller appends exactly that many words next, with
    /// [`write_payload`](WireWriter::write_payload).
    pub fn write_long_header(&mut self, reg: Reg, words: usize) -> &mut Self {
        assert!(
            words as u64 <= TYPE2_COUNT_MASK as u64,
            "type-2 payload too long"
        );
        self.push_word(Self::type1_header(OP_WRITE, reg, 0));
        self.push_word(TYPE2 | OP_WRITE | words as u32);
        self
    }

    /// Appends payload bytes, zero-padded to a whole number of words.
    pub fn write_payload(&mut self, payload: &[u8]) -> &mut Self {
        self.bytes.extend_from_slice(payload);
        self.pad_to_word();
        self
    }

    fn pad_to_word(&mut self) {
        let padded = self.bytes.len().next_multiple_of(4);
        self.bytes.resize(padded, 0);
    }

    /// Writes a long payload to `reg`: the
    /// [`write_long_header`](WireWriter::write_long_header) words, then
    /// the payload zero-padded to a whole number of words.
    pub fn write_long_bytes(&mut self, reg: Reg, payload: &[u8]) -> &mut Self {
        self.write_long_header(reg, payload.len().div_ceil(4))
            .write_payload(payload)
    }

    /// Emits a readback request for `words` words of `reg`.
    pub fn read_request(&mut self, reg: Reg, words: usize) -> &mut Self {
        self.push_word(Self::type1_header(OP_READ, reg, 0));
        self.push_word(TYPE2 | OP_READ | words as u32);
        self
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Finishes the stream (desync) and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.write_cmd(Cmd::Desync);
        self.bytes
    }
}

/// Parses a wire stream into packets that borrow their payloads from
/// `bytes`. This is the one packet parser; [`parse`] is an owned view
/// of its output.
///
/// # Errors
///
/// Returns [`FpgaError::MalformedBitstream`] for truncated or
/// unrecognised streams.
pub fn parse_ref(bytes: &[u8]) -> Result<Vec<PacketRef<'_>>, FpgaError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(FpgaError::MalformedBitstream("length not word aligned"));
    }
    let len = bytes.len() / 4;
    let word = |i: usize| u32::from_be_bytes(bytes[4 * i..4 * i + 4].try_into().expect("word"));
    let write = |reg: Reg, start: usize, count: usize| PacketRef::Write {
        reg,
        offset: 4 * start,
        payload: &bytes[4 * start..4 * (start + count)],
    };

    // Skip dummy words, find sync.
    let mut i = 0;
    while i < len && word(i) == DUMMY_WORD {
        i += 1;
    }
    if i >= len || word(i) != SYNC_WORD {
        return Err(FpgaError::MalformedBitstream("missing sync word"));
    }
    i += 1;

    let mut packets = Vec::new();
    while i < len {
        let header = word(i);
        i += 1;
        let ptype = header >> 29;
        let op = header & (0b11 << 27);
        match ptype {
            0b001 => {
                let reg = Reg::from_addr(((header >> 13) & 0x3FFF) as u16)
                    .ok_or(FpgaError::MalformedBitstream("unknown register"))?;
                let count = (header & TYPE1_COUNT_MASK) as usize;
                match op {
                    OP_NOP => packets.push(PacketRef::Nop),
                    OP_WRITE => {
                        if count == 0 {
                            // Followed by a type-2 packet carrying the data.
                            if i >= len {
                                return Err(FpgaError::MalformedBitstream("truncated type-2"));
                            }
                            let t2 = word(i);
                            i += 1;
                            if t2 >> 29 != 0b010 {
                                return Err(FpgaError::MalformedBitstream("expected type-2"));
                            }
                            let t2_op = t2 & (0b11 << 27);
                            let t2_count = (t2 & TYPE2_COUNT_MASK) as usize;
                            if t2_op == OP_READ {
                                packets.push(PacketRef::Read {
                                    reg,
                                    words: t2_count,
                                });
                            } else {
                                if i + t2_count > len {
                                    return Err(FpgaError::MalformedBitstream(
                                        "truncated type-2 payload",
                                    ));
                                }
                                packets.push(write(reg, i, t2_count));
                                i += t2_count;
                            }
                        } else {
                            if i + count > len {
                                return Err(FpgaError::MalformedBitstream(
                                    "truncated type-1 payload",
                                ));
                            }
                            packets.push(write(reg, i, count));
                            i += count;
                        }
                    }
                    OP_READ => {
                        if count == 0 {
                            // Long-form read: a type-2 word carries the count.
                            if i >= len {
                                return Err(FpgaError::MalformedBitstream("truncated type-2 read"));
                            }
                            let t2 = word(i);
                            i += 1;
                            if t2 >> 29 != 0b010 || t2 & (0b11 << 27) != OP_READ {
                                return Err(FpgaError::MalformedBitstream("expected type-2 read"));
                            }
                            packets.push(PacketRef::Read {
                                reg,
                                words: (t2 & TYPE2_COUNT_MASK) as usize,
                            });
                        } else {
                            packets.push(PacketRef::Read { reg, words: count });
                        }
                    }
                    _ => return Err(FpgaError::MalformedBitstream("bad opcode")),
                }
            }
            _ => return Err(FpgaError::MalformedBitstream("unexpected packet type")),
        }
    }
    Ok(packets)
}

/// Parses a wire stream into packets that own their payload words.
///
/// # Errors
///
/// Exactly those of [`parse_ref`], which this wraps.
pub fn parse(bytes: &[u8]) -> Result<Vec<Packet>, FpgaError> {
    Ok(parse_ref(bytes)?.iter().map(PacketRef::to_packet).collect())
}

/// Slice-by-8 tables for the reflected IEEE 802.3 polynomial:
/// `CRC_TABLES[0]` is the classic byte table, and `CRC_TABLES[k][i]`
/// advances `CRC_TABLES[k - 1][i]` by one more zero byte, so eight
/// input bytes fold in with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
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
};

/// CRC-32 (IEEE 802.3, reflected) used for bitstream integrity words.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends `crc`, the CRC-32 of some prefix, over `data`:
/// `crc32_update(crc32(a), b) == crc32(a ‖ b)`, and `crc32_update(0, b)
/// == crc32(b)`. Lets a stream be checked in place, piece by piece,
/// without concatenating the pieces.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Envelope layout constants: `nonce (12 B) || GCM(ciphertext || tag)`.
pub const ENC_NONCE_BYTES: usize = 12;

/// Bytes of envelope header before the ciphertext: the nonce and the
/// big-endian `u64` inner length.
const ENC_HEADER_BYTES: usize = ENC_NONCE_BYTES + 8;

/// Opens the envelope an ENC packet carries (see
/// [`build_encrypted_stream`]). Internal-use by the
/// configuration engine. The ciphertext is copied once and decrypted in
/// place, and only after its tag verifies.
pub(crate) fn open_envelope(
    key: &[u8; 32],
    device_dna: u64,
    envelope: &[u8],
) -> Result<Vec<u8>, FpgaError> {
    if envelope.len() < ENC_HEADER_BYTES + TAG_SIZE {
        return Err(FpgaError::MalformedBitstream("envelope too short"));
    }
    let nonce = &envelope[..ENC_NONCE_BYTES];
    let inner_len = u64::from_be_bytes(
        envelope[ENC_NONCE_BYTES..ENC_HEADER_BYTES]
            .try_into()
            .expect("8"),
    ) as usize;
    let (ciphertext, tag) =
        envelope[ENC_HEADER_BYTES..].split_at(envelope.len() - ENC_HEADER_BYTES - TAG_SIZE);
    let mut plain = ciphertext.to_vec();
    AesGcm256::new(key)
        .open_in_place(
            nonce,
            &device_dna.to_le_bytes(),
            &mut plain,
            tag.try_into().expect("tag"),
        )
        .map_err(|_| FpgaError::DecryptionFailed)?;
    if plain.len() < inner_len {
        return Err(FpgaError::MalformedBitstream("envelope length header"));
    }
    plain.truncate(inner_len);
    Ok(plain)
}

/// Builds an encrypted wire stream that carries `inner_plain` (itself a
/// complete plaintext wire stream) inside one ENC envelope.
pub fn build_encrypted_stream(
    key: &[u8; 32],
    nonce: &[u8; ENC_NONCE_BYTES],
    device_dna: u64,
    inner_plain: &[u8],
) -> Vec<u8> {
    build_encrypted_stream_with(&AesGcm256::new(key), nonce, device_dna, inner_plain)
}

/// Like [`build_encrypted_stream`] but reusing an already-initialised
/// GCM context. Key setup (AES schedule + GHASH tables) is constant
/// work per stream; callers sealing many partitions under one
/// `Key_device` should construct the context once.
///
/// The envelope is `nonce ‖ inner length (u64 BE) ‖ ciphertext ‖ tag`,
/// with the device DNA as AAD so it cannot be re-targeted. It is
/// written straight into the stream, the plaintext copied once to its
/// final place and sealed there.
pub fn build_encrypted_stream_with(
    cipher: &AesGcm256,
    nonce: &[u8; ENC_NONCE_BYTES],
    device_dna: u64,
    inner_plain: &[u8],
) -> Vec<u8> {
    let envelope_len = ENC_HEADER_BYTES + inner_plain.len() + TAG_SIZE;
    // The envelope is padded to a word multiple inside the type-2
    // payload; the length header inside it recovers the exact size.
    let mut writer = WireWriter::with_capacity(envelope_len + 6 * 4);
    writer.write_long_header(Reg::Enc, envelope_len.div_ceil(4));
    writer.bytes.extend_from_slice(nonce);
    writer
        .bytes
        .extend_from_slice(&(inner_plain.len() as u64).to_be_bytes());
    let body = writer.bytes.len();
    writer.bytes.extend_from_slice(inner_plain);
    let tag = cipher.seal_in_place(nonce, &device_dna.to_le_bytes(), &mut writer.bytes[body..]);
    writer.bytes.extend_from_slice(&tag);
    writer.pad_to_word();
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_parser_roundtrip() {
        let mut w = WireWriter::new();
        w.write_cmd(Cmd::Rcrc)
            .write_reg(Reg::Idcode, &[0x0BAD_C0DE])
            .write_reg(Reg::Far, &[0x0100_0000])
            .write_cmd(Cmd::Wcfg)
            .write_long_bytes(Reg::Fdri, &[0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3]);
        let bytes = w.finish();
        let packets = parse(&bytes).unwrap();
        assert_eq!(
            packets,
            vec![
                Packet::Write {
                    reg: Reg::Cmd,
                    payload: vec![Cmd::Rcrc as u32]
                },
                Packet::Write {
                    reg: Reg::Idcode,
                    payload: vec![0x0BAD_C0DE]
                },
                Packet::Write {
                    reg: Reg::Far,
                    payload: vec![0x0100_0000]
                },
                Packet::Write {
                    reg: Reg::Cmd,
                    payload: vec![Cmd::Wcfg as u32]
                },
                Packet::Write {
                    reg: Reg::Fdri,
                    payload: vec![1, 2, 3]
                },
                Packet::Write {
                    reg: Reg::Cmd,
                    payload: vec![Cmd::Desync as u32]
                },
            ]
        );
    }

    #[test]
    fn read_request_roundtrip() {
        let mut w = WireWriter::new();
        w.write_cmd(Cmd::Rcfg).read_request(Reg::Fdro, 100);
        let packets = parse(&w.finish()).unwrap();
        assert!(packets.contains(&Packet::Read {
            reg: Reg::Fdro,
            words: 100
        }));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(b"xyz").is_err()); // unaligned
        assert!(parse(&[0u8; 16]).is_err()); // no sync
        let mut w = WireWriter::new();
        w.write_reg(Reg::Far, &[1]);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 6); // truncate + unalign
        assert!(parse(&bytes).is_err());
    }

    #[test]
    fn crc32_known_value() {
        // CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The ENC payload of an encrypted stream: the envelope.
    fn envelope_of(stream: &[u8]) -> &[u8] {
        match parse_ref(stream).unwrap()[0] {
            PacketRef::Write {
                reg: Reg::Enc,
                payload,
                ..
            } => payload,
            other => panic!("expected an ENC write, got {other:?}"),
        }
    }

    #[test]
    fn envelope_roundtrip_and_binding() {
        let key = [9u8; 32];
        let nonce = [1u8; 12];
        let plain = b"inner stream words!!".to_vec();
        let stream = build_encrypted_stream(&key, &nonce, 0xABCD, &plain);
        let env = envelope_of(&stream);
        assert_eq!(&env[..ENC_NONCE_BYTES], &nonce);
        assert_eq!(open_envelope(&key, 0xABCD, env).unwrap(), plain);
        // Wrong device: AAD mismatch.
        assert_eq!(
            open_envelope(&key, 0xABCE, env),
            Err(FpgaError::DecryptionFailed)
        );
        // Wrong key.
        assert_eq!(
            open_envelope(&[8u8; 32], 0xABCD, env),
            Err(FpgaError::DecryptionFailed)
        );
        // Tampered tag.
        let mut bad = env.to_vec();
        let n = bad.len();
        bad[n - 1] ^= 1;
        assert_eq!(
            open_envelope(&key, 0xABCD, &bad),
            Err(FpgaError::DecryptionFailed)
        );
        assert_eq!(
            open_envelope(&key, 0xABCD, &env[..ENC_HEADER_BYTES + TAG_SIZE - 1]),
            Err(FpgaError::MalformedBitstream("envelope too short"))
        );
    }

    #[test]
    fn encrypted_stream_parses_to_enc_packet() {
        let key = [7u8; 32];
        let stream = build_encrypted_stream(&key, &[0u8; 12], 1, b"abcd");
        let packets = parse(&stream).unwrap();
        assert!(matches!(&packets[0], Packet::Write { reg: Reg::Enc, .. }));
    }

    #[test]
    fn long_bytes_are_padded_and_borrowed_in_place() {
        let mut w = WireWriter::new();
        w.write_long_bytes(Reg::Fdri, &[1, 2, 3, 4, 5]);
        let stream = w.finish();
        let packets = parse_ref(&stream).unwrap();
        let PacketRef::Write {
            reg: Reg::Fdri,
            offset,
            payload,
        } = packets[0]
        else {
            panic!("expected an FDRI write, got {:?}", packets[0]);
        };
        assert_eq!(payload, &[1, 2, 3, 4, 5, 0, 0, 0]);
        assert_eq!(&stream[offset..offset + payload.len()], payload);
        assert_eq!(
            parse(&stream).unwrap()[0],
            Packet::Write {
                reg: Reg::Fdri,
                payload: vec![0x0102_0304, 0x0500_0000]
            }
        );
        assert_eq!(first_word(payload), Some(0x0102_0304));
        assert_eq!(first_word(&[]), None);
    }

    #[test]
    fn parse_is_the_owned_view_of_parse_ref() {
        let mut w = WireWriter::new();
        w.write_cmd(Cmd::Rcrc)
            .write_reg(Reg::Far, &[7 << 24])
            .write_long_bytes(Reg::Fdri, &[9; 160])
            .read_request(Reg::Fdro, 3);
        let stream = w.finish();
        let owned: Vec<Packet> = parse_ref(&stream)
            .unwrap()
            .iter()
            .map(PacketRef::to_packet)
            .collect();
        assert_eq!(parse(&stream).unwrap(), owned);
    }

    /// The seed's byte-at-a-time CRC-32: the differential reference
    /// for the slice-by-8 tables.
    fn crc32_reference(data: &[u8]) -> u32 {
        let table = &CRC_TABLES[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn byte_table_matches_bitwise_polynomial() {
        for (i, &entry) in CRC_TABLES[0].iter().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            assert_eq!(entry, crc, "entry {i}");
        }
    }

    #[test]
    fn sliced_crc_matches_bytewise_reference() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 73 + 5) as u8).collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "len={len}"
            );
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..3 {
            let len = (1 << 20) + round * 3;
            let buf: Vec<u8> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            let expected = crc32_reference(&buf);
            assert_eq!(crc32(&buf), expected, "1 MiB buffer {round}");
            // Split feeding at aligned, ragged and degenerate cut points.
            for cut in [0, 1, 7, 8, 4096 + 3, len / 2, len - 1, len] {
                let split = crc32_update(crc32(&buf[..cut]), &buf[cut..]);
                assert_eq!(split, expected, "cut={cut}");
            }
            let pieces = buf.chunks(1000 + round).fold(0, crc32_update);
            assert_eq!(pieces, expected);
        }
    }
}
