//! Property-based robustness: every wire-facing parser in the system
//! must handle arbitrary attacker-supplied bytes without panicking —
//! the shell and the network can deliver *anything*.
//!
//! Random bytes almost never get past the sync word, so the bitstream
//! parsers are also driven with structure-aware mutations of real
//! canonical and encrypted streams: header counts, packet types, the
//! sync word, the CRC word, the GCM tag, and truncation.

use std::sync::OnceLock;

use proptest::prelude::*;

use salus::bitstream::disasm::disassemble;
use salus::bitstream::manipulate::rewrite_cells;
use salus::bitstream::placement::PlacementMap;
use salus::core::cl_attest::{AttestRequest, AttestResponse};
use salus::core::dev::{develop_cl, loopback_accelerator, BitstreamMetadata, ClPackage};
use salus::core::ra::RaEnvelope;
use salus::core::reg_channel::SealedRegMsg;
use salus::core::{FaultClass, SalusError};
use salus::fpga::device::Device;
use salus::fpga::geometry::DeviceGeometry;
use salus::fpga::wire::{self, PacketRef};
use salus::fpga::FpgaError;
use salus::tee::local::HandshakeMsg;
use salus::tee::quote::Quote;
use salus::tee::report::Report;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wire_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = wire::parse(&bytes);
        let _ = disassemble(&bytes);
    }

    #[test]
    fn icap_load_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut device = Device::manufacture(DeviceGeometry::tiny(), 1);
        device.program_device_key([7; 32]).unwrap();
        let _ = device.icap_load(&bytes);
        // Garbage must never configure the partition.
        prop_assert!(!device.partition(0).unwrap().is_configured());
    }

    #[test]
    fn message_decoders_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = AttestRequest::from_bytes(&bytes);
        let _ = AttestResponse::from_bytes(&bytes);
        let _ = SealedRegMsg::from_bytes(&bytes);
        let _ = RaEnvelope::from_bytes(&bytes);
        let _ = BitstreamMetadata::from_bytes(&bytes);
        let _ = PlacementMap::from_bytes(&bytes);
        let _ = Quote::from_bytes(&bytes);
        let _ = Report::from_bytes(&bytes);
        let _ = HandshakeMsg::from_bytes(&bytes);
    }

    /// Decoders that accept some input must roundtrip it canonically.
    #[test]
    fn accepted_inputs_reencode_identically(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(msg) = SealedRegMsg::from_bytes(&bytes) {
            prop_assert_eq!(msg.to_bytes(), bytes.clone());
        }
        if let Ok(req) = AttestRequest::from_bytes(&bytes) {
            prop_assert_eq!(req.to_bytes().to_vec(), bytes.clone());
        }
        if let Ok(quote) = Quote::from_bytes(&bytes) {
            prop_assert_eq!(quote.to_bytes(), bytes.clone());
        }
        if let Ok(envelope) = RaEnvelope::from_bytes(&bytes) {
            prop_assert_eq!(envelope.to_bytes(), bytes);
        }
    }
}

/// The device every mutated stream is pushed to: a keyed tiny board.
fn keyed_device() -> Device {
    let mut device = Device::manufacture(DeviceGeometry::tiny(), 1);
    device.program_device_key([7; 32]).unwrap();
    device
}

/// The unmutated inputs: the loopback CL's canonical stream, the same
/// stream sealed to [`keyed_device`], and the frames it commits.
struct Bases {
    package: ClPackage,
    plain: Vec<u8>,
    sealed: Vec<u8>,
    frames: Vec<u8>,
}

fn bases() -> &'static Bases {
    static BASES: OnceLock<Bases> = OnceLock::new();
    BASES.get_or_init(|| {
        let package = develop_cl(
            loopback_accelerator(),
            DeviceGeometry::tiny().partitions[0],
            0,
        )
        .unwrap();
        let plain = package.compiled.wire.clone();
        let mut device = keyed_device();
        let dna = device.dna().read();
        let sealed = wire::build_encrypted_stream(&[7; 32], &[4; 12], dna, &plain);
        device.icap_load(&sealed).unwrap();
        let frames = device.partition(0).unwrap().flatten();
        Bases {
            package,
            plain,
            sealed,
            frames,
        }
    })
}

fn word(stream: &[u8], i: usize) -> u32 {
    u32::from_be_bytes(stream[4 * i..4 * i + 4].try_into().unwrap())
}

fn set_word(stream: &mut [u8], i: usize, w: u32) {
    stream[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
}

/// Word indices of packet headers: every word after the sync word that
/// is not inside a write payload.
fn header_words(stream: &[u8]) -> Vec<usize> {
    let payloads: Vec<(usize, usize)> = wire::parse_ref(stream)
        .unwrap()
        .iter()
        .filter_map(|p| match *p {
            PacketRef::Write {
                offset, payload, ..
            } => Some((offset / 4, (offset + payload.len()) / 4)),
            _ => None,
        })
        .collect();
    let sync = (0..stream.len() / 4)
        .find(|&i| word(stream, i) == wire::SYNC_WORD)
        .unwrap();
    (sync + 1..stream.len() / 4)
        .filter(|&i| !payloads.iter().any(|&(s, e)| (s..e).contains(&i)))
        .collect()
}

/// Applies mutation `kind` to `stream`, steered by `pick` and `value`.
fn mutate(stream: &[u8], kind: u8, pick: u32, value: u32) -> Vec<u8> {
    let mut out = stream.to_vec();
    let headers = header_words(stream);
    let header = headers[pick as usize % headers.len()];
    match kind {
        // Type-1 count field of some header.
        0 => set_word(
            &mut out,
            header,
            (word(stream, header) & !0x7FF) | (value & 0x7FF),
        ),
        // Type-2 count field of the long-write header.
        1 => {
            let t2 = headers
                .iter()
                .copied()
                .find(|&i| word(stream, i) >> 29 == 0b010)
                .unwrap();
            let count = value & 0x07FF_FFFF;
            set_word(&mut out, t2, (word(stream, t2) & !0x07FF_FFFF) | count);
        }
        // One bit of the sync word.
        2 => {
            let sync = headers[0] - 1;
            set_word(&mut out, sync, wire::SYNC_WORD ^ (1 << (value % 32)));
        }
        // The integrity word: the CRC word of a plaintext stream, the
        // GCM tag (the last 16 bytes before DESYNC) of an encrypted one.
        3 => {
            let flip = value | 1;
            let packets = wire::parse_ref(stream).unwrap();
            let crc = packets.iter().find_map(|p| match *p {
                PacketRef::Write {
                    reg: wire::Reg::Crc,
                    offset,
                    ..
                } => Some(offset / 4),
                _ => None,
            });
            match crc {
                Some(i) => set_word(&mut out, i, word(stream, i) ^ flip),
                None => {
                    let tag_end = out.len() - 8;
                    out[tag_end - 16 + (pick as usize % 16)] ^= flip as u8;
                }
            }
        }
        // Truncation at any byte, aligned or not.
        4 => out.truncate(pick as usize % stream.len()),
        // Packet type bits of some header.
        5 => set_word(
            &mut out,
            header,
            (word(stream, header) & 0x1FFF_FFFF) | ((value % 8) << 29),
        ),
        // Any byte of the stream: frame data, ciphertext, framing.
        _ => out[pick as usize % stream.len()] ^= (value as u8) | 1,
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_streams_parse_alike_and_never_load_unverified(
        kind in 0u8..7,
        pick in any::<u32>(),
        value in any::<u32>(),
        encrypted in any::<bool>(),
    ) {
        let b = bases();
        let base = if encrypted { &b.sealed } else { &b.plain };
        let stream = mutate(base, kind, pick, value);

        // One parser, two views: packet for packet, or the same error.
        match (wire::parse(&stream), wire::parse_ref(&stream)) {
            (Ok(owned), Ok(borrowed)) => {
                let viewed: Vec<_> = borrowed.iter().map(PacketRef::to_packet).collect();
                prop_assert_eq!(owned, viewed);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "parse {:?} vs parse_ref {:?}", a.is_ok(), b.is_ok()),
        }

        let mut device = keyed_device();
        let result = device.icap_load(&stream);
        let configured = device.partition(0).unwrap().is_configured();
        if matches!(result, Err(FpgaError::CrcMismatch | FpgaError::DecryptionFailed)) {
            prop_assert!(!configured, "configured from a stream failing its CRC or tag");
        }
        if configured {
            // Whatever loaded passed the CRC (and tag): the frames are
            // the authentic ones.
            prop_assert_eq!(device.partition(0).unwrap().flatten(), b.frames.clone());
        }

        // Manipulation accepts only the exact canonical layout; anything
        // else is a typed, fatal error.
        if !encrypted {
            let loc = &b.package.locations.key_attest;
            match rewrite_cells(&stream, &[(loc, &vec![0x77; loc.capacity])]) {
                Ok(out) => {
                    // A stream still canonical after the mutation (frame
                    // data, CRC word, IDCODE or partition bits) gets a
                    // fresh, valid CRC.
                    let loaded = keyed_device().icap_load(&out);
                    prop_assert!(loaded != Err(FpgaError::CrcMismatch), "rewrite left a bad CRC");
                }
                Err(e) => {
                    prop_assert!(
                        matches!(
                            e,
                            salus::bitstream::BitstreamError::Fpga(FpgaError::MalformedBitstream(_))
                        ),
                        "{e:?}"
                    );
                    prop_assert_eq!(SalusError::from(e).fault_class(), FaultClass::Fatal);
                }
            }
        }
    }
}
