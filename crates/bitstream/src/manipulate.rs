//! Bitstream-level manipulation (the RapidWright/byteman stand-in).
//!
//! "Bitstream manipulation takes a readily available FPGA bitstream and
//! the hierarchical location of a specific cell in the generated netlist
//! as inputs, and updates with a user-defined initialization value
//! without the need to modify the RTL code" (§2.3). [`rewrite_cell`]
//! does exactly that: it patches the cell's bytes inside the FDRI
//! payload and fixes the CRC — no netlist, no placement, no routing.
//! This is the operation Salus repurposes to inject `Key_attest`,
//! `Key_session` and `Ctr_session` inside the SM enclave at deployment
//! time.

use std::ops::Range;

use salus_fpga::wire::{self, PacketRef, Reg};
use salus_fpga::FpgaError;

use crate::compile::{canonical_crc, canonical_head};
use crate::placement::CellLocation;
use crate::BitstreamError;

/// Rewrites the contents of one placed BRAM cell directly in a plaintext
/// wire stream, returning the updated stream (with a recomputed CRC).
///
/// # Errors
///
/// * [`BitstreamError::ManipulationTooLarge`] if `new_contents` exceeds
///   the cell's reserved capacity,
/// * [`BitstreamError::Fpga`] if the stream cannot be parsed or is not
///   exactly the canonical stream [`compile`](crate::compile::compile)
///   emits.
pub fn rewrite_cell(
    wire_stream: &[u8],
    location: &CellLocation,
    new_contents: &[u8],
) -> Result<Vec<u8>, BitstreamError> {
    rewrite_cells(wire_stream, &[(location, new_contents)])
}

/// Rewrites several cells in one pass: the stream is copied once, each
/// cell is patched inside the copy's FDRI payload, and only the CRC
/// word is rewritten.
///
/// # Errors
///
/// Same conditions as [`rewrite_cell`], checked per cell.
pub fn rewrite_cells(
    wire_stream: &[u8],
    updates: &[(&CellLocation, &[u8])],
) -> Result<Vec<u8>, BitstreamError> {
    for (location, new_contents) in updates {
        if new_contents.len() > location.capacity {
            return Err(BitstreamError::ManipulationTooLarge {
                available: location.capacity,
                requested: new_contents.len(),
            });
        }
    }
    let canonical = locate(wire_stream)?;
    let mut out = wire_stream.to_vec();
    let payload = &mut out[canonical.payload.clone()];
    for (location, new_contents) in updates {
        let cell = cell_range(payload.len(), location)?;
        // Zero the full reserved capacity, then write the new contents —
        // stale secret bytes must not survive a shorter rewrite.
        payload[cell.clone()].fill(0);
        payload[cell.start..cell.start + new_contents.len()].copy_from_slice(new_contents);
    }
    let crc = canonical_crc(canonical.partition, payload);
    out[canonical.crc_word..canonical.crc_word + 4].copy_from_slice(&crc.to_be_bytes());
    Ok(out)
}

/// Reads a placed cell's bytes out of a plaintext wire stream (the
/// inspection direction of the manipulation tool).
///
/// # Errors
///
/// [`BitstreamError::Fpga`] for malformed or non-canonical streams and
/// out-of-range locations.
pub fn read_cell(wire_stream: &[u8], location: &CellLocation) -> Result<Vec<u8>, BitstreamError> {
    let canonical = locate(wire_stream)?;
    let payload = &wire_stream[canonical.payload];
    Ok(payload[cell_range(payload.len(), location)?].to_vec())
}

/// Where the FDRI payload and the CRC word of a canonical stream sit.
#[derive(Debug)]
struct Canonical {
    /// Partition index from the FAR word.
    partition: u32,
    /// Byte range of the FDRI payload.
    payload: Range<usize>,
    /// Byte offset of the CRC word.
    crc_word: usize,
}

/// Locates the payload and CRC word of a stream laid out exactly as
/// [`compile`](crate::compile::compile) emits it. Manipulation patches
/// bytes in place, so every framing byte outside the payload and CRC
/// word must be canonical: the stream's framing is re-encoded and
/// compared byte for byte. Manipulation never rewrites the framing
/// (family code, partition) a stream was compiled for.
fn locate(wire_stream: &[u8]) -> Result<Canonical, BitstreamError> {
    let not_canonical =
        || BitstreamError::Fpga(FpgaError::MalformedBitstream("not a canonical stream"));
    let packets = wire::parse_ref(wire_stream)?;
    let [PacketRef::Write {
        reg: Reg::Idcode,
        payload: idcode,
        ..
    }, _, PacketRef::Write {
        reg: Reg::Far,
        payload: far,
        ..
    }, _, PacketRef::Write {
        reg: Reg::Fdri,
        offset,
        payload,
    }, PacketRef::Write {
        reg: Reg::Crc,
        offset: crc_word,
        payload: crc,
    }, _] = packets[..]
    else {
        return Err(not_canonical());
    };
    let (Some(family_code), Some(far), Some(crc)) = (
        wire::first_word(idcode),
        wire::first_word(far),
        wire::first_word(crc),
    ) else {
        return Err(not_canonical());
    };
    let partition = far >> 24;
    let mut framing = canonical_head(partition, family_code, payload.len(), 0);
    let head_len = framing.as_bytes().len();
    framing.write_reg(Reg::Crc, &[crc]);
    let framing = framing.finish();
    let end = offset + payload.len();
    if wire_stream[..offset] != framing[..head_len] || wire_stream[end..] != framing[head_len..] {
        return Err(not_canonical());
    }
    Ok(Canonical {
        partition,
        payload: offset..end,
        crc_word,
    })
}

/// The byte range of `location`'s reserved capacity inside a payload of
/// `payload_len` bytes.
fn cell_range(payload_len: usize, location: &CellLocation) -> Result<Range<usize>, BitstreamError> {
    location
        .byte_offset
        .checked_add(location.capacity)
        .filter(|&end| end <= payload_len)
        .map(|end| location.byte_offset..end)
        .ok_or(BitstreamError::Fpga(FpgaError::MalformedBitstream(
            "cell location outside payload",
        )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::netlist::{BramCell, Module, Netlist};
    use salus_fpga::device::Device;
    use salus_fpga::geometry::DeviceGeometry;

    fn compiled() -> crate::compile::CompiledBitstream {
        let mut n = Netlist::new("manip");
        n.add_module(
            Module::new("top/sm", "sm_logic")
                .with_bram(BramCell::zeroed("key_attest", 32))
                .with_bram(BramCell::zeroed("key_session", 32)),
        );
        compile(&n, DeviceGeometry::tiny().partitions[0], 0).unwrap()
    }

    #[test]
    fn rewrite_then_load_exposes_new_contents() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let secret = [0xEE; 32];
        let manipulated = rewrite_cell(&c.wire, loc, &secret).unwrap();

        let mut device = Device::manufacture(DeviceGeometry::tiny(), 1);
        device.icap_load(&manipulated).unwrap();
        let config = device.partition(0).unwrap();
        let image = crate::image::LogicImage::decode(config).unwrap();
        assert_eq!(
            image.read_bram(config, "top/sm/key_attest").unwrap(),
            secret
        );
        // The sibling cell is untouched.
        assert_eq!(
            image.read_bram(config, "top/sm/key_session").unwrap(),
            vec![0u8; 32]
        );
    }

    #[test]
    fn rewrite_preserves_crc_validity() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let manipulated = rewrite_cell(&c.wire, loc, &[1; 32]).unwrap();
        // A device accepts the manipulated stream: CRC was recomputed.
        let mut device = Device::manufacture(DeviceGeometry::tiny(), 1);
        device.icap_load(&manipulated).unwrap();
    }

    #[test]
    fn naive_byte_patch_without_crc_fix_is_rejected() {
        // Shows why manipulation must be CRC-aware: patching payload
        // bytes in place breaks the stream.
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let mut hacked = c.wire.clone();
        // FDRI payload starts somewhere after the headers; flipping any
        // payload byte invalidates the CRC.
        let off = hacked.len() / 2;
        hacked[off] ^= 0xFF;
        let mut device = Device::manufacture(DeviceGeometry::tiny(), 1);
        assert!(device.icap_load(&hacked).is_err());
        let _ = loc;
    }

    #[test]
    fn oversized_rewrite_rejected() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        assert!(matches!(
            rewrite_cell(&c.wire, loc, &[0; 33]),
            Err(BitstreamError::ManipulationTooLarge { .. })
        ));
    }

    #[test]
    fn shorter_rewrite_zeroes_stale_bytes() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let first = rewrite_cell(&c.wire, loc, &[0xFF; 32]).unwrap();
        let second = rewrite_cell(&first, loc, &[0x11; 8]).unwrap();
        let cell = read_cell(&second, loc).unwrap();
        assert_eq!(&cell[..8], &[0x11; 8]);
        assert!(
            cell[8..].iter().all(|&b| b == 0),
            "stale 0xFF bytes cleared"
        );
    }

    #[test]
    fn rewrite_cells_updates_multiple_in_one_pass() {
        let c = compiled();
        let ka = c.placement.require("top/sm/key_attest").unwrap();
        let ks = c.placement.require("top/sm/key_session").unwrap();
        let out = rewrite_cells(&c.wire, &[(ka, &[1; 32]), (ks, &[2; 32])]).unwrap();
        assert_eq!(read_cell(&out, ka).unwrap(), vec![1; 32]);
        assert_eq!(read_cell(&out, ks).unwrap(), vec![2; 32]);
    }

    #[test]
    fn read_cell_roundtrips_initial_contents() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        assert_eq!(read_cell(&c.wire, loc).unwrap(), vec![0u8; 32]);
    }

    /// The seed's rebuild-based manipulation: parse to owned packets,
    /// patch a copy of the FDRI payload, re-serialise the whole stream.
    /// The differential reference for the in-place path.
    fn rewrite_cells_reference(wire_stream: &[u8], updates: &[(&CellLocation, &[u8])]) -> Vec<u8> {
        let packets = wire::parse(wire_stream).unwrap();
        let (mut far, mut family_code, mut payload) = (None, None, None);
        for p in &packets {
            match p {
                wire::Packet::Write {
                    reg: Reg::Far,
                    payload: w,
                } => far = w.first().copied(),
                wire::Packet::Write {
                    reg: Reg::Idcode,
                    payload: w,
                } => family_code = w.first().copied(),
                wire::Packet::Write {
                    reg: Reg::Fdri,
                    payload: w,
                } => payload = Some(w.iter().flat_map(|w| w.to_be_bytes()).collect::<Vec<u8>>()),
                _ => {}
            }
        }
        let mut payload = payload.unwrap();
        for (location, new_contents) in updates {
            let cell = location.byte_offset..location.byte_offset + location.capacity;
            payload[cell].fill(0);
            payload[location.byte_offset..location.byte_offset + new_contents.len()]
                .copy_from_slice(new_contents);
        }
        crate::compile::build_canonical_stream(far.unwrap() >> 24, family_code.unwrap(), &payload)
    }

    #[test]
    fn in_place_rewrite_matches_rebuild_for_every_family() {
        use salus_fpga::family::{DeviceFamily, FamilyId};
        for family in FamilyId::ALL {
            let board = DeviceFamily::of(family).tiny_board(2);
            for partition in 0..2 {
                let mut n = Netlist::new("diff");
                n.add_module(
                    Module::new("top/sm", "sm_logic")
                        .with_bram(BramCell::zeroed("key_attest", 32))
                        .with_bram(BramCell::new("weights", vec![0xA5; 100]).unwrap()),
                );
                let c = compile(&n, board.partitions[partition], partition).unwrap();
                let ka = c.placement.require("top/sm/key_attest").unwrap();
                let w = c.placement.require("top/sm/weights").unwrap();
                let cases: [&[(&CellLocation, &[u8])]; 4] = [
                    &[],
                    &[(ka, &[0x11; 32])],
                    &[(ka, &[0x22; 5]), (w, &[0x33; 100])],
                    &[(w, &[]), (ka, &[0x44; 32]), (ka, &[0x55; 3])],
                ];
                for updates in cases {
                    let in_place = rewrite_cells(&c.wire, updates).unwrap();
                    assert_eq!(
                        in_place,
                        rewrite_cells_reference(&c.wire, updates),
                        "{family:?} partition {partition} updates {}",
                        updates.len()
                    );
                }
            }
        }
    }

    #[test]
    fn non_canonical_streams_are_refused_with_a_typed_error() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let word_at = |stream: &[u8], i: usize| {
            u32::from_be_bytes(stream[4 * i..4 * i + 4].try_into().unwrap())
        };
        let set_word = |stream: &mut Vec<u8>, i: usize, w: u32| {
            stream[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        };
        // Word 9 is the IDCODE type-1 header, word 14 the FAR word.
        let mut variants: Vec<(&str, Vec<u8>)> = Vec::new();
        let mut extra_dummy = wire::DUMMY_WORD.to_be_bytes().to_vec();
        extra_dummy.extend_from_slice(&c.wire);
        variants.push(("extra dummy word", extra_dummy));
        let mut far_low_bits = c.wire.clone();
        set_word(&mut far_low_bits, 14, word_at(&c.wire, 14) | 0x40);
        variants.push(("FAR low bits", far_low_bits));
        let mut ignored_header_bit = c.wire.clone();
        set_word(&mut ignored_header_bit, 9, word_at(&c.wire, 9) | 1 << 11);
        variants.push(("header bit the parser ignores", ignored_header_bit));
        let mut trailing_packet = c.wire.clone();
        trailing_packet.extend_from_slice(&c.wire[c.wire.len() - 8..]);
        variants.push(("packet after DESYNC", trailing_packet));
        let mut type1_fdri = wire::WireWriter::new();
        type1_fdri
            .write_reg(Reg::Idcode, &[c.family().code()])
            .write_cmd(wire::Cmd::Rcrc)
            .write_reg(Reg::Far, &[0])
            .write_cmd(wire::Cmd::Wcfg)
            .write_reg(Reg::Fdri, &[0; 8])
            .write_reg(Reg::Crc, &[0]);
        variants.push(("type-1 FDRI", type1_fdri.finish()));
        for (what, stream) in &variants {
            for result in [
                rewrite_cell(stream, loc, &[1; 32]).map(drop),
                read_cell(stream, loc).map(drop),
            ] {
                assert_eq!(
                    result,
                    Err(BitstreamError::Fpga(FpgaError::MalformedBitstream(
                        "not a canonical stream"
                    ))),
                    "{what}"
                );
            }
        }
        let mut truncated = c.wire.clone();
        truncated.truncate(c.wire.len() - 8);
        assert!(matches!(
            rewrite_cell(&truncated, loc, &[1; 32]),
            Err(BitstreamError::Fpga(FpgaError::MalformedBitstream(_)))
        ));
    }

    #[test]
    fn malformed_stream_rejected() {
        let loc = CellLocation {
            path: "x".into(),
            byte_offset: 0,
            capacity: 4,
        };
        assert!(matches!(
            rewrite_cell(b"junk", &loc, &[0; 4]),
            Err(BitstreamError::Fpga(_))
        ));
    }
}
