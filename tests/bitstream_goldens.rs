//! Golden digests of every stage of the bitstream path: compile →
//! digest → RoT manipulation → GCM seal → ICAP load.
//!
//! The values were recorded from the byte-at-a-time CRC, rebuild-based
//! manipulation and copy-per-stage sealing implementation; the
//! single-buffer pipeline must reproduce every one of them exactly.

use salus::bitstream::encrypt::encrypt_for_device_with;
use salus::bitstream::manipulate::rewrite_cells;
use salus::core::dev::{develop_cl, loopback_accelerator, ClPackage};
use salus::crypto::gcm::AesGcm256;
use salus::crypto::sha256::Sha256;
use salus::fpga::device::Device;
use salus::fpga::geometry::DeviceGeometry;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn sha(bytes: &[u8]) -> String {
    hex(&Sha256::digest(bytes))
}

/// The fixture: the loopback CL for partition 1 of a two-RP U200.
fn fixture() -> (DeviceGeometry, ClPackage) {
    let geometry = DeviceGeometry::u200_multi_rp(2);
    let package = develop_cl(loopback_accelerator(), geometry.partitions[1], 1).unwrap();
    (geometry, package)
}

/// `[0x5A; 64]` cut to each SM cell's capacity, written into all three.
fn manipulated(package: &ClPackage) -> Vec<u8> {
    let secret = [0x5Au8; 64];
    let loc = &package.locations;
    let updates: Vec<_> = [&loc.key_attest, &loc.key_session, &loc.ctr_session]
        .into_iter()
        .map(|l| (l, &secret[..l.capacity.min(secret.len())]))
        .collect();
    rewrite_cells(&package.compiled.wire, &updates).unwrap()
}

#[test]
fn golden_compiled_wire_and_digest() {
    let (_, package) = fixture();
    assert_eq!(package.compiled.wire.len(), 2_444_876);
    assert_eq!(
        sha(&package.compiled.wire),
        "2a62f1fe2d3a4a5ce8bf200ab1a63c2af96b73d929d1ec8212b6f9c78a58dc47"
    );
    assert_eq!(
        hex(&package.digest),
        "81abebf4ea66eec6afdb4ee20d2fa4f3e25fc483919ca759593edb162bdee634"
    );
}

#[test]
fn golden_manipulated_stream() {
    let (_, package) = fixture();
    assert_eq!(
        sha(&manipulated(&package)),
        "250da9e0654afc005d39ce1ba5002bb020c47fbe182da873c3673deeeeb41c91"
    );
}

#[test]
fn golden_sealed_stream_and_committed_frames() {
    let (geometry, package) = fixture();
    let plain = manipulated(&package);
    let cipher = AesGcm256::new(&[7; 32]);
    let sealed = encrypt_for_device_with(&plain, &cipher, &[2; 12], 0xABCDEF);
    assert_eq!(
        sha(&sealed),
        "dad979494642d985ba4786676f8b55d91da39ad3e561cf8965bd9e09ee3ef0ae"
    );

    let mut device = Device::manufacture(geometry, 3);
    device.program_device_key([7; 32]).unwrap();
    let stream = encrypt_for_device_with(&plain, &cipher, &[2; 12], device.dna().read());
    let outcome = device.icap_load(&stream).unwrap();
    assert_eq!(outcome.loads.len(), 1);
    assert!(outcome.loads[0].encrypted);
    assert_eq!(
        sha(&device.partition(1).unwrap().flatten()),
        "23c942ed6788fc58907bbe420eb89f1dc8c2dec33c85ee155f0dfa0ca77e5870"
    );
}

#[test]
fn golden_partition0_compiles_per_catalog_device() {
    for (geometry, expected) in [
        (
            DeviceGeometry::tiny(),
            "826e3ac0838772a218bb97c5dcd66f7ca4ca7760efc5318a864f1d13a4b2adea",
        ),
        (
            DeviceGeometry::u200(),
            "a81f74e2c8766e7470eaaa360f67accf439010fdc2fb357d9e5ec7a8b8b3a68c",
        ),
    ] {
        let package = develop_cl(loopback_accelerator(), geometry.partitions[0], 0).unwrap();
        assert_eq!(sha(&package.compiled.wire), expected);
    }
}
