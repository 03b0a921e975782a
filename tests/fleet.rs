//! Integration: the platform device fleet — per-device key isolation,
//! shell provisioning across boards, and device binding of encrypted
//! bitstreams between co-scheduled tenants.

use salus::bitstream::netlist::Module;
use salus::core::dev::{develop_cl, loopback_accelerator, sm_enclave_image};
use salus::core::manufacturer::Manufacturer;
use salus::core::platform::{
    ControlPlane, DeployPath, DeviceFleet, PlatformConfig, SharedManufacturer, TenantDeployment,
};
use salus::core::sm_logic::SmLogic;
use salus::core::{FaultClass, SalusError};
use salus::fpga::geometry::DeviceGeometry;
use salus::tee::quote::AttestationService;

fn fleet_manufacturer(secret: &[u8]) -> SharedManufacturer {
    let service = AttestationService::new(secret);
    SharedManufacturer::new(Manufacturer::new(
        secret,
        service,
        sm_enclave_image().measure(),
    ))
}

#[test]
fn encrypted_bitstreams_are_device_bound_across_a_fleet() {
    // Two tenants scheduled onto a two-board fleet: the least-loaded
    // policy spreads them, so each board carries one tenant's encrypted
    // CL stream (fused key + DNA bound).
    let plane = ControlPlane::provision(PlatformConfig::quick(2, 1)).unwrap();
    let alice = plane.register_tenant("alice");
    let bob = plane.register_tenant("bob");
    let a = plane.deploy(alice, loopback_accelerator()).unwrap();
    let b = plane.deploy(bob, loopback_accelerator()).unwrap();
    assert_ne!(a.slot.device, b.slot.device, "tenants must spread");

    let stream_a = a.bed.shell.observed_bitstreams()[0].clone();
    let stream_b = b.bed.shell.observed_bitstreams()[0].clone();

    // Cross-loading fails on both boards: streams are bound to the
    // fused key *and* the DNA of the device they were prepared for.
    assert!(b.bed.shell.deploy_bitstream(&stream_a).is_err());
    assert!(a.bed.shell.deploy_bitstream(&stream_b).is_err());

    // A stream encrypted under a guessed key fails on its own target
    // board too.
    let pkg = develop_cl(
        loopback_accelerator(),
        DeviceGeometry::tiny().partitions[0],
        0,
    )
    .unwrap();
    let guessed = salus::bitstream::encrypt::encrypt_for_device(
        &pkg.compiled.wire,
        &[0u8; 32],
        &[1; 12],
        a.bed.shell.advertised_dna(),
    );
    assert!(a.bed.shell.deploy_bitstream(&guessed).is_err());
}

#[test]
fn one_shell_image_provisions_every_board_of_the_same_geometry() {
    // DeviceFleet::provision compiles the shell once per geometry and
    // stamps it onto every board.
    let manufacturer = fleet_manufacturer(b"fleet2");
    let fleet = DeviceFleet::provision(&manufacturer, DeviceGeometry::tiny(), 3, 0).unwrap();
    assert_eq!(fleet.device_count(), 3);
    for board in 0..fleet.device_count() {
        assert!(fleet.shell(board).unwrap().is_loaded(), "board {board}");
    }
}

#[test]
fn devices_have_unique_dna_and_keys_across_a_large_fleet() {
    let manufacturer = fleet_manufacturer(b"fleet3");
    let fleet = DeviceFleet::provision(&manufacturer, DeviceGeometry::tiny(), 64, 0).unwrap();
    let mut dnas = std::collections::HashSet::new();
    for board in 0..fleet.device_count() {
        let device = fleet.shell(board).unwrap().device();
        assert!(device.lock().has_device_key());
        assert!(dnas.insert(fleet.dna(board).unwrap()), "duplicate DNA");
    }
    assert_eq!(manufacturer.device_count(), 64);
}

/// One distinct accelerator per partition.
fn partition_accelerator(i: usize) -> Module {
    Module::new(format!("cl/accel{i}"), format!("accel:rp{i}")).with_resources(500, 800, 1)
}

/// Deploys one tenant per partition of a single `n`-partition board.
fn fill_one_board(n: usize) -> Vec<TenantDeployment> {
    let plane = ControlPlane::provision(PlatformConfig::quick(1, n)).unwrap();
    let deployments: Vec<TenantDeployment> = (0..n)
        .map(|i| {
            let tenant = plane.register_tenant(&format!("tenant{i}"));
            plane.deploy(tenant, partition_accelerator(i)).unwrap()
        })
        .collect();
    assert_eq!(plane.free_slots(), 0, "every partition is taken");
    assert_eq!(plane.snapshot().keyed_devices, vec![0]);
    deployments
}

#[test]
fn every_partition_of_a_board_attests_and_the_device_key_is_fetched_once() {
    // The §4.7 multi-partition extension: each partition holds its own
    // CL and SM logic; the first deploy redeems the board's device key
    // (cold boot) and every co-resident deploy boots warm off the
    // fleet's key cache, so the manufacturer is asked once per board.
    // One partition degenerates to the single-RP base design.
    for n in [1, 2, 4] {
        let deployments = fill_one_board(n);
        let mut partitions: Vec<usize> = deployments.iter().map(|d| d.slot.partition).collect();
        partitions.sort_unstable();
        assert_eq!(partitions, (0..n).collect::<Vec<_>>(), "n = {n}");
        for (i, d) in deployments.iter().enumerate() {
            assert!(d.outcome.report.all_attested(), "n = {n}, tenant {i}");
            let expected = if i == 0 {
                DeployPath::Cold
            } else {
                DeployPath::WarmKey
            };
            assert_eq!(d.path, expected, "n = {n}, tenant {i}");
        }
    }
}

#[test]
fn co_resident_partitions_hold_independent_attestation_secrets() {
    // Each partition's SM enclave agent injected fresh secrets into its
    // own CL, so one partition's attestation challenge is refused by
    // its neighbour's SM logic on the same board, with a fatal error.
    let mut deployments = fill_one_board(2);
    deployments.sort_by_key(|d| d.slot.partition);
    let device = deployments[0].bed.shell.device();
    let logic = |partition| SmLogic::bind(device.clone(), partition).unwrap();

    let request = deployments[0].bed.sm_app.attest_request().unwrap();
    let crossed = logic(1).handle_attestation(&request).unwrap_err();
    assert!(
        matches!(crossed, SalusError::ClAttestationFailed(_)),
        "{crossed}"
    );
    assert_eq!(crossed.fault_class(), FaultClass::Fatal);

    let request = deployments[1].bed.sm_app.attest_request().unwrap();
    let crossed = logic(0).handle_attestation(&request).unwrap_err();
    assert_eq!(crossed.fault_class(), FaultClass::Fatal);

    // The same challenge answered by its own partition still attests.
    let response = logic(1).handle_attestation(&request).unwrap();
    deployments[1]
        .bed
        .sm_app
        .process_attest_response(&response)
        .unwrap();
}
