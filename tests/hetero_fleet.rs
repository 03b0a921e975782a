//! Integration: heterogeneous fleets — family-parameterized device
//! geometry and capability-aware placement.
//!
//! A mixed fleet (series7-, UltraScale-, and Versal-like boards side
//! by side) must place every tenant on a family-compatible slot,
//! refuse cross-family deployments fail-closed at *both* the
//! scheduler and the ICAP load layer, bind warm-image redeploys to
//! the parked ciphertext's family, and do all of it deterministically
//! per seed. The homogeneous path — the only one that existed before
//! families — must keep producing byte-identical artifacts.

use salus::core::dev::{develop_cl, loopback_accelerator, sm_enclave_image};
use salus::core::manufacturer::Manufacturer;
use salus::core::platform::{
    AuditEvent, ControlPlane, DeployFailure, DeployPath, DeployPolicy, DeviceFleet, PlaceRequest,
    PlatformConfig, SharedManufacturer,
};
use salus::core::{PlaceError, SalusError};
use salus::fpga::device::Device;
use salus::fpga::family::{DeviceFamily, FamilyId};
use salus::fpga::FpgaError;
use salus::tee::quote::AttestationService;

/// Three boards, three families, nine slots: series7 (2 slots),
/// UltraScale (3), Versal (4).
fn mixed_config(seed: u64) -> PlatformConfig {
    PlatformConfig::quick(1, 2)
        .with_geometry(DeviceFamily::series7().tiny_board(2))
        .with_extra_boards(DeviceFamily::ultrascale().tiny_board(3), 1)
        .with_extra_boards(DeviceFamily::versal().tiny_board(4), 1)
        .with_seed(seed)
}

fn pin(family: FamilyId) -> DeployPolicy {
    DeployPolicy::single().with_request(PlaceRequest::for_family(family))
}

#[test]
fn mixed_fleet_deploys_eight_tenants_deterministically() {
    // Pins for the first five tenants; the remaining three are
    // family-agnostic and go wherever the scheduler prefers.
    let pins = [
        Some(FamilyId::Series7),
        Some(FamilyId::Series7),
        Some(FamilyId::UltraScale),
        Some(FamilyId::Versal),
        Some(FamilyId::Versal),
        None,
        None,
        None,
    ];

    let run = |seed: u64| {
        let plane = ControlPlane::provision(mixed_config(seed)).unwrap();
        assert_eq!(plane.device_count(), 3);
        assert_eq!(plane.total_slots(), 9);

        let mut placements = Vec::new();
        for (i, want) in pins.iter().enumerate() {
            let tenant = plane.register_tenant(&format!("t{i}"));
            let policy = match want {
                Some(family) => pin(*family),
                None => DeployPolicy::single(),
            };
            let deployment = plane
                .deploy_with(tenant, loopback_accelerator(), policy)
                .unwrap_or_else(|e| panic!("tenant {i} must deploy: {e:?}"));
            assert!(deployment.outcome.report.all_attested(), "tenant {i}");

            let family = plane.device_family(deployment.slot.device).unwrap();
            if let Some(want) = want {
                assert_eq!(family, *want, "tenant {i} pinned to {want}");
            }
            placements.push((deployment.slot, family));
        }
        assert_eq!(plane.free_slots(), 1);
        (placements, plane.audit_head())
    };

    // Same seed ⇒ identical placements and identical audit chain.
    let (placements_a, head_a) = run(7);
    let (placements_b, head_b) = run(7);
    assert_eq!(
        placements_a, placements_b,
        "placement must be deterministic"
    );
    assert_eq!(head_a, head_b, "audit chain must be deterministic");
}

#[test]
fn scheduler_refuses_cross_family_deploys_and_audits_them() {
    // No Versal board in this fleet: a Versal-pinned tenant is
    // refused before any boot runs, with a typed reason and an audit
    // record — and fleet capacity is untouched.
    let config = PlatformConfig::quick(1, 1)
        .with_geometry(DeviceFamily::series7().tiny_board(1))
        .with_extra_boards(DeviceFamily::ultrascale().tiny_board(1), 1);
    let plane = ControlPlane::provision(config).unwrap();
    let free_before = plane.free_slots();

    let mallory = plane.register_tenant("mallory");
    let err = plane
        .deploy_with(mallory, loopback_accelerator(), pin(FamilyId::Versal))
        .unwrap_err();
    match err {
        DeployFailure::Rejected(e) => {
            assert_eq!(e, SalusError::Place(PlaceError::IncompatibleFamily));
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }

    assert_eq!(plane.free_slots(), free_before, "no slot may leak");
    let log = plane.audit_log();
    log.verify_chain().unwrap();
    assert!(
        log.records().iter().any(|r| matches!(
            &r.entry,
            AuditEvent::PlacementRefused { tenant, .. } if *tenant == mallory
        )),
        "the refusal must land in the audit chain"
    );
    assert_eq!(plane.tenant_record(mallory).unwrap().failed_deploys, 1);
}

#[test]
fn icap_refuses_a_bitstream_compiled_for_another_family() {
    // Below the scheduler: even a correctly encrypted bitstream is
    // refused by the load layer when its compiled-in family stamp
    // disagrees with the device — nothing is committed to
    // configuration memory.
    let versal_rp = DeviceFamily::versal().tiny_board(1).partitions[0];
    let package = develop_cl(loopback_accelerator(), versal_rp, 0).unwrap();

    let key = [7u8; 32];
    let mut foreign = Device::manufacture(DeviceFamily::series7().tiny_board(1), 1);
    foreign.program_device_key(key).unwrap();
    let stream = salus::bitstream::encrypt::encrypt_for_device(
        &package.compiled.wire,
        &key,
        &[1; 12],
        foreign.dna().read(),
    );
    assert_eq!(
        foreign.icap_load(&stream).unwrap_err(),
        FpgaError::FamilyMismatch {
            device: FamilyId::Series7.code(),
            bitstream: FamilyId::Versal.code(),
        }
    );

    // The same wire stream configures cleanly on its own family.
    let mut native = Device::manufacture(DeviceFamily::versal().tiny_board(1), 2);
    native.program_device_key(key).unwrap();
    let stream = salus::bitstream::encrypt::encrypt_for_device(
        &package.compiled.wire,
        &key,
        &[1; 12],
        native.dna().read(),
    );
    native.icap_load(&stream).unwrap();
}

#[test]
fn warm_image_redeploy_is_family_bound() {
    // One UltraScale slot next to a two-slot Versal board. Alice's
    // parked ciphertext is UltraScale-framed and slot-bound: when her
    // slot is stolen, the warm image must not drift onto the free
    // Versal board — the redeploy is refused with a typed reason and
    // the image stays parked until its own slot frees up again.
    let config = PlatformConfig::quick(1, 1)
        .with_geometry(DeviceFamily::ultrascale().tiny_board(1))
        .with_extra_boards(DeviceFamily::versal().tiny_board(2), 1);
    let plane = ControlPlane::provision(config).unwrap();

    let alice = plane.register_tenant("alice");
    let bob = plane.register_tenant("bob");

    let deployment = plane
        .deploy_with(alice, loopback_accelerator(), pin(FamilyId::UltraScale))
        .unwrap();
    let home = deployment.slot;
    assert_eq!(plane.device_family(home.device), Some(FamilyId::UltraScale));
    plane.evict(deployment).unwrap();
    assert!(plane.has_parked(alice));

    // Bob steals the only UltraScale slot.
    let stolen = plane
        .deploy_with(bob, loopback_accelerator(), pin(FamilyId::UltraScale))
        .unwrap();
    assert_eq!(stolen.slot, home);

    // Alice's warm image cannot follow capacity to the Versal board:
    // the ciphertext is bound to its slot (and hence its family), so
    // the occupied-affinity refusal is the only way out — the free
    // Versal slots are never considered for the parked bytes.
    let err = plane.redeploy(alice).unwrap_err();
    assert_eq!(err, SalusError::Place(PlaceError::AffinityOccupied));
    assert!(plane.has_parked(alice), "the image must stay parked");

    // Once the slot frees up, the warm path works again — on the same
    // family, same slot.
    plane.evict(stolen).unwrap();
    let back = plane.redeploy(alice).unwrap();
    assert_eq!(back.path, DeployPath::WarmImage);
    assert_eq!(back.slot, home);
    assert!(back.outcome.report.all_attested());
}

#[test]
fn homogeneous_paths_are_byte_stable() {
    // The UltraScale framing *is* the codebase's historical fixed
    // framing (93-word frames, 13 frames per BRAM), so every
    // pre-family artifact — compiled wires, shell images, digests —
    // must come out byte-identical from the family-parameterized
    // pipeline.
    assert_eq!(FamilyId::UltraScale.frame_words(), 93);
    assert_eq!(FamilyId::UltraScale.frames_per_bram(), 13);

    let rp = salus::fpga::geometry::DeviceGeometry::tiny().partitions[0];
    assert_eq!(rp.family, FamilyId::UltraScale);
    let a = develop_cl(loopback_accelerator(), rp, 0).unwrap();
    let b = develop_cl(loopback_accelerator(), rp, 0).unwrap();
    assert_eq!(a.compiled.wire, b.compiled.wire, "compile is deterministic");
    assert_eq!(a.digest, b.digest, "published digest is deterministic");

    // A homogeneous fleet provisioned through the single-geometry API
    // and through the mixed-spec API are indistinguishable down to the
    // shell bitstream bytes on every board.
    let manufacturer = |secret: &[u8]| {
        let service = AttestationService::new(secret);
        SharedManufacturer::new(Manufacturer::new(
            secret,
            service,
            sm_enclave_image().measure(),
        ))
    };
    let tiny = salus::fpga::geometry::DeviceGeometry::tiny();
    let single =
        DeviceFleet::provision(&manufacturer(b"hetero-diff"), tiny.clone(), 3, 100).unwrap();
    let mixed =
        DeviceFleet::provision_mixed(&manufacturer(b"hetero-diff"), &[(tiny, 3)], 100).unwrap();
    assert_eq!(single.device_count(), mixed.device_count());
    for board in 0..single.device_count() {
        assert_eq!(single.dna(board), mixed.dna(board), "board {board}");
        assert_eq!(
            single.shell(board).unwrap().observed_bitstreams(),
            mixed.shell(board).unwrap().observed_bitstreams(),
            "board {board} shell bytes"
        );
    }
}
