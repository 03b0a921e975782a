//! Golden chain heads and serialized-byte digests of the two hash-chained
//! control-plane logs: the audit log and the write-ahead journal.
//!
//! Each seeded stream exercises every entry variant; the pinned values
//! are the chain head and the SHA-256 of the canonical serialization.
//! A last pin drives a real control plane through deploy, evict,
//! warm-image redeploy and fence and pins both exported heads. Any
//! change to a domain separator, the record framing or an entry codec
//! moves at least one of these values.

use std::time::Duration;

use salus::core::dev::loopback_accelerator;
use salus::core::platform::{
    AbortKind, AuditEvent, AuditLog, ControlPlane, DeployPath, HealthState, IntentOp, Journal,
    PlatformConfig, SlotId, TenantId,
};
use salus::core::runtime_attest::ChallengeVerdict;
use salus::crypto::sha256::Sha256;
use salus::net::fault::SplitMix64;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn slot(device: usize, partition: usize) -> SlotId {
    SlotId { device, partition }
}

/// 40 audit events drawn from `seed`, covering all thirteen variants.
fn seeded_audit(seed: u64) -> AuditLog {
    let mut rng = SplitMix64::new(seed);
    let mut log = AuditLog::new();
    let mut at = Duration::ZERO;
    for i in 0..40 {
        at += Duration::from_millis(rng.below(50));
        let tenant = TenantId(rng.below(4));
        let s = slot(rng.below(3) as usize, rng.below(2) as usize);
        let event = match rng.below(13) {
            0 => AuditEvent::Deploy {
                tenant,
                slot: s,
                path: [DeployPath::Cold, DeployPath::WarmKey, DeployPath::WarmImage]
                    [rng.below(3) as usize],
            },
            1 => AuditEvent::DeployFailed {
                tenant,
                slot: s,
                error: format!("boot error {i}"),
            },
            2 => AuditEvent::DeploySuspended {
                tenant,
                slot: s,
                step: format!("step-{}", rng.below(19)),
            },
            3 => AuditEvent::Evicted { tenant, slot: s },
            4 => AuditEvent::HealthTransition {
                device: s.device,
                state: [
                    HealthState::Healthy,
                    HealthState::Probation,
                    HealthState::Quarantined,
                ][rng.below(3) as usize],
            },
            5 => AuditEvent::WindowFault { tenant, slot: s },
            6 => AuditEvent::AttestChallenge {
                epoch: rng.below(9),
                tenant,
                slot: s,
                token: rng.next_u64(),
            },
            7 => AuditEvent::AttestOutcome {
                epoch: rng.below(9),
                tenant,
                slot: s,
                verdict: [
                    ChallengeVerdict::Alive,
                    ChallengeVerdict::Compromised,
                    ChallengeVerdict::TimedOut,
                ][rng.below(3) as usize],
            },
            8 => AuditEvent::SessionFenced { tenant, slot: s },
            9 => AuditEvent::LaneFenced {
                tenant,
                slot: s,
                drained: rng.below(5),
            },
            10 => AuditEvent::PlacementRefused {
                tenant,
                reason: format!("refusal {i}"),
            },
            11 => AuditEvent::DeployAbandoned { tenant, slot: s },
            _ => AuditEvent::RecoveryCompleted {
                replayed: rng.below(20),
                rolled_back: rng.below(3),
            },
        };
        log.append(at, event);
    }
    log
}

/// 25 journaled operations drawn from `seed`: every intent kind, each
/// settled by a commit (with and without a deploy path), an abort of
/// either kind, or a suspension.
fn seeded_journal(seed: u64) -> Journal {
    let mut rng = SplitMix64::new(seed);
    let mut journal = Journal::new();
    let mut at = Duration::ZERO;
    for i in 0..25 {
        at += Duration::from_millis(rng.below(40));
        let tenant = TenantId(rng.below(4));
        let s = slot(rng.below(3) as usize, rng.below(2) as usize);
        let action = match rng.below(7) {
            0 => IntentOp::Register {
                tenant,
                name: format!("tenant-{i}"),
                seed: rng.next_u64(),
            },
            1 => IntentOp::Deploy { tenant, slot: s },
            2 => IntentOp::Resume { tenant, slot: s },
            3 => IntentOp::Evict { tenant, slot: s },
            4 => IntentOp::Redeploy { tenant, slot: s },
            5 => IntentOp::Fence { tenant, slot: s },
            _ => IntentOp::Abandon { tenant, slot: s },
        };
        let op = journal.begin(at, action);
        match rng.below(5) {
            0 => journal.abort(at, op, &format!("boot error {i}"), AbortKind::Failed),
            1 => journal.abort(at, op, "rolled back", AbortKind::RolledBack),
            2 => journal.suspend(at, op, "DeviceKeyTransfer"),
            3 => journal.commit(
                at,
                op,
                Some(
                    [DeployPath::Cold, DeployPath::WarmKey, DeployPath::WarmImage]
                        [rng.below(3) as usize],
                ),
                Duration::from_micros(rng.below(5_000)),
            ),
            _ => journal.commit(at, op, None, Duration::ZERO),
        }
    }
    journal
}

/// `(seed, chain head, SHA-256 of to_bytes())`.
const AUDIT_GOLDENS: [(u64, &str, &str); 3] = [
    (
        1,
        "c22fcde49c00f805c3630bc0cfb3c62b8f6ac1f81bf60400867039bbe607dd1c",
        "af2ee159c712600ea14bc152dd38baf06191a39347733cf5f81dfc690c747aba",
    ),
    (
        7,
        "6bb5649cabeff01639303b1f211ec9575575c664f880100db7457812741a16c4",
        "47c14f2be22ff3c37e667d89d0bdf16a417a7e3d3b1fed4370633824590f88d0",
    ),
    (
        42,
        "16aa7501b7ffb2efcc47a65381df053407309c729de12b1332b2b9d82abe5ebe",
        "28027825423239fa8b6d6a613601f31c81dcc5b92dc9a2e501ffe9e7a6a42735",
    ),
];

/// `(seed, chain head, SHA-256 of to_bytes())`.
const JOURNAL_GOLDENS: [(u64, &str, &str); 3] = [
    (
        1,
        "93b725f1144a63f50ec8553dd1c1f8b940a0582607080f8805daa29542645c32",
        "cf726b1645663fac63c60b8d40e1b39a147d89a68740a72f773a517ad2c1e0f4",
    ),
    (
        7,
        "bd9ff43be034463a3a42eeadb75a996404940ec268e67db80fd234e943fdc4cd",
        "48af06e7cd3c4e8de0fe280598ed79244c8ec4bc96ca0b17f4513b9dee3d6e15",
    ),
    (
        42,
        "0a8f08aaac91fa062d1c9ff9ddb475c3e6132d523bdb4a4f63cbc84cff6cae01",
        "397c112d2342de37b5c0d63ac9f18b5ad9344c781ecee9e5563cc20b4ab71856",
    ),
];

#[test]
fn golden_audit_heads_and_serializations() {
    for (seed, head, bytes_sha) in AUDIT_GOLDENS {
        let log = seeded_audit(seed);
        log.verify_chain().expect("seeded audit chain verifies");
        let bytes = log.to_bytes();
        assert_eq!(AuditLog::from_bytes(&bytes).unwrap(), log);
        assert_eq!(hex(&log.head()), head, "audit head, seed {seed}");
        assert_eq!(
            hex(&Sha256::digest(&bytes)),
            bytes_sha,
            "audit bytes, seed {seed}"
        );
    }
}

#[test]
fn golden_journal_heads_and_serializations() {
    for (seed, head, bytes_sha) in JOURNAL_GOLDENS {
        let journal = seeded_journal(seed);
        journal.verify().expect("seeded journal verifies");
        let bytes = journal.to_bytes();
        assert_eq!(Journal::from_bytes(&bytes).unwrap(), journal);
        assert_eq!(hex(&journal.head()), head, "journal head, seed {seed}");
        assert_eq!(
            hex(&Sha256::digest(&bytes)),
            bytes_sha,
            "journal bytes, seed {seed}"
        );
    }
}

#[test]
fn golden_fleet_driven_heads() {
    // Two boards of two partitions on the quick config's fixed seed.
    let plane = ControlPlane::provision(PlatformConfig::quick(2, 2)).unwrap();
    let alice = plane.register_tenant("alice");
    let bob = plane.register_tenant("bob");
    let a = plane.deploy(alice, loopback_accelerator()).unwrap();
    let b = plane.deploy(bob, loopback_accelerator()).unwrap();
    assert_eq!(a.path, DeployPath::Cold);
    plane.evict(a).unwrap();
    let a = plane.redeploy(alice).unwrap();
    assert_eq!(a.path, DeployPath::WarmImage);
    plane.fence_deployment(bob, b.slot).unwrap();

    plane.journal_log().verify().expect("journal verifies");
    plane.audit_log().verify_chain().expect("audit verifies");
    let snap = plane.snapshot();
    assert_eq!(
        hex(&snap.journal_head),
        "d1747f5a83e4a55cd8f5afdcd32cc3bed03b3086da495c34b5f8c4f23cb06d2c"
    );
    assert_eq!(
        hex(&snap.audit_head),
        "7f2038ea6147cfed9c3e4211013c2c95784b11cb1f3e620521c078213df38794"
    );
}
