//! Chaos suite for the runtime re-attestation plane and the
//! hash-chained fleet audit log.
//!
//! Four properties from ISSUE.md's acceptance list, all on virtual
//! time and seeded randomness:
//!
//! 1. Identical seeds reproduce byte-identical audit chains.
//! 2. A tampered CL is detected within one epoch cadence plus the
//!    challenge deadline, the lane fail-closes (queued requests drain
//!    with a typed error), and the board walks into quarantine.
//! 3. Zero-fault sweeps raise no false positives: nothing fenced,
//!    nothing quarantined, every verdict `Alive`.
//! 4. The serialized chain rejects any sampled single-bit mutation,
//!    and `verify_chain` pinpoints the first forged record.
//!
//! Plus the RPC-boot rider: fleet boots driven through the
//! manufacturer's RPC endpoint survive seeded packet loss.

use std::time::Duration;

use salus::accel::apps::affine::Affine;
use salus::accel::apps::conv::Conv;
use salus::accel::workload::Workload;
use salus::attest::ReattestMonitor;
use salus::core::dev::loopback_accelerator;
use salus::core::platform::{
    AuditEvent, AuditLog, ControlPlane, DeployPolicy, HealthPolicy, HealthState, PlatformConfig,
};
use salus::core::runtime_attest::{AttestPolicy, ChallengeVerdict};
use salus::fpga::shell::{LoadAttack, Shell};
use salus::net::fault::{FaultPlan, FaultSpec, SplitMix64};
use salus::node::{node_geometry, SalusNode};
use salus::serving::{ClientId, LaneId, ServeError, ServingConfig, ServingPlane};

/// The lane whose CL the tamper scenarios replace.
const VICTIM: usize = 2;

/// A provisioned 2×2 fleet with every slot attached to a serving lane
/// and a pre-armed runtime-replacement tamper per lane.
struct Fleet {
    node: SalusNode,
    plane: ServingPlane,
    monitor: ReattestMonitor,
    lanes: Vec<LaneId>,
    workloads: Vec<Box<dyn Workload>>,
    /// Per lane: the device's shell handle and a stale (pre-rotation)
    /// encrypted bitstream it once observed.
    tampers: Vec<(Shell, Vec<u8>)>,
}

fn build_fleet(seed: u64, quarantine_after: u32) -> Fleet {
    let config = PlatformConfig::quick(2, 2)
        .with_geometry(node_geometry(2))
        .with_seed(seed)
        .with_health(
            HealthPolicy::default()
                .with_quarantine_after(quarantine_after)
                .with_readmit_window(Duration::from_secs(60), Duration::from_secs(120)),
        );
    let node = SalusNode::provision(config).expect("fleet provisions");
    let mut plane = ServingPlane::new(ServingConfig::pipelined(3));
    plane.audit_to(&node);

    let mut lanes = Vec::new();
    let mut workloads: Vec<Box<dyn Workload>> = Vec::new();
    let mut tampers = Vec::new();
    for slot in 0..4usize {
        let workload: Box<dyn Workload> = if slot.is_multiple_of(2) {
            Box::new(Conv::paper_scale())
        } else {
            Box::new(Affine::paper_scale())
        };
        let tenant = node.register_tenant(&format!("tenant{slot}"));
        let mut session = node.deploy(tenant, workload.as_ref()).expect("deploy");
        // Arm the tamper: capture the encrypted stream the shell
        // observed at boot, then rotate session keys so the capture
        // goes stale — replaying it later is a real runtime
        // replacement the next challenge must catch.
        let stale = session
            .bed_mut()
            .shell
            .observed_bitstreams()
            .last()
            .expect("boot observed a stream")
            .clone();
        let shell = session.bed_mut().shell.clone();
        session.redeploy(workload.as_ref()).expect("key rotation");
        lanes.push(plane.attach(session, workload.as_ref()));
        workloads.push(workload);
        tampers.push((shell, stale));
    }

    let monitor = ReattestMonitor::new(node.clone(), AttestPolicy::default());
    Fleet {
        node,
        plane,
        monitor,
        lanes,
        workloads,
        tampers,
    }
}

impl Fleet {
    /// Runtime replacement on lane `lane`: the shell silently reloads
    /// the stale stream, then drops back to honest behaviour.
    fn tamper(&self, lane: usize) {
        let (shell, stale) = &self.tampers[lane];
        shell.set_load_attack(LoadAttack::Replace(stale.clone()));
        shell.deploy_bitstream(stale).expect("replay loads");
        shell.set_load_attack(LoadAttack::Honest);
    }

    fn now(&self) -> Duration {
        self.node.plane().shared().clock.now()
    }
}

/// The canonical scenario every determinism assertion replays: warm
/// traffic, a clean sweep, a tamper, the detecting sweep, one more
/// sweep over the survivors. Returns the serialized audit chain.
fn run_scenario(seed: u64) -> Vec<u8> {
    let mut fleet = build_fleet(seed, 1);
    for (i, lane) in fleet.lanes.clone().into_iter().enumerate() {
        let payload = fleet.workloads[i].input().to_vec();
        // The scenario cares about the audit chain, not the responses.
        let _ = fleet
            .plane
            .submit(lane, ClientId(i as u64), payload)
            .expect("queue has room");
    }
    fleet.plane.drain().expect("drain");
    fleet.monitor.sweep(&mut fleet.plane).expect("sweep 1");
    fleet.tamper(VICTIM);
    fleet.monitor.sweep(&mut fleet.plane).expect("sweep 2");
    fleet.monitor.sweep(&mut fleet.plane).expect("sweep 3");

    let log = fleet.node.plane().audit_log();
    log.verify_chain().expect("chain verifies");
    assert_eq!(fleet.node.fleet_snapshot().audit_head, log.head());
    log.to_bytes()
}

#[test]
fn identical_seeds_produce_byte_identical_audit_chains() {
    let first = run_scenario(7);
    let second = run_scenario(7);
    assert_eq!(
        first, second,
        "same seed, same scenario must serialize the same chain"
    );
    let other = run_scenario(11);
    assert_ne!(
        first, other,
        "different seeds draw different tokens, so chains diverge"
    );
}

#[test]
fn tamper_is_detected_within_one_epoch_plus_deadline_and_fails_closed() {
    let mut fleet = build_fleet(21, 1);
    let clean = fleet.monitor.sweep(&mut fleet.plane).expect("sweep 1");
    assert!(clean.all_alive());
    assert_eq!(clean.outcomes.len(), 4);

    // Two requests queued on the victim that will never execute.
    let victim = fleet.lanes[VICTIM];
    let payload = fleet.workloads[VICTIM].input().to_vec();
    let first = fleet
        .plane
        .submit(victim, ClientId(100), payload.clone())
        .expect("submit");
    let second = fleet
        .plane
        .submit(victim, ClientId(101), payload)
        .expect("submit");

    fleet.tamper(VICTIM);
    let tampered_at = fleet.now();
    let report = fleet.monitor.sweep(&mut fleet.plane).expect("sweep 2");

    let outcome = *report
        .outcomes
        .iter()
        .find(|o| o.lane == victim)
        .expect("victim challenged");
    assert_eq!(outcome.verdict, ChallengeVerdict::Compromised);
    assert!(outcome.fenced);
    assert_eq!(outcome.drained, 2);
    assert_eq!(report.fenced(), 1, "only the tampered lane fences");

    let bound = fleet.monitor.policy().detection_bound();
    let latency = outcome.detected_at - tampered_at;
    assert!(
        latency <= bound,
        "detection took {latency:?}, bound is {bound:?}"
    );

    // The drained requests surface the typed fence error; the lane is
    // gone from the plane.
    assert_eq!(
        fleet.plane.take(first).unwrap_err(),
        ServeError::SessionFenced { lane: victim }
    );
    assert_eq!(
        fleet.plane.take(second).unwrap_err(),
        ServeError::SessionFenced { lane: victim }
    );
    assert!(!fleet.plane.lanes().contains(&victim));

    // The slot is released and the board is quarantined.
    assert_eq!(fleet.node.free_slots(), 1);
    let snapshot = fleet.node.fleet_snapshot();
    let record = snapshot
        .health
        .iter()
        .find(|r| r.device == outcome.slot.device)
        .expect("victim board tracked");
    assert_eq!(record.state, HealthState::Quarantined);

    // The whole story is on the chain, in causal order, and the
    // snapshot pins its head.
    let log = fleet.node.plane().audit_log();
    log.verify_chain().expect("chain verifies");
    assert_eq!(snapshot.audit_head, log.head());

    let position = |probe: &dyn Fn(&AuditEvent) -> bool| {
        log.records()
            .iter()
            .position(|r| probe(&r.entry))
            .expect("event recorded")
    };
    let tenant = outcome.tenant;
    let challenged = position(
        &|e| matches!(e, AuditEvent::AttestChallenge { epoch: 2, tenant: t, .. } if *t == tenant),
    );
    let verdict = position(&|e| {
        matches!(
            e,
            AuditEvent::AttestOutcome {
                epoch: 2,
                tenant: t,
                verdict: ChallengeVerdict::Compromised,
                ..
            } if *t == tenant
        )
    });
    let lane_fenced = position(
        &|e| matches!(e, AuditEvent::LaneFenced { tenant: t, drained: 2, .. } if *t == tenant),
    );
    let session_fenced =
        position(&|e| matches!(e, AuditEvent::SessionFenced { tenant: t, .. } if *t == tenant));
    let quarantined = position(&|e| {
        matches!(
            e,
            AuditEvent::HealthTransition {
                device,
                state: HealthState::Quarantined,
            } if *device == outcome.slot.device
        )
    });
    assert!(challenged < verdict);
    assert!(verdict < lane_fenced);
    assert!(lane_fenced < session_fenced);
    assert!(session_fenced < quarantined);
}

#[test]
fn zero_fault_sweeps_raise_no_false_positives() {
    let mut fleet = build_fleet(3, 1);
    for epoch in 1..=3u64 {
        let report = fleet.monitor.sweep(&mut fleet.plane).expect("sweep");
        assert_eq!(report.epoch, epoch);
        assert!(report.all_alive());
        assert_eq!(report.fenced(), 0);
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.outcomes.iter().all(|o| o.attempts == 1));
    }

    assert_eq!(fleet.node.free_slots(), 0, "no lane lost its slot");
    let snapshot = fleet.node.fleet_snapshot();
    assert!(snapshot
        .health
        .iter()
        .all(|r| r.state == HealthState::Healthy));

    let log = fleet.node.plane().audit_log();
    log.verify_chain().expect("chain verifies");
    assert!(log.records().iter().all(|r| !matches!(
        r.entry,
        AuditEvent::LaneFenced { .. } | AuditEvent::SessionFenced { .. }
    )));
    assert!(log.records().iter().all(|r| !matches!(
        r.entry,
        AuditEvent::AttestOutcome { verdict, .. } if verdict != ChallengeVerdict::Alive
    )));

    // Idempotency tokens never repeat across (epoch, lane) pairs.
    let tokens: Vec<u64> = log
        .records()
        .iter()
        .filter_map(|r| match r.entry {
            AuditEvent::AttestChallenge { token, .. } => Some(token),
            _ => None,
        })
        .collect();
    assert_eq!(tokens.len(), 12, "3 epochs × 4 lanes challenged");
    let mut unique = tokens.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), tokens.len(), "tokens collided");
}

#[test]
fn unreachable_lanes_exhaust_retries_then_time_out_and_fail_closed() {
    let mut fleet = build_fleet(5, 2);
    // Total fabric outage: every challenge frame is lost in flight.
    fleet.node.plane().install_fault_plan(&FaultPlan::new(
        5,
        FaultSpec::default().with_drop_per_mille(1000),
    ));
    let report = fleet.monitor.sweep(&mut fleet.plane).expect("sweep");
    fleet.node.plane().clear_fault_plan();

    assert_eq!(
        report.fenced(),
        4,
        "unreachable is indistinguishable from compromised"
    );
    let budget = fleet.monitor.policy().max_transient_retries + 1;
    for outcome in &report.outcomes {
        assert_eq!(outcome.verdict, ChallengeVerdict::TimedOut);
        assert_eq!(
            outcome.attempts, budget,
            "every transient retry is spent before failing closed"
        );
    }
    // Two timeouts per board under quarantine_after(2) → both boards out.
    let snapshot = fleet.node.fleet_snapshot();
    assert!(snapshot
        .health
        .iter()
        .all(|r| r.state == HealthState::Quarantined));
    assert_eq!(fleet.node.free_slots(), 4);
    fleet
        .node
        .plane()
        .audit_log()
        .verify_chain()
        .expect("chain verifies");
}

#[test]
fn any_sampled_bit_flip_in_the_serialized_chain_is_rejected() {
    let bytes = run_scenario(13);
    AuditLog::from_bytes(&bytes)
        .expect("clean bytes parse")
        .verify_chain()
        .expect("clean bytes verify");

    let mut rng = SplitMix64::new(0xB17F_11B5);
    for _ in 0..128 {
        let bit = rng.below((bytes.len() * 8) as u64) as usize;
        let mut forged = bytes.clone();
        forged[bit / 8] ^= 1 << (bit % 8);
        let rejected = match AuditLog::from_bytes(&forged) {
            Err(_) => true,
            Ok(log) => log.verify_chain().is_err(),
        };
        assert!(rejected, "bit flip at offset {bit} went undetected");
    }
}

#[test]
fn verify_chain_pinpoints_the_first_forged_record_of_a_fleet_log() {
    let mut fleet = build_fleet(9, 1);
    fleet.monitor.sweep(&mut fleet.plane).expect("sweep 1");
    fleet.tamper(VICTIM);
    fleet.monitor.sweep(&mut fleet.plane).expect("sweep 2");
    let log = fleet.node.plane().audit_log();
    log.verify_chain().expect("chain verifies");
    let records = log.records().to_vec();
    assert!(records.len() > 4);
    let k = records.len() / 2;

    // An attacker rewriting one mid-chain record is pinned to it.
    let mut forged = records.clone();
    forged[k].at += Duration::from_nanos(1);
    let fault = AuditLog::from_records(forged).verify_chain().unwrap_err();
    assert_eq!(fault.index, k);

    // Reordering two adjacent records is pinned to the earlier slot.
    let mut swapped = records.clone();
    swapped.swap(k - 1, k);
    let fault = AuditLog::from_records(swapped).verify_chain().unwrap_err();
    assert_eq!(fault.index, k - 1);

    // A truncated tail self-verifies, but no longer matches the head
    // the control plane pinned in its snapshot.
    let mut truncated = records;
    truncated.pop();
    let shorter = AuditLog::from_records(truncated);
    shorter.verify_chain().expect("prefixes are valid chains");
    assert_ne!(shorter.head(), log.head());
    assert_ne!(shorter.head(), fleet.node.fleet_snapshot().audit_head);
}

#[test]
fn rpc_backed_boots_survive_seeded_packet_loss() {
    let plane = ControlPlane::provision(
        PlatformConfig::quick(1, 2)
            .with_seed(17)
            .with_rpc_boot(true),
    )
    .expect("plane provisions");
    let policy = DeployPolicy::resilient().with_fault_plan(FaultPlan::new(
        17,
        FaultSpec::default().with_drop_per_mille(50),
    ));

    let tenant = plane.register_tenant("rpc-tenant");
    let deployment = plane
        .deploy_with(tenant, loopback_accelerator(), policy)
        .expect("resilient boot rides out the losses");
    assert!(
        deployment.bed.rpc_key_client.is_some(),
        "key distribution ran over the fabric endpoint"
    );
    assert!(deployment.outcome.report.all_attested());

    let log = plane.audit_log();
    log.verify_chain().expect("chain verifies");
    assert!(log
        .records()
        .iter()
        .any(|r| matches!(r.entry, AuditEvent::Deploy { tenant: t, .. } if t == tenant)));
}
