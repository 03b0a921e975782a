//! Crash-recovery chaos suite: kill the control plane at *every*
//! journal step of a fixed multi-tenant schedule and prove the
//! recovered fleet is equivalent to one that never crashed.
//!
//! The schedule exercises every journaled mutation — registration,
//! cold/warm deploys, eviction, warm-image redeploy, fencing — and the
//! sweep arms a [`CrashPlane`] at each successive crash point, drives
//! until the injected death, recovers via [`ControlPlane::recover`],
//! re-drives the interrupted step per its fired label, and finishes
//! the schedule. Invariants, per crash point × seed:
//!
//! 1. The final fleet fingerprint (occupancy, free slots, key cache,
//!    parked set, health records, tenant records) is byte-identical to
//!    the never-crashed baseline.
//! 2. No lease leaks: free + occupied always equals total, and the
//!    DRAM windows of co-resident tenants never overlap.
//! 3. The audit chain stays continuous through the crash: the
//!    pre-crash head is an interior digest of the recovered chain.
//! 4. Recovery is deterministic: the same seed and crash point yields
//!    a byte-identical journal and audit log on a second run.

use std::time::Duration;

use salus::core::boot::{BootOptions, BootPlan, RetryPolicy};
use salus::core::dev::loopback_accelerator;
use salus::core::platform::{
    AuditEvent, ControlPlane, DeployFailure, DeployPolicy, IntentOp, Journal, PlatformConfig,
    RecoveryReport, SlotId, TenantDeployment,
};
use salus::core::SalusError;
use salus::net::fault::{CrashPlane, FaultPlan, FaultSpec};

const SEEDS: [u64; 3] = [1, 7, 42];

/// Everything the equivalence check compares, rendered from a
/// snapshot. Virtual time and the chain heads are deliberately
/// excluded: a crashed-and-recovered run legitimately has extra audit
/// and journal records.
fn fingerprint(plane: &ControlPlane) -> String {
    let snap = plane.snapshot();
    format!(
        "free={} total={} occ={:?} keyed={:?} parked={:?} health={:?} tenants={:?}",
        snap.free_slots,
        snap.total_slots,
        snap.occupancy,
        snap.keyed_devices,
        snap.parked,
        snap.health,
        snap.tenants
    )
}

/// Asserts the no-leak invariants on a live plane: conserved slots and
/// pairwise-disjoint DRAM windows.
fn assert_no_leaks(plane: &ControlPlane) {
    let snap = plane.snapshot();
    assert_eq!(
        snap.free_slots + snap.occupancy.len(),
        snap.total_slots,
        "a lease leaked"
    );
    let windows: Vec<_> = snap
        .occupancy
        .iter()
        .map(|(slot, _)| (*slot, plane.dram_window(*slot).expect("window exists")))
        .collect();
    for (i, (sa, wa)) in windows.iter().enumerate() {
        for (sb, wb) in windows.iter().skip(i + 1) {
            if sa.device == sb.device {
                let disjoint = wa.base + wa.len <= wb.base || wb.base + wb.len <= wa.base;
                assert!(disjoint, "windows of {sa} and {sb} overlap");
            }
        }
    }
}

/// Crashes `plane`, recovers, and asserts the audit chain stayed
/// continuous through the handover. Returns the recovered plane and
/// the recovery report.
fn crash_and_recover(plane: ControlPlane) -> (ControlPlane, RecoveryReport) {
    let remains = plane.crash();
    let pre_head = remains.audit().head();
    let pre_len = remains.audit().len();
    let (recovered, report) = ControlPlane::recover(remains).expect("recovery succeeds");
    let audit = recovered.audit_log();
    audit
        .verify_chain()
        .expect("recovered audit chain verifies");
    if pre_len > 0 {
        assert_eq!(
            audit.records()[pre_len - 1].digest,
            pre_head,
            "pre-crash audit head must be an interior digest of the recovered chain"
        );
    }
    recovered.journal_log().verify().expect("journal verifies");
    (recovered, report)
}

/// The crash-sweep driver state: the plane (replaced wholesale on
/// recovery) plus whether a crash has fired yet.
struct Driver {
    plane: Option<ControlPlane>,
    crashed: bool,
    reports: Vec<RecoveryReport>,
}

impl Driver {
    fn new(seed: u64, crash_point: u64) -> Driver {
        let plane = ControlPlane::provision(PlatformConfig::quick(2, 2).with_seed(seed)).unwrap();
        plane.install_crash_plane(CrashPlane::at_point(crash_point));
        Driver {
            plane: Some(plane),
            crashed: false,
            reports: Vec::new(),
        }
    }

    fn plane(&self) -> &ControlPlane {
        self.plane.as_ref().unwrap()
    }

    fn recover(&mut self) {
        assert!(
            !self.crashed,
            "the inert recovered plane cannot crash again"
        );
        self.crashed = true;
        let (plane, report) = crash_and_recover(self.plane.take().unwrap());
        self.plane = Some(plane);
        self.reports.push(report);
    }

    /// Deploys `tenant`; on an injected crash, recovers and re-drives
    /// the deploy (both intent and pre-commit deaths roll back).
    fn deploy(&mut self, tenant: salus::core::platform::TenantId) -> TenantDeployment {
        match self.plane().deploy(tenant, loopback_accelerator()) {
            Ok(d) => d,
            Err(SalusError::CrashInjected(_)) => {
                self.recover();
                self.plane()
                    .deploy(tenant, loopback_accelerator())
                    .expect("re-driven deploy succeeds")
            }
            Err(e) => panic!("unexpected deploy failure: {e:?}"),
        }
    }

    /// Evicts `deployment`; an intent-point death hands the deployment
    /// back through the recovery report for a second try, a pre-commit
    /// death already rolled the eviction forward.
    fn evict(&mut self, deployment: TenantDeployment) {
        let tenant = deployment.tenant;
        match self.plane().evict(deployment) {
            Ok(_) => {}
            Err(SalusError::CrashInjected(_)) => {
                self.recover();
                let survivor = self.reports.last_mut().unwrap().survivors.pop();
                match survivor {
                    Some(d) => {
                        // Died at evict.intent: nothing happened, re-evict.
                        assert_eq!(d.tenant, tenant);
                        self.plane().evict(d).expect("re-driven evict");
                    }
                    None => {
                        // Died at evict.pre-commit: rolled forward.
                        assert!(
                            self.plane().has_parked(tenant),
                            "rolled-forward evict must leave the ciphertext parked"
                        );
                    }
                }
            }
            Err(e) => panic!("unexpected evict failure: {e:?}"),
        }
    }

    /// Redeploys `tenant`; any injected death rolls back and leaves the
    /// ciphertext parked, so the re-drive is a plain redeploy.
    fn redeploy(&mut self, tenant: salus::core::platform::TenantId) -> TenantDeployment {
        match self.plane().redeploy(tenant) {
            Ok(d) => d,
            Err(SalusError::CrashInjected(_)) => {
                self.recover();
                assert!(
                    self.plane().has_parked(tenant),
                    "rolled-back redeploy must keep the ciphertext parked"
                );
                self.plane().redeploy(tenant).expect("re-driven redeploy")
            }
            Err(e) => panic!("unexpected redeploy failure: {e:?}"),
        }
    }

    /// Fences `(tenant, slot)`; both injected deaths roll back (the
    /// slot stays journal-held), so the re-drive is a plain fence.
    fn fence(&mut self, tenant: salus::core::platform::TenantId, slot: SlotId) {
        match self.plane().fence_deployment(tenant, slot) {
            Ok(_) => {}
            Err(SalusError::CrashInjected(_)) => {
                self.recover();
                self.plane()
                    .fence_deployment(tenant, slot)
                    .expect("re-driven fence");
            }
            Err(e) => panic!("unexpected fence failure: {e:?}"),
        }
    }
}

/// Runs the fixed schedule under one seed with a crash armed at
/// `crash_point` (0 = never). Returns the driver for inspection.
fn run_schedule(seed: u64, crash_point: u64) -> Driver {
    let mut driver = Driver::new(seed, crash_point);
    let alice = driver.plane().register_tenant("alice");
    let bob = driver.plane().register_tenant("bob");
    let carol = driver.plane().register_tenant("carol");

    let da = driver.deploy(alice);
    let db = driver.deploy(bob);
    let _dc = driver.deploy(carol);

    driver.evict(da);
    let _da2 = driver.redeploy(alice);

    let (bob_tenant, bob_slot) = (db.tenant, db.slot);
    drop(db);
    driver.fence(bob_tenant, bob_slot);
    let _db2 = driver.deploy(bob);

    driver
}

#[test]
fn recovery_is_equivalent_to_never_crashing_at_every_crash_point() {
    for seed in SEEDS {
        let baseline = run_schedule(seed, 0);
        assert!(!baseline.crashed);
        let points = baseline.plane().crash_plane().ticks();
        assert!(
            points >= 14,
            "the schedule must expose the full crash-point catalog, got {points}"
        );
        let want = fingerprint(baseline.plane());
        assert_no_leaks(baseline.plane());

        for point in 1..=points {
            let driver = run_schedule(seed, point);
            assert!(
                driver.crashed,
                "seed {seed} point {point}: the armed crash never fired"
            );
            let got = fingerprint(driver.plane());
            assert_eq!(
                got, want,
                "seed {seed} point {point}: recovered fleet diverged from baseline"
            );
            assert_no_leaks(driver.plane());
        }
    }
}

#[test]
fn recovery_is_byte_deterministic_per_seed_and_crash_point() {
    for seed in SEEDS {
        let points = run_schedule(seed, 0).plane().crash_plane().ticks();
        for point in [1, points / 2, points] {
            let a = run_schedule(seed, point);
            let b = run_schedule(seed, point);
            assert_eq!(
                a.plane().journal_log().to_bytes(),
                b.plane().journal_log().to_bytes(),
                "seed {seed} point {point}: journals diverged across identical runs"
            );
            assert_eq!(
                a.plane().audit_log().to_bytes(),
                b.plane().audit_log().to_bytes(),
                "seed {seed} point {point}: audit chains diverged across identical runs"
            );
        }
    }
}

/// Short deadlines so lost messages cost little virtual time.
fn outage_policy() -> DeployPolicy {
    let retry = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(20),
        backoff_factor: 2,
        max_backoff: Duration::from_millis(200),
        jitter_per_mille: 0,
        deadline: Some(Duration::from_millis(500)),
    };
    DeployPolicy::resilient().with_plan(
        BootPlan::resilient()
            .with_retry(retry)
            .with_options(BootOptions {
                reuse_cached_device_key: true,
            })
            .with_suspend_on_outage(true),
    )
}

/// Parks one deploy on a manufacturer outage and returns the plane and
/// the suspension.
fn suspended_plane() -> (
    ControlPlane,
    salus::core::platform::DeploySuspension,
    salus::core::platform::TenantId,
) {
    let plane = ControlPlane::provision(PlatformConfig::quick(1, 1)).unwrap();
    let tenant = plane.register_tenant("alice");
    plane.install_fault_plan(&FaultPlan::new(
        7,
        FaultSpec::default().with_outage("manufacturer", Duration::ZERO, Duration::from_secs(600)),
    ));
    let failure = plane
        .deploy_with(tenant, loopback_accelerator(), outage_policy())
        .expect_err("outage must suspend");
    let DeployFailure::Suspended(suspension) = failure else {
        panic!("expected suspension, got {failure:?}");
    };
    (plane, *suspension, tenant)
}

#[test]
fn crash_at_abandon_intent_preserves_the_suspension() {
    let (plane, suspension, tenant) = suspended_plane();
    // The suspended deploy consumed its own ticks; arm the next one.
    plane.install_crash_plane(CrashPlane::at_point(1));
    let err = plane.abandon_deploy(suspension);
    assert_eq!(
        err,
        SalusError::CrashInjected("process crash at abandon.intent")
    );

    let (recovered, mut report) = crash_and_recover(plane);
    let survivor = report
        .survivor_suspensions
        .pop()
        .expect("the suspension survives in the tenant process");
    assert_eq!(survivor.tenant(), tenant);
    assert_eq!(recovered.free_slots(), 0, "the slot stays reserved");

    let err = recovered.abandon_deploy(survivor);
    assert!(err.is_transient(), "outage error classifies transient");
    assert_eq!(recovered.free_slots(), 1);
    assert_eq!(recovered.tenant_record(tenant).unwrap().failed_deploys, 1);
    let abandons = recovered
        .audit_log()
        .records()
        .iter()
        .filter(|r| matches!(r.entry, AuditEvent::DeployAbandoned { .. }))
        .count();
    assert_eq!(abandons, 1, "exactly one abandon reaches the audit chain");
}

#[test]
fn crash_at_abandon_pre_commit_rolls_forward() {
    let (plane, suspension, tenant) = suspended_plane();
    plane.install_crash_plane(CrashPlane::at_point(2));
    let err = plane.abandon_deploy(suspension);
    assert_eq!(
        err,
        SalusError::CrashInjected("process crash at abandon.pre-commit")
    );

    let (recovered, report) = crash_and_recover(plane);
    assert_eq!(
        report.rolled_forward, 1,
        "the consumed abandon rolls forward"
    );
    assert!(report.survivor_suspensions.is_empty());
    assert_eq!(
        recovered.free_slots(),
        1,
        "the slot is free after roll-forward"
    );
    assert_eq!(recovered.tenant_record(tenant).unwrap().failed_deploys, 1);
    let abandons = recovered
        .audit_log()
        .records()
        .iter()
        .filter(|r| matches!(r.entry, AuditEvent::DeployAbandoned { .. }))
        .count();
    assert_eq!(
        abandons, 1,
        "the pre-crash abandon audit is preserved, once"
    );
}

#[test]
fn crash_at_resume_intent_preserves_the_suspension() {
    let (plane, suspension, tenant) = suspended_plane();
    plane.install_crash_plane(CrashPlane::at_point(1));
    let failure = plane.resume_deploy(suspension).expect_err("crash injected");
    let DeployFailure::Rejected(SalusError::CrashInjected(point)) = failure else {
        panic!("expected injected crash, got {failure:?}");
    };
    assert_eq!(point, "process crash at resume.intent");

    let (recovered, mut report) = crash_and_recover(plane);
    let survivor = report
        .survivor_suspensions
        .pop()
        .expect("the suspension survives in the tenant process");
    assert_eq!(recovered.free_slots(), 0, "the slot stays reserved");

    // Outage over: the re-driven resume completes the cold boot on the
    // same slot.
    recovered.clear_fault_plan();
    let d = recovered
        .resume_deploy(survivor)
        .expect("re-driven resume succeeds");
    assert_eq!(d.tenant, tenant);
    assert!(d.outcome.report.all_attested());
    assert_eq!(recovered.tenant_record(tenant).unwrap().cold_deploys, 1);
}

#[test]
fn crash_after_a_failed_boot_abort_replays_the_charges() {
    let run = |crash_point: u64| {
        let plane = ControlPlane::provision(PlatformConfig::quick(1, 1)).unwrap();
        let tenant = plane.register_tenant("alice");
        plane.install_crash_plane(CrashPlane::at_point(crash_point));
        // Everything drops: the boot fails transient, the deploy's
        // single placement aborts.
        let policy = outage_policy()
            .with_plan(
                BootPlan::resilient()
                    .with_retry(RetryPolicy {
                        max_attempts: 2,
                        base_backoff: Duration::from_millis(20),
                        backoff_factor: 2,
                        max_backoff: Duration::from_millis(200),
                        jitter_per_mille: 0,
                        deadline: Some(Duration::from_millis(500)),
                    })
                    .with_suspend_on_outage(false),
            )
            .with_placements(1)
            .with_fault_plan(FaultPlan::new(
                3,
                FaultSpec::default().with_drop_per_mille(1000),
            ));
        let failure = plane
            .deploy_with(tenant, loopback_accelerator(), policy)
            .expect_err("the dark fabric must fail the boot");
        (plane, tenant, failure)
    };

    // Baseline: no crash — the abort path charges board and tenant.
    let (baseline, tenant, failure) = run(0);
    assert!(matches!(failure, DeployFailure::Failed { .. }));
    let want = fingerprint(&baseline);
    assert_eq!(baseline.tenant_record(tenant).unwrap().failed_deploys, 1);

    // Crash immediately after the abort record (tick 2 = deploy.abort):
    // the live charges never happened; replay must reproduce them.
    let (plane, tenant, failure) = run(2);
    assert!(matches!(
        failure,
        DeployFailure::Rejected(SalusError::CrashInjected(_))
    ));
    let (recovered, _) = crash_and_recover(plane);
    assert_eq!(
        fingerprint(&recovered),
        want,
        "replayed failure charges diverged from the live ones"
    );
    assert_eq!(recovered.tenant_record(tenant).unwrap().failed_deploys, 1);
}

#[test]
fn journal_contradicted_by_the_board_fences_and_charges() {
    let plane = ControlPlane::provision(PlatformConfig::quick(1, 2)).unwrap();
    let alice = plane.register_tenant("alice");
    let seed = plane.tenant_record(alice).unwrap().seed;
    let real_journal = plane.journal_log();

    // Forge a journal claiming alice runs on partition 1 — a slot no
    // boot ever configured. The chain itself is valid; only the board
    // contradicts it.
    let mut forged = Journal::new();
    let at = Duration::ZERO;
    let op = forged.begin(
        at,
        IntentOp::Register {
            tenant: alice,
            name: "alice".to_owned(),
            seed,
        },
    );
    forged.commit(at, op, None, Duration::ZERO);
    let slot = SlotId {
        device: 0,
        partition: 1,
    };
    let op = forged.begin(
        at,
        IntentOp::Deploy {
            tenant: alice,
            slot,
        },
    );
    forged.commit(
        at,
        op,
        Some(salus::core::platform::DeployPath::Cold),
        Duration::ZERO,
    );
    assert_ne!(forged.head(), real_journal.head());

    let remains = plane.crash().with_journal(forged);
    let (recovered, report) = ControlPlane::recover(remains).expect("recovery succeeds");
    assert_eq!(report.contradictions, vec![slot]);
    assert_eq!(
        recovered.free_slots(),
        2,
        "the contradicted slot is fenced, not leased"
    );
    let health = recovered.device_health();
    assert_eq!(health[0].total_failures, 1, "the lying board is charged");
    assert_eq!(recovered.tenant_record(alice).unwrap().failed_deploys, 1);
    let fences = recovered
        .audit_log()
        .records()
        .iter()
        .filter(|r| matches!(r.entry, AuditEvent::SessionFenced { .. }))
        .count();
    assert_eq!(fences, 1, "the contradiction lands in the audit chain");
}

#[test]
fn abandon_audits_a_deploy_abandoned_event() {
    let (plane, suspension, tenant) = suspended_plane();
    let slot = suspension.slot();
    let err = plane.abandon_deploy(suspension);
    assert!(err.is_transient());
    let audit = plane.audit_log();
    let last = audit.records().last().expect("audit is non-empty");
    assert_eq!(
        last.entry,
        AuditEvent::DeployAbandoned { tenant, slot },
        "abandoning must audit its own event, not a generic failure"
    );
    assert!(
        !audit
            .records()
            .iter()
            .any(|r| matches!(r.entry, AuditEvent::DeployFailed { .. })),
        "no failure event is forged for an abandon"
    );
}

#[test]
fn snapshot_pins_the_journal_head() {
    let plane = ControlPlane::provision(PlatformConfig::quick(1, 1)).unwrap();
    let before = plane.snapshot().journal_head;
    assert_eq!(
        before,
        Journal::new().head(),
        "empty journal = genesis head"
    );
    let tenant = plane.register_tenant("alice");
    let _ = plane.deploy(tenant, loopback_accelerator()).unwrap();
    let snap = plane.snapshot();
    assert_ne!(snap.journal_head, before, "mutations move the journal head");
    assert_eq!(snap.journal_head, plane.journal_log().head());
}
