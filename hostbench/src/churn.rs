//! `tenant_churn`: one long-lived paper-scale node driven by a seeded
//! stream of tenant arrivals and departures, ending in repeated crash
//! recoveries. It runs the bitstream → crypto seal → ICAP → journal path
//! and no serving.

use std::time::{Duration, Instant};

use salus::bitstream::encrypt::encrypt_for_device_with;
use salus::bitstream::manipulate::rewrite_cells;
use salus::core::dev::{develop_cl, loopback_accelerator, package_digest};
use salus::core::platform::{
    ControlPlane, DeployPath, PlatformConfig, SlotId, TenantDeployment, TenantId,
};
use salus::crypto::gcm::AesGcm256;
use salus::fpga::shell::Shell;

use crate::run::Run;
use crate::trace::Rng;

/// Depart/arrive cycles of the measured stream. Long enough that the
/// node exhausts its SGX platform's enclave page cache (`MAX_ENCLAVES` =
/// 64, two enclaves per full deploy, none ever unloaded) and every later
/// full deploy panics inside the control plane, leaking the slot it
/// leased. The stream is not shortened to avoid that: the failures are
/// the baseline `ok_ops_ratio` and `failed.panic` report.
pub const FULL_CYCLES: usize = 64;

/// Cycles of the short stream the serve workloads run between their
/// serving blocks, below the enclave limit (16 full deploys per node).
pub const SHORT_CYCLES: usize = 24;

/// Crash → recover rounds at the end of every node's lifetime.
const RECOVERIES: usize = 16;

/// What an arriving tenant is. The kinds alternate in a fixed order so
/// every seed attempts the same operation mix; the seed picks who
/// departs and who returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrival {
    New,
    Returning,
}

const PATTERN: [Arrival; 2] = [Arrival::New, Arrival::Returning];

const DEVICES: usize = 2;
const PARTITIONS: usize = 2;

enum State {
    Running(Box<TenantDeployment>),
    Parked(SlotId),
    Gone,
}

struct Tenant {
    id: TenantId,
    state: State,
}

/// Provisions the churn node: two U200 boards split into two
/// partitions each, paper-calibrated costs.
///
/// # Errors
///
/// Provisioning failures.
pub fn provision(seed: u64) -> Result<ControlPlane, salus::core::SalusError> {
    ControlPlane::provision(PlatformConfig::paper(DEVICES, PARTITIONS).with_seed(seed))
}

/// Provisions `reps` nodes and returns the median provisioning time in
/// seconds together with the last node.
pub fn setup(seed: u64, reps: usize) -> (f64, ControlPlane) {
    let mut times = Vec::new();
    let mut plane = None;
    for _ in 0..reps {
        drop(plane.take());
        let t0 = Instant::now();
        plane = Some(provision(seed).expect("churn node provisions"));
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        crate::trace::median(&times),
        plane.expect("at least one setup"),
    )
}

/// Runs epochs of `cycles` depart/arrive cycles (fresh nodes, same
/// seeded stream) until `budget` has elapsed, at least one. `first` is
/// the node the first epoch uses; `between` runs after every cycle.
pub fn run_epochs(
    first: ControlPlane,
    seed: u64,
    cycles: usize,
    budget: Duration,
    run: &mut Run,
    mut between: impl FnMut(&mut Run),
) {
    let start = Instant::now();
    let mut plane = Some(first);
    loop {
        let node = plane
            .take()
            .unwrap_or_else(|| provision(seed).expect("churn node provisions"));
        epoch(node, seed, cycles, run, &mut between);
        // One node lifetime's memory: later epochs only add allocator
        // fragmentation, which varies from process to process.
        run.peak_rss_mb
            .get_or_insert_with(crate::trace::peak_rss_mb);
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// One node's lifetime: fill, churn, verify, crash and recover.
fn epoch(
    plane: ControlPlane,
    seed: u64,
    cycles: usize,
    run: &mut Run,
    between: &mut impl FnMut(&mut Run),
) {
    let mut rng = Rng::new(seed, 0xC4_0211);
    let mut tenants: Vec<Tenant> = Vec::new();
    let mut keyed = [false; DEVICES];
    let mut shells: Vec<Option<Shell>> = vec![None; DEVICES];
    let mut replayed_bytes = 0usize;
    {
        let mut ctx = Ctx {
            plane: &plane,
            run: &mut *run,
            keyed: &mut keyed,
            shells: &mut shells,
            replayed_bytes: &mut replayed_bytes,
            seed,
        };
        for _ in 0..DEVICES * PARTITIONS {
            arrive_new(&mut ctx, &mut tenants);
        }
        for cycle in 0..cycles {
            depart(&mut ctx, &mut tenants, &mut rng);
            match PATTERN[cycle % PATTERN.len()] {
                Arrival::New => arrive_new(&mut ctx, &mut tenants),
                Arrival::Returning => arrive_returning(&mut ctx, &mut tenants, &mut rng),
            }
            between(ctx.run);
        }
    }

    verify_logs(&plane, run, "live plane");
    run.layer
        .insert("core.journal.records", plane.journal_log().len() as f64);
    run.layer
        .insert("core.audit.records", plane.audit_log().len() as f64);
    if run.tracer.is_on() {
        let observed: usize = shells
            .iter()
            .flatten()
            .map(|s| s.observed_bitstreams().iter().map(Vec::len).sum::<usize>())
            .sum();
        run.layer.insert(
            "fpga.shell_observed_mb",
            (observed - replayed_bytes) as f64 / 1e6,
        );
    }

    let mut plane = plane;
    for _ in 0..RECOVERIES {
        let remains = plane.crash();
        let op = run.op();
        let before = run.probe_ms();
        let t0 = Instant::now();
        let span = run.tracer.enter("core.platform.recover", op);
        let recovered = run.guarded(|| ControlPlane::recover(remains));
        run.tracer.exit(span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let probe = before.max(run.probe_ms());
        match recovered {
            Some((p, _report)) => {
                run.recover_ms.push(ms, probe);
                verify_logs(&p, run, "recovered plane");
                plane = p;
            }
            // The crash consumed the plane; without a recovered one the
            // epoch has nothing left to drive.
            None => return,
        }
    }
    run.layer
        .insert("core.platform.free_slots_end", plane.free_slots() as f64);
    // Release the tenants' deployments before the node they ran on.
    drop(tenants);
}

/// Borrowed epoch state shared by the stream steps.
struct Ctx<'a> {
    plane: &'a ControlPlane,
    run: &'a mut Run,
    keyed: &'a mut [bool; DEVICES],
    shells: &'a mut Vec<Option<Shell>>,
    replayed_bytes: &'a mut usize,
    seed: u64,
}

/// Checks the journal and audit chain, timing each verifier.
fn verify_logs(plane: &ControlPlane, run: &mut Run, which: &str) {
    let op = run.op();
    let journal = plane.journal_log();
    let journal_ok = run
        .tracer
        .span("core.journal.verify", op, || journal.verify().is_ok());
    let audit = plane.audit_log();
    let audit_ok = run
        .tracer
        .span("core.audit.verify", op, || audit.verify_chain().is_ok());
    if !journal_ok {
        run.wrong(format!("journal failed verification on the {which}"));
    }
    if !audit_ok {
        run.wrong(format!("audit chain failed verification on the {which}"));
    }
}

fn arrive_new(ctx: &mut Ctx<'_>, tenants: &mut Vec<Tenant>) {
    let id = ctx
        .plane
        .register_tenant(&format!("tenant-{}", tenants.len()));
    let state = full_deploy(ctx, id).map_or(State::Gone, |d| State::Running(Box::new(d)));
    tenants.push(Tenant { id, state });
}

/// A returning tenant comes back warm-image, and only to a parked slot
/// that is free. With none free it falls back to a full deploy, as
/// `SalusNode::redeploy` does.
fn arrive_returning(ctx: &mut Ctx<'_>, tenants: &mut [Tenant], rng: &mut Rng) {
    let held: Vec<SlotId> = ctx.plane.occupancy().into_iter().map(|(s, _)| s).collect();
    let parked: Vec<(usize, SlotId)> = tenants
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match t.state {
            State::Parked(slot) => Some((i, slot)),
            _ => None,
        })
        .collect();
    if parked.is_empty() {
        return;
    }
    let free: Vec<(usize, SlotId)> = parked
        .iter()
        .copied()
        .filter(|(_, slot)| !held.contains(slot))
        .collect();
    if free.is_empty() {
        let (i, _) = parked[rng.below(parked.len())];
        if let Some(d) = full_deploy(ctx, tenants[i].id) {
            tenants[i].state = State::Running(Box::new(d));
        }
        return;
    }
    let (i, slot) = free[rng.below(free.len())];
    let tenant = tenants[i].id;
    let run = &mut *ctx.run;
    let op = run.op();
    let before = run.probe_ms();
    let t0 = Instant::now();
    let span = run.tracer.enter("core.platform.redeploy", op);
    let outcome = run.guarded(|| ctx.plane.redeploy(tenant));
    run.tracer.exit(span);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let probe = before.max(run.probe_ms());
    if let Some(d) = outcome {
        if d.path != DeployPath::WarmImage || d.slot != slot || !d.outcome.report.all_attested() {
            run.wrong(format!(
                "redeploy of {tenant:?} took {:?} on {} (parked on {slot}), attested: {}",
                d.path,
                d.slot,
                d.outcome.report.all_attested()
            ));
        }
        run.redeploy_ms.push(ms, probe);
        tenants[i].state = State::Running(Box::new(d));
    }
}

fn depart(ctx: &mut Ctx<'_>, tenants: &mut [Tenant], rng: &mut Rng) {
    let running: Vec<usize> = tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t.state, State::Running(_)))
        .map(|(i, _)| i)
        .collect();
    if running.is_empty() {
        return;
    }
    let i = running[rng.below(running.len())];
    let State::Running(d) = std::mem::replace(&mut tenants[i].state, State::Gone) else {
        unreachable!("picked from the running tenants");
    };
    let slot = d.slot;
    let run = &mut *ctx.run;
    let op = run.op();
    let span = run.tracer.enter("core.platform.evict", op);
    let evicted = run.guarded(|| ctx.plane.evict(*d));
    run.tracer.exit(span);
    if evicted.is_some() {
        tenants[i].state = State::Parked(slot);
    }
}

/// A full (cold or warm-key) deploy of the loopback CL, checked for the
/// path the board's key-cache state implies and a fully attested
/// cascade. Traced runs then replay its layers.
fn full_deploy(ctx: &mut Ctx<'_>, tenant: TenantId) -> Option<TenantDeployment> {
    let run = &mut *ctx.run;
    let op = run.op();
    let before = run.probe_ms();
    let t0 = Instant::now();
    let span = run.tracer.enter("core.platform.deploy", op);
    let outcome = run.guarded(|| ctx.plane.deploy(tenant, loopback_accelerator()));
    run.tracer.exit(span);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let probe = before.max(run.probe_ms());
    let d = outcome?;
    let device = d.slot.device;
    let expected = if ctx.keyed[device] {
        DeployPath::WarmKey
    } else {
        DeployPath::Cold
    };
    if d.path != expected || !d.outcome.report.all_attested() {
        run.wrong(format!(
            "deploy of {tenant:?} took {:?}, expected {expected:?}; attested: {}",
            d.path,
            d.outcome.report.all_attested()
        ));
    }
    ctx.keyed[device] = true;
    run.deploy_ms.push(ms, probe);
    run.deploy_model_s
        .push(d.outcome.breakdown.total().as_secs_f64());
    if ctx.shells[device].is_none() {
        ctx.shells[device] = Some(d.bed.shell.clone());
    }
    if run.tracer.is_on() {
        match replay_layers(ctx.plane, &d, run, op, ctx.seed) {
            Ok(bytes) => *ctx.replayed_bytes += bytes,
            Err(e) => run.wrong(format!("layer replay after deploy of {tenant:?}: {e}")),
        }
    }
    Some(d)
}

/// Replays the layers of a full deploy on byte-identical inputs taken
/// from the deployed bed, each in its own span under the deploy's op
/// id. Returns the bytes the ICAP replay added to the shell's log.
fn replay_layers(
    plane: &ControlPlane,
    d: &TenantDeployment,
    run: &mut Run,
    op: u64,
    seed: u64,
) -> Result<usize, String> {
    let bed = &d.bed;
    let geometry = plane
        .device_geometry(d.slot.device)
        .ok_or("unknown device")?
        .partitions[d.slot.partition];
    let package = run
        .tracer
        .span("bitstream.develop_cl", op, || {
            develop_cl(loopback_accelerator(), geometry, bed.partition)
        })
        .map_err(|e| e.to_string())?;
    if package.digest != bed.package.digest {
        return Err("recompiled CL differs from the deployed package".into());
    }
    let meta = bed.package.metadata();
    let digest = run.tracer.span("bitstream.package_digest", op, || {
        package_digest(&bed.cl_store, &meta.locations, meta.partition, meta.family)
    });
    if digest != meta.digest {
        return Err("package digest differs from the published one".into());
    }
    let secret = [0x5Au8; 64];
    let cells = [
        &meta.locations.key_attest,
        &meta.locations.key_session,
        &meta.locations.ctr_session,
    ];
    let updates: Vec<_> = cells
        .iter()
        .map(|loc| (*loc, &secret[..loc.capacity.min(secret.len())]))
        .collect();
    let manipulated = run
        .tracer
        .span("bitstream.rewrite_cells", op, || {
            rewrite_cells(&bed.cl_store, &updates)
        })
        .map_err(|e| e.to_string())?;
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    let cipher = AesGcm256::new(&key);
    let nonce = [7u8; 12];
    let dna = bed.shell.advertised_dna();
    let sealed = run.tracer.span("crypto.seal", op, || {
        encrypt_for_device_with(&manipulated, &cipher, &nonce, dna)
    });
    std::hint::black_box(&sealed);
    let loaded = bed
        .shell
        .observed_bitstreams()
        .pop()
        .ok_or("the shell saw no stream")?;
    run.tracer
        .span("fpga.icap_load", op, || bed.shell.deploy_bitstream(&loaded))
        .map_err(|e| e.to_string())?;
    if !bed.shell.partition_configured(bed.partition) {
        return Err("partition unconfigured after the ICAP replay".into());
    }
    run.layer
        .insert("bitstream.stream_mb", loaded.len() as f64 / 1e6);
    Ok(loaded.len())
}
