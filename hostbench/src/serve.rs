//! `serve_plain` / `serve_verified`: a paper-calibrated node with four
//! serving lanes (Conv and Affine alternating) under a closed loop of
//! eight clients per lane, with one re-attestation sweep per round.
//! After setup it runs serving, CTR/DMA and accelerator compute, and no
//! bitstream work; the verified variant adds Merkle session refresh.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use salus::accel::apps::affine::Affine;
use salus::accel::apps::conv::Conv;
use salus::accel::integrity::buffer_root;
use salus::accel::profile::AppProfile;
use salus::accel::workload::Workload;
use salus::attest::ReattestMonitor;
use salus::bitstream::netlist::Module;
use salus::core::platform::{DeployPath, PlatformConfig};
use salus::core::runtime_attest::AttestPolicy;
use salus::crypto::ctr::AesCtr128;
use salus::node::{node_geometry, SalusNode};
use salus::serving::{ClientId, LaneId, ServeError, ServingConfig, ServingPlane};
use salus::session::MemoryProtection;

use crate::run::{Failure, Regime, Run};
use crate::trace::Rng;

const DEVICES: usize = 2;
const PARTITIONS: usize = 2;
/// Closed-loop clients per lane: each sends one request per round and
/// waits for its response.
pub const CLIENTS: usize = 8;
const MAX_BATCH: usize = 8;
/// Rounds whose model (`SimClock`) time feeds the model metrics: a
/// fixed prefix, so those metrics repeat exactly for a seed however
/// many rounds the wall-clock budget allows.
pub const MODEL_ROUNDS: usize = 32;
/// Payload bytes each client perturbs, at seeded offsets.
const PERTURBED_BYTES: usize = 4;

/// Start/end instants of accelerator `compute` calls.
type ComputeLog = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// A workload decorator that logs every `compute` call the simulated
/// accelerator makes. Handed to `SalusNode::deploy`, whose accelerator
/// calls this `compute`.
struct Timed {
    inner: Box<dyn Workload>,
    log: ComputeLog,
}

impl Workload for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn input(&self) -> &[u8] {
        self.inner.input()
    }

    fn compute(&self, input: &[u8]) -> Vec<u8> {
        let start = Instant::now();
        let out = self.inner.compute(input);
        let end = Instant::now();
        self.log
            .lock()
            .expect("compute log holder never panics")
            .push((start, end));
        out
    }

    fn accelerator_module(&self) -> Module {
        self.inner.accelerator_module()
    }

    fn profile(&self) -> AppProfile {
        self.inner.profile()
    }

    fn encrypt_output(&self) -> bool {
        self.inner.encrypt_output()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(Timed {
            inner: self.inner.clone_box(),
            log: Arc::clone(&self.log),
        })
    }
}

/// One serving lane: its id and the undecorated CPU reference.
struct Lane {
    id: LaneId,
    reference: Box<dyn Workload>,
}

/// A provisioned serving node.
pub struct Serving {
    plane: ServingPlane,
    monitor: ReattestMonitor,
    lanes: Vec<Lane>,
    log: ComputeLog,
    rng: Rng,
    round: u64,
    ctr_buf: Vec<u8>,
}

fn lane_workload(slot: usize) -> Box<dyn Workload> {
    if slot.is_multiple_of(2) {
        Box::new(Conv::paper_scale())
    } else {
        Box::new(Affine::paper_scale())
    }
}

/// Provisions the node and deploys and attaches its four lanes. Every
/// lane's workload is wrapped in the compute decorator; it only logs,
/// and the log is read only in traced phases.
///
/// # Errors
///
/// Provisioning or deploy failures, or a deploy that took the wrong
/// path or did not attest fully.
pub fn setup(seed: u64, protection: MemoryProtection) -> Result<Serving, String> {
    let node = SalusNode::provision(
        PlatformConfig::paper(DEVICES, PARTITIONS)
            .with_geometry(node_geometry(PARTITIONS))
            .with_seed(seed),
    )
    .map_err(|e| e.to_string())?;
    let mut plane = ServingPlane::new(ServingConfig::pipelined(MAX_BATCH).with_capacity(CLIENTS));
    plane.audit_to(&node);
    let log: ComputeLog = Arc::default();
    let mut lanes = Vec::new();
    let mut keyed = [false; DEVICES];
    for slot in 0..DEVICES * PARTITIONS {
        let tenant = node.register_tenant(&format!("lane-{slot}"));
        let reference = lane_workload(slot);
        let timed = Timed {
            inner: reference.clone_box(),
            log: Arc::clone(&log),
        };
        let session = node
            .deploy_protected(tenant, &timed, protection)
            .map_err(|e| e.to_string())?;
        let tenancy = session.tenancy().ok_or("fleet deploy without tenancy")?;
        let device = tenancy.slot.device;
        let expected = if keyed[device] {
            DeployPath::WarmKey
        } else {
            DeployPath::Cold
        };
        keyed[device] = true;
        if tenancy.path != expected || !session.report().all_attested() {
            return Err(format!(
                "lane {slot} deployed {:?} (expected {expected:?}), attested: {}",
                tenancy.path,
                session.report().all_attested()
            ));
        }
        let id = plane.attach(session, &timed);
        lanes.push(Lane { id, reference });
    }
    let monitor = ReattestMonitor::new(node, AttestPolicy::default());
    Ok(Serving {
        plane,
        monitor,
        lanes,
        log,
        rng: Rng::new(seed, 0x5E_87E),
        round: 0,
        ctr_buf: Vec::new(),
    })
}

/// Sets up `reps` times and returns the median setup time in seconds
/// with the last node.
///
/// # Errors
///
/// As [`setup`].
pub fn setup_median(
    seed: u64,
    protection: MemoryProtection,
    reps: usize,
) -> Result<(f64, Serving), String> {
    let mut times = Vec::new();
    let mut serving = None;
    for _ in 0..reps {
        drop(serving.take());
        let t0 = Instant::now();
        serving = Some(setup(seed, protection)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((crate::trace::median(&times), serving.ok_or("no setup ran")?))
}

impl Serving {
    /// Runs rounds until `budget` has elapsed and at least `min_rounds`
    /// have run.
    pub fn run_for(&mut self, budget: Duration, min_rounds: usize, run: &mut Run) {
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < min_rounds || start.elapsed() < budget {
            self.round(run, true);
            rounds += 1;
        }
    }

    /// Cumulative integrity-engine counters over every lane.
    fn integrity_totals(&mut self) -> [u64; 3] {
        let mut totals = [0u64; 3];
        for lane in &self.lanes {
            if let Ok(s) = self.plane.lane_integrity_stats(lane.id) {
                totals[0] += s.full_builds;
                totals[1] += s.incr_refreshes;
                totals[2] += s.chunks_rehashed;
            }
        }
        totals
    }

    /// One closed-loop round: every client of every lane submits one
    /// request, the plane drains, every client takes its response, and
    /// one re-attestation sweep runs. Only that is timed; payloads are
    /// generated before and responses checked against the CPU
    /// reference after. An untimed round is served, checked and counted
    /// all the same; only its time is not recorded (a warm-up).
    pub fn round(&mut self, run: &mut Run, timed: bool) {
        self.round += 1;
        let op = run.op();
        let mut payloads = Vec::with_capacity(self.lanes.len() * CLIENTS);
        for lane in &self.lanes {
            for client in 0..CLIENTS {
                let mut payload = lane.reference.input().to_vec();
                for _ in 0..PERTURBED_BYTES {
                    let at = self.rng.below(payload.len());
                    payload[at] ^= (self.rng.next_u64() as u8) | 1;
                }
                payloads.push((lane.id, ClientId(client as u64), payload));
            }
        }
        let submitted: Vec<Vec<u8>> = payloads.iter().map(|(_, _, p)| p.clone()).collect();
        let integrity_before = run.tracer.is_on().then(|| self.integrity_totals());
        self.log
            .lock()
            .expect("compute log holder never panics")
            .clear();

        let before = run.probe_ms();
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(payloads.len());
        for (lane, client, payload) in payloads {
            run.attempt(Regime::Serving);
            let submitted = run.tracer.span("serving.submit", op, || {
                self.plane.submit(lane, client, payload)
            });
            match submitted {
                Ok(h) => handles.push(Some(h)),
                Err(e) => {
                    run.fail(Regime::Serving, serve_failure(&e));
                    handles.push(None);
                }
            }
        }
        let drain_span = run.tracer.enter("serving.drain", op);
        let drained = self.plane.drain();
        run.tracer.exit(drain_span);
        let mut responses = Vec::with_capacity(handles.len());
        for handle in &handles {
            let response =
                handle.map(|h| run.tracer.span("serving.take", op, || self.plane.take(h)));
            responses.push(response);
        }
        run.attempt(Regime::Serving);
        let swept = run
            .tracer
            .span("attest.sweep", op, || self.monitor.sweep(&mut self.plane));
        let round_ms = t0.elapsed().as_secs_f64() * 1e3;
        let probe = before.max(run.probe_ms());

        let report = match drained {
            Ok(report) => Some(report),
            Err(e) => {
                run.wrong(format!("drain failed in round {}: {e}", self.round));
                None
            }
        };
        match swept {
            Ok(epoch) if epoch.all_alive() => {}
            Ok(_) => run.wrong(format!("a healthy lane was fenced in round {}", self.round)),
            Err(e) => run.fail(Regime::Serving, Failure::of(&e)),
        }
        let mut served = 0u64;
        let (mut bytes_in, mut bytes_out) = (0usize, 0usize);
        let mut outputs = Vec::new();
        for (i, response) in responses.into_iter().enumerate() {
            let lane = &self.lanes[i / CLIENTS];
            match response {
                None => {}
                Some(Err(e)) => run.fail(Regime::Serving, serve_failure(&e)),
                Some(Ok(bytes)) => {
                    if bytes != lane.reference.compute(&submitted[i]) {
                        run.wrong(format!(
                            "round {} lane {} client {}: response differs from the CPU reference",
                            self.round,
                            lane.id.0,
                            i % CLIENTS
                        ));
                    }
                    served += 1;
                    bytes_in += submitted[i].len();
                    bytes_out += bytes.len();
                    outputs.push(bytes);
                }
            }
        }
        if timed {
            run.round_ms.push(round_ms, probe);
            run.served += served;
        }
        if let Some(report) = &report {
            if run.model_rounds < MODEL_ROUNDS {
                // Every request of a round arrives at the same virtual
                // instant, so the round's model makespan from that
                // instant is its largest latency. `report.makespan` is
                // not used: it counts from virtual time zero, not from
                // the drain's start.
                let makespan = report.latencies.iter().max().copied().unwrap_or_default();
                run.model_rounds += 1;
                run.model_requests += report.requests as u64;
                run.model_makespan_s += makespan.as_secs_f64();
                run.model_latency_ms
                    .extend(report.latencies.iter().map(|l| l.as_secs_f64() * 1e3));
            }
        }
        if run.tracer.is_on() {
            self.trace_round(
                run,
                op,
                drain_span,
                report.as_ref(),
                integrity_before,
                &submitted,
                &outputs,
                bytes_in,
                bytes_out,
            );
        }
    }

    /// Per-layer values of one traced round: the decorator's compute
    /// spans, the batch and byte counts, the integrity counters, and the
    /// CTR and Merkle-root replays over the round's bytes.
    #[allow(clippy::too_many_arguments)]
    fn trace_round(
        &mut self,
        run: &mut Run,
        op: u64,
        drain_span: crate::trace::SpanId,
        report: Option<&salus::serving::ServingReport>,
        integrity_before: Option<[u64; 3]>,
        payloads: &[Vec<u8>],
        responses: &[Vec<u8>],
        bytes_in: usize,
        bytes_out: usize,
    ) {
        let calls = std::mem::take(&mut *self.log.lock().expect("compute log holder never panics"));
        run.layer_push("accel.compute_calls", calls.len() as f64);
        for (start, end) in calls {
            run.tracer
                .record("accel.compute", op, drain_span, start, end);
        }
        if let Some(report) = report {
            run.layer_push("serving.batches", report.batches as f64);
            run.layer_push("serving.mean_batch_size", report.mean_batch_size());
        }
        run.layer_push("serving.bytes_in", bytes_in as f64);
        run.layer_push("serving.bytes_out", bytes_out as f64);
        if let Some(before) = integrity_before {
            let after = self.integrity_totals();
            for (k, name) in [
                "integrity.full_builds",
                "integrity.incr_refreshes",
                "integrity.chunks_rehashed",
            ]
            .into_iter()
            .enumerate()
            {
                run.layer_push(name, (after[k] - before[k]) as f64);
            }
        }

        let key = [0x3Cu8; 16];
        let iv = [0xC3u8; 16];
        self.ctr_buf.resize(bytes_in + bytes_out, 0);
        let buf = &mut self.ctr_buf;
        run.tracer.span("crypto.ctr", op, || {
            AesCtr128::new(&key, &iv).apply_keystream(buf);
        });
        std::hint::black_box(&self.ctr_buf);
        // Replayed on every workload: the cost a Merkle root over the
        // round's bytes has, whether or not the lanes verify.
        let data_key = [0x42u8; 32];
        for bytes in payloads.iter().chain(responses) {
            let root = run.tracer.span("integrity.buffer_root", op, || {
                buffer_root(&data_key, bytes)
            });
            std::hint::black_box(root);
        }
    }
}

fn serve_failure(e: &ServeError) -> Failure {
    match e {
        ServeError::Rejected(e) => Failure::of(e),
        _ => Failure::Fatal,
    }
}
