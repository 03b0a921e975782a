//! Host wall-time benchmark of the Salus reproduction.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <tenant_churn|serve_plain|serve_verified> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path hostbench/Cargo.toml -- --emit-spec > BENCHMARK.json
//! ```
//!
//! Each invocation runs one workload in its own process and prints, as
//! its last stdout line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, measured with tracing off; with `--trace 1` they
//! are the per-layer ones from a traced run, which also reports its
//! own overhead. The line before it carries the reproducibility fields.
//! See `hostbench/README.md` for the workloads and the metric table.

mod churn;
mod run;
mod serve;
mod spec;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use salus::session::MemoryProtection;

use run::{Regime, Run};
use trace::{median, percentile};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Length of one serving block of the serve workloads; a short churn
/// epoch follows each.
const SERVE_BLOCK: Duration = Duration::from_secs(3);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TenantChurn,
    ServePlain,
    ServeVerified,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "tenant_churn" => Some(Workload::TenantChurn),
            "serve_plain" => Some(Workload::ServePlain),
            "serve_verified" => Some(Workload::ServeVerified),
            _ => None,
        }
    }

    fn protection(self) -> MemoryProtection {
        match self {
            Workload::ServeVerified => MemoryProtection::ConfidentialityAndIntegrity,
            _ => MemoryProtection::Confidentiality,
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = Some(spec::RUN_SECONDS);
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(spec::RUN_SECONDS).max(1),
        trace,
    })
}

/// Runs the workload for `budget` into `run`, interleaving the other
/// regime so every end-to-end metric samples the whole window: the
/// churn runs one plain serving round on the side node after every
/// stream cycle; the serve workloads alternate serving blocks with short
/// churn epochs (below the enclave limit) on fresh nodes.
fn run_workload(
    args: &Args,
    churn_node: &mut Option<salus::core::platform::ControlPlane>,
    serving: &mut serve::Serving,
    budget: Duration,
    run: &mut Run,
) {
    if args.workload == Workload::TenantChurn {
        let node = churn_node
            .take()
            .unwrap_or_else(|| churn::provision(args.seed).expect("churn node provisions"));
        churn::run_epochs(node, args.seed, churn::FULL_CYCLES, budget, run, |run| {
            // A deploy leaves the caches cold; the first round after it
            // warms them and only the second is timed, as on the serve
            // workloads.
            serving.round(run, false);
            serving.round(run, true);
        });
    } else {
        let start = Instant::now();
        loop {
            serving.run_for(SERVE_BLOCK, serve::MODEL_ROUNDS, run);
            // The serving node's own memory, before any churn node exists.
            run.peak_rss_mb.get_or_insert_with(trace::peak_rss_mb);
            let node = churn::provision(args.seed).expect("churn node provisions");
            churn::run_epochs(
                node,
                args.seed,
                churn::SHORT_CYCLES,
                Duration::ZERO,
                run,
                |_| (),
            );
            if start.elapsed() >= budget {
                break;
            }
        }
    }
    check_samples(run);
}

/// A percentile over no successful operations would read 0, which for
/// a lower-is-better metric looks like a perfect gain. Every kind of
/// operation the metrics are taken over must have succeeded at least
/// once, or the run is wrong.
fn check_samples(run: &mut Run) {
    let empty: Vec<&str> = [
        ("full deploy", run.deploy_ms.len()),
        ("warm-image redeploy", run.redeploy_ms.len()),
        ("crash recovery", run.recover_ms.len()),
        ("timed serving round", run.round_ms.len()),
    ]
    .into_iter()
    .filter(|(_, n)| *n == 0)
    .map(|(what, _)| what)
    .collect();
    for what in empty {
        run.wrong(format!(
            "no successful {what}: its percentiles have no sample"
        ));
    }
}

/// The regime a workload's `ok_ops_ratio` is taken over.
fn own_regime(workload: Workload) -> Regime {
    match workload {
        Workload::TenantChurn => Regime::Control,
        _ => Regime::Serving,
    }
}

/// The primary operation latency the tracing overhead is taken on,
/// scaled like the end-to-end figures so host contention that differs
/// between the two halves does not read as tracing cost.
fn primary_p50(workload: Workload, run: &Run) -> f64 {
    match workload {
        Workload::TenantChurn => median(&run.deploy_ms.scaled()),
        _ => median(&run.round_ms.scaled()),
    }
}

fn end_to_end(
    run: &Run,
    workload: Workload,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64)> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let round = run.round_ms.scaled();
    let mean_round_s = round.iter().sum::<f64>() / round.len().max(1) as f64 / 1e3;
    vec![
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
        ("ok_ops_ratio", run.ops(own_regime(workload)).ok_ratio()),
        ("deploy_p50_ms", median(&run.deploy_ms.scaled())),
        ("redeploy_p50_ms", median(&run.redeploy_ms.scaled())),
        ("recover_p50_ms", median(&run.recover_ms.scaled())),
        (
            "serve_req_per_s",
            ratio(
                ratio(run.served as f64, run.round_ms.len() as f64),
                mean_round_s,
            ),
        ),
        ("serve_round_p50_ms", median(&round)),
        ("serve_round_p90_ms", percentile(&round, 90.0)),
    ]
}

/// The same statistics over the unscaled wall times, for readers.
fn unscaled(run: &Run) -> Vec<(&'static str, f64)> {
    vec![
        ("deploy_p50_ms", median(run.deploy_ms.all())),
        ("redeploy_p50_ms", median(run.redeploy_ms.all())),
        ("recover_p50_ms", median(run.recover_ms.all())),
        ("serve_round_p50_ms", median(run.round_ms.all())),
        ("serve_round_p90_ms", percentile(run.round_ms.all(), 90.0)),
        ("probe_p50_ms", median(&probes(run))),
        ("probe_p5_ms", percentile(&probes(run), 5.0)),
    ]
}

/// Model (`SimClock`) figures: they repeat exactly for a seed, so they
/// are reproducibility fields, not bounded metrics.
fn model(run: &Run) -> Vec<(&'static str, f64)> {
    vec![
        ("deploy_model_s", median(&run.deploy_model_s)),
        (
            "serve_model_req_per_s",
            if run.model_makespan_s > 0.0 {
                run.model_requests as f64 / run.model_makespan_s
            } else {
                0.0
            },
        ),
        (
            "serve_model_p99_ms",
            percentile(&run.model_latency_ms, 99.0),
        ),
    ]
}

fn per_layer(run: &Run, workload: Workload, overhead_pct: f64) -> Vec<(&'static str, f64)> {
    let t = &run.tracer;
    let deploy = t.per_op_ms("core.platform.deploy");
    let replayed = [
        "bitstream.develop_cl",
        "bitstream.package_digest",
        "bitstream.rewrite_cells",
        "crypto.seal",
        "fpga.icap_load",
    ]
    .map(|name| t.per_op_ms(name));
    let deploy_other: Vec<f64> = deploy
        .iter()
        .map(|(op, ms)| {
            ms - replayed
                .iter()
                .map(|r| r.get(op).copied().unwrap_or(0.0))
                .sum::<f64>()
        })
        .collect();
    let drain = t.per_op_ms("serving.drain");
    let compute = t.per_op_ms("accel.compute");
    let drain_other: Vec<f64> = drain
        .iter()
        .map(|(op, ms)| ms - compute.get(op).copied().unwrap_or(0.0))
        .collect();
    let round = |name: &str| run.per_round.get(name).map_or(0.0, |v| median(v));
    let layer = |name: &str| run.layer.get(name).copied().unwrap_or(0.0);
    let failed = |class: &str| run.failed.get(class).copied().unwrap_or(0) as f64;
    let own = run.ops(own_regime(workload));
    let failed_ratio = if own.attempted > 0 {
        own.failed as f64 / own.attempted as f64
    } else {
        0.0
    };
    vec![
        (
            "core.platform.deploy_ms",
            t.median_ms("core.platform.deploy"),
        ),
        (
            "core.platform.redeploy_ms",
            t.median_ms("core.platform.redeploy"),
        ),
        ("core.platform.evict_ms", t.median_ms("core.platform.evict")),
        (
            "core.platform.recover_ms",
            t.median_ms("core.platform.recover"),
        ),
        (
            "bitstream.develop_cl_ms",
            t.median_ms("bitstream.develop_cl"),
        ),
        (
            "bitstream.package_digest_ms",
            t.median_ms("bitstream.package_digest"),
        ),
        (
            "bitstream.rewrite_cells_ms",
            t.median_ms("bitstream.rewrite_cells"),
        ),
        ("crypto.seal_ms", t.median_ms("crypto.seal")),
        ("fpga.icap_load_ms", t.median_ms("fpga.icap_load")),
        ("bitstream.stream_mb", layer("bitstream.stream_mb")),
        ("core.platform.deploy_other_ms", median(&deploy_other)),
        ("core.journal.records", layer("core.journal.records")),
        ("core.audit.records", layer("core.audit.records")),
        ("core.journal.verify_ms", t.median_ms("core.journal.verify")),
        ("core.audit.verify_ms", t.median_ms("core.audit.verify")),
        ("fpga.shell_observed_mb", layer("fpga.shell_observed_mb")),
        ("failed.panic", failed("panic")),
        ("failed.transient", failed("transient")),
        ("failed.fatal", failed("fatal")),
        ("failed_ops_ratio", failed_ratio),
        (
            "core.platform.free_slots_end",
            layer("core.platform.free_slots_end"),
        ),
        ("serving.submit_ms", t.median_ms("serving.submit")),
        ("serving.drain_ms", t.median_ms("serving.drain")),
        ("serving.take_ms", t.median_ms("serving.take")),
        ("attest.sweep_ms", t.median_ms("attest.sweep")),
        ("accel.compute_ms", t.median_ms("accel.compute")),
        ("accel.compute_calls", round("accel.compute_calls")),
        ("serving.drain_other_ms", median(&drain_other)),
        ("serving.batches", round("serving.batches")),
        ("serving.mean_batch_size", round("serving.mean_batch_size")),
        ("serving.bytes_in", round("serving.bytes_in")),
        ("serving.bytes_out", round("serving.bytes_out")),
        ("crypto.ctr_ms", t.median_ms("crypto.ctr")),
        ("integrity.full_builds", round("integrity.full_builds")),
        (
            "integrity.incr_refreshes",
            round("integrity.incr_refreshes"),
        ),
        (
            "integrity.chunks_rehashed",
            round("integrity.chunks_rehashed"),
        ),
        (
            "integrity.buffer_root_ms",
            t.median_ms("integrity.buffer_root"),
        ),
        ("trace.overhead_pct", overhead_pct),
        ("trace.spans", t.len() as f64),
        ("serving.rounds", run.round_ms.len() as f64),
        ("core.platform.deploys", run.deploy_ms.len() as f64),
        ("trace.probe_ms", median(&probes(run))),
    ]
}

/// Every probe reading of a phase.
fn probes(run: &Run) -> Vec<f64> {
    [
        &run.deploy_ms,
        &run.redeploy_ms,
        &run.recover_ms,
        &run.round_ms,
    ]
    .iter()
    .flat_map(|s| s.probes().iter().copied())
    .collect()
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn fields_json(values: &[(&'static str, f64)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, v)| format!("\"{name}\":{}", number(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn metrics_json(values: &[(&'static str, f64)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            let unit = spec::unit_of(name).expect("every reported metric is in the table");
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--emit-spec") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    run::install_panic_hook();
    let mut serving = None;

    let mut churn_node = None;
    let setup_s = match args.workload {
        Workload::TenantChurn => {
            let (s, node) = churn::setup(args.seed, SETUP_REPS);
            churn_node = Some(node);
            s
        }
        _ => match serve::setup_median(args.seed, args.workload.protection(), SETUP_REPS) {
            Ok((s, node)) => {
                serving = Some(node);
                s
            }
            Err(e) => {
                eprintln!("hostbench: serving setup failed: {e}");
                return ExitCode::from(1);
            }
        },
    };
    if serving.is_none() {
        // The churn's side node for its interleaved serving rounds; not
        // part of the churn's own set-up time.
        match serve::setup(args.seed, MemoryProtection::Confidentiality) {
            Ok(node) => serving = Some(node),
            Err(e) => {
                eprintln!("hostbench: serving setup failed: {e}");
                return ExitCode::from(1);
            }
        }
    }

    let mut serving = serving.expect("a serving node is set up for every workload");
    let budget = Duration::from_secs(args.seconds);
    let mut run = Run::new(args.trace);
    let mut overhead_pct = 0.0;
    if args.trace {
        // Untraced first half, traced second half: the difference of the
        // scaled primary medians is the tracing overhead.
        let mut untraced = Run::new(false);
        run_workload(
            &args,
            &mut churn_node,
            &mut serving,
            budget / 2,
            &mut untraced,
        );
        run_workload(&args, &mut churn_node, &mut serving, budget / 2, &mut run);
        let base = primary_p50(args.workload, &untraced);
        if base > 0.0 {
            overhead_pct = (primary_p50(args.workload, &run) - base) / base * 100.0;
        }
        run.absorb(untraced);
    } else {
        run_workload(&args, &mut churn_node, &mut serving, budget, &mut run);
    }
    drop(serving);
    let peak_rss_mb = run.peak_rss_mb.unwrap_or_else(trace::peak_rss_mb);

    let mut spans_file = String::new();
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.name, args.seed));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => spans_file = path.display().to_string(),
            Err(e) => eprintln!("hostbench: could not write spans: {e}"),
        }
    }
    for what in &run.wrong {
        eprintln!("hostbench: INCORRECT: {what}");
    }

    let values = if args.trace {
        per_layer(&run, args.workload, overhead_pct)
    } else {
        end_to_end(&run, args.workload, setup_s, peak_rss_mb)
    };
    let info = format!(
        "{{\"info\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"available_parallelism\":{},\"git_commit\":\"{}\",\"profile\":\"{}\",\"setup_reps\":{SETUP_REPS},\"samples\":{{\"deploy\":{},\"redeploy\":{},\"recover\":{},\"rounds\":{},\"model_latencies\":{}}},\"trace_overhead_pct\":{},\"spans_file\":\"{}\",\"unscaled\":{},\"model\":{}}}}}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_commit(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        run.deploy_ms.len(),
        run.redeploy_ms.len(),
        run.recover_ms.len(),
        run.round_ms.len(),
        run.model_latency_ms.len(),
        number(overhead_pct),
        spans_file,
        fields_json(&unscaled(&run)),
        fields_json(&model(&run)),
    );
    println!("{info}");

    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.wrong.is_empty(),
        run.attempted.max(1),
        run.failed_total(),
        metrics_json(&values)
    );
    ExitCode::SUCCESS
}
