//! The metric table: every metric the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` is generated from it (`--emit-spec`),
//! and the self-test checks both agree.

/// A workload and the reason it was chosen.
pub struct WorkloadSpec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// One line on why it is in the benchmark.
    pub why: &'static str,
}

/// The three workloads.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "tenant_churn",
        why: "seeded deploy/evict/warm-redeploy stream ending in crash recoveries: bitstream, seal, ICAP and journal path; side serving rounds between cycles",
    },
    WorkloadSpec {
        name: "serve_plain",
        why: "closed-loop serving, confidentiality only: serving, CTR/DMA and compute, no Merkle work; a short churn epoch (16 full deploys) follows each 3 s serving block",
    },
    WorkloadSpec {
        name: "serve_verified",
        why: "serve_plain's serving blocks and churn epochs, with integrity on the lanes: adds Merkle session refresh, so an integrity change moves serving here only",
    },
];

/// An end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric, emitted on every workload by the untraced
/// run. All timings are host wall time over the operations the
/// contention probe saw uncontended; the model (`SimClock`) figures
/// repeat exactly and go to the info line instead.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("ok_ops_ratio", "ratio", "higher", 0.05),
    e2e("deploy_p50_ms", "ms", "lower", 0.25),
    e2e("redeploy_p50_ms", "ms", "lower", 0.25),
    e2e("recover_p50_ms", "ms", "lower", 0.2),
    e2e("serve_req_per_s", "1/s", "higher", 0.25),
    e2e("serve_round_p50_ms", "ms", "lower", 0.2),
    e2e("serve_round_p90_ms", "ms", "lower", 0.25),
];

/// A per-layer metric. Which end-to-end metric each should move, and
/// on which workload, is tabled in the README.
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric, emitted on every workload by the traced run.
/// `_ms` values are medians over operations (a deploy, a serving round)
/// of the time spent in that layer's spans per operation.
pub const PER_LAYER: [PerLayer; 42] = [
    layer("core.platform.deploy_ms", "ms", "lower"),
    layer("core.platform.redeploy_ms", "ms", "lower"),
    layer("core.platform.evict_ms", "ms", "lower"),
    layer("core.platform.recover_ms", "ms", "lower"),
    layer("bitstream.develop_cl_ms", "ms", "lower"),
    layer("bitstream.package_digest_ms", "ms", "lower"),
    layer("bitstream.rewrite_cells_ms", "ms", "lower"),
    layer("crypto.seal_ms", "ms", "lower"),
    layer("fpga.icap_load_ms", "ms", "lower"),
    layer("bitstream.stream_mb", "MB", "lower"),
    layer("core.platform.deploy_other_ms", "ms", "lower"),
    layer("core.journal.records", "count", "lower"),
    layer("core.audit.records", "count", "lower"),
    layer("core.journal.verify_ms", "ms", "lower"),
    layer("core.audit.verify_ms", "ms", "lower"),
    layer("fpga.shell_observed_mb", "MB", "lower"),
    layer("failed.panic", "count", "lower"),
    layer("failed.transient", "count", "lower"),
    layer("failed.fatal", "count", "lower"),
    layer("failed_ops_ratio", "ratio", "lower"),
    layer("core.platform.free_slots_end", "count", "higher"),
    layer("serving.submit_ms", "ms", "lower"),
    layer("serving.drain_ms", "ms", "lower"),
    layer("serving.take_ms", "ms", "lower"),
    layer("attest.sweep_ms", "ms", "lower"),
    layer("accel.compute_ms", "ms", "lower"),
    layer("accel.compute_calls", "count", "lower"),
    layer("serving.drain_other_ms", "ms", "lower"),
    layer("serving.batches", "count", "lower"),
    layer("serving.mean_batch_size", "count", "higher"),
    layer("serving.bytes_in", "B", "lower"),
    layer("serving.bytes_out", "B", "lower"),
    layer("crypto.ctr_ms", "ms", "lower"),
    layer("integrity.full_builds", "count", "lower"),
    layer("integrity.incr_refreshes", "count", "lower"),
    layer("integrity.chunks_rehashed", "count", "lower"),
    layer("integrity.buffer_root_ms", "ms", "lower"),
    layer("serving.rounds", "count", "higher"),
    layer("core.platform.deploys", "count", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("trace.probe_ms", "ms", "lower"),
];

/// Looks up an end-to-end or per-layer unit.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Seconds one benchmark run measures by default.
pub const RUN_SECONDS: u64 = 25;

/// The `BENCHMARK.json` this benchmark answers to.
pub fn benchmark_json() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"hostbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"hostbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a metric or workload name repeats");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
