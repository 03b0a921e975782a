//! What one benchmark process accumulates: attempted and failed
//! operations, correctness violations, end-to-end samples, per-layer
//! values, and the span recorder.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use salus::core::{FaultClass, SalusError};

use crate::trace::{Probe, Samples, Tracer};

/// Set while an operation runs under [`Run::guarded`], so the panic
/// hook stays quiet for panics the benchmark catches and counts.
static CATCHING: AtomicBool = AtomicBool::new(false);

/// Installs a panic hook that reports every panic except those caught
/// at the benchmark's own call boundary.
pub fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !CATCHING.load(Ordering::Relaxed) {
            default(info);
        }
    }));
}

/// How an attempted operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The call panicked; caught at the benchmark's call boundary.
    Panic,
    /// A typed error that `SalusError::fault_class` marks transient.
    Transient,
    /// Any other typed error.
    Fatal,
}

impl Failure {
    /// Classifies a typed error.
    pub fn of(e: &SalusError) -> Failure {
        match e.fault_class() {
            FaultClass::Transient => Failure::Transient,
            FaultClass::Fatal => Failure::Fatal,
        }
    }
}

/// Which of the two cost regimes an operation belongs to. A workload's
/// `ok_ops_ratio` is taken over its own regime only, so the other
/// regime's interleaved operations cannot dilute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Control-plane calls: deploy, redeploy, evict, recover.
    Control,
    /// Serving: requests and re-attestation sweeps.
    Serving,
}

/// Attempted and failed operations of one regime.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, of any class.
    pub failed: u64,
}

impl Ops {
    /// Succeeded ÷ attempted; 0 when nothing was attempted.
    pub fn ok_ratio(self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Accumulated results of one phase of a run.
#[derive(Debug)]
pub struct Run {
    /// Span recorder (off in the untraced run).
    pub tracer: Tracer,
    next_op: u64,
    /// Operations attempted (control-plane calls, requests, sweeps).
    pub attempted: u64,
    /// Failed operations by class.
    pub failed: BTreeMap<&'static str, u64>,
    /// Control-plane operations.
    pub control: Ops,
    /// Serving operations.
    pub serving: Ops,
    /// Correctness violations: wrong outputs, wrong deploy paths,
    /// broken chains. Any one fails the run.
    pub wrong: Vec<String>,
    /// The contention probe timed around every measured operation.
    probe: Probe,
    /// Host wall time of each successful full deploy.
    pub deploy_ms: Samples,
    /// Model (`SimClock`) time of each successful full deploy.
    pub deploy_model_s: Vec<f64>,
    /// Host wall time of each successful warm-image redeploy.
    pub redeploy_ms: Samples,
    /// Host wall time of each successful crash recovery.
    pub recover_ms: Samples,
    /// Host wall time of each closed-loop serving round.
    pub round_ms: Samples,
    /// Requests served across those rounds.
    pub served: u64,
    /// Model-time request latencies of the first model rounds.
    pub model_latency_ms: Vec<f64>,
    /// Requests of the first model rounds.
    pub model_requests: u64,
    /// Model makespan summed over the first model rounds.
    pub model_makespan_s: f64,
    /// Serving rounds whose model time was recorded.
    pub model_rounds: usize,
    /// Per-layer values that are not span durations.
    pub layer: BTreeMap<&'static str, f64>,
    /// Per-layer values sampled once per serving round.
    pub per_round: BTreeMap<&'static str, Vec<f64>>,
    /// Peak resident set size of the workload's own regime, taken once:
    /// after the first churn epoch, or after the first serving block.
    pub peak_rss_mb: Option<f64>,
}

impl Run {
    /// An empty phase, traced when `traced`.
    pub fn new(traced: bool) -> Run {
        Run {
            tracer: Tracer::new(traced),
            next_op: 0,
            attempted: 0,
            failed: BTreeMap::new(),
            control: Ops::default(),
            serving: Ops::default(),
            wrong: Vec::new(),
            probe: Probe::new(),
            deploy_ms: Samples::default(),
            deploy_model_s: Vec::new(),
            redeploy_ms: Samples::default(),
            recover_ms: Samples::default(),
            round_ms: Samples::default(),
            served: 0,
            model_latency_ms: Vec::new(),
            model_requests: 0,
            model_makespan_s: 0.0,
            model_rounds: 0,
            layer: BTreeMap::new(),
            per_round: BTreeMap::new(),
            peak_rss_mb: None,
        }
    }

    /// Times the contention probe (ms).
    pub fn probe_ms(&mut self) -> f64 {
        self.probe.time_ms()
    }

    /// A fresh operation id for spans.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// The counts of one regime.
    pub fn ops(&self, regime: Regime) -> Ops {
        match regime {
            Regime::Control => self.control,
            Regime::Serving => self.serving,
        }
    }

    fn ops_mut(&mut self, regime: Regime) -> &mut Ops {
        match regime {
            Regime::Control => &mut self.control,
            Regime::Serving => &mut self.serving,
        }
    }

    /// Counts one attempted operation.
    pub fn attempt(&mut self, regime: Regime) {
        self.attempted += 1;
        self.ops_mut(regime).attempted += 1;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, regime: Regime, failure: Failure) {
        let key = match failure {
            Failure::Panic => "panic",
            Failure::Transient => "transient",
            Failure::Fatal => "fatal",
        };
        *self.failed.entry(key).or_insert(0) += 1;
        self.ops_mut(regime).failed += 1;
    }

    /// Failed operations of every class.
    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    /// Records a correctness violation.
    pub fn wrong(&mut self, what: String) {
        self.wrong.push(what);
    }

    /// Adds one round's sample of a per-layer value.
    pub fn layer_push(&mut self, name: &'static str, v: f64) {
        self.per_round.entry(name).or_default().push(v);
    }

    /// Attempts one fallible control-plane operation: counts it,
    /// catches a panic at this boundary, and classifies the failure. The
    /// operation is never retried or skipped.
    pub fn guarded<T>(&mut self, f: impl FnOnce() -> Result<T, SalusError>) -> Option<T> {
        self.attempt(Regime::Control);
        CATCHING.store(true, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(f));
        CATCHING.store(false, Ordering::Relaxed);
        match outcome {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(Regime::Control, Failure::of(&e));
                None
            }
            Err(_) => {
                self.fail(Regime::Control, Failure::Panic);
                None
            }
        }
    }

    /// Folds the counts and samples of `other` (an earlier phase of the
    /// same process) into `self`.
    pub fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        for (k, v) in other.failed {
            *self.failed.entry(k).or_insert(0) += v;
        }
        for (mine, theirs) in [
            (&mut self.control, other.control),
            (&mut self.serving, other.serving),
        ] {
            mine.attempted += theirs.attempted;
            mine.failed += theirs.failed;
        }
        self.wrong.extend(other.wrong);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_are_counted_apart() {
        let mut run = Run::new(false);
        for _ in 0..9 {
            run.attempt(Regime::Serving);
        }
        assert!(run.guarded(|| Ok(())).is_some());
        assert!(run
            .guarded::<()>(|| panic!("caught at the boundary"))
            .is_none());
        assert_eq!(run.attempted, 11);
        assert_eq!(run.failed.get("panic"), Some(&1));
        assert_eq!(run.ops(Regime::Control).ok_ratio(), 0.5);
        assert_eq!(run.ops(Regime::Serving).ok_ratio(), 1.0);
    }
}
