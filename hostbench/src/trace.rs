//! In-memory span recorder and the small statistics the report needs.
//!
//! Spans are recorded only from the benchmark's own code, each one
//! around a call into a layer's public function. They stay in memory
//! and are written out once, when the run ends. With tracing off every
//! recorder call is a no-op, so the untraced run measures the program
//! alone.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.platform.deploy`.
    pub name: &'static str,
    /// Offset of the start from the recorder's origin.
    pub start: Duration,
    /// Offset of the end from the recorder's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (deploy, redeploy, serving round, ...) the span
    /// belongs to; spans of one operation share it.
    pub op: u64,
}

impl Span {
    fn millis(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Handle onto an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, recording only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`enter`](Tracer::enter).
    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
            self.open.pop();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a span measured elsewhere (by the compute decorator)
    /// under an explicit parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            op,
        });
    }

    /// Milliseconds spent in spans called `name`, summed per operation,
    /// in operation order.
    pub fn per_op_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut per_op = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(span.op).or_insert(0.0) += span.millis();
        }
        per_op
    }

    /// Median over operations of [`per_op_ms`](Tracer::per_op_ms).
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.per_op_ms(name).into_values().collect::<Vec<_>>())
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.op
            )?;
        }
        out.flush()
    }
}

/// Linear-interpolated percentile (`p` in 0..=100) of `values`; 0 for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A SplitMix64 stream: the benchmark's only source of input
/// randomness, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a `salt` naming its use.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A contention probe: a small fixed 3×3 convolution, the same kind of
/// multiply-bound code as the serving path's accelerator model.
///
/// On a shared host, a busy neighbour on the sibling hyperthread slows
/// such code, and the simulator's, about twofold for stretches of
/// seconds to minutes. Timing the probe next to every measured operation
/// lets the benchmark divide that slowdown out (see [`Samples::scaled`]).
#[derive(Debug)]
pub struct Probe {
    input: Vec<i16>,
    weights: Vec<i16>,
    output: Vec<i32>,
}

impl Probe {
    const SIDE: usize = 16;
    const CHANNELS: usize = 4;

    /// The probe's fixed inputs.
    pub fn new() -> Probe {
        let mut rng = Rng::new(0x9E0BE, 1);
        let padded = Self::SIDE + 2;
        Probe {
            input: (0..padded * padded * Self::CHANNELS)
                .map(|_| rng.next_u64() as i16)
                .collect(),
            weights: (0..9 * Self::CHANNELS * Self::CHANNELS)
                .map(|_| rng.next_u64() as i16)
                .collect(),
            output: vec![0; Self::SIDE * Self::SIDE * Self::CHANNELS],
        }
    }

    /// Runs the probe and returns its wall time in ms.
    pub fn time_ms(&mut self) -> f64 {
        let (side, ch, padded) = (Self::SIDE, Self::CHANNELS, Self::SIDE + 2);
        let start = Instant::now();
        for _ in 0..3 {
            let x = std::hint::black_box(&self.input);
            let w = std::hint::black_box(&self.weights);
            for oy in 0..side {
                for ox in 0..side {
                    for co in 0..ch {
                        let mut acc = 0i32;
                        for ky in 0..3 {
                            for kx in 0..3 {
                                for ci in 0..ch {
                                    let xi = ((oy + ky) * padded + ox + kx) * ch + ci;
                                    let wi = ((ky * 3 + kx) * ch + ci) * ch + co;
                                    acc = acc.wrapping_add(i32::from(x[xi]) * i32::from(w[wi]));
                                }
                            }
                        }
                        self.output[(oy * side + ox) * ch + co] = acc;
                    }
                }
            }
            std::hint::black_box(&self.output);
        }
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Wall times of one kind of operation, each with the slower of the
/// contention probes timed just before and just after it.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
    probe_ms: Vec<f64>,
}

impl Samples {
    /// Records one operation.
    pub fn push(&mut self, ms: f64, probe_ms: f64) {
        self.ms.push(ms);
        self.probe_ms.push(probe_ms);
    }

    /// Number of operations recorded.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Every recorded time.
    pub fn all(&self) -> &[f64] {
        &self.ms
    }

    /// The probe times.
    pub fn probes(&self) -> &[f64] {
        &self.probe_ms
    }

    /// Every time scaled to the reference probe speed: `t × P / p`,
    /// where `p` is the operation's probe reading and `P` is
    /// [`PROBE_REFERENCE_MS`]. Contention slows the probe and the
    /// measured operations alike, so the scaled times do not depend on
    /// how much of the run the host was contended.
    pub fn scaled(&self) -> Vec<f64> {
        self.ms
            .iter()
            .zip(&self.probe_ms)
            .map(|(ms, p)| ms * PROBE_REFERENCE_MS / p)
            .collect()
    }
}

/// The contention probe's time on an uncontended core of the reference
/// host (Intel Xeon, Sapphire Rapids, 2-vCPU KVM guest): the speed
/// scaled times are expressed at.
pub const PROBE_REFERENCE_MS: f64 = 0.09;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spans_nest_and_sum_per_op() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 1);
        t.span("inner", 1, || ());
        t.span("inner", 1, || ());
        t.exit(outer);
        t.span("inner", 2, || ());
        assert_eq!(t.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, None);
        assert_eq!(t.per_op_ms("inner").len(), 2);
    }

    #[test]
    fn scaled_times_divide_out_the_probe() {
        let mut s = Samples::default();
        s.push(10.0, PROBE_REFERENCE_MS);
        s.push(20.0, 2.0 * PROBE_REFERENCE_MS);
        assert_eq!(s.scaled(), vec![10.0, 10.0]);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", 0);
        t.exit(id);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
