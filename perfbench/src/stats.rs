//! Measurement helpers shared by every workload: the result record,
//! percentiles, repetition loops, and the host-speed probe.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main`: correctness counts, the
/// metrics to print, and human-readable notes (sample counts, self
/// times, gate failures) printed above the result line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count `attempted` operations of which `failed` missed a gate.
    pub fn gate(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(format!("gate failed: {what}: {failed} of {attempted}"));
        }
    }

    /// Record a percentile together with its sample count, so a reader
    /// can see how many samples lie beyond it.
    pub fn quantile_metric(
        &mut self,
        name: &str,
        samples: &Samples,
        q: f64,
        scale: f64,
        unit: &'static str,
    ) {
        let value = samples.quantile(q) * scale;
        let beyond = ((1.0 - q) * samples.len() as f64).floor() as u64;
        self.note(format!(
            "{name} = {value:.4} {unit} (n={}, {beyond} beyond)",
            samples.len()
        ));
        self.metric(name, value, unit);
    }

    /// The result object printed as the last line of standard output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A bag of `f64` samples with linear-interpolation percentiles.
#[derive(Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Linear-interpolation quantile (0 for an empty bag).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.values.clone();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Samples { values }
    }
}

/// Integer nanosecond samples for hot-path timers (half the memory of
/// `f64` for the millions of samples a traced run collects).
#[derive(Default)]
pub struct NsSamples(Vec<u32>);

impl NsSamples {
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.0.push(d.as_nanos().min(u32::MAX as u128) as u32);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn append(&mut self, mut other: NsSamples) {
        self.0.append(&mut other.0);
    }

    pub fn total_s(&self) -> f64 {
        self.0.iter().map(|&n| n as f64).sum::<f64>() * 1e-9
    }

    pub fn to_samples(&self) -> Samples {
        Samples::from(self.0.iter().map(|&n| n as f64).collect::<Vec<_>>())
    }
}

/// Repeat `once` until at least `seconds` have passed and at least
/// `min_reps` repetitions ran, calling `between` (untimed) after each;
/// returns each repetition's wall seconds alongside its output.
pub fn repeat_for<R>(
    seconds: f64,
    min_reps: usize,
    mut once: impl FnMut() -> R,
    mut between: impl FnMut(),
) -> Vec<(f64, R)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let r = once();
        out.push((t0.elapsed().as_secs_f64(), r));
        between();
    }
    out
}

/// The quantile every timed figure is reported at. On the shared 2-CPU
/// host the benchmark was tuned on, speed switched between two levels
/// about 1.8x apart: for minutes at a time the slow level held with rare
/// fast stretches, at other times the fast level held with slow stretches
/// of a few seconds. A unit's fastest run records whether a run met a
/// fast stretch; its 90th percentile records the slow level, which
/// nearly every run met.
pub const TYPICAL: f64 = 0.9;

/// Each unit's time at [`TYPICAL`] over the repetitions, where
/// `time(output, unit)` reads one unit's seconds from a repetition's
/// output.
pub fn typical_per_unit<R>(
    reps: &[(f64, R)],
    units: usize,
    time: impl Fn(&R, usize) -> f64,
) -> Vec<f64> {
    (0..units)
        .map(|unit| {
            Samples::from(reps.iter().map(|(_, r)| time(r, unit)).collect::<Vec<_>>())
                .quantile(TYPICAL)
        })
        .collect()
}

/// Seconds of the given repetitions.
pub fn times<R>(reps: &[(f64, R)]) -> Samples {
    Samples::from(reps.iter().map(|(s, _)| *s).collect::<Vec<_>>())
}

/// The set-up phase, timed many times over a run: a few milliseconds of
/// set-up timed once moves by more than a tenth between runs, and timed
/// only at the start it sees one host phase. `setup_s` is the
/// [`TYPICAL`] quantile. Most samples come from between the timed
/// repetitions, so it never sits on the boundary between start-of-run
/// samples (fresh heap) and later ones.
pub struct Setup<F> {
    build: F,
    times: Samples,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Build five times; returns the timer and the last build's output.
    pub fn new(mut build: F) -> (Self, T) {
        let mut times = Samples::default();
        let mut built = None;
        for _ in 0..5 {
            let t0 = Instant::now();
            built = Some(black_box(build()));
            times.push(t0.elapsed().as_secs_f64());
        }
        (Setup { build, times }, built.expect("built five times"))
    }

    /// Build again, at least once and for at least 50 ms, dropping the
    /// output. Called between timed repetitions.
    pub fn resample(&mut self) {
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            drop(black_box((self.build)()));
            self.times.push(t0.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= 0.05 {
                return;
            }
        }
    }

    pub fn typical(&self) -> f64 {
        self.times.quantile(TYPICAL)
    }
}

/// The host-speed probe: a fixed integer kernel (no program code), timed
/// five times; returns the median nanoseconds per kernel run. Run before
/// and after every workload, it shows when the shared host ran slow. It
/// rescales no metric.
pub fn host_probe() -> f64 {
    let mut times = Samples::default();
    for round in 0..5u64 {
        let t0 = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64 ^ round);
        let mut acc = 0u64;
        for _ in 0..2_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x.wrapping_mul(0x2545_F491_4F6C_DD1D));
        }
        black_box(acc);
        times.push(t0.elapsed().as_nanos() as f64);
    }
    times.median()
}

/// FNV-1a over bytes: the digest pinned for report text.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Samples::from(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.median(), 2.5);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn result_line_reports_failures() {
        let mut r = Report::default();
        r.gate("x", 10, 2);
        r.metric("setup_s", 0.5, "s");
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
