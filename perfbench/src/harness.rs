//! What the three workloads share: the metric tables, run arguments,
//! operation accounting, window rates, order statistics and the result
//! line.

use crate::trace::Thread;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("val_loss", "loss"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A workload
/// that bypasses a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.train_gflops", "GFLOP/s"),
    ("nn.ws_alloc_bytes_per_step", "B"),
    ("core.train_step_ms", "ms"),
    ("core.tournament_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.adoption_frac", "frac"),
    ("core.ae_pretrain_s", "s"),
    ("core.trainer_init_s", "s"),
    ("gan.generator_bytes", "B"),
    ("core.dp_step_ms", "ms"),
    ("comm.wait_ms_per_step", "ms"),
    ("comm.overlap_frac", "frac"),
    ("comm.msgs_per_step", "count"),
    ("comm.bytes_per_step", "B"),
    ("datastore.fetch_ms_per_step", "ms"),
    ("datastore.decode_ms_per_step", "ms"),
    ("datastore.tier_hit_frac", "frac"),
    ("datastore.shuffled_bytes_per_step", "B"),
    ("datastore.shard_gen_s", "s"),
    ("serve.submit_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.mean_batch", "count"),
    ("serve.queue_depth_mean", "count"),
    ("serve.spill_frac", "frac"),
    ("serve.fleet_start_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
    ("self.core_frac", "frac"),
    ("self.comm_frac", "frac"),
    ("self.datastore_frac", "frac"),
    ("self.bundle_frac", "frac"),
    ("self.serve_frac", "frac"),
    ("self.bench_frac", "frac"),
];

/// Set-up is repeated this many times per run and reported as the
/// median; the last repetition's state is the one measured.
pub const SETUP_REPS: usize = 3;

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for generated inputs and trace exports.
    pub out_dir: PathBuf,
}

impl RunArgs {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub ops: Ops,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Extra facts for the run report (already JSON-encoded values).
    pub info: Vec<(&'static str, String)>,
    /// The measured windows; `main` derives `samples_per_s` and
    /// `trace.overhead_frac` from them.
    pub windows: Windows,
    /// Traced threads (empty on untraced runs).
    pub threads: Vec<Thread>,
}

/// Attempted and failed operations. A failed correctness check counts
/// as a failed operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one operation; it failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// CPU time the hypervisor gave to other guests while this machine's
/// vCPUs wanted to run (the `steal` column of `/proc/stat`), in
/// seconds summed over all vCPUs; 0 where the kernel does not report it.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// One measured window: its rate, whether it was traced, and the share
/// of the machine's vCPU time stolen by the hypervisor while it ran.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub rate: f64,
    pub traced: bool,
    pub steal_frac: f64,
}

/// Start of a window.
pub struct WindowStart {
    at: Instant,
    steal: f64,
}

impl WindowStart {
    pub fn now() -> WindowStart {
        WindowStart {
            at: Instant::now(),
            steal: steal_seconds(),
        }
    }
}

/// Throughput of each measured window. Traced runs alternate traced and
/// untraced windows, so the tracing overhead is measured on interleaved
/// windows of one process rather than across processes.
#[derive(Debug, Default)]
pub struct Windows {
    pub all: Vec<Window>,
}

impl Windows {
    /// Whether window `i` is traced on a run with tracing requested.
    pub fn traced_window(trace: bool, i: usize) -> bool {
        trace && i % 2 == 1
    }

    /// Close the window opened at `start` after `work` units of work.
    pub fn push(&mut self, traced: bool, work: f64, start: WindowStart) {
        let elapsed = start.at.elapsed().as_secs_f64().max(1e-9);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        self.all.push(Window {
            rate: work / elapsed,
            traced,
            steal_frac: (steal_seconds() - start.steal) / (elapsed * cpus),
        });
    }

    fn rates(&self, traced: bool) -> Vec<f64> {
        self.all
            .iter()
            .filter(|w| w.traced == traced)
            .map(|w| w.rate)
            .collect()
    }

    /// Median untraced rate.
    pub fn rate(&self) -> f64 {
        median(&self.rates(false))
    }

    /// Fractional throughput lost to tracing (traced vs untraced medians).
    pub fn overhead(&self) -> f64 {
        let traced = self.rates(true);
        if traced.is_empty() {
            return 0.0;
        }
        1.0 - median(&traced) / self.rate().max(1e-12)
    }

    /// Mean share of vCPU time stolen by the hypervisor over the windows.
    pub fn steal_frac(&self) -> f64 {
        mean(&self.all.iter().map(|w| w.steal_frac).collect::<Vec<_>>())
    }

    /// Every window as `[rate, steal share]` pairs, for the run report.
    pub fn report(&self) -> String {
        let pairs: Vec<String> = self
            .all
            .iter()
            .map(|w| format!("[{:.1}, {:.3}]", w.rate, w.steal_frac))
            .collect();
        format!("[{}]", pairs.join(", "))
    }
}

/// Median (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seed of the model that dp-ingest trains and serve-fleet serves (the
/// CLI's default seed). Their `--seed` varies the data and the traffic,
/// not the weights, so `val_loss` moves with the code, not with
/// initialisation luck.
pub const MODEL_SEED: u64 = 2019;

/// The surrogate every workload runs: img-8, y_dim 783.
pub fn surrogate() -> ltfb_gan::CycleGanConfig {
    ltfb_gan::CycleGanConfig::small(8)
}

/// GEMM flops of one CycleGAN training step on `rows` samples, from the
/// weight shapes of its five networks (`[encoder, decoder, forward,
/// inverse, discriminator]`, each a list of `(fan_in, fan_out)`).
///
/// Per step the trainer runs forward passes of the encoder (1), forward
/// model (2), discriminator (3), decoder (1) and inverse model (1), and
/// backward passes of the discriminator (3), decoder, inverse and forward
/// model (1 each). A dense layer costs `2·in·out` flops per row forward
/// and twice that backward (input and weight gradients).
pub fn train_step_flops(nets: &[Vec<(usize, usize)>; 5], rows: usize) -> f64 {
    let f = |net: &Vec<(usize, usize)>| -> f64 {
        net.iter().map(|&(i, o)| 2.0 * (i * o) as f64).sum::<f64>() * rows as f64
    };
    let [enc, dec, fwd, inv, disc] = nets;
    let forward = f(enc) + 2.0 * f(fwd) + 3.0 * f(disc) + f(dec) + f(inv);
    let backward = 2.0 * (3.0 * f(disc) + f(dec) + f(inv) + f(fwd));
    forward + backward
}

/// Dense-layer shapes of each network of a CycleGAN (weights are the
/// parameters with more than one row; biases are `1 x out`).
pub fn gan_shapes(gan: &ltfb_gan::CycleGan) -> [Vec<(usize, usize)>; 5] {
    gan.networks().map(|net| {
        net.params()
            .iter()
            .filter(|p| p.value.rows() > 1)
            .map(|p| p.value.shape())
            .collect()
    })
}

/// Render the result line, the last line of standard output. It has
/// exactly the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(ops: Ops, correct: bool, table: &[(&str, &str)], values: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(values.get(name).copied().unwrap_or(0.0))
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        ops.attempted.max(1),
        ops.failed
    )
}

/// A finite number in JSON form with all its digits (non-finite values
/// are a bug upstream and are reported as failures by `main`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new();
        m.insert("setup_s", 0.5);
        let line = result_line(
            Ops {
                attempted: 3,
                failed: 0,
            },
            true,
            &END_TO_END[..1],
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn flop_model_counts_forward_and_backward() {
        let one = vec![(2, 3)];
        let nets = [one.clone(), one.clone(), one.clone(), one.clone(), one];
        // 8 forward passes and 6 backward passes (each 2x) of 12 flops/row.
        assert_eq!(train_step_flops(&nets, 1), 12.0 * (8.0 + 12.0));
    }
}
