//! `serve-fleet`: the sharded serving fleet in the `ltfb-cli serve-bench
//! --shards 2` configuration (2 shards x 2 workers, max batch 32, cache
//! 256, shed depth 128, adaptive controller on), driven by a closed loop
//! of 64 requests in flight from one thread. A quarter of the requests
//! are inversions; half are drawn Zipf(1.1) over 256 hot keys per kind
//! and half are unique, so both the response cache and batched inference
//! carry load. Callers of a surrogate (UQ, inversion) wait for their
//! replies, hence the closed loop.

use crate::harness::{
    mean, median, peak_rss_mb, quantile, surrogate, Ops, Outcome, RunArgs, WindowStart, Windows,
    MODEL_SEED, SETUP_REPS,
};
use crate::trace::{Thread, Tracer, BENCH_LAYER};
use ltfb_core::{load_surrogate, save_surrogate, val_samples};
use ltfb_gan::{batch_from_samples, CycleGan, CycleGanConfig};
use ltfb_jag::{sample_by_id, Sample};
use ltfb_serve::{
    BatchPolicy, Fleet, FleetClient, FleetConfig, FleetStats, ModelRegistry, ReqKind, Response,
    SloPolicy,
};
use ltfb_tensor::{mix_seed, seeded_rng, Matrix, TensorRng};
use rand::Rng;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const IN_FLIGHT: usize = 64;
const HOT_KEYS: usize = 256;
const ZIPF_EXPONENT: f64 = 1.1;
const INVERSE_FRAC: f64 = 0.25;
const HOT_FRAC: f64 = 0.5;
/// Completions per measured window.
const WINDOW: u64 = 4096;
/// Requests of the workload's mix sent during set-up, after one request
/// per hot key, to fill the caches and let the adaptive batch controller
/// (one adjustment per 50 ms tick) settle before timing starts.
const WARMUP: usize = 16384;
/// One unique request in this many is kept and re-checked against the
/// model after the run.
const VERIFY_EVERY: u64 = 64;
/// Base vectors the unique inversions are derived from.
const INVERSE_POOL: usize = 64;
/// Latency samples reserved up front (16 MiB of address space, touched
/// only as it fills), so that growing the vector never copies it and
/// `peak_rss_mb` does not jump with the run's request count.
const LATENCY_CAPACITY: usize = 1 << 21;

/// `ltfb-cli serve-bench --shards 2` defaults.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        policy: BatchPolicy {
            max_batch: 32,
            flush_deadline: Duration::from_micros(50),
            queue_cap: 1024,
            workers: 2,
            cache_capacity: 256,
            cache_quantum: 1.0e-3,
            ..BatchPolicy::default()
        },
        slo: SloPolicy {
            p99_target_us: 5_000.0,
            spill_depth: 16,
            shed_depth: 128,
            adaptive: true,
            ..SloPolicy::default()
        },
    }
}

/// Everything the request stream is drawn from, generated from the seed.
struct Inputs {
    /// Hot keys per kind (`[forward, inverse]`) and the model's answer to
    /// each, computed one row at a time with `infer_forward` /
    /// `infer_inverse`.
    hot: [Vec<Vec<f32>>; 2],
    expected: [Vec<Vec<f32>>; 2],
    zipf_cum: Vec<f64>,
    inverse_pool: Vec<Vec<f32>>,
    val_x: Matrix,
    val_y: Matrix,
}

/// Simulated output bundles, one row each.
fn output_rows(cfg: &CycleGanConfig, offset: u64, n: usize) -> Vec<Vec<f32>> {
    let samples: Vec<Sample> = (0..n as u64)
        .map(|i| sample_by_id(&cfg.jag, offset, i))
        .collect();
    let refs: Vec<&Sample> = samples.iter().collect();
    let (_, y) = batch_from_samples(cfg, &refs);
    (0..n).map(|r| y.row(r).to_vec()).collect()
}

fn infer(model: &CycleGan, kind: ReqKind, input: &[f32]) -> Vec<f32> {
    let m = Matrix::row_vector(input);
    match kind {
        ReqKind::Forward => model.infer_forward(&m).into_vec(),
        ReqKind::Inverse => model.infer_inverse(&m).into_vec(),
    }
}

fn kind_of(k: usize) -> ReqKind {
    if k == 0 {
        ReqKind::Forward
    } else {
        ReqKind::Inverse
    }
}

impl Inputs {
    fn generate(seed: u64, model: &CycleGan) -> Inputs {
        let cfg = surrogate();
        let mut rng = seeded_rng(mix_seed(&[seed, 0x5E]));
        let fwd: Vec<Vec<f32>> = (0..HOT_KEYS)
            .map(|_| (0..cfg.x_dim()).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let offset = mix_seed(&[seed, 0x1A]) % (1 << 32);
        let mut outputs = output_rows(&cfg, offset, HOT_KEYS + INVERSE_POOL);
        let inverse_pool = outputs.split_off(HOT_KEYS);
        let hot = [fwd, outputs];
        let expected = [0, 1].map(|k| hot[k].iter().map(|v| infer(model, kind_of(k), v)).collect());
        let mut acc = 0.0;
        let mut zipf_cum: Vec<f64> = (0..HOT_KEYS)
            .map(|r| {
                acc += ((r + 1) as f64).powf(-ZIPF_EXPONENT);
                acc
            })
            .collect();
        zipf_cum.iter_mut().for_each(|c| *c /= acc);
        let val = val_samples(&cfg.jag, 0, 256);
        let refs: Vec<&Sample> = val.iter().collect();
        let (val_x, val_y) = batch_from_samples(&cfg, &refs);
        Inputs {
            hot,
            expected,
            zipf_cum,
            inverse_pool,
            val_x,
            val_y,
        }
    }
}

/// What a response is checked against.
enum Check {
    Hot(usize, usize),
    Verify(usize),
    Nothing,
}

struct Pending {
    resp: Response,
    sent: Instant,
    check: Check,
}

/// The request stream: Zipf hot keys and unique requests, in a fixed
/// order for a given seed.
struct Stream<'a> {
    inputs: &'a Inputs,
    rng: TensorRng,
    unique: u64,
    fwd_buf: Vec<f32>,
    inv_buf: Vec<f32>,
}

/// Unique requests carry their counter in three coordinates, two
/// cache quanta apart, so no two of them share a cache key.
fn encode_counter(c: u64, v: &mut [f32]) {
    let mut c = c;
    for slot in v.iter_mut().take(3) {
        *slot = ((c % 500) as f32 + 0.5) * 2.0e-3;
        c /= 500;
    }
}

impl<'a> Stream<'a> {
    fn new(inputs: &'a Inputs, seed: u64) -> Stream<'a> {
        Stream {
            inputs,
            rng: seeded_rng(seed),
            unique: 0,
            fwd_buf: vec![0.0; surrogate().x_dim()],
            inv_buf: Vec::new(),
        }
    }

    /// Next request: kind index, input, and whether it is hot (with its
    /// key) or unique (with its counter).
    fn next(&mut self) -> (usize, &[f32], Result<usize, u64>) {
        let k = usize::from(self.rng.gen_bool(INVERSE_FRAC));
        if self.rng.gen_bool(HOT_FRAC) {
            let u = self.rng.gen::<f64>();
            let key = self
                .inputs
                .zipf_cum
                .partition_point(|&c| c < u)
                .min(HOT_KEYS - 1);
            return (k, &self.inputs.hot[k][key], Ok(key));
        }
        let c = self.unique;
        self.unique += 1;
        if k == 0 {
            for v in &mut self.fwd_buf[3..] {
                *v = self.rng.gen::<f32>();
            }
            encode_counter(c, &mut self.fwd_buf);
            (k, &self.fwd_buf, Err(c))
        } else {
            let pool = &self.inputs.inverse_pool;
            self.inv_buf.clear();
            self.inv_buf
                .extend_from_slice(&pool[(c as usize) % pool.len()]);
            encode_counter(c, &mut self.inv_buf);
            (k, &self.inv_buf, Err(c))
        }
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Load the surrogate once per shard and start the fleet.
fn start_fleet(ckpt: &Path) -> (Fleet, f64) {
    let cfg = surrogate();
    let regs: Vec<Arc<ModelRegistry>> = (0..SHARDS)
        .map(|_| {
            let (gan, version) = load_surrogate(ckpt, &cfg).expect("surrogate checkpoint loads");
            Arc::new(ModelRegistry::new(gan, version))
        })
        .collect();
    let t0 = Instant::now();
    let fleet = Fleet::start(regs, fleet_config());
    (fleet, t0.elapsed().as_secs_f64())
}

/// Closed-loop client state.
struct Loop<'a> {
    client: FleetClient,
    stream: Stream<'a>,
    pending: VecDeque<Pending>,
    ops: Ops,
    latency_ms: Vec<f64>,
    submit_us: Vec<f64>,
    verify: Vec<(usize, Vec<f32>, Option<Vec<f32>>)>,
}

impl<'a> Loop<'a> {
    /// Top the window up to `IN_FLIGHT`.
    fn fill(&mut self, tr: &mut Tracer, id: u64) {
        while self.pending.len() < IN_FLIGHT {
            let (k, input, which) = self.stream.next();
            let check = match which {
                Ok(key) => Check::Hot(k, key),
                Err(c) if c % VERIFY_EVERY == 0 => {
                    self.verify.push((k, input.to_vec(), None));
                    Check::Verify(self.verify.len() - 1)
                }
                Err(_) => Check::Nothing,
            };
            let s = tr.begin("serve.submit", "serve", id);
            let sent = Instant::now();
            let resp = self.client.submit(kind_of(k), input);
            let submitted = Instant::now();
            tr.end(s);
            if tr.enabled() {
                self.submit_us.push((submitted - sent).as_secs_f64() * 1e6);
            }
            match resp {
                Ok(resp) => self.pending.push_back(Pending { resp, sent, check }),
                Err(_) => self.ops.check(false),
            }
        }
    }

    /// Wait for the oldest request and check its answer.
    fn complete(&mut self, tr: &mut Tracer, id: u64, record: bool) {
        let p = self.pending.pop_front().expect("a request is in flight");
        let s = tr.begin("serve.wait", "serve", id);
        let done = p.resp.wait_completion();
        tr.end(s);
        let Ok(done) = done else {
            self.ops.check(false);
            return;
        };
        if record {
            self.latency_ms.push(
                done.finished
                    .saturating_duration_since(p.sent)
                    .as_secs_f64()
                    * 1e3,
            );
        }
        let ok = match p.check {
            Check::Hot(k, key) => bits_equal(&done.output, &self.stream.inputs.expected[k][key]),
            Check::Verify(i) => {
                self.verify[i].2 = Some(done.output);
                true
            }
            Check::Nothing => !done.output.is_empty(),
        };
        self.ops.check(ok);
    }

    fn drain(&mut self, tr: &mut Tracer) {
        while !self.pending.is_empty() {
            self.complete(tr, u64::MAX, false);
        }
    }
}

/// One set-up: surrogate load, fleet start, and the cache warm-up (one
/// request per hot key, then `WARMUP` requests of the mix).
fn setup<'a>(ckpt: &Path, inputs: &'a Inputs, seed: u64) -> (Fleet, Loop<'a>, f64) {
    let (fleet, start_s) = start_fleet(ckpt);
    let mut lp = Loop {
        client: fleet.client(),
        stream: Stream::new(inputs, mix_seed(&[seed, 0x3A])),
        pending: VecDeque::with_capacity(IN_FLIGHT),
        ops: Ops::default(),
        latency_ms: Vec::with_capacity(LATENCY_CAPACITY),
        submit_us: Vec::new(),
        verify: Vec::new(),
    };
    let mut tr = Tracer::new(Instant::now());
    for (k, keys) in inputs.hot.iter().enumerate() {
        for key_input in keys {
            let r = lp
                .client
                .submit(kind_of(k), key_input)
                .and_then(Response::wait);
            lp.ops.check(r.is_ok());
        }
    }
    for _ in 0..WARMUP {
        lp.fill(&mut tr, 0);
        lp.complete(&mut tr, 0, false);
    }
    lp.drain(&mut tr);
    lp.verify.clear();
    (fleet, lp, start_s)
}

/// Served validation loss: forward MAE of `Dec(F(x))` against `y` plus
/// inverse MAE of `G(E(y))` against `x` over the global validation set,
/// with every answer taken from the fleet.
fn served_val_loss(client: &FleetClient, inputs: &Inputs) -> f64 {
    let mae = |kind: ReqKind, ins: &Matrix, want: &Matrix| -> f64 {
        let mut sum = 0.0f64;
        for r in 0..ins.rows() {
            let got = match client.submit(kind, ins.row(r)).and_then(Response::wait) {
                Ok(v) => v,
                Err(_) => return f64::NAN,
            };
            if got.len() != want.cols() {
                return f64::NAN;
            }
            sum += got
                .iter()
                .zip(want.row(r))
                .map(|(a, b)| f64::from((a - b).abs()))
                .sum::<f64>();
        }
        sum / (ins.rows() * want.cols()) as f64
    };
    mae(ReqKind::Forward, &inputs.val_x, &inputs.val_y)
        + mae(ReqKind::Inverse, &inputs.val_y, &inputs.val_x)
}

/// Completion-weighted mean of a per-shard statistic.
fn weighted(stats: &FleetStats, f: impl Fn(&ltfb_serve::ServeStats) -> f64) -> f64 {
    let total: u64 = stats.per_shard.iter().map(|s| s.completed).sum();
    stats
        .per_shard
        .iter()
        .map(|s| f(s) * s.completed as f64)
        .sum::<f64>()
        / total.max(1) as f64
}

pub fn run(args: &RunArgs) -> Outcome {
    let cfg = surrogate();
    std::fs::create_dir_all(&args.out_dir).expect("output directory");
    let ckpt = args.out_dir.join("serve-surrogate.ckpt");
    save_surrogate(&ckpt, &CycleGan::new(cfg, MODEL_SEED), 1).expect("surrogate checkpoint saves");
    let (model, _) = load_surrogate(&ckpt, &cfg).expect("surrogate checkpoint loads");
    let inputs = Inputs::generate(args.seed, &model);

    let mut setup_s = Vec::new();
    let mut start_s = Vec::new();
    let mut live: Option<(Fleet, Loop)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((fleet, _)) = live.take() {
            let _ = fleet.shutdown();
        }
        let t0 = Instant::now();
        let (fleet, lp, fleet_start) = setup(&ckpt, &inputs, args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        start_s.push(fleet_start);
        live = Some((fleet, lp));
    }
    let (fleet, mut lp) = live.expect("at least one set-up");

    let mut tr = Tracer::new(Instant::now());
    let mut windows = Windows::default();
    let started = Instant::now();
    let mut w = 0usize;
    let mut completed = 0u64;
    while started.elapsed() < args.budget() {
        let traced = Windows::traced_window(args.trace, w);
        tr.set_enabled(traced);
        let span = tr.begin("bench.window", BENCH_LAYER, w as u64);
        let start = WindowStart::now();
        for _ in 0..WINDOW {
            lp.fill(&mut tr, completed);
            lp.complete(&mut tr, completed, true);
            completed += 1;
        }
        tr.end(span);
        windows.push(traced, WINDOW as f64, start);
        w += 1;
    }
    tr.set_enabled(false);
    lp.drain(&mut tr);
    let val_loss = served_val_loss(&lp.client, &inputs);
    let (routed, spills, _) = fleet.router_counts();
    let stats = fleet.shutdown();

    let mut ops = lp.ops;
    ops.check(val_loss.is_finite());
    for (k, input, got) in &lp.verify {
        let want = infer(&model, kind_of(*k), input);
        ops.check(got.as_deref().is_some_and(|g| bits_equal(g, &want)));
    }
    ops.check(stats.sheds == 0 && stats.per_shard.iter().all(|s| s.rejected == 0));

    let served: u64 = stats.completed();
    let hits: u64 = stats.per_shard.iter().map(|s| s.cache_hits).sum();
    let cache_hit_frac = hits as f64 / served.max(1) as f64;
    let mut out = Outcome {
        ops,
        windows,
        ..Outcome::default()
    };
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("latency_p50_ms", median(&lp.latency_ms));
    out.e2e
        .insert("latency_p99_ms", quantile(&lp.latency_ms, 0.99));
    out.e2e.insert("val_loss", val_loss);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());

    let l = &mut out.layer;
    l.insert("serve.submit_us", median(&lp.submit_us));
    l.insert(
        "serve.server_p50_us",
        weighted(&stats, |s| s.latency_p50_us),
    );
    l.insert(
        "serve.server_p99_us",
        weighted(&stats, |s| s.latency_p99_us),
    );
    l.insert("serve.cache_hit_frac", cache_hit_frac);
    l.insert("serve.mean_batch", weighted(&stats, |s| s.mean_batch));
    l.insert(
        "serve.queue_depth_mean",
        weighted(&stats, |s| s.queue_depth_mean),
    );
    l.insert("serve.spill_frac", spills as f64 / routed.max(1) as f64);
    l.insert("serve.fleet_start_s", median(&start_s));

    out.info
        .push(("serve_cache_hit_frac", format!("{cache_hit_frac}")));
    out.info.push(("requests_measured", format!("{completed}")));
    out.info
        .push(("requests_served_total", format!("{served}")));
    out.info
        .push(("unique_rechecked", format!("{}", lp.verify.len())));
    out.info
        .push(("mean_latency_ms", format!("{}", mean(&lp.latency_ms))));
    if args.trace {
        out.threads.push(Thread {
            tid: 0,
            spans: tr.into_spans(),
        });
    }
    out
}
