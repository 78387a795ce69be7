//! `dp-ingest`: one trainer as two data-parallel ranks fed by the tiered
//! out-of-core store. The global mini-batch of 32 is split 16/16 (the
//! strong-scaling shape of the paper's Fig. 9). Each step calls
//! `DataStore::fetch_step` (owners push samples to consumers), decodes
//! with `node_to_sample` + `batch_from_samples`, and trains with
//! `dp_train_step_overlapped` (backward-overlapped gradient allreduce).
//! It is the only workload where comm and datastore/bundle do real work.

use crate::harness::{
    gan_shapes, median, peak_rss_mb, quantile, surrogate, train_step_flops, Ops, Outcome, RunArgs,
    WindowStart, Windows, MODEL_SEED, SETUP_REPS,
};
use crate::trace::{mean_ms, Span, Thread, Tracer, BENCH_LAYER};
use ltfb_comm::{run_world, Comm};
use ltfb_core::{dp_train_step_overlapped, val_samples, DpOverlap};
use ltfb_datastore::{node_to_sample, DataStore};
use ltfb_gan::{batch_from_samples, CycleGan, CycleGanConfig};
use ltfb_jag::{DatasetSpec, Sample};
use ltfb_nn::Workspace;
use ltfb_tensor::{mix_seed, Matrix};
use std::path::Path;
use std::time::{Duration, Instant};

const RANKS: usize = 2;
/// Samples in the store.
const N: u64 = 2048;
const PER_FILE: usize = 64;
/// Global mini-batch (16 per rank).
const MB: usize = 32;
/// Hot-tier budget per rank, in samples: half of a rank's partition.
const HOT_SAMPLES: u64 = N / RANKS as u64 / 2;
/// `val_loss` is replica 0's validation loss after this epoch (epoch 0
/// is the set-up warm-up); the run always reaches it.
const VAL_EPOCH: u64 = 3;
/// Global validation set size (the LTFB default).
const VAL_SAMPLES: u64 = 256;

/// The seed picks the slice of the design space the store holds.
fn dataset(dir: &Path, seed: u64) -> DatasetSpec {
    DatasetSpec::new(dir, surrogate().jag, N, PER_FILE)
        .with_design_offset(mix_seed(&[seed, 0xDA7A]) % (1 << 32))
}

/// One rank's account of the run.
#[derive(Default)]
struct RankResult {
    setup_done: Option<Instant>,
    ops: Ops,
    step_ms: Vec<f64>,
    windows: Windows,
    /// Ids this rank consumed, per epoch (epoch 0 is the warm-up).
    consumed: Vec<Vec<u64>>,
    fingerprints: Vec<u64>,
    /// Replica weights after `VAL_EPOCH` (rank 0).
    snapshot: Option<Vec<Vec<Matrix>>>,
    measured_steps: u64,
    comm_msgs: u64,
    comm_bytes: u64,
    shuffled_bytes: u64,
    tier_hits: u64,
    tier_misses: u64,
    comm_wait: Duration,
    overlap_sum: f64,
    ws_alloc: u64,
    spans: Vec<Span>,
}

/// Per-rank training state.
struct Replica {
    rank: usize,
    comm: Comm,
    store: DataStore,
    gan: CycleGan,
    ws: Workspace,
    ov: DpOverlap,
    cfg: CycleGanConfig,
}

impl Replica {
    /// One step; returns the ids consumed, whether its outputs are sound,
    /// and the comm wait the overlap engine reported.
    fn step(
        &mut self,
        plan: &ltfb_datastore::EpochPlan,
        step: usize,
        epoch: u64,
        tr: &mut Tracer,
    ) -> (Vec<u64>, bool, Duration) {
        let id = (epoch << 16) | step as u64;
        let s = tr.begin("datastore.fetch_step", "datastore", id);
        let got = self
            .store
            .fetch_step(plan, step, epoch)
            .unwrap_or_else(|e| panic!("rank {}: fetch_step failed: {e}", self.rank));
        tr.end(s);
        let s = tr.begin("bundle.decode", "bundle", id);
        let samples: Vec<Sample> = got
            .iter()
            .map(|(_, n)| node_to_sample(n).expect("store nodes follow the JAG schema"))
            .collect();
        let refs: Vec<&Sample> = samples.iter().collect();
        let (x, y) = batch_from_samples(&self.cfg, &refs);
        tr.end(s);
        let s = tr.begin("core.dp_step", "core", id);
        let l = dp_train_step_overlapped(
            &mut self.gan,
            &x,
            &y,
            &self.comm,
            &mut self.ws,
            &mut self.ov,
        );
        let wait = self.ov.take_comm_wait();
        tr.attribute("comm.wait", "comm", id, wait);
        tr.end(s);
        let ids: Vec<u64> = got.iter().map(|(i, _)| *i).collect();
        let ok = ids == plan.my_ids(step, self.rank)
            && [l.d_loss, l.adv, l.fidelity, l.cycle, l.recon]
                .iter()
                .all(|v| v.is_finite());
        (ids, ok, wait)
    }
}

fn rank_body(
    comm: Comm,
    spec: &DatasetSpec,
    args: &RunArgs,
    measure: bool,
    origin: Instant,
) -> RankResult {
    let cfg = surrogate();
    let rank = comm.rank();
    let ctl = comm.dup();
    let budget = HOT_SAMPLES * cfg.jag.sample_bytes() as u64;
    let store = DataStore::new_tiered(
        comm.dup(),
        spec.clone(),
        (0..N).collect(),
        MB,
        args.seed,
        budget,
        1,
    )
    .expect("tiered store opens");
    let mut r = Replica {
        rank,
        comm,
        store,
        gan: CycleGan::new(cfg, MODEL_SEED),
        ws: Workspace::new(),
        ov: DpOverlap::new(),
        cfg,
    };
    let mut res = RankResult::default();
    let mut tr = Tracer::new(origin);

    // Warm-up: epoch 0, a fixed count of steps, part of set-up.
    let plan = r.store.epoch_plan(0);
    let mut ids = Vec::new();
    for step in 0..plan.steps() {
        let (got, ok, _) = r.step(&plan, step, 0, &mut tr);
        res.ops.check(ok);
        ids.extend(got);
    }
    res.consumed.push(ids);
    ctl.all_true(true);
    res.setup_done = Some(Instant::now());
    if !measure {
        return res;
    }

    let comm0 = r.comm.stats().snapshot();
    let shuf0 = r.store.stats().shuffled_bytes;
    let tier0 = r.store.tier_stats().expect("tiered store");
    let alloc0 = r.ws.bytes_allocated();
    let started = Instant::now();
    let mut epoch = 0u64;
    loop {
        epoch += 1;
        let traced = Windows::traced_window(args.trace, epoch as usize - 1);
        tr.set_enabled(traced);
        let plan = r.store.epoch_plan(epoch);
        let w = tr.begin("bench.window", BENCH_LAYER, epoch);
        let start = WindowStart::now();
        let mut ids = Vec::with_capacity(N as usize / RANKS);
        for step in 0..plan.steps() {
            let s0 = Instant::now();
            let (got, ok, wait) = r.step(&plan, step, epoch, &mut tr);
            res.step_ms.push(s0.elapsed().as_secs_f64() * 1e3);
            res.ops.check(ok);
            res.comm_wait += wait;
            res.overlap_sum += r.ov.overlap_fraction();
            res.measured_steps += 1;
            ids.extend(got);
        }
        tr.end(w);
        tr.set_enabled(false);
        res.windows.push(traced, N as f64, start);
        res.consumed.push(ids);
        if epoch == VAL_EPOCH && rank == 0 {
            res.snapshot = Some(r.gan.networks().iter().map(|n| n.snapshot()).collect());
        }
        if ctl.all_true(started.elapsed() >= args.budget() && epoch >= VAL_EPOCH) {
            break;
        }
    }
    let comm1 = r.comm.stats().snapshot();
    let tier1 = r.store.tier_stats().expect("tiered store");
    res.comm_msgs = comm1.0 - comm0.0;
    res.comm_bytes = comm1.1 - comm0.1;
    res.shuffled_bytes = r.store.stats().shuffled_bytes - shuf0;
    res.tier_hits = tier1.hits - tier0.hits;
    res.tier_misses = tier1.misses - tier0.misses;
    res.ws_alloc = r.ws.bytes_allocated() - alloc0;
    res.fingerprints = r
        .gan
        .networks()
        .iter()
        .map(|n| n.weights_fingerprint())
        .collect();
    res.spans = tr.into_spans();
    res
}

pub fn run(args: &RunArgs) -> Outcome {
    let dir = args.out_dir.join("dp-ingest-data");
    let origin = Instant::now();
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut results = Vec::new();
    for rep in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let spec = dataset(&dir, args.seed);
        spec.generate_all_shards().expect("shard generation");
        gen_s.push(t0.elapsed().as_secs_f64());
        let measure = rep + 1 == SETUP_REPS;
        results = run_world(RANKS, |comm| rank_body(comm, &spec, args, measure, origin));
        let done = results[0].setup_done.expect("rank 0 finished set-up");
        setup_s.push((done - t0).as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = surrogate();
    let mut ops = Ops::default();
    for r in &results {
        ops.merge(r.ops);
    }
    // Replicas stay identical.
    ops.check(
        results
            .windows(2)
            .all(|w| w[0].fingerprints == w[1].fingerprints),
    );
    // Every planned sample is consumed exactly once per epoch.
    let epochs = results[0].consumed.len();
    for e in 0..epochs {
        let mut all: Vec<u64> = results
            .iter()
            .flat_map(|r| r.consumed[e].iter().copied())
            .collect();
        all.sort_unstable();
        ops.check(all.len() == N as usize && all.iter().copied().eq(0..N));
    }
    // Replica 0's validation loss at the fixed epoch.
    let val = val_samples(&cfg.jag, 0, VAL_SAMPLES);
    let refs: Vec<&Sample> = val.iter().collect();
    let (vx, vy) = batch_from_samples(&cfg, &refs);
    let snapshot = results[0].snapshot.as_ref().expect("run reached VAL_EPOCH");
    let mut gan = CycleGan::new(cfg, MODEL_SEED);
    for (net, w) in gan.networks_mut().into_iter().zip(snapshot) {
        net.restore(w);
    }
    let val_loss = f64::from(gan.evaluate(&vx, &vy).combined());
    ops.check(val_loss.is_finite());

    let step_ms: Vec<f64> = results
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    let rank_steps: u64 = results.iter().map(|r| r.measured_steps).sum();
    let global_steps = results[0].measured_steps as f64;
    let hits: u64 = results.iter().map(|r| r.tier_hits).sum();
    let misses: u64 = results.iter().map(|r| r.tier_misses).sum();
    let tier_hit_frac = hits as f64 / (hits + misses).max(1) as f64;

    let mut out = Outcome {
        ops,
        windows: std::mem::take(&mut results[0].windows),
        ..Outcome::default()
    };
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("latency_p50_ms", median(&step_ms));
    out.e2e.insert("latency_p99_ms", quantile(&step_ms, 0.99));
    out.e2e.insert("val_loss", val_loss);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());

    let spans = || results.iter().flat_map(|r| r.spans.iter());
    let dp_step_ms = mean_ms(spans(), "core.dp_step");
    let wait_ms = results
        .iter()
        .map(|r| r.comm_wait.as_secs_f64())
        .sum::<f64>()
        * 1e3
        / rank_steps.max(1) as f64;
    let rank_flops = train_step_flops(&gan_shapes(&gan), MB / RANKS);
    let l = &mut out.layer;
    l.insert("core.dp_step_ms", dp_step_ms);
    l.insert(
        "tensor.train_gflops",
        if dp_step_ms > wait_ms {
            rank_flops / ((dp_step_ms - wait_ms) * 1e6)
        } else {
            0.0
        },
    );
    l.insert(
        "nn.ws_alloc_bytes_per_step",
        results.iter().map(|r| r.ws_alloc).sum::<u64>() as f64 / rank_steps.max(1) as f64,
    );
    l.insert("comm.wait_ms_per_step", wait_ms);
    l.insert(
        "comm.overlap_frac",
        results.iter().map(|r| r.overlap_sum).sum::<f64>() / rank_steps.max(1) as f64,
    );
    l.insert(
        "comm.msgs_per_step",
        results.iter().map(|r| r.comm_msgs).sum::<u64>() as f64 / global_steps,
    );
    l.insert(
        "comm.bytes_per_step",
        results.iter().map(|r| r.comm_bytes).sum::<u64>() as f64 / global_steps,
    );
    l.insert(
        "datastore.fetch_ms_per_step",
        mean_ms(spans(), "datastore.fetch_step"),
    );
    l.insert(
        "datastore.decode_ms_per_step",
        mean_ms(spans(), "bundle.decode"),
    );
    l.insert("datastore.tier_hit_frac", tier_hit_frac);
    l.insert(
        "datastore.shuffled_bytes_per_step",
        results.iter().map(|r| r.shuffled_bytes).sum::<u64>() as f64 / global_steps,
    );
    l.insert("datastore.shard_gen_s", median(&gen_s));

    out.info
        .push(("store_tier_hit_frac", format!("{tier_hit_frac}")));
    out.info.push(("epochs", format!("{epochs}")));
    out.info.push(("rank_steps", format!("{rank_steps}")));
    out.info
        .push(("gemm_flops_per_rank_step", format!("{rank_flops}")));
    if args.trace {
        for (tid, r) in results.into_iter().enumerate() {
            out.threads.push(Thread {
                tid: tid as u32,
                spans: r.spans,
            });
        }
    }
    out
}
