//! `ltfb-population`: the paper's algorithm. The serial LTFB loop with
//! K = 4 trainers in one thread, with the `ltfb-cli train` defaults
//! (mini-batch 32, a tournament every 25 steps, validation every 50) on
//! the img-8 surrogate.
//!
//! The loop is composed from the same public per-step calls
//! `run_ltfb_serial` makes — `Trainer::train_step`, `pairing` +
//! `decide_match`, `Trainer::record_validation` — so the benchmark can
//! time each of them from outside. [`tests`] pin that the composition
//! reproduces `run_ltfb_serial` bit for bit.

use crate::harness::{
    gan_shapes, mean, median, peak_rss_mb, quantile, surrogate, train_step_flops, Ops, Outcome,
    RunArgs, WindowStart, Windows, SETUP_REPS,
};
use crate::trace::{mean_ms, Thread, Tracer, BENCH_LAYER};
use ltfb_core::{
    decide_match, pairing, pretrain_global_autoencoder, run_ltfb_serial_with_models, LtfbConfig,
    Trainer,
};
use ltfb_nn::LossHistory;
use std::time::Instant;

/// Population size.
pub const K: usize = 4;
/// A measured window is one validation cycle: 50 population steps with
/// two tournaments and one validation.
const WINDOW_STEPS: u64 = 50;
/// `val_loss` is the best trainer's validation loss at this step, the
/// end of a default `ltfb-cli train` run; the run always reaches it.
pub const VAL_STEP: u64 = 200;

/// The `ltfb-cli train` configuration on the img-8 surrogate.
pub fn config(seed: u64) -> LtfbConfig {
    let mut cfg = LtfbConfig::small(K);
    cfg.gan = surrogate();
    cfg.steps = VAL_STEP;
    cfg.ae_steps = VAL_STEP;
    cfg.train_samples = 1024;
    cfg.exchange_interval = 25;
    cfg.eval_interval = 50;
    cfg.lr_spread = 1.0;
    cfg.seed = seed;
    cfg
}

/// The population and its tournament bookkeeping.
pub struct Population {
    cfg: LtfbConfig,
    pub trainers: Vec<Trainer>,
    pub step: u64,
    pub matches: u64,
    pub adoptions: u64,
    /// Non-finite losses or scores seen (failed operations).
    pub ops: Ops,
    pub generator_bytes: u64,
}

impl Population {
    /// Set-up as `run_ltfb_serial` does it, timed in two parts: shared
    /// autoencoder pretraining, then trainer construction (data silos)
    /// with the autoencoder installed and the step-0 validation.
    pub fn setup(cfg: LtfbConfig) -> (Population, f64, f64) {
        let t0 = Instant::now();
        let ae = pretrain_global_autoencoder(&cfg);
        let ae_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut trainers: Vec<Trainer> =
            (0..cfg.n_trainers).map(|t| Trainer::new(cfg, t)).collect();
        for t in &mut trainers {
            t.load_autoencoder(ae.clone());
            t.record_validation();
        }
        let init_s = t1.elapsed().as_secs_f64();
        let pop = Population {
            cfg,
            trainers,
            step: 0,
            matches: 0,
            adoptions: 0,
            ops: Ops::default(),
            generator_bytes: 0,
        };
        (pop, ae_s, init_s)
    }

    /// One population step: a training step on every trainer, then the
    /// tournament and validation when they are due.
    pub fn step(&mut self, tr: &mut Tracer) {
        self.step += 1;
        let step = self.step;
        for t in &mut self.trainers {
            let s = tr.begin("core.train_step", "core", step);
            let l = t.train_step();
            tr.end(s);
            self.ops.check(
                [l.d_loss, l.adv, l.fidelity, l.cycle, l.recon]
                    .iter()
                    .all(|v| v.is_finite()),
            );
        }
        let cfg = &self.cfg;
        if cfg.n_trainers >= 2
            && cfg.exchange_interval > 0
            && step.is_multiple_of(cfg.exchange_interval)
        {
            let s = tr.begin("core.tournament", "core", step);
            let round = step / cfg.exchange_interval;
            let partners = pairing(cfg.n_trainers, round, cfg.seed);
            let payloads: Vec<_> = self
                .trainers
                .iter()
                .map(|t| t.gan.generator_to_bytes())
                .collect();
            for (t, partner) in partners.iter().enumerate() {
                if let Some(p) = *partner {
                    let out = decide_match(&mut self.trainers[t], p, payloads[p].clone());
                    self.matches += 1;
                    self.adoptions += u64::from(out.adopted_foreign);
                    self.generator_bytes = payloads[p].len() as u64;
                    self.ops
                        .check(out.own_score.is_finite() && out.foreign_score.is_finite());
                }
            }
            tr.end(s);
        }
        if cfg.eval_interval > 0 && step.is_multiple_of(cfg.eval_interval) {
            let s = tr.begin("core.validate", "core", step);
            for t in &mut self.trainers {
                let v = t.record_validation();
                self.ops.check(v.is_finite());
            }
            tr.end(s);
        }
    }

    /// Final validation loss of every trainer, as `run_ltfb_serial`
    /// reports it.
    pub fn final_val(&mut self) -> Vec<f32> {
        self.trainers
            .iter_mut()
            .map(|t| t.validate().combined())
            .collect()
    }
}

/// Check on a short configuration that the composed loop reproduces
/// `run_ltfb_serial` bit for bit: validation-loss histories, final
/// validation losses, adoptions and every trainer's generator
/// fingerprint.
pub fn matches_reference(cfg: LtfbConfig) -> bool {
    let (reference, ref_trainers) = run_ltfb_serial_with_models(&cfg);
    let (mut pop, _, _) = Population::setup(cfg);
    let mut tr = Tracer::new(Instant::now());
    while pop.step < cfg.steps {
        pop.step(&mut tr);
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let fps = |ts: &[Trainer]| {
        ts.iter()
            .map(|t| t.gan.generator_fingerprint())
            .collect::<Vec<_>>()
    };
    let history_bits = |hs: Vec<&LossHistory>| {
        hs.iter()
            .map(|h| {
                h.points()
                    .iter()
                    .map(|&(s, v)| (s, v.to_bits()))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    history_bits(pop.trainers.iter().map(|t| &t.history).collect())
        == history_bits(reference.histories.iter().collect())
        && bits(&pop.final_val()) == bits(&reference.final_val)
        && fps(&pop.trainers) == fps(&ref_trainers)
        && pop.adoptions == reference.adoptions
}

/// A short configuration for the reference check.
pub fn short_config(seed: u64) -> LtfbConfig {
    let mut cfg = config(seed);
    cfg.train_samples = 256;
    cfg.val_samples = 64;
    cfg.tournament_samples = 16;
    cfg.ae_steps = 10;
    cfg.steps = 50;
    cfg
}

pub fn run(args: &RunArgs) -> Outcome {
    let cfg = config(args.seed);
    let mut ae_s = Vec::new();
    let mut init_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut pop = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (p, ae, init) = Population::setup(cfg);
        setup_s.push(t0.elapsed().as_secs_f64());
        ae_s.push(ae);
        init_s.push(init);
        pop = Some(p);
    }
    let mut pop = pop.expect("at least one set-up");
    let gan_flops = train_step_flops(&gan_shapes(&pop.trainers[0].gan), cfg.mb);

    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let mut windows = Windows::default();
    let mut step_ms: Vec<f64> = Vec::with_capacity(1 << 14);
    let mut val_loss = f64::NAN;
    let ws_bytes = |p: &Population| -> u64 {
        p.trainers
            .iter()
            .map(|t| t.workspace().bytes_allocated())
            .sum()
    };
    // Workspace bytes and step count after the first window, once the
    // workspace pools have filled.
    let mut warm = (0, 0);
    let started = Instant::now();
    let mut w = 0usize;
    while started.elapsed() < args.budget() || pop.step < VAL_STEP {
        let traced = Windows::traced_window(args.trace, w);
        tr.set_enabled(traced);
        let wspan = tr.begin("bench.window", BENCH_LAYER, w as u64);
        let start = WindowStart::now();
        for _ in 0..WINDOW_STEPS {
            let s0 = Instant::now();
            pop.step(&mut tr);
            step_ms.push(s0.elapsed().as_secs_f64() * 1e3);
        }
        tr.end(wspan);
        windows.push(traced, (WINDOW_STEPS as usize * K * cfg.mb) as f64, start);
        if w == 0 {
            warm = (ws_bytes(&pop), pop.step);
        }
        if pop.step == VAL_STEP {
            let best = pop
                .trainers
                .iter()
                .filter_map(|t| t.history.at_step(VAL_STEP))
                .fold(f32::INFINITY, f32::min);
            val_loss = f64::from(best);
        }
        w += 1;
    }
    tr.set_enabled(false);

    let mut ops = pop.ops;
    ops.check(val_loss.is_finite());
    // The bit-for-bit reference check of the composed loop, on a short
    // configuration (untimed).
    ops.check(matches_reference(short_config(args.seed)));

    let mut out = Outcome {
        ops,
        windows,
        ..Outcome::default()
    };
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("latency_p50_ms", median(&step_ms));
    out.e2e.insert("latency_p99_ms", quantile(&step_ms, 0.99));
    out.e2e.insert("val_loss", val_loss);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());

    let spans = tr.into_spans();
    let step_span_ms = mean_ms(&spans, "core.train_step");
    let l = &mut out.layer;
    l.insert("core.train_step_ms", step_span_ms);
    l.insert(
        "tensor.train_gflops",
        if step_span_ms > 0.0 {
            gan_flops / (step_span_ms * 1e6)
        } else {
            0.0
        },
    );
    l.insert(
        "nn.ws_alloc_bytes_per_step",
        (ws_bytes(&pop) - warm.0) as f64 / ((pop.step - warm.1) as usize * K) as f64,
    );
    l.insert("core.tournament_ms", mean_ms(&spans, "core.tournament"));
    l.insert("core.validate_ms", mean_ms(&spans, "core.validate"));
    l.insert(
        "core.adoption_frac",
        pop.adoptions as f64 / pop.matches.max(1) as f64,
    );
    l.insert("core.ae_pretrain_s", median(&ae_s));
    l.insert("core.trainer_init_s", median(&init_s));
    l.insert("gan.generator_bytes", pop.generator_bytes as f64);
    out.info.push(("population_steps", format!("{}", pop.step)));
    out.info
        .push(("tournament_matches", format!("{}", pop.matches)));
    out.info
        .push(("gemm_flops_per_train_step", format!("{gan_flops}")));
    out.info
        .push(("mean_population_step_ms", format!("{}", mean(&step_ms))));
    if args.trace {
        out.threads.push(Thread { tid: 0, spans });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_loop_reproduces_run_ltfb_serial() {
        assert!(matches_reference(short_config(2019)));
        assert!(matches_reference(short_config(7)));
    }
}
