//! The repository's benchmark: one workload per process.
//!
//! ```text
//! perfbench <ltfb-population|dp-ingest|serve-fleet> --seed N --seconds S
//!           --trace 0|1 [--out DIR]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around every call into a layer,
//! writes them to `DIR` as Chrome trace-event JSON, folded stacks and a
//! per-layer self-time table, and prints the per-layer metrics. Every
//! run checks the program's outputs and counts a failed check as a
//! failed operation. The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. `perfbench/run.py`
//! builds this binary and adds the host and revision to the report.

#![forbid(unsafe_code)]

mod dp_ingest;
mod harness;
mod ltfb_population;
mod serve_fleet;
mod trace;

use harness::{json_num, json_str, result_line, Outcome, RunArgs, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Profile;

type Workload = fn(&RunArgs) -> Outcome;

const WORKLOADS: &[(&str, Workload)] = &[
    ("ltfb-population", ltfb_population::run),
    ("dp-ingest", dp_ingest::run),
    ("serve-fleet", serve_fleet::run),
];

/// Layers that traced spans are attributed to, with their share metric.
const SELF_SHARES: &[(&str, &str)] = &[
    ("core", "self.core_frac"),
    ("comm", "self.comm_frac"),
    ("datastore", "self.datastore_frac"),
    ("bundle", "self.bundle_frac"),
    ("serve", "self.serve_frac"),
    (trace::BENCH_LAYER, "self.bench_frac"),
];

/// Traced runs must attribute at least this share of wall time to layers.
const MIN_COVERAGE: f64 = 0.95;

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    eprintln!(
        "usage: perfbench <{}> --seed N --seconds S --trace 0|1 [--out DIR]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<(String, RunArgs)> {
    let mut it = args.iter();
    let workload = it.next()?.clone();
    let mut run = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = it.next() {
        let v = it.next()?;
        match flag.as_str() {
            "--seed" => run.seed = v.parse().ok()?,
            "--seconds" => {
                run.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0 && s.is_finite())?
            }
            "--trace" => {
                run.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => run.out_dir = PathBuf::from(v),
            _ => return None,
        }
    }
    Some((workload, run))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((workload, args)) = parse(&argv) else {
        return usage();
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|w| w.0 == workload) else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut out = run(&args);
    out.e2e.insert("samples_per_s", out.windows.rate());
    out.layer
        .insert("trace.overhead_frac", out.windows.overhead());

    let mut info: Vec<(String, String)> = vec![
        ("workload".into(), json_str(&workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        ("host_steal_frac".into(), json_num(out.windows.steal_frac())),
        ("windows".into(), out.windows.report()),
    ];
    if args.trace {
        let profile = Profile::build(&out.threads);
        let coverage = profile.coverage();
        out.layer.insert("trace.coverage_frac", coverage);
        for (layer, metric) in SELF_SHARES {
            out.layer.insert(metric, profile.layer_frac(layer));
        }
        out.ops.check(coverage >= MIN_COVERAGE);
        let stem = args.out_dir.join(format!("{workload}-seed{}", args.seed));
        let written = trace::write_chrome(&stem.with_extension("trace.json"), &out.threads)
            .and_then(|()| std::fs::write(stem.with_extension("folded"), profile.folded()))
            .and_then(|()| {
                std::fs::write(stem.with_extension("layers.tsv"), profile.layer_table())
            });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write trace exports: {e}");
            out.ops.check(false);
        }
        info.push(("trace_files".into(), json_str(&stem.display().to_string())));
        eprint!("{}", profile.layer_table());
    }
    for (k, v) in &out.info {
        info.push(((*k).into(), v.clone()));
    }
    let (table, values) = if args.trace {
        (PER_LAYER, &out.layer)
    } else {
        (END_TO_END, &out.e2e)
    };
    // Every metric the table names must have been measured, and be a
    // finite number; anything else is a failed check.
    for (name, _) in table {
        let measured = values.get(name).copied();
        let expected = args.trace || measured.is_some();
        out.ops
            .check(expected && measured.is_none_or(f64::is_finite));
    }
    let body: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("perfbench-info {{{}}}", body.join(", "));
    let correct = out.ops.failed == 0;
    println!("{}", result_line(out.ops, correct, table, values));
    ExitCode::SUCCESS
}
