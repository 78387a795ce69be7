//! In-memory span recorder, self-time profile and trace export.
//!
//! The benchmark wraps every call it makes into a layer of the system in
//! a span: name, layer, start, end, parent span and the step or request
//! id it belongs to. Spans stay in a per-thread `Vec` while the workload
//! runs and are written out when it ends, as Chrome trace-event JSON
//! (`chrome://tracing`, Perfetto) and as folded stacks of self time.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Summing self time per layer splits the traced wall time (the
//! duration of the root `bench.window` spans) into the layers; the
//! `bench` layer's own self time is the benchmark's glue, and
//! [`Profile::coverage`] is the share of wall time the other layers
//! account for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Layer name of the benchmark's own code (root windows and glue).
pub const BENCH_LAYER: &str = "bench";

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: u32,
    /// Step or request id.
    pub id: u64,
    /// True for a span whose duration a layer reported (for example the
    /// gradient-allreduce wait inside a data-parallel step) rather than
    /// one timed around a call; it is placed at the end of its parent.
    pub attributed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; a no-op when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be ended"]
pub struct SpanHandle(u32);

/// Per-thread span recorder. Disabled tracers record nothing and cost a
/// branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; share the origin
    /// between threads so their spans line up in one trace.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            on: false,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, id: u64) -> SpanHandle {
        if !self.on {
            return SpanHandle(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            id,
            attributed: false,
        });
        self.open.push(idx);
        SpanHandle(idx)
    }

    /// Close `h` (and any span left open inside it).
    pub fn end(&mut self, h: SpanHandle) {
        if h.0 == NO_PARENT {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == h.0 {
                break;
            }
        }
    }

    /// Record a child of the innermost open span whose duration a layer
    /// reported, ending now.
    pub fn attribute(&mut self, name: &'static str, layer: &'static str, id: u64, dur: Duration) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let dur = dur.as_nanos() as u64;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let floor = match parent {
            NO_PARENT => 0,
            p => self.spans[p as usize].start_ns,
        };
        self.spans.push(Span {
            name,
            layer,
            start_ns: end.saturating_sub(dur).max(floor),
            end_ns: end,
            parent,
            id,
            attributed: true,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans of one thread, with the thread's trace id.
pub struct Thread {
    pub tid: u32,
    pub spans: Vec<Span>,
}

/// Self-time profile of a set of traced threads.
#[derive(Debug, Default)]
pub struct Profile {
    /// Summed duration of the root spans (the traced wall time).
    pub wall_ns: u64,
    /// Self time per layer.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Self time per stack (`root;child;...`), for folded export.
    pub folded_ns: BTreeMap<String, u64>,
}

impl Profile {
    pub fn build(threads: &[Thread]) -> Profile {
        let mut p = Profile::default();
        for t in threads {
            let spans = &t.spans;
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if s.parent != NO_PARENT {
                    child_ns[s.parent as usize] += s.dur_ns();
                }
            }
            for (i, s) in spans.iter().enumerate() {
                let dur = s.dur_ns();
                let self_ns = dur.saturating_sub(child_ns[i]);
                if s.parent == NO_PARENT {
                    p.wall_ns += dur;
                }
                *p.layer_self_ns.entry(s.layer).or_default() += self_ns;
                *p.folded_ns.entry(stack_of(spans, i)).or_default() += self_ns;
            }
        }
        p
    }

    /// Share of traced wall time attributed to layers other than the
    /// benchmark's own glue.
    pub fn coverage(&self) -> f64 {
        let glue = self.layer_self_ns.get(BENCH_LAYER).copied().unwrap_or(0);
        1.0 - glue as f64 / self.wall_ns.max(1) as f64
    }

    /// A layer's self time as a share of traced wall time.
    pub fn layer_frac(&self, layer: &str) -> f64 {
        self.layer_self_ns.get(layer).copied().unwrap_or(0) as f64 / self.wall_ns.max(1) as f64
    }

    /// Folded stacks: one `root;child;... self_us` line per stack, the
    /// format flamegraph.pl and speedscope read.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, ns) in &self.folded_ns {
            let _ = writeln!(out, "{stack} {}", ns / 1000);
        }
        out
    }

    /// Per-layer self-time table: layer, self ms, share of wall time.
    pub fn layer_table(&self) -> String {
        let mut out = String::from("layer\tself_ms\tshare\n");
        for (layer, ns) in &self.layer_self_ns {
            let _ = writeln!(
                out,
                "{layer}\t{:.3}\t{:.4}",
                *ns as f64 / 1e6,
                *ns as f64 / self.wall_ns.max(1) as f64
            );
        }
        let _ = writeln!(out, "total\t{:.3}\t1.0000", self.wall_ns as f64 / 1e6);
        out
    }
}

/// Mean duration of the spans called `name`, in milliseconds; 0 when
/// there are none.
pub fn mean_ms<'a>(spans: impl IntoIterator<Item = &'a Span>, name: &str) -> f64 {
    let (n, total) = spans
        .into_iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns()));
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / 1e6
    }
}

fn stack_of(spans: &[Span], mut i: usize) -> String {
    let mut names = vec![spans[i].name];
    while spans[i].parent != NO_PARENT {
        i = spans[i].parent as usize;
        names.push(spans[i].name);
    }
    names.reverse();
    names.join(";")
}

/// Write `threads` as Chrome trace-event JSON (complete `X` events).
pub fn write_chrome(path: &Path, threads: &[Thread]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
    let mut first = true;
    for t in threads {
        for (i, s) in t.spans.iter().enumerate() {
            if !first {
                w.write_all(b",\n")?;
            }
            first = false;
            let parent: i64 = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            write!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
                 \"id\":{},\"attributed\":{}}}}}",
                s.name,
                s.layer,
                t.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.attributed
            )?;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_wall() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        t.set_enabled(true);
        let w = t.begin("bench.window", BENCH_LAYER, 0);
        let a = t.begin("core.train_step", "core", 1);
        std::thread::sleep(Duration::from_millis(2));
        t.attribute("comm.wait", "comm", 1, Duration::from_millis(1));
        t.end(a);
        t.end(w);
        let p = Profile::build(&[Thread {
            tid: 0,
            spans: t.into_spans(),
        }]);
        let total: u64 = p.layer_self_ns.values().sum();
        assert_eq!(total, p.wall_ns, "self times partition the wall time");
        let comm = p.layer_self_ns["comm"];
        assert!(
            (900_000..=1_100_000).contains(&comm),
            "attributed 1 ms: {comm}"
        );
        assert!(p.coverage() > 0.5);
        assert!(p
            .folded()
            .contains("bench.window;core.train_step;comm.wait "));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let h = t.begin("x", "core", 0);
        t.attribute("y", "comm", 0, Duration::from_millis(1));
        t.end(h);
        assert!(t.into_spans().is_empty());
    }
}
