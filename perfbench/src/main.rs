//! Wall-clock benchmark of the ABD workspace.
//!
//! ```text
//! abd-perfbench --workload <rt-kv-read|rt-kv-write|sim-nemesis> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it measures the workload untraced
//! and traced, runs the floor probes, and prints the per-layer metrics.
//! Either way every history is checked, and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is non-zero on any violation or failed operation. See
//! `perfbench/README.md`.

mod gate;
mod rng;
mod rt;
mod sim;
mod stats;
mod trace;

use stats::{median, Summary};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{set_alloc_counting, totals, Sink, Spans, Totals, Traced};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u64 = 5;
/// Campaigns per window of `sim-nemesis`, enough for each window's p99 to
/// have ten beyond it.
const SIM_WINDOW: u64 = 1_000;
/// Campaigns of the simulator probe that traced runtime runs add, two of
/// every protocol and read-mode pairing.
const SIM_PROBE_CAMPAIGNS: u64 = 18;
/// Seeds the set-up warm-ups and probes away from the measured stream.
const WARM_SALT: u64 = 0x5e7_0001;
const PROBE_SALT: u64 = 0x960be;

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("request_p50_us", "us"),
    ("request_p99_us", "us"),
];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 26] = [
    ("runtime.echo_rtt_p50_us", "us"),
    ("runtime.echo_rtt_p99_us", "us"),
    ("runtime.n1_op_p50_us", "us"),
    ("runtime.transport_us_per_op", "us"),
    ("runtime.spawn_ms", "ms"),
    ("core.swmr.handler_ns", "ns"),
    ("core.mwmr.handler_ns", "ns"),
    ("kv.handler_ns", "ns"),
    ("core.swmr.allocs_per_call", "count"),
    ("core.mwmr.allocs_per_call", "count"),
    ("kv.allocs_per_call", "count"),
    ("core.swmr.msgs_per_op", "count"),
    ("core.mwmr.msgs_per_op", "count"),
    ("kv.msgs_per_op", "count"),
    ("kv.recovery_handler_us", "us"),
    ("kv.recovery_msgs", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.events_per_campaign", "count"),
    ("simnet.retransmit_frac", "ratio"),
    ("simnet.plan_us", "us"),
    ("lincheck.atomic_swmr_us_per_op", "us"),
    ("lincheck.linearizable_mwmr_us_per_op", "us"),
    ("lincheck.linearizable_kv_us_per_op", "us"),
    ("lincheck.unknown_frac", "ratio"),
    ("lincheck.share", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    RtKvRead,
    RtKvWrite,
    SimNemesis,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    window: Duration,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut window, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "rt-kv-read" => Workload::RtKvRead,
                    "rt-kv-write" => Workload::RtKvWrite,
                    "sim-nemesis" => Workload::SimNemesis,
                    _ => return Err(bad(&"unknown workload")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                window = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: window.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run found and measured.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    lines: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Takes each metric of `from` that this report lacks.
    fn fill_from(&mut self, from: &BTreeMap<String, f64>) {
        for (k, v) in from {
            self.metrics.entry(k.clone()).or_insert(*v);
        }
    }

    fn timing(&mut self, name: &str, unit: &str, xs: Vec<f64>) -> Option<Summary> {
        let s = Summary::of(xs);
        self.lines.push(match &s {
            Some(s) => s.line(name, unit),
            None => format!("{name}: no samples"),
        });
        s
    }

    /// Sets the windowed request metrics and reports them.
    fn windowed(&mut self, windows: &[(f64, Vec<f64>)]) {
        if let Some([rate, p50, p99]) = stats::window_medians(windows) {
            self.set("requests_per_s", rate);
            self.set("request_p50_us", p50);
            self.set("request_p99_us", p99);
            self.lines.push(format!(
                "median over {} windows: {rate:.3} requests/s, p50 {p50:.3} us, p99 {p99:.3} us",
                windows.len()
            ));
        }
    }

    fn gate(&mut self, what: &str, v: &gate::Verdicts) {
        self.lines.push(format!(
            "{what}: {} Wing-Gong checks over {} ops, {} unknown, {} violations",
            v.checks,
            v.ops,
            v.unknown,
            v.violations.len()
        ));
        self.problems.extend(
            v.violations
                .iter()
                .map(|x| format!("{what}: not linearizable: {x}")),
        );
    }

    fn runtime(&mut self, what: &str, out: &rt::Outcome) -> gate::Verdicts {
        self.attempted += out.attempted;
        self.failed += out.failed;
        if out.failed > 0 {
            self.problems
                .push(format!("{what}: {} operations timed out", out.failed));
        }
        let v = gate::check_runtime(&out.recs, rt::initial);
        self.gate(what, &v);
        v
    }

    fn campaigns(&mut self, cs: &[sim::Campaign]) {
        self.attempted += cs.len() as u64;
        for c in cs {
            if let Some(f) = &c.failure {
                self.failed += 1;
                self.problems.push(f.clone());
            }
        }
    }

    /// Prints the report and the result line; the exit code.
    fn finish(mut self, names: &[(&str, &str)]) -> ExitCode {
        let mut json = Vec::new();
        for (name, unit) in names {
            match self.metrics.get(*name) {
                Some(v) if v.is_finite() => json.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                _ => self
                    .problems
                    .push(format!("metric {name} was not measured")),
            }
        }
        for l in &self.lines {
            println!("{l}");
        }
        for p in &self.problems {
            println!("FAIL: {p}");
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn spec(w: Workload) -> &'static rt::Spec {
    match w {
        Workload::RtKvRead => &rt::READ,
        Workload::RtKvWrite => &rt::WRITE,
        Workload::SimNemesis => unreachable!("not a runtime workload"),
    }
}

/// `SETUP_REPS` set-ups of the runtime workload; the last cluster is kept.
fn rt_setups(r: &mut Report, spec: &rt::Spec, seed: u64) -> rt::Setup<abd_kv::KvNode<u64, u64>> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let s = rt::setup(spec, seed ^ WARM_SALT ^ rep, |nodes| nodes);
        times.push(s.setup_s);
        last = Some(s);
    }
    r.set("setup_s", median(&times).expect("set-ups ran"));
    r.timing("setup", "s", times);
    last.expect("set-ups ran")
}

/// Four campaigns of every pairing before timing; `setup_s` is the median
/// of `SETUP_REPS` such warm-ups, each scaled to the reference speed.
fn sim_setups(r: &mut Report, seed: u64) {
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let cs: Vec<_> = (0..36)
            .map(|i| sim::campaign(seed ^ WARM_SALT ^ rep, i, None))
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        raw.push(secs);
        scaled.push(secs * sim::REFERENCE_MS / sim::reference_ms());
        r.campaigns(&cs);
    }
    r.set("setup_s", median(&scaled).expect("set-ups ran"));
    r.timing("setup (as measured)", "s", raw);
    r.timing("setup (at reference speed)", "s", scaled);
}

/// Campaigns in windows of `SIM_WINDOW` until `window` has passed. The
/// simulator is CPU-bound, so each window's times are scaled by the
/// reference work's time measured right after it, to the speed at which
/// that work takes `sim::REFERENCE_MS`.
fn sim_untraced(r: &mut Report, a: &Args) {
    sim_setups(r, a.seed);
    let t0 = Instant::now();
    let (mut cs, mut raw, mut scaled, mut refs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while t0.elapsed() < a.window {
        let first = cs.len() as u64;
        let part: Vec<_> = (first..first + SIM_WINDOW)
            .map(|i| sim::campaign(a.seed, i, None))
            .collect();
        let ref_ms = sim::reference_ms();
        let scale = sim::REFERENCE_MS / ref_ms;
        let secs = part.iter().map(|c| c.total_ns).sum::<u64>() as f64 / 1e9;
        let lat: Vec<f64> = part.iter().map(|c| c.total_ns as f64 / 1e3).collect();
        scaled.push((secs * scale, lat.iter().map(|x| x * scale).collect()));
        raw.push((secs, lat));
        refs.push(ref_ms);
        cs.extend(part);
    }
    let secs = t0.elapsed().as_secs_f64();
    r.campaigns(&cs);
    r.lines.push(format!(
        "campaigns_per_s: {:.3} 1/s as measured ({} campaigns in {secs:.3} s)",
        cs.len() as f64 / secs,
        cs.len()
    ));
    r.timing(
        "campaign (as measured)",
        "us",
        cs.iter().map(|c| c.total_ns as f64 / 1e3).collect(),
    );
    r.timing("reference work", "ms", refs);
    if let Some([rate, p50, p99]) = stats::window_medians(&raw) {
        r.lines.push(format!(
            "as measured, median over {} windows: {rate:.3} requests/s, p50 {p50:.3} us, p99 {p99:.3} us",
            raw.len()
        ));
    }
    r.windowed(&scaled);
}

fn untraced(a: &Args) -> ExitCode {
    let mut r = Report::default();
    match a.workload {
        Workload::SimNemesis => sim_untraced(&mut r, a),
        w => {
            let spec = spec(w);
            let s = rt_setups(&mut r, spec, a.seed);
            let out = rt::run(&s.cluster, spec, a.seed, a.window);
            drop(s);
            r.runtime(&format!("{w:?}"), &out);
            r.lines.push(format!(
                "ops_per_s: {:.3} 1/s (active {:.3} s)",
                out.ops_per_s(),
                out.active_s()
            ));
            r.timing("request", "us", out.latencies(|_| true));
            r.timing("get", "us", out.latencies(|s| !s.put));
            r.timing("put", "us", out.latencies(|s| s.put));
            r.windowed(&out.windows());
            if spec.crash.is_some() {
                r.timing("restart_serve", "ms", out.restart_serve_ms);
            }
        }
    }
    r.finish(&END_TO_END)
}

/// Handler figures of one layer under `prefix`.
fn handler_metrics(m: &mut BTreeMap<String, f64>, prefix: &str, t: &Totals) {
    if t.calls > 0 {
        m.insert(format!("{prefix}.handler_ns"), t.ns as f64 / t.calls as f64);
        m.insert(
            format!("{prefix}.allocs_per_call"),
            t.allocs as f64 / t.calls as f64,
        );
    }
    if t.invokes > 0 {
        m.insert(
            format!("{prefix}.msgs_per_op"),
            t.sends as f64 / t.invokes as f64,
        );
    }
    if prefix == "kv" && !t.recoveries.is_empty() {
        let ns: Vec<f64> = t
            .recoveries
            .iter()
            .map(|&(ns, _)| ns as f64 / 1e3)
            .collect();
        let sends: Vec<f64> = t.recoveries.iter().map(|&(_, s)| s as f64).collect();
        m.insert(
            "kv.recovery_handler_us".into(),
            median(&ns).expect("non-empty"),
        );
        m.insert(
            "kv.recovery_msgs".into(),
            median(&sends).expect("non-empty"),
        );
    }
}

/// Per-layer figures of traced campaigns.
fn campaign_metrics(
    cs: &[sim::Campaign],
    sinks: &sim::Sinks,
    spans: &mut Spans,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    handler_metrics(&mut m, "core.swmr", &totals(&sinks.swmr));
    handler_metrics(&mut m, "core.mwmr", &totals(&sinks.mwmr));
    handler_metrics(&mut m, "kv", &totals(&sinks.kv));
    let sum = |f: &dyn Fn(&sim::Campaign) -> u64| cs.iter().map(f).sum::<u64>() as f64;
    let events = sum(&|c| c.events);
    m.insert(
        "simnet.ns_per_event".into(),
        sum(&|c| c.run_ns - c.handler_ns.min(c.run_ns)) / events,
    );
    m.insert(
        "simnet.events_per_campaign".into(),
        events / cs.len() as f64,
    );
    m.insert(
        "simnet.retransmit_frac".into(),
        sum(&|c| c.retransmissions) / sum(&|c| c.sent),
    );
    for c in cs {
        spans.push("simnet.plan_and_apply", c.plan_ns as f64 / 1e3);
        spans.push("simnet.run_campaign", c.run_ns as f64 / 1e3);
        spans.push(
            "simnet.run_campaign_self",
            (c.run_ns - c.handler_ns.min(c.run_ns)) as f64 / 1e3,
        );
        spans.push("lincheck.judge", c.verdicts.ns as f64 / 1e3);
    }
    m.insert(
        "simnet.plan_us".into(),
        median(spans.get("simnet.plan_and_apply")).expect("campaigns ran"),
    );
    for (proto, name) in [
        (sim::Proto::Swmr, "lincheck.atomic_swmr_us_per_op"),
        (sim::Proto::Mwmr, "lincheck.linearizable_mwmr_us_per_op"),
        (sim::Proto::Kv, "lincheck.linearizable_kv_us_per_op"),
    ] {
        let of = |f: &dyn Fn(&gate::Verdicts) -> u64| {
            cs.iter()
                .filter(|c| c.proto == proto)
                .map(|c| f(&c.verdicts))
                .sum::<u64>() as f64
        };
        if of(&|v| v.ops) > 0.0 {
            m.insert(name.into(), of(&|v| v.ns) / of(&|v| v.ops) / 1e3);
        }
    }
    let wg = |f: &dyn Fn(&gate::Verdicts) -> u64| {
        cs.iter()
            .filter(|c| c.proto != sim::Proto::Swmr)
            .map(|c| f(&c.verdicts))
            .sum::<u64>() as f64
    };
    m.insert(
        "lincheck.unknown_frac".into(),
        wg(&|v| v.unknown) / wg(&|v| v.checks),
    );
    m.insert(
        "lincheck.share".into(),
        sum(&|c| c.verdicts.ns) / sum(&|c| c.total_ns),
    );
    m
}

/// Reruns each traced campaign (campaign `first + k` for the `k`-th)
/// untraced and describes any whose trace digest differs.
fn digest_mismatches(seed: u64, traced: &[sim::Campaign], first: u64) -> Vec<String> {
    traced
        .iter()
        .zip(first..)
        .filter_map(|(c, i)| {
            let plain = sim::campaign(seed, i, None).digest;
            (plain != c.digest).then(|| {
                format!(
                    "campaign {i}: trace digest {:#x} traced, {plain:#x} untraced",
                    c.digest
                )
            })
        })
        .collect()
}

/// The runtime floor probes: echo round trips and the single-node
/// cluster, each for `window`.
fn floor_probes(
    r: &mut Report,
    seed: u64,
    window: Duration,
    spans: &mut Spans,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    match rt::echo_probe(window) {
        Ok((rtt, spawn_us)) => {
            spans.push("runtime.spawn", spawn_us);
            r.attempted += rtt.len() as u64;
            if let Some(s) = r.timing("runtime.echo_rtt", "us", rtt) {
                m.insert("runtime.echo_rtt_p50_us".into(), s.p50);
                m.insert("runtime.echo_rtt_p99_us".into(), s.p99);
            }
        }
        Err(e) => {
            r.failed += 1;
            r.problems.push(format!("echo probe: {e}"));
        }
    }
    let sink = Sink::default();
    let s = rt::setup(&rt::SINGLE, seed ^ WARM_SALT, |nodes| {
        Traced::wrap_all(nodes, &sink)
    });
    spans.push("runtime.spawn", s.spawn_us);
    let out = rt::run(&s.cluster, &rt::SINGLE, seed ^ PROBE_SALT, window);
    drop(s.cluster);
    r.runtime("single-node probe", &out);
    if let Some(st) = r.timing("runtime.n1_op", "us", out.latencies(|_| true)) {
        m.insert("runtime.n1_op_p50_us".into(), st.p50);
    }
    m.insert(
        "runtime.transport_us_per_op".into(),
        transport_us(&out, &s.warm_us, &totals(&sink)),
    );
    m.insert(
        "runtime.spawn_ms".into(),
        median(spans.get("runtime.spawn")).expect("spawned") / 1e3,
    );
    m
}

/// Mean invoke latency minus mean handler time per invocation, µs.
fn transport_us(out: &rt::Outcome, warm_us: &[f64], t: &Totals) -> f64 {
    let latency_us: f64 = out
        .recs
        .iter()
        .map(|r| (r.end - r.start) as f64 / 1e3)
        .chain(warm_us.iter().copied())
        .sum();
    (latency_us - t.ns as f64 / 1e3) / t.invokes as f64
}

/// The traced passes of `sim-nemesis`: the tracing overhead and the
/// per-layer figures. Every traced campaign's digest must match its
/// untraced run.
fn traced_sim(r: &mut Report, a: &Args, spans: &mut Spans) -> (f64, BTreeMap<String, f64>) {
    let half = a.window / 2;
    let t0 = Instant::now();
    let plain = sim::run(a.seed, 0, half, None);
    let plain_rate = plain.len() as f64 / t0.elapsed().as_secs_f64();
    r.campaigns(&plain);
    let sinks = sim::Sinks::default();
    set_alloc_counting(true);
    let t1 = Instant::now();
    let cs = sim::run(a.seed, 0, half, Some(&sinks));
    let rate = cs.len() as f64 / t1.elapsed().as_secs_f64();
    set_alloc_counting(false);
    r.campaigns(&cs);
    r.lines.push(format!(
        "campaigns_per_s: {plain_rate:.3} untraced, {rate:.3} traced"
    ));
    let same = plain
        .iter()
        .zip(&cs)
        .filter(|(p, t)| p.digest != t.digest)
        .map(|(p, t)| {
            format!(
                "trace digest {:#x} untraced, {:#x} traced",
                p.digest, t.digest
            )
        });
    let rest = plain.len().min(cs.len());
    let extra = digest_mismatches(a.seed, &cs[rest..], rest as u64);
    r.problems.extend(same.chain(extra));
    r.lines
        .push(format!("trace digests compared: {} campaigns", cs.len()));
    (
        1.0 - rate / plain_rate,
        campaign_metrics(&cs, &sinks, spans),
    )
}

/// The traced passes of a runtime workload: the tracing overhead and the
/// per-layer figures, those of layers the workload bypasses taken from a
/// fixed set of probe campaigns.
fn traced_rt(
    r: &mut Report,
    a: &Args,
    spec: &rt::Spec,
    spans: &mut Spans,
) -> (f64, BTreeMap<String, f64>) {
    let half = a.window / 2;
    let s = rt::setup(spec, a.seed ^ WARM_SALT, |nodes| nodes);
    spans.push("runtime.spawn", s.spawn_us);
    let plain = rt::run(&s.cluster, spec, a.seed, half);
    drop(s);
    r.runtime("untraced pass", &plain);
    let sink = Sink::default();
    let s = rt::setup(spec, a.seed ^ WARM_SALT, |nodes| {
        Traced::wrap_all(nodes, &sink)
    });
    spans.push("runtime.spawn", s.spawn_us);
    set_alloc_counting(true);
    let out = rt::run(&s.cluster, spec, a.seed, half);
    set_alloc_counting(false);
    drop(s.cluster);
    let v = r.runtime("traced pass", &out);
    r.lines.push(format!(
        "ops_per_s: {:.3} untraced, {:.3} traced",
        plain.ops_per_s(),
        out.ops_per_s()
    ));
    for x in out.latencies(|_| true) {
        spans.push("runtime.invoke", x);
    }
    for &x in &out.restart_call_us {
        spans.push("runtime.restart", x);
    }
    let mut m = BTreeMap::new();
    let t = totals(&sink);
    handler_metrics(&mut m, "kv", &t);
    m.insert(
        "runtime.transport_us_per_op".into(),
        transport_us(&out, &s.warm_us, &t),
    );
    m.insert(
        "runtime.spawn_ms".into(),
        median(spans.get("runtime.spawn")).expect("spawned") / 1e3,
    );
    m.insert(
        "lincheck.linearizable_kv_us_per_op".into(),
        v.ns as f64 / v.ops as f64 / 1e3,
    );
    m.insert(
        "lincheck.unknown_frac".into(),
        v.unknown as f64 / v.checks as f64,
    );
    m.insert(
        "lincheck.share".into(),
        v.ns as f64 / (v.ns as f64 + out.active_s() * 1e9),
    );
    let sinks = sim::Sinks::default();
    set_alloc_counting(true);
    let cs: Vec<_> = (0..SIM_PROBE_CAMPAIGNS)
        .map(|i| sim::campaign(a.seed ^ PROBE_SALT, i, Some(&sinks)))
        .collect();
    set_alloc_counting(false);
    r.campaigns(&cs);
    r.problems
        .extend(digest_mismatches(a.seed ^ PROBE_SALT, &cs, 0));
    for (k, v) in campaign_metrics(&cs, &sinks, spans) {
        m.entry(k).or_insert(v);
    }
    (1.0 - out.ops_per_s() / plain.ops_per_s(), m)
}

/// Every per-layer metric: the workload's, then the floor probes' for
/// layers it leaves unmeasured.
fn traced(a: &Args) -> ExitCode {
    let mut r = Report::default();
    let mut spans = Spans::default();
    let (overhead, layers) = match a.workload {
        Workload::SimNemesis => traced_sim(&mut r, a, &mut spans),
        w => traced_rt(&mut r, a, spec(w), &mut spans),
    };
    let floor = floor_probes(&mut r, a.seed, a.window / 10, &mut spans);
    r.lines.extend(spans.report());
    r.lines.push(format!(
        "tracing overhead: {:.2}% of untraced throughput",
        overhead * 100.0
    ));
    r.set("bench.trace_overhead_frac", overhead);
    r.fill_from(&layers);
    r.fill_from(&floor);
    r.finish(&PER_LAYER)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: abd-perfbench --workload <rt-kv-read|rt-kv-write|sim-nemesis> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = gate::self_test() {
        eprintln!("self-test failed: {e}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = a("--workload sim-nemesis --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::SimNemesis, 7, true)
        );
        assert!(a("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(a("--workload rt-kv-read --seed 7 --seconds 0 --trace 0").is_err());
        assert!(a("--workload rt-kv-read --seed 7 --seconds 10").is_err());
    }
}
