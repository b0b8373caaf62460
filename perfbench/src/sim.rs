//! The simulator workload: seeded nemesis campaigns on one thread, each
//! judged by its oracle.

use crate::gate::Verdicts;
use crate::rng::{mix, Rng};
use crate::stats::median;
use crate::trace::{totals, Sink, Traced};
use abd_core::context::Protocol;
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::retransmit::BackoffPolicy;
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::{ProcessId, ReadMode};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_lincheck::history::{History, RegAction};
use abd_lincheck::is_atomic_swmr;
use abd_simnet::nemesis::liveness_bound;
use abd_simnet::workload::history_from_sim;
use abd_simnet::{run_campaign, NemesisConfig, Sim, SimConfig};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::{Duration, Instant};

/// Cluster size; every node runs one client.
const N: usize = 5;
/// Operations per client per campaign.
const OPS: u64 = 20;
/// Keys of the KV campaigns.
const KV_KEYS: u64 = 4;
/// Think time between a completion and the client's next invocation.
const THINK: u64 = 5_000;
/// Retransmission backoff base; loss bursts need retransmission.
const BACKOFF_BASE: u64 = 20_000;
/// Latency bound the liveness deadline assumes (the nemesis's gray
/// failures stretch the default 10 µs maximum).
const MAX_LATENCY: u64 = 20_000;

/// The register constructions the campaigns rotate over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Proto {
    /// `SwmrNode`, judged by `is_atomic_swmr`.
    Swmr,
    /// `MwmrNode`, judged by Wing–Gong.
    Mwmr,
    /// `KvNode`, judged by Wing–Gong per key.
    Kv,
}

const MODES: [ReadMode; 3] = [ReadMode::TwoRound, ReadMode::FastUnanimous, ReadMode::Relay];

/// Campaign `i` runs protocol `i mod 3` with read mode `(i / 3) mod 3`, so
/// every nine consecutive campaigns cover every pairing.
pub fn kind(i: u64) -> (Proto, ReadMode) {
    let proto = [Proto::Swmr, Proto::Mwmr, Proto::Kv][(i % 3) as usize];
    (proto, MODES[((i / 3) % 3) as usize])
}

/// One sink per protocol, for the traced run.
#[derive(Clone, Debug, Default)]
pub struct Sinks {
    /// `SwmrNode` handlers.
    pub swmr: Sink,
    /// `MwmrNode` handlers.
    pub mwmr: Sink,
    /// `KvNode` handlers.
    pub kv: Sink,
}

impl Sinks {
    fn of(&self, p: Proto) -> &Sink {
        match p {
            Proto::Swmr => &self.swmr,
            Proto::Mwmr => &self.mwmr,
            Proto::Kv => &self.kv,
        }
    }
}

/// What one campaign did and cost.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Protocol under test.
    pub proto: Proto,
    /// `Sim::trace_digest` at the end.
    pub digest: u64,
    /// Delivered messages, timer fires and invocations.
    pub events: u64,
    /// Messages sent.
    pub sent: u64,
    /// Messages sent from timers (retransmissions).
    pub retransmissions: u64,
    /// `NemesisConfig::plan` plus `NemesisSchedule::apply`, ns.
    pub plan_ns: u64,
    /// `run_campaign`, ns.
    pub run_ns: u64,
    /// Handler time inside `run_campaign` (traced run only), ns.
    pub handler_ns: u64,
    /// The oracle: SWMR atomicity or Wing–Gong verdicts.
    pub verdicts: Verdicts,
    /// Whole campaign: build, plan, run, judge, drop, ns.
    pub total_ns: u64,
    /// Liveness or oracle failure, if any.
    pub failure: Option<String>,
}

/// Runs campaign `i` of the stream fixed by `seed`; with `sinks`, every
/// node is wrapped in [`Traced`].
pub fn campaign(seed: u64, i: u64, sinks: Option<&Sinks>) -> Campaign {
    let t0 = Instant::now();
    let (proto, mode) = kind(i);
    let (sim_seed, nemesis_seed) = (mix(seed ^ (2 * i)), mix(seed ^ (2 * i + 1)));
    let mut rng = Rng::new(mix(sim_seed ^ nemesis_seed));
    let backoff = BackoffPolicy::new(BACKOFF_BASE);
    let mut c = Campaign {
        proto,
        digest: 0,
        events: 0,
        sent: 0,
        retransmissions: 0,
        plan_ns: 0,
        run_ns: 0,
        handler_ns: 0,
        verdicts: Verdicts::default(),
        total_ns: 0,
        failure: None,
    };
    let before = sinks.map(|s| totals(s.of(proto)).ns);
    let seeds = (sim_seed, nemesis_seed);
    let ids = || (0..N).map(ProcessId);
    // Runs `$body` on the nodes, each wrapped in `Traced` when a sink is
    // given. The simulator, and with it every wrapper, is dropped inside
    // `$body`, so the sink holds the campaign's totals afterwards.
    macro_rules! traced_or_plain {
        ($sink:expr, $nodes:expr, $body:ident($($arg:expr),*)) => {
            match $sink {
                Some(s) => $body(Traced::wrap_all($nodes, s), $($arg),*),
                None => $body($nodes, $($arg),*),
            }
        };
    }
    match proto {
        Proto::Swmr => {
            let nodes: Vec<_> = ids()
                .map(|p| {
                    let cfg = SwmrConfig::new(N, p, ProcessId(0));
                    SwmrNode::new(cfg.with_read_mode(mode).with_backoff(backoff), 0u64)
                })
                .collect();
            let scripts = (0..N as u64)
                .map(|c| {
                    (1..=OPS)
                        .map(|k| {
                            if c == 0 {
                                RegisterOp::Write(k)
                            } else {
                                RegisterOp::Read
                            }
                        })
                        .collect()
                })
                .collect();
            traced_or_plain!(
                sinks.map(|s| &s.swmr),
                nodes,
                register(seeds, scripts, true, &mut c)
            );
        }
        Proto::Mwmr => {
            let nodes: Vec<_> = ids()
                .map(|p| {
                    let cfg = MwmrConfig::new(N, p).with_read_mode(mode);
                    MwmrNode::new(cfg.with_backoff(backoff), 0u64)
                })
                .collect();
            let scripts = (0..N as u64)
                .map(|c| {
                    (1..=OPS)
                        .map(|k| match rng.below(2) {
                            0 => RegisterOp::Write((c + 1) * 1_000 + k),
                            _ => RegisterOp::Read,
                        })
                        .collect()
                })
                .collect();
            traced_or_plain!(
                sinks.map(|s| &s.mwmr),
                nodes,
                register(seeds, scripts, false, &mut c)
            );
        }
        Proto::Kv => {
            let nodes: Vec<KvNode<u64, u64>> = ids()
                .map(|p| {
                    KvNode::new(
                        KvConfig::new(N, p)
                            .with_read_mode(mode)
                            .with_backoff(backoff),
                    )
                })
                .collect();
            let scripts = (0..N as u64)
                .map(|c| {
                    (1..=OPS)
                        .map(|k| {
                            let key = rng.below(KV_KEYS);
                            match rng.below(2) {
                                0 => KvOp::Put(key, (c + 1) * 1_000 + k),
                                _ => KvOp::Get(key),
                            }
                        })
                        .collect()
                })
                .collect();
            traced_or_plain!(sinks.map(|s| &s.kv), nodes, kv(seeds, scripts, &mut c));
        }
    }
    if let (Some(s), Some(before)) = (sinks, before) {
        c.handler_ns = totals(s.of(proto)).ns - before;
    }
    if let Some(v) = c.verdicts.violations.first() {
        c.failure = Some(format!("campaign {i} ({proto:?}, {mode:?}): {v}"));
    }
    c.total_ns = t0.elapsed().as_nanos() as u64;
    c
}

/// Plans and applies a nemesis campaign, then drives the scripts through
/// `run_campaign`, filling in the engine figures of `c`.
fn drive<P>(
    nodes: Vec<P>,
    (sim_seed, nemesis_seed): (u64, u64),
    scripts: Vec<Vec<P::Op>>,
    c: &mut Campaign,
) -> Sim<P>
where
    P: Protocol,
    P::Op: Clone,
    P::Resp: Clone,
{
    let tp = Instant::now();
    let schedule = NemesisConfig::new(nemesis_seed, N).plan();
    let mut plan_ns = tp.elapsed().as_nanos() as u64;
    let mut sim = Sim::new(SimConfig::new(sim_seed), nodes);
    let ta = Instant::now();
    schedule.apply(&mut sim);
    plan_ns += ta.elapsed().as_nanos() as u64;
    let deadline =
        schedule.heal_at() + liveness_bound(&BackoffPolicy::new(BACKOFF_BASE), MAX_LATENCY, 8);
    let tr = Instant::now();
    let live = run_campaign(&mut sim, &schedule, scripts, THINK, deadline);
    c.run_ns = tr.elapsed().as_nanos() as u64;
    c.plan_ns = plan_ns;
    let m = sim.metrics();
    c.events = m.delivered + m.timer_fires + m.ops_invoked;
    c.sent = m.sent;
    c.retransmissions = m.retransmissions;
    c.digest = sim.trace_digest();
    if !live {
        c.verdicts
            .violations
            .push("surviving operations missed the liveness deadline".into());
    }
    sim
}

/// A register campaign: SWMR histories are judged by `is_atomic_swmr`,
/// MWMR histories by Wing–Gong.
fn register<P>(
    nodes: Vec<P>,
    seeds: (u64, u64),
    scripts: Vec<Vec<RegisterOp<u64>>>,
    swmr: bool,
    c: &mut Campaign,
) where
    P: Protocol<Op = RegisterOp<u64>, Resp = RegisterResp<u64>>,
{
    let sim = drive(nodes, seeds, scripts, c);
    let h = history_from_sim(0, &sim);
    drop(sim);
    if swmr {
        let t = Instant::now();
        let atomic = is_atomic_swmr(&h);
        c.verdicts.ns += t.elapsed().as_nanos() as u64;
        c.verdicts.checks += 1;
        c.verdicts.ops += h.len() as u64;
        if !atomic {
            c.verdicts
                .violations
                .push("SWMR history is not atomic".into());
        }
    } else {
        c.verdicts
            .judge(&h, || "MWMR history is not linearizable".into());
    }
}

/// A KV campaign, judged by Wing–Gong key by key.
fn kv<P>(nodes: Vec<P>, seeds: (u64, u64), scripts: Vec<Vec<KvOp<u64, u64>>>, c: &mut Campaign)
where
    P: Protocol<Op = KvOp<u64, u64>, Resp = KvResp<u64>>,
{
    let sim = drive(nodes, seeds, scripts, c);
    let histories = kv_histories(&sim);
    drop(sim);
    for (key, h) in histories {
        c.verdicts
            .judge(&h, || format!("KV key {key} is not linearizable"));
    }
}

/// One history per key: completed operations plus the writes still
/// pending or aborted by a crash. A `Get` of an unwritten key reads the
/// initial value 0, which no script writes.
fn kv_histories<P>(sim: &Sim<P>) -> BTreeMap<u64, History<u64>>
where
    P: Protocol<Op = KvOp<u64, u64>, Resp = KvResp<u64>>,
{
    let mut by_key: BTreeMap<u64, History<u64>> = BTreeMap::new();
    for r in sim.completed() {
        let (key, action) = match (&r.input, &r.resp) {
            (KvOp::Put(k, v), KvResp::PutOk) => (*k, RegAction::Write(*v)),
            (KvOp::Get(k), KvResp::GetOk(v)) => (*k, RegAction::Read(v.unwrap_or(0))),
            _ => continue,
        };
        by_key.entry(key).or_insert_with(|| History::new(0)).push(
            r.client.index(),
            action,
            r.invoked_at,
            r.completed_at,
        );
    }
    for (_, client, input, at) in sim.pending_details() {
        if let KvOp::Put(k, v) = input {
            by_key
                .entry(k)
                .or_insert_with(|| History::new(0))
                .push_pending_write(client.index(), v, at);
        }
    }
    by_key
}

/// What [`reference_ms`] takes on the machine the figures are scaled to.
pub const REFERENCE_MS: f64 = 2.0;

/// Milliseconds a fixed piece of work written in this benchmark takes now
/// (median of five runs). The work is shaped like the simulator's inner
/// loop: a heap-ordered event queue, an ordered and a hashed map, small
/// allocations. No change to the program can change it, so it tracks only
/// the speed the machine currently gives this process, which on a shared
/// machine drifts by tens of percent within minutes.
pub fn reference_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut rng = Rng::new(7);
            let mut events = BinaryHeap::new();
            let mut ordered = BTreeMap::new();
            let mut hashed = HashMap::new();
            for i in 0..20_000u64 {
                events.push(Reverse((rng.below(1_000_000), i)));
                if i % 2 == 0 {
                    if let Some(Reverse((at, j))) = events.pop() {
                        ordered.insert(at, vec![j; 4]);
                        *hashed.entry(j % 512).or_insert(0u64) += at;
                    }
                }
                if ordered.len() > 256 {
                    ordered.pop_first();
                }
            }
            std::hint::black_box((&events, &ordered, &hashed));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).expect("five runs")
}

/// Runs campaigns `first..` until `window` has passed.
pub fn run(seed: u64, first: u64, window: Duration, sinks: Option<&Sinks>) -> Vec<Campaign> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    for i in first.. {
        if t0.elapsed() >= window {
            break;
        }
        out.push(campaign(seed, i, sinks));
    }
    out
}
