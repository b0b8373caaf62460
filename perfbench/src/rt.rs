//! The thread-runtime workloads: two closed-loop clients against a
//! `KvNode<u64, u64>` cluster spawned with `Jitter::None`, so an
//! operation's latency is CPU and in-process transport time only.

use crate::gate::{Kind, Rec, ABSENT};
use crate::rng::{mix, Rng};
use abd_core::context::{Effects, Protocol};
use abd_core::types::{OpId, ProcessId, Tag};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_runtime::cluster::{Client, Cluster, Jitter};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Crash-and-restart cadence, counted in the driving thread's operations.
#[derive(Clone, Copy, Debug)]
pub struct Cadence {
    /// The node crashed and restarted.
    pub node: usize,
    /// The node is crashed before every `period`-th operation...
    pub period: u64,
    /// ...and restarted `down_for` operations later.
    pub down_for: u64,
}

/// One runtime workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Cluster size.
    pub n: usize,
    /// Closed-loop client threads; thread `t` is bound to node `t mod n`.
    pub clients: usize,
    /// Keys the clients operate on, uniformly: `0..hot_keys`.
    pub hot_keys: u64,
    /// Further keys preloaded but never operated on.
    pub cold_keys: u64,
    /// Share of `Put`s, in percent; the rest are `Get`s.
    pub put_pct: u64,
    /// Crash/restart cadence, driven by client thread 0.
    pub crash: Option<Cadence>,
}

/// `rt-kv-read`: the paper's two-round atomic read path at n = 3.
pub const READ: Spec = Spec {
    n: 3,
    clients: 2,
    hot_keys: 1_024,
    cold_keys: 0,
    put_pct: 5,
    crash: None,
};

/// `rt-kv-write`: the write path at n = 5 over a store past the Merkle
/// `sync_threshold` (64 keys), with node 4 crashed and restarted.
pub const WRITE: Spec = Spec {
    n: 5,
    clients: 2,
    hot_keys: 8,
    cold_keys: 4_096,
    put_pct: 50,
    crash: Some(Cadence {
        node: 4,
        period: 256,
        down_for: 128,
    }),
};

/// The single-node baseline: the `rt-kv-read` mix on a 1-node cluster,
/// from one client, so every operation pays one hop to the node thread
/// and one back.
pub const SINGLE: Spec = Spec {
    n: 1,
    clients: 1,
    ..READ
};

/// History id of the fence reads (client threads are `0..clients`).
const FENCE_CLIENT: usize = usize::MAX;
/// Operations per client per epoch; a multiple of every cadence period, so
/// the crashed node is up whenever clients meet at the barrier.
const EPOCH_OPS: u64 = 512;
/// `Get`s a set-up issues to warm the cluster before timing.
const WARMUP_GETS: u64 = 200;
/// An operation not answered by then counts as failed.
const TIMEOUT: Duration = Duration::from_secs(5);

/// The value every key is preloaded with; clients never write it.
pub fn initial(key: u64) -> u64 {
    (1 << 40) + key
}

/// The preloaded nodes of `spec`, not yet spawned.
pub fn nodes(spec: &Spec) -> Vec<KvNode<u64, u64>> {
    (0..spec.n)
        .map(|i| {
            let mut node = KvNode::new(KvConfig::new(spec.n, ProcessId(i)));
            for k in 0..spec.hot_keys + spec.cold_keys {
                node.preload(k, Tag::new(1, ProcessId(0)), initial(k));
            }
            node
        })
        .collect()
}

/// A spawned, warmed-up cluster and what its set-up cost.
pub struct Setup<P: Protocol> {
    /// The cluster.
    pub cluster: Cluster<P>,
    /// Whole set-up: building and preloading nodes, spawning, warm-up.
    pub setup_s: f64,
    /// `Cluster::spawn` alone.
    pub spawn_us: f64,
    /// Latencies of the warm-up `Get`s.
    pub warm_us: Vec<f64>,
}

/// Builds the nodes of `spec`, passes them through `wrap`, spawns them and
/// warms the cluster up with `Get`s only, so every key still holds its
/// preloaded value when the timed run starts.
pub fn setup<P>(
    spec: &Spec,
    seed: u64,
    wrap: impl FnOnce(Vec<KvNode<u64, u64>>) -> Vec<P>,
) -> Setup<P>
where
    P: Protocol<Op = KvOp<u64, u64>, Resp = KvResp<u64>> + Send + 'static,
{
    let t0 = Instant::now();
    let nodes = wrap(nodes(spec));
    let ts = Instant::now();
    let cluster = Cluster::spawn(nodes, Jitter::None);
    let spawn_us = ts.elapsed().as_secs_f64() * 1e6;
    let client = cluster.client(0);
    let mut rng = Rng::new(mix(seed ^ 0x5e70));
    let warm_us = (0..WARMUP_GETS)
        .map(|_| {
            let t = Instant::now();
            let resp = client.try_invoke_for(KvOp::Get(rng.below(spec.hot_keys)), TIMEOUT);
            assert!(resp.is_some(), "warm-up Get timed out");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Setup {
        cluster,
        setup_s: t0.elapsed().as_secs_f64(),
        spawn_us,
        warm_us,
    }
}

/// What a timed run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every stamped operation, fences and restart probes included.
    pub recs: Vec<Rec>,
    /// Every completed client operation.
    pub ops: Vec<Sample>,
    /// Time from `Cluster::restart` to the completion of a `Get` invoked
    /// on the restarted node straight after, ms.
    pub restart_serve_ms: Vec<f64>,
    /// Duration of each `Cluster::restart` call, µs.
    pub restart_call_us: Vec<f64>,
    /// Operations invoked, fences and probes included.
    pub attempted: u64,
    /// Operations that timed out.
    pub failed: u64,
    /// Per epoch, the time clients were running, barrier and fences
    /// excluded, s.
    pub epoch_s: Vec<f64>,
}

/// One completed client operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Epoch it ran in.
    pub epoch: u32,
    /// Whether it was a `Put` (else a `Get`).
    pub put: bool,
    /// Latency, µs.
    pub us: f64,
}

impl Outcome {
    /// Time clients were running, s.
    pub fn active_s(&self) -> f64 {
        self.epoch_s.iter().sum()
    }

    /// Completed client operations per second of active time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops.len() as f64 / self.active_s()
    }

    /// Latencies of the completed client operations that `keep` selects, µs.
    pub fn latencies(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.ops.iter().filter(|s| keep(s)).map(|s| s.us).collect()
    }

    /// Per epoch: its active time and the latencies of its operations.
    pub fn windows(&self) -> Vec<(f64, Vec<f64>)> {
        let mut ws: Vec<(f64, Vec<f64>)> = self.epoch_s.iter().map(|&s| (s, Vec::new())).collect();
        for s in &self.ops {
            ws[s.epoch as usize].1.push(s.us);
        }
        ws
    }

    fn absorb(&mut self, o: Outcome) {
        self.recs.extend(o.recs);
        self.ops.extend(o.ops);
        self.restart_serve_ms.extend(o.restart_serve_ms);
        self.restart_call_us.extend(o.restart_call_us);
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Epoch bookkeeping shared by the client threads.
struct Coord {
    written: BTreeSet<u64>,
    epoch_start: Instant,
    epoch_s: Vec<f64>,
    stop: bool,
    fences: Outcome,
}

/// Invokes `op` on `client`, stamping it against `base`; `None` on time-out.
fn stamped<P>(
    client: &Client<P>,
    op: KvOp<u64, u64>,
    base: Instant,
) -> (Option<KvResp<u64>>, u64, u64)
where
    P: Protocol<Op = KvOp<u64, u64>, Resp = KvResp<u64>>,
{
    let start = base.elapsed().as_nanos() as u64;
    let resp = client.try_invoke_for(op, TIMEOUT);
    (resp, start, base.elapsed().as_nanos() as u64)
}

/// Records a stamped `Get`; `false` if it failed.
fn record_get(out: &mut Outcome, rec: Rec, resp: Option<KvResp<u64>>) -> bool {
    out.attempted += 1;
    match resp {
        Some(KvResp::GetOk(v)) => {
            out.recs.push(Rec {
                kind: Kind::Read(v.unwrap_or(ABSENT)),
                ..rec
            });
            true
        }
        _ => {
            out.failed += 1;
            false
        }
    }
}

/// Runs the clients of `spec` against `cluster` for at least `window`,
/// stopping at the first epoch boundary after it.
pub fn run<P>(cluster: &Cluster<P>, spec: &Spec, seed: u64, window: Duration) -> Outcome
where
    P: Protocol<Op = KvOp<u64, u64>, Resp = KvResp<u64>> + Send + 'static,
{
    let base = Instant::now();
    let barrier = Barrier::new(spec.clients);
    let coord = Mutex::new(Coord {
        written: BTreeSet::new(),
        epoch_start: base,
        epoch_s: Vec::new(),
        stop: false,
        fences: Outcome::default(),
    });
    let fence_client = cluster.client(0);
    // Set by the first failed operation: a cluster that lets one time out
    // may let them all, so the run ends at the next barrier instead.
    let failing = AtomicBool::new(false);
    let mut out = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|t| {
                let (barrier, coord, fence_client, failing) =
                    (&barrier, &coord, &fence_client, &failing);
                s.spawn(move || {
                    let client = cluster.client(t % spec.n);
                    let cadence = spec.crash.filter(|_| t == 0);
                    let probe = cadence.map(|c| cluster.client(c.node));
                    let mut rng = Rng::new(mix(seed).wrapping_add(t as u64 + 1));
                    let mut out = Outcome::default();
                    let mut written = Vec::new();
                    let mut i = 0u64;
                    for epoch in 0u32.. {
                        for _ in 0..EPOCH_OPS {
                            // Relaxed: the flag publishes no data; the
                            // barrier orders everything else.
                            if out.failed > 0 {
                                failing.store(true, Ordering::Relaxed);
                            }
                            if failing.load(Ordering::Relaxed) {
                                break;
                            }
                            if let (Some(c), Some(probe)) = (cadence, &probe) {
                                if i.is_multiple_of(c.period) {
                                    cluster.crash(c.node);
                                } else if i % c.period == c.down_for {
                                    let t0 = Instant::now();
                                    cluster.restart(c.node);
                                    out.restart_call_us.push(t0.elapsed().as_secs_f64() * 1e6);
                                    let key = rng.below(spec.hot_keys);
                                    let (resp, start, end) = stamped(probe, KvOp::Get(key), base);
                                    let rec = Rec {
                                        client: t,
                                        key,
                                        kind: Kind::Read(0),
                                        start,
                                        end,
                                        epoch,
                                        fence: false,
                                    };
                                    if record_get(&mut out, rec, resp) {
                                        out.restart_serve_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                                    }
                                }
                            }
                            i += 1;
                            let key = rng.below(spec.hot_keys);
                            if rng.below(100) < spec.put_pct {
                                let value = ((t as u64 + 1) << 48) + i;
                                let (resp, start, end) =
                                    stamped(&client, KvOp::Put(key, value), base);
                                let ok = matches!(resp, Some(KvResp::PutOk));
                                let kind = if ok {
                                    Kind::Write(value)
                                } else {
                                    Kind::PendingWrite(value)
                                };
                                out.recs.push(Rec {
                                    client: t,
                                    key,
                                    kind,
                                    start,
                                    end,
                                    epoch,
                                    fence: false,
                                });
                                out.attempted += 1;
                                if ok {
                                    out.ops.push(Sample {
                                        epoch,
                                        put: true,
                                        us: (end - start) as f64 / 1e3,
                                    });
                                } else {
                                    out.failed += 1;
                                }
                                written.push(key);
                            } else {
                                let (resp, start, end) = stamped(&client, KvOp::Get(key), base);
                                let rec = Rec {
                                    client: t,
                                    key,
                                    kind: Kind::Read(0),
                                    start,
                                    end,
                                    epoch,
                                    fence: false,
                                };
                                if record_get(&mut out, rec, resp) {
                                    out.ops.push(Sample {
                                        epoch,
                                        put: false,
                                        us: (end - start) as f64 / 1e3,
                                    });
                                }
                            }
                        }
                        coord
                            .lock()
                            .expect("client thread panicked")
                            .written
                            .extend(written.drain(..));
                        if barrier.wait().is_leader() {
                            let mut c = coord.lock().expect("client thread panicked");
                            let ran = c.epoch_start.elapsed().as_secs_f64();
                            c.epoch_s.push(ran);
                            c.stop = base.elapsed() >= window || failing.load(Ordering::Relaxed);
                            for key in std::mem::take(&mut c.written) {
                                if c.stop {
                                    break;
                                }
                                let (resp, start, end) =
                                    stamped(fence_client, KvOp::Get(key), base);
                                let rec = Rec {
                                    client: FENCE_CLIENT,
                                    key,
                                    kind: Kind::Read(0),
                                    start,
                                    end,
                                    epoch,
                                    fence: true,
                                };
                                record_get(&mut c.fences, rec, resp);
                            }
                            c.epoch_start = Instant::now();
                        }
                        barrier.wait();
                        if coord.lock().expect("client thread panicked").stop {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        let mut all = Outcome::default();
        for h in handles {
            all.absorb(h.join().expect("client thread panicked"));
        }
        all
    });
    let c = coord.into_inner().expect("client thread panicked");
    out.absorb(c.fences);
    out.epoch_s = c.epoch_s;
    out
}

/// A bench-defined protocol for the transport floor: node 0 answers an
/// invocation once node 1 has echoed a message back to it.
#[derive(Debug)]
pub struct Echo {
    me: ProcessId,
}

/// The echo protocol's messages, carrying the invocation's id.
#[derive(Clone, Debug)]
pub enum EchoMsg {
    /// Node 0 to node 1.
    Ping(u64),
    /// Node 1 back to node 0.
    Pong(u64),
}

impl Protocol for Echo {
    type Msg = EchoMsg;
    type Op = ();
    type Resp = ();

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_invoke(&mut self, op: OpId, _input: (), fx: &mut Effects<EchoMsg, ()>) {
        fx.send(ProcessId(1), EchoMsg::Ping(op.0));
    }

    fn on_message(&mut self, from: ProcessId, msg: EchoMsg, fx: &mut Effects<EchoMsg, ()>) {
        match msg {
            EchoMsg::Ping(op) => fx.send(from, EchoMsg::Pong(op)),
            EchoMsg::Pong(op) => fx.respond(OpId(op), ()),
        }
    }
}

/// Round trips of one message to a peer and back, µs, for `window`, and
/// the `Cluster::spawn` time, µs. Fails if an echo times out.
pub fn echo_probe(window: Duration) -> Result<(Vec<f64>, f64), String> {
    let ts = Instant::now();
    let cluster = Cluster::spawn(
        (0..2).map(|i| Echo { me: ProcessId(i) }).collect(),
        Jitter::None,
    );
    let spawn_us = ts.elapsed().as_secs_f64() * 1e6;
    let client = cluster.client(0);
    let t0 = Instant::now();
    let mut rtt = Vec::new();
    while t0.elapsed() < window {
        let t = Instant::now();
        client
            .try_invoke_for((), TIMEOUT)
            .ok_or("an echo round trip timed out")?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok((rtt, spawn_us))
}
