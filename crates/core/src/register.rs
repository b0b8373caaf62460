//! The register engine: one quorum-phase state machine behind both the
//! single-writer ([`crate::swmr`]) and the multi-writer ([`crate::mwmr`])
//! emulations.
//!
//! The paper builds its multi-writer register from the single-writer one
//! with two changes: `(seq, writer)` [`Tag`](crate::types::Tag)s replace
//! sequence numbers, and a write starts with a query phase. [`RegisterNode`]
//! is generic over the label type ([`RegisterLabel`], implemented by
//! [`SeqNo`](crate::types::SeqNo) and [`Tag`](crate::types::Tag)), and the
//! second change is the one branch where a write begins: an SWMR writer
//! stamps the successor of its own label locally, an MWMR writer first
//! queries a read quorum and stamps the successor of the largest label it
//! saw. Everything else exists once: the read query and its write-back, the
//! fast path, the consistency tiers, the relay server and reader, catch-up
//! after restart, retransmission targeting and the read-path counters.
//!
//! Every phase is one [`PhaseTracker`] round: broadcast the phase message,
//! then wait for a read quorum (query phases) or a write quorum (`Update`
//! propagation, relay replies) of responders. A phase counts this node's
//! own replica where the protocol allows it, so a phase whose quorum this
//! node forms alone completes in place, without messages. Every completion
//! goes through one `finish`, which also starts the next queued invocation.
//!
//! ## Relay reads
//!
//! With [`ReadMode::Relay`] the read path changes shape entirely (after
//! "Oh-RAM! One and a Half Round Atomic Memory",
//! Hadjistasi–Nicolaou–Schwarzmann): the reader broadcasts `RelayQuery`
//! carrying its own replica snapshot; every server forwards its snapshot to
//! every other server (`RelayFwd`, adopting the maxima it sees along the
//! way); once a server's forwards cover a **read quorum** it sends its
//! replica directly to the reader (`RelayReply`); the reader completes when
//! a **write quorum** of servers has replied, returning the value of the
//! **minimum** reply label — no write-back. Three one-way message delays
//! (query → forward → reply) instead of four, for every read, contended or
//! not, at a cost of `n² − 1` messages per read.
//!
//! Why the *minimum* is the safe choice: a replier adopts the maximum of a
//! read quorum of forwards — all sent after the read began — before
//! replying, so every reply label is ≥ every previously completed write's
//! label; and unlike the maximum, the minimum is *persisted at every
//! replier* (a write quorum) before any reply is sent, so a later read's
//! forward quorums intersect it and can only report labels ≥ it. Returning
//! the maximum instead would be unsound: that label may sit on a single
//! server, and a later read could miss it — a new/old inversion. The
//! argument only compares labels, so it holds for sequence numbers and
//! tags alike.
//!
//! ## Crash recovery
//!
//! A restarted node ([`Protocol::on_restart`]) loses its volatile state —
//! the in-flight operation, queued invocations, retry schedule, relay round
//! bookkeeping — but its replica pair `(label, value)` and the phase-uid
//! counter model **stable storage** and survive. (An SWMR writer's replica
//! always holds the last label it issued, so the pair doubles as its
//! persisted sequence number.) This is not an optimization but a soundness
//! requirement: if an acknowledgement could outlive the replica state it
//! acknowledged, a write quorum would no longer guarantee that its labels
//! persist. Concretely, with full amnesia: a writer collects `p`'s ack for
//! label 5, `p` crashes and rejoins having caught up from a stale majority
//! at label 4, and a later read whose quorum intersects the write quorum
//! only at `p` returns the old value — a new/old inversion. Persisting the
//! pair (as a real deployment would, via an fsync before the ack) restores
//! the quorum-intersection argument; the catch-up **query phase** the node
//! runs before serving again is then purely a freshness optimization that
//! lets it answer with recent labels immediately.

// The declared phase graph, checked by abd-lint's `phase-graph` rule
// against the graph extracted from the handler bodies below. `Query ->
// WriteBack` (never the reverse) encodes "query precedes write-back", and
// `WriteQuery -> Write` the multi-writer write's query-then-update order;
// read and write phases never cross. `Restart -> Recovery -> Idle` encodes
// "a restarted node re-enters the catch-up query before serving".
// `Invoke -> Write/WriteBack/Done` are the instant-quorum short-circuits
// (single-node clusters complete in place). `Idle -> Write` and `Restart
// -> Write` are the SWMR aborted-write epilogue: once catch-up completes
// (or is unnecessary because the node alone forms a read quorum), a
// crash-interrupted write resumes as a fresh Write phase. `Invoke ->
// RelayRead` and `RelayRead -> Done` are the relay read mode: the reader
// parks in a single RelayRead phase and completes on a write quorum of
// direct server replies.
// abd-lint: phase-spec(register):
//   Invoke -> Query, Invoke -> WriteQuery, Invoke -> Write,
//   Invoke -> WriteBack, Invoke -> Done,
//   Invoke -> RelayRead, RelayRead -> Done,
//   Query -> WriteBack, Query -> Done,
//   WriteQuery -> Write, WriteQuery -> Done,
//   Write -> Done, WriteBack -> Done,
//   Restart -> Recovery, Recovery -> Idle,
//   Idle -> Write, Restart -> Write

use crate::context::{Effects, Protocol, ReadPathStats, TimerKey};
use crate::msg::{RegisterMsg, RegisterOp, RegisterResp};
use crate::phase::{PhaseTracker, RelayCensus, TagCensus};
use crate::procset::ProcSet;
use crate::quorum::{fast_read_allowed, QuorumSystem};
use crate::replica::Replica;
use crate::retransmit::{BackoffPolicy, Retransmitter};
use crate::types::{Consistency, OpId, ProcessId, ReadMode, RegisterError};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;
use std::sync::Arc;

/// A register label type, and with it the protocol it selects:
/// [`SeqNo`](crate::types::SeqNo) for the single-writer emulation,
/// [`Tag`](crate::types::Tag) for the multi-writer one.
pub trait RegisterLabel: Copy + Ord + Debug + Send + 'static {
    /// The protocol's configuration type.
    type Config: Clone + Debug + Send + 'static;
    /// The label of the register's initial value.
    fn initial() -> Self;
    /// The label writer `w` stamps after `self`, the largest label it knows.
    fn next(self, w: ProcessId) -> Self;
    /// The engine's settings, read out of `cfg`.
    fn params(cfg: &Self::Config) -> Params;
}

/// The settings the engine reads, common to both protocols' configs. Only
/// this crate builds one, so only its two label types drive the engine.
#[derive(Clone, Debug)]
pub struct Params {
    pub(crate) n: usize,
    pub(crate) me: ProcessId,
    pub(crate) quorum: Arc<dyn QuorumSystem>,
    pub(crate) read_write_back: bool,
    pub(crate) read_mode: ReadMode,
    pub(crate) retransmit: Option<BackoffPolicy>,
    /// The designated writer of a single-writer register; `None` lets every
    /// node write, each write opening with a query phase.
    pub(crate) writer: Option<ProcessId>,
    /// Whether a write persists its intent and is rolled forward after a
    /// crash (the SWMR aborted-write epilogue).
    pub(crate) write_epilogue: bool,
}

type Fx<L, V> = Effects<RegisterMsg<L, V>, RegisterResp<V>>;

/// In-flight operation state.
#[derive(Clone, Debug)]
enum Pending<L, V> {
    /// Reader collecting query replies; the census tracks the max label
    /// *and* whether the responders were unanimous about it (fast path).
    /// `cons` is the read's requested tier: `Regular` completes without the
    /// write-back, `Atomic` runs the full second phase.
    Query {
        op: OpId,
        ph: PhaseTracker,
        census: TagCensus<L, V>,
        cons: Consistency,
    },
    /// Multi-writer writer discovering the current maximum label.
    WriteQuery {
        op: OpId,
        ph: PhaseTracker,
        census: TagCensus<L, V>,
        value: V,
    },
    /// Writer propagating its freshly stamped pair.
    Write {
        op: OpId,
        ph: PhaseTracker,
        label: L,
        value: V,
    },
    /// Reader propagating the value it is about to return.
    WriteBack {
        op: OpId,
        ph: PhaseTracker,
        label: L,
        value: V,
    },
    /// Relay-mode reader collecting direct server replies; completes on a
    /// write quorum of them, returning the census's minimum pair. The
    /// tracker starts empty: even this node's own reply only counts once
    /// its server-side round completes.
    RelayRead {
        op: OpId,
        ph: PhaseTracker,
        census: RelayCensus<L, V>,
    },
}

impl<L: RegisterLabel, V: Clone> Pending<L, V> {
    fn phase(&self) -> &PhaseTracker {
        match self {
            Pending::Query { ph, .. }
            | Pending::WriteQuery { ph, .. }
            | Pending::Write { ph, .. }
            | Pending::WriteBack { ph, .. }
            | Pending::RelayRead { ph, .. } => ph,
        }
    }

    /// The message this phase (re)broadcasts to processors that have not
    /// responded. A relay query carries the *current* replica snapshot —
    /// monotone above the original, so receivers only move forward.
    fn message(&self, replica: &Replica<L, V>) -> RegisterMsg<L, V> {
        let uid = self.phase().uid();
        match self {
            Pending::Query { .. } | Pending::WriteQuery { .. } => RegisterMsg::Query { uid },
            Pending::Write { label, value, .. } | Pending::WriteBack { label, value, .. } => {
                RegisterMsg::Update {
                    uid,
                    label: *label,
                    value: value.clone(),
                }
            }
            Pending::RelayRead { .. } => {
                let (label, value) = replica.snapshot();
                RegisterMsg::RelayQuery { uid, label, value }
            }
        }
    }
}

/// Post-restart catch-up: a query phase run before serving clients, so the
/// rejoining replica adopts the latest completed write it missed.
#[derive(Clone, Debug)]
struct Recovery<L, V> {
    ph: PhaseTracker,
    census: TagCensus<L, V>,
}

/// One processor of the register emulation: the replica role, the reader
/// role, and the writer role wherever the protocol grants it. Used as
/// [`SwmrNode`](crate::swmr::SwmrNode) (labels are sequence numbers) or
/// [`MwmrNode`](crate::mwmr::MwmrNode) (labels are tags).
#[derive(Clone, Debug)]
pub struct RegisterNode<L: RegisterLabel, V> {
    cfg: L::Config,
    p: Params,
    replica: Replica<L, V>,
    next_uid: u64,
    pending: Option<Pending<L, V>>,
    queue: VecDeque<(OpId, RegisterOp<V>)>,
    rtx: Retransmitter,
    recovering: Option<Recovery<L, V>>,
    /// The writer's persisted in-flight write `(op, label, value)` — stable
    /// storage, like the replica pair. Set when a write goes pending (only
    /// with [`Params::write_epilogue`] on), cleared when that write's
    /// `WriteOk` is issued; a crash in between leaves it for the
    /// post-recovery epilogue to roll forward.
    intent: Option<(OpId, L, V)>,
    /// Server-side relay rounds in progress, keyed by `(reader, uid)`: the
    /// tracker records whose forwards (or, for the reader itself, whose
    /// query) this server has seen. Volatile — cleared on restart.
    relays: BTreeMap<(ProcessId, u64), PhaseTracker>,
    /// Highest relay round uid completed here per reader, so duplicate
    /// queries re-send the reply instead of reopening the round. Volatile.
    relay_done: BTreeMap<ProcessId, u64>,
    fast_reads: u64,
    write_backs: u64,
    relay_reads: u64,
    sc_reads: u64,
    regular_reads: u64,
}

impl<L: RegisterLabel, V: Clone + Debug + Send + 'static> RegisterNode<L, V> {
    /// Creates a node holding `initial` as the register's initial value
    /// (label [`RegisterLabel::initial`], conceptually written before the
    /// execution starts).
    pub fn new(cfg: L::Config, initial: V) -> Self {
        let p = L::params(&cfg);
        assert!(p.me.index() < p.n, "node id out of range");
        assert!(
            p.writer.is_none_or(|w| w.index() < p.n),
            "writer id out of range"
        );
        assert_eq!(
            p.quorum.n(),
            p.n,
            "quorum system sized for a different cluster"
        );
        RegisterNode {
            rtx: Retransmitter::new(p.retransmit, p.me),
            cfg,
            p,
            replica: Replica::new(L::initial(), initial),
            next_uid: 0,
            pending: None,
            queue: VecDeque::new(),
            recovering: None,
            intent: None,
            relays: BTreeMap::new(),
            relay_done: BTreeMap::new(),
            fast_reads: 0,
            write_backs: 0,
            relay_reads: 0,
            sc_reads: 0,
            regular_reads: 0,
        }
    }

    /// This node's replica state `(label, value)` — for inspection in tests
    /// and metrics.
    pub fn replica_state(&self) -> (L, V) {
        self.replica.snapshot()
    }

    /// Whether an operation is currently in flight on this node.
    pub fn is_busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether the node is catching up after a restart (invocations queue
    /// until the catch-up query completes).
    pub fn is_recovering(&self) -> bool {
        self.recovering.is_some()
    }

    /// Messages this node has retransmitted over its lifetime.
    pub fn retransmissions(&self) -> u64 {
        self.rtx.retransmissions()
    }

    /// Number of invocations waiting behind the in-flight operation.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The node's configuration.
    pub fn config(&self) -> &L::Config {
        &self.cfg
    }

    /// Reads issued here that completed on the one-round fast path.
    pub fn fast_reads(&self) -> u64 {
        self.fast_reads
    }

    /// Reads issued here that executed the write-back phase.
    pub fn write_backs(&self) -> u64 {
        self.write_backs
    }

    /// Reads issued here that completed via server-to-server relay.
    pub fn relay_reads(&self) -> u64 {
        self.relay_reads
    }

    /// Reads issued here that completed at `Consistency::Sequential`
    /// (served locally, zero network rounds).
    pub fn sc_reads(&self) -> u64 {
        self.sc_reads
    }

    /// Reads issued here that completed at `Consistency::Regular` (query
    /// round only, write-back elided).
    pub fn regular_reads(&self) -> u64 {
        self.regular_reads
    }

    fn fresh_uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid
    }

    fn others(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.p.n)
            .map(ProcessId)
            .filter(move |&p| p != self.p.me)
    }

    fn broadcast(&self, msg: RegisterMsg<L, V>, fx: &mut Fx<L, V>) {
        for p in self.others() {
            fx.send(p, msg.clone());
        }
    }

    /// A phase tracker for a fresh uid that already counts this node.
    fn open_phase(&mut self) -> PhaseTracker {
        PhaseTracker::new(self.fresh_uid(), self.p.n, self.p.me)
    }

    /// Opens a query round seeded with this node's own replica pair.
    fn open_query(&mut self) -> (PhaseTracker, TagCensus<L, V>) {
        let ph = self.open_phase();
        let (label, value) = self.replica.snapshot();
        (ph, TagCensus::new(label, value))
    }

    /// Parks `pending` as the in-flight phase: broadcasts its message and
    /// arms its retransmission timer.
    fn start_phase(&mut self, pending: Pending<L, V>, fx: &mut Fx<L, V>) {
        let (uid, msg) = (pending.phase().uid(), pending.message(&self.replica));
        self.pending = Some(pending);
        self.broadcast(msg, fx);
        self.rtx.arm(uid, fx);
    }

    /// Completes the current operation with `resp`, then starts the next
    /// queued invocation — the single exit of every operation.
    fn finish(&mut self, op: OpId, resp: RegisterResp<V>, fx: &mut Fx<L, V>) {
        self.pending = None;
        if self.intent.as_ref().is_some_and(|(o, _, _)| *o == op) {
            self.intent = None;
        }
        fx.respond(op, resp);
        self.serve_queue(fx);
    }

    fn serve_queue(&mut self, fx: &mut Fx<L, V>) {
        if let Some((next_op, next_input)) = self.queue.pop_front() {
            self.begin(next_op, next_input, fx);
        }
    }

    /// Completes the post-restart catch-up: adopt the freshest pair a read
    /// quorum reported, roll a crash-interrupted write forward, then serve
    /// anything that queued while recovering.
    fn finish_recovery(&mut self, census: TagCensus<L, V>, fx: &mut Fx<L, V>) {
        self.recovering = None;
        let (label, value) = census.into_best();
        self.replica.adopt(label, value);
        self.resume_write(fx);
        if self.pending.is_none() {
            self.serve_queue(fx);
        }
    }

    /// The aborted-write epilogue: re-issue the persisted crash-interrupted
    /// write, if any, as a fresh phase. The persisted replica adopted the
    /// pair before the original broadcast, so re-propagating it is
    /// idempotent; the client's `WriteOk` is issued once a write quorum
    /// holds it. The intent stays set until then — a second crash rolls
    /// forward again.
    fn resume_write(&mut self, fx: &mut Fx<L, V>) {
        let Some((op, label, value)) = self.intent.clone() else {
            return;
        };
        let ph = self.open_phase();
        // Intent is only recorded when the writer alone is *not* a write
        // quorum (`enter_write` completes in place otherwise), so the
        // resumed phase always has peers to wait for.
        debug_assert!(!self.p.quorum.is_write_quorum(ph.responders()));
        self.start_phase(
            Pending::Write {
                op,
                ph,
                label,
                value,
            },
            fx,
        );
    }

    fn begin(&mut self, op: OpId, input: RegisterOp<V>, fx: &mut Fx<L, V>) {
        debug_assert!(self.pending.is_none());
        match input {
            RegisterOp::Write(v) => self.begin_write(op, v, fx),
            RegisterOp::Read => self.begin_read(op, Consistency::Atomic, fx),
            RegisterOp::ReadAt(cons) => self.begin_read(op, cons, fx),
        }
    }

    /// The one place the two protocols differ. A single-writer register
    /// rejects writes invoked anywhere but at its writer, whose replica
    /// always holds the last label it issued, so it stamps the successor
    /// locally. A multi-writer write first queries a read quorum and stamps
    /// the successor of the largest label it saw.
    fn begin_write(&mut self, op: OpId, v: V, fx: &mut Fx<L, V>) {
        let me = self.p.me;
        match self.p.writer {
            Some(writer) if writer != me => {
                let err = RegisterError::NotWriter {
                    invoked_on: me,
                    writer,
                };
                self.finish(op, RegisterResp::Err(err), fx);
            }
            Some(_) => {
                let label = self.replica.label().next(me);
                self.enter_write(op, label, v, fx);
            }
            None => {
                let (ph, census) = self.open_query();
                if self.p.quorum.is_read_quorum(ph.responders()) {
                    let label = census.max_label().next(me);
                    self.enter_write(op, label, v, fx);
                    return;
                }
                self.start_phase(
                    Pending::WriteQuery {
                        op,
                        ph,
                        census,
                        value: v,
                    },
                    fx,
                );
            }
        }
    }

    /// A write's update phase: adopt the stamped pair locally and propagate
    /// it to a write quorum.
    fn enter_write(&mut self, op: OpId, label: L, value: V, fx: &mut Fx<L, V>) {
        self.replica.adopt(label, value.clone());
        let ph = self.open_phase();
        if self.p.quorum.is_write_quorum(ph.responders()) {
            self.finish(op, RegisterResp::WriteOk, fx);
            return;
        }
        if self.p.write_epilogue {
            self.intent = Some((op, label, value.clone()));
        }
        self.start_phase(
            Pending::Write {
                op,
                ph,
                label,
                value,
            },
            fx,
        );
    }

    fn begin_read(&mut self, op: OpId, cons: Consistency, fx: &mut Fx<L, V>) {
        if cons == Consistency::Sequential {
            // SC-ABD: serve the local replica with no network round. The
            // replica pair is stable storage and `adopt` is monotone (and
            // recovery only raises the label), so each client's reads
            // observe a non-decreasing prefix of the register's order — see
            // DESIGN.md's consistency-tier section for the full argument.
            self.sc_reads += 1;
            let value = self.replica.value().clone();
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        if cons == Consistency::Atomic && self.p.read_mode == ReadMode::Relay {
            self.begin_relay_read(op, fx);
            return;
        }
        // Regular reads ignore `read_mode`: the relay round exists to
        // replace the write-back, which a regular read skips anyway, and
        // the fast path is an atomic-tier optimization.
        let (ph, census) = self.open_query();
        if self.p.quorum.is_read_quorum(ph.responders()) {
            self.complete_read_query(op, ph.responders(), census, cons, fx);
            return;
        }
        self.start_phase(
            Pending::Query {
                op,
                ph,
                census,
                cons,
            },
            fx,
        );
    }

    /// The read's query phase holds a read quorum. A `Regular`-tier read
    /// completes here with the census maximum (write-back elided by
    /// definition); an atomic read either takes the one-round fast path
    /// (unanimous responders that form a write quorum — the max label is
    /// already durable, so the write-back is redundant) or falls through to
    /// the two-phase slow path.
    fn complete_read_query(
        &mut self,
        op: OpId,
        responders: &ProcSet,
        census: TagCensus<L, V>,
        cons: Consistency,
        fx: &mut Fx<L, V>,
    ) {
        if cons == Consistency::Regular {
            self.regular_reads += 1;
            let (label, value) = census.into_best();
            // Adopt locally even though the write-back is skipped: keeping
            // the local replica at least as fresh as any value this node
            // has returned is what lets Regular and Sequential reads from
            // the same client compose (DESIGN.md, consistency tiers).
            self.replica.adopt(label, value.clone());
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        if self.p.read_mode == ReadMode::FastUnanimous
            && self.p.read_write_back
            && fast_read_allowed(self.p.quorum.as_ref(), responders, census.unanimous())
        {
            self.fast_reads += 1;
            let (_, value) = census.into_best();
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        let (label, value) = census.into_best();
        self.enter_write_back(op, label, value, fx);
    }

    /// Second half of a read: either respond immediately (regular baseline)
    /// or propagate the chosen pair to a write quorum first (atomic ABD).
    fn enter_write_back(&mut self, op: OpId, label: L, value: V, fx: &mut Fx<L, V>) {
        if !self.p.read_write_back {
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        self.write_backs += 1;
        self.replica.adopt(label, value.clone());
        let ph = self.open_phase();
        if self.p.quorum.is_write_quorum(ph.responders()) {
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        self.start_phase(
            Pending::WriteBack {
                op,
                ph,
                label,
                value,
            },
            fx,
        );
    }

    /// Opens a relay read: broadcast our replica snapshot as the round's
    /// query (it doubles as our server-role forward) and join our own
    /// server round. With a single-node cluster both the round and the read
    /// complete in place, without messages.
    fn begin_relay_read(&mut self, op: OpId, fx: &mut Fx<L, V>) {
        let uid = self.fresh_uid();
        let ph = PhaseTracker::new_empty(uid, self.p.n);
        self.start_phase(
            Pending::RelayRead {
                op,
                ph,
                census: RelayCensus::new(),
            },
            fx,
        );
        self.relay_observe(self.p.me, uid, self.p.me, fx);
    }

    /// Whether relay round `(reader, uid)` has already completed here.
    fn relay_round_done(&self, reader: ProcessId, uid: u64) -> bool {
        self.relay_done
            .get(&reader)
            .is_some_and(|&done| done >= uid)
    }

    /// Sends this server's forward for round `(reader, uid)` to `targets`.
    fn relay_fwd_to(
        &self,
        targets: &[ProcessId],
        reader: ProcessId,
        uid: u64,
        echo: bool,
        fx: &mut Fx<L, V>,
    ) {
        let (label, value) = self.replica.snapshot();
        for &p in targets {
            fx.send(
                p,
                RegisterMsg::RelayFwd {
                    uid,
                    reader,
                    label,
                    value: value.clone(),
                    echo,
                },
            );
        }
    }

    /// Records `from`'s forward (the reader's query doubles as its forward)
    /// in server round `(reader, uid)`, creating the round — and
    /// broadcasting our own forward — on first contact. Once the round's
    /// forwards cover a read quorum it is retired: the done floor advances
    /// and our replica snapshot goes to the reader as its direct reply
    /// (fed straight into our own pending read when we are the reader).
    fn relay_observe(&mut self, reader: ProcessId, uid: u64, from: ProcessId, fx: &mut Fx<L, V>) {
        let (n, me) = (self.p.n, self.p.me);
        let created = !self.relays.contains_key(&(reader, uid));
        if created {
            // Contact for round `uid` implies the reader is past any
            // earlier round: readers are sequential and uids increase, so
            // stale abandoned rounds for this reader can be dropped.
            self.relays.retain(|&(r, u), _| r != reader || u >= uid);
            self.relays
                .insert((reader, uid), PhaseTracker::new(uid, n, me));
        }
        let complete = match self.relays.get_mut(&(reader, uid)) {
            Some(ph) => {
                ph.record(from, uid);
                self.p.quorum.is_read_quorum(ph.responders())
            }
            None => false,
        };
        if !complete {
            if created && reader != me {
                // First contact: forward our snapshot to every other server
                // (the reader included — its own round needs ours too). The
                // reader's snapshot already travelled in its query.
                let targets: Vec<ProcessId> = self.others().collect();
                self.relay_fwd_to(&targets, reader, uid, false, fx);
            }
            return;
        }
        // The tracker stays behind (pruned when the reader's next round
        // arrives) so stragglers are told apart from true duplicates.
        let floor = self.relay_done.entry(reader).or_insert(0);
        *floor = (*floor).max(uid);
        let (label, value) = self.replica.snapshot();
        if reader == me {
            self.relay_reply_in(me, uid, label, value, fx);
        } else {
            fx.send(reader, RegisterMsg::RelayReply { uid, label, value });
        }
    }

    /// Reader-side processing of one direct server reply (our own arrives
    /// here straight from [`RegisterNode::relay_observe`] when our server
    /// round completes). Completes the read on a write quorum of replies
    /// with the census's minimum pair — see the module docs for why the
    /// minimum.
    fn relay_reply_in(&mut self, from: ProcessId, uid: u64, label: L, value: V, fx: &mut Fx<L, V>) {
        let Some(Pending::RelayRead { ph, census, .. }) = self.pending.as_mut() else {
            return;
        };
        if !ph.record(from, uid) {
            return;
        }
        census.observe(label, value);
        if !self.p.quorum.is_write_quorum(ph.responders()) {
            return;
        }
        if let Some(Pending::RelayRead { op, census, .. }) = self.pending.take() {
            self.rtx.disarm(uid, fx);
            self.relay_reads += 1;
            let (label, value) = match census.into_min() {
                Some(best) => best,
                // Unreachable — a write quorum is never empty — but total.
                None => self.replica.snapshot(),
            };
            self.replica.adopt(label, value.clone());
            self.finish(op, RegisterResp::ReadOk(value), fx);
        }
    }
}

impl<L: RegisterLabel, V: Clone + Debug + Send + 'static> Protocol for RegisterNode<L, V> {
    type Msg = RegisterMsg<L, V>;
    type Op = RegisterOp<V>;
    type Resp = RegisterResp<V>;

    fn id(&self) -> ProcessId {
        self.p.me
    }

    fn on_invoke(&mut self, op: OpId, input: RegisterOp<V>, fx: &mut Fx<L, V>) {
        if self.pending.is_some() || self.recovering.is_some() {
            self.queue.push_back((op, input));
        } else {
            self.begin(op, input, fx);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: RegisterMsg<L, V>, fx: &mut Fx<L, V>) {
        match msg {
            // ---- replica role ----
            RegisterMsg::Query { uid } => {
                let (label, value) = self.replica.snapshot();
                fx.send(from, RegisterMsg::QueryReply { uid, label, value });
            }
            RegisterMsg::Update { uid, label, value } => {
                self.replica.adopt(label, value);
                fx.send(from, RegisterMsg::UpdateAck { uid });
            }
            // ---- client role ----
            RegisterMsg::QueryReply { uid, label, value } => {
                if let Some(rec) = self.recovering.as_mut() {
                    if !rec.ph.record(from, uid) {
                        return;
                    }
                    rec.census.observe(label, value);
                    if self.p.quorum.is_read_quorum(rec.ph.responders()) {
                        if let Some(rec) = self.recovering.take() {
                            self.rtx.disarm(uid, fx);
                            self.finish_recovery(rec.census, fx);
                        }
                    }
                    return;
                }
                let Some(
                    Pending::Query { ph, census, .. } | Pending::WriteQuery { ph, census, .. },
                ) = self.pending.as_mut()
                else {
                    return;
                };
                if !ph.record(from, uid) {
                    return;
                }
                census.observe(label, value);
                if !self.p.quorum.is_read_quorum(ph.responders()) {
                    return;
                }
                self.rtx.disarm(uid, fx);
                // Completion takes the pending op inside its own arm so each
                // query kind advances only along its own phase edge.
                match self.pending.take() {
                    Some(Pending::Query {
                        op,
                        ph,
                        census,
                        cons,
                    }) => self.complete_read_query(op, ph.responders(), census, cons, fx),
                    Some(Pending::WriteQuery {
                        op, census, value, ..
                    }) => {
                        let label = census.max_label().next(self.p.me);
                        self.enter_write(op, label, value, fx);
                    }
                    _ => {}
                }
            }
            // ---- relay read: server and reader roles ----
            RegisterMsg::RelayQuery { uid, label, value } => {
                self.replica.adopt(label, value);
                if self.relay_round_done(from, uid) {
                    // Reader retransmission after our round completed: both
                    // our forward (for the reader's own round) and our
                    // reply may have been lost — re-send the current
                    // snapshot, which is monotone above the originals.
                    self.relay_fwd_to(&[from], from, uid, true, fx);
                    let (label, value) = self.replica.snapshot();
                    fx.send(from, RegisterMsg::RelayReply { uid, label, value });
                    return;
                }
                let repeat = self
                    .relays
                    .get(&(from, uid))
                    .is_some_and(|ph| ph.responders().contains(from));
                if repeat {
                    // Duplicate query while we are still gathering: our
                    // forwards may have been lost — re-send to the peers we
                    // have not heard from (completed peers echo back) and
                    // to the stuck reader itself.
                    let mut targets = Vec::new();
                    if let Some(ph) = self.relays.get(&(from, uid)) {
                        targets = ph.missing();
                    }
                    targets.push(from);
                    self.relay_fwd_to(&targets, from, uid, false, fx);
                    return;
                }
                self.relay_observe(from, uid, from, fx);
            }
            RegisterMsg::RelayFwd {
                uid,
                reader,
                label,
                value,
                echo,
            } => {
                self.replica.adopt(label, value);
                let repeat = self
                    .relays
                    .get(&(reader, uid))
                    .is_some_and(|ph| ph.responders().contains(from));
                if repeat {
                    if !echo {
                        // A re-sent forward means the sender is stuck and
                        // may have lost ours — echo our snapshot so its
                        // tracker can count us. Echoes are never answered,
                        // so healing can't ping-pong.
                        self.relay_fwd_to(&[from], reader, uid, true, fx);
                    }
                    return;
                }
                if self.relay_round_done(reader, uid) {
                    // Straggler forward for a round already completed here:
                    // record it so a later duplicate is recognized as such;
                    // nothing to send.
                    if let Some(ph) = self.relays.get_mut(&(reader, uid)) {
                        ph.record(from, uid);
                    }
                    return;
                }
                self.relay_observe(reader, uid, from, fx);
            }
            RegisterMsg::RelayReply { uid, label, value } => {
                self.replica.adopt(label, value.clone());
                self.relay_reply_in(from, uid, label, value, fx);
            }
            RegisterMsg::UpdateAck { uid } => {
                let done = match self.pending.as_mut() {
                    Some(Pending::Write { ph, .. } | Pending::WriteBack { ph, .. }) => {
                        ph.record(from, uid) && self.p.quorum.is_write_quorum(ph.responders())
                    }
                    _ => false,
                };
                if !done {
                    return;
                }
                self.rtx.disarm(uid, fx);
                match self.pending.take() {
                    Some(Pending::Write { op, .. }) => self.finish(op, RegisterResp::WriteOk, fx),
                    Some(Pending::WriteBack { op, value, .. }) => {
                        self.finish(op, RegisterResp::ReadOk(value), fx)
                    }
                    _ => {}
                }
            }
        }
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Fx<L, V>) {
        if let Some(rec) = self.recovering.as_ref() {
            if rec.ph.uid() == key.0 {
                let missing = rec.ph.missing();
                self.rtx
                    .fire(key.0, &missing, RegisterMsg::Query { uid: key.0 }, fx);
            }
            return;
        }
        let Some(pending) = self.pending.as_ref() else {
            return;
        };
        if pending.phase().uid() != key.0 {
            return; // Timer from a phase that already completed.
        }
        let me = self.p.me;
        let mut missing = pending.phase().missing();
        if matches!(pending, Pending::RelayRead { .. }) {
            // A relay reader can be stuck on replies *or* on forwards for
            // its own server round; re-query both sets. The empty-seeded
            // reply tracker lists `me` as missing — never send to self.
            if let Some(rph) = self.relays.get(&(me, key.0)) {
                for p in rph.missing() {
                    if !missing.contains(&p) {
                        missing.push(p);
                    }
                }
                missing.sort();
            }
            missing.retain(|&p| p != me);
        }
        let msg = pending.message(&self.replica);
        self.rtx.fire(key.0, &missing, msg, fx);
    }

    fn on_restart(&mut self, fx: &mut Fx<L, V>) {
        // Volatile state is gone: the in-flight operation (its client sees
        // an aborted op), the invocation queue, and any retry schedule. The
        // replica pair and the phase-uid counter model stable storage and
        // survive — see the module docs for why a fully amnesiac replica
        // would break atomicity.
        self.pending = None;
        self.queue.clear();
        self.rtx.reset();
        // Relay bookkeeping is volatile too: rounds this server was
        // gathering and the done floors vanish with the crash. Safe, because
        // a post-restart reply still carries the *persisted* replica — the
        // quorum-intersection argument never depended on round state.
        self.relays.clear();
        self.relay_done.clear();
        let (ph, census) = self.open_query();
        if self.p.quorum.is_read_quorum(ph.responders()) {
            // Nothing to catch up from — but a crash-interrupted write
            // (possible when this node is a read quorum yet not a write
            // quorum, e.g. an R=1 threshold system) still rolls forward.
            self.resume_write(fx);
            return;
        }
        let uid = ph.uid();
        self.recovering = Some(Recovery { ph, census });
        self.broadcast(RegisterMsg::Query { uid }, fx);
        self.rtx.arm(uid, fx);
    }
}

impl<L: RegisterLabel, V: Clone + Debug + Send + 'static> ReadPathStats for RegisterNode<L, V> {
    fn fast_reads(&self) -> u64 {
        self.fast_reads
    }

    fn write_backs(&self) -> u64 {
        self.write_backs
    }

    fn relay_reads(&self) -> u64 {
        self.relay_reads
    }

    fn sc_reads(&self) -> u64 {
        self.sc_reads
    }

    fn regular_reads(&self) -> u64 {
        self.regular_reads
    }
}

#[cfg(test)]
mod tests {
    //! Engine behaviour shared by both protocols, run once per label type.

    use super::*;
    use crate::mwmr::MwmrConfig;
    use crate::swmr::SwmrConfig;
    use crate::testutil::MiniNet;
    use crate::types::{Nanos, SeqNo, Tag};

    /// Builds either protocol's config for the shared tests; node 0 is the
    /// SWMR writer.
    trait TestLabel: RegisterLabel {
        fn config(n: usize, me: ProcessId, mode: ReadMode, rtx: Option<Nanos>) -> Self::Config;
    }

    impl TestLabel for SeqNo {
        fn config(n: usize, me: ProcessId, mode: ReadMode, rtx: Option<Nanos>) -> SwmrConfig {
            let cfg = SwmrConfig::new(n, me, ProcessId(0)).with_read_mode(mode);
            match rtx {
                Some(every) => cfg.with_retransmit(every),
                None => cfg,
            }
        }
    }

    impl TestLabel for Tag {
        fn config(n: usize, me: ProcessId, mode: ReadMode, rtx: Option<Nanos>) -> MwmrConfig {
            let cfg = MwmrConfig::new(n, me).with_read_mode(mode);
            match rtx {
                Some(every) => cfg.with_retransmit(every),
                None => cfg,
            }
        }
    }

    fn cluster<L: TestLabel>(
        n: usize,
        mode: ReadMode,
        rtx: Option<Nanos>,
    ) -> MiniNet<RegisterNode<L, u32>> {
        let nodes = (0..n)
            .map(|i| RegisterNode::new(L::config(n, ProcessId(i), mode, rtx), 0))
            .collect();
        MiniNet::new(nodes)
    }

    /// Runs a generic test body once per protocol.
    macro_rules! for_both_labels {
        ($body:ident) => {
            $body::<SeqNo>();
            $body::<Tag>();
        };
    }

    #[test]
    fn queued_invocations_run_in_fifo_order() {
        fn run<L: TestLabel>() {
            let mut net = cluster::<L>(3, ReadMode::TwoRound, None);
            // Invoke three ops on node 0 before delivering any message.
            net.invoke(0, RegisterOp::Write(1));
            net.invoke(0, RegisterOp::Read);
            net.invoke(0, RegisterOp::Write(2));
            assert!(net.node(0).is_busy());
            assert_eq!(net.node(0).queue_len(), 2);
            net.run_to_quiescence();
            assert_eq!(
                net.take_responses(),
                vec![
                    (OpId(0), RegisterResp::WriteOk),
                    (OpId(1), RegisterResp::ReadOk(1)),
                    (OpId(2), RegisterResp::WriteOk),
                ]
            );
        }
        for_both_labels!(run);
    }

    #[test]
    fn restart_wipes_inflight_op_and_queue() {
        fn run<L: TestLabel>() {
            let mut net = cluster::<L>(5, ReadMode::TwoRound, None);
            net.set_drop_filter(|_, _, _| true); // strand the write
            net.invoke(0, RegisterOp::Write(9));
            net.invoke(0, RegisterOp::Read);
            assert!(net.node(0).is_busy());
            assert_eq!(net.node(0).queue_len(), 1);
            net.crash(0);
            net.clear_drop_filter();
            net.restart(0);
            net.run_to_quiescence();
            assert!(!net.node(0).is_busy(), "in-flight op wiped");
            assert_eq!(net.node(0).queue_len(), 0, "queue wiped");
            assert!(net.take_responses().is_empty(), "lost ops never respond");
        }
        for_both_labels!(run);
    }

    #[test]
    fn relay_read_survives_lossy_links_via_retransmission() {
        fn run<L: TestLabel>() {
            let mut net = cluster::<L>(3, ReadMode::Relay, Some(1_000));
            // Lose the first copy of every (from, to) pair; reader-driven
            // retransmission plus forward echoes must heal every round.
            net.set_drop_filter({
                let mut dropped = std::collections::HashSet::new();
                move |from, to, _| dropped.insert((from, to))
            });
            net.invoke(1, RegisterOp::Read);
            net.run_to_quiescence();
            for _ in 0..6 {
                net.fire_timers(1);
                net.run_to_quiescence();
            }
            assert_eq!(
                net.take_responses(),
                vec![(OpId(0), RegisterResp::ReadOk(0))]
            );
        }
        for_both_labels!(run);
    }

    #[test]
    fn relay_restart_clears_round_state_and_read_still_completes() {
        fn run<L: TestLabel>() {
            let mut net = cluster::<L>(5, ReadMode::Relay, None);
            net.invoke(0, RegisterOp::Write(6));
            net.run_to_quiescence();
            net.take_responses();
            // p4 crashes and rejoins mid-fleet; its relay bookkeeping is
            // gone but its persisted replica still answers rounds correctly.
            net.crash(4);
            net.restart(4);
            net.run_to_quiescence();
            net.invoke(2, RegisterOp::Read);
            net.run_to_quiescence();
            assert_eq!(
                net.take_responses(),
                vec![(OpId(1), RegisterResp::ReadOk(6))]
            );
        }
        for_both_labels!(run);
    }

    #[test]
    fn relay_reader_restart_aborts_the_read() {
        fn run<L: TestLabel>() {
            let mut net = cluster::<L>(5, ReadMode::Relay, None);
            net.set_drop_filter(|_, _, _| true); // strand the relay round
            net.invoke(2, RegisterOp::Read);
            assert!(net.node(2).is_busy());
            net.crash(2);
            net.clear_drop_filter();
            net.restart(2);
            net.run_to_quiescence();
            assert!(!net.node(2).is_busy());
            assert!(net.take_responses().is_empty(), "lost ops never respond");
            // The node still serves fresh reads afterwards.
            net.invoke(2, RegisterOp::Read);
            net.run_to_quiescence();
            assert_eq!(
                net.take_responses(),
                vec![(OpId(1), RegisterResp::ReadOk(0))]
            );
        }
        for_both_labels!(run);
    }
}
