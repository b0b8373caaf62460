//! Bench-side tracing for the traced run: a counting global allocator, a
//! `Protocol` wrapper that times every handler call of the node it wraps,
//! and named spans kept in memory until the report is printed.
//!
//! Nothing here reaches into the program: the wrapper is handed to
//! `Sim::new` or `Cluster::spawn` in place of the node it delegates to, and
//! the allocator counts only while [`set_alloc_counting`] is on.

use crate::stats::Summary;
use abd_core::context::{Effects, Protocol, TimerKey};
use abd_core::types::{OpId, ProcessId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The system allocator, plus a per-thread count of allocations made while
/// counting is switched on.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // Relaxed: the flag publishes no other data, it only gates a statistic.
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with` fails only while the thread is being torn down, when
        // nothing is measured any more.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only extra work is a
// relaxed load and a thread-local counter update, neither of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off for every thread.
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Handler totals of one layer, summed over the nodes that report to it.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// `on_invoke`, `on_message`, `on_timer` and `on_restart` calls.
    pub calls: u64,
    /// Nanoseconds spent inside those calls.
    pub ns: u64,
    /// Heap allocations made inside those calls.
    pub allocs: u64,
    /// Messages those calls emitted.
    pub sends: u64,
    /// `on_invoke` calls alone.
    pub invokes: u64,
    /// Per restart: handler nanoseconds and sends from `on_restart` up to
    /// the node's first response.
    pub recoveries: Vec<(u64, u64)>,
}

impl Totals {
    fn absorb(&mut self, o: &Totals) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.allocs += o.allocs;
        self.sends += o.sends;
        self.invokes += o.invokes;
        self.recoveries.extend_from_slice(&o.recoveries);
    }
}

/// Where the wrapped nodes of one layer publish their totals.
pub type Sink = Arc<Mutex<Totals>>;

/// Reads a sink's current totals.
pub fn totals(sink: &Sink) -> Totals {
    sink.lock().expect("a node thread panicked").clone()
}

/// A node whose handler calls are timed and counted. Totals stay in the
/// wrapper, so node threads share nothing while they run, and move to the
/// sink when the wrapper is dropped (when the `Sim` is dropped or the
/// `Cluster` joins its threads).
#[derive(Debug)]
pub struct Traced<P> {
    inner: P,
    local: Totals,
    /// Handler ns and sends since `on_restart`, until the first response.
    recovering: Option<(u64, u64)>,
    sink: Sink,
}

impl<P: Protocol> Traced<P> {
    /// Wraps every node so it reports to `sink`.
    pub fn wrap_all(nodes: Vec<P>, sink: &Sink) -> Vec<Traced<P>> {
        nodes
            .into_iter()
            .map(|inner| Traced {
                inner,
                local: Totals::default(),
                recovering: None,
                sink: Arc::clone(sink),
            })
            .collect()
    }

    fn timed(
        &mut self,
        fx: &mut Effects<P::Msg, P::Resp>,
        f: impl FnOnce(&mut P, &mut Effects<P::Msg, P::Resp>),
    ) {
        let (sends0, resps0, allocs0) = (fx.sends.len(), fx.responses.len(), thread_allocs());
        let t0 = Instant::now();
        f(&mut self.inner, fx);
        let ns = t0.elapsed().as_nanos() as u64;
        let sends = (fx.sends.len() - sends0) as u64;
        self.local.calls += 1;
        self.local.ns += ns;
        self.local.allocs += thread_allocs() - allocs0;
        self.local.sends += sends;
        if let Some((rns, rsends)) = self.recovering.as_mut() {
            *rns += ns;
            *rsends += sends;
            if fx.responses.len() > resps0 {
                self.local.recoveries.push((*rns, *rsends));
                self.recovering = None;
            }
        }
    }
}

impl<P> Drop for Traced<P> {
    fn drop(&mut self) {
        // A poisoned sink means a node thread panicked; its totals are
        // lost, and that panic is reported where the thread is joined.
        if let Ok(mut sink) = self.sink.lock() {
            sink.absorb(&self.local);
        }
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Msg = P::Msg;
    type Op = P::Op;
    type Resp = P::Resp;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, fx: &mut Effects<P::Msg, P::Resp>) {
        self.inner.on_start(fx);
    }

    fn on_invoke(&mut self, op: OpId, input: P::Op, fx: &mut Effects<P::Msg, P::Resp>) {
        self.local.invokes += 1;
        self.timed(fx, |n, fx| n.on_invoke(op, input, fx));
    }

    fn on_message(&mut self, from: ProcessId, msg: P::Msg, fx: &mut Effects<P::Msg, P::Resp>) {
        self.timed(fx, |n, fx| n.on_message(from, msg, fx));
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Effects<P::Msg, P::Resp>) {
        self.timed(fx, |n, fx| n.on_timer(key, fx));
    }

    fn on_restart(&mut self, fx: &mut Effects<P::Msg, P::Resp>) {
        self.recovering = Some((0, 0));
        self.timed(fx, |n, fx| n.on_restart(fx));
    }
}

/// Named spans kept in memory: each name holds the durations recorded
/// under it, in the unit its name states.
#[derive(Debug, Default)]
pub struct Spans {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Records one duration under `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    /// The durations recorded under `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// One report line per span name.
    pub fn report(&self) -> Vec<String> {
        self.by_name
            .iter()
            .filter_map(|(name, xs)| Summary::of(xs.clone()).map(|s| s.line(name, "us")))
            .collect()
    }
}
