//! Outside-in span tracing: wrappers that time every call into the executor,
//! the workload and the transactional context, without changing what runs.
//!
//! [`TracedExec`] is a [`TmExecutor`] that delegates to another executor and
//! wraps each transaction in a [`TracedWorkload`], whose segments see a
//! [`TracedCtx`]. Three nested span kinds come out of it:
//!
//! * `execute` — one `TmExecutor::execute` or `execute_shed` call;
//! * `segment` — one attempt of one workload segment (any path);
//! * `access` — one `TxCtx::read` or `TxCtx::write`.
//!
//! Spans are stamped with [`htm_sim::vclock::now`] on a virtual-time core
//! (work units; reading it never charges, so a traced virtual run is
//! bit-identical to an untraced one) and with a host monotonic clock
//! otherwise (nanoseconds). They are folded into a per-executor [`Tally`] as
//! they close; a dropped executor hands its tally to a process-wide sink
//! ([`take_tallies`]), which is how worker threads owned by
//! `tm_server::run_server` report back.

use htm_sim::abort::TxResult;
use htm_sim::{vclock, Addr};
use part_htm_core::{CommitPath, TmExecutor, TmRuntime, TmThread, TxCtx, Workload};
use rand::rngs::SmallRng;
use std::sync::Mutex;
use std::time::Instant;

/// A span timestamp: the calling core's virtual time when it is attached to
/// a virtual clock, else host nanoseconds since the first call.
#[inline]
pub fn stamp() -> u64 {
    vclock::now().unwrap_or_else(host_ns)
}

/// Host nanoseconds since the first call in this process.
pub fn host_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span totals of one executor (one worker thread), in the units of
/// [`stamp`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Worker id the executor was built for.
    pub worker: usize,
    /// `execute` calls.
    pub txs: u64,
    /// `execute_shed` calls (also counted in `txs`).
    pub shed: u64,
    /// Total `execute`/`execute_shed` span time.
    pub exec_time: u64,
    /// The part of `exec_time` spent in `execute_shed`.
    pub shed_time: u64,
    /// Segment attempts.
    pub seg_attempts: u64,
    /// Total segment span time.
    pub seg_time: u64,
    /// Segment time of attempts that a later attempt of the same segment
    /// index (in the same transaction) superseded.
    pub wasted_time: u64,
    /// `read` + `write` calls.
    pub accesses: u64,
    /// Total access span time.
    pub access_time: u64,
    /// Segment attempts made outside any `execute` span (must stay 0).
    pub stray_segments: u64,
    /// End stamp of the latest `execute` span.
    pub last_end: u64,
}

impl Tally {
    /// `execute` self time: the execute spans minus their segment spans
    /// (begin/commit, validation, publish, waits, planner work).
    pub fn exec_self(&self) -> u64 {
        self.exec_time - self.seg_time
    }

    /// Segment self time: segment spans minus their access spans (workload
    /// code, `work`/`nt_work`).
    pub fn seg_self(&self) -> u64 {
        self.seg_time - self.access_time
    }

    /// Fold another executor's span totals in (`worker` and `last_end` stay
    /// this tally's).
    pub fn merge(&mut self, o: &Tally) {
        self.txs += o.txs;
        self.shed += o.shed;
        self.exec_time += o.exec_time;
        self.shed_time += o.shed_time;
        self.seg_attempts += o.seg_attempts;
        self.seg_time += o.seg_time;
        self.wasted_time += o.wasted_time;
        self.accesses += o.accesses;
        self.access_time += o.access_time;
        self.stray_segments += o.stray_segments;
    }
}

static SINK: Mutex<Vec<Tally>> = Mutex::new(Vec::new());

/// Take every tally handed over by dropped [`TracedExec`]s, sorted by worker.
pub fn take_tallies() -> Vec<Tally> {
    let mut v = std::mem::take(&mut *SINK.lock().expect("tally sink poisoned"));
    v.sort_by_key(|t| t.worker);
    v
}

/// Per-transaction segment bookkeeping shared by the workload wrapper.
#[derive(Default)]
struct SegLog {
    in_execute: bool,
    /// Duration of the latest attempt of each segment index in the current
    /// transaction (`None` = not attempted yet).
    last_attempt: Vec<Option<u64>>,
}

/// A [`TmExecutor`] that times every call into `E`.
pub struct TracedExec<E> {
    inner: E,
    tally: Tally,
    log: SegLog,
}

impl<E> TracedExec<E> {
    fn span<R>(&mut self, shed: bool, f: impl FnOnce(&mut E, &mut Tally, &mut SegLog) -> R) -> R {
        for a in &mut self.log.last_attempt {
            *a = None;
        }
        self.log.in_execute = true;
        let t0 = stamp();
        let r = f(&mut self.inner, &mut self.tally, &mut self.log);
        let t1 = stamp();
        self.log.in_execute = false;
        let d = t1 - t0;
        self.tally.txs += 1;
        self.tally.exec_time += d;
        if shed {
            self.tally.shed += 1;
            self.tally.shed_time += d;
        }
        self.tally.last_end = t1;
        r
    }
}

impl<'r, E: TmExecutor<'r>> TmExecutor<'r> for TracedExec<E> {
    const NAME: &'static str = E::NAME;

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self {
            inner: E::new(rt, thread_id),
            tally: Tally {
                worker: thread_id,
                ..Tally::default()
            },
            log: SegLog::default(),
        }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.span(false, |e, tally, log| {
            e.execute(&mut TracedWorkload {
                inner: w,
                tally,
                log,
            })
        })
    }

    fn execute_shed<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.span(true, |e, tally, log| {
            e.execute_shed(&mut TracedWorkload {
                inner: w,
                tally,
                log,
            })
        })
    }

    fn thread(&self) -> &TmThread<'r> {
        self.inner.thread()
    }

    fn thread_mut(&mut self) -> &mut TmThread<'r> {
        self.inner.thread_mut()
    }
}

impl<E> Drop for TracedExec<E> {
    fn drop(&mut self) {
        // A poisoned sink only loses this tally; never panic in drop.
        if let Ok(mut sink) = SINK.lock() {
            sink.push(std::mem::take(&mut self.tally));
        }
    }
}

/// A [`Workload`] that times each segment attempt of `W`.
struct TracedWorkload<'a, W> {
    inner: &'a mut W,
    tally: &'a mut Tally,
    log: &'a mut SegLog,
}

impl<W: Workload> Workload for TracedWorkload<'_, W> {
    type Snap = W::Snap;

    fn sample(&mut self, rng: &mut SmallRng) {
        self.inner.sample(rng)
    }

    fn segments(&self) -> usize {
        self.inner.segments()
    }

    fn software_segment(&self, seg: usize) -> bool {
        self.inner.software_segment(seg)
    }

    fn is_irrevocable(&self) -> bool {
        self.inner.is_irrevocable()
    }

    fn profiled_resource_limited(&self) -> Option<bool> {
        self.inner.profiled_resource_limited()
    }

    fn site(&self) -> u32 {
        self.inner.site()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn snapshot(&self) -> Self::Snap {
        self.inner.snapshot()
    }

    fn restore(&mut self, s: Self::Snap) {
        self.inner.restore(s)
    }

    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        let mut tc = TracedCtx {
            inner: ctx,
            accesses: 0,
            access_time: 0,
        };
        let t0 = stamp();
        let r = self.inner.segment(seg, &mut tc);
        let d = stamp() - t0;
        let t = &mut *self.tally;
        t.seg_attempts += 1;
        t.seg_time += d;
        t.accesses += tc.accesses;
        t.access_time += tc.access_time;
        if !self.log.in_execute {
            t.stray_segments += 1;
        }
        let slots = &mut self.log.last_attempt;
        if slots.len() <= seg {
            slots.resize(seg + 1, None);
        }
        if let Some(prev) = slots[seg].replace(d) {
            t.wasted_time += prev;
        }
        r
    }

    fn after_commit(&mut self) {
        self.inner.after_commit()
    }
}

/// A [`TxCtx`] that times each read and write of `C`.
struct TracedCtx<'a, C> {
    inner: &'a mut C,
    accesses: u64,
    access_time: u64,
}

impl<C: TxCtx> TxCtx for TracedCtx<'_, C> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let t0 = stamp();
        let r = self.inner.read(addr);
        self.access_time += stamp() - t0;
        self.accesses += 1;
        r
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        let t0 = stamp();
        let r = self.inner.write(addr, val);
        self.access_time += stamp() - t0;
        self.accesses += 1;
        r
    }

    fn work(&mut self, units: u64) -> TxResult<()> {
        self.inner.work(units)
    }

    fn nt_work(&mut self, units: u64) -> TxResult<()> {
        self.inner.nt_work(units)
    }
}
