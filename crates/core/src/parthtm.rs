//! Part-HTM (Fig. 1 of the paper): the serializable protocol's steps of the
//! partitioned-path executor ([`Serializable`]), plus the global-lock and
//! pure-HTM building blocks every hardware-based executor shares.

use crate::api::{CommitPath, TxCtx, Workload, XABORT_GLOCK, XABORT_LOCKED, XABORT_NOT_QUIET};
use crate::ctx::{
    acquire_locks_tx, fast_validation, sub_validation, FastCtx, RawCtx, SigPair, SlowCtx, SubCtx,
};
use crate::partitioned::{Partitioned, Protocol, TxState};
use crate::runtime::{TmRuntime, TmThread};
use htm_sim::abort::TxResult;
use htm_sim::{AbortCode, Addr, HtmTx};
use std::ops::Range;
use tm_sig::{Sig, SigArena, SigSpec};

/// Run the segments `segs` of `w` against `ctx`, stopping at the first abort.
pub(crate) fn run_segments<W: Workload, C: TxCtx>(
    w: &mut W,
    segs: Range<usize>,
    ctx: &mut C,
) -> TxResult<()> {
    for seg in segs {
        w.segment(seg, ctx)?;
    }
    Ok(())
}

/// Subscribe the lock word at `addr` inside `tx`: read it, and abort with the
/// explicit payload `code` unless it is zero. A later change of the word
/// dooms the transaction.
pub fn subscribe(tx: &mut HtmTx<'_, '_>, addr: Addr, code: u8) -> TxResult<()> {
    match tx.read(addr)? {
        0 => Ok(()),
        _ => Err(tx.xabort(code)),
    }
}

/// Resolve a hardware attempt: commit `tx` when its `body` succeeded,
/// otherwise drop it (the failing operation already rolled it back).
pub fn resolve<T>(tx: HtmTx<'_, '_>, body: TxResult<T>) -> TxResult<T> {
    let v = body?;
    tx.commit()?;
    Ok(v)
}

/// Run a transaction under the global lock (the slow path, Fig. 1 lines 61–65):
/// acquire `GLock`, wait for every partitioned-path transaction to drain
/// (`active_tx == 0`), execute uninstrumented, release. Shared by Part-HTM,
/// Part-HTM-O and the HTM-GL baseline.
pub fn run_global_lock<W: Workload>(th: &TmThread<'_>, w: &mut W, mask_values: bool) {
    let rt = th.rt;
    while th.hw.nt_cas(rt.glock(), 0, 1).is_err() {
        htm_sim::vclock::yield_now();
    }
    while th.hw.nt_read(rt.active_tx()) != 0 {
        htm_sim::vclock::yield_now();
    }
    w.reset();
    let mut ctx = SlowCtx {
        th: &th.hw,
        mask_values,
    };
    let segs = 0..w.segments();
    run_segments(w, segs, &mut ctx).expect("slow-path operations cannot abort");
    th.hw.nt_write(rt.glock(), 0);
}

/// Commit `w` under the global lock ([`run_global_lock`]) and record the
/// commit.
pub(crate) fn commit_on_lock<W: Workload>(
    th: &mut TmThread<'_>,
    w: &mut W,
    mask_values: bool,
) -> CommitPath {
    run_global_lock(th, w, mask_values);
    w.after_commit();
    th.stats.record_commit(CommitPath::GlobalLock);
    CommitPath::GlobalLock
}

/// An executor's exit to the slow path: count the fallback, commit `w` under
/// the global lock ([`run_global_lock`]) and record the commit.
pub fn commit_global_lock<W: Workload>(
    th: &mut TmThread<'_>,
    w: &mut W,
    mask_values: bool,
) -> CommitPath {
    th.stats.fallbacks_gl += 1;
    commit_on_lock(th, w, mask_values)
}

/// Anti-lemming retry policy (§7, after the paper’s reference \[38\]): never retry in hardware while the
/// global lock is held — wait for its release first. Fast paths wait on the
/// retry edge only (after an abort, before the next attempt): a first attempt
/// begins directly, and its in-transaction `GLock` subscription (Fig. 1 lines
/// 1–2) makes the same check (see [`fast_abort_charge`]).
pub fn wait_glock_released(th: &TmThread<'_>) {
    while th.hw.nt_read(th.rt.glock()) != 0 {
        htm_sim::vclock::yield_now();
    }
}

/// What fast-path attempt `attempt` (0-based), aborted with `code`, costs the
/// conflict-retry budget: 1, except 0 for a first attempt that its own `GLock`
/// subscription aborted ([`XABORT_GLOCK`]). That abort stands in for a
/// pre-begin lock wait, so entering while the lock is held costs one aborted
/// begin and a wait, never a retry. Counted in
/// [`TmStats::glock_entry_aborts`](crate::TmStats::glock_entry_aborts).
pub fn fast_abort_charge(th: &mut TmThread<'_>, attempt: u32, code: AbortCode) -> u32 {
    if attempt == 0 && code == AbortCode::Explicit(XABORT_GLOCK) {
        th.stats.glock_entry_aborts += 1;
        return 0;
    }
    1
}

/// One pure-HTM attempt of the whole transaction: begin, subscribe `GLock`,
/// run every segment uninstrumented ([`RawCtx`]), commit; an abort counts in
/// `fast_aborts`. HTM-GL, HLE and SpHT attempt transactions this way.
///
/// With `quiet` it also subscribes `active_tx`: the *quiet* fast path every
/// Part-HTM and Part-HTM-O fast-path attempt tries first. A non-zero
/// `active_tx` aborts it with [`XABORT_NOT_QUIET`] and the caller re-runs
/// instrumented. Sound because the protocol state the instrumentation
/// coordinates with — Part-HTM's write locks and ring, Part-HTM-O's embedded
/// lock bits — is only held or consulted while `active_tx > 0` (release
/// precedes the decrement), and any change to either subscribed word dooms
/// this hardware transaction.
pub fn try_pure_htm<W: Workload>(
    th: &mut TmThread<'_>,
    w: &mut W,
    quiet: bool,
) -> Result<(), AbortCode> {
    w.reset();
    let rt = th.rt;
    let mut tx = th.hw.begin();
    let body = pure_body(&mut tx, rt, w, quiet);
    let res = resolve(tx, body);
    if res.is_err() {
        th.stats.fast_aborts += 1;
    }
    res
}

fn pure_body<W: Workload>(
    tx: &mut HtmTx<'_, '_>,
    rt: &TmRuntime,
    w: &mut W,
    quiet: bool,
) -> TxResult<()> {
    subscribe(tx, rt.glock(), XABORT_GLOCK)?;
    if quiet {
        subscribe(tx, rt.active_tx(), XABORT_NOT_QUIET)?;
    }
    let segs = 0..w.segments();
    run_segments(w, segs, &mut RawCtx { tx })
}

/// Part-HTM's protocol steps (serializable variant, Fig. 1): signature
/// validation against the shared write-lock signature, lock acquisition inside
/// every sub-HTM commit, and in-flight validation after sub-HTM commits.
pub struct Serializable {
    /// Software mirror of the aggregate write-set signature: the write locks
    /// this global transaction holds (kept exact).
    amir: Sig,
}

impl Protocol for Serializable {
    const NAME: &'static str = "Part-HTM";
    const MASK_VALUES: bool = false;

    fn take(arena: &mut SigArena, spec: SigSpec) -> Self {
        Self {
            amir: arena.take_sig(spec),
        }
    }

    fn recycle(&mut self, arena: &mut SigArena) {
        arena.recycle_sig(std::mem::replace(
            &mut self.amir,
            Sig::new(SigSpec::new(64)),
        ));
    }

    fn fast_body<W: Workload>(
        tx: &mut HtmTx<'_, '_>,
        rt: &TmRuntime,
        s: &mut TxState,
        w: &mut W,
        wrote: &mut bool,
    ) -> TxResult<()> {
        let mut ctx = FastCtx {
            tx,
            rsig: SigPair {
                heap: s.arena.read_sig,
                mirror: &mut s.rmir,
            },
            wsig: SigPair {
                heap: s.arena.write_sig,
                mirror: &mut s.wmir,
            },
            wrote,
        };
        let segs = 0..w.segments();
        run_segments(w, segs, &mut ctx)?;
        // Pre-commit validation against non-visible locations (Fig. 1 lines 7–8).
        if fast_validation(tx, rt.write_locks(), &s.rmir, &s.wmir)? {
            return Err(tx.xabort(XABORT_LOCKED));
        }
        Ok(())
    }

    /// Begin windows from the fold watermarks: host atomics only, no
    /// simulated timestamp reads. Part-HTM never compares these against the
    /// live shard timestamps (unlike Part-HTM-O's subscription), so a
    /// lagging watermark just means a slightly wider validation window.
    fn begin_window(th: &TmThread<'_>, s: &mut TxState) {
        th.rt.summaries().watermark_times(&mut s.times);
    }

    fn sub_body<W: Workload>(
        &mut self,
        tx: &mut HtmTx<'_, '_>,
        rt: &TmRuntime,
        s: &mut TxState,
        w: &mut W,
        segs: Range<usize>,
        wrote: &mut bool,
    ) -> TxResult<u64> {
        let mut ctx = SubCtx {
            tx,
            rsig: SigPair {
                heap: s.arena.read_sig,
                mirror: &mut s.rmir,
            },
            wsig: SigPair {
                heap: s.arena.write_sig,
                mirror: &mut s.wmir,
            },
            undo: &mut s.undo,
            journal: &mut s.journal,
            wrote,
        };
        run_segments(w, segs, &mut ctx)?;
        let work = tx.work_used();
        // Pre-commit validation, own locks masked out (Fig. 1 lines 26–28).
        if sub_validation(tx, rt.write_locks(), &self.amir, &s.rmir, &s.wmir)? {
            return Err(tx.xabort(XABORT_LOCKED));
        }
        // Acquire write locks for the just-written locations (Fig. 1 line 29).
        acquire_locks_tx(tx, rt.write_locks(), &s.wmir)?;
        Ok(work)
    }

    /// The in-flight validation when due, then the fold of the group's
    /// writes into the aggregate signature (Fig. 1 lines 32–33).
    fn seal(&mut self, th: &mut TmThread<'_>, s: &mut TxState, validate: bool) -> bool {
        if validate {
            // In-flight validation after a sub-HTM commit (§5.3.6). Part-HTM
            // keeps begin-time windows and never subscribes shard timestamps,
            // so the cheap non-advancing validator applies: a clean probe of
            // each touched shard's summary decides the common no-conflict case
            // without touching simulated memory, and only a doubtful shard is
            // walked precisely (advancing its window).
            let rt = th.rt;
            let v = rt.sharded_ring().validate_touched_nt(
                &th.hw,
                rt.summaries(),
                &s.rmir,
                &mut s.times,
            );
            th.stats.record_sharded_validation(&v);
            if v.result.is_err() {
                return false;
            }
        }
        self.amir.union_with(&s.wmir);
        s.wmir.clear();
        true
    }

    fn written<'a>(&'a self, _s: &'a TxState) -> &'a Sig {
        &self.amir
    }

    /// Clear the aggregate signature's bits from the shared write locks
    /// (Fig. 1 lines 49 and 56). An in-flight validation failure arrives at a
    /// global abort after the offending sub-transaction committed (and
    /// acquired locks for its writes) but before its write signature was
    /// folded into the aggregate; fold it now so the release also covers the
    /// last sub's locks. Everywhere else `wmir` is empty here.
    fn release(&mut self, th: &TmThread<'_>, s: &TxState, _committed: bool) {
        self.amir.union_with(&s.wmir);
        th.rt.write_locks().and_not_nt(&th.hw, &self.amir);
    }

    fn clear(&mut self) {
        self.amir.clear();
    }
}

/// The Part-HTM executor (serializable variant, Fig. 1).
pub type PartHtm<'r> = Partitioned<'r, Serializable>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TmExecutor;
    use crate::runtime::TmConfig;
    use htm_sim::abort::TxResult;
    use rand::rngs::SmallRng;

    /// Increment `n` counters spread over distinct lines, in `segs` segments.
    struct Incr {
        n: usize,
        segs: usize,
        base: htm_sim::Addr,
        work_per_op: u64,
    }

    impl Workload for Incr {
        type Snap = ();
        fn sample(&mut self, _rng: &mut SmallRng) {}
        fn segments(&self) -> usize {
            self.segs
        }
        fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
            let per = self.n / self.segs;
            for i in seg * per..(seg + 1) * per {
                let a = self.base + (i * 8) as htm_sim::Addr;
                let v = ctx.read(a)?;
                if self.work_per_op > 0 {
                    ctx.work(self.work_per_op)?;
                }
                ctx.write(a, v + 1)?;
            }
            Ok(())
        }
    }

    fn check_sum(rt: &TmRuntime, n: usize, expect: u64) {
        for i in 0..n {
            assert_eq!(rt.verify_read(i * 8), expect, "counter {i}");
        }
    }

    #[test]
    fn small_tx_commits_on_fast_path() {
        let rt = TmRuntime::with_defaults(1, 1024);
        let mut e = PartHtm::new(&rt, 0);
        let mut w = Incr {
            n: 4,
            segs: 1,
            base: rt.app(0),
            work_per_op: 0,
        };
        let path = e.execute(&mut w);
        assert_eq!(path, CommitPath::Htm);
        check_sum(&rt, 4, 1);
        assert_eq!(e.thread().stats.commits_htm, 1);
    }

    #[test]
    fn capacity_limited_tx_commits_on_partitioned_path() {
        // Tiny HTM: 8 written lines max. The transaction writes 96 app lines; 8 segments
        // of 12 fit (alongside the protocol metadata).
        let rt = TmRuntime::new(
            // Mid-size HTM: 16 sets x 4 ways = 64 written lines — big enough for a
            // segment plus the protocol metadata (signatures, undo log, locks),
            // small enough that the whole transaction overflows it.
            htm_sim::HtmConfig {
                l1_sets: 16,
                l1_ways: 4,
                quantum: 100_000,
                ..htm_sim::HtmConfig::default()
            },
            TmConfig::default(),
            1,
            2048,
        );
        let mut e = PartHtm::new(&rt, 0);
        let mut w = Incr {
            n: 96,
            segs: 8,
            base: rt.app(0),
            work_per_op: 0,
        };
        let path = e.execute(&mut w);
        assert_eq!(path, CommitPath::SubHtm);
        check_sum(&rt, 96, 1);
        let s = &e.thread().stats;
        assert_eq!(s.commits_subhtm, 1);
        assert_eq!(s.fallbacks_partitioned, 1);
        // All metadata released.
        assert!(rt.write_locks().snapshot_nt(&e.thread().hw).is_empty());
        assert_eq!(rt.system().nt_read(rt.active_tx()), 0);
    }

    #[test]
    fn time_limited_tx_commits_on_partitioned_path() {
        // Quantum 1000; the transaction burns 100 units per op over 40 ops (4000+),
        // but each 10-op segment fits.
        let rt = TmRuntime::new(
            htm_sim::HtmConfig {
                quantum: 1500,
                ..htm_sim::HtmConfig::default()
            },
            TmConfig::default(),
            1,
            4096,
        );
        let mut e = PartHtm::new(&rt, 0);
        let mut w = Incr {
            n: 40,
            segs: 4,
            base: rt.app(0),
            work_per_op: 100,
        };
        let path = e.execute(&mut w);
        assert_eq!(path, CommitPath::SubHtm);
        check_sum(&rt, 40, 1);
    }

    #[test]
    fn oversize_segments_fall_back_to_global_lock() {
        // Even one segment (48 app lines, 3 per set, plus metadata) overflows 4-way sets:
        // partitioning cannot help, the slow path must rescue the transaction.
        let rt = TmRuntime::new(
            // Mid-size HTM: 16 sets x 4 ways = 64 written lines — big enough for a
            // segment plus the protocol metadata (signatures, undo log, locks),
            // small enough that the whole transaction overflows it.
            htm_sim::HtmConfig {
                l1_sets: 16,
                l1_ways: 4,
                quantum: 100_000,
                ..htm_sim::HtmConfig::default()
            },
            TmConfig::default(),
            1,
            2048,
        );
        let mut e = PartHtm::new(&rt, 0);
        let mut w = Incr {
            n: 96,
            segs: 2,
            base: rt.app(0),
            work_per_op: 0,
        };
        let path = e.execute(&mut w);
        assert_eq!(path, CommitPath::GlobalLock);
        check_sum(&rt, 96, 1);
        assert_eq!(rt.system().nt_read(rt.glock()), 0, "global lock released");
    }

    #[test]
    fn irrevocable_goes_straight_to_global_lock() {
        struct Irrev(htm_sim::Addr);
        impl Workload for Irrev {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn is_irrevocable(&self) -> bool {
                true
            }
            fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
                let v = ctx.read(self.0)?;
                ctx.write(self.0, v + 1)
            }
        }
        let rt = TmRuntime::with_defaults(1, 64);
        let mut e = PartHtm::new(&rt, 0);
        assert_eq!(e.execute(&mut Irrev(rt.app(0))), CommitPath::GlobalLock);
        assert_eq!(rt.verify_read(0), 1);
    }

    #[test]
    fn skip_fast_goes_straight_to_partitioned() {
        let rt = TmRuntime::new(
            htm_sim::HtmConfig::default(),
            TmConfig {
                skip_fast: true,
                ..TmConfig::default()
            },
            1,
            1024,
        );
        let mut e = PartHtm::new(&rt, 0);
        let mut w = Incr {
            n: 4,
            segs: 2,
            base: rt.app(0),
            work_per_op: 0,
        };
        assert_eq!(e.execute(&mut w), CommitPath::SubHtm);
        assert_eq!(e.thread().stats.fast_aborts, 0);
        check_sum(&rt, 4, 1);
    }

    #[test]
    fn software_segments_escape_the_quantum() {
        // Transaction: tiny memory footprint but a huge computation. As a single HTM
        // transaction it blows the quantum; with the computation in a software
        // segment the partitioned path commits it.
        struct LongCompute {
            a: htm_sim::Addr,
        }
        impl Workload for LongCompute {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn segments(&self) -> usize {
                3
            }
            fn software_segment(&self, s: usize) -> bool {
                s == 1
            }
            fn segment<C: TxCtx>(&mut self, s: usize, ctx: &mut C) -> TxResult<()> {
                match s {
                    0 => {
                        let v = ctx.read(self.a)?;
                        ctx.write(self.a, v + 1)
                    }
                    1 => ctx.nt_work(10_000),
                    _ => {
                        let v = ctx.read(self.a + 8)?;
                        ctx.write(self.a + 8, v + 1)
                    }
                }
            }
        }
        let rt = TmRuntime::new(
            htm_sim::HtmConfig {
                quantum: 2000,
                ..htm_sim::HtmConfig::default()
            },
            TmConfig::default(),
            1,
            64,
        );
        let mut e = PartHtm::new(&rt, 0);
        let mut w = LongCompute { a: rt.app(0) };
        assert_eq!(e.execute(&mut w), CommitPath::SubHtm);
        assert_eq!(rt.verify_read(0), 1);
        assert_eq!(rt.verify_read(8), 1);
    }

    #[test]
    fn concurrent_partitioned_transactions_are_serializable() {
        let rt = TmRuntime::new(
            // Mid-size HTM: 16 sets x 4 ways = 64 written lines — big enough for a
            // segment plus the protocol metadata (signatures, undo log, locks),
            // small enough that the whole transaction overflows it.
            htm_sim::HtmConfig {
                l1_sets: 16,
                l1_ways: 4,
                quantum: 100_000,
                ..htm_sim::HtmConfig::default()
            },
            TmConfig::default(),
            4,
            4096,
        );
        // Counters at distinct lines; each tx increments all 16 in 4 segments, so
        // every pair of transactions conflicts. The total must still be exact.
        const TXS: usize = 30;
        std::thread::scope(|s| {
            for t in 0..4 {
                let rt = &rt;
                s.spawn(move || {
                    let mut e = PartHtm::new(rt, t);
                    let mut w = Incr {
                        n: 16,
                        segs: 4,
                        base: rt.app(0),
                        work_per_op: 0,
                    };
                    for _ in 0..TXS {
                        e.execute(&mut w);
                    }
                });
            }
        });
        check_sum(&rt, 16, (4 * TXS) as u64);
        let th = TmThread::new(&rt, 0);
        assert!(
            rt.write_locks().snapshot_nt(&th.hw).is_empty(),
            "all locks released"
        );
        assert_eq!(rt.system().nt_read(rt.active_tx()), 0);
        assert_eq!(rt.system().nt_read(rt.glock()), 0);
    }
}
