//! Part-HTM-O: the opacity-preserving variant (§5.5, Fig. 2).
//!
//! Two extensions over the base protocol make every memory access consistent, not
//! just every commit:
//!
//! 1. **Address-embedded write locks**: a lock bit co-located with each datum
//!    ([`crate::LOCK_BIT`]), checked at *encounter time* on every read and write.
//!    Observing a foreign lock explicitly aborts the hardware transaction before the
//!    value can be used. Embedding eliminates the false conflicts a shared lock
//!    table would cause.
//! 2. **Timestamp subscription**: every sub-HTM transaction reads the global
//!    timestamp first (Fig. 2 lines 23–24), so any global commit during its
//!    execution dooms it via hardware conflict detection, and a commit *between*
//!    sub-transactions is caught by the explicit `TS_CHANGED` check; both trigger an
//!    in-flight validation before any further memory access.
//!
//! These make the base protocol's sub-HTM pre-commit signature validation
//! unnecessary ("useless in Part-HTM-O", §5.5). One addition over the paper's
//! pseudo-code: writers run a final in-flight validation at global commit. Fig. 2
//! omits it, but without it a transaction whose read set is invalidated *after its
//! last sub-HTM transaction commits and before its global commit* could publish —
//! see DESIGN.md ("soundness fixes") for the interleaving; the base protocol closes
//! the same window with the validation that follows its last sub-transaction.

use crate::api::{
    spin_work, TxCtx, Workload, LOCK_BIT, VALUE_MASK, XABORT_LOCKED, XABORT_TS_CHANGED,
};
use crate::ctx::SigPair;
use crate::parthtm::run_segments;
use crate::partitioned::{Partitioned, Protocol, TxState};
use crate::runtime::{TmRuntime, TmThread};
use crate::undo::UndoLog;
use htm_sim::abort::TxResult;
use htm_sim::util::FastSet;
use htm_sim::{AbortCode, Addr, HtmTx};
use std::ops::Range;
use tm_sig::{Sig, SigArena, SigJournal, SigSlot, SigSpec};

/// The set of addresses this global transaction holds embedded locks on, with
/// mark/rollback for failed sub-HTM attempts. Stands in for the paper's
/// `not_self_lock` undo-log scan (Fig. 2 lines 18–21) with identical semantics —
/// an address is self-locked iff this transaction logged a write to it — at O(1)
/// per query instead of O(log length).
#[derive(Default)]
pub struct LockedSet {
    order: Vec<Addr>,
    set: FastSet<Addr>,
}

impl LockedSet {
    /// True if `addr` is locked by the current global transaction.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.set.contains(&addr)
    }

    /// Record a newly acquired lock.
    #[inline]
    pub fn insert(&mut self, addr: Addr) {
        debug_assert!(!self.set.contains(&addr));
        self.order.push(addr);
        self.set.insert(addr);
    }

    /// Current length, for [`LockedSet::truncate`].
    pub fn mark(&self) -> usize {
        self.order.len()
    }

    /// Roll back to a previous mark (failed sub-HTM attempt: its lock-bit writes
    /// were never published).
    pub fn truncate(&mut self, mark: usize) {
        while self.order.len() > mark {
            let a = self.order.pop().expect("mark below zero");
            self.set.remove(&a);
        }
    }

    /// Forget everything (global transaction finished).
    pub fn clear(&mut self) {
        self.order.clear();
        self.set.clear();
    }

    /// Number of held locks.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no locks are held.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Fast-path context with encounter-time lock checks (Fig. 2 lines 3–7).
struct OFastCtx<'c, 'a, 's> {
    tx: &'c mut HtmTx<'a, 's>,
    wsig: SigPair<'c>,
    wrote: &'c mut bool,
}

impl TxCtx for OFastCtx<'_, '_, '_> {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let v = self.tx.read(addr)?;
        if v & LOCK_BIT != 0 {
            return Err(self.tx.xabort(XABORT_LOCKED));
        }
        Ok(v)
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        debug_assert_eq!(
            val & !VALUE_MASK,
            0,
            "application values must fit in 63 bits"
        );
        let v = self.tx.read(addr)?;
        if v & LOCK_BIT != 0 {
            return Err(self.tx.xabort(XABORT_LOCKED));
        }
        self.wsig.add(self.tx, addr)?;
        *self.wrote = true;
        self.tx.write(addr, val)
    }

    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        self.tx.work(units)?;
        spin_work(units);
        Ok(())
    }
}

/// Sub-HTM context with encounter-time lock checks and eager lock acquisition
/// (Fig. 2 lines 25–35).
struct OSubCtx<'c, 'a, 's> {
    tx: &'c mut HtmTx<'a, 's>,
    rsig: SigPair<'c>,
    wsig: SigPair<'c>,
    undo: &'c mut UndoLog,
    locked: &'c mut LockedSet,
    journal: &'c mut SigJournal,
    wrote: &'c mut bool,
}

impl TxCtx for OSubCtx<'_, '_, '_> {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let v = self.tx.read(addr)?;
        if v & LOCK_BIT != 0 && !self.locked.contains(addr) {
            return Err(self.tx.xabort(XABORT_LOCKED));
        }
        self.rsig
            .add_journaled(self.tx, addr, self.journal, SigSlot::Read)?;
        Ok(v & VALUE_MASK)
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        debug_assert_eq!(
            val & !VALUE_MASK,
            0,
            "application values must fit in 63 bits"
        );
        let v = self.tx.read(addr)?;
        if v & LOCK_BIT != 0 {
            if !self.locked.contains(addr) {
                return Err(self.tx.xabort(XABORT_LOCKED));
            }
            // Already ours: overwrite in place, keeping the lock.
            return self.tx.write(addr, val | LOCK_BIT);
        }
        self.undo.append_tx(self.tx, addr, v)?;
        self.wsig
            .add_journaled(self.tx, addr, self.journal, SigSlot::Write)?;
        self.locked.insert(addr);
        *self.wrote = true;
        // Acquire the embedded lock together with the value (Fig. 2 lines 34–35).
        self.tx.write(addr, val | LOCK_BIT)
    }

    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        self.tx.work(units)?;
        spin_work(units);
        Ok(())
    }
}

/// Part-HTM-O's protocol steps (opaque variant, Fig. 2): encounter-time lock
/// checks on every access, eager embedded-lock acquisition, and timestamp
/// subscription at every sub-HTM begin.
#[derive(Default)]
pub struct Opaque {
    /// The embedded locks this global transaction holds.
    locked: LockedSet,
}

impl Opaque {
    /// In-flight validation against every ring shard (per-shard summary fast path
    /// first); advances the per-shard window `s.times` on success.
    fn validate(th: &mut TmThread<'_>, s: &mut TxState) -> bool {
        let rt = th.rt;
        let v =
            rt.sharded_ring()
                .validate_summarized_nt(&th.hw, rt.summaries(), &s.rmir, &mut s.times);
        th.stats.record_sharded_validation(&v);
        v.result.is_ok()
    }
}

impl Protocol for Opaque {
    const NAME: &'static str = "Part-HTM-O";
    const MASK_VALUES: bool = true;

    fn take(_arena: &mut SigArena, _spec: SigSpec) -> Self {
        Self::default()
    }

    fn recycle(&mut self, _arena: &mut SigArena) {}

    /// No pre-commit signature validation: encounter-time lock checks already
    /// guarantee no non-visible location was touched (Fig. 2 lines 8–11).
    fn fast_body<W: Workload>(
        tx: &mut HtmTx<'_, '_>,
        _rt: &TmRuntime,
        s: &mut TxState,
        w: &mut W,
        wrote: &mut bool,
    ) -> TxResult<()> {
        let mut ctx = OFastCtx {
            tx,
            wsig: SigPair {
                heap: s.arena.write_sig,
                mirror: &mut s.wmir,
            },
            wrote,
        };
        let segs = 0..w.segments();
        run_segments(w, segs, &mut ctx)
    }

    /// The live shard timestamps: every sub-HTM transaction re-checks them
    /// against this window (the subscription vector).
    fn begin_window(th: &TmThread<'_>, s: &mut TxState) {
        th.rt.sharded_ring().timestamps_nt(&th.hw, &mut s.times);
    }

    /// Timestamp subscription first, then the encounter-time-checked body. No
    /// pre-commit validation and no lock-signature acquisition: the two -O
    /// extensions provide both earlier (§5.5).
    fn sub_body<W: Workload>(
        &mut self,
        tx: &mut HtmTx<'_, '_>,
        rt: &TmRuntime,
        s: &mut TxState,
        w: &mut W,
        segs: Range<usize>,
        wrote: &mut bool,
    ) -> TxResult<u64> {
        // Timestamp subscription (Fig. 2 lines 23–24), per shard: reading
        // every shard's timestamp subscribes their lines, so any global
        // commit in any shard during this sub-transaction dooms it; one
        // that already happened is caught here explicitly.
        if !rt.sharded_ring().timestamps_match_tx(tx, &s.times)? {
            return Err(tx.xabort(XABORT_TS_CHANGED));
        }
        let entry = tx.work_used();
        let mut ctx = OSubCtx {
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
            locked: &mut self.locked,
            journal: &mut s.journal,
            wrote,
        };
        run_segments(w, segs, &mut ctx)?;
        Ok(tx.work_used() - entry)
    }

    fn mark(&self) -> usize {
        self.locked.mark()
    }

    fn truncate(&mut self, mark: usize) {
        self.locked.truncate(mark);
    }

    /// Fig. 2 lines 36–39: a timestamp change (explicit, or the hardware
    /// conflict the subscription converts commits into) triggers validation;
    /// if the snapshot is still valid only the sub-transaction restarts,
    /// otherwise the global transaction aborts.
    fn snapshot_lost(&mut self, th: &mut TmThread<'_>, s: &mut TxState, code: AbortCode) -> bool {
        matches!(
            code,
            AbortCode::Explicit(XABORT_TS_CHANGED) | AbortCode::Conflict
        ) && !Self::validate(th, s)
    }

    /// The final writer validation this implementation adds (see the module
    /// docs).
    fn commit_validation(&mut self, th: &mut TmThread<'_>, s: &mut TxState) -> bool {
        Self::validate(th, s)
    }

    /// The write mirror: with locks embedded there is no aggregate signature,
    /// so `wmir` accumulates over the whole global transaction.
    fn written<'a>(&'a self, s: &'a TxState) -> &'a Sig {
        &s.wmir
    }

    /// A commit clears the lock bits of the written values; a global abort's
    /// undo-log restore (Fig. 2 lines 60–65) already put back the old,
    /// *unlocked* values, releasing every embedded lock in the same stores.
    fn release(&mut self, th: &TmThread<'_>, s: &TxState, committed: bool) {
        if committed {
            s.undo.unlock_all_nt(&th.hw);
        }
    }

    fn clear(&mut self) {
        self.locked.clear();
    }
}

/// The Part-HTM-O executor (opaque variant, Fig. 2).
pub type PartHtmO<'r> = Partitioned<'r, Opaque>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{CommitPath, TmExecutor};
    use htm_sim::abort::TxResult;
    use rand::rngs::SmallRng;

    struct Incr {
        n: usize,
        segs: usize,
        base: Addr,
    }

    impl Workload for Incr {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn segments(&self) -> usize {
            self.segs
        }
        fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
            let per = self.n / self.segs;
            for i in seg * per..(seg + 1) * per {
                let a = self.base + (i * 8) as Addr;
                let v = ctx.read(a)?;
                ctx.write(a, v + 1)?;
            }
            Ok(())
        }
    }

    #[test]
    fn locked_set_mark_truncate() {
        let mut l = LockedSet::default();
        l.insert(1);
        let m = l.mark();
        l.insert(2);
        l.insert(3);
        assert!(l.contains(3));
        l.truncate(m);
        assert!(l.contains(1));
        assert!(!l.contains(2));
        assert_eq!(l.len(), 1);
        l.clear();
        assert!(l.is_empty());
    }

    #[test]
    fn fast_path_commits_small_tx() {
        let rt = TmRuntime::with_defaults(1, 1024);
        let mut e = PartHtmO::new(&rt, 0);
        let mut w = Incr {
            n: 4,
            segs: 1,
            base: rt.app(0),
        };
        assert_eq!(e.execute(&mut w), CommitPath::Htm);
        for i in 0..4 {
            assert_eq!(rt.verify_read(i * 8), 1);
        }
    }

    #[test]
    fn partitioned_path_locks_and_unlocks() {
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
        let mut e = PartHtmO::new(&rt, 0);
        let mut w = Incr {
            n: 96,
            segs: 8,
            base: rt.app(0),
        };
        assert_eq!(e.execute(&mut w), CommitPath::SubHtm);
        for i in 0..96 {
            let v = rt.verify_read(i * 8);
            assert_eq!(v, 1, "counter {i} must be 1 and unlocked, got {v:#x}");
        }
    }

    use crate::runtime::TmConfig;

    #[test]
    fn values_never_observed_locked_by_fast_path() {
        // A partitioned writer keeps locking values; fast-path readers must either
        // see pre-lock or post-unlock values, never the lock bit.
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
            2,
            2048,
        );
        struct ReadAll {
            n: usize,
            base: Addr,
            seen: Vec<u64>,
        }
        impl Workload for ReadAll {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn reset(&mut self) {
                self.seen.clear();
            }
            fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
                for i in 0..self.n {
                    let v = ctx.read(self.base + (i * 8) as Addr)?;
                    self.seen.push(v);
                }
                Ok(())
            }
        }
        std::thread::scope(|s| {
            let rt = &rt;
            s.spawn(move || {
                let mut e = PartHtmO::new(rt, 0);
                let mut w = Incr {
                    n: 96,
                    segs: 8,
                    base: rt.app(0),
                };
                for _ in 0..10 {
                    e.execute(&mut w);
                }
            });
            s.spawn(move || {
                let mut e = PartHtmO::new(rt, 1);
                let mut w = ReadAll {
                    n: 96,
                    base: rt.app(0),
                    seen: Vec::new(),
                };
                for _ in 0..50 {
                    e.execute(&mut w);
                    for &v in &w.seen {
                        assert_eq!(v & LOCK_BIT, 0, "observed a locked value: {v:#x}");
                    }
                }
            });
        });
        // All locks released at the end.
        for i in 0..96 {
            assert_eq!(rt.verify_read(i * 8) & LOCK_BIT, 0);
        }
    }

    #[test]
    fn concurrent_opaque_increments_exact() {
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
        const TXS: usize = 25;
        std::thread::scope(|s| {
            for t in 0..4 {
                let rt = &rt;
                s.spawn(move || {
                    let mut e = PartHtmO::new(rt, t);
                    let mut w = Incr {
                        n: 16,
                        segs: 4,
                        base: rt.app(0),
                    };
                    for _ in 0..TXS {
                        e.execute(&mut w);
                    }
                });
            }
        });
        for i in 0..16 {
            assert_eq!(rt.verify_read(i * 8), (4 * TXS) as u64);
        }
        assert_eq!(rt.system().nt_read(rt.active_tx()), 0);
        assert_eq!(rt.system().nt_read(rt.glock()), 0);
    }
}
