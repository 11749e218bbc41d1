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

use crate::api::{spin_work, XABORT_GLOCK, XABORT_NOT_QUIET};
use crate::api::{
    CommitPath, TmExecutor, TxCtx, Workload, LOCK_BIT, VALUE_MASK, XABORT_LOCKED,
    XABORT_TS_CHANGED, XABORT_UNDO_FULL,
};
use crate::ctx::{SigPair, SoftwareCtx};
use crate::parthtm::{
    capacity_class, commit_global_lock, fast_abort_charge, run_global_lock, sub_retry_backoff,
    try_fast_quiet, wait_glock_released, GroupRun,
};
use crate::planner::{build_plan, FastExit, FastProfile, FastRoute, PlanChange, PlanStep};
use crate::runtime::{ThreadArena, TmRuntime, TmThread};
use crate::undo::UndoLog;
use htm_sim::abort::TxResult;
use htm_sim::util::FastSet;
use htm_sim::{AbortCode, Addr, HtmTx};
use tm_sig::{ShardTimes, Sig, SigArena, SigJournal, SigSlot, SigSpec};

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

/// The Part-HTM-O protocol (opaque variant, Fig. 2).
pub struct PartHtmO<'r> {
    th: TmThread<'r>,
    arena: ThreadArena,
    undo: UndoLog,
    locked: LockedSet,
    /// Read-signature software mirror (drives in-flight validation).
    rmir: Sig,
    /// Write-signature software mirror, accumulated over the whole global
    /// transaction (no aggregate signature in `-O`: locks are embedded).
    wmir: Sig,
    /// Per-segment signature undo journal (zero-clone sub-HTM retries; see the base
    /// executor).
    journal: SigJournal,
    /// Per-shard validation window (doubles as the sub-HTM subscription vector:
    /// every sub-transaction re-checks all shard timestamps against it).
    times: ShardTimes,
    /// The fast-path routing profile — the single decision point shared with
    /// the base executor via [`crate::planner::FastProfile`].
    profile: FastProfile,
    /// Reusable segment-plan buffer (see the base executor).
    plan: Vec<PlanStep>,
}

impl<'r> PartHtmO<'r> {
    /// The fast path: the shared quiet variant first (with `active_tx` at zero
    /// no embedded lock bit can be set anywhere, so the encounter-time checks,
    /// value masking and ring publish are unnecessary), instrumented otherwise.
    fn try_fast<W: Workload>(&mut self, w: &mut W) -> Result<(), AbortCode> {
        match try_fast_quiet(&mut self.th, w) {
            Err(AbortCode::Explicit(XABORT_NOT_QUIET)) => {} // re-run instrumented
            other => return other,
        }
        let rt = self.th.rt;
        w.reset();
        self.wmir.clear();
        let a = self.arena;
        let mut wrote = false;

        let mut tx = self.th.hw.begin();
        // Body result: the announced publish's shard mask and per-shard commit
        // timestamps (mask 0 = nothing announced).
        let body: TxResult<(u32, ShardTimes)> = 'b: {
            match tx.read(rt.glock()) {
                Ok(0) => {}
                Ok(_) => break 'b Err(tx.xabort(XABORT_GLOCK)),
                Err(e) => break 'b Err(e),
            }
            {
                let mut ctx = OFastCtx {
                    tx: &mut tx,
                    wsig: SigPair {
                        heap: a.write_sig,
                        mirror: &mut self.wmir,
                    },
                    wrote: &mut wrote,
                };
                for seg in 0..w.segments() {
                    if let Err(e) = w.segment(seg, &mut ctx) {
                        break 'b Err(e);
                    }
                }
            }
            // No pre-commit signature validation: encounter-time lock checks already
            // guarantee no non-visible location was touched (Fig. 2 lines 8–11).
            if wrote {
                match rt
                    .sharded_ring()
                    .publish_tx_summarized(&mut tx, &self.wmir, rt.summaries())
                {
                    Ok(announced) => break 'b Ok(announced),
                    Err(e) => break 'b Err(e),
                }
            }
            Ok((0, ShardTimes::new()))
        };
        let (pub_mask, pub_times) = *body.as_ref().unwrap_or(&(0, ShardTimes::new()));
        let res = match body {
            Ok(_) => tx.commit(),
            Err(code) => {
                drop(tx);
                Err(code)
            }
        };
        match res {
            Ok(()) => {
                if pub_mask != 0 {
                    rt.sharded_ring().complete_publish(
                        &self.wmir,
                        pub_mask,
                        &pub_times,
                        rt.summaries(),
                    );
                    self.th.stats.record_shard_publish(pub_mask);
                }
                self.wmir.clear();
                Ok(())
            }
            Err(code) => {
                if pub_mask != 0 {
                    rt.sharded_ring().cancel_publish(pub_mask, rt.summaries());
                }
                self.th.stats.fast_aborts += 1;
                Err(code)
            }
        }
    }

    #[inline]
    fn dec_active(&self) {
        self.th
            .hw
            .system()
            .nt_fetch_sub_by(self.th.hw.id(), self.th.rt.active_tx(), 1);
    }

    fn cleanup_partitioned(&mut self) {
        self.rmir.clear();
        self.wmir.clear();
        self.undo.clear();
        self.locked.clear();
        self.dec_active();
    }

    /// Global abort (Fig. 2 lines 60–65): the undo-log restore puts back the old,
    /// *unlocked* values, releasing every embedded lock in the same stores.
    fn global_abort(&mut self) {
        self.th.stats.global_aborts += 1;
        self.undo.undo_nt(&self.th.hw);
        self.cleanup_partitioned();
    }

    /// In-flight validation against every ring shard (per-shard summary fast path
    /// first); advances the per-shard window `times` on success.
    fn validate(&mut self) -> bool {
        let rt = self.th.rt;
        let v = rt.sharded_ring().validate_summarized_nt(
            &self.th.hw,
            rt.summaries(),
            &self.rmir,
            &mut self.times,
        );
        self.th.stats.record_sharded_validation(&v);
        v.result.is_ok()
    }

    /// Run the declared segments `start..end` as one sub-HTM transaction with
    /// bounded retries (see the base executor's `run_group`): a merged group
    /// that dies of a capacity-class abort reports [`GroupRun::Split`] for
    /// single-segment re-execution instead of retrying futilely.
    fn run_group<W: Workload>(
        &mut self,
        w: &mut W,
        start: usize,
        end: usize,
        wrote: &mut bool,
        budget: u32,
    ) -> GroupRun {
        let rt = self.th.rt;
        let a = self.arena;
        let snap = w.snapshot();
        let undo_mark = self.undo.len();
        let locked_mark = self.locked.mark();
        let mut attempts = 0u32;
        loop {
            // Zero-clone retries: journal the mirrors' dirtied words per attempt.
            self.journal.begin(self.rmir.spec());
            let mut tx = self.th.hw.begin();
            let body: TxResult<u64> = 'b: {
                // Timestamp subscription (Fig. 2 lines 23–24), per shard: reading
                // every shard's timestamp subscribes their lines, so any global
                // commit in any shard during this sub-transaction dooms it; one
                // that already happened is caught here explicitly.
                match rt.sharded_ring().timestamps_match_tx(&mut tx, &self.times) {
                    Ok(true) => {}
                    Ok(false) => break 'b Err(tx.xabort(XABORT_TS_CHANGED)),
                    Err(e) => break 'b Err(e),
                }
                let entry = tx.work_used();
                {
                    let mut ctx = OSubCtx {
                        tx: &mut tx,
                        rsig: SigPair {
                            heap: a.read_sig,
                            mirror: &mut self.rmir,
                        },
                        wsig: SigPair {
                            heap: a.write_sig,
                            mirror: &mut self.wmir,
                        },
                        undo: &mut self.undo,
                        locked: &mut self.locked,
                        journal: &mut self.journal,
                        wrote,
                    };
                    for seg in start..end {
                        if let Err(e) = w.segment(seg, &mut ctx) {
                            break 'b Err(e);
                        }
                    }
                }
                // No pre-commit validation and no lock-signature acquisition: the
                // two -O extensions provide both earlier (§5.5).
                Ok(tx.work_used() - entry)
            };
            let res = match body {
                Ok(work) => tx.commit().map(|()| work),
                Err(code) => {
                    drop(tx);
                    Err(code)
                }
            };
            match res {
                Ok(work) => {
                    self.journal.discard();
                    return GroupRun::Committed { work };
                }
                Err(code) => {
                    self.th.stats.sub_aborts += 1;
                    self.undo.truncate(undo_mark);
                    self.locked.truncate(locked_mark);
                    self.journal.rollback(&mut self.rmir, &mut self.wmir);
                    self.th.stats.journal_rollbacks += 1;
                    w.restore(snap.clone());
                    attempts += 1;
                    let capacity = capacity_class(code);
                    if capacity && end - start > 1 {
                        return GroupRun::Split;
                    }
                    // Fig. 2 lines 36–39: a timestamp change (explicit, or the
                    // hardware conflict the subscription converts commits into)
                    // triggers validation; if the snapshot is still valid only the
                    // sub-transaction restarts, otherwise the global transaction
                    // aborts. Foreign locks and undo overflow abort the global
                    // transaction directly.
                    let give_up = match code {
                        AbortCode::Explicit(XABORT_TS_CHANGED) | AbortCode::Conflict => {
                            !self.validate()
                        }
                        AbortCode::Explicit(x) => x == XABORT_LOCKED || x == XABORT_UNDO_FULL,
                        AbortCode::Capacity | AbortCode::Timer | AbortCode::Interrupt => false,
                    } || attempts >= budget;
                    if give_up {
                        if attempts >= budget && budget < rt.config().sub_retries {
                            self.th.stats.adaptive_retry_saves +=
                                (rt.config().sub_retries - budget) as u64;
                        }
                        return GroupRun::Fail { capacity };
                    }
                    sub_retry_backoff(&mut self.th, code, attempts);
                }
            }
        }
    }

    fn try_partitioned<W: Workload>(&mut self, w: &mut W) -> Result<(), ()> {
        let rt = self.th.rt;
        loop {
            wait_glock_released(&self.th);
            self.th.hw.nt_fetch_add(rt.active_tx(), 1);
            if self.th.hw.nt_read(rt.glock()) == 0 {
                break;
            }
            self.dec_active();
        }
        rt.sharded_ring().timestamps_nt(&self.th.hw, &mut self.times);
        self.rmir.clear();
        self.wmir.clear();
        self.undo.clear();
        self.locked.clear();
        w.reset();
        let mut wrote = false;

        // The segment plan (see the base executor): the site's learned merge
        // factor under the adaptive controller, the pinned static group
        // otherwise.
        let cfg = rt.config();
        let adaptive = cfg.adaptive_plan;
        let slot = rt.sites().slot(w.site());
        let group = if adaptive {
            slot.plan_group()
        } else {
            cfg.plan_group.max(1)
        };
        let sub_budget = if adaptive {
            slot.sub_budget(cfg.sub_retries)
        } else {
            cfg.sub_retries
        };
        let mut plan = std::mem::take(&mut self.plan);
        let max_run = build_plan(w.segments(), group, |s| w.software_segment(s), &mut plan);
        self.plan = plan;
        let mut split_tx = false;
        // Measured sub-HTM cost (see the base executor).
        let mut cost = 0u64;
        let mut committed = |segs: usize, work: u64| {
            cost += work;
            if adaptive {
                slot.record_group_cost(segs as u32, work);
            }
        };

        for i in 0..self.plan.len() {
            let step = self.plan[i];
            if step.software {
                let mut ctx = SoftwareCtx {
                    th: &self.th.hw,
                    mask_values: true,
                };
                w.segment(step.start, &mut ctx)
                    .expect("software segments cannot abort");
                continue;
            }
            match self.run_group(w, step.start, step.end, &mut wrote, sub_budget) {
                GroupRun::Committed { work } => committed(step.len(), work),
                GroupRun::Split => {
                    self.th.stats.plan_splits += 1;
                    split_tx = true;
                    if adaptive {
                        slot.record_capacity_split(step.len() as u32);
                    }
                    for seg in step.start..step.end {
                        match self.run_group(w, seg, seg + 1, &mut wrote, sub_budget) {
                            GroupRun::Committed { work } => committed(1, work),
                            GroupRun::Split => unreachable!("single segments never split"),
                            GroupRun::Fail { capacity } => {
                                if adaptive && capacity {
                                    slot.record_sub_futility();
                                }
                                self.global_abort();
                                return Err(());
                            }
                        }
                    }
                }
                GroupRun::Fail { capacity } => {
                    if adaptive && capacity {
                        slot.record_sub_futility();
                    }
                    self.global_abort();
                    return Err(());
                }
            }
        }

        // Global commit (Fig. 2 lines 48–59), plus the final writer validation this
        // implementation adds (see module docs).
        if wrote {
            if !self.validate() {
                self.global_abort();
                return Err(());
            }
            let (pub_mask, _) = rt.sharded_ring().publish_software_summarized(
                &self.th.hw,
                &self.wmir,
                rt.summaries(),
            );
            self.th.stats.record_shard_publish(pub_mask);
            self.undo.unlock_all_nt(&self.th.hw);
            let resets = rt
                .sharded_ring()
                .maybe_reset_summaries(&self.th.hw, rt.summaries());
            self.th.stats.record_summary_resets(&resets);
        }
        self.cleanup_partitioned();
        // Controller feedback (see the base executor).
        if adaptive && !split_tx && slot.record_clean_commit(max_run, cost) == PlanChange::Merged {
            self.th.stats.plan_merges += 1;
        }
        Ok(())
    }

    fn drive<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        let cfg = self.th.rt.config().clone();
        if w.is_irrevocable() {
            return commit_global_lock(&mut self.th, w, true);
        }
        // Single routing decision (see `planner::FastProfile`).
        let slot = self.th.rt.sites().slot(w.site());
        let prior = w.profiled_resource_limited();
        let route = self.profile.route(&cfg, slot, prior, &mut self.th.stats);
        if route == FastRoute::Serialize {
            return commit_global_lock(&mut self.th, w, true);
        }
        if let FastRoute::Attempt { budget } = route {
            let mut fails = 0;
            for attempt in 0.. {
                match self.try_fast(w) {
                    Ok(()) => {
                        self.profile.note_exit(&cfg, slot, prior, FastExit::Commit);
                        w.after_commit();
                        self.th.stats.record_commit(CommitPath::Htm);
                        return CommitPath::Htm;
                    }
                    Err(code) if code.is_resource_failure() => {
                        self.profile.note_exit(&cfg, slot, prior, FastExit::Resource);
                        self.th.stats.fallbacks_partitioned += 1;
                        break;
                    }
                    Err(code) => {
                        fails += fast_abort_charge(&mut self.th, attempt, code);
                        if fails >= budget {
                            self.profile.note_exit(&cfg, slot, prior, FastExit::Exhausted);
                            if budget < cfg.fast_retries {
                                self.th.stats.adaptive_retry_saves +=
                                    (cfg.fast_retries - budget) as u64;
                            }
                            return commit_global_lock(&mut self.th, w, true);
                        }
                        wait_glock_released(&self.th);
                    }
                }
            }
        }
        let mut gfails = 0;
        loop {
            match self.try_partitioned(w) {
                Ok(()) => {
                    w.after_commit();
                    self.th.stats.record_commit(CommitPath::SubHtm);
                    return CommitPath::SubHtm;
                }
                Err(()) => {
                    gfails += 1;
                    // Learned futility ends the loop early (see the base executor).
                    let futile = cfg.adaptive_plan && slot.futile();
                    if gfails >= cfg.part_retries || futile {
                        self.th.stats.adaptive_retry_saves +=
                            u64::from(cfg.part_retries.saturating_sub(gfails));
                        return commit_global_lock(&mut self.th, w, true);
                    }
                    spin_work(cfg.backoff_units << gfails.min(6));
                    htm_sim::vclock::yield_now();
                }
            }
        }
    }
}

impl Drop for PartHtmO<'_> {
    /// Return the signature mirrors and the journal to this thread's
    /// [`SigArena`] (see the base executor's `Drop`).
    fn drop(&mut self) {
        let empty = Sig::new(SigSpec::new(64));
        let rmir = std::mem::replace(&mut self.rmir, empty.clone());
        let wmir = std::mem::replace(&mut self.wmir, empty);
        let journal = std::mem::take(&mut self.journal);
        SigArena::with(|a| {
            a.recycle_sig(rmir);
            a.recycle_sig(wmir);
            a.recycle_journal(journal);
        });
    }
}

impl<'r> TmExecutor<'r> for PartHtmO<'r> {
    const NAME: &'static str = "Part-HTM-O";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        let th = TmThread::new(rt, thread_id);
        let arena = rt.arena(thread_id);
        let spec = rt.config().sig_spec;
        let (rmir, wmir, journal) =
            SigArena::with(|a| (a.take_sig(spec), a.take_sig(spec), a.take_journal()));
        Self {
            undo: UndoLog::new(arena.undo_base, arena.undo_words),
            locked: LockedSet::default(),
            arena,
            rmir,
            wmir,
            journal,
            times: ShardTimes::new(),
            profile: FastProfile::default(),
            plan: Vec::new(),
            th,
        }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.drive(w)
    }

    /// Shed: commit under the global lock (value-masked reads, as on this
    /// executor's slow path) with no speculative attempt — see
    /// [`PartHtm::execute_shed`](crate::PartHtm).
    fn execute_shed<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.th.stats.shed_commits += 1;
        run_global_lock(&self.th, w, true);
        w.after_commit();
        self.th.stats.record_commit(CommitPath::GlobalLock);
        CommitPath::GlobalLock
    }

    fn thread(&self) -> &TmThread<'r> {
        &self.th
    }

    fn thread_mut(&mut self) -> &mut TmThread<'r> {
        &mut self.th
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
