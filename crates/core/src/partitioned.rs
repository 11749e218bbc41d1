//! The partitioned-path executor: the three-path driver of Fig. 1, written once
//! for both protocols.
//!
//! [`Partitioned`] owns everything Part-HTM and Part-HTM-O share — the thread
//! context, the signature mirrors and journal, the undo log, the fast-path
//! routing profile and the segment plan — and the whole control flow: the
//! fast-path attempts, the partitioned path's global begin, segment plan,
//! sub-HTM retry loop and global commit, and every exit to the global lock. A
//! [`Protocol`] supplies only the steps where Fig. 1 ([`crate::PartHtm`],
//! serializable) and Fig. 2 ([`crate::PartHtmO`], opaque, §5.5) differ: the
//! instrumented bodies, the begin window, the validation points and the lock
//! release.

use crate::api::{spin_work, CommitPath, TmExecutor, Workload, XABORT_LOCKED, XABORT_NOT_QUIET};
use crate::api::{XABORT_GLOCK, XABORT_UNDO_FULL};
use crate::ctx::SoftwareCtx;
use crate::parthtm::{
    commit_global_lock, commit_on_lock, fast_abort_charge, resolve, subscribe, try_pure_htm,
    wait_glock_released,
};
use crate::planner::{build_plan, FastExit, FastProfile, FastRoute, PlanChange, PlanStep};
use crate::runtime::{ThreadArena, TmRuntime, TmThread};
use crate::undo::UndoLog;
use htm_sim::abort::TxResult;
use htm_sim::{vclock, AbortCode, HtmTx};
use rand::Rng;
use std::ops::Range;
use tm_sig::{ShardTimes, Sig, SigArena, SigJournal, SigSpec};

/// Per-thread transaction metadata both protocols use. The executor owns it;
/// protocol hooks read and update it.
pub struct TxState {
    /// Heap addresses of this thread's signatures and undo-log arena.
    pub(crate) arena: ThreadArena,
    /// The global transaction's value-based undo log.
    pub(crate) undo: UndoLog,
    /// Software mirror of the read-set signature (kept exactly equal to the heap
    /// copy: signature adds are write-only stores of the mirror word).
    pub(crate) rmir: Sig,
    /// Software mirror of the write-set signature (kept exact): the current
    /// sub-HTM transaction's under Part-HTM, the whole global transaction's
    /// under Part-HTM-O.
    pub(crate) wmir: Sig,
    /// Per-segment signature undo journal (zero-clone sub-HTM retries): records the
    /// mirrors' dirtied words so a failed segment rolls back by replaying a handful
    /// of words instead of restoring full clones. Lives on the executor so its
    /// storage is reused across segments and transactions — no allocation after
    /// warm-up.
    pub(crate) journal: SigJournal,
    /// Per-shard validation window: slot `s` holds the newest commit of ring
    /// shard `s` this transaction's reads are known consistent against.
    pub(crate) times: ShardTimes,
}

/// The steps where Part-HTM (Fig. 1) and Part-HTM-O (Fig. 2) differ, with the
/// state each needs. [`Partitioned`] runs everything else and calls these at
/// fixed points; the defaults are Part-HTM-O's "nothing to do here".
pub trait Protocol: Send + Sized {
    /// Display name in reports.
    const NAME: &'static str;
    /// Application words may carry [`crate::LOCK_BIT`]: the global-lock path
    /// and software segments mask it off reads.
    const MASK_VALUES: bool;

    /// The protocol's own state, taken from the thread's signature arena.
    fn take(arena: &mut SigArena, spec: SigSpec) -> Self;

    /// Give the protocol's state back to the arena (executor drop).
    fn recycle(&mut self, arena: &mut SigArena);

    /// The instrumented fast-path body, inside the hardware transaction after
    /// its `GLock` subscription: every segment, then any pre-commit check.
    fn fast_body<W: Workload>(
        tx: &mut HtmTx<'_, '_>,
        rt: &TmRuntime,
        s: &mut TxState,
        w: &mut W,
        wrote: &mut bool,
    ) -> TxResult<()>;

    /// Open the partitioned attempt's validation window `s.times`.
    fn begin_window(th: &TmThread<'_>, s: &mut TxState);

    /// The body of one sub-HTM transaction over the declared segments `segs`,
    /// inside the hardware transaction. Returns the body's work
    /// ([`htm_sim::HtmTx::work_used`] over the segments), which feeds the
    /// planner's quantum-aware decisions.
    fn sub_body<W: Workload>(
        &mut self,
        tx: &mut HtmTx<'_, '_>,
        rt: &TmRuntime,
        s: &mut TxState,
        w: &mut W,
        segs: Range<usize>,
        wrote: &mut bool,
    ) -> TxResult<u64>;

    /// Rollback mark of the protocol state at a group's entry.
    fn mark(&self) -> usize {
        0
    }

    /// Roll the protocol state back to `mark` after a failed sub-HTM attempt.
    fn truncate(&mut self, _mark: usize) {}

    /// Must the global transaction abort after a sub-HTM abort with `code`
    /// that neither a foreign lock nor the undo log caused?
    fn snapshot_lost(
        &mut self,
        _th: &mut TmThread<'_>,
        _s: &mut TxState,
        _code: AbortCode,
    ) -> bool {
        false
    }

    /// Post-commit step of a sub-HTM group; `validate` says whether an
    /// in-flight validation is due. False aborts the global transaction.
    fn seal(&mut self, _th: &mut TmThread<'_>, _s: &mut TxState, _validate: bool) -> bool {
        true
    }

    /// A writer's last check before its global commit. False aborts it.
    fn commit_validation(&mut self, _th: &mut TmThread<'_>, _s: &mut TxState) -> bool {
        true
    }

    /// The write set a global commit publishes to the ring.
    fn written<'a>(&'a self, s: &'a TxState) -> &'a Sig;

    /// Release this transaction's write locks: at a writer's global commit
    /// (`committed`), or at a global abort after the undo log has restored
    /// the old values.
    fn release(&mut self, th: &TmThread<'_>, s: &TxState, committed: bool);

    /// Forget the global transaction's protocol state.
    fn clear(&mut self);
}

/// Outcome of one planned sub-HTM group on the partitioned path.
enum GroupRun {
    /// The group committed as one sub-HTM transaction after `work` units of
    /// body work (its segments, without the commit-phase instrumentation).
    Committed {
        /// [`htm_sim::HtmTx::work_used`] over the group's segments.
        work: u64,
    },
    /// A merged (multi-segment) group died of a capacity-class abort; the
    /// caller re-runs it as single declared segments (the planner's un-merge
    /// rule — retrying a too-big group as-is would be futile).
    Split,
    /// The enclosing global transaction must abort. `capacity` is true when
    /// the terminal abort was capacity-class (capacity/interrupt or an
    /// overflowing undo log), which feeds the controller's sub-path profile.
    Fail {
        /// Terminal abort was capacity-class.
        capacity: bool,
    },
}

/// Is this abort the class that splitting can cure (HTM resource exhaustion
/// or an overflowing undo log), as opposed to a data or lock conflict?
#[inline]
fn capacity_class(code: AbortCode) -> bool {
    code.is_resource_failure() || matches!(code, AbortCode::Explicit(XABORT_UNDO_FULL))
}

/// Randomised backoff on a sub-HTM retry edge. After a data conflict
/// ([`AbortCode::Conflict`]) it waits a delay drawn uniformly from
/// `[0, backoff_units << attempts)` work units with the thread's seeded RNG:
/// two cores running equal-length groups collide in their commit phases
/// (validation and lock acquisition touch the same `write_locks` line), and a
/// loser that retried at once would end in phase with the winner's next group
/// and collide again. The delay is charged to the virtual clock when attached
/// and spun otherwise. Every other abort retries after a plain yield.
fn sub_retry_backoff(th: &mut TmThread<'_>, code: AbortCode, attempts: u32) {
    if code == AbortCode::Conflict {
        let span = th.rt.config().backoff_units << attempts.min(16);
        let delay = th.rng.gen_range(0..span.max(1));
        if vclock::is_attached() {
            vclock::charge(delay);
        } else {
            spin_work(delay);
        }
    }
    vclock::yield_now();
}

/// The partitioned-path executor under protocol `P`: [`crate::PartHtm`] and
/// [`crate::PartHtmO`].
pub struct Partitioned<'r, P: Protocol> {
    th: TmThread<'r>,
    s: TxState,
    p: P,
    /// The fast-path routing profile: the *single* decision point for
    /// skip-fast (config override, static hint, learned demotion, legacy
    /// resource streak; see [`FastProfile`]).
    profile: FastProfile,
    /// Reusable segment-plan buffer ([`build_plan`] output; no allocation
    /// after warm-up).
    plan: Vec<PlanStep>,
}

impl<P: Protocol> Partitioned<'_, P> {
    /// Try the whole transaction as one hardware transaction (§5.2). The quiet
    /// variant ([`try_pure_htm`]) always goes first: its in-transaction
    /// `active_tx` subscription decides whether partitioned-path transactions
    /// are active, so no pre-begin read of the counter is needed. Otherwise
    /// the body runs instrumented and writers publish to the ring.
    fn try_fast<W: Workload>(&mut self, w: &mut W) -> Result<(), AbortCode> {
        match try_pure_htm(&mut self.th, w, true) {
            Err(AbortCode::Explicit(XABORT_NOT_QUIET)) => {} // re-run instrumented
            other => return other,
        }
        let rt = self.th.rt;
        w.reset();
        self.s.rmir.clear();
        self.s.wmir.clear();
        let mut tx = self.th.hw.begin();
        let body = Self::instrumented_body(&mut tx, rt, &mut self.s, w);
        // An announced publish (body reached Ok with a non-empty shard mask) must
        // be completed or cancelled depending on how the hardware commit resolves.
        let (pub_mask, pub_times) = *body.as_ref().unwrap_or(&(0, ShardTimes::new()));
        match resolve(tx, body) {
            Ok(_) => {
                if pub_mask != 0 {
                    rt.sharded_ring().complete_publish(
                        &self.s.wmir,
                        pub_mask,
                        &pub_times,
                        rt.summaries(),
                    );
                    self.th.stats.record_shard_publish(pub_mask);
                }
                // Post-commit software: clear local signatures (Fig. 1 lines 14–15).
                // The mirrors are the authoritative copies; the heap copies are
                // capacity ballast and need no clearing.
                self.s.rmir.clear();
                self.s.wmir.clear();
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

    /// The instrumented fast-path body (Fig. 1 lines 1–11): the `GLock`
    /// subscription, the protocol's instrumented segments, then a writer's
    /// publish to the ring shards its write signature touches, announced to
    /// the touched shard summaries as the last body step. Returns the
    /// announced publish's shard mask and per-shard commit timestamps (mask 0
    /// = nothing announced).
    fn instrumented_body<W: Workload>(
        tx: &mut HtmTx<'_, '_>,
        rt: &TmRuntime,
        s: &mut TxState,
        w: &mut W,
    ) -> TxResult<(u32, ShardTimes)> {
        subscribe(tx, rt.glock(), XABORT_GLOCK)?;
        let mut wrote = false;
        P::fast_body(tx, rt, s, w, &mut wrote)?;
        if !wrote {
            return Ok((0, ShardTimes::new()));
        }
        rt.sharded_ring()
            .publish_tx_summarized(tx, &s.wmir, rt.summaries())
    }

    #[inline]
    fn dec_active(&self) {
        self.th
            .hw
            .system()
            .nt_fetch_sub_by(self.th.hw.id(), self.th.rt.active_tx(), 1);
    }

    /// Release local metadata and leave the partitioned path (common tail of
    /// global commit and global abort).
    fn cleanup_partitioned(&mut self) {
        self.s.rmir.clear();
        self.s.wmir.clear();
        self.p.clear();
        self.s.undo.clear();
        self.dec_active();
    }

    /// Abort the global transaction (Fig. 1 lines 53–58, Fig. 2 lines 60–65):
    /// restore old values from the undo log (newest first), release the write
    /// locks, clear metadata.
    fn global_abort(&mut self) {
        self.th.stats.global_aborts += 1;
        self.s.undo.undo_nt(&self.th.hw);
        self.p.release(&self.th, &self.s, false);
        self.cleanup_partitioned();
    }

    /// Run the declared segments `segs` as *one* sub-HTM transaction with
    /// bounded retries (§5.3.3–5.3.5). `segs` comes from the segment plan: a
    /// single declared segment under the static oracle, up to the site's
    /// learned merge factor under the adaptive planner. A multi-segment group
    /// that dies of a capacity-class abort is not retried — it reports
    /// [`GroupRun::Split`] so the caller re-runs it as single segments.
    fn run_group<W: Workload>(
        &mut self,
        w: &mut W,
        segs: Range<usize>,
        wrote: &mut bool,
        budget: u32,
    ) -> GroupRun {
        let rt = self.th.rt;
        let snap = w.snapshot();
        let undo_mark = self.s.undo.len();
        let mark = self.p.mark();
        let mut attempts = 0u32;
        loop {
            // Zero-clone retries: each attempt journals the mirror words it dirties
            // instead of saving full signature clones up front.
            self.s.journal.begin(self.s.rmir.spec());
            let mut tx = self.th.hw.begin();
            let body = self
                .p
                .sub_body(&mut tx, rt, &mut self.s, w, segs.clone(), wrote);
            let code = match resolve(tx, body) {
                Ok(work) => {
                    self.s.journal.discard();
                    return GroupRun::Committed { work };
                }
                Err(code) => code,
            };
            self.th.stats.sub_aborts += 1;
            // The failed attempt's hardware writes never published; roll the
            // software cursors back to the group entry.
            self.s.undo.truncate(undo_mark);
            self.p.truncate(mark);
            self.s.journal.rollback(&mut self.s.rmir, &mut self.s.wmir);
            self.th.stats.journal_rollbacks += 1;
            w.restore(snap.clone());
            attempts += 1;
            let capacity = capacity_class(code);
            if capacity && segs.len() > 1 {
                return GroupRun::Split;
            }
            // A foreign write lock or an overflowing undo log propagates to the
            // global transaction (§5.3.5), as does a lost snapshot; other causes
            // retry the sub-HTM transaction a limited number of times.
            let give_up = match code {
                AbortCode::Explicit(XABORT_LOCKED | XABORT_UNDO_FULL) => true,
                _ => self.p.snapshot_lost(&mut self.th, &mut self.s, code),
            } || attempts >= budget;
            if give_up {
                if attempts >= budget && budget < rt.config().sub_retries {
                    self.th.stats.adaptive_retry_saves += (rt.config().sub_retries - budget) as u64;
                }
                return GroupRun::Fail { capacity };
            }
            sub_retry_backoff(&mut self.th, code, attempts);
        }
    }

    /// Post-commit tail of one sub-HTM group ([`Protocol::seal`]); `Err`
    /// means the global transaction aborted.
    fn seal(&mut self, validate: bool) -> Result<(), ()> {
        if self.p.seal(&mut self.th, &mut self.s, validate) {
            return Ok(());
        }
        self.global_abort();
        Err(())
    }

    /// Execute the transaction on the partitioned path (§5.3). `Err(())` means the
    /// global transaction aborted and the caller decides whether to retry.
    fn try_partitioned<W: Workload>(&mut self, w: &mut W) -> Result<(), ()> {
        let rt = self.th.rt;
        // Global begin (Fig. 1 lines 16–19): the active_tx/GLock handshake gives
        // mutual exclusion against the slow path.
        loop {
            wait_glock_released(&self.th);
            self.th.hw.nt_fetch_add(rt.active_tx(), 1);
            if self.th.hw.nt_read(rt.glock()) == 0 {
                break;
            }
            self.dec_active();
        }
        P::begin_window(&self.th, &mut self.s);
        self.s.rmir.clear();
        self.s.wmir.clear();
        self.s.undo.clear();
        w.reset();
        let mut wrote = false;

        // Build this transaction's segment plan: up to the site's learned
        // merge factor under the adaptive controller, the pinned static
        // `plan_group` otherwise (1 = exactly the declared segments).
        let cfg = rt.config();
        let adaptive = cfg.adaptive_plan;
        let slot = rt.sites().slot(w.site());
        let (group, sub_budget) = if adaptive {
            (slot.plan_group(), slot.sub_budget(cfg.sub_retries))
        } else {
            (cfg.plan_group.max(1), cfg.sub_retries)
        };
        let nseg = w.segments();
        let mut plan = std::mem::take(&mut self.plan);
        let max_run = build_plan(nseg, group, |s| w.software_segment(s), &mut plan);
        self.plan = plan;
        let last_htm_seg = (0..nseg).rev().find(|&s| !w.software_segment(s));
        let due = |seg: usize| cfg.validate_every_sub || Some(seg) == last_htm_seg;
        let mut split_tx = false;
        // Measured sub-HTM cost, fed to the site's quantum-aware decisions.
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
                // Non-transactional partition: run outside any hardware
                // transaction (§4, §5.3.1) — this is how time-limited transactions
                // escape the HTM quantum. Software segments are never merged.
                let mut ctx = SoftwareCtx {
                    th: &self.th.hw,
                    mask_values: P::MASK_VALUES,
                };
                w.segment(step.start, &mut ctx)
                    .expect("software segments cannot abort");
                continue;
            }
            // A merged group that exceeds this site's HTM budget splits: halve
            // the plan and re-run the group as the declared single segments,
            // sealing each exactly as the static plan would.
            let mut groups = step.start..step.end;
            let mut len = step.len();
            while let Some(first) = groups.next() {
                let segs = first..first + len;
                match self.run_group(w, segs.clone(), &mut wrote, sub_budget) {
                    GroupRun::Committed { work } => {
                        committed(len, work);
                        self.seal(due(segs.end - 1))?;
                        groups = segs.end..step.end;
                    }
                    GroupRun::Split => {
                        self.th.stats.plan_splits += 1;
                        split_tx = true;
                        if adaptive {
                            slot.record_capacity_split(len as u32);
                        }
                        groups = segs;
                        len = 1;
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
        }

        // Global commit (Fig. 1 lines 42–52, Fig. 2 lines 48–59). Read-only
        // transactions just leave.
        if wrote {
            if !self.p.commit_validation(&mut self.th, &mut self.s) {
                self.global_abort();
                return Err(());
            }
            let (pub_mask, _) = rt.sharded_ring().publish_software_summarized(
                &self.th.hw,
                self.p.written(&self.s),
                rt.summaries(),
            );
            self.th.stats.record_shard_publish(pub_mask);
            self.p.release(&self.th, &self.s, true);
            // Software commits are the cheap place to police summary density: no
            // hardware transaction is in flight here.
            let resets = rt
                .sharded_ring()
                .maybe_reset_summaries(&self.th.hw, rt.summaries());
            self.th.stats.record_summary_resets(&resets);
        }
        self.cleanup_partitioned();
        // Feed the controller: a commit with no capacity trouble earns merge
        // credit (up to the longest mergeable run this shape declares).
        if adaptive && !split_tx && slot.record_clean_commit(max_run, cost) == PlanChange::Merged {
            self.th.stats.plan_merges += 1;
        }
        Ok(())
    }

    /// The three-path driver: fast → partitioned on resource failure; fast →
    /// slow when conflicts persist; partitioned → slow after bounded global
    /// aborts, or as soon as the site is learned futile. A futile site skips
    /// both speculative paths outside its probe ticks.
    fn drive<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        let cfg = self.th.rt.config().clone();
        if w.is_irrevocable() {
            return commit_global_lock(&mut self.th, w, P::MASK_VALUES);
        }
        // The single routing decision (config override, static hint, learned
        // demotion or futility, legacy streak — see `planner::FastProfile`).
        // The controller's paper anchor: the static profiler routes "likely
        // (or certainly) failing" transactions straight to the partitioned
        // path (§4); here that verdict is learned from observed abort codes.
        let slot = self.th.rt.sites().slot(w.site());
        let prior = w.profiled_resource_limited();
        let route = self.profile.route(&cfg, slot, prior, &mut self.th.stats);
        if route == FastRoute::Serialize {
            return commit_global_lock(&mut self.th, w, P::MASK_VALUES);
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
                        // Capacity or timer: this is the class Part-HTM exists
                        // for — partition it.
                        self.profile
                            .note_exit(&cfg, slot, prior, FastExit::Resource);
                        self.th.stats.fallbacks_partitioned += 1;
                        break;
                    }
                    Err(code) => {
                        fails += fast_abort_charge(&mut self.th, attempt, code);
                        if fails >= budget {
                            // Persistent conflicts: the paper routes these to the
                            // exit path, not to partitioning (§4 "Three-paths
                            // Execution").
                            self.profile
                                .note_exit(&cfg, slot, prior, FastExit::Exhausted);
                            if budget < cfg.fast_retries {
                                self.th.stats.adaptive_retry_saves +=
                                    (cfg.fast_retries - budget) as u64;
                            }
                            return commit_global_lock(&mut self.th, w, P::MASK_VALUES);
                        }
                        wait_glock_released(&self.th);
                    }
                }
            }
        }
        let mut gfails = 0;
        loop {
            if self.try_partitioned(w).is_ok() {
                w.after_commit();
                self.th.stats.record_commit(CommitPath::SubHtm);
                return CommitPath::SubHtm;
            }
            gfails += 1;
            // A site learned futile mid-loop stops here: its single segments
            // do not fit, so more global retries cannot help.
            let futile = cfg.adaptive_plan && slot.futile();
            if gfails >= cfg.part_retries || futile {
                self.th.stats.adaptive_retry_saves +=
                    u64::from(cfg.part_retries.saturating_sub(gfails));
                return commit_global_lock(&mut self.th, w, P::MASK_VALUES);
            }
            // Exponential backoff (Fig. 1 line 59).
            spin_work(cfg.backoff_units << gfails.min(6));
            vclock::yield_now();
        }
    }
}

impl<P: Protocol> Drop for Partitioned<'_, P> {
    /// Return the signature mirrors and the journal to this thread's
    /// [`SigArena`] so the next executor on the thread starts warm. The
    /// placeholders are single-word inline signatures — allocation-free.
    fn drop(&mut self) {
        let empty = Sig::new(SigSpec::new(64));
        let rmir = std::mem::replace(&mut self.s.rmir, empty.clone());
        let wmir = std::mem::replace(&mut self.s.wmir, empty);
        let journal = std::mem::take(&mut self.s.journal);
        SigArena::with(|a| {
            a.recycle_sig(rmir);
            a.recycle_sig(wmir);
            self.p.recycle(a);
            a.recycle_journal(journal);
        });
    }
}

impl<'r, P: Protocol> TmExecutor<'r> for Partitioned<'r, P> {
    const NAME: &'static str = P::NAME;

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        let th = TmThread::new(rt, thread_id);
        let arena = rt.arena(thread_id);
        let spec = rt.config().sig_spec;
        let (rmir, wmir, p, journal) = SigArena::with(|a| {
            (
                a.take_sig(spec),
                a.take_sig(spec),
                P::take(a, spec),
                a.take_journal(),
            )
        });
        let s = TxState {
            undo: UndoLog::new(arena.undo_base, arena.undo_words),
            arena,
            rmir,
            wmir,
            journal,
            times: ShardTimes::new(),
        };
        Self {
            th,
            s,
            p,
            profile: FastProfile::default(),
            plan: Vec::new(),
        }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.drive(w)
    }

    /// Shed: commit under the global lock with no speculative attempt. Under
    /// overload the fast/partitioned retries (backoff, glock waits) are what
    /// convoy the ring shards; a shed request takes the serialized path once
    /// and leaves.
    fn execute_shed<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.th.stats.shed_commits += 1;
        commit_on_lock(&mut self.th, w, P::MASK_VALUES)
    }

    fn thread(&self) -> &TmThread<'r> {
        &self.th
    }

    fn thread_mut(&mut self) -> &mut TmThread<'r> {
        &mut self.th
    }
}
