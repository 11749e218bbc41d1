//! The Part-HTM executor: three-path transaction processing (Fig. 1 of the paper).

use crate::api::{
    spin_work, CommitPath, TmExecutor, Workload, XABORT_GLOCK, XABORT_LOCKED, XABORT_NOT_QUIET,
    XABORT_UNDO_FULL,
};
use crate::ctx::{
    acquire_locks_tx, fast_validation, sub_validation, FastCtx, RawCtx, SigPair, SlowCtx,
    SoftwareCtx, SubCtx,
};
use crate::planner::{build_plan, FastExit, FastProfile, FastRoute, PlanChange, PlanStep};
use crate::runtime::{ThreadArena, TmRuntime, TmThread};
use crate::undo::UndoLog;
use htm_sim::abort::TxResult;
use htm_sim::{vclock, AbortCode};
use rand::Rng;
use tm_sig::{ShardTimes, Sig, SigArena, SigJournal, SigSpec};

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
    for seg in 0..w.segments() {
        w.segment(seg, &mut ctx)
            .expect("slow-path operations cannot abort");
    }
    th.hw.nt_write(rt.glock(), 0);
}

/// An executor's exit to the slow path: count the fallback, commit `w` under
/// the global lock ([`run_global_lock`]) and record the commit.
pub(crate) fn commit_global_lock<W: Workload>(
    th: &mut TmThread<'_>,
    w: &mut W,
    mask_values: bool,
) -> CommitPath {
    th.stats.fallbacks_gl += 1;
    run_global_lock(th, w, mask_values);
    w.after_commit();
    th.stats.record_commit(CommitPath::GlobalLock);
    CommitPath::GlobalLock
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

/// Quiet fast path, shared by Part-HTM and Part-HTM-O: the whole transaction
/// as pure HTM plus two in-transaction subscriptions, `GLock` and `active_tx`.
/// Every fast-path attempt tries it first; a non-zero `active_tx` aborts it
/// with [`XABORT_NOT_QUIET`] and the caller re-runs instrumented. Sound because
/// the protocol state the instrumentation coordinates with — Part-HTM's write
/// locks and ring, Part-HTM-O's embedded lock bits — is only held or consulted
/// while `active_tx > 0` (release precedes the decrement), and any change to
/// either subscribed word dooms this hardware transaction.
pub(crate) fn try_fast_quiet<W: Workload>(
    th: &mut TmThread<'_>,
    w: &mut W,
) -> Result<(), AbortCode> {
    w.reset();
    let rt = th.rt;
    let mut tx = th.hw.begin();
    let body: TxResult<()> = 'b: {
        match tx.read(rt.glock()) {
            Ok(0) => {}
            Ok(_) => break 'b Err(tx.xabort(XABORT_GLOCK)),
            Err(e) => break 'b Err(e),
        }
        match tx.read(rt.active_tx()) {
            Ok(0) => {}
            Ok(_) => break 'b Err(tx.xabort(XABORT_NOT_QUIET)),
            Err(e) => break 'b Err(e),
        }
        let mut ctx = RawCtx { tx: &mut tx };
        for seg in 0..w.segments() {
            if let Err(e) = w.segment(seg, &mut ctx) {
                break 'b Err(e);
            }
        }
        Ok(())
    };
    let res = match body {
        Ok(()) => tx.commit(),
        Err(code) => {
            drop(tx);
            Err(code)
        }
    };
    if res.is_err() {
        th.stats.fast_aborts += 1;
    }
    res
}

/// Randomised backoff on a sub-HTM retry edge, shared by Part-HTM and
/// Part-HTM-O. After a data conflict ([`AbortCode::Conflict`]) it waits a
/// delay drawn uniformly from `[0, backoff_units << attempts)` work units with
/// the thread's seeded RNG: two cores running equal-length groups collide in
/// their commit phases (validation and lock acquisition touch the same
/// `write_locks` line), and a loser that retried at once would end in phase
/// with the winner's next group and collide again. The delay is charged to
/// the virtual clock when attached and spun otherwise. Every other abort
/// retries after a plain yield, as before.
pub(crate) fn sub_retry_backoff(th: &mut TmThread<'_>, code: AbortCode, attempts: u32) {
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

/// Outcome of one planned sub-HTM group on the partitioned path.
pub(crate) enum GroupRun {
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
pub(crate) fn capacity_class(code: AbortCode) -> bool {
    code.is_resource_failure() || matches!(code, AbortCode::Explicit(XABORT_UNDO_FULL))
}

/// The Part-HTM protocol (serializable variant, Fig. 1).
pub struct PartHtm<'r> {
    th: TmThread<'r>,
    arena: ThreadArena,
    undo: UndoLog,
    /// Software mirror of the read-set signature (kept exactly equal to the heap
    /// copy: signature adds are write-only stores of the mirror word).
    rmir: Sig,
    /// Software mirror of the current sub-HTM write-set signature (kept exact).
    wmir: Sig,
    /// Software mirror of the aggregate write-set signature (kept exact).
    amir: Sig,
    /// Per-segment signature undo journal (zero-clone sub-HTM retries): records the
    /// mirrors' dirtied words so a failed segment rolls back by replaying a handful
    /// of words instead of restoring full clones. Lives on the executor so its
    /// storage is reused across segments and transactions — no allocation after
    /// warm-up.
    journal: SigJournal,
    /// Per-shard validation window: slot `s` holds the newest commit of ring
    /// shard `s` this transaction's reads are known consistent against.
    times: ShardTimes,
    /// The fast-path routing profile: the *single* decision point for
    /// skip-fast (config override, static hint, learned demotion, legacy
    /// resource streak), shared with [`crate::PartHtmO`] via
    /// [`crate::planner::FastProfile`].
    profile: FastProfile,
    /// Reusable segment-plan buffer ([`build_plan`] output; no allocation
    /// after warm-up).
    plan: Vec<PlanStep>,
}

impl<'r> PartHtm<'r> {
    /// Try the whole transaction as one lightly instrumented hardware transaction
    /// (§5.2). The quiet variant ([`try_fast_quiet`]) always goes first: its
    /// in-transaction `active_tx` subscription decides whether partitioned-path
    /// transactions are active, so no pre-begin read of the counter is needed.
    fn try_fast<W: Workload>(&mut self, w: &mut W) -> Result<(), AbortCode> {
        match try_fast_quiet(&mut self.th, w) {
            Err(AbortCode::Explicit(XABORT_NOT_QUIET)) => {} // re-run instrumented
            other => return other,
        }
        let rt = self.th.rt;
        w.reset();
        self.rmir.clear();
        self.wmir.clear();
        let a = self.arena;
        let mut wrote = false;

        let mut tx = self.th.hw.begin();
        // Body result: the announced publish's shard mask and per-shard commit
        // timestamps (mask 0 = nothing announced).
        let body: TxResult<(u32, ShardTimes)> = 'b: {
            // Begin: subscribe the global lock (Fig. 1 lines 1–2).
            match tx.read(rt.glock()) {
                Ok(0) => {}
                Ok(_) => break 'b Err(tx.xabort(XABORT_GLOCK)),
                Err(e) => break 'b Err(e),
            }
            {
                let mut ctx = FastCtx {
                    tx: &mut tx,
                    rsig: SigPair {
                        heap: a.read_sig,
                        mirror: &mut self.rmir,
                    },
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
            // Pre-commit validation against non-visible locations (Fig. 1
            // lines 7–8).
            match fast_validation(&mut tx, rt.write_locks(), &self.rmir, &self.wmir) {
                Ok(false) => {}
                Ok(true) => break 'b Err(tx.xabort(XABORT_LOCKED)),
                Err(e) => break 'b Err(e),
            }
            // Writers publish their write signature to the shards it touches
            // (Fig. 1 lines 9–11), announcing the publish to the touched shard
            // summaries as the last body step.
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
        // An announced publish (body reached Ok with a non-empty shard mask) must
        // be completed or cancelled depending on how the hardware commit resolves.
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
                // Post-commit software: clear local signatures (Fig. 1 lines 14–15).
                // The mirrors are the authoritative copies; the heap copies are
                // capacity ballast and need no clearing.
                self.rmir.clear();
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

    /// Release local metadata and leave the partitioned path (common tail of global
    /// commit and global abort).
    fn cleanup_partitioned(&mut self) {
        self.rmir.clear();
        self.wmir.clear();
        self.amir.clear();
        self.undo.clear();
        self.dec_active();
    }

    /// Abort the global transaction (Fig. 1 lines 53–58): restore old values from
    /// the undo-log (newest first), release write locks, clear metadata.
    fn global_abort(&mut self) {
        self.th.stats.global_aborts += 1;
        self.undo.undo_nt(&self.th.hw);
        // An in-flight validation failure arrives here after the offending
        // sub-transaction committed (and acquired locks for its writes) but
        // before its write signature was folded into the aggregate; fold it
        // now so the release also covers the last sub's locks. On the
        // sub-failure path the journal already rolled `wmir` back to its
        // (empty) segment-entry state, so the fold is a no-op there.
        self.amir.union_with(&self.wmir);
        self.th.rt.write_locks().and_not_nt(&self.th.hw, &self.amir);
        self.cleanup_partitioned();
    }

    /// Run the declared segments `start..end` as *one* sub-HTM transaction
    /// with bounded retries (§5.3.3–5.3.5). `start..end` comes from the
    /// segment plan: a single declared segment under the static oracle, up to
    /// the site's learned merge factor under the adaptive planner. A
    /// multi-segment group that dies of a capacity-class abort is not
    /// retried — it reports [`GroupRun::Split`] so the caller re-runs it as
    /// single segments.
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
        let mut attempts = 0u32;
        loop {
            // Zero-clone retries: each attempt journals the mirror words it dirties
            // instead of saving full signature clones up front.
            self.journal.begin(self.rmir.spec());
            let mut tx = self.th.hw.begin();
            let body: TxResult<u64> = 'b: {
                {
                    let mut ctx = SubCtx {
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
                        journal: &mut self.journal,
                        wrote,
                    };
                    for seg in start..end {
                        if let Err(e) = w.segment(seg, &mut ctx) {
                            break 'b Err(e);
                        }
                    }
                }
                let work = tx.work_used();
                // Pre-commit validation, own locks masked out (Fig. 1 lines 26–28).
                match sub_validation(
                    &mut tx,
                    rt.write_locks(),
                    &self.amir,
                    &self.rmir,
                    &self.wmir,
                ) {
                    Ok(false) => {}
                    Ok(true) => break 'b Err(tx.xabort(XABORT_LOCKED)),
                    Err(e) => break 'b Err(e),
                }
                // Acquire write locks for the just-written locations (Fig. 1 line 29).
                if let Err(e) = acquire_locks_tx(&mut tx, rt.write_locks(), &self.wmir) {
                    break 'b Err(e);
                }
                Ok(work)
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
                    // The failed attempt's hardware writes never published; roll the
                    // software cursors back to the group entry.
                    self.undo.truncate(undo_mark);
                    self.journal.rollback(&mut self.rmir, &mut self.wmir);
                    self.th.stats.journal_rollbacks += 1;
                    w.restore(snap.clone());
                    attempts += 1;
                    let capacity = capacity_class(code);
                    if capacity && end - start > 1 {
                        return GroupRun::Split;
                    }
                    // A conflict on the global write-locks (or an overflowing undo
                    // log) propagates to the global transaction (§5.3.5); other
                    // causes retry the sub-HTM transaction a limited number of times.
                    let give_up = match code {
                        AbortCode::Explicit(x) => x == XABORT_LOCKED || x == XABORT_UNDO_FULL,
                        _ => false,
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

    /// Post-commit tail of one sub-HTM group: the in-flight validation (when
    /// due) and the fold of the group's writes into the aggregate signature
    /// (Fig. 1 lines 32–33). `Err` means the validation failed and the global
    /// transaction aborted.
    fn seal_group(&mut self, validate: bool) -> Result<(), ()> {
        let rt = self.th.rt;
        if validate {
            // In-flight validation after a sub-HTM commit (§5.3.6). Part-HTM
            // keeps begin-time windows and never subscribes shard timestamps,
            // so the cheap non-advancing validator applies: a clean probe of
            // each touched shard's summary decides the common no-conflict case
            // without touching simulated memory, and only a doubtful shard is
            // walked precisely (advancing its window).
            let v = rt.sharded_ring().validate_touched_nt(
                &self.th.hw,
                rt.summaries(),
                &self.rmir,
                &mut self.times,
            );
            self.th.stats.record_sharded_validation(&v);
            if v.result.is_err() {
                self.global_abort();
                return Err(());
            }
        }
        self.amir.union_with(&self.wmir);
        self.wmir.clear();
        Ok(())
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
        // Begin windows from the fold watermarks: host atomics only, no
        // simulated timestamp reads. Part-HTM never compares these against the
        // live shard timestamps (unlike Part-HTM-O's subscription), so a
        // lagging watermark just means a slightly wider validation window.
        rt.summaries().watermark_times(&mut self.times);
        self.rmir.clear();
        self.wmir.clear();
        self.amir.clear();
        self.undo.clear();
        w.reset();
        let mut wrote = false;

        // Build this transaction's segment plan: up to the site's learned
        // merge factor under the adaptive controller, the pinned static
        // `plan_group` otherwise (1 = exactly the declared segments).
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
        let nseg = w.segments();
        let mut plan = std::mem::take(&mut self.plan);
        let max_run = build_plan(nseg, group, |s| w.software_segment(s), &mut plan);
        self.plan = plan;
        let last_htm_seg = (0..nseg).rev().find(|&s| !w.software_segment(s));
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
                    mask_values: false,
                };
                w.segment(step.start, &mut ctx)
                    .expect("software segments cannot abort");
                continue;
            }
            let due =
                |seg: usize| cfg.validate_every_sub || Some(seg) == last_htm_seg;
            match self.run_group(w, step.start, step.end, &mut wrote, sub_budget) {
                GroupRun::Committed { work } => {
                    committed(step.len(), work);
                    self.seal_group(due(step.end - 1))?;
                }
                GroupRun::Split => {
                    // The merged group exceeds this site's HTM budget: halve
                    // the plan and re-run the group as the declared single
                    // segments, sealing each exactly as the static plan would.
                    self.th.stats.plan_splits += 1;
                    split_tx = true;
                    if adaptive {
                        slot.record_capacity_split(step.len() as u32);
                    }
                    for seg in step.start..step.end {
                        match self.run_group(w, seg, seg + 1, &mut wrote, sub_budget) {
                            GroupRun::Committed { work } => {
                                committed(1, work);
                                self.seal_group(due(seg))?;
                            }
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

        // Global commit (Fig. 1 lines 42–52). Read-only transactions just leave.
        if wrote {
            let (pub_mask, _) = rt.sharded_ring().publish_software_summarized(
                &self.th.hw,
                &self.amir,
                rt.summaries(),
            );
            self.th.stats.record_shard_publish(pub_mask);
            rt.write_locks().and_not_nt(&self.th.hw, &self.amir);
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
    fn drive<W: Workload>(
        &mut self,
        w: &mut W,
        fast: fn(&mut Self, &mut W) -> Result<(), AbortCode>,
        partitioned: fn(&mut Self, &mut W) -> Result<(), ()>,
        mask_values: bool,
    ) -> CommitPath {
        let cfg = self.th.rt.config().clone();
        if w.is_irrevocable() {
            return commit_global_lock(&mut self.th, w, mask_values);
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
            return commit_global_lock(&mut self.th, w, mask_values);
        }
        if let FastRoute::Attempt { budget } = route {
            let mut fails = 0;
            for attempt in 0.. {
                match fast(self, w) {
                    Ok(()) => {
                        self.profile.note_exit(&cfg, slot, prior, FastExit::Commit);
                        w.after_commit();
                        self.th.stats.record_commit(CommitPath::Htm);
                        return CommitPath::Htm;
                    }
                    Err(code) if code.is_resource_failure() => {
                        // Capacity or timer: this is the class Part-HTM exists
                        // for — partition it.
                        self.profile.note_exit(&cfg, slot, prior, FastExit::Resource);
                        self.th.stats.fallbacks_partitioned += 1;
                        break;
                    }
                    Err(code) => {
                        fails += fast_abort_charge(&mut self.th, attempt, code);
                        if fails >= budget {
                            // Persistent conflicts: the paper routes these to the
                            // exit path, not to partitioning (§4 "Three-paths
                            // Execution").
                            self.profile.note_exit(&cfg, slot, prior, FastExit::Exhausted);
                            if budget < cfg.fast_retries {
                                self.th.stats.adaptive_retry_saves +=
                                    (cfg.fast_retries - budget) as u64;
                            }
                            return commit_global_lock(&mut self.th, w, mask_values);
                        }
                        wait_glock_released(&self.th);
                    }
                }
            }
        }
        let mut gfails = 0;
        loop {
            match partitioned(self, w) {
                Ok(()) => {
                    w.after_commit();
                    self.th.stats.record_commit(CommitPath::SubHtm);
                    return CommitPath::SubHtm;
                }
                Err(()) => {
                    gfails += 1;
                    // A site learned futile mid-loop stops here: its single
                    // segments do not fit, so more global retries cannot help.
                    let futile = cfg.adaptive_plan && slot.futile();
                    if gfails >= cfg.part_retries || futile {
                        self.th.stats.adaptive_retry_saves +=
                            u64::from(cfg.part_retries.saturating_sub(gfails));
                        return commit_global_lock(&mut self.th, w, mask_values);
                    }
                    // Exponential backoff (Fig. 1 line 59).
                    spin_work(cfg.backoff_units << gfails.min(6));
                    htm_sim::vclock::yield_now();
                }
            }
        }
    }

    pub(crate) fn new_inner(rt: &'r TmRuntime, id: usize) -> Self {
        let th = TmThread::new(rt, id);
        let arena = rt.arena(id);
        let spec = rt.config().sig_spec;
        let (rmir, wmir, amir, journal) = SigArena::with(|a| {
            (
                a.take_sig(spec),
                a.take_sig(spec),
                a.take_sig(spec),
                a.take_journal(),
            )
        });
        Self {
            undo: UndoLog::new(arena.undo_base, arena.undo_words),
            arena,
            rmir,
            wmir,
            amir,
            journal,
            times: ShardTimes::new(),
            profile: FastProfile::default(),
            plan: Vec::new(),
            th,
        }
    }
}

impl Drop for PartHtm<'_> {
    /// Return the signature mirrors and the journal to this thread's
    /// [`SigArena`] so the next executor on the thread starts warm. The
    /// placeholders are single-word inline signatures — allocation-free.
    fn drop(&mut self) {
        let empty = Sig::new(SigSpec::new(64));
        let rmir = std::mem::replace(&mut self.rmir, empty.clone());
        let wmir = std::mem::replace(&mut self.wmir, empty.clone());
        let amir = std::mem::replace(&mut self.amir, empty);
        let journal = std::mem::take(&mut self.journal);
        SigArena::with(|a| {
            a.recycle_sig(rmir);
            a.recycle_sig(wmir);
            a.recycle_sig(amir);
            a.recycle_journal(journal);
        });
    }
}

impl<'r> TmExecutor<'r> for PartHtm<'r> {
    const NAME: &'static str = "Part-HTM";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self::new_inner(rt, thread_id)
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.drive(w, Self::try_fast, Self::try_partitioned, false)
    }

    /// Shed: commit under the global lock with no speculative attempt. Under
    /// overload the fast/partitioned retries (backoff, glock waits) are what
    /// convoy the ring shards; a shed request takes the serialized path once
    /// and leaves.
    fn execute_shed<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.th.stats.shed_commits += 1;
        run_global_lock(&self.th, w, false);
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
    use crate::api::TxCtx;
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
