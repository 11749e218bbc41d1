//! Protocol-edge tests for Part-HTM / Part-HTM-O: path accounting, undo ordering,
//! retry exhaustion, slow-path mutual exclusion, lock hygiene, fast-path entry
//! cost, desynchronised sub-HTM conflict retries.

use htm_sim::abort::TxResult;
use htm_sim::vclock::{self, SchedSpec, VClock};
use htm_sim::{Addr, HtmConfig};
use part_htm_core::planner::PROBE_PERIOD;
use part_htm_core::{
    CommitPath, PartHtm, PartHtmO, TmConfig, TmExecutor, TmRuntime, TmStats, TxCtx, Workload,
    LOCK_BIT,
};
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

/// Mid-size geometry where a 96-line transaction overflows but 12-line segments fit.
fn mid_htm() -> HtmConfig {
    HtmConfig { l1_sets: 16, l1_ways: 4, quantum: 100_000, ..HtmConfig::default() }
}

#[test]
fn fallback_counters_are_consistent() {
    let rt = TmRuntime::new(mid_htm(), TmConfig::default(), 1, 2048);
    let mut e = PartHtm::new(&rt, 0);
    let mut w = Incr { n: 96, segs: 8, base: rt.app(0) };
    for _ in 0..10 {
        e.execute(&mut w);
    }
    let s = &e.thread().stats;
    assert_eq!(s.commits_total(), 10);
    assert_eq!(s.commits_subhtm, 10);
    // Each transaction either probed the fast path (a resource-failure fallback) or
    // skipped it adaptively; fallbacks never exceed transactions.
    assert!(s.fallbacks_partitioned >= 1);
    assert!(s.fallbacks_partitioned <= 10);
    assert_eq!(s.fallbacks_gl, 0);
}

#[test]
fn undo_restores_across_multiple_subs_on_global_abort() {
    // Two writers ping-pong over the same region with sub-transactions small enough
    // to commit; in-flight validation forces global aborts whose undo must restore
    // the exact pre-transaction state. The conserved total proves every abort
    // rolled back completely.
    let rt = TmRuntime::new(mid_htm(), TmConfig { skip_fast: true, ..Default::default() }, 2, 2048);
    for i in 0..32 {
        rt.setup_write(i * 8, 100);
    }
    std::thread::scope(|s| {
        for t in 0..2 {
            let rt = &rt;
            s.spawn(move || {
                let mut e = PartHtm::new(rt, t);
                // Both threads increment the same 32 counters in 4 segments.
                let mut w = Incr { n: 32, segs: 4, base: rt.app(0) };
                for _ in 0..40 {
                    e.execute(&mut w);
                }
            });
        }
    });
    for i in 0..32 {
        assert_eq!(rt.verify_read(i * 8), 100 + 80, "counter {i}");
    }
    // All metadata released.
    let th = part_htm_core::TmThread::new(&rt, 0);
    assert!(rt.write_locks().snapshot_nt(&th.hw).is_empty());
    assert_eq!(rt.system().nt_read(rt.active_tx()), 0);
}

#[test]
fn part_retries_exhaustion_lands_on_global_lock_exactly_once() {
    // A segment that can never fit in hardware (bigger than total L1) exhausts
    // sub-retries, then part-retries, then commits under the lock — once.
    let htm = HtmConfig { l1_sets: 4, l1_ways: 2, quantum: 100_000, ..HtmConfig::default() };
    let rt = TmRuntime::new(htm, TmConfig::default(), 1, 2048);
    let mut e = PartHtm::new(&rt, 0);
    let mut w = Incr { n: 64, segs: 2, base: rt.app(0) };
    assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
    let s = &e.thread().stats;
    assert_eq!(s.commits_gl, 1);
    assert_eq!(s.fallbacks_gl, 1);
    assert!(s.sub_aborts >= rt.config().sub_retries as u64);
    assert!(s.global_aborts >= rt.config().part_retries as u64);
    for i in 0..64 {
        assert_eq!(rt.verify_read(i * 8), 1);
    }
    assert_eq!(rt.system().nt_read(rt.glock()), 0, "lock released");
}

/// A single declared segment bigger than the whole L1 can only commit under
/// the global lock. The first transaction still pays the full partitioned
/// retry loop (and teaches the site futility); later ones go straight to the
/// lock with no HTM begin, except on the planner's probe ticks, where one
/// fast and one partitioned attempt re-check the verdict.
fn learned_futility_serializes<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime) {
    let cfg = rt.config();
    let mut e = E::new(rt, 0);
    let mut w = Incr { n: 64, segs: 1, base: rt.app(0) };
    assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
    let s = &e.thread().stats;
    assert!(s.sub_aborts >= cfg.sub_retries as u64);
    assert_eq!(s.global_aborts, cfg.part_retries as u64, "first tx pays part_retries");
    let txs = 2 * PROBE_PERIOD;
    for tick in 1..txs {
        let (begins, gaborts) = (e.thread().hw.stats.begins, e.thread().stats.global_aborts);
        assert_eq!(e.execute(&mut w), CommitPath::GlobalLock, "tick {tick}");
        let begun = e.thread().hw.stats.begins - begins;
        let gaborted = e.thread().stats.global_aborts - gaborts;
        if tick % PROBE_PERIOD == 0 {
            assert!(begun > 0, "probe tick {tick} skipped the speculative paths");
            assert_eq!(gaborted, 1, "probe tick {tick}: futile site retried partitioned");
        } else {
            assert_eq!(begun, 0, "tick {tick} began an HTM transaction");
        }
    }
    let s = &e.thread().stats;
    assert_eq!(s.commits_gl, txs);
    assert_eq!(s.fallbacks_gl, txs);
    assert_eq!(s.site_demotions, txs - 2, "every non-probe tick serialized");
    for i in 0..64 {
        assert_eq!(rt.verify_read(i * 8), txs, "counter {i}");
    }
    assert_eq!(rt.system().nt_read(rt.glock()), 0, "lock released");
    assert_eq!(rt.system().nt_read(rt.active_tx()), 0, "active_tx drained");
}

#[test]
fn learned_futility_serializes_part_htm() {
    let htm = HtmConfig { l1_sets: 4, l1_ways: 2, quantum: 100_000, ..HtmConfig::default() };
    learned_futility_serializes::<PartHtm>(&TmRuntime::new(htm, TmConfig::default(), 1, 2048));
}

#[test]
fn learned_futility_serializes_part_htm_o() {
    let htm = HtmConfig { l1_sets: 4, l1_ways: 2, quantum: 100_000, ..HtmConfig::default() };
    learned_futility_serializes::<PartHtmO>(&TmRuntime::new(htm, TmConfig::default(), 1, 2048));
}

#[test]
fn slow_path_waits_for_partitioned_drain() {
    // Mix partitioned transactions with irrevocable (slow-path) ones; the
    // active_tx handshake must keep them serializable.
    struct Irrevocable {
        base: Addr,
        n: usize,
    }
    impl Workload for Irrevocable {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn is_irrevocable(&self) -> bool {
            true
        }
        fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
            for i in 0..self.n {
                let a = self.base + (i * 8) as Addr;
                let v = ctx.read(a)?;
                ctx.write(a, v + 1)?;
            }
            Ok(())
        }
    }

    let rt = TmRuntime::new(mid_htm(), TmConfig { skip_fast: true, ..Default::default() }, 3, 2048);
    std::thread::scope(|s| {
        for t in 0..2 {
            let rt = &rt;
            s.spawn(move || {
                let mut e = PartHtm::new(rt, t);
                let mut w = Incr { n: 16, segs: 4, base: rt.app(0) };
                for _ in 0..30 {
                    e.execute(&mut w);
                }
            });
        }
        let rt = &rt;
        s.spawn(move || {
            let mut e = PartHtm::new(rt, 2);
            let mut w = Irrevocable { base: rt.app(0), n: 16 };
            for _ in 0..30 {
                assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
            }
        });
    });
    for i in 0..16 {
        assert_eq!(rt.verify_read(i * 8), 90, "counter {i}");
    }
}

#[test]
fn opaque_abort_releases_embedded_locks() {
    // Force global aborts in Part-HTM-O under contention, then verify no lock bit
    // survives anywhere.
    let rt = TmRuntime::new(mid_htm(), TmConfig { skip_fast: true, ..Default::default() }, 2, 2048);
    std::thread::scope(|s| {
        for t in 0..2 {
            let rt = &rt;
            s.spawn(move || {
                let mut e = PartHtmO::new(rt, t);
                let mut w = Incr { n: 32, segs: 8, base: rt.app(0) };
                for _ in 0..30 {
                    e.execute(&mut w);
                }
            });
        }
    });
    for i in 0..32 {
        let v = rt.verify_read(i * 8);
        assert_eq!(v & LOCK_BIT, 0, "counter {i} still locked: {v:#x}");
        assert_eq!(v, 60, "counter {i}");
    }
}

#[test]
fn quiet_fast_path_retreats_when_partitioned_traffic_appears() {
    // One thread runs partitioned transactions; the other runs small transactions.
    // Everything must stay exact despite the quiet/instrumented switching.
    let rt = TmRuntime::new(mid_htm(), TmConfig::default(), 2, 4096);
    std::thread::scope(|s| {
        let rt = &rt;
        s.spawn(move || {
            let mut e = PartHtm::new(rt, 0);
            let mut w = Incr { n: 96, segs: 8, base: rt.app(0) };
            for _ in 0..20 {
                e.execute(&mut w);
            }
        });
        s.spawn(move || {
            let mut e = PartHtm::new(rt, 1);
            // Overlapping small transactions on the first 4 counters.
            let mut w = Incr { n: 4, segs: 1, base: rt.app(0) };
            for _ in 0..200 {
                e.execute(&mut w);
            }
        });
    });
    for i in 0..4 {
        assert_eq!(rt.verify_read(i * 8), 220, "counter {i}");
    }
    for i in 4..96 {
        assert_eq!(rt.verify_read(i * 8), 20, "counter {i}");
    }
}

#[test]
fn validate_before_commit_only_mode_is_serializable_under_contention() {
    let tm = TmConfig { validate_every_sub: false, skip_fast: true, ..Default::default() };
    let rt = TmRuntime::new(mid_htm(), tm, 3, 2048);
    std::thread::scope(|s| {
        for t in 0..3 {
            let rt = &rt;
            s.spawn(move || {
                let mut e = PartHtm::new(rt, t);
                let mut w = Incr { n: 24, segs: 4, base: rt.app(0) };
                for _ in 0..30 {
                    e.execute(&mut w);
                }
            });
        }
    });
    for i in 0..24 {
        assert_eq!(rt.verify_read(i * 8), 90, "counter {i}");
    }
}

/// A quiet fast-path commit costs the body plus the two in-transaction
/// subscriptions (`GLock` and `active_tx`) on the virtual clock: no
/// non-transactional pre-read of either word before the hardware begin.
fn quiet_commit_charges_body_plus_two<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime) {
    let clock = VClock::new(1, SchedSpec::default());
    let _core = clock.attach(0);
    let mut e = E::new(rt, 0);
    let mut w = Incr { n: 4, segs: 1, base: rt.app(0) };
    for tx in 1..=3 {
        let t0 = vclock::now().unwrap();
        assert_eq!(e.execute(&mut w), CommitPath::Htm);
        // Every transactional read and write charges one work unit.
        let body = 2 * w.n as u64;
        assert_eq!(vclock::now().unwrap() - t0, body + 2, "tx {tx}");
    }
    let s = &e.thread().stats;
    assert_eq!((s.commits_htm, s.fast_aborts, s.glock_entry_aborts), (3, 0, 0));
}

#[test]
fn quiet_commit_charges_body_plus_two_part_htm() {
    quiet_commit_charges_body_plus_two::<PartHtm>(&TmRuntime::with_defaults(1, 64));
}

#[test]
fn quiet_commit_charges_body_plus_two_part_htm_o() {
    quiet_commit_charges_body_plus_two::<PartHtmO>(&TmRuntime::with_defaults(1, 64));
}

/// [`Incr`] whose first `locked_entries` whole-transaction attempts find the
/// global lock held: `reset` (called before every attempt) takes it.
struct LockedEntry<'r> {
    rt: &'r TmRuntime,
    locked_entries: u32,
    inner: Incr,
}

impl Workload for LockedEntry<'_> {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {}
    fn reset(&mut self) {
        if self.locked_entries > 0 {
            self.locked_entries -= 1;
            self.rt.system().nt_write(self.rt.glock(), 1);
        }
    }
    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        self.inner.segment(seg, ctx)
    }
}

/// Run one transaction of `E` on core 1 of a 2-core virtual clock while core
/// 0 releases the global lock each time `LockedEntry` took it (after 10 wu,
/// so the attempt's subscription always sees the lock held). Returns the
/// commit path and the executor's stats.
fn run_locked_entry<'r, E: TmExecutor<'r>>(
    rt: &'r TmRuntime,
    locked_entries: u32,
) -> (CommitPath, TmStats) {
    let clock = VClock::new(2, SchedSpec::default());
    std::thread::scope(|s| {
        let clock = &clock;
        s.spawn(move || {
            let _core = clock.attach(0);
            let mut released = 0;
            for _ in 0..1_000_000 {
                if released == locked_entries {
                    break;
                }
                if rt.system().nt_read(rt.glock()) != 0 {
                    vclock::charge(10);
                    rt.system().nt_write(rt.glock(), 0);
                    released += 1;
                } else {
                    vclock::yield_now();
                }
            }
            assert_eq!(released, locked_entries, "releaser starved");
        });
        s.spawn(move || {
            let _core = clock.attach(1);
            let mut e = E::new(rt, 1);
            let inner = Incr { n: 4, segs: 1, base: rt.app(0) };
            let path = e.execute(&mut LockedEntry { rt, locked_entries, inner });
            (path, e.thread().stats.0.clone())
        })
        .join()
        .unwrap()
    })
}

/// With the lock held at the first attempt and a conflict budget of one, the
/// transaction still commits on HTM: that first `XABORT_GLOCK` stands in for
/// the pre-begin lock wait and is not charged.
fn held_lock_at_entry_costs_no_retry<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime) {
    let (path, s) = run_locked_entry::<E>(rt, 1);
    assert_eq!(path, CommitPath::Htm);
    assert_eq!((s.commits_htm, s.fast_aborts, s.glock_entry_aborts), (1, 1, 1));
    assert_eq!(s.fallbacks_gl, 0);
    for i in 0..4 {
        assert_eq!(rt.verify_read(i * 8), 1, "counter {i}");
    }
    assert_eq!(rt.system().nt_read(rt.glock()), 0, "lock released");
    assert_eq!(rt.system().nt_read(rt.active_tx()), 0, "active_tx drained");
}

/// `XABORT_GLOCK` on every later attempt is charged as before: the budget
/// of `fast_retries` runs out and the transaction commits under the lock.
fn repeated_glock_aborts_exhaust_the_budget<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime) {
    let budget = rt.config().fast_retries;
    let (path, s) = run_locked_entry::<E>(rt, budget + 1);
    assert_eq!(path, CommitPath::GlobalLock);
    assert_eq!(s.fast_aborts, u64::from(budget) + 1, "one free abort plus the budget");
    assert_eq!(s.glock_entry_aborts, 1);
    assert_eq!((s.commits_gl, s.fallbacks_gl, s.commits_htm), (1, 1, 0));
    for i in 0..4 {
        assert_eq!(rt.verify_read(i * 8), 1, "counter {i}");
    }
    assert_eq!(rt.system().nt_read(rt.glock()), 0, "lock released");
    assert_eq!(rt.system().nt_read(rt.active_tx()), 0, "active_tx drained");
}

fn budget_rt(fast_retries: u32) -> TmRuntime {
    TmRuntime::new(HtmConfig::default(), TmConfig { fast_retries, ..Default::default() }, 2, 64)
}

#[test]
fn held_lock_at_entry_costs_no_retry_part_htm() {
    held_lock_at_entry_costs_no_retry::<PartHtm>(&budget_rt(1));
}

#[test]
fn held_lock_at_entry_costs_no_retry_part_htm_o() {
    held_lock_at_entry_costs_no_retry::<PartHtmO>(&budget_rt(1));
}

#[test]
fn repeated_glock_aborts_exhaust_the_budget_part_htm() {
    repeated_glock_aborts_exhaust_the_budget::<PartHtm>(&budget_rt(1));
    repeated_glock_aborts_exhaust_the_budget::<PartHtm>(&budget_rt(3));
}

#[test]
fn repeated_glock_aborts_exhaust_the_budget_part_htm_o() {
    repeated_glock_aborts_exhaust_the_budget::<PartHtmO>(&budget_rt(1));
    repeated_glock_aborts_exhaust_the_budget::<PartHtmO>(&budget_rt(3));
}

/// Fig. 3(c) shape in miniature: `iters` read-compute-write steps per
/// declared segment on this core's own counters, `work` units each.
struct Compute {
    base: Addr,
    segs: usize,
    iters: usize,
    work: u64,
}

impl Workload for Compute {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {}
    fn segments(&self) -> usize {
        self.segs
    }
    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        for i in seg * self.iters..(seg + 1) * self.iters {
            let a = self.base + (i * 8) as Addr;
            let v = ctx.read(a)?;
            ctx.work(self.work)?;
            ctx.write(a, v + 1)?;
        }
        Ok(())
    }
}

/// Two virtual cores run identical-length partitioned transactions on
/// disjoint counters (default schedule). Their sub-HTM commit phases share
/// the `write_locks` line, so a group can lose a conflict to its twin; the
/// randomised retry backoff must keep the loser out of phase, so no group
/// takes two conflict aborts in a row.
fn lockstep_retries_desynchronise<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime) {
    const TXS: usize = 24;
    let (segs, iters) = (4, 5);
    let clock = VClock::new(2, SchedSpec::default());
    let traces: Vec<Vec<htm_sim::trace::Event>> = std::thread::scope(|s| {
        let clock = &clock;
        let cores: Vec<_> = (0..2)
            .map(|core| {
                s.spawn(move || {
                    let _core = clock.attach(core);
                    let mut e = E::new(rt, core);
                    let base = rt.app(core * segs * iters * 8);
                    let mut w = Compute { base, segs, iters, work: 3_000 };
                    for _ in 0..TXS {
                        assert_eq!(e.execute(&mut w), CommitPath::SubHtm);
                    }
                    e.thread().hw.trace.events().cloned().collect()
                })
            })
            .collect();
        cores.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let mut conflicts = 0;
    for (core, events) in traces.iter().enumerate() {
        let mut after_conflict = false;
        for (i, ev) in events.iter().enumerate() {
            match ev {
                htm_sim::trace::Event::Begin => {}
                htm_sim::trace::Event::Abort { code: htm_sim::AbortCode::Conflict, .. } => {
                    assert!(!after_conflict, "core {core}: consecutive conflict aborts at event {i}");
                    after_conflict = true;
                    conflicts += 1;
                }
                _ => after_conflict = false,
            }
        }
        for i in 0..segs * iters {
            let a = core * segs * iters * 8 + i * 8;
            assert_eq!(rt.verify_read(a), TXS as u64, "core {core} counter {i}");
        }
    }
    assert_eq!(rt.system().nt_read(rt.glock()), 0, "lock released");
    assert_eq!(rt.system().nt_read(rt.active_tx()), 0, "active_tx drained");
    assert!(conflicts > 0, "the twin groups never collided: the test exercises nothing");
}

fn lockstep_rt() -> TmRuntime {
    let htm = HtmConfig { quantum: 40_000, trace_capacity: 1 << 14, ..HtmConfig::default() };
    TmRuntime::new(htm, TmConfig { skip_fast: true, ..Default::default() }, 2, 2 * 20 * 8)
}

#[test]
fn lockstep_retries_desynchronise_part_htm() {
    lockstep_retries_desynchronise::<PartHtm>(&lockstep_rt());
}

#[test]
fn lockstep_retries_desynchronise_part_htm_o() {
    lockstep_retries_desynchronise::<PartHtmO>(&lockstep_rt());
}
