//! Golden virtual-time digests of the hardware-based executors.
//!
//! A fixed set of 2-core [`run_threads_virtual`] cells runs under Part-HTM,
//! Part-HTM-O, HTM-GL, HLE and SpHT. Each run is reduced to a canonical digest
//! line: the decision trace, the commit log, the makespan, a hash of every
//! application word, and the full `TmStats`/`HtmStats`. The lines must equal
//! `executor_digests.golden` byte for byte, so a refactor of an executor that
//! changes any simulated access — its order, its count, or what it reads —
//! fails here.
//!
//! The cells are chosen to reach every step of the partitioned-path driver and
//! each asserts that it does (a digest of a path nobody took pins nothing):
//! quiet and instrumented fast commits, capacity-driven partitioning with
//! merges and splits, software segments, end-only validation, a pinned static
//! plan, a futile site serialized on the lock, lockstep sub-HTM conflicts,
//! shed requests and irrevocable transactions.
//!
//! After an intentional behaviour change the test writes the new digests to
//! `executor_digests.actual` under Cargo's per-target temporary directory;
//! copy that over the golden file to re-bless it.

use htm_sim::abort::TxResult;
use htm_sim::vclock::{SchedSpec, VReport};
use htm_sim::{Addr, HtmConfig};
use part_htm_core::{
    CommitPath, PartHtm, PartHtmO, TmConfig, TmExecutor, TmRuntime, TmThread, TxCtx, Workload,
};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use tm_baselines::{Hle, HtmGl, SpHt};
use tm_harness::driver::{run_threads_virtual, RunResult};

/// Application words per runtime: room for two cores' private counters.
const APP_WORDS: usize = 2048;
/// Word offset between the two cores' private counter blocks.
const CORE_STRIDE: usize = 1024;
/// `nt_work` units of a software segment (far past every cell's quantum).
const SOFT_WORK: u64 = 10_000;

/// Commits per transaction-context type, keyed by the context's short type
/// name (`RawCtx`, `FastCtx`, `SubCtx`, `SoftwareCtx`, ...). Host-side only:
/// it tells which executor steps a cell reached without touching simulated
/// memory.
#[derive(Default)]
struct Tally(Mutex<BTreeMap<&'static str, u64>>);

impl Tally {
    fn get(&self, ctx: &str) -> u64 {
        self.0.lock().unwrap().get(ctx).copied().unwrap_or(0)
    }
}

/// The shape of one core's transactions.
#[derive(Clone, Copy)]
struct Shape {
    /// First counter's word offset.
    base: usize,
    /// Declared segments.
    segs: usize,
    /// One-per-line counters incremented per (non-software) segment.
    per_seg: usize,
    /// `work` units after each read.
    work: u64,
    /// Index of a software segment that only runs `nt_work(SOFT_WORK)`.
    soft: Option<usize>,
    /// Commit under the global lock directly.
    irrevocable: bool,
}

impl Shape {
    fn counters(base: usize, segs: usize, per_seg: usize) -> Self {
        Self {
            base,
            segs,
            per_seg,
            work: 0,
            soft: None,
            irrevocable: false,
        }
    }
}

/// Increment the counters `shape` names, recording the context type of every
/// segment of the attempt that finally commits.
struct Probe<'t> {
    shape: Shape,
    base: Addr,
    tally: &'t Tally,
    seen: Vec<&'static str>,
}

impl Workload for Probe<'_> {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {}
    fn segments(&self) -> usize {
        self.shape.segs
    }
    fn software_segment(&self, seg: usize) -> bool {
        self.shape.soft == Some(seg)
    }
    fn is_irrevocable(&self) -> bool {
        self.shape.irrevocable
    }
    fn reset(&mut self) {
        self.seen.clear();
    }
    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        let full = std::any::type_name::<C>();
        let name = full.rsplit("::").next().unwrap_or(full);
        let name = name.split('<').next().unwrap_or(name);
        if !self.seen.contains(&name) {
            self.seen.push(name);
        }
        if self.shape.soft == Some(seg) {
            return ctx.nt_work(SOFT_WORK);
        }
        for i in 0..self.shape.per_seg {
            let addr = self.base + ((seg * self.shape.per_seg + i) * 8) as Addr;
            let v = ctx.read(addr)?;
            if self.shape.work > 0 {
                ctx.work(self.shape.work)?;
            }
            ctx.write(addr, v + 1)?;
        }
        Ok(())
    }
    fn after_commit(&mut self) {
        let mut t = self.tally.0.lock().unwrap();
        for name in self.seen.drain(..) {
            *t.entry(name).or_insert(0) += 1;
        }
    }
}

/// Alternate `execute_shed` (even transactions) and `execute` (odd ones).
struct Shedding<E> {
    inner: E,
    n: u64,
}

impl<'r, E: TmExecutor<'r>> TmExecutor<'r> for Shedding<E> {
    const NAME: &'static str = E::NAME;
    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self {
            inner: E::new(rt, thread_id),
            n: 0,
        }
    }
    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.n += 1;
        if self.n % 2 == 1 {
            self.inner.execute_shed(w)
        } else {
            self.inner.execute(w)
        }
    }
    fn thread(&self) -> &TmThread<'r> {
        self.inner.thread()
    }
    fn thread_mut(&mut self) -> &mut TmThread<'r> {
        self.inner.thread_mut()
    }
}

/// One cell: a machine, a protocol configuration and per-core shapes.
struct Cell {
    name: &'static str,
    htm: HtmConfig,
    tm: TmConfig,
    txs: usize,
    shed: bool,
    shape: fn(usize) -> Shape,
}

/// An 8x4 L1 with a 24-line read budget: a 40-line transaction overflows it,
/// one 10-line segment plus the sub-HTM metadata fits.
fn mid_l1() -> HtmConfig {
    HtmConfig {
        l1_sets: 8,
        l1_ways: 4,
        read_lines_max: 24,
        ..HtmConfig::tiny()
    }
}

fn cells() -> Vec<Cell> {
    vec![
        Cell {
            name: "quiet",
            htm: HtmConfig::default(),
            tm: TmConfig::default(),
            txs: 6,
            shed: false,
            shape: |t| Shape::counters(t * CORE_STRIDE, 1, 2),
        },
        Cell {
            name: "instrumented",
            htm: mid_l1(),
            tm: TmConfig::default(),
            txs: 6,
            shed: false,
            shape: |t| {
                if t == 0 {
                    Shape::counters(0, 4, 10)
                } else {
                    // Long enough to overlap core 0's partitioned commits.
                    Shape {
                        work: 300,
                        ..Shape::counters(CORE_STRIDE, 1, 1)
                    }
                }
            },
        },
        Cell {
            name: "planner",
            htm: mid_l1(),
            tm: TmConfig::default(),
            txs: 4,
            shed: false,
            shape: |t| Shape::counters(t * CORE_STRIDE, 4, 10),
        },
        Cell {
            name: "software",
            htm: HtmConfig {
                quantum: 2000,
                ..HtmConfig::default()
            },
            tm: TmConfig::default(),
            txs: 3,
            shed: false,
            shape: |t| Shape {
                soft: Some(1),
                ..Shape::counters(t * CORE_STRIDE, 3, 1)
            },
        },
        Cell {
            name: "end-validation",
            htm: mid_l1(),
            tm: TmConfig {
                validate_every_sub: false,
                skip_fast: true,
                ..TmConfig::default()
            },
            txs: 4,
            shed: false,
            shape: |_t| Shape::counters(0, 4, 10),
        },
        Cell {
            name: "static-plan",
            htm: mid_l1(),
            tm: TmConfig {
                adaptive_plan: false,
                plan_group: 2,
                ..TmConfig::default()
            },
            txs: 4,
            shed: false,
            shape: |t| Shape::counters(t * CORE_STRIDE, 4, 10),
        },
        Cell {
            name: "futile",
            htm: HtmConfig::tiny(),
            tm: TmConfig::default(),
            txs: 8,
            shed: false,
            shape: |t| Shape::counters(t * CORE_STRIDE, 1, 16),
        },
        Cell {
            name: "lockstep",
            htm: HtmConfig::default(),
            tm: TmConfig {
                skip_fast: true,
                ..TmConfig::default()
            },
            txs: 4,
            shed: false,
            shape: |t| Shape {
                work: 40,
                ..Shape::counters(t * CORE_STRIDE, 4, 2)
            },
        },
        Cell {
            name: "shed",
            htm: HtmConfig::tiny(),
            tm: TmConfig::default(),
            txs: 6,
            shed: true,
            shape: |_t| Shape::counters(0, 1, 1),
        },
        Cell {
            name: "irrevocable",
            htm: HtmConfig::tiny(),
            tm: TmConfig {
                fast_retries: 1,
                ..TmConfig::default()
            },
            txs: 6,
            shed: false,
            shape: |t| Shape {
                irrevocable: t == 0,
                ..Shape::counters(t * CORE_STRIDE, 1, if t == 0 { 8 } else { 1 })
            },
        },
    ]
}

/// FNV-1a over `bytes`.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run<'r, E: TmExecutor<'r>>(
    rt: &'r TmRuntime,
    cell: &Cell,
    tally: &Tally,
) -> (RunResult, VReport) {
    let spec = SchedSpec::default();
    let factory = |t: usize| {
        let shape = (cell.shape)(t);
        Probe {
            shape,
            base: rt.app(shape.base),
            tally,
            seen: Vec::new(),
        }
    };
    if cell.shed {
        run_threads_virtual::<Shedding<E>, _, _>(rt, 2, cell.txs, spec, factory)
    } else {
        run_threads_virtual::<E, _, _>(rt, 2, cell.txs, spec, factory)
    }
}

/// Run `cell` under executor `$exec` and append its digest line to `$out`.
macro_rules! digest {
    ($exec:ident, $cell:expr, $out:expr) => {{
        let cell: &Cell = $cell;
        let rt = TmRuntime::new(cell.htm.clone(), cell.tm.clone(), 2, APP_WORDS);
        let tally = Tally::default();
        let (r, rep) = run::<$exec>(&rt, cell, &tally);
        render(
            cell,
            <$exec as TmExecutor>::NAME,
            &rt,
            &r,
            &rep,
            &tally,
            $out,
        );
    }};
}

/// Assert that a finished run committed everything and reached the steps its
/// cell exists for, and render its digest line.
fn render(
    cell: &Cell,
    exec: &str,
    rt: &TmRuntime,
    r: &RunResult,
    rep: &VReport,
    tally: &Tally,
    out: &mut String,
) {
    let what = format!("{} under {exec}", cell.name);
    assert_eq!(r.commits, 2 * cell.txs as u64, "{what}: commits");
    assert_eq!(rt.system().nt_read(rt.glock()), 0, "{what}: lock released");
    assert_eq!(rt.system().nt_read(rt.active_tx()), 0, "{what}: active_tx");
    if exec.starts_with("Part-HTM") {
        reaches(cell.name, exec, r, tally);
    }

    let log = rep.commit_log.iter().flat_map(|&(core, t)| {
        (core as u64)
            .to_le_bytes()
            .into_iter()
            .chain(t.to_le_bytes())
    });
    let words = (0..APP_WORDS).flat_map(|i| rt.verify_read(i).to_le_bytes());
    writeln!(
        out,
        "{} {exec}: decisions={} trace={:016x} commits={} log={:016x} makespan={} words={:016x} tm={:?} hw={:?}",
        cell.name,
        rep.n_decisions,
        fnv(rep.trace_text().into_bytes()),
        rep.n_commits,
        fnv(log),
        rep.makespan,
        fnv(words),
        r.tm,
        r.hw,
    )
    .unwrap();
}

/// The non-vacuity checks: each cell must reach the Part-HTM(-O) step it is
/// there to pin.
fn reaches(cell: &str, exec: &str, r: &RunResult, tally: &Tally) {
    let opaque = exec == "Part-HTM-O";
    let s = &r.tm;
    let why: &[(&str, bool)] = match cell {
        "quiet" => &[(
            "quiet fast commits",
            tally.get("RawCtx") == s.commits_htm && s.commits_htm > 0,
        )],
        // Every instrumented commit here is a writer, so it publishes to the ring.
        "instrumented" => &[
            (
                "instrumented fast commits",
                tally.get(if opaque { "OFastCtx" } else { "FastCtx" }) > 0,
            ),
            ("partitioned commits", s.commits_subhtm > 0),
        ],
        "planner" | "static-plan" => &[
            ("partitioned commits", s.commits_subhtm > 0),
            ("merged groups", cell == "static-plan" || s.plan_merges > 0),
            ("split groups", s.plan_splits > 0),
        ],
        "software" => &[
            ("software segments", tally.get("SoftwareCtx") > 0),
            ("partitioned commits", s.commits_subhtm > 0),
        ],
        "end-validation" => &[
            ("partitioned commits", s.commits_subhtm > 0),
            ("global aborts", s.global_aborts > 0),
            ("sub-HTM conflicts", s.sub_aborts > 0),
        ],
        "futile" => &[
            ("serialized routes", s.site_demotions > 0),
            ("lock commits", s.commits_gl == s.commits_total()),
        ],
        "lockstep" => &[
            ("partitioned commits", s.commits_subhtm == s.commits_total()),
            // Part-HTM-O's sub-HTMs share no lock line, so its twins do not
            // collide; its conflict retries are pinned by `end-validation`.
            ("sub-HTM conflicts", opaque || s.sub_aborts > 0),
        ],
        "shed" => &[
            ("shed commits", s.shed_commits > 0),
            ("speculative commits", s.commits_htm + s.commits_subhtm > 0),
        ],
        "irrevocable" => &[
            ("irrevocable lock commits", tally.get("SlowCtx") >= 6),
            ("fast commits", s.commits_htm > 0),
        ],
        other => panic!("cell {other} has no reachability check"),
    };
    for (step, ok) in why {
        assert!(
            ok,
            "{cell} under {exec} never reached: {step} (tm={s:?}, ctx={:?})",
            tally.0.lock().unwrap()
        );
    }
}

#[test]
fn executor_digests_match_the_golden_file() {
    let mut got = String::new();
    for cell in &cells() {
        digest!(PartHtm, cell, &mut got);
        digest!(PartHtmO, cell, &mut got);
        digest!(HtmGl, cell, &mut got);
        digest!(Hle, cell, &mut got);
        digest!(SpHt, cell, &mut got);
    }
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/executor_digests.golden");
    let golden = std::fs::read_to_string(golden_path).unwrap_or_default();
    if got != golden {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/executor_digests.actual");
        std::fs::write(actual, &got).unwrap();
        let first = got
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("<missing>")))
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("\n  got:    {g}\n  golden: {w}"))
            .unwrap_or_else(|| "\n  (golden file has extra lines)".to_string());
        panic!("executor digests differ from {golden_path}; actual digests in {actual}{first}");
    }
}

#[test]
fn digests_are_deterministic() {
    // Two runs of the same cell produce the same line: the golden comparison
    // is meaningful only because the virtual clock makes it so.
    let cell = &cells()[2];
    let (mut a, mut b) = (String::new(), String::new());
    digest!(PartHtmO, cell, &mut a);
    digest!(PartHtmO, cell, &mut b);
    assert_eq!(a, b);
}
