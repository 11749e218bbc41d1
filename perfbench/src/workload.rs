//! The benchmark workloads, their frozen constants, the virtual and
//! host legs that run them, and the correctness checks behind `err_frac`.
//!
//! Every leg drives the program only through public entry points: a loop of
//! its own over [`TmExecutor::execute`] for the closed-loop workloads, and
//! [`run_server`] for the serving ones. A leg is generic over the executor,
//! so the traced run is the same code with [`TracedExec`] in place of
//! [`PartHtm`].

use crate::report::{fnv1a, peak_rss_mb, quantile, ratio, Json};
use crate::trace::{self, stamp, Tally, TracedExec};
use htm_sim::vclock::{SchedPolicy, SchedSpec, VClock, VReport};
use htm_sim::{HtmConfig, HtmStats};
use part_htm_core::{PartHtm, TmConfig, TmExecutor, TmRuntime, TmStats, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use tm_harness::loadgen::{ArrivalProcess, LatencyHisto};
use tm_server::service::{
    gen_requests, run_server, Op, Request, ServeMode, ServeOpts, ServerReport, ServerSpec,
    ServerState,
};
use tm_server::{AdmissionSpec, TrafficMix};
use tm_workloads::micro::{self, NrmwParams};
use tm_workloads::stamp::labyrinth::{self, LabyrinthParams, LabyrinthShared};

/// Simulated cores of every virtual leg.
pub const V_CORES: usize = 2;
/// Worker threads of every host leg.
pub const HOST_WORKERS: usize = 1;
/// Extra set-ups timed by each virtual leg, beyond one per sub-run.
pub const SETUP_REPS: usize = 15;
/// Group-commit width cap of the serving workloads.
pub const BATCH_MAX: usize = 8;
/// Service geometry of the serving workloads (the `serverbench` layout).
pub const SERVER_SPEC: ServerSpec = ServerSpec {
    shards: 8,
    slots_per_shard: 1024,
    queue_cap: 64,
};
/// Balance preloaded under every key of a serving workload.
pub const PRELOAD_BALANCE: u64 = 1_000_000;
/// `serve`: mean Poisson inter-arrival gap in work units (333k req/Mwu).
pub const SERVE_GAP_WU: f64 = 3.0;
/// `serve`: the offered-rate ladder for `v_rate_at_slo`, as mean gaps in
/// work units (200k, 250k, 286k, 333k, 364k, 400k, 417k and 435k req/Mwu).
pub const SERVE_LADDER_GAPS: [f64; 8] = [5.0, 4.0, 3.5, 3.0, 2.75, 2.5, 2.4, 2.3];
/// `serve`: the p99 sojourn limit of a ladder rung, in work units. A rung
/// also fails when its last request completes more than this after the last
/// arrival (the backlog grew).
pub const SLO_P99_WU: u64 = 400;
/// `overload`: mean Poisson inter-arrival gap in work units (125k req/Mwu,
/// about twice the saturated service rate).
pub const OVERLOAD_GAP_WU: f64 = 8.0;
/// `quantum`: the HTM timer quantum of Fig. 3(c) (a transaction needs 60k
/// work units; one of its four segments 15k).
pub const QUANTUM_WU: u64 = 40_000;
/// `overflow`: per-operation asynchronous interrupt probability (Table 1).
pub const OVERFLOW_INTERRUPT_PROB: f64 = 5e-6;
/// `overload`: HTM timer quantum that makes the transfer mix
/// resource-limited.
pub const OVERLOAD_QUANTUM: u64 = 6;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// N-Reads-M-Writes, N = M = 10, disjoint: every transaction fits HTM.
    Fits,
    /// N-Reads-M-Writes, N = M = 100 with work between each read and write
    /// (Fig. 3c): every transaction exceeds the HTM quantum.
    Quantum,
    /// Labyrinth at the Table 1 geometry: most transactions overflow HTM.
    Overflow,
    /// tm-server, default traffic mix, open loop below saturation.
    Serve,
    /// tm-server, hot-key transfer mix, open loop at twice saturation.
    Overload,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 5] = [
        Kind::Fits,
        Kind::Quantum,
        Kind::Overflow,
        Kind::Serve,
        Kind::Overload,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fits => "fits",
            Kind::Quantum => "quantum",
            Kind::Overflow => "overflow",
            Kind::Serve => "serve",
            Kind::Overload => "overload",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    fn is_server(self) -> bool {
        matches!(self, Kind::Serve | Kind::Overload)
    }
}

/// Run size: `Full` is the benchmark, `Tiny` a seconds-long smoke run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The frozen benchmark sizes.
    Full,
    /// A few operations per leg (tests).
    Tiny,
}

/// Operations per leg: transactions per core for the closed-loop virtual
/// legs, requests for the serving virtual legs, and operations per host
/// repetition.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Virtual leg: independent sub-runs.
    pub sub_runs: usize,
    /// Virtual leg: transactions per core, or requests, per sub-run.
    pub v_ops: usize,
    /// Virtual leg of `serve`: requests per ladder rung.
    pub ladder_ops: usize,
    /// Host leg: operations per timed repetition.
    pub host_ops: usize,
}

impl Sizing {
    /// Operations a leg attempts: all of a virtual leg, one repetition of a
    /// host leg.
    pub fn planned(&self, kind: Kind, host: bool) -> usize {
        match (host, kind) {
            (true, _) => self.host_ops,
            (false, Kind::Fits | Kind::Quantum | Kind::Overflow) => {
                self.sub_runs * V_CORES * self.v_ops
            }
            (false, Kind::Serve) => {
                self.sub_runs * self.v_ops + SERVE_LADDER_GAPS.len() * self.ladder_ops
            }
            (false, Kind::Overload) => self.sub_runs * self.v_ops,
        }
    }

    /// The sizes of `kind` at `size`.
    pub fn of(kind: Kind, size: Size) -> Sizing {
        let (sub_runs, v_ops, ladder_ops, host_ops) = match (kind, size) {
            (Kind::Fits, Size::Full) => (6, 500, 0, 10_000),
            (Kind::Quantum, Size::Full) => (6, 500, 0, 200),
            (Kind::Overflow, Size::Full) => (5, 100, 0, 100),
            (Kind::Serve, Size::Full) => (6, 10_000, 10_000, 20_000),
            (Kind::Overload, Size::Full) => (6, 4000, 0, 10_000),
            (Kind::Fits, Size::Tiny) => (1, 20, 0, 200),
            (Kind::Quantum, Size::Tiny) => (1, 10, 0, 20),
            (Kind::Overflow, Size::Tiny) => (2, 3, 0, 3),
            (Kind::Serve, Size::Tiny) => (2, 300, 200, 300),
            (Kind::Overload, Size::Tiny) => (2, 200, 0, 200),
        };
        Sizing {
            sub_runs,
            v_ops,
            ladder_ops,
            host_ops,
        }
    }
}

/// The virtual-time schedule of every virtual leg: seeded tie-breaks and
/// interrupt draws, so the seed picks the interleaving as well as the inputs.
pub fn sched(seed: u64) -> SchedSpec {
    SchedSpec {
        seed,
        policy: SchedPolicy::Seeded,
        forced: Vec::new(),
    }
}

fn htm_config(kind: Kind) -> HtmConfig {
    match kind {
        Kind::Overflow => HtmConfig {
            interrupt_prob: OVERFLOW_INTERRUPT_PROB,
            ..HtmConfig::default()
        },
        Kind::Overload => HtmConfig {
            quantum: OVERLOAD_QUANTUM,
            ..HtmConfig::default()
        },
        Kind::Quantum => HtmConfig {
            quantum: QUANTUM_WU,
            ..HtmConfig::default()
        },
        Kind::Fits | Kind::Serve => HtmConfig::default(),
    }
}

fn runtime(kind: Kind, workers: usize, app_words: usize) -> TmRuntime {
    TmRuntime::new(htm_config(kind), TmConfig::default(), workers, app_words)
}

/// Selects the executor a leg runs: [`Plain`] Part-HTM or [`Traced`]
/// Part-HTM behind the span wrappers.
pub trait ExecFamily {
    /// The executor type for a runtime borrowed for `'r`.
    type Exec<'r>: TmExecutor<'r>;
    /// Whether the leg is traced.
    const TRACED: bool;
}

/// Untraced Part-HTM.
pub struct Plain;

impl ExecFamily for Plain {
    type Exec<'r> = PartHtm<'r>;
    const TRACED: bool = false;
}

/// Part-HTM behind [`TracedExec`].
pub struct Traced;

impl ExecFamily for Traced {
    type Exec<'r> = TracedExec<PartHtm<'r>>;
    const TRACED: bool = true;
}

/// Everything a leg reports, before it is written out as JSON.
#[derive(Default)]
pub struct LegOut {
    /// Operations attempted (transactions or requests).
    pub attempted: u64,
    /// Operations that failed a correctness check or did not complete.
    pub failed: u64,
    /// Set-up times in seconds (virtual legs only).
    pub setup_s: Vec<f64>,
    /// Named results (end-to-end inputs and per-layer metrics).
    pub json: Json,
    /// Per-layer metrics.
    pub layers: Json,
}

impl LegOut {
    /// The leg's one-line JSON result.
    pub fn finish(mut self) -> String {
        self.json
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .list("setup_s", &self.setup_s)
            .num("peak_rss_mb", peak_rss_mb())
            .obj("layers", &self.layers);
        self.json.to_string()
    }

    fn count(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }
}

/// Time `f` (a set-up) in seconds alongside its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// Closed-loop workloads (fits, quantum, overflow)
// ---------------------------------------------------------------------------

/// One core's closed-loop outcome.
#[derive(Clone, Debug, Default)]
pub struct CoreOut {
    /// `execute` latency of every transaction, in issue order (work units
    /// on a virtual core, host nanoseconds otherwise).
    pub lat: Vec<u64>,
    /// Committed transactions per workload site (site ids above 1 fold into
    /// 1).
    pub site_commits: [u64; 2],
    /// Workload-specific total read after the loop (Labyrinth: routes).
    pub detail: u64,
    /// The core's final timestamp.
    pub finish: u64,
    /// Time of the loop spent outside `execute` (sampling and the loop
    /// itself).
    pub outside: u64,
    /// Protocol counters.
    pub tm: TmStats,
    /// Hardware counters.
    pub hw: HtmStats,
}

/// A closed-loop run on `cores` cores.
pub struct ClosedRun {
    /// Per-core outcomes.
    pub cores: Vec<CoreOut>,
    /// The virtual clock's report (`None` on the host clock).
    pub vreport: Option<VReport>,
    /// Host seconds of the slowest core's loop.
    pub host_secs: f64,
}

impl ClosedRun {
    fn commits(&self) -> u64 {
        self.cores.iter().map(|c| c.lat.len() as u64).sum()
    }

    fn tm(&self) -> TmStats {
        let mut tm = TmStats::default();
        self.cores.iter().for_each(|c| tm.merge(&c.tm));
        tm
    }

    fn hw(&self) -> HtmStats {
        let mut hw = HtmStats::default();
        self.cores.iter().for_each(|c| hw.merge(&c.hw));
        hw
    }

    fn makespan(&self) -> u64 {
        self.vreport.as_ref().map_or(0, |r| r.makespan)
    }

    fn digest(&self) -> u64 {
        let vr = self.vreport.as_ref();
        let mut s = format!(
            "{}|{}|{:?}|{:?}",
            self.makespan(),
            vr.map_or(0, |r| r.n_decisions),
            self.tm(),
            self.hw()
        );
        for c in &self.cores {
            s.push_str(&format!("|{:?}|{:?}|{}", c.lat, c.site_commits, c.detail));
        }
        fnv1a(s.as_bytes())
    }
}

fn core_rng(seed: u64, core: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (core as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The closed loop one core runs: sample, execute, record.
fn drive<'r, E: TmExecutor<'r>, W: Workload>(
    exec: &mut E,
    w: &mut W,
    rng: &mut SmallRng,
    ops: usize,
) -> CoreOut {
    let mut out = CoreOut {
        lat: Vec::with_capacity(ops),
        ..CoreOut::default()
    };
    let start = stamp();
    let mut inside = 0;
    for _ in 0..ops {
        w.sample(rng);
        let site = w.site().min(1) as usize;
        let t0 = stamp();
        exec.execute(w);
        let d = stamp() - t0;
        out.lat.push(d);
        out.site_commits[site] += 1;
        inside += d;
    }
    out.finish = stamp();
    out.outside = out.finish - start - inside;
    out
}

/// Run `ops` transactions per core on `cores` cores: under a virtual clock
/// with schedule `spec`, or on the host clock when `spec` is `None`.
pub fn closed_loop<'r, E, W, F, D>(
    rt: &'r TmRuntime,
    cores: usize,
    ops: usize,
    spec: Option<SchedSpec>,
    seed: u64,
    make: F,
    detail: D,
) -> ClosedRun
where
    E: TmExecutor<'r>,
    W: Workload + Send,
    F: Fn(usize) -> W + Sync,
    D: Fn(&W) -> u64 + Sync,
{
    let clock = spec.map(|s| VClock::new(cores, s));
    let outs: Vec<(CoreOut, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cores)
            .map(|c| {
                let (clock, make, detail) = (clock.as_ref(), &make, &detail);
                s.spawn(move || {
                    let mut exec = E::new(rt, c);
                    let mut w = make(c);
                    let mut rng = core_rng(seed, c);
                    let guard = clock.map(|vc| vc.attach(c));
                    let t0 = Instant::now();
                    let mut out = drive(&mut exec, &mut w, &mut rng, ops);
                    let elapsed = t0.elapsed();
                    drop(guard);
                    exec.thread_mut().harvest_host_counters();
                    out.tm = (*exec.thread().stats).clone();
                    out.hw = (*exec.thread().hw.stats).clone();
                    out.detail = detail(&w);
                    (out, elapsed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark core panicked"))
            .collect()
    });
    ClosedRun {
        host_secs: outs
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .fold(0.0, f64::max),
        cores: outs.into_iter().map(|(c, _)| c).collect(),
        vreport: clock.map(|vc| vc.report()),
    }
}

fn nrmw_params(kind: Kind) -> NrmwParams {
    if kind == Kind::Quantum {
        NrmwParams::fig3c()
    } else {
        NrmwParams::fig3a()
    }
}

fn overflow_params() -> LabyrinthParams {
    LabyrinthParams::default_scale()
}

/// `fits`/`quantum` check: the destination array holds exactly what the
/// committed transactions wrote. Each core owns a disjoint slice and
/// transaction `k` rotates its window by 17; the source array holds its own
/// indices and is never written. The pure-memory shape (`fits`) writes, for
/// `i` in `0..m`, the sum of the last segment's source reads plus `i`; the
/// read-compute-write shape (`quantum`) writes source plus one at each of
/// its `n` window elements.
pub fn check_nrmw(rt: &TmRuntime, p: &NrmwParams, cores: usize, commits_per_core: &[u64]) -> bool {
    let slice = p.array_len / cores;
    let per_seg = p.n_reads.div_ceil(p.segments);
    let reads = (p.segments - 1) * per_seg..p.n_reads;
    let mut expect = vec![0u64; p.array_len];
    for (core, &k) in commits_per_core.iter().enumerate() {
        let lo = core * slice;
        let mut offset = 0;
        for _ in 0..k {
            offset = (offset + 17) % slice;
            if p.work_per_iter > 0 {
                for i in 0..p.n_reads {
                    let e = lo + (offset + i) % slice;
                    expect[e] = e as u64 + 1;
                }
                continue;
            }
            let acc = reads.clone().fold(0u64, |a, i| {
                a.wrapping_add(((lo + offset + i) % p.array_len) as u64)
            });
            for i in 0..p.m_writes {
                expect[lo + (offset + i) % slice] = acc.wrapping_add(i as u64) & ((1 << 62) - 1);
            }
        }
    }
    let dst = p.array_len * p.stride;
    expect
        .iter()
        .enumerate()
        .all(|(e, &v)| rt.verify_read(dst + e * p.stride) == v)
}

/// `overflow` check: the bookkeeping counter and its six slots both equal
/// the committed bookkeeping transactions, and the occupied grid agrees
/// with the committed routes (no route, no claimed cell; every claimed cell
/// carries the tag of a core that committed a route; at most `max_path`
/// cells per route).
pub fn check_overflow(
    rt: &TmRuntime,
    s: &LabyrinthShared,
    bookkeeping: u64,
    routes_per_core: &[u64],
) -> bool {
    let p = overflow_params();
    let cells = p.side * p.side;
    let slots: u64 = (1..=6).map(|j| rt.verify_read(cells + j)).sum();
    let routes: u64 = routes_per_core.iter().sum();
    let occupied = s.occupied_nt(rt) as u64;
    let tags_ok = (0..cells).all(|i| match rt.verify_read(i) {
        0 => true,
        tag => routes_per_core
            .get(tag as usize - 1)
            .is_some_and(|&r| r > 0),
    });
    s.bookkeeping_nt(rt) == bookkeeping
        && slots == bookkeeping
        && tags_ok
        && (routes == 0) == (occupied == 0)
        && occupied <= routes * p.max_path() as u64
}

/// The shared heap layout of a closed-loop workload.
#[derive(Clone, Copy)]
pub enum Shared {
    /// `fits`/`quantum` arrays.
    Nrmw(micro::NrmwShared, NrmwParams),
    /// `overflow` grid.
    Overflow(LabyrinthShared),
}

/// Set-up of a closed-loop workload: a fresh runtime for `cores` cores and
/// its initialised heap.
pub fn closed_setup(kind: Kind, cores: usize) -> (TmRuntime, Shared) {
    match kind {
        Kind::Fits | Kind::Quantum => {
            let p = nrmw_params(kind);
            let rt = runtime(kind, cores, p.app_words());
            let s = micro::init(&rt, &p);
            (rt, Shared::Nrmw(s, p))
        }
        _ => {
            let rt = runtime(kind, cores, overflow_params().app_words());
            let s = labyrinth::init(&rt, &overflow_params());
            (rt, Shared::Overflow(s))
        }
    }
}

/// Run `ops` transactions per core of a set-up closed-loop workload;
/// returns the run with its check verdict.
pub fn closed_run<'r, E: TmExecutor<'r>>(
    rt: &'r TmRuntime,
    shared: Shared,
    cores: usize,
    ops: usize,
    spec: Option<SchedSpec>,
    seed: u64,
) -> (ClosedRun, bool) {
    match shared {
        Shared::Nrmw(s, p) => {
            let run = closed_loop::<E, _, _, _>(
                rt,
                cores,
                ops,
                spec,
                seed,
                |c| micro::Nrmw::new(s, c, cores),
                |_| 0,
            );
            let commits: Vec<u64> = run.cores.iter().map(|c| c.lat.len() as u64).collect();
            let ok = check_nrmw(rt, &p, cores, &commits);
            (run, ok)
        }
        Shared::Overflow(s) => {
            let run = closed_loop::<E, _, _, _>(
                rt,
                cores,
                ops,
                spec,
                seed,
                |c| labyrinth::Labyrinth::new(s, c as u64 + 1),
                |w| w.routed,
            );
            let bookkeeping = run.cores.iter().map(|c| c.site_commits[0]).sum();
            let routes: Vec<u64> = run.cores.iter().map(|c| c.detail).collect();
            let ok = check_overflow(rt, &s, bookkeeping, &routes);
            (run, ok)
        }
    }
}

// ---------------------------------------------------------------------------
// Serving workloads (serve, overload)
// ---------------------------------------------------------------------------

/// The traffic mix of a serving workload.
pub fn traffic(kind: Kind) -> TrafficMix {
    match kind {
        Kind::Serve => TrafficMix {
            keys: 512,
            ..TrafficMix::default()
        },
        _ => TrafficMix {
            tenants: 2,
            keys: 64,
            kv_weight: 1,
            queue_weight: 0,
            transfer_weight: 8,
            hot_pct: 90,
            hot_keys: 4,
        },
    }
}

/// A serving run's inputs on a fresh, preloaded service.
pub struct ServerInput {
    /// The runtime.
    pub rt: TmRuntime,
    /// The service heap.
    pub state: ServerState,
    /// The request stream, sorted by arrival.
    pub requests: Vec<Request>,
    /// KV total after preloading.
    pub preload_total: u64,
}

/// Generate `n` requests of `kind` (Poisson arrivals with mean gap `gap`,
/// or all due at 0 when `gap` is `None`) and preload a fresh service for
/// `workers` workers.
pub fn server_input(
    kind: Kind,
    workers: usize,
    n: usize,
    gap: Option<f64>,
    seed: u64,
) -> ServerInput {
    let mix = traffic(kind);
    let arrivals = match gap {
        Some(mean_gap) => ArrivalProcess::Poisson { mean_gap }.timestamps(n, seed),
        None => vec![0; n],
    };
    let requests = gen_requests(&mix, &arrivals, seed);
    let rt = runtime(kind, workers, SERVER_SPEC.app_words());
    let state = ServerState::new(&rt, SERVER_SPEC);
    let items: Vec<(u32, u32, u64)> = (0..mix.tenants)
        .flat_map(|t| (0..mix.keys).map(move |k| (t, k, PRELOAD_BALANCE)))
        .collect();
    state.preload(&rt, &items);
    let preload_total = items.len() as u64 * PRELOAD_BALANCE;
    ServerInput {
        rt,
        state,
        requests,
        preload_total,
    }
}

/// Serve `input` on `workers` workers under executor `E`.
pub fn serve<'r, E: TmExecutor<'r>>(
    input: &'r ServerInput,
    workers: usize,
    mode: &ServeMode,
) -> ServerReport {
    let opts = ServeOpts {
        batch_max: BATCH_MAX,
        admission: AdmissionSpec::default(),
        collect_responses: true,
        ..ServeOpts::default()
    };
    run_server::<E>(
        &input.rt,
        &input.state,
        workers,
        &input.requests,
        mode,
        &opts,
    )
}

/// Serving check: every generated request was served exactly once, and the
/// KV total equals the preload plus every committed write (a `Put` adds its
/// value minus the previous one it answered with, an `Add` its delta;
/// transfers conserve the total).
pub fn check_server(input: &ServerInput, rep: &ServerReport) -> bool {
    let n = input.requests.len();
    let mut resp = rep.responses.clone();
    resp.sort_unstable();
    let once = resp.len() == n && resp.iter().enumerate().all(|(i, r)| r.0 == i as u64);
    if rep.served != n as u64 || !once {
        return false;
    }
    let mut total = i128::from(input.preload_total);
    for (req, &(_, word)) in input.requests.iter().zip(&resp) {
        match req.op {
            Op::Put { val, .. } => {
                let prev = word.saturating_sub(1);
                total += i128::from(val) - i128::from(prev);
            }
            Op::Add { delta, .. } => total += i128::from(delta),
            _ => {}
        }
    }
    i128::from(input.state.kv_total_nt(&input.rt)) == total
}

fn histo_digest(h: &LatencyHisto) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{}",
        h.count(),
        h.mean().to_bits(),
        h.max(),
        h.p50(),
        h.quantile(0.9),
        h.p99(),
        h.p999()
    )
}

/// One ladder rung: offered rate, p99 and whether it met the limit.
struct Rung {
    rate: f64,
    p99: u64,
    drain: u64,
    ok: bool,
}

/// Run the `serve` offered-rate ladder; each rung is a fresh virtual run.
fn serve_ladder(seed: u64, n: usize, out: &mut LegOut) -> Vec<Rung> {
    SERVE_LADDER_GAPS
        .iter()
        .map(|&gap| {
            let input = server_input(Kind::Serve, V_CORES, n, Some(gap), seed);
            let rep = serve::<PartHtm>(&input, V_CORES, &ServeMode::Virtual(sched(seed)));
            out.count(n as u64, check_server(&input, &rep));
            let last = input.requests.last().map_or(0, |r| r.arrival);
            let drain = rep.run.makespan.saturating_sub(last);
            let p99 = rep.latency.p99();
            Rung {
                rate: 1e6 / gap,
                p99,
                drain,
                ok: p99 <= SLO_P99_WU && drain <= SLO_P99_WU,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// Counter-based per-layer metrics, from the merged statistics of a run.
fn counter_layers(j: &mut Json, tm: &TmStats, hw: &HtmStats, txs: u64) {
    let t = txs as f64;
    let shards = TmConfig::default().ring_shards;
    let pubs = &tm.shard_publishes[..shards];
    let pub_max = pubs.iter().copied().max().unwrap_or(0) as f64;
    let pub_mean = pubs.iter().sum::<u64>() as f64 / shards as f64;
    let commits = tm.commits_total() as f64;
    j.num(
        "htm.commit_ratio",
        ratio(hw.commits as f64, hw.begins as f64),
    )
    .num(
        "htm.aborts_capacity_per_tx",
        ratio(hw.aborts_capacity as f64, t),
    )
    .num(
        "htm.aborts_conflict_per_tx",
        ratio(hw.aborts_conflict as f64, t),
    )
    .num("htm.aborts_timer_per_tx", ratio(hw.aborts_timer as f64, t))
    .num(
        "sig.val_fast_hit_ratio",
        ratio(
            tm.val_fast_hits as f64,
            (tm.val_fast_hits + tm.val_fast_misses) as f64,
        ),
    )
    .num(
        "sig.summary_resets_per_ktx",
        ratio(1e3 * tm.summary_resets as f64, t),
    )
    .num("sig.epoch_pinned_stalls", tm.epoch_pinned_stalls as f64)
    .num(
        "sig.journal_rollbacks_per_tx",
        ratio(tm.journal_rollbacks as f64, t),
    )
    .num(
        "sig.arena_reuse_ratio",
        ratio(
            tm.arena_reuses as f64,
            (tm.arena_reuses + tm.arena_allocs) as f64,
        ),
    )
    .num("ring.publish_skew", ratio(pub_max, pub_mean))
    .num("exec.path_htm_frac", ratio(tm.commits_htm as f64, commits))
    .num(
        "exec.path_sub_frac",
        ratio(tm.commits_subhtm as f64, commits),
    )
    .num("exec.path_gl_frac", ratio(tm.commits_gl as f64, commits))
    .num(
        "planner.demotions_per_ktx",
        ratio(1e3 * tm.site_demotions as f64, t),
    )
    .num("planner.merges", tm.plan_merges as f64)
    .num("planner.splits", tm.plan_splits as f64)
    .num("planner.retry_saves", tm.adaptive_retry_saves as f64)
    .num(
        "batch.width_mean",
        ratio(tm.batch_reqs as f64, tm.batch_groups as f64),
    );
}

/// Span-based executor metrics of a virtual run.
fn span_layers(j: &mut Json, t: &Tally) {
    let txs = t.txs as f64;
    j.num("exec.self_wu_per_tx", ratio(t.exec_self() as f64, txs))
        .num(
            "exec.wasted_wu_frac",
            ratio(t.wasted_time as f64, t.exec_time as f64),
        )
        .num(
            "exec.segment_attempts_per_tx",
            ratio(t.seg_attempts as f64, txs),
        );
}

fn merged(tallies: &[Tally]) -> Tally {
    let mut m = Tally::default();
    tallies.iter().for_each(|t| m.merge(t));
    m
}

// ---------------------------------------------------------------------------
// Legs
// ---------------------------------------------------------------------------

/// The virtual leg: [`Sizing::sub_runs`] independent exact runs on
/// [`V_CORES`] simulated cores, each on fresh inputs drawn from
/// [`sub_seed`], aggregated as if run back to back; timed on the host for
/// simulator speed. Under [`Traced`] it adds the span-based per-layer
/// metrics and the span-conservation verdict.
pub fn virtual_leg<F: ExecFamily>(kind: Kind, seed: u64, size: Size) -> String {
    let sz = Sizing::of(kind, size);
    let mut out = LegOut::default();
    trace::take_tallies();
    out.json.str("leg", "virtual").str("workload", kind.name());
    if kind.is_server() {
        virtual_server::<F>(kind, seed, sz, &mut out);
    } else {
        virtual_closed::<F>(kind, seed, sz, &mut out);
    }
    out.finish()
}

/// The seed of sub-run `i` of a leg seeded with `seed` (SplitMix64 of the
/// pair, so neighbouring leg seeds share no sub-run).
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Totals of a virtual leg's sub-runs.
#[derive(Default)]
struct VTotals {
    makespan: u64,
    ops: u64,
    commits: u64,
    decisions: u64,
    host: f64,
    /// Simulated Mwu per host second of each sub-run.
    speeds: Vec<f64>,
    tm: TmStats,
    hw: HtmStats,
    digest: String,
}

impl VTotals {
    fn add(
        &mut self,
        makespan: u64,
        ops: u64,
        commits: u64,
        host: f64,
        tm: &TmStats,
        hw: &HtmStats,
    ) {
        self.makespan += makespan;
        self.ops += ops;
        self.commits += commits;
        self.host += host;
        self.speeds.push(makespan as f64 / 1e6 / host);
        self.tm.merge(tm);
        self.hw.merge(hw);
    }

    /// The end-to-end fields and counter-based layers shared by both kinds.
    fn report(&self, out: &mut LegOut) {
        out.json
            .str("digest", &format!("{:016x}", fnv1a(self.digest.as_bytes())))
            .num("makespan", self.makespan as f64)
            .num("commits", self.commits as f64)
            .num("vtput", self.ops as f64 * 1e6 / self.makespan.max(1) as f64)
            .num("host_s", self.host)
            .num(
                "sim_mwu_per_s",
                self.speeds.iter().copied().fold(0.0, f64::max),
            )
            .list("sub_run_speeds", &self.speeds);
        counter_layers(&mut out.layers, &self.tm, &self.hw, self.commits);
        out.layers
            .num(
                "vclock.decisions_per_tx",
                ratio(self.decisions as f64, self.commits as f64),
            )
            .num(
                "vclock.host_us_per_tx",
                ratio(self.host * 1e6, self.commits as f64),
            );
    }
}

fn virtual_closed<F: ExecFamily>(kind: Kind, seed: u64, sz: Sizing, out: &mut LegOut) {
    for _ in 0..SETUP_REPS {
        out.setup_s.push(timed(|| closed_setup(kind, V_CORES)).1);
    }
    let mut tot = VTotals::default();
    let mut lat = Vec::new();
    let mut tallies = Vec::new();
    let mut conserved_all = true;
    for i in 0..sz.sub_runs {
        let sseed = sub_seed(seed, i);
        let ((rt, shared), s) = timed(|| closed_setup(kind, V_CORES));
        out.setup_s.push(s);
        let (run, ok) =
            closed_run::<F::Exec<'_>>(&rt, shared, V_CORES, sz.v_ops, Some(sched(sseed)), sseed);
        let commits = run.commits();
        out.count(commits, ok && commits == (V_CORES * sz.v_ops) as u64);
        let sub_tallies = trace::take_tallies();
        conserved_all &= conserved(&run, &sub_tallies);
        tallies.extend(sub_tallies);
        lat.extend(run.cores.iter().flat_map(|c| c.lat.iter().copied()));
        tot.add(
            run.makespan(),
            commits,
            commits,
            run.host_secs,
            &run.tm(),
            &run.hw(),
        );
        tot.decisions += run.vreport.as_ref().map_or(0, |r| r.n_decisions);
        tot.digest.push_str(&format!("{:016x}|", run.digest()));
    }
    lat.sort_unstable();
    tot.report(out);
    out.json
        .num("v_p50_wu", quantile(&lat, 0.5) as f64)
        .num("v_p99_wu", quantile(&lat, 0.99) as f64)
        .num("v_p999_wu", quantile(&lat, 0.999) as f64)
        .num("lat_samples", lat.len() as f64);
    out.layers.num("admission.shed_frac", 0.0);
    if F::TRACED {
        let t = merged(&tallies);
        span_layers(&mut out.layers, &t);
        out.layers
            .num("admission.shed_wu_per_group", 0.0)
            .num("service.exec_wu_per_req", 0.0)
            .num("service.queue_wu_per_req", 0.0)
            .num("service.loop_self_frac", 0.0);
        out.json
            .num("conserved", f64::from(u8::from(conserved_all)))
            .num("stray_segments", t.stray_segments as f64);
    }
}

/// Span conservation on a traced virtual closed-loop run: per core, the
/// self times of every span (`execute`, `segment`, `access`) plus the loop
/// time outside `execute` sum exactly to the core's final timestamp.
pub fn conserved(run: &ClosedRun, tallies: &[Tally]) -> bool {
    tallies.len() == run.cores.len()
        && run
            .cores
            .iter()
            .zip(tallies)
            .all(|(c, t)| t.exec_self() + t.seg_self() + t.access_time + c.outside == c.finish)
}

fn virtual_server<F: ExecFamily>(kind: Kind, seed: u64, sz: Sizing, out: &mut LegOut) {
    let gap = if kind == Kind::Serve {
        SERVE_GAP_WU
    } else {
        OVERLOAD_GAP_WU
    };
    for _ in 0..SETUP_REPS {
        out.setup_s
            .push(timed(|| server_input(kind, V_CORES, sz.v_ops, Some(gap), seed)).1);
    }
    let mut tot = VTotals::default();
    let mut h = LatencyHisto::new();
    let mut tallies = Vec::new();
    for i in 0..sz.sub_runs {
        let sseed = sub_seed(seed, i);
        let (input, s) = timed(|| server_input(kind, V_CORES, sz.v_ops, Some(gap), sseed));
        out.setup_s.push(s);
        let (rep, host) =
            timed(|| serve::<F::Exec<'_>>(&input, V_CORES, &ServeMode::Virtual(sched(sseed))));
        out.count(sz.v_ops as u64, check_server(&input, &rep));
        tallies.extend(trace::take_tallies());
        h.merge(&rep.latency);
        tot.add(
            rep.run.makespan,
            rep.served,
            rep.run.commits,
            host,
            &rep.run.tm,
            &rep.run.hw,
        );
        tot.digest.push_str(&format!(
            "{}|{}|{}|{:?}|{:?}|{}|",
            rep.run.makespan,
            rep.run.commits,
            rep.served,
            rep.run.tm,
            rep.run.hw,
            histo_digest(&rep.latency)
        ));
    }
    if kind == Kind::Serve {
        let rungs = serve_ladder(seed, sz.ladder_ops, out);
        let best = rungs
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.rate)
            .fold(0.0, f64::max);
        for r in &rungs {
            tot.digest
                .push_str(&format!("{}:{}:{}|", r.rate, r.p99, r.drain));
        }
        let rates: Vec<f64> = rungs.iter().map(|r| r.rate).collect();
        let p99s: Vec<f64> = rungs.iter().map(|r| r.p99 as f64).collect();
        out.json
            .num("v_rate_at_slo", best)
            .list("ladder_rate", &rates)
            .list("ladder_p99_wu", &p99s)
            .num("ladder_samples", (rungs.len() * sz.ladder_ops) as f64);
    }
    tot.report(out);
    out.json
        .num("v_p50_wu", h.p50() as f64)
        .num("v_p99_wu", h.p99() as f64)
        .num("v_p999_wu", h.p999() as f64)
        .num("lat_samples", h.count() as f64);
    out.layers.num(
        "admission.shed_frac",
        ratio(tot.tm.shed_commits as f64, tot.ops as f64),
    );
    if F::TRACED {
        let t = merged(&tallies);
        let exec_per_req = ratio(t.exec_time as f64, tot.ops as f64);
        let worker_time: u64 = tallies.iter().map(|t| t.last_end).sum();
        span_layers(&mut out.layers, &t);
        out.layers
            .num(
                "admission.shed_wu_per_group",
                ratio(t.shed_time as f64, t.shed as f64),
            )
            .num("service.exec_wu_per_req", exec_per_req)
            .num("service.queue_wu_per_req", h.mean() - exec_per_req)
            .num(
                "service.loop_self_frac",
                1.0 - ratio(t.exec_time as f64, worker_time as f64),
            );
        out.json.num("stray_segments", t.stray_segments as f64);
    }
}

/// The host leg: repeated runs on [`HOST_WORKERS`] worker on the wall clock
/// for about `seconds` (at least three), each on freshly set-up inputs;
/// reports the median repetition's throughput. Under [`Traced`] it adds the
/// host-time span metrics.
pub fn host_leg<F: ExecFamily>(kind: Kind, seed: u64, size: Size, seconds: f64) -> String {
    let sz = Sizing::of(kind, size);
    let mut out = LegOut::default();
    trace::take_tallies();
    out.json.str("leg", "host").str("workload", kind.name());
    // The closed-loop workloads other than `overflow` rewrite the same
    // elements every repetition, so one set-up serves them all (and the
    // first, untimed repetition faults the heap in). A Labyrinth grid fills
    // up, and a served stream is consumed: those set up afresh each time.
    let mut closed = (!kind.is_server()).then(|| closed_setup(kind, HOST_WORKERS));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut tputs = Vec::new();
    let mut warm = false;
    while tputs.len() < 3 || Instant::now() < deadline {
        let tput = if kind.is_server() {
            let input = server_input(kind, HOST_WORKERS, sz.host_ops, None, seed);
            let rep = serve::<F::Exec<'_>>(&input, HOST_WORKERS, &ServeMode::Wall);
            out.count(sz.host_ops as u64, check_server(&input, &rep));
            rep.goodput_wall()
        } else {
            if kind == Kind::Overflow && warm {
                closed = Some(closed_setup(kind, HOST_WORKERS));
            }
            let (rt, shared) = closed.as_ref().expect("closed-loop set-up");
            let (run, ok) =
                closed_run::<F::Exec<'_>>(rt, *shared, HOST_WORKERS, sz.host_ops, None, seed);
            let commits = run.commits();
            out.count(commits, ok && commits == sz.host_ops as u64);
            commits as f64 / run.host_secs.max(1e-9)
        };
        if warm {
            tputs.push(tput);
        }
        warm = true;
    }
    // The host's speed drifts over seconds (other tenants, throttling): the
    // best repetition is the steadiest estimate of the program's own speed.
    out.json
        .num("host_tput", tputs.iter().copied().fold(0.0, f64::max))
        .num("reps", tputs.len() as f64);
    if F::TRACED {
        let t = merged(&trace::take_tallies());
        out.layers
            .num(
                "exec.self_ns_per_tx",
                ratio(t.exec_self() as f64, t.txs as f64),
            )
            .num(
                "htm.access_ns",
                ratio(t.access_time as f64, t.accesses as f64),
            );
    }
    out.finish()
}
