//! The benchmark's own tests: span conservation under tracing, and a tiny
//! run of every workload's legs with their correctness checks.

use part_htm_core::PartHtm;
use perfbench::trace::{take_tallies, TracedExec};
use perfbench::workload::{
    closed_run, closed_setup, conserved, host_leg, sched, virtual_leg, Kind, Plain, Size, Traced,
    V_CORES,
};
use std::sync::Mutex;

/// Traced executors report to one process-wide sink: tests that trace take
/// turns.
static SINK_USERS: Mutex<()> = Mutex::new(());

fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim_matches('"')
}

fn num(json: &str, key: &str) -> f64 {
    field(json, key).parse().expect("numeric field")
}

#[test]
fn traced_virtual_spans_sum_to_each_cores_final_timestamp() {
    let _turn = SINK_USERS.lock().unwrap();
    for kind in [Kind::Fits, Kind::Quantum, Kind::Overflow] {
        take_tallies();
        let (rt, shared) = closed_setup(kind, V_CORES);
        let (run, ok) =
            closed_run::<TracedExec<PartHtm>>(&rt, shared, V_CORES, 8, Some(sched(7)), 7);
        assert!(ok, "{kind:?}: correctness check failed");
        let tallies = take_tallies();
        assert_eq!(tallies.len(), V_CORES, "{kind:?}: one tally per core");
        for (c, t) in run.cores.iter().zip(&tallies) {
            assert!(c.finish > 0, "{kind:?}: virtual time advanced");
            assert_eq!(t.txs, 8, "{kind:?}: one execute span per transaction");
            assert_eq!(
                t.stray_segments, 0,
                "{kind:?}: segments only inside execute"
            );
            assert_eq!(
                t.exec_self() + t.seg_self() + t.access_time + c.outside,
                c.finish,
                "{kind:?}: core {} spans do not conserve time",
                t.worker
            );
        }
        assert!(conserved(&run, &tallies));
    }
}

#[test]
fn tiny_run_of_every_workload_is_correct_and_trace_transparent() {
    let _turn = SINK_USERS.lock().unwrap();
    for kind in Kind::ALL {
        let plain = virtual_leg::<Plain>(kind, 3, Size::Tiny);
        let again = virtual_leg::<Plain>(kind, 3, Size::Tiny);
        let traced = virtual_leg::<Traced>(kind, 3, Size::Tiny);
        for leg in [&plain, &again, &traced] {
            assert!(num(leg, "attempted") > 0.0, "{kind:?}: {leg}");
            assert_eq!(num(leg, "failed"), 0.0, "{kind:?}: {leg}");
            assert!(num(leg, "vtput") > 0.0, "{kind:?}: {leg}");
        }
        assert_eq!(
            field(&plain, "digest"),
            field(&again, "digest"),
            "{kind:?}: reproducible"
        );
        assert_eq!(
            field(&plain, "digest"),
            field(&traced, "digest"),
            "{kind:?}: tracing changed the virtual run"
        );
        assert_eq!(num(&traced, "stray_segments"), 0.0, "{kind:?}");
        let host = host_leg::<Traced>(kind, 3, Size::Tiny, 0.0);
        assert_eq!(num(&host, "failed"), 0.0, "{kind:?}: {host}");
        assert!(num(&host, "host_tput") > 0.0, "{kind:?}: {host}");
        assert!(num(&host, "htm.access_ns") > 0.0, "{kind:?}: {host}");
    }
}

#[test]
fn seeds_change_the_serving_inputs() {
    let _turn = SINK_USERS.lock().unwrap();
    let a = virtual_leg::<Plain>(Kind::Serve, 1, Size::Tiny);
    let b = virtual_leg::<Plain>(Kind::Serve, 2, Size::Tiny);
    assert_ne!(field(&a, "digest"), field(&b, "digest"));
}
