//! One benchmark leg per invocation; prints its result as one JSON line.
//!
//! ```text
//! perfbench virtual --workload fits --seed 1 [--traced]
//! perfbench host --workload serve --seed 1 --seconds 8 [--traced]
//! perfbench plan --workload serve --seed 1 --leg <virtual|host>
//! ```
//!
//! `plan` prints the operations a leg attempts (all of a virtual leg, one
//! repetition of a host leg): what a leg that died is charged as failed.

use perfbench::workload::{host_leg, virtual_leg, Kind, Plain, Size, Sizing, Traced};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench <virtual|host|plan> --workload <fits|quantum|serve|overload|overflow> \
         --seed <n> [--seconds <s>] [--traced] [--leg <virtual|host>]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let leg = args
        .first()
        .cloned()
        .unwrap_or_else(|| usage("missing leg"));
    let value = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        Some(
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value"))),
        )
    };
    let kind = value("--workload")
        .and_then(Kind::parse)
        .unwrap_or_else(|| usage("missing or unknown --workload"));
    let seed: u64 = value("--seed")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| usage("--seed must be an integer"))
        })
        .unwrap_or_else(|| usage("missing --seed"));
    let seconds: f64 = value("--seconds")
        .map(|s| match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => v,
            _ => usage("--seconds must be a non-negative number"),
        })
        .unwrap_or(1.0);
    let traced = args.iter().any(|a| a == "--traced");
    let size = Size::Full;
    if leg == "plan" {
        let host = value("--leg") == Some("host");
        println!("{}", Sizing::of(kind, size).planned(kind, host));
        return;
    }
    let line = match (leg.as_str(), traced) {
        ("virtual", false) => virtual_leg::<Plain>(kind, seed, size),
        ("virtual", true) => virtual_leg::<Traced>(kind, seed, size),
        ("host", false) => host_leg::<Plain>(kind, seed, size, seconds),
        ("host", true) => host_leg::<Traced>(kind, seed, size, seconds),
        _ => usage("leg must be `virtual` or `host`"),
    };
    println!("{line}");
}
