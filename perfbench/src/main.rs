//! Closed-loop benchmark of the learned-index serving tier.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read-uniform|durable-mix|adversarial-auto> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One client thread calls the public API of `li-serve` and `li-core`
//! with inputs generated from `--seed`, checks every answer against an
//! oracle outside the timed regions, and prints a report followed by one
//! JSON result line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from a traced pass with spans around each layer
//! call) with `--trace 1`. The process exits 1 when any answer was
//! wrong. See `README.md` beside this file for the metric map.

mod durable;
mod env;
mod gen;
mod oracle;
mod read;
mod report;
mod stats;
mod trace;

use li_serve::{AutoShardBuilder, RmiShardBuilder};

use crate::durable::DurableWorkload;
use crate::oracle::Tally;
use crate::read::ReadWorkload;
use crate::report::Metrics;

const WORKLOADS: [&str; 3] = ["read-uniform", "durable-mix", "adversarial-auto"];
/// `adversarial-auto` lookups: Zipf(0.99) over a hot set of 8192 keys,
/// whose model, node and data lines (~2 MiB) stay in cache, so the
/// lookup cost is the backend's own work rather than DRAM misses.
const ZIPF_S: f64 = 0.99;
const HOT_KEYS: usize = 8192;
/// Seed of the `adversarial-auto` key set. Which backend wins a shard
/// changes from one gauntlet draw to the next (the index size swung by
/// 40% over five seeds), which would bury any real change in that
/// workload's size and selection metrics; so its keys are one fixed draw
/// and `--seed` varies only its lookups.
const GAUNTLET_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? > 0 => seconds = Some(number()?),
            "--trace" if number()? <= 1 => trace = Some(number()? == 1),
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    env::print_stamp();
    match env::pin_to_current_cpu() {
        Some(cpu) => println!("env: client pinned to cpu {cpu}"),
        None => println!("env: client not pinned"),
    }

    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let seed = args.seed;
    match args.workload.as_str() {
        "durable-mix" => {
            let w = DurableWorkload::generate(seed);
            println!(
                "inputs: base_keys={} fnv={:016x} ops={} fnv={:016x}",
                w.base.len(),
                gen::fingerprint(w.base.iter().copied()),
                2 * w.fresh.len(),
                w.ops_fingerprint()
            );
            durable::run(&w, args.seconds, args.trace, &mut m, &mut tally);
        }
        name => {
            let w = if name == "read-uniform" {
                let keys = gen::lognormal(gen::BASE_KEYS, seed);
                ReadWorkload {
                    name: "read-uniform",
                    queries: gen::uniform_existing(&keys, read::QUERIES, seed),
                    keys,
                    builder: Box::new(RmiShardBuilder::new()),
                    selects: false,
                }
            } else {
                let keys = gen::gauntlet(gen::BASE_KEYS, GAUNTLET_SEED);
                ReadWorkload {
                    name: "adversarial-auto",
                    queries: gen::zipf_existing(&keys, read::QUERIES, HOT_KEYS, ZIPF_S, seed),
                    keys,
                    builder: Box::new(AutoShardBuilder::new()),
                    selects: true,
                }
            };
            println!(
                "inputs: keys={} fnv={:016x} queries={} fnv={:016x}",
                w.keys.len(),
                gen::fingerprint(w.keys.iter().copied()),
                w.queries.len(),
                gen::fingerprint(w.queries.iter().copied())
            );
            read::run(&w, args.seconds, args.trace, &mut m, &mut tally);
        }
    }

    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "checked: attempted={} failed={} failed_frac={failed_frac}",
        tally.attempted, tally.failed
    );
    for e in &tally.examples {
        println!("  FAILED: {e}");
    }
    println!(
        "{}",
        m.result_line(args.trace, tally.attempted, tally.failed)
    );
    if tally.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checked operations were wrong",
            tally.failed, tally.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_are_validated() {
        let a = args("--workload durable-mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("durable-mix", 7, 10, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload read-uniform --seed x --seconds 1").is_err());
        assert!(args("--workload read-uniform --seed 1 --seconds 0").is_err());
        assert!(args("--workload read-uniform --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload read-uniform --seconds 1").is_err());
        assert!(args("--workload read-uniform --seed 1 --seconds").is_err());
    }
}
