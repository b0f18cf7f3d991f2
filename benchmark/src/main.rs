//! Command line of the benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1> [--smoke]
//! ```
//!
//! Human-readable lines first; the last line of standard output is the
//! JSON result. Without `--workload`, every workload runs in turn, each
//! in a fresh process.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use toposem_benchmark::fixture::{FULL_ROWS, SMOKE_ROWS};
use toposem_benchmark::run::{check_parallelism, run_traced, run_untraced, RunConfig};
use toposem_benchmark::workload::Kind;

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <n>] \
                     [--trace [0|1]] [--smoke]\n\
                     workloads: point_read scan_join write_txn mixed_rw replicated_rw";

/// Warm-up before the measured window, full size and `--smoke`.
const WARMUP: Duration = Duration::from_secs(2);
const SMOKE_WARMUP: Duration = Duration::from_millis(200);
/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`, and 1 under
/// `--smoke`.
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Runs every workload, each in a process of its own so that none
/// inherits another's allocator state, page cache of log files, or peak
/// memory.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for kind in Kind::ALL {
        println!("== {} ==", kind.name());
        match Command::new(&exe)
            .args(argv)
            .args(["--workload", kind.name()])
            .status()
        {
            Ok(status) => all_ok &= status.success(),
            Err(e) => {
                eprintln!("cannot start {}: {e}", kind.name());
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = args.workload else {
        return run_all(&argv);
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS });
    let cfg = RunConfig {
        kind,
        seed: args.seed,
        rows: if args.smoke { SMOKE_ROWS } else { FULL_ROWS },
        warmup: if args.smoke { SMOKE_WARMUP } else { WARMUP },
        window: Duration::from_secs_f64(seconds),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let outcome = check_parallelism(kind).and_then(|()| {
        if args.trace {
            run_traced(&cfg)
        } else {
            run_untraced(&cfg)
        }
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", kind.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {seconds} trace {} rows {}",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        cfg.rows
    );
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    print!("{}", outcome.report);
    for p in &outcome.problems {
        println!("WRONG: {p}");
    }
    if outcome.failed > 0 {
        println!(
            "WRONG: {} of {} operations got a wrong, ERR, or refused reply",
            outcome.failed, outcome.attempted
        );
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
