//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <fleet_overload|fleet_prefix_swap|runtime_w4a8kv4|all>
//!           [--seed <n>] [--seconds <n>] [--trace <0|1>] [--size <full|tiny>]
//!           [--state-dir <dir>]
//! ```
//!
//! An untraced run (`--trace 0`) serves the workload repeatedly for
//! `--seconds` and prints the end-to-end metrics; a traced run
//! (`--trace 1`) prints the per-layer metrics, measured from outside the
//! program by timing and counting calls into its public functions. Both
//! check the program's outputs, print an environment line and end with one
//! JSON result line. `--size tiny` shrinks every workload to a smoke test
//! that still runs every check; `--workload all` runs every workload in
//! turn, untraced and traced. `--state-dir` keeps an output digest per
//! workload definition and seed, so a later run of the same seed, traced or
//! not, must reproduce the first one's outputs bit for bit.

mod fleet;
mod host;
mod metrics;
mod probe;
mod runtime;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Outcome, END_TO_END, PER_LAYER};

/// The sweeps' workload seed.
const DEFAULT_SEED: u64 = 20240603;
const WORKLOADS: &[&str] = &["fleet_overload", "fleet_prefix_swap", "runtime_w4a8kv4"];

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// A seconds-long smoke size running every check.
    Tiny,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    state_dir: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        state_dir: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size takes full or tiny, not {v}")),
                }
            }
            "--state-dir" => args.state_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// Compares `digest` with the one an earlier run stored under `dir` for
/// the same `key`, storing it when there is none.
fn check_digest(
    dir: &std::path::Path,
    key: &str,
    digest: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{key}.digest"));
    match std::fs::read_to_string(&path) {
        Ok(prev) => out.check(prev.trim() == digest, || {
            format!(
                "{key}: outputs {digest} differ from an earlier run's {}",
                prev.trim()
            )
        }),
        Err(_) => std::fs::write(&path, digest).map_err(|e| format!("{}: {e}", path.display()))?,
    }
    Ok(())
}

/// Runs one workload in one mode, returning its outcome.
fn run_one(name: &str, args: &Args, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (described, digest) = match name {
        "runtime_w4a8kv4" => {
            let case = runtime::RuntimeCase::new(args.size, args.seed);
            println!("{}", case.describe());
            let digest = if trace {
                runtime::trace(&case, &mut out)?
            } else {
                runtime::measure(&case, args.seconds, &mut out)?
            };
            (case.describe(), digest)
        }
        _ => {
            let case = match name {
                "fleet_overload" => fleet::FleetCase::overload(args.size, args.seed),
                _ => fleet::FleetCase::prefix_swap(args.size, args.seed),
            };
            println!("{}", case.describe());
            let digest = if trace {
                fleet::trace(&case, &mut out)?
            } else {
                fleet::measure(&case, args.seconds, &mut out)?
            };
            (case.describe(), digest)
        }
    };
    if let Some(dir) = &args.state_dir {
        // The key pins the workload's full definition, so a changed
        // benchmark never compares against a stale digest.
        let mut definition = metrics::Digest::default();
        for b in described.bytes() {
            definition.word(u64::from(b));
        }
        let key = format!("{name}-{}-{}", args.seed, definition.hex());
        check_digest(dir, &key, &digest, &mut out)?;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(&host::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::env_line());
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let modes: Vec<bool> = if args.workload == "all" {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut last = String::new();
    for &name in &names {
        for &trace in &modes {
            let mut out = match run_one(name, &args, trace) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for f in &out.failures {
                eprintln!("perfbench: check failed: {f}");
            }
            last = out.json(if trace { PER_LAYER } else { END_TO_END });
            all_correct &= out.correct();
            attempted += out.attempted;
            failed += out.failed;
            if names.len() > 1 {
                println!("{name} trace={}: {last}", u8::from(trace));
            }
        }
    }
    if names.len() > 1 {
        println!(
            "{{\"correct\": {all_correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
        );
    } else {
        println!("{last}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
