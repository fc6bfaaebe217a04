//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_replay|sim_faulty|join|nash> --seed <n> \
//!     --seconds <s> --trace <0|1> [--toy]
//! ```
//!
//! Inputs are generated from `--seed`; only the public entry points of the
//! library crates are timed, in a closed loop (the next call starts when
//! the previous one returned). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer metrics, with `lcg-obs` recording
//! switched on in this process only, after an untraced reference run in a
//! child process. `--toy` shrinks every input for the benchmark's own
//! test. The last line of standard output is the JSON result.

mod catalogue;
mod harness;
mod join;
mod nash;
mod sim;

use harness::{Checks, Metrics};
use std::process::Command;

const WORKLOADS: &[&str] = &["sim_replay", "sim_faulty", "join", "nash"];

/// One benchmark invocation.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<String, String> {
    let args = parse_args(std::env::args().skip(1))?;
    // Pin the worker count to the hardware so every result states it.
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    lcg_parallel::set_max_threads(hardware);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} hardware_threads={hardware} workers={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        lcg_parallel::max_threads(),
    );
    let (checks, metrics) = if args.trace {
        traced(&args, hardware)?
    } else {
        untraced(&args)?
    };
    harness::result_line(&checks, &metrics, args.trace)
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Run, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut toy) = (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--toy" {
            toy = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        toy,
    })
}

/// The end-to-end run: set-up, the timed loop, then the output checks.
fn untraced(run: &Run) -> Result<(Checks, Metrics), String> {
    let (checks, mut metrics) = match run.workload.as_str() {
        "join" => join::measure(run),
        "nash" => nash::measure(run),
        _ => sim::measure(run),
    };
    metrics.set("ops_ok_share", checks.ok_share());
    metrics.set("peak_rss_mb", harness::peak_rss_mb()?);
    Ok((checks, metrics))
}

/// The per-layer run. The untraced reference wall time comes from a child
/// process, so it never shares the `lcg-obs` span collector or registry
/// with the traced numbers measured here.
fn traced(run: &Run, hardware: usize) -> Result<(Checks, Metrics), String> {
    let untraced_wall = untraced_child(run)?;
    let (checks, mut metrics) = match run.workload.as_str() {
        "join" => join::trace(run, untraced_wall),
        "nash" => nash::trace(run, untraced_wall),
        _ => sim::trace(run, untraced_wall),
    };
    metrics.set("parallel.hardware_threads", hardware as f64);
    metrics.set("parallel.threads", lcg_parallel::max_threads() as f64);
    Ok((checks, metrics))
}

fn untraced_child(run: &Run) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let seconds = (run.seconds / 2.0).max(1.0).min(run.seconds);
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &run.workload])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"]);
    if run.toy {
        cmd.arg("--toy");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("running the untraced child: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("untraced child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    harness::metric_in_line(last, "wall_s").ok_or(format!("no wall_s in child output {last:?}"))
}
