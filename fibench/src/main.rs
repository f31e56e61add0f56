//! `fibench` — the campaign benchmark of the emulation platform.
//!
//! ```text
//! fibench --workload <fig3_permanent|seu_window|server_stream> \
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the program only ever sees the
//! generated evaluation images, fault targets and windows. The workload is
//! set up, timed for `--seconds` (whole rounds of campaigns, see
//! [`inprocess`] and [`stream`]), and its outputs are checked against an
//! independent execution outside the timed region.
//!
//! * `--trace 0` measures with the `nvfi_obs` recorder off and reports the
//!   end-to-end metrics.
//! * `--trace 1` repeats the timed loop once untraced and once traced,
//!   records the benchmark's own spans around each public call it times
//!   (beside the program's `campaign.*`, `pool.shard` and `shard.*`
//!   spans), runs the per-layer probes of [`layers`], exports the chrome
//!   trace and reports the per-layer metrics.
//!
//! Human-readable tables go to standard output; its last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! check makes the exit code non-zero.
//!
//! Build and run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path fibench/Cargo.toml -- \
//!     --workload fig3_permanent --seed 1 --seconds 10 --trace 0
//! ```

#![forbid(unsafe_code)]

mod host;
mod inprocess;
mod layers;
mod report;
mod rng;
mod spans;
mod stats;
mod stream;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig3Permanent,
    SeuWindow,
    ServerStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fig3_permanent" => Some(Workload::Fig3Permanent),
            "seu_window" => Some(Workload::SeuWindow),
            "server_stream" => Some(Workload::ServerStream),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Permanent => "fig3_permanent",
            Workload::SeuWindow => "seu_window",
            Workload::ServerStream => "server_stream",
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // The server workload's worker processes are this binary re-executed.
    nvfi_dist::worker::maybe_serve();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fibench: {e}");
            eprintln!(
                "usage: fibench --workload <fig3_permanent|seu_window|server_stream> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    host::print_record(
        args.workload.name(),
        args.seed,
        args.seconds as u64,
        args.trace,
    );
    let ticks_before = host::cpu_ticks();
    let result = match args.workload {
        Workload::Fig3Permanent | Workload::SeuWindow => inprocess::run(&args),
        Workload::ServerStream => stream::run(&args),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fibench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let ticks_after = host::cpu_ticks();
    let total = ticks_after.1.saturating_sub(ticks_before.1).max(1);
    println!(
        "# host: steal {:.2}% of CPU time during the run",
        100.0 * ticks_after.0.saturating_sub(ticks_before.0) as f64 / total as f64
    );
    outcome.print_table(if args.trace {
        "per-layer metrics (traced run)"
    } else {
        "end-to-end metrics (tracing off)"
    });
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
