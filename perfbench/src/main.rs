//! `hcsp-perfbench`: the end-to-end and per-layer benchmark of the hcsp workspace.
//!
//! ```text
//! hcsp-perfbench --workload <batch-sparse|batch-dense|serve-rw> --seed <n> --seconds <s>
//!                --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Progress goes to standard error; the last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones, and the run's
//! spans are written to `<out-dir>/trace-<workload>-seed<n>.json`. See `README.md`.

// The result line on standard output is this program's product.
#![allow(clippy::print_stdout)]

mod batch;
mod layers;
mod serve;
mod stages;
mod trace;
mod util;

use batch::BatchShape;
use hcsp_workload::Dataset;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(parse::<u64>(&flag, &value)?),
            "--seconds" => seconds = Some(parse::<f64>(&flag, &value)?),
            "--trace" => trace = Some(parse::<u8>(&flag, &value)?),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hcsp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "hcsp-perfbench: cannot create {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let (metrics, checked) = match args.workload.as_str() {
        "batch-sparse" => batch::run(
            &BatchShape {
                dataset: Dataset::TW,
                collect: true,
                k_min: 4,
                k_max: 7,
            },
            &args,
        ),
        "batch-dense" => batch::run(
            &BatchShape {
                dataset: Dataset::UK,
                collect: false,
                k_min: 4,
                k_max: 6,
            },
            &args,
        ),
        "serve-rw" => serve::run(&args),
        other => {
            eprintln!("hcsp-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} (seed {}, trace {}): {} checked, {} failed\n{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        checked.attempted,
        checked.failed,
        metrics.describe()
    );
    println!("{}", metrics.result_line(checked.attempted, checked.failed));
    ExitCode::SUCCESS
}
