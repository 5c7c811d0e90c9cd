//! Command-line surface.
//!
//! With no subcommand the binary is the benchmark contract's program: it
//! measures one workload and prints one result line. The subcommands wrap
//! that for people: `run` and `trace` produce result files over all six
//! workloads, `compare` judges two of them.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::child::NEEDS_UNTRACED_EXE;
use crate::single::{measure, Options};
use crate::spans::to_jsonl;
use crate::workloads::{Scale, Workload};
use crate::{compare, suite};

const USAGE: &str = "\
usage:
  rtr-benchmark --workload NAME --seed N --seconds S --trace 0 [--scale full|smoke]
      measure one workload; the last line of stdout is the result object with the
      end-to-end metrics
  rtr-benchmark --workload NAME --seed N --seconds S --trace 1 --untraced-exe PATH
                [--scale full|smoke] [--spans PATH]
      the same with the per-layer metrics (needs --features traced); every repeat is
      followed by one of PATH, the build without the feature, which
      trace.overhead_ratio is measured against
  rtr-benchmark run [--seed 42] [--scale full|smoke] [--out PATH]
      end-to-end metrics of all six workloads: 5 processes per workload, 10 s each
  rtr-benchmark trace --untraced-exe PATH [--seed 42] [--scale full|smoke] [--out-dir trace-out]
      per-layer metrics of all six workloads (trace.json) plus spans.jsonl, one traced
      process per workload (needs --features traced)
  rtr-benchmark compare A.json B.json
      per-metric table of two `run` files; exit 1 if B leaves a bound

workloads: dense_mixed dense_tc sparse_leap mega_cold churn_live admit_storm";

/// Flags of one invocation, in the order given.
pub(crate) struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses `--key value` pairs; anything else is an error.
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut args = args.iter();
        while let Some(key) = args.next() {
            let name =
                key.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = args.next().ok_or_else(|| format!("{key} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Flags(flags))
    }

    pub(crate) fn take(&mut self, name: &str) -> Option<String> {
        let at = self.0.iter().position(|(k, _)| k == name)?;
        Some(self.0.remove(at).1)
    }

    pub(crate) fn number<T: std::str::FromStr>(
        &mut self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.take(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{name}: `{v}`")),
        }
    }

    pub(crate) fn scale(&mut self) -> Result<Scale, String> {
        match self.take("scale").as_deref() {
            None | Some("full") => Ok(Scale::Full),
            Some("smoke") => Ok(Scale::Smoke),
            Some(other) => Err(format!("bad value for --scale: `{other}` (want full or smoke)")),
        }
    }

    pub(crate) fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some((key, _)) => Err(format!("unknown flag --{key}")),
        }
    }
}

fn single(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::parse(args)?;
    let name = flags.take("workload").ok_or("--workload is required")?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seconds: f64 = flags.number("seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let seed = flags.number("seed", 42)?;
    let scale = flags.scale()?;
    let trace = match flags.take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad value for --trace: `{other}` (want 0 or 1)")),
    };
    let (untraced_exe, spans_path) = if trace {
        (flags.take("untraced-exe").map(PathBuf::from), flags.take("spans").map(PathBuf::from))
    } else {
        (None, None)
    };
    flags.finish()?;
    if trace && untraced_exe.is_none() {
        return Err(NEEDS_UNTRACED_EXE.to_string());
    }
    let options = Options { workload, seed, seconds, trace, untraced_exe, scale };
    let measurement = measure(&options)?;
    println!(
        "{} seed {} ({}): {}",
        workload.name(),
        options.seed,
        options.scale.name(),
        workload.sizes(options.scale)
    );
    for metric in &measurement.metrics {
        println!("  {:<44} {:>18.6} {}", metric.name, metric.value, metric.unit);
    }
    if let Some(path) = spans_path {
        std::fs::write(&path, to_jsonl(&measurement.spans, workload.name()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("detail {}", measurement.detail.render());
    println!("{}", measurement.result_line());
    // A failed check is in the result line; the exit code says the same.
    Ok(if measurement.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Parses the process arguments and runs the chosen command.
#[must_use]
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => Flags::parse(&args[1..]).and_then(suite::run),
        Some("trace") => Flags::parse(&args[1..]).and_then(suite::trace),
        Some("compare") => compare::main(&args[1..]),
        Some(_) => single(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("rtr-benchmark: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
