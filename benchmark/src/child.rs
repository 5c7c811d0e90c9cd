//! Child processes: the contract's program, started on one workload and
//! read back. `run` and `trace` start this executable once per measurement;
//! a traced process starts the untraced build to have something to measure
//! its overhead against.

use std::path::Path;
use std::process::Command;

use crate::json::{self, Json};
use crate::workloads::{Scale, Workload};

/// Why a traced run asks for a second executable.
pub(crate) const NEEDS_UNTRACED_EXE: &str =
    "a traced run needs --untraced-exe PATH, the build of this program without \
     `--features traced`: its run_s is what trace.overhead_ratio is measured against \
     (benchmark/run.sh builds both and passes it)";

/// One child process: the contract's program on one workload.
pub(crate) struct Child<'a> {
    /// The program: this executable, or the untraced build of it.
    pub exe: &'a Path,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// A traced child: the untraced build it measures its overhead against
    /// and the file it writes its spans to. `None` for an untraced child.
    pub traced: Option<(&'a Path, &'a Path)>,
}

/// Runs `child` to its end and returns its result line and its detail line.
pub(crate) fn run_child(child: &Child) -> Result<(Json, Json), String> {
    let workload = child.workload;
    let mut command = Command::new(child.exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &child.seed.to_string()])
        .args(["--seconds", &child.seconds.to_string()])
        .args(["--scale", child.scale.name()])
        .args(["--trace", if child.traced.is_some() { "1" } else { "0" }]);
    if let Some((untraced_exe, spans)) = child.traced {
        command.arg("--untraced-exe").arg(untraced_exe).arg("--spans").arg(spans);
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start {} on {}: {e}", child.exe.display(), workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let failed = |what: &str| {
        format!(
            "{} on {}: {what}; stderr: {}",
            child.exe.display(),
            workload.name(),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    };
    let result = lines.next().ok_or_else(|| failed("no output"))?;
    let detail = lines
        .find_map(|line| line.strip_prefix("detail "))
        .ok_or_else(|| failed("no detail line"))?;
    let result =
        json::parse(result).map_err(|e| failed(&format!("unreadable result line ({e})")))?;
    let detail = json::parse(detail).map_err(|e| format!("{}: {e}", workload.name()))?;
    Ok((result, detail))
}
