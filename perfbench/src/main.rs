//! End-to-end benchmark of the LeHDC system at the paper's D = 10,000.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lehdc_mnist --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (inputs are synthetic paper profiles generated from `--seed`):
//!
//! - `lehdc_mnist` — LeHDC training (Table 2 MNIST row, 5 epochs) at 1 thread;
//! - `retrain_isolet` — QuantHD retraining (30 iterations) at 1 thread on
//!   ISOLET with 10% of the training labels moved to another class;
//! - `serve_pamap` — the in-process daemon under an open-loop phase at a
//!   fixed rate and a closed-loop phase with in-band model swaps.
//!
//! `--trace 0` measures the end-to-end metrics with every recorder the
//! benchmark controls switched off; `--trace 1` is a separate run that
//! enables them and prints per-layer numbers instead. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and calls clock_gettime with the 64-bit Linux ABI");

mod report;
mod serve;
mod stats;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{json_str, Report, END_TO_END, PER_LAYER};

/// The paper's hypervector dimension.
pub const DIM: usize = 10_000;
/// Quantization levels of the record encoder.
pub const LEVELS: usize = 32;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <lehdc_mnist|retrain_isolet|serve_pamap> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU clocks of `clock_gettime(2)` on Linux.
#[derive(Debug, Clone, Copy)]
pub enum CpuClock {
    /// Every thread of this process, exited ones included.
    Process = 2,
    /// The calling thread.
    Thread = 3,
}

/// CPU time of `clock`, in seconds. Unlike wall time it leaves out the time
/// the hypervisor stole from a vCPU and the time spent waiting for one: on
/// a shared host these add up to a third of wall time in busy phases.
pub fn cpu_s(clock: CpuClock) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout of
    // x86-64 and aarch64 Linux, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(clock as i32, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock:?}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A scratch directory for saved bundles, inside the working directory
/// and removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.meta("workload", json_str(&args.workload));
    report.meta("seed", args.seed.to_string());
    report.meta("seconds", args.seconds.as_secs().to_string());
    report.meta("trace", args.trace.to_string());
    report.meta("nproc", nproc.to_string());
    report.meta("kernel_tier", json_str(hdc::kernels::active_tier().name()));
    report.meta("dim", DIM.to_string());
    report.meta("levels", LEVELS.to_string());
    report.meta("setups", SETUPS.to_string());
    let work = WorkDir::create(&args.workload).map_err(|e| format!("work dir: {e}"))?;
    match args.workload.as_str() {
        "lehdc_mnist" | "retrain_isolet" => train::run(args, &work, &mut report)?,
        "serve_pamap" => serve::run(args, &work, &mut report)?,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print(if args.trace { PER_LAYER } else { END_TO_END });
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload serve_pamap --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_pamap");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload x --seed 1 --seconds 1",
            "--workload x --seed -1 --seconds 1 --trace 0",
            "--workload x --seed 1 --seconds 0 --trace 0",
            "--workload x --seed 1 --seconds 1 --trace 2",
            "--workload x --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn cpu_clocks_advance_with_work_only() {
        let (thread, process) = (cpu_s(CpuClock::Thread), cpu_s(CpuClock::Process));
        let mut x = 0u64;
        while cpu_s(CpuClock::Thread) - thread < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s(CpuClock::Process) - process >= 0.02);
        let before = cpu_s(CpuClock::Thread);
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            cpu_s(CpuClock::Thread) - before < 0.025,
            "sleeping costs no CPU"
        );
    }
}
