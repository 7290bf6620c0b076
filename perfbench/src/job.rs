//! Running one partitioning job through the program's public entry points,
//! either in this process or in a child process that runs nothing else (so
//! its peak RSS is the job's alone).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use tps_core::job::{JobSpec, ReaderKind, ThreadMode};
use tps_core::partitioner::{PartitionParams, RunReport};
use tps_core::sink::{AssignmentSink, QualitySink, TeeSink};
use tps_core::two_phase::TwoPhaseConfig;
use tps_io::v2::{set_decode_cache_budget, DECODE_CACHE_DEFAULT_BYTES};
use tps_io::{open_ranged_backend, run_job};

use crate::oracle::AssignmentWriter;
use crate::workload::Engine;

/// What a job reports about itself.
#[derive(Debug, Default)]
pub struct JobResult {
    /// From just before the input is opened until the last assignment has
    /// reached the (flushed) sink.
    pub wall: Duration,
    /// The process's VmHWM after the job (child processes only).
    pub peak_rss_kb: u64,
    pub replication_factor: f64,
    pub balance: f64,
    /// The returned `RunReport`'s counters.
    pub report: BTreeMap<String, u64>,
    /// How much each `tps_obs` counter grew during the job.
    pub obs: BTreeMap<String, u64>,
}

impl JobResult {
    pub fn report(&self, name: &str) -> u64 {
        self.report.get(name).copied().unwrap_or(0)
    }
    pub fn obs(&self, name: &str) -> u64 {
        self.obs.get(name).copied().unwrap_or(0)
    }
}

/// Run one job over `input` into `sink`, in this process. `trace` turns on
/// the program's own `tps-obs` tracing and writes its trace there.
pub fn run_engine(
    engine: Engine,
    reader: ReaderKind,
    k: u32,
    input: &Path,
    trace: Option<&Path>,
    sink: &mut dyn AssignmentSink,
) -> io::Result<JobResult> {
    let before: BTreeMap<String, u64> = tps_obs::counters_snapshot().into_iter().collect();
    let start = Instant::now();
    let (report, rf, balance) = match engine {
        Engine::Dist(workers) => run_dist(workers, reader, k, input, trace, sink)?,
        _ => {
            let mut spec = JobSpec::path(input).k(k).reader(reader);
            spec = match engine {
                Engine::Serial => spec.threads(ThreadMode::Serial),
                Engine::Paged { mem_budget_mb } => spec
                    .threads(ThreadMode::Serial)
                    .mem_budget_mb(mem_budget_mb),
                Engine::Threads(n) => spec.threads(ThreadMode::Count(n)),
                Engine::Dist(_) => unreachable!("handled above"),
            };
            if !matches!(engine, Engine::Paged { .. }) {
                // The decode-cache budget is process-global and a budgeted
                // job leaves its share behind: restore the default.
                set_decode_cache_budget(DECODE_CACHE_DEFAULT_BYTES);
            }
            if let Some(path) = trace {
                spec = spec.trace(path);
            }
            let outcome = run_job(spec.extra_sink(sink))?;
            (
                outcome.report,
                outcome.metrics.replication_factor,
                outcome.metrics.alpha,
            )
        }
    };
    let wall = start.elapsed();
    // A traced job resets the counters when it starts: count from zero then.
    let after = tps_obs::counters_snapshot();
    let obs = after
        .into_iter()
        .map(|(name, v)| {
            let base = if trace.is_some() {
                0
            } else {
                before.get(&name).copied().unwrap_or(0)
            };
            (name, v.saturating_sub(base))
        })
        .collect();
    Ok(JobResult {
        wall,
        peak_rss_kb: 0,
        replication_factor: rf,
        balance,
        report: report.counters.into_iter().collect(),
        obs,
    })
}

/// The loopback coordinator + workers, with the quality tracking and trace
/// handling a `JobSpec` job gets.
fn run_dist(
    workers: usize,
    reader: ReaderKind,
    k: u32,
    input: &Path,
    trace: Option<&Path>,
    sink: &mut dyn AssignmentSink,
) -> io::Result<(RunReport, f64, f64)> {
    if trace.is_some() {
        tps_obs::reset_events();
        tps_obs::reset_counters();
        tps_obs::set_enabled(true);
    }
    let source = open_ranged_backend(input, reader.into())?;
    let info = source.info();
    let params = PartitionParams::new(k);
    let mut quality = QualitySink::new(info.num_vertices, k);
    let report = {
        let mut tee = TeeSink::new(&mut quality, sink);
        tps_dist::run_dist_local(
            &*source,
            &TwoPhaseConfig::default(),
            &params,
            workers,
            &mut tee,
        )?
    };
    let metrics = quality.finish();
    if let Some(path) = trace {
        tps_obs::set_enabled(false);
        let events = tps_obs::take_events();
        let mut counters: Vec<(u32, String, u64)> = tps_obs::counters_snapshot()
            .into_iter()
            .map(|(n, v)| (0, n, v))
            .collect();
        counters.extend(tps_obs::take_remote_counters());
        let meta = tps_obs::TraceMeta {
            cmd: "dist".to_string(),
            algo: "2PS-L".to_string(),
            k,
            alpha: params.alpha,
            vertices: info.num_vertices,
            edges: info.num_edges,
        };
        tps_obs::write_trace(path, &meta, &events, &counters)?;
    }
    Ok((report, metrics.replication_factor, metrics.alpha))
}

/// Arguments of the `job` subcommand.
pub struct ChildArgs {
    pub engine: Engine,
    pub reader: ReaderKind,
    pub k: u32,
    pub input: PathBuf,
    pub out: PathBuf,
}

/// The child process: run the job into an assignment file and print what
/// it reports as `key value` lines.
pub fn child_main(args: &ChildArgs) -> io::Result<()> {
    let start = Instant::now();
    let mut out = AssignmentWriter::create(&args.out)?;
    let mut result = run_engine(
        args.engine,
        args.reader,
        args.k,
        &args.input,
        None,
        &mut out,
    )?;
    out.finish()?;
    result.wall = start.elapsed();
    println!("wall_ns {}", result.wall.as_nanos());
    println!("peak_rss_kb {}", vm_hwm_kb()?);
    println!("replication_factor {}", result.replication_factor);
    println!("balance {}", result.balance);
    for (name, v) in &result.report {
        println!("report {name} {v}");
    }
    for (name, v) in &result.obs {
        println!("obs {name} {v}");
    }
    Ok(())
}

/// The process's peak resident set (`VmHWM`), in KiB.
fn vm_hwm_kb() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Run one job in a child process (this executable's `job` subcommand),
/// waiting for it to exit.
pub fn spawn(args: &ChildArgs) -> io::Result<JobResult> {
    let output = Command::new(std::env::current_exe()?)
        .arg("job")
        .arg("--engine")
        .arg(args.engine.arg())
        .arg("--reader")
        .arg(args.reader.name())
        .arg("--k")
        .arg(args.k.to_string())
        .arg("--input")
        .arg(&args.input)
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(io::Error::other(format!(
            "job exited with {}",
            output.status
        )));
    }
    parse_child(&String::from_utf8_lossy(&output.stdout))
}

fn parse_child(text: &str) -> io::Result<JobResult> {
    let bad = |line: &str| io::Error::other(format!("unexpected job output line {line:?}"));
    let mut r = JobResult::default();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["wall_ns", v] => r.wall = Duration::from_nanos(v.parse().map_err(|_| bad(line))?),
            ["peak_rss_kb", v] => r.peak_rss_kb = v.parse().map_err(|_| bad(line))?,
            ["replication_factor", v] => r.replication_factor = v.parse().map_err(|_| bad(line))?,
            ["balance", v] => r.balance = v.parse().map_err(|_| bad(line))?,
            ["report", name, v] => {
                r.report
                    .insert(name.to_string(), v.parse().map_err(|_| bad(line))?);
            }
            ["obs", name, v] => {
                r.obs
                    .insert(name.to_string(), v.parse().map_err(|_| bad(line))?);
            }
            _ => return Err(bad(line)),
        }
    }
    if r.wall.is_zero() {
        return Err(io::Error::other("job printed no wall time"));
    }
    Ok(r)
}
