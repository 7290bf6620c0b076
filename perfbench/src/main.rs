//! `perfbench`: the end-to-end and per-layer benchmark of 2PS-L.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's graph from the seed, hands the program only the
//! edges (it ingests them into the workload's file format), then measures:
//! with `--trace 0` the end-to-end metrics of repeated jobs, each in a child
//! process of its own and each checked by the output oracle; with
//! `--trace 1` the per-layer metrics from spans around public calls. The
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See README.md.

mod job;
mod layers;
mod oracle;
mod replay;
mod trace;
mod workload;

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tps_io::open_ranged_backend;

use crate::job::{ChildArgs, JobResult};
use crate::oracle::{Claimed, Fingerprint, FingerprintSink};
use crate::trace::Tracer;
use crate::workload::{Engine, Reference, Workload};

/// Ingests per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Jobs per run at least, however long they take.
const MIN_JOB_REPS: usize = 3;
/// The balance factor every job runs with (`PartitionParams::new`).
const ALPHA: f64 = 1.05;
/// Streaming passes of a 2PS-L job with one clustering pass: degree,
/// clustering, pre-partitioning and scoring.
const STREAM_PASSES: u64 = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("job") {
        parse_child(&args[1..]).and_then(|a| job::child_main(&a).map_err(|e| e.to_string()))
    } else {
        parse_run(&args).and_then(|a| run(&a).map_err(|e| e.to_string()))
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name)?;
    v.parse()
        .map_err(|_| format!("{name}: not a number: {v:?}"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let name = flag(args, "--workload")?;
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    Ok(RunArgs {
        workload,
        seed: number(args, "--seed")?,
        seconds: number(args, "--seconds")?,
        trace: match flag(args, "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
    })
}

fn parse_child(args: &[String]) -> Result<ChildArgs, String> {
    Ok(ChildArgs {
        engine: Engine::parse(flag(args, "--engine")?)?,
        reader: flag(args, "--reader")?.parse()?,
        k: number(args, "--k")?,
        input: PathBuf::from(flag(args, "--input")?),
        out: PathBuf::from(flag(args, "--out")?),
    })
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Attempted and failed checks of one run.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Count one check; report it on stderr when it fails.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", why());
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The regime each workload was chosen for; a job outside it is failed,
/// not fast.
pub fn regime_errors(
    w: &Workload,
    job: &JobResult,
    num_edges: u64,
    overlay_words: u64,
) -> Vec<String> {
    let chunks = w.chunks(num_edges);
    let decoded = job.obs("io.v2.chunks_decoded");
    let mut errors = Vec::new();
    match w.engine {
        Engine::Serial if decoded != chunks => errors.push(format!(
            "decoded {decoded} chunks, expected each of the {chunks} exactly once"
        )),
        Engine::Paged { .. } => {
            let evictions = job.report("paging_evictions");
            if evictions == 0 {
                errors.push("the paged job never evicted a cluster page".to_string());
            }
            if decoded < STREAM_PASSES * chunks {
                errors.push(format!(
                    "decoded {decoded} chunks: not all {chunks} on each of {STREAM_PASSES} passes"
                ));
            }
        }
        Engine::Threads(_) if overlay_words == 0 => {
            errors.push("no worker wrote to its replica overlay".to_string())
        }
        Engine::Dist(_) if job.obs("dist.frames.sent") == 0 => {
            errors.push("the distributed job sent no frames".to_string())
        }
        _ => {}
    }
    errors
}

/// A per-run working directory inside the checkout, removed at the end.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &RunArgs) -> io::Result<()> {
    let root = std::env::current_dir()?.join(".bench_work");
    let work = WorkDir(root.join(format!(
        "{}-seed{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    )));
    let tmp = work.0.join("tmp");
    std::fs::create_dir_all(&tmp)?;
    // The program's page stores and spools go to the temp dir: keep them
    // inside the checkout. Set before any thread starts; children inherit.
    std::env::set_var("TMPDIR", &tmp);

    let mut checks = Checks::default();
    let metrics = if args.trace {
        let traces = root.join("traces");
        std::fs::create_dir_all(&traces)?;
        let trace_path = traces.join(format!("{}-seed{}.jsonl", args.workload.name, args.seed));
        let metrics = layers::run(args.workload, args.seed, &work.0, &trace_path, &mut checks)?;
        println!("trace: {}", trace_path.display());
        metrics
    } else {
        end_to_end(args, &work.0, &mut checks)?
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(io::Error::other(format!("{} is not a number", m.name)));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    Ok(())
}

/// Flush the ingested input to disk, so no write-back of it competes with
/// the next timed step.
pub fn settle(path: &Path) -> io::Result<()> {
    std::fs::File::open(path)?.sync_all()
}

/// One oracle-checked job of the timed loop.
struct Rep {
    wall_s: f64,
    peak_rss_mb: f64,
    replication_factor: f64,
    balance: f64,
}

fn end_to_end(args: &RunArgs, work: &Path, checks: &mut Checks) -> io::Result<Vec<Metric>> {
    let w = args.workload;
    let graph = w.generate(args.seed);
    let input = Fingerprint::of_input(graph.edges());
    let (nv, ne) = (graph.num_vertices(), graph.num_edges());
    let path = work.join(w.input_file_name());
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        w.ingest(&graph, &path)?;
        w.open(&path)?;
        setup.push(start.elapsed().as_secs_f64());
        settle(&path)?;
    }
    drop(graph);

    // What every job must reproduce bit for bit.
    let (reference, overlay_words) = match w.reference {
        Reference::Replay => {
            let source = open_ranged_backend(&path, w.reader.into())?;
            let mut fp = FingerprintSink::default();
            let r = replay::replay(&*source, w.engine, w.k, &Tracer::new(false), 0, &mut fp)?;
            (fp.0, r.overlay_words)
        }
        Reference::Job(engine) => {
            let out = work.join("reference.asg");
            job::spawn(&ChildArgs {
                engine,
                reader: w.reader,
                k: w.k,
                input: path.clone(),
                out: out.clone(),
            })?;
            let fingerprint = oracle::recompute_file(&out, nv, w.k)?.fingerprint;
            std::fs::remove_file(&out)?;
            (fingerprint, 0)
        }
    };
    checks.expect(
        reference.edges == input.edges && reference.count == ne,
        || "the reference did not assign every input edge exactly once".to_string(),
    );

    let job_args = ChildArgs {
        engine: w.engine,
        reader: w.reader,
        k: w.k,
        input: path,
        out: work.join("job.asg"),
    };
    let mut reps = Vec::new();
    let start = Instant::now();
    let mut attempted = 0;
    while attempted < MIN_JOB_REPS || start.elapsed() < Duration::from_secs(args.seconds) {
        attempted += 1;
        match job_rep(w, &job_args, &input, &reference, nv, overlay_words) {
            Ok((rep, errors)) => {
                checks.expect(errors.is_empty(), || errors.join("; "));
                reps.push(rep);
            }
            Err(e) => checks.expect(false, || format!("job failed: {e}")),
        }
    }
    if reps.is_empty() {
        return Err(io::Error::other("no job completed"));
    }
    let of = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    Ok(vec![
        Metric::new(
            "throughput_medges_s",
            of(|r| r.wall_s.recip()) * ne as f64 / 1e6,
            "Medges/s",
        ),
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("peak_rss_mb", of(|r| r.peak_rss_mb), "MB"),
        Metric::new("replication_factor", of(|r| r.replication_factor), "ratio"),
        Metric::new("balance", of(|r| r.balance), "ratio"),
        Metric::new(
            "ok_frac",
            (checks.attempted - checks.failed) as f64 / checks.attempted as f64,
            "ratio",
        ),
    ])
}

/// Run one job in a child process and hold its output to the oracle, the
/// reference and the workload's regime.
fn job_rep(
    w: &Workload,
    job_args: &ChildArgs,
    input: &Fingerprint,
    reference: &Fingerprint,
    num_vertices: u64,
    overlay_words: u64,
) -> io::Result<(Rep, Vec<String>)> {
    let job = job::spawn(job_args)?;
    let out = oracle::recompute_file(&job_args.out, num_vertices, w.k)?;
    // Unlinked before write-back, its dirty pages never reach the disk
    // while the next job runs.
    std::fs::remove_file(&job_args.out)?;
    let claimed = Claimed {
        replication_factor: job.replication_factor,
        balance: job.balance,
        cap_overshoot: job.report("cap_overshoot"),
    };
    let mut errors = oracle::check(input, &out, &claimed, w.k, ALPHA);
    if out.fingerprint != *reference {
        errors.push(format!(
            "assignments {:016x} differ from the reference {:016x}",
            out.fingerprint.sequence, reference.sequence
        ));
    }
    errors.extend(regime_errors(w, &job, input.count, overlay_words));
    let rep = Rep {
        wall_s: job.wall.as_secs_f64(),
        peak_rss_mb: job.peak_rss_kb as f64 / 1024.0,
        replication_factor: out.replication_factor,
        balance: out.balance,
    };
    println!(
        "job: wall_s={:.4} peak_rss_mb={:.1} rf={:.6} balance={:.6} chunks_decoded={} paging_evictions={} paging_faults={} frames={} overlay_words={} assignments={:016x}",
        rep.wall_s,
        rep.peak_rss_mb,
        rep.replication_factor,
        rep.balance,
        job.obs("io.v2.chunks_decoded"),
        job.report("paging_evictions"),
        job.report("paging_faults"),
        job.obs("dist.frames.sent"),
        overlay_words,
        out.fingerprint.sequence,
    );
    Ok((rep, errors))
}
