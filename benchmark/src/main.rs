//! `ib-benchmark`: the repository's end-to-end and per-layer performance
//! account. Every layer is measured from outside, through its crate's
//! public functions. See README.md for the workloads, the metrics and how
//! to read a result.
//!
//! ```text
//! ib-benchmark run     [--seed S] [--out FILE] [--reps N] [--smoke]
//! ib-benchmark trace   [--seed S] [--out FILE] [--smoke]
//! ib-benchmark compare A.json B.json
//! ib-benchmark --workload NAME --seed S --seconds T --trace 0|1
//! ```
//!
//! `run` and `trace` start one worker process per workload (the last
//! form), so `peak_rss_mb` is per workload. The worker form is also what
//! `BENCHMARK.json`'s `command` invokes: its last line of standard output
//! is the contract's one JSON object.

mod catalogue;
mod compare;
mod cosim;
mod engine;
mod gen;
mod host;
mod probes;
mod rc;
mod report;
mod span;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ib_runtime::{Json, ToJson};

use report::{gate_repetitions, WorkloadResult};
use span::Tracer;
use workload::{Workload, SCALE_DIVISOR};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Repetitions of a fixed-count run.
const DEFAULT_REPS: usize = 5;
/// `--smoke` shrinks every workload by this factor again.
const SMOKE_DIVISOR: u64 = 20;

const USAGE: &str = "usage:
  ib-benchmark run     [--seed S] [--out FILE] [--reps N] [--smoke]
  ib-benchmark trace   [--seed S] [--out FILE] [--smoke]
  ib-benchmark compare A.json B.json
  ib-benchmark --workload NAME [--seed S] (--seconds T | --reps N) [--trace 0|1]
               [--size-divisor D] [--emit contract|full] [--out-dir DIR]
workloads: rc_stream_1k rc_small_64 fabric_rdma_lossy rekey_1024qp mesh_dos_sif
           fattree_1k_serial fattree_1k_par2";

/// `--flag value` lookup.
fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// A `u64` in decimal or `0x` hex.
fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("{text:?} is not a u64"))
}

fn u64_arg(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    arg(args, flag).map_or(Ok(default), |v| {
        parse_u64(v).map_err(|e| format!("{flag}: {e}"))
    })
}

/// Where results and traces go: `benchmark/out` from the repository
/// root, `out` from inside the package.
fn default_out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

// -------------------------------------------------------------- worker

/// How long a worker keeps repeating.
enum Length {
    Reps(usize),
    Seconds(u64),
}

/// Run one workload in this process and print its result; the last line
/// of standard output is one JSON object.
fn worker(args: &[String]) -> Result<ExitCode, String> {
    let name = arg(args, "--workload").ok_or("--workload needs a name")?;
    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let seed = u64_arg(args, "--seed", gen::DEFAULT_SEED)?;
    let size_divisor = u64_arg(args, "--size-divisor", SCALE_DIVISOR)?.max(1);
    let traced = u64_arg(args, "--trace", 0)? != 0;
    let length = match (arg(args, "--seconds"), arg(args, "--reps")) {
        (Some(s), _) => Length::Seconds(parse_u64(s)?),
        (None, Some(n)) => Length::Reps(parse_u64(n)?.max(1) as usize),
        (None, None) => Length::Reps(DEFAULT_REPS),
    };
    let full = match arg(args, "--emit") {
        None | Some("contract") => false,
        Some("full") => true,
        Some(other) => return Err(format!("--emit {other:?}: expected contract or full")),
    };
    let out_dir = arg(args, "--out-dir").map_or_else(default_out_dir, PathBuf::from);

    let started = Instant::now();
    let mut result = WorkloadResult {
        workload,
        size_divisor,
        repetitions: Vec::new(),
        peak_rss_mb: 0.0,
        layers: Vec::new(),
        extra_failures: Vec::new(),
    };
    if traced {
        let t = trace::traced_run(workload, seed, size_divisor, Some(&out_dir));
        result.repetitions = t.repetitions;
        result.layers = t.layers;
        result.extra_failures = t.trace_faults;
    } else {
        // One unrecorded repetition first: the allocator's thresholds and,
        // for the two-thread driver, the second CPU take a second or two
        // of a fresh process to reach steady state.
        std::hint::black_box(workload.repetition(seed, size_divisor, &mut Tracer::off()));
        loop {
            result
                .repetitions
                .push(workload.repetition(seed, size_divisor, &mut Tracer::off()));
            let done = match length {
                Length::Reps(n) => result.repetitions.len() >= n,
                Length::Seconds(s) => started.elapsed() >= Duration::from_secs(s),
            };
            if done {
                break;
            }
        }
    }
    gate_repetitions(&mut result.repetitions);
    result.peak_rss_mb = host::peak_rss_mb();

    result.print();
    let line = if full {
        result.to_json()
    } else {
        result.contract_line(traced)
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------- run and trace

/// Start one worker per workload and collect their documents.
fn run_workers(seed: u64, size_divisor: u64, extra: &[&str]) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut docs = Vec::new();
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name(), "--emit", "full"])
            .args(["--seed", &seed.to_string()])
            .args(["--size-divisor", &size_divisor.to_string()])
            .args(extra)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {} worker: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (table, last) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{table}");
        if !output.status.success() {
            return Err(format!(
                "the {} worker exited with {}",
                workload.name(),
                output.status
            ));
        }
        let doc = Json::parse(last).map_err(|e| {
            format!(
                "the {} worker's result does not parse: {e}",
                workload.name()
            )
        })?;
        docs.push(doc);
    }
    Ok(docs)
}

/// Write `doc`, read it back through the workspace's own parser, and
/// report the failed operations it records.
fn write_result(path: &Path, doc: &Json) -> Result<u64, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let back = Json::parse(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    let failed = back
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("result has no workloads")?
        .iter()
        .map(|w| w.get("ops_failed").and_then(Json::as_u64).unwrap_or(1))
        .sum();
    println!("wrote {} (parses back)", path.display());
    Ok(failed)
}

fn run_or_trace(traced: bool, args: &[String]) -> Result<ExitCode, String> {
    let seed = u64_arg(args, "--seed", gen::DEFAULT_SEED)?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps = if smoke || traced {
        1
    } else {
        u64_arg(args, "--reps", DEFAULT_REPS as u64)?.max(1) as usize
    };
    let size_divisor = SCALE_DIVISOR * if smoke { SMOKE_DIVISOR } else { 1 };
    let out_dir = default_out_dir();
    let out = arg(args, "--out").map_or_else(
        || out_dir.join(if traced { "trace.json" } else { "result.json" }),
        PathBuf::from,
    );

    let reps_text = reps.to_string();
    let out_dir_text = out_dir.to_string_lossy().into_owned();
    let extra: Vec<&str> = if traced {
        vec!["--trace", "1", "--out-dir", &out_dir_text]
    } else {
        vec!["--reps", &reps_text]
    };
    let docs = run_workers(seed, size_divisor, &extra)?;
    let doc = Json::obj([
        ("benchmark", "ib-benchmark".to_json()),
        ("mode", if traced { "trace" } else { "run" }.to_json()),
        ("host", host::fingerprint(seed, reps, size_divisor)),
        ("workloads", Json::arr(docs)),
    ]);
    let failed = write_result(&out, &doc)?;
    if failed > 0 {
        println!("{failed} operations failed a correctness gate");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p} does not parse: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        if let Some(host) = doc.get("host") {
            println!("{label}: {host}");
        }
    }
    Ok(if compare::compare(&a, &b) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_or_trace(false, &args[1..]),
        Some("trace") => run_or_trace(true, &args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(_) if arg(&args, "--workload").is_some() => worker(&args),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
