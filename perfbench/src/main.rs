//! Served-forecast benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_c8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload against `engine::ForecastEngine` in its default
//! deployment, checks the outputs, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. Exits 1 when a check fails, 2 on bad arguments. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod checks;
mod layers;
mod serve;
mod stats;

use checks::{Checks, Reference};
use serve::{Generator, Measured, Plan, Workload};
use stats::Metric;
use std::path::Path;

/// Outcome of one run, before printing.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Figures printed on the `#` table lines only, not in the result.
    pub shown: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Host STREAM triad, measured after the workload in the same run.
    pub triad_gib_s: f64,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve_c8|serve_distinct|forecast_c48> \
--seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// Clear every inherited `FV3_*` variable, so the program measured is the
/// default deployment whatever the calling environment sets
/// (`FV3_WORKERS`, `FV3_RANK_SCHEDULE`, `FV3_TUNE`, `FV3_CHECKPOINT_DIR`,
/// fault plans, ...). Returns the names cleared.
fn pin_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FV3_"))
        .collect();
    for k in &names {
        // Runs first thing in `main`, before any thread exists.
        std::env::remove_var(k);
    }
    names
}

/// Host CPU time so far from `/proc/stat`: (steal, total) in ticks.
fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// CPU time this process has used so far, all its threads (live and
/// exited) together, in seconds. The `timespec` layout is that of 64-bit
/// Linux.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak and current resident set size of this process, in MiB.
pub fn rss_mib() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// The commit of the checkout when it is a git work tree, read from
/// `.git` without running git; "unknown" otherwise.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the repository's program sources (`crates/`, `compat/`,
/// the root manifest and lock file): identifies the code measured where
/// there is no git metadata.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("compat"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Host STREAM triad over 3 × 4 Mi doubles (96 MiB, a third of the
/// shared L3 of the host the reference figures come from: arrays 4× the
/// LLC do not fit the memory this benchmark may use). Best of 5.
pub fn stream_triad_gib_s() -> f64 {
    machine::stream::triad(4 << 20, 5).gib_per_s()
}

/// The end-to-end metrics of one closed-loop run. Times are on the
/// process's CPU clock: under Linux with paravirtual steal accounting it
/// leaves out the time the hypervisor gave the host's other guests, which
/// moved the wall-clock figures below by up to 2× between identical runs
/// on a shared 2-vCPU guest.
fn end_to_end(measured: &Measured, setup_s: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    vec![
        Metric::median("setup_s", "s", setup_s),
        Metric::value("cpu_s_per_request", "s", measured.cpu_s_per_request()),
        Metric::value("peak_rss_mib", "MiB", peak_rss_mib),
    ]
}

/// What a client of the engine sees on the wall clock: the `#` lines of
/// every run and the traced ledger carry these, unbounded, since they
/// move with the load on the host.
pub fn wall_figures(measured: &Measured) -> Vec<Metric> {
    let run = &measured.run;
    let latencies: Vec<f64> = run.served.iter().map(|s| s.latency_s).collect();
    let step_rates: Vec<f64> = run
        .served
        .iter()
        .map(|s| s.request.steps as f64 / s.run_s)
        .collect();
    let elapsed_s = run.elapsed_s.max(f64::MIN_POSITIVE);
    vec![
        Metric::value(
            "engine.throughput_rps",
            "1/s",
            run.completed() as f64 / elapsed_s,
        ),
        Metric::at("engine.latency_p50_s", "s", &latencies, 0.5),
        Metric::at("engine.latency_p90_s", "s", &latencies, 0.9),
        Metric::median("engine.ttfs_p50_s", "s", &run.ttfs_s),
        Metric::median("engine.steps_per_s", "1/s", &step_rates),
        Metric::value(
            "engine.cpu_utilisation",
            "cores",
            measured.cpu_s / elapsed_s,
        ),
    ]
}

/// The untraced run: set up, drive the closed loop for the run's
/// seconds, then check the outputs.
fn untraced(plan: &Plan) -> Outcome {
    let reference = Reference::new(plan);
    let (engine, first) = serve::start(plan, true);
    let mut setup_s = vec![first];
    let mut gen = Generator::new(*plan);
    let measured = serve::measure(
        &engine,
        plan,
        &mut gen,
        plan.seconds,
        true,
        &reference.grids,
        None,
    );
    let (peak_rss, _) = rss_mib();
    engine.shutdown();
    setup_s.extend(serve::more_setups(plan, plan.setup_reps - 1));
    let mut checks = Checks::default();
    checks::served(&mut checks, plan, &measured.run, &reference);
    checks::vm_matches_baseline(&mut checks, plan);
    Outcome {
        metrics: end_to_end(&measured, &setup_s, peak_rss),
        shown: wall_figures(&measured),
        attempted: measured.run.attempted,
        failed: measured.run.failed,
        checks,
        triad_gib_s: stream_triad_gib_s(),
    }
}

fn main() {
    let cleared = pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed, args.seconds, args.tiny);
    let workers = machine::pool::Pool::host().workers();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (steal0, total0) = host_cpu_ticks();
    let out = if args.trace {
        layers::traced(&plan)
    } else {
        untraced(&plan)
    };
    // CPU time the hypervisor gave to other guests while this run was on:
    // runs with a large share measured a contended host.
    let (steal1, total1) = host_cpu_ticks();
    let steal = steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64;
    println!(
        "# context workload={} seed={} seconds={} trace={} tiny={} nproc={nproc} \
         pool_workers={workers} stream_triad_gib_s={:.2} host_steal_share={steal:.3} \
         commit={} source_fnv64={} cleared_env=[{}]",
        plan.workload.name(),
        plan.seed,
        plan.seconds,
        u8::from(args.trace),
        args.tiny,
        out.triad_gib_s,
        commit(),
        source_fingerprint(),
        cleared.join(",")
    );
    out.checks.print();
    stats::print_table(&out.metrics);
    if !out.shown.is_empty() {
        stats::print_table(&out.shown);
    }
    let correct = out.checks.all_ok();
    println!(
        "{}",
        stats::result_json(correct, out.attempted, out.failed, &out.metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
