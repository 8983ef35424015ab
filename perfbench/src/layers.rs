//! The traced run: the per-layer ledger.
//!
//! Every figure comes from a timing span the benchmark wraps around a
//! call into one layer's public functions; nothing is added inside the
//! program. One served arm of the run also installs the tracer
//! globally, so the engine's own request/step/rank spans land in the
//! same chrome trace (`perfbench/out/trace_<workload>.json`).

use crate::checks::{self, Checks, Reference, Tile};
use crate::serve::{self, Generator, LoopRun, Measured, Plan};
use crate::stats::{median, Metric};
use crate::{rss_mib, stream_triad_gib_s, wall_figures, Outcome};
use comm::{CornerPolicy, HaloUpdater};
use dataflow::exec::Executor;
use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::build_dycore_program;
use fv3core::{Checkpoint, CompiledSubstep, DistributedDycore};
use machine::pool::Pool;
use obs::stream::{EventBus, EventSink};
use obs::Tracer;
use resilience::{Supervisor, SupervisorPolicy};
use std::sync::Arc;
use std::time::Instant;

/// Run `f` inside a span named after the layer function it calls;
/// returns its result and its seconds.
fn timed<T>(tracer: &Tracer, cat: &str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = tracer.span(cat, name);
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Alternations of the traced run's three served arms.
const ARM_CHUNKS: usize = 4;

fn latency_p50(run: &LoopRun) -> f64 {
    median(&run.served.iter().map(|s| s.latency_s).collect::<Vec<_>>())
}

fn run_s(run: &LoopRun) -> Vec<f64> {
    run.served.iter().map(|s| s.run_s).collect()
}

pub fn traced(plan: &Plan) -> Outcome {
    let tracer = Tracer::new();
    let mut m: Vec<Metric> = Vec::new();
    let mut checks = Checks::default();
    let reference = Reference::new(plan);
    let mut gen = Generator::new(*plan);

    // Three arms in alternation, so host drift cancels between them:
    // untraced, with the tracer installed globally (the engine's own
    // request/step/rank spans land in the trace), and on an engine that
    // does not stream. Each arm serves half of `--seconds` in all.
    let (_, rss_before) = rss_mib();
    let ((engine, _), _) = timed(&tracer, "engine", "setup", || serve::start(plan, true));
    let (_, rss_setup) = rss_mib();
    let (quiet, _) = serve::start(plan, false);
    let (mut plain, mut traced, mut off) = (
        Measured::default(),
        Measured::default(),
        Measured::default(),
    );
    let chunk = plan.seconds / (2.0 * ARM_CHUNKS as f64);
    for _ in 0..ARM_CHUNKS {
        let mut arm =
            |engine: &engine::ForecastEngine, streaming: bool, tracer: Option<&Tracer>| {
                serve::measure(
                    engine,
                    plan,
                    &mut gen,
                    chunk,
                    streaming,
                    &reference.grids,
                    tracer,
                )
            };
        Measured::absorb(&mut plain, arm(&engine, true, None));
        obs::tracing::install_global(&tracer);
        {
            let _span = tracer.span("bench", "traced_arm");
            Measured::absorb(&mut traced, arm(&engine, true, Some(&tracer)));
        }
        obs::tracing::uninstall_global();
        Measured::absorb(&mut off, arm(&quiet, false, None));
    }
    engine.shutdown();
    quiet.shutdown();
    let off = off.run;
    checks::served(&mut checks, plan, &plain.run, &reference);

    m.extend(wall_figures(&plain));
    let p = &plain.run;
    let completed = p.completed().max(1) as f64;
    let qw: Vec<f64> = p.served.iter().map(|s| s.queued_s).collect();
    m.push(Metric::median("engine.queue_wait_s", "s", &qw));
    m.push(Metric::median("engine.run_s", "s", &run_s(p)));
    let warm = p.served.iter().filter(|s| s.warm_start).count() as f64;
    m.push(Metric::value(
        "engine.warm_hit_ratio",
        "ratio",
        warm / completed,
    ));
    let rss_per_case = match plan.workload {
        // Every request is a case of its own.
        serve::Workload::ServeDistinct => plain.rss_per_request_mib,
        // One engine holding one case.
        _ => rss_setup - rss_before,
    };
    m.push(Metric::value(
        "engine.rss_per_case_mib",
        "MiB",
        rss_per_case,
    ));
    let events_per_request = plain.events_published as f64 / completed;
    m.push(Metric::value(
        "obs.events_per_request",
        "count",
        events_per_request,
    ));
    m.push(Metric::value(
        "obs.events_dropped",
        "count",
        plain.events_dropped as f64,
    ));
    let streaming_cost = median(&run_s(p)) - median(&run_s(&off));
    m.push(Metric::value("obs.streaming_cost_s", "s", streaming_cost));
    let retries: u32 = p.served.iter().map(|s| s.retries).sum();
    m.push(Metric::value("resilience.retries", "count", retries as f64));

    // Layer probes at the workload's size.
    let probes = Probes::run(&tracer, plan, &mut m);
    checks::vm_matches_baseline(&mut checks, plan);

    // The ledger: what a served step costs beyond its parts.
    let step_gap = median(&p.step_gaps_s);
    m.push(Metric::median("ledger.step_gap_s", "s", &p.step_gaps_s));
    let steps: u64 = p.served.iter().map(|s| s.request.steps).sum();
    let events_per_step = plain.events_published as f64 / steps.max(1) as f64;
    let publish = events_per_step * probes.publish_event_s;
    m.push(Metric::value("obs.publish_per_step_s", "s", publish));
    let parts = probes.basis_capture_s + probes.step_s + probes.health_sample_s + publish;
    m.push(Metric::value("ledger.unaccounted_s", "s", step_gap - parts));

    // Tracing overhead: the traced arm against the untraced one.
    let t = &traced.run;
    m.push(Metric::value(
        "trace.overhead_latency_p50_s",
        "s",
        latency_p50(t) - latency_p50(p),
    ));
    m.push(Metric::value(
        "trace.overhead_throughput_rps",
        "1/s",
        p.completed() as f64 / p.elapsed_s - t.completed() as f64 / t.elapsed_s,
    ));
    m.push(Metric::value(
        "trace.overhead_cpu_s_per_request",
        "s",
        traced.cpu_s_per_request() - plain.cpu_s_per_request(),
    ));
    m.push(Metric::value("trace.spans", "count", tracer.len() as f64));

    let triad = stream_triad_gib_s();
    let achieved = probes.achieved_gib_s;
    m.push(Metric::value(
        "dataflow.stream_fraction",
        "ratio",
        achieved / triad,
    ));
    m.push(Metric::value("machine.stream_triad_gib_s", "GiB/s", triad));
    m.push(Metric::value(
        "machine.pool_workers",
        "count",
        Pool::host().workers() as f64,
    ));
    write_trace(&tracer, plan);
    m.sort_by(|a, b| a.name.cmp(&b.name));
    Outcome {
        metrics: m,
        shown: Vec::new(),
        attempted: p.attempted + t.attempted + off.attempted,
        failed: p.failed + t.failed + off.failed,
        checks,
        triad_gib_s: triad,
    }
}

fn write_trace(tracer: &Tracer, plan: &Plan) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace_{}.json", plan.workload.name()));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.to_chrome_trace()))
    {
        Ok(()) => println!("# trace {}", path.display()),
        Err(e) => println!("# trace not written ({}): {e}", path.display()),
    }
}

/// Figures the ledger combines.
struct Probes {
    step_s: f64,
    basis_capture_s: f64,
    health_sample_s: f64,
    publish_event_s: f64,
    achieved_gib_s: f64,
}

impl Probes {
    fn run(tracer: &Tracer, plan: &Plan, m: &mut Vec<Metric>) -> Probes {
        let r = plan.probe_reps;
        let config = plan.request(1).config;
        let attrs = ExpansionAttrs::tuned();
        let pool = Pool::host();

        // Cold path of a new case, as the engine's acquire() runs it.
        let (mut lower, mut expand, mut cold, mut compile) = (vec![], vec![], vec![], vec![]);
        let mut kernels = 0u64;
        let mut template: Option<Checkpoint> = None;
        let mut warm: Option<DistributedDycore> = None;
        let mut substep: Option<Arc<CompiledSubstep>> = None;
        for _ in 0..r.div_ceil(2) {
            let (prog, t) = timed(tracer, "stencil", "build_dycore_program", || {
                build_dycore_program(config.tile_n / config.rt, config.nk, config.dycore)
            });
            lower.push(t);
            let mut g = prog.sdfg.clone();
            expand.push(
                timed(tracer, "dataflow", "Sdfg::expand_libraries", || {
                    g.expand_libraries(&attrs)
                })
                .1,
            );
            let (sub, t1) = timed(tracer, "core", "CompiledSubstep::build", || {
                CompiledSubstep::build(&config, Some(&pool))
            });
            let (mut d, t2) = timed(tracer, "core", "DistributedDycore::new_with_grids", || {
                DistributedDycore::new_with_grids(config, &attrs, None)
            });
            d.set_pool(Some(pool.clone()));
            let sub = Arc::new(sub);
            d.set_shared_substep(Arc::clone(&sub));
            let (ck, t3) = timed(tracer, "resilience", "Checkpoint::capture", || {
                Checkpoint::capture(&d)
            });
            cold.push(t1 + t2 + t3);
            let first = timed(tracer, "core", "DistributedDycore::step", || d.step()).1;
            kernels = d.exec_cache_counters().1;
            let second = timed(tracer, "core", "DistributedDycore::step", || d.step()).1;
            compile.push(first - second);
            // The template comes from another instance than the one it
            // restores, as in the engine: restore() rewrites every rank.
            if template.is_none() {
                template = Some(ck);
            } else {
                warm = Some(d);
                substep = Some(sub);
            }
        }
        m.push(Metric::median("stencil.lower_s", "s", &lower));
        m.push(Metric::median("dataflow.expand_s", "s", &expand));
        m.push(Metric::median("engine.cold_build_s", "s", &cold));
        m.push(Metric::median("dataflow.compile_s", "s", &compile));
        m.push(Metric::value(
            "dataflow.kernels_compiled",
            "count",
            kernels as f64,
        ));

        let template = template.expect("template captured");
        let mut d = warm.expect("a second instance (reps >= 2)");
        let substep = substep.expect("its substep bundle");
        let restore: Vec<f64> = (0..r)
            .map(|_| {
                timed(tracer, "core", "DistributedDycore::restore", || {
                    d.restore(&template)
                })
                .1
            })
            .collect();
        m.push(Metric::median("engine.warm_restore_s", "s", &restore));

        // Bare steps: pooled (the engine's team), inline, and two
        // instances sharing one team as two slots do.
        let steps = |d: &mut DistributedDycore, name: &str| -> Vec<f64> {
            (0..r)
                .map(|_| timed(tracer, "core", name, || d.step()).1)
                .collect()
        };
        let pooled = steps(&mut d, "DistributedDycore::step");
        let step_s = median(&pooled);
        m.push(Metric::median("core.step_s", "s", &pooled));
        let mut inline = DistributedDycore::new(config, &attrs);
        inline.step();
        m.push(Metric::median(
            "core.step_inline_s",
            "s",
            &steps(&mut inline, "DistributedDycore::step (inline)"),
        ));
        drop(inline);
        let mut twin =
            DistributedDycore::new_with_grids(config, &attrs, Some(Arc::clone(&d.grids)));
        twin.set_pool(Some(pool.clone()));
        twin.set_shared_substep(substep);
        twin.step();
        let shared: Vec<f64> = std::thread::scope(|s| {
            let a = s.spawn(|| steps(&mut d, "DistributedDycore::step (shared pool)"));
            let b = s.spawn(|| steps(&mut twin, "DistributedDycore::step (shared pool)"));
            let mut v = a.join().expect("stepping thread");
            v.extend(b.join().expect("stepping thread"));
            v
        });
        m.push(Metric::median("core.step_shared_pool_s", "s", &shared));
        drop(twin);

        // Supervision: rollback basis, health sample, and the whole
        // supervised loop against bare steps.
        let ck_bytes = Checkpoint::capture(&d).to_bytes().len();
        m.push(Metric::value("core.checkpoint_bytes", "B", ck_bytes as f64));
        let capture: Vec<f64> = (0..r)
            .map(|_| {
                timed(tracer, "resilience", "Checkpoint::capture", || {
                    Checkpoint::capture(&d)
                })
                .1
            })
            .collect();
        let basis_capture_s = median(&capture);
        m.push(Metric::median("resilience.basis_capture_s", "s", &capture));
        let mut monitor = fv3::health::default_monitor();
        let health: Vec<f64> = (0..r)
            .map(|i| {
                timed(
                    tracer,
                    "resilience",
                    "DistributedDycore::sample_health",
                    || d.sample_health(&mut monitor, i as u64),
                )
                .1
            })
            .collect();
        let health_sample_s = median(&health);
        m.push(Metric::median("resilience.health_sample_s", "s", &health));
        // Supervised and bare steps in alternation, a few at a time, so
        // host drift cancels in the difference.
        let k = 2u64;
        let (mut bare, mut supervised) = (vec![], vec![]);
        for _ in 0..r {
            let t = steps_n(tracer, &mut d, k);
            bare.push(t / k as f64);
            let (report, t) = timed(tracer, "resilience", "Supervisor::run", || {
                Supervisor::new(SupervisorPolicy::default()).run(&mut d, k)
            });
            let report = report.expect("supervised probe run");
            assert_eq!(report.steps, k, "supervised probe ran its steps");
            supervised.push(t / k as f64);
        }
        m.push(Metric::value(
            "resilience.supervisor_overhead_s",
            "s",
            median(&supervised) - median(&bare),
        ));

        // Halo exchange of the fields one substep exchanges.
        let updater = HaloUpdater::new(d.partition.clone(), fv3::state::HALO, CornerPolicy::Fold);
        let halo: Vec<f64> = (0..r)
            .map(|_| {
                let field = |f: fn(&fv3::state::DycoreState) -> &dataflow::Array3| {
                    d.states.iter().map(|s| f(s).clone()).collect::<Vec<_>>()
                };
                let (mut u, mut v) = (field(|s| &s.u), field(|s| &s.v));
                let mut scalars = [
                    field(|s| &s.w),
                    field(|s| &s.delp),
                    field(|s| &s.pt),
                    field(|s| &s.q),
                ];
                timed(tracer, "comm", "HaloUpdater::exchange", || {
                    updater.exchange_vector(&mut u, &mut v);
                    for a in &mut scalars {
                        updater.exchange_scalar(a);
                    }
                })
                .1
            })
            .collect();
        m.push(Metric::median("comm.halo_exchange_s", "s", &halo));
        let (bytes, messages) = d.comm_volume();
        let ranks = d.partition.ranks() as u64;
        let substeps = u64::from(config.dycore.n_split * config.dycore.k_split);
        m.push(Metric::value(
            "comm.halo_bytes_per_step",
            "B",
            (bytes * ranks * substeps) as f64,
        ));
        m.push(Metric::value(
            "comm.halo_messages_per_step",
            "count",
            (messages * ranks * substeps) as f64,
        ));
        drop(d);

        let publish_event_s = publish_cost(tracer);
        m.push(Metric::value("obs.publish_event_s", "s", publish_event_s));
        let achieved_gib_s = kernel_profile(tracer, plan, m);
        vm_over_native(tracer, plan, r, m);
        Probes {
            step_s,
            basis_capture_s,
            health_sample_s,
            publish_event_s,
            achieved_gib_s,
        }
    }
}

/// `k` bare steps of `d` in one span; returns their seconds.
fn steps_n(tracer: &Tracer, d: &mut DistributedDycore, k: u64) -> f64 {
    timed(tracer, "core", "DistributedDycore::step", || {
        for _ in 0..k {
            d.step();
        }
    })
    .1
}

/// Seconds to publish one step event to a bus with one subscriber.
fn publish_cost(tracer: &Tracer) -> f64 {
    const N: u64 = 20_000;
    let bus = EventBus::new(1024);
    let sub = bus.subscribe_all();
    let sink = EventSink::for_request(&bus, "r1");
    let (_, t) = timed(tracer, "obs", "EventSink::step_completed", || {
        for i in 0..N {
            sink.step_completed(i, 0.01);
            if i % 512 == 0 {
                sub.drain();
            }
        }
    });
    t / N as f64
}

/// Single-tile serial profile at the workload's sub-domain size through
/// `bench::profile::profile_case_full`. The first step compiles, so only
/// the kernel events of the later steps count. Returns achieved GiB/s.
fn kernel_profile(tracer: &Tracer, plan: &Plan, m: &mut Vec<Metric>) -> f64 {
    let steps = if plan.tile_n >= 48 { 9 } else { 21 };
    let config = plan.request(1).config;
    let (run, _) = timed(tracer, "bench", "profile_case_full", || {
        bench::profile::profile_case_full(
            config.tile_n / config.rt,
            config.nk,
            steps,
            config.dycore,
            None,
            false,
        )
    });
    let events = run.tracer.finished();
    tracer.merge_from(&run.tracer);
    let first_end = events
        .iter()
        .filter(|e| e.cat == "step" && e.name == "timestep0")
        .map(|e| e.ts_us + e.dur_us)
        .next()
        .unwrap_or(0.0);
    // Per later step: (kernel s, launches, modeled bytes) and per-module s.
    let spans: Vec<(f64, f64)> = events
        .iter()
        .filter(|e| e.cat == "step" && e.ts_us >= first_end)
        .map(|e| (e.ts_us, e.ts_us + e.dur_us))
        .collect();
    let rows = ["tracer", "d_sw", "c_sw", "riem_solver_c"];
    let mut kernel_s = vec![0.0; spans.len()];
    let mut launches = vec![0.0; spans.len()];
    let mut bytes = vec![0.0; spans.len()];
    let mut module = vec![vec![0.0; spans.len()]; rows.len() + 2];
    for e in &events {
        let Some(i) = spans
            .iter()
            .position(|(a, b)| e.ts_us >= *a && e.ts_us < *b)
        else {
            continue;
        };
        let secs = e.dur_us / 1e6;
        match e.cat.as_str() {
            "kernel" => {
                kernel_s[i] += secs;
                launches[i] += 1.0;
                bytes[i] += e.bytes as f64;
                let name = fv3::profiling::module_of(&e.name);
                if let Some(r) = rows.iter().position(|r| *r == name) {
                    module[r][i] += secs;
                }
            }
            "callback" => module[rows.len()][i] += secs,
            "copy" => module[rows.len() + 1][i] += secs,
            _ => {}
        }
    }
    m.push(Metric::median("dataflow.kernel_s", "s", &kernel_s));
    m.push(Metric::median(
        "dataflow.launches_per_step",
        "count",
        &launches,
    ));
    m.push(Metric::median(
        "dataflow.modeled_bytes_per_step",
        "B",
        &bytes,
    ));
    let gib: Vec<f64> = bytes
        .iter()
        .zip(&kernel_s)
        .map(|(b, s)| b / s / (1u64 << 30) as f64)
        .collect();
    m.push(Metric::median("dataflow.achieved_gib_s", "GiB/s", &gib));
    for (r, name) in rows.iter().enumerate() {
        m.push(Metric::median(
            &format!("fv3.{name}.kernel_s"),
            "s",
            &module[r],
        ));
    }
    m.push(Metric::median("fv3.remap.s", "s", &module[rows.len()]));
    m.push(Metric::median(
        "fv3.pt_update.s",
        "s",
        &module[rows.len() + 1],
    ));
    median(&gib)
}

/// VM single-tile step time over hand-written `baseline_step` at the
/// same size, alternating the two.
fn vm_over_native(tracer: &Tracer, plan: &Plan, r: usize, m: &mut Vec<Metric>) {
    let tile = Tile::new(plan.tile_n, plan.nk, plan.request(1).config.dycore);
    let exec = Executor::serial();
    tile.vm_step(&exec);
    let (mut vm, mut native) = (vec![], vec![]);
    for _ in 0..r {
        vm.push(
            timed(tracer, "dataflow", "Executor::run", || tile.vm_step(&exec))
                .0
                 .1,
        );
        native.push(
            timed(tracer, "fv3", "baseline_step", || tile.baseline_step())
                .0
                 .1,
        );
    }
    m.push(Metric::median("dataflow.vm_step_s", "s", &vm));
    m.push(Metric::median("fv3.baseline_step_s", "s", &native));
    m.push(Metric::value(
        "dataflow.vm_over_native",
        "ratio",
        median(&vm) / median(&native),
    ));
}
