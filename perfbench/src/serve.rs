//! The three workloads and the closed-loop load generator that drives
//! `engine::ForecastEngine` with them.

use engine::{
    EngineConfig, ForecastEngine, ForecastOutcome, ForecastRequest, ForecastResult, RequestId,
};
use fv3core::DriverConfig;
use machine::pool::Pool;
use obs::stream::{Event, EventStream, RunEvent};
use obs::Tracer;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Steps per `serve_c8` request: short enough that per-request costs
/// (warm restore, basis capture, event publishing) are a large share of
/// the request, long enough that a request has a step gap to measure.
pub const C8_STEPS: u64 = 5;
/// Steps per `forecast_c48` request: at ~80 ms a step a request runs for
/// most of a second, so per-request costs (a restore of ~1 ms, one basis
/// capture) are amortised to about 1 %, and a run still completes
/// enough requests for medians.
pub const C48_STEPS: u64 = 8;
/// Engine start-ups per run at c8 and at c48; `setup_s` is the median of
/// their CPU times.
pub const SETUP_REPS: [usize; 2] = [61, 7];
/// `serve_distinct` requests per engine: the engine keeps every case it
/// has served (about 2.2 MiB each at c8L6), so the workload restarts it
/// after this many to bound the benchmark's memory.
pub const DISTINCT_ROUND: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeC8,
    ServeDistinct,
    ForecastC48,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeC8,
        Workload::ServeDistinct,
        Workload::ForecastC48,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeC8 => "serve_c8",
            Workload::ServeDistinct => "serve_distinct",
            Workload::ForecastC48 => "forecast_c48",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything that fixes the work of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Cube tile edge and vertical levels of every request.
    pub tile_n: usize,
    pub nk: usize,
    /// Engine run slots; the generator keeps as many requests
    /// outstanding.
    pub slots: usize,
    /// Steps per request.
    pub steps: u64,
    pub setup_reps: usize,
    /// Repetitions of each layer probe in the traced run.
    pub probe_reps: usize,
}

impl Plan {
    /// The full-size plan, or with `tiny` the smoke-test shapes: c8L3
    /// everywhere, one- and two-step requests, two set-ups, three probe
    /// repetitions.
    pub fn new(workload: Workload, seed: u64, seconds: f64, tiny: bool) -> Plan {
        let (tile_n, nk, steps) = match (workload, tiny) {
            (_, true) => (8, 3, 2),
            (Workload::ServeC8, false) => (8, 6, C8_STEPS),
            (Workload::ServeDistinct, false) => (8, 6, 2),
            (Workload::ForecastC48, false) => (48, 6, C48_STEPS),
        };
        let slots = if workload == Workload::ForecastC48 {
            1
        } else {
            2
        };
        Plan {
            workload,
            seed,
            seconds,
            tile_n,
            nk,
            slots,
            steps,
            setup_reps: match (tiny, workload) {
                (true, _) => 2,
                (false, Workload::ForecastC48) => SETUP_REPS[1],
                (false, _) => SETUP_REPS[0],
            },
            probe_reps: match (tiny, workload) {
                (true, _) => 3,
                (false, Workload::ForecastC48) => 5,
                (false, _) => 15,
            },
        }
    }

    /// The engine's default deployment; only the slot count differs
    /// (`forecast_c48` serves one long request at a time).
    pub fn engine_config(&self, streaming: bool) -> EngineConfig {
        EngineConfig {
            slots: self.slots,
            streaming,
            ..EngineConfig::default()
        }
    }

    /// A request for `steps` steps of the baroclinic case at this plan's
    /// shape, with `ForecastRequest::c8l6`'s numerics.
    pub fn request(&self, steps: u64) -> ForecastRequest {
        let mut r = ForecastRequest::c8l6(steps);
        r.config = DriverConfig::six_rank(self.tile_n, self.nk, r.config.dycore);
        r
    }

    /// The set-up request: one step of the workload's standard case.
    pub fn warmup(&self) -> ForecastRequest {
        self.request(1).with_label("warmup")
    }
}

/// SplitMix64: the seeded source of every generated input.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Makes the request sequence of a run from its seed.
pub struct Generator {
    plan: Plan,
    rng: SplitMix,
    issued: u64,
    dts: HashSet<u64>,
}

impl Generator {
    pub fn new(plan: Plan) -> Self {
        Generator {
            plan,
            rng: SplitMix::new(plan.seed),
            issued: 0,
            dts: HashSet::new(),
        }
    }

    pub fn next_request(&mut self) -> ForecastRequest {
        let n = self.issued;
        self.issued += 1;
        let label = format!("s{}-{n}", self.plan.seed);
        let mut r = self.plan.request(self.plan.steps);
        if self.plan.workload == Workload::ServeDistinct {
            // A dt drawn from [3, 4) s that no earlier request of the run
            // (nor the set-up's 4 s) used, so every request is a case of
            // its own.
            r.config.dycore.dt = loop {
                let dt = 3.0 + self.rng.next_f64();
                if self.dts.insert(dt.to_bits()) {
                    break dt;
                }
            };
        }
        r.with_label(&label)
    }
}

/// Start an engine and serve the set-up request, so the case is compiled
/// and a warm instance parked. Returns the engine and the CPU seconds the
/// process spent on it: the CPU clock leaves out the time the host's
/// other guests held its CPUs, which made wall-clock set-up times move by
/// tens of percent between identical runs.
pub fn start(plan: &Plan, streaming: bool) -> (ForecastEngine, f64) {
    start_on(plan, streaming, None)
}

/// [`start`] on a given worker team (`None`: the engine's own
/// `Pool::host()`).
fn start_on(plan: &Plan, streaming: bool, pool: Option<Pool>) -> (ForecastEngine, f64) {
    let c0 = crate::process_cpu_s();
    let engine = ForecastEngine::start(EngineConfig {
        pool,
        ..plan.engine_config(streaming)
    });
    let id = engine.submit(plan.warmup());
    let out = engine.wait(id);
    let secs = crate::process_cpu_s() - c0;
    assert!(
        out.result.is_completed(),
        "set-up request reached terminal '{}'",
        out.result.terminal()
    );
    (engine, secs)
}

/// Set-up CPU times of `n` more engine start-ups, each shut down at once.
/// Runs after the measured loop and after peak memory is read: engines
/// started and stopped before the loop leave allocator arenas behind
/// whose number varies from run to run.
pub fn more_setups(plan: &Plan, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let (engine, s) = start(plan, true);
            engine.shutdown();
            s
        })
        .collect()
}

/// Per-request figures the run keeps (the states themselves are dropped
/// as soon as they are summarised, except for one kept for the
/// differential check).
#[derive(Debug)]
pub struct Served {
    pub request: ForecastRequest,
    pub latency_s: f64,
    pub queued_s: f64,
    pub run_s: f64,
    pub cache_misses: u64,
    pub warm_start: bool,
    pub retries: u32,
    pub healthy: bool,
    pub finite: bool,
    pub air_mass: f64,
    pub tracer_mass: f64,
}

/// What one closed-loop run measured.
#[derive(Debug, Default)]
pub struct LoopRun {
    pub served: Vec<Served>,
    pub attempted: u64,
    pub failed: u64,
    /// First submit to last outcome.
    pub elapsed_s: f64,
    /// `RequestQueued` to first `StepCompleted`, per request.
    pub ttfs_s: Vec<f64>,
    /// Gaps between consecutive `StepCompleted` events of one request.
    pub step_gaps_s: Vec<f64>,
    /// The last completed request's final states, for the differential
    /// check.
    pub kept: Option<(ForecastRequest, Vec<fv3::state::DycoreState>)>,
}

impl LoopRun {
    fn absorb(&mut self, other: LoopRun) {
        self.served.extend(other.served);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s += other.elapsed_s;
        self.ttfs_s.extend(other.ttfs_s);
        self.step_gaps_s.extend(other.step_gaps_s);
        if other.kept.is_some() {
            self.kept = other.kept;
        }
    }

    pub fn completed(&self) -> u64 {
        self.served.len() as u64
    }
}

/// Per-request event-stream bookkeeping.
#[derive(Default)]
struct Timeline {
    queued_us: Option<f64>,
    last_step_us: Option<f64>,
    terminal: bool,
}

/// Fold one event into its request's timeline: time to first step,
/// step gaps, and whether the request reached a terminal.
fn note_event(lines: &mut HashMap<String, Timeline>, run: &mut LoopRun, ev: Event) {
    let Some(r) = ev.request else { return };
    let line = lines.entry(r).or_default();
    match ev.body {
        RunEvent::RequestQueued { .. } => line.queued_us = Some(ev.t_us),
        RunEvent::StepCompleted { .. } => {
            match (line.last_step_us, line.queued_us) {
                (Some(prev), _) => run.step_gaps_s.push((ev.t_us - prev) / 1e6),
                (None, Some(queued)) => run.ttfs_s.push((ev.t_us - queued) / 1e6),
                (None, None) => {}
            }
            line.last_step_us = Some(ev.t_us);
        }
        RunEvent::RequestCompleted { .. }
        | RunEvent::RequestFailed { .. }
        | RunEvent::RequestCancelled { .. } => line.terminal = true,
        _ => {}
    }
}

/// Air and tracer mass of a set of rank states on `grids`.
pub fn masses(states: &[fv3::state::DycoreState], grids: &[fv3::grid::Grid]) -> (f64, f64) {
    states.iter().zip(grids).fold((0.0, 0.0), |(a, t), (s, g)| {
        (a + s.air_mass(&g.area), t + s.tracer_mass(&g.area))
    })
}

/// Drive `engine` in a closed loop: keep `plan.slots` requests in
/// flight from this one thread and submit the next as soon as one
/// finishes, until `deadline` or `limit` submissions; then drain. With a
/// subscriber, request completion is learnt from the event stream;
/// without one (streaming off) outstanding requests are polled every
/// millisecond. With a tracer, every submit and wait is a span.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    engine: &ForecastEngine,
    plan: &Plan,
    gen: &mut Generator,
    deadline: Instant,
    limit: u64,
    grids: &[fv3::grid::Grid],
    stream: Option<&EventStream>,
    tracer: Option<&Tracer>,
) -> LoopRun {
    let mut run = LoopRun::default();
    let mut inflight: Vec<(RequestId, ForecastRequest)> = Vec::new();
    let mut lines: HashMap<String, Timeline> = HashMap::new();
    let t0 = Instant::now();
    let mut submit = |inflight: &mut Vec<(RequestId, ForecastRequest)>, run: &mut LoopRun| {
        let req = gen.next_request();
        let _span = tracer.map(|t| t.span("engine", "ForecastEngine::submit"));
        let id = engine.submit(req.clone());
        run.attempted += 1;
        inflight.push((id, req));
    };
    for _ in 0..plan.slots.min(limit as usize) {
        submit(&mut inflight, &mut run);
    }
    let mut last_outcome = t0;
    while !inflight.is_empty() {
        let mut finished: Vec<(usize, ForecastOutcome)> = Vec::new();
        match stream {
            Some(s) => {
                if let Some(ev) = s.next_timeout(Duration::from_millis(50)) {
                    note_event(&mut lines, &mut run, ev);
                }
                for (i, (id, _)) in inflight.iter().enumerate() {
                    if lines.get(&id.to_string()).is_some_and(|l| l.terminal) {
                        let _span = tracer.map(|t| t.span("engine", "ForecastEngine::wait"));
                        finished.push((i, engine.wait(*id)));
                    }
                }
            }
            None => {
                let _span = tracer.map(|t| t.span("engine", "ForecastEngine::wait"));
                let oldest = inflight[0].0;
                if let Some(o) = engine.wait_timeout(oldest, Duration::from_millis(1)) {
                    finished.push((0, o));
                }
            }
        }
        // Without a stream, and when a terminal event was lost to the
        // bus's drop-oldest policy, every outstanding request is polled.
        if finished.is_empty() {
            for (i, (id, _)) in inflight.iter().enumerate() {
                if let Some(o) = engine.wait_timeout(*id, Duration::ZERO) {
                    finished.push((i, o));
                }
            }
        }
        finished.sort_by_key(|(i, _)| std::cmp::Reverse(*i));
        for (i, outcome) in finished {
            let (id, req) = inflight.remove(i);
            lines.remove(&id.to_string());
            last_outcome = Instant::now();
            if last_outcome < deadline && run.attempted < limit {
                submit(&mut inflight, &mut run);
            }
            record(&mut run, req, outcome, grids);
        }
    }
    run.elapsed_s = (last_outcome - t0).as_secs_f64();
    run
}

fn record(
    run: &mut LoopRun,
    request: ForecastRequest,
    outcome: ForecastOutcome,
    grids: &[fv3::grid::Grid],
) {
    let latency_s = outcome.latency_seconds();
    let (queued_s, run_s) = (outcome.queued_seconds, outcome.run_seconds);
    let ForecastResult::Completed(rep) = outcome.result else {
        run.failed += 1;
        return;
    };
    let finite = rep.states.iter().all(|s| !s.has_nonfinite());
    let (air_mass, tracer_mass) = masses(&rep.states, grids);
    run.served.push(Served {
        request: request.clone(),
        latency_s,
        queued_s,
        run_s,
        cache_misses: rep.cache_misses,
        warm_start: rep.warm_start,
        retries: rep.run.retries,
        healthy: rep.run.monitor.all_healthy(),
        finite,
        air_mass,
        tracer_mass,
    });
    run.kept = Some((request, rep.states));
}

/// A measured stretch of closed-loop load and what the engine published
/// and kept meanwhile.
#[derive(Debug, Default)]
pub struct Measured {
    pub run: LoopRun,
    /// Events the engine published on its bus, and dropped for slow
    /// subscribers.
    pub events_published: u64,
    pub events_dropped: u64,
    /// CPU seconds the process spent while the loops ran, all threads.
    pub cpu_s: f64,
    /// Growth of the resident set over the first loop, per request it
    /// completed, MiB. Later loops reuse memory freed by earlier engines.
    pub rss_per_request_mib: f64,
}

impl Measured {
    pub fn absorb(&mut self, other: Measured) {
        if self.run.attempted == 0 {
            self.rss_per_request_mib = other.rss_per_request_mib;
        }
        self.run.absorb(other.run);
        self.events_published += other.events_published;
        self.events_dropped += other.events_dropped;
        self.cpu_s += other.cpu_s;
    }

    /// CPU seconds per completed request.
    pub fn cpu_s_per_request(&self) -> f64 {
        self.cpu_s / self.run.completed().max(1) as f64
    }
}

/// One closed loop on `engine`, subscribed to its event stream when it
/// streams.
fn measure_on(
    engine: &ForecastEngine,
    plan: &Plan,
    gen: &mut Generator,
    deadline: Instant,
    limit: u64,
    grids: &[fv3::grid::Grid],
    tracer: Option<&Tracer>,
) -> Measured {
    let stream = engine.subscribe_all();
    let before = engine.status();
    let (_, rss0) = crate::rss_mib();
    let cpu0 = crate::process_cpu_s();
    let run = drive(
        engine,
        plan,
        gen,
        deadline,
        limit,
        grids,
        stream.as_ref(),
        tracer,
    );
    let cpu_s = crate::process_cpu_s() - cpu0;
    let (_, rss1) = crate::rss_mib();
    let after = engine.status();
    Measured {
        events_published: after.events_published - before.events_published,
        events_dropped: after.events_dropped - before.events_dropped,
        rss_per_request_mib: (rss1 - rss0) / run.completed().max(1) as f64,
        cpu_s,
        run,
    }
}

/// The measured part of a run: `seconds` of closed-loop load on
/// `engine`. `serve_distinct` instead runs whole rounds of
/// [`DISTINCT_ROUND`] requests until `seconds` have passed, each on a
/// fresh engine. The rounds share one `Pool::host()` team, the team each
/// engine would build for itself, so no worker thread outlives its
/// engine into the next round (threads that overlap take fresh
/// allocator arenas, which makes peak memory vary from run to run).
pub fn measure(
    engine: &ForecastEngine,
    plan: &Plan,
    gen: &mut Generator,
    seconds: f64,
    streaming: bool,
    grids: &[fv3::grid::Grid],
    tracer: Option<&Tracer>,
) -> Measured {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    if plan.workload != Workload::ServeDistinct {
        return measure_on(engine, plan, gen, deadline, u64::MAX, grids, tracer);
    }
    let mut total = Measured::default();
    let pool = Pool::host();
    let no_deadline = Instant::now() + Duration::from_secs(86_400);
    while Instant::now() < deadline {
        let (engine, _) = start_on(plan, streaming, Some(pool.clone()));
        let round = measure_on(
            &engine,
            plan,
            gen,
            no_deadline,
            DISTINCT_ROUND,
            grids,
            tracer,
        );
        total.absorb(round);
    }
    total
}
