//! Output checks, run outside the timed region. Each compares against a
//! separate computation (a direct `DistributedDycore` run, the
//! hand-written `baseline_step`) or a property the method must have
//! (finite fields, conserved mass); none compares against stored output.

use crate::serve::{masses, LoopRun, Plan, Workload};
use dataflow::exec::{DataStore, Executor};
use dataflow::graph::ExpansionAttrs;
use engine::ForecastRequest;
use fv3::dyn_core::{
    baseline_step, build_dycore_program, extract_state, load_state, BaselineScratch, DycoreConfig,
    DycoreProgram,
};
use fv3::grid::Grid;
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::state::DycoreState;
use fv3core::DistributedDycore;
use std::time::Instant;

/// Largest relative change of global air or tracer mass one request may
/// show. Measured drift is 7.6e-6 over 100 c8 steps and 1.3e-7 over 12
/// c48 steps; requests here run at most 8 steps.
pub const MASS_DRIFT_BOUND: f64 = 1e-5;
/// Largest difference between the DSL/VM step and `baseline_step`: the
/// bound of the repository's own DSL-vs-baseline tests.
pub const VM_BASELINE_BOUND: f64 = 1e-8;

#[derive(Default)]
pub struct Checks {
    results: Vec<(String, bool, String)>,
}

impl Checks {
    pub fn add(&mut self, name: &str, ok: bool, detail: String) {
        self.results.push((name.to_string(), ok, detail));
    }

    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|(_, ok, _)| *ok)
    }

    pub fn print(&self) {
        for (name, ok, detail) in &self.results {
            println!(
                "# check {} {name}: {detail}",
                if *ok { "ok  " } else { "FAIL" }
            );
        }
    }
}

/// The reference instance of a plan's case: its grids and step-0 masses.
pub struct Reference {
    pub grids: Vec<Grid>,
    pub air0: f64,
    pub tracer0: f64,
}

impl Reference {
    pub fn new(plan: &Plan) -> Reference {
        let d = DistributedDycore::new(plan.request(1).config, &ExpansionAttrs::tuned());
        let (air0, tracer0) = masses(&d.states, &d.grids);
        Reference {
            grids: d.grids.as_ref().clone(),
            air0,
            tracer0,
        }
    }
}

/// Run `req` directly — no engine, no supervisor, no worker pool — and
/// count the values that differ bitwise from `states`.
pub fn direct_mismatches(req: &ForecastRequest, states: &[DycoreState]) -> usize {
    let mut d = DistributedDycore::new(req.config, &ExpansionAttrs::tuned());
    for _ in 0..req.steps {
        d.step();
    }
    d.states
        .iter()
        .zip(states)
        .map(|(a, b)| {
            a.fields()
                .iter()
                .zip(b.fields().iter())
                .map(|((_, x), (_, y))| {
                    let (x, y) = (x.export_logical(), y.export_logical());
                    x.iter()
                        .zip(&y)
                        .filter(|(p, q)| p.to_bits() != q.to_bits())
                        .count()
                        + x.len().abs_diff(y.len())
                })
                .sum::<usize>()
        })
        .sum::<usize>()
        + d.states.len().abs_diff(states.len())
}

/// Check the served outputs of one closed-loop run.
pub fn served(checks: &mut Checks, plan: &Plan, run: &LoopRun, reference: &Reference) {
    let n = run.served.len();
    checks.add(
        "requests_completed",
        n > 0,
        format!("{n} completed, {} failed", run.failed),
    );
    let bad = run
        .served
        .iter()
        .filter(|s| !s.finite || !s.healthy)
        .count();
    checks.add(
        "fields_finite_and_healthy",
        bad == 0,
        format!("{bad} of {n} requests had a non-finite field or an unhealthy sample"),
    );
    let drift = |m: f64, m0: f64| (m / m0 - 1.0).abs();
    let air = run
        .served
        .iter()
        .map(|s| drift(s.air_mass, reference.air0))
        .fold(0.0, f64::max);
    let tracer = run
        .served
        .iter()
        .map(|s| drift(s.tracer_mass, reference.tracer0))
        .fold(0.0, f64::max);
    checks.add(
        "mass_drift",
        air < MASS_DRIFT_BOUND && tracer < MASS_DRIFT_BOUND,
        format!(
            "max relative drift air {air:.3e}, tracer {tracer:.3e} (bound {MASS_DRIFT_BOUND:e})"
        ),
    );
    let compiling = run.served.iter().filter(|s| s.cache_misses > 0).count();
    match plan.workload {
        Workload::ServeDistinct => checks.add(
            "every_request_compiles",
            compiling == n,
            format!("{compiling} of {n} requests compiled kernels"),
        ),
        Workload::ServeC8 | Workload::ForecastC48 => checks.add(
            "warm_requests_compile_nothing",
            compiling == 0,
            format!("{compiling} of {n} requests after set-up compiled kernels"),
        ),
    }
    match &run.kept {
        Some((req, states)) => {
            let bad = direct_mismatches(req, states);
            checks.add(
                "served_equals_direct_run",
                bad == 0,
                format!(
                    "{bad} values differ from a direct {}-step DistributedDycore run",
                    req.steps
                ),
            );
        }
        None => checks.add(
            "served_equals_direct_run",
            false,
            "no request completed".into(),
        ),
    }
}

/// One cube face of the baroclinic case as a single serial tile: the
/// DSL program and the hand-written baseline at the same size.
pub struct Tile {
    pub grid: Grid,
    pub state0: DycoreState,
    pub config: DycoreConfig,
    pub prog: DycoreProgram,
    pub expanded: dataflow::Sdfg,
}

impl Tile {
    pub fn new(n: usize, nk: usize, config: DycoreConfig) -> Tile {
        let geom = comm::CubeGeometry::new(n);
        let grid = Grid::compute(&geom.faces[1], n, 0, 0, n, fv3::state::HALO, nk);
        let mut state0 = DycoreState::zeros(n, nk);
        init_baroclinic(&mut state0, &grid, &BaroclinicConfig::default());
        let prog = build_dycore_program(n, nk, config);
        let mut expanded = prog.sdfg.clone();
        expanded.expand_libraries(&ExpansionAttrs::tuned());
        Tile {
            grid,
            state0,
            config,
            prog,
            expanded,
        }
    }

    /// One DSL/VM step from the initial state on `exec`; returns the new
    /// state and the seconds the execution took.
    pub fn vm_step(&self, exec: &Executor) -> (DycoreState, f64) {
        let mut store = DataStore::for_sdfg(&self.expanded);
        load_state(&mut store, &self.prog.ids, &self.state0, &self.grid);
        let mut hooks = fv3::profiling::RemapHooks {
            ids: &self.prog.ids,
        };
        let t0 = Instant::now();
        exec.run(&self.expanded, &mut store, &self.prog.params, &mut hooks);
        let secs = t0.elapsed().as_secs_f64();
        let mut out = self.state0.clone();
        extract_state(&store, &self.prog.ids, &mut out);
        (out, secs)
    }

    /// One hand-written `baseline_step` from the initial state.
    pub fn baseline_step(&self) -> (DycoreState, f64) {
        let mut s = self.state0.clone();
        let mut scratch = BaselineScratch::for_state(&s);
        let t0 = Instant::now();
        baseline_step(&mut s, &self.grid, &mut scratch, &self.config, &mut |_| {});
        (s, t0.elapsed().as_secs_f64())
    }
}

/// The DSL/VM single-tile step agrees with `baseline_step`.
pub fn vm_matches_baseline(checks: &mut Checks, plan: &Plan) {
    let tile = Tile::new(plan.tile_n, plan.nk, plan.request(1).config.dycore);
    let (vm, _) = tile.vm_step(&Executor::serial());
    let (base, _) = tile.baseline_step();
    let diff = vm.max_abs_diff(&base);
    checks.add(
        "vm_matches_baseline_step",
        diff.is_finite() && diff < VM_BASELINE_BOUND,
        format!(
            "c{}L{} single tile: max |DSL - baseline| {diff:.3e} (bound {VM_BASELINE_BOUND:e})",
            plan.tile_n, plan.nk
        ),
    );
}
