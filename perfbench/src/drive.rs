//! The three workloads: set-up, offline pipelines, references, then the
//! timed passes. A pass is one closed-loop sweep: a Fig. 9 round (every
//! program's baseline and mutated run on one thread) or a fleet batch of
//! tenants on two workers.

use crate::inputs::{
    accelerated_config, build, catalog_specs, distinct_tenant_specs, prepare_checked,
    prepare_steps, reference_checksum, splitmix64, Spec, Subject,
};
use crate::jobs::{replay, run_job, JobOutcome, Modeled};
use crate::spans::{now_ns, Lane};
use dchm_bench::measured_config;
use dchm_vm::fleet::{run_fleet, FleetConfig};
use dchm_vm::{SharedCodeCache, Vm};
use dchm_workloads::{Scale, Workload};
use std::sync::Arc;

/// Fleet workers of the tenant workloads.
pub const WORKERS: usize = 2;
/// Tenants per fleet batch: the cold workload's distinct programs, and the
/// warm workload's draws per batch.
pub const TENANTS: usize = 140;
/// Entries of the tenants' shared artifact cache (the per-VM code cache's
/// default capacity).
pub const SHARED_CAPACITY: usize = 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fig9,
    Cold,
    Warm,
}

impl Kind {
    const ALL: [(&'static str, Kind); 3] = [
        ("fig9-full", Kind::Fig9),
        ("tenant-churn-cold", Kind::Cold),
        ("tenant-fanout-warm", Kind::Warm),
    ];

    pub fn parse(name: &str) -> Option<Kind> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, k)| k)
    }

    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, k)| *k == self)
            .map(|&(n, _)| n)
            .expect("every kind is named")
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny inputs for the smoke test.
    pub smoke: bool,
}

/// One timed pass.
#[derive(Debug)]
pub struct Pass {
    pub traced: bool,
    pub wall_ns: u64,
    pub workers: usize,
    pub jobs: Vec<JobOutcome>,
    /// Shared-cache inserts and evictions during the pass.
    pub shared_inserts: u64,
    pub shared_evictions: u64,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Record {
    pub opts: Options,
    specs: Vec<Spec>,
    scale: Scale,
    pub subjects: Vec<Subject>,
    pub setup_s: Vec<f64>,
    /// `pipeline::prepare` walls per subject.
    pub offline_walls: Vec<Vec<f64>>,
    /// Solo mutation-off passes of the tenant workloads' programs.
    pub baseline_passes: Vec<Pass>,
    pub passes: Vec<Pass>,
    /// Untraced jobs run outside the passes (the warm fleet's warm-up, the
    /// solo runs behind the compile replay).
    pub extra_jobs: Vec<JobOutcome>,
    /// Main-thread spans: set-up, offline steps, compile replay.
    pub main: Lane,
    /// Spans of the traced passes.
    pub pass_spans: Vec<Lane>,
    pub errors: Vec<String>,
    /// The first modeled result per subject and side (mutation off, on).
    pub modeled: Vec<[Option<Modeled>; 2]>,
}

impl Record {
    /// Files finished jobs: keeps each subject's first modeled result per
    /// side and checks every later run reproduced it exactly (the modeled
    /// clock is deterministic), so only one copy is held.
    fn absorb(&mut self, jobs: &mut [JobOutcome]) {
        self.modeled.resize(self.subjects.len(), [None, None]);
        for j in jobs {
            let Some(m) = j.modeled.take() else { continue };
            match &self.modeled[j.subject][j.mutated as usize] {
                None => self.modeled[j.subject][j.mutated as usize] = Some(m),
                Some(first) if *first != m => self.errors.push(format!(
                    "{}: modeled clock differs between runs (mutated: {})",
                    self.subjects[j.subject].name(),
                    j.mutated
                )),
                Some(_) => {}
            }
        }
    }

    /// One timed set-up: generate, reseed and verify the programs.
    fn build_timed(&mut self) -> Result<Vec<Workload>, String> {
        let t0 = now_ns();
        let built = if self.opts.traced {
            let (specs, scale) = (&self.specs, self.scale);
            self.main
                .time("workloads.build", None, || build(specs, scale))
        } else {
            build(&self.specs, self.scale)
        };
        self.setup_s.push((now_ns() - t0) as f64 * 1e-9);
        built
    }

    fn push_pass(&mut self, mut pass: Pass) {
        self.absorb(&mut pass.jobs);
        self.passes.push(pass);
    }

    fn push_extra(&mut self, mut jobs: Vec<JobOutcome>) {
        self.absorb(&mut jobs);
        self.extra_jobs.extend(jobs);
    }
}

pub fn run(opts: Options) -> Record {
    let scale = match opts.kind {
        Kind::Fig9 if !opts.smoke => Scale::Full,
        _ => Scale::Small,
    };
    let tenants_per_batch = if opts.smoke { TENANTS / 10 } else { TENANTS };
    let specs: Vec<Spec> = match opts.kind {
        Kind::Fig9 | Kind::Warm => catalog_specs(opts.seed),
        Kind::Cold => distinct_tenant_specs(opts.seed, tenants_per_batch),
    };
    let mut rec = Record {
        opts,
        specs,
        scale,
        subjects: Vec::new(),
        setup_s: Vec::new(),
        offline_walls: Vec::new(),
        baseline_passes: Vec::new(),
        passes: Vec::new(),
        extra_jobs: Vec::new(),
        main: Lane::new(0),
        pass_spans: Vec::new(),
        errors: Vec::new(),
        modeled: Vec::new(),
    };

    // Set-up: generate, reseed and verify. It takes a few milliseconds at
    // most, so it is repeated here and again between the timed passes (see
    // `between`), and the median is reported.
    let mut workloads = Vec::new();
    for _ in 0..if opts.smoke { 2 } else { 21 } {
        match rec.build_timed() {
            Ok(ws) => workloads = ws,
            Err(e) => {
                rec.errors.push(e);
                return rec;
            }
        }
    }

    // Offline pipelines, then the references (neither is set-up time). The
    // pipeline is timed again between the timed passes.
    let mut prepared = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let t0 = now_ns();
        match prepare_checked(w) {
            Ok(p) => {
                rec.offline_walls.push(vec![(now_ns() - t0) as f64 * 1e-9]);
                prepared.push(p);
            }
            Err(e) => {
                rec.errors.push(e);
                return rec;
            }
        }
    }
    for (w, prepared) in workloads.into_iter().zip(prepared) {
        if opts.traced {
            let root = rec.main.open("offline", None);
            match prepare_steps(&w, &mut rec.main, Some(root)) {
                Ok(plan) if plan != prepared.plan => rec.errors.push(format!(
                    "{}: step-by-step plan differs from prepare's",
                    w.name
                )),
                Ok(_) => {}
                Err(e) => rec.errors.push(e),
            }
            rec.main.close(root);
        }
        let reference = match reference_checksum(&w) {
            Ok(r) => r,
            Err(e) => {
                rec.errors.push(e);
                continue;
            }
        };
        let mut_config = match opts.kind {
            Kind::Fig9 => measured_config(&w),
            Kind::Cold | Kind::Warm => accelerated_config(&w, &prepared.plan),
        };
        rec.subjects.push(Subject {
            base_config: measured_config(&w),
            mut_config,
            workload: w,
            prepared,
            reference,
        });
    }
    if !rec.errors.is_empty() {
        return rec;
    }

    match opts.kind {
        Kind::Fig9 => fig9(&mut rec),
        Kind::Cold | Kind::Warm => tenants(&mut rec, tenants_per_batch),
    }
    rec
}

/// Runs passes until the time is up: alternating untraced and traced passes
/// in a traced run (swapping which goes first in each pair), untraced passes
/// otherwise. `pass(index, traced)` runs one pass; [`between`] runs after
/// each.
fn timed_loop(rec: &mut Record, mut pass: impl FnMut(&mut Record, usize, bool)) {
    let t0 = now_ns();
    let budget = (rec.opts.seconds * 1e9) as u64;
    let mut side = Between::default();
    let mut i = 0;
    loop {
        let traced = rec.opts.traced && ((i / 2) % 2 == 1) == (i % 2 == 0);
        pass(rec, i, traced);
        between(rec, &mut side, now_ns() - t0);
        i += 1;
        if now_ns() - t0 >= budget && (!rec.opts.traced || i % 2 == 0) {
            break;
        }
    }
}

/// Time spent so far on the work [`between`] re-measures.
#[derive(Default)]
struct Between {
    setup_ns: u64,
    offline_ns: u64,
    baseline_ns: u64,
    next_prepare: usize,
}

/// Re-measures set-up, the offline pipeline (one program at a time, in
/// turn) and, on the tenant workloads, solo mutation-off passes over the
/// distinct programs, each until its share of the elapsed loop time (2%,
/// 12% and 20%) is used. Spreading them over the run makes their medians
/// sample the same host conditions as the timed passes.
fn between(rec: &mut Record, side: &mut Between, elapsed: u64) {
    while side.setup_ns * 50 <= elapsed && rec.errors.is_empty() {
        let t0 = now_ns();
        if let Err(e) = rec.build_timed() {
            rec.errors.push(e);
        }
        side.setup_ns += now_ns() - t0;
    }
    while side.offline_ns * 8 <= elapsed && rec.errors.is_empty() {
        let i = side.next_prepare % rec.subjects.len();
        side.next_prepare += 1;
        let t0 = now_ns();
        match prepare_checked(&rec.subjects[i].workload) {
            Ok(_) => rec.offline_walls[i].push((now_ns() - t0) as f64 * 1e-9),
            Err(e) => rec.errors.push(e),
        }
        side.offline_ns += now_ns() - t0;
    }
    while rec.opts.kind != Kind::Fig9 && side.baseline_ns * 5 <= elapsed {
        let t0 = now_ns();
        let mut jobs: Vec<JobOutcome> = (0..rec.subjects.len())
            .map(|si| run_job(&rec.subjects, si, false, None, None, 0, false).0)
            .collect();
        rec.absorb(&mut jobs);
        let wall_ns = now_ns() - t0;
        side.baseline_ns += wall_ns;
        rec.baseline_passes.push(Pass {
            traced: false,
            wall_ns,
            workers: 1,
            jobs,
            shared_inserts: 0,
            shared_evictions: 0,
        });
    }
}

fn fig9(rec: &mut Record) {
    let mut replayed = false;
    timed_loop(rec, |rec, round, traced| {
        let keep = traced && !replayed;
        let mut lane = Lane::new(0);
        let start = now_ns();
        let root = traced.then(|| lane.open("fig9.round", None));
        let mut jobs = Vec::with_capacity(rec.subjects.len() * 2);
        let mut kept: Vec<(usize, bool, Vm)> = Vec::new();
        for si in 0..rec.subjects.len() {
            let order = if round % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for mutated in order {
                let (mut o, vm) = run_job(
                    &rec.subjects,
                    si,
                    mutated,
                    None,
                    traced.then_some(0),
                    0,
                    keep,
                );
                if let Some(l) = o.lane.take() {
                    lane.adopt(l, root);
                }
                if let Some(vm) = vm {
                    kept.push((si, mutated, vm));
                }
                jobs.push(o);
            }
        }
        if let Some(root) = root {
            lane.close(root);
        }
        let wall_ns = now_ns() - start;
        rec.push_pass(Pass {
            traced,
            wall_ns,
            workers: 1,
            jobs,
            shared_inserts: 0,
            shared_evictions: 0,
        });
        if traced {
            rec.pass_spans.push(lane);
        }
        // Compile replay, outside the timed round.
        for (si, mutated, vm) in kept {
            let plan = mutated.then_some(&rec.subjects[si].prepared.plan);
            if let Err(e) = replay(&vm, plan, &mut rec.main) {
                rec.errors.push(format!("{}: {e}", rec.subjects[si].name()));
            }
            replayed = true;
        }
    });
}

/// One fleet batch over `order` (subject indices) with `shared` attached.
fn fleet_pass(rec: &mut Record, order: &[usize], shared: &Arc<SharedCodeCache>, traced: bool) {
    let before = shared.stats();
    let subjects = &rec.subjects;
    let start = now_ns();
    let fleet = run_fleet(&FleetConfig::dynamic(WORKERS), order, |ctx, &si| {
        let lane = traced.then_some(ctx.shard as u32 + 1);
        run_job(subjects, si, true, Some(shared), lane, ctx.shard, false).0
    });
    let end = now_ns();
    let after = shared.stats();
    let mut jobs = fleet.results;
    if traced {
        // One lane span per worker covering the batch; each tenant's spans
        // hang under its worker's lane.
        let mut lanes = Lane::new(0);
        let roots: Vec<usize> = (0..WORKERS.min(order.len()))
            .map(|w| {
                let mut l = Lane::new(w as u32 + 1);
                l.push("fleet.lane", None, start, end, 1);
                let base = lanes.spans.len();
                lanes.adopt(l, None);
                base
            })
            .collect();
        for j in &mut jobs {
            if let Some(l) = j.lane.take() {
                lanes.adopt(l, Some(roots[j.shard]));
            }
        }
        rec.pass_spans.push(lanes);
    }
    rec.push_pass(Pass {
        traced,
        wall_ns: end - start,
        workers: WORKERS.min(order.len()),
        jobs,
        shared_inserts: after.inserts - before.inserts,
        shared_evictions: after.evictions - before.evictions,
    });
}

/// A seeded Fisher-Yates shuffle.
fn shuffle(v: &mut [usize], seed: u64) {
    let mut k = seed;
    for i in (1..v.len()).rev() {
        k = splitmix64(k);
        v.swap(i, (k % (i as u64 + 1)) as usize);
    }
}

fn tenants(rec: &mut Record, warm_batch: usize) {
    let n = rec.subjects.len();
    let warm = rec.opts.kind == Kind::Warm;
    let mut shared = Arc::new(SharedCodeCache::new(SHARED_CAPACITY));
    if warm {
        // Warm-up: one tenant per program fills the shared store, so the
        // timed batches exercise its read side.
        let subjects = &rec.subjects;
        let order: Vec<usize> = (0..n).collect();
        let fleet = run_fleet(&FleetConfig::dynamic(WORKERS), &order, |ctx, &si| {
            run_job(subjects, si, true, Some(&shared), None, ctx.shard, false).0
        });
        rec.push_extra(fleet.results);
    }
    let seed = rec.opts.seed;
    let mut replayed = false;
    timed_loop(rec, |rec, batch, traced| {
        let order: Vec<usize> = if warm {
            let mut o: Vec<usize> = (0..warm_batch).map(|i| i % n).collect();
            shuffle(&mut o, seed ^ splitmix64(batch as u64 + 1));
            o
        } else {
            // Cold: every batch meets an empty store.
            shared = Arc::new(SharedCodeCache::new(SHARED_CAPACITY));
            (0..n).collect()
        };
        fleet_pass(rec, &order, &shared, traced);
        if traced && !replayed {
            replayed = true;
            // Replay one solo VM per catalog program, outside the fleet.
            for si in 0..n.min(7) {
                let (o, vm) = run_job(&rec.subjects, si, true, None, None, 0, true);
                let plan = &rec.subjects[si].prepared.plan;
                if let Some(vm) = vm {
                    if let Err(e) = replay(&vm, Some(plan), &mut rec.main) {
                        rec.errors.push(format!("{}: {e}", rec.subjects[si].name()));
                    }
                }
                rec.push_extra(vec![o]);
            }
        }
    });
}
