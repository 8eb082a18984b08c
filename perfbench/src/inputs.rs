//! The benchmark's inputs: seeded catalog programs, their offline pipelines
//! and the reference checksums every timed run is compared against.

use crate::spans::Lane;
use dchm_bench::measured_config;
use dchm_bytecode::{verify_program, Program, Value};
use dchm_core::pipeline::{prepare, PipelineConfig, Prepared};
use dchm_core::{analyze_olc, build_plan, find_state_fields, MutationPlan};
use dchm_profile::{profile_field_values, profile_hot_methods};
use dchm_vm::{Vm, VmConfig};
use dchm_workloads::{catalog, Scale, Workload};
use std::cell::Cell;
use std::collections::HashSet;

/// splitmix64 finaliser: the benchmark's only source of derived randomness.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One program to generate: a catalog entry and the value its `Rng.seed`
/// static starts at (`None` keeps the built-in seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Spec {
    pub catalog: usize,
    pub seed: Option<i64>,
}

/// One spec per catalog program, seeded once from the run seed. Seed 0 keeps
/// the built-in seeds, so the modeled figures match the paper reproduction.
pub fn catalog_specs(run_seed: u64) -> Vec<Spec> {
    (0..7)
        .map(|i| Spec {
            catalog: i,
            seed: (run_seed != 0).then(|| splitmix64(run_seed ^ splitmix64(i as u64 + 1)) as i64),
        })
        .collect()
}

/// `n` tenants cycling through the catalog, every one reseeded so that no
/// two tenants share a program (and hence a program fingerprint).
pub fn distinct_tenant_specs(run_seed: u64, n: usize) -> Vec<Spec> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut k = splitmix64(run_seed.wrapping_add(0x7e4a_2c11));
    while out.len() < n {
        k = splitmix64(k);
        let spec = Spec {
            catalog: out.len() % 7,
            seed: Some(k as i64),
        };
        if seen.insert(spec) {
            out.push(spec);
        }
    }
    out
}

/// Rewrites the initial value of the program's `Rng.seed` static.
pub fn reseed(program: &mut Program, value: i64) -> Result<(), String> {
    let fields = &program.fields;
    let slot = fields
        .iter()
        .position(|f| f.is_static && f.name == "seed" && program.class(f.owner).name == "Rng")
        .ok_or("program has no Rng.seed static")?;
    program.fields[slot].initial = Value::Int(value);
    Ok(())
}

/// Generates, reseeds and verifies the programs named by `specs`. This is
/// the work `setup_s` times.
pub fn build(specs: &[Spec], scale: Scale) -> Result<Vec<Workload>, String> {
    let base = catalog(scale);
    specs
        .iter()
        .map(|s| {
            let mut w = base[s.catalog].clone();
            if let Some(v) = s.seed {
                reseed(&mut w.program, v).map_err(|e| format!("{}: {e}", w.name))?;
            }
            verify_program(&w.program).map_err(|e| format!("{}: {e:?}", w.name))?;
            Ok(w)
        })
        .collect()
}

/// Pipeline configuration of the paper experiment (as `repro fig9`).
pub fn pipeline_config(w: &Workload) -> PipelineConfig {
    PipelineConfig {
        analysis: Default::default(),
        profile_vm: measured_config(w),
    }
}

/// Runs the offline pipeline; `Err` when a profiling run trapped.
pub fn prepare_checked(w: &Workload) -> Result<Prepared, String> {
    let trapped = Cell::new(false);
    let p = prepare(w.program.clone(), &pipeline_config(w), |vm| {
        if w.run(vm).is_err() {
            trapped.set(true);
        }
    });
    if trapped.get() {
        return Err(format!("{}: a profiling run trapped", w.name));
    }
    Ok(p)
}

/// The offline pipeline called step by step, each step timed as a span
/// under `parent`. Mirrors `pipeline::prepare`; the caller checks the plan
/// against the one `prepare` returned.
pub fn prepare_steps(
    w: &Workload,
    lane: &mut Lane,
    parent: Option<usize>,
) -> Result<MutationPlan, String> {
    let cfg = pipeline_config(w);
    let trapped = Cell::new(false);
    let run_workload = |vm: &mut Vm| {
        if w.run(vm).is_err() {
            trapped.set(true);
        }
    };
    let program = &w.program;
    let hot = lane.time("profile.hot_methods", parent, || {
        profile_hot_methods(program.clone(), cfg.profile_vm.clone(), run_workload)
    });
    let candidates = lane.time("analysis.state_fields", parent, || {
        find_state_fields(program, &hot, &cfg.analysis)
    });
    let values = lane.time("profile.field_values", parent, || {
        profile_field_values(
            program.clone(),
            cfg.profile_vm.clone(),
            candidates.iter().map(|c| c.field),
            run_workload,
        )
    });
    let plan = lane.time("analysis.build_plan", parent, || {
        build_plan(program, &hot, &values, &cfg.analysis)
    });
    lane.time("olc.analyze", parent, || {
        let targets = plan.classes.iter().map(|c| c.class).collect();
        std::hint::black_box(analyze_olc(program, Some(&targets)));
    });
    if trapped.get() {
        return Err(format!("{}: a profiling run trapped", w.name));
    }
    Ok(plan)
}

/// Output checksum of a mutation-off run with promotion disabled and
/// inlining off: the plainest execution the VM has.
pub fn reference_checksum(w: &Workload) -> Result<u64, String> {
    let mut cfg = measured_config(w);
    cfg.enable_inlining = false;
    cfg.opt1_samples = u64::MAX;
    cfg.opt2_samples = u64::MAX;
    let mut vm = Vm::new(w.program.clone(), cfg);
    w.run(&mut vm)
        .map_err(|e| format!("{}: reference run trapped: {e}", w.name))?;
    Ok(vm.state.output.checksum)
}

/// One distinct program of a workload with everything a run needs.
#[derive(Debug)]
pub struct Subject {
    pub workload: Workload,
    pub prepared: Prepared,
    pub reference: u64,
    /// Configuration of mutation-off runs.
    pub base_config: VmConfig,
    /// Configuration of mutated runs.
    pub mut_config: VmConfig,
}

impl Subject {
    pub fn name(&self) -> &'static str {
        self.workload.name
    }
}

/// Configuration of a tenant: the measured configuration with the mutable
/// methods' hotness detection accelerated (paper Fig. 14), so specials
/// compile as soon as a method is first compiled.
pub fn accelerated_config(w: &Workload, plan: &MutationPlan) -> VmConfig {
    let mut cfg = measured_config(w);
    for mc in &plan.classes {
        cfg.accelerated_methods
            .extend(mc.mutable_methods.iter().copied());
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseed_changes_only_the_seed_static() {
        let specs = [
            Spec {
                catalog: 0,
                seed: None,
            },
            Spec {
                catalog: 0,
                seed: Some(12345),
            },
        ];
        let ws = build(&specs, Scale::Small).unwrap();
        assert_ne!(
            format!("{:?}", ws[0].program),
            format!("{:?}", ws[1].program)
        );
        let a = reference_checksum(&ws[0]).unwrap();
        let b = reference_checksum(&ws[1]).unwrap();
        assert_ne!(a, b, "a new seed should change the generated data");
    }

    #[test]
    fn tenant_specs_are_distinct_and_deterministic() {
        let a = distinct_tenant_specs(3, 50);
        assert_eq!(a, distinct_tenant_specs(3, 50));
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 50);
        assert_ne!(a, distinct_tenant_specs(4, 50));
    }

    #[test]
    fn seed_zero_keeps_builtin_seeds() {
        assert!(catalog_specs(0).iter().all(|s| s.seed.is_none()));
        assert!(catalog_specs(9).iter().all(|s| s.seed.is_some()));
    }
}
