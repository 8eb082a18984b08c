//! The offline pipeline profiles with one run of the workload. Its plan and
//! hot-method report must equal the stepwise path that runs the workload
//! twice — `profile_hot_methods` → `find_state_fields` →
//! `profile_field_values` → `build_plan` — on every catalog program, at the
//! built-in seed and reseeded.

use dchm::bytecode::Value;
use dchm::core::analysis::{build_plan, find_state_fields};
use dchm::core::pipeline::{prepare, PipelineConfig};
use dchm::profile::{profile_field_values, profile_hot_methods};
use dchm::vm::Vm;
use dchm::workloads::{catalog, Scale, Workload};
use std::cell::Cell;

/// Rewrites the initial value of the program's `Rng.seed` static, which
/// every catalog program draws its data from.
fn reseeded(w: &Workload, seed: i64) -> Workload {
    let mut w = w.clone();
    let p = &w.program;
    let slot = p
        .fields
        .iter()
        .position(|f| f.is_static && f.name == "seed" && p.class(f.owner).name == "Rng")
        .unwrap_or_else(|| panic!("{} has no Rng.seed static", w.name));
    w.program.fields[slot].initial = Value::Int(seed);
    w
}

#[test]
fn prepare_runs_the_workload_once_and_matches_the_stepwise_path() {
    let mut mutable_classes = 0;
    for w in catalog(Scale::Small) {
        let variants = [None, Some(7), Some(-20_060_326), Some(0x5eed)];
        for seed in variants {
            let w = seed.map_or_else(|| w.clone(), |s| reseeded(&w, s));
            let cfg = PipelineConfig {
                profile_vm: w.vm_config(),
                ..Default::default()
            };
            let what = format!("{} seed {seed:?}", w.name);

            let runs = Cell::new(0);
            let prepared = prepare(w.program.clone(), &cfg, |vm| {
                runs.set(runs.get() + 1);
                w.run(vm).expect("profiling run");
            });
            assert_eq!(runs.get(), 1, "{what}: prepare must run the workload once");

            let run = |vm: &mut Vm| w.run(vm).expect("profiling run");
            let p = &w.program;
            let hot = profile_hot_methods(p.clone(), cfg.profile_vm.clone(), run);
            let candidates = find_state_fields(p, &hot, &cfg.analysis);
            let values = profile_field_values(
                p.clone(),
                cfg.profile_vm.clone(),
                candidates.iter().map(|c| c.field),
                run,
            );
            let plan = build_plan(p, &hot, &values, &cfg.analysis);

            assert_eq!(prepared.hot, hot, "{what}: hot-method report");
            assert_eq!(prepared.plan, plan, "{what}: plan");
            mutable_classes += plan.classes.len();
        }
    }
    assert!(mutable_classes > 0, "the catalog must yield mutable classes");
}
