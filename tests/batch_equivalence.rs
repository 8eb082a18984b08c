//! A batched compile is the same requests issued one by one. On every Small
//! catalog program, with its prepared plan installed, `recompile_batch` and
//! `compile_batch` on one VM must leave exactly what `recompile` and
//! `compile_special`, called in request order, leave on a twin: the returned
//! ids, the modeled clock, every `VmStats` counter, the recompilation events
//! and the code store's sizes. Each batch repeats one earlier request after
//! a distinct one, so at code-cache capacity 1 the duplicate finds its twin
//! evicted and takes the batch's full-compile fallback.
//!
//! With a `SharedCodeCache` attached the batch is unchanged, and a second
//! tenant's identical batch is answered entirely by the store: no pipeline
//! runs, so it adds exactly 0 to `compile_wall_nanos`.
//!
//! Only fault-free configs are compared. With fault injection on, governor
//! gates and quarantine deadlines read the modeled clock, which a serial
//! loop advances between requests while a batch gates every request before
//! billing any; the two paths are not meant to agree there.

use dchm::bytecode::{MethodId, MethodKind};
use dchm::core::pipeline::{prepare, PipelineConfig, Prepared};
use dchm::ir::passes::Bindings;
use dchm::vm::{CompileRequest, SharedCodeCache, Vm, VmConfig, VmState, VmStats};
use dchm::workloads::{catalog, Scale};
use std::collections::HashSet;
use std::sync::Arc;

/// The requests the engine issues when it installs `prepared`'s plan: a
/// general recompile of every mutable method at levels 1 and 2, and one
/// special per (mutable method, hot state) at the mutation level. Each list
/// ends with a repeat of its first request; the recompiles are otherwise
/// distinct.
fn requests(prepared: &Prepared) -> (Vec<(MethodId, u8)>, Vec<CompileRequest>) {
    let plan = &prepared.plan;
    let mut seen = HashSet::new();
    let mut recompiles = Vec::new();
    let mut specials = Vec::new();
    for class in &plan.classes {
        for &method in &class.mutable_methods {
            if !seen.insert(method) {
                continue;
            }
            recompiles.push((method, 1));
            recompiles.push((method, 2));
            let is_static = prepared.program.method(method).kind == MethodKind::Static;
            for st in &class.hot_states {
                let mut b = Bindings::default();
                if !is_static {
                    b.instance = st.instance_values.iter().copied().collect();
                }
                b.statics = st.static_values.iter().copied().collect();
                if !b.is_empty() {
                    specials.push(CompileRequest {
                        method,
                        level: plan.mutation_level,
                        bindings: Some(b),
                    });
                }
            }
        }
    }
    if let Some(&first) = recompiles.first() {
        recompiles.push(first);
    }
    if let Some(first) = specials.first().cloned() {
        specials.push(first);
    }
    (recompiles, specials)
}

/// Everything a compile leaves behind that must not depend on batching.
#[derive(Debug, PartialEq)]
struct Outcome {
    recompiled: Vec<u32>,
    after_recompiles: VmStats,
    specials: Vec<Option<u32>>,
    events: Vec<(MethodId, u8)>,
    clock: u64,
    stats: VmStats,
    code: Vec<(MethodId, u8, bool, usize, u64)>,
}

fn outcome(
    s: &mut VmState,
    recompiled: Vec<u32>,
    after_recompiles: VmStats,
    specials: Vec<Option<u32>>,
) -> Outcome {
    Outcome {
        recompiled,
        after_recompiles,
        specials,
        events: s.take_recompile_events(),
        clock: s.clock,
        stats: s.stats.clone(),
        code: s
            .code
            .iter()
            .map(|c| (c.method, c.level, c.special, c.size_bytes, c.binding_fp))
            .collect(),
    }
}

fn batched(vm: &mut Vm, recompiles: &[(MethodId, u8)], specials: &[CompileRequest]) -> Outcome {
    let s = &mut vm.state;
    let r = s.recompile_batch(recompiles).iter().map(|c| c.0).collect();
    let mid = s.stats.clone();
    let sp = s
        .compile_batch(specials.to_vec())
        .iter()
        .map(|c| c.map(|c| c.0))
        .collect();
    outcome(s, r, mid, sp)
}

fn one_by_one(vm: &mut Vm, recompiles: &[(MethodId, u8)], specials: &[CompileRequest]) -> Outcome {
    let s = &mut vm.state;
    let r = recompiles.iter().map(|&(m, l)| s.recompile(m, l).0).collect();
    let mid = s.stats.clone();
    let sp = specials
        .iter()
        .map(|q| {
            let b = q.bindings.as_ref().expect("special request");
            s.compile_special(q.method, q.level, b).map(|c| c.0)
        })
        .collect();
    outcome(s, r, mid, sp)
}

#[test]
fn batch_compiles_equal_the_same_requests_one_by_one() {
    for w in catalog(Scale::Small) {
        let cfg = PipelineConfig {
            profile_vm: w.vm_config(),
            ..Default::default()
        };
        let prepared = prepare(w.program.clone(), &cfg, |vm| {
            w.run(vm).expect("profiling run");
        });
        let (recompiles, specials) = requests(&prepared);
        assert!(
            !recompiles.is_empty() && !specials.is_empty(),
            "{}: the plan mutates nothing",
            w.name
        );
        for capacity in [0, 1, 1024] {
            let what = format!("{} at code-cache capacity {capacity}", w.name);
            let config = VmConfig {
                code_cache_capacity: capacity,
                ..w.vm_config()
            };

            let batch = batched(&mut prepared.make_vm(config.clone()), &recompiles, &specials);
            let serial = one_by_one(&mut prepared.make_vm(config.clone()), &recompiles, &specials);
            assert_eq!(batch, serial, "{what}: batch and one-by-one compiles diverge");
            assert!(batch.specials.iter().all(Option::is_some), "{what}: a special failed");
            if capacity == 1 {
                // Every recompile missed, the repeat included: its twin's
                // entry had been evicted, so the batch compiled it again.
                let s = &batch.after_recompiles;
                assert_eq!(s.code_cache_hits, 0, "{what}");
                assert_eq!(s.code_cache_misses as usize, recompiles.len(), "{what}");
            }

            let shared = Arc::new(SharedCodeCache::new(1024));
            let mut first = prepared.make_vm_shared(config.clone(), &shared);
            let published = batched(&mut first, &recompiles, &specials);
            assert_eq!(published, batch, "{what}: the shared store changed a batch");
            let mut second = prepared.make_vm_shared(config, &shared);
            let served = batched(&mut second, &recompiles, &specials);
            assert_eq!(served, batch, "{what}: a store-fed batch diverges");
            assert_eq!(second.state.shared_misses, 0, "{what}: the store missed");
            assert!(second.state.shared_hits > 0, "{what}: the store was not probed");
            assert_eq!(
                second.state.compile_wall_nanos, 0,
                "{what}: a fully store-fed batch ran a pipeline"
            );
        }
    }
}
