//! The engine's compile requests are transparent to every cache. On every
//! Small catalog program, with its prepared plan installed, the requests the
//! engine issues — general recompiles through `recompile`, one special per
//! hot state through `compile_special` — are served on one VM per code-cache
//! capacity (0, 1 and 1024). Each list repeats one earlier request after a
//! distinct one, so at capacity 1 the repeat finds its entry evicted and
//! misses, and at capacity 1024 it hits.
//!
//! Every capacity leaves the same modeled clock, recompilation events and
//! `VmStats` counters apart from the code cache's own. Attaching a
//! `SharedCodeCache` changes nothing at all, and a second tenant's identical
//! requests are answered entirely by the store: no pipeline runs, so they add
//! exactly 0 to `compile_wall_nanos`.

use dchm::bytecode::{MethodId, MethodKind};
use dchm::core::pipeline::{prepare, PipelineConfig, Prepared};
use dchm::ir::passes::Bindings;
use dchm::vm::{SharedCodeCache, Vm, VmConfig, VmStats};
use dchm::workloads::{catalog, Scale};
use std::collections::HashSet;
use std::sync::Arc;

/// One special-version request: method, level, state bindings.
type Special = (MethodId, u8, Bindings);

/// The requests the engine issues when it installs `prepared`'s plan: a
/// general recompile of every mutable method at levels 1 and 2, and one
/// special per (mutable method, hot state) at the mutation level. Each list
/// ends with a repeat of its first request; the recompiles are otherwise
/// distinct.
fn requests(prepared: &Prepared) -> (Vec<(MethodId, u8)>, Vec<Special>) {
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
                    specials.push((method, plan.mutation_level, b));
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

/// Everything serving the requests leaves behind.
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

impl Outcome {
    /// The part no cache may change: the modeled clock, the recompilation
    /// events and every counter except the code cache's own.
    fn modeled(&self) -> (u64, &[(MethodId, u8)], VmStats) {
        let mut stats = self.stats.clone();
        stats.code_cache_hits = 0;
        stats.code_cache_misses = 0;
        stats.code_cache_evictions = 0;
        stats.code_cache_invalidations = 0;
        (self.clock, &self.events, stats)
    }
}

fn serve(vm: &mut Vm, recompiles: &[(MethodId, u8)], specials: &[Special]) -> Outcome {
    let s = &mut vm.state;
    let recompiled = recompiles.iter().map(|&(m, l)| s.recompile(m, l).0).collect();
    let after_recompiles = s.stats.clone();
    let specials = specials
        .iter()
        .map(|(m, l, b)| s.compile_special(*m, *l, b).map(|c| c.0))
        .collect();
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

#[test]
fn engine_compile_requests_are_cache_and_store_transparent() {
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
        let mut uncached: Option<Outcome> = None;
        for capacity in [0, 1, 1024] {
            let what = format!("{} at code-cache capacity {capacity}", w.name);
            let config = VmConfig {
                code_cache_capacity: capacity,
                ..w.vm_config()
            };

            let solo = serve(&mut prepared.make_vm(config.clone()), &recompiles, &specials);
            assert!(solo.specials.iter().all(Option::is_some), "{what}: a special failed");
            let s = &solo.after_recompiles;
            match capacity {
                // Every recompile missed, the repeat included: its entry had
                // been evicted by the distinct request before it.
                1 => assert_eq!(
                    (s.code_cache_hits, s.code_cache_misses as usize),
                    (0, recompiles.len()),
                    "{what}"
                ),
                1024 => assert_eq!(
                    (s.code_cache_hits, s.code_cache_misses as usize),
                    (1, recompiles.len() - 1),
                    "{what}: only the repeat hits"
                ),
                _ => {}
            }
            if let Some(u) = &uncached {
                assert_eq!(solo.modeled(), u.modeled(), "{what}: the cache changed the model");
            }

            let shared = Arc::new(SharedCodeCache::new(1024));
            let mut first = prepared.make_vm_shared(config.clone(), &shared);
            let published = serve(&mut first, &recompiles, &specials);
            assert_eq!(published, solo, "{what}: the shared store changed the outcome");
            let mut second = prepared.make_vm_shared(config, &shared);
            let served = serve(&mut second, &recompiles, &specials);
            assert_eq!(served, solo, "{what}: a store-fed tenant diverges");
            assert_eq!(second.state.shared_misses, 0, "{what}: the store missed");
            assert!(second.state.shared_hits > 0, "{what}: the store was not probed");
            assert_eq!(
                second.state.compile_wall_nanos, 0,
                "{what}: a fully store-fed tenant ran a pipeline"
            );
            uncached.get_or_insert(solo);
        }
    }
}
