//! The end-to-end offline pipeline (paper Figure 3):
//!
//! 1. identify hot methods and
//! 2. derive state fields for hot classes (EQ 1 static analysis),
//! 3. find hot states by sampling the state fields' values,
//! 4. run object-lifetime-constant analysis,
//! 5. feed everything into a fresh VM at startup.
//!
//! The paper profiles twice, because step 2 needs the hotness of step 1
//! before step 3 knows which fields to sample. Here one profiling run
//! serves steps 1 and 3: before it, one walk over the bytecode collects
//! every EQ 1 site ([`FieldSites`]), and the simplex bound of
//! [`FieldSites::watch_set`] names every field that could score under
//! *any* cycle-share hotness. The run watches that superset; afterwards
//! EQ 1 under the measured hotness picks the candidates, and the value
//! report is cut down to them. The value observer is host-only, so the
//! run's hotness equals an unobserved run's, and the plan is bit-identical
//! to the two-run path (`profile_hot_methods` → `find_state_fields` →
//! `profile_field_values` → `build_plan`).

use crate::analysis::{plan_from_scores, AnalysisConfig, FieldSites};
use crate::engine::MutationEngine;
use crate::olc::{analyze_olc, OlcReport};
use crate::plan::MutationPlan;
use dchm_bytecode::Program;
use dchm_profile::{profile_run, HotMethodReport};
use dchm_vm::{SharedCodeCache, Vm, VmConfig};
use std::collections::HashSet;
use std::sync::Arc;

/// Pipeline configuration.
#[derive(Clone, Debug, Default)]
pub struct PipelineConfig {
    /// Static-analysis tunables (EQ 1 parameters, state caps).
    pub analysis: AnalysisConfig,
    /// VM configuration of the profiling run.
    pub profile_vm: VmConfig,
}

/// Everything the offline pipeline produced.
#[derive(Debug)]
pub struct Prepared {
    /// The program (unchanged).
    pub program: Program,
    /// The mutation plan.
    pub plan: MutationPlan,
    /// Object-lifetime-constant analysis results.
    pub olc: OlcReport,
    /// Hot-method profile of the profiling run (diagnostics).
    pub hot: HotMethodReport,
}

impl Prepared {
    /// Builds a VM with the mutation engine installed.
    pub fn make_vm(&self, config: VmConfig) -> Vm {
        let engine = MutationEngine::new(self.plan.clone(), self.olc.clone());
        engine.attach(self.program.clone(), config)
    }

    /// [`Self::make_vm`] for a fleet tenant: attaches the fleet-wide shared
    /// compile-artifact cache right after engine attach. Attach installs
    /// patch points but compiles nothing, so the cache observes every
    /// compile of the subsequent run — including the engine's batched
    /// special-version installs, which probe it before running a pipeline.
    pub fn make_vm_shared(&self, config: VmConfig, shared: &Arc<SharedCodeCache>) -> Vm {
        let mut vm = self.make_vm(config);
        vm.state.attach_shared_cache(Arc::clone(shared));
        vm
    }

    /// Builds a mutation-off VM over the same program (the baseline the
    /// paper's speedups compare against).
    pub fn make_baseline_vm(&self, config: VmConfig) -> Vm {
        Vm::new(self.program.clone(), config)
    }
}

/// Runs the offline pipeline. `driver` runs the workload on the profiling
/// VM and is invoked once: that run gives both the method hotness and the
/// values of every field EQ 1 could select (see the module docs).
pub fn prepare(
    program: Program,
    cfg: &PipelineConfig,
    driver: impl FnOnce(&mut Vm),
) -> Prepared {
    let sites = FieldSites::collect(&program);
    let watch = sites.watch_set(&cfg.analysis);
    // Steps 1 and 3: one run, watching a superset of the candidates.
    let (hot, mut values) = profile_run(program.clone(), cfg.profile_vm.clone(), watch, driver);
    // Step 2: candidate state fields under the measured hotness.
    let candidates = sites.scores(&program, &hot, &cfg.analysis);
    // Keep what a run watching only the candidates would have recorded.
    values.retain_fields(&candidates.iter().map(|c| c.field).collect::<HashSet<_>>());
    let plan = plan_from_scores(&program, candidates, &values, &cfg.analysis);
    // Step 4: OLC analysis restricted to the mutable classes.
    let targets = plan.classes.iter().map(|c| c.class).collect();
    let olc = analyze_olc(&program, Some(&targets));
    Prepared {
        program,
        plan,
        olc,
        hot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchm_bytecode::{CmpOp, MethodSig, ProgramBuilder, Ty};

    /// Logic-simulator-flavoured program: a Gate with a `kind` field and an
    /// eval() branching on it, hammered in a loop.
    fn gates() -> (Program, dchm_bytecode::ClassId) {
        let mut pb = ProgramBuilder::new();
        let gate = pb.class("Gate").build();
        let kind = pb.instance_field(gate, "kind", Ty::Int);
        let mut m = pb.ctor(gate, vec![Ty::Int]);
        let this = m.this();
        let k = m.param(0);
        m.put_field(this, kind, k);
        m.ret(None);
        m.build();
        let mut m = pb.method(gate, "eval", MethodSig::new(vec![Ty::Int, Ty::Int], Some(Ty::Int)));
        let this = m.this();
        let a = m.param(0);
        let b = m.param(1);
        let k = m.reg();
        m.get_field(k, this, kind);
        let l_or = m.label();
        let out = m.reg();
        m.br_icmp_imm(CmpOp::Ne, k, 0, l_or);
        m.ibin(dchm_bytecode::IBinOp::And, out, a, b);
        m.ret(Some(out));
        m.bind(l_or);
        m.ibin(dchm_bytecode::IBinOp::Or, out, a, b);
        m.ret(Some(out));
        m.build();

        let mut m = pb.static_method(gate, "main", MethodSig::void());
        let g0 = m.reg();
        let zero = m.imm(0);
        m.new_init(g0, gate, vec![zero]);
        let i = m.reg();
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        let lim = m.imm(4000);
        m.br_icmp(CmpOp::Ge, i, lim, done);
        let one = m.imm(1);
        let v = m.reg();
        m.call_virtual(Some(v), g0, "eval", vec![i, one]);
        m.sink_int(v);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        (pb.finish().unwrap(), gate)
    }

    #[test]
    fn pipeline_end_to_end_preserves_behaviour() {
        let (p, gate) = gates();
        let cfg = PipelineConfig::default();
        let prepared = prepare(p, &cfg, |vm| {
            vm.run_entry().unwrap();
        });
        assert!(prepared.plan.class(gate).is_some());

        let fast = VmConfig {
            sample_period: 10_000,
            opt1_samples: 2,
            opt2_samples: 4,
            ..Default::default()
        };

        let mut base = prepared.make_baseline_vm(fast.clone());
        base.run_entry().unwrap();
        let mut mutated = prepared.make_vm(fast);
        mutated.run_entry().unwrap();
        assert_eq!(base.state.output.checksum, mutated.state.output.checksum);
        assert!(mutated.stats().special_tibs > 0);
    }

    #[test]
    fn shared_cache_tenants_stay_bit_identical_and_second_skips_the_compiler() {
        let (p, _) = gates();
        let prepared = prepare(p, &PipelineConfig::default(), |vm| {
            vm.run_entry().unwrap();
        });
        let fast = VmConfig {
            sample_period: 10_000,
            opt1_samples: 2,
            opt2_samples: 4,
            ..Default::default()
        };
        let mut solo = prepared.make_vm(fast.clone());
        solo.run_entry().unwrap();

        let shared = Arc::new(SharedCodeCache::new(1024));
        let mut t1 = prepared.make_vm_shared(fast.clone(), &shared);
        t1.run_entry().unwrap();
        let mut t2 = prepared.make_vm_shared(fast, &shared);
        t2.run_entry().unwrap();

        // Sharing is invisible to every modeled observable.
        assert_eq!(solo.state.output.checksum, t1.state.output.checksum);
        assert_eq!(solo.cycles(), t1.cycles());
        assert_eq!(t1.cycles(), t2.cycles());
        assert_eq!(t1.stats(), t2.stats());
        // The second identical tenant never runs a compiler pipeline.
        assert!(t1.state.shared_misses > 0);
        assert!(t2.state.shared_hits > 0);
        assert_eq!(t2.state.compile_wall_nanos, 0);
        assert!(shared.stats().hits >= t2.state.shared_hits);
    }

    #[test]
    fn plan_survives_json_roundtrip_through_pipeline() {
        let (p, _) = gates();
        let prepared = prepare(p, &PipelineConfig::default(), |vm| {
            vm.run_entry().unwrap();
        });
        let json = prepared.plan.to_json().unwrap();
        let back = MutationPlan::from_json(&json).unwrap();
        assert_eq!(prepared.plan, back);
    }
}
