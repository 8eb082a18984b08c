//! One job = one VM built for a subject, run once, and checked against the
//! subject's reference checksum. The traced variant builds the same VM from
//! the same public calls one step at a time, each step a span, and wraps the
//! mutation engine in a handler that times every hook.

use crate::inputs::Subject;
use crate::spans::{now_ns, Lane};
use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{ClassId, FieldId, MethodId, MethodKind, Value};
use dchm_core::{MutationEngine, MutationPlan};
use dchm_ir::passes::Bindings;
use dchm_vm::compiler::{bindings_from, compile_in, lift_baseline, CompileEnv};
use dchm_vm::{binding_fingerprint, CompiledMethod, MutationHandler, SharedCodeCache, Vm, VmState};
use std::cell::RefCell;
use std::ops::AddAssign;
use std::rc::Rc;
use std::sync::Arc;

/// Layer counters read from a finished VM.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub tib_flips: u64,
    pub ops: u64,
    pub ic_hits: u64,
    pub ic_misses: u64,
    pub compile_requests: u64,
    pub special_compiles: u64,
    pub code_bytes: u64,
    pub local_hits: u64,
    pub local_misses: u64,
    pub shared_hits: u64,
    pub shared_misses: u64,
    pub gc_count: u64,
    pub bytes_allocated: u64,
    pub compile_wall_ns: u64,
}

impl Counters {
    fn of(vm: &Vm) -> Self {
        let s = vm.stats();
        Counters {
            tib_flips: s.tib_flips,
            ops: s.ops_executed,
            ic_hits: s.ic_hits,
            ic_misses: s.ic_misses,
            compile_requests: s.compiles_by_level.iter().sum::<u64>() + s.special_compiles,
            special_compiles: s.special_compiles,
            code_bytes: s.code_bytes_by_level.iter().sum::<u64>() + s.special_code_bytes,
            local_hits: s.code_cache_hits,
            local_misses: s.code_cache_misses,
            shared_hits: vm.state.shared_hits,
            shared_misses: vm.state.shared_misses,
            gc_count: vm.state.heap.stats.gc_count,
            bytes_allocated: vm.state.heap.stats.bytes_allocated,
            compile_wall_ns: vm.state.compile_wall_nanos,
        }
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, o: Self) {
        self.tib_flips += o.tib_flips;
        self.ops += o.ops;
        self.ic_hits += o.ic_hits;
        self.ic_misses += o.ic_misses;
        self.compile_requests += o.compile_requests;
        self.special_compiles += o.special_compiles;
        self.code_bytes += o.code_bytes;
        self.local_hits += o.local_hits;
        self.local_misses += o.local_misses;
        self.shared_hits += o.shared_hits;
        self.shared_misses += o.shared_misses;
        self.gc_count += o.gc_count;
        self.bytes_allocated += o.bytes_allocated;
        self.compile_wall_ns += o.compile_wall_ns;
    }
}

/// What one job measured.
#[derive(Debug)]
pub struct JobOutcome {
    pub subject: usize,
    pub mutated: bool,
    pub shard: usize,
    /// VM construction to end of run.
    pub service_ns: u64,
    /// The `Workload` run alone.
    pub run_ns: u64,
    pub end_ns: u64,
    /// A trap, or a checksum that differs from the reference.
    pub error: Option<String>,
    /// The modeled result; the record takes it when the job is filed.
    pub modeled: Option<Modeled>,
    /// Layer counters of a traced job.
    pub counters: Option<Box<Counters>>,
    /// Spans of a traced job (its root is the `job` span).
    pub lane: Option<Lane>,
}

/// What the modeled clock says about one run: total cycles and per-warehouse
/// throughput (one entry for entry-driven programs), as the paper's Fig. 9
/// speedup needs. Deterministic per program and side.
#[derive(Clone, Debug, PartialEq)]
pub struct Modeled {
    pub total_cycles: u64,
    pub warehouses: Vec<f64>,
}

const HOOKS: [&str; 4] = [
    "engine.on_instance_store",
    "engine.on_static_store",
    "engine.on_ctor_exit",
    "engine.on_recompiled",
];

/// Per-hook totals: calls, summed wall, compile wall inside the hook, and
/// the start of the first call.
#[derive(Debug, Default)]
struct HookTimes {
    calls: [u64; 4],
    ns: [u64; 4],
    compile_ns: [u64; 4],
    first_ns: [u64; 4],
}

/// The engine behind a handler that times each hook and splits the compile
/// wall the hook caused out of it via `compile_wall_nanos`.
struct TimedHandler {
    engine: MutationEngine,
    times: Rc<RefCell<HookTimes>>,
}

impl TimedHandler {
    fn timed(
        &mut self,
        k: usize,
        vm: &mut VmState,
        f: impl FnOnce(&mut MutationEngine, &mut VmState),
    ) {
        let c0 = vm.compile_wall_nanos;
        let t0 = now_ns();
        f(&mut self.engine, vm);
        let t1 = now_ns();
        let mut t = self.times.borrow_mut();
        if t.calls[k] == 0 {
            t.first_ns[k] = t0;
        }
        t.calls[k] += 1;
        t.ns[k] += t1 - t0;
        t.compile_ns[k] += vm.compile_wall_nanos - c0;
    }
}

impl MutationHandler for TimedHandler {
    fn on_instance_store(&mut self, vm: &mut VmState, obj: ObjRef, class: ClassId, field: FieldId) {
        self.timed(0, vm, |e, vm| e.on_instance_store(vm, obj, class, field));
    }
    fn on_static_store(&mut self, vm: &mut VmState, field: FieldId) {
        self.timed(1, vm, |e, vm| e.on_static_store(vm, field));
    }
    fn on_ctor_exit(&mut self, vm: &mut VmState, obj: ObjRef, class: ClassId) {
        self.timed(2, vm, |e, vm| e.on_ctor_exit(vm, obj, class));
    }
    fn on_recompiled(&mut self, vm: &mut VmState, method: MethodId, level: u8) {
        self.timed(3, vm, |e, vm| e.on_recompiled(vm, method, level));
    }
}

/// Builds, runs and checks one VM. Mutated jobs attach `shared` when given.
/// `keep` returns the finished VM (for compile replay).
pub fn run_job(
    subjects: &[Subject],
    subject: usize,
    mutated: bool,
    shared: Option<&Arc<SharedCodeCache>>,
    trace_lane: Option<u32>,
    shard: usize,
    keep: bool,
) -> (JobOutcome, Option<Vm>) {
    let s = &subjects[subject];
    let cfg = if mutated {
        &s.mut_config
    } else {
        &s.base_config
    };
    let mut lane = trace_lane.map(Lane::new);
    let start = now_ns();
    let mut hooks = None;
    let mut job = None;
    let mut vm = match lane.as_mut() {
        None => match (mutated, shared) {
            (false, _) => s.prepared.make_baseline_vm(cfg.clone()),
            (true, None) => s.prepared.make_vm(cfg.clone()),
            (true, Some(sc)) => s.prepared.make_vm_shared(cfg.clone(), sc),
        },
        Some(lane) => {
            let j = lane.open("job", None);
            job = Some(j);
            let mut vm = lane.time("vm.new", Some(j), || {
                Vm::new(s.prepared.program.clone(), cfg.clone())
            });
            if mutated {
                let times = Rc::new(RefCell::new(HookTimes::default()));
                lane.time("engine.install", Some(j), || {
                    let mut engine =
                        MutationEngine::new(s.prepared.plan.clone(), s.prepared.olc.clone());
                    engine.install(&mut vm.state);
                    vm.set_handler(Box::new(TimedHandler {
                        engine,
                        times: Rc::clone(&times),
                    }));
                });
                hooks = Some(times);
                if let Some(sc) = shared {
                    lane.time("vm.attach_shared", Some(j), || {
                        vm.state.attach_shared_cache(Arc::clone(sc))
                    });
                }
            }
            vm
        }
    };
    let c0 = vm.state.compile_wall_nanos;
    let r0 = now_ns();
    let result = s.workload.run_warehouses(&mut vm);
    let r1 = now_ns();

    if let (Some(lane), Some(j)) = (lane.as_mut(), job) {
        lane.spans[j].end_ns = r1;
        let run = lane.push("vm.run", Some(j), r0, r1, 1);
        let mut hook_compile = 0;
        if let Some(times) = &hooks {
            let t = times.borrow();
            for (k, hook) in HOOKS.into_iter().enumerate() {
                if t.calls[k] == 0 {
                    continue;
                }
                hook_compile += t.compile_ns[k];
                let h = lane.push(
                    hook,
                    Some(run),
                    t.first_ns[k],
                    t.first_ns[k] + t.ns[k],
                    t.calls[k],
                );
                if t.compile_ns[k] > 0 {
                    lane.push(
                        "compile",
                        Some(h),
                        t.first_ns[k],
                        t.first_ns[k] + t.compile_ns[k],
                        1,
                    );
                }
            }
        }
        let outside = vm.state.compile_wall_nanos - c0 - hook_compile;
        if outside > 0 {
            lane.push("compile", Some(run), r0, r0 + outside, 1);
        }
    }

    let error = match &result {
        Err(e) => Some(format!("{}: run trapped: {e}", s.name())),
        Ok(_) if vm.state.output.checksum != s.reference => Some(format!(
            "{}: checksum {:#x} differs from reference {:#x} (mutated: {mutated})",
            s.name(),
            vm.state.output.checksum,
            s.reference
        )),
        Ok(_) => None,
    };
    let modeled = result.ok().map(|ws| Modeled {
        total_cycles: vm.stats().total_cycles(),
        warehouses: ws.iter().map(|w| w.throughput()).collect(),
    });
    let counters = lane.is_some().then(|| Box::new(Counters::of(&vm)));
    let outcome = JobOutcome {
        subject,
        mutated,
        shard,
        service_ns: r1 - start,
        run_ns: r1 - r0,
        end_ns: r1,
        error,
        modeled,
        counters,
        lane,
    };
    (outcome, keep.then_some(vm))
}

/// The bindings a special compiled method was built under, found by
/// matching its binding fingerprint against the plan's hot states (the
/// engine builds them the same way).
fn special_bindings(vm: &Vm, plan: &MutationPlan, cm: &CompiledMethod) -> Option<Bindings> {
    let is_static = vm.state.program.method(cm.method).kind == MethodKind::Static;
    let none: &[(FieldId, Value)] = &[];
    plan.classes
        .iter()
        .filter(|mc| mc.mutable_methods.contains(&cm.method))
        .flat_map(|mc| &mc.hot_states)
        .map(|st| {
            bindings_from(
                if is_static { none } else { &st.instance_values },
                &st.static_values,
            )
        })
        .find(|b| binding_fingerprint(Some(b)) == cm.binding_fp)
}

/// Recompiles every entry of the VM's code store through the public
/// compiler entry points (`lift_baseline`, then `compile_in` on the lifted
/// baseline), timing the lift and each compile as spans. Each replay must
/// produce an artifact of the installed size, which shows it is the same
/// compile.
pub fn replay(vm: &Vm, plan: Option<&MutationPlan>, lane: &mut Lane) -> Result<usize, String> {
    let root = lane.open("compile.replay", None);
    let env = CompileEnv::of(&vm.state);
    let mut result = Ok(vm.state.code.len());
    for cm in &vm.state.code {
        let bindings = match (cm.special, plan) {
            (false, _) => None,
            (true, Some(plan)) => match special_bindings(vm, plan, cm) {
                Some(b) => Some(b),
                None => {
                    result = Err(format!(
                        "no hot state matches special code of method {}",
                        cm.method.0
                    ));
                    break;
                }
            },
            (true, None) => {
                result = Err("special code in a mutation-off VM".to_string());
                break;
            }
        };
        let baseline = lane.time("ir.lift", Some(root), || lift_baseline(&env, cm.method));
        let name = match (cm.special, cm.level) {
            (true, _) => "compile.replay_special",
            (false, 0) => "compile.replay_opt0",
            (false, 1) => "compile.replay_opt1",
            (false, _) => "compile.replay_opt2",
        };
        let out = lane.time(name, Some(root), || {
            compile_in(&env, &baseline, cm.method, cm.level, bindings.as_ref())
        });
        if out.size_bytes != cm.size_bytes {
            result = Err(format!(
                "replay of method {} at level {} gave {} bytes, installed {}",
                cm.method.0, cm.level, out.size_bytes, cm.size_bytes
            ));
            break;
        }
    }
    lane.close(root);
    result
}
