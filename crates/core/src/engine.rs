//! The online mutation engine: the paper's *distributed dynamic class
//! mutation algorithm* (Figures 4 and 5).
//!
//! Responsibilities, by trigger:
//!
//! * **Constructor exit / instance state-field assignment** (Fig. 4, top &
//!   middle): read the object's instance state fields; if they match a hot
//!   state's instance part, flip the object's TIB pointer to the matching
//!   special TIB, otherwise back to the class TIB.
//! * **Static state-field assignment** (Fig. 4, bottom): re-evaluate which
//!   hot states' static parts currently hold and repoint mutable-method
//!   entries in special TIBs (or the class TIB for classes with no instance
//!   state, or the JTOC for static/private methods) between special and
//!   general compiled code.
//! * **Recompilation of a mutable method at the mutation level** (Fig. 5):
//!   generate one specialized version per hot state and install per the
//!   current static state. General code propagates to subclasses (done by
//!   the VM); special code never does (Fig. 6).

use crate::olc::OlcReport;
use crate::plan::{HotState, MutationPlan};
use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{ClassId, FieldId, MethodId, MethodKind, Value};
use dchm_ir::passes::Bindings;
use dchm_vm::trace::{TraceEvent, NO_ID};
use dchm_vm::{CodeSlot, CompiledId, MutationHandler, PatchSpec, TibId, Vm, VmConfig, VmState};
use std::collections::HashMap;

/// Per-mutable-method runtime bookkeeping.
#[derive(Debug)]
struct MethodRt {
    method: MethodId,
    /// vtable slot for virtual methods; `None` for statically-bound ones
    /// (static methods and private instance methods).
    vslot: Option<u32>,
    is_static: bool,
    is_private_instance: bool,
    /// Special compiled code per hot state (generated at mutation level).
    special: Vec<Option<CompiledId>>,
}

/// Per-mutable-class runtime bookkeeping.
#[derive(Debug)]
struct ClassRt {
    class: ClassId,
    inst_fields: Vec<FieldId>,
    states: Vec<HotState>,
    /// Distinct instance parts among the hot states.
    inst_parts: Vec<Vec<(FieldId, Value)>>,
    /// Hot state -> instance part index.
    state_part: Vec<usize>,
    /// One special TIB per instance part (empty for static-only classes).
    special_tibs: Vec<TibId>,
    methods: Vec<MethodRt>,
    /// Static-part satisfaction per hot state as of the last refresh —
    /// only used to emit class-wide `StateTransition` trace events on
    /// toggles (tracing is host-side; this never affects installs).
    prev_statics_ok: Vec<bool>,
}

/// The mutation engine. Create with [`MutationEngine::new`], then either
/// attach it to a VM via [`MutationEngine::attach`] or install it manually
/// with [`MutationEngine::install`] + [`Vm::set_handler`].
#[derive(Debug)]
pub struct MutationEngine {
    plan: MutationPlan,
    olc: OlcReport,
    rt: Vec<ClassRt>,
    class_index: HashMap<ClassId, usize>,
    /// static state field -> dependent class indices.
    static_dep: HashMap<FieldId, Vec<usize>>,
    /// mutable method -> (class rt index, method rt index).
    method_index: HashMap<MethodId, (usize, usize)>,
    installed: bool,
}

impl MutationEngine {
    /// Creates an engine from a plan and OLC analysis results.
    pub fn new(plan: MutationPlan, olc: OlcReport) -> Self {
        MutationEngine {
            plan,
            olc,
            rt: Vec::new(),
            class_index: HashMap::new(),
            static_dep: HashMap::new(),
            method_index: HashMap::new(),
            installed: false,
        }
    }

    /// Convenience: build a VM with this engine installed and attached.
    pub fn attach(mut self, program: dchm_bytecode::Program, config: VmConfig) -> Vm {
        let mut vm = Vm::new(program, config);
        self.install(&mut vm.state);
        vm.set_handler(Box::new(self));
        vm
    }

    /// Installs the plan into the VM state: patch spec, compiler hints,
    /// special TIBs. Must run before execution starts.
    ///
    /// # Panics
    /// Panics if called twice.
    pub fn install(&mut self, vm: &mut VmState) {
        assert!(!self.installed, "engine installed twice");
        self.installed = true;

        let mut spec = PatchSpec::default();
        for (ci, mc) in self.plan.classes.iter().enumerate() {
            spec.instance_fields.extend(mc.instance_state_fields.iter().copied());
            spec.static_fields.extend(mc.static_state_fields.iter().copied());
            if mc.has_instance_state() {
                spec.ctor_classes.insert(mc.class);
            }
            vm.mark_mutable_class(mc.class);
            // Section 5 `M`: per mutable method, the state fields it reads.
            for &mm in &mc.mutable_methods {
                let count = spec_fields_read(
                    &vm.program,
                    mm,
                    &mc.instance_state_fields,
                    &mc.static_state_fields,
                );
                if count > 0 {
                    vm.hints.spec_field_count.insert(mm, count);
                }
            }
            for &f in &mc.static_state_fields {
                self.static_dep.entry(f).or_default().push(ci);
            }
            self.class_index.insert(mc.class, ci);

            // Distinct instance parts -> special TIBs.
            let mut inst_parts: Vec<Vec<(FieldId, Value)>> = Vec::new();
            let mut state_part = Vec::with_capacity(mc.hot_states.len());
            for st in &mc.hot_states {
                let pos = inst_parts.iter().position(|p| parts_eq(p, &st.instance_values));
                let idx = match pos {
                    Some(i) => i,
                    None => {
                        inst_parts.push(st.instance_values.clone());
                        inst_parts.len() - 1
                    }
                };
                state_part.push(idx);
            }
            let special_tibs: Vec<TibId> = if mc.has_instance_state() {
                (0..inst_parts.len())
                    .map(|i| vm.create_special_tib(mc.class, i))
                    .collect()
            } else {
                Vec::new()
            };

            let methods: Vec<MethodRt> = mc
                .mutable_methods
                .iter()
                .map(|&m| {
                    let md = vm.program.method(m);
                    let vslot = if md.is_virtual() {
                        vm.program.class(mc.class).vtable_slot(md.selector)
                    } else {
                        None
                    };
                    let rt = MethodRt {
                        method: m,
                        vslot,
                        is_static: md.kind == MethodKind::Static,
                        is_private_instance: md.kind == MethodKind::Instance && vslot.is_none(),
                        special: vec![None; mc.hot_states.len()],
                    };
                    self.method_index.insert(m, (ci, self.rt.len()));
                    rt
                })
                .collect();
            // Fix method_index second components (they must index into
            // `methods`, not `rt`).
            for (mi, mrt) in methods.iter().enumerate() {
                self.method_index.insert(mrt.method, (ci, mi));
            }

            self.rt.push(ClassRt {
                class: mc.class,
                inst_fields: mc.instance_state_fields.clone(),
                states: mc.hot_states.clone(),
                inst_parts,
                state_part,
                special_tibs,
                methods,
                prev_statics_ok: Vec::new(),
            });
            // Seed from the statics as they stand at install so trace
            // events report genuine toggles, not the initial condition.
            let ok = self.statics_ok(vm, ci);
            self.rt[ci].prev_statics_ok = ok;
        }
        vm.patch_spec = spec;
        vm.hints.k = self.plan.k;
        vm.hints.emit_guards = self.plan.emit_guards;
        for (f, info) in &self.olc.infos {
            vm.hints.olc.insert(*f, info.clone());
        }
        // Baseline census at plan install: attribution tooling diffs later
        // snapshots against this one to see what mutation changed.
        vm.trace_census();
    }

    /// The plan this engine runs.
    pub fn plan(&self) -> &MutationPlan {
        &self.plan
    }

    /// Installs this engine into a VM that is *already running* — the
    /// paper's future-work "complete online Java solution" (Sec. 9):
    ///
    /// 1. installs the plan (patch spec, hints, special TIBs);
    /// 2. re-instruments every already-compiled method that needs patch
    ///    points or specialization, by recompiling it at its current level
    ///    (frames executing old code finish on it — no on-stack
    ///    replacement, exactly like recompilation in the paper);
    /// 3. adopts pre-existing objects: every live instance of a mutable
    ///    class whose fields match a hot state gets its TIB flipped now;
    /// 4. becomes the VM's mutation handler.
    ///
    /// # Panics
    /// Panics if the VM is mid-call (frames on the stack) or the engine was
    /// already installed.
    pub fn install_online(mut self, vm: &mut Vm) {
        assert!(
            vm.state.frames.is_empty(),
            "install_online between calls only (no on-stack replacement)"
        );
        self.install(&mut vm.state);

        // Re-instrument affected compiled methods.
        let program = vm.state.program.clone();
        let spec = vm.state.patch_spec.clone();
        let mutable: std::collections::HashSet<MethodId> =
            self.method_index.keys().copied().collect();
        // Recompiled in method order. In a fleet each request probes the
        // shared artifact cache first, so tenants past the first skip these
        // pipelines entirely (bit-identically: the shared artifacts are what
        // the pipelines would produce).
        for (mi, md) in program.methods.iter().enumerate() {
            let mid = MethodId::from_index(mi);
            let Some(level) = vm.state.level_of(mid) else {
                continue; // not compiled yet; lazy compilation picks up the spec
            };
            let needs = mutable.contains(&mid)
                || (md.kind == MethodKind::Constructor && spec.ctor_classes.contains(&md.owner))
                || md.code.iter().any(|i| {
                    matches!(
                        i,
                        dchm_bytecode::Instr::Op(dchm_bytecode::Op::PutField { field, .. })
                            if spec.instance_fields.contains(field)
                    ) || matches!(
                        i,
                        dchm_bytecode::Instr::Op(dchm_bytecode::Op::PutStatic { field, .. })
                            if spec.static_fields.contains(field)
                    )
                });
            if needs {
                vm.state.recompile(mid, level);
            }
        }
        // Deliver the recompilation events to ourselves (we are not the
        // handler yet), generating specials for hot methods.
        for (mid, level) in vm.state.take_recompile_events() {
            self.on_recompiled(&mut vm.state, mid, level);
        }

        // Adopt objects allocated before the plan existed.
        self.adopt_objects(&mut vm.state);
        // Post-adoption census: captures how many pre-existing objects the
        // online install moved into special states.
        vm.state.trace_census();
        vm.set_handler(Box::new(self));
    }

    /// Flips the TIB of every live instance of a mutable class according to
    /// its *current* field values.
    pub fn adopt_objects(&self, vm: &mut VmState) {
        let candidates: Vec<ObjRef> = vm
            .heap
            .iter_live_objects()
            .filter(|(_, class)| self.class_index.contains_key(class))
            .map(|(obj, _)| obj)
            .collect();
        for obj in candidates {
            self.update_object_tib(vm, obj);
        }
    }

    // -------------------------------------------------------------
    // Internals
    // -------------------------------------------------------------

    /// Which hot states' static parts currently hold.
    fn statics_ok(&self, vm: &VmState, ci: usize) -> Vec<bool> {
        self.rt[ci]
            .states
            .iter()
            .map(|st| {
                st.static_values
                    .iter()
                    .all(|&(f, v)| vm.get_static(f).key_eq(v))
            })
            .collect()
    }

    /// Fig. 4 (top/middle): repoint `obj`'s TIB per its instance state.
    fn update_object_tib(&self, vm: &mut VmState, obj: ObjRef) {
        let class = vm.heap.object(obj).class;
        let Some(&ci) = self.class_index.get(&class) else {
            return; // subclass instances are never mutated (Fig. 6)
        };
        let rt = &self.rt[ci];
        if rt.special_tibs.is_empty() {
            return;
        }
        let matched = rt.inst_parts.iter().position(|part| {
            part.iter()
                .all(|&(f, v)| vm.get_field(obj, f).key_eq(v))
        });
        let target = match matched {
            Some(p) => {
                // Flip-in re-sync: the governor may have pinned this part's
                // slots to general code (throttle/blacklist) or the pin's
                // backoff may have expired — make the TIB's slot view agree
                // with the current verdicts before any object dispatches
                // through it.
                self.resync_part_slots(vm, ci, p);
                rt.special_tibs[p]
            }
            None => vm.class_tib(class),
        };
        if vm.heap.object(obj).tib != target {
            vm.set_object_tib(obj, target);
        }
    }

    /// Recomputes the mutable-method slots of the special TIB for instance
    /// part `p` from the current static state and governor verdicts —
    /// refresh_class's per-part arm, filtered by
    /// [`VmState::special_usable`]. Writes only slots that actually change,
    /// so a flip-in with nothing to restore stays free of cache
    /// invalidations.
    fn resync_part_slots(&self, vm: &mut VmState, ci: usize, p: usize) {
        let statics_ok = self.statics_ok(vm, ci);
        let rt = &self.rt[ci];
        let class_tib = vm.class_tib(rt.class);
        let tib = rt.special_tibs[p];
        for m in &rt.methods {
            let Some(vslot) = m.vslot else { continue };
            let chosen = (0..rt.states.len())
                .find(|&s| {
                    rt.state_part[s] == p
                        && statics_ok[s]
                        && m.special[s].is_some_and(|cid| vm.special_usable(cid))
                })
                .and_then(|s| m.special[s]);
            let slot = match chosen {
                Some(cid) => CodeSlot::Code(cid),
                None => vm.tib_slot(class_tib, vslot),
            };
            if vm.tib_slot(tib, vslot) != slot {
                vm.set_tib_slot(tib, vslot, slot);
            }
        }
    }

    /// Reinstalls mutable-method code pointers for one class according to
    /// the current static state (Fig. 4 bottom / Fig. 5 install step).
    fn refresh_class(&mut self, vm: &mut VmState, ci: usize) {
        let statics_ok = self.statics_ok(vm, ci);
        if vm.tracer.on() {
            // Class-wide transitions: a hot state's *static* part became
            // (un)satisfied. `obj` is NO_ID — the flip applies to every
            // instance at once via code-pointer patching.
            let class = self.rt[ci].class.0;
            for (s, (&now, &was)) in
                statics_ok.iter().zip(&self.rt[ci].prev_statics_ok).enumerate()
            {
                if now != was {
                    vm.tracer.emit(
                        vm.clock,
                        TraceEvent::StateTransition {
                            obj: NO_ID,
                            class,
                            entered: now,
                            state: s as u32,
                        },
                    );
                }
            }
        }
        self.rt[ci].prev_statics_ok.clone_from(&statics_ok);
        let rt = &self.rt[ci];
        let class_tib = vm.class_tib(rt.class);

        for m in &rt.methods {
            // Pick, per instance part, the special code to use (a state
            // whose static part holds and whose special code exists).
            if m.is_static || m.is_private_instance {
                // Statically-bound: JTOC / class-TIB-for-private patching.
                // Only sound when the code does not depend on instance
                // state (Sec. 3.2.3): for instance-state classes, private
                // methods are not mutated.
                let special = if rt.inst_fields.is_empty() || m.is_static {
                    rt.states
                        .iter()
                        .enumerate()
                        .find(|&(s, _)| {
                            statics_ok[s]
                                && m.special[s].is_some_and(|cid| vm.special_usable(cid))
                        })
                        .and_then(|(s, _)| m.special[s])
                } else {
                    None
                };
                vm.set_static_override(m.method, special);
                continue;
            }
            let Some(vslot) = m.vslot else { continue };
            let general = vm.tib_slot(class_tib, vslot);
            if rt.special_tibs.is_empty() {
                // Static-only class: the class TIB itself is specialized.
                let chosen = rt
                    .states
                    .iter()
                    .enumerate()
                    .find(|&(s, _)| {
                        statics_ok[s] && m.special[s].is_some_and(|cid| vm.special_usable(cid))
                    })
                    .and_then(|(s, _)| m.special[s]);
                let slot = match chosen {
                    Some(cid) => CodeSlot::Code(cid),
                    None => match vm.general_code[m.method.index()] {
                        Some(cid) => CodeSlot::Code(cid),
                        None => general,
                    },
                };
                vm.set_tib_slot(class_tib, vslot, slot);
            } else {
                for (p, &tib) in rt.special_tibs.iter().enumerate() {
                    let chosen = (0..rt.states.len())
                        .find(|&s| {
                            rt.state_part[s] == p
                                && statics_ok[s]
                                && m.special[s].is_some_and(|cid| vm.special_usable(cid))
                        })
                        .and_then(|s| m.special[s]);
                    let slot = match chosen {
                        Some(cid) => CodeSlot::Code(cid),
                        None => general,
                    };
                    vm.set_tib_slot(tib, vslot, slot);
                }
            }
        }
    }

    /// Keeps special TIBs mirroring the class TIB for all slots the engine
    /// does not manage (inherited and non-mutable methods).
    fn sync_unmanaged_slots(&self, vm: &mut VmState, ci: usize) {
        let rt = &self.rt[ci];
        let managed: Vec<u32> = rt.methods.iter().filter_map(|m| m.vslot).collect();
        for &tib in &rt.special_tibs {
            vm.sync_special_from_class(rt.class, tib, &managed);
        }
    }

    /// Fig. 5: generate special versions of a mutable method.
    fn generate_specials(&mut self, vm: &mut VmState, ci: usize, mi: usize, level: u8) {
        let (method, is_static, states) = {
            let rt = &self.rt[ci];
            (
                rt.methods[mi].method,
                rt.methods[mi].is_static,
                rt.states.clone(),
            )
        };
        // All specializations of this method are generated together (the
        // paper's "generated at the same time"), billed in state order.
        for (s, st) in states.iter().enumerate() {
            let mut b = Bindings::default();
            if !is_static {
                b.instance = st.instance_values.iter().copied().collect();
            }
            b.statics = st.static_values.iter().copied().collect();
            if b.is_empty() {
                continue;
            }
            // Governor gate: a throttled or blacklisted (method, state)
            // pair is not respecialized — regenerating the code that keeps
            // deoptimizing is exactly the storm being damped.
            if !vm.special_request_allowed(method, &b) {
                continue;
            }
            // A failed (fault-injected or quarantined) special compile
            // installs nothing; any earlier special version stays usable.
            if let Some(cid) = vm.compile_special(method, level, &b) {
                self.rt[ci].methods[mi].special[s] = Some(cid);
            }
        }
    }
}

/// Counts the state fields `method` reads (instance fields through the
/// receiver, static fields anywhere) — `M` of the Section 5 heuristic.
fn spec_fields_read(
    program: &dchm_bytecode::Program,
    method: MethodId,
    inst: &[dchm_bytecode::FieldId],
    statics: &[dchm_bytecode::FieldId],
) -> usize {
    use dchm_bytecode::{Instr, Op, Reg};
    let md = program.method(method);
    let mut seen: std::collections::HashSet<dchm_bytecode::FieldId> =
        std::collections::HashSet::new();
    for i in &md.code {
        if let Instr::Op(op) = i {
            match op {
                Op::GetField { obj: Reg(0), field, .. } if inst.contains(field) => {
                    seen.insert(*field);
                }
                Op::GetStatic { field, .. } if statics.contains(field) => {
                    seen.insert(*field);
                }
                _ => {}
            }
        }
    }
    seen.len()
}

fn parts_eq(a: &[(FieldId, Value)], b: &[(FieldId, Value)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(fa, va), &(fb, vb))| fa == fb && va.key_eq(vb))
}

impl MutationHandler for MutationEngine {
    fn on_instance_store(
        &mut self,
        vm: &mut VmState,
        obj: ObjRef,
        _class: ClassId,
        _field: FieldId,
    ) {
        self.update_object_tib(vm, obj);
    }

    fn on_static_store(&mut self, vm: &mut VmState, field: FieldId) {
        if let Some(deps) = self.static_dep.get(&field) {
            for &ci in deps.clone().iter() {
                self.refresh_class(vm, ci);
            }
        }
    }

    fn on_ctor_exit(&mut self, vm: &mut VmState, obj: ObjRef, _class: ClassId) {
        self.update_object_tib(vm, obj);
    }

    fn on_recompiled(&mut self, vm: &mut VmState, method: MethodId, level: u8) {
        // Mutable method reaching the mutation level: generate and install
        // special code (Fig. 5).
        if level >= self.plan.mutation_level {
            if let Some(&(ci, mi)) = self.method_index.get(&method) {
                self.generate_specials(vm, ci, mi, level);
                self.refresh_class(vm, ci);
            }
        }
        // Any recompile: keep special TIBs in sync with class TIBs for the
        // slots the engine does not manage.
        for ci in 0..self.rt.len() {
            self.sync_unmanaged_slots(vm, ci);
            // Mutable slots may need refreshing too (general code changed).
            self.refresh_class(vm, ci);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare, PipelineConfig};
    use dchm_bytecode::{CmpOp, MethodSig, ProgramBuilder, Ty};

    /// The paper's Figure 2 program, sized down: SalaryEmployee.raise()
    /// branches 4 ways on `grade`; main loops raise() over an array of
    /// employees.
    fn salarydb(employees: i64, iters: i64) -> (dchm_bytecode::Program, ClassId, FieldId) {
        let mut pb = ProgramBuilder::new();
        let employee = pb.class("Employee").build();
        let salary = pb.private_field(employee, "salary", Ty::Double);
        pb.trivial_ctor(employee);
        let mut m = pb.method(employee, "raise", MethodSig::void());
        m.ret(None);
        m.build();

        let hourly = pb.class("HourlyEmployee").extends(employee).build();
        pb.trivial_ctor(hourly);
        let mut m = pb.method(hourly, "raise", MethodSig::void());
        m.ret(None);
        m.build();

        let sal = pb.class("SalaryEmployee").extends(employee).build();
        let grade = pb.private_field(sal, "grade", Ty::Int);
        let mut m = pb.ctor(sal, vec![Ty::Int]);
        let this = m.this();
        let g = m.param(0);
        m.put_field(this, grade, g);
        m.ret(None);
        m.build();

        let mut m = pb.method(sal, "raise", MethodSig::void());
        let this = m.this();
        let g = m.reg();
        m.get_field(g, this, grade);
        let s = m.reg();
        m.get_field(s, this, salary);
        let l1 = m.label();
        let l2 = m.label();
        let l3 = m.label();
        let done = m.label();
        m.br_icmp_imm(CmpOp::Ne, g, 0, l1);
        let k = m.imm_d(1.0);
        m.dadd(s, s, k);
        m.jmp(done);
        m.bind(l1);
        m.br_icmp_imm(CmpOp::Ne, g, 1, l2);
        let k = m.imm_d(2.0);
        m.dadd(s, s, k);
        m.jmp(done);
        m.bind(l2);
        m.br_icmp_imm(CmpOp::Ne, g, 2, l3);
        let k = m.imm_d(1.01);
        m.dmul(s, s, k);
        m.jmp(done);
        m.bind(l3);
        let k = m.imm_d(1.02);
        m.dmul(s, s, k);
        m.bind(done);
        m.put_field(this, salary, s);
        m.ret(None);
        m.build();

        // main: build array, loop raise(), sink salaries.
        let mut m = pb.static_method(sal, "main", MethodSig::void());
        let n = m.imm(employees);
        let arr = m.reg();
        m.new_arr(arr, dchm_bytecode::ElemKind::Ref, n);
        let i = m.reg();
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.br_icmp(CmpOp::Ge, i, n, done);
        let o = m.reg();
        let four = m.imm(4);
        let g = m.reg();
        m.irem(g, i, four);
        m.new_obj(o, sal);
        m.call_ctor(o, sal, vec![g]);
        m.astore(arr, i, o);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);

        let it = m.reg();
        m.const_i(it, 0);
        let ohead = m.label();
        let odone = m.label();
        m.bind(ohead);
        let lim = m.imm(iters);
        m.br_icmp(CmpOp::Ge, it, lim, odone);
        let j = m.reg();
        m.const_i(j, 0);
        let ihead = m.label();
        let idone = m.label();
        m.bind(ihead);
        m.br_icmp(CmpOp::Ge, j, n, idone);
        let o = m.reg();
        m.aload(o, arr, j);
        m.check_cast(o, employee);
        m.call_virtual(None, o, "raise", vec![]);
        m.iadd_imm(j, j, 1);
        m.jmp(ihead);
        m.bind(idone);
        m.iadd_imm(it, it, 1);
        m.jmp(ohead);
        m.bind(odone);

        // Sink all salaries for output comparison.
        let j = m.reg();
        m.const_i(j, 0);
        let shead = m.label();
        let sdone = m.label();
        m.bind(shead);
        m.br_icmp(CmpOp::Ge, j, n, sdone);
        let o = m.reg();
        m.aload(o, arr, j);
        let sv = m.reg();
        m.get_field(sv, o, salary);
        m.sink_double(sv);
        m.iadd_imm(j, j, 1);
        m.jmp(shead);
        m.bind(sdone);
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        (pb.finish().unwrap(), sal, grade)
    }

    fn fast_config() -> VmConfig {
        VmConfig {
            sample_period: 15_000,
            opt1_samples: 2,
            opt2_samples: 5,
            ..Default::default()
        }
    }

    fn engine_for(p: &dchm_bytecode::Program) -> MutationEngine {
        let cfg = PipelineConfig {
            profile_vm: fast_config(),
            ..Default::default()
        };
        let prepared = prepare(p.clone(), &cfg, |vm| {
            vm.run_entry().unwrap();
        });
        MutationEngine::new(prepared.plan, prepared.olc)
    }

    #[test]
    fn salarydb_plan_finds_four_grades() {
        let (p, sal, grade) = salarydb(64, 40);
        let engine = engine_for(&p);
        let mc = engine.plan.class(sal).expect("SalaryEmployee mutable");
        assert_eq!(mc.instance_state_fields, vec![grade]);
        assert_eq!(mc.hot_states.len(), 4, "{:?}", mc.hot_states);
        assert_eq!(mc.static_state_fields.len(), 0);
    }

    #[test]
    fn mutation_preserves_output_and_speeds_up() {
        let (p, _, _) = salarydb(64, 120);

        // Baseline: no mutation.
        let mut base = Vm::new(p.clone(), fast_config());
        base.run_entry().unwrap();
        let base_checksum = base.state.output.checksum;
        let base_cycles = base.state.stats.exec_cycles;

        // Mutation on.
        let engine = engine_for(&p);
        let mut vm = engine.attach(p, fast_config());
        vm.run_entry().unwrap();
        assert_eq!(
            vm.state.output.checksum, base_checksum,
            "mutation must not change observable behaviour"
        );
        // Special TIBs exist and objects were flipped onto them.
        assert!(vm.stats().special_tibs >= 4);
        assert!(vm.stats().tib_flips > 0);
        assert!(vm.stats().special_compiles >= 4);
        // Headline result: execution cycles drop.
        let mut_cycles = vm.state.stats.exec_cycles;
        assert!(
            mut_cycles < base_cycles,
            "mutation should speed up SalaryDB: {mut_cycles} vs {base_cycles}"
        );
    }

    #[test]
    fn object_tib_follows_state_changes() {
        // Build a tiny program, install a hand-written plan, drive stores
        // from bytecode and watch the TIB pointer move.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let f = pb.instance_field(c, "st", Ty::Int);
        pb.trivial_ctor(c);
        let mut m = pb.method(c, "get", MethodSig::new(vec![], Some(Ty::Int)));
        let this = m.this();
        let r = m.reg();
        m.get_field(r, this, f);
        m.ret(Some(r));
        let get = m.build();
        let mut m = pb.method(c, "set", MethodSig::new(vec![Ty::Int], None));
        let this = m.this();
        let v = m.param(0);
        m.put_field(this, f, v);
        m.ret(None);
        m.build();
        let mut m = pb.static_method(c, "mk", MethodSig::new(vec![], Some(Ty::Ref(c))));
        let o = m.reg();
        m.new_init(o, c, vec![]);
        m.ret(Some(o));
        let mk = m.build();
        let mut m = pb.static_method(c, "setv", MethodSig::new(vec![Ty::Ref(c), Ty::Int], None));
        let o = m.param(0);
        let v = m.param(1);
        m.call_virtual(None, o, "set", vec![v]);
        m.ret(None);
        let setv = m.build();
        let p = pb.finish().unwrap();

        let plan = MutationPlan {
            classes: vec![crate::plan::MutableClass {
                class: c,
                instance_state_fields: vec![f],
                static_state_fields: vec![],
                hot_states: vec![HotState {
                    instance_values: vec![(f, Value::Int(7))],
                    static_values: vec![],
                    frequency: 1.0,
                }],
                mutable_methods: vec![get],
                field_scores: vec![],
            }],
            mutation_level: 2,
            k: 0,
            emit_guards: true,
        };
        let engine = MutationEngine::new(plan, OlcReport::default());
        let mut vm = engine.attach(p, VmConfig::default());

        let obj = vm.call_static(mk, &[]).unwrap().unwrap();
        let Value::Ref(oref) = obj else { panic!() };
        vm.state.add_handle(oref);
        let class_tib = vm.state.class_tib(c);
        // Fresh object: state 0 doesn't match hot state 7.
        assert_eq!(vm.state.heap.object(oref).tib, class_tib);

        vm.call_static(setv, &[obj, Value::Int(7)]).unwrap();
        let special = vm.state.heap.object(oref).tib;
        assert_ne!(special, class_tib, "store of 7 must flip to special TIB");

        vm.call_static(setv, &[obj, Value::Int(3)]).unwrap();
        assert_eq!(
            vm.state.heap.object(oref).tib,
            class_tib,
            "leaving the hot state must flip back"
        );
        assert!(vm.stats().tib_flips >= 2);
    }
}
