//! The evaluator: executes compiled IR with deterministic cycle accounting,
//! TIB-based dispatch, adaptive sampling, and delivery of mutation patch
//! points to the [`MutationHandler`].
//!
//! # Fast-path structure
//!
//! The hot loop runs on a *local execution cursor* — `(func, method, cid,
//! base, block, op)` held in locals rather than re-read from
//! `frames.last()` per op — and writes the cursor back to the frame only at
//! call boundaries, traps and fuel exhaustion. Registers live in the pooled
//! [`VmState::reg_stack`] (each frame owns a contiguous window), so a call
//! extends the pool instead of allocating a fresh `Vec`. All ops dispatch
//! through a single `match` in the loop body (no second dispatch through a
//! helper). Cycle and op charges accumulate per basic block and flush
//! before every point that observes the clock (terminators/`maybe_sample`,
//! call dispatch, traps), keeping the *modeled* cycle counts bit-identical
//! to per-op accounting; the fuel check is likewise hoisted to block
//! granularity (loops always cross a block boundary, so infinite loops
//! still trap). Receiver-polymorphic call sites carry monomorphic inline
//! caches keyed on the receiver's TIB (see `VmState::ic_lookup`),
//! invalidated wholesale whenever the mutation engine patches TIBs, the
//! JTOC, or installs code.

use crate::error::RunError;
use crate::hooks::{MutationHandler, NoopHandler, VmObserver};
use crate::state::{CodeSlot, CompiledId, Frame, VmConfig, VmState, STATIC_SITE_TIB};
use crate::stats::VmStats;
use crate::tib::TibId;
use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{
    ClassId, IntrinsicKind, MethodId, MethodKind, Op, Program, Reg, SelectorId, Value,
};
use dchm_ir::cost::CostModel;
use dchm_trace::profile::{FrameKey, ProfileSnapshot, NO_STATE};
use dchm_trace::{FaultKind, Stamped, TraceEvent, NO_ID};
use dchm_ir::Term;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Extra cycles for an IMT conflict stub search (Sec. 3.2.3).
const IMT_CONFLICT_COST: u64 = 6;
/// Extra load when dispatching an interface method on a mutable class
/// (the IMT stores a TIB offset instead of a code pointer — Sec. 3.2.3).
const IMT_MUTABLE_EXTRA_LOAD: u64 = 1;

/// The virtual machine: state + mutation handler + optional observer.
pub struct Vm {
    /// All runtime state (public: the mutation engine manipulates it).
    pub state: VmState,
    handler: Box<dyn MutationHandler>,
    observer: Option<Box<dyn VmObserver>>,
    watched: Vec<bool>,
}

impl Vm {
    /// Creates a VM with mutation disabled ([`NoopHandler`]).
    pub fn new(program: Program, config: VmConfig) -> Self {
        Self::with_handler(program, config, Box::new(NoopHandler))
    }

    /// Creates a VM with a mutation handler attached.
    pub fn with_handler(
        program: Program,
        config: VmConfig,
        handler: Box<dyn MutationHandler>,
    ) -> Self {
        Vm {
            state: VmState::new(program, config),
            handler,
            observer: None,
            watched: Vec::new(),
        }
    }

    /// Replaces the mutation handler (e.g. after installing a plan).
    pub fn set_handler(&mut self, handler: Box<dyn MutationHandler>) {
        self.handler = handler;
    }

    /// Attaches a profiling observer; its watch set is captured now.
    pub fn attach_observer(&mut self, obs: Box<dyn VmObserver>) {
        let mut watched = vec![false; self.state.program.fields.len()];
        for f in obs.watched_fields() {
            watched[f.index()] = true;
        }
        self.watched = watched;
        self.observer = Some(obs);
    }

    /// Detaches and returns the observer.
    pub fn detach_observer(&mut self) -> Option<Box<dyn VmObserver>> {
        self.watched.clear();
        self.observer.take()
    }

    /// Total modeled cycles so far (execution + compilation + GC).
    pub fn cycles(&self) -> u64 {
        self.state.clock
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &VmStats {
        &self.state.stats
    }

    /// Enables structured event tracing into a fresh fixed-capacity ring
    /// buffer (see [`dchm_trace`]). Tracing is host-side only: modeled
    /// cycles and program output are bit-identical with it on or off.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.state.tracer.enable_ring(capacity);
    }

    /// Buffered trace events oldest-first (empty when tracing is off).
    pub fn trace_events(&self) -> Vec<Stamped> {
        self.state.tracer.events()
    }

    /// The cycle-attribution profile with method names resolved: the
    /// ranked (method × tier × receiver-state) cell table.
    pub fn profile(&self) -> ProfileSnapshot {
        self.state
            .profiler
            .snapshot(|m| self.state.method_display_name(MethodId(m)))
    }

    /// The profile's folded-stack lines (Brendan Gregg `.folded` format,
    /// flamegraph-ready), byte-identical across repeated runs.
    pub fn profile_folded(&self) -> String {
        self.state
            .profiler
            .folded(|m| self.state.method_display_name(MethodId(m)))
    }

    /// Runs the program entry point.
    ///
    /// # Errors
    /// Propagates any [`RunError`] trap; [`RunError::NoEntry`] if the
    /// program has none.
    pub fn run_entry(&mut self) -> Result<Option<Value>, RunError> {
        let entry = self.state.program.entry.ok_or(RunError::NoEntry)?;
        self.call_static(entry, &[])
    }

    /// Calls a static method from the host with `args`.
    ///
    /// This is the VM's hard containment boundary: any panic escaping the
    /// evaluator (or code it calls into) is caught and converted into a
    /// typed [`RunError::VmInvariant`], with the VM *poisoned* — its heap
    /// and code state are suspect, so every later call returns
    /// [`RunError::Poisoned`] instead of executing on corrupt state.
    ///
    /// # Errors
    /// Propagates any trap raised during execution;
    /// [`RunError::Poisoned`] when an earlier run was contained;
    /// [`RunError::NoSuchMethod`] when `mid` names no static method of the
    /// program or `args` does not match its parameter count (nothing runs
    /// and the VM is not poisoned).
    ///
    /// # Panics
    /// Panics if called re-entrantly (frames not empty).
    pub fn call_static(&mut self, mid: MethodId, args: &[Value]) -> Result<Option<Value>, RunError> {
        if self.state.poisoned {
            return Err(RunError::Poisoned);
        }
        assert!(self.state.frames.is_empty(), "re-entrant call_static");
        let md = match self.state.program.methods.get(mid.index()) {
            Some(md) if md.kind == MethodKind::Static => md,
            _ => {
                return Err(RunError::NoSuchMethod {
                    what: format!("call_static: no static method with id {}", mid.0),
                })
            }
        };
        if args.len() != md.arg_count() {
            return Err(RunError::NoSuchMethod {
                what: format!(
                    "call_static: {} takes {} argument(s), got {}",
                    md.name,
                    md.arg_count(),
                    args.len()
                ),
            });
        }
        if let Some(limit) = self.state.config.max_frame_depth {
            if limit == 0 {
                return Err(RunError::StackOverflow { depth: 1, limit });
            }
        }
        let cid = self.state.ensure_compiled(mid);
        self.drain_events();
        let nregs = self.state.code[cid.index()].func.num_regs as usize;
        let base = self.state.reg_stack.len();
        self.state.reg_stack.resize(base + nregs, Value::Int(0));
        self.state.reg_stack[base..base + args.len()].copy_from_slice(args);
        self.state.stats.per_method[mid.index()].invocations += 1;
        self.state.frames.push(Frame {
            method: mid,
            cid,
            base,
            block: 0,
            op: 0,
            ret_dst: None,
        });
        match catch_unwind(AssertUnwindSafe(|| self.run_loop())) {
            Ok(r) => r,
            Err(payload) => {
                self.state.poisoned = true;
                self.state.frames.clear();
                self.state.reg_stack.clear();
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic with non-string payload".to_string());
                Err(RunError::VmInvariant { what: format!("contained panic: {what}") })
            }
        }
    }

    // -----------------------------------------------------------------
    // Core loop
    // -----------------------------------------------------------------

    fn run_loop(&mut self) -> Result<Option<Value>, RunError> {
        let mut final_ret: Option<Value> = None;
        // `config.fuel` cannot change mid-run; fold the `Option` away so the
        // per-block check is a single compare.
        let fuel_limit = self.state.config.fuel.unwrap_or(u64::MAX);
        // Not a `while let`: the loop body re-borrows `self.state` mutably
        // throughout, so the cursor must be destructured to `Copy` locals
        // in a scope of its own.
        #[allow(clippy::while_let_loop)]
        'frames: loop {
            // (Re)load the execution cursor from the top frame. The frame's
            // block/op stay stale until the cursor is written back at a
            // call, trap or fuel stop.
            let (method, cid, base, mut bi, mut oi) = match self.state.frames.last() {
                Some(fr) => (
                    fr.method,
                    fr.cid,
                    fr.base,
                    fr.block as usize,
                    fr.op as usize,
                ),
                None => break,
            };
            let cm = &self.state.code[cid.index()];
            let func = Arc::clone(&cm.func);
            let meta = Arc::clone(&cm.meta);
            // The ops in `seg..oi` form the straight-line segment executed
            // since the last flush; its cycle cost is the prefix-sum
            // difference, so nothing is accumulated per op. Flushed before
            // anything that observes the clock or op count: terminators
            // (sampling), call dispatch (compilation), traps and the fuel
            // stop. Both are (re)assigned at every block entry.
            let mut seg;
            let mut prefix;
            macro_rules! flush {
                () => {
                    let span = prefix[oi] - prefix[seg];
                    if span != 0 {
                        self.charge(method, span);
                    }
                    self.state.stats.ops_executed += (oi - seg) as u64;
                    // Dead on paths that exit the loop right after.
                    #[allow(unused_assignments)]
                    {
                        seg = oi;
                    }
                };
            }
            macro_rules! trap {
                ($e:expr) => {{
                    flush!();
                    self.write_back(bi, oi);
                    return Err($e);
                }};
            }
            macro_rules! reg {
                ($r:expr) => {
                    self.state.reg_stack[base + $r.index()]
                };
            }
            macro_rules! non_null {
                ($r:expr) => {
                    match reg!($r).as_ref_opt() {
                        Some(o) => o,
                        None => trap!(RunError::NullPointer),
                    }
                };
            }
            loop {
                // Fuel check, hoisted to block granularity: every loop
                // crosses a block boundary, so runaway programs still stop.
                // Nothing is pending here (blocks are entered flushed), so
                // trap directly.
                if self.state.stats.ops_executed > fuel_limit {
                    self.write_back(bi, oi);
                    return Err(RunError::OutOfFuel);
                }
                let block = &func.blocks[bi];
                prefix = meta.prefix(bi);
                seg = oi;
                let nops = block.ops.len();
                for op in &block.ops[oi..] {
                    oi += 1;
                    match op {
                        Op::ConstI { dst, val } => reg!(dst) = Value::Int(*val),
                        Op::ConstD { dst, val } => reg!(dst) = Value::Double(*val),
                        Op::ConstNull { dst } => reg!(dst) = Value::Null,
                        Op::Mov { dst, src } => reg!(dst) = reg!(src),
                        Op::IBin { op: bin, dst, a, b } => {
                            let (a, b) = (reg!(a).as_int(), reg!(b).as_int());
                            let r = match bin.eval(a, b) {
                                Some(r) => r,
                                None => trap!(RunError::DivideByZero),
                            };
                            reg!(dst) = Value::Int(r);
                        }
                        Op::INeg { dst, a } => {
                            reg!(dst) = Value::Int(reg!(a).as_int().wrapping_neg());
                        }
                        Op::DBin { op: bin, dst, a, b } => {
                            let (a, b) = (reg!(a).as_double(), reg!(b).as_double());
                            reg!(dst) = Value::Double(bin.eval(a, b));
                        }
                        Op::DNeg { dst, a } => {
                            reg!(dst) = Value::Double(-reg!(a).as_double());
                        }
                        Op::I2D { dst, a } => {
                            reg!(dst) = Value::Double(reg!(a).as_int() as f64);
                        }
                        Op::D2I { dst, a } => {
                            reg!(dst) = Value::Int(reg!(a).as_double() as i64);
                        }
                        Op::ICmp { op: cmp, dst, a, b } => {
                            let r = cmp.eval_int(reg!(a).as_int(), reg!(b).as_int());
                            reg!(dst) = Value::Int(r as i64);
                        }
                        Op::DCmp { op: cmp, dst, a, b } => {
                            let r = cmp.eval_double(reg!(a).as_double(), reg!(b).as_double());
                            reg!(dst) = Value::Int(r as i64);
                        }
                        Op::RefEq { dst, a, b } => {
                            let r = match (reg!(a), reg!(b)) {
                                (Value::Null, Value::Null) => true,
                                (Value::Ref(x), Value::Ref(y)) => x == y,
                                (Value::Null, Value::Ref(_)) | (Value::Ref(_), Value::Null) => {
                                    false
                                }
                                (x, y) => trap!(RunError::TypeConfusion {
                                    what: format!("RefEq on non-references {x:?}, {y:?}"),
                                }),
                            };
                            reg!(dst) = Value::Int(r as i64);
                        }
                        Op::New { dst, class } => {
                            let r = match self.state.alloc_object(*class) {
                                Ok(r) => r,
                                Err(e) => trap!(e),
                            };
                            reg!(dst) = Value::Ref(r);
                        }
                        Op::GetField { dst, obj, field } => {
                            let o = non_null!(obj);
                            let slot = self.state.field_slot(*field);
                            let v = match self.state.heap.try_object(o) {
                                Ok(od) => od.fields[slot],
                                Err(e) => trap!(e),
                            };
                            reg!(dst) = v;
                        }
                        Op::PutField { obj, field, src } => {
                            let o = non_null!(obj);
                            let v = reg!(src);
                            let slot = self.state.field_slot(*field);
                            match self.state.heap.try_object_mut(o) {
                                Ok(od) => od.fields[slot] = v,
                                Err(e) => trap!(e),
                            }
                            if !self.watched.is_empty() && self.watched[field.index()] {
                                let class = self.state.heap.object(o).class;
                                if let Some(obs) = &mut self.observer {
                                    obs.on_instance_store(class, *field, v);
                                }
                            }
                        }
                        Op::GetStatic { dst, field } => {
                            reg!(dst) = self.state.get_static(*field);
                        }
                        Op::PutStatic { field, src } => {
                            let v = reg!(src);
                            self.state.set_static(*field, v);
                            if !self.watched.is_empty() && self.watched[field.index()] {
                                if let Some(obs) = &mut self.observer {
                                    obs.on_static_store(*field, v);
                                }
                            }
                        }
                        Op::CallVirtual {
                            dst,
                            sel,
                            obj,
                            args,
                        } => {
                            flush!();
                            let recv = non_null!(obj);
                            let tib = match self.state.heap.try_object(recv) {
                                Ok(od) => od.tib,
                                Err(e) => trap!(e),
                            };
                            let site = meta.site(bi, oi - 1);
                            let (target, tcid) = match self.state.ic_lookup(cid, site, tib) {
                                Some((m, c, _)) => (m, c),
                                None => match self.dispatch_virtual(recv, *sel) {
                                    Ok((m, c)) => {
                                        self.state.ic_store(cid, site, tib, m, c, 0);
                                        (m, c)
                                    }
                                    Err(e) => trap!(e),
                                },
                            };
                            self.write_back(bi, oi);
                            self.push_call(target, tcid, Some(Value::Ref(recv)), args, *dst, base)?;
                            continue 'frames;
                        }
                        Op::CallInterface {
                            dst,
                            iface: _,
                            sel,
                            obj,
                            args,
                        } => {
                            flush!();
                            let recv = non_null!(obj);
                            let tib = match self.state.heap.try_object(recv) {
                                Ok(od) => od.tib,
                                Err(e) => trap!(e),
                            };
                            let site = meta.site(bi, oi - 1);
                            let (target, tcid) = match self.state.ic_lookup(cid, site, tib) {
                                Some((m, c, extra)) => {
                                    // Replay the deterministic dispatch
                                    // extras the slow path would charge.
                                    if extra != 0 {
                                        self.charge(method, extra);
                                    }
                                    (m, c)
                                }
                                None => match self.dispatch_interface(recv, *sel, method) {
                                    Ok((m, c, extra)) => {
                                        self.state.ic_store(cid, site, tib, m, c, extra);
                                        (m, c)
                                    }
                                    Err(e) => trap!(e),
                                },
                            };
                            self.write_back(bi, oi);
                            self.push_call(target, tcid, Some(Value::Ref(recv)), args, *dst, base)?;
                            continue 'frames;
                        }
                        Op::CallSpecial {
                            dst,
                            class,
                            sel,
                            obj,
                            args,
                        } => {
                            flush!();
                            let recv = non_null!(obj);
                            let site = meta.site(bi, oi - 1);
                            let (target, tcid) =
                                match self.state.ic_lookup(cid, site, STATIC_SITE_TIB) {
                                    Some((m, c, _)) => (m, c),
                                    None => {
                                        let target = match self
                                            .state
                                            .resolve_special_cached(*class, *sel)
                                        {
                                            Some(t) => t,
                                            None => trap!(RunError::NoSuchMethod {
                                                what: format!("{}::{}", class, sel),
                                            }),
                                        };
                                        let tcid = self.dispatch_static_bound(target);
                                        self.state
                                            .ic_store(cid, site, STATIC_SITE_TIB, target, tcid, 0);
                                        (target, tcid)
                                    }
                                };
                            self.write_back(bi, oi);
                            self.push_call(target, tcid, Some(Value::Ref(recv)), args, *dst, base)?;
                            continue 'frames;
                        }
                        Op::CallStatic {
                            dst,
                            method: m,
                            args,
                        } => {
                            flush!();
                            let site = meta.site(bi, oi - 1);
                            let tcid = match self.state.ic_lookup(cid, site, STATIC_SITE_TIB) {
                                Some((_, c, _)) => c,
                                None => {
                                    let c = self.dispatch_static_bound(*m);
                                    self.state.ic_store(cid, site, STATIC_SITE_TIB, *m, c, 0);
                                    c
                                }
                            };
                            self.write_back(bi, oi);
                            self.push_call(*m, tcid, None, args, *dst, base)?;
                            continue 'frames;
                        }
                        Op::InstanceOf { dst, obj, class } => {
                            let r = match reg!(obj) {
                                Value::Null => false,
                                Value::Ref(o) => {
                                    // Type tests consult the TIB's
                                    // type-information entry, never TIB
                                    // identity (Sec. 3.2.3).
                                    let tib = self.state.heap.object(o).tib;
                                    let oc = self.state.tibs[tib.index()].class;
                                    self.state.program.instance_of(oc, *class)
                                }
                                v => trap!(RunError::TypeConfusion {
                                    what: format!("instanceof on non-reference {v:?}"),
                                }),
                            };
                            reg!(dst) = Value::Int(r as i64);
                        }
                        Op::CheckCast { obj, class } => match reg!(obj) {
                            Value::Null => {}
                            Value::Ref(o) => {
                                let tib = self.state.heap.object(o).tib;
                                let oc = self.state.tibs[tib.index()].class;
                                if !self.state.program.instance_of(oc, *class) {
                                    trap!(RunError::ClassCast);
                                }
                            }
                            v => trap!(RunError::TypeConfusion {
                                what: format!("checkcast on non-reference {v:?}"),
                            }),
                        },
                        Op::NewArr { dst, kind, len } => {
                            let n = reg!(len).as_int();
                            let r = match self.state.alloc_array(*kind, n) {
                                Ok(r) => r,
                                Err(e) => trap!(e),
                            };
                            reg!(dst) = Value::Ref(r);
                        }
                        Op::ALoad { dst, arr, idx } => {
                            let a = non_null!(arr);
                            let i = reg!(idx).as_int();
                            let arr = match self.state.heap.try_array(a) {
                                Ok(ad) => ad,
                                Err(e) => trap!(e),
                            };
                            let v = usize::try_from(i)
                                .ok()
                                .and_then(|ix| arr.elems.get(ix).copied());
                            match v {
                                Some(v) => reg!(dst) = v,
                                None => {
                                    let len = arr.elems.len();
                                    trap!(RunError::ArrayBounds { index: i, len });
                                }
                            }
                        }
                        Op::AStore { arr, idx, src } => {
                            let a = non_null!(arr);
                            let i = reg!(idx).as_int();
                            let v = reg!(src);
                            let arr = match self.state.heap.try_array_mut(a) {
                                Ok(ad) => ad,
                                Err(e) => trap!(e),
                            };
                            let slot = usize::try_from(i)
                                .ok()
                                .and_then(|ix| arr.elems.get_mut(ix));
                            match slot {
                                Some(slot) => *slot = v,
                                None => {
                                    let len = arr.elems.len();
                                    trap!(RunError::ArrayBounds { index: i, len });
                                }
                            }
                        }
                        Op::ALen { dst, arr } => {
                            let a = non_null!(arr);
                            let n = match self.state.heap.try_array(a) {
                                Ok(ad) => ad.elems.len() as i64,
                                Err(e) => trap!(e),
                            };
                            reg!(dst) = Value::Int(n);
                        }
                        Op::Intrinsic { dst, kind, args } => {
                            self.exec_intrinsic(base, *dst, *kind, args);
                        }
                        Op::NotifyCtorExit { obj, class } => {
                            if let Value::Ref(o) = reg!(obj) {
                                self.handler.on_ctor_exit(&mut self.state, o, *class);
                            }
                        }
                        Op::NotifyInstStore { obj, class, field } => {
                            if let Value::Ref(o) = reg!(obj) {
                                self.handler
                                    .on_instance_store(&mut self.state, o, *class, *field);
                            }
                        }
                        Op::NotifyStaticStore { field } => {
                            self.handler.on_static_store(&mut self.state, *field);
                        }
                        Op::GuardState {
                            obj,
                            instance,
                            statics,
                            guard,
                            live_prefix,
                        } => {
                            self.state.stats.guards_executed += 1;
                            let forced = match self.state.injector.as_mut() {
                                Some(inj) => inj.at_guard(),
                                None => false,
                            };
                            let recv = match obj {
                                Some(r) => match reg!(r).as_ref_opt() {
                                    Some(o) => Some(o),
                                    None => trap!(RunError::NullPointer),
                                },
                                None => None,
                            };
                            let mut holds = !forced;
                            if holds {
                                if let Some(o) = recv {
                                    let od = match self.state.heap.try_object(o) {
                                        Ok(od) => od,
                                        Err(e) => trap!(e),
                                    };
                                    for (field, want) in instance {
                                        let slot = self.state.field_slot(*field);
                                        if !od.fields[slot].key_eq(*want) {
                                            holds = false;
                                            break;
                                        }
                                    }
                                }
                            }
                            if holds {
                                for (field, want) in statics {
                                    if !self.state.get_static(*field).key_eq(*want) {
                                        holds = false;
                                        break;
                                    }
                                }
                            }
                            if !holds {
                                self.state.stats.guard_failures += 1;
                                flush!();
                                self.write_back(bi, oi);
                                if self.state.tracer.on() {
                                    if forced {
                                        self.state.tracer.emit(
                                            self.state.clock,
                                            TraceEvent::FaultInjected {
                                                kind: FaultKind::ForcedGuardFail,
                                                method: method.0,
                                            },
                                        );
                                    }
                                    self.state.tracer.emit(
                                        self.state.clock,
                                        TraceEvent::GuardFail {
                                            method: method.0,
                                            guard: *guard,
                                            obj: recv.map_or(NO_ID, |o| o.0),
                                            forced,
                                        },
                                    );
                                }
                                self.state.governor_on_guard_fail(cid);
                                self.deoptimize(*guard, *live_prefix, recv)?;
                                continue 'frames;
                            }
                        }
                    }
                }

                // Terminator: charge the remaining block tail plus the
                // terminator itself in one go (oi == nops here). Ret folds
                // its FRAME_COST into the same charge — nothing observes the
                // clock between the two in the split version.
                let tail = prefix[nops] - prefix[seg] + CostModel::TERM_COST;
                self.state.stats.ops_executed += (nops - seg) as u64;
                match &block.term {
                    Term::Jmp(b) => {
                        self.charge(method, tail);
                        bi = b.0 as usize;
                        oi = 0;
                    }
                    Term::Br { cond, t, f } => {
                        self.charge(method, tail);
                        let v = reg!(cond).as_int();
                        bi = if v != 0 { t.0 as usize } else { f.0 as usize };
                        oi = 0;
                    }
                    Term::Ret(v) => {
                        self.charge(method, tail + CostModel::FRAME_COST);
                        let Some(popped) = self.state.frames.pop() else {
                            return Err(RunError::VmInvariant {
                                what: "return executed with no live frame".to_string(),
                            });
                        };
                        let val = v.map(|r| self.state.reg_stack[popped.base + r.index()]);
                        self.state.reg_stack.truncate(popped.base);
                        let caller_base = self.state.frames.last().map(|c| c.base);
                        match caller_base {
                            Some(cb) => {
                                if let Some(dst) = popped.ret_dst {
                                    let Some(val) = val else {
                                        return Err(RunError::VmInvariant {
                                            what: "void return reached a call site \
                                                   expecting a value"
                                                .to_string(),
                                        });
                                    };
                                    self.state.reg_stack[cb + dst.index()] = val;
                                }
                            }
                            None => final_ret = val,
                        }
                        self.maybe_profile();
                        self.maybe_sample(method);
                        continue 'frames;
                    }
                    Term::Unreachable => {
                        self.charge(method, tail);
                        self.write_back(bi, oi);
                        return Err(RunError::UnreachableExecuted);
                    }
                }
                self.maybe_profile();
                self.maybe_sample(method);
            }
        }
        Ok(final_ret)
    }

    /// Writes the local cursor back to the top frame (call boundaries,
    /// traps, fuel stop). Tolerates an empty frame stack: trap paths may
    /// run after the stack already unwound, and a missing frame must not
    /// turn a typed trap into a panic.
    #[inline]
    fn write_back(&mut self, bi: usize, oi: usize) {
        if let Some(fr) = self.state.frames.last_mut() {
            fr.block = bi as u32;
            fr.op = oi as u32;
        }
    }

    /// Deoptimizes the top frame after guard `guard` failed: remaps its
    /// register window and cursor onto the method's baseline code version
    /// via the deopt side table, and restores the receiver's class TIB so
    /// dispatch stops treating an object that left its hot state as
    /// specialized. The caller has already flushed charges and written the
    /// cursor back; on return it re-enters the frame loop, which picks up
    /// execution in baseline code at the recorded resume point.
    ///
    /// The transition itself is free on the modeled clock (the paper's
    /// deopt cost is the lost specialization, not the remap); only the
    /// one-time baseline compile — if the method's general code is not
    /// already level 0 — bills compile cycles.
    fn deoptimize(
        &mut self,
        guard: u32,
        live_prefix: u16,
        recv: Option<ObjRef>,
    ) -> Result<(), RunError> {
        let fr = *self
            .state
            .frames
            .last()
            .ok_or_else(|| RunError::VmInvariant {
                what: "guard failure with no live frame".to_string(),
            })?;
        let cm = &self.state.code[fr.cid.index()];
        let mid = cm.method;
        let point = cm
            .deopt
            .as_ref()
            .and_then(|d| d.points.get(guard as usize))
            .copied()
            .ok_or_else(|| RunError::VmInvariant {
                what: format!("guard #{guard} has no deopt side-table entry"),
            })?;
        let bcid = self.state.ensure_baseline(mid);
        let bregs = self.state.code[bcid.index()].func.num_regs as usize;
        // The live prefix carries over positionally (guards pin those
        // registers: every pass keeps the prefix stable); everything past
        // it is a baseline local that is dead at the resume point, so it is
        // zero-filled exactly as a fresh activation would be.
        let live = (live_prefix as usize).min(bregs);
        self.state.reg_stack.truncate(fr.base + live);
        self.state.reg_stack.resize(fr.base + bregs, Value::Int(0));
        if let Some(o) = recv {
            let (tib, class) = {
                let od = self.state.heap.try_object(o)?;
                (od.tib, od.class)
            };
            let class_tib = self.state.class_tib(class);
            if tib != class_tib {
                self.state.set_object_tib(o, class_tib);
            }
        }
        let from_code = fr.cid;
        let fr = self
            .state
            .frames
            .last_mut()
            .ok_or_else(|| RunError::VmInvariant {
                what: "frame vanished during deoptimization".to_string(),
            })?;
        fr.cid = bcid;
        fr.block = point.block;
        fr.op = point.op;
        self.state.stats.deopts += 1;
        if self.state.tracer.on() {
            // Stamped *after* any baseline compile stall, so the
            // GuardFail -> BaselineResume cycle distance is the deopt
            // latency.
            self.state.tracer.emit(
                self.state.clock,
                TraceEvent::Deopt {
                    method: mid.0,
                    from_code: from_code.0,
                    to_code: bcid.0,
                    obj: recv.map_or(NO_ID, |o| o.0),
                },
            );
            self.state.tracer.emit(
                self.state.clock,
                TraceEvent::BaselineResume {
                    method: mid.0,
                    code: bcid.0,
                    block: point.block,
                    op: point.op,
                },
            );
        }
        Ok(())
    }

    #[inline(always)]
    fn charge(&mut self, method: MethodId, cycles: u64) {
        self.state.clock += cycles;
        self.state.stats.exec_cycles += cycles;
        self.state.stats.per_method[method.index()].cycles += cycles;
    }

    /// Reads a register of the frame whose window starts at `base`.
    #[inline(always)]
    fn rget(&self, base: usize, r: Reg) -> Value {
        self.state.reg_stack[base + r.index()]
    }

    /// Writes a register of the frame whose window starts at `base`.
    #[inline(always)]
    fn rset(&mut self, base: usize, r: Reg, v: Value) {
        self.state.reg_stack[base + r.index()] = v;
    }

    /// Block-bottom sampling check; inlined so the common no-sample case is
    /// one compare, with the actual sampling work kept out of line.
    #[inline(always)]
    fn maybe_sample(&mut self, method: MethodId) {
        if self.state.clock >= self.state.next_sample_at {
            self.take_sample(method);
        }
    }

    #[cold]
    fn take_sample(&mut self, method: MethodId) {
        let st = &mut self.state;
        // Deterministic jitter (splitmix-style hash of the tick count)
        // breaks resonance between the sample period and loop periods —
        // without it a tight loop whose cost divides the period would pin
        // every sample on the same method.
        let tick = st.stats.samples_taken;
        let jitter = {
            let mut z = tick.wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let spread = (st.config.sample_period / 2).max(1);
        st.next_sample_at = st.clock + st.config.sample_period * 3 / 4 + jitter % spread;
        st.stats.samples_taken += 1;
        st.stats.per_method[method.index()].samples += 1;
        if st.tracer.on() {
            let count = st.stats.per_method[method.index()].samples;
            st.tracer.emit(st.clock, TraceEvent::Sample { method: method.0, count });
        }
        if let Some(obs) = &mut self.observer {
            obs.on_sample(method);
        }
        let samples = st.stats.per_method[method.index()].samples;
        let cur = st.level_of(method).unwrap_or(0);
        let target = if samples >= st.config.opt2_samples {
            2
        } else if samples >= st.config.opt1_samples {
            1
        } else {
            cur
        };
        if target > cur {
            st.recompile(method, target);
            self.drain_events();
        }
    }

    /// Block-bottom profiler check, parallel to [`Self::maybe_sample`]:
    /// the common no-sample case is one compare against the next period
    /// multiple (`u64::MAX` when profiling is off).
    #[inline(always)]
    fn maybe_profile(&mut self) {
        if self.state.clock >= self.state.next_profile_at {
            self.take_profile();
        }
    }

    /// Takes one attribution sample: steps the deterministic schedule to
    /// the next period multiple beyond the clock (one sample per
    /// crossing, however far a compile/GC stall jumped it — stalls are
    /// attributed by `VmStats`, not the profiler), then walks the live
    /// frames into the profiler. 0-cycle by construction: nothing here
    /// touches the clock, `VmStats`, or adaptive state.
    #[cold]
    fn take_profile(&mut self) {
        let st = &mut self.state;
        let period = st.config.profile_period;
        debug_assert!(period > 0, "take_profile with profiling off");
        let jumps = (st.clock - st.next_profile_at) / period + 1;
        st.next_profile_at += jumps * period;

        let mut stack = Vec::with_capacity(st.frames.len());
        let last = st.frames.len().wrapping_sub(1);
        for (i, fr) in st.frames.iter().enumerate() {
            let cm = &st.code[fr.cid.index()];
            let mut key = FrameKey {
                method: fr.method.0,
                level: cm.level,
                special: cm.special,
                state: NO_STATE,
            };
            // Leaf frames of receiver-taking methods also attribute the
            // receiver's special state (register 0 of the frame window).
            if i == last && st.program.method(fr.method).has_receiver() {
                if let Value::Ref(r) = st.reg_stack[fr.base] {
                    if let Ok(od) = st.heap.try_object(r) {
                        if let Some(s) = st.tibs[od.tib.index()].special_state() {
                            key.state = s;
                        }
                    }
                }
            }
            stack.push(key);
        }
        st.profiler.record(&stack);
        if st.tracer.on() {
            let method = stack.last().map_or(NO_ID, |k| k.method);
            st.tracer.emit(
                st.clock,
                TraceEvent::ProfileSample {
                    method,
                    depth: stack.len() as u32,
                    samples: st.profiler.samples(),
                },
            );
        }
    }

    fn drain_events(&mut self) {
        for (m, l) in self.state.take_recompile_events() {
            self.handler.on_recompiled(&mut self.state, m, l);
        }
    }

    fn exec_intrinsic(&mut self, base: usize, dst: Option<Reg>, kind: IntrinsicKind, args: &[Reg]) {
        match kind {
            IntrinsicKind::PrintInt => {
                let v = self.rget(base, args[0]).as_int();
                let _ = writeln!(self.state.output.text, "{v}");
            }
            IntrinsicKind::PrintDouble => {
                let v = self.rget(base, args[0]).as_double();
                let _ = writeln!(self.state.output.text, "{v}");
            }
            IntrinsicKind::PrintChar => {
                let v = self.rget(base, args[0]).as_int();
                let c = char::from_u32(v as u32).unwrap_or('\u{FFFD}');
                self.state.output.text.push(c);
            }
            IntrinsicKind::SinkInt => {
                let v = self.rget(base, args[0]).as_int();
                self.state.output.sink_int(v);
            }
            IntrinsicKind::SinkDouble => {
                let v = self.rget(base, args[0]).as_double();
                self.state.output.sink_double(v);
            }
            IntrinsicKind::DSqrt => {
                let v = self.rget(base, args[0]).as_double().sqrt();
                self.rset(base, dst.expect("DSqrt needs dst"), Value::Double(v));
            }
            IntrinsicKind::DAbs => {
                let v = self.rget(base, args[0]).as_double().abs();
                self.rset(base, dst.expect("DAbs needs dst"), Value::Double(v));
            }
            IntrinsicKind::IAbs => {
                let v = self.rget(base, args[0]).as_int().wrapping_abs();
                self.rset(base, dst.expect("IAbs needs dst"), Value::Int(v));
            }
            IntrinsicKind::IMin => {
                let v = self
                    .rget(base, args[0])
                    .as_int()
                    .min(self.rget(base, args[1]).as_int());
                self.rset(base, dst.expect("IMin needs dst"), Value::Int(v));
            }
            IntrinsicKind::IMax => {
                let v = self
                    .rget(base, args[0])
                    .as_int()
                    .max(self.rget(base, args[1]).as_int());
                self.rset(base, dst.expect("IMax needs dst"), Value::Int(v));
            }
        }
    }

    /// Virtual dispatch through the object's (possibly special) TIB — the
    /// inline-cache miss path.
    fn dispatch_virtual(
        &mut self,
        recv: ObjRef,
        sel: SelectorId,
    ) -> Result<(MethodId, CompiledId), RunError> {
        let (tib, class) = {
            let o = self.state.heap.try_object(recv)?;
            (o.tib, o.class)
        };
        let vslot = self
            .state
            .vtable_slot_fast(class, sel)
            .ok_or_else(|| RunError::NoSuchMethod {
                what: format!(
                    "{}::{}",
                    self.state.program.class(class).name,
                    self.state.program.selector_name(sel)
                ),
            })? as usize;
        self.resolve_slot(tib, class, vslot)
    }

    /// Interface dispatch through the shared IMT — the inline-cache miss
    /// path. Returns the deterministic extra dispatch cycles charged
    /// (conflict search + mutable-class load) so the caller can cache them.
    fn dispatch_interface(
        &mut self,
        recv: ObjRef,
        sel: SelectorId,
        caller: MethodId,
    ) -> Result<(MethodId, CompiledId, u64), RunError> {
        let (tib, class) = {
            let o = self.state.heap.try_object(recv)?;
            (o.tib, o.class)
        };
        let imt_idx = self.state.tibs[tib.index()].imt as usize;
        let hit = self.state.imts[imt_idx].lookup(sel);
        let mut extra = 0u64;
        let vslot = match hit {
            Some((v, conflicted)) => {
                if conflicted {
                    extra += IMT_CONFLICT_COST;
                }
                v as usize
            }
            None => {
                // Robust fallback through the vtable mapping.
                self.state
                    .vtable_slot_fast(class, sel)
                    .ok_or_else(|| RunError::NoSuchMethod {
                        what: format!(
                            "interface {} on {}",
                            self.state.program.selector_name(sel),
                            self.state.program.class(class).name
                        ),
                    })? as usize
            }
        };
        if self.state.mutable_classes.contains(&class) {
            extra += IMT_MUTABLE_EXTRA_LOAD;
        }
        if extra != 0 {
            self.charge(caller, extra);
        }
        let (m, c) = self.resolve_slot(tib, class, vslot)?;
        Ok((m, c, extra))
    }

    /// Resolves a TIB method slot, compiling lazily on first touch.
    fn resolve_slot(
        &mut self,
        tib: TibId,
        class: ClassId,
        vslot: usize,
    ) -> Result<(MethodId, CompiledId), RunError> {
        match self.state.tibs[tib.index()].methods[vslot] {
            CodeSlot::Code(cid) => Ok((self.state.code[cid.index()].method, cid)),
            CodeSlot::Lazy => {
                let mid = self.state.program.class(class).vtable[vslot];
                if self.state.program.method(mid).kind == MethodKind::Abstract {
                    return Err(RunError::AbstractCall {
                        method: self.state.program.method(mid).name.clone(),
                    });
                }
                let cid = self.state.ensure_compiled(mid);
                self.drain_events();
                // The install (and possibly the mutation handler) filled the
                // slot; if the dispatching TIB still says Lazy (e.g. an
                // unsynced special TIB), fall back to the general code.
                match self.state.tibs[tib.index()].methods[vslot] {
                    CodeSlot::Code(c) => Ok((self.state.code[c.index()].method, c)),
                    CodeSlot::Lazy => {
                        self.state.tibs[tib.index()].methods[vslot] = CodeSlot::Code(cid);
                        Ok((mid, cid))
                    }
                }
            }
        }
    }

    /// Statically-bound dispatch (JTOC): honors the mutation engine's
    /// override, otherwise the one valid general compiled method.
    fn dispatch_static_bound(&mut self, mid: MethodId) -> CompiledId {
        if let Some(cid) = self.state.static_override[mid.index()] {
            return cid;
        }
        let cid = self.state.ensure_compiled(mid);
        self.drain_events();
        // Re-check: the handler may have installed an override.
        self.state.static_override[mid.index()].unwrap_or(cid)
    }

    /// Pushes a callee frame: extends the pooled register stack by the
    /// callee's window and copies receiver + arguments from the caller's
    /// window (`caller_base`).
    ///
    /// # Errors
    /// [`RunError::StackOverflow`] when pushing would exceed
    /// [`crate::VmConfig::max_frame_depth`]. The check runs before any
    /// mutation, so a refused push leaves the frame and register stacks
    /// exactly as they were (and charges no cycles — runs that stay under
    /// the limit are bit-identical with the limit on or off).
    #[inline]
    fn push_call(
        &mut self,
        target: MethodId,
        cid: CompiledId,
        recv: Option<Value>,
        args: &[Reg],
        dst: Option<Reg>,
        caller_base: usize,
    ) -> Result<(), RunError> {
        if let Some(limit) = self.state.config.max_frame_depth {
            if self.state.frames.len() >= limit {
                return Err(RunError::StackOverflow {
                    depth: self.state.frames.len() + 1,
                    limit,
                });
            }
        }
        let nregs = self.state.code[cid.index()].func.num_regs as usize;
        let new_base = self.state.reg_stack.len();
        // Incoming values are pushed first, then the remaining locals are
        // zero-filled in one resize, so no slot is written twice.
        self.state.reg_stack.reserve(nregs);
        if let Some(r) = recv {
            self.state.reg_stack.push(r);
        }
        for &a in args {
            let v = self.state.reg_stack[caller_base + a.index()];
            self.state.reg_stack.push(v);
        }
        self.state.reg_stack.resize(new_base + nregs, Value::Int(0));
        self.state.clock += CostModel::FRAME_COST;
        self.state.stats.exec_cycles += CostModel::FRAME_COST;
        self.state.stats.per_method[target.index()].invocations += 1;
        self.state.frames.push(Frame {
            method: target,
            cid,
            base: new_base,
            block: 0,
            op: 0,
            ret_dst: dst,
        });
        Ok(())
    }
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("clock", &self.state.clock)
            .field("frames", &self.state.frames.len())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}
