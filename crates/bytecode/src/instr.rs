//! The instruction set.
//!
//! Instructions come in two layers:
//!
//! * [`Op`] — straight-line operations (arithmetic, field access, calls,
//!   allocation). These are shared verbatim with the optimizer IR in
//!   `dchm-ir`, so optimization passes and the evaluator agree on semantics.
//! * [`Instr`] — an `Op` or a control-flow instruction (`Jmp`, `BrIf`, `Ret`)
//!   with [`Label`] targets. Method bodies are `Vec<Instr>`.
//!
//! The three `Notify*` pseudo-ops and the [`Op::GuardState`] pseudo-op are
//! never written by frontends; the VM's compiler inserts the notifies at
//! *patch points* (state-field assignments and constructor exits) when a
//! mutation plan is installed, mirroring how the paper patches compiled
//! code at those sites (Figure 4), and inserts state guards into
//! specialized method bodies so a frame can deoptimize to baseline code
//! when its state assumptions break mid-method.

use crate::ids::{ClassId, FieldId, Label, MethodId, Reg, SelectorId};
use crate::value::{CmpOp, ElemKind, Value};
use serde::{Deserialize, Serialize};

/// Integer binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum IBinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (traps on divide-by-zero; `MIN / -1` wraps).
    Div,
    /// Remainder (traps on divide-by-zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (mod 64).
    Shl,
    /// Arithmetic shift right (mod 64).
    Shr,
}

impl IBinOp {
    /// Evaluates the operator; `None` for division/remainder by zero (which
    /// the VM turns into a trap, modeling `ArithmeticException`).
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            IBinOp::Add => a.wrapping_add(b),
            IBinOp::Sub => a.wrapping_sub(b),
            IBinOp::Mul => a.wrapping_mul(b),
            IBinOp::Div => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            IBinOp::Rem => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            IBinOp::And => a & b,
            IBinOp::Or => a | b,
            IBinOp::Xor => a ^ b,
            IBinOp::Shl => a.wrapping_shl(b as u32 & 63),
            IBinOp::Shr => a.wrapping_shr(b as u32 & 63),
        })
    }

    /// True for commutative operators.
    pub fn commutative(self) -> bool {
        matches!(
            self,
            IBinOp::Add | IBinOp::Mul | IBinOp::And | IBinOp::Or | IBinOp::Xor
        )
    }
}

/// Floating-point binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum DBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (IEEE: yields inf/NaN, never traps).
    Div,
}

impl DBinOp {
    /// Evaluates the operator with IEEE semantics.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            DBinOp::Add => a + b,
            DBinOp::Sub => a - b,
            DBinOp::Mul => a * b,
            DBinOp::Div => a / b,
        }
    }
}

/// Built-in operations that would be native methods in a real JVM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum IntrinsicKind {
    /// Append an integer to the VM output log. One `int` argument.
    PrintInt,
    /// Append a float to the VM output log. One `double` argument.
    PrintDouble,
    /// Append a character (code point in an `int`) to the VM output log.
    PrintChar,
    /// Fold an integer into the VM's output checksum (cheap observable sink
    /// that keeps computations alive without log volume). One `int` argument.
    SinkInt,
    /// Fold a double's bit pattern into the output checksum. One `double` argument.
    SinkDouble,
    /// `dst = sqrt(a)`. One `double` argument, `double` result.
    DSqrt,
    /// `dst = |a|` for doubles.
    DAbs,
    /// `dst = |a|` for ints (wrapping at `i64::MIN`).
    IAbs,
    /// `dst = min(a, b)` for ints.
    IMin,
    /// `dst = max(a, b)` for ints.
    IMax,
}

impl IntrinsicKind {
    /// True if the intrinsic has an externally observable effect (must never
    /// be dead-code-eliminated).
    pub fn has_effect(self) -> bool {
        matches!(
            self,
            IntrinsicKind::PrintInt
                | IntrinsicKind::PrintDouble
                | IntrinsicKind::PrintChar
                | IntrinsicKind::SinkInt
                | IntrinsicKind::SinkDouble
        )
    }

    /// Number of register operands the intrinsic reads.
    pub fn arity(self) -> usize {
        match self {
            IntrinsicKind::IMin | IntrinsicKind::IMax => 2,
            _ => 1,
        }
    }

    /// True if the intrinsic writes a result register (`dst`); the others
    /// must have none.
    pub fn has_result(self) -> bool {
        matches!(
            self,
            IntrinsicKind::DSqrt
                | IntrinsicKind::DAbs
                | IntrinsicKind::IAbs
                | IntrinsicKind::IMin
                | IntrinsicKind::IMax
        )
    }
}

/// A straight-line operation. See the module docs for the role split between
/// `Op` and [`Instr`].
///
/// Field conventions (documented here once rather than per variant): `dst`
/// is the defined register, `a`/`b` are operands, `obj` is a receiver or
/// array reference, `src` is a stored value.
#[allow(missing_docs)]
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Op {
    /// `dst = val`
    ConstI { dst: Reg, val: i64 },
    /// `dst = val`
    ConstD { dst: Reg, val: f64 },
    /// `dst = null`
    ConstNull { dst: Reg },
    /// `dst = src`
    Mov { dst: Reg, src: Reg },
    /// `dst = a <op> b` (integers)
    IBin { op: IBinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = -a` (integer, wrapping)
    INeg { dst: Reg, a: Reg },
    /// `dst = a <op> b` (doubles)
    DBin { op: DBinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = -a` (double)
    DNeg { dst: Reg, a: Reg },
    /// `dst = (double) a`
    I2D { dst: Reg, a: Reg },
    /// `dst = (long) a` (truncating; saturates at i64 bounds, NaN -> 0)
    D2I { dst: Reg, a: Reg },
    /// `dst = (a <op> b) ? 1 : 0` (integers)
    ICmp { op: CmpOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = (a <op> b) ? 1 : 0` (doubles, IEEE)
    DCmp { op: CmpOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = (a == b) ? 1 : 0` for references (null-safe)
    RefEq { dst: Reg, a: Reg, b: Reg },
    /// `dst = new class(...uninitialized...)`; a constructor must follow.
    New { dst: Reg, class: ClassId },
    /// `dst = obj.field`
    GetField { dst: Reg, obj: Reg, field: FieldId },
    /// `obj.field = src`
    PutField { obj: Reg, field: FieldId, src: Reg },
    /// `dst = Class.field`
    GetStatic { dst: Reg, field: FieldId },
    /// `Class.field = src`
    PutStatic { field: FieldId, src: Reg },
    /// Virtual dispatch on the receiver's run-time class (via its TIB).
    CallVirtual {
        /// Destination for the return value, if the callee returns one.
        dst: Option<Reg>,
        /// Method selector; resolved through the receiver's vtable.
        sel: SelectorId,
        /// Receiver register.
        obj: Reg,
        /// Argument registers (excluding the receiver).
        args: Vec<Reg>,
    },
    /// Statically-bound instance call (`invokespecial`): constructors,
    /// private methods, `super` calls. Bound via the *declaring class*, never
    /// through the object's (possibly special) TIB — see paper Sec. 3.2.3.
    CallSpecial {
        /// Destination for the return value, if any.
        dst: Option<Reg>,
        /// Class whose hierarchy statically resolves the target.
        class: ClassId,
        /// Method selector.
        sel: SelectorId,
        /// Receiver register.
        obj: Reg,
        /// Argument registers (excluding the receiver).
        args: Vec<Reg>,
    },
    /// Static method call through the JTOC.
    CallStatic {
        /// Destination for the return value, if any.
        dst: Option<Reg>,
        /// Target method (static methods are directly named).
        method: MethodId,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// Interface dispatch through the IMT.
    CallInterface {
        /// Destination for the return value, if any.
        dst: Option<Reg>,
        /// Interface whose method is invoked.
        iface: ClassId,
        /// Method selector.
        sel: SelectorId,
        /// Receiver register.
        obj: Reg,
        /// Argument registers (excluding the receiver).
        args: Vec<Reg>,
    },
    /// `dst = (obj instanceof class) ? 1 : 0` (null is not an instance).
    InstanceOf { dst: Reg, obj: Reg, class: ClassId },
    /// Trap if `obj` is non-null and not an instance of `class`.
    CheckCast { obj: Reg, class: ClassId },
    /// `dst = new kind[len]`
    NewArr { dst: Reg, kind: ElemKind, len: Reg },
    /// `dst = arr[idx]`
    ALoad { dst: Reg, arr: Reg, idx: Reg },
    /// `arr[idx] = src`
    AStore { arr: Reg, idx: Reg, src: Reg },
    /// `dst = arr.length`
    ALen { dst: Reg, arr: Reg },
    /// Built-in operation; see [`IntrinsicKind`].
    Intrinsic {
        /// Result register for value-producing intrinsics.
        dst: Option<Reg>,
        /// Which intrinsic.
        kind: IntrinsicKind,
        /// Arguments.
        args: Vec<Reg>,
    },
    /// Mutation patch point: a constructor of a mutable class is returning.
    /// Inserted by the VM compiler, never by frontends.
    NotifyCtorExit { obj: Reg, class: ClassId },
    /// Mutation patch point: an instance state field was just stored.
    NotifyInstStore { obj: Reg, class: ClassId, field: FieldId },
    /// Mutation patch point: a static state field was just stored.
    NotifyStaticStore { field: FieldId },
    /// State guard in specialized code: checks that every listed binding
    /// still holds and otherwise deoptimizes the frame onto the method's
    /// baseline code version (entry `guard` of its deopt side table).
    /// Inserted by the VM compiler, never by frontends.
    GuardState {
        /// Receiver whose instance bindings are checked (`None` when only
        /// statics are bound).
        obj: Option<Reg>,
        /// Instance-field bindings to re-check, sorted by field id.
        instance: Vec<(FieldId, Value)>,
        /// Static-field bindings to re-check, sorted by field id.
        statics: Vec<(FieldId, Value)>,
        /// Index into the compiled method's deopt side table.
        guard: u32,
        /// Registers `0..live_prefix` seed the baseline frame on deopt;
        /// they are reported as uses so optimization passes keep their
        /// definitions alive and unmoved.
        live_prefix: u16,
    },
}

impl Op {
    /// The register this op defines, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Op::ConstI { dst, .. }
            | Op::ConstD { dst, .. }
            | Op::ConstNull { dst }
            | Op::Mov { dst, .. }
            | Op::IBin { dst, .. }
            | Op::INeg { dst, .. }
            | Op::DBin { dst, .. }
            | Op::DNeg { dst, .. }
            | Op::I2D { dst, .. }
            | Op::D2I { dst, .. }
            | Op::ICmp { dst, .. }
            | Op::DCmp { dst, .. }
            | Op::RefEq { dst, .. }
            | Op::New { dst, .. }
            | Op::GetField { dst, .. }
            | Op::GetStatic { dst, .. }
            | Op::InstanceOf { dst, .. }
            | Op::NewArr { dst, .. }
            | Op::ALoad { dst, .. }
            | Op::ALen { dst, .. } => Some(dst),
            Op::CallVirtual { dst, .. }
            | Op::CallSpecial { dst, .. }
            | Op::CallStatic { dst, .. }
            | Op::CallInterface { dst, .. }
            | Op::Intrinsic { dst, .. } => dst,
            Op::PutField { .. }
            | Op::PutStatic { .. }
            | Op::CheckCast { .. }
            | Op::AStore { .. }
            | Op::NotifyCtorExit { .. }
            | Op::NotifyInstStore { .. }
            | Op::NotifyStaticStore { .. }
            | Op::GuardState { .. } => None,
        }
    }

    /// Calls `f` for every register this op reads.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        match self {
            Op::ConstI { .. } | Op::ConstD { .. } | Op::ConstNull { .. } | Op::New { .. } => {}
            Op::Mov { src, .. } => f(*src),
            Op::IBin { a, b, .. } | Op::DBin { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Op::INeg { a, .. }
            | Op::DNeg { a, .. }
            | Op::I2D { a, .. }
            | Op::D2I { a, .. } => f(*a),
            Op::ICmp { a, b, .. } | Op::DCmp { a, b, .. } | Op::RefEq { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Op::GetField { obj, .. } => f(*obj),
            Op::PutField { obj, src, .. } => {
                f(*obj);
                f(*src);
            }
            Op::GetStatic { .. } => {}
            Op::PutStatic { src, .. } => f(*src),
            Op::CallVirtual { obj, args, .. }
            | Op::CallSpecial { obj, args, .. }
            | Op::CallInterface { obj, args, .. } => {
                f(*obj);
                for a in args {
                    f(*a);
                }
            }
            Op::CallStatic { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            Op::InstanceOf { obj, .. } | Op::CheckCast { obj, .. } => f(*obj),
            Op::NewArr { len, .. } => f(*len),
            Op::ALoad { arr, idx, .. } => {
                f(*arr);
                f(*idx);
            }
            Op::AStore { arr, idx, src } => {
                f(*arr);
                f(*idx);
                f(*src);
            }
            Op::ALen { arr, .. } => f(*arr),
            Op::Intrinsic { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            Op::NotifyCtorExit { obj, .. } | Op::NotifyInstStore { obj, .. } => f(*obj),
            Op::NotifyStaticStore { .. } => {}
            Op::GuardState {
                obj, live_prefix, ..
            } => {
                if let Some(o) = obj {
                    f(*o);
                }
                // The deopt prefix is live here: baseline resumes with
                // these registers copied verbatim, so their definitions
                // must survive every pass.
                for r in 0..*live_prefix {
                    f(Reg(r));
                }
            }
        }
    }

    /// Rewrites every register (defs and uses) through `f`. Used by the
    /// inliner to renumber callee registers into the caller frame.
    pub fn map_regs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Op::ConstI { dst, .. } | Op::ConstD { dst, .. } | Op::ConstNull { dst } => {
                *dst = f(*dst)
            }
            Op::Mov { dst, src } => {
                *dst = f(*dst);
                *src = f(*src);
            }
            Op::IBin { dst, a, b, .. } | Op::DBin { dst, a, b, .. } => {
                *dst = f(*dst);
                *a = f(*a);
                *b = f(*b);
            }
            Op::INeg { dst, a }
            | Op::DNeg { dst, a }
            | Op::I2D { dst, a }
            | Op::D2I { dst, a } => {
                *dst = f(*dst);
                *a = f(*a);
            }
            Op::ICmp { dst, a, b, .. } | Op::DCmp { dst, a, b, .. } | Op::RefEq { dst, a, b } => {
                *dst = f(*dst);
                *a = f(*a);
                *b = f(*b);
            }
            Op::New { dst, .. } => *dst = f(*dst),
            Op::GetField { dst, obj, .. } => {
                *dst = f(*dst);
                *obj = f(*obj);
            }
            Op::PutField { obj, src, .. } => {
                *obj = f(*obj);
                *src = f(*src);
            }
            Op::GetStatic { dst, .. } => *dst = f(*dst),
            Op::PutStatic { src, .. } => *src = f(*src),
            Op::CallVirtual { dst, obj, args, .. }
            | Op::CallSpecial { dst, obj, args, .. }
            | Op::CallInterface { dst, obj, args, .. } => {
                if let Some(d) = dst {
                    *d = f(*d);
                }
                *obj = f(*obj);
                for a in args {
                    *a = f(*a);
                }
            }
            Op::CallStatic { dst, args, .. } => {
                if let Some(d) = dst {
                    *d = f(*d);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            Op::InstanceOf { dst, obj, .. } => {
                *dst = f(*dst);
                *obj = f(*obj);
            }
            Op::CheckCast { obj, .. } => *obj = f(*obj),
            Op::NewArr { dst, len, .. } => {
                *dst = f(*dst);
                *len = f(*len);
            }
            Op::ALoad { dst, arr, idx } => {
                *dst = f(*dst);
                *arr = f(*arr);
                *idx = f(*idx);
            }
            Op::AStore { arr, idx, src } => {
                *arr = f(*arr);
                *idx = f(*idx);
                *src = f(*src);
            }
            Op::ALen { dst, arr } => {
                *dst = f(*dst);
                *arr = f(*arr);
            }
            Op::Intrinsic { dst, args, .. } => {
                if let Some(d) = dst {
                    *d = f(*d);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            Op::NotifyCtorExit { obj, .. } | Op::NotifyInstStore { obj, .. } => *obj = f(*obj),
            Op::NotifyStaticStore { .. } => {}
            // The prefix registers are positional (frame-relative) and must
            // stay fixed; guards only ever live in an outermost compiled
            // function, never in inlined callee bodies.
            Op::GuardState { obj, .. } => {
                if let Some(o) = obj {
                    *o = f(*o);
                }
            }
        }
    }

    /// Rewrites only the *used* registers through `f`, leaving the defined
    /// register untouched. Used by copy propagation.
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Op::ConstI { .. } | Op::ConstD { .. } | Op::ConstNull { .. } | Op::New { .. } => {}
            Op::Mov { src, .. } => *src = f(*src),
            Op::IBin { a, b, .. } | Op::DBin { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::INeg { a, .. }
            | Op::DNeg { a, .. }
            | Op::I2D { a, .. }
            | Op::D2I { a, .. } => *a = f(*a),
            Op::ICmp { a, b, .. } | Op::DCmp { a, b, .. } | Op::RefEq { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::GetField { obj, .. } => *obj = f(*obj),
            Op::PutField { obj, src, .. } => {
                *obj = f(*obj);
                *src = f(*src);
            }
            Op::GetStatic { .. } => {}
            Op::PutStatic { src, .. } => *src = f(*src),
            Op::CallVirtual { obj, args, .. }
            | Op::CallSpecial { obj, args, .. }
            | Op::CallInterface { obj, args, .. } => {
                *obj = f(*obj);
                for a in args {
                    *a = f(*a);
                }
            }
            Op::CallStatic { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Op::InstanceOf { obj, .. } | Op::CheckCast { obj, .. } => *obj = f(*obj),
            Op::NewArr { len, .. } => *len = f(*len),
            Op::ALoad { arr, idx, .. } => {
                *arr = f(*arr);
                *idx = f(*idx);
            }
            Op::AStore { arr, idx, src } => {
                *arr = f(*arr);
                *idx = f(*idx);
                *src = f(*src);
            }
            Op::ALen { arr, .. } => *arr = f(*arr),
            Op::Intrinsic { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Op::NotifyCtorExit { obj, .. } | Op::NotifyInstStore { obj, .. } => *obj = f(*obj),
            Op::NotifyStaticStore { .. } => {}
            // Keep the receiver stable too: rewriting it to a copy source
            // could outlive the copy in ways the deopt remap cannot see.
            Op::GuardState { .. } => {}
        }
    }

    /// True if removing this op (when its result is unused) would change
    /// observable behaviour: stores, calls, allocation, traps, patch points.
    pub fn has_side_effect(&self) -> bool {
        match self {
            Op::PutField { .. }
            | Op::PutStatic { .. }
            | Op::CallVirtual { .. }
            | Op::CallSpecial { .. }
            | Op::CallStatic { .. }
            | Op::CallInterface { .. }
            | Op::CheckCast { .. }
            | Op::AStore { .. }
            | Op::NotifyCtorExit { .. }
            | Op::NotifyInstStore { .. }
            | Op::NotifyStaticStore { .. }
            | Op::GuardState { .. } => true,
            // Division can trap.
            Op::IBin { op, .. } => matches!(op, IBinOp::Div | IBinOp::Rem),
            // Loads can trap on null / out-of-bounds; allocation can OOM/GC.
            Op::New { .. }
            | Op::NewArr { .. }
            | Op::GetField { .. }
            | Op::ALoad { .. }
            | Op::ALen { .. } => true,
            Op::Intrinsic { kind, .. } => kind.has_effect(),
            _ => false,
        }
    }

    /// True for any of the call ops.
    pub fn is_call(&self) -> bool {
        matches!(
            self,
            Op::CallVirtual { .. }
                | Op::CallSpecial { .. }
                | Op::CallStatic { .. }
                | Op::CallInterface { .. }
        )
    }
}

/// One bytecode instruction: an [`Op`] or control flow.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Instr {
    /// A straight-line operation.
    Op(Op),
    /// Unconditional jump.
    Jmp(Label),
    /// Branch to `target` if `cond != 0`, else fall through.
    BrIf {
        /// Condition register (an `int`, 0 = false).
        cond: Reg,
        /// Taken target.
        target: Label,
    },
    /// Return, with an optional value.
    Ret(Option<Reg>),
}

impl Instr {
    /// True if control cannot fall through this instruction.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Instr::Jmp(_) | Instr::Ret(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibinop_eval_basics() {
        assert_eq!(IBinOp::Add.eval(2, 3), Some(5));
        assert_eq!(IBinOp::Div.eval(7, 2), Some(3));
        assert_eq!(IBinOp::Div.eval(7, 0), None);
        assert_eq!(IBinOp::Rem.eval(7, 0), None);
        assert_eq!(IBinOp::Shl.eval(1, 65), Some(2)); // shift count mod 64
        assert_eq!(IBinOp::Add.eval(i64::MAX, 1), Some(i64::MIN)); // wrapping
    }

    #[test]
    fn dbinop_eval_ieee() {
        assert_eq!(DBinOp::Div.eval(1.0, 0.0), f64::INFINITY);
        assert!(DBinOp::Div.eval(0.0, 0.0).is_nan());
    }

    #[test]
    fn defs_and_uses() {
        let op = Op::IBin {
            op: IBinOp::Add,
            dst: Reg(2),
            a: Reg(0),
            b: Reg(1),
        };
        assert_eq!(op.def(), Some(Reg(2)));
        let mut uses = vec![];
        op.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(0), Reg(1)]);
    }

    #[test]
    fn call_uses_include_receiver_and_args() {
        let op = Op::CallVirtual {
            dst: Some(Reg(5)),
            sel: SelectorId(0),
            obj: Reg(1),
            args: vec![Reg(2), Reg(3)],
        };
        let mut uses = vec![];
        op.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(1), Reg(2), Reg(3)]);
        assert_eq!(op.def(), Some(Reg(5)));
        assert!(op.is_call());
        assert!(op.has_side_effect());
    }

    #[test]
    fn map_regs_renumbers_everything() {
        let mut op = Op::AStore {
            arr: Reg(0),
            idx: Reg(1),
            src: Reg(2),
        };
        op.map_regs(|r| Reg(r.0 + 10));
        assert_eq!(
            op,
            Op::AStore {
                arr: Reg(10),
                idx: Reg(11),
                src: Reg(12)
            }
        );
    }

    #[test]
    fn side_effects_classified() {
        assert!(!Op::ConstI {
            dst: Reg(0),
            val: 1
        }
        .has_side_effect());
        assert!(Op::IBin {
            op: IBinOp::Div,
            dst: Reg(0),
            a: Reg(1),
            b: Reg(2)
        }
        .has_side_effect());
        assert!(!Op::IBin {
            op: IBinOp::Add,
            dst: Reg(0),
            a: Reg(1),
            b: Reg(2)
        }
        .has_side_effect());
        assert!(Op::Intrinsic {
            dst: None,
            kind: IntrinsicKind::SinkInt,
            args: vec![Reg(0)]
        }
        .has_side_effect());
        assert!(!Op::Intrinsic {
            dst: Some(Reg(1)),
            kind: IntrinsicKind::DSqrt,
            args: vec![Reg(0)]
        }
        .has_side_effect());
    }

    #[test]
    fn terminators() {
        assert!(Instr::Ret(None).is_terminator());
        assert!(Instr::Jmp(Label(0)).is_terminator());
        assert!(!Instr::BrIf {
            cond: Reg(0),
            target: Label(0)
        }
        .is_terminator());
    }
}
