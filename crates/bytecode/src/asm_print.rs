//! Printing programs back to assembly text — the inverse of
//! [`crate::asm::assemble`]. Together they give a complete textual
//! save/load path for programs: `assemble(print_asm(p))` reproduces `p`'s
//! structure and semantics.

use crate::class::{MethodDef, MethodKind, Visibility};
use crate::ids::{ClassId, FieldId, MethodId};
use crate::instr::{DBinOp, IBinOp, Instr, IntrinsicKind, Op};
use crate::program::Program;
use crate::value::{CmpOp, ElemKind, Ty, Value};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders a whole program as assembly text.
///
/// Programs containing compiler-inserted `Notify*` pseudo-ops cannot be
/// represented (they are rejected by the verifier on re-assembly); frontend
/// programs never contain them.
pub fn print_asm(p: &Program) -> String {
    let mut out = String::new();
    for (ci, c) in p.classes.iter().enumerate() {
        let id = ClassId::from_index(ci);
        if c.is_interface {
            let _ = write!(out, ".interface {}", c.name);
        } else {
            let _ = write!(out, ".class {}", c.name);
        }
        if let Some(sup) = c.super_class {
            let _ = write!(out, " extends {}", p.class(sup).name);
        }
        if !c.interfaces.is_empty() {
            let _ = write!(out, " implements");
            for &i in &c.interfaces {
                let _ = write!(out, " {}", p.class(i).name);
            }
        }
        out.push('\n');
        for &f in &c.fields {
            let fd = p.field(f);
            let dir = if fd.is_static { ".sfield" } else { ".field" };
            let _ = write!(out, "{dir} {} {}", fd.name, ty_str(p, fd.ty));
            if fd.visibility == Visibility::Private {
                out.push_str(" private");
            }
            if fd.is_static && !matches!(fd.initial, Value::Null) {
                let _ = write!(out, " {}", value_str(fd.initial));
            }
            out.push('\n');
        }
        for &m in &c.methods {
            print_method(p, m, &mut out);
        }
        out.push_str(".end\n\n");
        let _ = id;
    }
    if let Some(entry) = p.entry {
        let md = p.method(entry);
        let _ = writeln!(out, ".entry {}.{}", p.class(md.owner).name, md.name);
    }
    out
}

fn print_method(p: &Program, mid: MethodId, out: &mut String) {
    let md = p.method(mid);
    match md.kind {
        MethodKind::Abstract => {
            let _ = write!(out, ".amethod {} {}", md.name, ret_str(p, md));
            for &t in &md.sig.params {
                let _ = write!(out, " {}", ty_str(p, t));
            }
            out.push('\n');
            return;
        }
        MethodKind::Constructor => {
            let _ = write!(out, ".ctor");
        }
        MethodKind::Static => {
            let _ = write!(out, ".smethod {} {}", md.name, ret_str(p, md));
        }
        MethodKind::Instance => {
            let _ = write!(out, ".method {} {}", md.name, ret_str(p, md));
        }
    }
    for &t in &md.sig.params {
        let _ = write!(out, " {}", ty_str(p, t));
    }
    if md.visibility == Visibility::Private {
        out.push_str(" private");
    }
    out.push('\n');

    // Branch targets get labels.
    let mut targets: BTreeSet<usize> = BTreeSet::new();
    for instr in &md.code {
        match instr {
            Instr::Jmp(t) => {
                targets.insert(t.index());
            }
            Instr::BrIf { target, .. } => {
                targets.insert(target.index());
            }
            _ => {}
        }
    }
    for (i, instr) in md.code.iter().enumerate() {
        if targets.contains(&i) {
            let _ = writeln!(out, "L{i}:");
        }
        match instr {
            Instr::Op(op) => {
                let _ = writeln!(out, "  {}", op_str(p, op));
            }
            Instr::Jmp(t) => {
                let _ = writeln!(out, "  jmp L{}", t.index());
            }
            Instr::BrIf { cond, target } => {
                let _ = writeln!(out, "  brif r{}, L{}", cond.0, target.index());
            }
            Instr::Ret(Some(r)) => {
                let _ = writeln!(out, "  ret r{}", r.0);
            }
            Instr::Ret(None) => {
                let _ = writeln!(out, "  ret");
            }
        }
    }
    out.push_str(".end_method\n");
}

fn ret_str(p: &Program, md: &MethodDef) -> String {
    match md.sig.ret {
        None => "void".into(),
        Some(t) => ty_str(p, t),
    }
}

fn ty_str(p: &Program, t: Ty) -> String {
    match t {
        Ty::Int => "int".into(),
        Ty::Double => "double".into(),
        Ty::Arr(ElemKind::Int) => "int[]".into(),
        Ty::Arr(ElemKind::Double) => "double[]".into(),
        Ty::Arr(ElemKind::Ref) => "ref[]".into(),
        Ty::Ref(c) => p.class(c).name.clone(),
    }
}

fn value_str(v: Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Double(d) => format!("{d:?}"),
        Value::Null => "null".into(),
        Value::Ref(_) => "null".into(),
    }
}

fn cmp_str(c: CmpOp) -> &'static str {
    match c {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn field_ref(p: &Program, f: FieldId) -> String {
    let fd = p.field(f);
    format!("{}.{}", p.class(fd.owner).name, fd.name)
}

fn regs_str(rs: &[crate::ids::Reg]) -> String {
    rs.iter()
        .map(|r| format!("r{}", r.0))
        .collect::<Vec<_>>()
        .join(", ")
}

#[allow(clippy::too_many_lines)]
fn op_str(p: &Program, op: &Op) -> String {
    match op {
        Op::ConstI { dst, val } => format!("consti r{}, {val}", dst.0),
        Op::ConstD { dst, val } => format!("constd r{}, {val:?}", dst.0),
        Op::ConstNull { dst } => format!("constnull r{}", dst.0),
        Op::Mov { dst, src } => format!("mov r{}, r{}", dst.0, src.0),
        Op::IBin { op, dst, a, b } => {
            let name = match op {
                IBinOp::Add => "iadd",
                IBinOp::Sub => "isub",
                IBinOp::Mul => "imul",
                IBinOp::Div => "idiv",
                IBinOp::Rem => "irem",
                IBinOp::And => "iand",
                IBinOp::Or => "ior",
                IBinOp::Xor => "ixor",
                IBinOp::Shl => "ishl",
                IBinOp::Shr => "ishr",
            };
            format!("{name} r{}, r{}, r{}", dst.0, a.0, b.0)
        }
        Op::INeg { dst, a } => format!("ineg r{}, r{}", dst.0, a.0),
        Op::DBin { op, dst, a, b } => {
            let name = match op {
                DBinOp::Add => "dadd",
                DBinOp::Sub => "dsub",
                DBinOp::Mul => "dmul",
                DBinOp::Div => "ddiv",
            };
            format!("{name} r{}, r{}, r{}", dst.0, a.0, b.0)
        }
        Op::DNeg { dst, a } => format!("dneg r{}, r{}", dst.0, a.0),
        Op::I2D { dst, a } => format!("i2d r{}, r{}", dst.0, a.0),
        Op::D2I { dst, a } => format!("d2i r{}, r{}", dst.0, a.0),
        Op::ICmp { op, dst, a, b } => {
            format!("icmp {}, r{}, r{}, r{}", cmp_str(*op), dst.0, a.0, b.0)
        }
        Op::DCmp { op, dst, a, b } => {
            format!("dcmp {}, r{}, r{}, r{}", cmp_str(*op), dst.0, a.0, b.0)
        }
        Op::RefEq { dst, a, b } => format!("refeq r{}, r{}, r{}", dst.0, a.0, b.0),
        Op::New { dst, class } => format!("new r{}, {}", dst.0, p.class(*class).name),
        Op::GetField { dst, obj, field } => {
            format!("getfield r{}, r{}, {}", dst.0, obj.0, field_ref(p, *field))
        }
        Op::PutField { obj, field, src } => {
            format!("putfield r{}, {}, r{}", obj.0, field_ref(p, *field), src.0)
        }
        Op::GetStatic { dst, field } => {
            format!("getstatic r{}, {}", dst.0, field_ref(p, *field))
        }
        Op::PutStatic { field, src } => {
            format!("putstatic {}, r{}", field_ref(p, *field), src.0)
        }
        Op::CallVirtual { dst, sel, obj, args } => {
            let name = p.selector_name(*sel);
            match dst {
                Some(d) => {
                    if args.is_empty() {
                        format!("callvirtual r{}, r{}, {name}", d.0, obj.0)
                    } else {
                        format!("callvirtual r{}, r{}, {name}, {}", d.0, obj.0, regs_str(args))
                    }
                }
                None => {
                    if args.is_empty() {
                        format!("callvirtual_v r{}, {name}", obj.0)
                    } else {
                        format!("callvirtual_v r{}, {name}, {}", obj.0, regs_str(args))
                    }
                }
            }
        }
        Op::CallSpecial {
            dst,
            class,
            sel,
            obj,
            args,
        } => {
            let cname = &p.class(*class).name;
            let mname = p.selector_name(*sel);
            if mname == crate::builder::CTOR_NAME {
                if args.is_empty() {
                    return format!("callctor r{}, {cname}", obj.0);
                }
                return format!("callctor r{}, {cname}, {}", obj.0, regs_str(args));
            }
            let tail = if args.is_empty() {
                String::new()
            } else {
                format!(" {}", regs_str(args))
            };
            match dst {
                Some(d) => format!("callspecial r{}, {cname}, {mname}, r{}{tail}", d.0, obj.0),
                None => format!("callspecial_v {cname}, {mname}, r{}{tail}", obj.0),
            }
        }
        Op::CallStatic { dst, method, args } => {
            let md = p.method(*method);
            let target = format!("{}.{}", p.class(md.owner).name, md.name);
            let tail = if args.is_empty() {
                String::new()
            } else {
                format!(", {}", regs_str(args))
            };
            match dst {
                Some(d) => format!("callstatic r{}, {target}{tail}", d.0),
                None => format!("callstatic_v {target}{tail}"),
            }
        }
        Op::CallInterface {
            dst,
            iface,
            sel,
            obj,
            args,
        } => {
            let iname = &p.class(*iface).name;
            let mname = p.selector_name(*sel);
            let tail = if args.is_empty() {
                String::new()
            } else {
                format!(", {}", regs_str(args))
            };
            match dst {
                Some(d) => format!("callinterface r{}, {iname}, {mname}, r{}{tail}", d.0, obj.0),
                None => format!("callinterface_v {iname}, {mname}, r{}{tail}", obj.0),
            }
        }
        Op::InstanceOf { dst, obj, class } => {
            format!("instanceof r{}, r{}, {}", dst.0, obj.0, p.class(*class).name)
        }
        Op::CheckCast { obj, class } => {
            format!("checkcast r{}, {}", obj.0, p.class(*class).name)
        }
        Op::NewArr { dst, kind, len } => {
            let k = match kind {
                ElemKind::Int => "int",
                ElemKind::Double => "double",
                ElemKind::Ref => "ref",
            };
            format!("newarr r{}, {k}, r{}", dst.0, len.0)
        }
        Op::ALoad { dst, arr, idx } => format!("aload r{}, r{}, r{}", dst.0, arr.0, idx.0),
        Op::AStore { arr, idx, src } => format!("astore r{}, r{}, r{}", arr.0, idx.0, src.0),
        Op::ALen { dst, arr } => format!("alen r{}, r{}", dst.0, arr.0),
        Op::Intrinsic { dst, kind, args } => {
            let name = match kind {
                IntrinsicKind::PrintInt => "printint",
                IntrinsicKind::PrintDouble => "printdouble",
                IntrinsicKind::PrintChar => "printchar",
                IntrinsicKind::SinkInt => "sinkint",
                IntrinsicKind::SinkDouble => "sinkdouble",
                IntrinsicKind::DSqrt => "dsqrt",
                IntrinsicKind::DAbs => "dabs",
                IntrinsicKind::IAbs => "iabs",
                IntrinsicKind::IMin => "imin",
                IntrinsicKind::IMax => "imax",
            };
            if kind.has_result() {
                format!(
                    "{name} r{}, {}",
                    dst.map(|d| d.0).unwrap_or(0),
                    regs_str(args)
                )
            } else {
                format!("{name} {}", regs_str(args))
            }
        }
        Op::NotifyCtorExit { .. }
        | Op::NotifyInstStore { .. }
        | Op::NotifyStaticStore { .. }
        | Op::GuardState { .. } => {
            // Compiler-internal; never present in frontend programs.
            "; <compiler pseudo-op: not printable>".into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    const SRC: &str = r#"
.interface Greeter
.amethod greet int ()
.end

.class Base
.field x int
.sfield counter int 7
.ctor (int)
  putfield r0, Base.x, r1
  ret
.end_method
.method getx int ()
  getfield r2, r0, Base.x
  ret r2
.end_method
.end

.class Derived extends Base implements Greeter
.ctor (int)
  callspecial_v Base <init> r0 r1
  ret
.end_method
.method greet int ()
  callvirtual r2, r0, getx
  getstatic r3, Base.counter
  iadd r2, r2, r3
  ret r2
.end_method
.end

.class Main
.smethod main int ()
  new r0, Derived
  consti r1, 5
  callctor r0, Derived, r1
  callinterface r2, Greeter, greet, r0
  ret r2
.end_method
.end
.entry Main.main
"#;

    #[test]
    fn round_trip_preserves_structure() {
        let p1 = assemble(SRC).unwrap();
        let text = print_asm(&p1);
        let p2 = assemble(&text).unwrap_or_else(|e| panic!("re-assembly failed: {e}\n{text}"));
        assert_eq!(p1.classes.len(), p2.classes.len());
        assert_eq!(p1.methods.len(), p2.methods.len());
        assert_eq!(p1.fields.len(), p2.fields.len());
        for (c1, c2) in p1.classes.iter().zip(&p2.classes) {
            assert_eq!(c1.name, c2.name);
            assert_eq!(c1.is_interface, c2.is_interface);
            assert_eq!(c1.vtable.len(), c2.vtable.len());
        }
        // Bodies survive verbatim (same instruction sequences).
        for (m1, m2) in p1.methods.iter().zip(&p2.methods) {
            assert_eq!(m1.name, m2.name);
            assert_eq!(m1.code.len(), m2.code.len(), "method {}", m1.name);
        }
    }

    #[test]
    fn round_trip_is_a_fixpoint() {
        let p1 = assemble(SRC).unwrap();
        let t1 = print_asm(&p1);
        let p2 = assemble(&t1).unwrap();
        let t2 = print_asm(&p2);
        assert_eq!(t1, t2, "printing must be stable after one round trip");
    }
}
