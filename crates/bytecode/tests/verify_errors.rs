//! Verifier error-path coverage (ISSUE 7 satellite): the malformed-program
//! rejections the fuzz shrinker leans on. Every case here feeds the
//! verifier a program that used to either pass silently or panic on a
//! Vec index, and asserts the precise typed error instead.

use dchm_bytecode::{
    verify_reachability, ClassId, FieldId, Instr, IntrinsicKind, MethodId, MethodSig, Op,
    ProgramBuilder, Reg, SelectorId, Ty, Value, VerifyError,
};

/// Registers a `void f()` body on a fresh single-class program and runs the
/// ordinary (lax) finish.
fn finish_with_body(emit: impl FnOnce(&mut dchm_bytecode::MethodBuilder<'_>)) -> Result<dchm_bytecode::Program, VerifyError> {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let mut m = pb.static_method(c, "f", MethodSig::void());
    emit(&mut m);
    m.build();
    pb.finish()
}

#[test]
fn dangling_method_ref_is_rejected_not_a_panic() {
    let err = finish_with_body(|m| {
        m.op(Op::CallStatic {
            dst: None,
            method: MethodId::from_index(999),
            args: vec![],
        });
        m.ret(None);
    })
    .unwrap_err();
    assert!(matches!(err, VerifyError::DanglingRef { at: 0, .. }), "{err}");
    assert!(format!("{err}").contains("M999"));
}

#[test]
fn dangling_field_ref_is_rejected() {
    let err = finish_with_body(|m| {
        let r = m.reg();
        m.op(Op::GetStatic {
            dst: r,
            field: FieldId::from_index(77),
        });
        m.ret(None);
    })
    .unwrap_err();
    assert!(matches!(err, VerifyError::DanglingRef { .. }), "{err}");
    assert!(format!("{err}").contains("F77"));
}

#[test]
fn dangling_class_ref_is_rejected() {
    let err = finish_with_body(|m| {
        let r = m.reg();
        m.op(Op::New {
            dst: r,
            class: ClassId::from_index(42),
        });
        m.ret(None);
    })
    .unwrap_err();
    assert!(matches!(err, VerifyError::DanglingRef { .. }), "{err}");
    assert!(format!("{err}").contains("C42"));
}

#[test]
fn dangling_selector_ref_is_rejected() {
    let err = finish_with_body(|m| {
        let this_like = m.reg();
        m.const_i(this_like, 0);
        m.op(Op::CallVirtual {
            dst: None,
            sel: SelectorId::from_index(500),
            obj: this_like,
            args: vec![],
        });
        m.ret(None);
    })
    .unwrap_err();
    assert!(matches!(err, VerifyError::DanglingRef { .. }), "{err}");
    assert!(format!("{err}").contains("S500"));
}

#[test]
fn dangling_interface_ref_in_call_interface_is_rejected() {
    let err = finish_with_body(|m| {
        let r = m.reg();
        m.op(Op::CallInterface {
            dst: None,
            iface: ClassId::from_index(9),
            sel: SelectorId::from_index(0),
            obj: r,
            args: vec![],
        });
        m.ret(None);
    })
    .unwrap_err();
    assert!(matches!(err, VerifyError::DanglingRef { .. }), "{err}");
}

#[test]
fn register_width_beyond_frame_is_rejected() {
    // num_regs stays at the declared frame width; a raw op addressing a
    // register far outside it must be a typed error, not wraparound.
    let err = finish_with_body(|m| {
        m.op(Op::ConstI {
            dst: Reg(u16::MAX),
            val: 1,
        });
        m.ret(None);
    })
    .unwrap_err();
    assert!(
        matches!(err, VerifyError::RegOutOfRange { reg, .. } if reg == u16::MAX),
        "{err}"
    );
}

#[test]
fn branch_register_outside_frame_is_rejected() {
    let err = finish_with_body(|m| {
        let l = m.label();
        m.bind(l);
        m.emit(Instr::BrIf {
            cond: Reg(300),
            target: l,
        });
        m.ret(None);
    })
    .unwrap_err();
    assert!(matches!(err, VerifyError::RegOutOfRange { reg: 300, .. }), "{err}");
}

#[test]
fn unreachable_block_rejected_by_strict_finish_only() {
    let build = || {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::void());
        let r = m.reg();
        m.ret(None);
        // Dead block: no branch ever lands here.
        m.const_i(r, 7);
        m.ret(None);
        m.build();
        pb
    };
    // The lax finish tolerates the dead tail...
    let p = build().finish().expect("lax finish accepts dead code");
    // ...the strict reachability pass pinpoints it.
    let err = verify_reachability(&p).unwrap_err();
    assert!(
        matches!(err, VerifyError::UnreachableCode { at: 1, .. }),
        "{err}"
    );
    let err = build().finish_strict().unwrap_err();
    assert!(matches!(err, VerifyError::UnreachableCode { at: 1, .. }), "{err}");
}

#[test]
fn strict_finish_accepts_loops_and_diamonds() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let f = pb.static_field(c, "s", Ty::Int, Value::Int(0));
    let mut m = pb.static_method(c, "f", MethodSig::void());
    let i = m.reg();
    m.const_i(i, 0);
    let head = m.label();
    let out = m.label();
    m.bind(head);
    m.br_icmp_imm(dchm_bytecode::CmpOp::Ge, i, 10, out);
    m.put_static(f, i);
    m.iadd_imm(i, i, 1);
    m.jmp(head);
    m.bind(out);
    m.ret(None);
    m.build();
    assert!(pb.finish_strict().is_ok());
}

#[test]
fn dangling_ref_display_names_method_and_site() {
    let e = VerifyError::DanglingRef {
        method: "C::f".into(),
        at: 3,
        what: "field F9".into(),
    };
    let s = format!("{e}");
    assert!(s.contains("C::f") && s.contains("@3") && s.contains("F9"), "{s}");
}

const ALL_INTRINSICS: [IntrinsicKind; 10] = [
    IntrinsicKind::PrintInt,
    IntrinsicKind::PrintDouble,
    IntrinsicKind::PrintChar,
    IntrinsicKind::SinkInt,
    IntrinsicKind::SinkDouble,
    IntrinsicKind::DSqrt,
    IntrinsicKind::DAbs,
    IntrinsicKind::IAbs,
    IntrinsicKind::IMin,
    IntrinsicKind::IMax,
];

/// A body holding one raw intrinsic over freshly allocated registers.
fn intrinsic_body(
    kind: IntrinsicKind,
    with_dst: bool,
    n_args: usize,
) -> Result<dchm_bytecode::Program, VerifyError> {
    finish_with_body(|m| {
        let args: Vec<Reg> = (0..n_args).map(|_| m.imm(3)).collect();
        let dst = with_dst.then(|| m.reg());
        m.op(Op::Intrinsic { dst, kind, args });
        m.ret(None);
    })
}

#[test]
fn well_formed_intrinsics_pass() {
    for kind in ALL_INTRINSICS {
        intrinsic_body(kind, kind.has_result(), kind.arity())
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
}

#[test]
fn intrinsic_with_missing_operand_is_rejected() {
    // `imin` with one operand used to pass the verifier and then index out
    // of bounds inside the interpreter.
    let err = intrinsic_body(IntrinsicKind::IMin, true, 1).unwrap_err();
    assert_eq!(
        err,
        VerifyError::MalformedIntrinsic {
            method: "C::f".into(),
            at: 1,
            intrinsic: "IMin".into(),
            expected_args: 2,
            found_args: 1,
            expects_dst: true,
            found_dst: true,
        }
    );
    let s = format!("{err}");
    assert!(s.contains("C::f@1") && s.contains("IMin") && s.contains("takes 2"), "{s}");
}

#[test]
fn intrinsic_operand_count_and_result_are_checked_for_every_kind() {
    for kind in ALL_INTRINSICS {
        let n = kind.arity();
        for (with_dst, n_args) in [
            (kind.has_result(), n + 1),
            (kind.has_result(), n - 1),
            (!kind.has_result(), n),
        ] {
            let err = intrinsic_body(kind, with_dst, n_args).unwrap_err();
            assert!(
                matches!(
                    err,
                    VerifyError::MalformedIntrinsic { found_args, found_dst, .. }
                        if found_args == n_args && found_dst == with_dst
                ),
                "{kind:?} dst={with_dst} args={n_args}: {err}"
            );
        }
    }
}
