//! The profiling run's watch set (`FieldSites::watch_set`) must contain
//! every field EQ 1 can select, whatever the measured hotness: the one-run
//! offline pipeline samples values only of watched fields, so a candidate
//! outside the set would lose its histogram and change the plan.

use dchm_bytecode::{CmpOp, FieldId, MethodBuilder, MethodSig, Program, ProgramBuilder, Reg, Ty};
use dchm_core::{find_state_fields, AnalysisConfig, FieldSites};
use dchm_profile::HotMethodReport;
use proptest::prelude::*;
use std::collections::HashSet;

/// One statement of a generated method: what it does to which field, at
/// which loop depth.
#[derive(Clone, Copy, Debug)]
enum Stmt {
    /// Load, compare against a constant, branch.
    Compare { field: usize, depth: u8 },
    /// Load, copy through a `mov`, compare the copy with itself.
    CopyCompare { field: usize, depth: u8 },
    /// Load and branch on the loaded value directly.
    Branch { field: usize, depth: u8 },
    /// Store a constant.
    Assign { field: usize, depth: u8 },
}

fn stmt() -> impl Strategy<Value = Stmt> {
    (0u8..4, 0usize..FIELDS, 0u8..3).prop_map(|(kind, field, depth)| match kind {
        0 => Stmt::Compare { field, depth },
        1 => Stmt::CopyCompare { field, depth },
        2 => Stmt::Branch { field, depth },
        _ => Stmt::Assign { field, depth },
    })
}

/// Fields per generated program: the first half instance, the rest static.
const FIELDS: usize = 6;

fn emit(m: &mut MethodBuilder<'_>, this: Reg, fields: &[(FieldId, bool)], s: Stmt) {
    let (field, depth) = match s {
        Stmt::Compare { field, depth }
        | Stmt::CopyCompare { field, depth }
        | Stmt::Branch { field, depth }
        | Stmt::Assign { field, depth } => (field, depth),
    };
    let (f, is_static) = fields[field];
    let mut loops = Vec::new();
    for _ in 0..depth {
        let i = m.reg();
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.br_icmp_imm(CmpOp::Ge, i, 2, done);
        loops.push((i, head, done));
    }
    let load = |m: &mut MethodBuilder<'_>| {
        let r = m.reg();
        if is_static {
            m.get_static(r, f);
        } else {
            m.get_field(r, this, f);
        }
        r
    };
    match s {
        Stmt::Compare { .. } => {
            let r = load(m);
            let join = m.label();
            m.br_icmp_imm(CmpOp::Ne, r, 0, join);
            m.bind(join);
        }
        Stmt::CopyCompare { .. } => {
            let r = load(m);
            let c = m.reg();
            m.mov(c, r);
            let join = m.label();
            m.br_icmp(CmpOp::Eq, c, c, join);
            m.bind(join);
        }
        Stmt::Branch { .. } => {
            let r = load(m);
            let join = m.label();
            m.br_if(r, join);
            m.bind(join);
        }
        Stmt::Assign { .. } => {
            let v = m.imm(1);
            if is_static {
                m.put_static(f, v);
            } else {
                m.put_field(this, f, v);
            }
        }
    }
    for (i, head, done) in loops.into_iter().rev() {
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
    }
}

/// One class with [`FIELDS`] fields, a constructor that assigns every
/// instance field, and one instance method per statement list.
fn program(methods: &[Vec<Stmt>]) -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("S").build();
    let fields: Vec<(FieldId, bool)> = (0..FIELDS)
        .map(|i| {
            if i < FIELDS / 2 {
                (pb.instance_field(c, &format!("f{i}"), Ty::Int), false)
            } else {
                (pb.static_field(c, &format!("s{i}"), Ty::Int, 0i64.into()), true)
            }
        })
        .collect();
    let mut m = pb.ctor(c, vec![]);
    let this = m.this();
    for &(f, is_static) in &fields {
        if !is_static {
            let v = m.imm(0);
            m.put_field(this, f, v);
        }
    }
    m.ret(None);
    m.build();
    for (k, body) in methods.iter().enumerate() {
        let mut m = pb.method(c, &format!("m{k}"), MethodSig::void());
        let this = m.this();
        for &s in body {
            emit(&mut m, this, &fields, s);
        }
        m.ret(None);
        m.build();
    }
    pb.finish().unwrap()
}

/// A cycle-share hotness vector: non-negative weights normalised to sum 1
/// (all zero when every weight is zero, as for a run with no cycles).
fn hotness(program: &Program, weights: &[u64]) -> HotMethodReport {
    let w: Vec<f64> = (0..program.methods.len())
        .map(|i| weights.get(i).copied().unwrap_or(0) as f64)
        .collect();
    let total: f64 = w.iter().sum();
    HotMethodReport {
        hotness: w.iter().map(|&x| if total == 0.0 { 0.0 } else { x / total }).collect(),
        ..Default::default()
    }
}

/// Every field with a branch use anywhere, read off EQ 1 with every gate
/// open.
fn branch_used(program: &Program) -> HashSet<FieldId> {
    let open = AnalysisConfig {
        min_score: f64::NEG_INFINITY,
        min_method_hotness: f64::NEG_INFINITY,
        ..Default::default()
    };
    let hot = hotness(program, &[]);
    find_state_fields(program, &hot, &open).iter().map(|s| s.field).collect()
}

fn weight() -> impl Strategy<Value = u64> {
    // A third of the methods get no cycles at all; the rest are spread
    // from rare to dominant.
    (0u64..3, 1u64..10_000).prop_map(|(zero, w)| if zero == 0 { 0 } else { w })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_candidate_is_watched(
        methods in prop::collection::vec(prop::collection::vec(stmt(), 0..10), 1..6),
        weights in prop::collection::vec(weight(), 0..8),
        r_centi in 0u32..400,
        min_score_milli in 1u32..2_000,
        min_hot_milli in 0u32..200,
    ) {
        let p = program(&methods);
        let hot = hotness(&p, &weights);
        let cfg = AnalysisConfig {
            r: r_centi as f64 / 100.0,
            min_score: min_score_milli as f64 / 1000.0,
            min_method_hotness: min_hot_milli as f64 / 1000.0,
            ..Default::default()
        };
        let watch = FieldSites::collect(&p).watch_set(&cfg);
        prop_assert!(watch.is_subset(&branch_used(&p)));
        for c in find_state_fields(&p, &hot, &cfg) {
            prop_assert!(
                watch.contains(&c.field),
                "candidate {:?} (score {}) outside the watch set {watch:?}; cfg {cfg:?}",
                c.field,
                c.score
            );
        }
    }
}

#[test]
fn bound_excludes_fields_that_can_never_score() {
    // f0 is compared once and assigned twice in the same method: with
    // R = 1 its score is at most 1 − 2 < 0 under any hotness. f1 is only
    // compared.
    let p = program(&[vec![
        Stmt::Compare { field: 0, depth: 0 },
        Stmt::Assign { field: 0, depth: 0 },
        Stmt::Assign { field: 0, depth: 0 },
        Stmt::Compare { field: 1, depth: 1 },
    ]]);
    let f = |i: usize| p.classes[0].fields[i];
    let cfg = AnalysisConfig::default();
    let watch = FieldSites::collect(&p).watch_set(&cfg);
    assert_eq!(watch, HashSet::from([f(1)]));
    assert_eq!(branch_used(&p), HashSet::from([f(0), f(1)]));
    // The bound is attained: with every cycle in the method (index 1; the
    // constructor is 0), f1 is a candidate.
    let cands: Vec<FieldId> = find_state_fields(&p, &hotness(&p, &[0, 1]), &cfg)
        .iter()
        .map(|c| c.field)
        .collect();
    assert_eq!(cands, vec![f(1)]);
}

#[test]
fn negative_r_or_non_positive_min_score_watches_every_branch_used_field() {
    let p = program(&[
        vec![
            Stmt::Compare { field: 0, depth: 0 },
            Stmt::Assign { field: 0, depth: 2 },
            Stmt::Branch { field: 4, depth: 1 },
        ],
        vec![Stmt::Assign { field: 1, depth: 0 }, Stmt::CopyCompare { field: 3, depth: 0 }],
    ]);
    let used = branch_used(&p);
    assert_eq!(used.len(), 3);
    let sites = FieldSites::collect(&p);
    for (r, min_score) in [(-1.0, 0.008), (1.0, 0.0), (1.0, -0.5), (-0.1, -1.0), (f64::NAN, 0.1)] {
        let cfg = AnalysisConfig {
            r,
            min_score,
            ..Default::default()
        };
        assert_eq!(sites.watch_set(&cfg), used, "r={r} min_score={min_score}");
    }
    // With R ≥ 0 and a positive threshold the bound drops field 0.
    assert!(sites.watch_set(&AnalysisConfig::default()).len() < used.len());
}
