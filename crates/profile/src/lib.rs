#![warn(missing_docs)]

//! # dchm-profile
//!
//! The offline profiling of the paper's Figure 3. The paper profiles
//! twice — a VTune run for hot methods, then an augmented-Jikes run for
//! state-field values. Here one execution serves both: [`profile_run`]
//! runs the workload once on a mutation-off VM and returns
//!
//! 1. **method hotness** ([`hot`]) — the stand-in for Intel VTune:
//!    per-method call frequencies and cycle shares, and
//! 2. **field values** ([`values`]) — the paper's augmented Jikes RVM:
//!    histograms of the values stored to the watched fields, from which hot
//!    states are derived.
//!
//! The value observer is host-only, so watching fields leaves every
//! modeled observable of the run (clock, stats, output) unchanged, and the
//! two reports are exactly what two separate runs would give. Which fields
//! to watch before hotness is known is the analysis's call
//! (`dchm_core::analysis::FieldSites::watch_set` bounds EQ 1 over every
//! possible hotness). [`profile_hot_methods`] and [`profile_field_values`]
//! are thin wrappers over [`profile_run`] that keep one of the two reports.
//!
//! Both profiles are deterministic (the VM's clock is a cycle model), so a
//! profiling run and a measured run see identical behaviour.

pub mod hot;
pub mod values;

pub use hot::{profile_hot_methods, HotMethodReport};
pub use values::{profile_field_values, ValueHistogram, ValueProfiler, ValueReport};

use dchm_bytecode::{FieldId, Program};
use dchm_vm::{Vm, VmConfig};
use std::collections::HashSet;

/// Runs `driver` once on a fresh mutation-off VM, histogramming the values
/// stored to `fields`, and returns the hot-method report and the value
/// report of that one run.
///
/// The driver receives the VM and runs the workload (usually
/// `vm.run_entry()` or a sequence of `call_static`s). With no fields to
/// watch, no observer is attached at all.
pub fn profile_run(
    program: Program,
    config: VmConfig,
    fields: impl IntoIterator<Item = FieldId>,
    driver: impl FnOnce(&mut Vm),
) -> (HotMethodReport, ValueReport) {
    let watch: HashSet<FieldId> = fields.into_iter().collect();
    let mut vm = Vm::new(program, config);
    let profiler = (!watch.is_empty()).then(|| {
        let profiler = ValueProfiler::new(watch);
        vm.attach_observer(Box::new(profiler.clone()));
        profiler
    });
    driver(&mut vm);
    let values = profiler.map(|p| p.report()).unwrap_or_default();
    (HotMethodReport::from_vm(&vm), values)
}
