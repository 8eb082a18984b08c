//! Run-time errors (the VM's model of Java exceptions that the paper's
//! benchmarks never catch: any of these aborts the run).

use std::fmt;

/// A trap raised during execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// Null receiver or array reference.
    NullPointer,
    /// Array index out of bounds.
    ArrayBounds {
        /// The offending index.
        index: i64,
        /// The array length.
        len: usize,
    },
    /// Integer division or remainder by zero.
    DivideByZero,
    /// `checkcast` failure.
    ClassCast,
    /// Negative array size.
    NegativeArraySize(i64),
    /// The heap cannot satisfy an allocation even after GC.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Configured heap size.
        heap: usize,
    },
    /// The program has no entry point.
    NoEntry,
    /// An abstract method was invoked (broken dispatch tables).
    AbstractCall {
        /// Human-readable method name.
        method: String,
    },
    /// A selector could not be dispatched on the receiver's class, or a
    /// host call named no static method of the given arity.
    NoSuchMethod {
        /// Human-readable description.
        what: String,
    },
    /// The evaluator exceeded the configured fuel (instruction budget);
    /// guards tests against infinite loops.
    OutOfFuel,
    /// An `Unreachable` terminator was executed — an optimizer or codegen
    /// bug. Surfaced as a trap (rather than a host panic) so the VM state
    /// stays inspectable post-mortem.
    UnreachableExecuted,
    /// A value had the wrong runtime shape for the operation (a non-object
    /// where an object was required, a primitive where a reference was
    /// required, …). Only a verifier or optimizer bug can produce this;
    /// it traps instead of killing the host so the heap stays inspectable.
    TypeConfusion {
        /// Human-readable description of the confusion.
        what: String,
    },
    /// An internal VM invariant broke (missing frame, malformed deopt
    /// metadata, …). As with [`RunError::TypeConfusion`], this is
    /// surfaced as a trap so the run can be examined post-mortem.
    VmInvariant {
        /// Human-readable description of the broken invariant.
        what: String,
    },
    /// A call would exceed [`crate::state::VmConfig::max_frame_depth`]
    /// (the model of `StackOverflowError`).
    StackOverflow {
        /// Depth the call would have reached.
        depth: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The VM was poisoned by an earlier contained panic
    /// ([`RunError::VmInvariant`]); its heap and code state are suspect,
    /// so further runs refuse to execute.
    Poisoned,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::NullPointer => write!(f, "null pointer dereference"),
            RunError::ArrayBounds { index, len } => {
                write!(f, "array index {index} out of bounds for length {len}")
            }
            RunError::DivideByZero => write!(f, "integer division by zero"),
            RunError::ClassCast => write!(f, "invalid class cast"),
            RunError::NegativeArraySize(n) => write!(f, "negative array size {n}"),
            RunError::OutOfMemory { requested, heap } => {
                write!(f, "out of memory: {requested} bytes requested, heap {heap}")
            }
            RunError::NoEntry => write!(f, "program has no entry point"),
            RunError::AbstractCall { method } => {
                write!(f, "abstract method invoked: {method}")
            }
            RunError::NoSuchMethod { what } => write!(f, "no such method: {what}"),
            RunError::OutOfFuel => write!(f, "execution fuel exhausted"),
            RunError::UnreachableExecuted => {
                write!(f, "unreachable terminator executed (optimizer bug)")
            }
            RunError::TypeConfusion { what } => write!(f, "type confusion: {what}"),
            RunError::VmInvariant { what } => write!(f, "vm invariant violated: {what}"),
            RunError::StackOverflow { depth, limit } => {
                write!(f, "stack overflow: depth {depth} exceeds limit {limit}")
            }
            RunError::Poisoned => {
                write!(f, "vm poisoned by an earlier contained panic; refusing to run")
            }
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_specifics() {
        let e = RunError::ArrayBounds { index: -1, len: 4 };
        assert!(format!("{e}").contains("-1"));
        let e = RunError::OutOfMemory {
            requested: 64,
            heap: 1024,
        };
        assert!(format!("{e}").contains("64"));
        let e = RunError::StackOverflow { depth: 65, limit: 64 };
        let text = format!("{e}");
        assert!(text.contains("65") && text.contains("64"));
        assert!(format!("{}", RunError::Poisoned).contains("poisoned"));
    }
}
