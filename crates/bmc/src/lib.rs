//! # `bmc` — bounded model checking from a symbolic initial state
//!
//! This crate is the formal-verification engine of the UPEC reproduction. It
//! takes a word-level [`rtl::Netlist`], bit-blasts it into CNF with Tseitin
//! encoding, unrolls its transition relation over a bounded time window, and
//! decides properties with the [`sat`] CDCL solver.
//!
//! [`Unrolling`] is the one entry point: per-frame literals for every
//! signal, hard constraints, assumption-based queries and model/value
//! extraction. With the default [`UnrollOptions`] every register starts
//! fully *symbolic* in frame 0, so an `Unsat` answer holds for every
//! starting state — the "any-state proof" of interval property checking
//! that the UPEC miter proofs in the `upec` crate build on.
//! [`CompiledTransition`] is the cone-of-influence compiler behind the
//! lazy per-frame encoding, and [`GateBuilder`] the hashed Tseitin layer
//! underneath.
//!
//! # Example
//!
//! ```
//! use bmc::{UnrollOptions, Unrolling};
//! use rtl::Netlist;
//!
//! // Prove that a two-entry shift register delivers its input after two
//! // cycles, for every possible starting state.
//! let mut n = Netlist::new("shift2");
//! let data_in = n.input("in", 4);
//! let s1 = n.register("s1", 4);
//! let s2 = n.register("s2", 4);
//! n.set_next(s1, data_in);
//! n.set_next(s2, s1.value());
//! let nine = n.lit(9, 4);
//! let in_is_9 = n.eq(data_in, nine);
//! let out_is_9 = n.eq(s2.value(), nine);
//! n.output("out_is_9", out_is_9);
//!
//! // Frame 0 is symbolic: `s1` and `s2` start with arbitrary values.
//! let mut unrolling = Unrolling::new(&n, UnrollOptions::symbolic_initial_state());
//! unrolling.extend_to(2);
//! unrolling.assume_signal_true(0, in_is_9).unwrap();
//! let out = unrolling.bit_lit(2, out_is_9).unwrap();
//! // No starting state lets the output miss the input: the negated
//! // obligation is unsatisfiable.
//! assert!(unrolling.solve(&[!out]).is_unsat());
//! ```

#![warn(missing_docs)]

mod compile;
mod gates;
mod unroll;

pub use compile::{CompileStats, CompiledOp, CompiledTransition};
pub use gates::GateBuilder;
pub use unroll::{EncodeStats, SharedClause, UnrollError, UnrollOptions, Unrolling};
