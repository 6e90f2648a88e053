//! Property formalisms and static analyses for parametric runtime
//! monitoring — the logic-plugin layer of the PLDI'11 RV reproduction.
//!
//! This crate implements, from scratch:
//!
//! * the four specification plugins of the paper — [`fsm`] (Figure 2),
//!   [`ere`] (Figure 3, via Brzozowski derivatives), [`ltl`] (Figure 2's
//!   temporal formula, with past operators, via formula progression), and
//!   [`mod@cfg`] (Figure 4, via incremental Earley recognition);
//! * the shared deterministic backbone [`dfa::Dfa`] that the first three
//!   compile into;
//! * the paper's §3 static analyses: the SEEABLE/COENABLE fixpoint for
//!   finite-state properties ([`dfa::Dfa::coenable`]), the `G`/`C` fixpoint
//!   for context-free properties ([`cfg::Grammar::coenable`]), the
//!   `D`-lifting to parameter sets (Definition 11,
//!   [`coenable::CoenableSets::lift`]), and the minimized boolean
//!   [`coenable::Aliveness`] formula evaluated by notified monitors
//!   (§4.2.2);
//! * the state-indexed variant ([`dfa::Dfa::state_aliveness`]) used by the
//!   Tracematches-style baseline;
//! * the formalism-independent monitor interface ([`formalism::Formalism`])
//!   consumed by the parametric engine.
//!
//! # Example: the paper's worked coenable sets
//!
//! ```
//! use rv_logic::ere::unsafe_iter_ere;
//! use rv_logic::event::Alphabet;
//! use rv_logic::verdict::GoalSet;
//!
//! let alphabet = Alphabet::from_names(&["create", "update", "next"]);
//! let dfa = unsafe_iter_ere(&alphabet).compile(&alphabet, 1_000)?;
//! let coenable = dfa.coenable(GoalSet::MATCH);
//! // COENABLE(update) = {{next}, {next, update}, {next, create, update}}
//! let update = alphabet.lookup("update").unwrap();
//! assert_eq!(coenable.of(update).len(), 3);
//! # Ok::<(), rv_logic::ere::EreError>(())
//! ```

pub mod cfg;
pub mod coenable;
pub mod dfa;
pub mod ere;
pub mod event;
pub mod formalism;
pub mod fsm;
pub mod instrument;
pub mod ltl;
pub mod minimize;
pub mod param;
pub mod verdict;

pub use crate::coenable::{Aliveness, CoenableSets, SetFamily};
pub use crate::event::{Alphabet, EventId, EventSet};
pub use crate::formalism::{AnyFormalism, AnyState, Formalism};
pub use crate::param::{EventDef, ParamId, ParamSet, MAX_PARAMS};
pub use crate::verdict::{GoalSet, Verdict};
