//! Gate types: SAN input gates (enabling predicates) and output gates
//! (marking transformations).
//!
//! In the SAN formalism, *input gates* decide when an activity may complete
//! and *output gates* describe how the marking changes on completion. In
//! this crate they are plain boxed closures over [`crate::model::Marking`];
//! the aliases exist so model-building code reads in SAN vocabulary.

use crate::model::Marking;

/// An input gate: enables an activity as a function of the marking.
pub type Predicate = Box<dyn Fn(&Marking) -> bool + Send + Sync>;

/// An output gate: transforms the marking when an activity completes.
pub type Effect = Box<dyn Fn(&mut Marking) + Send + Sync>;
