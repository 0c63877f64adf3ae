//! The rule set: one module per invariant.
//!
//! Every rule is a free function from the scanned workspace to a list
//! of [`crate::Finding`]s; the engine in [`crate::check_workspace`]
//! runs them all, applies the inline allow directives, and sorts the
//! survivors. Rules must never panic, whatever the input looks like —
//! they run over half-edited trees from pre-commit hooks.

pub mod docs;
pub mod hot_path;
pub mod safety;
pub mod wire;
