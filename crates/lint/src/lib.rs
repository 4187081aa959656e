//! # jmb-lint — repo-invariant static analysis for the JMB workspace
//!
//! The workspace's correctness argument rests on some invariants no
//! compiler lint expresses: the control plane must degrade instead of
//! panic (so no `unwrap`/`assert!` on hot paths — `JmbError` exists for a
//! reason), the trace taxonomy is only trustworthy if every variant is
//! both emitted and tested, and a public `merge` must say in which order
//! it combines shards. `jmb-lint` makes those invariants machine-checked:
//! a zero-dependency token scanner ([`lexer`]) feeds a registry of
//! repo-specific lints ([`lints`]) whose findings gate CI. What the
//! toolchain can hold, it holds instead: `unsafe_code` is forbidden
//! workspace-wide in the root `Cargo.toml`, `missing_docs` gates the
//! documented crates, and the root `clippy.toml` disallows the unordered
//! containers, the host clock and ambient parallelism (DESIGN.md §3.10).
//!
//! Design points:
//!
//! * **No `syn`.** The build environment vendors all dependencies, and
//!   every invariant here is visible at the token level once strings,
//!   char literals vs lifetimes, raw strings, and nested comments are
//!   classified correctly.
//! * **Suppressions are audit records.** `// jmb-allow(lint-name):
//!   reason` — the reason is mandatory, unknown lint names are errors,
//!   and an allow that suppresses nothing is itself reported, so the
//!   suppression set can only shrink.
//! * **Diagnostics are data.** Every finding carries a `file:line:col`
//!   span, a message, and an actionable suggestion, rendered human- or
//!   machine-readable (`--format json`, consumed by the CI artifact
//!   upload).

#![warn(missing_docs)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod lints;
pub mod source;

pub use diag::{render_fix_allow, render_json, Diagnostic, Severity};
pub use source::SourceFile;
