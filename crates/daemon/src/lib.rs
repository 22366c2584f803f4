//! `strtaint serve`: a persistent incremental-analysis daemon for
//! **strtaint** with an on-disk artifact cache (DESIGN.md §5d).
//!
//! The batch CLI pays the full cost of every run: load the tree, lower
//! every file, build and prepare every grammar, answer every Bar-Hillel
//! intersection query. This crate keeps all of that *resident* in a
//! long-running process — the [`Vfs`](strtaint::Vfs), the AST→IR
//! [`SummaryCache`](strtaint::SummaryCache), the prepared reference
//! automata — and re-checks only pages whose transitive inputs changed.
//!
//! The moving parts:
//!
//! - [`state::DaemonState`] — the resident state and the incremental
//!   driver. Every verdict carries its freshness evidence (content hash
//!   of each input file, the project path-set digest, the full config
//!   fingerprint); replay happens only when all of it matches the live
//!   tree, so a replayed answer is byte-identical to what re-analysis
//!   would produce.
//! - [`store::ArtifactStore`] — the versioned on-disk cache under
//!   `.strtaint-cache/`. Advisory by construction: entries are written
//!   atomically, re-validated on every load, and dropped (never
//!   trusted) on any corruption or version mismatch. A cold daemon
//!   start over an unchanged tree replays stored verdicts with zero
//!   new intersection queries.
//! - [`protocol`] — newline-delimited JSON requests (`analyze`,
//!   `invalidate`, `status`, `shutdown`) and their responses.
//! - [`workspace`] — multi-tenant sharding: one daemon, many
//!   independent workspace roots, each with its own state and locks.
//! - [`pool`] — the bounded, priority-aware worker pool with
//!   shed-load backpressure, per-request deadlines, bounded drain,
//!   and fault-injection hooks for the soak suite.
//! - [`server`] — routing, the stdin/stdout line loop, and the
//!   `strtaint serve` flag parsing ([`server::cli_serve`]);
//!   [`socket`] — the concurrent Unix-socket transport whose request
//!   execution is bounded by the pool.
//! - [`json`] — a dependency-free JSON parser and deterministic writer
//!   whose output is a fixpoint of its parser (the property replay
//!   byte-identity rests on).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod json;
pub mod pool;
pub mod protocol;
pub mod server;
#[cfg(unix)]
pub mod socket;
pub mod state;
pub mod store;
pub mod verdict;
pub mod workspace;

pub use pool::{ExpireReason, PoolFault, StallGate, SubmitError, WorkerPool};
pub use server::{cli_serve, serve_server_lines, ServeOptions, ServerConfig, ServerState};
pub use state::{DaemonState, PageOutcome};
pub use store::ArtifactStore;
pub use workspace::{canonical_key, WorkspaceLoader, WorkspaceMap};
