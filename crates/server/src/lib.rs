//! # `bfl-server` — the concurrent BFL analysis service
//!
//! A long-running, multithreaded TCP server (std-only, like the rest of
//! the suite) that keeps [`AnalysisSession`]s and their compiled
//! [`PreparedQuery`] plans **resident**, so every connection shares the
//! warm BDD translation caches and scenario/probability memos — the
//! deployment surface for the warm-path speedups the bench artifacts
//! measure (`BENCH_quant.json`, `BENCH_serve.json`).
//!
//! The wire protocol is line-oriented JSON ([`protocol`]; full reference
//! in `docs/server.md`): `load` a Galileo model into a session,
//! `prepare` a query into a shared plan, then `check`/`eval`/`sweep`/
//! `prob`/`importance`/`explain`/`stats`/`unload` against it,
//! and `shutdown` to drain gracefully. Connections are multiplexed over
//! a **fixed** number of nonblocking shard threads ([`server`]), so
//! hundreds of concurrent clients never grow the thread count.
//! Backpressure is explicit at every layer — a full request queue, a
//! session at its in-flight cap and a server at its connection cap all
//! answer structured `busy`/`overloaded` errors — and malformed input
//! always gets a structured error, never a dropped connection. Large
//! `sweep`/`cause` results can be streamed in bounded chunks
//! (`"stream":true`), and idle connections are reaped when
//! `--idle-timeout` is set.
//!
//! ```no_run
//! use bfl_server::client::Client;
//! use bfl_server::server::{Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let handle = Server::bind(ServerConfig::default())?;
//! let mut client = Client::connect(handle.addr())?;
//! let session = client.load("toplevel T;\nT or A B;\nA prob=0.1;\nB prob=0.2;\n")?;
//! let plan = client.prepare(&session, "exists T")?;
//! assert_eq!(
//!     client.eval(&session, &plan, "A = 0, B = 0")?
//!         .get("holds").and_then(|v| v.as_bool()),
//!     Some(false)
//! );
//! client.shutdown()?;
//! handle.join();
//! # Ok(())
//! # }
//! ```
//!
//! [`AnalysisSession`]: bfl_core::engine::AnalysisSession
//! [`PreparedQuery`]: bfl_core::plan::PreparedQuery

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The whole crate serves untrusted input on long-lived threads: no
// reachable panic from request data. The unwrap/expect ban now comes
// from `[workspace.lints]`, inherited by every crate.

pub mod client;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;
mod shard;

pub use client::{Client, ClientError};
pub use protocol::{
    ErrorCode, Op, ProbOptions, ProbTarget, Request, Response, ResponseBody, SessionOptions,
};
pub use registry::{AdmissionGuard, Registry, SessionEntry};
pub use server::{Server, ServerConfig, ServerHandle};
