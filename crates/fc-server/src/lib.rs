//! # fc-server — the ForeCache client-server architecture (§3)
//!
//! "ForeCache utilizes a client-server architecture, where the user
//! interacts with a lightweight client-side interface to browse datasets,
//! and the data to be browsed is retrieved from a DBMS running on a
//! back-end server." The paper's front-end is a web page; ForeCache is
//! explicitly front-end agnostic — "the only requirement for the
//! visualizer is that it must interact with the back-end through tile
//! requests."
//!
//! This crate provides:
//! * [`protocol`] — a length-prefixed binary wire format (no external
//!   serialization framework; `bytes` for framing);
//! * [`server`] — a threaded TCP server: one connection = one user
//!   session with its own [`fc_core::Middleware`] (prediction engine +
//!   cache) over a shared tile pyramid, supporting many concurrent
//!   users (§5.5: "many users can actively navigate the data freely and
//!   in parallel"); with [`server::ServerConfig::multi_user`] set,
//!   sessions additionally share the lock-striped
//!   [`fc_core::SharedTileCache`] (communal prefetches, fairly
//!   repartitioned budgets) and the dataset's shared χ² pair cache
//!   ([`fc_core::PredictScheduler`]);
//! * [`epoll`] — a minimal `epoll(7)` readiness shim over std (the
//!   container has no mio/tokio; std already links libc, so the
//!   syscalls are a plain `extern "C"` away) for the reactor's
//!   O(ready) wakeups at thousands of sessions;
//! * the session reactor (via [`server::ServerConfig::reactor`]) —
//!   the same sessions multiplexed on a single-threaded readiness loop:
//!   per-session read re-assembly and bounded write queues of
//!   [`protocol::Frame`]s around the same message handler,
//!   bit-identical replies, plus the
//!   utility-scheduled server push
//!   ([`server::ServerConfig::push`], [`fc_core::PushPlanner`]);
//! * [`client`] — a blocking client for Rust front-ends and tests.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod epoll;
pub mod protocol;
pub(crate) mod reactor;
pub mod server;

pub use client::{Client, ServerError};
pub use protocol::{ClientMsg, ErrorCode, Frame, FrameBuf, ServerMsg, TilePayload};
pub use server::{
    DatasetSpec, EngineFactory, FaultSetup, MultiUserServing, PushServing, Server, ServerConfig,
    SessionLimits,
};
