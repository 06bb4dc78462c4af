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
//! * [`server`] — the TCP server: one connection = one user session
//!   with its own [`fc_core::Middleware`] (prediction engine + cache)
//!   over a shared tile pyramid, supporting many concurrent users
//!   (§5.5: "many users can actively navigate the data freely and in
//!   parallel"); with [`server::ServerConfig::multi_user`] set,
//!   sessions additionally share the lock-striped
//!   [`fc_core::SharedTileCache`] (communal prefetches, fairly
//!   repartitioned budgets); every session ranks through the dataset's
//!   shared χ² pair table (`fc_core::paircache`);
//! * the session reactor — every session multiplexed on one
//!   single-threaded readiness loop, the server's only serving path:
//!   per-session read re-assembly and bounded write queues of
//!   [`protocol::Frame`]s around one message handler; the server
//!   sends replies and shed notices, nothing unsolicited;
//! * `epoll` — a minimal `epoll(7)` readiness shim over std (the
//!   container has no mio/tokio; std already links libc, so the
//!   syscalls are a plain `extern "C"` away) for the reactor's
//!   O(ready) wakeups at thousands of sessions — so the server needs
//!   Linux;
//! * `client` — a blocking client for Rust front-ends and tests.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod client;
#[allow(unsafe_code)]
mod epoll;
pub mod protocol;
pub(crate) mod reactor;
pub mod server;

pub use client::{Client, ReplyReader, ServerError, SessionStats, TileAnswer};
pub use protocol::{ClientMsg, ErrorCode, Frame, FrameBuf, ServerMsg, TilePayload};
pub use server::{
    DatasetSpec, EngineFactory, FaultSetup, MultiUserServing, Server, ServerConfig, SessionLimits,
};
