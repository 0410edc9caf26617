//! A long-running graph query server over one resident GraphMat session.
//!
//! GraphMat's architecture — an immutable, partition-parallel
//! `Arc<Topology>` plus cheap per-run `VertexState`s — is exactly the shape
//! of a serving system: build the matrix once, answer many queries. This
//! crate is that serving layer, built on `std` only (no async runtime, no
//! external protocol library):
//!
//! * [`protocol`] — length-prefixed binary frames with a versioned
//!   request/response codec: algorithm id, seed, iteration bound,
//!   per-request timeout, optional full result values, FNV-1a result
//!   checksums, typed error statuses;
//! * [`service`] — [`service::GraphService`] (session + resident topology)
//!   and [`service::WorkerStates`] (per-worker, per-algorithm
//!   `StatePool`s), dispatching wire requests to the pooled `*_view_into`
//!   algorithm drivers so steady-state serving allocates nothing per query;
//! * [`queue`] — the bounded admission queue: overload is an immediate
//!   `Busy` rejection, not unbounded latency;
//! * [`server`] — acceptor + connection threads + worker pool, per-request
//!   deadline enforcement (expired-in-queue and mid-run), graceful
//!   shutdown that drains admitted work;
//! * [`metrics`] — per-algorithm counters and p50/p95/p99 latency
//!   histograms behind the `STATS` endpoint and a periodic log line;
//! * [`client`] — the blocking reference client used by the `loadgen` bin,
//!   the CI smoke test and the integration tests;
//! * [`resilience`] — [`resilience::ResilientClient`]: retry with
//!   decorrelated-jitter backoff for idempotent operations (never UPDATE)
//!   plus a per-endpoint circuit breaker.
//!
//! ```no_run
//! use graphmat_core::Session;
//! use graphmat_io::{edgelist::EdgeList, rmat::RmatConfig};
//! use graphmat_server::{Algorithm, Client, GraphService, RunRequest, Server, ServerConfig};
//!
//! let edges: EdgeList<f32> = graphmat_io::rmat::generate(
//!     &RmatConfig::graph500(10).with_weights(1, 10),
//! );
//! let session = Session::with_threads(2)?;
//! let topology = session.build_graph(&edges).finish()?;
//! let server = Server::bind(
//!     "127.0.0.1:0",
//!     GraphService::new(session, topology),
//!     ServerConfig::default(),
//! )?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! let reply = client.run(&RunRequest::new(Algorithm::Bfs).seed(0))?;
//! assert!(reply.is_ok());
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod resilience;
pub mod server;
pub mod service;

pub use client::{Client, RunReply, UpdateReply};
pub use metrics::Metrics;
pub use protocol::{Algorithm, EdgeEdit, RunRequest, Status, UpdateRequest, ValueKind};
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, ResilienceStats, ResilientClient, RetryPolicy,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use service::{GraphService, WorkerStates};
