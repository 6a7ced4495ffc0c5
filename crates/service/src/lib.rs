//! `nocalertd` — campaign-as-a-service for the NoCAlert reproduction
//! (DESIGN.md §15).
//!
//! The service turns the repository's fault-injection campaigns into
//! submittable jobs: a client POSTs a [`noc_types::JobSpec`] (transient
//! sweep, recovery sweep, attack matrix, or aging run), a worker
//! executes it through [`golden::JobDriver`] — the same sharded engines
//! the `bench` binaries drive — and the client follows progress and
//! clustered incidents over a streaming HTTP/SSE feed.
//!
//! Three properties define the design:
//!
//! * **Bit-identity.** A job's aggregate (pinned by an FNV-1a digest
//!   over the canonical per-site reports) is identical to a direct
//!   `bench` run of the same spec, at any worker count, including
//!   across a `kill -9` / restart / resume cycle. The engines shard
//!   work round-robin and reassemble in input order, so scheduling
//!   never leaks into results.
//! * **Durability.** Every job owns a directory under
//!   `data_dir/jobs/<id>/`: `job.json` (spec + lifecycle state),
//!   `checkpoint/` (the engines' JSONL shards, flushed per unit) and
//!   `result.json` (the aggregate). On restart the server re-enqueues
//!   every non-terminal job with resume enabled; completed units are
//!   restored from shards instead of re-run.
//! * **Shared golden references.** Transient jobs draw their warmed
//!   campaign (fault-free warm-up + golden rollout) from a process-wide
//!   [`golden::GoldenCache`] keyed by configuration, so concurrent jobs
//!   with the same configuration pay the warm-up once.
//!
//! The crate keeps the workspace's hot-path abort rule (clippy) with no
//! exemption: no panics, no `unwrap` — every
//! fallible path returns a structured error to the client or the log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod registry;
pub mod server;

pub use registry::{JobHandle, Registry};
pub use server::{Server, ServerOptions};
