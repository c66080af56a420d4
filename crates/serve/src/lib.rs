//! `lehdc-serve`: a micro-batching TCP inference daemon for LeHDC bundles.
//!
//! The LeHDC pipeline trains a binary classifier whose whole value is cheap
//! inference; this crate is the query front door. A zero-dependency TCP
//! server (`std::net` only) loads a saved model bundle and answers
//! encode+classify requests from many concurrent connections. The perf
//! trick is **micro-batching**: connection readers enqueue requests into a
//! bounded MPSC ring, and a single collector thread drains up to
//! `max_batch` of them (waiting at most `max_wait` past the first arrival),
//! answering the whole batch through the bundle's batch path — one pooled
//! encode and one blocked `classify_into` fan-out on the persistent
//! threadpool — so per-request overhead is paid once per batch, and the
//! kernels run at full width.
//!
//! The served model is an epoch-stamped [`Arc`](std::sync::Arc) snapshot
//! that an admin `SWAP` command replaces atomically: in-flight batches
//! finish on the model they snapshotted, new batches see the new epoch, and
//! every classify response carries the epoch that answered it.
//!
//! Module map:
//! - [`protocol`] — length-prefixed binary frames + line-mode fallback
//! - [`queue`] — the bounded ring buffer between readers and the collector
//! - [`batcher`] — the collector: screen each request, then the bundle's
//!   encode and classify calls
//! - [`state`] — epoch-swappable model state
//! - [`server`] — accept loop, connection threads, shutdown orchestration
//! - [`client`] — lockstep + pipelined binary client
//! - [`flags`] — argv parsing shared by the `lehdc_serve`/`lehdc_loadgen` bins

pub mod batcher;
pub mod client;
pub mod flags;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod state;

pub use client::Client;
pub use protocol::{Request, Response};
pub use server::{ServeConfig, Server};
pub use state::{LoadedModel, ModelState};
