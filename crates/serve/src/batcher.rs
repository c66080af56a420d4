//! The micro-batch collector: the perf heart of the daemon.
//!
//! Connection readers enqueue [`ClassifyRequest`]s; one collector thread
//! drains the ring in batches and answers each batch with the bundle's
//! batch path: one pooled encode ([`ModelBundle::encode_batch`]) and one
//! blocked classify fan-out ([`EpochEngine::classify_into`]). That
//! coalescing is where the throughput comes from — per-request costs (queue
//! hop, model snapshot, kernel dispatch) are paid once per batch, and the
//! encode + argmax work runs on the persistent threadpool at full width
//! instead of one request at a time.
//!
//! Steady-state request handling allocates nothing: the batch `Vec`s and
//! the path's [`QueryBuffers`] are reused across batches (re-sized only
//! when a hot swap changes the model dimension).
//!
//! [`ModelBundle::encode_batch`]: lehdc::io::ModelBundle::encode_batch

use std::sync::mpsc::SyncSender;
use std::time::{Duration, Instant};

use lehdc::io::QueryBuffers;
use lehdc::EpochEngine;
use obs::Recorder;

use crate::queue::RingBuffer;
use crate::state::ModelState;

/// A classification outcome sent back to the connection that asked:
/// `(class, model epoch)` or a human-readable rejection.
pub type ClassifyReply = Result<(u32, u64), String>;

/// One enqueued classify request.
pub struct ClassifyRequest {
    /// Raw (un-normalized) feature vector from the client.
    pub features: Vec<f32>,
    /// When the reader enqueued it — measures queue + coalescing wait.
    pub enqueued: Instant,
    /// Rendezvous channel back to the connection's writer.
    pub reply: SyncSender<ClassifyReply>,
}

/// The request's feature row, as the bundle's batch path reads it.
impl AsRef<[f32]> for ClassifyRequest {
    fn as_ref(&self) -> &[f32] {
        &self.features
    }
}

pub(crate) struct Collector<'a> {
    pub queue: &'a RingBuffer<ClassifyRequest>,
    pub state: &'a ModelState,
    pub engine: EpochEngine,
    pub max_batch: usize,
    pub max_wait: Duration,
    pub rec: &'a Recorder,
}

impl Collector<'_> {
    /// Runs until the queue is closed *and* drained, so every request that
    /// made it into the ring is answered even during shutdown.
    pub(crate) fn run(&self) {
        let mut pending: Vec<ClassifyRequest> = Vec::with_capacity(self.max_batch);
        let mut buffers = QueryBuffers::default();
        let mut preds: Vec<usize> = Vec::with_capacity(self.max_batch);

        while self
            .queue
            .recv_batch(&mut pending, self.max_batch, self.max_wait)
            .is_ok()
        {
            let batch_timer = self.rec.start();
            let snap = self.state.snapshot();
            let bundle = &snap.bundle;

            // Reject shape mismatches and non-finite features per request,
            // so one bad row never fails the rest of its batch. The protocol
            // layer already screens for NaN/±inf, so the finiteness half of
            // the check is defense in depth (e.g. against a future ingress
            // path that skips decode).
            pending.retain(|req| match bundle.check_row(&req.features) {
                Ok(()) => true,
                Err(msg) => {
                    let _ = req.reply.send(Err(msg));
                    false
                }
            });
            let n = pending.len();
            if n == 0 {
                continue;
            }

            // Normalize, encode and (for a distilled bundle) project.
            let encode_timer = self.rec.start();
            let queries = bundle
                .encode_batch(&pending, &mut buffers, self.engine.pool())
                .expect("every row passed the bundle's row check");
            self.rec.observe_since("serve/encode_ns", &encode_timer);

            // One blocked argmax fan-out answers the whole batch.
            let classify_timer = self.rec.start();
            preds.resize(n, 0);
            self.engine
                .classify_into(&bundle.model, queries, &mut preds[..n]);
            self.rec.observe_since("serve/classify_ns", &classify_timer);

            // Record before replying: a client that just received its
            // answer must see this batch already counted in STATS.
            if self.rec.enabled() {
                let now = Instant::now();
                for req in &pending {
                    let wait = now.saturating_duration_since(req.enqueued);
                    self.rec
                        .observe_ns("serve/queue_wait_ns", wait.as_nanos() as u64);
                }
                self.rec.add("serve/requests_total", n as u64);
                self.rec.add("serve/batches_total", 1);
                self.rec.gauge("serve/epoch", snap.epoch as f64);
                self.rec.gauge("serve/last_batch_size", n as f64);
                self.rec.observe_since("serve/batch_ns", &batch_timer);
            }
            for (req, &pred) in pending.drain(..).zip(&preds) {
                let _ = req.reply.send(Ok((pred as u32, snap.epoch)));
            }
        }
    }
}
