//! The TCP daemon: accept loop, per-connection reader/writer threads, and
//! shutdown orchestration around the shared micro-batch collector.
//!
//! Threading model — one daemon thread owns all the others through one
//! [`std::thread::scope`]: the collector, and two threads per connection.
//!
//! ```text
//! daemon thread: accept loop, in one scope
//!   ├── collector thread ──▶ pool
//!   └── per connection: reader thread, with its writer in a nested scope
//!         │  classify ──▶ ring buffer ──▶ collector
//!         │  admin ops answered inline
//!         ▼ per-request [`Pending`] entries, in order
//!       writer thread (resolves + frames + coalesced flush)
//! ```
//!
//! The reader never waits for a classification: it enqueues the request and
//! a placeholder in the connection's response queue, then reads the next
//! frame. The writer resolves placeholders *in request order*, so pipelined
//! clients get responses in the order they asked — that ordering plus the
//! epoch stamp is what the determinism suite checks.
//!
//! Nothing outlives its connection: no one holds a connection thread's
//! handle, so its stack goes as soon as it finishes, and [`Server::join`]
//! waits for the scope to end. A connection whose threads cannot be
//! spawned is closed, and the daemon keeps accepting.
//!
//! Shutdown never drops an accepted request: the ring is closed (pushes
//! start failing with a clean error) and the collector drains what is
//! already queued, while connection sockets are shut down for reading only,
//! which unblocks any reader parked in `read_exact` and still lets queued
//! replies reach their clients.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

use lehdc::io::ModelBundle;
use lehdc::EpochEngine;
use obs::Recorder;

use crate::batcher::{ClassifyReply, ClassifyRequest, Collector};
use crate::protocol::{
    self, decode_request, encode_response, parse_line, read_frame, render_line, Request, Response,
    BINARY_MAGIC,
};
use crate::queue::RingBuffer;
use crate::state::ModelState;

/// Tuning knobs for the daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pool width for the encode + classify fan-outs.
    pub threads: usize,
    /// Largest batch one collector round may answer.
    pub max_batch: usize,
    /// How long a batch may wait past its first request to fill up — the
    /// latency each lone request risks for the chance of coalescing.
    pub max_wait: Duration,
    /// Ring-buffer capacity; producers beyond it block (backpressure).
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 2,
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            queue_capacity: 1024,
        }
    }
}

/// Everything the accept loop, connections, and collector share; the
/// daemon's threads borrow it from inside its scope.
struct Shared {
    state: ModelState,
    queue: RingBuffer<ClassifyRequest>,
    rec: Recorder,
    shutting_down: AtomicBool,
    local_addr: SocketAddr,
    /// Clones of live connection sockets (keyed by connection id), so
    /// shutdown can unblock parked readers. Entries are removed when the
    /// connection ends — otherwise the clone would hold the socket open
    /// past the client's close.
    streams: Mutex<Vec<(u64, TcpStream)>>,
}

impl Shared {
    /// Idempotent shutdown trigger: stops accepting, closes the ring (the
    /// collector drains what is queued, then exits), and shuts down live
    /// sockets so parked readers return. Callable from any thread,
    /// including a connection's own reader (the SHUTDOWN command).
    fn trigger_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Wake the accept thread; it re-checks the flag per connection.
        let _ = TcpStream::connect(self.local_addr);
        // Shut down only the read half: parked readers wake with EOF, but
        // the write direction stays open so already-queued replies (and
        // the shutdown ack itself) still reach their clients.
        for (_, stream) in self.streams.lock().unwrap().iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Registers an accepted connection so shutdown can wake its reader.
    /// Returns `false` — the caller then drops the socket — if the socket
    /// cannot be cloned or shutdown has begun: checking the flag under the
    /// lock means every registered socket is one shutdown will see.
    fn open_connection(&self, conn_id: u64, stream: &TcpStream) -> bool {
        let Ok(clone) = stream.try_clone() else {
            return false;
        };
        let mut streams = self.streams.lock().unwrap();
        if self.shutting_down.load(Ordering::SeqCst) {
            return false;
        }
        streams.push((conn_id, clone));
        self.rec.add("serve/connections_total", 1);
        self.rec
            .gauge("serve/connections_active", streams.len() as f64);
        true
    }

    /// Forgets a connection's socket clone, closing the socket once the
    /// connection's own handles are gone too.
    fn close_connection(&self, conn_id: u64) {
        let mut streams = self.streams.lock().unwrap();
        streams.retain(|(id, _)| *id != conn_id);
        self.rec
            .gauge("serve/connections_active", streams.len() as f64);
    }
}

/// A running daemon. Dropping it without [`Server::shutdown`] leaves the
/// threads running; call [`Server::join`] to block until it exits.
pub struct Server {
    shared: Arc<Shared>,
    daemon: JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port — see
    /// [`Server::local_addr`]) and starts serving `bundle`.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or the error of spawning the daemon thread.
    pub fn start<A: ToSocketAddrs>(
        bundle: ModelBundle,
        addr: A,
        cfg: &ServeConfig,
        rec: Recorder,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: ModelState::new(bundle),
            queue: RingBuffer::new(cfg.queue_capacity),
            rec,
            shutting_down: AtomicBool::new(false),
            local_addr,
            streams: Mutex::new(Vec::new()),
        });
        let engine = EpochEngine::new(cfg.threads);
        let (max_batch, max_wait) = (cfg.max_batch.max(1), cfg.max_wait);
        let daemon = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lehdc-serve-accept".into())
                .spawn(move || {
                    std::thread::scope(|scope| {
                        let collector = Collector {
                            queue: &shared.queue,
                            state: &shared.state,
                            engine,
                            max_batch,
                            max_wait,
                            rec: &shared.rec,
                        };
                        std::thread::Builder::new()
                            .name("lehdc-serve-collector".into())
                            .spawn_scoped(scope, move || collector.run())
                            .expect("spawning the collector thread");
                        accept_loop(scope, &listener, &shared);
                    });
                })?
        };
        Ok(Server { shared, daemon })
    }

    /// The bound address — the way to learn the port after binding `:0`.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Asks the daemon to drain and exit. Idempotent; also triggered by a
    /// client SHUTDOWN command. Queued requests are still answered.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Blocks until the daemon has fully exited (accept loop, collector,
    /// and every connection thread).
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any daemon thread that panicked.
    pub fn join(self) {
        if let Err(panic) = self.daemon.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

fn accept_loop<'scope>(
    scope: &'scope Scope<'scope, '_>,
    listener: &TcpListener,
    shared: &'scope Shared,
) {
    for (conn_id, accepted) in (0u64..).zip(listener.incoming()) {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = accepted else { continue };
        let _ = stream.set_nodelay(true);
        if !shared.open_connection(conn_id, &stream) {
            continue;
        }
        let spawned = std::thread::Builder::new()
            .name(format!("lehdc-serve-conn-{conn_id}"))
            .spawn_scoped(scope, move || {
                handle_connection(shared, stream, conn_id);
                shared.close_connection(conn_id);
            });
        if spawned.is_err() {
            // The unspawned closure dropped the socket; this drops the
            // clone, which closes it.
            shared.close_connection(conn_id);
        }
    }
}

/// One entry in a connection's in-order response queue: either already
/// resolved (admin ops, rejections) or awaiting the collector's reply.
enum Pending {
    Ready(Response),
    Wait(Receiver<ClassifyReply>),
    /// Write everything before this point, then close the connection.
    Close,
}

fn handle_connection(shared: &Shared, stream: TcpStream, conn_id: u64) {
    // Mode detection: binary clients lead with the 4-byte magic; anything
    // else is the first bytes of a line-mode command (all commands are at
    // least 4 bytes long, so this read never straddles a whole command).
    let mut preamble = [0u8; 4];
    let mut read_half = stream;
    if read_half.read_exact(&mut preamble).is_err() {
        return;
    }
    let binary = preamble == BINARY_MAGIC;

    let Ok(write_half) = read_half.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Pending>();
    std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name(format!("lehdc-serve-write-{conn_id}"))
            .spawn_scoped(scope, move || writer_loop(write_half, &rx, binary));
        if writer.is_err() {
            return;
        }
        // The reader owns `tx`: once it returns, the writer drains what is
        // queued, flushes, and exits, which ends the scope.
        if binary {
            binary_reader_loop(shared, BufReader::new(read_half), tx);
        } else {
            let reader = BufReader::new(preamble.as_slice().chain(read_half));
            line_reader_loop(shared, reader, tx);
        }
    });
}

fn writer_loop(stream: TcpStream, rx: &Receiver<Pending>, binary: bool) {
    let mut writer = BufWriter::new(stream);
    let mut frame = Vec::new();
    'outer: loop {
        let Ok(mut item) = rx.recv() else { break };
        loop {
            let resp = match item {
                Pending::Ready(resp) => resp,
                Pending::Wait(reply_rx) => match reply_rx.recv() {
                    Ok(Ok((class, epoch))) => Response::Classified { class, epoch },
                    Ok(Err(msg)) => Response::Error(msg),
                    // The request was dropped on the floor (collector
                    // gone); tell the client rather than stalling it.
                    Err(_) => Response::Error("server shutting down".into()),
                },
                Pending::Close => break 'outer,
            };
            let ok = if binary {
                encode_response(&resp, &mut frame);
                protocol::write_frame(&mut writer, &frame).is_ok()
            } else {
                writer.write_all(render_line(&resp).as_bytes()).is_ok()
            };
            if !ok {
                break 'outer;
            }
            // Keep writing while responses are ready — one flush per lull
            // coalesces pipelined responses into few packets.
            match rx.try_recv() {
                Ok(next) => item = next,
                Err(TryRecvError::Empty) => {
                    let _ = writer.flush();
                    break;
                }
                Err(TryRecvError::Disconnected) => break 'outer,
            }
        }
    }
    let _ = writer.flush();
}

/// Handles one decoded request on the reader thread. Classifications go to
/// the ring; everything else is answered inline. Returns `false` when the
/// connection should close (client shutdown command).
fn handle_request(shared: &Shared, req: Request, tx: &Sender<Pending>) -> bool {
    match req {
        Request::Classify(features) => {
            let (reply_tx, reply_rx) = mpsc::sync_channel::<ClassifyReply>(1);
            let request = ClassifyRequest {
                features,
                enqueued: Instant::now(),
                reply: reply_tx,
            };
            match shared.queue.push(request) {
                Ok(()) => {
                    let _ = tx.send(Pending::Wait(reply_rx));
                }
                Err(_) => {
                    let _ = tx.send(Pending::Ready(Response::Error(
                        "server shutting down".into(),
                    )));
                }
            }
        }
        Request::Ping => {
            let _ = tx.send(Pending::Ready(Response::Pong));
        }
        Request::Stats => {
            let _ = tx.send(Pending::Ready(Response::Stats(shared.rec.metrics_json())));
        }
        Request::Info => {
            let snap = shared.state.snapshot();
            let _ = tx.send(Pending::Ready(Response::Info {
                dim: snap.bundle.model.dim().get() as u64,
                classes: snap.bundle.model.n_classes() as u64,
                features: snap.bundle.n_features() as u64,
                epoch: snap.epoch,
            }));
        }
        Request::Swap(path) => {
            let resp = match shared.state.swap_from(std::path::Path::new(&path)) {
                Ok(epoch) => {
                    shared.rec.add("serve/swaps_total", 1);
                    Response::Swapped { epoch }
                }
                Err(e) => Response::Error(e.to_string()),
            };
            let _ = tx.send(Pending::Ready(resp));
        }
        Request::Shutdown => {
            let _ = tx.send(Pending::Ready(Response::ShuttingDown));
            let _ = tx.send(Pending::Close);
            shared.trigger_shutdown();
            return false;
        }
    }
    true
}

fn binary_reader_loop<R: Read>(shared: &Shared, mut reader: R, tx: Sender<Pending>) {
    let mut payload = Vec::new();
    loop {
        match read_frame(&mut reader, &mut payload) {
            Ok(true) => {}
            Ok(false) => break, // clean EOF at a frame boundary
            Err(e) => {
                // The stream offset can no longer be trusted; report the
                // framing error (best effort) and close the connection.
                if e.kind() == io::ErrorKind::InvalidData {
                    let _ = tx.send(Pending::Ready(Response::Error(e.to_string())));
                    let _ = tx.send(Pending::Close);
                }
                break;
            }
        }
        match decode_request(&payload) {
            Ok(req) => {
                if !handle_request(shared, req, &tx) {
                    break;
                }
            }
            // Frame boundaries are intact, so a malformed payload is
            // recoverable: report it and keep reading.
            Err(msg) => {
                let _ = tx.send(Pending::Ready(Response::Error(msg)));
            }
        }
    }
}

fn line_reader_loop<R: BufRead>(shared: &Shared, mut reader: R, tx: Sender<Pending>) {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Ok(req) => {
                if !handle_request(shared, req, &tx) {
                    break;
                }
            }
            Err(msg) => {
                let _ = tx.send(Pending::Ready(Response::Error(msg)));
            }
        }
    }
}
