//! The TCP daemon: accept loop, per-connection reader/writer threads, and
//! shutdown orchestration around the shared micro-batch collector.
//!
//! Threading model — one collector, two threads per connection:
//!
//! ```text
//! accept thread ──spawns──▶ connection thread (reader)
//!                             │  classify ──▶ ring buffer ──▶ collector ──▶ pool
//!                             │  admin ops answered inline
//!                             ▼ per-request [`Pending`] entries, in order
//!                           writer thread (resolves + frames + coalesced flush)
//! ```
//!
//! The reader never waits for a classification: it enqueues the request and
//! a placeholder in the connection's response queue, then reads the next
//! frame. The writer resolves placeholders *in request order*, so pipelined
//! clients get responses in the order they asked — that ordering plus the
//! epoch stamp is what the determinism suite checks.
//!
//! Shutdown never drops an accepted request: the ring is closed (pushes
//! start failing with a clean error), the collector drains what is already
//! queued, and only then are connection sockets shut down to unblock any
//! reader parked in `read_exact`.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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

/// Everything the accept loop, connections, and collector share. The model
/// state and ring are their own `Arc`s because the collector thread borrows
/// exactly those two, not the connection bookkeeping.
struct Shared {
    state: Arc<ModelState>,
    queue: Arc<RingBuffer<ClassifyRequest>>,
    rec: Recorder,
    shutting_down: AtomicBool,
    local_addr: SocketAddr,
    /// Clones of live connection sockets (keyed by connection id), so
    /// shutdown can unblock parked readers. Entries are removed when the
    /// connection ends — otherwise the clone would hold the socket open
    /// past the client's close.
    streams: Mutex<Vec<(u64, TcpStream)>>,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    active_conns: AtomicU64,
    next_conn_id: AtomicU64,
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
        for (_, stream) in self.streams.lock().unwrap().drain(..) {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A running daemon. Dropping it without [`Server::shutdown`] leaves the
/// threads running; call [`Server::join`] to block until it exits.
pub struct Server {
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    collector_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port — see
    /// [`Server::local_addr`]) and starts serving `bundle`.
    ///
    /// # Errors
    ///
    /// Returns the bind error, if any; everything after the bind is
    /// infallible thread spawning.
    pub fn start<A: ToSocketAddrs>(
        bundle: ModelBundle,
        addr: A,
        cfg: &ServeConfig,
        rec: Recorder,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Arc::new(ModelState::new(bundle)),
            queue: Arc::new(RingBuffer::new(cfg.queue_capacity)),
            rec,
            shutting_down: AtomicBool::new(false),
            local_addr,
            streams: Mutex::new(Vec::new()),
            conn_handles: Mutex::new(Vec::new()),
            active_conns: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(0),
        });

        let collector_handle = {
            let shared = Arc::clone(&shared);
            let engine = EpochEngine::new(cfg.threads);
            let max_batch = cfg.max_batch.max(1);
            let max_wait = cfg.max_wait;
            std::thread::Builder::new()
                .name("lehdc-serve-collector".into())
                .spawn(move || {
                    Collector {
                        queue: Arc::clone(&shared.queue),
                        state: Arc::clone(&shared.state),
                        engine,
                        max_batch,
                        max_wait,
                        rec: shared.rec.clone(),
                    }
                    .run();
                })
                .expect("spawning the collector thread")
        };

        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lehdc-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawning the accept thread")
        };

        Ok(Server {
            shared,
            accept_handle: Some(accept_handle),
            collector_handle: Some(collector_handle),
        })
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
    pub fn join(mut self) {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.collector_handle.take() {
            let _ = h.join();
        }
        loop {
            let handle = self.shared.conn_handles.lock().unwrap().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.streams.lock().unwrap().push((conn_id, clone));
        }
        shared.rec.add("serve/connections_total", 1);
        shared
            .rec
            .gauge("serve/connections_active", shared.active_conns.fetch_add(1, Ordering::SeqCst) as f64 + 1.0);
        let shared_conn = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("lehdc-serve-conn-{conn_id}"))
            .spawn(move || {
                handle_connection(&shared_conn, stream, conn_id);
                shared_conn.streams.lock().unwrap().retain(|(id, _)| *id != conn_id);
                let remaining = shared_conn.active_conns.fetch_sub(1, Ordering::SeqCst) - 1;
                shared_conn.rec.gauge("serve/connections_active", remaining as f64);
            })
            .expect("spawning a connection thread");
        shared.conn_handles.lock().unwrap().push(handle);
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

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, conn_id: u64) {
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
    let writer_handle = std::thread::Builder::new()
        .name(format!("lehdc-serve-write-{conn_id}"))
        .spawn(move || writer_loop(write_half, &rx, binary))
        .expect("spawning a connection writer thread");

    let requests = if binary {
        binary_reader_loop(shared, BufReader::new(read_half), &tx)
    } else {
        let reader = BufReader::new(preamble.as_slice().chain(read_half));
        line_reader_loop(shared, reader, &tx)
    };
    drop(tx); // writer drains, flushes, and exits
    let _ = writer_handle.join();
    if shared.rec.enabled() {
        shared.rec.add(&format!("serve/conn/{conn_id}/requests"), requests);
    }
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
fn handle_request(shared: &Arc<Shared>, req: Request, tx: &Sender<Pending>) -> bool {
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

fn binary_reader_loop<R: Read>(
    shared: &Arc<Shared>,
    mut reader: R,
    tx: &Sender<Pending>,
) -> u64 {
    let mut payload = Vec::new();
    let mut requests = 0u64;
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
        requests += 1;
        match decode_request(&payload) {
            Ok(req) => {
                if !handle_request(shared, req, tx) {
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
    requests
}

fn line_reader_loop<R: BufRead>(
    shared: &Arc<Shared>,
    mut reader: R,
    tx: &Sender<Pending>,
) -> u64 {
    let mut line = String::new();
    let mut requests = 0u64;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        requests += 1;
        match parse_line(&line) {
            Ok(req) => {
                if !handle_request(shared, req, tx) {
                    break;
                }
            }
            Err(msg) => {
                let _ = tx.send(Pending::Ready(Response::Error(msg)));
            }
        }
    }
    requests
}
