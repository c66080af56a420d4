//! A minimal binary-protocol client, shared by the load generator, the
//! smoke gate, and the integration tests.
//!
//! Besides lockstep request/response calls it supports *pipelining*:
//! [`Client::send_classify`] puts a request on the wire without waiting,
//! and [`Client::recv_classified`] collects replies in order. Keeping a
//! window of W requests in flight is what lets the server's collector see
//! more than one request per connection at a time — the difference the
//! `serve_batch` bench measures.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    decode_response, encode_classify, encode_request, read_frame, Request, Response, BINARY_MAGIC,
};

/// A connected binary-mode client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    frame: Vec<u8>,
    payload: Vec<u8>,
}

fn bad_reply(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn server_err(msg: String) -> io::Error {
    io::Error::other(format!("server error: {msg}"))
}

impl Client {
    /// Connects and announces the binary protocol.
    ///
    /// # Errors
    ///
    /// Returns connect/handshake IO failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.write_all(&BINARY_MAGIC)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            frame: Vec::new(),
            payload: Vec::new(),
        })
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        encode_request(req, &mut self.frame);
        self.writer.write_all(&self.frame)
    }

    fn recv(&mut self) -> io::Result<Response> {
        if !read_frame(&mut self.reader, &mut self.payload)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        decode_response(&self.payload).map_err(bad_reply)
    }

    /// One lockstep request/response exchange.
    ///
    /// # Errors
    ///
    /// Returns transport failures; a server-side [`Response::Error`] is
    /// returned as the response, not an `Err`.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    /// Classifies one feature vector, returning `(class, model epoch)`.
    ///
    /// # Errors
    ///
    /// Transport failures, plus server-side rejections mapped to
    /// [`io::ErrorKind::Other`].
    pub fn classify(&mut self, features: &[f32]) -> io::Result<(u32, u64)> {
        self.send_classify(features)?;
        self.recv_classified()
    }

    /// Puts a classify request on the wire without waiting for the reply —
    /// the pipelining half; pair with [`Client::recv_classified`].
    ///
    /// # Errors
    ///
    /// Returns write failures.
    pub fn send_classify(&mut self, features: &[f32]) -> io::Result<()> {
        encode_classify(features, &mut self.frame);
        self.writer.write_all(&self.frame)
    }

    /// Receives the next in-order classify reply.
    ///
    /// # Errors
    ///
    /// As [`Client::classify`].
    pub fn recv_classified(&mut self) -> io::Result<(u32, u64)> {
        match self.recv()? {
            Response::Classified { class, epoch } => Ok((class, epoch)),
            Response::Error(msg) => Err(server_err(msg)),
            other => Err(bad_reply(format!("expected a classification, got {other:?}"))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(bad_reply(format!("expected pong, got {other:?}"))),
        }
    }

    /// Drains the server's metrics as a JSON object string.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.call(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            Response::Error(msg) => Err(server_err(msg)),
            other => Err(bad_reply(format!("expected stats, got {other:?}"))),
        }
    }

    /// Model shape and epoch: `(dim, classes, features, epoch)`.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn info(&mut self) -> io::Result<(u64, u64, u64, u64)> {
        match self.call(&Request::Info)? {
            Response::Info {
                dim,
                classes,
                features,
                epoch,
            } => Ok((dim, classes, features, epoch)),
            Response::Error(msg) => Err(server_err(msg)),
            other => Err(bad_reply(format!("expected info, got {other:?}"))),
        }
    }

    /// Hot-swaps the served bundle; returns the new epoch.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side load rejection.
    pub fn swap(&mut self, path: &str) -> io::Result<u64> {
        match self.call(&Request::Swap(path.to_string()))? {
            Response::Swapped { epoch } => Ok(epoch),
            Response::Error(msg) => Err(server_err(msg)),
            other => Err(bad_reply(format!("expected swap ack, got {other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(bad_reply(format!("expected shutdown ack, got {other:?}"))),
        }
    }
}
