//! The TCP front end for [`ServeCore`](super::ServeCore): one
//! listener, one thread per connection, one JSON object per line in
//! each direction.
//!
//! The daemon owns nothing the engine does not already guarantee — it
//! only translates lines into [`submit`](super::ServeCore::submit)
//! calls and tickets back into lines. A `drain` op (or
//! [`DaemonHandle::shutdown`]) stops the listener, drains the engine
//! (every accepted request is still answered), and joins every
//! connection thread before returning the final counters.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use super::{
    parse_client_line, ClientOp, ServeConfig, ServeCore, ServeResponse, ServeStats, ServeStatus,
    Submission,
};
use paraconv_registry::ArtifactError;

/// A running daemon: the bound address plus the handles needed to
/// drain it.
#[derive(Debug)]
pub struct DaemonHandle {
    core: Arc<ServeCore>,
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), starts the
/// engine's workers, and serves until [`DaemonHandle::shutdown`] or a
/// client sends `drain`.
///
/// # Errors
///
/// [`ArtifactError`] if the registry cannot be opened, or an
/// IO-flavoured error if the socket cannot be bound.
pub fn serve(addr: &str, config: ServeConfig) -> Result<DaemonHandle, ArtifactError> {
    let listener = TcpListener::bind(addr).map_err(|e| {
        ArtifactError::Io(std::io::Error::new(e.kind(), format!("bind `{addr}`: {e}")))
    })?;
    let local = listener.local_addr().map_err(ArtifactError::Io)?;
    let core = Arc::new(ServeCore::new(config)?);
    core.start();

    let stopping = Arc::new(AtomicBool::new(false));
    let connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
        Arc::new(Mutex::new(Vec::new()));

    let accept_core = Arc::clone(&core);
    let accept_stop = Arc::clone(&stopping);
    let accept_conns = Arc::clone(&connections);
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let core = Arc::clone(&accept_core);
            let stop = Arc::clone(&accept_stop);
            let handle = std::thread::spawn(move || {
                serve_connection(&core, stream, &stop);
                paraconv_obs::flush_thread();
            });
            lock(&accept_conns).push(handle);
        }
    });

    Ok(DaemonHandle {
        core,
        addr: local,
        stopping,
        accept_thread: Mutex::new(Some(accept_thread)),
        connections,
    })
}

impl DaemonHandle {
    /// The bound address (useful with port `0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the socket (for stats and tests).
    #[must_use]
    pub fn core(&self) -> &ServeCore {
        &self.core
    }

    /// Blocks until a client's `drain` op (or a concurrent
    /// [`shutdown`](Self::shutdown)) flips the stopping flag. The CLI
    /// parks here so the daemon's lifetime is client-controlled.
    pub fn wait_for_drain(&self) {
        while !self.stopping.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    }

    /// Graceful shutdown: stop accepting connections, drain the
    /// engine (queued work still completes), join every thread, and
    /// return the final counters. Idempotent.
    pub fn shutdown(&self) -> ServeStats {
        self.stopping.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection; it
        // checks the flag before handing the stream to a worker.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = lock(&self.accept_thread).take() {
            let _ = thread.join();
        }
        let stats = self.core.drain();
        let conns = std::mem::take(&mut *lock(&self.connections));
        for conn in conns {
            let _ = conn.join();
        }
        stats
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Longest request line, in bytes, the daemon buffers. Requests are a
/// few hundred bytes; a longer line is answered `invalid` and its
/// connection closed, so no client can make the daemon buffer without
/// bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Drives one client connection line-by-line until EOF, a write
/// failure, an oversized line or a `drain` op.
fn serve_connection(core: &ServeCore, stream: TcpStream, stopping: &AtomicBool) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let Some(line) = buf.strip_suffix(b"\n").or_else(|| {
            // No newline: either the final line before EOF or a line
            // cut off at the limit.
            (buf.len() <= MAX_LINE_BYTES).then_some(&buf[..])
        }) else {
            let response = ServeResponse::with_detail(
                String::new(),
                ServeStatus::Invalid,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            );
            let _ = write_line(&mut writer, &response);
            break;
        };
        let Ok(line) = std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(line)) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        if stopping.load(Ordering::Acquire) {
            let id = super::extract_id(line);
            let response =
                ServeResponse::with_detail(id, ServeStatus::Draining, "daemon is draining");
            if write_line(&mut writer, &response).is_err() {
                break;
            }
            continue;
        }
        let (response, drain_after) = dispatch(core, line);
        if write_line(&mut writer, &response).is_err() {
            break;
        }
        if drain_after {
            stopping.store(true, Ordering::Release);
            break;
        }
    }
}

/// Turns one request line into one response; the bool asks the caller
/// to begin a daemon-wide drain after writing the response.
fn dispatch(core: &ServeCore, line: &str) -> (ServeResponse, bool) {
    match parse_client_line(line) {
        Err(e) => (
            ServeResponse::with_detail(super::extract_id(line), ServeStatus::Invalid, e.detail),
            false,
        ),
        Ok(ClientOp::Ping { id }) => (ServeResponse::status(id, ServeStatus::Pong), false),
        Ok(ClientOp::Stats { id }) => (
            ServeResponse::with_detail(id, ServeStatus::Report, core.stats().to_json()),
            false,
        ),
        Ok(ClientOp::Drain { id }) => (
            ServeResponse::with_detail(id, ServeStatus::Report, "draining"),
            true,
        ),
        Ok(ClientOp::Plan(request)) => match core.submit(request) {
            Submission::Accepted(ticket) => (ticket.wait(), false),
            Submission::Rejected(response) => (response, false),
        },
    }
}

fn write_line(
    writer: &mut std::io::BufWriter<TcpStream>,
    response: &ServeResponse,
) -> std::io::Result<()> {
    writer.write_all(response.to_json().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}
