//! TCP transport: the server layer on a real socket.
//!
//! "The server layer in DB-GPT … manages external inputs, such as HTTP
//! requests" (§2.2). The in-process framing ([`crate::protocol`]) carries
//! over unchanged to a real byte stream: each connection is a sequence of
//! length-prefixed JSON frames, one response frame per request frame —
//! the same shape as HTTP/1.1 keep-alive without the header ceremony.
//!
//! One thread per connection (plenty for a demo system; SMMF below is the
//! concurrency-bearing layer).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::error::ServerError;
use crate::protocol::{decode_frame, encode_frame, Request, Response};
use crate::router::Server;

/// A running TCP front door over a [`Server`].
pub struct TcpServer {
    local_addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind and start accepting. Pass port 0 to let the OS choose.
    pub fn bind(addr: impl ToSocketAddrs, server: Arc<Server>) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let server = server.clone();
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, server);
                });
            }
        });
        Ok(TcpServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (use after binding port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stop accepting and join the accept thread (what dropping the
    /// server does). In-flight connections finish on their own threads.
    pub fn shutdown(self) {}
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock accept with a no-op connection, while the listener still
        // holds the port.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Largest frame body a peer may announce (a request is a chat turn, not
/// a file).
const MAX_FRAME: usize = 16 << 20;

/// Bytes reserved for a frame body before any of it arrives.
const FIRST_READ: usize = 64 << 10;

/// Read exactly one frame (4-byte length + body) from the stream.
/// `Ok(None)` on clean EOF at a frame boundary; a body cut short is an
/// `UnexpectedEof` error. The buffer grows as the body arrives, so a peer
/// that sends only a header holds at most [`FIRST_READ`] bytes.
fn read_frame<R: Read>(stream: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut frame = Vec::with_capacity(4 + len.min(FIRST_READ));
    frame.extend_from_slice(&len_buf);
    stream.take(len as u64).read_to_end(&mut frame)?;
    if frame.len() < 4 + len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "frame body cut short",
        ));
    }
    Ok(Some(frame))
}

fn handle_connection(mut stream: TcpStream, server: Arc<Server>) -> std::io::Result<()> {
    // One `server.conn` span per connection; each frame's `server.request`
    // span nests under it. A no-op span when the server has no
    // observability attached.
    let obs = server.obs();
    obs.counter("server.connections", 1);
    let span = obs.span("server.conn", obs.tick());
    let mut frames = 0u64;
    while let Some(frame) = read_frame(&mut stream)? {
        let response = server.handle_frame_under(&frame, &span);
        frames += 1;
        stream.write_all(&response)?;
        stream.flush()?;
    }
    span.attr("frames", frames);
    span.end(span.tick());
    Ok(())
}

/// Client helper: send one request over a (kept-alive) stream and read the
/// response frame.
pub fn send_request(stream: &mut TcpStream, request: &Request) -> Result<Response, ServerError> {
    let frame = encode_frame(request);
    stream
        .write_all(&frame)
        .map_err(|e| ServerError::BadFrame(e.to_string()))?;
    stream.flush().map_err(|e| ServerError::BadFrame(e.to_string()))?;
    let reply = read_frame(stream)
        .map_err(|e| ServerError::BadFrame(e.to_string()))?
        .ok_or_else(|| ServerError::BadFrame("connection closed before response".into()))?;
    let (resp, _) = decode_frame::<Response>(&reply)?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Status;
    use crate::router::AppHandler;
    use crate::session::Session;
    use serde_json::{json, Value};

    struct Echo;
    impl AppHandler for Echo {
        fn app_name(&self) -> &str {
            "echo"
        }
        fn handle(
            &self,
            input: &str,
            _p: &Value,
            _s: &Session,
            _span: &dbgpt_obs::Span,
        ) -> Result<(Value, Option<String>), ServerError> {
            Ok((json!({"echo": input}), None))
        }
    }

    fn spawn_server() -> TcpServer {
        let mut s = Server::new();
        s.register(Arc::new(Echo));
        TcpServer::bind("127.0.0.1:0", Arc::new(s)).expect("binds")
    }

    #[test]
    fn request_response_over_tcp() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let resp = send_request(&mut stream, &Request::new(1, "echo", "hello tcp")).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content["echo"], "hello tcp");
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_frames() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        for i in 0..5u64 {
            let resp = send_request(&mut stream, &Request::new(i, "echo", format!("m{i}"))).unwrap();
            assert_eq!(resp.id, i);
        }
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = spawn_server();
        let addr = server.local_addr();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            handles.push(std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for i in 0..10u64 {
                    let id = t * 100 + i;
                    let resp =
                        send_request(&mut stream, &Request::new(id, "echo", "x")).unwrap();
                    assert_eq!(resp.id, id);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn unknown_app_over_tcp_is_bad_request() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let resp = send_request(&mut stream, &Request::new(9, "ghost", "x")).unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        server.shutdown();
    }

    #[test]
    fn malformed_body_gets_error_frame() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // A length-prefixed frame whose body is not a Request.
        let body = b"{\"not\": \"a request\"}";
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(body);
        stream.write_all(&frame).unwrap();
        let reply = read_frame(&mut stream).unwrap().unwrap();
        let (resp, _) = decode_frame::<Response>(&reply).unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        server.shutdown();
    }

    /// A reader over fixed bytes that records the largest buffer it is
    /// handed.
    struct Recording {
        bytes: std::io::Cursor<Vec<u8>>,
        largest: usize,
    }

    impl Read for Recording {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_header_alone_reserves_no_full_frame() {
        // A header claiming the largest frame allowed, then EOF.
        let header = (MAX_FRAME as u32).to_be_bytes().to_vec();
        let mut peer = Recording {
            bytes: std::io::Cursor::new(header),
            largest: 0,
        };
        let err = read_frame(&mut peer).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(peer.largest < 1 << 20, "handed {} bytes", peer.largest);
        // A whole frame still reads back intact.
        let mut frame = 3u32.to_be_bytes().to_vec();
        frame.extend_from_slice(b"abc");
        let mut cursor = std::io::Cursor::new(frame.clone());
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn shutdown_stops_accepting() {
        let server = spawn_server();
        let addr = server.local_addr();
        server.shutdown();
        // Subsequent connections may connect (OS backlog) but get no
        // service; a fresh request must fail to complete.
        let result = TcpStream::connect(addr).and_then(|mut s| {
            s.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
            let frame = encode_frame(&Request::new(1, "echo", "x"));
            s.write_all(&frame)?;
            let mut buf = [0u8; 4];
            s.read_exact(&mut buf)
        });
        assert!(result.is_err());
    }

    #[test]
    fn a_port_rebound_after_shutdown_gets_no_connection() {
        let server = spawn_server();
        let addr = server.local_addr();
        // Take the port back the moment the server's listener lets go of
        // it, so a connection sent there after that reaches this listener.
        let rebind = std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            loop {
                match TcpListener::bind(addr) {
                    Ok(listener) => return Ok(listener),
                    Err(_) if std::time::Instant::now() < deadline => std::thread::yield_now(),
                    Err(e) => return Err(e),
                }
            }
        });
        server.shutdown();
        let listener = rebind.join().unwrap().expect("the released port binds again");
        listener.set_nonblocking(true).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let err = listener.accept().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }
}
