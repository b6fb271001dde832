//! The benchmark's own HTTP/1.1 client and load generator.
//!
//! The client keeps one socket per connection, sends each request with
//! a single write and leaves every socket option at its default, so a
//! change to the server cannot change the instrument. A response that
//! carries `Connection: close` (the server sends one on every 128th
//! reply of a connection) is honoured by reconnecting before the next
//! request; that is not a failure, while a transport error or a status
//! other than 200 is.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Response {
    pub status: u16,
    pub body: String,
}

pub struct Client {
    addr: String,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    pub reconnects: u64,
}

impl Client {
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            conn: None,
            reconnects: 0,
        }
    }

    /// Sends one request and reads its `Content-Length` framed reply.
    /// A transport error drops the socket and is returned.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let out = self.exchange(method, path, body);
        if out.is_err() {
            self.conn = None;
        }
        out
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
        }
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed inside the response head",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let lower = header.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap_or(0);
            } else if let Some(v) = lower.strip_prefix("connection:") {
                close = v.contains("close");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        if close {
            self.conn = None;
            self.reconnects += 1;
        }
        Ok(Response {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

/// One request of a schedule.
pub struct Job {
    pub method: &'static str,
    pub path: &'static str,
    pub body: String,
    /// When the request is due, from the start of an open-loop phase
    /// (ignored by the closed loop).
    pub due: Duration,
}

/// What happened to one request.
pub struct Sample {
    /// Index of the job in its schedule.
    pub job: usize,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// HTTP status, 0 for a transport error.
    pub status: u16,
    pub body: String,
}

impl Sample {
    /// Latency from when the request was due, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// The outcome of one load phase.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    pub reconnects: u64,
}

/// Drives `jobs` over `conns` keep-alive connections, one thread each.
///
/// Closed loop (`open == false`): each connection sends its next job as
/// soon as the previous reply arrives, until the jobs or `budget` run
/// out. Open loop: each job is sent at its `due` offset by whichever
/// connection is free, and its latency is timed from when it was due,
/// so a stall also delays the requests queued behind it.
pub fn run(addr: &str, conns: usize, jobs: &[Job], open: bool, budget: Duration) -> Phase {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(jobs.len()));
    let reconnects = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + budget;
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut client = Client::new(addr);
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(job) = jobs.get(i) else { break };
                    let due = if open {
                        start + job.due
                    } else {
                        Instant::now()
                    };
                    if due >= deadline || Instant::now() >= deadline {
                        break;
                    }
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let (status, body) = match client.request(job.method, job.path, &job.body) {
                        Ok(r) => (r.status, r.body),
                        Err(e) => (0, e.to_string()),
                    };
                    mine.push(Sample {
                        job: i,
                        due,
                        sent,
                        done: Instant::now(),
                        status,
                        body,
                    });
                }
                reconnects.fetch_add(client.reconnects as usize, Ordering::SeqCst);
                samples.lock().expect("sample list poisoned").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed();
    let mut samples = samples.into_inner().expect("sample list poisoned");
    samples.sort_by_key(|s| s.job);
    Phase {
        samples,
        elapsed,
        reconnects: reconnects.into_inner() as u64,
    }
}
