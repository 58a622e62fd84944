//! Driving the real `rescomm-serve` binary: build, launch, closed-loop
//! clients over loopback TCP, and teardown on every exit path.

use crate::gen::RequestSource;
use rescomm_json::{parse, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Build `rescomm-serve` from the workspace in the working directory and
/// return the path of the executable.
pub fn build_server() -> Result<PathBuf, String> {
    let out = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "rescomm-core",
            "--bin",
            "rescomm-serve",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building rescomm-serve failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter_map(|l| parse(l).ok())
        .filter(|v| {
            v.get("target")
                .and_then(|t| t.get("name"))
                .and_then(JsonValue::as_str)
                == Some("rescomm-serve")
        })
        .find_map(|v| {
            v.get("executable")
                .and_then(JsonValue::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no rescomm-serve executable".to_string())
}

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}
const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: c_ulong = 9;

/// A running server child. Dropping it kills and reaps the process, so
/// no exit path — a panic included — leaves a server behind.
pub struct ServerChild {
    child: Child,
    /// Address the server reported in its `listening on` line.
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Launch `bin` with `args` and wait for its `listening on` line.
    /// Returns the child and the time from spawn to that line.
    pub fn launch(bin: &Path, args: &[String]) -> Result<(ServerChild, Duration), String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(bin);
        // SAFETY: the hook runs in the forked child before `exec` and only
        // makes the async-signal-safe prctl(2) call, which reads no memory
        // of the parent. It asks the kernel to kill the server when the
        // benchmark dies by a signal, the one exit path `Drop` cannot see.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = cmd
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Own the child before anything can fail, so it is always reaped.
        let mut server = ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's first line: {e}"))?;
        let elapsed = t0.elapsed();
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected first server line {line:?}"))?;
        Ok((server, elapsed))
    }

    /// Process id of the server.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to drain and exit; kill it if it has not exited
    /// within `grace`. Returns whether it exited on its own with status 0.
    pub fn shutdown(mut self, grace: Duration) -> bool {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.call("{\"op\": \"shutdown\"}");
        }
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        false // Drop kills and reaps.
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One line-oriented connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// How long a client waits for one reply before counting a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

impl Client {
    /// Connect with Nagle off (replies are single short lines).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request line and read the reply line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply)
    }

    /// One field of the `stats` op's result.
    pub fn stat(&mut self, key: &str) -> Option<u64> {
        let reply = self.call("{\"op\": \"stats\"}").ok()?;
        parse(reply.trim()).ok()?.get("result")?.get(key)?.as_u64()
    }
}

/// One completed (or failed) request of a closed-loop run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Request index in the workload stream.
    pub index: u64,
    /// Send-to-reply time, ns.
    pub rtt_ns: u64,
    /// Completion time, ns since the run's epoch.
    pub done_ns: u64,
    /// The reply line, or `None` on a transport failure or timeout.
    pub reply: Option<String>,
}

/// Drive `connections` closed-loop clients against `addr` until `stop`
/// is set: each client sends its next request (the next unclaimed index
/// of `source`'s stream) only after the previous reply arrived. Requests
/// in flight when `stop` is set are completed. Times are taken from
/// `epoch`.
pub fn closed_loop(
    addr: SocketAddr,
    source: &dyn RequestSource,
    connections: usize,
    epoch: Instant,
    stop: &AtomicBool,
) -> Vec<Sample> {
    let next = AtomicU64::new(0);
    let mut all: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    let mut client = Client::connect(addr).ok();
                    while !stop.load(Ordering::Relaxed) {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let line = source.request(index).line(index);
                        let t0 = Instant::now();
                        let reply = client.as_mut().and_then(|c| c.call(&line).ok());
                        let t1 = Instant::now();
                        if reply.is_none() {
                            // A dead connection is replaced; the failure counts.
                            client = Client::connect(addr).ok();
                        }
                        out.push(Sample {
                            index,
                            rtt_ns: (t1 - t0).as_nanos() as u64,
                            done_ns: (t1 - epoch).as_nanos() as u64,
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    all.sort_by_key(|s| s.index);
    all
}
