//! The serve path: an `otterd` child process with its default config,
//! driven over its Unix socket by closed-loop clients.

use crate::gen::{Requests, Script};
use crate::library::{matches, Reference, Tally};
use crate::trace::Tracer;
use otter_metrics::Json;
use otter_serve::{JobOptions, Request, ServeClient};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to accept its first connection or to
/// exit after a shutdown request.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(20);

/// A running daemon. Dropping it kills and reaps the process if
/// [`Daemon::stop`] did not already.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Start this executable in daemon mode on a socket under `dir`.
    /// Only deployment paths are set: workers and cache capacity keep
    /// otterd's defaults.
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = short_path(&dir.join(format!("otterd-{}.sock", std::process::id())));
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("--daemon")
            .arg("--socket")
            .arg(&socket)
            .arg("--postmortem-dir")
            .arg(dir.join("postmortem"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn otterd: {e}"))?;
        Ok(Daemon {
            child: Some(child),
            socket,
        })
    }

    /// Connect a session, retrying until the daemon has bound.
    pub fn connect(&mut self) -> Result<ServeClient, String> {
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            match ServeClient::connect(&self.socket) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    let child = self.child.as_mut().expect("daemon running");
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(format!("otterd exited before binding: {status}"));
                    }
                    if Instant::now() >= deadline {
                        return Err(format!("connect {}: {e}", self.socket.display()));
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        }
    }

    /// The daemon's peak resident set (VmHWM), in bytes.
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        crate::peak_rss_bytes(&format!("/proc/{pid}/status"))
    }

    /// Ask the daemon to shut down and wait for it to exit.
    pub fn stop(mut self, client: &mut ServeClient) -> Result<(), String> {
        client.shutdown()?;
        let mut child = self.child.take().expect("daemon running");
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("otterd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("otterd did not exit after shutdown".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Unix socket paths are limited to ~100 bytes: use the path relative
/// to the working directory when it lies below it.
fn short_path(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// One `run` request as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub round_trip_s: f64,
    pub cache_hit: bool,
    /// Daemon-reported compile seconds (near zero on a hit).
    pub compile_s: f64,
    /// Daemon-reported run seconds.
    pub run_s: f64,
}

impl Reply {
    /// Round trip not spent compiling or running: socket, JSON, and
    /// the wait for the daemon's job gate.
    pub fn overhead_s(&self) -> f64 {
        self.round_trip_s - self.compile_s - self.run_s
    }
}

/// Send `script` as a `run` job and check its `scalars` against the
/// interpreter. An error reply counts as a failure and leaves the
/// session usable; a transport error ends it and is returned.
pub fn request(
    client: &mut ServeClient,
    script: &Script,
    reference: &Reference,
    tracer: &Tracer,
    tally: &Tally,
) -> Result<Reply, String> {
    let op = tracer.op();
    let job = Request::Run {
        source: script.source.clone(),
        options: JobOptions::default(),
        machine: script.machine.to_string(),
        ranks: script.ranks,
        workers: None,
    };
    let t0 = Instant::now();
    let body = tracer.span("serve.request", op, None, |_| client.request_raw(&job))?;
    let round_trip_s = t0.elapsed().as_secs_f64();
    let ok = tracer.span("oracle", op, None, |_| {
        let scalars = body.get("scalars");
        body.get("ok").and_then(Json::as_bool) == Some(true)
            && matches(reference, |v| {
                scalars.and_then(|s| s.get(v)).and_then(Json::as_num)
            })
    });
    tally.record(ok);
    let num = |k: &str| body.get(k).and_then(Json::as_num).unwrap_or(0.0);
    Ok(Reply {
        round_trip_s,
        cache_hit: body.get("cache_hit").and_then(Json::as_bool) == Some(true),
        compile_s: num("compile_seconds"),
        run_s: num("run_seconds"),
    })
}

/// Closed loop: each client sends the next request of its seeded
/// order when the previous reply arrives, until `deadline`.
pub fn closed_loop(
    clients: &mut [ServeClient],
    orders: &mut [Requests],
    pool: &[Script],
    reference: &[Reference],
    deadline: Instant,
    tracer: &Tracer,
    tally: &Tally,
) -> Result<Vec<Reply>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(orders.iter_mut())
            .map(|(client, order)| {
                scope.spawn(move || {
                    let mut replies: Vec<Reply> = Vec::new();
                    while Instant::now() < deadline {
                        let slot = order.next().expect("request orders are endless");
                        replies.push(request(
                            client,
                            &pool[slot],
                            &reference[slot],
                            tracer,
                            tally,
                        )?);
                    }
                    Ok::<_, String>(replies)
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread panicked")?);
        }
        Ok(all)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use crate::library::references;

    #[test]
    fn wrong_results_and_error_replies_count_as_failures() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("out dir");
        let cfg = otter_serve::ServeConfig {
            socket: short_path(&dir.join(format!("test-{}.sock", std::process::id()))),
            ..otter_serve::ServeConfig::default()
        };
        let server = otter_serve::Server::bind(cfg.clone()).expect("bind");
        let serving = std::thread::spawn(move || server.run());
        let mut client = ServeClient::connect(&cfg.socket).expect("connect");

        let pool = Workload::ServeMix.scripts(5);
        let script = &pool[0];
        let mut reference = references(std::slice::from_ref(script)).expect("reference");
        let (quiet, tally) = (Tracer::new(false), Tally::default());
        request(&mut client, script, &reference[0], &quiet, &tally).expect("reply");
        assert_eq!((tally.attempted(), tally.failed()), (1, 0));

        reference[0][0].1 += 1.0; // inject a wrong expected value
        request(&mut client, script, &reference[0], &quiet, &tally).expect("reply");
        assert_eq!(tally.failed(), 1);

        let broken = Script {
            source: "x = ;\n".into(),
            ..script.clone()
        };
        let reply = request(&mut client, &broken, &reference[0], &quiet, &tally);
        assert!(reply.is_ok(), "an error reply keeps the session usable");
        assert_eq!((tally.attempted(), tally.failed()), (3, 2));
        assert!(tally.error_rate() > 0.0);

        client.shutdown().expect("shutdown");
        serving.join().expect("server thread").expect("accept loop");
    }
}
