//! Transport abstraction: one daemon, Unix *or* TCP sockets.
//!
//! Everything above this module speaks [`Stream`] (a `Read + Write`
//! enum over the two socket kinds) and [`Endpoint`] (the parsed address
//! form shared by the daemon and `schedctl`). Address syntax:
//!
//! * `unix:/path/to.sock` — Unix domain socket (also any bare string
//!   containing `/`, for CLI convenience);
//! * `tcp:host:port` — TCP socket.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

/// A parsed daemon address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix domain socket at this path.
    Unix(PathBuf),
    /// TCP `host:port`.
    Tcp(String),
}

impl Endpoint {
    /// Parse an address string (see the module docs for the syntax).
    ///
    /// # Errors
    ///
    /// A human-readable message for unparseable addresses.
    pub fn parse(addr: &str) -> Result<Endpoint, String> {
        if let Some(path) = addr.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".into());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if let Some(hostport) = addr.strip_prefix("tcp:") {
            if !hostport.contains(':') {
                return Err(format!("tcp address `{hostport}` is not host:port"));
            }
            return Ok(Endpoint::Tcp(hostport.to_string()));
        }
        if addr.contains('/') {
            return Ok(Endpoint::Unix(PathBuf::from(addr)));
        }
        Err(format!(
            "cannot parse `{addr}`: expected unix:<path>, tcp:<host:port>, or a filesystem path"
        ))
    }

    /// Connect a client stream to this endpoint. A TCP stream comes with
    /// `TCP_NODELAY` set, as [`Listener::accept`] sets it on the other end.
    ///
    /// # Errors
    ///
    /// The underlying connect error.
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            Endpoint::Tcp(addr) => Stream::tcp(TcpStream::connect(addr.as_str())?),
        }
    }

    /// Bind a listener on this endpoint. A stale Unix socket file — one
    /// that refuses a connection — is removed first; nothing else at the
    /// path is touched.
    ///
    /// # Errors
    ///
    /// `AddrInUse` when a live socket answers at the path, `AlreadyExists`
    /// when the path holds something that is not a socket, and otherwise
    /// the underlying probe, unlink or bind error.
    pub fn bind(&self) -> io::Result<Listener> {
        match self {
            Endpoint::Unix(path) => {
                reclaim_stale_socket(path)?;
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr.as_str())?)),
        }
    }
}

/// Unlink `path` if it is a socket nobody listens on, so a daemon can
/// bind there after one that died without cleaning up.
fn reclaim_stale_socket(path: &Path) -> io::Result<()> {
    let refuse = |kind, what| Err(io::Error::new(kind, format!("{}: {what}", path.display())));
    match std::fs::symlink_metadata(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
        Ok(meta) if !meta.file_type().is_socket() => {
            return refuse(io::ErrorKind::AlreadyExists, "exists and is not a socket");
        }
        Ok(_) => {}
    }
    match UnixStream::connect(path) {
        Ok(_) => refuse(io::ErrorKind::AddrInUse, "a daemon is listening there"),
        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => std::fs::remove_file(path),
        Err(e) => Err(e),
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A connected socket of either kind.
#[derive(Debug)]
pub enum Stream {
    /// Unix domain socket.
    Unix(UnixStream),
    /// TCP socket.
    Tcp(TcpStream),
}

impl Stream {
    /// Wrap a TCP stream with `TCP_NODELAY` set. Every frame is written
    /// whole by one `write_all`, so Nagle's algorithm could only hold
    /// back a frame's tail segment until the peer acknowledges its head.
    ///
    /// # Errors
    ///
    /// The `setsockopt` error.
    fn tcp(stream: TcpStream) -> io::Result<Stream> {
        stream.set_nodelay(true)?;
        Ok(Stream::Tcp(stream))
    }

    /// A second handle on the same socket (reader/writer split).
    ///
    /// # Errors
    ///
    /// The underlying `try_clone` error.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
        }
    }

    /// Shut down both directions; blocked reads on other handles of the
    /// same socket return EOF. Already-closed sockets are not an error.
    pub fn shutdown_both(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound listener of either kind.
pub enum Listener {
    /// Unix domain listener.
    Unix(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Block for the next connection. A TCP stream comes with
    /// `TCP_NODELAY` set: every frame is written whole, so Nagle's
    /// algorithm could only hold back its tail.
    ///
    /// # Errors
    ///
    /// The underlying accept error.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => Ok(Stream::Unix(l.accept()?.0)),
            Listener::Tcp(l) => Stream::tcp(l.accept()?.0),
        }
    }

    /// The endpoint this listener is actually bound to — for TCP with
    /// port 0, the kernel-assigned port.
    ///
    /// # Errors
    ///
    /// The underlying `local_addr` error.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from("<unnamed>"));
                Ok(Endpoint::Unix(path))
            }
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_syntax_parses_both_kinds() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/s.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/s.sock")))
        );
        assert_eq!(
            Endpoint::parse("/tmp/s.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/s.sock")))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7077"),
            Ok(Endpoint::Tcp("127.0.0.1:7077".into()))
        );
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:nohost").is_err());
        assert!(Endpoint::parse("just-a-name").is_err());
    }

    #[test]
    fn tcp_streams_carry_bytes() {
        let listener = Endpoint::parse("tcp:127.0.0.1:0").unwrap().bind().unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = endpoint.connect().unwrap();
            stream.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            stream.read_exact(&mut buf).unwrap();
            buf
        });
        let mut served = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        served.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        served.write_all(b"pong").unwrap();
        assert_eq!(&client.join().unwrap(), b"pong");
    }

    #[test]
    fn both_ends_of_a_tcp_pair_disable_nagle() {
        let listener = Endpoint::parse("tcp:127.0.0.1:0").unwrap().bind().unwrap();
        let client = listener.local_endpoint().unwrap().connect().unwrap();
        let served = listener.accept().unwrap();
        for stream in [&client, &served] {
            match stream {
                Stream::Tcp(s) => assert!(s.nodelay().unwrap()),
                Stream::Unix(_) => panic!("a TCP endpoint gave a Unix stream"),
            }
        }
    }

    #[test]
    fn unix_streams_carry_bytes_and_rebind() {
        let dir = std::env::temp_dir().join(format!("schedd-net-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        // Bind twice: the second bind must clear the stale socket file.
        drop(endpoint.bind().unwrap());
        let listener = endpoint.bind().unwrap();
        let conn = {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut stream = endpoint.connect().unwrap();
                stream.write_all(b"hi").unwrap();
            })
        };
        let mut served = listener.accept().unwrap();
        let mut buf = [0u8; 2];
        served.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        conn.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
