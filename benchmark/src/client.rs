//! A line-protocol client: one statement out, one framed reply in.
//!
//! The server frames every reply as `ERR <message>` or `OK <n> <info>`
//! followed by exactly `n` body lines, with newlines inside a line
//! escaped, so the framer needs no lookahead: it reads the head, then
//! counts lines.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// The first line of a reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Head {
    /// `OK` (true) or `ERR` (false).
    pub ok: bool,
    /// Body lines that follow (0 for `ERR`).
    pub lines: usize,
    /// The info text after the count, or the error message.
    pub info: String,
}

fn bad_frame(line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed reply head: {line:?}"),
    )
}

/// Parses a reply's head line (without its trailing newline).
pub fn parse_head(line: &str) -> io::Result<Head> {
    if let Some(msg) = line.strip_prefix("ERR") {
        return Ok(Head {
            ok: false,
            lines: 0,
            info: msg.trim_start().to_owned(),
        });
    }
    let rest = line.strip_prefix("OK ").ok_or_else(|| bad_frame(line))?;
    let (n, info) = rest.split_once(' ').unwrap_or((rest, ""));
    let lines = n.parse().map_err(|_| bad_frame(line))?;
    Ok(Head {
        ok: true,
        lines,
        info: info.to_owned(),
    })
}

/// Reads one framed reply from `r`, handing each body line (still
/// escaped, newline stripped) to `on_line`. Returns the head and the
/// number of bytes the reply occupied on the wire.
pub fn read_reply<R: BufRead>(
    r: &mut R,
    buf: &mut String,
    mut on_line: impl FnMut(&str),
) -> io::Result<(Head, usize)> {
    let mut next_line = |buf: &mut String| -> io::Result<usize> {
        buf.clear();
        let n = r.read_line(buf)?;
        if n == 0 || !buf.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a reply",
            ));
        }
        buf.pop();
        Ok(n)
    };
    let mut bytes = next_line(buf)?;
    let head = parse_head(buf)?;
    for _ in 0..head.lines {
        bytes += next_line(buf)?;
        on_line(buf);
    }
    Ok((head, bytes))
}

/// One TCP connection to the server under test.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    buf: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            buf: String::new(),
        })
    }

    /// Sends `stmt` and reads its reply; see [`read_reply`].
    pub fn request(&mut self, stmt: &str, on_line: impl FnMut(&str)) -> io::Result<(Head, usize)> {
        self.out.clear();
        self.out.extend_from_slice(stmt.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        read_reply(&mut self.reader, &mut self.buf, on_line)
    }
}
