//! `mcp blast` — a load-generating client for `mcp serve`.
//!
//! ```text
//! mcp blast --connect unix:/tmp/mcp.sock --cores 4 --n 100000 --seed 7
//! ```
//!
//! Streams seeded `(core, page)` requests in length-prefixed frames
//! (round-robin over `--cores`), then an all-cores close frame unless
//! `--no-close` is given (use `--no-close` when several blasters feed one
//! server and a final one ends the stream).

use super::CliError;
use crate::args::{ArgError, Args};
use mcp_serve::{write_frame, Frame};
use std::io::{BufWriter, Write};

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The options `mcp blast` accepts besides `--jobs` and `--help`.
pub const OPTIONS: &str = "connect cores n universe seed batch no-close";

/// Run `mcp blast`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let endpoint = args.require("connect")?;
    let cores: u64 = args.parse_or("cores", 1u64)?.max(1);
    let n: u64 = args.parse_or("n", 10_000u64)?;
    let universe: u64 = args.parse_or("universe", 64u64)?.max(1);
    let seed: u64 = args.parse_or("seed", 1u64)?;
    let batch: usize = args.parse_or("batch", 512usize)?.max(1);

    let (scheme, addr) = endpoint.split_once(':').ok_or_else(|| {
        CliError::Args(ArgError::BadValue {
            key: "connect".into(),
            value: endpoint.into(),
            expected: "unix:PATH or tcp:HOST:PORT",
        })
    })?;
    let stream: Box<dyn Write> = match scheme {
        "unix" => Box::new(std::os::unix::net::UnixStream::connect(addr)?),
        "tcp" => Box::new(std::net::TcpStream::connect(addr)?),
        other => {
            return Err(CliError::Args(ArgError::BadValue {
                key: "connect".into(),
                value: other.into(),
                expected: "unix:PATH or tcp:HOST:PORT",
            }))
        }
    };
    let mut out = BufWriter::new(stream);

    let mut rng = seed;
    let mut pending: Vec<(u32, u32)> = Vec::with_capacity(batch);
    for i in 0..n {
        rng = splitmix64(rng);
        pending.push(((i % cores) as u32, (rng % universe) as u32));
        if pending.len() == batch {
            write_frame(&mut out, &Frame::Reqs(std::mem::take(&mut pending)))?;
        }
    }
    if !pending.is_empty() {
        write_frame(&mut out, &Frame::Reqs(pending))?;
    }
    if !args.flag("no-close") {
        write_frame(&mut out, &Frame::Close(Vec::new()))?;
    }
    out.flush()?;
    Ok(format!(
        "blasted {n} requests over {cores} core(s) to {endpoint}\n"
    ))
}
