//! A bare TCP echo of same-size frames: the transport floor under the
//! wire workloads. No repo code runs here — one std thread reads a
//! request frame and writes a reply frame of the sizes the workload's
//! real frames had, so the round trip is what loopback TCP, two
//! wake-ups and the copies cost on this host.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Round-trip times in microseconds of `rounds` echoes with
/// `request_bytes` out and `reply_bytes` back.
pub fn round_trips(
    request_bytes: usize,
    reply_bytes: usize,
    rounds: usize,
) -> io::Result<Vec<f64>> {
    let request_bytes = request_bytes.max(1);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = std::thread::spawn(move || -> io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut inbound = vec![0u8; request_bytes];
        let outbound = vec![0xA5u8; reply_bytes];
        for _ in 0..rounds {
            stream.read_exact(&mut inbound)?;
            stream.write_all(&outbound)?;
            stream.flush()?;
        }
        Ok(())
    });
    let client = || -> io::Result<Vec<f64>> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let outbound = vec![0x5Au8; request_bytes];
        let mut inbound = vec![0u8; reply_bytes];
        let mut rtts = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let start = Instant::now();
            stream.write_all(&outbound)?;
            stream.flush()?;
            stream.read_exact(&mut inbound)?;
            rtts.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        Ok(rtts)
    };
    let rtts = client();
    let served = server
        .join()
        .unwrap_or_else(|_| Err(io::Error::other("echo thread panicked")));
    let rtts = rtts?;
    served?;
    Ok(rtts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echoes_every_round_with_both_frame_sizes() {
        let rtts = round_trips(16, 40_000, 25).unwrap();
        assert_eq!(rtts.len(), 25);
        assert!(rtts.iter().all(|&us| us > 0.0));
    }
}
