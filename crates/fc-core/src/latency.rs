//! The latency model observed in the paper's deployment (§5.5).
//!
//! "On average, the middleware took 19.5 ms to send tiles for a cache
//! hit, and 984.0 ms for a cache miss." Average response time is then a
//! linear function of hit rate — the Fig. 12 law.

use std::time::Duration;

/// Hit/miss response-time profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyProfile {
    /// Response time when the tile is in the middleware cache.
    pub hit: Duration,
    /// Response time when the tile must be fetched from the DBMS.
    pub miss: Duration,
}

impl LatencyProfile {
    /// The paper's measured constants: 19.5 ms hit, 984 ms miss.
    pub fn paper() -> Self {
        Self {
            hit: Duration::from_micros(19_500),
            miss: Duration::from_millis(984),
        }
    }

    /// Expected average response time at a given prefetch accuracy
    /// (= cache hit rate).
    pub fn expected_response(&self, accuracy: f64) -> Duration {
        let a = accuracy.clamp(0.0, 1.0);
        Duration::from_secs_f64(self.hit.as_secs_f64() * a + self.miss.as_secs_f64() * (1.0 - a))
    }
}

impl Default for LatencyProfile {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let p = LatencyProfile::paper();
        assert_eq!(p.hit, Duration::from_micros(19_500));
        assert_eq!(p.miss, Duration::from_millis(984));
    }

    #[test]
    fn expected_response_interpolates() {
        let p = LatencyProfile::paper();
        assert_eq!(p.expected_response(1.0), p.hit);
        assert_eq!(p.expected_response(0.0), p.miss);
        let mid = p.expected_response(0.5);
        assert!(mid > p.hit && mid < p.miss);
        // ~82% accuracy → ≈193 ms, near the paper's 185 ms at k=5.
        let at82 = p.expected_response(0.82).as_secs_f64() * 1e3;
        assert!((at82 - 193.1).abs() < 1.0, "{at82}");
    }

    #[test]
    fn clamps_out_of_range_accuracy() {
        let p = LatencyProfile::paper();
        assert_eq!(p.expected_response(2.0), p.hit);
        assert_eq!(p.expected_response(-1.0), p.miss);
    }
}
