//! Accelerator-class workload profiles.
//!
//! The paper's summary argues cryogenic operation "might be better-suited
//! to more specialized computing systems and settings where memory
//! traffic is well-understood, relatively lower overall traffic, and
//! perhaps when ambient operating temperatures are advantageously cool
//! (e.g., embedded operation in outer space)". This module supplies the
//! traffic profiles to run that follow-on study: accelerator memories
//! with well-characterized, mostly modest LLC/scratchpad traffic.

use std::sync::OnceLock;

use crate::profile::{Benchmark, Suite};
use crate::suite::bench;

/// The accelerator study set: four specialized-traffic scenarios, from
/// an ultra-quiet space-borne sensor pipeline to a streaming graph
/// engine.
#[must_use]
pub fn accelerator_profiles() -> &'static [Benchmark] {
    static PROFILES: OnceLock<Vec<Benchmark>> = OnceLock::new();
    PROFILES.get_or_init(build_profiles)
}

fn build_profiles() -> Vec<Benchmark> {
    use Suite::Accelerator;
    vec![
        // A duty-cycled sensor-fusion pipeline on a satellite: tiny,
        // perfectly periodic traffic.
        bench("sensor-fusion-space", Accelerator, 2.0e3, 5.0e2),
        // Edge DNN inference with weights resident in the cache: bursts
        // of reads at a low duty cycle.
        bench("dnn-inference-edge", Accelerator, 4.0e4, 4.0e3),
        // Always-on video analytics: steady moderate streaming.
        bench("video-analytics", Accelerator, 2.0e6, 6.0e5),
        // A graph-analytics engine: irregular, high-rate pointer chasing.
        bench("graph-engine", Accelerator, 6.0e7, 1.5e7),
    ]
}

/// Looks an accelerator profile up by name.
#[must_use]
pub fn accelerator_profile(name: &str) -> Option<&'static Benchmark> {
    accelerator_profiles().iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TrafficBand;

    #[test]
    fn four_profiles_spanning_the_bands() {
        let set = accelerator_profiles();
        assert_eq!(set.len(), 4);
        assert_eq!(set[0].traffic_band(), TrafficBand::Low);
        assert_eq!(set.last().unwrap().traffic_band(), TrafficBand::High);
        for b in set {
            assert_eq!(b.suite, Suite::Accelerator);
        }
    }

    #[test]
    fn space_profile_is_quietest() {
        let set = accelerator_profiles();
        let space = accelerator_profile("sensor-fusion-space").unwrap();
        for b in set {
            assert!(b.traffic.reads_per_sec >= space.traffic.reads_per_sec);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(accelerator_profile("dnn-inference-edge").is_some());
        assert!(accelerator_profile("bitcoin-miner").is_none());
    }
}
