//! Name-keyed partitioner registry.
//!
//! The paper's directive `SET distfmt BY PARTITIONING G USING RSB` selects a
//! partitioner from "a library of commonly available partitioners" by name.
//! This module is that library's lookup table; `chaos-lang` resolves the
//! `USING <name>` clause through it, and users can still pass their own
//! [`Partitioner`] implementation directly to the runtime coupler (the
//! "customized partitioner with a matching calling sequence" case).

use crate::block::{BlockPartitioner, CyclicPartitioner};
use crate::partition::Partitioner;
use crate::rcb::RcbPartitioner;
use crate::rsb::RsbPartitioner;

/// Look up a library partitioner by its directive name (case-insensitive).
///
/// Recognized names: `BLOCK`, `CYCLIC`, `RCB` (aliases `COORDINATE`,
/// `BINARY-COORDINATE`) and `RSB` (alias `SPECTRAL`).
pub fn partitioner_by_name(name: &str) -> Option<Box<dyn Partitioner + Send + Sync>> {
    match name.to_ascii_uppercase().as_str() {
        "BLOCK" => Some(Box::new(BlockPartitioner)),
        "CYCLIC" => Some(Box::new(CyclicPartitioner)),
        "RCB" | "COORDINATE" | "BINARY-COORDINATE" | "BINARY_COORDINATE" => {
            Some(Box::new(RcbPartitioner))
        }
        "RSB" | "SPECTRAL" => Some(Box::new(RsbPartitioner::default())),
        _ => None,
    }
}

/// The canonical names accepted by [`partitioner_by_name`].
pub fn registered_partitioner_names() -> &'static [&'static str] {
    &["BLOCK", "CYCLIC", "RCB", "RSB"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geocol::GeoColBuilder;

    #[test]
    fn every_registered_name_resolves() {
        for name in registered_partitioner_names() {
            let p = partitioner_by_name(name).unwrap_or_else(|| panic!("{name} not found"));
            assert_eq!(&p.name(), name);
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_supports_aliases() {
        assert_eq!(partitioner_by_name("rsb").unwrap().name(), "RSB");
        assert_eq!(partitioner_by_name("Spectral").unwrap().name(), "RSB");
        assert_eq!(partitioner_by_name("coordinate").unwrap().name(), "RCB");
        assert!(partitioner_by_name("METIS").is_none());
        assert!(partitioner_by_name("RCB-KL").is_none());
        assert!(partitioner_by_name("inertial").is_none());
        assert!(partitioner_by_name("random").is_none());
    }

    #[test]
    fn resolved_partitioners_are_usable() {
        let g = GeoColBuilder::new(8)
            .geometry(vec![(0..8).map(|i| i as f64).collect()])
            .link((0..7u32).collect::<Vec<_>>(), (1..8u32).collect::<Vec<_>>())
            .build()
            .unwrap();
        for name in registered_partitioner_names() {
            let p = partitioner_by_name(name).unwrap();
            let part = p.partition(&g, 2);
            assert_eq!(part.len(), 8, "{name}");
        }
    }
}
