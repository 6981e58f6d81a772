//! Processor topology description.
//!
//! # Id visibility
//!
//! [`ProcId`]s are deliberately only minted by this module: callers obtain
//! them from [`Topology::add_processor`], [`Topology::proc_by_name`], or the
//! iterator [`Topology::iter`]. The inner index
//! stays `pub(crate)` so an id can never be fabricated for a topology it
//! does not belong to; external crates (e.g. `edgelink`, which builds
//! per-client device topologies) enumerate processors through the public
//! iterator instead of constructing raw indices.

use crate::server::ServicePolicy;

/// Index of a processor within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub(crate) usize);

impl ProcId {
    /// The raw index of the processor in its topology.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Static description of one processor.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorSpec {
    /// Human-readable name, e.g. `"cpu"`, `"gpu"`, `"npu"`.
    pub name: String,
    /// How the processor serves queued work.
    pub policy: ServicePolicy,
}

/// The set of processors on a simulated SoC.
///
/// # Example
///
/// ```
/// use soc::{ServicePolicy, Topology};
///
/// let mut topo = Topology::new();
/// let cpu = topo.add_processor("cpu", ServicePolicy::Fifo { slots: 4 });
/// let gpu = topo.add_processor("gpu", ServicePolicy::ProcessorSharing);
/// assert_eq!(topo.len(), 2);
/// assert_eq!(topo.spec(cpu).name, "cpu");
/// assert_eq!(topo.spec(gpu).name, "gpu");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Topology {
    processors: Vec<ProcessorSpec>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology {
            processors: Vec::new(),
        }
    }

    /// Adds a processor and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a processor with the same name already exists, or if a
    /// FIFO policy has zero slots.
    pub fn add_processor(&mut self, name: impl Into<String>, policy: ServicePolicy) -> ProcId {
        let name = name.into();
        assert!(
            self.proc_by_name(&name).is_none(),
            "duplicate processor name: {name}"
        );
        if let ServicePolicy::Fifo { slots } = policy {
            assert!(slots > 0, "FIFO processor needs at least one slot");
        }
        self.processors.push(ProcessorSpec { name, policy });
        ProcId(self.processors.len() - 1)
    }

    /// Looks a processor up by name.
    pub(crate) fn proc_by_name(&self, name: &str) -> Option<ProcId> {
        self.processors
            .iter()
            .position(|p| p.name == name)
            .map(ProcId)
    }

    /// The static spec of a processor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of this topology.
    pub fn spec(&self, id: ProcId) -> &ProcessorSpec {
        &self.processors[id.0]
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.processors.len()
    }

    /// True if the topology has no processors.
    pub fn is_empty(&self) -> bool {
        self.processors.is_empty()
    }

    /// Iterates over `(id, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, &ProcessorSpec)> {
        self.processors
            .iter()
            .enumerate()
            .map(|(i, s)| (ProcId(i), s))
    }

    /// Checks that `id` belongs to this topology.
    pub fn contains(&self, id: ProcId) -> bool {
        id.0 < self.processors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut t = Topology::new();
        let a = t.add_processor("cpu", ServicePolicy::Fifo { slots: 2 });
        let b = t.add_processor("gpu", ServicePolicy::ProcessorSharing);
        assert_eq!(t.proc_by_name("cpu"), Some(a));
        assert_eq!(t.proc_by_name("gpu"), Some(b));
        assert_eq!(t.proc_by_name("npu"), None);
        assert!(t.contains(a));
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.iter().map(|(id, _)| id).collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "duplicate processor name")]
    fn duplicate_name_panics() {
        let mut t = Topology::new();
        t.add_processor("cpu", ServicePolicy::Fifo { slots: 2 });
        t.add_processor("cpu", ServicePolicy::Fifo { slots: 2 });
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let mut t = Topology::new();
        t.add_processor("cpu", ServicePolicy::Fifo { slots: 0 });
    }

    #[test]
    fn display_and_index() {
        let mut t = Topology::new();
        let a = t.add_processor("cpu", ServicePolicy::Fifo { slots: 1 });
        assert_eq!(a.index(), 0);
        assert_eq!(format!("{a}"), "proc#0");
    }
}
