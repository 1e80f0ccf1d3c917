//! Memory-access records consumed by the simulator.

use core::fmt;

/// The kind of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (routed through the L1I).
    InstructionFetch,
    /// Data load (routed through the L1D).
    DataRead,
    /// Data store (routed through the L1D, write-allocate).
    DataWrite,
}

impl AccessKind {
    /// Returns `true` for stores.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, Self::DataWrite)
    }
}

/// One memory access by one core.
///
/// This is a passive record type; all fields are public.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryAccess {
    /// Issuing core index.
    pub core: u8,
    /// Byte address.
    pub address: u64,
    /// Kind of access.
    pub kind: AccessKind,
}

impl MemoryAccess {
    /// An instruction fetch by `core` at `address`.
    #[must_use]
    pub fn fetch(core: u8, address: u64) -> Self {
        Self {
            core,
            address,
            kind: AccessKind::InstructionFetch,
        }
    }

    /// A data load by `core` at `address`.
    #[must_use]
    pub fn data_read(core: u8, address: u64) -> Self {
        Self {
            core,
            address,
            kind: AccessKind::DataRead,
        }
    }

    /// A data store by `core` at `address`.
    #[must_use]
    pub fn data_write(core: u8, address: u64) -> Self {
        Self {
            core,
            address,
            kind: AccessKind::DataWrite,
        }
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            AccessKind::InstructionFetch => "I",
            AccessKind::DataRead => "R",
            AccessKind::DataWrite => "W",
        };
        write!(f, "core{} {k} {:#x}", self.core, self.address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(
            MemoryAccess::fetch(1, 0x40).kind,
            AccessKind::InstructionFetch
        );
        assert_eq!(MemoryAccess::data_read(2, 0x80).kind, AccessKind::DataRead);
        assert_eq!(
            MemoryAccess::data_write(3, 0xc0).kind,
            AccessKind::DataWrite
        );
    }

    #[test]
    fn write_classification() {
        assert!(AccessKind::DataWrite.is_write());
        assert!(!AccessKind::DataRead.is_write());
        assert!(!AccessKind::InstructionFetch.is_write());
    }

    #[test]
    fn display() {
        assert_eq!(MemoryAccess::data_read(0, 256).to_string(), "core0 R 0x100");
    }
}
