//! Page protection and access classification.

use core::fmt;
use core::ops::{BitOr, BitOrAssign};

/// The kind of memory access being performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// An instruction fetch.
    IFetch,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::IFetch => "ifetch",
        };
        f.write_str(s)
    }
}

/// The privilege level of the executing context.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PrivilegeLevel {
    /// Ordinary application code.
    #[default]
    User,
    /// Kernel / supervisor code (may access supervisor-only pages).
    Supervisor,
}

/// Page protection bits held in CPU TLB entries and page tables.
///
/// The paper's design keeps protection solely in the *processor* TLB
/// (§2.1): all base pages under one superpage must share these bits. The
/// memory-controller TLB never checks protection.
///
/// ```
/// use mtlb_types::{AccessKind, PrivilegeLevel, Prot};
///
/// let p = Prot::READ | Prot::WRITE;
/// assert!(p.permits(AccessKind::Write, PrivilegeLevel::User));
///
/// let ro = Prot::READ;
/// assert!(!ro.permits(AccessKind::Write, PrivilegeLevel::User));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Prot(u8);

impl Prot {
    /// No access permitted.
    pub const NONE: Prot = Prot(0);
    /// Loads permitted.
    pub const READ: Prot = Prot(1 << 0);
    /// Stores permitted.
    pub const WRITE: Prot = Prot(1 << 1);
    /// Instruction fetch permitted.
    pub const EXEC: Prot = Prot(1 << 2);
    /// Page accessible only at supervisor privilege.
    pub const SUPERVISOR_ONLY: Prot = Prot(1 << 3);

    /// Read + write, the common data-page protection.
    pub const RW: Prot = Prot(Prot::READ.0 | Prot::WRITE.0);
    /// Read + execute, the common text-page protection.
    pub const RX: Prot = Prot(Prot::READ.0 | Prot::EXEC.0);

    /// Returns `true` when every bit of `other` is also set in `self`.
    #[must_use]
    pub const fn contains(self, other: Prot) -> bool {
        self.0 & other.0 == other.0
    }

    /// Checks whether an access of the given kind at the given privilege is
    /// allowed by these bits.
    #[must_use]
    pub const fn permits(self, kind: AccessKind, level: PrivilegeLevel) -> bool {
        if self.contains(Prot::SUPERVISOR_ONLY) && matches!(level, PrivilegeLevel::User) {
            return false;
        }
        match kind {
            AccessKind::Read => self.contains(Prot::READ),
            AccessKind::Write => self.contains(Prot::WRITE),
            AccessKind::IFetch => self.contains(Prot::EXEC),
        }
    }

    /// Returns the raw bits.
    #[must_use]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs protection bits from a raw value, masking unknown bits.
    #[must_use]
    pub const fn from_bits_truncate(bits: u8) -> Prot {
        Prot(bits & 0b1111)
    }
}

impl BitOr for Prot {
    type Output = Prot;

    fn bitor(self, rhs: Prot) -> Prot {
        Prot(self.0 | rhs.0)
    }
}

impl BitOrAssign for Prot {
    fn bitor_assign(&mut self, rhs: Prot) {
        self.0 |= rhs.0;
    }
}

impl fmt::Debug for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Prot({}{}{}{})",
            if self.contains(Prot::READ) { "r" } else { "-" },
            if self.contains(Prot::WRITE) { "w" } else { "-" },
            if self.contains(Prot::EXEC) { "x" } else { "-" },
            if self.contains(Prot::SUPERVISOR_ONLY) {
                "s"
            } else {
                "-"
            },
        )
    }
}

impl fmt::Display for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_permits_read_and_write_for_user() {
        let p = Prot::RW;
        assert!(p.permits(AccessKind::Read, PrivilegeLevel::User));
        assert!(p.permits(AccessKind::Write, PrivilegeLevel::User));
        assert!(!p.permits(AccessKind::IFetch, PrivilegeLevel::User));
    }

    #[test]
    fn read_only_blocks_writes() {
        let p = Prot::READ;
        assert!(p.permits(AccessKind::Read, PrivilegeLevel::User));
        assert!(!p.permits(AccessKind::Write, PrivilegeLevel::User));
    }

    #[test]
    fn supervisor_only_blocks_user_but_not_kernel() {
        let p = Prot::RW | Prot::SUPERVISOR_ONLY;
        assert!(!p.permits(AccessKind::Read, PrivilegeLevel::User));
        assert!(!p.permits(AccessKind::Write, PrivilegeLevel::User));
        assert!(p.permits(AccessKind::Read, PrivilegeLevel::Supervisor));
        assert!(p.permits(AccessKind::Write, PrivilegeLevel::Supervisor));
    }

    #[test]
    fn text_pages_allow_ifetch() {
        let p = Prot::RX;
        assert!(p.permits(AccessKind::IFetch, PrivilegeLevel::User));
        assert!(!p.permits(AccessKind::Write, PrivilegeLevel::User));
    }

    #[test]
    fn none_permits_nothing() {
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::IFetch] {
            assert!(!Prot::NONE.permits(kind, PrivilegeLevel::Supervisor));
        }
    }

    #[test]
    fn bit_round_trip() {
        let p = Prot::RW | Prot::SUPERVISOR_ONLY;
        assert_eq!(Prot::from_bits_truncate(p.bits()), p);
        // Unknown high bits are masked off.
        assert_eq!(Prot::from_bits_truncate(0xF0), Prot::NONE);
    }

    #[test]
    fn debug_is_rwxs_string() {
        assert_eq!(format!("{:?}", Prot::RW), "Prot(rw--)");
        assert_eq!(
            format!("{:?}", Prot::RX | Prot::SUPERVISOR_ONLY),
            "Prot(r-xs)"
        );
    }
}
