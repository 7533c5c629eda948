//! Error type shared by every module of the CXL SHM substrate.

use std::fmt;

use crate::cache::CACHE_LINE_SIZE;

/// Errors produced by the simulated dax device, the cache/coherence layer and
/// the CXL SHM Arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShmError {
    /// An access (read/write/flush) fell outside the bounds of the device or
    /// of an SHM object.
    OutOfBounds {
        /// Byte offset of the start of the access.
        offset: usize,
        /// Length of the access in bytes.
        len: usize,
        /// Size of the region that was accessed.
        capacity: usize,
    },
    /// A device with this name already exists in the registry.
    DeviceExists(String),
    /// No device with this name exists in the registry.
    DeviceNotFound(String),
    /// The requested device size is invalid (zero, or not a multiple of the
    /// mapping alignment).
    InvalidDeviceSize {
        /// Requested size in bytes.
        size: usize,
        /// Required alignment in bytes.
        alignment: usize,
    },
    /// The arena header on the device is missing or corrupt.
    InvalidHeader(String),
    /// The device is too small to hold the requested arena layout.
    DeviceTooSmall {
        /// Bytes required by the layout.
        required: usize,
        /// Bytes available on the device.
        available: usize,
    },
    /// An SHM object with this name already exists.
    ObjectExists(String),
    /// No SHM object with this name exists.
    ObjectNotFound(String),
    /// The object name is empty or longer than the fixed slot field.
    InvalidObjectName(String),
    /// The requested object size is zero or exceeds the object region.
    InvalidObjectSize(usize),
    /// Every slot that could hold this name is occupied (all hash levels full).
    HashFull,
    /// The object region has no free extent large enough for the request.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Largest free extent available.
        largest_free: usize,
    },
    /// An atomic word access was not 8-byte aligned.
    Misaligned {
        /// Byte offset of the attempted access.
        offset: usize,
    },
    /// A whole-line store did not cover whole cache lines: its offset or its
    /// length is not a multiple of the line size.
    NotWholeLines {
        /// Byte offset of the attempted store.
        offset: usize,
        /// Length of the attempted store in bytes.
        len: usize,
    },
    /// An object handle was used after `close`/`destroy`.
    StaleHandle(String),
    /// The cross-host directory lock stayed held past the spin bound
    /// (the holder likely died mid-`create`/`destroy`).
    DirectoryLockTimeout,
    /// Arena configuration is invalid (zero levels, zero slots, ...).
    InvalidConfig(String),
}

impl fmt::Display for ShmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "access of {len} bytes at offset {offset} exceeds capacity {capacity}"
            ),
            ShmError::DeviceExists(name) => write!(f, "dax device '{name}' already exists"),
            ShmError::DeviceNotFound(name) => write!(f, "dax device '{name}' not found"),
            ShmError::InvalidDeviceSize { size, alignment } => write!(
                f,
                "invalid device size {size}: must be a non-zero multiple of {alignment}"
            ),
            ShmError::InvalidHeader(msg) => write!(f, "invalid arena header: {msg}"),
            ShmError::DeviceTooSmall {
                required,
                available,
            } => write!(
                f,
                "device too small: layout needs {required} bytes, device has {available}"
            ),
            ShmError::ObjectExists(name) => write!(f, "SHM object '{name}' already exists"),
            ShmError::ObjectNotFound(name) => write!(f, "SHM object '{name}' not found"),
            ShmError::InvalidObjectName(name) => write!(f, "invalid SHM object name '{name}'"),
            ShmError::InvalidObjectSize(size) => write!(f, "invalid SHM object size {size}"),
            ShmError::HashFull => write!(f, "metadata hash is full at every level"),
            ShmError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "object region exhausted: requested {requested} bytes, largest free extent {largest_free}"
            ),
            ShmError::Misaligned { offset } => write!(
                f,
                "atomic word access at offset {offset} is not 8-byte aligned"
            ),
            ShmError::NotWholeLines { offset, len } => write!(
                f,
                "line store of {len} bytes at offset {offset} is not whole {CACHE_LINE_SIZE}-byte lines"
            ),
            ShmError::StaleHandle(name) => write!(f, "object handle '{name}' is stale"),
            ShmError::DirectoryLockTimeout => {
                write!(f, "arena directory lock held past the spin bound")
            }
            ShmError::InvalidConfig(msg) => write!(f, "invalid arena configuration: {msg}"),
        }
    }
}

impl std::error::Error for ShmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_out_of_bounds() {
        let e = ShmError::OutOfBounds {
            offset: 10,
            len: 20,
            capacity: 16,
        };
        let s = e.to_string();
        assert!(s.contains("20 bytes"));
        assert!(s.contains("offset 10"));
        assert!(s.contains("capacity 16"));
    }

    #[test]
    fn display_device_errors() {
        assert!(ShmError::DeviceExists("dax0.0".into())
            .to_string()
            .contains("dax0.0"));
        assert!(ShmError::DeviceNotFound("dax1.0".into())
            .to_string()
            .contains("dax1.0"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&ShmError::HashFull);
    }

    #[test]
    fn errors_compare_equal() {
        assert_eq!(ShmError::HashFull, ShmError::HashFull);
        assert_ne!(
            ShmError::ObjectExists("a".into()),
            ShmError::ObjectNotFound("a".into())
        );
    }
}
