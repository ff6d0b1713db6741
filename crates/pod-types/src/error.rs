//! Workspace-wide error type.

use core::fmt;

/// Convenience alias used across the workspace.
pub type PodResult<T> = Result<T, PodError>;

/// Errors surfaced by the POD library crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodError {
    /// An address was outside the configured device/array capacity.
    OutOfRange {
        /// What was being addressed (e.g. "lba", "pba", "disk"), naming
        /// the request it belongs to where there is one.
        what: String,
        /// The offending value.
        value: u64,
        /// The exclusive limit.
        limit: u64,
    },
    /// The physical allocator ran out of space.
    NoSpace,
    /// A trace line could not be parsed.
    TraceParse {
        /// 1-based line number.
        line: usize,
        /// Description of what went wrong.
        reason: String,
    },
    /// A trace's request arrives earlier than the request before it; a
    /// replay takes its trace in time order.
    OutOfOrder {
        /// 0-based position of the request in the trace.
        position: usize,
        /// Its arrival, µs.
        arrival_us: u64,
        /// The previous request's arrival, µs.
        previous_us: u64,
    },
    /// A configuration value was invalid (zero capacity, bad split, ...).
    InvalidConfig(String),
    /// Attempt to free / unreference a block that is not allocated.
    NotAllocated(u64),
    /// Internal consistency violation; indicates a bug, surfaced instead
    /// of panicking so fuzzing / property tests can observe it.
    Inconsistency(String),
}

impl fmt::Display for PodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PodError::OutOfRange { what, value, limit } => {
                write!(f, "{what} {value} out of range (limit {limit})")
            }
            PodError::NoSpace => write!(f, "physical allocator exhausted"),
            PodError::TraceParse { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
            PodError::OutOfOrder {
                position,
                arrival_us,
                previous_us,
            } => write!(
                f,
                "request {position} arrives at {arrival_us} us, earlier than the previous \
                 request's {previous_us} us: a trace must be in time order"
            ),
            PodError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PodError::NotAllocated(pba) => {
                write!(f, "block pba={pba} is not allocated")
            }
            PodError::Inconsistency(msg) => write!(f, "internal inconsistency: {msg}"),
        }
    }
}

impl std::error::Error for PodError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PodError::OutOfRange {
            what: "lba".into(),
            value: 10,
            limit: 5,
        };
        assert_eq!(e.to_string(), "lba 10 out of range (limit 5)");
        assert_eq!(
            PodError::NoSpace.to_string(),
            "physical allocator exhausted"
        );
        assert!(PodError::TraceParse {
            line: 3,
            reason: "bad op".into()
        }
        .to_string()
        .contains("line 3"));
        assert!(PodError::NotAllocated(7).to_string().contains("pba=7"));
        let e = PodError::OutOfOrder {
            position: 63,
            arrival_us: 5,
            previous_us: 9,
        };
        assert!(e
            .to_string()
            .starts_with("request 63 arrives at 5 us, earlier than"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err<E: std::error::Error>(_e: E) {}
        takes_err(PodError::NoSpace);
    }
}
