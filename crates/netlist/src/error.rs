//! Error types for design construction and Bookshelf I/O.

use std::error::Error;
use std::fmt;

/// Errors raised while building or validating a [`crate::Design`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DesignError {
    /// A cell name was added twice.
    DuplicateCell(String),
    /// A cell has unusable dimensions: non-positive for a movable cell,
    /// negative or non-finite for any cell.
    InvalidDimensions {
        /// Cell name.
        name: String,
        /// Offending width.
        width: f64,
        /// Offending height.
        height: f64,
    },
    /// A net has fewer than two pins.
    DegenerateNet(String),
    /// A net weight is not positive and finite.
    InvalidWeight {
        /// Net name.
        net: String,
        /// Offending weight.
        weight: f64,
    },
    /// A pin offset is NaN or infinite.
    InvalidPinOffset {
        /// Net name.
        net: String,
        /// Offending horizontal offset.
        dx: f64,
        /// Offending vertical offset.
        dy: f64,
    },
    /// A pin or region references a cell index that does not exist.
    UnknownCell(usize),
    /// A net id that does not exist.
    UnknownNet(usize),
    /// Target density outside `(0, 1]`.
    InvalidDensity(f64),
    /// A constructor was called with the wrong cell kind.
    KindMismatch(&'static str),
    /// A region rectangle extends beyond the core.
    RegionOutsideCore(String),
    /// A region constraint lists a fixed cell.
    RegionOnFixedCell {
        /// Region name.
        region: String,
        /// Cell name.
        cell: String,
    },
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::DuplicateCell(n) => write!(f, "duplicate cell name `{n}`"),
            DesignError::InvalidDimensions {
                name,
                width,
                height,
            } => {
                write!(f, "cell `{name}` has invalid dimensions {width}x{height}")
            }
            DesignError::DegenerateNet(n) => write!(f, "net `{n}` has fewer than two pins"),
            DesignError::InvalidWeight { net, weight } => {
                write!(
                    f,
                    "net `{net}` has non-positive or non-finite weight {weight}"
                )
            }
            DesignError::InvalidPinOffset { net, dx, dy } => {
                write!(f, "net `{net}` has a non-finite pin offset ({dx}, {dy})")
            }
            DesignError::UnknownCell(i) => write!(f, "reference to unknown cell index {i}"),
            DesignError::UnknownNet(i) => write!(f, "reference to unknown net index {i}"),
            DesignError::InvalidDensity(d) => {
                write!(f, "target density {d} outside (0, 1]")
            }
            DesignError::KindMismatch(msg) => write!(f, "{msg}"),
            DesignError::RegionOutsideCore(r) => {
                write!(f, "region `{r}` extends beyond the core area")
            }
            DesignError::RegionOnFixedCell { region, cell } => {
                write!(f, "region `{region}` constrains fixed cell `{cell}`")
            }
        }
    }
}

impl Error for DesignError {}

/// Errors raised by the Bookshelf reader/writer.
#[derive(Debug)]
#[non_exhaustive]
pub enum BookshelfError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// File the error occurred in.
        file: String,
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The parsed netlist failed semantic validation.
    Design(DesignError),
    /// The .aux file did not reference a required component file.
    MissingComponent(&'static str),
}

impl fmt::Display for BookshelfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BookshelfError::Io(e) => write!(f, "i/o error: {e}"),
            BookshelfError::Parse {
                file,
                line,
                message,
            } => {
                write!(f, "{file}:{line}: {message}")
            }
            BookshelfError::Design(e) => write!(f, "invalid design: {e}"),
            BookshelfError::MissingComponent(c) => {
                write!(f, "aux file missing required component `{c}`")
            }
        }
    }
}

impl Error for BookshelfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BookshelfError::Io(e) => Some(e),
            BookshelfError::Design(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BookshelfError {
    fn from(e: std::io::Error) -> Self {
        BookshelfError::Io(e)
    }
}

impl From<DesignError> for BookshelfError {
    fn from(e: DesignError) -> Self {
        BookshelfError::Design(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = DesignError::DuplicateCell("x".into());
        assert!(e.to_string().contains("duplicate"));
        let e = DesignError::InvalidDensity(2.0);
        assert!(e.to_string().contains("2"));
        let e = BookshelfError::Parse {
            file: "a.nodes".into(),
            line: 3,
            message: "bad token".into(),
        };
        assert_eq!(e.to_string(), "a.nodes:3: bad token");
    }

    #[test]
    fn error_sources_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = BookshelfError::from(io);
        assert!(e.source().is_some());
    }
}
