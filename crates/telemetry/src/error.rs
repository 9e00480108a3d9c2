//! Telemetry error type, wrapped by `openoptics_core::Error`.

use std::error::Error as StdError;
use std::fmt;

/// Errors surfaced by the telemetry subsystem's exporting entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// An export was requested but telemetry was configured off
    /// (`NetConfig::telemetry = false`), so there is nothing to export.
    Disabled,
    /// An export format string was not recognized.
    UnknownFormat(String),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Disabled => {
                write!(f, "telemetry is disabled (set NetConfig::telemetry = true)")
            }
            TelemetryError::UnknownFormat(s) => {
                write!(f, "unknown telemetry export format {s:?} (expected \"json\" or \"csv\")")
            }
        }
    }
}

impl StdError for TelemetryError {}
