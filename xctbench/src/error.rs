//! The benchmark's one error type: a message for stderr and a nonzero exit.

use std::fmt;

/// A benchmark failure (bad arguments, a failed call into the program,
/// or an unreadable file).
#[derive(Debug)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError(format!("i/o: {e}"))
    }
}

impl From<xct_io::IoError> for BenchError {
    fn from(e: xct_io::IoError) -> Self {
        BenchError(format!("slice file: {e}"))
    }
}

impl From<xct_core::PipelineError> for BenchError {
    fn from(e: xct_core::PipelineError) -> Self {
        BenchError(format!("pipeline: {e}"))
    }
}

impl From<xct_comm::CommError> for BenchError {
    fn from(e: xct_comm::CommError) -> Self {
        BenchError(format!("comm: {e}"))
    }
}
