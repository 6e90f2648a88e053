//! Helpers shared by the integration suites: the exposition lint every
//! test that reads Prometheus text runs, and the [`Feeder`] that drives
//! an in-process `Service` the way a wire client does. Each suite uses
//! only some of them.
#![allow(dead_code, unused_imports)]

mod feed;
mod lint;

pub use feed::Feeder;
pub use lint::lint_exposition;
