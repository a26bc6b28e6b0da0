//! Physical execution of logical plans.
//!
//! [`executor`] interprets every SELECT plan a row at a time: the scan
//! phase reads the catalog under the caller's lock, and the finish phase
//! runs filters, joins, aggregates and sorts over the scanned rows.
//! [`aggregate`] holds the per-group accumulators.

pub mod aggregate;
pub mod executor;

pub use aggregate::Accumulator;
pub use executor::execute_plan;
