//! The SPRINT benchmark harness.
//!
//! The `report` binary drives the experiment drivers in
//! [`sprint_core::experiments`], the criterion benches time the kernels
//! whose ratios the report carries as floors, and [`report`] owns
//! `BENCH_report.json`.

pub mod report;
