//! Compatibility façade over the decomposed training engine.
//!
//! The monolithic trainer that used to live here is now the [`crate::train`](mod@crate::train)
//! module tree (batcher / objective / epoch loop / pool-parallel
//! `train_many`); this module keeps the historical import path working.

pub use crate::train::{train, TrainReport};
