//! Umbrella crate re-exporting the Maxson reproduction workspace.
#![deny(unreachable_pub)]
pub use maxson;
pub use maxson_datagen as datagen;
pub use maxson_engine as engine;
pub use maxson_json as json;
pub use maxson_predictor as predictor;
pub use maxson_storage as storage;
pub use maxson_trace as trace;
