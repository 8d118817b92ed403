//! Runtime and overhead models — defined in the workload layer
//! ([`hpc_workload::model`]), beside the job shapes they are over, so
//! the operator's modeled executor runs the very same structs; this
//! module keeps the simulator's historical paths.

pub use hpc_workload::model::{OverheadBreakdown, OverheadModel, Progress, ScalingModel};
pub use hpc_workload::{JobShape, SizeClass};
