//! The crate-wide error umbrella.
//!
//! The simulator exposes three failure domains: compile-time failures
//! ([`CompileError`]), runtime stimulus failures ([`SimError`]), and
//! equivalence-run failures ([`EquivalenceCheckError`]). Callers that drive
//! the whole lifecycle — most prominently the `mcfpga-serve` job layer —
//! want to hold *one* error type; [`enum@Error`] wraps all three with
//! `From` impls so `?` converts freely.

use mcfpga_arch::{ArchError, ArchSpec};
use mcfpga_map::MapError;
use mcfpga_place::PlaceError;
use mcfpga_route::RouteError;

use crate::equivalence::{EquivalenceCheckError, EquivalenceError};
use crate::multi::SimError;

/// Compile-flow failure.
#[derive(Debug)]
pub enum CompileError {
    Map(MapError),
    Place(PlaceError),
    Route(RouteError),
    /// The workload needs more planes somewhere than the LUT pool offers.
    PlaneOverflow {
        lb: usize,
        needed: usize,
        available: usize,
    },
    /// Workloads must contain at least one context.
    EmptyWorkload,
    /// The architecture failed [`ArchSpec::validate`].
    InvalidArch(ArchError),
    /// The workload has more circuits than the device has contexts.
    TooManyCircuits {
        circuits: usize,
        contexts: usize,
    },
    /// A cancellation hook (see [`crate::MultiDevice::compile_delta`])
    /// reported the budget exhausted between per-context compile phases;
    /// the partial result was discarded.
    DeadlineExceeded,
    /// A pre-mapped netlist was mapped at a LUT size other than the
    /// fabric's `min_inputs` (see [`crate::MultiDevice::compile_mapped`]).
    MappedGranularity {
        context: usize,
        expected: usize,
        got: usize,
    },
    /// [`crate::MultiDevice::compile_delta`] needs one seed per circuit.
    DeltaSeedCount {
        seeds: usize,
        circuits: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Map(e) => write!(f, "mapping failed: {e}"),
            CompileError::Place(e) => write!(f, "placement failed: {e}"),
            CompileError::Route(e) => write!(f, "routing failed: {e}"),
            CompileError::PlaneOverflow {
                lb,
                needed,
                available,
            } => write!(
                f,
                "logic block {lb} needs {needed} planes but the pool offers {available}"
            ),
            CompileError::EmptyWorkload => write!(f, "workload has no contexts"),
            CompileError::InvalidArch(e) => write!(f, "invalid architecture: {e}"),
            CompileError::TooManyCircuits { circuits, contexts } => write!(
                f,
                "workload has {circuits} circuits but the device has {contexts} contexts"
            ),
            CompileError::DeadlineExceeded => {
                write!(f, "compile cancelled: deadline exceeded between contexts")
            }
            CompileError::MappedGranularity {
                context,
                expected,
                got,
            } => write!(
                f,
                "context {context} was mapped at k = {got} but the fabric maps at k = {expected}"
            ),
            CompileError::DeltaSeedCount { seeds, circuits } => write!(
                f,
                "{seeds} delta seeds for {circuits} circuits (use DeltaSeed::Cold for new slots)"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ArchError> for CompileError {
    fn from(e: ArchError) -> Self {
        CompileError::InvalidArch(e)
    }
}

impl From<MapError> for CompileError {
    fn from(e: MapError) -> Self {
        CompileError::Map(e)
    }
}

impl From<PlaceError> for CompileError {
    fn from(e: PlaceError) -> Self {
        CompileError::Place(e)
    }
}

impl From<RouteError> for CompileError {
    fn from(e: RouteError) -> Self {
        CompileError::Route(e)
    }
}

/// Reject an invalid architecture, or a workload of more circuits than it
/// has contexts, before any compile work starts.
pub(crate) fn check_workload_fits(arch: &ArchSpec, circuits: usize) -> Result<(), CompileError> {
    arch.validate()?;
    if circuits > arch.n_contexts {
        return Err(CompileError::TooManyCircuits {
            circuits,
            contexts: arch.n_contexts,
        });
    }
    Ok(())
}

/// Any failure the simulator can report: compile, runtime, or equivalence.
///
/// This is the one error type serving layers should hold; the variants keep
/// the original typed payloads for callers that need to discriminate.
#[derive(Debug)]
pub enum Error {
    /// The compile pipeline failed (map / place / route / plane overflow).
    Compile(CompileError),
    /// A compiled device rejected its stimulus at runtime.
    Sim(SimError),
    /// An equivalence run failed: divergence or reference breakdown.
    Equivalence(EquivalenceCheckError),
}

impl Error {
    /// The runtime stimulus failure, if this is one.
    pub fn as_sim(&self) -> Option<&SimError> {
        match self {
            Error::Sim(e) => Some(e),
            _ => None,
        }
    }

    /// The compile failure, if this is one.
    pub fn as_compile(&self) -> Option<&CompileError> {
        match self {
            Error::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile failed: {e}"),
            Error::Sim(e) => write!(f, "simulation rejected input: {e}"),
            Error::Equivalence(e) => write!(f, "equivalence check failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Equivalence(e) => Some(e),
        }
    }
}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<EquivalenceCheckError> for Error {
    fn from(e: EquivalenceCheckError) -> Self {
        Error::Equivalence(e)
    }
}

impl From<EquivalenceError> for Error {
    fn from(e: EquivalenceError) -> Self {
        Error::Equivalence(EquivalenceCheckError::Divergence(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn umbrella_wraps_every_domain_with_from() {
        let sim: Error = SimError::ContextNotProgrammed {
            context: 7,
            programmed: 2,
        }
        .into();
        assert!(sim.as_sim().is_some());
        assert!(sim.as_compile().is_none());
        assert!(sim.to_string().contains("context 7"));

        let compile: Error = CompileError::EmptyWorkload.into();
        assert!(compile.as_compile().is_some());
        assert!(compile.to_string().contains("no contexts"));

        let eq: Error = EquivalenceError {
            cycle: 3,
            context: 1,
            lane: 0,
            inputs: vec![],
            device: vec![true],
            reference: vec![false],
        }
        .into();
        assert!(matches!(
            eq,
            Error::Equivalence(EquivalenceCheckError::Divergence(_))
        ));
    }

    #[test]
    fn question_mark_conversion_compiles() {
        fn serve_path() -> Result<(), Error> {
            fn sim_step() -> Result<(), SimError> {
                Err(SimError::InputArity {
                    context: 0,
                    expected: 4,
                    got: 2,
                })
            }
            sim_step()?;
            Ok(())
        }
        assert!(matches!(serve_path(), Err(Error::Sim(_))));
    }
}
