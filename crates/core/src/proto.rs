//! pioBLAST-specific protocol payloads: partition assignments.

use seqfmt::codec::{CodecError, Reader, Wire, Writer};
use seqfmt::{wire_struct, FragmentSpec};

/// One virtual fragment assigned to a worker: the byte ranges plus the
/// volume base name whose files they index into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentAssignment {
    /// The byte ranges.
    pub spec: FragmentSpec,
    /// Volume base name (e.g. `nr-sim` or `nt-sim.01`), resolved against
    /// the shared `db/` directory.
    pub volume_name: String,
}

/// The master's scatter payload: a worker's list of assignments, plus the
/// global volume list (needed when every rank must iterate the volumes in
/// lockstep, e.g. for collective input).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionMessage {
    /// Assigned fragments, searched in order.
    pub fragments: Vec<FragmentAssignment>,
    /// All volume base names of the database, in oid order.
    pub volumes: Vec<String>,
}

/// The spec travels as a length-prefixed frame of its own.
impl Wire for FragmentAssignment {
    const MIN_SIZE: usize = 4 + FragmentSpec::MIN_SIZE + 4;

    fn put(&self, w: &mut Writer) {
        self.spec.encode().put(w);
        self.volume_name.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<FragmentAssignment, CodecError> {
        Ok(FragmentAssignment {
            spec: Wire::decode(r.at("FragmentAssignment.spec").blob()?)?,
            volume_name: Wire::get(r.at("FragmentAssignment.volume_name"))?,
        })
    }
}

wire_struct!(PartitionMessage {
    fragments: Vec<FragmentAssignment>,
    volumes: Vec<String>,
});
