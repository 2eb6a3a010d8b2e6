//! One door for untrusted bytes: every `seqfmt::codec::Wire` type — each
//! message, checkpoint blob and index table of the stack — is held to
//! the same three properties, and to the bytes the hand-written codecs
//! it replaced produced.
//!
//! * `decode(encode(x)) == x`; every strict prefix and every one-byte
//!   extension of a valid encoding is an error;
//! * `decode` of arbitrary bytes returns — no panic — having allocated
//!   no more than a small multiple of the input (a counting
//!   `#[global_allocator]`, as in `blast-core/tests/alloc.rs`);
//! * `encode` of one fixture per type equals the hex recorded from the
//!   parent commit's binary (`tests/common/wire_golden.txt`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

use blast_core::fasta;
use blast_core::hsp::Hsp;
use blast_core::search::SubjectHit;
use blast_core::seq::SeqRecord;
use blast_core::stats::DbStats;
use blast_core::Molecule;
use mpiblast::wire::{
    get_queries, put_queries, FetchRequest, FetchResponse, FragmentCheckpoint, MetaHit,
    MetaSubmission, OffsetAssignment, QueryBundle, ResultSubmission,
};
use pioblast::merge::{SummaryBlock, SummaryEntry};
use pioblast::proto::{FragmentAssignment, PartitionMessage};
use pioblast::runtime::{Assign, Fenced, Grant};
use seqfmt::codec::{CodecError, Reader, Wire, Writer};
use seqfmt::{AliasFile, FragmentData, FragmentSpec, VolumeIndex};

/// Sums the bytes requested on the current thread (a const-initialized
/// thread-local: reading it never allocates, other harness threads do
/// not perturb it).
struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|c| c.set(c.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTED.try_with(|c| c.set(c.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Run `f` and return the bytes it asked the allocator for.
fn requested_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.with(|c| c.get());
    let out = f();
    (out, REQUESTED.with(|c| c.get()) - before)
}

/// What a decoder may allocate for `len` input bytes: the widest
/// in-memory element per minimum wire byte is a `String` (24 bytes for a
/// 4-byte empty one), a growing `Vec` doubles that, and a few fixed
/// small vectors ride on top.
fn allocation_budget(len: usize) -> usize {
    32 * len + 512
}

/// The `TAG_QBATCH` frame as the pioBLAST master composes it (the molecule
/// travels in the bundle; protein here).
#[derive(Debug, PartialEq)]
struct QBatch(u32, Vec<SeqRecord>);

impl Wire for QBatch {
    const MIN_SIZE: usize = 8;
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        put_queries(&self.1, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<QBatch, CodecError> {
        Ok(QBatch(u32::get(r)?, get_queries(r, Molecule::Protein)?))
    }
}

/// What is done to every type's values.
trait Visitor {
    /// `golden` names the value's line in `wire_golden.txt`; the smallest
    /// value of each type is visited without one.
    fn visit<T: Wire + PartialEq + Debug>(&mut self, golden: Option<&'static str>, value: T);
}

/// A closing block of two one-line summaries, one name multi-byte.
fn summaries() -> SummaryBlock {
    SummaryBlock {
        offset: 4_096,
        entries: vec![
            SummaryEntry {
                name: "gi|77| something".into(),
                bit_score: 60.25,
                evalue: 2e-7,
            },
            SummaryEntry {
                name: "gi|78| protéine 中".into(),
                bit_score: 0.0,
                evalue: 1e5,
            },
        ],
        closes: true,
    }
}

fn hsp() -> Hsp {
    Hsp {
        query_idx: 3,
        oid: 99,
        q_start: 1,
        q_end: 50,
        s_start: 2,
        s_end: 51,
        score: -144,
        bit_score: 60.25,
        evalue: 3.5e-12,
    }
}

fn queries() -> Vec<SeqRecord> {
    let record = |defline: &str, residues: &[u8]| SeqRecord {
        defline: defline.into(),
        residues: residues.to_vec(),
        molecule: Molecule::Protein,
    };
    vec![record("q0 first", &[1, 2, 3, 19]), record("", &[])]
}

fn meta() -> MetaSubmission {
    MetaSubmission {
        per_query: vec![(1, vec![meta_hit()])],
    }
}

fn meta_hit() -> MetaHit {
    MetaHit {
        oid: 4,
        subject_len: 100,
        record_size: 2048,
        defline: "gi|4| protein".into(),
        best: hsp(),
    }
}

fn offsets() -> OffsetAssignment {
    OffsetAssignment {
        records: vec![(0, 4, 12345), (1, 9, 99999)],
    }
}

fn spec() -> FragmentSpec {
    FragmentSpec {
        volume: 2,
        first_seq: 10,
        last_seq: 20,
        base_oid: 110,
        seq_range: (1000, 2000),
        hdr_range: (300, 400),
        idx_seq_range: (80, 168),
        idx_hdr_range: (200, 288),
        residues: 1000,
    }
}

fn assignment() -> FragmentAssignment {
    FragmentAssignment {
        spec: spec(),
        volume_name: "nt-sim.01".into(),
    }
}

fn partition() -> PartitionMessage {
    PartitionMessage {
        fragments: vec![assignment()],
        volumes: vec!["nt-sim.00".into(), "nt-sim.01".into()],
    }
}

fn volume_index() -> VolumeIndex {
    VolumeIndex {
        molecule: Molecule::Dna,
        title: "nr-sim".into(),
        base_oid: 100,
        volume_stats: DbStats {
            num_sequences: 3,
            total_residues: 30,
        },
        global_stats: DbStats {
            num_sequences: 10,
            total_residues: 100,
        },
        seq_offsets: vec![0, 10, 22, 30],
        hdr_offsets: vec![0, 5, 11, 20],
    }
}

/// Every `Wire` type in the stack: its golden fixture, then its
/// smallest value.
fn every_type(v: &mut impl Visitor) {
    let stats = DbStats {
        num_sequences: 7,
        total_residues: 700,
    };
    let no_stats = DbStats {
        num_sequences: 0,
        total_residues: 0,
    };
    let hit = SubjectHit {
        oid: 99,
        subject_len: 321,
        hsps: vec![hsp(), hsp()],
    };

    // seqfmt::codec's own impls.
    v.visit(Some("String"), String::from("nr-sim"));
    v.visit(None, String::new());
    v.visit(None, true);
    v.visit(None, false);
    v.visit(Some("Molecule"), Molecule::Protein);
    v.visit(Some("DbStats"), stats);
    v.visit(Some("Hsp"), hsp());
    v.visit(Some("SubjectHit"), hit.clone());
    v.visit(
        None,
        SubjectHit {
            oid: 0,
            subject_len: 0,
            hsps: Vec::new(),
        },
    );
    v.visit(Some("FragmentSpec"), spec());
    v.visit(Some("VolumeIndex"), volume_index());
    v.visit(
        None,
        VolumeIndex {
            title: String::new(),
            seq_offsets: Vec::new(),
            hdr_offsets: Vec::new(),
            ..volume_index()
        },
    );

    // mpiblast::wire.
    v.visit(
        Some("QueryBundle"),
        QueryBundle {
            db_title: "nr-sim".into(),
            db_stats: stats,
            molecule: Molecule::Protein,
            queries: queries(),
        },
    );
    v.visit(
        None,
        QueryBundle {
            db_title: String::new(),
            db_stats: no_stats,
            molecule: Molecule::Dna,
            queries: Vec::new(),
        },
    );
    v.visit(
        Some("ResultSubmission"),
        ResultSubmission {
            fragment: 5,
            per_query: vec![(2, vec![hit])],
        },
    );
    v.visit(None, ResultSubmission::default());
    v.visit(
        Some("FetchRequest"),
        FetchRequest {
            query_idx: 2,
            oid: 77,
        },
    );
    v.visit(
        Some("FetchResponse"),
        FetchResponse {
            defline: b"gi|77| something".to_vec(),
            residues: vec![0, 5, 9, 19],
        },
    );
    v.visit(
        None,
        FetchResponse {
            defline: Vec::new(),
            residues: Vec::new(),
        },
    );
    v.visit(Some("MetaHit"), meta_hit());
    v.visit(
        None,
        MetaHit {
            defline: String::new(),
            ..meta_hit()
        },
    );
    v.visit(Some("MetaSubmission"), meta());
    v.visit(None, MetaSubmission::default());
    v.visit(Some("OffsetAssignment"), offsets());
    v.visit(None, OffsetAssignment::default());
    v.visit(
        Some("FragmentCheckpoint"),
        FragmentCheckpoint {
            batch: 1,
            fragment: 7,
            meta: meta(),
            records: vec![(1, 4, ">record text\n".into())],
        },
    );
    v.visit(None, FragmentCheckpoint::default());
    // mpiBLAST's FRAG_ASSIGN / FRAG_DONE payload: the fragment id.
    v.visit(Some("FragId"), 6u32);

    // pioblast::proto and the runtime's frames.
    v.visit(Some("FragmentAssignment"), assignment());
    v.visit(
        None,
        FragmentAssignment {
            spec: spec(),
            volume_name: String::new(),
        },
    );
    v.visit(Some("PartitionMessage"), partition());
    v.visit(None, PartitionMessage::default());
    v.visit(
        Some("Grant"),
        Grant {
            batch: 3,
            ids: vec![5],
            part: partition(),
        },
    );
    v.visit(None, Grant::default());
    let epoch = 7u64;
    v.visit::<Fenced<MetaSubmission>>(Some("EpochSubmit"), (epoch, meta()));
    v.visit::<Fenced<OffsetAssignment>>(Some("EpochAssign"), (epoch, offsets()));
    // The TAG_ASSIGN payload: its own offsets, the orphan records
    // shipped beside them, and the summary blocks to render.
    v.visit::<Fenced<Assign>>(
        None,
        (
            epoch,
            Assign {
                own: offsets(),
                shipped: vec![(12_000, ">orphan\n".into()), (12_008, "".into())],
                summaries: vec![summaries(), SummaryBlock::default()],
                end: 123_456,
            },
        ),
    );
    v.visit(None, Assign::default());
    v.visit(None, summaries());
    v.visit(None, SummaryBlock::default());
    v.visit(None, summaries().entries.remove(1));
    v.visit(None, SummaryEntry::default());
    v.visit::<Fenced<u32>>(Some("EpochSubmitReq"), (epoch, 3));
    v.visit(Some("EpochDone"), epoch);
    v.visit(Some("QBatch"), QBatch(5, queries()));
    v.visit(None, QBatch(0, Vec::new()));
}

/// Deterministic bytes (xorshift64*).
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() >> 32) as u8).collect()
    }
}

/// Inputs a decoder has to survive: noise of every small length, and a
/// valid encoding damaged every way a count field can be — four `ff`
/// bytes, one flipped byte, one random byte — at every offset.
fn hostile_inputs(valid: &[u8], noise: &mut Noise) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = (0..48).map(|len| noise.bytes(len)).collect();
    for at in 0..valid.len() {
        let mut lying_count = valid.to_vec();
        for b in lying_count.iter_mut().skip(at).take(4) {
            *b = 0xff;
        }
        let mut flipped = valid.to_vec();
        flipped[at] ^= 0x10;
        let mut random = valid.to_vec();
        random[at] = noise.next() as u8;
        inputs.extend([lying_count, flipped, random]);
    }
    inputs
}

/// `decode` returned (it did not panic) within the allocation budget.
fn survives<T>(what: &str, input: &[u8], decode: impl FnOnce(&[u8]) -> T) {
    let (_, requested) = requested_by(|| decode(input));
    assert!(
        requested <= allocation_budget(input.len()),
        "{what}: {requested} bytes requested to decode {} bytes: {input:02x?}",
        input.len()
    );
}

struct Properties(Noise);

impl Visitor for Properties {
    fn visit<T: Wire + PartialEq + Debug>(&mut self, _: Option<&'static str>, value: T) {
        let what = std::any::type_name::<T>();
        let bytes = value.encode();
        assert_eq!(T::decode(&bytes).as_ref(), Ok(&value), "{what}");
        assert!(bytes.len() >= T::MIN_SIZE, "{what}: MIN_SIZE is no minimum");
        for cut in 0..bytes.len() {
            assert!(T::decode(&bytes[..cut]).is_err(), "{what}: prefix {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(T::decode(&extended).is_err(), "{what}: trailing byte");
        for input in hostile_inputs(&bytes, &mut self.0) {
            survives(what, &input, T::decode);
        }
    }
}

#[test]
fn every_wire_type_round_trips_and_survives_hostile_bytes() {
    every_type(&mut Properties(Noise(0x9E37_79B9_7F4A_7C15)));
}

#[test]
fn file_parsers_survive_hostile_bytes() {
    // The parsers that sit on `Wire` without being one: the text alias,
    // whole fragment files, and the ranged slices of the offset tables.
    let mut noise = Noise(0x0123_4567_89AB_CDEF);
    let idx = volume_index().encode();
    let table = &idx[idx.len() - 32..];
    assert!(
        FragmentData::from_ranges(Molecule::Dna, 0, table, table, vec![0; 20], vec![0; 20]).is_ok()
    );
    let alias = AliasFile {
        title: "nt-sim".into(),
        molecule: Molecule::Dna,
        volumes: vec!["nt-sim.00".into(), "nt-sim.01".into()],
        global_stats: DbStats {
            num_sequences: 42,
            total_residues: 12345,
        },
    }
    .encode();
    for input in hostile_inputs(&idx, &mut noise) {
        survives("from_file_bytes", &input, |b| {
            FragmentData::from_file_bytes(b, vec![0; 30], vec![0; 20])
        });
    }
    for input in hostile_inputs(table, &mut noise) {
        survives("decode_rebased_table", &input, |b| {
            FragmentData::from_ranges(Molecule::Dna, 0, b, table, vec![0; 20], vec![0; 20])
        });
    }
    for input in hostile_inputs(&alias, &mut noise) {
        survives("AliasFile", &input, AliasFile::decode);
    }
}

#[test]
fn fasta_parser_survives_hostile_bytes() {
    // FASTA arrives from files: `formatdb`'s input and every query file.
    // Noise, FASTA-shaped noise and damaged valid FASTA must parse or be
    // a `FastaError`, never a panic — and what parses writes back to the
    // same records.
    let mut noise = Noise(0x5EED_FA57_A000_0001);
    let shaped = b">>\n\r \t|ACGTNXBZJUOacgtnx*-1";
    let protein: &[u8] = b">q1 first\nMKVLAAGHWR\nTEYFNDCQ*X\n\n>q2\r\nbzjuo\n>\nmkv\n";
    let dna: &[u8] = b">n1 dna\nACGTNacgtn\r\nGG CC\n>n2\n";
    for (molecule, valid) in [(Molecule::Protein, protein), (Molecule::Dna, dna)] {
        assert!(fasta::parse(molecule, valid).is_ok());
        let mut inputs = hostile_inputs(valid, &mut noise);
        inputs.extend((0..256).map(|i| {
            (0..i % 64)
                .map(|_| shaped[noise.next() as usize % shaped.len()])
                .collect()
        }));
        for input in inputs {
            if let Ok(records) = fasta::parse(molecule, &input) {
                let written = fasta::to_string(&records, 7);
                let again = fasta::parse(molecule, written.as_bytes());
                assert_eq!(again.ok(), Some(records), "{input:02x?}");
            }
        }
    }
}

struct Golden {
    recorded: Vec<(&'static str, &'static str)>,
    seen: usize,
}

impl Visitor for Golden {
    fn visit<T: Wire + PartialEq + Debug>(&mut self, golden: Option<&'static str>, value: T) {
        let Some(name) = golden else { return };
        let (_, want) = self
            .recorded
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden line for {name}"));
        let got: String = value.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(&got, want, "{name}: wire bytes moved");
        self.seen += 1;
    }
}

#[test]
fn wire_bytes_equal_the_parent_commits() {
    let recorded: Vec<(&str, &str)> = include_str!("common/wire_golden.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_once(' ').expect("name, space, hex"))
        .collect();
    let mut golden = Golden { recorded, seen: 0 };
    every_type(&mut golden);
    assert_eq!(
        golden.seen,
        golden.recorded.len(),
        "a golden line has no fixture"
    );
}

fn truncated<T: Debug>(what: &str, decoded: Result<T, CodecError>) {
    assert!(
        matches!(decoded, Err(CodecError::Truncated { .. })),
        "{what}: {decoded:?}"
    );
}

#[test]
fn a_count_of_four_ff_bytes_is_truncated_input_not_an_abort() {
    // At the parent each of these sized a `Vec` from the count and died
    // in the allocator ("memory allocation of ... bytes failed").
    let lie = [0xffu8; 4];
    truncated("OffsetAssignment", OffsetAssignment::decode(&lie));
    truncated("MetaSubmission", MetaSubmission::decode(&lie));
    truncated("PartitionMessage", PartitionMessage::decode(&lie));
    truncated(
        "ResultSubmission",
        ResultSubmission::decode(&(5u32, u32::MAX).encode()),
    );
    // A bundle's query list, behind a valid title, statistics and molecule.
    let mut bundle = QueryBundle {
        db_title: "nr-sim".into(),
        db_stats: DbStats {
            num_sequences: 7,
            total_residues: 700,
        },
        molecule: Molecule::Protein,
        queries: Vec::new(),
    }
    .encode();
    let count_at = bundle.len() - 4;
    bundle[count_at..].copy_from_slice(&lie);
    truncated("QueryBundle", QueryBundle::decode(&bundle));
}

#[test]
fn a_28_byte_checkpoint_with_a_lying_record_count_is_truncated_input() {
    // What `dead_event` may read back off the shared file system after a
    // torn write: a valid magic and an empty metadata frame, then a
    // record count of `u32::MAX` over four bytes of nothing.
    let blob = FragmentCheckpoint::default().encode();
    assert_eq!(blob.len(), 24);
    let mut torn = blob[..20].to_vec();
    torn.extend([0xff; 4]);
    torn.extend([0; 4]);
    assert_eq!(torn.len(), 28);
    truncated("FragmentCheckpoint", FragmentCheckpoint::decode(&torn));
}

#[test]
fn checkpoint_record_text_that_is_not_utf8_is_a_bad_value() {
    // Records are shared bytes in memory but `String`s on the wire: a
    // blob whose record text does not decode as UTF-8 is rejected, as it
    // was when the field was a `String`, and a valid one decodes to the
    // very text that was put.
    let ck = FragmentCheckpoint {
        batch: 1,
        fragment: 7,
        meta: meta(),
        records: vec![(1, 4, ">record text\n".into())],
    };
    let blob = ck.encode();
    assert_eq!(FragmentCheckpoint::decode(&blob), Ok(ck));
    let mut bad = blob.clone();
    let last = bad.len() - 1;
    bad[last] = 0xff;
    assert_eq!(
        FragmentCheckpoint::decode(&bad),
        Err(CodecError::BadValue {
            what: "FragmentCheckpoint.records"
        })
    );
}

#[test]
fn a_flipped_count_byte_in_an_idx_file_is_truncated_input() {
    // `printf '\x10' | dd of=db/cidb.idx bs=1 seek=64 conv=notrunc`: byte
    // 4 of the offset count, which then claims 2^36 entries.
    let mut idx = VolumeIndex {
        title: "cidb".into(),
        ..volume_index()
    }
    .encode();
    idx[64] = 0x10;
    truncated("VolumeIndex", VolumeIndex::decode(&idx));
}
