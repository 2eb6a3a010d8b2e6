#!/usr/bin/env bash
# Tier-1 gate plus lint: what every PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
# --workspace: the root facade package does not depend on pioblast-cli,
# and the observability gate below runs the release binary.
cargo build --release --workspace
cargo test -q
# Every crate's own tests too: the named runs below pick single tests
# out, and a crate's library tests can go red with none of them named.
cargo test --release -q --workspace
# The fault-recovery proptests run under the vendored proptest's
# deterministic per-test RNG (TestRng::from_name), so this is a fixed
# seed: failures reproduce exactly, in CI and locally.
cargo test --release -q --test fault_recovery
# The lifted restriction must stay lifted: aggregated input under the
# dynamic schedule + Recover, byte-identical across worker kills.
cargo test --release -q --test fault_recovery collective_input_under_recovery_is_byte_identical
# Nonblocking-plane interleaving proptests: async begin/wait orderings
# (epoch-fence crossings, worker kills with ops in flight under
# Recover) must stay byte-identical to the sync plane, and malformed
# inputs / a full file system must degrade to typed errors, not aborts.
cargo test --release -q --test async_io
# Intra-rank compute slots: the sharded subject scan + deterministic
# merge must stay byte-identical to the serial kernel across shard
# counts x fragment shapes x Recover kills x the async plane.
cargo test --release -q --test hybrid
# Query-stream service mode: every stream batch's report byte-identical
# to its one-shot run across affinity x io-async x threads x Recover
# kills, and the resident store actually hits. And the lowering decides
# what a death means: without --recover (point-to-point, FaultMode::Off)
# a killed worker fails the stream fast — WorkerDied on the master,
# Aborted on the survivors — never Ok with wrong bytes.
cargo test --release -q --test service
# Pipelined stream batches: without --recover the next batch is granted
# from the merge on while the merged batch's report writes land (parked
# on the nonblocking plane, each acknowledged by its own completion).
# A batch arriving 50 ms after the merge is granted only once admitted
# while the merged batch seals at the parent commit's instant; a kill
# with a write in flight fails fast, and under --recover keeps the
# parent's grant order and reports; a report that does not fit ends in
# a typed Output error on both planes; every pipelined batch equals its
# one-shot job; the ack is traced as the worker's own send; a completion
# hook says whether the write landed; the machine grants at the merge
# and collects after the seal.
for t in a_batch_arriving_after_the_merge_is_granted_once_admitted_while_the_last_one_seals \
         a_kill_with_a_report_write_in_flight_fails_fast_or_recovers_as_before \
         a_report_that_does_not_fit_ends_in_a_typed_output_error \
         pipelined_stream_batches_equal_their_one_shot_jobs; do
  cargo test --release -q --test service "$t" -- --exact
done
cargo test --release -q --test trace a_parked_writes_acknowledgement_is_traced_as_the_workers_send
cargo test --release -q -p parafs --lib a_completion_hook_runs_when_the_write_lands_and_says_whether_it_did
cargo test --release -q -p mpiio --lib a_parked_output_write_lands_while_the_rank_computes_and_reports_at_its_join
cargo test --release -q -p pioblast --lib a_fail_fast_stream_grants_the_next_batch_at_the_merge_and_collects_it_after_the_seal
# The engine thread: rank bodies, service callbacks and teardown all
# run on one spawned thread per run (one OS thread at 16 and at 512
# ranks), Sim::with_pool is an inert alias, and a rank-body panic or a
# deadlock drains every fiber into a typed error, never a hang.
cargo test --release -q --test engine
# Burst-buffer staging tier: bounded staging capacity must degrade to
# direct writes byte-identically across io-async x threads x batched
# epochs, and a worker killed with staged-but-
# undrained data must recover to the unstaged bytes (fence-before-ack).
cargo test --release -q --test burst
# The plane decides: the access class of reads and of writes is
# resolved from (collective_input, collective_output, schedule, fault),
# every row equal to the serial report with exactly the expected class
# tallies. And a split-collective write stays aligned when one
# aggregator's stage fails: a typed per-rank error after the closing
# barrier, never a deadlock — in the file layer and end to end.
cargo test --release -q -p pioblast --lib access_class_is_resolved_from_context
cargo test --release -q -p mpiio --lib split_collective_write_stays_aligned_when_one_rank_cannot_stage
cargo test --release -q --test burst staging_failure_inside_a_split_collective_is_typed_not_a_deadlock
# One stream kind, owned by the engine: a rank killed inside a blocking
# read or write must not leave its stream in the bandwidth share
# (survivors' reads take 1.001 s, not 1.501 s), and its write never lands.
cargo test --release -q -p parafs --lib killed
# One armed completion per file system: N posted ops in flight schedule
# at most 4 N heap events, on one rank or spread over sixteen. A re-arm
# per stream schedules ~N² — a 100x host regression at the same virtual
# nanosecond, so no virtual-clock gate (baselines, BENCH_*.json) sees it.
cargo test --release -q -p parafs --lib in_flight_io_costs_constant_events_per_op
cargo test --release -q -p mpiio --lib posted_output_costs_constant_engine_events_per_run
# Band-only traceback and direct renderer: score, edit script and record
# bytes must equal the dense reference kept in the test (indel homologs,
# unrelated lengths, band_pad 0..=64, one-residue ranges, dirty scratch),
# and formatting a 12 k-residue HSP must keep the scratch O(n x band).
cargo test --release -q -p blast-core --test traceback
cargo test --release -q -p blast-core --test edge_cases long_sequences_align_end_to_end
# Eight-lane extension DPs: a gapped X-drop score never exceeds the best
# global alignment of its own rectangle (and the pair whose rows once read
# cells left from two rows earlier stays pinned); both lane kernels equal
# the scalar kernels kept verbatim in tests/reference/ (homologs,
# unrelated and one-residue pairs, x_drop 0..=60, band_pad 0..=64, both
# scoring systems, 32-bit lanes, fresh and dirty scratch); and the SSE2,
# [i16; 8] and [i32; 8] lanes agree op by op and kernel by kernel.
cargo test --release -q -p blast-core --test properties gapped_score_is_at_most_the_rectangle_optimum
cargo test --release -q -p blast-core --test properties gapped_xdrop_reads_no_out_of_band_cell_left_from_two_rows_earlier
cargo test --release -q -p blast-core --test extend_lanes
cargo test --release -q -p blast-core --lib sse2_and_array_lanes_give_equal_extensions
cargo test --release -q -p blast-core --lib i16_backends_agree_on_every_operation
# Two-pass seed scan over 8-byte offset-biased diagonal cells: every
# admission equals the stamped 16-byte cell's (kept verbatim in
# tests/reference/), across subjects and through a bias overflow, and
# every search equals the one-pass scan kept verbatim in the test (1-12
# queries, spilled buckets, ambiguity codes, sub-word subjects, blastp
# and blastn, fresh and dirty scratch).
cargo test --release -q -p blast-core --lib biased_cells_admit_as_stamped_cells
cargo test --release -q -p blast-core --test seed_scan two_pass_scan_equals_the_one_pass_reference
# One prepare per query set per process: the memo never aliases two
# query sets or two SearchParams, holds no strong reference, and every
# rank is still charged — exactly the modeled cost under Modeled, its
# own measured build under Measured, reports equal to serial_report.
cargo test --release -q -p blast-core --lib shared_prepare
# One kernel scratch per engine thread, lent for one compute call: a
# nested borrow gets a fresh scratch with identical results, and a job's
# peak live heap grows by at most 16 KiB per added rank from 16 to 128
# ranks (37 KiB with a scratch per rank, 5 KiB with one per thread).
cargo test --release -q -p blast-core --lib nested_local_scratch_gives_the_outer_results
cargo test --release -q --test memory_scaling
# ...and the collective output write keeps no decoded copy of every rank's
# view on every rank: a job's peak live heap grows by at most 32 KiB per
# added rank from 16 to 128 ranks (61 KiB with the O(P²) decoded views,
# 17 KiB with the bundle read in place).
cargo test --release -q --test output_memory
cargo test --release -q --test cluster_behavior every_rank_is_charged_for_its_own_prepare
cargo test --release -q --test cluster_behavior measured_and_modeled_modes_agree_on_results
# One door for untrusted bytes: every `seqfmt::codec::Wire` type round-
# trips, rejects every strict prefix and one-byte extension, survives
# hostile bytes within an allocation budget, and encodes its fixture to
# the hex recorded from the parent of the PR that introduced the trait
# (tests/common/wire_golden.txt); the `ff ff ff ff` count, the 28-byte
# checkpoint and the flipped `.idx` byte are typed errors, not aborts.
cargo test --release -q --test codec
# ...and FASTA, read from every query and database file: noise and
# damaged valid FASTA parse or are a FastaError, never a panic.
cargo test --release -q --test codec fasta_parser_survives_hostile_bytes
# One run list: `mpiio::runs` is the only place the stack merges, cuts
# and slices offset-length lists. Against brute force on a small
# universe: `merge` equals the bitmap for every max_hole (unsorted,
# overlapping, empty and near-u64::MAX ranges), `merge_bytes` the
# serially written file with every run part one of the input pieces,
# `cut` the payload's regions as views, `Cover::slice` the naive lookup —
# `None` for every uncovered or straddling range.
cargo test --release -q -p mpiio --test properties
# ...and every run list still comes out as the parent's binary issued
# it: the fs.* operations of a holey and an adjacent view, per class x
# issue policy at 4 ranks, are literal lists recorded from that binary
# (independent writes since join strictly adjacent regions, never
# through a hole, as sieved writes do). A failed run stops nothing:
# serial and posted both attempt every run and report the same first
# error.
cargo test --release -q -p mpiio --test run_lists
# A peer aggregator that serves a short chunk in a collective read is a
# typed error after the closing barrier — release builds have no
# debug_assert, so there it used to be wrong-length bytes.
cargo test --release -q -p mpiio --lib a_short_chunk_from_a_peer_aggregator_is_a_typed_error_after_the_barrier
# ...and an aggregator whose own read fails (a view past EOF) still
# serves its peers and joins the barrier: its error, their corrupt
# chunks, the other domain's bytes — it used to return early and
# deadlock every rank waiting on it.
cargo test --release -q -p mpiio --test collective_read
# A grant whose byte range runs backwards is InputError::Fragment in
# both profiles (release used to wrap it into a ~2^64-byte read), at the
# read_fragments level and through a real dynamic worker.
cargo test --release -q -p pioblast --lib inverted_range
# A query or fragment index off the wire is checked where it is decoded:
# a forged submission (pio master, both lowerings; mpiBLAST master) or
# assignment (mpiBLAST worker) is a typed error naming the sender and the
# index, every rank released — it used to panic the receiving rank.
cargo test --release -q -p pioblast --lib a_master_rejects_a_submission_for_a_query_outside_the_batch
cargo test --release -q -p mpiblast --lib outside_the_set
# ...and a hostile master against a real worker, under both lowerings: a
# first message that is not the bundle, an abort first, an unknown tag, a
# truncated fenced request, an uncached or empty assignment, an
# assignment with no shipped-record list, a shipped record or a summary
# block overlapping the worker's own or running past the report end, a
# grant for a batch the bundle lacks, a non-QBATCH where stream queries
# are due, a dead master, a master that returned — each the worker's
# typed error, never a panic or a deadlock. And the master machine walks one fault-free dynamic cycle
# alike under Off and Recover; only Drain tells the lowerings apart.
cargo test --release -q -p pioblast --lib a_hostile_master_gets_a_typed_error_from_a_real_worker
cargo test --release -q -p pioblast --lib off_and_recover_lower_one_dynamic_cycle
# The worker is its command loop, checked on a real worker against a
# hand-played master through its search stats, its traced searches and
# the messages the master receives: the static schedule searches its
# share at each submission request; the dynamic one searches each grant
# before acknowledging it, re-searches held fragments first on a
# next-batch grant, and searches nothing on a resubmission; service mode
# never re-searches residents; a one-shot worker re-searches its
# fragments in grant order every batch.
for t in a_static_worker_searches_its_share_at_each_submission_request \
         a_dynamic_worker_searches_each_grant_before_acknowledging_it \
         a_service_worker_never_re_searches_its_residents \
         a_one_shot_worker_re_searches_its_fragments_in_grant_order; do
  cargo test --release -q -p pioblast --lib "runtime::tests::$t" -- --exact
done
# One record per fragment on the master: with the grant queue (owner and
# last holder; its own row holds the orphans) as its only fragment
# record, the master machine acts and moves exactly as the
# ledger-and-hints machine kept in crates/core/tests/reference/ does, on
# random event streams under every policy the configuration accepts —
# except the fail-fast service streams of more than one batch, which
# pipeline and are held to the pipeline's invariants instead. The live
# machine hands each submission to the merger as it lands (`Absorb`);
# each reference `Merge { subs }` must equal what it absorbed since the
# epoch opened, for every live worker. A
# fragment is preferred by its last holder only, and a checkpoint
# payload adopted into a ResultCache gives the metadata and records of
# formatting the fragment directly.
cargo test --release -q -p pioblast --test master_equivalence
cargo test --release -q -p mpisim --lib the_last_grant_decides_which_rank_a_fragment_prefers
cargo test --release -q -p pioblast --lib an_adopted_checkpoint_payload_equals_formatting_the_fragment
# The runtime is split by concern: no module over 600 lines above its tests.
awk 'FNR==1{n=0} /^#\[cfg\(test\)\]/{nextfile} ++n>600{print FILENAME ": over 600 lines above #[cfg(test)]"; bad=1; nextfile} END{exit bad}' crates/core/src/runtime/*.rs
# One store representation: random operation sequences, multi-piece
# runs (overlapping pieces included) and the four workload write
# patterns give the extent store the same bytes, lengths, totals and
# errors as the dense store it replaced (kept verbatim in the test), and
# no read changes under a later write.
cargo test --release -q -p parafs --test store_model
# One copy of every byte: a read of a preloaded file and every fragment
# read_fragments builds point into the store's own buffers, a read taken
# before an overwrite keeps the old bytes, and an output record written
# through the plane — independent or two-phase, serial or posted — is
# stored as the very buffer it was handed over in.
cargo test --release -q --test zero_copy
# A trace whose tracer dropped events says so in its export, and
# trace-check refuses it with the count; a healthy export has no such
# line, so every trace below stays byte-identical.
cargo test --release -q -p pioblast-cli --lib trace_check_refuses_a_trace_whose_tracer_dropped_events
# A worker that returns its own error has left the run like a killed one:
# the pump's sweep reports both, so under the point-to-point lowering a
# truncated `.seq` or a full file system ends in typed errors on every
# rank (AllWorkersDied under Recover, WorkerDied + Aborted in a stream
# without it) instead of a sweep that never ends. Each run arms a kill of
# the master at t = 1000 s, so a regression fails rather than hangs.
cargo test --release -q -p mpisim --lib a_detecting_poll_reports_departures_the_caller_holds_live
cargo test --release -q --test fault_recovery recovery_ends_when_every_worker_returns
cargo test --release -q --test service a_worker_that_returns_an_error_without_recover_fails_the_stream
# One liveness table per master: the pump sweeps only the ranks its
# caller holds live, so the caller must record each death it reports.
# Two kills under Recover leave one sweep.dead and one worker_dead each
# and the fault-free report; mpiBLAST's one death is swept once and
# ends the run in WorkerDied.
cargo test --release -q --test fault_recovery each_death_under_recovery_is_swept_and_handled_once
cargo test --release -q -p mpiblast --lib a_detected_death_is_swept_once_and_ends_the_run
# One death decision on the master: the machine requeues what no
# checkpoint covers and hands the rest to the master's own row of the
# grant queue. Two workers dead at one instant: every requeued fragment
# is one its owner never searched and is searched again on a live rank,
# the searched ones are the merge's orphans, and the report is the
# fault-free one. An heir's row stays ascending and releases to the
# queue's tail. Both death tests run under a host-time deadline, so a
# master that loops at one virtual instant fails instead of hanging.
cargo test --release -q --test fault_recovery a_death_requeues_exactly_what_its_checkpoints_do_not_cover
cargo test --release -q -p mpisim --lib an_heir_keeps_handed_fragments_ascending_and_releases_them_to_the_tail
# Recovery without a serial tail: a dead worker's leftover fragments are
# re-cut at record boundaries over every idle survivor, and the records
# of its checkpointed ones ride to the survivors with their assignments.
# A cut partitions a fragment's records and byte ranges for any k; the
# grant queue puts the pieces where the fragment was pending; the machine
# grants every piece, re-cuts a dead piece holder's piece and requeues a
# one-record fragment whole; one death's fragment is searched in seven
# pieces on seven survivors; the kill matrices (batched, staged,
# nonblocking, service) both split and ship and give fault-free reports;
# the checkpoint deletes are posted together and reach every piece.
cargo test --release -q -p seqfmt --lib split_pieces_partition_the_records_and_byte_ranges_of_any_fragment
cargo test --release -q -p mpisim --lib a_split_retires_a_pending_fragment_for_fresh_pieces_in_its_place
cargo test --release -q -p parafs --lib delete_all_posts_its_deletes_together
for t in a_death_with_pieces_grants_every_piece_to_idle_survivors \
         a_piece_holders_death_re_cuts_that_piece \
         a_one_record_fragment_is_requeued_whole; do
  cargo test --release -q -p pioblast --lib "runtime::master::tests::$t" -- --exact
done
cargo test --release -q -p pioblast --lib checkpoint_blobs_of_pieces_are_cleaned_up_after_a_killed_run
cargo test --release -q --test fault_recovery a_death_spreads_its_leftover_fragment_over_every_survivor
cargo test --release -q --test fault_recovery kills_that_split_fragments_and_ship_orphans_recover_byte_identically
cargo test --release -q --test burst staged_kills_that_split_and_ship_recover_byte_identically
cargo test --release -q --test async_io async_kills_that_split_and_ship_recover_byte_identically
cargo test --release -q --test service stream_kills_that_split_fragments_recover_byte_identically
# The master lays out the one-line summaries; the workers render them.
# `summary_len` equals the rendered line's length on every column edge
# (empty, 60-66 and 200 chars, multi-byte UTF-8) and score/E-value
# extreme; the master's sections, summary blocks split any way and the
# records tile the serial layout; blocks of at least 64 lines each go
# to the worker with the fewest lines so far; every report equals
# the serial oracle — one worker rendering every line, no empty block
# sent, a hitless query's notice on the master, static, dynamic,
# batched, Recover and service runs, a kill while rendering that
# re-ships the blocks — and the master's merge renders only headers,
# preambles, notices and footers. A worker whose master returned
# without a word ends in MasterDied at its next sweep, and a message
# still in flight over a 35 ms link is received first.
cargo test --release -q -p blast-core --test properties summary_len
cargo test --release -q -p pioblast --lib merge::tests
cargo test --release -q -p pioblast --lib blocks_of_at_least_64_lines_go_to_the_fewest_lines
for t in one_worker_renders_every_summary_line_of_a_two_rank_run \
         more_workers_than_summary_lines_send_and_write_no_empty_block \
         a_long_summary_is_split_over_the_workers_in_blocks_of_64_lines_or_more \
         a_query_without_hits_keeps_its_notice_on_the_master \
         every_schedule_renders_its_summaries_on_the_workers \
         a_kill_during_the_write_re_ships_the_summary_blocks_to_the_survivors; do
  cargo test --release -q --test output_equivalence "$t" -- --exact
done
cargo test --release -q --test trace the_master_renders_only_headers_preambles_notices_and_footers
cargo test --release -q -p mpisim --lib a_source_that_returned_is_a_dead_peer_once_its_messages_are_in
cargo test --release -q -p mpisim --lib a_detecting_receive_from_a_peer_that_returned_fails
# Read ahead inside a fragment: where a grant is searched on arrival and
# the plane posts reads, the worker reads the fragment's index slices,
# cuts it at record boundaries (the first piece the smallest prefix of
# 64 KiB of .seq, each later one at least twice the one before) and
# scans each piece while the next one is in flight. Any record-aligned
# cut partitions the records, .seq and .hdr, searches and merges to the
# whole fragment's result and stats, and formats, joined, to the whole
# fragment's payload; a fragment's pieces carry its fixed search cost
# once; reports equal the serial oracle under Off, Recover with
# checkpoints, burst, serve with affinity and two threads, and after a
# kill with a piece in flight; the next piece's read begins before this
# one's scan ends; and each fragment's traced search time is the
# modeled charge of its whole search.
cargo test --release -q -p seqfmt --lib read_ahead_pieces_start_small_and_at_least_double
cargo test --release -q -p seqfmt --lib a_fragments_slice_must_be_the_tables_its_spec_names
cargo test --release -q -p pioblast --lib any_record_aligned_cut_searches_and_formats_as_the_whole_fragment
cargo test --release -q -p mpiblast --lib the_scans_of_a_fragments_pieces_carry_its_fixed_cost_once
for t in read_ahead_reports_equal_the_serial_report_in_every_mode \
         a_kill_while_a_piece_is_in_flight_recovers_byte_identically \
         the_next_piece_is_read_while_this_one_is_searched \
         each_fragments_search_time_is_the_modeled_charge_of_its_search; do
  cargo test --release -q --test read_ahead "$t" -- --exact
done
# The master merges each submission as it lands: every submission is
# point-to-point under both lowerings, and the merger absorbs each one
# on arrival. Any arrival order, with or without orphans, tied rank keys
# and left-out (dead) ranks, lays out exactly as the one-shot
# merge_and_layout; a garbage submission under collectives ends every
# rank in a typed error (the workers released from the assignment
# scatter), not a hang; and in --recover runs every worker's TAG_SUBMIT
# send pairs with one traced master recv.done (recv_deadline traces
# its receipts as recv does).
cargo test --release -q -p pioblast --lib absorbing_in_any_arrival_order_lays_out_as_the_one_shot_merge
cargo test --release -q -p pioblast --lib a_garbage_submission_under_collectives_ends_every_rank_in_a_typed_error
cargo test --release -q --test trace every_submission_a_worker_sends_pairs_with_one_traced_receipt_on_the_master
# One failure vocabulary: mpiBLAST's setup failures are the PioError
# variants pioBLAST's are (Input(Store) for a missing query file,
# Input(Malformed) for a short or lying fragment index), every worker
# returns an error, with and without --fault-detect.
cargo test --release -q -p mpiblast --lib bad_setup_inputs_are_typed_errors_on_every_rank
# ...and a worker that fails a fragment and returns while the master is
# busy is named by the report it queued (WorkerFailed), not presumed dead.
cargo test --release -q -p mpiblast --lib a_worker_that_fails_while_the_master_is_busy_is_still_named
# Posted I/O is the default, and the two-phase report is opened where
# the rank is idle: opened ahead (the master before it waits for the
# first submission, a worker once it has submitted), the file's metadata
# operation leaves the write — which lands one operation latency sooner
# with as many metadata operations — and the other classes open nothing.
# `pioblast-sim run` prints each client's high-water mark of operations
# in flight, read off SimFs.
cargo test --release -q -p mpiio --lib an_output_opened_while_idle_leaves_the_write_and_keeps_its_stat_count
cargo test --release -q -p parafs --lib max_in_flight_is_the_largest_clients_high_water_mark
cargo test --release -q -p pioblast-cli --lib run_flags_are_validated
cargo test --release -q -p pioblast --lib constructors_return_the_paper_design
# Untrusted bytes in the I/O plane: a file view, the view exchange's
# bundle and a peer's chunk frame, truncated, overlong or noise, each
# decode or are StoreError::Corrupt — never a panic.
cargo test --release -q -p mpiio --lib view_decoders_turn_hostile_bytes_into_corrupt_errors
cargo test --release -q -p mpiio --lib the_chunk_frame_reader_turns_hostile_bytes_into_corrupt_errors
# A grant's acknowledgement waits for its posted checkpoint puts, so a
# worker killed right after it has lost no checkpoint; and the file
# system's first finisher, found without a division per stream, still
# gives a tie on one nanosecond to the stream issued first.
cargo test --release -q -p pioblast --lib a_grants_acknowledgement_waits_for_its_checkpoint
cargo test --release -q -p parafs --lib streams_that_round_to_one_instant_finish_in_issue_order
# Bench targets (paper exhibits and ablations) must at least compile.
cargo bench --workspace --no-run
# The paper's exhibits are claims: run the six that hold (~1.5 min
# together; each asserts its own shape). `fig3a` stays compile-only —
# its last assertion, "mpiBLAST must stop improving past ~31 workers",
# is red (1.51 s at 32 -> 1.40 s at 62 processes) until the model is
# calibrated: ROADMAP item 4.
for exhibit in fig1a fig1b fig3b fig4 table1 table2; do
  cargo bench -q -p blast-bench --bench "$exhibit" >/dev/null
done
# --all-targets: test, bench and example code is linted too.
cargo clippy --workspace --all-targets -- -D warnings
# The I/O plane is a public API layer: its docs must build clean.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# End-to-end observability gate: run a real search with --trace and
# validate the exported Chrome trace (monotonic per-lane timestamps,
# balanced begin/end span pairs).
tracetmp="$(mktemp -d)"
trap 'rm -rf "$tracetmp"' EXIT
cli=target/release/pioblast-sim
"$cli" gen --residues 30k --seed 5 --out "$tracetmp/db.fa"
"$cli" formatdb --in "$tracetmp/db.fa" --title cidb --out-dir "$tracetmp/db"
"$cli" sample --in "$tracetmp/db.fa" --bytes 1k --out "$tracetmp/q.fa"
"$cli" run --program pio --procs 4 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report.txt" --trace "$tracetmp/trace.json"
"$cli" trace-check --in "$tracetmp/trace.json"
# Same run with --io-async: requests are posted by default, so the flag
# is a no-op — the Chrome export is the default run's byte for byte
# (until the field and flag go, and this duplicate run with them).
"$cli" run --program pio --procs 4 --io-async \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-async.txt" --trace "$tracetmp/trace-async.json"
"$cli" trace-check --in "$tracetmp/trace-async.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-async.txt"
cmp "$tracetmp/trace.json" "$tracetmp/trace-async.json"
# The static scatter of three fragments per worker, posted: each
# worker's share is one coalesced view per file, the three files in
# flight together (13 plane.async.begin instants: nine reads, four
# report writes).
"$cli" run --program pio --procs 4 --frags 9 --io-async \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-async-frags.txt" --trace "$tracetmp/trace-async-frags.json"
"$cli" trace-check --in "$tracetmp/trace-async-frags.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-async-frags.txt"
# The dynamic schedule under the collective lowering: the request /
# grant / Drain loop (9 single-fragment grants), then the same
# point-to-point submissions and collective write as the static run.
"$cli" run --program pio --procs 4 --frags 9 --dynamic \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-dynamic.txt" --trace "$tracetmp/trace-dynamic.json"
"$cli" trace-check --in "$tracetmp/trace-dynamic.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-dynamic.txt"
# Slot-parallel run: four compute slots per worker must export a
# well-formed trace (per-slot Search sub-lanes validate too) and the
# report must stay byte-identical to the serial run.
"$cli" run --program pio --procs 4 --threads 4 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-hybrid.txt" --trace "$tracetmp/trace-hybrid.json"
"$cli" trace-check --in "$tracetmp/trace-hybrid.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-hybrid.txt"
# Service-mode gate: a traced 16-rank serve with affinity + residency,
# one query per stream batch, must export a well-formed trace AND every
# per-batch report must be byte-identical to running that query alone.
nq="$(grep -c '^>' "$tracetmp/q.fa")"
"$cli" serve --procs 16 --affinity --resident-mb 64 \
  --users 2 --stream-batches "$nq" --seed 9 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/svc.txt" --trace "$tracetmp/trace-serve.json"
"$cli" trace-check --in "$tracetmp/trace-serve.json"
for b in $(seq 0 $((nq - 1))); do
  awk -v n="$b" 'BEGIN{c=-1} /^>/{c++} c==n' "$tracetmp/q.fa" >"$tracetmp/q$b.fa"
  "$cli" run --program pio --procs 16 --dynamic --no-collective \
    --db-dir "$tracetmp/db" --queries "$tracetmp/q$b.fa" \
    --out "$tracetmp/ref$b.txt"
  cmp "$tracetmp/svc.txt.q$b" "$tracetmp/ref$b.txt"
done
# The same stream with --io-async, a no-op: each miss's three file reads
# are in flight together and resident hits never touch the plane in both
# runs. Well-formed trace, every per-batch report byte-identical, and the
# Chrome export the default serve's byte for byte.
"$cli" serve --procs 16 --affinity --resident-mb 64 --io-async \
  --users 2 --stream-batches "$nq" --seed 9 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/svc-async.txt" --trace "$tracetmp/trace-serve-async.json"
"$cli" trace-check --in "$tracetmp/trace-serve-async.json"
for b in $(seq 0 $((nq - 1))); do
  cmp "$tracetmp/svc.txt.q$b" "$tracetmp/svc-async.txt.q$b"
done
cmp "$tracetmp/trace-serve.json" "$tracetmp/trace-serve-async.json"
# Engine smoke at scale: 128 ranks run as fibers on the run's one
# engine thread. The trace must validate, and the report must be
# byte-identical to a 16-rank run over the same 15 fragments — rank
# count is a simulation parameter, not an OS resource.
"$cli" run --program pio --procs 128 --frags 15 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-128.txt" --trace "$tracetmp/trace-128.json"
"$cli" trace-check --in "$tracetmp/trace-128.json"
"$cli" run --program pio --procs 16 --frags 15 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-16ref.txt"
cmp "$tracetmp/report-128.txt" "$tracetmp/report-16ref.txt"
# Burst-buffer gate: staging output writes in the per-node burst buffer
# (striped across four backing files, the library default) must export
# a well-formed trace (stage.put/stage.drain spans validate with
# everything else) and the merged report must stay byte-identical to
# the unstaged run.
"$cli" run --program pio --procs 4 --burst-buffer \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-burst.txt" --trace "$tracetmp/trace-burst.json"
"$cli" trace-check --in "$tracetmp/trace-burst.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-burst.txt"
# Recovery lowering gate: the point-to-point protocol with checkpoints,
# posted fragment reads, fire-and-collect checkpoint puts and the staging
# fences (no kill: the CLI injects none) must export a well-formed
# trace and the same report bytes as the collective run.
"$cli" run --program pio --procs 4 --recover --checkpoint --io-async --burst-buffer \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-recover.txt" --trace "$tracetmp/trace-recover.json"
"$cli" trace-check --in "$tracetmp/trace-recover.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-recover.txt"
# The mpiBLAST baseline, without and with --fault-detect: copy stage,
# serialized fetches and master-only writes must export a well-formed
# trace, and its report must be pioBLAST's byte for byte. Detection only
# chops the master's waits into sweeps; no message or report byte moves.
"$cli" run --program mpi --procs 4 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-mpi.txt" --trace "$tracetmp/trace-mpi.json"
"$cli" trace-check --in "$tracetmp/trace-mpi.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-mpi.txt"
"$cli" run --program mpi --procs 4 --fault-detect \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-mpi-detect.txt" --trace "$tracetmp/trace-mpi-detect.json"
"$cli" trace-check --in "$tracetmp/trace-mpi-detect.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-mpi-detect.txt"
# And the trace-diff of two identical runs must be empty. (Via a file:
# grep -q would close the pipe early and SIGPIPE the still-printing CLI.)
"$cli" trace-diff --a "$tracetmp/trace-128.json" --b "$tracetmp/trace-128.json" \
  >"$tracetmp/diff-self.txt"
grep -q "traces are equivalent" "$tracetmp/diff-self.txt"
# Regression gate: every traced run above is checked against its
# committed per-(lane,phase) busy-ns baseline. The DES is deterministic,
# so the profile must render to the committed file byte for byte; a
# mismatch lists the baseline's rows (-) and the run's (+). When a
# change legitimately moves a profile, regenerate it with
#   target/release/pioblast-sim trace-diff --in <trace.json> \
#     --write-baseline scripts/trace-baselines/<name>.tsv
# and commit the result.
for t in trace trace-async trace-async-frags trace-dynamic trace-hybrid trace-serve \
  trace-serve-async trace-128 trace-burst trace-recover trace-mpi trace-mpi-detect; do
  "$cli" trace-diff --in "$tracetmp/$t.json" --baseline "scripts/trace-baselines/$t.tsv"
done

# The frozen benchmark harness (benchmark/, BENCHMARK.json) builds what
# it measures from this checkout: it must compile against the change,
# pass its own correctness checks (every report equal to the serial
# oracle, traced = untraced, input fingerprints), and neither it nor its
# lock file may have been rewritten.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke
git diff --exit-code -- benchmark/ BENCHMARK.json
# The committed trace baselines are the definition of "same behaviour":
# a change that had to regenerate one must say so, not slip it through.
git diff --exit-code -- scripts/trace-baselines

# The committed BENCH_*.json files are virtual-clock results, so they
# regenerate byte for byte: run the six harnesses that write them (each
# also asserts its own headline) and fail on any difference. A change
# that moves a number commits the regenerated file and says so.
for bench in ablate_faults ablate_io ablate_burst ablate_service ablate_hybrid ablate_scale; do
  cargo bench -q -p blast-bench --bench "$bench" >/dev/null
done
git diff --exit-code -- 'BENCH_*.json'
