(** Routine-granular incremental IR construction (the delta path).

    Caches IR at two granularities and builds a full
    {!Ir_construction.t} without rerunning the expensive disassembly
    aggregation:

    - {e routine fragments}: the keys of {!Disasm.Chunker} chunks a
      build disassembled conclusively, keyed by chunk bytes + decode
      lookahead + the chunk-relative inbound-reference fingerprint.  A
      fragment holds no instructions; a hit says the binary shares that
      routine with one built before, which is when a stitch is tried.
      A changed caller whose references into an unchanged callee are
      unchanged does not touch the callee's key;
    - an {e assembled-IR memo}: the finished pristine IR of a whole
      binary, a hit paying only one {!Irdb.Db.copy}.

    The stitch is {!Par_ir.build} at one job, so its result is
    byte-identical to the cold path: the aggregate is used only when a
    fresh recursive traversal validates against the linear framing of
    the whole text, and it then flows through the same
    {!Ir_construction.build_from_aggregate}.  Any doubt falls back to a
    cold build (reported as a miss) — unsupported binaries are slow,
    never wrong.  See DESIGN.md §12. *)

type t

val create :
  ?fragment_bytes:int ->
  ?memo_capacity:int ->
  ?dir:string ->
  ?max_disk_entries:int ->
  ?max_disk_bytes:int ->
  unit ->
  t
(** Fragments: at most 65536 entries and, with [fragment_bytes], that
    many resident bytes.  The whole-IR memo: at most [memo_capacity]
    entries (default 64) and no byte budget.  [dir] persists fragments
    on disk as [.zirr] files (atomic framed writes; corruption reads
    back as a miss); [max_disk_entries] / [max_disk_bytes] bound that
    directory, oldest entry first, as for {!Irdb.Cache.create}.  The
    memo is memory-only.  Safe to share across domains. *)

type key_set
(** Precomputed key material for one binary (chunking, per-chunk keys,
    memo key), carried from {!obtain} to {!harvest} so the scan is not
    repeated. *)

type outcome = {
  ir : Ir_construction.t option;
      (** the composed IR, or [None] when the caller must build cold
          (and should then {!harvest}) *)
  routine_hits : int;  (** chunks whose fragment hit (every chunk on a memo hit) *)
  routine_misses : int;  (** chunks whose fragment missed, or all chunks on fallback *)
  delta_built : bool;  (** [ir] came from a stitch, not the memo *)
  keys : key_set;
}

val obtain :
  t -> pin_config:Analysis.Ibt.config -> ?infer:bool -> Zelf.Binary.t -> outcome
(** Try to serve IR construction from the cache: memo first, then a
    stitch ({!Par_ir.build} at one job) when at least one fragment hits
    and the whole text validates.  [infer] (default false) enters the key
    fingerprint — caches populated with and without the inference
    refiner never cross-pollinate — and a stitched aggregate recomputes
    the refiner's pin hints over its validated boundaries. *)

val decoded : outcome -> Disasm.Decoded.t option
(** The decode table a memo miss built for the chunk scan and stitch,
    already partly filled; a caller that must build cold passes it on.
    [None] after a memo hit, which decodes nothing. *)

val harvest : t -> outcome -> Ir_construction.t -> unit
(** Publish a cold (or snapshot-restored) build's results: a fragment
    for every chunk the disassembly aggregation was conclusive about,
    plus the whole-binary memo.  Must be called on the pristine IR, before
    transforms mutate it (the memo keeps its own copy). *)

(* Introspection, for stats surfaces and tests. *)

val fragment_entries : t -> int
val fragment_bytes : t -> int
val memo_entries : t -> int
